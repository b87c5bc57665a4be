//! Golden digests pinning `pysrc`'s front end over the whole tiny corpus.
//!
//! The lexer and parser sit under every artifact, verdict and generated
//! rule, so a refactor of either must reproduce the token stream and the
//! module to the byte. The two constants fold an FNV-1a of the `Debug`
//! rendering of `lex_spanned` / `parse_module` over every Python file of
//! the tiny corpus and of its aggressive mutants (seed 42). They live
//! here rather than in `pysrc`'s own tests because this is the lowest
//! crate that already depends on `pysrc`, `obfuscate` and `digest`.
//!
//! A change to either constant needs a stated reason in the commit that
//! makes it.

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use obfuscate::EvasionProfile;

/// Recorded at commit 309ca55 (before ISSUE 21 touched `pysrc`).
const LEX_DIGEST: u64 = 0xf9d8_07f2_ca66_ad12;
const PARSE_DIGEST: u64 = 0xdd96_00fe_83e3_5a70;

fn fold(render: impl Fn(&str) -> String) -> u64 {
    let base = Dataset::generate(&CorpusConfig::tiny());
    let mutants = mutate_dataset(&base, &EvasionProfile::aggressive(), 42);
    let mut acc = 0u64;
    for dataset in [&base, &mutants] {
        let packages = dataset
            .malware
            .iter()
            .map(|m| &m.package)
            .chain(dataset.legit.iter().map(|l| &l.package));
        for package in packages {
            for file in package.files().iter().filter(|f| f.path.ends_with(".py")) {
                let mut bytes = acc.to_le_bytes().to_vec();
                bytes.extend_from_slice(render(&file.contents).as_bytes());
                acc = digest::fnv1a(&bytes);
            }
        }
    }
    acc
}

#[test]
fn lex_spanned_output_is_pinned() {
    let got = fold(|src| format!("{:?}", pysrc::lex_spanned(src)));
    assert_eq!(got, LEX_DIGEST, "lex digest is now {got:#018x}");
}

#[test]
fn parse_module_output_is_pinned() {
    let got = fold(|src| format!("{:?}", pysrc::parse_module(src)));
    assert_eq!(got, PARSE_DIGEST, "parse digest is now {got:#018x}");
}
