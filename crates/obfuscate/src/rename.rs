//! Identifier renaming: every module-level `def`/`class` name and simple
//! assignment target is consistently replaced with a minted benign name.
//!
//! This is the cheapest real-world evasion: a republished PyPI payload
//! with `send_beacon` renamed to `cfg_3fa1` defeats any rule whose only
//! atoms are the author's function names. Attribute names (`os.system`)
//! and imported names are deliberately left alone — renaming those would
//! change behavior, and this engine only produces semantics-preserving
//! mutants.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::Rng;

use crate::edit::{apply_edits, fresh_ident, Edit, TokenView, ASSIGN};

/// Names never renamed even when assigned: rebinding these is either a
/// Python special form or too entangled with runtime semantics.
const PROTECTED: &[&str] = &[
    "self",
    "cls",
    "__all__",
    "__version__",
    "__name__",
    "__doc__",
];

pub(crate) fn apply(source: &str, rng: &mut StdRng) -> String {
    let view = TokenView::new(source);
    let n = view.tokens.len();

    // Names bound by import statements must keep their spelling here;
    // the aliasing transform owns those.
    let mut imported: HashSet<&str> = HashSet::new();
    for i in 0..n {
        if view.in_import[i] {
            if let Some(w) = view.ident(i) {
                imported.insert(w);
            }
        }
    }

    // Candidates: `def name` / `class name`, plus simple statement-level
    // assignment targets (`name = ...` at the start of a logical line).
    // Names that also appear in keyword-argument / defaulted-parameter
    // position are excluded wholesale: renaming them consistently would
    // require call-convention knowledge this rewriter does not have.
    let kwarg_like = view.kwarg_like_names();
    let mut candidates: Vec<(&str, bool)> = Vec::new();
    let mut seen: HashSet<&str> = HashSet::new();
    for i in 0..n {
        let Some(w) = view.ident(i) else { continue };
        if pysrc::is_keyword(w)
            || w.starts_with("__")
            || PROTECTED.contains(&w)
            || imported.contains(w)
            || kwarg_like.contains(w)
            || view.in_import[i]
            || w.len() < 2
        {
            continue;
        }
        let is_def_name = i > 0
            && matches!(view.ident(i - 1), Some("def") | Some("class"))
            && !view.in_import[i - 1];
        let is_assign_target =
            view.at_line_start(i) && i + 1 < n && view.is(i + 1, ASSIGN) && !view.follows_dot(i);
        if (is_def_name || is_assign_target) && seen.insert(w) {
            candidates.push((w, is_def_name));
        }
    }

    // def/class names always rename (that is the attack); assignment
    // targets rename with high probability so mutants vary in coverage.
    let mut taken = view.all_idents();
    let mut map: HashMap<&str, String> = HashMap::new();
    for &(name, is_def) in &candidates {
        if is_def || rng.gen_bool(0.9) {
            map.insert(name, fresh_ident(rng, &mut taken));
        }
    }
    if map.is_empty() {
        return source.to_owned();
    }

    let mut edits = Vec::new();
    for i in 0..n {
        let Some(w) = view.ident(i) else { continue };
        let Some(new) = map.get(w) else { continue };
        // Attribute positions (`obj.name`) refer to a different binding;
        // kwarg-position occurrences cannot exist for surviving
        // candidates (kwarg-entangled names were excluded above).
        if view.follows_dot(i) || view.in_import[i] {
            continue;
        }
        edits.push(Edit::token(view.tokens[i], new.clone()));
    }
    apply_edits(source, edits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn run(src: &str) -> String {
        apply(src, &mut StdRng::seed_from_u64(7))
    }

    #[test]
    fn renames_def_and_uses_consistently() {
        let src = "def send_beacon():\n    return 1\n\nsend_beacon()\n";
        let out = run(src);
        assert!(!out.contains("send_beacon"), "{out}");
        // Still one def and one call of the same name.
        let m = pysrc::parse_module(&out);
        let name = match m.top_level().next() {
            Some(pysrc::Stmt::FunctionDef { name, .. }) => name.text(&out),
            other => panic!("unexpected {other:?}"),
        };
        assert!(out.contains(&format!("{name}()")));
    }

    #[test]
    fn keeps_imports_and_attributes() {
        let src = "import os\nhost = 'x'\nos.system(host)\n";
        let out = run(src);
        assert!(out.contains("import os"));
        assert!(out.contains("os.system"));
        assert!(!out.contains("host"), "{out}");
    }

    #[test]
    fn kwarg_entangled_names_are_never_renamed() {
        // `shell` doubles as a module variable and a keyword-argument
        // name: renaming either occurrence would change semantics, so
        // the whole name is off limits.
        let src = "shell = 1\nPopen(cmd, shell=True)\n";
        let out = run(src);
        assert!(out.contains("shell=True"), "{out}");
        assert!(out.contains("shell = 1"), "{out}");
    }

    #[test]
    fn defaulted_parameters_stay_consistent_with_their_body() {
        // A defaulted parameter shadowing a module global must not end
        // up half-renamed (body renamed, parameter kept).
        let src = "host = 'x'\n\ndef fetch(host=1):\n    return host\n";
        let out = run(src);
        assert!(out.contains("host = 'x'"), "{out}");
        assert!(out.contains("(host=1)"), "{out}");
        assert!(out.contains("return host"), "{out}");
    }

    #[test]
    fn deterministic_per_seed() {
        let src = "def fetch():\n    payload = 1\n    return payload\n";
        let a = apply(src, &mut StdRng::seed_from_u64(3));
        let b = apply(src, &mut StdRng::seed_from_u64(3));
        let c = apply(src, &mut StdRng::seed_from_u64(4));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn self_and_dunders_protected() {
        let src = "__version__ = '1.0'\nclass A:\n    def m(self):\n        self.x = 1\n";
        let out = run(src);
        assert!(out.contains("__version__"));
        assert!(out.contains("self.x"));
    }
}
