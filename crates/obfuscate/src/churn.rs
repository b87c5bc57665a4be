//! Comment and whitespace churn.
//!
//! Strips existing comments (defeating rules that key on commented-out
//! IOC hints) and sprinkles benign-looking comment and blank lines
//! between statements. Comment-only and blank lines are invisible to the
//! interpreter — `pysrc`'s indentation handling skips them — so this is
//! trivially semantics-preserving, yet it shifts every byte offset and
//! breaks naive offset- or context-anchored signatures.

use pysrc::Kind;
use rand::rngs::StdRng;
use rand::Rng;

use crate::edit::{apply_edits, Edit, TokenView};

const WORDS: &[&str] = &[
    "legacy",
    "compat",
    "shim",
    "cache",
    "helper",
    "wrapper",
    "internal",
    "vendored",
    "stable",
    "fallback",
    "optimized",
    "generated",
    "refactor",
    "cleanup",
    "notes",
];

fn decoy_comment(rng: &mut StdRng) -> String {
    let a = WORDS[rng.gen_range(0..WORDS.len())];
    let b = WORDS[rng.gen_range(0..WORDS.len())];
    format!("# {a} {b} {}\n", rng.gen_range(0..100u32))
}

pub(crate) fn apply(source: &str, rng: &mut StdRng) -> String {
    let view = TokenView::new(source);
    let mut edits = Vec::new();
    for &t in view.tokens.iter() {
        let text = t.text(source);
        match t.kind {
            // Drop most existing comments (keep shebang/coding lines).
            Kind::COMMENT
                if !text.starts_with("#!") && !text.contains("coding") && rng.gen_bool(0.7) =>
            {
                edits.push(Edit::token(t, ""));
            }
            // After a statement boundary, occasionally inject churn.
            // NEWLINE tokens only exist at bracket depth zero, so the
            // insertion point is always a real line boundary.
            Kind::NEWLINE if t.end > t.start => {
                let end = t.end as usize;
                if rng.gen_bool(0.2) {
                    edits.push(Edit::insert(end, decoy_comment(rng)));
                } else if rng.gen_bool(0.15) {
                    edits.push(Edit::insert(end, "\n".to_owned()));
                }
            }
            _ => {}
        }
    }
    apply_edits(source, edits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn injects_comments_and_strips_old_ones() {
        let src = "# C2: 1.2.3.4\nx = 1\ny = 2\nz = 3\nw = 4\n";
        let out = apply(src, &mut StdRng::seed_from_u64(1));
        assert!(!out.contains("C2: 1.2.3.4"), "{out}");
        // Statements survive with identical values.
        let m = pysrc::parse_module(&out);
        let assigns = m
            .top_level()
            .filter(|s| matches!(s, pysrc::Stmt::Assign { .. }))
            .count();
        assert_eq!(assigns, 4);
    }

    #[test]
    fn indented_blocks_unbroken() {
        let src = "def f():\n    a = 1\n    b = 2\n    return a + b\n";
        let out = apply(src, &mut StdRng::seed_from_u64(9));
        let m = pysrc::parse_module(&out);
        match m.top_level().next() {
            Some(pysrc::Stmt::FunctionDef { body, .. }) => assert_eq!(m.suite(*body).count(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deterministic() {
        let src = "x = 1\ny = 2\n";
        let a = apply(src, &mut StdRng::seed_from_u64(3));
        let b = apply(src, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }
}
