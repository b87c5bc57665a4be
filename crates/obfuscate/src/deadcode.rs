//! Dead-code padding and decoy-function injection.
//!
//! Registry malware pads payloads with plausible-looking helper code so
//! the file's statistical shape (entropy, LoC, identifier mix) matches a
//! legitimate package. The decoys below are pure-computation functions
//! that are never called — they must not contain any API an analyzer
//! could mistake for a behavior, or the mutation would change the
//! package's ground-truth label.

use std::collections::HashSet;

use pysrc::Kind;
use rand::rngs::StdRng;
use rand::Rng;

use crate::edit::{apply_edits, fresh_ident, Edit, TokenView, AT};

/// A decoy helper. Deliberately vocabulary-restricted: arithmetic,
/// strings, lists — no imports, no I/O, no dynamic execution.
fn decoy_function(rng: &mut StdRng, taken: &mut HashSet<String>) -> String {
    let name = fresh_ident(rng, taken);
    let arg = fresh_ident(rng, taken);
    match rng.gen_range(0..3u32) {
        0 => format!(
            "def {name}({arg}):\n    total = 0\n    for index in range(len({arg})):\n        total = total + index * {}\n    return total\n",
            rng.gen_range(2..9u32)
        ),
        1 => format!(
            "def {name}({arg}):\n    parts = []\n    for item in {arg}:\n        parts.append(str(item))\n    return '-'.join(parts)\n"
        ),
        _ => format!(
            "def {name}({arg}={}):\n    if {arg} % 2 == 0:\n        return {arg} // 2\n    return {arg} * 3 + 1\n",
            rng.gen_range(10..99u32)
        ),
    }
}

/// An `if False:` guarded block — dead at runtime, visible to scanners.
fn dead_branch(rng: &mut StdRng, taken: &mut HashSet<String>) -> String {
    let name = fresh_ident(rng, taken);
    format!(
        "if False:\n    {name} = [value * {} for value in range({})]\n",
        rng.gen_range(2..7u32),
        rng.gen_range(5..40u32)
    )
}

pub(crate) fn apply(source: &str, rng: &mut StdRng) -> String {
    let view = TokenView::new(source);
    let mut taken = view.all_idents();
    let n = view.tokens.len();

    // Top-level insertion points: after a NEWLINE whose next significant
    // token starts at column 0 (skipping comments/blank handling and
    // DEDENT synthesis).
    let mut points = Vec::new();
    for i in 0..n {
        let t = view.tokens[i];
        if t.kind != Kind::NEWLINE || t.end == t.start {
            continue;
        }
        let mut j = i + 1;
        while j < n
            && matches!(
                view.tokens[j].kind,
                Kind::DEDENT | Kind::COMMENT | Kind::NEWLINE
            )
        {
            j += 1;
        }
        if j >= n {
            continue;
        }
        // An INDENT next means the newline opened a nested block — its
        // synthesized col 0 must not be mistaken for a top-level line.
        // A continuation clause (`else:`/`elif`/`except`/`finally`) or a
        // decorator must stay glued to its neighbor statement: splicing
        // a decoy in between would detach it.
        let glued =
            matches!(view.ident(j), Some("else" | "elif" | "except" | "finally")) || view.is(j, AT);
        // The line this NEWLINE terminates: a decorator line must keep
        // the following statement attached, so it is no boundary either.
        let mut first_of_line = None;
        for k in (0..i).rev() {
            match view.tokens[k].kind {
                Kind::NEWLINE | Kind::INDENT | Kind::DEDENT => break,
                Kind::COMMENT => continue,
                _ => first_of_line = Some(k),
            }
        }
        let after_decorator = first_of_line.is_some_and(|k| view.is(k, AT));
        if view.tokens[j].at_column_zero()
            && !glued
            && !after_decorator
            && !matches!(view.tokens[j].kind, Kind::EOF | Kind::INDENT)
        {
            points.push(t.end as usize);
        }
    }

    let mut edits = Vec::new();
    for &p in &points {
        if rng.gen_bool(0.12) {
            let block = if rng.gen_bool(0.3) {
                dead_branch(rng, &mut taken)
            } else {
                decoy_function(rng, &mut taken)
            };
            edits.push(Edit::insert(p, format!("\n{block}\n")));
        }
    }
    // Always at least one decoy at end of file (safe even when the file
    // ends mid-block: the leading newline re-anchors column zero).
    let tail = decoy_function(rng, &mut taken);
    let mut out = apply_edits(source, edits);
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("\n\n");
    out.push_str(&tail);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn appends_decoy_and_preserves_statements() {
        let src = "import os\nos.system('id')\n";
        let out = apply(src, &mut StdRng::seed_from_u64(1));
        assert!(out.contains("os.system('id')"));
        assert!(out.len() > src.len());
        let m = pysrc::parse_module(&out);
        assert!(m
            .top_level()
            .any(|s| matches!(s, pysrc::Stmt::FunctionDef { .. })));
    }

    #[test]
    fn decoys_avoid_behavior_vocabulary() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut taken = HashSet::new();
        for _ in 0..50 {
            let d = decoy_function(&mut rng, &mut taken);
            for banned in [
                "import",
                "os.",
                "sys.",
                "exec",
                "eval",
                "socket",
                "request",
                "subprocess",
                "base64",
                "open(",
            ] {
                assert!(!d.contains(banned), "decoy contains {banned}: {d}");
            }
            assert!(!pysrc::parse_module(&d).body.is_empty());
        }
    }

    #[test]
    fn clause_keywords_and_decorators_stay_glued() {
        let src = "if c:\n    a()\nelse:\n    b()\ntry:\n    r()\nexcept Exception:\n    pass\n@deco\ndef f():\n    return 0\n";
        for seed in 0..16 {
            let out = apply(src, &mut StdRng::seed_from_u64(seed));
            let m = pysrc::parse_module(&out);
            // The else/except clauses keep their bodies attached...
            let clause_bodies = m
                .top_level()
                .filter(|s| {
                    matches!(s, pysrc::Stmt::Block { keyword, body, .. }
                        if matches!(keyword.as_str(), "else" | "except") && !body.is_empty())
                })
                .count();
            assert_eq!(clause_bodies, 2, "seed {seed}: {out}");
            // ...and the decorated def still follows its decorator.
            assert!(out.contains("@deco\ndef f"), "seed {seed}: {out}");
        }
    }

    #[test]
    fn insertion_points_are_top_level() {
        let src = "def f():\n    a = 1\n    b = 2\n\nx = 3\ndef g():\n    return 0\n";
        // Whatever the seed injects, the two defs keep their bodies.
        for seed in 0..8 {
            let out = apply(src, &mut StdRng::seed_from_u64(seed));
            let m = pysrc::parse_module(&out);
            let f = m.top_level().find_map(|s| match s {
                pysrc::Stmt::FunctionDef { name, body, .. } if name.text(&out) == "f" => {
                    Some(m.suite(*body).count())
                }
                _ => None,
            });
            assert_eq!(f, Some(2), "seed {seed}: {out}");
        }
    }
}
