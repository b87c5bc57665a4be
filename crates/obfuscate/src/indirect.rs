//! Call indirection: `mod.func(...)` becomes `getattr(mod, 'func')(...)`.
//!
//! The attribute lookup is equivalent at runtime, but the dotted call
//! spelling disappears — and once the string obfuscation pass runs after
//! this one, even the attribute *name* stops existing as contiguous
//! text (`getattr(os, bytes.fromhex('73797374656d').decode('utf-8'))`).

use rand::rngs::StdRng;
use rand::Rng;

use crate::edit::{apply_edits, Edit, TokenView, AT, DOT, OPEN_PAREN};

pub(crate) fn apply(source: &str, rng: &mut StdRng) -> String {
    let view = TokenView::new(source);
    let n = view.tokens.len();
    let mut edits = Vec::new();
    let mut i = 0usize;
    while i + 3 < n {
        let matched = (|| {
            let base = view.ident(i)?;
            if view.follows_dot(i)
                || view.in_import[i]
                || pysrc::is_keyword(base)
                || (i > 0 && view.is(i - 1, AT))
            {
                return None;
            }
            if !view.is(i + 1, DOT) {
                return None;
            }
            let attr = view.ident(i + 2)?;
            if pysrc::is_keyword(attr) || !view.is(i + 3, OPEN_PAREN) {
                return None;
            }
            Some((base, attr))
        })();
        if let Some((base, attr)) = matched {
            if rng.gen_bool(0.7) {
                let start = view.tokens[i].start as usize;
                let end = view.tokens[i + 2].end as usize;
                edits.push(Edit::replace(
                    start,
                    end,
                    format!("getattr({base}, '{attr}')"),
                ));
            }
            i += 3;
        } else {
            i += 1;
        }
    }
    apply_edits(source, edits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn run(src: &str, seed: u64) -> String {
        apply(src, &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn rewrites_dotted_calls() {
        let src = "import os\nos.system('id')\n";
        let out = run(src, 1);
        assert!(out.contains("getattr(os, 'system')('id')"), "{out}");
        assert!(!out.contains("os.system"), "{out}");
    }

    #[test]
    fn chained_attributes_left_alone() {
        // Only `a.b(` is rewritten; `a.b.c(` needs the full chain intact.
        let src = "os.path.join(a, b)\n";
        let out = run(src, 1);
        assert_eq!(out, src);
    }

    #[test]
    fn non_call_attributes_left_alone() {
        let src = "x = sys.argv\n";
        assert_eq!(run(src, 1), src);
    }

    #[test]
    fn mutant_parses_and_keeps_call_structure() {
        let src = "import subprocess\nsubprocess.Popen(cmd, shell=True)\n";
        let out = run(src, 3);
        let m = pysrc::parse_module(&out);
        let calls = pysrc::collect_calls(&m);
        assert!(calls.iter().any(|c| {
            let path = c.func_path(&m);
            path.starts_with("getattr") || path.contains("Popen")
        }));
    }
}
