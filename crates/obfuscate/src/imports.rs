//! Import aliasing: `import os` becomes `import os as cfg_1a2b`, and
//! every bare use of `os` follows the alias.
//!
//! The module keeps loading and every call still resolves — but the
//! tell-tale `os.system` / `subprocess.Popen` spellings YARA atoms key
//! on no longer exist as contiguous text.

use std::collections::{HashMap, HashSet};

use pysrc::Kind;
use rand::rngs::StdRng;
use rand::Rng;

use crate::edit::{apply_edits, fresh_ident, Edit, TokenView};

pub(crate) fn apply(source: &str, rng: &mut StdRng) -> String {
    let view = TokenView::new(source);
    let n = view.tokens.len();

    // Aliasable sites: a logical line that is exactly `import X` for a
    // single dot-free module. Anything fancier (dotted paths, commas,
    // existing aliases, `from` forms) is left alone.
    let mut aliasable: Vec<(usize, &str)> = Vec::new(); // (ident index, module)
    let mut blocked: HashSet<&str> = HashSet::new();
    for i in 0..n {
        if view.ident(i) != Some("import") || !view.in_import[i] || !view.at_line_start(i) {
            continue;
        }
        let Some(module) = view.ident(i + 1) else {
            continue;
        };
        let simple = matches!(
            view.tokens.get(i + 2).map(|t| t.kind),
            Some(Kind::NEWLINE | Kind::COMMENT | Kind::EOF) | None
        );
        if simple {
            aliasable.push((i + 1, module));
        } else {
            blocked.insert(module);
        }
    }
    // A module imported twice, also named in a `from X import` /
    // `import X.sub` line, or reused as a keyword-argument/parameter
    // name anywhere, keeps its spelling everywhere.
    for i in 0..n {
        if view.ident(i) == Some("from") && view.in_import[i] {
            if let Some(m) = view.ident(i + 1) {
                blocked.insert(m);
            }
        }
    }
    blocked.extend(view.kwarg_like_names());
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for &(_, m) in &aliasable {
        *counts.entry(m).or_default() += 1;
    }

    let mut taken = view.all_idents();
    let mut alias_of: HashMap<&str, String> = HashMap::new();
    let mut edits = Vec::new();
    for &(idx, module) in &aliasable {
        if blocked.contains(module)
            || counts[module] > 1
            || alias_of.contains_key(module)
            || !rng.gen_bool(0.85)
        {
            continue;
        }
        let alias = fresh_ident(rng, &mut taken);
        edits.push(Edit::token(
            view.tokens[idx],
            format!("{module} as {alias}"),
        ));
        alias_of.insert(module, alias);
    }
    if alias_of.is_empty() {
        return source.to_owned();
    }

    for i in 0..n {
        let Some(w) = view.ident(i) else { continue };
        let Some(alias) = alias_of.get(w) else {
            continue;
        };
        // Attribute and import-line occurrences keep their spelling;
        // kwarg-position occurrences cannot exist for aliased modules
        // (kwarg-entangled names are blocked above).
        if view.in_import[i] || view.follows_dot(i) {
            continue;
        }
        edits.push(Edit::token(view.tokens[i], alias.clone()));
    }
    apply_edits(source, edits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn aliases_import_and_uses() {
        let src = "import os\nimport sys\nos.system(sys.argv[1])\n";
        let out = apply(src, &mut StdRng::seed_from_u64(1));
        assert!(!out.contains("os.system"), "{out}");
        let m = pysrc::parse_module(&out);
        // Still two imports; the aliased call resolves through the alias.
        let imports = pysrc::collect_imports(&m);
        assert!(imports.contains(&"os".to_owned()));
        assert!(imports.contains(&"sys".to_owned()));
    }

    #[test]
    fn dotted_and_from_imports_untouched() {
        let src = "import os.path\nfrom os import environ\nos.path.join(environ)\n";
        let out = apply(src, &mut StdRng::seed_from_u64(1));
        assert_eq!(out, src);
    }

    #[test]
    fn multi_import_lines_untouched() {
        let src = "import os, sys\nos.system('x')\n";
        let out = apply(src, &mut StdRng::seed_from_u64(1));
        assert_eq!(out, src);
    }

    #[test]
    fn deterministic() {
        let src = "import base64\nbase64.b64decode(x)\n";
        let a = apply(src, &mut StdRng::seed_from_u64(6));
        assert_eq!(a, apply(src, &mut StdRng::seed_from_u64(6)));
    }
}
