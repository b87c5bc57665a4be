//! Span-edit machinery shared by every transform.
//!
//! Transforms never regenerate source wholesale: they lex the file with
//! [`pysrc::lex_spanned`], decide on a set of byte-range replacements,
//! and splice them back in. Everything a transform did not explicitly
//! touch — indentation, spacing, escapes — survives byte-for-byte, which
//! is what keeps the mutations semantics-preserving.

use std::collections::HashSet;

use pysrc::{SpannedToken, TokenKind};
use rand::rngs::StdRng;
use rand::Rng;

/// One pending byte-range replacement.
#[derive(Debug, Clone)]
pub(crate) struct Edit {
    /// First byte replaced.
    pub start: usize,
    /// One past the last byte replaced.
    pub end: usize,
    /// Replacement text.
    pub text: String,
}

impl Edit {
    /// Replacement of `[start, end)` with `text`.
    pub fn replace(start: usize, end: usize, text: impl Into<String>) -> Self {
        Edit {
            start,
            end,
            text: text.into(),
        }
    }

    /// Pure insertion at `at`.
    pub fn insert(at: usize, text: impl Into<String>) -> Self {
        Edit::replace(at, at, text)
    }
}

/// Applies non-overlapping edits to `source`; on overlap the earlier
/// (lower-start) edit wins and the later one is dropped.
pub(crate) fn apply_edits(source: &str, mut edits: Vec<Edit>) -> String {
    edits.sort_by_key(|e| (e.start, e.end));
    let mut out = String::with_capacity(source.len() + edits.len() * 8);
    let mut pos = 0usize;
    for e in edits {
        if e.start < pos || e.end > source.len() || !source.is_char_boundary(e.start) {
            continue;
        }
        out.push_str(&source[pos..e.start]);
        out.push_str(&e.text);
        pos = e.end;
    }
    out.push_str(&source[pos..]);
    out
}

/// A lexed file plus the per-token context every transform needs.
pub(crate) struct TokenView {
    /// The spanned token stream.
    pub tokens: Vec<SpannedToken>,
    /// Per token: does it sit inside an `import ...` / `from ... import`
    /// logical line? (Those lines are rewritten only by the dedicated
    /// aliasing transform.)
    pub in_import: Vec<bool>,
}

impl TokenView {
    /// Lexes `source` and computes token contexts.
    pub fn new(source: &str) -> Self {
        let tokens = pysrc::lex_spanned(source);
        let mut in_import = vec![false; tokens.len()];
        let mut line_start = true;
        let mut marking = false;
        for (i, t) in tokens.iter().enumerate() {
            match t.kind() {
                TokenKind::Newline => {
                    marking = false;
                    line_start = true;
                }
                TokenKind::Indent | TokenKind::Dedent | TokenKind::Comment(_) => {}
                TokenKind::Ident(w) if line_start && (w == "import" || w == "from") => {
                    marking = true;
                    in_import[i] = true;
                    line_start = false;
                }
                _ => {
                    in_import[i] = marking;
                    line_start = false;
                }
            }
        }
        TokenView { tokens, in_import }
    }

    /// The identifier text of token `i`, if it is an identifier.
    pub fn ident(&self, i: usize) -> Option<&str> {
        match self.tokens[i].kind() {
            TokenKind::Ident(w) => Some(w),
            _ => None,
        }
    }

    /// True when token `i` is the given operator glyph.
    pub fn is_op(&self, i: usize, op: &str) -> bool {
        matches!(self.tokens[i].kind(), TokenKind::Op(o) if *o == op)
    }

    /// True when the token *before* `i` is the attribute dot (so `i` is
    /// an attribute name, never a bare binding).
    pub fn follows_dot(&self, i: usize) -> bool {
        i > 0 && self.is_op(i - 1, ".")
    }

    /// True when token `i` starts a logical line (preceded by nothing or
    /// by NEWLINE/INDENT/DEDENT/comment tokens only).
    pub fn at_line_start(&self, i: usize) -> bool {
        for j in (0..i).rev() {
            match self.tokens[j].kind() {
                TokenKind::Indent | TokenKind::Dedent | TokenKind::Comment(_) => continue,
                TokenKind::Newline => return true,
                _ => return false,
            }
        }
        true
    }

    /// Names that appear anywhere in keyword-argument position
    /// (`f(name=...)`) or as a defaulted parameter (`def f(name=...)`).
    /// Renaming such a name is entangled with a calling convention the
    /// rewriter cannot see whole, so transforms exclude them outright.
    pub fn kwarg_like_names(&self) -> HashSet<String> {
        let mut out = HashSet::new();
        for i in 1..self.tokens.len() {
            if let Some(w) = self.ident(i) {
                if (self.is_op(i - 1, "(") || self.is_op(i - 1, ","))
                    && i + 1 < self.tokens.len()
                    && self.is_op(i + 1, "=")
                {
                    out.insert(w.to_owned());
                }
            }
        }
        out
    }

    /// Every distinct identifier in the file (collision avoidance when
    /// minting fresh names).
    pub fn all_idents(&self) -> HashSet<String> {
        self.tokens
            .iter()
            .filter_map(|t| match t.kind() {
                TokenKind::Ident(w) => Some(w.clone()),
                _ => None,
            })
            .collect()
    }
}

/// Innocuous-looking name stems for minted identifiers and decoys.
pub(crate) const NAME_STEMS: &[&str] = &[
    "cfg", "ctx", "util", "aux", "impl", "core", "meta", "spec", "node", "item", "pool", "task",
    "unit", "slot", "page",
];

/// Mints an identifier not present in `taken`, deterministic in `rng`.
pub(crate) fn fresh_ident(rng: &mut StdRng, taken: &mut HashSet<String>) -> String {
    loop {
        let stem = NAME_STEMS[rng.gen_range(0..NAME_STEMS.len())];
        let name = format!("{stem}_{:x}", rng.gen_range(0x100u32..0xfffff));
        if !pysrc::is_keyword(&name) && taken.insert(name.clone()) {
            return name;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn edits_splice_in_order() {
        let out = apply_edits(
            "abcdef",
            vec![Edit::replace(1, 2, "XX"), Edit::insert(4, "-")],
        );
        assert_eq!(out, "aXXcd-ef");
    }

    #[test]
    fn overlapping_edit_dropped() {
        let out = apply_edits(
            "abcdef",
            vec![Edit::replace(0, 3, "Z"), Edit::replace(2, 4, "Y")],
        );
        assert_eq!(out, "Zdef");
    }

    #[test]
    fn import_lines_marked() {
        let v = TokenView::new("import os\nx = os.path\nfrom sys import argv\n");
        let marked: Vec<&str> = v
            .tokens
            .iter()
            .enumerate()
            .filter(|(i, _)| v.in_import[*i])
            .filter_map(|(_, t)| t.token.as_ident())
            .collect();
        assert!(marked.contains(&"os"));
        assert!(marked.contains(&"argv"));
        // The `os` of `os.path` is not inside an import line.
        assert_eq!(marked.iter().filter(|w| **w == "os").count(), 1);
    }

    #[test]
    fn fresh_ident_avoids_collisions() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut taken: HashSet<String> = HashSet::new();
        let a = fresh_ident(&mut rng, &mut taken);
        let b = fresh_ident(&mut rng, &mut taken);
        assert_ne!(a, b);
        assert!(taken.contains(&a) && taken.contains(&b));
    }
}
