//! Interned string-literal tables.
//!
//! The per-file analysis artifact (see the `scanhub` crate) carries every
//! string literal of a source file exactly once: registry malware hides
//! its payloads in literals (base64 blobs, hex-encoded commands, split
//! C2 hostnames), and downstream consumers — decoded-layer extraction,
//! reporting, heuristics — all want the same deduplicated view. Interning
//! from the **token stream** rather than the AST means literals survive
//! even inside statements the tolerant parser degraded to `Stmt::Other`.

use std::collections::HashMap;

use crate::token::{SpannedToken, TokenKind};

/// One occurrence of a string literal in a source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StringRef {
    /// Index into [`StringTable::literals`].
    pub literal: u32,
    /// 1-based source line of this occurrence.
    pub line: u32,
}

/// A deduplicated table of a file's string literals.
///
/// `literals` holds each distinct literal value once, in first-seen
/// order; `refs` records every occurrence as `(literal index, line)`.
/// A literal repeated a thousand times (a classic chunked-payload trick)
/// costs one table entry plus a thousand 8-byte refs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StringTable {
    /// Distinct literal values, first-seen order.
    pub literals: Vec<String>,
    /// Every occurrence, in token order.
    pub refs: Vec<StringRef>,
}

impl StringTable {
    /// Number of distinct literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// True when the file contains no string literals.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }
}

/// Builds an interned [`StringTable`] from a spanned token stream.
///
/// f-strings are skipped: their lexed value still contains `{...}`
/// interpolation holes, so the text is not a runtime string value.
/// Raw and bytes literals are kept — encoded payloads ship in both.
pub fn intern_strings(tokens: &[SpannedToken<'_>]) -> StringTable {
    let mut interner = Interner::default();
    interner.push_tokens(tokens);
    interner.table
}

impl StringTable {
    /// The table of a file that differs from this table's file by one
    /// edit whose relexed `window` replaces the donor's lines
    /// `before_line..suffix_from_line` (to the end of the file when
    /// `None`), moving what follows by `line_delta` lines: the table
    /// [`intern_strings`] builds from the edited file's whole stream.
    ///
    /// Both bounds must be lines that begin at a token-stream cut point
    /// (see [`crate::CutPoint`]): nothing before column zero of such a
    /// line belongs to a later token, so `refs`' monotone lines split
    /// exactly where the token stream does, and re-interning donor
    /// occurrences before the window, the window's literals, then donor
    /// occurrences after it meets every literal in token order.
    ///
    /// `None` when a shifted line does not fit a [`StringRef`].
    pub fn spliced(
        &self,
        before_line: usize,
        window: &[SpannedToken<'_>],
        suffix_from_line: Option<usize>,
        line_delta: isize,
    ) -> Option<StringTable> {
        let line_delta = i32::try_from(line_delta).ok()?;
        let first_at = |line: usize| self.refs.partition_point(|r| (r.line as usize) < line);
        let kept = first_at(before_line);
        let resumed = suffix_from_line.map_or(self.refs.len(), first_at);
        let mut interner = Interner::default();
        interner.table.refs.reserve(self.refs.len());
        for r in &self.refs[..kept] {
            interner.push(&self.literals[r.literal as usize], r.line);
        }
        interner.push_tokens(window);
        for r in &self.refs[resumed..] {
            let line = r.line.checked_add_signed(line_delta)?;
            interner.push(&self.literals[r.literal as usize], line);
        }
        Some(interner.table)
    }
}

/// A [`StringTable`] under construction. The map borrows literal text
/// from its sources while the table accumulates owned copies.
#[derive(Default)]
struct Interner<'a> {
    table: StringTable,
    ids: HashMap<&'a str, u32>,
}

impl<'a> Interner<'a> {
    fn push(&mut self, value: &'a str, line: u32) {
        let literals = &mut self.table.literals;
        let literal = *self.ids.entry(value).or_insert_with(|| {
            literals.push(value.to_owned());
            (literals.len() - 1) as u32
        });
        self.table.refs.push(StringRef { literal, line });
    }

    fn push_tokens(&mut self, tokens: &'a [SpannedToken<'_>]) {
        for t in tokens {
            if let TokenKind::Str { value, prefix } = t.kind() {
                if !prefix.contains('f') {
                    self.push(value, t.token.line as u32);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex_spanned;

    /// The table of `src`, which is also what splicing its whole stream
    /// into an empty table gives — how a full artifact build interns.
    fn table(src: &str) -> StringTable {
        let tokens = lex_spanned(src);
        let table = intern_strings(&tokens);
        let spliced = StringTable::default().spliced(1, &tokens, None, 0);
        assert_eq!(spliced.as_ref(), Some(&table), "{src:?}");
        table
    }

    /// Replaces lines `range` of `old` with `with` and checks the
    /// spliced table against the edited source's own.
    fn splice(old: &str, range: std::ops::Range<usize>, to_eof: bool, with: &str) -> StringTable {
        let line_start = |line: usize| {
            old.split_inclusive('\n')
                .take(line - 1)
                .map(str::len)
                .sum::<usize>()
        };
        let (w, e_old) = (line_start(range.start), line_start(range.end));
        let new = format!("{}{with}{}", &old[..w], &old[e_old..]);
        let window = crate::lex_window(&new, w, w + with.len()).tokens;
        let delta = with.matches('\n').count() as isize - range.len() as isize;
        let spliced = table(old)
            .spliced(range.start, &window, (!to_eof).then_some(range.end), delta)
            .expect("lines fit");
        assert_eq!(spliced, table(&new), "{new:?}");
        spliced
    }

    #[test]
    fn spliced_table_equals_the_edited_files_own() {
        let old = "a = 'x'\nb = 'only-here'\nc = 'late'\nd = 'x'\ne = 'late'\n";
        // A literal that occurred only inside the old window disappears,
        // and one first seen in the suffix keeps its first-seen index.
        let t = splice(old, 2..3, false, "b = 'new'\nb2 = 'late'\n");
        assert_eq!(t.literals, ["x", "new", "late"]);
        // The window relexes to nothing: 'late' moves up to index 1.
        let t = splice(old, 2..3, false, "");
        assert_eq!(t.literals, ["x", "late"]);
        assert_eq!(t.refs.last().map(|r| r.line), Some(4));
        // No prefix, and no suffix.
        assert_eq!(splice(old, 1..2, false, "z = 'late'\n").literals[0], "late");
        assert_eq!(splice(old, 4..6, true, "f = f'{a}'\n").literals.len(), 3);
    }

    #[test]
    fn spliced_table_refuses_a_line_that_does_not_fit() {
        let t = table("a = 'x'\nb = 'y'\n");
        assert!(t.spliced(1, &[], Some(2), i32::MAX as isize).is_some());
        assert!(t.spliced(1, &[], Some(2), i32::MAX as isize + 1).is_none());
        let far = StringTable {
            refs: vec![StringRef {
                literal: 0,
                line: u32::MAX,
            }],
            ..t.clone()
        };
        assert!(far.spliced(1, &[], Some(2), 1).is_none());
        assert!(t.spliced(1, &[], Some(2), -3).is_none());
    }

    #[test]
    fn interns_distinct_literals_once() {
        let t = table("a = 'x'\nb = 'y'\nc = 'x'\n");
        assert_eq!(t.literals, vec!["x".to_owned(), "y".to_owned()]);
        assert_eq!(t.refs.len(), 3);
        assert_eq!(t.refs[2].literal, 0, "repeat points at the first entry");
        assert_eq!(t.refs[2].line, 3);
    }

    #[test]
    fn records_lines_per_occurrence() {
        let t = table("p = 'payload'\n\n\nq = 'payload'\n");
        assert_eq!(t.len(), 1);
        assert_eq!(t.refs[0].line, 1);
        assert_eq!(t.refs[1].line, 4);
    }

    #[test]
    fn skips_fstrings_keeps_raw_and_bytes() {
        let t = table("a = f'{x}!'\nb = r'\\d+'\nc = b'blob'\n");
        assert_eq!(t.literals, vec!["\\d+".to_owned(), "blob".to_owned()]);
    }

    #[test]
    fn survives_unparsable_statements() {
        // The parser degrades this line to Stmt::Other, but the token
        // stream still carries the literal.
        let t = table("try ::= 'aGlkZGVu' @@\n");
        assert!(t.literals.contains(&"aGlkZGVu".to_owned()));
    }

    #[test]
    fn empty_source_yields_empty_table() {
        let t = table("x = 1\n");
        assert!(t.is_empty());
        assert!(t.refs.is_empty());
    }
}
