//! Interned string-literal tables.
//!
//! The per-file analysis artifact (see the `scanhub` crate) carries every
//! string literal of a source file exactly once: registry malware hides
//! its payloads in literals (base64 blobs, hex-encoded commands, split
//! C2 hostnames), and downstream consumers — decoded-layer extraction,
//! reporting, heuristics — all want the same deduplicated view. Interning
//! from the **token stream** rather than the AST means literals survive
//! even inside statements the tolerant parser degraded to `Stmt::Other`.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use crate::edit::Edit;
use crate::token::{Kind, Lexeme};

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

    /// The table of `tokens`, lexed from `source`.
    ///
    /// f-strings are skipped: their lexed value still contains `{...}`
    /// interpolation holes, so the text is not a runtime string value.
    /// Raw and bytes literals are kept — encoded payloads ship in both.
    pub fn of(source: &str, tokens: &[Lexeme]) -> StringTable {
        let mut interner = Interner::default();
        interner.push_tokens(source, tokens);
        interner.table
    }

    /// The table of a file that differs from this table's file by the
    /// `edit`, whose new `window` is lexed from `source`: the table
    /// [`StringTable::of`] builds from the edited file's whole stream.
    ///
    /// The window's edges begin lines at a token-stream cut point (see
    /// [`crate::CutPoint`]) or end the file: nothing before column zero of
    /// such a line belongs to a later token, so `refs`' monotone lines
    /// split exactly where the token stream does, and re-interning donor
    /// occurrences before the window, the window's literals, then donor
    /// occurrences after it meets every literal in token order. `None`
    /// when a moved line does not fit ([`crate::Edit::moved_line`]).
    pub fn spliced(&self, source: &str, window: &[Lexeme], edit: &Edit) -> Option<StringTable> {
        let first_at = |line: usize| self.refs.partition_point(|r| (r.line as usize) < line);
        let kept = first_at(edit.first_line);
        let resumed = if edit.to_end {
            self.refs.len()
        } else {
            first_at(edit.old_end_line)
        };
        let mut interner = Interner::default();
        interner.table.refs.reserve(self.refs.len());
        for r in &self.refs[..kept] {
            interner.push(&self.literals[r.literal as usize], r.line);
        }
        interner.push_tokens(source, window);
        for r in &self.refs[resumed..] {
            interner.push(&self.literals[r.literal as usize], edit.moved_line(r.line)?);
        }
        Some(interner.table)
    }
}

/// A [`StringTable`] under construction. Its index holds literal ids by
/// the hash of their value, so a value is looked up before it is copied
/// into the table, and a decoded one is decoded into a buffer the
/// interner reuses.
#[derive(Default)]
pub(crate) struct Interner {
    pub(crate) table: StringTable,
    /// Hashes literal values, with keys drawn per interner.
    hasher: RandomState,
    /// Each literal's id at the hash of its value, or, when another
    /// value took that slot, at the first free successor of the hash.
    ids: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    decoded: String,
}

/// The hasher of a map whose `u64` keys are hashes already: a key is its
/// own hash, so a lookup hashes nothing. Keys must come from a keyed hash
/// (such as a [`std::collections::hash_map::RandomState`]'s) for the map
/// to resist chosen collisions.
#[derive(Debug, Default)]
pub struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

impl Interner {
    pub(crate) fn push(&mut self, value: &str, line: u32) {
        let literals = &mut self.table.literals;
        let mut slot = self.hasher.hash_one(value);
        let literal = loop {
            match self.ids.entry(slot) {
                Entry::Occupied(id) if literals[*id.get() as usize] == value => break *id.get(),
                Entry::Occupied(_) => slot = slot.wrapping_add(1),
                Entry::Vacant(free) => {
                    literals.push(value.to_owned());
                    break *free.insert((literals.len() - 1) as u32);
                }
            }
        };
        self.table.refs.push(StringRef { literal, line });
    }

    fn push_tokens(&mut self, source: &str, tokens: &[Lexeme]) {
        for &t in tokens {
            if t.kind != Kind::STR || t.prefix().contains('f') {
                continue;
            }
            if t.is_decoded() {
                let mut value = std::mem::take(&mut self.decoded);
                value.clear();
                t.push_value(source, &mut value);
                self.push(&value, t.line);
                self.decoded = value;
            } else {
                self.push(&t.value(source), t.line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compat::{intern_strings, lex_spanned};

    /// The table of `src`, which is also the table of its rendered
    /// tokens and what splicing its whole stream into an empty table
    /// gives — how a full artifact build interns.
    fn table(src: &str) -> StringTable {
        let tokens = crate::lex(src);
        let table = StringTable::of(src, &tokens);
        assert_eq!(intern_strings(&lex_spanned(src)), table, "{src:?}");
        let spliced = StringTable::default().spliced(src, &tokens, &Edit::whole(src));
        assert_eq!(spliced.as_ref(), Some(&table), "{src:?}");
        table
    }

    /// Replaces lines `range` of `old` with `with` and checks the
    /// spliced table against the edited source's own.
    fn splice(old: &str, range: std::ops::Range<usize>, with: &str) -> StringTable {
        let line_start = |line: usize| {
            old.split_inclusive('\n')
                .take(line - 1)
                .map(str::len)
                .sum::<usize>()
        };
        let (w, e_old) = (line_start(range.start), line_start(range.end));
        let new = format!("{}{with}{}", &old[..w], &old[e_old..]);
        let edit = Edit::new(&crate::parse_module(old), &new, w, e_old).expect("edit");
        let window = crate::lex_window(&new, w, edit.new_end, edit.first_line).tokens;
        let spliced = table(old).spliced(&new, &window, &edit).expect("lines fit");
        assert_eq!(spliced, table(&new), "{new:?}");
        spliced
    }

    #[test]
    fn spliced_table_equals_the_edited_files_own() {
        let old = "a = 'x'\nb = 'only-here'\nc = 'late'\nd = 'x'\ne = 'late'\n";
        // A literal that occurred only inside the old window disappears,
        // and one first seen in the suffix keeps its first-seen index.
        let t = splice(old, 2..3, "b = 'new'\nb2 = 'late'\n");
        assert_eq!(t.literals, ["x", "new", "late"]);
        // The window relexes to nothing: 'late' moves up to index 1.
        let t = splice(old, 2..3, "");
        assert_eq!(t.literals, ["x", "late"]);
        assert_eq!(t.refs.last().map(|r| r.line), Some(4));
        // No prefix, and no suffix.
        assert_eq!(splice(old, 1..2, "z = 'late'\n").literals[0], "late");
        assert_eq!(splice(old, 4..6, "f = f'{a}'\n").literals.len(), 3);
    }

    /// Escaped and non-ASCII literals are decoded once each into the
    /// interner's buffer and copied into the table only when new.
    #[test]
    fn decoded_literals_intern_by_value() {
        let src = "a = 'x\\ny'\nb = 'x\\ny'\nc = r'x\\ny'\nd = '\u{e9}'\ne = 'plain'\n";
        let t = table(src);
        assert_eq!(t.literals, ["x\ny", "x\\ny", "\u{c3}\u{a9}", "plain"]);
        let ids: Vec<u32> = t.refs.iter().map(|r| r.literal).collect();
        assert_eq!(ids, [0, 0, 1, 2, 3]);
    }

    /// A value whose hash slot another value took interns at the next
    /// free slot, and is found there again.
    #[test]
    fn values_that_share_a_slot_intern_apart() {
        let mut interner = Interner::default();
        interner.push("p", 1);
        let q = interner.hasher.hash_one("q");
        interner.ids.insert(q, 0);
        for (value, line) in [("q", 2), ("q", 3), ("p", 4)] {
            interner.push(value, line);
        }
        assert_eq!(interner.table.literals, ["p", "q"]);
        let ids: Vec<u32> = interner.table.refs.iter().map(|r| r.literal).collect();
        assert_eq!(ids, [0, 1, 1, 0]);
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
