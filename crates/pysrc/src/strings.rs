//! Interned string-literal tables.
//!
//! The per-file analysis artifact (see the `scanhub` crate) carries every
//! string literal of a source file exactly once: registry malware hides
//! its payloads in literals (base64 blobs, hex-encoded commands, split
//! C2 hostnames), and downstream consumers — decoded-layer extraction,
//! reporting, heuristics — all want the same deduplicated view. Interning
//! from the **token stream** rather than the AST means literals survive
//! even inside statements the tolerant parser degraded to `Stmt::Other`.

use std::cell::Cell;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

use crate::ast::offset;
use crate::edit::Edit;
use crate::parser::MAX_KEPT_SCRATCH;
use crate::token::{Kind, Lexeme};

/// One occurrence of a string literal in a source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StringRef {
    /// The literal's index in its table ([`StringTable::literal`]).
    pub literal: u32,
    /// 1-based source line of this occurrence.
    pub line: u32,
}

/// A deduplicated table of a file's string literals.
///
/// The distinct values are held once each, in first-seen order, back to
/// back in one buffer that a list of end offsets cuts; the refs record
/// every occurrence as `(literal index, line)`. A literal repeated a
/// thousand times (a classic chunked-payload trick) costs one value plus
/// a thousand 8-byte refs, and a table of any size is three buffers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StringTable {
    /// Every distinct value, first-seen order, back to back.
    text: String,
    /// Where each value ends in `text`.
    ends: Vec<u32>,
    /// Every occurrence, in token order.
    refs: Vec<StringRef>,
}

/// The value `id` of the values `ends` cuts `text` into. A table past
/// 4 GiB of distinct values reads the values it cannot address as empty.
fn value<'t>(text: &'t str, ends: &[u32], id: usize) -> &'t str {
    let start = id.checked_sub(1).map_or(0, |p| ends[p] as usize);
    text.get(start..ends[id] as usize).unwrap_or_default()
}

impl StringTable {
    /// Number of distinct literals.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the file contains no string literals.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The value of distinct literal `id` (`id < len()`).
    pub fn literal(&self, id: usize) -> &str {
        value(&self.text, &self.ends, id)
    }

    /// The distinct values, in first-seen order.
    pub fn literals(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        (0..self.len()).map(|id| self.literal(id))
    }

    /// Every occurrence, in token order.
    pub fn refs(&self) -> &[StringRef] {
        &self.refs
    }

    /// The heap the table holds: its three buffers, each at its capacity.
    pub fn heap_bytes(&self) -> usize {
        self.text.capacity()
            + self.ends.capacity() * std::mem::size_of::<u32>()
            + self.refs.capacity() * std::mem::size_of::<StringRef>()
    }

    /// The table of `tokens`, lexed from `source`.
    ///
    /// f-strings are skipped: their lexed value still contains `{...}`
    /// interpolation holes, so the text is not a runtime string value.
    /// Raw and bytes literals are kept — encoded payloads ship in both.
    pub fn of(source: &str, tokens: &[Lexeme]) -> StringTable {
        Interner::build(|interner| interner.push_tokens(Base::EMPTY, source, tokens))
    }

    /// The table of a file that differs from this table's file by the
    /// `edit`, whose new `window` is lexed from `source`: the table
    /// [`StringTable::of`] builds from the edited file's whole stream.
    ///
    /// The window's edges begin lines at a token-stream cut point (see
    /// [`crate::CutPoint`]) or end the file: nothing before column zero of
    /// such a line belongs to a later token, so the refs' monotone lines
    /// split exactly where the token stream does. The refs in front of the
    /// window carry over unchanged, and since ids are handed out in
    /// first-seen order they name exactly this table's first *k* values,
    /// which carry over as one slice. Only the window's values are hashed
    /// (with those of the first *k* that share a length with one); a ref
    /// behind the window keeps an id below *k*, and any other id's value
    /// is carried over once, under the id its first occurrence gets now.
    /// `None` when a moved line does not fit ([`crate::Edit::moved_line`]).
    pub fn spliced(&self, source: &str, window: &[Lexeme], edit: &Edit) -> Option<StringTable> {
        let first_at = |line: usize| self.refs.partition_point(|r| (r.line as usize) < line);
        let kept = first_at(edit.first_line);
        let resumed = if edit.to_end {
            self.refs.len()
        } else {
            first_at(edit.old_end_line)
        };
        let front = &self.refs[..kept];
        let k = front.iter().map(|r| r.literal + 1).max().unwrap_or(0) as usize;
        let base = Base {
            text: &self.text[..k.checked_sub(1).map_or(0, |id| self.ends[id] as usize)],
            ends: &self.ends[..k],
        };
        let mut s = Interner::take();
        s.push_tokens(base, source, window);
        s.remap.clear();
        s.remap.resize(self.len() - k, u32::MAX);
        let mut moved = || {
            for r in &self.refs[resumed..] {
                let line = edit.moved_line(r.line)?;
                let literal = match (r.literal as usize).checked_sub(k) {
                    None => r.literal,
                    Some(at) if s.remap[at] != u32::MAX => s.remap[at],
                    Some(at) => {
                        let id = s.carry(base, self.literal(r.literal as usize));
                        s.remap[at] = id;
                        id
                    }
                };
                s.refs.push(StringRef { literal, line });
            }
            Some(())
        };
        let table = moved().map(|()| s.copy_out(base, front));
        s.give_back();
        table
    }
}

/// The values a table starts from, with the ids below their count: none
/// for a whole stream, a donor's first *k* for a splice.
#[derive(Clone, Copy)]
struct Base<'a> {
    text: &'a str,
    ends: &'a [u32],
}

impl Base<'_> {
    const EMPTY: Base<'static> = Base {
        text: "",
        ends: &[],
    };

    fn value(&self, id: usize) -> &str {
        value(self.text, self.ends, id)
    }
}

thread_local! {
    /// This thread's interner, between tables: its buffers grown to the
    /// largest table it has built, so that a table allocates only its own
    /// three buffers.
    static SCRATCH: Cell<Interner> = Cell::default();
}

/// A [`StringTable`] under construction, kept per thread and copied out
/// at its final length. Its index holds literal ids by the hash of their
/// value: a value is decoded straight onto the end of the values behind
/// the base, looked up, and taken back off when it was seen before.
#[derive(Default)]
pub(crate) struct Interner {
    /// Hashes literal values, with keys drawn per thread.
    hasher: RandomState,
    /// Each literal's id at the hash of its value, or, when another
    /// value took that slot, at the first free successor of the hash.
    ids: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    /// The values the table adds to its base's, back to back.
    text: String,
    /// Where each of them ends in `text`.
    ends: Vec<u32>,
    /// Every occurrence interned so far (behind a splice's front).
    refs: Vec<StringRef>,
    /// The lengths, modulo 256, of the values interned so far: the base
    /// values of those lengths are in the index, the others need not be.
    lengths: [u64; 4],
    /// Per donor id from the base's count on: the id its value carries
    /// over under, or `u32::MAX` before its first occurrence behind the
    /// window.
    remap: Vec<u32>,
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

/// `len`'s bit in [`Interner::lengths`].
fn length_bit(len: usize) -> (usize, u64) {
    ((len >> 6) & 3, 1 << (len & 63))
}

impl Interner {
    /// This thread's interner, empty.
    fn take() -> Interner {
        let mut s = SCRATCH.take();
        s.ids.clear();
        s.text.clear();
        s.ends.clear();
        s.refs.clear();
        s.lengths = [0; 4];
        s
    }

    /// Hands the interner back to its thread, unless one hostile file
    /// grew it past the parser's limit on kept scratch.
    fn give_back(self) {
        let bytes = self.ids.capacity() * 16
            + self.text.capacity()
            + (self.ends.capacity() + self.remap.capacity()) * 4
            + self.refs.capacity() * std::mem::size_of::<StringRef>();
        if bytes <= MAX_KEPT_SCRATCH {
            let _ = SCRATCH.try_with(|kept| kept.set(self));
        }
    }

    /// The table `fill` interns over no base.
    pub(crate) fn build(fill: impl FnOnce(&mut Interner)) -> StringTable {
        let mut s = Interner::take();
        fill(&mut s);
        let table = s.copy_out(Base::EMPTY, &[]);
        s.give_back();
        table
    }

    /// The finished table: `base`, then the values added to it, with the
    /// refs `front` and then those interned.
    fn copy_out(&self, base: Base<'_>, front: &[StringRef]) -> StringTable {
        let mut text = String::with_capacity(base.text.len() + self.text.len());
        text.push_str(base.text);
        text.push_str(&self.text);
        let mut ends = Vec::with_capacity(base.ends.len() + self.ends.len());
        ends.extend_from_slice(base.ends);
        let skip = offset(base.text.len());
        ends.extend(self.ends.iter().map(|&end| end.saturating_add(skip)));
        let mut refs = Vec::with_capacity(front.len() + self.refs.len());
        refs.extend_from_slice(front);
        refs.extend_from_slice(&self.refs);
        StringTable { text, ends, refs }
    }

    /// Interns one occurrence of `value` on `line`, over no base.
    pub(crate) fn push(&mut self, value: &str, line: u32) {
        let at = self.text.len();
        self.text.push_str(value);
        let literal = self.intern_tail(Base::EMPTY, at);
        self.refs.push(StringRef { literal, line });
    }

    /// Interns the values of `tokens`, lexed from `source`, over `base`.
    /// A value of a length not seen before first enters the base values
    /// of that length into the index: one of them may equal it.
    fn push_tokens(&mut self, base: Base<'_>, source: &str, tokens: &[Lexeme]) {
        for t in strings(tokens) {
            let at = self.text.len();
            t.push_value(source, &mut self.text);
            let (word, bit) = length_bit(self.text.len() - at);
            if self.lengths[word] & bit == 0 {
                self.lengths[word] |= bit;
                for id in 0..base.ends.len() {
                    let value = base.value(id);
                    if length_bit(value.len()) == (word, bit) {
                        let mut slot = self.hasher.hash_one(value);
                        while self.ids.contains_key(&slot) {
                            slot = slot.wrapping_add(1);
                        }
                        self.ids.insert(slot, offset(id));
                    }
                }
            }
            let literal = self.intern_tail(base, at);
            self.refs.push(StringRef {
                literal,
                line: t.line,
            });
        }
    }

    /// The id a donor value from behind the window carries over under: a
    /// window value's, if one of its length equals it, else a new one. It
    /// equals no base value, being another donor id's.
    fn carry(&mut self, base: Base<'_>, value: &str) -> u32 {
        let at = self.text.len();
        self.text.push_str(value);
        let (word, bit) = length_bit(value.len());
        if self.lengths[word] & bit != 0 {
            return self.intern_tail(base, at);
        }
        self.ends.push(offset(self.text.len()));
        offset(base.ends.len() + self.ends.len() - 1)
    }

    /// The id of the value appended to `text` at `at`: a value seen
    /// before is taken back off, a new one is kept under the next id.
    fn intern_tail(&mut self, base: Base<'_>, at: usize) -> u32 {
        let Interner {
            hasher,
            ids,
            text,
            ends,
            ..
        } = self;
        let k = base.ends.len();
        let known = |id: u32| match (id as usize).checked_sub(k) {
            None => base.value(id as usize),
            Some(i) => value(text, ends, i),
        };
        let value = &text[at..];
        let mut slot = hasher.hash_one(value);
        let seen = loop {
            match ids.entry(slot) {
                Entry::Occupied(id) if known(*id.get()) == value => break Some(*id.get()),
                Entry::Occupied(_) => slot = slot.wrapping_add(1),
                Entry::Vacant(free) => {
                    free.insert(offset(k + ends.len()));
                    break None;
                }
            }
        };
        if let Some(id) = seen {
            text.truncate(at);
            return id;
        }
        ends.push(offset(text.len()));
        offset(k + ends.len() - 1)
    }
}

/// The tokens of `tokens` a table interns: strings that are not
/// f-strings.
fn strings(tokens: &[Lexeme]) -> impl Iterator<Item = &Lexeme> {
    tokens
        .iter()
        .filter(|t| t.kind == Kind::STR && !t.prefix().contains('f'))
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

    fn values(t: &StringTable) -> Vec<&str> {
        t.literals().collect()
    }

    /// Each ref of `t` as `(literal, line)`.
    fn refs(t: &StringTable) -> Vec<(u32, u32)> {
        t.refs().iter().map(|r| (r.literal, r.line)).collect()
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
        assert_eq!(values(&t), ["x", "new", "late"]);
        // The window relexes to nothing: 'late' moves up to index 1.
        let t = splice(old, 2..3, "");
        assert_eq!(values(&t), ["x", "late"]);
        assert_eq!(t.refs().last().map(|r| r.line), Some(4));
        // No prefix, and no suffix.
        assert_eq!(splice(old, 1..2, "z = 'late'\n").literal(0), "late");
        assert_eq!(splice(old, 4..6, "f = f'{a}'\n").len(), 3);
    }

    /// Escaped and non-ASCII literals are decoded once each into the
    /// interner's buffer and copied into the table only when new.
    #[test]
    fn decoded_literals_intern_by_value() {
        let src = "a = 'x\\ny'\nb = 'x\\ny'\nc = r'x\\ny'\nd = '\u{e9}'\ne = 'plain'\n";
        let t = table(src);
        assert_eq!(values(&t), ["x\ny", "x\\ny", "\u{c3}\u{a9}", "plain"]);
        let ids: Vec<u32> = t.refs().iter().map(|r| r.literal).collect();
        assert_eq!(ids, [0, 0, 1, 2, 3]);
    }

    /// A value whose hash slot another value took interns at the next
    /// free slot, and is found there again.
    #[test]
    fn values_that_share_a_slot_intern_apart() {
        let t = Interner::build(|interner| {
            interner.push("p", 1);
            let q = interner.hasher.hash_one("q");
            interner.ids.insert(q, 0);
            for (value, line) in [("q", 2), ("q", 3), ("p", 4)] {
                interner.push(value, line);
            }
        });
        assert_eq!(values(&t), ["p", "q"]);
        let ids: Vec<u32> = t.refs().iter().map(|r| r.literal).collect();
        assert_eq!(ids, [0, 1, 1, 0]);
    }

    #[test]
    fn interns_distinct_literals_once() {
        let t = table("a = 'x'\nb = 'y'\nc = 'x'\n");
        assert_eq!(values(&t), ["x", "y"]);
        assert_eq!(t.refs().len(), 3);
        assert_eq!(t.refs()[2].literal, 0, "repeat points at the first entry");
        assert_eq!(t.refs()[2].line, 3);
    }

    #[test]
    fn records_lines_per_occurrence() {
        let t = table("p = 'payload'\n\n\nq = 'payload'\n");
        assert_eq!(t.len(), 1);
        assert_eq!(t.refs()[0].line, 1);
        assert_eq!(t.refs()[1].line, 4);
    }

    #[test]
    fn skips_fstrings_keeps_raw_and_bytes() {
        let t = table("a = f'{x}!'\nb = r'\\d+'\nc = b'blob'\n");
        assert_eq!(values(&t), ["\\d+", "blob"]);
    }

    #[test]
    fn survives_unparsable_statements() {
        // The parser degrades this line to Stmt::Other, but the token
        // stream still carries the literal.
        let t = table("try ::= 'aGlkZGVu' @@\n");
        assert!(t.literals().any(|v| v == "aGlkZGVu"));
    }

    #[test]
    fn empty_source_yields_empty_table() {
        let t = table("x = 1\n");
        assert!(t.is_empty());
        assert!(t.refs().is_empty());
    }

    /// A value the window holds first and the file repeats behind it: the
    /// donor's id for it is behind the front's, and it carries over under
    /// the window's id.
    #[test]
    fn a_window_value_repeated_behind_the_window() {
        let t = splice("a = 'x'\nb = 'y'\nc = 'w'\n", 2..3, "b = 'w'\n");
        assert_eq!(values(&t), ["x", "w"]);
        assert_eq!(refs(&t), [(0, 1), (1, 2), (1, 3)]);
    }

    /// A value whose only occurrence the edit removes leaves the table,
    /// and the ids behind it close up.
    #[test]
    fn a_value_whose_only_occurrence_is_removed() {
        let t = splice("a = 'x'\nb = 'gone'\nc = 'z'\n", 2..3, "b = 1\n");
        assert_eq!(values(&t), ["x", "z"]);
        assert_eq!(refs(&t), [(0, 1), (1, 3)]);
    }

    /// A value in front of the window and behind it keeps its front id;
    /// a window value equal to a front value takes that id too.
    #[test]
    fn a_value_shared_by_the_front_and_the_back() {
        let old = "a = 'x'\nb = 'y'\nc = 'x'\n";
        let t = splice(old, 2..3, "b = 'q'\n");
        assert_eq!(values(&t), ["x", "q"]);
        assert_eq!(refs(&t), [(0, 1), (1, 2), (0, 3)]);
        let t = splice(old, 2..3, "b = 'x'\nb2 = 'x'\n");
        assert_eq!(values(&t), ["x"]);
        assert_eq!(refs(&t), [(0, 1), (0, 2), (0, 3), (0, 4)]);
    }

    /// A window value decoded from an escape is interned by its value: it
    /// equals the front value written with the same escape in other quotes.
    #[test]
    fn a_decoded_escape_in_the_window() {
        let t = splice("a = 'x\\ny'\nb = 1\nc = 'tail'\n", 2..3, "b = \"x\\ny\"\n");
        assert_eq!(values(&t), ["x\ny", "tail"]);
        assert_eq!(refs(&t), [(0, 1), (0, 2), (1, 3)]);
    }

    /// A table with no literal holds no buffer, whole or spliced.
    #[test]
    fn an_empty_table_holds_nothing() {
        let t = table("x = 1\n");
        assert_eq!((t.len(), t.refs().len(), t.heap_bytes()), (0, 0, 0));
        let t = splice("a = 'x'\n", 1..2, "a = 1\n");
        assert_eq!((t.len(), t.refs().len(), t.heap_bytes()), (0, 0, 0));
    }
}
