//! Lazy DFA over the compiled Thompson NFA.
//!
//! The Pike VM simulates a thread *set* per input byte; for regexes whose
//! NFAs determinize cheaply, this module collapses each reachable thread
//! set into a DFA state built **on demand**, dropping the per-byte cost
//! to one table transition. The design mirrors the `regex-automata`
//! hybrid engine, sized for this workspace:
//!
//! * **Eligibility** — programs containing `\b`/`\B` are rejected at
//!   compile time (word-boundary closures depend on the previous byte in
//!   a way the state key does not capture); `^` is handled by separate
//!   start states for offset 0 vs interior seeds, and `$` by carrying
//!   blocked `AssertEnd` continuations in the state and resolving them
//!   once at end of input.
//! * **Byte classes** — compile-time partition refinement over the
//!   program's `ByteSet`s shrinks each state's transition row from 256
//!   entries to one per distinguishable class.
//! * **One table** — every state's row lives in one `Vec<u32>`, and a
//!   state's id is *premultiplied*: it is the offset of its row, so the
//!   transition on byte `b` is `table[id + class_of[b]]` — no multiply,
//!   and no read of the state itself. A state keeps only its interning
//!   key.
//! * **Tagged transitions** — a stored transition whose target needs
//!   attention carries [`TAG`]: a match state, a dead state, or the
//!   interior start state when the literal skip applies. Unfilled entries
//!   are `UNKNOWN`, which is tagged too. The inner loop of
//!   [`LazyDfa::earliest_end`] takes untagged transitions and stops at
//!   the first tagged one; the slow step determinizes or acts on it.
//! * **Kept start states** — the interior and offset-0 start states are
//!   kept across calls and cleared by a flush, so a call pays no closure
//!   or lookup to begin.
//! * **Bounded cache** — at most [`MAX_DFA_STATES`] states live at once;
//!   overflow flushes and rebuilds (counted), and a scan that flushes
//!   more than [`MAX_FLUSHES_PER_SCAN`] times gives up so the caller
//!   falls back to the Pike VM (counted as a `pikevm_fallback`).
//! * **Semantics** — existence only ([`LazyDfa::earliest_end`] reports
//!   the earliest position any match ends at, or that none exists).
//!   Leftmost-longest span extraction stays on the Pike VM; the callers
//!   in [`crate::Regex`] use the DFA as an exact no-match gate, which is
//!   where thread-set simulation burns the most time.
//!
//! Every transition re-seeds an interior start thread (unanchored
//! search). When the machine arrives in the interior start state and
//! [`ScanInfo`] has a literal prefix or a sparse first-byte set, the
//! scan skips hopeless offsets exactly like the Pike VM does. A dense
//! first-byte set (the base64 pattern's 64 bytes) gains nothing from a
//! skip, so there the interior state's transitions stay untagged and the
//! table walks through it.

use std::collections::HashMap;
use std::sync::Arc;

use crate::literal::ScanInfo;
use crate::nfa::{Inst, Program};

/// Bounded state-cache capacity; overflow flushes and rebuilds.
pub const MAX_DFA_STATES: usize = 512;

/// Flush budget per scan before the DFA declares thrashing and gives up.
pub const MAX_FLUSHES_PER_SCAN: u32 = 4;

/// Programs larger than this skip the DFA tier (state sets get wide and
/// the byte-class analysis stops being compile-time noise).
const MAX_DFA_PROGRAM: usize = 4096;

/// Set on a stored transition whose target is a match state, a dead
/// state or the skipping interior start state. State ids stay far below
/// it (`MAX_DFA_STATES` rows of at most 256 entries).
const TAG: u32 = 1 << 31;

/// An unfilled transition; tagged, so the inner loop stops at it.
const UNKNOWN: u32 = u32::MAX;

/// Outcome of a DFA existence scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DfaOutcome {
    /// No match begins at or after the scan start.
    NoMatch,
    /// Some match ends at this offset (the earliest such offset).
    MatchEnd(usize),
    /// The state cache thrashed; the caller must use the Pike VM.
    GaveUp,
}

/// Compile-time DFA facts for one program: eligibility plus the
/// byte-class partition shared by every scan.
#[derive(Debug, Clone)]
pub struct DfaPrefab {
    class_of: Box<[u8; 256]>,
    class_count: usize,
}

/// Analyzes `program` for DFA eligibility; `None` means the Pike VM owns
/// every scan (word-boundary assertions or an oversized program).
pub(crate) fn analyze_dfa(program: &Program) -> Option<DfaPrefab> {
    if program.insts.len() > MAX_DFA_PROGRAM {
        return None;
    }
    if program
        .insts
        .iter()
        .any(|i| matches!(i, Inst::AssertWord(_)))
    {
        return None;
    }
    // Partition refinement: two bytes share a class iff no ByteSet in the
    // program distinguishes them, so one transition per class suffices.
    let mut class_of = [0u16; 256];
    let mut count = 1usize;
    for inst in &program.insts {
        let Inst::Byte(set) = inst else { continue };
        let mut remap = [u16::MAX; 512];
        let mut next = 0u16;
        for (b, class) in class_of.iter_mut().enumerate() {
            let key = ((*class as usize) << 1) | usize::from(set.matches(b as u8));
            if remap[key] == u16::MAX {
                remap[key] = next;
                next += 1;
            }
            *class = remap[key];
        }
        count = next as usize;
        if count == 256 {
            break;
        }
    }
    let mut packed = Box::new([0u8; 256]);
    for (slot, class) in packed.iter_mut().zip(class_of.iter()) {
        *slot = *class as u8;
    }
    Some(DfaPrefab {
        class_of: packed,
        class_count: count,
    })
}

struct State {
    /// The interning key `[matched, pcs.len(), pcs.., pending_end..]`:
    /// whether a `Match` was epsilon-reachable when the state was built,
    /// the sorted `Byte`-instruction pcs (the live thread set) and the
    /// sorted `AssertEnd` pcs blocked mid-closure, resolved at input end.
    /// The flag participates because two closures can share pcs yet
    /// differ on whether `Match` was reachable (e.g. `^` at offset 0 vs
    /// interior). The state table's map holds the same allocation.
    key: Arc<[u32]>,
}

impl State {
    fn matched(&self) -> bool {
        self.key[0] != 0
    }

    fn pcs(&self) -> &[u32] {
        &self.key[2..2 + self.key[1] as usize]
    }

    fn pending_end(&self) -> &[u32] {
        &self.key[2 + self.key[1] as usize..]
    }

    /// Truly dead (anchored pattern whose window passed): the re-seed
    /// survives in every unanchored program, so an empty state means
    /// nothing downstream can match.
    fn dead(&self) -> bool {
        !self.matched() && self.pcs().is_empty() && self.pending_end().is_empty()
    }
}

/// Epsilon-closure scratch, separate from the state table so closure
/// traversal can borrow the program while mutating accumulators.
struct Scratch {
    stamp: Vec<u64>,
    gen: u64,
    stack: Vec<u32>,
    pcs: Vec<u32>,
    pending: Vec<u32>,
    matched: bool,
    /// The closure's [`State::key`], rebuilt in place by
    /// [`Scratch::key`], so looking a state up allocates nothing.
    key: Vec<u32>,
}

impl Scratch {
    fn new(len: usize) -> Self {
        Scratch {
            stamp: vec![0; len],
            gen: 0,
            stack: Vec::new(),
            pcs: Vec::new(),
            pending: Vec::new(),
            matched: false,
            key: Vec::new(),
        }
    }

    fn begin(&mut self) {
        self.gen += 1;
        self.pcs.clear();
        self.pending.clear();
        self.matched = false;
    }

    /// Epsilon closure from `pc` in a mid-input context (`at_start` only
    /// for the offset-0 start state); `AssertEnd` blocks into `pending`.
    fn close(&mut self, program: &Program, pc: u32, at_start: bool) {
        debug_assert!(self.stack.is_empty());
        self.stack.push(pc);
        while let Some(pc) = self.stack.pop() {
            if self.stamp[pc as usize] == self.gen {
                continue;
            }
            self.stamp[pc as usize] = self.gen;
            match &program.insts[pc as usize] {
                Inst::Jmp(t) => self.stack.push(*t as u32),
                Inst::Split(a, b) => {
                    self.stack.push(*a as u32);
                    self.stack.push(*b as u32);
                }
                Inst::AssertStart => {
                    if at_start {
                        self.stack.push(pc + 1);
                    }
                }
                Inst::AssertEnd => self.pending.push(pc),
                Inst::AssertWord(_) => unreachable!("AssertWord programs are DFA-ineligible"),
                Inst::Match => self.matched = true,
                Inst::Byte(_) => self.pcs.push(pc),
            }
        }
    }

    /// Like [`Scratch::close`] but in the end-of-input context: `$`
    /// passes, byte instructions are dead ends.
    fn close_at_end(&mut self, program: &Program, pc: u32, at_start: bool) {
        debug_assert!(self.stack.is_empty());
        self.stack.push(pc);
        while let Some(pc) = self.stack.pop() {
            if self.stamp[pc as usize] == self.gen {
                continue;
            }
            self.stamp[pc as usize] = self.gen;
            match &program.insts[pc as usize] {
                Inst::Jmp(t) => self.stack.push(*t as u32),
                Inst::Split(a, b) => {
                    self.stack.push(*a as u32);
                    self.stack.push(*b as u32);
                }
                Inst::AssertStart => {
                    if at_start {
                        self.stack.push(pc + 1);
                    }
                }
                Inst::AssertEnd => self.stack.push(pc + 1),
                Inst::AssertWord(_) => unreachable!(),
                Inst::Match => self.matched = true,
                Inst::Byte(_) => {} // no bytes left to consume
            }
        }
    }

    /// The closure's interning key (see [`State::key`]).
    fn key(&mut self) -> &[u32] {
        self.pcs.sort_unstable();
        self.pcs.dedup();
        self.pending.sort_unstable();
        self.pending.dedup();
        self.key.clear();
        self.key.push(u32::from(self.matched));
        self.key.push(self.pcs.len() as u32);
        self.key.extend_from_slice(&self.pcs);
        self.key.extend_from_slice(&self.pending);
        &self.key
    }
}

/// A lazy DFA over one program, with no cross-thread sharing. Its state
/// table persists across calls — the iterations of a `find_all` loop,
/// and the scan units of a [`crate::RegexCache`] — so a state is
/// determinized once, not once per haystack. The engine counters are
/// booked per call by [`LazyDfa::record_call`].
pub struct LazyDfa<'p> {
    program: &'p Program,
    prefab: &'p DfaPrefab,
    /// Every state's transition row, `class_count` entries each, in the
    /// order the states were built. A state's id is its row's offset;
    /// an entry is a target id, tagged with [`TAG`] when the target
    /// needs the slow step, or `UNKNOWN`.
    table: Vec<u32>,
    /// Interning keys, state `id` at `id / class_count`.
    states: Vec<State>,
    map: HashMap<Arc<[u32]>, u32>,
    /// The interior and offset-0 start states' ids, `UNKNOWN` until
    /// built and after a flush.
    starts: [u32; 2],
    scratch: Scratch,
    /// This call's tally, booked and reset by [`LazyDfa::record_call`].
    states_built: u64,
    flushes: u64,
    gave_up: bool,
    /// Flushes in the running [`LazyDfa::earliest_end`], against
    /// [`MAX_FLUSHES_PER_SCAN`].
    flushes_this_scan: u32,
}

impl<'p> LazyDfa<'p> {
    pub(crate) fn new(program: &'p Program, prefab: &'p DfaPrefab) -> Self {
        LazyDfa {
            program,
            prefab,
            table: Vec::new(),
            states: Vec::new(),
            map: HashMap::new(),
            starts: [UNKNOWN; 2],
            scratch: Scratch::new(program.insts.len()),
            states_built: 0,
            flushes: 0,
            gave_up: false,
            flushes_this_scan: 0,
        }
    }

    /// Books the call that just ended in the engine counters — one
    /// `dfa_scans`, the states it built and flushes it made, and a
    /// `pikevm_fallback` if it gave up — and starts the next call's tally.
    pub(crate) fn record_call(&mut self) {
        crate::counters::record_dfa_scan(self.states_built, self.flushes, self.gave_up);
        self.states_built = 0;
        self.flushes = 0;
        self.gave_up = false;
    }

    /// A fresh DFA's one call: [`LazyDfa::earliest_end`], booked.
    pub(crate) fn once(mut self, hay: &[u8], from: usize, scan: &ScanInfo) -> DfaOutcome {
        let outcome = self.earliest_end(hay, from, scan);
        self.record_call();
        outcome
    }

    /// Earliest offset at which any match (starting at or after `from`)
    /// ends; existence-exact against the Pike VM.
    pub(crate) fn earliest_end(&mut self, hay: &[u8], from: usize, scan: &ScanInfo) -> DfaOutcome {
        if from > hay.len() {
            return DfaOutcome::NoMatch;
        }
        self.flushes_this_scan = 0;
        self.scan(hay, from, scan).unwrap_or_else(|| {
            self.gave_up = true;
            DfaOutcome::GaveUp
        })
    }

    /// [`LazyDfa::earliest_end`]'s walk; `None` when the flush budget ran
    /// out.
    fn scan(&mut self, hay: &[u8], from: usize, scan: &ScanInfo) -> Option<DfaOutcome> {
        let skip = scan.skips();
        let mut s = self.start(from == 0)?;
        // Built before any transition is stored, so a transition into
        // the interior start state is tagged whenever it should be.
        self.start(false)?;
        if self.state(s).matched() {
            return Some(DfaOutcome::MatchEnd(from));
        }
        let class_of: &'p [u8; 256] = &self.prefab.class_of;
        let mut pos = from;
        loop {
            if skip && s == self.starts[0] {
                // No live thread has consumed anything: jump to the next
                // offset where a match could begin (same hints the Pike
                // VM uses). `None` means the tail cannot contain one.
                match scan.next_candidate(hay, pos) {
                    Some(p) => pos = p,
                    None => return Some(DfaOutcome::NoMatch),
                }
            }
            // Untagged transitions: no match, no dead end, no skip.
            let table = &self.table[..];
            let mut t = UNKNOWN;
            while let Some(&b) = hay.get(pos) {
                t = table[s as usize + usize::from(class_of[usize::from(b)])];
                if t & TAG != 0 {
                    break;
                }
                s = t;
                pos += 1;
            }
            if pos == hay.len() {
                break;
            }
            s = if t == UNKNOWN {
                self.determinize(s, hay[pos], skip)?
            } else {
                t & !TAG
            };
            pos += 1;
            let st = self.state(s);
            if st.matched() {
                return Some(DfaOutcome::MatchEnd(pos));
            }
            if st.dead() {
                return Some(DfaOutcome::NoMatch);
            }
        }
        // End of input: resolve the blocked `$` continuations.
        Some(if self.end_matches(s, hay.is_empty()) {
            DfaOutcome::MatchEnd(hay.len())
        } else {
            DfaOutcome::NoMatch
        })
    }

    fn state(&self, id: u32) -> &State {
        &self.states[id as usize / self.prefab.class_count]
    }

    /// The kept start state — offset 0's when `at_start`, else the
    /// interior one — built if a flush cleared it. `None` when building
    /// it ran out of flush budget.
    fn start(&mut self, at_start: bool) -> Option<u32> {
        let slot = usize::from(at_start);
        if self.starts[slot] == UNKNOWN {
            self.scratch.begin();
            self.scratch.close(self.program, 0, at_start);
            self.starts[slot] = self.intern()?.0;
        }
        Some(self.starts[slot])
    }

    /// Determinizes `cur`'s transition on `byte`'s class and stores it,
    /// tagged as [`LazyDfa::tagged`] says. Every member of a class moves
    /// the same threads (no `ByteSet` tells them apart), so `byte` stands
    /// for its class. Returns `None` when the flush budget is exhausted
    /// (thrashing).
    fn determinize(&mut self, cur: u32, byte: u8, skip: bool) -> Option<u32> {
        self.scratch.begin();
        // Byte moves from the current thread set...
        for &pc in self.states[cur as usize / self.prefab.class_count].pcs() {
            if let Inst::Byte(set) = &self.program.insts[pc as usize] {
                if set.matches(byte) {
                    self.scratch.close(self.program, pc + 1, false);
                }
            }
        }
        // ...plus the unanchored re-seed at the new position.
        self.scratch.close(self.program, 0, false);
        let (next, flushed) = self.intern()?;
        if flushed {
            // `cur`'s row went with the flush; the interior start state
            // comes back before the next transition is stored.
            self.start(false)?;
        } else {
            let class = self.prefab.class_of[usize::from(byte)];
            self.table[cur as usize + usize::from(class)] = self.tagged(next, skip);
        }
        Some(next)
    }

    /// `id` as a stored transition: tagged when the state matches, is
    /// dead, or is the interior start state and `skip` holds.
    fn tagged(&self, id: u32, skip: bool) -> u32 {
        debug_assert_ne!(self.starts[0], UNKNOWN, "interior start state unknown");
        let st = self.state(id);
        if st.matched() || st.dead() || (skip && id == self.starts[0]) {
            id | TAG
        } else {
            id
        }
    }

    /// The state whose key [`Scratch::key`] builds from the closure, added
    /// if new, and whether adding it flushed the cache. `None` when the
    /// flush budget is exhausted.
    fn intern(&mut self) -> Option<(u32, bool)> {
        if let Some(&id) = self.map.get(self.scratch.key()) {
            return Some((id, false));
        }
        let flushed = self.states.len() >= MAX_DFA_STATES;
        if flushed {
            self.flushes_this_scan += 1;
            self.flushes += 1;
            if self.flushes_this_scan > MAX_FLUSHES_PER_SCAN {
                return None;
            }
            self.table.clear();
            self.states.clear();
            self.map.clear();
            self.starts = [UNKNOWN; 2];
        }
        let key: Arc<[u32]> = self.scratch.key.as_slice().into();
        let id = self.table.len() as u32;
        self.table
            .resize(self.table.len() + self.prefab.class_count, UNKNOWN);
        self.states.push(State {
            key: Arc::clone(&key),
        });
        self.map.insert(key, id);
        self.states_built += 1;
        Some((id, flushed))
    }

    /// Resolves the state's blocked `$` continuations at end of input;
    /// `at_start` is true only for an empty haystack scanned from 0.
    fn end_matches(&mut self, state: u32, at_start: bool) -> bool {
        self.scratch.begin();
        for &pc in self.states[state as usize / self.prefab.class_count].pending_end() {
            self.scratch.close_at_end(self.program, pc + 1, at_start);
        }
        self.scratch.matched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Regex;

    fn exists_via_dfa(re: &Regex, hay: &[u8]) -> bool {
        match re.dfa_earliest_end(hay, 0) {
            Some(DfaOutcome::MatchEnd(_)) => true,
            Some(DfaOutcome::NoMatch) => false,
            Some(DfaOutcome::GaveUp) => panic!("cache thrashed on a tiny test input"),
            None => panic!("pattern unexpectedly DFA-ineligible"),
        }
    }

    fn agree(pattern: &str, hay: &[u8]) {
        let re = Regex::new(pattern).unwrap();
        assert_eq!(
            exists_via_dfa(&re, hay),
            re.is_match_pike(hay),
            "pattern {pattern:?} on {:?}",
            String::from_utf8_lossy(hay),
        );
    }

    #[test]
    fn existence_matches_pike_on_edge_patterns() {
        let cases: &[(&str, &[u8])] = &[
            ("abc", b"xxabcxx"),
            ("abc", b"xxabx"),
            ("a.*z|bc", b"abcz"),
            ("a.*z|bc", b"abq"),
            ("^abc", b"abcdef"),
            ("^abc", b"xabc"),
            ("abc$", b"xxabc"),
            ("abc$", b"abcx"),
            ("^abc$", b"abc"),
            ("^abc$", b"abcd"),
            ("^$", b""),
            ("^$", b"a"),
            ("a*", b""),
            ("a*", b"bbb"),
            ("(ab|cd)+ef", b"cdabefx"),
            ("(ab|cd)+ef", b"cdabex"),
            ("[0-9]{3}-[0-9]{4}", b"call 555-1234 now"),
            ("[0-9]{3}-[0-9]{4}", b"call 555-123 now"),
            ("x$|y", b"zzzx"),
            ("x$|y", b"xzzz"),
        ];
        for (pattern, hay) in cases {
            agree(pattern, hay);
        }
    }

    #[test]
    fn earliest_end_is_the_first_match_end() {
        let re = Regex::new("bc").unwrap();
        assert_eq!(
            re.dfa_earliest_end(b"aabcbc", 0),
            Some(DfaOutcome::MatchEnd(4))
        );
        assert_eq!(
            re.dfa_earliest_end(b"aabcbc", 3),
            Some(DfaOutcome::MatchEnd(6))
        );
        assert_eq!(re.dfa_earliest_end(b"aabcbc", 5), Some(DfaOutcome::NoMatch));
    }

    #[test]
    fn word_boundary_patterns_are_ineligible() {
        let re = Regex::new(r"\beval\b").unwrap();
        assert!(!re.dfa_eligible());
        assert!(re.dfa_earliest_end(b" eval ", 0).is_none());
        // The public path still answers correctly via the Pike VM.
        assert!(re.is_match(b" eval "));
        assert!(!re.is_match(b"medieval"));
    }

    #[test]
    fn anchored_miss_dies_without_scanning_the_tail() {
        let re = Regex::new("^MZ").unwrap();
        let mut hay = vec![b'P', b'K'];
        hay.extend(std::iter::repeat_n(b'x', 1 << 16));
        assert_eq!(re.dfa_earliest_end(&hay, 0), Some(DfaOutcome::NoMatch));
        assert!(!re.is_match(&hay));
    }

    #[test]
    fn gated_find_all_equals_pike_find_all() {
        let patterns = [
            "(ab|cd)+ef",
            "[A-Za-z0-9+/]{8}",
            "https?://[a-z./-]+",
            "x+y?z",
        ];
        let hay: Vec<u8> = (0..4096u32)
            .flat_map(|i| {
                let chunk: Vec<u8> = match i % 7 {
                    0 => b"cdabef ".to_vec(),
                    1 => b"aGVsbG8w ".to_vec(),
                    2 => b"http://c2.example/p ".to_vec(),
                    3 => b"xxyz ".to_vec(),
                    _ => b"plain filler text .. ".to_vec(),
                };
                chunk
            })
            .collect();
        for p in patterns {
            let re = Regex::new(p).unwrap();
            assert_eq!(re.find_all(&hay), re.find_all_pike(&hay), "pattern {p:?}");
        }
    }

    #[test]
    fn byte_classes_collapse_the_alphabet() {
        let re = Regex::new("[a-z]+").unwrap();
        let prefab = analyze_dfa(re.program()).unwrap();
        // Two classes: lowercase letters and everything else.
        assert_eq!(prefab.class_count, 2);
        assert_eq!(
            prefab.class_of[b'a' as usize],
            prefab.class_of[b'z' as usize]
        );
        assert_ne!(
            prefab.class_of[b'a' as usize],
            prefab.class_of[b'0' as usize]
        );
    }

    #[test]
    fn a_thrashing_pattern_flushes_gives_up_and_keeps_its_table_bounded() {
        // An `a` twelve bytes before a `c`: the DFA state is the window of
        // the last twelve `a`/`b` bytes, 4 096 states, so a long run
        // without a `c` outgrows the cache over and over.
        let re = Regex::new("(a|b)*a(a|b){11}c").unwrap();
        let prefab = analyze_dfa(re.program()).unwrap();
        let bound = MAX_DFA_STATES * prefab.class_count;
        let mut dfa = LazyDfa::new(re.program(), &prefab);
        let mut cache = re.cache();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let (mut flushed, mut gave_up, mut matched, mut missed) = (0, 0, 0, 0);
        for n in 0..120 {
            let len = 64 + next() as usize % 6000;
            let hay: Vec<u8> = (0..len)
                .map(|_| match next() % 3000 {
                    0 => b'c',
                    r if r % 2 == 0 => b'a',
                    _ => b'b',
                })
                .collect();
            match dfa.earliest_end(&hay, 0, re.scan_info()) {
                DfaOutcome::MatchEnd(end) => {
                    assert!(re.is_match_pike(&hay[..end]), "haystack {n}");
                    assert!(!re.is_match_pike(&hay[..end - 1]), "haystack {n}");
                    matched += 1;
                }
                DfaOutcome::NoMatch => {
                    assert!(!re.is_match_pike(&hay), "haystack {n}");
                    missed += 1;
                }
                DfaOutcome::GaveUp => gave_up += 1,
            }
            flushed += u32::from(dfa.flushes > 0 && !dfa.gave_up);
            assert!(
                dfa.table.len() <= bound,
                "haystack {n}: {}",
                dfa.table.len()
            );
            assert_eq!(dfa.table.len(), dfa.states.len() * prefab.class_count);
            dfa.record_call();
            // The public path on a kept cache: the same kind of DFA gating
            // the Pike VM, which takes over where the DFA gives up.
            let mut spans = Vec::new();
            re.find_each(&mut cache, &hay, |m| spans.push(m));
            assert_eq!(spans, re.find_all_pike(&hay), "haystack {n}");
        }
        assert!(
            flushed > 0 && gave_up > 0 && matched > 0 && missed > 0,
            "{flushed} flushed, {gave_up} gave up, {matched} matched, {missed} missed"
        );
    }

    #[test]
    fn counters_record_dfa_activity() {
        let before = crate::engine_counters();
        let re = Regex::new("needle").unwrap();
        let hay = vec![b'x'; 4096];
        assert_eq!(re.dfa_earliest_end(&hay, 0), Some(DfaOutcome::NoMatch));
        let after = crate::engine_counters();
        assert!(after.dfa_scans > before.dfa_scans);
        assert!(after.dfa_states_built > before.dfa_states_built);
    }
}
