//! Thompson-NFA compiler and a single-pass Pike virtual machine.
//!
//! The VM runs one breadth-first forward pass over the haystack. Threads
//! carry their start offset, a fresh thread is seeded at each position,
//! and leftmost-longest semantics fall out of thread priority (earliest
//! start wins, then longest end), so `find`/`find_all` cost
//! `O(len * insts)` instead of the restart-per-offset `O(len^2 * insts)`
//! (that engine survives in the dev-only `oracles` crate as the
//! differential oracle). A compile-time [`ScanInfo`] analysis adds
//! literal acceleration: a mandatory-prefix skip loop and a
//! start-anchored fast path that seeds offset 0 only. Bounded
//! repetitions are expanded at compile time (the parser caps bounds at
//! 1000).
//!
//! [`ScanInfo`]: crate::ScanInfo

use std::fmt;

use crate::ast::{Ast, Quantifier};
use crate::charclass::CharClass;
use crate::dfa::{DfaOutcome, DfaPrefab, LazyDfa};
use crate::error::RegexError;
use crate::literal::{analyze, ScanInfo};
use crate::parser::parse;

/// A byte class baked into a 256-bit bitmap, so the per-thread byte test
/// in the VM's innermost loop is a single shift-and-mask instead of a
/// range scan.
#[derive(Debug, Clone)]
pub struct ByteSet([u64; 4]);

impl ByteSet {
    fn from_class(class: &CharClass) -> Self {
        let mut words = [0u64; 4];
        for b in 0..=255u8 {
            if class.matches(b) {
                words[(b >> 6) as usize] |= 1u64 << (b & 63);
            }
        }
        ByteSet(words)
    }

    /// Whether `b` is in the set.
    #[inline]
    pub fn matches(&self, b: u8) -> bool {
        (self.0[(b >> 6) as usize] >> (b & 63)) & 1 != 0
    }
}

/// A single VM instruction.
#[derive(Debug, Clone)]
pub enum Inst {
    /// Consume one byte matching the class.
    Byte(ByteSet),
    /// Fork execution; the first target has priority.
    Split(usize, usize),
    /// Unconditional jump.
    Jmp(usize),
    /// Pattern fully matched.
    Match,
    /// `^` assertion.
    AssertStart,
    /// `$` assertion.
    AssertEnd,
    /// `\b` (true) or `\B` (false) assertion.
    AssertWord(bool),
}

/// A compiled regular-expression program.
///
/// Read one through [`Regex::program`]; its length is the compiled size.
#[derive(Debug, Clone)]
pub struct Program {
    pub(crate) insts: Vec<Inst>,
}

impl Program {
    /// Number of VM instructions — a proxy for compiled size.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Returns true when the program contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// A span of the haystack matched by a [`Regex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Match {
    /// Byte offset of the first matched byte.
    pub start: usize,
    /// Byte offset one past the last matched byte.
    pub end: usize,
}

impl Match {
    /// Length of the match in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns true for an empty match.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A compiled regular expression.
///
/// # Examples
///
/// ```
/// use textmatch::Regex;
///
/// let re = Regex::new(r"https?://[\w./-]+")?;
/// let m = re.find(b"GET http://evil.example/payload.bin").unwrap();
/// assert_eq!(m.start, 4);
/// # Ok::<(), textmatch::RegexError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Regex {
    pattern: String,
    program: Program,
    scan: ScanInfo,
    dfa: Option<DfaPrefab>,
}

/// A [`Regex`]'s matching state kept across haystacks: its Pike VM's
/// thread sets and — built on the first haystack the DFA gates — its lazy
/// DFA's state table. Made by [`Regex::cache`]; pass it to that regex's
/// [`Regex::find_each`].
pub struct RegexCache<'r> {
    vm: Vm<'r>,
    dfa: Option<LazyDfa<'r>>,
}

impl fmt::Debug for RegexCache<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegexCache")
            .field("dfa", &self.dfa.is_some())
            .finish_non_exhaustive()
    }
}

/// Haystacks shorter than this skip the lazy-DFA gate: per-call setup
/// would dominate, and the Pike VM finishes tiny inputs immediately.
pub const DFA_MIN_HAYSTACK: usize = 64;

impl Regex {
    /// Compiles `pattern` into an executable program.
    ///
    /// # Errors
    ///
    /// Returns [`RegexError`] for any syntax error; the offset points into
    /// `pattern`.
    pub fn new(pattern: &str) -> Result<Self, RegexError> {
        Self::with_case(pattern, true)
    }

    /// Compiles `pattern` case-insensitively (YARA `/re/i` or `nocase`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Regex::new`].
    pub fn new_nocase(pattern: &str) -> Result<Self, RegexError> {
        Self::with_case(pattern, false)
    }

    fn with_case(pattern: &str, case_sensitive: bool) -> Result<Self, RegexError> {
        let ast = parse(pattern)?;
        let mut compiler = Compiler {
            insts: Vec::new(),
            case_sensitive,
        };
        compiler.compile(&ast)?;
        compiler.insts.push(Inst::Match);
        let program = Program {
            insts: compiler.insts,
        };
        let scan = analyze(&program);
        let dfa = crate::dfa::analyze_dfa(&program);
        Ok(Regex {
            pattern: pattern.to_owned(),
            program,
            scan,
            dfa,
        })
    }

    /// The original pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// The compiled program (for size introspection).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The literal-acceleration hints extracted at compile time.
    pub fn scan_info(&self) -> &ScanInfo {
        &self.scan
    }

    /// Whether the lazy-DFA tier accepts this program (no word-boundary
    /// assertions, program within the determinization size cap).
    pub fn dfa_eligible(&self) -> bool {
        self.dfa.is_some()
    }

    /// The DFA prefab when both the program and the haystack qualify.
    fn dfa_for(&self, haystack: &[u8]) -> Option<&DfaPrefab> {
        if haystack.len() >= DFA_MIN_HAYSTACK {
            self.dfa.as_ref()
        } else {
            None
        }
    }

    /// Tests whether the pattern matches anywhere in `haystack`.
    ///
    /// Eligible patterns run the lazy DFA (one table transition per byte);
    /// ineligible or thrashing scans use the Pike VM. Returns as soon as
    /// any match is known to exist.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        if let Some(prefab) = self.dfa_for(haystack) {
            match LazyDfa::new(&self.program, prefab).once(haystack, 0, &self.scan) {
                DfaOutcome::NoMatch => return false,
                DfaOutcome::MatchEnd(_) => return true,
                DfaOutcome::GaveUp => {}
            }
        }
        Vm::new(&self.program).exists(haystack, &self.scan)
    }

    /// Pike-VM-only existence test — the pre-DFA baseline, kept public
    /// (hidden) for differential tests and benchmarks.
    #[doc(hidden)]
    pub fn is_match_pike(&self, haystack: &[u8]) -> bool {
        Vm::new(&self.program).exists(haystack, &self.scan)
    }

    /// DFA existence outcome for differential tests: `None` when the
    /// program is ineligible, `Some(outcome)` otherwise (no haystack-size
    /// gate, so small corpora still exercise the DFA).
    #[doc(hidden)]
    pub fn dfa_earliest_end(&self, haystack: &[u8], from: usize) -> Option<DfaOutcome> {
        let prefab = self.dfa.as_ref()?;
        Some(LazyDfa::new(&self.program, prefab).once(haystack, from, &self.scan))
    }

    /// Finds the leftmost-longest match.
    pub fn find(&self, haystack: &[u8]) -> Option<Match> {
        self.find_at(haystack, 0)
    }

    /// Finds the leftmost-longest match starting at or after `from`.
    ///
    /// The lazy DFA answers "is there any match at all?" first (a no is
    /// the common case on scan workloads and costs one table transition
    /// per byte); only a yes pays for Pike-VM span extraction.
    pub fn find_at(&self, haystack: &[u8], from: usize) -> Option<Match> {
        if let Some(prefab) = self.dfa_for(haystack) {
            match LazyDfa::new(&self.program, prefab).once(haystack, from, &self.scan) {
                DfaOutcome::NoMatch => return None,
                DfaOutcome::MatchEnd(_) | DfaOutcome::GaveUp => {}
            }
        }
        Vm::new(&self.program).find(haystack, from, &self.scan)
    }

    /// Returns all non-overlapping leftmost-longest matches:
    /// [`Regex::find_each`] over a fresh cache.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        self.find_each(&mut self.cache(), haystack, |m| out.push(m));
        out
    }

    /// A fresh [`RegexCache`] for this regex.
    pub fn cache(&self) -> RegexCache<'_> {
        RegexCache {
            vm: Vm::new(&self.program),
            dfa: None,
        }
    }

    /// Streams every non-overlapping leftmost-longest match to `each`, in
    /// order, running on `cache`'s Pike VM and lazy DFA, which it keeps:
    /// a caller scanning many haystacks with one regex allocates them and
    /// determinizes each DFA state once.
    ///
    /// Empty matches advance the scan position by one byte so the
    /// iteration always terminates. The lazy DFA gates each iteration:
    /// the final (matchless) tail — the whole haystack, in the common
    /// no-hit case — is scanned at DFA speed instead of thread-set speed.
    /// A DFA that gives up (its state cache thrashed) sits out the rest of
    /// this call and is tried again on the next.
    ///
    /// # Panics
    ///
    /// When `cache` was made by another regex.
    pub fn find_each<'r>(
        &'r self,
        cache: &mut RegexCache<'r>,
        haystack: &[u8],
        mut each: impl FnMut(Match),
    ) {
        let vm = &mut cache.vm;
        assert!(
            std::ptr::eq(vm.program, &self.program),
            "a RegexCache serves the regex that made it"
        );
        let mut dfa = self.dfa_for(haystack).map(|prefab| {
            cache
                .dfa
                .get_or_insert_with(|| LazyDfa::new(&self.program, prefab))
        });
        let mut gated = dfa.is_some();
        let mut pos = 0;
        while pos <= haystack.len() {
            if let Some(d) = dfa.as_mut().filter(|_| gated) {
                match d.earliest_end(haystack, pos, &self.scan) {
                    DfaOutcome::NoMatch => break,
                    DfaOutcome::MatchEnd(_) => {}
                    DfaOutcome::GaveUp => gated = false,
                }
            }
            match vm.find(haystack, pos, &self.scan) {
                Some(m) => {
                    pos = if m.end > m.start { m.end } else { m.start + 1 };
                    each(m);
                }
                None => break,
            }
        }
        if let Some(d) = dfa {
            d.record_call();
        }
    }

    /// Pike-VM-only `find_all` — the pre-DFA baseline, kept public
    /// (hidden) for differential tests and benchmarks.
    #[doc(hidden)]
    pub fn find_all_pike(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        let mut vm = Vm::new(&self.program);
        let mut pos = 0;
        while pos <= haystack.len() {
            match vm.find(haystack, pos, &self.scan) {
                Some(m) => {
                    pos = if m.end > m.start { m.end } else { m.start + 1 };
                    out.push(m);
                }
                None => break,
            }
        }
        out
    }
}

struct Compiler {
    insts: Vec<Inst>,
    case_sensitive: bool,
}

impl Compiler {
    fn compile(&mut self, ast: &Ast) -> Result<(), RegexError> {
        if self.insts.len() > 65_536 {
            return Err(RegexError::new(0, "compiled program too large"));
        }
        match ast {
            Ast::Empty => Ok(()),
            Ast::Class(c) => {
                let mut class = c.clone();
                if !self.case_sensitive {
                    class.make_case_insensitive();
                }
                self.insts.push(Inst::Byte(ByteSet::from_class(&class)));
                Ok(())
            }
            Ast::Concat(parts) => {
                for p in parts {
                    self.compile(p)?;
                }
                Ok(())
            }
            Ast::Group(inner) => self.compile(inner),
            Ast::Alternate(branches) => {
                // Chain of splits: s1 -> b1 | (s2 -> b2 | ...)
                let mut jumps = Vec::new();
                for (i, branch) in branches.iter().enumerate() {
                    if i + 1 < branches.len() {
                        let split_at = self.insts.len();
                        self.insts.push(Inst::Split(0, 0));
                        let b_start = self.insts.len();
                        self.compile(branch)?;
                        jumps.push(self.insts.len());
                        self.insts.push(Inst::Jmp(0));
                        let next = self.insts.len();
                        self.insts[split_at] = Inst::Split(b_start, next);
                    } else {
                        self.compile(branch)?;
                    }
                }
                let end = self.insts.len();
                for j in jumps {
                    self.insts[j] = Inst::Jmp(end);
                }
                Ok(())
            }
            Ast::Repeat(inner, q) => self.compile_repeat(inner, q),
            Ast::StartAnchor => {
                self.insts.push(Inst::AssertStart);
                Ok(())
            }
            Ast::EndAnchor => {
                self.insts.push(Inst::AssertEnd);
                Ok(())
            }
            Ast::WordBoundary => {
                self.insts.push(Inst::AssertWord(true));
                Ok(())
            }
            Ast::NotWordBoundary => {
                self.insts.push(Inst::AssertWord(false));
                Ok(())
            }
        }
    }

    fn compile_repeat(&mut self, inner: &Ast, q: &Quantifier) -> Result<(), RegexError> {
        match (q.min, q.max) {
            (0, None) => self.star(inner),
            (1, None) => {
                // a+  =>  L: a; split L, next
                let start = self.insts.len();
                self.compile(inner)?;
                let split_at = self.insts.len();
                self.insts.push(Inst::Split(start, split_at + 1));
                Ok(())
            }
            (0, Some(1)) => {
                // a? => split body, next
                let split_at = self.insts.len();
                self.insts.push(Inst::Split(0, 0));
                let body = self.insts.len();
                self.compile(inner)?;
                let next = self.insts.len();
                self.insts[split_at] = Inst::Split(body, next);
                Ok(())
            }
            (min, max) => {
                // Expand: min mandatory copies, then optional copies or star.
                for _ in 0..min {
                    self.compile(inner)?;
                }
                match max {
                    None => self.star(inner)?,
                    Some(max) => {
                        let mut splits = Vec::new();
                        for _ in min..max {
                            let split_at = self.insts.len();
                            self.insts.push(Inst::Split(0, 0));
                            splits.push(split_at);
                            let body = self.insts.len();
                            self.compile(inner)?;
                            // Patch later: split(body, end-of-all)
                            self.insts[split_at] = Inst::Split(body, 0);
                        }
                        let end = self.insts.len();
                        for s in splits {
                            if let Inst::Split(body, _) = self.insts[s] {
                                self.insts[s] = Inst::Split(body, end);
                            }
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn star(&mut self, inner: &Ast) -> Result<(), RegexError> {
        // L1: split L2, L3; L2: body; jmp L1; L3:
        let l1 = self.insts.len();
        self.insts.push(Inst::Split(0, 0));
        let l2 = self.insts.len();
        self.compile(inner)?;
        self.insts.push(Inst::Jmp(l1));
        let l3 = self.insts.len();
        self.insts[l1] = Inst::Split(l2, l3);
        Ok(())
    }
}

/// Sparse thread set: a dense `(pc, start)` list plus a generation-stamped
/// membership array, so clearing between input bytes is O(live threads)
/// with no per-byte reallocation or flag sweeps.
struct ThreadSet {
    dense: Vec<(usize, usize)>,
    stamp: Vec<u64>,
    gen: u64,
}

impl ThreadSet {
    fn new(n: usize) -> Self {
        ThreadSet {
            dense: Vec::with_capacity(n),
            stamp: vec![0; n],
            gen: 1,
        }
    }

    fn clear(&mut self) {
        self.dense.clear();
        self.gen += 1;
    }

    fn is_empty(&self) -> bool {
        self.dense.is_empty()
    }
}

/// Adds the epsilon closure of `pc` at `pos` to `set`, for a thread whose
/// match began at `start`. Sets `matched` when a `Match` instruction is
/// reachable, i.e. the thread matches `haystack[start..pos]`.
///
/// Deduplication is first-wins per program counter: callers enqueue
/// threads in priority order (ascending start), so an earlier start keeps
/// ownership of a pc — exactly the leftmost bias the contract requires.
#[allow(clippy::too_many_arguments)]
fn follow(
    program: &Program,
    set: &mut ThreadSet,
    stack: &mut Vec<usize>,
    pc: usize,
    start: usize,
    pos: usize,
    haystack: &[u8],
    matched: &mut bool,
) {
    debug_assert!(stack.is_empty());
    stack.push(pc);
    while let Some(pc) = stack.pop() {
        if set.stamp[pc] == set.gen {
            continue;
        }
        set.stamp[pc] = set.gen;
        match &program.insts[pc] {
            Inst::Jmp(t) => stack.push(*t),
            Inst::Split(a, b) => {
                stack.push(*b);
                stack.push(*a);
            }
            Inst::AssertStart => {
                if pos == 0 {
                    stack.push(pc + 1);
                }
            }
            Inst::AssertEnd => {
                if pos == haystack.len() {
                    stack.push(pc + 1);
                }
            }
            Inst::AssertWord(expected) => {
                let before = pos > 0 && is_word_byte(haystack[pos - 1]);
                let after = pos < haystack.len() && is_word_byte(haystack[pos]);
                if (before != after) == *expected {
                    stack.push(pc + 1);
                }
            }
            Inst::Match => *matched = true,
            Inst::Byte(_) => set.dense.push((pc, start)),
        }
    }
}

/// Records a match candidate under leftmost-longest resolution: an earlier
/// start always wins; for equal starts the longer end wins.
fn update_best(best: &mut Option<Match>, start: usize, end: usize) {
    match best {
        Some(b) if start > b.start => {}
        Some(b) if start == b.start && end <= b.end => {}
        _ => *best = Some(Match { start, end }),
    }
}

/// Single-pass Pike VM: breadth-first simulation with per-step thread
/// de-duplication, position-carrying threads and literal-accelerated
/// seeding.
struct Vm<'p> {
    program: &'p Program,
    clist: ThreadSet,
    nlist: ThreadSet,
    stack: Vec<usize>,
}

impl<'p> Vm<'p> {
    fn new(program: &'p Program) -> Self {
        let n = program.insts.len();
        Vm {
            program,
            clist: ThreadSet::new(n),
            nlist: ThreadSet::new(n),
            stack: Vec::with_capacity(n),
        }
    }

    /// Leftmost-longest match at or after `from`, in one forward pass.
    fn find(&mut self, haystack: &[u8], from: usize, scan: &ScanInfo) -> Option<Match> {
        self.run(haystack, from, scan, false)
    }

    /// Existence-only variant: returns as soon as any match is reached
    /// (the reported span is the first completion, not leftmost-longest).
    fn exists(&mut self, haystack: &[u8], scan: &ScanInfo) -> bool {
        self.run(haystack, 0, scan, true).is_some()
    }

    /// The scan loop shared by both entry points. With `earliest` set the
    /// first `Match` instruction reached ends the scan; otherwise the loop
    /// runs leftmost-longest resolution to completion.
    fn run(
        &mut self,
        haystack: &[u8],
        from: usize,
        scan: &ScanInfo,
        earliest: bool,
    ) -> Option<Match> {
        // An out-of-range start cannot match anything (the seed engine's
        // `from..=len` loop was simply empty).
        if from > haystack.len() {
            return None;
        }
        // `^`-anchored fast path: the only viable seed is offset 0.
        if scan.is_start_anchored() && from > 0 {
            return None;
        }
        self.clist.clear();
        let mut best: Option<Match> = None;
        let mut pos = from;
        loop {
            if best.is_none() && self.clist.is_empty() {
                // The set is dense-empty but may still carry dedup stamps
                // from closures evaluated at an earlier offset (a failed
                // seed or a step whose threads all died on assertions).
                // Clear them so position-dependent assertions are
                // re-evaluated wherever we seed next — especially after
                // the acceleration jump below moves `pos`.
                self.clist.clear();
                if scan.is_start_anchored() {
                    if pos > from {
                        return None;
                    }
                } else {
                    // Literal acceleration: no live thread and no match
                    // yet, so jump straight to the next offset where a
                    // match could possibly begin.
                    pos = scan.next_candidate(haystack, pos)?;
                }
            }
            // Seed a thread at this offset unless the leftmost match start
            // is already pinned (later seeds can only lose).
            if best.is_none()
                && !(scan.is_start_anchored() && pos > 0)
                && scan.can_start_at(haystack, pos)
            {
                let mut matched = false;
                follow(
                    self.program,
                    &mut self.clist,
                    &mut self.stack,
                    0,
                    pos,
                    pos,
                    haystack,
                    &mut matched,
                );
                if matched {
                    if earliest {
                        return Some(Match {
                            start: pos,
                            end: pos,
                        });
                    }
                    update_best(&mut best, pos, pos);
                }
            }
            if pos == haystack.len() {
                break;
            }
            if self.clist.is_empty() {
                if best.is_some() {
                    break; // No live thread can improve on the match.
                }
                pos += 1;
                continue;
            }
            let byte = haystack[pos];
            self.nlist.clear();
            let program = self.program;
            for i in 0..self.clist.dense.len() {
                let (pc, start) = self.clist.dense[i];
                if let Some(b) = &best {
                    if start > b.start {
                        continue; // Pruned: cannot beat the leftmost start.
                    }
                }
                if let Inst::Byte(class) = &program.insts[pc] {
                    if class.matches(byte) {
                        let mut matched = false;
                        follow(
                            program,
                            &mut self.nlist,
                            &mut self.stack,
                            pc + 1,
                            start,
                            pos + 1,
                            haystack,
                            &mut matched,
                        );
                        if matched {
                            if earliest {
                                return Some(Match {
                                    start,
                                    end: pos + 1,
                                });
                            }
                            update_best(&mut best, start, pos + 1);
                        }
                    }
                }
            }
            std::mem::swap(&mut self.clist, &mut self.nlist);
            pos += 1;
        }
        best
    }
}

/// Whether `b` is a word byte for `\b` / `\B`: ASCII alphanumeric or `_`.
pub fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    fn re(p: &str) -> Regex {
        Regex::new(p).unwrap_or_else(|e| panic!("compile {p:?}: {e}"))
    }

    #[test]
    fn literal_match() {
        let r = re("abc");
        assert!(r.is_match(b"xxabcxx"));
        assert!(!r.is_match(b"ab"));
    }

    #[test]
    fn find_reports_offsets() {
        let r = re("abc");
        let m = r.find(b"xxabcxx").unwrap();
        assert_eq!((m.start, m.end), (2, 5));
    }

    #[test]
    fn longest_match_preferred() {
        let r = re("a+");
        let m = r.find(b"caaab").unwrap();
        assert_eq!((m.start, m.end), (1, 4));
    }

    #[test]
    fn alternation_picks_leftmost() {
        let r = re("cat|dog");
        let m = r.find(b"hotdog cat").unwrap();
        assert_eq!(&b"hotdog cat"[m.start..m.end], b"dog");
    }

    #[test]
    fn leftmost_beats_longer_later_match() {
        // "hot" starts earlier than the longer "dogs"; leftmost wins.
        let r = re("hot|dogs");
        let m = r.find(b"xhotdogs").unwrap();
        assert_eq!((m.start, m.end), (1, 4));
        // Equal starts: the longer alternative wins instead.
        let r = re("ho|hotdog");
        let m = r.find(b"xhotdog").unwrap();
        assert_eq!((m.start, m.end), (1, 7));
    }

    #[test]
    fn equal_start_prefers_longest_branch() {
        let r = re("ab|abc");
        let m = r.find(b"zabcz").unwrap();
        assert_eq!((m.start, m.end), (1, 4));
    }

    #[test]
    fn late_match_from_earlier_start_wins() {
        // The start-0 thread stays alive past the start-1 match and must
        // reclaim the result when it finally completes.
        let r = re("a.*z|bc");
        let m = r.find(b"abcz").unwrap();
        assert_eq!((m.start, m.end), (0, 4));
        // ... but when the earlier thread dies without matching, the later
        // start is the correct answer.
        let m = r.find(b"abcy").unwrap();
        assert_eq!((m.start, m.end), (1, 3));
    }

    #[test]
    fn star_matches_empty() {
        let r = re("x*");
        assert!(r.is_match(b""));
        let m = r.find(b"yyy").unwrap();
        assert!(m.is_empty());
    }

    #[test]
    fn bounded_repeat() {
        let r = re("(ab){2,3}");
        assert!(r.is_match(b"abab"));
        assert!(!r.is_match(b"ab"));
        let m = r.find(b"abababab").unwrap();
        assert_eq!(m.len(), 6); // longest = 3 copies
    }

    #[test]
    fn exact_repeat() {
        let r = re("a{3}");
        assert!(r.is_match(b"aaa"));
        assert!(!r.is_match(b"aa"));
    }

    #[test]
    fn anchors() {
        let r = re("^abc$");
        assert!(r.is_match(b"abc"));
        assert!(!r.is_match(b"xabc"));
        assert!(!r.is_match(b"abcx"));
    }

    #[test]
    fn start_anchor_mid_haystack_fails() {
        let r = re("^abc");
        assert!(!r.is_match(b"zabc"));
    }

    #[test]
    fn anchored_find_at_nonzero_offset_is_none() {
        let r = re("^abc");
        assert_eq!(r.find_at(b"abcabc", 0), Some(Match { start: 0, end: 3 }));
        assert_eq!(r.find_at(b"abcabc", 1), None);
        assert_eq!(r.find_all(b"abcabc").len(), 1);
    }

    #[test]
    fn end_anchor_alone_matches_at_end() {
        let r = re("$");
        let m = r.find(b"ab").unwrap();
        assert_eq!((m.start, m.end), (2, 2));
    }

    #[test]
    fn word_boundary() {
        let r = re(r"\beval\b");
        assert!(r.is_match(b"x = eval(y)"));
        assert!(!r.is_match(b"medieval times"));
    }

    #[test]
    fn not_word_boundary() {
        let r = re(r"\Beval");
        assert!(r.is_match(b"medieval"));
        assert!(!r.is_match(b"eval(x)"));
    }

    #[test]
    fn dot_does_not_cross_newline() {
        let r = re("a.c");
        assert!(r.is_match(b"abc"));
        assert!(!r.is_match(b"a\nc"));
    }

    #[test]
    fn classes_and_escapes() {
        let r = re(r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}");
        assert!(r.is_match(b"connect to 185.62.190.159 now"));
        assert!(!r.is_match(b"no ip here"));
    }

    #[test]
    fn base64_blob_pattern() {
        // The pattern from Table I of the paper (simplified).
        let r = re(r"([A-Za-z0-9+/]{4}){3,}(==|=)?");
        assert!(r.is_match(b"exec(b64decode('aW1wb3J0IG9zCg=='))"));
    }

    #[test]
    fn nocase_matching() {
        let r = Regex::new_nocase("powershell").unwrap();
        assert!(r.is_match(b"POWERSHELL -enc ..."));
        assert!(r.is_match(b"PowerShell"));
    }

    #[test]
    fn find_all_non_overlapping() {
        let r = re("aa");
        let all = r.find_all(b"aaaa");
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], Match { start: 0, end: 2 });
        assert_eq!(all[1], Match { start: 2, end: 4 });
    }

    #[test]
    fn a_kept_cache_finds_what_fresh_ones_do() {
        let r = re("(ab|cd)+ef");
        let mut cache = r.cache();
        let long = b"abef ".repeat(40);
        for hay in [&b"cdabef abef"[..], b"", &long, b"cdx", &long[3..]] {
            let mut kept = Vec::new();
            r.find_each(&mut cache, hay, |m| kept.push(m));
            assert_eq!(kept, r.find_all(hay));
        }
    }

    #[test]
    #[should_panic(expected = "serves the regex that made it")]
    fn a_cache_serves_only_its_regex() {
        let (a, b) = (re("a"), re("a"));
        b.find_each(&mut a.cache(), b"a", |_| {});
    }

    #[test]
    fn find_all_counts_occurrences() {
        let r = re(r"os\.system");
        let hay = b"os.system('a'); os.system('b'); os.popen('c')";
        assert_eq!(r.find_all(hay).len(), 2);
    }

    #[test]
    fn find_all_empty_haystack() {
        let r = re("abc");
        assert!(r.find_all(b"").is_empty());
    }

    #[test]
    fn find_all_empty_matches_advance() {
        let r = re("a*");
        let all = r.find_all(b"ba");
        // Empty at 0, then "a" at 1..2.
        assert_eq!(all[0], Match { start: 0, end: 0 });
        assert_eq!(all[1], Match { start: 1, end: 2 });
    }

    #[test]
    fn literal_skip_does_not_miss_assertion_guarded_seeds() {
        // The first-byte table says 'e'; the skip loop must still let the
        // word-boundary assertion veto or admit individual seeds.
        let r = re(r"\beval\b");
        let hay = b"medieval eval medieval eval(";
        let all = r.find_all(hay);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0], Match { start: 9, end: 13 });
    }

    #[test]
    fn acceleration_jump_reevaluates_assertions() {
        // Regression: a step at offset 0 leaves a failed `\b` stamp in the
        // thread set; the literal-acceleration jump to the 'x' at offset 3
        // must clear it so the boundary is re-checked there.
        let r = re(r"a?\bx");
        assert_eq!(r.find_all(b"ab x"), vec![Match { start: 3, end: 4 }]);
        assert!(r.is_match(b"ab x"));
        let r = re(r"b?\Bx");
        assert_eq!(r.find_all(b"ba ax"), vec![Match { start: 4, end: 5 }]);
    }

    #[test]
    fn prefix_acceleration_skips_decoys() {
        let r = re(r"os\.system\(");
        let hay = b"os_system( os,system( oooos.system os.system('id')";
        let m = r.find(hay).unwrap();
        assert_eq!(&hay[m.start..m.end], b"os.system(");
    }

    #[test]
    fn url_pattern() {
        let r = re(r"https?://[\w.\-/]+");
        let m = r.find(b"requests.get('http://1.2.3.4/x.sh')").unwrap();
        assert_eq!(
            &b"requests.get('http://1.2.3.4/x.sh')"[m.start..m.end],
            b"http://1.2.3.4/x.sh"
        );
    }

    #[test]
    fn nested_groups() {
        let r = re("(a(b|c)d)+");
        assert!(r.is_match(b"abdacd"));
        let m = r.find(b"abdacdx").unwrap();
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn binary_haystack() {
        let r = re(r"\x00\x01");
        assert!(r.is_match(&[0x42, 0x00, 0x01, 0x99]));
    }

    #[test]
    fn find_at_skips_earlier_matches() {
        let r = re("ab");
        let hay = b"ab ab ab";
        assert_eq!(r.find_at(hay, 1), Some(Match { start: 3, end: 5 }));
        assert_eq!(r.find_at(hay, 6), Some(Match { start: 6, end: 8 }));
        assert_eq!(r.find_at(hay, 7), None);
    }

    #[test]
    fn find_at_beyond_len_is_none() {
        // The seed engine's `from..=len` loop was empty for from > len;
        // the single-pass scan must not index past the haystack.
        assert_eq!(re("a*").find_at(b"xxabyy", 7), None);
        assert_eq!(re("ab").find_at(b"xxabyy", 100), None);
        assert_eq!(re("^a").find_at(b"a", 2), None);
    }

    #[test]
    fn program_len_reported() {
        let r = re("abc");
        assert!(r.program().len() >= 4);
        assert!(!r.program().is_empty());
    }
}
