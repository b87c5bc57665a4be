//! The seed's restart-per-offset NFA scan, preserved verbatim.
//!
//! This is the engine the single-pass Pike VM replaced: `find_at`
//! restarts a fully anchored breadth-first simulation at every byte
//! offset, making `find`/`find_all` `O(len^2 * insts)` on adversarial
//! input. It is the differential oracle only: the property tests, the
//! YARA-corpus equivalence suite and the regex-class table's test pit
//! [`Regex`] against it and require byte-identical matches.

use textmatch::internals::{is_word_byte, Inst};
use textmatch::{Match, Regex, RegexError};

/// A compiled regular expression executed by the original quadratic scan.
///
/// Compilation is shared with [`Regex`], so both engines always run the
/// exact same program; only the scan strategy differs.
#[derive(Debug, Clone)]
pub struct ReferenceRegex {
    inner: Regex,
}

impl ReferenceRegex {
    /// Compiles `pattern` (case-sensitively).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Regex::new`].
    pub fn new(pattern: &str) -> Result<Self, RegexError> {
        Ok(ReferenceRegex {
            inner: Regex::new(pattern)?,
        })
    }

    /// Compiles `pattern` case-insensitively.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Regex::new_nocase`].
    pub fn new_nocase(pattern: &str) -> Result<Self, RegexError> {
        Ok(ReferenceRegex {
            inner: Regex::new_nocase(pattern)?,
        })
    }

    /// Wraps an already-compiled [`Regex`] (preserving its case mode), so
    /// corpus tests can differential-check rules compiled elsewhere.
    pub fn from_regex(regex: &Regex) -> Self {
        ReferenceRegex {
            inner: regex.clone(),
        }
    }

    fn insts(&self) -> &[Inst] {
        self.inner.program().insts()
    }

    /// Tests whether the pattern matches anywhere in `haystack`.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        let mut vm = RefVm::new(self.insts());
        vm.any_match(haystack)
    }

    /// Finds the leftmost-longest match (restarting at every offset).
    pub fn find(&self, haystack: &[u8]) -> Option<Match> {
        self.find_at(haystack, 0)
    }

    /// Finds the leftmost-longest match starting at or after `from`.
    pub fn find_at(&self, haystack: &[u8], from: usize) -> Option<Match> {
        let mut vm = RefVm::new(self.insts());
        for start in from..=haystack.len() {
            if let Some(end) = vm.longest_end(haystack, start) {
                return Some(Match { start, end });
            }
        }
        None
    }

    /// Returns all non-overlapping leftmost-longest matches.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        let mut pos = 0;
        // Cheap rejection before the quadratic offset scan.
        if !self.is_match(haystack) {
            return out;
        }
        while pos <= haystack.len() {
            match self.find_at(haystack, pos) {
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

/// Breadth-first NFA simulator with thread de-duplication per step — the
/// seed implementation, anchored at one offset per run.
struct RefVm<'p> {
    insts: &'p [Inst],
    current: Vec<usize>,
    next: Vec<usize>,
    on_current: Vec<bool>,
    on_next: Vec<bool>,
}

impl<'p> RefVm<'p> {
    fn new(insts: &'p [Inst]) -> Self {
        let n = insts.len();
        RefVm {
            insts,
            current: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            on_current: vec![false; n],
            on_next: vec![false; n],
        }
    }

    fn reset(&mut self) {
        self.current.clear();
        self.next.clear();
        self.on_current.iter_mut().for_each(|b| *b = false);
        self.on_next.iter_mut().for_each(|b| *b = false);
    }

    /// Follows epsilon transitions from `pc`, enqueueing byte/match
    /// instructions into the *next* (`into_next`) or *current* set.
    fn add_thread(
        &mut self,
        pc: usize,
        pos: usize,
        haystack: &[u8],
        into_next: bool,
        matched: &mut bool,
    ) {
        {
            let seen = if into_next {
                &mut self.on_next
            } else {
                &mut self.on_current
            };
            if seen[pc] {
                return;
            }
            seen[pc] = true;
        }
        match &self.insts[pc] {
            Inst::Jmp(t) => {
                self.add_thread(*t, pos, haystack, into_next, matched);
            }
            Inst::Split(a, b) => {
                self.add_thread(*a, pos, haystack, into_next, matched);
                self.add_thread(*b, pos, haystack, into_next, matched);
            }
            Inst::AssertStart => {
                if pos == 0 {
                    self.add_thread(pc + 1, pos, haystack, into_next, matched);
                }
            }
            Inst::AssertEnd => {
                if pos == haystack.len() {
                    self.add_thread(pc + 1, pos, haystack, into_next, matched);
                }
            }
            Inst::AssertWord(expected) => {
                let before = pos > 0 && is_word_byte(haystack[pos - 1]);
                let after = pos < haystack.len() && is_word_byte(haystack[pos]);
                if (before != after) == *expected {
                    self.add_thread(pc + 1, pos, haystack, into_next, matched);
                }
            }
            Inst::Match => {
                *matched = true;
                if into_next {
                    self.next.push(pc);
                } else {
                    self.current.push(pc);
                }
            }
            Inst::Byte(_) => {
                if into_next {
                    self.next.push(pc);
                } else {
                    self.current.push(pc);
                }
            }
        }
    }

    /// One forward pass that seeds a new thread at every position; returns
    /// true if any match exists anywhere.
    fn any_match(&mut self, haystack: &[u8]) -> bool {
        self.reset();
        for pos in 0..=haystack.len() {
            let mut matched = false;
            self.add_thread(0, pos, haystack, false, &mut matched);
            if matched {
                return true;
            }
            if pos == haystack.len() {
                break;
            }
            let byte = haystack[pos];
            let current = std::mem::take(&mut self.current);
            let insts = self.insts;
            for pc in &current {
                if let Inst::Byte(class) = &insts[*pc] {
                    if class.matches(byte) {
                        let mut m = false;
                        self.add_thread(pc + 1, pos + 1, haystack, true, &mut m);
                        if m {
                            // A match completing at pos+1 — we only need
                            // existence here.
                            return true;
                        }
                    }
                }
            }
            std::mem::swap(&mut self.current, &mut self.next);
            self.next.clear();
            std::mem::swap(&mut self.on_current, &mut self.on_next);
            self.on_next.iter_mut().for_each(|b| *b = false);
        }
        false
    }

    /// Anchored simulation starting exactly at `start`; returns the longest
    /// match end, if any.
    fn longest_end(&mut self, haystack: &[u8], start: usize) -> Option<usize> {
        self.reset();
        let mut best: Option<usize> = None;
        let mut matched = false;
        self.add_thread(0, start, haystack, false, &mut matched);
        if matched {
            best = Some(start);
        }
        for pos in start..haystack.len() {
            if self.current.is_empty() {
                break;
            }
            let byte = haystack[pos];
            let current = std::mem::take(&mut self.current);
            let insts = self.insts;
            let mut any_match = false;
            for pc in &current {
                if let Inst::Byte(class) = &insts[*pc] {
                    if class.matches(byte) {
                        self.add_thread(pc + 1, pos + 1, haystack, true, &mut any_match);
                    }
                }
            }
            if any_match {
                best = Some(pos + 1);
            }
            std::mem::swap(&mut self.current, &mut self.next);
            self.next.clear();
            std::mem::swap(&mut self.on_current, &mut self.on_next);
            self.on_next.iter_mut().for_each(|b| *b = false);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_like_seed() {
        let r = ReferenceRegex::new("a+b").expect("compile");
        let m = r.find(b"xxaaabyy").unwrap();
        assert_eq!((m.start, m.end), (2, 6));
        assert!(r.is_match(b"ab"));
        assert!(!r.is_match(b"ba"));
        assert_eq!(r.find_all(b"ab aab").len(), 2);
    }

    #[test]
    fn from_regex_preserves_case_mode() {
        let nocase = Regex::new_nocase("shell").expect("compile");
        let r = ReferenceRegex::from_regex(&nocase);
        assert!(r.is_match(b"POWERSHELL"));
    }
}
