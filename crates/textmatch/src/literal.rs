//! Compile-time literal acceleration for the Pike VM.
//!
//! [`analyze`] walks a compiled program once and extracts everything the
//! scanner needs to avoid seeding threads at hopeless offsets:
//!
//! * **start anchoring** — every path begins with `^`, so only offset 0
//!   can seed a match;
//! * **the mandatory first-byte set** — the union of byte classes
//!   epsilon-reachable from the entry point; any match must begin with
//!   one of these bytes, so the scan can skip (memchr-style) between
//!   candidate offsets;
//! * **a required literal prefix** — when compilation produced an
//!   unconditional chain of single-byte classes, every match starts with
//!   that exact literal and a substring search finds the seeds.
//!
//! All three analyses over-approximate toward "no acceleration": a
//! pattern that can match the empty string, or whose first-byte set is
//! nearly the whole byte space, scans byte-by-byte exactly like the
//! unaccelerated VM.

use crate::nfa::{ByteSet, Inst, Program};

/// How broad a first-byte set may be before skipping stops paying for
/// itself (e.g. `.` covers 255 bytes — the skip loop would accept nearly
/// every offset while costing a branch per byte).
const MAX_USEFUL_FIRST_BYTES: usize = 224;

/// How broad a first-byte set may be for the lazy DFA to skip between
/// candidates: a broader set's bytes are common enough in text that a
/// skip rarely jumps far, and each arrival in the interior start state
/// would pay a call for it.
const MAX_SKIP_FIRST_BYTES: usize = 16;

/// Longest literal prefix worth extracting; seeds are confirmed by the VM
/// anyway, so a bounded prefix keeps the substring search cache-friendly.
const MAX_PREFIX: usize = 16;

/// Scan-acceleration facts extracted from a compiled [`Program`].
///
/// Obtained via [`crate::Regex::scan_info`]; the fields drive the skip
/// loop and the anchored fast path inside the VM and are exposed
/// read-only for tests, benchmarks and reporting.
#[derive(Debug, Clone)]
pub struct ScanInfo {
    anchored_start: bool,
    nullable: bool,
    /// See [`crate::Regex::is_line_local`].
    pub(crate) line_local: bool,
    first_bytes: Option<Box<[bool; 256]>>,
    first_byte_count: usize,
    prefix: Vec<u8>,
}

impl ScanInfo {
    /// True when every path through the pattern begins with `^`: the VM
    /// seeds offset 0 only and `find_at(.., from > 0)` is `None` without
    /// touching the haystack.
    pub fn is_start_anchored(&self) -> bool {
        self.anchored_start
    }

    /// True when the pattern can match the empty string (possibly only at
    /// specific positions, e.g. `$`); literal skipping is disabled.
    pub fn matches_empty(&self) -> bool {
        self.nullable
    }

    /// The mandatory literal every match must start with (empty when the
    /// pattern has no unconditional single-byte prefix).
    pub fn literal_prefix(&self) -> &[u8] {
        &self.prefix
    }

    /// Number of distinct bytes a match may start with, when the set is
    /// small enough to drive the skip loop (`None` = acceleration off).
    pub fn first_byte_count(&self) -> Option<usize> {
        self.first_bytes.as_ref().map(|_| self.first_byte_count)
    }

    /// May a match begin at `pos`? Constant-time gate used before seeding
    /// a thread while other threads are still alive.
    pub(crate) fn can_start_at(&self, haystack: &[u8], pos: usize) -> bool {
        match &self.first_bytes {
            None => true,
            // A non-nullable pattern needs at least one byte.
            Some(table) => pos < haystack.len() && table[haystack[pos] as usize],
        }
    }

    /// Whether [`ScanInfo::next_candidate`] pays for itself in the lazy
    /// DFA: there is a literal prefix, or a first-byte set of at most
    /// `MAX_SKIP_FIRST_BYTES` bytes.
    pub(crate) fn skips(&self) -> bool {
        self.prefix.len() >= 2
            || (self.first_bytes.is_some() && self.first_byte_count <= MAX_SKIP_FIRST_BYTES)
    }

    /// The next offset at or after `pos` where a match could begin, or
    /// `None` when the rest of the haystack cannot contain one. Without
    /// acceleration this returns `pos` unchanged.
    pub(crate) fn next_candidate(&self, haystack: &[u8], pos: usize) -> Option<usize> {
        if self.prefix.len() >= 2 {
            return find_literal(haystack, pos, &self.prefix);
        }
        match &self.first_bytes {
            None => Some(pos),
            Some(table) => haystack[pos..]
                .iter()
                .position(|&b| table[b as usize])
                .map(|i| pos + i),
        }
    }
}

/// Runs all analyses over `program`.
pub(crate) fn analyze(program: &Program) -> ScanInfo {
    let anchored_start = is_start_anchored(program);
    let (table, nullable) = first_bytes(program);
    let first_byte_count = table.iter().filter(|&&b| b).count();
    let accelerate = !anchored_start && !nullable && first_byte_count <= MAX_USEFUL_FIRST_BYTES;
    // No instruction consumes `\n` or asserts, and no match is empty.
    let line_local = !nullable
        && program.insts.iter().all(|inst| match inst {
            Inst::Byte(set) => !set.matches(b'\n'),
            Inst::Split(..) | Inst::Jmp(_) | Inst::Match => true,
            Inst::AssertStart | Inst::AssertEnd | Inst::AssertWord(_) => false,
        });
    ScanInfo {
        anchored_start,
        nullable,
        line_local,
        first_bytes: accelerate.then(|| Box::new(table)),
        first_byte_count,
        prefix: if accelerate {
            literal_prefix(program)
        } else {
            Vec::new()
        },
    }
}

/// True when no byte, match or non-`^` assertion is epsilon-reachable from
/// the entry point without first passing a `^` assertion.
fn is_start_anchored(program: &Program) -> bool {
    let mut seen = vec![false; program.insts.len()];
    let mut stack = vec![0usize];
    while let Some(pc) = stack.pop() {
        if seen[pc] {
            continue;
        }
        seen[pc] = true;
        match &program.insts[pc] {
            Inst::Jmp(t) => stack.push(*t),
            Inst::Split(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            Inst::AssertStart => {} // this path demands offset 0 — good
            _ => return false,      // a path reaches work without `^`
        }
    }
    true
}

/// Unions every byte class epsilon-reachable from the entry point,
/// passing through assertions permissively (over-approximation keeps the
/// skip loop sound). The second value reports whether `Match` itself is
/// reachable without consuming a byte — a nullable pattern.
fn first_bytes(program: &Program) -> ([bool; 256], bool) {
    let mut table = [false; 256];
    let mut nullable = false;
    let mut seen = vec![false; program.insts.len()];
    let mut stack = vec![0usize];
    while let Some(pc) = stack.pop() {
        if seen[pc] {
            continue;
        }
        seen[pc] = true;
        match &program.insts[pc] {
            Inst::Jmp(t) => stack.push(*t),
            Inst::Split(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            Inst::AssertStart | Inst::AssertEnd | Inst::AssertWord(_) => stack.push(pc + 1),
            Inst::Match => nullable = true,
            Inst::Byte(class) => {
                for b in 0..=255u8 {
                    if class.matches(b) {
                        table[b as usize] = true;
                    }
                }
            }
        }
    }
    (table, nullable)
}

/// Follows the unconditional head of the program: while execution cannot
/// branch and the next instruction consumes exactly one possible byte,
/// that byte is a mandatory part of every match's prefix.
fn literal_prefix(program: &Program) -> Vec<u8> {
    let mut out = Vec::new();
    let mut pc = 0;
    let mut steps = 0;
    while steps <= program.insts.len() && out.len() < MAX_PREFIX {
        steps += 1;
        match &program.insts[pc] {
            Inst::Jmp(t) => pc = *t,
            Inst::Byte(class) => match single_byte(class) {
                Some(b) => {
                    out.push(b);
                    pc += 1;
                }
                None => break,
            },
            _ => break,
        }
    }
    out
}

/// The one byte a class matches, if it matches exactly one.
fn single_byte(class: &ByteSet) -> Option<u8> {
    let mut found = None;
    for b in 0..=255u8 {
        if class.matches(b) {
            if found.is_some() {
                return None;
            }
            found = Some(b);
        }
    }
    found
}

/// Substring search with a first-byte skip loop: the position of the next
/// occurrence of `needle` at or after `from`.
fn find_literal(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    let first = needle[0];
    let mut pos = from;
    while pos + needle.len() <= haystack.len() {
        match haystack[pos..].iter().position(|&b| b == first) {
            Some(i) => {
                let at = pos + i;
                if at + needle.len() > haystack.len() {
                    return None;
                }
                if &haystack[at..at + needle.len()] == needle {
                    return Some(at);
                }
                pos = at + 1;
            }
            None => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use crate::Regex;

    fn info(pattern: &str) -> crate::ScanInfo {
        Regex::new(pattern).expect("compile").scan_info().clone()
    }

    #[test]
    fn plain_literal_is_not_anchored() {
        let i = info("abc");
        assert!(!i.is_start_anchored());
        assert!(!i.matches_empty());
    }

    #[test]
    fn caret_anchors() {
        assert!(info("^abc").is_start_anchored());
        assert!(info("^a|^b").is_start_anchored());
        assert!(info("(^a)").is_start_anchored());
    }

    #[test]
    fn partial_anchor_does_not_count() {
        assert!(!info("a|^b").is_start_anchored());
        assert!(!info("^a|b").is_start_anchored());
    }

    #[test]
    fn nullable_patterns_detected() {
        assert!(info("x*").matches_empty());
        assert!(info("a?").matches_empty());
        assert!(info("$").matches_empty());
        assert!(!info("x+").matches_empty());
    }

    #[test]
    fn literal_prefix_extracted() {
        assert_eq!(info(r"os\.system\(").literal_prefix(), b"os.system(");
        assert_eq!(info(r"https?").literal_prefix(), b"http");
        assert_eq!(info("abc|abd").literal_prefix(), b"");
        assert_eq!(info("a{3}b").literal_prefix(), b"aaab");
    }

    #[test]
    fn nocase_letter_has_no_single_byte_prefix() {
        let re = Regex::new_nocase("get").expect("compile");
        let i = re.scan_info();
        assert_eq!(i.literal_prefix(), b"");
        assert_eq!(i.first_byte_count(), Some(2)); // 'g' and 'G'
    }

    #[test]
    fn first_byte_counts() {
        assert_eq!(info("[ab]x").first_byte_count(), Some(2));
        assert_eq!(info(r"\dx").first_byte_count(), Some(10));
        // `.` admits 255 bytes — too broad to accelerate.
        assert_eq!(info(".x").first_byte_count(), None);
        // Nullable: acceleration off entirely.
        assert_eq!(info("a*").first_byte_count(), None);
    }

    #[test]
    fn assertion_guarded_bytes_still_counted() {
        // Permissive traversal: `\bfoo` must report 'f' even though a
        // word-boundary check guards it.
        assert_eq!(info(r"\bfoo").first_byte_count(), Some(1));
        assert_eq!(info(r"\bfoo").literal_prefix(), b"");
    }

    #[test]
    fn find_literal_positions() {
        use super::find_literal;
        assert_eq!(find_literal(b"xxabyab", 0, b"ab"), Some(2));
        assert_eq!(find_literal(b"xxabyab", 3, b"ab"), Some(5));
        assert_eq!(find_literal(b"xxabyab", 6, b"ab"), None);
        assert_eq!(find_literal(b"", 0, b"ab"), None);
    }
}
