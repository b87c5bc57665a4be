//! Byte-range character classes.
//!
//! Classes operate on raw bytes (Latin-1 view of the haystack): YARA scans
//! arbitrary file contents, so the engine must not assume UTF-8.

/// A set of bytes expressed as sorted, disjoint inclusive ranges.
///
/// Supports negation and the usual Perl-style shorthands (`\d`, `\w`,
/// `\s`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharClass {
    ranges: Vec<(u8, u8)>,
    negated: bool,
}

impl CharClass {
    /// Creates an empty (matches nothing) class.
    pub fn new() -> Self {
        CharClass {
            ranges: Vec::new(),
            negated: false,
        }
    }

    /// Creates a class that matches exactly one byte.
    pub fn single(byte: u8) -> Self {
        let mut c = CharClass::new();
        c.push_range(byte, byte);
        c
    }

    /// Creates the `.` class: every byte except `\n`.
    pub fn dot() -> Self {
        let mut c = CharClass::new();
        c.push_range(0, b'\n' - 1);
        c.push_range(b'\n' + 1, 0xFF);
        c
    }

    /// Creates the `\d` class.
    pub fn digit() -> Self {
        let mut c = CharClass::new();
        c.push_range(b'0', b'9');
        c
    }

    /// Creates the `\w` class (`[A-Za-z0-9_]`).
    pub fn word() -> Self {
        let mut c = CharClass::new();
        c.push_range(b'0', b'9');
        c.push_range(b'A', b'Z');
        c.push_range(b'_', b'_');
        c.push_range(b'a', b'z');
        c
    }

    /// Creates the `\s` class (space, tab, CR, LF, FF, VT).
    pub fn space() -> Self {
        let mut c = CharClass::new();
        c.push_range(b'\t', b'\r');
        c.push_range(b' ', b' ');
        c
    }

    /// Adds an inclusive byte range to the class.
    pub fn push_range(&mut self, lo: u8, hi: u8) {
        debug_assert!(lo <= hi, "class range must be ordered");
        self.ranges.push((lo, hi));
        self.normalize();
    }

    /// Merges all ranges of `other` into `self` (set union).
    pub fn union(&mut self, other: &CharClass) {
        debug_assert!(!other.negated, "union expects a positive class");
        self.ranges.extend_from_slice(&other.ranges);
        self.normalize();
    }

    /// Marks the class as negated (matches the complement).
    pub fn negate(&mut self) {
        self.negated = !self.negated;
    }

    /// Returns true when no positive ranges were added.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Tests whether `byte` belongs to the class.
    pub fn matches(&self, byte: u8) -> bool {
        let inside = self.ranges.iter().any(|&(lo, hi)| lo <= byte && byte <= hi);
        inside != self.negated
    }

    /// Expands the class so that for every cased letter it contains, the
    /// opposite case is also included. Used by the `nocase`/`i` modifiers.
    pub fn make_case_insensitive(&mut self) {
        let mut extra = Vec::new();
        for &(lo, hi) in &self.ranges {
            // Overlap with uppercase letters -> add lowercase counterpart.
            let ulo = lo.max(b'A');
            let uhi = hi.min(b'Z');
            if ulo <= uhi {
                extra.push((ulo + 32, uhi + 32));
            }
            let llo = lo.max(b'a');
            let lhi = hi.min(b'z');
            if llo <= lhi {
                extra.push((llo - 32, lhi - 32));
            }
        }
        self.ranges.extend(extra);
        self.normalize();
    }

    fn normalize(&mut self) {
        self.ranges.sort_unstable();
        let mut merged: Vec<(u8, u8)> = Vec::with_capacity(self.ranges.len());
        for &(lo, hi) in &self.ranges {
            match merged.last_mut() {
                Some(last) if lo <= last.1.saturating_add(1) => {
                    last.1 = last.1.max(hi);
                }
                _ => merged.push((lo, hi)),
            }
        }
        self.ranges = merged;
    }
}

impl Default for CharClass {
    fn default() -> Self {
        CharClass::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_matches_only_that_byte() {
        let c = CharClass::single(b'x');
        assert!(c.matches(b'x'));
        assert!(!c.matches(b'y'));
    }

    #[test]
    fn dot_excludes_newline() {
        let c = CharClass::dot();
        assert!(c.matches(b'a'));
        assert!(c.matches(0xFF));
        assert!(!c.matches(b'\n'));
    }

    #[test]
    fn digit_class() {
        let c = CharClass::digit();
        for b in b'0'..=b'9' {
            assert!(c.matches(b));
        }
        assert!(!c.matches(b'a'));
    }

    #[test]
    fn word_class_includes_underscore() {
        let c = CharClass::word();
        assert!(c.matches(b'_'));
        assert!(c.matches(b'Z'));
        assert!(!c.matches(b'-'));
    }

    #[test]
    fn space_class() {
        let c = CharClass::space();
        assert!(c.matches(b' '));
        assert!(c.matches(b'\t'));
        assert!(c.matches(b'\n'));
        assert!(!c.matches(b'x'));
    }

    #[test]
    fn negation_flips_membership() {
        let mut c = CharClass::digit();
        c.negate();
        assert!(!c.matches(b'5'));
        assert!(c.matches(b'a'));
    }

    #[test]
    fn ranges_merge_when_adjacent() {
        let mut c = CharClass::new();
        c.push_range(b'a', b'm');
        c.push_range(b'n', b'z');
        assert!(c.matches(b'n'));
        assert!(c.matches(b'z'));
        // Internal representation merged to one range.
        assert_eq!(c.ranges.len(), 1);
    }

    #[test]
    fn case_insensitive_expansion() {
        let mut c = CharClass::new();
        c.push_range(b'a', b'f');
        c.make_case_insensitive();
        assert!(c.matches(b'A'));
        assert!(c.matches(b'F'));
        assert!(!c.matches(b'G'));
    }

    #[test]
    fn union_combines_classes() {
        let mut c = CharClass::digit();
        c.union(&CharClass::space());
        assert!(c.matches(b'7'));
        assert!(c.matches(b' '));
        assert!(!c.matches(b'q'));
    }
}
