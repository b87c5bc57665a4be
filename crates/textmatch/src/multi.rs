//! Tier-selecting multi-literal matcher: Teddy prefilter or Aho-Corasick.
//!
//! [`MultiLiteral`] is the entry point the scan path uses for every
//! multi-pattern literal search (the scanhub prefilter index and the YARA
//! scanner's `strings:` passes). At build time it inspects the pattern
//! set and picks a tier:
//!
//! * **Teddy** ([`crate::Teddy`]) when the set is small enough for
//!   bucketed verification to stay cheap (≤ [`MAX_TEDDY_PATTERNS`]) and
//!   every pattern is at least [`MIN_TEDDY_PATTERN_LEN`] bytes, so the
//!   2–3-byte fingerprint actually filters;
//! * **Aho-Corasick** ([`crate::AhoCorasick`]) otherwise — huge pattern
//!   sets amortize the automaton well, and 0/1-byte patterns would make
//!   the Teddy candidate mask fire on nearly every chunk.
//!
//! A set of no patterns has no tier: it reads no haystack and books no
//! counter.
//!
//! Both tiers report identical match streams (pinned by the differential
//! property suite), so callers never observe the routing decision except
//! through the engine counters.

use crate::ac::{AcMatch, AhoCorasick, MatchKind};
use crate::counters;
use crate::teddy::Teddy;

/// Largest pattern set routed to the Teddy tier; beyond this, bucket
/// verification lists grow past the point where the automaton wins.
pub const MAX_TEDDY_PATTERNS: usize = 128;

/// Shortest pattern the Teddy tier accepts; a 1-byte pattern collapses
/// the fingerprint to a single byte class with poor selectivity.
pub const MIN_TEDDY_PATTERN_LEN: usize = 2;

#[derive(Debug, Clone)]
enum Tier {
    Empty,
    // Boxed: the Teddy tables are ~1 KiB, far larger than the AC handle.
    Teddy(Box<Teddy>),
    Ac(AhoCorasick),
}

/// A multi-pattern literal matcher that picks the fastest tier for its
/// pattern set while preserving Aho-Corasick match semantics exactly.
///
/// # Examples
///
/// ```
/// use textmatch::{MatchKind, MultiLiteral};
///
/// let m = MultiLiteral::new(&["eval", "exec"], MatchKind::CaseSensitive);
/// assert!(m.uses_teddy());
/// assert!(m.is_match(b"exec(code)"));
/// ```
#[derive(Debug, Clone)]
pub struct MultiLiteral {
    tier: Tier,
    pattern_count: usize,
}

impl MultiLiteral {
    /// Builds a matcher over `patterns`, selecting a tier by set shape.
    ///
    /// Empty patterns are permitted but never match; ids follow
    /// construction order in both tiers.
    pub fn new<S: AsRef<[u8]>>(patterns: &[S], kind: MatchKind) -> Self {
        let eligible = patterns.len() <= MAX_TEDDY_PATTERNS
            && patterns
                .iter()
                .all(|p| p.as_ref().len() >= MIN_TEDDY_PATTERN_LEN);
        let tier = if patterns.is_empty() {
            Tier::Empty
        } else if eligible {
            Tier::Teddy(Box::new(Teddy::new(patterns, kind)))
        } else {
            Tier::Ac(AhoCorasick::new(patterns, kind))
        };
        MultiLiteral {
            tier,
            pattern_count: patterns.len(),
        }
    }

    /// Number of patterns (in construction order).
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// True when the Teddy prefilter tier serves this pattern set.
    pub fn uses_teddy(&self) -> bool {
        matches!(self.tier, Tier::Teddy(_))
    }

    /// Returns true when any pattern occurs in `haystack`.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        match &self.tier {
            Tier::Empty => false,
            Tier::Teddy(t) => t.is_match(haystack),
            Tier::Ac(ac) => {
                counters::record_ac_fallback_scan();
                ac.is_match(haystack)
            }
        }
    }

    /// Finds all occurrences of all patterns (overlapping included), in
    /// [`AhoCorasick::find_all`]'s order regardless of tier.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<AcMatch> {
        match &self.tier {
            Tier::Empty => Vec::new(),
            Tier::Teddy(t) => t.find_all(haystack),
            Tier::Ac(ac) => {
                counters::record_ac_fallback_scan();
                ac.find_all(haystack)
            }
        }
    }

    /// Streams every occurrence (overlapping included) to `visit`; the
    /// visitor returns `false` to stop early. Stream order is
    /// tier-dependent (AC: ascending end; Teddy: ascending start) but the
    /// match *set* is identical — aggregating callers are order-blind.
    pub fn for_each_match(&self, haystack: &[u8], visit: impl FnMut(AcMatch) -> bool) {
        match &self.tier {
            Tier::Empty => {}
            Tier::Teddy(t) => t.for_each_match(haystack, visit),
            Tier::Ac(ac) => {
                counters::record_ac_fallback_scan();
                ac.for_each_match(haystack, visit)
            }
        }
    }

    /// Returns, for each pattern, the ascending list of match offsets.
    pub fn find_per_pattern(&self, haystack: &[u8]) -> Vec<Vec<usize>> {
        match &self.tier {
            Tier::Empty => Vec::new(),
            Tier::Teddy(t) => t.find_per_pattern(haystack),
            Tier::Ac(ac) => {
                counters::record_ac_fallback_scan();
                ac.find_per_pattern(haystack)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_long_sets_use_teddy() {
        let m = MultiLiteral::new(&["os.system", "subprocess"], MatchKind::CaseSensitive);
        assert!(m.uses_teddy());
    }

    #[test]
    fn short_atoms_fall_back_to_ac() {
        let m = MultiLiteral::new(&["MZ", "a"], MatchKind::CaseSensitive);
        assert!(!m.uses_teddy());
        assert_eq!(m.find_per_pattern(b"MZa")[0], vec![0]);
    }

    #[test]
    fn oversized_sets_fall_back_to_ac() {
        let pats: Vec<String> = (0..MAX_TEDDY_PATTERNS + 1)
            .map(|i| format!("pattern{i:04}"))
            .collect();
        let m = MultiLiteral::new(&pats, MatchKind::CaseSensitive);
        assert!(!m.uses_teddy());
        assert!(m.is_match(b"xx pattern0007 yy"));
    }

    #[test]
    fn empty_pattern_set_matches_nothing() {
        let m = MultiLiteral::new(&[] as &[&str], MatchKind::CaseSensitive);
        assert!(!m.uses_teddy());
        assert!(!m.is_match(b"anything"));
        assert_eq!(m.pattern_count(), 0);
    }

    #[test]
    fn tiers_agree_via_wrapper() {
        let pats = &["he", "she", "hers"];
        let m = MultiLiteral::new(pats, MatchKind::CaseSensitive);
        let ac = AhoCorasick::new(pats, MatchKind::CaseSensitive);
        assert!(m.uses_teddy());
        assert_eq!(m.find_all(b"ushers"), ac.find_all(b"ushers"));
    }
}
