//! Teddy-style bucketed multi-literal prefilter.
//!
//! The technique behind the `aho-corasick` crate's SIMD prefilter,
//! adapted to this workspace's zero-dependency, `forbid(unsafe_code)`
//! constraints: instead of PSHUFB nibble shuffles, the classifier works
//! on `u64` "SWAR" words — eight candidate start positions per step.
//!
//! Construction hashes the first `fp_len` (1–3) folded bytes of every
//! pattern into one of [`BUCKETS`] buckets and builds, for each
//! fingerprint position, a 256-entry byte→bucket-mask table. Scanning
//! gathers the tables for eight consecutive starts into `u64` mask words,
//! ANDs them across fingerprint positions, and only when the combined
//! candidate word is non-zero verifies the surviving buckets' patterns
//! with a folded byte comparison. On filter-friendly input almost every
//! chunk resolves to zero in a handful of word ops, so the per-byte cost
//! is far below the Aho-Corasick automaton's dependent load chain.
//!
//! Match semantics are identical to [`crate::AhoCorasick`]: every
//! occurrence of every pattern (overlapping included), pattern ids in
//! construction order, empty patterns never match. `find_all` returns
//! matches in exactly AC's stream order (ascending end, then ascending
//! start, then pattern id); `for_each_match` streams in ascending *start*
//! order instead — callers that need AC's order sort, callers that only
//! aggregate (the prefilter and the YARA scanner) don't care. The
//! differential property suite pins both entry points against AC.

use crate::ac::{AcMatch, MatchKind};
use crate::counters;

/// Number of pattern buckets — one bit per bucket in a `u8` mask.
pub const BUCKETS: usize = 8;

/// Longest fingerprint prefix used for classification.
const MAX_FP_LEN: usize = 3;

/// A compiled Teddy prefilter over a fixed pattern set.
///
/// Build one with [`Teddy::new`]; construction never fails, but patterns
/// sets that cannot be filtered profitably (see
/// [`crate::MultiLiteral`]) are better served by Aho-Corasick.
#[derive(Debug, Clone)]
pub struct Teddy {
    /// Folded pattern bytes, in construction order (empty patterns kept
    /// so ids line up, but never matched).
    patterns: Vec<Box<[u8]>>,
    /// Pattern ids per bucket, in construction order.
    buckets: [Vec<u32>; BUCKETS],
    /// Per fingerprint position: raw haystack byte → bucket mask.
    masks: [[u8; 256]; MAX_FP_LEN],
    /// Fingerprint length actually used (min(3, shortest pattern)).
    fp_len: usize,
    kind: MatchKind,
}

#[inline]
fn fold(b: u8, kind: MatchKind) -> u8 {
    match kind {
        MatchKind::CaseSensitive => b,
        MatchKind::CaseInsensitive => b.to_ascii_lowercase(),
    }
}

impl Teddy {
    /// Builds a prefilter over `patterns`.
    ///
    /// Empty patterns are permitted but never match (ids still count).
    pub fn new<S: AsRef<[u8]>>(patterns: &[S], kind: MatchKind) -> Self {
        let folded: Vec<Box<[u8]>> = patterns
            .iter()
            .map(|p| p.as_ref().iter().map(|&b| fold(b, kind)).collect())
            .collect();
        let fp_len = folded
            .iter()
            .filter(|p| !p.is_empty())
            .map(|p| p.len())
            .min()
            .unwrap_or(1)
            .min(MAX_FP_LEN);
        let mut buckets: [Vec<u32>; BUCKETS] = std::array::from_fn(|_| Vec::new());
        let mut masks = [[0u8; 256]; MAX_FP_LEN];
        for (idx, pat) in folded.iter().enumerate() {
            if pat.is_empty() {
                continue;
            }
            // Hash the fingerprint's low nibbles into a bucket so patterns
            // sharing a fingerprint land together and verification stays
            // local to one bucket.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &b in &pat[..fp_len] {
                h ^= u64::from(b & 0x0f) | (u64::from(b) << 4);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            let bucket = (h % BUCKETS as u64) as usize;
            buckets[bucket].push(idx as u32);
            let bit = 1u8 << bucket;
            for (q, &b) in pat[..fp_len].iter().enumerate() {
                masks[q][b as usize] |= bit;
                if kind == MatchKind::CaseInsensitive && b.is_ascii_lowercase() {
                    masks[q][b.to_ascii_uppercase() as usize] |= bit;
                }
            }
        }
        Teddy {
            patterns: folded,
            buckets,
            masks,
            fp_len,
            kind,
        }
    }

    /// Number of patterns (in construction order).
    pub fn pattern_count(&self) -> usize {
        self.patterns.len()
    }

    /// Returns true when any pattern occurs in `haystack`.
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        let mut found = false;
        self.for_each_match(haystack, |_| {
            found = true;
            false
        });
        found
    }

    /// Finds all occurrences of all patterns (overlapping included), in
    /// exactly [`crate::AhoCorasick::find_all`]'s order.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<AcMatch> {
        let mut out = Vec::new();
        self.for_each_match(haystack, |m| {
            out.push(m);
            true
        });
        // AC streams by ascending end position; at one end position its
        // output chains yield longer matches (earlier starts) first, and
        // construction order for duplicates. The SWAR scan walks starts
        // instead, so re-establish AC's order here.
        out.sort_by_key(|m| (m.end, m.start, m.pattern));
        out
    }

    /// Streams every occurrence (overlapping included) to `visit`, in
    /// ascending start order. The visitor returns `false` to stop early.
    pub fn for_each_match(&self, haystack: &[u8], mut visit: impl FnMut(AcMatch) -> bool) {
        let n = haystack.len();
        let fp = self.fp_len;
        let mut classified = 0u64;
        let mut verified = 0u64;
        let mut stopped = false;
        if n >= fp {
            let last = n - fp; // last viable start, inclusive
            let mut i = 0usize;
            // SWAR main loop: classify 8 starts per step. Needs bytes up
            // to (i + 7) + fp - 1, so stop while that stays in bounds.
            'chunks: while i + 7 <= last {
                classified += 1;
                let mut cand = gather(&self.masks[0], haystack, i);
                for q in 1..fp {
                    cand &= gather(&self.masks[q], haystack, i + q);
                }
                if cand != 0 {
                    verified += 1;
                    let mut rest = cand;
                    while rest != 0 {
                        let j = (rest.trailing_zeros() / 8) as usize;
                        let mask = (cand >> (j * 8)) as u8;
                        if !self.verify_at(haystack, i + j, mask, &mut visit) {
                            stopped = true;
                            break 'chunks;
                        }
                        rest &= !(0xffu64 << (j * 8));
                    }
                }
                i += 8;
            }
            // Tail: per-start classification with the same tables.
            if !stopped {
                while i <= last {
                    let mut mask = self.masks[0][haystack[i] as usize];
                    for q in 1..fp {
                        mask &= self.masks[q][haystack[i + q] as usize];
                    }
                    if mask != 0 && !self.verify_at(haystack, i, mask, &mut visit) {
                        break;
                    }
                    i += 1;
                }
            }
        }
        counters::record_teddy_scan(n as u64, classified, verified);
    }

    /// Returns, for each pattern, the list of match offsets in `haystack`
    /// (ascending), mirroring [`crate::AhoCorasick::find_per_pattern`].
    pub fn find_per_pattern(&self, haystack: &[u8]) -> Vec<Vec<usize>> {
        let mut per: Vec<Vec<usize>> = vec![Vec::new(); self.patterns.len()];
        self.for_each_match(haystack, |m| {
            per[m.pattern].push(m.start);
            true
        });
        per
    }

    /// Verifies every pattern of the buckets named in `mask` against the
    /// haystack at `start`. Returns false when the visitor stopped.
    #[inline]
    fn verify_at(
        &self,
        haystack: &[u8],
        start: usize,
        mut mask: u8,
        visit: &mut impl FnMut(AcMatch) -> bool,
    ) -> bool {
        while mask != 0 {
            let bucket = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            for &idx in &self.buckets[bucket] {
                let pat = &self.patterns[idx as usize];
                let end = start + pat.len();
                if end <= haystack.len() && self.folded_eq(&haystack[start..end], pat) {
                    let keep_going = visit(AcMatch {
                        pattern: idx as usize,
                        start,
                        end,
                    });
                    if !keep_going {
                        return false;
                    }
                }
            }
        }
        true
    }

    #[inline]
    fn folded_eq(&self, hay: &[u8], folded_pat: &[u8]) -> bool {
        match self.kind {
            MatchKind::CaseSensitive => hay == folded_pat,
            MatchKind::CaseInsensitive => hay
                .iter()
                .zip(folded_pat)
                .all(|(&h, &p)| h.to_ascii_lowercase() == p),
        }
    }
}

/// Packs `table[haystack[at + j]]` for `j in 0..8` into one `u64` (byte
/// `j` in lane `j`) — the wide-word analogue of the PSHUFB classify step.
#[inline]
fn gather(table: &[u8; 256], haystack: &[u8], at: usize) -> u64 {
    let w = &haystack[at..at + 8];
    u64::from_le_bytes([
        table[w[0] as usize],
        table[w[1] as usize],
        table[w[2] as usize],
        table[w[3] as usize],
        table[w[4] as usize],
        table[w[5] as usize],
        table[w[6] as usize],
        table[w[7] as usize],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AhoCorasick;

    fn assert_equiv(patterns: &[&str], kind: MatchKind, hay: &[u8]) {
        let teddy = Teddy::new(patterns, kind);
        let ac = AhoCorasick::new(patterns, kind);
        assert_eq!(
            teddy.find_all(hay),
            ac.find_all(hay),
            "find_all diverged for {patterns:?} on {hay:?}"
        );
        assert_eq!(teddy.is_match(hay), ac.is_match(hay));
        assert_eq!(teddy.find_per_pattern(hay), ac.find_per_pattern(hay));
    }

    #[test]
    fn matches_like_ac_on_classic_set() {
        assert_equiv(
            &["he", "she", "his", "hers"],
            MatchKind::CaseSensitive,
            b"ushers and his heirs",
        );
    }

    #[test]
    fn overlapping_and_duplicate_patterns() {
        assert_equiv(&["aa", "aa", "a"], MatchKind::CaseSensitive, b"aaaa");
        assert_equiv(&["abab", "ab"], MatchKind::CaseSensitive, b"abababab");
    }

    #[test]
    fn single_byte_fingerprints() {
        assert_equiv(&["a", "b"], MatchKind::CaseSensitive, b"abcabc");
        assert_equiv(&["x"], MatchKind::CaseSensitive, b"xxxxxxxxxxxxxxxxx");
    }

    #[test]
    fn nocase_matches_both_cases() {
        assert_equiv(
            &["PowerShell", "eval"],
            MatchKind::CaseInsensitive,
            b"POWERSHELL -enc EVAL powershell",
        );
    }

    #[test]
    fn empty_pattern_never_matches_and_keeps_ids() {
        let teddy = Teddy::new(&["", "ab"], MatchKind::CaseSensitive);
        let hits = teddy.find_all(b"abab");
        assert!(hits.iter().all(|m| m.pattern == 1));
        assert_eq!(hits.len(), 2);
        assert_equiv(&["", "ab"], MatchKind::CaseSensitive, b"abab");
    }

    #[test]
    fn empty_haystack_and_short_haystacks() {
        assert_equiv(&["abc"], MatchKind::CaseSensitive, b"");
        assert_equiv(&["abc"], MatchKind::CaseSensitive, b"ab");
        assert_equiv(&["abc"], MatchKind::CaseSensitive, b"abc");
    }

    #[test]
    fn binary_patterns() {
        let pats: &[&[u8]] = &[&[0x00, 0xFF], &[0xFE, 0xFF, 0x00]];
        let teddy = Teddy::new(pats, MatchKind::CaseSensitive);
        let ac = AhoCorasick::new(pats, MatchKind::CaseSensitive);
        let hay = [0x10, 0x00, 0xFF, 0x00, 0xFE, 0xFF, 0x00, 0x20, 0x00, 0xFF];
        assert_eq!(teddy.find_all(&hay), ac.find_all(&hay));
    }

    #[test]
    fn early_stop_streams_at_most_once_more() {
        let teddy = Teddy::new(&["ab"], MatchKind::CaseSensitive);
        let mut count = 0;
        teddy.for_each_match(b"ab ab ab ab ab ab", |_| {
            count += 1;
            false
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn chunk_boundaries_are_seamless() {
        // Matches placed straddling the 8-start SWAR chunk boundaries.
        let hay: Vec<u8> = (0..64u8)
            .map(|i| if i % 7 == 6 { b'x' } else { b'.' })
            .collect();
        let mut hay = hay;
        hay.extend_from_slice(b"needle");
        hay[6] = b'n';
        hay[7] = b'e';
        assert_equiv(&["needle", "ne"], MatchKind::CaseSensitive, &hay);
    }

    #[test]
    fn counters_accumulate() {
        let before = crate::engine_counters();
        let teddy = Teddy::new(&["needle"], MatchKind::CaseSensitive);
        assert!(!teddy.is_match(&vec![b'x'; 4096]));
        let after = crate::engine_counters();
        assert!(after.teddy_bytes_scanned >= before.teddy_bytes_scanned + 4096);
        assert!(after.teddy_chunks_classified > before.teddy_chunks_classified);
    }
}
