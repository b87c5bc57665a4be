//! One kept `RegexCache` finds the spans the seed's restart-per-offset
//! engine finds, on patterns where leftmost-longest priority decides the
//! span.
//!
//! Each pattern runs `Regex::find_each` over a run of random haystacks,
//! shorter and longer than `DFA_MIN_HAYSTACK`, on one cache it keeps
//! throughout, so the lazy DFA's kept table and start states gate every
//! later haystack. The spans must equal `oracles::ReferenceRegex`'s. The
//! patterns are alternations whose shorter branch comes first, counted
//! repeats, `={0,2}` tails and the serving base64 pattern.

use oracles::ReferenceRegex;
use proptest::prelude::{prop, ProptestConfig, Strategy, TestRunner};
use textmatch::{Regex, DFA_MIN_HAYSTACK};

const PATTERNS: &[&str] = &[
    "a|ab",
    "(a|ab)(c|bcd)",
    "[ab]{3,5}",
    "(ab){2,3}c?",
    "[a-d]+={0,2}",
    "b={0,2}",
    r"([A-Za-z0-9+/]{4}){10,}={0,2}",
];

/// What the haystacks are made of: the patterns' bytes, base64 runs,
/// padding and separators.
const FRAGMENTS: &[&str] = &[
    "a",
    "b",
    "c",
    "d",
    "ab",
    "bcd",
    "abab",
    "=",
    "==",
    "===",
    "aGVsbG8gd29ybGQ",
    "QUJDREVGR0hJSktMTU5PUFFSU1RVVldYWVo",
    "+/",
    " ",
    "\n",
    "_",
];

#[test]
fn a_kept_cache_finds_the_reference_spans_on_priority_sensitive_patterns() {
    let haystack = prop::collection::vec(prop::sample::select(FRAGMENTS), 0..60)
        .prop_map(|parts| parts.concat());
    let run = prop::collection::vec(haystack, 200..240);
    let mut runner = TestRunner::new(ProptestConfig::with_cases(1), "priority_spans");
    let mut gated = 0;
    let mut spans_found = 0;
    for (i, pattern) in PATTERNS.iter().enumerate() {
        let run = run.generate(&mut runner.rng_for_case(i as u32));
        let re = Regex::new(pattern).expect("pattern compiles");
        assert!(re.dfa_eligible(), "{pattern:?} runs on the lazy DFA");
        let reference = ReferenceRegex::from_regex(&re);
        let mut cache = re.cache();
        for (n, hay) in run.iter().enumerate() {
            let hay = hay.as_bytes();
            let mut spans = Vec::new();
            re.find_each(&mut cache, hay, |m| spans.push(m));
            assert_eq!(
                spans,
                reference.find_all(hay),
                "{pattern:?}, haystack {n}: {:?}",
                String::from_utf8_lossy(hay)
            );
            gated += usize::from(hay.len() >= DFA_MIN_HAYSTACK);
            spans_found += spans.len();
        }
    }
    // Vacuity guard: most haystacks went through the DFA gate, and the
    // patterns found spans.
    assert!(
        gated > 100 * PATTERNS.len() && spans_found > 1000,
        "{gated} gated haystacks, {spans_found} spans"
    );
}
