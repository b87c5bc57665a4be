//! One kept `RegexCache` serves a run of haystacks exactly as fresh
//! machines do.
//!
//! Each case runs one regex over a run of haystacks, shorter and longer
//! than `DFA_MIN_HAYSTACK`, on one cache it keeps throughout, alternating
//! `Regex::is_match_in` and `Regex::find_each` so the two share whatever
//! Pike VM and lazy DFA state the run left behind. Every answer must
//! equal the Pike VM alone and the seed's restart-per-offset engine
//! (`oracles::ReferenceRegex`), and `textmatch`'s `dfa_scans` counter must
//! rise by exactly one per call the DFA gates, whatever the kept state
//! table holds. The regexes are the unit audit's three IOC patterns, the
//! Table I base64 pattern and two-piece compositions.
//!
//! The counters are process-global, so this file holds exactly one test:
//! an integration-test file is its own process.

use oracles::ReferenceRegex;
use proptest::prelude::{prop, ProptestConfig, Strategy, TestRunner};
use textmatch::{engine_counters, Regex, DFA_MIN_HAYSTACK};

/// The IOC patterns of `llm_sim::analyze_code` (`llm_sim::IOC_PATTERNS`,
/// which this crate cannot depend on) and the Table I base64 rule its
/// base64 indicator becomes.
const PAPER_PATTERNS: [&str; 4] = [
    r"https?://[\w.\-/]{6,80}",
    r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}",
    r"[A-Za-z0-9+/]{40,}={0,2}",
    r"([A-Za-z0-9+/]{4}){10,}={0,2}",
];

/// Pattern fragments composed pairwise; `\b` makes a composition
/// ineligible for the lazy DFA, so the ungated path is covered too.
const PIECES: &[&str] = &[
    r"https?://",
    r"[a-z]+",
    r"\d{1,3}\.",
    r"(ab|cd)",
    r"=+",
    r"[A-Za-z0-9+/]{4}",
    r"\w{2,5}",
    r"\.",
    r"\b",
    r"^",
    r"$",
    r"x?",
];

/// What the haystacks are made of: URL, IP and base64 pieces, benign
/// hosts, separators and near misses.
const FRAGMENTS: &[&str] = &[
    "http://",
    "https://",
    "evil.example",
    "/x",
    "github.com",
    "10.",
    "192.168.1.",
    "127.0.0.1",
    "255",
    "7",
    ".",
    "aGVsbG8gd29ybGQ",
    "QUJDREVGR0hJSktMTU5PUFFSU1RVVldYWVo",
    "=",
    "==",
    " ",
    "\n",
    "ab",
    "cd",
    "_",
    "-",
    "/",
];

fn pattern(which: usize, a: usize, b: usize) -> String {
    if which.is_multiple_of(3) {
        format!("{}{}", PIECES[a % PIECES.len()], PIECES[b % PIECES.len()])
    } else {
        PAPER_PATTERNS[which % PAPER_PATTERNS.len()].to_owned()
    }
}

#[test]
fn a_kept_cache_answers_a_run_of_haystacks_as_fresh_engines_do() {
    let haystack = prop::collection::vec(prop::sample::select(FRAGMENTS), 0..30)
        .prop_map(|parts| parts.concat());
    let case = (
        0usize..10_000,
        0usize..10_000,
        0usize..10_000,
        prop::collection::vec(haystack, 1..10),
    );
    let mut runner = TestRunner::new(ProptestConfig::with_cases(160), "kept_cache");
    let (mut gated_calls, mut ungated_calls, mut hits, mut misses) = (0, 0, 0, 0);
    for n in 0..runner.cases() {
        let (which, a, b, run) = case.generate(&mut runner.rng_for_case(n));
        let pattern = pattern(which, a, b);
        let re = Regex::new(&pattern).expect("pattern compiles");
        let reference = ReferenceRegex::from_regex(&re);
        let mut cache = re.cache();
        for (i, hay) in run.iter().enumerate() {
            let hay = hay.as_bytes();
            let what = format!("case {n}, haystack {i}: {pattern:?} on {hay:?}");
            let gated = u64::from(re.dfa_eligible() && hay.len() >= DFA_MIN_HAYSTACK);

            let before = engine_counters().dfa_scans;
            let found = re.is_match_in(&mut cache, hay);
            assert_eq!(
                engine_counters().dfa_scans - before,
                gated,
                "is_match_in, {what}"
            );
            assert_eq!(found, re.is_match_pike(hay), "{what}");
            assert_eq!(found, reference.is_match(hay), "{what}");

            let mut spans = Vec::new();
            let before = engine_counters().dfa_scans;
            re.find_each(&mut cache, hay, |m| spans.push(m));
            assert_eq!(
                engine_counters().dfa_scans - before,
                gated,
                "find_each, {what}"
            );
            assert_eq!(spans, re.find_all_pike(hay), "{what}");
            assert_eq!(spans, reference.find_all(hay), "{what}");

            (gated_calls, ungated_calls) = (gated_calls + gated, ungated_calls + 1 - gated);
            (hits, misses) = if found {
                (hits + 1, misses)
            } else {
                (hits, misses + 1)
            };
        }
    }
    // Vacuity guard: both paths ran, and both answers came up.
    assert!(
        gated_calls > 100 && ungated_calls > 100 && hits > 100 && misses > 100,
        "{gated_calls} gated, {ungated_calls} ungated, {hits} hits, {misses} misses"
    );
}
