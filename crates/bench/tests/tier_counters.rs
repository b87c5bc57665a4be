//! Which matching tier served the pattern-class suite, asserted on
//! `textmatch`'s process-global counters. This file holds exactly one
//! test: an integration-test file is its own process, so no other test
//! can move the counters between the two snapshots.

use rulellm_bench::regexbench;

#[test]
fn class_suite_runs_on_teddy_and_the_lazy_dfa_with_no_fallbacks() {
    let before = textmatch::engine_counters();
    let stats = regexbench::compare(64 << 10, 42);
    let after = textmatch::engine_counters();
    assert_eq!(stats.rows.len(), regexbench::REGEX_CLASSES.len() + 1);

    // The IOC literal set is scanned once, by Teddy, over every byte.
    assert_eq!(after.teddy_scans - before.teddy_scans, 1);
    assert_eq!(
        after.teddy_bytes_scanned - before.teddy_bytes_scanned,
        64 << 10
    );
    assert_eq!(after.ac_fallback_scans, before.ac_fallback_scans);
    // Every regex class goes through the lazy DFA, whose bounded state
    // cache neither overflows nor gives up to the Pike VM.
    assert!(
        after.dfa_scans - before.dfa_scans >= regexbench::REGEX_CLASSES.len() as u64,
        "lazy DFA ran {} times",
        after.dfa_scans - before.dfa_scans
    );
    assert!(after.dfa_states_built > before.dfa_states_built);
    assert_eq!(after.dfa_cache_flushes, before.dfa_cache_flushes);
    assert_eq!(after.pikevm_fallbacks, before.pikevm_fallbacks);

    // The serving base64 pattern on its own: one call, on the lazy DFA,
    // with no flush and no fallback.
    let (_, pattern, _) = regexbench::REGEX_CLASSES
        .iter()
        .find(|(class, ..)| *class == "base64-run")
        .expect("the base64-run class is in the suite");
    let re = textmatch::Regex::new(pattern).expect("the base64 pattern compiles");
    let data = regexbench::class_buffer(64 << 10, 42);
    let before = textmatch::engine_counters();
    let found = re.find_all(&data);
    let after = textmatch::engine_counters();
    assert!(!found.is_empty(), "the buffer plants base64 runs");
    assert_eq!(after.dfa_scans - before.dfa_scans, 1);
    assert!(after.dfa_states_built > before.dfa_states_built);
    assert_eq!(after.dfa_cache_flushes, before.dfa_cache_flushes);
    assert_eq!(after.pikevm_fallbacks, before.pikevm_fallbacks);
}
