//! Engine-equivalence proof over the YARA test corpus (ISSUE 3).
//!
//! The single-pass Pike VM replaced the seed's restart-per-offset regex
//! scan; these tests pin the two engines to byte-identical verdicts on
//! exactly the inputs the system actually scans: every regex string of
//! every rule the RuleLLM pipeline generates, run over every package
//! buffer of the evaluation corpus, plus the regex-bearing rules used
//! throughout the repo's test suites.

use eval::experiments::ExperimentContext;
use oracles::ReferenceRegex;
use textmatch::{DfaOutcome, Regex};

/// Every regex-string pattern that appears in rules across the repo's
/// test corpora (engine unit tests, scanhub suites, the paper's Table I
/// rule and the bench ruleset).
const CORPUS_PATTERNS: &[&str] = &[
    r"([A-Za-z0-9+\/]{4}){3,}(==|=)?",
    r"([A-Za-z0-9+\/]{4}){10,}={0,2}",
    r"[A-Za-z0-9+\/]{16,}",
    r"\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}",
    r"https?:\/\/[\w.\-\/]+",
    r"https?:\/\/[\w.\-\/]{6,80}",
    r"select .* from",
    r"os\.system",
    r"exec\(",
    r"\beval\b",
];

fn assert_equivalent(pike: &Regex, data: &[u8], what: &str) {
    let reference = ReferenceRegex::from_regex(pike);
    // The public entry points are tiered (lazy DFA gate in front of the
    // Pike VM on large haystacks); pin them to the pure Pike VM and the
    // reference engine at once, so all three agree byte-for-byte.
    assert_eq!(
        pike.find_all(data),
        reference.find_all(data),
        "find_all diverged for {what} pattern {:?}",
        pike.pattern()
    );
    assert_eq!(
        pike.find_all(data),
        pike.find_all_pike(data),
        "DFA-gated find_all diverged from the Pike VM for {what} pattern {:?}",
        pike.pattern()
    );
    assert_eq!(
        pike.is_match(data),
        reference.is_match(data),
        "is_match diverged for {what} pattern {:?}",
        pike.pattern()
    );
    assert_eq!(
        pike.is_match(data),
        pike.is_match_pike(data),
        "DFA-gated is_match diverged from the Pike VM for {what} pattern {:?}",
        pike.pattern()
    );
    // The raw DFA (no haystack-size gate) must agree on existence
    // whenever the pattern is DFA-eligible.
    if let Some(outcome) = pike.dfa_earliest_end(data, 0) {
        let exists = pike.is_match_pike(data);
        match outcome {
            DfaOutcome::NoMatch => assert!(
                !exists,
                "DFA said no-match but Pike matched {what} pattern {:?}",
                pike.pattern()
            ),
            DfaOutcome::MatchEnd(end) => {
                assert!(
                    exists,
                    "DFA over-matched {what} pattern {:?}",
                    pike.pattern()
                );
                assert!(end <= data.len());
            }
            DfaOutcome::GaveUp => {}
        }
    }
}

#[test]
fn pipeline_rule_regexes_match_identically_on_full_corpus() {
    let ctx = ExperimentContext::new(&corpus::CorpusConfig::tiny());
    let output = eval::experiments::run_rulellm(&ctx.dataset, rulellm::PipelineConfig::full());
    let compiled = yara_engine::compile(&output.yara_ruleset()).expect("ruleset compiles");
    let regexes: Vec<&Regex> = compiled
        .rules
        .iter()
        .flat_map(|cr| cr.regexes.iter().flatten())
        .collect();
    let mut checked = 0usize;
    for re in &regexes {
        for target in &ctx.targets {
            assert_equivalent(re, &target.request.concat_buffer(), "pipeline");
            checked += 1;
        }
    }
    // The corpus must actually exercise the engines; an empty product
    // would make this test vacuous.
    assert!(!ctx.targets.is_empty(), "corpus produced no scan targets");
    eprintln!(
        "differential-checked {} pipeline regexes over {} buffers ({checked} pairs)",
        regexes.len(),
        ctx.targets.len()
    );
}

#[test]
fn repo_test_corpus_regexes_match_identically() {
    let ctx = ExperimentContext::new(&corpus::CorpusConfig::tiny());
    for pattern in CORPUS_PATTERNS {
        let pike = Regex::new(pattern).expect("corpus pattern compiles");
        let nocase = Regex::new_nocase(pattern).expect("corpus pattern compiles nocase");
        for target in &ctx.targets {
            let buffer = target.request.concat_buffer();
            assert_equivalent(&pike, &buffer, "corpus");
            assert_equivalent(&nocase, &buffer, "corpus-nocase");
        }
        // Edge haystacks the corpus may not produce.
        for hay in [
            &b""[..],
            b"=",
            b"==",
            b"\x00\x01\xff",
            b"aW1wb3J0IG9zO2V4ZWMoKQ==",
        ] {
            assert_equivalent(&pike, hay, "edge");
        }
    }
}

#[test]
fn scanner_verdicts_unchanged_by_engine_swap() {
    // Whole-scanner sanity: scanning the corpus with regex-bearing rules
    // produces verdicts consistent with reference-engine string matching.
    let rules = r#"
rule ip { strings: $re = /\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}/ condition: $re }
rule b64 { strings: $re = /([A-Za-z0-9+\/]{4}){3,}(==|=)?/ condition: $re }
rule url { strings: $re = /https?:\/\/[\w.\-\/]{6,}/ condition: $re }
"#;
    let compiled = yara_engine::compile(rules).expect("rules compile");
    let scanner = yara_engine::Scanner::new(&compiled);
    let ctx = ExperimentContext::new(&corpus::CorpusConfig::tiny());
    for target in &ctx.targets {
        let buffer = target.request.concat_buffer();
        let hits = scanner.scan(&buffer);
        for cr in &compiled.rules {
            let re = cr.regexes[0].as_ref().expect("regex string");
            let expected = ReferenceRegex::from_regex(re).is_match(&buffer);
            let got = hits.iter().any(|h| h.rule == cr.rule.name);
            assert_eq!(
                got, expected,
                "scanner verdict for rule {} diverged from reference engine",
                cr.rule.name
            );
        }
    }
}
