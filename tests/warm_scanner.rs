//! A long-lived scanner collects exactly what a fresh one does.
//!
//! `yara_engine::Scanner` keeps its string-offset scratch and, per regex
//! group, a Pike VM and a lazy DFA whose states stay determinized from one
//! scan unit to the next. One scanner here runs over every file of the
//! tiny corpus and of its aggressive mutants (seed 42) and over the edge
//! haystacks of `regex_equivalence.rs`. Every 40th unit is one on which a
//! rule's regex needs far more than `MAX_DFA_STATES` states, so the kept
//! DFA flushes and gives up to the Pike VM between ordinary units. Each
//! unit's `FileHits` must equal a fresh scanner's, and `textmatch`'s
//! `dfa_scans` counter must rise by exactly one per regex group the DFA
//! gates, whatever the kept state table holds. On every unit, the rules
//! `Scanner::eval_rules` reports under a mask must be, in order and by
//! name, those `Scanner::eval_hits` returns.
//!
//! The counters are process-global, so this file holds exactly one test:
//! an integration-test file is its own process.

use std::collections::HashSet;

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use obfuscate::EvasionProfile;
use textmatch::{engine_counters, EngineCounters, DFA_MIN_HAYSTACK, MAX_DFA_STATES};
use yara_engine::{CompiledRules, Scanner, StringValue};

/// An `a` followed by twelve `a`/`b` and a `c`. Unanchored, its DFA needs
/// one state per set of `a` positions among the last thirteen bytes —
/// 2^13 of them — and it matches only where a `c` closes one.
const THRASH_RULE: &str = "rule thrash_dfa { strings: $t = /a[ab]{12}c/ condition: $t }";

/// Haystacks the corpus may not produce (`regex_equivalence.rs`).
const EDGE: [&[u8]; 5] = [
    b"",
    b"=",
    b"==",
    b"\x00\x01\xff",
    b"aW1wb3J0IG9zO2V4ZWMoKQ==",
];

/// Regex groups — distinct `(pattern, nocase)` — the lazy DFA can serve.
fn dfa_groups(rules: &CompiledRules) -> usize {
    let mut groups = HashSet::new();
    for cr in &rules.rules {
        for (def, regex) in cr.rule.strings.iter().zip(&cr.regexes) {
            if let (StringValue::Regex { pattern, nocase }, Some(regex)) = (&def.value, regex) {
                if regex.dfa_eligible() {
                    groups.insert((pattern.as_str(), *nocase));
                }
            }
        }
    }
    groups.len()
}

/// 16 KiB of `a`/`b` from a xorshift stream; with `hit`, a `c` closes a
/// match near the end.
fn thrash_unit(seed: u64, hit: bool) -> Vec<u8> {
    let mut state = seed | 1;
    let mut unit: Vec<u8> = (0..16 << 10)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if state >> 63 == 0 {
                b'a'
            } else {
                b'b'
            }
        })
        .collect();
    if hit {
        let at = unit.len() - 100;
        unit[at] = b'a';
        unit[at + 13] = b'c';
    }
    unit
}

fn since(before: &EngineCounters) -> EngineCounters {
    let now = engine_counters();
    EngineCounters {
        dfa_scans: now.dfa_scans - before.dfa_scans,
        dfa_states_built: now.dfa_states_built - before.dfa_states_built,
        dfa_cache_flushes: now.dfa_cache_flushes - before.dfa_cache_flushes,
        pikevm_fallbacks: now.pikevm_fallbacks - before.pikevm_fallbacks,
        ..EngineCounters::default()
    }
}

#[test]
fn a_warm_scanner_collects_what_a_fresh_one_does() {
    // The serving-scale generated ruleset (`regex_grouping.rs`), whose
    // regexes are one base64 pattern, plus the thrashing rule.
    let training = Dataset::generate(&CorpusConfig {
        seed: 42,
        malware_unique: 64,
        malware_total: 64,
        legit_total: 0,
    });
    let generated = eval::experiments::run_rulellm(&training, rulellm::PipelineConfig::full());
    let text = format!("{}\n{THRASH_RULE}\n", generated.yara_ruleset());
    let rules = yara_engine::compile(&text).expect("ruleset compiles");
    let groups = dfa_groups(&rules) as u64;
    assert!(groups >= 2, "{groups} DFA-eligible regex groups");

    let base = Dataset::generate(&CorpusConfig::tiny());
    let mutants = mutate_dataset(&base, &EvasionProfile::aggressive(), 42);
    let mut files: Vec<Vec<u8>> = Vec::new();
    for dataset in [&base, &mutants] {
        let packages = dataset
            .malware
            .iter()
            .map(|m| &m.package)
            .chain(dataset.legit.iter().map(|l| &l.package));
        for package in packages {
            for file in package.files() {
                files.push(file.contents.clone().into_bytes());
            }
        }
    }
    files.extend(EDGE.iter().map(|e| e.to_vec()));
    let mut units: Vec<Vec<u8>> = Vec::new();
    for (i, file) in files.into_iter().enumerate() {
        if i % 40 == 0 {
            units.push(thrash_unit(i as u64, i % 80 == 0));
        }
        units.push(file);
    }

    let warm = Scanner::new(&rules);
    let (mut warm_work, mut fresh_states) = (EngineCounters::default(), 0);
    let (mut thrash_hits, mut slots_hit, mut rules_matched) = (0, 0, 0);
    for (i, unit) in units.iter().enumerate() {
        let before = engine_counters();
        let hits = warm.collect_hits(unit);
        let work = since(&before);
        let gated = if unit.len() >= DFA_MIN_HAYSTACK {
            groups
        } else {
            0
        };
        assert_eq!(
            work.dfa_scans, gated,
            "unit {i}: one dfa_scans per gated call"
        );
        warm_work.dfa_states_built += work.dfa_states_built;
        warm_work.dfa_cache_flushes += work.dfa_cache_flushes;
        warm_work.pikevm_fallbacks += work.pikevm_fallbacks;

        let before = engine_counters();
        let fresh = Scanner::new(&rules).collect_hits(unit);
        fresh_states += since(&before).dfa_states_built;
        assert_eq!(hits, fresh, "unit {i}: warm and fresh hits differ");
        slots_hit += usize::from(!hits.is_empty());

        let (len, scratch) = (unit.len() as i64, &mut yara_engine::ScanScratch::new());
        let include = |ri: usize| !(ri + i).is_multiple_of(3);
        let assembled = warm.eval_hits([(0, &hits)], len, include, scratch);
        let mut reported = Vec::new();
        warm.eval_rules([(0, &hits)], len, include, scratch, |ri, name| {
            assert_eq!(name, rules.rules[ri].rule.name, "unit {i}: rule {ri}");
            reported.push(name);
        });
        let names = assembled.iter().map(|m| m.rule.as_str());
        assert!(names.eq(reported), "unit {i}: eval_rules ≠ eval_hits");
        rules_matched += assembled.len();

        let thrash = rules.rules.len() - 1;
        let thrash_matched = warm
            .eval_hits(
                [(0, &hits)],
                unit.len() as i64,
                |ri| ri == thrash,
                &mut yara_engine::ScanScratch::new(),
            )
            .len();
        thrash_hits += thrash_matched;
    }
    eprintln!(
        "{} units ({slots_hit} with hits): warm scanner built {} DFA states, \
         flushed {} times, fell back {} times; fresh scanners built {fresh_states}",
        units.len(),
        warm_work.dfa_states_built,
        warm_work.dfa_cache_flushes,
        warm_work.pikevm_fallbacks
    );
    // Vacuity: the thrashing units flushed the kept DFA past its bound and
    // sent it to the Pike VM, the planted matches were found, and the
    // corpus hit strings.
    assert!(
        warm_work.dfa_cache_flushes > 0 && warm_work.pikevm_fallbacks > 0,
        "the DFA never thrashed: {warm_work:?} (bound {MAX_DFA_STATES} states)"
    );
    assert!(thrash_hits > 0, "no planted match was found");
    assert!(rules_matched > 0, "no rule matched a unit");
    assert!(
        slots_hit > units.len() / 4,
        "{slots_hit} of {} units hit",
        units.len()
    );
    // What the kept state table saves: fewer states determinized.
    assert!(
        warm_work.dfa_states_built < fresh_states,
        "warm {} vs fresh {fresh_states} states built",
        warm_work.dfa_states_built
    );
}
