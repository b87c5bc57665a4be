//! Grouped regex pass ≡ per-definition pass, on the inputs the system
//! actually scans.
//!
//! `yara_engine::Scanner` runs each distinct `(pattern, nocase)` once per
//! scan unit and shares the matches among every string definition that
//! compiled from it. `scanner.rs` keeps the per-definition loop as an
//! in-crate oracle for hand-written rulesets and a 1 MiB heavy buffer;
//! this file is the corpus half, through the public API only: every
//! regex definition of the generated ruleset and of the bundled generic
//! YARA corpus, evaluated on its own with `Regex::find_all`, must report
//! exactly the offsets the scanner filed under that definition — on
//! every file of the tiny corpus, every decoded layer of it, and every
//! aggressive mutant (seed 42).

use std::collections::{HashMap, HashSet};

use eval::experiments::ExperimentContext;
use scanhub::{ArtifactConfig, FileAnalysis};
use yara_engine::{CompiledRules, Scanner, StringValue};

/// `compiled` with every condition replaced by `any of them`, so a scan
/// reports each rule that has a hit at all together with the offsets of
/// every one of its strings: the scanner's per-definition hit table made
/// visible.
fn reporting_every_hit(compiled: &CompiledRules) -> CompiledRules {
    let any_of_them = yara_engine::compile("rule t { strings: $a = \"a\" condition: any of them }")
        .expect("helper rule")
        .rules[0]
        .rule
        .condition
        .clone();
    let mut out = compiled.clone();
    for cr in &mut out.rules {
        cr.rule.condition = any_of_them.clone();
    }
    out
}

/// Checks one scan unit; returns how many regex definitions had hits.
fn check_unit(rules: &CompiledRules, scanner: &Scanner<'_>, data: &[u8], what: &str) -> usize {
    let observed: HashMap<(String, String), Vec<usize>> = scanner
        .scan(data)
        .into_iter()
        .flat_map(|m| {
            let rule = m.rule;
            m.strings
                .into_iter()
                .map(move |s| ((rule.clone(), s.id), s.offsets))
        })
        .collect();
    let mut with_hits = 0;
    for cr in &rules.rules {
        for (def, regex) in cr.rule.strings.iter().zip(&cr.regexes) {
            let Some(regex) = regex else { continue };
            let expected: Vec<usize> = regex.find_all(data).iter().map(|m| m.start).collect();
            let got = observed
                .get(&(cr.rule.name.clone(), def.id.clone()))
                .cloned()
                .unwrap_or_default();
            assert_eq!(got, expected, "{what}: rule {} ${}", cr.rule.name, def.id);
            with_hits += usize::from(!expected.is_empty());
        }
    }
    with_hits
}

#[test]
fn grouped_pass_equals_per_definition_pass_on_the_corpus() {
    let ctx = ExperimentContext::new(&corpus::CorpusConfig::tiny());
    // Rules are generated from a 64-package population — the serving
    // scale, where the LLM repeats its base64-blob indicator in one rule
    // per cluster — and scanned over the tiny corpus.
    let training = corpus::Dataset::generate(&corpus::CorpusConfig {
        seed: 42,
        malware_unique: 64,
        malware_total: 64,
        legit_total: 0,
    });
    let generated = eval::experiments::run_rulellm(&training, rulellm::PipelineConfig::full());
    let mutants =
        corpus::mutate_dataset(&ctx.dataset, &obfuscate::EvasionProfile::aggressive(), 42);
    let mut targets = ctx.targets;
    targets.extend(eval::scan::build_targets(&mutants));

    // (ruleset, whether it must repeat a pattern across definitions)
    for (name, text, repeats) in [
        ("generated", generated.yara_ruleset(), true),
        ("generic", baselines::scanners::yara_corpus(), false),
    ] {
        let rules = reporting_every_hit(&yara_engine::compile(&text).expect("ruleset compiles"));
        let patterns: Vec<(&str, bool)> = rules
            .rules
            .iter()
            .flat_map(|cr| &cr.rule.strings)
            .filter_map(|def| match &def.value {
                StringValue::Regex { pattern, nocase } => Some((pattern.as_str(), *nocase)),
                StringValue::Text { .. } => None,
            })
            .collect();
        let definitions = patterns.len();
        let distinct = patterns.iter().collect::<HashSet<_>>().len();
        assert!(definitions > 0, "{name} ruleset has no regex string");
        assert!(!repeats || distinct < definitions, "{name}: {patterns:?}");
        let scanner = Scanner::new(&rules);
        let (mut units, mut with_hits) = (0usize, 0usize);
        for target in &targets {
            for entry in target.request.files() {
                with_hits += check_unit(&rules, &scanner, entry.bytes(), entry.name());
                units += 1;
                let artifact = FileAnalysis::build(entry, None, &ArtifactConfig::default());
                for layer in &artifact.layers {
                    with_hits += check_unit(&rules, &scanner, &layer.data, entry.name());
                    units += 1;
                }
            }
        }
        // Vacuity guard: the corpus must exercise the regexes.
        assert!(with_hits > 0, "{name}: no regex definition ever matched");
        eprintln!(
            "{name}: {definitions} regex definitions ({distinct} distinct) × {units} units, \
             {with_hits} with hits"
        );
    }
}
