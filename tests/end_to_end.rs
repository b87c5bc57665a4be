//! Integration tests spanning the whole stack: corpus generation →
//! RuleLLM pipeline → rule compilation → package-level detection.

use corpus::{CorpusConfig, Dataset};
use eval::experiments::{self, compile_output, confusion_at, run_rulellm, ExperimentContext};
use eval::scan::scan_all;
use rulellm::PipelineConfig;

#[test]
fn full_stack_detection_beats_baselines() {
    let ctx = ExperimentContext::new(&CorpusConfig::tiny());
    let (rows, _) = experiments::table8(&ctx);
    let rulellm = rows.iter().find(|r| r.name == "RuleLLM").expect("row");
    for other in rows.iter().filter(|r| r.name != "RuleLLM") {
        assert!(
            rulellm.confusion.f1() > other.confusion.f1(),
            "RuleLLM F1 {:.3} must beat {} F1 {:.3}",
            rulellm.confusion.f1(),
            other.name,
            other.confusion.f1()
        );
    }
    assert!(rulellm.confusion.recall() >= 0.8, "recall too low");
    assert!(rulellm.confusion.precision() >= 0.8, "precision too low");
}

#[test]
fn every_generated_rule_deploys_without_errors() {
    // The paper's headline operational claim: generated rules are fully
    // compatible and deploy without errors (§I).
    let dataset = Dataset::generate(&CorpusConfig::tiny());
    let output = run_rulellm(&dataset, PipelineConfig::full());
    assert!(output.yara.len() + output.semgrep.len() > 5);
    // Whole YARA set compiles as one file.
    yara_engine::compile(&output.yara_ruleset()).expect("yara set deploys");
    for r in &output.semgrep {
        semgrep_engine::compile(&r.text).expect("semgrep rule deploys");
    }
}

#[test]
fn pipeline_is_deterministic_end_to_end() {
    let dataset = Dataset::generate(&CorpusConfig::tiny());
    let a = run_rulellm(&dataset, PipelineConfig::full());
    // Two more runs at once: the analyzers' regexes are compiled once per
    // process and shared by every thread that audits code.
    let start = std::sync::Barrier::new(2);
    let run = || {
        start.wait();
        run_rulellm(&dataset, PipelineConfig::full())
    };
    let (b, c) = std::thread::scope(|s| {
        let other = s.spawn(run);
        (run(), other.join().expect("pipeline thread"))
    });
    for other in [&b, &c] {
        assert_eq!(a.yara.len(), other.yara.len());
        assert_eq!(a.semgrep.len(), other.semgrep.len());
        for (x, y) in a.yara.iter().zip(&other.yara) {
            assert_eq!(x.text, y.text);
        }
        for (x, y) in a.semgrep.iter().zip(&other.semgrep) {
            assert_eq!(x.text, y.text);
        }
        assert_eq!(a.stats, other.stats);
    }
}

#[test]
fn ablation_recall_improves_with_components() {
    let ctx = ExperimentContext::new(&CorpusConfig::tiny());
    let rows = experiments::table10(&ctx);
    let alone = &rows[0];
    let full = &rows[3];
    assert!(
        full.confusion.recall() > alone.confusion.recall(),
        "Table X direction: full {:.3} vs alone {:.3}",
        full.confusion.recall(),
        alone.confusion.recall()
    );
    assert!(full.confusion.f1() > alone.confusion.f1());
}

#[test]
fn llm_sweep_keeps_gpt4o_on_top() {
    let ctx = ExperimentContext::new(&CorpusConfig::tiny());
    let rows = experiments::table9(&ctx);
    assert_eq!(rows.len(), 4);
    let f1 = |name: &str| {
        rows.iter()
            .find(|r| r.name.contains(name))
            .unwrap_or_else(|| panic!("row {name}"))
            .confusion
            .f1()
    };
    // Table IX ordering: GPT-4o beats the weakest model. (The full
    // four-way ordering needs the larger corpus the bench harness uses;
    // at tiny scale only the biggest gap is reliable.)
    assert!(f1("GPT-4o") >= f1("GPT-3.5") - 1e-9);
    for row in &rows {
        assert!(row.confusion.f1() > 0.5, "{} collapsed", row.name);
    }
}

#[test]
fn matched_rule_threshold_trades_recall_for_precision() {
    let ctx = ExperimentContext::new(&CorpusConfig::tiny());
    let output = run_rulellm(&ctx.dataset, PipelineConfig::full());
    let (yara, semgrep) = compile_output(&output);
    let matches = scan_all(Some(&yara), Some(&semgrep), &ctx.targets);
    let c1 = confusion_at(&matches, &ctx.targets, 1);
    let c3 = confusion_at(&matches, &ctx.targets, 3);
    assert!(c3.recall() <= c1.recall() + 1e-9);
    assert!(c3.precision() >= c1.precision() - 1e-9);
}

#[test]
fn taxonomy_covers_generated_rules_non_exclusively() {
    let dataset = Dataset::generate(&CorpusConfig::tiny());
    let output = run_rulellm(&dataset, PipelineConfig::full());
    let rows = experiments::table12(&output);
    let labeled: usize = rows.iter().map(|(_, c)| c).sum();
    // Non-exclusive categories: total labels >= total rules (the paper's
    // 1,217 labels over 452 rules).
    assert!(labeled >= output.yara.len() + output.semgrep.len());
    // The overlap matrix diagonal sums to at least the label count per
    // category.
    let m = experiments::fig11(&output);
    let diag: usize = (0..m.len()).map(|i| m[i][i]).sum();
    assert!(diag >= labeled / 2);
}

#[test]
fn generated_rules_generalize_to_duplicates_by_construction() {
    // Duplicates share signatures with uniques, so scanning the full
    // (non-deduplicated) malware list must flag at least as large a
    // fraction as the unique list.
    let dataset = Dataset::generate(&CorpusConfig::tiny());
    let output = run_rulellm(&dataset, PipelineConfig::full());
    let (yara, _) = compile_output(&output);
    let scanner = yara_engine::Scanner::new(&yara);
    let mut unique_hits = 0usize;
    let unique = dataset.unique_malware();
    for m in &unique {
        let t = eval::scan::target_from_package(&m.package, 0, true, None);
        if scanner.is_match(&t.request.concat_buffer()) {
            unique_hits += 1;
        }
    }
    let mut all_hits = 0usize;
    for m in &dataset.malware {
        let t = eval::scan::target_from_package(&m.package, 0, true, None);
        if scanner.is_match(&t.request.concat_buffer()) {
            all_hits += 1;
        }
    }
    let unique_rate = unique_hits as f64 / unique.len() as f64;
    let all_rate = all_hits as f64 / dataset.malware.len() as f64;
    assert!(
        all_rate >= unique_rate - 0.05,
        "{all_rate} vs {unique_rate}"
    );
}
