//! Regenerates every table and figure of the paper's evaluation section.
//!
//! Usage: `repro [--scale tiny|small|paper] [--only <experiment>]`

use corpus::Dataset;
use eval::experiments::{self, ExperimentContext};
use eval::report;
use llm_sim::RuleFormat;
use rulellm::PipelineConfig;
use rulellm_bench::{scale_config, EXPERIMENTS};

fn main() {
    let mut scale = "small".to_owned();
    let mut only: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => scale = args.next().unwrap_or_else(|| usage("missing scale")),
            "--only" => only = Some(args.next().unwrap_or_else(|| usage("missing experiment"))),
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let config = scale_config(&scale).unwrap_or_else(|bad| usage(&format!("unknown scale {bad}")));
    let want = |name: &str| only.as_deref().is_none_or(|o| o == name);
    if let Some(o) = &only {
        if let Err(msg) = rulellm_bench::validate_experiment(o) {
            usage(&msg);
        }
    }

    if want("regexbench") {
        eprintln!("[repro] tiered matching: Teddy + lazy DFA vs AC + Pike VM (ISSUE 9) ...");
        let stats = rulellm_bench::regexbench::compare(1 << 20, 42);
        println!("{}", rulellm_bench::regexbench::render(&stats));
        // Nothing else has touched the engines in this process, so the
        // process-global counters are this run's.
        println!("tier counters: {:?}\n", textmatch::engine_counters());
        if only.as_deref() == Some("regexbench") {
            return;
        }
    }

    eprintln!("[repro] generating corpus at scale '{scale}' ...");
    let ctx = ExperimentContext::new(&config);

    if want("table6") {
        println!("{}", report::render_dataset_stats(&ctx.dataset.stats()));
    }

    // The full-RuleLLM run feeds Tables VIII/XI/XII and Figures 5-11.
    let needs_pipeline = [
        "table8", "table11", "table12", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    ]
    .iter()
    .any(|e| want(e));
    if needs_pipeline {
        eprintln!("[repro] running RuleLLM pipeline + baselines ...");
        let output = experiments::run_rulellm(&ctx.dataset, PipelineConfig::full());
        let (rows, matches) = experiments::table8(&ctx);
        if want("table8") {
            println!(
                "{}",
                report::render_metrics_table("Table VIII: main comparison", &rows)
            );
        }
        if want("table11") {
            println!(
                "{}",
                report::render_rule_counts(&experiments::table11(&output))
            );
        }
        if want("fig5") {
            let curve = experiments::matched_curve(&matches, &ctx.targets, RuleFormat::Yara, 4);
            println!(
                "{}",
                report::render_matched_curve("Fig 5: YARA matched-rule curve", &curve)
            );
        }
        if want("fig6") {
            let curve = experiments::matched_curve(&matches, &ctx.targets, RuleFormat::Semgrep, 12);
            println!(
                "{}",
                report::render_matched_curve("Fig 6: Semgrep matched-rule curve", &curve)
            );
        }
        let (yara, semgrep) = experiments::compile_output(&output);
        let yara_names: Vec<String> = yara.rules.iter().map(|r| r.rule.name.clone()).collect();
        let semgrep_ids: Vec<String> = semgrep.rules.iter().map(|r| r.id.clone()).collect();
        let yara_stats =
            experiments::per_rule_stats(&yara_names, &matches, &ctx.targets, RuleFormat::Yara);
        let semgrep_stats =
            experiments::per_rule_stats(&semgrep_ids, &matches, &ctx.targets, RuleFormat::Semgrep);
        if want("fig7") {
            let (bins, unmatched) = experiments::precision_histogram(&yara_stats);
            println!(
                "{}",
                report::render_precision_histogram(
                    "Fig 7: YARA per-rule precision",
                    &bins,
                    unmatched
                )
            );
        }
        if want("fig8") {
            let (bins, unmatched) = experiments::precision_histogram(&semgrep_stats);
            println!(
                "{}",
                report::render_precision_histogram(
                    "Fig 8: Semgrep per-rule precision",
                    &bins,
                    unmatched
                )
            );
        }
        if want("fig9") {
            let (counts, cdf) = experiments::coverage_cdf(&yara_stats);
            println!(
                "{}",
                report::render_coverage_cdf("Fig 9: YARA rule coverage CDF", &counts, &cdf)
            );
            println!("{}", report::render_top_rules(&yara_stats, 5));
        }
        if want("fig10") {
            let (counts, cdf) = experiments::coverage_cdf(&semgrep_stats);
            println!(
                "{}",
                report::render_coverage_cdf("Fig 10: Semgrep rule coverage CDF", &counts, &cdf)
            );
        }
        if want("table12") {
            println!(
                "{}",
                report::render_taxonomy(&experiments::table12(&output))
            );
        }
        if want("fig11") {
            println!("{}", report::render_overlap(&experiments::fig11(&output)));
        }
    }

    if want("table9") {
        eprintln!("[repro] LLM sweep (Table IX) ...");
        let rows = experiments::table9(&ctx);
        println!(
            "{}",
            report::render_metrics_table("Table IX: rules by LLM", &rows)
        );
    }

    if want("table10") {
        eprintln!("[repro] ablation (Table X) ...");
        let rows = experiments::table10(&ctx);
        println!(
            "{}",
            report::render_metrics_table("Table X: ablation", &rows)
        );
    }

    if want("rag") {
        eprintln!("[repro] RAG extension ablation (§VI) ...");
        let rows = experiments::rag_ablation(&ctx);
        println!(
            "{}",
            report::render_metrics_table("RAG extension (§VI)", &rows)
        );
    }

    if want("robustness") {
        eprintln!("[repro] robustness under adversarial mutation (ISSUE 2) ...");
        let report = eval::robustness::robustness(&ctx, 42);
        println!("{}", report::render_robustness(&report));
        eprintln!("[repro] decoded-layer recovery on string-encoded mutants (ISSUE 5) ...");
        let recovery = eval::robustness::layered_recovery(&ctx, 42);
        println!("{}", report::render_layered_recovery(&recovery));
        eprintln!("[repro] behavior-engine recall under evasion (ISSUE 8) ...");
        let taint = eval::robustness::taint_robustness(&ctx, 42);
        println!("{}", report::render_taint_robustness(&taint));
    }

    if want("variants") {
        eprintln!("[repro] variant detection (§V-B) ...");
        // The variant experiment needs several variants per family; at
        // tiny scale regenerate with more uniques.
        let dataset = if ctx.dataset.unique_malware().len() < 90 {
            Dataset::generate(&corpus::CorpusConfig {
                seed: 42,
                malware_unique: 90,
                malware_total: 100,
                legit_total: 4,
            })
        } else {
            ctx.dataset.clone()
        };
        let vr = experiments::variant_detection(&dataset, 42);
        println!("{}", report::render_variants(&vr));
    }
}

fn usage(problem: &str) -> ! {
    if !problem.is_empty() {
        eprintln!("error: {problem}");
    }
    eprintln!("usage: repro [--scale tiny|small|paper] [--only <experiment>]");
    eprintln!("experiments: {EXPERIMENTS:?}");
    std::process::exit(if problem.is_empty() { 0 } else { 2 });
}
