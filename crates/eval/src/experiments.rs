//! The paper's evaluation suite: one function per table / figure.

use std::collections::HashMap;

use corpus::Dataset;
use llm_sim::{ModelProfile, RuleFormat};
use rulellm::{Pipeline, PipelineConfig, PipelineOutput};
use semgrep_engine::CompiledSemgrepRules;
use yara_engine::CompiledRules;

use crate::metrics::{Confusion, MetricsRow};
use crate::scan::{build_targets, scan_all, ScanTarget, TargetMatches};

/// Shared experiment state: the corpus and its prepared scan targets.
#[derive(Debug)]
pub struct ExperimentContext {
    /// The generated dataset.
    pub dataset: Dataset,
    /// Unique malware + legit, prepared for scanning.
    pub targets: Vec<ScanTarget>,
}

impl ExperimentContext {
    /// Generates the corpus and prepares targets.
    pub fn new(config: &corpus::CorpusConfig) -> Self {
        let dataset = Dataset::generate(config);
        let targets = build_targets(&dataset);
        ExperimentContext { dataset, targets }
    }
}

/// Runs the RuleLLM pipeline over the deduplicated malware corpus.
pub fn run_rulellm(dataset: &Dataset, config: PipelineConfig) -> PipelineOutput {
    let unique: Vec<&oss_registry::Package> = dataset
        .unique_malware()
        .into_iter()
        .map(|m| &m.package)
        .collect();
    Pipeline::new(config).run(&unique)
}

/// Compiles a pipeline output into scanner-ready rulesets. Rules that
/// fail to compile here would be a pipeline bug — alignment guarantees
/// compilability — so this panics on failure.
pub fn compile_output(output: &PipelineOutput) -> (CompiledRules, CompiledSemgrepRules) {
    let yara = yara_engine::compile(&output.yara_ruleset())
        .unwrap_or_else(|e| panic!("aligned YARA ruleset must compile: {e}"));
    let mut semgrep_rules = Vec::new();
    for r in &output.semgrep {
        let compiled = semgrep_engine::compile(&r.text)
            .unwrap_or_else(|e| panic!("aligned Semgrep rule must compile: {e}\n{}", r.text));
        semgrep_rules.extend(compiled.rules);
    }
    (
        yara,
        CompiledSemgrepRules {
            rules: semgrep_rules,
        },
    )
}

/// Compiles a list of Semgrep YAML documents into one ruleset, skipping
/// duplicates by id.
pub fn compile_semgrep_set(texts: &[&str]) -> CompiledSemgrepRules {
    let mut rules = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for text in texts {
        let compiled = semgrep_engine::compile(text)
            .unwrap_or_else(|e| panic!("corpus rule must compile: {e}\n{text}"));
        for r in compiled.rules {
            if seen.insert(r.id.clone()) {
                rules.push(r);
            }
        }
    }
    CompiledSemgrepRules { rules }
}

/// Package-level confusion: predicted malicious iff at least `threshold`
/// rules matched.
pub fn confusion_at(
    matches: &[TargetMatches],
    targets: &[ScanTarget],
    threshold: usize,
) -> Confusion {
    let mut c = Confusion::default();
    for (m, t) in matches.iter().zip(targets) {
        c.observe(t.is_malicious, m.total() >= threshold);
    }
    c
}

/// A table row named `name`: the confusion, at one matched rule, of
/// scanning the context's targets with these rules. Also returns the
/// scan.
fn scan_row(
    ctx: &ExperimentContext,
    name: &str,
    yara: Option<&CompiledRules>,
    semgrep: Option<&CompiledSemgrepRules>,
) -> (MetricsRow, Vec<TargetMatches>) {
    let matches = scan_all(yara, semgrep, &ctx.targets);
    let confusion = confusion_at(&matches, &ctx.targets, 1);
    let row = MetricsRow {
        name: name.into(),
        confusion,
    };
    (row, matches)
}

/// [`scan_row`] for the rules the RuleLLM pipeline generates with
/// `config`.
fn rulellm_row(
    ctx: &ExperimentContext,
    name: &str,
    config: PipelineConfig,
) -> (MetricsRow, Vec<TargetMatches>) {
    let (yara, semgrep) = compile_output(&run_rulellm(&ctx.dataset, config));
    scan_row(ctx, name, Some(&yara), Some(&semgrep))
}

// ---------------------------------------------------------------- Table VIII

/// Table VIII: RuleLLM vs the scanner corpora vs the score-based
/// generator. Returns `(rows, rulellm_matches)` so downstream figures can
/// reuse the expensive scan.
pub fn table8(ctx: &ExperimentContext) -> (Vec<MetricsRow>, Vec<TargetMatches>) {
    // RuleLLM, full configuration.
    let (rulellm, rulellm_matches) = rulellm_row(ctx, "RuleLLM", PipelineConfig::full());
    let mut rows = vec![rulellm];

    // Yara scanner corpus.
    let yara_corpus =
        yara_engine::compile(&baselines::scanners::yara_corpus()).expect("scanner corpus compiles");
    rows.push(scan_row(ctx, "Yara scanner", Some(&yara_corpus), None).0);

    // Semgrep scanner corpus.
    let semgrep_corpus = compile_semgrep_set(&baselines::scanners::semgrep_corpus());
    rows.push(scan_row(ctx, "Semgrep scanner", None, Some(&semgrep_corpus)).0);

    // Score-based generator.
    let unique: Vec<&oss_registry::Package> = ctx
        .dataset
        .unique_malware()
        .into_iter()
        .map(|m| &m.package)
        .collect();
    let legit: Vec<&oss_registry::Package> = ctx.dataset.legit.iter().map(|l| &l.package).collect();
    let scored_rules = baselines::scored::generate_rules(&unique, &legit, 42);
    let scored_text = scored_rules.join("\n");
    let scored = yara_engine::compile(&scored_text).expect("score-based rules compile");
    rows.push(scan_row(ctx, "Score-based", Some(&scored), None).0);

    (rows, rulellm_matches)
}

// ------------------------------------------------------------------ Table IX

/// Table IX: the pipeline under each LLM profile.
pub fn table9(ctx: &ExperimentContext) -> Vec<MetricsRow> {
    let row = |profile: ModelProfile| {
        let name = profile.name;
        rulellm_row(ctx, name, PipelineConfig::full().with_model(profile)).0
    };
    ModelProfile::all().into_iter().map(row).collect()
}

// ------------------------------------------------------------------- Table X

/// Table X ablation arms in paper order.
pub fn ablation_configs() -> Vec<(&'static str, PipelineConfig)> {
    vec![
        ("LLMs alone", PipelineConfig::llm_alone()),
        ("LLM + Rule Alignment", PipelineConfig::llm_align()),
        (
            "LLM + Basic-unit + Alignment",
            PipelineConfig::llm_units_align(),
        ),
        ("RuleLLM (full)", PipelineConfig::full()),
    ]
}

/// Table X: component ablation. Rows report precision/recall like the
/// paper.
pub fn table10(ctx: &ExperimentContext) -> Vec<MetricsRow> {
    let row = |(name, config)| rulellm_row(ctx, name, config).0;
    ablation_configs().into_iter().map(row).collect()
}

// ------------------------------------------------------------------ Table XI

/// One Table XI row: rule counts per format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleCountRow {
    /// Format label.
    pub format: &'static str,
    /// SOTA corpus size (ours / paper's claimed).
    pub sota_total: (usize, usize),
    /// SOTA OSS-specific subset size (ours / paper's claimed).
    pub sota_oss: (usize, usize),
    /// RuleLLM-generated count.
    pub rulellm: usize,
}

/// Table XI: rule counts for RuleLLM vs the scanner corpora.
pub fn table11(output: &PipelineOutput) -> Vec<RuleCountRow> {
    use baselines::scanners as sc;
    vec![
        RuleCountRow {
            format: "Yara Rule Format",
            sota_total: (
                sc::yara_generic().len() + sc::yara_overbroad().len() + sc::yara_oss().len(),
                sc::PAPER_YARA_TOTAL,
            ),
            sota_oss: (sc::yara_oss().len(), sc::PAPER_YARA_OSS),
            rulellm: output.yara.len(),
        },
        RuleCountRow {
            format: "Semgrep Rule Format",
            sota_total: (sc::semgrep_corpus().len(), sc::PAPER_SEMGREP_TOTAL),
            sota_oss: (sc::semgrep_oss().len(), sc::PAPER_SEMGREP_OSS),
            rulellm: output.semgrep.len(),
        },
    ]
}

// --------------------------------------------------------------- Fig. 5 / 6

/// Figures 5/6: metrics as a function of the matched-rule threshold
/// (predict malicious iff ≥ k rules of the format matched).
pub fn matched_curve(
    matches: &[TargetMatches],
    targets: &[ScanTarget],
    format: RuleFormat,
    max_k: usize,
) -> Vec<(usize, Confusion)> {
    (1..=max_k)
        .map(|k| {
            let mut c = Confusion::default();
            for (m, t) in matches.iter().zip(targets) {
                let n = match format {
                    RuleFormat::Yara => m.yara.len(),
                    RuleFormat::Semgrep => m.semgrep.len(),
                };
                c.observe(t.is_malicious, n >= k);
            }
            (k, c)
        })
        .collect()
}

// --------------------------------------------------------------- Fig. 7–10

/// Per-rule outcome statistics over a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerRuleStats {
    /// Rule name / id.
    pub rule: String,
    /// Malicious packages the rule matched.
    pub malware_hits: usize,
    /// Legitimate packages the rule matched.
    pub legit_hits: usize,
}

impl PerRuleStats {
    /// Per-rule precision; `None` when the rule matched nothing.
    pub fn precision(&self) -> Option<f64> {
        let total = self.malware_hits + self.legit_hits;
        if total == 0 {
            None
        } else {
            Some(self.malware_hits as f64 / total as f64)
        }
    }
}

/// Collects per-rule hit counts (Figures 7–10 input). `format` selects
/// which match list to read.
pub fn per_rule_stats(
    all_rules: &[String],
    matches: &[TargetMatches],
    targets: &[ScanTarget],
    format: RuleFormat,
) -> Vec<PerRuleStats> {
    let mut index: HashMap<&str, usize> = HashMap::new();
    let mut stats: Vec<PerRuleStats> = all_rules
        .iter()
        .enumerate()
        .map(|(i, r)| {
            index.insert(r.as_str(), i);
            PerRuleStats {
                rule: r.clone(),
                malware_hits: 0,
                legit_hits: 0,
            }
        })
        .collect();
    for (m, t) in matches.iter().zip(targets) {
        let fired = match format {
            RuleFormat::Yara => &m.yara,
            RuleFormat::Semgrep => &m.semgrep,
        };
        for rule in fired {
            if let Some(&i) = index.get(&**rule) {
                if t.is_malicious {
                    stats[i].malware_hits += 1;
                } else {
                    stats[i].legit_hits += 1;
                }
            }
        }
    }
    stats
}

/// Figures 7/8: histogram of per-rule precision in 10 bins plus the
/// count of rules that matched nothing.
pub fn precision_histogram(stats: &[PerRuleStats]) -> (Vec<usize>, usize) {
    let mut bins = vec![0usize; 10];
    let mut unmatched = 0usize;
    for s in stats {
        match s.precision() {
            None => unmatched += 1,
            Some(p) => {
                let bin = ((p * 10.0) as usize).min(9);
                bins[bin] += 1;
            }
        }
    }
    (bins, unmatched)
}

/// Figures 9/10: CDF of detected-malware count per rule. Returns
/// `(sorted_counts, cdf)` where `cdf[i]` is the fraction of rules with
/// count ≤ `sorted_counts[i]`.
pub fn coverage_cdf(stats: &[PerRuleStats]) -> (Vec<usize>, Vec<f64>) {
    let mut counts: Vec<usize> = stats.iter().map(|s| s.malware_hits).collect();
    counts.sort_unstable();
    let n = counts.len().max(1) as f64;
    let cdf = (0..counts.len()).map(|i| (i + 1) as f64 / n).collect();
    (counts, cdf)
}

// ------------------------------------------------------- Table XII / Fig. 11

/// Table XII rows over a pipeline output (both formats classified).
pub fn table12(output: &PipelineOutput) -> Vec<((&'static str, &'static str), usize)> {
    let texts: Vec<&str> = output
        .yara
        .iter()
        .chain(&output.semgrep)
        .map(|r| r.text.as_str())
        .collect();
    rulellm::taxonomy::tabulate(texts)
}

/// Fig. 11: category overlap matrix over a pipeline output.
pub fn fig11(output: &PipelineOutput) -> Vec<Vec<usize>> {
    let texts: Vec<&str> = output
        .yara
        .iter()
        .chain(&output.semgrep)
        .map(|r| r.text.as_str())
        .collect();
    rulellm::taxonomy::overlap_matrix(texts)
}

// ----------------------------------------------------------- RAG extension

/// §VI extension experiment: the full pipeline with and without
/// retrieval-augmented crafting. RAG recovers missed knowledge and vetoes
/// hallucinated strings, so it should never hurt and typically lifts
/// precision.
pub fn rag_ablation(ctx: &ExperimentContext) -> Vec<MetricsRow> {
    vec![
        rulellm_row(ctx, "RuleLLM (no RAG)", PipelineConfig::full()).0,
        rulellm_row(ctx, "RuleLLM + RAG", PipelineConfig::full_with_rag()).0,
    ]
}

// ------------------------------------------------------------------ Variants

/// Variant-detection report (§V-B).
#[derive(Debug, Clone, PartialEq)]
pub struct VariantReport {
    /// Groups evaluated (clusters with ≥3 members).
    pub groups: usize,
    /// Held-out variants in total.
    pub total_variants: usize,
    /// Held-out variants detected.
    pub detected: usize,
    /// Micro-average detection rate (paper: 90.32% overall).
    pub overall_rate: f64,
    /// Macro-average per-group rate (paper: 96.62% average).
    pub average_rate: f64,
}

/// §V-B: per code group, generate YARA rules from two packages and test
/// them on the group's remaining (unseen) variants, scanned through
/// [`scan_all`] like every other experiment's packages.
pub fn variant_detection(dataset: &Dataset, seed: u64) -> VariantReport {
    let unique = dataset.unique_malware();
    let packages: Vec<&oss_registry::Package> = unique.iter().map(|m| &m.package).collect();
    // Finer clustering than rule generation (one group ≈ one variant
    // family): the experiment needs held-out members to actually be
    // variants of the seeds.
    let k = (packages.len() / 3).max(1);
    let knowledge = rulellm::extract_knowledge(&packages, Some(k));
    let mut groups = 0usize;
    let mut total_variants = 0usize;
    let mut detected = 0usize;
    let mut rates = Vec::new();
    for group in &knowledge.groups {
        if group.len() < 3 {
            continue;
        }
        groups += 1;
        let seeds: Vec<&oss_registry::Package> =
            group.iter().take(2).map(|&i| packages[i]).collect();
        let mut config = PipelineConfig::full();
        config.seed = seed;
        config.cluster_k = Some(1);
        config.generate_metadata_rules = false;
        let output = Pipeline::new(config).run(&seeds);
        // No rule generated is no rule to scan with: nothing is detected.
        let compiled = (!output.yara.is_empty()).then(|| {
            yara_engine::compile(&output.yara_ruleset()).expect("aligned ruleset compiles")
        });
        let held_out: Vec<ScanTarget> = group
            .iter()
            .skip(2)
            .enumerate()
            .map(|(n, &i)| crate::scan::target_from_package(packages[i], n, true, None))
            .collect();
        let matches = scan_all(compiled.as_ref(), None, &held_out);
        let group_hits = matches.iter().filter(|m| !m.yara.is_empty()).count();
        total_variants += held_out.len();
        detected += group_hits;
        rates.push(group_hits as f64 / held_out.len() as f64);
    }
    let overall_rate = if total_variants == 0 {
        0.0
    } else {
        detected as f64 / total_variants as f64
    };
    let average_rate = if rates.is_empty() {
        0.0
    } else {
        rates.iter().sum::<f64>() / rates.len() as f64
    };
    VariantReport {
        groups,
        total_variants,
        detected,
        overall_rate,
        average_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::CorpusConfig;

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext::new(&CorpusConfig::tiny())
    }

    #[test]
    fn rulellm_beats_scanner_baselines_on_f1() {
        let ctx = tiny_ctx();
        let (rows, _) = table8(&ctx);
        assert_eq!(rows.len(), 4);
        let f1 = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .unwrap_or_else(|| panic!("row {name}"))
                .confusion
                .f1()
        };
        assert!(
            f1("RuleLLM") > f1("Yara scanner"),
            "rulellm {} vs yara scanner {}",
            f1("RuleLLM"),
            f1("Yara scanner")
        );
        assert!(f1("RuleLLM") > f1("Semgrep scanner"));
        assert!(f1("RuleLLM") > f1("Score-based"));
    }

    #[test]
    fn ablation_is_monotone_in_recall() {
        let ctx = tiny_ctx();
        let rows = table10(&ctx);
        assert_eq!(rows.len(), 4);
        let alone = rows[0].confusion.recall();
        let full = rows[3].confusion.recall();
        assert!(
            full > alone,
            "full pipeline recall {full} must beat LLM-alone {alone}"
        );
    }

    #[test]
    fn matched_curve_recall_decreases_with_k() {
        let ctx = tiny_ctx();
        let (_, matches) = table8(&ctx);
        let curve = matched_curve(&matches, &ctx.targets, RuleFormat::Yara, 4);
        assert_eq!(curve.len(), 4);
        for w in curve.windows(2) {
            assert!(w[1].1.recall() <= w[0].1.recall() + 1e-9);
        }
    }

    #[test]
    fn per_rule_stats_and_histogram() {
        let ctx = tiny_ctx();
        let output = run_rulellm(&ctx.dataset, rulellm::PipelineConfig::full());
        let (yara, semgrep) = compile_output(&output);
        let matches = scan_all(Some(&yara), Some(&semgrep), &ctx.targets);
        let names: Vec<String> = yara.rules.iter().map(|r| r.rule.name.clone()).collect();
        let stats = per_rule_stats(&names, &matches, &ctx.targets, RuleFormat::Yara);
        assert_eq!(stats.len(), names.len());
        let (bins, unmatched) = precision_histogram(&stats);
        assert_eq!(bins.iter().sum::<usize>() + unmatched, names.len());
        // Most matching rules should be high-precision (paper Fig. 7).
        let matched: usize = bins.iter().sum();
        if matched > 0 {
            assert!(
                bins[9] * 2 >= matched,
                "high-precision bin too small: {bins:?}"
            );
        }
    }

    #[test]
    fn coverage_cdf_is_monotone() {
        let stats = vec![
            PerRuleStats {
                rule: "a".into(),
                malware_hits: 1,
                legit_hits: 0,
            },
            PerRuleStats {
                rule: "b".into(),
                malware_hits: 5,
                legit_hits: 0,
            },
            PerRuleStats {
                rule: "c".into(),
                malware_hits: 2,
                legit_hits: 1,
            },
        ];
        let (counts, cdf) = coverage_cdf(&stats);
        assert_eq!(counts, vec![1, 2, 5]);
        assert!((cdf[2] - 1.0).abs() < 1e-9);
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn table11_counts() {
        let ctx = tiny_ctx();
        let output = run_rulellm(&ctx.dataset, rulellm::PipelineConfig::full());
        let rows = table11(&output);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].rulellm, output.yara.len());
        assert_eq!(rows[0].sota_oss.1, 46);
    }

    #[test]
    fn table12_has_38_rows_with_content() {
        let ctx = tiny_ctx();
        let output = run_rulellm(&ctx.dataset, rulellm::PipelineConfig::full());
        let rows = table12(&output);
        assert_eq!(rows.len(), 38);
        let total: usize = rows.iter().map(|(_, c)| c).sum();
        assert!(
            total >= output.yara.len(),
            "labels {total} rules {}",
            output.yara.len()
        );
    }

    #[test]
    fn fig11_matrix_shape_and_symmetry() {
        let ctx = tiny_ctx();
        let output = run_rulellm(&ctx.dataset, rulellm::PipelineConfig::full());
        let m = fig11(&output);
        assert_eq!(m.len(), 11);
        for i in 0..11 {
            for j in 0..11 {
                assert_eq!(m[i][j], m[j][i]);
                assert!(m[i][j] <= m[i][i].min(m[j][j]) || i == j);
            }
        }
    }

    #[test]
    fn rag_never_hurts_f1() {
        let ctx = tiny_ctx();
        let rows = rag_ablation(&ctx);
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].confusion.f1() >= rows[0].confusion.f1() - 0.05,
            "RAG {:.3} vs base {:.3}",
            rows[1].confusion.f1(),
            rows[0].confusion.f1()
        );
        assert!(rows[1].confusion.precision() >= rows[0].confusion.precision() - 0.05);
    }

    #[test]
    fn variant_detection_detects_most_variants() {
        // The experiment needs several variants per family; the tiny
        // preset has exactly one, so use a dedicated configuration.
        let config = corpus::CorpusConfig {
            seed: 42,
            malware_unique: 90,
            malware_total: 100,
            legit_total: 4,
        };
        let dataset = Dataset::generate(&config);
        let report = variant_detection(&dataset, 42);
        assert!(report.groups > 0, "{report:?}");
        assert!(
            report.overall_rate > 0.6,
            "variant detection too weak: {report:?}"
        );
        assert!(report.average_rate >= report.overall_rate - 0.2);
    }
}
