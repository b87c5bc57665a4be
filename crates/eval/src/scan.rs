//! Package scanning with YARA and Semgrep rulesets.
//!
//! Since the scanhub refactor this module is a thin client of
//! [`scanhub::ScanHub`]: target preparation stays here (the evaluation
//! owns ground-truth labels), while prefiltered, artifact-cached,
//! multi-worker scanning lives in the service. [`scan_all`] keeps its
//! original contract — results in target order, byte-identical matches
//! to exhaustive scanning (decoded-layer findings and the behavior
//! engine are off on this path so the paper-replication metrics stay
//! comparable; use [`scan_verdicts`] to measure layered scanning and
//! [`scan_taint_verdicts`] to measure taint flows).

use corpus::Dataset;
use std::sync::Arc;

use scanhub::{Findings, HubConfig, ScanHub, ScanRequest, Verdict};
use semgrep_engine::CompiledSemgrepRules;
use yara_engine::CompiledRules;

/// One package prepared for scanning.
#[derive(Debug, Clone)]
pub struct ScanTarget {
    /// Stable index within the target list.
    pub index: usize,
    /// The file-entry scan request (one shared copy of every file's
    /// bytes; YARA units, Semgrep sources and cache digests are all
    /// derived views).
    pub request: ScanRequest,
    /// Ground truth.
    pub is_malicious: bool,
    /// Malware family, when malicious.
    pub family: Option<usize>,
}

/// Match results for one target: the verdict's own lists, shared.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TargetMatches {
    /// Names of YARA rules that fired, sorted.
    pub yara: Findings<Arc<str>>,
    /// Ids of Semgrep rules that fired, sorted.
    pub semgrep: Findings<Arc<str>>,
}

impl TargetMatches {
    /// Total distinct rules matched.
    pub fn total(&self) -> usize {
        self.yara.len() + self.semgrep.len()
    }
}

/// Builds scan targets from a dataset: **unique** malware (the paper
/// evaluates on the 1,633 deduplicated packages) followed by all
/// legitimate packages.
pub fn build_targets(dataset: &Dataset) -> Vec<ScanTarget> {
    let mut targets = Vec::new();
    for m in dataset.unique_malware() {
        targets.push(target_from_package(
            &m.package,
            targets.len(),
            true,
            Some(m.family_id),
        ));
    }
    for l in &dataset.legit {
        targets.push(target_from_package(&l.package, targets.len(), false, None));
    }
    targets
}

/// Prepares a single package for scanning.
pub fn target_from_package(
    pkg: &oss_registry::Package,
    index: usize,
    is_malicious: bool,
    family: Option<usize>,
) -> ScanTarget {
    ScanTarget {
        index,
        request: ScanRequest::from_package(pkg),
        is_malicious,
        family,
    }
}

/// Scans every target through a hub configured with the given decoded-
/// layer depth, returning full verdicts in target order.
///
/// The behavior engine is **off** on this path: the replication metrics
/// (Table VIII/IX/X, the robustness decay table) measure the paper's
/// rule-driven detection, and taint flows would silently inflate
/// [`Verdict::flagged`]. Use [`scan_taint_verdicts`] to measure the
/// behavior engine in isolation.
pub fn scan_verdicts(
    yara: Option<&CompiledRules>,
    semgrep: Option<&CompiledSemgrepRules>,
    targets: &[ScanTarget],
    max_decode_depth: u8,
) -> Vec<Verdict> {
    let config = HubConfig {
        max_decode_depth,
        dataflow: false,
        ..HubConfig::default()
    };
    batch_scan(yara, semgrep, config, targets)
}

/// Scans every target through a **rule-less** hub with the behavior
/// engine on: no YARA, no Semgrep, so every finding in the returned
/// verdicts is a taint flow. This is the scan path of the taint
/// robustness experiment — rules key on spellings, flows key on
/// structure, and this isolates the latter.
pub fn scan_taint_verdicts(targets: &[ScanTarget]) -> Vec<Verdict> {
    let config = HubConfig {
        cache_capacity: 0,
        ..HubConfig::default()
    };
    batch_scan(None, None, config, targets)
}

/// One `scan_ordered` call over a hub that lives exactly that long: the
/// pool is sized to the batch, and no retro index is maintained — the
/// hub is dropped before anything could deploy rules to it or hunt.
fn batch_scan(
    yara: Option<&CompiledRules>,
    semgrep: Option<&CompiledSemgrepRules>,
    config: HubConfig,
    targets: &[ScanTarget],
) -> Vec<Verdict> {
    let hub = ScanHub::new(
        yara.cloned(),
        semgrep.cloned(),
        HubConfig {
            workers: config.workers.min(targets.len().max(1)),
            retro_index: false,
            ..config
        },
    );
    hub.scan_ordered(targets.iter().map(|t| t.request.clone()))
}

/// Scans every target with the compiled rulesets through a
/// [`scanhub::ScanHub`]: prefilter routing, artifact-cached per-file
/// analyses, digest-cached duplicate verdicts and a sharded worker pool.
///
/// Results are returned in target order. `semgrep` may be empty (e.g. for
/// the Yara-scanner baseline).
pub fn scan_all(
    yara: Option<&CompiledRules>,
    semgrep: Option<&CompiledSemgrepRules>,
    targets: &[ScanTarget],
) -> Vec<TargetMatches> {
    scan_verdicts(yara, semgrep, targets, 0)
        .into_iter()
        .map(|v| TargetMatches {
            yara: v.yara,
            semgrep: v.semgrep,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::CorpusConfig;

    #[test]
    fn targets_cover_unique_malware_and_legit() {
        let dataset = Dataset::generate(&CorpusConfig::tiny());
        let targets = build_targets(&dataset);
        assert_eq!(targets.len(), 30 + 8);
        assert_eq!(targets.iter().filter(|t| t.is_malicious).count(), 30);
        assert!(targets.iter().take(30).all(|t| t.family.is_some()));
    }

    #[test]
    fn requests_contain_metadata() {
        let dataset = Dataset::generate(&CorpusConfig::tiny());
        let targets = build_targets(&dataset);
        let text = String::from_utf8_lossy(&targets[0].request.concat_buffer()).into_owned();
        assert!(text.contains("Name: "));
        assert!(text.contains("Version: "));
    }

    #[test]
    fn scan_all_yara_only() {
        let dataset = Dataset::generate(&CorpusConfig::tiny());
        let targets = build_targets(&dataset);
        let rules = yara_engine::compile(
            "rule find_os_system { strings: $a = \"os.system\" condition: $a }",
        )
        .expect("compile");
        let results = scan_all(Some(&rules), None, &targets);
        assert_eq!(results.len(), targets.len());
        // At least one malware package shells out.
        assert!(results
            .iter()
            .zip(&targets)
            .any(|(r, t)| t.is_malicious && !r.yara.is_empty()));
    }

    #[test]
    fn scan_all_semgrep_only() {
        let dataset = Dataset::generate(&CorpusConfig::tiny());
        let targets = build_targets(&dataset);
        let rules = semgrep_engine::compile(
            "rules:\n  - id: sys\n    languages: [python]\n    message: m\n    pattern: os.system($X)\n",
        )
        .expect("compile");
        let results = scan_all(None, Some(&rules), &targets);
        assert!(results
            .iter()
            .zip(&targets)
            .any(|(r, t)| t.is_malicious && !r.semgrep.is_empty()));
        // Legit packages don't call os.system.
        assert!(results
            .iter()
            .zip(&targets)
            .filter(|(_, t)| !t.is_malicious)
            .all(|(r, _)| r.semgrep.is_empty()));
    }

    #[test]
    fn results_align_with_target_order() {
        let dataset = Dataset::generate(&CorpusConfig::tiny());
        let targets = build_targets(&dataset);
        let rules = yara_engine::compile(
            "rule meta_marker { strings: $a = \"Metadata-Version\" condition: $a }",
        )
        .expect("compile");
        let results = scan_all(Some(&rules), None, &targets);
        // Every request carries a PKG-INFO entry, so every target matches.
        assert!(results.iter().all(|r| r.yara.names() == ["meta_marker"]));
    }

    #[test]
    fn scan_all_agrees_with_direct_scanner() {
        // The thin-client contract: scanhub-backed scan_all returns
        // byte-identical matches to a direct exhaustive scan of the
        // flattened request.
        let dataset = Dataset::generate(&CorpusConfig::tiny());
        let targets = build_targets(&dataset);
        let yara = yara_engine::compile(
            r#"
rule sys { strings: $a = "os.system" condition: $a }
rule req { strings: $a = "requests.get" $b = "requests.post" condition: any of them }
rule b64re { strings: $re = /[A-Za-z0-9+\/]{24,}/ condition: $re }
"#,
        )
        .expect("compile");
        let results = scan_all(Some(&yara), None, &targets);
        let scanner = yara_engine::Scanner::new(&yara);
        for (r, t) in results.iter().zip(&targets) {
            let mut direct: Vec<String> = scanner
                .scan(&t.request.concat_buffer())
                .into_iter()
                .map(|h| h.rule)
                .collect();
            direct.sort();
            direct.dedup();
            assert_eq!(r.yara.names(), direct, "target {}", t.index);
        }
    }

    #[test]
    fn rule_scans_carry_no_flows_and_taint_scans_carry_only_flows() {
        let dataset = Dataset::generate(&CorpusConfig::tiny());
        let targets = build_targets(&dataset);
        let yara = yara_engine::compile("rule sys { strings: $a = \"os.system\" condition: $a }")
            .expect("compile");
        // The replication path never reports flows…
        for v in scan_verdicts(Some(&yara), None, &targets, 2) {
            assert!(v.flows.is_empty(), "replication scan leaked a flow");
        }
        // …and the rule-less taint path reports nothing but flows,
        // which do fire on the malicious side of the corpus.
        let taint = scan_taint_verdicts(&targets);
        assert!(taint
            .iter()
            .all(|v| v.yara.is_empty() && v.semgrep.is_empty() && v.layers.is_empty()));
        assert!(taint
            .iter()
            .zip(&targets)
            .any(|(v, t)| t.is_malicious && !v.flows.is_empty()));
    }

    #[test]
    fn scan_verdicts_with_layers_can_only_add_findings() {
        let dataset = Dataset::generate(&CorpusConfig::tiny());
        let targets = build_targets(&dataset);
        let yara = yara_engine::compile("rule sys { strings: $a = \"os.system\" condition: $a }")
            .expect("compile");
        let flat = scan_verdicts(Some(&yara), None, &targets, 0);
        let layered = scan_verdicts(Some(&yara), None, &targets, 2);
        for (a, b) in flat.iter().zip(&layered) {
            assert_eq!(a.yara, b.yara, "surface verdict perturbed by layers");
            assert!(a.layers.is_empty());
        }
    }
}
