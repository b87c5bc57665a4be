//! The seed's reparse-per-call structural matcher.
//!
//! [`match_module`] re-encodes metavariables and re-parses every pattern
//! string through [`pysrc::parse_module`] on **every call** — exactly the
//! cost model the compiled matcher removed. It shares the leaf matcher
//! ([`stmt_matches`]) with [`semgrep_engine::MatchSet`], so the two differ
//! only in when pattern text is parsed and how rules are dispatched. The
//! differential suites assert `MatchSet ≡ reference`.

use pysrc::Module;
use semgrep_engine::internals::{encode_metavars, pattern_stmt, stmt_matches, Trees};
use semgrep_engine::{Finding, PatternOp, SemgrepRule};

/// Matches one rule against a module by re-parsing each pattern leaf —
/// the seed implementation, preserved as the equivalence oracle.
pub fn match_module(rule: &SemgrepRule, module: &Module) -> Vec<Finding> {
    let mut lines = eval_op(&rule.pattern, module);
    lines.sort_unstable();
    lines.dedup();
    lines
        .into_iter()
        .map(|line| Finding {
            rule_id: rule.id.clone(),
            line,
            message: rule.message.clone(),
            severity: rule.severity,
        })
        .collect()
}

/// Evaluates a pattern-operator tree to the set of matching lines.
fn eval_op(op: &PatternOp, module: &Module) -> Vec<usize> {
    match op {
        PatternOp::Pattern(text) => pattern_lines(text, module),
        PatternOp::Either(children) => {
            let mut out = Vec::new();
            for c in children {
                out.extend(eval_op(c, module));
            }
            out
        }
        PatternOp::All(children) => {
            let mut result: Option<Vec<usize>> = None;
            for c in children {
                match c {
                    PatternOp::Not(inner) => {
                        if !eval_op(inner, module).is_empty() {
                            return Vec::new();
                        }
                    }
                    other => {
                        let lines = eval_op(other, module);
                        if lines.is_empty() {
                            return Vec::new();
                        }
                        if result.is_none() {
                            result = Some(lines);
                        }
                    }
                }
            }
            result.unwrap_or_default()
        }
        PatternOp::Not(_) => Vec::new(),
    }
}

fn pattern_lines(pattern: &str, module: &Module) -> Vec<usize> {
    let encoded = encode_metavars(pattern);
    let pat_module = pysrc::parse_module(&encoded);
    let Some(pat_stmt) = pattern_stmt(&pat_module) else {
        return Vec::new();
    };
    let trees = Trees {
        pattern: &pat_module,
        target: module,
    };
    module
        .statements()
        .iter()
        .filter(|stmt| stmt_matches(pat_stmt, stmt, trees))
        .map(|stmt| module.line(stmt))
        .collect()
}

#[cfg(test)]
mod tests {
    use semgrep_engine::compile;

    #[test]
    fn oracle_agrees_with_compiled_matcher_on_basics() {
        let rules = compile(
            r#"
rules:
  - id: a
    languages: [python]
    message: m
    pattern: os.system($X)
  - id: b
    languages: [python]
    message: m
    patterns:
      - pattern: open($F, 'w')
      - pattern-not: open('log.txt', 'w')
"#,
        )
        .expect("compile");
        for src in [
            "os.system('id')\n",
            "open(p, 'w')\n",
            "open('log.txt', 'w')\n",
            "print('clean')\n",
        ] {
            let module = pysrc::parse_module(src);
            let oracle: Vec<_> = rules
                .rules
                .iter()
                .flat_map(|rule| super::match_module(rule, &module))
                .collect();
            assert_eq!(
                oracle,
                semgrep_engine::scan_module(&rules, &module),
                "divergence on {src:?}"
            );
        }
    }
}
