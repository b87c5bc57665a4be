//! The seed's reparse-per-call structural matcher, kept as the
//! differential oracle (repo convention, see `textmatch::reference`).
//!
//! [`match_module`] here re-encodes metavariables and re-parses every
//! pattern string through [`pysrc::parse_module`] on **every call** —
//! exactly the cost model the compiled matcher removed. The differential
//! suites assert `MatchSet ≡ reference`; nothing else calls it. Every
//! pattern-text re-parse bumps a process-global counter
//! ([`pattern_reparse_count`]) so tests can prove the production scan
//! path performs zero of them.

use std::sync::atomic::{AtomicU64, Ordering};

use pysrc::Module;

use crate::matcher::{encode_metavars, pattern_stmt, stmt_matches, Finding, Trees};
use crate::rule::{PatternOp, SemgrepRule};

/// Pattern-text re-parses performed by this module since process start.
static REPARSES: AtomicU64 = AtomicU64::new(0);

/// How many times pattern text has been re-parsed on a match path. The
/// compiled matcher never adds to this; only the oracle does.
pub fn pattern_reparse_count() -> u64 {
    REPARSES.load(Ordering::Relaxed)
}

/// Matches one rule against a module by re-parsing each pattern leaf —
/// the seed implementation, preserved as the equivalence oracle.
pub fn match_module(rule: &SemgrepRule, module: &Module) -> Vec<Finding> {
    let lines = eval_op(&rule.pattern, module);
    let mut lines: Vec<usize> = lines.into_iter().collect();
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
        PatternOp::Not(inner) => {
            let _ = eval_op(inner, module);
            Vec::new()
        }
    }
}

fn pattern_lines(pattern: &str, module: &Module) -> Vec<usize> {
    let encoded = encode_metavars(pattern);
    REPARSES.fetch_add(1, Ordering::Relaxed);
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

/// Serializes unit tests that assert on the process-global reparse
/// counter (in-crate tests run in parallel threads).
#[cfg(test)]
pub(crate) static TEST_COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use crate::rule::compile;

    #[test]
    fn oracle_agrees_with_compiled_matcher_on_basics() {
        let _guard = super::TEST_COUNTER_LOCK.lock().expect("counter lock");
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
                crate::scan_module(&rules, &module),
                "divergence on {src:?}"
            );
        }
    }
}
