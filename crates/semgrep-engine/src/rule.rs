//! Semgrep rule schema and compilation.

use crate::error::SemgrepError;
use crate::matcher::CompiledPattern;
use crate::yaml::{self, Yaml};

/// Semgrep severity levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Informational finding.
    Info,
    /// Suspicious but not certain.
    Warning,
    /// High-confidence problem.
    Error,
}

impl Severity {
    fn parse(text: &str, line: usize) -> Result<Self, SemgrepError> {
        match text {
            "INFO" => Ok(Severity::Info),
            "WARNING" => Ok(Severity::Warning),
            "ERROR" => Ok(Severity::Error),
            other => Err(SemgrepError::new(
                line,
                format!("invalid severity `{other}` (expected INFO, WARNING or ERROR)"),
            )),
        }
    }
}

/// A pattern operator tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternOp {
    /// A single source pattern.
    Pattern(String),
    /// `patterns:` — all children must match (conjunction).
    All(Vec<PatternOp>),
    /// `pattern-either:` — any child may match (disjunction).
    Either(Vec<PatternOp>),
    /// `pattern-not:` — child must not match anywhere in the file.
    Not(Box<PatternOp>),
}

impl PatternOp {
    /// Literal atoms with *any-of* semantics: when `Some(atoms)` is
    /// returned, a source text containing **none** of the atoms cannot
    /// match this operator tree, so a prefilter may skip the rule.
    /// `None` means no such guarantee exists and the rule must always
    /// run.
    ///
    /// Atoms are identifier/keyword words taken from pattern text outside
    /// quoted sections (quoted content may be re-escaped differently in
    /// matching source) and excluding `$METAVAR` names. A conjunction
    /// needs any one of its children's guarantees; a disjunction needs
    /// one from *every* branch; `pattern-not` offers none.
    pub fn literal_atoms_of(op: &PatternOp) -> Option<Vec<String>> {
        match op {
            PatternOp::Pattern(text) => pattern_anchor_word(text).map(|w| vec![w]),
            PatternOp::All(children) => children
                .iter()
                .filter_map(Self::literal_atoms_of)
                // Prefer the child whose weakest atom is longest — longer
                // atoms are rarer, so a filter on them passes fewer sources.
                .max_by_key(|atoms| atoms.iter().map(String::len).min().unwrap_or(0)),
            PatternOp::Either(children) => {
                let mut out = Vec::new();
                for c in children {
                    out.extend(Self::literal_atoms_of(c)?);
                }
                Some(out)
            }
            PatternOp::Not(_) => None,
        }
    }
}

/// The longest identifier-like word of a pattern, skipping quoted spans
/// and `$METAVAR` references.
fn pattern_anchor_word(text: &str) -> Option<String> {
    let mut best: Option<String> = None;
    let mut word = String::new();
    let mut quote: Option<char> = None;
    let mut in_metavar = false;
    for c in text.chars() {
        if let Some(q) = quote {
            if c == q {
                quote = None;
            }
            continue;
        }
        let is_word_char = c.is_ascii_alphanumeric() || c == '_';
        if in_metavar {
            if is_word_char {
                continue;
            }
            in_metavar = false;
        }
        match c {
            '\'' | '"' => {
                quote = Some(c);
                flush_word(&mut word, &mut best);
            }
            '$' => {
                flush_word(&mut word, &mut best);
                in_metavar = true;
            }
            c if is_word_char => word.push(c),
            _ => flush_word(&mut word, &mut best),
        }
    }
    flush_word(&mut word, &mut best);
    best
}

fn flush_word(word: &mut String, best: &mut Option<String>) {
    if !word.is_empty()
        && word.chars().next().is_some_and(|c| !c.is_ascii_digit())
        && word.len() > best.as_ref().map_or(0, String::len)
    {
        *best = Some(word.clone());
    }
    word.clear();
}

/// One compiled Semgrep rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemgrepRule {
    /// Unique rule id.
    pub id: String,
    /// Target languages (`python` required by this subset).
    pub languages: Vec<String>,
    /// Human-readable finding message.
    pub message: String,
    /// Severity level.
    pub severity: Severity,
    /// The pattern operator tree.
    pub pattern: PatternOp,
    /// Free-form metadata entries.
    pub metadata: Vec<(String, String)>,
    /// The pattern tree with every leaf pre-parsed (metavariables
    /// encoded, first statement kept as AST), built here at compile time
    /// so the scan path never re-parses pattern text.
    pub(crate) compiled: CompiledPattern,
}

/// A compiled set of Semgrep rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledSemgrepRules {
    /// Rules in file order.
    pub rules: Vec<SemgrepRule>,
}

impl SemgrepRule {
    /// The rule's literal atoms with any-of semantics
    /// (see [`PatternOp::literal_atoms_of`]).
    pub fn literal_atoms(&self) -> Option<Vec<String>> {
        PatternOp::literal_atoms_of(&self.pattern)
    }
}

impl CompiledSemgrepRules {
    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns true when the file defined no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Parses and validates a Semgrep YAML rule file.
///
/// # Errors
///
/// YAML syntax errors, plus schema violations phrased like semgrep's CLI:
/// missing `rules`, missing `id` / `message` / `languages`, missing any
/// pattern operator, empty `patterns:` lists, unknown operator keys and
/// duplicate rule ids.
pub fn compile(source: &str) -> Result<CompiledSemgrepRules, SemgrepError> {
    let doc = yaml::parse(source)?;
    let Some(rules_node) = doc.get("rules") else {
        return Err(SemgrepError::global("missing `rules` key"));
    };
    let Some(seq) = rules_node.as_seq() else {
        return Err(SemgrepError::global("`rules` must be a sequence"));
    };
    if seq.is_empty() {
        return Err(SemgrepError::global("`rules` is empty"));
    }
    let mut rules = Vec::with_capacity(seq.len());
    let mut seen = std::collections::HashSet::new();
    for node in seq {
        let rule = compile_rule(node)?;
        if !seen.insert(rule.id.clone()) {
            return Err(SemgrepError::global(format!(
                "duplicate rule id `{}`",
                rule.id
            )));
        }
        rules.push(rule);
    }
    Ok(CompiledSemgrepRules { rules })
}

fn compile_rule(node: &Yaml) -> Result<SemgrepRule, SemgrepError> {
    let id = node
        .get("id")
        .and_then(Yaml::as_str)
        .ok_or_else(|| SemgrepError::global("rule is missing required `id` field"))?
        .to_owned();
    let message = node
        .get("message")
        .and_then(Yaml::as_str)
        .ok_or_else(|| {
            SemgrepError::global(format!("rule `{id}` is missing required `message` field"))
        })?
        .to_owned();
    let languages: Vec<String> = match node.get("languages") {
        Some(Yaml::Seq(items)) => items
            .iter()
            .filter_map(Yaml::as_str)
            .map(str::to_owned)
            .collect(),
        Some(Yaml::Str(s)) => vec![s.clone()],
        _ => {
            return Err(SemgrepError::global(format!(
                "rule `{id}` is missing required `languages` field"
            )))
        }
    };
    if languages.is_empty() {
        return Err(SemgrepError::global(format!(
            "rule `{id}` has an empty `languages` list"
        )));
    }
    for lang in &languages {
        if !matches!(lang.as_str(), "python" | "py" | "generic") {
            return Err(SemgrepError::global(format!(
                "rule `{id}`: unsupported language `{lang}`"
            )));
        }
    }
    let severity = match node.get("severity").and_then(Yaml::as_str) {
        Some(s) => Severity::parse(s, 0)?,
        None => Severity::Warning,
    };
    let pattern = compile_pattern_ops(node, &id)?;
    let metadata = match node.get("metadata") {
        Some(Yaml::Map(entries)) => entries
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect(),
        _ => Vec::new(),
    };
    let compiled = CompiledPattern::compile(&pattern);
    Ok(SemgrepRule {
        id,
        languages,
        message,
        severity,
        pattern,
        metadata,
        compiled,
    })
}

fn compile_pattern_ops(node: &Yaml, id: &str) -> Result<PatternOp, SemgrepError> {
    let mut found = Vec::new();
    if let Some(p) = node.get("pattern").and_then(Yaml::as_str) {
        found.push(PatternOp::Pattern(normalize_pattern(p)));
    }
    if let Some(children) = node.get("patterns") {
        found.push(PatternOp::All(compile_operator_list(children, id)?));
    }
    if let Some(children) = node.get("pattern-either") {
        found.push(PatternOp::Either(compile_operator_list(children, id)?));
    }
    match found.len() {
        0 => Err(SemgrepError::global(format!(
            "rule `{id}` must define one of `pattern`, `patterns` or `pattern-either`"
        ))),
        1 => Ok(found.pop().expect("one element")),
        _ => Ok(PatternOp::All(found)),
    }
}

fn compile_operator_list(node: &Yaml, id: &str) -> Result<Vec<PatternOp>, SemgrepError> {
    let Some(items) = node.as_seq() else {
        return Err(SemgrepError::global(format!(
            "rule `{id}`: pattern operator list must be a sequence"
        )));
    };
    if items.is_empty() {
        return Err(SemgrepError::global(format!(
            "rule `{id}`: empty pattern operator list"
        )));
    }
    let mut ops = Vec::with_capacity(items.len());
    for item in items {
        let Some(entries) = item.as_map() else {
            return Err(SemgrepError::global(format!(
                "rule `{id}`: each pattern operator must be a mapping"
            )));
        };
        for (key, value) in entries {
            match key.as_str() {
                "pattern" => {
                    let Some(text) = value.as_str() else {
                        return Err(SemgrepError::global(format!(
                            "rule `{id}`: `pattern` value must be a string"
                        )));
                    };
                    ops.push(PatternOp::Pattern(normalize_pattern(text)));
                }
                "pattern-not" => {
                    let Some(text) = value.as_str() else {
                        return Err(SemgrepError::global(format!(
                            "rule `{id}`: `pattern-not` value must be a string"
                        )));
                    };
                    ops.push(PatternOp::Not(Box::new(PatternOp::Pattern(
                        normalize_pattern(text),
                    ))));
                }
                "patterns" => ops.push(PatternOp::All(compile_operator_list(value, id)?)),
                "pattern-either" => ops.push(PatternOp::Either(compile_operator_list(value, id)?)),
                other => {
                    return Err(SemgrepError::global(format!(
                        "rule `{id}`: unknown pattern operator `{other}`"
                    )))
                }
            }
        }
    }
    Ok(ops)
}

fn normalize_pattern(text: &str) -> String {
    text.trim().to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
rules:
  - id: test-rule
    languages: [python]
    message: "something bad"
    severity: ERROR
    pattern: os.system($X)
"#;

    #[test]
    fn compiles_minimal_rule() {
        let rules = compile(MINIMAL).expect("compile");
        assert_eq!(rules.len(), 1);
        let r = &rules.rules[0];
        assert_eq!(r.id, "test-rule");
        assert_eq!(r.severity, Severity::Error);
        assert_eq!(r.pattern, PatternOp::Pattern("os.system($X)".into()));
    }

    #[test]
    fn patterns_conjunction() {
        let src = r#"
rules:
  - id: conj
    languages: [python]
    message: m
    patterns:
      - pattern: open($F, 'w')
      - pattern-not: open('log.txt', 'w')
"#;
        let rules = compile(src).expect("compile");
        match &rules.rules[0].pattern {
            PatternOp::All(children) => {
                assert_eq!(children.len(), 2);
                assert!(matches!(children[1], PatternOp::Not(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pattern_either_disjunction() {
        let src = r#"
rules:
  - id: disj
    languages: [python]
    message: m
    pattern-either:
      - pattern: eval($X)
      - pattern: exec($X)
"#;
        let rules = compile(src).expect("compile");
        assert!(matches!(&rules.rules[0].pattern, PatternOp::Either(c) if c.len() == 2));
    }

    #[test]
    fn default_severity_is_warning() {
        let src = "rules:\n  - id: x\n    languages: [python]\n    message: m\n    pattern: f()\n";
        let rules = compile(src).expect("compile");
        assert_eq!(rules.rules[0].severity, Severity::Warning);
    }

    #[test]
    fn metadata_collected() {
        let src = r#"
rules:
  - id: x
    languages: [python]
    message: m
    pattern: f()
    metadata:
      category: security
      subcategory: network
"#;
        let rules = compile(src).expect("compile");
        assert_eq!(rules.rules[0].metadata.len(), 2);
        assert_eq!(rules.rules[0].metadata[0].0, "category");
    }

    #[test]
    fn missing_rules_key() {
        let e = compile("other: 1\n").unwrap_err();
        assert!(e.to_string().contains("missing `rules` key"), "{e}");
    }

    #[test]
    fn missing_id() {
        let src = "rules:\n  - languages: [python]\n    message: m\n    pattern: f()\n";
        let e = compile(src).unwrap_err();
        assert!(e.to_string().contains("missing required `id`"), "{e}");
    }

    #[test]
    fn missing_message() {
        let src = "rules:\n  - id: x\n    languages: [python]\n    pattern: f()\n";
        let e = compile(src).unwrap_err();
        assert!(e.to_string().contains("missing required `message`"), "{e}");
    }

    #[test]
    fn missing_languages() {
        let src = "rules:\n  - id: x\n    message: m\n    pattern: f()\n";
        let e = compile(src).unwrap_err();
        assert!(
            e.to_string().contains("missing required `languages`"),
            "{e}"
        );
    }

    #[test]
    fn unsupported_language() {
        let src = "rules:\n  - id: x\n    languages: [cobol]\n    message: m\n    pattern: f()\n";
        let e = compile(src).unwrap_err();
        assert!(
            e.to_string().contains("unsupported language `cobol`"),
            "{e}"
        );
    }

    #[test]
    fn missing_pattern_operator() {
        let src = "rules:\n  - id: x\n    languages: [python]\n    message: m\n";
        let e = compile(src).unwrap_err();
        assert!(e.to_string().contains("must define one of"), "{e}");
    }

    #[test]
    fn invalid_severity() {
        let src = "rules:\n  - id: x\n    languages: [python]\n    message: m\n    severity: FATAL\n    pattern: f()\n";
        let e = compile(src).unwrap_err();
        assert!(e.to_string().contains("invalid severity"), "{e}");
    }

    #[test]
    fn duplicate_rule_ids() {
        let src = r#"
rules:
  - id: x
    languages: [python]
    message: m
    pattern: f()
  - id: x
    languages: [python]
    message: m
    pattern: g()
"#;
        let e = compile(src).unwrap_err();
        assert!(e.to_string().contains("duplicate rule id"), "{e}");
    }

    #[test]
    fn unknown_operator() {
        let src = r#"
rules:
  - id: x
    languages: [python]
    message: m
    patterns:
      - pattern-regexp: f.*
"#;
        let e = compile(src).unwrap_err();
        assert!(e.to_string().contains("unknown pattern operator"), "{e}");
    }

    #[test]
    fn block_scalar_pattern() {
        let src = r#"
rules:
  - id: x
    languages: [python]
    message: m
    patterns:
      - pattern: |
          $CLIENT.torrents_info(torrent_hashes=$HASH)
"#;
        let rules = compile(src).expect("compile");
        let pattern = PatternOp::Pattern("$CLIENT.torrents_info(torrent_hashes=$HASH)".into());
        assert_eq!(rules.rules[0].pattern, PatternOp::All(vec![pattern]));
    }

    #[test]
    fn literal_atoms_single_pattern() {
        let rules = compile(MINIMAL).expect("compile");
        assert_eq!(
            rules.rules[0].literal_atoms(),
            Some(vec!["system".to_owned()])
        );
    }

    #[test]
    fn literal_atoms_skip_metavariables_and_quotes() {
        assert_eq!(
            pattern_anchor_word("exec(base64.b64decode($PAYLOAD))"),
            Some("b64decode".to_owned())
        );
        assert_eq!(
            pattern_anchor_word("$X.post('https://x.test', data=$D)"),
            Some("post".to_owned())
        );
        assert_eq!(pattern_anchor_word("$A($B)"), None);
        assert_eq!(pattern_anchor_word("'only a string'"), None);
    }

    #[test]
    fn literal_atoms_either_unions_branches() {
        let src = r#"
rules:
  - id: disj
    languages: [python]
    message: m
    pattern-either:
      - pattern: eval($X)
      - pattern: exec($X)
"#;
        let rules = compile(src).expect("compile");
        let atoms = rules.rules[0].literal_atoms().expect("atoms");
        assert_eq!(atoms, vec!["eval".to_owned(), "exec".to_owned()]);
    }

    #[test]
    fn literal_atoms_either_with_opaque_branch_is_none() {
        let src = r#"
rules:
  - id: disj
    languages: [python]
    message: m
    pattern-either:
      - pattern: eval($X)
      - pattern: $A($B)
"#;
        let rules = compile(src).expect("compile");
        assert_eq!(rules.rules[0].literal_atoms(), None);
    }

    #[test]
    fn literal_atoms_conjunction_uses_any_child() {
        let src = r#"
rules:
  - id: conj
    languages: [python]
    message: m
    patterns:
      - pattern: open($F, 'w')
      - pattern-not: open('log.txt', 'w')
"#;
        let rules = compile(src).expect("compile");
        assert_eq!(
            rules.rules[0].literal_atoms(),
            Some(vec!["open".to_owned()])
        );
    }

    #[test]
    fn literal_atoms_not_only_is_none() {
        let op = PatternOp::Not(Box::new(PatternOp::Pattern("f()".into())));
        assert_eq!(PatternOp::literal_atoms_of(&op), None);
    }
}
