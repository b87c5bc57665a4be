//! Structural pattern matching over the [`pysrc`] AST.
//!
//! Supports the Semgrep features the paper's generated rules use:
//! metavariables (`$X`, bound consistently within one pattern), ellipsis
//! arguments (`f(...)`, `f($A, ...)`), keyword arguments matched by name
//! (`subprocess.Popen($CMD, shell=True)`), dotted callee paths and
//! assignment patterns (`$VAR = requests.get(...)`).
//!
//! Pattern text is parsed **once, at rule-compile time** into a
//! [`CompiledPattern`] (metavariables encoded, first statement kept as a
//! [`pysrc`] AST); the scan path never calls [`pysrc::parse_module`] on
//! pattern text. This module holds what the live matcher
//! ([`crate::MatchSet`]) and the reparse-per-call oracle
//! ([`crate::reference`]) share: leaf compilation and anchors, statement
//! matching, the statement walk and metavariable encoding.

use std::collections::HashMap;

use pysrc::{Arg, Expr, Stmt};

use crate::rule::{PatternOp, Severity};

/// One rule match at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Matching rule id.
    pub rule_id: String,
    /// 1-based line of the matched statement.
    pub line: usize,
    /// The rule message.
    pub message: String,
    /// The rule severity.
    pub severity: Severity,
}

// ---------------------------------------------------------------------------
// Compiled patterns
// ---------------------------------------------------------------------------

/// How a pre-parsed pattern leaf is dispatched by the multi-rule matcher:
/// the structural analogue of the literal prefilter. Every variant except
/// `Always`/`Dead` names a fact that *must* hold for a statement to match
/// the leaf, so statements lacking it skip the leaf entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Anchor {
    /// An identifier (call-head name, attribute, bare name) that must
    /// occur in a matching statement's expressions.
    Ident(String),
    /// A dotted module path that must occur in a matching `import`.
    ImportRoot(String),
    /// The exact module path of a `from X import ...` pattern.
    FromImportModule(String),
    /// No sound anchor exists: the leaf is tested against every statement.
    Always,
    /// The leaf can never match any statement (unparsable pattern text or
    /// a statement shape the matcher does not model).
    Dead,
}

/// One pattern leaf, pre-parsed at rule-compile time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CompiledLeaf {
    /// The metavar-encoded pattern's first statement; `None` when the
    /// text parses to an empty module (the leaf never matches).
    pub(crate) stmt: Option<Stmt>,
    /// Dispatch anchor derived from `stmt`.
    pub(crate) anchor: Anchor,
}

/// A pattern-operator tree whose leaves are pre-parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CompiledOp {
    /// A single pre-parsed pattern.
    Leaf(CompiledLeaf),
    /// Conjunction (`patterns:`).
    All(Vec<CompiledOp>),
    /// Disjunction (`pattern-either:`).
    Either(Vec<CompiledOp>),
    /// Negation (`pattern-not:`).
    Not(Box<CompiledOp>),
}

/// The compiled form of one rule's pattern tree, built by
/// [`crate::compile`] so that matching never re-parses pattern text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledPattern {
    pub(crate) op: CompiledOp,
}

impl CompiledPattern {
    /// Pre-parses every leaf of `op`.
    pub(crate) fn compile(op: &PatternOp) -> Self {
        CompiledPattern { op: compile_op(op) }
    }
}

fn compile_op(op: &PatternOp) -> CompiledOp {
    match op {
        PatternOp::Pattern(text) => CompiledOp::Leaf(compile_leaf(text)),
        PatternOp::All(children) => CompiledOp::All(children.iter().map(compile_op).collect()),
        PatternOp::Either(children) => {
            CompiledOp::Either(children.iter().map(compile_op).collect())
        }
        PatternOp::Not(inner) => CompiledOp::Not(Box::new(compile_op(inner))),
    }
}

pub(crate) fn compile_leaf(text: &str) -> CompiledLeaf {
    let encoded = encode_metavars(text);
    let stmt = pysrc::parse_module(&encoded).body.into_iter().next();
    let anchor = anchor_of(stmt.as_ref());
    CompiledLeaf { stmt, anchor }
}

/// The dispatch anchor of a pattern statement (see [`Anchor`]). Soundness
/// contract: whenever [`stmt_matches`]`(pattern, target)` holds, the
/// anchor fact holds for `target`.
fn anchor_of(stmt: Option<&Stmt>) -> Anchor {
    let Some(stmt) = stmt else {
        return Anchor::Dead;
    };
    match stmt {
        // An expression pattern matches via a sub-expression of the
        // target; an assignment pattern requires its value to match the
        // target's value — both walk the target's expression roots.
        Stmt::Expr { value, .. } | Stmt::Assign { value, .. } => {
            expr_anchor(value).map_or(Anchor::Always, Anchor::Ident)
        }
        Stmt::Import { modules, .. } => modules
            .first()
            .map_or(Anchor::Always, |m| Anchor::ImportRoot(m.path.clone())),
        Stmt::FromImport { module, .. } => Anchor::FromImportModule(module.clone()),
        Stmt::Other { text, .. } => {
            if text.is_empty() {
                Anchor::Dead
            } else {
                Anchor::Always
            }
        }
        // `stmt_matches` has no arm for these pattern shapes: they can
        // never match any statement.
        Stmt::FunctionDef { .. }
        | Stmt::ClassDef { .. }
        | Stmt::Block { .. }
        | Stmt::Return { .. } => Anchor::Dead,
    }
}

/// The identifier any expression matching `expr` must contain, or `None`
/// when no such identifier exists (metavariable head, literal, binop, …).
fn expr_anchor(expr: &Expr) -> Option<String> {
    match expr {
        // A call pattern requires the target to be a call whose callee
        // matches the pattern's callee.
        Expr::Call { func, .. } => expr_anchor(func),
        // `expr_matches` requires the target attribute name to be equal.
        Expr::Attribute { attr, .. } => Some(attr.clone()),
        Expr::Name(n) if !is_metavar(n) => Some(n.clone()),
        _ => None,
    }
}

/// Replaces `$NAME` with `__MV_NAME` so the Python parser accepts the
/// pattern text. Byte-faithful outside the rewritten metavariable
/// sigils: non-ASCII pattern content (string literals, comments) passes
/// through unchanged.
pub(crate) fn encode_metavars(pattern: &str) -> String {
    let bytes = pattern.as_bytes();
    let mut out = String::with_capacity(pattern.len() + 16);
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'$'
            && i + 1 < bytes.len()
            && (bytes[i + 1].is_ascii_alphabetic() || bytes[i + 1] == b'_')
        {
            // `$` is ASCII, so both slice boundaries sit on char limits.
            out.push_str(&pattern[start..i]);
            out.push_str("__MV_");
            start = i + 1;
        }
        i += 1;
    }
    out.push_str(&pattern[start..]);
    out
}

pub(crate) fn is_metavar(name: &str) -> bool {
    name.starts_with("__MV_")
}

fn is_ellipsis(expr: &Expr) -> bool {
    matches!(expr, Expr::Other(t) if t == "...")
}

pub(crate) fn walk_statements<'a>(body: &'a [Stmt], f: &mut impl FnMut(&'a Stmt)) {
    for stmt in body {
        f(stmt);
        match stmt {
            Stmt::FunctionDef { body, .. }
            | Stmt::ClassDef { body, .. }
            | Stmt::Block { body, .. } => walk_statements(body, f),
            _ => {}
        }
    }
}

/// The expression roots a statement exposes to expression patterns.
pub(crate) fn for_each_expr_root<'a>(stmt: &'a Stmt, f: &mut impl FnMut(&'a Expr)) {
    match stmt {
        Stmt::Expr { value, .. } | Stmt::Assign { value, .. } => f(value),
        Stmt::Return { value: Some(v), .. } => f(v),
        _ => {}
    }
}

pub(crate) fn stmt_matches(pattern: &Stmt, target: &Stmt) -> bool {
    match (pattern, target) {
        (Stmt::Expr { value: pv, .. }, _) => {
            // An expression pattern matches any statement containing a
            // matching sub-expression.
            target_expressions(target)
                .iter()
                .any(|te| expr_matches_with_fresh_bindings(pv, te))
        }
        (
            Stmt::Assign {
                targets: pt,
                value: pv,
                ..
            },
            Stmt::Assign {
                targets: tt,
                value: tv,
                ..
            },
        ) => {
            let target_ok = pt
                .iter()
                .all(|p| is_metavar(p) || tt.iter().any(|t| t == p));
            target_ok && expr_matches_with_fresh_bindings(pv, tv)
        }
        (Stmt::Import { modules: pm, .. }, Stmt::Import { modules: tm, .. }) => {
            // Compare module paths only: `import os` matches
            // `import os as o` — the alias changes the binding, not
            // which module the package pulls in.
            pm.iter().all(|m| tm.iter().any(|t| t.path == m.path))
        }
        (
            Stmt::FromImport {
                module: pm,
                names: pn,
                ..
            },
            Stmt::FromImport {
                module: tm,
                names: tn,
                ..
            },
        ) => {
            pm == tm
                && pn
                    .iter()
                    .all(|n| n.path == "*" || tn.iter().any(|t| t.path == n.path))
        }
        (Stmt::Other { text: pt, .. }, _) => {
            // Fallback for pattern shapes the lightweight parser didn't
            // model: textual containment on the reconstructed statement.
            !pt.is_empty() && stmt_text(target).contains(pt.as_str())
        }
        _ => false,
    }
}

fn render_imported(names: &[pysrc::ImportedName]) -> String {
    names
        .iter()
        .map(|n| match &n.alias {
            Some(a) => format!("{} as {a}", n.path),
            None => n.path.clone(),
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn stmt_text(stmt: &Stmt) -> String {
    match stmt {
        Stmt::Expr { value, .. } => value.to_text(),
        Stmt::Assign { targets, value, .. } => {
            format!("{} = {}", targets.join(" = "), value.to_text())
        }
        Stmt::Return { value, .. } => match value {
            Some(v) => format!("return {}", v.to_text()),
            None => "return".into(),
        },
        Stmt::Other { text, .. } => text.clone(),
        Stmt::Block { header, .. } => header.clone(),
        Stmt::Import { modules, .. } => format!("import {}", render_imported(modules)),
        Stmt::FromImport { module, names, .. } => {
            format!("from {module} import {}", render_imported(names))
        }
        Stmt::FunctionDef { name, .. } => format!("def {name}"),
        Stmt::ClassDef { name, .. } => format!("class {name}"),
    }
}

/// Every expression (with nesting) reachable from a statement.
fn target_expressions(stmt: &Stmt) -> Vec<&Expr> {
    let mut roots = Vec::new();
    match stmt {
        Stmt::Expr { value, .. } | Stmt::Assign { value, .. } => roots.push(value),
        Stmt::Return { value: Some(v), .. } => roots.push(v),
        _ => {}
    }
    let mut out = Vec::new();
    for r in roots {
        collect_subexpressions(r, &mut out);
    }
    out
}

fn collect_subexpressions<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) {
    out.push(expr);
    match expr {
        Expr::Call { func, args } => {
            collect_subexpressions(func, out);
            for a in args {
                collect_subexpressions(&a.value, out);
            }
        }
        Expr::Attribute { value, .. } => collect_subexpressions(value, out),
        Expr::BinOp { left, right, .. } => {
            collect_subexpressions(left, out);
            collect_subexpressions(right, out);
        }
        _ => {}
    }
}

fn expr_matches_with_fresh_bindings(pattern: &Expr, target: &Expr) -> bool {
    let mut bindings = HashMap::new();
    expr_matches(pattern, target, &mut bindings)
}

fn expr_matches<'t>(
    pattern: &Expr,
    target: &'t Expr,
    bindings: &mut HashMap<String, &'t Expr>,
) -> bool {
    match pattern {
        Expr::Name(n) if is_metavar(n) => match bindings.get(n) {
            Some(bound) => *bound == target,
            None => {
                bindings.insert(n.clone(), target);
                true
            }
        },
        Expr::Other(t) if t == "..." => true,
        Expr::Name(n) => matches!(target, Expr::Name(tn) if tn == n),
        Expr::Str(s) if s == "..." => matches!(target, Expr::Str(_)),
        Expr::Str(s) => matches!(target, Expr::Str(ts) if ts == s),
        Expr::Num(n) => matches!(target, Expr::Num(tn) if tn == n),
        Expr::Attribute { value, attr } => match target {
            Expr::Attribute {
                value: tv,
                attr: ta,
            } => attr == ta && expr_matches(value, tv, bindings),
            _ => false,
        },
        Expr::Call { func, args } => match target {
            Expr::Call { func: tf, args: ta } => {
                expr_matches(func, tf, bindings) && args_match(args, ta, bindings)
            }
            _ => false,
        },
        Expr::BinOp { left, op, right } => match target {
            Expr::BinOp {
                left: tl,
                op: to,
                right: tr,
            } => op == to && expr_matches(left, tl, bindings) && expr_matches(right, tr, bindings),
            _ => false,
        },
        Expr::Other(t) => match target {
            Expr::Other(tt) => t == tt,
            _ => *t == target.to_text(),
        },
    }
}

fn args_match<'t>(
    pattern: &[Arg],
    target: &'t [Arg],
    bindings: &mut HashMap<String, &'t Expr>,
) -> bool {
    let has_ellipsis = pattern
        .iter()
        .any(|a| a.name.is_none() && is_ellipsis(&a.value));

    // Keyword arguments: every pattern kwarg must match a target kwarg of
    // the same name.
    let pat_kwargs: Vec<&Arg> = pattern.iter().filter(|a| a.name.is_some()).collect();
    let tgt_kwargs: Vec<&Arg> = target.iter().filter(|a| a.name.is_some()).collect();
    for pk in &pat_kwargs {
        let name = pk.name.as_deref().expect("filtered on is_some");
        let Some(tk) = tgt_kwargs
            .iter()
            .find(|tk| tk.name.as_deref() == Some(name))
        else {
            return false;
        };
        if !expr_matches(&pk.value, &tk.value, bindings) {
            return false;
        }
    }
    if !has_ellipsis && tgt_kwargs.len() != pat_kwargs.len() {
        return false;
    }

    // Positional arguments: sequence match with ellipsis gaps.
    let pat_pos: Vec<&Arg> = pattern.iter().filter(|a| a.name.is_none()).collect();
    let tgt_pos: Vec<&Arg> = target.iter().filter(|a| a.name.is_none()).collect();
    seq_match(&pat_pos, &tgt_pos, bindings)
}

fn seq_match<'t>(
    pattern: &[&Arg],
    target: &[&'t Arg],
    bindings: &mut HashMap<String, &'t Expr>,
) -> bool {
    match pattern.split_first() {
        None => target.is_empty(),
        Some((first, rest)) if is_ellipsis(&first.value) => {
            // Ellipsis absorbs zero or more target args (backtracking).
            for skip in 0..=target.len() {
                let mut trial = bindings.clone();
                if seq_match(rest, &target[skip..], &mut trial) {
                    *bindings = trial;
                    return true;
                }
            }
            false
        }
        Some((first, rest)) => match target.split_first() {
            Some((tfirst, trest)) => {
                let mut trial = bindings.clone();
                if expr_matches(&first.value, &tfirst.value, &mut trial)
                    && seq_match(rest, trest, &mut trial)
                {
                    *bindings = trial;
                    true
                } else {
                    false
                }
            }
            None => false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{compile, CompiledSemgrepRules};
    use crate::scan_module;

    fn rule_with_pattern(pattern: &str) -> CompiledSemgrepRules {
        let src = format!(
            "rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: {pattern}\n"
        );
        compile(&src).expect("compile")
    }

    fn lines(pattern: &str, source: &str) -> Vec<usize> {
        let rules = rule_with_pattern(pattern);
        scan_module(&rules, &pysrc::parse_module(source))
            .into_iter()
            .map(|f| f.line)
            .collect()
    }

    #[test]
    fn exact_call_match() {
        assert_eq!(lines("os.system('id')", "os.system('id')\n"), vec![1]);
        assert!(lines("os.system('id')", "os.system('ls')\n").is_empty());
    }

    #[test]
    fn metavariable_matches_any_arg() {
        assert_eq!(lines("os.system($CMD)", "os.system(payload)\n"), vec![1]);
        assert_eq!(lines("os.system($CMD)", "os.system('rm -rf /')\n"), vec![1]);
    }

    #[test]
    fn metavariable_consistency() {
        // $X == $X requires both sides to be the same expression.
        let src_same = "check(a, a)\n";
        let src_diff = "check(a, b)\n";
        assert_eq!(lines("check($X, $X)", src_same), vec![1]);
        assert!(lines("check($X, $X)", src_diff).is_empty());
    }

    #[test]
    fn ellipsis_matches_any_args() {
        assert_eq!(
            lines(
                "subprocess.Popen(...)",
                "subprocess.Popen(cmd, shell=True)\n"
            ),
            vec![1]
        );
        assert_eq!(
            lines("subprocess.Popen(...)", "subprocess.Popen()\n"),
            vec![1]
        );
    }

    #[test]
    fn ellipsis_with_leading_arg() {
        assert_eq!(lines("f($A, ...)", "f(x, y, z)\n"), vec![1]);
        assert!(lines("f($A, ...)", "f()\n").is_empty());
    }

    #[test]
    fn keyword_argument_by_name() {
        let pat = "subprocess.Popen($CMD, shell=True)";
        assert_eq!(lines(pat, "subprocess.Popen(c, shell=True)\n"), vec![1]);
        assert!(lines(pat, "subprocess.Popen(c, shell=False)\n").is_empty());
        assert!(lines(pat, "subprocess.Popen(c)\n").is_empty());
    }

    #[test]
    fn nested_call_pattern() {
        let pat = "exec(base64.b64decode($X))";
        assert_eq!(lines(pat, "exec(base64.b64decode(data))\n"), vec![1]);
        assert!(lines(pat, "exec(codecs.decode(data))\n").is_empty());
    }

    #[test]
    fn matches_inside_function_bodies() {
        let src = "def install():\n    os.system('curl x | sh')\n";
        assert_eq!(lines("os.system($X)", src), vec![2]);
    }

    #[test]
    fn matches_subexpression() {
        // The call appears as an argument of another call.
        let src = "print(os.system('id'))\n";
        assert_eq!(lines("os.system($X)", src), vec![1]);
    }

    #[test]
    fn assignment_pattern() {
        assert_eq!(
            lines("$VAR = requests.get(...)", "resp = requests.get(url)\n"),
            vec![1]
        );
        assert!(lines("$VAR = requests.get(...)", "resp = requests.post(url)\n").is_empty());
    }

    #[test]
    fn import_pattern() {
        assert_eq!(lines("import socket", "import socket\n"), vec![1]);
        assert_eq!(lines("import socket", "import os, socket\n"), vec![1]);
        assert!(lines("import socket", "import os\n").is_empty());
    }

    #[test]
    fn from_import_pattern() {
        assert_eq!(
            lines(
                "from subprocess import Popen",
                "from subprocess import Popen, PIPE\n"
            ),
            vec![1]
        );
    }

    #[test]
    fn metavariable_as_receiver() {
        assert_eq!(
            lines(
                "$CLIENT.torrents_info(torrent_hashes=$HASH)",
                "qb.torrents_info(torrent_hashes=h)\n"
            ),
            vec![1]
        );
    }

    #[test]
    fn multiple_matches_multiple_lines() {
        let src = "eval(a)\nx = 1\neval(b)\n";
        assert_eq!(lines("eval($X)", src), vec![1, 3]);
    }

    #[test]
    fn patterns_conjunction_requires_all() {
        let src = r#"
rules:
  - id: t
    languages: [python]
    message: m
    patterns:
      - pattern: import socket
      - pattern: $S.connect(...)
"#;
        let rules = compile(src).expect("compile");
        let m_yes = pysrc::parse_module("import socket\ns.connect(addr)\n");
        let m_no = pysrc::parse_module("import socket\n");
        assert_eq!(scan_module(&rules, &m_yes).len(), 1);
        assert!(scan_module(&rules, &m_no).is_empty());
    }

    #[test]
    fn pattern_not_suppresses() {
        let src = r#"
rules:
  - id: t
    languages: [python]
    message: m
    patterns:
      - pattern: open($F, 'w')
      - pattern-not: open('log.txt', 'w')
"#;
        let rules = compile(src).expect("compile");
        let hit = pysrc::parse_module("open(path, 'w')\n");
        let suppressed = pysrc::parse_module("open('log.txt', 'w')\n");
        assert_eq!(scan_module(&rules, &hit).len(), 1);
        assert!(scan_module(&rules, &suppressed).is_empty());
    }

    #[test]
    fn pattern_either_union() {
        let src = r#"
rules:
  - id: t
    languages: [python]
    message: m
    pattern-either:
      - pattern: eval($X)
      - pattern: exec($X)
"#;
        let rules = compile(src).expect("compile");
        let m = pysrc::parse_module("eval(a)\nexec(b)\n");
        assert_eq!(scan_module(&rules, &m).len(), 2);
    }

    #[test]
    fn findings_deduplicated() {
        // Same line matched through two sub-expressions reports once.
        let src = "f(g(h(x)))\n";
        let rules = rule_with_pattern("h($X)");
        let m = pysrc::parse_module(src);
        assert_eq!(scan_module(&rules, &m).len(), 1);
    }

    #[test]
    fn finding_carries_rule_fields() {
        let rules = rule_with_pattern("eval($X)");
        let m = pysrc::parse_module("eval(x)\n");
        let f = &scan_module(&rules, &m)[0];
        assert_eq!(f.rule_id, "t");
        assert_eq!(f.message, "m");
        assert_eq!(f.severity, Severity::Warning);
    }

    #[test]
    fn encode_metavars_is_byte_faithful_for_non_ascii() {
        // The seed pushed bytes as chars, re-encoding non-ASCII content
        // as Latin-1 mojibake; patterns with non-ASCII string literals
        // must survive encoding byte-for-byte.
        assert_eq!(encode_metavars("log('héllo wörld')"), "log('héllo wörld')");
        assert_eq!(encode_metavars("f($X, 'héllo')"), "f(__MV_X, 'héllo')");
        assert_eq!(encode_metavars("送信($データ)"), "送信($データ)");
    }

    #[test]
    fn non_ascii_string_literal_pattern_matches() {
        assert_eq!(lines("log('héllo')", "log('héllo')\n"), vec![1]);
        assert!(lines("log('héllo')", "log('hello')\n").is_empty());
    }

    #[test]
    fn scan_time_never_reparses_pattern_text() {
        // Pattern parsing happens inside `compile`; matching afterwards
        // must not touch `pysrc::parse_module` on pattern text. The
        // reparse counter is maintained by the reference oracle only.
        let _guard = crate::reference::TEST_COUNTER_LOCK
            .lock()
            .expect("counter lock");
        let rules = rule_with_pattern("os.system($X)");
        let module = pysrc::parse_module("os.system('id')\n");
        let before = crate::reference::pattern_reparse_count();
        for _ in 0..10 {
            assert_eq!(scan_module(&rules, &module).len(), 1);
        }
        assert_eq!(crate::reference::pattern_reparse_count(), before);
        // The oracle, by contrast, re-parses once per leaf per call.
        let _ = crate::reference::match_module(&rules.rules[0], &module);
        assert_eq!(crate::reference::pattern_reparse_count(), before + 1);
    }

    #[test]
    fn anchors_classify_pattern_shapes() {
        let anchor = |pat: &str| compile_leaf(pat).anchor;
        assert_eq!(anchor("os.system($X)"), Anchor::Ident("system".into()));
        assert_eq!(anchor("eval($X)"), Anchor::Ident("eval".into()));
        assert_eq!(
            anchor("$V = requests.get(...)"),
            Anchor::Ident("get".into())
        );
        assert_eq!(anchor("import socket"), Anchor::ImportRoot("socket".into()));
        assert_eq!(
            anchor("from subprocess import Popen"),
            Anchor::FromImportModule("subprocess".into())
        );
        assert_eq!(anchor("$A($B)"), Anchor::Always);
        // Shapes the matcher never matches are dead on arrival.
        assert_eq!(anchor("def foo(): pass"), Anchor::Dead);
    }
}
