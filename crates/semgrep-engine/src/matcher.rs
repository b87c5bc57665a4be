//! Structural pattern matching over the [`pysrc`] AST.
//!
//! Supports the Semgrep features the paper's generated rules use:
//! metavariables (`$X`, bound consistently within one pattern), ellipsis
//! arguments (`f(...)`, `f($A, ...)`), keyword arguments matched by name
//! (`subprocess.Popen($CMD, shell=True)`), dotted callee paths and
//! assignment patterns (`$VAR = requests.get(...)`).
//!
//! Pattern text is parsed **once, at rule-compile time** into a
//! [`CompiledPattern`] (metavariables encoded, the pattern kept as a
//! [`pysrc`] module); the scan path never calls [`pysrc::parse_module`] on
//! pattern text. A pattern's tree and a target's are different modules,
//! so names, literals, metavariable bindings, assignment targets and
//! `Other` text compare by text, never by span or id. This module holds
//! leaf compilation and anchors, statement matching and metavariable
//! encoding; the last two are also what the reparse-per-call oracle in
//! the `oracles` crate runs, through [`crate::internals`].

use std::ops::ControlFlow;

use pysrc::{Arg, Expr, Module, Stmt};

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
    /// The metavar-encoded pattern; its first statement is the one
    /// matched (a pattern without one never matches).
    pub(crate) pattern: Module,
    /// Dispatch anchor derived from that statement.
    pub(crate) anchor: Anchor,
}

/// A pattern-operator tree whose leaves are pre-parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CompiledOp {
    /// A single pre-parsed pattern.
    Leaf(Box<CompiledLeaf>),
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
        PatternOp::Pattern(text) => CompiledOp::Leaf(Box::new(compile_leaf(text))),
        PatternOp::All(children) => CompiledOp::All(children.iter().map(compile_op).collect()),
        PatternOp::Either(children) => {
            CompiledOp::Either(children.iter().map(compile_op).collect())
        }
        PatternOp::Not(inner) => CompiledOp::Not(Box::new(compile_op(inner))),
    }
}

pub(crate) fn compile_leaf(text: &str) -> CompiledLeaf {
    let pattern = pysrc::parse_module(&encode_metavars(text));
    let anchor = anchor_of(&pattern);
    CompiledLeaf { pattern, anchor }
}

/// The statement a pattern module matches with: its first.
pub fn pattern_stmt(pattern: &Module) -> Option<&Stmt> {
    pattern.top_level().next()
}

/// The dispatch anchor of a pattern (see [`Anchor`]). Soundness
/// contract: whenever [`stmt_matches`]`(pattern, target)` holds, the
/// anchor fact holds for `target`; for an identifier, because the index
/// and the matcher walk the same [`Stmt::root`] with [`Module::walk`].
fn anchor_of(pattern: &Module) -> Anchor {
    let Some(stmt) = pattern_stmt(pattern) else {
        return Anchor::Dead;
    };
    let src = pattern.source();
    match *stmt {
        // An expression pattern matches via a sub-expression of the
        // target; an assignment pattern requires its value to match the
        // target's value — both walk the target's expression roots.
        Stmt::Expr { value, .. } | Stmt::Assign { value, .. } => {
            expr_anchor(pattern, pattern.expr(value))
                .map_or(Anchor::Always, |a| Anchor::Ident(a.to_owned()))
        }
        Stmt::Import { modules, .. } => pattern
            .imports(modules)
            .first()
            .map_or(Anchor::Always, |m| {
                Anchor::ImportRoot(m.path.dotted(src).into_owned())
            }),
        Stmt::FromImport { module, .. } => {
            Anchor::FromImportModule(module.dotted(src).into_owned())
        }
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
fn expr_anchor<'s>(pattern: &'s Module, expr: &Expr) -> Option<&'s str> {
    let src = pattern.source();
    match *expr {
        // A call pattern requires the target to be a call whose callee
        // matches the pattern's callee.
        Expr::Call { func, .. } => expr_anchor(pattern, pattern.expr(func)),
        // `expr_matches` requires the target attribute name to be equal.
        Expr::Attribute { attr, .. } => Some(attr.text(src)),
        Expr::Name(n) if !is_metavar(n.text(src)) => Some(n.text(src)),
        _ => None,
    }
}

/// Replaces `$NAME` with `__MV_NAME` so the Python parser accepts the
/// pattern text. Byte-faithful outside the rewritten metavariable
/// sigils: non-ASCII pattern content (string literals, comments) passes
/// through unchanged.
pub fn encode_metavars(pattern: &str) -> String {
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

fn is_ellipsis(m: &Module, expr: &Expr) -> bool {
    matches!(*expr, Expr::Other(t) if m.owned(t) == "...")
}

/// The modules a pattern statement and a target statement belong to.
#[derive(Clone, Copy)]
pub struct Trees<'s> {
    /// The pattern statement's module.
    pub pattern: &'s Module,
    /// The target statement's module.
    pub target: &'s Module,
}

/// Whether `target` matches the pattern statement `pattern` (see the
/// module docs for the supported shapes).
pub fn stmt_matches(pattern: &Stmt, target: &Stmt, trees: Trees<'_>) -> bool {
    let (pm, tm) = (trees.pattern, trees.target);
    let (ps, ts) = (pm.source(), tm.source());
    match (*pattern, *target) {
        (Stmt::Expr { value: pv, .. }, _) => {
            // An expression pattern matches any statement containing a
            // matching sub-expression, tried outermost first.
            let (pv, mut bindings) = (pm.expr(pv), Bindings::default());
            target.root().is_some_and(|root| {
                tm.walk(root, &mut |te| {
                    bindings.undo(0);
                    if expr_matches(pv, te, trees, &mut bindings) {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                })
                .is_break()
            })
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
            // Targets compare as rendered; one whose leftmost leaf
            // starts with a metavariable matches any.
            let metavar_head = |p| match *pm.head(p) {
                Expr::Name(n) => is_metavar(n.text(ps)),
                Expr::Other(t) => is_metavar(pm.owned(t)),
                _ => false,
            };
            let target_ok = pm.targets(pt).all(|p| {
                metavar_head(p) || {
                    let p = p.to_text(pm);
                    tm.targets(tt).any(|t| t.to_text(tm) == p)
                }
            });
            let mut bindings = Bindings::default();
            target_ok && expr_matches(pm.expr(pv), tm.expr(tv), trees, &mut bindings)
        }
        (Stmt::Import { modules: pn, .. }, Stmt::Import { modules: tn, .. }) => {
            // Compare module paths only: `import os` matches
            // `import os as o` — the alias changes the binding, not
            // which module the package pulls in.
            pm.imports(pn).iter().all(|m| {
                tm.imports(tn)
                    .iter()
                    .any(|t| t.path.dotted(ts) == m.path.dotted(ps))
            })
        }
        (
            Stmt::FromImport {
                module: pf,
                names: pn,
                ..
            },
            Stmt::FromImport {
                module: tf,
                names: tn,
                ..
            },
        ) => {
            pf.dotted(ps) == tf.dotted(ts)
                && pm.imports(pn).iter().all(|n| {
                    let name = n.path.text(ps);
                    name == "*" || tm.imports(tn).iter().any(|t| t.path.text(ts) == name)
                })
        }
        (Stmt::Other { text: pt, .. }, _) => {
            // Fallback for pattern shapes the lightweight parser didn't
            // model: textual containment on the reconstructed statement.
            let pt = pm.owned(pt);
            !pt.is_empty() && target.to_text(tm).contains(pt)
        }
        _ => false,
    }
}

/// Metavariables this many or fewer are bound without allocating.
const INLINE_BINDINGS: usize = 8;

/// Metavariable bindings (name → bound target expression) as an undo log
/// that a failed trial truncates back to its mark. The first
/// [`INLINE_BINDINGS`] are held inline; only more spill to the heap.
#[derive(Default)]
struct Bindings<'a> {
    len: usize,
    inline: [Option<(&'a str, &'a Expr)>; INLINE_BINDINGS],
    spill: Vec<(&'a str, &'a Expr)>,
}

impl<'a> Bindings<'a> {
    fn get(&self, name: &str) -> Option<&'a Expr> {
        let inline = self.inline[..self.len.min(INLINE_BINDINGS)]
            .iter()
            .flatten();
        inline
            .chain(&self.spill)
            .find(|(n, _)| *n == name)
            .map(|&(_, e)| e)
    }

    fn bind(&mut self, name: &'a str, expr: &'a Expr) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = Some((name, expr)),
            None => self.spill.push((name, expr)),
        }
        self.len += 1;
    }

    /// Drops every binding made since the log was `mark` entries long.
    fn undo(&mut self, mark: usize) {
        self.len = mark;
        self.spill.truncate(mark.saturating_sub(INLINE_BINDINGS));
    }
}

fn expr_matches<'a>(
    pattern: &'a Expr,
    target: &'a Expr,
    trees: Trees<'a>,
    bindings: &mut Bindings<'a>,
) -> bool {
    let (pm, tm) = (trees.pattern, trees.target);
    let (ps, ts) = (pm.source(), tm.source());
    match *pattern {
        Expr::Name(n) if is_metavar(n.text(ps)) => match bindings.get(n.text(ps)) {
            Some(bound) => same_expr(tm, bound, target),
            None => {
                bindings.bind(n.text(ps), target);
                true
            }
        },
        Expr::Other(t) if pm.owned(t) == "..." => true,
        Expr::Name(n) => matches!(*target, Expr::Name(tn) if tn.text(ts) == n.text(ps)),
        Expr::Str(s) if s.text(pm) == "..." => matches!(target, Expr::Str(_)),
        Expr::Str(s) => matches!(*target, Expr::Str(t) if t.text(tm) == s.text(pm)),
        Expr::Num(n) => matches!(*target, Expr::Num(tn) if tn.text(ts) == n.text(ps)),
        Expr::Attribute { value, attr } => match *target {
            Expr::Attribute {
                value: tv,
                attr: ta,
            } => {
                attr.text(ps) == ta.text(ts)
                    && expr_matches(pm.expr(value), tm.expr(tv), trees, bindings)
            }
            _ => false,
        },
        Expr::Call { func, args } => match *target {
            Expr::Call { func: tf, args: ta } => {
                expr_matches(pm.expr(func), tm.expr(tf), trees, bindings)
                    && args_match(pm.args(args), tm.args(ta), trees, bindings)
            }
            _ => false,
        },
        Expr::BinOp { left, op, right } => match *target {
            Expr::BinOp {
                left: tl,
                op: to,
                right: tr,
            } => {
                op == to
                    && expr_matches(pm.expr(left), tm.expr(tl), trees, bindings)
                    && expr_matches(pm.expr(right), tm.expr(tr), trees, bindings)
            }
            _ => false,
        },
        Expr::Other(t) => match *target {
            Expr::Other(tt) => pm.owned(t) == tm.owned(tt),
            _ => pm.owned(t) == target.to_text(tm),
        },
    }
}

/// Whether two expressions of one module are the same expression, by
/// text.
fn same_expr(m: &Module, a: &Expr, b: &Expr) -> bool {
    let src = m.source();
    let same = |x, y| same_expr(m, m.expr(x), m.expr(y));
    match (*a, *b) {
        (Expr::Name(x), Expr::Name(y)) | (Expr::Num(x), Expr::Num(y)) => x.text(src) == y.text(src),
        (Expr::Str(x), Expr::Str(y)) => x.text(m) == y.text(m),
        (
            Expr::Attribute { value, attr },
            Expr::Attribute {
                value: bv,
                attr: ba,
            },
        ) => attr.text(src) == ba.text(src) && same(value, bv),
        (Expr::Call { func, args }, Expr::Call { func: bf, args: ba }) => {
            let (args, ba) = (m.args(args), m.args(ba));
            same(func, bf)
                && args.len() == ba.len()
                && args.iter().zip(ba).all(|(x, y)| {
                    x.name.map(|n| n.text(src)) == y.name.map(|n| n.text(src))
                        && same(x.value, y.value)
                })
        }
        (
            Expr::BinOp { left, op, right },
            Expr::BinOp {
                left: bl,
                op: bo,
                right: br,
            },
        ) => op == bo && same(left, bl) && same(right, br),
        (Expr::Other(x), Expr::Other(y)) => m.owned(x) == m.owned(y),
        _ => false,
    }
}

fn args_match<'a>(
    pattern: &'a [Arg],
    target: &'a [Arg],
    trees: Trees<'a>,
    bindings: &mut Bindings<'a>,
) -> bool {
    let (pm, tm) = (trees.pattern, trees.target);
    let has_ellipsis = pattern
        .iter()
        .any(|a| a.name.is_none() && is_ellipsis(pm, pm.expr(a.value)));

    // Keyword arguments: every pattern kwarg must match a target kwarg of
    // the same name.
    let name = |a: &Arg, m: &'a Module| a.name.map(|n| n.text(m.source()));
    let keywords = |args: &'a [Arg]| args.iter().filter(|a| a.name.is_some());
    for pk in keywords(pattern) {
        let Some(tk) = target.iter().find(|tk| name(tk, tm) == name(pk, pm)) else {
            return false;
        };
        if !expr_matches(pm.expr(pk.value), tm.expr(tk.value), trees, bindings) {
            return false;
        }
    }
    if !has_ellipsis && keywords(target).count() != keywords(pattern).count() {
        return false;
    }

    // Positional arguments: sequence match with ellipsis gaps.
    seq_match(pattern, target, trees, bindings)
}

/// `args` from its first positional argument on.
fn positional(args: &[Arg]) -> &[Arg] {
    let first = args.iter().position(|a| a.name.is_none());
    &args[first.unwrap_or(args.len())..]
}

/// Matches positional arguments in sequence, skipping keyword ones.
fn seq_match<'a>(
    pattern: &'a [Arg],
    target: &'a [Arg],
    trees: Trees<'a>,
    bindings: &mut Bindings<'a>,
) -> bool {
    let (pm, tm) = (trees.pattern, trees.target);
    let (pattern, mut target) = (positional(pattern), positional(target));
    match pattern.split_first() {
        None => target.is_empty(),
        Some((first, rest)) if is_ellipsis(pm, pm.expr(first.value)) => {
            // Ellipsis absorbs zero or more target args (backtracking).
            let mark = bindings.len;
            loop {
                if seq_match(rest, target, trees, bindings) {
                    return true;
                }
                bindings.undo(mark);
                let Some((_, tail)) = target.split_first() else {
                    return false;
                };
                target = positional(tail);
            }
        }
        Some((first, rest)) => target.split_first().is_some_and(|(tfirst, trest)| {
            expr_matches(pm.expr(first.value), tm.expr(tfirst.value), trees, bindings)
                && seq_match(rest, trest, trees, bindings)
        }),
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
