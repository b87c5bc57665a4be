//! Multi-rule single-pass matching: one AST walk serves every rule.
//!
//! [`MatchSet`] is built once per ruleset (per worker, like
//! `yara_engine::Scanner`) from the pattern ASTs that [`crate::compile`]
//! stored; construction parses nothing. During a scan the target module
//! is walked **once**, and each statement is dispatched only to the
//! pattern leaves whose [anchor](crate::matcher) facts it exhibits —
//! call-head / attribute / name identifiers, import roots, `from`-import
//! modules — so most rules never touch most statements. Leaves without a
//! sound anchor are tested against every statement, preserving exact
//! equivalence with matching rule by rule (proven by the differential
//! property suite against [`crate::reference`]).
//!
//! All per-scan state lives in a caller-owned [`MatchScratch`] with
//! generation-stamped slots, so a long-lived worker allocates nothing on
//! the steady-state scan path.

use std::collections::HashMap;

use pysrc::{Expr, Module, Stmt};

use crate::matcher::{
    for_each_expr_root, stmt_matches, walk_statements, Anchor, CompiledOp, Finding,
};
use crate::rule::CompiledSemgrepRules;

/// Work counters for one [`MatchSet::match_module_set`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SemgrepMetrics {
    /// Statements visited by the single module walk.
    pub stmts_visited: u64,
    /// Pattern-leaf structural match attempts actually performed (after
    /// anchor dispatch and routing filtered the rest).
    pub leaf_tests: u64,
    /// Pattern-text re-parses on the scan path. The compiled engine is
    /// structurally parse-free (it matches stored ASTs), so this stays 0
    /// by construction; the field is the hub's reporting surface, and the
    /// live tripwire for a reintroduced scan-path parse is the
    /// process-global [`crate::reference::pattern_reparse_count`], which
    /// `tests/serving_invariants.rs` asserts does not move during a hub
    /// run.
    pub pattern_reparses: u64,
}

impl SemgrepMetrics {
    /// Accumulates another pass's counters.
    pub fn absorb(&mut self, other: SemgrepMetrics) {
        self.stmts_visited += other.stmts_visited;
        self.leaf_tests += other.leaf_tests;
        self.pattern_reparses += other.pattern_reparses;
    }
}

/// One dispatchable pre-parsed leaf.
struct LeafEntry<'r> {
    stmt: &'r Stmt,
    rule: usize,
}

/// A rule's operator tree with leaves resolved to [`LeafEntry`] indices.
enum Node {
    Leaf(usize),
    /// A leaf that can never match (unparsable text, unmodelled shape).
    Dead,
    All(Vec<Node>),
    Either(Vec<Node>),
    Not(Box<Node>),
}

/// A compiled multi-rule matcher over one ruleset.
///
/// # Examples
///
/// ```
/// let rules = semgrep_engine::compile(
///     "rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: eval($X)\n",
/// )?;
/// let set = semgrep_engine::MatchSet::new(&rules);
/// let mut scratch = semgrep_engine::MatchScratch::default();
/// let module = pysrc::parse_module("eval(x)\n");
/// let (findings, metrics) = set.match_module_set(&module, |_| true, &mut scratch);
/// assert_eq!(findings.len(), 1);
/// assert_eq!(metrics.pattern_reparses, 0);
/// # Ok::<(), semgrep_engine::SemgrepError>(())
/// ```
pub struct MatchSet<'r> {
    rules: &'r CompiledSemgrepRules,
    leaves: Vec<LeafEntry<'r>>,
    trees: Vec<Node>,
    /// Identifier (call head, attribute, bare name) → anchored leaves.
    ident_index: HashMap<&'r str, Vec<u32>>,
    /// Dotted module path → `import` pattern leaves.
    import_index: HashMap<&'r str, Vec<u32>>,
    /// Module path → `from X import` pattern leaves.
    from_import_index: HashMap<&'r str, Vec<u32>>,
    /// Leaves with no sound anchor: tested against every statement.
    always: Vec<u32>,
}

/// Reusable per-worker scratch for [`MatchSet::match_module_set`].
///
/// Slots are invalidated by generation stamps instead of clearing, so a
/// reused scratch costs zero writes per scan beyond the slots actually
/// touched; after warm-up the scan path performs no allocation.
#[derive(Debug, Default)]
pub struct MatchScratch {
    /// Current scan generation; `leaf_lines[i]` is valid iff
    /// `line_stamps[i] == scan_gen`.
    scan_gen: u64,
    line_stamps: Vec<u64>,
    leaf_lines: Vec<Vec<usize>>,
    /// Current statement generation; a leaf is tested at most once per
    /// statement (`tried[i] == stmt_gen` marks it done).
    stmt_gen: u64,
    tried: Vec<u64>,
}

impl MatchScratch {
    /// Creates an empty scratch (sized lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, n_leaves: usize) {
        self.scan_gen += 1;
        if self.line_stamps.len() < n_leaves {
            self.line_stamps.resize(n_leaves, 0);
            self.leaf_lines.resize_with(n_leaves, Vec::new);
            self.tried.resize(n_leaves, 0);
        }
    }

    fn lines(&self, leaf: usize) -> &[usize] {
        if self.line_stamps[leaf] == self.scan_gen {
            &self.leaf_lines[leaf]
        } else {
            &[]
        }
    }
}

impl<'r> MatchSet<'r> {
    /// Builds the anchor index over `rules`. No pattern text is parsed —
    /// the leaves were compiled by [`crate::compile`].
    pub fn new(rules: &'r CompiledSemgrepRules) -> Self {
        let mut set = MatchSet {
            rules,
            leaves: Vec::new(),
            trees: Vec::with_capacity(rules.rules.len()),
            ident_index: HashMap::new(),
            import_index: HashMap::new(),
            from_import_index: HashMap::new(),
            always: Vec::new(),
        };
        for (ri, rule) in rules.rules.iter().enumerate() {
            let tree = set.build_node(&rule.compiled.op, ri);
            set.trees.push(tree);
        }
        set
    }

    fn build_node(&mut self, op: &'r CompiledOp, rule: usize) -> Node {
        match op {
            CompiledOp::Leaf(leaf) => {
                let Some(stmt) = &leaf.stmt else {
                    return Node::Dead;
                };
                if leaf.anchor == Anchor::Dead {
                    return Node::Dead;
                }
                let id = self.leaves.len() as u32;
                self.leaves.push(LeafEntry { stmt, rule });
                match &leaf.anchor {
                    Anchor::Ident(name) => {
                        self.ident_index.entry(name).or_default().push(id);
                    }
                    Anchor::ImportRoot(path) => {
                        self.import_index.entry(path).or_default().push(id);
                    }
                    Anchor::FromImportModule(path) => {
                        self.from_import_index.entry(path).or_default().push(id);
                    }
                    Anchor::Always => self.always.push(id),
                    Anchor::Dead => unreachable!("handled above"),
                }
                Node::Leaf(id as usize)
            }
            CompiledOp::All(children) => {
                Node::All(children.iter().map(|c| self.build_node(c, rule)).collect())
            }
            CompiledOp::Either(children) => {
                Node::Either(children.iter().map(|c| self.build_node(c, rule)).collect())
            }
            CompiledOp::Not(inner) => Node::Not(Box::new(self.build_node(inner, rule))),
        }
    }

    /// Number of dispatchable pattern leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Number of leaves lacking a sound anchor (tested per statement).
    pub fn always_on_count(&self) -> usize {
        self.always.len()
    }

    /// Matches every rule selected by `include` (called with each rule's
    /// file-order index) against `module` in a single AST walk.
    ///
    /// Findings are identical to running
    /// [`crate::reference::match_module`] per selected rule, in rule
    /// order with lines ascending.
    pub fn match_module_set(
        &self,
        module: &Module,
        include: impl Fn(usize) -> bool,
        scratch: &mut MatchScratch,
    ) -> (Vec<Finding>, SemgrepMetrics) {
        let mut out = Vec::new();
        let metrics = self.match_module_set_into(module, include, scratch, &mut out);
        (out, metrics)
    }

    /// Like [`MatchSet::match_module_set`], appending findings to a
    /// caller-owned buffer (the hub reuses one per worker).
    pub fn match_module_set_into(
        &self,
        module: &Module,
        include: impl Fn(usize) -> bool,
        scratch: &mut MatchScratch,
        out: &mut Vec<Finding>,
    ) -> SemgrepMetrics {
        scratch.begin(self.leaves.len());
        let mut metrics = SemgrepMetrics::default();
        walk_statements(&module.body, &mut |stmt| {
            metrics.stmts_visited += 1;
            scratch.stmt_gen += 1;
            for i in 0..self.always.len() {
                self.try_leaf(self.always[i], stmt, &include, scratch, &mut metrics);
            }
            match stmt {
                Stmt::Import { modules, .. } => {
                    for m in modules {
                        if let Some(ids) = self.import_index.get(m.path.as_str()) {
                            for &id in ids {
                                self.try_leaf(id, stmt, &include, scratch, &mut metrics);
                            }
                        }
                    }
                }
                Stmt::FromImport { module, .. } => {
                    if let Some(ids) = self.from_import_index.get(module.as_str()) {
                        for &id in ids {
                            self.try_leaf(id, stmt, &include, scratch, &mut metrics);
                        }
                    }
                }
                _ => {}
            }
            for_each_expr_root(stmt, &mut |root| {
                walk_idents(root, &mut |ident| {
                    if let Some(ids) = self.ident_index.get(ident) {
                        for &id in ids {
                            self.try_leaf(id, stmt, &include, scratch, &mut metrics);
                        }
                    }
                });
            });
        });
        for (ri, rule) in self.rules.rules.iter().enumerate() {
            if !include(ri) {
                continue;
            }
            let mut lines = eval_tree(&self.trees[ri], scratch);
            if lines.is_empty() {
                continue;
            }
            lines.sort_unstable();
            lines.dedup();
            out.extend(lines.into_iter().map(|line| Finding {
                rule_id: rule.id.clone(),
                line,
                message: rule.message.clone(),
                severity: rule.severity,
            }));
        }
        metrics
    }

    fn try_leaf(
        &self,
        id: u32,
        stmt: &Stmt,
        include: &impl Fn(usize) -> bool,
        scratch: &mut MatchScratch,
        metrics: &mut SemgrepMetrics,
    ) {
        let li = id as usize;
        // A statement can surface the same anchor several times (nested
        // calls); test each leaf once per statement.
        if scratch.tried[li] == scratch.stmt_gen {
            return;
        }
        scratch.tried[li] = scratch.stmt_gen;
        let entry = &self.leaves[li];
        if !include(entry.rule) {
            return;
        }
        metrics.leaf_tests += 1;
        if stmt_matches(entry.stmt, stmt) {
            if scratch.line_stamps[li] != scratch.scan_gen {
                scratch.line_stamps[li] = scratch.scan_gen;
                scratch.leaf_lines[li].clear();
            }
            scratch.leaf_lines[li].push(stmt.line());
        }
    }
}

/// Evaluates one rule's tree to its matching lines over the per-leaf
/// line sets gathered during the walk. The conjunction semantics live
/// here and in the intentionally frozen oracle copy in
/// [`crate::reference`].
fn eval_tree(node: &Node, scratch: &MatchScratch) -> Vec<usize> {
    match node {
        Node::Leaf(li) => scratch.lines(*li).to_vec(),
        Node::Dead => Vec::new(),
        Node::Either(children) => {
            let mut out = Vec::new();
            for c in children {
                out.extend(eval_tree(c, scratch));
            }
            out
        }
        Node::All(children) => {
            // Conjunction: every positive child must match somewhere and no
            // negative child may match anywhere; findings are reported at
            // the first positive child's lines (a file-level approximation
            // of semgrep's range intersection).
            let mut result: Option<Vec<usize>> = None;
            for c in children {
                if let Node::Not(inner) = c {
                    if !eval_tree(inner, scratch).is_empty() {
                        return Vec::new();
                    }
                } else {
                    let lines = eval_tree(c, scratch);
                    if lines.is_empty() {
                        return Vec::new();
                    }
                    if result.is_none() {
                        result = Some(lines);
                    }
                }
            }
            result.unwrap_or_default()
        }
        // A top-level bare `pattern-not` (degenerate, but the LLM can
        // produce it): matches nothing on its own.
        Node::Not(_) => Vec::new(),
    }
}

/// Yields every identifier a statement's expressions expose: bare names,
/// attribute names, callee heads — the facts [`Anchor::Ident`] keys on.
fn walk_idents<'a>(expr: &'a Expr, f: &mut impl FnMut(&'a str)) {
    match expr {
        Expr::Name(n) => f(n),
        Expr::Attribute { value, attr } => {
            f(attr);
            walk_idents(value, f);
        }
        Expr::Call { func, args } => {
            walk_idents(func, f);
            for a in args {
                walk_idents(&a.value, f);
            }
        }
        Expr::BinOp { left, right, .. } => {
            walk_idents(left, f);
            walk_idents(right, f);
        }
        Expr::Str(_) | Expr::Num(_) | Expr::Other(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::compile;

    const POOL: &str = r#"
rules:
  - id: sys
    languages: [python]
    message: m
    pattern: os.system($X)
  - id: dyn
    languages: [python]
    message: m
    pattern-either:
      - pattern: eval($X)
      - pattern: exec($X)
  - id: conj
    languages: [python]
    message: m
    patterns:
      - pattern: open($F, 'w')
      - pattern-not: open('log.txt', 'w')
  - id: opaque
    languages: [python]
    message: m
    pattern: $A(marker_zz)
  - id: imp
    languages: [python]
    message: m
    pattern: import socket
  - id: fromimp
    languages: [python]
    message: m
    pattern: from subprocess import Popen
"#;

    fn ids_and_lines(findings: &[Finding]) -> Vec<(String, usize)> {
        findings
            .iter()
            .map(|f| (f.rule_id.clone(), f.line))
            .collect()
    }

    #[test]
    fn set_matches_equal_per_rule_matches() {
        let _guard = crate::reference::TEST_COUNTER_LOCK
            .lock()
            .expect("counter lock");
        let rules = compile(POOL).expect("compile");
        let set = MatchSet::new(&rules);
        let mut scratch = MatchScratch::new();
        for src in [
            "import os\nos.system('id')\n",
            "eval(a)\nexec(b)\n",
            "open(p, 'w')\n",
            "open('log.txt', 'w')\n",
            "f(marker_zz)\n",
            "import os, socket\nfrom subprocess import Popen, PIPE\n",
            "print('clean')\n",
            "def f():\n    os.system(x)\n    return eval(y)\n",
        ] {
            let module = pysrc::parse_module(src);
            let (set_findings, metrics) = set.match_module_set(&module, |_| true, &mut scratch);
            let mut per_rule = Vec::new();
            for rule in &rules.rules {
                per_rule.extend(crate::reference::match_module(rule, &module));
            }
            assert_eq!(
                ids_and_lines(&set_findings),
                ids_and_lines(&per_rule),
                "divergence on {src:?}"
            );
            assert_eq!(metrics.pattern_reparses, 0);
        }
    }

    #[test]
    fn include_filters_rules_exactly() {
        let _guard = crate::reference::TEST_COUNTER_LOCK
            .lock()
            .expect("counter lock");
        let rules = compile(POOL).expect("compile");
        let set = MatchSet::new(&rules);
        let mut scratch = MatchScratch::new();
        let module = pysrc::parse_module("os.system('id')\neval(a)\nimport socket\n");
        for mask in 0u32..(1 << 6) {
            let include = |ri: usize| mask & (1 << ri) != 0;
            let (got, _) = set.match_module_set(&module, include, &mut scratch);
            let mut want = Vec::new();
            for (ri, rule) in rules.rules.iter().enumerate() {
                if include(ri) {
                    want.extend(crate::reference::match_module(rule, &module));
                }
            }
            assert_eq!(ids_and_lines(&got), ids_and_lines(&want), "mask {mask:b}");
        }
    }

    #[test]
    fn scratch_reuse_is_stateless_across_modules() {
        let rules = compile(POOL).expect("compile");
        let set = MatchSet::new(&rules);
        let mut reused = MatchScratch::new();
        let hot = pysrc::parse_module("os.system('id')\neval(a)\n");
        let cold = pysrc::parse_module("print('clean')\n");
        let (hot1, _) = set.match_module_set(&hot, |_| true, &mut reused);
        // A clean module scanned with the dirty scratch must find nothing.
        let (cold1, _) = set.match_module_set(&cold, |_| true, &mut reused);
        assert!(cold1.is_empty(), "stale leaf lines leaked: {cold1:?}");
        let (hot2, _) = set.match_module_set(&hot, |_| true, &mut reused);
        assert_eq!(ids_and_lines(&hot1), ids_and_lines(&hot2));
    }

    #[test]
    fn anchor_dispatch_skips_unrelated_leaves() {
        let rules = compile(POOL).expect("compile");
        let set = MatchSet::new(&rules);
        assert_eq!(set.leaf_count(), 8);
        // Only `opaque` ($A(...)) lacks an anchor.
        assert_eq!(set.always_on_count(), 1);
        let mut scratch = MatchScratch::new();
        let module = pysrc::parse_module("print('hello')\nx = 1\n");
        let (findings, metrics) = set.match_module_set(&module, |_| true, &mut scratch);
        assert!(findings.is_empty());
        // Two statements, and only the single always-on leaf was tested
        // on each: anchored leaves never ran.
        assert_eq!(metrics.stmts_visited, 2);
        assert_eq!(metrics.leaf_tests, 2);
    }

    #[test]
    fn repeated_anchor_tests_leaf_once_per_statement() {
        let rules = compile(
            "rules:\n  - id: t\n    languages: [python]\n    message: m\n    pattern: h($X)\n",
        )
        .expect("compile");
        let set = MatchSet::new(&rules);
        let mut scratch = MatchScratch::new();
        // `h` appears three times in one statement's expressions.
        let module = pysrc::parse_module("h(h(h(x)))\n");
        let (findings, metrics) = set.match_module_set(&module, |_| true, &mut scratch);
        assert_eq!(findings.len(), 1);
        assert_eq!(metrics.leaf_tests, 1);
    }

    #[test]
    fn metrics_absorb_accumulates() {
        let mut a = SemgrepMetrics {
            stmts_visited: 2,
            leaf_tests: 3,
            pattern_reparses: 0,
        };
        a.absorb(SemgrepMetrics {
            stmts_visited: 5,
            leaf_tests: 7,
            pattern_reparses: 1,
        });
        assert_eq!(a.stmts_visited, 7);
        assert_eq!(a.leaf_tests, 10);
        assert_eq!(a.pattern_reparses, 1);
    }
}
