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
//! property suite against the seed's reparse-per-call matcher in the
//! `oracles` crate).
//!
//! All per-scan state lives in a caller-owned [`MatchScratch`] with
//! generation-stamped slots, and leaf tests bind metavariables in an
//! inline undo log, so a warm [`MatchSet::match_rules`] allocates nothing
//! and a warm [`MatchSet::match_module_set`] only its findings' rule ids
//! and messages (`tests/allocation_budget.rs` pins the count).
//!
//! A leaf matches one statement, so a file's leaf matches are a product
//! of the file that a later version can carry: [`MatchSet::file_matches`]
//! records them with the rules they fire ([`FileMatches`]), and across a
//! splice walks only the statements the edit inserted.

use std::collections::HashMap;

use pysrc::{Edit, Expr, Module, Stmt};

use crate::matcher::{expr_root, pattern_stmt, stmt_matches, Anchor, CompiledOp, Finding, Trees};
use crate::rule::CompiledSemgrepRules;

/// Work counters for one [`MatchSet::match_module_set`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SemgrepMetrics {
    /// Statements visited by the single module walk.
    pub stmts_visited: u64,
    /// Pattern-leaf structural match attempts actually performed (after
    /// anchor dispatch and routing filtered the rest).
    pub leaf_tests: u64,
}

/// A file's Semgrep product under one [`MatchSet`] (or one built from the
/// same rules, which numbers its leaves alike): every line each pattern
/// leaf matched on, and the rules whose trees those matches fire, every
/// rule included. What a request reads of a file is [`FileMatches::fired`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileMatches {
    /// Each leaf match as `(leaf, line)`, sorted and distinct.
    leaves: Vec<(u32, u32)>,
    /// The indices of the rules that fire, ascending.
    fired: Vec<u32>,
}

impl FileMatches {
    /// The file-order indices of the rules whose trees fire on the file.
    pub fn fired(&self) -> &[u32] {
        &self.fired
    }

    /// Every leaf match as `(leaf index, 1-based line)`, sorted.
    pub fn leaf_lines(&self) -> &[(u32, u32)] {
        &self.leaves
    }

    /// The heap the product holds, each list at its capacity.
    pub fn heap_bytes(&self) -> usize {
        self.leaves.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.fired.capacity() * std::mem::size_of::<u32>()
    }
}

/// One dispatchable pre-parsed leaf: its statement and the module that
/// holds it.
struct LeafEntry<'r> {
    stmt: &'r Stmt,
    pattern: &'r Module,
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
/// assert_eq!(metrics.stmts_visited, 1);
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
/// touched; after warm-up its slots are not reallocated.
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
    /// The lines of the rule tree being evaluated (see `eval_tree`).
    lines: Vec<usize>,
    /// The [`FileMatches`] being gathered, before they are copied out.
    leaf_matches: Vec<(u32, u32)>,
    fired: Vec<u32>,
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

    /// Notes that `leaf` matched on `line` in this scan.
    fn record(&mut self, leaf: usize, line: usize) {
        if self.line_stamps[leaf] != self.scan_gen {
            self.line_stamps[leaf] = self.scan_gen;
            self.leaf_lines[leaf].clear();
        }
        self.leaf_lines[leaf].push(line);
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
                let Some(stmt) = pattern_stmt(&leaf.pattern) else {
                    return Node::Dead;
                };
                if leaf.anchor == Anchor::Dead {
                    return Node::Dead;
                }
                let id = self.leaves.len() as u32;
                self.leaves.push(LeafEntry {
                    stmt,
                    pattern: &leaf.pattern,
                    rule,
                });
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

    /// The ruleset this set matches.
    pub fn rules(&self) -> &'r CompiledSemgrepRules {
        self.rules
    }

    /// Matches every rule selected by `include` (called with each rule's
    /// file-order index) against `module` in a single AST walk.
    ///
    /// Findings are identical to running the seed's reparse-per-call
    /// matcher per selected rule, in rule order with lines ascending.
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
        self.match_rules(module, include, scratch, |ri, lines| {
            let rule = &self.rules.rules[ri];
            out.extend(lines.iter().map(|&line| Finding {
                rule_id: rule.id.clone(),
                line,
                message: rule.message.clone(),
                severity: rule.severity,
            }));
        })
    }

    /// [`MatchSet::match_module_set`] without the findings: hands each
    /// matching rule's index and its lines (ascending, distinct) to
    /// `matched`, in rule order, allocating nothing once `scratch` is warm.
    pub fn match_rules(
        &self,
        module: &Module,
        include: impl Fn(usize) -> bool,
        scratch: &mut MatchScratch,
        matched: impl FnMut(usize, &[usize]),
    ) -> SemgrepMetrics {
        scratch.begin(self.leaves.len());
        let mut metrics = SemgrepMetrics::default();
        self.walk(module, module.statements(), &include, scratch, &mut metrics);
        self.eval_trees(include, scratch, matched);
        metrics
    }

    /// The matches of every rule on `module`, recorded as the file's
    /// product. With a `donor` — the product of the file `module` was
    /// spliced from, and the splice's edit — only the statements the edit
    /// inserted are walked: a leaf matches one statement, so the donor's
    /// leaf matches outside the old window, whose statements the splice
    /// copied, are carried, those behind it moved by the edit's lines.
    /// The rule trees are evaluated over the whole file either way: a
    /// `pattern-not` holds or fails for the file as a whole, so a rule
    /// can fire or stop firing on a line the edit did not touch. Equal to
    /// the product of a walk over every statement; a moved line that does
    /// not fit a `u32` walks every statement.
    pub fn file_matches(
        &self,
        module: &Module,
        donor: Option<(&FileMatches, &Edit)>,
        scratch: &mut MatchScratch,
    ) -> (FileMatches, SemgrepMetrics) {
        scratch.begin(self.leaves.len());
        let carried = donor.and_then(|(donor, edit)| {
            let window =
                |line: usize| line >= edit.first_line && (edit.to_end || line < edit.old_end_line);
            for &(leaf, line) in &donor.leaves {
                if !window(line as usize) {
                    scratch.record(leaf as usize, edit.moved_line(line)? as usize);
                }
            }
            Some(module.statements_in(edit.inserted))
        });
        let stmts = carried.unwrap_or_else(|| {
            scratch.begin(self.leaves.len());
            module.statements()
        });
        let mut metrics = SemgrepMetrics::default();
        let all = |_: usize| true;
        self.walk(module, stmts, &all, scratch, &mut metrics);
        let mut leaves = std::mem::take(&mut scratch.leaf_matches);
        leaves.clear();
        for leaf in 0..self.leaves.len() {
            let at = |&line: &usize| (leaf as u32, u32::try_from(line).unwrap_or(u32::MAX));
            leaves.extend(scratch.lines(leaf).iter().map(at));
        }
        leaves.sort_unstable();
        leaves.dedup();
        let mut fired = std::mem::take(&mut scratch.fired);
        fired.clear();
        self.eval_trees(all, scratch, |ri, _| fired.push(ri as u32));
        let matches = FileMatches {
            leaves: leaves.to_vec(),
            fired: fired.to_vec(),
        };
        (scratch.leaf_matches, scratch.fired) = (leaves, fired);
        (matches, metrics)
    }

    /// Tests each of `stmts`, statements of `module`, against the leaves
    /// its anchors select, noting each leaf's lines in `scratch`.
    fn walk(
        &self,
        module: &Module,
        stmts: &[Stmt],
        include: &impl Fn(usize) -> bool,
        scratch: &mut MatchScratch,
        metrics: &mut SemgrepMetrics,
    ) {
        let src = module.source();
        for stmt in stmts {
            metrics.stmts_visited += 1;
            scratch.stmt_gen += 1;
            let mut try_leaves = |ids: &[u32], scratch: &mut MatchScratch| {
                for &id in ids {
                    self.try_leaf(id, module, stmt, include, scratch, metrics);
                }
            };
            try_leaves(&self.always, scratch);
            match *stmt {
                Stmt::Import { modules, .. } => {
                    for m in module.imports(modules) {
                        if let Some(ids) = self.import_index.get(&*m.path.dotted(src)) {
                            try_leaves(ids, scratch);
                        }
                    }
                }
                Stmt::FromImport { module: from, .. } => {
                    if let Some(ids) = self.from_import_index.get(&*from.dotted(src)) {
                        try_leaves(ids, scratch);
                    }
                }
                _ => {}
            }
            if let Some(root) = expr_root(module, stmt) {
                walk_idents(module, root, &mut |ident| {
                    if let Some(ids) = self.ident_index.get(ident) {
                        try_leaves(ids, scratch);
                    }
                });
            }
        }
    }

    /// Evaluates the tree of every rule `include` selects over the leaf
    /// lines in `scratch`, handing each matching rule's index and lines
    /// (ascending, distinct) to `matched`, in rule order.
    fn eval_trees(
        &self,
        include: impl Fn(usize) -> bool,
        scratch: &mut MatchScratch,
        mut matched: impl FnMut(usize, &[usize]),
    ) {
        let mut lines = std::mem::take(&mut scratch.lines);
        for (ri, tree) in self.trees.iter().enumerate().filter(|(ri, _)| include(*ri)) {
            lines.clear();
            eval_tree(tree, scratch, &mut lines);
            if !lines.is_empty() {
                lines.sort_unstable();
                lines.dedup();
                matched(ri, &lines);
            }
        }
        scratch.lines = lines;
    }

    fn try_leaf(
        &self,
        id: u32,
        module: &Module,
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
        let trees = Trees {
            pattern: entry.pattern,
            target: module,
        };
        if stmt_matches(entry.stmt, stmt, trees) {
            scratch.record(li, module.line(stmt));
        }
    }
}

/// Appends one rule tree's matching lines to `out` from the leaf lines of
/// the walk, truncating what a subtree appended once its verdict is read.
/// The conjunction semantics live here and in the intentionally frozen
/// oracle copy in the `oracles` crate.
fn eval_tree(node: &Node, scratch: &MatchScratch, out: &mut Vec<usize>) {
    match node {
        Node::Leaf(li) => out.extend_from_slice(scratch.lines(*li)),
        Node::Dead => {}
        Node::Either(children) => children.iter().for_each(|c| eval_tree(c, scratch, out)),
        Node::All(children) => {
            // Conjunction: every positive child must match somewhere and no
            // negative child may match anywhere; findings are reported at
            // the first positive child's lines (a file-level approximation
            // of semgrep's range intersection).
            let (start, mut result) = (out.len(), false);
            for c in children {
                let mark = out.len();
                let (child, negated) = match c {
                    Node::Not(inner) => (&**inner, true),
                    c => (c, false),
                };
                eval_tree(child, scratch, out);
                let hit = out.len() > mark;
                if hit == negated {
                    out.truncate(start);
                    return;
                }
                if negated || result {
                    out.truncate(mark);
                }
                result |= !negated;
            }
        }
        // A top-level bare `pattern-not` (degenerate, but the LLM can
        // produce it): matches nothing on its own.
        Node::Not(_) => {}
    }
}

/// Yields every identifier a statement's expressions expose: bare names,
/// attribute names, callee heads — the facts [`Anchor::Ident`] keys on.
fn walk_idents<'a>(m: &'a Module, expr: &Expr, f: &mut impl FnMut(&'a str)) {
    let src = m.source();
    match *expr {
        Expr::Name(n) => f(n.text(src)),
        Expr::Attribute { value, attr } => {
            f(attr.text(src));
            walk_idents(m, m.expr(value), f);
        }
        Expr::Call { func, args } => {
            walk_idents(m, m.expr(func), f);
            for a in m.args(args) {
                walk_idents(m, m.expr(a.value), f);
            }
        }
        Expr::BinOp { left, right, .. } => {
            walk_idents(m, m.expr(left), f);
            walk_idents(m, m.expr(right), f);
        }
        Expr::Str(_) | Expr::Num(_) | Expr::Other(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::compile;

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

    /// `new`, spliced onto `old` by replacing `old[start..old_end]`: the
    /// donor module, the spliced one (checked against `new`'s full parse)
    /// and the edit.
    fn spliced(old: &str, new: &str, start: usize, old_end: usize) -> (Module, Module, Edit) {
        let donor = pysrc::parse_module(old);
        let edit = Edit::new(&donor, new, start, old_end).expect("the window fits");
        let tokens = pysrc::lex_window(new, start, edit.new_end, edit.first_line).tokens;
        let (module, edit) = pysrc::parse_spliced(new, &tokens, Some(&donor), edit);
        assert_eq!(module, pysrc::parse_module(new), "{new:?}");
        (donor, module, edit)
    }

    /// A product carried across an edit is the product of a walk over the
    /// edited file: a `pattern-not` an inserted line trips unfires a rule
    /// whose match the edit did not touch, and a window that runs to an
    /// end with no newline drops its last line's matches.
    #[test]
    fn carried_matches_equal_a_fresh_walk() {
        let rules = compile(
            "rules:\n  - id: sys\n    languages: [python]\n    message: m\n    patterns:\n      - pattern: os.system($X)\n      - pattern-not: safe($Y)\n",
        )
        .expect("compile");
        let set = MatchSet::new(&rules);
        let mut scratch = MatchScratch::new();
        let cases = [
            (
                "import os\nos.system(a)\nx = 1\n",
                "import os\nos.system(a)\nsafe(b)\nx = 1\n",
                23,
                23,
                0,
            ),
            (
                "import os\nos.system(a)\nsafe(b)\nx = 1\n",
                "import os\nos.system(a)\nx = 1\n",
                23,
                31,
                1,
            ),
            ("import os\nos.system(a)", "import os\nx = 2", 10, 22, 0),
            (
                "x = 1\nos.system(a)\n",
                "import os\n\nx = 1\nos.system(a)\n",
                0,
                6,
                1,
            ),
        ];
        for (old, new, start, old_end, fired) in cases {
            let (donor, module, edit) = spliced(old, new, start, old_end);
            let (before, _) = set.file_matches(&donor, None, &mut scratch);
            let (fresh, walked) = set.file_matches(&module, None, &mut scratch);
            let carry = Some((&before, &edit));
            let (carried, visited) = set.file_matches(&module, carry, &mut scratch);
            assert_eq!(carried, fresh, "{new:?}");
            assert_eq!(fresh.fired().len(), fired, "{new:?}");
            assert_eq!(visited.stmts_visited, edit.inserted.len() as u64, "{new:?}");
            assert_eq!(walked.stmts_visited, module.statements().len() as u64);
        }
    }
}
