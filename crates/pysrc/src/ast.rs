//! Lightweight Python AST, stored flat and pointing into its source.
//!
//! Only the shapes that rule matching needs are modelled precisely
//! (imports, defs, classes, calls, attributes, assignments, strings);
//! everything else degrades to [`Stmt::Other`] / [`Expr::Other`] so that
//! arbitrary malware source always produces *some* tree.
//!
//! # Spans and lines
//!
//! A [`Module`] owns its source text once, as an `Arc<str>`, and its nodes
//! hold [`Span`]s — `u32` byte ranges into that text — instead of copies:
//! names, attributes, numbers, parameters, def and class names, keyword
//! argument names and import paths. A [`Span`] is only meaningful against
//! the text of the module whose tree holds it, so every reader takes that
//! module alongside the node, and two trees parsed from different texts
//! compare by text, never by span. Two kinds of text are owned, in one
//! side buffer of the module ([`Module::owned`]): an [`Expr::Other`] /
//! [`Stmt::Other`] rendering (the degrade path, whose text is not a source
//! slice) and a string literal whose value differs from its bytes
//! ([`Literal::Owned`]).
//!
//! A statement carries the offset of its first token, not a line. The
//! module's [`LineIndex`] holds one entry per line start and maps an
//! offset to its 1-based line by binary search, counting `\n` only, as
//! the lexer does; a [`LineCursor`] answers ascending offsets by stepping
//! forward instead.
//!
//! # A few arrays
//!
//! The tree is not boxed. A module keeps its statements, expressions,
//! call arguments, assignment-target ids, parameter and base spans and
//! imported names in one array each, and a node names a child by its
//! index ([`StmtId`], [`ExprId`]) or a [`Run`] of consecutive entries;
//! [`Stmt`], [`Expr`], [`Arg`] and [`Header`] are plain `Copy` values. A
//! parse therefore allocates per array, not per node. Like a span, an id
//! or a run means something only to the module whose tree holds it:
//! another module's accessors panic on it or read an unrelated node.
//!
//! The statement and expression arrays are most of a module, so their
//! element sizes are pinned by compile-time assertions: a [`Stmt`] is 40
//! bytes and an [`Expr`] 16. A block's keyword and an operator are each a
//! one-byte [`Word`], an index into one static table of the keywords
//! and operators the tree keeps, which reads the same in every module.
//! A `&'static str` there would make them 56 and 32. Over the tiny
//! corpus a module takes 4.0 bytes per source byte.
//!
//! Statements are stored in pre-order — a statement, the statements of its
//! body, then its next sibling — so a compound statement's `body` is the
//! run of all its descendants, [`Module::suite`] steps over a body's
//! children, and [`Module::statements`] is every statement in walk order.
//! An expression is stored after its operands.
//!
//! The parser finishes one top-level statement's nodes before it starts
//! the next, so each top-level statement owns one contiguous run of every
//! array. Splicing an edit ([`crate::parse_spliced`]) copies three slices
//! per array: the donor's nodes in front of the edit as they are, the
//! window's, and the donor's behind it with ids rebased by the difference
//! in node counts and offsets moved by the byte delta.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::edit::Edit;

/// A byte range `start..end` of a module's source text.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Span {
    /// Offset of the first byte.
    pub start: u32,
    /// Offset one past the last byte.
    pub end: u32,
}

/// The bytes the lexer skips between the pieces of a dotted name:
/// whitespace and backslash continuations.
const GAP: [char; 5] = [' ', '\t', '\r', '\n', '\\'];

impl Span {
    /// The span `start..end`, saturating offsets that do not fit a `u32`.
    pub(crate) fn new(start: usize, end: usize) -> Span {
        Span {
            start: offset(start),
            end: offset(end),
        }
    }

    /// The text of `src` the span covers; empty when it does not fall in
    /// `src` on character boundaries.
    pub fn text(self, src: &str) -> &str {
        src.get(self.start as usize..self.end as usize)
            .unwrap_or_default()
    }

    /// The text of a dotted name (`os . path`) as the parser reads it,
    /// without the whitespace and continuations between its pieces
    /// (`os.path`). Borrowed unless there are any.
    pub fn dotted(self, src: &str) -> Cow<'_, str> {
        let text = self.text(src);
        if text.contains(GAP) {
            let mut out = String::new();
            self.write_dotted(src, &mut out);
            Cow::Owned(out)
        } else {
            Cow::Borrowed(text)
        }
    }

    /// Appends [`Span::dotted`]'s text to `out`.
    pub fn write_dotted(self, src: &str, out: &mut String) {
        out.extend(self.text(src).chars().filter(|c| !GAP.contains(c)));
    }

    /// This span `by` bytes further into its text.
    fn moved(self, by: isize) -> Span {
        Span {
            start: moved(self.start, by),
            end: moved(self.end, by),
        }
    }
}

/// `offset` as a span offset, saturating past `u32::MAX` (such a span
/// slices to nothing rather than to the wrong text).
pub(crate) fn offset(offset: usize) -> u32 {
    u32::try_from(offset).unwrap_or(u32::MAX)
}

/// `at` moved `by` bytes, saturating like [`offset`].
fn moved(at: u32, by: isize) -> u32 {
    offset((at as usize).checked_add_signed(by).unwrap_or(usize::MAX))
}

/// The index of a statement in its module's statement array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmtId(u32);

/// The index of an expression in its module's expression array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(u32);

/// A run of consecutive entries of one of a module's arrays; which one
/// is fixed by the field that holds it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Run {
    start: u32,
    end: u32,
}

impl Run {
    pub(crate) fn new(start: usize, end: usize) -> Run {
        Run {
            start: offset(start),
            end: offset(end),
        }
    }

    /// How many entries the run covers.
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the run covers no entry.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// The indices of the entries the run covers.
    pub fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }

    fn plus(self, by: u32) -> Run {
        Run {
            start: self.start.wrapping_add(by),
            end: self.end.wrapping_add(by),
        }
    }
}

/// The start offset of every line of a text, for offset → line lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineIndex {
    /// `starts[i]` is the offset of line `i + 1`; `starts[0]` is 0.
    starts: Vec<u32>,
}

impl LineIndex {
    /// Indexes `text`, reading only the new window of the `edit` from
    /// `donor` (a previous version of `text`, as in
    /// [`crate::parse_spliced`]; none for [`Edit::whole`]): the line
    /// starts in front of the window are the donor's, those behind it the
    /// donor's moved by the edit's byte delta. One allocation, sized by
    /// the edit's line delta.
    pub(crate) fn new(text: &str, donor: Option<&LineIndex>, edit: &Edit) -> LineIndex {
        let old: &[u32] = donor.map_or(&[0], |d| &d.starts);
        let lines = old.len().checked_add_signed(edit.line_delta).unwrap_or(0);
        let mut starts = Vec::with_capacity(lines);
        starts.extend_from_slice(&old[..edit.first_line]);
        let window = &text.as_bytes()[edit.start..edit.new_end];
        push_line_starts(window, edit.start, &mut starts);
        let behind = old[edit.old_end_line..].iter();
        starts.extend(behind.map(|&start| moved(start, edit.delta)));
        LineIndex { starts }
    }

    /// The 1-based line holding byte `offset` (a `\n` belongs to the line
    /// it ends).
    pub fn line_of(&self, offset: u32) -> usize {
        self.starts.partition_point(|&start| start <= offset)
    }

    /// A [`LineCursor`] over this index, standing at line 1.
    pub fn cursor(&self) -> LineCursor<'_> {
        LineCursor {
            starts: &self.starts,
            line: 1,
        }
    }
}

/// Pushes the offset behind each `\n` of `window`, which starts at byte
/// `at` of its text. A block of 32 bytes is read as a mask of its `\n`s
/// and only its set bits are visited: on lines of a few dozen bytes this
/// measured faster than a byte-at-a-time scan or a `memchr` call per
/// line.
fn push_line_starts(window: &[u8], at: usize, starts: &mut Vec<u32>) {
    const BLOCK: usize = 32;
    let mut blocks = window.chunks_exact(BLOCK);
    let mut base = at + 1;
    for block in &mut blocks {
        let newline = |(i, &b): (usize, &u8)| u32::from(b == b'\n') << i;
        let mut mask = block
            .iter()
            .enumerate()
            .map(newline)
            .fold(0, |m, bit| m | bit);
        while mask != 0 {
            starts.push(offset(base + mask.trailing_zeros() as usize));
            mask &= mask - 1;
        }
        base += BLOCK;
    }
    let tail = blocks.remainder().iter().enumerate();
    starts.extend(
        tail.filter(|&(_, &b)| b == b'\n')
            .map(|(i, _)| offset(base + i)),
    );
}

/// Offset → line lookups for a walk whose offsets ascend, such as a walk
/// of a module's statements in source order: each lookup steps forward
/// from the line the last one found, so a whole walk reads each line
/// start once. An offset in front of that line is looked up by binary
/// search instead. Either way a lookup answers what
/// [`LineIndex::line_of`] answers.
#[derive(Debug, Clone)]
pub struct LineCursor<'a> {
    starts: &'a [u32],
    /// The line the last lookup found, 1-based.
    line: usize,
}

impl LineCursor<'_> {
    /// The 1-based line holding byte `offset`, as [`LineIndex::line_of`].
    pub fn line_of(&mut self, offset: u32) -> usize {
        let starts = self.starts;
        if starts[self.line - 1] <= offset {
            while starts.get(self.line).is_some_and(|&start| start <= offset) {
                self.line += 1;
            }
        } else {
            self.line = starts.partition_point(|&start| start <= offset);
        }
        self.line
    }
}

/// How many entries each of a tree's arrays holds (or held, at a mark);
/// as a shift, how far each kind of id moves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counts {
    pub(crate) stmts: u32,
    exprs: u32,
    args: u32,
    targets: u32,
    names: u32,
    imports: u32,
    text: u32,
}

impl Counts {
    fn zip(self, o: Counts, f: impl Fn(u32, u32) -> u32) -> Counts {
        Counts {
            stmts: f(self.stmts, o.stmts),
            exprs: f(self.exprs, o.exprs),
            args: f(self.args, o.args),
            targets: f(self.targets, o.targets),
            names: f(self.names, o.names),
            imports: f(self.imports, o.imports),
            text: f(self.text, o.text),
        }
    }

    /// `self + by`, field by field, modulo 2³² (a shift may be negative).
    fn plus(self, by: Counts) -> Counts {
        self.zip(by, u32::wrapping_add)
    }

    fn minus(self, by: Counts) -> Counts {
        self.zip(by, u32::wrapping_sub)
    }
}

/// A tree's arrays: what a [`Module`] keeps of its statements, and what
/// the parser builds them in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Nodes {
    /// Every statement, in pre-order.
    pub(crate) stmts: Vec<Stmt>,
    /// Every expression, each after its operands.
    pub(crate) exprs: Vec<Expr>,
    /// The arguments of every call, each call's contiguous.
    pub(crate) args: Vec<Arg>,
    /// The targets of every assignment, each assignment's contiguous.
    pub(crate) targets: Vec<ExprId>,
    /// Function parameters and class bases.
    pub(crate) names: Vec<Span>,
    /// The names of every import statement.
    pub(crate) imports: Vec<ImportedName>,
    /// `Other` renderings and owned literal values.
    pub(crate) text: String,
}

impl Nodes {
    pub(crate) fn counts(&self) -> Counts {
        Counts {
            stmts: offset(self.stmts.len()),
            exprs: offset(self.exprs.len()),
            args: offset(self.args.len()),
            targets: offset(self.targets.len()),
            names: offset(self.names.len()),
            imports: offset(self.imports.len()),
            text: offset(self.text.len()),
        }
    }

    /// Drops every node pushed since `mark` was taken.
    pub(crate) fn truncate(&mut self, mark: Counts) {
        self.stmts.truncate(mark.stmts as usize);
        self.exprs.truncate(mark.exprs as usize);
        self.args.truncate(mark.args as usize);
        self.targets.truncate(mark.targets as usize);
        self.names.truncate(mark.names as usize);
        self.imports.truncate(mark.imports as usize);
        self.text.truncate(mark.text as usize);
    }

    /// The heap the arrays hold: capacity times element size.
    pub(crate) fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        bytes(&self.stmts)
            + bytes(&self.exprs)
            + bytes(&self.args)
            + bytes(&self.targets)
            + bytes(&self.names)
            + bytes(&self.imports)
            + self.text.capacity()
    }

    pub(crate) fn push_expr(&mut self, expr: Expr) -> ExprId {
        self.exprs.push(expr);
        ExprId(offset(self.exprs.len() - 1))
    }

    /// Appends `text` to the side buffer.
    pub(crate) fn push_text(&mut self, text: &str) -> Run {
        let start = self.text.len();
        self.text.push_str(text);
        Run::new(start, self.text.len())
    }

    fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    fn owned(&self, text: Run) -> &str {
        &self.text[text.range()]
    }

    fn literal<'a>(&'a self, src: &'a str, lit: Literal) -> &'a str {
        match lit {
            Literal::Source(span) => span.text(src),
            Literal::Owned(text) => self.owned(text),
        }
    }

    /// Appends [`Expr::to_text`]'s rendering of expression `id` to `out`.
    pub(crate) fn write_expr(&self, src: &str, id: ExprId, out: &mut String) {
        self.write_text(src, self.expr(id), out);
    }

    /// Appends [`Expr::to_text`]'s rendering of `expr` to `out`.
    fn write_text(&self, src: &str, expr: &Expr, out: &mut String) {
        match *expr {
            Expr::Name(s) | Expr::Num(s) => out.push_str(s.text(src)),
            Expr::Str(value) => {
                out.push('\'');
                out.push_str(self.literal(src, value));
                out.push('\'');
            }
            Expr::Attribute { value, attr } => {
                self.write_expr(src, value, out);
                out.push('.');
                out.push_str(attr.text(src));
            }
            Expr::Call { func, args } => {
                self.write_expr(src, func, out);
                out.push('(');
                for (i, arg) in self.args[args.range()].iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    if let Some(name) = arg.name {
                        out.push_str(name.text(src));
                        out.push('=');
                    }
                    self.write_expr(src, arg.value, out);
                }
                out.push(')');
            }
            Expr::BinOp { left, op, right } => {
                self.write_expr(src, left, out);
                out.push(' ');
                out.push_str(op.as_str());
                out.push(' ');
                self.write_expr(src, right, out);
            }
            Expr::Other(t) => out.push_str(self.owned(t)),
        }
    }

    fn write_func_path(&self, src: &str, expr: &Expr, out: &mut String) {
        match *expr {
            Expr::Name(n) => out.push_str(n.text(src)),
            Expr::Attribute { value, attr } => {
                let start = out.len();
                self.write_func_path(src, self.expr(value), out);
                if out.len() > start {
                    out.push('.');
                }
                out.push_str(attr.text(src));
            }
            Expr::Call { func, .. } => self.write_func_path(src, self.expr(func), out),
            Expr::Other(text) => write_other_path(self.owned(text), out),
            Expr::Str(_) | Expr::Num(_) | Expr::BinOp { .. } => {}
        }
    }
}

/// A parsed source file: its text, its line index and its statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    source: Arc<str>,
    lines: LineIndex,
    /// Top-level statements, in source order.
    pub body: Vec<StmtId>,
    nodes: Nodes,
    /// Each top-level statement's first entry in every array.
    marks: Vec<Counts>,
}

impl Module {
    /// The module of `text` holding the top-level statements of `donor`
    /// in front of the `edit`'s window, those of the window — its `parsed`
    /// nodes, whose top-level statements begin at `starts` — then those of
    /// `donor` behind it: three slice copies per array, each sized once.
    pub(crate) fn assemble(
        text: &str,
        (parsed, starts): (&Nodes, &[Counts]),
        donor: Option<&Module>,
        edit: &Edit,
    ) -> Module {
        let no_nodes = Nodes::default();
        let (nodes, marks) = donor.map_or((&no_nodes, &[][..]), |m| (&m.nodes, &m.marks[..]));
        let (kept, resumed) = (edit.removed.start as usize, edit.removed.end as usize);
        let mark = |k: usize| marks.get(k).copied().unwrap_or_else(|| nodes.counts());
        let (front, back) = (mark(kept), mark(resumed));
        let into_window = Shift {
            ids: front,
            bytes: 0,
        };
        let behind = Shift {
            ids: front.plus(parsed.counts()).minus(back),
            bytes: edit.delta,
        };
        // Per array: the donor's entries in front of the window, the
        // window's, and the donor's behind it, copied as three slices; then
        // the window's and those behind it are shifted in place, unless
        // their shift is zero (the window of a full build).
        fn splice<T: Copy>(
            (donor, window): (&[T], &[T]),
            (front, back): (u32, u32),
            shifts: (&Shift, &Shift),
            rebase: impl Fn(T, &Shift) -> T,
        ) -> Vec<T> {
            let (front, behind) = (&donor[..front as usize], &donor[back as usize..]);
            let mut out = Vec::with_capacity(front.len() + window.len() + behind.len());
            out.extend_from_slice(front);
            out.extend_from_slice(window);
            out.extend_from_slice(behind);
            let (into, behind) = out[front.len()..].split_at_mut(window.len());
            for (moved, shift) in [(into, shifts.0), (behind, shifts.1)] {
                if !shift.is_zero() {
                    moved.iter_mut().for_each(|x| *x = rebase(*x, shift));
                }
            }
            out
        }
        let shifts = (&into_window, &behind);
        let w = parsed;
        let ends = |f: fn(Counts) -> u32| (f(front), f(back));
        let mut owned = String::with_capacity(
            front.text as usize + w.text.len() + nodes.text.len() - back.text as usize,
        );
        owned.push_str(&nodes.text[..front.text as usize]);
        owned.push_str(&w.text);
        owned.push_str(&nodes.text[back.text as usize..]);
        let marks = splice(
            (marks, starts),
            (offset(kept), offset(resumed)),
            shifts,
            |m, s| m.plus(s.ids),
        );
        let nodes = Nodes {
            stmts: splice(
                (&nodes.stmts, &w.stmts),
                ends(|c| c.stmts),
                shifts,
                Stmt::rebased,
            ),
            exprs: splice(
                (&nodes.exprs, &w.exprs),
                ends(|c| c.exprs),
                shifts,
                Expr::rebased,
            ),
            args: splice((&nodes.args, &w.args), ends(|c| c.args), shifts, |a, s| {
                Arg {
                    name: a.name.map(|n| n.moved(s.bytes)),
                    value: s.expr(a.value),
                }
            }),
            targets: splice(
                (&nodes.targets, &w.targets),
                ends(|c| c.targets),
                shifts,
                |t, s| s.expr(t),
            ),
            names: splice(
                (&nodes.names, &w.names),
                ends(|c| c.names),
                shifts,
                |n, s| n.moved(s.bytes),
            ),
            imports: splice(
                (&nodes.imports, &w.imports),
                ends(|c| c.imports),
                shifts,
                |n, s| ImportedName {
                    path: n.path.moved(s.bytes),
                    alias: n.alias.map(|a| a.moved(s.bytes)),
                },
            ),
            text: owned,
        };
        Module {
            source: Arc::from(text),
            lines: LineIndex::new(text, donor.map(|m| &m.lines), edit),
            body: marks.iter().map(|m| StmtId(m.stmts)).collect(),
            nodes,
            marks,
        }
    }

    /// The text every [`Span`] of this module's tree points into.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The module's line index.
    pub fn lines(&self) -> &LineIndex {
        &self.lines
    }

    /// The 1-based source line of `stmt`, a statement of this module.
    pub fn line(&self, stmt: &Stmt) -> usize {
        self.lines.line_of(stmt.start())
    }

    /// The statement `id` of this module.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.nodes.stmts[id.0 as usize]
    }

    /// The expression `id` of this module.
    pub fn expr(&self, id: ExprId) -> &Expr {
        self.nodes.expr(id)
    }

    /// Every statement of the module in walk order: each one before its
    /// body, its body before its next sibling.
    pub fn statements(&self) -> &[Stmt] {
        &self.nodes.stmts
    }

    /// The statements of the top-level statements `top` (a run of `body`
    /// indices, such as an [`Edit`]'s `inserted`) in walk order, their
    /// bodies' included.
    pub fn statements_in(&self, top: Run) -> &[Stmt] {
        let first = |k: u32| {
            let id = self.body.get(k as usize);
            id.map_or(self.nodes.stmts.len(), |id| id.0 as usize)
        };
        &self.nodes.stmts[first(top.start)..first(top.end)]
    }

    /// Every expression of the module, each after its operands: those of
    /// one top-level statement before those of the next.
    pub fn expressions(&self) -> &[Expr] {
        &self.nodes.exprs
    }

    /// The top-level statements, in source order.
    pub fn top_level(&self) -> Suite<'_> {
        self.suite(Run::new(0, self.nodes.stmts.len()))
    }

    /// The statements of a compound statement's `body`, in source order
    /// (the nested ones they hold are not yielded).
    pub fn suite(&self, body: Run) -> Suite<'_> {
        Suite {
            stmts: &self.nodes.stmts,
            at: body.start as usize,
            end: body.end as usize,
        }
    }

    /// The arguments of a call, in order.
    pub fn args(&self, args: Run) -> &[Arg] {
        &self.nodes.args[args.range()]
    }

    /// The targets of an assignment, in order.
    pub fn targets(&self, targets: Run) -> impl Iterator<Item = &Expr> {
        self.nodes.targets[targets.range()]
            .iter()
            .map(|&id| self.expr(id))
    }

    /// Function parameters or class bases.
    pub fn names(&self, names: Run) -> &[Span] {
        &self.nodes.names[names.range()]
    }

    /// The names of an import statement.
    pub fn imports(&self, names: Run) -> &[ImportedName] {
        &self.nodes.imports[names.range()]
    }

    /// Owned text: an `Other` rendering or a literal's value.
    pub fn owned(&self, text: Run) -> &str {
        self.nodes.owned(text)
    }

    /// The heap the module holds: its text, its line index and every
    /// array, each at its capacity.
    pub fn heap_bytes(&self) -> usize {
        self.source.len()
            + self.lines.starts.capacity() * std::mem::size_of::<u32>()
            + self.body.capacity() * std::mem::size_of::<StmtId>()
            + self.marks.capacity() * std::mem::size_of::<Counts>()
            + self.nodes.heap_bytes()
    }

    #[cfg(test)]
    pub(crate) fn expr_count(&self) -> usize {
        self.nodes.exprs.len()
    }
}

/// The statements of one body (see [`Module::suite`]).
#[derive(Debug, Clone)]
pub struct Suite<'m> {
    stmts: &'m [Stmt],
    at: usize,
    end: usize,
}

impl<'m> Iterator for Suite<'m> {
    type Item = &'m Stmt;

    fn next(&mut self) -> Option<&'m Stmt> {
        if self.at >= self.end {
            return None;
        }
        let stmt = self.stmts.get(self.at)?;
        self.at = stmt.body().map_or(self.at + 1, |body| body.end as usize);
        Some(stmt)
    }
}

/// How far the ids and offsets of a run of nodes move.
struct Shift {
    ids: Counts,
    bytes: isize,
}

impl Shift {
    fn is_zero(&self) -> bool {
        self.ids == Counts::default() && self.bytes == 0
    }

    fn expr(&self, id: ExprId) -> ExprId {
        ExprId(id.0.wrapping_add(self.ids.exprs))
    }
}

/// One name bound by an import statement: the dotted path as written
/// plus the `as` alias, when one was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImportedName {
    /// Dotted module path (`os.path`, read with [`Span::dotted`]),
    /// imported name (`environ`) or `*`.
    pub path: Span,
    /// The binding introduced by `as`, if any.
    pub alias: Option<Span>,
}

impl ImportedName {
    /// The local name this import binds: the alias if present, else the
    /// first dotted segment (`import a.b` binds `a`; a from-import name
    /// has no dots, so the name itself).
    pub fn binding<'s>(&self, src: &'s str) -> &'s str {
        match self.alias {
            Some(alias) => alias.text(src),
            None => {
                let path = self.path.text(src);
                path.split('.').next().unwrap_or(path).trim_end_matches(GAP)
            }
        }
    }
}

/// Every keyword and operator a node names: a [`Stmt::Block`]'s keyword
/// (empty for an anonymous block) and an [`Expr::BinOp`]'s operator. A
/// [`Word`] is an index into it. Grouped as the parser reads them: the
/// block keywords ([`Word::BLOCK`]), the keywords kept as operators
/// ([`Word::KEYWORD_OPS`]), then the operator glyphs ([`Word::GLYPHS`]).
const WORDS: [&str; 34] = [
    "", "if", "elif", "else", "for", "while", "try", "except", "finally", "with", "async", "and",
    "or", "in", "is", "not", "+", "-", "*", "/", "%", "//", "**", "|", "&", "^", "==", "!=", "<",
    ">", "<=", ">=", ">>", "<<",
];

/// A block keyword or a binary operator, as a one-byte code: its index in
/// one static table, so a node that names one stays narrow. It reads the
/// same in every module, and prints as its text.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Word(u8);

impl Word {
    /// The keywords that open a block, `if` to `async`.
    pub(crate) const BLOCK: Range<u8> = 1..11;
    /// The keywords kept as binary operators, `and` to `not`.
    pub(crate) const KEYWORD_OPS: Range<u8> = 11..16;
    /// The operator glyphs kept as binary operators, `+` to `<<`.
    pub(crate) const GLYPHS: Range<u8> = 16..34;

    /// The code of `text` among the codes `among`, if it is one.
    pub(crate) fn find(text: &str, among: Range<u8>) -> Option<Word> {
        among.map(Word).find(|word| word.as_str() == text)
    }

    /// The code of `text`.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in a constant) if `text` is no block
    /// keyword or binary operator the tree keeps.
    pub const fn of(text: &str) -> Word {
        let b = text.as_bytes();
        let mut i = 0;
        while i < WORDS.len() {
            let word = WORDS[i].as_bytes();
            if word.len() == b.len() {
                let mut j = 0;
                while j < b.len() && word[j] == b[j] {
                    j += 1;
                }
                if j == b.len() {
                    return Word(i as u8);
                }
            }
            i += 1;
        }
        panic!("not a block keyword or binary operator")
    }

    /// The keyword or operator as written (`if`, `+`, `and`, ...).
    pub fn as_str(self) -> &'static str {
        WORDS[usize::from(self.0)]
    }
}

// The groups' edges are where the table puts them.
const _: () = assert!(
    Word::of("if").0 == Word::BLOCK.start
        && Word::of("async").0 + 1 == Word::BLOCK.end
        && Word::of("and").0 == Word::KEYWORD_OPS.start
        && Word::of("not").0 + 1 == Word::KEYWORD_OPS.end
        && Word::of("+").0 == Word::GLYPHS.start
        && WORDS.len() == Word::GLYPHS.end as usize
);

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// A statement. `start` is the offset of its first token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stmt {
    /// `import a, b.c as d`
    Import {
        /// Dotted module paths with optional aliases
        /// ([`Module::imports`]).
        modules: Run,
        /// Offset of the first token.
        start: u32,
    },
    /// `from m import x, y as z`
    FromImport {
        /// The source module path (read with [`Span::dotted`]).
        module: Span,
        /// Imported names with optional aliases ([`Module::imports`]).
        names: Run,
        /// Offset of the first token.
        start: u32,
    },
    /// `def name(params): body`
    FunctionDef {
        /// Function name (empty when missing).
        name: Span,
        /// Parameter names, annotations and defaults stripped
        /// ([`Module::names`]).
        params: Run,
        /// Nested statements ([`Module::suite`]).
        body: Run,
        /// Offset of the `def` (or of its `async`).
        start: u32,
    },
    /// `class name(bases): body`
    ClassDef {
        /// Class name (empty when missing).
        name: Span,
        /// Dotted base-class names ([`Module::names`], each read with
        /// [`Span::dotted`]).
        bases: Run,
        /// Nested statements ([`Module::suite`]).
        body: Run,
        /// Offset of the `class`.
        start: u32,
    },
    /// `target = value` (chained targets flattened).
    Assign {
        /// Assignment targets (`x`, `obj.attr`, `d[k]`;
        /// [`Module::targets`]).
        targets: Run,
        /// Right-hand side.
        value: ExprId,
        /// Offset of the first token.
        start: u32,
    },
    /// A bare expression statement (usually a call).
    Expr {
        /// The expression.
        value: ExprId,
        /// Offset of the first token.
        start: u32,
    },
    /// `return [value]`
    Return {
        /// Returned expression, if any.
        value: Option<ExprId>,
        /// Offset of the `return`.
        start: u32,
    },
    /// A compound statement we don't model structurally (`if`, `for`,
    /// `while`, `try`, `with`, `else`, ...): header plus nested body.
    Block {
        /// Leading keyword (`if`, `for`, `try`, ...); empty for an
        /// unexpected indented block.
        keyword: Word,
        /// The header's tokens after the keyword, up to the colon.
        header: Span,
        /// The header's expression, parsed once for the taint engine;
        /// `None` when there is nothing to evaluate.
        parsed: Option<Header>,
        /// Nested statements ([`Module::suite`]).
        body: Run,
        /// Offset of the keyword (of the INDENT for an anonymous block).
        start: u32,
    },
    /// Anything unparsable, kept as reconstructed text.
    Other {
        /// Reconstructed source text ([`Module::owned`]).
        text: Run,
        /// Offset of the first token.
        start: u32,
    },
}

/// A block header as the taint engine reads it: `if E`, `for T in E`,
/// `with E as T`.
///
/// The split follows the header's text as the parser renders it (see
/// [`Stmt::to_text`]): `for` cuts at the first ` in `, `with` at the
/// last ` as `, each a keyword token that is neither the header's first
/// nor followed by a bracket. A `for` without such a cut has no header.
/// A header side that does not read as one expression statement is kept
/// as an [`Expr::Other`] rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// The evaluated expression: the condition, the iterable or the
    /// context manager.
    pub value: ExprId,
    /// The names a `for` or `with ... as` binds, as written.
    pub target: Option<Span>,
}

impl Stmt {
    /// The offset of the statement's first token.
    pub fn start(&self) -> u32 {
        match self {
            Stmt::Import { start, .. }
            | Stmt::FromImport { start, .. }
            | Stmt::FunctionDef { start, .. }
            | Stmt::ClassDef { start, .. }
            | Stmt::Assign { start, .. }
            | Stmt::Expr { start, .. }
            | Stmt::Return { start, .. }
            | Stmt::Block { start, .. }
            | Stmt::Other { start, .. } => *start,
        }
    }

    /// The body of a `def`, `class` or block: every statement nested in
    /// it, which [`Module::suite`] reads as its direct children.
    pub fn body(&self) -> Option<Run> {
        match self {
            Stmt::FunctionDef { body, .. }
            | Stmt::ClassDef { body, .. }
            | Stmt::Block { body, .. } => Some(*body),
            _ => None,
        }
    }

    /// A one-line rendering of the statement: expressions as
    /// [`Expr::to_text`] renders them, `import a.b as c`, `from m import
    /// x`, `def f`, `class C`, a block's keyword and its header's tokens
    /// (brackets glued, every other token after one space), or the
    /// degraded text.
    pub fn to_text(&self, m: &Module) -> String {
        let (src, nodes) = (m.source(), &m.nodes);
        let mut out = String::new();
        match *self {
            Stmt::Expr { value, .. } => nodes.write_expr(src, value, &mut out),
            Stmt::Assign { targets, value, .. } => {
                for &target in &nodes.targets[targets.range()] {
                    nodes.write_expr(src, target, &mut out);
                    out.push_str(" = ");
                }
                nodes.write_expr(src, value, &mut out);
            }
            Stmt::Return { value, .. } => {
                out.push_str("return");
                if let Some(v) = value {
                    out.push(' ');
                    nodes.write_expr(src, v, &mut out);
                }
            }
            Stmt::Other { text, .. } => out.push_str(nodes.owned(text)),
            Stmt::Block {
                keyword, header, ..
            } => {
                out.push_str(keyword.as_str());
                let header = header.text(src);
                crate::parser::write_header(header, &crate::lex(header), &mut out);
            }
            Stmt::Import { modules, .. } => {
                out.push_str("import ");
                write_imported(m.imports(modules), src, &mut out);
            }
            Stmt::FromImport { module, names, .. } => {
                out.push_str("from ");
                out.push_str(&module.dotted(src));
                out.push_str(" import ");
                write_imported(m.imports(names), src, &mut out);
            }
            Stmt::FunctionDef { name, .. } => {
                out.push_str("def ");
                out.push_str(name.text(src));
            }
            Stmt::ClassDef { name, .. } => {
                out.push_str("class ");
                out.push_str(name.text(src));
            }
        }
        out
    }

    fn rebased(self, s: &Shift) -> Stmt {
        let (ids, at) = (s.ids, |span: Span| span.moved(s.bytes));
        let start = moved(self.start(), s.bytes);
        match self {
            Stmt::Import { modules, .. } => Stmt::Import {
                modules: modules.plus(ids.imports),
                start,
            },
            Stmt::FromImport { module, names, .. } => Stmt::FromImport {
                module: at(module),
                names: names.plus(ids.imports),
                start,
            },
            Stmt::FunctionDef {
                name, params, body, ..
            } => Stmt::FunctionDef {
                name: at(name),
                params: params.plus(ids.names),
                body: body.plus(ids.stmts),
                start,
            },
            Stmt::ClassDef {
                name, bases, body, ..
            } => Stmt::ClassDef {
                name: at(name),
                bases: bases.plus(ids.names),
                body: body.plus(ids.stmts),
                start,
            },
            Stmt::Assign { targets, value, .. } => Stmt::Assign {
                targets: targets.plus(ids.targets),
                value: s.expr(value),
                start,
            },
            Stmt::Expr { value, .. } => Stmt::Expr {
                value: s.expr(value),
                start,
            },
            Stmt::Return { value, .. } => Stmt::Return {
                value: value.map(|v| s.expr(v)),
                start,
            },
            Stmt::Block {
                keyword,
                header,
                parsed,
                body,
                ..
            } => Stmt::Block {
                keyword,
                header: at(header),
                parsed: parsed.map(|h| Header {
                    value: s.expr(h.value),
                    target: h.target.map(at),
                }),
                body: body.plus(ids.stmts),
                start,
            },
            Stmt::Other { text, .. } => Stmt::Other {
                text: text.plus(ids.text),
                start,
            },
        }
    }
}

fn write_imported(names: &[ImportedName], src: &str, out: &mut String) {
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&name.path.dotted(src));
        if let Some(alias) = name.alias {
            out.push_str(" as ");
            out.push_str(alias.text(src));
        }
    }
}

/// An expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expr {
    /// A bare name.
    Name(Span),
    /// A string literal's value.
    Str(Literal),
    /// A numeric literal, as written.
    Num(Span),
    /// `value.attr`
    Attribute {
        /// The object expression.
        value: ExprId,
        /// The attribute name.
        attr: Span,
    },
    /// `func(args...)`
    Call {
        /// The callee expression.
        func: ExprId,
        /// Positional and keyword arguments, in order
        /// ([`Module::args`]).
        args: Run,
    },
    /// `left op right` for binary operators we keep (`+`, `%`, ...).
    BinOp {
        /// Left operand.
        left: ExprId,
        /// Operator glyph (or `and`, `in`, ...).
        op: Word,
        /// Right operand.
        right: ExprId,
    },
    /// Anything else, as reconstructed text ([`Module::owned`]).
    Other(Run),
}

// A statement is 40 bytes and an expression 16: the node arrays are
// most of a module, and a splice copies and rebases them.
const _: () = assert!(std::mem::size_of::<Stmt>() <= 40);
const _: () = assert!(std::mem::size_of::<Expr>() == 16);

/// A string literal's value (quotes and prefix stripped).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Literal {
    /// The value is these bytes of the source.
    Source(Span),
    /// The value differs from the source: a processed escape, a byte
    /// >= 0x80, or adjacent literals concatenated ([`Module::owned`]).
    Owned(Run),
}

impl Literal {
    /// The value, read from `m`, the module whose tree holds it.
    pub fn text(self, m: &Module) -> &str {
        m.nodes.literal(m.source(), self)
    }
}

/// One call argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arg {
    /// Keyword name for `name=value` arguments.
    pub name: Option<Span>,
    /// Argument value.
    pub value: ExprId,
}

impl Expr {
    /// Renders the dotted path of a callee: `os.system` for
    /// `Attribute(Name(os), system)`, `exec` for `Name(exec)`. For a call,
    /// its callee's. Empty for shapes without a sensible path.
    pub fn func_path(&self, m: &Module) -> String {
        let mut out = String::new();
        self.write_func_path(m, &mut out);
        out
    }

    /// Appends [`Expr::func_path`]'s text to `out`.
    pub fn write_func_path(&self, m: &Module, out: &mut String) {
        m.nodes.write_func_path(m.source(), self, out);
    }

    /// Renders the expression back to approximate source text: names and
    /// numbers as written, a literal's value in single quotes,
    /// `f(a, k=v)`, `a + b`, or the degraded text.
    pub fn to_text(&self, m: &Module) -> String {
        let mut out = String::new();
        self.write_text(m, &mut out);
        out
    }

    /// Appends [`Expr::to_text`]'s text to `out`.
    pub fn write_text(&self, m: &Module, out: &mut String) {
        m.nodes.write_text(m.source(), self, out);
    }

    fn rebased(self, s: &Shift) -> Expr {
        let at = |span: Span| span.moved(s.bytes);
        match self {
            Expr::Name(n) => Expr::Name(at(n)),
            Expr::Num(n) => Expr::Num(at(n)),
            Expr::Str(Literal::Source(v)) => Expr::Str(Literal::Source(at(v))),
            Expr::Str(Literal::Owned(v)) => Expr::Str(Literal::Owned(v.plus(s.ids.text))),
            Expr::Attribute { value, attr } => Expr::Attribute {
                value: s.expr(value),
                attr: at(attr),
            },
            Expr::Call { func, args } => Expr::Call {
                func: s.expr(func),
                args: args.plus(s.ids.args),
            },
            Expr::BinOp { left, op, right } => Expr::BinOp {
                left: s.expr(left),
                op,
                right: s.expr(right),
            },
            Expr::Other(text) => Expr::Other(text.plus(s.ids.text)),
        }
    }
}

/// Appends the callee path an `Other` rendering names, if any. A
/// parenthesized or otherwise unmodelled callee whose reconstructed text
/// is a plain dotted path still names a resolvable callee:
/// `(os.system)(cmd)` must dispatch like `os.system(cmd)`.
fn write_other_path(text: &str, out: &mut String) {
    let start = out.len();
    let mut t = text.trim();
    while t.starts_with('(') && t.ends_with(')') && t.len() >= 2 {
        t = t[1..t.len() - 1].trim();
    }
    out.extend(t.chars().filter(|c| !c.is_whitespace()));
    if !is_dotted_path(&out[start..]) {
        out.truncate(start);
    }
}

/// True when `s` is `ident(.ident)*` — a plain dotted path with no
/// calls, subscripts or operators.
fn is_dotted_path(s: &str) -> bool {
    !s.is_empty()
        && s.split('.').all(|seg| {
            let mut chars = seg.chars();
            match chars.next() {
                Some(c) if c.is_ascii_alphabetic() || c == '_' => {
                    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
                }
                _ => false,
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lex_window, parse_module, parse_spliced};

    /// The first statement's expression of `src`, with its module.
    fn expr(src: &str) -> (Module, Expr) {
        let m = parse_module(src);
        let e = match *m.stmt(m.body[0]) {
            Stmt::Expr { value, .. } => *m.expr(value),
            other => panic!("unexpected {other:?}"),
        };
        (m, e)
    }

    #[test]
    fn func_path_of_dotted_call_and_plain_name() {
        let (m, e) = expr("os.system(x)\n");
        assert_eq!(e.func_path(&m), "os.system");
        let (m, e) = expr("exec\n");
        assert_eq!(e.func_path(&m), "exec");
    }

    #[test]
    fn to_text_roundtrips_call_shape() {
        let (m, e) = expr("requests(url = \"http://x\", *a)\n");
        assert_eq!(e.to_text(&m), "requests(url='http://x', a)");
    }

    #[test]
    fn func_path_resolves_other_wrapped_dotted_text() {
        let path = |text: &str| {
            let mut out = String::from("kept:");
            write_other_path(text, &mut out);
            out
        };
        // A parenthesized callee the parser kept as raw text.
        assert_eq!(path("( os.system )"), "kept:os.system");
        assert_eq!(
            path("(( urllib.request.urlopen ))"),
            "kept:urllib.request.urlopen"
        );
        for rejected in ["a + b", "[1, 2]", "f(x).g", "", "3.14"] {
            assert_eq!(path(rejected), "kept:", "{rejected:?}");
        }
        // A call through a subscripted callee resolves no path.
        let (m, e) = expr("handlers['x'](cmd)\n");
        assert_eq!(e.func_path(&m), "");
    }

    #[test]
    fn imported_name_binding_and_dotted_paths() {
        let src = "import os, os . path, os as o, os.path as p\n";
        let m = parse_module(src);
        let Stmt::Import { modules, .. } = *m.stmt(m.body[0]) else {
            panic!("{m:?}")
        };
        let modules = m.imports(modules);
        let bindings: Vec<&str> = modules.iter().map(|n| n.binding(src)).collect();
        assert_eq!(bindings, ["os", "os", "o", "p"]);
        assert_eq!(modules[1].path.text(src), "os . path");
        assert!(matches!(modules[1].path.dotted(src), Cow::Owned(p) if p == "os.path"));
        assert!(matches!(
            modules[3].path.dotted(src),
            Cow::Borrowed("os.path")
        ));
    }

    /// The line index of `text` as a full parse builds it.
    fn index(text: &str) -> LineIndex {
        LineIndex::new(text, None, &Edit::whole(text))
    }

    #[test]
    fn line_index_counts_newlines_only() {
        let lines = index("a\r\nb\n\nc");
        let at = |offset| lines.line_of(offset);
        assert_eq!(
            [at(0), at(2), at(3), at(4), at(5), at(6), at(99)],
            [1, 1, 2, 2, 3, 4, 4]
        );
        assert_eq!(index("").line_of(0), 1);
    }

    #[test]
    fn line_starts_are_found_across_blocks() {
        // Newlines at the first and last byte of a block, adjacent ones,
        // and a tail shorter than a block.
        let text: String = (0..150)
            .map(|i| {
                if [0, 31, 32, 33, 63, 64, 100, 149].contains(&i) {
                    '\n'
                } else {
                    'x'
                }
            })
            .collect();
        let naive: Vec<u32> = std::iter::once(0)
            .chain(text.match_indices('\n').map(|(i, _)| i as u32 + 1))
            .collect();
        assert_eq!(index(&text).starts, naive);
        let mut starts = Vec::new();
        push_line_starts(&text.as_bytes()[33..], 33, &mut starts);
        assert_eq!(starts, naive[4..]);
    }

    #[test]
    fn a_line_cursor_answers_what_the_index_answers() {
        let lines = index("a\r\nb\n\nc\n");
        let mut cursor = lines.cursor();
        for offset in [0, 2, 3, 3, 5, 6, 7, 99, 4, 0, 6, 1] {
            assert_eq!(cursor.line_of(offset), lines.line_of(offset), "{offset}");
        }
        assert_eq!(index("").cursor().line_of(7), 1);
    }

    #[test]
    fn statements_are_stored_in_walk_order() {
        let src = "def f(a):\n    if a:\n        g(a)\n    return a\nclass C:\n    x = 1\ny = 2\n";
        let m = parse_module(src);
        fn walk<'m>(m: &'m Module, suite: Suite<'m>, out: &mut Vec<&'m Stmt>) {
            for stmt in suite {
                out.push(stmt);
                if let Some(body) = stmt.body() {
                    walk(m, m.suite(body), out);
                }
            }
        }
        let mut walked = Vec::new();
        walk(&m, m.top_level(), &mut walked);
        let stored: Vec<&Stmt> = m.statements().iter().collect();
        assert_eq!(walked, stored);
        assert_eq!(walked.len(), 7);
        let top: Vec<&Stmt> = m.body.iter().map(|&id| m.stmt(id)).collect();
        assert_eq!(m.top_level().collect::<Vec<_>>(), top);
        // `def f` holds four statements, `class C` two, `y = 2` one.
        let lens = [(0, 1, 4), (1, 3, 3), (2, 2, 0), (0, 3, 7)];
        for (start, end, len) in lens {
            let stmts = m.statements_in(Run::new(start, end));
            assert_eq!(stmts.len(), len, "{start}..{end}");
            let first = m.body.get(start).map_or(7, |id| id.0 as usize);
            assert_eq!(stmts, &m.statements()[first..first + len]);
        }
    }

    /// A window parsed between a donor's statements is the full parse of
    /// the edited text: the prefix is copied as it is and the suffix — one
    /// statement of every shape that holds an id, a run or an offset —
    /// with every id rebased and every offset moved, whether the window
    /// grew or shrank its text and its node counts.
    #[test]
    fn a_window_set_between_donor_statements_is_the_full_parse() {
        let suffix = "import os.path as osp, base64\nfrom subprocess import run as r\n\ndef handler(arg, *rest, key=None):\n    for k, v in arg.items():\n        print(k, -v)\n    return arg\n\nclass Installer(setuptools.Command, object):\n    with open(osp.join('a', 'b')) as fh:\n        data = x = fh.read()[0]\n    pass\n\nX = 'tab\\there'\nY = 'http://' 'evil.example'\nr(Y, shell=True)\n";
        let base = format!("A = 'alpha'\nB = 1\n{suffix}");
        let mut donor = parse_module(&base);
        for (old, new) in [
            ("B = 1", "B = f('a much longer value', (p, q))\nB2 = B"),
            ("B = f('a much longer value', (p, q))\nB2 = B", "B=0"),
        ] {
            let before = donor.source().to_owned();
            let text = before.replace(old, new);
            let w = before.find(old).expect("edit");
            let edit = Edit::new(&donor, &text, w, w + old.len() + 1).expect("edit");
            let tokens = lex_window(&text, w, edit.new_end, edit.first_line).tokens;
            let (spliced, _) = parse_spliced(&text, &tokens, Some(&donor), edit);
            assert_eq!(spliced, parse_module(&text), "{text}");
            donor = spliced;
        }
    }

    #[test]
    fn heap_bytes_counts_the_text_and_every_node() {
        let m = parse_module(&"x = f(a, 'b' 'c', [d])\n".repeat(50));
        let nodes =
            std::mem::size_of_val(m.statements()) + m.expr_count() * std::mem::size_of::<Expr>();
        assert!(m.heap_bytes() > m.source().len() + nodes);
    }
}
