//! Lightweight Python AST that points into its source.
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
//! text ([`Module::source`]) alongside the node, and two trees parsed
//! from different texts compare by text, never by span. Two kinds of
//! text are owned: an [`Expr::Other`] / [`Stmt::Other`] rendering (the
//! degrade path, whose text is not a source slice) and a string literal
//! whose value differs from its bytes ([`Literal::Owned`]).
//!
//! A statement carries the offset of its first token, not a line. The
//! module's [`LineIndex`] holds one entry per line start and maps an
//! offset to its 1-based line by binary search, counting `\n` only, as
//! the lexer does. Splicing an edit therefore moves the statements behind
//! it by the byte delta ([`Stmt::shifted`]) and never touches a line.

use std::borrow::Cow;
use std::sync::Arc;

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
            Cow::Owned(text.chars().filter(|c| !GAP.contains(c)).collect())
        } else {
            Cow::Borrowed(text)
        }
    }
}

/// `offset` as a span offset, saturating past `u32::MAX` (such a span
/// slices to nothing rather than to the wrong text).
pub(crate) fn offset(offset: usize) -> u32 {
    u32::try_from(offset).unwrap_or(u32::MAX)
}

/// The start offset of every line of a text, for offset → line lookups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LineIndex {
    /// `starts[i]` is the offset of line `i + 1`; `starts[0]` is 0.
    starts: Vec<u32>,
}

impl LineIndex {
    /// Indexes `text`: one allocation, sized by a first count of `\n`.
    pub(crate) fn new(text: &str) -> LineIndex {
        let newlines = text.bytes().filter(|&b| b == b'\n').count();
        let mut starts = Vec::with_capacity(1 + newlines);
        starts.push(0);
        let ends = text.bytes().enumerate().filter(|&(_, b)| b == b'\n');
        starts.extend(ends.map(|(i, _)| offset(i + 1)));
        LineIndex { starts }
    }

    /// The 1-based line holding byte `offset` (a `\n` belongs to the line
    /// it ends).
    pub fn line_of(&self, offset: u32) -> usize {
        self.starts.partition_point(|&start| start <= offset)
    }
}

/// A parsed source file: its text, its line index and its statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Module {
    source: Arc<str>,
    lines: LineIndex,
    /// Top-level statements.
    pub body: Vec<Stmt>,
}

impl Module {
    /// A module over a copy of `source`.
    pub(crate) fn new(source: &str, body: Vec<Stmt>) -> Module {
        Module {
            source: Arc::from(source),
            lines: LineIndex::new(source),
            body,
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
}

/// One name bound by an import statement: the dotted path as written
/// plus the `as` alias, when one was given.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// A statement. `start` is the offset of its first token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `import a, b.c as d`
    Import {
        /// Dotted module paths with optional aliases.
        modules: Vec<ImportedName>,
        /// Offset of the first token.
        start: u32,
    },
    /// `from m import x, y as z`
    FromImport {
        /// The source module path (read with [`Span::dotted`]).
        module: Span,
        /// Imported names with optional aliases.
        names: Vec<ImportedName>,
        /// Offset of the first token.
        start: u32,
    },
    /// `def name(params): body`
    FunctionDef {
        /// Function name (empty when missing).
        name: Span,
        /// Parameter names (annotations/defaults stripped).
        params: Vec<Span>,
        /// Nested statements.
        body: Vec<Stmt>,
        /// Offset of the `def` (or of its `async`).
        start: u32,
    },
    /// `class name(bases): body`
    ClassDef {
        /// Class name (empty when missing).
        name: Span,
        /// Dotted base-class names (read with [`Span::dotted`]).
        bases: Vec<Span>,
        /// Nested statements.
        body: Vec<Stmt>,
        /// Offset of the `class`.
        start: u32,
    },
    /// `target = value` (chained targets flattened).
    Assign {
        /// Assignment targets (`x`, `obj.attr`, `d[k]`).
        targets: Vec<Expr>,
        /// Right-hand side.
        value: Expr,
        /// Offset of the first token.
        start: u32,
    },
    /// A bare expression statement (usually a call).
    Expr {
        /// The expression.
        value: Expr,
        /// Offset of the first token.
        start: u32,
    },
    /// `return [value]`
    Return {
        /// Returned expression, if any.
        value: Option<Expr>,
        /// Offset of the `return`.
        start: u32,
    },
    /// A compound statement we don't model structurally (`if`, `for`,
    /// `while`, `try`, `with`, `else`, ...): header plus nested body.
    Block {
        /// Leading keyword (`if`, `for`, `try`, ...); empty for an
        /// unexpected indented block.
        keyword: &'static str,
        /// The header's tokens after the keyword, up to the colon.
        header: Span,
        /// The header's expression, parsed once for the taint engine;
        /// `None` when there is nothing to evaluate.
        parsed: Option<Box<Header>>,
        /// Nested statements.
        body: Vec<Stmt>,
        /// Offset of the keyword (of the INDENT for an anonymous block).
        start: u32,
    },
    /// Anything unparsable, kept as reconstructed text.
    Other {
        /// Reconstructed source text.
        text: String,
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// The evaluated expression: the condition, the iterable or the
    /// context manager.
    pub value: Expr,
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

    /// A copy of this statement `delta` bytes further into its text, as
    /// the statements behind a spliced edit move.
    pub fn shifted(&self, delta: isize) -> Stmt {
        self.moved(delta)
    }

    /// A one-line rendering of the statement: expressions as
    /// [`Expr::to_text`] renders them, `import a.b as c`, `from m import
    /// x`, `def f`, `class C`, a block's keyword and its header's tokens
    /// (brackets glued, every other token after one space), or the
    /// degraded text.
    pub fn to_text(&self, src: &str) -> String {
        let mut out = String::new();
        match self {
            Stmt::Expr { value, .. } => value.write_text(src, &mut out),
            Stmt::Assign { targets, value, .. } => {
                for target in targets {
                    target.write_text(src, &mut out);
                    out.push_str(" = ");
                }
                value.write_text(src, &mut out);
            }
            Stmt::Return { value, .. } => {
                out.push_str("return");
                if let Some(v) = value {
                    out.push(' ');
                    v.write_text(src, &mut out);
                }
            }
            Stmt::Other { text, .. } => out.push_str(text),
            Stmt::Block {
                keyword, header, ..
            } => {
                out.push_str(keyword);
                let tokens = crate::lex_spanned(header.text(src));
                crate::parser::write_header(&tokens, &mut out);
            }
            Stmt::Import { modules, .. } => {
                out.push_str("import ");
                write_imported(modules, src, &mut out);
            }
            Stmt::FromImport { module, names, .. } => {
                out.push_str("from ");
                out.push_str(&module.dotted(src));
                out.push_str(" import ");
                write_imported(names, src, &mut out);
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
        value: Box<Expr>,
        /// The attribute name.
        attr: Span,
    },
    /// `func(args...)`
    Call {
        /// The callee expression.
        func: Box<Expr>,
        /// Positional and keyword arguments, in order.
        args: Vec<Arg>,
    },
    /// `left op right` for binary operators we keep (`+`, `%`, ...).
    BinOp {
        /// Left operand.
        left: Box<Expr>,
        /// Operator glyph (or `and`, `in`, ...).
        op: &'static str,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Anything else, as reconstructed text.
    Other(String),
}

/// A string literal's value (quotes and prefix stripped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Literal {
    /// The value is these bytes of the source.
    Source(Span),
    /// The value differs from the source: a processed escape, a byte
    /// >= 0x80, or adjacent literals concatenated.
    Owned(String),
}

impl Literal {
    /// The value, reading a [`Literal::Source`] span from `src`.
    pub fn text<'a>(&'a self, src: &'a str) -> &'a str {
        match self {
            Literal::Source(span) => span.text(src),
            Literal::Owned(value) => value,
        }
    }
}

/// One call argument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arg {
    /// Keyword name for `name=value` arguments.
    pub name: Option<Span>,
    /// Argument value.
    pub value: Expr,
}

impl Expr {
    /// Renders the dotted path of a callee: `os.system` for
    /// `Attribute(Name(os), system)`, `exec` for `Name(exec)`. For a call,
    /// its callee's. Empty for shapes without a sensible path.
    pub fn func_path(&self, src: &str) -> String {
        let mut out = String::new();
        self.write_func_path(src, &mut out);
        out
    }

    fn write_func_path(&self, src: &str, out: &mut String) {
        let start = out.len();
        match self {
            Expr::Name(n) => out.push_str(n.text(src)),
            Expr::Attribute { value, attr } => {
                value.write_func_path(src, out);
                if out.len() > start {
                    out.push('.');
                }
                out.push_str(attr.text(src));
            }
            Expr::Call { func, .. } => func.write_func_path(src, out),
            // A parenthesized or otherwise unmodelled callee whose
            // reconstructed text is a plain dotted path still names a
            // resolvable callee: `(os.system)(cmd)` must dispatch like
            // `os.system(cmd)`.
            Expr::Other(text) => {
                let mut t = text.trim();
                while t.starts_with('(') && t.ends_with(')') && t.len() >= 2 {
                    t = t[1..t.len() - 1].trim();
                }
                out.extend(t.chars().filter(|c| !c.is_whitespace()));
                if !is_dotted_path(&out[start..]) {
                    out.truncate(start);
                }
            }
            Expr::Str(_) | Expr::Num(_) | Expr::BinOp { .. } => {}
        }
    }

    /// Renders the expression back to approximate source text: names and
    /// numbers as written, a literal's value in single quotes,
    /// `f(a, k=v)`, `a + b`, or the degraded text.
    pub fn to_text(&self, src: &str) -> String {
        let mut out = String::new();
        self.write_text(src, &mut out);
        out
    }

    /// Appends [`Expr::to_text`]'s rendering to `out`.
    pub(crate) fn write_text(&self, src: &str, out: &mut String) {
        match self {
            Expr::Name(s) | Expr::Num(s) => out.push_str(s.text(src)),
            Expr::Str(value) => {
                out.push('\'');
                out.push_str(value.text(src));
                out.push('\'');
            }
            Expr::Attribute { value, attr } => {
                value.write_text(src, out);
                out.push('.');
                out.push_str(attr.text(src));
            }
            Expr::Call { func, args } => {
                func.write_text(src, out);
                out.push('(');
                for (i, arg) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    if let Some(name) = arg.name {
                        out.push_str(name.text(src));
                        out.push('=');
                    }
                    arg.value.write_text(src, out);
                }
                out.push(')');
            }
            Expr::BinOp { left, op, right } => {
                left.write_text(src, out);
                out.push(' ');
                out.push_str(op);
                out.push(' ');
                right.write_text(src, out);
            }
            Expr::Other(t) => out.push_str(t),
        }
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

/// A deep copy whose spans and offsets lie `by` bytes further on.
trait Moved {
    fn moved(&self, by: isize) -> Self;
}

impl Moved for u32 {
    fn moved(&self, by: isize) -> u32 {
        offset(
            (*self as usize)
                .checked_add_signed(by)
                .unwrap_or(usize::MAX),
        )
    }
}

impl Moved for Span {
    fn moved(&self, by: isize) -> Span {
        Span {
            start: self.start.moved(by),
            end: self.end.moved(by),
        }
    }
}

impl<T: Moved> Moved for Vec<T> {
    fn moved(&self, by: isize) -> Vec<T> {
        self.iter().map(|x| x.moved(by)).collect()
    }
}

impl<T: Moved> Moved for Option<T> {
    fn moved(&self, by: isize) -> Option<T> {
        self.as_ref().map(|x| x.moved(by))
    }
}

impl<T: Moved> Moved for Box<T> {
    fn moved(&self, by: isize) -> Box<T> {
        Box::new(T::moved(self, by))
    }
}

impl Moved for ImportedName {
    fn moved(&self, by: isize) -> ImportedName {
        ImportedName {
            path: self.path.moved(by),
            alias: self.alias.moved(by),
        }
    }
}

impl Moved for Header {
    fn moved(&self, by: isize) -> Header {
        Header {
            value: self.value.moved(by),
            target: self.target.moved(by),
        }
    }
}

impl Moved for Arg {
    fn moved(&self, by: isize) -> Arg {
        Arg {
            name: self.name.moved(by),
            value: self.value.moved(by),
        }
    }
}

impl Moved for Expr {
    fn moved(&self, by: isize) -> Expr {
        match self {
            Expr::Name(s) => Expr::Name(s.moved(by)),
            Expr::Num(s) => Expr::Num(s.moved(by)),
            Expr::Str(Literal::Source(s)) => Expr::Str(Literal::Source(s.moved(by))),
            Expr::Attribute { value, attr } => Expr::Attribute {
                value: value.moved(by),
                attr: attr.moved(by),
            },
            Expr::Call { func, args } => Expr::Call {
                func: func.moved(by),
                args: args.moved(by),
            },
            Expr::BinOp { left, op, right } => Expr::BinOp {
                left: left.moved(by),
                op,
                right: right.moved(by),
            },
            Expr::Str(Literal::Owned(_)) | Expr::Other(_) => self.clone(),
        }
    }
}

impl Moved for Stmt {
    fn moved(&self, by: isize) -> Stmt {
        let start = self.start().moved(by);
        match self {
            Stmt::Import { modules, .. } => Stmt::Import {
                modules: modules.moved(by),
                start,
            },
            Stmt::FromImport { module, names, .. } => Stmt::FromImport {
                module: module.moved(by),
                names: names.moved(by),
                start,
            },
            Stmt::FunctionDef {
                name, params, body, ..
            } => Stmt::FunctionDef {
                name: name.moved(by),
                params: params.moved(by),
                body: body.moved(by),
                start,
            },
            Stmt::ClassDef {
                name, bases, body, ..
            } => Stmt::ClassDef {
                name: name.moved(by),
                bases: bases.moved(by),
                body: body.moved(by),
                start,
            },
            Stmt::Assign { targets, value, .. } => Stmt::Assign {
                targets: targets.moved(by),
                value: value.moved(by),
                start,
            },
            Stmt::Expr { value, .. } => Stmt::Expr {
                value: value.moved(by),
                start,
            },
            Stmt::Return { value, .. } => Stmt::Return {
                value: value.moved(by),
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
                header: header.moved(by),
                parsed: parsed.moved(by),
                body: body.moved(by),
                start,
            },
            Stmt::Other { text, .. } => Stmt::Other {
                text: text.clone(),
                start,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_module;

    /// The first statement's first expression root of `src`.
    fn expr(src: &str) -> (Module, Expr) {
        let m = parse_module(src);
        let e = match &m.body[0] {
            Stmt::Expr { value, .. } => value.clone(),
            other => panic!("unexpected {other:?}"),
        };
        (m, e)
    }

    #[test]
    fn func_path_of_dotted_call_and_plain_name() {
        let (m, e) = expr("os.system(x)\n");
        assert_eq!(e.func_path(m.source()), "os.system");
        let (m, e) = expr("exec\n");
        assert_eq!(e.func_path(m.source()), "exec");
    }

    #[test]
    fn to_text_roundtrips_call_shape() {
        let (m, e) = expr("requests(url = \"http://x\", *a)\n");
        assert_eq!(e.to_text(m.source()), "requests(url='http://x', a)");
    }

    #[test]
    fn func_path_resolves_other_wrapped_dotted_text() {
        let path = |text: &str| Expr::Other(text.into()).func_path("");
        // A parenthesized callee the parser kept as raw text.
        assert_eq!(path("( os.system )"), "os.system");
        assert_eq!(
            path("(( urllib.request.urlopen ))"),
            "urllib.request.urlopen"
        );
        // Call through an Other callee.
        let e = Expr::Call {
            func: Box::new(Expr::Other("(subprocess.run)".into())),
            args: vec![],
        };
        assert_eq!(e.func_path(""), "subprocess.run");
        for rejected in ["a + b", "[1, 2]", "f(x).g", "", "3.14"] {
            assert_eq!(path(rejected), "", "{rejected:?}");
        }
    }

    #[test]
    fn imported_name_binding_and_dotted_paths() {
        let src = "import os, os . path, os as o, os.path as p\n";
        let m = parse_module(src);
        let Stmt::Import { modules, .. } = &m.body[0] else {
            panic!("{:?}", m.body)
        };
        let bindings: Vec<&str> = modules.iter().map(|n| n.binding(src)).collect();
        assert_eq!(bindings, ["os", "os", "o", "p"]);
        assert_eq!(modules[1].path.text(src), "os . path");
        assert!(matches!(modules[1].path.dotted(src), Cow::Owned(p) if p == "os.path"));
        assert!(matches!(
            modules[3].path.dotted(src),
            Cow::Borrowed("os.path")
        ));
    }

    #[test]
    fn line_index_counts_newlines_only() {
        let lines = LineIndex::new("a\r\nb\n\nc");
        let at = |offset| lines.line_of(offset);
        assert_eq!(
            [at(0), at(2), at(3), at(4), at(5), at(6), at(99)],
            [1, 1, 2, 2, 3, 4, 4]
        );
        assert_eq!(LineIndex::new("").line_of(0), 1);
    }

    #[test]
    fn a_shifted_statement_slices_the_same_text_further_on() {
        let src = "def f(a, b='x\\n'):\n    for k in d: g(k=a)\n";
        let m = parse_module(src);
        let moved = format!("\n\n{src}");
        let shifted = m.body[0].shifted(2);
        assert_eq!(shifted.to_text(&moved), m.body[0].to_text(src));
        assert_eq!(parse_module(&moved).body[0], shifted);
        assert_eq!(shifted.shifted(-2), m.body[0]);
    }
}
