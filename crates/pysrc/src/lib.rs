//! `pysrc` — Python source substrate for the RuleLLM reproduction.
//!
//! The paper's malicious packages are PyPI source distributions: the
//! Semgrep engine must match structural patterns against Python code, the
//! basic-unit splitter must find block boundaries (`def `, `class `,
//! `if `, ... — §IV-A), and the tokenize step of the embedding pipeline
//! needs a Python lexer (§V-A implements it with Python's `tokenize`
//! module). This crate provides all three from scratch:
//!
//! * [`lex`] — an indentation-aware tokenizer (strings, comments,
//!   triple quotes, line continuations, INDENT/DEDENT synthesis) whose
//!   [`Lexeme`]s carry their byte spans. It is the one token type: the
//!   parser, the string table, the splice and source-to-source rewriters
//!   (the `obfuscate` crate) all read a kind and a span, and the text is
//!   a slice of the source.
//! * [`lex_window`] — relexes one byte range in full-source coordinates,
//!   from a first line its caller gives (the whole source is the window
//!   at offset 0, line 1), the primitive every artifact build runs on;
//!   [`cut_points`] — where such a window may start or stop, which is all
//!   of the stream a later splice reads; and [`Edit`] — one splice's
//!   windows, deltas and statements, worked out once for every product.
//! * [`parse_tokens`] — the parser's front door: a tolerant, lightweight
//!   parser producing a statement/expression tree sufficient for pattern
//!   matching, over a [`Lexeme`] slice it borrows, so a caller that
//!   holds the tokens lexes once. Unparsable lines degrade to
//!   [`Stmt::Other`] instead of failing: rule scanning must survive
//!   obfuscated or broken malware code. [`parse_module`] is the
//!   convenience over it for callers that hold only source text, and
//!   [`parse_spliced`] parses a relexed window between the statements of
//!   a previous version of the file.
//! * Call/import/string collectors used by the analyzers.
//! * [`StringTable::of`] — a deduplicated string-literal table built from
//!   the token stream, the literal view that per-file analysis artifacts
//!   carry for decoded-layer extraction; [`StringTable::spliced`] derives
//!   an edited file's table from its predecessor's and the relexed window
//!   (from the empty table and the whole stream it is `StringTable::of`),
//!   hashing only the window's literals.
//!
//! # The tree borrows by span
//!
//! A [`Lexeme`] is 16 bytes of plain data: a [`Kind`] code (one per
//! operator, plus identifier, number, string, comment, NEWLINE, INDENT,
//! DEDENT and EOF), a few flag bits, `u32` start and end offsets and a
//! `u32` line. Its text is read back from the source it was lexed from,
//! `&source[start..end]`. A string's value is the bytes between its
//! quotes unless a flag says it differs from them — a processed escape
//! (`\n`, `\'`, a line continuation), or a byte >= 0x80, which is still
//! read byte-as-char (`'—'` reads `"â\u{80}\u{94}"`) until ROADMAP item 19
//! fixes that in its own PR; only then is it decoded from the span
//! ([`Lexeme::value`]); on the tiny corpus and its mutants 1 036 of
//! 21 987 literals own a decoded value. The lexer writes into a token
//! buffer its thread keeps between lexes, so a warm lex allocates nothing.
//!
//! The tree keeps the same discipline one level up. A [`Module`] copies
//! its text once and its nodes hold [`Span`]s into it; it owns text only
//! for a decoded literal, for adjacent literals it concatenates
//! and for what degrades to `Other`, all in one side buffer. Nor is the
//! tree boxed: its statements, expressions, call arguments and the rest
//! are a few arrays, its nodes name each other by index, and the parser
//! builds them in arrays it keeps per thread and copies each out at its
//! final length. A parse allocates per array — the text copy, one
//! [`LineIndex`] and a handful of buffers — not per node, and
//! [`parse_spliced`] sets a relexed window's statements between a
//! previous version's by copying slices of its arrays. The string table
//! holds its distinct values back to back in one buffer: the interner,
//! which its thread keeps, decodes each value straight into place, keeps
//! it only when it is new, and the table is copied out at its final
//! length — three allocations per table, not one per literal.
//!
//! The token shape lexemes replaced is the hidden `compat` module,
//! re-exported at the crate root for the repository benchmark and the
//! equivalence tests that still read it. Nothing else uses it.
//!
//! # Examples
//!
//! ```
//! let module = pysrc::parse_module("import os\nos.system('id')\n");
//! let calls = pysrc::collect_calls(&module);
//! assert_eq!(calls[0].func_path(&module), "os.system");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
#[doc(hidden)]
pub mod compat;
mod edit;
mod lexer;
mod parser;
mod strings;
mod token;

pub use ast::{
    Arg, Expr, ExprId, Header, ImportedName, LineCursor, LineIndex, Literal, Module, Run, Span,
    Stmt, StmtId, Suite, Word,
};
#[doc(hidden)]
pub use compat::{intern_strings, lex_spanned, render, SpannedToken, Token, TokenKind};
pub use edit::Edit;
pub use lexer::{cut_points, lex, lex_window, CutPoint, Lexemes, WindowLex};
pub use parser::{parse_module, parse_spliced, parse_tokens};
pub use strings::{Prehashed, StringRef, StringTable};
pub use token::{is_keyword, Kind, Lexeme, KEYWORDS};

/// Collects every call expression in the module, depth-first. Block
/// headers are not descended into: only the taint engine reads them.
pub fn collect_calls(module: &Module) -> Vec<&Expr> {
    let mut out = Vec::new();
    for stmt in module.statements() {
        if let Some(root) = expr_root(stmt) {
            walk(module, module.expr(root), &mut |e| {
                if matches!(e, Expr::Call { .. }) {
                    out.push(e);
                }
            });
        }
    }
    out
}

/// The expression a statement evaluates outside any block header: an
/// expression statement's, an assignment's value or a returned value.
fn expr_root(stmt: &Stmt) -> Option<ExprId> {
    match *stmt {
        Stmt::Expr { value, .. } | Stmt::Assign { value, .. } => Some(value),
        Stmt::Return { value, .. } => value,
        _ => None,
    }
}

/// Every expression of `expr` that `collect_calls` and `collect_strings`
/// recurse into, parents before their operands, handed to `f`.
fn walk<'m>(module: &'m Module, expr: &'m Expr, f: &mut impl FnMut(&'m Expr)) {
    f(expr);
    match *expr {
        Expr::Call { func, args } => {
            walk(module, module.expr(func), f);
            for arg in module.args(args) {
                walk(module, module.expr(arg.value), f);
            }
        }
        Expr::Attribute { value, .. } => walk(module, module.expr(value), f),
        Expr::BinOp { left, right, .. } => {
            walk(module, module.expr(left), f);
            walk(module, module.expr(right), f);
        }
        _ => {}
    }
}

/// Collects every string literal in the module (recursing into calls,
/// not into block headers) with its statement's line.
pub fn collect_strings(module: &Module) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    for stmt in module.statements() {
        if let Some(root) = expr_root(stmt) {
            let line = module.line(stmt);
            walk(module, module.expr(root), &mut |e| {
                if let Expr::Str(s) = *e {
                    out.push((s.text(module), line));
                }
            });
        }
    }
    out
}

/// Collects imported module paths (`import x.y`, `from x import y`).
pub fn collect_imports(module: &Module) -> Vec<String> {
    let src = module.source();
    let mut out = Vec::new();
    for stmt in module.statements() {
        match *stmt {
            Stmt::Import { modules, .. } => out.extend(
                module
                    .imports(modules)
                    .iter()
                    .map(|m| m.path.dotted(src).into_owned()),
            ),
            Stmt::FromImport {
                module: from,
                names,
                ..
            } => {
                for n in module.imports(names) {
                    out.push(format!("{}.{}", from.dotted(src), n.path.text(src)));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_calls_finds_nested() {
        let m = parse_module("exec(base64.b64decode(payload))\n");
        let calls = collect_calls(&m);
        let names: Vec<String> = calls.iter().map(|c| c.func_path(&m)).collect();
        assert!(names.contains(&"exec".to_owned()));
        assert!(names.contains(&"base64.b64decode".to_owned()));
    }

    #[test]
    fn collect_strings_inside_calls() {
        let m = parse_module("requests.get('http://c2.evil/x')\n");
        let strings = collect_strings(&m);
        assert_eq!(strings.len(), 1);
        assert_eq!(strings[0].0, "http://c2.evil/x");
    }

    #[test]
    fn collect_imports_both_forms() {
        let m = parse_module("import os, sys\nfrom subprocess import Popen\n");
        let imports = collect_imports(&m);
        assert!(imports.contains(&"os".to_owned()));
        assert!(imports.contains(&"sys".to_owned()));
        assert!(imports.contains(&"subprocess.Popen".to_owned()));
    }

    #[test]
    fn collect_calls_inside_function_bodies() {
        let src = "def run():\n    os.system('id')\n";
        let m = parse_module(src);
        let calls = collect_calls(&m);
        assert_eq!(calls.len(), 1);
    }
}
