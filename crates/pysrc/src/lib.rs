//! `pysrc` — Python source substrate for the RuleLLM reproduction.
//!
//! The paper's malicious packages are PyPI source distributions: the
//! Semgrep engine must match structural patterns against Python code, the
//! basic-unit splitter must find block boundaries (`def `, `class `,
//! `if `, ... — §IV-A), and the tokenize step of the embedding pipeline
//! needs a Python lexer (§V-A implements it with Python's `tokenize`
//! module). This crate provides all three from scratch:
//!
//! * [`lex_spanned`] — an indentation-aware tokenizer (strings, comments,
//!   triple quotes, line continuations, INDENT/DEDENT synthesis) whose
//!   tokens carry their byte spans.
//! * [`lex_window`] — relexes one byte range in full-source coordinates
//!   (the whole source is the window at offset 0), the primitive every
//!   artifact build runs on, and [`cut_points`] — the offsets of a token
//!   stream where such a window may start or stop, which is all of the
//!   stream a later splice reads.
//! * [`parse_tokens`] — the parser's front door: a tolerant, lightweight
//!   parser producing a statement/expression tree sufficient for pattern
//!   matching, over a [`SpannedToken`] slice it borrows (a whole file's
//!   stream or a relexed window), so a caller that holds the tokens lexes
//!   once. Unparsable lines degrade to [`Stmt::Other`] instead of
//!   failing: rule scanning must survive obfuscated or broken malware
//!   code. [`parse_module`] is the convenience over it for callers that
//!   hold only source text.
//! * Call/import/string collectors used by the analyzers.
//! * [`intern_strings`] — a deduplicated string-literal table built from
//!   the spanned token stream, the literal view that per-file analysis
//!   artifacts carry for decoded-layer extraction;
//!   [`StringTable::spliced`] derives an edited file's table from its
//!   predecessor's and the relexed window (from the empty table and the
//!   whole stream it is `intern_strings`).
//!
//! # Examples
//!
//! ```
//! let module = pysrc::parse_module("import os\nos.system('id')\n");
//! let calls = pysrc::collect_calls(&module);
//! assert_eq!(calls[0].func_path(), "os.system");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod lexer;
mod parser;
mod strings;
mod token;

pub use ast::{Arg, Expr, ImportedName, Module, Stmt};
pub use lexer::{cut_points, lex_spanned, lex_window, CutPoint, WindowLex};
pub use parser::{parse_module, parse_tokens};
pub use strings::{intern_strings, StringRef, StringTable};
pub use token::{is_keyword, SpannedToken, Token, TokenKind, KEYWORDS};

/// Collects every call expression in the module, depth-first.
pub fn collect_calls(module: &Module) -> Vec<&Expr> {
    let mut out = Vec::new();
    for stmt in &module.body {
        collect_calls_stmt(stmt, &mut out);
    }
    out
}

fn collect_calls_stmt<'a>(stmt: &'a Stmt, out: &mut Vec<&'a Expr>) {
    match stmt {
        Stmt::Expr { value, .. }
        | Stmt::Assign { value, .. }
        | Stmt::Return {
            value: Some(value), ..
        } => collect_calls_expr(value, out),
        Stmt::FunctionDef { body, .. } | Stmt::ClassDef { body, .. } | Stmt::Block { body, .. } => {
            for s in body {
                collect_calls_stmt(s, out);
            }
        }
        _ => {}
    }
}

fn collect_calls_expr<'a>(expr: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Call { args, func, .. } = expr {
        out.push(expr);
        collect_calls_expr(func, out);
        for arg in args {
            collect_calls_expr(&arg.value, out);
        }
    } else if let Expr::Attribute { value, .. } = expr {
        collect_calls_expr(value, out);
    } else if let Expr::BinOp { left, right, .. } = expr {
        collect_calls_expr(left, out);
        collect_calls_expr(right, out);
    }
}

/// Collects every string literal in the module (recursing into calls).
pub fn collect_strings(module: &Module) -> Vec<(&str, usize)> {
    let mut out = Vec::new();
    for stmt in &module.body {
        collect_strings_stmt(stmt, &mut out);
    }
    out
}

fn collect_strings_stmt<'a>(stmt: &'a Stmt, out: &mut Vec<(&'a str, usize)>) {
    match stmt {
        Stmt::Expr { value, line } | Stmt::Assign { value, line, .. } => {
            collect_strings_expr(value, *line, out)
        }
        Stmt::Return {
            value: Some(value),
            line,
        } => collect_strings_expr(value, *line, out),
        Stmt::FunctionDef { body, .. } | Stmt::ClassDef { body, .. } | Stmt::Block { body, .. } => {
            for s in body {
                collect_strings_stmt(s, out);
            }
        }
        _ => {}
    }
}

fn collect_strings_expr<'a>(expr: &'a Expr, line: usize, out: &mut Vec<(&'a str, usize)>) {
    match expr {
        Expr::Str(s) => out.push((s.as_str(), line)),
        Expr::Call { func, args } => {
            collect_strings_expr(func, line, out);
            for a in args {
                collect_strings_expr(&a.value, line, out);
            }
        }
        Expr::Attribute { value, .. } => collect_strings_expr(value, line, out),
        Expr::BinOp { left, right, .. } => {
            collect_strings_expr(left, line, out);
            collect_strings_expr(right, line, out);
        }
        _ => {}
    }
}

/// Collects imported module paths (`import x.y`, `from x import y`).
pub fn collect_imports(module: &Module) -> Vec<String> {
    let mut out = Vec::new();
    for stmt in &module.body {
        collect_imports_stmt(stmt, &mut out);
    }
    out
}

fn collect_imports_stmt(stmt: &Stmt, out: &mut Vec<String>) {
    match stmt {
        Stmt::Import { modules, .. } => out.extend(modules.iter().map(|m| m.path.clone())),
        Stmt::FromImport { module, names, .. } => {
            for n in names {
                out.push(format!("{module}.{}", n.path));
            }
        }
        Stmt::FunctionDef { body, .. } | Stmt::ClassDef { body, .. } | Stmt::Block { body, .. } => {
            for s in body {
                collect_imports_stmt(s, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_calls_finds_nested() {
        let m = parse_module("exec(base64.b64decode(payload))\n");
        let calls = collect_calls(&m);
        let names: Vec<String> = calls.iter().map(|c| c.func_path()).collect();
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
