//! Golden digests pinning `pysrc`'s front end over the whole tiny corpus.
//!
//! The lexer and parser sit under every artifact, verdict and generated
//! rule, so a refactor of either must reproduce the token stream and the
//! module to the byte. Two constants fold an FNV-1a of the `Debug`
//! rendering of `lex_spanned` / `parse_module` over every Python file of
//! the tiny corpus and of its aggressive mutants (seed 42). A third,
//! `MUTANT_DIGEST`, folds the mutants themselves — every `.py` file the
//! light, medium, aggressive and single-transform profiles write at seeds
//! 1, 2 and 42 — so a rewrite of `obfuscate` must keep every mutant byte.
//! They live here rather than in `pysrc`'s own tests because this is the
//! lowest crate that already depends on `pysrc`, `obfuscate` and `digest`.
//!
//! The tree now points into its source by span and carries offsets, not
//! lines, so `PARSE_DIGEST` folds [`legacy`]: the `Debug` text of the tree
//! the parser built when every name was an owned `String` and every
//! statement carried its line, printed from spans, the line index and
//! `pysrc`'s own renderers.
//!
//! A change to any of the constants needs a stated reason in the commit that
//! makes it.

use std::fmt::Write;

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use obfuscate::{EvasionProfile, Transform};
use pysrc::{Expr, ImportedName, Module, Stmt, Suite};

/// Recorded at commit 309ca55 (before ISSUE 21 touched `pysrc`).
const LEX_DIGEST: u64 = 0xf9d8_07f2_ca66_ad12;
const PARSE_DIGEST: u64 = 0xdd96_00fe_83e3_5a70;
/// Recorded before `obfuscate` read lexemes in place of the rendered
/// token view: every mutant of [`fold_mutants`] is byte-identical since.
const MUTANT_DIGEST: u64 = 0x433b_bce1_913d_b911;

fn fold(render: impl Fn(&str) -> String) -> u64 {
    let base = Dataset::generate(&CorpusConfig::tiny());
    let mutants = mutate_dataset(&base, &EvasionProfile::aggressive(), 42);
    let mut acc = 0u64;
    for dataset in [&base, &mutants] {
        fold_into(&mut acc, dataset, &render);
    }
    acc
}

/// Folds `render` of every Python file of `dataset` into `acc`.
fn fold_into(acc: &mut u64, dataset: &Dataset, render: &impl Fn(&str) -> String) {
    let packages = dataset
        .malware
        .iter()
        .map(|m| &m.package)
        .chain(dataset.legit.iter().map(|l| &l.package));
    for package in packages {
        for file in package.files().iter().filter(|f| f.path.ends_with(".py")) {
            let mut bytes = acc.to_le_bytes().to_vec();
            bytes.extend_from_slice(render(&file.contents).as_bytes());
            *acc = digest::fnv1a(&bytes);
        }
    }
}

/// The mutant digest: every `.py` file `mutate_dataset` writes for the
/// tiny corpus (malware and legit), per profile and seed, folded as text.
fn fold_mutants() -> u64 {
    let base = Dataset::generate(&CorpusConfig::tiny());
    let profiles = EvasionProfile::standard()
        .into_iter()
        .chain(Transform::ALL.iter().map(|&t| EvasionProfile::single(t)));
    let mut acc = 0u64;
    for profile in profiles {
        for seed in [1, 2, 42] {
            let mutants = mutate_dataset(&base, &profile, seed);
            fold_into(&mut acc, &mutants, &str::to_owned);
        }
    }
    acc
}

#[test]
fn obfuscated_mutants_are_pinned() {
    let got = fold_mutants();
    assert_eq!(got, MUTANT_DIGEST, "mutant digest is now {got:#018x}");
}

#[test]
fn lex_spanned_output_is_pinned() {
    let got = fold(|src| format!("{:?}", pysrc::lex_spanned(src)));
    assert_eq!(got, LEX_DIGEST, "lex digest is now {got:#018x}");
}

#[test]
fn parse_module_output_is_pinned() {
    let got = fold(|src| legacy(&pysrc::parse_module(src)));
    assert_eq!(got, PARSE_DIGEST, "parse digest is now {got:#018x}");
}

/// A [`pysrc::LineCursor`] answers what the line index answers, over
/// every Python file `fold` reads: at offsets that ascend (every 13th
/// byte, then every statement in walk order, as the taint engine asks)
/// and after each backwards step (the statements in reverse).
#[test]
fn a_line_cursor_answers_what_the_line_index_answers() {
    fold(|src| {
        let module = pysrc::parse_module(src);
        let lines = module.lines();
        let starts = || module.statements().iter().map(|s| s.start());
        let ascending = (0..=src.len() as u32 + 1).step_by(13);
        for offsets in [
            ascending.collect::<Vec<_>>(),
            starts().collect(),
            starts().rev().collect(),
        ] {
            let mut cursor = lines.cursor();
            for offset in offsets {
                assert_eq!(cursor.line_of(offset), lines.line_of(offset), "{offset}");
            }
        }
        String::new()
    });
}

/// The `Debug` text of the owned-string tree `module` replaces:
/// `Module { body: [Import { modules: [ImportedName { path: "os", alias:
/// None }], line: 1 }, ..] }`. Names print as their text, import paths
/// and class bases as dotted names, assignment targets and block headers
/// as `pysrc` renders them, offsets as lines.
fn legacy(module: &Module) -> String {
    let mut out = String::from("Module { body: ");
    stmts(module, module.top_level(), &mut out);
    out.push_str(" }");
    out
}

fn list<T>(
    items: impl IntoIterator<Item = T>,
    out: &mut String,
    mut item: impl FnMut(T, &mut String),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        item(x, out);
    }
    out.push(']');
}

fn stmts(m: &Module, body: Suite<'_>, out: &mut String) {
    list(body, out, |s, out| stmt(m, s, out));
}

fn names(m: &Module, names: &[ImportedName], out: &mut String) {
    let src = m.source();
    list(names, out, |n, out| {
        let alias = n.alias.map(|a| a.text(src));
        let _ = write!(
            out,
            "ImportedName {{ path: {:?}, alias: {alias:?} }}",
            n.path.dotted(src)
        );
    });
}

fn stmt(m: &Module, stmt: &Stmt, out: &mut String) {
    let src = m.source();
    let line = m.line(stmt);
    match *stmt {
        Stmt::Import { modules, .. } => {
            out.push_str("Import { modules: ");
            names(m, m.imports(modules), out);
        }
        Stmt::FromImport {
            module, names: n, ..
        } => {
            let _ = write!(
                out,
                "FromImport {{ module: {:?}, names: ",
                module.dotted(src)
            );
            names(m, m.imports(n), out);
        }
        Stmt::FunctionDef {
            name, params, body, ..
        }
        | Stmt::ClassDef {
            name,
            bases: params,
            body,
            ..
        } => {
            let (kind, field) = match stmt {
                Stmt::FunctionDef { .. } => ("FunctionDef", "params"),
                _ => ("ClassDef", "bases"),
            };
            let _ = write!(out, "{kind} {{ name: {:?}, {field}: ", name.text(src));
            list(m.names(params), out, |p, out| {
                let _ = write!(out, "{:?}", p.dotted(src));
            });
            out.push_str(", body: ");
            stmts(m, m.suite(body), out);
        }
        Stmt::Assign { targets, value, .. } => {
            out.push_str("Assign { targets: ");
            list(m.targets(targets), out, |t, out| {
                let _ = write!(out, "{:?}", t.to_text(m));
            });
            out.push_str(", value: ");
            expr(m, m.expr(value), out);
        }
        Stmt::Expr { value, .. } => {
            out.push_str("Expr { value: ");
            expr(m, m.expr(value), out);
        }
        Stmt::Return { value, .. } => {
            out.push_str("Return { value: ");
            match value {
                Some(v) => {
                    out.push_str("Some(");
                    expr(m, m.expr(v), out);
                    out.push(')');
                }
                None => out.push_str("None"),
            }
        }
        Stmt::Block { keyword, body, .. } => {
            let header = stmt.to_text(m);
            let _ = write!(
                out,
                "Block {{ keyword: {keyword:?}, header: {header:?}, body: "
            );
            stmts(m, m.suite(body), out);
        }
        Stmt::Other { text, .. } => {
            let _ = write!(out, "Other {{ text: {:?}", m.owned(text));
        }
    }
    let _ = write!(out, ", line: {line} }}");
}

fn expr(m: &Module, e: &Expr, out: &mut String) {
    let src = m.source();
    match *e {
        Expr::Name(s) => {
            let _ = write!(out, "Name({:?})", s.text(src));
        }
        Expr::Str(s) => {
            let _ = write!(out, "Str({:?})", s.text(m));
        }
        Expr::Num(s) => {
            let _ = write!(out, "Num({:?})", s.text(src));
        }
        Expr::Attribute { value, attr } => {
            out.push_str("Attribute { value: ");
            expr(m, m.expr(value), out);
            let _ = write!(out, ", attr: {:?} }}", attr.text(src));
        }
        Expr::Call { func, args } => {
            out.push_str("Call { func: ");
            expr(m, m.expr(func), out);
            out.push_str(", args: ");
            list(m.args(args), out, |a, out| {
                let name = a.name.map(|n| n.text(src));
                let _ = write!(out, "Arg {{ name: {name:?}, value: ");
                expr(m, m.expr(a.value), out);
                out.push_str(" }");
            });
            out.push_str(" }");
        }
        Expr::BinOp { left, op, right } => {
            out.push_str("BinOp { left: ");
            expr(m, m.expr(left), out);
            let _ = write!(out, ", op: {op:?}, right: ");
            expr(m, m.expr(right), out);
            out.push_str(" }");
        }
        Expr::Other(text) => {
            let _ = write!(out, "Other({:?})", m.owned(text));
        }
    }
}
