//! Property-based tests: the tolerant parser must accept anything and
//! the lexer's indentation bookkeeping must always balance.

use proptest::prelude::*;
use pysrc::{Expr, Header, Literal, Module, Span, SpannedToken, Stmt, Suite, TokenKind};

proptest! {
    #[test]
    fn parser_never_panics(src in "[ -~\\n]{0,400}") {
        let _ = pysrc::parse_module(&src);
    }

    #[test]
    fn lexer_indents_and_dedents_balance(src in "[a-z(): \\n]{0,300}") {
        let tokens = pysrc::lex_spanned(&src);
        let indents = tokens.iter().filter(|t| *t.kind() == TokenKind::Indent).count();
        let dedents = tokens.iter().filter(|t| *t.kind() == TokenKind::Dedent).count();
        prop_assert_eq!(indents, dedents);
        prop_assert_eq!(tokens.last().expect("eof token").kind(), &TokenKind::Eof);
    }

    /// The splice's foundational assumption (ISSUE 10): spanned tokens
    /// are in source order, content spans never overlap, and every span
    /// stays inside the source.
    #[test]
    fn lex_spanned_spans_are_in_order_and_disjoint(src in "[ -~\\n]{0,400}") {
        let tokens = pysrc::lex_spanned(&src);
        let mut last_end = 0usize;
        let mut last_line = 1usize;
        for t in &tokens {
            prop_assert!(t.start <= t.end, "inverted span {t:?}");
            prop_assert!(t.end <= src.len(), "span out of bounds {t:?}");
            prop_assert!(t.token.line >= last_line, "line went backwards {t:?}");
            last_line = t.token.line;
            if t.end > t.start {
                prop_assert!(t.start >= last_end, "overlapping spans at {t:?}");
                last_end = t.end;
            }
        }
    }

    /// Slicing the source by a content token's span and re-lexing the
    /// slice reproduces that token — spans are exact, not approximate.
    /// (Newline tokens are skipped: a lone "\n" is a blank line and
    /// lexes to nothing.)
    #[test]
    fn lex_spanned_slices_roundtrip_their_tokens(src in "[ -~\\n]{0,300}") {
        for t in pysrc::lex_spanned(&src) {
            if t.end == t.start || matches!(t.kind(), TokenKind::Newline) {
                continue;
            }
            let slice = &src[t.start..t.end];
            let relexed = pysrc::lex_spanned(slice);
            let first = relexed.first().expect("non-empty slice lexes");
            prop_assert_eq!(
                &first.token.kind,
                t.kind(),
                "slice {:?} did not round-trip",
                slice
            );
        }
    }

    /// Relexing from a cut point to the end of the source agrees with
    /// the full lex — the exact contract the artifact splicer relies on
    /// when it relexes only an edited window.
    #[test]
    fn lex_window_agrees_with_full_lex_at_cut_points(
        lines in prop::collection::vec("[a-z][a-z0-9 =+.()']{0,20}", 1..8)
    ) {
        let src = format!("{}\n", lines.join("\n"));
        let full = pysrc::lex_spanned(&src);
        let cuts: Vec<pysrc::CutPoint> = pysrc::cut_points(pysrc::lex(&src).iter()).collect();
        for cut in cuts {
            let from = full.iter().position(|t| t.start == cut.at).expect("a token at the cut");
            let suffix = pysrc::lex_window(&src, cut.at, src.len()).tokens;
            let suffix = pysrc::render(&src, &suffix);
            prop_assert_eq!(&suffix[..], &full[from..], "diverged at {}", cut.at);
        }
    }

    /// One front door: a token stream and the source itself parse to
    /// the same module, and a stream whose trailing EOF was removed (the
    /// splice window's shape) reads as if it were there.
    #[test]
    fn parse_entry_points_agree(src in "[ -~\\n]{0,400}") {
        let tokens = pysrc::lex(&src);
        let module = pysrc::parse_module(&src);
        prop_assert_eq!(&pysrc::parse_tokens(&src, &tokens), &module);
        prop_assert_eq!(&pysrc::parse_tokens(&src, &tokens[..tokens.len() - 1]), &module);
    }

    /// Operator tokens borrow their text from static tables; it must
    /// still be exactly the bytes the token spans.
    #[test]
    fn op_payloads_slice_back_to_their_spans(src in "[ -~\\n]{0,400}") {
        for t in pysrc::lex_spanned(&src) {
            if let TokenKind::Op(op) = t.kind() {
                prop_assert_eq!(&src[t.start..t.end], *op);
            }
        }
    }

    /// Statement lines follow the source: siblings never go backwards
    /// and no compound statement is stamped after its own body starts.
    /// The splice selects donor statements by line, so it relies on
    /// both. (No brackets in the alphabet, so every newline is a
    /// logical line and indentation is tracked.)
    #[test]
    fn statement_lines_follow_the_source(src in "[a-z =:\\n]{0,200}") {
        let module = pysrc::parse_module(&src);
        let checked = lines_follow_the_source(&module, module.top_level());
        prop_assert!(checked.is_ok(), "{checked:?} in {src:?}: {module:?}");
    }

    /// Every span of the tree lies in the source on character
    /// boundaries; a name, attribute, number or parameter span is exactly
    /// its token's; and a statement's line is its first token's.
    #[test]
    fn spans_point_at_their_tokens(src in "[ -~\\n\\r\\té—]{0,300}") {
        check_spans(&src)?;
    }

    #[test]
    fn indented_spans_point_at_their_tokens(
        lines in prop::collection::vec("( {0,4}|\\t)[a-z(),.:='é]{0,24}", 0..10),
        crlf in any::<bool>(),
        final_newline in any::<bool>(),
    ) {
        let mut src = lines.join(if crlf { "\r\n" } else { "\n" });
        if final_newline {
            src.push('\n');
        }
        check_spans(&src)?;
    }

    #[test]
    fn string_literals_roundtrip(value in "[a-zA-Z0-9 ./:_-]{0,40}") {
        let src = format!("x = '{value}'\n");
        let module = pysrc::parse_module(&src);
        let strings = pysrc::collect_strings(&module);
        prop_assert_eq!(strings.len(), 1);
        prop_assert_eq!(strings[0].0, value.as_str());
    }

    #[test]
    fn call_paths_roundtrip(a in "[a-z]{1,8}", b in "[a-z]{1,8}", c in "[a-z]{1,8}") {
        let src = format!("{a}.{b}.{c}(arg)\n");
        let module = pysrc::parse_module(&src);
        let calls = pysrc::collect_calls(&module);
        prop_assert_eq!(calls.len(), 1);
        prop_assert_eq!(calls[0].func_path(&module), format!("{a}.{b}.{c}"));
    }

    #[test]
    fn imports_roundtrip(names in prop::collection::vec("[a-z]{2,10}", 1..4)) {
        let src = format!("import {}\n", names.join(", "));
        let module = pysrc::parse_module(&src);
        let found = pysrc::collect_imports(&module);
        for n in &names {
            prop_assert!(found.contains(n), "{n} missing from {found:?}");
        }
    }

    #[test]
    fn nested_functions_all_visible(depth in 1usize..6) {
        let mut src = String::new();
        for d in 0..depth {
            src.push_str(&"    ".repeat(d));
            src.push_str(&format!("def f{d}():\n"));
        }
        src.push_str(&"    ".repeat(depth));
        src.push_str("os.system('x')\n");
        let module = pysrc::parse_module(&src);
        let calls = pysrc::collect_calls(&module);
        prop_assert_eq!(calls.len(), 1, "src:\n{}", src);
    }
}

/// Checks `body` and, recursively, every nested body: sibling lines
/// never decrease, and a compound statement's line is at most its first
/// body statement's.
fn lines_follow_the_source(module: &Module, body: Suite<'_>) -> Result<(), String> {
    let stmts: Vec<&Stmt> = body.collect();
    for pair in stmts.windows(2) {
        let (prev, next) = (module.line(pair[0]), module.line(pair[1]));
        if next < prev {
            return Err(format!("sibling lines {prev} then {next}"));
        }
    }
    for stmt in stmts {
        let Some(inner) = stmt.body() else {
            continue;
        };
        let first = module
            .suite(inner)
            .next()
            .map_or(usize::MAX, |s| module.line(s));
        let header = module.line(stmt);
        if header > first {
            return Err(format!("header line {header} after body line {first}"));
        }
        lines_follow_the_source(module, module.suite(inner))?;
    }
    Ok(())
}

/// Every ASCII byte that is not whitespace, a quote, `#`, a digit or an
/// identifier byte falls through to the operator lexer; alone on a line
/// it must come back as a one-byte `Op` equal to itself.
#[test]
fn every_ascii_byte_that_reaches_the_operator_lexer_is_a_one_byte_op() {
    for b in 0u8..0x80 {
        if matches!(b, b'\n' | b'\r' | b' ' | b'\t' | b'"' | b'\'' | b'#' | b'_')
            || b.is_ascii_alphanumeric()
        {
            continue;
        }
        let src = String::from_utf8(vec![b]).expect("ASCII");
        let tokens = pysrc::lex_spanned(&src);
        let first = &tokens[0];
        assert!(
            matches!(first.kind(), TokenKind::Op(op) if *op == src),
            "byte {b:#04x} lexed to {first:?}"
        );
        assert_eq!((first.start, first.end), (0, 1), "byte {b:#04x}");
    }
}

#[test]
fn span_edge_cases() {
    for src in [
        "",
        "x",
        "a = 1\r\nif b:\r\n    c(d)\r\n",
        "import os . path as p\nfrom . import (a, b as c)\n",
        "class C(a.b, \\\n  c):\n    def f(self, x=1, *a, **k): pass\n",
        "for k, v in d.items(): g(k=v)\nwith open('f') as h: pass\n",
        "x = 'a' 'b'\ny = 'é\\n'\nz = 0x1F + 3.5\n",
        "async with a as b:\n    pass\n",
        "    indented = 1\nback = 2",
    ] {
        check_spans(src).unwrap_or_else(|e| panic!("{src:?}: {e:?}"));
    }
    // An offset on a `\n` belongs to the line the `\n` ends.
    let module = pysrc::parse_module("a\nb\n");
    assert_eq!(module.lines().line_of(1), 1);
    assert_eq!(module.lines().line_of(2), 2);
}

/// What a span must slice to: exactly one token, or any text.
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    Ident,
    Number,
    Any,
}

fn check_spans(src: &str) -> Result<(), TestCaseError> {
    let module = pysrc::parse_module(src);
    let tokens = pysrc::lex_spanned(src);
    let mut spans = Vec::new();
    let mut starts = Vec::new();
    collect_stmts(&module, &mut spans, &mut starts);
    for (span, expect) in spans {
        let (start, end) = (span.start as usize, span.end as usize);
        prop_assert!(
            start <= end && end <= src.len(),
            "{span:?} out of {}",
            src.len()
        );
        prop_assert!(
            src.is_char_boundary(start) && src.is_char_boundary(end),
            "{span:?}"
        );
        if expect == Expect::Any {
            continue;
        }
        let token = tokens.iter().find(|t| t.start == start && t.end > t.start);
        let kind_ok = |t: &SpannedToken<'_>| match expect {
            Expect::Ident => matches!(t.kind(), TokenKind::Ident(_)),
            _ => matches!(t.kind(), TokenKind::Number(_)),
        };
        prop_assert!(
            token.is_some_and(|t| t.end == end && kind_ok(t)),
            "{span:?} ({:?}) is not one token",
            span.text(src)
        );
    }
    for start in starts {
        let token = tokens.iter().find(|t| t.start == start as usize);
        prop_assert!(token.is_some(), "no token at statement start {start}");
        let line = token.map_or(0, |t| t.token.line);
        prop_assert_eq!(
            module.lines().line_of(start),
            line,
            "statement at {}",
            start
        );
    }
    Ok(())
}

fn collect_stmts(m: &Module, spans: &mut Vec<(Span, Expect)>, starts: &mut Vec<u32>) {
    for stmt in m.statements() {
        starts.push(stmt.start());
        match *stmt {
            Stmt::Import { modules: names, .. } | Stmt::FromImport { names, .. } => {
                if let Stmt::FromImport { module, .. } = stmt {
                    spans.push((*module, Expect::Any));
                }
                for n in m.imports(names) {
                    spans.push((n.path, Expect::Any));
                    spans.extend(n.alias.map(|a| (a, Expect::Ident)));
                }
            }
            Stmt::FunctionDef { name, params, .. } => {
                spans.push((name, Expect::Any));
                spans.extend(m.names(params).iter().map(|p| (*p, Expect::Ident)));
            }
            Stmt::ClassDef { name, bases, .. } => {
                spans.push((name, Expect::Any));
                spans.extend(m.names(bases).iter().map(|b| (*b, Expect::Any)));
            }
            Stmt::Assign { targets, value, .. } => {
                for t in m.targets(targets) {
                    collect_expr(m, t, spans);
                }
                collect_expr(m, m.expr(value), spans);
            }
            Stmt::Expr { value, .. }
            | Stmt::Return {
                value: Some(value), ..
            } => collect_expr(m, m.expr(value), spans),
            Stmt::Block { header, parsed, .. } => {
                spans.push((header, Expect::Any));
                if let Some(Header { value, target }) = parsed {
                    collect_expr(m, m.expr(value), spans);
                    spans.extend(target.map(|t| (t, Expect::Any)));
                }
            }
            Stmt::Return { value: None, .. } | Stmt::Other { .. } => {}
        }
    }
}

fn collect_expr(m: &Module, expr: &Expr, spans: &mut Vec<(Span, Expect)>) {
    match *expr {
        Expr::Name(s) => spans.push((s, Expect::Ident)),
        Expr::Num(s) => spans.push((s, Expect::Number)),
        Expr::Str(Literal::Source(s)) => spans.push((s, Expect::Any)),
        Expr::Attribute { value, attr } => {
            spans.push((attr, Expect::Ident));
            collect_expr(m, m.expr(value), spans);
        }
        Expr::Call { func, args } => {
            collect_expr(m, m.expr(func), spans);
            for a in m.args(args) {
                spans.extend(a.name.map(|n| (n, Expect::Ident)));
                collect_expr(m, m.expr(a.value), spans);
            }
        }
        Expr::BinOp { left, right, .. } => {
            collect_expr(m, m.expr(left), spans);
            collect_expr(m, m.expr(right), spans);
        }
        Expr::Str(Literal::Owned(_)) | Expr::Other(_) => {}
    }
}
