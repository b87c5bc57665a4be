//! Property-based tests: the tolerant parser must accept anything and
//! the lexer's indentation bookkeeping must always balance.

use proptest::prelude::*;
use pysrc::TokenKind;

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
        for cut in pysrc::cut_points(&full) {
            let from = full.iter().position(|t| t.start == cut.at).expect("a token at the cut");
            let suffix = pysrc::lex_window(&src, cut.at, src.len()).tokens;
            prop_assert_eq!(&suffix[..], &full[from..], "diverged at {}", cut.at);
        }
    }

    /// One front door: a spanned stream and the source itself parse to
    /// the same module, and a stream whose trailing EOF was removed (the
    /// splice window's shape) reads as if it were there.
    #[test]
    fn parse_entry_points_agree(src in "[ -~\\n]{0,400}") {
        let spanned = pysrc::lex_spanned(&src);
        let module = pysrc::parse_module(&src);
        prop_assert_eq!(&pysrc::parse_tokens(&spanned), &module);
        prop_assert_eq!(&pysrc::parse_tokens(&spanned[..spanned.len() - 1]), &module);
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
        prop_assert_eq!(calls[0].func_path(), format!("{a}.{b}.{c}"));
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
