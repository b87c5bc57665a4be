//! The one lexer against the reference it replaced.
//!
//! `pysrc` lexes into compact lexemes and renders them as
//! [`pysrc::SpannedToken`]s only on request; `oracles::lexer` is the
//! lexer it grew from, which built each spanned token and decoded each
//! literal as it lexed. The rendered view must equal the reference token
//! for token — kinds, text, decoded values and whether they are owned,
//! lines, columns and spans — over every Python file of the tiny corpus
//! and of its aggressive mutants (seed 42) and over generated sources
//! built from the bytes lexers get wrong: non-ASCII text, escapes, `\r\n`,
//! tabs, `\` continuations, string prefixes, triple-quoted and
//! unterminated strings. The live cut points of the lexemes must be the
//! reference's own cut points of its tokens, and a window relexed from
//! one must render as the reference relexes it.

use std::borrow::Cow;

use corpus::{mutate_dataset, CorpusConfig, Dataset};
use obfuscate::EvasionProfile;
use proptest::prelude::*;
use pysrc::{SpannedToken, TokenKind};

/// Every Python file of the tiny corpus and its aggressive mutants.
fn python_sources() -> Vec<String> {
    let base = Dataset::generate(&CorpusConfig::tiny());
    let mutants = mutate_dataset(&base, &EvasionProfile::aggressive(), 42);
    let mut out = Vec::new();
    for dataset in [base, mutants] {
        let packages = dataset
            .malware
            .into_iter()
            .map(|m| m.package)
            .chain(dataset.legit.into_iter().map(|l| l.package));
        for package in packages {
            for file in package.files().iter().filter(|f| f.path.ends_with(".py")) {
                out.push(file.contents.clone());
            }
        }
    }
    out
}

/// Whether a token is a string literal that owns its value.
fn owned(t: &SpannedToken<'_>) -> bool {
    matches!(
        t.kind(),
        TokenKind::Str {
            value: Cow::Owned(_),
            ..
        }
    )
}

/// `got` equals `want` token for token, string values owned alike.
fn same(got: &[SpannedToken<'_>], want: &[SpannedToken<'_>]) -> Result<(), String> {
    if let Some(i) = (0..got.len().max(want.len())).find(|&i| got.get(i) != want.get(i)) {
        return Err(format!(
            "token {i}: {:?} where the reference has {:?}",
            got.get(i),
            want.get(i)
        ));
    }
    match got.iter().zip(want).position(|(g, w)| owned(g) != owned(w)) {
        Some(i) => Err(format!("token {i} is owned differently: {:?}", got[i])),
        None => Ok(()),
    }
}

/// The view and the rendering of [`pysrc::lex`] equal the reference lex
/// of `src`, the lexemes' cut points are the reference's, and every
/// window relexed from one of them equals the reference's relex, to the
/// end of the file and to the next cut point.
fn check(src: &str) -> Result<usize, String> {
    let reference = oracles::lexer::lex_spanned(src);
    same(&pysrc::lex_spanned(src), &reference).map_err(|e| format!("lex_spanned: {e}"))?;
    same(&pysrc::render(src, &pysrc::lex(src)), &reference).map_err(|e| format!("lex: {e}"))?;
    let cuts: Vec<oracles::lexer::CutPoint> = oracles::lexer::cut_points(&reference).collect();
    let want: Vec<(usize, usize)> = cuts.iter().map(|c| (c.newline_end, c.at)).collect();
    let live: Vec<(usize, usize)> = pysrc::cut_points(pysrc::lex(src).iter())
        .map(|c| (c.newline_end, c.at))
        .collect();
    if live != want {
        return Err(format!("cut points {live:?}, reference {want:?}"));
    }
    let ends = cuts.iter().skip(1).map(|c| c.at).chain([src.len()]);
    for (cut, end) in cuts.iter().zip(ends) {
        let line = src[..cut.at].matches('\n').count() + 1;
        for end in [end, src.len()] {
            let window = pysrc::lex_window(src, cut.at, end, line);
            let want = oracles::lexer::lex_window(src, cut.at, end);
            same(&pysrc::render(src, &window.tokens), &want.tokens)
                .map_err(|e| format!("window {}..{end}: {e}", cut.at))?;
            if window.ends_at_statement_boundary != want.ends_at_statement_boundary {
                return Err(format!("window {}..{end}: boundary differs", cut.at));
            }
        }
        let from = reference.iter().position(|t| t.start == cut.at);
        let suffix = pysrc::lex_window(src, cut.at, src.len(), line).tokens;
        let suffix = pysrc::render(src, &suffix);
        if from.map(|i| &reference[i..]) != Some(&suffix[..]) {
            return Err(format!("the relex from {} is not the lex's suffix", cut.at));
        }
    }
    Ok(cuts.len())
}

#[test]
fn the_view_equals_the_reference_lexer_on_every_corpus_file() {
    let (mut files, mut cuts, mut owned_literals) = (0, 0, 0);
    for src in python_sources() {
        cuts += check(&src).unwrap_or_else(|e| panic!("{e} in {src:?}"));
        owned_literals += pysrc::lex_spanned(&src).iter().filter(|t| owned(t)).count();
        files += 1;
    }
    // Vacuity guard: the corpus has cut points and owned literals.
    assert!(
        files > 100 && cuts > 200 && owned_literals > 0,
        "{files} files, {cuts} cut points, {owned_literals} owned literals"
    );
}

/// Pieces of hostile source: non-ASCII text, escapes, line endings,
/// tabs, continuations, string prefixes in either case, quotes of both
/// kinds and widths, and enough Python around them to open indented
/// blocks and brackets.
const PIECES: [&str; 46] = [
    "\u{e9}",
    "\u{2014}",
    "\\",
    "\\n",
    "\\t",
    "\\r",
    "\\'",
    "\\\"",
    "\\\\",
    "\\q",
    "\\\u{e9}",
    "\r\n",
    "\n",
    "\t",
    "    ",
    "\\\n",
    "'",
    "\"",
    "'''",
    "\"\"\"",
    "r",
    "b",
    "f",
    "u",
    "rb",
    "Rb",
    "bR",
    "fr",
    "RF",
    "x",
    "_y",
    "0x1F",
    "3.5",
    "(",
    ")",
    "[",
    "]",
    "=",
    ":",
    "**=",
    "...",
    "# c",
    " ",
    "if a:\n",
    "def f():\n",
    "s = ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_view_equals_the_reference_lexer_on_hostile_pieces(
        pieces in prop::collection::vec(prop::sample::select(PIECES), 0..48)
    ) {
        let src = pieces.concat();
        let checked = check(&src);
        prop_assert!(checked.is_ok(), "{:?} in {:?}", checked, src);
    }

    #[test]
    fn the_view_equals_the_reference_lexer_on_hostile_bytes(
        src in "[ -~\\n\\r\\t\u{e9}\u{2014}]{0,300}"
    ) {
        let checked = check(&src);
        prop_assert!(checked.is_ok(), "{:?} in {:?}", checked, src);
    }
}
