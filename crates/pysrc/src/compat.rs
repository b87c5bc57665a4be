//! The token shape before tokens became [`Lexeme`]s, kept as a view of
//! them for the readers that have not moved: the repository benchmark,
//! the front-end goldens and the reference-lexer equivalence suite.
//!
//! Nothing else in the workspace names this module. Each item is
//! re-exported at the crate root, where it lived before. A
//! [`SpannedToken`] is a lexeme rendered with its text, line and column:
//! 72 bytes where a lexeme is 16, plus an owned buffer for each string
//! literal whose value differs from its bytes.

use std::borrow::Cow;

use crate::ast::offset;
use crate::lexer::{lexable, reservation, Lexer, MAX_SOURCE};
use crate::strings::Interner;
use crate::token::{Kind, Lexeme};
use crate::StringTable;

/// The kind of a rendered token (see [`SpannedToken`]). Text borrows the
/// source it was lexed from (`'src`); only a string literal whose value
/// differs from its source bytes owns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind<'src> {
    /// Identifier or keyword (`def`, `import`, names, ...).
    Ident(&'src str),
    /// Integer or float literal, kept as text.
    Number(&'src str),
    /// String literal with quotes stripped and prefix recorded.
    Str {
        /// Decoded contents (no quotes): [`Lexeme::value`].
        value: Cow<'src, str>,
        /// Prefix letters (`b`, `r`, `f`, ...), lowercased: one of the
        /// lexer's fixed prefixes.
        prefix: &'static str,
    },
    /// A single operator or punctuation glyph sequence (`==`, `.`, `(`...).
    /// Operators come from a fixed set, so the text is a `'static` slice
    /// of the lexer's tables: an operator token owns no heap memory.
    Op(&'static str),
    /// Logical end of line.
    Newline,
    /// Indentation increased.
    Indent,
    /// Indentation decreased.
    Dedent,
    /// `# ...` comment (kept: analyzers look for commented-out IOC hints).
    Comment(&'src str),
    /// End of input.
    Eof,
}

/// A rendered token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'src> {
    /// What was lexed.
    pub kind: TokenKind<'src>,
    /// 1-based line number.
    pub line: usize,
    /// 0-based column of the first byte.
    pub col: usize,
}

/// A [`Lexeme`] rendered with its text. `source[start..end]` is the
/// lexeme's span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedToken<'src> {
    /// The token.
    pub token: Token<'src>,
    /// Byte offset of the first byte of the token in the source.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
}

impl<'src> SpannedToken<'src> {
    /// The token kind (convenience passthrough).
    pub fn kind(&self) -> &TokenKind<'src> {
        &self.token.kind
    }
}

/// [`crate::lex`]'s tokens rendered as [`SpannedToken`]s, as the lexer
/// emits them. It allocates its vector, plus one buffer per string
/// literal whose value is owned (see [`Lexeme::value`]); it does not
/// touch the token buffer the thread keeps.
pub fn lex_spanned(source: &str) -> Vec<SpannedToken<'_>> {
    let source = lexable(source, MAX_SOURCE);
    let mut view = Render::new(source, reservation(source.len()));
    Lexer::new(source.as_bytes(), 0, 1, |t, col| view.push(t, col)).run();
    view.out
}

/// `tokens`, lexed from `source`, rendered as [`lex_spanned`] renders
/// them. A token's column is counted from the start of its line in
/// `source`, so a window relexed from a line start renders as the same
/// tokens of a whole-source lex do.
pub fn render<'src>(source: &'src str, tokens: &[Lexeme]) -> Vec<SpannedToken<'src>> {
    let mut view = Render::new(source, tokens.len());
    let (mut line, mut line_start) = (0, 0);
    for &t in tokens {
        // A token's line counts the newlines in front of it, so only a
        // token on a new line moves the line start: to just past the
        // nearest newline behind the token.
        let start = t.start as usize;
        if t.line != line {
            line = t.line;
            let before = source.as_bytes().get(..start).unwrap_or_default();
            line_start = before
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |nl| nl + 1);
        }
        let col = match t.kind {
            Kind::INDENT | Kind::DEDENT => 0,
            _ => start.saturating_sub(line_start),
        };
        view.push(t, col);
    }
    view.out
}

/// Renders lexemes of one source, in order, as [`SpannedToken`]s.
struct Render<'src> {
    source: &'src str,
    out: Vec<SpannedToken<'src>>,
}

impl<'src> Render<'src> {
    fn new(source: &'src str, capacity: usize) -> Self {
        Render {
            source,
            out: Vec::with_capacity(capacity),
        }
    }

    /// Renders `t`, which starts at column `col`.
    fn push(&mut self, t: Lexeme, col: usize) {
        let (start, end) = (t.start as usize, t.end as usize);
        let text = t.text(self.source);
        let kind = match t.kind {
            Kind::IDENT => TokenKind::Ident(text),
            Kind::NUMBER => TokenKind::Number(text),
            Kind::STR => TokenKind::Str {
                value: t.value(self.source),
                prefix: t.prefix(),
            },
            Kind::COMMENT => TokenKind::Comment(text),
            Kind::NEWLINE => TokenKind::Newline,
            Kind::INDENT => TokenKind::Indent,
            Kind::DEDENT => TokenKind::Dedent,
            Kind::EOF => TokenKind::Eof,
            op => TokenKind::Op(op.op_text().unwrap_or_default()),
        };
        let line = t.line as usize;
        self.out.push(SpannedToken {
            token: Token { kind, line, col },
            start,
            end,
        });
    }
}

/// The [`StringTable`] of a rendered token stream: what
/// [`StringTable::of`] builds from the lexemes it was rendered from.
pub fn intern_strings(tokens: &[SpannedToken<'_>]) -> StringTable {
    let mut interner = Interner::default();
    for t in tokens {
        if let TokenKind::Str { value, prefix } = t.kind() {
            if !prefix.contains('f') {
                interner.push(value, offset(t.token.line));
            }
        }
    }
    interner.table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lex, lex_window};

    #[test]
    fn lex_window_over_the_whole_source_is_lex_spanned() {
        let src = "import os\n\ndef f(a):\n    return a\n\nx = f(1)\n";
        let window = lex_window(src, 0, src.len()).tokens;
        assert_eq!(render(src, &window), lex_spanned(src));
        assert_eq!(render(src, &lex(src)), lex_spanned(src));
    }

    #[test]
    fn lex_window_rebases_spans_and_lines() {
        let src = "a = 1\nb = 2\nc = 3\n";
        let full = lex_spanned(src);
        let w = lex_window(src, 6, 12);
        assert!(w.ends_at_statement_boundary);
        let tokens = render(src, &w.tokens);
        let expected: Vec<SpannedToken> = full
            .iter()
            .filter(|t| t.start >= 6 && t.end <= 12 && t.end > t.start)
            .cloned()
            .collect();
        // The window's content tokens (everything but the close-out EOF)
        // are exactly the full lex's tokens over those bytes.
        let content: Vec<SpannedToken> = tokens
            .iter()
            .filter(|t| !matches!(t.kind(), TokenKind::Eof))
            .cloned()
            .collect();
        assert_eq!(content, expected);
        assert_eq!(content[0].token.line, 2);
    }

    #[test]
    fn spans_slice_back_to_raw_source() {
        let src = "x = rb'pay\\load'  # note\ny = 0xFF\n";
        for st in lex_spanned(src) {
            let raw = &src[st.start..st.end];
            match &st.token.kind {
                TokenKind::Ident(w) => assert_eq!(raw, *w),
                TokenKind::Number(n) => assert_eq!(raw, *n),
                TokenKind::Str { .. } => assert_eq!(raw, "rb'pay\\load'"),
                TokenKind::Comment(c) => assert_eq!(raw, *c),
                TokenKind::Op(o) => assert_eq!(raw, *o),
                TokenKind::Newline => assert_eq!(raw, "\n"),
                TokenKind::Indent | TokenKind::Dedent | TokenKind::Eof => assert!(raw.is_empty()),
            }
        }
    }
}
