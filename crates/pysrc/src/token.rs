//! Token model for the Python lexer: the compact [`Lexeme`] every reader
//! on the scan path takes, and the rendered [`SpannedToken`] view of it.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

use crate::ast::offset;

/// What a [`Lexeme`] is: one code per operator, plus the eight other
/// kinds. A one-byte operator's code is its byte; the rest are above
/// every ASCII byte.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Kind(pub(crate) u8);

/// Multi-character operators, longest first so maximal munch works. The
/// operator at index `i` is kind `Kind::multi(i)`.
pub(crate) const OPERATORS: [&str; 24] = [
    "**=", "//=", ">>=", "<<=", "...", "->", ":=", "==", "!=", "<=", ">=", "//", "**", ">>", "<<",
    "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "@=",
];

/// Every ASCII byte in order: a one-byte operator's text is the one-byte
/// `'static` slice of this at its own value. (Bytes >= 0x80 lex as
/// identifiers and are never operators.)
const ASCII: &str = {
    const BYTES: [u8; 128] = {
        let mut table = [0u8; 128];
        let mut i = 0;
        while i < 128 {
            table[i] = i as u8;
            i += 1;
        }
        table
    };
    match std::str::from_utf8(&BYTES) {
        Ok(s) => s,
        Err(_) => panic!("bytes below 0x80 are UTF-8"),
    }
};

impl Kind {
    /// Identifier or keyword.
    pub const IDENT: Kind = Kind(128);
    /// Integer or float literal.
    pub const NUMBER: Kind = Kind(129);
    /// String literal (see [`Lexeme::value`]).
    pub const STR: Kind = Kind(130);
    /// `# ...` comment.
    pub const COMMENT: Kind = Kind(131);
    /// Logical end of line.
    pub const NEWLINE: Kind = Kind(132);
    /// Indentation increased.
    pub const INDENT: Kind = Kind(133);
    /// Indentation decreased.
    pub const DEDENT: Kind = Kind(134);
    /// End of input.
    pub const EOF: Kind = Kind(135);
    const FIRST_MULTI: u8 = 136;

    /// The kind of `OPERATORS[i]`.
    pub(crate) fn multi(i: usize) -> Kind {
        Kind(Kind::FIRST_MULTI + i as u8)
    }

    /// The kind of operator `text`.
    ///
    /// # Panics
    ///
    /// Panics (at compile time in a constant) if `text` is neither one
    /// ASCII byte nor a multi-character operator.
    pub const fn op(text: &str) -> Kind {
        let b = text.as_bytes();
        if b.len() == 1 && b[0] < 0x80 {
            return Kind(b[0]);
        }
        let mut i = 0;
        while i < OPERATORS.len() {
            let op = OPERATORS[i].as_bytes();
            if op.len() == b.len() {
                let mut j = 0;
                while j < b.len() && op[j] == b[j] {
                    j += 1;
                }
                if j == b.len() {
                    return Kind(Kind::FIRST_MULTI + i as u8);
                }
            }
            i += 1;
        }
        panic!("not an operator")
    }

    /// An operator's text, from the lexer's tables; `None` for the other
    /// kinds.
    pub fn op_text(self) -> Option<&'static str> {
        match self.0 {
            b @ 0..=127 => Some(&ASCII[usize::from(b)..usize::from(b) + 1]),
            c => OPERATORS
                .get(usize::from(c.checked_sub(Kind::FIRST_MULTI)?))
                .copied(),
        }
    }
}

impl fmt::Debug for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match *self {
            Kind::IDENT => "Ident",
            Kind::NUMBER => "Number",
            Kind::STR => "Str",
            Kind::COMMENT => "Comment",
            Kind::NEWLINE => "Newline",
            Kind::INDENT => "Indent",
            Kind::DEDENT => "Dedent",
            Kind::EOF => "Eof",
            op => return write!(f, "Op({:?})", op.op_text().unwrap_or_default()),
        };
        f.write_str(name)
    }
}

/// String prefixes, lowercased: a literal's prefix is one of these or
/// empty.
pub(crate) const STRING_PREFIXES: [&str; 8] = ["r", "b", "f", "u", "rb", "br", "fr", "rf"];

/// [`Lexeme`] flag bits. The low four hold a string's prefix, as its
/// index in [`STRING_PREFIXES`] plus one (0 for none).
pub(crate) mod flag {
    /// The string's prefix, see above.
    pub const PREFIX: u8 = 0x0f;
    /// The string is triple-quoted.
    pub const TRIPLE: u8 = 0x10;
    /// The string ends in its closing quotes.
    pub const CLOSED: u8 = 0x20;
    /// The string's value differs from the bytes between its quotes: it
    /// holds a processed escape or a byte >= 0x80.
    pub const DECODED: u8 = 0x40;
    /// The token starts at column zero (INDENT and DEDENT always do).
    pub const COLUMN_ZERO: u8 = 0x80;
}

/// A lexed token: 16 bytes of plain data, its text read back from the
/// source it was lexed from as `&source[start..end]`.
///
/// Synthesized tokens (INDENT/DEDENT, the final NEWLINE/EOF) carry an
/// empty span at the position they were synthesized. For every other
/// token the span is the exact raw text — quotes and prefix included for
/// a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lexeme {
    /// What was lexed.
    pub kind: Kind,
    flags: u8,
    /// Byte offset of the first byte of the token in the source.
    pub start: u32,
    /// Byte offset one past the last byte of the token.
    pub end: u32,
    /// 1-based line number, saturating at `u32::MAX`.
    pub line: u32,
}

const _: () = assert!(std::mem::size_of::<Lexeme>() <= 16);

impl Lexeme {
    pub(crate) fn new(kind: Kind, flags: u8, start: u32, end: u32, line: u32) -> Lexeme {
        Lexeme {
            kind,
            flags,
            start,
            end,
            line,
        }
    }

    /// A one-byte token of `kind` at column zero of byte `at`, standing in
    /// for a neighbour of a relexed window when [`crate::cut_points`]
    /// reads across the window's edge. Offsets saturate at `u32::MAX`.
    pub fn stand_in(kind: Kind, at: usize) -> Lexeme {
        let (start, end) = (offset(at), offset(at.saturating_add(1)));
        Lexeme::new(kind, flag::COLUMN_ZERO, start, end, 0)
    }

    /// The token's raw text in `source`, the text it was lexed from
    /// (empty if it is not).
    pub fn text(self, source: &str) -> &str {
        source
            .get(self.start as usize..self.end as usize)
            .unwrap_or_default()
    }

    /// Whether the token starts at column zero.
    pub(crate) fn at_column_zero(self) -> bool {
        self.flags & flag::COLUMN_ZERO != 0
    }

    /// A string's prefix letters (`b`, `r`, `f`, ...), lowercased; empty
    /// for a token that is not a string.
    pub fn prefix(self) -> &'static str {
        match usize::from(self.flags & flag::PREFIX) {
            0 => "",
            i => STRING_PREFIXES.get(i - 1).copied().unwrap_or_default(),
        }
    }

    /// Whether a string's value must be decoded from its span: it differs
    /// from the bytes between the quotes.
    pub fn is_decoded(self) -> bool {
        self.flags & flag::DECODED != 0
    }

    /// A string's value in `source`, the text it was lexed from: the
    /// bytes between its quotes, borrowed, unless [`Lexeme::is_decoded`].
    /// Then it is decoded from the span — escapes processed, and each
    /// byte of 0x80 or above appended byte-as-char (`'—'` reads
    /// `"â\u{80}\u{94}"`, until ROADMAP item 4 fixes that in its own PR) —
    /// and owned unless it is empty. Empty for a token that is not a
    /// string.
    pub fn value(self, source: &str) -> Cow<'_, str> {
        if self.kind != Kind::STR {
            return Cow::Borrowed("");
        }
        if !self.is_decoded() {
            return Cow::Borrowed(self.verbatim(source));
        }
        let mut len = 0;
        self.body(source).scan(self.body_start(), |piece| {
            len += piece.len_utf8();
        });
        if len == 0 {
            return Cow::Borrowed("");
        }
        let mut value = String::with_capacity(len);
        self.push_value(source, &mut value);
        Cow::Owned(value)
    }

    /// Appends [`Lexeme::value`] to `out`, allocating nothing else.
    pub(crate) fn push_value(self, source: &str, out: &mut String) {
        if self.kind != Kind::STR {
            return;
        }
        if !self.is_decoded() {
            out.push_str(self.verbatim(source));
            return;
        }
        self.body(source)
            .scan(self.body_start(), |piece| piece.push_to(out));
    }

    /// The quotes' width: 3 for a triple-quoted string, else 1.
    fn quotes(self) -> usize {
        if self.flags & flag::TRIPLE != 0 {
            3
        } else {
            1
        }
    }

    /// Offset of a string's first byte after its opening quotes.
    fn body_start(self) -> usize {
        self.start as usize + self.prefix().len() + self.quotes()
    }

    /// Where the bytes between a string's quotes are.
    pub(crate) fn body_range(self) -> Range<usize> {
        let closing = if self.flags & flag::CLOSED != 0 {
            self.quotes()
        } else {
            0
        };
        self.body_start()..(self.end as usize).saturating_sub(closing)
    }

    /// The bytes between a string's quotes (a string that is not
    /// decoded is all ASCII there).
    fn verbatim(self, source: &str) -> &str {
        source.get(self.body_range()).unwrap_or_default()
    }

    /// A string's body as the lexer scanned it: the source up to the
    /// token's end, so that a decode reads no byte the lex did not.
    fn body(self, source: &str) -> crate::lexer::LiteralBody<'_> {
        let src = source.as_bytes();
        let src = &src[..src.len().min(self.end as usize)];
        let prefix = self.prefix();
        crate::lexer::LiteralBody {
            src,
            quote: src
                .get(self.start as usize + prefix.len())
                .copied()
                .unwrap_or(b'\''),
            triple: self.flags & flag::TRIPLE != 0,
            raw: prefix.contains('r'),
        }
    }
}

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

/// A [`Lexeme`] rendered with its text, for source-to-source rewriters
/// (the `obfuscate` crate) and tools that print tokens: see
/// [`crate::lex_spanned`]. Nothing on the scan path builds one.
///
/// `source[start..end]` is the lexeme's span, which is what rewriters
/// splice against.
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

impl<'src> Token<'src> {
    /// Returns the identifier text if this token is an identifier.
    pub fn as_ident(&self) -> Option<&'src str> {
        match self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Returns true when the token is the given operator glyph.
    pub fn is_op(&self, op: &str) -> bool {
        matches!(self.kind, TokenKind::Op(s) if s == op)
    }
}

/// Python keywords recognised by the block splitter (§IV-A of the paper
/// keys basic-unit boundaries on these).
pub const KEYWORDS: &[&str] = &[
    "False", "None", "True", "and", "as", "assert", "async", "await", "break", "class", "continue",
    "def", "del", "elif", "else", "except", "finally", "for", "from", "global", "if", "import",
    "in", "is", "lambda", "nonlocal", "not", "or", "pass", "raise", "return", "try", "while",
    "with", "yield",
];

/// Returns true when `word` is a Python keyword.
pub fn is_keyword(word: &str) -> bool {
    KEYWORDS.contains(&word)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert!(is_keyword("def"));
        assert!(is_keyword("class"));
        assert!(!is_keyword("definitely"));
    }

    #[test]
    fn token_helpers() {
        let t = Token {
            kind: TokenKind::Ident("os"),
            line: 1,
            col: 0,
        };
        assert_eq!(t.as_ident(), Some("os"));
        assert!(!t.is_op("."));
        let op = Token {
            kind: TokenKind::Op("."),
            line: 1,
            col: 2,
        };
        assert!(op.is_op("."));
    }

    #[test]
    fn every_operator_has_its_own_kind_and_reads_back_its_text() {
        let mut seen = std::collections::HashSet::new();
        for op in OPERATORS.iter().copied().chain(["(", ".", "$", "\0"]) {
            let kind = Kind::op(op);
            assert_eq!(kind.op_text(), Some(op));
            assert!(seen.insert(kind), "{op:?}");
        }
        for named in [Kind::IDENT, Kind::STR, Kind::NEWLINE, Kind::EOF] {
            assert_eq!(named.op_text(), None);
        }
        assert_eq!(format!("{:?}", Kind::op("**=")), "Op(\"**=\")");
        assert_eq!(format!("{:?}", Kind::DEDENT), "Dedent");
    }
}
