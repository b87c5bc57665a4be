//! Token model for the Python lexer.

/// The kind of a lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`def`, `import`, names, ...).
    Ident(String),
    /// Integer or float literal, kept as text.
    Number(String),
    /// String literal with quotes stripped and prefix recorded.
    Str {
        /// Decoded contents (no quotes).
        value: String,
        /// Prefix letters (`b`, `r`, `f`, ...), lowercased.
        prefix: String,
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
    Comment(String),
    /// End of input.
    Eof,
}

/// A token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// 1-based line number.
    pub line: usize,
    /// 0-based column of the first byte.
    pub col: usize,
}

/// A token plus the byte span of `source` it was lexed from.
///
/// Synthesized tokens (INDENT/DEDENT, the final NEWLINE/EOF) carry an
/// empty span at the position they were synthesized. For every other
/// token, `source[start..end]` is the exact raw text — including quotes
/// and prefixes for strings — which is what source-to-source rewriters
/// (the `obfuscate` crate) splice against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedToken {
    /// The token.
    pub token: Token,
    /// Byte offset of the first byte of the token in the source.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
}

impl SpannedToken {
    /// The token kind (convenience passthrough).
    pub fn kind(&self) -> &TokenKind {
        &self.token.kind
    }
}

impl Token {
    /// Returns the identifier text if this token is an identifier.
    pub fn as_ident(&self) -> Option<&str> {
        match &self.kind {
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
            kind: TokenKind::Ident("os".into()),
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
}
