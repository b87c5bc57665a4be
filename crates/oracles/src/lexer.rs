//! The reference Python tokenizer: `pysrc`'s lexer before its tokens
//! became compact lexemes, kept verbatim as the oracle the live lexer's
//! rendered view is checked against.
//!
//! Tolerant by design: malformed input (unterminated strings, stray bytes)
//! produces best-effort tokens rather than errors, because the scanner must
//! process deliberately obfuscated malware sources.
//!
//! Token text borrows the source, so a lex makes one allocation — its
//! output vector — plus one per string literal that owns its value (see
//! [`TokenKind::Str`]).

use std::borrow::Cow;

use pysrc::{SpannedToken, Token, TokenKind};

/// Multi-character operators, longest first so maximal munch works.
const OPERATORS: &[&str] = &[
    "**=", "//=", ">>=", "<<=", "...", "->", ":=", "==", "!=", "<=", ">=", "//", "**", ">>", "<<",
    "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "@=",
];

/// String prefixes, lowercased: a [`TokenKind::Str`] prefix is one of
/// these or empty.
const STRING_PREFIXES: [&str; 8] = ["r", "b", "f", "u", "rb", "br", "fr", "rf"];

/// Every ASCII byte in order: a single-byte operator is the one-byte
/// `'static` slice of this at its own value, so [`TokenKind::Op`] never
/// allocates. (Bytes >= 0x80 lex as identifiers and never get here.)
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

/// Source bytes per token the output vector is reserved for. Files of
/// the tiny corpus and its mutants run 3.2 to 7.4 bytes per token
/// (mean 3.8), so this covers them in the one up-front allocation — no
/// doubling, no copy. No caller keeps the vector past its own analysis,
/// so the unused tail is never trimmed.
const BYTES_PER_TOKEN: usize = 3;

/// Cap on that reservation (5.5 MiB of tokens): an attacker-sized file
/// that is one long literal must not reserve 29 bytes per source byte
/// up front. Past it the vector grows by doubling as before.
const MAX_RESERVED_TOKENS: usize = 1 << 16;

/// Tokenizes Python `source` into a flat token stream ending in
/// [`TokenKind::Eof`]. INDENT/DEDENT tokens are synthesized from leading
/// whitespace; newlines inside `()`/`[]`/`{}` are suppressed. Each token
/// carries the byte span it was lexed from, so source-to-source rewriters
/// can splice replacements exactly.
pub fn lex_spanned(source: &str) -> Vec<SpannedToken<'_>> {
    Lexer::new(source).run()
}

/// Result of re-lexing a byte window of a larger source (see
/// [`lex_window`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowLex<'src> {
    /// Tokens with spans and line numbers rebased to the full source.
    pub tokens: Vec<SpannedToken<'src>>,
    /// True when the relex ran out of input *at a line start* — every
    /// trailing byte was consumed as complete statements plus blank or
    /// comment lines — rather than inside an open bracket, an
    /// unterminated string, or after a trailing `\`-continuation. Only
    /// then can the tokens be spliced against tokens lexed beyond the
    /// window: an unclean exit means the full lexer would have swallowed
    /// bytes past the window edge into one of this window's tokens.
    pub ends_at_statement_boundary: bool,
}

/// Re-lexes `source[start..end]` as if the lexer had just crossed a
/// top-level statement boundary at `start`: fresh indentation stack,
/// bracket depth zero, column zero. Spans are rebased by `start` and
/// line numbers by the newline count of `source[..start]`, so the
/// tokens drop into the full source's coordinate system.
///
/// The output equals the `[start..end)` slice of `lex_spanned(source)`
/// **only if** `start` really is such a boundary (the full lexer's
/// indent stack is `[0]` there — e.g. offset 0, or just after the
/// newline ending an unindented statement). Offsets inside brackets,
/// strings or indented suites produce a best-effort tolerant lex of the
/// window instead; callers splicing a relexed window into products of
/// the full lex take `start` from [`cut_points`].
///
/// # Panics
///
/// Panics if `start..end` is out of bounds or not on `char` boundaries.
pub fn lex_window(source: &str, start: usize, end: usize) -> WindowLex<'_> {
    let mut lexer = Lexer::new(&source[start..end]);
    let mut tokens = lexer.run();
    let boundary = lexer.clean_eof && !lexer.unterminated;
    // A window at offset 0 — a whole-file build's — is already in the
    // source's coordinates.
    if start > 0 {
        let lines_before = source.as_bytes()[..start]
            .iter()
            .filter(|&&b| b == b'\n')
            .count();
        for t in &mut tokens {
            t.start += start;
            t.end += start;
            t.token.line += lines_before;
        }
    }
    WindowLex {
        tokens,
        ends_at_statement_boundary: boundary,
    }
}

/// A place where [`lex_window`] may start or stop: a real NEWLINE (width
/// one, not the close-out's synthetic one) directly followed in the
/// token stream by a column-zero content token. Such a pair proves the
/// full lexer's indent stack is `[0]` at `at`, which is the state a
/// window relex begins in; every shape where that proof fails is not a
/// cut point:
///
/// * an INDENT/DEDENT successor (empty span) means the stack is not
///   `[0]` — relexing from there with a fresh stack would drop the
///   dedents;
/// * a comment at column zero proves nothing about the stack
///   (comment-only lines skip indent tracking entirely);
/// * a non-zero column is not a line start.
///
/// The bytes between the two offsets hold no token: blank lines, or a
/// backslash continuation. A continuation reaches `at` without going
/// through indentation handling, so a window may *stop* there but must
/// not *start* there — the caller reads the gap to tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutPoint {
    /// Byte offset one past the NEWLINE.
    pub newline_end: usize,
    /// Byte offset of the column-zero token.
    pub at: usize,
}

/// The cut points of a token stream, in source order: one per adjacent
/// pair of tokens that satisfies [`CutPoint`]'s conditions.
pub fn cut_points<'a, I>(tokens: I) -> impl Iterator<Item = CutPoint> + 'a
where
    I: IntoIterator<Item = &'a SpannedToken<'a>>,
    I::IntoIter: 'a,
{
    let mut tokens = tokens.into_iter();
    let mut last = tokens.next();
    tokens.filter_map(move |next| {
        let cur = last.replace(next)?;
        let cut = matches!(cur.kind(), TokenKind::Newline)
            && cur.end == cur.start + 1
            && next.token.col == 0
            && next.end > next.start
            && !matches!(next.kind(), TokenKind::Comment(_));
        cut.then_some(CutPoint {
            newline_end: cur.end,
            at: next.start,
        })
    })
}

/// Indentation levels a lex keeps without allocating; deeper ones spill
/// to the heap.
const INLINE_INDENTS: usize = 32;

/// The indentation stack above its implicit bottom level 0. The first
/// [`INLINE_INDENTS`] levels live inline, so lexing ordinary code
/// allocates nothing for it.
struct Indents {
    inline: [usize; INLINE_INDENTS],
    len: usize,
    spill: Vec<usize>,
}

impl Indents {
    fn new() -> Self {
        Indents {
            inline: [0; INLINE_INDENTS],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// The innermost level's width (0 at the bottom).
    fn top(&self) -> usize {
        match self.len {
            0 => 0,
            n if n <= INLINE_INDENTS => self.inline[n - 1],
            _ => self.spill.last().copied().unwrap_or(0),
        }
    }

    fn push(&mut self, width: usize) {
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = width,
            None => self.spill.push(width),
        }
        self.len += 1;
    }

    /// Pops the innermost level; false when only the bottom is left.
    fn pop(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        if self.len > INLINE_INDENTS {
            self.spill.pop();
        }
        self.len -= 1;
        true
    }
}

struct Lexer<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
    depth: usize,
    indents: Indents,
    out: Vec<SpannedToken<'a>>,
    at_line_start: bool,
    /// Byte offset where the token currently being lexed started.
    token_start: usize,
    /// Input ran out while scanning line starts (blank/comment lines or
    /// a fresh statement boundary) — not mid-statement. See
    /// [`WindowLex::ends_at_statement_boundary`].
    clean_eof: bool,
    /// A string literal swallowed the rest of the input.
    unterminated: bool,
}

impl<'a> Lexer<'a> {
    fn new(source: &'a str) -> Self {
        Lexer {
            text: source,
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            col: 0,
            depth: 0,
            indents: Indents::new(),
            out: Vec::with_capacity((source.len() / BYTES_PER_TOKEN + 4).min(MAX_RESERVED_TOKENS)),
            at_line_start: true,
            token_start: 0,
            clean_eof: false,
            unterminated: false,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 0;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn push(&mut self, kind: TokenKind<'a>, line: usize, col: usize) {
        self.out.push(SpannedToken {
            token: Token { kind, line, col },
            start: self.token_start.min(self.pos),
            end: self.pos,
        });
    }

    fn run(&mut self) -> Vec<SpannedToken<'a>> {
        loop {
            if self.at_line_start && self.depth == 0 && !self.handle_indentation() {
                // EOF while scanning line starts: a clean exit, unless a
                // string already swallowed the tail.
                self.clean_eof = true;
                break;
            }
            let (line, col) = (self.line, self.col);
            self.token_start = self.pos;
            let Some(b) = self.peek() else { break };
            match b {
                b'\n' => {
                    self.bump();
                    if self.depth == 0 {
                        // Collapse duplicate newlines.
                        if !matches!(
                            self.out.last().map(|t| &t.token.kind),
                            Some(TokenKind::Newline) | Some(TokenKind::Indent) | None
                        ) {
                            self.push(TokenKind::Newline, line, col);
                        }
                        self.at_line_start = true;
                    }
                }
                b'\r' => {
                    self.bump();
                }
                b' ' | b'\t' => {
                    self.bump();
                }
                b'\\' if self.peek2() == Some(b'\n') => {
                    // Explicit line continuation.
                    self.bump();
                    self.bump();
                }
                b'#' => {
                    let text = self.take_while(|b| b != b'\n');
                    self.push(TokenKind::Comment(text), line, col);
                }
                b'"' | b'\'' => self.string("", line, col),
                b'0'..=b'9' => {
                    let text =
                        self.take_while(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_');
                    self.push(TokenKind::Number(text), line, col);
                }
                b if b.is_ascii_alphabetic() || b == b'_' || b >= 0x80 => {
                    let word =
                        self.take_while(|b| b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80);
                    // String prefix? (r'', b"", f''', rb'' ...) Only a
                    // word of at most two bytes right before a quote can
                    // be one.
                    if word.len() <= 2 && matches!(self.peek(), Some(b'"') | Some(b'\'')) {
                        if let Some(prefix) = STRING_PREFIXES
                            .into_iter()
                            .find(|p| p.eq_ignore_ascii_case(word))
                        {
                            self.string(prefix, line, col);
                            continue;
                        }
                    }
                    self.push(TokenKind::Ident(word), line, col);
                }
                _ => self.operator(line, col),
            }
        }
        // Close out: final newline + remaining dedents.
        self.token_start = self.pos;
        if !matches!(
            self.out.last().map(|t| &t.token.kind),
            Some(TokenKind::Newline) | None
        ) {
            self.push(TokenKind::Newline, self.line, self.col);
        }
        while self.indents.pop() {
            self.push(TokenKind::Dedent, self.line, 0);
        }
        self.push(TokenKind::Eof, self.line, self.col);
        std::mem::take(&mut self.out)
    }

    /// Measures leading whitespace and emits INDENT/DEDENT. Returns false
    /// at end of input.
    fn handle_indentation(&mut self) -> bool {
        loop {
            let mut width = 0usize;
            while let Some(b) = self.peek() {
                match b {
                    b' ' => {
                        width += 1;
                        self.bump();
                    }
                    b'\t' => {
                        width += 8 - (width % 8);
                        self.bump();
                    }
                    _ => break,
                }
            }
            match self.peek() {
                // Blank or comment-only lines don't affect indentation.
                Some(b'\n') => {
                    self.bump();
                    continue;
                }
                Some(b'\r') => {
                    self.bump();
                    continue;
                }
                Some(b'#') => {
                    let line = self.line;
                    let col = self.col;
                    self.token_start = self.pos;
                    let text = self.take_while(|b| b != b'\n');
                    self.push(TokenKind::Comment(text), line, col);
                    continue;
                }
                None => return false,
                _ => {}
            }
            self.token_start = self.pos;
            let current = self.indents.top();
            if width > current {
                self.indents.push(width);
                self.push(TokenKind::Indent, self.line, 0);
            } else if width < current {
                // The bottom level is 0 <= width, so this stops above it.
                while self.indents.top() > width {
                    self.indents.pop();
                    self.push(TokenKind::Dedent, self.line, 0);
                }
                // Inconsistent dedent (common in mangled malware) — treat
                // the nearest level as the new one.
                if self.indents.top() != width {
                    self.indents.push(width);
                    self.push(TokenKind::Indent, self.line, 0);
                }
            }
            self.at_line_start = false;
            return true;
        }
    }

    /// Consumes the run of bytes matching `pred` and returns it. Every
    /// caller's run stops at an ASCII byte or the end of input and
    /// starts at a character boundary, so the slice is whole characters.
    fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if pred(b)) {
            self.bump();
        }
        &self.text[start..self.pos]
    }

    fn string(&mut self, prefix: &'static str, line: usize, col: usize) {
        let quote = self.bump().expect("caller checked quote");
        let triple = self.peek() == Some(quote) && self.peek2() == Some(quote);
        if triple {
            self.bump();
            self.bump();
        }
        let from = self.pos;
        let body = LiteralBody {
            src: self.src,
            quote,
            triple,
            raw: prefix.contains('r'),
        };
        // First pass: is the value the source bytes, and if not, how long
        // is it?
        let (mut verbatim, mut len) = (true, 0usize);
        let end = body.scan(from, |piece| match piece {
            Piece::Byte(b) => {
                verbatim &= b.is_ascii();
                len += char::from(b).len_utf8();
            }
            Piece::Escape(c) => {
                verbatim = false;
                len += c.map_or(0, char::len_utf8);
            }
        });
        let value = if verbatim {
            // All ASCII between two ASCII delimiters: a `str` slice.
            Cow::Borrowed(&self.text[from..end.value_end])
        } else if len == 0 {
            Cow::Borrowed("")
        } else {
            // Second pass into a buffer of the exact size.
            let mut value = String::with_capacity(len);
            body.scan(from, |piece| match piece {
                Piece::Byte(b) => value.push(char::from(b)),
                Piece::Escape(c) => value.extend(c),
            });
            Cow::Owned(value)
        };
        // Unterminated — tolerated, but remembered for window relexing:
        // the token absorbed the rest of the input.
        self.unterminated |= end.unterminated;
        while self.pos < end.end {
            self.bump();
        }
        self.push(TokenKind::Str { value, prefix }, line, col);
    }

    /// Lexes one operator at `pos`. The caller has ruled out newlines,
    /// whitespace, quotes, digits, identifier bytes and bytes >= 0x80.
    fn operator(&mut self, line: usize, col: usize) {
        let rest = &self.src[self.pos..];
        let b = rest[0];
        // Only these bytes begin an entry of `OPERATORS`; brackets, commas
        // and the rest skip the probe.
        let multi = if matches!(
            b,
            b'*' | b'/'
                | b'>'
                | b'<'
                | b'.'
                | b'-'
                | b':'
                | b'='
                | b'!'
                | b'+'
                | b'%'
                | b'|'
                | b'&'
                | b'^'
                | b'@'
        ) {
            OPERATORS
                .iter()
                .copied()
                .find(|op| rest.starts_with(op.as_bytes()))
        } else {
            None
        };
        let op = multi.unwrap_or_else(|| &ASCII[usize::from(b)..usize::from(b) + 1]);
        match b {
            b'(' | b'[' | b'{' => self.depth += 1,
            b')' | b']' | b'}' => self.depth = self.depth.saturating_sub(1),
            _ => {}
        }
        // No operator contains a newline, so the line stays put.
        self.pos += op.len();
        self.col += op.len();
        self.push(TokenKind::Op(op), line, col);
    }
}

/// One piece of a string literal's value, in body order.
enum Piece {
    /// A source byte that stands for itself. It is appended byte-as-char,
    /// so a byte >= 0x80 becomes U+0080..U+00FF (ROADMAP item 4).
    Byte(u8),
    /// An escape sequence, replaced by this character or by nothing.
    Escape(Option<char>),
}

/// Where a literal's body stopped.
struct BodyEnd {
    /// One past the value's last byte: the closing quote, the newline
    /// ending an unterminated single-quoted literal, or end of input.
    value_end: usize,
    /// One past the literal's last byte.
    end: usize,
    /// The body ran out of input.
    unterminated: bool,
}

/// The body of one string literal: the bytes after its opening quotes.
struct LiteralBody<'a> {
    src: &'a [u8],
    quote: u8,
    triple: bool,
    raw: bool,
}

impl LiteralBody<'_> {
    /// Scans from `pos`, handing each piece of the value to `emit`. Pure
    /// over the bytes, so a second scan emits the same pieces.
    fn scan(&self, mut pos: usize, mut emit: impl FnMut(Piece)) -> BodyEnd {
        let (quote, src) = (self.quote, self.src);
        let stop = |value_end, end, unterminated| BodyEnd {
            value_end,
            end,
            unterminated,
        };
        loop {
            match src.get(pos).copied() {
                None => return stop(pos, pos, true),
                Some(b'\\') if !self.raw => {
                    let replaced = match src.get(pos + 1).copied() {
                        Some(b'n') => Some('\n'),
                        Some(b't') => Some('\t'),
                        Some(b'r') => Some('\r'),
                        Some(b'\\') => Some('\\'),
                        Some(b'\'') => Some('\''),
                        Some(b'"') => Some('"'),
                        // Continuation inside the string.
                        Some(b'\n') => None,
                        // An unknown escape keeps both bytes.
                        Some(other) => {
                            emit(Piece::Byte(b'\\'));
                            emit(Piece::Byte(other));
                            pos += 2;
                            continue;
                        }
                        None => {
                            emit(Piece::Escape(None));
                            return stop(pos, pos + 1, true);
                        }
                    };
                    emit(Piece::Escape(replaced));
                    pos += 2;
                }
                Some(b) if b == quote => {
                    if !self.triple {
                        return stop(pos, pos + 1, false);
                    }
                    if src.get(pos + 1) == Some(&quote) && src.get(pos + 2) == Some(&quote) {
                        return stop(pos, pos + 3, false);
                    }
                    emit(Piece::Byte(quote));
                    pos += 1;
                }
                // Unterminated single-quoted string; stop at EOL.
                Some(b'\n') if !self.triple => return stop(pos, pos, false),
                Some(b) => {
                    emit(Piece::Byte(b));
                    pos += 1;
                }
            }
        }
    }
}
