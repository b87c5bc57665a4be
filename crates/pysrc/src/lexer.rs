//! Indentation-aware Python tokenizer.
//!
//! Tolerant by design: malformed input (unterminated strings, stray bytes)
//! produces best-effort tokens rather than errors, because the scanner must
//! process deliberately obfuscated malware sources.
//!
//! There is one lexer. It emits [`Lexeme`]s, 16 bytes of plain data each,
//! into a token buffer its thread keeps between lexes ([`lex`],
//! [`lex_window`]), so a warm lex allocates nothing; [`lex_spanned`]
//! renders the same lexemes as [`SpannedToken`]s as they are emitted.
//!
//! Offsets are `u32`. A source longer than `u32::MAX` bytes lexes as its
//! longest prefix of whole characters that is at most `u32::MAX` bytes
//! long, as if the file ended there: its tokens end in that prefix's
//! close-out NEWLINE, DEDENTs and EOF, and the rest is not read.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};

use crate::ast::offset;
use crate::parser::MAX_KEPT_SCRATCH;
use crate::token::{
    flag, Kind, Lexeme, SpannedToken, Token, TokenKind, OPERATORS, STRING_PREFIXES,
};

/// Source bytes per token the output is reserved for. Files of the tiny
/// corpus and its mutants run 3.2 to 7.4 bytes per token (mean 3.8), so
/// this covers them in the one up-front reservation — no doubling, no
/// copy.
const BYTES_PER_TOKEN: usize = 3;

/// Cap on that reservation: 1 MiB of lexemes, 4.5 MiB of rendered
/// tokens. An attacker-sized file that is one long literal must not
/// reserve 5 (lexemes) or 24 (rendered) bytes per source byte up front.
/// Past it the buffer grows by doubling.
const MAX_RESERVED_TOKENS: usize = 1 << 16;

/// The longest source whose offsets fit a [`Lexeme`].
const MAX_SOURCE: usize = u32::MAX as usize;

/// The tokens reserved for `len` source bytes.
fn reservation(len: usize) -> usize {
    (len / BYTES_PER_TOKEN + 4).min(MAX_RESERVED_TOKENS)
}

/// The longest prefix of `source` of whole characters that is at most
/// `limit` bytes long: what the lexer reads of it.
fn lexable(source: &str, limit: usize) -> &str {
    let mut end = source.len().min(limit);
    while !source.is_char_boundary(end) {
        end -= 1;
    }
    &source[..end]
}

thread_local! {
    /// This thread's token buffer, between lexes: grown to the most
    /// tokens a lex on it has emitted, so that a warm lex allocates
    /// nothing.
    static KEPT: Cell<Vec<Lexeme>> = const { Cell::new(Vec::new()) };
}

/// A lex's tokens, in the buffer its thread keeps. Dropping them hands
/// the buffer back for the thread's next lex, unless it grew past the
/// parser's 4 MiB limit on kept scratch: one hostile file must not pin its
/// tokens' memory.
#[derive(Debug)]
pub struct Lexemes(Vec<Lexeme>);

impl Deref for Lexemes {
    type Target = Vec<Lexeme>;

    fn deref(&self) -> &Vec<Lexeme> {
        &self.0
    }
}

impl DerefMut for Lexemes {
    fn deref_mut(&mut self) -> &mut Vec<Lexeme> {
        &mut self.0
    }
}

impl Drop for Lexemes {
    fn drop(&mut self) {
        let mut tokens = std::mem::take(&mut self.0);
        if tokens.capacity() * std::mem::size_of::<Lexeme>() > MAX_KEPT_SCRATCH {
            return;
        }
        tokens.clear();
        // A lex that ran inside another's lifetime keeps the larger
        // buffer of the two.
        let _ = KEPT.try_with(|kept| {
            let other = kept.take();
            kept.set(if other.capacity() > tokens.capacity() {
                other
            } else {
                tokens
            });
        });
    }
}

/// Tokenizes Python `source` into a flat token stream ending in
/// [`Kind::EOF`], in this thread's token buffer. INDENT/DEDENT tokens are
/// synthesized from leading whitespace; newlines inside `()`/`[]`/`{}` are
/// suppressed. Each token carries the byte span it was lexed from.
pub fn lex(source: &str) -> Lexemes {
    lex_window(source, 0, source.len()).tokens
}

/// [`lex`]'s tokens rendered as [`SpannedToken`]s, with their text: the
/// view source-to-source rewriters (the `obfuscate` crate) splice
/// against. It allocates its vector, plus one buffer per string literal
/// whose value is owned (see [`Lexeme::value`]).
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

/// Result of re-lexing a byte window of a larger source (see
/// [`lex_window`]).
#[derive(Debug)]
pub struct WindowLex {
    /// Tokens with spans and line numbers in the full source's
    /// coordinates.
    pub tokens: Lexemes,
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
/// bracket depth zero, column zero. Spans are in `source`'s coordinates
/// and line numbers count the newlines of `source[..start]`, so the
/// tokens drop into the full source's coordinate system.
///
/// The output equals the `[start..end)` slice of `lex(source)` **only
/// if** `start` really is such a boundary (the full lexer's indent stack
/// is `[0]` there — e.g. offset 0, or just after the newline ending an
/// unindented statement). Offsets inside brackets, strings or indented
/// suites produce a best-effort tolerant lex of the window instead;
/// callers splicing a relexed window into products of the full lex take
/// `start` from [`cut_points`]. Bytes past `u32::MAX` are not read (see
/// the module docs).
///
/// # Panics
///
/// Panics if `start..end` is out of bounds or not on `char` boundaries.
pub fn lex_window(source: &str, start: usize, end: usize) -> WindowLex {
    let _ = &source[start..end];
    let source = lexable(source, MAX_SOURCE);
    let (start, end) = (start.min(source.len()), end.min(source.len()));
    let lines_before = count_newlines(&source.as_bytes()[..start]);
    let mut tokens = KEPT.try_with(Cell::take).unwrap_or_default();
    tokens.reserve_exact(reservation(end - start));
    let lexer = Lexer::new(
        &source.as_bytes()[start..end],
        start,
        offset(lines_before).saturating_add(1),
        |t, _| tokens.push(t),
    );
    let boundary = lexer.run();
    WindowLex {
        tokens: Lexemes(tokens),
        ends_at_statement_boundary: boundary,
    }
}

fn count_newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
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

/// A token [`cut_points`] reads: a [`Lexeme`], or a [`SpannedToken`]
/// rendered from one.
pub trait CutToken {
    /// Whether this is a real NEWLINE: one byte wide.
    fn is_real_newline(&self) -> bool;
    /// Whether this is a content token at column zero: a non-empty span
    /// that is not a comment.
    fn opens_line(&self) -> bool;
    /// Its span.
    fn span(&self) -> (usize, usize);
}

impl CutToken for Lexeme {
    fn is_real_newline(&self) -> bool {
        self.kind == Kind::NEWLINE && self.end == self.start.saturating_add(1)
    }

    fn opens_line(&self) -> bool {
        self.at_column_zero() && self.end > self.start && self.kind != Kind::COMMENT
    }

    fn span(&self) -> (usize, usize) {
        (self.start as usize, self.end as usize)
    }
}

impl CutToken for SpannedToken<'_> {
    fn is_real_newline(&self) -> bool {
        matches!(self.kind(), TokenKind::Newline) && self.end == self.start + 1
    }

    fn opens_line(&self) -> bool {
        self.token.col == 0
            && self.end > self.start
            && !matches!(self.kind(), TokenKind::Comment(_))
    }

    fn span(&self) -> (usize, usize) {
        (self.start, self.end)
    }
}

/// The cut points of a token stream, in source order: one per adjacent
/// pair of tokens that satisfies [`CutPoint`]'s conditions.
pub fn cut_points<'a, T, I>(tokens: I) -> impl Iterator<Item = CutPoint> + 'a
where
    T: CutToken + 'a,
    I: IntoIterator<Item = &'a T>,
    I::IntoIter: 'a,
{
    let mut tokens = tokens.into_iter();
    let mut last = tokens.next();
    tokens.filter_map(move |next| {
        let cur = last.replace(next)?;
        let cut = cur.is_real_newline() && next.opens_line();
        cut.then(|| CutPoint {
            newline_end: cur.span().1,
            at: next.span().0,
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

/// The lexer over one window of a source, handing each token and its
/// column to `emit`.
struct Lexer<'a, E> {
    /// The window's bytes.
    src: &'a [u8],
    /// The window's offset in its source.
    base: usize,
    pos: usize,
    line: u32,
    /// Where the line `pos` is on starts: columns count from here.
    line_start: usize,
    depth: usize,
    indents: Indents,
    emit: E,
    /// The kind of the last token emitted.
    last: Option<Kind>,
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

impl<'a, E: FnMut(Lexeme, usize)> Lexer<'a, E> {
    fn new(src: &'a [u8], base: usize, line: u32, emit: E) -> Self {
        Lexer {
            src,
            base,
            pos: 0,
            line,
            line_start: 0,
            depth: 0,
            indents: Indents::new(),
            emit,
            last: None,
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
            self.line = self.line.saturating_add(1);
            self.line_start = self.pos;
        }
        Some(b)
    }

    /// The line and column of `pos`.
    fn here(&self) -> (u32, usize) {
        (self.line, self.pos - self.line_start)
    }

    /// Emits a token of `kind` from `token_start` to here, starting at
    /// `(line, column)`.
    fn push(&mut self, kind: Kind, flags: u8, (line, col): (u32, usize)) {
        let start = self.token_start.min(self.pos);
        let flags = flags | if col == 0 { flag::COLUMN_ZERO } else { 0 };
        let at = |pos| offset(self.base + pos);
        (self.emit)(Lexeme::new(kind, flags, at(start), at(self.pos), line), col);
        self.last = Some(kind);
    }

    /// Lexes the window; true when it ended at a statement boundary (see
    /// [`WindowLex::ends_at_statement_boundary`]).
    fn run(mut self) -> bool {
        loop {
            if self.at_line_start && self.depth == 0 && !self.handle_indentation() {
                // EOF while scanning line starts: a clean exit, unless a
                // string already swallowed the tail.
                self.clean_eof = true;
                break;
            }
            let at = self.here();
            self.token_start = self.pos;
            let Some(b) = self.peek() else { break };
            match b {
                b'\n' => {
                    self.bump();
                    if self.depth == 0 {
                        // Collapse duplicate newlines.
                        if !matches!(self.last, Some(Kind::NEWLINE | Kind::INDENT) | None) {
                            self.push(Kind::NEWLINE, 0, at);
                        }
                        self.at_line_start = true;
                    }
                }
                b'\r' | b' ' | b'\t' => {
                    self.bump();
                }
                b'\\' if self.peek2() == Some(b'\n') => {
                    // Explicit line continuation.
                    self.bump();
                    self.bump();
                }
                b'#' => {
                    self.skip_while(|b| b != b'\n');
                    self.push(Kind::COMMENT, 0, at);
                }
                b'"' | b'\'' => self.string(0, at),
                b'0'..=b'9' => {
                    self.skip_while(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_');
                    self.push(Kind::NUMBER, 0, at);
                }
                b if b.is_ascii_alphabetic() || b == b'_' || b >= 0x80 => {
                    self.skip_while(|b| b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80);
                    // String prefix? (r'', b"", f''', rb'' ...) Only a
                    // word of at most two bytes right before a quote can
                    // be one.
                    let word = &self.src[self.token_start..self.pos];
                    if word.len() <= 2 && matches!(self.peek(), Some(b'"') | Some(b'\'')) {
                        if let Some(i) = STRING_PREFIXES
                            .iter()
                            .position(|p| p.as_bytes().eq_ignore_ascii_case(word))
                        {
                            self.string(i as u8 + 1, at);
                            continue;
                        }
                    }
                    self.push(Kind::IDENT, 0, at);
                }
                _ => self.operator(at),
            }
        }
        // Close out: final newline + remaining dedents.
        self.token_start = self.pos;
        if !matches!(self.last, Some(Kind::NEWLINE) | None) {
            self.push(Kind::NEWLINE, 0, self.here());
        }
        while self.indents.pop() {
            self.push(Kind::DEDENT, 0, (self.line, 0));
        }
        self.push(Kind::EOF, 0, self.here());
        self.clean_eof && !self.unterminated
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
                Some(b'\n') | Some(b'\r') => {
                    self.bump();
                    continue;
                }
                Some(b'#') => {
                    let at = self.here();
                    self.token_start = self.pos;
                    self.skip_while(|b| b != b'\n');
                    self.push(Kind::COMMENT, 0, at);
                    continue;
                }
                None => return false,
                _ => {}
            }
            self.token_start = self.pos;
            let current = self.indents.top();
            let line_start = (self.line, 0);
            if width > current {
                self.indents.push(width);
                self.push(Kind::INDENT, 0, line_start);
            } else if width < current {
                // The bottom level is 0 <= width, so this stops above it.
                while self.indents.top() > width {
                    self.indents.pop();
                    self.push(Kind::DEDENT, 0, line_start);
                }
                // Inconsistent dedent (common in mangled malware) — treat
                // the nearest level as the new one.
                if self.indents.top() != width {
                    self.indents.push(width);
                    self.push(Kind::INDENT, 0, line_start);
                }
            }
            self.at_line_start = false;
            return true;
        }
    }

    /// Consumes the run of bytes matching `pred`. Every caller's run
    /// stops at an ASCII byte or the end of input and starts at a
    /// character boundary, so the span is whole characters.
    fn skip_while(&mut self, pred: impl Fn(u8) -> bool) {
        while matches!(self.peek(), Some(b) if pred(b)) {
            self.bump();
        }
    }

    /// Lexes a string literal whose quote is next; `prefix` is its
    /// prefix's index in [`STRING_PREFIXES`] plus one, or 0.
    fn string(&mut self, prefix: u8, at: (u32, usize)) {
        let quote = self.bump().expect("caller checked quote");
        let triple = self.peek() == Some(quote) && self.peek2() == Some(quote);
        if triple {
            self.bump();
            self.bump();
        }
        let raw = STRING_PREFIXES
            .get(usize::from(prefix).wrapping_sub(1))
            .is_some_and(|p| p.contains('r'));
        let body = LiteralBody {
            src: self.src,
            quote,
            triple,
            raw,
        };
        // Is the value the source bytes? Only then can a reader borrow it.
        let mut verbatim = true;
        let end = body.scan(self.pos, |piece| {
            verbatim &= matches!(piece, Piece::Byte(b) if b.is_ascii());
        });
        // Unterminated — tolerated, but remembered for window relexing:
        // the token absorbed the rest of the input.
        self.unterminated |= end.unterminated;
        let literal = &self.src[self.pos..end.end];
        if let Some(last) = literal.iter().rposition(|&b| b == b'\n') {
            self.line = self.line.saturating_add(offset(count_newlines(literal)));
            self.line_start = self.pos + last + 1;
        }
        self.pos = end.end;
        let mut flags = prefix;
        if triple {
            flags |= flag::TRIPLE;
        }
        if !end.unterminated && end.value_end < end.end {
            flags |= flag::CLOSED;
        }
        if !verbatim {
            flags |= flag::DECODED;
        }
        self.push(Kind::STR, flags, at);
    }

    /// Lexes one operator at `pos`. The caller has ruled out newlines,
    /// whitespace, quotes, digits, identifier bytes and bytes >= 0x80.
    fn operator(&mut self, at: (u32, usize)) {
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
                .position(|op| rest.starts_with(op.as_bytes()))
        } else {
            None
        };
        let (kind, len) = match multi {
            Some(i) => (Kind::multi(i), OPERATORS[i].len()),
            None => (Kind(b), 1),
        };
        match b {
            b'(' | b'[' | b'{' => self.depth += 1,
            b')' | b']' | b'}' => self.depth = self.depth.saturating_sub(1),
            _ => {}
        }
        // No operator contains a newline, so the line stays put.
        self.pos += len;
        self.push(kind, 0, at);
    }
}

/// One piece of a string literal's value, in body order.
pub(crate) enum Piece {
    /// A source byte that stands for itself. It is appended byte-as-char,
    /// so a byte >= 0x80 becomes U+0080..U+00FF (ROADMAP item 4).
    Byte(u8),
    /// An escape sequence, replaced by this character or by nothing.
    Escape(Option<char>),
}

impl Piece {
    /// The piece's length in the value.
    pub(crate) fn len_utf8(&self) -> usize {
        match *self {
            Piece::Byte(b) => char::from(b).len_utf8(),
            Piece::Escape(c) => c.map_or(0, char::len_utf8),
        }
    }

    /// Appends the piece to a value.
    pub(crate) fn push_to(&self, value: &mut String) {
        match *self {
            Piece::Byte(b) => value.push(char::from(b)),
            Piece::Escape(c) => value.extend(c),
        }
    }
}

/// Where a literal's body stopped.
pub(crate) struct BodyEnd {
    /// One past the value's last byte: the closing quote, the newline
    /// ending an unterminated single-quoted literal, or end of input.
    value_end: usize,
    /// One past the literal's last byte.
    end: usize,
    /// The body ran out of input.
    unterminated: bool,
}

/// The body of one string literal: the bytes after its opening quotes.
pub(crate) struct LiteralBody<'a> {
    pub(crate) src: &'a [u8],
    pub(crate) quote: u8,
    pub(crate) triple: bool,
    pub(crate) raw: bool,
}

impl LiteralBody<'_> {
    /// Scans from `pos`, handing each piece of the value to `emit`. Pure
    /// over the bytes, so a second scan emits the same pieces.
    pub(crate) fn scan(&self, mut pos: usize, mut emit: impl FnMut(Piece)) -> BodyEnd {
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

#[cfg(test)]
mod tests {
    use std::borrow::Cow;

    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex_spanned(src).into_iter().map(|t| t.token.kind).collect()
    }

    #[test]
    fn simple_statement() {
        let k = kinds("import os\n");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("import"),
                TokenKind::Ident("os"),
                TokenKind::Newline,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn indentation_tokens() {
        let k = kinds("def f():\n    pass\n");
        assert!(k.contains(&TokenKind::Indent));
        assert!(k.contains(&TokenKind::Dedent));
    }

    #[test]
    fn nested_indentation() {
        let src = "if a:\n    if b:\n        pass\n";
        let k = kinds(src);
        let indents = k.iter().filter(|k| **k == TokenKind::Indent).count();
        let dedents = k.iter().filter(|k| **k == TokenKind::Dedent).count();
        assert_eq!(indents, 2);
        assert_eq!(dedents, 2);
    }

    #[test]
    fn string_literals() {
        let k = kinds("x = 'hello'\n");
        assert!(k
            .iter()
            .any(|k| matches!(k, TokenKind::Str { value, .. } if value == "hello")));
    }

    #[test]
    fn string_escapes() {
        let k = kinds(r#"x = "a\nb""#);
        assert!(k
            .iter()
            .any(|k| matches!(k, TokenKind::Str { value, .. } if value == "a\nb")));
    }

    #[test]
    fn raw_string_keeps_backslash() {
        let k = kinds(r"x = r'a\nb'");
        assert!(k
            .iter()
            .any(|k| matches!(k, TokenKind::Str { value, .. } if value == r"a\nb")));
    }

    #[test]
    fn triple_quoted_string() {
        let k = kinds("s = \"\"\"line1\nline2\"\"\"\n");
        assert!(k
            .iter()
            .any(|k| matches!(k, TokenKind::Str { value, .. } if value == "line1\nline2")));
    }

    /// A literal borrows the source unless its value differs from its
    /// bytes: a processed escape, or a byte >= 0x80 (kept byte-as-char).
    #[test]
    fn literals_borrow_unless_their_value_differs_from_their_bytes() {
        let value = |src: &'static str| {
            lex_spanned(src)
                .into_iter()
                .find_map(|t| match t.token.kind {
                    TokenKind::Str { value, .. } => Some(value),
                    _ => None,
                })
                .expect("a literal")
        };
        for (src, expected) in [
            ("'plain'", "plain"),
            (r"'\q'", r"\q"),
            (r"r'a\nb'", r"a\nb"),
            ("'''it's'''", "it's"),
            ("'open", "open"),
            ("'\\\n'", ""),
        ] {
            assert!(
                matches!(value(src), Cow::Borrowed(v) if v == expected),
                "{src:?}"
            );
        }
        for (src, expected) in [
            (r"'a\nb'", "a\nb"),
            (r#""\'""#, "'"),
            ("'\u{2014}'", "\u{e2}\u{80}\u{94}"),
            (r"'\é'", "\\\u{c3}\u{a9}"),
            ("'x\\", "x"),
        ] {
            assert!(
                matches!(value(src), Cow::Owned(v) if v == expected),
                "{src:?}"
            );
        }
    }

    #[test]
    fn bytes_prefix_recorded() {
        let k = kinds("p = b'payload'\n");
        assert!(k
            .iter()
            .any(|k| matches!(k, TokenKind::Str { prefix: "b", .. })));
    }

    #[test]
    fn newline_suppressed_inside_brackets() {
        let k = kinds("f(a,\n  b)\n");
        let newlines = k.iter().filter(|k| **k == TokenKind::Newline).count();
        assert_eq!(newlines, 1);
    }

    #[test]
    fn comments_captured() {
        let k = kinds("# C2: 1.2.3.4\nx = 1\n");
        assert!(k
            .iter()
            .any(|k| matches!(k, TokenKind::Comment(c) if c.contains("C2"))));
    }

    #[test]
    fn blank_lines_dont_dedent() {
        let src = "def f():\n    a = 1\n\n    b = 2\n";
        let k = kinds(src);
        let dedents = k.iter().filter(|k| **k == TokenKind::Dedent).count();
        assert_eq!(dedents, 1);
    }

    #[test]
    fn multi_char_operators() {
        let k = kinds("a == b != c -> d\n");
        assert!(k.iter().any(|k| matches!(k, TokenKind::Op("=="))));
        assert!(k.iter().any(|k| matches!(k, TokenKind::Op("!="))));
        assert!(k.iter().any(|k| matches!(k, TokenKind::Op("->"))));
    }

    #[test]
    fn unterminated_string_tolerated() {
        let k = kinds("x = 'oops\ny = 2\n");
        assert!(k
            .iter()
            .any(|k| matches!(k, TokenKind::Str { value, .. } if value == "oops")));
        assert!(k.iter().any(|k| matches!(k, TokenKind::Ident("y"))));
    }

    #[test]
    fn line_continuation() {
        let k = kinds("x = 1 + \\\n    2\n");
        let newlines = k.iter().filter(|k| **k == TokenKind::Newline).count();
        assert_eq!(newlines, 1);
    }

    #[test]
    fn numbers() {
        let k = kinds("x = 0xFF + 3.14\n");
        assert!(k.iter().any(|k| matches!(k, TokenKind::Number("0xFF"))));
        assert!(k.iter().any(|k| matches!(k, TokenKind::Number("3.14"))));
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

    #[test]
    fn spans_cover_triple_quoted_strings() {
        let src = "s = \"\"\"line1\nline2\"\"\"\nz = 1\n";
        let toks = lex_spanned(src);
        let s = toks
            .iter()
            .find(|t| matches!(t.kind(), TokenKind::Str { .. }))
            .expect("string token");
        assert_eq!(&src[s.start..s.end], "\"\"\"line1\nline2\"\"\"");
    }

    #[test]
    fn spans_are_monotone_and_in_bounds() {
        let src = "def f(a):\n    if a:\n        return 'x'\n";
        let toks = lex_spanned(src);
        let mut last = 0usize;
        for t in &toks {
            assert!(t.start <= t.end);
            assert!(t.end <= src.len());
            assert!(t.start >= last || t.start == t.end, "overlap at {t:?}");
            last = last.max(t.end);
        }
    }

    /// The rendered tokens of a window relex.
    fn window(src: &str, start: usize, end: usize) -> Vec<SpannedToken<'_>> {
        render(src, &lex_window(src, start, end).tokens)
    }

    #[test]
    fn lex_window_over_the_whole_source_is_lex_spanned() {
        let src = "import os\n\ndef f(a):\n    return a\n\nx = f(1)\n";
        assert_eq!(window(src, 0, src.len()), lex_spanned(src));
        assert_eq!(render(src, &lex(src)), lex_spanned(src));
    }

    #[test]
    fn a_source_past_the_offset_limit_lexes_as_its_prefix() {
        assert_eq!(lexable("a\u{e9}b", 2), "a");
        assert_eq!(lexable("a\u{e9}b", 3), "a\u{e9}");
        assert_eq!(lexable("ab", 9), "ab");
        // Offsets past the limit saturate rather than wrap.
        let mut tokens = Vec::new();
        Lexer::new(b"x = 1\n", MAX_SOURCE - 2, 7, |t, _| tokens.push(t)).run();
        assert_eq!((tokens[0].start, tokens[0].line), (u32::MAX - 2, 7));
        assert!(tokens[1..]
            .iter()
            .all(|t| t.start == u32::MAX && t.end == u32::MAX));
    }

    #[test]
    fn lexemes_read_their_text_and_values_back_from_the_source() {
        let src = "x = rb'pay\\load' + '\u{2014}' + \"\"\"t\"\"\" + 'open";
        let tokens = lex(src);
        let strs: Vec<&Lexeme> = tokens.iter().filter(|t| t.kind == Kind::STR).collect();
        let got: Vec<(&str, &str, String, bool)> = strs
            .iter()
            .map(|t| {
                (
                    t.text(src),
                    t.prefix(),
                    t.value(src).into_owned(),
                    t.is_decoded(),
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                ("rb'pay\\load'", "rb", "pay\\load".to_owned(), false),
                ("'\u{2014}'", "", "\u{e2}\u{80}\u{94}".to_owned(), true),
                ("\"\"\"t\"\"\"", "", "t".to_owned(), false),
                ("'open", "", "open".to_owned(), false),
            ]
        );
        assert_eq!(tokens[0].kind, Kind::IDENT);
        assert_eq!(tokens[1].kind, Kind::op("="));
        assert_eq!(tokens[1].kind.op_text(), Some("="));
    }

    #[test]
    fn lex_window_from_a_cut_point_matches_the_full_lex_suffix() {
        let src = "import os\nx = 1\n\n\nz = 3\n# note\ndef f():\n    return x\ny = 2\n";
        let full = lex_spanned(src);
        let cuts: Vec<CutPoint> = cut_points(&full).collect();
        // `x`, and `z` behind two blank lines. Not `def` (its predecessor
        // is a comment), not the indented `return`, not `y` (a DEDENT
        // stands between it and the NEWLINE).
        let at = |needle: &str| src.find(needle).expect("needle");
        let expected = [
            CutPoint {
                newline_end: at("x = 1"),
                at: at("x = 1"),
            },
            CutPoint {
                newline_end: at("\n\nz"),
                at: at("z = 3"),
            },
        ];
        assert_eq!(cuts, expected);
        for cut in cuts {
            let from = full
                .iter()
                .position(|t| t.start == cut.at)
                .expect("a token starts at every cut point");
            assert_eq!(
                window(src, cut.at, src.len()),
                full[from..],
                "suffix relex diverged at offset {}",
                cut.at
            );
        }
    }

    /// What a splice does to the table: the cut points of an edited file
    /// are the old file's before the window, the relexed window's read
    /// between stand-ins for its two neighbours, and the old file's
    /// after it moved by the byte delta.
    #[test]
    fn cut_points_splice_as_prefix_window_and_shifted_suffix() {
        let v1 = "import os\nimport sys\nA = 'one'\nos.system('id')\nB = 2\n";
        let v2 = "import os\nimport sys\nA = 'three'\n\nC = 0\nos.system('id')\nB = 2\n";
        let old: Vec<CutPoint> = cut_points(&lex_spanned(v1)).collect();
        // The window is the `A` line: it starts at the second cut point
        // and stops at the third.
        let (start, stop) = (old[1], old[2]);
        assert_eq!(&v1[start.at..stop.at], "A = 'one'\n");
        let delta = v2.len() - v1.len();
        let mut window = lex_window(v2, start.at, stop.at + delta).tokens;
        assert_eq!(window.pop().map(|t| t.kind), Some(Kind::EOF));
        window.insert(0, Lexeme::stand_in(Kind::NEWLINE, start.newline_end - 1));
        window.push(Lexeme::stand_in(Kind::op("."), stop.at + delta));
        let mut spliced = old[..1].to_vec();
        spliced.extend(cut_points(window.iter()));
        spliced.extend(old[3..].iter().map(|c| CutPoint {
            newline_end: c.newline_end + delta,
            at: c.at + delta,
        }));
        let full: Vec<CutPoint> = cut_points(&lex_spanned(v2)).collect();
        assert_eq!(spliced, full);
        assert_eq!(full.len(), 5, "import sys, A, C, os.system, B");
    }

    #[test]
    fn lex_window_reports_statement_boundaries() {
        let clean = |w: &str| lex_window(w, 0, w.len()).ends_at_statement_boundary;
        assert!(clean("x = 1\n"));
        assert!(clean("x = 1\ny = 2\n"));
        // Trailing blank and comment lines are still line starts.
        assert!(clean("x = 1\n\n\n"));
        assert!(clean("x = 1\n# trailing note\n"));
        assert!(clean(""));
        // Open bracket swallows the edge.
        assert!(!clean("x = (1,\n"));
        // Unterminated triple-quoted string swallows the edge.
        assert!(!clean("s = '''abc\ndef\n"));
        // Trailing continuation glues the next line on.
        assert!(!clean("x = 1 + \\\n"));
        // No trailing newline: the last statement may continue.
        assert!(!clean("x = 1"));
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
    fn line_numbers_tracked() {
        let toks = lex_spanned("a = 1\nb = 2\n");
        let b_tok = toks
            .iter()
            .find(|t| t.token.as_ident() == Some("b"))
            .expect("b token");
        assert_eq!(b_tok.token.line, 2);
    }
}
