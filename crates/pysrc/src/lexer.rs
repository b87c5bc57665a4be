//! Indentation-aware Python tokenizer.
//!
//! Tolerant by design: malformed input (unterminated strings, stray bytes)
//! produces best-effort tokens rather than errors, because the scanner must
//! process deliberately obfuscated malware sources.

use crate::token::{SpannedToken, Token, TokenKind};

/// Multi-character operators, longest first so maximal munch works.
const OPERATORS: &[&str] = &[
    "**=", "//=", ">>=", "<<=", "...", "->", ":=", "==", "!=", "<=", ">=", "//", "**", ">>", "<<",
    "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "@=",
];

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
pub fn lex_spanned(source: &str) -> Vec<SpannedToken> {
    Lexer::new(source).run()
}

/// Result of re-lexing a byte window of a larger source (see
/// [`lex_window`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowLex {
    /// Tokens with spans and line numbers rebased to the full source.
    pub tokens: Vec<SpannedToken>,
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
pub fn lex_window(source: &str, start: usize, end: usize) -> WindowLex {
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
    I: IntoIterator<Item = &'a SpannedToken>,
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

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
    depth: usize,
    indents: Vec<usize>,
    out: Vec<SpannedToken>,
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
            src: source.as_bytes(),
            pos: 0,
            line: 1,
            col: 0,
            depth: 0,
            indents: vec![0],
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

    fn push(&mut self, kind: TokenKind, line: usize, col: usize) {
        self.out.push(SpannedToken {
            token: Token { kind, line, col },
            start: self.token_start.min(self.pos),
            end: self.pos,
        });
    }

    fn run(&mut self) -> Vec<SpannedToken> {
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
                b'"' | b'\'' => self.string(String::new(), line, col),
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
                    // be one; every other identifier skips the lowercase
                    // copy.
                    if word.len() <= 2 && matches!(self.peek(), Some(b'"') | Some(b'\'')) {
                        let lower = word.to_ascii_lowercase();
                        if matches!(
                            lower.as_str(),
                            "r" | "b" | "f" | "u" | "rb" | "br" | "fr" | "rf"
                        ) {
                            self.string(lower, line, col);
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
        while self.indents.len() > 1 {
            self.indents.pop();
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
            let current = *self.indents.last().expect("indent stack never empty");
            if width > current {
                self.indents.push(width);
                self.push(TokenKind::Indent, self.line, 0);
            } else if width < current {
                while *self.indents.last().expect("nonempty") > width {
                    self.indents.pop();
                    self.push(TokenKind::Dedent, self.line, 0);
                }
                // Inconsistent dedent (common in mangled malware) — treat
                // the nearest level as the new one.
                if *self.indents.last().expect("nonempty") != width {
                    self.indents.push(width);
                    self.push(TokenKind::Indent, self.line, 0);
                }
            }
            self.at_line_start = false;
            return true;
        }
    }

    fn take_while(&mut self, pred: impl Fn(u8) -> bool) -> String {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if pred(b)) {
            self.bump();
        }
        String::from_utf8_lossy(&self.src[start..self.pos]).into_owned()
    }

    fn string(&mut self, prefix: String, line: usize, col: usize) {
        let quote = self.bump().expect("caller checked quote");
        let triple = self.peek() == Some(quote) && self.peek2() == Some(quote);
        if triple {
            self.bump();
            self.bump();
        }
        let raw = prefix.contains('r');
        let mut value = String::new();
        loop {
            match self.peek() {
                None => {
                    // Unterminated — tolerate, but remember for window
                    // relexing: the token absorbed the rest of the input.
                    self.unterminated = true;
                    break;
                }
                Some(b'\\') if !raw => {
                    self.bump();
                    match self.bump() {
                        Some(b'n') => value.push('\n'),
                        Some(b't') => value.push('\t'),
                        Some(b'r') => value.push('\r'),
                        Some(b'\\') => value.push('\\'),
                        Some(b'\'') => value.push('\''),
                        Some(b'"') => value.push('"'),
                        Some(b'\n') => {} // continuation inside string
                        Some(other) => {
                            value.push('\\');
                            value.push(other as char);
                        }
                        None => {
                            self.unterminated = true;
                            break;
                        }
                    }
                }
                Some(b) if b == quote => {
                    if triple {
                        if self.peek2() == Some(quote)
                            && self.src.get(self.pos + 2).copied() == Some(quote)
                        {
                            self.bump();
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                        value.push(quote as char);
                    } else {
                        self.bump();
                        break;
                    }
                }
                Some(b'\n') if !triple => {
                    // Unterminated single-quoted string; stop at EOL.
                    break;
                }
                Some(b) => {
                    self.bump();
                    value.push(b as char);
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex_spanned(src).into_iter().map(|t| t.token.kind).collect()
    }

    #[test]
    fn simple_statement() {
        let k = kinds("import os\n");
        assert_eq!(
            k,
            vec![
                TokenKind::Ident("import".into()),
                TokenKind::Ident("os".into()),
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

    #[test]
    fn bytes_prefix_recorded() {
        let k = kinds("p = b'payload'\n");
        assert!(k
            .iter()
            .any(|k| matches!(k, TokenKind::Str { prefix, .. } if prefix == "b")));
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
        assert!(k
            .iter()
            .any(|k| matches!(k, TokenKind::Ident(i) if i == "y")));
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
        assert!(k
            .iter()
            .any(|k| matches!(k, TokenKind::Number(n) if n == "0xFF")));
        assert!(k
            .iter()
            .any(|k| matches!(k, TokenKind::Number(n) if n == "3.14")));
    }

    #[test]
    fn spans_slice_back_to_raw_source() {
        let src = "x = rb'pay\\load'  # note\ny = 0xFF\n";
        for st in lex_spanned(src) {
            let raw = &src[st.start..st.end];
            match &st.token.kind {
                TokenKind::Ident(w) => assert_eq!(raw, w),
                TokenKind::Number(n) => assert_eq!(raw, n),
                TokenKind::Str { .. } => assert_eq!(raw, "rb'pay\\load'"),
                TokenKind::Comment(c) => assert_eq!(raw, c),
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

    #[test]
    fn lex_window_over_the_whole_source_is_lex_spanned() {
        let src = "import os\n\ndef f(a):\n    return a\n\nx = f(1)\n";
        assert_eq!(lex_window(src, 0, src.len()).tokens, lex_spanned(src));
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
                lex_window(src, cut.at, src.len()).tokens,
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
        let marker = |kind, start| SpannedToken {
            token: Token {
                kind,
                line: 0,
                col: 0,
            },
            start,
            end: start + 1,
        };
        let mut window = lex_window(v2, start.at, stop.at + delta).tokens;
        assert_eq!(window.pop().map(|t| t.token.kind), Some(TokenKind::Eof));
        window.insert(0, marker(TokenKind::Newline, start.newline_end - 1));
        window.push(marker(TokenKind::Op("."), stop.at + delta));
        let mut spliced = old[..1].to_vec();
        spliced.extend(cut_points(&window));
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
        let expected: Vec<SpannedToken> = full
            .iter()
            .filter(|t| t.start >= 6 && t.end <= 12 && t.end > t.start)
            .cloned()
            .collect();
        // The window's content tokens (everything but the close-out EOF)
        // are exactly the full lex's tokens over those bytes.
        let content: Vec<SpannedToken> = w
            .tokens
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
