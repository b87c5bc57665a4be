//! Tolerant recursive-descent parser over the token stream.

use crate::ast::{offset, Arg, Expr, Header, ImportedName, Literal, Module, Span, Stmt};
use crate::lexer::lex_spanned;
use crate::token::{SpannedToken, Token, TokenKind};

/// Parses Python `source` into a [`Module`]: [`parse_tokens`] over one
/// [`lex_spanned`] pass.
///
/// Never fails: statements the parser doesn't understand are preserved as
/// [`Stmt::Other`] nodes carrying reconstructed text, so downstream
/// matchers always see the full file.
pub fn parse_module(source: &str) -> Module {
    parse_tokens(source, &lex_spanned(source))
}

/// Parses tokens lexed from `text`, in place, into a [`Module`] over a
/// copy of `text`.
///
/// This is the parser's front door: a caller that holds the tokens — the
/// artifact builder, over a whole file's stream or the relexed window of
/// an incremental splice, both in `text`'s coordinates — lends them and
/// pays no second lex. The tree points into `text` by span; it allocates
/// its boxes and vectors, the module's one copy of `text` and its
/// [`crate::LineIndex`], a value only for a literal the lexer owns or
/// adjacent literals concatenate, and a rendering for what degrades to
/// `Other`. Same tolerance guarantees as [`parse_module`]. A stream that
/// does not end in [`TokenKind::Eof`] is read as if one followed at the
/// last token.
pub fn parse_tokens(text: &str, tokens: &[SpannedToken<'_>]) -> Module {
    let eof = sentinel(tokens);
    let body = Parser::new(text, tokens, &eof).statements(/*stop_at_dedent=*/ false);
    Module::new(text, body)
}

/// An EOF token at the last token of `tokens`, read once a parser passes
/// their end.
fn sentinel<'src>(tokens: &[SpannedToken<'src>]) -> SpannedToken<'src> {
    let (line, col, at) = tokens
        .last()
        .map_or((1, 0, 0), |t| (t.token.line, t.token.col, t.start));
    SpannedToken {
        token: Token {
            kind: TokenKind::Eof,
            line,
            col,
        },
        start: at,
        end: at,
    }
}

/// Maximum nesting of indented blocks before the parser degrades the
/// block to a flat [`Stmt::Other`]. Malware has shipped pathologically
/// indented files specifically to crash recursive parsers; past this
/// depth we keep the text visible to matchers but stop recursing.
const MAX_BLOCK_DEPTH: usize = 128;

/// Maximum expression nesting (parentheses, call arguments, unary
/// chains) before degrading to [`Expr::Other`]. A file of 100k `(` bytes
/// must not overflow the stack.
const MAX_EXPR_DEPTH: usize = 96;

/// Keywords that open a [`Stmt::Block`].
const BLOCK_KEYWORDS: [&str; 9] = [
    "if", "elif", "else", "for", "while", "try", "except", "finally", "with",
];

/// Keywords kept as [`Expr::BinOp`] operators.
const WORD_OPS: [&str; 5] = ["and", "or", "in", "is", "not"];

/// A cursor over a borrowed token slice of `text`.
struct Parser<'a, 'src> {
    text: &'a str,
    tokens: &'a [SpannedToken<'src>],
    /// Sticky sentinel read once `pos` passes the slice.
    eof: &'a SpannedToken<'src>,
    pos: usize,
    block_depth: usize,
    expr_depth: usize,
    /// This parser reads one block header as a statement; a block header
    /// inside it is not parsed (that statement degrades anyway), so a
    /// chain of keywords cannot recurse.
    in_header: bool,
    /// The buffer `Other` renderings are built in (see
    /// [`Parser::rendered`]).
    scratch: String,
}

fn span(t: &SpannedToken<'_>) -> Span {
    Span::new(t.start, t.end)
}

/// The span from the first of `tokens` to the last; empty at `at` when
/// there are none.
fn covering(tokens: &[SpannedToken<'_>], at: usize) -> Span {
    let (first, last) = (tokens.first(), tokens.last());
    Span::new(first.map_or(at, |t| t.start), last.map_or(at, |t| t.end))
}

fn is_bracket(kind: &TokenKind<'_>) -> bool {
    matches!(kind, TokenKind::Op("(" | "[" | "{" | ")" | "]" | "}"))
}

/// `+=`, `//=`, ... (and `:=`): an operator that makes an assignment.
fn is_augmented(op: &str) -> bool {
    op.ends_with('=') && op.len() >= 2 && !matches!(op, "==" | "!=" | ">=" | "<=")
}

impl<'a, 'src> Parser<'a, 'src> {
    fn new(text: &'a str, tokens: &'a [SpannedToken<'src>], eof: &'a SpannedToken<'src>) -> Self {
        Parser {
            text,
            tokens,
            eof,
            pos: 0,
            block_depth: 0,
            expr_depth: 0,
            in_header: false,
            scratch: String::new(),
        }
    }

    /// What `render` appends to an empty buffer, copied out at its exact
    /// size: renderings are built in one buffer reused across the parse,
    /// so each costs one allocation however it grew. (A rendering nested
    /// in another builds in a buffer of its own.)
    fn rendered(&mut self, render: impl FnOnce(&mut Self, &mut String)) -> String {
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        render(self, &mut buf);
        let text = buf.as_str().to_owned();
        self.scratch = buf;
        text
    }

    fn peek(&self) -> &'a TokenKind<'src> {
        self.peek_token().kind()
    }

    fn peek_token(&self) -> &'a SpannedToken<'src> {
        self.tokens.get(self.pos).unwrap_or(self.eof)
    }

    fn bump(&mut self) -> &'a SpannedToken<'src> {
        let t = self.peek_token();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// An empty span at the next token: where a missing name would be.
    fn nothing(&self) -> Span {
        let at = self.peek_token().start;
        Span::new(at, at)
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if matches!(self.peek(), TokenKind::Op(o) if *o == op) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), TokenKind::Eof)
    }

    fn skip_newlines_and_comments(&mut self) {
        while matches!(self.peek(), TokenKind::Newline | TokenKind::Comment(_)) {
            self.bump();
        }
    }

    fn statements(&mut self, stop_at_dedent: bool) -> Vec<Stmt> {
        let mut body = Vec::new();
        loop {
            self.skip_newlines_and_comments();
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::Dedent if stop_at_dedent => {
                    self.bump();
                    break;
                }
                TokenKind::Dedent => {
                    // Stray dedent at top level (inconsistent input).
                    self.bump();
                }
                TokenKind::Indent => {
                    // Unexpected indent — parse it as an anonymous block so
                    // nested statements are still visible. It starts at
                    // the INDENT, which is where its first statement is.
                    let start = self.bump().start;
                    let inner = self.indented_body();
                    body.push(Stmt::Block {
                        keyword: "",
                        header: Span::new(start, start),
                        parsed: None,
                        body: inner,
                        start: offset(start),
                    });
                }
                _ => body.push(self.statement()),
            }
        }
        body
    }

    fn statement(&mut self) -> Stmt {
        let start = offset(self.peek_token().start);
        if let TokenKind::Ident(word) = self.peek() {
            match *word {
                "import" => return self.import_stmt(start),
                "from" => return self.parse_from_import(start),
                "def" => return self.def_stmt(start),
                "class" => return self.class_stmt(start),
                "return" => return self.return_stmt(start),
                "async" => {
                    // `async def` / `with` / `for` — consume the marker and
                    // parse the synchronous form.
                    self.bump();
                    return match self.peek() {
                        TokenKind::Ident("def") => self.def_stmt(start),
                        TokenKind::Ident("with") => self.block_stmt("with", start),
                        TokenKind::Ident("for") => self.block_stmt("for", start),
                        _ => self.block_stmt("async", start),
                    };
                }
                "pass" | "break" | "continue" => {
                    self.bump();
                    self.finish_line(None);
                    return Stmt::Other {
                        text: (*word).to_owned(),
                        start,
                    };
                }
                "raise" | "assert" | "del" | "global" | "nonlocal" | "yield" | "lambda" => {
                    let text = self.line_text();
                    return Stmt::Other { text, start };
                }
                _ => {
                    if let Some(keyword) = BLOCK_KEYWORDS.iter().find(|k| *k == word) {
                        return self.block_stmt(keyword, start);
                    }
                }
            }
        }
        if matches!(self.peek(), TokenKind::Op("@")) {
            // Decorator — record as Other and continue.
            let text = self.line_text();
            return Stmt::Other { text, start };
        }
        // Expression or assignment.
        let expr = self.expression();
        if matches!(self.peek(), TokenKind::Op("=")) {
            let mut targets = vec![expr];
            let mut value = None;
            while self.eat_op("=") {
                let next = self.expression();
                if matches!(self.peek(), TokenKind::Op("=")) {
                    targets.push(next);
                } else {
                    value = Some(next);
                    break;
                }
            }
            self.finish_line(None);
            return Stmt::Assign {
                targets,
                value: value.unwrap_or(Expr::Other(String::new())),
                start,
            };
        }
        // Augmented assignment — keep RHS as the value.
        if matches!(self.peek(), TokenKind::Op(o) if is_augmented(o)) {
            self.bump();
            let value = self.expression();
            self.finish_line(None);
            return Stmt::Assign {
                targets: vec![expr],
                value,
                start,
            };
        }
        self.finish_line(None);
        Stmt::Expr { value: expr, start }
    }

    /// After an `as`: the alias name, if one follows.
    fn alias(&mut self) -> Option<Span> {
        if !matches!(self.peek(), TokenKind::Ident("as")) {
            return None;
        }
        self.bump();
        let alias = matches!(self.peek(), TokenKind::Ident(_)).then(|| span(self.peek_token()));
        self.bump();
        alias
    }

    fn import_stmt(&mut self, start: u32) -> Stmt {
        self.bump(); // 'import'
        let mut modules = Vec::new();
        loop {
            let path = self.dotted_name();
            if path.start == path.end {
                break;
            }
            // `import x as y` — keep the alias: it is the name the rest
            // of the file binds, and taint alias resolution needs it.
            let alias = self.alias();
            modules.push(ImportedName { path, alias });
            if !self.eat_op(",") {
                break;
            }
        }
        self.finish_line(None);
        Stmt::Import { modules, start }
    }

    fn parse_from_import(&mut self, start: u32) -> Stmt {
        self.bump(); // 'from'
        let module = self.dotted_name();
        let mut names = Vec::new();
        if matches!(self.peek(), TokenKind::Ident("import")) {
            self.bump();
            let parenthesized = self.eat_op("(");
            loop {
                match self.peek() {
                    TokenKind::Ident(_) => {
                        let path = span(self.bump());
                        let alias = self.alias();
                        names.push(ImportedName { path, alias });
                        if !self.eat_op(",") {
                            break;
                        }
                    }
                    TokenKind::Op("*") => {
                        let path = span(self.bump());
                        names.push(ImportedName { path, alias: None });
                        break;
                    }
                    _ => break,
                }
            }
            if parenthesized {
                self.eat_op(")");
            }
        }
        self.finish_line(None);
        Stmt::FromImport {
            module,
            names,
            start,
        }
    }

    /// `a.b.c`: from the first name to the last (empty when no name is
    /// next; a trailing dot is consumed but not covered).
    fn dotted_name(&mut self) -> Span {
        let mut path = self.nothing();
        while let TokenKind::Ident(_) = self.peek() {
            path.end = span(self.bump()).end;
            if !self.eat_op(".") {
                break;
            }
        }
        path
    }

    /// The name after `def` / `class`, or an empty span.
    fn name(&mut self) -> Span {
        match self.peek() {
            TokenKind::Ident(_) => span(self.bump()),
            _ => self.nothing(),
        }
    }

    fn def_stmt(&mut self, start: u32) -> Stmt {
        self.bump(); // 'def'
        let name = self.name();
        let mut params = Vec::new();
        if self.eat_op("(") {
            let mut depth = 1usize;
            let mut expect_param = true;
            while depth > 0 && !self.at_eof() {
                match self.peek() {
                    TokenKind::Op("(" | "[" | "{") => depth += 1,
                    TokenKind::Op(")" | "]" | "}") => depth -= 1,
                    TokenKind::Op(",") if depth == 1 => expect_param = true,
                    TokenKind::Ident(_) if depth == 1 && expect_param => {
                        params.push(span(self.peek_token()));
                        expect_param = false;
                    }
                    _ => {}
                }
                self.bump();
            }
        }
        let body = self.suite();
        Stmt::FunctionDef {
            name,
            params,
            body,
            start,
        }
    }

    fn class_stmt(&mut self, start: u32) -> Stmt {
        self.bump(); // 'class'
        let name = self.name();
        let mut bases = Vec::new();
        if self.eat_op("(") {
            while !self.at_eof() {
                match self.peek() {
                    TokenKind::Op(")") => {
                        self.bump();
                        break;
                    }
                    TokenKind::Op(",") => {
                        self.bump();
                    }
                    _ => {
                        let base = self.dotted_name();
                        if base.start == base.end {
                            self.bump();
                        } else {
                            bases.push(base);
                        }
                    }
                }
            }
        }
        let body = self.suite();
        Stmt::ClassDef {
            name,
            bases,
            body,
            start,
        }
    }

    fn return_stmt(&mut self, start: u32) -> Stmt {
        self.bump(); // 'return'
        let value = if matches!(self.peek(), TokenKind::Newline | TokenKind::Eof) {
            None
        } else {
            Some(self.expression())
        };
        self.finish_line(None);
        Stmt::Return { value, start }
    }

    fn block_stmt(&mut self, keyword: &'static str, start: u32) -> Stmt {
        let after = self.bump().end; // keyword
        let rest = &self.tokens[self.pos..];
        let tokens = &rest[..header_len(rest)];
        self.pos += tokens.len();
        self.eat_op(":");
        let header = covering(tokens, after);
        let parsed = match self.in_header {
            true => None,
            false => self.header(keyword, tokens),
        };
        let body = self.suite();
        Stmt::Block {
            keyword,
            header,
            parsed,
            body,
            start,
        }
    }

    /// The taint engine's reading of a block header (see [`Header`]).
    fn header(&mut self, keyword: &str, tokens: &[SpannedToken<'src>]) -> Option<Box<Header>> {
        let cut = |word: &str, i: &usize| {
            *i > 0
                && matches!(tokens[*i].kind(), TokenKind::Ident(w) if *w == word)
                && tokens.get(i + 1).is_some_and(|t| !is_bracket(t.kind()))
        };
        let (value, target) = match keyword {
            "for" => {
                let i = (0..tokens.len()).find(|i| cut("in", i))?;
                (&tokens[i + 1..], Some(&tokens[..i]))
            }
            "with" => match (0..tokens.len()).rev().find(|i| cut("as", i)) {
                Some(i) => (&tokens[..i], Some(&tokens[i + 1..])),
                None => (tokens, None),
            },
            _ => (tokens, None),
        };
        if value.is_empty() {
            return None;
        }
        let target = target.map(|t| covering(t, 0));
        let value = self.header_expr(value);
        Some(Box::new(Header { value, target }))
    }

    /// `tokens` read as a statement of their own: its expression when it
    /// is an expression statement, else their rendering as
    /// [`Expr::Other`].
    fn header_expr(&mut self, tokens: &[SpannedToken<'src>]) -> Expr {
        let eof = sentinel(tokens);
        let mut p = Parser::new(self.text, tokens, &eof);
        p.in_header = true;
        p.scratch = std::mem::take(&mut self.scratch);
        p.skip_newlines_and_comments();
        let value = match p.at_eof() {
            false => match p.statement() {
                Stmt::Expr { value, .. } => Some(value),
                _ => None,
            },
            true => None,
        };
        self.scratch = p.scratch;
        value.unwrap_or_else(|| {
            Expr::Other(self.rendered(|_, text| {
                write_tokens(tokens, text);
                trim(text);
            }))
        })
    }

    /// Parses an indented body whose INDENT was just consumed, degrading
    /// to a flat [`Stmt::Other`] past [`MAX_BLOCK_DEPTH`] so hostile
    /// indentation cannot overflow the stack.
    fn indented_body(&mut self) -> Vec<Stmt> {
        if self.block_depth >= MAX_BLOCK_DEPTH {
            return vec![self.skip_block_as_other()];
        }
        self.block_depth += 1;
        let body = self.statements(true);
        self.block_depth -= 1;
        body
    }

    /// Consumes tokens up to (and including) the DEDENT matching an
    /// already-consumed INDENT, reconstructing the text so the block stays
    /// visible to string-level matchers.
    fn skip_block_as_other(&mut self) -> Stmt {
        let start = offset(self.peek_token().start);
        let text = self.rendered(|p, text| p.render_block(text));
        Stmt::Other { text, start }
    }

    /// Consumes the rest of an indented block, rendering its tokens.
    fn render_block(&mut self, text: &mut String) {
        let mut depth = 1usize;
        while !self.at_eof() {
            let kind = self.peek();
            match kind {
                TokenKind::Indent => depth += 1,
                TokenKind::Dedent => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        break;
                    }
                }
                _ => {}
            }
            // Bound the reconstruction: past 64 KiB the text is noise.
            if text.len() < 64 * 1024 {
                let empty = matches!(kind, TokenKind::Indent | TokenKind::Dedent);
                if !empty && !text.ends_with([' ', '\n']) && !text.is_empty() {
                    text.push(' ');
                }
                render_into(text, kind);
            }
            self.bump();
        }
        trim(text);
    }

    /// Parses the body after a colon: either an indented block or an
    /// inline statement.
    fn suite(&mut self) -> Vec<Stmt> {
        // Consume optional colon remaining (def/class paths).
        self.eat_op(":");
        if matches!(self.peek(), TokenKind::Newline) {
            self.skip_newlines_and_comments();
            if matches!(self.peek(), TokenKind::Indent) {
                self.bump();
                return self.indented_body();
            }
            return Vec::new();
        }
        // Inline suite: `if x: do()`
        if matches!(self.peek(), TokenKind::Eof | TokenKind::Dedent) {
            return Vec::new();
        }
        vec![self.statement()]
    }

    /// Consumes the rest of the logical line and its NEWLINE, appending
    /// the tokens' text, space-separated, to `text` when one is given.
    fn finish_line(&mut self, mut text: Option<&mut String>) {
        loop {
            match self.peek() {
                TokenKind::Newline | TokenKind::Eof | TokenKind::Dedent => break,
                other => {
                    if let Some(text) = text.as_deref_mut() {
                        if !text.is_empty() {
                            text.push(' ');
                        }
                        render_into(text, other);
                    }
                    self.bump();
                }
            }
        }
        if matches!(self.peek(), TokenKind::Newline) {
            self.bump();
        }
    }

    /// The rest of the logical line as text (see [`Parser::finish_line`]).
    fn line_text(&mut self) -> String {
        self.rendered(|p, text| p.finish_line(Some(text)))
    }

    // ---- expressions ----

    fn expression(&mut self) -> Expr {
        let mut left = self.unary();
        loop {
            let op = match self.peek() {
                TokenKind::Op(
                    o @ ("+" | "-" | "*" | "/" | "%" | "//" | "**" | "|" | "&" | "^" | "==" | "!="
                    | "<" | ">" | "<=" | ">=" | ">>" | "<<"),
                ) => *o,
                TokenKind::Ident(w) => match WORD_OPS.iter().find(|op| *op == w) {
                    Some(op) => op,
                    None => break,
                },
                _ => break,
            };
            self.bump();
            let right = self.unary();
            left = Expr::BinOp {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
        }
        left
    }

    fn unary(&mut self) -> Expr {
        // Every level of expression nesting (parentheses, call arguments,
        // unary chains) passes through here; past the cap, consume one
        // token and degrade so hostile nesting cannot overflow the stack.
        if self.expr_depth >= MAX_EXPR_DEPTH {
            return self.token_other();
        }
        self.expr_depth += 1;
        let expr = if matches!(self.peek(), TokenKind::Op("-" | "+" | "~"))
            || matches!(self.peek(), TokenKind::Ident("not"))
        {
            Expr::Other(self.rendered(|p, text| {
                render_into(text, p.bump().kind());
                text.push(' ');
                p.unary().write_text(p.text, text);
            }))
        } else {
            self.postfix()
        };
        self.expr_depth -= 1;
        expr
    }

    fn postfix(&mut self) -> Expr {
        let mut expr = self.atom();
        loop {
            match self.peek() {
                TokenKind::Op(".") => {
                    self.bump();
                    if let TokenKind::Ident(_) = self.peek() {
                        expr = Expr::Attribute {
                            value: Box::new(expr),
                            attr: span(self.bump()),
                        };
                    } else {
                        break;
                    }
                }
                TokenKind::Op("(") => {
                    self.bump();
                    let args = self.call_args();
                    expr = Expr::Call {
                        func: Box::new(expr),
                        args,
                    };
                }
                TokenKind::Op("[") => {
                    self.bump();
                    expr = Expr::Other(self.rendered(|p, text| {
                        expr.write_text(p.text, text);
                        text.push('[');
                        p.render_balanced(text, "[", "]");
                        text.push(']');
                    }));
                }
                _ => break,
            }
        }
        expr
    }

    /// Consumes tokens through the `close` that balances an already
    /// consumed `open`, appending all but that `close` to `text`.
    /// The next token, consumed and kept as its rendering.
    fn token_other(&mut self) -> Expr {
        Expr::Other(self.rendered(|p, text| render_into(text, p.bump().kind())))
    }

    fn render_balanced(&mut self, text: &mut String, open: &str, close: &str) {
        let mut depth = 1;
        while !self.at_eof() {
            match self.peek() {
                TokenKind::Op(x) if *x == open => depth += 1,
                TokenKind::Op(x) if *x == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        break;
                    }
                }
                _ => {}
            }
            render_into(text, self.bump().kind());
        }
    }

    fn call_args(&mut self) -> Vec<Arg> {
        let mut args = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Op(")") => {
                    self.bump();
                    break;
                }
                TokenKind::Eof => break,
                TokenKind::Op(",") => {
                    self.bump();
                }
                TokenKind::Op("*" | "**") => {
                    // *args / **kwargs forwarding.
                    self.bump();
                    let value = self.expression();
                    args.push(Arg { name: None, value });
                }
                _ => {
                    // keyword argument? ident '=' (not '==')
                    if let TokenKind::Ident(_) = self.peek() {
                        if matches!(
                            self.tokens.get(self.pos + 1).map(SpannedToken::kind),
                            Some(TokenKind::Op("="))
                        ) {
                            let name = span(self.bump());
                            self.bump(); // '='
                            let value = self.expression();
                            args.push(Arg {
                                name: Some(name),
                                value,
                            });
                            continue;
                        }
                    }
                    let value = self.expression();
                    args.push(Arg { name: None, value });
                }
            }
        }
        args
    }

    /// A literal's value: its source span where it is a slice of `text`
    /// (the lexer borrowed it), else a copy.
    fn literal(&self, value: &str) -> Literal {
        let at = (value.as_ptr() as usize).wrapping_sub(self.text.as_ptr() as usize);
        let end = at.checked_add(value.len());
        match end.filter(|&end| self.text.get(at..end).is_some()) {
            Some(end) => Literal::Source(Span::new(at, end)),
            None => Literal::Owned(value.to_owned()),
        }
    }

    fn atom(&mut self) -> Expr {
        match self.peek() {
            TokenKind::Ident(_) => Expr::Name(span(self.bump())),
            TokenKind::Number(_) => Expr::Num(span(self.bump())),
            TokenKind::Str { value, .. } => {
                self.bump();
                if !matches!(self.peek(), TokenKind::Str { .. }) {
                    return Expr::Str(self.literal(value));
                }
                // Adjacent string literal concatenation.
                let mut v = value.to_string();
                while let TokenKind::Str { value: more, .. } = self.peek() {
                    v.push_str(more);
                    self.bump();
                }
                Expr::Str(Literal::Owned(v))
            }
            TokenKind::Op("(") => {
                self.bump();
                if self.eat_op(")") {
                    return Expr::Other("()".into());
                }
                let inner = self.expression();
                // Tuple or generator — flatten to Other but keep the first
                // element visible for matching.
                if matches!(self.peek(), TokenKind::Op(",")) {
                    return Expr::Other(self.rendered(|p, text| {
                        text.push('(');
                        inner.write_text(p.text, text);
                        while p.eat_op(",") {
                            if matches!(p.peek(), TokenKind::Op(")")) {
                                break;
                            }
                            text.push_str(", ");
                            p.expression().write_text(p.text, text);
                        }
                        p.eat_op(")");
                        text.push(')');
                    }));
                }
                self.eat_op(")");
                inner
            }
            TokenKind::Op(open @ ("[" | "{")) => {
                // Collection literal — consume balanced and render.
                let close = if *open == "[" { "]" } else { "}" };
                self.bump();
                Expr::Other(self.rendered(|p, text| {
                    text.push_str(open);
                    p.render_balanced(text, open, close);
                    text.push_str(close);
                }))
            }
            _ => self.token_other(),
        }
    }
}

/// How many of `tokens` a block header spans: up to a `:` outside
/// brackets, a NEWLINE or the end.
fn header_len(tokens: &[SpannedToken<'_>]) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        match t.kind() {
            TokenKind::Op(":") if depth == 0 => return i,
            TokenKind::Newline | TokenKind::Eof => return i,
            TokenKind::Op("(" | "[" | "{") => depth += 1,
            TokenKind::Op(")" | "]" | "}") => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    tokens.len()
}

/// Appends the rendering of the block header `tokens` begin with (see
/// [`Stmt::to_text`]).
pub(crate) fn write_header(tokens: &[SpannedToken<'_>], out: &mut String) {
    write_tokens(&tokens[..header_len(tokens)], out);
}

/// Appends `tokens`, each bracket glued on and every other token after
/// one space.
fn write_tokens(tokens: &[SpannedToken<'_>], out: &mut String) {
    for t in tokens {
        if !is_bracket(t.kind()) {
            out.push(' ');
        }
        render_into(out, t.kind());
    }
}

/// Trims `text`'s surrounding whitespace in place.
fn trim(text: &mut String) {
    text.truncate(text.trim_end().len());
    text.drain(..text.len() - text.trim_start().len());
}

/// Appends the source-like text of `kind` to `out`.
fn render_into(out: &mut String, kind: &TokenKind<'_>) {
    match kind {
        TokenKind::Ident(text) | TokenKind::Number(text) | TokenKind::Comment(text) => {
            out.push_str(text)
        }
        TokenKind::Str { value, .. } => {
            out.push('\'');
            out.push_str(value);
            out.push('\'');
        }
        TokenKind::Op(o) => out.push_str(o),
        TokenKind::Newline => out.push('\n'),
        TokenKind::Indent | TokenKind::Dedent | TokenKind::Eof => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first statement of `src`, with the text its spans point into.
    fn first(src: &str) -> (Module, Stmt) {
        let m = parse_module(src);
        let stmt = m.body[0].clone();
        (m, stmt)
    }

    fn paths(names: &[ImportedName], src: &str) -> Vec<(String, Option<String>)> {
        names
            .iter()
            .map(|n| {
                let alias = n.alias.map(|a| a.text(src).to_owned());
                (n.path.dotted(src).into_owned(), alias)
            })
            .collect()
    }

    fn plain(path: &str) -> (String, Option<String>) {
        (path.to_owned(), None)
    }

    #[test]
    fn parses_imports() {
        let src = "import os\nimport sys, json\nimport os.path\n";
        let m = parse_module(src);
        assert_eq!(m.body.len(), 3);
        let Stmt::Import { modules, .. } = &m.body[1] else {
            panic!("{:?}", m.body)
        };
        assert_eq!(paths(modules, src), [plain("sys"), plain("json")]);
        let Stmt::Import { modules, .. } = &m.body[2] else {
            panic!("{:?}", m.body)
        };
        assert_eq!(paths(modules, src), [plain("os.path")]);
    }

    #[test]
    fn parses_from_import() {
        let src = "from subprocess import Popen, PIPE\nfrom x import *\n";
        let m = parse_module(src);
        let Stmt::FromImport { module, names, .. } = &m.body[0] else {
            panic!("{:?}", m.body)
        };
        assert_eq!(module.text(src), "subprocess");
        assert_eq!(paths(names, src), [plain("Popen"), plain("PIPE")]);
        let Stmt::FromImport { names, .. } = &m.body[1] else {
            panic!("{:?}", m.body)
        };
        assert_eq!(paths(names, src), [plain("*")]);
    }

    #[test]
    fn import_aliases_are_retained() {
        let src = "import os as o, base64\nfrom subprocess import run as r\n";
        let m = parse_module(src);
        let Stmt::Import { modules, .. } = &m.body[0] else {
            panic!("{:?}", m.body)
        };
        let aliased = ("os".to_owned(), Some("o".to_owned()));
        assert_eq!(paths(modules, src), [aliased, plain("base64")]);
        assert_eq!(modules[0].binding(src), "o");
        let Stmt::FromImport { module, names, .. } = &m.body[1] else {
            panic!("{:?}", m.body)
        };
        assert_eq!(module.text(src), "subprocess");
        assert_eq!(
            paths(names, src),
            [("run".to_owned(), Some("r".to_owned()))]
        );
    }

    #[test]
    fn parses_function_and_class_defs() {
        let src = "def install(target, mode=f(a, b)):\n    os.system(target)\n";
        let (_, stmt) = first(src);
        let Stmt::FunctionDef {
            name, params, body, ..
        } = stmt
        else {
            panic!("{stmt:?}")
        };
        assert_eq!(name.text(src), "install");
        let params: Vec<&str> = params.iter().map(|p| p.text(src)).collect();
        assert_eq!(params, ["target", "mode"]);
        assert_eq!(body.len(), 1);
        let src = "class Installer(setuptools.Command):\n    pass\n";
        let (_, stmt) = first(src);
        let Stmt::ClassDef { name, bases, .. } = stmt else {
            panic!("{stmt:?}")
        };
        assert_eq!(name.text(src), "Installer");
        assert_eq!(bases[0].text(src), "setuptools.Command");
    }

    #[test]
    fn parses_calls_with_keyword_args_and_nesting() {
        let src = "subprocess.Popen(cmd, shell=True)\nexec(base64.b64decode('cGF5bG9hZA=='))\n";
        let m = parse_module(src);
        let Stmt::Expr {
            value: Expr::Call { func, args },
            ..
        } = &m.body[0]
        else {
            panic!("{:?}", m.body)
        };
        assert_eq!(func.func_path(src), "subprocess.Popen");
        assert_eq!(args.len(), 2);
        assert_eq!(args[1].name.map(|n| n.text(src)), Some("shell"));
        assert!(matches!(args[1].value, Expr::Name(n) if n.text(src) == "True"));
        let Stmt::Expr {
            value: Expr::Call { func, args },
            ..
        } = &m.body[1]
        else {
            panic!("{:?}", m.body)
        };
        assert_eq!(func.func_path(src), "exec");
        let Expr::Call { func, args } = &args[0].value else {
            panic!("{args:?}")
        };
        assert_eq!(func.func_path(src), "base64.b64decode");
        assert!(
            matches!(&args[0].value, Expr::Str(Literal::Source(s)) if s.text(src) == "cGF5bG9hZA==")
        );
    }

    #[test]
    fn parses_assignments() {
        let src = "url = 'http://evil.example'\nself.url = get()\na = b = get_payload()\nx += 1\n";
        let m = parse_module(src);
        let targets = |i: usize| match &m.body[i] {
            Stmt::Assign { targets, .. } => {
                targets.iter().map(|t| t.to_text(src)).collect::<Vec<_>>()
            }
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(targets(0), ["url"]);
        assert_eq!(targets(1), ["self.url"]);
        assert_eq!(targets(2), ["a", "b"]);
        assert_eq!(targets(3), ["x"]);
        let Stmt::Assign { value, .. } = &m.body[2] else {
            panic!("{:?}", m.body)
        };
        assert_eq!(value.func_path(src), "get_payload");
    }

    #[test]
    fn parses_blocks_and_their_headers() {
        let src = "if platform.system() == 'Windows':\n    run()\ntry:\n    risky()\nexcept Exception:\n    pass\nif debug: print(x)\n";
        let m = parse_module(src);
        let keywords: Vec<&str> = m
            .body
            .iter()
            .map(|s| match s {
                Stmt::Block { keyword, body, .. } => {
                    assert_eq!(body.len(), 1);
                    *keyword
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(keywords, ["if", "try", "except", "if"]);
        assert_eq!(
            m.body[0].to_text(src),
            "if platform . system() == 'Windows'"
        );
        assert_eq!(m.body[1].to_text(src), "try");
        let Stmt::Block {
            parsed: Some(header),
            ..
        } = &m.body[0]
        else {
            panic!("{:?}", m.body)
        };
        assert_eq!(header.value.to_text(src), "platform.system() == 'Windows'");
        assert!(matches!(&m.body[1], Stmt::Block { parsed: None, .. }));
    }

    /// `for` cuts at the first ` in ` and `with` at the last ` as ` of
    /// the rendered header: an `in` / `as` token that is not the first
    /// and is not followed by a bracket.
    #[test]
    fn block_headers_split_like_their_rendered_text() {
        let header = |src: &str| {
            let (m, stmt) = first(src);
            let Stmt::Block { parsed, .. } = stmt else {
                panic!("{stmt:?}")
            };
            parsed.map(|h| {
                let target = h.target.map(|t| t.text(m.source()).to_owned());
                (h.value.to_text(m.source()), target)
            })
        };
        let split =
            |value: &str, target: Option<&str>| Some((value.to_owned(), target.map(str::to_owned)));
        assert_eq!(
            header("for k, v in d.items():\n    pass\n"),
            split("d.items()", Some("k, v"))
        );
        assert_eq!(
            header("for x in [y for y in z]:\n    pass\n"),
            split("z", Some("x in [y for y"))
        );
        assert_eq!(header("for x in (a, b):\n    pass\n"), None);
        assert_eq!(
            header("with open(p) as f:\n    pass\n"),
            split("open(p)", Some("f"))
        );
        assert_eq!(
            header("with a as b, c as d:\n    pass\n"),
            split("a", Some("d"))
        );
        assert_eq!(header("with lock:\n    pass\n"), split("lock", None));
        assert_eq!(
            header("while (n := 3) > 1:\n    pass\n"),
            split("( n := 3) > 1", None)
        );
        assert_eq!(header("else:\n    pass\n"), None);
    }

    #[test]
    fn async_statements_parse_as_their_synchronous_forms() {
        let src = "async with open(os.environ['K']) as f:\n    os.system(f)\nasync for x in y:\n    pass\nasync def g():\n    pass\n";
        let m = parse_module(src);
        let shapes: Vec<(&str, String)> = m
            .body
            .iter()
            .map(|s| match s {
                Stmt::Block { keyword, .. } => (*keyword, s.to_text(src)),
                Stmt::FunctionDef { .. } => ("def", s.to_text(src)),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            shapes,
            [
                ("with", "with open( os . environ[ 'K']) as f".to_owned()),
                ("for", "for x in y".to_owned()),
                ("def", "def g".to_owned()),
            ]
        );
        assert_eq!(m.line(&m.body[1]), 3);
    }

    #[test]
    fn parses_return() {
        let src = "def f():\n    return os.environ\n";
        let (_, stmt) = first(src);
        let Stmt::FunctionDef { body, .. } = stmt else {
            panic!("{stmt:?}")
        };
        let Stmt::Return { value: Some(v), .. } = &body[0] else {
            panic!("{body:?}")
        };
        assert_eq!(v.func_path(src), "os.environ");
    }

    #[test]
    fn tolerates_garbage() {
        let m = parse_module("??? !!! ***\nx = 1\n");
        assert!(m.body.len() >= 2);
        assert!(matches!(m.body.last().expect("x=1"), Stmt::Assign { .. }));
    }

    #[test]
    fn literals_borrow_the_source_unless_their_value_differs() {
        let src = "u = 'http://' 'evil.com'\nv = 'a\\nb'\nw = 'plain'\n";
        let m = parse_module(src);
        let value = |i: usize| match &m.body[i] {
            Stmt::Assign {
                value: Expr::Str(s),
                ..
            } => s.clone(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(value(0), Literal::Owned("http://evil.com".into()));
        assert_eq!(value(1), Literal::Owned("a\nb".into()));
        assert!(matches!(value(2), Literal::Source(s) if s.text(src) == "plain"));
    }

    #[test]
    fn string_percent_format_binop() {
        let (_, stmt) = first("cmd = 'curl %s' % url\n");
        assert!(matches!(
            stmt,
            Stmt::Assign {
                value: Expr::BinOp { op: "%", .. },
                ..
            }
        ));
    }

    #[test]
    fn multiline_call_parses() {
        let src = "setup(\n    name='evil',\n    version='0.0.0',\n)\n";
        let (_, stmt) = first(src);
        let Stmt::Expr {
            value: Expr::Call { func, args },
            ..
        } = stmt
        else {
            panic!("{stmt:?}")
        };
        assert_eq!(func.func_path(src), "setup");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn decorated_function_body_found() {
        let src = "@atexit.register\ndef boom():\n    leak()\n";
        let m = parse_module(src);
        assert!(m
            .body
            .iter()
            .any(|s| matches!(s, Stmt::FunctionDef { name, .. } if name.text(src) == "boom")));
    }

    #[test]
    fn pathological_paren_nesting_does_not_overflow_stack() {
        // 100k opening parens used to recurse once per paren.
        let src = format!("x = {}1\n", "(".repeat(100_000));
        let m = parse_module(&src);
        assert!(!m.body.is_empty());
    }

    #[test]
    fn pathological_unary_and_header_keyword_chains_do_not_overflow_stack() {
        for src in [
            format!("x = {}1\n", "-".repeat(100_000)),
            format!("{}x:\n    pass\n", "if ".repeat(100_000)),
        ] {
            let m = parse_module(&src);
            assert!(!m.body.is_empty());
        }
    }

    #[test]
    fn pathological_indentation_does_not_overflow_stack() {
        let mut src = String::new();
        for d in 0..3_000 {
            src.push_str(&" ".repeat(d));
            src.push_str("if x:\n");
        }
        src.push_str(&" ".repeat(3_000));
        src.push_str("os.system('deep')\n");
        let m = parse_module(&src);
        assert!(!m.body.is_empty());
        // The payload text survives somewhere in the degraded tree.
        fn contains(stmts: &[Stmt], needle: &str) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::Other { text, .. } => text.contains(needle),
                Stmt::Block { body, .. }
                | Stmt::FunctionDef { body, .. }
                | Stmt::ClassDef { body, .. } => contains(body, needle),
                _ => false,
            })
        }
        // Token-level reconstruction spaces glyphs apart, so probe for the
        // string payload rather than the dotted call.
        assert!(contains(&m.body, "deep"), "payload text lost");
    }

    #[test]
    fn pathological_bracket_soup_terminates() {
        let src = "[(".repeat(50_000);
        let m = parse_module(&src);
        let _ = m.body.len();
    }

    #[test]
    fn unterminated_string_and_weird_escapes_parse() {
        let m = parse_module("x = 'oops\\q\ny = 'unterminated");
        assert!(!m.body.is_empty());
    }

    #[test]
    fn deep_nesting_survives() {
        let mut src = String::new();
        for i in 0..20 {
            src.push_str(&"    ".repeat(i));
            src.push_str("if x:\n");
        }
        src.push_str(&"    ".repeat(20));
        src.push_str("boom()\n");
        let m = parse_module(&src);
        assert!(!m.body.is_empty());
    }
}
