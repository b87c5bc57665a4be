//! Tolerant recursive-descent parser over the token stream.

use std::cell::Cell;

use crate::ast::{
    Arg, Counts, Expr, ExprId, Header, ImportedName, Literal, Module, Nodes, Run, Span, Stmt, Word,
};
use crate::edit::Edit;
use crate::lexer::lex;
use crate::token::{Kind, Lexeme};

/// Parses Python `source` into a [`Module`]: [`parse_tokens`] over one
/// [`lex`] pass.
///
/// Never fails: statements the parser doesn't understand are preserved as
/// [`Stmt::Other`] nodes carrying reconstructed text, so downstream
/// matchers always see the full file.
pub fn parse_module(source: &str) -> Module {
    parse_tokens(source, &lex(source))
}

/// Parses tokens lexed from `text`, in place, into a [`Module`] over a
/// copy of `text`.
///
/// This is the parser's front door: a caller that holds the tokens lends
/// them and pays no second lex. Same tolerance guarantees as
/// [`parse_module`]. A stream that does not end in [`Kind::EOF`] is
/// read as if one followed at the last token. [`parse_spliced`] with no
/// donor and the whole text as its window.
pub fn parse_tokens(text: &str, tokens: &[Lexeme]) -> Module {
    parse_spliced(text, tokens, None, Edit::whole(text)).0
}

/// Parses `tokens`, lexed from the `edit`'s new window of `text`, and
/// sets their top-level statements between the `donor`'s outside it: the
/// module a full parse of `text` builds when the edit is [`Edit::new`]'s
/// from the donor. Returns it with the edit, now holding the statements
/// it inserted.
///
/// The tree is built in arrays kept per thread between parses, then copied
/// out once per array at its final length, between the donor's slices
/// (see [`crate::Module`]). A parse therefore allocates the module's copy
/// of `text`, its [`crate::LineIndex`], and one buffer per non-empty
/// array; owned literal values and `Other` renderings share one of them.
pub fn parse_spliced(
    text: &str,
    tokens: &[Lexeme],
    donor: Option<&Module>,
    mut edit: Edit,
) -> (Module, Edit) {
    let mut p = Parser::new(text, tokens);
    p.b = SCRATCH.take();
    p.statements(/*stop_at_dedent=*/ false);
    let first = edit.removed.range().start;
    edit.inserted = Run::new(first, first + p.b.marks.len());
    let module = Module::assemble(text, (&p.b.nodes, &p.b.marks), donor, &edit);
    p.b.clear();
    if p.b.heap_bytes() <= MAX_KEPT_SCRATCH {
        SCRATCH.set(p.b);
    }
    (module, edit)
}

/// What a parse builds its tree in: the tree's arrays, plus the stacks
/// on which lists whose entries interleave with their children's are
/// gathered before they are copied into an array in one piece.
#[derive(Default)]
struct Builder {
    nodes: Nodes,
    /// The counts at the start of each top-level statement.
    marks: Vec<Counts>,
    /// The arguments of the calls being parsed, the innermost's last.
    args: Vec<Arg>,
    /// The targets of the assignment, or the elements of the tuples,
    /// being parsed.
    exprs: Vec<ExprId>,
    /// The buffer an `Other` rendering is built in.
    render: String,
}

impl Builder {
    fn clear(&mut self) {
        self.nodes.truncate(Counts::default());
        self.marks.clear();
        self.args.clear();
        self.exprs.clear();
        self.render.clear();
    }

    fn heap_bytes(&self) -> usize {
        self.nodes.heap_bytes()
            + self.marks.capacity() * std::mem::size_of::<Counts>()
            + self.args.capacity() * std::mem::size_of::<Arg>()
            + self.exprs.capacity() * std::mem::size_of::<ExprId>()
            + self.render.capacity()
    }
}

thread_local! {
    /// This thread's builder, between parses: grown to the largest tree
    /// it has held, so that a parse allocates only its module's arrays.
    static SCRATCH: Cell<Builder> = Cell::default();
}

/// A builder that grew past this many bytes is freed after its parse
/// rather than kept: one hostile file must not pin its tree's memory. The
/// lexer's token buffer is kept under the same limit.
pub(crate) const MAX_KEPT_SCRATCH: usize = 4 << 20;

/// An EOF token at the last token of `tokens`, read once a parser passes
/// their end.
fn sentinel(tokens: &[Lexeme]) -> Lexeme {
    let (line, at) = tokens.last().map_or((1, 0), |t| (t.line, t.start));
    Lexeme::new(Kind::EOF, 0, at, at, line)
}

/// Maximum nesting of indented blocks before the parser degrades the
/// block to a flat [`Stmt::Other`]. Malware has shipped pathologically
/// indented files specifically to crash recursive parsers; past this
/// depth we keep the text visible to matchers but stop recursing.
const MAX_BLOCK_DEPTH: usize = 128;

/// Maximum expression nesting (parentheses, call arguments, unary
/// chains, operator spines, attribute/call/subscript chains) before
/// degrading to [`Expr::Other`]. A file of 100k `(` bytes, or of one
/// 64k-term `+` or `.b` chain, must not overflow the stack of the parser
/// or of anything that walks its tree.
const MAX_EXPR_DEPTH: usize = 96;

/// The keyword of an unexpected indented block.
const ANONYMOUS: Word = Word::of("");
const ASYNC: Word = Word::of("async");
const FOR: Word = Word::of("for");
const WITH: Word = Word::of("with");

/// The operator kinds the parser reads.
const LPAR: Kind = Kind::op("(");
const RPAR: Kind = Kind::op(")");
const LSQB: Kind = Kind::op("[");
const RSQB: Kind = Kind::op("]");
const LBRACE: Kind = Kind::op("{");
const RBRACE: Kind = Kind::op("}");
const DOT: Kind = Kind::op(".");
const COMMA: Kind = Kind::op(",");
const COLON: Kind = Kind::op(":");
const EQUAL: Kind = Kind::op("=");
const STAR: Kind = Kind::op("*");
const DOUBLE_STAR: Kind = Kind::op("**");
const AT: Kind = Kind::op("@");
const MINUS: Kind = Kind::op("-");
const PLUS: Kind = Kind::op("+");
const TILDE: Kind = Kind::op("~");

/// A cursor over a borrowed token slice of `text`.
struct Parser<'a> {
    text: &'a str,
    tokens: &'a [Lexeme],
    /// Sticky sentinel read once `pos` passes the slice.
    eof: Lexeme,
    pos: usize,
    block_depth: usize,
    expr_depth: usize,
    /// This parser reads one block header as a statement; a block header
    /// inside it is not parsed (that statement degrades anyway), so a
    /// chain of keywords cannot recurse.
    in_header: bool,
    /// The tree being built.
    b: Builder,
}

fn span(t: Lexeme) -> Span {
    Span {
        start: t.start,
        end: t.end,
    }
}

/// The span from the first of `tokens` to the last; empty at `at` when
/// there are none.
fn covering(tokens: &[Lexeme], at: u32) -> Span {
    let (first, last) = (tokens.first(), tokens.last());
    Span {
        start: first.map_or(at, |t| t.start),
        end: last.map_or(at, |t| t.end),
    }
}

fn is_bracket(kind: Kind) -> bool {
    matches!(kind, LPAR | LSQB | LBRACE | RPAR | RSQB | RBRACE)
}

/// `+=`, `//=`, ... (and `:=`): an operator that makes an assignment.
fn is_augmented(kind: Kind) -> bool {
    kind.op_text().is_some_and(|op| {
        op.ends_with('=') && op.len() >= 2 && !matches!(op, "==" | "!=" | ">=" | "<=")
    })
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, tokens: &'a [Lexeme]) -> Self {
        Parser {
            text,
            tokens,
            eof: sentinel(tokens),
            pos: 0,
            block_depth: 0,
            expr_depth: 0,
            in_header: false,
            b: Builder::default(),
        }
    }

    /// Where every array of the tree ends now.
    fn mark(&self) -> Counts {
        self.b.nodes.counts()
    }

    fn push(&mut self, expr: Expr) -> ExprId {
        self.b.nodes.push_expr(expr)
    }

    /// Appends the rendering of expression `id` to `out`.
    fn write(&self, id: ExprId, out: &mut String) {
        self.b.nodes.write_expr(self.text, id, out);
    }

    /// What `render` appends to an empty buffer, as owned text, after the
    /// nodes pushed since `mark` — what it rendered, if anything — are
    /// dropped: the tree keeps them as that text only.
    fn rendered(&mut self, mark: Counts, render: impl FnOnce(&mut Self, &mut String)) -> Run {
        let mut buf = std::mem::take(&mut self.b.render);
        buf.clear();
        render(self, &mut buf);
        self.b.nodes.truncate(mark);
        let text = self.b.nodes.push_text(&buf);
        self.b.render = buf;
        text
    }

    /// An [`Expr::Other`] of what `render` renders (see
    /// [`Parser::rendered`]).
    fn other(&mut self, mark: Counts, render: impl FnOnce(&mut Self, &mut String)) -> ExprId {
        let text = self.rendered(mark, render);
        self.push(Expr::Other(text))
    }

    /// An [`Expr::Other`] of `text`.
    fn other_text(&mut self, text: &str) -> ExprId {
        let text = self.b.nodes.push_text(text);
        self.push(Expr::Other(text))
    }

    fn peek(&self) -> Kind {
        self.peek_token().kind
    }

    fn peek_token(&self) -> Lexeme {
        self.tokens.get(self.pos).copied().unwrap_or(self.eof)
    }

    /// The next token's text, when it is an identifier.
    fn peek_ident(&self) -> Option<&'a str> {
        let t = self.peek_token();
        (t.kind == Kind::IDENT).then(|| t.text(self.text))
    }

    fn bump(&mut self) -> Lexeme {
        let t = self.peek_token();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    /// An empty span at the next token: where a missing name would be.
    fn nothing(&self) -> Span {
        let at = self.peek_token().start;
        Span { start: at, end: at }
    }

    fn eat_op(&mut self, op: Kind) -> bool {
        if self.peek() == op {
            self.bump();
            true
        } else {
            false
        }
    }

    fn at_eof(&self) -> bool {
        self.peek() == Kind::EOF
    }

    fn skip_newlines_and_comments(&mut self) {
        while matches!(self.peek(), Kind::NEWLINE | Kind::COMMENT) {
            self.bump();
        }
    }

    /// Parses statements up to the end, or through the DEDENT that closes
    /// the block, when `stop_at_dedent`. At the top level, marks where
    /// each statement's nodes begin.
    fn statements(&mut self, stop_at_dedent: bool) {
        loop {
            self.skip_newlines_and_comments();
            let kind = self.peek();
            match kind {
                Kind::EOF => break,
                Kind::DEDENT if stop_at_dedent => {
                    self.bump();
                    break;
                }
                Kind::DEDENT => {
                    // Stray dedent at top level (inconsistent input).
                    self.bump();
                    continue;
                }
                _ => {}
            }
            if !stop_at_dedent {
                let mark = self.mark();
                self.b.marks.push(mark);
            }
            if kind != Kind::INDENT {
                self.statement();
                continue;
            }
            // Unexpected indent — parse it as an anonymous block so nested
            // statements are still visible. It starts at the INDENT, which
            // is where its first statement is.
            let start = self.bump().start;
            let at = self.reserve();
            let body = self.indented_body();
            self.b.nodes.stmts[at] = Stmt::Block {
                keyword: ANONYMOUS,
                header: Span { start, end: start },
                parsed: None,
                body,
                start,
            };
        }
    }

    /// A place for the statement about to be parsed, ahead of the
    /// statements of its body: statements are stored in pre-order.
    fn reserve(&mut self) -> usize {
        let stmts = &mut self.b.nodes.stmts;
        stmts.push(Stmt::Other {
            text: Run::default(),
            start: 0,
        });
        stmts.len() - 1
    }

    /// Parses one statement into the tree.
    fn statement(&mut self) {
        let at = self.reserve();
        let stmt = self.stmt();
        self.b.nodes.stmts[at] = stmt;
    }

    fn stmt(&mut self) -> Stmt {
        let start = self.peek_token().start;
        if let Some(word) = self.peek_ident() {
            match word {
                "import" => return self.import_stmt(start),
                "from" => return self.parse_from_import(start),
                "def" => return self.def_stmt(start),
                "class" => return self.class_stmt(start),
                "return" => return self.return_stmt(start),
                "async" => {
                    // `async def` / `with` / `for` — consume the marker and
                    // parse the synchronous form.
                    self.bump();
                    return match self.peek_ident() {
                        Some("def") => self.def_stmt(start),
                        Some("with") => self.block_stmt(WITH, start),
                        Some("for") => self.block_stmt(FOR, start),
                        _ => self.block_stmt(ASYNC, start),
                    };
                }
                "pass" | "break" | "continue" => {
                    self.bump();
                    self.finish_line(None);
                    let text = self.b.nodes.push_text(word);
                    return Stmt::Other { text, start };
                }
                "raise" | "assert" | "del" | "global" | "nonlocal" | "yield" | "lambda" => {
                    let text = self.line_text();
                    return Stmt::Other { text, start };
                }
                _ => {
                    // `async` was read above, so this finds `if` to `with`.
                    if let Some(keyword) = Word::find(word, Word::BLOCK) {
                        return self.block_stmt(keyword, start);
                    }
                }
            }
        }
        if self.peek() == AT {
            // Decorator — record as Other and continue.
            let text = self.line_text();
            return Stmt::Other { text, start };
        }
        // Expression or assignment.
        let expr = self.expression();
        if self.peek() == EQUAL {
            let base = self.b.exprs.len();
            self.b.exprs.push(expr);
            let mut value = None;
            while self.eat_op(EQUAL) {
                let next = self.expression();
                if self.peek() == EQUAL {
                    self.b.exprs.push(next);
                } else {
                    value = Some(next);
                    break;
                }
            }
            self.finish_line(None);
            let value = value.unwrap_or_else(|| self.other_text(""));
            let targets = &mut self.b.nodes.targets;
            let first = targets.len();
            targets.extend(self.b.exprs.drain(base..));
            return Stmt::Assign {
                targets: Run::new(first, targets.len()),
                value,
                start,
            };
        }
        // Augmented assignment — keep RHS as the value.
        if is_augmented(self.peek()) {
            self.bump();
            let value = self.expression();
            self.finish_line(None);
            let targets = &mut self.b.nodes.targets;
            targets.push(expr);
            return Stmt::Assign {
                targets: Run::new(targets.len() - 1, targets.len()),
                value,
                start,
            };
        }
        self.finish_line(None);
        Stmt::Expr { value: expr, start }
    }

    /// After an `as`: the alias name, if one follows.
    fn alias(&mut self) -> Option<Span> {
        if self.peek_ident() != Some("as") {
            return None;
        }
        self.bump();
        let alias = (self.peek() == Kind::IDENT).then(|| span(self.peek_token()));
        self.bump();
        alias
    }

    fn import_stmt(&mut self, start: u32) -> Stmt {
        self.bump(); // 'import'
        let first = self.b.nodes.imports.len();
        loop {
            let path = self.dotted_name();
            if path.start == path.end {
                break;
            }
            // `import x as y` — keep the alias: it is the name the rest
            // of the file binds, and taint alias resolution needs it.
            let alias = self.alias();
            self.b.nodes.imports.push(ImportedName { path, alias });
            if !self.eat_op(COMMA) {
                break;
            }
        }
        self.finish_line(None);
        Stmt::Import {
            modules: Run::new(first, self.b.nodes.imports.len()),
            start,
        }
    }

    fn parse_from_import(&mut self, start: u32) -> Stmt {
        self.bump(); // 'from'
        let module = self.dotted_name();
        let first = self.b.nodes.imports.len();
        if self.peek_ident() == Some("import") {
            self.bump();
            let parenthesized = self.eat_op(LPAR);
            loop {
                match self.peek() {
                    Kind::IDENT => {
                        let path = span(self.bump());
                        let alias = self.alias();
                        self.b.nodes.imports.push(ImportedName { path, alias });
                        if !self.eat_op(COMMA) {
                            break;
                        }
                    }
                    STAR => {
                        let path = span(self.bump());
                        let star = ImportedName { path, alias: None };
                        self.b.nodes.imports.push(star);
                        break;
                    }
                    _ => break,
                }
            }
            if parenthesized {
                self.eat_op(RPAR);
            }
        }
        self.finish_line(None);
        Stmt::FromImport {
            module,
            names: Run::new(first, self.b.nodes.imports.len()),
            start,
        }
    }

    /// `a.b.c`: from the first name to the last (empty when no name is
    /// next; a trailing dot is consumed but not covered).
    fn dotted_name(&mut self) -> Span {
        let mut path = self.nothing();
        while self.peek() == Kind::IDENT {
            path.end = self.bump().end;
            if !self.eat_op(DOT) {
                break;
            }
        }
        path
    }

    /// The name after `def` / `class`, or an empty span.
    fn name(&mut self) -> Span {
        match self.peek() {
            Kind::IDENT => span(self.bump()),
            _ => self.nothing(),
        }
    }

    fn def_stmt(&mut self, start: u32) -> Stmt {
        self.bump(); // 'def'
        let name = self.name();
        let first = self.b.nodes.names.len();
        if self.eat_op(LPAR) {
            let mut depth = 1usize;
            let mut expect_param = true;
            while depth > 0 && !self.at_eof() {
                match self.peek() {
                    LPAR | LSQB | LBRACE => depth += 1,
                    RPAR | RSQB | RBRACE => depth -= 1,
                    COMMA if depth == 1 => expect_param = true,
                    Kind::IDENT if depth == 1 && expect_param => {
                        let param = span(self.peek_token());
                        self.b.nodes.names.push(param);
                        expect_param = false;
                    }
                    _ => {}
                }
                self.bump();
            }
        }
        let params = Run::new(first, self.b.nodes.names.len());
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
        let first = self.b.nodes.names.len();
        if self.eat_op(LPAR) {
            while !self.at_eof() {
                match self.peek() {
                    RPAR => {
                        self.bump();
                        break;
                    }
                    COMMA => {
                        self.bump();
                    }
                    _ => {
                        let base = self.dotted_name();
                        if base.start == base.end {
                            self.bump();
                        } else {
                            self.b.nodes.names.push(base);
                        }
                    }
                }
            }
        }
        let bases = Run::new(first, self.b.nodes.names.len());
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
        let value = if matches!(self.peek(), Kind::NEWLINE | Kind::EOF) {
            None
        } else {
            Some(self.expression())
        };
        self.finish_line(None);
        Stmt::Return { value, start }
    }

    fn block_stmt(&mut self, keyword: Word, start: u32) -> Stmt {
        let after = self.bump().end; // keyword
        let rest = &self.tokens[self.pos..];
        let tokens = &rest[..header_len(rest)];
        self.pos += tokens.len();
        self.eat_op(COLON);
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
    fn header(&mut self, keyword: Word, tokens: &'a [Lexeme]) -> Option<Header> {
        let text = self.text;
        let cut = |word: &str, i: &usize| {
            let t = tokens[*i];
            *i > 0
                && t.kind == Kind::IDENT
                && t.text(text) == word
                && tokens.get(i + 1).is_some_and(|t| !is_bracket(t.kind))
        };
        let (value, target) = match keyword {
            FOR => {
                let i = (0..tokens.len()).find(|i| cut("in", i))?;
                (&tokens[i + 1..], Some(&tokens[..i]))
            }
            WITH => match (0..tokens.len()).rev().find(|i| cut("as", i)) {
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
        Some(Header { value, target })
    }

    /// `tokens` read as a statement of their own: its expression when it
    /// is an expression statement, else their rendering as
    /// [`Expr::Other`]. The statement itself is not kept, nor is anything
    /// parsed for it outside that expression.
    fn header_expr(&mut self, tokens: &[Lexeme]) -> ExprId {
        let mark = self.mark();
        let mut p = Parser::new(self.text, tokens);
        p.in_header = true;
        p.b = std::mem::take(&mut self.b);
        p.skip_newlines_and_comments();
        let value = match p.at_eof() {
            false => {
                p.statement();
                match p.b.nodes.stmts[mark.stmts as usize] {
                    Stmt::Expr { value, .. } => Some(value),
                    _ => None,
                }
            }
            true => None,
        };
        self.b = p.b;
        match value {
            Some(value) => {
                self.b.nodes.stmts.truncate(mark.stmts as usize);
                value
            }
            None => self.other(mark, |p, text| {
                write_tokens(p.text, tokens, text);
                trim(text);
            }),
        }
    }

    /// Parses an indented body whose INDENT was just consumed, degrading
    /// to a flat [`Stmt::Other`] past [`MAX_BLOCK_DEPTH`] so hostile
    /// indentation cannot overflow the stack.
    fn indented_body(&mut self) -> Run {
        let first = self.b.nodes.stmts.len();
        if self.block_depth >= MAX_BLOCK_DEPTH {
            self.skip_block_as_other();
        } else {
            self.block_depth += 1;
            self.statements(true);
            self.block_depth -= 1;
        }
        Run::new(first, self.b.nodes.stmts.len())
    }

    /// Consumes tokens up to (and including) the DEDENT matching an
    /// already-consumed INDENT, reconstructing the text so the block stays
    /// visible to string-level matchers.
    fn skip_block_as_other(&mut self) {
        let start = self.peek_token().start;
        let text = self.rendered(self.mark(), |p, text| p.render_block(text));
        self.b.nodes.stmts.push(Stmt::Other { text, start });
    }

    /// Consumes the rest of an indented block, rendering its tokens.
    fn render_block(&mut self, text: &mut String) {
        let mut depth = 1usize;
        while !self.at_eof() {
            let token = self.peek_token();
            match token.kind {
                Kind::INDENT => depth += 1,
                Kind::DEDENT => {
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
                let empty = matches!(token.kind, Kind::INDENT | Kind::DEDENT);
                if !empty && !text.ends_with([' ', '\n']) && !text.is_empty() {
                    text.push(' ');
                }
                render_into(text, self.text, token);
            }
            self.bump();
        }
        trim(text);
    }

    /// Parses the body after a colon: either an indented block or an
    /// inline statement.
    fn suite(&mut self) -> Run {
        // Consume optional colon remaining (def/class paths).
        self.eat_op(COLON);
        let first = self.b.nodes.stmts.len();
        if self.peek() == Kind::NEWLINE {
            self.skip_newlines_and_comments();
            if self.peek() == Kind::INDENT {
                self.bump();
                return self.indented_body();
            }
        } else if !matches!(self.peek(), Kind::EOF | Kind::DEDENT) {
            // Inline suite: `if x: do()`
            self.statement();
        }
        Run::new(first, self.b.nodes.stmts.len())
    }

    /// Consumes the rest of the logical line and its NEWLINE, appending
    /// the tokens' text, space-separated, to `text` when one is given.
    fn finish_line(&mut self, mut text: Option<&mut String>) {
        loop {
            match self.peek() {
                Kind::NEWLINE | Kind::EOF | Kind::DEDENT => break,
                _ => {
                    let token = self.bump();
                    if let Some(text) = text.as_deref_mut() {
                        if !text.is_empty() {
                            text.push(' ');
                        }
                        render_into(text, self.text, token);
                    }
                }
            }
        }
        if self.peek() == Kind::NEWLINE {
            self.bump();
        }
    }

    /// The rest of the logical line as text (see [`Parser::finish_line`]).
    fn line_text(&mut self) -> Run {
        self.rendered(self.mark(), |p, text| p.finish_line(Some(text)))
    }

    // ---- expressions ----

    /// The binary operator the next token is, if it is one.
    fn binary_op(&self) -> Option<Word> {
        match self.peek() {
            Kind::IDENT => {
                let word = self.peek_token().text(self.text);
                Word::find(word, Word::KEYWORD_OPS)
            }
            kind => Word::find(kind.op_text()?, Word::GLYPHS),
        }
    }

    /// An operator spine. Each link nests the tree one level deeper, so it
    /// counts toward [`MAX_EXPR_DEPTH`] like a parenthesis; past the cap
    /// the whole expression degrades to one [`Expr::Other`] whose
    /// remaining operands are parsed one at a time and rendered flat.
    fn expression(&mut self) -> ExprId {
        let (mark, depth) = (self.mark(), self.expr_depth);
        let mut left = self.unary();
        while let Some(op) = self.binary_op() {
            if self.expr_depth >= MAX_EXPR_DEPTH {
                self.expr_depth = depth;
                left = self.other(mark, |p, text| {
                    p.write(left, text);
                    while let Some(op) = p.binary_op() {
                        p.bump();
                        text.push(' ');
                        text.push_str(op.as_str());
                        text.push(' ');
                        let at = p.mark();
                        let right = p.unary();
                        p.write(right, text);
                        p.b.nodes.truncate(at);
                    }
                });
                break;
            }
            self.bump();
            self.expr_depth += 1;
            let right = self.unary();
            left = self.push(Expr::BinOp { left, op, right });
        }
        self.expr_depth = depth;
        left
    }

    fn unary(&mut self) -> ExprId {
        // Every level of expression nesting (parentheses, call arguments,
        // unary chains) passes through here; past the cap, consume one
        // token and degrade so hostile nesting cannot overflow the stack.
        if self.expr_depth >= MAX_EXPR_DEPTH {
            return self.token_other();
        }
        self.expr_depth += 1;
        let expr =
            if matches!(self.peek(), MINUS | PLUS | TILDE) || self.peek_ident() == Some("not") {
                let mark = self.mark();
                let op = self.bump();
                let operand = self.unary();
                self.other(mark, |p, text| {
                    render_into(text, p.text, op);
                    text.push(' ');
                    p.write(operand, text);
                })
            } else {
                self.postfix()
            };
        self.expr_depth -= 1;
        expr
    }

    /// An atom and its chain of attributes, calls and subscripts. Each
    /// link counts toward [`MAX_EXPR_DEPTH`]; past the cap the chain
    /// degrades to one [`Expr::Other`] with the rest of it rendered flat.
    fn postfix(&mut self) -> ExprId {
        let (mark, depth) = (self.mark(), self.expr_depth);
        let mut expr = self.atom();
        while matches!(self.peek(), DOT | LPAR | LSQB) {
            if self.expr_depth >= MAX_EXPR_DEPTH {
                self.expr_depth = depth;
                expr = self.other(mark, |p, text| {
                    p.write(expr, text);
                    while let open @ (DOT | LPAR | LSQB) = p.peek() {
                        p.bump();
                        text.push_str(open.op_text().unwrap_or_default());
                        match open {
                            DOT => match p.peek_ident() {
                                Some(attr) => {
                                    text.push_str(attr);
                                    p.bump();
                                }
                                None => break,
                            },
                            LPAR => {
                                p.render_balanced(text, LPAR, RPAR);
                                text.push(')');
                            }
                            _ => {
                                p.render_balanced(text, LSQB, RSQB);
                                text.push(']');
                            }
                        }
                    }
                });
                break;
            }
            self.expr_depth += 1;
            match self.bump().kind {
                DOT => {
                    if self.peek() == Kind::IDENT {
                        let attr = span(self.bump());
                        expr = self.push(Expr::Attribute { value: expr, attr });
                    } else {
                        break;
                    }
                }
                LPAR => {
                    let args = self.call_args();
                    expr = self.push(Expr::Call { func: expr, args });
                }
                _ => {
                    expr = self.other(mark, |p, text| {
                        p.write(expr, text);
                        text.push('[');
                        p.render_balanced(text, LSQB, RSQB);
                        text.push(']');
                    });
                }
            }
        }
        self.expr_depth = depth;
        expr
    }

    /// The next token, consumed and kept as its rendering.
    fn token_other(&mut self) -> ExprId {
        self.other(self.mark(), |p, text| {
            let token = p.bump();
            render_into(text, p.text, token);
        })
    }

    /// Consumes tokens through the `close` that balances an already
    /// consumed `open`, appending all but that `close` to `text`.
    fn render_balanced(&mut self, text: &mut String, open: Kind, close: Kind) {
        let mut depth = 1;
        while !self.at_eof() {
            match self.peek() {
                x if x == open => depth += 1,
                x if x == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        break;
                    }
                }
                _ => {}
            }
            let token = self.bump();
            render_into(text, self.text, token);
        }
    }

    fn call_args(&mut self) -> Run {
        let base = self.b.args.len();
        loop {
            match self.peek() {
                RPAR => {
                    self.bump();
                    break;
                }
                Kind::EOF => break,
                COMMA => {
                    self.bump();
                }
                STAR | DOUBLE_STAR => {
                    // *args / **kwargs forwarding.
                    self.bump();
                    let value = self.expression();
                    self.b.args.push(Arg { name: None, value });
                }
                _ => {
                    // keyword argument? ident '=' (not '==')
                    let mut name = None;
                    if self.peek() == Kind::IDENT
                        && self.tokens.get(self.pos + 1).map(|t| t.kind) == Some(EQUAL)
                    {
                        name = Some(span(self.bump()));
                        self.bump(); // '='
                    }
                    let value = self.expression();
                    self.b.args.push(Arg { name, value });
                }
            }
        }
        // The arguments of the calls nested in these are in the array
        // already; these go in behind them, in one piece.
        let args = &mut self.b.nodes.args;
        let first = args.len();
        args.extend(self.b.args.drain(base..));
        Run::new(first, args.len())
    }

    /// A string token's value: its source span where the lexer read it
    /// verbatim, else decoded into the tree's owned text.
    fn literal(&mut self, token: Lexeme) -> Literal {
        if token.is_decoded() {
            let first = self.b.nodes.text.len();
            token.push_value(self.text, &mut self.b.nodes.text);
            return Literal::Owned(Run::new(first, self.b.nodes.text.len()));
        }
        let body = token.body_range();
        Literal::Source(Span::new(body.start, body.end))
    }

    fn atom(&mut self) -> ExprId {
        match self.peek() {
            Kind::IDENT => {
                let name = span(self.bump());
                self.push(Expr::Name(name))
            }
            Kind::NUMBER => {
                let number = span(self.bump());
                self.push(Expr::Num(number))
            }
            Kind::STR => {
                let token = self.bump();
                if self.peek() != Kind::STR {
                    let value = self.literal(token);
                    return self.push(Expr::Str(value));
                }
                // Adjacent string literal concatenation.
                let first = self.b.nodes.text.len();
                token.push_value(self.text, &mut self.b.nodes.text);
                while self.peek() == Kind::STR {
                    let more = self.bump();
                    more.push_value(self.text, &mut self.b.nodes.text);
                }
                let value = Run::new(first, self.b.nodes.text.len());
                self.push(Expr::Str(Literal::Owned(value)))
            }
            LPAR => {
                let mark = self.mark();
                self.bump();
                if self.eat_op(RPAR) {
                    return self.other_text("()");
                }
                let inner = self.expression();
                if self.peek() != COMMA {
                    self.eat_op(RPAR);
                    return inner;
                }
                // Tuple or generator — flatten to Other but keep the first
                // element visible for matching.
                let base = self.b.exprs.len();
                self.b.exprs.push(inner);
                while self.eat_op(COMMA) {
                    if self.peek() == RPAR {
                        break;
                    }
                    let element = self.expression();
                    self.b.exprs.push(element);
                }
                self.eat_op(RPAR);
                let tuple = self.other(mark, |p, text| {
                    text.push('(');
                    for (i, &element) in p.b.exprs[base..].iter().enumerate() {
                        if i > 0 {
                            text.push_str(", ");
                        }
                        p.write(element, text);
                    }
                    text.push(')');
                });
                self.b.exprs.truncate(base);
                tuple
            }
            open @ (LSQB | LBRACE) => {
                // Collection literal — consume balanced and render.
                let close = if open == LSQB { RSQB } else { RBRACE };
                let mark = self.mark();
                self.bump();
                self.other(mark, |p, text| {
                    text.push_str(open.op_text().unwrap_or_default());
                    p.render_balanced(text, open, close);
                    text.push_str(close.op_text().unwrap_or_default());
                })
            }
            _ => self.token_other(),
        }
    }
}

/// How many of `tokens` a block header spans: up to a `:` outside
/// brackets, a NEWLINE or the end.
fn header_len(tokens: &[Lexeme]) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate() {
        match t.kind {
            COLON if depth == 0 => return i,
            Kind::NEWLINE | Kind::EOF => return i,
            LPAR | LSQB | LBRACE => depth += 1,
            RPAR | RSQB | RBRACE => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    tokens.len()
}

/// Appends the rendering of the block header `tokens`, lexed from
/// `text`, begin with (see [`Stmt::to_text`]).
pub(crate) fn write_header(text: &str, tokens: &[Lexeme], out: &mut String) {
    write_tokens(text, &tokens[..header_len(tokens)], out);
}

/// Appends `tokens`, lexed from `text`, each bracket glued on and every
/// other token after one space.
fn write_tokens(text: &str, tokens: &[Lexeme], out: &mut String) {
    for &t in tokens {
        if !is_bracket(t.kind) {
            out.push(' ');
        }
        render_into(out, text, t);
    }
}

/// Trims `text`'s surrounding whitespace in place.
fn trim(text: &mut String) {
    text.truncate(text.trim_end().len());
    text.drain(..text.len() - text.trim_start().len());
}

/// Appends the source-like text of `token`, lexed from `text`, to `out`.
fn render_into(out: &mut String, text: &str, token: Lexeme) {
    match token.kind {
        Kind::IDENT | Kind::NUMBER | Kind::COMMENT => out.push_str(token.text(text)),
        Kind::STR => {
            out.push('\'');
            token.push_value(text, out);
            out.push('\'');
        }
        Kind::NEWLINE => out.push('\n'),
        Kind::INDENT | Kind::DEDENT | Kind::EOF => {}
        op => out.push_str(op.op_text().unwrap_or_default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Top-level statement `i` of `m`.
    fn top(m: &Module, i: usize) -> Stmt {
        *m.stmt(m.body[i])
    }

    /// The first statement of `src`, with the module that holds it.
    fn first(src: &str) -> (Module, Stmt) {
        let m = parse_module(src);
        let stmt = top(&m, 0);
        (m, stmt)
    }

    fn paths(m: &Module, names: Run) -> Vec<(String, Option<String>)> {
        let src = m.source();
        m.imports(names)
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
        let Stmt::Import { modules, .. } = top(&m, 1) else {
            panic!("{m:?}")
        };
        assert_eq!(paths(&m, modules), [plain("sys"), plain("json")]);
        let Stmt::Import { modules, .. } = top(&m, 2) else {
            panic!("{m:?}")
        };
        assert_eq!(paths(&m, modules), [plain("os.path")]);
    }

    #[test]
    fn parses_from_import() {
        let src = "from subprocess import Popen, PIPE\nfrom x import *\n";
        let m = parse_module(src);
        let Stmt::FromImport { module, names, .. } = top(&m, 0) else {
            panic!("{m:?}")
        };
        assert_eq!(module.text(src), "subprocess");
        assert_eq!(paths(&m, names), [plain("Popen"), plain("PIPE")]);
        let Stmt::FromImport { names, .. } = top(&m, 1) else {
            panic!("{m:?}")
        };
        assert_eq!(paths(&m, names), [plain("*")]);
    }

    #[test]
    fn import_aliases_are_retained() {
        let src = "import os as o, base64\nfrom subprocess import run as r\n";
        let m = parse_module(src);
        let Stmt::Import { modules, .. } = top(&m, 0) else {
            panic!("{m:?}")
        };
        let aliased = ("os".to_owned(), Some("o".to_owned()));
        assert_eq!(paths(&m, modules), [aliased, plain("base64")]);
        assert_eq!(m.imports(modules)[0].binding(src), "o");
        let Stmt::FromImport { module, names, .. } = top(&m, 1) else {
            panic!("{m:?}")
        };
        assert_eq!(module.text(src), "subprocess");
        assert_eq!(paths(&m, names), [("run".to_owned(), Some("r".to_owned()))]);
    }

    #[test]
    fn parses_function_and_class_defs() {
        let src = "def install(target, mode=f(a, b)):\n    os.system(target)\n";
        let (m, stmt) = first(src);
        let Stmt::FunctionDef {
            name, params, body, ..
        } = stmt
        else {
            panic!("{stmt:?}")
        };
        assert_eq!(name.text(src), "install");
        let params: Vec<&str> = m.names(params).iter().map(|p| p.text(src)).collect();
        assert_eq!(params, ["target", "mode"]);
        assert_eq!(m.suite(body).count(), 1);
        let src = "class Installer(setuptools.Command):\n    pass\n";
        let (m, stmt) = first(src);
        let Stmt::ClassDef { name, bases, .. } = stmt else {
            panic!("{stmt:?}")
        };
        assert_eq!(name.text(src), "Installer");
        assert_eq!(m.names(bases)[0].text(src), "setuptools.Command");
    }

    #[test]
    fn parses_calls_with_keyword_args_and_nesting() {
        let src = "subprocess.Popen(cmd, shell=True)\nexec(base64.b64decode('cGF5bG9hZA=='))\n";
        let m = parse_module(src);
        let call = |i: usize| match top(&m, i) {
            Stmt::Expr { value, .. } => *m.expr(value),
            other => panic!("unexpected {other:?}"),
        };
        let Expr::Call { func, args } = call(0) else {
            panic!("{m:?}")
        };
        assert_eq!(m.expr(func).func_path(&m), "subprocess.Popen");
        let args = m.args(args);
        assert_eq!(args.len(), 2);
        assert_eq!(args[1].name.map(|n| n.text(src)), Some("shell"));
        assert!(matches!(m.expr(args[1].value), Expr::Name(n) if n.text(src) == "True"));
        let Expr::Call { func, args } = call(1) else {
            panic!("{m:?}")
        };
        assert_eq!(m.expr(func).func_path(&m), "exec");
        let Expr::Call { func, args } = *m.expr(m.args(args)[0].value) else {
            panic!("{m:?}")
        };
        assert_eq!(m.expr(func).func_path(&m), "base64.b64decode");
        assert!(matches!(
            m.expr(m.args(args)[0].value),
            Expr::Str(Literal::Source(s)) if s.text(src) == "cGF5bG9hZA=="
        ));
    }

    #[test]
    fn parses_assignments() {
        let src = "url = 'http://evil.example'\nself.url = get()\na = b = get_payload()\nx += 1\n";
        let m = parse_module(src);
        let targets = |i: usize| match top(&m, i) {
            Stmt::Assign { targets, .. } => m
                .targets(targets)
                .map(|t| t.to_text(&m))
                .collect::<Vec<_>>(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(targets(0), ["url"]);
        assert_eq!(targets(1), ["self.url"]);
        assert_eq!(targets(2), ["a", "b"]);
        assert_eq!(targets(3), ["x"]);
        let Stmt::Assign { value, .. } = top(&m, 2) else {
            panic!("{m:?}")
        };
        assert_eq!(m.expr(value).func_path(&m), "get_payload");
    }

    #[test]
    fn parses_blocks_and_their_headers() {
        let src = "if platform.system() == 'Windows':\n    run()\ntry:\n    risky()\nexcept Exception:\n    pass\nif debug: print(x)\n";
        let m = parse_module(src);
        let keywords: Vec<&str> = m
            .top_level()
            .map(|s| match s {
                Stmt::Block { keyword, body, .. } => {
                    assert_eq!(m.suite(*body).count(), 1);
                    keyword.as_str()
                }
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(keywords, ["if", "try", "except", "if"]);
        assert_eq!(
            top(&m, 0).to_text(&m),
            "if platform . system() == 'Windows'"
        );
        assert_eq!(top(&m, 1).to_text(&m), "try");
        let Stmt::Block {
            parsed: Some(header),
            ..
        } = top(&m, 0)
        else {
            panic!("{m:?}")
        };
        assert_eq!(
            m.expr(header.value).to_text(&m),
            "platform.system() == 'Windows'"
        );
        assert!(matches!(top(&m, 1), Stmt::Block { parsed: None, .. }));
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
                (m.expr(h.value).to_text(&m), target)
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
            .top_level()
            .map(|s| match s {
                Stmt::Block { keyword, .. } => (keyword.as_str(), s.to_text(&m)),
                Stmt::FunctionDef { .. } => ("def", s.to_text(&m)),
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
        assert_eq!(m.line(&top(&m, 1)), 3);
    }

    #[test]
    fn parses_return() {
        let src = "def f():\n    return os.environ\n";
        let (m, stmt) = first(src);
        let Some(Stmt::Return { value: Some(v), .. }) = stmt.body().and_then(|b| m.suite(b).next())
        else {
            panic!("{m:?}")
        };
        assert_eq!(m.expr(*v).func_path(&m), "os.environ");
    }

    #[test]
    fn tolerates_garbage() {
        let m = parse_module("??? !!! ***\nx = 1\n");
        assert!(m.body.len() >= 2);
        assert!(matches!(
            m.top_level().last().expect("x=1"),
            Stmt::Assign { .. }
        ));
    }

    #[test]
    fn literals_borrow_the_source_unless_their_value_differs() {
        let src = "u = 'http://' 'evil.com'\nv = 'a\\nb'\nw = 'plain'\n";
        let m = parse_module(src);
        let value = |i: usize| match top(&m, i) {
            Stmt::Assign { value, .. } => match *m.expr(value) {
                Expr::Str(s) => s,
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        };
        for (i, text) in [(0, "http://evil.com"), (1, "a\nb")] {
            assert!(matches!(value(i), Literal::Owned(_)));
            assert_eq!(value(i).text(&m), text);
        }
        assert!(matches!(value(2), Literal::Source(s) if s.text(src) == "plain"));
    }

    #[test]
    fn string_percent_format_binop() {
        let (m, stmt) = first("cmd = 'curl %s' % url\n");
        let Stmt::Assign { value, .. } = stmt else {
            panic!("{stmt:?}")
        };
        assert!(matches!(m.expr(value), Expr::BinOp { op, .. } if op.as_str() == "%"));
    }

    #[test]
    fn multiline_call_parses() {
        let src = "setup(\n    name='evil',\n    version='0.0.0',\n)\n";
        let (m, stmt) = first(src);
        let Stmt::Expr { value, .. } = stmt else {
            panic!("{stmt:?}")
        };
        let Expr::Call { func, args } = *m.expr(value) else {
            panic!("{m:?}")
        };
        assert_eq!(m.expr(func).func_path(&m), "setup");
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn decorated_function_body_found() {
        let src = "@atexit.register\ndef boom():\n    leak()\n";
        let m = parse_module(src);
        assert!(m
            .top_level()
            .any(|s| matches!(s, Stmt::FunctionDef { name, .. } if name.text(src) == "boom")));
    }

    /// What a parse reads and then keeps only as text — a tuple's
    /// elements, a unary operand, a subscripted chain, a block header that
    /// is no expression statement — leaves no node behind: every
    /// expression is reachable from a statement exactly once, and every
    /// statement from the top level.
    #[test]
    fn rendered_nodes_leave_nothing_behind() {
        fn reach(m: &Module, expr: &Expr, n: &mut usize) {
            *n += 1;
            match *expr {
                Expr::Attribute { value, .. } => reach(m, m.expr(value), n),
                Expr::Call { func, args } => {
                    reach(m, m.expr(func), n);
                    for a in m.args(args) {
                        reach(m, m.expr(a.value), n);
                    }
                }
                Expr::BinOp { left, right, .. } => {
                    reach(m, m.expr(left), n);
                    reach(m, m.expr(right), n);
                }
                _ => {}
            }
        }
        fn walk(m: &Module, stmts: crate::Suite<'_>, (s, e): (&mut usize, &mut usize)) {
            for stmt in stmts {
                *s += 1;
                let roots: Vec<&Expr> = match *stmt {
                    Stmt::Assign { targets, value, .. } => {
                        m.targets(targets).chain([m.expr(value)]).collect()
                    }
                    Stmt::Expr { value, .. }
                    | Stmt::Return {
                        value: Some(value), ..
                    } => vec![m.expr(value)],
                    Stmt::Block {
                        parsed: Some(h), ..
                    } => vec![m.expr(h.value)],
                    _ => vec![],
                };
                for root in roots {
                    reach(m, root, e);
                }
                if let Some(body) = stmt.body() {
                    walk(m, m.suite(body), (&mut *s, &mut *e));
                }
            }
        }
        for src in [
            "x = (a, f(b), -c)\ny = -(-g(h))[k](l)\n",
            "if def f(a)[x:y]: pass\nfor q in (r, s): t(u)\nwith a.b[c] as d: e()\n",
            "while (n := 3) > 1:\n    z = {'k': v(w)}[0]\n",
            "a = b = c(d, *e, **f)\nclass K(m.n): pass\n",
        ] {
            let m = parse_module(src);
            let (mut stmts, mut exprs) = (0, 0);
            walk(&m, m.top_level(), (&mut stmts, &mut exprs));
            assert_eq!(stmts, m.statements().len(), "{src:?}");
            assert_eq!(exprs, m.expr_count(), "{src:?}");
        }
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
    fn operator_spines_and_postfix_chains_nest_no_deeper_than_the_cap() {
        fn depth(m: &Module, id: ExprId) -> usize {
            1 + match *m.expr(id) {
                Expr::Attribute { value, .. } => depth(m, value),
                Expr::Call { func, args } => m
                    .args(args)
                    .iter()
                    .map(|a| depth(m, a.value))
                    .fold(depth(m, func), usize::max),
                Expr::BinOp { left, right, .. } => depth(m, left).max(depth(m, right)),
                _ => 0,
            }
        }
        let n = 64_000;
        for link in [" + 'a'", ".b", "()", ".strip()", "[0]"] {
            for src in [
                format!("x = a{}\n", link.repeat(n)),
                format!("x = f(a{})\n", link.repeat(n)),
            ] {
                let m = parse_module(&src);
                let Stmt::Assign { value, .. } = top(&m, 0) else {
                    panic!("{link}");
                };
                assert!(depth(&m, value) <= MAX_EXPR_DEPTH + 2, "{link}");
                // The rest of the chain stays visible, as text.
                assert!(m.expr(value).to_text(&m).len() >= 2 * n, "{link}");
            }
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
        // The payload text survives somewhere in the degraded tree. Token-
        // level reconstruction spaces glyphs apart, so probe for the string
        // payload rather than the dotted call.
        assert!(
            m.statements()
                .iter()
                .any(|s| matches!(s, Stmt::Other { text, .. } if m.owned(*text).contains("deep"))),
            "payload text lost"
        );
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
