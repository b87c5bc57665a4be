//! Tolerant recursive-descent parser over the token stream.

use crate::ast::{Arg, Expr, ImportedName, Module, Stmt};
use crate::lexer::lex_spanned;
use crate::token::{SpannedToken, Token, TokenKind};

/// Parses Python `source` into a [`Module`]: [`parse_tokens`] over one
/// [`lex_spanned`] pass.
///
/// Never fails: statements the parser doesn't understand are preserved as
/// [`Stmt::Other`] nodes carrying reconstructed text, so downstream
/// matchers always see the full file.
pub fn parse_module(source: &str) -> Module {
    parse_tokens(&lex_spanned(source))
}

/// Parses an already-lexed token stream, in place, into a [`Module`].
///
/// This is the parser's front door: a caller that holds the tokens — the
/// artifact builder, over a whole file's stream or the relexed window of
/// an incremental splice — lends them and pays no second lex and no copy.
/// Only the text that ends up in the tree is cloned. Same tolerance
/// guarantees as [`parse_module`]. A stream that does not end in
/// [`TokenKind::Eof`] is read as if one followed at the last token's line
/// and column.
pub fn parse_tokens(tokens: &[SpannedToken<'_>]) -> Module {
    let (line, col) = tokens
        .last()
        .map_or((1, 0), |t| (t.token.line, t.token.col));
    let eof = Token {
        kind: TokenKind::Eof,
        line,
        col,
    };
    let mut p = Parser {
        tokens,
        eof: &eof,
        pos: 0,
        block_depth: 0,
        expr_depth: 0,
    };
    let body = p.statements(/*stop_at_dedent=*/ false);
    Module { body }
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

/// A cursor over a borrowed token slice. `peek`/`bump` hand out
/// references that live as long as the slice (not as long as `&self`),
/// so a caller can keep a token's text across later bumps and clone it
/// only when it lands in the tree.
struct Parser<'a, 'src> {
    tokens: &'a [SpannedToken<'src>],
    /// Sticky sentinel read once `pos` passes the slice.
    eof: &'a Token<'src>,
    pos: usize,
    block_depth: usize,
    expr_depth: usize,
}

impl<'a, 'src> Parser<'a, 'src> {
    fn peek(&self) -> &'a TokenKind<'src> {
        &self.peek_token().kind
    }

    fn peek_token(&self) -> &'a Token<'src> {
        self.tokens.get(self.pos).map_or(self.eof, |t| &t.token)
    }

    fn bump(&mut self) -> &'a Token<'src> {
        let t = self.peek_token();
        if self.pos < self.tokens.len() {
            self.pos += 1;
        }
        t
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
                    // nested statements are still visible.
                    self.bump();
                    let inner = self.indented_body();
                    body.push(Stmt::Block {
                        keyword: String::new(),
                        header: String::new(),
                        body: inner,
                        line: self.peek_token().line,
                    });
                }
                _ => body.push(self.statement()),
            }
        }
        body
    }

    fn statement(&mut self) -> Stmt {
        let line = self.peek_token().line;
        if let TokenKind::Ident(word) = self.peek() {
            match *word {
                "import" => return self.import_stmt(line),
                "from" => return self.parse_from_import(line),
                "def" => return self.def_stmt(line),
                "class" => return self.class_stmt(line),
                "return" => return self.return_stmt(line),
                "async" => {
                    // `async def` — consume the marker and recurse.
                    self.bump();
                    if matches!(self.peek(), TokenKind::Ident("def")) {
                        return self.def_stmt(line);
                    }
                    return self.block_stmt("async", line);
                }
                "if" | "elif" | "else" | "for" | "while" | "try" | "except" | "finally"
                | "with" => return self.block_stmt(word, line),
                "pass" | "break" | "continue" => {
                    self.bump();
                    self.consume_to_newline();
                    return Stmt::Other {
                        text: (*word).to_owned(),
                        line,
                    };
                }
                "raise" | "assert" | "del" | "global" | "nonlocal" | "yield" | "lambda" => {
                    let text = self.consume_to_newline();
                    return Stmt::Other { text, line };
                }
                _ => {}
            }
        }
        if matches!(self.peek(), TokenKind::Op("@")) {
            // Decorator — record as Other and continue.
            let text = self.consume_to_newline();
            return Stmt::Other { text, line };
        }
        // Expression or assignment.
        let expr = self.expression();
        if matches!(self.peek(), TokenKind::Op("=")) {
            let mut targets = vec![expr.to_text()];
            let mut value = None;
            while self.eat_op("=") {
                let next = self.expression();
                if matches!(self.peek(), TokenKind::Op("=")) {
                    targets.push(next.to_text());
                } else {
                    value = Some(next);
                    break;
                }
            }
            self.consume_to_newline();
            return Stmt::Assign {
                targets,
                value: value.unwrap_or(Expr::Other(String::new())),
                line,
            };
        }
        // Augmented assignment — keep RHS as the value.
        if matches!(self.peek(), TokenKind::Op(o) if o.ends_with('=') && o.len() >= 2 && !matches!(*o, "==" | "!=" | ">=" | "<="))
        {
            self.bump();
            let value = self.expression();
            self.consume_to_newline();
            return Stmt::Assign {
                targets: vec![expr.to_text()],
                value,
                line,
            };
        }
        self.consume_to_newline();
        Stmt::Expr { value: expr, line }
    }

    fn import_stmt(&mut self, line: usize) -> Stmt {
        self.bump(); // 'import'
        let mut modules = Vec::new();
        loop {
            let path = self.dotted_name();
            if path.is_empty() {
                break;
            }
            // `import x as y` — keep the alias: it is the name the rest
            // of the file binds, and taint alias resolution needs it.
            let mut alias = None;
            if matches!(self.peek(), TokenKind::Ident("as")) {
                self.bump();
                if let TokenKind::Ident(a) = self.peek() {
                    alias = Some((*a).to_owned());
                }
                self.bump();
            }
            modules.push(ImportedName { path, alias });
            if !self.eat_op(",") {
                break;
            }
        }
        self.consume_to_newline();
        Stmt::Import { modules, line }
    }

    fn parse_from_import(&mut self, line: usize) -> Stmt {
        self.bump(); // 'from'
        let module = self.dotted_name();
        let mut names = Vec::new();
        if matches!(self.peek(), TokenKind::Ident("import")) {
            self.bump();
            let parenthesized = self.eat_op("(");
            loop {
                match self.peek() {
                    TokenKind::Ident(w) => {
                        let name = (*w).to_owned();
                        self.bump();
                        let mut alias = None;
                        if matches!(self.peek(), TokenKind::Ident("as")) {
                            self.bump();
                            if let TokenKind::Ident(a) = self.peek() {
                                alias = Some((*a).to_owned());
                            }
                            self.bump();
                        }
                        names.push(ImportedName { path: name, alias });
                        if !self.eat_op(",") {
                            break;
                        }
                    }
                    TokenKind::Op("*") => {
                        self.bump();
                        names.push(ImportedName::plain("*"));
                        break;
                    }
                    _ => break,
                }
            }
            if parenthesized {
                self.eat_op(")");
            }
        }
        self.consume_to_newline();
        Stmt::FromImport {
            module,
            names,
            line,
        }
    }

    fn dotted_name(&mut self) -> String {
        let mut parts = Vec::new();
        while let TokenKind::Ident(w) = self.peek() {
            parts.push(*w);
            self.bump();
            if !self.eat_op(".") {
                break;
            }
        }
        parts.join(".")
    }

    fn def_stmt(&mut self, line: usize) -> Stmt {
        self.bump(); // 'def'
        let name = match self.peek() {
            TokenKind::Ident(w) => {
                self.bump();
                (*w).to_owned()
            }
            _ => String::new(),
        };
        let mut params = Vec::new();
        if self.eat_op("(") {
            let mut depth = 1usize;
            let mut expect_param = true;
            while depth > 0 && !self.at_eof() {
                match self.peek() {
                    TokenKind::Op("(" | "[" | "{") => {
                        depth += 1;
                        self.bump();
                    }
                    TokenKind::Op(")" | "]" | "}") => {
                        depth -= 1;
                        self.bump();
                    }
                    TokenKind::Op(",") if depth == 1 => {
                        expect_param = true;
                        self.bump();
                    }
                    TokenKind::Ident(w) if depth == 1 && expect_param => {
                        params.push((*w).to_owned());
                        expect_param = false;
                        self.bump();
                    }
                    _ => {
                        self.bump();
                    }
                }
            }
        }
        let body = self.suite();
        Stmt::FunctionDef {
            name,
            params,
            body,
            line,
        }
    }

    fn class_stmt(&mut self, line: usize) -> Stmt {
        self.bump(); // 'class'
        let name = match self.peek() {
            TokenKind::Ident(w) => {
                self.bump();
                (*w).to_owned()
            }
            _ => String::new(),
        };
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
                        if base.is_empty() {
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
            line,
        }
    }

    fn return_stmt(&mut self, line: usize) -> Stmt {
        self.bump(); // 'return'
        let value = if matches!(self.peek(), TokenKind::Newline | TokenKind::Eof) {
            None
        } else {
            Some(self.expression())
        };
        self.consume_to_newline();
        Stmt::Return { value, line }
    }

    fn block_stmt(&mut self, keyword: &str, line: usize) -> Stmt {
        self.bump(); // keyword
                     // Header: tokens until ':' at bracket depth zero.
        let mut header = keyword.to_owned();
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Op(":") if depth == 0 => {
                    self.bump();
                    break;
                }
                TokenKind::Op(o @ ("(" | "[" | "{")) => {
                    depth += 1;
                    header.push_str(o);
                    self.bump();
                }
                TokenKind::Op(o @ (")" | "]" | "}")) => {
                    depth = depth.saturating_sub(1);
                    header.push_str(o);
                    self.bump();
                }
                TokenKind::Newline | TokenKind::Eof => break,
                other => {
                    header.push(' ');
                    render_into(&mut header, other);
                    self.bump();
                }
            }
        }
        let body = self.suite();
        Stmt::Block {
            keyword: keyword.to_owned(),
            header,
            body,
            line,
        }
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
        let line = self.peek_token().line;
        let mut depth = 1usize;
        let mut text = String::new();
        while !self.at_eof() {
            match self.peek() {
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
                let piece = render(self.peek());
                if !piece.is_empty() && !text.ends_with([' ', '\n']) && !text.is_empty() {
                    text.push(' ');
                }
                text.push_str(&piece);
            }
            self.bump();
        }
        Stmt::Other {
            text: text.trim().to_owned(),
            line,
        }
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

    fn consume_to_newline(&mut self) -> String {
        let mut text = String::new();
        loop {
            match self.peek() {
                TokenKind::Newline | TokenKind::Eof | TokenKind::Dedent => break,
                other => {
                    if !text.is_empty() {
                        text.push(' ');
                    }
                    render_into(&mut text, other);
                    self.bump();
                }
            }
        }
        if matches!(self.peek(), TokenKind::Newline) {
            self.bump();
        }
        text
    }

    // ---- expressions ----

    fn expression(&mut self) -> Expr {
        let mut left = self.unary();
        loop {
            let op = match self.peek() {
                TokenKind::Op(
                    o @ ("+" | "-" | "*" | "/" | "%" | "//" | "**" | "|" | "&" | "^" | "==" | "!="
                    | "<" | ">" | "<=" | ">=" | ">>" | "<<"),
                ) => (*o).to_owned(),
                TokenKind::Ident(w @ ("and" | "or" | "in" | "is" | "not")) => (*w).to_owned(),
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
            return Expr::Other(render(&self.bump().kind));
        }
        self.expr_depth += 1;
        let expr = if matches!(self.peek(), TokenKind::Op("-" | "+" | "~"))
            || matches!(self.peek(), TokenKind::Ident("not"))
        {
            let op = render(self.peek());
            self.bump();
            let inner = self.unary();
            Expr::Other(format!("{op} {}", inner.to_text()))
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
                    if let TokenKind::Ident(attr) = self.peek() {
                        self.bump();
                        expr = Expr::Attribute {
                            value: Box::new(expr),
                            attr: (*attr).to_owned(),
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
                    let mut depth = 1;
                    let mut text = String::new();
                    while depth > 0 && !self.at_eof() {
                        match self.peek() {
                            TokenKind::Op("[") => depth += 1,
                            TokenKind::Op("]") => {
                                depth -= 1;
                                if depth == 0 {
                                    self.bump();
                                    break;
                                }
                            }
                            _ => {}
                        }
                        if depth > 0 {
                            render_into(&mut text, self.peek());
                            self.bump();
                        }
                    }
                    expr = Expr::Other(format!("{}[{}]", expr.to_text(), text));
                }
                _ => break,
            }
        }
        expr
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
                    if let TokenKind::Ident(name) = self.peek() {
                        if matches!(
                            self.tokens.get(self.pos + 1).map(SpannedToken::kind),
                            Some(TokenKind::Op("="))
                        ) {
                            self.bump(); // name
                            self.bump(); // '='
                            let value = self.expression();
                            args.push(Arg {
                                name: Some((*name).to_owned()),
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

    fn atom(&mut self) -> Expr {
        match self.peek() {
            TokenKind::Ident(w) => {
                self.bump();
                Expr::Name((*w).to_owned())
            }
            TokenKind::Number(n) => {
                self.bump();
                Expr::Num((*n).to_owned())
            }
            TokenKind::Str { value, .. } => {
                self.bump();
                // Adjacent string literal concatenation.
                let mut v = value.to_string();
                while let TokenKind::Str { value: more, .. } = self.peek() {
                    v.push_str(more);
                    self.bump();
                }
                Expr::Str(v)
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
                    let mut parts = vec![inner.to_text()];
                    while self.eat_op(",") {
                        if matches!(self.peek(), TokenKind::Op(")")) {
                            break;
                        }
                        parts.push(self.expression().to_text());
                    }
                    self.eat_op(")");
                    return Expr::Other(format!("({})", parts.join(", ")));
                }
                self.eat_op(")");
                inner
            }
            TokenKind::Op(open @ ("[" | "{")) => {
                // Collection literal — consume balanced and render.
                let close = if *open == "[" { "]" } else { "}" };
                self.bump();
                let mut depth = 1;
                let mut text = String::new();
                while depth > 0 && !self.at_eof() {
                    match self.peek() {
                        TokenKind::Op(x) if x == open => depth += 1,
                        TokenKind::Op(x) if *x == close => {
                            depth -= 1;
                            if depth == 0 {
                                self.bump();
                                break;
                            }
                        }
                        _ => {}
                    }
                    if depth > 0 {
                        render_into(&mut text, self.peek());
                        self.bump();
                    }
                }
                Expr::Other(format!("{open}{text}{close}"))
            }
            other => {
                self.bump();
                Expr::Other(render(other))
            }
        }
    }
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

fn render(kind: &TokenKind<'_>) -> String {
    let mut out = String::new();
    render_into(&mut out, kind);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_imports() {
        let m = parse_module("import os\nimport sys, json\n");
        assert_eq!(m.body.len(), 2);
        match &m.body[1] {
            Stmt::Import { modules, .. } => {
                assert_eq!(
                    modules,
                    &vec![ImportedName::plain("sys"), ImportedName::plain("json")]
                )
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_dotted_import() {
        let m = parse_module("import os.path\n");
        match &m.body[0] {
            Stmt::Import { modules, .. } => assert_eq!(modules[0], ImportedName::plain("os.path")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_from_import() {
        let m = parse_module("from subprocess import Popen, PIPE\n");
        match &m.body[0] {
            Stmt::FromImport { module, names, .. } => {
                assert_eq!(module, "subprocess");
                assert_eq!(
                    names,
                    &vec![ImportedName::plain("Popen"), ImportedName::plain("PIPE")]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn import_aliases_are_retained() {
        let m = parse_module("import os as o, base64\nfrom subprocess import run as r\n");
        match &m.body[0] {
            Stmt::Import { modules, .. } => {
                assert_eq!(
                    modules,
                    &vec![
                        ImportedName::aliased("os", "o"),
                        ImportedName::plain("base64")
                    ]
                );
                assert_eq!(modules[0].binding(), "o");
            }
            other => panic!("unexpected {other:?}"),
        }
        match &m.body[1] {
            Stmt::FromImport { module, names, .. } => {
                assert_eq!(module, "subprocess");
                assert_eq!(names, &vec![ImportedName::aliased("run", "r")]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_function_def() {
        let src = "def install(target, mode):\n    os.system(target)\n";
        let m = parse_module(src);
        match &m.body[0] {
            Stmt::FunctionDef {
                name, params, body, ..
            } => {
                assert_eq!(name, "install");
                assert_eq!(params, &vec!["target".to_owned(), "mode".to_owned()]);
                assert_eq!(body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_class_def() {
        let src = "class Installer(setuptools.Command):\n    pass\n";
        let m = parse_module(src);
        match &m.body[0] {
            Stmt::ClassDef { name, bases, .. } => {
                assert_eq!(name, "Installer");
                assert_eq!(bases[0], "setuptools.Command");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_call_with_keyword_args() {
        let m = parse_module("subprocess.Popen(cmd, shell=True)\n");
        match &m.body[0] {
            Stmt::Expr { value, .. } => match value {
                Expr::Call { func, args } => {
                    assert_eq!(func.func_path(), "subprocess.Popen");
                    assert_eq!(args.len(), 2);
                    assert_eq!(args[1].name.as_deref(), Some("shell"));
                    assert_eq!(args[1].value, Expr::Name("True".into()));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_nested_calls() {
        let m = parse_module("exec(base64.b64decode('cGF5bG9hZA=='))\n");
        match &m.body[0] {
            Stmt::Expr { value, .. } => match value {
                Expr::Call { func, args } => {
                    assert_eq!(func.func_path(), "exec");
                    match &args[0].value {
                        Expr::Call { func, args } => {
                            assert_eq!(func.func_path(), "base64.b64decode");
                            assert_eq!(args[0].value, Expr::Str("cGF5bG9hZA==".into()));
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_assignment() {
        let m = parse_module("url = 'http://evil.example'\n");
        match &m.body[0] {
            Stmt::Assign { targets, value, .. } => {
                assert_eq!(targets[0], "url");
                assert_eq!(value, &Expr::Str("http://evil.example".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_attribute_assignment_target() {
        let m = parse_module("self.url = get()\n");
        match &m.body[0] {
            Stmt::Assign { targets, .. } => assert_eq!(targets[0], "self.url"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_if_block() {
        let src = "if platform.system() == 'Windows':\n    run()\n";
        let m = parse_module(src);
        match &m.body[0] {
            Stmt::Block { keyword, body, .. } => {
                assert_eq!(keyword, "if");
                assert_eq!(body.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_try_except() {
        let src = "try:\n    risky()\nexcept Exception:\n    pass\n";
        let m = parse_module(src);
        assert_eq!(m.body.len(), 2);
        assert!(matches!(&m.body[0], Stmt::Block { keyword, .. } if keyword == "try"));
        assert!(matches!(&m.body[1], Stmt::Block { keyword, .. } if keyword == "except"));
    }

    #[test]
    fn parses_inline_suite() {
        let m = parse_module("if debug: print(x)\n");
        match &m.body[0] {
            Stmt::Block { body, .. } => assert_eq!(body.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_return() {
        let m = parse_module("def f():\n    return os.environ\n");
        match &m.body[0] {
            Stmt::FunctionDef { body, .. } => match &body[0] {
                Stmt::Return { value: Some(v), .. } => {
                    assert_eq!(v.func_path(), "os.environ");
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tolerates_garbage() {
        let m = parse_module("??? !!! ***\nx = 1\n");
        assert!(m.body.len() >= 2);
        assert!(matches!(m.body.last().expect("x=1"), Stmt::Assign { .. }));
    }

    #[test]
    fn adjacent_string_concatenation() {
        let m = parse_module("u = 'http://' 'evil.com'\n");
        match &m.body[0] {
            Stmt::Assign { value, .. } => {
                assert_eq!(value, &Expr::Str("http://evil.com".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn string_percent_format_binop() {
        let m = parse_module("cmd = 'curl %s' % url\n");
        match &m.body[0] {
            Stmt::Assign { value, .. } => {
                assert!(matches!(value, Expr::BinOp { op, .. } if op == "%"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multiline_call_parses() {
        let src = "setup(\n    name='evil',\n    version='0.0.0',\n)\n";
        let m = parse_module(src);
        match &m.body[0] {
            Stmt::Expr { value, .. } => match value {
                Expr::Call { func, args } => {
                    assert_eq!(func.func_path(), "setup");
                    assert_eq!(args.len(), 2);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn decorated_function_body_found() {
        let src = "@atexit.register\ndef boom():\n    leak()\n";
        let m = parse_module(src);
        assert!(m
            .body
            .iter()
            .any(|s| matches!(s, Stmt::FunctionDef { name, .. } if name == "boom")));
    }

    #[test]
    fn chained_assignment_targets() {
        let m = parse_module("a = b = get_payload()\n");
        match &m.body[0] {
            Stmt::Assign { targets, value, .. } => {
                assert_eq!(targets.len(), 2);
                assert_eq!(value.func_path(), "get_payload");
            }
            other => panic!("unexpected {other:?}"),
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
    fn pathological_unary_chain_does_not_overflow_stack() {
        let src = format!("x = {}1\n", "-".repeat(100_000));
        let m = parse_module(&src);
        assert!(!m.body.is_empty());
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
                Stmt::Expr { value, .. } => value.to_text().contains(needle),
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
