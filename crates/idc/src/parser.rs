//! Recursive-descent parser for the Id subset.
//!
//! ```text
//! program := def+
//! def     := "def" ident "(" params ")" "=" expr ";"
//! expr    := "if" expr "then" expr "else" expr
//!          | "{" (binding ";")* expr "}"
//!          | loop-or-paren
//!          | or
//! loop    := "(" "initial" binds [for] [while] "do" newbinds "return" expr ")"
//! binding := ident "=" expr | ident "[" expr "]" "<-" expr
//! or      := and ("or" and)*
//! and     := cmp ("and" cmp)*
//! cmp     := add (("=="|"<>"|"<"|"<="|">"|">=") add)?
//! add     := mul (("+"|"-") mul)*
//! mul     := unary (("*"|"/") unary)*
//! unary   := "-" unary | "not" unary | postfix
//! postfix := atom ("[" expr "]")*
//! atom    := number | "true" | "false" | ident ["(" args ")"]
//!          | "array" "(" expr ")" | "(" expr ")" | "{"-block
//! ```
//!
//! The five binary levels, `or` to `mul`, are parsed in one function
//! by precedence climbing. Input nested past [`MAX_NESTING`] or
//! [`MAX_DEPTH`] is a parse error, not a stack overflow.

use crate::ast::{BinOp, Binding, Def, Expr, ForClause, SourceProgram, UnOp};
use crate::lexer::{lex, Token, TokenKind};
use crate::CompileError;

/// How deeply expressions may nest, in levels. A definition's body is
/// level 1, and every expression inside another — in a parenthesis,
/// block, call, loop, `if` or index, or under a unary operator — is one
/// level deeper. The parser recurses once per level, with up to about
/// 18 KiB of stack each (a loop) in a debug build.
pub(crate) const MAX_NESTING: u32 = 64;

/// How deep the syntax tree may grow, in levels: the nesting, plus one
/// level for each operator of a left-deep chain (`x + x + …`,
/// `a[i][j]…`) above the chain's deepest operand. The code generator and
/// the tree's destructor recurse once per level.
///
/// Input at both limits at once compiles through `O2` on a 1.5 MiB
/// thread in a debug build, so a 2 MiB test thread has room to spare.
pub(crate) const MAX_DEPTH: u32 = 256;

/// The precedence of the comparisons, which do not associate.
const CMP: u8 = 2;

/// A binary operator's precedence (tighter binds higher) and meaning.
fn binop(tok: &TokenKind) -> Option<(u8, BinOp)> {
    Some(match tok {
        TokenKind::Or => (0, BinOp::Or),
        TokenKind::And => (1, BinOp::And),
        TokenKind::EqEq => (CMP, BinOp::Eq),
        TokenKind::Ne => (CMP, BinOp::Ne),
        TokenKind::Lt => (CMP, BinOp::Lt),
        TokenKind::Le => (CMP, BinOp::Le),
        TokenKind::Gt => (CMP, BinOp::Gt),
        TokenKind::Ge => (CMP, BinOp::Ge),
        TokenKind::Plus => (3, BinOp::Add),
        TokenKind::Minus => (3, BinOp::Sub),
        TokenKind::Star => (4, BinOp::Mul),
        TokenKind::Slash => (4, BinOp::Div),
        _ => return None,
    })
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// The level of the expression being parsed (see [`MAX_NESTING`]).
    depth: u32,
    /// The deepest tree level reached inside the current chain operand,
    /// counting the operators of the chains folded inside it (see
    /// [`MAX_DEPTH`]).
    reach: u32,
}

type PResult<T> = Result<T, CompileError>;

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        let i = (self.pos + 1).min(self.toks.len() - 1);
        &self.toks[i].kind
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(CompileError::Parse {
            line: self.line(),
            msg: msg.into(),
        })
    }

    fn too_deep<T>(&self, limit: u32) -> PResult<T> {
        self.err(format!("expression nested deeper than {limit} levels"))
    }

    /// Runs `f` one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> PResult<Expr>) -> PResult<Expr> {
        if self.depth == MAX_NESTING {
            return self.too_deep(MAX_NESTING);
        }
        self.depth += 1;
        self.reach = self.reach.max(self.depth);
        let e = f(self);
        self.depth -= 1;
        e
    }

    /// Counts the `links`-th operator of a left-deep chain: its node
    /// sits `links` levels above the chain's deepest operand.
    fn link(&self, links: u32) -> PResult<()> {
        if self.reach + links > MAX_DEPTH {
            self.too_deep(MAX_DEPTH)
        } else {
            Ok(())
        }
    }

    fn expect(&mut self, kind: TokenKind, what: &str) -> PResult<()> {
        if *self.peek() == kind {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {what}, found {:?}", self.peek()))
        }
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if *self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self, what: &str) -> PResult<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected {what}, found {other:?}")),
        }
    }

    fn program(&mut self) -> PResult<SourceProgram> {
        let mut defs = Vec::new();
        while *self.peek() != TokenKind::Eof {
            defs.push(self.def()?);
        }
        if defs.is_empty() {
            return self.err("empty program: expected at least one `def`");
        }
        Ok(SourceProgram { defs })
    }

    fn def(&mut self) -> PResult<Def> {
        self.expect(TokenKind::Def, "`def`")?;
        let name = self.ident("function name")?;
        self.expect(TokenKind::LParen, "`(`")?;
        let mut params = Vec::new();
        if *self.peek() != TokenKind::RParen {
            loop {
                params.push(self.ident("parameter name")?);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen, "`)`")?;
        self.expect(TokenKind::Eq, "`=`")?;
        let body = self.expr()?;
        self.expect(TokenKind::Semi, "`;` after definition")?;
        Ok(Def { name, params, body })
    }

    fn expr(&mut self) -> PResult<Expr> {
        self.nested(Self::if_or_binary)
    }

    fn if_or_binary(&mut self) -> PResult<Expr> {
        match self.peek() {
            TokenKind::If => {
                self.bump();
                let c = self.expr()?;
                self.expect(TokenKind::Then, "`then`")?;
                let t = self.expr()?;
                self.expect(TokenKind::Else, "`else`")?;
                let e = self.expr()?;
                Ok(Expr::If(Box::new(c), Box::new(t), Box::new(e)))
            }
            _ => self.binary(0),
        }
    }

    fn block(&mut self) -> PResult<Expr> {
        // `{` already consumed by the caller.
        let mut bindings = Vec::new();
        loop {
            // A binding is `ident = …` or `ident [ … ] <- …`; anything
            // else is the block's result expression.
            let is_bind = matches!(self.peek(), TokenKind::Ident(_))
                && matches!(self.peek2(), TokenKind::Eq | TokenKind::LBracket);
            if is_bind {
                let save = self.pos;
                let name = self.ident("binding name")?;
                if self.eat(TokenKind::Eq) {
                    let e = self.expr()?;
                    self.expect(TokenKind::Semi, "`;` after binding")?;
                    bindings.push(Binding::Bind(name, e));
                    continue;
                }
                if self.eat(TokenKind::LBracket) {
                    let idx = self.expr()?;
                    self.expect(TokenKind::RBracket, "`]`")?;
                    if self.eat(TokenKind::Arrow) {
                        let value = self.expr()?;
                        self.expect(TokenKind::Semi, "`;` after store")?;
                        bindings.push(Binding::Store {
                            target: name,
                            idx,
                            value,
                        });
                        continue;
                    }
                }
                // It was actually an expression like `a[i] + 1`: rewind.
                self.pos = save;
            }
            let result = self.expr()?;
            self.expect(TokenKind::RBrace, "`}` closing the block")?;
            return Ok(Expr::Let(bindings, Box::new(result)));
        }
    }

    fn loop_expr(&mut self) -> PResult<Expr> {
        // `(` and `initial` already consumed.
        let mut inits = Vec::new();
        loop {
            let name = self.ident("loop variable")?;
            self.expect(TokenKind::Eq, "`=`")?;
            let e = self.expr()?;
            inits.push((name, e));
            if !self.eat(TokenKind::Semi) {
                break;
            }
        }
        let for_clause = if self.eat(TokenKind::For) {
            let var = self.ident("induction variable")?;
            self.expect(TokenKind::From, "`from`")?;
            let from = self.expr()?;
            self.expect(TokenKind::To, "`to`")?;
            let to = self.expr()?;
            let by = if self.eat(TokenKind::By) {
                Some(self.expr()?)
            } else {
                None
            };
            Some(Box::new(ForClause { var, from, to, by }))
        } else {
            None
        };
        let while_clause = if self.eat(TokenKind::While) {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        if for_clause.is_none() && while_clause.is_none() {
            return self.err("loop needs a `for` or `while` clause");
        }
        self.expect(TokenKind::Do, "`do`")?;
        let mut body = Vec::new();
        loop {
            if self.eat(TokenKind::New) {
                let name = self.ident("loop variable")?;
                self.expect(TokenKind::Eq, "`=`")?;
                let e = self.expr()?;
                body.push(Binding::Bind(name, e));
            } else if matches!(self.peek(), TokenKind::Ident(_))
                && *self.peek2() == TokenKind::LBracket
            {
                let name = self.ident("array name")?;
                self.expect(TokenKind::LBracket, "`[`")?;
                let idx = self.expr()?;
                self.expect(TokenKind::RBracket, "`]`")?;
                self.expect(TokenKind::Arrow, "`<-`")?;
                let value = self.expr()?;
                body.push(Binding::Store {
                    target: name,
                    idx,
                    value,
                });
            } else {
                return self.err("expected `new` binding or array store in loop body");
            }
            if !self.eat(TokenKind::Semi) {
                break;
            }
        }
        self.expect(TokenKind::Return, "`return`")?;
        let ret = self.expr()?;
        self.expect(TokenKind::RParen, "`)` closing the loop")?;
        Ok(Expr::Loop {
            inits,
            for_clause,
            while_clause,
            body,
            ret: Box::new(ret),
        })
    }

    /// Every operator binding at least as tightly as `min`, folded left
    /// by precedence climbing. Comparisons do not associate: one never
    /// takes another as its left operand, even through a looser operator
    /// whose right operand stopped at it (`a and b < c < d`), so the
    /// second one ends the expression.
    fn binary(&mut self, min: u8) -> PResult<Expr> {
        let outer = std::mem::replace(&mut self.reach, self.depth);
        let mut lhs = self.unary_expr()?;
        let mut links = 0;
        let mut last = None;
        while let Some((prec, op)) = binop(self.peek()) {
            if prec < min || prec == CMP && last.is_some_and(|l| l <= CMP) {
                break;
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            links += 1;
            self.link(links)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
            last = Some(prec);
        }
        self.reach = outer.max(self.reach + links);
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        let op = if self.eat(TokenKind::Minus) {
            UnOp::Neg
        } else if self.eat(TokenKind::Not) {
            UnOp::Not
        } else {
            return self.postfix_expr();
        };
        Ok(Expr::Unary(op, Box::new(self.nested(Self::unary_expr)?)))
    }

    fn postfix_expr(&mut self) -> PResult<Expr> {
        let outer = std::mem::replace(&mut self.reach, self.depth);
        let mut e = self.atom()?;
        let mut links = 0;
        while self.eat(TokenKind::LBracket) {
            let idx = self.expr()?;
            self.expect(TokenKind::RBracket, "`]`")?;
            links += 1;
            self.link(links)?;
            e = Expr::Select(Box::new(e), Box::new(idx));
        }
        self.reach = outer.max(self.reach + links);
        Ok(e)
    }

    fn atom(&mut self) -> PResult<Expr> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::Float(v))
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            TokenKind::Array => {
                self.bump();
                self.expect(TokenKind::LParen, "`(`")?;
                let n = self.expr()?;
                self.expect(TokenKind::RParen, "`)`")?;
                Ok(Expr::Array(Box::new(n)))
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat(TokenKind::LParen) {
                    let mut args = Vec::new();
                    if *self.peek() != TokenKind::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(TokenKind::RParen, "`)`")?;
                    Ok(Expr::Call(name, args))
                } else {
                    Ok(Expr::Var(name))
                }
            }
            TokenKind::LBrace => {
                self.bump();
                self.block()
            }
            TokenKind::LParen => {
                self.bump();
                if self.eat(TokenKind::Initial) {
                    self.loop_expr()
                } else {
                    let e = self.expr()?;
                    self.expect(TokenKind::RParen, "`)`")?;
                    Ok(e)
                }
            }
            TokenKind::If => self.expr(),
            other => self.err(format!("unexpected token {other:?}")),
        }
    }
}

/// Parses Id source into an AST.
///
/// # Errors
///
/// Returns a [`CompileError`] with line information.
pub fn parse(src: &str) -> Result<SourceProgram, CompileError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
        reach: 0,
    };
    p.program()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_def() {
        let sp = parse("def main(x) = x + 1;").unwrap();
        assert_eq!(sp.defs.len(), 1);
        assert_eq!(sp.defs[0].params, vec!["x"]);
        assert!(matches!(sp.defs[0].body, Expr::Binary(BinOp::Add, _, _)));
    }

    #[test]
    fn precedence_mul_over_add_over_cmp() {
        let sp = parse("def main(x) = x + 2 * x < 9;").unwrap();
        let Expr::Binary(BinOp::Lt, lhs, _) = &sp.defs[0].body else {
            panic!("expected <");
        };
        let Expr::Binary(BinOp::Add, _, rhs) = lhs.as_ref() else {
            panic!("expected + under <");
        };
        assert!(matches!(rhs.as_ref(), Expr::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn comparisons_do_not_associate() {
        let sp = parse("def main(x) = x < 1 and 2 <= x + 1 or not x == 3;").unwrap();
        let Expr::Binary(BinOp::Or, lhs, rhs) = &sp.defs[0].body else {
            panic!("expected or at the top");
        };
        assert!(matches!(lhs.as_ref(), Expr::Binary(BinOp::And, _, _)));
        assert!(matches!(rhs.as_ref(), Expr::Binary(BinOp::Eq, _, _)));
        for src in [
            "def main(x) = x < 1 < 2;",
            "def main(x) = x == 1 <> 2;",
            "def main(x) = x and 1 < 2 < 3;",
        ] {
            assert!(parse(src).is_err(), "{src}");
        }
    }

    #[test]
    fn parses_paper_loop() {
        let src = "def main(a, n, h) =
            (initial s = a; x = a + h
             for i from 1 to n - 1 do
               new x = x + h;
               new s = s + x
             return s);";
        let sp = parse(src).unwrap();
        let Expr::Loop {
            inits,
            for_clause,
            body,
            ..
        } = &sp.defs[0].body
        else {
            panic!("expected loop");
        };
        assert_eq!(inits.len(), 2);
        assert_eq!(for_clause.as_ref().unwrap().var, "i");
        assert_eq!(body.len(), 2);
    }

    #[test]
    fn parses_while_loop() {
        let src = "def main(n) =
            (initial x = n while x > 1 do new x = x / 2 return x);";
        let sp = parse(src).unwrap();
        assert!(matches!(
            sp.defs[0].body,
            Expr::Loop {
                while_clause: Some(_),
                for_clause: None,
                ..
            }
        ));
    }

    #[test]
    fn parses_blocks_and_stores() {
        let src = "def main(n) =
            { a = array(n);
              a[0] <- 42;
              a[0] };";
        let sp = parse(src).unwrap();
        let Expr::Let(binds, result) = &sp.defs[0].body else {
            panic!("expected block");
        };
        assert_eq!(binds.len(), 2);
        assert!(matches!(binds[1], Binding::Store { .. }));
        assert!(matches!(result.as_ref(), Expr::Select(_, _)));
    }

    #[test]
    fn parses_if_and_calls() {
        let src = "def fib(n) = if n < 2 then n else fib(n - 1) + fib(n - 2);
                   def main(k) = fib(k);";
        let sp = parse(src).unwrap();
        assert_eq!(sp.defs.len(), 2);
        assert!(matches!(sp.defs[0].body, Expr::If(_, _, _)));
        assert!(matches!(sp.defs[1].body, Expr::Call(_, _)));
    }

    #[test]
    fn error_reporting_has_lines() {
        let err = parse("def main(x) =\n  x +;").unwrap_err();
        match err {
            CompileError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("wrong error {other}"),
        }
        assert!(parse("").is_err());
        assert!(parse("def f(x) = (initial s = 1 do new s = 2 return s);").is_err());
    }

    /// Runs `f` on a 2 MiB stack, the size of a test thread.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .expect("spawn")
            .join()
            .expect("no stack overflow")
    }

    /// `def main(x) = …;` reaching `levels` deep in each shape a limit
    /// counts, the limit it counts against, and the value for `x = 3`.
    fn shapes(levels: usize) -> Vec<(&'static str, u32, String, i64)> {
        let n = levels - 1; // the body itself is level 1
        let def = |body: String| format!("def f(y) = y;\ndef main(x) = {body};");
        let wrap = |open: &str, close: &str| def(format!("{}x{}", open.repeat(n), close.repeat(n)));
        vec![
            ("parentheses", MAX_NESTING, wrap("(", ")"), 3),
            ("blocks", MAX_NESTING, wrap("{ ", " }"), 3),
            ("calls", MAX_NESTING, wrap("f(", ")"), 3),
            (
                "loops",
                MAX_NESTING,
                wrap("(initial s = ", " for i from 1 to 1 do new s = s return s)"),
                3,
            ),
            ("ifs", MAX_NESTING, wrap("if x > 0 then ", " else 0"), 3),
            (
                "unary",
                MAX_NESTING,
                wrap("- ", ""),
                if n.is_multiple_of(2) { 3 } else { -3 },
            ),
            (
                "chain",
                MAX_DEPTH,
                def(format!("x{}", " + x".repeat(n))),
                3 * levels as i64,
            ),
            (
                "selects",
                MAX_DEPTH,
                // The block's result is level 2 and its indices level 3;
                // each further link of the index chain adds one more.
                def(format!(
                    "{{ a = array(1); a[0] <- 3; a[0]{} }}",
                    "[0]".repeat(n - 3)
                )),
                3,
            ),
        ]
    }

    /// Each shape exactly at its limit, and loops nested to the nesting
    /// limit around a chain that takes the tree to the depth limit.
    fn at_the_limits() -> impl Iterator<Item = (&'static str, String, i64)> {
        let n = MAX_NESTING as usize - 1;
        let links = (MAX_DEPTH - MAX_NESTING) as usize;
        let both = format!(
            "def main(x) = {}x{}{};",
            "(initial s = ".repeat(n),
            " + x".repeat(links),
            " for i from 1 to 1 do new s = s return s)".repeat(n)
        );
        [MAX_NESTING, MAX_DEPTH]
            .into_iter()
            .flat_map(|limit| {
                shapes(limit as usize)
                    .into_iter()
                    .filter(move |s| s.1 == limit)
                    .map(|(shape, _, src, want)| (shape, src, want))
            })
            .chain([("both", both, 3 * (links as i64 + 1))])
    }

    #[test]
    fn nesting_at_the_limits_compiles_through_o2() {
        on_small_stack(|| {
            for (shape, src, want) in at_the_limits() {
                drop(parse(&src).unwrap_or_else(|e| panic!("{shape}: {e}")));
                let p = crate::compile_optimized(&src, crate::OptLevel::O2)
                    .unwrap_or_else(|e| panic!("{shape}: {e}"));
                if shape != "selects" {
                    let r = ttda_core::Emulator::new(&p)
                        .run(&[ttda_core::Value::Int(3)])
                        .unwrap_or_else(|e| panic!("{shape}: {e}"));
                    assert_eq!(r.outputs[&0], ttda_core::Value::Int(want), "{shape}");
                }
            }
        });
    }

    #[test]
    fn nesting_past_the_limits_is_a_parse_error() {
        on_small_stack(|| {
            let mut inputs: Vec<_> = [MAX_NESTING, MAX_DEPTH]
                .into_iter()
                .flat_map(|limit| {
                    shapes(limit as usize + 1)
                        .into_iter()
                        .filter(move |s| s.1 == limit)
                        .map(|(shape, limit, src, _)| (shape, limit, src))
                })
                .collect();
            // The two inputs that used to abort the process.
            let deep = 200_000;
            inputs.push((
                "200,000 parentheses",
                MAX_NESTING,
                format!("def main(x) = {}x{};", "(".repeat(deep), ")".repeat(deep)),
            ));
            inputs.push((
                "200,000-term chain",
                MAX_DEPTH,
                format!("def main(x) = x{};", " + x".repeat(deep - 1)),
            ));
            for (shape, limit, src) in inputs {
                match crate::compile(&src) {
                    Err(CompileError::Parse { msg, .. }) => assert!(
                        msg.contains(&format!("deeper than {limit} levels")),
                        "{shape}: {msg}"
                    ),
                    other => panic!("{shape}: {other:?}"),
                }
            }
        });
    }

    #[test]
    fn select_in_expression_position_inside_block() {
        // `a[i] + 1` as a block result must not be mistaken for a store.
        let src = "def main(i) = { a = array(4); a[0] <- 7; a[i] + 1 };";
        let sp = parse(src).unwrap();
        let Expr::Let(binds, result) = &sp.defs[0].body else {
            panic!();
        };
        assert_eq!(binds.len(), 2);
        assert!(matches!(result.as_ref(), Expr::Binary(BinOp::Add, _, _)));
    }
}
