//! Recursive-descent parser for MiniC.
//!
//! Grammar (EBNF, `*` = repetition, `?` = optional):
//!
//! ```text
//! program  := (global | function)*
//! global   := type ident ("=" "-"? INT)? ";"
//! function := "fn" ident "(" (param ("," param)*)? ")" ("->" type)? block
//! param    := type ident
//! type     := "int" | "ptr"
//! block    := "{" stmt* "}"
//! stmt     := type ident ("=" expr)? ";"
//!           | "if" "(" expr ")" block ("else" (block | if-stmt))?
//!           | "while" "(" expr ")" block
//!           | "return" expr? ";"
//!           | "break" ";" | "continue" ";"
//!           | "check" "(" expr ")" ";"
//!           | expr ("=" expr)? ";"        -- assignment or effect call
//! expr     := or-expr, with C precedence: || < && < ==/!= < relational
//!             < +/- < * / % < unary -/! < postfix [index] < primary
//! primary  := INT | "null" | ident ("(" args ")")? | "(" expr ")"
//! ```
//!
//! A block's statements that spell out the sampling transformation's
//! bookkeeping in the canonical form the pretty-printer writes (for
//! example `__cd = __cd - 2;`) read back as [`Stmt::Sample`] nodes, so
//! printed transformed source parses to the program that was printed.

use crate::ast::*;
use crate::builtins::Builtin;
use crate::lexer::lex;
use crate::span::Span;
use crate::token::{Token, TokenKind};
use crate::MiniCError;

/// Parses MiniC source text into a [`Program`].
///
/// # Errors
///
/// Returns [`MiniCError`] describing the first lexical or syntactic problem.
///
/// ```
/// let prog = cbi_minic::parse("fn main() -> int { return 0; }").unwrap();
/// assert_eq!(prog.functions.len(), 1);
/// ```
pub fn parse(source: &str) -> Result<Program, MiniCError> {
    let tokens = lex(source)?;
    Parser::new(tokens).program()
}

/// Maximum combined statement/expression nesting depth.  Recursive
/// descent consumes native stack per level; beyond this bound the input
/// is rejected with an error instead of overflowing.  The bound is sized
/// so that even unoptimized builds stay within a 2 MiB thread stack.
const MAX_NESTING: usize = 100;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
        }
    }

    fn enter(&mut self) -> Result<(), MiniCError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            Err(self.error("nesting too deep"))
        } else {
            Ok(())
        }
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.pos].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind) -> Result<Token, MiniCError> {
        if self.peek() == kind {
            Ok(self.bump())
        } else {
            Err(self.error(format!("expected `{kind}`, found `{}`", self.peek())))
        }
    }

    fn error(&self, message: impl Into<String>) -> MiniCError {
        MiniCError::parse(self.peek_span(), message)
    }

    fn ident(&mut self) -> Result<(String, Span), MiniCError> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                Ok((name, span))
            }
            other => Err(self.error(format!("expected identifier, found `{other}`"))),
        }
    }

    fn ty(&mut self) -> Result<Type, MiniCError> {
        match self.peek() {
            TokenKind::KwInt => {
                self.bump();
                Ok(Type::Int)
            }
            TokenKind::KwPtr => {
                self.bump();
                Ok(Type::Ptr)
            }
            other => Err(self.error(format!("expected type `int` or `ptr`, found `{other}`"))),
        }
    }

    fn program(&mut self) -> Result<Program, MiniCError> {
        let mut globals = Vec::new();
        let mut functions = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Eof => break,
                TokenKind::KwFn => functions.push(self.function()?),
                TokenKind::KwInt | TokenKind::KwPtr => globals.push(self.global()?),
                other => {
                    return Err(self.error(format!(
                        "expected `fn` or a global declaration at top level, found `{other}`"
                    )))
                }
            }
        }
        Ok(Program { globals, functions })
    }

    fn global(&mut self) -> Result<Global, MiniCError> {
        let span = self.peek_span();
        let ty = self.ty()?;
        let (name, _) = self.ident()?;
        let mut init = 0;
        if self.eat(&TokenKind::Assign) {
            if ty == Type::Ptr {
                return Err(
                    self.error("pointer globals cannot have initializers (they start null)")
                );
            }
            let neg = self.eat(&TokenKind::Minus);
            match self.peek().clone() {
                TokenKind::Int(v) => {
                    self.bump();
                    init = if neg { -v } else { v };
                }
                other => {
                    return Err(self.error(format!(
                        "global initializer must be an integer literal, found `{other}`"
                    )))
                }
            }
        }
        self.expect(&TokenKind::Semi)?;
        Ok(Global {
            name,
            ty,
            init,
            span,
        })
    }

    fn function(&mut self) -> Result<Function, MiniCError> {
        let span = self.peek_span();
        self.expect(&TokenKind::KwFn)?;
        let (name, _) = self.ident()?;
        self.expect(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if self.peek() != &TokenKind::RParen {
            loop {
                let pspan = self.peek_span();
                let ty = self.ty()?;
                let (pname, _) = self.ident()?;
                params.push(Param {
                    name: pname,
                    ty,
                    span: pspan,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        let ret = if self.eat(&TokenKind::Arrow) {
            Some(self.ty()?)
        } else {
            None
        };
        let body = self.block()?;
        Ok(Function {
            name,
            params,
            ret,
            body,
            span,
        })
    }

    fn block(&mut self) -> Result<Block, MiniCError> {
        self.enter()?;
        let result = self.block_inner();
        self.leave();
        result
    }

    fn block_inner(&mut self) -> Result<Block, MiniCError> {
        self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while self.peek() != &TokenKind::RBrace {
            if self.peek() == &TokenKind::Eof {
                return Err(self.error("unexpected end of input inside block"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect(&TokenKind::RBrace)?;
        Ok(Block::new(fold_samples(stmts)))
    }

    fn stmt(&mut self) -> Result<Stmt, MiniCError> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::KwInt | TokenKind::KwPtr => {
                let ty = self.ty()?;
                let (name, _) = self.ident()?;
                let init = if self.eat(&TokenKind::Assign) {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Decl {
                    ty,
                    name,
                    init,
                    span,
                })
            }
            TokenKind::KwIf => self.if_stmt(),
            TokenKind::KwWhile => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, span })
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.peek() == &TokenKind::Semi {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Return { value, span })
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Break { span })
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Continue { span })
            }
            TokenKind::KwCheck => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                self.expect(&TokenKind::Semi)?;
                Ok(Stmt::Check { cond, span })
            }
            _ => self.expr_led_stmt(span),
        }
    }

    fn if_stmt(&mut self) -> Result<Stmt, MiniCError> {
        let span = self.peek_span();
        self.expect(&TokenKind::KwIf)?;
        self.expect(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.expect(&TokenKind::RParen)?;
        let then_block = self.block()?;
        let else_block = if self.eat(&TokenKind::KwElse) {
            if self.peek() == &TokenKind::KwIf {
                // `else if` chains desugar to a nested single-statement block.
                let nested = self.if_stmt()?;
                Some(Block::new(vec![nested]))
            } else {
                Some(self.block()?)
            }
        } else {
            None
        };
        Ok(Stmt::If {
            cond,
            then_block,
            else_block,
            span,
        })
    }

    /// Statements that begin with an expression: assignment `x = e;`,
    /// store `p[i] = e;`, or an effect call `f(x);`.
    fn expr_led_stmt(&mut self, span: Span) -> Result<Stmt, MiniCError> {
        let lhs = self.expr()?;
        if self.eat(&TokenKind::Assign) {
            let value = self.expr()?;
            self.expect(&TokenKind::Semi)?;
            match lhs {
                Expr::Var { name, .. } => Ok(Stmt::Assign { name, value, span }),
                Expr::Load { ptr, index, .. } => match *ptr {
                    Expr::Var { name, .. } => Ok(Stmt::Store {
                        target: name,
                        index: *index,
                        value,
                        span,
                    }),
                    _ => Err(MiniCError::parse(
                        span,
                        "store target must be a pointer variable, e.g. `p[i] = e;`",
                    )),
                },
                _ => Err(MiniCError::parse(
                    span,
                    "assignment target must be a variable or `p[i]`",
                )),
            }
        } else {
            self.expect(&TokenKind::Semi)?;
            match &lhs {
                Expr::Call { .. } => Ok(Stmt::Expr { expr: lhs, span }),
                _ => Err(MiniCError::parse(
                    span,
                    "only call expressions may be used as statements",
                )),
            }
        }
    }

    // ---- expressions, precedence climbing ----

    fn expr(&mut self) -> Result<Expr, MiniCError> {
        self.enter()?;
        let result = self.or_expr();
        self.leave();
        result
    }

    fn or_expr(&mut self) -> Result<Expr, MiniCError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == &TokenKind::OrOr {
            let span = self.peek_span();
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, MiniCError> {
        let mut lhs = self.equality_expr()?;
        while self.peek() == &TokenKind::AndAnd {
            let span = self.peek_span();
            self.bump();
            let rhs = self.equality_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn equality_expr(&mut self) -> Result<Expr, MiniCError> {
        let mut lhs = self.relational_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::EqEq => BinOp::Eq,
                TokenKind::NotEq => BinOp::Ne,
                _ => break,
            };
            let span = self.peek_span();
            self.bump();
            let rhs = self.relational_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn relational_expr(&mut self) -> Result<Expr, MiniCError> {
        let mut lhs = self.additive_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                _ => break,
            };
            let span = self.peek_span();
            self.bump();
            let rhs = self.additive_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn additive_expr(&mut self) -> Result<Expr, MiniCError> {
        let mut lhs = self.multiplicative_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            let span = self.peek_span();
            self.bump();
            let rhs = self.multiplicative_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn multiplicative_expr(&mut self) -> Result<Expr, MiniCError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            let span = self.peek_span();
            self.bump();
            let rhs = self.unary_expr()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, MiniCError> {
        let span = self.peek_span();
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                let expr = self.unary_expr()?;
                // Fold negation of literals so `-5` is a literal, which
                // matters for constant contexts and pretty-printing.
                if let Expr::Int { value, .. } = expr {
                    return Ok(Expr::Int {
                        value: -value,
                        span,
                    });
                }
                Ok(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(expr),
                    span,
                })
            }
            TokenKind::Bang => {
                self.bump();
                let expr = self.unary_expr()?;
                Ok(Expr::Unary {
                    op: UnOp::Not,
                    expr: Box::new(expr),
                    span,
                })
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, MiniCError> {
        let mut e = self.primary_expr()?;
        while self.peek() == &TokenKind::LBracket {
            let span = self.peek_span();
            self.bump();
            let index = self.expr()?;
            self.expect(&TokenKind::RBracket)?;
            e = Expr::Load {
                ptr: Box::new(e),
                index: Box::new(index),
                span,
            };
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, MiniCError> {
        let span = self.peek_span();
        match self.peek().clone() {
            TokenKind::Int(value) => {
                self.bump();
                Ok(Expr::Int { value, span })
            }
            TokenKind::KwNull => {
                self.bump();
                Ok(Expr::Null { span })
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat(&TokenKind::LParen) {
                    let mut args = Vec::new();
                    if self.peek() != &TokenKind::RParen {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RParen)?;
                    Ok(Expr::Call { name, args, span })
                } else {
                    Ok(Expr::Var { name, span })
                }
            }
            other => Err(self.error(format!("expected expression, found `{other}`"))),
        }
    }
}

/// Reads the printed spellings of [`Sample`] statements in one block
/// back as sampling statements.  Any other statement naming `__cd` or
/// `__gcd` stays ordinary code.
fn fold_samples(stmts: Vec<Stmt>) -> Vec<Stmt> {
    use Countdown::{Global, Local};
    let mut out: Vec<Stmt> = Vec::with_capacity(stmts.len());
    for mut s in stmts {
        let sample = match &mut s {
            Stmt::Decl {
                ty: Type::Int,
                name,
                init: Some(v),
                ..
            } if countdown(name) == Some(Local) && register(v) == Some(Global) => {
                Some(Sample::Import)
            }
            Stmt::Assign { name, value, .. } => match (countdown(name), register(value)) {
                (Some(Local), Some(Global)) => Some(Sample::Reimport),
                (Some(Global), Some(Local)) => Some(Sample::Export),
                (Some(reg), _) => match test(value, BinOp::Sub) {
                    Some((r, k)) if r == reg => Some(Sample::Dec { reg, k }),
                    _ => None,
                },
                _ => None,
            },
            Stmt::If {
                cond,
                then_block,
                else_block: Some(slow),
                ..
            } => test(cond, BinOp::Gt).map(|(reg, w)| Sample::Threshold {
                reg,
                w,
                fast: std::mem::take(then_block),
                slow: std::mem::take(slow),
            }),
            // `R = R - 1;` folded already, then `if (R == 0) { obs(args);
            // R = __next_cd(); }`.
            Stmt::If {
                cond,
                then_block,
                else_block: None,
                ..
            } => match (test(cond, BinOp::Eq), out.last(), &mut then_block.stmts[..]) {
                (
                    Some((reg, 0)),
                    Some(Stmt::Sample(Sample::Dec { reg: r, k: 1 })),
                    [Stmt::Expr {
                        expr: Expr::Call { name, args, .. },
                        ..
                    }, Stmt::Assign {
                        name: refilled,
                        value:
                            Expr::Call {
                                name: refill,
                                args: none,
                                ..
                            },
                        ..
                    }],
                ) if *r == reg
                    && countdown(refilled) == Some(reg)
                    && refill == "__next_cd"
                    && none.is_empty() =>
                {
                    Builtin::from_name(name)
                        .and_then(Builtin::observation)
                        .map(|obs| Sample::Guard {
                            reg,
                            obs,
                            args: std::mem::take(args),
                        })
                }
                _ => None,
            },
            _ => None,
        };
        match sample {
            Some(sample) => {
                if matches!(sample, Sample::Guard { .. }) {
                    out.pop();
                }
                out.push(Stmt::Sample(sample));
            }
            None => out.push(s),
        }
    }
    out
}

/// The countdown `name` names, if it is one.
fn countdown(name: &str) -> Option<Countdown> {
    [Countdown::Local, Countdown::Global]
        .into_iter()
        .find(|c| c.name() == name)
}

/// The countdown a variable reference names, if it names one.
fn register(e: &Expr) -> Option<Countdown> {
    match e {
        Expr::Var { name, .. } => countdown(name),
        _ => None,
    }
}

/// `R <op> n` for a countdown `R` and a literal `n` that fits an operand.
fn test(e: &Expr, op: BinOp) -> Option<(Countdown, u32)> {
    match e {
        Expr::Binary {
            op: o, lhs, rhs, ..
        } if *o == op => match &**rhs {
            Expr::Int { value, .. } => Some((register(lhs)?, u32::try_from(*value).ok()?)),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Program {
        parse(src).unwrap_or_else(|e| panic!("parse failed: {e}\nsource:\n{src}"))
    }

    #[test]
    fn parses_empty_program() {
        let p = parse_ok("");
        assert!(p.functions.is_empty());
        assert!(p.globals.is_empty());
    }

    #[test]
    fn parses_globals_with_initializers() {
        let p = parse_ok("int a = 5; int b = -3; int c; ptr q;");
        assert_eq!(p.globals.len(), 4);
        assert_eq!(p.global("a").unwrap().init, 5);
        assert_eq!(p.global("b").unwrap().init, -3);
        assert_eq!(p.global("c").unwrap().init, 0);
        assert_eq!(p.global("q").unwrap().ty, Type::Ptr);
    }

    #[test]
    fn rejects_pointer_global_initializer() {
        assert!(parse("ptr q = 5;").is_err());
    }

    #[test]
    fn parses_function_signature() {
        let p = parse_ok("fn add(int a, int b) -> int { return a + b; }");
        let f = p.function("add").unwrap();
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Some(Type::Int));
    }

    #[test]
    fn parses_procedure_without_return_type() {
        let p = parse_ok("fn go() { return; }");
        assert_eq!(p.function("go").unwrap().ret, None);
    }

    #[test]
    fn precedence_binds_mul_tighter_than_add() {
        let p = parse_ok("fn f() -> int { return 1 + 2 * 3; }");
        let f = p.function("f").unwrap();
        match &f.body.stmts[0] {
            Stmt::Return {
                value:
                    Some(Expr::Binary {
                        op: BinOp::Add,
                        rhs,
                        ..
                    }),
                ..
            } => {
                assert!(matches!(**rhs, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_relational_below_arithmetic() {
        let p = parse_ok("fn f(int x) -> int { return x + 1 < x * 2; }");
        let f = p.function("f").unwrap();
        match &f.body.stmts[0] {
            Stmt::Return {
                value: Some(Expr::Binary { op: BinOp::Lt, .. }),
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn logical_operators_lowest_precedence() {
        let p = parse_ok("fn f(int x) -> int { return x == 1 || x == 2 && x < 9; }");
        let f = p.function("f").unwrap();
        match &f.body.stmts[0] {
            Stmt::Return {
                value:
                    Some(Expr::Binary {
                        op: BinOp::Or, rhs, ..
                    }),
                ..
            } => assert!(matches!(**rhs, Expr::Binary { op: BinOp::And, .. })),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_if_else_chain() {
        let p = parse_ok(
            "fn f(int x) -> int { if (x < 0) { return -1; } else if (x == 0) { return 0; } else { return 1; } }",
        );
        let f = p.function("f").unwrap();
        match &f.body.stmts[0] {
            Stmt::If {
                else_block: Some(b),
                ..
            } => {
                assert!(matches!(b.stmts[0], Stmt::If { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_while_with_break_continue() {
        let p = parse_ok(
            "fn f() { int i = 0; while (i < 10) { i = i + 1; if (i == 3) { continue; } if (i == 7) { break; } } }",
        );
        assert!(p.function("f").is_some());
    }

    #[test]
    fn parses_store_and_load() {
        let p = parse_ok("fn f(ptr p) -> int { p[0] = p[1] + 2; return p[0]; }");
        let f = p.function("f").unwrap();
        assert!(matches!(&f.body.stmts[0], Stmt::Store { target, .. } if target == "p"));
    }

    #[test]
    fn parses_nested_index_chains() {
        let p = parse_ok("fn f(ptr p) -> int { return p[0][1]; }");
        let f = p.function("f").unwrap();
        match &f.body.stmts[0] {
            Stmt::Return {
                value: Some(Expr::Load { ptr, .. }),
                ..
            } => {
                assert!(matches!(**ptr, Expr::Load { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_store_through_computed_pointer() {
        assert!(parse("fn f(ptr p) { (p)[0][1] = 2; }").is_err());
    }

    #[test]
    fn parses_calls_with_arguments() {
        let p = parse_ok("fn f() { g(1, 2 + 3, h()); }");
        let f = p.function("f").unwrap();
        match &f.body.stmts[0] {
            Stmt::Expr {
                expr: Expr::Call { name, args, .. },
                ..
            } => {
                assert_eq!(name, "g");
                assert_eq!(args.len(), 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_non_call_expression_statement() {
        assert!(parse("fn f(int x) { x + 1; }").is_err());
    }

    #[test]
    fn printed_sampling_statements_parse_back() {
        let p = parse_ok(
            "int __gcd;\n\
             fn f(int x) {\n\
                 int __cd = __gcd;\n\
                 __cd = __cd - 2;\n\
                 __cd = __cd - 1;\n\
                 if (__cd == 0) { __cmp(0, x, 1); __cd = __next_cd(); }\n\
                 __gcd = __cd;\n\
                 g();\n\
                 __cd = __gcd;\n\
                 __gcd = __gcd - 1;\n\
                 __cd = __cd - 1;\n\
                 if (__cd == 0) { print(x); __cd = __next_cd(); }\n\
             }",
        );
        let body = &p.functions[0].body.stmts;
        // Guard arguments keep their source spans; compare them printed.
        let folded: Vec<Option<Sample>> = body
            .iter()
            .map(|s| match s {
                Stmt::Sample(Sample::Guard { reg, obs, args }) => {
                    let printed: Vec<String> = args.iter().map(crate::print_expr).collect();
                    assert_eq!(printed, ["0", "x", "1"]);
                    Some(Sample::Guard {
                        reg: *reg,
                        obs: *obs,
                        args: vec![],
                    })
                }
                Stmt::Sample(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(
            folded,
            vec![
                Some(Sample::Import),
                Some(Sample::Dec {
                    reg: Countdown::Local,
                    k: 2
                }),
                Some(Sample::Guard {
                    reg: Countdown::Local,
                    obs: crate::Observation::Cmp,
                    args: vec![],
                }),
                Some(Sample::Export),
                None,
                Some(Sample::Reimport),
                Some(Sample::Dec {
                    reg: Countdown::Global,
                    k: 1
                }),
                // `print` is not an observation: no guard.
                Some(Sample::Dec {
                    reg: Countdown::Local,
                    k: 1
                }),
                None,
            ]
        );
    }

    #[test]
    fn parses_check_statement() {
        let p = parse_ok("fn f(ptr p, int i) { check(p != null); check(i < 10); }");
        let f = p.function("f").unwrap();
        assert!(matches!(f.body.stmts[0], Stmt::Check { .. }));
        assert!(matches!(f.body.stmts[1], Stmt::Check { .. }));
    }

    #[test]
    fn folds_negative_literals() {
        let p = parse_ok("fn f() -> int { return -42; }");
        let f = p.function("f").unwrap();
        match &f.body.stmts[0] {
            Stmt::Return {
                value: Some(Expr::Int { value: -42, .. }),
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn local_declarations_with_and_without_init() {
        let p = parse_ok("fn f() { int x; int y = 2; ptr p; ptr q = alloc(4); }");
        let f = p.function("f").unwrap();
        assert_eq!(f.body.stmts.len(), 4);
    }

    #[test]
    fn error_messages_carry_position() {
        let err = parse("fn f() {\n  int x = ;\n}").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("2:"), "message should name line 2: {msg}");
    }

    #[test]
    fn rejects_unclosed_block() {
        assert!(parse("fn f() { int x = 1;").is_err());
    }

    #[test]
    fn rejects_top_level_garbage() {
        assert!(parse("return 1;").is_err());
    }

    #[test]
    fn parses_logical_not_and_negation() {
        let p = parse_ok("fn f(int x) -> int { return !(-x < 0) && !x; }");
        assert!(p.function("f").is_some());
    }

    #[test]
    fn assignment_target_must_be_lvalue() {
        assert!(parse("fn f(int x) { x + 1 = 2; }").is_err());
        assert!(parse("fn f() { f() = 2; }").is_err());
    }
}
