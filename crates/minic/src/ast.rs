//! The MiniC abstract syntax tree.
//!
//! MiniC is deliberately small but covers everything the sampling
//! transformation of the paper manipulates: functions, structured control
//! flow (`if`/`while`), scalar (`int`) and pointer (`ptr`) variables, heap
//! loads/stores, calls, and `check(...)` assertion sites.
//!
//! AST types are passive data structures with public fields: the
//! instrumentation crate rewrites them wholesale, and the VM walks them.

use crate::builtins::{Observation, GLOBAL_COUNTDOWN, LOCAL_COUNTDOWN};
use crate::span::Span;
use std::fmt;

/// A MiniC value type: 64-bit integers or heap pointers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit signed integer.
    Int,
    /// Pointer into the VM heap (block + offset), or null.
    Ptr,
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Int => f.write_str("int"),
            Type::Ptr => f.write_str("ptr"),
        }
    }
}

/// A whole program: globals plus functions.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Global variable declarations, initialized before `main` runs.
    pub globals: Vec<Global>,
    /// Function definitions, in source order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<&Global> {
        self.globals.iter().find(|g| g.name == name)
    }
}

/// A global variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Constant initializer for `int` globals (`ptr` globals start null).
    pub init: i64,
    /// Declaration site.
    pub span: Span,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Formal parameters.
    pub params: Vec<Param>,
    /// Return type, or `None` for procedures.
    pub ret: Option<Type>,
    /// Function body.
    pub body: Block,
    /// Definition site.
    pub span: Span,
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Parameter type.
    pub ty: Type,
    /// Declaration site.
    pub span: Span,
}

/// A block of statements (one lexical scope).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The statements, in order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// Creates a block from statements.
    pub fn new(stmts: Vec<Stmt>) -> Self {
        Block { stmts }
    }

    /// An empty block.
    pub fn empty() -> Self {
        Block { stmts: Vec::new() }
    }

    /// Whether control never falls off the end of this block: its last
    /// statement is a `return`, `break` or `continue`, or a conditional
    /// or threshold check both of whose arms always exit.
    pub fn always_exits(&self) -> bool {
        match self.stmts.last() {
            Some(Stmt::Return { .. } | Stmt::Break { .. } | Stmt::Continue { .. }) => true,
            Some(
                Stmt::If {
                    then_block,
                    else_block: Some(else_block),
                    ..
                }
                | Stmt::Sample(Sample::Threshold {
                    fast: then_block,
                    slow: else_block,
                    ..
                }),
            ) => then_block.always_exits() && else_block.always_exits(),
            _ => false,
        }
    }
}

/// A MiniC statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Local variable declaration: `int x = e;` / `ptr p;`.
    Decl {
        /// Declared type.
        ty: Type,
        /// Variable name.
        name: String,
        /// Optional initializer (defaults to `0` / `null`).
        init: Option<Expr>,
        /// Source position.
        span: Span,
    },
    /// Assignment to a variable: `x = e;`.
    Assign {
        /// Target variable name.
        name: String,
        /// Value expression.
        value: Expr,
        /// Source position.
        span: Span,
    },
    /// Store through a pointer variable: `p[i] = e;`.
    Store {
        /// Pointer variable name.
        target: String,
        /// Index expression.
        index: Expr,
        /// Value expression.
        value: Expr,
        /// Source position.
        span: Span,
    },
    /// Conditional: `if (c) { … } else { … }`.
    If {
        /// Condition (nonzero = true).
        cond: Expr,
        /// Then branch.
        then_block: Block,
        /// Optional else branch.
        else_block: Option<Block>,
        /// Source position.
        span: Span,
    },
    /// Loop: `while (c) { … }`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
        /// Source position.
        span: Span,
    },
    /// `return e;` or `return;`.
    Return {
        /// Returned value, if any.
        value: Option<Expr>,
        /// Source position.
        span: Span,
    },
    /// `break;`
    Break {
        /// Source position.
        span: Span,
    },
    /// `continue;`
    Continue {
        /// Source position.
        span: Span,
    },
    /// A user-written assertion site: `check(e);`.
    ///
    /// In uninstrumented execution this is a no-op marker; instrumentation
    /// lowers it to a counted, possibly sampled runtime check.
    Check {
        /// Asserted condition.
        cond: Expr,
        /// Source position.
        span: Span,
    },
    /// An expression evaluated for effect (a call): `f(x);`.
    Expr {
        /// The expression.
        expr: Expr,
        /// Source position.
        span: Span,
    },
    /// A statement of the sampling transformation (§2.2–§2.4).
    Sample(Sample),
}

/// One of the two next-sample countdowns (§2.4): the register every
/// [`Sample`] statement names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Countdown {
    /// The function-local copy `__cd`, imported from the global at entry
    /// and after calls that may sample, exported before them and at
    /// returns.  Lets fast-path decrements coalesce.
    #[default]
    Local,
    /// The global `__gcd`, read and written directly.  Models the paper's
    /// observation that conservative aliasing assumptions keep the native
    /// compiler from coalescing, so nothing coalesces on it.
    Global,
}

impl Countdown {
    /// The name the countdown is printed under.
    pub fn name(self) -> &'static str {
        match self {
            Countdown::Local => LOCAL_COUNTDOWN,
            Countdown::Global => GLOBAL_COUNTDOWN,
        }
    }
}

/// A sampling statement: the countdown bookkeeping the transformation
/// plants around instrumentation sites, one variant per bytecode
/// countdown operation.  Each prints as the MiniC it stands for
/// (`R` is the [`Countdown`]'s name).
///
/// The block type `B` and expression type `E` let the slot form
/// ([`crate::slots`]) reuse the family.
#[derive(Debug, Clone, PartialEq)]
pub enum Sample<B = Block, E = Expr> {
    /// `int __cd = __gcd;`: the function-entry import, which declares the
    /// local countdown.
    Import,
    /// `__cd = __gcd;`: the re-import after a call that may sample.
    Reimport,
    /// `__gcd = __cd;`: the export before such a call and at returns.
    Export,
    /// `R = R - k;`: the fast path's (possibly coalesced) decrement.
    Dec {
        /// The decremented countdown.
        reg: Countdown,
        /// The decrement.
        k: u32,
    },
    /// `if (R > w) { fast } else { slow }`: the threshold check choosing
    /// between a region's two clones (§2.2).  The arms may declare the
    /// same locals: they run on mutually exclusive paths.
    Threshold {
        /// The tested countdown.
        reg: Countdown,
        /// The region weight.
        w: u32,
        /// The instrumentation-free clone, taken while `R > w`.
        fast: B,
        /// The clone whose every site is [`Sample::Guard`]ed.
        slow: B,
    },
    /// `R = R - 1; if (R == 0) { obs(args); R = __next_cd(); }`: one
    /// slow-path site, observed when the countdown reaches zero and
    /// followed by a refill from the run's countdown source.
    Guard {
        /// The countdown decremented and tested.
        reg: Countdown,
        /// The site's observation.
        obs: Observation,
        /// The observation's arguments, the literal site id first.
        args: Vec<E>,
    },
}

impl Stmt {
    /// The source position of this statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl { span, .. }
            | Stmt::Assign { span, .. }
            | Stmt::Store { span, .. }
            | Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::Return { span, .. }
            | Stmt::Break { span }
            | Stmt::Continue { span }
            | Stmt::Check { span, .. }
            | Stmt::Expr { span, .. } => *span,
            Stmt::Sample(_) => Span::synthesized(),
        }
    }

    /// This statement's own expressions, in source order; those of its
    /// nested statements are not included.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let (a, b, rest): (Option<&Expr>, Option<&Expr>, &[Expr]) = match self {
            Stmt::Decl { init: a, .. } | Stmt::Return { value: a, .. } => (a.as_ref(), None, &[]),
            Stmt::Store { index, value, .. } => (Some(index), Some(value), &[]),
            Stmt::Assign { value: a, .. }
            | Stmt::If { cond: a, .. }
            | Stmt::While { cond: a, .. }
            | Stmt::Check { cond: a, .. }
            | Stmt::Expr { expr: a, .. } => (Some(a), None, &[]),
            Stmt::Sample(Sample::Guard { args, .. }) => (None, None, args),
            Stmt::Break { .. } | Stmt::Continue { .. } | Stmt::Sample(_) => (None, None, &[]),
        };
        a.into_iter().chain(b).chain(rest)
    }

    /// The blocks nested directly in this statement: a conditional's
    /// arms, a loop's body, a threshold check's two clones.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        let (a, b) = match self {
            Stmt::If {
                then_block,
                else_block,
                ..
            } => (Some(then_block), else_block.as_ref()),
            Stmt::While { body, .. } => (Some(body), None),
            Stmt::Sample(Sample::Threshold { fast, slow, .. }) => (Some(fast), Some(slow)),
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// A copy of this statement with each of its [`Stmt::blocks`], in
    /// order, replaced by `f` of it.
    pub fn with_blocks(&self, mut f: impl FnMut(&Block) -> Block) -> Stmt {
        match self {
            Stmt::If {
                cond,
                then_block,
                else_block,
                span,
            } => Stmt::If {
                cond: cond.clone(),
                then_block: f(then_block),
                else_block: else_block.as_ref().map(f),
                span: *span,
            },
            Stmt::While { cond, body, span } => Stmt::While {
                cond: cond.clone(),
                body: f(body),
                span: *span,
            },
            Stmt::Sample(Sample::Threshold { reg, w, fast, slow }) => {
                Stmt::Sample(Sample::Threshold {
                    reg: *reg,
                    w: *w,
                    fast: f(fast),
                    slow: f(slow),
                })
            }
            other => other.clone(),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical negation `!e` (yields 0/1).
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => f.write_str("-"),
            UnOp::Not => f.write_str("!"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+` (also pointer + int offset arithmetic).
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (traps on divide-by-zero at run time).
    Div,
    /// `%` (traps on zero modulus at run time).
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (short-circuit).
    And,
    /// `||` (short-circuit).
    Or,
}

impl BinOp {
    /// Whether this operator produces a 0/1 truth value.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// Whether this operator short-circuits.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        f.write_str(s)
    }
}

/// A MiniC expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int {
        /// The value.
        value: i64,
        /// Source position.
        span: Span,
    },
    /// The null pointer literal.
    Null {
        /// Source position.
        span: Span,
    },
    /// Variable reference.
    Var {
        /// Variable name.
        name: String,
        /// Source position.
        span: Span,
    },
    /// Heap load: `p[i]`.
    Load {
        /// Pointer expression.
        ptr: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
        /// Source position.
        span: Span,
    },
    /// Function or builtin call: `f(a, b)`.
    Call {
        /// Callee name.
        name: String,
        /// Actual arguments.
        args: Vec<Expr>,
        /// Source position.
        span: Span,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
        /// Source position.
        span: Span,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source position.
        span: Span,
    },
}

impl Expr {
    /// The source position of this expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int { span, .. }
            | Expr::Null { span }
            | Expr::Var { span, .. }
            | Expr::Load { span, .. }
            | Expr::Call { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. } => *span,
        }
    }

    /// Convenience constructor: integer literal with a synthesized span.
    pub fn int(value: i64) -> Expr {
        Expr::Int {
            value,
            span: Span::synthesized(),
        }
    }

    /// Convenience constructor: variable reference with a synthesized span.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var {
            name: name.into(),
            span: Span::synthesized(),
        }
    }

    /// Convenience constructor: call with a synthesized span.
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call {
            name: name.into(),
            args,
            span: Span::synthesized(),
        }
    }

    /// Convenience constructor: binary operation with a synthesized span.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            span: Span::synthesized(),
        }
    }

    /// Whether any subexpression satisfies `pred`.
    pub fn any(&self, pred: &mut dyn FnMut(&Expr) -> bool) -> bool {
        if pred(self) {
            return true;
        }
        match self {
            Expr::Int { .. } | Expr::Null { .. } | Expr::Var { .. } => false,
            Expr::Load { ptr, index, .. } => ptr.any(pred) || index.any(pred),
            Expr::Call { args, .. } => args.iter().any(|a| a.any(pred)),
            Expr::Unary { expr, .. } => expr.any(pred),
            Expr::Binary { lhs, rhs, .. } => lhs.any(pred) || rhs.any(pred),
        }
    }

    /// Collects the names of functions called anywhere in this expression.
    pub fn called_names(&self, out: &mut Vec<String>) {
        match self {
            Expr::Int { .. } | Expr::Null { .. } | Expr::Var { .. } => {}
            Expr::Load { ptr, index, .. } => {
                ptr.called_names(out);
                index.called_names(out);
            }
            Expr::Call { name, args, .. } => {
                out.push(name.clone());
                for a in args {
                    a.called_names(out);
                }
            }
            Expr::Unary { expr, .. } => expr.called_names(out),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.called_names(out);
                rhs.called_names(out);
            }
        }
    }
}

/// Counts AST nodes (statements + expressions) in a block — the code-size
/// metric used for the executable-growth measurements of §3.1.2.
fn block_size(block: &Block) -> usize {
    block.stmts.iter().map(stmt_size).sum()
}

/// Counts AST nodes in one statement.
fn stmt_size(stmt: &Stmt) -> usize {
    1 + match stmt {
        Stmt::Decl { init, .. } => init.as_ref().map_or(0, expr_size),
        Stmt::Assign { value, .. } => expr_size(value),
        Stmt::Store { index, value, .. } => expr_size(index) + expr_size(value),
        Stmt::If {
            cond,
            then_block,
            else_block,
            ..
        } => expr_size(cond) + block_size(then_block) + else_block.as_ref().map_or(0, block_size),
        Stmt::While { cond, body, .. } => expr_size(cond) + block_size(body),
        Stmt::Return { value, .. } => value.as_ref().map_or(0, expr_size),
        Stmt::Break { .. } | Stmt::Continue { .. } => 0,
        Stmt::Check { cond, .. } => expr_size(cond),
        Stmt::Expr { expr, .. } => expr_size(expr),
        // Counted as the statements they print as, less this node.
        Stmt::Sample(s) => match s {
            Sample::Import | Sample::Reimport | Sample::Export => 1,
            Sample::Dec { .. } => 3,
            Sample::Threshold { fast, slow, .. } => 3 + block_size(fast) + block_size(slow),
            Sample::Guard { args, .. } => 11 + args.iter().map(expr_size).sum::<usize>(),
        },
    }
}

/// Counts AST nodes in one expression.
fn expr_size(expr: &Expr) -> usize {
    1 + match expr {
        Expr::Int { .. } | Expr::Null { .. } | Expr::Var { .. } => 0,
        Expr::Load { ptr, index, .. } => expr_size(ptr) + expr_size(index),
        Expr::Call { args, .. } => args.iter().map(expr_size).sum(),
        Expr::Unary { expr, .. } => expr_size(expr),
        Expr::Binary { lhs, rhs, .. } => expr_size(lhs) + expr_size(rhs),
    }
}

/// Counts AST nodes in a whole function (body plus header).
fn function_size(f: &Function) -> usize {
    1 + f.params.len() + block_size(&f.body)
}

/// Counts AST nodes in a whole program.
pub fn program_size(p: &Program) -> usize {
    p.globals.len() + p.functions.iter().map(function_size).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Span {
        Span::synthesized()
    }

    #[test]
    fn expr_constructors_build_expected_shapes() {
        let e = Expr::binary(BinOp::Add, Expr::int(1), Expr::var("x"));
        assert_eq!(expr_size(&e), 3);
        match e {
            Expr::Binary { op: BinOp::Add, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn called_names_walks_nested_expressions() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::call("f", vec![Expr::call("g", vec![])]),
            Expr::Load {
                ptr: Box::new(Expr::call("h", vec![])),
                index: Box::new(Expr::int(0)),
                span: sp(),
            },
        );
        let mut names = Vec::new();
        e.called_names(&mut names);
        assert_eq!(names, vec!["f", "g", "h"]);
    }

    #[test]
    fn any_finds_matching_subexpression() {
        let e = Expr::binary(BinOp::Mul, Expr::int(2), Expr::var("y"));
        assert!(e.any(&mut |x| matches!(x, Expr::Var { name, .. } if name == "y")));
        assert!(!e.any(&mut |x| matches!(x, Expr::Null { .. })));
    }

    #[test]
    fn sizes_count_every_node() {
        // while (x < 10) { x = x + 1; }
        let body = Block::new(vec![Stmt::Assign {
            name: "x".into(),
            value: Expr::binary(BinOp::Add, Expr::var("x"), Expr::int(1)),
            span: sp(),
        }]);
        let w = Stmt::While {
            cond: Expr::binary(BinOp::Lt, Expr::var("x"), Expr::int(10)),
            body,
            span: sp(),
        };
        // while(1) + cond(3) + assign(1) + value(3) = 8
        assert_eq!(stmt_size(&w), 8);
    }

    #[test]
    fn program_lookup_by_name() {
        let p = Program {
            globals: vec![Global {
                name: "g".into(),
                ty: Type::Int,
                init: 7,
                span: sp(),
            }],
            functions: vec![Function {
                name: "main".into(),
                params: vec![],
                ret: Some(Type::Int),
                body: Block::empty(),
                span: sp(),
            }],
        };
        assert!(p.function("main").is_some());
        assert!(p.function("missing").is_none());
        assert_eq!(p.global("g").unwrap().init, 7);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::Lt.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::Eq.is_logical());
    }

    #[test]
    fn display_for_types_and_ops() {
        assert_eq!(Type::Int.to_string(), "int");
        assert_eq!(Type::Ptr.to_string(), "ptr");
        assert_eq!(BinOp::Ge.to_string(), ">=");
        assert_eq!(UnOp::Not.to_string(), "!");
    }
}
