//! Pretty-printer: renders an AST back to parseable MiniC source.
//!
//! Instrumentation is a source-to-source transformation (like the paper's
//! C-to-C translator), so being able to inspect transformed programs as
//! ordinary source is invaluable for debugging and for the examples.
//! `parse(pretty(ast))` yields a structurally identical AST.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a whole program as MiniC source.
///
/// ```
/// let p = cbi_minic::parse("fn main() -> int { return 1 + 2; }").unwrap();
/// let src = cbi_minic::pretty(&p);
/// assert!(src.contains("return 1 + 2;"));
/// ```
pub fn pretty(program: &Program) -> String {
    let mut out = String::new();
    for g in &program.globals {
        if g.ty == Type::Int && g.init != 0 {
            let _ = writeln!(out, "{} {} = {};", g.ty, g.name, g.init);
        } else {
            let _ = writeln!(out, "{} {};", g.ty, g.name);
        }
    }
    if !program.globals.is_empty() {
        out.push('\n');
    }
    for (i, f) in program.functions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_function(&mut out, f);
    }
    out
}

/// Renders a single function as MiniC source.
pub fn pretty_function(f: &Function) -> String {
    let mut out = String::new();
    print_function(&mut out, f);
    out
}

fn print_function(out: &mut String, f: &Function) {
    let _ = write!(out, "fn {}(", f.name);
    for (i, p) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{} {}", p.ty, p.name);
    }
    out.push(')');
    if let Some(t) = f.ret {
        let _ = write!(out, " -> {t}");
    }
    out.push_str(" {\n");
    print_block_body(out, &f.body, 1);
    out.push_str("}\n");
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_block_body(out: &mut String, b: &Block, level: usize) {
    for s in &b.stmts {
        print_stmt(out, s, level);
    }
}

fn print_stmt(out: &mut String, s: &Stmt, level: usize) {
    indent(out, level);
    match s {
        Stmt::Decl { ty, name, init, .. } => {
            let _ = write!(out, "{ty} {name}");
            if let Some(e) = init {
                let _ = write!(out, " = {}", print_expr(e));
            }
            out.push_str(";\n");
        }
        Stmt::Assign { name, value, .. } => {
            let _ = writeln!(out, "{name} = {};", print_expr(value));
        }
        Stmt::Store {
            target,
            index,
            value,
            ..
        } => {
            let _ = writeln!(
                out,
                "{target}[{}] = {};",
                print_expr(index),
                print_expr(value)
            );
        }
        Stmt::If {
            cond,
            then_block,
            else_block,
            ..
        } => print_if(
            out,
            &print_expr(cond),
            then_block,
            else_block.as_ref(),
            level,
        ),
        Stmt::While { cond, body, .. } => {
            let _ = writeln!(out, "while ({}) {{", print_expr(cond));
            print_block_body(out, body, level + 1);
            indent(out, level);
            out.push_str("}\n");
        }
        Stmt::Return { value, .. } => match value {
            None => out.push_str("return;\n"),
            Some(v) => {
                let _ = writeln!(out, "return {};", print_expr(v));
            }
        },
        Stmt::Break { .. } => out.push_str("break;\n"),
        Stmt::Continue { .. } => out.push_str("continue;\n"),
        Stmt::Check { cond, .. } => {
            let _ = writeln!(out, "check({});", print_expr(cond));
        }
        Stmt::Expr { expr, .. } => {
            let _ = writeln!(out, "{};", print_expr(expr));
        }
        Stmt::Sample(s) => print_sample(out, s, level),
    }
}

/// `if (cond) { … }`, with its `else` arm if any; the caller has
/// indented the first line.
fn print_if(
    out: &mut String,
    cond: &str,
    then_block: &Block,
    else_block: Option<&Block>,
    level: usize,
) {
    let _ = writeln!(out, "if ({cond}) {{");
    print_block_body(out, then_block, level + 1);
    indent(out, level);
    match else_block {
        None => out.push_str("}\n"),
        Some(e) => {
            out.push_str("} else {\n");
            print_block_body(out, e, level + 1);
            indent(out, level);
            out.push_str("}\n");
        }
    }
}

/// A sampling statement, spelled as the MiniC it stands for.
fn print_sample(out: &mut String, s: &Sample, level: usize) {
    let (cd, gcd) = (Countdown::Local.name(), Countdown::Global.name());
    let _ = match s {
        Sample::Import => writeln!(out, "int {cd} = {gcd};"),
        Sample::Reimport => writeln!(out, "{cd} = {gcd};"),
        Sample::Export => writeln!(out, "{gcd} = {cd};"),
        Sample::Dec { reg, k } => writeln!(out, "{r} = {r} - {k};", r = reg.name()),
        Sample::Threshold { reg, w, fast, slow } => {
            let cond = format!("{} > {w}", reg.name());
            print_if(out, &cond, fast, Some(slow), level);
            Ok(())
        }
        Sample::Guard { reg, obs, args } => {
            let (r, pad) = (reg.name(), "    ".repeat(level));
            let args: Vec<String> = args.iter().map(print_expr).collect();
            writeln!(
                out,
                "{r} = {r} - 1;\n{pad}if ({r} == 0) {{\n{pad}    {}({});\n{pad}    {r} = __next_cd();\n{pad}}}",
                obs.builtin().name(),
                args.join(", ")
            )
        }
    };
}

/// Renders an expression with explicit parentheses where precedence needs
/// them.
pub fn print_expr(e: &Expr) -> String {
    print_prec(e, 0)
}

fn op_prec(op: BinOp) -> u8 {
    use BinOp::*;
    match op {
        Or => 1,
        And => 2,
        Eq | Ne => 3,
        Lt | Le | Gt | Ge => 4,
        Add | Sub => 5,
        Mul | Div | Mod => 6,
    }
}

fn print_prec(e: &Expr, min: u8) -> String {
    match e {
        Expr::Int { value, .. } => {
            if *value < 0 {
                // Negative literals re-parse through unary minus folding;
                // parenthesize so `1 - -2` stays unambiguous.
                format!("(-{})", value.unsigned_abs())
            } else {
                value.to_string()
            }
        }
        Expr::Null { .. } => "null".to_string(),
        Expr::Var { name, .. } => name.clone(),
        Expr::Load { ptr, index, .. } => {
            format!("{}[{}]", print_prec(ptr, 8), print_expr(index))
        }
        Expr::Call { name, args, .. } => {
            let args: Vec<String> = args.iter().map(print_expr).collect();
            format!("{name}({})", args.join(", "))
        }
        Expr::Unary { op, expr, .. } => {
            format!("{op}{}", print_prec(expr, 7))
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let p = op_prec(*op);
            // Left-associative: the right operand needs strictly higher
            // binding power.
            let s = format!("{} {op} {}", print_prec(lhs, p), print_prec(rhs, p + 1));
            if p < min {
                format!("({s})")
            } else {
                s
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    /// Structural equality ignoring spans: compare pretty-printed forms of
    /// re-parsed sources.
    fn round_trip(src: &str) {
        let p1 = parse(src).unwrap();
        let s1 = pretty(&p1);
        let p2 = parse(&s1).unwrap_or_else(|e| panic!("re-parse failed: {e}\n{s1}"));
        let s2 = pretty(&p2);
        assert_eq!(s1, s2, "pretty-printing must be a fixed point");
    }

    #[test]
    fn round_trips_simple_function() {
        round_trip("fn main() -> int { return 0; }");
    }

    #[test]
    fn round_trips_globals() {
        round_trip("int a = 5; int b; ptr p; fn main() -> int { return a; }");
    }

    #[test]
    fn round_trips_control_flow() {
        round_trip(
            "fn f(int n) -> int { int s = 0; int i = 0; while (i < n) { if (i % 2 == 0) { s = s + i; } else { s = s - 1; } i = i + 1; } return s; }",
        );
    }

    #[test]
    fn round_trips_pointers_and_checks() {
        round_trip(
            "fn f(ptr p, int i) -> int { check(p != null); check(i >= 0 && i < len(p)); p[i] = p[i + 1]; return p[i]; }",
        );
    }

    #[test]
    fn parenthesizes_precedence_correctly() {
        // (1 + 2) * 3 must keep its parentheses.
        let p = parse("fn f() -> int { return (1 + 2) * 3; }").unwrap();
        let s = pretty(&p);
        assert!(s.contains("(1 + 2) * 3"), "got: {s}");
        round_trip("fn f() -> int { return (1 + 2) * 3; }");
    }

    #[test]
    fn preserves_logical_structure() {
        let p = parse("fn f(int a, int b) -> int { return (a || b) && a; }").unwrap();
        let s = pretty(&p);
        assert!(s.contains("(a || b) && a"), "got: {s}");
    }

    #[test]
    fn negative_literal_round_trips() {
        round_trip("fn f() -> int { return 1 - -2; }");
        let p = parse("fn f() -> int { return 1 - -2; }").unwrap();
        let p2 = parse(&pretty(&p)).unwrap();
        // Semantics preserved: both parse to subtraction by negative two.
        assert_eq!(pretty(&p), pretty(&p2));
    }

    #[test]
    fn unary_binds_tighter_than_binary() {
        round_trip("fn f(int x) -> int { return -x * !x; }");
    }

    #[test]
    fn round_trips_else_if_chain() {
        round_trip(
            "fn f(int x) -> int { if (x < 0) { return -1; } else if (x == 0) { return 0; } else { return 1; } }",
        );
    }

    #[test]
    fn prints_calls_and_nested_loads() {
        round_trip("fn f(ptr p) -> int { return p[0][g(p[1], 2)]; } fn g(ptr q, int i) -> int { return q[i]; }");
    }
}
