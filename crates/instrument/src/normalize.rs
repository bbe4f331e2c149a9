//! Call flattening: hoist nested user-function calls into temporaries.
//!
//! The sampling transformation treats a call to a non-weightless function
//! as an acyclic-region boundary (§2.3: "a new threshold check must appear
//! immediately after each function call"), and the `returns` scheme must
//! observe every call's result.  Both are much simpler when every user call
//! is the root of its own statement, so this pass rewrites
//!
//! ```text
//! x = f(g(a) + 1) * 2;
//! ```
//!
//! into
//!
//! ```text
//! int __t0 = g(a);
//! int __t1 = f(__t0 + 1);
//! x = __t1 * 2;
//! ```
//!
//! Builtin calls stay inline — they are runtime primitives, not user code.
//!
//! Two constructs cannot be flattened without changing semantics and are
//! rejected: user calls in `while` conditions (they must re-evaluate every
//! iteration) and user calls in the right-hand side of short-circuit
//! `&&`/`||` (they must evaluate conditionally).  Workload programs use the
//! equivalent explicit forms (`while (1) { x = f(); if (!cond(x)) { break; } … }`).

use crate::InstrumentError;
use cbi_minic::ast::*;
use cbi_minic::resolve::ProgramInfo;
use cbi_minic::Builtin;

/// Flattens nested user calls in every function of `program`.
///
/// # Errors
///
/// Returns [`InstrumentError`] if a user call appears in a `while`
/// condition or under the right-hand side of a short-circuit operator.
pub fn flatten_calls(program: &Program, info: &ProgramInfo) -> Result<Program, InstrumentError> {
    let mut out = program.clone();
    for f in &mut out.functions {
        let mut fl = Flattener {
            info,
            next_temp: 0,
            function: f.name.clone(),
        };
        f.body = fl.block(&f.body)?;
    }
    Ok(out)
}

/// True if `name` is a user function (defined in the program), as opposed
/// to a builtin.
fn is_user_call(name: &str, info: &ProgramInfo) -> bool {
    Builtin::from_name(name).is_none() && info.signatures.contains_key(name)
}

/// Whether an expression contains a user-function call anywhere.
fn contains_user_call(e: &Expr, info: &ProgramInfo) -> bool {
    e.any(&mut |x| matches!(x, Expr::Call { name, .. } if is_user_call(name, info)))
}

struct Flattener<'a> {
    info: &'a ProgramInfo,
    next_temp: u32,
    function: String,
}

impl Flattener<'_> {
    fn fresh(&mut self) -> String {
        let name = format!("__t{}", self.next_temp);
        self.next_temp += 1;
        name
    }

    fn block(&mut self, b: &Block) -> Result<Block, InstrumentError> {
        let mut stmts = Vec::with_capacity(b.stmts.len());
        for s in &b.stmts {
            self.stmt(s, &mut stmts)?;
        }
        Ok(Block::new(stmts))
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<Stmt>) -> Result<(), InstrumentError> {
        match s {
            Stmt::Decl {
                ty,
                name,
                init,
                span,
            } => {
                let init = match init {
                    // A call as the entire initializer is already a root.
                    Some(Expr::Call {
                        name: callee,
                        args,
                        span: cspan,
                    }) if is_user_call(callee, self.info) => {
                        let args = self.hoist_args(args, out)?;
                        Some(Expr::Call {
                            name: callee.clone(),
                            args,
                            span: *cspan,
                        })
                    }
                    Some(e) => Some(self.expr(e, out)?),
                    None => None,
                };
                out.push(Stmt::Decl {
                    ty: *ty,
                    name: name.clone(),
                    init,
                    span: *span,
                });
            }
            Stmt::Assign { name, value, span } => {
                let value = match value {
                    Expr::Call {
                        name: callee,
                        args,
                        span: cspan,
                    } if is_user_call(callee, self.info) => {
                        let args = self.hoist_args(args, out)?;
                        Expr::Call {
                            name: callee.clone(),
                            args,
                            span: *cspan,
                        }
                    }
                    e => self.expr(e, out)?,
                };
                out.push(Stmt::Assign {
                    name: name.clone(),
                    value,
                    span: *span,
                });
            }
            Stmt::Store {
                target,
                index,
                value,
                span,
            } => {
                let index = self.expr(index, out)?;
                let value = self.expr(value, out)?;
                out.push(Stmt::Store {
                    target: target.clone(),
                    index,
                    value,
                    span: *span,
                });
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                span,
            } => {
                let cond = self.expr(cond, out)?;
                let then_block = self.block(then_block)?;
                let else_block = match else_block {
                    Some(e) => Some(self.block(e)?),
                    None => None,
                };
                out.push(Stmt::If {
                    cond,
                    then_block,
                    else_block,
                    span: *span,
                });
            }
            Stmt::While { cond, body, span } => {
                if contains_user_call(cond, self.info) {
                    return Err(InstrumentError::new(format!(
                        "function `{}` at {span}: user calls in `while` conditions cannot \
                         be flattened; restructure with an explicit loop body",
                        self.function
                    )));
                }
                let body = self.block(body)?;
                out.push(Stmt::While {
                    cond: cond.clone(),
                    body,
                    span: *span,
                });
            }
            Stmt::Return { value, span } => {
                let value = match value {
                    Some(e) => Some(self.expr(e, out)?),
                    None => None,
                };
                out.push(Stmt::Return { value, span: *span });
            }
            Stmt::Break { .. } | Stmt::Continue { .. } => out.push(s.clone()),
            Stmt::Check { cond, span } => {
                let cond = self.expr(cond, out)?;
                out.push(Stmt::Check { cond, span: *span });
            }
            Stmt::Expr { expr, span } => {
                // A bare call statement keeps its call as root.
                match expr {
                    Expr::Call {
                        name: callee,
                        args,
                        span: cspan,
                    } => {
                        let args = self.hoist_args(args, out)?;
                        out.push(Stmt::Expr {
                            expr: Expr::Call {
                                name: callee.clone(),
                                args,
                                span: *cspan,
                            },
                            span: *span,
                        });
                    }
                    e => {
                        let e = self.expr(e, out)?;
                        out.push(Stmt::Expr {
                            expr: e,
                            span: *span,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn hoist_args(
        &mut self,
        args: &[Expr],
        out: &mut Vec<Stmt>,
    ) -> Result<Vec<Expr>, InstrumentError> {
        args.iter().map(|a| self.expr(a, out)).collect()
    }

    /// Rewrites an expression in value position: every user call inside is
    /// hoisted into a temp declared on `out`.
    fn expr(&mut self, e: &Expr, out: &mut Vec<Stmt>) -> Result<Expr, InstrumentError> {
        Ok(match e {
            Expr::Int { .. } | Expr::Null { .. } | Expr::Var { .. } => e.clone(),
            Expr::Load { ptr, index, span } => Expr::Load {
                ptr: Box::new(self.expr(ptr, out)?),
                index: Box::new(self.expr(index, out)?),
                span: *span,
            },
            Expr::Call { name, args, span } => {
                let args = self.hoist_args(args, out)?;
                let call = Expr::Call {
                    name: name.clone(),
                    args,
                    span: *span,
                };
                if is_user_call(name, self.info) {
                    let sig = &self.info.signatures[name];
                    let ty = sig.ret.ok_or_else(|| {
                        InstrumentError::new(format!(
                            "function `{}` at {span}: procedure `{name}` used in value position",
                            self.function
                        ))
                    })?;
                    let temp = self.fresh();
                    out.push(Stmt::Decl {
                        ty,
                        name: temp.clone(),
                        init: Some(call),
                        span: *span,
                    });
                    Expr::Var {
                        name: temp,
                        span: *span,
                    }
                } else {
                    call
                }
            }
            Expr::Unary { op, expr, span } => Expr::Unary {
                op: *op,
                expr: Box::new(self.expr(expr, out)?),
                span: *span,
            },
            Expr::Binary { op, lhs, rhs, span } => {
                if op.is_logical() && contains_user_call(rhs, self.info) {
                    return Err(InstrumentError::new(format!(
                        "function `{}` at {span}: user call under short-circuit `{op}` \
                         cannot be flattened without changing semantics",
                        self.function
                    )));
                }
                Expr::Binary {
                    op: *op,
                    lhs: Box::new(self.expr(lhs, out)?),
                    rhs: Box::new(self.expr(rhs, out)?),
                    span: *span,
                }
            }
        })
    }
}

/// True when, after flattening, the statement is a user-call root:
/// `x = f(…);`, `int x = f(…);`, or `f(…);`.
#[cfg(test)]
fn user_call_root<'a>(s: &'a Stmt, info: &ProgramInfo) -> Option<&'a str> {
    let expr = match s {
        Stmt::Decl { init: Some(e), .. } => e,
        Stmt::Assign { value, .. } => value,
        Stmt::Expr { expr, .. } => expr,
        _ => return None,
    };
    match expr {
        Expr::Call { name, .. } if is_user_call(name, info) => Some(name),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_minic::{parse, pretty, resolve};

    fn flat(src: &str) -> (Program, String) {
        let p = parse(src).unwrap();
        let info = resolve(&p).unwrap();
        let q = flatten_calls(&p, &info).unwrap();
        let s = pretty(&q);
        (q, s)
    }

    #[test]
    fn leaves_root_calls_alone() {
        let (_, s) = flat(
            "fn f() -> int { return 1; } fn main() -> int { int x = f(); x = f(); f(); return x; }",
        );
        assert!(!s.contains("__t"), "no temps expected:\n{s}");
    }

    #[test]
    fn hoists_call_in_arithmetic() {
        let (q, s) =
            flat("fn f() -> int { return 1; } fn main() -> int { int x = f() + 2; return x; }");
        assert!(s.contains("int __t0 = f();"), "{s}");
        assert!(s.contains("int x = __t0 + 2;"), "{s}");
        // Result still resolves (instrumented namespace allowed).
        assert!(crate::resolve_instrumented(&q).is_ok());
    }

    #[test]
    fn hoists_nested_calls_in_order() {
        let (_, s) = flat(
            "fn g(int a) -> int { return a; } fn f(int a) -> int { return a; } \
             fn main() -> int { int x = f(g(1) + 1) * 2; return x; }",
        );
        let t0 = s.find("int __t0 = g(1);").expect(&s);
        let t1 = s.find("int __t1 = f(__t0 + 1);").expect(&s);
        assert!(t0 < t1);
        assert!(s.contains("int x = __t1 * 2;"), "{s}");
    }

    #[test]
    fn hoists_call_in_return_and_condition() {
        let (_, s) = flat(
            "fn f() -> int { return 1; } \
             fn main() -> int { if (f() > 0) { return f() + 1; } return 0; }",
        );
        assert!(s.contains("int __t0 = f();"), "{s}");
        assert!(s.contains("if (__t0 > 0)"), "{s}");
        assert!(s.contains("int __t1 = f();"), "{s}");
        assert!(s.contains("return __t1 + 1;"), "{s}");
    }

    #[test]
    fn hoists_calls_in_store_and_index() {
        let (_, s) = flat(
            "fn f() -> int { return 0; } \
             fn main() { ptr p = alloc(4); p[f()] = f(); }",
        );
        assert!(s.contains("int __t0 = f();"), "{s}");
        assert!(s.contains("int __t1 = f();"), "{s}");
        assert!(s.contains("p[__t0] = __t1;"), "{s}");
    }

    #[test]
    fn builtins_stay_inline() {
        let (_, s) = flat("fn main() -> int { int x = len(alloc(3)) + read(); return x; }");
        assert!(!s.contains("__t"), "{s}");
    }

    #[test]
    fn rejects_call_in_while_condition() {
        let p = parse("fn f() -> int { return 0; } fn main() { while (f() < 3) { } }").unwrap();
        let info = resolve(&p).unwrap();
        let err = flatten_calls(&p, &info).unwrap_err();
        assert!(err.to_string().contains("while"));
    }

    #[test]
    fn rejects_call_under_short_circuit() {
        let p = parse("fn f() -> int { return 0; } fn main() -> int { return 1 && f(); }").unwrap();
        let info = resolve(&p).unwrap();
        let err = flatten_calls(&p, &info).unwrap_err();
        assert!(err.to_string().contains("short-circuit"));
    }

    #[test]
    fn allows_call_on_short_circuit_lhs() {
        let (_, s) = flat("fn f() -> int { return 0; } fn main() -> int { return f() && 1; }");
        assert!(s.contains("__t0 && 1"), "{s}");
    }

    #[test]
    fn rejects_procedure_in_value_position() {
        let p = parse("fn f() {} fn main() -> int { return f() + 1; }").unwrap();
        // Resolver already allows `f()` only in statement position; build the
        // program manually to hit the normalize-time diagnostic.
        let info = resolve(&parse("fn f() {} fn main() -> int { return 1; }").unwrap()).unwrap();
        let err = flatten_calls(&p, &info);
        assert!(err.is_err());
    }

    #[test]
    fn user_call_root_detection() {
        let p = parse(
            "fn f() -> int { return 0; } \
             fn main() { int a = f(); a = f(); f(); print(a); }",
        )
        .unwrap();
        let info = resolve(&p).unwrap();
        let main = p.function("main").unwrap();
        assert_eq!(user_call_root(&main.body.stmts[0], &info), Some("f"));
        assert_eq!(user_call_root(&main.body.stmts[1], &info), Some("f"));
        assert_eq!(user_call_root(&main.body.stmts[2], &info), Some("f"));
        assert_eq!(user_call_root(&main.body.stmts[3], &info), None);
    }

    #[test]
    fn flattening_is_idempotent() {
        let src = "fn g(int a) -> int { return a; } \
                   fn main() -> int { int x = g(g(2)) + g(3); return x; }";
        let p = parse(src).unwrap();
        let info = resolve(&p).unwrap();
        let once = flatten_calls(&p, &info).unwrap();
        let twice = flatten_calls(&once, &info).unwrap();
        assert_eq!(pretty(&once), pretty(&twice));
    }
}
