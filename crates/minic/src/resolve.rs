//! Name resolution and static checking for MiniC.
//!
//! The resolver enforces:
//!
//! * no duplicate globals, functions, parameters, or locals — and no
//!   shadowing within a function (the scalar-pairs instrumentation scheme
//!   identifies variables by name within a function, so names must be
//!   unambiguous).  The one exception is the two arms of a sampling
//!   threshold check ([`Sample::Threshold`]): they are clones of one
//!   region on mutually exclusive paths, so each may declare the same
//!   local with the same type;
//! * all variable references are in scope, all calls resolve to a defined
//!   function or builtin with matching arity;
//! * gradual typing: `int` and `ptr` are checked everywhere statically
//!   decidable; heap loads have unknown type and unify with anything
//!   (the VM re-checks dynamically);
//! * `break`/`continue` appear only inside loops; a program intended to run
//!   must define `main`.
//!
//! On success it returns [`ProgramInfo`] with the per-function variable
//! types that the instrumentation schemes need.

use crate::ast::*;
use crate::builtins::Builtin;
use crate::span::Span;
use crate::MiniCError;
use std::collections::HashMap;

/// Static type as used during checking: `Any` is the type of heap loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Ptr,
    Any,
}

impl Ty {
    fn of(t: Type) -> Ty {
        match t {
            Type::Int => Ty::Int,
            Type::Ptr => Ty::Ptr,
        }
    }

    fn accepts(self, other: Ty) -> bool {
        matches!(
            (self, other),
            (Ty::Any, _) | (_, Ty::Any) | (Ty::Int, Ty::Int) | (Ty::Ptr, Ty::Ptr)
        )
    }
}

impl std::fmt::Display for Ty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ty::Int => f.write_str("int"),
            Ty::Ptr => f.write_str("ptr"),
            Ty::Any => f.write_str("<heap>"),
        }
    }
}

/// A function signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSig {
    /// Parameter types, in order.
    pub params: Vec<Type>,
    /// Return type, or `None` for procedures.
    pub ret: Option<Type>,
}

/// Per-function static information.
#[derive(Debug, Clone, Default)]
pub struct FunctionInfo {
    /// Types of all parameters and locals, by (unique) name.
    pub var_types: HashMap<String, Type>,
}

/// Whole-program static information produced by [`resolve`].
#[derive(Debug, Clone, Default)]
pub struct ProgramInfo {
    /// Types of global variables.
    pub global_types: HashMap<String, Type>,
    /// Signatures of all defined functions.
    pub signatures: HashMap<String, FnSig>,
    /// Per-function variable tables.
    pub functions: HashMap<String, FunctionInfo>,
}

impl ProgramInfo {
    /// The static type of variable `var` as seen from inside `function`:
    /// locals/params first, then globals.
    pub fn var_type(&self, function: &str, var: &str) -> Option<Type> {
        self.functions
            .get(function)
            .and_then(|f| f.var_types.get(var).copied())
            .or_else(|| self.global_types.get(var).copied())
    }
}

/// Resolves and statically checks a program.
///
/// # Errors
///
/// Returns the first [`MiniCError`] found; the message names the offending
/// identifier and source position.
///
/// ```
/// let prog = cbi_minic::parse("fn main() -> int { return 0; }").unwrap();
/// let info = cbi_minic::resolve(&prog).unwrap();
/// assert!(info.signatures.contains_key("main"));
/// ```
pub fn resolve(program: &Program) -> Result<ProgramInfo, MiniCError> {
    let mut info = ProgramInfo::default();

    for g in &program.globals {
        if Builtin::from_name(&g.name).is_some() {
            return Err(err(
                g.span,
                format!("`{}` is a reserved builtin name", g.name),
            ));
        }
        if info.global_types.insert(g.name.clone(), g.ty).is_some() {
            return Err(err(g.span, format!("duplicate global `{}`", g.name)));
        }
    }

    for f in &program.functions {
        if Builtin::from_name(&f.name).is_some() {
            return Err(err(
                f.span,
                format!("function `{}` collides with a builtin", f.name),
            ));
        }
        let sig = FnSig {
            params: f.params.iter().map(|p| p.ty).collect(),
            ret: f.ret,
        };
        if info.signatures.insert(f.name.clone(), sig).is_some() {
            return Err(err(f.span, format!("duplicate function `{}`", f.name)));
        }
    }

    for f in &program.functions {
        let fi = check_function(f, &info)?;
        info.functions.insert(f.name.clone(), fi);
    }

    Ok(info)
}

fn err(span: Span, message: impl Into<String>) -> MiniCError {
    MiniCError::resolve(span, message)
}

struct Checker<'a> {
    info: &'a ProgramInfo,
    function: &'a Function,
    /// All variables declared so far in this function (uniqueness scope).
    vars: HashMap<String, Type>,
    loop_depth: usize,
}

fn check_function(f: &Function, info: &ProgramInfo) -> Result<FunctionInfo, MiniCError> {
    let mut ck = Checker {
        info,
        function: f,
        vars: HashMap::new(),
        loop_depth: 0,
    };
    for p in &f.params {
        if Builtin::from_name(&p.name).is_some() {
            return Err(err(
                p.span,
                format!("`{}` is a reserved builtin name", p.name),
            ));
        }
        if info.global_types.contains_key(&p.name) {
            return Err(err(
                p.span,
                format!("parameter `{}` shadows a global", p.name),
            ));
        }
        if ck.vars.insert(p.name.clone(), p.ty).is_some() {
            return Err(err(p.span, format!("duplicate parameter `{}`", p.name)));
        }
    }
    ck.block(&f.body)?;
    Ok(FunctionInfo { var_types: ck.vars })
}

impl Checker<'_> {
    fn lookup(&self, name: &str, span: Span) -> Result<Ty, MiniCError> {
        if let Some(t) = self.vars.get(name) {
            return Ok(Ty::of(*t));
        }
        if let Some(t) = self.info.global_types.get(name) {
            return Ok(Ty::of(*t));
        }
        Err(err(span, format!("undefined variable `{name}`")))
    }

    fn block(&mut self, b: &Block) -> Result<(), MiniCError> {
        for s in &b.stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), MiniCError> {
        match s {
            Stmt::Decl {
                ty,
                name,
                init,
                span,
            } => {
                if Builtin::from_name(name).is_some() {
                    return Err(err(*span, format!("`{name}` is a reserved builtin name")));
                }
                if self.info.global_types.contains_key(name) {
                    return Err(err(*span, format!("local `{name}` shadows a global")));
                }
                if let Some(init) = init {
                    let it = self.expr(init)?;
                    if !Ty::of(*ty).accepts(it) {
                        return Err(err(
                            *span,
                            format!("cannot initialize `{ty}` variable `{name}` with {it}"),
                        ));
                    }
                }
                self.declare(name, *ty, *span)
            }
            Stmt::Assign { name, value, span } => {
                let vt = self.lookup(name, *span)?;
                let et = self.expr(value)?;
                if !vt.accepts(et) {
                    return Err(err(
                        *span,
                        format!("cannot assign {et} to `{name}` of type {vt}"),
                    ));
                }
                Ok(())
            }
            Stmt::Store {
                target,
                index,
                value,
                span,
            } => {
                let tt = self.lookup(target, *span)?;
                if !tt.accepts(Ty::Ptr) {
                    return Err(err(
                        *span,
                        format!("store target `{target}` is not a pointer"),
                    ));
                }
                let it = self.expr(index)?;
                if !it.accepts(Ty::Int) {
                    return Err(err(*span, "store index must be an integer".to_string()));
                }
                self.expr(value)?;
                Ok(())
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                span,
            } => {
                let ct = self.expr(cond)?;
                if !ct.accepts(Ty::Int) {
                    return Err(err(*span, "if condition must be an integer".to_string()));
                }
                self.block(then_block)?;
                if let Some(e) = else_block {
                    self.block(e)?;
                }
                Ok(())
            }
            Stmt::While { cond, body, span } => {
                let ct = self.expr(cond)?;
                if !ct.accepts(Ty::Int) {
                    return Err(err(*span, "while condition must be an integer".to_string()));
                }
                self.loop_depth += 1;
                let r = self.block(body);
                self.loop_depth -= 1;
                r
            }
            Stmt::Return { value, span } => match (self.function.ret, value) {
                (None, None) => Ok(()),
                (None, Some(_)) => Err(err(
                    *span,
                    format!("procedure `{}` cannot return a value", self.function.name),
                )),
                (Some(t), None) => Err(err(
                    *span,
                    format!(
                        "function `{}` must return a value of type {t}",
                        self.function.name
                    ),
                )),
                (Some(t), Some(v)) => {
                    let vt = self.expr(v)?;
                    if !Ty::of(t).accepts(vt) {
                        return Err(err(
                            *span,
                            format!("returning {vt} from function of type {t}"),
                        ));
                    }
                    Ok(())
                }
            },
            Stmt::Break { span } | Stmt::Continue { span } => {
                if self.loop_depth == 0 {
                    Err(err(*span, "break/continue outside of a loop".to_string()))
                } else {
                    Ok(())
                }
            }
            Stmt::Check { cond, span } => {
                let ct = self.expr(cond)?;
                if !ct.accepts(Ty::Int) {
                    return Err(err(*span, "check condition must be an integer".to_string()));
                }
                Ok(())
            }
            Stmt::Expr { expr, span } => match expr {
                Expr::Call { .. } => self.expr(expr).map(|_| ()),
                _ => Err(err(
                    *span,
                    "expression statements must be calls".to_string(),
                )),
            },
            Stmt::Sample(s) => self.sample(s),
        }
    }

    fn declare(&mut self, name: &str, ty: Type, span: Span) -> Result<(), MiniCError> {
        if self.vars.insert(name.to_string(), ty).is_some() {
            return Err(err(
                span,
                format!("duplicate local `{name}` (MiniC forbids shadowing)"),
            ));
        }
        Ok(())
    }

    /// The countdown `reg` names must be in scope: the local one is
    /// declared by the function's [`Sample::Import`], the global one by
    /// the transformed program.
    fn countdown(&self, reg: Countdown) -> Result<(), MiniCError> {
        self.lookup(reg.name(), Span::synthesized()).map(|_| ())
    }

    fn sample(&mut self, s: &Sample) -> Result<(), MiniCError> {
        match s {
            Sample::Import => {
                self.countdown(Countdown::Global)?;
                self.declare(Countdown::Local.name(), Type::Int, Span::synthesized())
            }
            Sample::Reimport | Sample::Export => {
                self.countdown(Countdown::Global)?;
                self.countdown(Countdown::Local)
            }
            Sample::Dec { reg, .. } => self.countdown(*reg),
            Sample::Threshold {
                reg, fast, slow, ..
            } => {
                self.countdown(*reg)?;
                // Each arm sees the locals declared before the check; a
                // name both arms declare must have one type.
                let before = self.vars.clone();
                self.block(fast)?;
                let fast_vars = std::mem::replace(&mut self.vars, before);
                self.block(slow)?;
                for (name, ty) in fast_vars {
                    if self.vars.insert(name.clone(), ty).is_some_and(|t| t != ty) {
                        let msg = format!("threshold arms declare `{name}` with two types");
                        return Err(err(Span::synthesized(), msg));
                    }
                }
                Ok(())
            }
            Sample::Guard { reg, obs, args } => {
                self.countdown(*reg)?;
                self.call(obs.builtin().name(), args, Span::synthesized())
                    .map(|_| ())
            }
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<Ty, MiniCError> {
        match e {
            Expr::Int { .. } => Ok(Ty::Int),
            Expr::Null { .. } => Ok(Ty::Ptr),
            Expr::Var { name, span } => self.lookup(name, *span),
            Expr::Load { ptr, index, span } => {
                let pt = self.expr(ptr)?;
                if !pt.accepts(Ty::Ptr) {
                    return Err(err(*span, "indexing a non-pointer".to_string()));
                }
                let it = self.expr(index)?;
                if !it.accepts(Ty::Int) {
                    return Err(err(*span, "index must be an integer".to_string()));
                }
                Ok(Ty::Any)
            }
            Expr::Call { name, args, span } => self.call(name, args, *span),
            Expr::Unary { op, expr, span } => {
                let t = self.expr(expr)?;
                if !t.accepts(Ty::Int) {
                    return Err(err(*span, format!("unary `{op}` needs an integer operand")));
                }
                Ok(Ty::Int)
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let lt = self.expr(lhs)?;
                let rt = self.expr(rhs)?;
                self.binary(*op, lt, rt, *span)
            }
        }
    }

    fn binary(&self, op: BinOp, lt: Ty, rt: Ty, span: Span) -> Result<Ty, MiniCError> {
        use BinOp::*;
        match op {
            Add | Sub => {
                // int ◦ int -> int; ptr + int -> ptr; ptr - int -> ptr;
                // ptr - ptr -> int.
                match (lt, rt) {
                    (Ty::Int, Ty::Int) => Ok(Ty::Int),
                    (Ty::Ptr, Ty::Int) => Ok(Ty::Ptr),
                    (Ty::Ptr, Ty::Ptr) if op == Sub => Ok(Ty::Int),
                    (Ty::Any, _) | (_, Ty::Any) => Ok(Ty::Any),
                    _ => Err(err(span, format!("invalid operands {lt} {op} {rt}"))),
                }
            }
            Mul | Div | Mod => {
                if lt.accepts(Ty::Int) && rt.accepts(Ty::Int) {
                    Ok(Ty::Int)
                } else {
                    Err(err(span, format!("invalid operands {lt} {op} {rt}")))
                }
            }
            Eq | Ne | Lt | Le | Gt | Ge => {
                if lt.accepts(rt) {
                    Ok(Ty::Int)
                } else {
                    Err(err(span, format!("comparing {lt} with {rt}")))
                }
            }
            And | Or => {
                if lt.accepts(Ty::Int) && rt.accepts(Ty::Int) {
                    Ok(Ty::Int)
                } else {
                    Err(err(span, format!("logical `{op}` needs integer operands")))
                }
            }
        }
    }

    fn call(&mut self, name: &str, args: &[Expr], span: Span) -> Result<Ty, MiniCError> {
        if let Some(b) = Builtin::from_name(name) {
            if args.len() != b.arity() {
                return Err(err(
                    span,
                    format!(
                        "builtin `{name}` expects {} argument(s), got {}",
                        b.arity(),
                        args.len()
                    ),
                ));
            }
            let arg_tys: Vec<Ty> = args
                .iter()
                .map(|a| self.expr(a))
                .collect::<Result<_, _>>()?;
            match b {
                Builtin::Alloc | Builtin::Print | Builtin::Exit => {
                    if !arg_tys[0].accepts(Ty::Int) {
                        return Err(err(span, format!("`{name}` needs an integer argument")));
                    }
                }
                Builtin::Free | Builtin::Len => {
                    if !arg_tys[0].accepts(Ty::Ptr) {
                        return Err(err(span, format!("`{name}` needs a pointer argument")));
                    }
                }
                Builtin::ObsCheck => {
                    if !arg_tys[0].accepts(Ty::Int) || !arg_tys[1].accepts(Ty::Int) {
                        return Err(err(span, format!("`{name}` needs integer arguments")));
                    }
                }
                Builtin::ObsSign => {
                    // The observed value may be an int or a pointer (§3.2.1
                    // groups pointer-returning calls too: null counts as
                    // zero, non-null as positive).
                    if !arg_tys[0].accepts(Ty::Int) {
                        return Err(err(
                            span,
                            "`__obs_sign` site id must be an integer".to_string(),
                        ));
                    }
                }
                Builtin::ObsCmp => {
                    if !arg_tys[0].accepts(Ty::Int) {
                        return Err(err(span, "`__cmp` site id must be an integer".to_string()));
                    }
                    if !arg_tys[1].accepts(arg_tys[2]) {
                        return Err(err(
                            span,
                            "`__cmp` operands must have matching types".to_string(),
                        ));
                    }
                }
                Builtin::Read | Builtin::HasInput => {}
            }
            return Ok(b.ret().map_or(Ty::Any, Ty::of));
        }

        let sig = self
            .info
            .signatures
            .get(name)
            .ok_or_else(|| err(span, format!("call to undefined function `{name}`")))?
            .clone();
        if sig.params.len() != args.len() {
            return Err(err(
                span,
                format!(
                    "function `{name}` expects {} argument(s), got {}",
                    sig.params.len(),
                    args.len()
                ),
            ));
        }
        for (a, pt) in args.iter().zip(&sig.params) {
            let at = self.expr(a)?;
            if !Ty::of(*pt).accepts(at) {
                return Err(err(
                    a.span(),
                    format!("argument type {at} does not match parameter type {pt}"),
                ));
            }
        }
        Ok(sig.ret.map_or(Ty::Any, Ty::of))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn ok(src: &str) -> ProgramInfo {
        let p = parse(src).unwrap();
        resolve(&p).unwrap_or_else(|e| panic!("resolve failed: {e}\nsource:\n{src}"))
    }

    fn fails(src: &str) -> String {
        let p = parse(src).unwrap();
        resolve(&p).unwrap_err().to_string()
    }

    #[test]
    fn accepts_well_typed_program() {
        let info = ok("int g = 1;\n\
             fn add(int a, int b) -> int { return a + b; }\n\
             fn main() -> int { int x = add(g, 2); return x; }");
        assert_eq!(info.signatures.len(), 2);
        assert_eq!(info.var_type("main", "x"), Some(Type::Int));
        assert_eq!(info.var_type("main", "g"), Some(Type::Int));
    }

    #[test]
    fn rejects_duplicate_global() {
        assert!(fails("int a; int a;").contains("duplicate global"));
    }

    #[test]
    fn rejects_duplicate_function() {
        assert!(fails("fn f() {} fn f() {}").contains("duplicate function"));
    }

    #[test]
    fn rejects_duplicate_local_and_shadowing() {
        assert!(fails("fn f() { int x; int x; }").contains("duplicate local"));
        assert!(fails("int g; fn f() { int g; }").contains("shadows a global"));
        assert!(fails("int g; fn f(int g) {}").contains("shadows a global"));
        assert!(fails("fn f(int a, int a) {}").contains("duplicate parameter"));
    }

    #[test]
    fn rejects_undefined_names() {
        assert!(fails("fn f() -> int { return y; }").contains("undefined variable"));
        assert!(fails("fn f() { g(); }").contains("undefined function"));
    }

    #[test]
    fn rejects_arity_mismatch() {
        assert!(fails("fn g(int a) {} fn f() { g(); }").contains("expects 1"));
        assert!(fails("fn f() { print(1, 2); }").contains("expects 1"));
    }

    #[test]
    fn rejects_type_mismatches() {
        assert!(fails("fn f() { int x = null; }").contains("cannot initialize"));
        assert!(fails("fn f(ptr p) { int x = p; }").contains("cannot initialize"));
        assert!(fails("fn f(ptr p) -> int { return p * 2; }").contains("invalid operands"));
        assert!(fails("fn f(ptr p, int i) -> int { return p == i; }").contains("comparing"));
        assert!(fails("fn f(int i) { free(i); }").contains("pointer argument"));
        assert!(fails("fn f(ptr p) { print(p); }").contains("integer argument"));
    }

    #[test]
    fn pointer_arithmetic_rules() {
        ok("fn f(ptr p, int i) -> ptr { return p + i; }");
        ok("fn f(ptr p, ptr q) -> int { return p - q; }");
        ok("fn f(ptr p) -> int { return p == null; }");
        ok("fn f(ptr p, ptr q) -> int { return p < q; }");
        assert!(fails("fn f(ptr p, ptr q) -> ptr { return p + q; }").contains("invalid operands"));
    }

    #[test]
    fn heap_loads_are_gradually_typed() {
        // Loads unify with both int and ptr contexts.
        ok("fn f(ptr p) -> int { int x = p[0]; return x; }");
        ok("fn f(ptr p) -> ptr { ptr q = p[0]; return q; }");
        ok("fn f(ptr p) { p[0] = p[1]; p[2] = null; p[3] = 7; }");
    }

    #[test]
    fn rejects_break_outside_loop() {
        assert!(fails("fn f() { break; }").contains("outside"));
        ok("fn f() { while (1) { break; } }");
    }

    #[test]
    fn rejects_return_mismatches() {
        assert!(fails("fn f() { return 1; }").contains("cannot return a value"));
        assert!(fails("fn f() -> int { return; }").contains("must return"));
        assert!(fails("fn f() -> int { return null; }").contains("returning"));
    }

    #[test]
    fn rejects_reserved_names() {
        assert!(fails("int alloc;").contains("reserved"));
        assert!(fails("fn print() {}").contains("collides"));
        assert!(fails("fn f() { int read; }").contains("reserved"));
        assert!(fails("fn f(int len) {}").contains("reserved"));
    }

    #[test]
    fn runtime_builtins_type_check() {
        ok("fn f(int s, ptr p, ptr q) { __check(s, p != null); __cmp(s, p, q); __obs_sign(s, 3); }");
        assert!(fails("fn f() -> int { return __next_cd(); }")
            .contains("call to undefined function `__next_cd`"));
        assert!(fails("fn f(ptr p, int i) { __cmp(0, p, i); }").contains("matching types"));
    }

    #[test]
    fn only_a_threshold_checks_arms_may_redeclare_a_local() {
        assert!(
            fails("fn f(int x) { if (x > 0) { int y = 1; } else { int y = 2; } }")
                .contains("duplicate local `y`")
        );
        // The same arms under a threshold check on the countdown.
        let src = "int __gcd;\n\
            fn f(int x) { int __cd = __gcd; if (__cd > 1) { int y = 1; } else { int y = 2; } \
            x = y; __gcd = __cd; }";
        assert!(matches!(
            parse(src).unwrap().functions[0].body.stmts[1],
            Stmt::Sample(Sample::Threshold { .. })
        ));
        assert_eq!(ok(src).var_type("f", "y"), Some(Type::Int));
        assert!(fails(
            "int __gcd; fn f() { int __cd = __gcd; if (__cd > 1) { int y; } else { ptr y; } }"
        )
        .contains("threshold arms declare `y` with two types"));
        // Each arm sees only what was declared before the check.
        assert!(fails(
            "int __gcd; fn f() { int __cd = __gcd; if (__cd > 1) { int y; } else { y = 1; } }"
        )
        .contains("undefined variable `y`"));
    }

    #[test]
    fn store_checks() {
        assert!(fails("fn f(int x) { x[0] = 1; }").contains("not a pointer"));
        assert!(fails("fn f(ptr p, ptr q) { p[q] = 1; }").contains("index must be an integer"));
    }
}
