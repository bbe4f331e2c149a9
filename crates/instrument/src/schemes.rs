//! Instrumentation schemes: what gets observed, and where.
//!
//! A scheme takes a resolved program and inserts observation-site
//! statements, returning the instrumented program together with its
//! [`SiteTable`].  The paper uses three schemes; a fourth (`branches`) is
//! included as an extension in the spirit of the CBI follow-on work:
//!
//! * [`Scheme::Checks`] — CCured-style safety checks (§3.1): user
//!   `check(...)` assertions become counted assertion sites, and every
//!   pure heap load/store grows a bounds-and-null check site;
//! * [`Scheme::Returns`] — function-return sign triples (§3.2.1): after
//!   every call whose result is consumed, record whether the value was
//!   negative, zero, or positive;
//! * [`Scheme::ScalarPairs`] — after every direct assignment to a scalar
//!   `a`, compare `a` with every other in-scope variable of the same type
//!   (§3.3.1); pointers are additionally compared against `null`;
//! * [`Scheme::Branches`] — record each branch condition's truth value.
//!
//! All schemes first run [`crate::normalize::flatten_calls`] so user calls
//! sit at statement roots.

use crate::normalize::flatten_calls;
use crate::sites::{SiteKind, SiteTable};
use crate::InstrumentError;
use cbi_minic::ast::*;
use cbi_minic::pretty::print_expr;
use cbi_minic::resolve::ProgramInfo;
use cbi_minic::{resolve, Builtin, Span};

/// Which observation scheme to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Memory-safety checks and user assertions (§3.1).
    Checks,
    /// Function-return sign triples (§3.2).
    Returns,
    /// Scalar-pair comparisons (§3.3).
    ScalarPairs,
    /// Branch-direction observations (extension).
    Branches,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Scheme::Checks => "checks",
            Scheme::Returns => "returns",
            Scheme::ScalarPairs => "scalar-pairs",
            Scheme::Branches => "branches",
        };
        f.write_str(s)
    }
}

/// An instrumented program: the rewritten AST plus its site table.
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// The program with observation statements inserted (unconditional
    /// instrumentation; apply [`crate::transform::apply_sampling`] to make
    /// it sampled).
    pub program: Program,
    /// The sites, in id order, defining the report counter layout.
    pub sites: SiteTable,
    /// The scheme that produced this instrumentation.
    pub scheme: Scheme,
}

/// Applies `scheme` to `program`.
///
/// # Errors
///
/// Returns [`InstrumentError`] if call flattening fails (user calls in
/// `while` conditions or under short-circuit operators) or if the program
/// does not resolve.
pub fn instrument(program: &Program, scheme: Scheme) -> Result<Instrumented, InstrumentError> {
    let info =
        resolve(program).map_err(|e| InstrumentError::new(format!("resolve failed: {e}")))?;
    let flat = flatten_calls(program, &info)?;
    // Re-resolve: flattening introduced typed temporaries.
    let info = resolve(&flat)
        .map_err(|e| InstrumentError::new(format!("post-flattening resolve failed: {e}")))?;

    let mut sites = SiteTable::new();
    let mut out = flat.clone();
    for f in &mut out.functions {
        let mut cx = SchemeCx {
            sites: &mut sites,
            info: &info,
            function: f.name.clone(),
            scope: Scope::new(&flat, &info, f),
        };
        f.body = match scheme {
            Scheme::Checks => cx.checks_block(&f.body),
            Scheme::Returns => cx.returns_block(&f.body),
            Scheme::ScalarPairs => cx.pairs_block(&f.body),
            Scheme::Branches => cx.branches_block(&f.body),
        };
    }
    Ok(Instrumented {
        program: out,
        sites,
        scheme,
    })
}

/// Tracks which variables are in scope, in deterministic order, for the
/// scalar-pairs scheme.
struct Scope {
    /// (name, type), globals first, then params, then locals as declared.
    vars: Vec<(String, Type)>,
    /// Stack of `vars` lengths at block entry, for popping.
    marks: Vec<usize>,
}

impl Scope {
    fn new(program: &Program, _info: &ProgramInfo, f: &Function) -> Scope {
        let mut vars: Vec<(String, Type)> = program
            .globals
            .iter()
            .map(|g| (g.name.clone(), g.ty))
            .collect();
        vars.extend(f.params.iter().map(|p| (p.name.clone(), p.ty)));
        Scope {
            vars,
            marks: Vec::new(),
        }
    }

    fn push(&mut self) {
        self.marks.push(self.vars.len());
    }

    fn pop(&mut self) {
        let mark = self.marks.pop().expect("scope underflow");
        self.vars.truncate(mark);
    }

    fn declare(&mut self, name: &str, ty: Type) {
        self.vars.push((name.to_string(), ty));
    }

    /// Other in-scope variables with the given type, excluding `subject`
    /// and compiler-generated (`__`-prefixed) names.
    fn peers(&self, subject: &str, ty: Type) -> Vec<String> {
        self.vars
            .iter()
            .filter(|(n, t)| *t == ty && n != subject && !n.starts_with("__"))
            .map(|(n, _)| n.clone())
            .collect()
    }
}

struct SchemeCx<'a> {
    sites: &'a mut SiteTable,
    info: &'a ProgramInfo,
    function: String,
    scope: Scope,
}

impl SchemeCx<'_> {
    fn site_call(
        &mut self,
        kind: SiteKind,
        span: Span,
        text: String,
        builtin: Builtin,
        args: Vec<Expr>,
    ) -> Stmt {
        let id = self.sites.add(&self.function, span, kind, text);
        let mut full_args = vec![Expr::int(id.0 as i64)];
        full_args.extend(args);
        Stmt::Expr {
            expr: Expr::call(builtin.name(), full_args),
            span,
        }
    }

    // ---- checks scheme (§3.1) ----

    fn checks_block(&mut self, b: &Block) -> Block {
        let mut out = Vec::with_capacity(b.stmts.len());
        for s in &b.stmts {
            match s {
                Stmt::Check { cond, span } => {
                    // User assertion: becomes a counted check site.
                    let text = print_expr(cond);
                    out.push(self.site_call(
                        SiteKind::Assert,
                        *span,
                        text,
                        Builtin::ObsCheck,
                        vec![cond.clone()],
                    ));
                }
                Stmt::Store {
                    target,
                    index,
                    value,
                    span,
                } => {
                    self.push_load_checks(value, &mut out);
                    if is_pure(index) {
                        out.push(self.bounds_site(
                            Expr::var(target.clone()),
                            index.clone(),
                            *span,
                            &mut Vec::new(),
                        ));
                    }
                    out.push(s.clone());
                }
                Stmt::Assign { value, .. }
                | Stmt::Decl {
                    init: Some(value), ..
                } => {
                    self.push_load_checks(value, &mut out);
                    out.push(s.clone());
                }
                Stmt::Return {
                    value: Some(value), ..
                } => {
                    self.push_load_checks(value, &mut out);
                    out.push(s.clone());
                }
                Stmt::Expr { expr, .. } => {
                    // Loads inside call arguments, e.g. `print(a[0]);`.
                    self.push_load_checks(expr, &mut out);
                    out.push(s.clone());
                }
                other => out.push(other.with_blocks(|b| self.checks_block(b))),
            }
        }
        Block::new(out)
    }

    /// Emits a bounds-check site for every pure load in `e`, inner loads
    /// first.
    fn push_load_checks(&mut self, e: &Expr, out: &mut Vec<Stmt>) {
        let mut checks = Vec::new();
        collect_loads(e, &mut checks);
        for (ptr, index, span) in checks {
            if is_pure(&ptr) && is_pure(&index) {
                let site = self.bounds_site(ptr, index, span, &mut Vec::new());
                out.push(site);
            }
        }
    }

    fn bounds_site(
        &mut self,
        ptr: Expr,
        index: Expr,
        span: Span,
        _scratch: &mut Vec<Stmt>,
    ) -> Stmt {
        let text = format!("0 <= {} < len({})", print_expr(&index), print_expr(&ptr));
        // ptr != null && index >= 0 && index < len(ptr)
        let cond = Expr::binary(
            BinOp::And,
            Expr::binary(
                BinOp::And,
                Expr::binary(
                    BinOp::Ne,
                    ptr.clone(),
                    Expr::Null {
                        span: Span::synthesized(),
                    },
                ),
                Expr::binary(BinOp::Ge, index.clone(), Expr::int(0)),
            ),
            Expr::binary(BinOp::Lt, index, Expr::call("len", vec![ptr])),
        );
        self.site_call(SiteKind::Bounds, span, text, Builtin::ObsCheck, vec![cond])
    }

    // ---- returns scheme (§3.2) ----

    fn returns_block(&mut self, b: &Block) -> Block {
        let mut out = Vec::with_capacity(b.stmts.len());
        for s in &b.stmts {
            match s {
                Stmt::Decl {
                    name,
                    init:
                        Some(Expr::Call {
                            name: callee,
                            span: cspan,
                            ..
                        }),
                    ..
                }
                | Stmt::Assign {
                    name,
                    value:
                        Expr::Call {
                            name: callee,
                            span: cspan,
                            ..
                        },
                    ..
                } if self.observable_call(callee) => {
                    let span = *cspan;
                    let callee = callee.clone();
                    let name = name.clone();
                    out.push(s.clone());
                    let site = self.site_call(
                        SiteKind::ReturnSign,
                        span,
                        format!("{callee}()"),
                        Builtin::ObsSign,
                        vec![Expr::var(name)],
                    );
                    out.push(site);
                }
                other => out.push(other.with_blocks(|b| self.returns_block(b))),
            }
        }
        Block::new(out)
    }

    /// A call site is observable for the `returns` scheme when it is a user
    /// function returning a scalar (`int` or `ptr`).
    fn observable_call(&self, callee: &str) -> bool {
        if Builtin::from_name(callee).is_some() {
            return false;
        }
        self.info
            .signatures
            .get(callee)
            .is_some_and(|sig| sig.ret.is_some())
    }

    // ---- scalar-pairs scheme (§3.3) ----

    fn pairs_block(&mut self, b: &Block) -> Block {
        self.scope.push();
        let mut out = Vec::with_capacity(b.stmts.len());
        for s in &b.stmts {
            match s {
                Stmt::Decl {
                    ty,
                    name,
                    init,
                    span,
                } => {
                    out.push(s.clone());
                    // The variable enters scope; if initialized, the
                    // initialization is a direct assignment and is observed.
                    if init.is_some() {
                        self.emit_pair_sites(name, *ty, *span, &mut out);
                    }
                    self.scope.declare(name, *ty);
                }
                Stmt::Assign { name, span, .. } => {
                    out.push(s.clone());
                    if let Some(ty) = self.var_type(name) {
                        self.emit_pair_sites(name, ty, *span, &mut out);
                    }
                }
                other => out.push(other.with_blocks(|b| self.pairs_block(b))),
            }
        }
        self.scope.pop();
        Block::new(out)
    }

    fn var_type(&self, name: &str) -> Option<Type> {
        self.info.var_type(&self.function, name)
    }

    fn emit_pair_sites(&mut self, a: &str, ty: Type, span: Span, out: &mut Vec<Stmt>) {
        if a.starts_with("__") {
            return; // compiler temporaries are not source assignments
        }
        for b in self.scope.peers(a, ty) {
            let site = self.site_call(
                SiteKind::ScalarPair,
                span,
                format!("{a}\u{1}{b}"),
                Builtin::ObsCmp,
                vec![Expr::var(a), Expr::var(b)],
            );
            out.push(site);
        }
        if ty == Type::Ptr {
            let site = self.site_call(
                SiteKind::ScalarPair,
                span,
                format!("{a}\u{1}null"),
                Builtin::ObsCmp,
                vec![
                    Expr::var(a),
                    Expr::Null {
                        span: Span::synthesized(),
                    },
                ],
            );
            out.push(site);
        }
    }

    // ---- branches scheme (extension) ----

    fn branches_block(&mut self, b: &Block) -> Block {
        let mut out = Vec::with_capacity(b.stmts.len());
        for s in &b.stmts {
            if let Stmt::If { cond, span, .. } | Stmt::While { cond, span, .. } = s {
                if is_pure(cond) {
                    out.push(self.branch_site(cond, *span));
                }
            }
            out.push(s.with_blocks(|b| self.branches_block(b)));
        }
        Block::new(out)
    }

    fn branch_site(&mut self, cond: &Expr, span: Span) -> Stmt {
        let text = print_expr(cond);
        // Observe the sign of the 0/1 truth of `cond`: zero = branch not
        // taken, positive = taken.  A comparison, `&&`, `||` or `!` is
        // that truth already; any other integer needs `!= 0`, or a
        // negative one would read as its own sign class.
        let value = match cond {
            Expr::Binary { op, .. } if op.is_comparison() || op.is_logical() => cond.clone(),
            Expr::Unary { op: UnOp::Not, .. } => cond.clone(),
            _ => Expr::binary(BinOp::Ne, cond.clone(), Expr::int(0)),
        };
        self.site_call(SiteKind::Branch, span, text, Builtin::ObsSign, vec![value])
    }
}

/// Collects `(ptr, index, span)` for every load in `e`, inner-most first.
fn collect_loads(e: &Expr, out: &mut Vec<(Expr, Expr, Span)>) {
    match e {
        Expr::Int { .. } | Expr::Null { .. } | Expr::Var { .. } => {}
        Expr::Load { ptr, index, span } => {
            collect_loads(ptr, out);
            collect_loads(index, out);
            out.push(((**ptr).clone(), (**index).clone(), *span));
        }
        Expr::Call { args, .. } => {
            for a in args {
                collect_loads(a, out);
            }
        }
        Expr::Unary { expr, .. } => collect_loads(expr, out),
        Expr::Binary { lhs, rhs, .. } => {
            collect_loads(lhs, out);
            collect_loads(rhs, out);
        }
    }
}

/// An expression is pure when it contains no calls at all: evaluating it
/// twice (once inside a check, once in the original statement) is safe.
fn is_pure(e: &Expr) -> bool {
    !e.any(&mut |x| matches!(x, Expr::Call { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::site_stmt;
    use cbi_minic::{parse, pretty, resolve};

    fn run(src: &str, scheme: Scheme) -> (Instrumented, String) {
        let p = parse(src).unwrap();
        let inst = instrument(&p, scheme).unwrap();
        resolve(&inst.program).unwrap_or_else(|e| {
            panic!(
                "instrumented program fails resolve: {e}\n{}",
                pretty(&inst.program)
            )
        });
        let s = pretty(&inst.program);
        (inst, s)
    }

    #[test]
    fn checks_lowers_user_assertions() {
        let (inst, s) = run(
            "fn f(ptr p, int i, int max) { check(p != null); check(i < max); }",
            Scheme::Checks,
        );
        assert_eq!(inst.sites.len(), 2);
        assert!(s.contains("__check(0, p != null);"), "{s}");
        assert!(s.contains("__check(1, i < max);"), "{s}");
        assert_eq!(inst.sites.total_counters(), 4);
    }

    #[test]
    fn checks_instruments_stores_and_loads() {
        let (inst, s) = run("fn f(ptr p, int i) { p[i] = p[i + 1]; }", Scheme::Checks);
        // One bounds site for the load `p[i + 1]`, one for the store `p[i]`.
        assert_eq!(inst.sites.len(), 2);
        assert!(s.contains("len(p)"), "{s}");
        // Load check precedes store check precedes the store.
        let store = s.find("p[i] = ").unwrap();
        let first_check = s.find("__check(0").unwrap();
        assert!(first_check < store, "{s}");
    }

    #[test]
    fn checks_skips_impure_indices() {
        let (inst, _) = run("fn f(ptr p) { p[read()] = 1; }", Scheme::Checks);
        assert_eq!(inst.sites.len(), 0, "impure index must not be re-evaluated");
    }

    #[test]
    fn returns_observes_call_results() {
        let (inst, s) = run(
            "fn g() -> int { return -1; } fn f() { int x = g(); x = g(); }",
            Scheme::Returns,
        );
        assert_eq!(inst.sites.len(), 2);
        assert!(s.contains("__obs_sign(0, x);"), "{s}");
        assert!(s.contains("__obs_sign(1, x);"), "{s}");
        let site = inst.sites.site(crate::sites::SiteId(0));
        assert_eq!(
            site.predicate_name(2),
            format!("{} f(): g() > 0", site.span)
        );
    }

    #[test]
    fn returns_observes_nested_calls_via_temps() {
        let (inst, s) = run(
            "fn g() -> int { return 1; } fn f() -> int { return g() + g(); }",
            Scheme::Returns,
        );
        assert_eq!(inst.sites.len(), 2);
        assert!(s.contains("__obs_sign(0, __t0);"), "{s}");
        assert!(s.contains("__obs_sign(1, __t1);"), "{s}");
    }

    #[test]
    fn returns_observes_pointer_returning_calls() {
        let (inst, _) = run(
            "fn g() -> ptr { return null; } fn f() { ptr p = g(); free(p); }",
            Scheme::Returns,
        );
        assert_eq!(inst.sites.len(), 1);
    }

    #[test]
    fn returns_skips_builtins_and_procedures() {
        let (inst, _) = run(
            "fn p() { print(0); } fn f() { int x = read(); p(); ptr q = alloc(3); free(q); }",
            Scheme::Returns,
        );
        assert_eq!(inst.sites.len(), 0);
    }

    #[test]
    fn pairs_compares_against_in_scope_same_type() {
        let (inst, s) = run(
            "int g1 = 5;\n\
             fn f(int a) { int b = a + 1; int c = b * 2; }",
            Scheme::ScalarPairs,
        );
        // b's assignment compares with {g1, a}; c's with {g1, a, b}.
        assert_eq!(inst.sites.len(), 5);
        assert!(s.contains("__cmp(0, b, g1);"), "{s}");
        assert!(s.contains("__cmp(1, b, a);"), "{s}");
        assert!(s.contains("__cmp(2, c, g1);"), "{s}");
        assert!(s.contains("__cmp(3, c, a);"), "{s}");
        assert!(s.contains("__cmp(4, c, b);"), "{s}");
    }

    #[test]
    fn pairs_respects_type_partition() {
        let (inst, s) = run(
            "fn f(int a, ptr p) { int b = a; ptr q = p; }",
            Scheme::ScalarPairs,
        );
        // b compares with a only; q compares with p and null.
        assert_eq!(inst.sites.len(), 3);
        assert!(s.contains("__cmp(0, b, a);"), "{s}");
        assert!(s.contains("__cmp(1, q, p);"), "{s}");
        assert!(s.contains("__cmp(2, q, null);"), "{s}");
    }

    #[test]
    fn pairs_scope_is_position_sensitive() {
        let (inst, _) = run(
            "fn f() { int a = 1; if (a > 0) { int b = 2; } int c = 3; }",
            Scheme::ScalarPairs,
        );
        // a: no peers.  b: {a}.  c: {a} (b went out of scope).
        assert_eq!(inst.sites.len(), 2);
        let names: Vec<String> = inst.sites.iter().map(|s| s.text.clone()).collect();
        assert_eq!(names, vec!["b\u{1}a", "c\u{1}a"]);
    }

    #[test]
    fn pairs_skips_temporaries() {
        let (inst, _) = run(
            "fn g() -> int { return 1; } fn f(int a) { int x = g() + 1; }",
            Scheme::ScalarPairs,
        );
        // __t0 = g() is not observed; x = __t0 + 1 compares with {a} only.
        let texts: Vec<String> = inst.sites.iter().map(|s| s.text.clone()).collect();
        assert_eq!(texts, vec!["x\u{1}a"]);
    }

    #[test]
    fn pairs_counts_match_paper_structure() {
        // The paper's bc run has 10,050 triples = 30,150 counters; verify
        // the 3-counters-per-site invariant.
        let (inst, _) = run(
            "fn f(int a, int b, int c) { int d = a; d = b; d = c; }",
            Scheme::ScalarPairs,
        );
        assert_eq!(inst.sites.total_counters(), inst.sites.len() * 3);
    }

    #[test]
    fn branches_observes_conditions() {
        let (inst, s) = run(
            "fn f(int x) { if (x > 0) { print(x); } while (x < 9) { x = x + 1; } }",
            Scheme::Branches,
        );
        assert_eq!(inst.sites.len(), 2);
        // A comparison is already the 0/1 truth the site observes.
        assert!(s.contains("__obs_sign(0, x > 0);"), "{s}");
        assert!(s.contains("__obs_sign(1, x < 9);"), "{s}");
        // Any other integer condition is observed as `!= 0`, so a negative
        // value still reads as "taken".
        let (_, s) = run(
            "fn f(int x) { if (x - 1) { print(x); } if (!x || x == 2) { print(0); } }",
            Scheme::Branches,
        );
        assert!(s.contains("__obs_sign(0, x - 1 != 0);"), "{s}");
        assert!(s.contains("__obs_sign(1, !x || x == 2);"), "{s}");
    }

    #[test]
    fn all_schemes_produce_recognizable_sites() {
        for scheme in [
            Scheme::Checks,
            Scheme::Returns,
            Scheme::ScalarPairs,
            Scheme::Branches,
        ] {
            let (inst, _) = run(
                "fn g() -> int { return 2; } \
                 fn f(ptr p, int i) { check(i >= 0); int x = g(); if (x > 0) { p[i] = x; } }",
                scheme,
            );
            let mut found = 0;
            for f in &inst.program.functions {
                fn walk(b: &Block, found: &mut usize) {
                    for s in &b.stmts {
                        if site_stmt(s).is_some() {
                            *found += 1;
                        }
                        match s {
                            Stmt::If {
                                then_block,
                                else_block,
                                ..
                            } => {
                                walk(then_block, found);
                                if let Some(e) = else_block {
                                    walk(e, found);
                                }
                            }
                            Stmt::While { body, .. } => walk(body, found),
                            _ => {}
                        }
                    }
                }
                walk(&f.body, &mut found);
            }
            assert_eq!(found, inst.sites.len(), "scheme {scheme}");
        }
    }

    #[test]
    fn scheme_display_names() {
        assert_eq!(Scheme::Checks.to_string(), "checks");
        assert_eq!(Scheme::ScalarPairs.to_string(), "scalar-pairs");
    }
}
