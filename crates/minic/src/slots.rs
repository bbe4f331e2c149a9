//! Slot lowering: dense variable indices for the interpreter hot path.
//!
//! MiniC name lookup is dynamic (frame first, then globals, a miss
//! traps), which would cost a string hash on each variable read and
//! write.  This pass performs the name resolution once, statically:
//! every local (parameter or declaration) of a function is assigned a
//! dense *slot* index, every global a dense global index, and every
//! callee is resolved to a builtin or a function index.  The VM can then
//! execute with `Vec`-indexed frames.
//!
//! The pass reuses the scope discipline of [`crate::resolve`](mod@crate::resolve): frames are
//! function-flat (the resolver forbids shadowing, and a declaration is
//! visible for the remainder of the function once executed).  Crucially,
//! lowering is *purely syntactic* and total: it never rejects a program,
//! so even unresolved or deliberately ill-formed programs execute with
//! exactly the dynamic behavior a name-keyed frame would give —
//! including use-before-declaration traps and locals that fall back to a
//! same-named global until their declaration runs.  That is what
//! [`SlotRef`] encodes (`cbi-vm`'s `unresolved_name_lookup_edge_cases`
//! test pins the outcomes).

use crate::ast::*;
use crate::builtins::{Builtin, GLOBAL_COUNTDOWN, LOCAL_COUNTDOWN};
use std::collections::HashMap;

/// A statically resolved variable reference.
///
/// MiniC name lookup is dynamic: the frame is consulted first, then the
/// globals, and a miss is a runtime trap.  A local binding only exists
/// once its declaration has executed, so a reference to a name that is
/// declared *somewhere* in the function may still resolve to a global (or
/// trap) at run time.  Each variant captures one statically decidable
/// shape of that search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlotRef {
    /// Declared only in this function: read the frame slot, trap if the
    /// declaration has not executed yet.
    Local(u32),
    /// A global never shadowed in this function: direct global index.
    Global(u32),
    /// Declared locally *and* globally: frame slot if bound, else the
    /// global — exactly the frame-then-globals search order.
    LocalOrGlobal(u32, u32),
    /// No declaration anywhere: always a runtime trap (only unchecked
    /// programs contain one).
    Undefined(Box<str>),
}

/// A statically resolved callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Callee {
    /// A runtime builtin (builtins win over user functions, as in
    /// [`Builtin::from_name`]-first dispatch).
    Builtin(Builtin),
    /// Index into [`SlotProgram::functions`].
    Func(u32),
    /// Unknown callee: traps at call time.
    Undefined(Box<str>),
}

/// A lowered sampling statement: [`Sample`] over lowered blocks and
/// expressions.  Its `__cd` is the frame slot [`SlotFunction::cd_slot`],
/// its `__gcd` the global [`SlotProgram::gcd_global`].
pub type SlotSample = Sample<Vec<SlotStmt>, SlotExpr>;

/// A lowered statement.  Mirrors [`Stmt`] with names resolved to slots.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotStmt {
    /// Local declaration: binds the frame slot.
    Decl {
        /// Declared type (selects the zero value when uninitialized).
        ty: Type,
        /// Frame slot to bind.
        slot: u32,
        /// Optional initializer.
        init: Option<SlotExpr>,
    },
    /// Assignment to an existing binding.
    Assign {
        /// Resolved target.
        target: SlotRef,
        /// Value expression.
        value: SlotExpr,
    },
    /// Store through a pointer variable: `p[i] = e;`.
    Store {
        /// Resolved pointer variable.
        target: SlotRef,
        /// Index expression.
        index: SlotExpr,
        /// Value expression.
        value: SlotExpr,
    },
    /// Conditional.
    If {
        /// Condition (nonzero = true).
        cond: SlotExpr,
        /// Then branch.
        then_block: Vec<SlotStmt>,
        /// Optional else branch.
        else_block: Option<Vec<SlotStmt>>,
    },
    /// Loop.
    While {
        /// Loop condition.
        cond: SlotExpr,
        /// Loop body.
        body: Vec<SlotStmt>,
    },
    /// `return e;` / `return;`.
    Return {
        /// Returned value, if any.
        value: Option<SlotExpr>,
    },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// An un-lowered `check(...)` marker: inert at run time.
    Check,
    /// An expression evaluated for effect.
    Expr {
        /// The expression.
        expr: SlotExpr,
    },
    /// A sampling statement.
    Sample(SlotSample),
}

/// Whether control never falls off the end of `block`: its last
/// statement is a `return`, `break` or `continue`, or a conditional or
/// threshold check both of whose arms always exit ([`Block::always_exits`]
/// over the slot form).
pub fn always_exits(block: &[SlotStmt]) -> bool {
    match block.last() {
        Some(SlotStmt::Return { .. } | SlotStmt::Break | SlotStmt::Continue) => true,
        Some(
            SlotStmt::If {
                then_block,
                else_block: Some(else_block),
                ..
            }
            | SlotStmt::Sample(Sample::Threshold {
                fast: then_block,
                slow: else_block,
                ..
            }),
        ) => always_exits(then_block) && always_exits(else_block),
        _ => false,
    }
}

/// A lowered expression.  Mirrors [`Expr`] with variables and callees
/// resolved.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotExpr {
    /// Integer literal.
    Int(i64),
    /// The null pointer literal.
    Null,
    /// Resolved variable reference.
    Var(SlotRef),
    /// Heap load `p[i]`.
    Load {
        /// Pointer expression.
        ptr: Box<SlotExpr>,
        /// Index expression.
        index: Box<SlotExpr>,
    },
    /// Call with a resolved callee.
    Call {
        /// Resolved callee.
        callee: Callee,
        /// Actual arguments.
        args: Vec<SlotExpr>,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// Operand.
        expr: Box<SlotExpr>,
    },
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<SlotExpr>,
        /// Right operand.
        rhs: Box<SlotExpr>,
    },
}

/// A lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotFunction {
    /// Function name (diagnostics only).
    pub name: String,
    /// Number of parameters; they occupy slots `0..n_params`.
    pub n_params: u32,
    /// Total frame slots (parameters plus every declared local).
    pub n_slots: u32,
    /// Slot index → variable name, for trap messages.
    pub slot_names: Vec<String>,
    /// The slot of the local countdown `__cd`, when the function imports
    /// it ([`Sample::Import`]).
    pub cd_slot: Option<u32>,
    /// Return type, or `None` for procedures.
    pub ret: Option<Type>,
    /// Lowered body.
    pub body: Vec<SlotStmt>,
}

/// A lowered global.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotGlobal {
    /// Global name (diagnostics and countdown seeding).
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Constant initializer for `int` globals (`ptr` globals start null).
    pub init: i64,
}

/// A whole program lowered to slot form: the unit the slot-resolved VM
/// engine executes.  Produce one with [`lower`] and share it freely —
/// lowering once per campaign amortizes the pass over thousands of
/// trials.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotProgram {
    /// Globals, in declaration order (their indices are [`SlotRef`]
    /// global indices).
    pub globals: Vec<SlotGlobal>,
    /// Lowered functions, in source order.
    pub functions: Vec<SlotFunction>,
    /// Index of `main` (the first function of that name), if any.
    pub main: Option<u32>,
    /// Index of the `__gcd` sampling countdown global, if present.
    pub gcd_global: Option<u32>,
}

/// Lowers a program to slot form.
///
/// Total — never fails, even on unresolved programs; statically
/// unresolvable names become [`SlotRef::Undefined`] / [`Callee::Undefined`]
/// and trap at run time, as a dynamic lookup miss would.
pub fn lower(program: &Program) -> SlotProgram {
    // Later duplicates win for call/global lookup (duplicates only occur
    // in unchecked programs).
    let mut global_idx: HashMap<&str, u32> = HashMap::new();
    for (i, g) in program.globals.iter().enumerate() {
        global_idx.insert(&g.name, i as u32);
    }
    let mut func_idx: HashMap<&str, u32> = HashMap::new();
    for (i, f) in program.functions.iter().enumerate() {
        func_idx.insert(&f.name, i as u32);
    }

    let functions: Vec<SlotFunction> = program
        .functions
        .iter()
        .map(|f| lower_function(f, &global_idx, &func_idx))
        .collect();

    SlotProgram {
        globals: program
            .globals
            .iter()
            .map(|g| SlotGlobal {
                name: g.name.clone(),
                ty: g.ty,
                init: g.init,
            })
            .collect(),
        main: program
            .functions
            .iter()
            .position(|f| f.name == "main")
            .map(|i| i as u32),
        gcd_global: program
            .globals
            .iter()
            .position(|g| g.name == GLOBAL_COUNTDOWN)
            .map(|i| i as u32),
        functions,
    }
}

struct FnLowerer<'a> {
    /// Function-flat local slots, first declaration wins (re-declaration
    /// on instrumented dual paths reuses the slot, as rebinding the name
    /// in a function-flat frame would).
    locals: HashMap<&'a str, u32>,
    slot_names: Vec<String>,
    cd_slot: Option<u32>,
    globals: &'a HashMap<&'a str, u32>,
    funcs: &'a HashMap<&'a str, u32>,
}

fn lower_function(
    f: &Function,
    globals: &HashMap<&str, u32>,
    funcs: &HashMap<&str, u32>,
) -> SlotFunction {
    let mut lw = FnLowerer {
        locals: HashMap::new(),
        slot_names: Vec::new(),
        cd_slot: None,
        globals,
        funcs,
    };
    for p in &f.params {
        lw.slot_of(&p.name);
    }
    let n_params = lw.slot_names.len() as u32;
    // Pre-scan all declarations so n_slots is final before lowering; the
    // frame is function-flat, so order of assignment within the body is
    // irrelevant as long as it is deterministic (syntactic order).
    collect_decls(&f.body, &mut lw);
    let body = lw.block(&f.body);
    SlotFunction {
        name: f.name.clone(),
        n_params,
        n_slots: lw.slot_names.len() as u32,
        slot_names: lw.slot_names,
        cd_slot: lw.cd_slot,
        ret: f.ret,
        body,
    }
}

fn collect_decls<'a>(b: &'a Block, lw: &mut FnLowerer<'a>) {
    for s in &b.stmts {
        match s {
            Stmt::Decl { name, .. } => {
                lw.slot_of(name);
            }
            Stmt::If {
                then_block,
                else_block,
                ..
            } => {
                collect_decls(then_block, lw);
                if let Some(e) = else_block {
                    collect_decls(e, lw);
                }
            }
            Stmt::While { body, .. } => collect_decls(body, lw),
            Stmt::Sample(Sample::Import) => lw.cd_slot = Some(lw.slot_of(LOCAL_COUNTDOWN)),
            Stmt::Sample(Sample::Threshold { fast, slow, .. }) => {
                collect_decls(fast, lw);
                collect_decls(slow, lw);
            }
            _ => {}
        }
    }
}

impl<'a> FnLowerer<'a> {
    fn slot_of(&mut self, name: &'a str) -> u32 {
        if let Some(&s) = self.locals.get(name) {
            return s;
        }
        let s = self.slot_names.len() as u32;
        self.locals.insert(name, s);
        self.slot_names.push(name.to_string());
        s
    }

    fn var_ref(&self, name: &str) -> SlotRef {
        match (self.locals.get(name), self.globals.get(name)) {
            (Some(&l), Some(&g)) => SlotRef::LocalOrGlobal(l, g),
            (Some(&l), None) => SlotRef::Local(l),
            (None, Some(&g)) => SlotRef::Global(g),
            (None, None) => SlotRef::Undefined(name.into()),
        }
    }

    fn block(&mut self, b: &Block) -> Vec<SlotStmt> {
        b.stmts.iter().map(|s| self.stmt(s)).collect()
    }

    fn stmt(&mut self, s: &Stmt) -> SlotStmt {
        match s {
            Stmt::Decl { ty, name, init, .. } => SlotStmt::Decl {
                ty: *ty,
                slot: self
                    .locals
                    .get(name.as_str())
                    .copied()
                    .expect("pre-scan covers every declaration"),
                init: init.as_ref().map(|e| self.expr(e)),
            },
            Stmt::Assign { name, value, .. } => SlotStmt::Assign {
                target: self.var_ref(name),
                value: self.expr(value),
            },
            Stmt::Store {
                target,
                index,
                value,
                ..
            } => SlotStmt::Store {
                target: self.var_ref(target),
                index: self.expr(index),
                value: self.expr(value),
            },
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => SlotStmt::If {
                cond: self.expr(cond),
                then_block: self.block(then_block),
                else_block: else_block.as_ref().map(|e| self.block(e)),
            },
            Stmt::While { cond, body, .. } => SlotStmt::While {
                cond: self.expr(cond),
                body: self.block(body),
            },
            Stmt::Return { value, .. } => SlotStmt::Return {
                value: value.as_ref().map(|e| self.expr(e)),
            },
            Stmt::Break { .. } => SlotStmt::Break,
            Stmt::Continue { .. } => SlotStmt::Continue,
            Stmt::Check { .. } => SlotStmt::Check,
            Stmt::Expr { expr, .. } => SlotStmt::Expr {
                expr: self.expr(expr),
            },
            Stmt::Sample(s) => SlotStmt::Sample(match s {
                Sample::Import => Sample::Import,
                Sample::Reimport => Sample::Reimport,
                Sample::Export => Sample::Export,
                Sample::Dec { reg, k } => Sample::Dec { reg: *reg, k: *k },
                Sample::Threshold { reg, w, fast, slow } => Sample::Threshold {
                    reg: *reg,
                    w: *w,
                    fast: self.block(fast),
                    slow: self.block(slow),
                },
                Sample::Guard { reg, obs, args } => Sample::Guard {
                    reg: *reg,
                    obs: *obs,
                    args: args.iter().map(|a| self.expr(a)).collect(),
                },
            }),
        }
    }

    fn expr(&mut self, e: &Expr) -> SlotExpr {
        match e {
            Expr::Int { value, .. } => SlotExpr::Int(*value),
            Expr::Null { .. } => SlotExpr::Null,
            Expr::Var { name, .. } => SlotExpr::Var(self.var_ref(name)),
            Expr::Load { ptr, index, .. } => SlotExpr::Load {
                ptr: Box::new(self.expr(ptr)),
                index: Box::new(self.expr(index)),
            },
            Expr::Call { name, args, .. } => {
                // Builtins shadow user functions, as in the interpreter's
                // builtin-first dispatch.
                let callee = match Builtin::from_name(name) {
                    Some(b) => Callee::Builtin(b),
                    None => match self.funcs.get(name.as_str()) {
                        Some(&i) => Callee::Func(i),
                        None => Callee::Undefined(name.as_str().into()),
                    },
                };
                SlotExpr::Call {
                    callee,
                    args: args.iter().map(|a| self.expr(a)).collect(),
                }
            }
            Expr::Unary { op, expr, .. } => SlotExpr::Unary {
                op: *op,
                expr: Box::new(self.expr(expr)),
            },
            Expr::Binary { op, lhs, rhs, .. } => SlotExpr::Binary {
                op: *op,
                lhs: Box::new(self.expr(lhs)),
                rhs: Box::new(self.expr(rhs)),
            },
        }
    }
}

impl SlotProgram {
    /// The name a [`SlotRef`] refers to, for trap messages, resolved
    /// against the given function's slot names.
    pub fn ref_name<'s>(&'s self, f: &'s SlotFunction, r: &'s SlotRef) -> &'s str {
        match r {
            SlotRef::Local(s) | SlotRef::LocalOrGlobal(s, _) => &f.slot_names[*s as usize],
            SlotRef::Global(g) => &self.globals[*g as usize].name,
            SlotRef::Undefined(name) => name,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn lowered(src: &str) -> SlotProgram {
        lower(&parse(src).unwrap())
    }

    #[test]
    fn params_then_locals_get_dense_slots() {
        let p = lowered(
            "fn f(int a, ptr b) -> int { int c = 1; if (a) { int d; } return c; }\n\
             fn main() -> int { return f(1, null); }",
        );
        let f = &p.functions[0];
        assert_eq!(f.n_params, 2);
        assert_eq!(f.n_slots, 4);
        assert_eq!(f.slot_names, vec!["a", "b", "c", "d"]);
        assert_eq!(p.main, Some(1));
    }

    #[test]
    fn locals_shadowing_globals_fall_back_dynamically() {
        // Unresolvable by the strict resolver, but must lower to the
        // frame-then-global search the interpreter performs.
        let p = lowered("int x = 7; fn main() -> int { int x = 1; return x; }");
        let f = &p.functions[0];
        let decl_slot = match &f.body[0] {
            SlotStmt::Decl { slot, .. } => *slot,
            other => panic!("expected decl, got {other:?}"),
        };
        match &f.body[1] {
            SlotStmt::Return {
                value: Some(SlotExpr::Var(SlotRef::LocalOrGlobal(l, g))),
            } => {
                assert_eq!(*l, decl_slot);
                assert_eq!(*g, 0);
            }
            other => panic!("expected local-or-global return, got {other:?}"),
        }
    }

    #[test]
    fn callees_resolve_to_builtin_function_or_undefined() {
        let p = lowered("fn g() { } fn main() -> int { g(); print(1); h(); return 0; }");
        let main = &p.functions[1];
        let callees: Vec<&Callee> = main
            .body
            .iter()
            .filter_map(|s| match s {
                SlotStmt::Expr {
                    expr: SlotExpr::Call { callee, .. },
                } => Some(callee),
                _ => None,
            })
            .collect();
        assert_eq!(callees.len(), 3);
        assert_eq!(*callees[0], Callee::Func(0));
        assert_eq!(*callees[1], Callee::Builtin(Builtin::Print));
        assert_eq!(*callees[2], Callee::Undefined("h".into()));
    }

    #[test]
    fn undefined_variables_lower_without_failing() {
        let p = lowered("fn main() -> int { return nowhere; }");
        match &p.functions[0].body[0] {
            SlotStmt::Return {
                value: Some(SlotExpr::Var(SlotRef::Undefined(n))),
            } => assert_eq!(&**n, "nowhere"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gcd_global_is_found() {
        let p = lowered("int __gcd = 0; fn main() -> int { return 0; }");
        assert_eq!(p.gcd_global, Some(0));
        assert_eq!(lowered("fn main() -> int { return 0; }").gcd_global, None);
    }

    #[test]
    fn ref_name_reports_original_names() {
        let p = lowered("int g; fn main() -> int { int l = g; return l; }");
        let f = &p.functions[0];
        assert_eq!(p.ref_name(f, &SlotRef::Local(0)), "l");
        assert_eq!(p.ref_name(f, &SlotRef::Global(0)), "g");
        assert_eq!(p.ref_name(f, &SlotRef::Undefined("z".into())), "z");
    }
}
