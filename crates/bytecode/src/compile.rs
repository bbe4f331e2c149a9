//! The slot-AST → bytecode compiler.
//!
//! Compilation is a single syntax-directed pass with jump patching.  The
//! governing law is *charge parity*: the emitted code must consume cost
//! units in exactly the order the tree walker does, at every potential
//! trap point, so `RunResult::ops` agrees between engines on every run.
//! Concretely:
//!
//! * every walker `charge()` becomes a [`Op::Charge`] at the same
//!   position relative to trap-capable instructions;
//! * two charges fold into one only when they are instruction-adjacent —
//!   nothing that can trap, observe, or receive a jump sits between them.
//!   A bound label is a fusion barrier: code arriving via the jump must
//!   not skip the folded amount;
//! * charges applied inside runtime helpers after an argument trap point
//!   (heap traffic, `__check`'s observe, refills) are *not* baked — the
//!   matching engine ops charge dynamically, like the walker.
//!
//! The sampling statements ([`SlotSample`]) compile to register ops over
//! the two countdowns, one instruction per statement: an import or
//! export is an [`Op::CdMove`], a decrement an [`Op::CdDec`], a threshold
//! check an [`Op::CdBranch`] around its two arms, and a sample guard the
//! `gate` of its site's observation ops ([`ObsSpec::gate`]).

use crate::instr::{
    BcFunction, BcProgram, BinSpec, BoundsSpec, BrSpec, CallSpec, CdMove, Costs, Dest, IdxSpec,
    LdSpec, MvSpec, ObsArgs, ObsSpec, Op, Operand, RetSpec, StSpec,
};
use cbi_minic::ast::{BinOp, Countdown, Sample, Type};
use cbi_minic::slots::{
    always_exits, Callee, SlotExpr, SlotFunction, SlotProgram, SlotRef, SlotSample, SlotStmt,
};
use cbi_minic::Builtin;
use std::collections::HashMap;
use std::num::NonZeroU32;

/// Compiles a slot-lowered program, baking charges from
/// [`Costs::default`].
pub fn compile(prog: &SlotProgram) -> BcProgram {
    let costs = Costs::default();
    let mut cx = Cx {
        ops: Vec::new(),
        names: Vec::new(),
        name_idx: HashMap::new(),
        obs: Vec::new(),
        costs,
    };
    let mut functions = Vec::with_capacity(prog.functions.len());
    for f in &prog.functions {
        let entry = cx.ops.len() as u32;
        FnCompiler {
            cx: &mut cx,
            prog,
            f,
            loops: Vec::new(),
            fuse: None,
        }
        .compile_body();
        functions.push(BcFunction {
            name: f.name.clone(),
            entry,
            end: cx.ops.len() as u32,
            n_params: f.n_params,
            n_slots: f.n_slots,
            slot_names: f.slot_names.clone(),
            ret: f.ret,
        });
    }
    let mut bc = BcProgram {
        ops: cx.ops,
        functions,
        globals: prog.globals.clone(),
        main: prog.main,
        gcd_global: prog.gcd_global,
        names: cx.names,
        bins: Vec::new(),
        brs: Vec::new(),
        idxs: Vec::new(),
        rets: Vec::new(),
        lds: Vec::new(),
        sts: Vec::new(),
        mvs: Vec::new(),
        calls: Vec::new(),
        obs: cx.obs,
        costs,
    };
    peephole(&mut bc);
    bc
}

/// Program-wide compile state: the shared op vector and interning pools.
struct Cx {
    ops: Vec<Op>,
    names: Vec<Box<str>>,
    name_idx: HashMap<Box<str>, u32>,
    obs: Vec<ObsSpec>,
    costs: Costs,
}

impl Cx {
    fn name(&mut self, s: &str) -> u32 {
        if let Some(&i) = self.name_idx.get(s) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(s.into());
        self.name_idx.insert(s.into(), i);
        i
    }
}

/// Unpatched forward-jump sites, all to be bound to one target.
type Label = Vec<usize>;

struct LoopCtx {
    /// Back-jump target: the condition re-evaluation point.
    cond: u32,
    /// `break` jump sites to patch at loop exit.
    breaks: Label,
}

struct FnCompiler<'a> {
    cx: &'a mut Cx,
    prog: &'a SlotProgram,
    f: &'a SlotFunction,
    loops: Vec<LoopCtx>,
    /// Index of the trailing [`Op::Charge`]/[`Op::Stmt`] eligible for
    /// charge fusion; `None` after any other op or a bound label.
    fuse: Option<usize>,
}

impl FnCompiler<'_> {
    fn compile_body(&mut self) {
        self.block(&self.f.body);
        // Fall-off-the-end epilogue: the zero value of the return type
        // (observably identical to the walker's `Option` returns), for a
        // body that can reach its end.
        if !always_exits(&self.f.body) {
            match self.f.ret {
                Some(Type::Ptr) => self.emit(Op::RetNull),
                _ => self.emit(Op::RetZero),
            };
        }
    }

    // ---- emission primitives -------------------------------------------

    fn emit(&mut self, op: Op) -> usize {
        self.fuse = None;
        self.cx.ops.push(op);
        self.cx.ops.len() - 1
    }

    /// Emits a charge, folding into the immediately preceding charge op
    /// when no trap point or label separates them.
    fn charge(&mut self, units: u64) {
        let units = units as u32;
        if let Some(i) = self.fuse {
            match &mut self.cx.ops[i] {
                Op::Charge(n) | Op::Stmt(n) => {
                    *n += units;
                    return;
                }
                _ => unreachable!("fuse index always points at a charge op"),
            }
        }
        self.cx.ops.push(Op::Charge(units));
        self.fuse = Some(self.cx.ops.len() - 1);
    }

    /// Emits a statement-head charge (steps bump + `units`).  Never folds
    /// backward: no statement ends in a bare charge, so there is nothing
    /// semantically adjacent to fold into.
    fn stmt_charge(&mut self, units: u64) {
        self.cx.ops.push(Op::Stmt(units as u32));
        self.fuse = Some(self.cx.ops.len() - 1);
    }

    /// The current position as a backward-jump target.  Binding a label
    /// bars charge fusion across it.
    fn here(&mut self) -> u32 {
        self.fuse = None;
        self.cx.ops.len() as u32
    }

    /// Emits a forward jump of the given shape with a placeholder target.
    fn jump(&mut self, label: &mut Label, make: fn(u32) -> Op) {
        let at = self.emit(make(u32::MAX));
        label.push(at);
    }

    /// Patches every site in `label` to jump to the current position.
    fn bind(&mut self, label: Label) {
        let target = self.cx.ops.len() as u32;
        for at in label {
            let op = &mut self.cx.ops[at];
            match op {
                Op::Jump(t)
                | Op::BranchFalse(t)
                | Op::BranchTrue(t)
                | Op::DeferPush(t)
                | Op::DeferNext(t)
                | Op::CdBranch { els: t, .. }
                | Op::ObsEnter { skip: t, .. } => *t = target,
                _ => unreachable!("patched op always carries a jump target"),
            }
        }
        self.fuse = None;
    }

    fn load(&mut self, r: &SlotRef) {
        let op = match r {
            SlotRef::Local(s) => Op::LoadLocal(*s),
            SlotRef::Global(g) => Op::LoadGlobal(*g),
            SlotRef::LocalOrGlobal(s, g) => Op::LoadLocalOr(*s, *g),
            SlotRef::Undefined(n) => Op::LoadUndef(self.cx.name(n)),
        };
        self.emit(op);
    }

    fn assign(&mut self, r: &SlotRef) {
        let op = match r {
            SlotRef::Local(s) => Op::AssignLocal(*s),
            SlotRef::Global(g) => Op::AssignGlobal(*g),
            SlotRef::LocalOrGlobal(s, g) => Op::AssignLocalOr(*s, *g),
            SlotRef::Undefined(n) => Op::AssignUndef(self.cx.name(n)),
        };
        self.emit(op);
    }

    fn push_zero(&mut self, ty: Type) {
        self.emit(match ty {
            Type::Int => Op::PushInt(0),
            Type::Ptr => Op::PushNull,
        });
    }

    // ---- statements ----------------------------------------------------

    fn stmt(&mut self, s: &SlotStmt) {
        match s {
            SlotStmt::Decl { ty, slot, init } => {
                self.stmt_charge(self.cx.costs.stmt);
                match init {
                    Some(e) => self.expr(e),
                    None => self.push_zero(*ty),
                }
                self.emit(Op::BindLocal(*slot));
            }
            SlotStmt::Assign { target, value } => {
                self.stmt_charge(self.cx.costs.stmt);
                self.expr(value);
                self.assign(target);
            }
            SlotStmt::If {
                cond,
                then_block,
                else_block,
            } => {
                self.stmt_charge(self.cx.costs.stmt);
                self.expr(cond);
                let mut els = Label::new();
                self.jump(&mut els, Op::BranchFalse);
                self.arms(els, then_block, else_block.as_deref());
            }
            SlotStmt::Store {
                target,
                index,
                value,
            } => {
                self.stmt_charge(self.cx.costs.stmt);
                // The target lookup itself is uncharged in the walker.
                self.load(target);
                let name = self.cx.name(self.prog.ref_name(self.f, target));
                self.emit(Op::StorePtrCheck(name));
                self.expr(index);
                self.emit(Op::ExpectInt);
                self.expr(value);
                self.emit(Op::HeapStore);
            }
            SlotStmt::While { cond, body } => {
                // One statement charge at loop entry; iterations re-pay
                // only the condition's expression charges.
                self.stmt_charge(self.cx.costs.stmt);
                let top = self.here();
                self.expr(cond);
                let mut end = Label::new();
                self.jump(&mut end, Op::BranchFalse);
                self.loops.push(LoopCtx {
                    cond: top,
                    breaks: Label::new(),
                });
                self.block(body);
                if !always_exits(body) {
                    self.emit(Op::Jump(top));
                }
                let ctx = self.loops.pop().expect("loop context pushed above");
                self.bind(ctx.breaks);
                self.bind(end);
            }
            SlotStmt::Return { value } => {
                self.stmt_charge(self.cx.costs.stmt);
                match value {
                    Some(e) => {
                        self.expr(e);
                        self.emit(Op::Ret);
                    }
                    None => {
                        self.emit(Op::RetZero);
                    }
                }
            }
            SlotStmt::Break => {
                self.stmt_charge(self.cx.costs.stmt);
                let mut site = Label::new();
                self.jump(&mut site, Op::Jump);
                if let Some(ctx) = self.loops.last_mut() {
                    ctx.breaks.extend(site);
                }
                // `break` outside a loop is rejected by the parser; an
                // unpatched placeholder can only arise from a constructed
                // AST and will fail loudly at run time.
            }
            SlotStmt::Continue => {
                self.stmt_charge(self.cx.costs.stmt);
                match self.loops.last() {
                    Some(ctx) => {
                        let cond = ctx.cond;
                        self.emit(Op::Jump(cond));
                    }
                    None => {
                        let mut dangling = Label::new();
                        self.jump(&mut dangling, Op::Jump);
                    }
                }
            }
            SlotStmt::Check => {
                // Inert marker: only the statement charge.
                self.stmt_charge(self.cx.costs.stmt);
            }
            SlotStmt::Expr {
                expr:
                    SlotExpr::Call {
                        callee: Callee::Builtin(b),
                        args,
                    },
            } if b.observation().is_some() => self.observe(*b, args, true, None),
            SlotStmt::Expr { expr } => {
                self.stmt_charge(self.cx.costs.stmt);
                self.expr(expr);
                self.emit(Op::Pop);
            }
            SlotStmt::Sample(s) => self.sample(s),
        }
    }

    /// The arms of a conditional whose test, just emitted, jumps to `els`
    /// when it fails.  A then arm that always exits needs no jump past
    /// the else arm.
    fn arms(&mut self, els: Label, then_block: &[SlotStmt], else_block: Option<&[SlotStmt]>) {
        self.block(then_block);
        match else_block {
            Some(e) => {
                let mut end = Label::new();
                if !always_exits(then_block) {
                    self.jump(&mut end, Op::Jump);
                }
                self.bind(els);
                self.block(e);
                self.bind(end);
            }
            None => self.bind(els),
        }
    }

    /// A sampling statement: one countdown-register op, or a sample
    /// guard folded into its site's observation ops.
    fn sample(&mut self, s: &SlotSample) {
        match s {
            Sample::Import | Sample::Reimport => {
                self.emit(Op::CdMove(CdMove::Import));
            }
            Sample::Export => {
                self.emit(Op::CdMove(CdMove::Export));
            }
            Sample::Dec { reg, k } => {
                self.emit(Op::CdDec { reg: *reg, k: *k });
            }
            Sample::Threshold { reg, w, fast, slow } => {
                let els = self.emit(Op::CdBranch {
                    reg: *reg,
                    w: *w,
                    els: u32::MAX,
                });
                self.arms(vec![els], fast, Some(slow));
            }
            Sample::Guard { reg, obs, args } => self.observe(obs.builtin(), args, true, Some(*reg)),
        }
    }

    fn block(&mut self, b: &[SlotStmt]) {
        for s in b {
            self.stmt(s);
        }
    }

    // ---- observations --------------------------------------------------

    /// Compiles a call of `__check`, `__cmp` or `__obs_sign` — in statement
    /// position when `stmt` (the statement head and the result's `pop`
    /// fold in), inside the sample gate on `gate` when sampled.
    ///
    /// With a literal site and fetched operands the whole observation is
    /// one [`Op::Obs`].  Otherwise the arguments keep their own ops between
    /// an [`Op::ObsEnter`] (emitted when there is a gate to skip, a free
    /// region to open or a bounds pointer to test) and an [`Op::ObsExit`].
    /// `__cmp`/`__obs_sign` arguments containing a call, or a computed
    /// site, keep the deferred-error bracket, so every argument still runs
    /// and the tail raises the first error; call-free arguments cannot
    /// have effects after a trap, so theirs trap where they fail.
    fn observe(&mut self, b: Builtin, args: &[SlotExpr], stmt: bool, gate: Option<Countdown>) {
        let c = self.cx.costs;
        // `expr` has charged an expression call's node already.
        let head = if stmt { c.stmt + c.expr } else { 0 };
        let lit = match args.first() {
            Some(SlotExpr::Int(v)) => Some(*v),
            _ => None,
        };
        let spec = |chg: u64, args: ObsArgs, defer: bool| ObsSpec {
            gate,
            stmt,
            chg: chg as u32,
            site: lit.map_or(Operand::Stack, Operand::Const),
            args,
            defer,
        };
        if b == Builtin::ObsCheck {
            // `__check` charges its arguments like any call; a literal
            // site is one node.
            let head = head + if lit.is_some() { c.expr } else { 0 };
            if let (Some(_), Some(cond)) = (lit, args.get(1)) {
                if let Some((p, i, i_cost)) = self.bounds(cond) {
                    let e = c.expr;
                    let fetched = operand(i);
                    let bs = BoundsSpec {
                        p,
                        i: fetched.unwrap_or(Operand::Stack),
                        c_null: e as u32,
                        c_ge: (e + if fetched.is_some() { e } else { 0 }) as u32,
                        c_zero: e as u32,
                        c_lt: (3 * e + i_cost) as u32,
                    };
                    // Both `&&` nodes, `!=` and the pointer charge first.
                    let sp = spec(head + 4 * e, ObsArgs::Bounds(bs), false);
                    return match fetched {
                        Some(_) => self.obs(sp),
                        None => {
                            let skip = self.obs_enter(sp);
                            self.expr(i);
                            self.obs_exit(skip);
                        }
                    };
                }
                if let Some(o) = operand(cond) {
                    return self.obs(spec(head + c.expr, ObsArgs::Check(o), false));
                }
            }
            let sp = spec(head, ObsArgs::Check(Operand::Stack), false);
            let skip = if gate.is_some() {
                self.obs_enter(sp)
            } else {
                if stmt {
                    self.stmt_charge(head);
                } else if head > 0 {
                    self.charge(head);
                }
                (self.intern_obs(sp), Label::new())
            };
            if lit.is_none() {
                self.int_arg(args, 0);
            }
            self.any_arg(args, 1);
            return self.obs_exit(skip);
        }

        // `__cmp`/`__obs_sign` charge flat before their arguments, which
        // evaluate uncharged.
        let head = head + c.observe;
        let values = 1..b.arity();
        let fetched: Option<Vec<Operand>> = values
            .clone()
            .map(|k| args.get(k).and_then(operand))
            .collect();
        let shape = |o: &[Operand]| match b {
            Builtin::ObsCmp => ObsArgs::Cmp(o[0], o[1]),
            _ => ObsArgs::Sign(o[0]),
        };
        if let (Some(_), Some(o)) = (lit, &fetched) {
            return self.obs(spec(head, shape(o), false));
        }
        let stacked = [Operand::Stack; 2];
        let call_free = lit.is_some() && values.clone().all(|k| args.get(k).is_some_and(call_free));
        let skip = self.obs_enter(spec(head, shape(&stacked), !call_free));
        if call_free {
            for k in values {
                self.expr(&args[k]);
            }
        } else {
            // Each argument runs under the capture armed before it, which
            // resumes after it with a placeholder.
            let first = if lit.is_some() { 1 } else { 0 };
            for k in first..b.arity() {
                let mut next = Label::new();
                self.jump(
                    &mut next,
                    if k == first {
                        Op::DeferPush
                    } else {
                        Op::DeferNext
                    },
                );
                if k == 0 {
                    self.int_arg(args, 0);
                } else {
                    self.any_arg(args, k);
                }
                self.bind(next);
            }
        }
        self.obs_exit(skip);
    }

    /// Recognises the `checks` scheme's bounds condition
    /// `p != null && i >= 0 && i < len(p)` over a fetched pointer and a
    /// call-free index whose evaluation charges a fixed amount; returns
    /// the pointer, the index and that amount.
    fn bounds<'e>(&self, cond: &'e SlotExpr) -> Option<(Operand, &'e SlotExpr, u64)> {
        let SlotExpr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } = cond
        else {
            return None;
        };
        let (
            SlotExpr::Binary {
                op: BinOp::And,
                lhs: ne,
                rhs: ge,
            },
            SlotExpr::Binary {
                op: BinOp::Lt,
                lhs: i2,
                rhs: len,
            },
        ) = (&**lhs, &**rhs)
        else {
            return None;
        };
        let (
            SlotExpr::Binary {
                op: BinOp::Ne,
                lhs: p,
                rhs: null,
            },
            SlotExpr::Binary {
                op: BinOp::Ge,
                lhs: i,
                rhs: zero,
            },
            SlotExpr::Call {
                callee: Callee::Builtin(Builtin::Len),
                args: len_args,
            },
        ) = (&**ne, &**ge, &**len)
        else {
            return None;
        };
        let same = **null == SlotExpr::Null
            && **zero == SlotExpr::Int(0)
            && i == i2
            && len_args.len() == 1
            && len_args[0] == **p;
        let p = operand(p).filter(|_| same)?;
        Some((p, i, self.fixed_cost(i)?))
    }

    /// What evaluating `e` charges, when that is the same on every run: no
    /// call and no short-circuit operator.
    fn fixed_cost(&self, e: &SlotExpr) -> Option<u64> {
        let c = self.cx.costs;
        Some(
            c.expr
                + match e {
                    SlotExpr::Int(_) | SlotExpr::Null | SlotExpr::Var(_) => 0,
                    SlotExpr::Load { ptr, index } => {
                        self.fixed_cost(ptr)? + self.fixed_cost(index)? + c.mem
                    }
                    SlotExpr::Unary { expr, .. } => self.fixed_cost(expr)?,
                    SlotExpr::Binary {
                        op: BinOp::And | BinOp::Or,
                        ..
                    }
                    | SlotExpr::Call { .. } => return None,
                    SlotExpr::Binary { lhs, rhs, .. } => {
                        self.fixed_cost(lhs)? + self.fixed_cost(rhs)?
                    }
                },
        )
    }

    fn intern_obs(&mut self, sp: ObsSpec) -> u32 {
        intern(&mut self.cx.obs, sp)
    }

    /// Emits a whole observation as one [`Op::Obs`].
    fn obs(&mut self, sp: ObsSpec) {
        let s = self.intern_obs(sp);
        self.emit(Op::Obs(s));
    }

    /// Emits an observation head; the returned label is its skip jump.
    fn obs_enter(&mut self, sp: ObsSpec) -> (u32, Label) {
        let spec = self.intern_obs(sp);
        let at = self.emit(Op::ObsEnter {
            spec,
            skip: u32::MAX,
        });
        (spec, vec![at])
    }

    /// Emits an observation tail and binds the head's skip past it.
    fn obs_exit(&mut self, (spec, skip): (u32, Label)) {
        self.emit(Op::ObsExit(spec));
        self.bind(skip);
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self, e: &SlotExpr) {
        self.charge(self.cx.costs.expr);
        match e {
            SlotExpr::Int(v) => {
                self.emit(Op::PushInt(*v));
            }
            SlotExpr::Null => {
                self.emit(Op::PushNull);
            }
            SlotExpr::Var(r) => self.load(r),
            SlotExpr::Load { ptr, index } => {
                self.expr(ptr);
                self.emit(Op::LoadPtrCheck);
                self.expr(index);
                self.emit(Op::ExpectInt);
                self.emit(Op::HeapLoad);
            }
            SlotExpr::Call { callee, args } => match callee {
                Callee::Builtin(b) => self.builtin(*b, args),
                Callee::Func(i) => {
                    // All arguments evaluate, even extras beyond the
                    // callee's arity (the walker drops them at binding).
                    for a in args {
                        self.expr(a);
                    }
                    self.emit(Op::Call {
                        func: *i,
                        argc: args.len() as u32,
                    });
                }
                Callee::Undefined(n) => {
                    let name = self.cx.name(n);
                    self.emit(Op::CallUndef(name));
                }
            },
            SlotExpr::Unary { op, expr } => {
                self.expr(expr);
                self.emit(Op::ExpectInt);
                self.emit(Op::Unary(*op));
            }
            SlotExpr::Binary { op, lhs, rhs } => match op {
                BinOp::And => {
                    self.expr(lhs);
                    let mut short = Label::new();
                    self.jump(&mut short, Op::BranchFalse);
                    self.expr(rhs);
                    self.emit(Op::ToBool);
                    let mut end = Label::new();
                    self.jump(&mut end, Op::Jump);
                    self.bind(short);
                    self.emit(Op::PushInt(0));
                    self.bind(end);
                }
                BinOp::Or => {
                    self.expr(lhs);
                    let mut short = Label::new();
                    self.jump(&mut short, Op::BranchTrue);
                    self.expr(rhs);
                    self.emit(Op::ToBool);
                    let mut end = Label::new();
                    self.jump(&mut end, Op::Jump);
                    self.bind(short);
                    self.emit(Op::PushInt(1));
                    self.bind(end);
                }
                _ => {
                    self.expr(lhs);
                    self.expr(rhs);
                    self.emit(Op::Binary(*op));
                }
            },
        }
    }

    /// Compiles the `n`-th required builtin argument as an integer, or a
    /// run-time panic matching the walker's out-of-bounds indexing when
    /// an unchecked program passed too few arguments.
    fn int_arg(&mut self, args: &[SlotExpr], n: usize) {
        match args.get(n) {
            Some(a) => {
                self.expr(a);
                self.emit(Op::ExpectInt);
            }
            None => {
                self.emit(Op::MissingArg);
            }
        }
    }

    fn any_arg(&mut self, args: &[SlotExpr], n: usize) {
        match args.get(n) {
            Some(a) => self.expr(a),
            None => {
                self.emit(Op::MissingArg);
            }
        }
    }

    fn builtin(&mut self, b: Builtin, args: &[SlotExpr]) {
        // The call node's expression charge was already emitted by
        // `expr`; extra arguments beyond a builtin's arity are never
        // evaluated (walker parity).
        match b {
            Builtin::Alloc => {
                self.int_arg(args, 0);
                self.emit(Op::Alloc);
            }
            Builtin::Free => {
                self.any_arg(args, 0);
                self.emit(Op::Free);
            }
            Builtin::Len => {
                self.any_arg(args, 0);
                self.emit(Op::Len);
            }
            Builtin::Read => {
                self.emit(Op::Read);
            }
            Builtin::HasInput => {
                self.emit(Op::HasInput);
            }
            Builtin::Print => {
                self.int_arg(args, 0);
                self.emit(Op::Print);
            }
            Builtin::Exit => {
                self.int_arg(args, 0);
                self.emit(Op::Exit);
            }
            Builtin::ObsCheck | Builtin::ObsCmp | Builtin::ObsSign => {
                self.observe(b, args, false, None);
            }
        }
    }
}

/// The fetched operand `e` is, if it is a literal or a resolved variable.
fn operand(e: &SlotExpr) -> Option<Operand> {
    match e {
        SlotExpr::Int(v) => Some(Operand::Const(*v)),
        SlotExpr::Null => Some(Operand::Null),
        SlotExpr::Var(SlotRef::Local(s)) => Some(Operand::Local(*s)),
        SlotExpr::Var(SlotRef::Global(g)) => Some(Operand::Global(*g)),
        SlotExpr::Var(SlotRef::LocalOrGlobal(s, g)) => Some(Operand::LocalOr(*s, *g)),
        _ => None,
    }
}

/// Whether `e` contains no call, so evaluating it has no effect beyond
/// its charges and its value or trap.
fn call_free(e: &SlotExpr) -> bool {
    match e {
        SlotExpr::Int(_) | SlotExpr::Null | SlotExpr::Var(_) => true,
        SlotExpr::Load { ptr, index } => call_free(ptr) && call_free(index),
        SlotExpr::Call { .. } => false,
        SlotExpr::Unary { expr, .. } => call_free(expr),
        SlotExpr::Binary { lhs, rhs, .. } => call_free(lhs) && call_free(rhs),
    }
}

// ---- peephole superinstruction fusion ----------------------------------
//
// Runs after jump patching, over the whole op vector.  Fusion is pure
// repackaging: a fused spec records the absorbed charges at their
// original positions and fetches operands in source order, so the engine
// replays the exact charge/trap sequence of the unfused ops.  Two rules
// keep it sound:
//
// * never fuse across a jump target — only the first op of a fused
//   window may be a target, so no jump can land mid-superinstruction;
// * a `Charge` is absorbed only where the pattern has a seat for it
//   (before either operand), so no charge moves relative to a trap point.

/// A matched superinstruction, pre-interning.
enum Fused {
    Bin(BinSpec),
    BinJ(BinSpec, u32),
    Br(BrSpec, u32),
    Idx(IdxSpec),
    Ret(RetSpec),
    Load(LdSpec),
    Store(StSpec),
    Mov(MvSpec),
    /// A countdown gate, complete: its operands are immediates.
    Gate(Op),
    Call(CallSpec),
}

/// Fuses superinstruction patterns in place, rewriting jump targets and
/// function boundaries for the shortened op vector.
fn peephole(p: &mut BcProgram) {
    let n = p.ops.len();
    let mut target = vec![false; n + 1];
    for f in &p.functions {
        target[f.entry as usize] = true;
    }
    for op in &p.ops {
        if let Op::Jump(t)
        | Op::BranchFalse(t)
        | Op::BranchTrue(t)
        | Op::DeferPush(t)
        | Op::DeferNext(t)
        | Op::CdBranch { els: t, .. }
        | Op::ObsEnter { skip: t, .. } = op
        {
            // `u32::MAX` placeholders (break outside a loop in a
            // constructed AST) stay dangling, as before the pass.
            if (*t as usize) <= n {
                target[*t as usize] = true;
            }
        }
    }

    let mut new_ops: Vec<Op> = Vec::with_capacity(n);
    let mut map = vec![u32::MAX; n + 1];
    let mut i = 0;
    while i < n {
        map[i] = new_ops.len() as u32;
        match fuse_at(&p.ops[i..], &target[i..]) {
            Some((f, len)) => {
                let op = match f {
                    Fused::Bin(s) => Op::FusedBin(intern(&mut p.bins, s)),
                    Fused::Br(s, t) => Op::FusedBr {
                        spec: intern(&mut p.brs, s),
                        target: t,
                    },
                    Fused::Idx(s) => Op::FusedIdx(intern(&mut p.idxs, s)),
                    Fused::Ret(s) => Op::FusedRet(intern(&mut p.rets, s)),
                    Fused::Load(s) => Op::FusedLoad(intern(&mut p.lds, s)),
                    Fused::Store(s) => Op::FusedStore(intern(&mut p.sts, s)),
                    Fused::Mov(s) => Op::FusedMov(intern(&mut p.mvs, s)),
                    Fused::BinJ(s, t) => Op::FusedBinJ {
                        spec: intern(&mut p.bins, s),
                        target: t,
                    },
                    Fused::Gate(op) => op,
                    Fused::Call(s) => Op::CallBind(intern(&mut p.calls, s)),
                };
                new_ops.push(op);
                i += len;
            }
            None => {
                new_ops.push(p.ops[i]);
                i += 1;
            }
        }
    }
    map[n] = new_ops.len() as u32;

    for op in &mut new_ops {
        if let Op::Jump(t)
        | Op::BranchFalse(t)
        | Op::BranchTrue(t)
        | Op::DeferPush(t)
        | Op::DeferNext(t)
        | Op::CdBranch { els: t, .. }
        | Op::ObsEnter { skip: t, .. }
        | Op::FusedBr { target: t, .. }
        | Op::FusedBinJ { target: t, .. }
        | Op::CdGate { els: t, .. } = op
        {
            if (*t as usize) <= n {
                debug_assert_ne!(map[*t as usize], u32::MAX, "jump into a fused window");
                *t = map[*t as usize];
            }
        }
    }
    for f in &mut p.functions {
        f.entry = map[f.entry as usize];
        f.end = map[f.end as usize];
    }
    p.ops = new_ops;
}

/// Interns a fused spec, reusing an existing identical entry.
fn intern<T: PartialEq>(table: &mut Vec<T>, s: T) -> u32 {
    if let Some(i) = table.iter().position(|x| *x == s) {
        return i as u32;
    }
    table.push(s);
    (table.len() - 1) as u32
}

/// Tries to match a superinstruction pattern at the start of `ops`;
/// `tgt[j]` flags jump targets (relative).  Returns the fused spec and
/// the number of ops consumed.
fn fuse_at(ops: &[Op], tgt: &[bool]) -> Option<(Fused, usize)> {
    // An op is usable at relative position `j` if it exists and, past the
    // window start, is not a jump target.
    let at = |j: usize| -> Option<Op> {
        if j < ops.len() && (j == 0 || !tgt[j]) {
            Some(ops[j])
        } else {
            None
        }
    };
    let opnd = |j: usize| -> Option<Operand> {
        match at(j)? {
            Op::PushInt(v) => Some(Operand::Const(v)),
            Op::PushNull => Some(Operand::Null),
            Op::LoadLocal(s) => Some(Operand::Local(s)),
            Op::LoadGlobal(g) => Some(Operand::Global(g)),
            Op::LoadLocalOr(s, g) => Some(Operand::LocalOr(s, g)),
            _ => None,
        }
    };

    // Countdown region gate: `CdMove CdBranch [CdDec]` (and the bare
    // `CdBranch CdDec` pair) — the sequence the sampling transformation
    // plants at every region entry.
    let pre = match at(0) {
        Some(Op::CdMove(m)) => Some(m),
        _ => None,
    };
    let jg = usize::from(pre.is_some());
    if let Some(Op::CdBranch { reg, w, els }) = at(jg) {
        let dec = match at(jg + 1) {
            Some(Op::CdDec { reg: r, k }) if r == reg => NonZeroU32::new(k),
            _ => None,
        };
        let len = jg + 1 + usize::from(dec.is_some());
        if len >= 2 {
            let gate = Op::CdGate {
                pre,
                reg,
                w,
                dec,
                els,
            };
            return Some((Fused::Gate(gate), len));
        }
    }

    // Region-exit countdown move folded into the following return.
    if let Some(c) = pre {
        let (stmt, chg, j) = match at(1) {
            Some(Op::Stmt(u)) => (true, u, 2),
            Some(Op::Charge(u)) if u > 0 => (false, u, 2),
            _ => (false, 0, 1),
        };
        let (a, j2) = match opnd(j) {
            Some(a) => (Some(a), j + 1),
            None => (None, j),
        };
        let ret = match (a, at(j2)) {
            (Some(a), Some(Op::Ret)) => Some(a),
            (None, Some(Op::Ret)) => Some(Operand::Stack),
            (None, Some(Op::RetZero)) => Some(Operand::Const(0)),
            (None, Some(Op::RetNull)) => Some(Operand::Null),
            _ => None,
        };
        if let Some(a) = ret {
            return Some((
                Fused::Ret(RetSpec {
                    pre: Some(c),
                    stmt,
                    chg,
                    a,
                }),
                j2 + 1,
            ));
        }
    }

    // Any other region-boundary countdown op folded into the following
    // fused statement: match the rest of the window without the prefix,
    // then attach it to shapes that carry a `pre` seat.  The prefix runs
    // first at execution time, so charge and trap order are unchanged.
    if jg == 1 && ops.len() > 1 && !tgt[1] {
        if let Some((f, len)) = fuse_at(&ops[1..], &tgt[1..]) {
            let attached = match f {
                Fused::Bin(mut s) if s.pre.is_none() => {
                    s.pre = pre;
                    Some(Fused::Bin(s))
                }
                Fused::BinJ(mut s, t) if s.pre.is_none() => {
                    s.pre = pre;
                    Some(Fused::BinJ(s, t))
                }
                Fused::Mov(mut s) if s.pre.is_none() => {
                    s.pre = pre;
                    Some(Fused::Mov(s))
                }
                _ => None,
            };
            if let Some(f) = attached {
                return Some((f, len + 1));
            }
        }
    }

    // A call whose result feeds straight into a store: record the
    // destination in the frame so the return applies it directly.
    if let Some(Op::Call { func, argc }) = at(0) {
        let dst = match at(1) {
            Some(Op::BindLocal(s)) => Some(Dest::Bind(s)),
            Some(Op::AssignLocal(s)) => Some(Dest::Local(s)),
            Some(Op::AssignGlobal(g)) => Some(Dest::Global(g)),
            Some(Op::AssignLocalOr(s, g)) => Some(Dest::LocalOr(s, g)),
            _ => None,
        };
        if let Some(dst) = dst {
            return Some((Fused::Call(CallSpec { func, argc, dst }), 2));
        }
    }

    // Optional leading statement head or charge.  `Charge(0)` never
    // occurs, since every cost is nonzero; leaving it unfused keeps the
    // "charge seat present ⇔ amount nonzero" encoding exact.
    let mut j = 0;
    let mut stmt = false;
    let mut lead = 0u32;
    match at(0) {
        Some(Op::Stmt(c)) => {
            stmt = true;
            lead = c;
            j = 1;
        }
        Some(Op::Charge(c)) if c > 0 => {
            lead = c;
            j = 1;
        }
        _ => {}
    }

    // Optional first operand.
    let s0 = opnd(j);
    let j0 = j + usize::from(s0.is_some());

    // Pointer-index prologue: `ptr check [charge] idx ExpectInt`.
    let chk = match at(j0) {
        Some(Op::LoadPtrCheck) => Some(None),
        Some(Op::StorePtrCheck(name)) => Some(Some(name)),
        _ => None,
    };
    if let Some(store_name) = chk {
        // A stacked pointer is never directly preceded by a charge or a
        // statement head (its producing ops sit in between).
        if s0.is_none() && (stmt || lead > 0) {
            return None;
        }
        let mut k = j0 + 1;
        let mut c_idx = 0;
        if let Some(Op::Charge(c)) = at(k) {
            if c > 0 {
                c_idx = c;
                k += 1;
            }
        }
        let idx = opnd(k)?;
        k += 1;
        if !matches!(at(k), Some(Op::ExpectInt)) {
            return None;
        }
        let spec = IdxSpec {
            stmt,
            c_ptr: lead,
            ptr: s0.unwrap_or(Operand::Stack),
            store_name,
            c_idx,
            idx,
        };
        let end = k + 1;
        // Heap tails: the compiler always follows a load-flavor prologue
        // with `HeapLoad` (then possibly a store op for the result) and a
        // store-flavor prologue with the value expression and `HeapStore`.
        // Fuse the whole access when the remaining pieces are simple.
        if store_name.is_none() {
            if matches!(at(end), Some(Op::HeapLoad)) {
                let (dst, len) = match at(end + 1) {
                    Some(Op::BindLocal(s)) => (Dest::Bind(s), end + 2),
                    Some(Op::AssignLocal(s)) => (Dest::Local(s), end + 2),
                    Some(Op::AssignGlobal(g)) => (Dest::Global(g), end + 2),
                    Some(Op::AssignLocalOr(s, g)) => (Dest::LocalOr(s, g), end + 2),
                    Some(Op::Ret) => (Dest::Ret, end + 2),
                    _ => (Dest::Push, end + 1),
                };
                return Some((Fused::Load(LdSpec { idx: spec, dst }), len));
            }
        } else {
            let mut kv = end;
            let mut c_val = 0;
            if let Some(Op::Charge(c)) = at(kv) {
                if c > 0 {
                    c_val = c;
                    kv += 1;
                }
            }
            if let Some(val) = opnd(kv) {
                if matches!(at(kv + 1), Some(Op::HeapStore)) {
                    return Some((
                        Fused::Store(StSpec {
                            idx: spec,
                            c_val,
                            val,
                        }),
                        kv + 2,
                    ));
                }
            }
        }
        return Some((Fused::Idx(spec), end));
    }

    // Bare truthiness branch: `[charge] operand BranchFalse/True`.
    if let (Some(a), Some(op)) = (s0, at(j0)) {
        let br = match op {
            Op::BranchFalse(t) => Some((t, false)),
            Op::BranchTrue(t) => Some((t, true)),
            _ => None,
        };
        if let Some((t, jump_if)) = br {
            return Some((
                Fused::Br(
                    BrSpec {
                        stmt,
                        chg_a: lead,
                        a,
                        chg_b: 0,
                        b: Operand::Const(0),
                        cmp: None,
                        jump_if,
                    },
                    t,
                ),
                j0 + 1,
            ));
        }
    }

    // Fused return: `[stmt/charge] operand Ret`.
    if let (Some(a), Some(Op::Ret)) = (s0, at(j0)) {
        return Some((
            Fused::Ret(RetSpec {
                pre: None,
                stmt,
                chg: lead,
                a,
            }),
            j0 + 1,
        ));
    }

    // Optional second (charge, operand) pair, then the binary operator.
    let mut k = j0;
    let mut chg1 = 0u32;
    let mut s1 = None;
    if s0.is_some() {
        let mut k2 = k;
        let mut c = 0;
        if let Some(Op::Charge(u)) = at(k2) {
            if u > 0 {
                c = u;
                k2 += 1;
            }
        }
        if let Some(s) = opnd(k2) {
            chg1 = c;
            s1 = Some(s);
            k = k2 + 1;
        }
    }
    let Some(Op::Binary(op)) = at(k) else {
        // No binary op: fuse the single charged fetch as a move into the
        // store that follows, or a bare charged push (a call argument).
        let a = s0?;
        let (dst, len) = match at(j0) {
            Some(Op::BindLocal(s)) => (Dest::Bind(s), j0 + 1),
            Some(Op::AssignLocal(s)) => (Dest::Local(s), j0 + 1),
            Some(Op::AssignGlobal(g)) => (Dest::Global(g), j0 + 1),
            Some(Op::AssignLocalOr(s, g)) => (Dest::LocalOr(s, g), j0 + 1),
            _ => (Dest::Push, j0),
        };
        if len < 2 {
            return None;
        }
        return Some((
            Fused::Mov(MvSpec {
                pre: None,
                stmt,
                chg: lead,
                a,
                dst,
            }),
            len,
        ));
    };
    k += 1;
    let (chg_a, a, chg_b, b) = match (s0, s1) {
        (Some(a), Some(b)) => (lead, a, chg1, b),
        // One fused operand is the *right*-hand one; the left is already
        // on the stack, and its charges happened while producing it.  A
        // statement head can't precede this shape (statements start with
        // an empty expression stack).
        (Some(b), None) => {
            if stmt {
                return None;
            }
            (0, Operand::Stack, lead, b)
        }
        (None, None) => {
            if stmt || lead > 0 {
                return None;
            }
            (0, Operand::Stack, 0, Operand::Stack)
        }
        (None, Some(_)) => unreachable!("second operand only parsed after the first"),
    };

    // Optional tail: a branch or a store.
    match at(k) {
        Some(Op::BranchFalse(t) | Op::BranchTrue(t)) => {
            let jump_if = matches!(at(k), Some(Op::BranchTrue(_)));
            Some((
                Fused::Br(
                    BrSpec {
                        stmt,
                        chg_a,
                        a,
                        chg_b,
                        b,
                        cmp: Some(op),
                        jump_if,
                    },
                    t,
                ),
                k + 1,
            ))
        }
        tail => {
            let (dst, len) = match tail {
                Some(Op::BindLocal(s)) => (Dest::Bind(s), k + 1),
                Some(Op::AssignLocal(s)) => (Dest::Local(s), k + 1),
                Some(Op::AssignGlobal(g)) => (Dest::Global(g), k + 1),
                Some(Op::AssignLocalOr(s, g)) => (Dest::LocalOr(s, g), k + 1),
                Some(Op::Ret) => (Dest::Ret, k + 1),
                _ => (Dest::Push, k),
            };
            if len < 2 {
                // A bare stack-stack `Binary` with no tail fuses nothing.
                return None;
            }
            let spec = BinSpec {
                pre: None,
                stmt,
                chg_a,
                a,
                chg_b,
                b,
                op,
                dst,
            };
            // A trailing unconditional jump (the loop back-edge) rides
            // along for free.
            if dst != Dest::Ret {
                if let Some(Op::Jump(t)) = at(len) {
                    return Some((Fused::BinJ(spec, t), len + 1));
                }
            }
            Some((Fused::Bin(spec), len))
        }
    }
}
