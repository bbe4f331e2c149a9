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
//! Synthesized statements (the sampling transformation's countdown
//! bookkeeping) compile to fused single instructions when they match the
//! five shapes `cbi-instrument` emits; any other synthesized shape takes
//! a generic path that brackets its operand code with
//! [`Op::FreeEnter`]/[`Op::FreeExit`] so per-node charges are suspended
//! at run time, exactly like the walker's `eval_uncharged`.

use crate::instr::{
    BcFunction, BcProgram, BcRef, BinSpec, BrSpec, CallSpec, CdSpec, Costs, Dest, GateSpec,
    IdxSpec, LdSpec, MvSpec, Op, Operand, RetSpec, StSpec,
};
use cbi_minic::ast::{BinOp, Type};
use cbi_minic::slots::{Callee, SlotExpr, SlotFunction, SlotProgram, SlotRef, SlotStmt};
use cbi_minic::Builtin;
use std::collections::HashMap;

/// Compiles a slot-lowered program, baking charges from
/// [`Costs::default`].
pub fn compile(prog: &SlotProgram) -> BcProgram {
    let costs = Costs::default();
    let mut cx = Cx {
        ops: Vec::new(),
        names: Vec::new(),
        name_idx: HashMap::new(),
        specs: Vec::new(),
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
        specs: cx.specs,
        bins: Vec::new(),
        brs: Vec::new(),
        idxs: Vec::new(),
        rets: Vec::new(),
        lds: Vec::new(),
        sts: Vec::new(),
        mvs: Vec::new(),
        gates: Vec::new(),
        calls: Vec::new(),
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
    specs: Vec<CdSpec>,
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

    fn spec(&mut self, s: CdSpec) -> u32 {
        // Specs repeat heavily (every region entry decrements by similar
        // shapes); interning keeps the table small and the listing stable.
        if let Some(i) = self.specs.iter().position(|x| *x == s) {
            return i as u32;
        }
        self.specs.push(s);
        (self.specs.len() - 1) as u32
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
        for s in &self.f.body {
            self.stmt(s);
        }
        // Fall-off-the-end epilogue: the zero value of the return type
        // (observably identical to the walker's `Option` returns).
        match self.f.ret {
            Some(Type::Ptr) => self.emit(Op::RetNull),
            _ => self.emit(Op::RetZero),
        };
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
                | Op::SynthCheck { els: t, .. } => *t = target,
                _ => unreachable!("patched op always carries a jump target"),
            }
        }
        self.fuse = None;
    }

    fn bc_ref(&mut self, r: &SlotRef) -> BcRef {
        match r {
            SlotRef::Local(s) => BcRef::Local(*s),
            SlotRef::Global(g) => BcRef::Global(*g),
            SlotRef::LocalOrGlobal(s, g) => BcRef::LocalOrGlobal(*s, *g),
            SlotRef::Undefined(n) => BcRef::Undefined(self.cx.name(n)),
        }
    }

    fn load(&mut self, r: &SlotRef) {
        let op = match self.bc_ref(r) {
            BcRef::Local(s) => Op::LoadLocal(s),
            BcRef::Global(g) => Op::LoadGlobal(g),
            BcRef::LocalOrGlobal(s, g) => Op::LoadLocalOr(s, g),
            BcRef::Undefined(n) => Op::LoadUndef(n),
        };
        self.emit(op);
    }

    fn assign(&mut self, r: &SlotRef) {
        let op = match self.bc_ref(r) {
            BcRef::Local(s) => Op::AssignLocal(s),
            BcRef::Global(g) => Op::AssignGlobal(g),
            BcRef::LocalOrGlobal(s, g) => Op::AssignLocalOr(s, g),
            BcRef::Undefined(n) => Op::AssignUndef(n),
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
            SlotStmt::Decl {
                ty,
                slot,
                init,
                synthesized,
            } => {
                if *synthesized {
                    return self.synth_decl(*ty, *slot, init);
                }
                self.stmt_charge(self.cx.costs.stmt);
                match init {
                    Some(e) => self.expr(e),
                    None => self.push_zero(*ty),
                }
                self.emit(Op::BindLocal(*slot));
            }
            SlotStmt::Assign {
                target,
                value,
                synthesized,
            } => {
                if *synthesized {
                    return self.synth_assign(target, value);
                }
                self.stmt_charge(self.cx.costs.stmt);
                self.expr(value);
                self.assign(target);
            }
            SlotStmt::If {
                cond,
                then_block,
                else_block,
                synthesized,
            } => {
                if *synthesized {
                    return self.synth_if(cond, then_block, else_block.as_deref());
                }
                self.stmt_charge(self.cx.costs.stmt);
                self.expr(cond);
                let mut els = Label::new();
                self.jump(&mut els, Op::BranchFalse);
                self.block(then_block);
                match else_block {
                    Some(e) => {
                        let mut end = Label::new();
                        self.jump(&mut end, Op::Jump);
                        self.bind(els);
                        self.block(e);
                        self.bind(end);
                    }
                    None => self.bind(els),
                }
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
                self.emit(Op::Jump(top));
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
            SlotStmt::Expr { expr } => {
                self.stmt_charge(self.cx.costs.stmt);
                self.expr(expr);
                self.emit(Op::Pop);
            }
        }
    }

    fn block(&mut self, b: &[SlotStmt]) {
        for s in b {
            self.stmt(s);
        }
    }

    // ---- synthesized (sampling bookkeeping) statements -----------------

    /// `int __cd = __gcd;` — region-entry countdown import.
    fn synth_decl(&mut self, ty: Type, slot: u32, init: &Option<SlotExpr>) {
        if let Some(SlotExpr::Var(r)) = init {
            let src = self.bc_ref(r);
            let spec = self.cx.spec(CdSpec {
                dst: BcRef::Local(slot),
                src,
                op: BinOp::Add,
                k: 0,
            });
            self.emit(Op::CdDecl(spec));
            return;
        }
        // Generic fallback: flat bookkeeping charge, operands evaluated
        // charge-free (the Charge ops inside are suspended at run time).
        self.stmt_charge(self.cx.costs.bookkeeping);
        match init {
            Some(e) => {
                self.emit(Op::FreeEnter);
                self.expr(e);
                self.emit(Op::FreeExit);
            }
            None => self.push_zero(ty),
        }
        self.emit(Op::BindLocal(slot));
    }

    /// Countdown copies (`__cd = __gcd`), decrements (`cd = cd - k`),
    /// and refills (`cd = __next_cd()`).
    fn synth_assign(&mut self, target: &SlotRef, value: &SlotExpr) {
        let dst = self.bc_ref(target);
        match value {
            SlotExpr::Var(r) => {
                let src = self.bc_ref(r);
                let spec = self.cx.spec(CdSpec {
                    dst,
                    src,
                    op: BinOp::Add,
                    k: 0,
                });
                self.emit(Op::CdCopy(spec));
                return;
            }
            SlotExpr::Binary { op, lhs, rhs } if *op != BinOp::And && *op != BinOp::Or => {
                // Short-circuit shapes are excluded: their right operand
                // is conditional and their traps differ from the fused
                // evaluation below.
                if let (SlotExpr::Var(r), SlotExpr::Int(k)) = (&**lhs, &**rhs) {
                    let src = self.bc_ref(r);
                    let spec = self.cx.spec(CdSpec {
                        dst,
                        src,
                        op: *op,
                        k: *k,
                    });
                    self.emit(Op::CdUpdate(spec));
                    return;
                }
            }
            SlotExpr::Call {
                callee: Callee::Builtin(Builtin::NextCountdown),
                ..
            } => {
                // The walker never evaluates `__next_cd` arguments, so any
                // argument list fuses.
                let spec = self.cx.spec(CdSpec {
                    dst,
                    src: dst,
                    op: BinOp::Add,
                    k: 0,
                });
                self.emit(Op::CdRefill(spec));
                return;
            }
            _ => {}
        }
        self.stmt_charge(self.cx.costs.bookkeeping);
        self.emit(Op::FreeEnter);
        self.expr(value);
        self.emit(Op::FreeExit);
        self.assign(target);
    }

    /// Threshold tests: `if (cd > w) {fast} else {slow}` and the
    /// slow-path `if (cd == 0) {sample; refill}` guard.
    fn synth_if(
        &mut self,
        cond: &SlotExpr,
        then_block: &[SlotStmt],
        else_block: Option<&[SlotStmt]>,
    ) {
        let fused = match cond {
            SlotExpr::Binary { op, lhs, rhs } if op.is_comparison() => match (&**lhs, &**rhs) {
                (SlotExpr::Var(r), SlotExpr::Int(k)) => Some((self.bc_ref(r), *op, *k)),
                _ => None,
            },
            _ => None,
        };
        let mut els = Label::new();
        match fused {
            Some((src, op, k)) => {
                let spec = self.cx.spec(CdSpec {
                    dst: src,
                    src,
                    op,
                    k,
                });
                let at = self.emit(Op::CdBranch {
                    spec,
                    els: u32::MAX,
                });
                els.push(at);
            }
            None => {
                self.stmt_charge(self.cx.costs.bookkeeping);
                self.emit(Op::FreeEnter);
                self.expr(cond);
                self.emit(Op::FreeExit);
                let op_code = match cond {
                    SlotExpr::Binary { op, .. } => *op as u32 + 1,
                    _ => 0,
                };
                let at = self.emit(Op::SynthCheck {
                    op: op_code,
                    els: u32::MAX,
                });
                els.push(at);
            }
        }
        self.block(then_block);
        match else_block {
            Some(e) => {
                let mut end = Label::new();
                self.jump(&mut end, Op::Jump);
                self.bind(els);
                self.block(e);
                self.bind(end);
            }
            None => self.bind(els),
        }
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
            Builtin::ObsCheck => {
                self.int_arg(args, 0);
                self.int_arg(args, 1);
                self.emit(Op::ObsCheck);
            }
            Builtin::ObsCmp => {
                // Observe charge precedes the arguments for this builtin
                // (fuses with the node charge); argument errors are
                // captured and deferred so every argument evaluates.
                self.charge(self.cx.costs.observe);
                self.emit(Op::FreeEnter);
                let mut a1 = Label::new();
                self.jump(&mut a1, Op::DeferPush);
                self.int_arg(args, 0);
                self.bind(a1);
                let mut a2 = Label::new();
                self.jump(&mut a2, Op::DeferNext);
                self.any_arg(args, 1);
                self.bind(a2);
                let mut fin = Label::new();
                self.jump(&mut fin, Op::DeferNext);
                self.any_arg(args, 2);
                self.bind(fin);
                self.emit(Op::FreeExit);
                self.emit(Op::ObsCmpFin);
            }
            Builtin::ObsSign => {
                self.charge(self.cx.costs.observe);
                self.emit(Op::FreeEnter);
                let mut a1 = Label::new();
                self.jump(&mut a1, Op::DeferPush);
                self.int_arg(args, 0);
                self.bind(a1);
                let mut fin = Label::new();
                self.jump(&mut fin, Op::DeferNext);
                self.any_arg(args, 1);
                self.bind(fin);
                self.emit(Op::FreeExit);
                self.emit(Op::ObsSignFin);
            }
            Builtin::NextCountdown => {
                self.emit(Op::NextCd);
            }
        }
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
    Gate(GateSpec, u32),
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
        | Op::SynthCheck { els: t, .. } = op
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
                    Fused::Gate(s, t) => Op::CdGate {
                        spec: intern(&mut p.gates, s),
                        els: t,
                    },
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
        | Op::SynthCheck { els: t, .. }
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

    // Countdown region gate: `[CdDecl|CdCopy] CdBranch [CdUpdate]` (and
    // the bare `CdBranch CdUpdate` pair) — the sequence the sampling
    // transformation plants at every region entry.
    let (pre, pre_decl, jg) = match at(0) {
        Some(Op::CdDecl(s)) => (Some(s), true, 1),
        Some(Op::CdCopy(s)) => (Some(s), false, 1),
        _ => (None, false, 0),
    };
    if let Some(Op::CdBranch { spec, els }) = at(jg) {
        let (dec, len) = match at(jg + 1) {
            Some(Op::CdUpdate(d)) => (Some(d), jg + 2),
            _ => (None, jg + 1),
        };
        if len >= 2 {
            return Some((
                Fused::Gate(
                    GateSpec {
                        pre,
                        pre_decl,
                        br: spec,
                        dec,
                    },
                    els,
                ),
                len,
            ));
        }
    }

    // Region-exit countdown copy folded into the following return.
    if let Some(Op::CdCopy(c)) = at(0) {
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
                    s.pre_decl = pre_decl;
                    Some(Fused::Bin(s))
                }
                Fused::BinJ(mut s, t) if s.pre.is_none() => {
                    s.pre = pre;
                    s.pre_decl = pre_decl;
                    Some(Fused::BinJ(s, t))
                }
                Fused::Mov(mut s) if s.pre.is_none() => {
                    s.pre = pre;
                    s.pre_decl = pre_decl;
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
                pre_decl: false,
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
                pre_decl: false,
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
