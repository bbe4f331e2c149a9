//! The instruction set and compiled-program container.

use cbi_minic::ast::{BinOp, Type, UnOp};
use cbi_minic::slots::SlotGlobal;

/// The deterministic operation-cost model: abstract units per runtime
/// event, standing in for wall-clock time.
///
/// The one cost table: the compiler bakes these charges into fused
/// instructions and the VM's runtime helpers (heap traffic, observation,
/// refills) charge from the same [`Costs::default`], so the two always
/// agree.  Ratios of these counts between baseline, unconditional and
/// sampled builds of one program reproduce the *shape* of the overhead
/// tables (Table 2, Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Costs {
    /// Executing one statement (dispatch overhead).
    pub stmt: u64,
    /// Evaluating one expression node.
    pub expr: u64,
    /// Calling a user function (frame setup/teardown).
    pub call: u64,
    /// A heap load or store (beyond the expression cost).
    pub mem: u64,
    /// Executing an observation builtin (counter bump), beyond evaluating
    /// its arguments.
    pub observe: u64,
    /// Refilling the next-sample countdown (`__next_cd`).
    pub refill: u64,
    /// Flat cost of one synthesized countdown-bookkeeping statement (a
    /// threshold check, countdown decrement, or import/export).  The
    /// native compiler keeps the local countdown in a register (§2.4), so
    /// these cost far less than interpreted statements; the flat charge
    /// covers the statement and its trivial operand arithmetic.
    pub bookkeeping: u64,
}

impl Default for Costs {
    fn default() -> Self {
        Costs {
            stmt: 1,
            expr: 1,
            call: 12,
            mem: 6,
            observe: 2,
            refill: 6,
            bookkeeping: 1,
        }
    }
}

/// A statically resolved variable reference inside a [`CdSpec`] —
/// the bytecode mirror of [`cbi_minic::slots::SlotRef`], with undefined
/// names interned in [`BcProgram::names`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcRef {
    /// Frame slot; traps if the declaration has not executed yet.
    Local(u32),
    /// Direct global index.
    Global(u32),
    /// Frame slot if bound, else the global (dynamic shadowing).
    LocalOrGlobal(u32, u32),
    /// Always a runtime trap; payload indexes [`BcProgram::names`].
    Undefined(u32),
}

/// Where a fused instruction's operand comes from.
///
/// Mirrors the load ops one for one: fetching a [`Operand::Local`] traps
/// on an unbound slot with the same message as [`Op::LoadLocal`].
/// Statically undefined references never fuse, so there is no `Undefined`
/// variant here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// An integer literal.
    Const(i64),
    /// The null pointer literal.
    Null,
    /// A frame slot; traps if unbound.
    Local(u32),
    /// A global.
    Global(u32),
    /// The frame slot if bound, else the global.
    LocalOr(u32, u32),
    /// Popped from the operand stack (already evaluated).
    Stack,
}

/// Where a fused instruction's result goes.
///
/// Mirrors the store ops: [`Dest::Local`] traps on an unbound slot with
/// the same message as [`Op::AssignLocal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Push onto the operand stack.
    Push,
    /// Bind a frame slot (declaration: always binds).
    Bind(u32),
    /// Store to a bound frame slot; traps if unbound.
    Local(u32),
    /// Store to a global.
    Global(u32),
    /// Store to the frame slot if bound, else the global.
    LocalOr(u32, u32),
    /// Return the value from the current function (a fused [`Op::Ret`]).
    Ret,
}

/// One fused binary-arithmetic instruction: an optional statement head,
/// baked charges at their original positions, two operand fetches, the
/// operator, and the destination — a whole `x = a <op> b;` statement in
/// one dispatch.  Stored in [`BcProgram::bins`].
///
/// The field order is the execution order: statement-head bump, charge
/// `chg_a`, fetch `a`, charge `chg_b`, fetch `b`, apply `op`, store to
/// `dst`.  Each step traps exactly where the unfused op sequence did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinSpec {
    /// Fused leading region-boundary countdown op, as an index into
    /// [`BcProgram::specs`]; executed before the statement head.
    pub pre: Option<u32>,
    /// `true` = the prefix is a [`Op::CdDecl`] (binds); `false` = a
    /// [`Op::CdCopy`] (assigns).
    pub pre_decl: bool,
    /// Bump the telemetry step counter first (the fused [`Op::Stmt`]).
    pub stmt: bool,
    /// Units charged before `a` (with `stmt`, charged even when zero —
    /// [`Op::Stmt`] always charges).
    pub chg_a: u32,
    /// Left operand.
    pub a: Operand,
    /// Units charged between the operands (zero = no charge op fused).
    pub chg_b: u32,
    /// Right operand.
    pub b: Operand,
    /// The operator; never a short-circuit op.
    pub op: BinOp,
    /// Result destination.
    pub dst: Dest,
}

/// One fused conditional branch: charges and operand fetches as in
/// [`BinSpec`], then a comparison (or a bare truthiness test when `cmp`
/// is `None`) deciding the jump.  Stored in [`BcProgram::brs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrSpec {
    /// Bump the telemetry step counter first.
    pub stmt: bool,
    /// Units charged before `a`.
    pub chg_a: u32,
    /// Condition operand (the only one when `cmp` is `None`).
    pub a: Operand,
    /// Units charged between the operands.
    pub chg_b: u32,
    /// Right operand; ignored when `cmp` is `None`.
    pub b: Operand,
    /// Fused comparison, or `None` for a bare integer truthiness test
    /// (trapping on non-integers like [`Op::BranchFalse`]).
    pub cmp: Option<BinOp>,
    /// Jump when the condition equals this (`false` = branch-if-false).
    pub jump_if: bool,
}

/// One fused pointer-index prologue: the pointer fetch, its
/// load/store-flavored check, the index charge and fetch, and the integer
/// check of the index — leaving checked pointer and index on the operand
/// stack for the following [`Op::HeapLoad`]/[`Op::HeapStore`], exactly
/// like the unfused sequence.  Stored in [`BcProgram::idxs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdxSpec {
    /// Bump the telemetry step counter first.
    pub stmt: bool,
    /// Units charged before the pointer fetch.
    pub c_ptr: u32,
    /// The pointer operand.
    pub ptr: Operand,
    /// `None` = load flavor ([`Op::LoadPtrCheck`] trap messages);
    /// `Some(name)` = store flavor ([`Op::StorePtrCheck`]).
    pub store_name: Option<u32>,
    /// Units charged between pointer check and index fetch.
    pub c_idx: u32,
    /// The index operand.
    pub idx: Operand,
}

/// One fused return: an optional region-exit countdown copy, an optional
/// statement head, the baked charge, the operand fetch, and the frame
/// pop — a whole `__gcd = __cd; return x;` in one dispatch.  Stored in
/// [`BcProgram::rets`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetSpec {
    /// Fused leading [`Op::CdCopy`], as an index into
    /// [`BcProgram::specs`].
    pub pre: Option<u32>,
    /// Bump the telemetry step counter first.
    pub stmt: bool,
    /// Units charged before the operand fetch (with `stmt`, charged even
    /// when zero).
    pub chg: u32,
    /// The returned operand ([`Operand::Stack`] only with `pre` set — a
    /// fused copy before a plain [`Op::Ret`]).
    pub a: Operand,
}

/// One fused move: an optional statement head, the baked charge, one
/// operand fetch, and the destination — a whole `int x = 0;` (or a bare
/// charged push feeding a call) in one dispatch.  Stored in
/// [`BcProgram::mvs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvSpec {
    /// Fused leading region-boundary countdown op, as an index into
    /// [`BcProgram::specs`]; executed before the statement head.
    pub pre: Option<u32>,
    /// `true` = the prefix is a [`Op::CdDecl`] (binds); `false` = a
    /// [`Op::CdCopy`] (assigns).
    pub pre_decl: bool,
    /// Bump the telemetry step counter first.
    pub stmt: bool,
    /// Units charged before the fetch (with `stmt`, charged even when
    /// zero).
    pub chg: u32,
    /// The moved operand; never [`Operand::Stack`].
    pub a: Operand,
    /// Destination; never [`Dest::Ret`] (that shape is [`Op::FusedRet`]).
    pub dst: Dest,
}

/// One fused countdown gate — the region-entry sequence the sampling
/// transformation plants everywhere: an optional countdown import
/// ([`Op::CdDecl`] or [`Op::CdCopy`]), the threshold test, and the
/// fast-path decrement executed only when the test falls through.
/// Stored in [`BcProgram::gates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateSpec {
    /// Leading import, as an index into [`BcProgram::specs`].
    pub pre: Option<u32>,
    /// `true` = the import is a [`Op::CdDecl`] (binds); `false` = a
    /// [`Op::CdCopy`] (assigns).
    pub pre_decl: bool,
    /// The [`Op::CdBranch`] threshold spec.
    pub br: u32,
    /// The fall-through [`Op::CdUpdate`] spec, executed only when the
    /// threshold test passes.
    pub dec: Option<u32>,
}

/// One fused call with a result destination: the call itself plus the
/// store that consumes its return value, recorded in the frame so the
/// return applies it directly.  Stored in [`BcProgram::calls`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSpec {
    /// Callee index into [`BcProgram::functions`].
    pub func: u32,
    /// Number of evaluated arguments on the operand stack.
    pub argc: u32,
    /// Where the callee's return value goes in this caller's frame;
    /// never [`Dest::Ret`].
    pub dst: Dest,
}

/// One fused heap load: the whole pointer-index prologue of
/// [`IdxSpec`], the memory charge, the load, and the destination —
/// `x = p[i];` in one dispatch.  Stored in [`BcProgram::lds`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdSpec {
    /// The pointer/index prologue (load flavor: `store_name` is `None`).
    pub idx: IdxSpec,
    /// Where the loaded value goes.
    pub dst: Dest,
}

/// One fused heap store: the pointer-index prologue, the value charge
/// and fetch, the memory charge, and the store — `p[i] = v;` in one
/// dispatch.  Stored in [`BcProgram::sts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StSpec {
    /// The pointer/index prologue (store flavor: `store_name` is set).
    pub idx: IdxSpec,
    /// Units charged before the value fetch (zero = no charge op fused).
    pub c_val: u32,
    /// The stored value.
    pub val: Operand,
}

/// The operands of one fused synthesized-countdown instruction, stored in
/// [`BcProgram::specs`] and referenced by index so [`Op`] stays compact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdSpec {
    /// Destination of the bound/assigned value.
    pub dst: BcRef,
    /// Source variable (`__cd` / `__gcd`).
    pub src: BcRef,
    /// Operator of the fused arithmetic or threshold test.
    pub op: BinOp,
    /// Immediate right-hand operand.
    pub k: i64,
}

/// One bytecode instruction.
///
/// Every jump payload is a resolved absolute index into
/// [`BcProgram::ops`].  Charge amounts are baked from the compile-time
/// [`Costs`]; charges applied by runtime helpers (heap traffic,
/// observations, refills) stay dynamic so their position relative to trap
/// points matches the tree walker exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Statement head: bump the telemetry step counter, then charge `n`
    /// units (fused with adjacent expression-node charges).
    Stmt(u32),
    /// Charge `n` units (suspended inside free regions).
    Charge(u32),
    /// Push an integer literal.
    PushInt(i64),
    /// Push the null pointer.
    PushNull,
    /// Discard the top of the operand stack.
    Pop,
    /// Push a frame slot; traps if unbound.
    LoadLocal(u32),
    /// Push a global.
    LoadGlobal(u32),
    /// Push the frame slot if bound, else the global.
    LoadLocalOr(u32, u32),
    /// Trap: undefined variable (payload indexes [`BcProgram::names`]).
    LoadUndef(u32),
    /// Pop and bind a frame slot (declaration: always binds).
    BindLocal(u32),
    /// Pop and store to a bound frame slot; traps if unbound.
    AssignLocal(u32),
    /// Pop and store to a global.
    AssignGlobal(u32),
    /// Pop and store to the frame slot if bound, else the global.
    AssignLocalOr(u32, u32),
    /// Trap: assignment to an undefined variable.
    AssignUndef(u32),
    /// Unconditional jump.
    Jump(u32),
    /// Pop; trap if non-integer; jump if zero.
    BranchFalse(u32),
    /// Pop; trap if non-integer; jump if nonzero.
    BranchTrue(u32),
    /// Pop; trap if non-integer; push 0/1 truthiness.
    ToBool,
    /// Trap unless the top of stack is an integer (kept in place).
    ExpectInt,
    /// Trap unless the top of stack is a pointer (kept in place):
    /// null dereference or "indexing non-pointer value".
    LoadPtrCheck,
    /// Like [`Op::LoadPtrCheck`] for store targets; payload indexes
    /// [`BcProgram::names`] for the trap message.
    StorePtrCheck(u32),
    /// Charge memory cost; pop index and pointer; push the loaded value.
    HeapLoad,
    /// Charge memory cost; pop value, index, and pointer; store.
    HeapStore,
    /// Pop an integer; push the unary result.
    Unary(UnOp),
    /// Pop two operands; push the binary result (non-short-circuit ops).
    Binary(BinOp),
    /// Call a user function: depth check, call charge, new frame binding
    /// `argc` popped arguments.
    Call {
        /// Callee index into [`BcProgram::functions`].
        func: u32,
        /// Number of evaluated arguments on the operand stack.
        argc: u32,
    },
    /// Trap: call to an undefined function.
    CallUndef(u32),
    /// Pop the return value, pop the frame, resume the caller.
    Ret,
    /// Return the integer zero (procedures, `return;`, int fall-off).
    RetZero,
    /// Return null (fall-off of a pointer-returning function).
    RetNull,
    /// `alloc(n)`: pop the length, push the new pointer.
    Alloc,
    /// `free(p)`: pop the argument, push 0.
    Free,
    /// `len(p)`: pop the argument, push the block length.
    Len,
    /// `read()`: push the next scripted input value.
    Read,
    /// `has_input()`: push the input-remaining flag.
    HasInput,
    /// `print(v)`: pop an integer, append to the output log, push 0.
    Print,
    /// `exit(c)`: pop an integer, end the run successfully.
    Exit,
    /// `__check(site, ok)` tail: pop both integers, observe, push 0.
    ObsCheck,
    /// `__cmp` tail: pop the deferred-error state and three operands,
    /// observe the comparison, push 0.
    ObsCmpFin,
    /// `__obs_sign` tail: pop the deferred-error state and two operands,
    /// observe the sign class, push 0.
    ObsSignFin,
    /// `__next_cd()`: refill charge, push the next countdown.
    NextCd,
    /// Enter a charge-free region (synthesized bookkeeping operands).
    FreeEnter,
    /// Leave a charge-free region.
    FreeExit,
    /// Arm deferred-error capture for an observation argument list; the
    /// payload is the resume point after the first argument.
    DeferPush(u32),
    /// Advance the deferred-error capture to the next argument boundary.
    DeferNext(u32),
    /// Fused `int __cd = __gcd;`: bookkeeping charge, copy, bind.
    CdDecl(u32),
    /// Fused `__gcd = __cd;` / `__cd = __gcd;`: bookkeeping charge, copy.
    CdCopy(u32),
    /// Fused `cd = cd <op> k;`: bookkeeping charge, arithmetic, store —
    /// the coalesced region decrement is one of these.
    CdUpdate(u32),
    /// Fused `cd = __next_cd();`: bookkeeping + refill charge, store.
    CdRefill(u32),
    /// Fused `if (cd <op> k)` threshold test selecting the fast or slow
    /// block: bookkeeping charge, compare, fall through or jump to `els`.
    CdBranch {
        /// Index into [`BcProgram::specs`].
        spec: u32,
        /// Jump target when the condition is false.
        els: u32,
    },
    /// Generic synthesized-conditional tail: pop the condition, trap on
    /// non-integers, record the region-telemetry class, branch.
    SynthCheck {
        /// Condition operator for telemetry classification, encoded as
        /// discriminant + 1, or 0 when the condition is not a binary op.
        op: u32,
        /// Jump target when the condition is false.
        els: u32,
    },
    /// A builtin was called with too few arguments; panics at execution
    /// time exactly where the tree walker's argument indexing panics.
    MissingArg,
    /// Peephole-fused charge/load/load/binary/store sequence; payload
    /// indexes [`BcProgram::bins`].
    FusedBin(u32),
    /// Peephole-fused charge/load/load/compare/branch sequence; payload
    /// indexes [`BcProgram::brs`], jumping to `target` per the spec.
    FusedBr {
        /// Index into [`BcProgram::brs`].
        spec: u32,
        /// Absolute jump target when the branch is taken.
        target: u32,
    },
    /// Peephole-fused pointer/index prologue; payload indexes
    /// [`BcProgram::idxs`].  Pushes the checked pointer and index.
    FusedIdx(u32),
    /// Peephole-fused charge/load/return sequence; payload indexes
    /// [`BcProgram::rets`].
    FusedRet(u32),
    /// Peephole-fused pointer/index/load/store-result sequence; payload
    /// indexes [`BcProgram::lds`].
    FusedLoad(u32),
    /// Peephole-fused pointer/index/value/heap-store sequence; payload
    /// indexes [`BcProgram::sts`].
    FusedStore(u32),
    /// Peephole-fused charge/load/store move; payload indexes
    /// [`BcProgram::mvs`].
    FusedMov(u32),
    /// [`Op::FusedBin`] followed by an unconditional jump (the loop
    /// back-edge shape); payload indexes [`BcProgram::bins`].
    FusedBinJ {
        /// Index into [`BcProgram::bins`].
        spec: u32,
        /// Absolute jump target after the store.
        target: u32,
    },
    /// Peephole-fused countdown region gate; payload indexes
    /// [`BcProgram::gates`], jumping to `els` when the threshold test
    /// fails.
    CdGate {
        /// Index into [`BcProgram::gates`].
        spec: u32,
        /// Jump target when the threshold test fails (the slow path).
        els: u32,
    },
    /// Peephole-fused call whose return value lands in a recorded
    /// destination; payload indexes [`BcProgram::calls`].
    CallBind(u32),
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct BcFunction {
    /// Function name (diagnostics and disassembly).
    pub name: String,
    /// Entry index into [`BcProgram::ops`].
    pub entry: u32,
    /// One past the last instruction of this function's body.
    pub end: u32,
    /// Number of parameters; they occupy slots `0..n_params`.
    pub n_params: u32,
    /// Total frame slots.
    pub n_slots: u32,
    /// Slot index → variable name, for trap messages.
    pub slot_names: Vec<String>,
    /// Return type, or `None` for procedures.
    pub ret: Option<Type>,
}

/// A whole program compiled to bytecode: the unit the dispatch engine
/// executes.  Produce one with [`crate::compile`] and share it freely —
/// compiling once per campaign amortizes code generation over thousands
/// of trials.
#[derive(Debug, Clone, PartialEq)]
pub struct BcProgram {
    /// All functions' instructions, concatenated.
    pub ops: Vec<Op>,
    /// Compiled functions, in source order.
    pub functions: Vec<BcFunction>,
    /// Globals, in declaration order (indices match global references).
    pub globals: Vec<SlotGlobal>,
    /// Index of `main`, if any.
    pub main: Option<u32>,
    /// Index of the `__gcd` sampling countdown global, if present.
    pub gcd_global: Option<u32>,
    /// Interned names for trap messages about statically unresolved
    /// variables, callees, and store targets.
    pub names: Vec<Box<str>>,
    /// Operand records for the fused countdown instructions.
    pub specs: Vec<CdSpec>,
    /// Operand records for [`Op::FusedBin`] instructions.
    pub bins: Vec<BinSpec>,
    /// Operand records for [`Op::FusedBr`] instructions.
    pub brs: Vec<BrSpec>,
    /// Operand records for [`Op::FusedIdx`] instructions.
    pub idxs: Vec<IdxSpec>,
    /// Operand records for [`Op::FusedRet`] instructions.
    pub rets: Vec<RetSpec>,
    /// Operand records for [`Op::FusedLoad`] instructions.
    pub lds: Vec<LdSpec>,
    /// Operand records for [`Op::FusedStore`] instructions.
    pub sts: Vec<StSpec>,
    /// Operand records for [`Op::FusedMov`] instructions.
    pub mvs: Vec<MvSpec>,
    /// Operand records for [`Op::CdGate`] instructions.
    pub gates: Vec<GateSpec>,
    /// Operand records for [`Op::CallBind`] instructions.
    pub calls: Vec<CallSpec>,
    /// The cost model the charges were baked against.
    pub costs: Costs,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_are_positive() {
        // Destructured, so a new field cannot skip the check.
        let Costs {
            stmt,
            expr,
            call,
            mem,
            observe,
            refill,
            bookkeeping,
        } = Costs::default();
        assert!([stmt, expr, call, mem, observe, refill, bookkeeping]
            .iter()
            .all(|&v| v > 0));
    }
}
