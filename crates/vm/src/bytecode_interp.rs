//! The bytecode dispatch engine: a flat `loop { match op }` over
//! [`cbi_bytecode::BcProgram`] instructions.
//!
//! All observable semantics — charges, traps, counters, traces — delegate
//! to the shared [`RunCore`], like the tree walker; this module owns only
//! instruction sequencing.  Two non-obvious parity points:
//!
//! * **Deferred observation errors.**  `__cmp`/`__obs_sign` evaluate every
//!   argument and report the *first* error afterwards.  Where an argument
//!   contains a call (or the site is computed) the compiler brackets each
//!   argument with `DeferPush`/`DeferNext`; a trap while a defer is armed
//!   records the error, truncates the operand stack and frame stack to
//!   the defer's snapshot, pushes a placeholder value, and resumes at the
//!   next argument, and the `ObsExit` raises the recorded error.
//!   Call-free arguments have no effect after a trap but their (free)
//!   charges, so there the first trap is raised where it happens.
//!   Crucially, `core.depth` and the locals arena are *not* rolled back
//!   on a rewind: the walker's `?`-propagation skips the `depth -= 1` /
//!   `stack.truncate` in `call_function`, so a captured error from inside
//!   a callee leaks both — and a later stack-overflow check must see the
//!   same leaked depth.
//! * **Countdown registers.**  The walker keeps `__cd` in a frame slot
//!   and `__gcd` in a global; here they are two `i64` registers of the
//!   dispatch loop, `cd` and `gcd`.  Each call saves the caller's `cd` in
//!   its [`Frame`], and the return — or a deferred-error rewind past the
//!   frame — restores it, so every frame sees its own `cd` as the walker
//!   sees its own slot.  The countdown ops (`CdMove`/`CdDec`/`CdBranch`/
//!   `CdGate`) and the sample gates of the observation ops keep the
//!   walker's sampling-statement effects in order — telemetry step bump,
//!   flat bookkeeping charge, region telemetry — with nothing that can
//!   trap but the charge itself and the refill.

use crate::interp::{RunResult, VmError};
use crate::outcome::CrashKind;
use crate::runtime::{saturating_i64, RunCore, Trap};
use crate::value::Value;
use cbi_bytecode::{BcProgram, BoundsSpec, CdMove, Dest, ObsArgs, ObsSpec, Op, Operand};
use cbi_minic::ast::{BinOp, Countdown, Type};

/// A live call frame.
struct Frame {
    /// Resume point in the caller.
    ret_pc: usize,
    /// This frame's window start in the locals arena.
    base: usize,
    /// Index into `prog.functions`, for slot names in trap messages.
    fn_idx: usize,
    /// Where the return value goes in the caller ([`Dest::Push`] for a
    /// plain call; a store destination for [`Op::CallBind`]).
    dst: Dest,
    /// The caller's `cd` register, restored when this frame goes.
    cd: i64,
}

/// Snapshot for deferred-error capture inside `__cmp`/`__obs_sign`
/// argument lists.
struct Defer {
    /// Resume point: the next argument boundary.
    target: usize,
    operand_len: usize,
    frame_len: usize,
    free_depth: u32,
    /// The first captured error, reported by the `*Fin` op.
    err: Option<Trap>,
}

pub(crate) fn run(prog: &BcProgram, mut core: RunCore<'_>) -> Result<RunResult, VmError> {
    let main_idx = prog
        .main
        .ok_or_else(|| VmError::new("program has no `main` function"))? as usize;
    let main = &prog.functions[main_idx];
    if main.n_params != 0 {
        return Err(VmError::new("`main` must take no parameters"));
    }

    let mut globals: Vec<Value> = prog
        .globals
        .iter()
        .map(|g| match g.ty {
            Type::Int => Value::Int(g.init),
            Type::Ptr => Value::Null,
        })
        .collect();

    // The countdown registers.  Seed the global one before the first
    // instruction (§2.1); its global slot gets the seed too, for code
    // that spells the countdown out as ordinary statements.
    let mut cd: i64 = 0;
    let mut gcd: i64 = 0;
    if let Some(g) = prog.gcd_global {
        let seed = match core.sampling.as_deref_mut() {
            Some(src) => saturating_i64(src.next_countdown()),
            None => {
                return Err(VmError::new(
                    "sampled program requires a countdown source (with_sampling)",
                ))
            }
        };
        gcd = seed;
        globals[g as usize] = Value::Int(seed);
    }

    // The `main` call prologue, matching `call_function` effect for
    // effect: depth check, depth bump, call charge, frame slots.
    let call = 'prologue: {
        if core.depth >= core.max_depth {
            break 'prologue Err(Trap::Crash(CrashKind::StackOverflow));
        }
        core.depth += 1;
        if let Err(t) = core.charge(core.costs.call) {
            break 'prologue Err(t);
        }
        Ok(())
    };
    if let Err(t) = call {
        let outcome = RunCore::outcome_of(Err(t));
        return Ok(core.finish(outcome));
    }

    let mut locals: Vec<Option<Value>> = vec![None; main.n_slots as usize];
    let mut stack: Vec<Value> = Vec::with_capacity(32);
    let mut frames: Vec<Frame> = vec![Frame {
        ret_pc: usize::MAX,
        base: 0,
        fn_idx: main_idx,
        dst: Dest::Push,
        cd: 0,
    }];
    let mut defers: Vec<Defer> = Vec::new();
    let mut pc = main.entry as usize;
    let mut base = 0usize;
    let mut cur_fn = main_idx;
    let ops = &prog.ops[..];

    /// Pops the current frame and delivers `v` to the caller through the
    /// frame's recorded destination (every return path shares this, so
    /// `Op::CallBind` destinations are honored uniformly).
    macro_rules! do_ret {
        ($op:lifetime, $run:lifetime, $v:expr) => {{
            let v = $v;
            let fr = frames.pop().expect("ret with no live frame");
            core.depth -= 1;
            locals.truncate(fr.base);
            cd = fr.cd;
            match frames.last() {
                Some(caller) => {
                    base = caller.base;
                    cur_fn = caller.fn_idx;
                    pc = fr.ret_pc;
                    match fr.dst {
                        Dest::Push => stack.push(v),
                        Dest::Bind(s) => locals[base + s as usize] = Some(v),
                        Dest::Local(s) => {
                            let slot = &mut locals[base + s as usize];
                            if slot.is_none() {
                                break $op core.type_error(format!(
                                    "assignment to undefined variable `{}`",
                                    prog.functions[cur_fn].slot_names[s as usize]
                                ));
                            }
                            *slot = Some(v);
                        }
                        Dest::Global(g) => globals[g as usize] = v,
                        Dest::LocalOr(s, g) => {
                            let slot = &mut locals[base + s as usize];
                            if slot.is_some() {
                                *slot = Some(v);
                            } else {
                                globals[g as usize] = v;
                            }
                        }
                        Dest::Ret => unreachable!("call destinations never return"),
                    }
                    continue $run;
                }
                None => break $run Ok(Some(v)),
            }
        }};
    }

    /// Delivers a fused instruction's result to its destination, with the
    /// store ops' exact trap messages; `Dest::Ret` returns the value.
    macro_rules! apply_dst {
        ($op:lifetime, $run:lifetime, $d:expr, $v:expr) => {{
            let v = $v;
            match $d {
                Dest::Push => stack.push(v),
                Dest::Bind(s) => locals[base + s as usize] = Some(v),
                Dest::Local(s) => {
                    let slot = &mut locals[base + s as usize];
                    if slot.is_none() {
                        break $op core.type_error(format!(
                            "assignment to undefined variable `{}`",
                            prog.functions[cur_fn].slot_names[s as usize]
                        ));
                    }
                    *slot = Some(v);
                }
                Dest::Global(g) => globals[g as usize] = v,
                Dest::LocalOr(s, g) => {
                    let slot = &mut locals[base + s as usize];
                    if slot.is_some() {
                        *slot = Some(v);
                    } else {
                        globals[g as usize] = v;
                    }
                }
                Dest::Ret => do_ret!($op, $run, v),
            }
        }};
    }

    /// The bookkeeping every countdown op opens with, as the walker's
    /// sampling statement does: the telemetry step bump and the flat
    /// charge.
    macro_rules! bookkeeping {
        ($op:lifetime) => {{
            if core.tm.on {
                core.tm.steps += 1;
            }
            if let Err(t) = core.charge(core.costs.bookkeeping) {
                break $op t;
            }
        }};
    }

    /// A countdown import or export between the two registers.
    macro_rules! cd_move {
        ($op:lifetime, $m:expr) => {{
            bookkeeping!($op);
            match $m {
                CdMove::Import => cd = gcd,
                CdMove::Export => gcd = cd,
            }
        }};
    }

    /// The register `$r` names, as a place.
    macro_rules! reg {
        ($r:expr) => {
            *match $r {
                Countdown::Local => &mut cd,
                Countdown::Global => &mut gcd,
            }
        };
    }

    /// A slow-path sample gate, as the walker runs a sample guard's `cd =
    /// cd - 1;` and `if (cd == 0)`: two bookkeeping statements and the
    /// sample telemetry; `$shut`, which leaves the op, runs when the
    /// register is still nonzero.
    macro_rules! sample_gate {
        ($op:lifetime, $r:expr, $shut:expr) => {{
            bookkeeping!($op);
            reg!($r) = reg!($r).wrapping_sub(1);
            bookkeeping!($op);
            if reg!($r) != 0 {
                $shut
            }
            if core.tm.on {
                core.tm.samples += 1;
            }
        }};
    }

    /// A fused instruction's head: with a statement head, the step bump
    /// and the charge (even when zero, as [`Op::Stmt`] charges);
    /// otherwise the charge when there is one.
    macro_rules! head {
        ($op:lifetime, $stmt:expr, $chg:expr) => {{
            if $stmt {
                if core.tm.on {
                    core.tm.steps += 1;
                }
                if let Err(t) = core.charge($chg as u64) {
                    break $op t;
                }
            } else if $chg > 0 {
                if let Err(t) = core.charge($chg as u64) {
                    break $op t;
                }
            }
        }};
    }

    /// After an observation: its result (outside statement position) and
    /// the gate's refill statement.
    macro_rules! obs_finish {
        ($op:lifetime, $sp:expr) => {{
            if !$sp.stmt {
                stack.push(Value::Int(0));
            }
            if let Some(r) = $sp.gate {
                bookkeeping!($op);
                match core.next_countdown() {
                    Ok(v) => reg!(r) = v,
                    Err(t) => break $op t,
                }
            }
        }};
    }

    let result: Result<Option<Value>, Trap> = 'run: loop {
        let op = ops[pc];
        pc += 1;
        // Success arms `continue 'run`; trap arms `break 'op` into the
        // shared recovery path below.
        let trap: Trap = 'op: {
            match op {
                Op::Stmt(n) => {
                    if core.tm.on {
                        core.tm.steps += 1;
                    }
                    match core.charge(n as u64) {
                        Ok(()) => continue 'run,
                        Err(t) => break 'op t,
                    }
                }
                Op::Charge(n) => match core.charge(n as u64) {
                    Ok(()) => continue 'run,
                    Err(t) => break 'op t,
                },
                Op::PushInt(v) => {
                    stack.push(Value::Int(v));
                    continue 'run;
                }
                Op::PushNull => {
                    stack.push(Value::Null);
                    continue 'run;
                }
                Op::Pop => {
                    stack.pop();
                    continue 'run;
                }
                Op::LoadLocal(s) => match locals[base + s as usize] {
                    Some(v) => {
                        stack.push(v);
                        continue 'run;
                    }
                    None => {
                        break 'op core.type_error(format!(
                            "undefined variable `{}`",
                            prog.functions[cur_fn].slot_names[s as usize]
                        ))
                    }
                },
                Op::LoadGlobal(g) => {
                    stack.push(globals[g as usize]);
                    continue 'run;
                }
                Op::LoadLocalOr(s, g) => {
                    stack.push(locals[base + s as usize].unwrap_or(globals[g as usize]));
                    continue 'run;
                }
                Op::LoadUndef(n) => {
                    break 'op core
                        .type_error(format!("undefined variable `{}`", prog.names[n as usize]))
                }
                Op::BindLocal(s) => {
                    let v = stack.pop().expect("bind with empty operand stack");
                    locals[base + s as usize] = Some(v);
                    continue 'run;
                }
                Op::AssignLocal(s) => {
                    let v = stack.pop().expect("store with empty operand stack");
                    let slot = &mut locals[base + s as usize];
                    if slot.is_some() {
                        *slot = Some(v);
                        continue 'run;
                    }
                    break 'op core.type_error(format!(
                        "assignment to undefined variable `{}`",
                        prog.functions[cur_fn].slot_names[s as usize]
                    ));
                }
                Op::AssignGlobal(g) => {
                    let v = stack.pop().expect("store with empty operand stack");
                    globals[g as usize] = v;
                    continue 'run;
                }
                Op::AssignLocalOr(s, g) => {
                    let v = stack.pop().expect("store with empty operand stack");
                    let slot = &mut locals[base + s as usize];
                    if slot.is_some() {
                        *slot = Some(v);
                    } else {
                        globals[g as usize] = v;
                    }
                    continue 'run;
                }
                Op::AssignUndef(n) => {
                    stack.pop();
                    break 'op core.type_error(format!(
                        "assignment to undefined variable `{}`",
                        prog.names[n as usize]
                    ));
                }
                Op::Jump(t) => {
                    pc = t as usize;
                    continue 'run;
                }
                Op::BranchFalse(t) => match stack.pop().expect("branch with empty operand stack") {
                    Value::Int(v) => {
                        if v == 0 {
                            pc = t as usize;
                        }
                        continue 'run;
                    }
                    other => break 'op core.type_error(format!("expected integer, got {other}")),
                },
                Op::BranchTrue(t) => match stack.pop().expect("branch with empty operand stack") {
                    Value::Int(v) => {
                        if v != 0 {
                            pc = t as usize;
                        }
                        continue 'run;
                    }
                    other => break 'op core.type_error(format!("expected integer, got {other}")),
                },
                Op::ToBool => match stack.pop().expect("to_bool with empty operand stack") {
                    Value::Int(v) => {
                        stack.push(Value::Int(i64::from(v != 0)));
                        continue 'run;
                    }
                    other => break 'op core.type_error(format!("expected integer, got {other}")),
                },
                Op::ExpectInt => match stack.last().expect("check with empty operand stack") {
                    Value::Int(_) => continue 'run,
                    other => break 'op core.type_error(format!("expected integer, got {other}")),
                },
                Op::LoadPtrCheck => match stack.last().expect("check with empty operand stack") {
                    Value::Ptr(_) => continue 'run,
                    Value::Null => break 'op Trap::Crash(CrashKind::NullDeref),
                    other => {
                        break 'op core.type_error(format!("indexing non-pointer value {other}"))
                    }
                },
                Op::StorePtrCheck(n) => {
                    match stack.last().expect("check with empty operand stack") {
                        Value::Ptr(_) => continue 'run,
                        Value::Null => break 'op Trap::Crash(CrashKind::NullDeref),
                        other => {
                            break 'op core.type_error(format!(
                                "store through non-pointer `{}` = {other}",
                                prog.names[n as usize]
                            ))
                        }
                    }
                }
                Op::HeapLoad => {
                    if let Err(t) = core.charge(core.costs.mem) {
                        break 'op t;
                    }
                    let (Some(Value::Int(idx)), Some(Value::Ptr(p))) = (stack.pop(), stack.pop())
                    else {
                        unreachable!("heap_load operands type-checked by preceding ops");
                    };
                    match core.heap.load(p, idx) {
                        Ok(v) => {
                            stack.push(v);
                            continue 'run;
                        }
                        Err(k) => break 'op Trap::Crash(k),
                    }
                }
                Op::HeapStore => {
                    let v = stack.pop().expect("heap_store with empty operand stack");
                    let (Some(Value::Int(idx)), Some(Value::Ptr(p))) = (stack.pop(), stack.pop())
                    else {
                        unreachable!("heap_store operands type-checked by preceding ops");
                    };
                    if let Err(t) = core.charge(core.costs.mem) {
                        break 'op t;
                    }
                    match core.heap.store(p, idx, v) {
                        Ok(()) => continue 'run,
                        Err(k) => break 'op Trap::Crash(k),
                    }
                }
                Op::Unary(op) => {
                    let Some(Value::Int(v)) = stack.pop() else {
                        unreachable!("unary operand type-checked by preceding op");
                    };
                    stack.push(Value::Int(RunCore::unary_value(op, v)));
                    continue 'run;
                }
                Op::Binary(op) => {
                    let b = stack.pop().expect("binary with empty operand stack");
                    let a = stack.pop().expect("binary with empty operand stack");
                    match core.binary_fast(op, a, b) {
                        Ok(v) => {
                            stack.push(v);
                            continue 'run;
                        }
                        Err(t) => break 'op t,
                    }
                }
                Op::Call { func, argc } => {
                    let f = &prog.functions[func as usize];
                    if core.depth >= core.max_depth {
                        break 'op Trap::Crash(CrashKind::StackOverflow);
                    }
                    core.depth += 1;
                    if let Err(t) = core.charge(core.costs.call) {
                        break 'op t;
                    }
                    let nbase = locals.len();
                    locals.resize(nbase + f.n_slots as usize, None);
                    let argc = argc as usize;
                    let args_at = stack.len() - argc;
                    // Arity mismatches only occur in unchecked programs;
                    // binding the shorter list matches the walker.
                    for i in 0..argc.min(f.n_params as usize) {
                        locals[nbase + i] = Some(stack[args_at + i]);
                    }
                    stack.truncate(args_at);
                    frames.push(Frame {
                        ret_pc: pc,
                        base: nbase,
                        fn_idx: func as usize,
                        dst: Dest::Push,
                        cd,
                    });
                    base = nbase;
                    cur_fn = func as usize;
                    pc = f.entry as usize;
                    continue 'run;
                }
                Op::CallUndef(n) => {
                    break 'op core.type_error(format!(
                        "call to undefined function `{}`",
                        prog.names[n as usize]
                    ))
                }
                Op::Ret | Op::RetZero | Op::RetNull => {
                    let v = match op {
                        Op::Ret => stack.pop().expect("ret with empty operand stack"),
                        Op::RetZero => Value::Int(0),
                        _ => Value::Null,
                    };
                    do_ret!('op, 'run, v)
                }
                Op::Alloc => {
                    let Some(Value::Int(n)) = stack.pop() else {
                        unreachable!("alloc operand type-checked by preceding op");
                    };
                    match core.alloc_value(n) {
                        Ok(v) => {
                            stack.push(v);
                            continue 'run;
                        }
                        Err(t) => break 'op t,
                    }
                }
                Op::Free => {
                    let v = stack.pop().expect("free with empty operand stack");
                    match core.free_value(v) {
                        Ok(v) => {
                            stack.push(v);
                            continue 'run;
                        }
                        Err(t) => break 'op t,
                    }
                }
                Op::Len => {
                    let v = stack.pop().expect("len with empty operand stack");
                    match core.len_value(v) {
                        Ok(v) => {
                            stack.push(v);
                            continue 'run;
                        }
                        Err(t) => break 'op t,
                    }
                }
                Op::Read => {
                    let v = core.read_value();
                    stack.push(v);
                    continue 'run;
                }
                Op::HasInput => {
                    let v = core.has_input_value();
                    stack.push(v);
                    continue 'run;
                }
                Op::Print => {
                    let Some(Value::Int(v)) = stack.pop() else {
                        unreachable!("print operand type-checked by preceding op");
                    };
                    let r = core.print_value(v);
                    stack.push(r);
                    continue 'run;
                }
                Op::Exit => {
                    let Some(Value::Int(code)) = stack.pop() else {
                        unreachable!("exit operand type-checked by preceding op");
                    };
                    break 'op Trap::Exit(code);
                }
                Op::DeferPush(t) => {
                    defers.push(Defer {
                        target: t as usize,
                        operand_len: stack.len(),
                        frame_len: frames.len(),
                        free_depth: core.free_depth,
                        err: None,
                    });
                    continue 'run;
                }
                Op::DeferNext(t) => {
                    let d = defers
                        .last_mut()
                        .expect("defer advance without armed defer");
                    d.target = t as usize;
                    d.operand_len = stack.len();
                    continue 'run;
                }
                Op::CdMove(m) => {
                    cd_move!('op, m);
                    continue 'run;
                }
                Op::CdDec { reg, k } => {
                    bookkeeping!('op);
                    reg!(reg) = reg!(reg).wrapping_sub(i64::from(k));
                    continue 'run;
                }
                Op::CdBranch { reg, w, els } => {
                    bookkeeping!('op);
                    let taken = reg!(reg) > i64::from(w);
                    if core.tm.on {
                        core.tm.threshold(taken);
                    }
                    if !taken {
                        pc = els as usize;
                    }
                    continue 'run;
                }
                Op::MissingArg => {
                    panic!("builtin called with too few arguments");
                }
                Op::FusedBin(s) => {
                    let sp = &prog.bins[s as usize];
                    if let Some(m) = sp.pre {
                        cd_move!('op, m);
                    }
                    head!('op, sp.stmt, sp.chg_a);
                    // Both-stack operands pop in reverse push order; the
                    // general path fetches left, charges, fetches right —
                    // the unfused execution order.
                    let (a, b) = if sp.a == Operand::Stack && sp.b == Operand::Stack {
                        let b = stack.pop().expect("fused binary with empty operand stack");
                        let a = stack.pop().expect("fused binary with empty operand stack");
                        (a, b)
                    } else {
                        let a = match fetch(
                            sp.a, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                        ) {
                            Ok(v) => v,
                            Err(t) => break 'op t,
                        };
                        if sp.chg_b > 0 {
                            if let Err(t) = core.charge(sp.chg_b as u64) {
                                break 'op t;
                            }
                        }
                        let b = match fetch(
                            sp.b, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                        ) {
                            Ok(v) => v,
                            Err(t) => break 'op t,
                        };
                        (a, b)
                    };
                    let v = match core.binary_fast(sp.op, a, b) {
                        Ok(v) => v,
                        Err(t) => break 'op t,
                    };
                    apply_dst!('op, 'run, sp.dst, v);
                    continue 'run;
                }
                Op::FusedBr { spec, target } => {
                    let sp = &prog.brs[spec as usize];
                    head!('op, sp.stmt, sp.chg_a);
                    let taken = match sp.cmp {
                        None => {
                            match fetch(
                                sp.a, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                            ) {
                                Ok(Value::Int(v)) => v != 0,
                                Ok(other) => {
                                    break 'op core
                                        .type_error(format!("expected integer, got {other}"))
                                }
                                Err(t) => break 'op t,
                            }
                        }
                        Some(op) => {
                            let (a, b) = if sp.a == Operand::Stack && sp.b == Operand::Stack {
                                let b = stack.pop().expect("fused branch with empty operand stack");
                                let a = stack.pop().expect("fused branch with empty operand stack");
                                (a, b)
                            } else {
                                let a = match fetch(
                                    sp.a, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                                ) {
                                    Ok(v) => v,
                                    Err(t) => break 'op t,
                                };
                                if sp.chg_b > 0 {
                                    if let Err(t) = core.charge(sp.chg_b as u64) {
                                        break 'op t;
                                    }
                                }
                                let b = match fetch(
                                    sp.b, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                                ) {
                                    Ok(v) => v,
                                    Err(t) => break 'op t,
                                };
                                (a, b)
                            };
                            match core.binary_fast(op, a, b) {
                                Ok(Value::Int(v)) => v != 0,
                                // The absorbed branch op popped this and
                                // traps on non-integers.
                                Ok(other) => {
                                    break 'op core
                                        .type_error(format!("expected integer, got {other}"))
                                }
                                Err(t) => break 'op t,
                            }
                        }
                    };
                    if taken == sp.jump_if {
                        pc = target as usize;
                    }
                    continue 'run;
                }
                Op::FusedIdx(s) => {
                    let sp = &prog.idxs[s as usize];
                    head!('op, sp.stmt, sp.c_ptr);
                    // A stacked pointer is peeked (the unfused check op
                    // leaves it in place); a fetched one is pushed after
                    // the check.
                    let p = if sp.ptr == Operand::Stack {
                        *stack.last().expect("fused index with empty operand stack")
                    } else {
                        match fetch(
                            sp.ptr, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                        ) {
                            Ok(v) => v,
                            Err(t) => break 'op t,
                        }
                    };
                    match p {
                        Value::Ptr(_) => {}
                        Value::Null => break 'op Trap::Crash(CrashKind::NullDeref),
                        other => {
                            break 'op match sp.store_name {
                                None => {
                                    core.type_error(format!("indexing non-pointer value {other}"))
                                }
                                Some(n) => core.type_error(format!(
                                    "store through non-pointer `{}` = {other}",
                                    prog.names[n as usize]
                                )),
                            }
                        }
                    }
                    if sp.ptr != Operand::Stack {
                        stack.push(p);
                    }
                    if sp.c_idx > 0 {
                        if let Err(t) = core.charge(sp.c_idx as u64) {
                            break 'op t;
                        }
                    }
                    let idx = match fetch(
                        sp.idx, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                    ) {
                        Ok(v) => v,
                        Err(t) => break 'op t,
                    };
                    if !matches!(idx, Value::Int(_)) {
                        break 'op core.type_error(format!("expected integer, got {idx}"));
                    }
                    stack.push(idx);
                    continue 'run;
                }
                Op::FusedRet(s) => {
                    let sp = &prog.rets[s as usize];
                    if let Some(m) = sp.pre {
                        cd_move!('op, m);
                    }
                    head!('op, sp.stmt, sp.chg);
                    let v = match fetch(
                        sp.a, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                    ) {
                        Ok(v) => v,
                        Err(t) => break 'op t,
                    };
                    do_ret!('op, 'run, v)
                }
                Op::FusedLoad(s) => {
                    let sp = &prog.lds[s as usize];
                    let ix = sp.idx;
                    head!('op, ix.stmt, ix.c_ptr);
                    // The checked pointer and index stay in registers —
                    // the fused heap access pops them right back.
                    let p = if ix.ptr == Operand::Stack {
                        stack.pop().expect("fused load with empty operand stack")
                    } else {
                        match fetch(
                            ix.ptr, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                        ) {
                            Ok(v) => v,
                            Err(t) => break 'op t,
                        }
                    };
                    let h = match p {
                        Value::Ptr(h) => h,
                        Value::Null => break 'op Trap::Crash(CrashKind::NullDeref),
                        other => {
                            break 'op core
                                .type_error(format!("indexing non-pointer value {other}"))
                        }
                    };
                    if ix.c_idx > 0 {
                        if let Err(t) = core.charge(ix.c_idx as u64) {
                            break 'op t;
                        }
                    }
                    let i = match fetch(
                        ix.idx, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                    ) {
                        Ok(Value::Int(i)) => i,
                        Ok(other) => {
                            break 'op core.type_error(format!("expected integer, got {other}"))
                        }
                        Err(t) => break 'op t,
                    };
                    if let Err(t) = core.charge(core.costs.mem) {
                        break 'op t;
                    }
                    let v = match core.heap.load(h, i) {
                        Ok(v) => v,
                        Err(k) => break 'op Trap::Crash(k),
                    };
                    apply_dst!('op, 'run, sp.dst, v);
                    continue 'run;
                }
                Op::FusedStore(s) => {
                    let sp = &prog.sts[s as usize];
                    let ix = sp.idx;
                    head!('op, ix.stmt, ix.c_ptr);
                    let p = match fetch(
                        ix.ptr, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                    ) {
                        Ok(v) => v,
                        Err(t) => break 'op t,
                    };
                    let h = match p {
                        Value::Ptr(h) => h,
                        Value::Null => break 'op Trap::Crash(CrashKind::NullDeref),
                        other => {
                            let n = ix.store_name.expect("store-flavor fused spec");
                            break 'op core.type_error(format!(
                                "store through non-pointer `{}` = {other}",
                                prog.names[n as usize]
                            ));
                        }
                    };
                    if ix.c_idx > 0 {
                        if let Err(t) = core.charge(ix.c_idx as u64) {
                            break 'op t;
                        }
                    }
                    let i = match fetch(
                        ix.idx, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                    ) {
                        Ok(Value::Int(i)) => i,
                        Ok(other) => {
                            break 'op core.type_error(format!("expected integer, got {other}"))
                        }
                        Err(t) => break 'op t,
                    };
                    if sp.c_val > 0 {
                        if let Err(t) = core.charge(sp.c_val as u64) {
                            break 'op t;
                        }
                    }
                    let v = match fetch(
                        sp.val, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                    ) {
                        Ok(v) => v,
                        Err(t) => break 'op t,
                    };
                    if let Err(t) = core.charge(core.costs.mem) {
                        break 'op t;
                    }
                    match core.heap.store(h, i, v) {
                        Ok(()) => continue 'run,
                        Err(k) => break 'op Trap::Crash(k),
                    }
                }
                Op::FusedMov(s) => {
                    let sp = &prog.mvs[s as usize];
                    if let Some(m) = sp.pre {
                        cd_move!('op, m);
                    }
                    head!('op, sp.stmt, sp.chg);
                    let v = match fetch(
                        sp.a, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                    ) {
                        Ok(v) => v,
                        Err(t) => break 'op t,
                    };
                    apply_dst!('op, 'run, sp.dst, v);
                    continue 'run;
                }
                Op::FusedBinJ { spec, target } => {
                    let sp = &prog.bins[spec as usize];
                    if let Some(m) = sp.pre {
                        cd_move!('op, m);
                    }
                    head!('op, sp.stmt, sp.chg_a);
                    let (a, b) = if sp.a == Operand::Stack && sp.b == Operand::Stack {
                        let b = stack.pop().expect("fused binary with empty operand stack");
                        let a = stack.pop().expect("fused binary with empty operand stack");
                        (a, b)
                    } else {
                        let a = match fetch(
                            sp.a, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                        ) {
                            Ok(v) => v,
                            Err(t) => break 'op t,
                        };
                        if sp.chg_b > 0 {
                            if let Err(t) = core.charge(sp.chg_b as u64) {
                                break 'op t;
                            }
                        }
                        let b = match fetch(
                            sp.b, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                        ) {
                            Ok(v) => v,
                            Err(t) => break 'op t,
                        };
                        (a, b)
                    };
                    let v = match core.binary_fast(sp.op, a, b) {
                        Ok(v) => v,
                        Err(t) => break 'op t,
                    };
                    apply_dst!('op, 'run, sp.dst, v);
                    pc = target as usize;
                    continue 'run;
                }
                Op::CdGate {
                    pre,
                    reg,
                    w,
                    dec,
                    els,
                } => {
                    if let Some(m) = pre {
                        cd_move!('op, m);
                    }
                    bookkeeping!('op);
                    let taken = reg!(reg) > i64::from(w);
                    if core.tm.on {
                        core.tm.threshold(taken);
                    }
                    if !taken {
                        pc = els as usize;
                        continue 'run;
                    }
                    // The decrement sits on the fall-through (taken) edge
                    // only; the `els` jump skips it, like the unfused pair.
                    if let Some(k) = dec {
                        bookkeeping!('op);
                        reg!(reg) = reg!(reg).wrapping_sub(i64::from(k.get()));
                    }
                    continue 'run;
                }
                Op::CallBind(s) => {
                    let cs = &prog.calls[s as usize];
                    let f = &prog.functions[cs.func as usize];
                    if core.depth >= core.max_depth {
                        break 'op Trap::Crash(CrashKind::StackOverflow);
                    }
                    core.depth += 1;
                    if let Err(t) = core.charge(core.costs.call) {
                        break 'op t;
                    }
                    let nbase = locals.len();
                    locals.resize(nbase + f.n_slots as usize, None);
                    let argc = cs.argc as usize;
                    let args_at = stack.len() - argc;
                    for i in 0..argc.min(f.n_params as usize) {
                        locals[nbase + i] = Some(stack[args_at + i]);
                    }
                    stack.truncate(args_at);
                    frames.push(Frame {
                        ret_pc: pc,
                        base: nbase,
                        fn_idx: cs.func as usize,
                        dst: cs.dst,
                        cd,
                    });
                    base = nbase;
                    cur_fn = cs.func as usize;
                    pc = f.entry as usize;
                    continue 'run;
                }
                Op::Obs(s) => {
                    let sp = &prog.obs[s as usize];
                    if let Some(r) = sp.gate {
                        sample_gate!('op, r, continue 'run);
                    }
                    head!('op, sp.stmt, sp.chg);
                    if let Err(t) = observe(
                        sp, &mut stack, &locals, base, &globals, prog, cur_fn, &mut core,
                    ) {
                        break 'op t;
                    }
                    obs_finish!('op, sp);
                    continue 'run;
                }
                Op::ObsEnter { spec, skip } => {
                    let sp = &prog.obs[spec as usize];
                    if let Some(r) = sp.gate {
                        sample_gate!('op, r, {
                            pc = skip as usize;
                            continue 'run;
                        });
                    }
                    head!('op, sp.stmt, sp.chg);
                    match sp.args {
                        // Their arguments evaluate uncharged.
                        ObsArgs::Cmp(..) | ObsArgs::Sign(_) => core.free_depth += 1,
                        ObsArgs::Bounds(b) => {
                            let p = fetch(
                                b.p, &mut stack, &locals, base, &globals, prog, cur_fn, &core,
                            );
                            if let Err(t) = p.and_then(|p| {
                                bounds_head(&mut core, site_id(sp, &mut stack), &b, p)
                            }) {
                                break 'op t;
                            }
                        }
                        ObsArgs::Check(_) => {}
                    }
                    continue 'run;
                }
                Op::ObsExit(s) => {
                    let sp = &prog.obs[s as usize];
                    if matches!(sp.args, ObsArgs::Cmp(..) | ObsArgs::Sign(_)) {
                        core.free_depth -= 1;
                    }
                    if sp.defer {
                        let d = defers.pop().expect("observation tail without armed defer");
                        if let Some(err) = d.err {
                            break 'op err;
                        }
                    }
                    if let Err(t) = observe(
                        sp, &mut stack, &locals, base, &globals, prog, cur_fn, &mut core,
                    ) {
                        break 'op t;
                    }
                    obs_finish!('op, sp);
                    continue 'run;
                }
            }
        };

        // Recovery: an armed defer captures the first error, rewinds the
        // operand and frame stacks to its snapshot (the locals arena and
        // `core.depth` deliberately leak — see the module docs), restores
        // the snapshot frame's `cd` if a callee frame goes, stands in a
        // placeholder argument value, and resumes at the next argument.
        match defers.last_mut() {
            Some(d) => {
                if d.err.is_none() {
                    d.err = Some(trap);
                }
                stack.truncate(d.operand_len);
                if let Some(callee) = frames.get(d.frame_len) {
                    cd = callee.cd;
                }
                frames.truncate(d.frame_len);
                core.free_depth = d.free_depth;
                let fr = frames.last().expect("defer snapshot frame is live");
                base = fr.base;
                cur_fn = fr.fn_idx;
                stack.push(Value::Int(0));
                pc = d.target;
            }
            None => break 'run Err(trap),
        }
    };

    let outcome = RunCore::outcome_of(result);
    Ok(core.finish(outcome))
}

/// Fetches one fused-instruction operand, with the load ops' exact trap
/// messages.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn fetch(
    o: Operand,
    stack: &mut Vec<Value>,
    locals: &[Option<Value>],
    base: usize,
    globals: &[Value],
    prog: &BcProgram,
    cur_fn: usize,
    core: &RunCore<'_>,
) -> Result<Value, Trap> {
    match o {
        Operand::Const(v) => Ok(Value::Int(v)),
        Operand::Null => Ok(Value::Null),
        Operand::Local(s) => locals[base + s as usize].ok_or_else(|| {
            core.type_error(format!(
                "undefined variable `{}`",
                prog.functions[cur_fn].slot_names[s as usize]
            ))
        }),
        Operand::Global(g) => Ok(globals[g as usize]),
        Operand::LocalOr(s, g) => Ok(locals[base + s as usize].unwrap_or(globals[g as usize])),
        Operand::Stack => Ok(stack.pop().expect("fused operand with empty stack")),
    }
}

/// The observed site id: the literal, or popped from below the other
/// stacked arguments (already checked to be an integer by its own ops).
fn site_id(sp: &ObsSpec, stack: &mut Vec<Value>) -> i64 {
    match sp.site {
        Operand::Const(v) => v,
        _ => match stack.pop() {
            Some(Value::Int(v)) => v,
            _ => unreachable!("computed site type-checked by preceding op"),
        },
    }
}

/// Fetches an observation's arguments and observes, like the walker's
/// builtin after its head charge: operands are fetched in source order
/// (stacked ones popped in reverse), then the counter bump, trace entry
/// and `Assertion` trap.  A bounds check with a stacked index picks up
/// after [`bounds_head`] ran at its [`Op::ObsEnter`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn observe(
    sp: &ObsSpec,
    stack: &mut Vec<Value>,
    locals: &[Option<Value>],
    base: usize,
    globals: &[Value],
    prog: &BcProgram,
    cur_fn: usize,
    core: &mut RunCore<'_>,
) -> Result<(), Trap> {
    let get = |o, stack: &mut Vec<Value>, core: &RunCore<'_>| {
        fetch(o, stack, locals, base, globals, prog, cur_fn, core)
    };
    match sp.args {
        ObsArgs::Check(c) => {
            let v = get(c, stack, core)?;
            let site = site_id(sp, stack);
            match v {
                Value::Int(v) => core.obs_check(site, v != 0).map(drop),
                other => Err(core.type_error(format!("expected integer, got {other}"))),
            }
        }
        ObsArgs::Bounds(b) if b.i == Operand::Stack => {
            let i = stack.pop().expect("bounds index with empty operand stack");
            let p = get(b.p, stack, core)?;
            bounds_tail(core, site_id(sp, stack), &b, p, i)
        }
        ObsArgs::Bounds(b) => {
            let site = site_id(sp, stack);
            let p = get(b.p, stack, core)?;
            bounds_head(core, site, &b, p)?;
            let i = get(b.i, stack, core)?;
            bounds_tail(core, site, &b, p, i)
        }
        ObsArgs::Cmp(a, b) => {
            let (a, b) = if a == Operand::Stack {
                let b = stack.pop().expect("__cmp with empty operand stack");
                (stack.pop().expect("__cmp with empty operand stack"), b)
            } else {
                (get(a, stack, core)?, get(b, stack, core)?)
            };
            let site = site_id(sp, stack);
            core.obs_cmp(site, a, b).map(drop)
        }
        ObsArgs::Sign(v) => {
            let v = get(v, stack, core)?;
            let site = site_id(sp, stack);
            core.obs_sign(site, v).map(drop)
        }
    }
}

/// A bounds check from its fetched pointer to the index: the charge
/// before `null`, the `p != null` test (a null pointer fails the check,
/// which traps), and the charge before the index.
fn bounds_head(core: &mut RunCore<'_>, site: i64, b: &BoundsSpec, p: Value) -> Result<(), Trap> {
    core.charge(b.c_null.into())?;
    match p {
        Value::Ptr(_) => core.charge(b.c_ge.into()),
        Value::Null => Err(core
            .obs_check(site, false)
            .expect_err("a failed check traps")),
        other => Err(core
            .binary_values(BinOp::Ne, other, Value::Null)
            .expect_err("only pointers compare with null")),
    }
}

/// A bounds check from its index on: the `i >= 0` test, then `i <
/// len(p)` priced with the index's second evaluation, and the
/// observation.
fn bounds_tail(
    core: &mut RunCore<'_>,
    site: i64,
    b: &BoundsSpec,
    p: Value,
    i: Value,
) -> Result<(), Trap> {
    core.charge(b.c_zero.into())?;
    let i = match i {
        Value::Int(i) => i,
        other => {
            return Err(core
                .binary_values(BinOp::Ge, other, Value::Int(0))
                .expect_err("only integers compare with 0"))
        }
    };
    if i < 0 {
        return Err(core
            .obs_check(site, false)
            .expect_err("a failed check traps"));
    }
    core.charge(b.c_lt.into())?;
    let Value::Int(len) = core.len_value(p)? else {
        unreachable!("len is an integer");
    };
    core.obs_check(site, i < len).map(drop)
}
