//! The bytecode dispatch engine: a flat `loop { match op }` over
//! [`cbi_bytecode::BcProgram`] instructions.
//!
//! All observable semantics — charges, traps, counters, traces — delegate
//! to the shared [`RunCore`], like the tree walker; this module owns only
//! instruction sequencing.  Two non-obvious parity points:
//!
//! * **Deferred observation errors.**  `__cmp`/`__obs_sign` evaluate every
//!   argument and report the *first* error afterwards.  The compiler
//!   brackets each argument with `DeferPush`/`DeferNext`; a trap while a
//!   defer is armed records the error, truncates the operand stack and
//!   frame stack to the defer's snapshot, pushes a placeholder value, and
//!   resumes at the next argument.  Crucially, `core.depth` and the
//!   locals arena are *not* rolled back: the walker's `?`-propagation
//!   skips the `depth -= 1` / `stack.truncate` in `call_function`, so a
//!   captured error from inside a callee leaks both — and a later
//!   stack-overflow check must see the same leaked depth.
//! * **Fused countdown ops** (`CdDecl`/`CdCopy`/`CdUpdate`/`CdRefill`/
//!   `CdBranch`) reproduce the walker's synthesized-statement path:
//!   telemetry step bump, flat bookkeeping charge, the
//!   `eval_uncharged` integer shortcut, and the generic
//!   [`RunCore::binary_values`] fallback for non-integer operands.

use crate::interp::{RunResult, VmError};
use crate::outcome::CrashKind;
use crate::runtime::{saturating_i64, RunCore, Trap};
use crate::value::Value;
use cbi_bytecode::{BcProgram, BcRef, CdSpec, Dest, Op, Operand};
use cbi_minic::ast::{BinOp, Type};

/// Decodes the `SynthCheck` operator payload (discriminant + 1).
const BINOPS: [BinOp; 13] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Mod,
    BinOp::Eq,
    BinOp::Ne,
    BinOp::Lt,
    BinOp::Le,
    BinOp::Gt,
    BinOp::Ge,
    BinOp::And,
    BinOp::Or,
];

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

    // Seed the global countdown before the first instruction (§2.1).
    if let Some(g) = prog.gcd_global {
        let seed = match core.sampling.as_deref_mut() {
            Some(src) => saturating_i64(src.next_countdown()),
            None => {
                return Err(VmError::new(
                    "sampled program requires a countdown source (with_sampling)",
                ))
            }
        };
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

    /// Executes a fused region-boundary countdown prefix: the telemetry
    /// bump, bookkeeping charge, lookup, and bind (`$decl`) or assign of
    /// the synthesized statement the compiler absorbed.
    macro_rules! cd_pre {
        ($op:lifetime, $p:expr, $decl:expr) => {{
            if core.tm.on {
                core.tm.steps += 1;
            }
            if let Err(t) = core.charge(core.costs.bookkeeping) {
                break $op t;
            }
            let cs = prog.specs[$p as usize];
            let v = match cd_lookup(cs.src, &locals, base, &globals, prog, cur_fn, &core) {
                Ok(v) => v,
                Err(t) => break $op t,
            };
            if $decl {
                let BcRef::Local(slot) = cs.dst else {
                    unreachable!("synthesized decl always targets a local slot");
                };
                locals[base + slot as usize] = Some(v);
            } else if let Err(t) =
                cd_assign(cs.dst, v, &mut locals, base, &mut globals, prog, cur_fn, &core)
            {
                break $op t;
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
                Op::ObsCheck => {
                    let (Some(Value::Int(ok)), Some(Value::Int(site))) = (stack.pop(), stack.pop())
                    else {
                        unreachable!("__check operands type-checked by preceding ops");
                    };
                    match core.obs_check(site, ok != 0) {
                        Ok(v) => {
                            stack.push(v);
                            continue 'run;
                        }
                        Err(t) => break 'op t,
                    }
                }
                Op::ObsCmpFin => {
                    let d = defers.pop().expect("__cmp finish without armed defer");
                    if let Some(err) = d.err {
                        break 'op err;
                    }
                    let b = stack.pop().expect("__cmp with empty operand stack");
                    let a = stack.pop().expect("__cmp with empty operand stack");
                    let Some(Value::Int(site)) = stack.pop() else {
                        unreachable!("__cmp site type-checked by preceding op");
                    };
                    match core.obs_cmp(site, a, b) {
                        Ok(v) => {
                            stack.push(v);
                            continue 'run;
                        }
                        Err(t) => break 'op t,
                    }
                }
                Op::ObsSignFin => {
                    let d = defers.pop().expect("__obs_sign finish without armed defer");
                    if let Some(err) = d.err {
                        break 'op err;
                    }
                    let v = stack.pop().expect("__obs_sign with empty operand stack");
                    let Some(Value::Int(site)) = stack.pop() else {
                        unreachable!("__obs_sign site type-checked by preceding op");
                    };
                    match core.obs_sign(site, v) {
                        Ok(v) => {
                            stack.push(v);
                            continue 'run;
                        }
                        Err(t) => break 'op t,
                    }
                }
                Op::NextCd => match core.next_countdown_value() {
                    Ok(v) => {
                        stack.push(v);
                        continue 'run;
                    }
                    Err(t) => break 'op t,
                },
                Op::FreeEnter => {
                    core.free_depth += 1;
                    continue 'run;
                }
                Op::FreeExit => {
                    core.free_depth -= 1;
                    continue 'run;
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
                Op::CdDecl(s) => {
                    if core.tm.on {
                        core.tm.steps += 1;
                    }
                    if let Err(t) = core.charge(core.costs.bookkeeping) {
                        break 'op t;
                    }
                    let spec = prog.specs[s as usize];
                    let v = match cd_lookup(spec.src, &locals, base, &globals, prog, cur_fn, &core)
                    {
                        Ok(v) => v,
                        Err(t) => break 'op t,
                    };
                    let BcRef::Local(slot) = spec.dst else {
                        unreachable!("synthesized decl always targets a local slot");
                    };
                    locals[base + slot as usize] = Some(v);
                    continue 'run;
                }
                Op::CdCopy(s) | Op::CdUpdate(s) => {
                    if core.tm.on {
                        core.tm.steps += 1;
                    }
                    if let Err(t) = core.charge(core.costs.bookkeeping) {
                        break 'op t;
                    }
                    let spec = prog.specs[s as usize];
                    let v = match cd_lookup(spec.src, &locals, base, &globals, prog, cur_fn, &core)
                    {
                        Ok(v) => v,
                        Err(t) => break 'op t,
                    };
                    let v = if matches!(op, Op::CdCopy(_)) {
                        v
                    } else {
                        match cd_arith(&core, spec, v) {
                            Ok(v) => v,
                            Err(t) => break 'op t,
                        }
                    };
                    match cd_assign(
                        spec.dst,
                        v,
                        &mut locals,
                        base,
                        &mut globals,
                        prog,
                        cur_fn,
                        &core,
                    ) {
                        Ok(()) => continue 'run,
                        Err(t) => break 'op t,
                    }
                }
                Op::CdRefill(s) => {
                    if core.tm.on {
                        core.tm.steps += 1;
                    }
                    if let Err(t) = core.charge(core.costs.bookkeeping) {
                        break 'op t;
                    }
                    let v = match core.next_countdown_value() {
                        Ok(v) => v,
                        Err(t) => break 'op t,
                    };
                    let spec = prog.specs[s as usize];
                    match cd_assign(
                        spec.dst,
                        v,
                        &mut locals,
                        base,
                        &mut globals,
                        prog,
                        cur_fn,
                        &core,
                    ) {
                        Ok(()) => continue 'run,
                        Err(t) => break 'op t,
                    }
                }
                Op::CdBranch { spec, els } => {
                    if core.tm.on {
                        core.tm.steps += 1;
                    }
                    if let Err(t) = core.charge(core.costs.bookkeeping) {
                        break 'op t;
                    }
                    let spec = prog.specs[spec as usize];
                    let v = match cd_lookup(spec.src, &locals, base, &globals, prog, cur_fn, &core)
                    {
                        Ok(v) => v,
                        Err(t) => break 'op t,
                    };
                    let taken = match v {
                        Value::Int(a) => {
                            let k = spec.k;
                            match spec.op {
                                BinOp::Eq => a == k,
                                BinOp::Ne => a != k,
                                BinOp::Lt => a < k,
                                BinOp::Le => a <= k,
                                BinOp::Gt => a > k,
                                BinOp::Ge => a >= k,
                                _ => unreachable!("cd_branch fuses only comparisons"),
                            }
                        }
                        other => match core.binary_values(spec.op, other, Value::Int(spec.k)) {
                            Ok(Value::Int(x)) => x != 0,
                            Ok(_) => unreachable!("comparisons yield integers"),
                            Err(t) => break 'op t,
                        },
                    };
                    if core.tm.on {
                        core.tm.synthesized_if(spec.op, taken);
                    }
                    if !taken {
                        pc = els as usize;
                    }
                    continue 'run;
                }
                Op::SynthCheck { op, els } => {
                    let taken = match stack.pop().expect("synth_check with empty operand stack") {
                        Value::Int(v) => v != 0,
                        other => {
                            break 'op core
                                .type_error(format!("synthesized condition evaluated to {other}"))
                        }
                    };
                    if core.tm.on && op != 0 {
                        core.tm.synthesized_if(BINOPS[(op - 1) as usize], taken);
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
                    if let Some(p) = sp.pre {
                        cd_pre!('op, p, sp.pre_decl);
                    }
                    if sp.stmt {
                        if core.tm.on {
                            core.tm.steps += 1;
                        }
                        if let Err(t) = core.charge(sp.chg_a as u64) {
                            break 'op t;
                        }
                    } else if sp.chg_a > 0 {
                        if let Err(t) = core.charge(sp.chg_a as u64) {
                            break 'op t;
                        }
                    }
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
                    if sp.stmt {
                        if core.tm.on {
                            core.tm.steps += 1;
                        }
                        if let Err(t) = core.charge(sp.chg_a as u64) {
                            break 'op t;
                        }
                    } else if sp.chg_a > 0 {
                        if let Err(t) = core.charge(sp.chg_a as u64) {
                            break 'op t;
                        }
                    }
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
                    if sp.stmt {
                        if core.tm.on {
                            core.tm.steps += 1;
                        }
                        if let Err(t) = core.charge(sp.c_ptr as u64) {
                            break 'op t;
                        }
                    } else if sp.c_ptr > 0 {
                        if let Err(t) = core.charge(sp.c_ptr as u64) {
                            break 'op t;
                        }
                    }
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
                    if let Some(p) = sp.pre {
                        cd_pre!('op, p, false);
                    }
                    if sp.stmt {
                        if core.tm.on {
                            core.tm.steps += 1;
                        }
                        if let Err(t) = core.charge(sp.chg as u64) {
                            break 'op t;
                        }
                    } else if sp.chg > 0 {
                        if let Err(t) = core.charge(sp.chg as u64) {
                            break 'op t;
                        }
                    }
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
                    if ix.stmt {
                        if core.tm.on {
                            core.tm.steps += 1;
                        }
                        if let Err(t) = core.charge(ix.c_ptr as u64) {
                            break 'op t;
                        }
                    } else if ix.c_ptr > 0 {
                        if let Err(t) = core.charge(ix.c_ptr as u64) {
                            break 'op t;
                        }
                    }
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
                    if ix.stmt {
                        if core.tm.on {
                            core.tm.steps += 1;
                        }
                        if let Err(t) = core.charge(ix.c_ptr as u64) {
                            break 'op t;
                        }
                    } else if ix.c_ptr > 0 {
                        if let Err(t) = core.charge(ix.c_ptr as u64) {
                            break 'op t;
                        }
                    }
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
                    if let Some(p) = sp.pre {
                        cd_pre!('op, p, sp.pre_decl);
                    }
                    if sp.stmt {
                        if core.tm.on {
                            core.tm.steps += 1;
                        }
                        if let Err(t) = core.charge(sp.chg as u64) {
                            break 'op t;
                        }
                    } else if sp.chg > 0 {
                        if let Err(t) = core.charge(sp.chg as u64) {
                            break 'op t;
                        }
                    }
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
                    if let Some(p) = sp.pre {
                        cd_pre!('op, p, sp.pre_decl);
                    }
                    if sp.stmt {
                        if core.tm.on {
                            core.tm.steps += 1;
                        }
                        if let Err(t) = core.charge(sp.chg_a as u64) {
                            break 'op t;
                        }
                    } else if sp.chg_a > 0 {
                        if let Err(t) = core.charge(sp.chg_a as u64) {
                            break 'op t;
                        }
                    }
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
                Op::CdGate { spec, els } => {
                    let g = &prog.gates[spec as usize];
                    if let Some(p) = g.pre {
                        cd_pre!('op, p, g.pre_decl);
                    }
                    if core.tm.on {
                        core.tm.steps += 1;
                    }
                    if let Err(t) = core.charge(core.costs.bookkeeping) {
                        break 'op t;
                    }
                    let bs = prog.specs[g.br as usize];
                    let v = match cd_lookup(bs.src, &locals, base, &globals, prog, cur_fn, &core) {
                        Ok(v) => v,
                        Err(t) => break 'op t,
                    };
                    let taken = match v {
                        Value::Int(a) => {
                            let k = bs.k;
                            match bs.op {
                                BinOp::Eq => a == k,
                                BinOp::Ne => a != k,
                                BinOp::Lt => a < k,
                                BinOp::Le => a <= k,
                                BinOp::Gt => a > k,
                                BinOp::Ge => a >= k,
                                _ => unreachable!("cd_branch fuses only comparisons"),
                            }
                        }
                        other => match core.binary_values(bs.op, other, Value::Int(bs.k)) {
                            Ok(Value::Int(x)) => x != 0,
                            Ok(_) => unreachable!("comparisons yield integers"),
                            Err(t) => break 'op t,
                        },
                    };
                    if core.tm.on {
                        core.tm.synthesized_if(bs.op, taken);
                    }
                    if !taken {
                        pc = els as usize;
                        continue 'run;
                    }
                    // The decrement sits on the fall-through (taken) edge
                    // only; the `els` jump skips it, like the unfused pair.
                    if let Some(d) = g.dec {
                        if core.tm.on {
                            core.tm.steps += 1;
                        }
                        if let Err(t) = core.charge(core.costs.bookkeeping) {
                            break 'op t;
                        }
                        let ds = prog.specs[d as usize];
                        let v =
                            match cd_lookup(ds.src, &locals, base, &globals, prog, cur_fn, &core) {
                                Ok(v) => v,
                                Err(t) => break 'op t,
                            };
                        let v = match cd_arith(&core, ds, v) {
                            Ok(v) => v,
                            Err(t) => break 'op t,
                        };
                        if let Err(t) = cd_assign(
                            ds.dst,
                            v,
                            &mut locals,
                            base,
                            &mut globals,
                            prog,
                            cur_fn,
                            &core,
                        ) {
                            break 'op t;
                        }
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
                    });
                    base = nbase;
                    cur_fn = cs.func as usize;
                    pc = f.entry as usize;
                    continue 'run;
                }
            }
        };

        // Recovery: an armed defer captures the first error, rewinds the
        // operand and frame stacks to its snapshot (the locals arena and
        // `core.depth` deliberately leak — see the module docs), stands in
        // a placeholder argument value, and resumes at the next argument.
        match defers.last_mut() {
            Some(d) => {
                if d.err.is_none() {
                    d.err = Some(trap);
                }
                stack.truncate(d.operand_len);
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

/// The walker's uncharged countdown-variable lookup, with its exact trap
/// messages.
#[inline]
fn cd_lookup(
    r: BcRef,
    locals: &[Option<Value>],
    base: usize,
    globals: &[Value],
    prog: &BcProgram,
    cur_fn: usize,
    core: &RunCore<'_>,
) -> Result<Value, Trap> {
    match r {
        BcRef::Local(s) => locals[base + s as usize].ok_or_else(|| {
            core.type_error(format!(
                "undefined variable `{}`",
                prog.functions[cur_fn].slot_names[s as usize]
            ))
        }),
        BcRef::Global(g) => Ok(globals[g as usize]),
        BcRef::LocalOrGlobal(s, g) => Ok(locals[base + s as usize].unwrap_or(globals[g as usize])),
        BcRef::Undefined(n) => {
            Err(core.type_error(format!("undefined variable `{}`", prog.names[n as usize])))
        }
    }
}

/// The walker's countdown assignment, with its exact trap messages.
#[inline]
#[allow(clippy::too_many_arguments)]
fn cd_assign(
    r: BcRef,
    v: Value,
    locals: &mut [Option<Value>],
    base: usize,
    globals: &mut [Value],
    prog: &BcProgram,
    cur_fn: usize,
    core: &RunCore<'_>,
) -> Result<(), Trap> {
    match r {
        BcRef::Local(s) => {
            let slot = &mut locals[base + s as usize];
            if slot.is_some() {
                *slot = Some(v);
                Ok(())
            } else {
                Err(core.type_error(format!(
                    "assignment to undefined variable `{}`",
                    prog.functions[cur_fn].slot_names[s as usize]
                )))
            }
        }
        BcRef::Global(g) => {
            globals[g as usize] = v;
            Ok(())
        }
        BcRef::LocalOrGlobal(s, g) => {
            let slot = &mut locals[base + s as usize];
            if slot.is_some() {
                *slot = Some(v);
            } else {
                globals[g as usize] = v;
            }
            Ok(())
        }
        BcRef::Undefined(n) => Err(core.type_error(format!(
            "assignment to undefined variable `{}`",
            prog.names[n as usize]
        ))),
    }
}

/// `cd <op> k` with the walker's `eval_uncharged` integer shortcut and
/// their generic fallback for everything else.
#[inline]
fn cd_arith(core: &RunCore<'_>, spec: CdSpec, v: Value) -> Result<Value, Trap> {
    if let Value::Int(a) = v {
        let k = spec.k;
        match spec.op {
            BinOp::Sub => return Ok(Value::Int(a.wrapping_sub(k))),
            BinOp::Add => return Ok(Value::Int(a.wrapping_add(k))),
            BinOp::Eq => return Ok(Value::Int(i64::from(a == k))),
            BinOp::Ne => return Ok(Value::Int(i64::from(a != k))),
            BinOp::Lt => return Ok(Value::Int(i64::from(a < k))),
            BinOp::Le => return Ok(Value::Int(i64::from(a <= k))),
            BinOp::Gt => return Ok(Value::Int(i64::from(a > k))),
            BinOp::Ge => return Ok(Value::Int(i64::from(a >= k))),
            _ => {}
        }
    }
    core.binary_values(spec.op, v, Value::Int(spec.k))
}
