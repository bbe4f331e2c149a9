//! The slot-resolved tree walker — the oracle the bytecode engine is
//! tested against ([`crate::Vm::from_slots`]); nothing ships on it.
//!
//! Executes [`SlotProgram`]s produced by [`cbi_minic::slots::lower`]:
//! frames are windows of a shared `Vec<Option<Value>>` stack indexed by
//! dense slot numbers, globals are a dense `Vec<Value>`, and callees are
//! pre-resolved — no string hashing anywhere on the execution path.
//!
//! This module evaluates the AST's semantics directly, one statement
//! and one expression node at a time, and the bytecode compiler must
//! reproduce it: every op-cost charge, trap, and observation happens in
//! exactly the same order with exactly the same message, so `RunResult`s
//! (outcome, ops, counters, output, trace) are bit-identical across the
//! two — a property `tests/engine_reference_gate.rs` pins over the
//! example corpus and `tests/bytecode_differential.rs` over random
//! programs.  All observable effects go through the shared [`RunCore`];
//! this module owns only the evaluation order.  An unbound slot is
//! `None`, which gives MiniC's dynamic name lookup (use-before-declaration
//! traps, locals falling back to a same-named global until their
//! declaration executes) on unchecked programs.

use crate::outcome::CrashKind;
use crate::runtime::{Flow, RunCore, Trap};
use crate::value::Value;
use cbi_minic::ast::{BinOp, Countdown, Sample};
use cbi_minic::slots::{
    Callee, SlotExpr, SlotFunction, SlotProgram, SlotRef, SlotSample, SlotStmt,
};
use cbi_minic::Builtin;

pub(crate) struct SlotExec<'a> {
    pub(crate) prog: &'a SlotProgram,
    pub(crate) core: RunCore<'a>,
    pub(crate) globals: Vec<Value>,
    /// All live frames, concatenated; each call sees the window starting
    /// at its `base`.  `None` = slot not yet bound by its declaration.
    pub(crate) stack: Vec<Option<Value>>,
}

impl<'a> SlotExec<'a> {
    fn ref_name(&self, f: &SlotFunction, r: &SlotRef) -> String {
        self.prog.ref_name(f, r).to_string()
    }

    pub(crate) fn call_function(
        &mut self,
        f: &'a SlotFunction,
        args: &[Value],
    ) -> Result<Option<Value>, Trap> {
        if self.core.depth >= self.core.max_depth {
            return Err(Trap::Crash(CrashKind::StackOverflow));
        }
        self.core.depth += 1;
        self.core.charge(self.core.costs.call)?;
        let base = self.stack.len();
        self.stack.resize(base + f.n_slots as usize, None);
        // Arity mismatches only occur in unchecked programs; binding the
        // shorter of the two lists (a frame only ever holds `n_params`).
        for (i, &v) in args.iter().take(f.n_params as usize).enumerate() {
            self.stack[base + i] = Some(v);
        }
        let flow = self.exec_block(&f.body, f, base)?;
        self.core.depth -= 1;
        self.stack.truncate(base);
        match flow {
            Flow::Return(v) => Ok(v),
            // Falling off the end returns the zero value for the declared
            // return type (or nothing for procedures).
            _ => Ok(f.ret.map(Value::zero_of)),
        }
    }

    fn exec_block(
        &mut self,
        b: &'a [SlotStmt],
        f: &'a SlotFunction,
        base: usize,
    ) -> Result<Flow, Trap> {
        for s in b {
            match self.exec_stmt(s, f, base)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(
        &mut self,
        s: &'a SlotStmt,
        f: &'a SlotFunction,
        base: usize,
    ) -> Result<Flow, Trap> {
        if self.core.tm.on {
            self.core.tm.steps += 1;
        }
        match s {
            SlotStmt::Decl { ty, slot, init } => {
                self.core.charge(self.core.costs.stmt)?;
                let v = match init {
                    Some(e) => self.eval(e, f, base)?,
                    None => Value::zero_of(*ty),
                };
                self.stack[base + *slot as usize] = Some(v);
                Ok(Flow::Normal)
            }
            SlotStmt::Assign { target, value } => {
                self.core.charge(self.core.costs.stmt)?;
                let v = self.eval(value, f, base)?;
                self.assign(target, v, f, base)?;
                Ok(Flow::Normal)
            }
            SlotStmt::If {
                cond,
                then_block,
                else_block,
            } => {
                self.core.charge(self.core.costs.stmt)?;
                if self.eval_bool(cond, f, base)? {
                    self.exec_block(then_block, f, base)
                } else if let Some(e) = else_block {
                    self.exec_block(e, f, base)
                } else {
                    Ok(Flow::Normal)
                }
            }
            SlotStmt::Store {
                target,
                index,
                value,
            } => {
                self.core.charge(self.core.costs.stmt)?;
                let ptr = match self.lookup(target, f, base)? {
                    Value::Ptr(p) => p,
                    Value::Null => return Err(Trap::Crash(CrashKind::NullDeref)),
                    other => {
                        let name = self.ref_name(f, target);
                        return Err(self
                            .core
                            .type_error(format!("store through non-pointer `{name}` = {other}")));
                    }
                };
                let idx = self.eval_int(index, f, base)?;
                let v = self.eval(value, f, base)?;
                self.core.charge(self.core.costs.mem)?;
                self.core.heap.store(ptr, idx, v).map_err(Trap::Crash)?;
                Ok(Flow::Normal)
            }
            SlotStmt::While { cond, body } => {
                self.core.charge(self.core.costs.stmt)?;
                while self.eval_bool(cond, f, base)? {
                    match self.exec_block(body, f, base)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            SlotStmt::Return { value } => {
                self.core.charge(self.core.costs.stmt)?;
                let v = match value {
                    Some(e) => Some(self.eval(e, f, base)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            SlotStmt::Break => {
                self.core.charge(self.core.costs.stmt)?;
                Ok(Flow::Break)
            }
            SlotStmt::Continue => {
                self.core.charge(self.core.costs.stmt)?;
                Ok(Flow::Continue)
            }
            // Un-lowered assertion markers are inert: only the `checks`
            // scheme turns them into real observations.
            SlotStmt::Check => {
                self.core.charge(self.core.costs.stmt)?;
                Ok(Flow::Normal)
            }
            SlotStmt::Expr { expr } => {
                self.core.charge(self.core.costs.stmt)?;
                self.eval(expr, f, base)?;
                Ok(Flow::Normal)
            }
            SlotStmt::Sample(s) => self.exec_sample(s, f, base),
        }
    }

    /// A sampling statement, with the effects of the statements it prints
    /// as.  Each bookkeeping statement among them costs a flat unit: in a
    /// native build these are register operations (§2.4).  The arms of a
    /// threshold check and a guard's site are real code and charge
    /// normally.
    fn exec_sample(
        &mut self,
        s: &'a SlotSample,
        f: &'a SlotFunction,
        base: usize,
    ) -> Result<Flow, Trap> {
        self.core.charge(self.core.costs.bookkeeping)?;
        match s {
            Sample::Import | Sample::Reimport => {
                let v = self.countdown(Countdown::Global, f, base)?;
                self.set_countdown(Countdown::Local, v, f, base)?;
            }
            Sample::Export => {
                let v = self.countdown(Countdown::Local, f, base)?;
                self.set_countdown(Countdown::Global, v, f, base)?;
            }
            Sample::Dec { reg, k } => {
                let v = self.countdown(*reg, f, base)?;
                self.set_countdown(*reg, v.wrapping_sub(i64::from(*k)), f, base)?;
            }
            Sample::Threshold { reg, w, fast, slow } => {
                let taken = self.countdown(*reg, f, base)? > i64::from(*w);
                if self.core.tm.on {
                    self.core.tm.threshold(taken);
                }
                return self.exec_block(if taken { fast } else { slow }, f, base);
            }
            Sample::Guard { reg, obs, args } => {
                // `cd = cd - 1;`, then the statement `if (cd == 0)`.
                let v = self.countdown(*reg, f, base)?.wrapping_sub(1);
                self.set_countdown(*reg, v, f, base)?;
                self.bookkeeping_stmt()?;
                if v == 0 {
                    // A sample, and the site's call statement.
                    if self.core.tm.on {
                        self.core.tm.samples += 1;
                        self.core.tm.steps += 1;
                    }
                    self.core.charge(self.core.costs.stmt)?;
                    self.core.charge(self.core.costs.expr)?;
                    self.eval_builtin(obs.builtin(), args, f, base)?;
                    // The refill statement.
                    self.bookkeeping_stmt()?;
                    let next = self.core.next_countdown()?;
                    self.set_countdown(*reg, next, f, base)?;
                }
            }
        }
        Ok(Flow::Normal)
    }

    /// The head of one bookkeeping statement: the step and the flat charge.
    fn bookkeeping_stmt(&mut self) -> Result<(), Trap> {
        if self.core.tm.on {
            self.core.tm.steps += 1;
        }
        self.core.charge(self.core.costs.bookkeeping)
    }

    /// The value of countdown `reg`: the frame's `__cd` slot or the
    /// `__gcd` global.
    fn countdown(&self, reg: Countdown, f: &SlotFunction, base: usize) -> Result<i64, Trap> {
        let v = match reg {
            Countdown::Local => f.cd_slot.and_then(|s| self.stack[base + s as usize]),
            Countdown::Global => self.prog.gcd_global.map(|g| self.globals[g as usize]),
        };
        match v {
            Some(Value::Int(v)) => Ok(v),
            _ => Err(self
                .core
                .type_error(format!("undefined variable `{}`", reg.name()))),
        }
    }

    fn set_countdown(
        &mut self,
        reg: Countdown,
        v: i64,
        f: &SlotFunction,
        base: usize,
    ) -> Result<(), Trap> {
        match (reg, f.cd_slot, self.prog.gcd_global) {
            (Countdown::Local, Some(s), _) => self.stack[base + s as usize] = Some(Value::Int(v)),
            (Countdown::Global, _, Some(g)) => self.globals[g as usize] = Value::Int(v),
            _ => {
                return Err(self
                    .core
                    .type_error(format!("assignment to undefined variable `{}`", reg.name())))
            }
        }
        Ok(())
    }

    #[inline]
    fn lookup(&self, r: &SlotRef, f: &SlotFunction, base: usize) -> Result<Value, Trap> {
        match r {
            SlotRef::Local(s) => self.stack[base + *s as usize].ok_or_else(|| {
                self.core.type_error(format!(
                    "undefined variable `{}`",
                    f.slot_names[*s as usize]
                ))
            }),
            SlotRef::Global(g) => Ok(self.globals[*g as usize]),
            SlotRef::LocalOrGlobal(s, g) => {
                Ok(self.stack[base + *s as usize].unwrap_or(self.globals[*g as usize]))
            }
            SlotRef::Undefined(name) => {
                Err(self.core.type_error(format!("undefined variable `{name}`")))
            }
        }
    }

    #[inline]
    fn assign(&mut self, r: &SlotRef, v: Value, f: &SlotFunction, base: usize) -> Result<(), Trap> {
        match r {
            SlotRef::Local(s) => {
                let slot = &mut self.stack[base + *s as usize];
                if slot.is_some() {
                    *slot = Some(v);
                    Ok(())
                } else {
                    Err(self.core.type_error(format!(
                        "assignment to undefined variable `{}`",
                        f.slot_names[*s as usize]
                    )))
                }
            }
            SlotRef::Global(g) => {
                self.globals[*g as usize] = v;
                Ok(())
            }
            SlotRef::LocalOrGlobal(s, g) => {
                let slot = &mut self.stack[base + *s as usize];
                if slot.is_some() {
                    *slot = Some(v);
                } else {
                    self.globals[*g as usize] = v;
                }
                Ok(())
            }
            SlotRef::Undefined(name) => Err(self
                .core
                .type_error(format!("assignment to undefined variable `{name}`"))),
        }
    }

    #[inline]
    fn eval_int(&mut self, e: &'a SlotExpr, f: &'a SlotFunction, base: usize) -> Result<i64, Trap> {
        match self.eval_operand(e, f, base)? {
            Value::Int(v) => Ok(v),
            other => Err(self
                .core
                .type_error(format!("expected integer, got {other}"))),
        }
    }

    fn eval_bool(
        &mut self,
        e: &'a SlotExpr,
        f: &'a SlotFunction,
        base: usize,
    ) -> Result<bool, Trap> {
        Ok(self.eval_int(e, f, base)? != 0)
    }

    /// [`Self::eval`] with the leaf cases (`Int`, `Var`) specialized and
    /// inlined: identical charge order and traps, minus a recursive call
    /// for the most common operand shapes.
    #[inline]
    fn eval_operand(
        &mut self,
        e: &'a SlotExpr,
        f: &'a SlotFunction,
        base: usize,
    ) -> Result<Value, Trap> {
        match e {
            SlotExpr::Int(value) => {
                self.core.charge(self.core.costs.expr)?;
                Ok(Value::Int(*value))
            }
            SlotExpr::Var(r) => {
                self.core.charge(self.core.costs.expr)?;
                self.lookup(r, f, base)
            }
            other => self.eval(other, f, base),
        }
    }

    fn eval(&mut self, e: &'a SlotExpr, f: &'a SlotFunction, base: usize) -> Result<Value, Trap> {
        self.core.charge(self.core.costs.expr)?;
        match e {
            SlotExpr::Int(value) => Ok(Value::Int(*value)),
            SlotExpr::Null => Ok(Value::Null),
            SlotExpr::Var(r) => self.lookup(r, f, base),
            SlotExpr::Load { ptr, index } => {
                let p = match self.eval_operand(ptr, f, base)? {
                    Value::Ptr(p) => p,
                    Value::Null => return Err(Trap::Crash(CrashKind::NullDeref)),
                    other => {
                        return Err(self
                            .core
                            .type_error(format!("indexing non-pointer value {other}")))
                    }
                };
                let idx = self.eval_int(index, f, base)?;
                self.core.charge(self.core.costs.mem)?;
                self.core.heap.load(p, idx).map_err(Trap::Crash)
            }
            SlotExpr::Call { callee, args } => match callee {
                Callee::Builtin(b) => self.eval_builtin(*b, args, f, base),
                Callee::Func(i) => {
                    let callee_fn = &self.prog.functions[*i as usize];
                    // Argument values live on the Rust stack: one heap
                    // allocation per call is most of the call overhead.
                    let ret = if args.len() <= 8 {
                        let mut vals = [Value::Int(0); 8];
                        for (slot, a) in vals.iter_mut().zip(args) {
                            *slot = self.eval_operand(a, f, base)?;
                        }
                        self.call_function(callee_fn, &vals[..args.len()])?
                    } else {
                        let mut vals = Vec::with_capacity(args.len());
                        for a in args {
                            vals.push(self.eval_operand(a, f, base)?);
                        }
                        self.call_function(callee_fn, &vals)?
                    };
                    // Procedure results are only legal in statement
                    // position; the resolver guarantees the value is never
                    // consumed.
                    Ok(ret.unwrap_or(Value::Int(0)))
                }
                Callee::Undefined(name) => Err(self
                    .core
                    .type_error(format!("call to undefined function `{name}`"))),
            },
            SlotExpr::Unary { op, expr } => {
                let v = self.eval_int(expr, f, base)?;
                Ok(Value::Int(RunCore::unary_value(*op, v)))
            }
            SlotExpr::Binary { op, lhs, rhs } => self.eval_binary(*op, lhs, rhs, f, base),
        }
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        lhs: &'a SlotExpr,
        rhs: &'a SlotExpr,
        f: &'a SlotFunction,
        base: usize,
    ) -> Result<Value, Trap> {
        // Short-circuit operators evaluate the right side conditionally.
        if op == BinOp::And {
            return Ok(Value::Int(i64::from(
                self.eval_bool(lhs, f, base)? && self.eval_bool(rhs, f, base)?,
            )));
        }
        if op == BinOp::Or {
            return Ok(Value::Int(i64::from(
                self.eval_bool(lhs, f, base)? || self.eval_bool(rhs, f, base)?,
            )));
        }

        let a = self.eval_operand(lhs, f, base)?;
        let b = self.eval_operand(rhs, f, base)?;
        self.core.binary_values(op, a, b)
    }

    fn eval_builtin(
        &mut self,
        b: Builtin,
        args: &'a [SlotExpr],
        f: &'a SlotFunction,
        base: usize,
    ) -> Result<Value, Trap> {
        match b {
            Builtin::Alloc => {
                let n = self.eval_int(&args[0], f, base)?;
                self.core.alloc_value(n)
            }
            Builtin::Free => {
                let v = self.eval(&args[0], f, base)?;
                self.core.free_value(v)
            }
            Builtin::Len => {
                let v = self.eval(&args[0], f, base)?;
                self.core.len_value(v)
            }
            Builtin::Read => Ok(self.core.read_value()),
            Builtin::HasInput => Ok(self.core.has_input_value()),
            Builtin::Print => {
                let v = self.eval_int(&args[0], f, base)?;
                Ok(self.core.print_value(v))
            }
            Builtin::Exit => {
                let code = self.eval_int(&args[0], f, base)?;
                Err(Trap::Exit(code))
            }
            Builtin::ObsCheck => {
                let site = self.eval_int(&args[0], f, base)?;
                let ok = self.eval_bool(&args[1], f, base)?;
                self.core.obs_check(site, ok)
            }
            Builtin::ObsCmp => {
                // A three-way compare plus one counter bump is a handful of
                // native instructions; charge it flat (unlike `__check`,
                // which evaluates a real predicate).
                self.core.charge(self.core.costs.observe)?;
                self.core.free_depth += 1;
                let site = self.eval_int(&args[0], f, base);
                let a = self.eval(&args[1], f, base);
                let b = self.eval(&args[2], f, base);
                self.core.free_depth -= 1;
                let (site, a, b) = (site?, a?, b?);
                self.core.obs_cmp(site, a, b)
            }
            Builtin::ObsSign => {
                self.core.charge(self.core.costs.observe)?;
                self.core.free_depth += 1;
                let site = self.eval_int(&args[0], f, base);
                let v = self.eval(&args[1], f, base);
                self.core.free_depth -= 1;
                let (site, v) = (site?, v?);
                self.core.obs_sign(site, v)
            }
        }
    }
}
