//! Engine-shared runtime state and value-level semantics.
//!
//! Both interpreters — the bytecode dispatch loop
//! ([`crate::bytecode_interp`]) and its oracle, the slot-resolved walker
//! ([`crate::slot_interp`]) — execute against one [`RunCore`]: the corruptible heap, scripted input, output
//! log, counter vector, op-cost accounting, bounded observation trace,
//! and the countdown source.  Every observable effect (a charge, a trap
//! message, a counter bump, a trace entry) funnels through the methods
//! here, so the byte-identical contract between engines is enforced by
//! construction: an engine only chooses *when* to call these methods,
//! never *what* they do.
//!
//! The split of one builtin between engine and core follows its charge
//! order in the tree walker: argument evaluation stays with the
//! engine, everything from the first post-argument effect onward lives
//! here.  `__cmp`/`__obs_sign` charge *before* their arguments, so their
//! observe charge is also the engine's job (see the `obs_cmp`/`obs_sign`
//! docs).

use crate::heap::Heap;
use crate::interp::RunResult;
use crate::outcome::{CrashKind, RunOutcome};
use crate::value::{PtrVal, Value};
use cbi_bytecode::Costs;
use cbi_minic::ast::{BinOp, UnOp};
use cbi_sampler::CountdownSource;
use std::cmp::Ordering;
use std::collections::VecDeque;

/// How a run aborted, before mapping to a [`RunOutcome`].
pub(crate) enum Trap {
    Crash(CrashKind),
    Assertion(u32),
    Exit(i64),
    OpLimit,
}

/// Statement-level control flow for the tree walker.
pub(crate) enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<Value>),
}

pub(crate) fn saturating_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// Per-run telemetry accumulators, shared by both engines.
///
/// Values accumulate in plain locals on the execution path — when
/// telemetry is disabled the only cost is one predictable branch per
/// statement — and flush to `cbi_telemetry` once per run, so hot loops
/// never touch thread-local or atomic state.
pub(crate) struct TmCounters {
    pub(crate) on: bool,
    pub(crate) steps: u64,
    pub(crate) fast: u64,
    pub(crate) slow: u64,
    pub(crate) samples: u64,
}

impl TmCounters {
    pub(crate) fn new() -> Self {
        TmCounters {
            on: cbi_telemetry::enabled(),
            steps: 0,
            fast: 0,
            slow: 0,
            samples: 0,
        }
    }

    /// Counts one executed threshold check by the region clone it entered.
    #[inline]
    pub(crate) fn threshold(&mut self, fast: bool) {
        if fast {
            self.fast += 1;
        } else {
            self.slow += 1;
        }
    }

    pub(crate) fn flush(&self, ops: u64) {
        if !self.on {
            return;
        }
        cbi_telemetry::count("vm.runs", 1);
        cbi_telemetry::count("vm.steps", self.steps);
        cbi_telemetry::count("vm.ops", ops);
        cbi_telemetry::count("vm.region.fast_entries", self.fast);
        cbi_telemetry::count("vm.region.slow_entries", self.slow);
        cbi_telemetry::count("vm.samples_taken", self.samples);
        cbi_telemetry::record("vm.ops_per_run", ops);
        cbi_telemetry::record("vm.steps_per_run", self.steps);
    }
}

/// The engine-independent run state.
pub(crate) struct RunCore<'a> {
    /// When nonzero, per-node charges are suspended (inside the arguments
    /// of `__cmp`/`__obs_sign`, which are charged flat instead).
    pub(crate) free_depth: u32,
    pub(crate) heap: Heap,
    pub(crate) input: &'a [i64],
    pub(crate) input_pos: usize,
    pub(crate) output: Vec<i64>,
    pub(crate) counters: Vec<u64>,
    pub(crate) counter_layout: Vec<(usize, usize)>,
    pub(crate) sampling: Option<&'a mut (dyn CountdownSource + 'static)>,
    pub(crate) ops: u64,
    pub(crate) op_limit: u64,
    pub(crate) costs: Costs,
    pub(crate) depth: usize,
    pub(crate) max_depth: usize,
    pub(crate) trace_limit: usize,
    pub(crate) trace: VecDeque<(usize, bool)>,
    pub(crate) tm: TmCounters,
}

impl<'a> RunCore<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        heap_slack: usize,
        input: &'a [i64],
        total_counters: usize,
        counter_layout: Vec<(usize, usize)>,
        sampling: Option<&'a mut (dyn CountdownSource + 'static)>,
        op_limit: u64,
        max_depth: usize,
        trace_limit: usize,
    ) -> Self {
        RunCore {
            free_depth: 0,
            heap: Heap::with_slack(heap_slack),
            input,
            input_pos: 0,
            output: Vec::new(),
            counters: vec![0; total_counters],
            counter_layout,
            sampling,
            ops: 0,
            op_limit,
            costs: Costs::default(),
            depth: 0,
            max_depth,
            trace_limit,
            trace: VecDeque::new(),
            tm: TmCounters::new(),
        }
    }

    #[inline]
    pub(crate) fn charge(&mut self, units: u64) -> Result<(), Trap> {
        if self.free_depth > 0 {
            return Ok(());
        }
        self.charge_always(units)
    }

    #[inline]
    pub(crate) fn charge_always(&mut self, units: u64) -> Result<(), Trap> {
        self.ops += units;
        if self.ops > self.op_limit {
            Err(Trap::OpLimit)
        } else {
            Ok(())
        }
    }

    pub(crate) fn type_error(&self, msg: impl Into<String>) -> Trap {
        Trap::Crash(CrashKind::TypeError(msg.into().into_boxed_str()))
    }

    pub(crate) fn record_trace(&mut self, site: i64, which: usize, truth: bool) {
        if self.trace_limit == 0 {
            return;
        }
        if self.trace.len() == self.trace_limit {
            self.trace.pop_front();
        }
        let base = self
            .counter_layout
            .get(site as usize)
            .map(|&(b, _)| b)
            .unwrap_or(0);
        self.trace.push_back((base + which, truth));
    }

    pub(crate) fn counter_slot(&mut self, site: i64, which: usize) -> Result<(), Trap> {
        let (base, arity) = *self
            .counter_layout
            .get(site as usize)
            .ok_or_else(|| self.type_error(format!("unknown site id {site}")))?;
        if which >= arity {
            return Err(self.type_error(format!(
                "site {site} counter {which} out of range (arity {arity})"
            )));
        }
        self.counters[base + which] += 1;
        Ok(())
    }

    /// Integer-integer fast path of [`RunCore::binary_values`], used by
    /// the bytecode engine's fused instructions.  Bit-identical to the
    /// general path on every integer pair: the same wrapping arithmetic,
    /// the same divide-by-zero trap, and comparisons via the same total
    /// order.  Returns `None` for the short-circuit operators, which
    /// never reach fused instructions; callers fall back to
    /// [`RunCore::binary_values`].
    #[inline(always)]
    pub(crate) fn int_binary(op: BinOp, x: i64, y: i64) -> Option<Result<i64, Trap>> {
        Some(match op {
            BinOp::Add => Ok(x.wrapping_add(y)),
            BinOp::Sub => Ok(x.wrapping_sub(y)),
            BinOp::Mul => Ok(x.wrapping_mul(y)),
            BinOp::Div => {
                if y == 0 {
                    Err(Trap::Crash(CrashKind::DivideByZero))
                } else {
                    Ok(x.wrapping_div(y))
                }
            }
            BinOp::Mod => {
                if y == 0 {
                    Err(Trap::Crash(CrashKind::DivideByZero))
                } else {
                    Ok(x.wrapping_rem(y))
                }
            }
            BinOp::Eq => Ok(i64::from(x == y)),
            BinOp::Ne => Ok(i64::from(x != y)),
            BinOp::Lt => Ok(i64::from(x < y)),
            BinOp::Le => Ok(i64::from(x <= y)),
            BinOp::Gt => Ok(i64::from(x > y)),
            BinOp::Ge => Ok(i64::from(x >= y)),
            BinOp::And | BinOp::Or => return None,
        })
    }

    /// [`RunCore::binary_values`] with the integer-integer case inlined —
    /// the dispatch engine's hot path.  Identical results and traps.
    #[inline(always)]
    pub(crate) fn binary_fast(&self, op: BinOp, a: Value, b: Value) -> Result<Value, Trap> {
        if let (Value::Int(x), Value::Int(y)) = (a, b) {
            if let Some(r) = Self::int_binary(op, x, y) {
                return r.map(Value::Int);
            }
        }
        self.binary_values(op, a, b)
    }

    /// Applies a unary operator to an already-checked integer operand.
    #[inline]
    pub(crate) fn unary_value(op: UnOp, v: i64) -> i64 {
        match op {
            UnOp::Neg => v.wrapping_neg(),
            UnOp::Not => i64::from(v == 0),
        }
    }

    /// Applies a non-short-circuit binary operator to evaluated operands.
    ///
    /// `&&`/`||` never reach here: their conditional right-hand evaluation
    /// is engine-specific.
    pub(crate) fn binary_values(&self, op: BinOp, a: Value, b: Value) -> Result<Value, Trap> {
        if op.is_comparison() {
            let ord = a
                .compare(b)
                .ok_or_else(|| self.type_error(format!("comparing {a} with {b}")))?;
            let truth = match op {
                BinOp::Eq => ord == Ordering::Equal,
                BinOp::Ne => ord != Ordering::Equal,
                BinOp::Lt => ord == Ordering::Less,
                BinOp::Le => ord != Ordering::Greater,
                BinOp::Gt => ord == Ordering::Greater,
                BinOp::Ge => ord != Ordering::Less,
                _ => unreachable!(),
            };
            return Ok(Value::Int(i64::from(truth)));
        }

        match (op, a, b) {
            (BinOp::Add, Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_add(y))),
            (BinOp::Sub, Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_sub(y))),
            (BinOp::Mul, Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.wrapping_mul(y))),
            (BinOp::Div, Value::Int(x), Value::Int(y)) => {
                if y == 0 {
                    Err(Trap::Crash(CrashKind::DivideByZero))
                } else {
                    Ok(Value::Int(x.wrapping_div(y)))
                }
            }
            (BinOp::Mod, Value::Int(x), Value::Int(y)) => {
                if y == 0 {
                    Err(Trap::Crash(CrashKind::DivideByZero))
                } else {
                    Ok(Value::Int(x.wrapping_rem(y)))
                }
            }
            (BinOp::Add, Value::Ptr(p), Value::Int(d)) => Ok(Value::Ptr(PtrVal {
                block: p.block,
                offset: p.offset + d,
            })),
            (BinOp::Sub, Value::Ptr(p), Value::Int(d)) => Ok(Value::Ptr(PtrVal {
                block: p.block,
                offset: p.offset - d,
            })),
            (BinOp::Sub, Value::Ptr(p), Value::Ptr(q)) if p.block == q.block => {
                Ok(Value::Int(p.offset - q.offset))
            }
            (op, a, b) => Err(self.type_error(format!("invalid operands {a} {op} {b}"))),
        }
    }

    /// `alloc(n)` after the length argument is evaluated.
    pub(crate) fn alloc_value(&mut self, n: i64) -> Result<Value, Trap> {
        self.charge(self.costs.mem)?;
        self.heap.alloc(n).map_err(Trap::Crash)
    }

    /// `free(v)` after the argument is evaluated.
    pub(crate) fn free_value(&mut self, v: Value) -> Result<Value, Trap> {
        match v {
            // free(null) is a no-op, as in C.
            Value::Null => Ok(Value::Int(0)),
            Value::Ptr(p) => {
                self.charge(self.costs.mem)?;
                self.heap.free(p).map_err(Trap::Crash)?;
                Ok(Value::Int(0))
            }
            other => Err(self.type_error(format!("free of non-pointer {other}"))),
        }
    }

    /// `len(v)` after the argument is evaluated.
    pub(crate) fn len_value(&mut self, v: Value) -> Result<Value, Trap> {
        match v {
            Value::Null => Err(Trap::Crash(CrashKind::NullDeref)),
            Value::Ptr(p) => Ok(Value::Int(self.heap.len(p).map_err(Trap::Crash)?)),
            other => Err(self.type_error(format!("len of non-pointer {other}"))),
        }
    }

    /// `read()`: the next scripted input value, or 0 at EOF.
    pub(crate) fn read_value(&mut self) -> Value {
        let v = self.input.get(self.input_pos).copied().unwrap_or(0);
        if self.input_pos < self.input.len() {
            self.input_pos += 1;
        }
        Value::Int(v)
    }

    /// `has_input()`.
    pub(crate) fn has_input_value(&self) -> Value {
        Value::Int(i64::from(self.input_pos < self.input.len()))
    }

    /// `print(v)` after the argument is evaluated and integer-checked.
    pub(crate) fn print_value(&mut self, v: i64) -> Value {
        self.output.push(v);
        Value::Int(0)
    }

    /// `__check(site, ok)` after both arguments are evaluated: the observe
    /// charge, counter bump, trace entry, and assertion trap.
    pub(crate) fn obs_check(&mut self, site: i64, ok: bool) -> Result<Value, Trap> {
        self.charge(self.costs.observe)?;
        self.counter_slot(site, usize::from(ok))?;
        self.record_trace(site, usize::from(ok), !ok);
        if ok {
            Ok(Value::Int(0))
        } else {
            Err(Trap::Assertion(site as u32))
        }
    }

    /// `__cmp(site, a, b)` after the observe charge and argument
    /// evaluation (the charge precedes the arguments for this builtin —
    /// the engine is responsible for it).
    pub(crate) fn obs_cmp(&mut self, site: i64, a: Value, b: Value) -> Result<Value, Trap> {
        let ord = a
            .compare(b)
            .ok_or_else(|| self.type_error(format!("__cmp of {a} and {b}")))?;
        let which = match ord {
            Ordering::Less => 0,
            Ordering::Equal => 1,
            Ordering::Greater => 2,
        };
        self.counter_slot(site, which)?;
        self.record_trace(site, which, true);
        Ok(Value::Int(0))
    }

    /// `__obs_sign(site, v)` after the observe charge and argument
    /// evaluation (the charge precedes the arguments — engine's job).
    pub(crate) fn obs_sign(&mut self, site: i64, v: Value) -> Result<Value, Trap> {
        let class = v.sign_class();
        self.counter_slot(site, class)?;
        self.record_trace(site, class, true);
        Ok(Value::Int(0))
    }

    /// A sample guard's refill: the refill charge (never suspended) and
    /// the next countdown from the configured source.
    pub(crate) fn next_countdown(&mut self) -> Result<i64, Trap> {
        self.charge_always(self.costs.refill)?;
        match self.sampling.as_deref_mut() {
            Some(src) => Ok(saturating_i64(src.next_countdown())),
            None => Err(self.type_error(
                "a sample guard refilled the countdown but no countdown source is configured",
            )),
        }
    }

    /// Maps the result of running `main` to a [`RunOutcome`].
    pub(crate) fn outcome_of(call: Result<Option<Value>, Trap>) -> RunOutcome {
        match call {
            Ok(v) => RunOutcome::Success(match v {
                Some(Value::Int(code)) => code,
                _ => 0,
            }),
            Err(Trap::Crash(kind)) => RunOutcome::Crash(kind),
            Err(Trap::Assertion(site)) => RunOutcome::AssertionFailure(site),
            Err(Trap::Exit(code)) => RunOutcome::Success(code),
            Err(Trap::OpLimit) => RunOutcome::OpLimit,
        }
    }

    /// Flushes telemetry and packages the final [`RunResult`].
    pub(crate) fn finish(self, outcome: RunOutcome) -> RunResult {
        self.tm.flush(self.ops);
        RunResult {
            outcome,
            ops: self.ops,
            counters: self.counters,
            output: self.output,
            trace: self.trace.into_iter().collect(),
        }
    }
}
