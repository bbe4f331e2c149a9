//! The MiniC interpreter front end: the [`Vm`] builder and [`RunResult`].
//!
//! A deterministic evaluator with:
//!
//! * function-level flat frames (sound because the resolver forbids
//!   shadowing; required because the sampling transformation clones
//!   declarations into both arms of threshold checks);
//! * the corruptible [`crate::heap::Heap`];
//! * scripted integer input (`read`/`has_input`) and an output log;
//! * the sampling runtime: observation builtins update the report counter
//!   vector, each sample guard refills the countdown from a
//!   [`CountdownSource`], and the `__gcd` global is seeded at startup;
//! * op-cost accounting per [`cbi_bytecode::Costs`] for the overhead experiments.
//!
//! There is one engine and one oracle, and the program a [`Vm`] is built
//! from picks between them: a compiled [`BcProgram`] ([`Vm::from_bytecode`],
//! or [`Vm::new`], which lowers and compiles first) runs on the bytecode
//! dispatch loop (`bytecode_interp`) — the engine everything
//! ships on; a pre-lowered [`SlotProgram`] ([`Vm::from_slots`]) runs on the
//! slot-resolved tree walker (`slot_interp`), kept as the
//! reference the bytecode engine is tested against.  Both share the run
//! state and value semantics in `runtime`.

use crate::heap::DEFAULT_SLACK;
use crate::outcome::RunOutcome;
use crate::runtime::{saturating_i64, RunCore};
use crate::slot_interp::SlotExec;
use crate::value::Value;
use cbi_bytecode::BcProgram;
use cbi_instrument::SiteTable;
use cbi_minic::ast::{Program, Type};
use cbi_minic::slots::{self, SlotProgram};
use cbi_sampler::CountdownSource;
use std::borrow::Cow;
use std::error::Error;
use std::fmt;

/// Default operation budget per run.
pub const DEFAULT_OP_LIMIT: u64 = 50_000_000;

/// Default call-depth limit.
pub const DEFAULT_MAX_DEPTH: usize = 256;

/// A configuration error detected before execution starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmError {
    message: String,
}

impl VmError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        VmError {
            message: message.into(),
        }
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm configuration error: {}", self.message)
    }
}

impl Error for VmError {}

/// The result of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Total abstract operation units consumed — the run's "time".
    pub ops: u64,
    /// The counter vector (report payload), laid out per the site table.
    pub counters: Vec<u64>,
    /// Values printed by the program.
    pub output: Vec<i64>,
    /// The last observations in execution order (newest last), when trace
    /// capture was enabled with [`Vm::with_trace`]: `(counter index,
    /// observed-true flag)` per executed observation.  Empty otherwise.
    ///
    /// This is the "partial traces (with ordering information)" the paper
    /// leaves to future work in §2.5, bounded so client-side memory stays
    /// constant.
    pub trace: Vec<(usize, bool)>,
}

/// The program representation a [`Vm`] was constructed from, which is
/// also what selects the interpreter that runs it.
#[derive(Clone, Copy)]
enum ProgramSrc<'a> {
    Ast(&'a Program),
    Slots(&'a SlotProgram),
    Bytecode(&'a BcProgram),
}

/// The countdown source, owned or borrowed.  Borrowing lets a campaign
/// worker reseed and reuse one bank across thousands of trials instead of
/// boxing a fresh allocation per run.
enum Sampling<'a> {
    None,
    Owned(Box<dyn CountdownSource>),
    Borrowed(&'a mut (dyn CountdownSource + 'static)),
}

impl Sampling<'_> {
    fn get(&mut self) -> Option<&mut (dyn CountdownSource + 'static)> {
        match self {
            Sampling::None => None,
            Sampling::Owned(b) => Some(&mut **b),
            Sampling::Borrowed(r) => Some(&mut **r),
        }
    }

    fn is_configured(&self) -> bool {
        !matches!(self, Sampling::None)
    }
}

/// A configured MiniC virtual machine (non-consuming builder).
///
/// # Example
///
/// ```
/// use cbi_vm::Vm;
///
/// let program = cbi_minic::parse(
///     "fn main() -> int { print(40 + 2); return 0; }",
/// )?;
/// let result = Vm::new(&program).run()?;
/// assert!(result.outcome.is_success());
/// assert_eq!(result.output, vec![42]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// On a hot path, compile once and share the borrowed pieces across runs:
///
/// ```
/// use cbi_vm::Vm;
///
/// let program = cbi_minic::parse(
///     "fn main() -> int { return read(); }",
/// )?;
/// let slots = cbi_minic::lower(&program);
/// let bc = cbi_bytecode::compile(&slots);
/// let input = vec![7];
/// for _ in 0..3 {
///     let r = Vm::from_bytecode(&bc).with_input(&input[..]).run()?;
///     assert_eq!(r.outcome, cbi_vm::RunOutcome::Success(7));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Vm<'a> {
    program: ProgramSrc<'a>,
    sites: Option<&'a SiteTable>,
    sampling: Sampling<'a>,
    input: Cow<'a, [i64]>,
    op_limit: u64,
    max_depth: usize,
    heap_slack: usize,
    trace_limit: usize,
}

impl fmt::Debug for Vm<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let functions = match self.program {
            ProgramSrc::Ast(p) => p.functions.len(),
            ProgramSrc::Slots(p) => p.functions.len(),
            ProgramSrc::Bytecode(p) => p.functions.len(),
        };
        f.debug_struct("Vm")
            .field("functions", &functions)
            .field("has_sites", &self.sites.is_some())
            .field("has_sampling", &self.sampling.is_configured())
            .field("input_len", &self.input.len())
            .field("op_limit", &self.op_limit)
            .finish()
    }
}

impl<'a> Vm<'a> {
    /// Creates a VM for a program with default settings.
    ///
    /// The one-shot convenience: [`Vm::run`] lowers and compiles the
    /// program, then executes the bytecode.  Anything that runs a program
    /// more than once compiles once and uses [`Vm::from_bytecode`].
    pub fn new(program: &'a Program) -> Self {
        Vm::with_src(ProgramSrc::Ast(program))
    }

    /// Creates a VM that runs a pre-lowered program (see
    /// [`cbi_minic::lower`]) on the slot-resolved tree walker.
    ///
    /// This is the test oracle: nothing ships on it.  It evaluates the
    /// tree the bytecode compiler consumes, charge for charge, so a
    /// [`RunResult`] that differs from [`Vm::from_bytecode`]'s on the same
    /// program is a compiler or dispatch-loop bug.
    pub fn from_slots(program: &'a SlotProgram) -> Self {
        Vm::with_src(ProgramSrc::Slots(program))
    }

    /// Creates a VM for a compiled bytecode program (see
    /// [`cbi_bytecode::compile`]).
    ///
    /// Compiling once and constructing per-run VMs from the shared
    /// [`BcProgram`] amortizes both name resolution and code generation
    /// across a whole campaign.
    pub fn from_bytecode(program: &'a BcProgram) -> Self {
        Vm::with_src(ProgramSrc::Bytecode(program))
    }

    fn with_src(program: ProgramSrc<'a>) -> Self {
        Vm {
            program,
            sites: None,
            sampling: Sampling::None,
            input: Cow::Borrowed(&[]),
            op_limit: DEFAULT_OP_LIMIT,
            max_depth: DEFAULT_MAX_DEPTH,
            heap_slack: DEFAULT_SLACK,
            trace_limit: 0,
        }
    }

    /// Attaches the site table defining the counter layout; required when
    /// the program contains observation builtins.
    pub fn with_sites(&mut self, sites: &'a SiteTable) -> &mut Self {
        self.sites = Some(sites);
        self
    }

    /// Attaches the countdown source used by sample-guard refills and the
    /// initial `__gcd` seed; required for sampled programs.
    pub fn with_sampling(&mut self, source: Box<dyn CountdownSource>) -> &mut Self {
        self.sampling = Sampling::Owned(source);
        self
    }

    /// Like [`Vm::with_sampling`], but borrows the source, so a caller can
    /// reseed and reuse one countdown bank across many runs without
    /// re-boxing it each time.
    pub fn with_sampling_ref(
        &mut self,
        source: &'a mut (dyn CountdownSource + 'static),
    ) -> &mut Self {
        self.sampling = Sampling::Borrowed(source);
        self
    }

    /// Sets the scripted input consumed by `read()`.
    ///
    /// Accepts an owned `Vec<i64>` or a borrowed `&[i64]`; borrowing lets
    /// hot loops share one input buffer across trials without cloning.
    pub fn with_input(&mut self, input: impl Into<Cow<'a, [i64]>>) -> &mut Self {
        self.input = input.into();
        self
    }

    /// Sets the operation budget (default [`DEFAULT_OP_LIMIT`]).
    pub fn with_op_limit(&mut self, limit: u64) -> &mut Self {
        self.op_limit = limit;
        self
    }

    /// Sets the call-depth limit (default [`DEFAULT_MAX_DEPTH`]).
    pub fn with_max_depth(&mut self, depth: usize) -> &mut Self {
        self.max_depth = depth;
        self
    }

    /// Sets the heap slack (overrun tolerance) per allocation.
    pub fn with_heap_slack(&mut self, slack: usize) -> &mut Self {
        self.heap_slack = slack;
        self
    }

    /// Enables bounded trace capture: the run result will carry the last
    /// `limit` observations in execution order (a ring buffer, so client
    /// memory stays constant — the §2.5 future-work extension).
    pub fn with_trace(&mut self, limit: usize) -> &mut Self {
        self.trace_limit = limit;
        self
    }

    /// Executes `main` and returns the run result.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] if the program has no `main` function or `main`
    /// takes parameters.  Runtime failures are *not* errors: they are
    /// reported in [`RunResult::outcome`].
    pub fn run(&mut self) -> Result<RunResult, VmError> {
        let mut counter_layout = Vec::new();
        let total_counters = match self.sites {
            Some(t) => {
                counter_layout = t.groups();
                t.total_counters()
            }
            None => 0,
        };

        match self.program {
            ProgramSrc::Bytecode(program) => {
                self.run_bytecode(program, counter_layout, total_counters)
            }
            ProgramSrc::Ast(program) => {
                let compiled = cbi_bytecode::compile(&slots::lower(program));
                self.run_bytecode(&compiled, counter_layout, total_counters)
            }
            ProgramSrc::Slots(program) => self.run_slots(program, counter_layout, total_counters),
        }
    }

    fn core(&mut self, counter_layout: Vec<(usize, usize)>, total_counters: usize) -> RunCore<'_> {
        RunCore::new(
            self.heap_slack,
            self.input.as_ref(),
            total_counters,
            counter_layout,
            self.sampling.get(),
            self.op_limit,
            self.max_depth,
            self.trace_limit,
        )
    }

    fn run_slots(
        &mut self,
        program: &SlotProgram,
        counter_layout: Vec<(usize, usize)>,
        total_counters: usize,
    ) -> Result<RunResult, VmError> {
        let main = program
            .main
            .map(|i| &program.functions[i as usize])
            .ok_or_else(|| VmError::new("program has no `main` function"))?;
        if main.n_params != 0 {
            return Err(VmError::new("`main` must take no parameters"));
        }

        let globals: Vec<Value> = program
            .globals
            .iter()
            .map(|g| match g.ty {
                Type::Int => Value::Int(g.init),
                Type::Ptr => Value::Null,
            })
            .collect();

        let mut exec = SlotExec {
            prog: program,
            core: self.core(counter_layout, total_counters),
            globals,
            stack: Vec::with_capacity(64),
        };

        // Seed the global countdown before the first instruction (§2.1):
        // the instrumented program starts with a fresh next-sample distance.
        if let Some(g) = program.gcd_global {
            let seed = match exec.core.sampling.as_deref_mut() {
                Some(src) => saturating_i64(src.next_countdown()),
                None => {
                    return Err(VmError::new(
                        "sampled program requires a countdown source (with_sampling)",
                    ))
                }
            };
            exec.globals[g as usize] = Value::Int(seed);
        }

        let outcome = RunCore::outcome_of(exec.call_function(main, &[]));
        Ok(exec.core.finish(outcome))
    }

    fn run_bytecode(
        &mut self,
        program: &BcProgram,
        counter_layout: Vec<(usize, usize)>,
        total_counters: usize,
    ) -> Result<RunResult, VmError> {
        let core = self.core(counter_layout, total_counters);
        crate::bytecode_interp::run(program, core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::CrashKind;
    use cbi_minic::parse;

    fn run(src: &str) -> RunResult {
        let p = parse(src).unwrap();
        cbi_minic::resolve(&p).unwrap_or_else(|e| panic!("{e}"));
        Vm::new(&p).run().unwrap()
    }

    fn run_with_input(src: &str, input: Vec<i64>) -> RunResult {
        let p = parse(src).unwrap();
        Vm::new(&p).with_input(input).run().unwrap()
    }

    /// Bounded trace capture (§2.5 future work): off unless asked for,
    /// and then a ring buffer of the last `limit` observations.
    #[test]
    fn trace_is_bounded_and_off_by_default() {
        let p = parse(
            "fn g(int i) -> int { return i % 3 - 1; }\n\
             fn main() -> int { int i = 0; while (i < 20) { int v = g(i); i = i + 1; } return 0; }",
        )
        .unwrap();
        let inst = cbi_instrument::instrument(&p, cbi_instrument::Scheme::Returns).unwrap();
        let run = |limit: Option<usize>| {
            let mut vm = Vm::new(&inst.program);
            vm.with_sites(&inst.sites);
            if let Some(limit) = limit {
                vm.with_trace(limit);
            }
            vm.run().unwrap()
        };
        assert!(run(None).trace.is_empty());
        assert_eq!(run(Some(5)).trace.len(), 5);
        assert_eq!(run(Some(64)).trace.len(), 20);
    }

    #[test]
    fn arithmetic_and_output() {
        let r = run("fn main() -> int { print(2 + 3 * 4); print(10 / 3); print(10 % 3); print(-7); return 0; }");
        assert_eq!(r.output, vec![14, 3, 1, -7]);
        assert_eq!(r.outcome, RunOutcome::Success(0));
        assert!(r.ops > 0);
    }

    #[test]
    fn comparisons_and_logic() {
        let r = run(
            "fn main() -> int { print(1 < 2); print(2 <= 1); print(3 == 3); print(3 != 3); \
             print(1 && 0); print(1 || 0); print(!5); print(!0); return 0; }",
        );
        assert_eq!(r.output, vec![1, 0, 1, 0, 0, 1, 0, 1]);
    }

    #[test]
    fn short_circuit_avoids_crash() {
        let r =
            run("fn main() -> int { ptr p; if (p != null && p[0] == 1) { print(1); } return 0; }");
        assert_eq!(r.outcome, RunOutcome::Success(0));
    }

    #[test]
    fn control_flow_while_break_continue() {
        let r = run(
            "fn main() -> int { int i = 0; int s = 0; while (1) { i = i + 1; \
             if (i % 2 == 0) { continue; } if (i > 9) { break; } s = s + i; } print(s); return 0; }",
        );
        assert_eq!(r.output, vec![1 + 3 + 5 + 7 + 9]);
    }

    #[test]
    fn functions_recursion_and_globals() {
        let r = run(
            "int calls = 0;\n\
             fn fib(int n) -> int { calls = calls + 1; if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
             fn main() -> int { print(fib(10)); print(calls); return 0; }",
        );
        assert_eq!(r.output[0], 55);
        assert!(r.output[1] > 100);
    }

    #[test]
    fn heap_programs_work() {
        let r = run(
            "fn main() -> int { ptr a = alloc(5); int i = 0; while (i < 5) { a[i] = i * i; i = i + 1; } \
             int s = 0; i = 0; while (i < len(a)) { s = s + a[i]; i = i + 1; } free(a); print(s); return 0; }",
        );
        assert_eq!(r.output, vec![1 + 4 + 9 + 16]);
    }

    #[test]
    fn pointer_arithmetic() {
        let r = run(
            "fn main() -> int { ptr a = alloc(4); ptr b = a + 2; b[0] = 7; print(a[2]); print(b - a); return 0; }",
        );
        assert_eq!(r.output, vec![7, 2]);
    }

    #[test]
    fn null_deref_crashes() {
        let r = run("fn main() -> int { ptr p; return p[0]; }");
        assert_eq!(r.outcome, RunOutcome::Crash(CrashKind::NullDeref));
    }

    #[test]
    fn divide_by_zero_crashes() {
        let r = run("fn main() -> int { int z = 0; return 1 / z; }");
        assert_eq!(r.outcome, RunOutcome::Crash(CrashKind::DivideByZero));
    }

    #[test]
    fn overrun_then_free_crashes_later() {
        let r =
            run("fn main() -> int { ptr a = alloc(4); a[5] = 1; print(99); free(a); return 0; }");
        // The overrun itself is silent (99 printed), the free crashes.
        assert_eq!(r.output, vec![99]);
        assert_eq!(r.outcome, RunOutcome::Crash(CrashKind::HeapCorruption));
    }

    #[test]
    fn overrun_without_free_gets_lucky() {
        let r = run("fn main() -> int { ptr a = alloc(4); a[5] = 1; return 0; }");
        assert_eq!(r.outcome, RunOutcome::Success(0));
    }

    #[test]
    fn stack_overflow_detected() {
        let p = parse(
            "fn loop_(int n) -> int { return loop_(n + 1); } fn main() -> int { return loop_(0); }",
        )
        .unwrap();
        let r = Vm::new(&p).with_max_depth(50).run().unwrap();
        assert_eq!(r.outcome, RunOutcome::Crash(CrashKind::StackOverflow));
    }

    #[test]
    fn op_limit_bounds_infinite_loops() {
        let p = parse("fn main() -> int { while (1) { } return 0; }").unwrap();
        let r = Vm::new(&p).with_op_limit(10_000).run().unwrap();
        assert_eq!(r.outcome, RunOutcome::OpLimit);
        assert!(r.ops >= 10_000);
    }

    #[test]
    fn scripted_input() {
        let r = run_with_input(
            "fn main() -> int { int s = 0; while (has_input()) { s = s + read(); } print(s); print(read()); return 0; }",
            vec![5, 6, 7],
        );
        assert_eq!(r.output, vec![18, 0], "read() at EOF yields 0");
    }

    #[test]
    fn exit_terminates_successfully() {
        let r = run("fn main() -> int { print(1); exit(3); print(2); return 0; }");
        assert_eq!(r.outcome, RunOutcome::Success(3));
        assert_eq!(r.output, vec![1]);
    }

    #[test]
    fn missing_main_is_config_error() {
        let p = parse("fn f() { }").unwrap();
        assert!(Vm::new(&p).run().is_err());
    }

    #[test]
    fn main_with_params_is_config_error() {
        let p = parse("fn main(int x) -> int { return x; }").unwrap();
        assert!(Vm::new(&p).run().is_err());
    }

    #[test]
    fn check_markers_are_inert() {
        let r = run("fn main() -> int { check(0); return 0; }");
        assert_eq!(r.outcome, RunOutcome::Success(0));
    }

    #[test]
    fn fall_through_returns_zero() {
        let r = run("fn f() -> int { } fn main() -> int { print(f()); return 0; }");
        assert_eq!(r.output, vec![0]);
    }

    #[test]
    fn ops_scale_with_work() {
        let small = run("fn main() -> int { int i = 0; while (i < 10) { i = i + 1; } return 0; }");
        let large =
            run("fn main() -> int { int i = 0; while (i < 1000) { i = i + 1; } return 0; }");
        assert!(large.ops > small.ops * 50);
    }

    #[test]
    fn determinism() {
        let src = "fn main() -> int { int i = 0; int s = 0; while (i < 100) { s = s + i * i; i = i + 1; } print(s); return 0; }";
        let a = run(src);
        let b = run(src);
        assert_eq!(a, b);
    }
}
