//! Drives one workload in this process: set-up, warm-up, measured
//! repeats, correctness checks, and — in the traced mode — the staged
//! pass that attributes cost to layers.

use crate::env;
use crate::spec::{self, Kind, WorkloadDef, MIN_REPEATS};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::{build_farm::BuildFarm, exec::ExecOverhead, ingest::Ingest, looped::Loop};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// An untraced run sets up at least [`MIN_REPEATS`] times, so that
/// `setup_s` has quartiles like every other timing, and goes on while
/// set-up is cheap: until this much time has gone or [`SETUP_MAX`]
/// samples are in.  A traced run sets up once.
const SETUP_BUDGET: Duration = Duration::from_millis(600);
const SETUP_MAX: usize = 25;

/// What one repeat, one verification pass, or the staged pass reports:
/// metric values plus the operations it attempted and how many failed.
#[derive(Debug, Default)]
pub struct Sample {
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or check (capped by the caller).
    pub failures: Vec<String>,
}

impl Sample {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec::metric(name).is_some(), "unknown metric {name}");
        self.values.push((name, value));
    }

    /// Counts `attempted` operations of which `failed` did not succeed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures
                .push(format!("{failed} of {attempted} {what}"));
        }
    }

    /// One correctness check: an operation that fails when `ok` is false.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(format!("check failed: {what}"));
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// A workload: inputs generated from a seed, a repeat that can be run
/// any number of times on them, and the checks that its outputs are
/// right.
pub trait Workload: Sized {
    /// Generates every input from `seed`; `scale` multiplies the work
    /// of one repeat.
    fn setup(def: &WorkloadDef, seed: u64, scale: u64) -> Res<Self>;

    /// Bytecode ops over the executables this workload builds or runs.
    fn code_ops(&self) -> u64;

    /// One measured repeat.  Reports `wall_s` and the scoped metrics
    /// that exist on this workload.
    fn repeat(&self, tracer: &mut Tracer) -> Res<Sample>;

    /// Checks that need not run inside every repeat.
    fn verify(&self) -> Res<Sample>;

    /// The same inputs pushed through the layers one at a time, every
    /// public call in a span; reports per-layer metrics into `out`.
    /// Returns the share of one repeat's work that went through the
    /// `staged.pipeline` span (0 when the repeat is itself serial and
    /// spanned call by call, so there is nothing to stage).
    fn stages(&self, tracer: &mut Tracer, out: &mut Sample) -> Res<f64>;
}

/// The outcome of one `measure` invocation.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Every metric measured, in the order first reported.
    pub metrics: Vec<(&'static str, Summary)>,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<&Summary> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }
}

#[derive(Default)]
struct Accumulator {
    order: Vec<&'static str>,
    values: BTreeMap<&'static str, Vec<f64>>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Accumulator {
    fn absorb(&mut self, sample: Sample) {
        for (name, value) in sample.values {
            self.push(name, value);
        }
        self.attempted += sample.attempted;
        self.failed += sample.failed;
        let room = 20usize.saturating_sub(self.failures.len());
        self.failures.extend(sample.failures.into_iter().take(room));
    }

    fn push(&mut self, name: &'static str, value: f64) {
        let slot = self.values.entry(name).or_default();
        if slot.is_empty() {
            self.order.push(name);
        }
        slot.push(value);
    }

    fn finish(mut self) -> Measured {
        let metrics = self
            .order
            .iter()
            .map(|name| {
                let values = self.values.remove(name).expect("ordered names have values");
                (*name, Summary::of(values))
            })
            .collect();
        Measured {
            attempted: self.attempted.max(1),
            failed: self.failed,
            failures: self.failures,
            metrics,
        }
    }
}

/// Measures one workload in this process.
///
/// With `trace` off: set-up, one warm-up repeat, then repeats for
/// `seconds` (at least [`MIN_REPEATS`]), then the verification pass.
/// With `trace` on: one untraced and one traced repeat, then the staged
/// pass; spans go to `spans_out` when given.
///
/// # Errors
///
/// Returns the workload's error if set-up or a repeat cannot run at
/// all; failed checks are data in the result, not errors.
pub fn measure(
    def: &WorkloadDef,
    seed: u64,
    scale: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<&Path>,
) -> Res<Measured> {
    match def.kind {
        Kind::LoopSparse | Kind::LoopDense => {
            drive::<Loop>(def, seed, scale, seconds, trace, spans_out)
        }
        Kind::IngestNarrow | Kind::IngestWide => {
            drive::<Ingest>(def, seed, scale, seconds, trace, spans_out)
        }
        Kind::ExecOverhead => drive::<ExecOverhead>(def, seed, scale, seconds, trace, spans_out),
        Kind::BuildFarm => drive::<BuildFarm>(def, seed, scale, seconds, trace, spans_out),
    }
}

fn drive<W: Workload>(
    def: &WorkloadDef,
    seed: u64,
    scale: u64,
    seconds: u64,
    trace: bool,
    spans_out: Option<&Path>,
) -> Res<Measured> {
    let mut acc = Accumulator::default();
    let setup_started = Instant::now();
    let workload = loop {
        let started = Instant::now();
        let workload = W::setup(def, seed, scale)?;
        acc.push("setup_s", started.elapsed().as_secs_f64());
        let setups = acc.values["setup_s"].len();
        let enough = setups >= MIN_REPEATS && setup_started.elapsed() >= SETUP_BUDGET;
        if trace || enough || setups >= SETUP_MAX {
            break workload;
        }
    };
    acc.push("code_ops", workload.code_ops() as f64);

    if trace {
        traced(def, &workload, &mut acc, spans_out)?;
    } else {
        workload.repeat(&mut Tracer::off())?; // warm-up, discarded
        let started = Instant::now();
        let mut repeats = 0;
        while repeats < MIN_REPEATS || started.elapsed() < Duration::from_secs(seconds) {
            acc.absorb(workload.repeat(&mut Tracer::off())?);
            repeats += 1;
        }
        acc.absorb(workload.verify()?);
    }
    acc.push("peak_rss_mb", env::peak_rss_mb());
    Ok(acc.finish())
}

fn traced<W: Workload>(
    def: &WorkloadDef,
    workload: &W,
    acc: &mut Accumulator,
    spans_out: Option<&Path>,
) -> Res<()> {
    // The untraced repeat warms up, supplies the scoped metrics (which
    // always come from an untraced run), and is the base of the
    // overhead ratio.
    let untraced = workload.repeat(&mut Tracer::off())?;
    let mut tracer = Tracer::on();
    tracer.set_repeat(1);
    let concurrent = workload.repeat(&mut tracer)?;
    tracer.set_repeat(2);
    let mut staged = Sample::default();
    let share = tracer.span("trace.staged", |t| workload.stages(t, &mut staged))?;

    let wall = |s: &Sample| s.value("wall_s").unwrap_or(0.0);
    staged.set(
        "trace.overhead_pm",
        1000.0 * wall(&concurrent) / wall(&untraced).max(f64::MIN_POSITIVE),
    );
    staged.set("trace.spans", tracer.span_count() as f64);
    report_self_times(def, &tracer, wall(&concurrent), share);
    if let Some(path) = spans_out {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        tracer.write_jsonl(def.name, &mut out)?;
        std::io::Write::flush(&mut out)?;
    }
    acc.absorb(untraced);
    acc.absorb(staged);
    Ok(())
}

/// Prints self time per layer, the share of the staged pass no layer
/// span covers, and the concurrent-vs-staged difference (the overlap
/// the concurrent run gets from threads and pipelining).
fn report_self_times(def: &WorkloadDef, tracer: &Tracer, concurrent_s: f64, share: f64) {
    let secs = |ns: u64| ns as f64 / 1e9;
    eprintln!("[{}] self time per layer (span minus children):", def.name);
    for (layer, ns) in tracer.layer_self_ns() {
        eprintln!("  {layer:<12} {:>10.4} s", secs(ns));
    }
    let staged_wall = tracer.seconds("trace.staged");
    let unattributed = secs(tracer.self_ns().get("trace.staged").copied().unwrap_or(0));
    eprintln!(
        "  staged pass {staged_wall:.4} s, {:.1}% of it outside any layer span",
        100.0 * unattributed / staged_wall.max(f64::MIN_POSITIVE)
    );
    if share > 0.0 {
        let pipeline = tracer.seconds("staged.pipeline");
        let staged = pipeline / share;
        eprintln!(
            "  concurrent repeat {concurrent_s:.4} s; staged, {pipeline:.4} s for {:.0}% of its \
             work, so {staged:.4} s for all of it: overlap {:+.4} s",
            100.0 * share,
            staged - concurrent_s
        );
    }
}
