//! CLI subcommand implementations.

use crate::args::Args;
use cbi::prelude::*;
use cbi::reports::{wire, SparseArchive};
use cbi::{EliminationReport, RegressionConfig, RegressionStudy};
use std::fs;
use std::io::Write as _;

/// What a command ends with when its stdout is closed early (`cbi … |
/// head`): `main` exits quietly with status 0 on it.
pub const STDOUT_CLOSED: &str = "stdout closed";

/// Writes to stdout, then a newline when `newline`; a closed pipe is
/// [`STDOUT_CLOSED`] and any other write error the command's error,
/// never a panic.
pub fn write_stdout(args: std::fmt::Arguments<'_>, newline: bool) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    let written = stdout.write_fmt(args).and_then(|()| {
        if newline {
            stdout.write_all(b"\n")
        } else {
            Ok(())
        }
    });
    match written {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Err(STDOUT_CLOSED.into()),
        Err(e) => Err(format!("writing to stdout: {e}")),
    }
}

/// `print!` through [`write_stdout`], returning its error.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*), false)?
    };
}

/// `println!` through [`write_stdout`], returning its error.
macro_rules! outln {
    () => {
        write_stdout(format_args!(""), true)?
    };
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*), true)?
    };
}

/// Usage text shown on errors.
pub const USAGE: &str = "\
usage:
  cbi instrument <file.mc> [--scheme checks|returns|scalar-pairs|branches]
  cbi transform  <file.mc> [--scheme S] [--global-countdown] [--no-regions]
  cbi disasm     <file.mc> [--stage source|instrument|sample] [--scheme S]
                 [--global-countdown] [--no-regions]
  cbi run        <file.mc> [--scheme S] [--density D] [--seed N] [--input \"1 2 3\"]
                 [--global-countdown] [--no-regions] [--metrics]
                 [--metrics-out metrics.jsonl] [--trace-out trace.json]
  cbi campaign   <file.mc> <inputs.txt> [--scheme S] [--density D] [--seed N]
                 [--jobs N] [--spool reports.cbr] [--transmit HOST:PORT]
                 [--metrics] [--metrics-out metrics.jsonl] [--trace-out trace.json]
  cbi profile    <file.mc> <inputs.txt> [--scheme S] [--density D] [--seed N]
                 [--jobs N] [--analyze eliminate|regress|none]
                 [--metrics-out metrics.jsonl] [--trace-out trace.json]
  cbi analyze    <reports.cbr> <file.mc> [--scheme S]
                 [--mode eliminate|regress]
  cbi serve      <file.mc> [--scheme S] [--addr 127.0.0.1:0] [--max-clients 1]
                 [--shards N] [--queue-cap N] [--acceptors N] [--epoch-len N]
                 [--journal FILE | --resume FILE] [--fsync never|batch|every:N]
                 [--mode eliminate|regress|both] [--spool reports.cbr]
                 [--flight-cap N] [--metrics] [--metrics-out metrics.jsonl]
  cbi transmit   <reports.cbr> --to HOST:PORT
  cbi corpus     generate <dir> [--size N] [--seed N] [--trials N] [--bugs N]
  cbi corpus     evaluate <dir> [--densities 1,10,100,1000]
                 [--scorers ochiai,tarantula,jaccard,increase,importance,posterior,odds]
                 [--jobs N] [--out report.txt] [--summary-out summary.txt]
  cbi isolate    <file.mc> <inputs.txt> [--scheme S] [--density D] [--seed N]
                 [--jobs N] [--scorer S] [--top N]
  cbi fleet      <file.mc> <inputs.txt> [--scheme S] [--clients N] [--runs N]
                 [--batch-size N] [--epoch-len N] [--densities 100:1,1000:3]
                 [--zipf S] [--variant-fraction F] [--stale-fraction F]
                 [--drop F] [--truncate F] [--bit-flip F] [--max-retries N]
                 [--backoff-base N] [--target PRED] [--seed N] [--jobs N]
                 [--summary-out FILE] [--flight-cap N] [--prom-out FILE]
                 [--timeline-out FILE]
                 [--metrics] [--metrics-out metrics.jsonl] [--trace-out trace.json]
  cbi fleet      --corpus <dir> [--entry ID] [--pool N] [same knobs]
  cbi fleet      <file.mc> <inputs.txt> --serve HOST:PORT [--ack-drop F]
                 [--streams N] [same fleet knobs]
  cbi monitor    <file.mc> <inputs.txt> [same fleet knobs] [--warmup N]
                 [--corruption-pm N] [--rejection-pm N] [--stale-pm N]
                 [--stall-epochs N] [--flight-cap N] [--health-out FILE]
                 [--prom-out FILE] [--timeline-out FILE]
  cbi monitor    --corpus <dir> [--entry ID] [--pool N] [same knobs]
  cbi monitor    --replay <spool.cbr|journal.cbij> <file.mc> [--scheme S]
                 [--epoch-len N] [--batch-size N] [same health knobs]
  cbi experiments [table1|table2|selective|effectiveness|ccrypt_study|fig2|
                  ccrypt_overhead|bc_study|fig4|ablation ...]

  Every program is compiled once to flat bytecode and run by one
  dispatch loop.  `cbi disasm` prints the bytecode listing of a program
  — raw (--stage source), after unconditional instrumentation (--stage
  instrument), or after the sampling transformation (--stage sample),
  where the fast/slow region clones and fused countdown ops are visible.

  --jobs N shards campaign trials over N worker threads (reports are
  bit-identical at any job count).  --metrics prints a telemetry summary,
  --metrics-out / --trace-out dump JSONL metrics and a chrome://tracing
  span file; `cbi profile` runs a campaign with telemetry on and prints
  the phase/worker breakdown.

  Remote collection: `cbi serve` binds the production ingest server for
  the given instrumented program (it prints `listening on ADDR`),
  validates each client stream's layout hash, checks, journals and acks
  each batch on the connection thread that read it, under the lock of
  shard `client mod --shards` (--queue-cap bounds a shard's unanswered
  deliveries; one more sheds with an `overloaded` NACK and the client
  retries), dedups retransmits by (client, seq), and at shutdown folds
  every committed batch in canonical order — the analysis is
  byte-identical at any shard count.  --journal FILE appends every
  batch to a crash-safe journal before acking it (--fsync picks the
  durability level); after a crash, --resume FILE replays the journal,
  truncates a torn final record, and continues where the server died.
  `cbi campaign --transmit ADDR` sends the campaign's reports to such a
  server as one batch in the compact binary wire format, keyed by a
  hash of its bytes, so sending the same stream twice commits it once
  (the second send is answered `duplicate`); `cbi fleet --serve ADDR`
  drives the whole simulated community against it over real sockets
  (--ack-drop loses acks to exercise retransmit dedup, --streams bounds
  client concurrency).  `--spool FILE` archives reports to disk as a
  binary spool, the one report file format: `cbi transmit` replays a
  spool to a server the same way, `cbi analyze` analyzes one
  in-process, and `cbi monitor --replay` also walks serve journals with
  full per-batch provenance.

  Ground-truth corpus: `cbi corpus generate` plants one labeled bug per
  program into seeded testgen programs and the ccrypt/bc workloads,
  validating each by an instrumented campaign, and writes
  <dir>/manifest.jsonl plus <dir>/programs/.  With --bugs N (2 or 3)
  it instead plants N interacting deterministic bugs per program and
  writes a schema-2 multi-bug manifest.  `cbi corpus evaluate` runs one
  campaign per entry and density (the density-1 one always, for
  ground-truth run attribution) and scores it against the manifest:
  elimination survival, regression rank, recall@k and wasted effort for
  the primary fault, then per --scorers entry the isolation loop's
  cluster purity, per-bug rank and iterations-to-isolation for every
  fault.  Output is byte-identical at any --jobs.

  Iterative isolation: `cbi isolate` runs the paper's multi-bug
  redundancy-elimination loop over a campaign on an input file — rank
  all predicates with --scorer (default ochiai), attribute the top
  predicate to a bug cluster, discard the failing runs it explains,
  re-rank, repeat until no failures remain — and prints the
  per-iteration trace, integer-only and byte-identical at any --jobs.

  Fleet simulation: `cbi fleet` drives a seeded community of simulated
  clients through the whole remote pipeline — each client draws a
  sampling density from the --densities mix, possibly a single-function
  variant binary (--variant-fraction) or a stale version
  (--stale-fraction, rejected at the layout handshake and counted),
  picks inputs Zipf(--zipf)-skewed from the pool, spools reports, and
  transmits batches over a lossy channel (--drop/--truncate/--bit-flip
  per attempt, at most --max-retries retries, the k-th after a backoff
  of --backoff-base << k ticks).  The server
  folds surviving batches into per-epoch aggregates (--epoch-len) and
  prints an integer-only summary that is byte-identical at any --jobs.
  With --corpus the fleet runs a generated corpus entry and tracks its
  planted bug's detection latency and rank against ground truth.

  Health monitoring: `cbi monitor` drives the same fleet (or replays a
  binary spool with --replay) and watches the epoch stream with seeded
  anomaly detectors — corruption spikes, rejection spikes, stale-version
  surges, and detection stalls, thresholds in integer per-mille
  (--corruption-pm etc.) after --warmup epochs.  It prints an
  integer-only health table; when any event fires it also dumps the
  server's flight recorder (the last --flight-cap ingest events).
  --prom-out writes a Prometheus text exposition of the deployment
  metrics and --timeline-out a JSONL epoch timeline; both flags also
  work on `cbi fleet` directly.  Every surface is byte-identical at any
  --jobs.

  Paper experiments: `cbi experiments` regenerates the evaluation's
  tables and figures (Tables 1-2, Figures 2 and 4, §3.1.2-§3.3.3 and
  the design ablations) with fixed seeds, one per name, all ten in
  order when none is named.  It takes names only, no flags.";

/// Valueless boolean switches accepted by the subcommands.
const SWITCHES: &[&str] = &["global-countdown", "no-regions", "metrics"];

/// Flags that were removed, with the subcommand they were removed from
/// (`None`: every one) and the answer a caller still passing one gets.
/// `Args` ignores flags it does not know, so without this a script
/// would silently get different behaviour than it asked for.
const REMOVED_FLAGS: &[(Option<&str>, &str, &str)] = &[
    (
        None,
        "engine",
        "--engine was removed: bytecode is the only engine",
    ),
    (
        None,
        "max-conns",
        "--max-conns was removed: use --max-clients",
    ),
    (
        Some("isolate"),
        "corpus",
        "`cbi isolate --corpus` was removed: use `cbi corpus evaluate DIR --scorers S,...`, \
         which prints the isolation block beside survival and model rank",
    ),
    (
        Some("corpus"),
        "scorer",
        "`cbi corpus evaluate --scorer` was removed: use `cbi corpus evaluate DIR --scorers S,...`; \
         each scorer's per-bug rank is the isolation block's ranksum column",
    ),
];

/// Dispatches a raw argument vector to a subcommand.
///
/// # Errors
///
/// Returns a user-facing message for any parse, I/O, or pipeline failure.
pub fn dispatch(raw: Vec<String>) -> Result<(), String> {
    let args = Args::parse_with_switches(raw, SWITCHES)?;
    if let Some((_, _, answer)) = REMOVED_FLAGS.iter().find(|(command, flag, _)| {
        command.is_none_or(|c| args.positional(0) == Some(c)) && args.flag(flag).is_some()
    }) {
        return Err(answer.to_string());
    }
    match args.positional(0) {
        Some("instrument") => cmd_instrument(&args),
        Some("transform") => cmd_transform(&args),
        Some("disasm") => cmd_disasm(&args),
        Some("run") => cmd_run(&args),
        Some("campaign") => cmd_campaign(&args),
        Some("profile") => cmd_profile(&args),
        Some("analyze") => cmd_analyze(&args),
        Some("serve") => cmd_serve(&args),
        Some("transmit") => cmd_transmit(&args),
        Some("corpus") => cmd_corpus(&args),
        Some("isolate") => cmd_isolate(&args),
        Some("fleet") => cmd_fleet(&args),
        Some("monitor") => cmd_monitor(&args),
        Some("experiments") => crate::experiments::cmd_experiments(&args),
        Some(other) => Err(format!("unknown subcommand `{other}`")),
        None => Err("missing subcommand".to_string()),
    }
}

fn load_program(args: &Args, at: usize) -> Result<Program, String> {
    let path = args
        .positional(at)
        .ok_or_else(|| "missing program file argument".to_string())?;
    let src = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let program = parse(&src).map_err(|e| format!("{path}: {e}"))?;
    resolve(&program).map_err(|e| format!("{path}: {e}"))?;
    Ok(program)
}

fn scheme_of(args: &Args) -> Result<Scheme, String> {
    match args.flag("scheme").unwrap_or("checks") {
        "checks" => Ok(Scheme::Checks),
        "returns" => Ok(Scheme::Returns),
        "scalar-pairs" => Ok(Scheme::ScalarPairs),
        "branches" => Ok(Scheme::Branches),
        other => Err(format!(
            "unknown scheme `{other}` (expected checks, returns, scalar-pairs, or branches)"
        )),
    }
}

fn transform_options(args: &Args) -> TransformOptions {
    TransformOptions {
        countdown: if args.flag("global-countdown").is_some() {
            cbi::minic::Countdown::Global
        } else {
            cbi::minic::Countdown::Local
        },
        regions: args.flag("no-regions").is_none(),
        ..TransformOptions::default()
    }
}

fn cmd_instrument(args: &Args) -> Result<(), String> {
    let program = load_program(args, 1)?;
    let scheme = scheme_of(args)?;
    let inst = instrument(&program, scheme).map_err(|e| e.to_string())?;
    outln!(
        "// {} sites, {} counters",
        inst.sites.len(),
        inst.sites.total_counters()
    );
    for site in &inst.sites {
        outln!("// {}  [{}]", site.predicate_name(0), site.kind);
    }
    outln!();
    outln!("{}", pretty(&inst.program));
    Ok(())
}

fn cmd_transform(args: &Args) -> Result<(), String> {
    let program = load_program(args, 1)?;
    let scheme = scheme_of(args)?;
    let inst = instrument(&program, scheme).map_err(|e| e.to_string())?;
    let (sampled, stats) =
        apply_sampling(&inst.program, &transform_options(args)).map_err(|e| e.to_string())?;
    outln!(
        "// {} site-containing functions, {} weightless, avg threshold weight {:.1}",
        stats.functions_with_sites(),
        stats.weightless_functions(),
        stats.avg_threshold_weight()
    );
    outln!("{}", pretty(&sampled));
    Ok(())
}

/// `cbi disasm`: print the deterministic bytecode listing of a program,
/// optionally after instrumentation or the full sampling transformation.
fn cmd_disasm(args: &Args) -> Result<(), String> {
    let program = load_program(args, 1)?;
    let stage = args.flag("stage").unwrap_or("source");
    let lowered = match stage {
        "source" => cbi::minic::lower(&program),
        "instrument" => {
            let inst = instrument(&program, scheme_of(args)?).map_err(|e| e.to_string())?;
            cbi::minic::lower(&inst.program)
        }
        "sample" => {
            let inst = instrument(&program, scheme_of(args)?).map_err(|e| e.to_string())?;
            let (sampled, _) = apply_sampling(&inst.program, &transform_options(args))
                .map_err(|e| e.to_string())?;
            cbi::minic::lower(&sampled)
        }
        other => {
            return Err(format!(
                "unknown --stage `{other}` (expected source, instrument, or sample)"
            ))
        }
    };
    let bc = cbi::vm::bytecode::compile(&lowered);
    out!("{}", cbi::vm::bytecode::disassemble(&bc));
    Ok(())
}

fn parse_input(raw: &str) -> Result<Vec<i64>, String> {
    raw.split_whitespace()
        .map(|t| t.parse().map_err(|_| format!("bad input token `{t}`")))
        .collect()
}

/// Parses and validates `--jobs` (default 1).
fn jobs_of(args: &Args) -> Result<usize, String> {
    let jobs: usize = args.flag_or("jobs", 1)?;
    if jobs == 0 {
        return Err(
            "--jobs must be a positive integer (got 0); use --jobs 1 for serial execution"
                .to_string(),
        );
    }
    Ok(jobs)
}

/// Telemetry-related flags shared by `run`, `campaign`, and `profile`.
struct TelemetryOpts<'a> {
    summary: bool,
    metrics_out: Option<&'a str>,
    trace_out: Option<&'a str>,
}

impl<'a> TelemetryOpts<'a> {
    fn from_args(args: &'a Args) -> Self {
        TelemetryOpts {
            summary: args.flag("metrics").is_some(),
            metrics_out: args.flag("metrics-out"),
            trace_out: args.flag("trace-out"),
        }
    }

    fn wanted(&self) -> bool {
        self.summary || self.metrics_out.is_some() || self.trace_out.is_some()
    }

    /// Enables the telemetry sink if any output was requested.  Returns
    /// whether recording is on so callers can skip the collect step.
    fn begin(&self) -> bool {
        if self.wanted() {
            cbi::telemetry::reset();
            cbi::telemetry::enable();
        }
        self.wanted()
    }

    /// Collects buffered telemetry and writes every requested output:
    /// summary to stderr (report streams own stdout), JSONL metrics and
    /// chrome trace to their files.
    fn finish(&self) -> Result<cbi::telemetry::Metrics, String> {
        cbi::telemetry::disable();
        let metrics = cbi::telemetry::collect();
        if self.summary {
            eprint!("{}", cbi::telemetry::export::summary(&metrics));
        }
        if let Some(path) = self.metrics_out {
            let mut buf = Vec::new();
            cbi::telemetry::export::write_jsonl(&metrics, &mut buf).map_err(|e| e.to_string())?;
            fs::write(path, buf).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("metrics written to {path}");
        }
        if let Some(path) = self.trace_out {
            let mut buf = Vec::new();
            cbi::telemetry::export::write_chrome_trace(&metrics, &mut buf)
                .map_err(|e| e.to_string())?;
            fs::write(path, buf).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("chrome trace written to {path} (open in chrome://tracing)");
        }
        Ok(metrics)
    }
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let telemetry = TelemetryOpts::from_args(args);
    let recording = telemetry.begin();

    let (result, inst) = {
        let program = cbi::telemetry::time("phase.parse", || load_program(args, 1))?;
        let scheme = scheme_of(args)?;
        let density: u64 = args.flag_or("density", 100)?;
        let seed: u64 = args.flag_or("seed", 42)?;
        let input = parse_input(args.flag("input").unwrap_or(""))?;

        let inst = cbi::telemetry::time("phase.instrument", || instrument(&program, scheme))
            .map_err(|e| e.to_string())?;
        let (sampled, _) = cbi::telemetry::time("phase.transform", || {
            apply_sampling(&inst.program, &transform_options(args))
        })
        .map_err(|e| e.to_string())?;
        let bank = LazyBank::new(SamplingDensity::one_in(density), 1024, seed);
        let result = cbi::telemetry::time("phase.execute", || {
            Vm::new(&sampled)
                .with_sites(&inst.sites)
                .with_sampling(Box::new(bank))
                .with_input(input)
                .run()
        })
        .map_err(|e| e.to_string())?;
        (result, inst)
    };

    outln!("outcome: {}", result.outcome);
    outln!("ops: {}", result.ops);
    outln!("output: {:?}", result.output);
    outln!("observations:");
    for (i, &c) in result.counters.iter().enumerate() {
        if c > 0 {
            outln!("  {:>6}x  {}", c, inst.sites.predicate_name(i));
        }
    }
    if recording {
        telemetry.finish()?;
    }
    Ok(())
}

/// Parses the shared campaign inputs: program, trial list, and config.
fn campaign_setup(args: &Args) -> Result<(Program, Vec<Vec<i64>>, CampaignConfig), String> {
    let program = cbi::telemetry::time("phase.parse", || load_program(args, 1))?;
    let inputs_path = args
        .positional(2)
        .ok_or_else(|| "missing inputs file".to_string())?;
    let scheme = scheme_of(args)?;
    let density: u64 = args.flag_or("density", 100)?;
    let seed: u64 = args.flag_or("seed", 42)?;
    let jobs = jobs_of(args)?;

    let raw =
        fs::read_to_string(inputs_path).map_err(|e| format!("cannot read {inputs_path}: {e}"))?;
    let trials: Vec<Vec<i64>> = raw
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_input)
        .collect::<Result<_, _>>()?;

    let mut config =
        CampaignConfig::sampled(scheme, SamplingDensity::one_in(density)).with_jobs(jobs);
    config.seed = seed;
    Ok((program, trials, config))
}

/// Parses the shared campaign inputs and runs the campaign with phase
/// spans around parse and execution.
fn run_campaign_from_args(args: &Args) -> Result<cbi::workloads::CampaignResult, String> {
    let (program, trials, config) = campaign_setup(args)?;
    cbi::telemetry::time("phase.campaign", || {
        run_campaign(&program, &trials, &config)
    })
    .map_err(|e| e.to_string())
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    // `Args` ignores flags it does not know, and `--out` is still live on
    // other subcommands, so the removed archive flag is refused here.
    if args.flag("out").is_some() {
        return Err(
            "campaign --out was removed: reports are archived as a binary spool, use --spool FILE"
                .to_string(),
        );
    }
    let telemetry = TelemetryOpts::from_args(args);
    let recording = telemetry.begin();

    let (program, trials, config) = campaign_setup(args)?;

    // Reports fold into statistics (for the summary) and land
    // simultaneously in an optional spool file and transmit socket.
    let spool = match args.flag("spool") {
        Some(path) => {
            Some(WireSink::create(path).map_err(|e| format!("cannot create spool {path}: {e}"))?)
        }
        None => None,
    };
    let transmit = match args.flag("transmit") {
        Some(addr) => Some(
            TransmitSink::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?,
        ),
        None => None,
    };
    let mut sink = (
        StreamingAnalyzer::new(StreamingConfig::default()),
        (spool, transmit),
    );

    let run = cbi::telemetry::time("phase.campaign", || {
        run_campaign_into(&program, &trials, &config, &mut sink)
    })
    .map_err(|e| e.to_string())?;
    let (analyzer, (spool, transmit)) = sink;
    let stats = analyzer.stats();

    eprintln!(
        "{} runs: {} success, {} failure, {} dropped",
        analyzer.seen(),
        stats.success_runs(),
        stats.failure_runs(),
        run.dropped
    );
    if let (Some(path), Some(s)) = (args.flag("spool"), &spool) {
        eprintln!(
            "{} reports ({} bytes) spooled to {path}",
            s.reports_written(),
            s.bytes_written()
        );
    }
    if let (Some(addr), Some(t)) = (args.flag("transmit"), &transmit) {
        print_transmitted(t, addr);
    }
    if recording {
        telemetry.finish()?;
    }
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let file = args
        .positional(1)
        .ok_or_else(|| "missing program file argument".to_string())?
        .to_string();
    let analyze = args.flag("analyze").unwrap_or("eliminate");
    if !matches!(analyze, "eliminate" | "regress" | "none") {
        return Err(format!(
            "unknown --analyze mode `{analyze}` (expected eliminate, regress, or none)"
        ));
    }
    let telemetry = TelemetryOpts::from_args(args);

    // `profile` is the always-on variant: telemetry records regardless of
    // the output flags.
    cbi::telemetry::reset();
    cbi::telemetry::enable();
    let result = run_campaign_from_args(args)?;
    match analyze {
        "eliminate" => {
            let _ = cbi::eliminate(&result);
        }
        "regress" => {
            let n = result.collector.len();
            let _ = cbi::regress(&result, &RegressionConfig::paper_proportions(n))
                .map_err(|e| e.to_string())?;
        }
        _ => {}
    }
    let metrics = telemetry.finish()?;

    print_profile(&file, &result, &metrics, jobs_of(args)?)
}

/// Renders the `cbi profile` breakdown: per-phase wall-clock, per-worker
/// shard statistics, and VM/sampling totals.
fn print_profile(
    file: &str,
    result: &cbi::workloads::CampaignResult,
    m: &cbi::telemetry::Metrics,
    jobs: usize,
) -> Result<(), String> {
    use cbi::telemetry::export::{fmt_ns, worker_name};

    outln!(
        "profile: {file} — {} runs ({} success, {} failure, {} dropped), jobs={jobs}",
        result.collector.len() + result.dropped,
        result.collector.success_count(),
        result.collector.failure_count(),
        result.dropped,
    );

    outln!();
    outln!("phases:");
    let phases = m.span_summary();
    let width = phases.iter().map(|(n, _, _)| n.len()).max().unwrap_or(0);
    for (name, count, total_ns) in &phases {
        outln!("  {name:<width$}  {:>12}  x{count}", fmt_ns(*total_ns));
    }

    outln!();
    outln!("workers:");
    outln!(
        "  {:<12}  {:>8}  {:>8}  {:>12}  {:>12}",
        "worker",
        "trials",
        "dropped",
        "queue-wait",
        "shard wall"
    );
    for worker in m.per_worker.keys() {
        let trials = m.worker_counter(*worker, "campaign.trials");
        if trials == 0 {
            continue;
        }
        let shard_ns: u64 = m
            .spans
            .iter()
            .filter(|s| s.worker == *worker && s.name == "campaign.shard")
            .map(|s| s.dur_ns)
            .sum();
        outln!(
            "  {:<12}  {:>8}  {:>8}  {:>12}  {:>12}",
            worker_name(*worker),
            trials,
            m.worker_counter(*worker, "campaign.dropped"),
            fmt_ns(m.worker_counter(*worker, "campaign.queue_wait_ns")),
            fmt_ns(shard_ns),
        );
    }

    outln!();
    outln!("vm totals:");
    outln!(
        "  runs {}   steps {}   ops {}",
        m.counter("vm.runs"),
        m.counter("vm.steps"),
        m.counter("vm.ops"),
    );
    outln!(
        "  region entries: {} fast-path, {} slow-path",
        m.counter("vm.region.fast_entries"),
        m.counter("vm.region.slow_entries"),
    );
    outln!(
        "  sampling: {} samples taken, {} countdown refills, {} bank reseeds",
        m.counter("vm.samples_taken"),
        m.counter("sampler.refills"),
        m.counter("sampler.bank_reseeds"),
    );
    if let Some(h) = m.histogram("vm.ops_per_run") {
        outln!(
            "  ops per run: mean {:.0}, p50~{}, p99~{}, max {}",
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.max,
        );
    }
    Ok(())
}

/// Renders an elimination report in the shared format used by `analyze`
/// and `serve`, so local and remote analyses diff cleanly.
fn print_elimination(report: &EliminationReport) -> Result<(), String> {
    let [uf, cov, ex, sc] = report.independent_survivors;
    outln!("universal falsehood:        {uf} survivors");
    outln!("lack of failing coverage:   {cov} survivors");
    outln!("lack of failing example:    {ex} survivors");
    outln!("successful counterexample:  {sc} survivors");
    outln!("combined (falsehood ∧ counterexample):");
    for name in &report.combined_names {
        outln!("  {name}");
    }
    Ok(())
}

/// Renders a regression study in the shared format used by `analyze`
/// and `serve`.
fn print_regression(study: &RegressionStudy) -> Result<(), String> {
    outln!(
        "lambda {} (cv), test accuracy {:.3}, {} effective features",
        study.lambda,
        study.test_accuracy,
        study.effective_features
    );
    for (i, (name, beta)) in study.top(10).iter().enumerate() {
        outln!("{:>3}. beta={beta:+.4}  {name}", i + 1);
    }
    Ok(())
}

/// Loads a binary report spool (what `--spool` writes) as rows, with the
/// producing binary's layout from the stream header.
fn load_reports(path: &str) -> Result<(SparseArchive, ReportLayout), String> {
    let file = fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let archive = SparseArchive::read_stream(std::io::BufReader::new(file))
        .map_err(|e| format!("{path}: {e} (expected a binary report spool, as --spool writes)"))?;
    let layout = archive
        .layout()
        .expect("a read stream has its header's layout");
    Ok((archive, layout))
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    let reports_path = args
        .positional(1)
        .ok_or_else(|| "missing reports file".to_string())?;
    let program = load_program(args, 2)?;
    let scheme = scheme_of(args)?;
    let mode = args.flag("mode").unwrap_or("eliminate");

    let (archive, layout) = load_reports(reports_path)?;
    let stats = archive.stats();
    eprintln!(
        "{} reports ({} failures)",
        archive.len(),
        stats.failure_runs()
    );

    // Rebuild the site table so predicates can be named.  The spool's
    // layout hash covers the counter count and every site, so a stream
    // recorded from another instrumented binary is refused even when the
    // counter counts coincide.
    let inst = instrument(&program, scheme).map_err(|e| e.to_string())?;
    let sites = &inst.sites;
    let (layout_hash, expected) = (layout.layout_hash, sites.layout_hash());
    if layout_hash != expected {
        return Err(format!(
            "report layout mismatch: spool was recorded from a different \
             instrumented binary (layout hash {layout_hash:#018x}, program has {expected:#018x})"
        ));
    }

    match mode {
        "eliminate" => print_elimination(&cbi::eliminate_stats(&stats, &sites.groups(), sites))?,
        "regress" => {
            let config = RegressionConfig::paper_proportions(archive.len());
            let study =
                cbi::regress_rows(sites, archive.rows(), &config).map_err(|e| e.to_string())?;
            print_regression(&study)?;
        }
        other => return Err(format!("unknown mode `{other}`")),
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let program = load_program(args, 1)?;
    let scheme = scheme_of(args)?;
    let addr = args.flag("addr").unwrap_or("127.0.0.1:0");

    // Every flag is validated before the listener binds, so a typo
    // never claims a port.
    let max_clients: u64 = args.flag_or("max-clients", 1u64)?;
    if max_clients == 0 {
        return Err("--max-clients must be a positive integer (got 0)".to_string());
    }
    let mode = args.flag("mode").unwrap_or("eliminate");
    if !matches!(mode, "eliminate" | "regress" | "both") {
        return Err(format!(
            "unknown --mode `{mode}` (expected eliminate, regress, or both)"
        ));
    }
    let shards: usize = args.flag_or("shards", 1usize)?;
    if shards == 0 {
        return Err("--shards must be a positive integer (got 0)".to_string());
    }
    let queue_cap: usize = args.flag_or("queue-cap", 64usize)?;
    if queue_cap == 0 {
        return Err("--queue-cap must be a positive integer (got 0)".to_string());
    }
    let epoch_len: u64 = args.flag_or("epoch-len", 256u64)?;
    if epoch_len == 0 {
        return Err("--epoch-len must be a positive integer (got 0)".to_string());
    }
    let acceptors: usize = args.flag_or("acceptors", 0usize)?;
    let fsync = match args.flag("fsync") {
        Some(s) => cbi_serve::FsyncPolicy::parse(s).map_err(|e| format!("--fsync: {e}"))?,
        None => cbi_serve::FsyncPolicy::EveryBatch,
    };
    if args.flag("journal").is_some() && args.flag("resume").is_some() {
        return Err(
            "--journal and --resume are mutually exclusive (--resume reopens an existing journal)"
                .to_string(),
        );
    }
    let telemetry = TelemetryOpts::from_args(args);
    let recording = telemetry.begin();

    // The server pins the layout of the binary it was started for:
    // clients built from anything else are rejected at the handshake.
    let inst = instrument(&program, scheme).map_err(|e| e.to_string())?;
    let config = cbi_serve::ServeConfig {
        shards,
        queue_cap,
        epoch_len,
        flight_capacity: args.flag_or("flight-cap", 64usize)?,
        keep_reports: args.flag("spool").is_some() || matches!(mode, "regress" | "both"),
    };
    let core = cbi_serve::IngestCore::new(inst.sites.clone(), config).map_err(|e| e.to_string())?;
    let core = match (args.flag("journal"), args.flag("resume")) {
        (Some(path), None) => core.with_journal(path, fsync).map_err(|e| e.to_string())?,
        (None, Some(path)) => core.resume(path, fsync).map_err(|e| e.to_string())?,
        _ => core,
    };

    let options = cbi_serve::ServerOptions {
        acceptors,
        max_clients,
    };
    let server = cbi_serve::TcpIngestServer::bind(core, addr, options)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    outln!("listening on {bound}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;

    let outcome = server.run().map_err(|e| e.to_string())?;
    eprint!("{}", outcome.summary.render());

    if let Some(path) = args.flag("spool") {
        let collector = outcome
            .collector
            .as_ref()
            .expect("keep_reports is set whenever --spool is");
        let mut spool =
            WireSink::create(path).map_err(|e| format!("cannot create spool {path}: {e}"))?;
        spool
            .begin(ReportLayout {
                counters: inst.sites.total_counters(),
                layout_hash: inst.sites.layout_hash(),
            })
            .map_err(|e| e.to_string())?;
        for report in collector.reports() {
            spool.accept(report).map_err(|e| e.to_string())?;
        }
        spool.finish().map_err(|e| e.to_string())?;
        eprintln!("{} reports spooled to {path}", spool.reports_written());
    }

    // The canonical analysis (byte-identical at any shard count), then
    // the shared elimination/regression blocks `cbi analyze` also
    // prints, so local and remote analyses diff cleanly.
    out!("{}", cbi_serve::render_analysis(&outcome.aggregator, 10));
    if matches!(mode, "eliminate" | "both") {
        print_elimination(&outcome.aggregator.analyzer().eliminate(&inst.sites))?;
    }
    if matches!(mode, "regress" | "both") {
        let archive = outcome
            .collector
            .expect("keep_reports is set for regression modes");
        let config = RegressionConfig::paper_proportions(archive.len());
        let study =
            cbi::regress_rows(&inst.sites, archive.rows(), &config).map_err(|e| e.to_string())?;
        print_regression(&study)?;
    }
    if recording {
        telemetry.finish()?;
    }
    Ok(())
}

fn cmd_transmit(args: &Args) -> Result<(), String> {
    let reports_path = args
        .positional(1)
        .ok_or_else(|| "missing reports file".to_string())?;
    let addr = args
        .flag("to")
        .ok_or_else(|| "missing --to HOST:PORT".to_string())?;

    if args.positional_count() > 2 {
        return Err(
            "transmit takes one spool file: the layout hash comes from its header".to_string(),
        );
    }

    let (archive, layout) = load_reports(reports_path)?;
    let mut sink =
        TransmitSink::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    sink.begin(layout).map_err(|e| e.to_string())?;
    for report in archive.reports() {
        sink.accept(report).map_err(|e| e.to_string())?;
    }
    sink.finish().map_err(|e| e.to_string())?;
    print_transmitted(&sink, addr);
    Ok(())
}

/// The one line a finished transmission prints: what was sent and the
/// server's answer, `duplicate` when it had already committed the stream.
fn print_transmitted(sink: &TransmitSink, addr: &str) {
    let verdict = match sink.verdict() {
        Some(cbi::reports::AckVerdict::Duplicate) => "duplicate: already committed",
        _ => "accepted",
    };
    eprintln!(
        "{} reports ({} bytes) transmitted to {addr}: {verdict}",
        sink.reports_written(),
        sink.bytes_written()
    );
}

fn cmd_corpus(args: &Args) -> Result<(), String> {
    match args.positional(1) {
        Some("generate") => cmd_corpus_generate(args),
        Some("evaluate") => cmd_corpus_evaluate(args),
        Some(other) => Err(format!(
            "unknown corpus action `{other}` (expected generate or evaluate)"
        )),
        None => Err("missing corpus action (expected generate or evaluate)".to_string()),
    }
}

fn corpus_dir(args: &Args) -> Result<&str, String> {
    args.positional(2)
        .ok_or_else(|| "missing corpus directory argument".to_string())
}

fn cmd_corpus_generate(args: &Args) -> Result<(), String> {
    let dir = corpus_dir(args)?;
    let bugs: usize = args.flag_or("bugs", 1usize)?;
    let most = cbi_corpus::MULTI_FAULT_VARS.len();
    if !(1..=most).contains(&bugs) {
        return Err(format!(
            "--bugs must be from 1 to {most} planted faults per entry (got {bugs})"
        ));
    }
    // Multi-bug corpora default to fewer, longer-trialled entries.
    let (size, trials) = if bugs > 1 { (12, 96) } else { (100, 48) };
    let size: usize = args.flag_or("size", size)?;
    let seed: u64 = args.flag_or("seed", 0xc0deu64)?;
    let trials: usize = args.flag_or("trials", trials)?;
    if size == 0 || trials == 0 {
        return Err("--size and --trials must be positive".to_string());
    }
    let corpus = if bugs > 1 {
        cbi_corpus::generate_multi_corpus(&cbi_corpus::MultiGenerateConfig {
            size,
            seed,
            trials,
            bugs_per_entry: bugs,
        })
    } else {
        cbi_corpus::generate_corpus(&cbi_corpus::GenerateConfig { size, seed, trials })
    }
    .map_err(|e| e.to_string())?;
    for note in &corpus.log {
        eprintln!("note: {note}");
    }
    cbi_corpus::write_corpus(std::path::Path::new(dir), &corpus).map_err(|e| e.to_string())?;
    let n = corpus.entries.len();
    if bugs > 1 {
        let faults: usize = corpus.entries.iter().map(|e| e.bug.faults.len()).sum();
        outln!(
            "{n} multi-bug entries written to {dir} ({faults} planted faults, schema {})",
            cbi_corpus::MANIFEST_SCHEMA
        );
    } else {
        let dets = corpus
            .entries
            .iter()
            .filter(|e| e.bug.deterministic())
            .count();
        outln!(
            "{n} entries written to {dir} ({dets} deterministic, {} input-conditioned or sampling-dependent)",
            n - dets
        );
    }
    Ok(())
}

fn cmd_corpus_evaluate(args: &Args) -> Result<(), String> {
    let dir = corpus_dir(args)?;
    let densities: Vec<u64> = args
        .flag("densities")
        .unwrap_or("1,10,100,1000")
        .split(',')
        .map(|t| {
            let t = t.trim();
            t.parse::<u64>()
                .ok()
                .filter(|&d| d > 0)
                .ok_or_else(|| format!("bad density `{t}` (expected positive integers)"))
        })
        .collect::<Result<_, _>>()?;
    let config = cbi_corpus::EvalConfig {
        densities,
        scorers: args
            .flag("scorers")
            .unwrap_or("ochiai,importance")
            .split(',')
            .map(|t| t.trim().to_string())
            .collect(),
        jobs: jobs_of(args)?,
    };
    let entries = cbi_corpus::load_corpus(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    eprintln!("evaluating {} entries from {dir}", entries.len());
    let report = cbi_corpus::evaluate(&entries, &config).map_err(|e| e.to_string())?;
    write_or_print(
        args,
        "out",
        &cbi_corpus::render_report(&report),
        "score report",
    )?;
    write_or_print(
        args,
        "summary-out",
        &cbi_corpus::render_summary(&report),
        "summary",
    )
}

fn cmd_isolate(args: &Args) -> Result<(), String> {
    let (program, trials, config) = campaign_setup(args)?;
    let scheme = scheme_of(args)?;
    let scorer_name = args.flag("scorer").unwrap_or("ochiai");
    let scorer = cbi_scoring::scorer_by_name(scorer_name).ok_or_else(|| {
        format!(
            "unknown scorer `{scorer_name}` (expected one of {})",
            cbi_scoring::SCORER_NAMES.join(", ")
        )
    })?;
    let top: usize = args.flag_or("top", 5usize)?;

    let inst = instrument(&program, scheme).map_err(|e| e.to_string())?;
    let sites = &inst.sites;
    let groups = sites.groups();

    let mut index = cbi_scoring::FailureIndex::new();
    run_campaign_into(&program, &trials, &config, &mut index).map_err(|e| e.to_string())?;
    let stats = index.stats();
    eprintln!(
        "{} runs: {} failing retained, {} successes folded",
        stats.failure_runs() + stats.success_runs(),
        stats.failure_runs(),
        stats.success_runs()
    );

    let run = cbi_scoring::isolate(&index, &groups, scorer);
    outln!(
        "isolation trace ({} scorer, scores in per-mille):",
        run.scorer
    );
    outln!();
    outln!("initial ranking (top {top}):");
    for &(c, score) in run.initial_ranking.iter().take(top) {
        outln!("  {score:>6}  {}", sites.predicate_name(c));
    }
    outln!();
    if run.steps.is_empty() {
        outln!("no iterations: no positively-scored predicate covers a failure");
    }
    for step in &run.steps {
        outln!(
            "iteration {}: {} failing runs -> {}",
            step.iteration,
            step.failures_before,
            step.failures_after
        );
        outln!(
            "  bug cluster: {} runs explained by [{}] (score {})",
            step.cluster.trials.len(),
            sites.predicate_name(step.cluster.counter),
            step.cluster.score
        );
    }
    outln!();
    if run.is_complete() {
        outln!(
            "complete: every failing run attributed in {} iterations",
            run.iterations()
        );
    } else {
        outln!(
            "{} failing runs unexplained (trials {:?})",
            run.unexplained.len(),
            run.unexplained
        );
    }
    Ok(())
}

/// Writes `text` to the file the `flag` option names (announcing
/// `what` on stderr), or prints it when the option is absent.
fn write_or_print(args: &Args, flag: &str, text: &str, what: &str) -> Result<(), String> {
    match args.flag(flag) {
        Some(path) => {
            fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("{what} written to {path}");
        }
        None => out!("{text}"),
    }
    Ok(())
}

/// Parses the `--densities` mix: `100:1,1000:3` pairs (weight defaults
/// to 1 when omitted, as in `100,1000`).
fn density_mix(args: &Args) -> Result<Vec<(u64, f64)>, String> {
    args.flag("densities")
        .unwrap_or("100")
        .split(',')
        .map(|t| {
            let t = t.trim();
            let (den, weight) = match t.split_once(':') {
                Some((d, w)) => (d, w),
                None => (t, "1"),
            };
            let d = den
                .parse::<u64>()
                .ok()
                .filter(|&d| d > 0)
                .ok_or_else(|| format!("bad density `{t}` (expected D or D:WEIGHT)"))?;
            let w = weight
                .parse::<f64>()
                .ok()
                .filter(|w| w.is_finite() && *w > 0.0)
                .ok_or_else(|| format!("bad density weight `{t}` (expected D:WEIGHT)"))?;
            Ok((d, w))
        })
        .collect()
}

/// Builds a [`cbi_fleet::FleetSpec`] from the shared fleet flags.
fn fleet_spec(args: &Args) -> Result<cbi_fleet::FleetSpec, String> {
    let clients = args.flag_or("clients", 32usize)?;
    let runs = args.flag_or("runs", 2000usize)?;
    let fraction = |name: &str| -> Result<f64, String> {
        let v: f64 = args.flag_or(name, 0.0)?;
        if (0.0..=1.0).contains(&v) {
            Ok(v)
        } else {
            Err(format!("--{name} must be in [0, 1], got {v}"))
        }
    };
    let mut spec = cbi_fleet::FleetSpec::new(clients, runs);
    spec.batch_size = args.flag_or("batch-size", 16usize)?;
    spec.epoch_len = args.flag_or("epoch-len", 256u64)?;
    spec.zipf_exponent = args.flag_or("zipf", 0.0f64)?;
    spec.densities = density_mix(args)?;
    spec.variant_fraction = fraction("variant-fraction")?;
    spec.stale_fraction = fraction("stale-fraction")?;
    spec.scheme = scheme_of(args)?;
    spec.channel = cbi_fleet::ChannelSpec {
        drop: fraction("drop")?,
        truncate: fraction("truncate")?,
        bit_flip: fraction("bit-flip")?,
        max_retries: args.flag_or("max-retries", 3u32)?,
        backoff_base: args.flag_or("backoff-base", 1u64)?,
    };
    spec.seed = args.flag_or("seed", 0x5eedu64)?;
    spec.jobs = jobs_of(args)?;
    spec.flight_recorder = args.flag_or("flight-cap", 64usize)?;
    Ok(spec)
}

/// Runs the fleet described by the shared fleet flags (program or
/// `--corpus` mode).  Returns the report and whether a ground-truth
/// target was tracked.
fn fleet_report(args: &Args) -> Result<(cbi_fleet::FleetReport, bool), String> {
    if let Some(dir) = args.flag("corpus") {
        let entries =
            cbi_corpus::load_corpus(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
        let entry = match args.flag("entry") {
            Some(id) => entries
                .iter()
                .find(|e| e.bug.id == id)
                .ok_or_else(|| format!("no corpus entry `{id}` in {dir}"))?,
            None => entries
                .first()
                .ok_or_else(|| format!("corpus {dir} is empty"))?,
        };
        let spec = fleet_spec(args)?;
        let pool = args.flag_or("pool", 128usize)?;
        eprintln!(
            "fleet vs corpus entry {} ({}, {})",
            entry.bug.id,
            entry.bug.operator_label(),
            entry.bug.primary().trigger
        );
        let report = cbi::telemetry::time("phase.fleet", || {
            cbi_fleet::run_corpus_fleet(entry, pool, &spec)
        })
        .map_err(|e| e.to_string())?;
        Ok((report, true))
    } else {
        let program = cbi::telemetry::time("phase.parse", || load_program(args, 1))?;
        let inputs_path = args
            .positional(2)
            .ok_or_else(|| "missing inputs file (the community's input pool)".to_string())?;
        let raw = fs::read_to_string(inputs_path)
            .map_err(|e| format!("cannot read {inputs_path}: {e}"))?;
        let pool: Vec<Vec<i64>> = raw
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(parse_input)
            .collect::<Result<_, _>>()?;
        let spec = fleet_spec(args)?;
        let target = match args.flag("target") {
            Some(needle) => {
                let sites = instrument(&program, spec.scheme)
                    .map_err(|e| e.to_string())?
                    .sites;
                let c = (0..sites.total_counters())
                    .find(|&c| sites.predicate_name(c).contains(needle))
                    .ok_or_else(|| format!("no predicate matching `{needle}`"))?;
                eprintln!("target: {}", sites.predicate_name(c));
                Some(c)
            }
            None => None,
        };
        let tracked = target.is_some();
        let report = cbi::telemetry::time("phase.fleet", || {
            cbi_fleet::run_fleet(&program, &pool, &spec, target)
        })
        .map_err(|e| e.to_string())?;
        Ok((report, tracked))
    }
}

/// Drives the fleet against a live `cbi serve` ingest server instead of
/// the in-memory channel fold.  The committed set — and therefore the
/// server's analysis — is coin-for-coin identical to the in-memory run
/// of the same spec.
fn socket_fleet(args: &Args, addr: &str) -> Result<(), String> {
    if args.flag("corpus").is_some() {
        return Err(
            "--serve drives a program fleet over a socket; --corpus is not supported".into(),
        );
    }
    let program = cbi::telemetry::time("phase.parse", || load_program(args, 1))?;
    let inputs_path = args
        .positional(2)
        .ok_or_else(|| "missing inputs file (the community's input pool)".to_string())?;
    let raw =
        fs::read_to_string(inputs_path).map_err(|e| format!("cannot read {inputs_path}: {e}"))?;
    let pool: Vec<Vec<i64>> = raw
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_input)
        .collect::<Result<_, _>>()?;
    let spec = fleet_spec(args)?;
    let ack_drop: f64 = args.flag_or("ack-drop", 0.0)?;
    if !(0.0..=1.0).contains(&ack_drop) {
        return Err(format!("--ack-drop must be in [0, 1], got {ack_drop}"));
    }
    let streams: usize = args.flag_or("streams", 8usize)?;
    if streams == 0 {
        return Err("--streams must be a positive integer (got 0)".to_string());
    }
    let options = cbi_fleet::SocketOptions { ack_drop, streams };
    let summary = cbi::telemetry::time("phase.fleet", || {
        cbi_fleet::run_fleet_over_socket(&program, &pool, &spec, addr, &options)
    })
    .map_err(|e| e.to_string())?;
    write_or_print(args, "summary-out", &summary.render(), "fleet summary")
}

fn cmd_fleet(args: &Args) -> Result<(), String> {
    let telemetry = TelemetryOpts::from_args(args);
    let recording = telemetry.begin();

    if let Some(addr) = args.flag("serve") {
        socket_fleet(args, addr)?;
        if recording {
            telemetry.finish()?;
        }
        return Ok(());
    }

    let (report, target_tracked) = fleet_report(args)?;

    if let Some(rank) = report.target_rank {
        eprintln!("target rank: {rank} (0-based, regression ordering)");
    }
    let summary = cbi_fleet::render_summary(&report.summary, &report.epochs);
    write_or_print(args, "summary-out", &summary, "fleet summary")?;

    // The deployment-metric exports ride along without the full monitor:
    // a default-config health pass supplies the detector gauges.
    if args.flag("prom-out").is_some() || args.flag("timeline-out").is_some() {
        let mut monitor = cbi::HealthMonitor::new(health_config(args)?, target_tracked);
        monitor.observe_all(&report.epochs);
        let registry = cbi::health_registry(&report.aggregator, &monitor);
        write_metric_exports(args, &registry)?;
    }

    if recording {
        telemetry.finish()?;
    }
    Ok(())
}

/// Builds a [`cbi::HealthConfig`] from the detector-threshold flags.
fn health_config(args: &Args) -> Result<cbi::HealthConfig, String> {
    let defaults = cbi::HealthConfig::default();
    let config = cbi::HealthConfig {
        warmup_epochs: args.flag_or("warmup", defaults.warmup_epochs)?,
        corruption_spike_pm: args.flag_or("corruption-pm", defaults.corruption_spike_pm)?,
        rejection_spike_pm: args.flag_or("rejection-pm", defaults.rejection_spike_pm)?,
        stale_surge_pm: args.flag_or("stale-pm", defaults.stale_surge_pm)?,
        stall_epochs: args.flag_or("stall-epochs", defaults.stall_epochs)?,
    };
    if config.stall_epochs == 0 {
        return Err("--stall-epochs must be a positive integer (got 0)".to_string());
    }
    Ok(config)
}

/// Writes the `--prom-out` / `--timeline-out` exports of a registry.
fn write_metric_exports(args: &Args, registry: &cbi::telemetry::Registry) -> Result<(), String> {
    if let Some(path) = args.flag("prom-out") {
        let mut buf = Vec::new();
        cbi::telemetry::export::write_prometheus(registry, &mut buf).map_err(|e| e.to_string())?;
        fs::write(path, buf).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("prometheus metrics written to {path}");
    }
    if let Some(path) = args.flag("timeline-out") {
        let mut buf = Vec::new();
        cbi::telemetry::export::write_timeline(registry, &mut buf).map_err(|e| e.to_string())?;
        fs::write(path, buf).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("epoch timeline written to {path}");
    }
    Ok(())
}

/// Replays a binary spool through a fresh [`cbi::EpochAggregator`]: the
/// stream's reports fold in spool order, and every `--batch-size`
/// reports are accounted as one clean batch (spools carry no channel
/// provenance, so the transport-side counters stay at their floor).
fn replay_spool(args: &Args, path: &str) -> Result<cbi::EpochAggregator, String> {
    use cbi::reports::{DecodeOutcome, Provenance};

    let program = load_program(args, 1)?;
    let inst = instrument(&program, scheme_of(args)?).map_err(|e| e.to_string())?;
    let layout = ReportLayout {
        counters: inst.sites.total_counters(),
        layout_hash: inst.sites.layout_hash(),
    };
    let epoch_len: u64 = args.flag_or("epoch-len", 256u64)?;
    if epoch_len == 0 {
        return Err("--epoch-len must be a positive integer (got 0)".to_string());
    }
    let batch_size: u64 = args.flag_or("batch-size", 16u64)?;
    if batch_size == 0 {
        return Err("--batch-size must be a positive integer (got 0)".to_string());
    }

    let file = fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut reader =
        wire::WireReader::new(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    reader
        .expect_layout(layout.layout_hash, layout.counters)
        .map_err(|e| format!("{path}: {e}"))?;

    let mut aggregator =
        cbi::EpochAggregator::new(inst.sites.clone(), epoch_len, TrainConfig::default(), None)
            .with_flight_capacity(args.flag_or("flight-cap", 64usize)?);
    aggregator.begin(layout).map_err(|e| e.to_string())?;

    // One group of frames: each run's id, label and end in `nonzero`,
    // the group's nonzero `(counter, value)` pairs run after run.
    let mut runs: Vec<(u64, Label, usize)> = Vec::new();
    let mut nonzero: Vec<(usize, u64)> = Vec::new();
    loop {
        runs.clear();
        nonzero.clear();
        let before = reader.bytes_read();
        while (runs.len() as u64) < batch_size {
            let frame = reader
                .read_nonzero(|i, value| nonzero.push((i, value)))
                .map_err(|e| format!("{path}: {e}"))?;
            match frame {
                Some((run_id, label)) => runs.push((run_id, label, nonzero.len())),
                None => break,
            }
        }
        if runs.is_empty() {
            break;
        }
        // Batch accounting lands before its reports, mirroring the live
        // ingest order (the server notes the delivery, then commits).
        aggregator.note_batch(
            &Provenance::new(0, 0),
            DecodeOutcome::Clean,
            reader.bytes_read() - before,
        );
        let mut start = 0;
        for &(run_id, label, end) in &runs {
            aggregator
                .accept_nonzero(run_id, label, nonzero[start..end].iter().copied())
                .map_err(|e| e.to_string())?;
            start = end;
        }
    }
    eprintln!(
        "{} reports ({} bytes) replayed from {path}",
        reader.reports_read(),
        reader.bytes_read()
    );
    aggregator.close();
    Ok(aggregator)
}

/// Replays a `cbi serve` journal (detected by the `CBIJ` magic) through
/// the server's own ordered fold, read-only: intact records fold with
/// their real per-envelope provenance (client id, attempt), so the
/// flight recorder and retry columns reflect what actually happened on
/// the wire — unlike a report spool, which carries none of that.
fn replay_journal(args: &Args, path: &str) -> Result<cbi::EpochAggregator, String> {
    let program = load_program(args, 1)?;
    let inst = instrument(&program, scheme_of(args)?).map_err(|e| e.to_string())?;
    let epoch_len: u64 = args.flag_or("epoch-len", 256u64)?;
    if epoch_len == 0 {
        return Err("--epoch-len must be a positive integer (got 0)".to_string());
    }
    let config = cbi_serve::ServeConfig {
        epoch_len,
        flight_capacity: args.flag_or("flight-cap", 64usize)?,
        ..cbi_serve::ServeConfig::default()
    };
    let outcome = cbi_serve::IngestCore::new(inst.sites, config)
        .map_err(|e| e.to_string())?
        .load_journal(path)
        .map_err(|e| format!("{path}: {e}"))?
        .finish()
        .map_err(|e| e.to_string())?;
    let s = &outcome.summary;
    eprintln!(
        "{} batches ({} reports, {} payload bytes) replayed from {path}{}{}",
        s.replayed,
        s.reports,
        s.bytes,
        if s.torn_tail {
            "; torn tail ignored"
        } else {
            ""
        },
        if s.journal_skipped_crc > 0 {
            "; crc-damaged records skipped"
        } else {
            ""
        },
    );
    Ok(outcome.aggregator)
}

fn cmd_monitor(args: &Args) -> Result<(), String> {
    let config = health_config(args)?;
    let (epochs, aggregator, target_tracked) = match args.flag("replay") {
        Some(path) => {
            let magic = {
                let mut head = [0u8; 4];
                let mut file =
                    fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
                std::io::Read::read_exact(&mut file, &mut head)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                head
            };
            let aggregator = if magic == cbi_serve::journal::JOURNAL_MAGIC {
                replay_journal(args, path)?
            } else {
                replay_spool(args, path)?
            };
            (aggregator.snapshots().to_vec(), aggregator, false)
        }
        None => {
            let (report, tracked) = fleet_report(args)?;
            (report.epochs, report.aggregator, tracked)
        }
    };

    let mut monitor = cbi::HealthMonitor::new(config, target_tracked);
    let events = monitor.observe_all(&epochs);
    let mut rendered = cbi::render_health(&monitor);
    // Any anomaly gets the black box: the last ingest events the server
    // saw, so the operator can inspect what led up to it.
    if !events.is_empty() {
        rendered.push_str(&aggregator.flight_recorder().render());
    }
    write_or_print(args, "health-out", &rendered, "health report")?;

    let registry = cbi::health_registry(&aggregator, &monitor);
    write_metric_exports(args, &registry)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str, contents: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("cbi-cli-test-{name}"));
        fs::write(&path, contents).expect("write temp file");
        path
    }

    const PROG: &str = "fn g() -> int { if (has_input() == 0) { return 0; } return read(); }\n\
         fn main() -> int { int v = g(); print(100 / v); return 0; }";

    fn dispatch_strs(parts: &[&str]) -> Result<(), String> {
        dispatch(parts.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn usage_documents_every_flag_the_commands_read() {
        let source = include_str!("commands.rs");
        let mut names = Vec::new();
        for call in ["flag(\"", "flag_or(\""] {
            for (at, _) in source.match_indices(call) {
                let rest = &source[at + call.len()..];
                names.push(&rest[..rest.find('"').unwrap()]);
            }
        }
        assert!(names.contains(&"backoff-base"), "the scan finds the flags");
        for name in names {
            assert!(
                USAGE.contains(&format!("--{name}")),
                "--{name} is read but missing from USAGE"
            );
        }
    }

    #[test]
    fn instrument_and_transform_commands_work() {
        let p = tmp("prog1.mc", PROG);
        dispatch_strs(&["instrument", p.to_str().unwrap(), "--scheme", "returns"]).unwrap();
        dispatch_strs(&["transform", p.to_str().unwrap(), "--scheme", "returns"]).unwrap();
        dispatch_strs(&[
            "transform",
            p.to_str().unwrap(),
            "--global-countdown",
            "--no-regions",
        ])
        .unwrap();
    }

    #[test]
    fn jobs_validation() {
        let p = tmp("prog-jobs.mc", PROG);
        let inputs = tmp("inputs-jobs.txt", "5\n4\n");
        let base = [
            "campaign",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--spool",
            "/dev/null",
        ];
        let with_jobs = |v: &str| {
            let mut a: Vec<&str> = base.to_vec();
            a.extend(["--jobs", v]);
            dispatch_strs(&a)
        };
        let err = with_jobs("0").unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        assert!(err.contains("positive"), "{err}");
        let err = with_jobs("abc").unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        let err = with_jobs("-2").unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        with_jobs("2").unwrap();
    }

    #[test]
    fn profile_rejects_unknown_analyze_mode() {
        let p = tmp("prog-prof.mc", PROG);
        let inputs = tmp("inputs-prof.txt", "5\n");
        let err = dispatch_strs(&[
            "profile",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--analyze",
            "bogus",
        ])
        .unwrap_err();
        assert!(err.contains("--analyze"), "{err}");
    }

    #[test]
    fn disasm_prints_a_listing_at_every_stage() {
        let p = tmp("prog-disasm.mc", PROG);
        dispatch_strs(&["disasm", p.to_str().unwrap()]).unwrap();
        dispatch_strs(&[
            "disasm",
            p.to_str().unwrap(),
            "--stage",
            "instrument",
            "--scheme",
            "returns",
        ])
        .unwrap();
        dispatch_strs(&["disasm", p.to_str().unwrap(), "--stage", "sample"]).unwrap();
        let err = dispatch_strs(&["disasm", p.to_str().unwrap(), "--stage", "bogus"]).unwrap_err();
        assert!(err.contains("--stage"), "{err}");
    }

    #[test]
    fn engine_flag_is_rejected_as_removed() {
        let p = tmp("prog-engine.mc", PROG);
        let inputs = tmp("inputs-engine.txt", "5\n4\n");
        let (p, inputs) = (p.to_str().unwrap(), inputs.to_str().unwrap());
        for argv in [
            &["run", p, "--engine", "slot"][..],
            &[
                "campaign",
                p,
                inputs,
                "--engine=bytecode",
                "--spool",
                "/dev/null",
            ],
        ] {
            let err = dispatch_strs(argv).unwrap_err();
            assert!(err.contains("--engine was removed"), "{err}");
        }
        assert!(!USAGE.contains("--engine"));
    }

    #[test]
    fn run_command_works() {
        let p = tmp("prog2.mc", PROG);
        dispatch_strs(&[
            "run",
            p.to_str().unwrap(),
            "--scheme",
            "returns",
            "--density",
            "1",
            "--input",
            "5",
        ])
        .unwrap();
    }

    #[test]
    fn campaign_and_analyze_round_trip() {
        let p = tmp("prog3.mc", PROG);
        let inputs = tmp("inputs3.txt", "5\n4\n\n3\n2\n1\n"); // all succeed
        let out = std::env::temp_dir().join("cbi-cli-test-reports3.cbr");
        dispatch_strs(&[
            "campaign",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--scheme",
            "returns",
            "--density",
            "1",
            "--jobs",
            "3",
            "--spool",
            out.to_str().unwrap(),
        ])
        .unwrap();
        dispatch_strs(&[
            "analyze",
            out.to_str().unwrap(),
            p.to_str().unwrap(),
            "--scheme",
            "returns",
        ])
        .unwrap();
    }

    #[test]
    fn errors_are_reported() {
        assert!(dispatch_strs(&[]).is_err());
        assert!(dispatch_strs(&["bogus"]).is_err());
        assert!(dispatch_strs(&["run", "/nonexistent.mc"]).is_err());
        let p = tmp("prog4.mc", PROG);
        assert!(dispatch_strs(&["run", p.to_str().unwrap(), "--scheme", "bogus"]).is_err());
        assert!(dispatch_strs(&["run", p.to_str().unwrap(), "--density", "x"]).is_err());
    }

    #[test]
    fn campaign_spools_binary_reports_that_analyze_reads() {
        let p = tmp("prog6.mc", PROG);
        let inputs = tmp("inputs6.txt", "5\n4\n\n3\n2\n1\n");
        let spool = std::env::temp_dir().join("cbi-cli-test-reports6.cbr");
        dispatch_strs(&[
            "campaign",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--scheme",
            "returns",
            "--density",
            "1",
            "--spool",
            spool.to_str().unwrap(),
        ])
        .unwrap();
        // The spool is the binary wire stream (magic-prefixed).
        let binary = fs::read(&spool).unwrap();
        assert_eq!(&binary[..4], b"CBIR");
        // `analyze` accepts the spool directly.
        dispatch_strs(&[
            "analyze",
            spool.to_str().unwrap(),
            p.to_str().unwrap(),
            "--scheme",
            "returns",
        ])
        .unwrap();
        // ... and rejects it against a different instrumentation scheme
        // with a layout diagnostic.
        let err = dispatch_strs(&[
            "analyze",
            spool.to_str().unwrap(),
            p.to_str().unwrap(),
            "--scheme",
            "branches",
        ])
        .unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }

    /// A one-counter spool, as `--spool` writes it.
    fn one_counter_spool(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("cbi-cli-test-{name}"));
        let report = Report::new(0, Label::Success, vec![0]);
        fs::write(&path, wire::encode_reports(&[report], 0, 1).unwrap()).unwrap();
        path
    }

    #[test]
    fn transmit_takes_only_a_spool() {
        let jsonl = tmp(
            "reports7.jsonl",
            "{\"run_id\":0,\"label\":\"Success\",\"counters\":[0]}\n",
        );
        let err = dispatch_strs(&["transmit", jsonl.to_str().unwrap(), "--to", "127.0.0.1:1"])
            .unwrap_err();
        assert!(err.contains("binary report spool"), "{err}");
        let spool = one_counter_spool("reports7.cbr");
        let err = dispatch_strs(&[
            "transmit",
            spool.to_str().unwrap(),
            "--to",
            "127.0.0.1:1",
            "prog.mc",
        ])
        .unwrap_err();
        assert!(err.contains("one spool file"), "{err}");
    }

    #[test]
    fn analyze_refuses_a_non_spool_file() {
        let p = tmp("prog-jsonl.mc", PROG);
        let jsonl = tmp(
            "reports-jsonl.jsonl",
            "{\"run_id\":0,\"label\":\"Success\",\"counters\":[0]}\n",
        );
        let err =
            dispatch_strs(&["analyze", jsonl.to_str().unwrap(), p.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("binary report spool"), "{err}");
    }

    #[test]
    fn campaign_out_is_refused() {
        let p = tmp("prog-out.mc", PROG);
        let inputs = tmp("inputs-out.txt", "5\n4\n");
        let err = dispatch_strs(&[
            "campaign",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--out",
            "reports.jsonl",
        ])
        .unwrap_err();
        assert!(err.contains("--spool"), "{err}");
        assert!(!USAGE.contains("reports.jsonl"));
    }

    #[test]
    fn serve_validates_flags_before_binding() {
        let p = tmp("prog8.mc", PROG);
        let err = dispatch_strs(&["serve", p.to_str().unwrap(), "--mode", "bogus"]).unwrap_err();
        assert!(err.contains("--mode"), "{err}");
    }

    #[test]
    fn max_conns_flag_is_rejected_as_removed() {
        let p = tmp("prog-max-conns.mc", PROG);
        for n in ["0", "5"] {
            let err = dispatch_strs(&["serve", p.to_str().unwrap(), "--max-conns", n]).unwrap_err();
            assert_eq!(err, "--max-conns was removed: use --max-clients");
        }
        assert!(!USAGE.contains("--max-conns"));
    }

    #[test]
    fn serve_validates_sharding_and_journal_flags_before_binding() {
        let p = tmp("prog-serve-flags.mc", PROG);
        let prog = p.to_str().unwrap();
        let err = dispatch_strs(&["serve", prog, "--shards", "0"]).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err = dispatch_strs(&["serve", prog, "--queue-cap", "0"]).unwrap_err();
        assert!(err.contains("--queue-cap"), "{err}");
        let err = dispatch_strs(&["serve", prog, "--max-clients", "0"]).unwrap_err();
        assert!(err.contains("--max-clients"), "{err}");
        let err = dispatch_strs(&["serve", prog, "--epoch-len", "0"]).unwrap_err();
        assert!(err.contains("--epoch-len"), "{err}");
        let err = dispatch_strs(&["serve", prog, "--fsync", "sometimes"]).unwrap_err();
        assert!(err.contains("--fsync"), "{err}");
        let err = dispatch_strs(&["serve", prog, "--journal", "/tmp/j", "--resume", "/tmp/j"])
            .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn fleet_serve_rejects_bad_arguments() {
        let p = tmp("prog-fleet-serve.mc", PROG);
        let inputs = tmp("inputs-fleet-serve.txt", "5\n");
        let err =
            dispatch_strs(&["fleet", "--corpus", "/tmp/x", "--serve", "127.0.0.1:1"]).unwrap_err();
        assert!(err.contains("--corpus"), "{err}");
        let base = [
            "fleet",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--serve",
            "127.0.0.1:1",
        ];
        let with = |extra: &[&str]| {
            let mut a: Vec<&str> = base.to_vec();
            a.extend_from_slice(extra);
            dispatch_strs(&a)
        };
        let err = with(&["--ack-drop", "1.5"]).unwrap_err();
        assert!(err.contains("--ack-drop"), "{err}");
        let err = with(&["--streams", "0"]).unwrap_err();
        assert!(err.contains("--streams"), "{err}");
    }

    #[test]
    fn monitor_replays_a_serve_journal() {
        let p = tmp("prog-mon-journal.mc", PROG);
        let program = parse(PROG).unwrap();
        resolve(&program).unwrap();
        let inst = instrument(&program, Scheme::Returns).unwrap();
        let hash = inst.sites.layout_hash();
        let n = inst.sites.total_counters();
        let journal = std::env::temp_dir().join("cbi-cli-test-mon-journal.cbij");
        let mut j =
            cbi_serve::Journal::create(&journal, hash, cbi_serve::FsyncPolicy::Never).unwrap();
        for run in 0..4u64 {
            let label = if run == 3 {
                Label::Failure
            } else {
                Label::Success
            };
            let report = Report::new(run, label, vec![1; n]);
            let payload = wire::encode_reports(&[report], hash, n).unwrap();
            j.append(&cbi::reports::BatchEnvelope::new(run % 2, run, 1, payload))
                .unwrap();
        }
        drop(j);
        let health = std::env::temp_dir().join("cbi-cli-test-mon-journal-health.txt");
        dispatch_strs(&[
            "monitor",
            "--replay",
            journal.to_str().unwrap(),
            p.to_str().unwrap(),
            "--scheme",
            "returns",
            "--epoch-len",
            "2",
            "--health-out",
            health.to_str().unwrap(),
        ])
        .unwrap();
        let text = fs::read_to_string(&health).unwrap();
        assert!(text.contains("epoch"), "{text}");
        // A journal from a different instrumented binary is rejected at
        // the layout handshake, like a spool.
        let err = dispatch_strs(&[
            "monitor",
            "--replay",
            journal.to_str().unwrap(),
            p.to_str().unwrap(),
            "--scheme",
            "branches",
        ])
        .unwrap_err();
        assert!(err.contains("layout"), "{err}");
        fs::remove_file(&journal).ok();
        fs::remove_file(&health).ok();
    }

    #[test]
    fn corpus_generate_and_evaluate_round_trip() {
        let dir = std::env::temp_dir().join("cbi-cli-test-corpus");
        let _ = fs::remove_dir_all(&dir);
        dispatch_strs(&[
            "corpus",
            "generate",
            dir.to_str().unwrap(),
            "--size",
            "3",
            "--seed",
            "9",
            "--trials",
            "16",
        ])
        .unwrap();
        assert!(dir.join("manifest.jsonl").exists());
        let summary = dir.join("summary.txt");
        dispatch_strs(&[
            "corpus",
            "evaluate",
            dir.to_str().unwrap(),
            "--densities",
            "1",
            "--summary-out",
            summary.to_str().unwrap(),
            "--out",
            dir.join("report.txt").to_str().unwrap(),
        ])
        .unwrap();
        let text = fs::read_to_string(&summary).unwrap();
        assert!(text.contains("corpus summary"), "{text}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corpus_rejects_bad_arguments() {
        assert!(dispatch_strs(&["corpus"]).is_err());
        assert!(dispatch_strs(&["corpus", "bogus"]).is_err());
        assert!(dispatch_strs(&["corpus", "generate"]).is_err());
        let err =
            dispatch_strs(&["corpus", "evaluate", "/tmp/x", "--densities", "1,0"]).unwrap_err();
        assert!(err.contains("density"), "{err}");
    }

    #[test]
    fn removed_corpus_spellings_name_the_one_command() {
        for argv in [
            &["isolate", "--corpus", "/tmp/x"][..],
            &["isolate", "--corpus", "/tmp/x", "--scorers", "ochiai"],
            &["corpus", "evaluate", "/tmp/x", "--scorer", "ochiai"],
        ] {
            let err = dispatch_strs(argv).unwrap_err();
            assert!(
                err.contains("cbi corpus evaluate DIR --scorers"),
                "{argv:?}: {err}"
            );
        }
        assert!(!USAGE.contains("isolate    --corpus"));
        // `--scorer` still picks the program-mode isolation scorer.
        let p = tmp("prog-isolate.mc", PROG);
        let inputs = tmp("inputs-isolate.txt", "5\n4\n9\n2\n");
        dispatch_strs(&[
            "isolate",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--scorer",
            "tarantula",
        ])
        .unwrap();
    }

    #[test]
    fn corpus_with_an_out_of_range_true_counter_is_refused() {
        let dir = std::env::temp_dir().join("cbi-cli-test-corpus-range");
        let _ = fs::remove_dir_all(&dir);
        let d = dir.to_str().unwrap();
        dispatch_strs(&["corpus", "generate", d, "--size", "2", "--trials", "16"]).unwrap();
        let manifest = dir.join("manifest.jsonl");
        let text = fs::read_to_string(&manifest).unwrap();
        let (first, rest) = text.split_once('\n').unwrap();
        let at = first.find("\"true_counter\":").unwrap() + "\"true_counter\":".len();
        let digits = first[at..].find(',').unwrap();
        let edited = format!("{}99999{}\n{rest}", &first[..at], &first[at + digits..]);
        fs::write(&manifest, edited).unwrap();
        let err = dispatch_strs(&["corpus", "evaluate", d, "--densities", "1"]).unwrap_err();
        assert!(err.contains("manifest line 1"), "{err}");
        assert!(err.contains("true_counter 99999 is out of range"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fleet_runs_and_writes_a_summary() {
        let p = tmp("prog-fleet.mc", PROG);
        let inputs = tmp("inputs-fleet.txt", "5\n4\n9\n2\n7\n");
        let summary = std::env::temp_dir().join("cbi-cli-test-fleet-summary.txt");
        dispatch_strs(&[
            "fleet",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--clients",
            "6",
            "--runs",
            "200",
            "--batch-size",
            "8",
            "--epoch-len",
            "50",
            "--densities",
            "5:2,20:1",
            "--drop",
            "0.1",
            "--stale-fraction",
            "0.1",
            "--jobs",
            "2",
            "--summary-out",
            summary.to_str().unwrap(),
        ])
        .unwrap();
        let text = fs::read_to_string(&summary).unwrap();
        assert!(text.contains("fleet: 6 clients"), "{text}");
        assert!(text.contains("epoch"), "{text}");
        fs::remove_file(&summary).ok();
    }

    #[test]
    fn fleet_rejects_bad_arguments() {
        let p = tmp("prog-fleet-bad.mc", PROG);
        let inputs = tmp("inputs-fleet-bad.txt", "5\n");
        let base = ["fleet", p.to_str().unwrap(), inputs.to_str().unwrap()];
        let with = |extra: &[&str]| {
            let mut a: Vec<&str> = base.to_vec();
            a.extend_from_slice(extra);
            dispatch_strs(&a)
        };
        let err = with(&["--densities", "0:1"]).unwrap_err();
        assert!(err.contains("density"), "{err}");
        let err = with(&["--densities", "100:nope"]).unwrap_err();
        assert!(err.contains("weight"), "{err}");
        let err = with(&["--drop", "1.5"]).unwrap_err();
        assert!(err.contains("--drop"), "{err}");
        let err = with(&["--target", "no_such_predicate"]).unwrap_err();
        assert!(err.contains("no predicate"), "{err}");
        let err = dispatch_strs(&["fleet", p.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("inputs"), "{err}");
    }

    #[test]
    fn monitor_renders_health_and_writes_exports() {
        let p = tmp("prog-mon.mc", PROG);
        let inputs = tmp("inputs-mon.txt", "5\n4\n9\n2\n7\n");
        let dir = std::env::temp_dir();
        let health = dir.join("cbi-cli-test-mon-health.txt");
        let prom = dir.join("cbi-cli-test-mon.prom");
        let timeline = dir.join("cbi-cli-test-mon-timeline.jsonl");
        dispatch_strs(&[
            "monitor",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--clients",
            "6",
            "--runs",
            "200",
            "--batch-size",
            "8",
            "--epoch-len",
            "50",
            "--bit-flip",
            "0.2",
            "--stale-fraction",
            "0.2",
            "--jobs",
            "2",
            "--health-out",
            health.to_str().unwrap(),
            "--prom-out",
            prom.to_str().unwrap(),
            "--timeline-out",
            timeline.to_str().unwrap(),
        ])
        .unwrap();
        let text = fs::read_to_string(&health).unwrap();
        assert!(text.contains("epoch"), "{text}");
        assert!(!text.contains('.'), "health table is integer-only:\n{text}");
        let prom_text = fs::read_to_string(&prom).unwrap();
        assert!(
            prom_text.contains("# TYPE cbi_runs_total counter"),
            "{prom_text}"
        );
        let tl = fs::read_to_string(&timeline).unwrap();
        assert!(tl.lines().all(|l| l.starts_with("{\"epoch\":")), "{tl}");
        for f in [&health, &prom, &timeline] {
            fs::remove_file(f).ok();
        }
    }

    #[test]
    fn monitor_replays_a_spool() {
        let p = tmp("prog-mon-replay.mc", PROG);
        let inputs = tmp("inputs-mon-replay.txt", "5\n4\n\n3\n2\n1\n");
        let spool = std::env::temp_dir().join("cbi-cli-test-mon-replay.cbr");
        dispatch_strs(&[
            "campaign",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--scheme",
            "returns",
            "--density",
            "1",
            "--spool",
            spool.to_str().unwrap(),
        ])
        .unwrap();
        let health = std::env::temp_dir().join("cbi-cli-test-mon-replay-health.txt");
        dispatch_strs(&[
            "monitor",
            "--replay",
            spool.to_str().unwrap(),
            p.to_str().unwrap(),
            "--scheme",
            "returns",
            "--epoch-len",
            "2",
            "--batch-size",
            "2",
            "--health-out",
            health.to_str().unwrap(),
        ])
        .unwrap();
        let text = fs::read_to_string(&health).unwrap();
        assert!(text.contains("epoch"), "{text}");
        // A mismatched scheme is rejected at the layout handshake.
        let err = dispatch_strs(&[
            "monitor",
            "--replay",
            spool.to_str().unwrap(),
            p.to_str().unwrap(),
            "--scheme",
            "branches",
        ])
        .unwrap_err();
        assert!(err.contains("layout"), "{err}");
        fs::remove_file(&spool).ok();
        fs::remove_file(&health).ok();
    }

    /// The health table, Prometheus text and timeline of a replayed
    /// spool, pinned byte for byte.
    #[test]
    fn monitor_replay_of_a_spool_is_pinned() {
        let p = tmp("prog-mon-pin.mc", PROG);
        let inputs: String = (0..60)
            .map(|i| format!("{}\n", if i % 7 == 3 { 0 } else { i % 9 + 1 }))
            .collect();
        let inputs = tmp("inputs-mon-pin.txt", &inputs);
        let out = |name: &str| std::env::temp_dir().join(format!("cbi-cli-test-mon-pin-{name}"));
        let spool = out("spool.cbr");
        let [health, prom, timeline] = ["health", "prom", "timeline"].map(out);
        dispatch_strs(&[
            "campaign",
            p.to_str().unwrap(),
            inputs.to_str().unwrap(),
            "--scheme",
            "returns",
            "--density",
            "1",
            "--spool",
            spool.to_str().unwrap(),
        ])
        .unwrap();
        dispatch_strs(&[
            "monitor",
            "--replay",
            spool.to_str().unwrap(),
            p.to_str().unwrap(),
            "--scheme",
            "returns",
            "--epoch-len",
            "8",
            "--batch-size",
            "3",
            "--health-out",
            health.to_str().unwrap(),
            "--prom-out",
            prom.to_str().unwrap(),
            "--timeline-out",
            timeline.to_str().unwrap(),
        ])
        .unwrap();
        for (path, golden) in [
            (
                &health,
                include_str!("../../../tests/golden/monitor_replay/health.txt"),
            ),
            (
                &prom,
                include_str!("../../../tests/golden/monitor_replay/prom.txt"),
            ),
            (
                &timeline,
                include_str!("../../../tests/golden/monitor_replay/timeline.jsonl"),
            ),
        ] {
            assert_eq!(fs::read_to_string(path).unwrap(), golden, "{path:?}");
            fs::remove_file(path).ok();
        }
        fs::remove_file(&spool).ok();
    }

    #[test]
    fn monitor_rejects_bad_arguments() {
        let p = tmp("prog-mon-bad.mc", PROG);
        let inputs = tmp("inputs-mon-bad.txt", "5\n");
        let base = ["monitor", p.to_str().unwrap(), inputs.to_str().unwrap()];
        let with = |extra: &[&str]| {
            let mut a: Vec<&str> = base.to_vec();
            a.extend_from_slice(extra);
            dispatch_strs(&a)
        };
        let err = with(&["--stall-epochs", "0"]).unwrap_err();
        assert!(err.contains("--stall-epochs"), "{err}");
        let err = with(&["--warmup", "x"]).unwrap_err();
        assert!(err.contains("--warmup"), "{err}");
    }

    #[test]
    fn analyze_rejects_layout_mismatch() {
        let p = tmp("prog5.mc", PROG);
        let reports = one_counter_spool("reports5.cbr");
        let err = dispatch_strs(&[
            "analyze",
            reports.to_str().unwrap(),
            p.to_str().unwrap(),
            "--scheme",
            "returns",
        ])
        .unwrap_err();
        assert!(err.contains("mismatch"), "{err}");
    }
}
