//! `cbibench` — one seeded harness for the whole CBI loop.
//!
//! Six workloads, each measured from outside by timing calls into the
//! crates' public functions on the default production path (bytecode
//! engine, `LazyBank`, `TcpIngestServer`/`IngestCore`, `'B'`
//! envelopes).  See `README.md` beside this file for what each
//! workload is for and how the metrics relate.
//!
//! ```text
//! cbibench run   [--seed S] [--scale K] [--seconds N] [--out FILE]
//! cbibench trace [--seed S] [--scale K] [--trace-out FILE] [--out FILE]
//! cbibench check A.json B.json
//! cbibench measure --workload W --seed S --seconds N --trace 0|1
//! cbibench golden exec-overhead|build-farm
//! cbibench manifest
//! ```
//!
//! `run` and `trace` re-execute this binary once per workload
//! (`measure`), so peak memory, allocator and page-cache state are per
//! workload.  `measure` is also the form the benchmark driver calls: it
//! prints one JSON result object as its last line.

mod check;
mod env;
mod harness;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{Measured, Res};
use json::Value;
use spec::{WorkloadDef, RUN_SECONDS, WORKLOADS};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  cbibench run   [--seed S] [--scale K] [--seconds N] [--out FILE]
  cbibench trace [--seed S] [--scale K] [--trace-out FILE] [--out FILE]
  cbibench check A.json B.json
  cbibench measure --workload W --seed S --seconds N --trace 0|1 [--scale K] [--spans FILE]
  cbibench golden exec-overhead|build-farm
  cbibench manifest";

/// Marks the line on which `measure` prints everything it measured,
/// for the parent `run`/`trace` process.
const DETAIL: &str = "detail ";

const DEFAULT_SEED: u64 = 0xcb1;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = dispatch(&args);
    env::remove_tmp_root();
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("cbibench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Runs one subcommand; `Ok(false)` is a completed run whose verdict
/// is failure (a failed check, a regression).
fn dispatch(args: &[String]) -> Res<bool> {
    let Some((command, rest)) = args.split_first() else {
        return Err(USAGE.into());
    };
    match command.as_str() {
        "run" => fan_out(
            &Flags::parse(rest, &["seed", "scale", "seconds", "out"])?,
            false,
        ),
        "trace" => fan_out(
            &Flags::parse(rest, &["seed", "scale", "trace-out", "out"])?,
            true,
        ),
        "measure" => measure(&Flags::parse(
            rest,
            &["workload", "seed", "seconds", "trace", "scale", "spans"],
        )?),
        "check" => match rest {
            [a, b] => Ok(check::compare(&load(a)?, &load(b)?)?),
            _ => Err(USAGE.into()),
        },
        "manifest" => {
            print!("{}", spec::manifest());
            Ok(true)
        }
        "golden" => match rest.first().map(String::as_str) {
            Some("exec-overhead") => workloads::exec::print_golden().map(|()| true),
            Some("build-farm") => workloads::build_farm::print_golden().map(|()| true),
            _ => Err(USAGE.into()),
        },
        _ => Err(USAGE.into()),
    }
}

fn load(path: &str) -> Res<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
}

/// `--name value` pairs, each name allowed at most once.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String], allowed: &[&str]) -> Res<Flags> {
        let mut flags = BTreeMap::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let name = arg
                .strip_prefix("--")
                .filter(|n| allowed.contains(n))
                .ok_or_else(|| format!("unknown argument `{arg}`\n{USAGE}"))?;
            let value = args
                .next()
                .ok_or_else(|| format!("`{arg}` needs a value"))?;
            if flags.insert(name.to_string(), value.clone()).is_some() {
                return Err(format!("`{arg}` given twice").into());
            }
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    fn number(&self, name: &str, default: u64) -> Res<u64> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => Ok(text
                .parse()
                .map_err(|_| format!("--{name} must be a whole number, got `{text}`"))?),
        }
    }
}

/// The contract form: one workload, in this process, one JSON object
/// on the last line of standard output.
fn measure(flags: &Flags) -> Res<bool> {
    let name = flags.get("workload").ok_or("measure needs --workload")?;
    let def = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}` (expected one of {})",
            known.join(", ")
        )
    })?;
    let seed = flags.number("seed", DEFAULT_SEED)?;
    let scale = flags.number("scale", 1)?.max(1);
    let seconds = flags.number("seconds", RUN_SECONDS)?;
    let traced = match flags.number("trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}").into()),
    };
    let spans = flags.get("spans").map(Path::new);

    let measured = harness::measure(def, seed, scale, seconds, traced, spans)?;
    for failure in &measured.failures {
        eprintln!("[{}] {failure}", def.name);
    }
    println!("{DETAIL}{}", detail(&measured));
    println!("{}", contract(&measured, traced)?);
    // The verdict is in the result object; the exit code says only
    // that there is one.
    Ok(true)
}

/// Everything one `measure` saw, with quartiles and raw samples.
fn detail(measured: &Measured) -> Value {
    let metrics = measured.metrics.iter().map(|(name, summary)| {
        let unit = spec::metric(name).map_or("", |m| m.unit);
        (*name, summary.to_json(unit))
    });
    json::obj([
        ("correct", Value::from(measured.correct())),
        ("attempted", Value::from(measured.attempted)),
        ("failed", Value::from(measured.failed)),
        (
            "failures",
            Value::Arr(
                measured
                    .failures
                    .iter()
                    .map(|f| Value::from(f.as_str()))
                    .collect(),
            ),
        ),
        ("metrics", json::obj(metrics)),
    ])
}

/// The driver's result object: exactly the end-to-end metrics of an
/// untraced run, or exactly the per-layer metrics of a traced one, each
/// as its better quartile over the run's repeats.  A layer metric this
/// workload's trace does not exercise reads 0.
fn contract(measured: &Measured, traced: bool) -> Res<Value> {
    let mut metrics = Vec::new();
    let mut push = |def: &spec::MetricDef, value: f64| {
        let entry = json::obj([
            ("value", Value::from(value)),
            ("unit", Value::from(def.unit)),
        ]);
        metrics.push((def.name, entry));
    };
    if traced {
        for def in spec::per_layer() {
            let value = measured
                .metric(def.name)
                .map_or(0.0, |s| s.reported(def.better));
            push(def, value);
        }
    } else {
        for def in spec::END_TO_END {
            let summary = measured
                .metric(def.name)
                .ok_or_else(|| format!("end-to-end metric {} was not measured", def.name))?;
            push(def, summary.reported(def.better));
        }
    }
    Ok(json::obj([
        ("correct", Value::from(measured.correct())),
        ("attempted", Value::from(measured.attempted)),
        ("failed", Value::from(measured.failed)),
        ("metrics", json::obj(metrics)),
    ]))
}

/// `run` and `trace`: every workload in a child process of its own,
/// then one table and (optionally) one result file.
fn fan_out(flags: &Flags, traced: bool) -> Res<bool> {
    let seed = flags.number("seed", DEFAULT_SEED)?;
    let scale = flags.number("scale", 1)?.max(1);
    let seconds = flags.number("seconds", RUN_SECONDS)?;
    let spans = flags.get("trace-out");
    if let Some(path) = spans {
        std::fs::write(path, "")?; // children append
    }

    let exe = std::env::current_exe()?;
    let mut results = Vec::new();
    for def in WORKLOADS {
        eprintln!("== {}: {} ==", def.name, def.why);
        let mut child = Command::new(&exe);
        child
            .arg("measure")
            .args(["--workload", def.name])
            .args(["--seed", &seed.to_string()])
            .args(["--scale", &scale.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }]);
        if let Some(path) = spans {
            child.args(["--spans", path]);
        }
        let output = child.stdout(Stdio::piped()).spawn()?.wait_with_output()?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix(DETAIL))
            .ok_or_else(|| {
                format!(
                    "{}: child exited {} with no result",
                    def.name, output.status
                )
            })?;
        results.push((def, json::parse(line)?));
    }

    print_table(&results, traced);
    let correct = print_verdicts(&results);
    if let Some(path) = flags.get("out") {
        let file = json::obj([
            ("benchmark", Value::from("cbibench")),
            ("mode", Value::from(if traced { "trace" } else { "run" })),
            ("run_seconds", Value::from(seconds)),
            ("fingerprint", env::fingerprint(seed, scale)),
            (
                "workloads",
                json::obj(results.iter().map(|(def, v)| (def.name, v.clone()))),
            ),
        ]);
        std::fs::write(path, format!("{file}\n"))?;
        eprintln!("wrote {path}");
    }
    Ok(correct)
}

/// Metrics of one child result, in the order measured.
fn metrics_of(result: &Value) -> &[(String, Value)] {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap_or(&[])
}

fn print_table(results: &[(&WorkloadDef, Value)], traced: bool) {
    println!(
        "{:<14} {:<30} {:>16} {:>16} {:>16} {:>3}  unit",
        "workload", "metric", "median", "q1", "q3", "n"
    );
    for (def, result) in results {
        for (name, summary) in metrics_of(result) {
            // An untraced run reports layer counts too (they are exact
            // for a seed); the table keeps to the user-visible metrics.
            let user_visible = spec::END_TO_END
                .iter()
                .chain(spec::SCOPED)
                .any(|m| m.name == name);
            if !traced && !user_visible {
                continue;
            }
            let field = |key| summary.get(key).and_then(Value::as_f64).unwrap_or(0.0);
            println!(
                "{:<14} {:<30} {:>16.6} {:>16.6} {:>16.6} {:>3}  {}",
                def.name,
                name,
                field("median"),
                field("q1"),
                field("q3"),
                field("n"),
                summary.get("unit").and_then(Value::as_str).unwrap_or("")
            );
        }
    }
}

/// Prints one correctness line per workload; returns whether all hold.
fn print_verdicts(results: &[(&WorkloadDef, Value)]) -> bool {
    let mut all = true;
    for (def, result) in results {
        let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
        all &= correct;
        let count = |key| result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        println!(
            "{:<14} {}: {} operations and checks attempted, {} failed",
            def.name,
            if correct { "correct" } else { "INCORRECT" },
            count("attempted"),
            count("failed")
        );
        for failure in result
            .get("failures")
            .and_then(Value::as_array)
            .unwrap_or(&[])
        {
            println!("{:<14}   {}", "", failure.as_str().unwrap_or(""));
        }
    }
    all
}
