//! The benchmark's fixed vocabulary: workloads, metrics, bounds, and
//! the thread counts every workload uses.  `BENCHMARK.json` at the
//! repository root must agree with these tables (a unit test compares
//! the name lists).

/// Server shards, acceptors, client connections and fleet streams.
/// Fixed — not derived from `nproc` — so results compare across
/// machines.
pub const THREADS: usize = 2;

/// Worker threads that execute VM runs (campaign and fleet `jobs`) in
/// the measured repeats.  One, not two: on the two-vCPU sandbox a
/// repeat that saturates both vCPUs showed twice the run-to-run spread
/// of the same work on one (README, "Steadiness").  The traced pass
/// still times the campaign at one job and at two.
pub const JOBS: usize = 1;

/// Seconds one untraced run measures (after set-up and one warm-up
/// repeat); `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 12;

/// Fewest measured repeats a run reports, whatever `--seconds` says.
pub const MIN_REPEATS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LoopSparse,
    LoopDense,
    IngestNarrow,
    IngestWide,
    ExecOverhead,
    BuildFarm,
}

pub struct WorkloadDef {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        kind: Kind::LoopSparse,
        name: "loop-sparse",
        why: "whole loop at the paper's 1/100 density: VM + sampler + fleet dominate, so an ingest gain must not show here",
    },
    WorkloadDef {
        kind: Kind::LoopDense,
        name: "loop-dense",
        why: "same loop at density 1/1: every site takes the slow path, so a fast-path gain that costs the slow path shows",
    },
    WorkloadDef {
        kind: Kind::IngestNarrow,
        name: "ingest-narrow",
        why: "server-only closed-loop storm of 63-counter reports: per-batch costs (syscalls, dedup, journal framing, ack) dominate",
    },
    WorkloadDef {
        kind: Kind::IngestWide,
        name: "ingest-wide",
        why: "same storm with 1437-counter mostly-zero reports: per-counter and per-byte costs (varint decode, wide fold) dominate",
    },
    WorkloadDef {
        kind: Kind::ExecOverhead,
        name: "exec-overhead",
        why: "Table 2 in wall-clock: 13 analogues stripped, unconditional, 1/100 and 1/1000; VM + sampler only, no fleet or wire",
    },
    WorkloadDef {
        kind: Kind::BuildFarm,
        name: "build-farm",
        why: "parse to bytecode over 15 programs x 4 schemes with nothing executed: the cost of shipping instrumented builds",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before `check` calls it a regression; `None` for metrics that
    /// are tracked but never gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// Metrics every workload reports from the untraced run; the driver
/// gates each of them on each workload.
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("wall_s", "s", Better::Lower, 0.25),
    gated("peak_rss_mb", "MB", Better::Lower, 0.15),
    gated("code_ops", "count", Better::Lower, 0.10),
];

/// User-visible metrics that exist on some workloads only.  The
/// driver's contract wants every end-to-end metric on every workload,
/// so these are listed with the per-layer metrics in `BENCHMARK.json`;
/// `cbibench run` still prints them from the untraced run and
/// `cbibench check` still gates them with these bounds.
pub const SCOPED: &[MetricDef] = &[
    gated("reports_per_s", "1/s", Better::Higher, 0.10),
    gated("ack_p50_us", "us", Better::Lower, 0.15),
    gated("ack_p99_us", "us", Better::Lower, 0.25),
    gated("analysis_s", "s", Better::Lower, 0.15),
    gated("recover_s", "s", Better::Lower, 0.15),
    gated("bytes_per_report", "B/report", Better::Lower, 0.01),
    gated("base_s", "s", Better::Lower, 0.10),
    gated("always_s", "s", Better::Lower, 0.10),
    gated("sparse_s", "s", Better::Lower, 0.10),
];

/// Per-layer metrics from the traced run, named `<layer>.<metric>`.
pub const LAYERS: &[MetricDef] = &[
    lower("minic.parse_s", "s"),
    lower("minic.resolve_s", "s"),
    lower("minic.lower_s", "s"),
    lower("minic.src_bytes", "B"),
    lower("instrument.instrument_s", "s"),
    lower("instrument.sampling_s", "s"),
    lower("instrument.strip_s", "s"),
    lower("instrument.sites", "count"),
    lower("instrument.counters", "count"),
    lower("instrument.threshold_checks", "count"),
    lower("instrument.growth_pm", "permille"),
    lower("bytecode.compile_s", "s"),
    lower("bytecode.ops", "count"),
    lower("vm.run_s", "s"),
    higher("vm.runs", "count"),
    lower("vm.op_units", "count"),
    higher("vm.op_units_per_s", "1/s"),
    lower("vm.crashes", "count"),
    lower("vm.dropped", "count"),
    lower("sampler.draw_ns", "ns"),
    lower("sampler.overhead_always_pm", "permille"),
    lower("sampler.overhead_sparse_pm", "permille"),
    lower("sampler.overhead_sparse1k_pm", "permille"),
    higher("sampler.sparse_wins", "count"),
    lower("campaign.jobs1_s", "s"),
    lower("campaign.jobs2_s", "s"),
    higher("campaign.speedup_pm", "permille"),
    lower("reports.encode_s", "s"),
    lower("reports.decode_s", "s"),
    lower("reports.frame_s", "s"),
    lower("reports.bytes", "B"),
    higher("reports.reports", "count"),
    lower("reports.rejected", "count"),
    lower("fleet.memory_s", "s"),
    lower("fleet.socket_s", "s"),
    lower("fleet.over_campaign_pm", "permille"),
    higher("fleet.batches", "count"),
    lower("fleet.retries", "count"),
    lower("fleet.lost_batches", "count"),
    lower("fleet.ack_retransmits", "count"),
    lower("fleet.overload_retransmits", "count"),
    higher("fleet.short_dense_runs_per_s", "1/s"),
    higher("fleet.short_sparse_runs_per_s", "1/s"),
    lower("serve.submit_s", "s"),
    lower("serve.journal_append_s", "s"),
    lower("serve.journal_sync_s", "s"),
    lower("serve.fold_s", "s"),
    lower("serve.replay_s", "s"),
    lower("serve.resume_s", "s"),
    higher("serve.batches", "count"),
    lower("serve.duplicates", "count"),
    lower("serve.shed", "count"),
    lower("serve.journal_bytes", "B"),
    lower("serve.socket_over_core_pm", "permille"),
    higher("serve.shards1_reports_per_s", "1/s"),
    lower("serve.ack_max_us", "us"),
    lower("core.streaming_s", "s"),
    lower("core.epoch_s", "s"),
    lower("core.eliminate_s", "s"),
    lower("core.render_s", "s"),
    lower("stats.tables_s", "s"),
    lower("scoring.index_s", "s"),
    lower("scoring.tables_s", "s"),
    lower("scoring.rank_s", "s"),
    lower("scoring.isolate_ochiai_s", "s"),
    lower("scoring.isolate_increase_s", "s"),
    lower("scoring.isolate_importance_s", "s"),
    lower("scoring.iterations", "count"),
    lower("scoring.unexplained", "count"),
    lower("telemetry.on_overhead_pm", "permille"),
    lower("trace.overhead_pm", "permille"),
    higher("trace.spans", "count"),
];

/// `BENCHMARK.json`'s `per_layer` list: the layers, then the scoped
/// user-visible metrics.
pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    LAYERS.iter().chain(SCOPED)
}

/// Every metric the binary can report.
pub fn all_metrics() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().chain(per_layer())
}

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    all_metrics().find(|m| m.name == name)
}

/// The directory that holds the benchmark and nothing else.
pub const PATH: &str = "crates/bench/src/bin/cbibench";

/// What the driver runs, from the root of a checkout, before it
/// appends `--workload … --seed … --seconds … --trace …`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "crates/bench/src/bin/cbibench/Cargo.toml",
    "--",
    "measure",
];

/// `BENCHMARK.json`, generated from the tables above (`cbibench
/// manifest`), so the file and the binary cannot drift apart.
pub fn manifest() -> String {
    use crate::json::{obj, Value};
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|&s| Value::from(s)).collect());
    let metric_row = |m: &MetricDef, bounded: bool| {
        let better = match m.better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };
        let mut row = vec![
            ("name", Value::from(m.name)),
            ("unit", Value::from(m.unit)),
            ("better", Value::from(better)),
        ];
        if let Some(bound) = m.bound.filter(|_| bounded) {
            row.push(("bound", Value::from(bound)));
        }
        obj(row)
    };
    let sections = [
        ("command", strings(COMMAND)),
        ("paths", strings(&[PATH])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", Value::from(w.name)), ("why", Value::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(|m| metric_row(m, true)).collect()),
        ),
        (
            "per_layer",
            Value::Arr(per_layer().map(|m| metric_row(m, false)).collect()),
        ),
    ];
    // One top-level key per paragraph, one row per line.
    let mut out = String::from("{\n");
    for (i, (key, value)) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        match value {
            Value::Arr(rows) if matches!(rows.first(), Some(Value::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, row) in rows.iter().enumerate() {
                    let comma = if j + 1 < rows.len() { "," } else { "" };
                    out.push_str(&format!("    {row}{comma}\n"));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            value => out.push_str(&format!("  \"{key}\": {value}{comma}\n")),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&per_layer().count()));
        assert_eq!(LAYERS.len(), 72);
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in all_metrics() {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are gated");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(LAYERS.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert!(
            committed == manifest(),
            "BENCHMARK.json is stale: regenerate it with `cbibench manifest > BENCHMARK.json`"
        );
        let root = json::parse(committed).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = root
            .as_object()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
        for arg in COMMAND {
            assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        }
        let rows = |key: &str| {
            root.get(key)
                .and_then(Value::as_array)
                .expect("array")
                .len()
        };
        assert_eq!(rows("workloads"), WORKLOADS.len());
        assert_eq!(rows("end_to_end"), END_TO_END.len());
        assert_eq!(rows("per_layer"), per_layer().count());
    }
}
