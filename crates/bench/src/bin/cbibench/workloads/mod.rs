//! The six workloads and the pieces they share: the build pipeline,
//! a journaled 2-shard server, and the diagnosis chain that turns the
//! server's fold into ranked predicates.

pub mod build_farm;
pub mod exec;
pub mod ingest;
pub mod looped;
pub mod staged;

use crate::env::TempDir;
use crate::harness::Res;
use crate::spec::THREADS;
use crate::trace::Tracer;
use cbi::instrument::{
    apply_sampling, instrument, Instrumented, Scheme, SiteTable, TransformOptions, TransformStats,
};
use cbi::minic::{lower, parse, resolve, Program};
use cbi::reports::{Report, ReportLayout, ReportSink, SinkError};
use cbi::vm::bytecode::{compile, BcProgram};
use cbi_scoring::{all_scorers, isolate, rank_tables, scorer_by_name, FailureIndex, IsolationRun};
use cbi_serve::{
    render_analysis, FsyncPolicy, IngestCore, ServeConfig, ServeOutcome, ServerOptions,
    TcpIngestServer,
};
use std::net::SocketAddr;
use std::thread::JoinHandle;

/// Predicates `render_analysis` lists.
pub const TOP: usize = 10;

/// Reports per batch on every workload that batches.
pub const BATCH: usize = 16;

/// One program taken from source to bytecode.
pub struct Built {
    pub instrumented: Instrumented,
    /// The sampling transformation's statistics.
    pub stats: TransformStats,
    /// The sampled program (fast/slow paths), before lowering.
    pub sampled: Program,
    pub bytecode: BcProgram,
}

/// `parse → resolve → instrument → apply_sampling → lower → compile`,
/// each call in its own span.
pub fn build(source: &str, scheme: Scheme, t: &mut Tracer) -> Res<Built> {
    let program = t.span("minic.parse", |_| parse(source))?;
    t.span("minic.resolve", |_| resolve(&program))?;
    let instrumented = t.span("instrument.instrument", |_| instrument(&program, scheme))?;
    let (sampled, stats) = t.span("instrument.sampling", |_| {
        apply_sampling(&instrumented.program, &TransformOptions::default())
    })?;
    let slots = t.span("minic.lower", |_| lower(&sampled));
    let bytecode = t.span("bytecode.compile", |_| compile(&slots));
    Ok(Built {
        instrumented,
        stats,
        sampled,
        bytecode,
    })
}

/// Site `(counter_base, arity)` groups, as the scorers expect them.
pub fn site_groups(sites: &SiteTable) -> Vec<(usize, usize)> {
    sites
        .iter()
        .map(|s| (s.counter_base, s.kind.arity()))
        .collect()
}

pub fn layout_of(sites: &SiteTable) -> ReportLayout {
    ReportLayout {
        counters: sites.total_counters(),
        layout_hash: sites.layout_hash(),
    }
}

/// A sink that counts reports and folds their bytes into one FNV-1a
/// hash, so two report streams compare without being kept.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct HashSink {
    pub reports: u64,
    pub hash: u64,
}

impl ReportSink for HashSink {
    fn begin(&mut self, _layout: ReportLayout) -> Result<(), SinkError> {
        *self = HashSink {
            reports: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        };
        Ok(())
    }

    fn accept(&mut self, report: Report) -> Result<(), SinkError> {
        self.reports += 1;
        let label = report.label as u64;
        for word in [report.run_id, label].iter().chain(&report.counters) {
            self.hash = fnv1a(self.hash, &word.to_le_bytes());
        }
        Ok(())
    }
}

pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A live ingest server on a loopback port: [`THREADS`] shards and
/// acceptors, journaled into `tmp`.
pub struct Server {
    pub addr: SocketAddr,
    thread: JoinHandle<Result<ServeOutcome, cbi_serve::ServeError>>,
}

pub struct ServerSpec<'a> {
    pub sites: &'a SiteTable,
    pub shards: usize,
    pub epoch_len: u64,
    pub keep_reports: bool,
    pub fsync: FsyncPolicy,
    /// Connections the server serves before it shuts down and folds.
    pub connections: usize,
}

impl ServerSpec<'_> {
    pub fn config(&self) -> ServeConfig {
        ServeConfig {
            shards: self.shards,
            queue_cap: 1024,
            epoch_len: self.epoch_len,
            keep_reports: self.keep_reports,
            ..ServeConfig::default()
        }
    }

    pub fn core(&self) -> Res<IngestCore> {
        Ok(IngestCore::new(self.sites.clone(), self.config())?)
    }
}

pub const JOURNAL: &str = "ingest.cbij";

impl Server {
    pub fn start(spec: &ServerSpec<'_>, tmp: &TempDir) -> Res<Server> {
        let core = spec.core()?.with_journal(tmp.file(JOURNAL), spec.fsync)?;
        let server = TcpIngestServer::bind(
            core,
            "127.0.0.1:0",
            ServerOptions {
                acceptors: THREADS.min(spec.connections),
                max_clients: spec.connections as u64,
            },
        )?;
        let addr = server.local_addr()?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Server { addr, thread })
    }

    /// Waits for the last connection to close, then for the ordered
    /// fold that produces the authoritative analysis.
    pub fn join(self) -> Res<ServeOutcome> {
        Ok(self.thread.join().map_err(|_| "server thread panicked")??)
    }
}

/// What the analyst sees once the fold is done.
pub struct Diagnosis {
    pub render: String,
    pub run: IsolationRun,
}

impl Diagnosis {
    /// Name of the predicate the first isolation step blamed.
    pub fn first_cluster(&self, sites: &SiteTable) -> Option<String> {
        self.run
            .steps
            .first()
            .map(|s| sites.predicate_name(s.cluster.counter))
    }
}

/// The serial chain from a folded outcome to a diagnosis:
/// `render_analysis` → `FailureIndex` → rank under all seven scorers →
/// `isolate` (ochiai).  Needs `keep_reports`.
pub fn diagnose(outcome: &ServeOutcome, t: &mut Tracer) -> Res<Diagnosis> {
    let sites = outcome.aggregator.sites();
    let groups = site_groups(sites);
    let render = t.span("core.render", |_| render_analysis(&outcome.aggregator, TOP));
    let collector = outcome
        .collector
        .as_ref()
        .ok_or("diagnosis needs the report archive (keep_reports)")?;
    let index = t.span("scoring.index", |_| -> Result<FailureIndex, SinkError> {
        let mut index = FailureIndex::new();
        index.begin(layout_of(sites))?;
        for report in collector.reports() {
            index.accept(report.clone())?;
        }
        Ok(index)
    })?;
    let tables = t.span("scoring.tables", |_| index.tables(&groups));
    t.span("scoring.rank", |_| {
        for scorer in all_scorers() {
            std::hint::black_box(rank_tables(scorer, &tables));
        }
    });
    let ochiai = scorer_by_name("ochiai").expect("ochiai is registered");
    let run = t.span("scoring.isolate_ochiai", |_| {
        isolate(&index, &groups, ochiai)
    });
    Ok(Diagnosis { render, run })
}

#[cfg(test)]
mod tests {
    use super::build_farm::BuildFarm;
    use super::ingest::Ingest;
    use super::looped::Loop;
    use crate::harness::Workload;
    use crate::spec::{workload, Kind};

    #[test]
    fn the_seed_alone_determines_the_generated_inputs() {
        let envelopes = |seed| {
            let sends = Ingest::generate(Kind::IngestNarrow, seed, 1)
                .unwrap()
                .sends();
            sends.iter().flat_map(|e| e.encode()).collect::<Vec<u8>>()
        };
        let (a, again, other) = (envelopes(7), envelopes(7), envelopes(8));
        assert!(a == again, "same seed, same envelopes, byte for byte");
        assert!(a != other, "another seed, other envelopes");

        let trials = |seed| {
            Loop::generate(Kind::LoopSparse, seed, 1)
                .unwrap()
                .trials(200)
                .unwrap()
        };
        assert_eq!(trials(7), trials(7));
        assert_ne!(trials(7), trials(8));

        let farm = workload("build-farm").unwrap();
        let order = |seed| BuildFarm::setup(farm, seed, 1).unwrap().order();
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
    }
}
