//! `loop-sparse` / `loop-dense`: the whole CBI loop.  A seeded fleet
//! runs the `ccrypt` analogue, ships its reports over real sockets
//! through a lossy channel to a journaled two-shard server, and the
//! server's fold is diagnosed down to a ranked culprit.

use super::exec::count_run;
use super::{
    build, diagnose, layout_of, staged, Built, Diagnosis, HashSink, Server, ServerSpec, BATCH, TOP,
};
use crate::env::TempDir;
use crate::harness::{Res, Sample, Workload};
use crate::spec::{Kind, WorkloadDef, JOBS, THREADS};
use crate::trace::Tracer;
use cbi::instrument::{Scheme, SiteTable};
use cbi::minic::Program;
use cbi::reports::{wire, BatchEnvelope, Collector, Label, Report};
use cbi::sampler::{LazyBank, Pcg32, SamplingDensity, Zipf};
use cbi::telemetry;
use cbi::vm::{RunOutcome, Vm};
use cbi::workloads::{
    ccrypt_trials, run_campaign_into, CampaignConfig, CcryptTrialConfig, CCRYPT_SOURCE,
};
use cbi_corpus::{generate_corpus, CorpusEntry, GenerateConfig};
use cbi_fleet::{
    run_corpus_fleet, run_fleet, run_fleet_over_socket, ChannelSpec, FleetSpec, FleetSummary,
    SocketOptions,
};
use cbi_serve::{render_analysis, FsyncPolicy};
use std::time::Instant;

/// Community runs in one repeat at `--scale 1`.
const RUNS: usize = 4_000;
const CLIENTS: usize = 128;
const POOL: usize = 512;
const ZIPF: f64 = 1.0;
const ACK_DROP: f64 = 0.05;

/// The staged pass executes this share of the runs on one thread.
const STAGED_SHARE: usize = 2;

/// The `ccrypt` analogue's ground truth: the crash is an unchecked
/// EOF from `xreadline()` inside `prompt_overwrite()`.
const CULPRIT: &str = "prompt_overwrite(): xreadline() == 0";

fn channel() -> ChannelSpec {
    ChannelSpec {
        drop: 0.05,
        truncate: 0.02,
        bit_flip: 0.01,
        max_retries: 3,
        backoff_base: 1,
    }
}

pub struct Loop {
    kind: Kind,
    program: Program,
    built: Built,
    pool: Vec<Vec<i64>>,
    spec: FleetSpec,
    /// The in-memory fold of the same spec — what the server must
    /// render, and the ledger it must match.  Computed by set-up.
    reference: Option<(String, FleetSummary)>,
}

impl Loop {
    fn sites(&self) -> &SiteTable {
        &self.built.instrumented.sites
    }

    fn density(&self) -> u64 {
        self.spec.densities[0].0
    }

    fn server_spec(&self) -> ServerSpec<'_> {
        ServerSpec {
            sites: self.sites(),
            shards: THREADS,
            epoch_len: self.spec.epoch_len,
            keep_reports: true,
            fsync: FsyncPolicy::EveryN(256),
            connections: self.spec.clients,
        }
    }

    /// A run list with the fleet's input popularity: `n` seeded Zipf
    /// draws from the pool.
    pub fn trials(&self, n: usize) -> Res<Vec<Vec<i64>>> {
        let zipf = Zipf::new(self.pool.len(), ZIPF).map_err(|e| e.to_string())?;
        let mut rng = Pcg32::with_stream(self.spec.seed, 0x7472_6961_6c73);
        Ok((0..n)
            .map(|_| self.pool[zipf.sample(&mut rng)].clone())
            .collect())
    }

    fn campaign(&self, jobs: usize) -> CampaignConfig {
        let mut config =
            CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(self.density()))
                .with_jobs(jobs);
        config.seed = self.spec.seed;
        config
    }

    /// The rerun of `BENCH_fleet.json`'s tiny corpus entry (µs-long
    /// runs) at one density; returns runs per second.
    fn short_fleet(
        &self,
        t: &mut Tracer,
        entry: &CorpusEntry,
        span: &'static str,
        density: u64,
    ) -> Res<f64> {
        let mut spec = FleetSpec::new(32, 8000);
        spec.densities = vec![(density, 1.0)];
        spec.zipf_exponent = ZIPF;
        spec.batch_size = BATCH;
        spec.epoch_len = 1000;
        spec.channel = channel();
        spec.seed = self.spec.seed;
        spec.jobs = JOBS;
        let report = t.span(span, |_| run_corpus_fleet(entry, 256, &spec))?;
        let summary = &report.summary;
        eprintln!(
            "short corpus entry at 1/{density}: {} counters, {:.1} B/report on the wire",
            summary.counters,
            summary.bytes_accepted as f64 / summary.accepted_reports.max(1) as f64
        );
        Ok(summary.runs as f64 / t.seconds(span))
    }
}

impl Loop {
    /// Everything the seed determines: the input pool and the fleet
    /// spec.  The reference fold is left empty.
    pub fn generate(kind: Kind, seed: u64, scale: u64) -> Res<Loop> {
        let built = build(CCRYPT_SOURCE, Scheme::Returns, &mut Tracer::off())?;
        let runs = RUNS * scale as usize;
        let mut spec = FleetSpec::new(CLIENTS, runs);
        spec.densities = vec![(if kind == Kind::LoopDense { 1 } else { 100 }, 1.0)];
        spec.zipf_exponent = ZIPF;
        spec.batch_size = BATCH;
        spec.epoch_len = (runs as u64 / 8).max(1);
        spec.channel = channel();
        spec.seed = seed;
        spec.jobs = JOBS;
        Ok(Loop {
            kind,
            program: cbi::minic::parse(CCRYPT_SOURCE)?,
            built,
            pool: ccrypt_trials(POOL, seed, &CcryptTrialConfig::default()),
            spec,
            reference: None,
        })
    }
}

impl Workload for Loop {
    fn setup(def: &WorkloadDef, seed: u64, scale: u64) -> Res<Self> {
        let mut workload = Loop::generate(def.kind, seed, scale)?;
        let memory = run_fleet(&workload.program, &workload.pool, &workload.spec, None)?;
        workload.reference = Some((render_analysis(&memory.aggregator, TOP), memory.summary));
        Ok(workload)
    }

    fn code_ops(&self) -> u64 {
        self.built.bytecode.ops.len() as u64
    }

    fn repeat(&self, t: &mut Tracer) -> Res<Sample> {
        let mut sample = Sample::default();
        let tmp = TempDir::create()?;
        let options = SocketOptions {
            ack_drop: ACK_DROP,
            streams: THREADS,
        };
        let started = Instant::now();
        let (socket, acked, outcome, diagnosis) = t.span("loop.repeat", |t| -> Res<_> {
            let server = t.span("serve.start", |_| Server::start(&self.server_spec(), &tmp))?;
            let socket = t.span("fleet.socket", |_| {
                run_fleet_over_socket(&self.program, &self.pool, &self.spec, server.addr, &options)
            })?;
            let acked = started.elapsed();
            let outcome = t.span("serve.join", |_| server.join())?;
            let diagnosis = diagnose(&outcome, t)?;
            Ok((socket, acked, outcome, diagnosis))
        })?;
        let wall = started.elapsed();
        let served = &outcome.summary;

        sample.set("wall_s", wall.as_secs_f64());
        sample.set("reports_per_s", served.reports as f64 / acked.as_secs_f64());
        sample.set("analysis_s", (wall - acked).as_secs_f64());
        sample.set(
            "bytes_per_report",
            socket.bytes_sent as f64 / served.reports.max(1) as f64,
        );
        sample.set("fleet.batches", socket.batches as f64);
        sample.set("fleet.retries", socket.retries as f64);
        sample.set("fleet.lost_batches", socket.lost_batches as f64);
        sample.set("fleet.ack_retransmits", socket.ack_retransmits as f64);
        sample.set(
            "fleet.overload_retransmits",
            socket.overload_retransmits as f64,
        );
        sample.set("serve.batches", served.batches as f64);
        sample.set("serve.duplicates", served.duplicates as f64);
        sample.set("serve.shed", served.shed as f64);
        sample.set("serve.journal_bytes", served.journal_bytes as f64);
        sample.set("scoring.iterations", diagnosis.run.iterations() as f64);
        sample.set(
            "scoring.unexplained",
            diagnosis.run.unexplained.len() as f64,
        );

        // A batch the fleet delivered must be committed exactly once.
        let miscommitted = socket.delivered_batches.abs_diff(served.batches)
            + socket.duplicate_acks.abs_diff(served.duplicates);
        sample.ops(
            socket.batches,
            miscommitted + socket.connection_lost_batches,
            "batches not committed exactly once",
        );
        self.check(&mut sample, &socket, &diagnosis);
        Ok(sample)
    }

    fn verify(&self) -> Res<Sample> {
        // Every check of this workload runs inside each repeat.
        Ok(Sample::default())
    }

    fn stages(&self, t: &mut Tracer, out: &mut Sample) -> Res<f64> {
        let tmp = TempDir::create()?;
        let staged_runs = (self.spec.runs / STAGED_SHARE).max(BATCH);
        let trials = t.span("bench.prepare", |_| self.trials(staged_runs))?;
        let density = SamplingDensity::one_in(self.density());
        let seed = self.spec.seed;

        let (reports, built, outcome, payloads) = t.span("staged.pipeline", |t| -> Res<_> {
            let built = build(CCRYPT_SOURCE, Scheme::Returns, t)?;
            let sites = &built.instrumented.sites;
            let layout = layout_of(sites);

            // Execute: one VM, one thread, one lazy bank reseeded per
            // run — a campaign worker's inner loop with no campaign.
            let mut collector = Collector::new(layout.counters);
            let mut bank = LazyBank::new(density, self.spec.bank_size, seed);
            for (i, input) in trials.iter().enumerate() {
                let result = t.span("vm.run", |_| {
                    bank.reseed(density, seed.wrapping_add(i as u64));
                    let mut vm = Vm::from_bytecode(&built.bytecode);
                    vm.with_sites(sites)
                        .with_input(&input[..])
                        .with_op_limit(self.spec.op_limit)
                        .with_heap_slack(self.spec.heap_slack)
                        .with_sampling_ref(&mut bank);
                    vm.run()
                })?;
                count_run(t, &result);
                let label = match result.outcome {
                    RunOutcome::Success(_) => Label::Success,
                    RunOutcome::OpLimit => continue,
                    _ => Label::Failure,
                };
                collector.add(Report::new(i as u64, label, result.counters))?;
            }
            staged::set_vm_counts(t, out);

            // Spool and frame: batches of 16 as the fleet's clients do.
            let payloads = t.span("reports.encode", |_| {
                collector
                    .reports()
                    .chunks(BATCH)
                    .map(|c| wire::encode_reports(c, layout.layout_hash, layout.counters))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            let envelopes: Vec<BatchEnvelope> = payloads
                .iter()
                .enumerate()
                .map(|(b, p)| BatchEnvelope::new((b % CLIENTS) as u64, b as u64, 0, p.clone()))
                .collect();
            staged::frame(t, &envelopes)?;

            let spec = ServerSpec {
                sites,
                epoch_len: (staged_runs as u64 / 8).max(1),
                ..self.server_spec()
            };
            let outcome = staged::server_side(t, &spec, &envelopes, &tmp)?;
            let reports = collector.len();
            Ok((reports, built, outcome, payloads))
        })?;

        t.span("staged.extras", |t| -> Res<()> {
            let sites = &built.instrumented.sites;
            let payloads: Vec<&[u8]> = payloads.iter().map(Vec::as_slice).collect();
            staged::analyses(t, out, sites, &payloads, &outcome)?;
            out.set("sampler.draw_ns", staged::sampler_draw_ns(t));

            // The campaign driver over the same run list, at one job
            // and at two, then at two with telemetry recording.
            let mut sinks = [
                HashSink::default(),
                HashSink::default(),
                HashSink::default(),
            ];
            t.span("campaign.jobs1", |_| {
                run_campaign_into(&self.program, &trials, &self.campaign(1), &mut sinks[0])
            })?;
            t.span("campaign.jobs2", |_| {
                run_campaign_into(&self.program, &trials, &self.campaign(2), &mut sinks[1])
            })?;
            telemetry::reset();
            telemetry::enable();
            let with_telemetry = t.span("telemetry.on", |_| {
                run_campaign_into(&self.program, &trials, &self.campaign(2), &mut sinks[2])
            });
            telemetry::disable();
            telemetry::reset();
            with_telemetry?;
            if sinks[0] != sinks[1] || sinks[1] != sinks[2] || sinks[0].reports != reports as u64 {
                return Err(
                    "campaign reports differ across jobs, telemetry, or the bare VM".into(),
                );
            }

            // The fleet in memory: production plus the channel fold,
            // no sockets and no server.
            t.span("fleet.memory", |_| {
                run_fleet(&self.program, &self.pool, &self.spec, None)
            })?;
            let corpus = t.span("bench.prepare", |_| {
                generate_corpus(&GenerateConfig {
                    size: 4,
                    seed: 7,
                    trials: 32,
                })
            })?;
            let entry = corpus
                .entries
                .iter()
                .find(|e| e.bug.deterministic())
                .or(corpus.entries.first())
                .ok_or("empty corpus")?;
            let dense = self.short_fleet(t, entry, "fleet.short_dense", 1)?;
            let sparse = self.short_fleet(t, entry, "fleet.short_sparse", 100)?;
            out.set("fleet.short_dense_runs_per_s", dense);
            out.set("fleet.short_sparse_runs_per_s", sparse);
            Ok(())
        })?;

        staged::set_seconds(
            t,
            out,
            &[
                "minic.parse_s",
                "minic.resolve_s",
                "minic.lower_s",
                "instrument.instrument_s",
                "instrument.sampling_s",
                "bytecode.compile_s",
                "vm.run_s",
                "campaign.jobs1_s",
                "campaign.jobs2_s",
                "fleet.memory_s",
                "fleet.socket_s",
            ],
        );
        staged::set_seconds(t, out, staged::SERVER_AND_ANALYSIS_SECONDS);
        let jobs1 = t.seconds("campaign.jobs1");
        let jobs2 = t.seconds("campaign.jobs2");
        out.set("campaign.speedup_pm", 1000.0 * jobs1 / jobs2);
        out.set(
            "telemetry.on_overhead_pm",
            1000.0 * t.seconds("telemetry.on") / jobs2,
        );
        // Per-run cost of the in-memory fleet over the campaign's, both
        // at one job (the fleet ran every run, the campaign a share).
        let per_run = |secs: f64, runs: usize| secs / runs as f64;
        out.set(
            "fleet.over_campaign_pm",
            1000.0 * per_run(t.seconds("fleet.memory"), self.spec.runs)
                / per_run(jobs1, staged_runs),
        );
        out.set("minic.src_bytes", CCRYPT_SOURCE.len() as f64);
        out.set("instrument.sites", self.sites().len() as f64);
        out.set("instrument.counters", self.sites().total_counters() as f64);
        out.set("bytecode.ops", self.code_ops() as f64);
        Ok(staged_runs as f64 / self.spec.runs as f64)
    }
}

impl Loop {
    fn check(&self, sample: &mut Sample, socket: &cbi_fleet::SocketFleetSummary, d: &Diagnosis) {
        let (reference, memory) = self
            .reference
            .as_ref()
            .expect("set-up computes the reference before any repeat");
        sample.check(
            d.render == *reference,
            "server analysis is byte-identical to the in-memory fleet fold",
        );
        sample.check(
            socket.batches == socket.delivered_batches + socket.lost_batches + socket.stale_batches
                && socket.batches == memory.batches
                && socket.delivered_batches == memory.accepted_batches
                && socket.bytes_sent == memory.bytes_sent,
            "ledger closes: produced = delivered + lost + stale, coin for coin with the fold",
        );
        if self.kind == Kind::LoopDense {
            let first = d.first_cluster(self.sites()).unwrap_or_default();
            sample.check(
                first.ends_with(CULPRIT),
                &format!("first isolated cluster is `{CULPRIT}` (got `{first}`)"),
            );
        }
    }
}
