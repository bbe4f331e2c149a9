//! The fleet engine: profile the community, run every client, push every
//! batch through the lossy channel, and fold what survives into the
//! server's epoch aggregation — deterministically, at any `--jobs`.
//!
//! Determinism rests on two properties.  First, every run and every
//! transmission attempt is a pure function of `(spec, index)`: run `r`
//! belongs to client `r % clients`, draws its input from a seeded Zipf
//! stream keyed by `r`, and samples with a countdown bank seeded by
//! `seed + r`; a batch's fault coins are keyed by its globally unique
//! batch id.  Second, batches are folded into the server in ascending
//! order of their *last run index* — the moment the client's spool
//! filled — which is unique per batch because every run belongs to
//! exactly one batch.  Workers therefore shard batches freely and the
//! ordered merge reproduces the serial fold bit-for-bit.

use crate::channel::{send_batch, ChannelSpec, SendOutcome, SendResult};
use crate::profile::{draw_profiles, ClientProfile};
use crate::FleetError;
use cbi::epoch::{EpochAggregator, EpochSnapshot};
use cbi::stats::TrainConfig;
use cbi_instrument::{
    apply_sampling, instrument, single_function_variants, Scheme, SiteTable, TransformOptions,
};
use cbi_minic::Program;
use cbi_reports::wire::encode_reports;
use cbi_reports::{DecodeOutcome, Label, Provenance, Report, ReportLayout, ReportSink};
use cbi_sampler::{LazyBank, Pcg32, Zipf};
use cbi_telemetry as telemetry;
use cbi_vm::{bytecode::BcProgram, RunOutcome, Vm};

/// PRNG stream tag for per-run input selection.
const RUN_STREAM: u64 = 0x72_75_6e_73; // "runs"

/// XOR salt applied to a stale client's layout fingerprint: an older
/// binary version hashes its (different) site table differently.
const STALE_SALT: u64 = 0x57a1_e000_0000_0001;

/// Configuration of a fleet simulation.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Community size.
    pub clients: usize,
    /// Total community runs, dealt round-robin over the clients.
    pub runs: usize,
    /// Runs a client spools before transmitting one batch.
    pub batch_size: usize,
    /// Server epoch length, in accepted runs.
    pub epoch_len: u64,
    /// Input-pool popularity skew (Zipf exponent; `0` is uniform).
    pub zipf_exponent: f64,
    /// Sampling-density mix: `(denominator, weight)` pairs, e.g.
    /// `[(100, 1.0), (1000, 3.0)]` for a 1:3 mix of 1/100 and 1/1000.
    pub densities: Vec<(u64, f64)>,
    /// Fraction of clients running a single-function variant binary.
    pub variant_fraction: f64,
    /// Fraction of clients on a stale binary version.
    pub stale_fraction: f64,
    /// Observation scheme to instrument.
    pub scheme: Scheme,
    /// The lossy channel between clients and the server.
    pub channel: ChannelSpec,
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Worker threads to shard batches over (`0`/`1` mean serial); any
    /// value yields bit-identical results.
    pub jobs: usize,
    /// Per-run operation budget.
    pub op_limit: u64,
    /// Heap slack per allocation.
    pub heap_slack: usize,
    /// Countdown-bank size per run.
    pub bank_size: usize,
    /// Server-side flight-recorder capacity (last N ingest events kept
    /// for anomaly dumps; `0` disables retention).
    pub flight_recorder: usize,
}

impl FleetSpec {
    /// A fleet of `clients` users performing `runs` community runs, with
    /// a uniform input pool, all-1/100 densities, full binaries, no
    /// stale clients, and a clean channel.
    pub fn new(clients: usize, runs: usize) -> Self {
        FleetSpec {
            clients,
            runs,
            batch_size: 16,
            epoch_len: 256,
            zipf_exponent: 0.0,
            densities: vec![(100, 1.0)],
            variant_fraction: 0.0,
            stale_fraction: 0.0,
            scheme: Scheme::Returns,
            channel: ChannelSpec::default(),
            seed: 0x5eed,
            jobs: 1,
            op_limit: cbi_vm::DEFAULT_OP_LIMIT,
            heap_slack: cbi_vm::heap::DEFAULT_SLACK,
            bank_size: 1024,
            flight_recorder: 64,
        }
    }

    /// The same fleet sharded over `jobs` worker threads.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Validates the parts a wrong config would turn into a panic deep
    /// inside a worker.
    fn validate(&self) -> Result<(), FleetError> {
        let bad = |message: &str| Err(FleetError::Config(message.to_string()));
        if self.clients == 0 {
            return bad("fleet needs at least one client");
        }
        if self.batch_size == 0 {
            return bad("batch size must be nonzero");
        }
        if self.epoch_len == 0 {
            return bad("epoch length must be nonzero");
        }
        if self.densities.is_empty()
            || self
                .densities
                .iter()
                .any(|&(d, w)| d == 0 || !w.is_finite() || w <= 0.0)
        {
            return bad("density mix needs positive denominators and weights");
        }
        if !(0.0..=1.0).contains(&self.variant_fraction)
            || !(0.0..=1.0).contains(&self.stale_fraction)
        {
            return bad("variant and stale fractions must be in [0, 1]");
        }
        Ok(())
    }
}

/// The integer-valued outcome of a fleet simulation — everything in the
/// operator's summary, byte-stable across platforms and `--jobs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSummary {
    /// Community size.
    pub clients: usize,
    /// Clients on a stale binary version.
    pub stale_clients: usize,
    /// Clients running a single-function variant.
    pub variant_clients: usize,
    /// Clients per density denominator, in spec order.
    pub density_clients: Vec<(u64, usize)>,
    /// Community runs attempted.
    pub runs: usize,
    /// Runs dropped client-side (operation budget exhausted).
    pub dropped_runs: usize,
    /// Reports spooled across all clients.
    pub spooled_reports: u64,
    /// Batches spooled (each enters the send loop once).
    pub batches: u64,
    /// Batches the server accepted.
    pub accepted_batches: u64,
    /// Accepted batches whose delivered bytes were altered in flight
    /// (bit flips that still decoded).
    pub corrupt_batches: u64,
    /// Batches abandoned after exhausting retries.
    pub lost_batches: u64,
    /// Batches abandoned at the stale-layout handshake.
    pub stale_batches: u64,
    /// Delivered-but-rejected attempts the server counted.
    pub rejected_deliveries: u64,
    /// Rejected deliveries that were stale-layout handshakes.
    pub stale_rejections: u64,
    /// Transmission attempts beyond each batch's first.
    pub retries: u64,
    /// Backoff ticks clients spent waiting between attempts.
    pub backoff_ticks: u64,
    /// Bytes put on the wire across all attempts.
    pub bytes_sent: u64,
    /// Bytes in accepted batches.
    pub bytes_accepted: u64,
    /// Reports the server committed.
    pub accepted_reports: u64,
    /// Failure-labelled reports the server committed.
    pub failures: u64,
    /// Counters in the instrumented layout.
    pub counters: usize,
    /// Counters observed at least once.
    pub observed_counters: usize,
    /// Survivors of combined §3.2 elimination at end of stream.
    pub survivors: usize,
    /// Detection latency of the target counter (community runs, 1-based).
    pub target_latency: Option<usize>,
    /// Epochs closed.
    pub epochs: usize,
}

/// The full result: the summary plus the float-bearing extras and the
/// server state itself.
#[derive(Debug)]
pub struct FleetReport {
    /// Integer summary (golden-file safe).
    pub summary: FleetSummary,
    /// Per-epoch snapshots, oldest first.
    pub epochs: Vec<EpochSnapshot>,
    /// 0-based regression rank of the target counter at end of stream.
    pub target_rank: Option<usize>,
    /// The folded server state, for further analysis.
    pub aggregator: EpochAggregator,
    /// The community's profiles, for inspection.
    pub profiles: Vec<ClientProfile>,
}

/// One client's spooled batch, scheduled at its last run's index.
struct BatchPlan {
    client: usize,
    runs: Vec<usize>,
}

/// One spooled batch, fully materialized but not yet transmitted: the
/// client ran its VM for every run in the spool and encoded the wire
/// payload (under the stale layout salt if the client is stale).  Which
/// transport carries it — the in-memory channel fold of [`run_fleet`]
/// or a real TCP socket — is the caller's choice; production is a pure
/// function of `(spec, plan)` either way.
#[derive(Debug, Clone)]
pub(crate) struct ProducedBatch {
    /// Owning client's index in the community.
    pub client: usize,
    /// Index of the batch's last run — globally unique, the batch uid.
    pub last_run: usize,
    /// Runs dropped client-side (operation budget exhausted).
    pub dropped_runs: usize,
    /// Reports spooled into the payload.
    pub spooled_reports: u64,
    /// The encoded CBIR wire payload.
    pub bytes: Vec<u8>,
}

/// The fleet with every batch produced: instrumentation, the community
/// profiles, and the spooled wire payloads sorted by last run — the
/// serial transmission schedule.
pub(crate) struct FleetProduction {
    pub sites: SiteTable,
    pub layout: ReportLayout,
    pub profiles: Vec<ClientProfile>,
    pub batches: Vec<ProducedBatch>,
}

/// Runs every client's VM and spools every batch, sharded over
/// `spec.jobs` workers.  No transport is touched: the result is the
/// exact byte streams the community would put on any wire.
pub(crate) fn produce_fleet(
    program: &Program,
    pool: &[Vec<i64>],
    spec: &FleetSpec,
) -> Result<FleetProduction, FleetError> {
    spec.validate()?;
    if pool.is_empty() {
        return Err(FleetError::Config(
            "fleet needs a nonempty input pool".to_string(),
        ));
    }

    // ---- Setup: instrument once, compile every binary the fleet runs.
    let _setup = telemetry::span("fleet.setup");
    let inst = instrument(program, spec.scheme)?;
    let sites = inst.sites.clone();
    let layout = ReportLayout {
        counters: sites.total_counters(),
        layout_hash: sites.layout_hash(),
    };
    let (full, _) = apply_sampling(&inst.program, &TransformOptions::default())?;
    let variants: Vec<Program> = if spec.variant_fraction > 0.0 {
        single_function_variants(&inst)
            .iter()
            .map(|v| apply_sampling(&v.program, &TransformOptions::default()).map(|(p, _)| p))
            .collect::<Result<_, _>>()?
    } else {
        Vec::new()
    };
    let exe = FleetExe {
        full: compile(&full),
        variants: variants.iter().map(compile).collect(),
    };
    let profiles = draw_profiles(spec, exe.variants.len());
    let zipf = Zipf::new(pool.len(), spec.zipf_exponent)
        .map_err(|e| FleetError::Config(format!("input-pool popularity: {e}")))?;
    let plans = plan_batches(spec);
    drop(_setup);

    // ---- Execute: shard batches over workers; each batch is pure in
    // its indices, so the partition cannot affect any outcome.
    let outcomes: Vec<Result<Vec<ProducedBatch>, FleetError>> = {
        let _execute = telemetry::span("fleet.execute");
        let jobs = spec.jobs.clamp(1, plans.len().max(1));
        let chunk = plans.len().div_ceil(jobs);
        let tm_on = telemetry::enabled();
        std::thread::scope(|s| {
            let handles: Vec<_> = plans
                .chunks(chunk.max(1))
                .enumerate()
                .map(|(w, shard)| {
                    let ctx = WorkerCtx {
                        spec,
                        pool,
                        zipf: &zipf,
                        sites: &sites,
                        layout,
                        exe: &exe,
                        profiles: &profiles,
                    };
                    s.spawn(move || {
                        if tm_on {
                            telemetry::set_worker(w as u32 + 1);
                        }
                        let _shard_span = telemetry::span("fleet.shard");
                        shard.iter().map(|plan| produce_batch(&ctx, plan)).collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("fleet worker panicked"))
                .collect()
        })
    };
    let mut batches: Vec<ProducedBatch> = Vec::with_capacity(plans.len());
    for shard in outcomes {
        batches.extend(shard?);
    }
    batches.sort_by_key(|b| b.last_run);

    Ok(FleetProduction {
        sites,
        layout,
        profiles,
        batches,
    })
}

/// Simulates the fleet: `pool` is the input population clients draw
/// from (Zipf-skewed by `spec.zipf_exponent`), and `target_counter` is
/// the ground-truth counter whose latency and rank the report tracks.
///
/// # Errors
///
/// Returns [`FleetError`] if the spec is inconsistent or
/// instrumentation, transformation, or VM setup fails.  Individual run
/// crashes and channel faults are data, not errors.
///
/// # Panics
///
/// Panics if a worker thread panics (a bug, not an input condition).
pub fn run_fleet(
    program: &Program,
    pool: &[Vec<i64>],
    spec: &FleetSpec,
    target_counter: Option<usize>,
) -> Result<FleetReport, FleetError> {
    let production = produce_fleet(program, pool, spec)?;
    let FleetProduction {
        sites,
        layout,
        profiles,
        batches,
    } = &production;

    // ---- Merge: push every batch through the channel, then fold the
    // survivors in last-run order — the serial schedule — through the
    // fold body the ingest server uses, with the §3.3 model trained over
    // the folded rows on a second core.
    let _merge = telemetry::span("fleet.merge");
    let mut aggregator = EpochAggregator::new(
        sites.clone(),
        spec.epoch_len,
        TrainConfig::default(),
        target_counter,
    )
    .with_flight_capacity(spec.flight_recorder);
    aggregator.begin(*layout)?;

    // A send is a pure function of the batch bytes and the seed.  A
    // clean delivery is the batch's own bytes, so its copy is dropped.
    let sends: Vec<SendResult> = batches
        .iter()
        .map(|batch| {
            let mut send = send_batch(
                &batch.bytes,
                batch.last_run as u64,
                spec.seed,
                &spec.channel,
                *layout,
            );
            if let SendOutcome::Accepted {
                payload,
                corrupted: false,
            } = &mut send.outcome
            {
                *payload = Vec::new();
            }
            send
        })
        .collect();
    let mut summary = summary_skeleton(spec, profiles, layout.counters);
    aggregator.fold_and_train(false, |aggregator, feed| -> Result<(), FleetError> {
        for (batch, send) in batches.iter().zip(&sends) {
            let cohort = profiles[batch.client].cohort();
            let provenance = |attempt: u32| {
                Provenance::new(batch.client as u64, attempt).with_cohort(cohort.clone())
            };
            summary.dropped_runs += batch.dropped_runs;
            summary.spooled_reports += batch.spooled_reports;
            summary.batches += 1;
            aggregator.note_retries(&cohort, u64::from(send.attempts.saturating_sub(1)));
            summary.backoff_ticks += send.backoff_ticks;
            summary.bytes_sent += send.bytes_sent;
            for rejection in &send.rejections {
                aggregator.note_batch(
                    &provenance(rejection.attempt),
                    DecodeOutcome::Rejected(rejection.kind),
                    0,
                );
            }
            match &send.outcome {
                SendOutcome::Accepted { corrupted, .. } => {
                    let outcome = if *corrupted {
                        DecodeOutcome::CorruptButDecodable
                    } else {
                        DecodeOutcome::Clean
                    };
                    let payload = delivered(batch, send).expect("an accepted batch");
                    aggregator.fold_batch(
                        &provenance(send.attempts.saturating_sub(1)),
                        outcome,
                        payload,
                        feed.rows(),
                    )?;
                }
                SendOutcome::Stale => summary.stale_batches += 1,
                SendOutcome::Lost => summary.lost_batches += 1,
            }
        }
        Ok(())
    })?;
    aggregator.close();

    let totals = *aggregator.totals();
    summary.accepted_batches = totals.batches;
    summary.corrupt_batches = totals.corrupt;
    summary.rejected_deliveries = totals.rejected;
    summary.stale_rejections = totals.stale;
    summary.retries = totals.retries;
    summary.bytes_accepted = totals.bytes;
    summary.accepted_reports = aggregator.runs();
    summary.failures = aggregator.failures();
    summary.observed_counters = aggregator.first_observation().observed_count();
    summary.survivors = aggregator.analyzer().eliminate(sites).combined.len();
    summary.target_latency =
        target_counter.and_then(|c| aggregator.first_observation().latency_of_counter(c));
    summary.epochs = aggregator.snapshots().len();

    telemetry::count("fleet.runs", summary.runs as u64);
    telemetry::count("fleet.batches", summary.batches);
    telemetry::count("fleet.retries", summary.retries);
    telemetry::count("fleet.lost_batches", summary.lost_batches);
    telemetry::count("fleet.stale_rejections", summary.stale_rejections);
    telemetry::count("fleet.bytes_sent", summary.bytes_sent);

    let target_rank = target_counter.and_then(|c| aggregator.model()?.rank_of(c));
    let epochs = aggregator.snapshots().to_vec();
    Ok(FleetReport {
        summary,
        epochs,
        target_rank,
        aggregator,
        profiles: production.profiles,
    })
}

/// The bytes the server committed for `batch`, if it committed any: the
/// delivered copy when the channel altered it, else the batch's own.
fn delivered<'a>(batch: &'a ProducedBatch, send: &'a SendResult) -> Option<&'a [u8]> {
    match &send.outcome {
        SendOutcome::Accepted {
            corrupted: false, ..
        } => Some(&batch.bytes),
        SendOutcome::Accepted { payload, .. } => Some(payload),
        SendOutcome::Stale | SendOutcome::Lost => None,
    }
}

/// Everything a worker needs, borrowed from the driver.
struct WorkerCtx<'a> {
    spec: &'a FleetSpec,
    pool: &'a [Vec<i64>],
    zipf: &'a Zipf,
    sites: &'a SiteTable,
    layout: ReportLayout,
    exe: &'a FleetExe,
    profiles: &'a [ClientProfile],
}

/// Every binary the fleet runs — the full build plus each variant —
/// compiled once at setup and shared (immutably) by all workers.
struct FleetExe {
    full: BcProgram,
    variants: Vec<BcProgram>,
}

fn compile(program: &Program) -> BcProgram {
    cbi_vm::bytecode::compile(&cbi_minic::lower(program))
}

/// Deals runs round-robin over clients and chunks each client's run
/// sequence into spool-sized batches, scheduled at their last run.
fn plan_batches(spec: &FleetSpec) -> Vec<BatchPlan> {
    let mut plans = Vec::new();
    for client in 0..spec.clients.min(spec.runs) {
        let runs: Vec<usize> = (client..spec.runs).step_by(spec.clients).collect();
        for chunk in runs.chunks(spec.batch_size) {
            plans.push(BatchPlan {
                client,
                runs: chunk.to_vec(),
            });
        }
    }
    // Merge order is by last run; planning order is irrelevant but a
    // deterministic layout keeps sharding stable.
    plans.sort_by_key(|p| *p.runs.last().expect("chunks are nonempty"));
    plans
}

/// Produces one batch: run the client's VM for every run in the spool
/// and encode the wire payload.  Transmission happens elsewhere.
fn produce_batch(ctx: &WorkerCtx<'_>, plan: &BatchPlan) -> Result<ProducedBatch, FleetError> {
    let spec = ctx.spec;
    let profile = &ctx.profiles[plan.client];
    let mut reports = Vec::with_capacity(plan.runs.len());
    let mut dropped = 0usize;
    let mut bank = LazyBank::new(
        profile.density,
        spec.bank_size,
        spec.seed.wrapping_add(plan.runs[0] as u64),
    );
    for (i, &run) in plan.runs.iter().enumerate() {
        let mut input_rng = Pcg32::with_stream(spec.seed, RUN_STREAM ^ (run as u64));
        let input = &ctx.pool[ctx.zipf.sample(&mut input_rng)];
        if i > 0 {
            bank.reseed(profile.density, spec.seed.wrapping_add(run as u64));
        }
        let binary = profile
            .variant
            .map_or(&ctx.exe.full, |v| &ctx.exe.variants[v]);
        let mut vm = Vm::from_bytecode(binary);
        vm.with_sites(ctx.sites)
            .with_input(&input[..])
            .with_op_limit(spec.op_limit)
            .with_heap_slack(spec.heap_slack)
            .with_sampling_ref(&mut bank);
        let result = vm.run()?;
        let label = match result.outcome {
            RunOutcome::Success(_) => Label::Success,
            RunOutcome::Crash(_) | RunOutcome::AssertionFailure(_) => Label::Failure,
            RunOutcome::OpLimit => {
                dropped += 1;
                continue;
            }
        };
        reports.push(Report::new(run as u64, label, result.counters));
    }

    // A stale binary fingerprints its layout differently; the server's
    // handshake catches it.
    let wire_hash = if profile.stale {
        ctx.layout.layout_hash ^ STALE_SALT
    } else {
        ctx.layout.layout_hash
    };
    let bytes = encode_reports(&reports, wire_hash, ctx.layout.counters)?;
    let last_run = *plan.runs.last().expect("chunks are nonempty");
    Ok(ProducedBatch {
        client: plan.client,
        last_run,
        dropped_runs: dropped,
        spooled_reports: reports.len() as u64,
        bytes,
    })
}

/// The profile-derived half of the summary, filled before the merge.
fn summary_skeleton(spec: &FleetSpec, profiles: &[ClientProfile], counters: usize) -> FleetSummary {
    FleetSummary {
        clients: spec.clients,
        stale_clients: profiles.iter().filter(|p| p.stale).count(),
        variant_clients: profiles.iter().filter(|p| p.variant.is_some()).count(),
        density_clients: spec
            .densities
            .iter()
            .map(|&(d, _)| (d, profiles.iter().filter(|p| p.denominator == d).count()))
            .collect(),
        runs: spec.runs,
        dropped_runs: 0,
        spooled_reports: 0,
        batches: 0,
        accepted_batches: 0,
        corrupt_batches: 0,
        lost_batches: 0,
        stale_batches: 0,
        rejected_deliveries: 0,
        stale_rejections: 0,
        retries: 0,
        backoff_ticks: 0,
        bytes_sent: 0,
        bytes_accepted: 0,
        accepted_reports: 0,
        failures: 0,
        counters,
        observed_counters: 0,
        survivors: 0,
        target_latency: None,
        epochs: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi::stats::train;
    use cbi_reports::SparseArchive;

    const RARE: &str = "fn rare(int v) -> int { if (v % 12 == 0) { return 1; } return 0; }\n\
         fn main() -> int { int v = read(); int hit = rare(v); print(hit); return 0; }";

    fn pool(n: usize) -> Vec<Vec<i64>> {
        (0..n as i64).map(|i| vec![i * 7 + 1]).collect()
    }

    fn spec() -> FleetSpec {
        let mut s = FleetSpec::new(12, 300);
        s.densities = vec![(2, 1.0)];
        s.batch_size = 8;
        s.epoch_len = 64;
        s
    }

    #[test]
    fn every_spooled_report_reaches_the_server_on_a_clean_channel() {
        let program = cbi_minic::parse(RARE).unwrap();
        let report = run_fleet(&program, &pool(48), &spec(), None).unwrap();
        let s = &report.summary;
        assert_eq!(s.runs, 300);
        assert_eq!(s.dropped_runs, 0);
        assert_eq!(s.accepted_reports, s.spooled_reports);
        assert_eq!(s.accepted_batches, s.batches);
        assert_eq!(s.lost_batches + s.stale_batches + s.rejected_deliveries, 0);
        assert_eq!(s.retries, 0);
        assert!(s.observed_counters > 0);
        assert!(s.epochs >= 4, "300 runs / 64 epoch_len: {}", s.epochs);
        assert_eq!(report.epochs.last().unwrap().runs, 300);
    }

    #[test]
    fn stale_clients_are_rejected_not_crashed_and_not_silent() {
        let program = cbi_minic::parse(RARE).unwrap();
        let mut s = spec();
        s.stale_fraction = 0.5;
        let report = run_fleet(&program, &pool(48), &s, None).unwrap();
        let sum = &report.summary;
        assert!(sum.stale_clients > 0);
        assert!(sum.stale_batches > 0, "stale batches must be counted");
        assert_eq!(sum.stale_rejections, sum.stale_batches);
        assert_eq!(
            sum.accepted_batches + sum.stale_batches,
            sum.batches,
            "every batch is accounted: accepted or stale-rejected"
        );
        // The epoch view carries the same signal.
        assert_eq!(
            report.epochs.last().unwrap().stale_batches,
            sum.stale_rejections
        );
    }

    #[test]
    fn faulty_channel_loses_batches_but_never_errors() {
        let program = cbi_minic::parse(RARE).unwrap();
        let mut s = spec();
        s.channel = ChannelSpec {
            drop: 0.4,
            truncate: 0.2,
            bit_flip: 0.1,
            max_retries: 2,
            backoff_base: 3,
        };
        let report = run_fleet(&program, &pool(48), &s, None).unwrap();
        let sum = &report.summary;
        assert!(sum.retries > 0, "faults must force retries");
        assert!(sum.backoff_ticks > 0);
        assert!(sum.lost_batches > 0, "this channel is bad enough to lose");
        assert!(sum.accepted_batches > 0, "but not bad enough to lose all");
        assert!(sum.bytes_sent > sum.bytes_accepted);
        assert_eq!(
            sum.accepted_batches + sum.lost_batches + sum.stale_batches,
            sum.batches
        );
    }

    /// The merge with no second thread: one pass, each delivered batch
    /// folded as it comes off the channel and archived, then the model
    /// trained over the archive.  The oracle the two-core merge of
    /// [`run_fleet`] is held to.
    fn inline_merge(
        production: &FleetProduction,
        spec: &FleetSpec,
        target: usize,
    ) -> EpochAggregator {
        let layout = production.layout;
        let mut aggregator = EpochAggregator::new(
            production.sites.clone(),
            spec.epoch_len,
            TrainConfig::default(),
            Some(target),
        )
        .with_flight_capacity(spec.flight_recorder);
        aggregator.begin(layout).unwrap();
        let mut archive = SparseArchive::new(layout);
        for batch in &production.batches {
            let send = send_batch(
                &batch.bytes,
                batch.last_run as u64,
                spec.seed,
                &spec.channel,
                layout,
            );
            let cohort = production.profiles[batch.client].cohort();
            let provenance = |attempt: u32| {
                Provenance::new(batch.client as u64, attempt).with_cohort(cohort.clone())
            };
            aggregator.note_retries(&cohort, u64::from(send.attempts.saturating_sub(1)));
            for rejection in &send.rejections {
                let outcome = DecodeOutcome::Rejected(rejection.kind);
                aggregator.note_batch(&provenance(rejection.attempt), outcome, 0);
            }
            if let SendOutcome::Accepted { payload, corrupted } = &send.outcome {
                let outcome = if *corrupted {
                    DecodeOutcome::CorruptButDecodable
                } else {
                    DecodeOutcome::Clean
                };
                let prov = provenance(send.attempts.saturating_sub(1));
                aggregator
                    .fold_batch(&prov, outcome, payload, &mut archive)
                    .unwrap();
            }
        }
        aggregator.close();
        let model = train(layout.counters, archive.rows(), &TrainConfig::default());
        aggregator.attach_model(model);
        aggregator
    }

    #[test]
    fn the_merge_trains_beside_its_fold_to_the_inline_bits() {
        let program = cbi_minic::parse(RARE).unwrap();
        let mut s = spec();
        // Short epochs with a partial last one, on a channel that drops,
        // truncates, flips bits and meets stale clients.
        s.epoch_len = 40;
        s.stale_fraction = 0.2;
        s.channel = ChannelSpec {
            drop: 0.1,
            truncate: 0.05,
            bit_flip: 0.3,
            max_retries: 2,
            backoff_base: 3,
        };
        let production = produce_fleet(&program, &pool(48), &s).unwrap();
        let target = (0..production.layout.counters)
            .find(|&c| production.sites.predicate_name(c).contains("rare() > 0"))
            .unwrap();
        let report = run_fleet(&program, &pool(48), &s, Some(target)).unwrap();
        let inline = inline_merge(&production, &s, target);

        assert!(report.summary.corrupt_batches > 0 && report.summary.stale_batches > 0);
        assert!(report.epochs.len() >= 4);
        assert!(!report.summary.accepted_reports.is_multiple_of(s.epoch_len));
        assert!(report.epochs.iter().all(|e| e.target_rank.is_some()));
        assert_eq!(report.epochs, inline.snapshots());
        let bits = |agg: &EpochAggregator| {
            let model = agg.model().unwrap();
            let weights: Vec<u64> = model.weights.iter().map(|w| w.to_bits()).collect();
            (model.bias.to_bits(), weights)
        };
        assert_eq!(bits(&report.aggregator), bits(&inline));
        let inline_rank = inline.model().unwrap().rank_of(target);
        assert_eq!(report.target_rank, inline_rank);
        assert!(report.target_rank.is_some());
    }

    #[test]
    fn variant_clients_share_the_full_layout() {
        let program = cbi_minic::parse(RARE).unwrap();
        let mut s = spec();
        s.variant_fraction = 0.7;
        let report = run_fleet(&program, &pool(48), &s, None).unwrap();
        assert!(report.summary.variant_clients > 0);
        // Variants strip observation to one function but keep the full
        // counter layout, so nothing is rejected.
        assert_eq!(report.summary.accepted_batches, report.summary.batches);
    }

    #[test]
    fn invalid_specs_are_config_errors() {
        let program = cbi_minic::parse(RARE).unwrap();
        let inputs = pool(4);
        for broken in [
            {
                let mut s = spec();
                s.clients = 0;
                s
            },
            {
                let mut s = spec();
                s.batch_size = 0;
                s
            },
            {
                let mut s = spec();
                s.densities = vec![];
                s
            },
            {
                let mut s = spec();
                s.stale_fraction = 1.5;
                s
            },
        ] {
            assert!(matches!(
                run_fleet(&program, &inputs, &broken, None),
                Err(FleetError::Config(_))
            ));
        }
        assert!(matches!(
            run_fleet(&program, &[], &spec(), None),
            Err(FleetError::Config(_))
        ));
    }

    #[test]
    fn fleet_summary_identical_across_jobs() {
        // Variants, stale clients, and a mildly lossy channel together:
        // the summary must not depend on the job count.
        let program = cbi_minic::parse(RARE).unwrap();
        let mut base = spec();
        base.variant_fraction = 0.3;
        base.stale_fraction = 0.1;
        base.channel.drop = 0.05;
        let with = |jobs: usize| {
            let s = base.clone().with_jobs(jobs);
            run_fleet(&program, &pool(48), &s, None).unwrap().summary
        };
        let reference = with(1);
        for jobs in [2usize, 4] {
            assert_eq!(reference, with(jobs), "jobs={jobs}: fleet summary diverged");
        }
    }

    #[test]
    fn zipf_skew_concentrates_runs_on_popular_inputs() {
        // With heavy skew and a pool where only deep indices trigger the
        // event, detection gets harder than under uniform choice.
        let program = cbi_minic::parse(RARE).unwrap();
        let inputs = pool(60);
        let target = {
            let inst = instrument(&program, Scheme::Returns).unwrap();
            (0..inst.sites.total_counters())
                .find(|&c| inst.sites.predicate_name(c).contains("rare() > 0"))
                .unwrap()
        };
        let mut uniform = spec();
        uniform.zipf_exponent = 0.0;
        let mut skewed = spec();
        skewed.zipf_exponent = 3.0;
        let u = run_fleet(&program, &inputs, &uniform, Some(target)).unwrap();
        let z = run_fleet(&program, &inputs, &skewed, Some(target)).unwrap();
        // Uniform choice must observe the event; the skewed community
        // hammers inputs 0..≈3 (none of which trigger) and should see it
        // later or never.
        let u_lat = u.summary.target_latency.expect("uniform pool detects");
        match z.summary.target_latency {
            None => {}
            Some(z_lat) => assert!(z_lat >= u_lat, "skew cannot speed detection here"),
        }
    }
}
