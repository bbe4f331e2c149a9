//! `ingest-narrow` / `ingest-wide`: a server-only storm.  Pre-encoded
//! report batches for a thousand simulated clients go to a journaled
//! two-shard server over two connections in a closed loop — a CBI
//! client sends its next batch only after the ack — then the fold is
//! diagnosed and the journal's read path is exercised by a torn-tail
//! resume.

use super::{build, diagnose, layout_of, staged, Built, Server, ServerSpec, BATCH, JOURNAL, TOP};
use crate::env::TempDir;
use crate::harness::{Res, Sample, Workload};
use crate::spec::{Kind, WorkloadDef, JOBS, THREADS};
use crate::stats::{percentile, percentile_label, supported_percentile, P50, P99};
use crate::trace::Tracer;
use cbi::instrument::{Scheme, SiteTable};
use cbi::reports::frame::read_ack;
use cbi::reports::{decode_batch, wire, AckVerdict, BatchEnvelope};
use cbi::sampler::{Pcg32, SamplingDensity};
use cbi::workloads::{
    bc_trials, ccrypt_trials, run_campaign, BcTrialConfig, CampaignConfig, CcryptTrialConfig,
    BC_SOURCE, CCRYPT_SOURCE,
};
use cbi_serve::{render_analysis, FsyncPolicy};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Simulated clients the envelopes are dealt over.
const CLIENTS: u64 = 1000;

/// Distinct pre-encoded payloads the storm cycles through.
const PAYLOADS: usize = 256;

/// Share of envelopes retransmitted after their ack (a lost ack).
const RETRANSMIT: f64 = 0.05;

struct Shape {
    source: &'static str,
    scheme: Scheme,
    /// Envelopes in one repeat at `--scale 1`.
    envelopes: u64,
}

fn shape(kind: Kind) -> Shape {
    if kind == Kind::IngestWide {
        Shape {
            source: BC_SOURCE,
            scheme: Scheme::ScalarPairs,
            envelopes: 1_000,
        }
    } else {
        Shape {
            source: CCRYPT_SOURCE,
            scheme: Scheme::Returns,
            envelopes: 10_000,
        }
    }
}

pub struct Ingest {
    built: Built,
    /// Encoded batches of [`BATCH`] reports from a seeded campaign.
    payloads: Vec<Vec<u8>>,
    envelopes: u64,
    /// Whether envelope `b` is sent a second time after its ack.
    resend: Vec<bool>,
    /// What an in-process `IngestCore::submit` of the same envelopes
    /// renders.
    reference: String,
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    /// Envelope written → accepted/duplicate ack read, in nanoseconds,
    /// `overloaded` retries included.
    latency_ns: Vec<u64>,
    accepted: u64,
    duplicate: u64,
    wire_bytes: u64,
}

impl Ingest {
    fn sites(&self) -> &SiteTable {
        &self.built.instrumented.sites
    }

    /// The `b`-th envelope: batches round-robin over the simulated
    /// clients, so `(client, seq)` is unique.
    fn envelope(&self, b: u64) -> BatchEnvelope {
        let payload = &self.payloads[(b % self.payloads.len() as u64) as usize];
        BatchEnvelope::new(b % CLIENTS, b / CLIENTS, 0, payload.clone())
    }

    fn resends(&self) -> u64 {
        self.resend.iter().filter(|&&r| r).count() as u64
    }

    /// Every send in order: each envelope, then again if its ack is
    /// "lost".
    pub fn sends(&self) -> Vec<BatchEnvelope> {
        (0..self.envelopes)
            .flat_map(|b| {
                let again = self.resend[b as usize].then(|| self.envelope(b));
                std::iter::once(self.envelope(b)).chain(again)
            })
            .collect()
    }

    fn server_spec(&self, shards: usize, connections: usize) -> ServerSpec<'_> {
        ServerSpec {
            sites: self.sites(),
            shards,
            epoch_len: (self.envelopes * BATCH as u64 / 8).max(1),
            keep_reports: true,
            fsync: FsyncPolicy::EveryN(4096),
            connections,
        }
    }

    /// One connection's closed loop over envelopes `first, first +
    /// stride, …` below `limit`.
    fn connection(&self, addr: SocketAddr, first: u64, stride: u64, limit: u64) -> Res<ConnLog> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut log = ConnLog::default();
        let mut bytes = Vec::new();
        for b in (first..limit).step_by(stride as usize) {
            bytes.clear();
            self.envelope(b).encode_into(&mut bytes);
            for _ in 0..1 + u32::from(self.resend[b as usize]) {
                let sent = Instant::now();
                loop {
                    stream.write_all(&bytes)?;
                    log.wire_bytes += bytes.len() as u64;
                    let ack = read_ack(&mut reader)?.ok_or("server closed before the ack")?;
                    match ack.verdict {
                        AckVerdict::Accepted => log.accepted += 1,
                        AckVerdict::Duplicate => log.duplicate += 1,
                        AckVerdict::Overloaded => {
                            std::thread::sleep(Duration::from_micros(200));
                            continue;
                        }
                        other => return Err(format!("unexpected verdict {other:?}").into()),
                    }
                    break;
                }
                log.latency_ns.push(sent.elapsed().as_nanos() as u64);
            }
        }
        Ok(log)
    }

    /// The storm: `connections` closed loops at once.
    fn storm(&self, addr: SocketAddr, connections: u64, limit: u64) -> Res<ConnLog> {
        let logs: Vec<Res<ConnLog>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..connections)
                .map(|c| {
                    scope.spawn(move || {
                        self.connection(addr, c, connections, limit)
                            .map_err(|e| e.to_string())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| Ok(h.join().map_err(|_| "connection thread panicked")??))
                .collect()
        });
        let mut all = ConnLog::default();
        for log in logs {
            let log = log?;
            all.latency_ns.extend(log.latency_ns);
            all.accepted += log.accepted;
            all.duplicate += log.duplicate;
            all.wire_bytes += log.wire_bytes;
        }
        all.latency_ns.sort_unstable();
        Ok(all)
    }
}

impl Ingest {
    /// Everything the seed determines: the campaign's report batches
    /// and the retransmit plan.  The reference analysis is left empty.
    pub fn generate(kind: Kind, seed: u64, scale: u64) -> Res<Ingest> {
        let shape = shape(kind);
        let built = build(shape.source, shape.scheme, &mut Tracer::off())?;
        let program = cbi::minic::parse(shape.source)?;
        let n = PAYLOADS * BATCH;
        let trials = if kind == Kind::IngestWide {
            bc_trials(n, seed, &BcTrialConfig::default())
        } else {
            ccrypt_trials(n, seed, &CcryptTrialConfig::default())
        };
        let mut config =
            CampaignConfig::sampled(shape.scheme, SamplingDensity::one_in(100)).with_jobs(JOBS);
        config.seed = seed;
        let campaign = run_campaign(&program, &trials, &config)?;
        let sites = &campaign.instrumented.sites;
        let payloads = campaign
            .collector
            .reports()
            .chunks(BATCH)
            .map(|c| wire::encode_reports(c, sites.layout_hash(), sites.total_counters()))
            .collect::<Result<Vec<_>, _>>()?;

        let envelopes = shape.envelopes * scale;
        let mut rng = Pcg32::with_stream(seed, 0x7265_7365_6e64);
        let resend = (0..envelopes)
            .map(|_| rng.next_f64() < RETRANSMIT)
            .collect();
        Ok(Ingest {
            built,
            payloads,
            envelopes,
            resend,
            reference: String::new(),
        })
    }
}

impl Workload for Ingest {
    fn setup(def: &WorkloadDef, seed: u64, scale: u64) -> Res<Self> {
        let mut ingest = Ingest::generate(def.kind, seed, scale)?;
        let mut core = ingest.server_spec(THREADS, 1).core()?;
        for envelope in ingest.sends() {
            core.submit(None, envelope, true)?;
        }
        ingest.reference = render_analysis(&core.finish()?.aggregator, TOP);
        Ok(ingest)
    }

    fn code_ops(&self) -> u64 {
        self.built.bytecode.ops.len() as u64
    }

    fn repeat(&self, t: &mut Tracer) -> Res<Sample> {
        let mut sample = Sample::default();
        let tmp = TempDir::create()?;
        let spec = self.server_spec(THREADS, THREADS);
        let started = Instant::now();
        let (log, acked, outcome, diagnosis, diagnosed) =
            t.span("ingest.repeat", |t| -> Res<_> {
                let server = t.span("serve.start", |_| Server::start(&spec, &tmp))?;
                let log = t.span("ingest.storm", |_| {
                    self.storm(server.addr, THREADS as u64, self.envelopes)
                })?;
                let acked = started.elapsed();
                let outcome = t.span("serve.join", |_| server.join())?;
                let diagnosis = diagnose(&outcome, t)?;
                Ok((log, acked, outcome, diagnosis, started.elapsed()))
            })?;

        // The crash: the writer died inside an append, leaving part of
        // the next record.  Resume truncates it and refolds.
        let path = tmp.file(JOURNAL);
        let torn = self.envelope(self.envelopes).encode();
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)?
            .write_all(&torn[..torn.len() * 2 / 3])?;
        let recovering = Instant::now();
        let recovered = t.span("serve.recover", |_| -> Res<_> {
            Ok(spec.core()?.resume(&path, spec.fsync)?.finish()?)
        })?;
        let recover = recovering.elapsed();
        let wall = started.elapsed();
        let served = &outcome.summary;

        sample.set("wall_s", wall.as_secs_f64());
        sample.set("reports_per_s", served.reports as f64 / acked.as_secs_f64());
        sample.set("ack_p50_us", percentile(&log.latency_ns, P50) as f64 / 1e3);
        sample.set("ack_p99_us", percentile(&log.latency_ns, P99) as f64 / 1e3);
        sample.set("analysis_s", (diagnosed - acked).as_secs_f64());
        sample.set("recover_s", recover.as_secs_f64());
        sample.set(
            "bytes_per_report",
            log.wire_bytes as f64 / served.reports.max(1) as f64,
        );
        let max_ns = log.latency_ns.last().copied().unwrap_or(0);
        sample.set("serve.ack_max_us", max_ns as f64 / 1e3);
        sample.set("serve.batches", served.batches as f64);
        sample.set("serve.duplicates", served.duplicates as f64);
        sample.set("serve.shed", served.shed as f64);
        sample.set("serve.journal_bytes", served.journal_bytes as f64);
        sample.set("scoring.iterations", diagnosis.run.iterations() as f64);
        sample.set(
            "scoring.unexplained",
            diagnosis.run.unexplained.len() as f64,
        );

        sample.ops(
            self.envelopes,
            self.envelopes.abs_diff(log.accepted) + self.envelopes.abs_diff(served.batches),
            "distinct envelopes not accepted exactly once",
        );
        sample.check(
            log.duplicate == self.resends() && served.duplicates == self.resends(),
            "duplicates equal the retransmits sent",
        );
        sample.check(
            diagnosis.render == self.reference,
            "analysis is identical to the in-process submit reference",
        );
        sample.check(
            recovered.summary.torn_tail
                && recovered.summary.replayed == self.envelopes
                && render_analysis(&recovered.aggregator, TOP) == self.reference,
            "analysis is identical again after the torn-tail resume",
        );
        Ok(sample)
    }

    fn verify(&self) -> Res<Sample> {
        // Every check of this workload runs inside each repeat; what is
        // left is to say what the latency sample supports.
        let acks = (self.envelopes + self.resends()) as usize;
        let tail = supported_percentile(acks).map_or("none".into(), percentile_label);
        eprintln!(
            "ack latency: {acks} samples per repeat; highest percentile with >=10 samples beyond it: {tail}"
        );
        let mut sample = Sample::default();
        sample.check(
            supported_percentile(acks) >= Some(P99),
            "the ack sample supports the p99 it reports",
        );
        Ok(sample)
    }

    fn stages(&self, t: &mut Tracer, out: &mut Sample) -> Res<f64> {
        let tmp = TempDir::create()?;
        let sends = t.span("bench.prepare", |_| self.sends());
        let outcome = t.span("staged.pipeline", |t| -> Res<_> {
            staged::frame(t, &sends)?;
            staged::server_side(t, &self.server_spec(THREADS, 1), &sends, &tmp)
        })?;

        t.span("staged.extras", |t| -> Res<()> {
            let payloads: Vec<&[u8]> = (0..self.envelopes)
                .map(|b| self.payloads[(b % self.payloads.len() as u64) as usize].as_slice())
                .collect();
            staged::analyses(t, out, self.sites(), &payloads, &outcome)?;

            // The encoder alone, over as many batches as the storm sent.
            let layout = layout_of(self.sites());
            let batches = t.span("bench.prepare", |_| {
                self.payloads
                    .iter()
                    .map(|p| decode_batch(p, Some(layout)).map(|(reports, _, _)| reports))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("staged decode: {}", e.error))
            })?;
            t.span("reports.encode", |_| -> Res<()> {
                for batch in batches.iter().cycle().take(self.envelopes as usize) {
                    let bytes = wire::encode_reports(batch, layout.layout_hash, layout.counters)?;
                    std::hint::black_box(bytes);
                }
                Ok(())
            })?;

            // The single-threaded baseline: one shard, one acceptor,
            // one connection, a quarter of the envelopes.
            let tmp = TempDir::create()?;
            let quarter = (self.envelopes / 4).max(1);
            let server = Server::start(&self.server_spec(1, 1), &tmp)?;
            t.span("serve.shards1", |_| self.storm(server.addr, 1, quarter))?;
            let reports = t.span("serve.join", |_| server.join())?.summary.reports;
            out.set(
                "serve.shards1_reports_per_s",
                reports as f64 / t.seconds("serve.shards1"),
            );
            Ok(())
        })?;

        staged::set_seconds(t, out, staged::SERVER_AND_ANALYSIS_SECONDS);
        // Socket ingest (two connections, two shards) over the same
        // envelopes submitted in process on one thread.
        out.set(
            "serve.socket_over_core_pm",
            1000.0 * t.seconds("ingest.storm") / t.seconds("serve.submit"),
        );
        out.set("instrument.sites", self.sites().len() as f64);
        out.set("instrument.counters", self.sites().total_counters() as f64);
        out.set("bytecode.ops", self.code_ops() as f64);
        Ok(1.0)
    }
}
