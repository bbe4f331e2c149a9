//! Stages shared by the traced passes of `loop-*` and `ingest-*`: the
//! server's work and the analyses, each public call on its own, fed the
//! very envelopes the concurrent repeat sent.

use super::{layout_of, site_groups, HashSink, ServerSpec, JOURNAL};
use crate::env::TempDir;
use crate::harness::{Res, Sample};
use crate::trace::Tracer;
use cbi::instrument::SiteTable;
use cbi::reports::frame::take_envelope;
use cbi::reports::{decode_batch, BatchEnvelope, BatchIngest, Report, ReportSink};
use cbi::sampler::{CountdownSource, LazyBank, SamplingDensity};
use cbi::{eliminate_stats, EpochAggregator, StreamingAnalyzer, StreamingConfig};
use cbi_scoring::{isolate, scorer_by_name, FailureIndex};
use cbi_serve::{journal, FsyncPolicy, Journal, ServeOutcome};

/// Journal syncs of the staged pass happen at this cadence, the
/// `every:4096` policy of `ingest-*`.
const SYNC_EVERY: u64 = 4096;

/// `BatchEnvelope::encode_into` then `take_envelope` for every
/// envelope: the framing both ends of the wire pay.
pub fn frame(t: &mut Tracer, envelopes: &[BatchEnvelope]) -> Res<()> {
    t.span("reports.frame", |_| {
        let mut buf = Vec::new();
        for envelope in envelopes {
            buf.clear();
            envelope.encode_into(&mut buf);
            let mut pos = 0;
            let read = take_envelope(&buf, &mut pos)?.ok_or("frame decodes to nothing")?;
            if !read.crc_ok {
                return Err("frame fails its own CRC".into());
            }
            std::hint::black_box(read.envelope);
        }
        Ok(())
    })
}

/// The server's work with no sockets and no threads: `submit` (route,
/// dedup, decode, live analyzer), the journal's `append` and `sync` on
/// a journal of their own, the ordered fold (`finish`), then the read
/// path (`replay`, `resume`).  Returns the folded outcome.
pub fn server_side(
    t: &mut Tracer,
    spec: &ServerSpec<'_>,
    envelopes: &[BatchEnvelope],
    tmp: &TempDir,
) -> Res<ServeOutcome> {
    let mut core = spec.core()?;
    t.span("serve.submit", |_| -> Res<()> {
        for envelope in envelopes {
            core.submit(None, envelope.clone(), true)?;
        }
        Ok(())
    })?;

    let path = tmp.file(JOURNAL);
    let mut journal = Journal::create(&path, spec.sites.layout_hash(), FsyncPolicy::Never)?;
    for chunk in envelopes.chunks(SYNC_EVERY as usize) {
        t.span("serve.journal_append", |_| -> Res<()> {
            for envelope in chunk {
                journal.append(envelope)?;
            }
            Ok(())
        })?;
        t.span("serve.journal_sync", |_| journal.sync())?;
    }
    drop(journal);

    let outcome = t.span("serve.fold", |_| core.finish())?;
    let replayed = t.span("serve.replay", |_| journal::replay(&path))?;
    if replayed.envelopes.len() != envelopes.len() {
        return Err("journal replay lost records".into());
    }
    t.span("serve.resume", |_| -> Res<()> {
        spec.core()?.resume(&path, spec.fsync)?;
        Ok(())
    })?;
    Ok(outcome)
}

/// Attribution probes over the same batches: the wire decoder alone,
/// each analysis sink alone, and the two isolation loops the repeat
/// does not run.  `payloads` are the encoded batches in arrival order.
pub fn analyses(
    t: &mut Tracer,
    out: &mut Sample,
    sites: &SiteTable,
    payloads: &[&[u8]],
    outcome: &ServeOutcome,
) -> Res<()> {
    let layout = layout_of(sites);
    let groups = site_groups(sites);

    // `None` is the sink that swallows everything: the codec alone.
    let mut ingest = BatchIngest::new(None::<HashSink>, Some(layout));
    t.span("reports.decode", |_| {
        for payload in payloads {
            let _ = ingest.ingest(payload);
        }
    });
    out.set("reports.bytes", ingest.bytes() as f64);
    out.set("reports.reports", ingest.reports() as f64);
    out.set("reports.rejected", ingest.rejected() as f64);

    let decoded: Vec<Vec<Report>> = t.span("bench.prepare", |_| {
        payloads
            .iter()
            .map(|p| decode_batch(p, Some(layout)).map(|(reports, _, _)| reports))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("staged decode: {}", e.error))
    })?;
    let total: u64 = decoded.iter().map(|b| b.len() as u64).sum();
    let epoch_len = (total / 8).max(1);
    let mut streaming = StreamingAnalyzer::new(StreamingConfig::default());
    let mut epochs =
        EpochAggregator::new(sites.clone(), epoch_len, StreamingConfig::default(), None);
    let feed = |sink: &mut dyn FnMut(Report) -> Res<()>| -> Res<()> {
        for reports in &decoded {
            for report in reports {
                sink(report.clone())?;
            }
        }
        Ok(())
    };
    streaming.begin(layout)?;
    t.span("core.streaming", |_| {
        feed(&mut |r| Ok(streaming.accept(r)?))
    })?;
    epochs.begin(layout)?;
    t.span("core.epoch", |_| feed(&mut |r| Ok(epochs.accept(r)?)))?;
    drop(decoded);

    t.span("core.eliminate", |_| {
        std::hint::black_box(eliminate_stats(streaming.stats(), &groups, sites));
    });
    t.span("stats.tables", |_| {
        std::hint::black_box(cbi::stats::contingency_tables(streaming.stats(), &groups));
    });

    let collector = outcome
        .collector
        .as_ref()
        .ok_or("staged analyses need the report archive")?;
    let mut index = FailureIndex::new();
    t.span("bench.prepare", |_| -> Res<()> {
        index.begin(layout)?;
        for report in collector.reports() {
            index.accept(report.clone())?;
        }
        Ok(())
    })?;
    for (span, scorer) in [
        ("scoring.isolate_increase", "increase"),
        ("scoring.isolate_importance", "importance"),
    ] {
        let scorer = scorer_by_name(scorer).ok_or("scorer is not registered")?;
        t.span(span, |_| {
            std::hint::black_box(isolate(&index, &groups, scorer));
        });
    }
    Ok(())
}

/// Nanoseconds per `LazyBank` draw at 1/100, reseeding every bank's
/// worth of draws as a campaign worker does per trial.
pub fn sampler_draw_ns(t: &mut Tracer) -> f64 {
    const BANK: usize = 1024;
    const RESEEDS: u64 = 256;
    let density = SamplingDensity::one_in(100);
    let mut bank = LazyBank::new(density, BANK, 0);
    t.span("sampler.draw", |_| {
        let mut sum = 0u64;
        for seed in 0..RESEEDS {
            bank.reseed(density, seed);
            for _ in 0..BANK {
                sum = sum.wrapping_add(bank.next_countdown());
            }
        }
        std::hint::black_box(sum);
    });
    t.seconds("sampler.draw") * 1e9 / (RESEEDS * BANK as u64) as f64
}

/// The `_s` metrics [`server_side`], [`analyses`], [`frame`] and the
/// diagnosis chain of the traced repeat leave spans for.
pub const SERVER_AND_ANALYSIS_SECONDS: &[&str] = &[
    "reports.encode_s",
    "reports.decode_s",
    "reports.frame_s",
    "serve.submit_s",
    "serve.journal_append_s",
    "serve.journal_sync_s",
    "serve.fold_s",
    "serve.replay_s",
    "serve.resume_s",
    "core.streaming_s",
    "core.epoch_s",
    "core.eliminate_s",
    "core.render_s",
    "stats.tables_s",
    "scoring.index_s",
    "scoring.tables_s",
    "scoring.rank_s",
    "scoring.isolate_ochiai_s",
    "scoring.isolate_increase_s",
    "scoring.isolate_importance_s",
];

/// Sets every `_s` metric in `names` from the spans of the same name.
pub fn set_seconds(t: &Tracer, out: &mut Sample, names: &[&'static str]) {
    for name in names {
        let span = name.strip_suffix("_s").expect("a seconds metric");
        out.set(name, t.seconds(span));
    }
}

/// Sets the `vm.*` metrics from the counts and spans of the traced
/// `Vm::run` calls.
pub fn set_vm_counts(t: &Tracer, out: &mut Sample) {
    for name in ["vm.runs", "vm.op_units", "vm.crashes", "vm.dropped"] {
        out.set(name, t.counted(name) as f64);
    }
    out.set(
        "vm.op_units_per_s",
        t.counted("vm.op_units") as f64 / t.seconds("vm.run").max(f64::MIN_POSITIVE),
    );
}
