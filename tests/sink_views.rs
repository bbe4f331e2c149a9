//! Every sink that keeps reports or their statistics is a view of one
//! fold (§5): fed the same report stream — whole, or as the several
//! batches a `BatchIngest` commits one `begin` at a time — the dense
//! `Collector`, the `StreamingAnalyzer`, the `EpochAggregator`'s
//! analyzer and the `FailureIndex` hold the same `SufficientStats`, and
//! so do the rows of a `SparseArchive`, whether it was filled report by
//! report or from wire batches.

use cbi::instrument::SiteTable;
use cbi::prelude::*;
use cbi::reports::{wire, BatchIngest, SparseArchive};
use cbi::workloads::{
    bc_program, bc_trials, ccrypt_program, ccrypt_trials, BcTrialConfig, CcryptTrialConfig,
};
use cbi::EpochAggregator;
use cbi_scoring::FailureIndex;

/// A seeded campaign's sites, layout and report stream.
fn campaign(
    program: &Program,
    trials: &[Vec<i64>],
    scheme: Scheme,
    density: u64,
) -> (SiteTable, ReportLayout, Vec<Report>) {
    let mut config = CampaignConfig::sampled(scheme, SamplingDensity::one_in(density));
    config.seed = 0x5_11e;
    let result = run_campaign(program, trials, &config).expect("campaign");
    let sites = result.instrumented.sites;
    let layout = ReportLayout {
        counters: sites.total_counters(),
        layout_hash: sites.layout_hash(),
    };
    (sites, layout, result.collector.reports().to_vec())
}

/// Every sink of the stream, empty.
struct Views {
    collector: Collector,
    streaming: StreamingAnalyzer,
    epochs: EpochAggregator,
    index: FailureIndex,
    accepted: SparseArchive,
    walked: SparseArchive,
}

impl Views {
    fn new(sites: &SiteTable) -> Views {
        Views {
            collector: Collector::default(),
            streaming: StreamingAnalyzer::new(StreamingConfig::default()),
            epochs: EpochAggregator::new(sites.clone(), 64, TrainConfig::default(), None),
            index: FailureIndex::new(),
            accepted: SparseArchive::default(),
            walked: SparseArchive::default(),
        }
    }

    /// Feeds `batches` (together, the whole stream) to every sink: each
    /// wire batch through a `BatchIngest` per sink — one `begin` per
    /// batch — and into `walked` by `extend_from_batch`.
    fn feed(&mut self, layout: ReportLayout, batches: &[&[Report]]) {
        fn ingest<S: ReportSink>(sink: S, layout: ReportLayout, bytes: &[Vec<u8>]) {
            let mut ingest = BatchIngest::new(sink, Some(layout));
            for batch in bytes {
                ingest.ingest(batch).expect("a clean batch");
            }
        }
        let bytes: Vec<Vec<u8>> = batches
            .iter()
            .map(|batch| {
                wire::encode_reports(batch, layout.layout_hash, layout.counters).expect("encode")
            })
            .collect();
        ingest(&mut self.collector, layout, &bytes);
        ingest(&mut self.streaming, layout, &bytes);
        ingest(&mut self.epochs, layout, &bytes);
        ingest(&mut self.index, layout, &bytes);
        ingest(&mut self.accepted, layout, &bytes);
        for batch in &bytes {
            self.walked.extend_from_batch(batch).expect("a clean batch");
        }
    }

    /// The one fold every view holds, after checking that they agree.
    fn fold(&self, name: &str) -> SufficientStats {
        let stats = self.collector.stats().clone();
        assert_eq!(self.streaming.stats(), &stats, "{name}: streaming");
        assert_eq!(self.epochs.analyzer().stats(), &stats, "{name}: epochs");
        assert_eq!(self.index.stats(), &stats, "{name}: failure index");
        assert_eq!(self.accepted.stats(), stats, "{name}: accepted rows");
        assert_eq!(self.walked.stats(), stats, "{name}: walked rows");
        assert_eq!(self.accepted, self.walked, "{name}: one row store");
        let runs = stats.success_runs() + stats.failure_runs();
        assert_eq!(self.collector.len() as u64, runs, "{name}");
        assert_eq!(self.streaming.seen(), runs, "{name}");
        assert_eq!(
            (self.epochs.runs(), self.epochs.failures()),
            (runs, stats.failure_runs()),
            "{name}"
        );
        let failing = self.index.failures();
        assert_eq!(failing.len() as u64, stats.failure_runs(), "{name}");
        let failing_rows = self.walked.rows().filter(|r| r.label == Label::Failure);
        assert!(failing.rows().eq(failing_rows), "{name}: failing rows");
        stats
    }
}

#[test]
fn every_sink_is_a_view_of_one_fold() {
    let ccrypt = (
        "ccrypt/returns at 1/100",
        ccrypt_program(),
        ccrypt_trials(300, 47, &CcryptTrialConfig::default()),
        Scheme::Returns,
        100,
    );
    let bc = (
        "bc/scalar-pairs at 1/1",
        bc_program(),
        bc_trials(120, 53, &BcTrialConfig::default()),
        Scheme::ScalarPairs,
        1,
    );
    for (name, program, trials, scheme, density) in [ccrypt, bc] {
        let (sites, layout, reports) = campaign(&program, &trials, scheme, density);
        let mut whole = Views::new(&sites);
        whole.feed(layout, &[&reports]);
        let fold = whole.fold(name);
        assert!(fold.failure_runs() > 0 && fold.success_runs() > 0, "{name}");

        // Uneven batches: one report, a third of the stream, the rest in
        // two.
        let (one, rest) = reports.split_at(1);
        let (third, rest) = rest.split_at(reports.len() / 3);
        let (fourth, last) = rest.split_at(rest.len() / 2);
        let mut batched = Views::new(&sites);
        batched.feed(layout, &[one, third, fourth, last]);
        assert_eq!(batched.fold(name), fold, "{name}: batched vs whole");
        assert_eq!(batched.walked, whole.walked, "{name}: batched rows");
    }
}

#[test]
fn a_same_width_layout_from_another_binary_is_refused_by_its_hash() {
    fn refusal<S: ReportSink>(mut sink: S) -> String {
        let fixed = ReportLayout {
            counters: 2,
            layout_hash: 0x0123_4567_89ab_cdef,
        };
        sink.begin(fixed).expect("the first layout");
        let other = ReportLayout {
            layout_hash: 0xfeed,
            ..fixed
        };
        sink.begin(other).expect_err("another binary").to_string()
    }
    for (name, message) in [
        ("collector", refusal(Collector::default())),
        ("archive", refusal(SparseArchive::default())),
        ("failure index", refusal(FailureIndex::new())),
        (
            "streaming",
            refusal(StreamingAnalyzer::new(StreamingConfig::default())),
        ),
    ] {
        assert!(
            message.contains("0x0123456789abcdef") && message.contains("0x000000000000feed"),
            "{name}: {message}"
        );
    }
}
