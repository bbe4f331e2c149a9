//! End-to-end remote collection: a campaign transmits its reports over
//! loopback TCP to the ingest server, and the server-side analyses must
//! agree exactly with the in-process ones — same elimination survivors,
//! same regression top-10, bit-identical report archive, the same
//! rendered analysis as an in-process epoch fold.  Streaming analysis
//! must also stay memory-bounded: the analyzer's state is as large after
//! fifty thousand reports as after one.

use cbi::prelude::*;
use cbi::reports::{AckVerdict, SinkError, WireErrorKind};
use cbi::{EpochAggregator, RegressionConfig};
use cbi_serve::{
    render_analysis, IngestCore, ServeConfig, ServeOutcome, ServerOptions, TcpIngestServer,
};
use std::error::Error;
use std::thread::JoinHandle;

/// The quickstart bug: crashes whenever `g()` returns zero.
const BUGGY: &str = "fn g() -> int { if (has_input() == 0) { return 0; } return read(); }\n\
     fn main() -> int { int v = g(); print(100 / v); return 0; }";

fn trials(n: usize) -> Vec<Vec<i64>> {
    (0..n)
        .map(|i| {
            if i % 11 == 0 {
                vec![]
            } else {
                vec![(i as i64 % 9) + 1]
            }
        })
        .collect()
}

fn config() -> CampaignConfig {
    CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(2))
}

/// A one-shard ingest server for `sites` that keeps every report and
/// serves one client: its address, and the thread that returns its
/// outcome.
fn serve_one(sites: SiteTable) -> (String, JoinHandle<ServeOutcome>) {
    let config = ServeConfig {
        keep_reports: true,
        ..ServeConfig::default()
    };
    let core = IngestCore::new(sites, config).unwrap();
    let options = ServerOptions {
        acceptors: 1,
        max_clients: 1,
    };
    let server = TcpIngestServer::bind(core, "127.0.0.1:0", options).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || server.run().unwrap()))
}

#[test]
fn loopback_campaign_matches_in_process_analysis() {
    let program = parse(BUGGY).unwrap();
    let trial_set = trials(400);

    // In-process baseline: collector + streaming analyzer side by side.
    let mut local_analyzer = StreamingAnalyzer::new(StreamingConfig::default());
    let mut local = Collector::default();
    let mut local_sink = (&mut local, &mut local_analyzer);
    let baseline = run_campaign_into(&program, &trial_set, &config(), &mut local_sink).unwrap();
    let local_result = run_campaign(&program, &trial_set, &config()).unwrap();
    assert_eq!(local.reports(), local_result.collector.reports());

    // Remote: the server folds the stream and keeps its reports.
    let sites = baseline.instrumented.sites.clone();
    let (addr, server) = serve_one(sites.clone());
    let mut transmit = TransmitSink::connect(&addr).unwrap();
    let run = run_campaign_into(&program, &trial_set, &config(), &mut transmit).unwrap();
    assert_eq!(transmit.verdict(), Some(AckVerdict::Accepted));
    let outcome = server.join().unwrap();
    let remote = outcome.collector.as_ref().expect("keep_reports");

    // The wire preserved the stream bit-for-bit.
    assert_eq!(outcome.summary.reports as usize, run.emitted);
    assert_eq!(
        remote.reports().collect::<Vec<_>>(),
        local_result.collector.reports()
    );

    // Elimination: streaming (remote, aggregates only) equals in-process.
    let local_elim = cbi::eliminate(&local_result);
    let remote_analyzer = outcome.aggregator.analyzer();
    let remote_elim = remote_analyzer.eliminate(&sites);
    assert_eq!(
        remote_elim.independent_survivors,
        local_elim.independent_survivors
    );
    assert_eq!(remote_elim.combined, local_elim.combined);
    assert_eq!(remote_elim.combined_names, local_elim.combined_names);
    assert!(
        remote_elim
            .combined_names
            .iter()
            .any(|p| p.contains("g() == 0")),
        "the culprit must survive: {:?}",
        remote_elim.combined_names
    );

    // Batch regression over the server's archive equals in-process.
    let n = local_result.collector.len();
    let rc = RegressionConfig::paper_proportions(n);
    let local_study = cbi::regress(&local_result, &rc).unwrap();
    let remote_study = cbi::regress_rows(&sites, remote.rows(), &rc).unwrap();
    assert_eq!(remote_study.top(10), local_study.top(10));
    assert_eq!(remote_study.ranked_counters, local_study.ranked_counters);

    // The server's streaming model is bit-identical to one pass over the
    // local stream: the deterministic update sequence saw the same rows.
    let serve = ServeConfig::default();
    let width = sites.total_counters();
    let local_model = train(width, local.reports(), &TrainConfig::default());
    let remote_model = outcome.aggregator.model().expect("trained beside the fold");
    let bits = |m: &LogisticModel| -> Vec<u64> { m.weights.iter().map(|w| w.to_bits()).collect() };
    assert_eq!(bits(remote_model), bits(&local_model));
    assert_eq!(remote_model.bias.to_bits(), local_model.bias.to_bits());
    assert_eq!(remote_analyzer.seen(), local_analyzer.seen());
    assert_eq!(remote_analyzer.stats(), local_analyzer.stats());

    // The rendered analysis equals an in-process epoch fold of the
    // same reports, with that model attached.
    let mut local_epochs =
        EpochAggregator::new(sites.clone(), serve.epoch_len, TrainConfig::default(), None);
    local_epochs
        .begin(ReportLayout {
            counters: sites.total_counters(),
            layout_hash: sites.layout_hash(),
        })
        .unwrap();
    for report in local.reports() {
        local_epochs.accept(report.clone()).unwrap();
    }
    local_epochs.close();
    local_epochs.attach_model(local_model);
    assert_eq!(
        render_analysis(&outcome.aggregator, 10),
        render_analysis(&local_epochs, 10)
    );
}

#[test]
fn streaming_analysis_never_materializes_the_report_vector() {
    // 50k trials streamed into the analyzer: its state — the counter
    // width and what the sufficient statistics hold on the heap — is
    // what it was after one report, O(counters) whatever the trial count.
    let program = parse(BUGGY).unwrap();
    let state = |trials: &[Vec<i64>]| {
        let mut analyzer = StreamingAnalyzer::new(StreamingConfig::default());
        let run = run_campaign_into(&program, trials, &config(), &mut analyzer).unwrap();
        assert_eq!(run.emitted as u64, analyzer.seen());
        analyzer
    };
    let one = state(&trials(1));
    let many = state(&trials(50_000));

    assert_eq!(many.seen(), 50_000);
    assert!(many.stats().failure_runs() > 0);
    let width = one.stats().counter_count();
    assert!(width > 0);
    assert_eq!(many.stats().counter_count(), width);
    assert_eq!(many.stats().heap_bytes(), one.stats().heap_bytes());
    assert_eq!(
        one.stats().heap_bytes(),
        2 * width * std::mem::size_of::<u64>()
    );
}

#[test]
fn server_rejects_campaign_from_a_different_binary() {
    let program = parse(BUGGY).unwrap();
    let trial_set = trials(40);

    // Server pinned to the Returns layout.
    let inst = instrument(&program, Scheme::Returns).unwrap();
    let (addr, server) = serve_one(inst.sites);

    // Client instrumented with a different scheme: layout hash differs.
    let mut transmit = TransmitSink::connect(&addr).unwrap();
    let err = run_campaign_into(
        &program,
        &trial_set,
        &CampaignConfig::sampled(Scheme::Branches, SamplingDensity::one_in(2)),
        &mut transmit,
    )
    .unwrap_err();
    // The server's typed rejection reaches the client, naming the kind.
    let rejection = err.source().and_then(|e| e.downcast_ref::<SinkError>());
    assert!(
        matches!(
            rejection,
            Some(SinkError::Rejected(WireErrorKind::LayoutHashMismatch))
        ),
        "{err}"
    );

    // The stale stream is counted as a rejected delivery and nothing
    // from it is folded or kept.
    let outcome = server.join().unwrap();
    assert_eq!(outcome.summary.rejected_batches, 1);
    assert_eq!(outcome.aggregator.runs(), 0);
    assert!(outcome.collector.unwrap().is_empty());
}
