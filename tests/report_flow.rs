//! The remote-collection data path (§2.5, §5): reports serialize across
//! the "network", the collector aggregates them, and the sufficient-
//! statistics accumulator supports the same analyses without retaining raw
//! traces.

use cbi::prelude::*;
use cbi::reports::{wire, SparseArchive};
use cbi::stats::elimination::{apply, Strategy};
use cbi::workloads::{ccrypt_program, ccrypt_trials, CcryptTrialConfig};

fn small_campaign() -> CampaignResult {
    let program = ccrypt_program();
    let trials = ccrypt_trials(400, 17, &CcryptTrialConfig::default());
    let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(20));
    run_campaign(&program, &trials, &config).expect("campaign")
}

#[test]
fn reports_survive_the_wire_format() {
    let result = small_campaign();
    let sites = &result.instrumented.sites;
    let spool = wire::encode_reports(
        result.collector.reports(),
        sites.layout_hash(),
        sites.total_counters(),
    )
    .expect("serialize");
    let back = SparseArchive::read_stream(spool.as_slice()).expect("deserialize");
    let layout = back.layout().expect("the header's layout");
    assert_eq!(layout.layout_hash, sites.layout_hash());
    assert!(back
        .reports()
        .eq(result.collector.reports().iter().cloned()));
    assert_eq!(&back.stats(), result.collector.stats());
}

#[test]
fn sufficient_statistics_reproduce_elimination_results() {
    // Privacy path (§5): fold every report into aggregates, discard the
    // raw traces, and verify every elimination strategy gives identical
    // answers to the raw-report path.
    let result = small_campaign();
    let groups = result.instrumented.sites.groups();

    let from_raw: SufficientStats = result.collector.reports().iter().cloned().collect();

    // Simulate two collection servers, each discarding traces on arrival,
    // merged at analysis time.
    let mut server_a = SufficientStats::new(result.collector.counter_count());
    let mut server_b = SufficientStats::new(result.collector.counter_count());
    for (i, r) in result.collector.reports().iter().enumerate() {
        if i % 2 == 0 {
            server_a.update(r);
        } else {
            server_b.update(r);
        }
    }
    server_a.merge(&server_b);

    for strategy in [
        Strategy::UniversalFalsehood,
        Strategy::LackOfFailingCoverage,
        Strategy::LackOfFailingExample,
        Strategy::SuccessfulCounterexample,
    ] {
        assert_eq!(
            apply(&from_raw, strategy, &groups),
            apply(&server_a, strategy, &groups),
            "strategy {strategy} disagrees between raw and merged sufficient stats"
        );
    }
}

#[test]
fn report_size_is_independent_of_run_length() {
    // §2.5: "maintaining a vector of counters produces data for an
    // execution whose size is largely independent of the sampling density
    // or running time."
    let result = small_campaign();
    let sizes: Vec<usize> = result
        .collector
        .reports()
        .iter()
        .map(|r| r.counters.len())
        .collect();
    assert!(!sizes.is_empty());
    assert!(
        sizes.windows(2).all(|w| w[0] == w[1]),
        "all reports must have the same counter count"
    );
}

#[test]
fn collector_counts_match_labels() {
    let result = small_campaign();
    let successes = result.collector.with_label(Label::Success).count();
    let failures = result.collector.with_label(Label::Failure).count();
    assert_eq!(successes, result.collector.success_count());
    assert_eq!(failures, result.collector.failure_count());
    assert_eq!(successes + failures, result.collector.len());
}
