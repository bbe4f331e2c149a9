//! A campaign with zero crashes must come back empty-handed, not wedge
//! or panic: elimination yields empty survivor sets (universal falsehood
//! removes everything when no run failed), the streaming ranking stays
//! well-defined, and the regression pipeline reports a typed error
//! instead of training on nothing.

use cbi::prelude::*;

fn trials(n: usize) -> Vec<Vec<i64>> {
    (0..n)
        .map(|i| vec![i as i64 % 7, (i as i64 % 11) - 5, i as i64])
        .collect()
}

fn config() -> CampaignConfig {
    CampaignConfig::sampled(Scheme::Checks, SamplingDensity::one_in(1))
}

#[test]
fn zero_crash_campaign_yields_empty_survivor_sets() {
    // Scan testgen seeds for a program whose density-1 Checks campaign
    // has zero failures (generated index arithmetic is clamped, so most
    // seeds qualify; the scan just avoids hard-coding one).
    let trial_set = trials(64);
    let mut found = None;
    for seed in 0..200 {
        let program = cbi_testgen::program_for_seed(seed);
        let mut analyzer = StreamingAnalyzer::new(StreamingConfig::default());
        let mut collector = Collector::default();
        let mut sink = (&mut collector, &mut analyzer);
        let run = run_campaign_into(&program, &trial_set, &config(), &mut sink).unwrap();
        if run.emitted == trial_set.len() && analyzer.stats().failure_runs() == 0 {
            found = Some((analyzer, collector, run));
            break;
        }
    }
    let (analyzer, collector, run) = found.expect("some testgen seed in 0..200 is crash-free");
    assert_eq!(analyzer.seen(), trial_set.len() as u64);

    let elim = analyzer.eliminate(&run.instrumented.sites);
    assert_eq!(elim.runs, trial_set.len());
    assert_eq!(elim.failures, 0);
    // Universal falsehood keeps whatever was ever observed true, but the
    // failure-facing strategies have nothing to keep, and the combined
    // UF ∧ SC set is empty: nothing observed true only outside successes.
    assert_eq!(
        elim.independent_survivors[1], 0,
        "lack of failing coverage must eliminate everything with zero failures"
    );
    assert_eq!(
        elim.independent_survivors[2], 0,
        "lack of failing example must eliminate everything with zero failures"
    );
    assert!(elim.combined.is_empty(), "combined: {:?}", elim.combined);
    assert!(elim.combined_names.is_empty());

    // The streaming model's ranking is still total over the counter
    // layout: it saw only successes, but ranking must not panic or shrink.
    let n = run.instrumented.sites.total_counters();
    let model = train(n, collector.reports(), analyzer.config());
    assert_eq!(model.ranked_features().len(), n);
    assert!(model.bias < 0.0, "only successes: the model predicts none");
}

#[test]
fn empty_stream_and_empty_campaign_are_handled() {
    let program = cbi_testgen::program_for_seed(3);

    // Zero-trial campaign: succeeds, collects nothing, and `regress`
    // reports a typed error instead of training on an empty dataset.
    let result = run_campaign(&program, &[], &config()).unwrap();
    assert!(result.collector.is_empty());
    let err = regress(&result, &RegressionConfig::default()).unwrap_err();
    assert_eq!(err, PipelineError::NoReports);

    // Fresh sufficient statistics (no report ever folded in): the
    // elimination strategies run to completion with empty survivors.
    let sites = &result.instrumented.sites;
    let n = sites.total_counters();
    let stats = SufficientStats::new(n);
    let elim = cbi::eliminate_stats(&stats, &sites.groups(), sites);
    assert_eq!(elim.runs, 0);
    assert_eq!(elim.failures, 0);
    assert_eq!(elim.independent_survivors[0], 0);
    assert!(elim.combined.is_empty());

    // An analyzer that began a stream but saw no reports mirrors that.
    let mut analyzer = StreamingAnalyzer::new(StreamingConfig::default());
    analyzer
        .begin(ReportLayout {
            counters: n,
            layout_hash: sites.layout_hash(),
        })
        .unwrap();
    assert_eq!(analyzer.seen(), 0);
    let elim = analyzer.eliminate(sites);
    assert_eq!(elim.runs, 0);
    assert!(elim.combined.is_empty());
    // A model over no rows is the zero model, its ranking total.
    let model = train(n, std::iter::empty::<&Report>(), analyzer.config());
    assert_eq!(model.ranked_features().len(), n);

    // Before any `begin` there is no layout to train a model of, and
    // the analyzer reports nothing rather than panicking.
    let fresh = StreamingAnalyzer::new(StreamingConfig::default());
    assert!(fresh.layout().is_none());
    assert_eq!(fresh.seen(), 0);
}
