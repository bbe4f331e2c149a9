//! Edge cases of the analysis pipelines: degenerate campaigns, all-success
//! and all-failure report sets.

use cbi::prelude::*;
use cbi::stats::CrossvalError;
use cbi::RegressionConfig;

const HEALTHY: &str = "fn g() -> int { return 1; }\n\
     fn main() -> int { int x = g(); print(x); return 0; }";

const DOOMED: &str = "fn g() -> int { return 0; }\n\
     fn main() -> int { int x = g(); ptr p; return p[0]; }";

fn campaign(src: &str, runs: usize) -> CampaignResult {
    let program = parse(src).unwrap();
    let trials: Vec<Vec<i64>> = (0..runs).map(|_| vec![]).collect();
    run_campaign(
        &program,
        &trials,
        &CampaignConfig::sampled(Scheme::Returns, SamplingDensity::always()),
    )
    .unwrap()
}

#[test]
fn all_success_campaign_eliminates_everything() {
    let result = campaign(HEALTHY, 50);
    assert_eq!(result.collector.failure_count(), 0);
    let report = cbi::eliminate(&result);
    // With zero failures, nothing is "sometimes true in failures":
    // lack-of-failing-example leaves nothing and the combination is empty.
    assert_eq!(report.independent_survivors[2], 0);
    assert!(report.combined.is_empty(), "{:?}", report.combined_names);
}

#[test]
fn all_failure_campaign_blames_everything_observed() {
    let result = campaign(DOOMED, 50);
    assert_eq!(result.collector.success_count(), 0);
    let report = cbi::eliminate(&result);
    // With zero successes, successful counterexample cannot eliminate
    // anything: the combination equals the universal-falsehood survivors.
    assert_eq!(report.combined.len(), report.independent_survivors[0]);
    assert!(!report.combined.is_empty());
}

#[test]
fn regress_handles_single_class_gracefully() {
    // Degenerate training data (all success) still trains a model; it
    // should predict "no crash" everywhere and report that accuracy.
    let result = campaign(HEALTHY, 60);
    let study = cbi::regress(
        &result,
        &RegressionConfig {
            train: 40,
            cv: 10,
            ..RegressionConfig::default()
        },
    )
    .unwrap();
    assert_eq!(study.failure_rate, 0.0);
    assert!(study.test_accuracy > 0.99);
}

#[test]
fn regress_reports_empty_campaign_as_typed_error() {
    let result = campaign(HEALTHY, 0);
    let err = cbi::regress(&result, &RegressionConfig::default()).unwrap_err();
    assert_eq!(err, PipelineError::NoReports);
    assert!(err.to_string().contains("no reports"));
}

#[test]
fn regress_reports_oversized_split_as_typed_error() {
    let result = campaign(HEALTHY, 10);
    let err = cbi::regress(
        &result,
        &RegressionConfig {
            train: 9,
            cv: 5,
            ..RegressionConfig::default()
        },
    )
    .unwrap_err();
    assert_eq!(
        err,
        PipelineError::SplitExceedsReports {
            train: 9,
            cv: 5,
            total: 10
        }
    );
    assert!(err.to_string().contains("exceed"));
}

#[test]
fn regression_study_rank_lookup_misses_cleanly() {
    let result = campaign(DOOMED, 40);
    let study = cbi::regress(
        &result,
        &RegressionConfig {
            train: 25,
            cv: 8,
            ..RegressionConfig::default()
        },
    )
    .unwrap();
    assert!(study.rank_of("not a predicate").is_none());
    assert!(study.top(1000).len() <= study.ranked.len());
}

#[test]
fn eliminate_names_match_site_table() {
    let result = campaign(DOOMED, 30);
    let report = cbi::eliminate(&result);
    for (idx, name) in report.combined.iter().zip(&report.combined_names) {
        assert_eq!(
            *name,
            result.instrumented.sites.predicate_name(*idx),
            "name/index mismatch"
        );
    }
}

#[test]
fn regress_reports_an_empty_cv_split_as_typed_error() {
    // Below 14 reports the paper's proportions leave no cv rows.
    let result = campaign(HEALTHY, 10);
    let config = RegressionConfig::paper_proportions(10);
    assert_eq!(config.cv, 0);
    let err = cbi::regress(&result, &config).unwrap_err();
    assert_eq!(err, PipelineError::Crossval(CrossvalError::EmptySplit));
    assert!(err
        .to_string()
        .contains("empty train or cross-validation split"));
}

#[test]
fn regress_reports_the_default_empty_train_split_as_typed_error() {
    let result = campaign(HEALTHY, 10);
    let err = cbi::regress(&result, &RegressionConfig::default()).unwrap_err();
    assert_eq!(err, PipelineError::Crossval(CrossvalError::EmptySplit));
}

#[test]
fn regress_reports_no_lambda_candidates_as_typed_error() {
    let result = campaign(HEALTHY, 30);
    let config = RegressionConfig {
        train: 20,
        cv: 5,
        lambdas: vec![],
        ..RegressionConfig::default()
    };
    let err = cbi::regress(&result, &config).unwrap_err();
    assert_eq!(err, PipelineError::Crossval(CrossvalError::NoCandidates));
    assert!(err.to_string().contains("lambda candidate"));
}
