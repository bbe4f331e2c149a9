//! End-to-end reproduction of the ccrypt case study (§3.2) at test scale.
//!
//! Smaller than `cbi experiments ccrypt_study` (which uses 6000 runs)
//! so it stays fast in debug builds, but it exercises the identical
//! pipeline: fuzz trials → returns-scheme instrumentation → sampling
//! transformation → campaign → the four elimination strategies.

use cbi::prelude::*;
use cbi::workloads::{ccrypt_program, ccrypt_trials, CcryptTrialConfig};

fn campaign(runs: usize, seed: u64, density: SamplingDensity) -> CampaignResult {
    let program = ccrypt_program();
    let trials = ccrypt_trials(runs, seed, &CcryptTrialConfig::default());
    let config = CampaignConfig::sampled(Scheme::Returns, density);
    run_campaign(&program, &trials, &config).expect("campaign")
}

#[test]
fn combination_isolates_the_two_paper_predicates() {
    // Denser sampling than the headline experiment compensates for the
    // smaller run count; the analysis is unchanged.
    let result = campaign(2000, 2003, SamplingDensity::one_in(25));
    let report = cbi::eliminate(&result);

    assert!(
        report
            .combined_names
            .iter()
            .any(|n| n.contains("xreadline() == 0")),
        "smoking gun missing: {:?}",
        report.combined_names
    );
    assert!(
        report
            .combined_names
            .iter()
            .any(|n| n.contains("file_exists() > 0")),
        "correlated predicate missing: {:?}",
        report.combined_names
    );
    assert!(
        report.combined.len() <= 4,
        "combination should isolate a handful of predicates, got {:?}",
        report.combined_names
    );
}

#[test]
fn crash_rate_matches_the_paper_band() {
    let result = campaign(2000, 7, SamplingDensity::one_in(100));
    let rate = result.collector.failure_count() as f64 / result.collector.len() as f64;
    assert!(
        (0.01..0.10).contains(&rate),
        "ccrypt crash rate {rate} out of band"
    );
}

#[test]
fn elimination_subset_relations_hold_on_real_data() {
    use cbi::stats::elimination::{apply, survivors, Strategy};
    let result = campaign(800, 13, SamplingDensity::one_in(25));
    let stats: SufficientStats = result.collector.reports().iter().cloned().collect();
    let groups = result.instrumented.sites.groups();

    let uf = survivors(&apply(&stats, Strategy::UniversalFalsehood, &groups));
    let cov = survivors(&apply(&stats, Strategy::LackOfFailingCoverage, &groups));
    let ex = survivors(&apply(&stats, Strategy::LackOfFailingExample, &groups));

    // §3.2.2: (universal falsehood) and (lack of failing coverage) each
    // eliminate a subset of what (lack of failing example) eliminates.
    for c in &ex {
        assert!(uf.contains(c), "ex ⊆ uf violated for counter {c}");
        assert!(cov.contains(c), "ex ⊆ cov violated for counter {c}");
    }
}

#[test]
fn progressive_elimination_shrinks_with_more_runs() {
    use cbi::stats::elimination::{apply, survivors, Strategy};
    use cbi::stats::{progressive_elimination, ProgressiveConfig};

    let result = campaign(1200, 19, SamplingDensity::one_in(25));
    let stats: SufficientStats = result.collector.reports().iter().cloned().collect();
    let groups = result.instrumented.sites.groups();
    let candidates = survivors(&apply(&stats, Strategy::UniversalFalsehood, &groups));

    let points = progressive_elimination(
        result.collector.reports(),
        &candidates,
        &ProgressiveConfig {
            step: 100,
            repetitions: 30,
            seed: 5,
        },
    );
    assert!(points.len() >= 5);
    let first = &points[0];
    let last = points.last().expect("nonempty");
    assert!(
        last.mean < first.mean,
        "candidates must shrink: {first:?} -> {last:?}"
    );
    // The two true survivors never get eliminated.
    assert!(last.mean >= 2.0 - 1e-9, "survivors floor: {last:?}");
}

#[test]
fn unconditional_and_sampled_campaigns_agree_on_labels() {
    let program = ccrypt_program();
    let trials = ccrypt_trials(300, 3, &CcryptTrialConfig::default());
    let sampled = run_campaign(
        &program,
        &trials,
        &CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(50)),
    )
    .expect("sampled campaign");
    let uncond = run_campaign(
        &program,
        &trials,
        &CampaignConfig::unconditional(Scheme::Returns),
    )
    .expect("unconditional campaign");
    // Sampling never changes control flow, only observation counts.
    let labels = |r: &CampaignResult| -> Vec<Label> {
        r.collector.reports().iter().map(|x| x.label).collect()
    };
    assert_eq!(labels(&sampled), labels(&uncond));
}
