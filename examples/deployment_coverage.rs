//! Deployment coverage and detection latency — the paper's other
//! motivating uses (§1): "software authors may simply wish to know which
//! features are most commonly used, or … whether code not covered by
//! in-house testing is ever executed in practice."
//!
//! Run with: `cargo run --release --example deployment_coverage`

use cbi::prelude::*;
use cbi::workloads::{ccrypt_program, ccrypt_trials, CcryptTrialConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = ccrypt_program();
    let trials = ccrypt_trials(2500, 42, &CcryptTrialConfig::default());
    let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(50));
    let campaign = run_campaign(&program, &trials, &config)?;
    // The community's runs in arrival order: the first run to observe a
    // predicate fixes its detection latency.
    let mut first = cbi::FirstObservation::new(campaign.collector.counter_count());
    for (i, run) in campaign.collector.reports().iter().enumerate() {
        first.record(i, &run.counters);
    }

    println!(
        "simulated community: {} runs at {} sampling",
        campaign.collector.len(),
        SamplingDensity::one_in(50),
    );

    // 1. Which code paths does the community actually reach?
    let report = cbi::coverage(&campaign);
    println!(
        "site coverage: {}/{} sites reached ({:.0}%)",
        report.covered_sites,
        report.total_sites,
        report.site_coverage() * 100.0
    );
    if !report.never_true_predicates.is_empty() {
        println!("behaviours the deployment never exhibited:");
        for p in report.never_true_predicates.iter().take(8) {
            println!("  {p}");
        }
    }

    // 2. How quickly does the community surface interesting events?
    for needle in [
        "xreadline() == 0",
        "file_exists() > 0",
        "key_schedule() > 0",
    ] {
        match first.latency_of(&campaign.instrumented.sites, needle) {
            Some(runs) => println!("`{needle}` first observed after {runs} runs"),
            None => println!("`{needle}` never observed by this community"),
        }
    }

    println!();
    println!(
        "rare crash-path predicates take orders of magnitude longer to surface than \
         common ones — the deployment-scale arithmetic of §3.1.3 in action."
    );
    Ok(())
}
