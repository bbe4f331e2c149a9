//! Telemetry must observe, never perturb: campaign output is required to
//! be byte-identical with telemetry on or off, and at any `--jobs` level.
//!
//! Telemetry state is process-global, so these tests serialize through a
//! mutex rather than relying on test-runner ordering.

use cbi::prelude::*;
use cbi::reports::wire;
use cbi::workloads::{ccrypt_program, ccrypt_trials, CcryptTrialConfig};
use std::sync::Mutex;

static GATE: Mutex<()> = Mutex::new(());

/// The campaign's reports as the spool bytes `cbi campaign --spool` writes.
fn campaign_spool(jobs: usize, telemetry_on: bool) -> Vec<u8> {
    if telemetry_on {
        cbi::telemetry::reset();
        cbi::telemetry::enable();
    }
    let program = ccrypt_program();
    let trials = ccrypt_trials(240, 9001, &CcryptTrialConfig::default());
    let mut config =
        CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(13)).with_jobs(jobs);
    config.seed = 77;
    let result = run_campaign(&program, &trials, &config).expect("campaign");
    if telemetry_on {
        cbi::telemetry::disable();
    }
    let sites = &result.instrumented.sites;
    wire::encode_reports(
        result.collector.reports(),
        sites.layout_hash(),
        sites.total_counters(),
    )
    .expect("serialize")
}

#[test]
fn collector_output_is_identical_with_telemetry_on_or_off() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let off = campaign_spool(1, false);
    let on = campaign_spool(1, true);
    let metrics = cbi::telemetry::collect();
    assert_eq!(off, on, "telemetry recording changed campaign output");
    // And the recording actually happened: the run left real measurements.
    assert!(metrics.counter("vm.runs") > 0);
    assert!(metrics.counter("campaign.trials") > 0);
}

#[test]
fn collector_output_is_identical_across_job_counts_with_telemetry_on() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let serial = campaign_spool(1, true);
    cbi::telemetry::collect(); // drain between runs
    let parallel = campaign_spool(4, true);
    let metrics = cbi::telemetry::collect();
    assert_eq!(
        serial, parallel,
        "job count changed campaign output under telemetry"
    );
    // Four logical workers each executed at least one shard.
    for worker in 1..=4u32 {
        assert!(
            metrics.worker_counter(worker, "campaign.trials") > 0,
            "worker {worker} recorded no trials"
        );
    }
}

#[test]
fn metrics_capture_is_internally_consistent() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let _ = campaign_spool(2, true);
    let m = cbi::telemetry::collect();

    // Every trial ran exactly one VM execution; per-worker trial counts
    // sum to the global counter.
    assert_eq!(m.counter("vm.runs"), m.counter("campaign.trials"));
    let per_worker: u64 = m
        .per_worker
        .values()
        .map(|c| c.get("campaign.trials").copied().unwrap_or(0))
        .sum();
    assert_eq!(per_worker, m.counter("campaign.trials"));

    // Phase spans cover the campaign; the ops histogram matches vm.ops.
    assert!(m.span_total_ns("campaign.execute") > 0);
    assert!(m.span_total_ns("campaign.merge") > 0);
    let h = m.histogram("vm.ops_per_run").expect("ops histogram");
    assert_eq!(h.count, m.counter("vm.runs"));
    assert_eq!(h.sum, m.counter("vm.ops"));
}
