//! The report archive a `keep_reports` server hands back: every
//! accepted report, in fold order, whatever the shard count, wherever
//! the committed batches were held, and whatever crash the journal
//! went through on the way.

use cbi::prelude::*;
use cbi_reports::frame::BatchEnvelope;
use cbi_reports::wire::encode_reports;
use cbi_reports::{AckVerdict, Report};
use cbi_serve::{FsyncPolicy, IngestCore, ServeConfig, ServeOutcome};
use std::path::PathBuf;

const BUGGY: &str = "fn g() -> int { if (has_input() == 0) { return 0; } return read(); }\n\
     fn main() -> int { int v = g(); print(100 / v); return 0; }";

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cbi-serve-archive-{}-{name}", std::process::id()));
    p
}

/// The campaign's reports in run order, and the same reports batched
/// so that `(seq, client)` order is run order.
fn fixture() -> (cbi::instrument::SiteTable, Vec<Report>, Vec<BatchEnvelope>) {
    let program = parse(BUGGY).unwrap();
    let trials: Vec<Vec<i64>> = (0..300)
        .map(|i| if i % 11 == 0 { vec![] } else { vec![i % 9 + 1] })
        .collect();
    let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(2));
    let result = cbi::workloads::run_campaign(&program, &trials, &config).unwrap();
    let sites = result.instrumented.sites.clone();
    let reports = result.collector.reports().to_vec();
    let envelopes = reports
        .chunks(7)
        .enumerate()
        .map(|(i, chunk)| {
            let payload =
                encode_reports(chunk, sites.layout_hash(), sites.total_counters()).unwrap();
            BatchEnvelope::new((i % 3) as u64, (i / 3) as u64, 0, payload)
        })
        .collect();
    (sites, reports, envelopes)
}

fn config(shards: usize, keep_reports: bool) -> ServeConfig {
    ServeConfig {
        shards,
        epoch_len: 64,
        keep_reports,
        ..ServeConfig::default()
    }
}

/// Submits in reverse: arrival order must not reach the archive.
fn submit_all(core: &mut IngestCore, envelopes: &[BatchEnvelope]) {
    for env in envelopes.iter().rev() {
        assert_eq!(
            core.submit(None, env.clone(), true).unwrap(),
            AckVerdict::Accepted
        );
    }
}

fn assert_archive_is(outcome: &ServeOutcome, reports: &[Report], context: &str) {
    let archive = outcome.collector.as_ref().expect("keep_reports was set");
    assert_eq!(archive.len(), reports.len(), "{context}");
    assert!(
        archive.reports().eq(reports.iter().cloned()),
        "{context}: archived reports differ from the submitted ones"
    );
    assert_eq!(archive.reports().collect::<Vec<_>>(), reports, "{context}");
    assert_eq!(outcome.aggregator.runs(), reports.len() as u64, "{context}");
}

#[test]
fn archive_holds_the_submitted_reports_in_fold_order() {
    let (sites, reports, envelopes) = fixture();
    for shards in [1, 4] {
        let mut core = IngestCore::new(sites.clone(), config(shards, true)).unwrap();
        submit_all(&mut core, &envelopes);
        let outcome = core.finish().unwrap();
        assert_archive_is(&outcome, &reports, &format!("{shards} shards, in memory"));

        let path = tmp(&format!("journaled-{shards}"));
        let mut core = IngestCore::new(sites.clone(), config(shards, true))
            .unwrap()
            .with_journal(&path, FsyncPolicy::Never)
            .unwrap();
        submit_all(&mut core, &envelopes);
        let outcome = core.finish().unwrap();
        assert_archive_is(&outcome, &reports, &format!("{shards} shards, journaled"));
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn archive_is_whole_again_after_a_torn_tail_resume() {
    let (sites, reports, envelopes) = fixture();
    let crash_at = envelopes.len() / 2;
    for shards in [1, 4] {
        let path = tmp(&format!("torn-{shards}"));
        let mut core = IngestCore::new(sites.clone(), config(shards, true))
            .unwrap()
            .with_journal(&path, FsyncPolicy::Never)
            .unwrap();
        submit_all(&mut core, &envelopes[..crash_at]);
        drop(core); // crash mid-append: the next record is cut short
        let torn = envelopes[crash_at].encode();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();

        let mut core = IngestCore::new(sites.clone(), config(shards, true))
            .unwrap()
            .resume(&path, FsyncPolicy::Never)
            .unwrap();
        // The client retransmits everything; the journaled half dedups.
        for env in &envelopes {
            let retry = BatchEnvelope::new(env.client, env.seq, 1, env.payload.clone());
            core.submit(None, retry, true).unwrap();
        }
        let outcome = core.finish().unwrap();
        assert!(outcome.summary.torn_tail);
        assert_eq!(outcome.summary.replayed, crash_at as u64);
        assert_archive_is(&outcome, &reports, &format!("{shards} shards, resumed"));
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn no_archive_unless_asked() {
    let (sites, reports, envelopes) = fixture();
    let mut core = IngestCore::new(sites, config(2, false)).unwrap();
    submit_all(&mut core, &envelopes);
    let outcome = core.finish().unwrap();
    assert!(outcome.collector.is_none());
    assert_eq!(outcome.aggregator.runs(), reports.len() as u64);
}
