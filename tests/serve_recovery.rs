//! Crash recovery: kill the server mid-ingest — after a partial
//! journal append, including a torn final record — restart, replay,
//! and a full client retransmit sweep must end in an analysis
//! byte-identical to an uninterrupted run.  A server resumed from its
//! journal must also take new streams and dedup a re-sent one.

use cbi::prelude::*;
use cbi_reports::frame::{exchange, BatchEnvelope};
use cbi_reports::wire::encode_reports;
use cbi_reports::{AckVerdict, Report, WireError, WireErrorKind};
use cbi_serve::journal::{JOURNAL_MAGIC, JOURNAL_VERSION};
use cbi_serve::{
    render_analysis, FsyncPolicy, IngestCore, ServeConfig, ServeError, ServeOutcome, ServerOptions,
    TcpIngestServer,
};
use std::path::{Path, PathBuf};

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

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("cbi-serve-recovery-{}-{name}", std::process::id()));
    p
}

fn fixture() -> (cbi::instrument::SiteTable, Vec<BatchEnvelope>) {
    let program = parse(BUGGY).unwrap();
    let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(2));
    let result = cbi::workloads::run_campaign(&program, &trials(500), &config).unwrap();
    let sites = result.instrumented.sites.clone();
    let reports: Vec<Report> = result.collector.reports().to_vec();
    let envelopes = reports
        .chunks(16)
        .enumerate()
        .map(|(i, chunk)| {
            let payload =
                encode_reports(chunk, sites.layout_hash(), sites.total_counters()).unwrap();
            BatchEnvelope::new((i % 4) as u64, i as u64, 0, payload)
        })
        .collect();
    (sites, envelopes)
}

fn config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        epoch_len: 128,
        ..ServeConfig::default()
    }
}

#[test]
fn journal_resume_after_torn_append_is_byte_identical() {
    let (sites, envelopes) = fixture();
    let n = envelopes.len();
    assert!(n > 10, "fixture too small to interrupt meaningfully");
    let crash_at = n / 2;

    // Uninterrupted golden: every batch through a journaled core.
    let golden_path = tmp("golden.journal");
    let mut core = IngestCore::new(sites.clone(), config(2))
        .unwrap()
        .with_journal(&golden_path, FsyncPolicy::EveryN(4))
        .unwrap();
    for env in &envelopes {
        assert_eq!(
            core.submit(None, env.clone(), true).unwrap(),
            AckVerdict::Accepted
        );
    }
    let golden_outcome = core.finish().unwrap();
    let golden = render_analysis(&golden_outcome.aggregator, 10);
    assert!(golden.contains("g() == 0"), "culprit must survive");

    // Crashed run: half the batches land, then the process dies while
    // appending the next record — the journal ends in a torn record.
    let path = tmp("crash.journal");
    let mut core = IngestCore::new(sites.clone(), config(2))
        .unwrap()
        .with_journal(&path, FsyncPolicy::EveryN(4))
        .unwrap();
    for env in &envelopes[..crash_at] {
        core.submit(None, env.clone(), true).unwrap();
    }
    drop(core); // crash: no finish, no final sync
    let torn = envelopes[crash_at].encode();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&torn[..torn.len() * 2 / 3]);
    std::fs::write(&path, &bytes).unwrap();

    // Restart: replay recovers the intact half and truncates the tear.
    let mut core = IngestCore::new(sites.clone(), config(2))
        .unwrap()
        .resume(&path, FsyncPolicy::EveryN(4))
        .unwrap();

    // The client never saw acks for the tail, so it retransmits the
    // whole campaign (attempt 1).  The journaled half dedups; the torn
    // batch and the tail commit.
    let mut duplicates = 0;
    let mut accepted = 0;
    for env in &envelopes {
        let retry = BatchEnvelope::new(env.client, env.seq, 1, env.payload.clone());
        match core.submit(None, retry, true).unwrap() {
            AckVerdict::Duplicate => duplicates += 1,
            AckVerdict::Accepted => accepted += 1,
            other => panic!("unexpected verdict {other:?}"),
        }
    }
    assert_eq!(duplicates, crash_at);
    assert_eq!(accepted, n - crash_at);

    let outcome = core.finish().unwrap();
    assert_eq!(outcome.summary.replayed, crash_at as u64);
    assert!(outcome.summary.torn_tail, "the torn record must be seen");

    let resumed = render_analysis(&outcome.aggregator, 10);
    assert_eq!(
        resumed, golden,
        "resumed analysis must be byte-identical to the uninterrupted run"
    );
    // Snapshot-by-snapshot equality of everything the analysis owns.
    // (Retry attribution legitimately differs: the tail committed on
    // attempt 1 after the crash, attempt 0 in the golden run.)
    let project = |agg: &cbi::EpochAggregator| {
        agg.snapshots()
            .iter()
            .map(|s| {
                (
                    s.epoch,
                    s.runs,
                    s.failures,
                    s.observed,
                    s.survivors,
                    s.bytes,
                    s.batches,
                )
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        project(&outcome.aggregator),
        project(&golden_outcome.aggregator)
    );

    std::fs::remove_file(&golden_path).unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn journaled_run_matches_memory_run() {
    // The journal must be an implementation detail: with or without
    // one, the same batches fold to the same analysis.
    let (sites, envelopes) = fixture();
    let path = tmp("parity.journal");

    let mut with_journal = IngestCore::new(sites.clone(), config(2))
        .unwrap()
        .with_journal(&path, FsyncPolicy::Never)
        .unwrap();
    let mut in_memory = IngestCore::new(sites, config(2)).unwrap();
    for env in &envelopes {
        with_journal.submit(None, env.clone(), true).unwrap();
        in_memory.submit(None, env.clone(), true).unwrap();
    }
    let a = with_journal.finish().unwrap();
    let b = in_memory.finish().unwrap();
    assert_eq!(
        render_analysis(&a.aggregator, 10),
        render_analysis(&b.aggregator, 10)
    );
    assert_eq!(a.aggregator.snapshots(), b.aggregator.snapshots());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn finish_reports_a_record_damaged_after_it_was_acked() {
    // Disk damage between the ack and the shutdown fold: the fold skips
    // the record (its CRC no longer holds), and the summary must say so
    // rather than report only what the shards acked.
    let (sites, envelopes) = fixture();
    let path = tmp("damaged.journal");
    let mut core = IngestCore::new(sites, config(2))
        .unwrap()
        .with_journal(&path, FsyncPolicy::Never)
        .unwrap();
    for env in &envelopes {
        assert_eq!(
            core.submit(None, env.clone(), true).unwrap(),
            AckVerdict::Accepted
        );
    }
    // Flip a payload byte of the last record, in place.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let outcome = core.finish().unwrap();
    let damaged = envelopes.last().unwrap();
    let lost = cbi_reports::decode_batch(&damaged.payload, None)
        .unwrap()
        .0
        .len() as u64;
    assert_eq!(outcome.summary.journal_skipped_crc, 1);
    assert!(!outcome.summary.torn_tail);
    // The shards' accounting is of what was acked; the analysis holds
    // the records that survived.
    assert_eq!(outcome.summary.batches, envelopes.len() as u64);
    assert_eq!(outcome.summary.reports, 500);
    assert_eq!(outcome.aggregator.runs(), 500 - lost);
    assert!(
        outcome
            .summary
            .render()
            .contains("crc-damaged records skipped"),
        "{}",
        outcome.summary.render()
    );
    std::fs::remove_file(&path).unwrap();
}

/// Starts a one-client TCP server on a fresh journal at `path`, or on
/// the one already there when `resume`: its address, and the thread
/// that returns its outcome.
fn serve_journaled(
    sites: &cbi::instrument::SiteTable,
    path: &Path,
    resume: bool,
) -> (String, std::thread::JoinHandle<ServeOutcome>) {
    let core = IngestCore::new(sites.clone(), config(2)).unwrap();
    let core = if resume {
        core.resume(path, FsyncPolicy::EveryBatch)
    } else {
        core.with_journal(path, FsyncPolicy::EveryBatch)
    }
    .unwrap();
    let options = ServerOptions {
        acceptors: 1,
        max_clients: 1,
    };
    let server = TcpIngestServer::bind(core, "127.0.0.1:0", options).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    (addr, std::thread::spawn(move || server.run().unwrap()))
}

/// Sends `reports` as one `TransmitSink` stream; the server's verdict.
fn transmit(addr: &str, sites: &cbi::instrument::SiteTable, reports: &[Report]) -> AckVerdict {
    let mut sink = TransmitSink::connect(addr).unwrap();
    sink.begin(ReportLayout {
        counters: sites.total_counters(),
        layout_hash: sites.layout_hash(),
    })
    .unwrap();
    for report in reports {
        sink.accept(report.clone()).unwrap();
    }
    sink.finish().unwrap();
    sink.verdict().expect("finish succeeded")
}

#[test]
fn resumed_server_commits_new_streams_and_dedups_a_resent_one() {
    let program = parse(BUGGY).unwrap();
    let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(2));
    let run = |n| cbi::workloads::run_campaign(&program, &trials(n), &config).unwrap();
    let (a, b) = (run(200), run(300));
    let sites = a.instrumented.sites.clone();
    let (a, b) = (a.collector.reports(), b.collector.reports());
    let path = tmp("transmit.journal");

    // Stream A into a fresh journal.
    let (addr, server) = serve_journaled(&sites, &path, false);
    assert_eq!(transmit(&addr, &sites, a), AckVerdict::Accepted);
    assert_eq!(server.join().unwrap().aggregator.runs(), a.len() as u64);

    // Restarted from the journal, the server commits a different stream.
    let (addr, server) = serve_journaled(&sites, &path, true);
    assert_eq!(transmit(&addr, &sites, b), AckVerdict::Accepted);
    let both = (a.len() + b.len()) as u64;
    assert_eq!(server.join().unwrap().aggregator.runs(), both);

    // Re-sending A after another restart commits nothing new.
    let (addr, server) = serve_journaled(&sites, &path, true);
    assert_eq!(transmit(&addr, &sites, a), AckVerdict::Duplicate);
    let outcome = server.join().unwrap();
    assert_eq!(outcome.aggregator.runs(), both);
    assert_eq!(outcome.summary.duplicates, 1);
    std::fs::remove_file(&path).unwrap();
}

/// A version-1 stream for `sites`' layout, spelled by hand: every
/// counter of every report is written out, here all zero.
fn v1_payload(sites: &cbi::instrument::SiteTable, runs: std::ops::Range<u8>) -> Vec<u8> {
    let counters = sites.total_counters();
    assert!(counters < 126, "one-byte varints below");
    let mut bytes = b"CBIR".to_vec();
    bytes.push(1);
    bytes.extend_from_slice(&sites.layout_hash().to_le_bytes());
    bytes.push(counters as u8);
    for run in runs {
        // len | run_id | label success | counter 0x00 × counters
        bytes.extend_from_slice(&[2 + counters as u8, run, 0]);
        bytes.extend(std::iter::repeat_n(0u8, counters));
    }
    bytes
}

#[test]
fn resume_refuses_a_journal_of_version_one_payloads_and_leaves_it_alone() {
    let (sites, _) = fixture();
    let path = tmp("v1.journal");
    let mut journal = JOURNAL_MAGIC.to_vec();
    journal.push(JOURNAL_VERSION);
    journal.extend_from_slice(&sites.layout_hash().to_le_bytes());
    for seq in 0..3u8 {
        let payload = v1_payload(&sites, seq * 4..seq * 4 + 4);
        BatchEnvelope::new(1, seq as u64, 0, payload).encode_into(&mut journal);
    }
    std::fs::write(&path, &journal).unwrap();

    let Err(err) = IngestCore::new(sites, config(2))
        .unwrap()
        .resume(&path, FsyncPolicy::EveryBatch)
    else {
        panic!("a journal of v1 payloads resumed");
    };
    assert!(
        matches!(err, ServeError::Wire(WireError::UnsupportedVersion(1))),
        "{err}"
    );
    assert_eq!(
        std::fs::read(&path).unwrap(),
        journal,
        "a refused journal is left byte for byte as it was"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_live_server_rejects_a_version_one_envelope() {
    let (sites, envelopes) = fixture();
    let path = tmp("v1-live.journal");
    let (addr, server) = serve_journaled(&sites, &path, false);
    let mut stream = std::net::TcpStream::connect(&addr).unwrap();
    let v1 = BatchEnvelope::new(1, 0, 0, v1_payload(&sites, 0..4));
    let verdict = exchange(&mut stream, &v1, |_| {}).unwrap();
    assert_eq!(
        verdict,
        AckVerdict::Rejected(WireErrorKind::UnsupportedVersion)
    );
    // The connection stays up for a current client's batch.
    let verdict = exchange(&mut stream, &envelopes[0], |_| {}).unwrap();
    assert_eq!(verdict, AckVerdict::Accepted);
    drop(stream);
    let outcome = server.join().unwrap();
    assert_eq!(outcome.summary.rejected_batches, 1);
    assert_eq!(outcome.summary.batches, 1);
    std::fs::remove_file(&path).unwrap();
}
