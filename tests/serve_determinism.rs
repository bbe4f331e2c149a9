//! Concurrency determinism: N concurrent clients hammer the TCP ingest
//! server with interleaved, duplicated, corrupted, and stale batches at
//! shard counts 1/2/4 — every run must fold to an analysis
//! byte-identical to a sequential in-process baseline over the same
//! committed batch set.

use cbi::prelude::*;
use cbi_reports::frame::{read_ack, BatchEnvelope};
use cbi_reports::wire::encode_reports;
use cbi_reports::{AckVerdict, Report};
use cbi_serve::{render_analysis, IngestCore, ServeConfig, ServerOptions, TcpIngestServer};
use std::io::Write;
use std::net::TcpStream;

const BUGGY: &str = "fn g() -> int { if (has_input() == 0) { return 0; } return read(); }\n\
     fn main() -> int { int v = g(); print(100 / v); return 0; }";

const CLIENTS: usize = 6;
const BATCH: usize = 16;

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

struct Fixture {
    sites: cbi::instrument::SiteTable,
    /// `(client, seq, payload)` per batch.
    batches: Vec<(u64, u64, Vec<u8>)>,
    /// A payload encoded under a salted (stale) layout hash.
    stale_payload: Vec<u8>,
}

fn fixture() -> Fixture {
    let program = parse(BUGGY).unwrap();
    let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(2));
    let result = cbi::workloads::run_campaign(&program, &trials(600), &config).unwrap();
    let sites = result.instrumented.sites.clone();
    let hash = sites.layout_hash();
    let counters = sites.total_counters();
    let reports: Vec<Report> = result.collector.reports().to_vec();
    let batches = reports
        .chunks(BATCH)
        .enumerate()
        .map(|(i, chunk)| {
            let client = (i % CLIENTS) as u64;
            let payload = encode_reports(chunk, hash, counters).unwrap();
            (client, i as u64, payload)
        })
        .collect();
    let stale_payload = encode_reports(&reports[..4], hash ^ 0x5a5a, counters).unwrap();
    Fixture {
        sites,
        batches,
        stale_payload,
    }
}

fn config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        queue_cap: 8,
        epoch_len: 128,
        ..ServeConfig::default()
    }
}

/// Sends one envelope and reads its ack, retrying `overloaded`/`bad
/// crc` NACKs on the same attempt like a real client.
fn send(stream: &mut TcpStream, envelope: &BatchEnvelope) -> AckVerdict {
    loop {
        stream.write_all(&envelope.encode()).unwrap();
        let ack = read_ack(stream).unwrap().expect("server closed early");
        assert_eq!(ack.client, envelope.client);
        assert_eq!(ack.seq, envelope.seq);
        match ack.verdict {
            AckVerdict::Overloaded => {
                std::thread::yield_now();
                continue;
            }
            verdict => return verdict,
        }
    }
}

#[test]
fn sharded_server_matches_in_process_baseline() {
    let fx = fixture();

    // Sequential in-process baseline: same batches through the core,
    // no sockets, one shard.
    let mut core = IngestCore::new(fx.sites.clone(), config(1)).unwrap();
    for (client, seq, payload) in &fx.batches {
        let env = BatchEnvelope::new(*client, *seq, 0, payload.clone());
        assert_eq!(core.submit(None, env, true).unwrap(), AckVerdict::Accepted);
    }
    let baseline = core.finish().unwrap();
    let golden = render_analysis(&baseline.aggregator, 10);
    assert!(golden.contains("survivors:"));
    assert!(
        golden.contains("g() == 0"),
        "culprit must survive:\n{golden}"
    );

    let mut socket_snapshots = Vec::new();
    for shards in [1usize, 2, 4] {
        let core = IngestCore::new(fx.sites.clone(), config(shards)).unwrap();
        let server = TcpIngestServer::bind(
            core,
            "127.0.0.1:0",
            ServerOptions {
                acceptors: CLIENTS,
                max_clients: CLIENTS as u64,
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let server_thread = std::thread::spawn(move || server.run().unwrap());

        // One thread per client, all concurrent: each sends its own
        // batches, re-sends every third one (duplicate after a "lost
        // ack"), and client 0 also sends a corrupted copy and a stale
        // batch.
        let mut clients = Vec::new();
        for c in 0..CLIENTS as u64 {
            let mine: Vec<(u64, u64, Vec<u8>)> = fx
                .batches
                .iter()
                .filter(|(client, _, _)| *client == c)
                .cloned()
                .collect();
            let stale = (c == 0).then(|| fx.stale_payload.clone());
            clients.push(std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                let mut duplicates = 0u64;
                for (client, seq, payload) in &mine {
                    let env = BatchEnvelope::new(*client, *seq, 0, payload.clone());
                    assert_eq!(send(&mut stream, &env), AckVerdict::Accepted);
                    if seq % 3 == 0 {
                        // Retransmit as a later attempt: dedup must answer
                        // without re-ingesting.
                        let retry = BatchEnvelope::new(*client, *seq, 1, payload.clone());
                        assert_eq!(send(&mut stream, &retry), AckVerdict::Duplicate);
                        duplicates += 1;
                    }
                }
                if let Some(stale_payload) = stale {
                    // Corrupted envelope: damage one payload byte after
                    // encoding, so the CRC no longer matches.
                    let (client, seq, payload) = mine.last().unwrap().clone();
                    let mut bytes = BatchEnvelope::new(client, seq + 10_000, 0, payload).encode();
                    let last = bytes.len() - 1;
                    bytes[last] ^= 0xff;
                    stream.write_all(&bytes).unwrap();
                    let ack = read_ack(&mut stream).unwrap().unwrap();
                    assert_eq!(ack.verdict, AckVerdict::BadCrc);

                    // Stale layout: typed rejection tells the client to
                    // stop.
                    let stale_env = BatchEnvelope::new(client, seq + 20_000, 0, stale_payload);
                    let verdict = send(&mut stream, &stale_env);
                    assert!(verdict.is_stale(), "expected stale, got {verdict:?}");
                }
                duplicates
            }));
        }
        let duplicates: u64 = clients.into_iter().map(|t| t.join().unwrap()).sum();
        let outcome = server_thread.join().unwrap();

        assert_eq!(outcome.summary.shards, shards);
        assert_eq!(outcome.summary.connections, CLIENTS as u64);
        assert_eq!(outcome.summary.batches, fx.batches.len() as u64);
        assert_eq!(outcome.summary.duplicates, duplicates);
        assert_eq!(outcome.summary.crc_failures, 1);
        assert_eq!(outcome.summary.rejected_batches, 1);

        let rendered = render_analysis(&outcome.aggregator, 10);
        assert_eq!(
            rendered, golden,
            "shards={shards} analysis diverged from in-process baseline"
        );
        socket_snapshots.push(outcome.aggregator.snapshots().to_vec());
    }

    // Across shard counts the *full* snapshots — cohorts, rejection
    // kinds, bytes included — must be identical, not just the render.
    assert_eq!(socket_snapshots[0], socket_snapshots[1]);
    assert_eq!(socket_snapshots[0], socket_snapshots[2]);
}

#[test]
fn backpressure_sheds_with_typed_nack_and_converges() {
    let fx = fixture();
    // A tiny admission bound forces sheds under concurrency; clients retry on
    // `overloaded` (inside `send`), so every batch still commits and
    // the analysis is unaffected.
    let queue_cap = 1;
    let mut cfg = config(2);
    cfg.queue_cap = queue_cap;
    let core = IngestCore::new(fx.sites.clone(), cfg).unwrap();
    let server = TcpIngestServer::bind(
        core,
        "127.0.0.1:0",
        ServerOptions {
            acceptors: CLIENTS,
            max_clients: CLIENTS as u64,
        },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut clients = Vec::new();
    for c in 0..CLIENTS as u64 {
        let mine: Vec<(u64, u64, Vec<u8>)> = fx
            .batches
            .iter()
            .filter(|(client, _, _)| *client == c)
            .cloned()
            .collect();
        clients.push(std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for (client, seq, payload) in &mine {
                let env = BatchEnvelope::new(*client, *seq, 0, payload.clone());
                assert_eq!(send(&mut stream, &env), AckVerdict::Accepted);
            }
        }));
    }
    for t in clients {
        t.join().unwrap();
    }
    let outcome = server_thread.join().unwrap();
    assert_eq!(outcome.summary.batches, fx.batches.len() as u64);
    // The bound holds: no shard ever had more deliveries in hand.
    assert_eq!(outcome.summary.queue_high_water.len(), 2);
    for (shard, &high) in outcome.summary.queue_high_water.iter().enumerate() {
        assert!(high <= queue_cap as u64, "shard {shard} held {high}");
    }

    let mut core = IngestCore::new(fx.sites, config(1)).unwrap();
    for (client, seq, payload) in &fx.batches {
        let env = BatchEnvelope::new(*client, *seq, 0, payload.clone());
        core.submit(None, env, true).unwrap();
    }
    let baseline = core.finish().unwrap();
    assert_eq!(
        render_analysis(&outcome.aggregator, 10),
        render_analysis(&baseline.aggregator, 10)
    );
}
