//! The fleet over a real socket: a heterogeneous community (mixed
//! densities, variants, stale binaries) on a faulty channel with lost
//! acks, driven against the TCP ingest server — the server's analysis
//! must be byte-identical to the in-memory channel fold at any shard
//! count, and the channel accounting must match coin for coin.

use cbi_fleet::{run_fleet, run_fleet_over_socket, ChannelSpec, FleetSpec, SocketOptions};
use cbi_serve::{render_analysis, IngestCore, ServeConfig, ServerOptions, TcpIngestServer};

const RARE: &str = "fn rare(int v) -> int { if (v % 12 == 0) { return 1; } return 0; }\n\
     fn main() -> int { int v = read(); int hit = rare(v); print(hit); return 0; }";

fn pool(n: usize) -> Vec<Vec<i64>> {
    (0..n as i64).map(|i| vec![i * 7 + 1]).collect()
}

fn spec() -> FleetSpec {
    let mut s = FleetSpec::new(10, 400);
    s.densities = vec![(2, 1.0)];
    s.batch_size = 8;
    s.epoch_len = 64;
    s.variant_fraction = 0.3;
    s.stale_fraction = 0.25;
    s.channel = ChannelSpec {
        drop: 0.2,
        truncate: 0.15,
        bit_flip: 0.1,
        max_retries: 2,
        backoff_base: 2,
    };
    s
}

#[test]
fn socket_fleet_matches_in_memory_fold_at_any_shard_count() {
    let program = cbi_minic::parse(RARE).unwrap();
    let inputs = pool(48);
    let spec = spec();

    // In-memory reference: the channel fold run_fleet has always done.
    let memory = run_fleet(&program, &inputs, &spec, None).unwrap();
    let golden = render_analysis(&memory.aggregator, 10);
    assert!(memory.summary.lost_batches > 0, "channel must bite");
    assert!(memory.summary.stale_batches > 0, "community must be mixed");

    // The server is configured with the same instrumented layout the
    // fleet derives for itself.
    let sites = cbi_instrument::instrument(&program, spec.scheme)
        .unwrap()
        .sites;

    for shards in [1usize, 4] {
        let config = ServeConfig {
            shards,
            epoch_len: spec.epoch_len,
            ..ServeConfig::default()
        };
        let core = IngestCore::new(sites.clone(), config).unwrap();
        let server = TcpIngestServer::bind(
            core,
            "127.0.0.1:0",
            ServerOptions {
                acceptors: 4,
                max_clients: spec.clients as u64,
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let server_thread = std::thread::spawn(move || server.run().unwrap());

        let options = SocketOptions {
            ack_drop: 0.35,
            streams: 4,
        };
        let socket = run_fleet_over_socket(&program, &inputs, &spec, addr, &options).unwrap();
        let outcome = server_thread.join().unwrap();

        // The committed set is coin-for-coin the in-memory one.
        assert_eq!(socket.batches, memory.summary.batches);
        assert_eq!(socket.delivered_batches, memory.summary.accepted_batches);
        assert_eq!(socket.lost_batches, memory.summary.lost_batches);
        assert_eq!(socket.stale_batches, memory.summary.stale_batches);
        assert_eq!(
            socket.rejected_deliveries,
            memory.summary.rejected_deliveries
        );
        assert_eq!(socket.retries, memory.summary.retries);
        assert_eq!(socket.backoff_ticks, memory.summary.backoff_ticks);
        assert_eq!(socket.bytes_sent, memory.summary.bytes_sent);
        assert_eq!(socket.spooled_reports, memory.summary.spooled_reports);
        // Every seeded lost ack produced exactly one idempotent
        // duplicate answer; nothing else did.
        assert!(socket.ack_retransmits > 0, "ack_drop=0.35 must fire");
        assert_eq!(socket.duplicate_acks, socket.ack_retransmits);
        assert_eq!(socket.dead_clients, 0);
        assert_eq!(socket.reconnects, 0);

        // Server-side ledger agrees.
        assert_eq!(outcome.summary.connections, spec.clients as u64);
        assert_eq!(outcome.summary.batches, memory.summary.accepted_batches);
        assert_eq!(outcome.summary.duplicates, socket.duplicate_acks);
        assert_eq!(
            outcome.summary.rejected_batches,
            memory.summary.rejected_deliveries
        );

        // And the analysis is byte-identical to the in-memory fold.
        let rendered = render_analysis(&outcome.aggregator, 10);
        assert_eq!(
            rendered, golden,
            "shards={shards}: socket fleet diverged from the in-memory fold"
        );

        // The render itself is seed-pure, so it can be golden-diffed.
        assert!(!socket.render().contains('.'), "integers only");
    }
}
