//! The fleet over a real wire: drive a community of TCP clients against
//! a live `cbi serve` ingest server.
//!
//! [`run_fleet_over_socket`] produces exactly the batches
//! [`run_fleet`](crate::run_fleet) would — same VM runs, same spooled
//! payloads — and pushes them through the **same seeded fault coins**
//! ([`crate::channel::transmit`] keyed by `(seed, batch_uid, attempt)`),
//! but each surviving attempt really crosses a socket inside a
//! CRC-framed envelope and waits for the server's typed ack.  The set
//! of batches the server commits is therefore a pure function of the
//! fleet seed, identical to what the in-memory channel fold accepts:
//! kill the server mid-run, restart it from its journal, rerun the same
//! seed, and the dedup layer converges the committed set to the
//! uninterrupted one.
//!
//! Two fault classes are deliberately kept apart:
//!
//! * **channel faults** (drop/truncate/bit-flip) consume the bounded
//!   per-batch retry budget, exactly like [`crate::send_batch`];
//! * **transport hiccups** — `overloaded` NACKs from backpressure, a
//!   seeded "lost ack" forcing an idempotent retransmit, an io error
//!   answered by one reconnect — are retried *without* burning fault
//!   attempts, so runtime timing can never change which batches commit.

use crate::channel::{attempt_rng, transmit, Delivery};
use crate::sim::{produce_fleet, FleetSpec, ProducedBatch};
use crate::FleetError;
use cbi_minic::Program;
use cbi_reports::frame::{self, AckVerdict, BatchEnvelope};
use cbi_telemetry as telemetry;
use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

/// How the socket driver behaves beyond the channel model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocketOptions {
    /// Probability the server's *accept* ack is lost on the way back
    /// (seeded, drawn after the attempt's channel coins).  The client
    /// retransmits the identical envelope and the server answers
    /// `duplicate` — the idempotent-retransmit path under test.
    pub ack_drop: f64,
    /// Client connections driven concurrently (clamped to the
    /// community size).  Any value yields the same committed set.
    pub streams: usize,
}

impl Default for SocketOptions {
    fn default() -> Self {
        SocketOptions {
            ack_drop: 0.0,
            streams: 8,
        }
    }
}

/// Integer accounting of a socket-driven fleet run.
///
/// Everything except `overload_retransmits` is a pure function of the
/// fleet seed against a fresh server (backpressure NACKs depend on
/// runtime queue timing, so they are excluded from [`Self::render`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SocketFleetSummary {
    /// Community size (and connections dialed, barring reconnects).
    pub clients: usize,
    /// Community runs attempted.
    pub runs: usize,
    /// Runs dropped client-side (operation budget exhausted).
    pub dropped_runs: usize,
    /// Reports spooled across all clients.
    pub spooled_reports: u64,
    /// Batches spooled (each enters the send loop once).
    pub batches: u64,
    /// Batches the server holds after the run (acked `accepted` or
    /// `duplicate`).
    pub delivered_batches: u64,
    /// Deliveries the server answered `duplicate` — retransmits of
    /// batches it already owned (lost acks, or a journal surviving a
    /// previous run).
    pub duplicate_acks: u64,
    /// Retransmits forced by seeded lost acks.
    pub ack_retransmits: u64,
    /// Batches abandoned at the stale-layout rejection.
    pub stale_batches: u64,
    /// Batches abandoned after exhausting channel-fault retries.
    pub lost_batches: u64,
    /// Delivered-but-rejected attempts (truncated payloads, stale
    /// layouts) the server NACKed with a typed wire error.
    pub rejected_deliveries: u64,
    /// Channel-fault attempts beyond each batch's first.
    pub retries: u64,
    /// Backoff ticks accumulated between fault attempts.
    pub backoff_ticks: u64,
    /// Payload bytes put on the wire across all attempts.
    pub bytes_sent: u64,
    /// Retransmits after `overloaded` NACKs (timing-dependent; not
    /// rendered).
    pub overload_retransmits: u64,
    /// Retransmits after `bad crc` NACKs (a damaged TCP leg; expected
    /// zero on loopback).
    pub crc_retransmits: u64,
    /// Connections re-dialed after an io error.
    pub reconnects: u64,
    /// Clients abandoned after reconnecting failed.
    pub dead_clients: u64,
    /// Batches never offered because their client's connection died.
    pub connection_lost_batches: u64,
}

impl SocketFleetSummary {
    fn absorb(&mut self, other: &SocketFleetSummary) {
        self.dropped_runs += other.dropped_runs;
        self.spooled_reports += other.spooled_reports;
        self.batches += other.batches;
        self.delivered_batches += other.delivered_batches;
        self.duplicate_acks += other.duplicate_acks;
        self.ack_retransmits += other.ack_retransmits;
        self.stale_batches += other.stale_batches;
        self.lost_batches += other.lost_batches;
        self.rejected_deliveries += other.rejected_deliveries;
        self.retries += other.retries;
        self.backoff_ticks += other.backoff_ticks;
        self.bytes_sent += other.bytes_sent;
        self.overload_retransmits += other.overload_retransmits;
        self.crc_retransmits += other.crc_retransmits;
        self.reconnects += other.reconnects;
        self.dead_clients += other.dead_clients;
        self.connection_lost_batches += other.connection_lost_batches;
    }

    /// The golden-safe view: every line integer-only and seed-pure
    /// (timing-dependent backpressure retransmits are left out).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "socket fleet: {} clients, {} runs ({} dropped)",
            self.clients, self.runs, self.dropped_runs
        );
        let _ = writeln!(
            out,
            "batches: {} spooled, {} delivered ({} duplicate acks), {} lost, {} stale",
            self.batches,
            self.delivered_batches,
            self.duplicate_acks,
            self.lost_batches,
            self.stale_batches
        );
        let _ = writeln!(
            out,
            "channel: {} retries, {} backoff ticks, {} rejected deliveries, {} ack retransmits",
            self.retries, self.backoff_ticks, self.rejected_deliveries, self.ack_retransmits
        );
        let _ = writeln!(
            out,
            "wire: {} payload bytes sent, {} reconnects, {} dead clients, {} batches stranded",
            self.bytes_sent, self.reconnects, self.dead_clients, self.connection_lost_batches
        );
        out
    }
}

/// How one batch's send loop ended at the socket layer.
enum BatchFate {
    Delivered,
    Stale,
    Lost,
}

/// One client's connection, re-dialable after an io error.
struct ClientConn {
    addr: SocketAddr,
    stream: TcpStream,
}

impl ClientConn {
    fn dial(addr: SocketAddr) -> io::Result<ClientConn> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(ClientConn { addr, stream })
    }

    fn redial(&mut self) -> io::Result<()> {
        self.stream = TcpStream::connect(self.addr)?;
        let _ = self.stream.set_nodelay(true);
        Ok(())
    }
}

/// Runs one batch's bounded-retry send loop over the socket, flipping
/// the same seeded coins as [`crate::send_batch`].
fn push_batch(
    conn: &mut ClientConn,
    batch: &ProducedBatch,
    spec: &FleetSpec,
    options: &SocketOptions,
    acc: &mut SocketFleetSummary,
) -> io::Result<BatchFate> {
    let uid = batch.last_run as u64;
    let max_retries = u64::from(spec.channel.max_retries);
    for attempt in 0..=max_retries {
        if attempt > 0 {
            acc.retries += 1;
        }
        acc.bytes_sent += batch.bytes.len() as u64;
        let mut rng = attempt_rng(spec.seed, uid, attempt);
        let delivered = match transmit(&batch.bytes, &mut rng, &spec.channel) {
            Delivery::Dropped => None,
            Delivery::Arrived(payload) => Some(payload),
        };
        if let Some(payload) = delivered {
            let envelope = BatchEnvelope::new(batch.client as u64, uid, attempt as u32, payload);
            let mut duplicate = false;
            let fate = loop {
                // Transport NACKs carry no channel-fault information, so
                // the exchange absorbs them without burning attempts.
                let verdict = frame::exchange(&mut conn.stream, &envelope, |nack| match nack {
                    AckVerdict::Overloaded => acc.overload_retransmits += 1,
                    _ => acc.crc_retransmits += 1,
                })?;
                match verdict {
                    verdict @ (AckVerdict::Accepted | AckVerdict::Duplicate) => {
                        duplicate |= verdict == AckVerdict::Duplicate;
                        if duplicate {
                            acc.duplicate_acks += 1;
                        }
                        // The ack-loss coin comes after the attempt's
                        // channel coins, on the same stream: losing an
                        // ack forces an identical retransmit that the
                        // server must answer `duplicate`.
                        if rng.next_f64() < options.ack_drop {
                            acc.ack_retransmits += 1;
                            continue;
                        }
                        break Some(BatchFate::Delivered);
                    }
                    AckVerdict::Rejected(kind) => {
                        acc.rejected_deliveries += 1;
                        if kind == cbi_reports::WireErrorKind::LayoutHashMismatch {
                            break Some(BatchFate::Stale);
                        }
                        break None; // burn this fault attempt, retry
                    }
                    AckVerdict::Overloaded | AckVerdict::BadCrc => {
                        unreachable!("exchange absorbs transport NACKs")
                    }
                }
            };
            if let Some(fate) = fate {
                return Ok(fate);
            }
        }
        if attempt < max_retries {
            // Same shift-capped exponential backoff as the channel fold.
            acc.backoff_ticks += spec.channel.backoff_base << attempt.min(16);
        }
    }
    Ok(BatchFate::Lost)
}

/// Sends every batch of one client over its connection, answering one
/// io error with one reconnect; a second failure abandons the client
/// and strands its remaining batches.
fn drive_client(
    addr: SocketAddr,
    batches: &[ProducedBatch],
    spec: &FleetSpec,
    options: &SocketOptions,
    acc: &mut SocketFleetSummary,
) {
    let mut conn = match ClientConn::dial(addr) {
        Ok(conn) => conn,
        Err(_) => {
            acc.dead_clients += 1;
            acc.connection_lost_batches += batches.len() as u64;
            return;
        }
    };
    for (i, batch) in batches.iter().enumerate() {
        acc.batches += 1;
        acc.dropped_runs += batch.dropped_runs;
        acc.spooled_reports += batch.spooled_reports;
        let fate = push_batch(&mut conn, batch, spec, options, acc).or_else(|_| {
            // One reconnect, then replay the batch's whole send loop:
            // the coins are keyed by (uid, attempt), so the rerun flips
            // the same faults, and anything the server already committed
            // answers `duplicate`.
            acc.reconnects += 1;
            conn.redial()?;
            push_batch(&mut conn, batch, spec, options, acc)
        });
        match fate {
            Ok(BatchFate::Delivered) => acc.delivered_batches += 1,
            Ok(BatchFate::Stale) => acc.stale_batches += 1,
            Ok(BatchFate::Lost) => acc.lost_batches += 1,
            Err(_) => {
                acc.dead_clients += 1;
                acc.connection_lost_batches += (batches.len() - i) as u64;
                return;
            }
        }
    }
}

/// Drives the whole community against a live ingest server at `addr`.
///
/// Every client dials exactly one connection (even spool-less clients,
/// so the server's connection ledger sees the full community), sends
/// its batches in spool order, and closes.  The committed set on the
/// server — and therefore the server's analysis — is a pure function of
/// `spec.seed`, byte-identical to what [`run_fleet`](crate::run_fleet)
/// commits in memory.
///
/// # Errors
///
/// Returns [`FleetError`] for an inconsistent spec, a failed setup, or
/// an unresolvable address.  Connection failures mid-run are *data*
/// (`dead_clients`, `connection_lost_batches`), never errors: a fleet
/// outlives its collection server.
pub fn run_fleet_over_socket(
    program: &Program,
    pool: &[Vec<i64>],
    spec: &FleetSpec,
    addr: impl ToSocketAddrs,
    options: &SocketOptions,
) -> Result<SocketFleetSummary, FleetError> {
    let addr: SocketAddr = addr
        .to_socket_addrs()
        .map_err(|e| FleetError::Config(format!("serve address: {e}")))?
        .next()
        .ok_or_else(|| FleetError::Config("serve address resolved to nothing".to_string()))?;
    let production = produce_fleet(program, pool, spec)?;

    let _send = telemetry::span("fleet.socket_send");
    let mut per_client: Vec<Vec<ProducedBatch>> = (0..spec.clients).map(|_| Vec::new()).collect();
    for batch in production.batches {
        per_client[batch.client].push(batch);
    }

    let streams = options.streams.clamp(1, spec.clients);
    let chunk = spec.clients.div_ceil(streams);
    let partials: Vec<SocketFleetSummary> = std::thread::scope(|s| {
        let handles: Vec<_> = per_client
            .chunks(chunk.max(1))
            .map(|mine| {
                s.spawn(move || {
                    let mut acc = SocketFleetSummary::default();
                    for batches in mine {
                        drive_client(addr, batches, spec, options, &mut acc);
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("socket fleet worker panicked"))
            .collect()
    });

    let mut summary = SocketFleetSummary {
        clients: spec.clients,
        runs: spec.runs,
        ..SocketFleetSummary::default()
    };
    for partial in &partials {
        summary.absorb(partial);
    }
    telemetry::count("fleet.socket.batches", summary.batches);
    telemetry::count("fleet.socket.delivered", summary.delivered_batches);
    telemetry::count("fleet.socket.duplicate_acks", summary.duplicate_acks);
    telemetry::count("fleet.socket.reconnects", summary.reconnects);
    Ok(summary)
}
