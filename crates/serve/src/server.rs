//! The TCP front end: thread-per-core accept loop feeding the shard
//! workers over bounded queues.
//!
//! Topology: `acceptors` threads block in `accept` on clones of one
//! listener (claim-then-accept, so exactly `max_clients` connections
//! are served in total, after which the server drains and shuts down).
//! Each connection is handled on its acceptor thread: envelopes are
//! read, routed to `client mod shards` over a bounded
//! `sync_channel`, and acked in order once the owning shard worker has
//! processed them — one envelope outstanding per connection, answered
//! on the connection's one reply channel, so nothing is allocated per
//! envelope on the ack path.  A full shard queue surfaces as the typed
//! [`ServeError::Backpressure`], answered on the wire with an
//! `overloaded` NACK — the queue bound is the only buffer.
//!
//! A connection is a sequence of `'B'` envelopes, each acked before the
//! next is read; a connection that opens with any other byte, or breaks
//! its framing, is dropped and counted as rejected.
//!
//! Telemetry lanes: shard worker `i` records under worker label `i +
//! 1`; acceptor `a` under `shards + 1 + a`.  Queue-depth high-water
//! marks are tracked per shard and surface in the summary and the
//! `serve.queue_depth` histogram.

use crate::core::{IngestCore, ServeOutcome};
use crate::shard::ShardState;
use crate::ServeError;
use cbi_reports::frame::{read_envelope, BatchAck};
use cbi_reports::{AckVerdict, BatchEnvelope};
use cbi_telemetry as telemetry;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;

/// TCP front-end options.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Accept threads; 0 means one per available core, capped at 16.
    pub acceptors: usize,
    /// Connections to serve before draining and shutting down.
    pub max_clients: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            acceptors: 0,
            max_clients: 1,
        }
    }
}

impl ServerOptions {
    fn resolved_acceptors(&self) -> usize {
        if self.acceptors > 0 {
            return self.acceptors;
        }
        thread::available_parallelism()
            .map(|n| n.get().min(16))
            .unwrap_or(4)
    }
}

/// What a shard worker answers a delivery with.
type Verdict = Result<AckVerdict, ServeError>;

fn worker_exited() -> ServeError {
    ServeError::Io(io::Error::new(
        io::ErrorKind::BrokenPipe,
        "shard worker exited",
    ))
}

/// A queued delivery's end of its connection's reply channel.  Dropped
/// unanswered — the shard worker died with the delivery queued or in
/// hand — it answers for the worker, so no connection waits on a
/// worker that is gone.
struct ReplyTo(Option<Sender<Verdict>>);

impl ReplyTo {
    fn send(mut self, verdict: Verdict) {
        if let Some(reply) = self.0.take() {
            let _ = reply.send(verdict);
        }
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        if let Some(reply) = self.0.take() {
            let _ = reply.send(Err(worker_exited()));
        }
    }
}

/// One queued delivery awaiting its shard worker.
struct Delivery {
    envelope: BatchEnvelope,
    crc_ok: bool,
    origin: Arc<str>,
    enqueued_ns: u64,
    reply: ReplyTo,
}

/// Shard queue messages: deliveries, then one shutdown sentinel.
enum ShardMsg {
    Batch(Delivery),
    Shutdown,
}

/// Counters the connection handlers share.
#[derive(Default)]
struct ServerCounters {
    connections: AtomicU64,
    rejected_connections: AtomicU64,
    shed: Vec<AtomicU64>,
    queue_depth: Vec<AtomicUsize>,
    queue_high_water: Vec<AtomicU64>,
}

/// Routing handles the connection handlers use to reach the shards.
struct ShardRouter {
    senders: Vec<SyncSender<ShardMsg>>,
    queue_cap: usize,
    counters: ServerCounters,
}

impl ShardRouter {
    /// Queues one delivery on its shard, enforcing the bound.  The
    /// shard's verdict arrives on `reply`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Backpressure`] when the shard queue is
    /// full; the delivery is shed, not buffered.
    fn try_submit(
        &self,
        envelope: BatchEnvelope,
        crc_ok: bool,
        origin: Arc<str>,
        reply: Sender<Verdict>,
    ) -> Result<(), ServeError> {
        let shard = (envelope.client % self.senders.len() as u64) as usize;
        let msg = ShardMsg::Batch(Delivery {
            envelope,
            crc_ok,
            origin,
            enqueued_ns: telemetry::now_ns(),
            reply: ReplyTo(Some(reply)),
        });
        let depth = self.counters.queue_depth[shard].fetch_add(1, Ordering::AcqRel) + 1;
        let (msg, err) = match self.senders[shard].try_send(msg) {
            Ok(()) => {
                self.counters.queue_high_water[shard].fetch_max(depth as u64, Ordering::AcqRel);
                return Ok(());
            }
            Err(TrySendError::Full(msg)) => {
                self.counters.shed[shard].fetch_add(1, Ordering::AcqRel);
                telemetry::count("serve.shed", 1);
                let capacity = self.queue_cap;
                (msg, ServeError::Backpressure { shard, capacity })
            }
            Err(TrySendError::Disconnected(msg)) => (msg, worker_exited()),
        };
        self.counters.queue_depth[shard].fetch_sub(1, Ordering::AcqRel);
        // Never queued, so no worker owes it an answer: the caller gets
        // the error from here and nothing on the reply channel.
        if let ShardMsg::Batch(mut delivery) = msg {
            delivery.reply.0 = None;
        }
        Err(err)
    }
}

/// One connection's way to the shards: its origin label and the one
/// reply channel every delivery of the connection is answered on.  A
/// connection has at most one delivery outstanding, so verdicts come
/// back in the order the envelopes were read.
struct Submitter<'a> {
    router: &'a ShardRouter,
    origin: Arc<str>,
    reply_tx: Sender<Verdict>,
    reply_rx: Receiver<Verdict>,
}

impl Submitter<'_> {
    /// Routes one envelope and waits for its shard's verdict.
    fn submit(&self, envelope: BatchEnvelope, crc_ok: bool) -> Verdict {
        self.router
            .try_submit(envelope, crc_ok, self.origin.clone(), self.reply_tx.clone())?;
        self.reply_rx.recv().map_err(|_| worker_exited())?
    }
}

/// The TCP ingest server: an [`IngestCore`] behind a listener.
pub struct TcpIngestServer {
    core: IngestCore,
    listener: TcpListener,
    options: ServerOptions,
}

impl TcpIngestServer {
    /// Binds a listener for the core.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] if the address cannot be bound.
    pub fn bind(
        core: IngestCore,
        addr: &str,
        options: ServerOptions,
    ) -> Result<TcpIngestServer, ServeError> {
        let listener = TcpListener::bind(addr)?;
        Ok(TcpIngestServer {
            core,
            listener,
            options,
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Returns the listener's I/O error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves exactly `max_clients` connections, then drains the
    /// shards, folds, and returns the outcome.
    ///
    /// # Errors
    ///
    /// Propagates journal and fold errors; per-connection failures are
    /// counted in the summary instead.
    pub fn run(self) -> Result<ServeOutcome, ServeError> {
        let TcpIngestServer {
            mut core,
            listener,
            options,
        } = self;
        let n_shards = core.config().shards;
        let queue_cap = core.config().queue_cap;
        let shards = std::mem::take(&mut core.shards);

        let mut counters = ServerCounters::default();
        for _ in 0..n_shards {
            counters.shed.push(AtomicU64::new(0));
            counters.queue_depth.push(AtomicUsize::new(0));
            counters.queue_high_water.push(AtomicU64::new(0));
        }

        let (senders, receivers): (Vec<_>, Vec<_>) = (0..n_shards)
            .map(|_| mpsc::sync_channel::<ShardMsg>(queue_cap))
            .unzip();
        let router = ShardRouter {
            senders,
            queue_cap,
            counters,
        };
        let journal_error: Mutex<Option<ServeError>> = Mutex::new(None);
        let claimed = AtomicU64::new(0);
        let acceptors = options.resolved_acceptors();
        let listeners = (0..acceptors)
            .map(|_| listener.try_clone())
            .collect::<io::Result<Vec<_>>>()?;

        let drained = thread::scope(|scope| -> Result<Vec<ShardState>, ServeError> {
            let router = &router;
            let journal = &core.journal;
            let journal_error = &journal_error;
            let claimed = &claimed;
            let options = &options;

            let mut workers = Vec::with_capacity(n_shards);
            for (index, (mut state, rx)) in shards.into_iter().zip(receivers).enumerate() {
                workers.push(scope.spawn(move || {
                    telemetry::set_worker(index as u32 + 1);
                    while let Ok(msg) = rx.recv() {
                        let delivery = match msg {
                            ShardMsg::Shutdown => break,
                            ShardMsg::Batch(delivery) => delivery,
                        };
                        router.counters.queue_depth[index].fetch_sub(1, Ordering::AcqRel);
                        let verdict = state.process(
                            Some(delivery.origin),
                            delivery.envelope,
                            delivery.crc_ok,
                            journal.as_ref(),
                        );
                        telemetry::record(
                            "serve.ingest_us",
                            telemetry::now_ns().saturating_sub(delivery.enqueued_ns) / 1_000,
                        );
                        telemetry::count("serve.batches_processed", 1);
                        if let Err(err) = &verdict {
                            let mut slot = journal_error
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner);
                            if slot.is_none() {
                                *slot = Some(ServeError::Config(err.to_string()));
                            }
                        }
                        delivery.reply.send(verdict);
                    }
                    state
                }));
            }

            let mut accept_threads = Vec::with_capacity(acceptors);
            for (a, listener) in listeners.into_iter().enumerate() {
                accept_threads.push(scope.spawn(move || {
                    telemetry::set_worker((n_shards + 1 + a) as u32);
                    loop {
                        if claimed.fetch_add(1, Ordering::AcqRel) >= options.max_clients {
                            break;
                        }
                        match listener.accept() {
                            Ok((stream, peer)) => handle_connection(router, stream, peer),
                            Err(_) => {
                                router
                                    .counters
                                    .rejected_connections
                                    .fetch_add(1, Ordering::AcqRel);
                                break;
                            }
                        }
                    }
                }));
            }
            for t in accept_threads {
                let _ = t.join();
            }
            // All connections served: a sentinel per shard lets each
            // worker drain its queue and exit.
            for sender in &router.senders {
                let _ = sender.send(ShardMsg::Shutdown);
            }
            // Join every worker before reporting that one of them died.
            let joined: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
            joined
                .into_iter()
                .enumerate()
                .map(|(shard, state)| state.map_err(|_| ServeError::WorkerPanicked { shard }))
                .collect()
        })?;
        core.shards = drained;

        if let Some(err) = journal_error
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
        {
            return Err(err);
        }

        let mut outcome = core.finish()?;
        let c = &router.counters;
        outcome.summary.connections = c.connections.load(Ordering::Acquire);
        outcome.summary.rejected_connections = c.rejected_connections.load(Ordering::Acquire);
        outcome.summary.shed = c.shed.iter().map(|s| s.load(Ordering::Acquire)).sum();
        outcome.summary.queue_high_water = c
            .queue_high_water
            .iter()
            .map(|s| s.load(Ordering::Acquire))
            .collect();
        Ok(outcome)
    }
}

/// Serves one connection to completion, counting its fate.
fn handle_connection(router: &ShardRouter, stream: TcpStream, peer: SocketAddr) {
    let _span = telemetry::span("serve.connection");
    let (reply_tx, reply_rx) = mpsc::channel();
    let submitter = Submitter {
        router,
        origin: peer.ip().to_string().into(),
        reply_tx,
        reply_rx,
    };
    match serve_connection(&submitter, stream) {
        Ok(()) => {
            router.counters.connections.fetch_add(1, Ordering::AcqRel);
        }
        Err(_) => {
            router
                .counters
                .rejected_connections
                .fetch_add(1, Ordering::AcqRel);
            telemetry::count("serve.rejected_connections", 1);
        }
    }
}

/// Reads, routes and acks envelopes until the client closes.
fn serve_connection(submitter: &Submitter<'_>, stream: TcpStream) -> Result<(), ServeError> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut ack = Vec::new();
    while let Some(read) = read_envelope(&mut reader)? {
        answer(submitter, &mut writer, &mut ack, read.envelope, read.crc_ok)?;
    }
    Ok(())
}

/// Routes one envelope and writes its ack (NACKing overload inline),
/// encoded into the connection's reused `ack` buffer.
fn answer<W: Write>(
    submitter: &Submitter<'_>,
    writer: &mut W,
    ack: &mut Vec<u8>,
    envelope: BatchEnvelope,
    crc_ok: bool,
) -> Result<(), ServeError> {
    let (client, seq) = (envelope.client, envelope.seq);
    let verdict = match submitter.submit(envelope, crc_ok) {
        Ok(verdict) => verdict,
        Err(ServeError::Backpressure { .. }) => AckVerdict::Overloaded,
        Err(other) => return Err(other),
    };
    ack.clear();
    BatchAck {
        client,
        seq,
        verdict,
    }
    .encode_into(ack);
    writer.write_all(ack)?;
    writer.flush()?;
    Ok(())
}
