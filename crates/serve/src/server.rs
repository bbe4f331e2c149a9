//! The TCP front end: each envelope is checked, journaled and acked on
//! the connection thread that read it.
//!
//! `acceptors` threads block in `accept` on clones of one listener
//! (claim-then-accept: exactly `max_clients` connections are served,
//! then the server folds and shuts down) and serve each connection to
//! completion: a sequence of `'B'` envelopes, each answered before the
//! next is read.  The thread locks shard `client mod shards`, runs its
//! one `process` body — CRC gate, dedup, validate, journal-before-ack,
//! commit — and writes the ack.  A connection has one envelope
//! outstanding, so a hand-off to another thread would buy no
//! parallelism, only two more wake-ups.  Locks go shard, then journal.
//!
//! `queue_cap` bounds the deliveries admitted to a shard and not yet
//! answered; one more is shed as the typed [`ServeError::Backpressure`]
//! and answered `overloaded` inline.  A connection that breaks its
//! framing, or delivers to a shard a panic poisoned, is dropped and
//! counted as rejected; a poisoned shard processes nothing more, and
//! [`TcpIngestServer::run`] ends in [`ServeError::WorkerPanicked`].
//!
//! Telemetry: acceptor `a` records under worker label `a + 1`;
//! `serve.ingest_us` times each envelope from the end of its read to
//! its verdict.

use crate::core::{IngestCore, ServeOutcome};
use crate::ServeError;
use cbi_reports::frame::{read_envelope, BatchAck};
use cbi_reports::{AckVerdict, BatchEnvelope};
use cbi_telemetry as telemetry;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
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

/// One shard's admission gate: deliveries admitted and not yet answered.
#[derive(Default)]
struct Gate {
    admitted: AtomicUsize,
    high_water: AtomicU64,
    shed: AtomicU64,
}

/// What the connection threads share.
struct Ingest {
    core: IngestCore,
    gates: Vec<Gate>,
    connections: AtomicU64,
    rejected_connections: AtomicU64,
    /// The first journal failure; it ends the run in an error.
    journal_error: OnceLock<ServeError>,
}

impl Ingest {
    fn new(core: IngestCore) -> Ingest {
        Ingest {
            gates: (0..core.config().shards).map(|_| Gate::default()).collect(),
            core,
            connections: AtomicU64::new(0),
            rejected_connections: AtomicU64::new(0),
            journal_error: OnceLock::new(),
        }
    }

    /// Serves `max_clients` connections; whether an acceptor panicked.
    fn serve(&self, listener: &TcpListener, options: &ServerOptions) -> io::Result<bool> {
        let listeners = (0..options.resolved_acceptors())
            .map(|_| listener.try_clone())
            .collect::<io::Result<Vec<_>>>()?;
        let claimed = &AtomicU64::new(0);
        Ok(thread::scope(|scope| {
            let threads: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(a, listener)| {
                    scope.spawn(move || {
                        telemetry::set_worker(a as u32 + 1);
                        while claimed.fetch_add(1, Ordering::AcqRel) < options.max_clients {
                            match listener.accept() {
                                Ok((stream, peer)) => self.handle_connection(stream, peer),
                                Err(_) => {
                                    self.rejected_connections.fetch_add(1, Ordering::AcqRel);
                                    break;
                                }
                            }
                        }
                    })
                })
                .collect();
            // Joined by handle, so a panic ends here instead of
            // unwinding out of the scope into the caller.
            threads
                .into_iter()
                .fold(false, |any, t| t.join().is_err() | any)
        }))
    }

    /// Serves one connection to completion, counting its fate.
    fn handle_connection(&self, stream: TcpStream, peer: SocketAddr) {
        let _span = telemetry::span("serve.connection");
        match self.serve_connection(stream, peer.ip().to_string().into()) {
            Ok(()) => {
                self.connections.fetch_add(1, Ordering::AcqRel);
            }
            Err(err) => {
                self.rejected_connections.fetch_add(1, Ordering::AcqRel);
                telemetry::count("serve.rejected_connections", 1);
                if let ServeError::Journal { .. } = err {
                    let _ = self.journal_error.set(err);
                }
            }
        }
    }

    /// Reads, processes and acks envelopes until the client closes.
    fn serve_connection(&self, stream: TcpStream, origin: Arc<str>) -> Result<(), ServeError> {
        stream.set_nodelay(true).ok();
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        let mut ack = Vec::new();
        while let Some(read) = read_envelope(&mut reader)? {
            let (client, seq) = (read.envelope.client, read.envelope.seq);
            let verdict = match self.deliver(&origin, read.envelope, read.crc_ok) {
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
            .encode_into(&mut ack);
            writer.write_all(&ack)?;
            writer.flush()?;
        }
        Ok(())
    }

    /// Admits one envelope to its shard and processes it under the
    /// shard's lock.  Shed (not buffered) as [`ServeError::Backpressure`]
    /// when the shard already holds `queue_cap`.
    fn deliver(
        &self,
        origin: &Arc<str>,
        envelope: BatchEnvelope,
        crc_ok: bool,
    ) -> Result<AckVerdict, ServeError> {
        let start = telemetry::now_ns();
        let shard = self.core.shard_of(envelope.client);
        let gate = &self.gates[shard];
        let capacity = self.core.config().queue_cap;
        let depth = gate.admitted.fetch_add(1, Ordering::AcqRel) + 1;
        if depth > capacity {
            gate.admitted.fetch_sub(1, Ordering::AcqRel);
            gate.shed.fetch_add(1, Ordering::AcqRel);
            telemetry::count("serve.shed", 1);
            return Err(ServeError::Backpressure { shard, capacity });
        }
        gate.high_water.fetch_max(depth as u64, Ordering::AcqRel);
        let verdict = match self.core.shards[shard].lock() {
            Ok(mut state) => state.process(
                Some(origin.clone()),
                envelope,
                crc_ok,
                self.core.journal.as_ref(),
            ),
            Err(_) => Err(ServeError::WorkerPanicked { shard }),
        };
        gate.admitted.fetch_sub(1, Ordering::AcqRel);
        telemetry::record(
            "serve.ingest_us",
            telemetry::now_ns().saturating_sub(start) / 1_000,
        );
        telemetry::count("serve.batches_processed", 1);
        verdict
    }

    /// Ends the run: a poisoned shard, a panicked thread or a journal
    /// failure is an error; otherwise the core's fold and the summary.
    fn finish(self, panicked: bool) -> Result<ServeOutcome, ServeError> {
        if let Some(shard) = self.core.shards.iter().position(Mutex::is_poisoned) {
            return Err(ServeError::WorkerPanicked { shard });
        }
        if panicked {
            return Err(io::Error::other("a connection thread panicked").into());
        }
        if let Some(err) = self.journal_error.into_inner() {
            return Err(err);
        }
        let mut outcome = self.core.finish()?;
        let summary = &mut outcome.summary;
        summary.connections = self.connections.into_inner();
        summary.rejected_connections = self.rejected_connections.into_inner();
        for gate in self.gates {
            summary.shed += gate.shed.into_inner();
            summary.queue_high_water.push(gate.high_water.into_inner());
        }
        Ok(outcome)
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

    /// Serves exactly `max_clients` connections, then folds and returns
    /// the outcome.
    ///
    /// # Errors
    ///
    /// Propagates journal and fold errors, and returns
    /// [`ServeError::WorkerPanicked`] if a connection thread panicked
    /// while holding a shard; other per-connection failures are counted
    /// in the summary instead.
    pub fn run(self) -> Result<ServeOutcome, ServeError> {
        let ingest = Ingest::new(self.core);
        let panicked = ingest.serve(&self.listener, &self.options)?;
        ingest.finish(panicked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FsyncPolicy, ServeConfig};
    use cbi::prelude::{instrument, parse, Label, Report, Scheme};
    use cbi_reports::frame::read_ack;
    use cbi_reports::wire::encode_reports;

    /// A two-shard core over a tiny program, and a valid payload for it.
    fn core(queue_cap: usize) -> (IngestCore, Vec<u8>) {
        let program = parse("fn main() -> int { return read(); }").unwrap();
        let sites = instrument(&program, Scheme::Returns).unwrap().sites;
        let (hash, n) = (sites.layout_hash(), sites.total_counters());
        let report = Report::new(0, Label::Success, vec![0; n]);
        let payload = encode_reports(&[report], hash, n).unwrap();
        let config = ServeConfig {
            shards: 2,
            queue_cap,
            ..ServeConfig::default()
        };
        (IngestCore::new(sites, config).unwrap(), payload)
    }

    /// Serves `max_clients` connections on one acceptor while `clients`
    /// opens them; whether the acceptor panicked.
    fn serve_while(ingest: &Ingest, max_clients: u64, clients: impl FnOnce(SocketAddr)) -> bool {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options = ServerOptions {
            acceptors: 1,
            max_clients,
        };
        thread::scope(|scope| {
            let server = scope.spawn(|| ingest.serve(&listener, &options).unwrap());
            clients(addr);
            server.join().unwrap()
        })
    }

    /// Sends one envelope; its verdict, or `None` if the server hung up.
    fn send(stream: &mut TcpStream, envelope: &BatchEnvelope) -> Option<AckVerdict> {
        stream.write_all(&envelope.encode()).unwrap();
        read_ack(stream).ok().flatten().map(|ack| ack.verdict)
    }

    #[test]
    fn a_full_shard_sheds_overloaded_inline_then_accepts_the_retransmit() {
        let (core, payload) = core(2);
        let path = std::env::temp_dir().join(format!("cbi-serve-shed-{}", std::process::id()));
        let ingest = Ingest::new(core.with_journal(&path, FsyncPolicy::Never).unwrap());
        let journal = ingest.core.journal.as_ref().unwrap();
        let empty = journal.lock().unwrap().bytes();
        let envelope = BatchEnvelope::new(0, 7, 0, payload);
        let panicked = serve_while(&ingest, 1, |addr| {
            let mut stream = TcpStream::connect(addr).unwrap();
            ingest.gates[0].admitted.store(2, Ordering::Release);
            assert_eq!(send(&mut stream, &envelope), Some(AckVerdict::Overloaded));
            assert_eq!(ingest.gates[0].shed.load(Ordering::Acquire), 1);
            assert_eq!(ingest.core.shards[0].lock().unwrap().stats.batches, 0);
            assert_eq!(journal.lock().unwrap().bytes(), empty);
            ingest.gates[0].admitted.store(0, Ordering::Release);
            assert_eq!(send(&mut stream, &envelope), Some(AckVerdict::Accepted));
        });
        let outcome = ingest.finish(panicked).unwrap();
        assert_eq!((outcome.summary.shed, outcome.summary.batches), (1, 1));
        assert_eq!(outcome.summary.connections, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_poisoned_shard_drops_its_connections_and_fails_the_run() {
        let (core, payload) = core(4);
        let ingest = Ingest::new(core);
        thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _held = ingest.core.shards[0].lock();
                panic!("poisoning shard 0");
            });
            assert!(poisoner.join().is_err());
        });
        let panicked = serve_while(&ingest, 2, |addr| {
            for (client, verdict) in [(0, None), (1, Some(AckVerdict::Accepted))] {
                let envelope = BatchEnvelope::new(client, 0, 0, payload.clone());
                let mut stream = TcpStream::connect(addr).unwrap();
                assert_eq!(send(&mut stream, &envelope), verdict);
            }
        });
        assert!(!panicked);
        assert_eq!(ingest.rejected_connections.load(Ordering::Acquire), 1);
        assert_eq!(ingest.connections.load(Ordering::Acquire), 1);
        let poisoned = ingest.core.shards[0].lock().err().expect("poisoned");
        assert_eq!(poisoned.into_inner().stats.batches, 0);
        assert!(matches!(
            ingest.finish(panicked),
            Err(ServeError::WorkerPanicked { shard: 0 })
        ));
    }
}
