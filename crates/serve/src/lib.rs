//! Network ingest: the "central server" of §1's feedback loop, the one
//! way a report reaches a server-side analysis.  Built only on
//! `std::net`:
//!
//! * **Sharded ingest, one analysis.**  Batches route to `client mod
//!   shards` shards.  The connection thread that read a batch locks its
//!   shard and there deduplicates, validates (the decoder's frame walk,
//!   materialising nothing), journals and acks it — and analyses
//!   nothing.  The analysis is produced once, at shutdown, by the same
//!   ordered-merge discipline the campaign driver and fleet use: every
//!   committed batch's bytes are walked in `(seq, client)` order and
//!   each report's nonzero counters folded into a fresh
//!   [`EpochAggregator`](cbi::EpochAggregator) — no dense report is
//!   built — so the result is byte-identical at any shard count, and
//!   identical to feeding the same batches through an in-process
//!   aggregator.
//! * **Backpressure, never an unbounded buffer.**  Each shard admits at
//!   most `queue_cap` deliveries not yet answered; one more surfaces as
//!   the typed [`ServeError::Backpressure`], which the connection
//!   answers with an `overloaded` NACK so the client retransmits after
//!   backoff.
//! * **Idempotent acks.**  Batches arrive in [`BatchEnvelope`] frames
//!   keyed by `(client, seq)` (see `cbi_reports::frame`).  A client
//!   that never saw its ack retransmits; the server answers
//!   `duplicate` without re-ingesting, so retry loops converge on
//!   exactly-once commit semantics.  Fleet clients key batches by
//!   their id and spool position; a `TransmitSink` stream (`cbi
//!   transmit`, `cbi campaign --transmit`) by a hash of its bytes.
//! * **Crash-safe journal.**  With a [`Journal`] attached, every batch
//!   is appended (length-prefixed, CRC-framed, fsync per policy)
//!   *before* it is acked.  Restarting with [`IngestCore::resume`]
//!   replays the journal — truncating a torn final record — and
//!   rebuilds every shard's dedup keys and accounting, so an
//!   interrupted campaign plus a client retransmit sweep ends in the
//!   same analysis as an uninterrupted one.
//!
//! [`IngestCore`] is the transport-free heart (usable in tests and as
//! an in-process baseline); [`TcpIngestServer`] wraps it in a
//! thread-per-core accept loop speaking the envelope protocol, each
//! connection served on the thread that accepted it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod journal;
pub mod server;
mod shard;

pub use crate::core::{render_analysis, IngestCore, ServeConfig, ServeOutcome, ServeSummary};
pub use journal::{FsyncPolicy, Journal, JournalReplay};
pub use server::{ServerOptions, TcpIngestServer};

use cbi_reports::{SinkError, WireError};
use std::error::Error;
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Error from the ingest server, its core, or its journal.
#[derive(Debug)]
pub enum ServeError {
    /// Listener or connection I/O failed.
    Io(io::Error),
    /// A stream or envelope was malformed beyond recovery.
    Wire(WireError),
    /// An analysis sink rejected a report.
    Sink(SinkError),
    /// The journal could not be written, read, or resumed.
    Journal {
        /// Journal file path.
        path: PathBuf,
        /// Underlying I/O failure.
        source: io::Error,
    },
    /// A shard already held its bound of admitted, unanswered
    /// deliveries; the batch was shed and the client NACKed to
    /// retransmit after backoff.
    Backpressure {
        /// The overloaded shard.
        shard: usize,
        /// The admission bound that was hit.
        capacity: usize,
    },
    /// Invalid configuration (zero shards, malformed fsync policy, a
    /// journal whose layout hash does not match the served binary, …).
    Config(String),
    /// A connection thread panicked while holding shard N; the
    /// poisoned shard processes nothing more, and what it had committed
    /// is lost to this process (a journal, if attached, still holds it).
    WorkerPanicked {
        /// The shard whose lock the panic poisoned.
        shard: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::Wire(e) => write!(f, "serve stream error: {e}"),
            ServeError::Sink(e) => write!(f, "serve sink error: {e}"),
            ServeError::Journal { path, source } => {
                write!(f, "journal error on {}: {source}", path.display())
            }
            ServeError::Backpressure { shard, capacity } => write!(
                f,
                "shard {shard} holds {capacity} unanswered deliveries; batch shed"
            ),
            ServeError::Config(msg) => write!(f, "serve configuration error: {msg}"),
            ServeError::WorkerPanicked { shard } => {
                write!(f, "a connection thread panicked holding shard {shard}")
            }
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Wire(e) => Some(e),
            ServeError::Sink(e) => Some(e),
            ServeError::Journal { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

impl From<SinkError> for ServeError {
    fn from(e: SinkError) -> Self {
        ServeError::Sink(e)
    }
}
