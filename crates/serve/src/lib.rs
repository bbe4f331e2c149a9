//! Production network ingest: the "central server" of §1's feedback
//! loop at deployment scale.
//!
//! The loopback [`cbi::IngestServer`] drains one connection at a time
//! into one analyzer and forgets everything on a crash.  This crate is
//! the production replacement, built only on `std::net`:
//!
//! * **Sharded ingest, one analysis.**  Batches route to `client mod
//!   shards` worker shards, which deduplicate, validate (the decoder's
//!   frame walk, materialising nothing), journal and ack — and analyse
//!   nothing.  The analysis is produced once, at shutdown, by the same
//!   ordered-merge discipline the campaign driver and fleet use: every
//!   committed batch's bytes are walked in `(seq, client)` order and
//!   each report's nonzero counters folded into a fresh
//!   [`EpochAggregator`](cbi::EpochAggregator) — no dense report is
//!   built — so the result is byte-identical at any shard count, and
//!   identical to feeding the same batches through an in-process
//!   aggregator.
//! * **Backpressure, never an unbounded buffer.**  Each shard has a
//!   bounded queue; a full queue surfaces as the typed
//!   [`ServeError::Backpressure`], which the connection handler answers
//!   with an `overloaded` NACK so the client retransmits after backoff.
//! * **Idempotent acks.**  Batches arrive in [`BatchEnvelope`] frames
//!   keyed by `(client, seq)` (see `cbi_reports::frame`).  A client
//!   that never saw its ack retransmits; the server answers
//!   `duplicate` without re-ingesting, so retry loops converge on
//!   exactly-once commit semantics.
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
//! thread-per-core accept loop speaking both the envelope protocol and
//! the legacy raw `CBIR` stream (`cbi transmit`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod journal;
pub mod server;
mod shard;

pub use crate::core::{render_analysis, IngestCore, ServeConfig, ServeOutcome, ServeSummary};
pub use journal::{FsyncPolicy, Journal, JournalReplay};
pub use server::{ServerOptions, TcpIngestServer};

use cbi_reports::{BatchEnvelope, SinkError, WireError};
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
    /// A shard's bounded ingest queue was full; the batch was shed and
    /// the client NACKed to retransmit after backoff.
    Backpressure {
        /// The overloaded shard.
        shard: usize,
        /// The queue bound that was hit.
        capacity: usize,
    },
    /// Invalid configuration (zero shards, malformed fsync policy, a
    /// journal whose layout hash does not match the served binary, …).
    Config(String),
    /// A shard worker thread panicked; what it had committed is lost to
    /// this process (a journal, if attached, still holds it).
    WorkerPanicked {
        /// The shard whose worker died.
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
                "shard {shard} ingest queue full (capacity {capacity}); batch shed"
            ),
            ServeError::Config(msg) => write!(f, "serve configuration error: {msg}"),
            ServeError::WorkerPanicked { shard } => write!(f, "shard {shard} worker panicked"),
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

/// Synthetic client-id base for legacy raw `CBIR` connections, which
/// carry no client identity of their own.  High enough to never collide
/// with fleet client ids.
pub const LEGACY_CLIENT_BASE: u64 = 1 << 62;

/// Builds the synthetic envelope a legacy raw-stream connection commits
/// as: the `n`-th legacy connection becomes client `LEGACY_CLIENT_BASE
/// + n`, sequence `n`, attempt 0.
pub fn legacy_envelope(n: u64, payload: Vec<u8>) -> BatchEnvelope {
    BatchEnvelope::new(LEGACY_CLIENT_BASE + n, n, 0, payload)
}
