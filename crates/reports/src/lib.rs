//! Feedback reports and the central collection infrastructure (§2.5, §5).
//!
//! Instrumented clients emit one [`Report`] per run: a counter vector (one
//! counter per predicate, ordering information discarded) plus a binary
//! success/failure [`Label`].  [`SufficientStats`] folds each report into
//! the per-counter aggregates every analysis reads (§5), and a
//! [`SparseArchive`] is the one store of report rows, each kept as its
//! nonzero counters — what an ingest server, a spool reader and the
//! isolation index retain.  A [`Collector`] models the central database
//! with every report kept dense beside its statistics.
//!
//! Collection policy is abstracted behind [`ReportSink`]: the campaign
//! driver emits into any sink — a [`SparseArchive`], the in-memory
//! [`Collector`], a [`WireSink`] spooling to disk, or the framed-socket
//! [`TransmitSink`] —
//! and the [`wire`] module defines the versioned, layout-hashed binary
//! format those streams use on disk and on the network.
//!
//! # Example
//!
//! ```
//! use cbi_reports::{Collector, Label, Report, SufficientStats};
//!
//! let mut db = Collector::new(2);
//! db.add(Report::new(0, Label::Success, vec![3, 0]))?;
//! db.add(Report::new(1, Label::Failure, vec![0, 1]))?;
//! assert_eq!(db.failure_count(), 1);
//!
//! let stats: &SufficientStats = db.stats();
//! assert_eq!(stats.nonzero_failures(1), 1);
//! # Ok::<(), cbi_reports::CollectError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod collector;
pub mod frame;
pub mod ingest;
pub mod report;
pub mod sink;
pub mod suffstats;
pub mod wire;

pub use archive::{SparseArchive, SparseRow};
pub use collector::{CollectError, Collector};
pub use frame::{AckVerdict, BatchAck, BatchEnvelope, EnvelopeRead};
pub use ingest::{
    decode_batch, validate_batch, BatchIngest, BatchRejected, BatchStats, DecodeOutcome, Provenance,
};
pub use report::{nonzero, Label, Report};
pub use sink::{ReportLayout, ReportSink, SinkError, TransmitSink, WireSink};
pub use suffstats::SufficientStats;
pub use wire::{StreamHeader, WireError, WireErrorKind, WireReader, WireWriter};
