//! Fleet simulator: a heterogeneous, fault-prone user community driving
//! the remote sampling pipeline at scale.
//!
//! §3.1.3 of *Bug Isolation via Remote Program Sampling* treats the user
//! community itself as the detection instrument ("sixty million Office
//! XP licenses … produce 230,258 runs every nineteen minutes").  This
//! crate composes every ingredient the repository already has — the
//! fair sampler, single-function instrumentation variants (§3.1.2),
//! mixed sampling densities (§3.1.1), the binary wire format, and
//! streaming server-side analysis (§5) — into a deterministic model of
//! such a community:
//!
//! * [`ClientProfile`] — each simulated user draws a sampling density
//!   from a configured mix, an instrumentation variant, a binary
//!   version (stale clients are *rejected, counted, never crashed* by
//!   the layout-hash handshake), all from seeded distributions;
//! * a Zipf-skewed input population ([`cbi_sampler::Zipf`]) models
//!   which workloads users actually run;
//! * [`ChannelSpec`] — clients spool reports and transmit batches over
//!   a lossy channel (seeded drop/truncate/bit-flip faults) with
//!   bounded retry and exponential backoff;
//! * the server folds surviving batches into
//!   [`cbi::EpochAggregator`], answering "after N community runs, what
//!   is detection latency, survivor count, rank of the planted bug, and
//!   bytes on the wire?" against corpus ground truth.
//!
//! Everything is a pure function of the [`FleetSpec`] seed, and the
//! batch fold happens in a canonical order, so any `--jobs` produces
//! byte-identical summaries — the same ordered-merge contract the
//! campaign engine established.
//!
//! # Example
//!
//! ```
//! use cbi_fleet::{run_fleet, ChannelSpec, FleetSpec};
//!
//! let program = cbi_minic::parse(
//!     "fn main() -> int { int v = read(); print(v); return 0; }",
//! )?;
//! let pool: Vec<Vec<i64>> = (0..16).map(|i| vec![i]).collect();
//! let mut spec = FleetSpec::new(8, 64);
//! spec.channel = ChannelSpec::faulty(0.2);
//! let report = run_fleet(&program, &pool, &spec, None)?;
//! assert_eq!(report.summary.runs, 64);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod corpus;
pub mod profile;
pub mod sim;
pub mod socket;
pub mod summary;

pub use channel::{
    send_batch, transmit, ChannelSpec, Delivery, Rejection, SendOutcome, SendResult,
};
pub use corpus::run_corpus_fleet;
pub use profile::{draw_profiles, ClientProfile};
pub use sim::{run_fleet, FleetReport, FleetSpec, FleetSummary};
pub use socket::{run_fleet_over_socket, SocketFleetSummary, SocketOptions};
pub use summary::render_summary;

use std::error::Error;
use std::fmt;

/// An error from fleet simulation setup or execution.
///
/// Channel faults, rejected batches, and crashing runs are *data*
/// (counted in the [`FleetSummary`]), never errors.
#[derive(Debug)]
pub enum FleetError {
    /// The spec is internally inconsistent.
    Config(String),
    /// Instrumentation, transformation, or VM execution failed.
    Workload(cbi_workloads::WorkloadError),
    /// Encoding a spooled batch failed.
    Wire(cbi_reports::WireError),
    /// The server sink rejected the stream at setup.
    Sink(cbi_reports::SinkError),
    /// A corpus entry's source no longer parses or instruments, or its
    /// layout or true predicate drifted from the manifest (ground truth
    /// would be meaningless).
    Corpus(cbi_corpus::CorpusError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(m) => write!(f, "fleet config: {m}"),
            FleetError::Workload(e) => write!(f, "fleet: {e}"),
            FleetError::Wire(e) => write!(f, "fleet spool: {e}"),
            FleetError::Sink(e) => write!(f, "fleet server: {e}"),
            FleetError::Corpus(e) => write!(f, "fleet: {e}"),
        }
    }
}

impl Error for FleetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FleetError::Workload(e) => Some(e),
            FleetError::Wire(e) => Some(e),
            FleetError::Sink(e) => Some(e),
            FleetError::Corpus(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cbi_workloads::WorkloadError> for FleetError {
    fn from(e: cbi_workloads::WorkloadError) -> Self {
        FleetError::Workload(e)
    }
}

impl From<cbi_instrument::InstrumentError> for FleetError {
    fn from(e: cbi_instrument::InstrumentError) -> Self {
        FleetError::Workload(e.into())
    }
}

impl From<cbi_vm::VmError> for FleetError {
    fn from(e: cbi_vm::VmError) -> Self {
        FleetError::Workload(e.into())
    }
}

impl From<cbi_reports::WireError> for FleetError {
    fn from(e: cbi_reports::WireError) -> Self {
        FleetError::Wire(e)
    }
}

impl From<cbi_reports::SinkError> for FleetError {
    fn from(e: cbi_reports::SinkError) -> Self {
        FleetError::Sink(e)
    }
}
