//! Cooperative bug isolation via remote program sampling.
//!
//! A from-scratch reproduction of *Bug Isolation via Remote Program
//! Sampling* (Liblit, Aiken, Zheng, Jordan; PLDI 2003): statistically fair
//! sampling of program instrumentation, compact counter-vector feedback
//! reports, and statistical analyses that isolate bugs from the reports.
//!
//! # Architecture
//!
//! ```text
//!   cbi-minic       MiniC language front end (the C substrate)
//!      │
//!   cbi-instrument  observation schemes + fair-sampling transformation
//!      │
//!   cbi-vm          deterministic interpreter, corruptible heap, op costs
//!      │
//!   cbi-reports     counter-vector reports, central collector
//!      │
//!   cbi-stats       elimination strategies, ℓ₁ logistic regression
//!      │
//!   cbi-workloads   benchmark analogues, ccrypt/bc case studies
//!      │
//!   cbi (this)      end-to-end pipelines: eliminate() and regress()
//! ```
//!
//! # Quickstart
//!
//! ```
//! use cbi::prelude::*;
//!
//! // A buggy program: crashes whenever g() returns zero.
//! let program = cbi::minic::parse(
//!     "fn g() -> int { if (has_input() == 0) { return 0; } return read(); }
//!      fn main() -> int {
//!          ptr buf = alloc(4);
//!          int v = g();
//!          buf[0] = 100 / v;     // divide by zero when g() == 0
//!          print(buf[0]);
//!          free(buf);
//!          return 0;
//!      }",
//! )?;
//!
//! // Fuzz it: some runs have input, some do not.
//! let trials: Vec<Vec<i64>> = (0..400)
//!     .map(|i| if i % 11 == 0 { vec![] } else { vec![(i % 9) + 1] })
//!     .collect();
//!
//! let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(2));
//! let result = run_campaign(&program, &trials, &config)?;
//! let report = cbi::eliminate(&result);
//! assert!(report.failures > 0);
//! // The surviving predicate names the culprit: g() == 0.
//! assert!(report.combined_names.iter().any(|p| p.contains("g() == 0")));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coverage;
pub mod detection;
pub mod epoch;
pub mod health;
pub mod pipeline;
pub mod streaming;
pub mod traces;

pub use coverage::{coverage, CoverageReport};
pub use detection::FirstObservation;
pub use epoch::{CohortStats, EpochAggregator, EpochSnapshot, FlightRecorder, IngestEvent};
pub use health::{
    health_registry, render_health, EpochIndicators, HealthConfig, HealthEvent, HealthMonitor,
};
pub use pipeline::{
    eliminate, eliminate_stats, regress, EliminationReport, PipelineError, RegressionConfig,
    RegressionStudy,
};
pub use streaming::{StreamingAnalyzer, StreamingConfig};
pub use traces::{crash_proximity, ProximityConfig, ProximityEntry, ProximityReport};

pub use cbi_instrument as instrument;
pub use cbi_minic as minic;
pub use cbi_reports as reports;
pub use cbi_sampler as sampler;
pub use cbi_stats as stats;
pub use cbi_telemetry as telemetry;
pub use cbi_vm as vm;
pub use cbi_workloads as workloads;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::pipeline::{
        eliminate, regress, EliminationReport, PipelineError, RegressionConfig, RegressionStudy,
    };
    pub use crate::streaming::{StreamingAnalyzer, StreamingConfig};
    pub use cbi_instrument::{
        apply_sampling, instrument, strip_sites, Scheme, SiteTable, TransformOptions,
    };
    pub use cbi_minic::{parse, pretty, resolve, Program};
    pub use cbi_reports::{
        Collector, Label, Report, ReportLayout, ReportSink, SpoolSink, SufficientStats,
        TransmitSink,
    };
    pub use cbi_sampler::{CountdownSource, Geometric, LazyBank, SamplingDensity};
    pub use cbi_stats::{Dataset, LogisticModel, Strategy, TrainConfig};
    pub use cbi_vm::{RunOutcome, Vm};
    pub use cbi_workloads::{
        run_campaign, run_campaign_into, CampaignConfig, CampaignResult, CampaignRun,
    };
}
