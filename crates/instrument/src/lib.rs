//! Instrumentation and the fair-sampling transformation.
//!
//! This crate implements the compiler half of *Bug Isolation via Remote
//! Program Sampling*: it decides **what** to observe (instrumentation
//! [`schemes`]) and **how** to observe it cheaply and fairly (the sampling
//! [`transform`]).
//!
//! The pipeline on a resolved MiniC program:
//!
//! ```text
//!   program ──instrument(scheme)──► Instrumented { program, sites }
//!               │
//!               ├── strip_sites(..)          → baseline (no instrumentation)
//!               ├── (as is)                  → unconditional instrumentation
//!               └── apply_sampling(..)       → sampled instrumentation
//! ```
//!
//! All three versions of the program execute in `cbi-vm`; their relative
//! op counts reproduce the overhead tables of §3.1.
//!
//! # Example
//!
//! ```
//! use cbi_instrument::{instrument, Scheme, apply_sampling, TransformOptions};
//!
//! let program = cbi_minic::parse(
//!     "fn f(ptr p, int i) { check(p != null); check(i < 10); }",
//! )?;
//! let inst = instrument(&program, Scheme::Checks)?;
//! assert_eq!(inst.sites.len(), 2);
//! let (sampled, stats) = apply_sampling(&inst.program, &TransformOptions::default())?;
//! assert_eq!(stats.functions_with_sites(), 1);
//! assert!(sampled.global("__gcd").is_some());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod normalize;
pub mod schemes;
pub mod selective;
pub mod sites;
pub mod strip;
pub mod transform;
pub mod weightless;

pub use metrics::{code_growth, StaticMetrics};
pub use normalize::flatten_calls;
pub use schemes::{instrument, Instrumented, Scheme};
pub use selective::{single_function_variants, transform_variants, TransformedVariant, Variant};
pub use sites::{site_stmt, Site, SiteId, SiteKind, SiteTable};
pub use strip::{strip_sites, strip_sites_except};
pub use transform::{
    apply_sampling, count_sites_block, segment_weight, FunctionStats, TransformOptions,
    TransformStats,
};
pub use weightless::weightless_functions;

use std::error::Error;
use std::fmt;

/// An error from instrumentation or transformation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrumentError {
    message: String,
}

impl InstrumentError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        InstrumentError {
            message: message.into(),
        }
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for InstrumentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instrumentation error: {}", self.message)
    }
}

impl Error for InstrumentError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_displays_message() {
        let e = InstrumentError::new("boom");
        assert_eq!(e.to_string(), "instrumentation error: boom");
        assert_eq!(e.message(), "boom");
    }

    #[test]
    fn full_pipeline_checks_scheme() {
        let program = cbi_minic::parse(
            "fn helper(int x) -> int { return x + 1; }\n\
             fn main() -> int {\n\
                 ptr p = alloc(8);\n\
                 int i = 0;\n\
                 while (i < 8) {\n\
                     check(i < len(p));\n\
                     p[i] = helper(i);\n\
                     i = i + 1;\n\
                 }\n\
                 free(p);\n\
                 return 0;\n\
             }",
        )
        .unwrap();
        let inst = instrument(&program, Scheme::Checks).unwrap();
        assert!(inst.sites.len() >= 2, "assert + store bounds");
        let baseline = strip_sites(&inst.program);
        assert!(
            cbi_minic::ast::program_size(&baseline) < cbi_minic::ast::program_size(&inst.program)
        );
        let (sampled, stats) = apply_sampling(&inst.program, &TransformOptions::default()).unwrap();
        assert!(stats.functions_with_sites() >= 1);
        cbi_minic::resolve(&sampled).unwrap();
    }
}
