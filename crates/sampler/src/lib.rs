//! Sampling runtime for cooperative bug isolation.
//!
//! This crate implements the statistical core of the sampling framework from
//! *Bug Isolation via Remote Program Sampling* (Liblit, Aiken, Zheng, Jordan;
//! PLDI 2003), §2.1: instead of tossing a biased coin at every
//! instrumentation site, the instrumented program maintains a *next-sample
//! countdown* drawn from a geometric distribution.  The countdown predicts
//! how many sampling opportunities will be skipped before the next sample is
//! taken, which lets instrumented code branch into an instrumentation-free
//! fast path whenever the countdown exceeds the number of sites ahead.
//!
//! The crate provides:
//!
//! * [`Pcg32`] — a small, fast, deterministic PRNG (PCG-XSH-RR), so that
//!   every experiment in the repository is reproducible from a seed;
//! * [`Geometric`] — geometrically distributed countdown generation via
//!   inversion of the CDF, as suggested in §2.1 ("geometrically distributed
//!   random numbers can be generated directly using a standard uniform
//!   random generator and some simple floating-point operations");
//! * [`CountdownSource`] — the interface the instrumented runtime uses to
//!   refill its countdown, with geometric, strictly periodic
//!   (Arnold–Ryder-style) and uniform-interval (DCPI-style) implementations,
//!   the latter two serving as baselines for the fairness ablation;
//! * [`LazyBank`] — the per-run bank of countdowns (§3.1.1 uses banks of
//!   1024), cycling like the real deployment, drawn on first use;
//! * [`fairness`] — chi-square and moment checks used to demonstrate that
//!   geometric countdowns realize a fair Bernoulli process while periodic
//!   triggers do not;
//! * [`Categorical`] and [`Zipf`] — seeded discrete distributions used to
//!   model heterogeneous user communities (density mixes, skewed
//!   workload/input popularity) in the fleet simulator.
//!
//! # Example
//!
//! ```
//! use cbi_sampler::{CountdownSource, Geometric, SamplingDensity};
//!
//! let density = SamplingDensity::new(0.01).unwrap(); // sample 1/100 sites
//! let mut src = Geometric::new(density, 42);
//! let cd = src.next_countdown();
//! assert!(cd >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod countdown;
pub mod fairness;
pub mod geometric;
pub mod rng;
pub mod zipf;

pub use countdown::{Bernoulli, CountdownSource, LazyBank, Periodic, UniformInterval};
pub use geometric::Geometric;
pub use rng::Pcg32;
pub use zipf::{Categorical, CategoricalError, Zipf};

use std::error::Error;
use std::fmt;

/// A sampling density: the probability that any given instrumentation site
/// is sampled when execution crosses it.
///
/// Densities are written `1/d` throughout the paper; this type stores the
/// probability `p = 1/d` and validates `0 < p <= 1`.
///
/// ```
/// use cbi_sampler::SamplingDensity;
/// let d = SamplingDensity::one_in(1000);
/// assert!((d.probability() - 0.001).abs() < 1e-12);
/// assert_eq!(d.mean_countdown(), 1000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingDensity(f64);

impl SamplingDensity {
    /// Creates a density from a probability in `(0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`DensityError`] if `p` is not a finite number in `(0, 1]`.
    pub fn new(p: f64) -> Result<Self, DensityError> {
        if p.is_finite() && p > 0.0 && p <= 1.0 {
            Ok(SamplingDensity(p))
        } else {
            Err(DensityError(p))
        }
    }

    /// Creates the density `1/d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn one_in(d: u64) -> Self {
        assert!(d > 0, "sampling density denominator must be nonzero");
        SamplingDensity(1.0 / d as f64)
    }

    /// Density 1: every site is sampled (unconditional instrumentation).
    pub fn always() -> Self {
        SamplingDensity(1.0)
    }

    /// The per-site sampling probability `p`.
    pub fn probability(self) -> f64 {
        self.0
    }

    /// The mean of the matching geometric countdown distribution, `1/p`.
    pub fn mean_countdown(self) -> f64 {
        1.0 / self.0
    }
}

impl fmt::Display for SamplingDensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "always")
        } else {
            write!(f, "1/{}", (1.0 / self.0).round() as u64)
        }
    }
}

/// Error returned when constructing a [`SamplingDensity`] from an invalid
/// probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityError(f64);

impl fmt::Display for DensityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sampling probability must be a finite number in (0, 1], got {}",
            self.0
        )
    }
}

impl Error for DensityError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_accepts_valid_probabilities() {
        assert!(SamplingDensity::new(1.0).is_ok());
        assert!(SamplingDensity::new(0.5).is_ok());
        assert!(SamplingDensity::new(1e-9).is_ok());
    }

    #[test]
    fn density_rejects_invalid_probabilities() {
        assert!(SamplingDensity::new(0.0).is_err());
        assert!(SamplingDensity::new(-0.1).is_err());
        assert!(SamplingDensity::new(1.5).is_err());
        assert!(SamplingDensity::new(f64::NAN).is_err());
        assert!(SamplingDensity::new(f64::INFINITY).is_err());
    }

    #[test]
    fn density_display_matches_paper_notation() {
        assert_eq!(SamplingDensity::one_in(100).to_string(), "1/100");
        assert_eq!(SamplingDensity::one_in(1000).to_string(), "1/1000");
        assert_eq!(SamplingDensity::always().to_string(), "always");
    }

    #[test]
    fn density_error_is_displayable() {
        let err = SamplingDensity::new(0.0).unwrap_err();
        assert!(err.to_string().contains("0"));
    }

    #[test]
    fn mean_countdown_is_inverse_probability() {
        let d = SamplingDensity::one_in(250);
        assert_eq!(d.mean_countdown(), 250.0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn one_in_zero_panics() {
        let _ = SamplingDensity::one_in(0);
    }
}
