//! Geometrically distributed next-sample countdowns (§2.1).
//!
//! A Bernoulli process with success probability `p` has inter-arrival times
//! that follow the geometric distribution on `{1, 2, 3, …}`:
//! `P(N = k) = (1 - p)^(k-1) · p`, with mean `1/p`.  Drawing countdowns from
//! this distribution is *exactly* equivalent to tossing the biased coin at
//! every site, but allows the next sample to be anticipated — the key to the
//! fast-path/slow-path transformation.

use crate::countdown::CountdownSource;
use crate::rng::Pcg32;
use crate::SamplingDensity;

/// A geometric countdown generator realizing a fair Bernoulli process.
///
/// Countdowns are produced by inverting the geometric CDF:
/// `N = ceil(ln(U) / ln(1 - p))` for `U` uniform on `(0, 1]`.
///
/// ```
/// use cbi_sampler::{CountdownSource, Geometric, SamplingDensity};
/// let mut g = Geometric::new(SamplingDensity::one_in(100), 1);
/// let mean: f64 = (0..20_000).map(|_| g.next_countdown() as f64).sum::<f64>() / 20_000.0;
/// assert!((mean - 100.0).abs() < 5.0, "sample mean {mean} should be near 100");
/// ```
#[derive(Debug, Clone)]
pub struct Geometric {
    density: SamplingDensity,
    rng: Pcg32,
    /// Precomputed `ln(1 - p)`; `None` when `p == 1` (always sample).
    log_q: Option<f64>,
}

impl Geometric {
    /// Creates a generator for the given density, seeded deterministically.
    pub fn new(density: SamplingDensity, seed: u64) -> Self {
        let p = density.probability();
        let log_q = if p >= 1.0 { None } else { Some((1.0 - p).ln()) };
        Geometric {
            density,
            rng: Pcg32::new(seed),
            log_q,
        }
    }

    /// The density this generator was built for.
    pub fn density(&self) -> SamplingDensity {
        self.density
    }

    /// Draws one geometric variate on `{1, 2, 3, …}` with mean `1/p`.
    pub fn draw(&mut self) -> u64 {
        match self.log_q {
            // p == 1: the next opportunity is always sampled.
            None => 1,
            Some(log_q) => {
                let u = self.rng.next_f64_open();
                // ln(u) <= 0 and log_q < 0, so the ratio is >= 0.
                let k = (u.ln() / log_q).ceil();
                if k < 1.0 {
                    1
                } else if k >= u64::MAX as f64 {
                    // The paper notes the odds of a 1/100 countdown exceeding
                    // 2^32 - 1 are below 1 in 10^107; we saturate anyway.
                    u64::MAX
                } else {
                    k as u64
                }
            }
        }
    }
}

impl CountdownSource for Geometric {
    fn next_countdown(&mut self) -> u64 {
        cbi_telemetry::count("sampler.refills", 1);
        self.draw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_density_yields_countdown_one() {
        let mut g = Geometric::new(SamplingDensity::always(), 3);
        for _ in 0..100 {
            assert_eq!(g.draw(), 1);
        }
    }

    #[test]
    fn countdowns_are_at_least_one() {
        let mut g = Geometric::new(SamplingDensity::new(0.9).unwrap(), 11);
        for _ in 0..10_000 {
            assert!(g.draw() >= 1);
        }
    }

    #[test]
    fn sample_mean_matches_inverse_density() {
        for &d in &[2u64, 10, 100, 1000] {
            let mut g = Geometric::new(SamplingDensity::one_in(d), 17);
            let n = 200_000 / d.max(1) * d; // plenty of draws
            let n = n.clamp(50_000, 200_000);
            let sum: f64 = (0..n).map(|_| g.draw() as f64).sum();
            let mean = sum / n as f64;
            let expect = d as f64;
            let tol = expect * 0.05;
            assert!(
                (mean - expect).abs() < tol,
                "density 1/{d}: mean {mean} not within {tol} of {expect}"
            );
        }
    }

    #[test]
    fn sample_variance_matches_geometric() {
        // Var = (1-p)/p^2; for p = 1/10 that is 90.
        let p = 0.1;
        let mut g = Geometric::new(SamplingDensity::new(p).unwrap(), 23);
        let n = 200_000;
        let draws: Vec<f64> = (0..n).map(|_| g.draw() as f64).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let expect = (1.0 - p) / (p * p);
        assert!(
            (var - expect).abs() < expect * 0.1,
            "variance {var} vs expected {expect}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = Geometric::new(SamplingDensity::one_in(100), 5);
        let mut b = Geometric::new(SamplingDensity::one_in(100), 5);
        for _ in 0..1000 {
            assert_eq!(a.draw(), b.draw());
        }
    }

    #[test]
    fn memorylessness_of_implied_process() {
        // Expand countdowns back into coin tosses and check that the
        // conditional sampling rate after a skip equals the overall rate.
        let p = 0.05;
        let mut g = Geometric::new(SamplingDensity::new(p).unwrap(), 31);
        let mut tosses = Vec::new();
        while tosses.len() < 400_000 {
            let k = g.draw();
            tosses.extend(std::iter::repeat_n(false, (k - 1) as usize));
            tosses.push(true);
        }
        let after_skip: Vec<bool> = tosses.windows(2).filter(|w| !w[0]).map(|w| w[1]).collect();
        let rate = after_skip.iter().filter(|&&t| t).count() as f64 / after_skip.len() as f64;
        assert!(
            (rate - p).abs() < 0.005,
            "post-skip rate {rate} should equal {p}"
        );
    }

    #[test]
    fn draws_always_positive() {
        // Randomized sweep over densities and seeds (seeded, reproducible).
        let mut rng = Pcg32::new(0xd3a9);
        for _ in 0..256 {
            let p = (rng.next_f64() * (1.0 - 1e-6) + 1e-6).min(1.0);
            let seed = rng.below(1000);
            let mut g = Geometric::new(SamplingDensity::new(p).unwrap(), seed);
            for _ in 0..50 {
                assert!(g.draw() >= 1, "p={p} seed={seed}");
            }
        }
    }

    #[test]
    fn draw_with_p_one_is_always_one() {
        for seed in 0u64..1000 {
            let mut g = Geometric::new(SamplingDensity::always(), seed);
            assert_eq!(g.draw(), 1, "seed={seed}");
        }
    }
}
