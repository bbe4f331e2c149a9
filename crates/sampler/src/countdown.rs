//! Countdown sources: how an instrumented program refills its next-sample
//! countdown when it reaches zero.
//!
//! The paper's deployment pre-generates a bank of 1024 geometric countdowns
//! per run (§3.1.1); [`LazyBank`] models this.  [`Periodic`] and
//! [`UniformInterval`] model the prior art the paper contrasts against in
//! §2.1 and §4: strictly periodic triggers (Arnold–Ryder) and uniformly
//! jittered intervals (Digital Continuous Profiling Infrastructure).  Both
//! fail the fairness checks in [`crate::fairness`].

use crate::geometric::Geometric;
use crate::rng::Pcg32;
use crate::SamplingDensity;

/// Anything that can supply the next-sample countdown for the instrumented
/// runtime.
///
/// A countdown of `k` means: skip `k - 1` sampling opportunities, then
/// sample the `k`-th.  Implementations must return values `>= 1`.
pub trait CountdownSource {
    /// Produces the next countdown (always `>= 1`).
    fn next_countdown(&mut self) -> u64;
}

impl<T: CountdownSource + ?Sized> CountdownSource for Box<T> {
    fn next_countdown(&mut self) -> u64 {
        (**self).next_countdown()
    }
}

impl<T: CountdownSource + ?Sized> CountdownSource for &mut T {
    fn next_countdown(&mut self) -> u64 {
        (**self).next_countdown()
    }
}

/// A cycling bank of geometric countdowns that draws its values on first
/// use instead of up front.
///
/// §3.1.1: "each run used a different pre-generated bank of 1024
/// geometrically distributed random countdowns."  A bank of `n` countdowns
/// for `1/d` sampling encodes on average `n·d` coin tosses, so modest banks
/// last a long time (§2.1).
///
/// The countdown sequence is the one a pre-generated bank would hold — the
/// first `cap` refills are the first `cap` draws of
/// [`Geometric::new(density, seed)`](Geometric::new), and the bank cycles
/// after that — but a run that consumes only a handful of refills (the
/// common case at 1/100 sampling) never pays for the draws it doesn't use.
/// Campaign and fleet workers recycle one `LazyBank` across thousands of
/// runs via [`reseed`].
///
/// ```
/// use cbi_sampler::{CountdownSource, Geometric, LazyBank, SamplingDensity};
/// let density = SamplingDensity::one_in(10);
/// let mut bank = LazyBank::new(density, 1024, 7);
/// assert_eq!(bank.next_countdown(), Geometric::new(density, 7).draw());
/// ```
///
/// [`reseed`]: LazyBank::reseed
#[derive(Debug, Clone)]
pub struct LazyBank {
    gen: Geometric,
    values: Vec<u64>,
    cap: usize,
    cursor: usize,
}

impl LazyBank {
    /// Creates a bank of `cap` geometric countdowns (a `cap` of zero is
    /// treated as one: a bank must be able to answer a refill).
    pub fn new(density: SamplingDensity, cap: usize, seed: u64) -> Self {
        LazyBank {
            gen: Geometric::new(density, seed),
            values: Vec::new(),
            cap: cap.max(1),
            cursor: 0,
        }
    }

    /// Restarts this bank from a fresh seed, reusing the value buffer;
    /// afterwards it is indistinguishable from
    /// `LazyBank::new(density, cap, seed)`.
    pub fn reseed(&mut self, density: SamplingDensity, seed: u64) {
        cbi_telemetry::count("sampler.bank_reseeds", 1);
        self.gen = Geometric::new(density, seed);
        self.values.clear();
        self.cursor = 0;
    }
}

impl CountdownSource for LazyBank {
    fn next_countdown(&mut self) -> u64 {
        // Each refill marks one sample boundary: the runtime only asks for
        // a new countdown after taking (or seeding) a sample.
        cbi_telemetry::count("sampler.refills", 1);
        let v = if self.cursor < self.values.len() {
            self.values[self.cursor]
        } else {
            // `Geometric::draw` is telemetry-free: one refill, one count.
            let v = self.gen.draw();
            self.values.push(v);
            v
        };
        self.cursor += 1;
        if self.cursor == self.cap {
            self.cursor = 0;
        }
        v
    }
}

/// Strictly periodic countdowns: exactly one sample per `period`
/// opportunities, in the style of Arnold–Ryder counter-based sampling.
///
/// This is the "trivially periodic" strategy the paper rejects in §2.1: if
/// two sites alternate in a loop, one of them is sampled on every period-th
/// iteration and the other never.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Periodic {
    period: u64,
}

impl Periodic {
    /// Creates a periodic source with the given period.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "period must be nonzero");
        Periodic { period }
    }

    /// The sampling period.
    #[cfg(test)]
    fn period(self) -> u64 {
        self.period
    }
}

impl CountdownSource for Periodic {
    fn next_countdown(&mut self) -> u64 {
        self.period
    }
}

/// Uniformly jittered intervals, as in the Digital Continuous Profiling
/// Infrastructure (§4): one sample every `lo..=hi` opportunities, uniform.
///
/// Samples produced this way are not independent: after one sample there is
/// zero probability of another within `lo - 1` opportunities.
#[derive(Debug, Clone)]
pub struct UniformInterval {
    lo: u64,
    hi: u64,
    rng: Pcg32,
}

impl UniformInterval {
    /// Creates a source drawing intervals uniformly from `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo == 0` or `lo > hi`.
    pub fn new(lo: u64, hi: u64, seed: u64) -> Self {
        assert!(lo >= 1, "interval lower bound must be at least 1");
        assert!(lo <= hi, "interval must be nonempty");
        UniformInterval {
            lo,
            hi,
            rng: Pcg32::new(seed),
        }
    }
}

impl CountdownSource for UniformInterval {
    fn next_countdown(&mut self) -> u64 {
        self.lo + self.rng.below(self.hi - self.lo + 1)
    }
}

/// A direct per-site Bernoulli coin, the naïve strategy of §2.1
/// (`if (rnd(100) == 0) check(...)`).
///
/// Statistically identical to [`Geometric`] but with per-site cost; kept as
/// the reference implementation for fairness testing.
#[derive(Debug, Clone)]
pub struct Bernoulli {
    density: SamplingDensity,
    rng: Pcg32,
}

impl Bernoulli {
    /// Creates a reference coin-tosser for the given density.
    pub fn new(density: SamplingDensity, seed: u64) -> Self {
        Bernoulli {
            density,
            rng: Pcg32::new(seed),
        }
    }

    /// Tosses the biased coin once: `true` means "sample this site".
    fn toss(&mut self) -> bool {
        self.rng.next_f64() < self.density.probability()
    }
}

impl CountdownSource for Bernoulli {
    /// Expands coin tosses into the equivalent countdown representation.
    fn next_countdown(&mut self) -> u64 {
        let mut k = 1;
        while !self.toss() {
            k += 1;
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bank's oracle: `cap` draws of the bare generator, cycled.
    fn expected(density: SamplingDensity, cap: usize, seed: u64, n: usize) -> Vec<u64> {
        let mut g = Geometric::new(density, seed);
        let first: Vec<u64> = (0..cap.max(1)).map(|_| g.draw()).collect();
        first.iter().copied().cycle().take(n).collect()
    }

    fn drain(bank: &mut LazyBank, n: usize) -> Vec<u64> {
        (0..n).map(|_| bank.next_countdown()).collect()
    }

    #[test]
    fn bank_cycles_through_values() {
        for d in [1, 100, 1000] {
            let density = SamplingDensity::one_in(d);
            for cap in [1usize, 3, 1024] {
                let n = 2 * cap + 1;
                let mut bank = LazyBank::new(density, cap, 9);
                assert_eq!(
                    drain(&mut bank, n),
                    expected(density, cap, 9, n),
                    "1/{d} cap {cap}"
                );
                // Mid-cycle reseed: new stream from the top, buffer reused.
                bank.reseed(density, 10);
                assert_eq!(
                    drain(&mut bank, n),
                    expected(density, cap, 10, n),
                    "1/{d} cap {cap} after reseed"
                );
            }
        }
    }

    #[test]
    fn generated_bank_has_requested_size() {
        // The period is the requested size: draw `cap` is draw 0 again,
        // and a zero `cap` is a bank of one.
        for (cap, period) in [(0usize, 1usize), (1, 1), (3, 3), (1024, 1024)] {
            let mut bank = LazyBank::new(SamplingDensity::one_in(100), cap, 9);
            let got = drain(&mut bank, 2 * period);
            assert!(got.iter().all(|&v| v >= 1));
            assert_eq!(got[..period], got[period..], "cap {cap}");
        }
    }

    #[test]
    fn generated_bank_mean_near_density_inverse() {
        let mut bank = LazyBank::new(SamplingDensity::one_in(50), 4096, 13);
        let mean: f64 = drain(&mut bank, 4096)
            .iter()
            .map(|&v| v as f64)
            .sum::<f64>()
            / 4096.0;
        assert!((mean - 50.0).abs() < 5.0, "bank mean {mean}");
    }

    #[test]
    fn reseed_matches_fresh_generate() {
        let mut bank = LazyBank::new(SamplingDensity::one_in(10), 64, 1);
        bank.next_countdown(); // advance the cursor so reseed must rewind it
        bank.reseed(SamplingDensity::one_in(10), 2);
        let mut fresh = LazyBank::new(SamplingDensity::one_in(10), 64, 2);
        assert_eq!(drain(&mut bank, 130), drain(&mut fresh, 130));
    }

    #[test]
    fn periodic_is_constant() {
        let mut p = Periodic::new(100);
        assert_eq!(p.period(), 100);
        for _ in 0..5 {
            assert_eq!(p.next_countdown(), 100);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn periodic_zero_panics() {
        let _ = Periodic::new(0);
    }

    #[test]
    fn uniform_interval_in_bounds() {
        let mut u = UniformInterval::new(60, 64, 3);
        for _ in 0..1000 {
            let v = u.next_countdown();
            assert!((60..=64).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn uniform_interval_reversed_panics() {
        let _ = UniformInterval::new(10, 5, 0);
    }

    #[test]
    fn bernoulli_countdown_mean_matches() {
        let mut b = Bernoulli::new(SamplingDensity::one_in(20), 77);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| b.next_countdown() as f64).sum::<f64>() / n as f64;
        assert!((mean - 20.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn boxed_source_dispatches() {
        let mut boxed: Box<dyn CountdownSource> = Box::new(Periodic::new(7));
        assert_eq!(boxed.next_countdown(), 7);
    }

    #[test]
    fn mut_ref_source_dispatches() {
        let mut p = Periodic::new(9);
        let mut r = &mut p;
        assert_eq!(CountdownSource::next_countdown(&mut r), 9);
    }
}
