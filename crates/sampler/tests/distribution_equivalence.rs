//! Distributional equivalence between the geometric countdown generator
//! and the naive per-site Bernoulli coin it replaces (§2.1): both must
//! realize the same process, differing only in cost.

use cbi_sampler::{Bernoulli, CountdownSource, Geometric, LazyBank, SamplingDensity};

/// Empirical CDF comparison (two-sample Kolmogorov–Smirnov statistic).
fn ks_statistic(mut a: Vec<u64>, mut b: Vec<u64>) -> f64 {
    a.sort_unstable();
    b.sort_unstable();
    let (n, m) = (a.len() as f64, b.len() as f64);
    let mut d: f64 = 0.0;
    let (mut i, mut j) = (0usize, 0usize);
    // Discrete data is tie-heavy: evaluate the CDF difference only at
    // value boundaries, advancing both samples past each shared value.
    while i < a.len() || j < b.len() {
        let v = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => x.min(y),
            (Some(&x), None) => x,
            (None, Some(&y)) => y,
            (None, None) => break,
        };
        while i < a.len() && a[i] == v {
            i += 1;
        }
        while j < b.len() && b[j] == v {
            j += 1;
        }
        let fa = i as f64 / n;
        let fb = j as f64 / m;
        d = d.max((fa - fb).abs());
    }
    d
}

#[test]
fn geometric_and_bernoulli_countdowns_are_the_same_distribution() {
    let density = SamplingDensity::one_in(20);
    let n = 40_000;
    let mut geo = Geometric::new(density, 1);
    let mut coin = Bernoulli::new(density, 2);
    let a: Vec<u64> = (0..n).map(|_| geo.next_countdown()).collect();
    let b: Vec<u64> = (0..n).map(|_| coin.next_countdown()).collect();

    let d = ks_statistic(a, b);
    // KS critical value at alpha = 0.001 for two samples of 40k each:
    // c(α)·sqrt(2/n) ≈ 1.95 · sqrt(2/40000) ≈ 0.0138.
    assert!(d < 0.0138, "KS statistic {d} too large");
}

#[test]
fn geometric_tail_matches_closed_form() {
    // P(N > k) = (1 - p)^k; check a few tail points empirically.
    let p = 0.05;
    let n = 200_000;
    let mut geo = Geometric::new(SamplingDensity::new(p).unwrap(), 9);
    let draws: Vec<u64> = (0..n).map(|_| geo.next_countdown()).collect();
    for k in [1u64, 5, 20, 60] {
        let empirical = draws.iter().filter(|&&x| x > k).count() as f64 / n as f64;
        let exact = (1.0 - p).powi(k as i32);
        assert!(
            (empirical - exact).abs() < 0.005,
            "tail at {k}: empirical {empirical} vs exact {exact}"
        );
    }
}

#[test]
fn bank_draws_match_generator_draws() {
    // §3.1.1's bank is the generator's first `cap` draws, cycled; a
    // reseed starts the next run's bank.  Through the public trait both
    // count one `sampler.refills` per countdown handed out (read from a
    // worker label only this test uses: telemetry is process-global).
    const WORKER: u32 = 0xba4c;
    cbi_telemetry::enable();
    cbi_telemetry::set_worker(WORKER);
    let mut refills = 0;
    let mut reseeds = 0;
    for d in [1, 100, 1000] {
        let density = SamplingDensity::one_in(d);
        for cap in [1usize, 3, 1024] {
            let mut bank = LazyBank::new(density, cap, 31);
            for seed in [31u64, 32] {
                if seed != 31 {
                    bank.reseed(density, seed);
                    reseeds += 1;
                }
                let mut gen = Geometric::new(density, seed);
                let first: Vec<u64> = (0..cap).map(|_| gen.next_countdown()).collect();
                for i in 0..2 * cap + 1 {
                    assert_eq!(
                        bank.next_countdown(),
                        first[i % cap],
                        "1/{d} cap {cap} seed {seed} draw {i}"
                    );
                }
                refills += (cap + 2 * cap + 1) as u64;
            }
        }
    }
    let snapshot = cbi_telemetry::collect();
    cbi_telemetry::disable();
    assert_eq!(snapshot.worker_counter(WORKER, "sampler.refills"), refills);
    assert_eq!(
        snapshot.worker_counter(WORKER, "sampler.bank_reseeds"),
        reseeds
    );
}
