//! Micro-benchmarks of the sampling runtime (§2.1): geometric countdown
//! generation must be cheap enough to amortize, and vastly cheaper than
//! tossing the coin at every site.

use cbi::sampler::{Bernoulli, CountdownSource, Geometric, LazyBank, SamplingDensity};
use cbi_bench::harness::bench;
use std::hint::black_box;

fn main() {
    for d in [100u64, 1000, 1_000_000] {
        let mut g = Geometric::new(SamplingDensity::one_in(d), 42);
        bench(&format!("countdown_generation/geometric_1in{d}"), || {
            black_box(g.next_countdown())
        });
    }

    // The naive equivalent: toss the biased coin until it comes up heads.
    // At 1/1000 density this is ~1000 RNG calls per countdown.
    let mut coin = Bernoulli::new(SamplingDensity::one_in(100), 42);
    bench("countdown_generation/bernoulli_expansion_1in100", || {
        black_box(coin.next_countdown())
    });

    // A run that exhausts its whole §3.1.1 bank: 1024 draws.
    let mut seed = 0u64;
    bench("bank_1024_at_1in1000", || {
        seed += 1;
        let mut bank = LazyBank::new(SamplingDensity::one_in(1000), 1024, seed);
        for _ in 0..1024 {
            black_box(bank.next_countdown());
        }
    });
}
