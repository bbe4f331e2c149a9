//! Assertion sharing (§3.1): spread the cost of dense checks over many
//! users.
//!
//! Each simulated "user" runs the instrumented binary at 1/1000 sampling
//! and sees near-baseline performance; in aggregate, the user community
//! still observes enough assertion crossings to catch a rare violation.
//!
//! Run with: `cargo run --release --example assertion_sharing`

use cbi::prelude::*;
use cbi::stats::runs_needed;
use cbi::workloads::{benchmark, measure_overhead, OverheadConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. One user's cost: overhead of the check-dense `ijpeg` analogue.
    let b = benchmark("ijpeg").expect("bundled benchmark");
    let densities = vec![SamplingDensity::one_in(100), SamplingDensity::one_in(1000)];
    let m = measure_overhead(
        b.name,
        &b.program,
        &[],
        &densities,
        &OverheadConfig::default(),
    )?;
    println!("ijpeg analogue, CCured-style checks:");
    println!("  unconditional checks: {:.2}x baseline", m.unconditional);
    for (d, r) in &m.sampled {
        println!("  sampled {d}: {r:.2}x baseline");
    }

    // 2. The community's power: how many sampled runs catch a violation?
    let inst = instrument(&b.program, Scheme::Checks)?;
    let (sampled, _) = apply_sampling(&inst.program, &TransformOptions::default())?;
    let mut observed = 0u64;
    let users = 300;
    for user in 0..users {
        let bank = LazyBank::new(SamplingDensity::one_in(1000), 1024, user);
        let run = Vm::new(&sampled)
            .with_sites(&inst.sites)
            .with_sampling(Box::new(bank))
            .run()?;
        assert!(run.outcome.is_success());
        observed += run.counters.iter().sum::<u64>();
    }
    println!();
    println!(
        "{users} simulated users at 1/1000 sampling observed {observed} assertion \
         crossings in aggregate"
    );

    // 3. The paper's deployment arithmetic.
    println!();
    println!(
        "to observe a 1-in-100-runs event with 90% confidence at 1/1000 sampling: {} runs",
        runs_needed(0.01, 0.001, 0.90)
    );
    println!("(sixty million Office XP licenses produce that many runs every 19 minutes)");
    Ok(())
}
