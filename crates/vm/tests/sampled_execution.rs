//! End-to-end tests of the sampled-execution pipeline:
//! parse → instrument → transform → run, checking the semantic equivalence,
//! fairness, and overhead-ordering properties the paper relies on.

use cbi_instrument::{apply_sampling, instrument, strip_sites, Scheme, TransformOptions};
use cbi_minic::Countdown;
use cbi_sampler::{Geometric, LazyBank, SamplingDensity};
use cbi_vm::{RunOutcome, Vm};

const LOOP_PROGRAM: &str = "
fn work(int n) -> int {
    ptr a = alloc(n);
    int i = 0;
    while (i < n) {
        check(i < len(a));
        a[i] = i * 3;
        i = i + 1;
    }
    int s = 0;
    i = 0;
    while (i < n) {
        s = s + a[i];
        i = i + 1;
    }
    free(a);
    return s;
}
fn main() -> int {
    print(work(200));
    return 0;
}
";

fn expected_sum() -> i64 {
    (0..200).map(|i| i * 3).sum()
}

#[test]
fn sampled_program_computes_same_result() {
    let program = cbi_minic::parse(LOOP_PROGRAM).unwrap();
    let inst = instrument(&program, Scheme::Checks).unwrap();
    let (sampled, _) = apply_sampling(&inst.program, &TransformOptions::default()).unwrap();

    for density in [1u64, 10, 100, 1000] {
        let src = Geometric::new(SamplingDensity::one_in(density), 42);
        let r = Vm::new(&sampled)
            .with_sites(&inst.sites)
            .with_sampling(Box::new(src))
            .run()
            .unwrap();
        assert_eq!(r.outcome, RunOutcome::Success(0), "density 1/{density}");
        assert_eq!(r.output, vec![expected_sum()], "density 1/{density}");
    }
}

#[test]
fn all_three_builds_agree_on_output() {
    let program = cbi_minic::parse(LOOP_PROGRAM).unwrap();
    let inst = instrument(&program, Scheme::Checks).unwrap();

    let baseline = strip_sites(&inst.program);
    let rb = Vm::new(&baseline).run().unwrap();

    let ru = Vm::new(&inst.program)
        .with_sites(&inst.sites)
        .run()
        .unwrap();

    let (sampled, _) = apply_sampling(&inst.program, &TransformOptions::default()).unwrap();
    let rs = Vm::new(&sampled)
        .with_sites(&inst.sites)
        .with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(100), 7)))
        .run()
        .unwrap();

    assert_eq!(rb.output, ru.output);
    assert_eq!(ru.output, rs.output);
}

#[test]
fn overhead_ordering_baseline_sampled_unconditional() {
    let program = cbi_minic::parse(LOOP_PROGRAM).unwrap();
    let inst = instrument(&program, Scheme::Checks).unwrap();

    let baseline = strip_sites(&inst.program);
    let base_ops = Vm::new(&baseline).run().unwrap().ops;

    let uncond_ops = Vm::new(&inst.program)
        .with_sites(&inst.sites)
        .run()
        .unwrap()
        .ops;

    let (sampled, _) = apply_sampling(&inst.program, &TransformOptions::default()).unwrap();
    let sparse_ops = Vm::new(&sampled)
        .with_sites(&inst.sites)
        .with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(1000), 3)))
        .run()
        .unwrap()
        .ops;

    assert!(
        base_ops < sparse_ops && sparse_ops < uncond_ops,
        "expected base {base_ops} < sparse {sparse_ops} < unconditional {uncond_ops}"
    );
}

#[test]
fn sparser_sampling_is_cheaper() {
    let program = cbi_minic::parse(LOOP_PROGRAM).unwrap();
    let inst = instrument(&program, Scheme::Checks).unwrap();
    let (sampled, _) = apply_sampling(&inst.program, &TransformOptions::default()).unwrap();

    let mut prev = u64::MAX;
    for density in [1u64, 100, 10_000] {
        let ops = Vm::new(&sampled)
            .with_sites(&inst.sites)
            .with_sampling(Box::new(Geometric::new(
                SamplingDensity::one_in(density),
                11,
            )))
            .run()
            .unwrap()
            .ops;
        assert!(ops <= prev, "density 1/{density}: {ops} > previous {prev}");
        prev = ops;
    }
}

#[test]
fn sampled_counts_approximate_density_fraction() {
    // 200 loop iterations × 2 sites (assert + store bounds) = 400 site
    // crossings per run.  At density 1/10, expect ≈ 40 observations.
    let program = cbi_minic::parse(LOOP_PROGRAM).unwrap();
    let inst = instrument(&program, Scheme::Checks).unwrap();
    let (sampled, _) = apply_sampling(&inst.program, &TransformOptions::default()).unwrap();

    let uncond = Vm::new(&inst.program)
        .with_sites(&inst.sites)
        .run()
        .unwrap();
    let crossings: u64 = uncond.counters.iter().sum();

    let mut total = 0u64;
    let trials = 60;
    for seed in 0..trials {
        let r = Vm::new(&sampled)
            .with_sites(&inst.sites)
            .with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(10), seed)))
            .run()
            .unwrap();
        total += r.counters.iter().sum::<u64>();
    }
    let mean = total as f64 / trials as f64;
    let expect = crossings as f64 / 10.0;
    assert!(
        (mean - expect).abs() < expect * 0.25,
        "mean sampled observations {mean} should be near {expect}"
    );
}

#[test]
fn countdown_bank_runs_like_fresh_geometric() {
    let program = cbi_minic::parse(LOOP_PROGRAM).unwrap();
    let inst = instrument(&program, Scheme::Checks).unwrap();
    let (sampled, _) = apply_sampling(&inst.program, &TransformOptions::default()).unwrap();

    let bank = LazyBank::new(SamplingDensity::one_in(100), 1024, 99);
    let r = Vm::new(&sampled)
        .with_sites(&inst.sites)
        .with_sampling(Box::new(bank))
        .run()
        .unwrap();
    assert_eq!(r.outcome, RunOutcome::Success(0));
}

#[test]
fn global_countdown_mode_runs_correctly() {
    let program = cbi_minic::parse(LOOP_PROGRAM).unwrap();
    let inst = instrument(&program, Scheme::Checks).unwrap();
    let opts = TransformOptions {
        countdown: Countdown::Global,
        ..TransformOptions::default()
    };
    let (sampled, _) = apply_sampling(&inst.program, &opts).unwrap();
    let r = Vm::new(&sampled)
        .with_sites(&inst.sites)
        .with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(50), 5)))
        .run()
        .unwrap();
    assert_eq!(r.output, vec![expected_sum()]);
}

#[test]
fn local_mode_is_cheaper_than_global_mode() {
    // The point of §2.4: local countdown + coalescing beats global.
    let program = cbi_minic::parse(LOOP_PROGRAM).unwrap();
    let inst = instrument(&program, Scheme::Checks).unwrap();

    let (local, _) = apply_sampling(&inst.program, &TransformOptions::default()).unwrap();
    let (global, _) = apply_sampling(
        &inst.program,
        &TransformOptions {
            countdown: Countdown::Global,
            ..TransformOptions::default()
        },
    )
    .unwrap();

    let ops_of = |p: &cbi_minic::Program| {
        Vm::new(p)
            .with_sites(&inst.sites)
            .with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(1000), 8)))
            .run()
            .unwrap()
            .ops
    };
    assert!(
        ops_of(&local) < ops_of(&global),
        "local {} should beat global {}",
        ops_of(&local),
        ops_of(&global)
    );
}

#[test]
fn devolved_mode_is_costlier_than_regions() {
    let program = cbi_minic::parse(LOOP_PROGRAM).unwrap();
    let inst = instrument(&program, Scheme::Checks).unwrap();

    let (regions, _) = apply_sampling(&inst.program, &TransformOptions::default()).unwrap();
    let (devolved, _) = apply_sampling(
        &inst.program,
        &TransformOptions {
            regions: false,
            ..TransformOptions::default()
        },
    )
    .unwrap();

    let ops_of = |p: &cbi_minic::Program| {
        Vm::new(p)
            .with_sites(&inst.sites)
            .with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(1000), 8)))
            .run()
            .unwrap()
            .ops
    };
    assert!(
        ops_of(&regions) < ops_of(&devolved),
        "region amortization should win: {} vs {}",
        ops_of(&regions),
        ops_of(&devolved)
    );
}

#[test]
fn sampled_assertion_failures_abort_when_observed() {
    // An always-false check: at density 1 the very first crossing fires.
    let src = "fn main() -> int { int x = 5; check(x < 0); return 0; }";
    let program = cbi_minic::parse(src).unwrap();
    let inst = instrument(&program, Scheme::Checks).unwrap();
    let (sampled, _) = apply_sampling(&inst.program, &TransformOptions::default()).unwrap();

    let r = Vm::new(&sampled)
        .with_sites(&inst.sites)
        .with_sampling(Box::new(Geometric::new(SamplingDensity::always(), 1)))
        .run()
        .unwrap();
    assert_eq!(r.outcome, RunOutcome::AssertionFailure(0));

    // At a sparse density the check is (almost surely) skipped: the
    // program "ships" with the bug unnoticed on this run.
    let r2 = Vm::new(&sampled)
        .with_sites(&inst.sites)
        .with_sampling(Box::new(Geometric::new(
            SamplingDensity::one_in(1_000_000),
            1,
        )))
        .run()
        .unwrap();
    assert_eq!(r2.outcome, RunOutcome::Success(0));
}

#[test]
fn missing_countdown_source_is_config_error() {
    let program = cbi_minic::parse(LOOP_PROGRAM).unwrap();
    let inst = instrument(&program, Scheme::Checks).unwrap();
    let (sampled, _) = apply_sampling(&inst.program, &TransformOptions::default()).unwrap();
    assert!(Vm::new(&sampled).with_sites(&inst.sites).run().is_err());
}
