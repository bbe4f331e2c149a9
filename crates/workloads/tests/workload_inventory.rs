//! Golden-inventory tests: the bundled workloads keep the structural
//! properties the experiments depend on.  If a program edit changes these,
//! the corresponding EXPERIMENTS.md entries must be revisited.

use cbi_instrument::{apply_sampling, instrument, Scheme, TransformOptions};
use cbi_vm::Vm;
use cbi_workloads::{all_benchmarks, bc_program, ccrypt_program};

#[test]
fn ccrypt_exposes_the_decisive_return_sites() {
    let program = ccrypt_program();
    let inst = instrument(&program, Scheme::Returns).unwrap();
    // A realistic pool of call sites (the paper instruments 570)…
    assert!(
        inst.sites.len() >= 15,
        "ccrypt should have a rich site pool, got {}",
        inst.sites.len()
    );
    // …including exactly one xreadline site and one file_exists site.
    let count = |needle: &str| {
        inst.sites
            .iter()
            .filter(|s| s.text.contains(needle))
            .count()
    };
    assert_eq!(count("xreadline()"), 1);
    assert_eq!(count("file_exists()"), 1);
}

#[test]
fn bc_scalar_pair_space_is_large_and_triple_shaped() {
    let program = bc_program();
    let inst = instrument(&program, Scheme::ScalarPairs).unwrap();
    assert!(
        inst.sites.len() > 300,
        "bc needs a large feature space, got {}",
        inst.sites.len()
    );
    assert_eq!(inst.sites.total_counters(), inst.sites.len() * 3);
    // The buggy loop's smoking-gun comparison exists.
    assert!(inst
        .sites
        .iter()
        .any(|s| s.function == "more_arrays" && s.text == "indx\u{1}a_count"));
    // And all five of the paper's top-ranked comparison partners exist.
    for partner in ["scale", "use_math", "opterr", "next_func", "i_base"] {
        assert!(
            inst.sites
                .iter()
                .any(|s| s.function == "more_arrays" && s.text == format!("indx\u{1}{partner}")),
            "missing indx vs {partner}"
        );
    }
}

#[test]
fn benchmarks_have_spread_in_check_density() {
    // Table 2 needs benchmarks across the overhead spectrum: measure
    // unconditional site crossings per 1000 baseline ops and require a
    // real spread.
    let mut densities = Vec::new();
    for b in all_benchmarks() {
        let inst = instrument(&b.program, Scheme::Checks).unwrap();
        let baseline = cbi_instrument::strip_sites(&inst.program);
        let base_ops = Vm::new(&baseline).run().unwrap().ops;
        let crossings: u64 = Vm::new(&inst.program)
            .with_sites(&inst.sites)
            .run()
            .unwrap()
            .counters
            .iter()
            .sum();
        densities.push((b.name, crossings as f64 * 1000.0 / base_ops as f64));
    }
    let max = densities.iter().map(|&(_, d)| d).fold(0.0f64, f64::max);
    let min = densities.iter().map(|&(_, d)| d).fold(f64::MAX, f64::min);
    assert!(
        max > min * 10.0,
        "check-density spread too small: {densities:?}"
    );
}

#[test]
fn every_benchmark_survives_all_four_schemes() {
    for b in all_benchmarks() {
        for scheme in [
            Scheme::Checks,
            Scheme::Returns,
            Scheme::ScalarPairs,
            Scheme::Branches,
        ] {
            let inst = instrument(&b.program, scheme)
                .unwrap_or_else(|e| panic!("{} + {scheme}: {e}", b.name));
            let (sampled, _) = apply_sampling(&inst.program, &TransformOptions::default())
                .unwrap_or_else(|e| panic!("{} + {scheme}: {e}", b.name));
            cbi_minic::resolve(&sampled).unwrap_or_else(|e| panic!("{} + {scheme}: {e}", b.name));
        }
    }
}

#[test]
fn case_study_crash_rates_are_stable() {
    use cbi_workloads::{bc_trials, ccrypt_trials, BcTrialConfig, CcryptTrialConfig};
    let ccrypt = ccrypt_program();
    let crashes = ccrypt_trials(1000, 42, &CcryptTrialConfig::default())
        .into_iter()
        .filter(|t| {
            Vm::new(&ccrypt)
                .with_input(t.clone())
                .run()
                .unwrap()
                .outcome
                .is_failure()
        })
        .count();
    assert!(
        (20..=80).contains(&crashes),
        "ccrypt crash count drifted: {crashes}/1000"
    );

    let bc = bc_program();
    let crashes = bc_trials(400, 106, &BcTrialConfig::default())
        .into_iter()
        .filter(|t| {
            Vm::new(&bc)
                .with_input(t.clone())
                .run()
                .unwrap()
                .outcome
                .is_failure()
        })
        .count();
    assert!(
        (60..=160).contains(&crashes),
        "bc crash count drifted: {crashes}/400"
    );
}
