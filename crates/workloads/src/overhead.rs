//! Overhead measurement for Table 2 and Figure 4.
//!
//! Each benchmark runs in three builds — baseline (checks stripped),
//! unconditional instrumentation, and sampling-transformed at several
//! densities — and we report the ratio of operation counts relative to the
//! baseline (1.00 = no overhead; the paper's 2.81 for `bh` means a 181%
//! slowdown).  Sampled numbers average four runs with different
//! pre-generated countdown banks, as in §3.1.1.

use crate::WorkloadError;
use cbi_instrument::{
    apply_sampling, instrument, strip_sites, Instrumented, Scheme, SiteTable, TransformOptions,
};
use cbi_minic::Program;
use cbi_sampler::{LazyBank, SamplingDensity};
use cbi_vm::bytecode::{compile, BcProgram};
use cbi_vm::Vm;

/// Overhead ratios for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadMeasurement {
    /// Benchmark name.
    pub name: String,
    /// Baseline op count (checks removed).
    pub baseline_ops: u64,
    /// Unconditional-instrumentation ratio (the "always" column).
    pub unconditional: f64,
    /// `(density, ratio)` per sampled density, in input order.
    pub sampled: Vec<(SamplingDensity, f64)>,
}

/// Sampled runs averaged per density, each with a fresh countdown bank
/// (§3.1.1 averages four).
const RUNS_PER_DENSITY: u64 = 4;

/// Pre-generated countdown bank size per run (§3.1.1 uses 1024).
const BANK_SIZE: usize = 1024;

/// Master seed of the per-run countdown banks.
const SEED: u64 = 97;

/// Per-run operation budget: the analogues must run to completion.
const OP_LIMIT: u64 = 2_000_000_000;

/// Configuration for overhead measurement.
#[derive(Debug, Clone, Copy)]
pub struct OverheadConfig {
    /// Instrumentation scheme (Table 2 uses CCured-style checks).
    pub scheme: Scheme,
    /// Sampling transformation options.
    pub transform: TransformOptions,
}

impl Default for OverheadConfig {
    fn default() -> Self {
        OverheadConfig {
            scheme: Scheme::Checks,
            transform: TransformOptions::default(),
        }
    }
}

/// Measures overhead ratios for one program at the given densities, using
/// a fixed input script for every run.
///
/// # Errors
///
/// Returns [`WorkloadError`] if instrumentation or any run fails — the
/// overhead benchmarks must run to completion ("all programs run to
/// completion; we are simply measuring the overhead").
pub fn measure_overhead(
    name: &str,
    program: &Program,
    input: &[i64],
    densities: &[SamplingDensity],
    config: &OverheadConfig,
) -> Result<OverheadMeasurement, WorkloadError> {
    let inst = instrument(program, config.scheme)?;
    measure_overhead_instrumented(name, &inst, input, densities, config)
}

/// Like [`measure_overhead`], but for an already instrumented program —
/// used by the statically-selective experiments that share one site table
/// across many variants.
///
/// # Errors
///
/// Returns [`WorkloadError`] if transformation or any run fails.
pub fn measure_overhead_instrumented(
    name: &str,
    inst: &Instrumented,
    input: &[i64],
    densities: &[SamplingDensity],
    config: &OverheadConfig,
) -> Result<OverheadMeasurement, WorkloadError> {
    let baseline = strip_sites(&inst.program);
    let baseline_exe = compile(&cbi_minic::lower(&baseline));
    let baseline_ops = run_ops(&baseline_exe, &inst.sites, input, name, None)?;
    let inst_exe = compile(&cbi_minic::lower(&inst.program));
    let unconditional_ops = run_ops(&inst_exe, &inst.sites, input, name, None)?;

    let (sampled_program, _) = apply_sampling(&inst.program, &config.transform)?;
    let sampled_exe = compile(&cbi_minic::lower(&sampled_program));

    // Every (density, run) cell draws its bank from its own seed; one
    // bank is reseeded across cells (bit-identical to a fresh bank each).
    let mut totals = vec![0u64; densities.len()];
    let mut bank: Option<LazyBank> = None;
    for (di, &density) in densities.iter().enumerate() {
        for run in 0..RUNS_PER_DENSITY {
            let bank_seed = SEED.wrapping_add(di as u64 * 1000).wrapping_add(run);
            match &mut bank {
                Some(bank) => bank.reseed(density, bank_seed),
                None => bank = Some(LazyBank::new(density, BANK_SIZE, bank_seed)),
            }
            totals[di] += run_ops(&sampled_exe, &inst.sites, input, name, bank.as_mut())?;
        }
    }

    let sampled = densities
        .iter()
        .zip(&totals)
        .map(|(&density, &total)| {
            let mean = total as f64 / RUNS_PER_DENSITY as f64;
            (density, mean / baseline_ops as f64)
        })
        .collect();

    Ok(OverheadMeasurement {
        name: name.to_string(),
        baseline_ops,
        unconditional: unconditional_ops as f64 / baseline_ops as f64,
        sampled,
    })
}

/// Executes one run with a borrowed input script and an optional
/// borrowed countdown bank; returns the op count.
fn run_ops(
    exe: &BcProgram,
    sites: &SiteTable,
    input: &[i64],
    name: &str,
    bank: Option<&mut LazyBank>,
) -> Result<u64, WorkloadError> {
    let mut vm = Vm::from_bytecode(exe);
    vm.with_sites(sites)
        .with_input(input)
        .with_op_limit(OP_LIMIT);
    if let Some(bank) = bank {
        vm.with_sampling_ref(bank);
    }
    let result = vm.run()?;
    if !result.outcome.is_success() {
        return Err(WorkloadError::new(format!(
            "overhead run of `{name}` did not complete: {}",
            result.outcome
        )));
    }
    Ok(result.ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::benchmark;

    fn densities() -> Vec<SamplingDensity> {
        vec![
            SamplingDensity::one_in(100),
            SamplingDensity::one_in(1000),
            SamplingDensity::one_in(1_000_000),
        ]
    }

    #[test]
    fn overhead_ordering_holds_for_treeadd() {
        let b = benchmark("treeadd").unwrap();
        let m = measure_overhead(
            b.name,
            &b.program,
            &[],
            &densities(),
            &OverheadConfig::default(),
        )
        .unwrap();
        assert!(m.unconditional > 1.0, "always-on must cost: {m:?}");
        for &(_, ratio) in &m.sampled {
            assert!(ratio > 1.0, "sampling floor is above baseline: {m:?}");
            assert!(
                ratio < m.unconditional * 1.05,
                "sampling should not exceed unconditional much: {m:?}"
            );
        }
        // Monotone: sparser sampling is never more expensive.
        for w in m.sampled.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "{m:?}");
        }
    }

    #[test]
    fn dense_programs_benefit_most() {
        // ijpeg is check-dense: unconditional overhead is large, sparse
        // sampling recovers most of it (paper: 2.46 -> 1.03).
        let b = benchmark("ijpeg").unwrap();
        let m = measure_overhead(
            b.name,
            &b.program,
            &[],
            &densities(),
            &OverheadConfig::default(),
        )
        .unwrap();
        assert!(m.unconditional > 1.5, "{m:?}");
        let sparse = m.sampled.last().unwrap().1;
        assert!(
            sparse - 1.0 < (m.unconditional - 1.0) / 2.0,
            "sparse sampling must reclaim most overhead: {m:?}"
        );
    }

    #[test]
    fn measurements_are_deterministic() {
        let b = benchmark("power").unwrap();
        let cfg = OverheadConfig::default();
        let a = measure_overhead(b.name, &b.program, &[], &densities(), &cfg).unwrap();
        let c = measure_overhead(b.name, &b.program, &[], &densities(), &cfg).unwrap();
        assert_eq!(a, c);
    }
}
