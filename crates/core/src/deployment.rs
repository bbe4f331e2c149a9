//! Deployment simulation: the user community as a detection instrument.
//!
//! §3.1.3 argues that even 1/1000 sampling finds rare events quickly once
//! a community is large ("sixty million Office XP licenses … produce
//! 230,258 runs every nineteen minutes").  This module simulates such a
//! deployment run-by-run and measures *detection latency*: how many runs
//! the community performs before each predicate is first observed — an
//! empirical check of the closed-form [`cbi_stats::confidence`] numbers.

use crate::detection::FirstObservation;
use cbi_instrument::{
    apply_sampling, instrument, single_function_variants, Scheme, TransformOptions,
};
use cbi_reports::Collector;
use cbi_sampler::{LazyBank, Pcg32, SamplingDensity};
use cbi_vm::Vm;
use cbi_workloads::{run_campaign, CampaignConfig, CampaignResult, WorkloadError};
use std::collections::HashMap;

/// Result of a simulated deployment.
#[derive(Debug)]
pub struct Deployment {
    /// The underlying campaign (instrumented program, site table, reports).
    pub campaign: CampaignResult,
    /// Per-counter record of the first run that observed it.
    pub first_observation: FirstObservation,
}

impl Deployment {
    /// Detection latency (runs until first observation, 1-based): the
    /// earliest observation among all predicates whose name contains
    /// `needle`, or `None` if no matching predicate was ever observed.
    pub fn latency_of(&self, needle: &str) -> Option<usize> {
        self.first_observation
            .latency_of(&self.campaign.instrumented.sites, needle)
    }

    /// Fraction of counters the community observed at least once.
    pub fn observed_fraction(&self) -> f64 {
        self.first_observation.observed_fraction()
    }

    /// The collected reports.
    pub fn reports(&self) -> &Collector {
        &self.campaign.collector
    }
}

/// Simulates a deployment: instruments `program`, then executes the runs
/// of the whole community (`trials`, in arrival order) under `config`.
///
/// # Errors
///
/// Returns [`WorkloadError`] if instrumentation or execution setup fails.
pub fn simulate_deployment(
    program: &cbi_minic::Program,
    trials: &[Vec<i64>],
    config: &CampaignConfig,
) -> Result<Deployment, WorkloadError> {
    let campaign = run_campaign(program, trials, config)?;
    let mut first_observation = FirstObservation::new(campaign.collector.counter_count());
    for (i, report) in campaign.collector.reports().iter().enumerate() {
        first_observation.record(i, &report.counters);
    }
    Ok(Deployment {
        campaign,
        first_observation,
    })
}

/// Configuration of a variant fleet (§3.1.2: statically selective
/// sampling with *suspect code farmed out to a larger proportion of
/// users*).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Observation scheme.
    pub scheme: Scheme,
    /// Sampling density each user runs at.
    pub density: SamplingDensity,
    /// Relative assignment weight per function name; functions not listed
    /// get weight 1.  A weight of 5 sends five times as many users to the
    /// variant instrumenting that function.
    pub weights: Vec<(String, f64)>,
    /// Number of simulated users.
    pub users: usize,
    /// Seed for assignment and countdown banks.
    pub seed: u64,
}

/// Outcome of a variant-fleet simulation.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// Users assigned to each function's variant.
    pub assignment: HashMap<String, usize>,
    /// Total observations collected per instrumented function.
    pub observations: HashMap<String, u64>,
}

/// Simulates a fleet where each user runs a *single-function* variant,
/// with suspect functions assigned to proportionally more users.
///
/// `trials[u]` is the input script user `u` runs (one run per user keeps
/// the simulation small; scale `users` instead of runs-per-user).
///
/// # Errors
///
/// Returns [`WorkloadError`] if instrumentation or execution fails.
///
/// # Panics
///
/// Panics if `trials` has fewer entries than `config.users` or the
/// program has no instrumentation sites.
pub fn simulate_variant_fleet(
    program: &cbi_minic::Program,
    trials: &[Vec<i64>],
    config: &FleetConfig,
) -> Result<FleetOutcome, WorkloadError> {
    assert!(trials.len() >= config.users, "need one trial per user");
    let inst = instrument(program, config.scheme)?;
    let variants = single_function_variants(&inst);
    assert!(
        !variants.is_empty(),
        "program has no instrumented functions"
    );

    // Transform and compile each variant once.
    let mut compiled = Vec::with_capacity(variants.len());
    let mut cumulative = Vec::with_capacity(variants.len());
    let mut total_weight = 0.0;
    for v in &variants {
        let (sampled, _) = apply_sampling(&v.program, &TransformOptions::default())?;
        let exe = cbi_vm::bytecode::compile(&cbi_minic::lower(&sampled));
        let w = config
            .weights
            .iter()
            .find(|(name, _)| *name == v.function)
            .map_or(1.0, |(_, w)| *w);
        total_weight += w;
        cumulative.push(total_weight);
        compiled.push((v.function.clone(), exe));
    }

    let mut rng = Pcg32::new(config.seed);
    let mut assignment: HashMap<String, usize> = HashMap::new();
    let mut observations: HashMap<String, u64> = HashMap::new();
    for (u, input) in trials.iter().take(config.users).enumerate() {
        // Weighted variant choice.
        let x = rng.next_f64() * total_weight;
        let k = cumulative
            .partition_point(|&c| c <= x)
            .min(compiled.len() - 1);
        let (function, exe) = &compiled[k];
        *assignment.entry(function.clone()).or_insert(0) += 1;

        let bank = LazyBank::new(config.density, 1024, config.seed.wrapping_add(u as u64));
        let result = Vm::from_bytecode(exe)
            .with_sites(&inst.sites)
            .with_sampling(Box::new(bank))
            .with_input(input.clone())
            .run()?;
        let observed: u64 = result.counters.iter().sum();
        *observations.entry(function.clone()).or_insert(0) += observed;
    }
    Ok(FleetOutcome {
        assignment,
        observations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_instrument::Scheme;
    use cbi_sampler::SamplingDensity;
    use cbi_stats::{detection_probability, runs_needed};

    /// A program where `rare()` returns nonzero on roughly 1 in 12 runs
    /// (driven by the input).
    const RARE: &str = "fn rare(int v) -> int { if (v % 12 == 0) { return 1; } return 0; }\n\
         fn main() -> int { int v = read(); int hit = rare(v); print(hit); return 0; }";

    fn trials(n: usize) -> Vec<Vec<i64>> {
        (0..n as i64).map(|i| vec![i * 7 + 1]).collect()
    }

    #[test]
    fn community_detects_rare_events_near_the_closed_form_prediction() {
        let program = cbi_minic::parse(RARE).unwrap();
        let n = 4000;
        let density = SamplingDensity::one_in(10);
        let config = CampaignConfig::sampled(Scheme::Returns, density);
        let d = simulate_deployment(&program, &trials(n), &config).unwrap();

        // `rare() > 0` fires in 1/12 of runs; at 1/10 sampling the paper's
        // model says 95%-confidence detection needs about this many runs:
        let predicted = runs_needed(1.0 / 12.0, 0.1, 0.95) as usize;
        let latency = d
            .latency_of("rare(") // matches `rare() > 0` first? ensure below
            .expect("event must eventually be observed");
        // `latency_of` found the first counter mentioning rare(); check
        // the positive counter explicitly too.
        let latency_pos = d
            .latency_of("rare() > 0")
            .expect("positive counter observed");
        assert!(latency <= latency_pos);
        assert!(
            latency_pos <= predicted * 3,
            "latency {latency_pos} far exceeds prediction {predicted}"
        );
        // And the closed form is calibrated: detection probability at the
        // observed latency should not be astronomically small or large.
        let p = detection_probability(1.0 / 12.0, 0.1, latency_pos as u64);
        assert!(p > 0.01 && p < 0.9999, "p = {p}");
    }

    #[test]
    fn denser_sampling_detects_faster() {
        let program = cbi_minic::parse(RARE).unwrap();
        let runs = trials(4000);
        let lat = |den: u64| {
            let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(den));
            simulate_deployment(&program, &runs, &config)
                .unwrap()
                .latency_of("rare() > 0")
        };
        let dense = lat(2).expect("dense sampling observes the event");
        // Sparse sampling may never see the event at all — even stronger.
        if let Some(sparse) = lat(50) {
            assert!(
                dense <= sparse,
                "denser sampling should not be slower: {dense} vs {sparse}"
            );
        }
    }

    #[test]
    fn observed_fraction_grows_with_density() {
        let program = cbi_minic::parse(RARE).unwrap();
        let runs = trials(800);
        let frac = |den: u64| {
            let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(den));
            simulate_deployment(&program, &runs, &config)
                .unwrap()
                .observed_fraction()
        };
        assert!(frac(1) >= frac(100));
    }

    #[test]
    fn suspect_functions_get_proportionally_more_users() {
        use cbi_workloads::{ccrypt_program, ccrypt_trials, CcryptTrialConfig};
        let program = ccrypt_program();
        let trials = ccrypt_trials(600, 11, &CcryptTrialConfig::default());
        let config = FleetConfig {
            scheme: Scheme::Returns,
            density: SamplingDensity::one_in(5),
            weights: vec![("process_file".to_string(), 8.0)],
            users: 600,
            seed: 3,
        };
        let fleet = simulate_variant_fleet(&program, &trials, &config).unwrap();
        let suspect_users = fleet.assignment.get("process_file").copied().unwrap_or(0);
        let max_other = fleet
            .assignment
            .iter()
            .filter(|(f, _)| *f != "process_file")
            .map(|(_, &n)| n)
            .max()
            .unwrap_or(0);
        assert!(
            suspect_users > max_other * 3,
            "suspect function must dominate the fleet: {:?}",
            fleet.assignment
        );
        // More users on the suspect variant means more observations of
        // its sites than any other single function's.
        let suspect_obs = fleet.observations.get("process_file").copied().unwrap_or(0);
        assert!(suspect_obs > 0);
    }

    #[test]
    fn variant_fleet_bank_seeds_wrap_at_u64_max() {
        let program = cbi_minic::parse(RARE).unwrap();
        let config = FleetConfig {
            scheme: Scheme::Returns,
            density: SamplingDensity::one_in(2),
            weights: vec![],
            users: 3,
            seed: u64::MAX,
        };
        let fleet = simulate_variant_fleet(&program, &trials(3), &config).unwrap();
        assert_eq!(fleet.assignment.values().sum::<usize>(), 3);
    }

    #[test]
    fn uniform_weights_spread_users() {
        use cbi_workloads::{ccrypt_program, ccrypt_trials, CcryptTrialConfig};
        let program = ccrypt_program();
        let trials = ccrypt_trials(400, 13, &CcryptTrialConfig::default());
        let config = FleetConfig {
            scheme: Scheme::Returns,
            density: SamplingDensity::one_in(5),
            weights: vec![],
            users: 400,
            seed: 5,
        };
        let fleet = simulate_variant_fleet(&program, &trials, &config).unwrap();
        assert!(fleet.assignment.len() >= 5, "{:?}", fleet.assignment);
        let max = fleet.assignment.values().max().copied().unwrap();
        let min = fleet.assignment.values().min().copied().unwrap();
        assert!(
            max < min * 4 + 20,
            "roughly uniform: {:?}",
            fleet.assignment
        );
    }

    #[test]
    fn unknown_predicates_have_no_latency() {
        let program = cbi_minic::parse(RARE).unwrap();
        let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::always());
        let d = simulate_deployment(&program, &trials(50), &config).unwrap();
        assert!(d.latency_of("no_such_predicate").is_none());
    }
}
