//! Driving a fleet against corpus ground truth.
//!
//! A [`cbi_corpus::PlantedBug`] manifest records the mutated source,
//! the true counter, and the layout hash that pins them together.  This
//! module checks the entry with [`instrument_entry`] (the corpus
//! evaluator's own drift check), regenerates an input population from
//! the bug's workload distribution (sized for a community, not a trial
//! list), and runs the fleet with the true counter as the detection
//! target — so the epoch trajectory reports detection latency and rank
//! *of a demonstrated bug*.

use crate::sim::{run_fleet, FleetReport, FleetSpec};
use crate::FleetError;
use cbi_corpus::generate::workload_trials;
use cbi_corpus::{instrument_entry, CorpusEntry};
use cbi_instrument::Scheme;

/// Runs a fleet against a corpus entry, drawing inputs from a pool of
/// `pool_size` regenerated workload inputs and targeting the planted
/// bug's true counter.
///
/// Corpus entries are instrumented with [`Scheme::Checks`] (the scheme
/// their manifests were validated under); `spec.scheme` is overridden
/// accordingly.
///
/// # Errors
///
/// Returns [`FleetError::Corpus`] if [`instrument_entry`] refuses the
/// entry, or any simulation error from [`run_fleet`].
pub fn run_corpus_fleet(
    entry: &CorpusEntry,
    pool_size: usize,
    spec: &FleetSpec,
) -> Result<FleetReport, FleetError> {
    let (program, _) = instrument_entry(entry).map_err(FleetError::Corpus)?;
    let mut spec = spec.clone();
    spec.scheme = Scheme::Checks;
    // The distribution the corpus validated the bug against, sized and
    // seeded for a community pool rather than the recorded trial list.
    let pool = workload_trials(entry.bug.workload, pool_size, spec.seed ^ 0xc0_70_01);
    run_fleet(
        &program,
        &pool,
        &spec,
        Some(entry.bug.primary().true_counter),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_corpus::{generate_corpus, CorpusError, GenerateConfig};

    fn one_entry() -> CorpusEntry {
        let cfg = GenerateConfig {
            size: 2,
            seed: 41,
            trials: 48,
        };
        let corpus = generate_corpus(&cfg).expect("corpus generation");
        corpus
            .entries
            .first()
            .expect("at least one planted bug")
            .clone()
    }

    #[test]
    fn fleet_detects_a_planted_bug_and_scores_it() {
        let entry = one_entry();
        let mut spec = FleetSpec::new(16, 600);
        spec.densities = vec![(5, 1.0)];
        spec.batch_size = 10;
        spec.epoch_len = 100;
        let report = run_corpus_fleet(&entry, 64, &spec).unwrap();
        assert_eq!(report.summary.runs, 600);
        assert!(report.summary.failures > 0, "the planted bug must fire");
        assert!(
            report.summary.target_latency.is_some(),
            "dense sampling over 600 runs must observe the true predicate"
        );
        assert!(report.target_rank.is_some());
        // The epoch trajectory is monotone in runs.
        let runs: Vec<u64> = report.epochs.iter().map(|e| e.runs).collect();
        assert!(runs.windows(2).all(|w| w[0] < w[1]), "{runs:?}");
    }

    #[test]
    fn drifted_layout_is_refused() {
        let mut entry = one_entry();
        entry.bug.layout_hash ^= 1;
        let spec = FleetSpec::new(4, 20);
        assert!(matches!(
            run_corpus_fleet(&entry, 8, &spec),
            Err(FleetError::Corpus(CorpusError::LayoutDrift { .. }))
        ));
    }

    #[test]
    fn unparsable_source_is_refused() {
        let mut entry = one_entry();
        entry.source = "fn main( {".to_string();
        let spec = FleetSpec::new(4, 20);
        assert!(matches!(
            run_corpus_fleet(&entry, 8, &spec),
            Err(FleetError::Corpus(CorpusError::Entry {
                stage: "parse",
                ..
            }))
        ));
    }
}
