//! Detection-latency bookkeeping for the fleet and for one campaign.
//!
//! §3.1.3 measures the community as a detection instrument: how many runs
//! happen before a predicate is first observed.  [`FirstObservation`]
//! tracks, per counter, the earliest run index with a nonzero count.  It
//! is fed batch-by-batch by the fleet epoch scorer, or run-by-run over a
//! campaign's reports (`examples/deployment_coverage.rs`); because it keeps a
//! *minimum* per counter, the result is independent of arrival order, so
//! sharded simulations can fold observations in any interleaving and
//! still agree bit-for-bit.

use cbi_instrument::SiteTable;
use cbi_reports::nonzero;

/// Per-counter record of the earliest run that observed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstObservation {
    first: Vec<Option<usize>>,
}

impl FirstObservation {
    /// An empty record for `counters` counters, none yet observed.
    pub fn new(counters: usize) -> Self {
        FirstObservation {
            first: vec![None; counters],
        }
    }

    /// Folds in one run's counter vector, identified by its 0-based run
    /// index.  Indices need not arrive in order: the record keeps the
    /// minimum index per counter, so any interleaving converges to the
    /// same state.
    ///
    /// # Panics
    ///
    /// Panics if `counters` is wider than the record.
    pub fn record(&mut self, run_index: usize, counters: &[u64]) {
        assert!(
            counters.len() <= self.first.len(),
            "report wider than layout: {} > {}",
            counters.len(),
            self.first.len()
        );
        self.record_observed(run_index, nonzero(counters).map(|(c, _)| c));
    }

    /// Folds in one run given only the counters it observed (nonzero):
    /// an unobserved counter changes nothing, so the cost is what the
    /// report contains, not how wide the layout is.
    ///
    /// # Panics
    ///
    /// Panics if a counter index is outside the record.
    pub fn record_observed(&mut self, run_index: usize, observed: impl IntoIterator<Item = usize>) {
        for c in observed {
            let slot = &mut self.first[c];
            if slot.is_none_or(|seen| run_index < seen) {
                *slot = Some(run_index);
            }
        }
    }

    /// The 0-based index of the first run that observed counter `c`, or
    /// `None` if it was never observed (or `c` is out of range).
    pub fn first(&self, c: usize) -> Option<usize> {
        self.first.get(c).copied().flatten()
    }

    /// Number of counters tracked.
    pub fn counters(&self) -> usize {
        self.first.len()
    }

    /// Detection latency (runs until first observation, 1-based): the
    /// earliest observation among all predicates whose name contains
    /// `needle`, or `None` if no matching predicate was ever observed.
    pub fn latency_of(&self, sites: &SiteTable, needle: &str) -> Option<usize> {
        (0..sites.total_counters().min(self.first.len()))
            .filter(|&c| sites.predicate_name(c).contains(needle))
            .filter_map(|c| self.first[c])
            .min()
            .map(|i| i + 1)
    }

    /// Detection latency for one specific counter, 1-based.
    pub fn latency_of_counter(&self, c: usize) -> Option<usize> {
        self.first(c).map(|i| i + 1)
    }

    /// Fraction of counters observed at least once.
    #[cfg(test)]
    fn observed_fraction(&self) -> f64 {
        let n = self.first.len();
        if n == 0 {
            return 0.0;
        }
        self.observed_count() as f64 / n as f64
    }

    /// Count of counters observed at least once.
    pub fn observed_count(&self) -> usize {
        self.first.iter().filter(|o| o.is_some()).count()
    }

    /// The raw per-counter record.
    pub fn as_slice(&self) -> &[Option<usize>] {
        &self.first
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_instrument::{instrument, Scheme};

    fn sites() -> SiteTable {
        let program = cbi_minic::parse(
            "fn rare(int v) -> int { if (v % 12 == 0) { return 1; } return 0; }\n\
             fn main() -> int { int v = read(); int hit = rare(v); print(hit); return 0; }",
        )
        .unwrap();
        instrument(&program, Scheme::Returns).unwrap().sites
    }

    #[test]
    fn records_earliest_run_per_counter() {
        let mut obs = FirstObservation::new(3);
        obs.record(5, &[0, 1, 0]);
        obs.record(2, &[1, 1, 0]);
        obs.record(9, &[1, 0, 1]);
        assert_eq!(obs.first(0), Some(2));
        assert_eq!(obs.first(1), Some(2));
        assert_eq!(obs.first(2), Some(9));
    }

    #[test]
    fn order_of_arrival_does_not_matter() {
        let folds: &[&[(usize, [u64; 2])]] = &[
            &[(0, [0, 1]), (3, [2, 0]), (7, [1, 1])],
            &[(7, [1, 1]), (0, [0, 1]), (3, [2, 0])],
            &[(3, [2, 0]), (7, [1, 1]), (0, [0, 1])],
        ];
        let states: Vec<FirstObservation> = folds
            .iter()
            .map(|fold| {
                let mut obs = FirstObservation::new(2);
                for (i, counters) in fold.iter() {
                    obs.record(*i, counters);
                }
                obs
            })
            .collect();
        assert_eq!(states[0], states[1]);
        assert_eq!(states[1], states[2]);
        assert_eq!(states[0].first(0), Some(3));
        assert_eq!(states[0].first(1), Some(0));
    }

    #[test]
    fn observed_only_fold_equals_the_dense_oracle() {
        // The fold as it was before it skipped zero counters.
        fn dense_record(first: &mut [Option<usize>], run_index: usize, counters: &[u64]) {
            for (slot, &value) in first.iter_mut().zip(counters) {
                if value > 0 && slot.is_none_or(|seen| run_index < seen) {
                    *slot = Some(run_index);
                }
            }
        }
        let mut rng = cbi_sampler::Pcg32::new(0xf1257);
        let mut dense = vec![None; 16];
        let mut via_record = FirstObservation::new(16);
        let mut via_observed = FirstObservation::new(16);
        for step in 0..200 {
            // Run indices arrive out of order; some runs observe nothing.
            let run_index = rng.below(500) as usize;
            let counters: Vec<u64> = (0..16)
                .map(|_| match rng.below(10) {
                    0 => 1 + rng.below(9),
                    1 if step % 50 == 0 => u64::MAX,
                    _ => 0,
                })
                .collect();
            dense_record(&mut dense, run_index, &counters);
            via_record.record(run_index, &counters);
            via_observed.record_observed(run_index, nonzero(&counters).map(|(c, _)| c));
            assert_eq!(via_record.as_slice(), dense.as_slice(), "step {step}");
            assert_eq!(via_observed, via_record, "step {step}");
        }
        assert!(via_record.observed_count() > 0);
    }

    #[test]
    fn zero_counters_never_count_as_observations() {
        let mut obs = FirstObservation::new(2);
        obs.record(0, &[0, 0]);
        obs.record(1, &[0, 0]);
        assert_eq!(obs.first(0), None);
        assert_eq!(obs.observed_fraction(), 0.0);
        assert_eq!(obs.observed_count(), 0);
    }

    #[test]
    fn latency_is_one_based_minimum_over_matching_predicates() {
        let sites = sites();
        let n = sites.total_counters();
        let mut obs = FirstObservation::new(n);
        // Find the counter for the `rare() > 0` predicate and one other.
        let target = (0..n)
            .find(|&c| sites.predicate_name(c).contains("rare() > 0"))
            .unwrap();
        let mut counters = vec![0u64; n];
        counters[target] = 1;
        obs.record(41, &counters);
        assert_eq!(obs.latency_of(&sites, "rare() > 0"), Some(42));
        assert_eq!(obs.latency_of_counter(target), Some(42));
        assert_eq!(obs.latency_of(&sites, "no_such_predicate"), None);
    }

    #[test]
    fn observed_fraction_counts_distinct_counters() {
        let mut obs = FirstObservation::new(4);
        obs.record(0, &[1, 0, 0, 0]);
        obs.record(1, &[1, 1, 0, 0]);
        assert_eq!(obs.observed_fraction(), 0.5);
        assert_eq!(obs.observed_count(), 2);
        assert_eq!(FirstObservation::new(0).observed_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "wider than layout")]
    fn wide_report_panics() {
        let mut obs = FirstObservation::new(1);
        obs.record(0, &[1, 2]);
    }
}
