//! Sufficient statistics for privacy-preserving analysis (§5).
//!
//! "Many statistical analyses are characterized by a set of sufficient
//! statistics … once the logistic regression parameters have been updated
//! with a new trace, the trace itself may be discarded."  The four
//! predicate-elimination strategies of §3.2.2 likewise need only, per
//! counter and per outcome class, *in how many runs the counter was
//! nonzero* — not the runs themselves.  This accumulator retains exactly
//! that, so a collector can discard raw reports as they arrive and an
//! attacker compromising the analysis host cannot recover any single
//! trace.

use crate::report::{nonzero, Label, Report};

/// Per-counter, per-class observation statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SufficientStats {
    /// Runs in which counter `i` was nonzero, among successful runs.
    nonzero_in_success: Vec<u64>,
    /// Runs in which counter `i` was nonzero, among failed runs.
    nonzero_in_failure: Vec<u64>,
    /// Total observations of counter `i` across successful runs.
    sum_success: Vec<u64>,
    /// Total observations of counter `i` across failed runs.
    sum_failure: Vec<u64>,
    /// Number of successful runs folded in.
    successes: u64,
    /// Number of failed runs folded in.
    failures: u64,
}

impl SufficientStats {
    /// Creates an accumulator for `counters` counters.
    pub fn new(counters: usize) -> Self {
        SufficientStats {
            nonzero_in_success: vec![0; counters],
            nonzero_in_failure: vec![0; counters],
            sum_success: vec![0; counters],
            sum_failure: vec![0; counters],
            successes: 0,
            failures: 0,
        }
    }

    /// Number of counters tracked.
    pub fn counter_count(&self) -> usize {
        self.nonzero_in_success.len()
    }

    /// Folds in one report; the report may then be discarded.
    ///
    /// # Panics
    ///
    /// Panics if the report's counter count does not match.
    pub fn update(&mut self, report: &Report) {
        assert_eq!(
            report.counters.len(),
            self.counter_count(),
            "report layout mismatch"
        );
        self.update_nonzero(report.label, nonzero(&report.counters));
    }

    /// Folds in one run given only its nonzero counters as `(index,
    /// value)` pairs: a zero counter changes no statistic, so the cost
    /// is what the report contains, not how wide the layout is.
    ///
    /// # Panics
    ///
    /// Panics if an index is outside the layout.
    pub fn update_nonzero(
        &mut self,
        label: Label,
        counters: impl IntoIterator<Item = (usize, u64)>,
    ) {
        let (runs, sum) = match label {
            Label::Success => (&mut self.nonzero_in_success, &mut self.sum_success),
            Label::Failure => (&mut self.nonzero_in_failure, &mut self.sum_failure),
        };
        for (i, c) in counters {
            if c > 0 {
                runs[i] += 1;
            }
            // The elimination strategies only consult the nonzero-run
            // counts; the totals saturate rather than poison an entire
            // campaign over one absurd counter.
            sum[i] = sum[i].saturating_add(c);
        }
        match label {
            Label::Success => self.successes += 1,
            Label::Failure => self.failures += 1,
        }
    }

    /// Number of successful runs folded in.
    pub fn success_runs(&self) -> u64 {
        self.successes
    }

    /// Number of failed runs folded in.
    pub fn failure_runs(&self) -> u64 {
        self.failures
    }

    /// In how many successful runs counter `i` was observed true.
    pub fn nonzero_successes(&self, i: usize) -> u64 {
        self.nonzero_in_success[i]
    }

    /// In how many failed runs counter `i` was observed true.
    pub fn nonzero_failures(&self, i: usize) -> u64 {
        self.nonzero_in_failure[i]
    }

    /// Whether counter `i` was observed true in any run at all.
    pub fn ever_observed(&self, i: usize) -> bool {
        self.nonzero_in_success[i] + self.nonzero_in_failure[i] > 0
    }

    /// Total observations of counter `i` in successful runs.
    #[cfg(test)]
    fn total_in_successes(&self, i: usize) -> u64 {
        self.sum_success[i]
    }

    /// Total observations of counter `i` in failed runs.
    #[cfg(test)]
    fn total_in_failures(&self, i: usize) -> u64 {
        self.sum_failure[i]
    }

    /// Merges another accumulator (e.g. from a second collection server).
    ///
    /// # Panics
    ///
    /// Panics if the counter counts differ.
    pub fn merge(&mut self, other: &SufficientStats) {
        assert_eq!(
            self.counter_count(),
            other.counter_count(),
            "sufficient stats layout mismatch"
        );
        for i in 0..self.counter_count() {
            self.nonzero_in_success[i] += other.nonzero_in_success[i];
            self.nonzero_in_failure[i] += other.nonzero_in_failure[i];
            self.sum_success[i] = self.sum_success[i].saturating_add(other.sum_success[i]);
            self.sum_failure[i] = self.sum_failure[i].saturating_add(other.sum_failure[i]);
        }
        self.successes += other.successes;
        self.failures += other.failures;
    }
}

impl FromIterator<Report> for SufficientStats {
    fn from_iter<T: IntoIterator<Item = Report>>(iter: T) -> Self {
        let mut it = iter.into_iter().peekable();
        let counters = it.peek().map_or(0, |r| r.counters.len());
        let mut stats = SufficientStats::new(counters);
        for r in it {
            stats.update(&r);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> SufficientStats {
        let mut s = SufficientStats::new(3);
        s.update(&Report::new(0, Label::Success, vec![2, 0, 1]));
        s.update(&Report::new(1, Label::Failure, vec![0, 3, 1]));
        s.update(&Report::new(2, Label::Success, vec![1, 0, 0]));
        s
    }

    #[test]
    fn per_class_nonzero_counts() {
        let s = stats();
        assert_eq!(s.success_runs(), 2);
        assert_eq!(s.failure_runs(), 1);
        assert_eq!(s.nonzero_successes(0), 2);
        assert_eq!(s.nonzero_failures(0), 0);
        assert_eq!(s.nonzero_failures(1), 1);
        assert_eq!(s.nonzero_successes(1), 0);
        assert!(s.ever_observed(2));
        assert!(s.ever_observed(0));
    }

    #[test]
    fn sums_accumulate() {
        let s = stats();
        assert_eq!(s.total_in_successes(0), 3);
        assert_eq!(s.total_in_failures(1), 3);
        assert_eq!(s.total_in_successes(2), 1);
        assert_eq!(s.total_in_failures(2), 1);
    }

    #[test]
    fn merge_combines_servers() {
        let mut a = stats();
        let b = stats();
        a.merge(&b);
        assert_eq!(a.success_runs(), 4);
        assert_eq!(a.nonzero_successes(0), 4);
        assert_eq!(a.total_in_failures(1), 6);
    }

    #[test]
    fn from_iterator_builds_stats() {
        let s: SufficientStats = vec![
            Report::new(0, Label::Success, vec![1, 0]),
            Report::new(1, Label::Failure, vec![0, 1]),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.counter_count(), 2);
        assert_eq!(s.success_runs(), 1);
        assert_eq!(s.failure_runs(), 1);
    }

    /// The fold as it was before it skipped zero counters: every counter
    /// visited.  The oracle for the sparse fold.
    fn dense_update(stats: &mut SufficientStats, report: &Report) {
        let (runs, sum) = match report.label {
            Label::Success => (&mut stats.nonzero_in_success, &mut stats.sum_success),
            Label::Failure => (&mut stats.nonzero_in_failure, &mut stats.sum_failure),
        };
        for (i, &c) in report.counters.iter().enumerate() {
            if c > 0 {
                runs[i] += 1;
            }
            sum[i] = sum[i].saturating_add(c);
        }
        match report.label {
            Label::Success => stats.successes += 1,
            Label::Failure => stats.failures += 1,
        }
    }

    #[test]
    fn sparse_fold_equals_the_dense_oracle() {
        let mut rng = cbi_sampler::Pcg32::new(0x5f5);
        let mut reports: Vec<Report> = (0..300)
            .map(|run| {
                let label = if rng.below(3) == 0 {
                    Label::Failure
                } else {
                    Label::Success
                };
                let counters = (0..24)
                    .map(|_| {
                        if rng.below(8) == 0 {
                            1 + rng.below(50)
                        } else {
                            0
                        }
                    })
                    .collect();
                Report::new(run, label, counters)
            })
            .collect();
        reports.push(Report::new(300, Label::Success, vec![0; 24]));
        // Totals saturate instead of wrapping.
        reports.push(Report::new(301, Label::Failure, vec![u64::MAX; 24]));
        reports.push(Report::new(302, Label::Failure, vec![u64::MAX; 24]));

        let mut dense = SufficientStats::new(24);
        let mut via_update = SufficientStats::new(24);
        let mut via_nonzero = SufficientStats::new(24);
        for report in &reports {
            dense_update(&mut dense, report);
            via_update.update(report);
            via_nonzero.update_nonzero(report.label, nonzero(&report.counters));
            assert_eq!(via_update, dense, "after run {}", report.run_id);
            assert_eq!(via_nonzero, dense, "after run {}", report.run_id);
        }
        assert_eq!(dense.total_in_failures(0), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "layout mismatch")]
    fn update_rejects_wrong_layout() {
        let mut s = SufficientStats::new(2);
        s.update(&Report::new(0, Label::Success, vec![1]));
    }
}
