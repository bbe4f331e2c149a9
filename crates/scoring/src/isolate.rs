//! The §3.3 iterative multi-bug isolation loop.
//!
//! One ranking conflates every bug in a deployment: the best predictor
//! of bug A outranks everything, and the predictors of bug B hide in
//! its shadow.  The paper's remedy is redundancy elimination — take the
//! top-ranked predicate, attribute it to one bug, *discard the failing
//! runs it explains*, and re-rank what remains; repeat until no
//! failures are left.  Each iteration surfaces one bug as a cluster of
//! failing runs plus the predicate that explains them.
//!
//! Running that loop needs one thing sufficient statistics cannot give:
//! which *individual* failing runs a predicate covers, so they can be
//! removed.  [`FailureIndex`] is a [`ReportSink`] that retains exactly
//! that and nothing more — per failing run, the sparse set of nonzero
//! counter indices; successful runs fold into per-counter aggregates
//! and are dropped.  Memory is O(failures × nonzero counters), not
//! O(runs × layout width), so the index scales to the same deployments
//! the streaming analyzer does.
//!
//! [`isolate`] then runs the loop to completion with any [`Scorer`],
//! emitting a typed [`IsolationRun`] trace: the initial whole-corpus
//! ranking, one [`IsolationStep`] per iteration, and the trial ids of
//! any failures no positively-scored predicate could explain.  The
//! trace is deterministic: integer scores, counter-index tie-breaks,
//! and run-id-ordered report delivery make it byte-identical at any
//! worker count.

use crate::score::{rank_tables, Scorer};
use cbi_reports::{Label, Report, ReportLayout, ReportSink, SinkError};
use cbi_stats::Contingency;

/// One failing run, reduced to its sparse observation set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailingRun {
    /// The run id the campaign assigned (trial index).
    pub trial: u64,
    /// Indices of counters observed nonzero in this run, ascending.
    pub nonzero: Vec<u32>,
}

/// A [`ReportSink`] retaining per-run detail for failures only.
///
/// Successful runs contribute to per-counter aggregates (`ep` and the
/// site-reach estimate) and are immediately discarded; failing runs
/// keep their sparse nonzero set so the isolation loop can attribute
/// and remove them one cluster at a time.
#[derive(Debug, Default)]
pub struct FailureIndex {
    layout: Option<ReportLayout>,
    failures: Vec<FailingRun>,
    successes: u64,
    /// Per counter: successful runs in which it was nonzero.
    success_nonzero: Vec<u64>,
}

impl FailureIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters per report, 0 before [`ReportSink::begin`].
    pub fn counter_count(&self) -> usize {
        self.layout.map_or(0, |l| l.counters)
    }

    /// The layout hash announced at [`ReportSink::begin`], if any.
    pub fn layout_hash(&self) -> Option<u64> {
        self.layout.map(|l| l.layout_hash)
    }

    /// Total successful runs folded (and discarded).
    pub fn success_runs(&self) -> u64 {
        self.successes
    }

    /// Total failing runs retained.
    pub fn failure_runs(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The retained failing runs, in run-id order.
    pub fn failures(&self) -> &[FailingRun] {
        &self.failures
    }

    /// Successful runs in which `counter` was observed nonzero.
    pub fn success_nonzero(&self, counter: usize) -> u64 {
        self.success_nonzero.get(counter).copied().unwrap_or(0)
    }

    /// Contingency tables over the full corpus (every failing run
    /// active), as the initial pre-isolation ranking sees them.
    pub fn tables(&self, groups: &[(usize, usize)]) -> Vec<Contingency> {
        let active: Vec<bool> = vec![true; self.failures.len()];
        self.tables_for(&active, groups)
    }

    /// Contingency tables restricted to the failing runs flagged in
    /// `active`.  The success side is the full-corpus aggregate — the
    /// loop only ever removes *failing* runs.
    fn tables_for(&self, active: &[bool], groups: &[(usize, usize)]) -> Vec<Contingency> {
        let n = self.counter_count();
        let f_active = active.iter().filter(|&&a| a).count() as u64;

        // Failure side: exact per-counter and per-site counts over the
        // active runs.  A run touches a site once no matter how many of
        // the site's counters it observed.
        let mut ef = vec![0u64; n];
        let mut site_f = vec![0u64; groups.len()];
        let group_of = group_map(n, groups);
        let mut touched: Vec<usize> = Vec::new();
        for (run, act) in self.failures.iter().zip(active) {
            if !act {
                continue;
            }
            touched.clear();
            for &c in &run.nonzero {
                let c = c as usize;
                if c >= n {
                    continue;
                }
                ef[c] += 1;
                if let Some(g) = group_of[c] {
                    if !touched.contains(&g) {
                        touched.push(g);
                        site_f[g] += 1;
                    }
                }
            }
        }

        // Success side: clamped-sum site estimates from aggregates,
        // identical in shape to `cbi_stats::contingency_tables`.
        let mut site_s = vec![0u64; groups.len()];
        for (g, &(base, arity)) in groups.iter().enumerate() {
            site_s[g] = (base..(base + arity).min(n))
                .map(|c| self.success_nonzero[c])
                .sum::<u64>()
                .min(self.successes);
        }

        (0..n)
            .map(|c| Contingency {
                ef: ef[c],
                ep: self.success_nonzero[c],
                f: f_active,
                s: self.successes,
                obs_f: group_of[c].map_or(ef[c], |g| site_f[g]),
                obs_s: group_of[c].map_or(self.success_nonzero[c], |g| site_s[g]),
            })
            .collect()
    }
}

/// Maps each counter to the index of the site group containing it.
fn group_map(n: usize, groups: &[(usize, usize)]) -> Vec<Option<usize>> {
    let mut map = vec![None; n];
    for (g, &(base, arity)) in groups.iter().enumerate() {
        for slot in map.iter_mut().skip(base).take(arity) {
            *slot = Some(g);
        }
    }
    map
}

impl ReportSink for FailureIndex {
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError> {
        self.layout = Some(layout);
        self.success_nonzero = vec![0; layout.counters];
        self.failures.clear();
        self.successes = 0;
        Ok(())
    }

    fn accept(&mut self, report: Report) -> Result<(), SinkError> {
        if self.layout.is_none() {
            return Err(SinkError::NotBegun);
        }
        match report.label {
            Label::Failure => {
                let nonzero: Vec<u32> = report
                    .counters
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0)
                    .map(|(i, _)| i as u32)
                    .collect();
                self.failures.push(FailingRun {
                    trial: report.run_id,
                    nonzero,
                });
            }
            Label::Success => {
                self.successes += 1;
                for (i, &v) in report.counters.iter().enumerate() {
                    if v != 0 && i < self.success_nonzero.len() {
                        self.success_nonzero[i] += 1;
                    }
                }
            }
        }
        Ok(())
    }
}

/// One bug surfaced by one iteration: the chosen predicate and the
/// failing runs it explains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolationCluster {
    /// Counter index of the predicate attributed to this bug.
    pub counter: usize,
    /// Its score (per-mille) over the runs active at this iteration.
    pub score: i64,
    /// Trial ids of the failing runs the predicate explains, ascending.
    pub trials: Vec<u64>,
}

/// One iteration of the elimination loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolationStep {
    /// 0-based iteration number.
    pub iteration: usize,
    /// The bug cluster this iteration carved off.
    pub cluster: IsolationCluster,
    /// Failing runs still unattributed before this iteration ran.
    pub failures_before: u64,
    /// Failing runs still unattributed after removing the cluster.
    pub failures_after: u64,
}

/// The complete, typed trace of one isolation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolationRun {
    /// Registry name of the scorer that drove the loop.
    pub scorer: &'static str,
    /// The whole-corpus ranking before any elimination, as
    /// `(counter, score)` pairs best-first.
    pub initial_ranking: Vec<(usize, i64)>,
    /// One step per iteration, in execution order.
    pub steps: Vec<IsolationStep>,
    /// Trial ids of failing runs no positively-scored predicate could
    /// explain when the loop stopped.
    pub unexplained: Vec<u64>,
}

impl IsolationRun {
    /// Number of iterations the loop executed.
    pub fn iterations(&self) -> usize {
        self.steps.len()
    }

    /// The clusters, in the order they were carved off.
    pub fn clusters(&self) -> impl Iterator<Item = &IsolationCluster> {
        self.steps.iter().map(|s| &s.cluster)
    }

    /// True when every failing run was attributed to some cluster.
    pub fn is_complete(&self) -> bool {
        self.unexplained.is_empty()
    }

    /// 0-based iteration at which `counter` was chosen, if ever.
    pub fn isolated_at(&self, counter: usize) -> Option<usize> {
        self.steps.iter().position(|s| s.cluster.counter == counter)
    }
}

/// Runs the §3.3 elimination loop to completion.
///
/// Each iteration ranks every predicate over the still-active failing
/// runs, takes the best one with a positive score that covers at least
/// one active failure (ties break by counter index), clusters the
/// active runs it covers, and removes them.  The loop ends when no
/// failures remain or no predicate qualifies; leftover failures are
/// reported as `unexplained` rather than force-fitted to a cluster.
pub fn isolate(
    index: &FailureIndex,
    groups: &[(usize, usize)],
    scorer: &dyn Scorer,
) -> IsolationRun {
    let mut active: Vec<bool> = vec![true; index.failures().len()];
    let initial_ranking = rank_tables(scorer, &index.tables(groups));
    let mut steps = Vec::new();

    loop {
        let before = active.iter().filter(|&&a| a).count() as u64;
        if before == 0 {
            break;
        }
        let tables = index.tables_for(&active, groups);
        let ranking = rank_tables(scorer, &tables);
        let Some(&(counter, score)) = ranking
            .iter()
            .find(|&&(c, score)| score > 0 && tables[c].ef > 0)
        else {
            break;
        };

        let mut trials = Vec::new();
        for (i, run) in index.failures().iter().enumerate() {
            if active[i] && run.nonzero.contains(&(counter as u32)) {
                trials.push(run.trial);
                active[i] = false;
            }
        }
        let after = active.iter().filter(|&&a| a).count() as u64;
        steps.push(IsolationStep {
            iteration: steps.len(),
            cluster: IsolationCluster {
                counter,
                score,
                trials,
            },
            failures_before: before,
            failures_after: after,
        });
    }

    let unexplained: Vec<u64> = index
        .failures()
        .iter()
        .zip(&active)
        .filter(|(_, &a)| a)
        .map(|(run, _)| run.trial)
        .collect();

    IsolationRun {
        scorer: scorer.name(),
        initial_ranking,
        steps,
        unexplained,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::{scorer_by_name, Ochiai};

    fn layout(counters: usize) -> ReportLayout {
        ReportLayout {
            counters,
            layout_hash: 0xfeed,
        }
    }

    /// Two disjoint bugs: counter 0 explains trials 0–1, counter 2
    /// explains trials 2–3; counter 1 fires everywhere (benign).
    fn two_bug_index() -> FailureIndex {
        let mut index = FailureIndex::new();
        index.begin(layout(4)).unwrap();
        let runs = [
            (0, Label::Failure, vec![2, 1, 0, 0]),
            (1, Label::Failure, vec![1, 1, 0, 0]),
            (2, Label::Failure, vec![0, 1, 3, 0]),
            (3, Label::Failure, vec![0, 1, 1, 0]),
            (4, Label::Success, vec![0, 1, 0, 0]),
            (5, Label::Success, vec![0, 1, 0, 1]),
            (6, Label::Success, vec![0, 1, 0, 0]),
            (7, Label::Success, vec![0, 1, 0, 0]),
            (8, Label::Success, vec![0, 1, 0, 0]),
        ];
        for (id, label, counters) in runs {
            index.accept(Report::new(id, label, counters)).unwrap();
        }
        index.finish().unwrap();
        index
    }

    #[test]
    fn index_retains_failures_and_folds_successes() {
        let index = two_bug_index();
        assert_eq!(index.failure_runs(), 4);
        assert_eq!(index.success_runs(), 5);
        assert_eq!(index.failures()[0].nonzero, vec![0, 1]);
        assert_eq!(index.success_nonzero(1), 5);
        assert_eq!(index.success_nonzero(0), 0);
        // Full-corpus tables agree with the aggregates.
        let t = index.tables(&[]);
        assert_eq!((t[0].ef, t[0].ep, t[0].f, t[0].s), (2, 0, 4, 5));
        assert_eq!((t[1].ef, t[1].ep), (4, 5));
    }

    #[test]
    fn accept_before_begin_is_rejected() {
        let mut index = FailureIndex::new();
        let err = index.accept(Report::new(0, Label::Failure, vec![1]));
        assert!(matches!(err, Err(SinkError::NotBegun)));
    }

    #[test]
    fn loop_carves_one_cluster_per_bug() {
        let index = two_bug_index();
        let run = isolate(&index, &[], &Ochiai);
        assert_eq!(run.scorer, "ochiai");
        assert_eq!(run.iterations(), 2);
        assert!(run.is_complete());
        // Both bug predicates score √(2²/(4·2)) = 707 over the full
        // corpus; the tie breaks by counter index, so counter 0 is
        // carved off first.
        assert_eq!(run.steps[0].cluster.counter, 0);
        assert_eq!(run.steps[0].cluster.trials, vec![0, 1]);
        assert_eq!(run.steps[0].cluster.score, 707);
        assert_eq!(
            (run.steps[0].failures_before, run.steps[0].failures_after),
            (4, 2)
        );
        assert_eq!(run.steps[1].cluster.counter, 2);
        assert_eq!(run.steps[1].cluster.trials, vec![2, 3]);
        assert_eq!(run.isolated_at(2), Some(1));
        assert_eq!(run.isolated_at(3), None);
        // The benign always-true counter 1 never forms a cluster.
        assert!(run.clusters().all(|c| c.counter != 1));
    }

    #[test]
    fn overlapping_run_joins_the_first_cluster_only() {
        let mut index = FailureIndex::new();
        index.begin(layout(3)).unwrap();
        index
            .accept(Report::new(0, Label::Failure, vec![1, 1, 0]))
            .unwrap();
        index
            .accept(Report::new(1, Label::Failure, vec![0, 1, 0]))
            .unwrap();
        index
            .accept(Report::new(2, Label::Success, vec![0, 0, 1]))
            .unwrap();
        let run = isolate(&index, &[], &Ochiai);
        // Counter 0 (ef=1) and counter 1 (ef=2) both score 1000 with
        // ep=0 under Ochiai... counter 1 covers both runs: isqrt is
        // exact here, so counter 1 wins outright and explains run 0 too.
        assert_eq!(run.iterations(), 1);
        assert_eq!(run.steps[0].cluster.counter, 1);
        assert_eq!(run.steps[0].cluster.trials, vec![0, 1]);
        assert!(run.is_complete());
    }

    #[test]
    fn unexplained_failures_survive_rather_than_force_fit() {
        let mut index = FailureIndex::new();
        index.begin(layout(2)).unwrap();
        // A failing run observing nothing: no predicate can explain it.
        index
            .accept(Report::new(0, Label::Failure, vec![0, 0]))
            .unwrap();
        index
            .accept(Report::new(1, Label::Failure, vec![1, 0]))
            .unwrap();
        index
            .accept(Report::new(2, Label::Success, vec![0, 1]))
            .unwrap();
        let run = isolate(&index, &[], &Ochiai);
        assert_eq!(run.iterations(), 1);
        assert_eq!(run.steps[0].cluster.trials, vec![1]);
        assert!(!run.is_complete());
        assert_eq!(run.unexplained, vec![0]);
    }

    #[test]
    fn every_scorer_drives_the_loop_to_the_same_disjoint_clusters() {
        let index = two_bug_index();
        for name in crate::score::SCORER_NAMES {
            let scorer = scorer_by_name(name).unwrap();
            let run = isolate(&index, &[(0, 2), (2, 2)], scorer);
            let counters: Vec<usize> = run.clusters().map(|c| c.counter).collect();
            assert!(
                counters.contains(&0) && counters.contains(&2),
                "{name} must isolate both planted predicates, got {counters:?}"
            );
            assert!(run.is_complete(), "{name} left failures unexplained");
        }
    }

    #[test]
    fn site_groups_feed_the_context_term() {
        let index = two_bug_index();
        let t = index.tables(&[(0, 2), (2, 2)]);
        // Site (0,2): counter 0 fires in 2 failing runs, counter 1 in
        // all 4 — the site is reached in all 4 failing and 5 successful
        // runs, shared by both members.
        assert_eq!((t[0].obs_f, t[0].obs_s), (4, 5));
        assert_eq!((t[1].obs_f, t[1].obs_s), (4, 5));
        // Site (2,2): reached in the 2 failing runs where counter 2
        // fires plus the single success where counter 3 does.
        assert_eq!((t[2].obs_f, t[2].obs_s), (2, 1));
    }
}
