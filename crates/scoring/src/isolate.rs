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
//! that and nothing more — the [`SufficientStats`] of every run, plus
//! the failing runs as [`SparseArchive`] rows; a successful run leaves
//! nothing behind but its fold.  Memory is O(failures × nonzero
//! counters), not O(runs × layout width), so the index scales to the
//! same deployments the streaming analyzer does.
//!
//! [`isolate`] then runs the loop to completion with any [`Scorer`],
//! emitting a typed [`IsolationRun`] trace: the initial whole-corpus
//! ranking, one [`IsolationStep`] per iteration, and the trial ids of
//! any failures no positively-scored predicate could explain.  The
//! trace is deterministic: integer scores, counter-index tie-breaks,
//! and run-id-ordered report delivery make it byte-identical at any
//! worker count.
//!
//! A scorer reads nothing but a predicate's contingency table, so the
//! loop never re-tables: it takes the full-corpus tables from the
//! statistics and the failing rows, builds the transpose of the rows
//! (per counter, the failing runs it covers) once, then subtracts each
//! removed run from the tables.  An iteration costs one scoring pass
//! over the counters plus the removed runs' counters, and picks exactly
//! what ranking freshly built tables would.

use crate::score::{rank_tables, Scorer};
use cbi_reports::{
    CollectError, Label, Report, ReportLayout, ReportSink, SinkError, SparseArchive, SparseRow,
    SufficientStats,
};
use cbi_stats::{contingency_tables, Contingency};

/// A [`ReportSink`] retaining per-run detail for failures only.
///
/// Every run folds into the [`SufficientStats`]; a failing run is also
/// kept as a [`SparseArchive`] row so the isolation loop can attribute
/// and remove it one cluster at a time.
#[derive(Debug, Default)]
pub struct FailureIndex {
    stats: SufficientStats,
    failures: SparseArchive,
}

impl FailureIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// The statistics of every run folded, failing or not.
    pub fn stats(&self) -> &SufficientStats {
        &self.stats
    }

    /// The retained failing runs, in run-id order; a row's run id is
    /// the trial index the campaign assigned.
    pub fn failures(&self) -> &SparseArchive {
        &self.failures
    }

    /// Contingency tables over the full corpus (every failing run
    /// active), as the initial pre-isolation ranking sees them.
    pub fn tables(&self, groups: &[(usize, usize)]) -> Vec<Contingency> {
        LiveTables::new(self, groups).all()
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

/// The contingency tables over the failing runs still in play, kept
/// exact as runs leave: removing a run subtracts its counters from `ef`
/// and its distinct sites from `site_f`.  The success side is the
/// full-corpus aggregate throughout — the loop only ever removes
/// *failing* runs.
struct LiveTables {
    /// The statistics' tables: `ep`, `s` and the success-side reach.
    full: Vec<Contingency>,
    group_of: Vec<Option<usize>>,
    /// Per counter: live failing runs in which it was nonzero.
    ef: Vec<u64>,
    /// Per site: live failing runs that reached it.
    site_f: Vec<u64>,
    /// Live failing runs.
    f: u64,
    /// Per site: the last run that counted it, so a run touching a site
    /// through several counters counts it once.
    stamp: Vec<u64>,
    visits: u64,
}

impl LiveTables {
    /// The tables with every failing run of `index` live: `ef`, `f`,
    /// `ep`, `s` and the success-side reach from the statistics, the
    /// failure-side reach from the failing rows.
    fn new(index: &FailureIndex, groups: &[(usize, usize)]) -> Self {
        let full = contingency_tables(&index.stats, groups);
        let mut tables = LiveTables {
            group_of: group_map(full.len(), groups),
            ef: full.iter().map(|t| t.ef).collect(),
            site_f: vec![0; groups.len()],
            f: index.stats.failure_runs(),
            stamp: vec![0; groups.len()],
            visits: 0,
            full,
        };
        for run in index.failures.rows() {
            tables.reach(run, |n| *n += 1);
        }
        tables
    }

    /// Steps (increments or decrements) the failure reach of each site
    /// `run` touches, once per site.
    fn reach(&mut self, run: SparseRow<'_>, step: impl Fn(&mut u64)) {
        self.visits += 1;
        for (c, _) in run.nonzero() {
            if let Some(g) = self.group_of[c] {
                if self.stamp[g] != self.visits {
                    self.stamp[g] = self.visits;
                    step(&mut self.site_f[g]);
                }
            }
        }
    }

    /// Removes one live failing run: its counters and each site it
    /// reached, once.
    fn remove(&mut self, run: SparseRow<'_>) {
        self.f -= 1;
        for (c, _) in run.nonzero() {
            self.ef[c] -= 1;
        }
        self.reach(run, |n| *n -= 1);
    }

    /// Counter `c`'s table over the live runs.
    fn table(&self, c: usize) -> Contingency {
        Contingency {
            ef: self.ef[c],
            f: self.f,
            obs_f: self.group_of[c].map_or(self.ef[c], |g| self.site_f[g]),
            ..self.full[c]
        }
    }

    /// Every counter's table, in counter order.
    fn all(&self) -> Vec<Contingency> {
        (0..self.ef.len()).map(|c| self.table(c)).collect()
    }

    /// The counter [`rank_tables`] would rank first among those scoring
    /// above zero and covering a live run — best score, then lowest
    /// index — with its score, in one pass and no sort.
    fn best(&self, scorer: &dyn Scorer) -> Option<(usize, i64)> {
        let mut best: Option<(usize, i64)> = None;
        for c in (0..self.ef.len()).filter(|&c| self.ef[c] > 0) {
            let score = scorer.score(&self.table(c));
            if score > 0 && best.is_none_or(|(_, top)| score > top) {
                best = Some((c, score));
            }
        }
        best
    }
}

/// For each counter, the failing runs (row indices into
/// [`FailureIndex::failures`]) it was nonzero in, ascending: the
/// transpose of the failing rows, in compressed-row form.
struct Postings {
    /// Counter `c`'s runs are `runs[start[c]..start[c + 1]]`.
    start: Vec<usize>,
    runs: Vec<u32>,
}

impl Postings {
    fn new(index: &FailureIndex) -> Self {
        let n = index.stats.counter_count();
        // Counter `c` covers exactly the failing runs the statistics
        // counted for it.
        let mut start = vec![0usize; n + 1];
        for c in 0..n {
            start[c + 1] = start[c] + index.stats.nonzero_failures(c) as usize;
        }
        let mut next = start.clone();
        let mut runs = vec![0u32; start[n]];
        for (r, run) in index.failures.rows().enumerate() {
            let r = u32::try_from(r).expect("fewer than 2^32 failing runs");
            for (c, _) in run.nonzero() {
                runs[next[c]] = r;
                next[c] += 1;
            }
        }
        Postings { start, runs }
    }

    fn of(&self, counter: usize) -> &[u32] {
        &self.runs[self.start[counter]..self.start[counter + 1]]
    }
}

impl ReportSink for FailureIndex {
    /// Follows [`ReportLayout::fix`]: the first layout sizes the
    /// statistics, a later equal one is a no-op, any other is refused,
    /// and nothing is cleared — so a
    /// [`BatchIngest`](cbi_reports::BatchIngest) keeps every batch.
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError> {
        let first = self.failures.layout().is_none();
        self.failures.begin(layout)?;
        if first {
            self.stats = SufficientStats::new(layout.counters);
        }
        Ok(())
    }

    /// Folds one report into the statistics; a failure is also kept as
    /// a row.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError::NotBegun`] before `begin`, and a
    /// [`CollectError::LayoutMismatch`] for a report of another width.
    fn accept(&mut self, report: Report) -> Result<(), SinkError> {
        let counters = self.failures.layout().ok_or(SinkError::NotBegun)?.counters;
        if report.counters.len() != counters {
            return Err(SinkError::Collect(CollectError::LayoutMismatch {
                expected: counters,
                got: report.counters.len(),
            }));
        }
        match report.label {
            Label::Failure => {
                // One scan of the dense report: the row, then its fold.
                self.failures.accept(report)?;
                let row = self.failures.row(self.failures.len() - 1);
                self.stats.update_nonzero(Label::Failure, row.nonzero());
            }
            Label::Success => self.stats.update(&report),
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
///
/// The tables are built once; each removed run is then subtracted from
/// them, and each iteration is one scoring pass over the counters a live
/// run covers.  A scorer sees exactly the tables a full re-tabling over
/// the active runs would give it, so the trace is the same.
pub fn isolate(
    index: &FailureIndex,
    groups: &[(usize, usize)],
    scorer: &dyn Scorer,
) -> IsolationRun {
    let mut tables = LiveTables::new(index, groups);
    let initial_ranking = rank_tables(scorer, &tables.all());
    let postings = Postings::new(index);
    let mut active: Vec<bool> = vec![true; index.failures.len()];
    let mut steps = Vec::new();

    while tables.f > 0 {
        let Some((counter, score)) = tables.best(scorer) else {
            break;
        };
        let before = tables.f;
        let mut trials = Vec::new();
        for &r in postings.of(counter) {
            let r = r as usize;
            if active[r] {
                active[r] = false;
                let run = index.failures.row(r);
                trials.push(run.run_id);
                tables.remove(run);
            }
        }
        steps.push(IsolationStep {
            iteration: steps.len(),
            cluster: IsolationCluster {
                counter,
                score,
                trials,
            },
            failures_before: before,
            failures_after: tables.f,
        });
    }

    let unexplained: Vec<u64> = index
        .failures
        .rows()
        .zip(&active)
        .filter(|(_, &a)| a)
        .map(|(run, _)| run.run_id)
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
        let stats = index.stats();
        assert_eq!(stats.failure_runs(), 4);
        assert_eq!(stats.success_runs(), 5);
        assert_eq!(index.failures().len(), 4);
        assert_eq!(observed(index.failures().row(0)), vec![0, 1]);
        assert_eq!(stats.nonzero_successes(1), 5);
        assert_eq!(stats.nonzero_successes(0), 0);
        assert_eq!(stats.nonzero_failures(1), 4);
        // Full-corpus tables agree with the aggregates.
        let t = index.tables(&[]);
        assert_eq!((t[0].ef, t[0].ep, t[0].f, t[0].s), (2, 0, 4, 5));
        assert_eq!((t[1].ef, t[1].ep), (4, 5));
    }

    /// The counters a row observed, ascending.
    fn observed(row: SparseRow<'_>) -> Vec<usize> {
        row.nonzero().map(|(c, _)| c).collect()
    }

    #[test]
    fn batch_ingest_keeps_every_batch() {
        // `BatchIngest` announces the layout before every batch: the
        // index must keep what earlier batches brought.
        use cbi_reports::{wire::encode_reports, BatchIngest};
        let layout = layout(3);
        let batches = [
            vec![
                Report::new(0, Label::Failure, vec![1, 0, 0]),
                Report::new(1, Label::Success, vec![0, 1, 0]),
            ],
            vec![Report::new(2, Label::Failure, vec![0, 0, 1])],
        ];
        let mut ingest = BatchIngest::new(FailureIndex::new(), Some(layout));
        for batch in &batches {
            let bytes = encode_reports(batch, layout.layout_hash, layout.counters).unwrap();
            ingest.ingest(&bytes).unwrap();
        }
        let index = ingest.sink();
        let t = index.tables(&[]);
        assert_eq!((t[0].f, t[0].s), (2, 1), "the runs of both batches");
        assert_eq!((t[0].ef, t[1].ep, t[2].ef), (1, 1, 1));
        assert_eq!(index.failures().len(), 2);
    }

    #[test]
    fn begin_fixes_the_first_layout() {
        let mut index = two_bug_index();
        index.begin(layout(4)).unwrap();
        assert_eq!(index.failures().len(), 4, "an equal begin clears nothing");
        for other in [
            layout(5),
            ReportLayout {
                counters: 4,
                layout_hash: 0xbeef,
            },
        ] {
            assert!(matches!(
                index.begin(other),
                Err(SinkError::Collect(
                    CollectError::LayoutMismatch { .. } | CollectError::LayoutHashMismatch { .. }
                ))
            ));
        }
        assert_eq!(index.failures().layout(), Some(layout(4)));
        assert_eq!(index.stats().success_runs(), 5);
    }

    #[test]
    fn accept_before_begin_is_rejected() {
        let mut index = FailureIndex::new();
        let err = index.accept(Report::new(0, Label::Failure, vec![1]));
        assert!(matches!(err, Err(SinkError::NotBegun)));
    }

    #[test]
    fn a_report_of_the_wrong_width_is_a_typed_error() {
        let mut index = FailureIndex::new();
        index.begin(layout(3)).unwrap();
        for (label, width) in [
            (Label::Failure, 2),
            (Label::Failure, 4),
            (Label::Success, 4),
        ] {
            let err = index
                .accept(Report::new(0, label, vec![1; width]))
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    SinkError::Collect(CollectError::LayoutMismatch { expected: 3, got })
                        if got == width
                ),
                "{err:?}"
            );
        }
        let stats = index.stats();
        assert_eq!((stats.failure_runs(), stats.success_runs()), (0, 0));
        assert!(index.failures().is_empty());
    }

    #[test]
    fn accept_skips_zero_blocks_and_finds_every_nonzero_counter() {
        // Nineteen counters: two full blocks of eight and a tail of
        // three, with nonzeros at block edges and in the tail.
        let mut index = FailureIndex::new();
        index.begin(layout(19)).unwrap();
        let mut counters = vec![0u64; 19];
        for &i in &[0usize, 7, 16, 18] {
            counters[i] = 1 + i as u64;
        }
        index
            .accept(Report::new(0, Label::Failure, counters.clone()))
            .unwrap();
        index
            .accept(Report::new(1, Label::Success, counters))
            .unwrap();
        index
            .accept(Report::new(2, Label::Success, vec![0; 19]))
            .unwrap();
        assert_eq!(observed(index.failures().row(0)), vec![0, 7, 16, 18]);
        let seen: Vec<u64> = (0..19)
            .map(|c| index.stats().nonzero_successes(c))
            .collect();
        let mut expected = vec![0u64; 19];
        for &i in &[0usize, 7, 16, 18] {
            expected[i] = 1;
        }
        assert_eq!(seen, expected);
        assert_eq!(index.stats().success_runs(), 2);
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
