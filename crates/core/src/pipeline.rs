//! High-level bug-isolation pipelines.
//!
//! These functions glue the whole system together the way the paper's case
//! studies do: run a campaign, then either eliminate predicates (§3.2) or
//! train a regularized crash predictor (§3.3), and report *named*
//! predicates ready for a human to read.

use cbi_instrument::SiteTable;
use cbi_reports::SufficientStats;
use cbi_stats::elimination::{apply, combine, survivor_count, survivors, Strategy};
use cbi_stats::{choose_lambda, split, CrossvalError, Row, TrainConfig};
use cbi_workloads::CampaignResult;
use std::error::Error;
use std::fmt;

/// Error from a statistical pipeline over collected reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The campaign produced no reports to analyze.
    NoReports,
    /// The requested train/cv split sizes exceed the report count.
    SplitExceedsReports {
        /// Requested training split size.
        train: usize,
        /// Requested cross-validation split size.
        cv: usize,
        /// Reports actually available.
        total: usize,
    },
    /// λ selection cannot run: an empty train or cross-validation split,
    /// or no candidate λ.
    Crossval(CrossvalError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::NoReports => write!(f, "no reports to analyze"),
            PipelineError::SplitExceedsReports { train, cv, total } => write!(
                f,
                "split sizes exceed report count: train {train} + cv {cv} > {total} reports"
            ),
            PipelineError::Crossval(e) => write!(f, "cannot cross-validate lambda: {e}"),
        }
    }
}

impl Error for PipelineError {}

/// Results of the §3.2 predicate-elimination analysis.
#[derive(Debug, Clone)]
pub struct EliminationReport {
    /// Total runs analyzed.
    pub runs: usize,
    /// Failed runs among them.
    pub failures: usize,
    /// Survivor counts per strategy, applied independently:
    /// (universal falsehood, lack of failing coverage,
    ///  lack of failing example, successful counterexample).
    pub independent_survivors: [usize; 4],
    /// Counter indices surviving *universal falsehood ∧ successful
    /// counterexample* — predicates sometimes true in failures, never
    /// observed true in successes.
    pub combined: Vec<usize>,
    /// Human-readable names of the combined survivors.
    pub combined_names: Vec<String>,
}

/// Runs the four elimination strategies over a campaign's reports.
///
/// Reads only the collector's incrementally-maintained
/// [`SufficientStats`] — the raw report archive is never rescanned.
pub fn eliminate(result: &CampaignResult) -> EliminationReport {
    eliminate_stats(
        result.collector.stats(),
        &result.instrumented.sites.groups(),
        &result.instrumented.sites,
    )
}

/// Runs the four elimination strategies over bare sufficient statistics.
///
/// This is the aggregate-only core of [`eliminate`]: everything the §3.2
/// strategies need fits in [`SufficientStats`], so the same analysis runs
/// identically over an in-memory campaign, a spool file, or a live ingest
/// stream that discarded each report on arrival.
pub fn eliminate_stats(
    stats: &SufficientStats,
    groups: &[(usize, usize)],
    sites: &SiteTable,
) -> EliminationReport {
    let _span = cbi_telemetry::span("analyze.eliminate");

    let uf = apply(stats, Strategy::UniversalFalsehood, groups);
    let cov = apply(stats, Strategy::LackOfFailingCoverage, groups);
    let ex = apply(stats, Strategy::LackOfFailingExample, groups);
    let sc = apply(stats, Strategy::SuccessfulCounterexample, groups);

    let combined_mask = combine(&[uf.clone(), sc.clone()]);
    let combined = survivors(&combined_mask);
    let combined_names = combined.iter().map(|&c| sites.predicate_name(c)).collect();

    EliminationReport {
        runs: (stats.success_runs() + stats.failure_runs()) as usize,
        failures: stats.failure_runs() as usize,
        independent_survivors: [
            survivor_count(&uf),
            survivor_count(&cov),
            survivor_count(&ex),
            survivor_count(&sc),
        ],
        combined,
        combined_names,
    }
}

/// Results of the §3.3 logistic-regression analysis.
#[derive(Debug, Clone)]
pub struct RegressionStudy {
    /// Total counters in the report layout.
    pub total_counters: usize,
    /// Counters nonzero in at least one report: the features universal
    /// falsehood leaves (§3.3.3).
    pub effective_features: usize,
    /// Cross-validated regularization strength.
    pub lambda: f64,
    /// Classification accuracy on the held-out test split.
    pub test_accuracy: f64,
    /// Failed-run fraction of the analyzed reports.
    pub failure_rate: f64,
    /// The effective features' predicate names ranked by |β|, largest
    /// first (ties by counter index), with their β.
    pub ranked: Vec<(String, f64)>,
    /// Counter index per ranked entry (parallel to `ranked`).
    pub ranked_counters: Vec<usize>,
}

impl RegressionStudy {
    /// The top `n` ranked predicates.
    pub fn top(&self, n: usize) -> &[(String, f64)] {
        &self.ranked[..n.min(self.ranked.len())]
    }

    /// 0-based rank of the first predicate whose name contains `needle`.
    pub fn rank_of(&self, needle: &str) -> Option<usize> {
        self.ranked
            .iter()
            .position(|(name, _)| name.contains(needle))
    }
}

/// Configuration for [`regress`].
#[derive(Debug, Clone)]
pub struct RegressionConfig {
    /// Training split size.
    pub train: usize,
    /// Cross-validation split size (test takes the remainder).
    pub cv: usize,
    /// Candidate λ values for cross-validation.
    pub lambdas: Vec<f64>,
    /// Base training hyper-parameters (λ is overridden by the sweep).
    /// The default is the paper's regime: sixty shuffled passes.
    pub train_config: TrainConfig,
    /// Split shuffle seed.
    pub split_seed: u64,
}

impl Default for RegressionConfig {
    fn default() -> Self {
        RegressionConfig {
            train: 0,
            cv: 0,
            lambdas: vec![0.1, 0.3, 1.0],
            train_config: TrainConfig {
                lambda: 0.3,
                learning_rate: 0.01,
                epochs: 60,
                seed: 1729,
            },
            split_seed: 4390,
        }
    }
}

impl RegressionConfig {
    /// Split sizes proportional to the paper's 2729 / 322 / 1339 of 4390.
    pub fn paper_proportions(total: usize) -> Self {
        RegressionConfig {
            train: total * 2729 / 4390,
            cv: total * 322 / 4390,
            ..RegressionConfig::default()
        }
    }
}

/// Trains the §3.3 crash predictor over a campaign's reports and ranks
/// predicates by coefficient magnitude; [`regress_rows`] over the
/// collector's rows.
///
/// # Errors
///
/// As [`regress_rows`].
pub fn regress(
    result: &CampaignResult,
    config: &RegressionConfig,
) -> Result<RegressionStudy, PipelineError> {
    regress_rows(
        &result.instrumented.sites,
        result.collector.reports(),
        config,
    )
}

/// Trains the §3.3 crash predictor over reports instrumented per
/// `sites`, given as rows — a [`Collector`](cbi_reports::Collector)'s
/// reports or a [`SparseArchive`](cbi_reports::SparseArchive)'s rows —
/// and ranks predicates by coefficient magnitude.
///
/// The rows are split into train, cross-validation and test sets by a
/// seeded shuffle; [`choose_lambda`] trains one model per candidate λ
/// with [`cbi_stats::train`] and keeps the best on the cross-validation
/// split; the test split, scaled by that model's final running
/// statistics, gives the accuracy.
///
/// # Errors
///
/// Returns [`PipelineError::NoReports`] if there are no rows,
/// [`PipelineError::SplitExceedsReports`] if the configured split sizes
/// exceed the row count, and [`PipelineError::Crossval`] if `lambdas` or
/// the train or cross-validation split is empty (as
/// [`RegressionConfig::paper_proportions`] makes it below 14 reports).
pub fn regress_rows<R: Row + Copy>(
    sites: &SiteTable,
    rows: impl IntoIterator<Item = R>,
    config: &RegressionConfig,
) -> Result<RegressionStudy, PipelineError> {
    let _span = cbi_telemetry::span("analyze.regress");
    let rows: Vec<R> = rows.into_iter().collect();
    if rows.is_empty() {
        return Err(PipelineError::NoReports);
    }
    if config.train + config.cv > rows.len() {
        return Err(PipelineError::SplitExceedsReports {
            train: config.train,
            cv: config.cv,
            total: rows.len(),
        });
    }

    let counters = sites.total_counters();
    let mut observed = vec![false; counters];
    let mut failures = 0usize;
    for row in &rows {
        failures += usize::from(row.failed());
        for (c, _) in row.nonzero() {
            observed[c] = true;
        }
    }

    let [train, cv, test] = split(&rows, config.train, config.cv, config.split_seed);
    let choice = choose_lambda(counters, &train, &cv, &config.lambdas, &config.train_config)
        .map_err(PipelineError::Crossval)?;
    let model = &choice.model;

    let ranked_counters: Vec<usize> = model
        .ranked_features()
        .into_iter()
        .filter(|&c| observed[c])
        .collect();
    let ranked = ranked_counters
        .iter()
        .map(|&c| (sites.predicate_name(c), model.weights[c]))
        .collect();

    Ok(RegressionStudy {
        total_counters: counters,
        effective_features: observed.iter().filter(|&&o| o).count(),
        lambda: choice.lambda,
        test_accuracy: model.accuracy(test),
        failure_rate: failures as f64 / rows.len() as f64,
        ranked,
        ranked_counters,
    })
}
