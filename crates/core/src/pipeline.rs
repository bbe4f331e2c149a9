//! High-level bug-isolation pipelines.
//!
//! These functions glue the whole system together the way the paper's case
//! studies do: run a campaign, then either eliminate predicates (§3.2) or
//! train a regularized crash predictor (§3.3), and report *named*
//! predicates ready for a human to read.

use cbi_instrument::SiteTable;
use cbi_reports::SufficientStats;
use cbi_stats::elimination::{apply, combine, survivor_count, survivors, Strategy};
use cbi_stats::{choose_lambda, CrossvalError, Dataset, LogisticModel, TrainConfig};
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
        &result.site_groups(),
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
    /// Features surviving universal-falsehood preprocessing.
    pub effective_features: usize,
    /// Cross-validated regularization strength.
    pub lambda: f64,
    /// Classification accuracy on the held-out test split.
    pub test_accuracy: f64,
    /// Failed-run fraction of the analyzed reports.
    pub failure_rate: f64,
    /// Predicate names ranked by |β|, largest first, with their β.
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
            train_config: TrainConfig::default(),
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
/// predicates by coefficient magnitude.
///
/// # Errors
///
/// Returns [`PipelineError::NoReports`] if the campaign produced no
/// reports, [`PipelineError::SplitExceedsReports`] if the configured
/// split sizes exceed the report count, and [`PipelineError::Crossval`]
/// if the train or cross-validation split is empty (as
/// [`RegressionConfig::paper_proportions`] makes it below 14 reports) or
/// `lambdas` is.
pub fn regress(
    result: &CampaignResult,
    config: &RegressionConfig,
) -> Result<RegressionStudy, PipelineError> {
    let _span = cbi_telemetry::span("analyze.regress");
    let reports = result.collector.reports();
    if reports.is_empty() {
        return Err(PipelineError::NoReports);
    }
    if config.train + config.cv > reports.len() {
        return Err(PipelineError::SplitExceedsReports {
            train: config.train,
            cv: config.cv,
            total: reports.len(),
        });
    }
    // Scaling fits on the training split, so an empty one must stop here.
    if config.train == 0 || config.cv == 0 {
        return Err(PipelineError::Crossval(CrossvalError::EmptySplit));
    }

    let dataset = Dataset::from_reports(reports);
    let failure_rate = dataset.failure_count() as f64 / dataset.len() as f64;

    let (mut train, mut cv, mut test) = dataset.split(config.train, config.cv, config.split_seed);
    let scaler = train.fit_scale();
    cv.scale_with(&scaler);
    test.scale_with(&scaler);

    let choice = choose_lambda(&train, &cv, &config.lambdas, &config.train_config)
        .map_err(PipelineError::Crossval)?;
    let model: &LogisticModel = &choice.model;
    let test_accuracy = model.accuracy(&test);

    let ranked_features = model.ranked_features();
    let mut ranked = Vec::with_capacity(ranked_features.len());
    let mut ranked_counters = Vec::with_capacity(ranked_features.len());
    for &f in &ranked_features {
        let counter = dataset.feature_counters[f];
        ranked.push((
            result.instrumented.sites.predicate_name(counter),
            model.weights[f],
        ));
        ranked_counters.push(counter);
    }

    Ok(RegressionStudy {
        total_counters: result.instrumented.sites.total_counters(),
        effective_features: dataset.feature_count(),
        lambda: choice.lambda,
        test_accuracy,
        failure_rate,
        ranked,
        ranked_counters,
    })
}
