//! The isolation-quality evaluator.
//!
//! For each corpus entry and sampling density the evaluator runs one
//! campaign, streams it into a [`FailureIndex`] and a [`SparseArchive`]
//! at once, and scores every analysis of that one report stream against
//! the manifest's ground truth.  For the entry's primary fault:
//!
//! * **survival** — does the true predicate survive the combined §3.2
//!   elimination (universal falsehood ∧ successful counterexample)?
//! * **rank** — the true counter's 0-based position in the regression
//!   ordering (the paper's §3.3 model trained in one pass over the
//!   reports in campaign order, [`cbi_stats::train`]);
//! * **recall@k** — whether the truth lands in the top k;
//! * **wasted effort** — rank normalized by the counter count, an
//!   EXAM-style "fraction of predicates a developer would inspect before
//!   reaching the bug".
//!
//! For every fault, per configured scorer, the §3.3 isolation loop
//! ([`isolate()`]) runs over the index and its clusters are scored:
//!
//! * **cluster purity** — each cluster is matched to the planted fault
//!   owning the plurality of its runs (ties toward the earlier fault);
//!   purity is the matched fraction in per-mille, and the entry purity
//!   is the run-weighted mean over clusters.
//! * **per-bug first rank** — the position of each fault's true
//!   predicate in the pre-isolation ranking, measuring how badly the
//!   bugs shadow each other before elimination starts.
//! * **iterations-to-isolation** — whether the loop ever chose the
//!   fault's own predicate.
//!
//! Ground-truth run attribution comes from the density-1 campaign: with
//! the `checks` scheme at density 1 a violated check aborts the run on
//! the spot, so every failing run observes exactly one planted counter —
//! the fault that killed it.  Sampling does not change what a run
//! computes, so the same trials fail at every density and the
//! attribution carries across the sweep.  That campaign also serves the
//! 1/1 row, so an entry costs one campaign per density in
//! `densities ∪ {1}`.
//!
//! Everything is replayed from the manifest: trials regenerate from the
//! recorded seed, the instrumentation layout is re-derived from the
//! stored source and cross-checked against the recorded layout hash, and
//! the campaign engine's ordered merge makes the report stream — and
//! therefore every score — identical at any `jobs` setting.

use crate::generate::{trials_for, CorpusEntry};
use crate::manifest::PlantedBug;
use crate::CorpusError;
use cbi_instrument::{instrument, Instrumented, Scheme};
use cbi_minic::{parse, Program};
use cbi_reports::SparseArchive;
use cbi_sampler::SamplingDensity;
use cbi_scoring::{isolate, rank_of, scorer_by_name, FailureIndex, IsolationRun, SCORER_NAMES};
use cbi_stats::{train, TrainConfig};
use cbi_workloads::{run_campaign_into, CampaignConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Evaluation knobs.  `cbi corpus evaluate` holds their defaults:
/// densities 1, 10, 100, 1000 and scorers `ochiai`, `importance`.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Sampling densities to sweep, as `1/d` denominators (`1` = sample
    /// every crossing).
    pub densities: Vec<u64>,
    /// Scorer registry names to drive the isolation loop with.
    pub scorers: Vec<String>,
    /// Campaign worker threads (scores are identical at any value).
    pub jobs: usize,
}

/// The isolation loop's outcome under one scorer, scored against every
/// planted fault.  All integers.
#[derive(Debug, Clone)]
pub struct Isolation {
    /// Iterations the loop executed.
    pub iterations: usize,
    /// Failing runs no cluster explained.
    pub unexplained: usize,
    /// Run-weighted mean cluster purity, per-mille (1000 = every
    /// cluster pure).  0 when no cluster formed.
    pub purity_mille: u64,
    /// Faults owning the plurality of some cluster's runs.
    pub recovered: usize,
    /// Faults whose own predicate the loop chose at some iteration.
    pub isolated: usize,
    /// Sum of the faults' 0-based ranks in the pre-isolation ranking
    /// (integer stand-in for the mean per-bug rank).
    pub rank_sum: usize,
}

/// Scores for one corpus entry at one sampling density.
#[derive(Debug, Clone)]
pub struct EntryScore {
    /// Entry id.
    pub id: String,
    /// Mutation operator name.
    pub operator: String,
    /// Whether the entry is a deterministic bug.
    pub deterministic: bool,
    /// Density denominator (`1/density` sampling).
    pub density: u64,
    /// Planted faults in the entry.
    pub bugs: usize,
    /// Reports analyzed.
    pub runs: usize,
    /// Failing runs among them.
    pub failures: usize,
    /// Trials dropped for exhausting the op budget.
    pub dropped: usize,
    /// Did the primary fault's true predicate survive combined
    /// elimination?
    pub survived: bool,
    /// Total combined-elimination survivors.
    pub survivors: usize,
    /// 0-based rank of the primary true counter in the regression
    /// ordering.
    pub rank: usize,
    /// Counters in the layout (denominator for wasted effort).
    pub counters: usize,
    /// Regression weight of the primary true counter.
    pub weight: f64,
    /// The isolation loop under each scorer, in [`EvalReport::scorers`]
    /// order.
    pub isolation: Vec<Isolation>,
}

/// All scores from an evaluation sweep.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Entries evaluated.
    pub entries: usize,
    /// The density sweep, in evaluation order.
    pub densities: Vec<u64>,
    /// The scorer sweep.
    pub scorers: Vec<String>,
    /// One score per entry × density, in manifest-then-density order.
    pub scores: Vec<EntryScore>,
}

/// One campaign's report stream: the statistics of every run with the
/// failing rows (for elimination and isolation), and every row (for
/// training).
struct Campaign {
    index: FailureIndex,
    rows: SparseArchive,
    dropped: usize,
}

/// Parses `entry`'s source and instruments it with the `checks` scheme
/// its manifest was validated under, refusing a layout or a true
/// predicate that drifted from the manifest: otherwise a recorded
/// `true_counter` would point at an arbitrary predicate.
///
/// # Errors
///
/// Returns [`CorpusError::Entry`] if the source no longer parses or
/// instruments, [`CorpusError::LayoutDrift`] if the layout hash or
/// counter count changed, and [`CorpusError::PredicateDrift`] if a
/// true counter names another predicate.
pub fn instrument_entry(entry: &CorpusEntry) -> Result<(Program, Instrumented), CorpusError> {
    let bug = &entry.bug;
    let failed = |stage, message: String| CorpusError::Entry {
        id: bug.id.clone(),
        stage,
        message,
    };
    let program = parse(&entry.source).map_err(|e| failed("parse", e.to_string()))?;
    let instrumented = instrument(&program, Scheme::Checks)
        .map_err(|e| failed("instrumentation", e.to_string()))?;
    let sites = &instrumented.sites;
    if sites.layout_hash() != bug.layout_hash || sites.total_counters() != bug.counters {
        return Err(CorpusError::LayoutDrift {
            id: bug.id.clone(),
            expected: bug.layout_hash,
            got: sites.layout_hash(),
        });
    }
    for fault in &bug.faults {
        let named = sites.predicate_name(fault.true_counter);
        if named != fault.true_predicate {
            return Err(CorpusError::PredicateDrift {
                id: bug.id.clone(),
                expected: fault.true_predicate.clone(),
                got: named,
            });
        }
    }
    Ok((program, instrumented))
}

/// Runs the evaluation sweep over `entries`.
///
/// # Errors
///
/// Returns [`CorpusError::Config`] for an unknown scorer name, and a
/// parse, instrumentation, drift or campaign error for the first entry
/// that cannot be scored.
pub fn evaluate(entries: &[CorpusEntry], cfg: &EvalConfig) -> Result<EvalReport, CorpusError> {
    let scorers = cfg
        .scorers
        .iter()
        .map(|name| {
            scorer_by_name(name).ok_or_else(|| CorpusError::Config {
                message: format!(
                    "unknown scorer {name:?} (expected one of {})",
                    SCORER_NAMES.join(", ")
                ),
            })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut scores = Vec::with_capacity(entries.len() * cfg.densities.len());
    for entry in entries {
        let bug = &entry.bug;
        let (program, instrumented) = instrument_entry(entry)?;
        let sites = &instrumented.sites;
        let groups = sites.groups();
        let trials = trials_for(bug);
        let campaign = |density: u64| -> Result<Campaign, CorpusError> {
            let config = CampaignConfig::sampled(Scheme::Checks, SamplingDensity::one_in(density))
                .with_jobs(cfg.jobs.max(1));
            let mut sink = (FailureIndex::new(), SparseArchive::default());
            let run = run_campaign_into(&program, &trials, &config, &mut sink).map_err(|e| {
                CorpusError::Entry {
                    id: bug.id.clone(),
                    stage: "campaign",
                    message: e.to_string(),
                }
            })?;
            let (index, rows) = sink;
            Ok(Campaign {
                index,
                rows,
                dropped: run.dropped,
            })
        };
        let truth = campaign(1)?;
        let attribution = attribute(bug, &truth.index);
        for &density in &cfg.densities {
            let fresh;
            let run = if density == 1 {
                &truth
            } else {
                fresh = campaign(density)?;
                &fresh
            };
            let elim = cbi::eliminate_stats(run.index.stats(), &groups, sites);
            let model = train(
                sites.total_counters(),
                run.rows.rows(),
                &TrainConfig::default(),
            );
            let primary = bug.primary().true_counter;
            scores.push(EntryScore {
                id: bug.id.clone(),
                operator: bug.operator_label(),
                deterministic: bug.deterministic(),
                density,
                bugs: bug.faults.len(),
                runs: elim.runs,
                failures: elim.failures,
                dropped: run.dropped,
                survived: elim.combined.contains(&primary),
                survivors: elim.combined.len(),
                rank: model
                    .rank_of(primary)
                    .expect("ranking is total over the counter layout"),
                counters: bug.counters,
                weight: model.weights[primary],
                isolation: scorers
                    .iter()
                    .map(|&s| score_isolation(bug, &isolate(&run.index, &groups, s), &attribution))
                    .collect(),
            });
        }
    }
    Ok(EvalReport {
        entries: entries.len(),
        densities: cfg.densities.clone(),
        scorers: cfg.scorers.clone(),
        scores,
    })
}

/// Maps each failing trial of a density-1 campaign to the one fault
/// whose true counter it observed; a run observing none or several is
/// left unattributed.
fn attribute(bug: &PlantedBug, index: &FailureIndex) -> BTreeMap<u64, usize> {
    let mut map = BTreeMap::new();
    for failing in index.failures().rows() {
        let mut owners = bug
            .faults
            .iter()
            .enumerate()
            .filter(|(_, f)| failing.nonzero().any(|(c, _)| c == f.true_counter));
        if let (Some((b, _)), None) = (owners.next(), owners.next()) {
            map.insert(failing.run_id, b);
        }
    }
    map
}

/// Scores one isolation trace against the entry's fault list.
/// `attribution` maps failing trial id → fault index.
fn score_isolation(
    bug: &PlantedBug,
    run: &IsolationRun,
    attribution: &BTreeMap<u64, usize>,
) -> Isolation {
    let n_bugs = bug.faults.len();
    // Match each cluster to the fault owning the plurality of its runs.
    let mut matched_overlap = 0u64;
    let mut total_clustered = 0u64;
    let mut plurality_of: Vec<Option<usize>> = Vec::new();
    for cluster in run.clusters() {
        let mut per_bug = vec![0u64; n_bugs];
        for trial in &cluster.trials {
            if let Some(&b) = attribution.get(trial) {
                per_bug[b] += 1;
            }
        }
        let winner = (0..n_bugs).max_by_key(|&b| (per_bug[b], n_bugs - b));
        let winner = winner.filter(|&b| per_bug[b] > 0);
        if let Some(b) = winner {
            matched_overlap += per_bug[b];
        }
        total_clustered += cluster.trials.len() as u64;
        plurality_of.push(winner);
    }
    Isolation {
        iterations: run.iterations(),
        unexplained: run.unexplained.len(),
        purity_mille: (matched_overlap * 1000)
            .checked_div(total_clustered)
            .unwrap_or(0),
        recovered: (0..n_bugs)
            .filter(|&b| plurality_of.contains(&Some(b)))
            .count(),
        isolated: bug
            .faults
            .iter()
            .filter(|f| run.isolated_at(f.true_counter).is_some())
            .count(),
        rank_sum: bug
            .faults
            .iter()
            .map(|f| {
                rank_of(&run.initial_ranking, f.true_counter)
                    .expect("ranking is total over the layout")
            })
            .sum(),
    }
}

/// Aggregate over one (operator, density) cell.
#[derive(Default)]
struct Cell {
    entries: usize,
    survived: usize,
    failures: usize,
    dropped: usize,
    rank_sum: usize,
    wasted_sum: f64,
    hit1: usize,
    hit5: usize,
    hit10: usize,
}

impl Cell {
    fn add(&mut self, s: &EntryScore) {
        self.entries += 1;
        self.survived += usize::from(s.survived);
        self.failures += s.failures;
        self.dropped += s.dropped;
        self.rank_sum += s.rank;
        self.wasted_sum += s.rank as f64 / s.counters.max(1) as f64;
        self.hit1 += usize::from(s.rank < 1);
        self.hit5 += usize::from(s.rank < 5);
        self.hit10 += usize::from(s.rank < 10);
    }
}

/// Groups scores by (operator, density), preserving first-seen operator
/// order and the sweep's density order.
fn aggregate(report: &EvalReport) -> (Vec<String>, BTreeMap<(usize, u64), Cell>) {
    let mut operators: Vec<String> = Vec::new();
    let mut cells: BTreeMap<(usize, u64), Cell> = BTreeMap::new();
    for s in &report.scores {
        let op_idx = match operators.iter().position(|o| o == &s.operator) {
            Some(i) => i,
            None => {
                operators.push(s.operator.clone());
                operators.len() - 1
            }
        };
        cells.entry((op_idx, s.density)).or_default().add(s);
    }
    (operators, cells)
}

/// Aggregate over one (scorer, density) cell of the isolation block.
#[derive(Default)]
struct IsolationCell {
    entries: usize,
    bugs: usize,
    recovered: usize,
    purity_weighted: u64,
    clustered_runs: u64,
    iterations: usize,
    unexplained: usize,
    rank_sum: usize,
}

/// Groups isolation outcomes by (scorer index, density).
fn aggregate_isolation(report: &EvalReport) -> BTreeMap<(usize, u64), IsolationCell> {
    let mut cells: BTreeMap<(usize, u64), IsolationCell> = BTreeMap::new();
    for s in &report.scores {
        for (k, iso) in s.isolation.iter().enumerate() {
            let cell = cells.entry((k, s.density)).or_default();
            cell.entries += 1;
            cell.bugs += s.bugs;
            cell.recovered += iso.recovered;
            // Re-weight entry purity by its clustered-run count so the
            // cell purity is the run-weighted mean, still in integers.
            let clustered = (s.failures - iso.unexplained) as u64;
            cell.purity_weighted += iso.purity_mille * clustered;
            cell.clustered_runs += clustered;
            cell.iterations += iso.iterations;
            cell.unexplained += iso.unexplained;
            cell.rank_sum += iso.rank_sum;
        }
    }
    cells
}

/// Renders the full score report: the corpus block (one row per entry ×
/// density, then the operator × density aggregate closed by one `all`
/// row per density), then the isolation block (one row per entry ×
/// density × scorer, then [`render_summary`]'s scorer × density
/// aggregate).  Byte-identical across runs and `jobs` settings.
pub fn render_report(report: &EvalReport) -> String {
    let op = operator_width(report);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "corpus evaluation: {} entries x densities {:?} ({} scores)",
        report.entries,
        report.densities,
        report.scores.len()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<9} {:<op$} {:>3} {:>8} {:>5} {:>5} {:>5} {:>9} {:>9} {:>6} {:>9}",
        "id",
        "operator",
        "det",
        "density",
        "runs",
        "fail",
        "drop",
        "survived",
        "survivors",
        "rank",
        "weight"
    );
    for s in &report.scores {
        let _ = writeln!(
            out,
            "{:<9} {:<op$} {:>3} {:>8} {:>5} {:>5} {:>5} {:>9} {:>9} {:>6} {:>9.3}",
            s.id,
            s.operator,
            if s.deterministic { "yes" } else { "no" },
            format!("1/{}", s.density),
            s.runs,
            s.failures,
            s.dropped,
            if s.survived { "yes" } else { "no" },
            s.survivors,
            s.rank,
            s.weight
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "aggregate by operator x density");
    let _ = writeln!(
        out,
        "{:<op$} {:>8} {:>7} {:>8} {:>9} {:>6} {:>6} {:>6} {:>7}",
        "operator", "density", "entries", "survival", "mean-rank", "r@1", "r@5", "r@10", "wasted"
    );
    let (operators, cells) = aggregate(report);
    for (op_idx, operator) in operators.iter().enumerate() {
        for &density in &report.densities {
            if let Some(c) = cells.get(&(op_idx, density)) {
                write_aggregate_row(&mut out, op, operator, density, c);
            }
        }
    }
    // One row per density over every operator.
    for &density in &report.densities {
        let mut all = Cell::default();
        for s in report.scores.iter().filter(|s| s.density == density) {
            all.add(s);
        }
        write_aggregate_row(&mut out, op, "all", density, &all);
    }

    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "multi-bug evaluation: {} entries x densities {:?} x scorers {:?}",
        report.entries, report.densities, report.scorers
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<9} {:<11} {:>8} {:>4} {:>5} {:>5} {:>6} {:>7} {:>7} {:>9} {:>8}",
        "id",
        "scorer",
        "density",
        "bugs",
        "fail",
        "iter",
        "unexpl",
        "purity",
        "recov",
        "ranksum",
        "isolated"
    );
    for s in &report.scores {
        for (scorer, iso) in report.scorers.iter().zip(&s.isolation) {
            let _ = writeln!(
                out,
                "{:<9} {:<11} {:>8} {:>4} {:>5} {:>5} {:>6} {:>7} {:>7} {:>9} {:>8}",
                s.id,
                scorer,
                format!("1/{}", s.density),
                s.bugs,
                s.failures,
                iso.iterations,
                iso.unexplained,
                iso.purity_mille,
                iso.recovered,
                iso.rank_sum,
                iso.isolated
            );
        }
    }
    write_isolation_summary(&mut out, report);
    out
}

/// The width of the corpus blocks' `operator` column: 22, or the
/// longest operator label in the report (a multi-fault entry joins its
/// faults' labels with `+`).
fn operator_width(report: &EvalReport) -> usize {
    let longest = report.scores.iter().map(|s| s.operator.len()).max();
    longest.unwrap_or(0).max(22)
}

/// One row of `render_report`'s aggregate block, its operator column
/// `op` wide.
fn write_aggregate_row(out: &mut String, op: usize, operator: &str, density: u64, c: &Cell) {
    let n = c.entries.max(1) as f64;
    let _ = writeln!(
        out,
        "{:<op$} {:>8} {:>7} {:>8.3} {:>9.2} {:>6.3} {:>6.3} {:>6.3} {:>7.3}",
        operator,
        format!("1/{density}"),
        c.entries,
        c.survived as f64 / n,
        c.rank_sum as f64 / n,
        c.hit1 as f64 / n,
        c.hit5 as f64 / n,
        c.hit10 as f64 / n,
        c.wasted_sum / n
    );
}

/// Renders the integer-only summary used for golden-file comparisons:
/// the operator × density survival and failure counts from the
/// pure-counting elimination path, then the scorer × density isolation
/// aggregate (purity in per-mille, counts, and rank sums), with no
/// floating-point formatting to drift.
pub fn render_summary(report: &EvalReport) -> String {
    let op = operator_width(report);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "corpus summary: {} entries x densities {:?}",
        report.entries, report.densities
    );
    let _ = writeln!(
        out,
        "{:<op$} {:>8} {:>7} {:>8} {:>8} {:>7}",
        "operator", "density", "entries", "survived", "failures", "dropped"
    );
    let (operators, cells) = aggregate(report);
    let mut total_survived = 0usize;
    let mut total_scores = 0usize;
    for (op_idx, operator) in operators.iter().enumerate() {
        for &density in &report.densities {
            let Some(c) = cells.get(&(op_idx, density)) else {
                continue;
            };
            total_survived += c.survived;
            total_scores += c.entries;
            let _ = writeln!(
                out,
                "{:<op$} {:>8} {:>7} {:>8} {:>8} {:>7}",
                operator,
                format!("1/{density}"),
                c.entries,
                c.survived,
                c.failures,
                c.dropped
            );
        }
    }
    let _ = writeln!(out, "survived {total_survived} of {total_scores} scores");
    let _ = writeln!(out);
    write_isolation_summary(&mut out, report);
    out
}

/// The scorer × density isolation aggregate shared by both renderers.
fn write_isolation_summary(out: &mut String, report: &EvalReport) {
    let _ = writeln!(
        out,
        "multi-bug summary: {} entries x densities {:?} x scorers {:?}",
        report.entries, report.densities, report.scorers
    );
    let _ = writeln!(
        out,
        "{:<11} {:>8} {:>7} {:>5} {:>9} {:>7} {:>6} {:>7} {:>8}",
        "scorer", "density", "entries", "bugs", "recovered", "purity", "iters", "unexpl", "ranksum"
    );
    let cells = aggregate_isolation(report);
    for (k, scorer) in report.scorers.iter().enumerate() {
        for &density in &report.densities {
            let Some(c) = cells.get(&(k, density)) else {
                continue;
            };
            let purity = c.purity_weighted.checked_div(c.clustered_runs).unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<11} {:>8} {:>7} {:>5} {:>9} {:>7} {:>6} {:>7} {:>8}",
                scorer,
                format!("1/{density}"),
                c.entries,
                c.bugs,
                c.recovered,
                purity,
                c.iterations,
                c.unexplained,
                c.rank_sum
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_corpus, generate_multi_corpus, GenerateConfig};
    use crate::MultiGenerateConfig;

    fn small_corpus() -> Vec<CorpusEntry> {
        generate_corpus(&GenerateConfig {
            size: 4,
            seed: 5,
            trials: 24,
        })
        .unwrap()
        .entries
    }

    fn small_multi_corpus() -> Vec<CorpusEntry> {
        generate_multi_corpus(&MultiGenerateConfig {
            size: 2,
            seed: 31,
            trials: 48,
            bugs_per_entry: 2,
        })
        .unwrap()
        .entries
    }

    fn config(densities: &[u64], scorers: &[&str], jobs: usize) -> EvalConfig {
        EvalConfig {
            densities: densities.to_vec(),
            scorers: scorers.iter().map(|s| s.to_string()).collect(),
            jobs,
        }
    }

    #[test]
    fn density_one_truth_survives_and_output_is_stable() {
        let entries = small_corpus();
        let cfg = config(&[1, 100], &["ochiai", "importance"], 1);
        let a = evaluate(&entries, &cfg).unwrap();
        for s in a.scores.iter().filter(|s| s.density == 1) {
            assert!(
                s.survived,
                "{}: true predicate must survive at density 1",
                s.id
            );
        }
        let rendered = render_report(&a);
        let all_rows: Vec<Vec<&str>> = rendered
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .filter(|cols| cols.first() == Some(&"all"))
            .collect();
        assert_eq!(all_rows.len(), 2, "one `all` row per density");
        for (cols, density) in all_rows.iter().zip(["1/1", "1/100"]) {
            assert_eq!(cols[1], density);
            assert_eq!(cols[2], entries.len().to_string());
        }
        assert_eq!(all_rows[0][3], "1.000", "every truth survives at 1/1");
        let b = evaluate(&entries, &cfg).unwrap();
        assert_eq!(rendered, render_report(&b));
        let par = evaluate(&entries, &config(&[1, 100], &["ochiai", "importance"], 3)).unwrap();
        assert_eq!(render_report(&a), render_report(&par));
        assert_eq!(render_summary(&a), render_summary(&par));
    }

    #[test]
    fn ties_break_by_site_index() {
        // Three predicates tie in magnitude (negatively); the
        // deterministic order the evaluator ranks by is strictly by
        // counter index among them, after the larger-magnitude one.
        use cbi_reports::{Label, Report};
        let runs = [
            Report::new(0, Label::Success, vec![0, 0, 0, 0]),
            Report::new(1, Label::Failure, vec![0, 0, 1, 0]),
            Report::new(2, Label::Success, vec![1, 1, 0, 1]),
        ];
        let model = train(4, &runs, &TrainConfig::default());
        let w = &model.weights;
        assert!(w[2] > 0.0 && w[0] < 0.0, "{w:?}");
        assert!(w[0] == w[1] && w[1] == w[3], "{w:?}");
        let top = if w[2] > -w[0] {
            [2, 0, 1, 3]
        } else {
            [0, 1, 3, 2]
        };
        assert_eq!(model.ranked_features(), top);
        for (rank, &c) in top.iter().enumerate() {
            assert_eq!(model.rank_of(c), Some(rank));
        }
    }

    #[test]
    fn scorer_rankings_are_identical_at_any_jobs() {
        let entries = small_corpus();
        for scorer in ["ochiai", "tarantula"] {
            let render = |jobs: usize| {
                let report = evaluate(&entries, &config(&[1], &[scorer], jobs)).unwrap();
                render_report(&report)
            };
            let solo = render(1);
            assert_eq!(solo, render(2), "{scorer}: jobs 1 vs 2");
            assert_eq!(solo, render(4), "{scorer}: jobs 1 vs 4");
        }
    }

    #[test]
    fn multi_summary_is_identical_at_any_jobs() {
        // One sweep over single-fault and two-fault entries together:
        // both blocks of both renderings are the same bytes at any job
        // count.
        let mut entries = small_corpus();
        entries.extend(small_multi_corpus());
        assert!(entries.iter().any(|e| e.bug.faults.len() == 1));
        assert!(entries.iter().any(|e| e.bug.faults.len() == 2));
        let render = |jobs: usize| {
            let report =
                evaluate(&entries, &config(&[1, 10], &["ochiai", "tarantula"], jobs)).unwrap();
            assert_eq!(report.scores.len(), entries.len() * 2);
            (render_report(&report), render_summary(&report))
        };
        let solo = render(1);
        assert!(solo.0.contains("multi-bug summary"), "{}", solo.0);
        assert_eq!(solo, render(2), "jobs 1 vs 2");
        assert_eq!(solo, render(4), "jobs 1 vs 4");
    }

    #[test]
    fn density_one_recovers_every_bug_into_a_pure_cluster() {
        let entries = small_multi_corpus();
        let report = evaluate(&entries, &config(&[1], &["ochiai"], 1)).unwrap();
        for s in &report.scores {
            let iso = &s.isolation[0];
            assert_eq!(iso.purity_mille, 1000, "{}: clusters must be pure", s.id);
            assert_eq!(iso.unexplained, 0, "{}: every failure explained", s.id);
            assert_eq!(iso.recovered, s.bugs, "{}: every bug recovered", s.id);
            // The loop may carve a bug's cluster with a perfectly
            // correlated predicate (e.g. an ok-slot check reached by
            // exactly the crashing inputs) rather than the planted
            // violated slot itself, so `isolated` is not asserted —
            // cluster purity is the recovery criterion, per §3.3.
            assert_eq!(iso.iterations, s.bugs, "{}: one iteration per bug", s.id);
        }
    }

    #[test]
    fn the_operator_column_fits_the_longest_label() {
        let report = evaluate(&small_multi_corpus(), &config(&[1], &["ochiai"], 1)).unwrap();
        let longest = report.scores.iter().map(|s| s.operator.len()).max();
        assert!(longest.unwrap() > 22, "a joined multi-fault label");
        for text in [render_report(&report), render_summary(&report)] {
            // In each corpus-block table, the density column ends at the
            // same byte on the header and on every row.
            for table in text.split("\n\n").filter(|t| t.contains("operator")) {
                let lines: Vec<&str> = table.lines().filter(|l| l.contains("1/1")).collect();
                let is_header = |l: &&str| l.contains("density") && !l.contains(" x ");
                let header = table.lines().find(is_header).unwrap();
                let end = header.find("density").unwrap() + "density".len();
                for line in lines {
                    assert_eq!(line.find("1/1").unwrap() + "1/1".len(), end, "{line}");
                }
            }
        }
    }

    #[test]
    fn unknown_scorer_is_a_config_error() {
        let err = evaluate(&[], &config(&[1], &["regress"], 1)).unwrap_err();
        assert!(matches!(err, CorpusError::Config { .. }), "{err}");
        assert!(err.to_string().contains("expected one of ochiai"), "{err}");
    }

    #[test]
    fn unknown_name_in_a_scorer_list_is_a_config_error() {
        for scorers in [&["nope"][..], &["ochiai", "nope"], &["nope", "ochiai"]] {
            let err = evaluate(&[], &config(&[1], scorers, 1)).unwrap_err();
            assert!(matches!(err, CorpusError::Config { .. }), "{err}");
            assert!(err.to_string().contains("nope"), "{err}");
        }
    }

    #[test]
    fn tampered_source_is_rejected() {
        let mut entries = small_corpus();
        // Appending a statement changes the layout: evaluation must
        // refuse rather than score against a stale counter index.
        let tampered = entries[0]
            .source
            .replace("return 0;", "check(1 == 1);\n    return 0;");
        assert_ne!(tampered, entries[0].source);
        entries[0].source = tampered;
        let err = evaluate(&entries, &config(&[1], &["ochiai"], 1)).unwrap_err();
        assert!(
            matches!(err, CorpusError::LayoutDrift { .. }),
            "unexpected error: {err}"
        );
    }
}
