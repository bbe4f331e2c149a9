//! The isolation-quality evaluation harness.
//!
//! For each corpus entry and sampling density, the harness runs a
//! campaign, analyses its reports with the paper pipeline's engines, and
//! scores the analysis against the manifest's ground truth:
//!
//! * **survival** — does the true predicate survive the combined §3.2
//!   elimination (universal falsehood ∧ successful counterexample)?
//! * **rank** — the true counter's 0-based position in the streaming
//!   regression ordering (the paper's §3.3 model trained in one pass over
//!   the reports in campaign order, [`cbi_stats::train`]);
//! * **recall@k** — whether the truth lands in the top k;
//! * **wasted effort** — rank normalized by the counter count, an
//!   EXAM-style "fraction of predicates a developer would inspect before
//!   reaching the bug".
//!
//! Everything is replayed from the manifest: trials regenerate from the
//! recorded seed, the instrumentation layout is re-derived from the
//! stored source and cross-checked against the recorded layout hash, and
//! the campaign engine's ordered merge makes the report stream — and
//! therefore every score — identical at any `jobs` setting.

use crate::generate::{trials_for, CorpusEntry};
use crate::CorpusError;
use cbi_instrument::{instrument, Scheme};
use cbi_minic::parse;
use cbi_sampler::SamplingDensity;
use cbi_scoring::{rank_tables, scorer_by_name};
use cbi_stats::{contingency_tables, train, LogisticModel, TrainConfig};
use cbi_workloads::{run_campaign, CampaignConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Evaluation knobs.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// Sampling densities to sweep, as `1/d` denominators (`1` = sample
    /// every crossing).
    pub densities: Vec<u64>,
    /// Campaign worker threads (scores are identical at any value).
    pub jobs: usize,
    /// Rank with a `cbi-scoring` measure (by registry name) instead of
    /// the streaming regression model.  Scorer rankings are pure
    /// integer, so rank and wasted-effort are bit-stable by
    /// construction.
    pub scorer: Option<String>,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            densities: vec![1, 10, 100, 1000],
            jobs: 1,
            scorer: None,
        }
    }
}

/// Counters with their weights in the model's rank order: magnitude
/// descending, ties broken by counter (site) index ascending, so the
/// reported rank and wasted-effort numbers cannot permute between
/// equal-weighted predicates.
fn model_ranking(model: &LogisticModel) -> Vec<(usize, f64)> {
    model
        .ranked_features()
        .into_iter()
        .map(|c| (c, model.weights[c]))
        .collect()
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
    /// Reports analyzed.
    pub runs: usize,
    /// Failing runs among them.
    pub failures: usize,
    /// Trials dropped for exhausting the op budget.
    pub dropped: usize,
    /// Did the true predicate survive combined elimination?
    pub survived: bool,
    /// Total combined-elimination survivors.
    pub survivors: usize,
    /// 0-based rank of the true counter in the regression ordering.
    pub rank: usize,
    /// Counters in the layout (denominator for wasted effort).
    pub counters: usize,
    /// Regression weight of the true counter.
    pub weight: f64,
}

/// All scores from an evaluation sweep.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Entries evaluated.
    pub entries: usize,
    /// The density sweep, in evaluation order.
    pub densities: Vec<u64>,
    /// One score per entry × density, in manifest-then-density order.
    pub scores: Vec<EntryScore>,
}

/// Runs the evaluation sweep over `entries`.  Multi-fault entries are
/// scored against their primary fault here; cluster-level metrics live
/// in [`crate::eval_multi`].
pub fn evaluate(entries: &[CorpusEntry], cfg: &EvalConfig) -> Result<EvalReport, CorpusError> {
    let scorer = match &cfg.scorer {
        Some(name) => Some(scorer_by_name(name).ok_or_else(|| CorpusError::Config {
            message: format!("unknown scorer {name:?}"),
        })?),
        None => None,
    };
    let mut scores = Vec::with_capacity(entries.len() * cfg.densities.len());
    for entry in entries {
        let bug = &entry.bug;
        let program = parse(&entry.source).map_err(|e| CorpusError::Parse {
            id: bug.id.clone(),
            message: e.to_string(),
        })?;
        // Guard the ground truth: the layout derived from the stored
        // source must still be the layout the manifest recorded,
        // otherwise `true_counter` points at an arbitrary predicate.
        let instrumented =
            instrument(&program, Scheme::Checks).map_err(|e| CorpusError::Instrument {
                id: bug.id.clone(),
                message: e.to_string(),
            })?;
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
        let truth = bug.primary();
        let trials = trials_for(bug);
        for &density in &cfg.densities {
            let config = CampaignConfig::sampled(Scheme::Checks, SamplingDensity::one_in(density))
                .with_jobs(cfg.jobs.max(1));
            let run =
                run_campaign(&program, &trials, &config).map_err(|e| CorpusError::Campaign {
                    id: bug.id.clone(),
                    message: e.to_string(),
                })?;
            let elim = cbi::eliminate(&run);
            let ranking: Vec<(usize, f64)> = match scorer {
                // Scorer rankings arrive already ordered (score
                // descending, counter ascending) in pure integers;
                // re-sorting by magnitude would misplace negative
                // Increase scores.
                Some(s) => {
                    let groups = run.instrumented.sites.groups();
                    rank_tables(s, &contingency_tables(run.collector.stats(), &groups))
                        .into_iter()
                        .map(|(c, score)| (c, score as f64 / 1000.0))
                        .collect()
                }
                None => model_ranking(&train(
                    run.instrumented.sites.total_counters(),
                    run.collector.reports(),
                    &TrainConfig::default(),
                )),
            };
            let rank = ranking
                .iter()
                .position(|&(c, _)| c == truth.true_counter)
                .expect("ranking is total over the counter layout");
            let weight = ranking[rank].1;
            scores.push(EntryScore {
                id: bug.id.clone(),
                operator: bug.operator_label(),
                deterministic: bug.deterministic(),
                density,
                runs: elim.runs,
                failures: elim.failures,
                dropped: run.dropped,
                survived: elim.combined.contains(&truth.true_counter),
                survivors: elim.combined.len(),
                rank,
                counters: bug.counters,
                weight,
            });
        }
    }
    Ok(EvalReport {
        entries: entries.len(),
        densities: cfg.densities.clone(),
        scores,
    })
}

/// Aggregate over one (operator, density) cell.
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
    fn new() -> Self {
        Cell {
            entries: 0,
            survived: 0,
            failures: 0,
            dropped: 0,
            rank_sum: 0,
            wasted_sum: 0.0,
            hit1: 0,
            hit5: 0,
            hit10: 0,
        }
    }

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
        cells
            .entry((op_idx, s.density))
            .or_insert_with(Cell::new)
            .add(s);
    }
    (operators, cells)
}

/// Renders the full score report: one row per entry × density, then the
/// operator × density aggregate table, closed by one `all` row per
/// density.  Byte-identical across runs and `jobs` settings.
pub fn render_report(report: &EvalReport) -> String {
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
        "{:<9} {:<22} {:>3} {:>8} {:>5} {:>5} {:>5} {:>9} {:>9} {:>6} {:>9}",
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
            "{:<9} {:<22} {:>3} {:>8} {:>5} {:>5} {:>5} {:>9} {:>9} {:>6} {:>9.3}",
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
        "{:<22} {:>8} {:>7} {:>8} {:>9} {:>6} {:>6} {:>6} {:>7}",
        "operator", "density", "entries", "survival", "mean-rank", "r@1", "r@5", "r@10", "wasted"
    );
    let (operators, cells) = aggregate(report);
    for (op_idx, operator) in operators.iter().enumerate() {
        for &density in &report.densities {
            if let Some(c) = cells.get(&(op_idx, density)) {
                write_aggregate_row(&mut out, operator, density, c);
            }
        }
    }
    // One row per density over every operator.
    for &density in &report.densities {
        let mut all = Cell::new();
        for s in report.scores.iter().filter(|s| s.density == density) {
            all.add(s);
        }
        write_aggregate_row(&mut out, "all", density, &all);
    }
    out
}

/// One row of `render_report`'s aggregate block.
fn write_aggregate_row(out: &mut String, operator: &str, density: u64, c: &Cell) {
    let n = c.entries.max(1) as f64;
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>7} {:>8.3} {:>9.2} {:>6.3} {:>6.3} {:>6.3} {:>7.3}",
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
/// survival and failure counts come from the pure-counting elimination
/// path, with no floating-point formatting to drift.
pub fn render_summary(report: &EvalReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "corpus summary: {} entries x densities {:?}",
        report.entries, report.densities
    );
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>7} {:>8} {:>8} {:>7}",
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
                "{:<22} {:>8} {:>7} {:>8} {:>8} {:>7}",
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_corpus, GenerateConfig};

    fn small_corpus() -> Vec<CorpusEntry> {
        generate_corpus(&GenerateConfig {
            size: 4,
            seed: 5,
            trials: 24,
        })
        .unwrap()
        .entries
    }

    #[test]
    fn density_one_truth_survives_and_output_is_stable() {
        let entries = small_corpus();
        let cfg = EvalConfig {
            densities: vec![1, 100],
            jobs: 1,
            ..EvalConfig::default()
        };
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
        let par = evaluate(
            &entries,
            &EvalConfig {
                densities: vec![1, 100],
                jobs: 3,
                ..EvalConfig::default()
            },
        )
        .unwrap();
        assert_eq!(render_report(&a), render_report(&par));
        assert_eq!(render_summary(&a), render_summary(&par));
    }

    #[test]
    fn ties_break_by_site_index() {
        // Three predicates tie in magnitude (negatively); the
        // deterministic order is strictly by counter index among them,
        // after the larger-magnitude one.
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
        let order: Vec<usize> = model_ranking(&model).iter().map(|&(c, _)| c).collect();
        let top = if w[2] > -w[0] {
            [2, 0, 1, 3]
        } else {
            [0, 1, 3, 2]
        };
        assert_eq!(order, top);
    }

    #[test]
    fn scorer_rankings_are_identical_at_any_jobs() {
        let entries = small_corpus();
        for scorer in ["ochiai", "tarantula"] {
            let reports: Vec<String> = [1, 2, 4]
                .into_iter()
                .map(|jobs| {
                    let report = evaluate(
                        &entries,
                        &EvalConfig {
                            densities: vec![1],
                            jobs,
                            scorer: Some(scorer.to_string()),
                        },
                    )
                    .unwrap();
                    render_report(&report)
                })
                .collect();
            assert_eq!(reports[0], reports[1], "{scorer}: jobs 1 vs 2");
            assert_eq!(reports[0], reports[2], "{scorer}: jobs 1 vs 4");
        }
    }

    #[test]
    fn unknown_scorer_is_a_config_error() {
        let err = evaluate(
            &[],
            &EvalConfig {
                scorer: Some("regress".to_string()),
                ..EvalConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CorpusError::Config { .. }), "{err}");
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
        let err = evaluate(
            &entries,
            &EvalConfig {
                densities: vec![1],
                jobs: 1,
                ..EvalConfig::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(err, CorpusError::LayoutDrift { .. }),
            "unexpected error: {err}"
        );
    }
}
