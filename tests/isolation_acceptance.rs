//! Acceptance gate for the multi-bug iterative isolation engine.
//!
//! Pins the guarantee: on a generated multi-bug corpus at sampling
//! density 1, the §3.3 elimination loop recovers every planted bug into
//! its own cluster with purity 1000‰ for the Ochiai scorer, and the full
//! rendered evaluation is byte-identical at any `--jobs` setting.  The
//! incremental loop also traces exactly what a full re-tabling each
//! iteration does, under every scorer.

use cbi_corpus::{evaluate, generate_multi_corpus, render_report, EvalConfig, MultiGenerateConfig};

fn corpus() -> Vec<cbi_corpus::CorpusEntry> {
    generate_multi_corpus(&MultiGenerateConfig {
        size: 3,
        seed: 0xc0de,
        trials: 64,
        bugs_per_entry: 2,
    })
    .expect("generate multi-bug corpus")
    .entries
}

fn config(jobs: usize) -> EvalConfig {
    EvalConfig {
        densities: vec![1],
        scorers: vec!["ochiai".to_string()],
        jobs,
    }
}

#[test]
fn density_one_isolates_every_planted_bug_with_pure_clusters() {
    let entries = corpus();
    assert!(!entries.is_empty(), "corpus generation produced no entries");
    let report = evaluate(&entries, &config(1)).expect("evaluate");
    assert_eq!(report.scores.len(), entries.len());
    for s in &report.scores {
        let iso = &s.isolation[0];
        assert_eq!(
            iso.purity_mille, 1000,
            "{}: every cluster must contain a single bug's runs",
            s.id
        );
        assert_eq!(iso.unexplained, 0, "{}: every failing run attributed", s.id);
        assert_eq!(
            iso.recovered, s.bugs,
            "{}: every planted bug owns a cluster",
            s.id
        );
        assert_eq!(
            iso.iterations, s.bugs,
            "{}: exactly one elimination iteration per bug",
            s.id
        );
    }
}

#[test]
fn isolation_report_is_byte_identical_at_any_jobs() {
    let entries = corpus();
    let render = |jobs: usize| render_report(&evaluate(&entries, &config(jobs)).expect("evaluate"));
    let solo = render(1);
    assert_eq!(solo, render(2), "jobs 1 vs 2 diverged");
    assert_eq!(solo, render(4), "jobs 1 vs 4 diverged");
}

/// The isolation loop as it was before it learned to update its tables
/// in place: every iteration re-tables every active failing run from
/// scratch and sorts the full ranking.  Written against `FailureIndex`'s
/// public accessors — the failure side from its failing rows alone, the
/// success side from its statistics — and kept as the oracle `isolate`
/// is held to.
mod oracle {
    use cbi_scoring::{
        rank_tables, FailureIndex, IsolationCluster, IsolationRun, IsolationStep, Scorer,
    };
    use cbi_stats::Contingency;

    pub fn tables(
        index: &FailureIndex,
        active: &[bool],
        groups: &[(usize, usize)],
    ) -> Vec<Contingency> {
        let n = index.stats().counter_count();
        let f_active = active.iter().filter(|&&a| a).count() as u64;
        let mut group_of = vec![None; n];
        for (g, &(base, arity)) in groups.iter().enumerate() {
            for slot in group_of.iter_mut().skip(base).take(arity) {
                *slot = Some(g);
            }
        }
        let mut ef = vec![0u64; n];
        let mut site_f = vec![0u64; groups.len()];
        let mut touched: Vec<usize> = Vec::new();
        for (run, act) in index.failures().rows().zip(active) {
            if !act {
                continue;
            }
            touched.clear();
            for (c, _) in run.nonzero() {
                ef[c] += 1;
                if let Some(g) = group_of[c] {
                    if !touched.contains(&g) {
                        touched.push(g);
                        site_f[g] += 1;
                    }
                }
            }
        }
        let stats = index.stats();
        let site_s: Vec<u64> = groups
            .iter()
            .map(|&(base, arity)| {
                (base..(base + arity).min(n))
                    .map(|c| stats.nonzero_successes(c))
                    .sum::<u64>()
                    .min(stats.success_runs())
            })
            .collect();
        (0..n)
            .map(|c| Contingency {
                ef: ef[c],
                ep: stats.nonzero_successes(c),
                f: f_active,
                s: stats.success_runs(),
                obs_f: group_of[c].map_or(ef[c], |g| site_f[g]),
                obs_s: group_of[c].map_or(stats.nonzero_successes(c), |g| site_s[g]),
            })
            .collect()
    }

    pub fn isolate(
        index: &FailureIndex,
        groups: &[(usize, usize)],
        scorer: &dyn Scorer,
    ) -> IsolationRun {
        let mut active = vec![true; index.failures().len()];
        let initial_ranking = rank_tables(scorer, &tables(index, &active, groups));
        let mut steps = Vec::new();
        loop {
            let before = active.iter().filter(|&&a| a).count() as u64;
            if before == 0 {
                break;
            }
            let tables = tables(index, &active, groups);
            let ranking = rank_tables(scorer, &tables);
            let Some(&(counter, score)) = ranking
                .iter()
                .find(|&&(c, score)| score > 0 && tables[c].ef > 0)
            else {
                break;
            };
            let mut trials = Vec::new();
            for (i, run) in index.failures().rows().enumerate() {
                if active[i] && run.nonzero().any(|(c, _)| c == counter) {
                    trials.push(run.run_id);
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
        let unexplained = index
            .failures()
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
}

/// A seeded campaign folded into a `FailureIndex`, with its site groups.
fn indexed_campaign(
    program: &cbi::minic::Program,
    trials: &[Vec<i64>],
    scheme: cbi::instrument::Scheme,
    density: cbi::sampler::SamplingDensity,
) -> (cbi_scoring::FailureIndex, Vec<(usize, usize)>) {
    let mut config = cbi::workloads::CampaignConfig::sampled(scheme, density);
    config.seed = 0x15_0a7e;
    let mut index = cbi_scoring::FailureIndex::new();
    let run =
        cbi::workloads::run_campaign_into(program, trials, &config, &mut index).expect("campaign");
    (index, run.instrumented.sites.groups())
}

#[test]
fn isolate_matches_the_re_tabling_oracle_for_every_scorer() {
    use cbi::instrument::Scheme;
    use cbi::sampler::SamplingDensity;
    use cbi::workloads::{
        bc_program, bc_trials, ccrypt_program, ccrypt_trials, BcTrialConfig, CcryptTrialConfig,
    };

    let bc = (
        "bc/scalar-pairs",
        bc_program(),
        bc_trials(300, 41, &BcTrialConfig::default()),
        Scheme::ScalarPairs,
    );
    let ccrypt = (
        "ccrypt/returns",
        ccrypt_program(),
        ccrypt_trials(600, 43, &CcryptTrialConfig::default()),
        Scheme::Returns,
    );
    let mut iterations = 0;
    for (name, program, trials, scheme) in [bc, ccrypt] {
        for density in [SamplingDensity::one_in(1), SamplingDensity::one_in(100)] {
            let (index, groups) = indexed_campaign(&program, &trials, scheme, density);
            assert!(
                !index.failures().is_empty(),
                "{name}: no failures to isolate"
            );
            let all = vec![true; index.failures().len()];
            assert_eq!(
                index.tables(&groups),
                oracle::tables(&index, &all, &groups),
                "{name} at {density:?}: full-corpus tables"
            );
            for scorer in cbi_scoring::all_scorers() {
                let run = cbi_scoring::isolate(&index, &groups, scorer);
                assert_eq!(
                    run,
                    oracle::isolate(&index, &groups, scorer),
                    "{name} at {density:?} under {}",
                    scorer.name()
                );
                iterations += run.iterations();
            }
        }
    }
    assert!(iterations > 100, "the loops must iterate: {iterations}");
}
