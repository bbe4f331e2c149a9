//! `cbi experiments` — the paper's evaluation, one table or figure per
//! name.
//!
//! | name               | reproduces                                   |
//! |--------------------|----------------------------------------------|
//! | `table1`           | Table 1: static metrics                      |
//! | `table2`           | Table 2: overhead at sampling densities      |
//! | `selective`        | §3.1.2: single-function instrumentation      |
//! | `effectiveness`    | §3.1.3: runs needed for rare events          |
//! | `ccrypt_study`     | §3.2.3: elimination strategy counts          |
//! | `fig2`             | Figure 2: progressive elimination            |
//! | `ccrypt_overhead`  | §3.2.5: ccrypt sampling overhead             |
//! | `bc_study`         | §3.3.3: regularized logistic regression      |
//! | `fig4`             | Figure 4: bc overhead bars                   |
//! | `ablation`         | design-choice ablations (§2.2/§2.4/§4)       |
//!
//! Every experiment is seeded and renders into a `String`, so its output
//! is the same bytes on every run and in debug and release builds;
//! `tests/golden/experiments/<name>.txt` holds each one.

use crate::args::Args;
use crate::commands::write_stdout;
use cbi::instrument::{
    apply_sampling, code_growth, instrument, single_function_variants, strip_sites, Instrumented,
    Scheme, StaticMetrics, TransformOptions,
};
use cbi::minic::Countdown;
use cbi::prelude::*;
use cbi::sampler::fairness::{chi_square_critical_001, rotate_sites, SiteCounts};
use cbi::sampler::{Geometric, Periodic, UniformInterval};
use cbi::stats::elimination::{apply, survivors};
use cbi::stats::{detection_probability, progressive_elimination, runs_needed, ProgressiveConfig};
use cbi::workloads::{
    all_benchmarks, bc_program, bc_trials, benchmark, ccrypt_program, ccrypt_trials,
    measure_overhead, measure_overhead_instrumented, BcTrialConfig, CcryptTrialConfig,
    OverheadConfig,
};
use cbi::RegressionConfig;
use std::error::Error;
use std::fmt::Write as _;

/// What an experiment returns: its rendering goes into the `String` it
/// is handed.
type Outcome = Result<(), Box<dyn Error>>;

/// One experiment: renders its table or figure into the `String`.
type Experiment = fn(&mut String) -> Outcome;

/// Every experiment, in the order EXPERIMENTS.md presents them.
const EXPERIMENTS: [(&str, Experiment); 10] = [
    ("table1", table1),
    ("table2", table2),
    ("selective", selective),
    ("effectiveness", effectiveness),
    ("ccrypt_study", ccrypt_study),
    ("fig2", fig2),
    ("ccrypt_overhead", ccrypt_overhead),
    ("bc_study", bc_study),
    ("fig4", fig4),
    ("ablation", ablation),
];

/// The sampling densities of Table 2, in column order.
const TABLE2_DENSITIES: [u64; 4] = [100, 1_000, 10_000, 1_000_000];

/// Runs the experiments named after `experiments` (all ten when none is
/// named), printing each as soon as it is rendered.
///
/// # Errors
///
/// Returns a message naming the ten experiments when a name is unknown
/// or a flag is given, and any pipeline error an experiment meets.
pub fn cmd_experiments(args: &Args) -> Result<(), String> {
    let named: Vec<&str> = (1..args.positional_count())
        .filter_map(|i| args.positional(i))
        .collect();
    let selected = select(&named, args.has_flags())?;
    for (i, (name, experiment)) in selected.into_iter().enumerate() {
        if i > 0 {
            write_stdout(format_args!(""), true)?;
        }
        let mut out = String::new();
        experiment(&mut out).map_err(|e| format!("experiment {name}: {e}"))?;
        write_stdout(format_args!("{out}"), false)?;
    }
    Ok(())
}

/// Resolves names to experiments, all of them for an empty list.
fn select(names: &[&str], flags_given: bool) -> Result<Vec<(&'static str, Experiment)>, String> {
    let known = || {
        EXPERIMENTS
            .iter()
            .map(|(name, _)| *name)
            .collect::<Vec<_>>()
            .join(", ")
    };
    if flags_given {
        return Err(format!(
            "experiments takes names only, no flags (expected any of {})",
            known()
        ));
    }
    if names.is_empty() {
        return Ok(EXPERIMENTS.to_vec());
    }
    names
        .iter()
        .map(|name| {
            EXPERIMENTS
                .iter()
                .find(|(known, _)| known == name)
                .copied()
                .ok_or_else(|| format!("unknown experiment `{name}` (expected any of {})", known()))
        })
        .collect()
}

/// Table 1 — static metrics for the CCured-style benchmarks.
///
/// For each benchmark: total functions, weightless functions, functions
/// with sites, and (over site-containing functions) average sites,
/// threshold check points, and threshold weight.
fn table1(out: &mut String) -> Outcome {
    writeln!(
        out,
        "== Table 1: static metrics (checks scheme, whole-program) =="
    )?;
    writeln!(
        out,
        "{:<10} {:>6} {:>11} {:>9} {:>8} {:>8} {:>8}",
        "benchmark", "total", "weightless", "has sites", "sites", "checks", "weight"
    )?;
    for b in all_benchmarks() {
        let inst = instrument(&b.program, Scheme::Checks)?;
        let (_, stats) = apply_sampling(&inst.program, &TransformOptions::default())?;
        let m = StaticMetrics::from_stats(b.name, &inst.program, &stats);
        writeln!(
            out,
            "{:<10} {:>6} {:>11} {:>9} {:>8.1} {:>8.1} {:>8.1}",
            m.benchmark,
            m.total_functions,
            m.weightless,
            m.with_sites,
            m.avg_sites,
            m.avg_threshold_checks,
            m.avg_threshold_weight
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "paper shape: weightless < total; avg threshold weight > 2 indicates"
    )?;
    writeln!(
        out,
        "good amortization of countdown checks over multiple sites."
    )?;
    Ok(())
}

/// Table 2 — relative performance of unconditional vs sampled
/// instrumentation.
///
/// Columns: the "always" build (unconditional checks) and sampling at
/// [`TABLE2_DENSITIES`], all as op-count ratios against the
/// instrumentation-free baseline.  Values > 1 are slowdowns, exactly like
/// the paper's table.
fn table2(out: &mut String) -> Outcome {
    let densities = TABLE2_DENSITIES.map(SamplingDensity::one_in);
    writeln!(out, "== Table 2: relative performance (ops vs baseline) ==")?;
    writeln!(
        out,
        "{:<10} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "benchmark", "always", "1/100", "1/1000", "1/10^4", "1/10^6"
    )?;
    let mut sampled_beats_always = 0;
    let mut rows = 0;
    for b in all_benchmarks() {
        let m = measure_overhead(
            b.name,
            &b.program,
            &[],
            &densities,
            &OverheadConfig::default(),
        )?;
        writeln!(
            out,
            "{:<10} {:>7.2} {:>7.2} {:>7.2} {:>7.2} {:>7.2}",
            m.name, m.unconditional, m.sampled[0].1, m.sampled[1].1, m.sampled[2].1, m.sampled[3].1
        )?;
        rows += 1;
        if m.sampled[0].1 < m.unconditional {
            sampled_beats_always += 1;
        }
    }
    writeln!(out)?;
    writeln!(
        out,
        "benchmarks where 1/100 sampling beats unconditional: {sampled_beats_always}/{rows} \
         (paper: more than two thirds)"
    )?;
    Ok(())
}

/// §3.1.2 — statically selective sampling.
///
/// Builds one executable per site-containing function, each keeping only
/// that function's instrumentation.  The paper reports: full executables
/// grow 13%–149%, single-function variants average 12% (Olden) / 6%
/// (SPEC); at 1/1000 sampling, 94% of variants stay under 5% slowdown and
/// the worst is under 12%.
fn selective(out: &mut String) -> Outcome {
    let density = [SamplingDensity::one_in(1000)];
    let mut variant_growths: Vec<f64> = Vec::new();
    let mut variant_overheads: Vec<f64> = Vec::new();
    let mut full_growths: Vec<(String, f64)> = Vec::new();

    for b in all_benchmarks() {
        let inst = instrument(&b.program, Scheme::Checks)?;
        let baseline = strip_sites(&inst.program);
        let (full, _) = apply_sampling(&inst.program, &TransformOptions::default())?;
        full_growths.push((b.name.to_string(), code_growth(&baseline, &full)));

        for variant in single_function_variants(&inst) {
            let (transformed, _) = apply_sampling(&variant.program, &TransformOptions::default())?;
            variant_growths.push(code_growth(&baseline, &transformed));

            // Overhead of this variant at 1/1000, sharing the site table.
            let vinst = Instrumented {
                program: variant.program.clone(),
                sites: inst.sites.clone(),
                scheme: inst.scheme,
            };
            let m = measure_overhead_instrumented(
                &format!("{}::{}", b.name, variant.function),
                &vinst,
                &[],
                &density,
                &OverheadConfig::default(),
            )?;
            variant_overheads.push(m.sampled[0].1 - 1.0);
        }
    }

    writeln!(out, "== §3.1.2: statically selective sampling ==")?;
    writeln!(out, "full-program code growth (paper: 13%-149%):")?;
    for (name, g) in &full_growths {
        writeln!(out, "  {name:<10} {:>6.1}%", g * 100.0)?;
    }

    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    writeln!(out)?;
    writeln!(
        out,
        "single-function variants: {} built, mean growth {:.1}% (paper: 12%/6%)",
        variant_growths.len(),
        mean(&variant_growths) * 100.0
    )?;
    let under5 = variant_overheads.iter().filter(|&&o| o < 0.05).count();
    let worst = variant_overheads.iter().cloned().fold(0.0f64, f64::max);
    writeln!(
        out,
        "variants under 5% slowdown at 1/1000: {under5}/{} = {:.0}% (paper: 94%)",
        variant_overheads.len(),
        100.0 * under5 as f64 / variant_overheads.len() as f64
    )?;
    writeln!(
        out,
        "worst variant slowdown: {:.1}% (paper: < 12%)",
        worst * 100.0
    )?;
    Ok(())
}

/// §3.1.3 — the effectiveness of sampling: runs needed to observe rare
/// events at given confidence, and the Office-XP-scale deployment
/// arithmetic.
fn effectiveness(out: &mut String) -> Outcome {
    writeln!(out, "== §3.1.3: sampling effectiveness arithmetic ==")?;
    let n90 = runs_needed(0.01, 0.001, 0.90);
    writeln!(
        out,
        "event 1/100 runs, sampling 1/1000, 90% confidence: {n90} runs (paper: 230,258)"
    )?;
    let n99 = runs_needed(0.001, 0.001, 0.99);
    writeln!(
        out,
        "event 1/1000 runs, sampling 1/1000, 99% confidence: {n99} runs (paper: 4,605,168)"
    )?;

    // Sixty million Office XP licenses, two runs per licensee per week.
    let runs_per_minute = 60_000_000.0 * 2.0 / (7.0 * 24.0 * 60.0);
    writeln!(out)?;
    writeln!(
        out,
        "deployment arithmetic at {runs_per_minute:.0} runs/minute:"
    )?;
    writeln!(
        out,
        "  {n90} runs gathered in {:.0} minutes (paper: every nineteen minutes)",
        n90 as f64 / runs_per_minute
    )?;
    writeln!(
        out,
        "  {n99} runs gathered in {:.1} hours (paper: less than seven hours)",
        n99 as f64 / runs_per_minute / 60.0
    )?;

    writeln!(out)?;
    writeln!(
        out,
        "detection probability vs run count (event 1/100, sampling 1/1000):"
    )?;
    for runs in [10_000u64, 50_000, 100_000, 230_258, 500_000, 1_000_000] {
        writeln!(
            out,
            "  {runs:>9} runs -> {:.3}",
            detection_probability(0.01, 0.001, runs)
        )?;
    }
    Ok(())
}

/// §3.2.3 — bug isolation in ccrypt using predicate elimination.
///
/// The paper collects 2990 runs at 1/1000 sampling (88 crashes) and
/// reports how many candidate predicates each elimination strategy leaves:
/// 141 / 132 / 45 / 1571 of 1710 counters, with the combination of
/// (universal falsehood) and (successful counterexample) leaving exactly
/// two — `file_exists() > 0` and `xreadline() == 0`.
///
/// We sample at 1/100, not 1/1000, over 6000 runs (seed 42), keeping the
/// crash rate and the analysis pipeline identical.  The smoking gun is
/// crossed exactly once per failing run: at 1/1 all 318 failing runs
/// observe `xreadline() == 0` once each, and no successful run does.  At
/// 1/1000 that is about 0.3 expected samples in the whole campaign, so
/// most campaigns never observe the predicate true and elimination
/// cannot keep it; at 1/100 it is about 3 (4 in this one), which makes
/// it observable.
fn ccrypt_study(out: &mut String) -> Outcome {
    let program = ccrypt_program();
    let trials = ccrypt_trials(6000, 42, &CcryptTrialConfig::default());
    let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(100));
    let result = run_campaign(&program, &trials, &config)?;

    let total = result.instrumented.sites.total_counters();
    writeln!(out, "== ccrypt predicate elimination (paper §3.2.3) ==")?;
    writeln!(
        out,
        "sites: {} ({} counters); paper: 570 sites (1710 counters)",
        result.instrumented.sites.len(),
        total
    )?;
    writeln!(
        out,
        "runs: {} total, {} crashes ({:.1}%); paper: 2990 runs, 88 crashes (2.9%)",
        result.collector.len(),
        result.collector.failure_count(),
        100.0 * result.collector.failure_count() as f64 / result.collector.len() as f64,
    )?;

    let report = cbi::eliminate(&result);
    let [uf, cov, ex, sc] = report.independent_survivors;
    writeln!(out)?;
    writeln!(out, "strategy                        survivors   (paper)")?;
    writeln!(out, "universal falsehood             {uf:>9}   (141)")?;
    writeln!(out, "lack of failing coverage        {cov:>9}   (132)")?;
    writeln!(out, "lack of failing example         {ex:>9}   (45)")?;
    writeln!(out, "successful counterexample       {sc:>9}   (1571)")?;
    writeln!(out)?;
    writeln!(
        out,
        "combined (falsehood ∧ counterexample): {} predicates (paper: 2)",
        report.combined.len()
    )?;
    for name in &report.combined_names {
        writeln!(out, "  {name}")?;
    }

    let hit_xreadline = report
        .combined_names
        .iter()
        .any(|n| n.contains("xreadline() == 0"));
    let hit_exists = report
        .combined_names
        .iter()
        .any(|n| n.contains("file_exists() > 0"));
    writeln!(out)?;
    writeln!(
        out,
        "smoking gun `xreadline() == 0` isolated: {hit_xreadline}"
    )?;
    writeln!(out, "correlated `file_exists() > 0` isolated: {hit_exists}")?;
    Ok(())
}

/// Figure 2 — progressive elimination by (successful counterexample) as
/// successful runs accumulate.
///
/// Prints the mean and standard deviation of the surviving candidate
/// count for randomized subsets of successful runs in steps of fifty,
/// repeated one hundred times, exactly as in §3.2.4, over 3000 ccrypt
/// runs (seed 42).
fn fig2(out: &mut String) -> Outcome {
    let program = ccrypt_program();
    let trials = ccrypt_trials(3000, 42, &CcryptTrialConfig::default());
    let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(100));
    let result = run_campaign(&program, &trials, &config)?;

    // Candidates: counters ever observed true on any run (§3.2.4 starts
    // from the 141 universal-falsehood survivors).
    let stats = result.collector.stats();
    let groups = result.instrumented.sites.groups();
    let uf = apply(stats, Strategy::UniversalFalsehood, &groups);
    let candidates = survivors(&uf);

    writeln!(
        out,
        "== Figure 2: progressive elimination by successful counterexample =="
    )?;
    writeln!(
        out,
        "{} successful runs, {} starting candidates (paper: 2902 runs, 141 candidates)",
        result.collector.success_count(),
        candidates.len()
    )?;
    writeln!(out)?;
    writeln!(out, "{:>6}  {:>8}  {:>8}", "runs", "mean", "stddev")?;
    let points = progressive_elimination(
        result.collector.reports(),
        &candidates,
        &ProgressiveConfig::default(),
    );
    for p in &points {
        writeln!(out, "{:>6}  {:>8.2}  {:>8.2}", p.runs, p.mean, p.std_dev)?;
    }

    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return Err("progressive elimination produced no points".into());
    };
    writeln!(out)?;
    writeln!(
        out,
        "candidate set shrank from {:.1} (at {} runs) to {:.1} (at {} runs)",
        first.mean, first.runs, last.mean, last.runs
    )?;
    Ok(())
}

/// §3.2.5 — performance impact of the returns-scheme instrumentation on
/// ccrypt.
///
/// The paper: most call sites terminate acyclic regions and ccrypt is
/// compiled one object at a time, so the transformation devolves toward a
/// per-site countdown check — yet 1/1000 sampling still costs under 4%.
/// We measure the same three conditions: unconditional, sampled with the
/// interprocedural analysis, and sampled under separate compilation
/// (`interprocedural = false`).
fn ccrypt_overhead(out: &mut String) -> Outcome {
    let program = ccrypt_program();
    // A busy non-crashing input: 5 files, all existing, all confirmed.
    let input = [
        99, 0, 5, 1, 400, 1, 1, 300, 1, 1, 200, 1, 1, 500, 1, 1, 100, 1,
    ];
    let densities = [100, 1_000, 10_000].map(SamplingDensity::one_in);

    writeln!(
        out,
        "== §3.2.5: ccrypt instrumentation overhead (returns scheme) =="
    )?;
    for (label, transform) in [
        ("whole-program", TransformOptions::default()),
        (
            "separate-compilation",
            TransformOptions {
                interprocedural: false,
                ..TransformOptions::default()
            },
        ),
        (
            "devolved(global cd)",
            TransformOptions {
                interprocedural: false,
                regions: false,
                countdown: Countdown::Global,
                coalesce: false,
            },
        ),
    ] {
        let config = OverheadConfig {
            scheme: Scheme::Returns,
            transform,
        };
        let m = measure_overhead("ccrypt", &program, &input, &densities, &config)?;
        writeln!(out)?;
        writeln!(out, "[{label}]")?;
        writeln!(out, "  always: {:.3}", m.unconditional)?;
        for (density, ratio) in &m.sampled {
            writeln!(out, "  {density}: {ratio:.3}")?;
        }
    }
    writeln!(out)?;
    writeln!(
        out,
        "paper: 1/1000 sampling overhead below 4% even devolved."
    )?;
    Ok(())
}

/// §3.3.3 — statistical debugging of bc with ℓ₁ logistic regression.
///
/// The paper collects 4390 runs at 1/1000 sampling (crash rate ≈ ¼) over
/// 30,150 scalar-pair counters, trains an ℓ₁-regularized logistic model
/// (λ = 0.3 by cross-validation), and finds the top-ranked coefficients
/// all point at large `indx` on the buggy zeroing loop of `more_arrays()`
/// — while the literal smoking gun `indx > a_count` ranks only 240th.
///
/// Our bc analogue is smaller, so we sample at 1/100 over 4390 runs
/// (seed 106).
fn bc_study(out: &mut String) -> Outcome {
    let runs = 4390;
    let program = bc_program();
    let trials = bc_trials(runs, 106, &BcTrialConfig::default());
    let config = CampaignConfig::sampled(Scheme::ScalarPairs, SamplingDensity::one_in(100));
    let result = run_campaign(&program, &trials, &config)?;

    writeln!(out, "== bc statistical debugging (paper §3.3.3) ==")?;
    writeln!(
        out,
        "scalar-pair sites: {} ({} counters); paper: 10,050 sites (30,150 counters)",
        result.instrumented.sites.len(),
        result.instrumented.sites.total_counters()
    )?;
    writeln!(
        out,
        "runs: {} total, {} crashes ({:.1}%); paper: 4390 runs, ~25% crashes",
        result.collector.len(),
        result.collector.failure_count(),
        100.0 * result.collector.failure_count() as f64 / result.collector.len() as f64,
    )?;

    let study = cbi::regress(&result, &RegressionConfig::paper_proportions(runs))?;
    writeln!(
        out,
        "effective features after universal-falsehood filtering: {} of {} (paper: 2908 of 30,150)",
        study.effective_features, study.total_counters
    )?;
    writeln!(
        out,
        "cross-validated lambda: {} (paper: 0.3); test accuracy: {:.3}",
        study.lambda, study.test_accuracy
    )?;

    writeln!(out)?;
    writeln!(
        out,
        "top predicates by |beta| (paper: five `indx > …` at storage.c:176):"
    )?;
    for (i, (name, beta)) in study.top(8).iter().enumerate() {
        writeln!(out, "  {:>2}. beta={beta:+.4}  {name}", i + 1)?;
    }

    writeln!(out)?;
    match study.rank_of("indx > a_count") {
        Some(rank) => writeln!(
            out,
            "literal smoking gun `indx > a_count` ranked #{} of {} (paper: #240)",
            rank + 1,
            study.ranked.len()
        )?,
        None => writeln!(out, "`indx > a_count` not among surviving features")?,
    }
    let top_is_buggy_line = study
        .top(5)
        .iter()
        .all(|(name, _)| name.contains("more_arrays") && name.contains("indx"));
    writeln!(
        out,
        "all top-5 predicates point at `indx` in more_arrays(): {top_is_buggy_line}"
    )?;
    Ok(())
}

/// Figure 4 — relative performance of bc with unconditional or sampled
/// instrumentation.
///
/// The paper's bars: 1.13 unconditional, ≈1.06 at 1/100, ≈1.005 at
/// 1/1000, and ≈1.00 below that.  We print the same series as op-count
/// ratios for the bc analogue under the scalar-pairs scheme.
fn fig4(out: &mut String) -> Outcome {
    let program = bc_program();
    // A busy, non-crashing session: configuration, a few variable and
    // array definitions (too few to trigger the overrun), and a batch of
    // expression evaluations that exercise the digit arithmetic.
    let mut input: Vec<i64> = vec![3, 11, 0, 1];
    input.extend(std::iter::repeat_n(1, 8));
    input.extend(std::iter::repeat_n(2, 8));
    for seed in 0..20 {
        input.push(3);
        input.push(1000 + 37 * seed);
    }
    input.push(0);

    let densities = [100, 1_000, 10_000, 100_000].map(SamplingDensity::one_in);
    let config = OverheadConfig {
        scheme: Scheme::ScalarPairs,
        ..OverheadConfig::default()
    };
    let m = measure_overhead("bc", &program, &input, &densities, &config)?;

    writeln!(
        out,
        "== Figure 4: bc relative performance (scalar-pairs scheme) =="
    )?;
    writeln!(out, "{:<12} {:>8}  (paper)", "build", "ratio")?;
    writeln!(out, "{:<12} {:>8.3}  (1.13)", "always", m.unconditional)?;
    let paper = ["(~1.06)", "(~1.005)", "(~1.00)", "(~1.00)"];
    for ((density, ratio), p) in m.sampled.iter().zip(paper) {
        writeln!(out, "{:<12} {:>8.3}  {p}", density.to_string(), ratio)?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "shape check: always > 1/100 > 1/1000 >= floor: {}",
        m.unconditional > m.sampled[0].1
            && m.sampled[0].1 > m.sampled[1].1
            && m.sampled[1].1 + 1e-9 >= m.sampled[3].1
    )?;
    Ok(())
}

/// Ablations of the design choices called out in DESIGN.md:
///
/// 1. geometric countdowns vs periodic / uniform-interval triggers
///    (§2.1, §4) — statistical fairness over rotating sites;
/// 2. acyclic-region threshold checks vs the devolved per-site pattern
///    (§2.2, §3.2.5) — sampled overhead;
/// 3. local countdown + coalescing vs global countdown (§2.4);
/// 4. interprocedural weightless analysis vs separate compilation (§2.3).
fn ablation(out: &mut String) -> Outcome {
    writeln!(
        out,
        "== ablation 1: sampling trigger fairness (4 rotating sites) =="
    )?;
    writeln!(
        out,
        "{:<22} {:>10} {:>12} {:>8}",
        "trigger", "chi-square", "max/min", "fair?"
    )?;
    let crit = chi_square_critical_001(3);
    let mut geo = Geometric::new(SamplingDensity::one_in(10), 7);
    let mut per = Periodic::new(10);
    let mut uni = UniformInterval::new(8, 12, 7);
    let rows: [(&str, SiteCounts); 3] = [
        ("geometric (ours)", rotate_sites(&mut geo, 4, 200_000)),
        ("periodic (A&R)", rotate_sites(&mut per, 4, 200_000)),
        ("uniform 8..12 (DCPI)", rotate_sites(&mut uni, 4, 200_000)),
    ];
    for (name, counts) in rows {
        let chi = counts.chi_square();
        writeln!(
            out,
            "{:<22} {:>10.1} {:>12.2} {:>8}",
            name,
            chi,
            counts.max_min_ratio(),
            if chi < crit { "yes" } else { "NO" }
        )?;
    }
    writeln!(out, "(critical value at significance 0.001: {crit:.1})")?;
    writeln!(out)?;

    writeln!(
        out,
        "== ablation 2-4: transformation variants on `em3d` (1/1000) =="
    )?;
    let b = benchmark("em3d").ok_or("benchmark em3d is missing")?;
    let density = [SamplingDensity::one_in(1000)];
    let variants = [
        ("full (default)", TransformOptions::default()),
        (
            "no coalescing",
            TransformOptions {
                coalesce: false,
                ..TransformOptions::default()
            },
        ),
        (
            "global countdown",
            TransformOptions {
                countdown: Countdown::Global,
                ..TransformOptions::default()
            },
        ),
        (
            "devolved (no regions)",
            TransformOptions {
                regions: false,
                ..TransformOptions::default()
            },
        ),
        (
            "separate compilation",
            TransformOptions {
                interprocedural: false,
                ..TransformOptions::default()
            },
        ),
    ];
    writeln!(out, "{:<24} {:>10} {:>10}", "variant", "always", "1/1000")?;
    for (name, transform) in variants {
        let config = OverheadConfig {
            scheme: Scheme::Checks,
            transform,
        };
        let m = measure_overhead(b.name, &b.program, &[], &density, &config)?;
        writeln!(
            out,
            "{:<24} {:>10.3} {:>10.3}",
            name, m.unconditional, m.sampled[0].1
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "expected ordering: default <= each ablated variant at 1/1000."
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders one experiment by name.
    fn render(name: &str) -> String {
        let (_, experiment) = select(&[name], false).unwrap()[0];
        let mut out = String::new();
        experiment(&mut out).unwrap();
        out
    }

    /// The five experiments quick enough for a debug-build test; the
    /// other five are diffed against their goldens by
    /// `scripts/experiments_smoke.sh`.
    #[test]
    fn quick_experiments_match_their_goldens() {
        let goldens = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/experiments"
        );
        for name in [
            "table1",
            "effectiveness",
            "fig4",
            "ccrypt_overhead",
            "ablation",
        ] {
            let golden = std::fs::read_to_string(format!("{goldens}/{name}.txt")).unwrap();
            assert_eq!(render(name), golden, "{name} drifted from its golden");
        }
    }

    #[test]
    fn unknown_names_and_flags_are_rejected_with_the_ten_names() {
        for err in [
            select(&["table3"], false).unwrap_err(),
            select(&["ccrypt_study", "6000"], false).unwrap_err(),
            select(&[], true).unwrap_err(),
        ] {
            for (name, _) in EXPERIMENTS {
                assert!(err.contains(name), "`{err}` does not name {name}");
            }
        }
        assert_eq!(select(&[], false).unwrap().len(), 10);
        let picked: Vec<&str> = select(&["fig4", "table1"], false)
            .unwrap()
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        assert_eq!(picked, ["fig4", "table1"]);
    }
}
