//! Isolation study — the §3.3 multi-bug elimination loop measured
//! against planted ground truth.
//!
//! A seeded fault injector plants 2 or 3 interacting deterministic bugs
//! per program; per entry, sampling density, and statistical scorer the
//! study streams a campaign into a failure index, runs the iterative
//! isolation loop, and scores the emitted bug clusters: run-weighted
//! cluster purity, mean per-bug rank of the true predicates in the
//! pre-isolation ranking, and iterations-to-isolation.  The campaign
//! per entry × density is shared across every scorer — only the ranking
//! arithmetic differs — so the grid cost is campaigns + cheap integer
//! re-ranks.
//!
//! Usage: `isolate_study [size] [seed] [trials]` (defaults 4 / 0xc0de /
//! 96); sweeps bug counts {2, 3} × densities {1, 1/10, 1/100} × every
//! registered scorer.  Writes `BENCH_isolate.json` at the repository
//! root.

use cbi_corpus::{evaluate_multi, generate_multi_corpus, MultiEvalConfig, MultiGenerateConfig};
use cbi_scoring::SCORER_NAMES;
use std::time::Instant;

const DENSITIES: [u64; 3] = [1, 10, 100];
const BUG_COUNTS: [usize; 2] = [2, 3];
const JOBS: usize = 8;

fn main() {
    let mut args = std::env::args().skip(1);
    let size: usize = args
        .next()
        .map(|a| a.parse().expect("size must be a number"))
        .unwrap_or(4);
    let seed: u64 = args
        .next()
        .map(|a| a.parse().expect("seed must be a number"))
        .unwrap_or(0xc0de);
    let trials: usize = args
        .next()
        .map(|a| a.parse().expect("trials must be a number"))
        .unwrap_or(96);

    println!("== multi-bug iterative isolation (planted ground truth) ==");
    println!("{size} entries per bug count, {trials} trials each, seed {seed:#x}, jobs {JOBS}");
    println!();
    println!(
        "{:<6} {:<11} {:>8} {:>7} {:>9} {:>10} {:>8} {:>9}",
        "bugs", "scorer", "density", "purity", "recovered", "mean-rank", "iters", "runs/sec"
    );

    let mut rows = Vec::new();
    for bugs in BUG_COUNTS {
        let start = Instant::now();
        let corpus = generate_multi_corpus(&MultiGenerateConfig {
            size,
            seed,
            trials,
            bugs_per_entry: bugs,
        })
        .expect("generate multi-bug corpus");
        let generation = start.elapsed();
        for note in &corpus.log {
            eprintln!("note: {note}");
        }
        eprintln!(
            "bugs={bugs}: {} entries generated in {:.2}s",
            corpus.entries.len(),
            generation.as_secs_f64()
        );

        let start = Instant::now();
        let report = evaluate_multi(
            &corpus.entries,
            &MultiEvalConfig {
                densities: DENSITIES.to_vec(),
                scorers: SCORER_NAMES.iter().map(|s| s.to_string()).collect(),
                jobs: JOBS,
            },
        )
        .expect("evaluate multi-bug corpus");
        let evaluation = start.elapsed();

        // Campaign runs executed: one attribution replay plus one
        // campaign per density, each over every entry's trial set.
        let runs_per_entry: u64 = report
            .scores
            .iter()
            .filter(|s| s.scorer == SCORER_NAMES[0] && s.density == DENSITIES[0])
            .map(|s| s.failures + s.successes)
            .sum();
        let total_runs = runs_per_entry * (DENSITIES.len() as u64 + 1);
        let runs_per_sec = total_runs as f64 / evaluation.as_secs_f64();

        for scorer in SCORER_NAMES {
            for d in DENSITIES {
                let scores: Vec<_> = report
                    .scores
                    .iter()
                    .filter(|s| s.scorer == *scorer && s.density == d)
                    .collect();
                let entries = scores.len();
                let total_bugs: usize = scores.iter().map(|s| s.bugs).sum();
                let recovered: usize = scores.iter().map(|s| s.recovered()).sum();
                let clustered: u64 = scores
                    .iter()
                    .map(|s| s.failures - s.unexplained as u64)
                    .sum();
                let purity_weighted: u64 = scores
                    .iter()
                    .map(|s| s.purity_mille * (s.failures - s.unexplained as u64))
                    .sum();
                let purity = purity_weighted.checked_div(clustered).unwrap_or(0);
                let rank_sum: usize = scores.iter().map(|s| s.rank_sum()).sum();
                let mean_rank = rank_sum as f64 / total_bugs as f64;
                let iters: usize = scores.iter().map(|s| s.iterations).sum();
                let mean_iters = iters as f64 / entries as f64;
                println!(
                    "{:<6} {:<11} {:>8} {:>7} {:>9} {:>10.2} {:>8.2} {:>9.0}",
                    bugs,
                    scorer,
                    format!("1/{d}"),
                    purity,
                    format!("{recovered}/{total_bugs}"),
                    mean_rank,
                    mean_iters,
                    runs_per_sec
                );
                rows.push(format!(
                    "    {{\"bugs\": {bugs}, \"scorer\": \"{scorer}\", \"density\": \"1/{d}\", \
                     \"entries\": {entries}, \"purity_mille\": {purity}, \
                     \"recovered\": {recovered}, \"planted\": {total_bugs}, \
                     \"mean_rank\": {mean_rank:.3}, \"mean_iterations\": {mean_iters:.3}, \
                     \"runs_per_sec\": {runs_per_sec:.1}}}"
                ));
            }
        }
        println!();
    }

    let json = format!(
        "{{\n  \"benchmark\": \"isolate\",\n  \"entries_per_bug_count\": {size},\n  \
         \"seed\": {seed},\n  \"trials\": {trials},\n  \"jobs\": {JOBS},\n  \
         \"scorers\": [{}],\n  \"grid\": [\n{}\n  ]\n}}\n",
        SCORER_NAMES
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", "),
        rows.join(",\n"),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_isolate.json");
    std::fs::write(out, json).expect("write BENCH_isolate.json");
    println!("wrote {out}");
}
