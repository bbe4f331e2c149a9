//! Acceptance gate for the fault-injection corpus: a ≥100-entry seeded
//! corpus must evaluate fully deterministically — the score report is
//! byte-identical across repeated runs and across worker counts — and at
//! density 1 the true predicate must survive combined elimination for
//! every deterministic-bug entry.
//!
//! Why density 1 guarantees survival: `__check` increments the predicate
//! counter *before* aborting, so a sampled violation always lands in a
//! failing report with the counter set (universal falsehood holds), and a
//! violated check always aborts, so no successful run ever carries a
//! nonzero violated counter (successful counterexample holds).

use cbi_corpus::{
    evaluate, generate_corpus, render_report, render_summary, EvalConfig, GenerateConfig,
};

#[test]
fn hundred_entry_corpus_evaluates_deterministically_and_truth_survives() {
    let cfg = GenerateConfig {
        size: 100,
        seed: 0xc0de,
        trials: 40,
    };
    let corpus = generate_corpus(&cfg).unwrap();
    assert!(
        corpus.entries.len() >= 100,
        "corpus came up short: {} entries",
        corpus.entries.len()
    );

    // Same seed, same corpus: sources and manifests reproduce exactly.
    let again = generate_corpus(&cfg).unwrap();
    assert_eq!(corpus.entries.len(), again.entries.len());
    for (a, b) in corpus.entries.iter().zip(&again.entries) {
        assert_eq!(a.source, b.source, "source drifted for {}", a.bug.id);
        assert_eq!(a.bug.to_json(), b.bug.to_json());
    }

    let eval = |jobs: usize| {
        evaluate(
            &corpus.entries,
            &EvalConfig {
                densities: vec![1, 100],
                scorers: vec!["ochiai".to_string(), "importance".to_string()],
                jobs,
            },
        )
        .unwrap()
    };
    let first = eval(1);
    let second = eval(1);
    let wide = eval(4);

    // Byte-identical score report across runs and across --jobs.
    assert_eq!(
        render_report(&first),
        render_report(&second),
        "two serial evaluations disagree"
    );
    assert_eq!(
        render_report(&first),
        render_report(&wide),
        "jobs=1 and jobs=4 evaluations disagree"
    );
    assert_eq!(render_summary(&first), render_summary(&wide));

    // Full sweep coverage: one score per entry per density.
    assert_eq!(first.scores.len(), corpus.entries.len() * 2);

    // Density 1: every entry crashes at least once (validation pinned
    // that), and every deterministic bug's true predicate survives.
    for score in first.scores.iter().filter(|s| s.density == 1) {
        assert!(
            score.failures > 0,
            "{} saw no failures at density 1",
            score.id
        );
        if score.deterministic {
            assert!(
                score.survived,
                "true predicate eliminated for {} ({})",
                score.id, score.operator
            );
        }
    }
}
