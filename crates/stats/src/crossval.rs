//! Cross-validated choice of the regularization strength λ (§3.3.3).
//!
//! "A suitable value for the regularization parameter λ is determined
//! through cross-validation to be 0.3."  We train one model per candidate
//! λ on the training split and keep the one with the best accuracy on the
//! cross-validation split, breaking ties toward stronger regularization
//! (sparser models point at fewer predicates).  The splits are rows of
//! the one compressed form [`train`] reads.

use crate::logistic::{train, LogisticModel, Row, TrainConfig};
use cbi_sampler::Pcg32;
use std::fmt;

/// Typed failure modes for cross-validation on degenerate inputs;
/// `cbi::regress` passes them on as `PipelineError::Crossval`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrossvalError {
    /// The λ candidate list was empty.
    NoCandidates,
    /// The training or validation split held no rows.
    EmptySplit,
}

impl fmt::Display for CrossvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrossvalError::NoCandidates => {
                write!(f, "need at least one lambda candidate")
            }
            CrossvalError::EmptySplit => write!(f, "empty train or cross-validation split"),
        }
    }
}

impl std::error::Error for CrossvalError {}

/// Result of a λ sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LambdaChoice {
    /// The winning λ.
    pub lambda: f64,
    /// The model trained with the winning λ.
    pub model: LogisticModel,
    /// `(λ, cv accuracy)` for every candidate, in input order.
    pub sweep: Vec<(f64, f64)>,
}

/// Splits `rows` into (train, cross-validation, test) with the given
/// row counts after a seeded Fisher–Yates shuffle; the test split takes
/// the remainder.
///
/// # Panics
///
/// Panics if `train + cv` exceeds the number of rows.
pub fn split<R: Copy>(rows: &[R], train: usize, cv: usize, seed: u64) -> [Vec<R>; 3] {
    assert!(
        train + cv <= rows.len(),
        "split sizes exceed the rows ({train} + {cv} > {})",
        rows.len()
    );
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mut rng = Pcg32::new(seed);
    for i in (1..order.len()).rev() {
        let j = rng.below((i + 1) as u64) as usize;
        order.swap(i, j);
    }
    let take = |idx: &[usize]| idx.iter().map(|&i| rows[i]).collect();
    [
        take(&order[..train]),
        take(&order[train..train + cv]),
        take(&order[train + cv..]),
    ]
}

/// Sweeps `candidates`, training models of `features` counters on
/// `train_rows` and scoring them on `cv`.
///
/// # Errors
///
/// Returns [`CrossvalError::NoCandidates`] if `candidates` is empty and
/// [`CrossvalError::EmptySplit`] if either split is empty.
pub fn choose_lambda<R: Row + Copy>(
    features: usize,
    train_rows: &[R],
    cv: &[R],
    candidates: &[f64],
    base: &TrainConfig,
) -> Result<LambdaChoice, CrossvalError> {
    if candidates.is_empty() {
        return Err(CrossvalError::NoCandidates);
    }
    if train_rows.is_empty() || cv.is_empty() {
        return Err(CrossvalError::EmptySplit);
    }

    let mut sweep = Vec::with_capacity(candidates.len());
    let mut best: Option<(f64, f64, LogisticModel)> = None;
    for &lambda in candidates {
        let config = TrainConfig { lambda, ..*base };
        let model = train(features, train_rows.iter().copied(), &config);
        let acc = model.accuracy(cv.iter().copied());
        sweep.push((lambda, acc));
        let better = match &best {
            None => true,
            // Prefer higher accuracy; on (near-)ties prefer larger λ.
            Some((best_lambda, best_acc, _)) => {
                acc > *best_acc + 1e-9 || (acc >= *best_acc - 1e-9 && lambda > *best_lambda)
            }
        };
        if better {
            best = Some((lambda, acc, model));
        }
    }
    let (lambda, _, model) = best.expect("nonempty candidates");
    Ok(LambdaChoice {
        lambda,
        model,
        sweep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_reports::{Label, Report};

    fn synthetic(n: usize, seed: u64) -> Vec<Report> {
        let mut rng = Pcg32::new(seed);
        (0..n)
            .map(|i| {
                let crash = rng.next_f64() < 0.3;
                let counters: Vec<u64> = (0..6)
                    .map(|j| {
                        if j == 1 && crash {
                            8 + rng.below(5)
                        } else {
                            rng.below(3)
                        }
                    })
                    .collect();
                let label = if crash {
                    Label::Failure
                } else {
                    Label::Success
                };
                Report::new(i as u64, label, counters)
            })
            .collect()
    }

    /// Sixty shuffled passes at a small step; λ comes from the sweep.
    fn base() -> TrainConfig {
        TrainConfig {
            learning_rate: 0.01,
            epochs: 60,
            ..TrainConfig::default()
        }
    }

    fn choose(
        train_rows: &[&Report],
        cv: &[&Report],
        candidates: &[f64],
    ) -> Result<LambdaChoice, CrossvalError> {
        choose_lambda(6, train_rows, cv, candidates, &base())
    }

    #[test]
    fn sweep_covers_all_candidates() {
        let data = synthetic(400, 2);
        let rows: Vec<&Report> = data.iter().collect();
        let [train_rows, cv, _] = split(&rows, 300, 50, 1);
        let choice = choose(&train_rows, &cv, &[0.01, 0.1, 0.3, 1.0]).unwrap();
        assert_eq!(choice.sweep.len(), 4);
        assert!(choice.sweep.iter().any(|&(l, _)| l == choice.lambda));
    }

    #[test]
    fn chosen_model_performs_well() {
        let data = synthetic(600, 3);
        let rows: Vec<&Report> = data.iter().collect();
        let [train_rows, cv, test] = split(&rows, 400, 100, 5);
        let choice = choose(&train_rows, &cv, &[0.05, 0.3, 2.0]).unwrap();
        let acc = choice.model.accuracy(test);
        assert!(acc > 0.8, "{acc}");
    }

    #[test]
    fn extreme_lambda_loses() {
        // λ large enough to zero everything cannot beat a moderate λ.
        let data = synthetic(500, 7);
        let rows: Vec<&Report> = data.iter().collect();
        let [train_rows, cv, _] = split(&rows, 350, 100, 3);
        let choice = choose(&train_rows, &cv, &[0.1, 50.0]).unwrap();
        assert_eq!(choice.lambda, 0.1);
    }

    #[test]
    fn ties_prefer_stronger_regularization() {
        // With a single perfectly separable feature, several λ values can
        // reach equal accuracy; the sparser (larger λ) model must win.
        let data = synthetic(500, 9);
        let rows: Vec<&Report> = data.iter().collect();
        let [train_rows, cv, _] = split(&rows, 350, 100, 4);
        let choice = choose(&train_rows, &cv, &[0.01, 0.05]).unwrap();
        let (a01, acc01) = choice.sweep[0];
        let (a05, acc05) = choice.sweep[1];
        assert_eq!((a01, a05), (0.01, 0.05));
        if (acc01 - acc05).abs() < 1e-9 {
            assert_eq!(choice.lambda, 0.05);
        }
    }

    #[test]
    fn choose_lambda_reports_degenerate_inputs() {
        let data = synthetic(100, 1);
        let rows: Vec<&Report> = data.iter().collect();
        let [train_rows, cv, _] = split(&rows, 50, 20, 0);
        assert_eq!(
            choose(&train_rows, &cv, &[]),
            Err(CrossvalError::NoCandidates)
        );
        assert_eq!(choose(&[], &cv, &[0.3]), Err(CrossvalError::EmptySplit));
        assert_eq!(
            choose(&train_rows, &[], &[0.3]),
            Err(CrossvalError::EmptySplit)
        );
    }

    #[test]
    fn split_partitions_rows() {
        let rows: Vec<u32> = (0..10).collect();
        let [train_rows, cv, test] = split(&rows, 5, 3, 42);
        assert_eq!((train_rows.len(), cv.len(), test.len()), (5, 3, 2));
        let mut all = [train_rows, cv, test].concat();
        all.sort_unstable();
        assert_eq!(all, rows);
    }

    #[test]
    fn split_is_deterministic() {
        let rows: Vec<u32> = (0..10).collect();
        assert_eq!(split(&rows, 4, 2, 7), split(&rows, 4, 2, 7));
        assert_ne!(split(&rows, 4, 2, 7), split(&rows, 4, 2, 8));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn oversized_split_panics() {
        let _ = split(&[1, 2, 3, 4], 4, 1, 0);
    }
}
