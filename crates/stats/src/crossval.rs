//! Cross-validated choice of the regularization strength λ (§3.3.3).
//!
//! "A suitable value for the regularization parameter λ is determined
//! through cross-validation to be 0.3."  We train one model per candidate
//! λ on the training split and keep the one with the best accuracy on the
//! cross-validation split, breaking ties toward stronger regularization
//! (sparser models point at fewer predicates).

use crate::dataset::Dataset;
use crate::logistic::{LogisticModel, TrainConfig};
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

/// Sweeps `candidates`, training on `train` and scoring on `cv`.
///
/// # Errors
///
/// Returns [`CrossvalError::NoCandidates`] if `candidates` is empty and
/// [`CrossvalError::EmptySplit`] if either split is empty.
pub fn choose_lambda(
    train: &Dataset,
    cv: &Dataset,
    candidates: &[f64],
    base: &TrainConfig,
) -> Result<LambdaChoice, CrossvalError> {
    if candidates.is_empty() {
        return Err(CrossvalError::NoCandidates);
    }
    if train.is_empty() || cv.is_empty() {
        return Err(CrossvalError::EmptySplit);
    }

    let mut sweep = Vec::with_capacity(candidates.len());
    let mut best: Option<(f64, f64, LogisticModel)> = None;
    for &lambda in candidates {
        let config = TrainConfig { lambda, ..*base };
        let model = LogisticModel::train(train, &config);
        let acc = model.accuracy(cv);
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
    use cbi_sampler::Pcg32;

    fn synthetic(n: usize, seed: u64) -> Dataset {
        let mut rng = Pcg32::new(seed);
        let reports: Vec<Report> = (0..n)
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
                Report::new(
                    i as u64,
                    if crash {
                        Label::Failure
                    } else {
                        Label::Success
                    },
                    counters,
                )
            })
            .collect();
        let mut d = Dataset::from_reports(&reports);
        d.fit_scale();
        d
    }

    #[test]
    fn sweep_covers_all_candidates() {
        let data = synthetic(400, 2);
        let (train, cv, _) = data.split(300, 50, 1);
        let choice =
            choose_lambda(&train, &cv, &[0.01, 0.1, 0.3, 1.0], &TrainConfig::default()).unwrap();
        assert_eq!(choice.sweep.len(), 4);
        assert!(choice.sweep.iter().any(|&(l, _)| l == choice.lambda));
    }

    #[test]
    fn chosen_model_performs_well() {
        let data = synthetic(600, 3);
        let (train, cv, test) = data.split(400, 100, 5);
        let choice =
            choose_lambda(&train, &cv, &[0.05, 0.3, 2.0], &TrainConfig::default()).unwrap();
        assert!(choice.model.accuracy(&test) > 0.8);
    }

    #[test]
    fn extreme_lambda_loses() {
        // λ large enough to zero everything cannot beat a moderate λ.
        let data = synthetic(500, 7);
        let (train, cv, _) = data.split(350, 100, 3);
        let choice = choose_lambda(&train, &cv, &[0.1, 50.0], &TrainConfig::default()).unwrap();
        assert_eq!(choice.lambda, 0.1);
    }

    #[test]
    fn ties_prefer_stronger_regularization() {
        // With a single perfectly separable feature, several λ values can
        // reach equal accuracy; the sparser (larger λ) model must win.
        let data = synthetic(500, 9);
        let (train, cv, _) = data.split(350, 100, 4);
        let choice = choose_lambda(&train, &cv, &[0.01, 0.05], &TrainConfig::default()).unwrap();
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
        let (train, cv, _) = data.split(50, 20, 0);
        assert_eq!(
            choose_lambda(&train, &cv, &[], &TrainConfig::default()),
            Err(CrossvalError::NoCandidates)
        );
        let empty = Dataset::default();
        assert_eq!(
            choose_lambda(&empty, &cv, &[0.3], &TrainConfig::default()),
            Err(CrossvalError::EmptySplit)
        );
        assert_eq!(
            choose_lambda(&train, &empty, &[0.3], &TrainConfig::default()),
            Err(CrossvalError::EmptySplit)
        );
    }
}
