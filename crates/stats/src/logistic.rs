//! ℓ₁-regularized logistic regression for crash prediction (§3.3.2).
//!
//! The model is `P(crash | x) = μ_β(x) = 1 / (1 + exp(−β₀ − βᵀx))`,
//! trained by maximizing the ℓ₁-penalized log likelihood
//!
//! ```text
//!   LL(β | D, λ) = Σᵢ [ yᵢ log μ(xᵢ) + (1 − yᵢ) log(1 − μ(xᵢ)) ] − λ‖β‖₁
//! ```
//!
//! with *stochastic gradient ascent*, exactly as in the paper.  The ℓ₁
//! penalty forces most coefficients toward zero ("we expect that most of
//! our features are wild guesses, but that there may be just a few that
//! correctly characterize the bug"); the surviving large-|β| features are
//! the predicates to investigate, ranked by magnitude.

use crate::dataset::Dataset;
use cbi_sampler::Pcg32;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// ℓ₁ regularization strength λ (the paper cross-validates to 0.3).
    pub lambda: f64,
    /// Gradient-ascent step size.
    pub learning_rate: f64,
    /// Passes over the training set ("the model usually converges within
    /// sixty iterations through the training set").
    pub epochs: usize,
    /// Shuffling seed for the stochastic updates.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lambda: 0.3,
            learning_rate: 0.01,
            epochs: 60,
            seed: 1729,
        }
    }
}

/// A trained logistic-regression crash predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    /// Intercept β₀.
    pub bias: f64,
    /// Feature coefficients β.
    pub weights: Vec<f64>,
}

/// The logistic function.
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

impl LogisticModel {
    /// Trains a model on `data` (features should already be scaled).
    ///
    /// Per-sample gradient ascent on the log likelihood, with the ℓ₁
    /// penalty applied via the *cumulative penalty* method (Tsuruoka,
    /// Tsujii & Ananiadou 2009): each weight is clipped toward zero by the
    /// total regularization it has accrued but not yet paid, which yields
    /// exact zeros without the noise of naive per-sample shrinkage.  The
    /// per-sample penalty rate is `lr·λ / n`, so `λ` matches the batch
    /// objective `LL(D) − λ‖β‖₁` of §3.3.2.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty.
    pub fn train(data: &Dataset, config: &TrainConfig) -> LogisticModel {
        assert!(!data.is_empty(), "cannot train on an empty dataset");
        let d = data.feature_count();
        let mut w = vec![0.0; d];
        let mut bias = 0.0;
        let lr = config.learning_rate;
        let rate = lr * config.lambda;
        // u: total penalty each weight could have received so far;
        // q[j]: penalty weight j has actually paid.
        let mut u = 0.0;
        let mut q = vec![0.0; d];
        let mut rng = Pcg32::new(config.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();

        for _ in 0..config.epochs {
            // Reshuffle each epoch for stochasticity.
            for i in (1..order.len()).rev() {
                let j = rng.below((i + 1) as u64) as usize;
                order.swap(i, j);
            }
            for &i in &order {
                let x = &data.rows[i];
                let y = data.labels[i];
                let z = bias + dot(&w, x);
                let err = y - sigmoid(z);
                bias += lr * err;
                u += rate;
                for ((wj, &xj), qj) in w.iter_mut().zip(x).zip(q.iter_mut()) {
                    if xj != 0.0 {
                        *wj += lr * err * xj;
                    }
                    // Cumulative ℓ₁ clipping.
                    let before = *wj;
                    if before > 0.0 {
                        *wj = (before - (u + *qj)).max(0.0);
                    } else if before < 0.0 {
                        *wj = (before + (u - *qj)).min(0.0);
                    }
                    *qj += *wj - before;
                }
            }
        }
        LogisticModel { bias, weights: w }
    }

    /// Predicted crash probability for a (scaled) feature row.
    fn predict(&self, row: &[f64]) -> f64 {
        sigmoid(self.bias + dot(&self.weights, row))
    }

    /// Binary classification at threshold ½ (§3.3.2).
    pub fn classify(&self, row: &[f64]) -> bool {
        self.predict(row) > 0.5
    }

    /// Classification accuracy on a dataset.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let correct = data
            .rows
            .iter()
            .zip(&data.labels)
            .filter(|(row, &y)| self.classify(row) == (y == 1.0))
            .count();
        correct as f64 / data.len() as f64
    }

    /// Penalized log likelihood of a dataset under this model.
    #[cfg(test)]
    fn penalized_log_likelihood(&self, data: &Dataset, lambda: f64) -> f64 {
        let ll: f64 = data
            .rows
            .iter()
            .zip(&data.labels)
            .map(|(row, &y)| {
                let mu = self.predict(row).clamp(1e-12, 1.0 - 1e-12);
                y * mu.ln() + (1.0 - y) * (1.0 - mu).ln()
            })
            .sum();
        let l1: f64 = self.bias.abs() + self.weights.iter().map(|w| w.abs()).sum::<f64>();
        ll - lambda * l1
    }

    /// Number of exactly zero coefficients (sparsity induced by ℓ₁).
    #[cfg(test)]
    fn zero_weights(&self) -> usize {
        self.weights.iter().filter(|&&w| w == 0.0).count()
    }

    /// Feature indices ranked by coefficient magnitude, largest first.
    /// Ties break toward lower feature index for determinism.
    pub fn ranked_features(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.weights.len()).collect();
        idx.sort_by(|&a, &b| {
            self.weights[b]
                .abs()
                .partial_cmp(&self.weights[a].abs())
                .expect("weights are finite")
                .then(a.cmp(&b))
        });
        idx
    }

    /// The rank (0-based) of a feature in [`Self::ranked_features`].
    pub fn rank_of(&self, feature: usize) -> Option<usize> {
        self.ranked_features().iter().position(|&f| f == feature)
    }
}

fn dot(w: &[f64], x: &[f64]) -> f64 {
    w.iter().zip(x).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_reports::{Label, Report};

    /// Synthetic crash-prediction task: feature 2 is the real signal
    /// (crash iff it is large); features 0,1,3..9 are noise.
    fn synthetic(n: usize, seed: u64) -> Dataset {
        let mut rng = Pcg32::new(seed);
        let reports: Vec<Report> = (0..n)
            .map(|i| {
                let crash = rng.next_f64() < 0.4;
                let counters: Vec<u64> = (0..10)
                    .map(|j| {
                        if j == 2 {
                            if crash {
                                5 + rng.below(10)
                            } else {
                                rng.below(2)
                            }
                        } else {
                            rng.below(4)
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
    fn sigmoid_shape() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
        assert!(sigmoid(-800.0) >= 0.0, "no underflow panic");
        assert!(sigmoid(800.0) <= 1.0);
    }

    #[test]
    fn learns_the_predictive_feature() {
        let data = synthetic(600, 3);
        let model = LogisticModel::train(
            &data,
            &TrainConfig {
                lambda: 0.1,
                ..TrainConfig::default()
            },
        );
        let ranked = model.ranked_features();
        assert_eq!(ranked[0], 2, "weights: {:?}", model.weights);
        assert!(model.weights[2] > 0.0, "crash feature has positive weight");
        assert!(model.accuracy(&data) > 0.9, "acc {}", model.accuracy(&data));
    }

    #[test]
    fn l1_induces_sparsity() {
        let data = synthetic(600, 5);
        let dense = LogisticModel::train(
            &data,
            &TrainConfig {
                lambda: 0.0,
                ..TrainConfig::default()
            },
        );
        let sparse = LogisticModel::train(
            &data,
            &TrainConfig {
                lambda: 1.0,
                ..TrainConfig::default()
            },
        );
        assert!(
            sparse.zero_weights() > dense.zero_weights(),
            "sparse {} vs dense {}",
            sparse.zero_weights(),
            dense.zero_weights()
        );
    }

    #[test]
    fn heavy_regularization_kills_noise_but_not_signal() {
        let data = synthetic(800, 7);
        let model = LogisticModel::train(
            &data,
            &TrainConfig {
                lambda: 0.3,
                ..TrainConfig::default()
            },
        );
        // At the paper's cross-validated λ = 0.3, the cumulative-penalty
        // lasso zeroes every noise weight exactly while the true signal
        // survives.
        assert!(model.weights[2] > 0.0, "weights: {:?}", model.weights);
        for j in (0..10).filter(|&j| j != 2) {
            assert_eq!(
                model.weights[j], 0.0,
                "noise weight {j} nonzero: {:?}",
                model.weights
            );
        }
    }

    #[test]
    fn generalizes_to_held_out_data() {
        let data = synthetic(1000, 11);
        let (train, _cv, test) = data.split(700, 100, 9);
        let model = LogisticModel::train(&train, &TrainConfig::default());
        assert!(model.accuracy(&test) > 0.85, "{}", model.accuracy(&test));
    }

    #[test]
    fn training_is_deterministic() {
        let data = synthetic(300, 13);
        let a = LogisticModel::train(&data, &TrainConfig::default());
        let b = LogisticModel::train(&data, &TrainConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn likelihood_improves_with_training() {
        let data = synthetic(400, 17);
        let untrained = LogisticModel {
            bias: 0.0,
            weights: vec![0.0; data.feature_count()],
        };
        let trained = LogisticModel::train(&data, &TrainConfig::default());
        assert!(
            trained.penalized_log_likelihood(&data, 0.3)
                > untrained.penalized_log_likelihood(&data, 0.3)
        );
    }

    #[test]
    fn rank_of_finds_features() {
        let model = LogisticModel {
            bias: 0.0,
            weights: vec![0.1, -0.9, 0.5],
        };
        assert_eq!(model.ranked_features(), vec![1, 2, 0]);
        assert_eq!(model.rank_of(1), Some(0));
        assert_eq!(model.rank_of(0), Some(2));
        assert_eq!(model.rank_of(9), None);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn training_on_empty_dataset_panics() {
        let _ = LogisticModel::train(&Dataset::default(), &TrainConfig::default());
    }
}
