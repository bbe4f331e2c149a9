//! ℓ₁-regularized logistic regression for crash prediction (§3.3.2).
//!
//! The model is `P(crash | x) = μ_β(x) = 1 / (1 + exp(−β₀ − βᵀx))`,
//! trained by *stochastic gradient ascent* on the ℓ₁-penalized log
//! likelihood, exactly as in the paper.  The ℓ₁ penalty forces most
//! coefficients toward zero ("we expect that most of our features are
//! wild guesses, but that there may be just a few that correctly
//! characterize the bug"); the surviving large-|β| features are the
//! predicates to investigate, ranked by magnitude.
//!
//! There is one trainer, [`train`], over compressed rows: a run's label
//! and its nonzero counters.  One pass in arrival order is the streaming
//! model an ingest server keeps (§5: a trace can be dropped once the
//! parameters are updated); several shuffled passes with λ chosen by
//! [`crate::crossval::choose_lambda`] are the paper's batch regime.

use crate::online::OnlineTrainer;
use cbi_reports::{nonzero, Label, Report, SparseRow};
use cbi_sampler::Pcg32;

/// Training hyper-parameters.  The default is the streaming model's:
/// one pass over the rows in the order given.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// ℓ₁ regularization strength λ.
    pub lambda: f64,
    /// Gradient-ascent step size.
    pub learning_rate: f64,
    /// Passes over the rows.  One pass visits them in the order given;
    /// more passes each visit them in a fresh seeded shuffle ("the
    /// model usually converges within sixty iterations through the
    /// training set").
    pub epochs: usize,
    /// Shuffling seed of a multi-pass run.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            lambda: 0.02,
            learning_rate: 0.05,
            epochs: 1,
            seed: 1729,
        }
    }
}

/// One training row: a run's outcome and its nonzero counters.
pub trait Row {
    /// Whether the run failed.
    fn failed(&self) -> bool;
    /// The run's nonzero counters as `(index, value)` pairs, ascending
    /// by index with no index repeated; every counter not listed is 0.
    fn nonzero(&self) -> impl Iterator<Item = (usize, u64)>;
}

impl Row for SparseRow<'_> {
    fn failed(&self) -> bool {
        self.label == Label::Failure
    }

    fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> {
        SparseRow::nonzero(self)
    }
}

impl Row for &Report {
    fn failed(&self) -> bool {
        self.label == Label::Failure
    }

    fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> {
        nonzero(&self.counters)
    }
}

/// A trained logistic-regression crash predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct LogisticModel {
    /// Intercept β₀.
    pub bias: f64,
    /// Feature coefficients β, one per counter.
    pub weights: Vec<f64>,
    /// How the trainer would scale each counter's next value.
    scales: Vec<Scale>,
}

/// A counter's feature scaling as the trainer's running statistics
/// stand: shifted by the minimum, divided by the range (at least 1) and
/// by the standard deviation of the rescaled values (§3.3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Scale {
    pub(crate) min: f64,
    pub(crate) range: f64,
    pub(crate) sd: f64,
}

impl Scale {
    /// The scaled feature of a raw counter value.
    pub(crate) fn apply(self, v: f64) -> f64 {
        ((v - self.min) / self.range) / self.sd
    }
}

/// The logistic function.
pub(crate) fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Trains a model for rows of `features` counters.
///
/// Each row is one per-sample gradient step on the log likelihood, with
/// the ℓ₁ penalty applied by the *cumulative penalty* method (Tsuruoka,
/// Tsujii & Ananiadou 2009): each weight is clipped toward zero by the
/// total regularization it has accrued but not yet paid, which yields
/// exact zeros without the noise of naive per-sample shrinkage.  Every
/// step accrues `learning_rate·λ` of penalty, so a pass over `n` rows
/// ascends `Σᵢ LLᵢ − n·λ‖β‖₁`.  Features are scaled with running
/// minimum, maximum and variance estimates, updated before each row is
/// scaled; a zero counter is a zero feature and costs nothing.
///
/// One pass (`epochs == 1`) visits the rows in the order given and
/// needs only that order: it is the streaming model, and it is the same
/// to the bit wherever the rows come from.  More passes collect the rows
/// and visit them in a fresh shuffle each pass.  No rows give the zero
/// model.
///
/// # Panics
///
/// Panics if a row names a counter at or above `features`.
pub fn train<R: Row>(
    features: usize,
    rows: impl IntoIterator<Item = R>,
    config: &TrainConfig,
) -> LogisticModel {
    let mut trainer = OnlineTrainer::new(features, config);
    if config.epochs == 1 {
        for row in rows {
            trainer.update(&row);
        }
        return trainer.model();
    }
    let rows: Vec<R> = rows.into_iter().collect();
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mut rng = Pcg32::new(config.seed);
    for _ in 0..config.epochs {
        for i in (1..order.len()).rev() {
            let j = rng.below((i + 1) as u64) as usize;
            order.swap(i, j);
        }
        for &i in &order {
            trainer.update(&rows[i]);
        }
    }
    trainer.model()
}

impl LogisticModel {
    pub(crate) fn new(bias: f64, weights: Vec<f64>, scales: Vec<Scale>) -> LogisticModel {
        LogisticModel {
            bias,
            weights,
            scales,
        }
    }

    /// Predicted crash probability for a row, its counters scaled as the
    /// trainer would scale them next.  Counters the model gives no
    /// weight contribute nothing, so a counter training never saw is
    /// harmless.
    fn predict(&self, row: &impl Row) -> f64 {
        let z = row
            .nonzero()
            .filter(|&(j, _)| self.weights[j] != 0.0)
            .map(|(j, v)| self.weights[j] * self.scales[j].apply(v as f64))
            .sum::<f64>();
        sigmoid(self.bias + z)
    }

    /// Binary classification at threshold ½ (§3.3.2).
    pub fn classify(&self, row: &impl Row) -> bool {
        self.predict(row) > 0.5
    }

    /// Classification accuracy over rows; 0 over none.
    pub fn accuracy<R: Row>(&self, rows: impl IntoIterator<Item = R>) -> f64 {
        let (correct, total) = rows.into_iter().fold((0, 0), |(correct, total), row| {
            let right = self.classify(&row) == row.failed();
            (correct + usize::from(right), total + 1)
        });
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic crash-prediction task: feature 2 is the real signal
    /// (crash iff it is large); features 0,1,3..9 are noise.
    fn synthetic(n: usize, seed: u64) -> Vec<Report> {
        let mut rng = Pcg32::new(seed);
        (0..n)
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
                let label = if crash {
                    Label::Failure
                } else {
                    Label::Success
                };
                Report::new(i as u64, label, counters)
            })
            .collect()
    }

    /// The paper's regime: sixty shuffled passes at a small step.
    fn batch(lambda: f64) -> TrainConfig {
        TrainConfig {
            lambda,
            learning_rate: 0.01,
            epochs: 60,
            seed: 1729,
        }
    }

    fn fit(data: &[Report], config: &TrainConfig) -> LogisticModel {
        train(10, data, config)
    }

    /// Penalized log likelihood of rows under a model.
    fn penalized_log_likelihood(model: &LogisticModel, data: &[Report], lambda: f64) -> f64 {
        let ll: f64 = data
            .iter()
            .map(|row| {
                let y = if row.failed() { 1.0 } else { 0.0 };
                let mu = model.predict(&row).clamp(1e-12, 1.0 - 1e-12);
                y * mu.ln() + (1.0 - y) * (1.0 - mu).ln()
            })
            .sum();
        let l1: f64 = model.bias.abs() + model.weights.iter().map(|w| w.abs()).sum::<f64>();
        ll - lambda * l1
    }

    fn zero_weights(model: &LogisticModel) -> usize {
        model.weights.iter().filter(|&&w| w == 0.0).count()
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
        let model = fit(&data, &batch(0.1));
        let ranked = model.ranked_features();
        assert_eq!(ranked[0], 2, "weights: {:?}", model.weights);
        assert!(model.weights[2] > 0.0, "crash feature has positive weight");
        let acc = model.accuracy(&data);
        assert!(acc > 0.9, "acc {acc}");
    }

    #[test]
    fn l1_induces_sparsity() {
        let data = synthetic(600, 5);
        let dense = fit(&data, &batch(0.0));
        let sparse = fit(&data, &batch(1.0));
        assert!(
            zero_weights(&sparse) > zero_weights(&dense),
            "sparse {} vs dense {}",
            zero_weights(&sparse),
            zero_weights(&dense)
        );
    }

    #[test]
    fn heavy_regularization_kills_noise_but_not_signal() {
        let data = synthetic(800, 7);
        let model = fit(&data, &batch(0.3));
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
        let (train_rows, test_rows) = data.split_at(700);
        let model = fit(train_rows, &batch(0.3));
        let acc = model.accuracy(test_rows);
        assert!(acc > 0.85, "{acc}");
    }

    #[test]
    fn training_is_deterministic() {
        let data = synthetic(300, 13);
        assert_eq!(fit(&data, &batch(0.3)), fit(&data, &batch(0.3)));
    }

    #[test]
    fn likelihood_improves_with_training() {
        let data = synthetic(400, 17);
        let trained = fit(&data, &batch(0.3));
        let untrained = LogisticModel::new(0.0, vec![0.0; 10], trained.scales.clone());
        assert!(
            penalized_log_likelihood(&trained, &data, 0.3)
                > penalized_log_likelihood(&untrained, &data, 0.3)
        );
    }

    #[test]
    fn held_out_rows_are_scaled_by_the_final_running_statistics() {
        // One feature, values 2..=6 in training: the trainer's minimum
        // is 2, its range 4.  A held-out 6 scales to (6 − 2) / 4 / σ.
        let rows: Vec<Report> = (0..50)
            .map(|i| {
                let v = 2 + i % 5;
                let label = if v >= 5 {
                    Label::Failure
                } else {
                    Label::Success
                };
                Report::new(i, label, vec![v])
            })
            .collect();
        let model = train(1, &rows, &batch(0.0));
        let scale = model.scales[0];
        assert_eq!((scale.min, scale.range), (2.0, 4.0));
        assert!(scale.sd > 0.0 && scale.sd < 1.0, "{scale:?}");
        assert_eq!(scale.apply(6.0), 1.0 / scale.sd);
        assert!(model.weights[0] > 0.0);
        let high = Report::new(0, Label::Failure, vec![6]);
        let low = Report::new(1, Label::Success, vec![2]);
        assert!(model.classify(&&high) && !model.classify(&&low));
    }

    #[test]
    fn no_rows_give_the_zero_model() {
        let model = train(3, std::iter::empty::<&Report>(), &TrainConfig::default());
        assert_eq!((model.bias, model.weights.clone()), (0.0, vec![0.0; 3]));
        assert_eq!(model.ranked_features(), vec![0, 1, 2]);
        assert_eq!(model.accuracy(std::iter::empty::<&Report>()), 0.0);
    }

    #[test]
    fn rank_of_finds_features() {
        let model = LogisticModel::new(0.0, vec![0.1, -0.9, 0.5], Vec::new());
        assert_eq!(model.ranked_features(), vec![1, 2, 0]);
        assert_eq!(model.rank_of(1), Some(0));
        assert_eq!(model.rank_of(0), Some(2));
        assert_eq!(model.rank_of(9), None);
    }
}
