//! The one ℓ₁ update behind [`train`](crate::train) — and the §5
//! privacy argument for regression.
//!
//! "Once the logistic regression parameters have been updated with a new
//! trace, the trace itself may be discarded.  If the analysis host is
//! compromised, an attacker cannot recover the precise details of any
//! single past trace."
//!
//! `OnlineTrainer` consumes one row at a time: it updates the model
//! parameters (and the running feature-scaling statistics) and retains
//! nothing else.  Scaling uses running min/max and variance estimates,
//! so early updates see slightly different scales than late ones — the
//! price of never storing traces.
//!
//! Everything the trainer keeps about a counter is one record, so an
//! update touches one cache line per nonzero counter.

use crate::logistic::{sigmoid, LogisticModel, Row, Scale, TrainConfig};

/// Streaming trainer for the crash-prediction model.
///
/// One update costs what the row contains, not how wide the layout is:
/// a zero counter leaves its running sums and its scaled feature at
/// zero, so the trainer visits only the nonzero counters and — for the
/// cumulative ℓ₁ penalty, which every step applies to every nonzero
/// weight — the weights that are currently nonzero.
#[derive(Debug, Clone)]
pub(crate) struct OnlineTrainer {
    features: Vec<Feature>,
    bias: f64,
    learning_rate: f64,
    lambda: f64,
    seen: u64,
    // Cumulative-penalty bookkeeping: the penalty every weight has been
    // owed so far (each weight's `q` is what it has paid).
    u: f64,
    // Indices of the nonzero weights, in no particular order.
    live: Vec<usize>,
    // The current run's nonzero scaled features, ascending by index.
    row: Vec<(usize, f64)>,
}

/// Everything the trainer keeps about one counter, in one record so an
/// update touches one cache line per nonzero counter rather than seven.
#[derive(Debug, Clone, Copy)]
struct Feature {
    weight: f64,
    // Running scaling state.  `min` and `max` are over the *nonzero*
    // values seen; `last_nonzero` is the 1-based update in which the
    // counter was last nonzero, which tells the next nonzero value
    // whether a zero came in between (and the minimum is therefore 0).
    min: f64,
    max: f64,
    sum: f64,
    sq_sum: f64,
    last_nonzero: u64,
    // The cumulative penalty this weight has paid.
    q: f64,
}

impl Feature {
    const FRESH: Feature = Feature {
        weight: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        sum: 0.0,
        sq_sum: 0.0,
        last_nonzero: 0,
        q: 0.0,
    };
}

impl OnlineTrainer {
    /// A trainer for rows of `features` counters, stepping at `config`'s
    /// learning rate and λ.
    pub(crate) fn new(features: usize, config: &TrainConfig) -> Self {
        OnlineTrainer {
            features: vec![Feature::FRESH; features],
            bias: 0.0,
            learning_rate: config.learning_rate,
            lambda: config.lambda,
            seen: 0,
            u: 0.0,
            live: Vec::new(),
            row: Vec::new(),
        }
    }

    /// Folds in one row.  The caller may discard it immediately
    /// afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the row names a counter outside the feature range.
    pub(crate) fn update(&mut self, row: &impl Row) {
        let before_this = self.seen;
        self.seen += 1;
        let n = self.seen as f64;

        // Update running scale statistics, then scale this row with them.
        self.row.clear();
        for (j, c) in row.nonzero() {
            let v = c as f64;
            let f = &mut self.features[j];
            if f.last_nonzero != before_this {
                f.min = 0.0;
            }
            f.last_nonzero = self.seen;
            f.min = f.min.min(v);
            f.max = f.max.max(v);
            let range = (f.max - f.min).max(1.0);
            let unit = (v - f.min) / range;
            f.sum += unit;
            f.sq_sum += unit * unit;
            let mean = f.sum / n;
            let var = (f.sq_sum / n - mean * mean).max(0.0);
            let sd = var.sqrt();
            let x = unit / if sd > 1e-12 { sd } else { 1.0 };
            if x != 0.0 {
                self.row.push((j, x));
            }
        }

        let y = if row.failed() { 1.0 } else { 0.0 };
        // The zero terms of the dot product are skipped; the rest are
        // added in the same ascending order.
        let z = self.bias
            + self
                .row
                .iter()
                .map(|&(j, x)| self.features[j].weight * x)
                .sum::<f64>();
        let err = y - sigmoid(z);
        self.bias += self.learning_rate * err;
        self.u += self.learning_rate * self.lambda;
        for &(j, x) in &self.row {
            let f = &mut self.features[j];
            if f.weight == 0.0 {
                self.live.push(j);
            }
            f.weight += self.learning_rate * err * x;
        }
        // Clip every nonzero weight toward zero by the penalty it has
        // not yet paid; a weight clipped to zero leaves the live set
        // until a gradient revives it.
        let (features, u) = (&mut self.features, self.u);
        self.live.retain(|&j| {
            let f = &mut features[j];
            let before = f.weight;
            if before > 0.0 {
                f.weight = (before - (u + f.q)).max(0.0);
            } else if before < 0.0 {
                f.weight = (before + (u - f.q)).min(0.0);
            }
            f.q += f.weight - before;
            f.weight != 0.0
        });
    }

    /// The current model, with each counter's scaling as it stands: a
    /// counter that has been zero since its last nonzero value has
    /// minimum 0, as its next nonzero value would find it, and one never
    /// nonzero scales by 1.
    pub(crate) fn model(&self) -> LogisticModel {
        let n = self.seen as f64;
        let scales = self
            .features
            .iter()
            .map(|f| {
                let current = f.last_nonzero == self.seen && self.seen > 0;
                let min = if current { f.min } else { 0.0 };
                let mean = f.sum / n;
                let sd = (f.sq_sum / n - mean * mean).max(0.0).sqrt();
                Scale {
                    min,
                    range: (f.max - min).max(1.0),
                    sd: if sd > 1e-12 { sd } else { 1.0 },
                }
            })
            .collect();
        let weights = self.features.iter().map(|f| f.weight).collect();
        LogisticModel::new(self.bias, weights, scales)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logistic::train;
    use cbi_reports::{Label, Report};
    use cbi_sampler::Pcg32;

    fn config(learning_rate: f64, lambda: f64) -> TrainConfig {
        TrainConfig {
            lambda,
            learning_rate,
            ..TrainConfig::default()
        }
    }

    fn trainer(features: usize, learning_rate: f64, lambda: f64) -> OnlineTrainer {
        OnlineTrainer::new(features, &config(learning_rate, lambda))
    }

    fn report(counters: &[u64], failed: bool) -> Report {
        let label = if failed {
            Label::Failure
        } else {
            Label::Success
        };
        Report::new(0, label, counters.to_vec())
    }

    impl OnlineTrainer {
        /// Folds in one dense counter vector.
        fn update_dense(&mut self, counters: &[u64], failed: bool) {
            self.update(&&report(counters, failed));
        }
    }

    /// Stream of runs where feature 1 predicts failure.
    fn stream(n: usize, seed: u64) -> Vec<Report> {
        let mut rng = Pcg32::new(seed);
        (0..n)
            .map(|_| {
                let crash = rng.next_f64() < 0.3;
                let counters: Vec<u64> = (0..5)
                    .map(|j| {
                        if j == 1 && crash {
                            6 + rng.below(6)
                        } else {
                            rng.below(3)
                        }
                    })
                    .collect();
                report(&counters, crash)
            })
            .collect()
    }

    #[test]
    fn online_training_finds_the_signal() {
        let mut t = trainer(5, 0.05, 0.02);
        // Stream three epochs' worth of fresh runs, discarding each.
        for seed in 0..3 {
            for run in &stream(2000, seed) {
                t.update(&run);
            }
        }
        let model = t.model();
        assert_eq!(
            model.ranked_features()[0],
            1,
            "weights: {:?}",
            model.weights
        );
        assert!(model.weights[1] > 0.0);
        assert_eq!(t.seen, 6000);
    }

    #[test]
    fn online_model_predicts_held_out_runs() {
        let model = train(5, &stream(4000, 9), &config(0.05, 0.02));
        // Held-out runs are scaled by the trainer's final statistics.
        let acc = model.accuracy(&stream(1000, 99));
        assert!(acc > 0.8, "online accuracy {acc}");
    }

    #[test]
    fn trainer_retains_no_traces() {
        // The trainer's entire state is parameter vectors of fixed size —
        // independent of how many runs were folded in.
        let mut t = trainer(5, 0.05, 0.02);
        let before =
            std::mem::size_of_val(&t) + t.features.capacity() * std::mem::size_of::<Feature>();
        for run in &stream(500, 3) {
            t.update(&run);
        }
        let after =
            std::mem::size_of_val(&t) + t.features.capacity() * std::mem::size_of::<Feature>();
        assert_eq!(before, after, "state must not grow with the stream");
    }

    #[test]
    fn every_update_accrues_learning_rate_times_lambda_of_penalty() {
        // The penalty owed grows by lr·λ per row, whatever the row holds:
        // one pass over n rows charges n·λ‖β‖₁ against Σ LLᵢ.
        let (lr, lambda) = (0.05, 0.3);
        let mut t = trainer(5, lr, lambda);
        let mut owed = 0.0;
        for (k, run) in stream(40, 5).iter().enumerate() {
            t.update(&run);
            owed += lr * lambda;
            assert_eq!(t.u.to_bits(), owed.to_bits(), "after {} updates", k + 1);
            assert!((t.u - (k + 1) as f64 * lr * lambda).abs() < 1e-12);
        }
        // A weight that no gradient touches pays exactly that: a counter
        // that fires once is clipped by each later update until it is 0.
        let mut t = trainer(2, lr, 0.001);
        t.update_dense(&[0, 0], false);
        t.update_dense(&[4, 0], true);
        let w0 = t.features[0].weight;
        assert!(w0 > 0.0);
        for k in 1..=3u32 {
            t.update_dense(&[0, 1], false);
            let paid = w0 - t.features[0].weight;
            assert!((paid - f64::from(k) * lr * 0.001).abs() < 1e-12, "{paid}");
        }
    }

    /// The trainer as it was before it learned to skip zero counters:
    /// every counter visited on every update.  Kept as the oracle the
    /// sparse update is held bit-identical to.
    struct DenseTrainer {
        weights: Vec<f64>,
        bias: f64,
        learning_rate: f64,
        lambda: f64,
        seen: u64,
        mins: Vec<f64>,
        maxs: Vec<f64>,
        sums: Vec<f64>,
        sq_sums: Vec<f64>,
        u: f64,
        q: Vec<f64>,
    }

    impl DenseTrainer {
        fn new(features: usize, learning_rate: f64, lambda: f64) -> Self {
            DenseTrainer {
                weights: vec![0.0; features],
                bias: 0.0,
                learning_rate,
                lambda,
                seen: 0,
                mins: vec![f64::INFINITY; features],
                maxs: vec![f64::NEG_INFINITY; features],
                sums: vec![0.0; features],
                sq_sums: vec![0.0; features],
                u: 0.0,
                q: vec![0.0; features],
            }
        }

        fn update(&mut self, counters: &[u64], failed: bool) {
            self.seen += 1;
            let n = self.seen as f64;
            let mut row = vec![0.0; counters.len()];
            for (j, &c) in counters.iter().enumerate() {
                let v = c as f64;
                self.mins[j] = self.mins[j].min(v);
                self.maxs[j] = self.maxs[j].max(v);
                let range = (self.maxs[j] - self.mins[j]).max(1.0);
                let unit = (v - self.mins[j]) / range;
                self.sums[j] += unit;
                self.sq_sums[j] += unit * unit;
                let mean = self.sums[j] / n;
                let var = (self.sq_sums[j] / n - mean * mean).max(0.0);
                let sd = if var.sqrt() > 1e-12 { var.sqrt() } else { 1.0 };
                row[j] = unit / sd;
            }
            let y = if failed { 1.0 } else { 0.0 };
            let dot: f64 = self.weights.iter().zip(&row).map(|(a, b)| a * b).sum();
            let err = y - sigmoid(self.bias + dot);
            self.bias += self.learning_rate * err;
            self.u += self.learning_rate * self.lambda;
            for ((w, &x), q) in self.weights.iter_mut().zip(&row).zip(self.q.iter_mut()) {
                if x != 0.0 {
                    *w += self.learning_rate * err * x;
                }
                let before = *w;
                if before > 0.0 {
                    *w = (before - (self.u + *q)).max(0.0);
                } else if before < 0.0 {
                    *w = (before + (self.u - *q)).min(0.0);
                }
                *q += *w - before;
            }
        }
    }

    impl OnlineTrainer {
        /// The running minimum and maximum of counter `j` as the dense
        /// trainer stores them: zeros it never visited included.
        fn min_max(&self, j: usize) -> (f64, f64) {
            let f = &self.features[j];
            if self.seen == 0 {
                return (f.min, f.max);
            }
            let zero_since = f.last_nonzero != self.seen;
            (if zero_since { 0.0 } else { f.min }, f.max.max(0.0))
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// One field of every per-feature record, as bit patterns.
    fn field_bits(t: &OnlineTrainer, field: impl Fn(&Feature) -> f64) -> Vec<u64> {
        t.features.iter().map(|f| field(f).to_bits()).collect()
    }

    /// Every float of the two trainers, compared as bit patterns.
    fn assert_identical(sparse: &OnlineTrainer, dense: &DenseTrainer, at: &str) {
        assert_eq!(sparse.seen, dense.seen, "{at}");
        let weights = field_bits(sparse, |f| f.weight);
        assert_eq!(weights, bits(&dense.weights), "weights {at}");
        assert_eq!(sparse.bias.to_bits(), dense.bias.to_bits(), "bias {at}");
        assert_eq!(field_bits(sparse, |f| f.q), bits(&dense.q), "q {at}");
        assert_eq!(sparse.u.to_bits(), dense.u.to_bits(), "u {at}");
        assert_eq!(
            field_bits(sparse, |f| f.sum),
            bits(&dense.sums),
            "sums {at}"
        );
        let sq_sums = field_bits(sparse, |f| f.sq_sum);
        assert_eq!(sq_sums, bits(&dense.sq_sums), "sq_sums {at}");
        let (mins, maxs): (Vec<f64>, Vec<f64>) = (0..sparse.features.len())
            .map(|j| sparse.min_max(j))
            .unzip();
        assert_eq!(bits(&mins), bits(&dense.mins), "mins {at}");
        assert_eq!(bits(&maxs), bits(&dense.maxs), "maxs {at}");
        let mut live = sparse.live.clone();
        live.sort_unstable();
        let nonzero: Vec<usize> = (0..sparse.features.len())
            .filter(|&j| dense.weights[j] != 0.0)
            .collect();
        assert_eq!(live, nonzero, "live set {at}");
    }

    /// Feeds one stream to the dense oracle and the trainer, comparing
    /// after every update, then trains over the same stream in one pass
    /// of [`train`]: its model must be the oracle's to the bit.
    fn check_stream(name: &str, features: usize, lambda: f64, runs: &[(Vec<u64>, bool)]) {
        let mut dense = DenseTrainer::new(features, 0.05, lambda);
        let mut sparse = trainer(features, 0.05, lambda);
        for (i, (counters, failed)) in runs.iter().enumerate() {
            dense.update(counters, *failed);
            sparse.update_dense(counters, *failed);
            assert_identical(&sparse, &dense, &format!("({name}, after run {i})"));
        }
        let rows: Vec<Report> = runs.iter().map(|(c, f)| report(c, *f)).collect();
        let model = train(features, &rows, &config(0.05, lambda));
        assert_eq!(bits(&model.weights), bits(&dense.weights), "train ({name})");
        assert_eq!(model.bias.to_bits(), dense.bias.to_bits(), "train ({name})");
    }

    /// A mostly-zero stream shaped like sparse sampling: counter 0
    /// predicts failure, a few counters fire now and then, and some
    /// runs report nothing at all.
    fn sparse_stream(n: usize, features: usize, seed: u64) -> Vec<(Vec<u64>, bool)> {
        let mut rng = Pcg32::new(seed);
        (0..n)
            .map(|_| {
                let failed = rng.next_f64() < 0.3;
                let mut counters = vec![0u64; features];
                if rng.next_f64() < 0.9 {
                    for _ in 0..1 + rng.below(4) {
                        let j = rng.below(features as u64) as usize;
                        counters[j] = 1 + rng.below(9);
                    }
                    if failed {
                        counters[0] = 5 + rng.below(5);
                    }
                }
                (counters, failed)
            })
            .collect()
    }

    #[test]
    fn sparse_update_is_bit_identical_to_the_dense_oracle_on_seeded_streams() {
        for seed in 0..6 {
            let runs = sparse_stream(400, 40, seed);
            assert!(runs.iter().any(|(c, _)| c.iter().all(|&v| v == 0)));
            check_stream("seeded", 40, 0.02, &runs);
        }
        // Dense vectors (density 1/1) go through the same code.
        let runs: Vec<(Vec<u64>, bool)> = stream(500, 11)
            .into_iter()
            .map(|r| (r.counters, r.label == Label::Failure))
            .collect();
        check_stream("dense", 5, 0.02, &runs);
    }

    #[test]
    fn sparse_update_is_bit_identical_on_the_awkward_streams() {
        // An all-zero report first, and all-zero reports throughout.
        let mut runs = vec![(vec![0, 0, 0], false), (vec![0, 0, 0], true)];
        runs.extend(sparse_stream(50, 3, 1));
        runs.push((vec![0, 0, 0], true));
        check_stream("all-zero", 3, 0.02, &runs);

        // A counter that is at least 1 for many runs and then 0: its
        // minimum drops to 0 only then, and the next nonzero value is
        // scaled against that.
        let mut runs: Vec<(Vec<u64>, bool)> = (0..60)
            .map(|i| (vec![1 + i % 4, i % 3], i % 5 == 0))
            .collect();
        runs.push((vec![0, 1], false));
        runs.extend((0..20).map(|i| (vec![2 + i % 3, 0], i % 2 == 0)));
        check_stream("min drops to 0", 2, 0.02, &runs);

        // A heavy penalty clips a weight to exactly 0 while its counter
        // stays silent; a later gradient revives it.
        let mut runs: Vec<(Vec<u64>, bool)> =
            vec![(vec![0, 0], false), (vec![3, 0], true), (vec![1, 0], true)];
        runs.extend((0..40).map(|_| (vec![0, 1], false)));
        runs.extend((0..5).map(|i| (vec![2 + i, 0], true)));
        let mut probe = trainer(2, 0.05, 0.1);
        let mut was_live = false;
        let mut clipped_then_revived = false;
        for (counters, failed) in &runs {
            probe.update_dense(counters, *failed);
            let live = probe.features[0].weight != 0.0;
            clipped_then_revived |= was_live && !live;
            was_live |= live;
        }
        assert!(clipped_then_revived && probe.features[0].weight != 0.0);
        check_stream("clipped and revived", 2, 0.1, &runs);

        // A weight that changes sign: failures with the counter high,
        // then successes with it high.
        let mut runs: Vec<(Vec<u64>, bool)> = (0..30).map(|i| (vec![4 + i % 2, 1], true)).collect();
        runs.extend((0..200).map(|i| (vec![4 + i % 2, i % 2], false)));
        let mut probe = trainer(2, 0.05, 0.001);
        let mut signs = (false, false);
        for (counters, failed) in &runs {
            probe.update_dense(counters, *failed);
            signs.0 |= probe.features[0].weight > 0.0;
            signs.1 |= probe.features[0].weight < 0.0;
        }
        assert!(signs.0 && signs.1, "the stream must flip the weight's sign");
        check_stream("sign change", 2, 0.001, &runs);

        // Counters at the top of the range.
        let runs: Vec<(Vec<u64>, bool)> = (0..40)
            .map(|i| {
                let big = if i % 3 == 0 { u64::MAX } else { 0 };
                (vec![big, u64::MAX - i, i % 2], i % 4 == 0)
            })
            .collect();
        check_stream("u64::MAX", 3, 0.02, &runs);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn wrong_width_panics() {
        // A row naming a counter outside the layout is a caller bug.
        let _ = train(2, [&report(&[1, 2, 3], false)], &TrainConfig::default());
    }
}
