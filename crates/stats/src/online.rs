//! Online (streaming) training — the §5 privacy argument for regression.
//!
//! "Once the logistic regression parameters have been updated with a new
//! trace, the trace itself may be discarded.  If the analysis host is
//! compromised, an attacker cannot recover the precise details of any
//! single past trace."
//!
//! [`OnlineTrainer`] consumes one report at a time: it updates the model
//! parameters (and the running feature-scaling statistics) and retains
//! nothing else.  Feature scaling uses running min/max and variance
//! estimates rather than the batch statistics of
//! [`crate::scaling::FeatureScaler`], so early updates see slightly
//! different scales than late ones — the price of never storing traces.
//!
//! Everything the trainer keeps about a counter is one record, so an
//! update touches one cache line per nonzero counter.  The trainer is
//! the costliest part of a fold; a whole-stream fold runs it on a thread
//! of its own, over its own walk of the report bytes (see
//! `cbi::EpochAggregator::train_beside`).  The floats, and the order
//! they are combined in, are the same wherever it runs.

use crate::logistic::{sigmoid, LogisticModel};

/// Streaming trainer for the crash-prediction model.
///
/// One update costs what the report contains, not how wide the layout
/// is: a zero counter leaves its running sums and its scaled feature at
/// zero, so the trainer visits only the nonzero counters and — for the
/// cumulative ℓ₁ penalty, which every step applies to every nonzero
/// weight — the weights that are currently nonzero.
#[derive(Debug, Clone)]
pub struct OnlineTrainer {
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
    /// Creates a trainer for reports with `features` counters.
    pub fn new(features: usize, learning_rate: f64, lambda: f64) -> Self {
        OnlineTrainer {
            features: vec![Feature::FRESH; features],
            bias: 0.0,
            learning_rate,
            lambda,
            seen: 0,
            u: 0.0,
            live: Vec::new(),
            row: Vec::new(),
        }
    }

    /// Number of reports folded in so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of features.
    pub fn feature_count(&self) -> usize {
        self.features.len()
    }

    /// Folds in one run: raw counter values plus the failure flag.  The
    /// caller may discard the counters immediately afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `counters` has the wrong length.
    pub fn update(&mut self, counters: &[u64], failed: bool) {
        assert_eq!(
            counters.len(),
            self.feature_count(),
            "feature count mismatch"
        );
        self.update_nonzero(cbi_reports::nonzero(counters), failed);
    }

    /// Folds in one run given only its nonzero counters, as `(index,
    /// value)` pairs in ascending index order with no index repeated;
    /// every counter not listed is zero.  Every float this produces is
    /// the one [`update`](Self::update) over the dense vector produces.
    ///
    /// # Panics
    ///
    /// Panics if an index is outside the feature range.
    pub fn update_nonzero(
        &mut self,
        counters: impl IntoIterator<Item = (usize, u64)>,
        failed: bool,
    ) {
        let before_this = self.seen;
        self.seen += 1;
        let n = self.seen as f64;

        // Update running scale statistics, then scale this row with them.
        self.row.clear();
        for (j, c) in counters {
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

        let y = if failed { 1.0 } else { 0.0 };
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

    /// A snapshot of the current model.
    pub fn model(&self) -> LogisticModel {
        LogisticModel {
            bias: self.bias,
            weights: self.features.iter().map(|f| f.weight).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_sampler::Pcg32;

    /// Stream of runs where feature 1 predicts failure.
    fn stream(n: usize, seed: u64) -> Vec<(Vec<u64>, bool)> {
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
                (counters, crash)
            })
            .collect()
    }

    #[test]
    fn online_training_finds_the_signal() {
        let mut t = OnlineTrainer::new(5, 0.05, 0.02);
        // Stream three epochs' worth of fresh runs, discarding each.
        for seed in 0..3 {
            for (counters, failed) in stream(2000, seed) {
                t.update(&counters, failed);
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
        assert_eq!(t.seen(), 6000);
    }

    #[test]
    fn online_model_predicts_held_out_runs() {
        let mut t = OnlineTrainer::new(5, 0.05, 0.02);
        for (counters, failed) in stream(4000, 9) {
            t.update(&counters, failed);
        }
        let model = t.model();
        // Score on a fresh stream, scaling roughly like the trainer does.
        let mut correct = 0;
        let test = stream(1000, 99);
        for (counters, failed) in &test {
            let row: Vec<f64> = counters.iter().map(|&c| c as f64 / 4.0).collect();
            if model.classify(&row) == *failed {
                correct += 1;
            }
        }
        let acc = correct as f64 / test.len() as f64;
        assert!(acc > 0.8, "online accuracy {acc}");
    }

    #[test]
    fn trainer_retains_no_traces() {
        // The trainer's entire state is parameter vectors of fixed size —
        // independent of how many runs were folded in.
        let mut t = OnlineTrainer::new(5, 0.05, 0.02);
        let before =
            std::mem::size_of_val(&t) + t.features.capacity() * std::mem::size_of::<Feature>();
        for (counters, failed) in stream(500, 3) {
            t.update(&counters, failed);
        }
        let after =
            std::mem::size_of_val(&t) + t.features.capacity() * std::mem::size_of::<Feature>();
        assert_eq!(before, after, "state must not grow with the stream");
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
        let (mins, maxs): (Vec<f64>, Vec<f64>) = (0..sparse.feature_count())
            .map(|j| sparse.min_max(j))
            .unzip();
        assert_eq!(bits(&mins), bits(&dense.mins), "mins {at}");
        assert_eq!(bits(&maxs), bits(&dense.maxs), "maxs {at}");
        let mut live = sparse.live.clone();
        live.sort_unstable();
        let nonzero: Vec<usize> = (0..sparse.feature_count())
            .filter(|&j| dense.weights[j] != 0.0)
            .collect();
        assert_eq!(live, nonzero, "live set {at}");
    }

    /// Feeds one stream to both trainers through both entry points,
    /// comparing after every update.
    fn check_stream(name: &str, features: usize, lambda: f64, runs: &[(Vec<u64>, bool)]) {
        let mut dense = DenseTrainer::new(features, 0.05, lambda);
        let mut via_dense_entry = OnlineTrainer::new(features, 0.05, lambda);
        let mut via_sparse_entry = OnlineTrainer::new(features, 0.05, lambda);
        for (i, (counters, failed)) in runs.iter().enumerate() {
            dense.update(counters, *failed);
            via_dense_entry.update(counters, *failed);
            via_sparse_entry.update_nonzero(cbi_reports::nonzero(counters), *failed);
            let at = format!("({name}, after run {i})");
            assert_identical(&via_dense_entry, &dense, &at);
            assert_identical(&via_sparse_entry, &dense, &at);
        }
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
        check_stream("dense", 5, 0.02, &stream(500, 11));
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
        let mut probe = OnlineTrainer::new(2, 0.05, 0.1);
        let mut was_live = false;
        let mut clipped_then_revived = false;
        for (counters, failed) in &runs {
            probe.update(counters, *failed);
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
        let mut probe = OnlineTrainer::new(2, 0.05, 0.001);
        let mut signs = (false, false);
        for (counters, failed) in &runs {
            probe.update(counters, *failed);
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
    #[should_panic(expected = "mismatch")]
    fn wrong_width_panics() {
        let mut t = OnlineTrainer::new(3, 0.1, 0.1);
        t.update(&[1, 2], false);
    }
}
