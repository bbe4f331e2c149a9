//! Feature scaling (§3.3.3).
//!
//! "To make the magnitude of the β parameters comparable, the feature
//! values must be on the same scale.  Hence all the input features are
//! shifted and scaled to lie on the interval \[0, 1\], then normalized to
//! have unit sample variance."

/// Per-feature affine scaling parameters, fitted on a training set.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureScaler {
    mins: Vec<f64>,
    ranges: Vec<f64>,
    std_devs: Vec<f64>,
}

impl FeatureScaler {
    /// Fits min/max and post-rescale standard deviation on `rows`.
    pub fn fit(rows: &[Vec<f64>]) -> FeatureScaler {
        let d = rows.first().map_or(0, Vec::len);
        let mut mins = vec![f64::INFINITY; d];
        let mut maxs = vec![f64::NEG_INFINITY; d];
        for row in rows {
            for (j, &v) in row.iter().enumerate() {
                mins[j] = mins[j].min(v);
                maxs[j] = maxs[j].max(v);
            }
        }
        let ranges: Vec<f64> = mins
            .iter()
            .zip(&maxs)
            .map(|(&lo, &hi)| if hi > lo { hi - lo } else { 1.0 })
            .collect();

        // Sample std-dev of the [0,1]-rescaled values.
        let n = rows.len().max(1) as f64;
        let mut sums = vec![0.0; d];
        let mut sq_sums = vec![0.0; d];
        for row in rows {
            for (j, &v) in row.iter().enumerate() {
                let u = (v - mins[j]) / ranges[j];
                sums[j] += u;
                sq_sums[j] += u * u;
            }
        }
        let std_devs = (0..d)
            .map(|j| {
                let mean = sums[j] / n;
                let var = (sq_sums[j] / n - mean * mean).max(0.0);
                let sd = var.sqrt();
                if sd > 1e-12 {
                    sd
                } else {
                    1.0
                }
            })
            .collect();
        FeatureScaler {
            mins,
            ranges,
            std_devs,
        }
    }

    /// Number of features this scaler was fitted on.
    pub fn feature_count(&self) -> usize {
        self.mins.len()
    }

    /// Scales one row in place.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the fitted feature count.
    fn apply_row(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.mins.len(), "feature count mismatch");
        for (j, v) in row.iter_mut().enumerate() {
            *v = ((*v - self.mins[j]) / self.ranges[j]) / self.std_devs[j];
        }
    }

    /// Scales every row in place.
    pub fn apply(&self, rows: &mut [Vec<f64>]) {
        for row in rows {
            self.apply_row(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_training_features_have_unit_variance() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64, (i * i) as f64, 5.0])
            .collect();
        let scaler = FeatureScaler::fit(&rows);
        let mut scaled = rows.clone();
        scaler.apply(&mut scaled);
        for j in 0..2 {
            let n = scaled.len() as f64;
            let mean = scaled.iter().map(|r| r[j]).sum::<f64>() / n;
            let var = scaled.iter().map(|r| (r[j] - mean).powi(2)).sum::<f64>() / n;
            assert!((var - 1.0).abs() < 1e-9, "feature {j} variance {var}");
        }
    }

    #[test]
    fn constant_features_are_left_finite() {
        let rows = vec![vec![5.0], vec![5.0], vec![5.0]];
        let scaler = FeatureScaler::fit(&rows);
        let mut scaled = rows.clone();
        scaler.apply(&mut scaled);
        for r in &scaled {
            assert!(r[0].is_finite());
            assert_eq!(r[0], 0.0);
        }
    }

    #[test]
    fn rescaled_values_start_in_unit_interval() {
        let rows = vec![vec![10.0], vec![20.0], vec![15.0]];
        let scaler = FeatureScaler::fit(&rows);
        // Before the unit-variance division, values map onto [0,1]:
        // check extremes map to 0 and 1/σ.
        let mut lo = vec![10.0];
        let mut hi = vec![20.0];
        scaler.apply_row(&mut lo);
        scaler.apply_row(&mut hi);
        assert_eq!(lo[0], 0.0);
        assert!(hi[0] > 0.0);
    }

    #[test]
    fn apply_matches_between_splits() {
        let train = vec![vec![0.0, 1.0], vec![10.0, 3.0]];
        let scaler = FeatureScaler::fit(&train);
        let mut a = vec![vec![5.0, 2.0]];
        let mut b = vec![vec![5.0, 2.0]];
        scaler.apply(&mut a);
        scaler.apply(&mut b);
        assert_eq!(a, b);
        assert_eq!(scaler.feature_count(), 2);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_width_row_panics() {
        let scaler = FeatureScaler::fit(&[vec![1.0, 2.0]]);
        let mut row = vec![1.0];
        scaler.apply_row(&mut row);
    }
}
