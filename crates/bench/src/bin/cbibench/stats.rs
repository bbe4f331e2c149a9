//! Order statistics: the summary every metric is reported as, and the
//! rule that picks which tail percentile a sample supports.

use crate::json::{self, Value};
use crate::spec::Better;

/// Median, quartiles and the raw sample of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// The samples in the order they were measured.
    pub values: Vec<f64>,
}

impl Summary {
    /// Summarises a non-empty sample.
    pub fn of(values: Vec<f64>) -> Summary {
        let (q1, median, q3) = quartiles(&values);
        Summary {
            median,
            q1,
            q3,
            values,
        }
    }

    /// The value a run reports for this metric: the better quartile.
    ///
    /// On a shared machine interference only ever adds time, and it
    /// comes in bursts of seconds that can cover most of a run; the
    /// quartile on the good side of the median stays put when the
    /// median does not (README, "Steadiness").  Median and both
    /// quartiles are in every result file.
    pub fn reported(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.q1,
            Better::Higher => self.q3,
        }
    }

    /// Distance between the quartiles as a share of the median (0 for a
    /// zero median: such a metric is a count that never fired).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self, unit: &str) -> Value {
        json::obj([
            ("median", Value::from(self.median)),
            ("q1", Value::from(self.q1)),
            ("q3", Value::from(self.q3)),
            ("n", Value::from(self.values.len() as u64)),
            ("unit", Value::from(unit)),
            (
                "values",
                Value::Arr(self.values.iter().map(|&v| Value::from(v)).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let values = v
            .get("values")?
            .as_array()?
            .iter()
            .map(Value::as_f64)
            .collect::<Option<Vec<f64>>>()?;
        (!values.is_empty()).then(|| Summary::of(values))
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) computes
/// them; a single value is its own three quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n == 1 {
        return (data[0], data[0], data[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// A percentile in parts per 100 000, so p99.99 is exact.
pub type Pcm = u64;
pub const P50: Pcm = 50_000;
pub const P99: Pcm = 99_000;

/// `p99.9`-style label of a percentile.
pub fn percentile_label(p: Pcm) -> String {
    format!("p{}", p as f64 / 1000.0)
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: Pcm) -> usize {
    (n as u64 * p).div_ceil(100_000) as usize
}

/// The nearest-rank percentile of an ascending, non-empty sample.
pub fn percentile(sorted: &[u64], p: Pcm) -> u64 {
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
/// beyond it, or `None` when even the median has fewer (n < 20).
pub fn supported_percentile(n: usize) -> Option<Pcm> {
    [99_990, 99_900, P99, 90_000, P50]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(n, p)) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            (15.0, 30.0, 45.0)
        );
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]).1, 2.5);
    }

    #[test]
    fn spread_is_the_interquartile_share_of_the_median() {
        let s = Summary::of((1..=10).map(f64::from).collect());
        assert_eq!(s.spread(), (8.25 - 2.75) / 5.5);
        assert_eq!(Summary::of(vec![0.0, 0.0, 0.0]).spread(), 0.0);
        assert_eq!(s.reported(Better::Lower), 2.75);
        assert_eq!(s.reported(Better::Higher), 8.25);
        assert_eq!(Summary::from_json(&s.to_json("s")), Some(s));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sample: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sample, P50), 500);
        assert_eq!(percentile(&sample, P99), 990);
        assert_eq!(percentile(&sample, 100_000), 1000);
        assert_eq!(percentile(&[42], P50), 42);
        assert_eq!(percentile_label(99_900), "p99.9");
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(P50));
        assert_eq!(supported_percentile(99), Some(P50));
        assert_eq!(supported_percentile(100), Some(90_000));
        assert_eq!(supported_percentile(999), Some(90_000));
        assert_eq!(supported_percentile(1000), Some(P99));
        assert_eq!(supported_percentile(10_000), Some(99_900));
        assert_eq!(supported_percentile(100_000), Some(99_990));
    }
}
