//! `cbibench check A.json B.json`: does B regress on A, judged by the
//! benchmark's own bounds?  One verdict per (workload, gated metric).

use crate::json::Value;
use crate::spec::{self, Better};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between runs is wider than the bound and the two
    /// samples overlap: the data cannot say.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric: `a` the baseline sample, `b` the candidate, each
/// compared by the value a run reports (its better quartile).
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    // Orient both samples so that smaller is better.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let (a_val, b_val) = (sign * a.reported(better), sign * b.reported(better));
    let extremes = |s: &Summary| {
        let oriented = s.values.iter().map(|v| sign * v);
        (
            oriented.clone().fold(f64::INFINITY, f64::min),
            oriented.fold(f64::NEG_INFINITY, f64::max),
        )
    };
    let ((a_min, a_max), (b_min, b_max)) = (extremes(a), extremes(b));
    let worse_by = if a_val == b_val {
        0.0
    } else {
        (b_val - a_val) / a_val.abs().max(f64::MIN_POSITIVE)
    };
    if b_max <= a_min {
        Verdict::Ok // every run of B reads at least as well as every run of A
    } else if b_min > a_max && worse_by > bound {
        Verdict::Regressed // … and the reverse, beyond the bound
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn failed_share(workload: &Value) -> Option<f64> {
    let failed = workload.get("failed")?.as_f64()?;
    let attempted = workload.get("attempted")?.as_f64()?;
    Some(failed / attempted.max(1.0))
}

/// Compares two result files and prints one row per gated metric.
/// Returns whether B passes: no regressed row and no workload whose
/// failed share rose.
///
/// # Errors
///
/// Returns a message if either document lacks the result-file shape.
pub fn compare(a: &Value, b: &Value) -> Result<bool, String> {
    let workloads = |v: &'_ Value| -> Result<Vec<(String, Value)>, String> {
        Ok(v.get("workloads")
            .and_then(Value::as_object)
            .ok_or("result file has no `workloads` object")?
            .to_vec())
    };
    let (a_workloads, b_workloads) = (workloads(a)?, workloads(b)?);
    let mut pass = true;
    let mut rows = 0;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for (name, a_workload) in &a_workloads {
        let Some((_, b_workload)) = b_workloads.iter().find(|(n, _)| n == name) else {
            continue;
        };
        let metrics = |w: &'_ Value| {
            w.get("metrics")
                .and_then(Value::as_object)
                .map(<[_]>::to_vec)
        };
        let (Some(a_metrics), Some(b_metrics)) = (metrics(a_workload), metrics(b_workload)) else {
            return Err(format!("workload {name} has no `metrics` object"));
        };
        for (metric, a_value) in &a_metrics {
            let Some(def) = spec::metric(metric) else {
                continue;
            };
            let (Some(bound), Some((_, b_value))) =
                (def.bound, b_metrics.iter().find(|(n, _)| n == metric))
            else {
                continue;
            };
            let (Some(sa), Some(sb)) = (Summary::from_json(a_value), Summary::from_json(b_value))
            else {
                return Err(format!("{name}/{metric}: malformed summary"));
            };
            let verdict = judge(&sa, &sb, def.better, bound);
            pass &= verdict != Verdict::Regressed;
            rows += 1;
            let (va, vb) = (sa.reported(def.better), sb.reported(def.better));
            println!(
                "{name:<14} {metric:<18} {va:>14.6} {vb:>14.6} {:>+7.1}% {:>6.0}%  {}",
                100.0 * (vb - va) / va.abs().max(f64::MIN_POSITIVE),
                100.0 * bound,
                verdict.name()
            );
        }
        if let (Some(fa), Some(fb)) = (failed_share(a_workload), failed_share(b_workload)) {
            if fb > fa {
                pass = false;
                println!("{name:<14} failed share rose from {fa:.6} to {fb:.6}  regressed");
            }
        }
    }
    if rows == 0 {
        return Err("the two files share no gated metric".into());
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(values: &[f64]) -> Summary {
        Summary::of(values.to_vec())
    }

    #[test]
    fn verdicts_follow_bound_spread_and_separation() {
        let base = sample(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        // Within the bound.
        let same = sample(&[1.03, 1.02, 1.04, 1.03, 1.01]);
        assert_eq!(judge(&base, &same, Better::Lower, 0.10), Verdict::Ok);
        // Worse than the bound, tight samples.
        let slow = sample(&[1.20, 1.21, 1.19, 1.22, 1.20]);
        assert_eq!(judge(&base, &slow, Better::Lower, 0.10), Verdict::Regressed);
        // The same numbers are an improvement when higher is better.
        assert_eq!(judge(&base, &slow, Better::Higher, 0.10), Verdict::Ok);
        assert_eq!(
            judge(&slow, &base, Better::Higher, 0.10),
            Verdict::Regressed
        );
        // Noisy and overlapping: cannot say.
        let noisy = sample(&[0.8, 1.6, 1.0, 1.5, 0.9]);
        assert_eq!(
            judge(&base, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Noisy but every run better than every baseline run.
        let fast = sample(&[0.5, 0.9, 0.6, 0.8, 0.7]);
        assert_eq!(judge(&base, &fast, Better::Lower, 0.10), Verdict::Ok);
        // Noisy but every run worse, far past the bound.
        let awful = sample(&[2.0, 3.0, 2.2, 2.9, 2.5]);
        assert_eq!(
            judge(&base, &awful, Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Exact counts that do not move.
        let count = sample(&[1200.0; 3]);
        assert_eq!(judge(&count, &count, Better::Lower, 0.10), Verdict::Ok);
    }

    #[test]
    fn compare_flags_regressions_and_failed_share() {
        let file = |wall: f64, failed: u64| {
            let text = format!(
                "{{\"workloads\": {{\"build-farm\": {{\"attempted\": 100, \"failed\": {failed}, \
                 \"metrics\": {{\"wall_s\": {{\"values\": [{wall}, {wall}, {wall}]}}, \
                 \"minic.parse_s\": {{\"values\": [1, 9, 5]}}}}}}}}}}"
            );
            crate::json::parse(&text).unwrap()
        };
        assert_eq!(compare(&file(1.0, 0), &file(1.05, 0)), Ok(true));
        assert_eq!(compare(&file(1.0, 0), &file(1.5, 0)), Ok(false));
        assert_eq!(compare(&file(1.0, 0), &file(1.0, 1)), Ok(false));
        assert!(compare(&file(1.0, 0), &Value::Null).is_err());
    }
}
