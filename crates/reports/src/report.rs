//! Feedback reports (§2.5).
//!
//! "The final form of the data is a vector of integers, with position *i*
//! containing the number of times we observed that the *i*th predicate was
//! true" — plus "a flag indicating whether it completed successfully or was
//! aborted" (§3.3.1).  Ordering information is deliberately discarded to
//! keep reports compact and constant-size per execution.

use std::fmt;

/// The binary outcome label attached to each report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// The run completed successfully (class 0 in §3.3.2).
    Success,
    /// The run crashed or failed an assertion (class 1).
    Failure,
}

impl Label {
    /// The regression target: 0 for success, 1 for failure.
    pub fn as_target(self) -> f64 {
        match self {
            Label::Success => 0.0,
            Label::Failure => 1.0,
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Success => f.write_str("success"),
            Label::Failure => f.write_str("failure"),
        }
    }
}

/// The nonzero entries of a dense counter vector as `(index, value)`
/// pairs in ascending index order.  Sparse sampling leaves almost every
/// counter zero (§2.5), so every fold of a dense report iterates these
/// instead of the vector, and the scan passes over each block of eight
/// counters (the last one may be shorter) whose OR is zero with one test
/// instead of eight.
pub fn nonzero(counters: &[u64]) -> impl Iterator<Item = (usize, u64)> + Clone + '_ {
    // `i` is the first counter not yet visited.
    let mut i = 0usize;
    std::iter::from_fn(move || loop {
        if i.is_multiple_of(8) {
            while let Some(block) = counters.get(i..i + 8) {
                if block.iter().fold(0, |any, &v| any | v) != 0 {
                    break;
                }
                i += 8;
            }
        }
        let value = *counters.get(i)?;
        i += 1;
        if value != 0 {
            return Some((i - 1, value));
        }
    })
}

/// One execution's feedback report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Client-side run identifier (not interpreted by analyses).
    pub run_id: u64,
    /// Success or failure.
    pub label: Label,
    /// The counter vector, laid out per the program's site table.
    pub counters: Vec<u64>,
}

impl Report {
    /// Creates a report.
    pub fn new(run_id: u64, label: Label, counters: Vec<u64>) -> Self {
        Report {
            run_id,
            label,
            counters,
        }
    }

    /// Whether counter `i` was ever observed true in this run.
    pub fn observed(&self, i: usize) -> bool {
        self.counters.get(i).copied().unwrap_or(0) > 0
    }

    /// Number of counters in the report.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether the report has no counters.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_as_targets() {
        assert_eq!(Label::Success.as_target(), 0.0);
        assert_eq!(Label::Failure.as_target(), 1.0);
        assert_eq!(Label::Failure.to_string(), "failure");
    }

    #[test]
    fn nonzero_skips_zero_blocks_and_finds_every_nonzero_counter() {
        // Nineteen counters: two full blocks of eight and a tail of
        // three, with nonzeros at block edges and in the tail.
        let mut counters = vec![0u64; 19];
        for &i in &[0usize, 7, 16, 18] {
            counters[i] = 1 + i as u64;
        }
        let found: Vec<(usize, u64)> = nonzero(&counters).collect();
        assert_eq!(found, vec![(0, 1), (7, 8), (16, 17), (18, 19)]);
        let every: Vec<(usize, u64)> = (0..19).map(|i| (i, i as u64 + 1)).collect();
        let dense: Vec<u64> = every.iter().map(|&(_, v)| v).collect();
        assert_eq!(nonzero(&dense).collect::<Vec<_>>(), every);
        assert_eq!(nonzero(&[0; 19]).count(), 0);
        assert_eq!(nonzero(&[]).count(), 0);
    }

    #[test]
    fn observed_counters() {
        let r = Report::new(1, Label::Success, vec![0, 3, 0]);
        assert!(!r.observed(0));
        assert!(r.observed(1));
        assert!(!r.observed(2));
        assert!(!r.observed(99), "out of range counts as unobserved");
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }
}
