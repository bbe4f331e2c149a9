//! The central report collector.
//!
//! Models the "central database" of §1: clients transmit counter-vector
//! reports; analyses query them by outcome class.  All reports in one
//! collector must share a counter layout (the same instrumented binary).

use crate::report::{Label, Report};
use crate::sink::{ReportLayout, ReportSink, SinkError};
use crate::suffstats::SufficientStats;
use std::error::Error;
use std::fmt;

/// Error from collector ingestion.
#[derive(Debug)]
pub enum CollectError {
    /// A report's counter vector length did not match the collector's.
    LayoutMismatch {
        /// Expected counter count.
        expected: usize,
        /// Received counter count.
        got: usize,
    },
    /// A layout of the expected width from another binary: the site-table
    /// fingerprints differ.
    LayoutHashMismatch {
        /// Counters per report, the same on both sides.
        counters: usize,
        /// Expected layout hash.
        expected: u64,
        /// Received layout hash.
        got: u64,
    },
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::LayoutMismatch { expected, got } => write!(
                f,
                "report layout mismatch: expected {expected} counters, got {got}"
            ),
            CollectError::LayoutHashMismatch {
                counters,
                expected,
                got,
            } => write!(
                f,
                "report layout mismatch: expected layout hash {expected:#018x}, \
                 got {got:#018x} (both {counters} counters)"
            ),
        }
    }
}

impl Error for CollectError {}

/// The central database of reports for one instrumented program.
///
/// Alongside the raw reports, the collector folds every arrival into an
/// incrementally-updated [`SufficientStats`] accumulator, so analyses
/// that only need per-counter aggregates (§3.2, §5) never rescan the
/// report archive; its width and run counts are the statistics'.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    /// The layout fixed by the first [`ReportSink::begin`].
    layout: Option<ReportLayout>,
    reports: Vec<Report>,
    stats: SufficientStats,
}

impl Collector {
    /// Creates a collector for reports with `counters` counters each.
    pub fn new(counters: usize) -> Self {
        Collector {
            layout: None,
            reports: Vec::new(),
            stats: SufficientStats::new(counters),
        }
    }

    /// Ingests one report.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::LayoutMismatch`] if the report's counter
    /// vector has the wrong length.
    pub fn add(&mut self, report: Report) -> Result<(), CollectError> {
        if report.counters.len() != self.counter_count() {
            return Err(CollectError::LayoutMismatch {
                expected: self.counter_count(),
                got: report.counters.len(),
            });
        }
        self.stats.update(&report);
        self.reports.push(report);
        Ok(())
    }

    /// The incrementally-maintained per-counter aggregates over every
    /// report ingested so far.
    pub fn stats(&self) -> &SufficientStats {
        &self.stats
    }

    /// Number of counters per report.
    pub fn counter_count(&self) -> usize {
        self.stats.counter_count()
    }

    /// Total reports collected.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Whether no reports have been collected.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Number of successful runs.
    pub fn success_count(&self) -> usize {
        self.stats.success_runs() as usize
    }

    /// Number of failed runs.
    pub fn failure_count(&self) -> usize {
        self.stats.failure_runs() as usize
    }

    /// All reports, in arrival order.
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// Iterates over reports with a given label.
    pub fn with_label(&self, label: Label) -> impl Iterator<Item = &Report> {
        self.reports.iter().filter(move |r| r.label == label)
    }
}

impl ReportSink for Collector {
    /// Follows [`ReportLayout::fix`]: the first layout is fixed — an
    /// empty collector takes its width, one already holding reports
    /// [`add`](Collector::add)ed must match it — a later equal one is a
    /// no-op, and any other is refused.
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError> {
        if !self.is_empty() && layout.counters != self.counter_count() {
            return Err(SinkError::Collect(CollectError::LayoutMismatch {
                expected: self.counter_count(),
                got: layout.counters,
            }));
        }
        if ReportLayout::fix(&mut self.layout, layout)? && self.is_empty() {
            self.stats = SufficientStats::new(layout.counters);
        }
        Ok(())
    }

    fn accept(&mut self, report: Report) -> Result<(), SinkError> {
        self.add(report).map_err(SinkError::Collect)
    }
}

impl Extend<Report> for Collector {
    /// Extends the collector, panicking on layout mismatches.
    ///
    /// Use [`Collector::add`] when mismatches must be handled gracefully.
    fn extend<T: IntoIterator<Item = Report>>(&mut self, iter: T) {
        for r in iter {
            self.add(r).expect("report layout mismatch in extend");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Collector {
        let mut c = Collector::new(3);
        c.add(Report::new(0, Label::Success, vec![1, 0, 2]))
            .unwrap();
        c.add(Report::new(1, Label::Failure, vec![0, 5, 0]))
            .unwrap();
        c.add(Report::new(2, Label::Success, vec![0, 0, 0]))
            .unwrap();
        c
    }

    #[test]
    fn incremental_stats_match_rescan() {
        let c = sample();
        let rescan: SufficientStats = c.reports().iter().cloned().collect();
        assert_eq!(c.stats(), &rescan);
        assert_eq!(c.stats().success_runs(), 2);
        assert_eq!(c.stats().failure_runs(), 1);
    }

    #[test]
    fn sink_begin_adopts_layout_when_empty() {
        let mut c = Collector::default();
        c.begin(ReportLayout {
            counters: 2,
            layout_hash: 0,
        })
        .unwrap();
        c.accept(Report::new(0, Label::Success, vec![1, 0]))
            .unwrap();
        assert_eq!(c.counter_count(), 2);
        assert_eq!(c.stats().counter_count(), 2);
        // Non-empty: a different layout is rejected.
        let err = c
            .begin(ReportLayout {
                counters: 3,
                layout_hash: 0,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            SinkError::Collect(CollectError::LayoutMismatch { .. })
        ));
        // The same width from another binary is rejected too.
        let err = c
            .begin(ReportLayout {
                counters: 2,
                layout_hash: 9,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            SinkError::Collect(CollectError::LayoutHashMismatch {
                counters: 2,
                expected: 0,
                got: 9
            })
        ));
        // The matching layout is fine (stream continuation) and clears
        // nothing.
        c.begin(ReportLayout {
            counters: 2,
            layout_hash: 0,
        })
        .unwrap();
        assert_eq!(c.len(), 1);
        // A collector filled by `add` keeps its width.
        let mut added = Collector::new(2);
        added
            .add(Report::new(0, Label::Failure, vec![0, 1]))
            .unwrap();
        let three = ReportLayout {
            counters: 3,
            layout_hash: 0,
        };
        assert!(added.begin(three).is_err());
    }

    #[test]
    fn counts_by_label() {
        let c = sample();
        assert_eq!(c.len(), 3);
        assert_eq!(c.success_count(), 2);
        assert_eq!(c.failure_count(), 1);
        assert_eq!(c.with_label(Label::Failure).count(), 1);
        assert_eq!(c.counter_count(), 3);
        assert!(!c.is_empty());
    }

    #[test]
    fn layout_mismatch_rejected() {
        let mut c = Collector::new(3);
        let err = c.add(Report::new(0, Label::Success, vec![1])).unwrap_err();
        assert!(matches!(
            err,
            CollectError::LayoutMismatch {
                expected: 3,
                got: 1
            }
        ));
        assert!(err.to_string().contains("expected 3"));
    }

    #[test]
    fn extend_accepts_matching_reports() {
        let mut c = Collector::new(2);
        c.extend(vec![
            Report::new(0, Label::Success, vec![1, 1]),
            Report::new(1, Label::Failure, vec![0, 1]),
        ]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "layout mismatch")]
    fn extend_panics_on_mismatch() {
        let mut c = Collector::new(2);
        c.extend(vec![Report::new(0, Label::Success, vec![1])]);
    }
}
