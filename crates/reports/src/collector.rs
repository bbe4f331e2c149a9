//! The central report collector.
//!
//! Models the "central database" of §1: clients transmit counter-vector
//! reports; analyses query them by outcome class.  All reports in one
//! collector must share a counter layout (the same instrumented binary).

use crate::report::{Label, Report, ReportParseError};
use crate::sink::{ReportLayout, ReportSink, SinkError};
use crate::suffstats::SufficientStats;
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

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
    /// An I/O error while reading or writing the report stream.
    Io(std::io::Error),
    /// A malformed report line.
    Parse(ReportParseError),
    /// An ordered merge would break the run-id ordering invariant.
    OutOfOrder {
        /// Last run id already in the collector.
        prev: u64,
        /// Offending run id from the incoming reports.
        next: u64,
    },
}

impl fmt::Display for CollectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectError::LayoutMismatch { expected, got } => write!(
                f,
                "report layout mismatch: expected {expected} counters, got {got}"
            ),
            CollectError::Io(e) => write!(f, "report stream i/o error: {e}"),
            CollectError::Parse(e) => write!(f, "malformed report: {e}"),
            CollectError::OutOfOrder { prev, next } => write!(
                f,
                "ordered merge out of order: run {next} arrived after run {prev}"
            ),
        }
    }
}

impl Error for CollectError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CollectError::Io(e) => Some(e),
            CollectError::Parse(e) => Some(e),
            CollectError::LayoutMismatch { .. } | CollectError::OutOfOrder { .. } => None,
        }
    }
}

impl From<std::io::Error> for CollectError {
    fn from(e: std::io::Error) -> Self {
        CollectError::Io(e)
    }
}

impl From<ReportParseError> for CollectError {
    fn from(e: ReportParseError) -> Self {
        CollectError::Parse(e)
    }
}

/// The central database of reports for one instrumented program.
///
/// Alongside the raw reports, the collector folds every arrival into an
/// incrementally-updated [`SufficientStats`] accumulator, so analyses
/// that only need per-counter aggregates (§3.2, §5) never rescan the
/// report archive.
#[derive(Debug, Clone, Default)]
pub struct Collector {
    counters: usize,
    reports: Vec<Report>,
    successes: usize,
    failures: usize,
    stats: SufficientStats,
}

impl Collector {
    /// Creates a collector for reports with `counters` counters each.
    pub fn new(counters: usize) -> Self {
        Collector {
            counters,
            reports: Vec::new(),
            successes: 0,
            failures: 0,
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
        if report.counters.len() != self.counters {
            return Err(CollectError::LayoutMismatch {
                expected: self.counters,
                got: report.counters.len(),
            });
        }
        match report.label {
            Label::Success => self.successes += 1,
            Label::Failure => self.failures += 1,
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
        self.counters
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
        self.successes
    }

    /// Number of failed runs.
    pub fn failure_count(&self) -> usize {
        self.failures
    }

    /// All reports, in arrival order.
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// Iterates over reports with a given label.
    pub fn with_label(&self, label: Label) -> impl Iterator<Item = &Report> {
        self.reports.iter().filter(move |r| r.label == label)
    }

    /// Appends reports while enforcing that run ids stay strictly
    /// increasing, so a collector assembled from ordered shards is
    /// bit-identical to one filled serially.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::LayoutMismatch`] on a counter-length
    /// mismatch or [`CollectError::OutOfOrder`] if a run id does not
    /// strictly exceed its predecessor.  Reports before the offending one
    /// remain ingested.
    fn extend_ordered<I: IntoIterator<Item = Report>>(
        &mut self,
        reports: I,
    ) -> Result<(), CollectError> {
        for report in reports {
            if let Some(last) = self.reports.last() {
                if report.run_id <= last.run_id {
                    return Err(CollectError::OutOfOrder {
                        prev: last.run_id,
                        next: report.run_id,
                    });
                }
            }
            self.add(report)?;
        }
        Ok(())
    }

    /// Merges another collector's reports onto the end of this one,
    /// preserving run-id order.  The shard-merge primitive of the parallel
    /// campaign engine: workers fill private collectors, then the driver
    /// merges them back in shard order.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError::LayoutMismatch`] if the collectors disagree
    /// on counter layout, or [`CollectError::OutOfOrder`] if the incoming
    /// run ids do not continue this collector's sequence.
    pub fn merge(&mut self, other: Collector) -> Result<(), CollectError> {
        let _span = cbi_telemetry::span("collector.merge");
        cbi_telemetry::count("collector.merged_reports", other.reports.len() as u64);
        if other.counters != self.counters {
            return Err(CollectError::LayoutMismatch {
                expected: self.counters,
                got: other.counters,
            });
        }
        self.reports.reserve(other.reports.len());
        self.extend_ordered(other.reports)
    }

    /// Writes all reports as JSON lines.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError`] on I/O or serialization failure.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> Result<(), CollectError> {
        for r in &self.reports {
            writeln!(w, "{}", r.to_json()?)?;
        }
        Ok(())
    }

    /// Reads reports from a JSON-lines stream into a new collector whose
    /// layout is taken from the first report.
    ///
    /// # Errors
    ///
    /// Returns [`CollectError`] on I/O failure, malformed lines, or
    /// layout mismatches between lines.
    pub fn read_jsonl<R: BufRead>(r: R) -> Result<Self, CollectError> {
        let mut collector: Option<Collector> = None;
        for line in r.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let report = Report::from_json(&line)?;
            let c = collector.get_or_insert_with(|| Collector::new(report.counters.len()));
            c.add(report)?;
        }
        Ok(collector.unwrap_or_default())
    }
}

impl ReportSink for Collector {
    /// An empty collector adopts the announced layout; a non-empty one
    /// requires it to match.
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError> {
        if self.is_empty() {
            self.counters = layout.counters;
            self.stats = SufficientStats::new(layout.counters);
            Ok(())
        } else if self.counters == layout.counters {
            Ok(())
        } else {
            Err(SinkError::Collect(CollectError::LayoutMismatch {
                expected: self.counters,
                got: layout.counters,
            }))
        }
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
        // The matching layout is fine (stream continuation).
        c.begin(ReportLayout {
            counters: 2,
            layout_hash: 9,
        })
        .unwrap();
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
    fn jsonl_round_trip() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_jsonl(&mut buf).unwrap();
        let back = Collector::read_jsonl(buf.as_slice()).unwrap();
        assert_eq!(back.reports(), c.reports());
        assert_eq!(back.counter_count(), 3);
    }

    #[test]
    fn jsonl_skips_blank_lines_and_rejects_garbage() {
        let ok = "\n";
        assert!(Collector::read_jsonl(ok.as_bytes()).unwrap().is_empty());
        let bad = "{broken}";
        assert!(Collector::read_jsonl(bad.as_bytes()).is_err());
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

    #[test]
    fn merge_preserves_serial_order_and_counts() {
        let mut serial = Collector::new(2);
        let reports: Vec<Report> = (0..6)
            .map(|i| {
                let label = if i % 2 == 0 {
                    Label::Success
                } else {
                    Label::Failure
                };
                Report::new(i, label, vec![i, i + 1])
            })
            .collect();
        for r in &reports {
            serial.add(r.clone()).unwrap();
        }

        let mut shard_a = Collector::new(2);
        let mut shard_b = Collector::new(2);
        shard_a.extend_ordered(reports[..3].to_vec()).unwrap();
        shard_b.extend_ordered(reports[3..].to_vec()).unwrap();

        let mut merged = Collector::new(2);
        merged.merge(shard_a).unwrap();
        merged.merge(shard_b).unwrap();

        assert_eq!(merged.reports(), serial.reports());
        assert_eq!(merged.success_count(), serial.success_count());
        assert_eq!(merged.failure_count(), serial.failure_count());
    }

    #[test]
    fn merge_rejects_out_of_order_and_mismatched_shards() {
        let mut c = Collector::new(1);
        c.add(Report::new(5, Label::Success, vec![0])).unwrap();

        let mut stale = Collector::new(1);
        stale.add(Report::new(3, Label::Success, vec![0])).unwrap();
        let err = c.merge(stale).unwrap_err();
        assert!(matches!(err, CollectError::OutOfOrder { prev: 5, next: 3 }));
        assert!(err.to_string().contains("out of order"));

        let wrong_layout = Collector::new(2);
        assert!(matches!(
            c.merge(wrong_layout).unwrap_err(),
            CollectError::LayoutMismatch {
                expected: 1,
                got: 2
            }
        ));
        assert_eq!(c.len(), 1, "failed merges must not corrupt the collector");
    }
}
