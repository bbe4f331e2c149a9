//! Streaming analysis over a report stream — §5's "sufficient
//! statistics" made operational.
//!
//! A [`StreamingAnalyzer`] is a [`ReportSink`] that folds each report
//! into per-counter [`SufficientStats`] the moment it arrives and then
//! discards it: integer state of a size fixed by the counter layout,
//! independent of how many trials stream through, and the same whatever
//! order the reports arrive in.  It trains no model: the §3.3 crash
//! predictor is [`cbi_stats::train`] over the rows, which a caller that
//! wants it runs beside the fold
//! ([`EpochAggregator::fold_and_train`](crate::EpochAggregator::fold_and_train)).
//!
//! A report of the wrong width is a typed
//! [`CollectError::LayoutMismatch`], as in [`cbi_reports::Collector`].

use crate::pipeline::{eliminate_stats, EliminationReport};
use cbi_instrument::SiteTable;
use cbi_reports::{
    nonzero, CollectError, Label, Report, ReportLayout, ReportSink, SinkError, SufficientStats,
};
use cbi_stats::TrainConfig;

/// The streaming crash predictor's settings: the one [`TrainConfig`],
/// whose default is a single pass over the reports in arrival order.
pub use cbi_stats::TrainConfig as StreamingConfig;

/// A [`ReportSink`] that analyzes reports as they arrive and keeps none.
#[derive(Debug, Clone)]
pub struct StreamingAnalyzer {
    config: TrainConfig,
    layout: Option<ReportLayout>,
    stats: SufficientStats,
}

impl StreamingAnalyzer {
    /// Creates an analyzer for a stream whose crash predictor is trained
    /// with `config` (see [`config`](Self::config)).  The counter layout
    /// is adopted from the sink's `begin` call.
    pub fn new(config: TrainConfig) -> Self {
        StreamingAnalyzer {
            config,
            layout: None,
            stats: SufficientStats::new(0),
        }
    }

    /// The settings a §3.3 model of this stream is trained with; the
    /// analyzer itself keeps no model.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Reports folded in so far.
    pub fn seen(&self) -> u64 {
        self.stats.success_runs() + self.stats.failure_runs()
    }

    /// The layout announced by the stream, if any yet.
    pub fn layout(&self) -> Option<ReportLayout> {
        self.layout
    }

    /// The accumulated per-counter aggregates.
    pub fn stats(&self) -> &SufficientStats {
        &self.stats
    }

    /// Runs the §3.2 elimination strategies over the accumulated
    /// aggregates, naming survivors from `sites`.
    pub fn eliminate(&self, sites: &SiteTable) -> EliminationReport {
        eliminate_stats(&self.stats, &sites.groups(), sites)
    }
}

impl ReportSink for StreamingAnalyzer {
    /// Follows [`ReportLayout::fix`]: the first `begin` fixes the layout;
    /// later ones (stream continuations, further batches and
    /// connections) must match it.
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError> {
        if ReportLayout::fix(&mut self.layout, layout)? {
            self.stats = SufficientStats::new(layout.counters);
        }
        Ok(())
    }

    fn accept(&mut self, report: Report) -> Result<(), SinkError> {
        self.fold(
            report.label,
            report.counters.len(),
            nonzero(&report.counters),
        )
    }
}

impl StreamingAnalyzer {
    /// Folds one report given its label, its width and its nonzero
    /// counters (ascending `(index, value)` pairs), so a caller that
    /// already holds them — [`EpochAggregator`](crate::EpochAggregator),
    /// from one scan of a dense report or straight from wire bytes —
    /// needs no dense vector.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError::NotBegun`] before the first `begin`, and a
    /// [`CollectError::LayoutMismatch`] if `width` is not the layout's.
    pub(crate) fn fold(
        &mut self,
        label: Label,
        width: usize,
        counters: impl Iterator<Item = (usize, u64)>,
    ) -> Result<(), SinkError> {
        if self.layout.is_none() {
            return Err(SinkError::NotBegun);
        }
        if width != self.stats.counter_count() {
            return Err(SinkError::Collect(CollectError::LayoutMismatch {
                expected: self.stats.counter_count(),
                got: width,
            }));
        }
        self.stats.update_nonzero(label, counters);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_reports::Label;

    fn layout(counters: usize) -> ReportLayout {
        ReportLayout {
            counters,
            layout_hash: 0xfeed,
        }
    }

    #[test]
    fn accept_before_begin_is_rejected() {
        let mut a = StreamingAnalyzer::new(TrainConfig::default());
        let err = a
            .accept(Report::new(0, Label::Success, vec![1]))
            .unwrap_err();
        assert!(matches!(err, SinkError::NotBegun));
    }

    #[test]
    fn aggregates_match_direct_updates() {
        let mut a = StreamingAnalyzer::new(TrainConfig::default());
        a.begin(layout(2)).unwrap();
        a.accept(Report::new(0, Label::Success, vec![1, 0]))
            .unwrap();
        a.accept(Report::new(1, Label::Failure, vec![0, 3]))
            .unwrap();
        assert_eq!(a.seen(), 2);
        assert_eq!(a.stats().failure_runs(), 1);
        assert_eq!(a.stats().nonzero_failures(1), 1);
        assert_eq!(a.stats().nonzero_successes(0), 1);
    }

    #[test]
    fn a_report_of_the_wrong_width_is_a_typed_error() {
        let mut a = StreamingAnalyzer::new(TrainConfig::default());
        a.begin(layout(3)).unwrap();
        for width in [2, 4] {
            let err = a
                .accept(Report::new(0, Label::Failure, vec![1; width]))
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    SinkError::Collect(CollectError::LayoutMismatch { expected: 3, got })
                        if got == width
                ),
                "{err:?}"
            );
        }
        assert_eq!(a.seen(), 0);
        assert_eq!(a.stats().failure_runs(), 0);
    }

    #[test]
    fn later_begin_must_match_layout() {
        let mut a = StreamingAnalyzer::new(TrainConfig::default());
        a.begin(layout(2)).unwrap();
        a.begin(layout(2)).unwrap();
        assert!(a.begin(layout(3)).is_err());
        // A different hash with the same width is also a mismatch.
        let err = a
            .begin(ReportLayout {
                counters: 2,
                layout_hash: 0xdead,
            })
            .unwrap_err();
        assert!(matches!(err, SinkError::Collect(_)));
    }
}
