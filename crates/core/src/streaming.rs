//! Streaming analysis over a report stream — §5's "sufficient
//! statistics" made operational.
//!
//! A [`StreamingAnalyzer`] is a [`ReportSink`] that folds each report
//! into fixed-size state the moment it arrives and then discards it:
//! per-counter [`SufficientStats`] for the §3.2 elimination strategies,
//! and an [`OnlineTrainer`] for the §3.3 crash predictor.  Memory use is
//! `O(counters)`, independent of how many trials stream through — the
//! [`high_water`](StreamingAnalyzer::high_water) gauge proves no report
//! vector ever accumulates.
//!
//! Because the analyzer's update sequence is determined entirely by the
//! report stream, a local analyzer fed by the campaign driver and a
//! remote one fed over the wire reach bit-identical state whenever the
//! streams are bit-identical — which the ordered campaign merge and the
//! framed wire format guarantee.
//!
//! A report of the wrong width is a typed
//! [`CollectError::LayoutMismatch`], as in [`cbi_reports::Collector`].
//! The trainer can be detached for the length of a whole-stream fold,
//! which then moves only the integer statistics while the trainer is fed
//! the same reports on another thread
//! ([`EpochAggregator::train_beside`](crate::EpochAggregator::train_beside));
//! a report accepted one at a time trains inline.

use crate::pipeline::{eliminate_stats, EliminationReport};
use cbi_instrument::SiteTable;
use cbi_reports::{
    nonzero, CollectError, Label, Report, ReportLayout, ReportSink, SinkError, SufficientStats,
};
use cbi_stats::{LogisticModel, OnlineTrainer};

/// Hyper-parameters for the streaming crash predictor.
#[derive(Debug, Clone, Copy)]
pub struct StreamingConfig {
    /// Stochastic-gradient learning rate.
    pub learning_rate: f64,
    /// ℓ₁ regularization strength.
    pub lambda: f64,
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig {
            learning_rate: 0.05,
            lambda: 0.02,
        }
    }
}

/// A [`ReportSink`] that analyzes reports as they arrive and keeps none.
#[derive(Debug, Clone)]
pub struct StreamingAnalyzer {
    config: StreamingConfig,
    layout: Option<ReportLayout>,
    stats: SufficientStats,
    trainer: Option<OnlineTrainer>,
    resident: usize,
    high_water: usize,
    seen: u64,
}

impl StreamingAnalyzer {
    /// Creates an analyzer with the given predictor hyper-parameters.
    /// The counter layout is adopted from the sink's `begin` call.
    pub fn new(config: StreamingConfig) -> Self {
        StreamingAnalyzer {
            config,
            layout: None,
            stats: SufficientStats::new(0),
            trainer: None,
            resident: 0,
            high_water: 0,
            seen: 0,
        }
    }

    /// Reports folded in so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The most reports ever resident in the analyzer at once.  Stays at
    /// `1` no matter how long the stream: each report is folded into the
    /// aggregates and dropped before the next is accepted.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// The layout announced by the stream, if any yet.
    pub fn layout(&self) -> Option<ReportLayout> {
        self.layout
    }

    /// The accumulated per-counter aggregates.
    pub fn stats(&self) -> &SufficientStats {
        &self.stats
    }

    /// A snapshot of the streaming crash-prediction model, or `None`
    /// before the first `begin`.
    pub fn model(&self) -> Option<LogisticModel> {
        self.trainer.as_ref().map(OnlineTrainer::model)
    }

    /// Runs the §3.2 elimination strategies over the accumulated
    /// aggregates, naming survivors from `sites`.
    pub fn eliminate(&self, sites: &SiteTable) -> EliminationReport {
        eliminate_stats(&self.stats, &sites.groups(), sites)
    }

    /// Counter indices ranked by streaming-model coefficient magnitude,
    /// largest first, with their weights.  Unlike the batch study the
    /// feature space is the full counter layout (no preprocessing), so
    /// indices are counter indices directly.
    pub fn ranking(&self) -> Vec<(usize, f64)> {
        match self.model() {
            Some(model) => model
                .ranked_features()
                .into_iter()
                .map(|f| (f, model.weights[f]))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The top `n` ranked counters with human-readable predicate names.
    pub fn top_named(&self, sites: &SiteTable, n: usize) -> Vec<(String, f64)> {
        self.ranking()
            .into_iter()
            .take(n)
            .map(|(c, w)| (sites.predicate_name(c), w))
            .collect()
    }

    /// Per-counter contingency tables over the accumulated aggregates,
    /// with site-reach estimates from the site layout — the input every
    /// `cbi-scoring` measure consumes.
    fn contingency(&self, sites: &SiteTable) -> Vec<cbi_stats::Contingency> {
        cbi_stats::contingency_tables(&self.stats, &sites.groups())
    }

    /// Counter indices ranked by a statistical scorer over the streamed
    /// aggregates, best first, scores in fixed-point per-mille.  Pure
    /// integer arithmetic end to end: byte-identical at any worker
    /// count, unlike the float-weighted regression [`ranking`](Self::ranking).
    pub fn scored_ranking(
        &self,
        sites: &SiteTable,
        scorer: &dyn cbi_scoring::Scorer,
    ) -> Vec<(usize, i64)> {
        cbi_scoring::rank_tables(scorer, &self.contingency(sites))
    }
}

impl ReportSink for StreamingAnalyzer {
    /// The first `begin` fixes the layout; later ones (stream
    /// continuations, further connections) must match it.
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError> {
        match self.layout {
            None => {
                self.stats = SufficientStats::new(layout.counters);
                self.trainer = Some(OnlineTrainer::new(
                    layout.counters,
                    self.config.learning_rate,
                    self.config.lambda,
                ));
                self.layout = Some(layout);
                Ok(())
            }
            Some(prev) if prev == layout => Ok(()),
            Some(prev) => Err(SinkError::Collect(CollectError::LayoutMismatch {
                expected: prev.counters,
                got: layout.counters,
            })),
        }
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
    /// needs no dense vector.  While the trainer is
    /// [detached](Self::detach_trainer) only the integer statistics move.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError::NotBegun`] before the first `begin`, and a
    /// [`CollectError::LayoutMismatch`] if `width` is not the layout's.
    pub(crate) fn fold(
        &mut self,
        label: Label,
        width: usize,
        counters: impl Iterator<Item = (usize, u64)> + Clone,
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
        self.resident += 1;
        self.high_water = self.high_water.max(self.resident);
        self.stats.update_nonzero(label, counters.clone());
        if let Some(trainer) = self.trainer.as_mut() {
            trainer.update_nonzero(counters, label == Label::Failure);
        }
        self.seen += 1;
        // Nothing above retains the report: the caller drops it next.
        self.resident -= 1;
        Ok(())
    }

    /// Takes the §3.3 trainer out, so the folds that follow update the
    /// integer statistics alone while the trainer is fed elsewhere; `None`
    /// before `begin`.  [`attach_trainer`](Self::attach_trainer) puts it
    /// back; until then [`model`](Self::model) is `None`.
    pub(crate) fn detach_trainer(&mut self) -> Option<OnlineTrainer> {
        self.trainer.take()
    }

    /// Reinstalls a trainer taken by [`detach_trainer`](Self::detach_trainer).
    pub(crate) fn attach_trainer(&mut self, trainer: OnlineTrainer) {
        self.trainer = Some(trainer);
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
        let mut a = StreamingAnalyzer::new(StreamingConfig::default());
        let err = a
            .accept(Report::new(0, Label::Success, vec![1]))
            .unwrap_err();
        assert!(matches!(err, SinkError::NotBegun));
    }

    #[test]
    fn aggregates_match_direct_updates() {
        let mut a = StreamingAnalyzer::new(StreamingConfig::default());
        a.begin(layout(2)).unwrap();
        a.accept(Report::new(0, Label::Success, vec![1, 0]))
            .unwrap();
        a.accept(Report::new(1, Label::Failure, vec![0, 3]))
            .unwrap();
        assert_eq!(a.seen(), 2);
        assert_eq!(a.high_water(), 1);
        assert_eq!(a.stats().failure_runs(), 1);
        assert_eq!(a.stats().nonzero_failures(1), 1);
        let model = a.model().unwrap();
        assert_eq!(model.weights.len(), 2);
    }

    #[test]
    fn a_report_of_the_wrong_width_is_a_typed_error() {
        let mut a = StreamingAnalyzer::new(StreamingConfig::default());
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
        let mut a = StreamingAnalyzer::new(StreamingConfig::default());
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
