//! Per-epoch aggregation over a community report stream.
//!
//! §3.1.3 frames detection as a function of *community runs*: "sixty
//! million Office XP licenses … produce 230,258 runs every nineteen
//! minutes".  An [`EpochAggregator`] extends the streaming server side
//! with exactly that view: it folds every accepted report into the
//! O(counters) [`StreamingAnalyzer`] state plus a shared
//! [`FirstObservation`] record, and every `epoch_len` runs it closes an
//! epoch and snapshots the questions a deployment operator asks —
//! detection latency of a target predicate, elimination-survivor count,
//! regression rank against ground truth, failure counts, and bytes on
//! the wire.
//!
//! The aggregator is itself a [`ReportSink`], so it can sit behind the
//! transactional batch ingest exactly where a plain analyzer would.

use crate::detection::FirstObservation;
use crate::streaming::{StreamingAnalyzer, StreamingConfig};
use cbi_instrument::SiteTable;
use cbi_reports::{
    nonzero, BatchStats, CollectError, DecodeOutcome, Label, Provenance, Report, ReportLayout,
    ReportSink, SinkError, SparseArchive, WireErrorKind, WireReader,
};
use cbi_stats::OnlineTrainer;
use std::collections::{BTreeMap, VecDeque};

/// Per-cohort ingest accounting: batches, bytes, corruption, rejection,
/// and retry totals attributable to one client cohort (e.g.
/// `"1/100+stale"`).  All fields are cumulative.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CohortStats {
    /// Batches committed from this cohort.
    pub batches: u64,
    /// Wire bytes committed from this cohort.
    pub bytes: u64,
    /// Committed batches whose delivered bytes were altered in flight.
    pub corrupt: u64,
    /// Batches rejected (all kinds).
    pub rejected: u64,
    /// Rejections specifically from stale-version layout mismatches.
    pub stale: u64,
    /// Delivery retries attributed by the transport.
    pub retries: u64,
}

/// One ingest event as seen by the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestEvent {
    /// Monotonic sequence number across the whole stream (0-based).
    pub seq: u64,
    /// Transmitting client id.
    pub client: u64,
    /// Zero-based delivery attempt index.
    pub attempt: u32,
    /// Cohort label.
    pub cohort: String,
    /// How decoding went.
    pub outcome: DecodeOutcome,
    /// Delivered payload bytes.
    pub bytes: u64,
}

/// A bounded ring buffer of the last N ingest events — the "flight
/// recorder" dumped alongside any health event so an operator sees what
/// the wire looked like just before an anomaly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    cap: usize,
    next_seq: u64,
    events: VecDeque<IngestEvent>,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `cap` events (`cap = 0`
    /// disables recording but still counts sequence numbers).
    pub fn new(cap: usize) -> FlightRecorder {
        FlightRecorder {
            cap,
            next_seq: 0,
            events: VecDeque::with_capacity(cap.min(1024)),
        }
    }

    /// Appends one event, evicting the oldest past capacity.
    pub fn record(&mut self, prov: &Provenance, outcome: DecodeOutcome, bytes: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.cap == 0 {
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
        }
        self.events.push_back(IngestEvent {
            seq,
            client: prov.client,
            attempt: prov.attempt,
            cohort: prov.cohort_label().to_string(),
            outcome,
            bytes,
        });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &IngestEvent> {
        self.events.iter()
    }

    /// Total events ever recorded (retained or evicted).
    pub fn seen(&self) -> u64 {
        self.next_seq
    }

    /// The retention capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Renders the retained tail as an aligned, integer-only table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "flight recorder: last {} of {} ingest events\n",
            self.events.len(),
            self.seen(),
        ));
        if self.events.is_empty() {
            return out;
        }
        out.push_str("  seq      client  attempt  bytes    outcome                cohort\n");
        for e in &self.events {
            out.push_str(&format!(
                "  {:<7}  {:<6}  {:<7}  {:<7}  {:<21}  {}\n",
                e.seq,
                e.client,
                e.attempt,
                e.bytes,
                e.outcome.to_string(),
                e.cohort,
            ));
        }
        out
    }
}

impl Default for FlightRecorder {
    /// A recorder with the default 64-event window.
    fn default() -> FlightRecorder {
        FlightRecorder::new(64)
    }
}

/// The integer-valued state of the community at one epoch boundary.
///
/// All fields are cumulative from the start of the stream, not
/// per-epoch deltas, so any snapshot answers "after N community runs…"
/// directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSnapshot {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Community runs (reports) folded in so far.
    pub runs: u64,
    /// Failure-labelled runs so far.
    pub failures: u64,
    /// Counters observed (nonzero) at least once.
    pub observed: usize,
    /// Survivors of combined §3.2 elimination.
    pub survivors: usize,
    /// Detection latency of the target counter (runs, 1-based).
    pub target_latency: Option<usize>,
    /// 0-based rank of the target counter in the regression ordering.
    pub target_rank: Option<usize>,
    /// Wire bytes accepted so far (as attributed by the transport).
    pub bytes: u64,
    /// Batches accepted so far.
    pub batches: u64,
    /// Batches rejected so far (malformed or mismatched).
    pub rejected_batches: u64,
    /// Rejections specifically from stale-version layout mismatches.
    pub stale_batches: u64,
    /// Committed batches whose delivered bytes were altered in flight.
    pub corrupt_batches: u64,
    /// Delivery retries attributed by the transport.
    pub retries: u64,
    /// Rejection totals by typed wire-error kind (absent kinds never
    /// occurred).
    pub rejected_by_kind: BTreeMap<WireErrorKind, u64>,
    /// Per-cohort ingest accounting, keyed by cohort label.
    pub cohorts: BTreeMap<String, CohortStats>,
}

/// A [`ReportSink`] that folds a community stream and snapshots the
/// aggregate state every `epoch_len` runs.
#[derive(Debug, Clone)]
pub struct EpochAggregator {
    sites: SiteTable,
    target_counter: Option<usize>,
    epoch_len: u64,
    analyzer: StreamingAnalyzer,
    first: FirstObservation,
    runs: u64,
    failures: u64,
    bytes: u64,
    batches: u64,
    rejected_batches: u64,
    stale_batches: u64,
    corrupt_batches: u64,
    retries: u64,
    rejected_by_kind: BTreeMap<WireErrorKind, u64>,
    cohorts: BTreeMap<String, CohortStats>,
    flight: FlightRecorder,
    snapshots: Vec<EpochSnapshot>,
    /// Scratch: the current report's nonzero `(counter, value)` pairs.
    scratch: Vec<(usize, u64)>,
}

impl EpochAggregator {
    /// Creates an aggregator for a stream instrumented per `sites`,
    /// snapshotting every `epoch_len` runs.  `target_counter` is the
    /// ground-truth counter (e.g. a planted bug's true predicate) whose
    /// latency and rank each snapshot reports.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    pub fn new(
        sites: SiteTable,
        epoch_len: u64,
        config: StreamingConfig,
        target_counter: Option<usize>,
    ) -> Self {
        assert!(epoch_len > 0, "epoch length must be nonzero");
        let counters = sites.total_counters();
        EpochAggregator {
            sites,
            target_counter,
            epoch_len,
            analyzer: StreamingAnalyzer::new(config),
            first: FirstObservation::new(counters),
            runs: 0,
            failures: 0,
            bytes: 0,
            batches: 0,
            rejected_batches: 0,
            stale_batches: 0,
            corrupt_batches: 0,
            retries: 0,
            rejected_by_kind: BTreeMap::new(),
            cohorts: BTreeMap::new(),
            flight: FlightRecorder::default(),
            snapshots: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Replaces the flight recorder with one retaining `cap` events.
    #[must_use]
    pub fn with_flight_capacity(mut self, cap: usize) -> Self {
        self.flight = FlightRecorder::new(cap);
        self
    }

    /// Records one delivered batch with full provenance: who sent it, on
    /// which attempt, and how decoding went.  Accepted batches (clean or
    /// corrupt-but-decodable) are attributed their wire bytes; rejected
    /// ones land in the per-kind and stale tallies.  Everything is also
    /// folded into the sender's cohort stats and the flight recorder.
    pub fn note_batch(&mut self, prov: &Provenance, outcome: DecodeOutcome, bytes: u64) {
        self.flight.record(prov, outcome, bytes);
        let cohort = self
            .cohorts
            .entry(prov.cohort_label().to_string())
            .or_default();
        match outcome {
            DecodeOutcome::Clean => {
                self.batches += 1;
                self.bytes += bytes;
                cohort.batches += 1;
                cohort.bytes += bytes;
            }
            DecodeOutcome::CorruptButDecodable => {
                self.batches += 1;
                self.bytes += bytes;
                self.corrupt_batches += 1;
                cohort.batches += 1;
                cohort.bytes += bytes;
                cohort.corrupt += 1;
            }
            DecodeOutcome::Rejected(kind) => {
                self.rejected_batches += 1;
                *self.rejected_by_kind.entry(kind).or_default() += 1;
                cohort.rejected += 1;
                if kind == WireErrorKind::LayoutHashMismatch {
                    self.stale_batches += 1;
                    cohort.stale += 1;
                }
            }
        }
    }

    /// Attributes `n` delivery retries to a cohort (the transport calls
    /// this once per batch with its extra attempts beyond the first).
    pub fn note_retries(&mut self, cohort: &str, n: u64) {
        if n == 0 {
            return;
        }
        self.retries += n;
        self.cohorts.entry(cohort.to_string()).or_default().retries += n;
    }

    /// Folds one report given as its run id, label and nonzero counters
    /// (ascending `(index, value)` pairs, every index below the layout's
    /// width) — what [`accept`](ReportSink::accept) reduces a dense
    /// report to, so a caller that holds the sparse form already (an
    /// ingest server reading wire bytes) never builds the dense one.
    /// Both entry points leave bit-identical state behind.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError::NotBegun`] before the first `begin`.
    fn accept_nonzero(
        &mut self,
        run_id: u64,
        label: Label,
        counters: impl Iterator<Item = (usize, u64)> + Clone,
    ) -> Result<(), SinkError> {
        let width = self.first.counters();
        self.analyzer.fold(label, width, counters.clone())?;
        self.first
            .record_observed(run_id as usize, counters.map(|(c, _)| c));
        if label == Label::Failure {
            self.failures += 1;
        }
        self.runs += 1;
        if self.runs.is_multiple_of(self.epoch_len) {
            self.snapshot_now();
        }
        Ok(())
    }

    /// Folds one delivered wire batch — the one per-batch fold body of
    /// every ingest path (the server's ordered merge and the in-memory
    /// fleet both call it, so they build the same statistics by
    /// construction).  `payload` is walked into `archive`, all of it or
    /// none, with no dense report built on the way; the batch is noted
    /// under `prov` and `outcome` with the walked bytes; then each report
    /// the walk appended is folded by its nonzero counters.  The caller
    /// keeps the archived rows or clears them.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError::Wire`] with the walk's typed error if the
    /// payload does not decode against the archive's layout (nothing is
    /// noted or folded), and [`SinkError::NotBegun`] before `begin`.
    pub fn fold_batch(
        &mut self,
        prov: &Provenance,
        outcome: DecodeOutcome,
        payload: &[u8],
        archive: &mut SparseArchive,
    ) -> Result<BatchStats, SinkError> {
        let first = archive.len();
        let walked = archive
            .extend_from_batch(payload)
            .map_err(|rejected| SinkError::Wire(rejected.error))?;
        self.note_batch(prov, outcome, walked.bytes);
        for r in first..archive.len() {
            let row = archive.row(r);
            self.accept_nonzero(row.run_id, row.label, row.nonzero())?;
        }
        Ok(walked)
    }

    /// Runs `fold` with the §3.3 trainer on a second thread: the
    /// whole-stream fold of an ingest server or fleet, split over two
    /// cores without changing a bit of its result.
    ///
    /// `fold` must fold exactly the wire batches `payloads` yields, in
    /// that order, each through [`fold_batch`](Self::fold_batch), and
    /// nothing else.  While it runs on the caller's thread — notes,
    /// retries, rejections, the archive, the integer statistics, first
    /// observations and epoch snapshots — the analyzer's trainer is
    /// detached and a scoped thread walks the same payload bytes a second
    /// time, feeding each report's nonzero counters to it in the same
    /// order.  The trainer is reinstalled when both are done, before
    /// anything can read the model.  The thread also notes the target
    /// counter's rank after every `epoch_len`-th report — exactly where
    /// the fold closes an epoch — and those ranks are written into the
    /// snapshots `fold` took, so every [`EpochSnapshot`] is the one an
    /// inline fold takes.  `fold` must not call
    /// [`snapshot_now`](Self::snapshot_now): close a partial epoch after
    /// this returns.
    ///
    /// Before `begin` there is no trainer and `fold` runs alone.
    ///
    /// # Errors
    ///
    /// Whatever `fold` returns.  The trainer is reinstalled either way;
    /// after an error it may have seen reports the fold did not finish.
    ///
    /// # Panics
    ///
    /// Panics if `fold` succeeds but folded other reports than
    /// `payloads` holds or took a snapshot off an epoch boundary, or if
    /// the trainer thread panics.
    pub fn train_beside<'p, T, E>(
        &mut self,
        payloads: impl Iterator<Item = &'p [u8]> + Send,
        fold: impl FnOnce(&mut Self) -> Result<T, E>,
    ) -> Result<T, E> {
        let (Some(layout), Some(trainer)) =
            (self.analyzer.layout(), self.analyzer.detach_trainer())
        else {
            return fold(self);
        };
        let first_snapshot = self.snapshots.len();
        let cuts = EpochCuts {
            runs: self.runs,
            epoch_len: self.epoch_len,
            target: self.target_counter,
        };
        let (folded, (trainer, ranks)) = std::thread::scope(|scope| {
            let training = scope.spawn(move || train_payloads(trainer, layout, payloads, cuts));
            let folded = fold(self);
            let trained = training
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (folded, trained)
        });
        let trained = trainer.seen();
        self.analyzer.attach_trainer(trainer);
        let folded = folded?;
        let taken = &mut self.snapshots[first_snapshot..];
        assert!(
            trained == self.analyzer.seen() && ranks.len() == taken.len(),
            "train_beside: the fold and its payloads disagree"
        );
        for (snapshot, rank) in taken.iter_mut().zip(ranks) {
            snapshot.target_rank = rank;
        }
        Ok(folded)
    }

    /// Takes the current-state snapshot without waiting for an epoch
    /// boundary (used to close a partial final epoch).
    pub fn snapshot_now(&mut self) {
        let snap = self.snapshot(self.snapshots.len());
        self.snapshots.push(snap);
    }

    fn snapshot(&self, epoch: usize) -> EpochSnapshot {
        let survivors = self.analyzer.eliminate(&self.sites).combined.len();
        let target_rank = self.target_counter.and_then(|c| {
            self.analyzer
                .ranking()
                .iter()
                .position(|&(counter, _)| counter == c)
        });
        EpochSnapshot {
            epoch,
            runs: self.runs,
            failures: self.failures,
            observed: self.first.observed_count(),
            survivors,
            target_latency: self
                .target_counter
                .and_then(|c| self.first.latency_of_counter(c)),
            target_rank,
            bytes: self.bytes,
            batches: self.batches,
            rejected_batches: self.rejected_batches,
            stale_batches: self.stale_batches,
            corrupt_batches: self.corrupt_batches,
            retries: self.retries,
            rejected_by_kind: self.rejected_by_kind.clone(),
            cohorts: self.cohorts.clone(),
        }
    }

    /// Epoch snapshots closed so far, oldest first.
    pub fn snapshots(&self) -> &[EpochSnapshot] {
        &self.snapshots
    }

    /// The underlying streaming analyzer.
    pub fn analyzer(&self) -> &StreamingAnalyzer {
        &self.analyzer
    }

    /// The shared first-observation record.
    pub fn first_observation(&self) -> &FirstObservation {
        &self.first
    }

    /// The site table the stream is scored against.
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// Detection latency (1-based) of the earliest-observed predicate
    /// whose name contains `needle`.
    pub fn latency_of(&self, needle: &str) -> Option<usize> {
        self.first.latency_of(&self.sites, needle)
    }

    /// Community runs folded so far.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Failure-labelled runs folded so far.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Wire bytes attributed via [`note_batch`](Self::note_batch).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Committed batches whose delivered bytes were altered in flight.
    pub fn corrupt_batches(&self) -> u64 {
        self.corrupt_batches
    }

    /// Rejection totals by typed wire-error kind.
    pub fn rejected_by_kind(&self) -> &BTreeMap<WireErrorKind, u64> {
        &self.rejected_by_kind
    }

    /// Per-cohort ingest accounting, keyed by cohort label.
    pub fn cohorts(&self) -> &BTreeMap<String, CohortStats> {
        &self.cohorts
    }

    /// The bounded ring buffer of recent ingest events.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }
}

/// Where [`EpochAggregator::accept_nonzero`] closes epochs, for the
/// trainer thread of [`EpochAggregator::train_beside`].
#[derive(Debug, Clone, Copy)]
struct EpochCuts {
    /// Runs folded before the first payload.
    runs: u64,
    epoch_len: u64,
    target: Option<usize>,
}

/// The trainer's half of [`EpochAggregator::train_beside`]: every report
/// of every payload, in order, through `trainer`, with the target's rank
/// noted at each epoch boundary.  A payload that does not walk against
/// `layout` ends the training: the fold rejects that batch too.
fn train_payloads<'p>(
    mut trainer: OnlineTrainer,
    layout: ReportLayout,
    payloads: impl Iterator<Item = &'p [u8]>,
    cuts: EpochCuts,
) -> (OnlineTrainer, Vec<Option<usize>>) {
    let mut runs = cuts.runs;
    let mut ranks = Vec::new();
    let mut row: Vec<(usize, u64)> = Vec::new();
    for payload in payloads {
        // The fold's walk counted these frames already.
        let Ok(mut reader) = WireReader::new(payload).map(WireReader::uncounted) else {
            break;
        };
        if reader
            .expect_layout(layout.layout_hash, layout.counters)
            .is_err()
        {
            break;
        }
        loop {
            row.clear();
            let Ok(Some((_, label))) = reader.read_nonzero(|i, value| row.push((i, value))) else {
                break;
            };
            trainer.update_nonzero(row.iter().copied(), label == Label::Failure);
            runs += 1;
            if runs.is_multiple_of(cuts.epoch_len) {
                ranks.push(cuts.target.and_then(|c| trainer.model().rank_of(c)));
            }
        }
    }
    (trainer, ranks)
}

impl ReportSink for EpochAggregator {
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError> {
        self.analyzer.begin(layout)
    }

    /// Folds one report.  The report's `run_id` is taken as its 0-based
    /// community run index for latency purposes, so detection latency is
    /// independent of batch arrival order.  A report wider or narrower
    /// than the site table is a [`CollectError::LayoutMismatch`].
    fn accept(&mut self, report: Report) -> Result<(), SinkError> {
        if report.counters.len() != self.first.counters() {
            return Err(SinkError::Collect(CollectError::LayoutMismatch {
                expected: self.first.counters(),
                got: report.counters.len(),
            }));
        }
        // One scan of the mostly-zero vector feeds every aggregate.
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(nonzero(&report.counters));
        let folded = self.accept_nonzero(report.run_id, report.label, scratch.iter().copied());
        self.scratch = scratch;
        folded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_instrument::{instrument, Scheme};

    fn sites() -> SiteTable {
        let program = cbi_minic::parse(
            "fn rare(int v) -> int { if (v % 12 == 0) { return 1; } return 0; }\n\
             fn main() -> int { int v = read(); int hit = rare(v); print(hit); return 0; }",
        )
        .unwrap();
        instrument(&program, Scheme::Returns).unwrap().sites
    }

    fn aggregator(epoch_len: u64, target: Option<usize>) -> EpochAggregator {
        EpochAggregator::new(sites(), epoch_len, StreamingConfig::default(), target)
    }

    fn report(run_id: u64, fail: bool, hot: usize, counters: usize) -> Report {
        let mut values = vec![0u64; counters];
        values[hot] = 1;
        let label = if fail { Label::Failure } else { Label::Success };
        Report::new(run_id, label, values)
    }

    #[test]
    fn epochs_close_every_epoch_len_runs() {
        let n = sites().total_counters();
        let mut agg = aggregator(3, None);
        agg.begin(ReportLayout {
            counters: n,
            layout_hash: sites().layout_hash(),
        })
        .unwrap();
        for i in 0..7u64 {
            agg.accept(report(i, i % 2 == 0, (i as usize) % n, n))
                .unwrap();
        }
        assert_eq!(agg.snapshots().len(), 2, "epochs at runs 3 and 6");
        assert_eq!(agg.snapshots()[0].runs, 3);
        assert_eq!(agg.snapshots()[1].runs, 6);
        agg.snapshot_now();
        assert_eq!(agg.snapshots()[2].runs, 7);
        assert_eq!(agg.snapshots()[2].epoch, 2);
        assert_eq!(agg.snapshots()[2].failures, 4);
    }

    #[test]
    fn target_latency_tracks_first_observation_by_run_id() {
        let table = sites();
        let n = table.total_counters();
        let target = (0..n)
            .find(|&c| table.predicate_name(c).contains("rare() > 0"))
            .unwrap();
        let mut agg = aggregator(10, Some(target));
        agg.begin(ReportLayout {
            counters: n,
            layout_hash: table.layout_hash(),
        })
        .unwrap();
        // The hit arrives in a late batch but carries run_id 4: latency
        // must be 5 (1-based), not the arrival position.
        agg.accept(report(9, false, (target + 1) % n, n)).unwrap();
        agg.accept(report(4, true, target, n)).unwrap();
        agg.snapshot_now();
        let snap = &agg.snapshots()[0];
        assert_eq!(snap.target_latency, Some(5));
        assert_eq!(snap.observed, 2);
        assert!(snap.target_rank.is_some());
        assert_eq!(agg.latency_of("rare() > 0"), Some(5));
    }

    #[test]
    fn batch_accounting_reaches_snapshots() {
        let n = sites().total_counters();
        let mut agg = aggregator(1, None);
        agg.begin(ReportLayout {
            counters: n,
            layout_hash: sites().layout_hash(),
        })
        .unwrap();
        let unknown = Provenance::new(0, 0);
        agg.note_batch(&unknown, DecodeOutcome::Clean, 120);
        for kind in [WireErrorKind::LayoutHashMismatch, WireErrorKind::Truncated] {
            agg.note_batch(&unknown, DecodeOutcome::Rejected(kind), 0);
        }
        agg.accept(report(0, false, 0, n)).unwrap();
        let snap = &agg.snapshots()[0];
        assert_eq!(snap.bytes, 120);
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.rejected_batches, 2);
        assert_eq!(snap.stale_batches, 1);
    }

    #[test]
    fn rejected_batches_stale_and_kind_accounting() {
        let n = sites().total_counters();
        let mut agg = aggregator(1, None);
        agg.begin(ReportLayout {
            counters: n,
            layout_hash: sites().layout_hash(),
        })
        .unwrap();
        // A layout-hash rejection counts as stale, any other kind does
        // not; neither commits bytes.
        let stale = WireErrorKind::LayoutHashMismatch;
        for kind in [stale, stale, WireErrorKind::Truncated] {
            agg.note_batch(&Provenance::new(0, 0), DecodeOutcome::Rejected(kind), 0);
        }
        agg.accept(report(0, false, 0, n)).unwrap();
        let snap = &agg.snapshots()[0];
        assert_eq!(snap.rejected_batches, 3);
        assert_eq!(snap.stale_batches, 2);
        assert_eq!(snap.corrupt_batches, 0);
        assert_eq!(snap.bytes, 0);
        assert_eq!(
            snap.rejected_by_kind
                .get(&WireErrorKind::LayoutHashMismatch),
            Some(&2)
        );
        assert_eq!(
            snap.rejected_by_kind.get(&WireErrorKind::Truncated),
            Some(&1)
        );
        let total: u64 = snap.rejected_by_kind.values().sum();
        assert_eq!(total, snap.rejected_batches);
    }

    #[test]
    fn note_batch_attributes_corruption_and_cohorts() {
        let n = sites().total_counters();
        let mut agg = aggregator(1, None).with_flight_capacity(2);
        agg.begin(ReportLayout {
            counters: n,
            layout_hash: sites().layout_hash(),
        })
        .unwrap();
        let clean = Provenance::new(1, 0).with_cohort("1/100");
        let noisy = Provenance::new(2, 1).with_cohort("1/1000+stale");
        agg.note_batch(&clean, DecodeOutcome::Clean, 100);
        agg.note_batch(&noisy, DecodeOutcome::CorruptButDecodable, 80);
        agg.note_batch(
            &noisy,
            DecodeOutcome::Rejected(WireErrorKind::LayoutHashMismatch),
            0,
        );
        agg.note_retries("1/1000+stale", 2);
        agg.accept(report(0, false, 0, n)).unwrap();

        let snap = &agg.snapshots()[0];
        assert_eq!(snap.batches, 2, "clean + corrupt-but-decodable commit");
        assert_eq!(snap.corrupt_batches, 1);
        assert_eq!(snap.rejected_batches, 1);
        assert_eq!(snap.stale_batches, 1);
        assert_eq!(snap.bytes, 180);
        assert_eq!(snap.retries, 2);

        let c = snap.cohorts.get("1/100").unwrap();
        assert_eq!((c.batches, c.bytes, c.corrupt), (1, 100, 0));
        let s = snap.cohorts.get("1/1000+stale").unwrap();
        assert_eq!(s.batches, 1);
        assert_eq!(s.corrupt, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.stale, 1);
        assert_eq!(s.retries, 2);

        // Flight recorder kept only the last two of three events.
        let flight = agg.flight_recorder();
        assert_eq!(flight.seen(), 3);
        let seqs: Vec<u64> = flight.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2]);
        let rendered = flight.render();
        assert!(rendered.contains("last 2 of 3"), "{rendered}");
        assert!(
            rendered.contains("rejected(layout_hash_mismatch)"),
            "{rendered}"
        );
        assert!(!rendered.contains('.'), "integer-only: {rendered}");
    }

    #[test]
    fn accept_nonzero_leaves_the_state_accept_does() {
        use cbi_sampler::SamplingDensity;
        use cbi_workloads::{run_campaign, CampaignConfig};

        // A seeded sampled campaign over a crashing program: reports
        // with a mix of zero and nonzero counters and both labels.
        let program = cbi_minic::parse(
            "fn g() -> int { if (has_input() == 0) { return 0; } return read(); }\n\
             fn main() -> int { int v = g(); print(100 / v); return 0; }",
        )
        .unwrap();
        let trials: Vec<Vec<i64>> = (0..300)
            .map(|i| if i % 7 == 0 { vec![] } else { vec![i % 5 + 1] })
            .collect();
        let mut config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(3));
        config.seed = 0x5ca7;
        let result = run_campaign(&program, &trials, &config).unwrap();
        let table = result.instrumented.sites.clone();
        let layout = ReportLayout {
            counters: table.total_counters(),
            layout_hash: table.layout_hash(),
        };

        let fresh = || EpochAggregator::new(table.clone(), 64, StreamingConfig::default(), Some(0));
        let (mut dense, mut sparse) = (fresh(), fresh());
        dense.begin(layout).unwrap();
        sparse.begin(layout).unwrap();
        for report in result.collector.reports() {
            dense.accept(report.clone()).unwrap();
            sparse
                .accept_nonzero(report.run_id, report.label, nonzero(&report.counters))
                .unwrap();
        }
        assert!(dense.failures() > 0 && dense.failures() < dense.runs());
        assert_eq!(sparse.snapshots(), dense.snapshots());
        assert_eq!(sparse.snapshots().len(), 300 / 64);
        assert_eq!(sparse.first_observation(), dense.first_observation());
        let bits = |agg: &EpochAggregator| {
            let model = agg.analyzer().model().unwrap();
            let weights: Vec<u64> = model.weights.iter().map(|w| w.to_bits()).collect();
            (model.bias.to_bits(), weights)
        };
        assert_eq!(bits(&sparse), bits(&dense));
    }

    /// A seeded sampled campaign over a crashing program, its site
    /// table, and its reports encoded as wire batches of seven.
    fn campaign_batches() -> (SiteTable, ReportLayout, Vec<Report>, Vec<Vec<u8>>) {
        use cbi_reports::wire::encode_reports;
        use cbi_sampler::SamplingDensity;
        use cbi_workloads::{run_campaign, CampaignConfig};

        let program = cbi_minic::parse(
            "fn g() -> int { if (has_input() == 0) { return 0; } return read(); }\n\
             fn main() -> int { int v = g(); print(100 / v); return 0; }",
        )
        .unwrap();
        let trials: Vec<Vec<i64>> = (0..300)
            .map(|i| if i % 7 == 0 { vec![] } else { vec![i % 5 + 1] })
            .collect();
        let mut config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(3));
        config.seed = 0x5ca7;
        let result = run_campaign(&program, &trials, &config).unwrap();
        let table = result.instrumented.sites.clone();
        let layout = ReportLayout {
            counters: table.total_counters(),
            layout_hash: table.layout_hash(),
        };
        let reports = result.collector.reports().to_vec();
        let batches = reports
            .chunks(7)
            .map(|chunk| encode_reports(chunk, layout.layout_hash, layout.counters).unwrap())
            .collect();
        (table, layout, reports, batches)
    }

    fn model_bits(agg: &EpochAggregator) -> (u64, Vec<u64>) {
        let model = agg.analyzer().model().unwrap();
        let weights = model.weights.iter().map(|w| w.to_bits()).collect();
        (model.bias.to_bits(), weights)
    }

    #[test]
    fn training_beside_the_fold_leaves_the_state_an_inline_fold_does() {
        let (table, layout, reports, batches) = campaign_batches();
        // 300 reports in epochs of 64: four boundaries and a partial
        // epoch.  The target is the counter the full stream ranks first.
        let target = {
            let mut probe =
                EpochAggregator::new(table.clone(), 64, StreamingConfig::default(), None);
            probe.begin(layout).unwrap();
            for report in &reports {
                probe.accept(report.clone()).unwrap();
            }
            probe.analyzer().ranking()[0].0
        };
        let fresh = || {
            let mut agg =
                EpochAggregator::new(table.clone(), 64, StreamingConfig::default(), Some(target));
            agg.begin(layout).unwrap();
            agg
        };
        let fold_all = |agg: &mut EpochAggregator| -> Result<u64, SinkError> {
            let mut archive = SparseArchive::new(layout);
            for (client, batch) in batches.iter().enumerate() {
                let prov = Provenance::new(client as u64, 0);
                agg.fold_batch(&prov, DecodeOutcome::Clean, batch, &mut archive)?;
            }
            Ok(archive.len() as u64)
        };

        let mut inline = fresh();
        fold_all(&mut inline).unwrap();
        inline.snapshot_now();
        let mut beside = fresh();
        let payloads = batches.iter().map(Vec::as_slice);
        let folded = beside.train_beside(payloads, fold_all).unwrap();
        beside.snapshot_now();

        assert_eq!(folded, 300);
        assert_eq!(beside.snapshots().len(), 5);
        let ranks: Vec<Option<usize>> = beside.snapshots().iter().map(|s| s.target_rank).collect();
        assert!(ranks.iter().all(Option::is_some), "{ranks:?}");
        assert_eq!(beside.snapshots(), inline.snapshots());
        assert_eq!(model_bits(&beside), model_bits(&inline));
        assert_eq!(beside.analyzer().stats(), inline.analyzer().stats());
        assert_eq!(beside.first_observation(), inline.first_observation());
        assert_eq!(beside.analyzer().seen(), 300);
    }

    #[test]
    fn train_beside_before_begin_runs_the_fold_alone() {
        let mut agg = aggregator(4, None);
        let err = agg
            .train_beside(std::iter::empty(), |agg| {
                agg.accept_nonzero(0, Label::Success, std::iter::empty())
            })
            .unwrap_err();
        assert!(matches!(err, SinkError::NotBegun));
        assert!(agg.analyzer().model().is_none());
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn train_beside_panics_when_the_fold_skips_a_payload() {
        let (table, layout, _, batches) = campaign_batches();
        let mut agg = EpochAggregator::new(table, 64, StreamingConfig::default(), None);
        agg.begin(layout).unwrap();
        let payloads = batches.iter().map(Vec::as_slice);
        let _ = agg.train_beside(payloads, |agg| -> Result<(), SinkError> {
            let mut archive = SparseArchive::new(layout);
            let prov = Provenance::new(0, 0);
            agg.fold_batch(&prov, DecodeOutcome::Clean, &batches[0], &mut archive)?;
            Ok(())
        });
    }

    #[test]
    fn a_report_of_the_wrong_width_is_a_typed_error() {
        let n = sites().total_counters();
        let mut agg = aggregator(4, None);
        agg.begin(ReportLayout {
            counters: n,
            layout_hash: sites().layout_hash(),
        })
        .unwrap();
        for width in [n - 1, n + 1] {
            let err = agg
                .accept(Report::new(0, Label::Failure, vec![1; width]))
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    SinkError::Collect(CollectError::LayoutMismatch { expected, got })
                        if expected == n && got == width
                ),
                "{err:?}"
            );
        }
        assert_eq!(agg.runs(), 0);
        assert_eq!(agg.analyzer().seen(), 0);
    }

    #[test]
    fn accept_nonzero_before_begin_is_rejected() {
        let mut agg = aggregator(4, None);
        let err = agg
            .accept_nonzero(0, Label::Success, std::iter::empty())
            .unwrap_err();
        assert!(matches!(err, SinkError::NotBegun));
        assert_eq!(agg.runs(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_epoch_len_panics() {
        let _ = aggregator(0, None);
    }
}
