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
//! the target's rank under the Ochiai measure, failure counts, and bytes
//! on the wire.  Every one of them is an integer function of the folded
//! statistics; the fold holds no float state.
//!
//! The §3.3 crash predictor is trained over the same rows, not folded:
//! [`EpochAggregator::fold_and_train`] runs [`cbi_stats::train`] on a
//! second core beside a whole-stream fold and attaches the model as a
//! result.
//!
//! The aggregator is itself a [`ReportSink`], so it can sit behind the
//! transactional batch ingest exactly where a plain analyzer would.

use crate::detection::FirstObservation;
use crate::streaming::StreamingAnalyzer;
use cbi_instrument::SiteTable;
use cbi_reports::{
    nonzero, BatchStats, CollectError, DecodeOutcome, Label, Provenance, Report, ReportLayout,
    ReportSink, SinkError, SparseArchive, WireErrorKind,
};
use cbi_scoring::score::Ochiai;
use cbi_scoring::{rank_of, rank_tables};
use cbi_stats::{contingency_tables, train, LogisticModel, Row, TrainConfig};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::mpsc;

/// Rows plus nonzero counters a [`RowFeed`] gathers before it hands
/// them to the trainer: the first chunk is this small, so the trainer
/// starts early on a short stream, and each next one twice as large up
/// to [`CHUNK_ENTRIES`].
const FIRST_CHUNK: usize = 1 << 6;

/// The largest chunk: few enough hand-overs that a long narrow stream
/// does not pay one per batch, and little memory in flight.
const CHUNK_ENTRIES: usize = 1 << 12;

/// Chunks the fold may run ahead of the trainer by.
const QUEUED_CHUNKS: usize = 4;

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

impl CohortStats {
    /// Counts one delivered batch of `bytes` wire bytes.
    fn note(&mut self, outcome: DecodeOutcome, bytes: u64) {
        match outcome {
            DecodeOutcome::Clean | DecodeOutcome::CorruptButDecodable => {
                self.batches += 1;
                self.bytes += bytes;
                self.corrupt += u64::from(outcome == DecodeOutcome::CorruptButDecodable);
            }
            DecodeOutcome::Rejected(kind) => {
                self.rejected += 1;
                self.stale += u64::from(kind == WireErrorKind::LayoutHashMismatch);
            }
        }
    }
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
    /// 0-based rank of the target counter under the Ochiai measure over
    /// this snapshot's contingency tables.
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
    totals: CohortStats,
    rejected_by_kind: BTreeMap<WireErrorKind, u64>,
    cohorts: BTreeMap<String, CohortStats>,
    flight: FlightRecorder,
    snapshots: Vec<EpochSnapshot>,
    /// Scratch: the current report's nonzero `(counter, value)` pairs.
    scratch: Vec<(usize, u64)>,
    /// The §3.3 model of the whole stream, once one is attached.
    model: Option<LogisticModel>,
}

impl EpochAggregator {
    /// Creates an aggregator for a stream instrumented per `sites`,
    /// snapshotting every `epoch_len` runs.  `target_counter` is the
    /// ground-truth counter (e.g. a planted bug's true predicate) whose
    /// latency and rank each snapshot reports.  `config` is what
    /// [`fold_and_train`](Self::fold_and_train) trains the §3.3 model with.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_len` is zero.
    pub fn new(
        sites: SiteTable,
        epoch_len: u64,
        config: TrainConfig,
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
            totals: CohortStats::default(),
            rejected_by_kind: BTreeMap::new(),
            cohorts: BTreeMap::new(),
            flight: FlightRecorder::default(),
            snapshots: Vec::new(),
            scratch: Vec::new(),
            model: None,
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
        self.totals.note(outcome, bytes);
        self.cohorts
            .entry(prov.cohort_label().to_string())
            .or_default()
            .note(outcome, bytes);
        if let DecodeOutcome::Rejected(kind) = outcome {
            *self.rejected_by_kind.entry(kind).or_default() += 1;
        }
    }

    /// Attributes `n` delivery retries to a cohort (the transport calls
    /// this once per batch with its extra attempts beyond the first).
    pub fn note_retries(&mut self, cohort: &str, n: u64) {
        if n == 0 {
            return;
        }
        self.totals.retries += n;
        self.cohorts.entry(cohort.to_string()).or_default().retries += n;
    }

    /// Folds one report given as its run id, label and nonzero counters
    /// (ascending `(index, value)` pairs, every index below the layout's
    /// width) — what [`accept`](ReportSink::accept) reduces a dense
    /// report to, so a caller that holds the sparse form already (a
    /// reader walking wire frames) never builds the dense one.  Both
    /// entry points leave bit-identical state behind.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError::NotBegun`] before the first `begin`.
    pub fn accept_nonzero(
        &mut self,
        run_id: u64,
        label: Label,
        counters: impl Iterator<Item = (usize, u64)> + Clone,
    ) -> Result<(), SinkError> {
        let width = self.first.counters();
        self.analyzer.fold(label, width, counters.clone())?;
        self.first
            .record_observed(run_id as usize, counters.map(|(c, _)| c));
        if self.runs().is_multiple_of(self.epoch_len) {
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

    /// Runs `fold` on this thread while a scoped thread trains the §3.3
    /// model, then attaches the model: the whole-stream fold of an
    /// ingest server or fleet, split over two cores.
    ///
    /// `fold` walks every batch it folds into [`RowFeed::rows`] with
    /// [`fold_batch`](Self::fold_batch).  The feed hands the rows to the
    /// trainer thread in chunks, in fold order, and the thread runs
    /// [`cbi_stats::train`] over them — one pass with the analyzer's
    /// [`config`](StreamingAnalyzer::config) — so the model is the one
    /// training over the same rows after the fold gives, to the bit.
    /// The fold itself moves only integers.  With `keep_rows` every row
    /// is also kept, in fold order, and returned.
    ///
    /// Before `begin` there is no layout: `fold` runs alone and no model
    /// is attached.
    ///
    /// # Errors
    ///
    /// Whatever `fold` returns; no model is attached then.
    ///
    /// # Panics
    ///
    /// Panics if the trainer thread panics: a row named a counter
    /// outside the layout.
    pub fn fold_and_train<T, E>(
        &mut self,
        keep_rows: bool,
        fold: impl FnOnce(&mut Self, &mut RowFeed) -> Result<T, E>,
    ) -> Result<(T, Option<SparseArchive>), E> {
        let config = *self.analyzer.config();
        let layout = self.analyzer.layout();
        let (folded, model, kept) = std::thread::scope(|scope| {
            // Before `begin` nothing folds; an empty layout stands in.  A
            // panicking `fold` drops the feed, and with it the channel the
            // trainer waits on, before the scope joins the trainer.
            let mut feed = RowFeed::new(
                layout.unwrap_or(ReportLayout {
                    counters: 0,
                    layout_hash: 0,
                }),
                keep_rows,
            );
            let training = layout.map(|layout| {
                let (to_trainer, chunks) = mpsc::sync_channel::<SparseArchive>(QUEUED_CHUNKS);
                feed.to_trainer = Some(to_trainer);
                scope.spawn(move || {
                    let rows = chunks.into_iter().flat_map(|chunk| {
                        let chunk = Rc::new(chunk);
                        (0..chunk.len()).map(move |r| ChunkRow(Rc::clone(&chunk), r))
                    });
                    train(layout.counters, rows, &config)
                })
            });
            let folded = fold(self, &mut feed);
            feed.hand_over();
            feed.to_trainer = None;
            let model = training.map(|training| {
                training
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            });
            (folded, model, feed.kept)
        });
        let folded = folded?;
        self.model = model;
        Ok((folded, kept))
    }

    /// Attaches a §3.3 model of this stream, trained elsewhere over the
    /// rows this aggregator folded (see [`model`](Self::model)).
    pub fn attach_model(&mut self, model: LogisticModel) {
        self.model = Some(model);
    }

    /// The §3.3 model of the whole stream, if one was trained beside the
    /// fold or attached.
    pub fn model(&self) -> Option<&LogisticModel> {
        self.model.as_ref()
    }

    /// Closes the stream: snapshots a partial final epoch, or the empty
    /// one when no report arrived, unless the last snapshot already
    /// covers every run.
    pub fn close(&mut self) {
        if self.snapshots.last().is_none_or(|s| s.runs != self.runs()) {
            self.snapshot_now();
        }
    }

    fn snapshot_now(&mut self) {
        let snap = self.snapshot(self.snapshots.len());
        self.snapshots.push(snap);
    }

    fn snapshot(&self, epoch: usize) -> EpochSnapshot {
        let survivors = self.analyzer.eliminate(&self.sites).combined.len();
        let target_rank = self.target_counter.and_then(|c| {
            let tables = contingency_tables(self.analyzer.stats(), &self.sites.groups());
            rank_of(&rank_tables(&Ochiai, &tables), c)
        });
        EpochSnapshot {
            epoch,
            runs: self.runs(),
            failures: self.failures(),
            observed: self.first.observed_count(),
            survivors,
            target_latency: self
                .target_counter
                .and_then(|c| self.first.latency_of_counter(c)),
            target_rank,
            bytes: self.totals.bytes,
            batches: self.totals.batches,
            rejected_batches: self.totals.rejected,
            stale_batches: self.totals.stale,
            corrupt_batches: self.totals.corrupt,
            retries: self.totals.retries,
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
        self.analyzer.seen()
    }

    /// Failure-labelled runs folded so far.
    pub fn failures(&self) -> u64 {
        self.analyzer.stats().failure_runs()
    }

    /// Ingest accounting over every cohort: what
    /// [`note_batch`](Self::note_batch) and
    /// [`note_retries`](Self::note_retries) counted.
    pub fn totals(&self) -> &CohortStats {
        &self.totals
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

/// Where the fold of [`EpochAggregator::fold_and_train`] walks its
/// batches, and how their rows reach the trainer beside it.
#[derive(Debug)]
pub struct RowFeed {
    layout: ReportLayout,
    rows: SparseArchive,
    chunk: usize,
    kept: Option<SparseArchive>,
    to_trainer: Option<mpsc::SyncSender<SparseArchive>>,
}

impl RowFeed {
    fn new(layout: ReportLayout, keep_rows: bool) -> RowFeed {
        RowFeed {
            layout,
            rows: SparseArchive::new(layout),
            chunk: FIRST_CHUNK,
            kept: keep_rows.then(|| SparseArchive::new(layout)),
            to_trainer: None,
        }
    }

    /// The archive to walk the next batch into, with
    /// [`EpochAggregator::fold_batch`].  The rows walked into it before
    /// go to the trainer first once there are enough of them.
    pub fn rows(&mut self) -> &mut SparseArchive {
        if self.rows.len() + self.rows.nonzeros() >= self.chunk {
            self.hand_over();
            self.chunk = (2 * self.chunk).min(CHUNK_ENTRIES);
        }
        &mut self.rows
    }

    /// Hands the rows walked so far to the trainer (and to the kept
    /// archive) and starts a fresh chunk.
    fn hand_over(&mut self) {
        if let Some(kept) = self.kept.as_mut() {
            kept.append(&self.rows);
        }
        let rows = std::mem::replace(&mut self.rows, SparseArchive::new(self.layout));
        if let Some(to_trainer) = &self.to_trainer {
            // A send fails only if the trainer panicked; `join` says so.
            let _ = to_trainer.send(rows);
        }
    }
}

/// One row of a chunk on the trainer thread.
struct ChunkRow(Rc<SparseArchive>, usize);

impl Row for ChunkRow {
    fn failed(&self) -> bool {
        self.0.row(self.1).label == Label::Failure
    }

    fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> {
        self.0.row(self.1).nonzero()
    }
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
        EpochAggregator::new(sites(), epoch_len, TrainConfig::default(), target)
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
        agg.close();
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
        agg.close();
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

    #[test]
    fn accept_nonzero_leaves_the_state_accept_does() {
        // Reports with a mix of zero and nonzero counters and both labels.
        let (table, layout, reports, _) = campaign_batches();
        let fresh = || EpochAggregator::new(table.clone(), 64, TrainConfig::default(), Some(0));
        let (mut dense, mut sparse) = (fresh(), fresh());
        dense.begin(layout).unwrap();
        sparse.begin(layout).unwrap();
        for report in &reports {
            dense.accept(report.clone()).unwrap();
            sparse
                .accept_nonzero(report.run_id, report.label, nonzero(&report.counters))
                .unwrap();
        }
        assert!(dense.failures() > 0 && dense.failures() < dense.runs());
        assert_eq!(sparse.snapshots(), dense.snapshots());
        assert_eq!(sparse.snapshots().len(), 300 / 64);
        assert_eq!(sparse.first_observation(), dense.first_observation());
        assert_eq!(sparse.analyzer().stats(), dense.analyzer().stats());
        assert!(dense.model().is_none(), "accepting a report trains nothing");
    }

    fn model_bits(model: &LogisticModel) -> (u64, Vec<u64>) {
        let weights = model.weights.iter().map(|w| w.to_bits()).collect();
        (model.bias.to_bits(), weights)
    }

    #[test]
    fn training_beside_the_fold_leaves_the_state_an_inline_fold_does() {
        let (table, layout, reports, batches) = campaign_batches();
        // The campaign's batches 150 times over — enough rows for the
        // feed to hand several chunks to the trainer mid-fold — in epochs
        // of 64 with a partial last one.  The target is the counter the
        // stream's model ranks first.
        const PASSES: usize = 150;
        let stream = || (0..PASSES).flat_map(|_| batches.iter()).enumerate();
        let config = TrainConfig::default();
        let target = train(layout.counters, &reports, &config).ranked_features()[0];
        let fresh = || {
            let mut agg = EpochAggregator::new(table.clone(), 64, config, Some(target));
            agg.begin(layout).unwrap();
            agg
        };

        // Inline: fold everything into one archive, then train over it.
        let mut inline = fresh();
        let mut archive = SparseArchive::new(layout);
        for (client, batch) in stream() {
            let prov = Provenance::new(client as u64, 0);
            inline
                .fold_batch(&prov, DecodeOutcome::Clean, batch, &mut archive)
                .unwrap();
        }
        inline.close();
        inline.attach_model(train(layout.counters, archive.rows(), &config));

        let mut beside = fresh();
        let (folded, kept) = beside
            .fold_and_train(true, |agg, feed| -> Result<usize, SinkError> {
                let mut folded = 0;
                for (client, batch) in stream() {
                    let prov = Provenance::new(client as u64, 0);
                    let walked = agg.fold_batch(&prov, DecodeOutcome::Clean, batch, feed.rows())?;
                    folded += walked.reports;
                }
                Ok(folded)
            })
            .unwrap();
        beside.close();

        assert_eq!(folded, 300 * PASSES);
        assert!(archive.len() + archive.nonzeros() > 2 * CHUNK_ENTRIES);
        assert_eq!(kept.as_ref(), Some(&archive));
        assert_eq!(beside.snapshots().len(), 300 * PASSES / 64 + 1);
        let ranks: Vec<Option<usize>> = beside.snapshots().iter().map(|s| s.target_rank).collect();
        assert!(ranks.iter().all(Option::is_some), "{ranks:?}");
        assert_eq!(beside.snapshots(), inline.snapshots());
        let (model, expected) = (beside.model().unwrap(), inline.model().unwrap());
        assert_eq!(model_bits(model), model_bits(expected));
        // The dense reports train to the same bits as their rows.
        let dense = (0..PASSES).flat_map(|_| reports.iter());
        assert_eq!(
            model_bits(model),
            model_bits(&train(layout.counters, dense, &config))
        );
        assert_eq!(beside.analyzer().stats(), inline.analyzer().stats());
        assert_eq!(beside.first_observation(), inline.first_observation());
    }

    #[test]
    fn fold_and_train_before_begin_runs_the_fold_alone() {
        let mut agg = aggregator(4, None);
        let err = agg
            .fold_and_train(false, |agg, _| {
                agg.accept_nonzero(0, Label::Success, std::iter::empty())
            })
            .unwrap_err();
        assert!(matches!(err, SinkError::NotBegun));
        assert!(agg.model().is_none());
    }

    #[test]
    #[should_panic(expected = "the fold panicked")]
    fn a_panicking_fold_stops_the_trainer_instead_of_waiting_on_it() {
        let n = sites().total_counters();
        let mut agg = aggregator(4, None);
        let layout_hash = sites().layout_hash();
        agg.begin(ReportLayout {
            counters: n,
            layout_hash,
        })
        .unwrap();
        let _ = agg.fold_and_train(false, |_, _| -> Result<(), SinkError> {
            panic!("the fold panicked")
        });
    }

    #[test]
    fn a_failed_fold_attaches_no_model() {
        let (table, layout, _, batches) = campaign_batches();
        let mut agg = EpochAggregator::new(table, 64, TrainConfig::default(), None);
        agg.begin(layout).unwrap();
        let torn = &batches[1][..batches[1].len() - 1];
        let err = agg
            .fold_and_train(false, |agg, feed| -> Result<(), SinkError> {
                for payload in [&batches[0][..], torn] {
                    let prov = Provenance::new(0, 0);
                    agg.fold_batch(&prov, DecodeOutcome::Clean, payload, feed.rows())?;
                }
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, SinkError::Wire(_)), "{err:?}");
        assert!(agg.model().is_none());
        assert_eq!(agg.runs(), 7, "the first batch folded, the torn one not");
    }

    #[test]
    fn final_statistics_are_the_same_under_any_batch_order() {
        use cbi_sampler::Pcg32;

        let (table, layout, _, batches) = campaign_batches();
        // Every batch with its provenance, a retry count and, for every
        // third, a rejected first delivery.
        let fold = |order: &[usize]| {
            let mut agg = EpochAggregator::new(table.clone(), 16, TrainConfig::default(), Some(3));
            agg.begin(layout).unwrap();
            for &b in order {
                let cohort = if b % 2 == 0 { "1/3" } else { "1/3+stale" };
                if b % 3 == 0 {
                    let kind = DecodeOutcome::Rejected(WireErrorKind::LayoutHashMismatch);
                    agg.note_batch(&Provenance::new(b as u64, 0).with_cohort(cohort), kind, 0);
                    agg.note_retries(cohort, 1);
                }
                let prov = Provenance::new(b as u64, 1).with_cohort(cohort);
                let mut rows = SparseArchive::new(layout);
                agg.fold_batch(&prov, DecodeOutcome::Clean, &batches[b], &mut rows)
                    .unwrap();
            }
            agg.close();
            agg
        };
        let in_order: Vec<usize> = (0..batches.len()).collect();
        let reference = fold(&in_order);
        let mut rng = Pcg32::new(0x5eed);
        for _ in 0..8 {
            let mut order = in_order.clone();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below((i + 1) as u64) as usize);
            }
            let permuted = fold(&order);
            assert_eq!(permuted.analyzer().stats(), reference.analyzer().stats());
            assert_eq!(permuted.first_observation(), reference.first_observation());
            assert_eq!(
                (permuted.runs(), permuted.failures(), permuted.totals()),
                (reference.runs(), reference.failures(), reference.totals())
            );
            assert_eq!(permuted.rejected_by_kind(), reference.rejected_by_kind());
            assert_eq!(permuted.cohorts(), reference.cohorts());
        }
        assert_eq!(reference.runs(), 300);
        assert!(reference.failures() > 0);
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
