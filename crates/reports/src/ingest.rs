//! Transactional batch ingest: decode fully, then commit.
//!
//! A community client spools reports locally and transmits them in
//! *batches* — each batch is one self-contained wire stream (header plus
//! frames).  Real channels corrupt batches: bytes get flipped, streams
//! get cut short, stale clients present the wrong layout hash.  The
//! ingest loop must treat every such batch as data to reject, never a
//! reason to crash, and a rejected batch must not poison the aggregates
//! with a half-decoded prefix.
//!
//! [`decode_batch`] decodes one batch to completion before anything is
//! committed; [`BatchIngest`] wraps a [`ReportSink`] with that
//! all-or-nothing policy plus running acceptance/rejection accounting, so
//! a server keeps ingesting subsequent batches after any malformed one.

use crate::sink::{ReportLayout, ReportSink, SinkError};
use crate::wire::{StreamHeader, WireError, WireErrorKind, WireReader};
use crate::Report;
use std::collections::BTreeMap;
use std::fmt;

/// Where a batch came from: the transmitting client and which delivery
/// attempt this was (0 = first try).  Optionally tagged with the
/// client's cohort label so server-side metrics can attribute bytes,
/// retries, and corruption to density-mix / variant / stale cohorts.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Provenance {
    /// Transmitting client id.
    pub client: u64,
    /// Zero-based delivery attempt index.
    pub attempt: u32,
    /// Cohort label (e.g. `"1/100+stale"`), when known.
    pub cohort: Option<String>,
}

impl Provenance {
    /// Provenance with no cohort attribution.
    pub fn new(client: u64, attempt: u32) -> Provenance {
        Provenance {
            client,
            attempt,
            cohort: None,
        }
    }

    /// Attaches a cohort label.
    #[must_use]
    pub fn with_cohort(mut self, cohort: impl Into<String>) -> Provenance {
        self.cohort = Some(cohort.into());
        self
    }

    /// The cohort label, or `"unknown"`.
    pub fn cohort_label(&self) -> &str {
        self.cohort.as_deref().unwrap_or("unknown")
    }
}

/// How decoding one delivered batch went, as a provenance tag.
///
/// `Clean` and `CorruptButDecodable` both commit; the distinction is
/// whether the delivered bytes differed from what the client sent (a
/// lossy channel can flip bits that still parse).  `Rejected` carries
/// the payload-free error kind so per-kind counters stay `Copy`/`Ord`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DecodeOutcome {
    /// Decoded and committed; delivered bytes matched the original.
    Clean,
    /// Decoded and committed, but the delivered bytes were altered in
    /// flight (detectable only when the sender's bytes are known).
    CorruptButDecodable,
    /// Rejected with the given typed error kind; nothing committed.
    Rejected(WireErrorKind),
}

impl DecodeOutcome {
    /// Whether the batch committed reports.
    pub fn accepted(self) -> bool {
        !matches!(self, DecodeOutcome::Rejected(_))
    }

    /// A stable snake_case name, suitable as a metric label value.
    pub fn name(self) -> &'static str {
        match self {
            DecodeOutcome::Clean => "clean",
            DecodeOutcome::CorruptButDecodable => "corrupt_but_decodable",
            DecodeOutcome::Rejected(_) => "rejected",
        }
    }
}

impl fmt::Display for DecodeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeOutcome::Rejected(kind) => write!(f, "rejected({kind})"),
            other => f.write_str(other.name()),
        }
    }
}

/// What one successfully ingested batch contained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Reports committed to the sink.
    pub reports: usize,
    /// Wire bytes consumed (header plus frames).
    pub bytes: u64,
}

/// Why a batch was rejected: the typed wire error plus how far decoding
/// got before failing (nothing up to that point was committed).
#[derive(Debug)]
pub struct BatchRejected {
    /// The decoding or validation failure.
    pub error: WireError,
    /// Frames decoded before the failure (all discarded).
    pub decoded: usize,
}

impl fmt::Display for BatchRejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch rejected after {} decoded frame(s): {}",
            self.decoded, self.error
        )
    }
}

impl std::error::Error for BatchRejected {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Walks one whole batch: the header (checked against `expected` when
/// given), then `frame` on the reader until it reports a clean end.
/// Returns the frame count, the header, and the bytes consumed.
pub(crate) fn walk_batch<'a>(
    bytes: &'a [u8],
    expected: Option<ReportLayout>,
    mut frame: impl FnMut(&mut WireReader<&'a [u8]>) -> Result<bool, WireError>,
) -> Result<(usize, StreamHeader, u64), BatchRejected> {
    let rejected = |error, decoded| BatchRejected { error, decoded };
    let mut reader = WireReader::new(bytes).map_err(|e| rejected(e, 0))?;
    if let Some(layout) = expected {
        reader
            .expect_layout(layout.layout_hash, layout.counters)
            .map_err(|e| rejected(e, 0))?;
    }
    loop {
        match frame(&mut reader) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => return Err(rejected(e, reader.reports_read() as usize)),
        }
    }
    Ok((
        reader.reports_read() as usize,
        reader.header(),
        reader.bytes_read(),
    ))
}

/// Decodes one whole batch (a self-contained wire stream) from `bytes`,
/// validating the header against `expected` when given.
///
/// Decoding runs to the end of the stream before returning, so a
/// malformed byte anywhere rejects the entire batch — no partial prefix
/// escapes.
///
/// # Errors
///
/// Returns [`BatchRejected`] carrying the typed [`WireError`] for any
/// malformed header or frame, or a layout mismatch.
pub fn decode_batch(
    bytes: &[u8],
    expected: Option<ReportLayout>,
) -> Result<(Vec<Report>, StreamHeader, u64), BatchRejected> {
    let mut reports = Vec::new();
    let (_, header, consumed) = walk_batch(bytes, expected, |reader| {
        Ok(reader.read_report()?.map(|r| reports.push(r)).is_some())
    })?;
    Ok((reports, header, consumed))
}

/// Checks one whole batch without materialising a report: the same walk
/// as [`decode_batch`], so it accepts exactly the batches that decode,
/// counts the same reports and consumed bytes, and rejects a malformed
/// one at the same byte with the same typed error.  This is what an
/// ingest server runs before it journals and acks a batch.
///
/// # Errors
///
/// As [`decode_batch`].
pub fn validate_batch(
    bytes: &[u8],
    expected: Option<ReportLayout>,
) -> Result<(usize, StreamHeader, u64), BatchRejected> {
    walk_batch(bytes, expected, WireReader::validate_report)
}

/// A [`ReportSink`] front end with all-or-nothing batch semantics.
///
/// Each call to [`ingest`](BatchIngest::ingest) decodes one batch fully;
/// only a clean batch is folded into the sink, and a rejected batch
/// leaves the sink exactly as it was.  The ingest loop is re-entrant
/// after any error — feed the next batch and keep going.
#[derive(Debug)]
pub struct BatchIngest<S: ReportSink> {
    sink: S,
    expected: Option<ReportLayout>,
    accepted: u64,
    rejected: u64,
    reports: u64,
    bytes: u64,
    rejected_bytes: u64,
    rejected_by_kind: BTreeMap<WireErrorKind, u64>,
}

impl<S: ReportSink> BatchIngest<S> {
    /// Wraps `sink`; batches must match `expected` when given (a stale
    /// client's stream is rejected at its header, before any frame).
    pub fn new(sink: S, expected: Option<ReportLayout>) -> Self {
        BatchIngest {
            sink,
            expected,
            accepted: 0,
            rejected: 0,
            reports: 0,
            bytes: 0,
            rejected_bytes: 0,
            rejected_by_kind: BTreeMap::new(),
        }
    }

    /// Ingests one batch transactionally.
    ///
    /// # Errors
    ///
    /// Returns [`BatchRejected`] (typed, never a panic) for a malformed
    /// or mismatched batch — the sink is untouched and the ingest loop
    /// may continue — or [`BatchRejected`] wrapping an I/O-class error if
    /// the sink itself fails mid-commit.
    pub fn ingest(&mut self, bytes: &[u8]) -> Result<BatchStats, BatchRejected> {
        match self.try_ingest(bytes) {
            Ok(stats) => {
                self.accepted += 1;
                self.reports += stats.reports as u64;
                self.bytes += stats.bytes;
                Ok(stats)
            }
            Err(e) => {
                self.rejected += 1;
                self.rejected_bytes += bytes.len() as u64;
                *self.rejected_by_kind.entry(e.error.kind()).or_default() += 1;
                Err(e)
            }
        }
    }

    fn try_ingest(&mut self, bytes: &[u8]) -> Result<BatchStats, BatchRejected> {
        let (reports, header, consumed) = decode_batch(bytes, self.expected)?;
        let count = reports.len();
        self.sink
            .begin(ReportLayout {
                counters: header.counters,
                layout_hash: header.layout_hash,
            })
            .map_err(|e| BatchRejected {
                error: sink_error_to_wire(e),
                decoded: count,
            })?;
        for (i, report) in reports.into_iter().enumerate() {
            self.sink.accept(report).map_err(|e| BatchRejected {
                error: sink_error_to_wire(e),
                decoded: i,
            })?;
        }
        Ok(BatchStats {
            reports: count,
            bytes: consumed,
        })
    }

    /// Finishes the underlying sink.
    ///
    /// # Errors
    ///
    /// Propagates the sink's flush failure.
    pub fn finish(&mut self) -> Result<(), SinkError> {
        self.sink.finish()
    }

    /// The wrapped sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the front end, returning the sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Batches committed.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Batches rejected (typed error, nothing committed).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Rejections specifically for a layout-hash/width mismatch — the
    /// stale-client signal.
    pub fn layout_rejections(&self) -> u64 {
        self.rejection_count(WireErrorKind::LayoutHashMismatch)
    }

    /// Rejection totals broken down by typed [`WireErrorKind`], sorted
    /// by kind.  Kinds that never occurred are absent.
    pub fn rejected_by_kind(&self) -> &BTreeMap<WireErrorKind, u64> {
        &self.rejected_by_kind
    }

    /// Rejections of one specific kind (0 when never seen).
    pub fn rejection_count(&self, kind: WireErrorKind) -> u64 {
        self.rejected_by_kind.get(&kind).copied().unwrap_or(0)
    }

    /// Reports committed across all accepted batches.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// Wire bytes consumed by accepted batches.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Bytes received in rejected batches (still cost the wire).
    pub fn rejected_bytes(&self) -> u64 {
        self.rejected_bytes
    }
}

/// Maps a sink failure during commit onto the wire error space so
/// [`BatchRejected`] stays the single rejection type.  Layout errors map
/// onto the matching wire variant; transport errors pass through.
fn sink_error_to_wire(e: SinkError) -> WireError {
    match e {
        SinkError::Wire(w) => w,
        SinkError::Collect(c) => WireError::Io(std::io::Error::other(c.to_string())),
        SinkError::NotBegun => WireError::Io(std::io::Error::other("sink not begun")),
        e @ SinkError::Rejected(_) => WireError::Io(std::io::Error::other(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_reports;
    use crate::{Collector, Label};

    fn batch(layout_hash: u64) -> Vec<u8> {
        let reports = vec![
            Report::new(0, Label::Success, vec![1, 0, 2]),
            Report::new(1, Label::Failure, vec![0, 5, 0]),
        ];
        encode_reports(&reports, layout_hash, 3).unwrap()
    }

    fn layout() -> ReportLayout {
        ReportLayout {
            counters: 3,
            layout_hash: 0xabc,
        }
    }

    #[test]
    fn clean_batches_commit() {
        let mut ingest = BatchIngest::new(Collector::default(), Some(layout()));
        let stats = ingest.ingest(&batch(0xabc)).unwrap();
        assert_eq!(stats.reports, 2);
        assert_eq!(stats.bytes, batch(0xabc).len() as u64);
        assert_eq!(ingest.accepted(), 1);
        assert_eq!(ingest.reports(), 2);
        assert_eq!(ingest.sink().len(), 2);
    }

    #[test]
    fn stale_layout_rejected_before_any_commit() {
        let mut ingest = BatchIngest::new(Collector::default(), Some(layout()));
        let err = ingest.ingest(&batch(0xdead)).unwrap_err();
        assert!(matches!(err.error, WireError::LayoutHashMismatch { .. }));
        assert_eq!(err.decoded, 0);
        assert_eq!(ingest.rejected(), 1);
        assert_eq!(ingest.layout_rejections(), 1);
        assert!(ingest.sink().is_empty());
        // The loop continues: a clean batch still lands afterwards.
        ingest.ingest(&batch(0xabc)).unwrap();
        assert_eq!(ingest.sink().len(), 2);
    }

    #[test]
    fn truncated_batch_commits_nothing() {
        let good = batch(0xabc);
        // Cut inside the *first* frame's payload: one frame would decode
        // under streaming ingest, but transactional ingest discards it.
        let cut = &good[..good.len() - 1];
        let mut ingest = BatchIngest::new(Collector::default(), Some(layout()));
        let err = ingest.ingest(cut).unwrap_err();
        assert!(matches!(err.error, WireError::Truncated(_)));
        assert_eq!(err.decoded, 1, "one frame decoded, then the cut");
        assert!(ingest.sink().is_empty(), "no partial prefix may commit");
        assert_eq!(ingest.rejected_bytes(), cut.len() as u64);
    }

    #[test]
    fn rejections_counted_per_kind() {
        let mut ingest = BatchIngest::new(Collector::default(), Some(layout()));
        // Two stale batches, one truncated, one garbage magic.
        ingest.ingest(&batch(0xdead)).unwrap_err();
        ingest.ingest(&batch(0xbeef)).unwrap_err();
        let good = batch(0xabc);
        ingest.ingest(&good[..good.len() - 1]).unwrap_err();
        ingest.ingest(b"XXXXXXXX").unwrap_err();
        assert_eq!(ingest.rejected(), 4);
        assert_eq!(ingest.rejection_count(WireErrorKind::LayoutHashMismatch), 2);
        assert_eq!(ingest.rejection_count(WireErrorKind::Truncated), 1);
        assert_eq!(ingest.rejection_count(WireErrorKind::BadMagic), 1);
        assert_eq!(ingest.rejection_count(WireErrorKind::VarintOverflow), 0);
        assert_eq!(ingest.layout_rejections(), 2);
        // Per-kind totals always sum to the aggregate.
        let total: u64 = ingest.rejected_by_kind().values().sum();
        assert_eq!(total, ingest.rejected());
        // BTreeMap keys iterate in stable kind order.
        let kinds: Vec<WireErrorKind> = ingest.rejected_by_kind().keys().copied().collect();
        let mut sorted = kinds.clone();
        sorted.sort();
        assert_eq!(kinds, sorted);
    }

    #[test]
    fn provenance_and_outcome_labels() {
        let p = Provenance::new(7, 2).with_cohort("1/100+stale");
        assert_eq!(p.client, 7);
        assert_eq!(p.attempt, 2);
        assert_eq!(p.cohort_label(), "1/100+stale");
        assert_eq!(Provenance::new(0, 0).cohort_label(), "unknown");

        assert!(DecodeOutcome::Clean.accepted());
        assert!(DecodeOutcome::CorruptButDecodable.accepted());
        let rej = DecodeOutcome::Rejected(WireErrorKind::Truncated);
        assert!(!rej.accepted());
        assert_eq!(rej.name(), "rejected");
        assert_eq!(rej.to_string(), "rejected(truncated)");
        assert_eq!(DecodeOutcome::Clean.to_string(), "clean");
    }

    #[test]
    fn rejection_is_displayable() {
        let mut ingest = BatchIngest::new(Collector::default(), Some(layout()));
        let err = ingest.ingest(b"XXXX").unwrap_err();
        let text = err.to_string();
        assert!(text.contains("rejected"), "{text}");
    }
}
