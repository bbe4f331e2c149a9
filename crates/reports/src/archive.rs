//! The one store of report rows: each report kept as what sparse
//! sampling leaves behind.
//!
//! At the paper's densities almost every counter of almost every report
//! is zero (§2.5), and everything the analyses compute is a function of
//! which counters were *observed* in failing and in passing runs.  A
//! [`SparseArchive`] keeps reports in compressed-row form: per report
//! its run id, label and row end, and per nonzero counter a `u32` index
//! and a `u64` value (12 bytes), where a dense
//! [`Collector`](crate::Collector) spends 8 bytes per counter, zero or
//! not.  Rows arrive one way, whatever their source: straight from wire
//! bytes ([`extend_from_batch`](SparseArchive::extend_from_batch), a
//! spool by [`read_stream`](SparseArchive::read_stream)) with no dense
//! report on the way in, or as a [`ReportSink`] fed dense reports.  They
//! go back out as rows, the compressed form the §3.3 trainer reads, or
//! one dense report at a time.

use crate::collector::CollectError;
use crate::ingest::{walk_batch, BatchRejected, BatchStats};
use crate::report::{nonzero, Label, Report};
use crate::sink::{ReportLayout, ReportSink, SinkError};
use crate::suffstats::SufficientStats;
use crate::wire::WireError;
use std::io::Read;

/// Reports of one instrumented binary, stored as their nonzero counters.
///
/// Every row is appended by one path, so every stored row has strictly
/// ascending indices below the layout's width and no zero value.  An
/// archive made with [`new`](SparseArchive::new) has its layout fixed;
/// a [`default`](SparseArchive::default) one takes the first it is
/// given, by [`ReportSink::begin`] or by the first batch's header.
///
/// ```
/// use cbi_reports::wire::encode_reports;
/// use cbi_reports::{Label, Report, ReportLayout, SparseArchive};
///
/// let layout = ReportLayout { counters: 5, layout_hash: 0xfeed };
/// let sent = vec![
///     Report::new(0, Label::Success, vec![0, 3, 0, 0, 1]),
///     Report::new(1, Label::Failure, vec![0, 0, 0, 0, 0]),
/// ];
/// let batch = encode_reports(&sent, layout.layout_hash, layout.counters)?;
///
/// let mut archive = SparseArchive::new(layout);
/// let stats = archive.extend_from_batch(&batch).expect("a clean batch");
/// assert_eq!((stats.reports, archive.len(), archive.nonzeros()), (2, 2, 2));
///
/// let row = archive.row(0);
/// assert_eq!(row.nonzero().collect::<Vec<_>>(), vec![(1, 3), (4, 1)]);
/// assert_eq!(archive.reports().collect::<Vec<_>>(), sent);
/// # Ok::<(), cbi_reports::WireError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SparseArchive {
    layout: Option<ReportLayout>,
    run_ids: Vec<u64>,
    labels: Vec<Label>,
    /// `row_end[r]` is one past report `r`'s last entry in `indices` and
    /// `values`; its first entry is `row_end[r - 1]` (0 for `r == 0`).
    row_end: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<u64>,
}

/// One archived report, borrowed from a [`SparseArchive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseRow<'a> {
    /// Client-side run identifier.
    pub run_id: u64,
    /// Outcome of the run.
    pub label: Label,
    indices: &'a [u32],
    values: &'a [u64],
}

impl<'a> SparseRow<'a> {
    /// The report's nonzero counters as `(index, value)`, ascending by
    /// index — what [`nonzero`] yields for the dense report.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + Clone + 'a {
        let values = self.values.iter().copied();
        self.indices.iter().map(|&i| i as usize).zip(values)
    }

    /// The dense report, `counters` wide.
    fn to_report(self, counters: usize) -> Report {
        let mut dense = vec![0u64; counters];
        for (i, value) in self.nonzero() {
            dense[i] = value;
        }
        Report::new(self.run_id, self.label, dense)
    }
}

impl SparseArchive {
    /// An empty archive for reports of the given layout.
    ///
    /// # Panics
    ///
    /// Panics if the layout is wider than `u32::MAX` counters: indices
    /// are stored as `u32`.
    pub fn new(layout: ReportLayout) -> SparseArchive {
        let mut archive = SparseArchive::default();
        archive
            .begin(layout)
            .expect("an archive with no layout takes any");
        archive
    }

    /// Reads a whole wire stream — a spool — into a new archive whose
    /// layout is the stream header's: the stream is one batch, walked by
    /// [`extend_from_batch`](Self::extend_from_batch), so no dense report
    /// is built.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on a read failure or any malformed header
    /// or frame.
    pub fn read_stream<R: Read>(mut r: R) -> Result<SparseArchive, WireError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let mut archive = SparseArchive::default();
        archive
            .extend_from_batch(&bytes)
            .map_err(|rejected| rejected.error)?;
        Ok(archive)
    }

    /// Appends every report of one wire batch, all or nothing: the walk
    /// [`decode_batch`](crate::decode_batch) does, checked against this
    /// archive's layout (an archive with none yet takes the batch's),
    /// with each frame's nonzero counters stored as they are read.  It
    /// accepts exactly the batches that decode and rejects a malformed
    /// one at the same byte with the same typed error — leaving the
    /// archive as it was.
    ///
    /// # Errors
    ///
    /// As [`decode_batch`](crate::decode_batch).
    pub fn extend_from_batch(&mut self, bytes: &[u8]) -> Result<BatchStats, BatchRejected> {
        let (rows, entries) = (self.len(), self.nonzeros());
        let walked = walk_batch(bytes, self.layout, |reader| {
            // `i` is below the header's width, at most `MAX_COUNTERS`.
            let frame = reader.read_nonzero(|i, value| self.push_entry(i, value))?;
            let Some((run_id, label)) = frame else {
                return Ok(false);
            };
            self.end_row(run_id, label);
            Ok(true)
        });
        match walked {
            Ok((reports, header, bytes)) => {
                // Walked against the fixed layout, or the first one seen.
                self.layout.get_or_insert(ReportLayout {
                    counters: header.counters,
                    layout_hash: header.layout_hash,
                });
                Ok(BatchStats { reports, bytes })
            }
            Err(rejected) => {
                self.truncate(rows, entries);
                Err(rejected)
            }
        }
    }

    /// Appends one nonzero counter to the row being built.
    fn push_entry(&mut self, i: usize, value: u64) {
        self.indices.push(i as u32);
        self.values.push(value);
    }

    /// Closes the row being built: every entry pushed since the last row.
    fn end_row(&mut self, run_id: u64, label: Label) {
        self.run_ids.push(run_id);
        self.labels.push(label);
        self.row_end.push(self.indices.len());
    }

    /// Drops every row from `rows` on and every entry from `entries` on.
    fn truncate(&mut self, rows: usize, entries: usize) {
        self.run_ids.truncate(rows);
        self.labels.truncate(rows);
        self.row_end.truncate(rows);
        self.indices.truncate(entries);
        self.values.truncate(entries);
    }

    /// The layout of the archived reports, once one is fixed.
    pub fn layout(&self) -> Option<ReportLayout> {
        self.layout
    }

    /// Counters per report, 0 before a layout is fixed.
    pub fn counter_count(&self) -> usize {
        self.layout.map_or(0, |l| l.counters)
    }

    /// Reports archived.
    pub fn len(&self) -> usize {
        self.run_ids.len()
    }

    /// Whether no report has been archived.
    pub fn is_empty(&self) -> bool {
        self.run_ids.is_empty()
    }

    /// Nonzero counters stored across all reports.
    pub fn nonzeros(&self) -> usize {
        self.indices.len()
    }

    /// Forgets every report, keeping the layout and the allocations.
    pub fn clear(&mut self) {
        self.truncate(0, 0);
    }

    /// The `r`-th archived report, in arrival order.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.len()`.
    pub fn row(&self, r: usize) -> SparseRow<'_> {
        let start = if r == 0 { 0 } else { self.row_end[r - 1] };
        let end = self.row_end[r];
        SparseRow {
            run_id: self.run_ids[r],
            label: self.labels[r],
            indices: &self.indices[start..end],
            values: &self.values[start..end],
        }
    }

    /// Every archived report, in arrival order.
    pub fn rows(&self) -> impl Iterator<Item = SparseRow<'_>> {
        (0..self.len()).map(|r| self.row(r))
    }

    /// All reports in arrival order, each materialised as an owned dense
    /// [`Report`] when the iterator reaches it — one report's worth of
    /// dense memory at a time.
    pub fn reports(&self) -> impl Iterator<Item = Report> + '_ {
        let counters = self.counter_count();
        self.rows().map(move |row| row.to_report(counters))
    }

    /// The sufficient statistics of every archived row, folded afresh:
    /// what a [`Collector`](crate::Collector) fed the same reports
    /// holds.
    pub fn stats(&self) -> SufficientStats {
        let mut stats = SufficientStats::new(self.counter_count());
        for row in self.rows() {
            stats.update_nonzero(row.label, row.nonzero());
        }
        stats
    }

    /// Appends every report of `other`, in its order.
    ///
    /// # Panics
    ///
    /// Panics if `other` holds reports of another layout.
    pub fn append(&mut self, other: &SparseArchive) {
        assert_eq!(self.layout, other.layout, "archives of different layouts");
        let base = self.indices.len();
        grow(&mut self.run_ids, other.len());
        grow(&mut self.labels, other.len());
        grow(&mut self.row_end, other.len());
        grow(&mut self.indices, other.nonzeros());
        grow(&mut self.values, other.nonzeros());
        self.run_ids.extend_from_slice(&other.run_ids);
        self.labels.extend_from_slice(&other.labels);
        self.row_end
            .extend(other.row_end.iter().map(|end| base + end));
        self.indices.extend_from_slice(&other.indices);
        self.values.extend_from_slice(&other.values);
    }
}

/// The rows of a dense report stream: each report is stored by its
/// nonzero counters through the same row append a wire batch takes.
impl ReportSink for SparseArchive {
    /// Follows [`ReportLayout::fix`].
    ///
    /// # Panics
    ///
    /// Panics if the layout is wider than `u32::MAX` counters: indices
    /// are stored as `u32`.
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError> {
        assert!(
            u32::try_from(layout.counters).is_ok(),
            "a sparse archive indexes counters with u32"
        );
        ReportLayout::fix(&mut self.layout, layout).map(|_| ())
    }

    /// Archives one report.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError::NotBegun`] before a layout is fixed, and a
    /// [`CollectError::LayoutMismatch`] for a report of another width.
    fn accept(&mut self, report: Report) -> Result<(), SinkError> {
        let counters = self.layout.ok_or(SinkError::NotBegun)?.counters;
        if report.counters.len() != counters {
            return Err(SinkError::Collect(CollectError::LayoutMismatch {
                expected: counters,
                got: report.counters.len(),
            }));
        }
        for (i, value) in nonzero(&report.counters) {
            self.push_entry(i, value);
        }
        self.end_row(report.run_id, report.label);
        Ok(())
    }
}

/// Makes room for `more` elements the way pushing them one at a time
/// would — capacities stay powers of two — so an archive built by
/// [`SparseArchive::append`] takes the memory one built by
/// [`SparseArchive::extend_from_batch`] does, not up to half again more.
fn grow<T>(v: &mut Vec<T>, more: usize) {
    let needed = v.len() + more;
    if needed > v.capacity() {
        v.reserve_exact(needed.next_power_of_two() - v.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{encode_reports, WireError};
    use crate::{decode_batch, nonzero};

    const LAYOUT: ReportLayout = ReportLayout {
        counters: 4,
        layout_hash: 0xabc,
    };

    fn sample() -> Vec<Report> {
        vec![
            Report::new(3, Label::Success, vec![0, 0, 0, 0]),
            Report::new(5, Label::Failure, vec![7, 0, u64::MAX, 0]),
            Report::new(9, Label::Success, vec![0, 1, 0, 128]),
        ]
    }

    #[test]
    fn rows_are_the_nonzero_scan_of_the_decoded_reports() {
        let bytes = encode_reports(&sample(), LAYOUT.layout_hash, LAYOUT.counters).unwrap();
        let mut archive = SparseArchive::new(LAYOUT);
        let stats = archive.extend_from_batch(&bytes).unwrap();
        assert_eq!(stats.reports, 3);
        assert_eq!(stats.bytes, bytes.len() as u64);
        let (decoded, _, _) = decode_batch(&bytes, Some(LAYOUT)).unwrap();
        for (r, report) in decoded.iter().enumerate() {
            let row = archive.row(r);
            assert_eq!((row.run_id, row.label), (report.run_id, report.label));
            assert!(row.nonzero().eq(nonzero(&report.counters)));
        }
        assert_eq!(archive.nonzeros(), 4);
        assert!(archive.reports().eq(decoded));
    }

    #[test]
    fn a_rejected_batch_leaves_the_archive_as_it_was() {
        let good = encode_reports(&sample(), LAYOUT.layout_hash, LAYOUT.counters).unwrap();
        let mut archive = SparseArchive::new(LAYOUT);
        archive.extend_from_batch(&good).unwrap();
        let before = archive.clone();

        // Cut inside the last frame: two frames walk, the third tears.
        let err = archive
            .extend_from_batch(&good[..good.len() - 1])
            .unwrap_err();
        assert!(matches!(err.error, WireError::Truncated(_)));
        assert_eq!(err.decoded, 2);
        assert_eq!(archive, before);

        // Another binary's batch fails at the header.
        let stale = encode_reports(&sample(), 0xdead, LAYOUT.counters).unwrap();
        let err = archive.extend_from_batch(&stale).unwrap_err();
        assert!(matches!(err.error, WireError::LayoutHashMismatch { .. }));
        assert_eq!(archive, before);

        archive.clear();
        assert!(archive.is_empty());
        assert_eq!(archive.nonzeros(), 0);
    }

    #[test]
    fn accepted_reports_are_the_rows_their_batch_walks_into() {
        let bytes = encode_reports(&sample(), LAYOUT.layout_hash, LAYOUT.counters).unwrap();
        let mut walked = SparseArchive::new(LAYOUT);
        walked.extend_from_batch(&bytes).unwrap();
        let mut accepted = SparseArchive::default();
        assert!(matches!(
            accepted.accept(sample()[0].clone()),
            Err(SinkError::NotBegun)
        ));
        accepted.begin(LAYOUT).unwrap();
        for report in sample() {
            accepted.accept(report).unwrap();
        }
        assert_eq!(accepted, walked);
        // A default archive takes its first batch's layout.
        let mut adopted = SparseArchive::default();
        adopted.extend_from_batch(&bytes).unwrap();
        assert_eq!(adopted, walked);
        assert_eq!(accepted.stats(), sample().into_iter().collect());

        let err = accepted
            .accept(Report::new(10, Label::Failure, vec![1; 3]))
            .unwrap_err();
        assert!(matches!(
            err,
            SinkError::Collect(CollectError::LayoutMismatch {
                expected: 4,
                got: 3
            })
        ));
    }

    #[test]
    fn begin_fixes_the_first_layout_and_clears_nothing() {
        let mut archive = SparseArchive::default();
        archive.begin(LAYOUT).unwrap();
        archive.accept(sample()[1].clone()).unwrap();
        archive.begin(LAYOUT).unwrap();
        assert_eq!(archive.len(), 1, "an equal begin is a no-op");
        for other in [
            ReportLayout {
                counters: 5,
                ..LAYOUT
            },
            ReportLayout {
                layout_hash: 0xdef,
                ..LAYOUT
            },
        ] {
            assert!(matches!(
                archive.begin(other),
                Err(SinkError::Collect(
                    CollectError::LayoutMismatch { .. } | CollectError::LayoutHashMismatch { .. }
                ))
            ));
        }
        assert_eq!((archive.layout(), archive.len()), (Some(LAYOUT), 1));
    }

    #[test]
    fn a_spool_reads_into_the_rows_its_batch_walks_into() {
        let bytes = encode_reports(&sample(), LAYOUT.layout_hash, LAYOUT.counters).unwrap();
        let mut walked = SparseArchive::new(LAYOUT);
        walked.extend_from_batch(&bytes).unwrap();
        assert_eq!(
            SparseArchive::read_stream(bytes.as_slice()).unwrap(),
            walked
        );
        let err = SparseArchive::read_stream(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(err, WireError::Truncated(_)), "{err}");
    }

    #[test]
    fn appending_archives_concatenates_their_rows() {
        let reports = sample();
        let encode = |r: &[Report]| encode_reports(r, LAYOUT.layout_hash, LAYOUT.counters).unwrap();
        let mut whole = SparseArchive::new(LAYOUT);
        whole.extend_from_batch(&encode(&reports)).unwrap();
        let mut head = SparseArchive::new(LAYOUT);
        head.extend_from_batch(&encode(&reports[..2])).unwrap();
        let mut tail = SparseArchive::new(LAYOUT);
        tail.extend_from_batch(&encode(&reports[2..])).unwrap();
        head.append(&tail);
        assert_eq!(head, whole);
        assert!(head.rows().eq(whole.rows()));
    }
}
