//! Where reports go: the [`ReportSink`] abstraction.
//!
//! The campaign driver produces one [`Report`] per run; *collection
//! policy* — keep them in memory, spool them to disk, transmit them to a
//! remote analysis server, or fold them into aggregates and discard them —
//! is the sink's business, not the driver's.  A sink receives the counter
//! layout ([`ReportSink::begin`]), then reports in run-id order
//! ([`ReportSink::accept`]), then a final flush ([`ReportSink::finish`]).
//!
//! In-tree implementations:
//!
//! * [`SparseArchive`](crate::SparseArchive) — the one store of report
//!   rows, each kept as its nonzero counters;
//! * [`Collector`](crate::Collector) — the in-memory central database,
//!   every report dense, with its [`SufficientStats`](crate::SufficientStats);
//! * [`WireSink`] — length-prefixed binary frames onto any writer; its
//!   [`create`](WireSink::create) spools them to a file on disk;
//! * [`TransmitSink`] — the same frames, sent as one acked batch
//!   envelope over a TCP socket to a `cbi serve` ingest daemon;
//! * `StreamingAnalyzer` (in the `cbi` crate) — sufficient statistics
//!   only, retaining no raw reports at all;
//! * `FailureIndex` (in `cbi-scoring`) — sufficient statistics plus the
//!   failing runs as `SparseArchive` rows, what the §3.3 isolation loop
//!   reads.
//!
//! Sinks compose: `(&mut a, &mut b)` fans each report out to both, and
//! `Option<S>` is a sink that may be absent.

use crate::collector::CollectError;
use crate::frame::{self, AckVerdict, BatchEnvelope, MAX_ENVELOPE_PAYLOAD};
use crate::report::Report;
use crate::wire::{WireError, WireErrorKind, WireWriter};
use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::path::Path;

/// The counter layout a campaign announces to its sink before the first
/// report: the report vector width plus the site-table fingerprint of the
/// instrumented binary (see `SiteTable::layout_hash` in `cbi-instrument`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportLayout {
    /// Counters per report.
    pub counters: usize,
    /// Fingerprint of the producing site table.
    pub layout_hash: u64,
}

impl ReportLayout {
    /// The [`ReportSink::begin`] rule of every sink that keeps reports or
    /// their statistics: the first layout announced is fixed in `slot`, a
    /// later equal one is a no-op, and any other is a
    /// [`CollectError::LayoutMismatch`] (another width) or a
    /// [`CollectError::LayoutHashMismatch`] (the same width from another
    /// binary).  Nothing is cleared.  Returns
    /// whether `layout` was newly fixed, so the caller sizes its state
    /// then and only then.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError::Collect`] if `slot` holds another layout.
    pub fn fix(slot: &mut Option<ReportLayout>, layout: ReportLayout) -> Result<bool, SinkError> {
        match *slot {
            None => {
                *slot = Some(layout);
                Ok(true)
            }
            Some(fixed) if fixed == layout => Ok(false),
            Some(fixed) if fixed.counters == layout.counters => {
                Err(SinkError::Collect(CollectError::LayoutHashMismatch {
                    counters: fixed.counters,
                    expected: fixed.layout_hash,
                    got: layout.layout_hash,
                }))
            }
            Some(fixed) => Err(SinkError::Collect(CollectError::LayoutMismatch {
                expected: fixed.counters,
                got: layout.counters,
            })),
        }
    }
}

/// Error from a report sink.
#[derive(Debug)]
pub enum SinkError {
    /// A collection error (a layout mismatch).
    Collect(CollectError),
    /// A wire-format error (encoding or transport).
    Wire(WireError),
    /// [`ReportSink::accept`] was called before [`ReportSink::begin`].
    NotBegun,
    /// The ingest server rejected the transmitted stream; the kind says
    /// why ([`WireErrorKind::LayoutHashMismatch`]: another binary's
    /// layout).
    Rejected(WireErrorKind),
}

impl fmt::Display for SinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinkError::Collect(e) => write!(f, "sink collect error: {e}"),
            SinkError::Wire(e) => write!(f, "sink wire error: {e}"),
            SinkError::NotBegun => f.write_str("sink received a report before begin()"),
            SinkError::Rejected(kind) => write!(f, "server rejected the stream: {kind}"),
        }
    }
}

impl Error for SinkError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SinkError::Collect(e) => Some(e),
            SinkError::Wire(e) => Some(e),
            SinkError::NotBegun | SinkError::Rejected(_) => None,
        }
    }
}

impl From<CollectError> for SinkError {
    fn from(e: CollectError) -> Self {
        SinkError::Collect(e)
    }
}

impl From<WireError> for SinkError {
    fn from(e: WireError) -> Self {
        SinkError::Wire(e)
    }
}

/// A destination for a stream of reports sharing one counter layout.
pub trait ReportSink {
    /// Announces the layout before any report arrives.  A stream may
    /// announce it more than once — [`BatchIngest`](crate::BatchIngest)
    /// calls `begin` before every batch — so a sink that keeps reports
    /// follows [`ReportLayout::fix`]: the first layout is fixed, a later
    /// equal one is a no-op, any other is refused, and nothing is
    /// cleared.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError`] if the sink cannot accept this layout.
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError>;

    /// Delivers one report.  Reports arrive in strictly increasing
    /// run-id order.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError`] if the report cannot be ingested.
    fn accept(&mut self, report: Report) -> Result<(), SinkError>;

    /// Flushes any buffered state after the last report.
    ///
    /// # Errors
    ///
    /// Returns [`SinkError`] on flush failure.
    fn finish(&mut self) -> Result<(), SinkError> {
        Ok(())
    }
}

impl<S: ReportSink + ?Sized> ReportSink for &mut S {
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError> {
        (**self).begin(layout)
    }

    fn accept(&mut self, report: Report) -> Result<(), SinkError> {
        (**self).accept(report)
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        (**self).finish()
    }
}

/// Fans each report out to both sinks (the report is cloned once).
impl<A: ReportSink, B: ReportSink> ReportSink for (A, B) {
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError> {
        self.0.begin(layout)?;
        self.1.begin(layout)
    }

    fn accept(&mut self, report: Report) -> Result<(), SinkError> {
        self.0.accept(report.clone())?;
        self.1.accept(report)
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        self.0.finish()?;
        self.1.finish()
    }
}

/// A sink that may be absent; `None` swallows everything.
impl<S: ReportSink> ReportSink for Option<S> {
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError> {
        match self {
            Some(s) => s.begin(layout),
            None => Ok(()),
        }
    }

    fn accept(&mut self, report: Report) -> Result<(), SinkError> {
        match self {
            Some(s) => s.accept(report),
            None => Ok(()),
        }
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        match self {
            Some(s) => s.finish(),
            None => Ok(()),
        }
    }
}

/// A sink that frames reports onto any writer with the binary wire
/// codec.  The stream header is written at [`ReportSink::begin`], when
/// the layout becomes known.
#[derive(Debug)]
pub struct WireSink<W: Write> {
    pending: Option<W>,
    writer: Option<WireWriter<W>>,
}

impl<W: Write> WireSink<W> {
    /// Wraps a writer; nothing is written until `begin`.
    pub fn new(w: W) -> Self {
        WireSink {
            pending: Some(w),
            writer: None,
        }
    }

    /// Reports framed so far.
    pub fn reports_written(&self) -> u64 {
        self.writer.as_ref().map_or(0, WireWriter::reports_written)
    }

    /// Bytes written so far, header included.
    pub fn bytes_written(&self) -> u64 {
        self.writer.as_ref().map_or(0, WireWriter::bytes_written)
    }
}

impl WireSink<BufWriter<File>> {
    /// Creates (truncating) a spool file: reports framed to disk, the
    /// durable intermediary between collection and analysis.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        Ok(WireSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> ReportSink for WireSink<W> {
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError> {
        let w = self.pending.take().ok_or(SinkError::NotBegun)?;
        self.writer = Some(WireWriter::new(w, layout.layout_hash, layout.counters)?);
        Ok(())
    }

    fn accept(&mut self, report: Report) -> Result<(), SinkError> {
        let w = self.writer.as_mut().ok_or(SinkError::NotBegun)?;
        w.write_report(&report)?;
        Ok(())
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        if let Some(w) = self.writer.as_mut() {
            w.flush()?;
        }
        Ok(())
    }
}

/// Transmits reports to an ingest server — the client half of the
/// remote-collection loop.  Connect before the campaign; the stream is
/// encoded as it arrives, and `finish` sends it as one batch envelope
/// and waits for the server's ack.
///
/// The envelope's `(client, seq)` dedup key is `(hash of the stream
/// bytes, 0)`: sending the same stream again — after a lost ack, or to
/// a server resumed from its journal — is answered
/// [`AckVerdict::Duplicate`] and committed exactly once, while two
/// different streams never share a key.
#[derive(Debug)]
pub struct TransmitSink {
    stream: TcpStream,
    inner: WireSink<Vec<u8>>,
    verdict: Option<AckVerdict>,
}

impl TransmitSink {
    /// Connects to an ingest server (typically `cbi serve` on loopback).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the connection fails.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(TransmitSink {
            stream,
            inner: WireSink::new(Vec::new()),
            verdict: None,
        })
    }

    /// Reports encoded so far.
    pub fn reports_written(&self) -> u64 {
        self.inner.reports_written()
    }

    /// Stream bytes encoded so far, header included.
    pub fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    /// The server's answer once [`finish`](ReportSink::finish) has
    /// succeeded: [`AckVerdict::Accepted`], or [`AckVerdict::Duplicate`]
    /// when the server had already committed this exact stream.
    pub fn verdict(&self) -> Option<AckVerdict> {
        self.verdict
    }
}

/// FNV-1a over the stream bytes: the client id of a transmitted
/// stream, stable across processes, platforms and builds.
fn stream_id(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

impl ReportSink for TransmitSink {
    fn begin(&mut self, layout: ReportLayout) -> Result<(), SinkError> {
        self.inner.begin(layout)
    }

    fn accept(&mut self, report: Report) -> Result<(), SinkError> {
        self.inner.accept(report)
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        let writer = self.inner.writer.as_mut().ok_or(SinkError::NotBegun)?;
        let payload = std::mem::take(writer.get_mut());
        if payload.len() > MAX_ENVELOPE_PAYLOAD {
            return Err(WireError::FrameTooLarge {
                declared: payload.len(),
                max: MAX_ENVELOPE_PAYLOAD,
            }
            .into());
        }
        let envelope = BatchEnvelope::new(stream_id(&payload), 0, 0, payload);
        let verdict =
            frame::exchange(&mut self.stream, &envelope, |_| {}).map_err(WireError::Io)?;
        // Half-close: the server reads a clean end of the connection.
        self.stream.shutdown(Shutdown::Write).ok();
        if let AckVerdict::Rejected(kind) = verdict {
            return Err(SinkError::Rejected(kind));
        }
        self.verdict = Some(verdict);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Label;
    use crate::{Collector, SparseArchive};

    fn layout() -> ReportLayout {
        ReportLayout {
            counters: 2,
            layout_hash: 77,
        }
    }

    fn feed<S: ReportSink>(sink: &mut S) {
        sink.begin(layout()).unwrap();
        sink.accept(Report::new(0, Label::Success, vec![1, 0]))
            .unwrap();
        sink.accept(Report::new(1, Label::Failure, vec![0, 2]))
            .unwrap();
        sink.finish().unwrap();
    }

    #[test]
    fn wire_sink_frames_reports() {
        let mut sink = WireSink::new(Vec::new());
        feed(&mut sink);
        assert_eq!(sink.reports_written(), 2);
        let bytes = sink.writer.unwrap().into_inner().unwrap();
        let archive = SparseArchive::read_stream(bytes.as_slice()).unwrap();
        assert_eq!(archive.layout(), Some(layout()));
        assert_eq!(archive.len(), 2);
        assert_eq!(archive.stats().failure_runs(), 1);
    }

    #[test]
    fn accept_before_begin_is_typed() {
        let mut sink = WireSink::new(Vec::new());
        let err = sink
            .accept(Report::new(0, Label::Success, vec![]))
            .unwrap_err();
        assert!(matches!(err, SinkError::NotBegun));
        assert!(err.to_string().contains("begin"));
    }

    #[test]
    fn pair_sink_fans_out() {
        let mut pair = (Collector::default(), WireSink::new(Vec::new()));
        feed(&mut pair);
        assert_eq!(pair.0.len(), 2);
        assert_eq!(pair.1.reports_written(), 2);
    }

    #[test]
    fn option_sink_swallows_when_absent() {
        let mut none: Option<Collector> = None;
        feed(&mut none);
        let mut some = Some(Collector::default());
        feed(&mut some);
        assert_eq!(some.unwrap().len(), 2);
    }

    #[test]
    fn spool_sink_round_trips_through_disk() {
        let path = std::env::temp_dir().join("cbi-spool-sink-test.cbr");
        let mut sink = WireSink::create(&path).unwrap();
        feed(&mut sink);
        assert!(sink.bytes_written() > 0);
        let file = File::open(&path).unwrap();
        let archive = SparseArchive::read_stream(std::io::BufReader::new(file)).unwrap();
        assert_eq!(archive.counter_count(), 2);
        assert_eq!(archive.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
