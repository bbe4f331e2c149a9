//! Compact binary wire format for feedback reports.
//!
//! The paper's clients transmit counter vectors over the network (§2.5).
//! This codec is the one report format, on the network and on disk (a
//! spool is one stream written to a file): a stream begins with a fixed
//! header identifying the codec version and the *counter layout* of the
//! instrumented binary that produced the reports, followed by
//! length-prefixed report frames.  At the paper's densities
//! almost every counter is zero, so a frame lists only its nonzero
//! counters, each as the gap since the previous one and its value.
//!
//! ```text
//! stream  := magic "CBIR" | version u8 (2) | layout_hash u64 LE | counters varint | frame*
//! frame   := len varint | payload                  (len = payload byte count)
//! payload := run_id varint | label u8 (0|1) | (gap varint, value varint)*
//! ```
//!
//! The pairs run to the end of the frame.  A pair's counter index is the
//! previous pair's index plus one plus its gap (the first pair's index is
//! its gap), so indices strictly ascend; every index is below the
//! header's `counters` and every value is nonzero, which gives each
//! report exactly one spelling.  `counters` is at most [`MAX_COUNTERS`].
//!
//! The layout hash (see `SiteTable::layout_hash` in `cbi-instrument`)
//! fingerprints the site table, so a server rejects reports from a
//! mismatched instrumented binary at the frame boundary — with a typed
//! [`WireError::LayoutHashMismatch`] — instead of deep inside an analysis.
//! Varints are LEB128: 7 value bits per byte, high bit set on continuation.

use crate::report::{nonzero, Label, Report};
use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

/// Stream magic: the first four bytes of every report stream.
pub const MAGIC: [u8; 4] = *b"CBIR";

/// Current wire-format version.
pub const VERSION: u8 = 2;

/// The widest counter layout a stream may declare.  A decoded report is
/// a dense vector this wide, so the ceiling keeps a hostile header from
/// sizing the allocation; the paper's widest program (`bc`) has 30 150
/// counters.
pub const MAX_COUNTERS: usize = 1 << 20;

/// The fixed header that opens every report stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHeader {
    /// Codec version (currently [`VERSION`]).
    pub version: u8,
    /// Fingerprint of the producing binary's counter layout.
    pub layout_hash: u64,
    /// Counters per report.
    pub counters: usize,
}

/// Error from encoding or decoding the binary wire format.
#[derive(Debug)]
pub enum WireError {
    /// An underlying I/O error.
    Io(std::io::Error),
    /// The stream did not start with the `CBIR` magic.
    BadMagic([u8; 4]),
    /// The stream's version byte is not one this codec understands.
    UnsupportedVersion(u8),
    /// The stream's layout hash does not match the expected binary.
    LayoutHashMismatch {
        /// Hash of the layout the receiver expects.
        expected: u64,
        /// Hash carried by the stream header.
        got: u64,
    },
    /// The stream's counter count does not match the expected layout.
    CounterCountMismatch {
        /// Expected counters per report.
        expected: usize,
        /// Counters per report declared by the stream.
        got: usize,
    },
    /// The stream ended in the middle of a header or frame.
    Truncated(&'static str),
    /// A label byte was neither 0 (success) nor 1 (failure).
    BadLabel(u8),
    /// A varint ran past 10 bytes (more than 64 value bits).
    VarintOverflow,
    /// A frame declared a length beyond the layout's maximum.
    FrameTooLarge {
        /// Declared payload length.
        declared: usize,
        /// Maximum payload length the layout admits.
        max: usize,
    },
    /// A frame's payload length disagreed with its declared length.
    /// Version 2 payloads cannot produce it, since their pairs run to
    /// the end of the frame; the kind keeps its place in
    /// [`WireErrorKind::ALL`].
    FrameLength {
        /// Declared payload length.
        declared: usize,
        /// Bytes actually consumed decoding the payload.
        used: usize,
    },
    /// A counter pair named an index at or past the stream's width
    /// (or one that overflows), or carried the value zero.
    BadCounter(&'static str),
    /// The stream header declared more counters than [`MAX_COUNTERS`].
    TooManyCounters {
        /// Counters per report declared by the stream.
        declared: u64,
        /// The ceiling, [`MAX_COUNTERS`].
        max: usize,
    },
}

/// Payload-free classification of a [`WireError`] — one variant per
/// error shape, usable as a map key or metric label.
///
/// Ordering and [`name`](WireErrorKind::name) are stable: per-kind
/// rejection counters keyed on this enum export deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WireErrorKind {
    /// [`WireError::Io`].
    Io,
    /// [`WireError::BadMagic`].
    BadMagic,
    /// [`WireError::UnsupportedVersion`].
    UnsupportedVersion,
    /// [`WireError::LayoutHashMismatch`].
    LayoutHashMismatch,
    /// [`WireError::CounterCountMismatch`].
    CounterCountMismatch,
    /// [`WireError::Truncated`].
    Truncated,
    /// [`WireError::BadLabel`].
    BadLabel,
    /// [`WireError::VarintOverflow`].
    VarintOverflow,
    /// [`WireError::FrameTooLarge`].
    FrameTooLarge,
    /// [`WireError::FrameLength`].
    FrameLength,
    /// [`WireError::BadCounter`].
    BadCounter,
    /// [`WireError::TooManyCounters`].
    TooManyCounters,
}

impl WireErrorKind {
    /// Every kind, in stable (declaration) order.  New kinds are
    /// appended: an ack's detail byte is an index into this list.
    pub const ALL: [WireErrorKind; 12] = [
        WireErrorKind::Io,
        WireErrorKind::BadMagic,
        WireErrorKind::UnsupportedVersion,
        WireErrorKind::LayoutHashMismatch,
        WireErrorKind::CounterCountMismatch,
        WireErrorKind::Truncated,
        WireErrorKind::BadLabel,
        WireErrorKind::VarintOverflow,
        WireErrorKind::FrameTooLarge,
        WireErrorKind::FrameLength,
        WireErrorKind::BadCounter,
        WireErrorKind::TooManyCounters,
    ];

    /// A stable snake_case name, suitable as a metric label value.
    pub fn name(self) -> &'static str {
        match self {
            WireErrorKind::Io => "io",
            WireErrorKind::BadMagic => "bad_magic",
            WireErrorKind::UnsupportedVersion => "unsupported_version",
            WireErrorKind::LayoutHashMismatch => "layout_hash_mismatch",
            WireErrorKind::CounterCountMismatch => "counter_count_mismatch",
            WireErrorKind::Truncated => "truncated",
            WireErrorKind::BadLabel => "bad_label",
            WireErrorKind::VarintOverflow => "varint_overflow",
            WireErrorKind::FrameTooLarge => "frame_too_large",
            WireErrorKind::FrameLength => "frame_length",
            WireErrorKind::BadCounter => "bad_counter",
            WireErrorKind::TooManyCounters => "too_many_counters",
        }
    }
}

impl fmt::Display for WireErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl WireError {
    /// This error's payload-free [`WireErrorKind`].
    pub fn kind(&self) -> WireErrorKind {
        match self {
            WireError::Io(_) => WireErrorKind::Io,
            WireError::BadMagic(_) => WireErrorKind::BadMagic,
            WireError::UnsupportedVersion(_) => WireErrorKind::UnsupportedVersion,
            WireError::LayoutHashMismatch { .. } => WireErrorKind::LayoutHashMismatch,
            WireError::CounterCountMismatch { .. } => WireErrorKind::CounterCountMismatch,
            WireError::Truncated(_) => WireErrorKind::Truncated,
            WireError::BadLabel(_) => WireErrorKind::BadLabel,
            WireError::VarintOverflow => WireErrorKind::VarintOverflow,
            WireError::FrameTooLarge { .. } => WireErrorKind::FrameTooLarge,
            WireError::FrameLength { .. } => WireErrorKind::FrameLength,
            WireError::BadCounter(_) => WireErrorKind::BadCounter,
            WireError::TooManyCounters { .. } => WireErrorKind::TooManyCounters,
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad stream magic {m:?} (expected \"CBIR\")"),
            WireError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire version {v} (this build speaks {VERSION})")
            }
            WireError::LayoutHashMismatch { expected, got } => write!(
                f,
                "layout hash mismatch: expected {expected:#018x}, stream has {got:#018x} \
                 (reports come from a different instrumented binary)"
            ),
            WireError::CounterCountMismatch { expected, got } => write!(
                f,
                "counter count mismatch: expected {expected} counters per report, stream declares {got}"
            ),
            WireError::Truncated(what) => write!(f, "truncated stream while reading {what}"),
            WireError::BadLabel(b) => write!(f, "bad label byte {b:#04x} (expected 0 or 1)"),
            WireError::VarintOverflow => f.write_str("varint exceeds 64 bits"),
            WireError::FrameTooLarge { declared, max } => write!(
                f,
                "frame declares {declared} payload bytes but the layout admits at most {max}"
            ),
            WireError::FrameLength { declared, used } => write!(
                f,
                "frame declared {declared} payload bytes but decoding consumed {used}"
            ),
            WireError::BadCounter(what) => write!(f, "bad counter pair: {what}"),
            WireError::TooManyCounters { declared, max } => write!(
                f,
                "stream declares {declared} counters per report, more than the {max} a stream may carry"
            ),
        }
    }
}

impl Error for WireError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Appends `v` to `buf` as an LEB128 varint.
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decodes one varint from a slice cursor.
pub(crate) fn take_varint(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    for shift in (0..).step_by(7) {
        if shift >= 64 {
            return Err(WireError::VarintOverflow);
        }
        let byte = *buf
            .get(*pos)
            .ok_or(WireError::Truncated("frame payload varint"))?;
        *pos += 1;
        let bits = (byte & 0x7f) as u64;
        if shift == 63 && bits > 1 {
            return Err(WireError::VarintOverflow);
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    unreachable!("loop returns or errors")
}

pub(crate) fn read_u8<R: Read>(r: &mut R, what: &'static str) -> Result<u8, WireError> {
    let mut b = [0u8; 1];
    match r.read_exact(&mut b) {
        Ok(()) => Ok(b[0]),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(WireError::Truncated(what)),
        Err(e) => Err(WireError::Io(e)),
    }
}

/// Maximum payload bytes a report with `counters` counters can occupy:
/// run_id (≤10) + label (1) + a gap and a value (≤10 each) per counter.
fn max_payload(counters: usize) -> usize {
    11 + 20 * counters
}

/// Walks one frame payload — run id, label, then `(gap, value)` pairs to
/// the end of the frame — and hands every counter to `nonzero` in
/// ascending index order.
///
/// The decoder, the validator and the sparse reader are this one walk
/// with three visitors, so all stop at the same byte of a malformed
/// frame with the same error.
fn walk_payload(
    buf: &[u8],
    counters: usize,
    mut nonzero: impl FnMut(usize, u64),
) -> Result<(u64, Label), WireError> {
    let mut pos = 0;
    let run_id = take_varint(buf, &mut pos)?;
    let label = match buf.get(pos) {
        Some(0) => Label::Success,
        Some(1) => Label::Failure,
        Some(&b) => return Err(WireError::BadLabel(b)),
        None => return Err(WireError::Truncated("label byte")),
    };
    pos += 1;
    // The lowest index the next pair may name: one past the previous.
    let mut next: u64 = 0;
    while pos < buf.len() {
        let index = next
            .checked_add(take_varint(buf, &mut pos)?)
            .filter(|&i| i < counters as u64)
            .ok_or(WireError::BadCounter("index past the layout width"))?;
        let value = take_varint(buf, &mut pos)?;
        if value == 0 {
            return Err(WireError::BadCounter("zero value"));
        }
        // `index < counters`, a usize.
        nonzero(index as usize, value);
        next = index + 1;
    }
    Ok((run_id, label))
}

/// Streaming encoder: writes the stream header up front, then one frame
/// per report.
#[derive(Debug)]
pub struct WireWriter<W: Write> {
    w: W,
    counters: usize,
    buf: Vec<u8>,
    reports: u64,
    bytes: u64,
}

impl<W: Write> WireWriter<W> {
    /// Opens a stream on `w`, writing the header for the given layout.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TooManyCounters`] if `counters` exceeds
    /// [`MAX_COUNTERS`], or [`WireError::Io`] if the header cannot be
    /// written.
    pub fn new(mut w: W, layout_hash: u64, counters: usize) -> Result<Self, WireError> {
        if counters > MAX_COUNTERS {
            return Err(WireError::TooManyCounters {
                declared: counters as u64,
                max: MAX_COUNTERS,
            });
        }
        let mut head = Vec::with_capacity(4 + 1 + 8 + 10);
        head.extend_from_slice(&MAGIC);
        head.push(VERSION);
        head.extend_from_slice(&layout_hash.to_le_bytes());
        push_varint(&mut head, counters as u64);
        w.write_all(&head)?;
        let bytes = head.len() as u64;
        Ok(WireWriter {
            w,
            counters,
            buf: Vec::with_capacity(64),
            reports: 0,
            bytes,
        })
    }

    /// Encodes one report as a frame: its nonzero counters as
    /// `(gap, value)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::CounterCountMismatch`] if the report does not
    /// match the stream layout, or [`WireError::Io`] on write failure.
    pub fn write_report(&mut self, report: &Report) -> Result<(), WireError> {
        if report.counters.len() != self.counters {
            return Err(WireError::CounterCountMismatch {
                expected: self.counters,
                got: report.counters.len(),
            });
        }
        self.buf.clear();
        push_varint(&mut self.buf, report.run_id);
        self.buf.push(match report.label {
            Label::Success => 0,
            Label::Failure => 1,
        });
        let mut next = 0;
        for (i, value) in nonzero(&report.counters) {
            push_varint(&mut self.buf, (i - next) as u64);
            push_varint(&mut self.buf, value);
            next = i + 1;
        }
        let mut len = Vec::with_capacity(5);
        push_varint(&mut len, self.buf.len() as u64);
        self.w.write_all(&len)?;
        self.w.write_all(&self.buf)?;
        self.reports += 1;
        self.bytes += (len.len() + self.buf.len()) as u64;
        cbi_telemetry::count("wire.frames_out", 1);
        cbi_telemetry::count("wire.bytes_out", (len.len() + self.buf.len()) as u64);
        Ok(())
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] on flush failure.
    pub fn flush(&mut self) -> Result<(), WireError> {
        self.w.flush()?;
        Ok(())
    }

    /// Reports written so far.
    pub fn reports_written(&self) -> u64 {
        self.reports
    }

    /// Total bytes written, header included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// The underlying writer.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.w
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Io`] on flush failure.
    pub fn into_inner(mut self) -> Result<W, WireError> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Streaming decoder: validates the header on construction, then yields
/// one report per frame.
#[derive(Debug)]
pub struct WireReader<R: Read> {
    r: R,
    header: StreamHeader,
    buf: Vec<u8>,
    reports: u64,
    bytes: u64,
}

impl<R: Read> WireReader<R> {
    /// Opens a stream, reading and validating the magic, version, and
    /// layout header.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::BadMagic`], [`WireError::UnsupportedVersion`],
    /// [`WireError::TooManyCounters`], [`WireError::VarintOverflow`],
    /// [`WireError::Truncated`], or [`WireError::Io`].
    pub fn new(mut r: R) -> Result<Self, WireError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::Truncated("stream magic")
            } else {
                WireError::Io(e)
            }
        })?;
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = read_u8(&mut r, "version byte")?;
        if version != VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let mut hash = [0u8; 8];
        r.read_exact(&mut hash).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::Truncated("layout hash")
            } else {
                WireError::Io(e)
            }
        })?;
        // Decode the counter-count varint byte by byte so the consumed
        // length is counted exactly.
        let mut counters: u64 = 0;
        let mut count_bytes: u64 = 0;
        for shift in (0..).step_by(7) {
            if shift >= 64 {
                return Err(WireError::VarintOverflow);
            }
            let byte = read_u8(&mut r, "counter count")?;
            count_bytes += 1;
            counters |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                break;
            }
        }
        if counters > MAX_COUNTERS as u64 {
            return Err(WireError::TooManyCounters {
                declared: counters,
                max: MAX_COUNTERS,
            });
        }
        let counters = counters as usize;
        let bytes = 4 + 1 + 8 + count_bytes;
        Ok(WireReader {
            r,
            header: StreamHeader {
                version,
                layout_hash: u64::from_le_bytes(hash),
                counters,
            },
            buf: Vec::with_capacity(64),
            reports: 0,
            bytes,
        })
    }

    /// The stream's header.
    pub fn header(&self) -> StreamHeader {
        self.header
    }

    /// Validates the stream against an expected layout.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::LayoutHashMismatch`] or
    /// [`WireError::CounterCountMismatch`].
    pub fn expect_layout(&self, layout_hash: u64, counters: usize) -> Result<(), WireError> {
        if self.header.layout_hash != layout_hash {
            return Err(WireError::LayoutHashMismatch {
                expected: layout_hash,
                got: self.header.layout_hash,
            });
        }
        if self.header.counters != counters {
            return Err(WireError::CounterCountMismatch {
                expected: counters,
                got: self.header.counters,
            });
        }
        Ok(())
    }

    /// Reads the next frame, or `None` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation mid-frame, oversized frames,
    /// bad labels, or I/O failure.
    pub fn read_report(&mut self) -> Result<Option<Report>, WireError> {
        self.next_frame(|payload, width| {
            // `new` bounded the width by `MAX_COUNTERS`.
            let mut counters = vec![0u64; width];
            let (run_id, label) = walk_payload(payload, width, |i, value| counters[i] = value)?;
            Ok(Report::new(run_id, label, counters))
        })
    }

    /// Checks the next frame exactly as [`read_report`](Self::read_report)
    /// would — same bytes consumed, same error at the same byte — without
    /// materialising the report.  `false` at a clean end of stream.
    ///
    /// # Errors
    ///
    /// As [`read_report`](Self::read_report).
    pub fn validate_report(&mut self) -> Result<bool, WireError> {
        let frame =
            self.next_frame(|payload, width| walk_payload(payload, width, |_, _| {}).map(|_| ()))?;
        Ok(frame.is_some())
    }

    /// Reads the next frame's run id and label and hands each nonzero
    /// counter to `nonzero` as `(index, value)`, ascending by index: the
    /// walk of [`read_report`](Self::read_report) — same bytes consumed,
    /// same error at the same byte — with no dense vector in between.
    /// `None` at a clean end of stream.  A malformed frame may have
    /// handed over some of its counters before the error.
    ///
    /// # Errors
    ///
    /// As [`read_report`](Self::read_report).
    pub fn read_nonzero(
        &mut self,
        nonzero: impl FnMut(usize, u64),
    ) -> Result<Option<(u64, Label)>, WireError> {
        self.next_frame(|payload, width| walk_payload(payload, width, nonzero))
    }

    /// Reads the next frame's length prefix and payload, then hands the
    /// payload and the stream's counter count to `visit`.
    fn next_frame<T>(
        &mut self,
        visit: impl FnOnce(&[u8], usize) -> Result<T, WireError>,
    ) -> Result<Option<T>, WireError> {
        // A clean stream ends exactly on a frame boundary: EOF while
        // reading the first length byte means "done", EOF anywhere else
        // is truncation.
        let mut first = [0u8; 1];
        loop {
            match self.r.read(&mut first) {
                Ok(0) => return Ok(None),
                Ok(_) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
        }
        let mut len_bytes: u64 = 1;
        let len = if first[0] & 0x80 == 0 {
            first[0] as u64
        } else {
            let mut v = (first[0] & 0x7f) as u64;
            let mut shift = 7;
            loop {
                if shift >= 64 {
                    return Err(WireError::VarintOverflow);
                }
                let byte = read_u8(&mut self.r, "frame length")?;
                len_bytes += 1;
                v |= ((byte & 0x7f) as u64) << shift;
                if byte & 0x80 == 0 {
                    break;
                }
                shift += 7;
            }
            v
        } as usize;
        let max = max_payload(self.header.counters);
        if len > max {
            return Err(WireError::FrameTooLarge { declared: len, max });
        }
        self.buf.resize(len, 0);
        self.r.read_exact(&mut self.buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::Truncated("frame payload")
            } else {
                WireError::Io(e)
            }
        })?;

        let frame = visit(&self.buf, self.header.counters)?;
        self.reports += 1;
        self.bytes += len_bytes + len as u64;
        cbi_telemetry::count("wire.frames_in", 1);
        cbi_telemetry::count("wire.bytes_in", len_bytes + len as u64);
        Ok(Some(frame))
    }

    /// Reports decoded so far.
    pub fn reports_read(&self) -> u64 {
        self.reports
    }

    /// Exact bytes consumed (header plus frames).
    pub fn bytes_read(&self) -> u64 {
        self.bytes
    }
}

/// Encodes a batch of reports to an in-memory stream.
///
/// # Errors
///
/// Returns [`WireError`] if any report disagrees with `counters`.
pub fn encode_reports(
    reports: &[Report],
    layout_hash: u64,
    counters: usize,
) -> Result<Vec<u8>, WireError> {
    let mut w = WireWriter::new(Vec::new(), layout_hash, counters)?;
    for r in reports {
        w.write_report(r)?;
    }
    w.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Report> {
        vec![
            Report::new(0, Label::Success, vec![0, 3, 0, 127, 128]),
            Report::new(1, Label::Failure, vec![1, 0, 0, 0, u64::MAX]),
            Report::new(7, Label::Success, vec![0, 0, 0, 0, 0]),
        ]
    }

    #[test]
    fn round_trip() {
        let bytes = encode_reports(&sample(), 0xdead_beef, 5).unwrap();
        let mut r = WireReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.header().layout_hash, 0xdead_beef);
        assert_eq!(r.header().counters, 5);
        assert_eq!(r.header().version, VERSION);
        let mut back = Vec::new();
        while let Some(report) = r.read_report().unwrap() {
            back.push(report);
        }
        assert_eq!(back, sample());
        assert_eq!(r.reports_read(), 3);
    }

    #[test]
    fn frames_list_only_nonzero_counters() {
        let report = Report::new(5, Label::Failure, vec![0, 0, 0, 7, 0, 1]);
        let bytes = encode_reports(std::slice::from_ref(&report), 0, 6).unwrap();
        // len | run_id | label | (gap 3, value 7) | (gap 1, value 1)
        assert_eq!(&bytes[14..], &[6, 5, 1, 3, 7, 1, 1]);

        // A frame of a few bytes can name a counter far past its length.
        let mut wide = vec![0; 1437];
        wide[1400] = 2;
        let report = Report::new(9, Label::Success, wide);
        let bytes = encode_reports(std::slice::from_ref(&report), 0, 1437).unwrap();
        let mut r = WireReader::new(bytes.as_slice()).unwrap();
        assert_eq!(r.read_report().unwrap(), Some(report));
        assert_eq!(r.bytes_read(), bytes.len() as u64);
    }

    #[test]
    fn writer_refuses_a_width_past_the_ceiling() {
        let err = WireWriter::new(Vec::new(), 0, MAX_COUNTERS + 1).unwrap_err();
        assert_eq!(err.kind(), WireErrorKind::TooManyCounters);
        WireWriter::new(Vec::new(), 0, MAX_COUNTERS).unwrap();
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(take_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_reports(&sample(), 1, 5).unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            WireReader::new(bytes.as_slice()).unwrap_err(),
            WireError::BadMagic(_)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = encode_reports(&sample(), 1, 5).unwrap();
        bytes[4] = 99;
        let err = WireReader::new(bytes.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::UnsupportedVersion(99)));
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn layout_expectations_enforced() {
        let bytes = encode_reports(&sample(), 42, 5).unwrap();
        let r = WireReader::new(bytes.as_slice()).unwrap();
        r.expect_layout(42, 5).unwrap();
        assert!(matches!(
            r.expect_layout(43, 5).unwrap_err(),
            WireError::LayoutHashMismatch {
                expected: 43,
                got: 42
            }
        ));
        assert!(matches!(
            r.expect_layout(42, 6).unwrap_err(),
            WireError::CounterCountMismatch {
                expected: 6,
                got: 5
            }
        ));
    }

    #[test]
    fn writer_rejects_wrong_width() {
        let mut w = WireWriter::new(Vec::new(), 0, 3).unwrap();
        let err = w
            .write_report(&Report::new(0, Label::Success, vec![1]))
            .unwrap_err();
        assert!(matches!(err, WireError::CounterCountMismatch { .. }));
    }

    #[test]
    fn truncation_mid_frame_detected() {
        let bytes = encode_reports(&sample(), 9, 5).unwrap();
        // Cut one byte off the end: the final frame is truncated.
        let cut = &bytes[..bytes.len() - 1];
        let mut r = WireReader::new(cut).unwrap();
        let mut saw_truncation = false;
        loop {
            match r.read_report() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(WireError::Truncated(_)) => {
                    saw_truncation = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(saw_truncation);
    }

    #[test]
    fn read_stream_round_trips() {
        let bytes = encode_reports(&sample(), 5, 5).unwrap();
        let archive = crate::SparseArchive::read_stream(bytes.as_slice()).unwrap();
        assert!(archive.reports().eq(sample()));
        assert_eq!(archive.layout().map(|l| l.layout_hash), Some(5));
        assert_eq!(archive.stats().failure_runs(), 1);
    }

    #[test]
    fn binary_is_smaller_than_dense() {
        let reports = sample();
        let bytes = encode_reports(&reports, 0, 5).unwrap();
        let dense: usize = reports.iter().map(|r| 8 * r.counters.len()).sum();
        assert!(
            bytes.len() < dense,
            "wire {} bytes >= dense {} bytes",
            bytes.len(),
            dense
        );
    }
}
