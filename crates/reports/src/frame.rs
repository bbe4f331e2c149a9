//! Batch envelope and ack frames for the network ingest protocol.
//!
//! A raw `CBIR` stream (see [`crate::wire`]) identifies *what* the
//! reports are but not *which delivery attempt* carried them.  Retrying
//! clients need the server to recognise a retransmitted batch after a
//! lost ack, and the crash-safe journal needs a self-delimiting record
//! it can re-read after an unclean shutdown.  Both are the same framing
//! problem, so both use the envelope below; the journal stores envelopes
//! verbatim behind its own file header.
//!
//! ```text
//! envelope := 'B' | client varint | seq varint | attempt varint
//!           | len varint | crc32 u32 LE | payload
//! ack      := 'A' | client varint | seq varint | verdict u8 | detail u8
//! ```
//!
//! * `client`/`seq` key the batch for idempotent dedup: a client
//!   retransmitting after a lost ack reuses the same `seq`, and the
//!   server answers [`AckVerdict::Duplicate`] without re-ingesting.
//! * `attempt` is provenance only (it feeds the server's
//!   [`Provenance`](crate::Provenance)): two attempts of one batch dedup
//!   to one ingest regardless of which attempt arrived.
//! * `crc32` covers the payload bytes.  A mismatch means the envelope
//!   framing survived but the payload was damaged in transit or on disk
//!   ([`AckVerdict::BadCrc`] on the wire; a skipped record in the
//!   journal).  It is deliberately *weaker* than a decode: the transport
//!   may deliver corrupt-but-decodable payloads, which CRC passes
//!   through to the normal [`decode_batch`](crate::decode_batch) path —
//!   the CRC only guards the framing layer itself.
//! * `verdict`/`detail` encode an [`AckVerdict`]; for
//!   [`AckVerdict::Rejected`] the detail byte indexes
//!   [`WireErrorKind::ALL`].

use crate::wire::{push_varint, read_u8, take_varint, WireError, WireErrorKind};
use std::io::{self, Read, Write};
use std::time::Duration;

/// Leading tag byte of a batch envelope.
pub const ENVELOPE_TAG: u8 = b'B';

/// Leading tag byte of an ack frame.
pub const ACK_TAG: u8 = b'A';

/// Hard ceiling on a declared envelope payload length, so a corrupt
/// length varint cannot provoke a multi-gigabyte allocation.
pub const MAX_ENVELOPE_PAYLOAD: usize = 1 << 28;

/// Slice-by-8 lookup tables for [`crc32`]: `CRC_TABLES[0]` is the
/// classic one-byte table, and `CRC_TABLES[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes, so eight table reads
/// advance the state over eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 (reflected, polynomial 0xEDB88320) over `bytes`.
///
/// Slice-by-8: eight const-evaluated 256-entry tables (8 KiB in all)
/// fold eight input bytes per step, and the at most seven bytes left
/// over go through the first table one at a time.  Every envelope
/// payload passes through here on the socket read, on each journal
/// append and on each journal replay, so this is per-byte cost on the
/// whole ingest path.
///
/// ```
/// use cbi_reports::frame::crc32;
///
/// assert_eq!(crc32(b""), 0);
/// assert_eq!(crc32(b"123456789"), 0xcbf4_3926); // the IEEE check value
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// One batch of reports in transit: a `CBIR` payload plus the delivery
/// identity the ingest protocol keys on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEnvelope {
    /// Originating client id.
    pub client: u64,
    /// Client-assigned batch sequence number, stable across retries.
    pub seq: u64,
    /// Delivery attempt (0-based); provenance only, never a dedup key.
    pub attempt: u32,
    /// The enclosed `CBIR` stream bytes.
    pub payload: Vec<u8>,
}

impl BatchEnvelope {
    /// Wraps a payload with its delivery identity.
    pub fn new(client: u64, seq: u64, attempt: u32, payload: Vec<u8>) -> Self {
        BatchEnvelope {
            client,
            seq,
            attempt,
            payload,
        }
    }

    /// Appends the encoded envelope (tag, identity, length, CRC,
    /// payload) to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(ENVELOPE_TAG);
        push_varint(out, self.client);
        push_varint(out, self.seq);
        push_varint(out, self.attempt as u64);
        push_varint(out, self.payload.len() as u64);
        out.extend_from_slice(&crc32(&self.payload).to_le_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// The encoded envelope as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 10 * 3 + 5 + 4 + self.payload.len());
        self.encode_into(&mut out);
        out
    }
}

/// A decoded envelope plus framing metadata the caller acks on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvelopeRead {
    /// The envelope itself.  On a CRC mismatch the payload bytes are
    /// still returned as read — the journal replayer counts them.
    pub envelope: BatchEnvelope,
    /// Whether the payload matched its CRC.
    pub crc_ok: bool,
    /// Encoded size of the whole envelope, tag included.
    pub bytes: u64,
}

/// Decodes one varint from a reader, counting consumed bytes.
fn read_varint<R: Read>(
    r: &mut R,
    what: &'static str,
    consumed: &mut u64,
) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    for shift in (0..).step_by(7) {
        if shift >= 64 {
            return Err(WireError::VarintOverflow);
        }
        let byte = read_u8(r, what)?;
        *consumed += 1;
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

/// Reads one envelope, or `None` at a clean end of stream (EOF before
/// the tag byte).
///
/// A CRC mismatch is *not* an error: the framing held, so the stream
/// stays decodable and the mismatch is reported via
/// [`EnvelopeRead::crc_ok`] for the caller to NACK or skip.
///
/// # Errors
///
/// Returns [`WireError::BadMagic`] if the tag byte is not `'B'`,
/// [`WireError::Truncated`] on EOF inside the envelope,
/// [`WireError::FrameTooLarge`] past [`MAX_ENVELOPE_PAYLOAD`], or
/// [`WireError::Io`]/[`WireError::VarintOverflow`] as usual.
pub fn read_envelope<R: Read>(r: &mut R) -> Result<Option<EnvelopeRead>, WireError> {
    let mut tag = [0u8; 1];
    loop {
        match r.read(&mut tag) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    if tag[0] != ENVELOPE_TAG {
        return Err(WireError::BadMagic([tag[0], 0, 0, 0]));
    }
    read_envelope_body(r).map(Some)
}

/// Reads the rest of an envelope whose tag byte was already consumed;
/// EOF at any point is [`WireError::Truncated`].
fn read_envelope_body<R: Read>(r: &mut R) -> Result<EnvelopeRead, WireError> {
    let mut consumed: u64 = 1; // the tag byte
    let client = read_varint(r, "envelope client id", &mut consumed)?;
    let seq = read_varint(r, "envelope sequence", &mut consumed)?;
    let attempt = read_varint(r, "envelope attempt", &mut consumed)?;
    let attempt = u32::try_from(attempt).map_err(|_| WireError::VarintOverflow)?;
    let len = read_varint(r, "envelope payload length", &mut consumed)? as usize;
    if len > MAX_ENVELOPE_PAYLOAD {
        return Err(WireError::FrameTooLarge {
            declared: len,
            max: MAX_ENVELOPE_PAYLOAD,
        });
    }
    let mut crc = [0u8; 4];
    r.read_exact(&mut crc).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated("envelope crc")
        } else {
            WireError::Io(e)
        }
    })?;
    consumed += 4;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated("envelope payload")
        } else {
            WireError::Io(e)
        }
    })?;
    consumed += len as u64;
    let crc_ok = crc32(&payload) == u32::from_le_bytes(crc);
    Ok(EnvelopeRead {
        envelope: BatchEnvelope {
            client,
            seq,
            attempt,
            payload,
        },
        crc_ok,
        bytes: consumed,
    })
}

/// The server's verdict on one delivered envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckVerdict {
    /// Decoded and committed; the client can retire the batch.
    Accepted,
    /// Already committed under this `(client, seq)` — a retransmit
    /// after a lost ack.  The client retires the batch exactly as for
    /// [`AckVerdict::Accepted`].
    Duplicate,
    /// Shed by backpressure before ingest; retransmit after backoff.
    Overloaded,
    /// The payload failed its CRC; retransmit the same attempt.
    BadCrc,
    /// The payload failed to decode; the kind says why.  A
    /// [`WireErrorKind::LayoutHashMismatch`] means the client build is
    /// stale and should stop retrying.
    Rejected(WireErrorKind),
}

impl AckVerdict {
    /// Stable snake_case name, suitable as a metric label.
    pub fn name(self) -> &'static str {
        match self {
            AckVerdict::Accepted => "accepted",
            AckVerdict::Duplicate => "duplicate",
            AckVerdict::Overloaded => "overloaded",
            AckVerdict::BadCrc => "bad_crc",
            AckVerdict::Rejected(_) => "rejected",
        }
    }

    /// Whether this verdict tells the client its binary is stale.
    pub fn is_stale(self) -> bool {
        matches!(
            self,
            AckVerdict::Rejected(WireErrorKind::LayoutHashMismatch)
        )
    }

    fn code(self) -> (u8, u8) {
        match self {
            AckVerdict::Accepted => (0, 0),
            AckVerdict::Duplicate => (1, 0),
            AckVerdict::Overloaded => (2, 0),
            AckVerdict::BadCrc => (3, 0),
            AckVerdict::Rejected(kind) => {
                let detail = WireErrorKind::ALL
                    .iter()
                    .position(|k| *k == kind)
                    .expect("every kind is in ALL") as u8;
                (4, detail)
            }
        }
    }

    fn from_code(verdict: u8, detail: u8) -> Result<AckVerdict, WireError> {
        match verdict {
            0 => Ok(AckVerdict::Accepted),
            1 => Ok(AckVerdict::Duplicate),
            2 => Ok(AckVerdict::Overloaded),
            3 => Ok(AckVerdict::BadCrc),
            4 => WireErrorKind::ALL
                .get(detail as usize)
                .copied()
                .map(AckVerdict::Rejected)
                .ok_or(WireError::BadLabel(detail)),
            other => Err(WireError::BadLabel(other)),
        }
    }
}

/// One ack frame: the server's answer to one envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAck {
    /// Echoed client id.
    pub client: u64,
    /// Echoed batch sequence number.
    pub seq: u64,
    /// The verdict.
    pub verdict: AckVerdict,
}

impl BatchAck {
    /// Appends the encoded ack to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(ACK_TAG);
        push_varint(out, self.client);
        push_varint(out, self.seq);
        let (verdict, detail) = self.verdict.code();
        out.push(verdict);
        out.push(detail);
    }

    /// The encoded ack as a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + 10 * 2 + 2);
        self.encode_into(&mut out);
        out
    }
}

/// Reads one ack frame, or `None` at a clean end of stream.
///
/// # Errors
///
/// Returns [`WireError::BadMagic`] if the tag byte is not `'A'`,
/// [`WireError::BadLabel`] on an unknown verdict or detail code, or
/// [`WireError::Truncated`]/[`WireError::Io`] as usual.
pub fn read_ack<R: Read>(r: &mut R) -> Result<Option<BatchAck>, WireError> {
    let mut tag = [0u8; 1];
    loop {
        match r.read(&mut tag) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    if tag[0] != ACK_TAG {
        return Err(WireError::BadMagic([tag[0], 0, 0, 0]));
    }
    let mut consumed = 1u64;
    let client = read_varint(r, "ack client id", &mut consumed)?;
    let seq = read_varint(r, "ack sequence", &mut consumed)?;
    let verdict = read_u8(r, "ack verdict byte")?;
    let detail = read_u8(r, "ack detail byte")?;
    Ok(Some(BatchAck {
        client,
        seq,
        verdict: AckVerdict::from_code(verdict, detail)?,
    }))
}

/// Sends one envelope over `stream` and waits for its ack — the client
/// half of the protocol, shared by every sender.
///
/// An `overloaded` NACK (the server shed the envelope under
/// backpressure; retried after a 1 ms pause) and a `bad crc` NACK (the
/// payload was damaged on the way in) say nothing about the batch
/// itself, so the identical bytes are written again, `on_nack` is told,
/// and the exchange goes on.  The first other verdict is returned.
///
/// # Errors
///
/// Returns the stream's I/O error; [`io::ErrorKind::UnexpectedEof`] if
/// the server closes before acking, and [`io::ErrorKind::InvalidData`]
/// for an ack that does not parse or answers a different envelope.
pub fn exchange<S: Read + Write>(
    stream: &mut S,
    envelope: &BatchEnvelope,
    mut on_nack: impl FnMut(AckVerdict),
) -> io::Result<AckVerdict> {
    let bytes = envelope.encode();
    loop {
        stream.write_all(&bytes)?;
        let ack = read_ack(stream)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed before ack")
            })?;
        if ack.client != envelope.client || ack.seq != envelope.seq {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "ack answers a different envelope",
            ));
        }
        match ack.verdict {
            nack @ (AckVerdict::Overloaded | AckVerdict::BadCrc) => {
                on_nack(nack);
                if nack == AckVerdict::Overloaded {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            verdict => return Ok(verdict),
        }
    }
}

/// Decodes one envelope from a slice cursor (the journal replayer's
/// entry point — no reader indirection, exact offset tracking).
///
/// Returns `Ok(None)` when `pos` is already at the end of `buf`.
///
/// # Errors
///
/// As [`read_envelope`]; `pos` is left unspecified after an error.
pub fn take_envelope(buf: &[u8], pos: &mut usize) -> Result<Option<EnvelopeRead>, WireError> {
    if *pos >= buf.len() {
        return Ok(None);
    }
    let start = *pos;
    let tag = buf[*pos];
    *pos += 1;
    if tag != ENVELOPE_TAG {
        return Err(WireError::BadMagic([tag, 0, 0, 0]));
    }
    let client = take_varint(buf, pos)?;
    let seq = take_varint(buf, pos)?;
    let attempt = take_varint(buf, pos)?;
    let attempt = u32::try_from(attempt).map_err(|_| WireError::VarintOverflow)?;
    let len = take_varint(buf, pos)? as usize;
    if len > MAX_ENVELOPE_PAYLOAD {
        return Err(WireError::FrameTooLarge {
            declared: len,
            max: MAX_ENVELOPE_PAYLOAD,
        });
    }
    if buf.len() - *pos < 4 {
        return Err(WireError::Truncated("envelope crc"));
    }
    let crc = u32::from_le_bytes(buf[*pos..*pos + 4].try_into().expect("4 bytes checked"));
    *pos += 4;
    if buf.len() - *pos < len {
        return Err(WireError::Truncated("envelope payload"));
    }
    let payload = buf[*pos..*pos + len].to_vec();
    *pos += len;
    let crc_ok = crc32(&payload) == crc;
    Ok(Some(EnvelopeRead {
        envelope: BatchEnvelope {
            client,
            seq,
            attempt,
            payload,
        },
        crc_ok,
        bytes: (*pos - start) as u64,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BatchEnvelope {
        BatchEnvelope::new(42, 7, 2, b"CBIR-shaped payload bytes".to_vec())
    }

    /// The bytewise table loop `crc32` replaced: one byte, one lookup.
    /// Kept as the oracle the slice-by-8 kernel is held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xff) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32_bytewise(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn crc32_equals_the_bytewise_oracle() {
        let mut rng = cbi_sampler::Pcg32::with_stream(0xc4c, 0x5b8);
        let mut buf = vec![0u8; 64 * 1024 + 8];
        rng.fill_bytes(&mut buf);
        // Every split between whole 8-byte steps and the tail, at every
        // alignment of the slice start.
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bytewise(bytes),
                    "start {start} len {len}"
                );
            }
        }
        for _ in 0..256 {
            let len = rng.below(64 * 1024 + 1) as usize;
            let start = rng.below(8) as usize;
            let bytes = &buf[start..start + len];
            assert_eq!(
                crc32(bytes),
                crc32_bytewise(bytes),
                "start {start} len {len}"
            );
        }
    }

    #[test]
    fn envelope_round_trip() {
        let env = sample();
        let bytes = env.encode();
        let mut r = bytes.as_slice();
        let read = read_envelope(&mut r).unwrap().unwrap();
        assert_eq!(read.envelope, env);
        assert!(read.crc_ok);
        assert_eq!(read.bytes, bytes.len() as u64);
        assert!(read_envelope(&mut r).unwrap().is_none());

        let mut pos = 0;
        let taken = take_envelope(&bytes, &mut pos).unwrap().unwrap();
        assert_eq!(taken.envelope, env);
        assert!(taken.crc_ok);
        assert_eq!(pos, bytes.len());
        assert!(take_envelope(&bytes, &mut pos).unwrap().is_none());
    }

    #[test]
    fn corrupted_payload_fails_crc_but_frames() {
        let env = sample();
        let mut bytes = env.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        let read = read_envelope(&mut bytes.as_slice()).unwrap().unwrap();
        assert!(!read.crc_ok);
        assert_eq!(read.envelope.client, env.client);
        assert_eq!(read.envelope.seq, env.seq);
    }

    #[test]
    fn truncation_detected_everywhere() {
        let bytes = sample().encode();
        for cut in 1..bytes.len() {
            let err = read_envelope(&mut &bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated(_)),
                "cut at {cut}: {err}"
            );
            let mut pos = 0;
            let err = take_envelope(&bytes[..cut], &mut pos).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated(_)),
                "slice cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn wrong_tag_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(
            read_envelope(&mut bytes.as_slice()).unwrap_err(),
            WireError::BadMagic([b'X', 0, 0, 0])
        ));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut bytes = Vec::new();
        bytes.push(ENVELOPE_TAG);
        push_varint(&mut bytes, 1); // client
        push_varint(&mut bytes, 1); // seq
        push_varint(&mut bytes, 0); // attempt
        push_varint(&mut bytes, (MAX_ENVELOPE_PAYLOAD + 1) as u64);
        assert!(matches!(
            read_envelope(&mut bytes.as_slice()).unwrap_err(),
            WireError::FrameTooLarge { .. }
        ));
    }

    #[test]
    fn ack_round_trip_all_verdicts() {
        let mut verdicts = vec![
            AckVerdict::Accepted,
            AckVerdict::Duplicate,
            AckVerdict::Overloaded,
            AckVerdict::BadCrc,
        ];
        verdicts.extend(WireErrorKind::ALL.iter().map(|k| AckVerdict::Rejected(*k)));
        for verdict in verdicts {
            let ack = BatchAck {
                client: u64::MAX,
                seq: 123,
                verdict,
            };
            let bytes = ack.encode();
            let back = read_ack(&mut bytes.as_slice()).unwrap().unwrap();
            assert_eq!(back, ack);
        }
        assert!(read_ack(&mut [].as_slice()).unwrap().is_none());
    }

    #[test]
    fn bad_ack_codes_rejected() {
        let mut bytes = BatchAck {
            client: 1,
            seq: 1,
            verdict: AckVerdict::Accepted,
        }
        .encode();
        let verdict_at = bytes.len() - 2;
        bytes[verdict_at] = 9;
        assert!(matches!(
            read_ack(&mut bytes.as_slice()).unwrap_err(),
            WireError::BadLabel(9)
        ));
        bytes[verdict_at] = 4;
        bytes[verdict_at + 1] = 0xff;
        assert!(matches!(
            read_ack(&mut bytes.as_slice()).unwrap_err(),
            WireError::BadLabel(0xff)
        ));
    }

    #[test]
    fn stale_detection() {
        assert!(AckVerdict::Rejected(WireErrorKind::LayoutHashMismatch).is_stale());
        assert!(!AckVerdict::Rejected(WireErrorKind::Truncated).is_stale());
        assert!(!AckVerdict::Accepted.is_stale());
    }
}
