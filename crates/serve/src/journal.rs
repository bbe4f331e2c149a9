//! Crash-safe batch journal: an append-only spool of committed
//! envelopes.
//!
//! ```text
//! file   := magic "CBIJ" | version u8 | layout_hash u64 LE | record*
//! record := envelope                      (see cbi_reports::frame)
//! ```
//!
//! Records reuse the wire envelope codec verbatim — tag byte, varint
//! identity, length prefix, payload CRC — so the replayer and the
//! network decoder are the same code, and `cbi monitor --replay` can
//! walk a journal with full per-batch provenance.
//!
//! The append path writes a whole encoded record with one `write_all`
//! and fsyncs per [`FsyncPolicy`] *before* the server acks the batch:
//! an acked batch is on disk.  A crash can therefore lose only
//! unacked work, in one of two shapes the replayer handles:
//!
//! * a **torn tail** — the final record was cut mid-write.  Replay
//!   stops at the last intact record and [`resume`] truncates the file
//!   there; the client, never having been acked, retransmits.
//! * a **CRC-failed record** — framing intact, payload damaged (disk
//!   corruption).  The record is skipped and counted; replay continues
//!   behind it.

use crate::ServeError;
use cbi_reports::frame::{read_envelope, take_envelope, BatchEnvelope, EnvelopeRead};
use cbi_reports::WireError;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Journal file magic.
pub const JOURNAL_MAGIC: [u8; 4] = *b"CBIJ";

/// Current journal format version.
pub const JOURNAL_VERSION: u8 = 1;

/// Journal header length: magic, version, layout hash.
pub const JOURNAL_HEADER_LEN: u64 = 4 + 1 + 8;

/// When the journal flushes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync explicitly; the OS flushes on its own schedule.
    /// Fastest, weakest: a machine crash can lose acked batches (a
    /// process crash cannot — writes are in the page cache).
    Never,
    /// Fsync after every appended batch.  An acked batch survives even
    /// power loss.
    EveryBatch,
    /// Fsync after every `n` appended batches.
    EveryN(u64),
}

impl FsyncPolicy {
    /// Parses `never`, `batch`, or `every:N`.
    ///
    /// # Errors
    ///
    /// Returns a description of the expected forms.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "never" => Ok(FsyncPolicy::Never),
            "batch" => Ok(FsyncPolicy::EveryBatch),
            _ => match s.strip_prefix("every:").and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n > 0 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(format!(
                    "bad fsync policy {s:?} (expected never, batch, or every:N)"
                )),
            },
        }
    }
}

/// An open, append-only journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    records: u64,
    bytes: u64,
    unsynced: u64,
    buf: Vec<u8>,
}

impl Journal {
    /// Creates (or truncates) a journal for the given layout.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Journal`] if the file cannot be created or
    /// the header written.
    pub fn create(
        path: impl Into<PathBuf>,
        layout_hash: u64,
        policy: FsyncPolicy,
    ) -> Result<Journal, ServeError> {
        let path = path.into();
        let journal_err = |source| ServeError::Journal {
            path: path.clone(),
            source,
        };
        let mut file = File::create(&path).map_err(journal_err)?;
        let mut head = Vec::with_capacity(JOURNAL_HEADER_LEN as usize);
        head.extend_from_slice(&JOURNAL_MAGIC);
        head.push(JOURNAL_VERSION);
        head.extend_from_slice(&layout_hash.to_le_bytes());
        file.write_all(&head).map_err(journal_err)?;
        file.sync_all().map_err(journal_err)?;
        Ok(Journal {
            file,
            path,
            policy,
            records: 0,
            bytes: JOURNAL_HEADER_LEN,
            unsynced: 0,
            buf: Vec::with_capacity(256),
        })
    }

    /// Appends one committed envelope and applies the fsync policy.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Journal`] on any write or sync failure —
    /// the caller must *not* ack the batch.
    pub fn append(&mut self, envelope: &BatchEnvelope) -> Result<(), ServeError> {
        self.buf.clear();
        envelope.encode_into(&mut self.buf);
        self.file
            .write_all(&self.buf)
            .map_err(|source| ServeError::Journal {
                path: self.path.clone(),
                source,
            })?;
        self.records += 1;
        self.bytes += self.buf.len() as u64;
        self.unsynced += 1;
        let due = match self.policy {
            FsyncPolicy::Never => false,
            FsyncPolicy::EveryBatch => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n,
        };
        if due {
            self.sync()?;
        }
        cbi_telemetry::count("journal.appends", 1);
        cbi_telemetry::count("journal.bytes", self.buf.len() as u64);
        Ok(())
    }

    /// Forces buffered appends to stable storage.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Journal`] on sync failure.
    pub fn sync(&mut self) -> Result<(), ServeError> {
        self.file.sync_all().map_err(|source| ServeError::Journal {
            path: self.path.clone(),
            source,
        })?;
        self.unsynced = 0;
        cbi_telemetry::count("journal.syncs", 1);
        Ok(())
    }

    /// Records appended through this handle (excludes replayed ones).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Current journal length in bytes, header included.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Everything replay recovered from a journal file.
#[derive(Debug)]
pub struct JournalReplay {
    /// Layout hash from the journal header.
    pub layout_hash: u64,
    /// Intact records in file (append) order.
    pub envelopes: Vec<BatchEnvelope>,
    /// Whether the file ended in a torn (partially written) record.
    pub torn_tail: bool,
    /// Records whose framing held but whose payload failed its CRC.
    pub skipped_crc: u64,
    /// Byte offset of the end of the last intact record — the truncate
    /// point for [`resume`].
    pub good_bytes: u64,
}

/// Reads a journal file, recovering every intact record.
///
/// Records are read one at a time through a buffered reader, each
/// payload straight into the envelope that keeps it, so the journal is
/// held in memory once however large it is.
///
/// # Errors
///
/// Returns [`ServeError::Journal`] if the file cannot be read and
/// [`ServeError::Wire`] if the *header* is malformed (a damaged header
/// means the file is not a journal; a damaged record tail is normal
/// crash debris and reported via [`JournalReplay::torn_tail`]).
pub fn replay(path: impl AsRef<Path>) -> Result<JournalReplay, ServeError> {
    let path = path.as_ref();
    let journal_err = |source| ServeError::Journal {
        path: path.to_path_buf(),
        source,
    };
    let mut file = BufReader::new(File::open(path).map_err(journal_err)?);
    let mut header = [0u8; JOURNAL_HEADER_LEN as usize];
    match file.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            return Err(ServeError::Wire(WireError::Truncated("journal header")))
        }
        Err(e) => return Err(journal_err(e)),
    }
    let layout_hash = parse_header(&header)?;
    read_records(layout_hash, || read_envelope(&mut file)).map_err(journal_err)
}

/// [`replay`] over an in-memory journal image.
///
/// # Errors
///
/// As [`replay`], minus the I/O.
pub fn replay_bytes(bytes: &[u8]) -> Result<JournalReplay, ServeError> {
    let header = bytes
        .get(..JOURNAL_HEADER_LEN as usize)
        .ok_or(ServeError::Wire(WireError::Truncated("journal header")))?;
    let layout_hash = parse_header(header.try_into().expect("sliced to the header length"))?;
    let mut pos = JOURNAL_HEADER_LEN as usize;
    read_records(layout_hash, || take_envelope(bytes, &mut pos))
        .map_err(|e| ServeError::Wire(WireError::Io(e)))
}

/// Checks a journal header's magic and version; returns its layout hash.
fn parse_header(header: &[u8; JOURNAL_HEADER_LEN as usize]) -> Result<u64, ServeError> {
    let magic: [u8; 4] = header[..4].try_into().expect("four of thirteen bytes");
    if magic != JOURNAL_MAGIC {
        return Err(ServeError::Wire(WireError::BadMagic(magic)));
    }
    if header[4] != JOURNAL_VERSION {
        return Err(ServeError::Wire(WireError::UnsupportedVersion(header[4])));
    }
    Ok(u64::from_le_bytes(
        header[5..].try_into().expect("eight of thirteen bytes"),
    ))
}

/// Pulls records from `next` until a clean end or the first one that
/// does not frame.  Only a real I/O failure is an error.
fn read_records(
    layout_hash: u64,
    mut next: impl FnMut() -> Result<Option<EnvelopeRead>, WireError>,
) -> Result<JournalReplay, io::Error> {
    let mut replay = JournalReplay {
        layout_hash,
        envelopes: Vec::new(),
        torn_tail: false,
        skipped_crc: 0,
        good_bytes: JOURNAL_HEADER_LEN,
    };
    loop {
        match next() {
            Ok(None) => break,
            Ok(Some(read)) => {
                replay.good_bytes += read.bytes;
                if read.crc_ok {
                    replay.envelopes.push(read.envelope);
                } else {
                    replay.skipped_crc += 1;
                }
            }
            Err(WireError::Io(e)) => return Err(e),
            Err(_) => {
                // Any decode failure mid-record is crash debris: the
                // writer died inside `write_all`.  Everything before it
                // is intact; everything from here on is garbage.
                replay.torn_tail = true;
                break;
            }
        }
    }
    Ok(replay)
}

/// Reopens a journal for appending after a restart: replays it,
/// truncates any torn tail, and validates the layout hash against the
/// binary the server is now serving.
///
/// # Errors
///
/// Returns [`ServeError::Config`] on a layout-hash mismatch (the
/// journal belongs to a different instrumented binary), plus the
/// [`replay`] errors.
pub fn resume(
    path: impl Into<PathBuf>,
    expected_layout_hash: u64,
    policy: FsyncPolicy,
) -> Result<(Journal, JournalReplay), ServeError> {
    let path = path.into();
    let recovered = replay(&path)?;
    if recovered.layout_hash != expected_layout_hash {
        return Err(ServeError::Config(format!(
            "journal {} was written for layout {:#018x}, server is serving {:#018x}",
            path.display(),
            recovered.layout_hash,
            expected_layout_hash
        )));
    }
    let journal_err = |path: &PathBuf, source| ServeError::Journal {
        path: path.clone(),
        source,
    };
    let mut file = OpenOptions::new()
        .write(true)
        .open(&path)
        .map_err(|e| journal_err(&path, e))?;
    file.set_len(recovered.good_bytes)
        .map_err(|e| journal_err(&path, e))?;
    file.seek(SeekFrom::End(0))
        .map_err(|e| journal_err(&path, e))?;
    file.sync_all().map_err(|e| journal_err(&path, e))?;
    let journal = Journal {
        file,
        path,
        policy,
        records: 0,
        bytes: recovered.good_bytes,
        unsynced: 0,
        buf: Vec::with_capacity(256),
    };
    Ok((journal, recovered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cbi-journal-test-{}-{name}", std::process::id()));
        p
    }

    fn sample(n: u64) -> BatchEnvelope {
        BatchEnvelope::new(n, n * 10, 1, vec![n as u8; 16 + n as usize])
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("batch").unwrap(),
            FsyncPolicy::EveryBatch
        );
        assert_eq!(
            FsyncPolicy::parse("every:64").unwrap(),
            FsyncPolicy::EveryN(64)
        );
        assert!(FsyncPolicy::parse("every:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn append_replay_round_trip() {
        let path = tmp("roundtrip");
        let mut j = Journal::create(&path, 0xabcd, FsyncPolicy::EveryN(2)).unwrap();
        for n in 0..5 {
            j.append(&sample(n)).unwrap();
        }
        assert_eq!(j.records(), 5);
        drop(j);
        let r = replay(&path).unwrap();
        assert_eq!(r.layout_hash, 0xabcd);
        assert_eq!(r.envelopes.len(), 5);
        assert!(!r.torn_tail);
        assert_eq!(r.skipped_crc, 0);
        assert_eq!(r.envelopes[3], sample(3));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_truncated_and_resumed() {
        let path = tmp("torn");
        let mut j = Journal::create(&path, 7, FsyncPolicy::Never).unwrap();
        for n in 0..3 {
            j.append(&sample(n)).unwrap();
        }
        let full = j.bytes();
        drop(j);
        // Tear the final record mid-payload.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

        let r = replay(&path).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.envelopes.len(), 2);
        assert!(r.good_bytes < full);

        let (mut j, recovered) = resume(&path, 7, FsyncPolicy::EveryBatch).unwrap();
        assert_eq!(recovered.envelopes.len(), 2);
        // The torn record is gone; appending resumes cleanly.
        j.append(&sample(9)).unwrap();
        drop(j);
        let r = replay(&path).unwrap();
        assert!(!r.torn_tail);
        assert_eq!(r.envelopes.len(), 3);
        assert_eq!(r.envelopes[2], sample(9));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn crc_damage_is_skipped_not_fatal() {
        let path = tmp("crc");
        let mut j = Journal::create(&path, 7, FsyncPolicy::Never).unwrap();
        for n in 0..3 {
            j.append(&sample(n)).unwrap();
        }
        drop(j);
        // Flip one payload byte in the middle record: framing intact,
        // CRC broken.
        let mut bytes = fs::read(&path).unwrap();
        let r = replay_bytes(&bytes).unwrap();
        let first_len = r.envelopes[0].encode().len();
        let target = JOURNAL_HEADER_LEN as usize + first_len + first_len / 2 + 8;
        bytes[target] ^= 0xff;
        let r = replay_bytes(&bytes).unwrap();
        assert_eq!(r.skipped_crc, 1);
        assert_eq!(r.envelopes.len(), 2);
        assert!(!r.torn_tail);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_and_image_replay_agree_at_every_tear_offset() {
        // 40 records of seeded sizes and contents, two of them
        // CRC-damaged, then the file cut at every byte offset: the
        // streaming reader and the in-memory one must recover the same
        // records and name the same truncate point.
        let path = tmp("tear-everywhere");
        let mut rng = cbi::sampler::Pcg32::with_stream(0x7ea2, 0x0ff5e7);
        let mut j = Journal::create(&path, 0x1a40, FsyncPolicy::Never).unwrap();
        for n in 0..40u64 {
            let mut payload = vec![0u8; 1 + rng.below(48) as usize];
            rng.fill_bytes(&mut payload);
            let attempt = rng.below(3) as u32;
            j.append(&BatchEnvelope::new(n % 5, n * 131, attempt, payload))
                .unwrap();
        }
        drop(j);
        let mut image = fs::read(&path).unwrap();
        let whole = replay_bytes(&image).unwrap();
        assert_eq!(whole.envelopes.len(), 40);
        assert_eq!(whole.good_bytes, image.len() as u64);
        for n in [7, 23] {
            // A record ends in its payload, and none is empty.
            let end: usize = whole.envelopes[..=n].iter().map(|e| e.encode().len()).sum();
            image[JOURNAL_HEADER_LEN as usize + end - 1] ^= 0x10;
        }

        for cut in 0..=image.len() {
            fs::write(&path, &image[..cut]).unwrap();
            let (from_file, from_image) = (replay(&path), replay_bytes(&image[..cut]));
            if cut < JOURNAL_HEADER_LEN as usize {
                for r in [from_file, from_image] {
                    assert!(
                        matches!(r, Err(ServeError::Wire(WireError::Truncated(_)))),
                        "cut {cut}: {r:?}"
                    );
                }
                continue;
            }
            let (f, i) = (from_file.unwrap(), from_image.unwrap());
            assert_eq!(f.envelopes, i.envelopes, "cut {cut}");
            assert_eq!(
                (f.layout_hash, f.torn_tail, f.skipped_crc, f.good_bytes),
                (i.layout_hash, i.torn_tail, i.skipped_crc, i.good_bytes),
                "cut {cut}"
            );
            assert!(f.good_bytes <= cut as u64, "cut {cut}");
            assert_eq!(f.torn_tail, f.good_bytes < cut as u64, "cut {cut}");
        }
        let damaged = replay(&path).unwrap();
        assert_eq!(
            (
                damaged.envelopes.len(),
                damaged.skipped_crc,
                damaged.torn_tail
            ),
            (38, 2, false)
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_rejects_wrong_layout() {
        let path = tmp("layout");
        Journal::create(&path, 1, FsyncPolicy::Never).unwrap();
        assert!(matches!(
            resume(&path, 2, FsyncPolicy::Never),
            Err(ServeError::Config(_))
        ));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_journal_file_rejected() {
        let path = tmp("notjournal");
        fs::write(&path, b"CBIRnot a journal at all").unwrap();
        assert!(matches!(
            replay(&path),
            Err(ServeError::Wire(WireError::BadMagic(_)))
        ));
        fs::remove_file(&path).unwrap();
    }
}
