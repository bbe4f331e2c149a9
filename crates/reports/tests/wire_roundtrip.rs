//! Property tests for the binary wire codec: randomized report streams
//! must round-trip exactly, always beat dense 8-byte counters on size,
//! and every corruption class must surface a typed error.
//!
//! Driven by the in-tree PCG generator, so every failing case is
//! reproducible from its seed.

use cbi_reports::wire::{self, WireError, WireReader, WireWriter};
use cbi_reports::{Label, Report, SparseArchive};
use cbi_sampler::Pcg32;

/// A random report stream with a mix of small, large, and zero counters
/// (zero-heavy vectors are the common case for sampled campaigns).
fn random_reports(seed: u64, n: usize, counters: usize) -> Vec<Report> {
    let mut rng = Pcg32::new(seed);
    let mut run_id = 0u64;
    (0..n)
        .map(|_| {
            run_id += 1 + rng.below(9);
            let label = if rng.next_f64() < 0.3 {
                Label::Failure
            } else {
                Label::Success
            };
            let values: Vec<u64> = (0..counters)
                .map(|_| match rng.below(10) {
                    0..=5 => 0,
                    6 | 7 => rng.below(16),
                    8 => rng.below(1 << 20),
                    // Exercise multi-byte varints up to the full range.
                    _ => u64::MAX - rng.below(1 << 30),
                })
                .collect();
            Report::new(run_id, label, values)
        })
        .collect()
}

#[test]
fn randomized_streams_round_trip_exactly() {
    for seed in 0..24 {
        let counters = 1 + (seed as usize * 7) % 40;
        let reports = random_reports(seed, 50, counters);
        let bytes = wire::encode_reports(&reports, 0x1234_5678_9abc_def0, counters).unwrap();
        let archive = SparseArchive::read_stream(bytes.as_slice()).unwrap();
        let layout = archive.layout().unwrap();
        assert_eq!(layout.layout_hash, 0x1234_5678_9abc_def0, "seed {seed}");
        assert_eq!(layout.counters, counters, "seed {seed}");
        assert!(archive.reports().eq(reports.iter().cloned()), "seed {seed}");
    }
}

#[test]
fn binary_beats_dense_on_randomized_streams() {
    for seed in 0..12 {
        let counters = 5 + (seed as usize * 11) % 60;
        let reports = random_reports(seed + 1000, 80, counters);
        let binary = wire::encode_reports(&reports, 0xfeed, counters).unwrap();
        let dense = 8 * counters * reports.len();
        assert!(
            binary.len() < dense,
            "seed {seed}: binary {} >= dense {dense}",
            binary.len()
        );
    }
}

#[test]
fn truncation_at_every_boundary_is_detected() {
    let counters = 6;
    let reports = random_reports(7, 8, counters);
    let bytes = wire::encode_reports(&reports, 0xabc, counters).unwrap();

    // Truncating anywhere strictly inside the stream either yields a
    // clean shorter stream (cut exactly between frames) or a typed
    // truncation error — never garbage reports.
    for cut in 1..bytes.len() {
        let slice = &bytes[..cut];
        match WireReader::new(slice) {
            Err(WireError::Truncated(_)) => continue, // header cut short
            Err(e) => panic!("cut {cut}: unexpected header error {e}"),
            Ok(mut reader) => {
                let mut ok = 0usize;
                loop {
                    match reader.read_report() {
                        Ok(Some(r)) => {
                            assert_eq!(r, reports[ok], "cut {cut}: report {ok} corrupted");
                            ok += 1;
                        }
                        Ok(None) => {
                            // Clean EOF: the cut fell exactly on a frame
                            // boundary.
                            break;
                        }
                        Err(WireError::Truncated(_)) => break,
                        Err(e) => panic!("cut {cut}: unexpected error {e}"),
                    }
                }
                assert!(ok <= reports.len());
            }
        }
    }
}

#[test]
fn bad_version_and_layout_are_typed_errors() {
    let counters = 3;
    let reports = random_reports(11, 4, counters);
    let mut bytes = wire::encode_reports(&reports, 0xa1, counters).unwrap();

    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        WireReader::new(bad.as_slice()).unwrap_err(),
        WireError::BadMagic(_)
    ));

    // Unsupported version.
    bytes[4] = wire::VERSION + 9;
    assert!(matches!(
        WireReader::new(bytes.as_slice()).unwrap_err(),
        WireError::UnsupportedVersion(v) if v == wire::VERSION + 9
    ));
    bytes[4] = wire::VERSION;

    // Layout hash mismatch, detected before any frame is decoded.
    let reader = WireReader::new(bytes.as_slice()).unwrap();
    let err = reader.expect_layout(0xdead, counters).unwrap_err();
    assert!(matches!(
        err,
        WireError::LayoutHashMismatch {
            expected: 0xdead,
            got: 0xa1
        }
    ));
    let err = reader.expect_layout(0xa1, counters + 1).unwrap_err();
    assert!(matches!(err, WireError::CounterCountMismatch { .. }));
    reader.expect_layout(0xa1, counters).unwrap();
}

#[test]
fn writer_reader_counters_account_for_every_byte() {
    let counters = 10;
    let reports = random_reports(21, 30, counters);
    let mut buf = Vec::new();
    let mut writer = WireWriter::new(&mut buf, 0x77, counters).unwrap();
    for r in &reports {
        writer.write_report(r).unwrap();
    }
    writer.flush().unwrap();
    assert_eq!(writer.reports_written(), 30);
    let written = writer.bytes_written();

    let mut reader = WireReader::new(buf.as_slice()).unwrap();
    while reader.read_report().unwrap().is_some() {}
    assert_eq!(reader.reports_read(), 30);
    assert_eq!(reader.bytes_read(), written);
    assert_eq!(written, buf.len() as u64, "every byte accounted for");
}
