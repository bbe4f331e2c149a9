//! Property tests for transactional batch ingest under channel faults:
//! seeded truncations and bit-flips must always yield a typed
//! [`WireError`] (never a panic), a rejected batch must commit nothing,
//! and the ingest loop must keep accepting clean batches afterwards.
//! The allocation-free validator an ingest server runs before it acks,
//! and the sparse walk its shutdown fold reads reports with, must agree
//! with the decoder on every one of those inputs.
//!
//! Driven by the in-tree PCG generator, so every failing case is
//! reproducible from its seed.

use cbi_reports::wire::{self, WireError, WireErrorKind};
use cbi_reports::{
    decode_batch, nonzero, validate_batch, BatchIngest, BatchRejected, Collector, Label, Report,
    ReportLayout, SparseArchive,
};
use cbi_sampler::Pcg32;

const LAYOUT_HASH: u64 = 0x51e5_7ab1_e000_cb01;

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
                    _ => u64::MAX - rng.below(1 << 30),
                })
                .collect();
            Report::new(run_id, label, values)
        })
        .collect()
}

fn batch(seed: u64, n: usize, counters: usize) -> Vec<u8> {
    let reports = random_reports(seed, n, counters);
    wire::encode_reports(&reports, LAYOUT_HASH, counters).unwrap()
}

fn layout(counters: usize) -> ReportLayout {
    ReportLayout {
        counters,
        layout_hash: LAYOUT_HASH,
    }
}

#[test]
fn truncation_at_every_length_is_typed_and_transactional() {
    for seed in 0..8u64 {
        let counters = 1 + (seed as usize * 5) % 24;
        let bytes = batch(seed, 12, counters);
        for cut in 0..bytes.len() {
            let mut ingest = BatchIngest::new(Collector::default(), Some(layout(counters)));
            match ingest.ingest(&bytes[..cut]) {
                // A cut exactly on a frame boundary is a clean, shorter
                // batch; anything else must reject without committing.
                Ok(stats) => {
                    assert_eq!(stats.bytes, cut as u64, "seed {seed} cut {cut}");
                    assert_eq!(ingest.sink().len(), stats.reports);
                }
                Err(rejected) => {
                    assert!(
                        matches!(rejected.error, WireError::Truncated(_)),
                        "seed {seed} cut {cut}: expected truncation, got {}",
                        rejected.error
                    );
                    assert!(
                        ingest.sink().is_empty(),
                        "seed {seed} cut {cut}: partial prefix committed"
                    );
                }
            }
        }
    }
}

#[test]
fn bit_flips_never_panic_and_never_half_commit() {
    for seed in 0..24u64 {
        let counters = 2 + (seed as usize * 3) % 16;
        let clean = batch(seed, 10, counters);
        let expected_reports = decode_batch(&clean, Some(layout(counters)))
            .unwrap()
            .0
            .len();

        let mut fault = Pcg32::with_stream(seed, 0xf11b);
        for _ in 0..64 {
            let mut corrupt = clean.clone();
            // 1..=3 seeded single-bit flips anywhere in the stream.
            for _ in 0..=fault.below(2) {
                let pos = fault.below(corrupt.len() as u64) as usize;
                corrupt[pos] ^= 1 << fault.below(8);
            }
            let mut ingest = BatchIngest::new(Collector::default(), Some(layout(counters)));
            match ingest.ingest(&corrupt) {
                // Flips confined to counter payloads can still decode;
                // such silently-corrupt data is the channel model's
                // problem, not the codec's. The batch must be whole.
                Ok(stats) => assert_eq!(
                    stats.reports, expected_reports,
                    "seed {seed}: decodable flip changed report count"
                ),
                Err(rejected) => {
                    // The error is typed (we got a WireError, not a
                    // panic) and the sink saw none of the batch.
                    let _ = rejected.error.to_string();
                    assert!(ingest.sink().is_empty(), "seed {seed}: partial commit");
                    assert_eq!(ingest.rejected(), 1);
                }
            }
        }
    }
}

#[test]
fn ingest_loop_survives_interleaved_garbage() {
    let counters = 6;
    let mut ingest = BatchIngest::new(Collector::default(), Some(layout(counters)));
    let mut fault = Pcg32::with_stream(99, 0xbad);
    let mut committed = 0usize;

    for round in 0..40u64 {
        let clean = batch(round, 5, counters);
        // Corrupt every other batch: truncate or flip, seeded.
        let malformed = round % 2 == 1;
        let payload = if !malformed {
            clean.clone()
        } else if fault.below(2) == 0 {
            clean[..fault.below(clean.len() as u64) as usize].to_vec()
        } else {
            let mut c = clean.clone();
            let pos = fault.below(c.len().min(12) as u64) as usize;
            c[pos] ^= 0xff; // smash the header region
            c
        };

        match ingest.ingest(&payload) {
            Ok(stats) => committed += stats.reports,
            Err(rejected) => {
                assert!(malformed, "round {round}: clean batch rejected: {rejected}");
            }
        }
        // Clean batches must land regardless of earlier garbage.
        if !malformed {
            assert_eq!(
                ingest.sink().len(),
                committed,
                "round {round}: loop did not continue after rejection"
            );
        }
    }

    assert_eq!(ingest.accepted() + ingest.rejected(), 40);
    assert!(ingest.accepted() >= 20, "all clean batches accepted");
    assert!(ingest.rejected() > 0, "faults actually exercised");
    assert_eq!(ingest.sink().len(), committed);
    ingest.finish().unwrap();
}

#[test]
fn stale_layout_hash_is_counted_not_crashed() {
    let counters = 4;
    let reports = random_reports(5, 6, counters);
    let stale = wire::encode_reports(&reports, LAYOUT_HASH ^ 0xff, counters).unwrap();
    let mut ingest = BatchIngest::new(Collector::default(), Some(layout(counters)));

    let rejected = ingest.ingest(&stale).unwrap_err();
    assert!(matches!(
        rejected.error,
        WireError::LayoutHashMismatch { .. }
    ));
    assert_eq!(rejected.decoded, 0, "rejected at the header");
    assert_eq!(ingest.layout_rejections(), 1);
    assert!(ingest.sink().is_empty());

    // A current-version client is unaffected.
    ingest.ingest(&batch(5, 6, counters)).unwrap();
    assert_eq!(ingest.sink().len(), 6);
}

/// What either walk of a batch comes to: `(reports, consumed bytes)`, or
/// the frames walked before the error and the error, payload included.
fn outcome<T>(
    walked: Result<(T, wire::StreamHeader, u64), cbi_reports::BatchRejected>,
    count: impl Fn(&T) -> usize,
) -> Result<(usize, wire::StreamHeader, u64), (usize, WireErrorKind, String)> {
    match walked {
        Ok((reports, header, consumed)) => Ok((count(&reports), header, consumed)),
        Err(r) => Err((r.decoded, r.error.kind(), r.error.to_string())),
    }
}

/// Asserts the validator, the sparse archive's walk and the decoder
/// agree on `bytes` and returns what they agreed on.
fn agreed(
    bytes: &[u8],
    counters: usize,
    context: &str,
) -> Result<(usize, wire::StreamHeader, u64), (usize, WireErrorKind, String)> {
    let decoded = decode_batch(bytes, Some(layout(counters)));
    archive_agrees(&decoded, bytes, counters, context);
    let decoded = outcome(decoded, Vec::len);
    let validated = outcome(validate_batch(bytes, Some(layout(counters))), |&n| n);
    assert_eq!(validated, decoded, "{context}");
    decoded
}

/// The sparse walk against the decoder's result on the same bytes: it
/// accepts what decodes and stores exactly the nonzero scan of every
/// decoded report; it rejects what does not, after the same number of
/// frames with the same error, and keeps nothing of the batch.
fn archive_agrees(
    decoded: &Result<(Vec<Report>, wire::StreamHeader, u64), BatchRejected>,
    bytes: &[u8],
    counters: usize,
    context: &str,
) {
    let mut archive = SparseArchive::new(layout(counters));
    match (decoded, archive.extend_from_batch(bytes)) {
        (Ok((reports, _, consumed)), Ok(stats)) => {
            assert_eq!(
                (stats.reports, stats.bytes),
                (reports.len(), *consumed),
                "{context}"
            );
            assert_eq!(archive.len(), reports.len(), "{context}");
            for (r, report) in reports.iter().enumerate() {
                let row = archive.row(r);
                assert_eq!(
                    (row.run_id, row.label),
                    (report.run_id, report.label),
                    "{context}"
                );
                assert!(
                    row.nonzero().eq(nonzero(&report.counters)),
                    "{context}: report {r}"
                );
            }
            assert!(archive.reports().eq(reports.iter().cloned()), "{context}");
        }
        (Err(dense), Err(sparse)) => {
            assert_eq!(
                (
                    sparse.decoded,
                    sparse.error.kind(),
                    sparse.error.to_string()
                ),
                (dense.decoded, dense.error.kind(), dense.error.to_string()),
                "{context}"
            );
            assert!(
                archive.is_empty() && archive.nonzeros() == 0,
                "{context}: a rejected batch left rows behind"
            );
        }
        (dense, sparse) => panic!(
            "{context}: decoder {:?}, sparse walk {:?}",
            dense.as_ref().map(|d| d.0.len()).map_err(|e| &e.error),
            sparse.map_err(|e| e.error)
        ),
    }
}

#[test]
fn validator_agrees_with_the_decoder_on_batches_truncations_and_flips() {
    for seed in 0..8u64 {
        let counters = 1 + (seed as usize * 5) % 24;
        let bytes = batch(seed, 12, counters);
        let whole = agreed(&bytes, counters, &format!("seed {seed}")).unwrap();
        assert_eq!((whole.0, whole.2), (12, bytes.len() as u64));
        for cut in 0..bytes.len() {
            let at = format!("seed {seed} cut {cut}");
            if let Err((_, kind, _)) = agreed(&bytes[..cut], counters, &at) {
                assert_eq!(kind, WireErrorKind::Truncated, "{at}");
            }
        }
        let mut fault = Pcg32::with_stream(seed, 0xa9ee);
        for flip in 0..256 {
            let mut corrupt = bytes.clone();
            for _ in 0..=fault.below(2) {
                let pos = fault.below(corrupt.len() as u64) as usize;
                corrupt[pos] ^= 1 << fault.below(8);
            }
            let _ = agreed(&corrupt, counters, &format!("seed {seed} flip {flip}"));
        }
    }
}

/// A stream header for `counters` counters followed by one hand-built
/// frame: `len` as declared, then `payload`.
fn stream_with_frame(counters: usize, declared_len: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut bytes = wire::encode_reports(&[], LAYOUT_HASH, counters).unwrap();
    bytes.extend_from_slice(declared_len);
    bytes.extend_from_slice(payload);
    bytes
}

#[test]
fn validator_agrees_with_the_decoder_on_each_malformed_frame_kind() {
    // payload := run_id 5 | label | (gap, value) pairs, three counters
    let cases: [(&str, Vec<u8>, WireErrorKind); 8] = [
        (
            "label byte 2",
            stream_with_frame(3, &[2], &[5, 2]),
            WireErrorKind::BadLabel,
        ),
        (
            "eleven-byte gap varint",
            stream_with_frame(
                3,
                &[14],
                &[
                    5, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1,
                ],
            ),
            WireErrorKind::VarintOverflow,
        ),
        (
            "tenth value varint byte carrying more than one bit",
            stream_with_frame(
                3,
                &[13],
                &[
                    5, 1, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02,
                ],
            ),
            WireErrorKind::VarintOverflow,
        ),
        (
            "declared length beyond what three counters can take",
            stream_with_frame(3, &[72], &[0; 72]),
            WireErrorKind::FrameTooLarge,
        ),
        (
            "a zero value",
            stream_with_frame(3, &[4], &[5, 0, 1, 0]),
            WireErrorKind::BadCounter,
        ),
        (
            "a gap past the width",
            stream_with_frame(3, &[6], &[5, 0, 1, 4, 1, 9]),
            WireErrorKind::BadCounter,
        ),
        (
            "a gap that overflows u64",
            stream_with_frame(
                3,
                &[15],
                &[
                    5, 0, 1, 4, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 9,
                ],
            ),
            WireErrorKind::BadCounter,
        ),
        (
            "half a pair at the end of the frame",
            stream_with_frame(3, &[5], &[5, 0, 1, 7, 0]),
            WireErrorKind::Truncated,
        ),
    ];
    for (what, bytes, expected) in cases {
        let (frames, kind, _) = agreed(&bytes, 3, what).unwrap_err();
        assert_eq!((frames, kind), (0, expected), "{what}");
    }

    // An overlong varint that still fits is a value like any other:
    // gap 2 spelled 0x82 0x00, value 7 spelled 0x87 0x80 0x00.
    let overlong = stream_with_frame(3, &[7], &[5, 1, 0x82, 0x00, 0x87, 0x80, 0x00]);
    assert_eq!(agreed(&overlong, 3, "overlong varints").unwrap().0, 1);
    assert_eq!(
        decode_batch(&overlong, Some(layout(3))).unwrap().0,
        vec![Report::new(5, Label::Failure, vec![0, 0, 7])]
    );

    // The same frames after two good ones: both walks report two frames
    // behind them.
    let good = random_reports(3, 2, 3);
    let mut bytes = wire::encode_reports(&good, LAYOUT_HASH, 3).unwrap();
    bytes.extend_from_slice(&[2, 5, 7]);
    let (frames, kind, _) = agreed(&bytes, 3, "bad label third").unwrap_err();
    assert_eq!((frames, kind), (2, WireErrorKind::BadLabel));
}

#[test]
fn zero_valued_pairs_are_rejected_however_spelled() {
    // A report has one spelling: a zero counter is left out, never sent.
    // Zero as 0x00, 0x80 0x00 and 0x80 0x80 0x00, after a good pair.
    for zero in [&[0x00][..], &[0x80, 0x00], &[0x80, 0x80, 0x00]] {
        let mut payload = vec![5, 1, 0, 7, 1];
        payload.extend_from_slice(zero);
        let bytes = stream_with_frame(4, &[payload.len() as u8], &payload);
        let (frames, kind, message) = agreed(&bytes, 4, &format!("zero {zero:?}")).unwrap_err();
        assert_eq!((frames, kind), (0, WireErrorKind::BadCounter), "{message}");
        assert!(message.contains("zero value"), "{message}");
    }
}

#[test]
fn every_visitor_refuses_a_version_one_stream() {
    // A v1 stream spelled every counter: run id 5, label 1, then three
    // counters 0, 0, 7.  No v1 reader is kept.
    let mut v1 = b"CBIR".to_vec();
    v1.push(1);
    v1.extend_from_slice(&LAYOUT_HASH.to_le_bytes());
    v1.extend_from_slice(&[3, 5, 5, 1, 0, 0, 7]);
    let (frames, kind, message) = agreed(&v1, 3, "v1 stream").unwrap_err();
    assert_eq!((frames, kind), (0, WireErrorKind::UnsupportedVersion));
    assert!(message.contains("version 1"), "{message}");
}

#[test]
fn a_header_past_the_width_ceiling_is_refused_before_it_sizes_anything() {
    // 2^40 counters, then one empty frame.
    let mut bytes = b"CBIR".to_vec();
    bytes.push(wire::VERSION);
    bytes.extend_from_slice(&LAYOUT_HASH.to_le_bytes());
    bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0]);
    let declared = 1u64 << 40;
    let too_wide = |e: &WireError| {
        matches!(e, WireError::TooManyCounters { declared: d, max }
            if *d == declared && *max == wire::MAX_COUNTERS)
    };
    let rejected = decode_batch(&bytes, None).unwrap_err();
    assert!(too_wide(&rejected.error), "{}", rejected.error);
    let rejected = validate_batch(&bytes, None).unwrap_err();
    assert!(too_wide(&rejected.error), "{}", rejected.error);
    let err = SparseArchive::read_stream(bytes.as_slice()).unwrap_err();
    assert!(too_wide(&err), "{err}");
}
