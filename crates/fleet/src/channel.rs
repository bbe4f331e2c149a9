//! The lossy channel between a client's spool and the collection server.
//!
//! Remote sampling lives on real networks: batches vanish, arrive cut
//! short, or arrive with flipped bits.  The channel model applies those
//! faults per transmission *attempt*, seeded, so an entire campaign of
//! failures replays bit-for-bit from the fleet seed.  Clients respond
//! with bounded retry under exponential backoff; what that policy does
//! to a batch is decided here, in one place, as a pure function of the
//! fault coin flips and the server's (deterministic) accept/reject
//! verdict.

use cbi_reports::{validate_batch, ReportLayout, WireErrorKind};
use cbi_sampler::Pcg32;

/// PRNG stream tag for channel faults (one stream per attempt).  Shared
/// with the socket driver so a real-wire fleet draws the exact same
/// fault coins as the in-memory fold.
pub(crate) const CHANNEL_STREAM: u64 = 0x63_68_61_6e; // "chan"

/// Attempts per batch are bounded, so per-attempt streams can be packed
/// as `batch_uid * ATTEMPT_STRIDE + attempt`.
pub(crate) const ATTEMPT_STRIDE: u64 = 64;

/// The seeded fault RNG for one `(batch_uid, attempt)` pair — the coins
/// [`send_batch`] flips, reproducible by any transport.
pub(crate) fn attempt_rng(seed: u64, batch_uid: u64, attempt: u64) -> Pcg32 {
    Pcg32::with_stream(
        seed,
        CHANNEL_STREAM ^ (batch_uid.wrapping_mul(ATTEMPT_STRIDE) + attempt),
    )
}

/// Fault probabilities and retry policy for the client↔server channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelSpec {
    /// Probability an attempt vanishes entirely (nothing reaches the
    /// server; the client times out and retries).
    pub drop: f64,
    /// Probability a delivered attempt arrives truncated.
    pub truncate: f64,
    /// Probability a delivered attempt arrives with one flipped bit.
    pub bit_flip: f64,
    /// Retries after the first attempt before the batch is abandoned.
    pub max_retries: u32,
    /// Backoff after failed attempt `k` costs `backoff_base << k` ticks.
    pub backoff_base: u64,
}

impl Default for ChannelSpec {
    /// A clean channel: nothing dropped, nothing corrupted.
    fn default() -> Self {
        ChannelSpec {
            drop: 0.0,
            truncate: 0.0,
            bit_flip: 0.0,
            max_retries: 3,
            backoff_base: 1,
        }
    }
}

impl ChannelSpec {
    /// A channel that loses or corrupts roughly `fault` of attempts,
    /// split evenly between drops, truncations, and bit flips.
    pub fn faulty(fault: f64) -> Self {
        ChannelSpec {
            drop: fault / 3.0,
            truncate: fault / 3.0,
            bit_flip: fault / 3.0,
            ..ChannelSpec::default()
        }
    }
}

/// What one transmission attempt put on the server's doorstep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// The attempt never arrived.
    Dropped,
    /// These bytes arrived (possibly truncated or bit-flipped).
    Arrived(Vec<u8>),
}

/// Applies seeded channel faults to one attempt's payload.
pub fn transmit(bytes: &[u8], rng: &mut Pcg32, spec: &ChannelSpec) -> Delivery {
    if rng.next_f64() < spec.drop {
        return Delivery::Dropped;
    }
    let mut payload = bytes.to_vec();
    if rng.next_f64() < spec.truncate && !payload.is_empty() {
        payload.truncate(rng.below(payload.len() as u64) as usize);
    }
    if rng.next_f64() < spec.bit_flip && !payload.is_empty() {
        let pos = rng.below(payload.len() as u64) as usize;
        payload[pos] ^= 1 << rng.below(8);
    }
    Delivery::Arrived(payload)
}

/// How a batch's send loop ended.
#[derive(Debug, Clone, PartialEq)]
pub enum SendOutcome {
    /// The server validated an attempt and committed its bytes — the
    /// *delivered* bytes, so a bit flip that still parses delivers
    /// silently corrupt data, as on a real wire.
    Accepted {
        /// The delivered payload, for the server's fold.
        payload: Vec<u8>,
        /// The delivered bytes differed from what the client sent: the
        /// channel altered the stream but it still decoded.
        corrupted: bool,
    },
    /// The server rejected the stream's layout fingerprint: a stale
    /// client.  The client gives up immediately (its binary will never
    /// match), so one rejection is recorded and no retries burn.
    Stale,
    /// Every allowed attempt was dropped or rejected; the batch is
    /// abandoned and its reports are lost.
    Lost,
}

/// One delivered-but-rejected attempt, with the server's typed verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Zero-based attempt index the rejection happened on.
    pub attempt: u32,
    /// The typed wire-error kind the server rejected with.
    pub kind: WireErrorKind,
}

impl Rejection {
    /// Whether this was a stale-layout handshake rejection.
    pub fn is_stale(&self) -> bool {
        self.kind == WireErrorKind::LayoutHashMismatch
    }
}

/// The full accounting of one batch's send loop.
#[derive(Debug, Clone, PartialEq)]
pub struct SendResult {
    /// How the loop ended.
    pub outcome: SendOutcome,
    /// Attempts transmitted (including the successful one, if any).
    pub attempts: u32,
    /// Bytes put on the wire across all attempts.
    pub bytes_sent: u64,
    /// Backoff ticks accumulated between attempts.
    pub backoff_ticks: u64,
    /// Delivered-but-rejected attempts, in order, each carrying its
    /// attempt index and the server's typed [`WireErrorKind`].
    pub rejections: Vec<Rejection>,
}

/// Runs the bounded-retry send loop for one spooled batch.
///
/// `batch_uid` must be globally unique (it seeds the per-attempt fault
/// stream); `expected` is the server's current layout, against which
/// each delivered attempt is validated exactly as an ingest shard does
/// before it commits.
pub fn send_batch(
    bytes: &[u8],
    batch_uid: u64,
    seed: u64,
    channel: &ChannelSpec,
    expected: ReportLayout,
) -> SendResult {
    let mut result = SendResult {
        outcome: SendOutcome::Lost,
        attempts: 0,
        bytes_sent: 0,
        backoff_ticks: 0,
        rejections: Vec::new(),
    };
    for attempt in 0..=u64::from(channel.max_retries) {
        let mut rng = attempt_rng(seed, batch_uid, attempt);
        result.attempts += 1;
        result.bytes_sent += bytes.len() as u64;
        if let Delivery::Arrived(payload) = transmit(bytes, &mut rng, channel) {
            match validate_batch(&payload, Some(expected)) {
                Ok(_) => {
                    let corrupted = payload != bytes;
                    result.outcome = SendOutcome::Accepted { payload, corrupted };
                    return result;
                }
                Err(rejected) => {
                    let rejection = Rejection {
                        attempt: attempt as u32,
                        kind: rejected.error.kind(),
                    };
                    result.rejections.push(rejection);
                    if rejection.is_stale() {
                        result.outcome = SendOutcome::Stale;
                        return result;
                    }
                }
            }
        }
        if attempt < u64::from(channel.max_retries) {
            // Exponential backoff, shift-capped so ticks cannot overflow.
            result.backoff_ticks += channel.backoff_base << attempt.min(16);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_reports::wire::encode_reports;
    use cbi_reports::{Label, Report};

    fn layout() -> ReportLayout {
        ReportLayout {
            counters: 2,
            layout_hash: 0xf1ee7,
        }
    }

    fn batch(hash: u64) -> Vec<u8> {
        let reports = vec![
            Report::new(3, Label::Success, vec![1, 0]),
            Report::new(7, Label::Failure, vec![0, 2]),
        ];
        encode_reports(&reports, hash, 2).unwrap()
    }

    #[test]
    fn clean_channel_accepts_first_attempt() {
        let bytes = batch(layout().layout_hash);
        let r = send_batch(&bytes, 0, 1, &ChannelSpec::default(), layout());
        assert_eq!(r.attempts, 1);
        assert_eq!(r.bytes_sent, bytes.len() as u64);
        assert!(r.rejections.is_empty());
        match r.outcome {
            SendOutcome::Accepted {
                ref payload,
                corrupted,
            } => {
                assert_eq!(payload, &bytes, "a clean channel delivers verbatim");
                assert!(!corrupted);
            }
            ref other => panic!("expected accept, got {other:?}"),
        }
    }

    #[test]
    fn total_loss_exhausts_retries_with_backoff() {
        let channel = ChannelSpec {
            drop: 1.0,
            max_retries: 3,
            backoff_base: 2,
            ..ChannelSpec::default()
        };
        let bytes = batch(layout().layout_hash);
        let r = send_batch(&bytes, 9, 1, &channel, layout());
        assert_eq!(r.outcome, SendOutcome::Lost);
        assert_eq!(r.attempts, 4, "initial + 3 retries");
        assert_eq!(r.bytes_sent, 4 * bytes.len() as u64);
        assert_eq!(r.backoff_ticks, 2 + 4 + 8, "2<<0 + 2<<1 + 2<<2");
    }

    #[test]
    fn stale_layout_gives_up_after_one_rejection() {
        let bytes = batch(layout().layout_hash ^ 0xff);
        let channel = ChannelSpec {
            max_retries: 5,
            ..ChannelSpec::default()
        };
        let r = send_batch(&bytes, 2, 1, &channel, layout());
        assert_eq!(r.outcome, SendOutcome::Stale);
        assert_eq!(r.attempts, 1, "no point retrying a stale binary");
        assert_eq!(
            r.rejections,
            vec![Rejection {
                attempt: 0,
                kind: WireErrorKind::LayoutHashMismatch
            }]
        );
        assert!(r.rejections[0].is_stale());
    }

    #[test]
    fn corrupting_channel_is_deterministic() {
        let channel = ChannelSpec::faulty(0.9);
        let bytes = batch(layout().layout_hash);
        for uid in 0..16 {
            let a = send_batch(&bytes, uid, 77, &channel, layout());
            let b = send_batch(&bytes, uid, 77, &channel, layout());
            assert_eq!(a, b, "uid {uid}");
        }
    }

    #[test]
    fn decodable_bit_flips_are_flagged_corrupt() {
        // Every attempt flips exactly one bit; flips landing in counter
        // varints still decode — those must surface as corrupted, not
        // silently pass for clean.
        let channel = ChannelSpec {
            bit_flip: 1.0,
            max_retries: 0,
            ..ChannelSpec::default()
        };
        let bytes = batch(layout().layout_hash);
        let mut corrupt_accepts = 0;
        for uid in 0..64 {
            if let SendOutcome::Accepted { corrupted, .. } =
                send_batch(&bytes, uid, 5, &channel, layout()).outcome
            {
                assert!(corrupted, "uid {uid}: delivered bytes were altered");
                corrupt_accepts += 1;
            }
        }
        assert!(corrupt_accepts > 0, "some flips land in benign positions");
    }

    #[test]
    fn rejections_carry_ordered_attempt_indices_and_kinds() {
        let channel = ChannelSpec {
            truncate: 0.7,
            max_retries: 6,
            ..ChannelSpec::default()
        };
        let bytes = batch(layout().layout_hash);
        let multi = (0..64)
            .map(|uid| send_batch(&bytes, uid, 5, &channel, layout()))
            .find(|r| r.rejections.len() >= 2)
            .expect("heavy truncation rejects repeatedly");
        let attempts: Vec<u32> = multi.rejections.iter().map(|r| r.attempt).collect();
        let mut sorted = attempts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(attempts, sorted, "attempt indices strictly increase");
        assert!(multi.rejections.iter().all(|r| !r.is_stale()));
    }

    #[test]
    fn truncation_rejections_allow_a_later_clean_attempt() {
        // With heavy truncation but no drops, some uid eventually shows
        // a rejected-then-accepted sequence — the retry path working.
        let channel = ChannelSpec {
            truncate: 0.6,
            max_retries: 6,
            ..ChannelSpec::default()
        };
        let bytes = batch(layout().layout_hash);
        let recovered = (0..64)
            .map(|uid| send_batch(&bytes, uid, 5, &channel, layout()))
            .any(|r| !r.rejections.is_empty() && matches!(r.outcome, SendOutcome::Accepted { .. }));
        assert!(recovered, "no batch recovered after a rejection");
    }
}
