//! Per-shard ingest state and the ordered merge that turns committed
//! batches into the authoritative analysis.
//!
//! A shard owns everything keyed by `client mod shards`: the dedup set,
//! its ingest accounting, and — when no journal holds them — the
//! committed envelopes themselves.  It analyses nothing: a delivery is
//! CRC-gated, deduplicated, *validated* (a walk of its frames that
//! materialises no report), journaled, and acked.  The analysis is
//! produced once, by [`fold_ordered`], which walks every committed
//! batch's bytes in `(seq, client)` order and folds each report's
//! nonzero counters into a fresh [`EpochAggregator`] — no dense report
//! is built on the way — the same ordering discipline the campaign
//! driver uses to keep `--jobs` out of its output.  Shard count,
//! arrival interleaving, and crash/replay history therefore cannot leak
//! into the result: any history committing the same batch set folds to
//! the same bytes.  The §3.3 model is trained over the rows the fold
//! walks, in the same order, on a second thread
//! ([`EpochAggregator::fold_and_train`]), so the fold's two costs
//! overlap without changing a bit of either.

use crate::journal::Journal;
use crate::{ServeConfig, ServeError};
use cbi::stats::TrainConfig;
use cbi::{EpochAggregator, RowFeed};
use cbi_instrument::SiteTable;
use cbi_reports::{
    validate_batch, AckVerdict, BatchEnvelope, DecodeOutcome, Provenance, ReportLayout, ReportSink,
    SparseArchive, WireErrorKind,
};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// One shard's ingest accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Batches committed (first-time accepts).
    pub batches: u64,
    /// Retransmits answered `duplicate` without re-ingest.
    pub duplicates: u64,
    /// Deliveries whose payload failed to decode.
    pub rejected: u64,
    /// Deliveries whose payload failed its envelope CRC.
    pub crc_failures: u64,
    /// Reports inside committed batches.
    pub reports: u64,
    /// Payload bytes inside committed batches.
    pub bytes: u64,
}

/// A committed batch retained for the shutdown fold (in-memory mode;
/// with a journal the journal file is the retained copy).
#[derive(Debug, Clone)]
pub(crate) struct CommittedBatch {
    pub client: u64,
    pub seq: u64,
    pub attempt: u32,
    pub origin: Option<Arc<str>>,
    pub payload: Vec<u8>,
}

/// A delivery whose payload failed to decode — kept so the fold can
/// attribute rejections (stale clients, truncation) with provenance.
#[derive(Debug, Clone)]
pub(crate) struct RejectEvent {
    pub client: u64,
    pub seq: u64,
    pub attempt: u32,
    pub origin: Option<Arc<str>>,
    pub kind: WireErrorKind,
}

/// Everything one shard owns.
pub(crate) struct ShardState {
    layout: ReportLayout,
    keep: bool,
    dedup: HashSet<(u64, u64)>,
    pub committed: Vec<CommittedBatch>,
    pub rejects: Vec<RejectEvent>,
    pub stats: ShardStats,
}

impl ShardState {
    /// Builds a shard.  `keep` retains committed payloads in memory for
    /// the shutdown fold; pass `false` when a journal holds them.
    pub fn new(layout: ReportLayout, keep: bool) -> ShardState {
        ShardState {
            layout,
            keep,
            dedup: HashSet::new(),
            committed: Vec::new(),
            rejects: Vec::new(),
            stats: ShardStats::default(),
        }
    }

    /// Processes one delivered envelope: CRC gate, dedup, validate,
    /// journal-then-commit.  Returns the verdict to ack with.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Journal`] if the journal append fails (the
    /// batch is then *not* committed and must not be acked).
    pub fn process(
        &mut self,
        origin: Option<Arc<str>>,
        envelope: BatchEnvelope,
        crc_ok: bool,
        journal: Option<&Mutex<Journal>>,
    ) -> Result<AckVerdict, ServeError> {
        if !crc_ok {
            self.stats.crc_failures += 1;
            return Ok(AckVerdict::BadCrc);
        }
        if self.dedup.contains(&(envelope.client, envelope.seq)) {
            self.stats.duplicates += 1;
            return Ok(AckVerdict::Duplicate);
        }
        match validate_batch(&envelope.payload, Some(self.layout)) {
            Err(rejected) => {
                let kind = rejected.error.kind();
                self.stats.rejected += 1;
                self.rejects.push(RejectEvent {
                    client: envelope.client,
                    seq: envelope.seq,
                    attempt: envelope.attempt,
                    origin,
                    kind,
                });
                Ok(AckVerdict::Rejected(kind))
            }
            Ok((reports, _header, consumed)) => {
                if let Some(journal) = journal {
                    let mut journal = journal
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    journal.append(&envelope)?;
                }
                self.commit(reports, consumed, &envelope);
                if self.keep {
                    self.committed.push(CommittedBatch {
                        client: envelope.client,
                        seq: envelope.seq,
                        attempt: envelope.attempt,
                        origin,
                        payload: envelope.payload,
                    });
                }
                Ok(AckVerdict::Accepted)
            }
        }
    }

    /// Re-admits a journaled envelope during resume: rebuilds its dedup
    /// key and accounting without re-appending or retaining it (the
    /// journal already holds it).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Wire`] if a journaled payload no longer
    /// validates (it did before it was written, so this means on-disk
    /// damage the CRC missed).
    pub fn replay(&mut self, envelope: &BatchEnvelope) -> Result<(), ServeError> {
        let (reports, _header, consumed) = validate_batch(&envelope.payload, Some(self.layout))
            .map_err(|rejected| ServeError::Wire(rejected.error))?;
        self.commit(reports, consumed, envelope);
        Ok(())
    }

    fn commit(&mut self, reports: usize, consumed: u64, envelope: &BatchEnvelope) {
        self.dedup.insert((envelope.client, envelope.seq));
        self.stats.batches += 1;
        self.stats.reports += reports as u64;
        self.stats.bytes += consumed;
    }
}

fn provenance(client: u64, attempt: u32, origin: Option<&str>) -> Provenance {
    match origin {
        Some(origin) => Provenance::new(client, attempt).with_cohort(origin),
        None => Provenance::new(client, attempt),
    }
}

/// The ordered merge: folds every committed batch (and every rejected
/// delivery) into a fresh [`EpochAggregator`] in `(seq, client,
/// attempt)` order, each batch straight from its payload bytes through
/// [`EpochAggregator::fold_batch`] — the fold body the in-memory fleet
/// uses too — with the §3.3 model trained over each batch's rows on a
/// second core ([`EpochAggregator::fold_and_train`]).
///
/// With [`ServeConfig::keep_reports`] an archive holding every accepted
/// report, in fold order, is returned too.
///
/// # Errors
///
/// Returns [`ServeError::Sink`] if a retained payload fails to decode or
/// the aggregator rejects a report.
pub(crate) fn fold_ordered(
    sites: &SiteTable,
    layout: ReportLayout,
    config: &ServeConfig,
    mut committed: Vec<CommittedBatch>,
    mut rejects: Vec<RejectEvent>,
) -> Result<(EpochAggregator, Option<SparseArchive>), ServeError> {
    let _fold = cbi_telemetry::span("serve.fold");
    committed.sort_by_key(|a| (a.seq, a.client));
    rejects.sort_by_key(|a| (a.seq, a.client, a.attempt));

    let mut aggregator = EpochAggregator::new(
        sites.clone(),
        config.epoch_len,
        TrainConfig::default(),
        None,
    )
    .with_flight_capacity(config.flight_capacity);
    aggregator.begin(layout)?;

    // Merge the two sorted runs; a rejected delivery of a batch sorts
    // before the delivery that finally committed it.  Each batch is
    // walked into the feed that carries its rows to the trainer.
    let fold = |aggregator: &mut EpochAggregator, feed: &mut RowFeed| -> Result<(), ServeError> {
        let mut rejects = rejects.into_iter().peekable();
        for batch in &committed {
            while let Some(r) = rejects.next_if(|r| (r.seq, r.client) <= (batch.seq, batch.client))
            {
                let prov = provenance(r.client, r.attempt, r.origin.as_deref());
                aggregator.note_batch(&prov, DecodeOutcome::Rejected(r.kind), 0);
            }
            let prov = provenance(batch.client, batch.attempt, batch.origin.as_deref());
            aggregator.note_retries(prov.cohort_label(), batch.attempt as u64);
            aggregator.fold_batch(&prov, DecodeOutcome::Clean, &batch.payload, feed.rows())?;
        }
        for r in rejects {
            let prov = provenance(r.client, r.attempt, r.origin.as_deref());
            aggregator.note_batch(&prov, DecodeOutcome::Rejected(r.kind), 0);
        }
        Ok(())
    };
    let ((), kept) = aggregator.fold_and_train(config.keep_reports, fold)?;
    aggregator.close();
    Ok((aggregator, kept))
}
