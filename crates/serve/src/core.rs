//! [`IngestCore`]: the transport-free ingest engine.
//!
//! Everything the TCP server does between the socket and the analysis
//! lives here, so tests and in-process baselines can drive the exact
//! production path without a network: shard routing, dedup, payload
//! validation, journal append-before-ack, resume, and the shutdown fold
//! — the one place a report is read and analysed.

use crate::journal::{self, FsyncPolicy, Journal};
use crate::shard::{fold_ordered, CommittedBatch, RejectEvent, ShardState, ShardStats};
use crate::ServeError;
use cbi::EpochAggregator;
use cbi_instrument::SiteTable;
use cbi_reports::{AckVerdict, BatchEnvelope, ReportLayout, SparseArchive};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Ingest-core configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards; batches route to `client mod shards`.
    pub shards: usize,
    /// Deliveries the TCP server admits to a shard and has not yet
    /// answered; one past the bound is shed with an `overloaded` NACK.
    pub queue_cap: usize,
    /// Runs per epoch snapshot in the folded analysis.
    pub epoch_len: u64,
    /// Flight-recorder capacity of the folded aggregator.
    pub flight_capacity: usize,
    /// Also keep every accepted report, in fold order, in a
    /// [`SparseArchive`] ([`ServeOutcome::collector`]).  The aggregates
    /// need no report once it is folded; per-report analyses —
    /// `cbi-scoring`'s `FailureIndex`, the cross-validated ℓ₁
    /// regression, `cbi serve --spool` — do.  Costs 12 bytes per
    /// nonzero counter plus 17 per report, not 8 bytes per counter.
    pub keep_reports: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 1,
            queue_cap: 64,
            epoch_len: 256,
            flight_capacity: 64,
            keep_reports: false,
        }
    }
}

/// What the server ingested, shard by shard.  Everything here is
/// integer-valued and — except the per-shard and arrival-order columns
/// — invariant under shard count and crash/replay history.
#[derive(Debug, Clone, Default)]
pub struct ServeSummary {
    /// Worker shards.
    pub shards: usize,
    /// Connections fully drained.
    pub connections: u64,
    /// Connections dropped mid-stream (I/O error or unrecoverable
    /// framing) — counted separately, never folded.
    pub rejected_connections: u64,
    /// Batches committed.
    pub batches: u64,
    /// Retransmits deduplicated.
    pub duplicates: u64,
    /// Deliveries rejected at decode.
    pub rejected_batches: u64,
    /// Deliveries failing their envelope CRC.
    pub crc_failures: u64,
    /// Batches shed by backpressure.
    pub shed: u64,
    /// Reports committed.
    pub reports: u64,
    /// Payload bytes committed.
    pub bytes: u64,
    /// Batches replayed from the journal at resume.
    pub replayed: u64,
    /// Whether resume truncated a torn final record, or the shutdown
    /// re-read of the journal ended in one.
    pub torn_tail: bool,
    /// Journal records the shutdown fold skipped for CRC damage (at a
    /// read-only load: the records the load skipped).
    pub journal_skipped_crc: u64,
    /// Journal size in bytes at shutdown (0 without a journal).
    pub journal_bytes: u64,
    /// Per-shard committed-batch counts.
    pub shard_batches: Vec<u64>,
    /// Per-shard high-water marks of admitted, unanswered deliveries
    /// (TCP server only).
    pub queue_high_water: Vec<u64>,
}

impl ServeSummary {
    /// Renders the summary, integers only.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "ingested {} reports in {} batches over {} connections ({} rejected)\n",
            self.reports, self.batches, self.connections, self.rejected_connections
        ));
        out.push_str(&format!(
            "deliveries: {} duplicate, {} rejected, {} bad-crc, {} shed\n",
            self.duplicates, self.rejected_batches, self.crc_failures, self.shed
        ));
        out.push_str(&format!("payload bytes: {}\n", self.bytes));
        if self.journal_bytes > 0 || self.replayed > 0 {
            out.push_str(&format!(
                "journal: {} bytes, {} replayed{}{}\n",
                self.journal_bytes,
                self.replayed,
                if self.torn_tail {
                    ", torn tail truncated"
                } else {
                    ""
                },
                if self.journal_skipped_crc > 0 {
                    ", crc-damaged records skipped"
                } else {
                    ""
                },
            ));
        }
        out.push_str(&format!("shards: {}\n", self.shards));
        for (i, batches) in self.shard_batches.iter().enumerate() {
            let high = self.queue_high_water.get(i).copied().unwrap_or(0);
            out.push_str(&format!(
                "  shard {i}: {batches} batches, queue high-water {high}\n"
            ));
        }
        out
    }

    fn absorb_shard(&mut self, stats: &ShardStats) {
        self.batches += stats.batches;
        self.duplicates += stats.duplicates;
        self.rejected_batches += stats.rejected;
        self.crc_failures += stats.crc_failures;
        self.reports += stats.reports;
        self.bytes += stats.bytes;
        self.shard_batches.push(stats.batches);
    }
}

/// The server's full result: accounting plus the folded analysis.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Ingest accounting.
    pub summary: ServeSummary,
    /// The authoritative folded analysis.
    pub aggregator: EpochAggregator,
    /// Every accepted report in fold order — `(seq, client)`, then
    /// frame order within a batch — when [`ServeConfig::keep_reports`]
    /// was set.  [`SparseArchive::rows`] hands them out as the rows the
    /// §3.3 trainer reads; [`SparseArchive::reports`] materialises them
    /// as dense reports one at a time.
    pub collector: Option<SparseArchive>,
}

/// Renders the canonical analysis of a folded aggregator: integers and
/// predicate names only, so the rendering is byte-comparable across
/// shard counts, transports, and crash/replay histories.  The top
/// predicates are the attached §3.3 model's
/// ([`EpochAggregator::model`]); an aggregator without one lists none.
///
/// Deliberately excluded: anything the server cannot observe or that
/// is transport-specific — corruption flags (a client-side fact),
/// cohort labels (peer-address-derived), retry/byte columns.
pub fn render_analysis(aggregator: &EpochAggregator, top: usize) -> String {
    let sites = aggregator.sites();
    let analyzer = aggregator.analyzer();
    let elimination = analyzer.eliminate(sites);
    let mut out = String::new();
    out.push_str(&format!("runs: {}\n", aggregator.runs()));
    out.push_str(&format!("failures: {}\n", aggregator.failures()));
    out.push_str(&format!(
        "observed: {}\n",
        aggregator.first_observation().observed_count()
    ));
    out.push_str(&format!("survivors: {}\n", elimination.combined.len()));
    for name in &elimination.combined_names {
        out.push_str(&format!("  {name}\n"));
    }
    out.push_str(&format!("top {top} predicates:\n"));
    let ranked = aggregator.model().map(|m| m.ranked_features());
    for (i, &counter) in ranked.iter().flatten().take(top).enumerate() {
        out.push_str(&format!(
            "  {:>2}. {}\n",
            i + 1,
            sites.predicate_name(counter)
        ));
    }
    out.push_str("epoch  runs  failures  observed  survivors\n");
    for snap in aggregator.snapshots() {
        out.push_str(&format!(
            "{:>5}  {:>4}  {:>8}  {:>8}  {:>9}\n",
            snap.epoch, snap.runs, snap.failures, snap.observed, snap.survivors
        ));
    }
    out
}

/// What resume or a read-only load recovered from a journal.
#[derive(Default)]
struct ReplayInfo {
    replayed: u64,
    torn_tail: bool,
    skipped_crc: u64,
}

/// The shard owning `client`, reached without locking: the `&mut`
/// already excludes every other user.
fn shard_mut(shards: &mut [Mutex<ShardState>], client: u64) -> Result<&mut ShardState, ServeError> {
    let shard = (client % shards.len() as u64) as usize;
    shards[shard]
        .get_mut()
        .map_err(|_| ServeError::WorkerPanicked { shard })
}

/// The transport-free ingest engine: shard routing, dedup, journal,
/// resume, and the shutdown fold, with no sockets attached.
pub struct IngestCore {
    config: ServeConfig,
    sites: SiteTable,
    layout: ReportLayout,
    pub(crate) shards: Vec<Mutex<ShardState>>,
    pub(crate) journal: Option<Mutex<Journal>>,
    replay: ReplayInfo,
}

impl IngestCore {
    /// Builds a core serving the given instrumented site table.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] on zero shards or a zero queue
    /// bound.
    pub fn new(sites: SiteTable, config: ServeConfig) -> Result<IngestCore, ServeError> {
        if config.shards == 0 {
            return Err(ServeError::Config("shard count must be positive".into()));
        }
        if config.queue_cap == 0 {
            return Err(ServeError::Config(
                "ingest queue capacity must be positive".into(),
            ));
        }
        if config.epoch_len == 0 {
            return Err(ServeError::Config("epoch length must be positive".into()));
        }
        let layout = ReportLayout {
            counters: sites.total_counters(),
            layout_hash: sites.layout_hash(),
        };
        let shards = (0..config.shards)
            .map(|_| Mutex::new(ShardState::new(layout, true)))
            .collect();
        Ok(IngestCore {
            config,
            sites,
            layout,
            shards,
            journal: None,
            replay: ReplayInfo::default(),
        })
    }

    /// Attaches a fresh journal (truncating any existing file).  From
    /// here on, committed payloads live in the journal, not in memory,
    /// and every commit is appended before it is acked.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Journal`] if the file cannot be created.
    pub fn with_journal(
        mut self,
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> Result<IngestCore, ServeError> {
        let journal = Journal::create(path, self.layout.layout_hash, policy)?;
        self.attach(journal);
        Ok(self)
    }

    /// Resumes from an existing journal: re-admits every intact record
    /// to its shard (rebuilding dedup keys and accounting; the reports
    /// themselves are read once, by [`finish`](Self::finish)),
    /// truncates any torn tail, and continues appending.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] on a layout-hash mismatch, plus
    /// journal I/O and replay validation errors.
    pub fn resume(
        mut self,
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> Result<IngestCore, ServeError> {
        let (journal, recovered) = journal::resume(path, self.layout.layout_hash, policy)?;
        self.replay = ReplayInfo {
            replayed: recovered.envelopes.len() as u64,
            torn_tail: recovered.torn_tail,
            skipped_crc: recovered.skipped_crc,
        };
        self.attach(journal);
        for envelope in &recovered.envelopes {
            shard_mut(&mut self.shards, envelope.client)?.replay(envelope)?;
        }
        Ok(self)
    }

    /// Replays a journal file *read-only*: intact records are ingested
    /// into memory (full provenance preserved) but the file is never
    /// opened for append and a torn tail is never truncated.  This is
    /// the offline-analysis path (`cbi monitor --replay`), safe to run
    /// on crash debris while deciding whether to resume.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] on a layout-hash mismatch, plus
    /// journal read errors.
    pub fn load_journal(
        mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<IngestCore, ServeError> {
        let recovered = journal::replay(path)?;
        if recovered.layout_hash != self.layout.layout_hash {
            return Err(ServeError::Config(format!(
                "journal layout hash {:#018x} does not match the served binary's {:#018x}",
                recovered.layout_hash, self.layout.layout_hash
            )));
        }
        self.replay = ReplayInfo {
            replayed: recovered.envelopes.len() as u64,
            torn_tail: recovered.torn_tail,
            skipped_crc: recovered.skipped_crc,
        };
        for envelope in recovered.envelopes {
            // Full `process` (not the resume-replay fast path) so the
            // in-memory shards retain the payloads for the fold.
            shard_mut(&mut self.shards, envelope.client)?.process(None, envelope, true, None)?;
        }
        Ok(self)
    }

    fn attach(&mut self, journal: Journal) {
        self.journal = Some(Mutex::new(journal));
        for shard in &mut self.shards {
            *shard = Mutex::new(ShardState::new(self.layout, false));
        }
    }

    /// The layout this core serves.
    pub fn layout(&self) -> ReportLayout {
        self.layout
    }

    /// The site table this core serves.
    pub fn sites(&self) -> &SiteTable {
        &self.sites
    }

    /// The configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Which shard owns a client.
    pub fn shard_of(&self, client: u64) -> usize {
        (client % self.config.shards as u64) as usize
    }

    /// Processes one envelope in process, through the same shard
    /// `process` body the TCP server's connection threads run under the
    /// shard's lock — here without taking it.
    ///
    /// # Errors
    ///
    /// As `ShardState::process`, plus [`ServeError::WorkerPanicked`]
    /// if a panic poisoned the shard.
    pub fn submit(
        &mut self,
        origin: Option<&str>,
        envelope: BatchEnvelope,
        crc_ok: bool,
    ) -> Result<AckVerdict, ServeError> {
        shard_mut(&mut self.shards, envelope.client)?.process(
            origin.map(Arc::from),
            envelope,
            crc_ok,
            self.journal.as_ref(),
        )
    }

    /// Shuts down and produces the authoritative analysis: collects the
    /// committed batches (from memory, or by re-reading the journal),
    /// folds them in order, assembles the summary.
    ///
    /// # Errors
    ///
    /// Propagates journal read and fold errors.
    pub fn finish(self) -> Result<ServeOutcome, ServeError> {
        let mut summary = ServeSummary {
            shards: self.config.shards,
            replayed: self.replay.replayed,
            torn_tail: self.replay.torn_tail,
            journal_skipped_crc: self.replay.skipped_crc,
            ..ServeSummary::default()
        };
        let mut committed: Vec<CommittedBatch> = Vec::new();
        let mut rejects: Vec<RejectEvent> = Vec::new();
        for (index, shard) in self.shards.into_iter().enumerate() {
            let shard = shard
                .into_inner()
                .map_err(|_| ServeError::WorkerPanicked { shard: index })?;
            summary.absorb_shard(&shard.stats);
            committed.extend(shard.committed);
            rejects.extend(shard.rejects);
        }
        if let Some(journal) = self.journal {
            let mut journal = journal
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            journal.sync()?;
            summary.journal_bytes = journal.bytes();
            let path = journal.path().to_path_buf();
            drop(journal);
            let recovered = journal::replay(&path)?;
            // This read sees every damaged record `resume` saw (resume
            // skips them, it does not remove them) and any damaged since;
            // a tail `resume` truncated is gone from the file by now.
            summary.journal_skipped_crc = recovered.skipped_crc;
            summary.torn_tail |= recovered.torn_tail;
            committed = recovered
                .envelopes
                .into_iter()
                .map(|envelope| CommittedBatch {
                    client: envelope.client,
                    seq: envelope.seq,
                    attempt: envelope.attempt,
                    origin: None,
                    payload: envelope.payload,
                })
                .collect();
        }
        let (aggregator, collector) =
            fold_ordered(&self.sites, self.layout, &self.config, committed, rejects)?;
        Ok(ServeOutcome {
            summary,
            aggregator,
            collector,
        })
    }
}
