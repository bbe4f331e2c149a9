//! Deterministic deployment health monitoring over epoch snapshots.
//!
//! The paper's community deployment runs unattended for weeks; the
//! operator's first question is not "which predicate is the bug?" but
//! "is the feedback stream still healthy enough to trust?".  This
//! module derives per-epoch **indicators** from consecutive
//! [`EpochSnapshot`]s — ingest rate, rejection and corruption ratios,
//! stale-version share, elimination-survivor churn, and detection-stall
//! streaks — and evaluates them with threshold detectors smoothed by an
//! integer EWMA, emitting typed [`HealthEvent`]s.
//!
//! # Determinism discipline
//!
//! Everything here is a pure function of the snapshot sequence:
//!
//! * ratios are integer **per-mille** (`‰`) values with round-half-up
//!   division — no floats anywhere, so renders diff byte-identically
//!   across platforms and `--jobs` counts;
//! * the EWMA baseline is integer: `ewma' = (x + 3·ewma + 2) / 4`,
//!   weighting the newest epoch 1/4;
//! * detectors are **edge-triggered**: an event fires once when its
//!   condition first becomes true and re-arms only after the condition
//!   clears, so a sustained storm yields exactly one event;
//! * epochs close on *run counts* (see [`EpochAggregator`]), never wall
//!   clocks, so two runs that fold the same community stream see the
//!   same indicator sequence regardless of scheduling.
//!
//! Because epochs close every `epoch_len` accepted runs, the per-epoch
//! run delta is constant by construction — so "ingest rate" is reported
//! as an indicator (runs and delivered batches per epoch) but has no
//! drop detector; the interesting rate anomalies surface through the
//! rejection, corruption, and stall detectors instead.

use crate::epoch::{EpochAggregator, EpochSnapshot};
use cbi_telemetry::Registry;
use std::fmt;

/// EWMA weight of the newest epoch: `EWMA_NUM / EWMA_DEN`.
const EWMA_NUM: u64 = 1;
const EWMA_DEN: u64 = 4;

/// Thresholds for the health detectors.
///
/// All ratios are integer per-mille (`250` ⇒ 25.0%).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthConfig {
    /// Epochs to observe before any detector may fire.
    pub warmup_epochs: usize,
    /// Corruption share of committed batches (‰) that trips
    /// [`HealthEvent::CorruptionSpike`].
    pub corruption_spike_pm: u64,
    /// Rejection share of delivered batches (‰) that trips
    /// [`HealthEvent::RejectionSpike`].
    pub rejection_spike_pm: u64,
    /// Stale share of delivered batches (‰) that trips
    /// [`HealthEvent::StaleSurge`].
    pub stale_surge_pm: u64,
    /// Consecutive epochs without detection progress that trip
    /// [`HealthEvent::DetectionStalled`].
    pub stall_epochs: u64,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            warmup_epochs: 1,
            corruption_spike_pm: 150,
            rejection_spike_pm: 300,
            stale_surge_pm: 250,
            stall_epochs: 3,
        }
    }
}

impl HealthConfig {
    /// Validates the stall horizon.
    ///
    /// # Panics
    ///
    /// Panics on a zero stall horizon.
    pub fn validate(&self) {
        assert!(self.stall_epochs > 0, "stall horizon must be nonzero");
    }
}

/// Integer per-mille ratio with round-half-up division; 0 when the
/// denominator is 0.
fn per_mille(part: u64, whole: u64) -> u64 {
    (1000 * part + whole / 2).checked_div(whole).unwrap_or(0)
}

/// Derived, integer-only indicators for one closed epoch.
///
/// Deltas are against the previous epoch (or zero state for epoch 0);
/// ratios are per-mille of that epoch's own traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochIndicators {
    /// 0-based epoch index.
    pub epoch: usize,
    /// Runs folded this epoch.
    pub runs: u64,
    /// Batches delivered this epoch (committed + rejected).
    pub delivered: u64,
    /// Batches committed this epoch.
    pub accepted: u64,
    /// Rejected share of delivered batches (‰).
    pub rejected_pm: u64,
    /// Corrupt-but-decodable share of committed batches (‰).
    pub corrupt_pm: u64,
    /// Stale-rejection share of delivered batches (‰).
    pub stale_pm: u64,
    /// EWMA baseline of `corrupt_pm` *before* this epoch folded in.
    pub ewma_corrupt_pm: u64,
    /// EWMA baseline of `rejected_pm` *before* this epoch folded in.
    pub ewma_rejected_pm: u64,
    /// Absolute change in elimination-survivor count since last epoch.
    pub survivor_churn: u64,
    /// Consecutive epochs (including this one) without detection
    /// progress; 0 when this epoch made progress.
    pub stalled_epochs: u64,
}

/// A typed anomaly detected in the epoch stream.
///
/// Events carry only integers, and [`Display`](fmt::Display) renders
/// them integer-only, so emitted event logs are golden-diffable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    /// Corrupt-but-decodable share of committed batches crossed the
    /// threshold.
    CorruptionSpike {
        /// Epoch the spike onset was detected in.
        epoch: usize,
        /// Corruption share this epoch (‰).
        corrupt_pm: u64,
        /// EWMA baseline before this epoch (‰).
        ewma_pm: u64,
    },
    /// Rejected share of delivered batches crossed the threshold.
    RejectionSpike {
        /// Epoch the spike onset was detected in.
        epoch: usize,
        /// Rejection share this epoch (‰).
        rejected_pm: u64,
        /// EWMA baseline before this epoch (‰).
        ewma_pm: u64,
    },
    /// Stale-version rejections crossed the threshold share.
    StaleSurge {
        /// Epoch the surge onset was detected in.
        epoch: usize,
        /// Stale share this epoch (‰).
        stale_pm: u64,
    },
    /// No detection progress for the configured number of epochs.
    DetectionStalled {
        /// Epoch the stall horizon was reached in.
        epoch: usize,
        /// Length of the stall streak (epochs).
        stalled_epochs: u64,
    },
}

impl HealthEvent {
    /// The epoch the event fired in.
    pub fn epoch(&self) -> usize {
        match *self {
            HealthEvent::CorruptionSpike { epoch, .. }
            | HealthEvent::RejectionSpike { epoch, .. }
            | HealthEvent::StaleSurge { epoch, .. }
            | HealthEvent::DetectionStalled { epoch, .. } => epoch,
        }
    }

    /// A stable snake_case name, suitable as a metric label value.
    pub fn name(&self) -> &'static str {
        match self {
            HealthEvent::CorruptionSpike { .. } => "corruption_spike",
            HealthEvent::RejectionSpike { .. } => "rejection_spike",
            HealthEvent::StaleSurge { .. } => "stale_surge",
            HealthEvent::DetectionStalled { .. } => "detection_stalled",
        }
    }
}

impl fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            HealthEvent::CorruptionSpike {
                epoch,
                corrupt_pm,
                ewma_pm,
            } => write!(
                f,
                "epoch {epoch}: corruption spike ({corrupt_pm} pm of committed batches, ewma {ewma_pm} pm)"
            ),
            HealthEvent::RejectionSpike {
                epoch,
                rejected_pm,
                ewma_pm,
            } => write!(
                f,
                "epoch {epoch}: rejection spike ({rejected_pm} pm of delivered batches, ewma {ewma_pm} pm)"
            ),
            HealthEvent::StaleSurge { epoch, stale_pm } => write!(
                f,
                "epoch {epoch}: stale-version surge ({stale_pm} pm of delivered batches)"
            ),
            HealthEvent::DetectionStalled {
                epoch,
                stalled_epochs,
            } => write!(
                f,
                "epoch {epoch}: detection stalled ({stalled_epochs} epochs without progress)"
            ),
        }
    }
}

/// Evaluates the health detectors over a stream of epoch snapshots.
///
/// Feed cumulative snapshots in epoch order via
/// [`observe`](HealthMonitor::observe); the monitor derives per-epoch
/// indicators, updates its EWMA baselines, and returns any events whose
/// onset this epoch triggered.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    config: HealthConfig,
    target_tracked: bool,
    prev: Option<EpochSnapshot>,
    ewma_corrupt_pm: u64,
    ewma_rejected_pm: u64,
    corruption_active: bool,
    rejection_active: bool,
    stale_active: bool,
    stalled_epochs: u64,
    epochs_seen: usize,
    indicators: Vec<EpochIndicators>,
    events: Vec<HealthEvent>,
}

impl HealthMonitor {
    /// A monitor with the given thresholds.  `target_tracked` selects
    /// the stall definition: when true, progress means the tracked
    /// target predicate has been detected (latency known); when false,
    /// progress means the observed-counter or survivor counts moved.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`HealthConfig`].
    pub fn new(config: HealthConfig, target_tracked: bool) -> HealthMonitor {
        config.validate();
        HealthMonitor {
            config,
            target_tracked,
            prev: None,
            ewma_corrupt_pm: 0,
            ewma_rejected_pm: 0,
            corruption_active: false,
            rejection_active: false,
            stale_active: false,
            stalled_epochs: 0,
            epochs_seen: 0,
            indicators: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &HealthConfig {
        &self.config
    }

    /// Folds one epoch snapshot; returns events whose onset fired here.
    pub fn observe(&mut self, snap: &EpochSnapshot) -> Vec<HealthEvent> {
        let ind = self.indicators_for(snap);
        let mut fired = Vec::new();
        let armed = self.epochs_seen >= self.config.warmup_epochs;

        let corrupt_hot = ind.corrupt_pm >= self.config.corruption_spike_pm;
        if armed && corrupt_hot && !self.corruption_active {
            fired.push(HealthEvent::CorruptionSpike {
                epoch: ind.epoch,
                corrupt_pm: ind.corrupt_pm,
                ewma_pm: ind.ewma_corrupt_pm,
            });
        }
        self.corruption_active = armed && corrupt_hot;

        let reject_hot = ind.rejected_pm >= self.config.rejection_spike_pm;
        if armed && reject_hot && !self.rejection_active {
            fired.push(HealthEvent::RejectionSpike {
                epoch: ind.epoch,
                rejected_pm: ind.rejected_pm,
                ewma_pm: ind.ewma_rejected_pm,
            });
        }
        self.rejection_active = armed && reject_hot;

        let stale_hot = ind.stale_pm >= self.config.stale_surge_pm;
        if armed && stale_hot && !self.stale_active {
            fired.push(HealthEvent::StaleSurge {
                epoch: ind.epoch,
                stale_pm: ind.stale_pm,
            });
        }
        self.stale_active = armed && stale_hot;

        // The stall detector fires exactly when the streak reaches the
        // horizon; a longer streak stays silent until progress resets it.
        if armed && ind.stalled_epochs == self.config.stall_epochs {
            fired.push(HealthEvent::DetectionStalled {
                epoch: ind.epoch,
                stalled_epochs: ind.stalled_epochs,
            });
        }

        // Fold this epoch into the baselines after the decision.
        self.ewma_corrupt_pm = ewma(self.ewma_corrupt_pm, ind.corrupt_pm);
        self.ewma_rejected_pm = ewma(self.ewma_rejected_pm, ind.rejected_pm);
        self.epochs_seen += 1;
        self.prev = Some(snap.clone());
        self.indicators.push(ind);
        self.events.extend(fired.iter().copied());
        fired
    }

    /// Folds a whole snapshot sequence; returns all events fired.
    pub fn observe_all(&mut self, snaps: &[EpochSnapshot]) -> Vec<HealthEvent> {
        let mut fired = Vec::new();
        for s in snaps {
            fired.extend(self.observe(s));
        }
        fired
    }

    /// Indicators derived so far, one per observed epoch.
    pub fn indicators(&self) -> &[EpochIndicators] {
        &self.indicators
    }

    /// Every event fired so far, in epoch order.
    pub fn events(&self) -> &[HealthEvent] {
        &self.events
    }

    fn indicators_for(&mut self, snap: &EpochSnapshot) -> EpochIndicators {
        let zero = (0u64, 0u64, 0u64, 0u64, 0u64, 0usize);
        let (p_runs, p_batches, p_rejected, p_corrupt, p_stale, p_survivors) = match &self.prev {
            Some(p) => (
                p.runs,
                p.batches,
                p.rejected_batches,
                p.corrupt_batches,
                p.stale_batches,
                p.survivors,
            ),
            None => zero,
        };
        let runs = snap.runs.saturating_sub(p_runs);
        let accepted = snap.batches.saturating_sub(p_batches);
        let rejected = snap.rejected_batches.saturating_sub(p_rejected);
        let corrupt = snap.corrupt_batches.saturating_sub(p_corrupt);
        let stale = snap.stale_batches.saturating_sub(p_stale);
        let delivered = accepted + rejected;

        let progressed = if self.target_tracked {
            snap.target_latency.is_some()
        } else {
            self.prev.is_none()
                || snap.observed != self.prev.as_ref().map_or(0, |p| p.observed)
                || snap.survivors != p_survivors
        };
        self.stalled_epochs = if progressed {
            0
        } else {
            self.stalled_epochs + 1
        };

        EpochIndicators {
            epoch: snap.epoch,
            runs,
            delivered,
            accepted,
            rejected_pm: per_mille(rejected, delivered),
            corrupt_pm: per_mille(corrupt, accepted),
            stale_pm: per_mille(stale, delivered),
            ewma_corrupt_pm: self.ewma_corrupt_pm,
            ewma_rejected_pm: self.ewma_rejected_pm,
            survivor_churn: snap.survivors.abs_diff(p_survivors) as u64,
            stalled_epochs: self.stalled_epochs,
        }
    }
}

/// Integer EWMA step with round-half-up: `(num·x + (den−num)·ewma +
/// den/2) / den`.
fn ewma(prev: u64, x: u64) -> u64 {
    (EWMA_NUM * x + (EWMA_DEN - EWMA_NUM) * prev + EWMA_DEN / 2) / EWMA_DEN
}

/// Renders the monitor's indicator stream as an aligned, integer-only
/// health table, with events listed beneath.  Byte-identical across
/// `--jobs` whenever the snapshot stream is.
pub fn render_health(monitor: &HealthMonitor) -> String {
    let mut out = String::new();
    out.push_str("health indicators (per epoch, ratios in per-mille):\n");
    out.push_str(
        "  epoch  runs     delivered  accepted  rej_pm  corr_pm  stale_pm  churn  stall\n",
    );
    for i in monitor.indicators() {
        out.push_str(&format!(
            "  {:<5}  {:<7}  {:<9}  {:<8}  {:<6}  {:<7}  {:<8}  {:<5}  {}\n",
            i.epoch,
            i.runs,
            i.delivered,
            i.accepted,
            i.rejected_pm,
            i.corrupt_pm,
            i.stale_pm,
            i.survivor_churn,
            i.stalled_epochs,
        ));
    }
    if monitor.events().is_empty() {
        out.push_str("health events: none\n");
    } else {
        out.push_str(&format!("health events ({}):\n", monitor.events().len()));
        for e in monitor.events() {
            out.push_str(&format!("  {e}\n"));
        }
    }
    out
}

/// Builds an epoch-keyed metric [`Registry`] from an aggregator's
/// snapshots and a monitor's event stream — the single export surface
/// behind both `--prom-out` and `--timeline-out`.
///
/// Counters are cumulative per snapshot; gauges are instantaneous
/// levels sampled at each epoch boundary.  Everything is integer.
pub fn health_registry(agg: &EpochAggregator, monitor: &HealthMonitor) -> Registry {
    let mut reg = Registry::new();
    for snap in agg.snapshots() {
        let epoch = snap.epoch as u64;
        reg.record_counter("cbi_runs_total", &[], epoch, snap.runs);
        reg.record_counter("cbi_failures_total", &[], epoch, snap.failures);
        reg.record_counter(
            "cbi_batches_total",
            &[("outcome", "accepted")],
            epoch,
            snap.batches,
        );
        reg.record_counter(
            "cbi_batches_total",
            &[("outcome", "rejected")],
            epoch,
            snap.rejected_batches,
        );
        reg.record_counter(
            "cbi_batches_corrupt_total",
            &[],
            epoch,
            snap.corrupt_batches,
        );
        reg.record_counter("cbi_batches_stale_total", &[], epoch, snap.stale_batches);
        reg.record_counter("cbi_retries_total", &[], epoch, snap.retries);
        reg.record_counter("cbi_wire_bytes_total", &[], epoch, snap.bytes);
        for (kind, count) in &snap.rejected_by_kind {
            reg.record_counter(
                "cbi_batch_rejections_total",
                &[("kind", kind.name())],
                epoch,
                *count,
            );
        }
        for (cohort, stats) in &snap.cohorts {
            let labels = [("cohort", cohort.as_str())];
            reg.record_counter("cbi_cohort_batches_total", &labels, epoch, stats.batches);
            reg.record_counter("cbi_cohort_bytes_total", &labels, epoch, stats.bytes);
            reg.record_counter("cbi_cohort_corrupt_total", &labels, epoch, stats.corrupt);
            reg.record_counter("cbi_cohort_rejected_total", &labels, epoch, stats.rejected);
            reg.record_counter("cbi_cohort_retries_total", &labels, epoch, stats.retries);
        }
        reg.record_gauge("cbi_survivors", &[], epoch, snap.survivors as i64);
        reg.record_gauge("cbi_observed_counters", &[], epoch, snap.observed as i64);
        if let Some(latency) = snap.target_latency {
            reg.record_gauge("cbi_target_latency_runs", &[], epoch, latency as i64);
        }
        if let Some(rank) = snap.target_rank {
            reg.record_gauge("cbi_target_rank", &[], epoch, rank as i64);
        }
    }
    // Health events as cumulative per-kind counters, stamped at each
    // epoch boundary so the timeline shows when each total moved.
    let kinds = [
        "corruption_spike",
        "rejection_spike",
        "stale_surge",
        "detection_stalled",
    ];
    for snap in agg.snapshots() {
        let epoch = snap.epoch as u64;
        for kind in kinds {
            let upto = monitor
                .events()
                .iter()
                .filter(|e| e.name() == kind && e.epoch() <= snap.epoch)
                .count() as u64;
            reg.record_counter("cbi_health_events_total", &[("kind", kind)], epoch, upto);
        }
    }
    for i in monitor.indicators() {
        let epoch = i.epoch as u64;
        reg.record_gauge("cbi_corrupt_pm", &[], epoch, i.corrupt_pm as i64);
        reg.record_gauge("cbi_rejected_pm", &[], epoch, i.rejected_pm as i64);
        reg.record_gauge("cbi_stale_pm", &[], epoch, i.stale_pm as i64);
        reg.record_gauge("cbi_stalled_epochs", &[], epoch, i.stalled_epochs as i64);
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A cumulative snapshot builder for detector tests.
    fn snap(
        epoch: usize,
        runs: u64,
        batches: u64,
        rejected: u64,
        corrupt: u64,
        stale: u64,
        survivors: usize,
    ) -> EpochSnapshot {
        EpochSnapshot {
            epoch,
            runs,
            failures: 0,
            observed: 1 + epoch, // monotone progress unless frozen by caller
            survivors,
            target_latency: None,
            target_rank: None,
            bytes: batches * 100,
            batches,
            rejected_batches: rejected,
            stale_batches: stale,
            corrupt_batches: corrupt,
            retries: 0,
            rejected_by_kind: BTreeMap::new(),
            cohorts: BTreeMap::new(),
        }
    }

    #[test]
    fn per_mille_rounds_half_up() {
        assert_eq!(per_mille(0, 0), 0);
        assert_eq!(per_mille(1, 2), 500);
        assert_eq!(per_mille(1, 3), 333);
        assert_eq!(per_mille(2, 3), 667);
        assert_eq!(per_mille(5, 5), 1000);
    }

    #[test]
    fn ewma_is_integer_and_converges() {
        let mut v = 0;
        for _ in 0..64 {
            v = ewma(v, 1000);
        }
        assert!(v >= 998, "converges toward the input: {v}");
        assert_eq!(ewma(1000, 1000), 1000, "fixed point");
    }

    #[test]
    fn sustained_corruption_storm_fires_exactly_once() {
        let mut m = HealthMonitor::new(HealthConfig::default(), false);
        // Epoch 0: clean warmup.  Epochs 1..5: 40% of committed batches
        // corrupt, every epoch.  Edge triggering must yield ONE event.
        m.observe(&snap(0, 100, 10, 0, 0, 0, 5));
        for e in 1..=5usize {
            let batches = 10 * (e as u64 + 1);
            m.observe(&snap(
                e,
                100 * (e as u64 + 1),
                batches,
                0,
                batches * 2 / 5,
                0,
                5,
            ));
        }
        let spikes: Vec<&HealthEvent> = m
            .events()
            .iter()
            .filter(|e| matches!(e, HealthEvent::CorruptionSpike { .. }))
            .collect();
        assert_eq!(spikes.len(), 1, "events: {:?}", m.events());
        assert_eq!(spikes[0].epoch(), 1, "onset epoch");
    }

    #[test]
    fn corruption_rearms_after_clearing() {
        let config = HealthConfig {
            warmup_epochs: 0,
            ..HealthConfig::default()
        };
        let mut m = HealthMonitor::new(config, false);
        // Storm (epoch 0), clean (1), storm again (2): two onsets.
        m.observe(&snap(0, 100, 10, 0, 5, 0, 5));
        m.observe(&snap(1, 200, 30, 0, 5, 0, 5)); // 0/20 corrupt this epoch
        m.observe(&snap(2, 300, 40, 0, 10, 0, 5)); // 5/10 corrupt
        let spikes = m
            .events()
            .iter()
            .filter(|e| matches!(e, HealthEvent::CorruptionSpike { .. }))
            .count();
        assert_eq!(spikes, 2, "events: {:?}", m.events());
    }

    #[test]
    fn warmup_suppresses_detectors() {
        let config = HealthConfig {
            warmup_epochs: 10,
            ..HealthConfig::default()
        };
        let mut m = HealthMonitor::new(config, false);
        for e in 0..5usize {
            let b = 10 * (e as u64 + 1);
            m.observe(&snap(e, 100, b, b, b / 2, b / 2, 5));
        }
        assert!(m.events().is_empty(), "events: {:?}", m.events());
        assert_eq!(m.indicators().len(), 5, "indicators still derive");
    }

    #[test]
    fn stale_and_rejection_detectors_fire() {
        let config = HealthConfig {
            warmup_epochs: 0,
            ..HealthConfig::default()
        };
        let mut m = HealthMonitor::new(config, false);
        // 10 delivered: 4 rejected, 3 of them stale.
        let fired = m.observe(&snap(0, 100, 6, 4, 0, 3, 5));
        assert!(
            fired.iter().any(|e| matches!(
                e,
                HealthEvent::RejectionSpike {
                    rejected_pm: 400,
                    ..
                }
            )),
            "{fired:?}"
        );
        assert!(
            fired
                .iter()
                .any(|e| matches!(e, HealthEvent::StaleSurge { stale_pm: 300, .. })),
            "{fired:?}"
        );
    }

    #[test]
    fn detection_stall_fires_once_at_horizon() {
        let config = HealthConfig {
            warmup_epochs: 0,
            stall_epochs: 3,
            ..HealthConfig::default()
        };
        // Target tracked but never detected: every epoch is stalled.
        let mut m = HealthMonitor::new(config, true);
        for e in 0..6usize {
            m.observe(&snap(e, 100 * (e as u64 + 1), 10, 0, 0, 0, 5));
        }
        let stalls: Vec<&HealthEvent> = m
            .events()
            .iter()
            .filter(|e| matches!(e, HealthEvent::DetectionStalled { .. }))
            .collect();
        assert_eq!(stalls.len(), 1, "{:?}", m.events());
        assert_eq!(stalls[0].epoch(), 2, "streak 3 reached at epoch 2");
    }

    #[test]
    fn stall_resets_on_detection() {
        let config = HealthConfig {
            warmup_epochs: 0,
            stall_epochs: 3,
            ..HealthConfig::default()
        };
        let mut m = HealthMonitor::new(config, true);
        for e in 0..2usize {
            m.observe(&snap(e, 100, 10, 0, 0, 0, 5));
        }
        let mut detected = snap(2, 300, 10, 0, 0, 0, 5);
        detected.target_latency = Some(250);
        m.observe(&detected);
        assert!(m.events().is_empty(), "{:?}", m.events());
        assert_eq!(m.indicators()[2].stalled_epochs, 0);
    }

    #[test]
    fn events_render_integer_only() {
        let events = [
            HealthEvent::CorruptionSpike {
                epoch: 3,
                corrupt_pm: 417,
                ewma_pm: 36,
            },
            HealthEvent::RejectionSpike {
                epoch: 4,
                rejected_pm: 350,
                ewma_pm: 100,
            },
            HealthEvent::StaleSurge {
                epoch: 5,
                stale_pm: 280,
            },
            HealthEvent::DetectionStalled {
                epoch: 9,
                stalled_epochs: 3,
            },
        ];
        for e in events {
            let text = e.to_string();
            assert!(!text.contains('.'), "{text}");
            assert!(text.starts_with(&format!("epoch {}", e.epoch())), "{text}");
        }
    }

    #[test]
    fn render_health_is_integer_only() {
        let mut m = HealthMonitor::new(HealthConfig::default(), false);
        m.observe(&snap(0, 100, 10, 3, 1, 1, 5));
        m.observe(&snap(1, 200, 15, 9, 4, 4, 7));
        let text = render_health(&m);
        assert!(text.contains("health indicators"), "{text}");
        assert!(text.contains("health events"), "{text}");
        assert!(!text.contains('.'), "{text}");
    }
}
