//! Fleet acceptance gates: the empirical detection latency of a rare
//! event in a simulated community must agree with the closed-form
//! §3.1.3 confidence bound within a factor of three, denser sampling
//! must detect no later and observe no fewer counters, and
//! stale-version clients must be rejected by the layout-hash
//! handshake and reported — never crashed, never silently dropped.

use cbi_fleet::{run_fleet, FleetSpec};
use cbi_instrument::{instrument, Scheme};
use cbi_stats::{detection_probability, runs_needed};

/// `rare() > 0` fires iff the input is divisible by 12.
const RARE: &str = "fn rare(int v) -> int { if (v % 12 == 0) { return 1; } return 0; }\n\
     fn main() -> int { int v = read(); int hit = rare(v); print(hit); return 0; }";

/// Inputs `i*7 + 1` for `i` in `0..240`: exactly the 20 indices with
/// `i ≡ 5 (mod 12)` trigger the event, so a uniform draw fires it at
/// rate 1/12 — the event rate the closed form is checked against.
fn pool() -> Vec<Vec<i64>> {
    (0..240i64).map(|i| vec![i * 7 + 1]).collect()
}

fn target(sites: &cbi_instrument::SiteTable) -> usize {
    (0..sites.total_counters())
        .find(|&c| sites.predicate_name(c).contains("rare() > 0"))
        .unwrap()
}

#[test]
fn community_latency_matches_the_closed_form_bound() {
    let program = cbi_minic::parse(RARE).unwrap();
    let sites = instrument(&program, Scheme::Returns).unwrap().sites;

    let mut spec = FleetSpec::new(40, 4000);
    spec.densities = vec![(10, 1.0)];
    spec.zipf_exponent = 0.0; // uniform pool: event rate is exactly 1/12
    spec.batch_size = 16;
    spec.epoch_len = 500;
    spec.jobs = 4;
    let report = run_fleet(&program, &pool(), &spec, Some(target(&sites))).unwrap();

    // §3.1.3's model: at event rate 1/12 and density 1/10, this many
    // community runs give 95%-confidence detection.
    let predicted = runs_needed(1.0 / 12.0, 0.1, 0.95) as usize;
    let latency = report
        .summary
        .target_latency
        .expect("4000 community runs must observe a 1-in-12 event at 1/10 sampling");
    assert!(
        latency <= predicted * 3,
        "latency {latency} far exceeds prediction {predicted}"
    );
    // And the closed form is calibrated at the observed latency.
    let p = detection_probability(1.0 / 12.0, 0.1, latency as u64);
    assert!(p > 0.01 && p < 0.9999, "p = {p}");

    // The epoch trajectory must agree with the end-of-stream answer.
    let last = report.epochs.last().unwrap();
    assert_eq!(last.target_latency, Some(latency));
    assert_eq!(last.runs, report.summary.accepted_reports);
}

/// A clean uniform-pool fleet of 40 clients, every one sampling at
/// 1/`density`.
fn fleet_at(density: u64, runs: usize) -> cbi_fleet::FleetSummary {
    let program = cbi_minic::parse(RARE).unwrap();
    let sites = instrument(&program, Scheme::Returns).unwrap().sites;
    let mut spec = FleetSpec::new(40, runs);
    spec.densities = vec![(density, 1.0)];
    spec.jobs = 2;
    run_fleet(&program, &pool(), &spec, Some(target(&sites)))
        .unwrap()
        .summary
}

#[test]
fn denser_sampling_detects_no_later() {
    let dense = fleet_at(2, 2000)
        .target_latency
        .expect("1/2 sampling observes a 1-in-12 event within 2000 runs");
    // Sparse sampling may never see the event at all — even stronger.
    if let Some(sparse) = fleet_at(50, 2000).target_latency {
        assert!(
            dense <= sparse,
            "denser sampling should not be slower: {dense} vs {sparse}"
        );
    }
}

#[test]
fn full_sampling_observes_no_fewer_counters_than_sparse() {
    // Twenty runs: too few for 1/100 sampling to see much, plenty for 1/1.
    let full = fleet_at(1, 20);
    let sparse = fleet_at(100, 20);
    assert_eq!(full.counters, sparse.counters);
    assert!(full.observed_counters > 0);
    assert!(
        full.observed_counters >= sparse.observed_counters,
        "1/1 observed {} counters, 1/100 observed {}",
        full.observed_counters,
        sparse.observed_counters
    );
}

#[test]
fn stale_clients_are_rejected_counted_and_everyone_else_is_served() {
    let program = cbi_minic::parse(RARE).unwrap();
    let sites = instrument(&program, Scheme::Returns).unwrap().sites;

    let mut spec = FleetSpec::new(30, 1200);
    spec.densities = vec![(10, 1.0)];
    spec.stale_fraction = 0.2;
    spec.batch_size = 10;
    spec.epoch_len = 300;
    let report = run_fleet(&program, &pool(), &spec, Some(target(&sites))).unwrap();
    let s = &report.summary;

    // No crash (we got here), no silent drop: every batch is accounted
    // for, and stale rejections surface in both summary and epochs.
    assert!(s.stale_clients > 0, "seeded fraction must draw stale users");
    assert!(s.stale_batches > 0);
    assert_eq!(s.stale_rejections, s.stale_batches);
    assert_eq!(
        s.accepted_batches + s.stale_batches + s.lost_batches,
        s.batches
    );
    assert_eq!(
        report.epochs.last().unwrap().stale_batches,
        s.stale_rejections
    );

    // Current-version clients still detect the event.
    assert!(s.target_latency.is_some());
    assert!(s.accepted_reports > 0);
    // Stale spool never reaches the analyzer: accepted reports all come
    // from non-stale clients.
    assert!(s.accepted_reports < s.spooled_reports);
}
