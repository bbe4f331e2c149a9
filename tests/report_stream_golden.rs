//! Golden test for the report streams the in-tree programs produce: for
//! each of the 13 analogues, `ccrypt` and `bc`, under each of the four
//! schemes, the unconditional build and the sampled build at densities
//! 1/1 and 1/3 run a few seeded trials, and every run's label and counter
//! vector, hashed with FNV-1a, must match the checked-in list.  A change
//! to the sampling transformation or to the bytecode compiler that keeps
//! what every run observes leaves this file byte-identical.  Regenerate
//! with `UPDATE_GOLDEN=1 cargo test --test report_stream_golden` only
//! after an intended change to what a scheme observes.

use cbi::prelude::*;
use cbi::workloads::{bc_trials, ccrypt_trials, BcTrialConfig, CcryptTrialConfig};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};

const SCHEMES: [Scheme; 4] = [
    Scheme::Checks,
    Scheme::Returns,
    Scheme::ScalarPairs,
    Scheme::Branches,
];

/// Runs per analogue build: the analogues read no input, so
/// more runs would differ only in the countdowns drawn for them.
const ANALOGUE_TRIALS: usize = 1;

/// Runs per `ccrypt`/`bc` build.
const INPUT_TRIALS: usize = 6;

/// Worker threads the test spreads its campaigns over.
const WORKERS: usize = 2;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
}

/// FNV-1a over the label byte and the counters' little-endian bytes.
fn report_hash(r: &Report) -> u64 {
    let label = match r.label {
        Label::Success => 0u8,
        Label::Failure => 1,
    };
    r.counters
        .iter()
        .fold(fnv1a(0xcbf2_9ce4_8422_2325, &[label]), |h, c| {
            fnv1a(h, &c.to_le_bytes())
        })
}

fn programs() -> Vec<(String, Program, Vec<Vec<i64>>)> {
    let mut out: Vec<(String, Program, Vec<Vec<i64>>)> = cbi::workloads::all_benchmarks()
        .into_iter()
        .map(|b| {
            (
                b.name.to_string(),
                b.program,
                vec![Vec::new(); ANALOGUE_TRIALS],
            )
        })
        .collect();
    out.push((
        "ccrypt".into(),
        cbi::workloads::ccrypt_program(),
        ccrypt_trials(INPUT_TRIALS, 42, &CcryptTrialConfig::default()),
    ));
    out.push((
        "bc".into(),
        cbi::workloads::bc_program(),
        bc_trials(INPUT_TRIALS, 106, &BcTrialConfig::default()),
    ));
    out
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/report_streams.txt")
}

/// The hashed runs of every build of one program under one scheme, one
/// line per build.
fn stream_lines(name: &str, program: &Program, trials: &[Vec<i64>], scheme: Scheme) -> String {
    let builds = [
        ("unconditional", CampaignConfig::unconditional(scheme)),
        (
            "1/1",
            CampaignConfig::sampled(scheme, SamplingDensity::always()),
        ),
        (
            "1/3",
            CampaignConfig::sampled(scheme, SamplingDensity::one_in(3)),
        ),
    ];
    let mut text = String::new();
    for (build, config) in builds {
        let result = run_campaign(program, trials, &config)
            .unwrap_or_else(|e| panic!("{name} {scheme} {build}: {e}"));
        assert_eq!(result.dropped, 0, "{name} {scheme} {build}: dropped runs");
        let _ = write!(text, "{name} {scheme} {build}:");
        for r in result.collector.reports() {
            let _ = write!(text, " {:016x}", report_hash(r));
        }
        text.push('\n');
    }
    text
}

#[test]
fn report_streams_match_golden() {
    let programs = programs();
    let jobs: Vec<(usize, Scheme)> = (0..programs.len())
        .flat_map(|p| SCHEMES.map(|s| (p, s)))
        .collect();
    // Two workers over the (program, scheme) jobs keep a debug build of
    // this test short; the lines are joined in job order.
    let next = AtomicUsize::new(0);
    let mut lines = vec![String::new(); jobs.len()];
    let done: Vec<Vec<(usize, String)>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&(p, scheme)) = jobs.get(j) else {
                            return out;
                        };
                        let (name, program, trials) = &programs[p];
                        out.push((j, stream_lines(name, program, trials, scheme)));
                    }
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for (j, text) in done.into_iter().flatten() {
        lines[j] = text;
    }
    let text = lines.concat();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden ({e}); run with UPDATE_GOLDEN=1"));
    for (got, want) in text.lines().zip(expected.lines()) {
        assert_eq!(got, want, "report stream drifted from its golden");
    }
    assert_eq!(text, expected, "report stream golden has other lines");
}
