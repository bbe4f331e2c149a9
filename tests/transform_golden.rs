//! Golden-file test for the sampling transformation's printed form: for
//! every `examples/*.mc` program under each of the four schemes, the
//! pretty-printed output of `apply_sampling` under the default options
//! and under each §3.1.2 ablation must match the checked-in text byte
//! for byte, together with its `program_size` (the AST node count that
//! `code_growth` reports).  Regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test transform_golden` after an
//! intentional change to a scheme or to the transformation.

use cbi::minic::ast::{program_size, Block, Sample, Stmt};
use cbi::minic::Countdown;
use cbi::prelude::*;
use std::fmt::Write as _;

const SCHEMES: [Scheme; 4] = [
    Scheme::Checks,
    Scheme::Returns,
    Scheme::ScalarPairs,
    Scheme::Branches,
];

/// The default transformation and its four ablations, by name.
fn variants() -> [(&'static str, TransformOptions); 5] {
    let d = TransformOptions::default();
    [
        ("default", d),
        (
            "countdown=global",
            TransformOptions {
                countdown: Countdown::Global,
                ..d
            },
        ),
        (
            "regions=false",
            TransformOptions {
                regions: false,
                ..d
            },
        ),
        (
            "coalesce=false",
            TransformOptions {
                coalesce: false,
                ..d
            },
        ),
        (
            "interprocedural=false",
            TransformOptions {
                interprocedural: false,
                ..d
            },
        ),
    ]
}

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/transform")
}

fn examples() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mc"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "examples corpus must not be empty");
    entries
        .into_iter()
        .map(|p| {
            let stem = p.file_stem().unwrap().to_string_lossy().into_owned();
            let src = std::fs::read_to_string(&p).expect("read example");
            (stem, src)
        })
        .collect()
}

fn check(name: &str, text: &str) {
    let path = golden_dir().join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create golden dir");
        std::fs::write(&path, text).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        text, expected,
        "{name}: transformed source drifted from golden file (UPDATE_GOLDEN=1 to regenerate)"
    );
}

#[test]
fn transformed_examples_match_goldens() {
    for (name, src) in examples() {
        let program = parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for scheme in SCHEMES {
            let inst = instrument(&program, scheme).expect("instrument");
            let mut text = String::new();
            for (variant, options) in variants() {
                let (sampled, _) = apply_sampling(&inst.program, &options)
                    .unwrap_or_else(|e| panic!("{name} {scheme} {variant}: {e}"));
                let _ = writeln!(
                    text,
                    "== {variant}: program_size {} ==",
                    program_size(&sampled)
                );
                text.push_str(&pretty(&sampled));
            }
            check(&format!("{name}.{scheme}"), &text);
        }
    }
}

/// Printing a sampled program and parsing it back keeps its node count,
/// so `code_growth` means the same whether it is taken of the
/// transformation's output or of its printed source.
#[test]
fn printed_sampled_programs_reparse_to_the_same_size() {
    let mut programs: Vec<(String, Program)> = cbi::workloads::all_benchmarks()
        .into_iter()
        .map(|b| (b.name.to_string(), b.program))
        .collect();
    programs.push(("ccrypt".into(), cbi::workloads::ccrypt_program()));
    programs.push(("bc".into(), cbi::workloads::bc_program()));
    for (name, program) in &programs {
        for scheme in SCHEMES {
            let inst = instrument(program, scheme).expect("instrument");
            let (sampled, _) =
                apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
            let reparsed = parse(&pretty(&sampled))
                .unwrap_or_else(|e| panic!("{name} {scheme}: printed source does not parse: {e}"));
            assert_eq!(
                program_size(&reparsed),
                program_size(&sampled),
                "{name} {scheme}"
            );
        }
    }
}

/// Whether `s` is, or holds at any depth, a slow-path site guard.
fn has_guard(s: &Stmt) -> bool {
    matches!(s, Stmt::Sample(Sample::Guard { .. }))
        || s.blocks().flat_map(|b| &b.stmts).any(has_guard)
}

/// Checks every threshold check at or below `b`: the slow arm spans
/// exactly the region's sites, from the first site-bearing statement to
/// the last, and the fast arm opens with its decrement.
fn check_thresholds(label: &str, b: &Block, checks: &mut usize) {
    for s in &b.stmts {
        if let Stmt::Sample(Sample::Threshold { fast, slow, .. }) = s {
            *checks += 1;
            let (first, last) = (slow.stmts.first(), slow.stmts.last());
            assert!(
                first.is_some_and(has_guard) && last.is_some_and(has_guard),
                "{label}: slow arm carries a site-free statement at an end:\n{slow:?}"
            );
            // The region's first site is the first statement, so the
            // fast copy opens with its decrement when that site is not
            // inside a conditional.
            if matches!(first, Some(Stmt::Sample(Sample::Guard { .. }))) {
                assert!(
                    matches!(fast.stmts.first(), Some(Stmt::Sample(Sample::Dec { .. }))),
                    "{label}: fast arm does not open with its decrement:\n{fast:?}"
                );
            }
        }
        for inner in s.blocks() {
            check_thresholds(label, inner, checks);
        }
    }
}

/// Under every ablation that keeps regions, each threshold check clones
/// only its region's first through last site-bearing statement.
#[test]
fn threshold_arms_span_only_their_sites() {
    let mut programs: Vec<(String, Program)> = cbi::workloads::all_benchmarks()
        .into_iter()
        .map(|b| (b.name.to_string(), b.program))
        .collect();
    programs.push(("ccrypt".into(), cbi::workloads::ccrypt_program()));
    programs.push(("bc".into(), cbi::workloads::bc_program()));
    for (name, program) in &programs {
        for scheme in SCHEMES {
            let inst = instrument(program, scheme).expect("instrument");
            for (variant, options) in variants().into_iter().filter(|(_, o)| o.regions) {
                let (sampled, stats) = apply_sampling(&inst.program, &options).expect("transform");
                let label = format!("{name} {scheme} {variant}");
                let mut checks = 0;
                for f in &sampled.functions {
                    check_thresholds(&label, &f.body, &mut checks);
                }
                let placed: usize = stats.functions.iter().map(|f| f.threshold_checks).sum();
                assert_eq!(checks, placed, "{label}");
            }
        }
    }
}
