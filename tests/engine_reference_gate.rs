//! Engine reference gate: the bytecode dispatch VM must be byte-identical
//! to its oracle, the slot-resolved tree walker, over the whole in-tree
//! corpus — the `examples/` programs plus every workload analogue —
//! across all four observation schemes, both unconditional and sampled,
//! with trace capture on.  Full [`RunResult`] equality: outcome, op
//! count, counter vector, program output, and the bounded observation
//! trace.

use cbi::minic::Countdown;
use cbi::prelude::*;
use cbi::workloads::{BC_SOURCE, BENCHMARK_SOURCES, CCRYPT_SOURCE};

const SCHEMES: [Scheme; 4] = [
    Scheme::Checks,
    Scheme::Returns,
    Scheme::ScalarPairs,
    Scheme::Branches,
];

/// Every MiniC source the repository ships, by name.
fn corpus() -> Vec<(String, String)> {
    let mut sources = Vec::new();
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut entries: Vec<_> = std::fs::read_dir(&examples)
        .expect("examples directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mc"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "examples corpus must not be empty");
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("read example");
        sources.push((name, src));
    }
    for (name, src) in BENCHMARK_SOURCES {
        sources.push((format!("bench/{name}"), (*src).to_string()));
    }
    sources.push(("ccrypt".into(), CCRYPT_SOURCE.to_string()));
    sources.push(("bc".into(), BC_SOURCE.to_string()));
    sources
}

/// Runs `program` on the oracle and on the bytecode engine with
/// identical configuration and asserts full result equality.  Crashes are
/// fine — the two must crash identically.
fn assert_engines_agree(
    label: &str,
    program: &Program,
    sites: &SiteTable,
    density: Option<SamplingDensity>,
    input: &[i64],
) {
    let slots = cbi::minic::lower(program);
    let bytecode = cbi_vm::bytecode::compile(&slots);

    let mut oracle = Vm::from_slots(&slots);
    let mut dispatch = Vm::from_bytecode(&bytecode);
    for vm in [&mut oracle, &mut dispatch] {
        vm.with_sites(sites).with_input(input).with_trace(16);
        if let Some(d) = density {
            vm.with_sampling(Box::new(Geometric::new(d, 0xabc)));
        }
    }

    let o = oracle.run().expect("vm config");
    let b = dispatch.run().expect("vm config");
    assert_eq!(o, b, "{label}: bytecode engine diverged from the oracle");
}

const INPUT: [i64; 10] = [5, 3, 7, 2, 9, 1, 4, 8, 6, 10];

#[test]
fn engines_match_reference_across_corpus_and_schemes() {
    for (name, src) in corpus() {
        let program = parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for scheme in SCHEMES {
            let inst = instrument(&program, scheme).expect("instrument");
            assert_engines_agree(
                &format!("{name} {scheme:?} unconditional"),
                &inst.program,
                &inst.sites,
                None,
                &INPUT,
            );
            let (transformed, _) =
                apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
            assert_engines_agree(
                &format!("{name} {scheme:?} sampled"),
                &transformed,
                &inst.sites,
                Some(SamplingDensity::one_in(3)),
                &INPUT,
            );
        }
    }
}

#[test]
fn engines_match_across_sampling_density_sweep() {
    // Density shifts which region entries take the slow path, so it
    // exercises different fast/slow block interleavings of the same
    // compiled dual-path bytecode.
    let densities = [1u64, 3, 13, 101, 1009];
    for (name, src) in corpus() {
        let program = parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let inst = instrument(&program, Scheme::Branches).expect("instrument");
        let (transformed, _) =
            apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
        for d in densities {
            assert_engines_agree(
                &format!("{name} density 1/{d}"),
                &transformed,
                &inst.sites,
                Some(SamplingDensity::one_in(d)),
                &INPUT,
            );
        }
    }
}

/// Every [`TransformOptions`]: countdown storage × coalescing ×
/// interprocedural analysis × region weighting.
fn all_transform_options() -> Vec<TransformOptions> {
    let mut all = Vec::new();
    for countdown in [Countdown::Local, Countdown::Global] {
        for coalesce in [true, false] {
            for interprocedural in [true, false] {
                for regions in [true, false] {
                    all.push(TransformOptions {
                        countdown,
                        coalesce,
                        interprocedural,
                        regions,
                    });
                }
            }
        }
    }
    all
}

#[test]
fn engines_match_under_every_transform_option_set() {
    // Each option set synthesizes a different mix of countdown
    // statements — the global countdown, uncoalesced decrements, calls
    // that break regions, devolved per-site checks — and every one must
    // compile to the engine's countdown-register ops (the compiler
    // panics on any other shape) and run as the oracle does.  One
    // scheme keeps the sweep affordable in a debug build: `branches`,
    // which places sites in every function that branches.
    for (name, src) in corpus() {
        let program = parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let inst = instrument(&program, Scheme::Branches).expect("instrument");
        for options in all_transform_options() {
            let (transformed, _) = apply_sampling(&inst.program, &options).expect("transform");
            assert_engines_agree(
                &format!("{name} {options:?}"),
                &transformed,
                &inst.sites,
                Some(SamplingDensity::one_in(3)),
                &INPUT,
            );
        }
    }
}

#[test]
fn engines_agree_on_empty_input() {
    // The no-input path exercises `has_input() == 0` branches (the ccrypt
    // EOF crash among them); both engines must take them identically.
    for (name, src) in corpus() {
        let program = parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let inst = instrument(&program, Scheme::Returns).expect("instrument");
        assert_engines_agree(
            &format!("{name} empty input"),
            &inst.program,
            &inst.sites,
            None,
            &[],
        );
    }
}
