//! Seeded differential fuzzing of the bytecode dispatch engine against
//! the slot-resolved walker: over random generated programs, every
//! scheme, and a density sweep, the two engines must produce bit-equal
//! [`cbi_vm::RunResult`]s — outcome, op count, counters, output, trace.
//!
//! Trap behaviour is fuzzed separately with handwritten programs that
//! crash in every category (the generator only emits clean programs).

use cbi::instrument::SiteKind;
use cbi::minic::Span;
use cbi::prelude::*;
use cbi_testgen::program_for_seed;

const CASES: u64 = 48;

fn run_both(
    label: &str,
    program: &Program,
    sites: Option<&SiteTable>,
    density: Option<(u64, u64)>,
    input: &[i64],
) -> cbi_vm::RunResult {
    let slots = cbi::minic::lower(program);
    let bytecode = cbi_vm::bytecode::compile(&slots);

    let mut slot_vm = Vm::from_slots(&slots);
    let mut bc_vm = Vm::from_bytecode(&bytecode);
    for vm in [&mut slot_vm, &mut bc_vm] {
        vm.with_input(input.to_vec()).with_trace(16);
        if let Some(t) = sites {
            vm.with_sites(t);
        }
        if let Some((d, seed)) = density {
            vm.with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(d), seed)));
        }
    }

    let s = slot_vm.run().expect("slot vm config");
    let b = bc_vm.run().expect("bytecode vm config");
    assert_eq!(s, b, "{label}: bytecode engine diverged from slot engine");
    s
}

#[test]
fn generated_programs_agree_across_schemes_and_densities() {
    for seed in 0..CASES {
        let p = program_for_seed(seed);
        run_both(&format!("seed {seed} plain"), &p, None, None, &[]);
        for scheme in [
            Scheme::Checks,
            Scheme::Returns,
            Scheme::ScalarPairs,
            Scheme::Branches,
        ] {
            let inst = instrument(&p, scheme).expect("instrument");
            run_both(
                &format!("seed {seed} {scheme} unconditional"),
                &inst.program,
                Some(&inst.sites),
                None,
                &[],
            );
            let (sampled, _) =
                apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
            for density in [1u64, 7, 100] {
                run_both(
                    &format!("seed {seed} {scheme} 1/{density}"),
                    &sampled,
                    Some(&inst.sites),
                    Some((density, seed)),
                    &[],
                );
            }
        }
    }
}

#[test]
fn trap_programs_agree() {
    // One program per crash category, plus type errors that only dynamic
    // (unresolved) programs can reach.  Both engines must produce the
    // same outcome, op count, and partial output.
    let cases: &[(&str, &str)] = &[
        ("null_deref", "fn main() -> int { ptr p = null; return p[0]; }"),
        ("div_zero", "fn main() -> int { int a = read(); return 10 / (a - a); }"),
        ("mod_zero", "fn main() -> int { return 3 % 0; }"),
        (
            "oob_store",
            "fn main() -> int { ptr p = alloc(2); p[57] = 1; free(p); return 0; }",
        ),
        (
            "use_after_free",
            "fn main() -> int { ptr p = alloc(4); free(p); return p[0]; }",
        ),
        (
            "double_free",
            "fn main() -> int { ptr p = alloc(4); free(p); free(p); return 0; }",
        ),
        (
            "index_non_pointer",
            "fn main() -> int { int a = 4; print(1); return a[0]; }",
        ),
        (
            "store_non_pointer",
            "fn main() -> int { int a = 4; a[1] = 2; return 0; }",
        ),
        (
            "ptr_arith_mismatch",
            "fn main() -> int { ptr p = alloc(2); ptr q = alloc(2); int d = p - q; free(p); free(q); return d; }",
        ),
        (
            "compare_ptr_int",
            "fn main() -> int { ptr p = alloc(1); if (p < 3) { print(1); } free(p); return 0; }",
        ),
        (
            "exit_mid_loop",
            "fn main() -> int { int i = 0; while (1) { i = i + 1; if (i > 3) { exit(42); } } return 0; }",
        ),
        (
            "explicit_exit_code",
            "fn main() -> int { print(9); exit(7); return 0; }",
        ),
        (
            "free_non_pointer",
            "fn main() -> int { free(12); return 0; }",
        ),
        (
            "len_null",
            "fn main() -> int { return len(null); }",
        ),
        (
            "logical_non_int",
            "fn main() -> int { ptr p = alloc(1); if (p && 1) { print(1); } free(p); return 0; }",
        ),
        (
            "unary_non_int",
            "fn main() -> int { return -null; }",
        ),
        (
            "deferred_obs_arg_error",
            // `__cmp` evaluates every argument and reports the first
            // error afterwards: the print side effect must land even
            // though the middle argument crashed.
            "fn boom() -> int { return 1 / 0; } fn main() -> int { __cmp(0, boom(), print(5)); return 0; }",
        ),
        (
            "deferred_obs_both_error",
            "fn main() -> int { ptr p = null; __cmp(0, p[0], p[1]); return 0; }",
        ),
        (
            "obs_sign_arg_error",
            "fn main() -> int { __obs_sign(0, 1 / 0); print(3); return 0; }",
        ),
    ];
    for (name, src) in cases {
        let program = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        run_both(name, &program, None, None, &[3, 1]);
    }

    // Traps inside observations that compile to one fused op (or to a
    // fused head and tail around a computed index): each as a site
    // statement, unconditional and behind its sample gate, and each again
    // as the argument of an outer `__cmp` whose deferred capture catches
    // the trap, lets `print(7)` run, and raises it afterwards.
    let bounds =
        |p: &str, i: &str| format!("__check(0, {p} != null && {i} >= 0 && {i} < len({p}))");
    let observed: &[(&str, &str, String)] = &[
        ("sign_unbound_value", "", "__obs_sign(0, x)".into()),
        ("cmp_unbound_value", "int a = 1;", "__cmp(0, a, x)".into()),
        (
            "sign_computed_value_traps",
            "int z = 0;",
            "__obs_sign(0, 4 / z)".into(),
        ),
        (
            "cmp_pointer_with_int",
            "ptr p = alloc(1);",
            "__cmp(0, p, 3)".into(),
        ),
        ("bounds_null", "ptr p = null;", bounds("p", "1")),
        (
            "bounds_freed",
            "ptr p = alloc(2); free(p);",
            bounds("p", "1"),
        ),
        (
            "bounds_negative",
            "ptr p = alloc(2); int i = -1;",
            bounds("p", "i"),
        ),
        (
            "bounds_past_end",
            "ptr p = alloc(2); int i = 2;",
            bounds("p", "i"),
        ),
        ("bounds_non_pointer", "int p = 5;", bounds("p", "0")),
        (
            "bounds_pointer_index",
            "ptr p = alloc(2); ptr q = p;",
            bounds("p", "q"),
        ),
        (
            "bounds_unbound_index",
            "ptr p = alloc(2);",
            bounds("p", "x"),
        ),
        (
            "bounds_computed_past_end",
            "ptr p = alloc(2); int i = 1;",
            bounds("p", "i * 2 + 1"),
        ),
        (
            "bounds_computed_traps",
            "ptr p = alloc(2); int z = 0;",
            bounds("p", "4 / z"),
        ),
        (
            "bounds_null_skips_computed_index",
            "ptr p = null; int z = 0;",
            bounds("p", "4 / z"),
        ),
        (
            "bounds_freed_computed",
            "ptr p = alloc(3); free(p); int i = 1;",
            bounds("p", "i + 1"),
        ),
        // A computed site id keeps the deferred-error bracket.
        (
            "computed_site_pointer",
            "ptr s = alloc(1);",
            "__cmp(s, 1, 2)".into(),
        ),
        (
            "computed_site_unknown",
            "int s = 5;",
            "__obs_sign(s, 1)".into(),
        ),
        (
            "computed_site_check_traps",
            "int s = 1; int z = 0;",
            "__check(s, 4 / z)".into(),
        ),
    ];
    let sites = site_table(&[SiteKind::ScalarPair, SiteKind::ScalarPair]);
    for (name, prelude, obs) in observed {
        for (shape, body) in [
            ("site", format!("{obs};")),
            ("nested", format!("__cmp(1, {obs}, print(7));")),
        ] {
            let src = format!("fn main() -> int {{ {prelude} {body} int x = 1; return x; }}");
            let program = parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let label = format!("{name} {shape}");
            let r = run_both(&label, &program, Some(&sites), None, &[]);
            assert!(!r.outcome.is_success(), "{label}: {:?}", r.outcome);
            if shape == "nested" {
                assert_eq!(r.output, [7], "{label}: the deferred argument ran");
            }
            for density in [1u64, 2] {
                run_both(
                    &format!("{label} 1/{density}"),
                    &sampled(&src),
                    Some(&sites),
                    Some((density, 3)),
                    &[],
                );
            }
        }
    }
}

#[test]
fn stack_overflow_agrees() {
    // Depth-limited rather than default: the debug-build walker eats
    // far more Rust stack per MiniC frame than the test thread has at
    // the 256-frame default, while the bytecode engine never recurses.
    let src = "fn f(int n) -> int { return f(n + 1); } fn main() -> int { return f(0); }";
    let program = parse(src).expect("parse");
    let slots = cbi::minic::lower(&program);
    let bytecode = cbi_vm::bytecode::compile(&slots);
    for depth in [1usize, 2, 64] {
        let s = Vm::from_slots(&slots)
            .with_max_depth(depth)
            .run()
            .expect("vm config");
        let b = Vm::from_bytecode(&bytecode)
            .with_max_depth(depth)
            .run()
            .expect("vm config");
        assert_eq!(s, b, "depth {depth}");
        assert!(
            matches!(
                s.outcome,
                RunOutcome::Crash(cbi_vm::CrashKind::StackOverflow)
            ),
            "depth {depth}: {:?}",
            s.outcome
        );
    }
}

#[test]
fn op_limit_aborts_agree_on_outcome() {
    // Charge fusion may alter the exact op count of a run that dies at
    // the limit (the fused charge lands at once where the walker trickles
    // it), but the outcome and everything the pipeline consumes must
    // match.
    let src = "fn main() -> int { int i = 0; while (1) { i = i + 1; } return 0; }";
    let program = parse(src).expect("parse");
    let slots = cbi::minic::lower(&program);
    let bytecode = cbi_vm::bytecode::compile(&slots);
    for limit in [10u64, 1_000, 54_321] {
        let s = Vm::from_slots(&slots)
            .with_op_limit(limit)
            .run()
            .expect("vm config");
        let b = Vm::from_bytecode(&bytecode)
            .with_op_limit(limit)
            .run()
            .expect("vm config");
        assert_eq!(s.outcome, b.outcome, "limit {limit}");
        assert_eq!(s.counters, b.counters, "limit {limit}");
        assert_eq!(s.output, b.output, "limit {limit}");
    }

    // Instrumented programs under every scheme, unconditional and sampled
    // at 1/1 and 1/3: each limit stops the run at another op, inside the
    // fused observations, their sample gates and refills alike.
    use cbi::workloads::{ccrypt_trials, CcryptTrialConfig, BENCHMARK_SOURCES, CCRYPT_SOURCE};
    let analogue = |name: &str| {
        BENCHMARK_SOURCES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| *s)
            .expect("analogue")
    };
    let ccrypt_input = ccrypt_trials(1, 42, &CcryptTrialConfig::default()).remove(0);
    let programs = [
        ("ccrypt", CCRYPT_SOURCE, ccrypt_input),
        ("treeadd", analogue("treeadd"), Vec::new()),
        ("mst", analogue("mst"), Vec::new()),
    ];
    for (name, src, input) in &programs {
        let program = parse(src).expect("parse");
        for scheme in [
            Scheme::Checks,
            Scheme::Returns,
            Scheme::ScalarPairs,
            Scheme::Branches,
        ] {
            let inst = instrument(&program, scheme).expect("instrument");
            let (sampled, _) =
                apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
            for (build, density) in [
                (&inst.program, None),
                (&sampled, Some(1)),
                (&sampled, Some(3)),
            ] {
                let slots = cbi::minic::lower(build);
                let bytecode = cbi_vm::bytecode::compile(&slots);
                let run = |limit: u64, oracle: bool| {
                    let mut vm = if oracle {
                        Vm::from_slots(&slots)
                    } else {
                        Vm::from_bytecode(&bytecode)
                    };
                    vm.with_sites(&inst.sites)
                        .with_input(input.clone())
                        .with_trace(16)
                        .with_op_limit(limit);
                    if let Some(d) = density {
                        vm.with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(d), 5)));
                    }
                    vm.run().expect("vm config")
                };
                let label = format!("{name} {scheme} {density:?}");
                assert_eq!(run(u64::MAX, true), run(u64::MAX, false), "{label}");
                let mut observed = false;
                for limit in 1..=1_500 {
                    let (s, b) = (run(limit, true), run(limit, false));
                    assert_eq!(
                        (&s.outcome, &s.counters, &s.output, &s.trace),
                        (&b.outcome, &b.counters, &b.output, &b.trace),
                        "{label} limit {limit}"
                    );
                    observed |= s.counters.iter().any(|&c| c > 0);
                }
                // The sweep reaches observations, not only set-up code.
                assert!(observed || density == Some(3), "{label}: nothing observed");
            }
        }
    }
}

#[test]
fn dynamic_name_semantics_agree() {
    // Unchecked programs lean on dynamic lookup: use-before-declaration,
    // locals shadowing globals only after their declaration executes,
    // undefined variables and functions.  `resolve` would reject these;
    // the engines must trap (or not) identically.
    let cases: &[(&str, &str)] = &[
        (
            "use_before_decl",
            "fn main() -> int { print(x); int x = 3; return 0; }",
        ),
        (
            "shadow_after_decl",
            "int g = 10; fn main() -> int { print(g); int g = 1; print(g); return 0; }",
        ),
        (
            "assign_before_decl",
            "fn main() -> int { x = 5; int x = 1; return 0; }",
        ),
        (
            "undefined_function",
            "fn main() -> int { print(1); return nope(3); }",
        ),
        (
            "undefined_global_write",
            "int g = 1; fn main() -> int { h = 2; return 0; }",
        ),
        (
            "arity_mismatch_extra",
            "fn f(int a) -> int { return a; } fn main() -> int { return f(1, 2, 3); }",
        ),
        (
            "arity_mismatch_missing",
            "fn f(int a, int b) -> int { return b; } fn main() -> int { return f(1); }",
        ),
    ];
    for (name, src) in cases {
        let program = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        run_both(name, &program, None, None, &[]);
    }
}

// ---- the countdown registers' edges -------------------------------------
//
// The bytecode engine keeps `__cd`/`__gcd` in two registers of its
// dispatch loop, saved per call frame; the oracle keeps them in a frame
// slot and a global.  These programs carry handwritten observation sites
// so that sampling puts countdown imports, gates, decrements, refills and
// exports next to every way a frame can go: a deferred-error rewind, the
// op limit, and a stack overflow.

/// A site table for handwritten sites: site `i` has kind `kinds[i]`.
fn site_table(kinds: &[SiteKind]) -> SiteTable {
    let mut table = SiteTable::new();
    for (i, kind) in kinds.iter().enumerate() {
        table.add(
            "handwritten",
            Span::synthesized(),
            *kind,
            format!("site {i}"),
        );
    }
    table
}

/// Parses and sampling-transforms `src` under the default options.
fn sampled(src: &str) -> Program {
    sampled_with(src, &TransformOptions::default())
}

/// Parses and sampling-transforms `src` under `options`.
fn sampled_with(src: &str, options: &TransformOptions) -> Program {
    let program = parse(src).expect("parse");
    apply_sampling(&program, options).expect("transform").0
}

#[test]
fn deferred_error_in_a_weighted_callee_agrees() {
    // `boom` and `mid` carry sites, so each imports the countdown on
    // entry.  Whenever `mid`'s `__cmp` site is sampled, `boom` divides by
    // zero with its frame live, and `mid`'s deferred argument list
    // captures the error: a rewind past a frame holding a saved
    // countdown.  When `main`'s `__cmp` site was sampled too, `main`'s
    // own deferred list captures `mid`'s re-raised error: a second rewind.
    let src = "fn boom(int x) -> int { __obs_sign(2, x); int z = x - x; return x / z; }\n\
        fn mid(int x) -> int { __cmp(0, boom(x), print(x)); __check(1, x >= 0); return x; }\n\
        fn main() -> int {\n\
            int i = 0;\n\
            while (i < 1000) { __check(1, i >= 0); __cmp(3, mid(i), i); int r = mid(i); i = i + 1; }\n\
            return 0;\n\
        }";
    let program = sampled(src);
    let sites = site_table(&[
        SiteKind::ScalarPair,
        SiteKind::Assert,
        SiteKind::ReturnSign,
        SiteKind::ScalarPair,
    ]);
    for density in [1u64, 2, 100] {
        for seed in 0..4 {
            let label = format!("deferred callee error 1/{density} seed {seed}");
            let r = run_both(&label, &program, Some(&sites), Some((density, seed)), &[]);
            // The error surfaced only after the argument behind it ran.
            assert_eq!(
                r.outcome,
                RunOutcome::Crash(cbi_vm::CrashKind::DivideByZero),
                "{label}"
            );
            assert!(!r.output.is_empty(), "{label}");
        }
    }
}

#[test]
fn weighted_calls_inside_expressions_agree() {
    // `instrument` hoists calls into statements of their own, which the
    // transformation brackets with a countdown export and import; calls
    // left inside a condition or an operand are not bracketed.  There the
    // callee imports the global countdown and exports its own on return,
    // while the caller's `__cd` must come back unchanged: the frame's
    // saved register.
    let src = "fn g(int x) -> int { __check(0, x >= 0); __obs_sign(1, x - 5); return x % 7; }\n\
        fn main() -> int {\n\
            int i = 0; int s = 0;\n\
            while (g(i) < 6) {\n\
                __check(0, i >= 0);\n\
                if (g(i + 1) > 2) { s = s + g(i) * 2; __obs_sign(1, s); }\n\
                i = i + 1;\n\
                if (i > 200) { return s; }\n\
            }\n\
            print(s);\n\
            return i;\n\
        }";
    let program = sampled(src);
    let sites = site_table(&[SiteKind::Assert, SiteKind::ReturnSign]);
    for density in [1u64, 2, 100] {
        for seed in 0..4 {
            run_both(
                &format!("unbracketed weighted calls 1/{density} seed {seed}"),
                &program,
                Some(&sites),
                Some((density, seed)),
                &[],
            );
        }
    }
}

/// A small sampled recursive program: every call imports the countdown,
/// exports it around the recursive call and before each return.
const SAMPLED_RECURSION: &str = "fn f(int n) -> int {\n\
        __check(0, n >= 0);\n\
        if (n < 1) { return 0; }\n\
        int r = f(n - 1);\n\
        __obs_sign(1, r - n);\n\
        return r + n;\n\
    }\n\
    fn main() -> int { __check(0, 1 > 0); print(f(5)); return 0; }";

#[test]
fn op_limit_sweep_through_countdown_ops_agrees() {
    // Every limit from 1 to the full run traps at a different op, so the
    // sweep stops the run inside imports, gates, decrements, refills and
    // exports alike.  A limit trap leaves the op count past the limit by
    // the trapping charge, which charge fusion may have folded (see
    // `op_limit_aborts_agree_on_outcome`); everything else must agree.
    // The three builds cover every sampling statement on both registers:
    // the default one (import, re-import, export, threshold, coalesced
    // decrement, guard on the local countdown), the global countdown's
    // (threshold, decrement and guard on `gcd`), and the devolved
    // pattern (a guard at each site, no threshold).
    let d = TransformOptions::default();
    for options in [
        d,
        TransformOptions {
            countdown: cbi::minic::Countdown::Global,
            ..d
        },
        TransformOptions {
            regions: false,
            ..d
        },
    ] {
        op_limit_sweep_agrees(
            &sampled_with(SAMPLED_RECURSION, &options),
            &format!("{options:?}"),
        );
    }
}

fn op_limit_sweep_agrees(program: &Program, build: &str) {
    let sites = site_table(&[SiteKind::Assert, SiteKind::ReturnSign]);
    let slots = cbi::minic::lower(program);
    let bytecode = cbi_vm::bytecode::compile(&slots);
    for density in [1u64, 2] {
        let run = |limit: u64, oracle: bool| {
            let mut engine = if oracle {
                Vm::from_slots(&slots)
            } else {
                Vm::from_bytecode(&bytecode)
            };
            engine
                .with_sites(&sites)
                .with_trace(16)
                .with_op_limit(limit)
                .with_sampling(Box::new(Geometric::new(
                    SamplingDensity::one_in(density),
                    9,
                )))
                .run()
                .expect("vm config")
        };
        let full = run(u64::MAX, true);
        assert!(full.outcome.is_success(), "{build}: {:?}", full.outcome);
        for limit in 1..=full.ops {
            let s = run(limit, true);
            let b = run(limit, false);
            if s.outcome == RunOutcome::OpLimit {
                assert!(
                    b.ops > limit,
                    "{build} 1/{density} limit {limit}: {}",
                    b.ops
                );
                assert_eq!(
                    (&s.outcome, &s.counters, &s.output, &s.trace),
                    (&b.outcome, &b.counters, &b.output, &b.trace),
                    "{build} 1/{density} limit {limit}"
                );
            } else {
                assert_eq!(s, b, "{build} 1/{density} limit {limit}");
            }
        }
    }
}

#[test]
fn reparsed_sampled_source_agrees() {
    // Printed and parsed again, the transformed program's countdown
    // statements read back as sampling statements, whose `__cd` slot and
    // seeded `__gcd` global the oracle runs as the engine runs its
    // registers.
    let reparsed = parse(&pretty(&sampled(SAMPLED_RECURSION))).expect("reparse");
    let sites = site_table(&[SiteKind::Assert, SiteKind::ReturnSign]);
    for density in [1u64, 2, 5] {
        run_both(
            &format!("re-parsed source 1/{density}"),
            &reparsed,
            Some(&sites),
            Some((density, 3)),
            &[],
        );
    }
}

#[test]
fn stack_overflow_in_a_sampled_recursion_agrees() {
    let src = "fn f(int n) -> int { __check(0, n >= 0); __obs_sign(1, n); return f(n + 1); }\n\
        fn main() -> int { return f(0); }";
    let program = sampled(src);
    let sites = site_table(&[SiteKind::Assert, SiteKind::ReturnSign]);
    let slots = cbi::minic::lower(&program);
    let bytecode = cbi_vm::bytecode::compile(&slots);
    for density in [1u64, 2, 100] {
        // Depth-limited for the debug-build walker, as above.
        for depth in [1usize, 2, 64] {
            let run = |oracle: bool| {
                let mut engine = if oracle {
                    Vm::from_slots(&slots)
                } else {
                    Vm::from_bytecode(&bytecode)
                };
                engine
                    .with_sites(&sites)
                    .with_trace(16)
                    .with_max_depth(depth)
                    .with_sampling(Box::new(Geometric::new(
                        SamplingDensity::one_in(density),
                        4,
                    )))
                    .run()
                    .expect("vm config")
            };
            let s = run(true);
            let b = run(false);
            assert_eq!(s, b, "1/{density} depth {depth}");
            assert!(
                matches!(
                    s.outcome,
                    RunOutcome::Crash(cbi_vm::CrashKind::StackOverflow)
                ),
                "1/{density} depth {depth}: {:?}",
                s.outcome
            );
        }
    }
}
