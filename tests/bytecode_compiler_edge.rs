//! Compiler edge cases: shapes that stress jump patching, charge fusion,
//! and the dual fast/slow block cloning — empty blocks, dead branches,
//! deeply nested regions, and the forward jumps the sampling
//! transformation's cloned blocks compile into.  Each case must (a)
//! execute identically on the slot walker and the bytecode engine, and
//! (b) compile to structurally valid code: every jump target resolved
//! and inside the owning function's body and, over the in-tree
//! programs, every op reachable from its function's entry.

use cbi::minic::Countdown;
use cbi::prelude::*;
use cbi_vm::bytecode::{BcProgram, Dest, Op};

fn check_jump_targets(label: &str, bc: &BcProgram) {
    for f in &bc.functions {
        for pc in f.entry..f.end {
            let target = match bc.ops[pc as usize] {
                Op::Jump(t)
                | Op::BranchFalse(t)
                | Op::BranchTrue(t)
                | Op::DeferPush(t)
                | Op::DeferNext(t)
                | Op::CdBranch { els: t, .. }
                | Op::ObsEnter { skip: t, .. }
                | Op::FusedBr { target: t, .. }
                | Op::FusedBinJ { target: t, .. }
                | Op::CdGate { els: t, .. } => t,
                _ => continue,
            };
            assert_ne!(target, u32::MAX, "{label}: unpatched jump at {pc}");
            assert!(
                target >= f.entry && target <= f.end,
                "{label}: jump at {pc} escapes fn `{}` ({target} not in {}..={})",
                f.name,
                f.entry,
                f.end
            );
        }
    }
}

fn compile_and_compare(label: &str, src: &str, input: &[i64]) -> BcProgram {
    let program = parse(src).unwrap_or_else(|e| panic!("{label}: {e}"));
    let slots = cbi::minic::lower(&program);
    let bc = cbi_vm::bytecode::compile(&slots);
    check_jump_targets(label, &bc);
    let s = Vm::from_slots(&slots)
        .with_input(input.to_vec())
        .run()
        .expect("slot vm config");
    let b = Vm::from_bytecode(&bc)
        .with_input(input.to_vec())
        .run()
        .expect("bytecode vm config");
    assert_eq!(s, b, "{label}: engines diverged");
    bc
}

#[test]
fn empty_blocks() {
    compile_and_compare(
        "empty function body",
        "fn nop() { } fn main() -> int { nop(); return 0; }",
        &[],
    );
    compile_and_compare(
        "empty if arms",
        "fn main() -> int { if (read()) { } else { } return 0; }",
        &[1],
    );
    compile_and_compare(
        "empty while body",
        "fn main() -> int { while (has_input()) { read(); } while (0) { } return 0; }",
        &[1, 2, 3],
    );
}

#[test]
fn dead_branches() {
    // Constant conditions leave one arm dead; the dead code still
    // compiles (jump targets must resolve through it) but never runs.
    compile_and_compare(
        "dead else",
        "fn main() -> int { if (1) { print(1); } else { print(2); } return 0; }",
        &[],
    );
    compile_and_compare(
        "dead then",
        "fn main() -> int { if (0) { print(1); } else { print(2); } return 0; }",
        &[],
    );
    // A body ending in `continue` needs no back edge after it, nor a
    // then arm ending in `return` a jump past its else arm.
    let label = "dead while with break and continue";
    let bc = compile_and_compare(
        label,
        "fn main() -> int { while (0) { if (read()) { break; } continue; } return 7; }",
        &[],
    );
    check_reachable(label, &bc);
    let label = "then arm returns";
    let bc = compile_and_compare(
        label,
        "fn f(int x) -> int { if (x) { return 1; } else { print(2); } return 0; } \
         fn main() -> int { print(f(read())); return f(read()); }",
        &[1, 0],
    );
    check_reachable(label, &bc);
    compile_and_compare(
        "code after return",
        "fn f() -> int { return 1; print(99); return 2; } fn main() -> int { print(f()); return 0; }",
        &[],
    );
}

#[test]
fn deeply_nested_regions() {
    // Build a 24-deep nest of if/while blocks; every level past the
    // region threshold gets its own countdown import/export pair under
    // sampling, so this stresses nested fast/slow block cloning.
    let mut body = String::from("int acc = 0; int i = 0;");
    for d in 0..24 {
        body.push_str(&format!(
            "if (n > {d}) {{ int v{d} = n - {d}; acc = acc + v{d}; while (i < {d}) {{ i = i + 1; "
        ));
    }
    body.push_str("acc = acc + 1;");
    for _ in 0..24 {
        body.push_str("} }");
    }
    body.push_str("print(acc); return acc;");
    let src =
        format!("fn work(int n) -> int {{ {body} }} fn main() -> int {{ return work(read()); }}");

    let program = parse(&src).expect("nested source parses");
    for scheme in [Scheme::Checks, Scheme::Branches] {
        let inst = instrument(&program, scheme).expect("instrument");
        let (sampled, _) =
            apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
        let slots = cbi::minic::lower(&sampled);
        let bc = cbi_vm::bytecode::compile(&slots);
        check_jump_targets(&format!("nested {scheme}"), &bc);
        for density in [1u64, 5, 500] {
            let mk = |use_bc: bool| {
                let mut vm = if use_bc {
                    Vm::from_bytecode(&bc)
                } else {
                    Vm::from_slots(&slots)
                };
                vm.with_sites(&inst.sites)
                    .with_input(vec![30i64])
                    .with_sampling(Box::new(Geometric::new(
                        SamplingDensity::one_in(density),
                        0xfeed,
                    )));
                vm.run().expect("vm config")
            };
            let s = mk(false);
            let b = mk(true);
            assert_eq!(s, b, "nested {scheme} 1/{density}: engines diverged");
            assert!(s.outcome.is_success(), "nested {scheme}: {:?}", s.outcome);
        }
    }
}

#[test]
fn forward_jumps_across_cloned_blocks() {
    // The sampling transformation clones instrumented regions into a
    // site-stripped fast block and a live slow block behind a threshold
    // test.  Control flow that jumps forward across the clone boundary —
    // break/continue/return from inside an instrumented loop body — must
    // patch to targets inside the selected clone.
    let src = "
        fn scan(ptr data, int n) -> int {
            int hits = 0;
            int i = 0;
            while (i < n) {
                int v = data[i];
                if (v < 0) { i = i + 1; continue; }
                if (v > 90) { break; }
                hits = hits + v;
                i = i + 1;
            }
            return hits;
        }
        fn main() -> int {
            int n = read();
            ptr data = alloc(n);
            int i = 0;
            while (i < n) { data[i] = read(); i = i + 1; }
            print(scan(data, n));
            free(data);
            return 0;
        }";
    let program = parse(src).expect("parse");
    let input = [6i64, 4, -2, 9, 95, 3, 1];
    for scheme in [
        Scheme::Checks,
        Scheme::Returns,
        Scheme::ScalarPairs,
        Scheme::Branches,
    ] {
        let inst = instrument(&program, scheme).expect("instrument");
        let (sampled, _) =
            apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
        let slots = cbi::minic::lower(&sampled);
        let bc = cbi_vm::bytecode::compile(&slots);
        check_jump_targets(&format!("cloned {scheme}"), &bc);
        let s = Vm::from_slots(&slots)
            .with_sites(&inst.sites)
            .with_input(&input[..])
            .with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(2), 1)))
            .run()
            .expect("vm config");
        let b = Vm::from_bytecode(&bc)
            .with_sites(&inst.sites)
            .with_input(&input[..])
            .with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(2), 1)))
            .run()
            .expect("vm config");
        assert_eq!(s, b, "cloned {scheme}: engines diverged");
    }
}

/// The ops control can pass to from `pc`.  A trap point (a heap access,
/// a builtin call, `exit` included) falls through like any other op, so
/// the op after it counts as reachable.
fn successors(bc: &BcProgram, pc: u32) -> Vec<u32> {
    match bc.ops[pc as usize] {
        Op::Jump(t) | Op::FusedBinJ { target: t, .. } => vec![t],
        Op::BranchFalse(t)
        | Op::BranchTrue(t)
        | Op::DeferPush(t)
        | Op::DeferNext(t)
        | Op::CdBranch { els: t, .. }
        | Op::ObsEnter { skip: t, .. }
        | Op::FusedBr { target: t, .. }
        | Op::CdGate { els: t, .. } => vec![pc + 1, t],
        Op::Ret | Op::RetZero | Op::RetNull | Op::FusedRet(_) => vec![],
        Op::FusedBin(s) if bc.bins[s as usize].dst == Dest::Ret => vec![],
        Op::FusedLoad(s) if bc.lds[s as usize].dst == Dest::Ret => vec![],
        _ => vec![pc + 1],
    }
}

/// Every op of every function is reachable from the function's entry:
/// no code follows a `return` or jumps over nothing but itself.
fn check_reachable(label: &str, bc: &BcProgram) {
    for f in &bc.functions {
        let mut seen = vec![false; (f.end - f.entry) as usize];
        let mut work = vec![f.entry];
        while let Some(pc) = work.pop() {
            if pc >= f.end || std::mem::replace(&mut seen[(pc - f.entry) as usize], true) {
                continue;
            }
            work.extend(successors(bc, pc));
        }
        if let Some(dead) = seen.iter().position(|s| !s) {
            let pc = f.entry as usize + dead;
            panic!(
                "{label}: op {pc} of fn `{}` ({:?}) is unreachable",
                f.name, bc.ops[pc]
            );
        }
    }
}

#[test]
fn whole_corpus_compiles_structurally_valid() {
    use cbi::workloads::{BC_SOURCE, BENCHMARK_SOURCES, CCRYPT_SOURCE};
    let mut sources: Vec<(String, String)> = BENCHMARK_SOURCES
        .iter()
        .map(|(n, s)| (n.to_string(), s.to_string()))
        .collect();
    sources.push(("ccrypt".into(), CCRYPT_SOURCE.into()));
    sources.push(("bc".into(), BC_SOURCE.into()));
    for (name, src) in sources {
        let program = parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for scheme in [
            Scheme::Checks,
            Scheme::Returns,
            Scheme::ScalarPairs,
            Scheme::Branches,
        ] {
            let inst = instrument(&program, scheme).expect("instrument");
            let (sampled, _) =
                apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
            let stripped = strip_sites(&inst.program);
            for (build, p) in [
                ("stripped", &stripped),
                ("unconditional", &inst.program),
                ("sampled", &sampled),
            ] {
                let bc = cbi_vm::bytecode::compile(&cbi::minic::lower(p));
                let label = format!("{name} {scheme} {build}");
                check_jump_targets(&label, &bc);
                check_reachable(&label, &bc);
            }
            let bc = cbi_vm::bytecode::compile(&cbi::minic::lower(&sampled));
            // The default local countdown: every test, decrement and
            // refill works on the frame-local register, the sample gates
            // folded into observations included.
            let gates = bc.obs.iter().filter_map(|sp| sp.gate);
            for reg in bc
                .ops
                .iter()
                .filter_map(|op| match op {
                    Op::CdDec { reg, .. } | Op::CdBranch { reg, .. } | Op::CdGate { reg, .. } => {
                        Some(*reg)
                    }
                    _ => None,
                })
                .chain(gates)
            {
                assert_eq!(
                    reg,
                    Countdown::Local,
                    "{name} {scheme}: countdown op on the global register"
                );
            }
        }
    }
}

#[test]
fn literal_site_observations_compile_to_observation_ops() {
    // Every site of the in-tree programs has a literal site id and
    // call-free arguments, so under every scheme each one compiles to
    // observation ops alone: no deferred-error bracket, no free region, no
    // site push or `pop` of its result, and, in the sampled build, no
    // sample gate (`cd_zero` … `cd_refill`) outside the ops.  Sites with
    // fetched operands are one `Obs` each.
    use cbi::workloads::{BC_SOURCE, BENCHMARK_SOURCES, CCRYPT_SOURCE};
    use cbi_vm::bytecode::{disassemble, ObsArgs, Operand};
    let mut sources: Vec<(&str, &str)> = BENCHMARK_SOURCES.to_vec();
    sources.extend([("ccrypt", CCRYPT_SOURCE), ("bc", BC_SOURCE)]);
    assert_eq!(sources.len(), 15);
    for (name, src) in sources {
        let program = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for scheme in [
            Scheme::Checks,
            Scheme::Returns,
            Scheme::ScalarPairs,
            Scheme::Branches,
        ] {
            let inst = instrument(&program, scheme).expect("instrument");
            let (sampled, _) =
                apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
            for (build, gated) in [(&inst.program, false), (&sampled, true)] {
                let label = format!("{name} {scheme} sampled={gated}");
                let bc = cbi_vm::bytecode::compile(&cbi::minic::lower(build));
                let listing = disassemble(&bc);
                for old in [
                    "defer_push",
                    "defer_next",
                    "free_enter",
                    "cd_zero",
                    "cd_refill",
                ] {
                    assert!(!listing.contains(old), "{label}: `{old}` survived");
                }
                let mut seen = vec![false; inst.sites.len()];
                for op in &bc.ops {
                    let (spec, whole) = match *op {
                        Op::Obs(s) => (s, true),
                        Op::ObsEnter { spec, .. } | Op::ObsExit(spec) => (spec, false),
                        _ => continue,
                    };
                    let sp = bc.obs[spec as usize];
                    let Operand::Const(site) = sp.site else {
                        panic!("{label}: a computed site id");
                    };
                    seen[site as usize] = true;
                    assert!(sp.stmt && !sp.defer, "{label}: site {site} {sp:?}");
                    assert_eq!(sp.gate.is_some(), gated, "{label}: site {site} gate");
                    let fetched = match sp.args {
                        ObsArgs::Check(c) => c != Operand::Stack,
                        ObsArgs::Bounds(b) => b.i != Operand::Stack,
                        ObsArgs::Cmp(a, b) => a != Operand::Stack && b != Operand::Stack,
                        ObsArgs::Sign(v) => v != Operand::Stack,
                    };
                    assert_eq!(fetched, whole, "{label}: site {site} {op:?}");
                    if matches!(scheme, Scheme::Returns | Scheme::ScalarPairs) {
                        assert!(whole, "{label}: site {site} is not one op");
                    }
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "{label}: a site compiled to no observation op"
                );
            }
        }
    }
}

#[test]
fn charge_fusion_folds_adjacent_charges() {
    // `return 1 + 2;` walks five charge points (stmt, add, both leaves —
    // and the surrounding statement); fused they collapse into a single
    // Stmt op, so no two charge ops may ever be adjacent.
    let src = "fn main() -> int { return 1 + 2; }";
    let bc = cbi_vm::bytecode::compile(&cbi::minic::lower(&parse(src).expect("parse")));
    let is_charge = |op: &Op| matches!(op, Op::Charge(_) | Op::Stmt(_));
    for w in bc.ops.windows(2) {
        assert!(
            !(is_charge(&w[0]) && is_charge(&w[1])),
            "adjacent charge ops survived fusion: {:?}",
            w
        );
    }
    let main = &bc.functions[bc.main.expect("main") as usize];
    let Op::FusedBin(s) = bc.ops[main.entry as usize] else {
        panic!(
            "statement must fuse into a single superinstruction, got {:?}",
            bc.ops[main.entry as usize]
        );
    };
    let sp = bc.bins[s as usize];
    assert!(sp.stmt, "the fused op carries the statement head");
    // stmt(1) + the add node + its first leaf fold; the second leaf's
    // charge rides between the fused operands.
    assert_eq!(sp.chg_a, 3, "statement head absorbs the leading charges");
    assert_eq!(sp.chg_b, 1, "the right leaf's charge keeps its position");
}
