//! What `cbi_minic::lower` must preserve on programs the static resolver
//! would reject, stated as literal run results.
//!
//! MiniC name lookup is dynamic: frame first, then globals, and a miss
//! traps.  Both interpreters consume `lower`'s output, so comparing them
//! with each other (`tests/engine_reference_gate.rs`,
//! `tests/bytecode_differential.rs`) cannot see a wrong resolution in
//! `lower` itself.  The expectations below were recorded from the
//! name-keyed (`HashMap` frame) tree walker that evaluated the AST
//! directly, before it was deleted; op counts included, so a changed
//! charge shows too.

use cbi_minic::lower;
use cbi_vm::bytecode::compile;
use cbi_vm::{CrashKind, RunOutcome, Vm};

fn type_error(message: &str) -> RunOutcome {
    RunOutcome::Crash(CrashKind::TypeError(message.into()))
}

#[test]
fn engines_agree_on_unchecked_name_lookup_edge_cases() {
    let cases: [(&str, RunOutcome, &[i64], u64); 8] = [
        // Use before declaration traps.
        (
            "fn main() -> int { int y = x; int x = 1; return y; }",
            type_error("undefined variable `x`"),
            &[],
            14,
        ),
        // Use before declaration falls back to a same-named global.
        (
            "int x = 7; fn main() -> int { int y = x; int x = 1; return y + x; }",
            RunOutcome::Success(8),
            &[],
            20,
        ),
        // Assignment before declaration writes the global.
        (
            "int x = 1; fn main() -> int { x = 5; int x = 2; return x; }",
            RunOutcome::Success(2),
            &[],
            18,
        ),
        // Entirely undefined names trap on read and write.
        (
            "fn main() -> int { return ghost; }",
            type_error("undefined variable `ghost`"),
            &[],
            14,
        ),
        (
            "fn main() -> int { ghost = 1; return 0; }",
            type_error("assignment to undefined variable `ghost`"),
            &[],
            14,
        ),
        // Undefined callee traps before its arguments are evaluated.
        (
            "fn main() -> int { ghost(1); return 0; }",
            type_error("call to undefined function `ghost`"),
            &[],
            14,
        ),
        // Duplicate functions: later definition wins for calls.
        (
            "fn f() -> int { return 1; } fn f() -> int { return 2; } \
             fn main() -> int { print(f()); return 0; }",
            RunOutcome::Success(0),
            &[2],
            31,
        ),
        // Declaration persists past its block (function-flat frames).
        (
            "fn main() -> int { if (1) { int x = 3; } return x; }",
            RunOutcome::Success(3),
            &[],
            18,
        ),
    ];
    for (i, (src, outcome, output, ops)) in cases.iter().enumerate() {
        let p = cbi_minic::parse(src).unwrap();
        let slots = lower(&p);
        let bytecode = compile(&slots);
        for (engine, r) in [
            ("slot oracle", Vm::from_slots(&slots).run().unwrap()),
            ("bytecode", Vm::from_bytecode(&bytecode).run().unwrap()),
        ] {
            assert_eq!(&r.outcome, outcome, "case {i} on {engine}: {src}");
            assert_eq!(r.output, *output, "case {i} on {engine}: {src}");
            assert_eq!(r.ops, *ops, "case {i} on {engine}: {src}");
            assert!(r.counters.is_empty() && r.trace.is_empty());
        }
    }
}
