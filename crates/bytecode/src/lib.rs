//! Bytecode layer for MiniC: flat instructions for the dispatch VM.
//!
//! The tree walker in `cbi-vm` pays a child-pointer chase and a
//! `Result` frame per AST node.  This crate compiles the slot-resolved
//! form ([`cbi_minic::slots::SlotProgram`]) down to a single flat
//! instruction vector — loads and stores by dense slot index, resolved
//! jump targets, explicit call frames — that a `loop { match op }`
//! engine can dispatch without recursion.
//!
//! The compiler preserves the walker's observable semantics *exactly*:
//! every op-cost charge, trap message, counter bump, and trace entry
//! happens in the same order with the same value, so the bytecode engine
//! is byte-identical to the slot walker on every completed run (the
//! contract `tests/engine_reference_gate.rs` pins).  Two things make the
//! compiled form faster rather than merely flatter:
//!
//! * **Charge fusion** — adjacent cost charges with no trap point or jump
//!   target between them fold into one [`Op::Charge`]/[`Op::Stmt`], so a
//!   statement head and its first expression node cost one add, not two
//!   dispatches.
//! * **Fused countdown ops** — the five statement shapes the sampling
//!   transformation synthesizes on every region boundary (`int __cd =
//!   __gcd`, `cd = cd - k`, `cd = __gcd` / `__gcd = cd`, `cd =
//!   __next_cd()`, `if (cd > w)` / `if (cd == 0)`) each compile to one
//!   [`Op`] carrying a [`CdSpec`], so the instrumented fast path between
//!   region boundaries is straight-line: one threshold branch, one fused
//!   decrement, then the user's own code.
//! * **Superinstruction fusion** — a peephole pass over the patched code
//!   collapses the dominant op sequences into single instructions: a
//!   whole `x = a <op> b;` statement (statement head, charges, two
//!   loads, the operator, the store) becomes one [`Op::FusedBin`], a
//!   loop condition becomes one [`Op::FusedBr`], and an array-index
//!   prologue (pointer check, charge, index load, integer check) becomes
//!   one [`Op::FusedIdx`].  Fused specs keep every charge at its
//!   original position and fetch operands in source order, so trap order
//!   and cost accounting are bit-identical to the unfused sequence; the
//!   pass never fuses across a jump target.
//!
//! The instrumentation schemes' fast/slow dual paths (cloned at the AST
//! level by `cbi-instrument`) therefore become dual bytecode *blocks*:
//! the fast block has its observation sites stripped and decrements
//! coalesced (one `CdUpdate` per basic block), the slow block keeps the
//! sites live, and a single [`Op::CdBranch`] threshold test selects
//! between them.
//!
//! A [`disasm`] module renders the deterministic listing used by the
//! `cbi disasm` subcommand and its golden-file tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
pub mod disasm;
mod instr;

pub use compile::compile;
pub use disasm::disassemble;
pub use instr::{
    BcFunction, BcProgram, BcRef, BinSpec, BrSpec, CallSpec, CdSpec, Costs, Dest, GateSpec,
    IdxSpec, LdSpec, MvSpec, Op, Operand, RetSpec, StSpec,
};
