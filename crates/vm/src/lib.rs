//! A deterministic MiniC virtual machine.
//!
//! Executes MiniC programs — plain, unconditionally instrumented, or
//! sampling-transformed — with:
//!
//! * an abstract operation cost model ([`bytecode::Costs`]) standing in for
//!   wall-clock time, so overhead ratios are exactly reproducible;
//! * a heap with *silent corruption* semantics ([`heap::Heap`]): small
//!   overruns land in per-allocation slack and only crash later, when the
//!   allocator trips over the damage — reproducing the non-deterministic
//!   crash behaviour of the paper's `bc` case study;
//! * scripted input and an output log for driving randomized runs;
//! * the sampling runtime: report counters per site, countdown refills from
//!   any [`cbi_sampler::CountdownSource`], and `__gcd` seeding.
//!
//! # Example
//!
//! ```
//! use cbi_instrument::{instrument, Scheme};
//! use cbi_vm::Vm;
//!
//! let program = cbi_minic::parse(
//!     "fn main() -> int { ptr a = alloc(3); a[0] = 7; print(a[0]); free(a); return 0; }",
//! )?;
//! let inst = instrument(&program, Scheme::Checks)?;
//! let result = Vm::new(&inst.program).with_sites(&inst.sites).run()?;
//! assert!(result.outcome.is_success());
//! assert_eq!(result.output, vec![7]);
//! // Both bounds checks passed once each.
//! assert_eq!(result.counters.iter().sum::<u64>(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bytecode_interp;
pub mod heap;
pub mod interp;
pub mod outcome;
mod runtime;
mod slot_interp;
pub mod value;

pub use cbi_bytecode as bytecode;
pub use heap::Heap;
pub use interp::{RunResult, Vm, VmError, DEFAULT_MAX_DEPTH, DEFAULT_OP_LIMIT};
pub use outcome::{CrashKind, RunOutcome};
pub use value::{PtrVal, Value};
