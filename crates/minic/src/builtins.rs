//! Builtin functions shared between the resolver and the VM.
//!
//! Two groups:
//!
//! * **user builtins** available to workload programs: heap management,
//!   scripted input, output, and early exit;
//! * **runtime builtins** (double-underscore names) that only instrumented
//!   code calls: counter updates for the three observation kinds and the
//!   next-sample countdown refill.  Workload sources never mention them; the
//!   instrumentation passes synthesize the calls.

use crate::ast::Type;

/// The reserved name of the global next-sample countdown variable
/// synthesized by the sampling transformation (§2.4 "global countdown").
pub const GLOBAL_COUNTDOWN: &str = "__gcd";

/// The reserved name of the per-function local countdown copy (§2.4).
pub const LOCAL_COUNTDOWN: &str = "__cd";

/// A builtin function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `alloc(n) -> ptr`: allocate a zeroed block of `n` cells.
    Alloc,
    /// `free(p)`: release a block (traps on corrupted canaries).
    Free,
    /// `len(p) -> int`: logical length of a block.
    Len,
    /// `read() -> int`: next value of the scripted input (0 at EOF).
    Read,
    /// `has_input() -> int`: 1 while scripted input remains, else 0.
    HasInput,
    /// `print(x)`: append an integer to the run's output log.
    Print,
    /// `exit(code)`: terminate the run successfully.
    Exit,
    /// `__check(site, cond)`: counted assertion; aborts the run when
    /// `cond` is false.  Two counters per site: `[violated, ok]`.
    ObsCheck,
    /// `__cmp(site, a, b)`: counted three-way comparison.  Three counters
    /// per site: `[a < b, a == b, a > b]`.
    ObsCmp,
    /// `__obs_sign(site, v)`: counted sign observation for function return
    /// values (§3.2.1).  Three counters: `[v < 0, v == 0, v > 0]`.
    ObsSign,
    /// `__next_cd() -> int`: refill the next-sample countdown from the
    /// run's countdown source.
    NextCountdown,
}

impl Builtin {
    /// Resolves a callee name to a builtin, if it is one.
    pub fn from_name(name: &str) -> Option<Builtin> {
        Some(match name {
            "alloc" => Builtin::Alloc,
            "free" => Builtin::Free,
            "len" => Builtin::Len,
            "read" => Builtin::Read,
            "has_input" => Builtin::HasInput,
            "print" => Builtin::Print,
            "exit" => Builtin::Exit,
            "__check" => Builtin::ObsCheck,
            "__cmp" => Builtin::ObsCmp,
            "__obs_sign" => Builtin::ObsSign,
            "__next_cd" => Builtin::NextCountdown,
            _ => return None,
        })
    }

    /// The source-level name of this builtin.
    pub fn name(self) -> &'static str {
        match self {
            Builtin::Alloc => "alloc",
            Builtin::Free => "free",
            Builtin::Len => "len",
            Builtin::Read => "read",
            Builtin::HasInput => "has_input",
            Builtin::Print => "print",
            Builtin::Exit => "exit",
            Builtin::ObsCheck => "__check",
            Builtin::ObsCmp => "__cmp",
            Builtin::ObsSign => "__obs_sign",
            Builtin::NextCountdown => "__next_cd",
        }
    }

    /// Number of arguments the builtin expects.
    pub fn arity(self) -> usize {
        match self {
            Builtin::Read | Builtin::HasInput | Builtin::NextCountdown => 0,
            Builtin::Alloc | Builtin::Free | Builtin::Len | Builtin::Print | Builtin::Exit => 1,
            Builtin::ObsCheck | Builtin::ObsSign => 2,
            Builtin::ObsCmp => 3,
        }
    }

    /// Return type, or `None` for effect-only builtins.
    pub fn ret(self) -> Option<Type> {
        match self {
            Builtin::Alloc => Some(Type::Ptr),
            Builtin::Len | Builtin::Read | Builtin::HasInput | Builtin::NextCountdown => {
                Some(Type::Int)
            }
            Builtin::Free
            | Builtin::Print
            | Builtin::Exit
            | Builtin::ObsCheck
            | Builtin::ObsCmp
            | Builtin::ObsSign => None,
        }
    }

    /// Whether this is an instrumentation-runtime builtin (reserved
    /// double-underscore namespace) rather than a user-facing one.
    #[cfg(test)]
    fn is_runtime(self) -> bool {
        matches!(
            self,
            Builtin::ObsCheck | Builtin::ObsCmp | Builtin::ObsSign | Builtin::NextCountdown
        )
    }

    /// Whether calls to this builtin are *weightless* for the purposes of
    /// the interprocedural analysis of §2.3 — they contain no
    /// instrumentation sites and never touch the countdown, so acyclic
    /// regions may extend across them.
    ///
    /// Every builtin except [`Builtin::NextCountdown`] is weightless; the
    /// countdown refill by definition manipulates the countdown (it is only
    /// ever called from synthesized slow-path code anyway).
    pub fn is_weightless(self) -> bool {
        !matches!(self, Builtin::NextCountdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for b in [
            Builtin::Alloc,
            Builtin::Free,
            Builtin::Len,
            Builtin::Read,
            Builtin::HasInput,
            Builtin::Print,
            Builtin::Exit,
            Builtin::ObsCheck,
            Builtin::ObsCmp,
            Builtin::ObsSign,
            Builtin::NextCountdown,
        ] {
            assert_eq!(Builtin::from_name(b.name()), Some(b));
        }
        assert_eq!(Builtin::from_name("nonsense"), None);
    }

    #[test]
    fn arities_and_returns() {
        assert_eq!(Builtin::Alloc.arity(), 1);
        assert_eq!(Builtin::Alloc.ret(), Some(Type::Ptr));
        assert_eq!(Builtin::ObsCmp.arity(), 3);
        assert_eq!(Builtin::ObsCmp.ret(), None);
        assert_eq!(Builtin::Read.arity(), 0);
        assert_eq!(Builtin::Read.ret(), Some(Type::Int));
    }

    #[test]
    fn runtime_builtins_flagged() {
        assert!(Builtin::ObsCmp.is_runtime());
        assert!(Builtin::NextCountdown.is_runtime());
        assert!(!Builtin::Alloc.is_runtime());
        assert!(!Builtin::Print.is_runtime());
    }

    #[test]
    fn weightlessness() {
        assert!(Builtin::Alloc.is_weightless());
        assert!(Builtin::ObsCheck.is_weightless());
        assert!(!Builtin::NextCountdown.is_weightless());
    }
}
