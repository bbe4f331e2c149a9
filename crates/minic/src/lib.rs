//! MiniC: the instrumentation substrate language.
//!
//! The PLDI 2003 paper implements its sampling transformation as a
//! source-to-source rewrite of C programs.  This crate provides the
//! equivalent substrate for the reproduction: a small C-like language with
//! functions, `int`/`ptr` variables, structured control flow, heap
//! loads/stores, calls, and `check(...)` assertion sites.
//!
//! The pipeline is:
//!
//! 1. [`parse`] source text into an [`ast::Program`];
//! 2. [`resolve()`](resolve()) it, obtaining static [`resolve::ProgramInfo`] (types of
//!    every variable, function signatures) and rejecting ill-formed code;
//! 3. hand the program to `cbi-instrument` for site insertion and the
//!    sampling transformation, and to `cbi-vm` for execution;
//! 4. optionally [`pretty()`](pretty())-print any (possibly transformed) program back
//!    to source.
//!
//! # Example
//!
//! ```
//! use cbi_minic::{parse, resolve, pretty};
//!
//! let program = parse("fn main() -> int { int x = 2 + 3; return x; }")?;
//! let info = resolve(&program)?;
//! assert!(info.signatures.contains_key("main"));
//! assert!(pretty(&program).contains("2 + 3"));
//! # Ok::<(), cbi_minic::MiniCError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod builtins;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod resolve;
pub mod slots;
pub mod span;
pub mod token;

pub use ast::{
    BinOp, Block, Countdown, Expr, Function, Global, Param, Program, Sample, Stmt, Type, UnOp,
};
pub use builtins::{Builtin, Observation};
pub use parser::parse;
pub use pretty::{pretty, pretty_function, print_expr};
pub use resolve::{resolve, FnSig, ProgramInfo};
pub use slots::{lower, SlotProgram};
pub use span::Span;

use std::error::Error;
use std::fmt;

/// An error from the MiniC front end, carrying the phase, position, and a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiniCError {
    phase: Phase,
    span: Span,
    message: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Lex,
    Parse,
    Resolve,
}

impl MiniCError {
    pub(crate) fn lex(span: Span, message: impl Into<String>) -> Self {
        MiniCError {
            phase: Phase::Lex,
            span,
            message: message.into(),
        }
    }

    pub(crate) fn parse(span: Span, message: impl Into<String>) -> Self {
        MiniCError {
            phase: Phase::Parse,
            span,
            message: message.into(),
        }
    }

    pub(crate) fn resolve(span: Span, message: impl Into<String>) -> Self {
        MiniCError {
            phase: Phase::Resolve,
            span,
            message: message.into(),
        }
    }

    /// The source position the error refers to.
    pub fn span(&self) -> Span {
        self.span
    }

    /// The error message without position prefix.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for MiniCError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phase = match self.phase {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Resolve => "resolve",
        };
        write!(f, "{phase} error at {}: {}", self.span, self.message)
    }
}

impl Error for MiniCError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_includes_phase_and_span() {
        let e = MiniCError::parse(Span::new(3, 7), "boom");
        assert_eq!(e.to_string(), "parse error at 3:7: boom");
        assert_eq!(e.span(), Span::new(3, 7));
        assert_eq!(e.message(), "boom");
    }

    #[test]
    fn full_front_end_pipeline() {
        let src = "int total = 0;\n\
                   fn bump(int d) { total = total + d; }\n\
                   fn main() -> int { bump(3); bump(4); return total; }";
        let program = parse(src).unwrap();
        let info = resolve(&program).unwrap();
        assert_eq!(info.signatures["bump"].params.len(), 1);
        let printed = pretty(&program);
        let reparsed = parse(&printed).unwrap();
        assert!(resolve(&reparsed).is_ok());
    }
}
