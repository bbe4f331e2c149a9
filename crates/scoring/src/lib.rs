//! Statistical fault-localisation scorers and the iterative multi-bug
//! isolation engine.
//!
//! The paper ranks predicates with one regression model and notes
//! (§3.3) that a real deployment faces *many* bugs at once, resolved by
//! a redundancy-elimination loop: rank, attribute the top predicate to
//! a bug, discard the failing runs it explains, re-rank.  This crate
//! makes both halves first-class:
//!
//! * [`score`] — a [`Scorer`] trait over per-predicate
//!   [`Contingency`](cbi_stats::Contingency) tables (extracted from the
//!   sufficient statistics every collector already folds — no resident
//!   reports), with implementations for Ochiai, Tarantula, Jaccard, the
//!   paper's §3.2 Increase/Importance statistic, and two Doric-style
//!   probabilistic measures.  Every score is an integer in fixed-point
//!   per-mille, so rankings are byte-identical at any worker count and
//!   on any platform — there is no floating point anywhere in a scorer.
//! * [`isolate`](mod@isolate) — a [`FailureIndex`] report sink retaining, per
//!   *failing* run only, the sparse set of nonzero counters (successes
//!   fold into aggregates and are discarded), and the [`isolate`](fn@isolate)
//!   engine that runs the §3.3 loop to completion, emitting a typed
//!   per-iteration [`IsolationRun`] trace with one predicate cluster
//!   per iteration.
//!
//! Determinism contract: given the same report stream the index, every
//! ranking, and the whole isolation trace are bit-identical — ties in
//! score break by counter index, and all arithmetic is integer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod isolate;
pub mod score;

pub use isolate::{isolate, FailureIndex, IsolationCluster, IsolationRun, IsolationStep};
pub use score::{
    all_scorers, rank_of, rank_tables, scorer_by_name, Scorer, SCORER_NAMES, SCORE_ONE,
};
