//! Statistical debugging analyses (§3 of the paper).
//!
//! Given counter-vector reports collected from many runs, this crate
//! answers "which predicates predict failure?" three ways, in increasing
//! sophistication:
//!
//! * [`confidence`] — closed-form effectiveness arithmetic (§3.1.3): how
//!   many runs does a deployment need before sparse sampling observes a
//!   rare event?
//! * [`elimination`] — the four predicate-elimination strategies for
//!   deterministic bugs (§3.2.2), plus [`progressive`] refinement over
//!   time (Figure 2);
//! * [`contingency`] — per-predicate 2×2 observation tables exposed
//!   straight from sufficient statistics, the common input of every
//!   coverage-based fault-localisation measure (see `cbi-scoring`);
//! * [`logistic`] — ℓ₁-regularized logistic regression trained by
//!   stochastic gradient ascent for non-deterministic bugs (§3.3): one
//!   trainer, [`train`], over compressed rows (a label and the nonzero
//!   counters), whose one update is [`online`]'s; [`crossval`] splits the
//!   rows and picks λ.
//!
//! # Example: isolating a deterministic bug
//!
//! ```
//! use cbi_reports::{Label, Report, SufficientStats};
//! use cbi_stats::elimination::{apply, combine, survivors, Strategy};
//!
//! // Counter 0 fires only in failures; counter 1 fires everywhere.
//! let mut stats = SufficientStats::new(2);
//! stats.update(&Report::new(0, Label::Failure, vec![1, 1]));
//! stats.update(&Report::new(1, Label::Success, vec![0, 3]));
//!
//! let groups = [(0, 1), (1, 1)];
//! let uf = apply(&stats, Strategy::UniversalFalsehood, &groups);
//! let sc = apply(&stats, Strategy::SuccessfulCounterexample, &groups);
//! assert_eq!(survivors(&combine(&[uf, sc])), vec![0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod confidence;
pub mod contingency;
pub mod crossval;
pub mod elimination;
pub mod logistic;
pub mod online;
pub mod progressive;

pub use confidence::{detection_probability, runs_needed};
pub use contingency::{contingency_tables, Contingency};
pub use crossval::{choose_lambda, split, CrossvalError, LambdaChoice};
pub use elimination::{apply, combine, survivor_count, survivors, KeepMask, Strategy};
pub use logistic::{train, LogisticModel, Row, TrainConfig};
pub use progressive::{progressive_elimination, ProgressiveConfig, ProgressivePoint};
