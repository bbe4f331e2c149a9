//! Ground-truth fault-injection corpus and isolation-quality evaluation.
//!
//! The paper's evaluation rests on two hand-planted bugs (`ccrypt`'s
//! EOF-at-prompt crash, `bc`'s heap overrun).  That shows the pipeline
//! *works*; it cannot say how *well* elimination and ℓ₁-regularized
//! regression isolate bugs in general, or how isolation quality degrades
//! with sampling density.  This crate turns the question into a
//! measurement:
//!
//! 1. [`mutate`] — AST mutation operators over MiniC that plant exactly
//!    one labeled bug (off-by-one bounds, dropped bounds check, bad
//!    pointer offset, flipped comparison, wrong guard polarity) into a
//!    crash-free [`cbi_testgen`] program or into the `ccrypt`/`bc`
//!    workloads.  Every operator routes the faulty index through a fresh
//!    `fault_t` temporary, so the instrumented program contains exactly
//!    one bounds site whose predicate is the ground truth.
//! 2. [`manifest`] — a [`PlantedBug`] record per corpus entry: the
//!    mutated source, the true counter index and predicate name, the
//!    instrumentation layout hash pinning them, and how the bug triggers.
//! 3. [`generate`] — seeded corpus construction.  Each candidate
//!    mutation is validated by an instrumented density-1 campaign plus an
//!    uninstrumented baseline sweep before it is admitted, so every
//!    manifest line is a *demonstrated* bug, not a hoped-for one.
//! 4. [`eval`] — the one evaluator: per entry and sampling density it
//!    runs one campaign into a [`cbi_scoring::FailureIndex`] and a
//!    [`cbi_reports::Collector`] at once, then scores every analysis of
//!    it against ground truth — survival of the true predicate under
//!    §3.2 elimination, its rank in the §3.3 regression ordering,
//!    recall@k and wasted effort (EXAM-style), and per scorer the
//!    isolation loop's cluster purity, per-bug rank and recovery.
//!
//! Everything is deterministic: corpus generation from a seed, trial
//! regeneration from the manifest, and evaluation output byte-for-byte
//! across runs and across `--jobs` settings (the campaign engine's
//! ordered merge guarantees an identical report stream).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eval;
pub mod generate;
pub mod manifest;
pub mod mutate;

pub use eval::{
    evaluate, instrument_entry, render_report, render_summary, EntryScore, EvalConfig, EvalReport,
    Isolation,
};
pub use generate::{
    corpus_gen_config, generate_corpus, generate_multi_corpus, load_corpus, testgen_trials,
    write_corpus, Corpus, CorpusEntry, GenerateConfig, MultiGenerateConfig,
};
pub use manifest::{
    read_manifest, write_manifest, Fault, ManifestError, PlantedBug, Workload, MANIFEST_SCHEMA,
};
pub use mutate::{
    plant_testgen, plant_testgen_named, plant_workload, store_candidates, workload_candidates,
    Mutation, Operator, MULTI_FAULT_VARS,
};

use std::fmt;

/// Errors from corpus generation, loading, and evaluation.
#[derive(Debug)]
pub enum CorpusError {
    /// Filesystem error reading or writing a corpus directory.
    Io(std::io::Error),
    /// A corpus entry's program failed to parse or instrument, or its
    /// campaign failed outright.
    Entry {
        /// Entry id.
        id: String,
        /// The stage that failed: `parse`, `instrumentation` or
        /// `campaign`.
        stage: &'static str,
        /// The stage's diagnostic.
        message: String,
    },
    /// A manifest line could not be decoded.
    Manifest {
        /// 1-based line number in `manifest.jsonl`.
        line: usize,
        /// Why the decoder refused it.
        error: ManifestError,
    },
    /// Re-instrumenting an entry produced a different site-table layout
    /// than the manifest recorded — the ground-truth counter index can
    /// no longer be trusted.
    LayoutDrift {
        /// Entry id.
        id: String,
        /// Layout hash recorded in the manifest.
        expected: u64,
        /// Layout hash observed now.
        got: u64,
    },
    /// The true counter no longer names the predicate the manifest
    /// recorded.
    PredicateDrift {
        /// Entry id.
        id: String,
        /// Predicate recorded in the manifest.
        expected: String,
        /// Predicate observed now.
        got: String,
    },
    /// A generation or evaluation configuration is invalid (e.g. an
    /// unknown scorer name, or more faults per entry than can be
    /// planted).
    Config {
        /// What was wrong.
        message: String,
    },
    /// Generation could not validate enough planted bugs.
    Exhausted {
        /// Entries requested.
        wanted: usize,
        /// Entries validated before giving up.
        got: usize,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io(e) => write!(f, "corpus io error: {e}"),
            CorpusError::Entry { id, stage, message } => {
                write!(f, "corpus entry {id}: {stage} failed: {message}")
            }
            CorpusError::Manifest { line, error } => {
                write!(f, "manifest line {line}: {error}")
            }
            CorpusError::LayoutDrift { id, expected, got } => write!(
                f,
                "corpus entry {id}: instrumentation layout drifted \
                 (manifest {expected:#x}, observed {got:#x})"
            ),
            CorpusError::PredicateDrift { id, expected, got } => write!(
                f,
                "corpus entry {id}: true counter names {got:?}, manifest says {expected:?}"
            ),
            CorpusError::Config { message } => {
                write!(f, "corpus config error: {message}")
            }
            CorpusError::Exhausted { wanted, got } => write!(
                f,
                "corpus generation exhausted: validated {got} of {wanted} requested entries"
            ),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CorpusError {
    fn from(e: std::io::Error) -> Self {
        CorpusError::Io(e)
    }
}
