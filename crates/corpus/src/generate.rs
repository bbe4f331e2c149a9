//! Seeded corpus construction.
//!
//! Every candidate mutation must *prove* itself before it becomes a
//! corpus entry.  Validation runs the mutant through:
//!
//! 1. **Normalization** — `parse(pretty(mutant))`; the corpus stores the
//!    pretty-printed normal form, which is a pretty∘parse fixed point,
//!    so evaluation reconstructs the identical AST (and therefore the
//!    identical instrumentation layout) from disk.
//! 2. **Ground-truth identification** — instrument with the `checks`
//!    scheme and require *exactly one* bounds site whose subject matches
//!    the mutation's expected text; its violated counter is the truth.
//! 3. **A density-1 instrumented campaign** — the planted predicate must
//!    actually fire in failing runs and never in successful ones, the
//!    campaign must see at least two failures, and (unless the bug fires
//!    on every trial) at least two successes, so both elimination
//!    strategies have evidence to work with at every density.
//! 4. **An uninstrumented baseline sweep** — for deterministic store
//!    bugs the baseline failures must equal the instrumented failures:
//!    sampling the violation aborts the run, not sampling it corrupts
//!    the heap, and either way the same trials fail.
//!
//! Rejected candidates are skipped (and logged); generation keeps
//! advancing program seeds and mutation sites until it has the requested
//! number of demonstrated bugs.

use crate::manifest::{Fault, PlantedBug, Workload};
use crate::mutate::{
    plant_testgen, plant_testgen_named, plant_workload, store_candidates, workload_candidates,
    Mutation, Operator, MULTI_FAULT_VARS,
};
use crate::CorpusError;
use cbi_instrument::{instrument, Scheme, SiteKind};
use cbi_minic::{parse, pretty, Program};
use cbi_sampler::{Pcg32, SamplingDensity};
use cbi_scoring::FailureIndex;
use cbi_testgen::{program_for_seed_with, GenConfig};
use cbi_vm::Vm;
use cbi_workloads::{
    bc_program, bc_trials, ccrypt_program, ccrypt_trials, run_campaign_into, BcTrialConfig,
    CampaignConfig, CcryptTrialConfig,
};
use std::fs;
use std::io::BufReader;
use std::path::Path;

/// Knobs for corpus construction.
#[derive(Debug, Clone)]
pub struct GenerateConfig {
    /// Total entries to produce.
    pub size: usize,
    /// Master seed: drives program generation, trial generation, and
    /// entry ordering.
    pub seed: u64,
    /// Trials per entry (used for validation and replayed by
    /// evaluation).
    pub trials: usize,
}

impl Default for GenerateConfig {
    fn default() -> Self {
        GenerateConfig {
            size: 100,
            seed: 0xc0de,
            trials: 48,
        }
    }
}

/// One corpus entry: ground truth plus the normalized program source.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// The ground-truth record.
    pub bug: PlantedBug,
    /// Normalized MiniC source of the mutated program.
    pub source: String,
}

/// A generated corpus, plus a log of candidates generation had to skip.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The validated entries, in manifest order.
    pub entries: Vec<CorpusEntry>,
    /// Human-readable notes about skipped operators or shortfalls — no
    /// silent coverage gaps.
    pub log: Vec<String>,
}

/// Generator configuration for corpus base programs: the stock testgen
/// shape with the three leading variables wired to scripted input, so
/// planted bugs can be input-conditioned.
pub fn corpus_gen_config() -> GenConfig {
    GenConfig { input_vars: 3 }
}

/// Trial inputs for corpus testgen programs: one token per input-wired
/// variable, drawn wide enough to push mutated indices both in and out
/// of bounds.
pub fn testgen_trials(n: usize, seed: u64) -> Vec<Vec<i64>> {
    let cfg = corpus_gen_config();
    let mut rng = Pcg32::new(seed);
    (0..n)
        .map(|_| {
            (0..cfg.input_vars)
                .map(|_| -40 + rng.below(96) as i64)
                .collect()
        })
        .collect()
}

/// The ccrypt trial distribution used by the corpus: EOF-at-prompt
/// disabled, so the workload's organic crash is silenced and the planted
/// bug is the only failure source.
pub fn corpus_ccrypt_config() -> CcryptTrialConfig {
    CcryptTrialConfig {
        p_eof: 0.0,
        ..CcryptTrialConfig::default()
    }
}

/// `n` inputs from `workload`'s corpus trial distribution, seeded by
/// `seed`: what generation validates each bug against.
pub fn workload_trials(workload: Workload, n: usize, seed: u64) -> Vec<Vec<i64>> {
    match workload {
        Workload::Testgen => testgen_trials(n, seed),
        Workload::Ccrypt => ccrypt_trials(n, seed, &corpus_ccrypt_config()),
        Workload::Bc => bc_trials(n, seed, &BcTrialConfig::default()),
    }
}

/// Regenerates the trial inputs recorded for `bug`.
pub fn trials_for(bug: &PlantedBug) -> Vec<Vec<i64>> {
    workload_trials(bug.workload, bug.trials, bug.trial_seed)
}

/// What validation learned about an accepted candidate.
struct Validated {
    true_counter: usize,
    true_predicate: String,
    layout_hash: u64,
    counters: usize,
    trigger: &'static str,
    baseline_failures: usize,
}

/// Validates a candidate mutation; `None` means "skip this candidate".
fn validate(source: &str, mutation: &Mutation, trials: &[Vec<i64>]) -> Option<Validated> {
    let program = parse(source).ok()?;
    let instrumented = instrument(&program, Scheme::Checks).ok()?;
    let sites = &instrumented.sites;
    let mut matches = sites
        .iter()
        .filter(|s| s.kind == SiteKind::Bounds && s.text == mutation.site_text);
    let site = matches.next()?;
    if matches.next().is_some() {
        return None; // ambiguous ground truth
    }
    let true_counter = site.counter_base; // slot 0 = violated
    let index = density_one_campaign(&program, trials)?;
    let stats = index.stats();
    let failures = stats.failure_runs() as usize;
    let successes = stats.success_runs() as usize;
    // The planted predicate must be the demonstrated crash cause: it
    // fires in at least one failing run, and — since a sampled violation
    // aborts the run — in no successful one.
    if failures < 2 || stats.nonzero_failures(true_counter) == 0 {
        return None;
    }
    if stats.nonzero_successes(true_counter) != 0 {
        return None;
    }
    let trigger = if failures == trials.len() {
        "always"
    } else {
        if successes < 2 {
            return None; // too close to always-failing to be useful
        }
        "conditional"
    };
    let baseline_failures = baseline_failures(&program, trials);
    if mutation.deterministic && baseline_failures != failures {
        // A "deterministic" bug must fail the same trials with and
        // without instrumentation; otherwise the label would lie.
        return None;
    }
    Some(Validated {
        true_counter,
        true_predicate: sites.predicate_name(true_counter),
        layout_hash: sites.layout_hash(),
        counters: sites.total_counters(),
        trigger,
        baseline_failures,
    })
}

/// The density-1 `checks` campaign of a candidate over `trials`: its
/// statistics and failing runs.
fn density_one_campaign(program: &Program, trials: &[Vec<i64>]) -> Option<FailureIndex> {
    let config = CampaignConfig::sampled(Scheme::Checks, SamplingDensity::one_in(1));
    let mut index = FailureIndex::new();
    run_campaign_into(program, trials, &config, &mut index).ok()?;
    Some(index)
}

/// Failures of the uninstrumented program over `trials`: the baseline
/// a deterministic bug's instrumented failures must equal.
fn baseline_failures(program: &Program, trials: &[Vec<i64>]) -> usize {
    trials
        .iter()
        .filter(|trial| {
            !Vm::new(program)
                .with_input(trial.to_vec())
                .run()
                .is_ok_and(|result| result.outcome.is_success())
        })
        .count()
}

/// Normalizes a mutant: pretty-print, re-parse, pretty-print.  The
/// result is a pretty∘parse fixed point (pinned by testgen's round-trip
/// tests), so what the corpus stores reconstructs bit-identically.
fn normalize(program: &Program) -> Option<String> {
    let reparsed = parse(&pretty(program)).ok()?;
    Some(pretty(&reparsed))
}

#[allow(clippy::too_many_arguments)]
fn entry_from(
    id: String,
    workload: Workload,
    operator: String,
    source: String,
    mutation: &Mutation,
    trials_n: usize,
    trial_seed: u64,
    v: Validated,
) -> CorpusEntry {
    CorpusEntry {
        bug: PlantedBug {
            source: format!("programs/{id}.mc"),
            id,
            workload,
            layout_hash: v.layout_hash,
            counters: v.counters,
            trials: trials_n,
            trial_seed,
            baseline_failures: v.baseline_failures,
            faults: vec![Fault {
                operator,
                deterministic: mutation.deterministic,
                trigger: v.trigger.to_string(),
                true_counter: v.true_counter,
                true_predicate: v.true_predicate,
            }],
        },
        source,
    }
}

/// Generates a corpus: a few `ccrypt` and `bc` entries (one twelfth of
/// the corpus each), the rest seeded testgen programs cycling through
/// the whole operator set.
pub fn generate_corpus(cfg: &GenerateConfig) -> Result<Corpus, CorpusError> {
    let mut entries = Vec::new();
    let mut log = Vec::new();
    let workload_quota = (cfg.size / 12).max(1);
    let workload_quota = if cfg.size <= 2 { 0 } else { workload_quota };

    // ccrypt and bc entries: scan (store, offset) pairs until the quota
    // is met or the candidates run out.
    for (workload, tag, program) in [
        (Workload::Ccrypt, "cc", ccrypt_program()),
        (Workload::Bc, "bc", bc_program()),
    ] {
        let candidates = workload_candidates(&program);
        let mut accepted = 0usize;
        'pairs: for nth in 0..candidates {
            for offset in [1, 2, 4, 8] {
                if accepted >= workload_quota {
                    break 'pairs;
                }
                let Some(mutation) = plant_workload(&program, nth, offset) else {
                    continue;
                };
                let Some(source) = normalize(&mutation.program) else {
                    continue;
                };
                let trial_seed = cfg
                    .seed
                    .wrapping_add(0x1000 * (1 + workload as u64))
                    .wrapping_add(accepted as u64);
                let trials = workload_trials(workload, cfg.trials, trial_seed);
                let Some(v) = validate(&source, &mutation, &trials) else {
                    continue;
                };
                let id = format!("{tag}-{accepted:04}");
                entries.push(entry_from(
                    id,
                    workload,
                    Operator::BadPointerOffset(offset).name(),
                    source,
                    &mutation,
                    cfg.trials,
                    trial_seed,
                    v,
                ));
                accepted += 1;
            }
        }
        if accepted < workload_quota {
            log.push(format!(
                "{workload}: validated {accepted}/{workload_quota} planted bugs \
                 ({candidates} candidate stores); testgen entries fill the gap"
            ));
        }
    }

    // Testgen entries fill the remainder, cycling the operator set.
    let ops = [
        Operator::OffByOneIndex,
        Operator::DroppedBoundsCheck,
        Operator::BadPointerOffset(4),
        Operator::FlippedComparison,
        Operator::WrongGuardPolarity,
        Operator::OffByOneLoop,
        Operator::BadPointerOffset(8),
    ];
    let gen_cfg = corpus_gen_config();
    let target = cfg.size;
    let mut prog_seed = cfg.seed;
    let mut op_cursor = 0usize;
    let mut misses = 0usize;
    let mut accepted = 0usize;
    let mut attempts = 0usize;
    let attempt_cap = cfg.size * 400 + 4000;
    while entries.len() < target {
        attempts += 1;
        if attempts > attempt_cap {
            return Err(CorpusError::Exhausted {
                wanted: target,
                got: entries.len(),
            });
        }
        let op = &ops[op_cursor % ops.len()];
        let program = program_for_seed_with(prog_seed, &gen_cfg);
        let this_seed = prog_seed;
        prog_seed = prog_seed.wrapping_add(1);
        let trial_seed = cfg.seed.wrapping_add(0x9000).wrapping_add(this_seed);
        let trials = testgen_trials(cfg.trials, trial_seed);
        let candidates = if matches!(op, Operator::OffByOneLoop) {
            1
        } else {
            store_candidates(&program)
        };
        let mut planted = false;
        for nth in 0..candidates {
            let Some(mutation) = plant_testgen(&program, op, nth) else {
                continue;
            };
            let Some(source) = normalize(&mutation.program) else {
                continue;
            };
            let Some(v) = validate(&source, &mutation, &trials) else {
                continue;
            };
            let id = format!("tg-{accepted:04}");
            entries.push(entry_from(
                id,
                Workload::Testgen,
                op.name(),
                source,
                &mutation,
                cfg.trials,
                trial_seed,
                v,
            ));
            accepted += 1;
            planted = true;
            break;
        }
        if planted {
            op_cursor += 1;
            misses = 0;
        } else {
            misses += 1;
            if misses >= 25 {
                log.push(format!(
                    "testgen: operator {} found no valid plant in 25 consecutive \
                     programs (around seed {this_seed}); rotating on",
                    op.name()
                ));
                op_cursor += 1;
                misses = 0;
            }
        }
    }
    Ok(Corpus { entries, log })
}

/// Knobs for multi-bug corpus construction.
#[derive(Debug, Clone)]
pub struct MultiGenerateConfig {
    /// Total entries to produce.
    pub size: usize,
    /// Master seed.
    pub seed: u64,
    /// Trials per entry.
    pub trials: usize,
    /// Interacting faults planted per entry: from 2 to the size of the
    /// fault temporary pool, [`MULTI_FAULT_VARS`] (3).
    pub bugs_per_entry: usize,
}

impl Default for MultiGenerateConfig {
    fn default() -> Self {
        MultiGenerateConfig {
            size: 12,
            seed: 0xc0de,
            trials: 96,
            bugs_per_entry: 2,
        }
    }
}

/// Jointly validates a multi-fault mutant: every fault's predicate must
/// fire in at least two failing runs and no successful one, and every
/// fault must *uniquely* explain at least one failure — a failing run
/// in which its counter is the only planted counter observed — so the
/// isolation loop has a disjoint core to recover.
fn validate_multi(
    source: &str,
    planted: &[(String, String, bool)], // (operator, site_text, deterministic)
    trials: &[Vec<i64>],
) -> Option<(Vec<Fault>, u64, usize, usize)> {
    let program = parse(source).ok()?;
    let instrumented = instrument(&program, Scheme::Checks).ok()?;
    let sites = &instrumented.sites;
    let mut counters_of = Vec::with_capacity(planted.len());
    for (_, site_text, _) in planted {
        let mut matches = sites
            .iter()
            .filter(|s| s.kind == SiteKind::Bounds && s.text == *site_text);
        let site = matches.next()?;
        if matches.next().is_some() {
            return None; // ambiguous ground truth
        }
        counters_of.push(site.counter_base);
    }
    let index = density_one_campaign(&program, trials)?;
    let stats = index.stats();
    let failures = stats.failure_runs() as usize;
    if stats.success_runs() < 2 {
        return None;
    }
    let mut validated = Vec::with_capacity(planted.len());
    for (k, (operator, _, deterministic)) in planted.iter().enumerate() {
        let tc = counters_of[k];
        if stats.nonzero_failures(tc) < 2 || stats.nonzero_successes(tc) != 0 {
            return None;
        }
        // Unique explanation: a failing run where this fault's counter
        // is the only planted counter observed nonzero.
        let unique_failures = index
            .failures()
            .rows()
            .filter(|r| {
                let mut planted = r
                    .nonzero()
                    .filter_map(|(c, _)| counters_of.iter().position(|&t| t == c));
                planted.next() == Some(k) && planted.next().is_none()
            })
            .count();
        if unique_failures == 0 {
            return None;
        }
        let trigger = if stats.nonzero_failures(tc) as usize == trials.len() {
            "always"
        } else {
            "conditional"
        };
        validated.push(Fault {
            operator: operator.clone(),
            deterministic: *deterministic,
            trigger: trigger.to_string(),
            true_counter: tc,
            true_predicate: sites.predicate_name(tc),
        });
    }
    let baseline_failures = baseline_failures(&program, trials);
    if planted.iter().all(|(_, _, d)| *d) && baseline_failures != failures {
        return None;
    }
    if baseline_failures > failures {
        return None;
    }
    Some((
        validated,
        sites.layout_hash(),
        sites.total_counters(),
        baseline_failures,
    ))
}

/// Generates a corpus whose entries each carry several interacting
/// planted faults (manifest schema v2).
///
/// Faults come from the deterministic store-operator pool only: an
/// `off_by_one_loop` plant fires on *every* run at density 1, which
/// would abort every trial before the other faults could manifest and
/// leave nothing for them to uniquely explain.  Faults are planted at
/// spread-out candidate stores in descending index order (a rewritten
/// store leaves the candidate list, so lower indices stay valid), each
/// routed through its own temporary from
/// [`MULTI_FAULT_VARS`].
///
/// # Errors
///
/// Returns [`CorpusError::Config`] if `bugs_per_entry` is outside
/// `2..=MULTI_FAULT_VARS.len()`, and [`CorpusError::Exhausted`] if too
/// few entries validate.
pub fn generate_multi_corpus(cfg: &MultiGenerateConfig) -> Result<Corpus, CorpusError> {
    let bugs = cfg.bugs_per_entry;
    if !(2..=MULTI_FAULT_VARS.len()).contains(&bugs) {
        return Err(CorpusError::Config {
            message: format!(
                "{bugs} faults per entry (a multi-bug entry plants 2 to {})",
                MULTI_FAULT_VARS.len()
            ),
        });
    }
    let ops = [
        Operator::OffByOneIndex,
        Operator::DroppedBoundsCheck,
        Operator::BadPointerOffset(4),
        Operator::FlippedComparison,
        Operator::WrongGuardPolarity,
        Operator::BadPointerOffset(8),
    ];
    let gen_cfg = corpus_gen_config();
    let mut entries: Vec<CorpusEntry> = Vec::new();
    let mut log = Vec::new();
    let mut prog_seed = cfg.seed;
    let mut attempts = 0usize;
    let attempt_cap = cfg.size * 400 + 4000;
    while entries.len() < cfg.size {
        attempts += 1;
        if attempts > attempt_cap {
            return Err(CorpusError::Exhausted {
                wanted: cfg.size,
                got: entries.len(),
            });
        }
        let program = program_for_seed_with(prog_seed, &gen_cfg);
        let this_seed = prog_seed;
        prog_seed = prog_seed.wrapping_add(1);
        let candidates = store_candidates(&program);
        if candidates < bugs {
            continue;
        }
        // Spread the planted stores across the candidate list; indices
        // are strictly increasing because candidates >= bugs.
        let indices: Vec<usize> = (0..bugs).map(|k| k * candidates / bugs).collect();
        let mut current = program;
        let mut planted: Vec<(String, String, bool)> = Vec::new();
        let mut ok = true;
        for k in (0..bugs).rev() {
            let op = &ops[(attempts + k) % ops.len()];
            let Some(m) = plant_testgen_named(&current, op, indices[k], MULTI_FAULT_VARS[k]) else {
                ok = false;
                break;
            };
            current = m.program;
            planted.push((op.name(), m.site_text, m.deterministic));
        }
        if !ok {
            continue;
        }
        planted.reverse(); // fault_t first, matching MULTI_FAULT_VARS order
        let Some(source) = normalize(&current) else {
            continue;
        };
        let trial_seed = cfg.seed.wrapping_add(0xb000).wrapping_add(this_seed);
        let trials = testgen_trials(cfg.trials, trial_seed);
        let Some((faults, layout_hash, counters, baseline_failures)) =
            validate_multi(&source, &planted, &trials)
        else {
            continue;
        };
        let id = format!("mb-{:04}", entries.len());
        entries.push(CorpusEntry {
            bug: PlantedBug {
                source: format!("programs/{id}.mc"),
                id,
                workload: Workload::Testgen,
                layout_hash,
                counters,
                trials: cfg.trials,
                trial_seed,
                baseline_failures,
                faults,
            },
            source,
        });
    }
    if attempts > cfg.size * 40 {
        log.push(format!(
            "multi: {attempts} attempts for {} entries of {bugs} faults each",
            entries.len()
        ));
    }
    Ok(Corpus { entries, log })
}

/// Writes a corpus to `dir`: `manifest.jsonl` plus one `programs/<id>.mc`
/// per entry.
pub fn write_corpus(dir: &Path, corpus: &Corpus) -> Result<(), CorpusError> {
    fs::create_dir_all(dir.join("programs"))?;
    for entry in &corpus.entries {
        fs::write(dir.join(&entry.bug.source), &entry.source)?;
    }
    let mut manifest = Vec::new();
    crate::manifest::write_manifest(
        &mut manifest,
        &corpus
            .entries
            .iter()
            .map(|e| e.bug.clone())
            .collect::<Vec<_>>(),
    )?;
    fs::write(dir.join("manifest.jsonl"), manifest)?;
    Ok(())
}

/// Loads a corpus written by [`write_corpus`].
pub fn load_corpus(dir: &Path) -> Result<Vec<CorpusEntry>, CorpusError> {
    let manifest = fs::File::open(dir.join("manifest.jsonl"))?;
    let bugs = crate::manifest::read_manifest(BufReader::new(manifest))?;
    bugs.into_iter()
        .map(|bug| {
            let source = fs::read_to_string(dir.join(&bug.source))?;
            Ok(CorpusEntry { bug, source })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_generates_and_round_trips() {
        let cfg = GenerateConfig {
            size: 6,
            seed: 11,
            trials: 24,
        };
        let corpus = generate_corpus(&cfg).expect("generation must succeed");
        assert_eq!(corpus.entries.len(), 6);
        // Mixed workloads when size permits.
        assert!(corpus
            .entries
            .iter()
            .any(|e| e.bug.workload == Workload::Testgen));
        for entry in &corpus.entries {
            assert!(entry.bug.counters > 0);
            assert_eq!(entry.bug.faults.len(), 1);
            assert!(entry.bug.primary().true_counter < entry.bug.counters);
            assert!(["always", "conditional"].contains(&entry.bug.primary().trigger.as_str()));
            // Normal form on disk: the stored source is a fixed point.
            let reparsed = parse(&entry.source).unwrap();
            assert_eq!(pretty(&reparsed), entry.source);
        }
        let dir = std::env::temp_dir().join(format!("cbi-corpus-test-{}", std::process::id()));
        write_corpus(&dir, &corpus).unwrap();
        let back = load_corpus(&dir).unwrap();
        assert_eq!(back.len(), corpus.entries.len());
        for (a, b) in corpus.entries.iter().zip(&back) {
            assert_eq!(a.bug, b.bug);
            assert_eq!(a.source, b.source);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_bug_corpus_generates_disjoint_validated_faults() {
        let cfg = MultiGenerateConfig {
            size: 2,
            seed: 31,
            trials: 48,
            bugs_per_entry: 2,
        };
        let corpus = generate_multi_corpus(&cfg).expect("multi generation must succeed");
        assert_eq!(corpus.entries.len(), 2);
        for entry in &corpus.entries {
            let bug = &entry.bug;
            assert_eq!(bug.faults.len(), 2);
            assert!(bug.id.starts_with("mb-"));
            // Distinct counters, all within the layout.
            let tcs = bug.true_counters();
            assert!(tcs.iter().all(|&c| c < bug.counters));
            assert_ne!(tcs[0], tcs[1]);
            // Each fault routes through its own temporary.
            assert!(entry.source.contains("fault_t") && entry.source.contains("fault_u"));
            // Stored source is a pretty∘parse fixed point.
            let reparsed = parse(&entry.source).unwrap();
            assert_eq!(pretty(&reparsed), entry.source);
        }
        // v2 entries round-trip through the manifest codec.
        let dir = std::env::temp_dir().join(format!("cbi-multi-test-{}", std::process::id()));
        write_corpus(&dir, &corpus).unwrap();
        let back = load_corpus(&dir).unwrap();
        for (a, b) in corpus.entries.iter().zip(&back) {
            assert_eq!(a.bug, b.bug);
            assert_eq!(a.source, b.source);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_unplantable_fault_count_is_a_config_error() {
        for bugs_per_entry in [0, 1, MULTI_FAULT_VARS.len() + 1] {
            let cfg = MultiGenerateConfig {
                size: 1,
                seed: 31,
                trials: 48,
                bugs_per_entry,
            };
            let err = generate_multi_corpus(&cfg).unwrap_err();
            assert!(matches!(err, CorpusError::Config { .. }), "{err}");
            assert!(err.to_string().contains("2 to 3"), "{err}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = GenerateConfig {
            size: 4,
            seed: 23,
            trials: 24,
        };
        let a = generate_corpus(&cfg).unwrap();
        let b = generate_corpus(&cfg).unwrap();
        let digest = |c: &Corpus| {
            c.entries
                .iter()
                .map(|e| format!("{:?}|{}", e.bug, e.source))
                .collect::<Vec<_>>()
        };
        assert_eq!(digest(&a), digest(&b));
    }
}
