//! The sampling transformation (§2.2–§2.4).
//!
//! Given a program whose instrumentation sites have been inserted by a
//! scheme (as `__check`/`__cmp`/`__obs_sign` statements), this pass rewrites
//! every site-containing function so that sites fire according to the
//! next-sample countdown:
//!
//! * the function body is decomposed into *acyclic segments*, broken at
//!   loops containing instrumentation and at calls to non-weightless
//!   functions (§2.2, §2.3);
//! * each segment with site weight `w > 0` gets a *threshold check*
//!   `if (cd > w)` selecting between a cloned **fast path** (sites replaced
//!   by countdown decrements, coalesced where possible) and a **slow path**
//!   (each site guarded by `cd -= 1; if (cd == 0) { observe; cd = __next_cd(); }`);
//!   only the statements from the segment's first site-bearing statement
//!   to its last are cloned, and the site-free rest runs once, before or
//!   after the check;
//! * loop bodies are transformed recursively, which places a threshold
//!   check along every loop back edge;
//! * with [`Countdown::Local`] the countdown is kept in a local
//!   variable, imported from the global `__gcd` at entry and exported at
//!   returns and around calls to non-weightless functions (§2.4) — this is
//!   what lets decrements coalesce;
//! * weightless functions (§2.3) are left completely untouched.
//!
//! All of that bookkeeping is built from [`Sample`] statements, which
//! later stages lower without recognising names.
//!
//! Setting [`TransformOptions::regions`] to `false` produces the "devolved"
//! pattern of §3.2.5 — a countdown check at each and every site, with no
//! dual paths — which is also the ablation baseline for region weighting.

use crate::sites::site_stmt;
use crate::weightless::weightless_functions;
use crate::InstrumentError;
use cbi_minic::ast::*;
use cbi_minic::builtins::{GLOBAL_COUNTDOWN, LOCAL_COUNTDOWN};
use cbi_minic::{Builtin, Observation, Span};
use std::collections::HashSet;

/// Options controlling the sampling transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformOptions {
    /// Which countdown the function bodies count down (§2.4).
    pub countdown: Countdown,
    /// Merge adjacent fast-path decrements into one (requires local
    /// countdown storage to take effect).
    pub coalesce: bool,
    /// Run the interprocedural weightless-function analysis (§2.3).  With
    /// `false`, every call conservatively breaks acyclic regions, as under
    /// separate compilation (§3.2.5).
    pub interprocedural: bool,
    /// Amortize countdown checks over acyclic regions (§2.2).  With
    /// `false`, each site individually checks the countdown.
    pub regions: bool,
}

impl Default for TransformOptions {
    fn default() -> Self {
        TransformOptions {
            countdown: Countdown::Local,
            coalesce: true,
            interprocedural: true,
            regions: true,
        }
    }
}

/// Per-function statistics from the transformation, feeding Table 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionStats {
    /// Function name.
    pub name: String,
    /// Number of instrumentation sites directly contained.
    pub sites: usize,
    /// Number of threshold check points placed.
    pub threshold_checks: usize,
    /// Sum of the weights of all threshold checks.
    pub total_threshold_weight: u64,
    /// Whether the function was weightless (left untouched).
    pub weightless: bool,
}

/// Whole-program transformation statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransformStats {
    /// One entry per function, in program order.
    pub functions: Vec<FunctionStats>,
}

impl TransformStats {
    /// Functions that directly contain at least one site.
    pub fn functions_with_sites(&self) -> usize {
        self.functions.iter().filter(|f| f.sites > 0).count()
    }

    /// Number of weightless functions.
    pub fn weightless_functions(&self) -> usize {
        self.functions.iter().filter(|f| f.weightless).count()
    }

    /// Average sites per site-containing function (Table 1 "sites").
    pub fn avg_sites(&self) -> f64 {
        ratio(
            self.functions.iter().map(|f| f.sites).sum::<usize>() as f64,
            self.functions_with_sites() as f64,
        )
    }

    /// Average threshold checks per site-containing function.
    pub fn avg_threshold_checks(&self) -> f64 {
        ratio(
            self.functions
                .iter()
                .map(|f| f.threshold_checks)
                .sum::<usize>() as f64,
            self.functions_with_sites() as f64,
        )
    }

    /// Average weight over all threshold checks.
    pub fn avg_threshold_weight(&self) -> f64 {
        ratio(
            self.functions
                .iter()
                .map(|f| f.total_threshold_weight)
                .sum::<u64>() as f64,
            self.functions
                .iter()
                .map(|f| f.threshold_checks)
                .sum::<usize>() as f64,
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Applies the sampling transformation.
///
/// Returns the transformed program (with the `__gcd` countdown global
/// added) and per-function statistics.
///
/// # Errors
///
/// Returns [`InstrumentError`] if the program was already transformed
/// (it declares `__gcd`), or if user code names `__cd` or `__gcd` — such a
/// variable would alias the countdown the transformation synthesizes.
pub fn apply_sampling(
    program: &Program,
    options: &TransformOptions,
) -> Result<(Program, TransformStats), InstrumentError> {
    if program.global(GLOBAL_COUNTDOWN).is_some() {
        return Err(InstrumentError::new(
            "program already contains the sampling countdown; refusing to transform twice",
        ));
    }
    if program.global(LOCAL_COUNTDOWN).is_some() {
        return Err(InstrumentError::new(format!(
            "program declares a global `{LOCAL_COUNTDOWN}`, the sampling countdown's name; \
             refusing to transform"
        )));
    }
    for f in &program.functions {
        let named = f.params.iter().find_map(|p| countdown_name(&p.name));
        if let Some(name) = named.or_else(|| block_names_countdown(&f.body)) {
            return Err(InstrumentError::new(format!(
                "function `{}` names `{name}`, the sampling countdown's name; refusing to transform",
                f.name
            )));
        }
    }

    let weightless = weightless_functions(program, options.interprocedural);
    let defined: HashSet<String> = program.functions.iter().map(|f| f.name.clone()).collect();

    let mut out = program.clone();
    out.globals.push(Global {
        name: GLOBAL_COUNTDOWN.to_string(),
        ty: Type::Int,
        init: 0,
        span: Span::synthesized(),
    });

    let mut stats = TransformStats::default();
    for f in &mut out.functions {
        let sites = count_sites_block(&f.body);
        let is_weightless = weightless.contains(&f.name);
        if sites == 0 {
            // No cloning or countdown plumbing needed (§2.3/§3.1.2): the
            // function has nothing to sample.  Calls inside it to
            // instrumented functions are handled by those functions
            // themselves.
            stats.functions.push(FunctionStats {
                name: f.name.clone(),
                sites: 0,
                threshold_checks: 0,
                total_threshold_weight: 0,
                weightless: is_weightless,
            });
            continue;
        }
        let mut tx = Transformer {
            options: *options,
            weightless: &weightless,
            defined: &defined,
            threshold_checks: 0,
            total_threshold_weight: 0,
        };
        let mut body = tx.transform_block(&f.body);
        if options.countdown == Countdown::Local {
            body = add_local_plumbing(body);
        }
        f.body = body;
        stats.functions.push(FunctionStats {
            name: f.name.clone(),
            sites,
            threshold_checks: tx.threshold_checks,
            total_threshold_weight: tx.total_threshold_weight,
            weightless: is_weightless,
        });
    }
    Ok((out, stats))
}

/// `name` if it is one of the two countdown names.
fn countdown_name(name: &str) -> Option<&'static str> {
    [LOCAL_COUNTDOWN, GLOBAL_COUNTDOWN]
        .into_iter()
        .find(|c| *c == name)
}

fn expr_names_countdown(e: &Expr) -> Option<&'static str> {
    let mut found = None;
    e.any(&mut |x| {
        if let Expr::Var { name, .. } = x {
            found = countdown_name(name);
        }
        found.is_some()
    });
    found
}

/// The first countdown name a block declares, assigns, stores through or
/// reads, at any depth; a sampling statement names the countdown too.
fn block_names_countdown(b: &Block) -> Option<&'static str> {
    b.stmts.iter().find_map(|s| {
        let written = match s {
            Stmt::Decl { name, .. }
            | Stmt::Assign { name, .. }
            | Stmt::Store { target: name, .. } => countdown_name(name),
            Stmt::Sample(
                Sample::Dec { reg, .. } | Sample::Threshold { reg, .. } | Sample::Guard { reg, .. },
            ) => Some(reg.name()),
            Stmt::Sample(_) => Some(LOCAL_COUNTDOWN),
            _ => None,
        };
        written
            .or_else(|| s.exprs().find_map(expr_names_countdown))
            .or_else(|| s.blocks().find_map(block_names_countdown))
    })
}

/// Counts instrumentation sites in a block, recursively.
pub fn count_sites_block(b: &Block) -> usize {
    b.stmts.iter().map(count_sites_stmt).sum()
}

fn count_sites_stmt(s: &Stmt) -> usize {
    if site_stmt(s).is_some() {
        return 1;
    }
    s.blocks().map(count_sites_block).sum()
}

/// The maximum number of sites on any path through an acyclic segment —
/// the segment's *weight* (§2.2).
pub fn segment_weight(stmts: &[Stmt]) -> u64 {
    stmts.iter().map(stmt_weight).sum()
}

fn stmt_weight(s: &Stmt) -> u64 {
    if site_stmt(s).is_some() {
        return 1;
    }
    match s {
        Stmt::If { .. } => s
            .blocks()
            .map(|b| segment_weight(&b.stmts))
            .max()
            .unwrap_or(0),
        // A `While` inside a segment is necessarily site-free (otherwise it
        // would be a region boundary), so it contributes no weight — §2.2:
        // "any cycle … without instrumentation is weightless".
        _ => 0,
    }
}

enum Class {
    /// Plain segment material.
    Segment,
    /// A root call to a non-weightless user function.
    HeavyCall,
    /// A loop or conditional whose interior must be transformed recursively.
    Recurse,
}

struct Transformer<'a> {
    options: TransformOptions,
    weightless: &'a HashSet<String>,
    defined: &'a HashSet<String>,
    threshold_checks: usize,
    total_threshold_weight: u64,
}

impl Transformer<'_> {
    fn is_heavy_call_name(&self, name: &str) -> bool {
        // Builtins never sample.
        if Builtin::from_name(name).is_some() {
            return false;
        }
        if self.defined.contains(name) {
            return !self.weightless.contains(name);
        }
        true
    }

    fn expr_has_heavy_call(&self, e: &Expr) -> bool {
        let mut names = Vec::new();
        e.called_names(&mut names);
        names.iter().any(|n| self.is_heavy_call_name(n))
    }

    fn stmt_has_heavy_call(&self, s: &Stmt) -> bool {
        s.exprs().any(|e| self.expr_has_heavy_call(e))
            || s.blocks()
                .any(|b| b.stmts.iter().any(|s| self.stmt_has_heavy_call(s)))
    }

    fn classify(&self, s: &Stmt) -> Class {
        if site_stmt(s).is_some() {
            return Class::Segment;
        }
        match s {
            Stmt::While { body, .. } => {
                if count_sites_block(body) > 0 || self.stmt_has_heavy_call(s) {
                    Class::Recurse
                } else {
                    Class::Segment
                }
            }
            Stmt::If { .. } => {
                if self.contains_instrumented_loop(s) || self.stmt_has_heavy_call(s) {
                    Class::Recurse
                } else {
                    Class::Segment
                }
            }
            Stmt::Decl { .. } | Stmt::Assign { .. } | Stmt::Expr { .. } => {
                if self.stmt_has_heavy_call(s) {
                    Class::HeavyCall
                } else {
                    Class::Segment
                }
            }
            _ => Class::Segment,
        }
    }

    /// Does the statement contain (at any depth) a loop whose body has
    /// instrumentation?  Such a loop needs back-edge threshold checks and
    /// forces recursion.
    fn contains_instrumented_loop(&self, s: &Stmt) -> bool {
        match s {
            Stmt::While { body, .. } => count_sites_block(body) > 0,
            Stmt::If { .. } => s
                .blocks()
                .any(|b| b.stmts.iter().any(|s| self.contains_instrumented_loop(s))),
            _ => false,
        }
    }

    fn transform_block(&mut self, b: &Block) -> Block {
        let mut out: Vec<Stmt> = Vec::new();
        let mut seg: Vec<Stmt> = Vec::new();
        for s in &b.stmts {
            match self.classify(s) {
                Class::Segment => seg.push(s.clone()),
                Class::HeavyCall => {
                    self.flush(&mut seg, &mut out);
                    if self.options.countdown == Countdown::Local {
                        out.push(Stmt::Sample(Sample::Export));
                        out.push(s.clone());
                        out.push(Stmt::Sample(Sample::Reimport));
                    } else {
                        out.push(s.clone());
                    }
                }
                Class::Recurse => {
                    self.flush(&mut seg, &mut out);
                    out.push(s.with_blocks(|b| self.transform_block(b)));
                }
            }
        }
        self.flush(&mut seg, &mut out);
        Block::new(out)
    }

    fn flush(&mut self, seg: &mut Vec<Stmt>, out: &mut Vec<Stmt>) {
        if seg.is_empty() {
            return;
        }
        let stmts = std::mem::take(seg);
        let w = segment_weight(&stmts);
        if w == 0 {
            // Zero-weight threshold checks are discarded (§2.2).
            out.extend(stmts);
            return;
        }
        if self.options.regions {
            self.threshold_checks += 1;
            self.total_threshold_weight += w;
            // Only the statements from the first site-bearing one to the
            // last are cloned; the site-free prefix and suffix run once,
            // before and after the check.  They carry no weight, so `w`
            // and every path's decrements are unchanged.
            let has_sites = |s: &Stmt| count_sites_stmt(s) > 0;
            let first = stmts
                .iter()
                .position(has_sites)
                .expect("a weighted region has a site");
            let last = stmts
                .iter()
                .rposition(has_sites)
                .expect("a weighted region has a site");
            let mid = &stmts[first..=last];
            out.extend_from_slice(&stmts[..first]);
            out.push(Stmt::Sample(Sample::Threshold {
                reg: self.options.countdown,
                w: u32::try_from(w).expect("a region's weight counts its sites"),
                fast: self.fast_copy(mid),
                slow: self.slow_copy(mid),
            }));
            out.extend_from_slice(&stmts[last + 1..]);
        } else {
            // Devolved pattern: a countdown check at each and every site.
            let slow = self.slow_copy(&stmts);
            out.extend(slow.stmts);
        }
    }

    fn fast_copy(&self, stmts: &[Stmt]) -> Block {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            if site_stmt(s).is_some() {
                out.push(Stmt::Sample(Sample::Dec {
                    reg: self.options.countdown,
                    k: 1,
                }));
                continue;
            }
            out.push(s.with_blocks(|b| self.fast_copy(&b.stmts)));
        }
        let mut block = Block::new(out);
        if self.options.coalesce && self.options.countdown == Countdown::Local {
            block = coalesce_decrements(block);
        }
        block
    }

    fn slow_copy(&self, stmts: &[Stmt]) -> Block {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            if let Some((obs, args)) = site_call(s) {
                out.push(Stmt::Sample(Sample::Guard {
                    reg: self.options.countdown,
                    obs,
                    args: args.to_vec(),
                }));
                continue;
            }
            out.push(s.with_blocks(|b| self.slow_copy(&b.stmts)));
        }
        Block::new(out)
    }
}

/// A site statement's observation and arguments.
fn site_call(s: &Stmt) -> Option<(Observation, &[Expr])> {
    site_stmt(s)?;
    match s {
        Stmt::Expr {
            expr: Expr::Call { name, args, .. },
            ..
        } => Some((Builtin::from_name(name)?.observation()?, args)),
        _ => None,
    }
}

/// Wraps a transformed body with local-countdown import/export (§2.4):
/// `int __cd = __gcd;` at entry, `__gcd = __cd;` before every `return` and
/// at fall-through exit, when the body can fall through.
fn add_local_plumbing(body: Block) -> Block {
    let falls_through = !body.always_exits();
    let mut stmts = vec![Stmt::Sample(Sample::Import)];
    stmts.extend(export_before_returns(body).stmts);
    if falls_through {
        stmts.push(Stmt::Sample(Sample::Export));
    }
    Block::new(stmts)
}

fn export_before_returns(b: Block) -> Block {
    let mut out = Vec::with_capacity(b.stmts.len());
    for s in b.stmts {
        match s {
            Stmt::Return { .. } => {
                out.push(Stmt::Sample(Sample::Export));
                out.push(s);
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                span,
            } => out.push(Stmt::If {
                cond,
                then_block: export_before_returns(then_block),
                else_block: else_block.map(export_before_returns),
                span,
            }),
            Stmt::While { cond, body, span } => out.push(Stmt::While {
                cond,
                body: export_before_returns(body),
                span,
            }),
            Stmt::Sample(Sample::Threshold { reg, w, fast, slow }) => {
                out.push(Stmt::Sample(Sample::Threshold {
                    reg,
                    w,
                    fast: export_before_returns(fast),
                    slow: export_before_returns(slow),
                }))
            }
            other => out.push(other),
        }
    }
    Block::new(out)
}

/// Coalesces countdown decrements within basic blocks: all decrements in a
/// straight-line run (uninterrupted by control flow) merge into a single
/// `cd = cd - k;` at the head of the run — the `countdown -= 5` adjustment
/// the native compiler performs once the countdown lives in a local (§2.4).
///
/// Hoisting never crosses `if`/`while`/`return`/`break`/`continue`, so the
/// number of decrements executed along every path is preserved exactly.
fn coalesce_decrements(b: Block) -> Block {
    let mut out: Vec<Stmt> = Vec::with_capacity(b.stmts.len());
    let mut run: Vec<Stmt> = Vec::new();
    let mut total: u32 = 0;

    let flush = |out: &mut Vec<Stmt>, run: &mut Vec<Stmt>, total: &mut u32| {
        if *total > 0 {
            out.push(Stmt::Sample(Sample::Dec {
                reg: Countdown::Local,
                k: *total,
            }));
        }
        out.append(run);
        *total = 0;
    };

    for s in b.stmts {
        match s {
            Stmt::Sample(Sample::Dec { k, .. }) => total += k,
            Stmt::If {
                cond,
                then_block,
                else_block,
                span,
            } => {
                flush(&mut out, &mut run, &mut total);
                out.push(Stmt::If {
                    cond,
                    then_block: coalesce_decrements(then_block),
                    else_block: else_block.map(coalesce_decrements),
                    span,
                });
            }
            Stmt::While { cond, body, span } => {
                flush(&mut out, &mut run, &mut total);
                out.push(Stmt::While {
                    cond,
                    body: coalesce_decrements(body),
                    span,
                });
            }
            s @ (Stmt::Return { .. } | Stmt::Break { .. } | Stmt::Continue { .. }) => {
                flush(&mut out, &mut run, &mut total);
                out.push(s);
            }
            simple => run.push(simple),
        }
    }
    flush(&mut out, &mut run, &mut total);
    Block::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_minic::{parse, pretty};

    fn transform(src: &str, options: &TransformOptions) -> (Program, TransformStats, String) {
        let p = parse(src).unwrap();
        let (q, stats) = apply_sampling(&p, options).unwrap();
        let s = pretty(&q);
        (q, stats, s)
    }

    const TWO_SITES: &str = "fn f(ptr p, int i, int max) {\n\
        __check(0, p != null);\n\
        p = p + 1;\n\
        __check(1, i < max);\n\
        i = i + 1;\n\
    }";

    #[test]
    fn straight_line_gets_one_threshold_check_of_weight_two() {
        let (_, stats, s) = transform(TWO_SITES, &TransformOptions::default());
        let f = &stats.functions[0];
        assert_eq!(f.sites, 2);
        assert_eq!(f.threshold_checks, 1);
        assert_eq!(f.total_threshold_weight, 2);
        assert!(s.contains("if (__cd > 2)"), "{s}");
    }

    #[test]
    fn fast_path_coalesces_decrements() {
        let (_, _, s) = transform(TWO_SITES, &TransformOptions::default());
        assert!(s.contains("__cd = __cd - 2;"), "{s}");
        // Exactly one merged decrement on the fast path; the slow path has
        // two separate single decrements.
        assert_eq!(s.matches("__cd = __cd - 2;").count(), 1, "{s}");
        assert_eq!(s.matches("__cd = __cd - 1;").count(), 2, "{s}");
    }

    #[test]
    fn slow_path_guards_each_site() {
        let (_, _, s) = transform(TWO_SITES, &TransformOptions::default());
        assert_eq!(s.matches("if (__cd == 0)").count(), 2, "{s}");
        assert_eq!(s.matches("__next_cd()").count(), 2, "{s}");
        assert!(s.contains("__check(0, p != null);"), "{s}");
        assert!(s.contains("__check(1, i < max);"), "{s}");
    }

    #[test]
    fn local_mode_imports_and_exports() {
        let (_, _, s) = transform(TWO_SITES, &TransformOptions::default());
        assert!(s.contains("int __cd = __gcd;"), "{s}");
        assert!(s.contains("__gcd = __cd;"), "{s}");
    }

    #[test]
    fn global_mode_uses_global_directly_without_coalescing() {
        let opts = TransformOptions {
            countdown: Countdown::Global,
            ..TransformOptions::default()
        };
        let (_, _, s) = transform(TWO_SITES, &opts);
        assert!(!s.contains("__cd "), "no local countdown expected: {s}");
        assert!(s.contains("if (__gcd > 2)"), "{s}");
        // Two separate decrements in the fast path (no coalescing), plus two
        // in the slow path.
        assert_eq!(s.matches("__gcd = __gcd - 1;").count(), 4, "{s}");
    }

    #[test]
    fn devolved_mode_has_no_threshold_checks() {
        let opts = TransformOptions {
            regions: false,
            ..TransformOptions::default()
        };
        let (_, stats, s) = transform(TWO_SITES, &opts);
        assert_eq!(stats.functions[0].threshold_checks, 0);
        assert!(!s.contains("__cd > "), "{s}");
        assert_eq!(s.matches("if (__cd == 0)").count(), 2, "{s}");
    }

    #[test]
    fn loop_bodies_get_back_edge_checks() {
        let src = "fn f(int n) { int i = 0; while (i < n) { __check(0, i < 100); i = i + 1; } }";
        let (_, stats, s) = transform(src, &TransformOptions::default());
        let f = &stats.functions[0];
        assert_eq!(f.threshold_checks, 1);
        // The threshold check sits inside the loop body.
        let while_pos = s.find("while").unwrap();
        let check_pos = s.find("if (__cd > 1)").unwrap();
        assert!(check_pos > while_pos, "{s}");
    }

    #[test]
    fn site_free_loops_stay_inside_segments() {
        let src = "fn f(int n) {\n\
            __check(0, n > 0);\n\
            int i = 0;\n\
            while (i < n) { i = i + 1; }\n\
            __check(1, i == n);\n\
        }";
        let (_, stats, _) = transform(src, &TransformOptions::default());
        // One region spanning the weightless loop: a single check, weight 2.
        let f = &stats.functions[0];
        assert_eq!(f.threshold_checks, 1);
        assert_eq!(f.total_threshold_weight, 2);
    }

    #[test]
    fn if_weight_is_max_of_branches() {
        let src = "fn f(int x) {\n\
            if (x > 0) { __check(0, x < 10); __check(1, x < 20); } else { __check(2, x > -10); }\n\
        }";
        let (_, stats, _) = transform(src, &TransformOptions::default());
        let f = &stats.functions[0];
        assert_eq!(f.threshold_checks, 1);
        assert_eq!(f.total_threshold_weight, 2, "max(2, 1)");
    }

    #[test]
    fn weightless_calls_do_not_break_regions() {
        let src = "fn helper(int x) -> int { return x + 1; }\n\
            fn f(int x) {\n\
            __check(0, x > 0);\n\
            int y = helper(x);\n\
            __check(1, y > 1);\n\
        }";
        let (_, stats, _) = transform(src, &TransformOptions::default());
        let f = stats.functions.iter().find(|f| f.name == "f").unwrap();
        assert_eq!(f.threshold_checks, 1, "single region across the call");
        assert_eq!(f.total_threshold_weight, 2);
        let h = stats.functions.iter().find(|f| f.name == "helper").unwrap();
        assert!(h.weightless);
    }

    #[test]
    fn heavy_calls_break_regions_with_export_import() {
        let src = "fn heavy(int x) -> int { __obs_sign(9, x); return x; }\n\
            fn f(int x) {\n\
            __check(0, x > 0);\n\
            int y = heavy(x);\n\
            __check(2, y > 1);\n\
        }";
        let (_, stats, s) = transform(src, &TransformOptions::default());
        let f = stats.functions.iter().find(|f| f.name == "f").unwrap();
        assert_eq!(f.threshold_checks, 2, "regions split at the call");
        // Export before the call, import after.
        let call = s.find("int y = heavy(x);").unwrap();
        let export = s[..call]
            .rfind("__gcd = __cd;")
            .expect("export before call");
        let import = s[call..].find("__cd = __gcd;").expect("import after call");
        assert!(export < call && import > 0);
    }

    #[test]
    fn separate_compilation_breaks_all_call_regions() {
        let src = "fn helper(int x) -> int { return x + 1; }\n\
            fn f(int x) {\n\
            __check(0, x > 0);\n\
            int y = helper(x);\n\
            __check(1, y > 1);\n\
        }";
        let opts = TransformOptions {
            interprocedural: false,
            ..TransformOptions::default()
        };
        let (_, stats, _) = transform(src, &opts);
        let f = stats.functions.iter().find(|f| f.name == "f").unwrap();
        assert_eq!(f.threshold_checks, 2);
        assert_eq!(stats.weightless_functions(), 0);
    }

    #[test]
    fn functions_without_sites_untouched() {
        let src = "fn quiet(int x) -> int { return x * 2; }\n\
                   fn f(int x) { __check(0, x > 0); }";
        let p = parse(src).unwrap();
        let (q, _) = apply_sampling(&p, &TransformOptions::default()).unwrap();
        assert_eq!(
            p.function("quiet").unwrap().body,
            q.function("quiet").unwrap().body
        );
    }

    #[test]
    fn transformed_program_still_resolves() {
        let src = "fn heavy(int x) -> int { __obs_sign(9, x); return x; }\n\
            fn f(int x) {\n\
            __check(0, x > 0);\n\
            int y = heavy(x);\n\
            int i = 0;\n\
            while (i < y) { __check(2, i < 100); i = i + 1; }\n\
        }\n\
        fn main() -> int { f(3); return 0; }";
        let p = parse(src).unwrap();
        let (q, _) = apply_sampling(&p, &TransformOptions::default()).unwrap();
        cbi_minic::resolve(&q).unwrap_or_else(|e| panic!("{e}\n{}", pretty(&q)));
        // And the pretty-printed form re-parses to the same program shape.
        let reparsed = parse(&pretty(&q)).unwrap();
        assert_eq!(pretty(&reparsed), pretty(&q));
    }

    #[test]
    fn double_transformation_rejected() {
        let p = parse(TWO_SITES).unwrap();
        let (q, _) = apply_sampling(&p, &TransformOptions::default()).unwrap();
        assert!(apply_sampling(&q, &TransformOptions::default()).is_err());
    }

    #[test]
    fn user_countdown_names_rejected() {
        // A user local named `__cd` would become the countdown: its
        // initializer would reset it and the transform would decrement it.
        let src = "fn h(int x) -> int { return x - 3; }\n\
            fn g(int x) -> int { int __cd = 1000; int y = h(x); print(__cd); return y + h(y); }\n\
            fn main() -> int { int a = g(read()); print(a); return 0; }";
        let err = apply_sampling(&parse(src).unwrap(), &TransformOptions::default()).unwrap_err();
        assert_eq!(
            err.message(),
            "function `g` names `__cd`, the sampling countdown's name; refusing to transform"
        );
        for (src, who) in [
            (
                "fn f(int __cd) -> int { return __cd; }",
                "function `f` names `__cd`",
            ),
            (
                "fn f() -> int { int __gcd = 1; return __gcd; }",
                "function `f` names `__gcd`",
            ),
            (
                "fn f() -> int { print(__cd); return 0; }",
                "function `f` names `__cd`",
            ),
            ("int __cd = 1; fn f() -> int { return 0; }", "global `__cd`"),
        ] {
            let err =
                apply_sampling(&parse(src).unwrap(), &TransformOptions::default()).unwrap_err();
            assert!(err.message().contains(who), "{src}: {}", err.message());
        }
    }

    #[test]
    fn returns_get_countdown_export() {
        let src = "fn f(int x) -> int { __check(0, x > 0); if (x > 5) { return 1; } return 0; }";
        let (_, _, s) = transform(src, &TransformOptions::default());
        // Exports appear before both returns; the body ends in a return,
        // so there is no fall-through export after it.
        assert_eq!(s.matches("__gcd = __cd;").count(), 2, "{s}");
        let ret1 = s.find("return 1;").unwrap();
        assert!(s[..ret1].rfind("__gcd = __cd;").is_some(), "{s}");
        assert!(s.trim_end().ends_with("return 0;\n}"), "{s}");
    }

    #[test]
    fn site_free_ends_of_a_region_run_once() {
        let src = "fn f(int x) -> int {\n\
            int y = x + 1;\n\
            __check(0, x > 0);\n\
            y = y * 2;\n\
            __check(1, y > 0);\n\
            print(y);\n\
            return y;\n\
        }";
        let (q, stats, s) = transform(src, &TransformOptions::default());
        assert_eq!(stats.functions[0].total_threshold_weight, 2);
        // The prefix and suffix appear once; the middle, between the two
        // sites, in both clones.
        assert_eq!(s.matches("int y = x + 1;").count(), 1, "{s}");
        assert_eq!(s.matches("print(y);").count(), 1, "{s}");
        assert_eq!(s.matches("y = y * 2;").count(), 2, "{s}");
        let body = &q.function("f").unwrap().body.stmts;
        assert!(matches!(body[1], Stmt::Decl { .. }), "{s}");
        assert!(
            matches!(body[2], Stmt::Sample(Sample::Threshold { .. })),
            "{s}"
        );
        assert!(matches!(body.last(), Some(Stmt::Return { .. })), "{s}");
    }

    #[test]
    fn stats_aggregates() {
        let src = "fn a(int x) { __check(0, x > 1); __check(1, x > 2); }\n\
                   fn b(int x) { __check(2, x > 1); }\n\
                   fn c() { print(1); }";
        let (_, stats, _) = transform(src, &TransformOptions::default());
        assert_eq!(stats.functions_with_sites(), 2);
        assert_eq!(stats.weightless_functions(), 1);
        assert!((stats.avg_sites() - 1.5).abs() < 1e-9);
        assert!(stats.avg_threshold_weight() >= 1.0);
    }

    #[test]
    fn segment_weight_rules() {
        let p = parse(
            "fn f(int x) { __check(0, x > 0); if (x > 1) { __check(1, x > 2); } while (x < 0) { x = x + 1; } }",
        )
        .unwrap();
        let f = p.function("f").unwrap();
        assert_eq!(segment_weight(&f.body.stmts), 2);
    }
}
