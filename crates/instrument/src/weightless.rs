//! Weightless-function analysis (§2.3).
//!
//! A function is *weightless* when it contains no instrumentation sites and
//! only calls other weightless functions.  Calls to weightless functions
//! are invisible to the sampling transformation: acyclic regions extend
//! across them, no threshold check is needed after they return, and their
//! bodies need no cloning or countdown plumbing at all.
//!
//! Computed with the standard iterative fixpoint: start from "everything
//! weightless", knock out functions that contain sites, then propagate
//! non-weightlessness backwards along call edges until stable.

use crate::sites::site_stmt;
use cbi_minic::ast::*;
use cbi_minic::Builtin;
use std::collections::{HashMap, HashSet};

/// Computes the set of weightless functions of an instrumented program.
///
/// `interprocedural` mirrors whole-program analysis (CCured-style, §3.1.1).
/// When `false` — separate compilation, as for ccrypt in §3.2.5 — the
/// result is empty: every call must conservatively be assumed to reach
/// instrumented code.
pub fn weightless_functions(program: &Program, interprocedural: bool) -> HashSet<String> {
    if !interprocedural {
        return HashSet::new();
    }

    // Call graph and local site presence.
    let mut callees: HashMap<&str, Vec<String>> = HashMap::new();
    let mut heavy: Vec<&str> = Vec::new();
    let defined: HashSet<&str> = program.functions.iter().map(|f| f.name.as_str()).collect();

    for f in &program.functions {
        let mut calls = Vec::new();
        let mut has_site = false;
        collect_block(&f.body, &mut calls, &mut has_site);
        if has_site {
            heavy.push(&f.name);
        }
        // Builtin calls are weightless; calls to undefined names cannot
        // occur in resolved programs but are treated as heavy for safety.
        let mut heavy_call = false;
        calls.retain(|c| {
            if Builtin::from_name(c).is_some() {
                return false;
            }
            if !defined.contains(c.as_str()) {
                heavy_call = true;
                return false;
            }
            true
        });
        if heavy_call && !heavy.contains(&f.name.as_str()) {
            heavy.push(&f.name);
        }
        callees.insert(&f.name, calls);
    }

    let mut weightless: HashSet<String> =
        program.functions.iter().map(|f| f.name.clone()).collect();
    for h in &heavy {
        weightless.remove(*h);
    }

    // Propagate: a function calling a non-weightless function is itself
    // non-weightless.
    let mut changed = true;
    while changed {
        changed = false;
        for f in &program.functions {
            if !weightless.contains(&f.name) {
                continue;
            }
            let calls = &callees[f.name.as_str()];
            if calls.iter().any(|c| !weightless.contains(c)) {
                weightless.remove(&f.name);
                changed = true;
            }
        }
    }
    weightless
}

fn collect_block(b: &Block, calls: &mut Vec<String>, has_site: &mut bool) {
    for s in &b.stmts {
        collect_stmt(s, calls, has_site);
    }
}

fn collect_stmt(s: &Stmt, calls: &mut Vec<String>, has_site: &mut bool) {
    // An already transformed program keeps its sites in sample guards.
    if site_stmt(s).is_some() || matches!(s, Stmt::Sample(Sample::Guard { .. })) {
        *has_site = true;
        // The observation arguments contain no user calls (schemes only
        // reference variables and literals), so no need to walk them.
        return;
    }
    for e in s.exprs() {
        e.called_names(calls);
    }
    for b in s.blocks() {
        collect_block(b, calls, has_site);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_minic::parse;

    fn wl(src: &str) -> HashSet<String> {
        let p = parse(src).unwrap();
        weightless_functions(&p, true)
    }

    #[test]
    fn all_weightless_without_sites() {
        let set = wl("fn a() { b(); } fn b() { print(1); }");
        assert!(set.contains("a") && set.contains("b"));
    }

    #[test]
    fn site_makes_function_heavy() {
        let set = wl("fn a(int x) { __check(0, x > 0); }");
        assert!(!set.contains("a"));
    }

    #[test]
    fn heaviness_propagates_up_call_chain() {
        let set = wl("fn leaf(int x) { __cmp(0, x, 2); } \
             fn mid() { leaf(0); } \
             fn top() { mid(); } \
             fn aside() { print(1); }");
        assert!(!set.contains("leaf"));
        assert!(!set.contains("mid"));
        assert!(!set.contains("top"));
        assert!(set.contains("aside"));
    }

    #[test]
    fn recursion_handled() {
        let set = wl(
            "fn even(int n) -> int { if (n == 0) { return 1; } return odd(n - 1); } \
                      fn odd(int n) -> int { if (n == 0) { return 0; } return even(n - 1); }",
        );
        assert!(set.contains("even") && set.contains("odd"));

        let set2 = wl(
            "fn even(int n) -> int { __obs_sign(0, n); if (n == 0) { return 1; } return odd(n - 1); } \
             fn odd(int n) -> int { if (n == 0) { return 0; } return even(n - 1); }",
        );
        assert!(!set2.contains("even") && !set2.contains("odd"));
    }

    #[test]
    fn separate_compilation_mode_is_empty() {
        let p = parse("fn a() { print(1); }").unwrap();
        assert!(weightless_functions(&p, false).is_empty());
    }

    #[test]
    fn sites_in_nested_control_flow_detected() {
        let set = wl("fn a(int n) { int i = 0; while (i < n) { if (i > 2) { __check(0, i < 100); } i = i + 1; } }");
        assert!(!set.contains("a"));
    }

    #[test]
    fn builtin_calls_stay_weightless() {
        let set = wl("fn a() -> int { ptr p = alloc(3); free(p); return read() + has_input(); }");
        assert!(set.contains("a"));
    }
}
