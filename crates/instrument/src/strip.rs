//! Stripping instrumentation: produce the baseline program.
//!
//! The performance baseline in Table 2 is "code translated by CCured and
//! from which all dynamic memory safety checks are removed".  This pass
//! removes every site statement (and inert `check(...)` markers), yielding
//! the instrumentation-free program the overhead ratios compare against.

use crate::sites::site_stmt;
use cbi_minic::ast::*;

/// Removes all instrumentation-site statements and `check` markers.
pub fn strip_sites(program: &Program) -> Program {
    let mut out = program.clone();
    for f in &mut out.functions {
        f.body = strip_block(&f.body);
    }
    out
}

/// Removes sites only in functions for which `keep` returns `false`;
/// functions where `keep` is `true` retain their instrumentation.  Used by
/// the statically-selective experiments of §3.1.2.
pub fn strip_sites_except(program: &Program, keep: impl Fn(&str) -> bool) -> Program {
    let mut out = program.clone();
    for f in &mut out.functions {
        if !keep(&f.name) {
            f.body = strip_block(&f.body);
        }
    }
    out
}

fn strip_block(b: &Block) -> Block {
    let mut stmts = Vec::with_capacity(b.stmts.len());
    for s in &b.stmts {
        if site_stmt(s).is_some() || matches!(s, Stmt::Check { .. }) {
            continue;
        }
        stmts.push(s.with_blocks(strip_block));
    }
    Block::new(stmts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_minic::{parse, pretty};

    #[test]
    fn removes_all_site_statements() {
        let p = parse(
            "fn f(int x) { __check(0, x > 0); if (x > 1) { __cmp(1, x, 5); } \
             while (x < 9) { __obs_sign(2, x); x = x + 1; } print(x); }",
        )
        .unwrap();
        let stripped = strip_sites(&p);
        let s = pretty(&stripped);
        assert!(!s.contains("__check") && !s.contains("__cmp") && !s.contains("__obs_sign"));
        assert!(s.contains("print(x);"));
        assert!(s.contains("while"));
    }

    #[test]
    fn removes_check_markers() {
        let p = parse("fn f(ptr p) { check(p != null); free(p); }").unwrap();
        let s = pretty(&strip_sites(&p));
        assert!(!s.contains("check("));
        assert!(s.contains("free(p);"));
    }

    #[test]
    fn selective_strip_keeps_chosen_function() {
        let p =
            parse("fn a(int x) { __check(0, x > 0); } fn b(int x) { __check(1, x > 0); }").unwrap();
        let out = strip_sites_except(&p, |name| name == "a");
        let s = pretty(&out);
        let a_pos = s.find("fn a").unwrap();
        let b_pos = s.find("fn b").unwrap();
        let a_body = &s[a_pos..b_pos];
        let b_body = &s[b_pos..];
        assert!(a_body.contains("__check"));
        assert!(!b_body.contains("__check"));
    }

    #[test]
    fn strip_is_idempotent() {
        let p = parse("fn f(int x) { __check(0, x > 0); print(1); }").unwrap();
        let once = strip_sites(&p);
        let twice = strip_sites(&once);
        assert_eq!(pretty(&once), pretty(&twice));
    }
}
