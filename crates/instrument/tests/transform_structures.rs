//! Structural stress tests for the sampling transformation: deep nesting,
//! mixed boundaries, and the exact placement rules of §2.2–§2.4.

use cbi_instrument::{
    apply_sampling, count_sites_block, instrument, single_function_variants, strip_sites, Scheme,
    TransformOptions,
};
use cbi_minic::ast::{Sample, Stmt};
use cbi_minic::{parse, pretty, resolve, Countdown};

fn transform(
    src: &str,
    options: &TransformOptions,
) -> (cbi_minic::Program, cbi_instrument::TransformStats, String) {
    let p = parse(src).unwrap();
    let (q, stats) = apply_sampling(&p, options).unwrap();
    resolve(&q).unwrap_or_else(|e| panic!("{e}\n{}", pretty(&q)));
    let s = pretty(&q);
    (q, stats, s)
}

#[test]
fn triple_nested_loops_get_checks_at_every_level() {
    let src = "fn f(int n) {\n\
        __check(0, n > 0);\n\
        int i = 0;\n\
        while (i < n) {\n\
            __check(1, i < n);\n\
            int j = 0;\n\
            while (j < n) {\n\
                __check(2, j < n);\n\
                int k = 0;\n\
                while (k < n) {\n\
                    __check(3, k < n);\n\
                    k = k + 1;\n\
                }\n\
                j = j + 1;\n\
            }\n\
            i = i + 1;\n\
        }\n\
    }";
    let (_, stats, s) = transform(src, &TransformOptions::default());
    let f = &stats.functions[0];
    // One region per nesting level: entry + each loop body prefix + each
    // loop body suffix region as segmentation dictates; at minimum 4.
    assert!(f.threshold_checks >= 4, "stats: {f:?}\n{s}");
    assert_eq!(f.sites, 4);
}

#[test]
fn if_containing_loop_forces_recursion_but_keeps_outer_segments() {
    let src = "fn f(int n) {\n\
        __check(0, n > 0);\n\
        if (n > 10) {\n\
            int i = 0;\n\
            while (i < n) { __check(1, i < 100); i = i + 1; }\n\
        }\n\
        __check(2, n < 1000);\n\
    }";
    let (_, stats, s) = transform(src, &TransformOptions::default());
    let f = &stats.functions[0];
    // Segment before the if, the loop-body region inside, segment after.
    assert_eq!(f.threshold_checks, 3, "{s}");
    // The leading and trailing checks have weight 1 each, the loop body 1.
    assert_eq!(f.total_threshold_weight, 3, "{s}");
}

#[test]
fn else_branch_sites_counted_in_weights() {
    let src = "fn f(int n) {\n\
        if (n > 0) { __check(0, n < 50); } else { __check(1, n > -50); __check(2, n > -90); }\n\
        __check(3, n != 7);\n\
    }";
    let (_, stats, _) = transform(src, &TransformOptions::default());
    let f = &stats.functions[0];
    assert_eq!(f.threshold_checks, 1);
    // max(1, 2) from the branches + 1 after = weight 3 in one region.
    assert_eq!(f.total_threshold_weight, 3);
}

#[test]
fn consecutive_heavy_calls_create_one_region_per_gap() {
    let src = "fn h(int x) -> int { __obs_sign(0, x); return x; }\n\
        fn f(int x) {\n\
            __check(1, x > 0);\n\
            int a = h(x);\n\
            int b = h(a);\n\
            int c = h(b);\n\
            __check(2, c > 0);\n\
        }";
    let (_, stats, s) = transform(src, &TransformOptions::default());
    let f = stats.functions.iter().find(|f| f.name == "f").unwrap();
    // Regions: before first call, and after last call.  The gaps between
    // calls contain no sites, so no threshold checks appear there.
    assert_eq!(f.threshold_checks, 2, "{s}");
    // Exports and imports wrap each call.
    assert!(s.matches("__gcd = __cd;").count() >= 3, "{s}");
}

#[test]
fn break_and_continue_survive_cloning() {
    let src = "fn f(int n) {\n\
        int i = 0;\n\
        while (i < n) {\n\
            __check(0, i < 100);\n\
            if (i == 3) { i = i + 2; continue; }\n\
            if (i > 7) { break; }\n\
            i = i + 1;\n\
        }\n\
    }";
    let (q, _, s) = transform(src, &TransformOptions::default());
    // The loop body's region is its one site; the site-free conditionals
    // after it run once, after the threshold check, not once per clone.
    assert_eq!(s.matches("continue;").count(), 1, "{s}");
    assert_eq!(s.matches("break;").count(), 1, "{s}");
    let f = q.function("f").unwrap();
    let Some(Stmt::While { body, .. }) = f
        .body
        .stmts
        .iter()
        .find(|s| matches!(s, Stmt::While { .. }))
    else {
        panic!("loop survives: {s}");
    };
    let at = |pred: fn(&Stmt) -> bool| {
        body.stmts
            .iter()
            .position(|s| s.blocks().any(|b| b.stmts.iter().any(pred)))
    };
    let threshold = body
        .stmts
        .iter()
        .position(|s| matches!(s, Stmt::Sample(Sample::Threshold { .. })))
        .unwrap_or_else(|| panic!("loop body has a threshold check: {s}"));
    let cont = at(|s| matches!(s, Stmt::Continue { .. })).expect("continue in the loop body");
    let brk = at(|s| matches!(s, Stmt::Break { .. })).expect("break in the loop body");
    assert!(threshold < cont && cont < brk, "{s}");
    resolve(&q).unwrap();
}

#[test]
fn devolved_mode_counts_no_thresholds_anywhere() {
    let src =
        "fn f(int n) { int i = 0; while (i < n) { __check(0, 1); __check(1, 1); i = i + 1; } }";
    let opts = TransformOptions {
        regions: false,
        ..TransformOptions::default()
    };
    let (_, stats, s) = transform(src, &opts);
    assert_eq!(stats.functions[0].threshold_checks, 0);
    assert_eq!(stats.functions[0].total_threshold_weight, 0);
    assert!(!s.contains("> 2"), "no weight-2 threshold: {s}");
}

#[test]
fn global_mode_emits_no_local_countdown_anywhere() {
    let src = "fn h(int x) -> int { __obs_sign(0, x); return x; }\n\
        fn f(int x) { __check(1, x > 0); int y = h(x); __check(2, y > 0); }";
    let opts = TransformOptions {
        countdown: Countdown::Global,
        ..TransformOptions::default()
    };
    let (_, _, s) = transform(src, &opts);
    assert!(!s.contains("__cd"), "{s}");
    assert!(s.contains("__gcd"), "{s}");
}

#[test]
fn site_only_in_loop_means_zero_weight_entry_region() {
    // The function-entry region has no sites; §2.2 discards zero-weight
    // threshold checks, so the only check is inside the loop.
    let src = "fn f(int n) { int i = 0; while (i < n) { __check(0, 1); i = i + 1; } print(n); }";
    let (_, stats, s) = transform(src, &TransformOptions::default());
    assert_eq!(stats.functions[0].threshold_checks, 1);
    let while_pos = s.find("while").unwrap();
    let check_pos = s.find("if (__cd >").unwrap();
    assert!(check_pos > while_pos, "check must be inside the loop: {s}");
}

#[test]
fn variants_cover_each_function_and_preserve_other_code() {
    let src = "fn a(int x) { __check(0, x > 0); }\n\
        fn b(int x) { __check(1, x > 1); __check(2, x > 2); }\n\
        fn c(int x) -> int { return x * 2; }";
    let p = parse(src).unwrap();
    let inst = instrument(&strip_sites(&p), Scheme::Checks).unwrap();
    let _ = inst; // `p` already carries handwritten sites; build variants on it.
    let fake = cbi_instrument::Instrumented {
        program: p.clone(),
        sites: {
            let mut t = cbi_instrument::SiteTable::new();
            t.add(
                "a",
                cbi_minic::Span::new(1, 1),
                cbi_instrument::SiteKind::Assert,
                "x > 0".into(),
            );
            t.add(
                "b",
                cbi_minic::Span::new(2, 1),
                cbi_instrument::SiteKind::Assert,
                "x > 1".into(),
            );
            t.add(
                "b",
                cbi_minic::Span::new(2, 2),
                cbi_instrument::SiteKind::Assert,
                "x > 2".into(),
            );
            t
        },
        scheme: Scheme::Checks,
    };
    let variants = single_function_variants(&fake);
    assert_eq!(variants.len(), 2);
    for v in &variants {
        let kept: usize = v
            .program
            .functions
            .iter()
            .map(|f| count_sites_block(&f.body))
            .sum();
        let own = count_sites_block(&v.program.function(&v.function).unwrap().body);
        assert_eq!(kept, own, "variant keeps only its own sites");
        assert!(
            v.program.function("c").is_some(),
            "uninstrumented code kept"
        );
    }
}

#[test]
fn transformation_depth_is_robust_to_pathological_nesting() {
    // 12 nested loops, site at the innermost level.
    let mut src = String::from("fn f(int n) {\n");
    for d in 0..12 {
        src.push_str(&format!("int i{d} = 0;\nwhile (i{d} < 2) {{\n"));
    }
    src.push_str("__check(0, 1);\n");
    for d in 0..12 {
        src.push_str(&format!("i{d} = i{d} + 1;\n}}\n"));
    }
    src.push('}');
    let (q, stats, _) = transform(&src, &TransformOptions::default());
    assert_eq!(stats.functions[0].sites, 1);
    assert!(stats.functions[0].threshold_checks >= 1);
    resolve(&q).unwrap();
}
