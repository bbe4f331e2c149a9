//! Seeded random generators of *well-formed, crash-free, terminating*
//! MiniC programs, for differential testing:
//!
//! * `parse(pretty(p))` must be structurally identical to `p`;
//! * the VM must produce identical output for a program and its
//!   pretty-printed/re-parsed form;
//! * instrumented and sampling-transformed builds must produce the same
//!   output as the baseline;
//! * name-map and slot-resolved interpretation must agree exactly.
//!
//! Generation is driven by the repository's own [`Pcg32`] PRNG, so every
//! test case is reproducible from a seed with no external dependencies.
//! Generated programs use a fixed set of int variables (`v0..`), a fixed
//! pointer variable `buf` over a block with all indices reduced modulo its
//! length, division only by nonzero constants, and loops in the shape
//! `i = 0; while (i < K) { …; i = i + 1; }` with a bounded `K` — so every
//! generated program terminates successfully by construction.
//!
//! The program shape is fixed by this module's constants, so a seed keeps
//! its meaning; [`GenConfig`] only lets consumers such as the
//! fault-injection corpus wire the first few variables to scripted input.

#![forbid(unsafe_code)]

use cbi_minic::ast::*;
use cbi_minic::Span;
use cbi_sampler::Pcg32;

/// Maximum recursion depth for arithmetic expressions.
const EXPR_DEPTH: usize = 3;

/// Maximum recursion depth for boolean conditions.
const COND_DEPTH: usize = 2;

/// Maximum recursion depth for compound statements: each level allows
/// one more tier of `if`/`while` nesting and needs one more loop counter.
const STMT_DEPTH: usize = 2;

/// Loop counters a program declares: one per nesting level plus the
/// digest loop.
const LOOP_COUNTERS: usize = STMT_DEPTH + 1;

/// Number of scalar int variables `v0..v3`, initialized `1..=4`.
const INT_VARS: usize = 4;

/// Exclusive upper bound on generated loop trip counts: bounds are
/// uniform in `1..LOOP_BOUND`.
const LOOP_BOUND: i64 = 6;

/// Cells in the single heap buffer `buf`; all generated indices are
/// reduced modulo this length.
pub const BUF_LEN: i64 = 8;

/// Generation knobs.  The default reproduces the generator's historical
/// output exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenConfig {
    /// The first `input_vars` int variables are re-initialized from
    /// scripted input when present (`if (has_input() != 0) v = read();`),
    /// so trials can perturb program state.  `0` (the default) consumes
    /// no input and leaves the historical output untouched.
    pub input_vars: usize,
}

/// Name of the `i`-th scalar variable.
fn var_name(i: usize) -> String {
    format!("v{i}")
}

/// Name of the loop counter used at nesting depth `d`.
fn loop_counter(d: usize) -> String {
    format!("lc{d}")
}

fn sp() -> Span {
    Span::new(1, 1)
}

fn pick(rng: &mut Pcg32, n: usize) -> usize {
    rng.below(n as u64) as usize
}

/// Integer uniform in `lo..hi` (half-open, like the proptest ranges the
/// generator grew out of).
fn int_in(rng: &mut Pcg32, lo: i64, hi: i64) -> i64 {
    lo + rng.below((hi - lo) as u64) as i64
}

/// Generates an arithmetic expression over the configured int variables.
///
/// Division and modulus only ever use nonzero constant divisors, so
/// generated expressions cannot trap.
fn gen_int_expr(rng: &mut Pcg32) -> Expr {
    gen_int_expr_at(rng, EXPR_DEPTH)
}

fn gen_leaf(rng: &mut Pcg32) -> Expr {
    if rng.below(2) == 0 {
        Expr::Int {
            value: int_in(rng, -50, 50),
            span: sp(),
        }
    } else {
        Expr::Var {
            name: var_name(pick(rng, INT_VARS)),
            span: sp(),
        }
    }
}

fn gen_int_expr_at(rng: &mut Pcg32, depth: usize) -> Expr {
    // Bias toward leaves as in the proptest recursive strategy: half of
    // all draws stop early even when depth remains.
    if depth == 0 || rng.below(2) == 0 {
        return gen_leaf(rng);
    }
    match rng.below(5) {
        0 => {
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][pick(rng, 3)];
            Expr::Binary {
                op,
                lhs: Box::new(gen_int_expr_at(rng, depth - 1)),
                rhs: Box::new(gen_int_expr_at(rng, depth - 1)),
                span: sp(),
            }
        }
        1 => Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(gen_int_expr_at(rng, depth - 1)),
            rhs: Box::new(Expr::Int {
                value: int_in(rng, 1, 9),
                span: sp(),
            }),
            span: sp(),
        },
        2 => Expr::Binary {
            op: BinOp::Mod,
            lhs: Box::new(gen_int_expr_at(rng, depth - 1)),
            rhs: Box::new(Expr::Int {
                value: int_in(rng, 1, 9),
                span: sp(),
            }),
            span: sp(),
        },
        3 => Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(gen_int_expr_at(rng, depth - 1)),
            span: sp(),
        },
        // A bounded heap read: buf[(e % L + L) % L].
        _ => Expr::Load {
            ptr: Box::new(Expr::var("buf")),
            index: Box::new(bounded_index(gen_int_expr_at(rng, depth - 1), BUF_LEN)),
            span: sp(),
        },
    }
}

fn gen_cmp_op(rng: &mut Pcg32) -> BinOp {
    [
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
    ][pick(rng, 6)]
}

/// `(e % L + L) % L` — always a valid index into an `L`-cell buffer.
fn bounded_index(e: Expr, len: i64) -> Expr {
    let m = Expr::binary(BinOp::Mod, e, Expr::int(len));
    let plus = Expr::binary(BinOp::Add, m, Expr::int(len));
    Expr::binary(BinOp::Mod, plus, Expr::int(len))
}

/// Generates a boolean condition (comparisons and their combinations).
fn gen_cond(rng: &mut Pcg32) -> Expr {
    gen_cond_at(rng, COND_DEPTH)
}

fn gen_cond_at(rng: &mut Pcg32, depth: usize) -> Expr {
    if depth == 0 || rng.below(2) == 0 {
        return Expr::Binary {
            op: gen_cmp_op(rng),
            lhs: Box::new(gen_int_expr(rng)),
            rhs: Box::new(gen_int_expr(rng)),
            span: sp(),
        };
    }
    match rng.below(3) {
        0 => Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(gen_cond_at(rng, depth - 1)),
            rhs: Box::new(gen_cond_at(rng, depth - 1)),
            span: sp(),
        },
        1 => Expr::Binary {
            op: BinOp::Or,
            lhs: Box::new(gen_cond_at(rng, depth - 1)),
            rhs: Box::new(gen_cond_at(rng, depth - 1)),
            span: sp(),
        },
        _ => Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(gen_cond_at(rng, depth - 1)),
            span: sp(),
        },
    }
}

/// Generates a statement (assignment, store, check, print, if, bounded
/// loop).
fn gen_stmt(rng: &mut Pcg32) -> Stmt {
    gen_stmt_at(rng, STMT_DEPTH)
}

fn gen_simple_stmt(rng: &mut Pcg32) -> Stmt {
    match rng.below(4) {
        0 => Stmt::Assign {
            name: var_name(pick(rng, INT_VARS)),
            value: gen_int_expr(rng),
            span: sp(),
        },
        1 => Stmt::Store {
            target: "buf".to_string(),
            index: bounded_index(gen_int_expr(rng), BUF_LEN),
            value: gen_int_expr(rng),
            span: sp(),
        },
        2 => Stmt::Expr {
            expr: Expr::call("print", vec![gen_int_expr(rng)]),
            span: sp(),
        },
        // check(cond || 1) — a user assertion that can never fail, so
        // instrumented builds stay crash-free.
        _ => Stmt::Check {
            cond: Expr::binary(BinOp::Or, gen_cond(rng), Expr::int(1)),
            span: sp(),
        },
    }
}

fn gen_block(rng: &mut Pcg32, depth: usize) -> Block {
    let n = 1 + pick(rng, 3);
    Block::new((0..n).map(|_| gen_stmt_at(rng, depth)).collect())
}

fn gen_stmt_at(rng: &mut Pcg32, depth: usize) -> Stmt {
    if depth == 0 || rng.below(2) == 0 {
        return gen_simple_stmt(rng);
    }
    if rng.below(2) == 0 {
        let cond = gen_cond(rng);
        let then_block = gen_block(rng, depth - 1);
        let else_block = if rng.below(2) == 0 {
            Some(gen_block(rng, depth - 1))
        } else {
            None
        };
        Stmt::If {
            cond,
            then_block,
            else_block,
            span: sp(),
        }
    } else {
        let k = int_in(rng, 1, LOOP_BOUND);
        let body = gen_block(rng, depth - 1);
        bounded_loop(k, body)
    }
}

fn bounded_loop(k: i64, body: Block) -> Stmt {
    // Nested loops reuse distinct counters by depth; generation recursion
    // depth is bounded by `STMT_DEPTH`, and every program declares one
    // counter per level, so termination is structural.  Reassignment of
    // the same counter at the same depth is harmless: the loop resets it
    // to zero.
    let depth = loop_depth(&body).min(LOOP_COUNTERS - 1);
    let counter = loop_counter(depth);
    let mut stmts = vec![Stmt::Assign {
        name: counter.clone(),
        value: Expr::int(0),
        span: sp(),
    }];
    let mut inner = body.stmts;
    inner.push(Stmt::Assign {
        name: counter.clone(),
        value: Expr::binary(BinOp::Add, Expr::var(&counter), Expr::int(1)),
        span: sp(),
    });
    stmts.push(Stmt::While {
        cond: Expr::binary(BinOp::Lt, Expr::var(&counter), Expr::int(k)),
        body: Block::new(inner),
        span: sp(),
    });
    Stmt::If {
        cond: Expr::int(1),
        then_block: Block::new(stmts),
        else_block: None,
        span: sp(),
    }
}

fn loop_depth(b: &Block) -> usize {
    b.stmts
        .iter()
        .map(|s| match s {
            Stmt::While { body, .. } => 1 + loop_depth(body),
            Stmt::If {
                then_block,
                else_block,
                ..
            } => loop_depth(then_block).max(else_block.as_ref().map_or(0, loop_depth)),
            _ => 0,
        })
        .max()
        .unwrap_or(0)
}

/// Generates a whole program: `main` declares the configured variables, a
/// heap buffer, optionally reads scripted input into the first few
/// variables, runs 2–8 generated statements, prints a digest of all
/// state, and exits 0.
fn gen_program(rng: &mut Pcg32, cfg: &GenConfig) -> Program {
    let n = 2 + pick(rng, 6);
    let stmts: Vec<Stmt> = (0..n).map(|_| gen_stmt(rng)).collect();
    let mut body = Vec::new();
    for c in 0..LOOP_COUNTERS {
        body.push(Stmt::Decl {
            ty: Type::Int,
            name: loop_counter(c),
            init: None,
            span: sp(),
        });
    }
    for i in 0..INT_VARS {
        body.push(Stmt::Decl {
            ty: Type::Int,
            name: var_name(i),
            init: Some(Expr::int(i as i64 + 1)),
            span: sp(),
        });
    }
    body.push(Stmt::Decl {
        ty: Type::Ptr,
        name: "buf".to_string(),
        init: Some(Expr::call("alloc", vec![Expr::int(BUF_LEN)])),
        span: sp(),
    });
    // Scripted input, if configured: trial tokens overwrite the leading
    // variables, so different inputs exercise different program states.
    // Draws nothing from the generator RNG, keeping seeds stable.
    for i in 0..cfg.input_vars.min(INT_VARS) {
        body.push(Stmt::If {
            cond: Expr::binary(BinOp::Ne, Expr::call("has_input", vec![]), Expr::int(0)),
            then_block: Block::new(vec![Stmt::Assign {
                name: var_name(i),
                value: Expr::call("read", vec![]),
                span: sp(),
            }]),
            else_block: None,
            span: sp(),
        });
    }
    body.extend(stmts);
    // Digest: print all variables and the buffer contents.
    for i in 0..INT_VARS {
        body.push(Stmt::Expr {
            expr: Expr::call("print", vec![Expr::var(var_name(i))]),
            span: sp(),
        });
    }
    // The digest loop iterates exactly BUF_LEN times over valid indices
    // by construction.
    let digest_loop = bounded_loop(
        BUF_LEN,
        Block::new(vec![Stmt::Expr {
            expr: Expr::call(
                "print",
                vec![Expr::Load {
                    ptr: Box::new(Expr::var("buf")),
                    index: Box::new(Expr::var(loop_counter(0))),
                    span: sp(),
                }],
            ),
            span: sp(),
        }]),
    );
    body.push(digest_loop);
    body.push(Stmt::Expr {
        expr: Expr::call("free", vec![Expr::var("buf")]),
        span: sp(),
    });
    body.push(Stmt::Return {
        value: Some(Expr::int(0)),
        span: sp(),
    });
    Program {
        globals: vec![],
        functions: vec![Function {
            name: "main".to_string(),
            params: vec![],
            ret: Some(Type::Int),
            body: Block::new(body),
            span: sp(),
        }],
    }
}

/// Convenience: the program generated by a fresh PRNG at `seed` with the
/// default knobs.
pub fn program_for_seed(seed: u64) -> Program {
    program_for_seed_with(seed, &GenConfig::default())
}

/// Convenience: the program generated by a fresh PRNG at `seed` with the
/// given knobs.
pub fn program_for_seed_with(seed: u64, cfg: &GenConfig) -> Program {
    gen_program(&mut Pcg32::new(seed), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_minic::{parse, pretty, resolve};

    #[test]
    fn generated_programs_resolve() {
        for seed in 0..64 {
            let p = program_for_seed(seed);
            resolve(&p).unwrap_or_else(|e| panic!("seed {seed}: must resolve: {e}"));
        }
    }

    #[test]
    fn generated_programs_round_trip() {
        for seed in 0..64 {
            let p = program_for_seed(seed);
            // One parse normalizes generator-built ASTs (the parser folds
            // `-literal` into negative literals); from then on
            // pretty∘parse must be a fixed point.
            let p1 = parse(&pretty(&p)).expect("pretty output must parse");
            let s1 = pretty(&p1);
            let p2 = parse(&s1).expect("normalized output must parse");
            assert_eq!(s1, pretty(&p2), "seed {seed}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(pretty(&program_for_seed(7)), pretty(&program_for_seed(7)));
    }

    #[test]
    fn seeds_produce_distinct_programs() {
        let distinct: std::collections::HashSet<String> =
            (0..16).map(|s| pretty(&program_for_seed(s))).collect();
        assert!(
            distinct.len() > 8,
            "only {} distinct programs",
            distinct.len()
        );
    }

    #[test]
    fn default_config_matches_legacy_constants() {
        assert_eq!(
            (EXPR_DEPTH, COND_DEPTH, STMT_DEPTH),
            (3, 2, 2),
            "depths must stay the historical constants"
        );
        assert_eq!((INT_VARS, BUF_LEN, LOOP_BOUND), (4, 8, 6));
        assert_eq!(GenConfig::default().input_vars, 0);
        // The explicit-config path reproduces the legacy path exactly.
        for seed in [0, 7, 23, 61] {
            assert_eq!(
                pretty(&program_for_seed(seed)),
                pretty(&program_for_seed_with(seed, &GenConfig::default())),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn input_vars_consume_scripted_input() {
        use cbi_vm::Vm;
        let cfg = GenConfig { input_vars: 2 };
        for seed in 0..16 {
            let p = program_for_seed_with(seed, &cfg);
            resolve(&p).unwrap_or_else(|e| panic!("seed {seed}: must resolve: {e}"));
            let empty = Vm::new(&p).run().unwrap();
            let fed = Vm::new(&p).with_input(vec![37, -12]).run().unwrap();
            assert!(
                empty.outcome.is_success(),
                "seed {seed}: {:?}",
                empty.outcome
            );
            assert!(fed.outcome.is_success(), "seed {seed}: {:?}", fed.outcome);
        }
        // At least one seed's digest must actually depend on the input.
        let depends = (0..16).any(|seed| {
            let p = program_for_seed_with(seed, &cfg);
            let a = Vm::new(&p).run().unwrap().output;
            let b = Vm::new(&p).with_input(vec![37, -12]).run().unwrap().output;
            a != b
        });
        assert!(depends, "input vars never influenced any digest");
    }
}
