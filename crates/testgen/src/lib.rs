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
//! All generation knobs live in [`GenConfig`]; [`GenConfig::default`]
//! reproduces the historical constants byte-for-byte, so seeds keep their
//! meaning, while consumers such as the fault-injection corpus can dial
//! program size up or wire the first few variables to scripted input.

#![forbid(unsafe_code)]

use cbi_minic::ast::*;
use cbi_minic::Span;
use cbi_sampler::Pcg32;

/// Generation knobs.  The defaults reproduce the generator's historical
/// hard-coded constants exactly: the same seed yields the same program
/// under `GenConfig::default()` as it did before the knobs existed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenConfig {
    /// Maximum recursion depth for arithmetic expressions.
    pub expr_depth: usize,
    /// Maximum recursion depth for boolean conditions.
    pub cond_depth: usize,
    /// Maximum recursion depth for compound statements (each extra level
    /// allows one more tier of `if`/`while` nesting and needs one more
    /// loop counter).
    pub stmt_depth: usize,
    /// Number of scalar int variables `v0..v{n-1}`, initialized `1..=n`.
    pub int_vars: usize,
    /// Cells in the single heap buffer `buf`; all generated indices are
    /// reduced modulo this length.
    pub buf_len: i64,
    /// Exclusive upper bound on generated loop trip counts: bounds are
    /// uniform in `1..loop_bound`.
    pub loop_bound: i64,
    /// The first `input_vars` int variables are re-initialized from
    /// scripted input when present (`if (has_input() != 0) v = read();`),
    /// so trials can perturb program state.  `0` (the default) consumes
    /// no input and leaves the historical output untouched.
    pub input_vars: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            expr_depth: 3,
            cond_depth: 2,
            stmt_depth: 2,
            int_vars: 4,
            buf_len: 8,
            loop_bound: 6,
            input_vars: 0,
        }
    }
}

impl GenConfig {
    /// Name of the `i`-th scalar variable.
    fn var_name(&self, i: usize) -> String {
        format!("v{i}")
    }

    /// Name of the loop counter used at nesting depth `d`.
    fn loop_counter(&self, d: usize) -> String {
        format!("lc{d}")
    }

    /// Number of loop counters the configuration needs: one per possible
    /// nesting level plus the digest loop.
    fn loop_counters(&self) -> usize {
        self.stmt_depth + 1
    }
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
fn gen_int_expr(rng: &mut Pcg32, cfg: &GenConfig) -> Expr {
    gen_int_expr_at(rng, cfg, cfg.expr_depth)
}

fn gen_leaf(rng: &mut Pcg32, cfg: &GenConfig) -> Expr {
    if rng.below(2) == 0 {
        Expr::Int {
            value: int_in(rng, -50, 50),
            span: sp(),
        }
    } else {
        Expr::Var {
            name: cfg.var_name(pick(rng, cfg.int_vars)),
            span: sp(),
        }
    }
}

fn gen_int_expr_at(rng: &mut Pcg32, cfg: &GenConfig, depth: usize) -> Expr {
    // Bias toward leaves as in the proptest recursive strategy: half of
    // all draws stop early even when depth remains.
    if depth == 0 || rng.below(2) == 0 {
        return gen_leaf(rng, cfg);
    }
    match rng.below(5) {
        0 => {
            let op = [BinOp::Add, BinOp::Sub, BinOp::Mul][pick(rng, 3)];
            Expr::Binary {
                op,
                lhs: Box::new(gen_int_expr_at(rng, cfg, depth - 1)),
                rhs: Box::new(gen_int_expr_at(rng, cfg, depth - 1)),
                span: sp(),
            }
        }
        1 => Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(gen_int_expr_at(rng, cfg, depth - 1)),
            rhs: Box::new(Expr::Int {
                value: int_in(rng, 1, 9),
                span: sp(),
            }),
            span: sp(),
        },
        2 => Expr::Binary {
            op: BinOp::Mod,
            lhs: Box::new(gen_int_expr_at(rng, cfg, depth - 1)),
            rhs: Box::new(Expr::Int {
                value: int_in(rng, 1, 9),
                span: sp(),
            }),
            span: sp(),
        },
        3 => Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(gen_int_expr_at(rng, cfg, depth - 1)),
            span: sp(),
        },
        // A bounded heap read: buf[(e % L + L) % L].
        _ => Expr::Load {
            ptr: Box::new(Expr::var("buf")),
            index: Box::new(bounded_index(
                gen_int_expr_at(rng, cfg, depth - 1),
                cfg.buf_len,
            )),
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
fn gen_cond(rng: &mut Pcg32, cfg: &GenConfig) -> Expr {
    gen_cond_at(rng, cfg, cfg.cond_depth)
}

fn gen_cond_at(rng: &mut Pcg32, cfg: &GenConfig, depth: usize) -> Expr {
    if depth == 0 || rng.below(2) == 0 {
        return Expr::Binary {
            op: gen_cmp_op(rng),
            lhs: Box::new(gen_int_expr(rng, cfg)),
            rhs: Box::new(gen_int_expr(rng, cfg)),
            span: sp(),
        };
    }
    match rng.below(3) {
        0 => Expr::Binary {
            op: BinOp::And,
            lhs: Box::new(gen_cond_at(rng, cfg, depth - 1)),
            rhs: Box::new(gen_cond_at(rng, cfg, depth - 1)),
            span: sp(),
        },
        1 => Expr::Binary {
            op: BinOp::Or,
            lhs: Box::new(gen_cond_at(rng, cfg, depth - 1)),
            rhs: Box::new(gen_cond_at(rng, cfg, depth - 1)),
            span: sp(),
        },
        _ => Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(gen_cond_at(rng, cfg, depth - 1)),
            span: sp(),
        },
    }
}

/// Generates a statement (assignment, store, check, print, if, bounded
/// loop).
fn gen_stmt(rng: &mut Pcg32, cfg: &GenConfig) -> Stmt {
    gen_stmt_at(rng, cfg, cfg.stmt_depth)
}

fn gen_simple_stmt(rng: &mut Pcg32, cfg: &GenConfig) -> Stmt {
    match rng.below(4) {
        0 => Stmt::Assign {
            name: cfg.var_name(pick(rng, cfg.int_vars)),
            value: gen_int_expr(rng, cfg),
            span: sp(),
        },
        1 => Stmt::Store {
            target: "buf".to_string(),
            index: bounded_index(gen_int_expr(rng, cfg), cfg.buf_len),
            value: gen_int_expr(rng, cfg),
            span: sp(),
        },
        2 => Stmt::Expr {
            expr: Expr::call("print", vec![gen_int_expr(rng, cfg)]),
            span: sp(),
        },
        // check(cond || 1) — a user assertion that can never fail, so
        // instrumented builds stay crash-free.
        _ => Stmt::Check {
            cond: Expr::binary(BinOp::Or, gen_cond(rng, cfg), Expr::int(1)),
            span: sp(),
        },
    }
}

fn gen_block(rng: &mut Pcg32, cfg: &GenConfig, depth: usize) -> Block {
    let n = 1 + pick(rng, 3);
    Block::new((0..n).map(|_| gen_stmt_at(rng, cfg, depth)).collect())
}

fn gen_stmt_at(rng: &mut Pcg32, cfg: &GenConfig, depth: usize) -> Stmt {
    if depth == 0 || rng.below(2) == 0 {
        return gen_simple_stmt(rng, cfg);
    }
    if rng.below(2) == 0 {
        let cond = gen_cond(rng, cfg);
        let then_block = gen_block(rng, cfg, depth - 1);
        let else_block = if rng.below(2) == 0 {
            Some(gen_block(rng, cfg, depth - 1))
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
        let k = int_in(rng, 1, cfg.loop_bound);
        let body = gen_block(rng, cfg, depth - 1);
        bounded_loop(cfg, k, body)
    }
}

fn bounded_loop(cfg: &GenConfig, k: i64, body: Block) -> Stmt {
    // Nested loops reuse distinct counters by depth; generation recursion
    // depth is bounded by `stmt_depth`, and the configuration declares one
    // counter per level, so termination is structural.  Reassignment of
    // the same counter at the same depth is harmless: the loop resets it
    // to zero.
    let depth = loop_depth(&body).min(cfg.loop_counters() - 1);
    let counter = cfg.loop_counter(depth);
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
    let stmts: Vec<Stmt> = (0..n).map(|_| gen_stmt(rng, cfg)).collect();
    let mut body = Vec::new();
    for c in 0..cfg.loop_counters() {
        body.push(Stmt::Decl {
            ty: Type::Int,
            name: cfg.loop_counter(c),
            init: None,
            span: sp(),
        });
    }
    for i in 0..cfg.int_vars {
        body.push(Stmt::Decl {
            ty: Type::Int,
            name: cfg.var_name(i),
            init: Some(Expr::int(i as i64 + 1)),
            span: sp(),
        });
    }
    body.push(Stmt::Decl {
        ty: Type::Ptr,
        name: "buf".to_string(),
        init: Some(Expr::call("alloc", vec![Expr::int(cfg.buf_len)])),
        span: sp(),
    });
    // Scripted input, if configured: trial tokens overwrite the leading
    // variables, so different inputs exercise different program states.
    // Draws nothing from the generator RNG, keeping seeds stable.
    for i in 0..cfg.input_vars.min(cfg.int_vars) {
        body.push(Stmt::If {
            cond: Expr::binary(BinOp::Ne, Expr::call("has_input", vec![]), Expr::int(0)),
            then_block: Block::new(vec![Stmt::Assign {
                name: cfg.var_name(i),
                value: Expr::call("read", vec![]),
                span: sp(),
            }]),
            else_block: None,
            span: sp(),
        });
    }
    body.extend(stmts);
    // Digest: print all variables and the buffer contents.
    for i in 0..cfg.int_vars {
        body.push(Stmt::Expr {
            expr: Expr::call("print", vec![Expr::var(cfg.var_name(i))]),
            span: sp(),
        });
    }
    // The digest loop iterates exactly buf_len times over valid indices
    // by construction.
    let digest_loop = bounded_loop(
        cfg,
        cfg.buf_len,
        Block::new(vec![Stmt::Expr {
            expr: Expr::call(
                "print",
                vec![Expr::Load {
                    ptr: Box::new(Expr::var("buf")),
                    index: Box::new(Expr::var(cfg.loop_counter(0))),
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
        let cfg = GenConfig::default();
        assert_eq!(
            (cfg.expr_depth, cfg.cond_depth, cfg.stmt_depth),
            (3, 2, 2),
            "depth knobs must default to the historical constants"
        );
        assert_eq!((cfg.int_vars, cfg.buf_len, cfg.loop_bound), (4, 8, 6));
        assert_eq!(cfg.input_vars, 0);
        // The explicit-config path reproduces the legacy path exactly.
        for seed in [0, 7, 23, 61] {
            assert_eq!(
                pretty(&program_for_seed(seed)),
                pretty(&program_for_seed_with(seed, &cfg)),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn scaled_config_generates_bigger_programs() {
        let big = GenConfig {
            expr_depth: 4,
            stmt_depth: 3,
            int_vars: 6,
            buf_len: 16,
            ..GenConfig::default()
        };
        for seed in 0..32 {
            let p = program_for_seed_with(seed, &big);
            resolve(&p).unwrap_or_else(|e| panic!("seed {seed}: must resolve: {e}"));
        }
        let small_len: usize = (0..16).map(|s| pretty(&program_for_seed(s)).len()).sum();
        let big_len: usize = (0..16)
            .map(|s| pretty(&program_for_seed_with(s, &big)).len())
            .sum();
        assert!(
            big_len > small_len,
            "deeper knobs should yield larger programs ({big_len} <= {small_len})"
        );
    }

    #[test]
    fn input_vars_consume_scripted_input() {
        use cbi_vm::Vm;
        let cfg = GenConfig {
            input_vars: 2,
            ..GenConfig::default()
        };
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
