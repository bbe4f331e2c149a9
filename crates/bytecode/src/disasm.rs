//! Deterministic textual listing of compiled programs.
//!
//! The output is stable across runs and platforms — ops print in program
//! order with absolute indices, interned names and countdown registers
//! are rendered inline, and nothing depends on hash-map iteration order — so
//! listings are usable as golden files (`cbi disasm` and its tests).

use crate::instr::{BcProgram, CdMove, Dest, ObsArgs, ObsSpec, Op, Operand};
use cbi_minic::ast::Countdown;
use std::fmt::Write as _;

/// Renders the full program listing.
pub fn disassemble(prog: &BcProgram) -> String {
    let mut out = String::new();
    let c = &prog.costs;
    let _ = writeln!(
        out,
        "; costs stmt={} expr={} call={} mem={} observe={} refill={} bookkeeping={}",
        c.stmt, c.expr, c.call, c.mem, c.observe, c.refill, c.bookkeeping
    );
    for (i, g) in prog.globals.iter().enumerate() {
        let mark = if prog.gcd_global == Some(i as u32) {
            "  ; countdown"
        } else {
            ""
        };
        let _ = writeln!(out, "global {i}: {} {} = {}{mark}", g.ty, g.name, g.init);
    }
    for (fi, f) in prog.functions.iter().enumerate() {
        let mark = if prog.main == Some(fi as u32) {
            "  ; main"
        } else {
            ""
        };
        let params = f
            .slot_names
            .iter()
            .take(f.n_params as usize)
            .map(String::as_str)
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            out,
            "\nfn {fi} {}({params}) slots={} entry={}{mark}",
            f.name, f.n_slots, f.entry
        );
        for pc in f.entry..f.end {
            let _ = writeln!(out, "{pc:5}  {}", render(prog, fi, prog.ops[pc as usize]));
        }
    }
    out
}

fn slot_name(prog: &BcProgram, func: usize, slot: u32) -> &str {
    prog.functions[func]
        .slot_names
        .get(slot as usize)
        .map(String::as_str)
        .unwrap_or("?")
}

fn global_name(prog: &BcProgram, g: u32) -> &str {
    prog.globals
        .get(g as usize)
        .map(|g| g.name.as_str())
        .unwrap_or("?")
}

/// The register's name in listings: `cd` (frame-local) or `gcd`.
fn reg(r: Countdown) -> &'static str {
    match r {
        Countdown::Local => "cd",
        Countdown::Global => "gcd",
    }
}

fn cd_move(m: CdMove) -> &'static str {
    match m {
        CdMove::Import => "cd <- gcd",
        CdMove::Export => "gcd <- cd",
    }
}

fn name(prog: &BcProgram, idx: u32) -> &str {
    prog.names.get(idx as usize).map(|n| &**n).unwrap_or("?")
}

/// Renders a fused region-boundary countdown prefix.
fn cd_pfx(pre: Option<CdMove>) -> String {
    match pre {
        Some(m) => format!("[{}] ", cd_move(m)),
        None => String::new(),
    }
}

/// The fused charges executed before an operand fetch: `stmt+N` for a
/// fused statement head, `+N` for a bare charge, nothing when absent.
fn charge_pfx(stmt: bool, n: u32) -> String {
    if stmt {
        format!("stmt+{n} ")
    } else if n > 0 {
        format!("+{n} ")
    } else {
        String::new()
    }
}

fn operand(prog: &BcProgram, func: usize, o: Operand) -> String {
    match o {
        Operand::Const(v) => format!("{v}"),
        Operand::Null => "null".into(),
        Operand::Local(s) => format!("%{s} ({})", slot_name(prog, func, s)),
        Operand::Global(g) => format!("@{g} ({})", global_name(prog, g)),
        Operand::LocalOr(s, g) => format!("%{s}|@{g} ({})", slot_name(prog, func, s)),
        Operand::Stack => "stack".into(),
    }
}

fn dest(prog: &BcProgram, func: usize, d: Dest) -> String {
    match d {
        Dest::Push => "push".into(),
        Dest::Bind(s) => format!("bind %{s} ({})", slot_name(prog, func, s)),
        Dest::Local(s) => format!("%{s} ({})", slot_name(prog, func, s)),
        Dest::Global(g) => format!("@{g} ({})", global_name(prog, g)),
        Dest::LocalOr(s, g) => format!("%{s}|@{g} ({})", slot_name(prog, func, s)),
        Dest::Ret => "ret".into(),
    }
}

fn render(prog: &BcProgram, func: usize, op: Op) -> String {
    match op {
        Op::Stmt(n) => format!("stmt        +{n}"),
        Op::Charge(n) => format!("charge      +{n}"),
        Op::PushInt(v) => format!("push_int    {v}"),
        Op::PushNull => "push_null".into(),
        Op::Pop => "pop".into(),
        Op::LoadLocal(s) => format!("load        %{s} ({})", slot_name(prog, func, s)),
        Op::LoadGlobal(g) => format!("load        @{g} ({})", global_name(prog, g)),
        Op::LoadLocalOr(s, g) => format!("load        %{s}|@{g} ({})", slot_name(prog, func, s)),
        Op::LoadUndef(n) => format!("load_undef  {}", name(prog, n)),
        Op::BindLocal(s) => format!("bind        %{s} ({})", slot_name(prog, func, s)),
        Op::AssignLocal(s) => format!("store       %{s} ({})", slot_name(prog, func, s)),
        Op::AssignGlobal(g) => format!("store       @{g} ({})", global_name(prog, g)),
        Op::AssignLocalOr(s, g) => format!("store       %{s}|@{g} ({})", slot_name(prog, func, s)),
        Op::AssignUndef(n) => format!("store_undef {}", name(prog, n)),
        Op::Jump(t) => format!("jump        -> {t}"),
        Op::BranchFalse(t) => format!("br_false    -> {t}"),
        Op::BranchTrue(t) => format!("br_true     -> {t}"),
        Op::ToBool => "to_bool".into(),
        Op::ExpectInt => "expect_int".into(),
        Op::LoadPtrCheck => "ptr_check".into(),
        Op::StorePtrCheck(n) => format!("ptr_check   `{}`", name(prog, n)),
        Op::HeapLoad => "heap_load".into(),
        Op::HeapStore => "heap_store".into(),
        Op::Unary(op) => format!("unary       {op}"),
        Op::Binary(op) => format!("binary      {op}"),
        Op::Call { func: f, argc } => format!(
            "call        fn {f} ({}) argc={argc}",
            prog.functions
                .get(f as usize)
                .map(|f| f.name.as_str())
                .unwrap_or("?")
        ),
        Op::CallUndef(n) => format!("call_undef  {}", name(prog, n)),
        Op::Ret => "ret".into(),
        Op::RetZero => "ret_zero".into(),
        Op::RetNull => "ret_null".into(),
        Op::Alloc => "alloc".into(),
        Op::Free => "free".into(),
        Op::Len => "len".into(),
        Op::Read => "read".into(),
        Op::HasInput => "has_input".into(),
        Op::Print => "print".into(),
        Op::Exit => "exit".into(),
        Op::DeferPush(t) => format!("defer_push  -> {t}"),
        Op::DeferNext(t) => format!("defer_next  -> {t}"),
        Op::CdMove(m) => format!("cd_move     {}", cd_move(m)),
        Op::CdDec { reg: r, k } => format!("cd_dec      {} - {k}", reg(r)),
        Op::CdBranch { reg: r, w, els } => format!("cd_branch   {} > {w} else -> {els}", reg(r)),
        Op::MissingArg => "missing_arg".into(),
        Op::FusedBin(s) => {
            let sp = prog.bins[s as usize];
            let cb = if sp.chg_b > 0 {
                format!("+{} ", sp.chg_b)
            } else {
                String::new()
            };
            format!(
                "fused_bin   {}{}{} {} {cb}{} -> {}",
                cd_pfx(sp.pre),
                charge_pfx(sp.stmt, sp.chg_a),
                operand(prog, func, sp.a),
                sp.op,
                operand(prog, func, sp.b),
                dest(prog, func, sp.dst)
            )
        }
        Op::FusedBr { spec: s, target } => {
            let sp = prog.brs[s as usize];
            let cond = match sp.cmp {
                Some(op) => {
                    let cb = if sp.chg_b > 0 {
                        format!("+{} ", sp.chg_b)
                    } else {
                        String::new()
                    };
                    format!(
                        "{} {op} {cb}{}",
                        operand(prog, func, sp.a),
                        operand(prog, func, sp.b)
                    )
                }
                None => operand(prog, func, sp.a),
            };
            let when = if sp.jump_if { "if-true" } else { "if-false" };
            format!(
                "fused_br    {}{cond} {when} -> {target}",
                charge_pfx(sp.stmt, sp.chg_a)
            )
        }
        Op::FusedIdx(s) => {
            let sp = prog.idxs[s as usize];
            format!("fused_idx   {}", idx_spec(prog, func, sp))
        }
        Op::FusedRet(s) => {
            let sp = prog.rets[s as usize];
            let pre = cd_pfx(sp.pre);
            format!(
                "fused_ret   {pre}{}{}",
                charge_pfx(sp.stmt, sp.chg),
                operand(prog, func, sp.a)
            )
        }
        Op::FusedLoad(s) => {
            let sp = prog.lds[s as usize];
            format!(
                "fused_load  {} -> {}",
                idx_spec(prog, func, sp.idx),
                dest(prog, func, sp.dst)
            )
        }
        Op::FusedStore(s) => {
            let sp = prog.sts[s as usize];
            let cv = if sp.c_val > 0 {
                format!("+{} ", sp.c_val)
            } else {
                String::new()
            };
            format!(
                "fused_store {} <- {cv}{}",
                idx_spec(prog, func, sp.idx),
                operand(prog, func, sp.val)
            )
        }
        Op::FusedMov(s) => {
            let sp = prog.mvs[s as usize];
            format!(
                "fused_mov   {}{}{} -> {}",
                cd_pfx(sp.pre),
                charge_pfx(sp.stmt, sp.chg),
                operand(prog, func, sp.a),
                dest(prog, func, sp.dst)
            )
        }
        Op::FusedBinJ { spec: s, target } => {
            let sp = prog.bins[s as usize];
            let cb = if sp.chg_b > 0 {
                format!("+{} ", sp.chg_b)
            } else {
                String::new()
            };
            format!(
                "fused_bin_j {}{}{} {} {cb}{} -> {} jump -> {target}",
                cd_pfx(sp.pre),
                charge_pfx(sp.stmt, sp.chg_a),
                operand(prog, func, sp.a),
                sp.op,
                operand(prog, func, sp.b),
                dest(prog, func, sp.dst)
            )
        }
        Op::CdGate {
            pre,
            reg: r,
            w,
            dec,
            els,
        } => {
            let dec = match dec {
                Some(k) => format!(" [{} - {k}]", reg(r)),
                None => String::new(),
            };
            format!(
                "cd_gate     {}{} > {w} else -> {els}{dec}",
                cd_pfx(pre),
                reg(r)
            )
        }
        Op::CallBind(s) => {
            let sp = prog.calls[s as usize];
            format!(
                "call_bind   fn {} ({}) argc={} -> {}",
                sp.func,
                prog.functions
                    .get(sp.func as usize)
                    .map(|f| f.name.as_str())
                    .unwrap_or("?"),
                sp.argc,
                dest(prog, func, sp.dst)
            )
        }
        Op::Obs(s) => {
            let sp = prog.obs[s as usize];
            format!("{:<11} {}", obs_kind(sp), obs_spec(prog, func, sp))
        }
        Op::ObsEnter { spec: s, skip } => {
            let sp = prog.obs[s as usize];
            let kind = obs_kind(sp).trim_start_matches("obs_");
            format!(
                "obs_enter   {kind} {} skip -> {skip}",
                obs_spec(prog, func, sp)
            )
        }
        Op::ObsExit(s) => {
            let sp = prog.obs[s as usize];
            let kind = obs_kind(sp).trim_start_matches("obs_");
            format!("obs_exit    {kind} site {}", operand(prog, func, sp.site))
        }
    }
}

/// The mnemonic of a whole observation op.
fn obs_kind(sp: ObsSpec) -> &'static str {
    match sp.args {
        ObsArgs::Check(_) => "obs_check",
        ObsArgs::Bounds(_) => "obs_bounds",
        ObsArgs::Cmp(..) => "obs_cmp",
        ObsArgs::Sign(_) => "obs_sign",
    }
}

/// Renders an observation: the sample gate (`[cd - 1 == 0]`, with the
/// refill implied), the site, the head charge, the operands with the
/// charges between them, and `-> push` outside statement position.
fn obs_spec(prog: &BcProgram, func: usize, sp: ObsSpec) -> String {
    let gate = match sp.gate {
        Some(r) => format!("[{} - 1 == 0] ", reg(r)),
        None => String::new(),
    };
    let o = |x| operand(prog, func, x);
    let args = match sp.args {
        ObsArgs::Check(c) => o(c),
        ObsArgs::Bounds(b) => format!(
            "{} != +{} null && +{} {} >= +{} 0 && +{} < len",
            o(b.p),
            b.c_null,
            b.c_ge,
            o(b.i),
            b.c_zero,
            b.c_lt
        ),
        ObsArgs::Cmp(a, b) => format!("{} <=> {}", o(a), o(b)),
        ObsArgs::Sign(v) => o(v),
    };
    format!(
        "{gate}site {} {}{args}{}{}",
        o(sp.site),
        charge_pfx(sp.stmt, sp.chg),
        if sp.defer { " deferred" } else { "" },
        if sp.stmt { "" } else { " -> push" }
    )
}

/// Renders the shared pointer-index prologue of the fused heap ops.
fn idx_spec(prog: &BcProgram, func: usize, sp: crate::instr::IdxSpec) -> String {
    let ci = if sp.c_idx > 0 {
        format!("+{} ", sp.c_idx)
    } else {
        String::new()
    };
    let kind = match sp.store_name {
        None => "load".into(),
        Some(n) => format!("store `{}`", name(prog, n)),
    };
    format!(
        "{}{}[{ci}{}] {kind}",
        charge_pfx(sp.stmt, sp.c_ptr),
        operand(prog, func, sp.ptr),
        operand(prog, func, sp.idx)
    )
}
