//! Direct-threaded lowering of the compiled tape: the [`FusedSim`]
//! back-end.
//!
//! [`crate::CompiledSim`] walks a `Vec<Micro>` and pays one `match`
//! dispatch per micro-op per cycle. This module lowers the *same*
//! optimized [`Program`] one stage further, into a direct-threaded
//! program:
//!
//! * a flat array of **monomorphic kernel function pointers** — one
//!   kernel per (op, slot type, width class), so the hot loop does no
//!   type or width branching: full-word adds get a kernel without the
//!   mask AND, 64-bit slices become plain shifts, `MaskTo` with a
//!   full mask becomes a copy, compare kinds are `const`-specialized;
//! * a **packed operand stream** of `u64` words the kernels read
//!   sequentially, far denser than the `Micro` enum;
//! * **superinstruction fusion**, discovered by a deterministic
//!   left-to-right peephole pass: the common 2-op sequences on the
//!   DECT/HCOR tapes (cmp+select, guard-test+copy, load-op and
//!   op-store pairs) fuse into single kernels, and any maximal run of
//!   same-kind ops collapses into *one* indirect call that loops over
//!   the run's packed operands;
//! * precomputed **register-commit and Drive/Fire barrier schedules**:
//!   FSM transition tables, SFG activation flags and register files
//!   are flattened into single contiguous arrays with per-instance
//!   offsets, so `step()` is a single pass over a segment schedule
//!   with one indirect call per kernel run and no nested-`Vec`
//!   pointer chasing.
//!
//! Every fused kernel executes its constituent micro-ops *in original
//! tape order, including intermediate destination writes*, so the
//! lowering is semantics-preserving by construction — no liveness
//! analysis, and bit-exact equivalence with [`crate::CompiledSim`] and
//! `InterpSim` at every opt level (enforced by
//! `crates/core/tests/fused.rs`).
//!
//! The lowered form is a pure deterministic function of the
//! [`Program`], so [`crate::sim::hash::hash_compiled`]'s program hash
//! already covers it: `FusedSim` shares `CompiledSim`'s design hash
//! and snapshot layout ([`SnapshotBackend::Compiled`]), making fused ↔
//! compiled snapshots interchangeable while engine or opt-level
//! confusion keeps failing with the existing typed errors.

use std::sync::Arc;

use ocapi_fixp::{Fix, Format, Overflow, Rounding};

use crate::sim::budget::Budget;
use crate::sim::compiled::{
    build_program, decode, encode, init_states, make_trace, Cmp, Micro, Program, UntimedIo,
};
use crate::sim::hash::{CompiledTape, FusedTape};
use crate::sim::obs::SimObs;
use crate::sim::opt::{OptLevel, OptStats};
use crate::sim::snapshot::{check_words, reg_types, SimSnapshot, SnapshotBackend};
use crate::sim::Simulator;
use crate::system::System;
use crate::trace::Trace;
use crate::value::{SigType, Value};
use crate::CoreError;

/// Which simulation engine executes a design. Shared vocabulary for
/// the bench `--engine` flag and the serve daemon's tape-cache key —
/// the same `(design, opt)` pair lowered for different engines must
/// never alias in a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExecEngine {
    /// The cycle-scheduler interpreter (`InterpSim`).
    Interp,
    /// The levelized-tape simulator (`CompiledSim`).
    Compiled,
    /// The direct-threaded fused simulator (`FusedSim`).
    Fused,
}

impl ExecEngine {
    /// Stable lowercase name, as spelled on CLIs and in requests.
    pub fn as_str(self) -> &'static str {
        match self {
            ExecEngine::Interp => "interp",
            ExecEngine::Compiled => "compiled",
            ExecEngine::Fused => "fused",
        }
    }

    /// Parses [`ExecEngine::as_str`] spellings.
    pub fn parse(s: &str) -> Option<ExecEngine> {
        match s {
            "interp" => Some(ExecEngine::Interp),
            "compiled" => Some(ExecEngine::Compiled),
            "fused" => Some(ExecEngine::Fused),
            _ => None,
        }
    }
}

/// What the lowering pass did, in deterministic counters: pure
/// functions of the optimized program, reported through
/// `compiled.lower.*` at `FusedSim::attach_obs` (the same contract as
/// `compiled.opt.*`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowerStats {
    /// Micro-ops lowered (guard pre-tape + main tape, `Fire` excluded).
    pub micro_in: u64,
    /// Kernel invocations per simulated cycle after fusion.
    pub kernels: u64,
    /// Fused superinstructions: peephole pairs plus same-kind runs of
    /// length ≥ 2 (each run costs a single indirect call).
    pub superinstructions: u64,
    /// Micro-ops covered by some superinstruction.
    pub fused_micros: u64,
    /// `100 * fused_micros / micro_in`, rounded down (0 when empty).
    pub coverage_pct: u64,
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

/// Read-mostly execution context handed to every kernel. The mutable
/// state a kernel may touch is exactly the slot array; register files
/// and activation flags are read-only here because commits and
/// transition selection are barrier phases of the schedule.
struct Ctx<'a> {
    slots: &'a mut [u64],
    regs: &'a [u64],
    active: &'a [bool],
    ops: &'a [u64],
    casts: &'a [CastOp],
}

/// A monomorphic kernel: executes one maximal run of identical
/// micro-ops, reading packed operands at `ops[base..]` (`ops[base]` is
/// the element count, elements follow contiguously).
type Kernel = fn(&mut Ctx<'_>, usize);

/// Side table for the two fixed-point cast kernels; the operand stream
/// carries an index instead of the format/rounding/overflow triple.
#[derive(Debug, Clone, Copy)]
enum CastOp {
    Fix {
        src: Format,
        target: Format,
        rnd: Rounding,
        ovf: Overflow,
    },
    Float {
        target: Format,
        rnd: Rounding,
        ovf: Overflow,
    },
}

/// Declares a fixed-arity run kernel: one indirect call executes a
/// run of identical micro-ops, loading the named operand words per
/// element. Bounds on slot indices are established once per `step` by
/// the `slot_bound` assert (the `BatchedSim` pattern), not re-derived
/// per op.
macro_rules! kernel {
    ($name:ident, [$($w:ident),+ $(,)?], |$s:ident| $body:expr) => {
        fn $name(ctx: &mut Ctx<'_>, base: usize) {
            // One range check for the whole run: slice the operand
            // window up front, then walk it in exact-width chunks so
            // the per-word loads carry no residual bounds checks.
            const W: usize = [$(stringify!($w)),+].len();
            let n = ctx.ops[base] as usize;
            let words = &ctx.ops[base + 1..base + 1 + n * W];
            for el in words.chunks_exact(W) {
                let mut i = 0;
                $(let $w = el[i]; i += 1;)+
                let _ = i;
                let $s: &mut [u64] = ctx.slots;
                $body;
            }
        }
    };
}

/// Like [`kernel!`] but `const`-specialized on a `u8` selector (compare
/// kind or ALU kind) so the selection folds at compile time.
macro_rules! kernel_k {
    ($name:ident, [$($w:ident),+ $(,)?], |$s:ident| $body:expr) => {
        fn $name<const K: u8>(ctx: &mut Ctx<'_>, base: usize) {
            const W: usize = [$(stringify!($w)),+].len();
            let n = ctx.ops[base] as usize;
            let words = &ctx.ops[base + 1..base + 1 + n * W];
            for el in words.chunks_exact(W) {
                let mut i = 0;
                $(let $w = el[i]; i += 1;)+
                let _ = i;
                let $s: &mut [u64] = ctx.slots;
                $body;
            }
        }
    };
}

/// Monomorphised comparison: `K` indexes Eq/Ne/Lt/Le/Gt/Ge and folds
/// to a single machine compare in each instantiation.
#[inline(always)]
fn cmp_k<const K: u8>(o: std::cmp::Ordering) -> u64 {
    (match K {
        0 => o.is_eq(),
        1 => o.is_ne(),
        2 => o.is_lt(),
        3 => o.is_le(),
        4 => o.is_gt(),
        _ => o.is_ge(),
    }) as u64
}

/// Monomorphised ALU op for the fused pair kernels: And/Or/Xor ignore
/// the mask; Add/Sub wrap then mask (a full-word op passes `u64::MAX`).
#[inline(always)]
fn alu_k<const K: u8>(a: u64, b: u64, mask: u64) -> u64 {
    match K {
        0 => a & b,
        1 => a | b,
        2 => a ^ b,
        3 => a.wrapping_add(b) & mask,
        _ => a.wrapping_sub(b) & mask,
    }
}

kernel!(k_copy, [dst, src], |s| s[dst as usize] = s[src as usize]);
kernel!(k_add, [dst, a, b, mask], |s| s[dst as usize] =
    s[a as usize].wrapping_add(s[b as usize]) & mask);
kernel!(k_add_w, [dst, a, b], |s| s[dst as usize] =
    s[a as usize].wrapping_add(s[b as usize]));
kernel!(k_sub, [dst, a, b, mask], |s| s[dst as usize] =
    s[a as usize].wrapping_sub(s[b as usize]) & mask);
kernel!(k_sub_w, [dst, a, b], |s| s[dst as usize] =
    s[a as usize].wrapping_sub(s[b as usize]));
kernel!(k_mul, [dst, a, b, mask], |s| s[dst as usize] =
    s[a as usize].wrapping_mul(s[b as usize]) & mask);
kernel!(k_mul_w, [dst, a, b], |s| s[dst as usize] =
    s[a as usize].wrapping_mul(s[b as usize]));
kernel!(k_and, [dst, a, b], |s| s[dst as usize] =
    s[a as usize] & s[b as usize]);
kernel!(k_or, [dst, a, b], |s| s[dst as usize] =
    s[a as usize] | s[b as usize]);
kernel!(k_xor, [dst, a, b], |s| s[dst as usize] =
    s[a as usize] ^ s[b as usize]);
kernel!(k_not, [dst, a, mask], |s| s[dst as usize] =
    !s[a as usize] & mask);
kernel!(k_not_w, [dst, a], |s| s[dst as usize] = !s[a as usize]);
kernel!(k_neg_b, [dst, a, mask], |s| s[dst as usize] =
    s[a as usize].wrapping_neg() & mask);
kernel!(k_neg_b_w, [dst, a], |s| s[dst as usize] =
    s[a as usize].wrapping_neg());
kernel!(k_shl, [dst, a, n, mask], |s| s[dst as usize] =
    (s[a as usize] << n) & mask);
kernel!(k_shl_w, [dst, a, n], |s| s[dst as usize] =
    s[a as usize] << n);
kernel!(k_shr, [dst, a, n], |s| s[dst as usize] = s[a as usize] >> n);
kernel!(k_shr_mask, [dst, a, n, mask], |s| s[dst as usize] =
    (s[a as usize] >> n) & mask);
kernel!(k_zero, [dst], |s| s[dst as usize] = 0);
kernel_k!(k_cmp_u, [dst, a, b], |s| s[dst as usize] =
    cmp_k::<K>(s[a as usize].cmp(&s[b as usize])));
kernel!(k_add_f, [dst, a, b, sha, shb], |s| {
    let x = (s[a as usize] as i64) << sha;
    let y = (s[b as usize] as i64) << shb;
    s[dst as usize] = (x + y) as u64;
});
kernel!(k_sub_f, [dst, a, b, sha, shb], |s| {
    let x = (s[a as usize] as i64) << sha;
    let y = (s[b as usize] as i64) << shb;
    s[dst as usize] = (x - y) as u64;
});
kernel!(k_mul_f, [dst, a, b], |s| {
    let p = s[a as usize] as i64 as i128 * s[b as usize] as i64 as i128;
    s[dst as usize] = p as i64 as u64;
});
kernel!(k_neg_f, [dst, a], |s| s[dst as usize] =
    (s[a as usize] as i64).wrapping_neg() as u64);
kernel_k!(k_cmp_f, [dst, a, b, sha, shb], |s| {
    let x = (s[a as usize] as i64 as i128) << sha;
    let y = (s[b as usize] as i64 as i128) << shb;
    s[dst as usize] = cmp_k::<K>(x.cmp(&y));
});
kernel!(k_add_fl, [dst, a, b], |s| s[dst as usize] =
    (f64::from_bits(s[a as usize]) + f64::from_bits(s[b as usize]))
        .to_bits());
kernel!(k_sub_fl, [dst, a, b], |s| s[dst as usize] =
    (f64::from_bits(s[a as usize]) - f64::from_bits(s[b as usize]))
        .to_bits());
kernel!(k_mul_fl, [dst, a, b], |s| s[dst as usize] =
    (f64::from_bits(s[a as usize]) * f64::from_bits(s[b as usize]))
        .to_bits());
kernel!(k_neg_fl, [dst, a], |s| s[dst as usize] =
    (-f64::from_bits(s[a as usize])).to_bits());
kernel_k!(k_cmp_fl, [dst, a, b], |s| {
    let o = f64::from_bits(s[a as usize])
        .partial_cmp(&f64::from_bits(s[b as usize]))
        .unwrap_or(std::cmp::Ordering::Equal);
    s[dst as usize] = cmp_k::<K>(o);
});
kernel!(k_mask_to, [dst, a, mask], |s| s[dst as usize] =
    s[a as usize] & mask);
kernel!(k_non_zero, [dst, a], |s| s[dst as usize] =
    (s[a as usize] != 0) as u64);
kernel!(k_non_zero_fl, [dst, a], |s| s[dst as usize] =
    (f64::from_bits(s[a as usize]) != 0.0) as u64);
kernel!(k_to_float_bits, [dst, a], |s| s[dst as usize] =
    (s[a as usize] as f64).to_bits());
kernel!(k_to_float_fix, [dst, a, frac], |s| s[dst as usize] =
    (s[a as usize] as i64 as f64 * f64::powi(2.0, -(frac as i32)))
        .to_bits());
kernel!(
    k_select,
    [dst, c, t, e],
    |s| s[dst as usize] = if s[c as usize] != 0 {
        s[t as usize]
    } else {
        s[e as usize]
    }
);

// Fused superinstructions. Each executes its constituent micro-ops in
// original order, *including* the intermediate destination write, so
// fusion never changes observable slot state.
kernel_k!(k_cmp_select, [cdst, a, b, sdst, t, e], |s| {
    let c = cmp_k::<K>(s[a as usize].cmp(&s[b as usize]));
    s[cdst as usize] = c;
    s[sdst as usize] = if c != 0 { s[t as usize] } else { s[e as usize] };
});
kernel!(k_test_select, [cdst, a, sdst, t, e], |s| {
    let c = (s[a as usize] != 0) as u64;
    s[cdst as usize] = c;
    s[sdst as usize] = if c != 0 { s[t as usize] } else { s[e as usize] };
});
kernel_k!(k_cmp_copy, [cdst, a, b, dst2], |s| {
    let v = cmp_k::<K>(s[a as usize].cmp(&s[b as usize]));
    s[cdst as usize] = v;
    s[dst2 as usize] = v;
});
kernel_k!(k_alu_store, [dst, a, b, mask, dst2], |s| {
    let v = alu_k::<K>(s[a as usize], s[b as usize], mask);
    s[dst as usize] = v;
    s[dst2 as usize] = v;
});
kernel_k!(k_copy_alu, [cdst, csrc, dst, a, b, mask], |s| {
    s[cdst as usize] = s[csrc as usize];
    s[dst as usize] = alu_k::<K>(s[a as usize], s[b as usize], mask);
});

fn k_reg_read(ctx: &mut Ctx<'_>, base: usize) {
    let n = ctx.ops[base] as usize;
    let words = &ctx.ops[base + 1..base + 1 + n * 2];
    for el in words.chunks_exact(2) {
        ctx.slots[el[0] as usize] = ctx.regs[el[1] as usize];
    }
}

fn k_cast_f(ctx: &mut Ctx<'_>, base: usize) {
    let n = ctx.ops[base] as usize;
    let mut p = base + 1;
    for _ in 0..n {
        let dst = ctx.ops[p] as usize;
        let a = ctx.ops[p + 1] as usize;
        let idx = ctx.ops[p + 2] as usize;
        p += 3;
        match ctx.casts[idx] {
            CastOp::Fix {
                src,
                target,
                rnd,
                ovf,
            } => {
                let v = Fix::from_raw(ctx.slots[a] as i64, src);
                ctx.slots[dst] = v.cast(target, rnd, ovf).mantissa() as u64;
            }
            CastOp::Float { target, rnd, ovf } => {
                let x = f64::from_bits(ctx.slots[a]);
                ctx.slots[dst] = Fix::from_f64(x, target, rnd, ovf).mantissa() as u64;
            }
        }
    }
}

/// Net drive with write-priority resolution over the flattened
/// activation flags. Elements are self-describing (`net, k, k packed
/// (flat_sfg << 32 | src) words`), so runs still collapse.
fn k_drive(ctx: &mut Ctx<'_>, base: usize) {
    let n = ctx.ops[base] as usize;
    let mut p = base + 1;
    for _ in 0..n {
        let net = ctx.ops[p] as usize;
        let k = ctx.ops[p + 1] as usize;
        p += 2;
        for &pair in &ctx.ops[p..p + k] {
            if ctx.active[(pair >> 32) as usize] {
                ctx.slots[net] = ctx.slots[(pair & 0xffff_ffff) as usize];
                break;
            }
        }
        p += k;
    }
}

// ---------------------------------------------------------------------------
// Lowered program
// ---------------------------------------------------------------------------

/// ALU selector for the fused op-store / load-op pair kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Alu {
    And,
    Or,
    Xor,
    Add,
    Sub,
}

/// Kernel identity used for peephole matching and run collapsing.
/// Equal ids ⇒ same kernel pointer and element layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KId {
    Copy,
    RegRead,
    Add,
    AddW,
    Sub,
    SubW,
    Mul,
    MulW,
    And,
    Or,
    Xor,
    Not,
    NotW,
    NegB,
    NegBW,
    Shl,
    ShlW,
    Shr,
    ShrMask,
    Zero,
    CmpU(Cmp),
    AddF,
    SubF,
    MulF,
    NegF,
    CmpF(Cmp),
    CastF,
    AddFl,
    SubFl,
    MulFl,
    NegFl,
    CmpFl(Cmp),
    MaskTo,
    NonZero,
    NonZeroFl,
    ToFloatBits,
    ToFloatFix,
    Select,
    Drive,
    CmpSelect(Cmp),
    TestSelect,
    CmpCopy(Cmp),
    AluStore(Alu),
    CopyAlu(Alu),
}

macro_rules! by_cmp {
    ($f:ident, $c:expr) => {
        match $c {
            Cmp::Eq => $f::<0>,
            Cmp::Ne => $f::<1>,
            Cmp::Lt => $f::<2>,
            Cmp::Le => $f::<3>,
            Cmp::Gt => $f::<4>,
            Cmp::Ge => $f::<5>,
        }
    };
}

macro_rules! by_alu {
    ($f:ident, $c:expr) => {
        match $c {
            Alu::And => $f::<0>,
            Alu::Or => $f::<1>,
            Alu::Xor => $f::<2>,
            Alu::Add => $f::<3>,
            Alu::Sub => $f::<4>,
        }
    };
}

fn kernel_of(id: KId) -> Kernel {
    match id {
        KId::Copy => k_copy,
        KId::RegRead => k_reg_read,
        KId::Add => k_add,
        KId::AddW => k_add_w,
        KId::Sub => k_sub,
        KId::SubW => k_sub_w,
        KId::Mul => k_mul,
        KId::MulW => k_mul_w,
        KId::And => k_and,
        KId::Or => k_or,
        KId::Xor => k_xor,
        KId::Not => k_not,
        KId::NotW => k_not_w,
        KId::NegB => k_neg_b,
        KId::NegBW => k_neg_b_w,
        KId::Shl => k_shl,
        KId::ShlW => k_shl_w,
        KId::Shr => k_shr,
        KId::ShrMask => k_shr_mask,
        KId::Zero => k_zero,
        KId::CmpU(c) => by_cmp!(k_cmp_u, c),
        KId::AddF => k_add_f,
        KId::SubF => k_sub_f,
        KId::MulF => k_mul_f,
        KId::NegF => k_neg_f,
        KId::CmpF(c) => by_cmp!(k_cmp_f, c),
        KId::CastF => k_cast_f,
        KId::AddFl => k_add_fl,
        KId::SubFl => k_sub_fl,
        KId::MulFl => k_mul_fl,
        KId::NegFl => k_neg_fl,
        KId::CmpFl(c) => by_cmp!(k_cmp_fl, c),
        KId::MaskTo => k_mask_to,
        KId::NonZero => k_non_zero,
        KId::NonZeroFl => k_non_zero_fl,
        KId::ToFloatBits => k_to_float_bits,
        KId::ToFloatFix => k_to_float_fix,
        KId::Select => k_select,
        KId::Drive => k_drive,
        KId::CmpSelect(c) => by_cmp!(k_cmp_select, c),
        KId::TestSelect => k_test_select,
        KId::CmpCopy(c) => by_cmp!(k_cmp_copy, c),
        KId::AluStore(a) => by_alu!(k_alu_store, a),
        KId::CopyAlu(a) => by_alu!(k_copy_alu, a),
    }
}

/// One lowered element: a kernel identity plus its packed operand
/// words. `micros` is how many original micro-ops it covers (2 after
/// pair fusion).
#[derive(Debug, Clone)]
struct El {
    id: KId,
    w: Vec<u64>,
    micros: u32,
}

/// Tape item: a lowerable element or an untimed-block fire barrier.
#[derive(Debug, Clone)]
enum Item {
    El(El),
    Fire(u32),
}

/// Segment of the per-cycle schedule: a run range of kernel calls, or
/// an untimed-block fire (the only op that needs `&mut` access beyond
/// the slot array).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Seg {
    Run { start: u32, end: u32 },
    Fire { inst: u32 },
}

/// One FSM transition, flattened: `guard == u32::MAX` means
/// unconditional; `s0..s1` indexes [`SelectPlan::sfgs`].
#[derive(Debug, Clone, Copy)]
struct FlatTrans {
    guard: u32,
    to: u32,
    s0: u32,
    s1: u32,
}

/// Per-instance transition selection over flat arrays — the nested
/// `Vec<Vec<Vec<_>>>` tables of the compiled back-end collapsed into
/// contiguous rows.
#[derive(Debug, Clone, Default)]
struct SelectPlan {
    /// Per timed instance: `(active_start, active_end, rows_base,
    /// has_fsm)`.
    insts: Vec<(u32, u32, u32, bool)>,
    /// Per (instance, state): range into `trans`.
    rows: Vec<(u32, u32)>,
    trans: Vec<FlatTrans>,
    /// Flattened activation indices of each transition's SFG list.
    sfgs: Vec<u32>,
}

/// Register-commit schedule over the flattened register file:
/// `writes[i] = (flat_reg, cand_start, cand_end)` into `cands`
/// (`(flat_active, src_slot)` pairs, first active wins).
#[derive(Debug, Clone, Default)]
struct CommitPlan {
    writes: Vec<(u32, u32, u32)>,
    cands: Vec<(u32, u32)>,
}

/// The immutable direct-threaded program: everything [`FusedSim`]
/// needs apart from the mutable per-instance state. Shared by
/// reference through [`FusedTape`] exactly like [`Program`] is through
/// [`CompiledTape`].
pub(crate) struct Lowered {
    // Carried over from the source program.
    init_slots: Vec<u64>,
    slot_ty: Vec<SigType>,
    net_slot: Vec<u32>,
    untimed_io: Vec<UntimedIo>,
    opt_stats: OptStats,
    // Threaded code.
    kernels: Vec<Kernel>,
    bases: Vec<u32>,
    ops: Vec<u64>,
    casts: Vec<CastOp>,
    pre_sched: Vec<Seg>,
    sched: Vec<Seg>,
    select: SelectPlan,
    commit: CommitPlan,
    // Flat state layout. Activation offsets are baked into the select,
    // commit and drive plans at lowering time, so only the register
    // offsets (needed by `peek_reg`/`poke_reg`) survive to runtime.
    active_total: u32,
    reg_off: Vec<u32>,
    reg_total: u32,
    /// Exclusive upper bound on every slot index any kernel or barrier
    /// phase touches; asserted once per `step` against the slot array.
    slot_bound: u32,
    stats: LowerStats,
}

impl std::fmt::Debug for Lowered {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lowered")
            .field("kernels", &self.kernels.len())
            .field("operand_words", &self.ops.len())
            .field("stats", &self.stats)
            .finish()
    }
}

/// Accumulates the threaded-code arrays during lowering.
#[derive(Default)]
struct Emit {
    kernels: Vec<Kernel>,
    bases: Vec<u32>,
    ops: Vec<u64>,
    casts: Vec<CastOp>,
    stats: LowerStats,
}

/// Exclusive upper bound on the slot indices `prog`'s tapes, guards
/// and commit candidates reference (0 for an empty program). The
/// compiled and fused hot loops assert this once up front instead of
/// re-deriving bounds per op.
pub(crate) fn slot_bound_of(prog: &Program) -> u32 {
    let mut hi: u32 = 0;
    let mut touch = |s: u32| hi = hi.max(s.saturating_add(1));
    for m in prog.pre_tape.iter().chain(prog.tape.iter()) {
        match m {
            Micro::Copy { dst, src } => {
                touch(*dst);
                touch(*src);
            }
            Micro::RegRead { dst, .. } => touch(*dst),
            Micro::AddB { dst, a, b, .. }
            | Micro::SubB { dst, a, b, .. }
            | Micro::MulB { dst, a, b, .. }
            | Micro::AndU { dst, a, b }
            | Micro::OrU { dst, a, b }
            | Micro::XorU { dst, a, b }
            | Micro::CmpU { dst, a, b, .. }
            | Micro::AddF { dst, a, b, .. }
            | Micro::SubF { dst, a, b, .. }
            | Micro::MulF { dst, a, b }
            | Micro::CmpF { dst, a, b, .. }
            | Micro::AddFl { dst, a, b }
            | Micro::SubFl { dst, a, b }
            | Micro::MulFl { dst, a, b }
            | Micro::CmpFl { dst, a, b, .. } => {
                touch(*dst);
                touch(*a);
                touch(*b);
            }
            Micro::NotU { dst, a, .. }
            | Micro::NegB { dst, a, .. }
            | Micro::ShlB { dst, a, .. }
            | Micro::ShrB { dst, a, .. }
            | Micro::ShrMask { dst, a, .. }
            | Micro::NegF { dst, a }
            | Micro::CastF { dst, a, .. }
            | Micro::FloatToFix { dst, a, .. }
            | Micro::NegFl { dst, a }
            | Micro::MaskTo { dst, a, .. }
            | Micro::NonZero { dst, a }
            | Micro::NonZeroFloat { dst, a }
            | Micro::ToFloatBits { dst, a }
            | Micro::ToFloatFix { dst, a, .. } => {
                touch(*dst);
                touch(*a);
            }
            Micro::SelectU { dst, c, t, e } => {
                touch(*dst);
                touch(*c);
                touch(*t);
                touch(*e);
            }
            Micro::Drive {
                net_slot, cands, ..
            } => {
                touch(*net_slot);
                for (_, src) in cands {
                    touch(*src);
                }
            }
            Micro::Fire { .. } => {}
        }
    }
    for tables in &prog.fsm_tables {
        for state in tables {
            for tr in state {
                if let Some(g) = tr.guard_slot {
                    touch(g);
                }
            }
        }
    }
    for w in &prog.reg_writes {
        for (_, src) in &w.cands {
            touch(*src);
        }
    }
    for (ins, outs) in &prog.untimed_io {
        for (sl, _) in ins.iter().chain(outs.iter()) {
            touch(*sl);
        }
    }
    for sl in &prog.net_slot {
        touch(*sl);
    }
    hi
}

/// Maps one micro-op to its lowered element (width-class specialized)
/// or a fire barrier.
fn map_micro(m: &Micro, reg_off: &[u32], active_off: &[u32], casts: &mut Vec<CastOp>) -> Item {
    const FULL: u64 = u64::MAX;
    let el = |id: KId, w: Vec<u64>| Item::El(El { id, w, micros: 1 });
    match m {
        Micro::Copy { dst, src } => el(KId::Copy, vec![*dst as u64, *src as u64]),
        Micro::RegRead { dst, inst, reg } => el(
            KId::RegRead,
            vec![*dst as u64, (reg_off[*inst as usize] + *reg) as u64],
        ),
        Micro::AddB { dst, a, b, mask } if *mask == FULL => {
            el(KId::AddW, vec![*dst as u64, *a as u64, *b as u64])
        }
        Micro::AddB { dst, a, b, mask } => {
            el(KId::Add, vec![*dst as u64, *a as u64, *b as u64, *mask])
        }
        Micro::SubB { dst, a, b, mask } if *mask == FULL => {
            el(KId::SubW, vec![*dst as u64, *a as u64, *b as u64])
        }
        Micro::SubB { dst, a, b, mask } => {
            el(KId::Sub, vec![*dst as u64, *a as u64, *b as u64, *mask])
        }
        Micro::MulB { dst, a, b, mask } if *mask == FULL => {
            el(KId::MulW, vec![*dst as u64, *a as u64, *b as u64])
        }
        Micro::MulB { dst, a, b, mask } => {
            el(KId::Mul, vec![*dst as u64, *a as u64, *b as u64, *mask])
        }
        Micro::AndU { dst, a, b } => el(KId::And, vec![*dst as u64, *a as u64, *b as u64]),
        Micro::OrU { dst, a, b } => el(KId::Or, vec![*dst as u64, *a as u64, *b as u64]),
        Micro::XorU { dst, a, b } => el(KId::Xor, vec![*dst as u64, *a as u64, *b as u64]),
        Micro::NotU { dst, a, mask } if *mask == FULL => {
            el(KId::NotW, vec![*dst as u64, *a as u64])
        }
        Micro::NotU { dst, a, mask } => el(KId::Not, vec![*dst as u64, *a as u64, *mask]),
        Micro::NegB { dst, a, mask } if *mask == FULL => {
            el(KId::NegBW, vec![*dst as u64, *a as u64])
        }
        Micro::NegB { dst, a, mask } => el(KId::NegB, vec![*dst as u64, *a as u64, *mask]),
        Micro::ShlB { dst, a, n, mask } if *n >= 64 => el(KId::Zero, vec![*dst as u64]),
        Micro::ShlB { dst, a, n, mask } if *mask == FULL => {
            el(KId::ShlW, vec![*dst as u64, *a as u64, *n as u64])
        }
        Micro::ShlB { dst, a, n, mask } => {
            el(KId::Shl, vec![*dst as u64, *a as u64, *n as u64, *mask])
        }
        Micro::ShrB { dst, a, n } if *n >= 64 => el(KId::Zero, vec![*dst as u64]),
        Micro::ShrB { dst, a, n } => el(KId::Shr, vec![*dst as u64, *a as u64, *n as u64]),
        Micro::ShrMask { dst, a, n, mask } if *n >= 64 => el(KId::Zero, vec![*dst as u64]),
        Micro::ShrMask { dst, a, n, mask } if *mask == FULL => {
            el(KId::Shr, vec![*dst as u64, *a as u64, *n as u64])
        }
        Micro::ShrMask { dst, a, n, mask } => {
            el(KId::ShrMask, vec![*dst as u64, *a as u64, *n as u64, *mask])
        }
        Micro::CmpU { dst, a, b, kind } => {
            el(KId::CmpU(*kind), vec![*dst as u64, *a as u64, *b as u64])
        }
        Micro::AddF {
            dst,
            a,
            b,
            sha,
            shb,
        } => el(
            KId::AddF,
            vec![*dst as u64, *a as u64, *b as u64, *sha as u64, *shb as u64],
        ),
        Micro::SubF {
            dst,
            a,
            b,
            sha,
            shb,
        } => el(
            KId::SubF,
            vec![*dst as u64, *a as u64, *b as u64, *sha as u64, *shb as u64],
        ),
        Micro::MulF { dst, a, b } => el(KId::MulF, vec![*dst as u64, *a as u64, *b as u64]),
        Micro::NegF { dst, a } => el(KId::NegF, vec![*dst as u64, *a as u64]),
        Micro::CmpF {
            dst,
            a,
            b,
            sha,
            shb,
            kind,
        } => el(
            KId::CmpF(*kind),
            vec![*dst as u64, *a as u64, *b as u64, *sha as u64, *shb as u64],
        ),
        Micro::CastF {
            dst,
            a,
            src,
            target,
            rnd,
            ovf,
        } => {
            let idx = casts.len() as u64;
            casts.push(CastOp::Fix {
                src: *src,
                target: *target,
                rnd: *rnd,
                ovf: *ovf,
            });
            el(KId::CastF, vec![*dst as u64, *a as u64, idx])
        }
        Micro::FloatToFix {
            dst,
            a,
            target,
            rnd,
            ovf,
        } => {
            let idx = casts.len() as u64;
            casts.push(CastOp::Float {
                target: *target,
                rnd: *rnd,
                ovf: *ovf,
            });
            el(KId::CastF, vec![*dst as u64, *a as u64, idx])
        }
        Micro::AddFl { dst, a, b } => el(KId::AddFl, vec![*dst as u64, *a as u64, *b as u64]),
        Micro::SubFl { dst, a, b } => el(KId::SubFl, vec![*dst as u64, *a as u64, *b as u64]),
        Micro::MulFl { dst, a, b } => el(KId::MulFl, vec![*dst as u64, *a as u64, *b as u64]),
        Micro::NegFl { dst, a } => el(KId::NegFl, vec![*dst as u64, *a as u64]),
        Micro::CmpFl { dst, a, b, kind } => {
            el(KId::CmpFl(*kind), vec![*dst as u64, *a as u64, *b as u64])
        }
        Micro::MaskTo { dst, a, mask } if *mask == FULL => {
            el(KId::Copy, vec![*dst as u64, *a as u64])
        }
        Micro::MaskTo { dst, a, mask } => el(KId::MaskTo, vec![*dst as u64, *a as u64, *mask]),
        Micro::NonZero { dst, a } => el(KId::NonZero, vec![*dst as u64, *a as u64]),
        Micro::NonZeroFloat { dst, a } => el(KId::NonZeroFl, vec![*dst as u64, *a as u64]),
        Micro::ToFloatBits { dst, a } => el(KId::ToFloatBits, vec![*dst as u64, *a as u64]),
        Micro::ToFloatFix { dst, a, frac_bits } => el(
            KId::ToFloatFix,
            vec![*dst as u64, *a as u64, *frac_bits as u64],
        ),
        Micro::SelectU { dst, c, t, e } => el(
            KId::Select,
            vec![*dst as u64, *c as u64, *t as u64, *e as u64],
        ),
        Micro::Drive {
            net_slot,
            inst,
            cands,
        } => {
            let mut w = Vec::with_capacity(2 + cands.len());
            w.push(*net_slot as u64);
            w.push(cands.len() as u64);
            for (sfg, src) in cands {
                let flat = (active_off[*inst as usize] + *sfg) as u64;
                w.push((flat << 32) | *src as u64);
            }
            el(KId::Drive, w)
        }
        Micro::Fire { inst } => Item::Fire(*inst),
    }
}

/// The ALU selector and mask word for an element eligible as the "op"
/// half of a pair fusion.
fn alu_of(e: &El) -> Option<(Alu, u64)> {
    const FULL: u64 = u64::MAX;
    match e.id {
        KId::And => Some((Alu::And, 0)),
        KId::Or => Some((Alu::Or, 0)),
        KId::Xor => Some((Alu::Xor, 0)),
        KId::Add => Some((Alu::Add, e.w[3])),
        KId::AddW => Some((Alu::Add, FULL)),
        KId::Sub => Some((Alu::Sub, e.w[3])),
        KId::SubW => Some((Alu::Sub, FULL)),
        _ => None,
    }
}

/// Tries to fuse two adjacent single elements into one
/// superinstruction. Rules are checked in a fixed order, so the pass
/// is deterministic.
fn try_fuse(a: &El, b: &El) -> Option<El> {
    if a.micros != 1 || b.micros != 1 {
        return None;
    }
    let fused = |id: KId, w: Vec<u64>| Some(El { id, w, micros: 2 });
    // cmp + select on the comparison result.
    if let (KId::CmpU(k), KId::Select) = (a.id, b.id) {
        if b.w[1] == a.w[0] {
            return fused(
                KId::CmpSelect(k),
                vec![a.w[0], a.w[1], a.w[2], b.w[0], b.w[2], b.w[3]],
            );
        }
    }
    // guard-test + select on the test result.
    if let (KId::NonZero, KId::Select) = (a.id, b.id) {
        if b.w[1] == a.w[0] {
            return fused(
                KId::TestSelect,
                vec![a.w[0], a.w[1], b.w[0], b.w[2], b.w[3]],
            );
        }
    }
    // guard-test + copy of the test result.
    if let (KId::CmpU(k), KId::Copy) = (a.id, b.id) {
        if b.w[1] == a.w[0] {
            return fused(KId::CmpCopy(k), vec![a.w[0], a.w[1], a.w[2], b.w[0]]);
        }
    }
    // op + store (copy of the op's destination).
    if b.id == KId::Copy && b.w[1] == a.w[0] {
        if let Some((alu, mask)) = alu_of(a) {
            return fused(
                KId::AluStore(alu),
                vec![a.w[0], a.w[1], a.w[2], mask, b.w[0]],
            );
        }
    }
    // load (copy) + op consuming the loaded value.
    if a.id == KId::Copy {
        if let Some((alu, mask)) = alu_of(b) {
            if b.w[1] == a.w[0] || b.w[2] == a.w[0] {
                return fused(
                    KId::CopyAlu(alu),
                    vec![a.w[0], a.w[1], b.w[0], b.w[1], b.w[2], mask],
                );
            }
        }
    }
    None
}

/// Single left-to-right greedy peephole pass over one tape's items.
fn fuse_pairs(items: Vec<Item>, stats: &mut LowerStats) -> Vec<Item> {
    let mut out: Vec<Item> = Vec::with_capacity(items.len());
    let mut i = 0;
    while i < items.len() {
        if i + 1 < items.len() {
            if let (Item::El(a), Item::El(b)) = (&items[i], &items[i + 1]) {
                if let Some(f) = try_fuse(a, b) {
                    stats.superinstructions += 1;
                    stats.fused_micros += 2;
                    out.push(Item::El(f));
                    i += 2;
                    continue;
                }
            }
        }
        out.push(items[i].clone());
        i += 1;
    }
    out
}

/// Collapses maximal same-kind runs into single kernel calls and emits
/// the packed operand stream plus the fire-barrier segment schedule.
fn emit_tape(items: &[Item], e: &mut Emit) -> Vec<Seg> {
    let mut segs: Vec<Seg> = Vec::new();
    let mut i = 0;
    while i < items.len() {
        match &items[i] {
            Item::Fire(inst) => {
                segs.push(Seg::Fire { inst: *inst });
                i += 1;
            }
            Item::El(first) => {
                let mut j = i + 1;
                while j < items.len() {
                    match &items[j] {
                        Item::El(el) if el.id == first.id => j += 1,
                        _ => break,
                    }
                }
                let ki = e.kernels.len() as u32;
                e.kernels.push(kernel_of(first.id));
                e.bases.push(e.ops.len() as u32);
                e.ops.push((j - i) as u64);
                let mut plain = 0u64;
                for item in &items[i..j] {
                    if let Item::El(el) = item {
                        e.ops.extend_from_slice(&el.w);
                        if el.micros == 1 {
                            plain += 1;
                        }
                    }
                }
                if j - i >= 2 {
                    e.stats.superinstructions += 1;
                    e.stats.fused_micros += plain;
                }
                match segs.last_mut() {
                    Some(Seg::Run { end, .. }) if *end == ki => *end = ki + 1,
                    _ => segs.push(Seg::Run {
                        start: ki,
                        end: ki + 1,
                    }),
                }
                i = j;
            }
        }
    }
    segs
}

/// Lowers one optimized [`Program`] into the direct-threaded form.
/// Pure and deterministic: the same `(sys, prog)` always produces the
/// same threaded code, so the program hash covers the lowered form.
pub(crate) fn lower_program(sys: &System, prog: &Program) -> Lowered {
    // Flat layout offsets for activation flags and register files.
    let mut active_off = Vec::with_capacity(sys.timed.len());
    let mut reg_off = Vec::with_capacity(sys.timed.len());
    let (mut a_total, mut r_total) = (0u32, 0u32);
    for t in &sys.timed {
        active_off.push(a_total);
        reg_off.push(r_total);
        a_total += t.comp.sfgs.len() as u32;
        r_total += t.comp.regs.len() as u32;
    }

    let mut e = Emit::default();
    let lower_one = |tape: &[Micro], e: &mut Emit| -> Vec<Seg> {
        let items: Vec<Item> = tape
            .iter()
            .map(|m| map_micro(m, &reg_off, &active_off, &mut e.casts))
            .collect();
        e.stats.micro_in += items.iter().filter(|i| matches!(i, Item::El(_))).count() as u64;
        let items = fuse_pairs(items, &mut e.stats);
        emit_tape(&items, e)
    };
    let pre_sched = lower_one(&prog.pre_tape, &mut e);
    let sched = lower_one(&prog.tape, &mut e);
    e.stats.kernels = e.kernels.len() as u64;
    e.stats.coverage_pct = (100 * e.stats.fused_micros)
        .checked_div(e.stats.micro_in)
        .unwrap_or(0);

    // Flatten the transition tables.
    let mut select = SelectPlan::default();
    for (i, tables) in prog.fsm_tables.iter().enumerate() {
        let a0 = active_off[i];
        let a1 = a0 + sys.timed[i].comp.sfgs.len() as u32;
        let rows_base = select.rows.len() as u32;
        for state in tables {
            let t0 = select.trans.len() as u32;
            for tr in state {
                let s0 = select.sfgs.len() as u32;
                select.sfgs.extend(tr.sfgs.iter().map(|sk| a0 + *sk));
                select.trans.push(FlatTrans {
                    guard: tr.guard_slot.map_or(u32::MAX, |g| g),
                    to: tr.to,
                    s0,
                    s1: select.sfgs.len() as u32,
                });
            }
            select.rows.push((t0, select.trans.len() as u32));
        }
        select.insts.push((a0, a1, rows_base, !tables.is_empty()));
    }

    // Flatten the register-commit schedule.
    let mut commit = CommitPlan::default();
    for w in &prog.reg_writes {
        let c0 = commit.cands.len() as u32;
        for (sfg, src) in &w.cands {
            commit
                .cands
                .push((active_off[w.inst as usize] + *sfg, *src));
        }
        commit.writes.push((
            reg_off[w.inst as usize] + w.reg,
            c0,
            commit.cands.len() as u32,
        ));
    }

    Lowered {
        init_slots: prog.init_slots.clone(),
        slot_ty: prog.slot_ty.clone(),
        net_slot: prog.net_slot.clone(),
        untimed_io: prog.untimed_io.clone(),
        opt_stats: prog.opt_stats,
        kernels: e.kernels,
        bases: e.bases,
        ops: e.ops,
        casts: e.casts,
        pre_sched,
        sched,
        select,
        commit,
        active_total: a_total,
        reg_off,
        reg_total: r_total,
        slot_bound: slot_bound_of(prog),
        stats: e.stats,
    }
}

impl Lowered {
    pub(crate) fn stats(&self) -> LowerStats {
        self.stats
    }

    pub(crate) fn tape_len(&self) -> usize {
        self.stats.micro_in as usize
    }
}

// ---------------------------------------------------------------------------
// FusedSim
// ---------------------------------------------------------------------------

/// The direct-threaded fused simulator.
///
/// Construct with [`FusedSim::new`] / [`FusedSim::new_with`] or from a
/// cached [`FusedTape`] via [`FusedSim::from_tape`]; drive through the
/// [`Simulator`] trait. Behaviour is bit-identical to
/// [`crate::CompiledSim`] built from the same system at the same
/// [`OptLevel`] — same outputs, nets, registers, trace rows and
/// [`FusedSim::design_hash`] — only the per-cycle execution strategy
/// differs.
pub struct FusedSim {
    sys: System,
    prog: Arc<Lowered>,
    slots: Vec<u64>,
    states: Vec<u32>,
    /// Flattened per-instance SFG activation flags (`prog.active_off`).
    active: Vec<bool>,
    /// Flattened per-instance register files (`prog.reg_off`). The
    /// snapshot "regs" section is exactly this array, byte-compatible
    /// with `CompiledSim`'s flattened nested files.
    regs: Vec<u64>,
    in_buf: Vec<Value>,
    out_buf: Vec<Value>,
    cycle: u64,
    trace: Option<Trace>,
    obs: Option<SimObs>,
    budget: Budget,
    design_hash: u64,
}

impl FusedSim {
    /// Compiles and lowers `sys` at the default [`OptLevel`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotCompilable`] when the conservative
    /// cross-component dependence graph is cyclic (same contract as
    /// [`crate::CompiledSim::new`]).
    pub fn new(sys: System) -> Result<FusedSim, CoreError> {
        FusedSim::new_with(sys, OptLevel::default())
    }

    /// Like [`FusedSim::new`] with an explicit optimization level for
    /// the source tape. The lowering itself runs after the optimizer
    /// and is identical at every level.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotCompilable`] when the conservative
    /// cross-component dependence graph is cyclic.
    pub fn new_with(sys: System, level: OptLevel) -> Result<FusedSim, CoreError> {
        let prog = build_program(&sys, level)?;
        let design_hash = crate::sim::snapshot::hash_program(&sys, &prog);
        let lowered = Arc::new(lower_program(&sys, &prog));
        Ok(FusedSim::from_parts(sys, lowered, design_hash))
    }

    /// Instantiates a simulator from a cached [`FusedTape`] without
    /// recompiling or re-lowering — the warm path of the simulation
    /// service's tape cache, mirroring
    /// [`crate::CompiledSim::from_tape`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TapeMismatch`] when `sys` is not
    /// structurally the system the tape was compiled from.
    pub fn from_tape(sys: System, tape: &FusedTape) -> Result<FusedSim, CoreError> {
        tape.compiled().check_system(&sys)?;
        Ok(FusedSim::from_parts(
            sys,
            tape.lowered(),
            tape.program_hash(),
        ))
    }

    pub(crate) fn from_parts(sys: System, prog: Arc<Lowered>, design_hash: u64) -> FusedSim {
        let states = init_states(&sys);
        let mut regs = Vec::with_capacity(prog.reg_total as usize);
        for t in &sys.timed {
            regs.extend(t.comp.regs.iter().map(|r| encode(&r.init)));
        }
        FusedSim {
            slots: prog.init_slots.clone(),
            states,
            active: vec![false; prog.active_total as usize],
            regs,
            in_buf: Vec::new(),
            out_buf: Vec::new(),
            cycle: 0,
            trace: None,
            obs: None,
            budget: Budget::none(),
            design_hash,
            prog,
            sys,
        }
    }

    /// Attaches watchdog limits ([`Budget`]); the settle-iteration
    /// limit does not apply — the threaded program is straight-line
    /// code.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The design hash keying this simulator's snapshots — identical
    /// to [`crate::CompiledSim::design_hash`] for the same system and
    /// level, because the lowered form is a pure function of the
    /// program the hash already covers.
    pub fn design_hash(&self) -> u64 {
        self.design_hash
    }

    /// The simulated system.
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Micro-ops lowered per cycle (tape + guard pre-tape), for
    /// apples-to-apples comparison with
    /// [`crate::CompiledSim::tape_len`].
    pub fn tape_len(&self) -> usize {
        self.prog.tape_len()
    }

    /// What the tape optimizer did at build time.
    pub fn opt_stats(&self) -> OptStats {
        self.prog.opt_stats
    }

    /// What the lowering pass did: kernel and superinstruction counts
    /// and fusion coverage, all deterministic.
    pub fn lower_stats(&self) -> LowerStats {
        self.prog.stats
    }

    /// Attaches an observability bundle (build with [`SimObs::fused`]).
    /// The lowering statistics are flushed into the bundle's
    /// `compiled.lower.*` counters at attach time, exactly like the
    /// optimizer counters at [`crate::CompiledSim::attach_obs`].
    pub fn attach_obs(&mut self, obs: SimObs) {
        if let Some(lc) = &obs.lower {
            lc.record(&self.prog.stats);
        }
        self.obs = Some(obs);
    }

    /// Captures the complete mutable simulation state as a
    /// [`SimSnapshot`]. The backend tag and section layout are
    /// [`SnapshotBackend::Compiled`]'s — a fused snapshot restores
    /// into a [`crate::CompiledSim`] of the same build and vice versa.
    pub fn snapshot(&self) -> SimSnapshot {
        let mut s = SimSnapshot::new(SnapshotBackend::Compiled, self.design_hash, self.cycle);
        s.push_section("slots", self.slots.clone());
        s.push_section(
            "states",
            self.states.iter().map(|x| u64::from(*x)).collect(),
        );
        s.push_section("regs", self.regs.clone());
        for (i, u) in self.sys.untimed.iter().enumerate() {
            let words = u.block.snapshot_state();
            if !words.is_empty() {
                s.push_section(&format!("untimed.{i}"), words);
            }
        }
        s
    }

    /// Restores state captured by [`FusedSim::snapshot`] or by
    /// [`crate::CompiledSim::snapshot`] (or a `BatchedSim` lane) of
    /// the same build.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotMismatch`] when the snapshot was taken
    /// from a different design or optimization level, and
    /// [`CoreError::SnapshotFormat`] when it comes from a different
    /// back-end family or has damaged sections. On error the simulator
    /// state is unspecified; call [`FusedSim::reset`] before reuse.
    pub fn restore(&mut self, snap: &SimSnapshot) -> Result<(), CoreError> {
        snap.check(SnapshotBackend::Compiled, self.design_hash)?;
        let slot_words = snap.section_exact("slots", self.slots.len())?;
        let state_words = snap.section_exact("states", self.states.len())?;
        let reg_words = snap.section_exact("regs", self.regs.len())?;
        check_words("slots", slot_words, self.prog.slot_ty.iter().copied())?;
        check_words("regs", reg_words, reg_types(&self.sys))?;
        for (i, t) in self.sys.timed.iter().enumerate() {
            let idx = state_words[i];
            let n_states = t.comp.fsm.as_ref().map_or(1, |f| f.states.len() as u64);
            if idx >= n_states {
                return Err(CoreError::SnapshotFormat {
                    reason: format!("state selector {idx} out of range for `{}`", t.name),
                });
            }
        }
        self.slots.copy_from_slice(slot_words);
        for (st, idx) in self.states.iter_mut().zip(state_words) {
            *st = *idx as u32;
        }
        self.regs.copy_from_slice(reg_words);
        for (i, u) in self.sys.untimed.iter_mut().enumerate() {
            let words = snap.section(&format!("untimed.{i}")).unwrap_or(&[]);
            if !u.block.restore_state(words) {
                return Err(CoreError::SnapshotFormat {
                    reason: format!(
                        "untimed block `{}` rejected its state section",
                        u.block.name()
                    ),
                });
            }
        }
        self.cycle = snap.cycle();
        Ok(())
    }

    /// The current FSM state name of a timed instance.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] if the instance does not
    /// exist or has no FSM.
    pub fn state_name(&self, instance: &str) -> Result<&str, CoreError> {
        let (i, t) = self
            .sys
            .timed
            .iter()
            .enumerate()
            .find(|(_, t)| t.name == instance)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "instance",
                name: instance.to_owned(),
            })?;
        let fsm = t.comp.fsm.as_ref().ok_or_else(|| CoreError::UnknownName {
            kind: "fsm",
            name: instance.to_owned(),
        })?;
        Ok(&fsm.states[self.states[i] as usize])
    }

    /// Resets the simulation to power-up state.
    pub fn reset(&mut self) {
        self.slots.copy_from_slice(&self.prog.init_slots);
        let mut k = 0;
        for (i, t) in self.sys.timed.iter().enumerate() {
            for r in &t.comp.regs {
                self.regs[k] = encode(&r.init);
                k += 1;
            }
            self.states[i] = t.comp.fsm.as_ref().map_or(0, |f| f.initial.0);
        }
        for u in &mut self.sys.untimed {
            u.block.reset();
        }
        self.cycle = 0;
        if let Some(t) = &mut self.trace {
            *t = make_trace(&self.sys);
        }
    }

    /// Runs one segment schedule: kernel runs with fire barriers.
    fn run_sched(&mut self, pre: bool) {
        let p: &Lowered = &self.prog;
        let sched = if pre { &p.pre_sched } else { &p.sched };
        for seg in sched {
            match *seg {
                Seg::Run { start, end } => {
                    let mut ctx = Ctx {
                        slots: &mut self.slots,
                        regs: &self.regs,
                        active: &self.active,
                        ops: &p.ops,
                        casts: &p.casts,
                    };
                    // Slice once so the indirect-call loop itself is
                    // bounds-check free.
                    let ks = &p.kernels[start as usize..end as usize];
                    let bs = &p.bases[start as usize..end as usize];
                    for (k, &b) in ks.iter().zip(bs) {
                        k(&mut ctx, b as usize);
                    }
                }
                Seg::Fire { inst } => {
                    let u = inst as usize;
                    let s = &mut self.slots;
                    let (ins, outs) = &p.untimed_io[u];
                    self.in_buf.clear();
                    self.in_buf
                        .extend(ins.iter().map(|(sl, ty)| decode(s[*sl as usize], *ty)));
                    self.out_buf.clear();
                    self.out_buf
                        .extend(outs.iter().map(|(sl, ty)| decode(s[*sl as usize], *ty)));
                    let block = &mut self.sys.untimed[u].block;
                    if block.ready(&self.in_buf) {
                        block.fire(&self.in_buf, &mut self.out_buf);
                        for ((sl, _), v) in outs.iter().zip(&self.out_buf) {
                            s[*sl as usize] = encode(v);
                        }
                    }
                }
            }
        }
    }
}

impl Simulator for FusedSim {
    fn set_input(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        let pi = self
            .sys
            .primary_inputs
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "primary input",
                name: name.to_owned(),
            })?;
        value.check_type_with(pi.ty, || format!("primary input `{name}`"))?;
        self.slots[self.prog.net_slot[pi.net] as usize] = encode(&value);
        Ok(())
    }

    fn step(&mut self) -> Result<(), CoreError> {
        self.budget.check_cycle(self.cycle)?;
        // Up-front bounds proof, once per step (the `BatchedSim`
        // pattern): every slot index the threaded program references
        // is below `slot_bound`, every flat register / activation
        // index is in layout range.
        let p: &Lowered = &self.prog;
        assert!(
            p.slot_bound as usize <= self.slots.len()
                && self.regs.len() == p.reg_total as usize
                && self.active.len() == p.active_total as usize,
            "lowered program does not fit the simulator state arrays"
        );
        // The whole fused schedule — guards, transition select, tape
        // with fire barriers, register commit — is one `exec` phase.
        let t_eval = self.obs.as_ref().map(|o| o.sp_eval.timer());

        // Guard evaluation over held values.
        self.run_sched(true);

        // Transition selection over the flattened tables.
        let mut firings = 0u64;
        {
            // Disjoint field borrows: the plan is read-only while the
            // per-instance state and activation flags are written.
            let p: &Lowered = &self.prog;
            let slots = &self.slots;
            let states = &mut self.states;
            let active = &mut self.active;
            for (i, &(a0, a1, rows_base, has_fsm)) in p.select.insts.iter().enumerate() {
                if !has_fsm {
                    firings += (a1 - a0) as u64;
                    for a in &mut active[a0 as usize..a1 as usize] {
                        *a = true;
                    }
                    continue;
                }
                for a in &mut active[a0 as usize..a1 as usize] {
                    *a = false;
                }
                let (t0, t1) = p.select.rows[(rows_base + states[i]) as usize];
                for tr in &p.select.trans[t0 as usize..t1 as usize] {
                    if tr.guard == u32::MAX || slots[tr.guard as usize] != 0 {
                        states[i] = tr.to;
                        for &f in &p.select.sfgs[tr.s0 as usize..tr.s1 as usize] {
                            if !active[f as usize] {
                                firings += 1;
                                active[f as usize] = true;
                            }
                        }
                        break;
                    }
                }
            }
        }

        // Main tape with fire barriers.
        self.run_sched(false);

        // Register commit over the flat schedule.
        let mut reg_update_count = 0u64;
        {
            let p: &Lowered = &self.prog;
            for &(reg, c0, c1) in &p.commit.writes {
                for &(f, src) in &p.commit.cands[c0 as usize..c1 as usize] {
                    if self.active[f as usize] {
                        self.regs[reg as usize] = self.slots[src as usize];
                        reg_update_count += 1;
                        break;
                    }
                }
            }
        }
        drop(t_eval);

        self.cycle += 1;
        if let Some(trace) = &mut self.trace {
            let _t_trace = self.obs.as_ref().map(|o| o.sp_trace.timer());
            let row: Vec<Value> = self
                .sys
                .primary_inputs
                .iter()
                .map(|pi| {
                    let sl = self.prog.net_slot[pi.net] as usize;
                    decode(self.slots[sl], self.prog.slot_ty[sl])
                })
                .chain(self.sys.primary_outputs.iter().map(|po| {
                    let sl = self.prog.net_slot[po.net] as usize;
                    decode(self.slots[sl], self.prog.slot_ty[sl])
                }))
                .collect();
            trace.record_cycle(&row)?;
        }

        if let Some(o) = &self.obs {
            o.cycles.incr();
            o.sfg_firings.add(firings);
            o.reg_updates.add(reg_update_count);
        }
        Ok(())
    }

    fn output(&self, name: &str) -> Result<Value, CoreError> {
        self.sys
            .primary_outputs
            .iter()
            .find(|p| p.name == name)
            .map(|p| {
                let sl = self.prog.net_slot[p.net] as usize;
                decode(self.slots[sl], self.prog.slot_ty[sl])
            })
            .ok_or_else(|| CoreError::UnknownName {
                kind: "primary output",
                name: name.to_owned(),
            })
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(make_trace(&self.sys));
        }
    }

    fn trace(&self) -> &Trace {
        static EMPTY: std::sync::OnceLock<Trace> = std::sync::OnceLock::new();
        self.trace
            .as_ref()
            .unwrap_or_else(|| EMPTY.get_or_init(Trace::default))
    }

    fn peek_net(&self, name: &str) -> Result<Value, CoreError> {
        let i = self
            .sys
            .nets
            .iter()
            .position(|n| n.name == name)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "net",
                name: name.to_owned(),
            })?;
        let sl = self.prog.net_slot[i] as usize;
        Ok(decode(self.slots[sl], self.prog.slot_ty[sl]))
    }

    fn poke_net(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        let i = self
            .sys
            .nets
            .iter()
            .position(|n| n.name == name)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "net",
                name: name.to_owned(),
            })?;
        value.check_type_with(self.sys.nets[i].ty, || format!("net `{name}`"))?;
        self.slots[self.prog.net_slot[i] as usize] = encode(&value);
        Ok(())
    }

    fn peek_reg(&self, instance: &str, reg: &str) -> Result<Value, CoreError> {
        let (i, j) = crate::sim::interp::find_reg(&self.sys, instance, reg)?;
        Ok(decode(
            self.regs[self.prog.reg_off[i] as usize + j],
            self.sys.timed[i].comp.regs[j].ty,
        ))
    }

    fn poke_reg(&mut self, instance: &str, reg: &str, value: Value) -> Result<(), CoreError> {
        let (i, j) = crate::sim::interp::find_reg(&self.sys, instance, reg)?;
        value.check_type(
            self.sys.timed[i].comp.regs[j].ty,
            &format!("register `{instance}.{reg}`"),
        )?;
        self.regs[self.prog.reg_off[i] as usize + j] = encode(&value);
        Ok(())
    }
}

/// Compiles, optimizes and lowers `sys` into a reusable [`FusedTape`].
/// Convenience wrapper around [`CompiledTape::compile`] +
/// [`FusedTape::from_compiled`].
///
/// # Errors
///
/// Propagates [`CoreError::NotCompilable`] from compilation.
pub fn compile_fused(sys: &System, level: OptLevel) -> Result<FusedTape, CoreError> {
    let tape = CompiledTape::compile(sys, level)?;
    FusedTape::from_compiled(sys, &tape)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_pair_system() -> System {
        use crate::comp::Component;
        let c = Component::build("c");
        let x = c.input("x", SigType::Bits(8)).unwrap();
        let y = c.input("y", SigType::Bits(8)).unwrap();
        let o = c.output("o", SigType::Bits(8)).unwrap();
        let p = c.output("p", SigType::Bool).unwrap();
        let s = c.sfg("s").unwrap();
        let sum = c.read(x) + c.read(y);
        s.drive(o, &sum).unwrap();
        let cmp = c.read(x).eq(&c.read(y));
        s.drive(p, &cmp).unwrap();
        let mut sb = System::build("sys");
        let u = sb.add_component("u0", c.finish().unwrap()).unwrap();
        sb.input("x", SigType::Bits(8)).unwrap();
        sb.input("y", SigType::Bits(8)).unwrap();
        sb.connect_input("x", u, "x").unwrap();
        sb.connect_input("y", u, "y").unwrap();
        sb.output("o", u, "o").unwrap();
        sb.output("p", u, "p").unwrap();
        sb.finish().unwrap()
    }

    #[test]
    fn lowering_is_deterministic() {
        let sys = bits_pair_system();
        let prog = build_program(&sys, OptLevel::Full).unwrap();
        let a = lower_program(&sys, &prog);
        let b = lower_program(&sys, &prog);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.bases, b.bases);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.slot_bound, b.slot_bound);
    }

    #[test]
    fn fused_matches_compiled_on_a_small_design() {
        use crate::sim::compiled::CompiledSim;
        let mut f = FusedSim::new(bits_pair_system()).unwrap();
        let mut c = CompiledSim::new(bits_pair_system()).unwrap();
        for i in 0..64u64 {
            for s in [&mut f as &mut dyn Simulator, &mut c] {
                s.set_input("x", Value::bits(8, i * 7 % 256)).unwrap();
                s.set_input("y", Value::bits(8, i * 13 % 256)).unwrap();
                s.step().unwrap();
            }
            assert_eq!(f.output("o").unwrap(), c.output("o").unwrap());
            assert_eq!(f.output("p").unwrap(), c.output("p").unwrap());
        }
        assert_eq!(f.design_hash(), c.design_hash());
    }

    #[test]
    fn peephole_fuses_cmp_select_pairs() {
        let items = vec![
            Item::El(El {
                id: KId::CmpU(Cmp::Lt),
                w: vec![5, 1, 2],
                micros: 1,
            }),
            Item::El(El {
                id: KId::Select,
                w: vec![6, 5, 3, 4],
                micros: 1,
            }),
        ];
        let mut stats = LowerStats::default();
        let fused = fuse_pairs(items, &mut stats);
        assert_eq!(fused.len(), 1);
        assert_eq!(stats.superinstructions, 1);
        assert_eq!(stats.fused_micros, 2);
        match &fused[0] {
            Item::El(el) => {
                assert_eq!(el.id, KId::CmpSelect(Cmp::Lt));
                assert_eq!(el.w, vec![5, 1, 2, 6, 3, 4]);
            }
            Item::Fire(_) => panic!("expected a fused element"),
        }
    }

    #[test]
    fn runs_collapse_into_one_kernel_call() {
        let mk = |d: u64| {
            Item::El(El {
                id: KId::Xor,
                w: vec![d, d + 1, d + 2],
                micros: 1,
            })
        };
        let mut e = Emit::default();
        let segs = emit_tape(&[mk(0), mk(4), mk(8)], &mut e);
        assert_eq!(e.kernels.len(), 1, "one indirect call for the whole run");
        assert_eq!(e.ops[0], 3, "run count");
        assert_eq!(e.stats.superinstructions, 1);
        assert_eq!(e.stats.fused_micros, 3);
        assert!(matches!(segs.as_slice(), [Seg::Run { start: 0, end: 1 }]));
    }

    #[test]
    fn engine_names_round_trip() {
        for e in [ExecEngine::Interp, ExecEngine::Compiled, ExecEngine::Fused] {
            assert_eq!(ExecEngine::parse(e.as_str()), Some(e));
        }
        assert_eq!(ExecEngine::parse("native"), None);
    }
}
