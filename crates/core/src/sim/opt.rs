//! The tape optimizer of the compiled back-end.
//!
//! The paper's environment regenerates an *optimised* application-specific
//! simulator from the captured SFG data structure, with dead-code
//! elimination named among the semantic checks feeding it (§5). This
//! module is that optimisation step for [`crate::CompiledSim`]: it runs
//! after topological sorting and before micro-op lowering, over the
//! generic `Instr` tape, so every pass sees the same slot-typed SSA-like
//! program the monomorphiser sees.
//!
//! Passes, in order (see `DESIGN.md` §9):
//!
//! 1. **Constant folding + copy propagation** — an instruction whose
//!    operands are all compile-time constants is evaluated *once* with the
//!    interpreter's own [`UnOp::apply`]/[`BinOp::apply`] semantics (so
//!    fixed-point quantisation folds bit-identically) and its destination
//!    slot becomes a constant; copies are eliminated by renaming.
//! 2. **Algebraic simplification / strength reduction** — `x*0→0`,
//!    `x*1→x`, `x*2^k→x<<k`, `x&0→0`, `x|0→x`, `x^0→x`, `x+0→x`,
//!    `x-0→x`, `mux(c,a,a)→a`, `mux(const,a,b)→a|b`, same-slot compares.
//!    Every rule is restricted to unsigned `Bits`/`Bool` operands where
//!    the destination type equals the operand type; fixed-point and float
//!    operands are **never** rewritten (a signed multiply must not become
//!    a shift, `0.0*NaN ≠ 0.0`, and fixed-point formats change per op).
//! 3. **Common-subexpression elimination** — hash-based value numbering
//!    keyed on (operator, resolved operand slots); commutative operators
//!    are canonicalised except float add/mul (NaN payloads).
//! 4. **Dead-code elimination** — a backward liveness walk rooted at
//!    register-write selectors (main tape) and FSM guard slots (guard
//!    pre-tape). `Drive` and `Fire` instructions are always live: nets
//!    are the architectural state of the design, observable through
//!    `peek_net` (the fault injector's read primitive) and the trace
//!    taps, and untimed blocks carry side effects.
//! 5. **Slot compaction** — the state vector shrinks to the slots still
//!    referenced by either tape, the net map, register-write selectors,
//!    untimed I/O lists or guard slots.
//!
//! What the optimizer never touches: net slots (externally written by
//! `set_input`/`poke_net` and conditionally by `Drive`) are neither
//! treated as constants nor renamed, which is what keeps the optimised
//! tape equivalent to the interpreter under arbitrary poking.

use std::collections::HashMap;

use crate::value::{BinOp, SigType, UnOp, Value};

use super::compiled::{decode, encode, mask_of, CompiledTransition, Instr, RegWriteSel, UntimedIo};

/// How hard [`crate::CompiledSim::new_with`] optimises the evaluation
/// tape. The default (used by [`crate::CompiledSim::new`]) is `Full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Lower the captured graph verbatim (the unoptimised tape).
    None,
    /// Constant folding, copy propagation and algebraic simplification.
    Basic,
    /// `Basic` plus value-numbering CSE, liveness-based dead-code
    /// elimination and slot compaction.
    #[default]
    Full,
}

/// What the optimizer did to one tape, reported through
/// [`crate::CompiledSim::opt_stats`] and (once an observability bundle is
/// attached) the `compiled.opt.*` counters of the deterministic
/// namespace. All counts are pure functions of the captured system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions entering the optimizer (main tape + guard pre-tape).
    pub instrs_in: u64,
    /// Instructions surviving all passes.
    pub instrs_out: u64,
    /// Instructions folded away because every operand was constant.
    pub folded: u64,
    /// Algebraic rewrites (identity/absorbing-element removals,
    /// strength reductions, mux collapses).
    pub algebraic: u64,
    /// Copies eliminated by renaming.
    pub copies: u64,
    /// Instructions removed as duplicates by value numbering.
    pub cse_hits: u64,
    /// Instructions removed by the liveness walk.
    pub dce_removed: u64,
    /// Slots entering the optimizer.
    pub slots_in: u64,
    /// Slots surviving compaction.
    pub slots_out: u64,
    /// Slots reclaimed by compaction.
    pub slots_saved: u64,
}

/// Everything outside the two tapes that holds slot numbers. The passes
/// rename and compact through these so the simulator's external readers
/// (register commit, untimed firing, FSM guards, net map) stay
/// consistent.
pub(crate) struct OptEnv<'a> {
    pub slots: &'a mut Vec<u64>,
    pub slot_ty: &'a mut Vec<SigType>,
    pub net_slot: &'a mut Vec<u32>,
    pub reg_writes: &'a mut Vec<RegWriteSel>,
    pub untimed_io: &'a mut Vec<UntimedIo>,
    pub fsm_tables: &'a mut Vec<Vec<Vec<CompiledTransition>>>,
}

/// Runs the optimizer pipeline over the sorted main tape and the guard
/// pre-tape, rewriting both in place together with the slot-bearing
/// structures in `env`.
pub(crate) fn optimize(
    level: OptLevel,
    tape: &mut Vec<Instr>,
    pre: &mut Vec<Instr>,
    env: &mut OptEnv<'_>,
) -> OptStats {
    let mut stats = OptStats {
        instrs_in: (tape.len() + pre.len()) as u64,
        slots_in: env.slots.len() as u64,
        ..OptStats::default()
    };
    if level == OptLevel::None {
        stats.instrs_out = stats.instrs_in;
        stats.slots_out = stats.slots_in;
        return stats;
    }
    let n = env.slots.len();

    // A slot is a folding-safe constant iff nothing ever writes it: not a
    // net (set_input / poke_net / Drive / Fire), not an untimed output,
    // not any instruction's destination. What remains are the slots
    // allocated for `Const` nodes (and guard-cone constants).
    let mut written = vec![false; n];
    for s in env.net_slot.iter() {
        written[*s as usize] = true;
    }
    for (_, outs) in env.untimed_io.iter() {
        for (s, _) in outs {
            written[*s as usize] = true;
        }
    }
    for i in tape.iter().chain(pre.iter()) {
        if let Some(d) = dst_of(i) {
            written[d as usize] = true;
        }
    }
    let mut is_const: Vec<bool> = written.iter().map(|w| !w).collect();

    // Slot renaming built up by copy propagation / folding / CSE.
    // Invariant: entries always point at their final representative (a
    // slot is only ever renamed at the single point its producer is
    // processed, and representatives are never renamed afterwards), so
    // one lookup fully resolves.
    let mut subst: Vec<u32> = (0..n as u32).collect();
    let full = level == OptLevel::Full;

    // The guard pre-tape executes before transition selection reads the
    // guard slots, i.e. before the main tape; each gets its own value
    // numbering so no instruction is ever renamed onto a slot computed
    // in a *later* phase of the cycle.
    pass(
        tape,
        full,
        &mut subst,
        &mut is_const,
        env.slots,
        env.slot_ty,
        &mut stats,
    );
    pass(
        pre,
        full,
        &mut subst,
        &mut is_const,
        env.slots,
        env.slot_ty,
        &mut stats,
    );

    // Rename the external slot references.
    for w in env.reg_writes.iter_mut() {
        for (_, s) in &mut w.cands {
            *s = subst[*s as usize];
        }
    }
    for (ins, _) in env.untimed_io.iter_mut() {
        for (s, _) in ins {
            *s = subst[*s as usize];
        }
    }
    for tables in env.fsm_tables.iter_mut() {
        for state in tables.iter_mut() {
            for tr in state.iter_mut() {
                if let Some(g) = &mut tr.guard_slot {
                    *g = subst[*g as usize];
                }
            }
        }
    }

    if full {
        // Liveness DCE: the main tape is rooted at the register-write
        // selectors (Drive/Fire are kept unconditionally and root their
        // own reads); the pre-tape is rooted at the guard slots.
        let mut live = vec![false; n];
        for w in env.reg_writes.iter() {
            for (_, s) in &w.cands {
                live[*s as usize] = true;
            }
        }
        dce(tape, &mut live, env.untimed_io, &mut stats);
        let mut live_pre = vec![false; n];
        for tables in env.fsm_tables.iter() {
            for state in tables {
                for tr in state {
                    if let Some(g) = tr.guard_slot {
                        live_pre[g as usize] = true;
                    }
                }
            }
        }
        dce(pre, &mut live_pre, env.untimed_io, &mut stats);

        compact(tape, pre, env, &mut stats);
    }

    stats.instrs_out = (tape.len() + pre.len()) as u64;
    stats.slots_out = env.slots.len() as u64;
    stats
}

/// The computed-value destination of an instruction (`None` for the
/// side-effecting `Drive`/`Fire`, whose write targets are net slots and
/// untimed output slots respectively).
fn dst_of(i: &Instr) -> Option<u32> {
    match i {
        Instr::Copy { dst, .. }
        | Instr::RegRead { dst, .. }
        | Instr::Un { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::Select { dst, .. } => Some(*dst),
        Instr::Drive { .. } | Instr::Fire { .. } => None,
    }
}

/// Value-numbering key: operator identity plus fully-resolved operand
/// slots. `Copy` never enters the table (it is always propagated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum VnKey {
    Un(UnOp, u32),
    Bin(BinOp, u32, u32),
    Select(u32, u32, u32),
    RegRead(u32, u32),
}

/// Outcome of the algebraic rule table for one instruction.
enum Rewrite {
    /// The destination is the given constant; drop the instruction.
    Const(u64),
    /// The destination is an alias of an existing slot; drop and rename.
    Alias(u32),
    /// Replace the instruction (strength reduction).
    Replace(Instr),
}

/// One forward pass: constant folding, copy propagation, algebraic
/// simplification and (at `Full`) value-numbering CSE. Instructions are
/// visited in tape order, so operand substitutions are always complete
/// when an instruction is reached (the tape is topologically sorted).
fn pass(
    instrs: &mut Vec<Instr>,
    full: bool,
    subst: &mut [u32],
    is_const: &mut [bool],
    slots: &mut [u64],
    slot_ty: &[SigType],
    stats: &mut OptStats,
) {
    let mut vn: HashMap<VnKey, u32> = HashMap::new();
    let mut out: Vec<Instr> = Vec::with_capacity(instrs.len());
    for mut ins in instrs.drain(..) {
        resolve_reads(&mut ins, subst);
        let dst = match dst_of(&ins) {
            None => {
                // Drive/Fire: side effects, always kept.
                out.push(ins);
                continue;
            }
            Some(d) => d as usize,
        };

        // Copy propagation.
        if let Instr::Copy { src, .. } = ins {
            subst[dst] = src;
            if is_const[src as usize] && slot_ty[src as usize] == slot_ty[dst] {
                is_const[dst] = true;
                slots[dst] = slots[src as usize];
            }
            stats.copies += 1;
            continue;
        }

        // Constant folding through the interpreter's own evaluation
        // semantics (bit-identical fixed-point quantisation).
        if let Some(v) = fold(&ins, is_const, slots, slot_ty) {
            if v.sig_type() == slot_ty[dst] {
                slots[dst] = encode(&v);
                is_const[dst] = true;
                stats.folded += 1;
                continue;
            }
        }

        // Algebraic simplification / strength reduction.
        match algebraic(&ins, is_const, slots, slot_ty) {
            Some(Rewrite::Const(bits)) => {
                slots[dst] = bits;
                is_const[dst] = true;
                stats.algebraic += 1;
                continue;
            }
            Some(Rewrite::Alias(s)) => {
                subst[dst] = s;
                stats.algebraic += 1;
                continue;
            }
            Some(Rewrite::Replace(r)) => {
                stats.algebraic += 1;
                ins = r;
            }
            None => {}
        }

        // Value numbering.
        if full {
            let key = vn_key(&ins, slot_ty);
            if let Some(&prev) = vn.get(&key) {
                if slot_ty[prev as usize] == slot_ty[dst] {
                    subst[dst] = prev;
                    stats.cse_hits += 1;
                    continue;
                }
            }
            vn.insert(key, dst as u32);
        }
        out.push(ins);
    }
    *instrs = out;
}

/// Applies the substitution map to every slot an instruction *reads*.
/// Destinations (and `Drive`'s net slot / `Fire`'s I/O lists) are write
/// targets and are never renamed.
fn resolve_reads(ins: &mut Instr, subst: &[u32]) {
    match ins {
        Instr::Copy { src, .. } => *src = subst[*src as usize],
        Instr::Un { a, .. } => *a = subst[*a as usize],
        Instr::Bin { a, b, .. } => {
            *a = subst[*a as usize];
            *b = subst[*b as usize];
        }
        Instr::Select { c, t, e, .. } => {
            *c = subst[*c as usize];
            *t = subst[*t as usize];
            *e = subst[*e as usize];
        }
        Instr::Drive { cands, .. } => {
            for (_, s) in cands {
                *s = subst[*s as usize];
            }
        }
        Instr::RegRead { .. } | Instr::Fire { .. } => {}
    }
}

/// Evaluates an instruction whose operands are all constants, using the
/// same [`UnOp::apply`]/[`BinOp::apply`] the interpreted simulator runs,
/// so folding is bit-identical — including fixed-point quantisation.
fn fold(ins: &Instr, is_const: &[bool], slots: &[u64], slot_ty: &[SigType]) -> Option<Value> {
    let val = |s: u32| decode(slots[s as usize], slot_ty[s as usize]);
    match ins {
        Instr::Un { op, a, .. } if is_const[*a as usize] => Some(op.apply(val(*a))),
        Instr::Bin { op, a, b, .. } if is_const[*a as usize] && is_const[*b as usize] => {
            Some(op.apply(val(*a), val(*b)))
        }
        Instr::Select { c, t, e, .. } if is_const[*c as usize] => {
            // A constant condition selects a branch even when the branch
            // itself is dynamic; the non-constant case aliases below.
            let taken = if slots[*c as usize] != 0 { *t } else { *e };
            if is_const[taken as usize] {
                Some(val(taken))
            } else {
                None
            }
        }
        _ => None,
    }
}

/// The algebraic rule table. Every rule is gated on unsigned `Bits` (or
/// `Bool`) operands whose type equals the destination type, so a rename
/// is transparent; fixed-point and float operands are never rewritten —
/// in particular a signed (fixed-point) multiply by a power of two is
/// *not* strength-reduced to a shift.
fn algebraic(
    ins: &Instr,
    is_const: &[bool],
    slots: &[u64],
    slot_ty: &[SigType],
) -> Option<Rewrite> {
    match ins {
        Instr::Select { c, t, e, .. } => {
            if is_const[*c as usize] {
                // mux(const, a, b) → a or b (taken branch was dynamic).
                return Some(Rewrite::Alias(if slots[*c as usize] != 0 {
                    *t
                } else {
                    *e
                }));
            }
            if t == e {
                // mux(c, a, a) → a.
                return Some(Rewrite::Alias(*t));
            }
            None
        }
        Instr::Un { op, dst, a } => {
            let at = slot_ty[*a as usize];
            if at != slot_ty[*dst as usize] {
                // Identity rules only apply when the alias is
                // type-transparent (e.g. Slice to a narrower width is
                // not, even at lo = 0).
                return None;
            }
            match (op, at) {
                (UnOp::Shl(0) | UnOp::Shr(0), SigType::Bits(_)) => Some(Rewrite::Alias(*a)),
                (UnOp::ToBits(w), SigType::Bits(aw)) if *w == aw => Some(Rewrite::Alias(*a)),
                (UnOp::ToFloat, SigType::Float) => Some(Rewrite::Alias(*a)),
                _ => None,
            }
        }
        Instr::Bin { op, dst, a, b } => {
            let (at, bt) = (slot_ty[*a as usize], slot_ty[*b as usize]);
            let dt = slot_ty[*dst as usize];

            // Same-slot comparison: decided without any constant operand
            // (unsound only for floats, where NaN != NaN).
            if matches!(
                op,
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
            ) {
                if a == b && at != SigType::Float {
                    let v = matches!(op, BinOp::Eq | BinOp::Le | BinOp::Ge);
                    return Some(Rewrite::Const(v as u64));
                }
                return None;
            }

            // Identity / absorbing-element rules need all three types
            // equal (true for well-typed Bits/Bool logic and Bits
            // arithmetic; false for fixed point, where formats grow).
            if at != dt || bt != dt {
                return None;
            }
            // (constant operand value, the other operand's slot); the
            // both-constant case was already folded.
            let konst = if is_const[*a as usize] {
                Some((slots[*a as usize], *b))
            } else if is_const[*b as usize] {
                Some((slots[*b as usize], *a))
            } else {
                None
            };
            match dt {
                SigType::Bits(w) => {
                    let (cv, other) = konst?;
                    let mask = mask_of(w);
                    match op {
                        BinOp::Mul if cv == 0 => Some(Rewrite::Const(0)),
                        BinOp::Mul if cv == 1 => Some(Rewrite::Alias(other)),
                        BinOp::Mul if cv.is_power_of_two() => {
                            // Unsigned wrapping multiply by 2^k is a
                            // masked left shift; the micro-op applies
                            // the same width mask.
                            Some(Rewrite::Replace(Instr::Un {
                                op: UnOp::Shl(cv.trailing_zeros()),
                                dst: *dst,
                                a: other,
                            }))
                        }
                        BinOp::Add if cv == 0 => Some(Rewrite::Alias(other)),
                        // Only x - 0; 0 - x is a negation, not a copy.
                        BinOp::Sub if cv == 0 && is_const[*b as usize] => Some(Rewrite::Alias(*a)),
                        BinOp::And if cv == 0 => Some(Rewrite::Const(0)),
                        BinOp::And if cv == mask => Some(Rewrite::Alias(other)),
                        BinOp::Or if cv == 0 => Some(Rewrite::Alias(other)),
                        BinOp::Or if cv == mask => Some(Rewrite::Const(mask)),
                        BinOp::Xor if cv == 0 => Some(Rewrite::Alias(other)),
                        _ => None,
                    }
                }
                SigType::Bool => {
                    let (cv, other) = konst?;
                    match (op, cv != 0) {
                        (BinOp::And, false) => Some(Rewrite::Const(0)),
                        (BinOp::And, true) => Some(Rewrite::Alias(other)),
                        (BinOp::Or, true) => Some(Rewrite::Const(1)),
                        (BinOp::Or, false) => Some(Rewrite::Alias(other)),
                        (BinOp::Xor, false) => Some(Rewrite::Alias(other)),
                        _ => None,
                    }
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Builds the value-numbering key, canonicalising commutative operators
/// (except float add/mul, where `a ⊕ b` and `b ⊕ a` may differ in NaN
/// payload bits).
fn vn_key(ins: &Instr, slot_ty: &[SigType]) -> VnKey {
    match ins {
        Instr::Un { op, a, .. } => VnKey::Un(*op, *a),
        Instr::Bin { op, a, b, .. } => {
            let commutes = match op {
                BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq | BinOp::Ne => true,
                BinOp::Add | BinOp::Mul => slot_ty[*a as usize] != SigType::Float,
                _ => false,
            };
            if commutes && a > b {
                VnKey::Bin(*op, *b, *a)
            } else {
                VnKey::Bin(*op, *a, *b)
            }
        }
        Instr::Select { c, t, e, .. } => VnKey::Select(*c, *t, *e),
        Instr::RegRead { inst, reg, .. } => VnKey::RegRead(*inst, *reg),
        // Copy is always propagated and Drive/Fire never reach the VN.
        Instr::Copy { src, .. } => VnKey::Un(UnOp::ToBool, *src),
        Instr::Drive { net_slot, .. } => VnKey::RegRead(u32::MAX, *net_slot),
        Instr::Fire { inst } => VnKey::RegRead(u32::MAX, *inst),
    }
}

/// Backward liveness walk. `Drive` and `Fire` are unconditionally live
/// (conditional net writes and untimed side effects); every other
/// instruction survives only if its destination is live, and a surviving
/// instruction marks everything it reads.
fn dce(instrs: &mut Vec<Instr>, live: &mut [bool], untimed_io: &[UntimedIo], stats: &mut OptStats) {
    let mut kept: Vec<Instr> = Vec::with_capacity(instrs.len());
    for ins in instrs.drain(..).rev() {
        let keep = match dst_of(&ins) {
            None => true,
            Some(d) => live[d as usize],
        };
        if !keep {
            stats.dce_removed += 1;
            continue;
        }
        match &ins {
            Instr::Copy { src, .. } => live[*src as usize] = true,
            Instr::Un { a, .. } => live[*a as usize] = true,
            Instr::Bin { a, b, .. } => {
                live[*a as usize] = true;
                live[*b as usize] = true;
            }
            Instr::Select { c, t, e, .. } => {
                live[*c as usize] = true;
                live[*t as usize] = true;
                live[*e as usize] = true;
            }
            Instr::Drive { cands, .. } => {
                for (_, s) in cands {
                    live[*s as usize] = true;
                }
            }
            Instr::Fire { inst } => {
                // Fire reads its input slots and the current output
                // values (held defaults when the block is not ready).
                let (ins_io, outs_io) = &untimed_io[*inst as usize];
                for (s, _) in ins_io {
                    live[*s as usize] = true;
                }
                for (s, _) in outs_io {
                    live[*s as usize] = true;
                }
            }
            Instr::RegRead { .. } => {}
        }
        kept.push(ins);
    }
    kept.reverse();
    *instrs = kept;
}

/// Renumbers the state vector down to the live slots: everything still
/// referenced by either tape, the net map (all nets stay addressable by
/// `peek_net`/`poke_net`/`set_input` and the trace taps), the
/// register-write selectors, the untimed I/O lists and the guard slots.
fn compact(tape: &mut [Instr], pre: &mut [Instr], env: &mut OptEnv<'_>, stats: &mut OptStats) {
    let n = env.slots.len();
    let mut used = vec![false; n];
    for s in env.net_slot.iter() {
        used[*s as usize] = true;
    }
    for w in env.reg_writes.iter() {
        for (_, s) in &w.cands {
            used[*s as usize] = true;
        }
    }
    for (ins, outs) in env.untimed_io.iter() {
        for (s, _) in ins.iter().chain(outs.iter()) {
            used[*s as usize] = true;
        }
    }
    for tables in env.fsm_tables.iter() {
        for state in tables {
            for tr in state {
                if let Some(g) = tr.guard_slot {
                    used[g as usize] = true;
                }
            }
        }
    }
    for ins in tape.iter_mut().chain(pre.iter_mut()) {
        for_each_slot(ins, |s| used[s as usize] = true);
    }

    let mut map = vec![0u32; n];
    let mut new_slots = Vec::new();
    let mut new_ty = Vec::new();
    for (s, u) in used.iter().enumerate() {
        if *u {
            map[s] = new_slots.len() as u32;
            new_slots.push(env.slots[s]);
            new_ty.push(env.slot_ty[s]);
        }
    }
    stats.slots_saved = (n - new_slots.len()) as u64;

    for ins in tape.iter_mut().chain(pre.iter_mut()) {
        for_each_slot_mut(ins, |s| *s = map[*s as usize]);
    }
    for s in env.net_slot.iter_mut() {
        *s = map[*s as usize];
    }
    for w in env.reg_writes.iter_mut() {
        for (_, s) in &mut w.cands {
            *s = map[*s as usize];
        }
    }
    for (ins, outs) in env.untimed_io.iter_mut() {
        for (s, _) in ins.iter_mut().chain(outs.iter_mut()) {
            *s = map[*s as usize];
        }
    }
    for tables in env.fsm_tables.iter_mut() {
        for state in tables.iter_mut() {
            for tr in state.iter_mut() {
                if let Some(g) = &mut tr.guard_slot {
                    *g = map[*g as usize];
                }
            }
        }
    }
    *env.slots = new_slots;
    *env.slot_ty = new_ty;
}

/// Visits every slot field of an instruction (reads and writes).
fn for_each_slot(ins: &Instr, mut f: impl FnMut(u32)) {
    match ins {
        Instr::Copy { dst, src } => {
            f(*dst);
            f(*src);
        }
        Instr::RegRead { dst, .. } => f(*dst),
        Instr::Un { dst, a, .. } => {
            f(*dst);
            f(*a);
        }
        Instr::Bin { dst, a, b, .. } => {
            f(*dst);
            f(*a);
            f(*b);
        }
        Instr::Select { dst, c, t, e } => {
            f(*dst);
            f(*c);
            f(*t);
            f(*e);
        }
        Instr::Drive {
            net_slot, cands, ..
        } => {
            f(*net_slot);
            for (_, s) in cands {
                f(*s);
            }
        }
        Instr::Fire { .. } => {}
    }
}

/// Mutable twin of [`for_each_slot`].
fn for_each_slot_mut(ins: &mut Instr, mut f: impl FnMut(&mut u32)) {
    match ins {
        Instr::Copy { dst, src } => {
            f(dst);
            f(src);
        }
        Instr::RegRead { dst, .. } => f(dst),
        Instr::Un { dst, a, .. } => {
            f(dst);
            f(a);
        }
        Instr::Bin { dst, a, b, .. } => {
            f(dst);
            f(a);
            f(b);
        }
        Instr::Select { dst, c, t, e } => {
            f(dst);
            f(c);
            f(t);
            f(e);
        }
        Instr::Drive {
            net_slot, cands, ..
        } => {
            f(net_slot);
            for (_, s) in cands {
                f(s);
            }
        }
        Instr::Fire { .. } => {}
    }
}
