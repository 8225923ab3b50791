//! The one executor of the compiled micro-op tape.
//!
//! [`CompiledSim`](crate::CompiledSim) and
//! [`BatchedSim`](crate::BatchedSim) run the same levelized [`Program`]
//! over the same state layout: every state slot, FSM selector,
//! SFG-activation flag and register is a lane-major *stripe* — entry `k`
//! of lane `l` sits at `k * n + l` — and the scalar simulator is the
//! one-lane case. This module states the semantics of every [`Micro`]
//! op, of transition selection, `Drive`, `Fire` and the register commit
//! exactly once, generic over the lane geometry [`Lanes`]:
//!
//! * [`One`] fixes one lane at compile time, so every stripe offset
//!   folds away and the scalar instantiation is a plain pass over the
//!   slot array;
//! * [`All`] is N lanes with none masked: the per-op lane loop carries
//!   no branch and streams the stripe eight lanes at a time;
//! * [`Live`] is N lanes of which some are masked off: every store is
//!   guarded by the lane mask, so a dead lane's state stays frozen.
//!
//! `BatchedSim` builds its bitsliced Bool word blocks and the
//! masked-lane fallback on top of [`run`] (see `sim::batch`).

use ocapi_fixp::Fix;

use crate::sim::compiled::{
    decode, encode, CompiledTransition, Micro, Program, RegWriteSel, UntimedIo,
};
use crate::sim::snapshot::{check_words, reg_types, SimSnapshot, SnapshotBackend};
use crate::system::System;
use crate::value::Value;
use crate::CoreError;

/// Lane geometry of a striped state vector.
pub(crate) trait Lanes: Copy {
    /// Lanes per stripe.
    fn n(self) -> usize;

    /// Whether lane `l` takes writes.
    fn live(self, l: usize) -> bool;

    /// `s[d + l] = f(s, l)` for every live lane `l` of the stripe at `d`.
    #[inline(always)]
    fn each(self, s: &mut [u64], d: usize, f: impl Fn(&[u64], usize) -> u64) {
        let n = self.n();
        // One range check up front lets the per-lane store checks fold.
        assert!(d + n <= s.len());
        for l in 0..n {
            if self.live(l) {
                let v = f(s, l);
                s[d + l] = v;
            }
        }
    }
}

/// One always-live lane, fixed at compile time: the scalar layout.
#[derive(Debug, Clone, Copy)]
pub(crate) struct One;

impl Lanes for One {
    #[inline(always)]
    fn n(self) -> usize {
        1
    }

    #[inline(always)]
    fn live(self, _: usize) -> bool {
        true
    }
}

/// `n` lanes, none of them masked.
#[derive(Debug, Clone, Copy)]
pub(crate) struct All(pub(crate) usize);

impl Lanes for All {
    #[inline(always)]
    fn n(self) -> usize {
        self.0
    }

    #[inline(always)]
    fn live(self, _: usize) -> bool {
        true
    }

    #[inline(always)]
    fn each(self, s: &mut [u64], d: usize, f: impl Fn(&[u64], usize) -> u64) {
        let n = self.0;
        assert!(d + n <= s.len());
        // Fixed-shape 8-lane chunks the optimizer can keep in registers
        // and vectorize, then a scalar tail for `n % 8`.
        let mut base = 0;
        while base + 8 <= n {
            for l in base..base + 8 {
                let v = f(s, l);
                s[d + l] = v;
            }
            base += 8;
        }
        for l in base..n {
            let v = f(s, l);
            s[d + l] = v;
        }
    }
}

/// One lane per flag; lanes whose flag is `false` are masked off.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Live<'a>(pub(crate) &'a [bool]);

impl Lanes for Live<'_> {
    #[inline(always)]
    fn n(self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn live(self, l: usize) -> bool {
        self.0[l]
    }
}

/// The mutable state of `n` lanes over one [`Program`], striped
/// lane-major. A snapshot of one lane is exactly the
/// [`SnapshotBackend::Compiled`] layout.
pub(crate) struct State {
    n: usize,
    /// Slot `k` of lane `l`: `slots[k * n + l]`.
    pub(crate) slots: Vec<u64>,
    /// FSM state of instance `i` in lane `l`: `states[i * n + l]`.
    pub(crate) states: Vec<u32>,
    /// Per instance: SFG `k` active in lane `l` at `active[i][k * n + l]`.
    active: Vec<Vec<bool>>,
    /// Per instance: register `r` of lane `l` at `regs[i][r * n + l]`.
    pub(crate) regs: Vec<Vec<u64>>,
    /// `Fire` marshalling buffers, kept so that steady-state cycles do
    /// not allocate.
    in_buf: Vec<Value>,
    out_buf: Vec<Value>,
}

impl State {
    /// Power-up state of `n` lanes of `sys` compiled into `prog`.
    pub(crate) fn new(prog: &Program, sys: &System, n: usize) -> State {
        let mut st = State {
            n,
            slots: vec![0; prog.init_slots.len() * n],
            states: vec![0; sys.timed.len() * n],
            active: sys
                .timed
                .iter()
                .map(|t| vec![false; t.comp.sfgs.len() * n])
                .collect(),
            regs: sys
                .timed
                .iter()
                .map(|t| vec![0; t.comp.regs.len() * n])
                .collect(),
            in_buf: Vec::new(),
            out_buf: Vec::new(),
        };
        st.reset(prog, sys);
        st
    }

    /// Returns every lane's slots, FSM states and registers to power-up
    /// values (untimed blocks reset separately, with their systems).
    pub(crate) fn reset(&mut self, prog: &Program, sys: &System) {
        let n = self.n;
        for (stripe, v) in self.slots.chunks_exact_mut(n).zip(&prog.init_slots) {
            stripe.fill(*v);
        }
        for (i, t) in sys.timed.iter().enumerate() {
            let initial = t.comp.fsm.as_ref().map_or(0, |f| f.initial.0);
            self.states[i * n..(i + 1) * n].fill(initial);
            for (stripe, r) in self.regs[i].chunks_exact_mut(n).zip(&t.comp.regs) {
                stripe.fill(encode(&r.init));
            }
        }
    }

    /// Captures lane `l` — `sys` is that lane's system, holding its
    /// untimed-block state.
    pub(crate) fn snapshot(&self, l: usize, sys: &System, hash: u64, cycle: u64) -> SimSnapshot {
        let n = self.n;
        let mut s = SimSnapshot::new(SnapshotBackend::Compiled, hash, cycle);
        s.push_section(
            "slots",
            self.slots.iter().skip(l).step_by(n).copied().collect(),
        );
        s.push_section(
            "states",
            self.states
                .iter()
                .skip(l)
                .step_by(n)
                .map(|x| u64::from(*x))
                .collect(),
        );
        s.push_section(
            "regs",
            self.regs
                .iter()
                .flat_map(|rf| rf.iter().skip(l).step_by(n))
                .copied()
                .collect(),
        );
        for (i, u) in sys.untimed.iter().enumerate() {
            let words = u.block.snapshot_state();
            if !words.is_empty() {
                s.push_section(&format!("untimed.{i}"), words);
            }
        }
        s
    }

    /// Validates `snap` against this build and installs it into lane
    /// `l`, whose system (and untimed blocks) is `sys`. The caller
    /// adopts the snapshot's cycle count.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotMismatch`] for a snapshot of a different
    /// design or optimization level, [`CoreError::SnapshotFormat`] for
    /// another back-end family or damaged sections. On error the lane's
    /// state is unspecified.
    pub(crate) fn restore(
        &mut self,
        l: usize,
        snap: &SimSnapshot,
        hash: u64,
        prog: &Program,
        sys: &mut System,
    ) -> Result<(), CoreError> {
        let n = self.n;
        snap.check(SnapshotBackend::Compiled, hash)?;
        let slot_words = snap.section_exact("slots", prog.init_slots.len())?;
        let state_words = snap.section_exact("states", sys.timed.len())?;
        let n_regs = self.regs.iter().map(|rf| rf.len() / n).sum();
        let reg_words = snap.section_exact("regs", n_regs)?;
        check_words("slots", slot_words, prog.slot_ty.iter().copied())?;
        check_words("regs", reg_words, reg_types(sys))?;
        for (t, idx) in sys.timed.iter().zip(state_words) {
            let n_states = t.comp.fsm.as_ref().map_or(1, |f| f.states.len() as u64);
            if *idx >= n_states {
                return Err(CoreError::SnapshotFormat {
                    reason: format!("state selector {idx} out of range for `{}`", t.name),
                });
            }
        }
        for (w, x) in self.slots.iter_mut().skip(l).step_by(n).zip(slot_words) {
            *w = *x;
        }
        for (w, x) in self.states.iter_mut().skip(l).step_by(n).zip(state_words) {
            *w = *x as u32;
        }
        let regs = self
            .regs
            .iter_mut()
            .flat_map(|rf| rf.iter_mut().skip(l).step_by(n));
        for (w, x) in regs.zip(reg_words) {
            *w = *x;
        }
        for (i, u) in sys.untimed.iter_mut().enumerate() {
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
        Ok(())
    }
}

/// Evaluates `ops` in every live lane of `st` — the one interpreter of
/// [`Micro`] semantics. `io` is the program's untimed-block wiring and
/// `systems[l]` holds lane `l`'s untimed blocks.
pub(crate) fn run<L: Lanes>(
    ops: &[Micro],
    io: &[UntimedIo],
    st: &mut State,
    systems: &mut [System],
    lanes: L,
) {
    let n = lanes.n();
    // Stripe index of slot (or register, or SFG) `x` in lane `l`.
    // Derived from `lanes`, not from a local, and captured by value
    // (`move`): with `One` this closure is zero-sized and the stripe
    // width folds to the constant 1.
    let at = move |x: &u32, l: usize| *x as usize * lanes.n() + l;
    let State {
        slots: s,
        regs,
        active,
        in_buf,
        out_buf,
        ..
    } = st;
    for m in ops {
        match m {
            Micro::Copy { dst, src } => lanes.each(s, at(dst, 0), move |s, l| s[at(src, l)]),
            Micro::RegRead { dst, inst, reg } => {
                let r = &regs[*inst as usize];
                lanes.each(s, at(dst, 0), move |_, l| r[at(reg, l)]);
            }
            Micro::AddB { dst, a, b, mask } => {
                lanes.each(s, at(dst, 0), move |s, l| {
                    s[at(a, l)].wrapping_add(s[at(b, l)]) & mask
                });
            }
            Micro::SubB { dst, a, b, mask } => {
                lanes.each(s, at(dst, 0), move |s, l| {
                    s[at(a, l)].wrapping_sub(s[at(b, l)]) & mask
                });
            }
            Micro::MulB { dst, a, b, mask } => {
                lanes.each(s, at(dst, 0), move |s, l| {
                    s[at(a, l)].wrapping_mul(s[at(b, l)]) & mask
                });
            }
            Micro::AndU { dst, a, b } => {
                lanes.each(s, at(dst, 0), move |s, l| s[at(a, l)] & s[at(b, l)]);
            }
            Micro::OrU { dst, a, b } => {
                lanes.each(s, at(dst, 0), move |s, l| s[at(a, l)] | s[at(b, l)]);
            }
            Micro::XorU { dst, a, b } => {
                lanes.each(s, at(dst, 0), move |s, l| s[at(a, l)] ^ s[at(b, l)]);
            }
            Micro::NotU { dst, a, mask } => {
                lanes.each(s, at(dst, 0), move |s, l| !s[at(a, l)] & mask)
            }
            Micro::NegB { dst, a, mask } => {
                lanes.each(s, at(dst, 0), move |s, l| s[at(a, l)].wrapping_neg() & mask);
            }
            Micro::ShlB { dst, n: sh, .. }
            | Micro::ShrB { dst, n: sh, .. }
            | Micro::ShrMask { dst, n: sh, .. }
                if *sh >= 64 =>
            {
                lanes.each(s, at(dst, 0), move |_, _| 0);
            }
            Micro::ShlB {
                dst,
                a,
                n: sh,
                mask,
            } => lanes.each(s, at(dst, 0), move |s, l| (s[at(a, l)] << sh) & mask),
            Micro::ShrB { dst, a, n: sh } => {
                lanes.each(s, at(dst, 0), move |s, l| s[at(a, l)] >> sh)
            }
            Micro::ShrMask {
                dst,
                a,
                n: sh,
                mask,
            } => lanes.each(s, at(dst, 0), move |s, l| (s[at(a, l)] >> sh) & mask),
            Micro::CmpU { dst, a, b, kind } => {
                lanes.each(s, at(dst, 0), move |s, l| {
                    kind.apply(s[at(a, l)].cmp(&s[at(b, l)])) as u64
                });
            }
            Micro::AddF {
                dst,
                a,
                b,
                sha,
                shb,
            } => lanes.each(s, at(dst, 0), move |s, l| {
                let x = (s[at(a, l)] as i64) << sha;
                let y = (s[at(b, l)] as i64) << shb;
                (x + y) as u64
            }),
            Micro::SubF {
                dst,
                a,
                b,
                sha,
                shb,
            } => lanes.each(s, at(dst, 0), move |s, l| {
                let x = (s[at(a, l)] as i64) << sha;
                let y = (s[at(b, l)] as i64) << shb;
                (x - y) as u64
            }),
            Micro::MulF { dst, a, b } => lanes.each(s, at(dst, 0), move |s, l| {
                let p = s[at(a, l)] as i64 as i128 * s[at(b, l)] as i64 as i128;
                p as i64 as u64
            }),
            Micro::NegF { dst, a } => {
                lanes.each(s, at(dst, 0), move |s, l| {
                    (s[at(a, l)] as i64).wrapping_neg() as u64
                });
            }
            Micro::CmpF {
                dst,
                a,
                b,
                sha,
                shb,
                kind,
            } => lanes.each(s, at(dst, 0), move |s, l| {
                let x = (s[at(a, l)] as i64 as i128) << sha;
                let y = (s[at(b, l)] as i64 as i128) << shb;
                kind.apply(x.cmp(&y)) as u64
            }),
            Micro::CastF {
                dst,
                a,
                src,
                target,
                rnd,
                ovf,
            } => lanes.each(s, at(dst, 0), move |s, l| {
                let v = Fix::from_raw(s[at(a, l)] as i64, *src);
                v.cast(*target, *rnd, *ovf).mantissa() as u64
            }),
            Micro::FloatToFix {
                dst,
                a,
                target,
                rnd,
                ovf,
            } => lanes.each(s, at(dst, 0), move |s, l| {
                let x = f64::from_bits(s[at(a, l)]);
                Fix::from_f64(x, *target, *rnd, *ovf).mantissa() as u64
            }),
            Micro::AddFl { dst, a, b } => lanes.each(s, at(dst, 0), move |s, l| {
                (f64::from_bits(s[at(a, l)]) + f64::from_bits(s[at(b, l)])).to_bits()
            }),
            Micro::SubFl { dst, a, b } => lanes.each(s, at(dst, 0), move |s, l| {
                (f64::from_bits(s[at(a, l)]) - f64::from_bits(s[at(b, l)])).to_bits()
            }),
            Micro::MulFl { dst, a, b } => lanes.each(s, at(dst, 0), move |s, l| {
                (f64::from_bits(s[at(a, l)]) * f64::from_bits(s[at(b, l)])).to_bits()
            }),
            Micro::NegFl { dst, a } => {
                lanes.each(s, at(dst, 0), move |s, l| {
                    (-f64::from_bits(s[at(a, l)])).to_bits()
                });
            }
            Micro::CmpFl { dst, a, b, kind } => lanes.each(s, at(dst, 0), move |s, l| {
                let o = f64::from_bits(s[at(a, l)])
                    .partial_cmp(&f64::from_bits(s[at(b, l)]))
                    .unwrap_or(std::cmp::Ordering::Equal);
                kind.apply(o) as u64
            }),
            Micro::MaskTo { dst, a, mask } => {
                lanes.each(s, at(dst, 0), move |s, l| s[at(a, l)] & mask)
            }
            Micro::NonZero { dst, a } => {
                lanes.each(s, at(dst, 0), move |s, l| (s[at(a, l)] != 0) as u64);
            }
            Micro::NonZeroFloat { dst, a } => {
                lanes.each(s, at(dst, 0), move |s, l| {
                    (f64::from_bits(s[at(a, l)]) != 0.0) as u64
                });
            }
            Micro::ToFloatBits { dst, a } => {
                lanes.each(s, at(dst, 0), move |s, l| (s[at(a, l)] as f64).to_bits());
            }
            Micro::ToFloatFix { dst, a, frac_bits } => lanes.each(s, at(dst, 0), move |s, l| {
                (s[at(a, l)] as i64 as f64 * f64::powi(2.0, -(*frac_bits as i32))).to_bits()
            }),
            Micro::SelectU { dst, c, t, e } => lanes.each(s, at(dst, 0), move |s, l| {
                if s[at(c, l)] != 0 {
                    s[at(t, l)]
                } else {
                    s[at(e, l)]
                }
            }),
            // The net takes the value of the first candidate whose SFG
            // runs this cycle, and holds when none does.
            Micro::Drive {
                net_slot,
                inst,
                cands,
            } => {
                let act = &active[*inst as usize];
                for l in (0..n).filter(move |l| lanes.live(*l)) {
                    if let Some((_, src)) = cands.iter().find(move |(sfg, _)| act[at(sfg, l)]) {
                        s[at(net_slot, l)] = s[at(src, l)];
                    }
                }
            }
            Micro::Fire { inst } => {
                let u = *inst as usize;
                let (ins, outs) = &io[u];
                for l in (0..n).filter(move |l| lanes.live(*l)) {
                    in_buf.clear();
                    in_buf.extend(ins.iter().map(|(sl, ty)| decode(s[at(sl, l)], *ty)));
                    out_buf.clear();
                    out_buf.extend(outs.iter().map(|(sl, ty)| decode(s[at(sl, l)], *ty)));
                    let block = &mut systems[l].untimed[u].block;
                    if block.ready(in_buf) {
                        block.fire(in_buf, out_buf);
                        for ((sl, _), v) in outs.iter().zip(out_buf.iter()) {
                            s[at(sl, l)] = encode(v);
                        }
                    }
                }
            }
        }
    }
}

/// Transition selection (phase 0 of the cycle) in every live lane: each
/// FSM takes the first transition out of its state whose guard slot
/// holds, and exactly that transition's SFGs become active; an instance
/// without an FSM runs every SFG. Returns the SFG activations.
pub(crate) fn select<L: Lanes>(
    tables: &[Vec<Vec<CompiledTransition>>],
    st: &mut State,
    lanes: L,
) -> u64 {
    let n = lanes.n();
    let mut firings = 0;
    let slots = &st.slots;
    for (i, table) in tables.iter().enumerate() {
        let act = &mut st.active[i];
        if table.is_empty() {
            firings += act.len() as u64;
            act.fill(true);
            continue;
        }
        let n_sfgs = act.len() / n;
        for l in (0..n).filter(move |l| lanes.live(*l)) {
            for k in 0..n_sfgs {
                act[k * n + l] = false;
            }
            let state = &mut st.states[i * n + l];
            let taken = table[*state as usize].iter().find(move |tr| {
                tr.guard_slot
                    .is_none_or(move |g| slots[g as usize * n + l] != 0)
            });
            if let Some(tr) = taken {
                *state = tr.to;
                for sk in &tr.sfgs {
                    let a = &mut act[*sk as usize * n + l];
                    firings += u64::from(!*a);
                    *a = true;
                }
            }
        }
    }
    firings
}

/// Register update (the last phase of the cycle) in every live lane:
/// each register takes the value of the first candidate whose SFG ran.
/// Returns the register writes.
pub(crate) fn commit<L: Lanes>(writes: &[RegWriteSel], st: &mut State, lanes: L) -> u64 {
    let n = lanes.n();
    let mut updates = 0;
    for w in writes {
        let act = &st.active[w.inst as usize];
        let rf = &mut st.regs[w.inst as usize];
        for l in (0..n).filter(move |l| lanes.live(*l)) {
            let ran = w
                .cands
                .iter()
                .find(move |(sfg, _)| act[*sfg as usize * n + l]);
            if let Some((_, src)) = ran {
                rf[w.reg as usize * n + l] = st.slots[*src as usize * n + l];
                updates += 1;
            }
        }
    }
    updates
}
