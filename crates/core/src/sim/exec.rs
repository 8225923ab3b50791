//! The one executor of the compiled micro-op tape.
//!
//! [`BatchedSim`](crate::BatchedSim), the one tape simulator, runs a
//! levelized [`Program`] over one state layout: every state slot, FSM
//! selector, SFG-activation flag and register is a lane-major *stripe* —
//! entry `k` of lane `l` sits at `k * n + l` — and
//! [`CompiledSim`](crate::CompiledSim) is the one-lane case. This module
//! states the semantics of every [`Micro`]
//! op, of transition selection, `Drive`, `Fire` and the register commit
//! exactly once, generic over the lane geometry [`Lanes`]:
//!
//! * [`One`] fixes one lane at compile time, so every stripe offset
//!   folds away and the one-lane instantiation is a plain pass over the
//!   slot array;
//! * [`All`] is N lanes with none masked;
//! * [`Live`] is N lanes of which some are masked off: a masked lane is
//!   neither evaluated nor written, so its state stays frozen.
//!
//! **Kernels.** Each op is one call of a fixed-width lane kernel of its
//! geometry (`map1`/`map2`/`map3` over slot stripes, `copy` between the
//! slot and register arrays). [`All`]'s kernels walk a stripe in 8-lane
//! chunks and load every operand chunk before storing the result chunk,
//! so an op whose destination is also a source stays correct, with one
//! range check per operand per chunk. Whatever an op's static operands
//! select is matched once per op, outside the lane loop: the compare
//! kind, and a cast's shift direction, rounding and overflow mode — a
//! `CastF` is `Fix::cast`'s exact arithmetic inlined on `i64`s, keeping
//! `Fix::from_raw`'s mantissa-range assert. `SelectU` is a mask blend.
//! Only the `Fire` of a generic untimed block and the `Drive` of an FSM
//! instance walk lanes one by one with per-lane calls.
//!
//! **Memories.** A `Fire` of a block that reports a
//! [`MemorySpec`](crate::MemorySpec) and is wired in the memory shape
//! ([`Memory::wire`]) runs natively: each live lane masks its address,
//! reads a `u64` word — a ROM from the one power-up image every lane
//! shares, a RAM from its lane's words — and a RAM then stores its
//! canonical `wdata` when `we` is set. No `Value` is built and no block
//! is called; the memories are part of the [`State`], planned when the
//! state is built from the batch's template (not from the [`Program`],
//! so two variants of a design that share a tape still read their own
//! contents). Every other block fires through its lane's own copy
//! ([`Fired::Block`]).
//!
//! **Static control.** An instance without an FSM runs every SFG every
//! cycle. Its activation flags are set once, when the [`State`] is
//! built; transition selection skips it (still counting its firings),
//! its `Drive`s copy their first candidate, and its register writes
//! commit as plain stripe copies.

use std::cmp::Ordering;

use ocapi_fixp::{Fix, Format, Overflow, Rounding};

use crate::blocks::{MemorySpec, UntimedBlock};
use crate::sim::compiled::{Cmp, CompiledTransition, Micro, Program, RegWriteSel, UntimedIo};
use crate::sim::snapshot::{held_outputs, taken, SimSnapshot};
use crate::system::System;
use crate::value::{SigType, Value};
use crate::CoreError;

/// Lane geometry of a striped state vector, and the fixed-width lane
/// kernels every [`Micro`] op runs through. Stripe `x` of a slot (or
/// register) array starts at `x * n`; a kernel call computes one op for
/// every live lane of its stripes.
pub(crate) trait Lanes: Copy {
    /// Lanes per stripe.
    fn n(self) -> usize;

    /// Whether lane `l` takes writes.
    fn live(self, l: usize) -> bool;

    /// Number of live lanes.
    #[inline(always)]
    fn live_lanes(self) -> u64 {
        (0..self.n()).filter(|l| self.live(*l)).count() as u64
    }

    /// `s[d] = f(s[a])`, stripe-wise, in every live lane.
    #[inline(always)]
    fn map1(self, s: &mut [u64], d: u32, a: u32, f: impl Fn(u64) -> u64) {
        let n = self.n();
        let (d, a) = (d as usize * n, a as usize * n);
        for l in 0..n {
            if self.live(l) {
                s[d + l] = f(s[a + l]);
            }
        }
    }

    /// `s[d] = f(s[a], s[b])`, stripe-wise, in every live lane.
    #[inline(always)]
    fn map2(self, s: &mut [u64], d: u32, a: u32, b: u32, f: impl Fn(u64, u64) -> u64) {
        let n = self.n();
        let (d, a, b) = (d as usize * n, a as usize * n, b as usize * n);
        for l in 0..n {
            if self.live(l) {
                s[d + l] = f(s[a + l], s[b + l]);
            }
        }
    }

    /// `s[d] = f(s[a], s[b], s[c])`, stripe-wise, in every live lane.
    #[inline(always)]
    fn map3(self, s: &mut [u64], d: u32, [a, b, c]: [u32; 3], f: impl Fn(u64, u64, u64) -> u64) {
        let n = self.n();
        let (d, a, b, c) = (
            d as usize * n,
            a as usize * n,
            b as usize * n,
            c as usize * n,
        );
        for l in 0..n {
            if self.live(l) {
                s[d + l] = f(s[a + l], s[b + l], s[c + l]);
            }
        }
    }

    /// `dst[d] = src[a]`: one stripe copied between two arrays (a
    /// register read or a register write), in every live lane.
    #[inline(always)]
    fn copy(self, dst: &mut [u64], d: u32, src: &[u64], a: u32) {
        let n = self.n();
        let (d, a) = (d as usize * n, a as usize * n);
        for l in 0..n {
            if self.live(l) {
                dst[d + l] = src[a + l];
            }
        }
    }
}

/// One always-live lane, fixed at compile time: the scalar layout.
/// Every stripe offset folds to the slot index itself.
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

/// `n` lanes, none of them masked. Its kernels stream each stripe in
/// fixed 8-lane chunks: every operand chunk is loaded (one range check
/// each) before the destination chunk is stored, so an op whose
/// destination is also a source stays correct; a scalar tail takes the
/// last `n % 8` lanes. A chunk is computed by a plain loop over the
/// loaded arrays rather than `[T; N]::map` or `array::from_fn`, whose
/// per-element closures LLVM leaves out of line once `exec::run` grows
/// past its inlining limits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct All(pub(crate) usize);

/// Lanes per fixed-width chunk of [`All`]'s kernels.
const CHUNK: usize = 8;

/// The `CHUNK` words of `s` starting at `at`.
#[inline(always)]
fn load(s: &[u64], at: usize) -> [u64; CHUNK] {
    let mut x = [0; CHUNK];
    x.copy_from_slice(&s[at..at + CHUNK]);
    x
}

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
    fn live_lanes(self) -> u64 {
        self.0 as u64
    }

    #[inline(always)]
    fn map1(self, s: &mut [u64], d: u32, a: u32, f: impl Fn(u64) -> u64) {
        let n = self.0;
        let (d, a) = (d as usize * n, a as usize * n);
        let mut l = 0;
        while l + CHUNK <= n {
            let x = load(s, a + l);
            let mut out = [0; CHUNK];
            for (k, o) in out.iter_mut().enumerate() {
                *o = f(x[k]);
            }
            s[d + l..d + l + CHUNK].copy_from_slice(&out);
            l += CHUNK;
        }
        for l in l..n {
            s[d + l] = f(s[a + l]);
        }
    }

    #[inline(always)]
    fn map2(self, s: &mut [u64], d: u32, a: u32, b: u32, f: impl Fn(u64, u64) -> u64) {
        let n = self.0;
        let (d, a, b) = (d as usize * n, a as usize * n, b as usize * n);
        let mut l = 0;
        while l + CHUNK <= n {
            let (x, y) = (load(s, a + l), load(s, b + l));
            let mut out = [0; CHUNK];
            for (k, o) in out.iter_mut().enumerate() {
                *o = f(x[k], y[k]);
            }
            s[d + l..d + l + CHUNK].copy_from_slice(&out);
            l += CHUNK;
        }
        for l in l..n {
            s[d + l] = f(s[a + l], s[b + l]);
        }
    }

    #[inline(always)]
    fn map3(self, s: &mut [u64], d: u32, [a, b, c]: [u32; 3], f: impl Fn(u64, u64, u64) -> u64) {
        let n = self.0;
        let (d, a, b, c) = (
            d as usize * n,
            a as usize * n,
            b as usize * n,
            c as usize * n,
        );
        let mut l = 0;
        while l + CHUNK <= n {
            let (x, y, z) = (load(s, a + l), load(s, b + l), load(s, c + l));
            let mut out = [0; CHUNK];
            for (k, o) in out.iter_mut().enumerate() {
                *o = f(x[k], y[k], z[k]);
            }
            s[d + l..d + l + CHUNK].copy_from_slice(&out);
            l += CHUNK;
        }
        for l in l..n {
            s[d + l] = f(s[a + l], s[b + l], s[c + l]);
        }
    }

    #[inline(always)]
    fn copy(self, dst: &mut [u64], d: u32, src: &[u64], a: u32) {
        let n = self.0;
        let (d, a) = (d as usize * n, a as usize * n);
        dst[d..d + n].copy_from_slice(&src[a..a + n]);
    }
}

/// One lane per flag; lanes whose flag is `false` are masked off: they
/// are neither evaluated nor written.
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

/// How the tape's `Fire` runs one untimed block.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fired {
    /// Through each lane's own copy of generic block `g`: block `g` of
    /// lane `l` at `l * G + g` of the lane-major block slice, `G` being
    /// [`MemoryPlan::generic`].
    Block(usize),
    /// As native memory `k` of the state ([`MemoryPlan::mems`]).
    Memory(usize),
}

/// An untimed block the tape runs as a memory of its state: a block
/// that reports a [`MemorySpec`] and is wired in the memory shape. Every
/// lane reads one power-up image; a RAM also keeps each lane's words.
#[derive(Debug)]
pub(crate) struct Memory {
    /// The address slot.
    addr: u32,
    /// A RAM's `we` and `wdata` slots; `None` for a ROM.
    write: Option<[u32; 2]>,
    /// The read-data slot.
    data: u32,
    /// The word type.
    word: SigType,
    /// `2^a - 1`: the address bits `Value::from_raw` keeps.
    mask: u64,
    /// The power-up contents, `2^a` words: a ROM's words, and what a
    /// reset returns every lane of a RAM to.
    power_up: Box<[u64]>,
    /// A RAM's words, lane after lane: word `x` of lane `l` at
    /// `l * 2^a + x`. Empty for a ROM.
    words: Vec<u64>,
}

impl Memory {
    /// The memory `spec` describes, if the block's wiring `io` has its
    /// shape — a ROM `addr: Bits(a)` → `data: W`, a RAM `addr: Bits(a)`,
    /// `we: Bool`, `wdata: W` → `rdata: W` — and its contents are `2^a`
    /// words of type `W`, which become its power-up image.
    pub(crate) fn wire(io: &UntimedIo, spec: &MemorySpec) -> Option<Memory> {
        let (ins, outs) = io;
        let word = spec.word;
        let a = spec.addr_bits;
        let [(addr, SigType::Bits(w)), rest @ ..] = &ins[..] else {
            return None;
        };
        let write = match (spec.is_rom, rest) {
            (true, []) => None,
            (false, [(we, SigType::Bool), (wdata, ty)]) if *ty == word => Some([*we, *wdata]),
            _ => return None,
        };
        let [(data, ty)] = &outs[..] else {
            return None;
        };
        let power_up = spec
            .contents
            .iter()
            .map(|v| (v.sig_type() == word).then(|| v.to_raw()))
            .collect::<Option<Box<[u64]>>>()?;
        let depth_ok = (1..usize::BITS).contains(&a) && power_up.len() == 1 << a;
        (*w == a && *ty == word && depth_ok).then(|| Memory {
            addr: *addr,
            write,
            data: *data,
            word,
            mask: (1 << a) - 1,
            power_up,
            words: Vec::new(),
        })
    }

    /// Words a lane.
    fn depth(&self) -> usize {
        self.power_up.len()
    }

    /// Returns the RAM words of each of `n` lanes to the power-up image.
    fn reset(&mut self, n: usize) {
        if self.write.is_none() {
            return;
        }
        let d = self.depth();
        self.words.resize(n * d, 0);
        for lane in self.words.chunks_exact_mut(d) {
            lane.copy_from_slice(&self.power_up);
        }
    }

    /// Lane `l`'s words: a RAM's current contents, nothing for a ROM
    /// (its contents never change, so a snapshot carries none).
    fn lane(&self, l: usize) -> &[u64] {
        let d = self.depth();
        self.words.get(l * d..(l + 1) * d).unwrap_or(&[])
    }

    /// Installs `words` as lane `l`'s contents, with `Ram::restore_state`'s
    /// checks: a RAM takes exactly its depth of words its type can hold,
    /// a ROM only an empty section. Returns `false`, changing nothing,
    /// when they do not fit.
    fn restore(&mut self, l: usize, words: &[u64]) -> bool {
        if self.write.is_none() {
            return words.is_empty();
        }
        let d = self.depth();
        if words.len() != d || !words.iter().all(|w| Value::raw_fits(self.word, *w)) {
            return false;
        }
        self.words[l * d..(l + 1) * d].copy_from_slice(words);
        true
    }

    /// One `Fire` in every live lane: the lane reads the word at its
    /// address masked to `a` bits and, for a RAM, then stores its
    /// `wdata` there when `we` is non-zero. The stored word is canonical
    /// (`Value::from_raw(W, wdata).to_raw()`), so a fixed-point `wdata`
    /// keeps `Fix::from_raw`'s mantissa-range assert on every firing,
    /// write or not — what `Ram::fire` over `Value`s does.
    #[inline(always)]
    fn fire<L: Lanes>(&mut self, s: &mut [u64], lanes: L) {
        let n = lanes.n();
        let d = self.depth();
        let at = move |x: u32, l: usize| x as usize * n + l;
        for l in (0..n).filter(move |l| lanes.live(*l)) {
            let a = (s[at(self.addr, l)] & self.mask) as usize;
            let read = match self.write {
                None => self.power_up[a],
                Some([we, wdata]) => {
                    let w = Value::from_raw(self.word, s[at(wdata, l)]).to_raw();
                    let cell = &mut self.words[l * d + a];
                    let read = *cell;
                    if s[at(we, l)] != 0 {
                        *cell = w;
                    }
                    read
                }
            };
            s[at(self.data, l)] = read;
        }
    }
}

/// The memory plan of one batch: how each untimed block fires, the
/// native memories with every lane's contents, and how many generic
/// blocks each lane owns.
#[derive(Debug)]
pub(crate) struct MemoryPlan {
    /// Per untimed block of the system, in system order.
    pub(crate) fired: Vec<Fired>,
    /// The native memories, each with every lane's contents.
    pub(crate) mems: Vec<Memory>,
    /// Generic blocks a lane (`G`).
    pub(crate) generic: usize,
}

/// The mutable state of `n` lanes over one [`Program`], striped
/// lane-major. What a lane keeps between cycles is the architectural
/// state every engine snapshots (`sim::snapshot`): its net slots, the
/// slots of untimed outputs that drive no net, FSM states, registers
/// and memories. Every other slot is a constant or is written by the
/// next step before it is read.
pub(crate) struct State {
    n: usize,
    /// Slot `k` of lane `l`: `slots[k * n + l]`.
    pub(crate) slots: Vec<u64>,
    /// FSM state of instance `i` in lane `l`: `states[i * n + l]`.
    pub(crate) states: Vec<u32>,
    /// Per instance: SFG `k` active in lane `l` at `active[i][k * n + l]`.
    active: Vec<Vec<bool>>,
    /// Per instance: it has no FSM, so every SFG runs every cycle. Its
    /// activation flags are set once, here, and never change; its
    /// `Drive`s copy their first candidate and its register writes
    /// commit as plain stripe copies.
    always_on: Vec<bool>,
    /// Per instance: register `r` of lane `l` at `regs[i][r * n + l]`.
    pub(crate) regs: Vec<Vec<u64>>,
    /// The memory plan: how each untimed block fires, and the memories'
    /// contents in every lane.
    pub(crate) plan: MemoryPlan,
    /// Generic `Fire` marshalling buffers, kept so that steady-state
    /// cycles do not allocate.
    in_buf: Vec<Value>,
    out_buf: Vec<Value>,
}

impl State {
    /// Power-up state of `n` lanes of `sys` compiled into `prog`, whose
    /// untimed blocks fire as `plan` says.
    pub(crate) fn new(prog: &Program, sys: &System, n: usize, plan: MemoryPlan) -> State {
        let always_on: Vec<bool> = prog.fsm_tables.iter().map(Vec::is_empty).collect();
        let mut st = State {
            n,
            slots: vec![0; prog.init_slots.len() * n],
            states: vec![0; sys.timed.len() * n],
            active: sys
                .timed
                .iter()
                .zip(&always_on)
                .map(|(t, on)| vec![*on; t.comp.sfgs.len() * n])
                .collect(),
            always_on,
            regs: sys
                .timed
                .iter()
                .map(|t| vec![0; t.comp.regs.len() * n])
                .collect(),
            plan,
            in_buf: Vec::new(),
            out_buf: Vec::new(),
        };
        st.reset(prog, sys);
        st
    }

    /// Returns every lane's slots, FSM states, SFG activation flags,
    /// registers and memories to power-up values, as [`State::new`]
    /// builds them (generic untimed blocks reset separately).
    pub(crate) fn reset(&mut self, prog: &Program, sys: &System) {
        let n = self.n;
        for (stripe, v) in self.slots.chunks_exact_mut(n).zip(&prog.init_slots) {
            stripe.fill(*v);
        }
        for (act, on) in self.active.iter_mut().zip(&self.always_on) {
            act.fill(*on);
        }
        for (i, t) in sys.timed.iter().enumerate() {
            let initial = t.comp.fsm.as_ref().map_or(0, |f| f.initial.0);
            self.states[i * n..(i + 1) * n].fill(initial);
            for (stripe, r) in self.regs[i].chunks_exact_mut(n).zip(&t.comp.regs) {
                stripe.fill(r.init.to_raw());
            }
        }
        for m in &mut self.plan.mems {
            m.reset(n);
        }
    }

    /// Captures lane `l` of `sys` compiled into `prog`, whose generic
    /// untimed blocks are `blocks`, as the architectural snapshot every
    /// engine takes: nets through [`Program::net_slot`], held outputs
    /// through the untimed output slots that are no net's, FSM states,
    /// registers and block sections. A RAM's `untimed.<u>` section is
    /// the lane's words, as `Ram::snapshot_state` gives them; a ROM has
    /// none.
    pub(crate) fn snapshot(
        &self,
        l: usize,
        prog: &Program,
        sys: &System,
        blocks: &[Box<dyn UntimedBlock>],
        hash: u64,
        cycle: u64,
    ) -> SimSnapshot {
        let n = self.n;
        let slot = move |k: u32| self.slots[k as usize * n + l];
        SimSnapshot::capture(
            hash,
            cycle,
            prog.net_slot.iter().map(|k| slot(*k)),
            self.states.iter().skip(l).step_by(n).map(|x| u64::from(*x)),
            self.regs
                .iter()
                .flat_map(|rf| rf.iter().skip(l).step_by(n))
                .copied(),
            held_outputs(sys).map(|(u, p)| slot(prog.untimed_io[u].1[p].0)),
            self.plan.fired.iter().map(|fired| match *fired {
                Fired::Block(g) => blocks[g].snapshot_state(),
                Fired::Memory(k) => self.plan.mems[k].lane(l).to_vec(),
            }),
        )
    }

    /// Validates `snap` against `sys` and installs it into lane `l`,
    /// whose generic untimed blocks are `blocks`: nets, held outputs,
    /// FSM states, registers and block sections. A memory checks its
    /// section as `Ram::restore_state` does. The other slots are left to
    /// the next step, which writes each before reading it. The caller
    /// adopts the snapshot's cycle count.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotMismatch`] for a snapshot of a different
    /// design, [`CoreError::SnapshotFormat`] for damaged sections. On
    /// error the lane's state is unspecified.
    pub(crate) fn restore(
        &mut self,
        l: usize,
        snap: &SimSnapshot,
        hash: u64,
        prog: &Program,
        sys: &System,
        blocks: &mut [Box<dyn UntimedBlock>],
    ) -> Result<(), CoreError> {
        let arch = snap.arch(sys, hash)?;
        let n = self.n;
        let held = held_outputs(sys).map(|(u, p)| prog.untimed_io[u].1[p].0);
        for (k, w) in prog
            .net_slot
            .iter()
            .copied()
            .chain(held)
            .zip(arch.nets.iter().chain(arch.held))
        {
            self.slots[k as usize * n + l] = *w;
        }
        for (w, x) in self.states.iter_mut().skip(l).step_by(n).zip(arch.states) {
            *w = *x as u32;
        }
        let regs = self
            .regs
            .iter_mut()
            .flat_map(|rf| rf.iter_mut().skip(l).step_by(n));
        for (w, x) in regs.zip(arch.regs) {
            *w = *x;
        }
        let (fired, mems) = (&self.plan.fired, &mut self.plan.mems);
        arch.hand_off(|u, words| {
            let took = match fired[u] {
                Fired::Block(g) => blocks[g].restore_state(words),
                Fired::Memory(k) => mems[k].restore(l, words),
            };
            taken(took, sys.untimed[u].block.name())
        })
    }
}

/// `s[d] = cmp(s[a], s[b])` as 0/1 under `kind`, with the kind matched
/// once per op. `ord` orders two raw words; for floats an unordered pair
/// (a NaN) compares equal.
#[inline(always)]
fn compare<L: Lanes>(
    lanes: L,
    s: &mut [u64],
    d: u32,
    a: u32,
    b: u32,
    kind: Cmp,
    ord: impl Fn(u64, u64) -> Ordering + Copy,
) {
    match kind {
        Cmp::Eq => lanes.map2(s, d, a, b, move |x, y| u64::from(ord(x, y).is_eq())),
        Cmp::Ne => lanes.map2(s, d, a, b, move |x, y| u64::from(ord(x, y).is_ne())),
        Cmp::Lt => lanes.map2(s, d, a, b, move |x, y| u64::from(ord(x, y).is_lt())),
        Cmp::Le => lanes.map2(s, d, a, b, move |x, y| u64::from(ord(x, y).is_le())),
        Cmp::Gt => lanes.map2(s, d, a, b, move |x, y| u64::from(ord(x, y).is_gt())),
        Cmp::Ge => lanes.map2(s, d, a, b, move |x, y| u64::from(ord(x, y).is_ge())),
    }
}

/// `Fix::from_raw(s[a], src).cast(target, rnd, ovf)` in every live lane,
/// with `Fix::cast`'s exact arithmetic: the shift, the bounds and both
/// modes are resolved once per op, and each lane is plain `i64` work.
/// A source mantissa outside `src` panics exactly like `Fix::from_raw`.
///
/// A right shift (`src` has more fraction bits) drops `sh` bits under
/// the rounding mode; a left shift cannot round and saturates against
/// bounds pre-shifted right, so an overflowing `m << sh` is never formed.
/// Wrap keeps the low `wl` bits, sign-extended (`wl <= 63`).
#[inline(always)]
fn cast<L: Lanes>(
    lanes: L,
    s: &mut [u64],
    [d, a]: [u32; 2],
    src: Format,
    target: Format,
    rnd: Rounding,
    ovf: Overflow,
) {
    let shift = src.frac_bits() as i32 - target.frac_bits() as i32;
    let (lo, hi) = (target.min_mantissa(), target.max_mantissa());
    let sx = 64 - target.wl();
    if shift <= 0 {
        let sh = shift.unsigned_abs();
        match ovf {
            Overflow::Saturate => {
                let (lo_in, hi_in) = (-((-lo) >> sh), hi >> sh);
                cast_lanes(lanes, s, [d, a], src, move |m| {
                    if m > hi_in {
                        hi
                    } else if m < lo_in {
                        lo
                    } else {
                        m << sh
                    }
                });
            }
            Overflow::Wrap => cast_lanes(lanes, s, [d, a], src, move |m| {
                (m.wrapping_shl(sh) << sx) >> sx
            }),
        }
    } else {
        let sh = shift as u32;
        match ovf {
            Overflow::Saturate => round(lanes, s, [d, a], src, sh, rnd, move |v| v.clamp(lo, hi)),
            Overflow::Wrap => round(lanes, s, [d, a], src, sh, rnd, move |v| (v << sx) >> sx),
        }
    }
}

/// The right-shift half of [`cast`]: `m >> sh` rounded under `rnd`
/// (`0 < sh < 64`), then `reduce`d into the target range. `dropped` is
/// the `sh` low bits the shift discards, read as a non-negative value.
#[inline(always)]
fn round<L: Lanes>(
    lanes: L,
    s: &mut [u64],
    da: [u32; 2],
    src: Format,
    sh: u32,
    rnd: Rounding,
    reduce: impl Fn(i64) -> i64 + Copy,
) {
    let low = (1u64 << sh) - 1;
    let half = 1u64 << (sh - 1);
    let dropped = move |m: i64| m as u64 & low;
    match rnd {
        Rounding::Truncate => cast_lanes(lanes, s, da, src, move |m| reduce(m >> sh)),
        // Ties away from zero on the value: a negative tie rounds down.
        Rounding::Nearest => cast_lanes(lanes, s, da, src, move |m| {
            let r = dropped(m);
            reduce((m >> sh) + i64::from(r > half || (r == half && m >= 0)))
        }),
        Rounding::NearestEven => cast_lanes(lanes, s, da, src, move |m| {
            let (f, r) = (m >> sh, dropped(m));
            reduce(f + i64::from(r > half || (r == half && f & 1 == 1)))
        }),
        Rounding::Ceil => cast_lanes(lanes, s, da, src, move |m| {
            reduce((m >> sh) + i64::from(dropped(m) != 0))
        }),
        Rounding::TowardZero => cast_lanes(lanes, s, da, src, move |m| {
            reduce((m >> sh) + i64::from(m < 0 && dropped(m) != 0))
        }),
    }
}

/// `s[d] = f(s[a])` over sign-extended mantissas of format `src`, with
/// `Fix::from_raw`'s range assert on every source word.
#[inline(always)]
fn cast_lanes<L: Lanes>(
    lanes: L,
    s: &mut [u64],
    [d, a]: [u32; 2],
    src: Format,
    f: impl Fn(i64) -> i64 + Copy,
) {
    let (lo, hi) = (src.min_mantissa(), src.max_mantissa());
    lanes.map1(s, d, a, move |x| {
        let m = x as i64;
        assert!(
            m >= lo && m <= hi,
            "mantissa {m} out of range for format {src}"
        );
        f(m) as u64
    });
}

/// Evaluates `ops` in every live lane of `st` — the one interpreter of
/// [`Micro`] semantics. `io` is the program's untimed-block wiring, one
/// entry per block, and `blocks` every lane's generic blocks, lane-major
/// (see [`Fired::Block`]). Each op is one kernel call of `lanes`; a
/// memory's `Fire` is one pass over the lanes' words, and only a generic
/// `Fire` and the `Drive` of an FSM instance walk the lanes one by one
/// with per-lane calls.
pub(crate) fn run<L: Lanes>(
    ops: &[Micro],
    io: &[UntimedIo],
    st: &mut State,
    blocks: &mut [Box<dyn UntimedBlock>],
    lanes: L,
) {
    let n = lanes.n();
    let State {
        slots: s,
        regs,
        active,
        always_on,
        plan,
        in_buf,
        out_buf,
        ..
    } = st;
    for m in ops {
        match *m {
            Micro::Copy { dst, src } => lanes.map1(s, dst, src, |x| x),
            Micro::RegRead { dst, inst, reg } => lanes.copy(s, dst, &regs[inst as usize], reg),
            Micro::AddB { dst, a, b, mask } => {
                lanes.map2(s, dst, a, b, move |x, y| x.wrapping_add(y) & mask);
            }
            Micro::SubB { dst, a, b, mask } => {
                lanes.map2(s, dst, a, b, move |x, y| x.wrapping_sub(y) & mask);
            }
            Micro::MulB { dst, a, b, mask } => {
                lanes.map2(s, dst, a, b, move |x, y| x.wrapping_mul(y) & mask);
            }
            Micro::AndU { dst, a, b } => lanes.map2(s, dst, a, b, |x, y| x & y),
            Micro::OrU { dst, a, b } => lanes.map2(s, dst, a, b, |x, y| x | y),
            Micro::XorU { dst, a, b } => lanes.map2(s, dst, a, b, |x, y| x ^ y),
            Micro::NotU { dst, a, mask } => lanes.map1(s, dst, a, move |x| !x & mask),
            Micro::NegB { dst, a, mask } => {
                lanes.map1(s, dst, a, move |x| x.wrapping_neg() & mask);
            }
            Micro::ShlB { dst, a, n: sh, .. }
            | Micro::ShrB { dst, a, n: sh }
            | Micro::ShrMask { dst, a, n: sh, .. }
                if sh >= 64 =>
            {
                lanes.map1(s, dst, a, |_| 0);
            }
            Micro::ShlB {
                dst,
                a,
                n: sh,
                mask,
            } => lanes.map1(s, dst, a, move |x| (x << sh) & mask),
            Micro::ShrB { dst, a, n: sh } => lanes.map1(s, dst, a, move |x| x >> sh),
            Micro::ShrMask {
                dst,
                a,
                n: sh,
                mask,
            } => lanes.map1(s, dst, a, move |x| (x >> sh) & mask),
            Micro::CmpU { dst, a, b, kind } => compare(lanes, s, dst, a, b, kind, |x, y| x.cmp(&y)),
            Micro::AddF {
                dst,
                a,
                b,
                sha,
                shb,
            } => lanes.map2(s, dst, a, b, move |x, y| {
                (((x as i64) << sha) + ((y as i64) << shb)) as u64
            }),
            Micro::SubF {
                dst,
                a,
                b,
                sha,
                shb,
            } => lanes.map2(s, dst, a, b, move |x, y| {
                (((x as i64) << sha) - ((y as i64) << shb)) as u64
            }),
            Micro::MulF { dst, a, b } => lanes.map2(s, dst, a, b, |x, y| {
                (x as i64 as i128 * y as i64 as i128) as i64 as u64
            }),
            Micro::NegF { dst, a } => {
                lanes.map1(s, dst, a, |x| (x as i64).wrapping_neg() as u64);
            }
            Micro::CmpF {
                dst,
                a,
                b,
                sha,
                shb,
                kind,
            } => compare(lanes, s, dst, a, b, kind, move |x, y| {
                ((x as i64 as i128) << sha).cmp(&((y as i64 as i128) << shb))
            }),
            Micro::CastF {
                dst,
                a,
                src,
                target,
                rnd,
                ovf,
            } => cast(lanes, s, [dst, a], src, target, rnd, ovf),
            Micro::FloatToFix {
                dst,
                a,
                target,
                rnd,
                ovf,
            } => lanes.map1(s, dst, a, move |x| {
                Fix::from_f64(f64::from_bits(x), target, rnd, ovf).mantissa() as u64
            }),
            Micro::AddFl { dst, a, b } => lanes.map2(s, dst, a, b, |x, y| {
                (f64::from_bits(x) + f64::from_bits(y)).to_bits()
            }),
            Micro::SubFl { dst, a, b } => lanes.map2(s, dst, a, b, |x, y| {
                (f64::from_bits(x) - f64::from_bits(y)).to_bits()
            }),
            Micro::MulFl { dst, a, b } => lanes.map2(s, dst, a, b, |x, y| {
                (f64::from_bits(x) * f64::from_bits(y)).to_bits()
            }),
            Micro::NegFl { dst, a } => {
                lanes.map1(s, dst, a, |x| (-f64::from_bits(x)).to_bits());
            }
            Micro::CmpFl { dst, a, b, kind } => compare(lanes, s, dst, a, b, kind, |x, y| {
                f64::from_bits(x)
                    .partial_cmp(&f64::from_bits(y))
                    .unwrap_or(Ordering::Equal)
            }),
            Micro::MaskTo { dst, a, mask } => lanes.map1(s, dst, a, move |x| x & mask),
            Micro::NonZero { dst, a } => lanes.map1(s, dst, a, |x| u64::from(x != 0)),
            Micro::NonZeroFloat { dst, a } => {
                lanes.map1(s, dst, a, |x| u64::from(f64::from_bits(x) != 0.0));
            }
            Micro::ToFloatBits { dst, a } => lanes.map1(s, dst, a, |x| (x as f64).to_bits()),
            Micro::ToFloatFix { dst, a, frac_bits } => {
                let scale = f64::powi(2.0, -(frac_bits as i32));
                lanes.map1(s, dst, a, move |x| (x as i64 as f64 * scale).to_bits());
            }
            // A mask blend: all-ones where the condition holds.
            Micro::SelectU { dst, c, t, e } => lanes.map3(s, dst, [c, t, e], |c, t, e| {
                let m = u64::from(c != 0).wrapping_neg();
                (t & m) | (e & !m)
            }),
            // The net takes the value of the first candidate whose SFG
            // runs this cycle, and holds when none does. Every SFG of an
            // instance without an FSM runs, so its first candidate wins.
            Micro::Drive {
                net_slot,
                inst,
                ref cands,
            } => {
                let i = inst as usize;
                if always_on[i] {
                    if let Some(&(_, src)) = cands.first() {
                        lanes.map1(s, net_slot, src, |x| x);
                    }
                    continue;
                }
                let act = &active[i];
                let at = move |x: u32, l: usize| x as usize * n + l;
                for l in (0..n).filter(move |l| lanes.live(*l)) {
                    if let Some(&(_, src)) = cands.iter().find(move |(sfg, _)| act[at(*sfg, l)]) {
                        s[at(net_slot, l)] = s[at(src, l)];
                    }
                }
            }
            Micro::Fire { inst } => {
                let u = inst as usize;
                let g = match plan.fired[u] {
                    Fired::Memory(k) => {
                        plan.mems[k].fire(s, lanes);
                        continue;
                    }
                    Fired::Block(g) => g,
                };
                let (ins, outs) = &io[u];
                let per_lane = plan.generic;
                let at = move |x: u32, l: usize| x as usize * n + l;
                for l in (0..n).filter(move |l| lanes.live(*l)) {
                    in_buf.clear();
                    in_buf.extend(
                        ins.iter()
                            .map(|(sl, ty)| Value::from_raw(*ty, s[at(*sl, l)])),
                    );
                    out_buf.clear();
                    out_buf.extend(
                        outs.iter()
                            .map(|(sl, ty)| Value::from_raw(*ty, s[at(*sl, l)])),
                    );
                    let block = &mut blocks[l * per_lane + g];
                    if block.ready(in_buf) {
                        block.fire(in_buf, out_buf);
                        for ((sl, _), v) in outs.iter().zip(out_buf.iter()) {
                            s[at(*sl, l)] = v.to_raw();
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
/// without an FSM runs every SFG (its flags were set once, in
/// [`State::new`]). Returns the SFG activations.
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
        if st.always_on[i] {
            firings += act.len() as u64;
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
/// each register takes the value of the first candidate whose SFG ran —
/// for an instance without an FSM, a plain stripe copy of its first
/// candidate. Returns the register writes.
pub(crate) fn commit<L: Lanes>(writes: &[RegWriteSel], st: &mut State, lanes: L) -> u64 {
    let n = lanes.n();
    let mut updates = 0;
    for w in writes {
        let i = w.inst as usize;
        let rf = &mut st.regs[i];
        if st.always_on[i] {
            if let Some(&(_, src)) = w.cands.first() {
                lanes.copy(rf, w.reg, &st.slots, src);
                updates += lanes.live_lanes();
            }
            continue;
        }
        let act = &st.active[i];
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    const ROUNDINGS: [Rounding; 5] = [
        Rounding::Truncate,
        Rounding::Nearest,
        Rounding::NearestEven,
        Rounding::Ceil,
        Rounding::TowardZero,
    ];
    const OVERFLOWS: [Overflow; 2] = [Overflow::Saturate, Overflow::Wrap];

    /// For each fraction width: the narrowest format holding it and the
    /// widest one (63 bits), so casts both narrow and widen the word.
    fn formats(frac_bits: impl IntoIterator<Item = u32>) -> Vec<Format> {
        frac_bits
            .into_iter()
            .flat_map(|fb| {
                let wl = fb.max(1);
                [Format::new(wl, wl - fb), Format::new(63, 63 - fb)]
            })
            .map(Result::unwrap)
            .collect()
    }

    /// Boundary mantissas of `src` — min, max, 0, ±1 and their
    /// neighbours — plus, for a right shift, exact ties below and above
    /// even and odd floors and the words either side of a tie.
    fn mantissas(src: Format, shift: i32) -> Vec<i64> {
        let (lo, hi) = (src.min_mantissa(), src.max_mantissa());
        let mut ms: Vec<i128> = vec![
            lo.into(),
            (lo + 1).into(),
            -1,
            0,
            1,
            (hi - 1).into(),
            hi.into(),
        ];
        if shift > 0 {
            let (half, one) = (1i128 << (shift - 1), 1i128 << shift);
            for t in [half, one + half, 2 * one + half, half - 1, half + 1] {
                ms.extend([t, -t]);
            }
        }
        let mut ms: Vec<i64> = ms
            .into_iter()
            .filter_map(|m| i64::try_from(m).ok())
            .filter(|m| (lo..=hi).contains(m))
            .collect();
        ms.sort_unstable();
        ms.dedup();
        ms
    }

    /// The cast kernel equals `Fix::cast` word for word, at one lane, at
    /// 64 lanes and in place, for every rounding and overflow mode and
    /// every shift a valid format pair can have: `-63..=63` (formats
    /// hold at most 63 bits, so no shift reaches 64).
    #[test]
    fn cast_kernel_equals_fix_cast() {
        let sources = formats([0, 1, 2, 7, 8, 31, 32, 33, 62, 63]);
        let targets = formats(0..=63);
        let mut shifts = BTreeSet::new();
        for &src in &sources {
            for &target in &targets {
                let shift = src.frac_bits() as i32 - target.frac_bits() as i32;
                shifts.insert(shift);
                let ms = mantissas(src, shift);
                for rnd in ROUNDINGS {
                    for ovf in OVERFLOWS {
                        let case = format!("{src} -> {target}, {rnd:?}, {ovf:?}");
                        let want: Vec<u64> = ms
                            .iter()
                            .map(|m| {
                                Fix::from_raw(*m, src).cast(target, rnd, ovf).mantissa() as u64
                            })
                            .collect();
                        for (m, w) in ms.iter().zip(&want) {
                            let mut s = [*m as u64, 0];
                            cast(One, &mut s, [1, 0], src, target, rnd, ovf);
                            assert_eq!(s[1], *w, "{case}, one lane, mantissa {m}");
                        }
                        let lane = |l: usize| ms[l % ms.len()] as u64;
                        let mut s: Vec<u64> = (0..64).map(lane).chain([0; 64]).collect();
                        cast(All(64), &mut s, [1, 0], src, target, rnd, ovf);
                        let mut in_place: Vec<u64> = (0..64).map(lane).collect();
                        cast(All(64), &mut in_place, [0, 0], src, target, rnd, ovf);
                        for l in 0..64 {
                            let w = want[l % ms.len()];
                            assert_eq!(s[64 + l], w, "{case}, lane {l} of 64");
                            assert_eq!(in_place[l], w, "{case}, lane {l} of 64 in place");
                        }
                    }
                }
            }
        }
        assert_eq!(shifts, (-63..=63).collect());
    }

    /// A masked lane is neither evaluated nor written: its word may hold
    /// anything, even a mantissa `Fix::from_raw` would reject.
    #[test]
    fn masked_lanes_are_not_evaluated() {
        let src = Format::new(8, 4).unwrap();
        let target = Format::new(4, 4).unwrap();
        let mut s = [3 << 4, u64::MAX / 2, 0, 7];
        let lanes = Live(&[true, false]);
        cast(
            lanes,
            &mut s,
            [1, 0],
            src,
            target,
            Rounding::Truncate,
            Overflow::Wrap,
        );
        assert_eq!(s, [3 << 4, u64::MAX / 2, 3, 7]);
    }
}
