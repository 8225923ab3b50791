//! The compiled-tape simulator, over one lane or many.
//!
//! The compiled back-end exists to make the statistical workloads
//! tractable — the paper's environment runs "a BER simulation in
//! minutes" by regenerating an application-specific simulator. Its
//! Monte-Carlo consumers (BER sweeps, fault campaigns) run *many
//! independent instances of the same design*, so re-walking the
//! identical tape once per instance pays the full instruction-dispatch
//! cost N times for one design's worth of control flow.
//!
//! [`BatchedSim`] amortizes that cost: one `Program` (the monomorphised
//! tape of `sim::compiled`) is executed over N independent *lanes* in a
//! single pass. State is struct-of-arrays — every slot of the scalar
//! state vector becomes a lane-major stripe of N `u64`s — and each
//! micro-op is applied across all lanes in a tight inner loop, so the
//! tape walk (instruction decode, dispatch, operand indexing) is paid
//! once per cycle instead of once per instance.
//!
//! The lane count is geometry, not a second engine (DESIGN.md §10–§11):
//! every batch shares its tape's program and runs it on `sim::exec`,
//! the one micro-op executor — on its one-lane instantiation for a
//! single lane, on its 8-lane-chunked kernels while no lane is masked,
//! and mask-guarded once one is. [`CompiledSim`] is the one-lane batch
//! behind the scalar API.
//!
//! Lanes stay *independent*:
//!
//! * a batch is `lanes` lanes of one [`CompiledDesign`]: the lanes share
//!   its [`System`] template, the structure the tape was compiled from,
//!   and every lane has its own FSM states, SFG activation flags,
//!   register file and untimed state. A block that reports a
//!   [`MemorySpec`](crate::MemorySpec) and is wired in the memory shape
//!   (a `Ram`, a `Rom`) runs as a native memory of the tape state: each
//!   lane keeps a RAM's words as plain `u64`s, and every lane reads one
//!   power-up image, the template block's contents. This memory plan is
//!   the one thing planned per instance, from the template, never from
//!   the shared program. Each lane owns copies of the template's other,
//!   generic blocks ([`UntimedBlock::boxed_clone`]);
//! * control-flow divergence is handled per lane — transition selection
//!   and `Drive`/`Fire` resolution read the lane's own stripe;
//! * a per-lane error (a failed fault-injection poke) **masks the lane
//!   off** instead of aborting the batch: the lane's stripes freeze, its
//!   first error and cycle are recorded, and the remaining lanes keep
//!   running.
//!
//! Results are bit-identical to running N one-lane simulators: the
//! `batch` and `tape_engines` integration suites assert every output
//! and every `peek_net` value matches lane-for-lane (and the
//! interpreter) at every optimization level.
//!
//! **Seeding contract** (composes with the `sim::par` sharding model,
//! DESIGN.md §7): batching never introduces randomness of its own. A
//! driver that batches work items over lanes must derive each item's
//! randomness from the item's *global index* (e.g.
//! [`XorShift64::stream`](crate::rng::XorShift64::stream) or an explicit
//! per-item seed), exactly as the scalar path does — then lanes × threads
//! is pure geometry and every classification and BER total is
//! byte-identical for any `--lanes`/`--threads` combination.
//!
//! [`CompiledSim`]: crate::CompiledSim

use std::ops::Range;
use std::sync::Arc;

use ocapi_obs::Registry;

use crate::blocks::UntimedBlock;
use crate::sim::compiled::Program;
use crate::sim::exec::{self, All, Fired, Lanes, Live, Memory, MemoryPlan, One, State};
use crate::sim::hash::{CompiledDesign, CompiledTape};
use crate::sim::obs::TapeObs;
use crate::sim::opt::{OptLevel, OptStats};
use crate::sim::snapshot::SimSnapshot;
use crate::sim::Simulator;
use crate::system::System;
use crate::trace::Trace;
use crate::value::{SigType, Value};
use crate::CoreError;

/// Every lane's generic untimed blocks (those not run as memories),
/// lane-major: generic block `g` of lane `l` at `l * G + g`, `G` being
/// the generic blocks a lane.
type LaneBlocks = Vec<Box<dyn UntimedBlock>>;

/// One state word of every lane: a net's slot or a register.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Word {
    /// State slot `k`.
    Slot(usize),
    /// Register `j` of timed instance `i`.
    Reg(usize, usize),
}

/// The compiled-tape simulator over N lanes. See the [module docs](self).
///
/// Construct with [`BatchedSim::from_design`] from a [`CompiledDesign`],
/// or with [`BatchedSim::from_fn`] from a builder closure: the batch
/// shares the design's template, its memories' power-up images are
/// shared between the lanes, and every lane copies its generic untimed
/// blocks. Drive it through the lane-addressed methods
/// (`set_input_lane`, `output_lane`, …) or through the [`Simulator`]
/// trait, which *broadcasts* writes to every live lane and reads lane 0
/// — a 1-lane batch is exactly the scalar [`CompiledSim`].
///
/// [`CompiledSim`]: crate::CompiledSim
pub struct BatchedSim {
    /// The system the tape was compiled from: the structure every lane
    /// shares, and the template every batch of its design shares. Its
    /// untimed blocks never fire; they stay at power-up as the template
    /// the lanes' generic blocks are copied from and its memories'
    /// images are read from.
    system: Arc<System>,
    /// Every lane's generic untimed blocks; the memories live in `st`.
    blocks: LaneBlocks,
    /// Shared with the [`CompiledTape`] it was instantiated from.
    prog: Arc<Program>,
    lanes: usize,
    /// Lane-major stripes of every lane's state.
    st: State,
    /// Lane-active mask: `false` = masked off by a per-lane error.
    alive: Vec<bool>,
    /// Number of `false` entries in `alive`.
    masked: usize,
    /// First error per masked lane: (cycle before the failing step, error).
    errors: Vec<Option<(u64, CoreError)>>,
    cycle: u64,
    obs: Option<TapeObs>,
    design_hash: u64,
}

impl std::fmt::Debug for BatchedSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchedSim")
            .field("system", &self.system.name)
            .field("lanes", &self.lanes)
            .field("tape_len", &self.prog.tape.len())
            .finish()
    }
}

fn no_lanes() -> CoreError {
    CoreError::CheckFailed {
        diagnostics: vec!["a batched simulator needs at least one lane".to_owned()],
    }
}

/// The memory plan of `lanes` lanes of `system` compiled into `prog`,
/// and every lane's generic blocks. A block whose
/// [`UntimedBlock::memory_spec`] is wired in the memory shape
/// ([`Memory::wire`]) runs as a native memory, whose power-up image is
/// read from `system`'s block; every other block stays generic, and
/// each lane gets its own copy of it.
fn memory_plan(prog: &Program, system: &System, lanes: usize) -> (MemoryPlan, LaneBlocks) {
    let mut fired = Vec::new();
    let mut mems = Vec::new();
    let mut generic = Vec::new();
    for (inst, io) in system.untimed.iter().zip(&prog.untimed_io) {
        match inst.block.memory_spec().and_then(|s| Memory::wire(io, &s)) {
            Some(m) => {
                fired.push(Fired::Memory(mems.len()));
                mems.push(m);
            }
            None => {
                fired.push(Fired::Block(generic.len()));
                generic.push(&*inst.block);
            }
        }
    }
    let blocks = (0..lanes)
        .flat_map(|_| generic.iter().map(|b| b.boxed_clone()))
        .collect();
    let generic = generic.len();
    (
        MemoryPlan {
            fired,
            mems,
            generic,
        },
        blocks,
    )
}

impl BatchedSim {
    /// `systems.len()` lanes of `systems[0]`'s design; the other
    /// captures are dropped unread. `systems[0]` is paired with `tape`
    /// as [`CompiledDesign::new`] pairs a cached tape. Kept only for the
    /// repository benchmark; build with [`BatchedSim::from_design`].
    ///
    /// # Errors
    ///
    /// [`CoreError::CheckFailed`] when `systems` is empty and
    /// [`CoreError::TapeMismatch`] when `systems[0]` is not
    /// structurally the system the tape was compiled from.
    #[doc(hidden)]
    pub fn from_tape(systems: Vec<System>, tape: &CompiledTape) -> Result<BatchedSim, CoreError> {
        let lanes = systems.len();
        let system = systems.into_iter().next().ok_or_else(no_lanes)?;
        let design = CompiledDesign::new(system, tape.level(), |_| Some(tape.clone()))?;
        BatchedSim::from_design(&design, lanes)
    }

    /// Builds `lanes` lanes of `design`: the batch shares the design's
    /// template and program, its memories read one power-up image taken
    /// from the template, and each lane gets copies of the template's
    /// generic untimed blocks ([`UntimedBlock::boxed_clone`]), so it
    /// captures and hashes nothing, whatever its lane count.
    ///
    /// # Errors
    ///
    /// [`CoreError::CheckFailed`] for zero lanes.
    pub fn from_design(design: &CompiledDesign, lanes: usize) -> Result<BatchedSim, CoreError> {
        if lanes == 0 {
            return Err(no_lanes());
        }
        let (system, tape) = (Arc::clone(design.template()), design.tape());
        let (plan, blocks) = memory_plan(&tape.prog, &system, lanes);
        Ok(BatchedSim {
            st: State::new(&tape.prog, &system, lanes, plan),
            prog: Arc::clone(&tape.prog),
            lanes,
            alive: vec![true; lanes],
            masked: 0,
            errors: vec![None; lanes],
            cycle: 0,
            obs: None,
            design_hash: tape.system_hash(),
            system,
            blocks,
        })
    }

    /// The structural design hash keying this batch's lane snapshots
    /// ([`crate::sim::hash::hash_system`] of its system): the same for
    /// every engine and optimization level, so a lane snapshot restores
    /// into [`crate::InterpSim`], [`crate::CompiledSim`] or another
    /// batch's lane of the design.
    pub fn design_hash(&self) -> u64 {
        self.design_hash
    }

    /// Captures the architectural state of one (live) lane as a
    /// [`SimSnapshot`] — the same bytes [`crate::InterpSim`] and
    /// [`crate::CompiledSim`] produce at the same cycle. Lanes step in
    /// lock-step, so the snapshot carries the batch-wide cycle count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an out-of-range lane and
    /// the lane's own recorded error when it has been masked off.
    pub fn snapshot_lane(&self, lane: usize) -> Result<SimSnapshot, CoreError> {
        self.check_lane(lane)?;
        if let Some((_, e)) = self.lane_error(lane) {
            return Err(e.clone());
        }
        Ok(self.capture(lane))
    }

    /// [`BatchedSim::snapshot_lane`] of an in-range lane, masked or not.
    pub(crate) fn capture(&self, lane: usize) -> SimSnapshot {
        let blocks = &self.blocks[self.lane_blocks(lane)];
        let (prog, sys) = (&self.prog, &self.system);
        self.st
            .snapshot(lane, prog, sys, blocks, self.design_hash, self.cycle)
    }

    /// Where lane `lane`'s generic untimed blocks sit in `blocks`.
    fn lane_blocks(&self, lane: usize) -> Range<usize> {
        let g = self.st.plan.generic;
        lane * g..(lane + 1) * g
    }

    /// Restores one lane from a snapshot of this design taken on any
    /// engine: a lane of any batch, [`crate::CompiledSim`] at any
    /// optimization level, or [`crate::InterpSim`]. The lane is revived
    /// if it was masked, and the batch-wide cycle counter is set to the
    /// snapshot's cycle — lanes step in lock-step, so restore every lane
    /// from snapshots of the same cycle.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownName`] for an out-of-range lane,
    /// [`CoreError::SnapshotMismatch`] for a snapshot of a different
    /// design, and [`CoreError::SnapshotFormat`] for damaged sections.
    pub fn restore_lane(&mut self, lane: usize, snap: &SimSnapshot) -> Result<(), CoreError> {
        self.check_lane(lane)?;
        let blocks = self.lane_blocks(lane);
        self.st.restore(
            lane,
            snap,
            self.design_hash,
            &self.prog,
            &self.system,
            &mut self.blocks[blocks],
        )?;
        if !self.alive[lane] {
            self.alive[lane] = true;
            self.masked -= 1;
        }
        self.errors[lane] = None;
        self.cycle = snap.cycle();
        Ok(())
    }

    /// Captures one system with `make_sys`, compiles it at `level` and
    /// builds `lanes` lanes (at least one) of that design, as
    /// [`BatchedSim::from_design`] does.
    ///
    /// # Errors
    ///
    /// Propagates `make_sys` errors, and [`CoreError::NotCompilable`]
    /// when the design has no static single-pass schedule.
    pub fn from_fn(
        lanes: usize,
        make_sys: impl FnOnce() -> Result<System, CoreError>,
        level: OptLevel,
    ) -> Result<BatchedSim, CoreError> {
        let design = CompiledDesign::new(make_sys()?, level, |_| None)?;
        BatchedSim::from_design(&design, lanes.max(1))
    }

    /// Number of lanes (live and masked).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Whether `lane` is still live (not masked off by an error).
    pub fn alive(&self, lane: usize) -> bool {
        self.alive.get(lane).copied().unwrap_or(false)
    }

    /// Number of lanes masked off so far.
    pub fn masked_lanes(&self) -> usize {
        self.masked
    }

    /// The first error of a masked lane, with the cycle (as counted
    /// before the failing step) at which it surfaced. `None` while the
    /// lane is live.
    pub fn lane_error(&self, lane: usize) -> Option<&(u64, CoreError)> {
        self.errors.get(lane).and_then(|e| e.as_ref())
    }

    /// Masks `lane` off with `error`, recorded at the current cycle.
    /// This is the masking entry point for batch drivers: a failed
    /// per-lane poke (fault injection) masks that lane instead of
    /// poisoning the batch. Masking a dead or out-of-range lane is a
    /// no-op (the first error wins).
    pub fn fail_lane(&mut self, lane: usize, error: CoreError) {
        if lane < self.lanes && self.alive[lane] {
            self.alive[lane] = false;
            self.masked += 1;
            self.errors[lane] = Some((self.cycle, error));
            if let Some(c) = self.obs.as_ref().and_then(|o| o.masked.as_ref()) {
                c.incr();
            }
        }
    }

    /// The system the tape was compiled from: the structure every lane
    /// shares. Its untimed blocks stay at power-up — each lane runs its
    /// own memories and copies of the generic blocks, whose state
    /// [`BatchedSim::snapshot_lane`] reads.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Instructions executed per batched cycle (tape + guard pre-tape);
    /// each is applied to every live lane.
    pub fn tape_len(&self) -> usize {
        self.prog.tape.len() + self.prog.pre_tape.len()
    }

    /// What the tape optimizer did at build time.
    pub fn opt_stats(&self) -> OptStats {
        self.prog.opt_stats
    }

    /// Starts reporting into `reg`: flushes the (deterministic)
    /// `batch.lanes` counter once, then every batched step bumps
    /// `batch.tape_passes`, every masking event bumps
    /// `batch.masked_lanes`, and the phase spans under `batch` time the
    /// shared tape walk.
    pub fn attach_obs(&mut self, reg: &Registry) {
        self.attach(TapeObs::batch(reg, self.lanes));
    }

    /// Attaches a bundle already resolved to the per-cycle handles
    /// (`CompiledSim` attaches the `compiled` one).
    pub(crate) fn attach(&mut self, obs: TapeObs) {
        self.obs = Some(obs);
    }

    /// Returns every lane to power-up state: state slots, FSM states,
    /// registers, memories (their power-up images) and generic
    /// untimed blocks. Masked lanes are revived and the cycle count
    /// restarts at 0; an attached bundle stays. From here the batch
    /// steps exactly as a fresh build from the same tape would — every
    /// output, net and snapshot — which is what lets drivers reuse one
    /// batch per worker
    /// ([`WorkerSims`]) instead of building one per run.
    pub fn reset(&mut self) {
        self.st.reset(&self.prog, &self.system);
        for b in &mut self.blocks {
            b.reset();
        }
        self.alive.fill(true);
        self.masked = 0;
        self.errors.fill(None);
        self.cycle = 0;
    }

    /// Sets a primary input of one lane for the coming cycle(s). Writes
    /// to masked lanes are ignored (their state is frozen).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown input or lane
    /// and [`CoreError::ValueType`] for a type mismatch.
    pub fn set_input_lane(
        &mut self,
        lane: usize,
        name: &str,
        value: Value,
    ) -> Result<(), CoreError> {
        let slot = self.input_slot(name, &value)?;
        self.check_lane(lane)?;
        if self.alive[lane] {
            self.st.slots[slot * self.lanes + lane] = value.to_raw();
        }
        Ok(())
    }

    /// Reads a primary output of one lane (the value driven in the last
    /// completed cycle; frozen for masked lanes).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown output or lane.
    #[inline]
    pub fn output_lane(&self, lane: usize, name: &str) -> Result<Value, CoreError> {
        self.check_lane(lane)?;
        let sys = &self.system;
        sys.primary_outputs
            .iter()
            .find(|p| p.name == name)
            .map(|p| self.read_net_slot(p.net, lane))
            .ok_or_else(|| CoreError::UnknownName {
                kind: "primary output",
                name: name.to_owned(),
            })
    }

    /// Observes the current value on a named net of one lane.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown net or lane.
    pub fn peek_net_lane(&self, lane: usize, name: &str) -> Result<Value, CoreError> {
        self.check_lane(lane)?;
        let i = self.net_index(name)?;
        Ok(self.read_net_slot(i, lane))
    }

    /// Observes a register of one lane.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown instance,
    /// register or lane.
    pub fn peek_reg_lane(
        &self,
        lane: usize,
        instance: &str,
        reg: &str,
    ) -> Result<Value, CoreError> {
        self.check_lane(lane)?;
        let (i, j) = crate::sim::interp::find_reg(&self.system, instance, reg)?;
        Ok(Value::from_raw(
            self.system.timed[i].comp.regs[j].ty,
            self.st.regs[i][j * self.lanes + lane],
        ))
    }

    /// Overwrites a register of one lane. Writes to masked lanes are
    /// ignored.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown instance,
    /// register or lane and [`CoreError::ValueType`] for a type
    /// mismatch.
    pub fn poke_reg_lane(
        &mut self,
        lane: usize,
        instance: &str,
        reg: &str,
        value: Value,
    ) -> Result<(), CoreError> {
        self.check_lane(lane)?;
        let (i, j) = crate::sim::interp::find_reg(&self.system, instance, reg)?;
        value.check_type_with(self.system.timed[i].comp.regs[j].ty, || {
            format!("register `{instance}.{reg}`")
        })?;
        if self.alive[lane] {
            self.st.regs[i][j * self.lanes + lane] = value.to_raw();
        }
        Ok(())
    }

    /// Lane `lane`'s primary outputs as raw state words, in system
    /// order. Every slot holds its value's canonical [`Value::to_raw`]
    /// word (checked in debug builds), so two runs' outputs are equal
    /// values — floats by bit pattern — exactly when these words are.
    pub(crate) fn raw_outputs(&self, lane: usize) -> impl ExactSizeIterator<Item = u64> + '_ {
        let (prog, n) = (&*self.prog, self.lanes);
        self.system.primary_outputs.iter().map(move |p| {
            let sl = prog.net_slot[p.net] as usize;
            let raw = self.st.slots[sl * n + lane];
            debug_assert!(
                Value::raw_fits(prog.slot_ty[sl], raw),
                "output `{}` holds {raw:#x}, not a {} word",
                p.name,
                prog.slot_ty[sl]
            );
            raw
        })
    }

    /// Where net `name` lives in a lane's state, and the type its word
    /// is read as. Fails for an unknown net, or a net declared with
    /// another type than its slot holds, so that a value read there can
    /// be written back.
    pub(crate) fn net_word(&self, name: &str) -> Result<(Word, SigType), CoreError> {
        let i = self.net_index(name)?;
        let sl = self.prog.net_slot[i] as usize;
        let (ty, declared) = (self.prog.slot_ty[sl], self.system.nets[i].ty);
        if ty != declared {
            return Err(CoreError::ValueType {
                context: format!("net `{name}`"),
                expected: declared,
            });
        }
        Ok((Word::Slot(sl), ty))
    }

    /// Where register `instance.reg` lives in a lane's state, and its
    /// type.
    pub(crate) fn reg_word(&self, instance: &str, reg: &str) -> Result<(Word, SigType), CoreError> {
        let (i, j) = crate::sim::interp::find_reg(&self.system, instance, reg)?;
        Ok((Word::Reg(i, j), self.system.timed[i].comp.regs[j].ty))
    }

    /// Lane `lane`'s state word at `w` (see [`BatchedSim::net_word`]).
    pub(crate) fn word_mut(&mut self, w: Word, lane: usize) -> &mut u64 {
        let n = self.lanes;
        match w {
            Word::Slot(sl) => &mut self.st.slots[sl * n + lane],
            Word::Reg(i, j) => &mut self.st.regs[i][j * n + lane],
        }
    }

    /// The current FSM state name of a timed instance in one lane.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] if the lane or instance does
    /// not exist or the instance has no FSM.
    pub fn state_name_lane(&self, lane: usize, instance: &str) -> Result<&str, CoreError> {
        self.check_lane(lane)?;
        let sys = &self.system;
        let (i, t) = sys
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
        Ok(&fsm.states[self.st.states[i * self.lanes + lane] as usize])
    }

    fn check_lane(&self, lane: usize) -> Result<(), CoreError> {
        if lane < self.lanes {
            Ok(())
        } else {
            Err(CoreError::UnknownName {
                kind: "lane",
                name: lane.to_string(),
            })
        }
    }

    fn net_index(&self, name: &str) -> Result<usize, CoreError> {
        self.system
            .nets
            .iter()
            .position(|n| n.name == name)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "net",
                name: name.to_owned(),
            })
    }

    #[inline(always)]
    fn input_slot(&self, name: &str, value: &Value) -> Result<usize, CoreError> {
        let pi = self
            .system
            .primary_inputs
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "primary input",
                name: name.to_owned(),
            })?;
        value.check_type_with(pi.ty, || format!("primary input `{name}`"))?;
        Ok(self.prog.net_slot[pi.net] as usize)
    }

    fn read_net_slot(&self, net: usize, lane: usize) -> Value {
        let sl = self.prog.net_slot[net] as usize;
        Value::from_raw(self.prog.slot_ty[sl], self.st.slots[sl * self.lanes + lane])
    }

    /// The error of the lowest-indexed masked lane (every lane is dead
    /// when this is called).
    fn first_error(&self) -> CoreError {
        self.errors
            .iter()
            .flatten()
            .map(|(_, e)| e.clone())
            .next()
            .unwrap_or(CoreError::Unsupported {
                op: "batched step with no lanes".to_owned(),
            })
    }
}

/// One worker's reusable batches for a lane-batched driver: at most one
/// [`BatchedSim`] per lane count, reset before each reuse. A driver that
/// shards chunks of `lanes` runs over a pool keeps one of these per
/// worker (the per-worker state of
/// [`map_indexed_with`](crate::sim::par::map_indexed_with)), so a worker
/// builds one batch for its full chunks and one for a short last chunk,
/// instead of one per chunk. Every batch is built from the driver's one
/// [`CompiledDesign`] ([`BatchedSim::from_design`]), so a worker
/// captures and hashes nothing. Sound because [`BatchedSim::reset`]
/// equals a fresh build.
#[derive(Debug, Default)]
pub struct WorkerSims(Vec<BatchedSim>);

impl WorkerSims {
    /// A power-up batch of `lanes` lanes of `design` — the driver's one
    /// design, the same on every call: the batch this worker kept for
    /// that lane count, reset, or else a new one.
    ///
    /// # Errors
    ///
    /// [`CoreError::CheckFailed`] for zero lanes.
    pub fn get(
        &mut self,
        lanes: usize,
        design: &CompiledDesign,
    ) -> Result<&mut BatchedSim, CoreError> {
        let k = match self.0.iter().position(|s| s.lanes == lanes) {
            Some(k) => {
                self.0[k].reset();
                k
            }
            None => {
                self.0.push(BatchedSim::from_design(design, lanes)?);
                self.0.len() - 1
            }
        };
        Ok(&mut self.0[k])
    }
}

/// One cycle on geometry `lanes`, each phase under its span: guard
/// pre-tape, transition selection, one shared tape pass, register
/// commit.
fn cycle<L: Lanes>(
    prog: &Program,
    st: &mut State,
    blocks: &mut [Box<dyn UntimedBlock>],
    lanes: L,
    obs: Option<&TapeObs>,
) {
    let io = &prog.untimed_io;

    // Guard evaluation over held values.
    let t = obs.map(|o| o.pre.timer());
    exec::run(&prog.pre_tape, io, st, blocks, lanes);
    drop(t);

    let t = obs.map(|o| o.select.timer());
    let firings = exec::select(&prog.fsm_tables, st, lanes);
    drop(t);

    // Main tape: one walk, all lanes.
    let t = obs.map(|o| o.eval.timer());
    exec::run(&prog.tape, io, st, blocks, lanes);
    drop(t);

    let t = obs.map(|o| o.commit.timer());
    let reg_updates = exec::commit(&prog.reg_writes, st, lanes);
    drop(t);

    if let Some(o) = obs {
        o.count_cycle(firings, reg_updates);
    }
}

/// Writes `bits` into every live lane of stripe `k`.
#[inline(always)]
fn broadcast(stripes: &mut [u64], k: usize, alive: &[bool], bits: u64) {
    if let [true] = alive {
        // One live lane: the stripe is the slot.
        stripes[k] = bits;
        return;
    }
    for (w, live) in stripes[k * alive.len()..].iter_mut().zip(alive) {
        if *live {
            *w = bits;
        }
    }
}

impl Simulator for BatchedSim {
    /// Broadcasts to every live lane.
    fn set_input(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        let slot = self.input_slot(name, &value)?;
        broadcast(&mut self.st.slots, slot, &self.alive, value.to_raw());
        Ok(())
    }

    /// One batched cycle: guard pre-tape, per-lane transition selection,
    /// one shared tape pass, per-lane register commit. A one-lane batch
    /// runs the executor's one-lane geometry; a wider one its all-lanes
    /// kernels while every lane is live, and the mask-guarded ones once
    /// one is not.
    ///
    /// The step only errors once *every* lane is masked (see
    /// [`BatchedSim::fail_lane`]), returning the lowest-indexed lane's
    /// error — so a 1-lane batch reports errors exactly like the scalar
    /// compiled back-end.
    fn step(&mut self) -> Result<(), CoreError> {
        if self.masked == self.lanes {
            return Err(self.first_error());
        }
        let (prog, st, blocks) = (&*self.prog, &mut self.st, &mut self.blocks[..]);
        let obs = self.obs.as_ref();
        if self.lanes == 1 {
            cycle(prog, st, blocks, One, obs);
        } else if self.masked == 0 {
            cycle(prog, st, blocks, All(self.lanes), obs);
        } else {
            cycle(prog, st, blocks, Live(&self.alive), obs);
        }
        self.cycle += 1;
        Ok(())
    }

    /// Lane 0's value.
    fn output(&self, name: &str) -> Result<Value, CoreError> {
        self.output_lane(0, name)
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn empty_trace(&self) -> Trace {
        Trace::of_system(&self.system)
    }

    /// Lane 0's value.
    fn peek_net(&self, name: &str) -> Result<Value, CoreError> {
        self.peek_net_lane(0, name)
    }

    /// Broadcasts to every live lane.
    fn poke_net(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        let i = self.net_index(name)?;
        value.check_type_with(self.system.nets[i].ty, || format!("net `{name}`"))?;
        let slot = self.prog.net_slot[i] as usize;
        broadcast(&mut self.st.slots, slot, &self.alive, value.to_raw());
        Ok(())
    }

    /// Lane 0's value.
    fn peek_reg(&self, instance: &str, reg: &str) -> Result<Value, CoreError> {
        self.peek_reg_lane(0, instance, reg)
    }

    /// Broadcasts to every live lane.
    fn poke_reg(&mut self, instance: &str, reg: &str, value: Value) -> Result<(), CoreError> {
        let (i, j) = crate::sim::interp::find_reg(&self.system, instance, reg)?;
        value.check_type_with(self.system.timed[i].comp.regs[j].ty, || {
            format!("register `{instance}.{reg}`")
        })?;
        broadcast(&mut self.st.regs[i], j, &self.alive, value.to_raw());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::SigType;
    use crate::Component;
    use ocapi_obs::Registry;

    fn counter_system() -> System {
        let c = Component::build("counter");
        let out = c.output("count", SigType::Bits(8)).unwrap();
        let r = c.reg("r", SigType::Bits(8)).unwrap();
        let sfg = c.sfg("tick").unwrap();
        let q = c.q(r);
        sfg.drive(out, &q).unwrap();
        sfg.next(r, &(q.clone() + c.const_bits(8, 1))).unwrap();
        let comp = c.finish().unwrap();
        let mut sb = System::build("demo");
        let inst = sb.add_component("u0", comp).unwrap();
        sb.output("count", inst, "count").unwrap();
        sb.finish().unwrap()
    }

    #[test]
    fn obs_counts_lanes_tape_passes_and_maskings() {
        let reg = Registry::new();
        let mut sim = BatchedSim::from_fn(4, || Ok(counter_system()), OptLevel::Full).unwrap();
        sim.attach_obs(&reg);
        sim.run(5).unwrap();
        sim.fail_lane(
            2,
            CoreError::Unsupported {
                op: "test mask".to_owned(),
            },
        );
        sim.run(3).unwrap();
        // Deterministic counters: lane slots once, one tape pass per
        // batched step (not per lane), one masking event.
        assert_eq!(reg.counter("batch.lanes").get(), 4);
        assert_eq!(reg.counter("batch.tape_passes").get(), 8);
        assert_eq!(reg.counter("batch.masked_lanes").get(), 1);
        // The phase tree hangs off one `batch` root.
        let roots = reg.roots();
        let batch_root = roots.iter().find(|r| r.label() == "batch").unwrap();
        let labels: Vec<String> = batch_root
            .children()
            .iter()
            .map(|c| c.label().to_owned())
            .collect();
        for want in [
            "guard_pre_tape",
            "transition_select",
            "tape",
            "register_update",
        ] {
            assert!(labels.iter().any(|l| l == want), "missing span `{want}`");
        }
        // Masked lanes freeze; live lanes keep counting.
        assert_eq!(sim.output_lane(2, "count").unwrap(), Value::bits(8, 4));
        assert_eq!(sim.output_lane(0, "count").unwrap(), Value::bits(8, 7));
    }
}
