//! The compiled simulator: the captured design is "regenerated" into an
//! application-specific, flat evaluation tape executed once per cycle.
//!
//! The paper's environment writes out optimised C++ and recompiles it
//! (§5, Figure 7). Inside one Rust process the honest equivalent is to
//! *levelize and monomorphise* the whole system at build time:
//!
//! * every expression node of every component becomes one slot in a
//!   dense `u64` array (bools as 0/1, bit words masked, fixed point as
//!   sign-extended mantissas, floats as bit patterns);
//! * every operation becomes a *type-specialised* micro-instruction with
//!   its masks, alignment shifts and saturation bounds precomputed — the
//!   static typing a regenerated C++ simulator would get from the
//!   compiler;
//! * all instructions are placed in a single topologically-sorted tape,
//!   so a cycle is one linear pass — no graph traversal, no scheduling,
//!   no dynamic dispatch.
//!
//! One simulator runs the tape: [`crate::BatchedSim`], on `sim/exec.rs`,
//! the one micro-op executor. [`CompiledSim`] is its one-lane form —
//! the scalar API (infallible snapshots, no lane arguments) over a
//! one-lane batch that shares the tape's program.
//!
//! Soundness note: monomorphisation relies on runtime fixed-point formats
//! always matching the statically inferred node types, which holds
//! because [`crate::BinOp::result_type`] rejects any combination whose
//! exact result would not fit 63 bits at *capture* time.
//!
//! A static single-pass schedule exists exactly when the conservative
//! cross-component dependence graph is acyclic; otherwise
//! [`CompiledSim::new`] returns [`CoreError::NotCompilable`] and the
//! interpreted simulator must be used.

use std::collections::HashMap;

use ocapi_fixp::{Format, Overflow, Rounding};
use ocapi_obs::Registry;

use crate::comp::{Component, NodeId, NodeKind};
use crate::sim::batch::BatchedSim;
use crate::sim::hash::{CompiledDesign, CompiledTape};
use crate::sim::obs::TapeObs;
use crate::sim::opt::{self, OptEnv, OptLevel, OptStats};
use crate::sim::snapshot::SimSnapshot;
use crate::sim::Simulator;
use crate::system::{NetSource, System};
use crate::trace::Trace;
use crate::value::{BinOp, SigType, UnOp, Value};
use crate::CoreError;

/// Per untimed block: (input slot, type) and (output slot, type) lists.
pub(crate) type UntimedIo = (Vec<(u32, SigType)>, Vec<(u32, SigType)>);

/// Generic (pre-monomorphisation) instruction, used during construction,
/// topological sorting and optimization (`sim::opt`).
#[derive(Debug, Clone)]
pub(crate) enum Instr {
    Copy {
        dst: u32,
        src: u32,
    },
    RegRead {
        dst: u32,
        inst: u32,
        reg: u32,
    },
    Un {
        op: UnOp,
        dst: u32,
        a: u32,
    },
    Bin {
        op: BinOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    Select {
        dst: u32,
        c: u32,
        t: u32,
        e: u32,
    },
    Drive {
        net_slot: u32,
        inst: u32,
        cands: Vec<(u32, u32)>,
    },
    Fire {
        inst: u32,
    },
}

/// Comparison kinds shared by the specialised compare micro-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    fn of(op: BinOp) -> Cmp {
        match op {
            BinOp::Eq => Cmp::Eq,
            BinOp::Ne => Cmp::Ne,
            BinOp::Lt => Cmp::Lt,
            BinOp::Le => Cmp::Le,
            BinOp::Gt => Cmp::Gt,
            BinOp::Ge => Cmp::Ge,
            _ => unreachable!("not a comparison"),
        }
    }
}

/// A monomorphised micro-instruction over raw `u64` slots. Its
/// semantics live in one place, the executor in `sim/exec.rs`.
#[derive(Debug, Clone)]
pub(crate) enum Micro {
    Copy {
        dst: u32,
        src: u32,
    },
    RegRead {
        dst: u32,
        inst: u32,
        reg: u32,
    },
    // Bit words (stored masked) and bools (0/1).
    AddB {
        dst: u32,
        a: u32,
        b: u32,
        mask: u64,
    },
    SubB {
        dst: u32,
        a: u32,
        b: u32,
        mask: u64,
    },
    MulB {
        dst: u32,
        a: u32,
        b: u32,
        mask: u64,
    },
    AndU {
        dst: u32,
        a: u32,
        b: u32,
    },
    OrU {
        dst: u32,
        a: u32,
        b: u32,
    },
    XorU {
        dst: u32,
        a: u32,
        b: u32,
    },
    NotU {
        dst: u32,
        a: u32,
        mask: u64,
    },
    NegB {
        dst: u32,
        a: u32,
        mask: u64,
    },
    ShlB {
        dst: u32,
        a: u32,
        n: u32,
        mask: u64,
    },
    ShrB {
        dst: u32,
        a: u32,
        n: u32,
    },
    ShrMask {
        dst: u32,
        a: u32,
        n: u32,
        mask: u64,
    },
    CmpU {
        dst: u32,
        a: u32,
        b: u32,
        kind: Cmp,
    },
    // Fixed point (stored as sign-extended mantissas).
    AddF {
        dst: u32,
        a: u32,
        b: u32,
        sha: u32,
        shb: u32,
    },
    SubF {
        dst: u32,
        a: u32,
        b: u32,
        sha: u32,
        shb: u32,
    },
    MulF {
        dst: u32,
        a: u32,
        b: u32,
    },
    NegF {
        dst: u32,
        a: u32,
    },
    CmpF {
        dst: u32,
        a: u32,
        b: u32,
        sha: u32,
        shb: u32,
        kind: Cmp,
    },
    CastF {
        dst: u32,
        a: u32,
        src: Format,
        target: Format,
        rnd: Rounding,
        ovf: Overflow,
    },
    FloatToFix {
        dst: u32,
        a: u32,
        target: Format,
        rnd: Rounding,
        ovf: Overflow,
    },
    // Floats (stored as bit patterns).
    AddFl {
        dst: u32,
        a: u32,
        b: u32,
    },
    SubFl {
        dst: u32,
        a: u32,
        b: u32,
    },
    MulFl {
        dst: u32,
        a: u32,
        b: u32,
    },
    NegFl {
        dst: u32,
        a: u32,
    },
    CmpFl {
        dst: u32,
        a: u32,
        b: u32,
        kind: Cmp,
    },
    // Conversions.
    MaskTo {
        dst: u32,
        a: u32,
        mask: u64,
    },
    NonZero {
        dst: u32,
        a: u32,
    },
    NonZeroFloat {
        dst: u32,
        a: u32,
    },
    ToFloatBits {
        dst: u32,
        a: u32,
    },
    ToFloatFix {
        dst: u32,
        a: u32,
        frac_bits: u32,
    },
    // Control.
    SelectU {
        dst: u32,
        c: u32,
        t: u32,
        e: u32,
    },
    Drive {
        net_slot: u32,
        inst: u32,
        cands: Vec<(u32, u32)>,
    },
    Fire {
        inst: u32,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct CompiledTransition {
    pub(crate) guard_slot: Option<u32>,
    pub(crate) sfgs: Vec<u32>,
    pub(crate) to: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct RegWriteSel {
    pub(crate) inst: u32,
    pub(crate) reg: u32,
    pub(crate) cands: Vec<(u32, u32)>,
}

/// The compiled (levelized, monomorphised single-pass) simulator: a
/// one-lane [`BatchedSim`] behind the scalar API.
///
/// Construct with [`CompiledSim::new`]; drive through the [`Simulator`]
/// trait exactly like [`crate::InterpSim`]. Behaviour is cycle-identical
/// to the interpreted simulator for any design both accept.
#[derive(Debug)]
pub struct CompiledSim(BatchedSim);

pub(crate) fn mask_of(w: u32) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

struct Builder {
    slots: Vec<u64>,
    slot_ty: Vec<SigType>,
    /// node slot of (inst, node)
    node_slot: Vec<Vec<u32>>,
    net_slot: Vec<u32>,
    instrs: Vec<Instr>,
    /// producing instruction per slot (absent = available at cycle start)
    producer: HashMap<u32, usize>,
}

impl Builder {
    fn alloc(&mut self, init: Value) -> u32 {
        self.slots.push(init.to_raw());
        self.slot_ty.push(init.sig_type());
        self.slots.len() as u32 - 1
    }

    fn emit(&mut self, instr: Instr, produces: u32) {
        self.instrs.push(instr);
        self.producer.insert(produces, self.instrs.len() - 1);
    }
}

/// The immutable result of levelizing and monomorphising one system:
/// everything a [`BatchedSim`] needs apart from its mutable lane state.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    pub(crate) init_slots: Vec<u64>,
    pub(crate) slot_ty: Vec<SigType>,
    pub(crate) pre_tape: Vec<Micro>,
    pub(crate) tape: Vec<Micro>,
    pub(crate) fsm_tables: Vec<Vec<Vec<CompiledTransition>>>,
    pub(crate) reg_writes: Vec<RegWriteSel>,
    pub(crate) net_slot: Vec<u32>,
    pub(crate) untimed_io: Vec<UntimedIo>,
    pub(crate) opt_stats: OptStats,
}

/// Levelizes and monomorphises `sys` into a [`Program`].
pub(crate) fn build_program(sys: &System, level: OptLevel) -> Result<Program, CoreError> {
    let mut b = Builder {
        slots: Vec::new(),
        slot_ty: Vec::new(),
        node_slot: Vec::new(),
        net_slot: Vec::new(),
        instrs: Vec::new(),
        producer: HashMap::new(),
    };

    // 1. Net slots.
    for net in &sys.nets {
        let init = match &net.source {
            NetSource::Constant(v) => *v,
            _ => net.ty.zero(),
        };
        let s = b.alloc(init);
        b.net_slot.push(s);
    }

    // 2. Node slots per timed instance. Input nodes alias their net's
    //    slot; constants are prefilled.
    for (i, t) in sys.timed.iter().enumerate() {
        let comp = &t.comp;
        let mut slots = Vec::with_capacity(comp.nodes.len());
        for node in &comp.nodes {
            let s = match &node.kind {
                NodeKind::Input(p) => b.net_slot[sys.timed_in_net[i][p.index()]],
                NodeKind::Const(v) => b.alloc(*v),
                _ => b.alloc(node.ty.zero()),
            };
            slots.push(s);
        }
        b.node_slot.push(slots);
    }

    // 3. Instructions for every non-trivial node.
    for (i, t) in sys.timed.iter().enumerate() {
        let comp = &t.comp;
        for (n, node) in comp.nodes.iter().enumerate() {
            let dst = b.node_slot[i][n];
            match &node.kind {
                NodeKind::Const(_) | NodeKind::Input(_) => {}
                NodeKind::RegRead(r) => b.emit(
                    Instr::RegRead {
                        dst,
                        inst: i as u32,
                        reg: r.0,
                    },
                    dst,
                ),
                NodeKind::Un(op, a) => {
                    let a = b.node_slot[i][a.index()];
                    b.emit(Instr::Un { op: *op, dst, a }, dst);
                }
                NodeKind::Bin(op, x, y) => {
                    let a = b.node_slot[i][x.index()];
                    let b2 = b.node_slot[i][y.index()];
                    b.emit(
                        Instr::Bin {
                            op: *op,
                            dst,
                            a,
                            b: b2,
                        },
                        dst,
                    );
                }
                NodeKind::Select {
                    cond,
                    then,
                    otherwise,
                } => {
                    let c = b.node_slot[i][cond.index()];
                    let tt = b.node_slot[i][then.index()];
                    let e = b.node_slot[i][otherwise.index()];
                    b.emit(Instr::Select { dst, c, t: tt, e }, dst);
                }
            }
        }
    }

    // 4. Drive instructions for timed-driven nets, Fire for untimed.
    for (ni, net) in sys.nets.iter().enumerate() {
        if let NetSource::TimedOut { inst, port } = net.source {
            let comp = &sys.timed[inst].comp;
            let cands: Vec<(u32, u32)> = comp
                .sfgs
                .iter()
                .enumerate()
                .flat_map(|(si, sfg)| {
                    sfg.outputs
                        .iter()
                        .filter(|(p, _)| p.index() == port)
                        .map(move |(_, node)| (si as u32, node))
                })
                .map(|(si, node)| (si, b.node_slot[inst][node.index()]))
                .collect();
            let net_slot = b.net_slot[ni];
            b.emit(
                Instr::Drive {
                    net_slot,
                    inst: inst as u32,
                    cands,
                },
                net_slot,
            );
        }
    }
    let mut untimed_io = Vec::new();
    for (u, inst) in sys.untimed.iter().enumerate() {
        let in_slots: Vec<(u32, SigType)> = sys.untimed_in_net[u]
            .iter()
            .zip(&inst.inputs)
            .map(|(n, p)| (b.net_slot[*n], p.ty))
            .collect();
        let mut out_slots = Vec::new();
        for (p, decl) in inst.outputs.iter().enumerate() {
            let slot = match sys.untimed_output_net(u, p) {
                Some(n) => b.net_slot[n],
                None => b.alloc(decl.ty.zero()),
            };
            out_slots.push((slot, decl.ty));
        }
        let fire_idx = b.instrs.len();
        b.instrs.push(Instr::Fire { inst: u as u32 });
        for (s, _) in &out_slots {
            b.producer.insert(*s, fire_idx);
        }
        untimed_io.push((in_slots, out_slots));
    }

    // 5. Topological sort of the instruction list.
    let mut sorted = topo_sort(&b, sys, &untimed_io)?;

    // 6. Guard pre-tape: duplicate guard cones reading held net values.
    let mut pre_instrs: Vec<Instr> = Vec::new();
    let mut fsm_tables = Vec::new();
    for (i, t) in sys.timed.iter().enumerate() {
        let comp = &t.comp;
        let mut memo: HashMap<NodeId, u32> = HashMap::new();
        let mut table: Vec<Vec<CompiledTransition>> = Vec::new();
        if let Some(fsm) = &comp.fsm {
            table.resize(fsm.states.len(), Vec::new());
            for tr in &fsm.transitions {
                let guard_slot = tr
                    .guard
                    .map(|g| emit_guard_cone(comp, g, i, sys, &mut b, &mut memo, &mut pre_instrs));
                table[tr.from.index()].push(CompiledTransition {
                    guard_slot,
                    sfgs: tr.actions.iter().map(|s| s.0).collect(),
                    to: tr.to.0,
                });
            }
        }
        fsm_tables.push(table);
    }

    // 7. Register write selectors (before the optimizer so slot
    //    renames apply to them and they can root the liveness walk).
    let mut reg_writes = Vec::new();
    for (i, t) in sys.timed.iter().enumerate() {
        let comp = &t.comp;
        for r in 0..comp.regs.len() {
            let cands: Vec<(u32, u32)> = comp
                .sfgs
                .iter()
                .enumerate()
                .flat_map(|(si, sfg)| {
                    sfg.reg_writes
                        .iter()
                        .filter(|(reg, _)| reg.index() == r)
                        .map(move |(_, node)| (si as u32, node))
                })
                .map(|(si, node)| (si, b.node_slot[i][node.index()]))
                .collect();
            if !cands.is_empty() {
                reg_writes.push(RegWriteSel {
                    inst: i as u32,
                    reg: r as u32,
                    cands,
                });
            }
        }
    }

    // 8. Optimize both tapes over the generic instruction form.
    let opt_stats = opt::optimize(
        level,
        &mut sorted,
        &mut pre_instrs,
        &mut OptEnv {
            slots: &mut b.slots,
            slot_ty: &mut b.slot_ty,
            net_slot: &mut b.net_slot,
            reg_writes: &mut reg_writes,
            untimed_io: &mut untimed_io,
            fsm_tables: &mut fsm_tables,
        },
    );

    // 9. Monomorphise both tapes.
    let tape: Vec<Micro> = sorted.iter().map(|i| lower(i, &b.slot_ty)).collect();
    let pre_tape: Vec<Micro> = pre_instrs.iter().map(|i| lower(i, &b.slot_ty)).collect();

    Ok(Program {
        init_slots: b.slots,
        slot_ty: b.slot_ty,
        pre_tape,
        tape,
        fsm_tables,
        reg_writes,
        net_slot: b.net_slot,
        untimed_io,
        opt_stats,
    })
}

impl CompiledSim {
    /// Levelizes and monomorphises the system into a static evaluation
    /// tape.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotCompilable`] when the conservative
    /// cross-component dependence graph is cyclic (possible combinational
    /// loop), in which case the interpreted simulator should be used.
    pub fn new(sys: System) -> Result<CompiledSim, CoreError> {
        CompiledSim::new_with(sys, OptLevel::default())
    }

    /// Like [`CompiledSim::new`] but with an explicit optimization level
    /// for the evaluation tape (see [`OptLevel`]). All levels are
    /// cycle-identical to the interpreted simulator; `Full` (the
    /// default) additionally folds constants, shares common
    /// subexpressions, removes dead code and compacts the state vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotCompilable`] when the conservative
    /// cross-component dependence graph is cyclic.
    pub fn new_with(sys: System, level: OptLevel) -> Result<CompiledSim, CoreError> {
        BatchedSim::new_with(vec![sys], level).map(CompiledSim)
    }

    /// Instantiates a simulator from a cached [`CompiledTape`] without
    /// recompiling: the levelized program is shared and only the mutable
    /// per-instance state is built fresh. Behaviour is identical to
    /// compiling `sys` at the tape's level — the warm path of the
    /// simulation service's tape cache.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TapeMismatch`] when `sys` is not
    /// structurally the system the tape was compiled from.
    pub fn from_tape(sys: System, tape: &CompiledTape) -> Result<CompiledSim, CoreError> {
        BatchedSim::from_tape(vec![sys], tape).map(CompiledSim)
    }

    /// A simulator of `design`: the one-lane
    /// [`BatchedSim::from_design`], sharing the design's template and
    /// program, so it captures and hashes nothing.
    ///
    /// # Errors
    ///
    /// None in practice: [`BatchedSim::from_design`] fails only for zero
    /// lanes.
    pub fn from_design(design: &CompiledDesign) -> Result<CompiledSim, CoreError> {
        BatchedSim::from_design(design, 1).map(CompiledSim)
    }

    /// The structural design hash keying this simulator's snapshots
    /// ([`crate::sim::hash::hash_system`]), equal to
    /// [`crate::InterpSim::design_hash`]: snapshots cross engines and
    /// optimization levels. [`CompiledTape::program_hash`] names the
    /// compiled build itself.
    pub fn design_hash(&self) -> u64 {
        self.0.design_hash()
    }

    /// Captures the architectural state — nets, FSM states, register
    /// files, held untimed outputs, stateful untimed blocks and the
    /// cycle count — as a [`SimSnapshot`], the same bytes
    /// [`crate::InterpSim::snapshot`] gives at the same cycle. Traces
    /// are not part of the snapshot. Take snapshots between steps.
    pub fn snapshot(&self) -> SimSnapshot {
        self.0.capture(0)
    }

    /// Restores a snapshot of this design taken on any engine: this
    /// simulator at any optimization level, a [`BatchedSim`] lane, or
    /// [`crate::InterpSim`].
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotMismatch`] when the snapshot was taken from
    /// a different design, and [`CoreError::SnapshotFormat`] when it has
    /// damaged sections. On error the simulator state is unspecified;
    /// call [`CompiledSim::reset`] before reuse.
    pub fn restore(&mut self, snap: &SimSnapshot) -> Result<(), CoreError> {
        self.0.restore_lane(0, snap)
    }

    /// The simulated system.
    pub fn system(&self) -> &System {
        self.0.system()
    }

    /// Starts reporting into `reg`: every subsequent
    /// [`Simulator::step`] bumps the `compiled.cycles`,
    /// `compiled.sfg_firings` and `compiled.reg_updates` counters and
    /// times its phases under the `compiled` span. Detached simulators
    /// pay nothing. The build-time optimizer statistics
    /// ([`CompiledSim::opt_stats`]) are flushed into the `compiled.opt.*`
    /// counters here; they are pure functions of the system and
    /// therefore live in the deterministic namespace.
    pub fn attach_obs(&mut self, reg: &Registry) {
        self.0.attach(TapeObs::compiled(reg, &self.opt_stats()));
    }

    /// Number of instructions executed per cycle (tape + guard pre-tape).
    pub fn tape_len(&self) -> usize {
        self.0.tape_len()
    }

    /// What the tape optimizer did at build time (all-zero apart from
    /// the `instrs_*`/`slots_*` totals when built at [`OptLevel::None`]).
    pub fn opt_stats(&self) -> OptStats {
        self.0.opt_stats()
    }

    /// The current FSM state name of a timed instance.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] if the instance does not exist
    /// or has no FSM.
    pub fn state_name(&self, instance: &str) -> Result<&str, CoreError> {
        self.0.state_name_lane(0, instance)
    }

    /// Resets the simulation to power-up state.
    pub fn reset(&mut self) {
        self.0.reset();
    }

    /// The primary outputs as raw state words (see
    /// [`BatchedSim::raw_outputs`]).
    pub(crate) fn raw_outputs(&self) -> impl ExactSizeIterator<Item = u64> + '_ {
        self.0.raw_outputs(0)
    }
}

/// Monomorphises one generic instruction using the static slot types.
fn lower(instr: &Instr, ty: &[SigType]) -> Micro {
    match instr {
        Instr::Copy { dst, src } => Micro::Copy {
            dst: *dst,
            src: *src,
        },
        Instr::RegRead { dst, inst, reg } => Micro::RegRead {
            dst: *dst,
            inst: *inst,
            reg: *reg,
        },
        Instr::Select { dst, c, t, e } => Micro::SelectU {
            dst: *dst,
            c: *c,
            t: *t,
            e: *e,
        },
        Instr::Drive {
            net_slot,
            inst,
            cands,
        } => Micro::Drive {
            net_slot: *net_slot,
            inst: *inst,
            cands: cands.clone(),
        },
        Instr::Fire { inst } => Micro::Fire { inst: *inst },
        Instr::Un { op, dst, a } => lower_un(*op, *dst, *a, ty),
        Instr::Bin { op, dst, a, b } => lower_bin(*op, *dst, *a, *b, ty),
    }
}

fn lower_un(op: UnOp, dst: u32, a: u32, ty: &[SigType]) -> Micro {
    let at = ty[a as usize];
    let dt = ty[dst as usize];
    match op {
        UnOp::Not => match at {
            SigType::Bool => Micro::NotU { dst, a, mask: 1 },
            SigType::Bits(w) => Micro::NotU {
                dst,
                a,
                mask: mask_of(w),
            },
            _ => unreachable!("Not is only typed on Bool/Bits"),
        },
        UnOp::Neg => match at {
            SigType::Bits(w) => Micro::NegB {
                dst,
                a,
                mask: mask_of(w),
            },
            SigType::Fixed(_) => Micro::NegF { dst, a },
            SigType::Float => Micro::NegFl { dst, a },
            SigType::Bool => unreachable!("Neg is not typed on Bool"),
        },
        UnOp::Shl(n) => match at {
            SigType::Bits(w) => Micro::ShlB {
                dst,
                a,
                n,
                mask: mask_of(w),
            },
            _ => unreachable!("Shl is only typed on Bits"),
        },
        UnOp::Shr(n) => Micro::ShrB { dst, a, n },
        UnOp::Slice { lo, width } => {
            // (a >> lo) & mask — reuse ShrB + mask in one op via ShlB
            // trickery is not possible; emit as shift-then-mask pair
            // folded into a single micro: (a >> lo) already zero-fills,
            // so masking to `width` completes the slice.
            Micro::ShrMask {
                dst,
                a,
                n: lo,
                mask: mask_of(width),
            }
        }
        UnOp::ToFixed(fmt, rnd, ovf) => match at {
            SigType::Fixed(src) => Micro::CastF {
                dst,
                a,
                src,
                target: fmt,
                rnd,
                ovf,
            },
            SigType::Float => Micro::FloatToFix {
                dst,
                a,
                target: fmt,
                rnd,
                ovf,
            },
            _ => unreachable!("ToFixed is only typed on Fixed/Float"),
        },
        UnOp::ToBits(w) => Micro::MaskTo {
            dst,
            a,
            mask: mask_of(w),
        },
        UnOp::ToFloat => match at {
            SigType::Bool | SigType::Bits(_) => Micro::ToFloatBits { dst, a },
            SigType::Fixed(f) => Micro::ToFloatFix {
                dst,
                a,
                frac_bits: f.frac_bits(),
            },
            SigType::Float => Micro::Copy { dst, src: a },
        },
        UnOp::ToBool => match at {
            SigType::Float => Micro::NonZeroFloat { dst, a },
            _ => Micro::NonZero { dst, a },
        },
    }
    .check_dst(dt)
}

fn lower_bin(op: BinOp, dst: u32, a: u32, b: u32, ty: &[SigType]) -> Micro {
    let (at, bt) = (ty[a as usize], ty[b as usize]);
    let dt = ty[dst as usize];
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul => match (at, bt, dt) {
            (SigType::Bits(_), SigType::Bits(_), SigType::Bits(w)) => {
                let mask = mask_of(w);
                match op {
                    BinOp::Add => Micro::AddB { dst, a, b, mask },
                    BinOp::Sub => Micro::SubB { dst, a, b, mask },
                    _ => Micro::MulB { dst, a, b, mask },
                }
            }
            (SigType::Fixed(fa), SigType::Fixed(fb), SigType::Fixed(fo)) => match op {
                BinOp::Mul => Micro::MulF { dst, a, b },
                _ => {
                    let sha = fo.frac_bits() - fa.frac_bits();
                    let shb = fo.frac_bits() - fb.frac_bits();
                    if op == BinOp::Add {
                        Micro::AddF {
                            dst,
                            a,
                            b,
                            sha,
                            shb,
                        }
                    } else {
                        Micro::SubF {
                            dst,
                            a,
                            b,
                            sha,
                            shb,
                        }
                    }
                }
            },
            (SigType::Float, SigType::Float, _) => match op {
                BinOp::Add => Micro::AddFl { dst, a, b },
                BinOp::Sub => Micro::SubFl { dst, a, b },
                _ => Micro::MulFl { dst, a, b },
            },
            _ => unreachable!("arithmetic is typed on matching operands"),
        },
        BinOp::And => Micro::AndU { dst, a, b },
        BinOp::Or => Micro::OrU { dst, a, b },
        BinOp::Xor => Micro::XorU { dst, a, b },
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let kind = Cmp::of(op);
            match (at, bt) {
                (SigType::Fixed(fa), SigType::Fixed(fb)) => {
                    let fbc = fa.frac_bits().max(fb.frac_bits());
                    Micro::CmpF {
                        dst,
                        a,
                        b,
                        sha: fbc - fa.frac_bits(),
                        shb: fbc - fb.frac_bits(),
                        kind,
                    }
                }
                (SigType::Float, SigType::Float) => Micro::CmpFl { dst, a, b, kind },
                _ => Micro::CmpU { dst, a, b, kind },
            }
        }
    }
}

impl Micro {
    /// Debug aid: destination types are implied by construction.
    fn check_dst(self, _dt: SigType) -> Micro {
        self
    }
}

/// Emits the duplicated guard cone of `node`, reading input ports from
/// their (held) net slots, and returns the slot holding the guard value.
fn emit_guard_cone(
    comp: &Component,
    node: NodeId,
    inst: usize,
    sys: &System,
    b: &mut Builder,
    memo: &mut HashMap<NodeId, u32>,
    out: &mut Vec<Instr>,
) -> u32 {
    if let Some(&s) = memo.get(&node) {
        return s;
    }
    let n = &comp.nodes[node.index()];
    let dst = match &n.kind {
        NodeKind::Const(v) => b.alloc(*v),
        NodeKind::Input(p) => {
            let src = b.net_slot[sys.timed_in_net[inst][p.index()]];
            let dst = b.alloc(n.ty.zero());
            out.push(Instr::Copy { dst, src });
            dst
        }
        NodeKind::RegRead(r) => {
            let dst = b.alloc(n.ty.zero());
            out.push(Instr::RegRead {
                dst,
                inst: inst as u32,
                reg: r.0,
            });
            dst
        }
        NodeKind::Un(op, a) => {
            let a = emit_guard_cone(comp, *a, inst, sys, b, memo, out);
            let dst = b.alloc(n.ty.zero());
            out.push(Instr::Un { op: *op, dst, a });
            dst
        }
        NodeKind::Bin(op, a, bn) => {
            let a = emit_guard_cone(comp, *a, inst, sys, b, memo, out);
            let b2 = emit_guard_cone(comp, *bn, inst, sys, b, memo, out);
            let dst = b.alloc(n.ty.zero());
            out.push(Instr::Bin {
                op: *op,
                dst,
                a,
                b: b2,
            });
            dst
        }
        NodeKind::Select {
            cond,
            then,
            otherwise,
        } => {
            let c = emit_guard_cone(comp, *cond, inst, sys, b, memo, out);
            let t = emit_guard_cone(comp, *then, inst, sys, b, memo, out);
            let e = emit_guard_cone(comp, *otherwise, inst, sys, b, memo, out);
            let dst = b.alloc(n.ty.zero());
            out.push(Instr::Select { dst, c, t, e });
            dst
        }
    };
    memo.insert(node, dst);
    dst
}

/// Kahn topological sort of the main tape by slot-producer dependencies.
fn topo_sort(b: &Builder, sys: &System, untimed_io: &[UntimedIo]) -> Result<Vec<Instr>, CoreError> {
    let n = b.instrs.len();
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n]; // edges dep -> user
    let mut indeg = vec![0usize; n];

    let add_dep =
        |src_slot: u32, user: usize, deps: &mut Vec<Vec<usize>>, indeg: &mut Vec<usize>| {
            if let Some(&p) = b.producer.get(&src_slot) {
                if p != user {
                    deps[p].push(user);
                    indeg[user] += 1;
                }
            }
        };

    for (idx, instr) in b.instrs.iter().enumerate() {
        match instr {
            Instr::Copy { src, .. } => add_dep(*src, idx, &mut deps, &mut indeg),
            Instr::RegRead { .. } => {}
            Instr::Un { a, .. } => add_dep(*a, idx, &mut deps, &mut indeg),
            Instr::Bin { a, b: b2, .. } => {
                add_dep(*a, idx, &mut deps, &mut indeg);
                add_dep(*b2, idx, &mut deps, &mut indeg);
            }
            Instr::Select { c, t, e, .. } => {
                add_dep(*c, idx, &mut deps, &mut indeg);
                add_dep(*t, idx, &mut deps, &mut indeg);
                add_dep(*e, idx, &mut deps, &mut indeg);
            }
            Instr::Drive { cands, .. } => {
                for (_, src) in cands {
                    add_dep(*src, idx, &mut deps, &mut indeg);
                }
            }
            Instr::Fire { inst } => {
                for (s, _) in &untimed_io[*inst as usize].0 {
                    add_dep(*s, idx, &mut deps, &mut indeg);
                }
            }
        }
    }

    let mut queue: Vec<usize> = (0..n).filter(|i| indeg[*i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &u in &deps[i] {
            indeg[u] -= 1;
            if indeg[u] == 0 {
                queue.push(u);
            }
        }
    }
    if order.len() != n {
        let mut cycle: Vec<String> = b
            .instrs
            .iter()
            .enumerate()
            .filter(|(i, _)| indeg[*i] > 0)
            .map(|(_, instr)| describe(instr, sys))
            .collect();
        // Deterministic diagnostics: sort before truncating so the
        // reported subset does not depend on hash/emission order.
        cycle.sort();
        cycle.dedup();
        cycle.truncate(16);
        return Err(CoreError::NotCompilable { cycle });
    }
    Ok(order.into_iter().map(|i| b.instrs[i].clone()).collect())
}

fn describe(instr: &Instr, sys: &System) -> String {
    match instr {
        Instr::Drive { inst, .. } => format!("output of `{}`", sys.timed[*inst as usize].name),
        Instr::Fire { inst } => format!("untimed `{}`", sys.untimed[*inst as usize].block.name()),
        other => format!("{other:?}"),
    }
}

impl Simulator for CompiledSim {
    fn set_input(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        self.0.set_input(name, value)
    }

    fn step(&mut self) -> Result<(), CoreError> {
        self.0.step()
    }

    fn output(&self, name: &str) -> Result<Value, CoreError> {
        self.0.output(name)
    }

    fn cycle(&self) -> u64 {
        self.0.cycle()
    }

    fn enable_trace(&mut self) {
        self.0.enable_trace();
    }

    fn trace(&self) -> &Trace {
        self.0.trace()
    }

    fn peek_net(&self, name: &str) -> Result<Value, CoreError> {
        self.0.peek_net(name)
    }

    fn poke_net(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        self.0.poke_net(name, value)
    }

    fn peek_reg(&self, instance: &str, reg: &str) -> Result<Value, CoreError> {
        self.0.peek_reg(instance, reg)
    }

    fn poke_reg(&mut self, instance: &str, reg: &str, value: Value) -> Result<(), CoreError> {
        self.0.poke_reg(instance, reg, value)
    }
}
