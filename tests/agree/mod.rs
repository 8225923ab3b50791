//! The one random-system generator and the one every-engine checker.
//!
//! Table 1 compares the speed of four simulation paradigms on one
//! captured design, which only means something if all of them compute
//! the same cycles. [`check`] builds twelve engine configurations from a
//! `Fn() -> System`: `InterpSim` as the reference, `CompiledSim` at the
//! three [`OptLevel`]s, `BatchedSim` at 1 and 64 lanes per level (one
//! capture whose untimed blocks every lane copies; lanes 0 and 63
//! read), `RtlSystemSim`, and `GateSystemSim` under one of
//! three synthesis option sets. It drives them with the same stimulus
//! and compares every primary output on every engine before the first
//! step and each cycle; on the tape engines also every net and every
//! register each cycle, and the FSM states at the end.
//!
//! Every engine with snapshots saves one architectural state (see
//! `ocapi::sim::snapshot`), so at a seeded cycle [`check`] parks the run:
//! the interpreter's snapshot must equal, byte for byte, that of
//! compiled at every level and of lanes 0 and 63 of every batch. It is
//! then restored into a fresh build of every tape engine, and one tape
//! snapshot into a fresh interpreter; each restored engine runs the
//! rest of the stimulus and must read what the unbroken run reads.
//!
//! On the engines with a reset — the interpreter and the tape engines at
//! every level — [`check_reset`] then asks that reset-then-replay equal
//! a fresh build: each engine is run from its build, reset (a 64-lane
//! batch with its last lane masked first) and run again over the same
//! stimulus, and the two runs must match in every read each cycle and
//! in the snapshots at power-up and at the end. The
//! campaign and BER drivers reuse one reset batch per worker on the
//! strength of this check.
//!
//! [`check_faults`] holds the fault-campaign drivers to the same
//! account: seeded flips and stuck-ats over every site of a system, and
//! one unknown site, run through the reference driver over the
//! interpreter and over the compiled engine at `None` and `Full`, and
//! through the lane-batched driver at 1 and 64 lanes, must classify
//! every event alike. `tests/engines_agree.rs` runs it on 8 generated
//! systems and on 8 with a memory (256 each with `slow-tests`),
//! `crates/core/tests/tape_engines.rs` on HCOR and DECT, and
//! `crates/core/tests/fault_injection.rs` on a system with a float
//! register.
//!
//! A generated system is a pure function of its seed. One that
//! disagrees is shrunk (components, expression steps, the memory and
//! stimulus cycles are dropped one at a time while the same engine
//! still disagrees), and [`check_generated`] panics with the seed and
//! the shrunk recipe. [`check_generated_memories`] adds to the system
//! of each seed a `Ram` or `Rom` that generated logic addresses and
//! writes, sometimes wired out of the memory shape so the tape fires it
//! as a generic block. Every engine fires an untimed block once a
//! cycle, so these systems, like every other, run on all twelve
//! configurations. [`check_designs`] feeds the checker hand-written
//! designs.
//!
//! Every random differential of the workspace runs through this module,
//! each on a slice of its own: `tests/engines_agree.rs` runs seeds
//! `0..72` (`0..1024` with `slow-tests`), and seeds `0..16` (`0..256`)
//! with a memory; the `prop_*equivalence.rs` files next to it and
//! `crates/core/tests/opt.rs` run 24-seed blocks from 1024 up;
//! `crates/core/tests/tape_engines.rs` runs the five in-tree designs.
//! The crate tests include this file by path.

// Each test binary that includes this module uses only some of its
// entry points.
#![allow(dead_code)]

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ocapi::rng::XorShift64;
use ocapi::sim::par::map_indexed;
use ocapi::{
    run_campaign_cached_par, run_campaign_par, BatchedSim, CampaignReport, CompiledSim,
    CompiledTape, Component, CoreError, FaultEvent, FaultPlan, FaultSite, FnBlock, Format,
    InstanceId, InterpSim, MemorySpec, OptLevel, Overflow, ParConfig, PortDecl, Ram, Rom, Rounding,
    Sig, SigType, SimSnapshot, Simulator, System, SystemBuilder, UntimedBlock, Value,
};
use ocapi_gatesim::GateSystemSim;
use ocapi_rtl::RtlSystemSim;
use ocapi_synth::controller::Encoding;
use ocapi_synth::{AdderStyle, SynthOptions};

/// One value the checker reads off an engine.
#[derive(Clone, Copy, Debug)]
enum Read<'a> {
    Output(&'a str),
    Net(&'a str),
    Reg(&'a str, &'a str),
}

/// An engine under test: a [`Simulator`] plus what the checker reads.
trait Engine: Simulator {
    /// `r` on each lane read (lanes 0 and 63 of a 64-lane batch); none
    /// for a net or register of an engine that exposes none.
    fn read(&self, r: Read) -> Vec<Result<Value, CoreError>> {
        match r {
            Read::Output(name) => vec![self.output(name)],
            _ => Vec::new(),
        }
    }

    /// The FSM state of `instance` on each lane read.
    fn state(&self, _instance: &str) -> Vec<Result<String, CoreError>> {
        Vec::new()
    }

    /// Returns the engine to power-up state, for [`check_reset`].
    fn reset_engine(&mut self) {}

    /// The snapshot of each lane read, as bytes.
    fn snapshots(&self) -> Vec<Result<Vec<u8>, CoreError>> {
        Vec::new()
    }

    /// Restores `snap` into every lane.
    fn restore_engine(&mut self, _snap: &SimSnapshot) -> Result<(), CoreError> {
        Err(CoreError::Unsupported {
            op: "restore".to_owned(),
        })
    }
}

impl Engine for RtlSystemSim {}
impl Engine for GateSystemSim {}

/// One-lane engines that expose nets, registers and FSM states.
macro_rules! scalar_engine {
    ($($sim:ty),*) => {$(
        impl Engine for $sim {
            fn read(&self, r: Read) -> Vec<Result<Value, CoreError>> {
                vec![match r {
                    Read::Output(name) => self.output(name),
                    Read::Net(name) => self.peek_net(name),
                    Read::Reg(instance, reg) => self.peek_reg(instance, reg),
                }]
            }

            fn state(&self, instance: &str) -> Vec<Result<String, CoreError>> {
                vec![self.state_name(instance).map(str::to_owned)]
            }

            fn reset_engine(&mut self) {
                self.reset();
            }

            fn snapshots(&self) -> Vec<Result<Vec<u8>, CoreError>> {
                vec![Ok(self.snapshot().to_bytes())]
            }

            fn restore_engine(&mut self, snap: &SimSnapshot) -> Result<(), CoreError> {
                self.restore(snap)
            }
        }
    )*};
}
scalar_engine!(InterpSim, CompiledSim);

impl Engine for BatchedSim {
    fn read(&self, r: Read) -> Vec<Result<Value, CoreError>> {
        let read = |lane| match r {
            Read::Output(name) => self.output_lane(lane, name),
            Read::Net(name) => self.peek_net_lane(lane, name),
            Read::Reg(instance, reg) => self.peek_reg_lane(lane, instance, reg),
        };
        vec![read(0), read(self.lanes() - 1)]
    }

    fn state(&self, instance: &str) -> Vec<Result<String, CoreError>> {
        let state = |lane| self.state_name_lane(lane, instance).map(str::to_owned);
        vec![state(0), state(self.lanes() - 1)]
    }

    /// Masks the last lane first: reset must revive it.
    fn reset_engine(&mut self) {
        let dead = CoreError::Unsupported {
            op: "masked before reset".to_owned(),
        };
        self.fail_lane(self.lanes() - 1, dead);
        self.reset();
    }

    fn snapshots(&self) -> Vec<Result<Vec<u8>, CoreError>> {
        let snap = |lane| self.snapshot_lane(lane).map(|s| s.to_bytes());
        vec![snap(0), snap(self.lanes() - 1)]
    }

    fn restore_engine(&mut self, snap: &SimSnapshot) -> Result<(), CoreError> {
        (0..self.lanes()).try_for_each(|lane| self.restore_lane(lane, snap))
    }
}

/// The first disagreement with the interpreter: the engine, then the
/// cycle and signal with both values (or the error).
type Mismatch = (String, String);

type Engines = Vec<(String, Box<dyn Engine>)>;

/// Engines as built, before a failed build is reported.
type Built = Vec<(String, Result<Box<dyn Engine>, CoreError>)>;

/// Set by the including package's `slow-tests` feature.
pub const SLOW: bool = cfg!(feature = "slow-tests");
const LEVELS: [OptLevel; 3] = [OptLevel::None, OptLevel::Basic, OptLevel::Full];

/// A value of type `ty` drawn from the random word `w`.
fn value(ty: SigType, w: u64) -> Value {
    match ty {
        SigType::Bool => Value::Bool(w & 1 == 1),
        SigType::Fixed(f) => Value::from_raw(ty, ((w as i64) >> (64 - f.wl())) as u64),
        SigType::Float => Value::Float((w >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0),
        SigType::Bits(_) => Value::from_raw(ty, w),
    }
}

/// The primary-input values of one stimulus cycle, all drawn from `word`.
fn inputs(sys: &System, word: u64) -> Vec<(String, Value)> {
    let mut rng = XorShift64::new(word);
    sys.primary_inputs
        .iter()
        .map(|p| (p.name.clone(), value(p.ty, rng.next_u64())))
        .collect()
}

fn boxed<E: Engine + 'static>(sim: Result<E, CoreError>) -> Result<Box<dyn Engine>, CoreError> {
    sim.map(|s| Box::new(s) as Box<dyn Engine>)
}

/// The first engine lane on which `get` differs from the interpreter,
/// reported `at` a cycle or at power-up.
fn compare<T: PartialEq + fmt::Debug>(
    engines: &Engines,
    at: &str,
    signal: &dyn fmt::Debug,
    get: impl Fn(&dyn Engine) -> Vec<T>,
) -> Result<(), Mismatch> {
    let want = get(engines[0].1.as_ref()).pop();
    for (name, sim) in &engines[1..] {
        for (read, got) in get(sim.as_ref()).into_iter().enumerate() {
            if Some(&got) != want.as_ref() {
                let what = format!("{at}, {signal:?} read {read}: {got:?}, interp {want:?}");
                return Err((name.clone(), what));
            }
        }
    }
    Ok(())
}

/// Every value the checker reads off `sys`: the primary outputs, the
/// nets, then the registers.
fn reads_of(sys: &System) -> Vec<Read<'_>> {
    let outputs = sys.primary_outputs.iter().map(|p| Read::Output(&p.name));
    let nets = sys.nets.iter().map(|n| Read::Net(&n.name));
    let mut reads: Vec<Read> = outputs.chain(nets).collect();
    for t in &sys.timed {
        reads.extend(t.comp.regs.iter().map(|r| Read::Reg(&t.name, &r.name)));
    }
    reads
}

/// The engines with a reset and snapshots, built from `mk`: the
/// interpreter, then compiled and batched x1/x64 at every level.
fn snapshot_engines(mk: &dyn Fn() -> System) -> Built {
    let mut built = vec![("interp".to_owned(), boxed(InterpSim::new(mk())))];
    for level in LEVELS {
        let compiled = boxed(CompiledSim::new_with(mk(), level));
        built.push((format!("compiled {level:?}"), compiled));
        for lanes in [1, 64] {
            let batched = boxed(BatchedSim::from_fn(lanes, || Ok(mk()), level));
            built.push((format!("batched x{lanes} {level:?}"), batched));
        }
    }
    built
}

/// Where snapshot `got` first differs from the interpreter's `want`:
/// the header field, or the section and word (a net by name).
fn snapshot_diff(sys: &System, want: &[u8], got: &[u8]) -> Option<String> {
    let decode = |b: &[u8]| SimSnapshot::from_bytes(b).map_err(|e| e.to_string());
    let (want, got) = match (decode(want), decode(got)) {
        (Ok(w), Ok(g)) => (w, g),
        (w, g) => return (w != g).then(|| format!("{:?}, interp {:?}", g.err(), w.err())),
    };
    if (got.design_hash(), got.cycle()) != (want.design_hash(), want.cycle()) {
        return Some(format!(
            "hash {:#x} at cycle {}, interp {:#x} at cycle {}",
            got.design_hash(),
            got.cycle(),
            want.design_hash(),
            want.cycle()
        ));
    }
    let blocks = (0..sys.untimed.len()).map(|u| format!("untimed.{u}"));
    let names = ["nets", "states", "regs", "held"].map(str::to_owned);
    for name in names.into_iter().chain(blocks) {
        let (w, g) = (want.section(&name), got.section(&name));
        if w == g {
            continue;
        }
        let (w, g) = (w.unwrap_or_default(), g.unwrap_or_default());
        let at = w
            .iter()
            .zip(g)
            .position(|(a, b)| a != b)
            .unwrap_or(w.len().min(g.len()));
        let what = match name.as_str() {
            "nets" if at < sys.nets.len() => format!("net `{}`", sys.nets[at].name),
            _ => format!("section `{name}` word {at}"),
        };
        return Some(format!("{what}: {:?}, interp {:?}", g.get(at), w.get(at)));
    }
    (want != got).then(|| "another section differs".to_owned())
}

/// Parks the run after cycle `cycle` (see the module docs): every
/// engine's snapshot must equal the interpreter's byte for byte; then a
/// fresh build of every tape engine restores the interpreter's
/// snapshot, a fresh interpreter the last engine's, and they join
/// `engines`, named `<engine> from <source>`.
fn park(mk: &dyn Fn() -> System, engines: &mut Engines, cycle: usize) -> Result<(), Mismatch> {
    let probe = mk();
    let Some(Ok(want)) = engines[0].1.snapshots().pop() else {
        return Err(("interp".to_owned(), format!("cycle {cycle}: no snapshot")));
    };
    let mut last = None;
    for (name, sim) in &engines[1..] {
        for (read, got) in sim.snapshots().into_iter().enumerate() {
            let fail = |what: String| {
                (
                    name.clone(),
                    format!("cycle {cycle}, snapshot read {read}: {what}"),
                )
            };
            let got = got.map_err(|e| fail(e.to_string()))?;
            if let Some(what) = snapshot_diff(&probe, &want, &got) {
                return Err(fail(what));
            }
            last = Some((name.clone(), got));
        }
    }
    let Some((source, tape)) = last else {
        return Ok(());
    };
    let decode = |b: &[u8]| SimSnapshot::from_bytes(b).expect("a snapshot decodes");
    let (from_interp, from_tape) = (decode(&want), decode(&tape));
    for (name, sim) in snapshot_engines(mk) {
        let (snap, name) = match name.as_str() {
            "interp" => (&from_tape, format!("interp from {source}")),
            _ => (&from_interp, format!("{name} from interp")),
        };
        let fail = |what: String| (name.clone(), format!("cycle {cycle}, {what}"));
        let mut sim = sim.map_err(|e| fail(format!("build: {e}")))?;
        sim.restore_engine(snap)
            .map_err(|e| fail(format!("restore: {e}")))?;
        engines.push((name, sim));
    }
    Ok(())
}

/// Builds the twelve engine configurations from `mk`, drives them with
/// one stimulus cycle per word and returns the first disagreement with
/// the interpreter: a failed build or step, a primary output before the
/// first step, a primary output, a net or a register each cycle, an FSM
/// state at the end, or at the parked cycle a snapshot or a restored
/// engine's read (see [`park`]). The gate engine synthesizes with
/// `gates`.
fn check(mk: &dyn Fn() -> System, stimuli: &[u64], gates: &SynthOptions) -> Result<(), Mismatch> {
    let mut built = snapshot_engines(mk);
    built.push(("rtl".to_owned(), boxed(RtlSystemSim::new(mk()))));
    built.push(("gates".to_owned(), boxed(GateSystemSim::new(mk(), gates))));
    let mut engines = Engines::new();
    for (name, sim) in built {
        let sim = sim.map_err(|e| (name.clone(), format!("build: {e}")))?;
        engines.push((name, sim));
    }

    let probe = mk();
    for p in &probe.primary_outputs {
        let r = Read::Output(&p.name);
        compare(&engines, "power-up", &r, |sim| sim.read(r))?;
    }
    let reads = reads_of(&probe);
    let parked = stimuli.first().map(|w| *w as usize % stimuli.len());
    for (cycle, &word) in stimuli.iter().enumerate() {
        let at = format!("cycle {cycle}");
        let values = inputs(&probe, word);
        for (name, sim) in &mut engines {
            for (input, v) in &values {
                sim.set_input(input, *v)
                    .map_err(|e| (name.clone(), format!("cycle {cycle}, {input}: {e}")))?;
            }
            sim.step()
                .map_err(|e| (name.clone(), format!("cycle {cycle}, step: {e}")))?;
        }
        for &r in &reads {
            compare(&engines, &at, &r, |sim| sim.read(r))?;
        }
        if parked == Some(cycle) {
            park(mk, &mut engines, cycle)?;
        }
    }
    let at = format!("cycle {}", stimuli.len());
    for t in probe.timed.iter().filter(|t| t.comp.fsm.is_some()) {
        compare(&engines, &at, &t.name, |sim| sim.state(&t.name))?;
    }
    Ok(())
}

/// What one run of an engine from power-up shows.
#[derive(PartialEq)]
struct Run {
    /// Each lane read's snapshot before the first step.
    start: Vec<Result<Vec<u8>, CoreError>>,
    /// Every read on every lane read, per cycle.
    seen: Vec<Vec<Result<Value, CoreError>>>,
    /// Each lane read's snapshot after the last step.
    end: Vec<Result<Vec<u8>, CoreError>>,
}

/// Runs `sim` from where it stands over `stimuli`, recording every read.
fn record(sim: &mut dyn Engine, probe: &System, stimuli: &[u64]) -> Result<Run, String> {
    let reads = reads_of(probe);
    let start = sim.snapshots();
    let mut seen = Vec::with_capacity(stimuli.len());
    for (cycle, &word) in stimuli.iter().enumerate() {
        for (input, v) in inputs(probe, word) {
            sim.set_input(&input, v)
                .map_err(|e| format!("cycle {cycle}, {input}: {e}"))?;
        }
        sim.step()
            .map_err(|e| format!("cycle {cycle}, step: {e}"))?;
        seen.push(reads.iter().flat_map(|&r| sim.read(r)).collect());
    }
    Ok(Run {
        start,
        seen,
        end: sim.snapshots(),
    })
}

/// Reset-then-replay equals a fresh build (see the module docs): the
/// interpreter, and compiled and batched x1/x64 at every level, each run
/// from its build, reset and run again; returns the first engine whose
/// two runs differ, named `<engine> reset`.
fn check_reset(mk: &dyn Fn() -> System, stimuli: &[u64]) -> Result<(), Mismatch> {
    let probe = mk();
    for (name, sim) in snapshot_engines(mk) {
        let name = format!("{name} reset");
        let fail = |what: String| (name.clone(), what);
        let mut sim = sim.map_err(|e| fail(format!("build: {e}")))?;
        let fresh = record(sim.as_mut(), &probe, stimuli).map_err(fail)?;
        sim.reset_engine();
        let replay =
            record(sim.as_mut(), &probe, stimuli).map_err(|e| fail(format!("replay {e}")))?;
        let cycle = fresh
            .seen
            .iter()
            .zip(&replay.seen)
            .position(|(a, b)| a != b);
        let what = if fresh.start != replay.start {
            "snapshot at power-up differs".to_owned()
        } else if let Some(c) = cycle {
            format!("cycle {c}: a read differs from the fresh run")
        } else if fresh.end != replay.end {
            "final snapshot differs".to_owned()
        } else {
            continue;
        };
        return Err(fail(what));
    }
    Ok(())
}

/// [`check`] then [`check_reset`], with a panic anywhere reported as
/// engine `panic`.
fn verdict(mk: &dyn Fn() -> System, stimuli: &[u64], gates: &SynthOptions) -> Result<(), Mismatch> {
    let both = || check(mk, stimuli, gates).and_then(|()| check_reset(mk, stimuli));
    catch_unwind(AssertUnwindSafe(both)).unwrap_or_else(|p| {
        let text = p.downcast_ref::<String>().cloned().unwrap_or_default();
        Err(("panic".to_owned(), text))
    })
}

/// One expression step. Operands index the component's 8-bit pool or
/// its `Fixed(10,4)` pool, modulo the pool's length; the result joins
/// the pool of its type.
#[derive(Debug, Clone)]
enum Step {
    Add(u8, u8),
    Sub(u8, u8),
    Mul(u8, u8),
    And(u8, u8),
    Or(u8, u8),
    Xor(u8, u8),
    Not(u8),
    Shl(u8, u8),
    Shr(u8, u8),
    Slice(u8, u8),
    MuxOnSel(u8, u8),
    LtMux(u8, u8, u8),
    Const(u8),
    FixAdd(u8, u8, Rounding, Overflow),
    FixMul(u8, u8, Rounding, Overflow),
}

/// What the FSM's transitions test: a register compare (`r0 < k`,
/// `facc < k / 16`), the primary input `sel`, or an input that is held
/// when another component drives it (`fb < k`, `fx >= k / 16`).
#[derive(Debug, Clone, Copy)]
enum Guard {
    Reg(u8),
    Facc(i8),
    Sel,
    Fb(u8),
    Fx(i8),
}

/// One component: inputs `x`, `sel`, `fx`, `fb`; outputs `o`, `fo` and
/// `ro` (a register read); registers `r0`, `r1` and `facc`; SFGs `a` and
/// `b` under a two-state FSM.
#[derive(Debug, Clone)]
struct Comp {
    steps: Vec<Step>,
    /// Pool picks: `o` in `a` and in `b`, `r0` in `a` and in `b`, `r1`,
    /// `fo` and `facc`.
    picks: [u8; 7],
    guard: Guard,
    /// State `s1` runs `a` forever once entered.
    lock: bool,
    /// SFG `b` leaves `o` undriven, so `o` holds its value.
    hold: bool,
}

/// A RAM or ROM that generated logic addresses: a port component reads
/// one component's `o` and `fo` and drives the memory's address (and a
/// RAM's write enable and write data) from them, and the read word is
/// the primary output `m`.
#[derive(Debug, Clone)]
struct Mem {
    rom: bool,
    /// 1–6.
    addr_bits: u32,
    word: SigType,
    /// How a fixed-point `wdata` is cast from `fo`.
    cast: (Rounding, Overflow),
    /// One draw a word: a ROM's contents, or a RAM's preloads where
    /// `Some`.
    contents: Vec<Option<u64>>,
    /// The component whose outputs drive the port.
    src: u8,
    /// The low bit of `o` the address is sliced from, the bit of `o`
    /// that enables a write, and the low bit of a `Bits` or `Bool`
    /// `wdata`.
    picks: [u8; 3],
    /// The block reports its memory spec but declares an address one
    /// bit wider ([`Misshaped`]): not the memory shape, so the tape
    /// fires it as a generic block.
    misshaped: bool,
}

/// One generated case, a pure function of its seed.
#[derive(Debug, Clone)]
pub struct Recipe {
    /// Chained: each component's `fb` and `fx` read the previous one's
    /// `o` and `fo`.
    comps: Vec<Comp>,
    /// An untimed `FnBlock` computing `fb * k0 + k1` in front of the
    /// last component's `fb`.
    block: Option<(u8, u8)>,
    /// The last component's `ro` drives the first one's `fb`.
    feedback: bool,
    /// A memory ([`memory_recipe`]).
    memory: Option<Mem>,
    /// One word per cycle; the primary-input values are drawn from it.
    stimuli: Vec<u64>,
    /// Which of the three [`synth_options`] sets the gate engine uses.
    synth: u64,
}

fn f10() -> Format {
    Format::new(10, 4).expect("static format")
}

fn random_step(rng: &mut XorShift64) -> Step {
    let [a, b, c] = [(); 3].map(|_| rng.next_u64() as u8);
    use Rounding::*;
    let rounding = [Truncate, Nearest, NearestEven, Ceil, TowardZero][c as usize % 5];
    let overflow = [Overflow::Saturate, Overflow::Wrap][c as usize / 5 % 2];
    match rng.below(15) {
        0 => Step::Add(a, b),
        1 => Step::Sub(a, b),
        2 => Step::Mul(a, b),
        3 => Step::And(a, b),
        4 => Step::Or(a, b),
        5 => Step::Xor(a, b),
        6 => Step::Not(a),
        7 => Step::Shl(a, b % 8),
        8 => Step::Shr(a, b % 8),
        9 => Step::Slice(a, b % 7),
        10 => Step::MuxOnSel(a, b),
        11 => Step::LtMux(a, b, c),
        12 => Step::Const(a),
        13 => Step::FixAdd(a, b, rounding, overflow),
        _ => Step::FixMul(a, b, rounding, overflow),
    }
}

fn random_comp(rng: &mut XorShift64) -> Comp {
    let k = rng.next_u64() as u8;
    Comp {
        steps: (0..1 + rng.index(20)).map(|_| random_step(rng)).collect(),
        picks: [(); 7].map(|_| rng.next_u64() as u8),
        guard: match rng.below(5) {
            0 => Guard::Reg(k),
            1 => Guard::Facc(k as i8),
            2 => Guard::Sel,
            3 => Guard::Fb(k),
            _ => Guard::Fx(k as i8),
        },
        lock: rng.next_bool(),
        hold: rng.below(4) == 0,
    }
}

/// A memory of random kind, depth, word type and contents.
fn random_mem(seed: u64) -> Mem {
    let mut rng = XorShift64::stream(0x3e3_0e7, seed);
    let rom = rng.next_bool();
    let addr_bits = 1 + rng.below(6) as u32;
    let word = match rng.below(3) {
        0 => SigType::Bool,
        1 => SigType::Bits(1 + rng.below(8) as u32),
        _ => {
            let wl = 1 + rng.below(12) as u32;
            SigType::Fixed(Format::new(wl, rng.below(u64::from(wl) + 1) as u32).expect("format"))
        }
    };
    use Rounding::*;
    let cast = (
        [Truncate, Nearest, NearestEven, Ceil, TowardZero][rng.index(5)],
        [Overflow::Saturate, Overflow::Wrap][rng.index(2)],
    );
    let contents = (0..1usize << addr_bits)
        .map(|_| {
            let w = rng.next_u64();
            (rom || rng.next_bool()).then_some(w)
        })
        .collect();
    Mem {
        rom,
        addr_bits,
        word,
        cast,
        contents,
        src: rng.next_u64() as u8,
        picks: [(); 3].map(|_| rng.next_u64() as u8),
        misshaped: rng.below(5) == 0,
    }
}

/// The generated case of `seed`, with no memory.
pub fn recipe(seed: u64) -> Recipe {
    let mut rng = XorShift64::stream(0xe9_a9ee, seed);
    let comps: Vec<Comp> = (0..1 + rng.index(3))
        .map(|_| random_comp(&mut rng))
        .collect();
    let block = rng
        .next_bool()
        .then(|| (rng.next_u64() as u8, rng.next_u64() as u8));
    Recipe {
        feedback: comps.len() > 1 && rng.next_bool(),
        comps,
        block,
        memory: None,
        stimuli: (0..8 + rng.index(40)).map(|_| rng.next_u64()).collect(),
        synth: seed % 3,
    }
}

/// The recipe of `seed` with a memory added, drawn from its own stream.
pub fn memory_recipe(seed: u64) -> Recipe {
    Recipe {
        memory: Some(random_mem(seed)),
        ..recipe(seed)
    }
}

/// The three synthesis option sets the gate engine rotates through.
fn synth_options(set: u64) -> SynthOptions {
    match set {
        0 => SynthOptions::default(),
        1 => SynthOptions {
            share_operators: false,
            optimize: false,
            minimize_controller: false,
            minimize_states: false,
            encoding: Encoding::OneHot,
            adder_style: AdderStyle::CarrySelect { block: 3 },
        },
        _ => SynthOptions {
            minimize_states: true,
            ..SynthOptions::default()
        },
    }
}

fn component(r: &Comp) -> Component {
    let f10 = f10();
    let c = Component::build("rand");
    let x = c.input("x", SigType::Bits(8)).expect("input");
    let sel = c.input("sel", SigType::Bool).expect("input");
    let fx = c.input("fx", SigType::Fixed(f10)).expect("input");
    let fb = c.input("fb", SigType::Bits(8)).expect("input");
    let o = c.output("o", SigType::Bits(8)).expect("output");
    let fo = c.output("fo", SigType::Fixed(f10)).expect("output");
    let ro = c.output("ro", SigType::Bits(8)).expect("output");
    let r0 = c.reg("r0", SigType::Bits(8)).expect("reg");
    let r1 = c.reg("r1", SigType::Bits(8)).expect("reg");
    let facc = c.reg("facc", SigType::Fixed(f10)).expect("reg");

    // The constants make the tape optimizer's identities, CSE and DCE fire.
    let mut bits: Vec<Sig> = vec![c.read(x), c.read(fb), c.q(r0), c.q(r1)];
    bits.extend([0, 1, 8, 255].map(|k| c.const_bits(8, k)));
    let mut fixed: Vec<Sig> = vec![c.read(fx), c.q(facc), c.const_fixed(0.75, f10)];
    let sel_s = c.read(sel);
    for step in &r.steps {
        let b = |i: u8| bits[i as usize % bits.len()].clone();
        let f = |i: u8| fixed[i as usize % fixed.len()].clone();
        let s = match *step {
            Step::Add(p, q) => b(p) + b(q),
            Step::Sub(p, q) => b(p) - b(q),
            Step::Mul(p, q) => b(p) * b(q),
            Step::And(p, q) => b(p) & b(q),
            Step::Or(p, q) => b(p) | b(q),
            Step::Xor(p, q) => b(p) ^ b(q),
            Step::Not(p) => !b(p),
            Step::Shl(p, n) => b(p).shl(n as u32),
            Step::Shr(p, n) => b(p).shr(n as u32),
            Step::Slice(p, lo) => b(p).slice(lo as u32, 8 - lo as u32).to_bits(8),
            Step::MuxOnSel(p, q) => sel_s.mux(&b(p), &b(q)),
            Step::LtMux(p, q, s) => b(p).lt(&b(q)).mux(&b(s), &b(p)),
            Step::Const(k) => c.const_bits(8, k as u64),
            Step::FixAdd(p, q, rnd, ovf) => (f(p) + f(q)).to_fixed(f10, rnd, ovf),
            Step::FixMul(p, q, rnd, ovf) => (f(p) * f(q)).to_fixed(f10, rnd, ovf),
        };
        match s.sig_type() {
            SigType::Fixed(_) => fixed.push(s),
            _ => bits.push(s),
        }
    }
    let b = |i: u8| bits[i as usize % bits.len()].clone();
    let f = |i: u8| fixed[i as usize % fixed.len()].clone();
    let p = r.picks;

    let sa = c.sfg("a").expect("sfg");
    sa.drive(o, &b(p[0])).expect("drive");
    sa.next(r0, &b(p[2])).expect("next");
    sa.next(r1, &b(p[4])).expect("next");
    sa.drive(fo, &f(p[5])).expect("drive");
    sa.next(facc, &f(p[6])).expect("next");
    sa.drive(ro, &c.q(r1)).expect("drive");
    let sb = c.sfg("b").expect("sfg");
    if !r.hold {
        sb.drive(o, &b(p[1])).expect("drive");
    }
    sb.next(r0, &b(p[3])).expect("next");
    sb.drive(fo, &c.q(facc)).expect("drive");
    sb.drive(ro, &c.q(r1)).expect("drive");

    let fixed_k = |k: i8| c.const_fixed(k as f64 / 16.0, f10);
    let guard = match r.guard {
        Guard::Reg(k) => c.q(r0).lt(&c.const_bits(8, k as u64)),
        Guard::Facc(k) => c.q(facc).lt(&fixed_k(k)),
        Guard::Sel => sel_s.clone(),
        Guard::Fb(k) => c.read(fb).lt(&c.const_bits(8, k as u64)),
        Guard::Fx(k) => c.read(fx).ge(&fixed_k(k)),
    };
    let fsm = c.fsm().expect("fsm");
    let s0 = fsm.initial("s0").expect("state");
    let s1 = fsm.state("s1").expect("state");
    fsm.from(s0).when(&guard).run(sa.id()).to(s1).expect("t");
    fsm.from(s0).always().run(sb.id()).to(s0).expect("t");
    if !r.lock {
        fsm.from(s1).unless(&guard).run(sb.id()).to(s0).expect("t");
    }
    fsm.from(s1).always().run(sa.id()).to(s1).expect("t");
    c.finish().expect("finish")
}

fn system(r: &Recipe) -> System {
    let mut sb = System::build("rand");
    sb.input("x", SigType::Bits(8)).expect("pi");
    sb.input("sel", SigType::Bool).expect("pi");
    sb.input("fx", SigType::Fixed(f10())).expect("pi");
    sb.input("fb", SigType::Bits(8)).expect("pi");
    let ids: Vec<InstanceId> = (r.comps.iter().enumerate())
        .map(|(i, c)| sb.add_component(&format!("u{i}"), component(c)))
        .collect::<Result<_, _>>()
        .expect("add");
    let last = ids.len() - 1;
    let prev = |i: usize, port| (i > 0).then(|| (ids[i - 1], port));
    for (i, &u) in ids.iter().enumerate() {
        let mut fb = match i {
            0 if r.feedback => Some((ids[last], "ro")),
            _ => prev(i, "o"),
        };
        if let (Some((k0, k1)), true) = (r.block, i == last) {
            let port = |name: &str| PortDecl {
                name: name.into(),
                ty: SigType::Bits(8),
            };
            let fire = move |inp: &[Value], out: &mut [Value]| {
                let v = inp[0].as_bits().expect("bits");
                out[0] = Value::bits(8, (v * k0 as u64 + k1 as u64) & 0xff);
            };
            let block = FnBlock::new("blk", vec![port("fb")], vec![port("y")], fire);
            let id = sb.add_block(Box::new(block)).expect("block");
            connect(&mut sb, fb, id, "fb");
            fb = Some((id, "y"));
        }
        connect(&mut sb, None, u, "x");
        connect(&mut sb, None, u, "sel");
        connect(&mut sb, prev(i, "fo"), u, "fx");
        connect(&mut sb, fb, u, "fb");
        for port in ["o", "fo", "ro"] {
            sb.output(&format!("{port}{i}"), u, port).expect("po");
        }
    }
    if let Some(m) = &r.memory {
        let src = ids[m.src as usize % ids.len()];
        add_memory(&mut sb, m, src);
    }
    sb.finish().expect("system")
}

/// Adds `m` and its port component, driven by `src`'s `o` and `fo`.
fn add_memory(sb: &mut SystemBuilder, m: &Mem, src: InstanceId) {
    let block: Box<dyn UntimedBlock> = if m.rom {
        let words = m.contents.iter().map(|w| value(m.word, w.unwrap_or(0)));
        Box::new(Rom::new("mem", m.word, words.collect()))
    } else {
        let mut ram = Ram::new("mem", m.addr_bits, m.word);
        for (a, w) in m.contents.iter().enumerate() {
            if let Some(w) = w {
                ram.preload(a, value(m.word, *w));
            }
        }
        Box::new(ram)
    };
    let block = if m.misshaped {
        Box::new(Misshaped(block))
    } else {
        block
    };
    let ports = block.input_ports();
    let read = block.output_ports()[0].name.clone();

    let c = Component::build("mport");
    let o = c.read(c.input("o", SigType::Bits(8)).expect("input"));
    let fo = c.read(c.input("fo", SigType::Fixed(f10())).expect("input"));
    let sfg = c.sfg("p").expect("sfg");
    let slice = |pick: u8, w: u32| o.slice(u32::from(pick) % (9 - w), w);
    for p in &ports {
        let sig = match (p.name.as_str(), p.ty) {
            ("addr", SigType::Bits(w)) => slice(m.picks[0], w),
            ("we", _) => o.bit(u32::from(m.picks[1]) % 8),
            (_, SigType::Bits(w)) => slice(m.picks[2], w),
            (_, SigType::Fixed(f)) => fo.to_fixed(f, m.cast.0, m.cast.1),
            _ => o.bit(u32::from(m.picks[2]) % 8),
        };
        let out = c.output(&p.name, p.ty).expect("output");
        sfg.drive(out, &sig).expect("drive");
    }
    let port = sb
        .add_component("mport", c.finish().expect("finish"))
        .expect("add");
    let mem = sb.add_block(block).expect("block");
    sb.connect(src, "o", port, "o").expect("connect");
    sb.connect(src, "fo", port, "fo").expect("connect");
    for p in &ports {
        sb.connect(port, &p.name, mem, &p.name).expect("connect");
    }
    sb.output("m", mem, &read).expect("po");
}

/// A memory that reports its spec but declares an address one bit wider
/// than the spec's: not the memory shape, so the tape fires it through
/// the generic `Fire`. It accesses the word at the address's low bits.
struct Misshaped(Box<dyn UntimedBlock>);

impl UntimedBlock for Misshaped {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn input_ports(&self) -> Vec<PortDecl> {
        let mut ports = self.0.input_ports();
        if let SigType::Bits(a) = ports[0].ty {
            ports[0].ty = SigType::Bits(a + 1);
        }
        ports
    }

    fn output_ports(&self) -> Vec<PortDecl> {
        self.0.output_ports()
    }

    fn fire(&mut self, inputs: &[Value], outputs: &mut [Value]) {
        let a = self.0.memory_spec().map_or(1, |s| s.addr_bits);
        let mut inputs = inputs.to_vec();
        inputs[0] = Value::bits(a, inputs[0].as_bits().unwrap_or(0));
        self.0.fire(&inputs, outputs);
    }

    fn boxed_clone(&self) -> Box<dyn UntimedBlock> {
        Box::new(Misshaped(self.0.boxed_clone()))
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn memory_spec(&self) -> Option<MemorySpec<'_>> {
        self.0.memory_spec()
    }

    fn snapshot_state(&self) -> Vec<u64> {
        self.0.snapshot_state()
    }

    fn restore_state(&mut self, words: &[u64]) -> bool {
        self.0.restore_state(words)
    }
}

/// Drives `to.port` from `from`, or from the primary input named `port`.
fn connect(sb: &mut SystemBuilder, from: Option<(InstanceId, &str)>, to: InstanceId, port: &str) {
    match from {
        Some((from, out)) => sb.connect(from, out, to, port),
        None => sb.connect_input(port, to, port),
    }
    .expect("connect");
}

fn verdict_of(r: &Recipe) -> Result<(), Mismatch> {
    verdict(&|| system(r), &r.stimuli, &synth_options(r.synth))
}

/// Every recipe one drop smaller than `r`.
fn smaller(r: &Recipe) -> Vec<Recipe> {
    let mut out = Vec::new();
    let mut push = |edit: &dyn Fn(&mut Recipe)| {
        let mut s = r.clone();
        edit(&mut s);
        out.push(s);
    };
    for i in 0..r.comps.len() {
        if r.comps.len() > 1 {
            push(&|s| {
                s.comps.remove(i);
                s.feedback &= s.comps.len() > 1;
            });
        }
        for j in 0..r.comps[i].steps.len() {
            push(&|s| _ = s.comps[i].steps.remove(j));
        }
    }
    if r.block.is_some() {
        push(&|s| s.block = None);
    }
    if r.memory.is_some() {
        push(&|s| s.memory = None);
    }
    if r.feedback {
        push(&|s| s.feedback = false);
    }
    for i in 0..r.stimuli.len() {
        push(&|s| _ = s.stimuli.remove(i));
    }
    out
}

/// Checks `make(seed)`. On a mismatch, tries each one-drop-smaller
/// recipe in turn, keeping a drop while the same engine still
/// disagrees, and reports the seed and the shrunk recipe.
fn check_seed(seed: u64, make: fn(u64) -> Recipe) -> Result<(), String> {
    let mut r = make(seed);
    let Err(mut m) = verdict_of(&r) else {
        return Ok(());
    };
    let mut i = 0;
    while let Some(s) = smaller(&r).into_iter().nth(i) {
        match verdict_of(&s) {
            Err(m2) if m2.0 == m.0 => (r, m) = (s, m2),
            _ => i += 1,
        }
    }
    Err(format!(
        "seed {seed}: `{}` {}\nshrunk recipe: {r:#?}",
        m.0, m.1
    ))
}

/// Checks the generated case of every seed in `seeds` on every engine,
/// sharded over the deterministic worker pool. Panics with the first
/// seed that disagrees and its shrunk recipe.
pub fn check_generated(seeds: impl IntoIterator<Item = u64>) {
    check_seeds(seeds, recipe);
}

/// [`check_generated`] with a memory added to each case.
pub fn check_generated_memories(seeds: impl IntoIterator<Item = u64>) {
    check_seeds(seeds, memory_recipe);
}

fn check_seeds(seeds: impl IntoIterator<Item = u64>, make: fn(u64) -> Recipe) {
    let seeds: Vec<u64> = seeds.into_iter().collect();
    let result = map_indexed(&ParConfig::available(), &seeds, |_, &seed| {
        check_seed(seed, make)
    });
    if let Err(e) = result {
        panic!("{e}");
    }
}

/// A named design builder.
pub type Design = (&'static str, fn() -> System);

/// Checks each of `designs` on every engine with the default synthesis
/// options. Design `i` is driven by `cycles` stimulus words drawn from
/// `seed + i` for each of `seeds` in turn, on one build of the engines.
/// Panics naming the first design that disagrees.
pub fn check_designs(designs: &[Design], seeds: &[u64], cycles: usize) {
    let result = map_indexed(&ParConfig::available(), designs, |i, (name, mk)| {
        let mut stimuli = Vec::new();
        for seed in seeds {
            let mut rng = XorShift64::new(seed.wrapping_add(i as u64));
            stimuli.extend((0..cycles).map(|_| rng.next_u64()));
        }
        let gates = &SynthOptions::default();
        verdict(mk, &stimuli, gates).map_err(|m| format!("{name}: `{}` {}", m.0, m.1))
    });
    if let Err(e) = result {
        panic!("{e}");
    }
}

/// At least this many fault events a campaign: more than one 64-lane
/// chunk, so the lane driver runs a full batch and a short last one.
const FAULT_EVENTS: usize = 71;

/// The fault events of one campaign over `sys`, a pure function of
/// `seed`: a flip or a 1–8-cycle stuck-at per draw, on a random bit
/// (taken modulo the site's width) at a random cycle of `0..cycles`, so
/// some windows run past the last cycle. Draw `i` targets site
/// `i mod sites` — every site at least once — and one draw in the first
/// 64 targets a net no system has.
fn fault_events(sys: &System, cycles: u64, seed: u64) -> Vec<FaultEvent> {
    let sites = FaultPlan::sites(sys);
    let mut n = FAULT_EVENTS.max(sites.len() + 1);
    n += usize::from(n.is_multiple_of(64));
    let mut rng = XorShift64::stream(0xfa_017, seed);
    let unknown = rng.index(n.min(64));
    (0..n)
        .map(|i| {
            let site = match i {
                _ if i == unknown => FaultSite::net("no_such_net"),
                _ => sites[i % sites.len()].clone(),
            };
            let bit = rng.below(64) as u32;
            let cycle = rng.below(cycles);
            if rng.chance(0.3) {
                FaultEvent::stuck_at(site, bit, rng.next_bool(), cycle, 1 + rng.below(8))
            } else {
                FaultEvent::flip(site, bit, cycle)
            }
        })
        .collect()
}

/// The first event two campaign reports classify differently.
fn same_outcomes(a: &CampaignReport, b: &CampaignReport) -> Result<(), String> {
    if a.outcomes.len() != b.outcomes.len() {
        return Err(format!(
            "{} outcomes against {}",
            b.outcomes.len(),
            a.outcomes.len()
        ));
    }
    match a.outcomes.iter().zip(&b.outcomes).position(|(x, y)| x != y) {
        None => Ok(()),
        Some(i) => Err(format!(
            "event {i} ({:?}): {:?}, reference {:?}",
            a.outcomes[i].0, b.outcomes[i].1, a.outcomes[i].1
        )),
    }
}

/// Fault campaigns agree on every driver: over [`fault_events`] of
/// `mk`'s system, driven by one stimulus word a cycle, the reference
/// driver over `FaultySim<InterpSim>` against `FaultySim<CompiledSim>`
/// at `None`, that against `FaultySim<CompiledSim>` at `Full`, and the
/// lane-batched driver at 1 and 64 lanes on 2 threads against
/// `FaultySim<CompiledSim>` at the tape's level, outcome by outcome.
/// Returns the first campaign that fails or disagrees.
fn check_faults(
    mk: &(dyn Fn() -> System + Sync),
    stimuli: &[u64],
    seed: u64,
) -> Result<(), Mismatch> {
    let probe = mk();
    let rows: Vec<Vec<(String, Value)>> = stimuli.iter().map(|&w| inputs(&probe, w)).collect();
    let stimulus = |sim: &mut dyn Simulator, cycle: u64| {
        for (input, v) in &rows[cycle as usize] {
            sim.set_input(input, *v)?;
        }
        Ok(())
    };
    let cycles = stimuli.len() as u64;
    let events = fault_events(&probe, cycles, seed);
    let pool = ParConfig::new(2);
    let campaign = |name: String, report: Result<CampaignReport, CoreError>| {
        report.map_err(|e| (name, e.to_string()))
    };
    let mut reference = campaign(
        "interp".to_owned(),
        run_campaign_par(&pool, || InterpSim::new(mk()), stimulus, cycles, &events),
    )?;
    for level in [OptLevel::None, OptLevel::Full] {
        let name = format!("compiled {level:?}");
        let tape = CompiledTape::compile(&probe, level);
        let tape = tape.map_err(|e| (name.clone(), e.to_string()))?;
        let scalar = || CompiledSim::from_tape(mk(), &tape);
        let compiled = campaign(
            name.clone(),
            run_campaign_par(&pool, scalar, stimulus, cycles, &events),
        )?;
        same_outcomes(&reference, &compiled).map_err(|e| (name, e))?;
        for lanes in [1, 64] {
            let name = format!("lanes x{lanes} {level:?}");
            let build = || Ok(mk());
            let batched = campaign(
                name.clone(),
                run_campaign_cached_par(&pool, build, &tape, stimulus, cycles, &events, lanes),
            )?;
            same_outcomes(&compiled, &batched).map_err(|e| (name, e))?;
        }
        reference = compiled;
    }
    Ok(())
}

/// [`check_faults`] on the case `make` generates for every seed in
/// `seeds` ([`recipe`], or [`memory_recipe`] for a memory in each),
/// sharded over the deterministic worker pool; the seed also draws the
/// events. Panics with the first seed that disagrees and its recipe.
pub fn check_generated_faults(seeds: impl IntoIterator<Item = u64>, make: fn(u64) -> Recipe) {
    let seeds: Vec<u64> = seeds.into_iter().collect();
    let result = map_indexed(&ParConfig::available(), &seeds, |_, &seed| {
        let r = make(seed);
        check_faults(&|| system(&r), &r.stimuli, seed)
            .map_err(|m| format!("seed {seed}: `{}` {}\nrecipe: {r:#?}", m.0, m.1))
    });
    if let Err(e) = result {
        panic!("{e}");
    }
}

/// [`check_faults`] on each of `designs`, driven by `cycles` stimulus
/// words drawn from `seed`. Panics naming the first design that
/// disagrees.
pub fn check_design_faults(designs: &[Design], seed: u64, cycles: usize) {
    let result = map_indexed(&ParConfig::available(), designs, |_, (name, mk)| {
        let mut rng = XorShift64::new(seed);
        let stimuli: Vec<u64> = (0..cycles).map(|_| rng.next_u64()).collect();
        check_faults(mk, &stimuli, seed).map_err(|m| format!("{name}: `{}` {}", m.0, m.1))
    });
    if let Err(e) = result {
        panic!("{e}");
    }
}
