//! Differential suite for the compiled-tape cache contract: a simulator
//! instantiated from a cached [`CompiledTape`] must be bit-identical to
//! one compiled from scratch — scalar and lane-batched, and in
//! snapshots — because the persistent simulation service serves every
//! warm request this way. The cached-tape fault-campaign driver is
//! checked against the reference campaign in the batch suite.

use ocapi::{
    BatchedSim, CompiledSim, CompiledTape, Component, CoreError, OptLevel, SigType, Simulator,
    System, Value,
};

/// The FSM accumulator from the batch suite: control flow diverges per
/// lane when `stop` pulses differ, so cached-tape lane state is really
/// exercised.
fn acc_system() -> System {
    let c = Component::build("acc");
    let x = c.input("x", SigType::Bits(8)).unwrap();
    let stop = c.input("stop", SigType::Bool).unwrap();
    let sum_out = c.output("sum", SigType::Bits(8)).unwrap();
    let acc = c.reg("acc", SigType::Bits(8)).unwrap();

    let add = c.sfg("add").unwrap();
    let q = c.q(acc);
    let next = &q + &c.read(x);
    add.drive(sum_out, &q).unwrap();
    add.next(acc, &next).unwrap();

    let hold = c.sfg("hold").unwrap();
    hold.drive(sum_out, &c.q(acc)).unwrap();

    let stop_s = c.read(stop);
    let f = c.fsm().unwrap();
    let run = f.initial("run").unwrap();
    let frozen = f.state("frozen").unwrap();
    f.from(run).when(&stop_s).run(hold.id()).to(frozen).unwrap();
    f.from(run).always().run(add.id()).to(run).unwrap();
    f.from(frozen).always().run(hold.id()).to(frozen).unwrap();
    let comp = c.finish().unwrap();

    let mut sb = System::build("acc_sys");
    let u = sb.add_component("u0", comp).unwrap();
    sb.input("x", SigType::Bits(8)).unwrap();
    sb.input("stop", SigType::Bool).unwrap();
    sb.connect_input("x", u, "x").unwrap();
    sb.connect_input("stop", u, "stop").unwrap();
    sb.output("sum", u, "sum").unwrap();
    sb.finish().unwrap()
}

fn stimulus(i: u64) -> (u64, bool) {
    ((i * 37 + 11) % 256, i == 5)
}

fn drive(sim: &mut dyn Simulator, i: u64) -> Value {
    let (x, stop) = stimulus(i);
    sim.set_input("x", Value::bits(8, x)).unwrap();
    sim.set_input("stop", Value::Bool(stop)).unwrap();
    sim.step().unwrap();
    sim.output("sum").unwrap()
}

/// A tape-instantiated scalar simulator matches a from-scratch compile
/// cycle for cycle and shares its snapshot key space, at every
/// optimization level.
#[test]
fn scalar_from_tape_matches_fresh_compile() {
    for level in [OptLevel::None, OptLevel::Basic, OptLevel::Full] {
        let tape = CompiledTape::compile(&acc_system(), level).unwrap();
        let mut fresh = CompiledSim::new_with(acc_system(), level).unwrap();
        let mut cached = CompiledSim::from_tape(acc_system(), &tape).unwrap();
        assert_eq!(fresh.design_hash(), cached.design_hash());
        assert_eq!(fresh.design_hash(), tape.program_hash());
        for i in 0..20 {
            assert_eq!(
                drive(&mut fresh, i),
                drive(&mut cached, i),
                "level={level:?} diverged at cycle {i}"
            );
        }
    }
}

/// A mid-run snapshot of a from-scratch simulator restores into a
/// tape-instantiated one and continues identically — warm-session
/// park/resume relies on exactly this interchange.
#[test]
fn snapshots_interchange_between_fresh_and_cached() {
    let tape = CompiledTape::compile(&acc_system(), OptLevel::Full).unwrap();
    let mut fresh = CompiledSim::new_with(acc_system(), OptLevel::Full).unwrap();
    for i in 0..7 {
        drive(&mut fresh, i);
    }
    let snap = fresh.snapshot();
    let mut resumed = CompiledSim::from_tape(acc_system(), &tape).unwrap();
    resumed.restore(&snap).unwrap();
    for i in 7..20 {
        assert_eq!(
            drive(&mut fresh, i),
            drive(&mut resumed, i),
            "diverged at cycle {i} after restore"
        );
    }
}

/// Lane-batched instantiation from one shared tape matches per-batch
/// compilation for every lane count.
#[test]
fn batched_from_tape_matches_fresh_compile() {
    let tape = CompiledTape::compile(&acc_system(), OptLevel::Full).unwrap();
    for lanes in [1usize, 3, 8] {
        let systems = || (0..lanes).map(|_| acc_system()).collect::<Vec<_>>();
        let mut fresh = BatchedSim::new_with(systems(), OptLevel::Full).unwrap();
        let mut cached = BatchedSim::from_tape(systems(), &tape).unwrap();
        for i in 0..20 {
            for lane in 0..lanes {
                // Stagger `stop` by lane so control flow differs across
                // the batch.
                let (x, _) = stimulus(i);
                let stop = i == 3 + lane as u64;
                for sim in [&mut fresh, &mut cached] {
                    sim.set_input_lane(lane, "x", Value::bits(8, x)).unwrap();
                    sim.set_input_lane(lane, "stop", Value::Bool(stop)).unwrap();
                }
            }
            fresh.step().unwrap();
            cached.step().unwrap();
            for lane in 0..lanes {
                assert_eq!(
                    fresh.output_lane(lane, "sum").unwrap(),
                    cached.output_lane(lane, "sum").unwrap(),
                    "lanes={lanes} lane={lane} diverged at cycle {i}"
                );
            }
        }
    }
}

/// Instantiating a tape with a structurally different system is a typed
/// error carrying both hashes, never a silently wrong simulation.
#[test]
fn from_tape_rejects_mismatched_systems() {
    let tape = CompiledTape::compile(&acc_system(), OptLevel::Full).unwrap();
    let mut sb = System::build("other");
    let c = Component::build("nop");
    let i = c.input("i", SigType::Bits(8)).unwrap();
    let o = c.output("o", SigType::Bits(8)).unwrap();
    let s = c.sfg("s").unwrap();
    s.drive(o, &c.read(i)).unwrap();
    let u = sb.add_component("u0", c.finish().unwrap()).unwrap();
    sb.input("i", SigType::Bits(8)).unwrap();
    sb.connect_input("i", u, "i").unwrap();
    sb.output("o", u, "o").unwrap();
    let other = sb.finish().unwrap();

    match CompiledSim::from_tape(other, &tape) {
        Err(CoreError::TapeMismatch { expected, .. }) => {
            assert_eq!(expected, tape.system_hash());
        }
        other => panic!("expected TapeMismatch, got {other:?}"),
    }
}
