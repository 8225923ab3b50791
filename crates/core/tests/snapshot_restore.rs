//! Differential tests for simulator snapshot/restore: a run that is
//! interrupted at cycle `k`, serialized, restored into a *fresh*
//! simulator and continued to `k + n` must be bit-identical to an
//! uninterrupted run — for every back-end and optimization level. Plus
//! the typed-error contract for mismatched designs, back-end families
//! and damaged byte streams.

use ocapi::rng::XorShift64;
use ocapi::{
    BatchedSim, CompiledSim, Component, CoreError, Fix, Format, InterpSim, OptLevel, Overflow,
    Rounding, SigType, SimSnapshot, Simulator, SnapshotBackend, System, Value,
};

/// The FSM-bearing accumulator from `sim_equivalence.rs`: accumulates
/// `x` while running, freezes permanently on `stop`.
fn accumulator() -> Component {
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
    c.finish().unwrap()
}

fn acc_system() -> System {
    let mut sb = System::build("acc_sys");
    let u = sb.add_component("u0", accumulator()).unwrap();
    sb.input("x", SigType::Bits(8)).unwrap();
    sb.input("stop", SigType::Bool).unwrap();
    sb.connect_input("x", u, "x").unwrap();
    sb.connect_input("stop", u, "stop").unwrap();
    sb.output("sum", u, "sum").unwrap();
    sb.finish().unwrap()
}

/// Deterministic stimulus for cycle `i` (0-based). Cycle 5 pulses
/// `stop`, so runs longer than 6 cycles also cover the frozen state.
fn stimulus(i: u64) -> (u64, bool) {
    ((i * 37 + 11) % 256, i == 5)
}

fn drive_cycle(sim: &mut dyn Simulator, i: u64) -> Value {
    let (x, stop) = stimulus(i);
    sim.set_input("x", Value::bits(8, x)).unwrap();
    sim.set_input("stop", Value::Bool(stop)).unwrap();
    sim.step().unwrap();
    sim.output("sum").unwrap()
}

/// Runs `total` cycles uninterrupted and returns every output.
fn reference_outputs(sim: &mut dyn Simulator, total: u64) -> Vec<Value> {
    (0..total).map(|i| drive_cycle(sim, i)).collect()
}

/// Interrupt at `k`, round-trip the snapshot through bytes, restore
/// into `fresh`, continue to `total`; outputs must match the reference
/// cycle for cycle.
fn check_resume<S: SnapshotOps>(mut first: S, mut fresh: S, total: u64, k: u64) {
    let mut reference = S::like(&first);
    let expect = reference_outputs(reference.as_sim(), total);

    for i in 0..k {
        drive_cycle(first.as_sim(), i);
    }
    let snap = first.take_snapshot();
    drop(first);

    // Serialize / deserialize — a restore from disk, not from memory.
    let bytes = snap.to_bytes();
    let snap = SimSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snap.cycle(), k);

    fresh.restore_snapshot(&snap).unwrap();
    assert_eq!(fresh.as_sim().cycle(), k);
    for i in k..total {
        let got = drive_cycle(fresh.as_sim(), i);
        assert_eq!(got, expect[i as usize], "divergence at cycle {i} (k={k})");
    }
}

/// The little adapter the generic test needs: build another simulator
/// of the same configuration, and snapshot/restore it.
trait SnapshotOps: Sized {
    fn like(other: &Self) -> Self;
    fn take_snapshot(&self) -> SimSnapshot;
    fn restore_snapshot(&mut self, snap: &SimSnapshot) -> Result<(), CoreError>;
    fn as_sim(&mut self) -> &mut dyn Simulator;
}

impl SnapshotOps for InterpSim {
    fn like(_: &Self) -> Self {
        InterpSim::new(acc_system()).unwrap()
    }
    fn take_snapshot(&self) -> SimSnapshot {
        self.snapshot()
    }
    fn restore_snapshot(&mut self, snap: &SimSnapshot) -> Result<(), CoreError> {
        self.restore(snap)
    }
    fn as_sim(&mut self) -> &mut dyn Simulator {
        self
    }
}

struct CompiledAt(CompiledSim, OptLevel);

impl SnapshotOps for CompiledAt {
    fn like(other: &Self) -> Self {
        CompiledAt(
            CompiledSim::new_with(acc_system(), other.1).unwrap(),
            other.1,
        )
    }
    fn take_snapshot(&self) -> SimSnapshot {
        self.0.snapshot()
    }
    fn restore_snapshot(&mut self, snap: &SimSnapshot) -> Result<(), CoreError> {
        self.0.restore(snap)
    }
    fn as_sim(&mut self) -> &mut dyn Simulator {
        &mut self.0
    }
}

#[test]
fn interp_snapshot_resumes_bit_identically() {
    for k in [1, 4, 7] {
        check_resume(
            InterpSim::new(acc_system()).unwrap(),
            InterpSim::new(acc_system()).unwrap(),
            10,
            k,
        );
    }
}

#[test]
fn compiled_snapshot_resumes_at_every_opt_level() {
    for level in [OptLevel::None, OptLevel::Basic, OptLevel::Full] {
        for k in [1, 4, 7] {
            check_resume(
                CompiledAt(CompiledSim::new_with(acc_system(), level).unwrap(), level),
                CompiledAt(CompiledSim::new_with(acc_system(), level).unwrap(), level),
                10,
                k,
            );
        }
    }
}

/// A lane snapshot from a batched run restores into a *scalar*
/// compiled simulator of the same build (and back): the Monte-Carlo
/// escape hatch — pull one interesting lane out of a batch and replay
/// it alone.
#[test]
fn batched_lane_snapshot_interops_with_scalar_compiled() {
    const LANES: usize = 4;
    const K: u64 = 6;
    const TOTAL: u64 = 10;
    let level = OptLevel::Full;

    // Per-lane stimulus: lane l sees x offset by 3*l, same stop pulse.
    let lane_x = |lane: usize, i: u64| (stimulus(i).0 + 3 * lane as u64) % 256;

    let mut batch = BatchedSim::from_fn(LANES, || Ok(acc_system()), level).unwrap();
    for i in 0..K {
        for lane in 0..LANES {
            batch
                .set_input_lane(lane, "x", Value::bits(8, lane_x(lane, i)))
                .unwrap();
            batch
                .set_input_lane(lane, "stop", Value::Bool(stimulus(i).1))
                .unwrap();
        }
        batch.step().unwrap();
    }
    let snap = batch.snapshot_lane(2).unwrap();
    let bytes = snap.to_bytes();
    let snap = SimSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(snap.backend(), SnapshotBackend::Compiled);

    // Reference: lane 2's stimuli, scalar, uninterrupted.
    let mut reference = CompiledSim::new_with(acc_system(), level).unwrap();
    let mut expect = Vec::new();
    for i in 0..TOTAL {
        reference
            .set_input("x", Value::bits(8, lane_x(2, i)))
            .unwrap();
        reference
            .set_input("stop", Value::Bool(stimulus(i).1))
            .unwrap();
        reference.step().unwrap();
        expect.push(reference.output("sum").unwrap());
    }

    // Scalar resume from the lane snapshot.
    let mut scalar = CompiledSim::new_with(acc_system(), level).unwrap();
    scalar.restore(&snap).unwrap();
    assert_eq!(scalar.cycle(), K);
    for i in K..TOTAL {
        scalar.set_input("x", Value::bits(8, lane_x(2, i))).unwrap();
        scalar
            .set_input("stop", Value::Bool(stimulus(i).1))
            .unwrap();
        scalar.step().unwrap();
        assert_eq!(
            scalar.output("sum").unwrap(),
            expect[i as usize],
            "scalar resume diverged at cycle {i}"
        );
    }

    // And back: the scalar snapshot revives a batch lane.
    let back = scalar.snapshot();
    let mut batch2 = BatchedSim::from_fn(LANES, || Ok(acc_system()), level).unwrap();
    batch2.restore_lane(1, &back).unwrap();
    assert_eq!(batch2.cycle(), TOTAL);
}

#[test]
fn snapshot_bytes_and_json_roundtrip() {
    let mut sim = InterpSim::new(acc_system()).unwrap();
    for i in 0..3 {
        drive_cycle(&mut sim, i);
    }
    let snap = sim.snapshot();
    let bytes = snap.to_bytes();
    let back = SimSnapshot::from_bytes(&bytes).unwrap();
    assert_eq!(back.backend(), snap.backend());
    assert_eq!(back.design_hash(), snap.design_hash());
    assert_eq!(back.cycle(), snap.cycle());
    for name in ["nets", "states", "regs"] {
        assert_eq!(back.section(name), snap.section(name), "section {name}");
    }
    // Serialization is deterministic.
    assert_eq!(back.to_bytes(), bytes);

    let json = snap.to_json();
    assert!(json.contains("\"backend\""));
    assert!(json.contains("\"design_hash\""));
    assert!(json.contains("\"cycle\":3"));
    assert!(json.contains("\"sections\""));
}

#[test]
fn snapshot_mismatch_is_a_typed_error() {
    // Different optimization levels produce different tapes, so an
    // opt-0 snapshot must not restore into an opt-2 simulator.
    let mut at0 = CompiledSim::new_with(acc_system(), OptLevel::None).unwrap();
    drive_cycle(&mut at0, 0);
    let snap0 = at0.snapshot();
    let mut at2 = CompiledSim::new_with(acc_system(), OptLevel::Full).unwrap();
    assert!(matches!(
        at2.restore(&snap0),
        Err(CoreError::SnapshotMismatch { .. })
    ));

    // A different design is rejected the same way.
    let mut other = System::build("other");
    let u = other.add_component("u0", accumulator()).unwrap();
    other.input("x", SigType::Bits(8)).unwrap();
    other.input("stop", SigType::Bool).unwrap();
    other.connect_input("x", u, "x").unwrap();
    other.connect_input("stop", u, "stop").unwrap();
    other.output("sum", u, "sum").unwrap();
    let mut interp_other = InterpSim::new(other.finish().unwrap()).unwrap();
    let interp_snap = InterpSim::new(acc_system()).unwrap().snapshot();
    assert!(matches!(
        interp_other.restore(&interp_snap),
        Err(CoreError::SnapshotMismatch { .. })
    ));

    // Crossing back-end families is a format error, not a hash check.
    let mut compiled = CompiledSim::new(acc_system()).unwrap();
    assert!(matches!(
        compiled.restore(&interp_snap),
        Err(CoreError::SnapshotFormat { .. })
    ));
    let mut interp = InterpSim::new(acc_system()).unwrap();
    assert!(matches!(
        interp.restore(&snap0),
        Err(CoreError::SnapshotFormat { .. })
    ));
}

#[test]
fn corrupted_snapshot_bytes_are_rejected() {
    let sim = InterpSim::new(acc_system()).unwrap();
    let bytes = sim.snapshot().to_bytes();

    // Truncation.
    assert!(matches!(
        SimSnapshot::from_bytes(&bytes[..bytes.len() - 1]),
        Err(CoreError::SnapshotFormat { .. })
    ));
    // Bad magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        SimSnapshot::from_bytes(&bad),
        Err(CoreError::SnapshotFormat { .. })
    ));
    // A flipped payload byte trips the checksum.
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    assert!(matches!(
        SimSnapshot::from_bytes(&bad),
        Err(CoreError::SnapshotFormat { .. })
    ));
    // Empty input.
    assert!(matches!(
        SimSnapshot::from_bytes(&[]),
        Err(CoreError::SnapshotFormat { .. })
    ));
}

/// A one-register fixed-point delay line: `y` is `x` one cycle late.
fn fixed_system() -> System {
    let fmt = Format::new(8, 2).unwrap();
    let c = Component::build("fx");
    let x = c.input("x", SigType::Fixed(fmt)).unwrap();
    let y = c.output("y", SigType::Fixed(fmt)).unwrap();
    let r = c.reg("r", SigType::Fixed(fmt)).unwrap();
    let s = c.sfg("s").unwrap();
    s.drive(y, &c.q(r)).unwrap();
    s.next(r, &c.read(x)).unwrap();
    let mut sb = System::build("fx_sys");
    let u = sb.add_component("u0", c.finish().unwrap()).unwrap();
    sb.input("x", SigType::Fixed(fmt)).unwrap();
    sb.connect_input("x", u, "x").unwrap();
    sb.output("y", u, "y").unwrap();
    sb.finish().unwrap()
}

fn drive_fixed(sim: &mut dyn Simulator, cycles: usize) {
    let fmt = Format::new(8, 2).unwrap();
    for i in 0..cycles {
        let x = Fix::from_f64(
            i as f64 * 0.75 - 1.5,
            fmt,
            Rounding::Nearest,
            Overflow::Saturate,
        );
        sim.set_input("x", Value::Fixed(x)).unwrap();
        sim.step().unwrap();
    }
}

/// FNV-1a, 64-bit: the snapshot format's trailing checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `bytes` with word `index` of section `name` replaced by `word` and
/// the checksum recomputed, so the damage passes `from_bytes` and only
/// the restore-time checks can catch it.
fn tamper(bytes: &[u8], name: &str, index: usize, word: u64) -> SimSnapshot {
    let mut out = bytes.to_vec();
    let u16_at = |b: &[u8], p: usize| usize::from(u16::from_le_bytes([b[p], b[p + 1]]));
    let u32_at = |b: &[u8], p: usize| u32::from_le_bytes(b[p..p + 4].try_into().unwrap()) as usize;
    // magic, version, backend, reserved, design hash, cycle
    let n_sections = u32_at(&out, 24);
    let mut pos = 28;
    for _ in 0..n_sections {
        let name_len = u16_at(&out, pos);
        let this = std::str::from_utf8(&out[pos + 2..pos + 2 + name_len]).unwrap() == name;
        pos += 2 + name_len;
        let n_words = u32_at(&out, pos);
        pos += 4;
        if this {
            assert!(index < n_words, "section `{name}` has {n_words} words");
            let at = pos + 8 * index;
            out[at..at + 8].copy_from_slice(&word.to_le_bytes());
            let body = out.len() - 8;
            let sum = fnv1a(&out[..body]);
            out[body..].copy_from_slice(&sum.to_le_bytes());
            return SimSnapshot::from_bytes(&out).expect("checksum recomputed");
        }
        pos += 8 * n_words;
    }
    panic!("no section `{name}`");
}

/// Asserts a typed format error naming `section` and word `index`.
fn assert_bad_word(result: Result<(), CoreError>, section: &str, index: usize) {
    match result {
        Err(CoreError::SnapshotFormat { reason }) => assert!(
            reason.contains(&format!("section `{section}` word {index}:")),
            "unexpected reason: {reason}"
        ),
        other => panic!("expected a SnapshotFormat error, got {other:?}"),
    }
}

/// A checksum-valid snapshot whose fixed-point mantissa is outside its
/// format (`<8,2>` holds -128..=127) must fail restore with a typed
/// error on every engine, instead of panicking in restore or in the
/// next `output()`.
#[test]
fn out_of_range_words_are_rejected_on_restore() {
    let too_big = 1000u64;
    let too_small = (-129i64) as u64;

    let mut interp = InterpSim::new(fixed_system()).unwrap();
    drive_fixed(&mut interp, 3);
    let bytes = interp.snapshot().to_bytes();
    for word in [too_big, too_small] {
        let mut fresh = InterpSim::new(fixed_system()).unwrap();
        assert_bad_word(fresh.restore(&tamper(&bytes, "regs", 0, word)), "regs", 0);
        assert_bad_word(fresh.restore(&tamper(&bytes, "nets", 1, word)), "nets", 1);
    }

    for level in [OptLevel::None, OptLevel::Full] {
        let mut compiled = CompiledSim::new_with(fixed_system(), level).unwrap();
        drive_fixed(&mut compiled, 3);
        let bytes = compiled.snapshot().to_bytes();
        let bad_reg = tamper(&bytes, "regs", 0, too_big);
        // Every slot of this design is Bool or at most 8 bits wide.
        let bad_slot = tamper(&bytes, "slots", 0, u64::MAX >> 1);

        let mut fresh = CompiledSim::new_with(fixed_system(), level).unwrap();
        assert_bad_word(fresh.restore(&bad_reg), "regs", 0);
        assert_bad_word(fresh.restore(&bad_slot), "slots", 0);
        let mut batch = BatchedSim::from_fn(2, || Ok(fixed_system()), level).unwrap();
        assert_bad_word(batch.restore_lane(1, &bad_reg), "regs", 0);
        assert_bad_word(batch.restore_lane(1, &bad_slot), "slots", 0);

        // The untouched snapshot still restores and resumes.
        let good = SimSnapshot::from_bytes(&bytes).unwrap();
        fresh.restore(&good).unwrap();
        drive_fixed(&mut fresh, 2);
        drive_fixed(&mut compiled, 2);
        assert_eq!(fresh.output("y").unwrap(), compiled.output("y").unwrap());
    }
}

/// A bit word wider than its width and a `Bool` other than 0/1 are
/// rejected the same way.
#[test]
fn bits_and_bool_words_must_fit_their_type() {
    let sys = acc_system();
    let bool_net = sys.nets.iter().position(|n| n.ty == SigType::Bool).unwrap();
    let mut interp = InterpSim::new(sys).unwrap();
    drive_cycle(&mut interp, 0);
    let bytes = interp.snapshot().to_bytes();
    let mut fresh = InterpSim::new(acc_system()).unwrap();
    // `acc` is Bits(8).
    assert_bad_word(fresh.restore(&tamper(&bytes, "regs", 0, 0x100)), "regs", 0);
    assert_bad_word(
        fresh.restore(&tamper(&bytes, "nets", bool_net, 2)),
        "nets",
        bool_net,
    );

    let mut compiled = CompiledSim::new(acc_system()).unwrap();
    drive_cycle(&mut compiled, 0);
    let bytes = compiled.snapshot().to_bytes();
    let mut fresh = CompiledSim::new(acc_system()).unwrap();
    assert_bad_word(fresh.restore(&tamper(&bytes, "regs", 0, 0x1ff)), "regs", 0);
}

fn random_value(ty: SigType, r: &mut XorShift64) -> Value {
    match ty {
        SigType::Bool => Value::Bool(r.next_bool()),
        SigType::Bits(w) => Value::bits(w, r.next_u64()),
        SigType::Fixed(f) => Value::Fixed(Fix::from_f64(
            (r.next_f64() * 2.0 - 1.0) * f.max_value(),
            f,
            Rounding::Nearest,
            Overflow::Saturate,
        )),
        SigType::Float => Value::Float(r.next_f64()),
    }
}

/// The validation never rejects a real snapshot: every in-tree design,
/// driven with random inputs, snapshots and restores on every engine.
#[test]
fn real_design_snapshots_pass_validation() {
    use ocapi_designs::{dect, hcor, image, modem, wlan};
    let builds: [fn() -> System; 5] = [
        || hcor::build_system().unwrap(),
        || modem::build_system().unwrap(),
        || wlan::build_system().unwrap(),
        || image::build_system(2).unwrap(),
        || dect::transceiver::build_system(&Default::default()).unwrap(),
    ];
    for build in builds {
        let inputs: Vec<(String, SigType)> = build()
            .primary_inputs
            .iter()
            .map(|p| (p.name.clone(), p.ty))
            .collect();
        let run = |sim: &mut dyn Simulator| {
            let mut r = XorShift64::new(17);
            for _ in 0..200 {
                for (name, ty) in &inputs {
                    sim.set_input(name, random_value(*ty, &mut r)).unwrap();
                }
                sim.step().unwrap();
            }
        };
        let mut interp = InterpSim::new(build()).unwrap();
        run(&mut interp);
        InterpSim::new(build())
            .unwrap()
            .restore(&interp.snapshot())
            .unwrap();
        for level in [OptLevel::None, OptLevel::Full] {
            let mut compiled = CompiledSim::new_with(build(), level).unwrap();
            run(&mut compiled);
            let snap = compiled.snapshot();
            CompiledSim::new_with(build(), level)
                .unwrap()
                .restore(&snap)
                .unwrap();
            let mut batch = BatchedSim::from_fn(2, || Ok(build()), level).unwrap();
            run(&mut batch);
            let lane = batch.snapshot_lane(1).unwrap();
            BatchedSim::from_fn(2, || Ok(build()), level)
                .unwrap()
                .restore_lane(0, &lane)
                .unwrap();
        }
    }
}
