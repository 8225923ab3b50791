//! Differential suite for the lane-batched tape executor: every output
//! and every observable net of a [`BatchedSim`] must be bit-identical to
//! a scalar [`CompiledSim`] run of the same lane, at every optimization
//! level, for every tested lane count — including runs where one lane
//! errors mid-flight and is masked off rather than poisoning the batch.

use ocapi::{
    run_campaign_cached_par, run_campaign_par, BatchedSim, CompiledSim, CompiledTape, Component,
    CoreError, FaultEvent, FaultOutcome, FaultSite, OptLevel, ParConfig, Ram, SigType, Simulator,
    System, Value,
};

/// The FSM accumulator from the equivalence suite: lanes that receive
/// different `stop` sequences diverge in control flow, exercising the
/// per-lane transition selectors.
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

/// A float IIR with compare + select, exercising the float micro-ops.
fn float_system() -> System {
    let c = Component::build("float_iir");
    let x = c.input("x", SigType::Float).unwrap();
    let y = c.output("y", SigType::Float).unwrap();
    let st = c.reg("st", SigType::Float).unwrap();
    let s = c.sfg("step").unwrap();
    let q = c.q(st);
    let half = c.constant(Value::Float(0.5));
    let next = q.clone() * half + c.read(x);
    let clipped = next
        .gt(&c.constant(Value::Float(4.0)))
        .mux(&c.constant(Value::Float(4.0)), &next);
    s.drive(y, &clipped).unwrap();
    s.next(st, &clipped).unwrap();
    let comp = c.finish().unwrap();
    let mut sb = System::build("float_sys");
    let u = sb.add_component("u", comp).unwrap();
    sb.input("x", SigType::Float).unwrap();
    sb.connect_input("x", u, "x").unwrap();
    sb.output("y", u, "y").unwrap();
    sb.finish().unwrap()
}

/// A RAM-in-the-loop system whose writes come from a primary input:
/// lanes fed different data diverge *inside the untimed block*, proving
/// per-lane `Fire` state isolation.
fn ram_system() -> System {
    let c = Component::build("dp");
    let rdata = c.input("rdata", SigType::Bits(8)).unwrap();
    let wdata_in = c.input("wdata_in", SigType::Bits(8)).unwrap();
    let addr = c.output("addr", SigType::Bits(4)).unwrap();
    let we = c.output("we", SigType::Bool).unwrap();
    let wdata = c.output("wdata", SigType::Bits(8)).unwrap();
    let y = c.output("y", SigType::Bits(8)).unwrap();
    let ptr = c.reg("ptr", SigType::Bits(4)).unwrap();
    let s = c.sfg("scan").unwrap();
    let q = c.q(ptr);
    s.drive(addr, &q).unwrap();
    s.drive(we, &c.const_bool(true)).unwrap();
    s.drive(wdata, &c.read(wdata_in)).unwrap();
    s.drive(y, &c.read(rdata)).unwrap();
    s.next(ptr, &(q + c.const_bits(4, 1))).unwrap();
    let comp = c.finish().unwrap();

    let mut sb = System::build("ramsys");
    let dp = sb.add_component("dp", comp).unwrap();
    let r = sb
        .add_block(Box::new(Ram::new("ram", 4, SigType::Bits(8))))
        .unwrap();
    sb.input("wdata_in", SigType::Bits(8)).unwrap();
    sb.connect_input("wdata_in", dp, "wdata_in").unwrap();
    sb.connect(dp, "addr", r, "addr").unwrap();
    sb.connect(dp, "we", r, "we").unwrap();
    sb.connect(dp, "wdata", r, "wdata").unwrap();
    sb.connect(r, "rdata", dp, "rdata").unwrap();
    sb.output("y", dp, "y").unwrap();
    sb.finish().unwrap()
}

/// Drives a batch and one scalar compiled sim per lane through the same
/// per-lane stimulus and asserts every output and every net matches
/// bit-for-bit, every cycle.
fn assert_batch_matches_scalar(
    make: &dyn Fn() -> System,
    stimulus: &dyn Fn(usize, u64) -> Vec<(&'static str, Value)>,
    lanes: usize,
    level: OptLevel,
    cycles: u64,
) {
    let mut batch = BatchedSim::from_fn(lanes, || Ok(make()), level).unwrap();
    let mut scalars: Vec<CompiledSim> = (0..lanes)
        .map(|_| CompiledSim::new_with(make(), level).unwrap())
        .collect();
    let nets: Vec<String> = batch.system().nets.iter().map(|n| n.name.clone()).collect();
    let outs: Vec<String> = batch
        .system()
        .primary_outputs
        .iter()
        .map(|p| p.name.clone())
        .collect();
    for c in 0..cycles {
        for (l, scalar) in scalars.iter_mut().enumerate() {
            for (name, v) in stimulus(l, c) {
                batch.set_input_lane(l, name, v).unwrap();
                scalar.set_input(name, v).unwrap();
            }
        }
        batch.step().unwrap();
        for s in &mut scalars {
            s.step().unwrap();
        }
        for (l, s) in scalars.iter().enumerate() {
            for o in &outs {
                assert_eq!(
                    batch.output_lane(l, o).unwrap(),
                    s.output(o).unwrap(),
                    "output `{o}` lane {l} cycle {c} lanes={lanes} level={level:?}"
                );
            }
            for n in &nets {
                assert_eq!(
                    batch.peek_net_lane(l, n).unwrap(),
                    s.peek_net(n).unwrap(),
                    "net `{n}` lane {l} cycle {c} lanes={lanes} level={level:?}"
                );
            }
        }
    }
}

#[test]
fn batched_fsm_system_matches_scalar_lanes_1_3_8() {
    for level in [OptLevel::None, OptLevel::Full] {
        for lanes in [1usize, 3, 8] {
            assert_batch_matches_scalar(
                &acc_system,
                &|l, c| {
                    vec![
                        ("x", Value::bits(8, (3 * l as u64 + c + 1) & 0xff)),
                        // Lanes freeze at different cycles → control-flow
                        // divergence across the batch.
                        ("stop", Value::Bool(c == 4 + 2 * l as u64)),
                    ]
                },
                lanes,
                level,
                16,
            );
        }
    }
}

#[test]
fn batched_float_system_matches_scalar_lanes_1_3_8() {
    for level in [OptLevel::None, OptLevel::Full] {
        for lanes in [1usize, 3, 8] {
            assert_batch_matches_scalar(
                &float_system,
                &|l, c| {
                    let x = (l as f64 + 1.0) * 0.75 - (c as f64) * 0.3;
                    vec![("x", Value::Float(x))]
                },
                lanes,
                level,
                12,
            );
        }
    }
}

#[test]
fn batched_ram_system_matches_scalar_lanes_1_3_8() {
    for level in [OptLevel::None, OptLevel::Full] {
        for lanes in [1usize, 3, 8] {
            assert_batch_matches_scalar(
                &ram_system,
                &|l, c| vec![("wdata_in", Value::bits(8, (l as u64 * 37 + c * 5) & 0xff))],
                lanes,
                level,
                20,
            );
        }
    }
}

/// A lane failed mid-run is masked off: its state freezes at the failing
/// cycle, its error is recorded, and the surviving lanes keep matching
/// their scalar references exactly.
#[test]
fn masked_lane_does_not_poison_the_batch() {
    let lanes = 3;
    let mut batch = BatchedSim::from_fn(lanes, || Ok(acc_system()), OptLevel::Full).unwrap();
    let mut scalars: Vec<CompiledSim> = (0..lanes)
        .map(|_| CompiledSim::new_with(acc_system(), OptLevel::Full).unwrap())
        .collect();
    batch.enable_trace();

    let drive = |batch: &mut BatchedSim, scalars: &mut Vec<CompiledSim>, c: u64| {
        for (l, scalar) in scalars.iter_mut().enumerate() {
            let x = Value::bits(8, l as u64 + c + 1);
            batch.set_input_lane(l, "x", x).unwrap();
            batch.set_input_lane(l, "stop", Value::Bool(false)).unwrap();
            scalar.set_input("x", x).unwrap();
            scalar.set_input("stop", Value::Bool(false)).unwrap();
        }
    };

    for c in 0..5 {
        drive(&mut batch, &mut scalars, c);
        batch.step().unwrap();
        for s in scalars.iter_mut() {
            s.step().unwrap();
        }
    }

    // Lane 1 hits a per-lane error (e.g. a failed fault poke) at cycle 5.
    let frozen = batch.output_lane(1, "sum").unwrap();
    batch.fail_lane(
        1,
        CoreError::UnknownName {
            kind: "net",
            name: "injected".into(),
        },
    );
    assert!(!batch.alive(1));
    assert_eq!(batch.masked_lanes(), 1);
    let (cycle, err) = batch.lane_error(1).unwrap();
    assert_eq!(*cycle, 5);
    assert!(matches!(err, CoreError::UnknownName { .. }));

    for c in 5..10 {
        drive(&mut batch, &mut scalars, c);
        batch.step().unwrap(); // lanes 0 and 2 still live → Ok
        for s in scalars.iter_mut() {
            s.step().unwrap();
        }
    }

    // Survivors still match their scalar twins; the masked lane froze.
    for l in [0usize, 2] {
        assert_eq!(
            batch.output_lane(l, "sum").unwrap(),
            scalars[l].output("sum").unwrap(),
            "surviving lane {l}"
        );
    }
    assert_eq!(batch.output_lane(1, "sum").unwrap(), frozen);
    assert_eq!(batch.trace_lane(1).unwrap().len(), 5);
    assert_eq!(batch.trace_lane(0).unwrap().len(), 10);

    // Masking the remaining lanes makes step() surface the lowest-lane
    // error, scalar-style.
    batch.fail_lane(
        0,
        CoreError::UnknownName {
            kind: "net",
            name: "a".into(),
        },
    );
    batch.fail_lane(
        2,
        CoreError::UnknownName {
            kind: "net",
            name: "c".into(),
        },
    );
    match batch.step() {
        Err(CoreError::UnknownName { name, .. }) => assert_eq!(name, "a"),
        other => panic!("expected lowest-lane error, got {other:?}"),
    }
}

/// A 1-lane batch is a scalar simulator: the `Simulator` facade
/// (broadcast writes, lane-0 reads) reproduces `CompiledSim` exactly.
#[test]
fn single_lane_batch_is_scalar_via_trait() {
    let mut batch = BatchedSim::new(vec![acc_system()]).unwrap();
    let mut scalar = CompiledSim::new(acc_system()).unwrap();
    batch.enable_trace();
    scalar.enable_trace();
    for c in 0..12u64 {
        for sim in [&mut batch as &mut dyn Simulator, &mut scalar] {
            sim.set_input("x", Value::bits(8, c + 1)).unwrap();
            sim.set_input("stop", Value::Bool(c == 7)).unwrap();
            sim.step().unwrap();
        }
        assert_eq!(batch.output("sum").unwrap(), scalar.output("sum").unwrap());
    }
    assert_eq!(batch.trace(), scalar.trace());
    assert_eq!(batch.cycle(), scalar.cycle());
}

fn campaign_events() -> Vec<FaultEvent> {
    vec![
        // Register MSB flip mid-run: visible on the output → silent.
        FaultEvent::flip(FaultSite::reg("u0", "acc"), 7, 2),
        // Flip after the run window: no effect → masked.
        FaultEvent::flip(FaultSite::reg("u0", "acc"), 0, 50),
        // Unknown site: the poke fails → detected at the event cycle.
        FaultEvent::flip(FaultSite::net("no_such_net"), 0, 3),
        FaultEvent::flip(FaultSite::reg("u0", "acc"), 6, 5),
        FaultEvent::flip(FaultSite::net("x"), 2, 4),
        FaultEvent::stuck_at(FaultSite::reg("u0", "acc"), 1, true, 1, 6),
        FaultEvent::flip(FaultSite::reg("u0", "acc"), 3, 9),
    ]
}

fn campaign_stimulus(sim: &mut dyn Simulator, c: u64) -> Result<(), CoreError> {
    sim.set_input("x", Value::bits(8, (c + 1) & 0xff))?;
    sim.set_input("stop", Value::Bool(false))?;
    Ok(())
}

/// The batched campaign classifies every event exactly as the scalar
/// one, for every lane count and thread count: lanes × threads is pure
/// geometry, and one cached tape serves every geometry.
#[test]
fn batched_campaign_outcomes_equal_scalar_for_all_geometries() {
    let events = campaign_events();
    let scalar = run_campaign_par(
        &ParConfig::single(),
        || CompiledSim::new_with(acc_system(), OptLevel::Full),
        campaign_stimulus,
        10,
        &events,
    )
    .unwrap();
    assert_eq!(scalar.total(), events.len());
    assert!(scalar.silent() >= 1);
    assert!(scalar.masked() >= 1);
    assert!(scalar.detected() >= 1);

    let tape = CompiledTape::compile(&acc_system(), OptLevel::Full).unwrap();
    for lanes in [1usize, 3, 8] {
        for threads in [1usize, 4] {
            let batched = run_campaign_cached_par(
                &ParConfig::new(threads),
                || Ok(acc_system()),
                &tape,
                campaign_stimulus,
                10,
                &events,
                lanes,
            )
            .unwrap();
            assert_eq!(
                scalar.outcomes, batched.outcomes,
                "lanes={lanes} threads={threads} diverged from scalar campaign"
            );
        }
    }

    // The detected event really is the unknown-site poke, masked at its
    // own cycle without touching its chunk-mates.
    match &scalar.outcomes[2].1 {
        FaultOutcome::Detected { cycle, error } => {
            assert_eq!(*cycle, 3);
            assert!(matches!(error, CoreError::UnknownName { .. }));
        }
        other => panic!("expected detected outcome, got {other:?}"),
    }
}

/// Structural lane mismatches are rejected up front with diagnostics.
#[test]
fn mismatched_lane_systems_are_rejected() {
    let err = BatchedSim::new(vec![acc_system(), float_system()]).unwrap_err();
    match err {
        CoreError::CheckFailed { diagnostics } => {
            assert!(!diagnostics.is_empty());
        }
        other => panic!("expected CheckFailed, got {other:?}"),
    }
    assert!(matches!(
        BatchedSim::new(Vec::new()),
        Err(CoreError::CheckFailed { .. })
    ));
}

// ---------------------------------------------------------------------------
// Word-parallel (bitsliced Bool) fast-path differentials.
// ---------------------------------------------------------------------------

use ocapi::rng::XorShift64;
use ocapi::BatchObs;
use ocapi_obs::Registry;

/// A Bool-dense design covering every word-op lowering: AND/OR/XOR
/// chains, NOT, `==`/`>` comparisons (XNOR / AND-NOT), a mux
/// (SELECT), and a Bool register so state feeds back through the
/// bitsliced region every cycle.
fn bool_gate_system() -> System {
    let c = Component::build("gates");
    let a = c.input("a", SigType::Bool).unwrap();
    let b = c.input("b", SigType::Bool).unwrap();
    let sel = c.input("sel", SigType::Bool).unwrap();
    let y = c.output("y", SigType::Bool).unwrap();
    let z = c.output("z", SigType::Bool).unwrap();
    let r = c.reg("r", SigType::Bool).unwrap();
    let s = c.sfg("step").unwrap();
    let (ra, rb, rs) = (c.read(a), c.read(b), c.read(sel));
    let q = c.q(r);
    let m = (&(&ra & &rb) | &(&ra & &q)) | &(&rb & &q);
    let e = ra.eq(&rb);
    let g = ra.gt(&rb);
    let x = &(&ra ^ &rb) ^ &q;
    let picked = rs.mux(&m, &x);
    let yv = &(&e | &g) ^ &picked;
    let zv = !&yv;
    s.drive(y, &yv).unwrap();
    s.drive(z, &zv).unwrap();
    s.next(r, &(&x ^ &zv)).unwrap();
    let comp = c.finish().unwrap();
    let mut sb = System::build("gates_sys");
    let u = sb.add_component("u0", comp).unwrap();
    for name in ["a", "b", "sel"] {
        sb.input(name, SigType::Bool).unwrap();
        sb.connect_input(name, u, name).unwrap();
    }
    sb.output("y", u, "y").unwrap();
    sb.output("z", u, "z").unwrap();
    sb.finish().unwrap()
}

fn bool_stimulus(l: usize, cyc: u64) -> Vec<(&'static str, Value)> {
    let mut rng = XorShift64::stream(0xB17_51CE, (l as u64) << 32 | cyc);
    let bits = rng.next_u64();
    vec![
        ("a", Value::Bool(bits & 1 != 0)),
        ("b", Value::Bool(bits & 2 != 0)),
        ("sel", Value::Bool(bits & 4 != 0)),
    ]
}

/// The bitsliced fast path is unobservable next to scalar compiled
/// runs at every opt level and lane geometry — including 64 lanes
/// (one full word) and 3 (a partial tail word).
#[test]
fn batched_bool_system_matches_scalar_lanes_1_3_8_64() {
    // The planner must actually have carved word blocks out of this
    // design, or the test would vacuously pass through scalar code.
    let probe = BatchedSim::from_fn(2, || Ok(bool_gate_system()), OptLevel::Full).unwrap();
    assert!(probe.word_blocks() >= 1, "no word block planned");
    for level in [OptLevel::None, OptLevel::Full] {
        for lanes in [1usize, 3, 8, 64] {
            assert_batch_matches_scalar(&bool_gate_system, &bool_stimulus, lanes, level, 24);
        }
    }
}

/// Masking a lane mid-run flips every word segment to its scalar
/// fallback; survivors still match their scalar twins bit-for-bit and
/// the packed-op counter stops advancing.
#[test]
fn masked_bool_lane_forces_scalar_fallback_and_survivors_match() {
    let lanes = 8;
    let reg = Registry::new();
    let mut batch = BatchedSim::from_fn(lanes, || Ok(bool_gate_system()), OptLevel::Full).unwrap();
    batch.attach_obs(BatchObs::new(&reg));
    let mut scalars: Vec<CompiledSim> = (0..lanes)
        .map(|_| CompiledSim::new_with(bool_gate_system(), OptLevel::Full).unwrap())
        .collect();
    let drive = |batch: &mut BatchedSim, scalars: &mut Vec<CompiledSim>, cyc: u64| {
        for (l, scalar) in scalars.iter_mut().enumerate() {
            for (name, v) in bool_stimulus(l, cyc) {
                batch.set_input_lane(l, name, v).unwrap();
                scalar.set_input(name, v).unwrap();
            }
        }
    };
    for cyc in 0..6 {
        drive(&mut batch, &mut scalars, cyc);
        batch.step().unwrap();
        for s in scalars.iter_mut() {
            s.step().unwrap();
        }
    }
    let packed = reg.counter("batch.word_ops").get();
    assert!(
        packed > 0,
        "word path did not engage while all lanes were alive"
    );

    batch.fail_lane(
        5,
        CoreError::Unsupported {
            op: "chaos".to_owned(),
        },
    );
    let frozen_y = batch.output_lane(5, "y").unwrap();
    for cyc in 6..14 {
        drive(&mut batch, &mut scalars, cyc);
        batch.step().unwrap();
        for s in scalars.iter_mut() {
            s.step().unwrap();
        }
    }
    // Fallback engaged: no packed ops counted after the masking.
    assert_eq!(reg.counter("batch.word_ops").get(), packed);
    assert_eq!(batch.output_lane(5, "y").unwrap(), frozen_y);
    for l in (0..lanes).filter(|l| *l != 5) {
        for o in ["y", "z"] {
            assert_eq!(
                batch.output_lane(l, o).unwrap(),
                scalars[l].output(o).unwrap(),
                "surviving lane {l} output `{o}`"
            );
        }
    }
}

/// Seeded sweep over random lane widths (1..=70 — whole words, partial
/// tail words, multi-word stripes) and random mid-run lane maskings:
/// every surviving lane must stay bit-identical to its scalar twin at
/// every cycle. The `slow-tests` feature scales the trial count up to
/// fuzzing grade, matching the equivalence suites.
#[test]
fn seeded_sweep_random_widths_and_masks_match_scalar() {
    let trials: u64 = if cfg!(feature = "slow-tests") { 60 } else { 8 };
    for t in 0..trials {
        let mut rng = XorShift64::stream(0x5EED_B001, t);
        let lanes = 1 + rng.index(70);
        let cycles = 8 + rng.below(12);
        let level = if rng.next_bool() {
            OptLevel::Full
        } else {
            OptLevel::None
        };
        // ~1 lane in 4 dies at a random cycle.
        let mask_at: Vec<Option<u64>> = (0..lanes)
            .map(|_| rng.chance(0.25).then(|| rng.below(cycles)))
            .collect();
        let mut batch = BatchedSim::from_fn(lanes, || Ok(bool_gate_system()), level).unwrap();
        let mut scalars: Vec<CompiledSim> = (0..lanes)
            .map(|_| CompiledSim::new_with(bool_gate_system(), level).unwrap())
            .collect();
        for cyc in 0..cycles {
            for (l, m) in mask_at.iter().enumerate() {
                if *m == Some(cyc) {
                    batch.fail_lane(
                        l,
                        CoreError::Unsupported {
                            op: "sweep mask".to_owned(),
                        },
                    );
                }
            }
            if (0..lanes).all(|l| !batch.alive(l)) {
                break;
            }
            for (l, scalar) in scalars.iter_mut().enumerate() {
                for (name, v) in bool_stimulus(l, cyc ^ (t << 8)) {
                    batch.set_input_lane(l, name, v).unwrap();
                    scalar.set_input(name, v).unwrap();
                }
            }
            batch.step().unwrap();
            for s in scalars.iter_mut() {
                s.step().unwrap();
            }
            for l in (0..lanes).filter(|l| batch.alive(*l)) {
                for o in ["y", "z"] {
                    assert_eq!(
                        batch.output_lane(l, o).unwrap(),
                        scalars[l].output(o).unwrap(),
                        "trial {t} lane {l}/{lanes} cycle {cyc} level {level:?} output `{o}`"
                    );
                }
            }
        }
    }
}
