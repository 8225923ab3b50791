//! Differential suite for the lane-batched tape executor: every output
//! and every observable net of a [`BatchedSim`] must be bit-identical to
//! a scalar [`CompiledSim`] run of the same lane, at every optimization
//! level, for every tested lane count — including runs where one lane
//! errors mid-flight and is masked off rather than poisoning the batch.

use ocapi::rng::XorShift64;
use ocapi::{
    run_campaign_cached_par, run_campaign_par, BatchedSim, CompiledDesign, CompiledSim,
    CompiledTape, Component, CoreError, FaultEvent, FaultOutcome, FaultSite, Fix, FnBlock,
    InterpSim, MemorySpec, OptLevel, Overflow, ParConfig, PortDecl, Ram, Rounding, SigType,
    Simulator, System, UntimedBlock, Value,
};
use ocapi_designs::dect::transceiver::TransceiverConfig;
use ocapi_designs::{dect, hcor};

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
    ram_system_with(Box::new(Ram::new("ram", 4, SigType::Bits(8))))
}

/// [`ram_system`] around `ram`, a block with the RAM's ports.
fn ram_system_with(ram: Box<dyn UntimedBlock>) -> System {
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
    let r = sb.add_block(ram).unwrap();
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

/// `reset` returns every lane to power-up — slots, registers, FSM states
/// and each lane's own RAM — revives masked lanes and restarts traces:
/// afterwards the batch steps exactly like a fresh one.
#[test]
fn reset_revives_lanes_and_matches_a_fresh_batch() {
    let lanes = 3;
    let stim = |l: usize, c: u64| Value::bits(8, (l as u64 * 37 + c * 5) & 0xff);
    let mut used = BatchedSim::from_fn(lanes, || Ok(ram_system()), OptLevel::Full).unwrap();
    used.enable_trace();
    for c in 0..20 {
        for l in 0..lanes {
            used.set_input_lane(l, "wdata_in", stim(l, c + 100))
                .unwrap();
        }
        used.step().unwrap();
    }
    used.fail_lane(
        1,
        CoreError::Unsupported {
            op: "test mask".to_owned(),
        },
    );
    used.step().unwrap();
    used.reset();
    assert_eq!((used.cycle(), used.masked_lanes()), (0, 0));
    assert!(used.alive(1) && used.lane_error(1).is_none());

    let mut fresh = BatchedSim::from_fn(lanes, || Ok(ram_system()), OptLevel::Full).unwrap();
    fresh.enable_trace();
    for c in 0..20 {
        for sim in [&mut used, &mut fresh] {
            for l in 0..lanes {
                sim.set_input_lane(l, "wdata_in", stim(l, c)).unwrap();
            }
            sim.step().unwrap();
        }
        for l in 0..lanes {
            assert_eq!(
                used.output_lane(l, "y").unwrap(),
                fresh.output_lane(l, "y").unwrap(),
                "lane {l} cycle {c}"
            );
        }
    }
    for l in 0..lanes {
        assert_eq!(used.trace_lane(l), fresh.trace_lane(l), "lane {l}");
        assert_eq!(used.snapshot_lane(l), fresh.snapshot_lane(l), "lane {l}");
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

/// A random type-correct value for one primary input.
fn random_input(ty: SigType, rng: &mut XorShift64) -> Value {
    match ty {
        SigType::Bool => Value::Bool(rng.next_bool()),
        SigType::Bits(w) => Value::bits(w, rng.next_u64() & (u64::MAX >> (64 - w.min(64)))),
        SigType::Fixed(fmt) => Value::Fixed(Fix::from_f64(
            rng.next_f64() * 4.0 - 2.0,
            fmt,
            Rounding::Nearest,
            Overflow::Saturate,
        )),
        SigType::Float => Value::Float(rng.next_f64() * 4.0 - 2.0),
    }
}

/// Sets every primary input of `sys` to a fresh random value in every
/// simulator, then steps them all.
fn step_all(sys: &System, rng: &mut XorShift64, sims: &mut [&mut dyn Simulator]) {
    for p in &sys.primary_inputs {
        let v = random_input(p.ty, rng);
        for sim in sims.iter_mut() {
            sim.set_input(&p.name, v).unwrap();
        }
    }
    for sim in sims.iter_mut() {
        sim.step().unwrap();
    }
}

/// A design builder with its name.
type NamedDesign = (&'static str, fn() -> System);

/// A one-lane batch is the scalar engine: on the FSM accumulator, on
/// HCOR (FSM control) and on DECT (untimed blocks), every output of
/// every cycle and the whole trace equal the interpreter's; its lane
/// snapshot is the `CompiledSim` snapshot and resumes in a
/// `CompiledSim`; and masking its one lane makes the next step return
/// that lane's error.
#[test]
fn single_lane_batch_is_scalar_via_trait() {
    let designs: [NamedDesign; 3] = [
        ("acc", acc_system),
        ("hcor", || hcor::build_system().unwrap()),
        ("dect", || {
            dect::transceiver::build_system(&TransceiverConfig::default()).unwrap()
        }),
    ];
    for (name, make) in designs {
        let sys = make();
        let mut rng = XorShift64::new(0x1a7e);
        let mut batch = BatchedSim::new(vec![make()]).unwrap();
        let mut interp = InterpSim::new(make()).unwrap();
        let mut scalar = CompiledSim::new(make()).unwrap();
        batch.enable_trace();
        interp.enable_trace();
        for c in 0..512 {
            step_all(&sys, &mut rng, &mut [&mut batch, &mut interp, &mut scalar]);
            for p in &sys.primary_outputs {
                assert_eq!(
                    batch.output(&p.name).unwrap(),
                    interp.output(&p.name).unwrap(),
                    "{name}: output `{}` at cycle {c}",
                    p.name
                );
            }
        }
        assert_eq!(batch.trace(), interp.trace(), "{name}");
        assert_eq!(batch.cycle(), interp.cycle(), "{name}");

        let snap = batch.snapshot_lane(0).unwrap();
        assert_eq!(snap, scalar.snapshot(), "{name}");
        let mut resumed = CompiledSim::new(make()).unwrap();
        resumed.restore(&snap).unwrap();
        for c in 0..16 {
            step_all(&sys, &mut rng, &mut [&mut batch, &mut resumed]);
            for p in &sys.primary_outputs {
                assert_eq!(
                    batch.output(&p.name).unwrap(),
                    resumed.output(&p.name).unwrap(),
                    "{name}: output `{}` {c} cycles after the restore",
                    p.name
                );
            }
        }

        let e = CoreError::Unsupported {
            op: "test mask".to_owned(),
        };
        batch.fail_lane(0, e.clone());
        assert_eq!(batch.step(), Err(e), "{name}");
    }
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

// ---------------------------------------------------------------------------
// One capture per batch: lanes own copies of the captured system's blocks.
// ---------------------------------------------------------------------------

/// 64 DECT lanes built from one capture step exactly as 64 lanes built
/// from 64 captures: each lane gets its own seeded burst, and every
/// lane's full state — slots, registers, FSM states and RAM contents —
/// is byte-identical between the two batches at every checkpoint.
#[test]
fn lanes_of_one_capture_equal_lanes_of_separate_captures() {
    const LANES: usize = 64;
    let cfg = TransceiverConfig::default();
    let build = || dect::transceiver::build_system(&cfg).unwrap();
    let tape = CompiledTape::compile(&build(), OptLevel::Full).unwrap();
    let design = CompiledDesign::new(build(), OptLevel::Full, |_| Some(tape.clone())).unwrap();
    let mut one = BatchedSim::from_design(&design, LANES).unwrap();
    let mut many = BatchedSim::from_tape((0..LANES).map(|_| build()).collect(), &tape).unwrap();
    assert_eq!(one.design_hash(), many.design_hash());
    let bursts: Vec<_> = (0..LANES as u64)
        .map(|l| {
            dect::burst::generate(&dect::burst::BurstConfig {
                payload_len: 16,
                channel: vec![1.0, 0.5],
                noise: 0.2,
                seed: 0x1a7e + l,
            })
        })
        .collect();
    let cycles = bursts[0].samples.len() * dect::transceiver::CYCLES_PER_SYMBOL;
    let checkpoints = [1, 37, cycles / 2, cycles];
    for c in 1..=cycles {
        let symbol = (c - 1) / dect::transceiver::CYCLES_PER_SYMBOL;
        for sim in [&mut one, &mut many] {
            for (l, burst) in bursts.iter().enumerate() {
                let x = burst.samples[symbol % burst.samples.len()];
                sim.set_input_lane(l, "sample", Value::Fixed(x)).unwrap();
            }
            sim.set_input("hold_request", Value::Bool(false)).unwrap();
            sim.step().unwrap();
        }
        if checkpoints.contains(&c) {
            for l in 0..LANES {
                assert_eq!(
                    one.snapshot_lane(l).unwrap().to_bytes(),
                    many.snapshot_lane(l).unwrap().to_bytes(),
                    "lane {l} cycle {c}"
                );
            }
        }
    }
    // The lanes diverged: their own bursts reached their own RAMs.
    let blocks = |l: usize| {
        let snap = one.snapshot_lane(l).unwrap();
        (0..one.system().untimed.len())
            .map(|u| {
                snap.section(&format!("untimed.{u}"))
                    .unwrap_or(&[])
                    .to_vec()
            })
            .collect::<Vec<_>>()
    };
    assert_ne!(blocks(0), blocks(1));
}

/// A RAM preloaded with `word` at address 0, written only when the
/// primary input `we` is high: `y` reads the word back every cycle.
fn preloaded_ram_system(word: u64) -> System {
    let c = Component::build("port");
    let we_in = c.input("we_in", SigType::Bool).unwrap();
    let rdata = c.input("rdata", SigType::Bits(8)).unwrap();
    let addr = c.output("addr", SigType::Bits(2)).unwrap();
    let we = c.output("we", SigType::Bool).unwrap();
    let wdata = c.output("wdata", SigType::Bits(8)).unwrap();
    let y = c.output("y", SigType::Bits(8)).unwrap();
    let s = c.sfg("access").unwrap();
    s.drive(addr, &c.const_bits(2, 0)).unwrap();
    s.drive(we, &c.read(we_in)).unwrap();
    s.drive(wdata, &c.const_bits(8, 0x11)).unwrap();
    s.drive(y, &c.read(rdata)).unwrap();
    let comp = c.finish().unwrap();

    let mut ram = Ram::new("ram", 2, SigType::Bits(8));
    ram.preload(0, Value::bits(8, word));
    let mut sb = System::build("preloaded");
    let p = sb.add_component("port", comp).unwrap();
    let r = sb.add_block(Box::new(ram)).unwrap();
    sb.input("we", SigType::Bool).unwrap();
    sb.connect_input("we", p, "we_in").unwrap();
    sb.connect(p, "addr", r, "addr").unwrap();
    sb.connect(p, "we", r, "we").unwrap();
    sb.connect(p, "wdata", r, "wdata").unwrap();
    sb.connect(r, "rdata", p, "rdata").unwrap();
    sb.output("y", p, "y").unwrap();
    sb.finish().unwrap()
}

/// Lanes built from one capture own their blocks: only lane 0 writes
/// its RAM, and lane 1 still reads its own power-up word. The captured
/// system's RAM never fires, so it stays at power-up too, and a second
/// batch of the design shares that template; a reset restores the
/// preload in every lane.
#[test]
fn a_lane_of_one_capture_reads_its_own_ram() {
    let design = CompiledDesign::new(preloaded_ram_system(0x5a), OptLevel::Full, |_| None).unwrap();
    let mut sim = BatchedSim::from_design(&design, 2).unwrap();
    let power_up = Value::bits(8, 0x5a);
    for (c, we0) in [true, false, false].into_iter().enumerate() {
        sim.set_input_lane(0, "we", Value::Bool(we0)).unwrap();
        sim.set_input_lane(1, "we", Value::Bool(false)).unwrap();
        sim.step().unwrap();
        let want0 = if c == 0 {
            power_up
        } else {
            Value::bits(8, 0x11)
        };
        assert_eq!(sim.output_lane(0, "y").unwrap(), want0, "lane 0 cycle {c}");
        assert_eq!(
            sim.output_lane(1, "y").unwrap(),
            power_up,
            "lane 1 cycle {c}"
        );
    }
    let template = sim.system().untimed[0].block.snapshot_state();
    assert_eq!(template, [0x5a, 0, 0, 0]);
    assert_eq!(
        sim.snapshot_lane(0).unwrap().section("untimed.0"),
        Some(&[0x11, 0, 0, 0][..])
    );
    assert_eq!(
        sim.snapshot_lane(1).unwrap().section("untimed.0"),
        Some(&template[..])
    );
    let mut other = BatchedSim::from_design(&design, 1).unwrap();
    assert!(std::ptr::eq(other.system(), sim.system()));
    other.set_input("we", Value::Bool(false)).unwrap();
    other.step().unwrap();
    assert_eq!(other.output("y").unwrap(), power_up);
    sim.reset();
    sim.set_input("we", Value::Bool(false)).unwrap();
    sim.step().unwrap();
    for l in 0..2 {
        assert_eq!(sim.output_lane(l, "y").unwrap(), power_up, "lane {l}");
    }
    assert!(matches!(
        BatchedSim::from_design(&design, 0),
        Err(CoreError::CheckFailed { .. })
    ));
}

/// Lanes that bring their own systems read their own RAM contents:
/// three lanes preloaded with different words each read back their own,
/// keep it while another lane writes, and return to it after a reset.
#[test]
fn lanes_of_separate_captures_read_their_own_preloads() {
    let words = [0x5a, 0x33, 0xc0];
    let tape = CompiledTape::compile(&preloaded_ram_system(0), OptLevel::Full).unwrap();
    let systems = words.iter().map(|w| preloaded_ram_system(*w)).collect();
    let mut sim = BatchedSim::from_tape(systems, &tape).unwrap();
    let check = |sim: &BatchedSim, want: [u64; 3], when: &str| {
        for (l, w) in want.into_iter().enumerate() {
            let y = sim.output_lane(l, "y").unwrap();
            assert_eq!(y, Value::bits(8, w), "lane {l} {when}");
            let section = sim.snapshot_lane(l).unwrap();
            assert_eq!(section.section("untimed.0"), Some(&[w, 0, 0, 0][..]));
        }
    };
    sim.set_input("we", Value::Bool(false)).unwrap();
    sim.step().unwrap();
    check(&sim, words, "at power-up");
    sim.set_input_lane(1, "we", Value::Bool(true)).unwrap();
    sim.step().unwrap();
    sim.set_input("we", Value::Bool(false)).unwrap();
    sim.step().unwrap();
    check(&sim, [words[0], 0x11, words[2]], "after lane 1 wrote");
    sim.reset();
    sim.set_input("we", Value::Bool(false)).unwrap();
    sim.step().unwrap();
    check(&sim, words, "after reset");
}

/// The adaptive and the fixed transceiver differ only in their
/// instruction ROM, so they share one tape. In one batch each lane reads
/// its own ROM: every output of every cycle equals a `CompiledSim` of
/// that lane's variant, and the two lanes' outputs part.
#[test]
fn transceiver_variants_in_one_batch_read_their_own_roms() {
    let variant = |adapt: bool| {
        dect::transceiver::build_system(&TransceiverConfig {
            train: adapt,
            agc: false,
            adapt,
        })
        .unwrap()
    };
    let tape = CompiledTape::compile(&variant(true), OptLevel::Full).unwrap();
    let mut batch = BatchedSim::from_tape(vec![variant(true), variant(false)], &tape).unwrap();
    let mut solo = [
        CompiledSim::from_tape(variant(true), &tape).unwrap(),
        CompiledSim::from_tape(variant(false), &tape).unwrap(),
    ];
    let burst = dect::burst::generate(&dect::burst::BurstConfig {
        payload_len: 16,
        channel: vec![1.0, 0.5],
        noise: 0.2,
        seed: 0x0b0e,
    });
    let outputs: Vec<String> = variant(true)
        .primary_outputs
        .iter()
        .map(|p| p.name.clone())
        .collect();
    let mut parted = false;
    for (c, x) in burst
        .samples
        .iter()
        .flat_map(|x| [x; dect::transceiver::CYCLES_PER_SYMBOL])
        .enumerate()
    {
        batch.set_input("sample", Value::Fixed(*x)).unwrap();
        batch.set_input("hold_request", Value::Bool(false)).unwrap();
        batch.step().unwrap();
        for sim in &mut solo {
            sim.set_input("sample", Value::Fixed(*x)).unwrap();
            sim.set_input("hold_request", Value::Bool(false)).unwrap();
            sim.step().unwrap();
        }
        for o in &outputs {
            let lanes = [0, 1].map(|l| batch.output_lane(l, o).unwrap());
            for (l, sim) in solo.iter().enumerate() {
                assert_eq!(lanes[l], sim.output(o).unwrap(), "lane {l} `{o}` cycle {c}");
            }
            parted |= lanes[0] != lanes[1];
        }
    }
    assert!(parted, "the variants' ROMs never showed");
}

/// An accumulator that reports itself as a 4-word ROM, but whose
/// address port is 3 bits wide: not the memory shape, so the tape fires
/// the block itself.
#[derive(Debug, Clone)]
struct Misreported {
    acc: u64,
}

impl UntimedBlock for Misreported {
    fn name(&self) -> &str {
        "acc"
    }

    fn input_ports(&self) -> Vec<PortDecl> {
        vec![PortDecl {
            name: "addr".into(),
            ty: SigType::Bits(3),
        }]
    }

    fn output_ports(&self) -> Vec<PortDecl> {
        vec![PortDecl {
            name: "data".into(),
            ty: SigType::Bits(8),
        }]
    }

    fn fire(&mut self, inputs: &[Value], outputs: &mut [Value]) {
        self.acc = (self.acc + inputs[0].as_bits().unwrap_or(0)) & 0xff;
        outputs[0] = Value::bits(8, self.acc);
    }

    fn boxed_clone(&self) -> Box<dyn UntimedBlock> {
        Box::new(self.clone())
    }

    fn reset(&mut self) {
        self.acc = 0;
    }

    fn memory_spec(&self) -> Option<MemorySpec<'_>> {
        Some(MemorySpec {
            is_rom: true,
            addr_bits: 2,
            word: SigType::Bits(8),
            contents: vec![Value::bits(8, 7); 4].into(),
        })
    }

    fn snapshot_state(&self) -> Vec<u64> {
        vec![self.acc]
    }

    fn restore_state(&mut self, words: &[u64]) -> bool {
        match words {
            [w] if *w <= 0xff => {
                self.acc = *w;
                true
            }
            _ => false,
        }
    }
}

/// A block that reports a `MemorySpec` but is wired in another shape
/// runs on the generic `Fire`: at 1 and 3 lanes every output equals the
/// interpreter's, and every lane's state section is the block's own.
#[test]
fn a_memory_spec_in_another_shape_fires_the_block() {
    let make = || {
        let mut sb = System::build("misreported");
        let b = sb.add_block(Box::new(Misreported { acc: 0 })).unwrap();
        sb.input("a", SigType::Bits(3)).unwrap();
        sb.connect_input("a", b, "addr").unwrap();
        sb.output("y", b, "data").unwrap();
        sb.finish().unwrap()
    };
    for lanes in [1, 3] {
        let mut interp = InterpSim::new(make()).unwrap();
        let mut batch = BatchedSim::from_fn(lanes, || Ok(make()), OptLevel::Full).unwrap();
        for c in 0..12u64 {
            let a = Value::bits(3, (c * 5 + 3) % 8);
            interp.set_input("a", a).unwrap();
            interp.step().unwrap();
            batch.set_input("a", a).unwrap();
            batch.step().unwrap();
            let y = interp.output("y").unwrap();
            for l in 0..lanes {
                assert_eq!(batch.output_lane(l, "y").unwrap(), y, "lane {l} cycle {c}");
                let snap = batch.snapshot_lane(l).unwrap();
                assert_eq!(snap.section("untimed.0"), Some(&[y.to_raw()][..]));
            }
        }
    }
}

/// A lane whose block at a memory's index is not that memory is refused
/// with a diagnostic naming the lane: lane 1's `ram` has the RAM's
/// ports but is a closure that reports no `MemorySpec`.
#[test]
fn a_lane_whose_block_is_not_the_memory_is_refused() {
    let ram = Ram::new("ram", 4, SigType::Bits(8));
    let not_a_ram = || {
        ram_system_with(Box::new(FnBlock::new(
            "ram",
            ram.input_ports(),
            ram.output_ports(),
            |_, out| out[0] = Value::bits(8, 0),
        )))
    };
    let tape = CompiledTape::compile(&ram_system(), OptLevel::Full).unwrap();
    for result in [
        BatchedSim::new(vec![ram_system(), not_a_ram()]),
        BatchedSim::from_tape(vec![ram_system(), ram_system(), not_a_ram()], &tape),
    ] {
        match result {
            Err(CoreError::CheckFailed { diagnostics }) => {
                assert_eq!(diagnostics.len(), 1, "{diagnostics:?}");
                assert!(diagnostics[0].starts_with("lane "), "{diagnostics:?}");
                assert!(diagnostics[0].contains("`ram`"), "{diagnostics:?}");
            }
            other => panic!("expected CheckFailed, got {:?}", other.map(|_| ())),
        }
    }
    // The other way round, lane 0's block is generic and lane 1's `Ram`
    // fires as a block too.
    assert!(BatchedSim::new(vec![not_a_ram(), ram_system()]).is_ok());
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
// Bool-dense differentials: every lane geometry, masked lanes.
// ---------------------------------------------------------------------------

/// A Bool-dense design: AND/OR/XOR chains, NOT, `==`/`>` comparisons,
/// a mux (SELECT), and a Bool register so state feeds back through the
/// Bool logic every cycle.
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

/// The lane geometry is unobservable next to scalar compiled runs at
/// every opt level — including 64 lanes (eight full 8-lane chunks) and
/// 3 (a chunk tail only).
#[test]
fn batched_bool_system_matches_scalar_lanes_1_3_8_64() {
    for level in [OptLevel::None, OptLevel::Full] {
        for lanes in [1usize, 3, 8, 64] {
            assert_batch_matches_scalar(&bool_gate_system, &bool_stimulus, lanes, level, 24);
        }
    }
}

/// Masking a lane mid-run moves the batch onto the mask-guarded
/// kernels; the masked lane freezes and the survivors still match their
/// scalar twins bit-for-bit.
#[test]
fn masked_bool_lane_forces_scalar_fallback_and_survivors_match() {
    let lanes = 8;
    let mut batch = BatchedSim::from_fn(lanes, || Ok(bool_gate_system()), OptLevel::Full).unwrap();
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
