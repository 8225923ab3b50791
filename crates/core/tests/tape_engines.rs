//! Pins for the two tape engines on the in-tree designs.
//!
//! `CompiledSim` and `BatchedSim` run the same micro-op executor over
//! one lane and over N lane stripes. Their every-net differential
//! against the interpreter on these designs runs here, through the
//! workspace's one every-engine checker (`tests/agree/mod.rs`) together
//! with the RT and gate engines; generated systems run through it in
//! `tests/engines_agree.rs`, and `Traced` records one trace over every
//! engine. The other tests pin what a stored artifact
//! depends on: the program hash of every design at every level,
//! snapshot interchange between the engines and levels, typed errors on
//! a snapshot of another design, key or version, tape reuse and the obs
//! counts.

#[path = "../../../tests/agree/mod.rs"]
mod agree;

use ocapi::rng::XorShift64;
use ocapi::sim::hash::Fnv;
use ocapi::sim::par::map_indexed;
use ocapi::{
    BatchedSim, CompiledDesign, CompiledSim, CompiledTape, CoreError, Fix, InterpSim, OptLevel,
    Overflow, ParConfig, Rounding, SigType, SimSnapshot, Simulator, System, Trace, Traced, Value,
};
use ocapi_designs::dect::burst::{generate, Burst, BurstConfig};
use ocapi_designs::dect::highlevel::build_mixed_system;
use ocapi_designs::dect::transceiver::TransceiverConfig;
use ocapi_designs::{dect, hcor, image, modem, wlan};
use ocapi_gatesim::GateSystemSim;
use ocapi_obs::Registry;
use ocapi_rtl::RtlSystemSim;
use ocapi_synth::SynthOptions;

const LEVELS: [OptLevel; 3] = [OptLevel::None, OptLevel::Basic, OptLevel::Full];

/// The in-tree designs, by builder. `image` uses the quantiser shift
/// its own tests use; `dect` the default transceiver configuration.
fn designs() -> [agree::Design; 5] {
    [
        ("hcor", || hcor::build_system().expect("hcor")),
        ("dect", || {
            dect::transceiver::build_system(&TransceiverConfig::default()).expect("dect")
        }),
        ("modem", || modem::build_system().expect("modem")),
        ("wlan", || wlan::build_system().expect("wlan")),
        ("image", || image::build_system(2).expect("image")),
    ]
}

/// A random type-correct value for one primary input.
fn random_input(ty: SigType, rng: &mut XorShift64) -> Value {
    match ty {
        SigType::Bool => Value::Bool(rng.next_bool()),
        SigType::Bits(w) => {
            let mask = if w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
            Value::bits(w, rng.next_u64() & mask)
        }
        SigType::Fixed(fmt) => Value::Fixed(Fix::from_f64(
            rng.next_f64() * 4.0 - 2.0,
            fmt,
            Rounding::Nearest,
            Overflow::Saturate,
        )),
        SigType::Float => Value::Float(rng.next_f64() * 4.0 - 2.0),
    }
}

/// Every design on every engine of the checker: outputs, and on the
/// tape engines every net and register, each cycle.
#[test]
fn tape_engines_match_interp_on_all_designs() {
    agree::check_designs(&designs(), &[0xD1FF], 48);
}

/// The mixed-refinement DECT, whose high-level equalizer is a generic
/// untimed block with its own state (an `untimed.<u>` section), on every
/// engine of the checker, RT and gate level included, parked and
/// restored across the interpreter and the tape engines.
#[test]
fn mixed_refinement_dect_matches_interp() {
    let mixed = || build_mixed_system(&TransceiverConfig::default()).expect("mixed dect");
    agree::check_designs(&[("dect_mixed", mixed)], &[0x313D], 48);
}

/// HCOR and DECT (fixed-point outputs, RAM and ROM blocks) classify
/// every fault event alike on every campaign driver.
#[test]
fn fault_campaigns_agree_on_hcor_and_dect() {
    agree::check_design_faults(&designs()[..2], 0xFA17, 48);
}

/// Seeded sweep: more seeds × more cycles under `slow-tests`, the
/// seeds' stimuli back to back on one build of each design.
#[test]
fn tape_engines_fuzz_sweep_stays_bit_identical() {
    let (seeds, cycles) = if agree::SLOW { (8, 256) } else { (2, 64) };
    let seeds: Vec<u64> = (1..=seeds)
        .map(|j| 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(j))
        .collect();
    agree::check_designs(&designs(), &seeds, cycles);
}

/// `cycles` cycles of `sim` wrapped in [`Traced`], each setting three
/// in four primary inputs to a random value drawn from `seed`, so some
/// inputs stay unset for a while and others hold a value over cycles.
fn traced_run<S: Simulator>(sim: S, seed: u64, cycles: usize) -> Result<Trace, CoreError> {
    let mut sim = Traced::new(sim);
    let inputs = sim.trace().signals.iter().filter(|s| s.is_input);
    let inputs: Vec<(String, SigType)> = inputs.map(|s| (s.name.clone(), s.ty)).collect();
    let mut rng = XorShift64::new(seed);
    for _ in 0..cycles {
        for (name, ty) in &inputs {
            let v = random_input(*ty, &mut rng);
            if rng.chance(0.75) {
                sim.set_input(name, v)?;
            }
        }
        sim.step()?;
    }
    Ok(sim.trace().clone())
}

/// `Traced` records one trace whatever it wraps: on every design, the
/// interpreter, compiled at `None` and `Full`, lane 0 of a four-lane
/// batch, RT and gate level, driven alike, record equal traces of one
/// row a cycle. The gates skip synthesis's post-optimisation, which
/// would take most of this test's time in a debug build.
#[test]
fn traced_engines_record_equal_traces() {
    const CYCLES: usize = 48;
    let unoptimized = SynthOptions {
        optimize: false,
        ..SynthOptions::default()
    };
    let result = map_indexed(&ParConfig::available(), &designs(), |i, (name, mk)| {
        let seed = 0x7ACE + i as u64;
        let run = |engine: &str, trace: Result<Trace, CoreError>| {
            trace.map_err(|e| format!("{name} on {engine}: {e}"))
        };
        let batched = BatchedSim::from_fn(4, || Ok(mk()), OptLevel::Full);
        let gates = GateSystemSim::new(mk(), &unoptimized);
        let want = run(
            "interp",
            InterpSim::new(mk()).and_then(|s| traced_run(s, seed, CYCLES)),
        )?;
        let got = [
            (
                "compiled None",
                CompiledSim::new_with(mk(), OptLevel::None)
                    .and_then(|s| traced_run(s, seed, CYCLES)),
            ),
            (
                "compiled Full",
                CompiledSim::new_with(mk(), OptLevel::Full)
                    .and_then(|s| traced_run(s, seed, CYCLES)),
            ),
            ("batched", batched.and_then(|s| traced_run(s, seed, CYCLES))),
            (
                "rtl",
                RtlSystemSim::new(mk()).and_then(|s| traced_run(s, seed, CYCLES)),
            ),
            ("gates", gates.and_then(|s| traced_run(s, seed, CYCLES))),
        ];
        if want.len() != CYCLES {
            return Err(format!("{name}: {} rows, not {CYCLES}", want.len()));
        }
        for (engine, trace) in got {
            if run(engine, trace)? != want {
                return Err(format!("{name}: the {engine} trace differs from interp's"));
            }
        }
        Ok(())
    });
    if let Err(e) = result {
        panic!("{e}");
    }
}

/// The program hash keys snapshots, cached tapes and checkpoint
/// manifests, so it must not move when the executor changes: these are
/// the values of every design at `OptLevel` None, Basic and Full.
#[test]
fn program_hashes_are_pinned() {
    let pinned: [(&str, [u64; 3]); 5] = [
        (
            "hcor",
            [
                0xd545_6023_849f_8f07,
                0x27a7_24ad_001d_5382,
                0xdcc4_cecc_5142_be57,
            ],
        ),
        (
            "dect",
            [
                0x96e2_df99_3776_d0db,
                0xa02f_3600_eb11_b2c0,
                0x7a1c_1a90_4382_6660,
            ],
        ),
        (
            "modem",
            [
                0xd06b_47ca_3383_dcf3,
                0xd06b_47ca_3383_dcf3,
                0xd06b_47ca_3383_dcf3,
            ],
        ),
        (
            "wlan",
            [
                0xc688_6ffb_1195_94b9,
                0xc688_6ffb_1195_94b9,
                0x62b9_f596_48c6_23a8,
            ],
        ),
        (
            "image",
            [
                0xb38e_c71f_cd8f_9ba7,
                0xb38e_c71f_cd8f_9ba7,
                0xcf2e_84d8_5f15_c54c,
            ],
        ),
    ];
    for ((name, mk), (pinned_name, hashes)) in designs().into_iter().zip(pinned) {
        assert_eq!(name, pinned_name);
        for (level, want) in LEVELS.into_iter().zip(hashes) {
            let got = CompiledTape::compile(&mk(), level)
                .expect("tape")
                .program_hash();
            assert_eq!(got, want, "{name} at {level:?}: {got:#018x}");
        }
    }
}

/// Runs `sim` for `n` cycles of deterministic stimuli.
fn warm(sim: &mut dyn Simulator, sig: &[(String, SigType)], seed: u64, n: u64) {
    let mut rng = XorShift64::new(seed);
    for _ in 0..n {
        for (name, ty) in sig {
            sim.set_input(name, random_input(*ty, &mut rng))
                .expect("set_input");
        }
        sim.step().expect("step");
    }
}

fn input_sig(sys: &System) -> Vec<(String, SigType)> {
    sys.primary_inputs
        .iter()
        .map(|p| (p.name.clone(), p.ty))
        .collect()
}

#[test]
fn snapshots_round_trip_between_compiled_and_batched_lanes() {
    let mk = || hcor::build_system().expect("hcor");
    let sig = input_sig(&mk());
    let out_names: Vec<String> = mk()
        .primary_outputs
        .iter()
        .map(|p| p.name.clone())
        .collect();

    // compiled → batched: run compiled, park it, resume every lane.
    let mut c = CompiledSim::new_with(mk(), OptLevel::Full).expect("compiled");
    warm(&mut c, &sig, 7, 40);
    let snap = c.snapshot();
    let mut b = BatchedSim::from_fn(64, || Ok(mk()), OptLevel::Full).expect("batched");
    for lane in 0..b.lanes() {
        b.restore_lane(lane, &snap)
            .expect("compiled snapshot restores into a lane");
    }
    assert_eq!(b.cycle(), c.cycle());

    // batched → compiled: both stay in lockstep under further identical
    // stimuli, then the last lane parks back into a fresh compiled sim.
    warm(&mut b, &sig, 11, 40);
    warm(&mut c, &sig, 11, 40);
    for out in &out_names {
        for lane in [0, 63] {
            assert_eq!(
                b.output_lane(lane, out).expect("output"),
                c.output(out).expect("output"),
                "post-restore lockstep broke on `{out}` lane {lane}"
            );
        }
    }
    let mut c2 = CompiledSim::new_with(mk(), OptLevel::Full).expect("compiled");
    c2.restore(&b.snapshot_lane(63).expect("lane snapshot"))
        .expect("lane snapshot restores into compiled");
    assert_eq!(c2.snapshot(), c.snapshot());
}

/// A snapshot crosses optimization levels and engine families: HCOR
/// parked on compiled at `None` resumes in a lane of a `Full` batch and
/// on the interpreter, and each then snapshots the same bytes as an
/// unbroken `Full` run; a snapshot of another design stays a typed
/// `SnapshotMismatch`.
#[test]
fn snapshots_cross_levels_and_families_but_not_designs() {
    let mk = || hcor::build_system().expect("hcor");
    let sig = input_sig(&mk());
    let mut c0 = CompiledSim::new_with(mk(), OptLevel::None).expect("compiled");
    let mut c2 = CompiledSim::new_with(mk(), OptLevel::Full).expect("compiled");
    warm(&mut c0, &sig, 5, 30);
    warm(&mut c2, &sig, 5, 30);
    let parked = c0.snapshot();
    assert_eq!(parked.to_bytes(), c2.snapshot().to_bytes());

    let mut b2 = BatchedSim::from_fn(2, || Ok(mk()), OptLevel::Full).expect("batched");
    b2.restore_lane(1, &parked)
        .expect("None snapshot into a Full lane");
    let mut i = InterpSim::new(mk()).expect("interp");
    i.restore(&parked)
        .expect("compiled snapshot into the interpreter");
    warm(&mut c2, &sig, 6, 20);
    warm(&mut b2, &sig, 6, 20);
    warm(&mut i, &sig, 6, 20);
    let want = c2.snapshot();
    assert_eq!(b2.snapshot_lane(1).expect("lane"), want);
    assert_eq!(i.snapshot(), want);

    let wlan = || wlan::build_system().expect("wlan");
    let other = InterpSim::new(wlan()).expect("interp").snapshot();
    match b2.restore_lane(0, &other) {
        Err(CoreError::SnapshotMismatch { .. }) => {}
        other => panic!("expected SnapshotMismatch, got {other:?}"),
    }
    match CompiledSim::new(wlan()).expect("compiled").restore(&want) {
        Err(CoreError::SnapshotMismatch { .. }) => {}
        other => panic!("expected SnapshotMismatch, got {other:?}"),
    }
}

/// What once told the levels and families apart stays a typed error,
/// never a silent restore: a snapshot keyed on a level's program hash
/// (the old slot layout's key, which `session.open` still reports) is a
/// `SnapshotMismatch` on the interpreter, on `CompiledSim` at that level
/// and in a batch lane, and the family-tagged version-1 bytes are a
/// `SnapshotFormat`.
#[test]
fn snapshot_level_and_family_confusion_stays_typed() {
    let mk = || hcor::build_system().expect("hcor");
    let snap = InterpSim::new(mk()).expect("interp").snapshot();
    let design = snap.design_hash();
    // `snap` with its header field at `offset` overwritten, re-framed
    // with a fresh checksum.
    let patched = |offset: usize, field: &[u8]| {
        let mut bytes = snap.to_bytes();
        let body = bytes.len() - 8;
        bytes[offset..offset + field.len()].copy_from_slice(field);
        let mut h = Fnv::new();
        h.write(&bytes[..body]);
        bytes[body..].copy_from_slice(&h.finish().to_le_bytes());
        SimSnapshot::from_bytes(&bytes)
    };
    for level in LEVELS {
        let program = CompiledTape::compile(&mk(), level)
            .expect("tape")
            .program_hash();
        assert_ne!(program, design, "{level:?}");
        let keyed = patched(6, &program.to_le_bytes()).expect("re-keyed snapshot");
        let mut i = InterpSim::new(mk()).expect("interp");
        let mut c = CompiledSim::new_with(mk(), level).expect("compiled");
        let mut b = BatchedSim::from_fn(2, || Ok(mk()), level).expect("batched");
        for (engine, result) in [
            ("interp", i.restore(&keyed)),
            ("compiled", c.restore(&keyed)),
            ("batched", b.restore_lane(1, &keyed)),
        ] {
            match result {
                Err(CoreError::SnapshotMismatch { expected, got }) => {
                    assert_eq!((expected, got), (design, program), "{engine} at {level:?}");
                }
                other => panic!("{engine} at {level:?}: expected SnapshotMismatch, got {other:?}"),
            }
        }
    }
    match patched(4, &1u16.to_le_bytes()) {
        Err(CoreError::SnapshotFormat { reason }) => {
            assert_eq!(reason, "unsupported snapshot version 1");
        }
        other => panic!("expected SnapshotFormat, got {other:?}"),
    }
}

#[test]
fn tape_reuse_matches_fresh_compilation() {
    let mk = || wlan::build_system().expect("wlan");
    let tape = CompiledTape::compile(&mk(), OptLevel::Full).expect("tape");
    let mut from_tape = CompiledSim::from_tape(mk(), &tape).expect("from_tape");
    let mut fresh = CompiledSim::new_with(mk(), OptLevel::Full).expect("fresh");
    let design = CompiledDesign::new(mk(), OptLevel::Full, |_| Some(tape.clone())).expect("design");
    let mut batch = BatchedSim::from_design(&design, 2).expect("from_design");
    assert_eq!(from_tape.design_hash(), fresh.design_hash());
    assert_eq!(tape.system_hash(), fresh.design_hash());
    assert_eq!(batch.design_hash(), fresh.design_hash());

    let sig = input_sig(&mk());
    warm(&mut from_tape, &sig, 3, 64);
    warm(&mut fresh, &sig, 3, 64);
    warm(&mut batch, &sig, 3, 64);
    for po in mk().primary_outputs.iter() {
        let want = fresh.output(&po.name).expect("output");
        assert_eq!(from_tape.output(&po.name).expect("output"), want);
        assert_eq!(batch.output_lane(1, &po.name).expect("output"), want);
    }
}

#[test]
fn tape_rejects_the_wrong_system() {
    let tape =
        CompiledTape::compile(&hcor::build_system().expect("hcor"), OptLevel::Full).expect("tape");
    let wlan = || wlan::build_system().expect("wlan");
    match CompiledSim::from_tape(wlan(), &tape) {
        Err(CoreError::TapeMismatch { .. }) => {}
        other => panic!("expected TapeMismatch, got {:?}", other.map(|_| ())),
    }
    match CompiledDesign::new(wlan(), OptLevel::Full, |_| Some(tape.clone())) {
        Err(CoreError::TapeMismatch { .. }) => {}
        other => panic!("expected TapeMismatch, got {:?}", other.map(|_| ())),
    }
}

/// `(name, value)` of each named counter, then `(root/child, hits)` of
/// every phase span in the registry.
fn obs_pin(reg: &Registry, counters: &[&str]) -> Vec<(String, u64)> {
    let mut pin: Vec<(String, u64)> = counters
        .iter()
        .map(|c| ((*c).to_owned(), reg.counter(c).get()))
        .collect();
    for root in reg.roots() {
        for child in root.children() {
            pin.push((format!("{}/{}", root.label(), child.label()), child.count()));
        }
    }
    pin
}

const COMPILED_COUNTERS: [&str; 10] = [
    "compiled.cycles",
    "compiled.sfg_firings",
    "compiled.convergence_iters",
    "compiled.reg_updates",
    "compiled.opt.instrs_in",
    "compiled.opt.instrs_out",
    "compiled.opt.folded",
    "compiled.opt.cse_hits",
    "compiled.opt.dce_removed",
    "compiled.opt.slots_saved",
];

const BATCH_COUNTERS: [&str; 3] = ["batch.lanes", "batch.masked_lanes", "batch.tape_passes"];

/// The compiled and batch observability bundles count exactly what they
/// counted before the tape engines shared one simulator type. HCOR and
/// DECT run a fixed stimulus: `CompiledSim` 16 cycles, 24 more, a reset
/// and 8 more; a one-lane batch masked after 32 cycles (the next step
/// fails); an 8-lane batch with lane 3 masked after 20 of its 40
/// cycles.
#[test]
fn tape_engine_obs_counts_are_pinned() {
    let one_lane: &[(&str, u64)] = &[
        ("batch.lanes", 1),
        ("batch.masked_lanes", 1),
        ("batch.tape_passes", 32),
        ("batch/guard_pre_tape", 32),
        ("batch/register_update", 32),
        ("batch/tape", 32),
        ("batch/transition_select", 32),
    ];
    let eight_lanes: &[(&str, u64)] = &[
        ("batch.lanes", 8),
        ("batch.masked_lanes", 1),
        ("batch.tape_passes", 40),
        ("batch/guard_pre_tape", 40),
        ("batch/register_update", 40),
        ("batch/tape", 40),
        ("batch/transition_select", 40),
    ];
    let pinned: [(&str, &[(&str, u64)]); 2] = [
        (
            "hcor",
            &[
                ("compiled.cycles", 48),
                ("compiled.sfg_firings", 48),
                ("compiled.convergence_iters", 0),
                ("compiled.reg_updates", 190),
                ("compiled.opt.instrs_in", 92),
                ("compiled.opt.instrs_out", 65),
                ("compiled.opt.folded", 0),
                ("compiled.opt.cse_hits", 21),
                ("compiled.opt.dce_removed", 1),
                ("compiled.opt.slots_saved", 27),
                ("compiled/guard_pre_tape", 48),
                ("compiled/register_update", 48),
                ("compiled/tape", 48),
                ("compiled/transition_select", 48),
            ],
        ),
        (
            "dect",
            &[
                ("compiled.cycles", 48),
                ("compiled.sfg_firings", 1152),
                ("compiled.convergence_iters", 0),
                ("compiled.reg_updates", 1785),
                ("compiled.opt.instrs_in", 484),
                ("compiled.opt.instrs_out", 443),
                ("compiled.opt.folded", 0),
                ("compiled.opt.cse_hits", 33),
                ("compiled.opt.dce_removed", 2),
                ("compiled.opt.slots_saved", 42),
                ("compiled/guard_pre_tape", 48),
                ("compiled/register_update", 48),
                ("compiled/tape", 48),
                ("compiled/transition_select", 48),
            ],
        ),
    ];
    for ((name, mk), (pinned_name, want_c)) in designs().into_iter().zip(pinned) {
        assert_eq!(name, pinned_name);
        let sig = input_sig(&mk());
        let own = |pin: &[(&str, u64)]| -> Vec<(String, u64)> {
            pin.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
        };

        let reg = Registry::new();
        let mut c = CompiledSim::new_with(mk(), OptLevel::Full).expect("compiled");
        c.attach_obs(&reg);
        warm(&mut c, &sig, 21, 16);
        warm(&mut c, &sig, 22, 24);
        c.reset();
        warm(&mut c, &sig, 23, 8);
        let got = obs_pin(&reg, &COMPILED_COUNTERS);
        assert_eq!(got, own(want_c), "{name}: compiled");

        let reg = Registry::new();
        let mut b1 = BatchedSim::from_fn(1, || Ok(mk()), OptLevel::Full).expect("batched");
        b1.attach_obs(&reg);
        warm(&mut b1, &sig, 24, 32);
        let e = CoreError::Unsupported {
            op: "pin mask".to_owned(),
        };
        b1.fail_lane(0, e.clone());
        assert_eq!(b1.step(), Err(e), "{name}");
        let got = obs_pin(&reg, &BATCH_COUNTERS);
        assert_eq!(got, own(one_lane), "{name}: one lane");

        let reg = Registry::new();
        let mut b8 = BatchedSim::from_fn(8, || Ok(mk()), OptLevel::Full).expect("batched");
        b8.attach_obs(&reg);
        warm(&mut b8, &sig, 25, 10);
        warm(&mut b8, &sig, 26, 10);
        b8.fail_lane(
            3,
            CoreError::Unsupported {
                op: "pin mask".to_owned(),
            },
        );
        warm(&mut b8, &sig, 27, 20);
        let got = obs_pin(&reg, &BATCH_COUNTERS);
        assert_eq!(got, own(eight_lanes), "{name}: eight lanes");
    }
}

/// `snap` with section `name` holding `words`, re-framed with a fresh
/// checksum so only the restore-time checks can catch the damage.
fn with_section(snap: &SimSnapshot, name: &str, words: &[u64]) -> SimSnapshot {
    let bytes = snap.to_bytes();
    let body = &bytes[..bytes.len() - 8];
    let u32_at = |p: usize| u32::from_le_bytes([body[p], body[p + 1], body[p + 2], body[p + 3]]);
    // magic, version, design hash, cycle, sections
    let mut out = body[..26].to_vec();
    let mut pos = 26;
    for _ in 0..u32_at(22) {
        let head = 2 + usize::from(u16::from_le_bytes([body[pos], body[pos + 1]]));
        let end = pos + head + 4 + 8 * u32_at(pos + head) as usize;
        if &body[pos + 2..pos + head] == name.as_bytes() {
            out.extend_from_slice(&body[pos..pos + head]);
            out.extend_from_slice(&(words.len() as u32).to_le_bytes());
            out.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        } else {
            out.extend_from_slice(&body[pos..end]);
        }
        pos = end;
    }
    let mut h = Fnv::new();
    h.write(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    SimSnapshot::from_bytes(&out).expect("re-framed snapshot")
}

/// The tape runs DECT's RAMs and ROMs as native memories; the
/// interpreter fires the `Ram` and `Rom` blocks. Driven through its own
/// seeded burst, each lane of an 8-lane batch holds at every checkpoint
/// the `untimed.<u>` sections of a `CompiledSim` given that burst, and
/// lane 0 those of the interpreter: a RAM's words, and no section for
/// either ROM. A RAM section holding a word its type cannot hold is
/// refused with the block's `SnapshotFormat` text.
#[test]
fn native_memories_hold_what_the_interpreters_blocks_hold() {
    const LANES: usize = 8;
    let mk = || dect::transceiver::build_system(&TransceiverConfig::default()).expect("dect");
    let sys = mk();
    let sections: Vec<String> = (0..sys.untimed.len())
        .map(|u| format!("untimed.{u}"))
        .collect();
    let roms: Vec<usize> = (0..sys.untimed.len())
        .filter(|u| {
            sys.untimed[*u]
                .block
                .memory_spec()
                .is_some_and(|m| m.is_rom)
        })
        .collect();
    assert_eq!(roms.len(), 2);
    let bursts: Vec<Burst> = (0..LANES as u64)
        .map(|l| {
            generate(&BurstConfig {
                payload_len: 16,
                channel: vec![1.0, 0.5],
                noise: 0.2,
                seed: 0x3e3 + l,
            })
        })
        .collect();
    let mut interp = InterpSim::new(mk()).expect("interp");
    let mut scalar: Vec<CompiledSim> = (0..LANES)
        .map(|_| CompiledSim::new_with(mk(), OptLevel::Full).expect("compiled"))
        .collect();
    let mut batch = BatchedSim::from_fn(LANES, || Ok(mk()), OptLevel::Full).expect("batched");
    let per_symbol = dect::transceiver::CYCLES_PER_SYMBOL;
    let cycles = bursts[0].samples.len() * per_symbol;
    let memories = |snap: &SimSnapshot| -> Vec<Option<Vec<u64>>> {
        sections
            .iter()
            .map(|s| snap.section(s).map(<[u64]>::to_vec))
            .collect()
    };
    for c in 1..=cycles {
        let sample = |l: usize| {
            let b = &bursts[l].samples;
            Value::Fixed(b[((c - 1) / per_symbol) % b.len()])
        };
        interp.set_input("sample", sample(0)).expect("input");
        interp
            .set_input("hold_request", Value::Bool(false))
            .expect("input");
        interp.step().expect("step");
        for (l, sim) in scalar.iter_mut().enumerate() {
            sim.set_input("sample", sample(l)).expect("input");
            sim.set_input("hold_request", Value::Bool(false))
                .expect("input");
            sim.step().expect("step");
            batch.set_input_lane(l, "sample", sample(l)).expect("input");
        }
        batch
            .set_input("hold_request", Value::Bool(false))
            .expect("input");
        batch.step().expect("step");
        if [1, 37, cycles / 2, cycles].contains(&c) {
            let want0 = memories(&interp.snapshot());
            for u in &roms {
                assert_eq!(want0[*u], None, "ROM {u} at cycle {c}");
            }
            for (l, sim) in scalar.iter().enumerate() {
                let lane = memories(&batch.snapshot_lane(l).expect("lane"));
                assert_eq!(lane, memories(&sim.snapshot()), "lane {l} cycle {c}");
                if l == 0 {
                    assert_eq!(lane, want0, "lane 0 vs interp, cycle {c}");
                }
            }
        }
    }
    // The lanes' RAMs diverged with their bursts.
    let lane = |l: usize| memories(&batch.snapshot_lane(l).expect("lane"));
    assert_ne!(lane(0), lane(1));

    let u = sys
        .untimed
        .iter()
        .position(|b| b.block.name() == "sample_a")
        .expect("sample_a");
    let snap = scalar[2].snapshot();
    let mut words = snap.section(&sections[u]).expect("RAM section").to_vec();
    words[5] = u64::MAX >> 1;
    let bad = with_section(&snap, &sections[u], &words);
    for result in [scalar[0].restore(&bad), batch.restore_lane(4, &bad)] {
        match result {
            Err(CoreError::SnapshotFormat { reason }) => assert_eq!(
                reason,
                "untimed block `sample_a` rejected its state section"
            ),
            other => panic!("expected SnapshotFormat, got {other:?}"),
        }
    }
}
