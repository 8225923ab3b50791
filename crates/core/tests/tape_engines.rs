//! Differential suite for the two tape engines on the in-tree designs.
//!
//! `CompiledSim` and `BatchedSim` run the same micro-op executor over
//! one lane and over N lane stripes; both must match the interpreter
//! exactly. Every primary output *and every named net* is compared each
//! cycle, at all three optimization levels, on all five in-tree designs
//! (HCOR, DECT transceiver, modem, WLAN, image): `CompiledSim`, and
//! `BatchedSim` at 1 and 64 lanes (lanes 0 and 63 peeked), against
//! `InterpSim`. A seeded sweep (scaled up by the `slow-tests` feature)
//! drives the same designs with more random stimuli. The remaining
//! tests pin what a stored artifact depends on: the program hash of
//! every design at every level, snapshot interchange between the
//! engines, typed errors on level or family confusion, and tape reuse.

use ocapi::rng::XorShift64;
use ocapi::{
    BatchedSim, CompiledSim, CompiledTape, CoreError, Fix, InterpSim, OptLevel, Overflow, Rounding,
    SigType, Simulator, System, Value,
};
use ocapi_designs::dect::transceiver::TransceiverConfig;
use ocapi_designs::{dect, hcor, image, modem, wlan};

/// A named design builder.
type DesignBuilder = (&'static str, Box<dyn Fn() -> System>);

const LEVELS: [OptLevel; 3] = [OptLevel::None, OptLevel::Basic, OptLevel::Full];

/// The in-tree designs, by builder. `image` uses the quantiser shift
/// its own tests use; `dect` the default transceiver configuration.
fn designs() -> Vec<DesignBuilder> {
    vec![
        (
            "hcor",
            Box::new(|| hcor::build_system().expect("hcor")) as Box<dyn Fn() -> System>,
        ),
        (
            "dect",
            Box::new(|| {
                dect::transceiver::build_system(&TransceiverConfig::default()).expect("dect")
            }),
        ),
        ("modem", Box::new(|| modem::build_system().expect("modem"))),
        ("wlan", Box::new(|| wlan::build_system().expect("wlan"))),
        ("image", Box::new(|| image::build_system(2).expect("image"))),
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

/// Drives interp, compiled and 1- and 64-lane batched engines (each
/// tape engine at opt {0,1,2}) with identical random stimuli — the
/// batches broadcast them to every lane — and asserts every output and
/// every net agrees cycle by cycle.
fn assert_engines_agree(name: &str, mk: &dyn Fn() -> System, seed: u64, cycles: u64) {
    let probe = mk();
    let net_names: Vec<String> = probe.nets.iter().map(|n| n.name.clone()).collect();
    let out_names: Vec<String> = probe
        .primary_outputs
        .iter()
        .map(|p| p.name.clone())
        .collect();
    let in_sig: Vec<(String, SigType)> = probe
        .primary_inputs
        .iter()
        .map(|p| (p.name.clone(), p.ty))
        .collect();

    let mut interp = InterpSim::new(mk()).expect("interp");
    let mut compiled: Vec<(OptLevel, CompiledSim)> = LEVELS
        .into_iter()
        .map(|l| (l, CompiledSim::new_with(mk(), l).expect("compiled")))
        .collect();
    let mut batched: Vec<(OptLevel, BatchedSim)> = LEVELS
        .into_iter()
        .flat_map(|l| [1, 64].map(|lanes| (l, lanes)))
        .map(|(l, lanes)| {
            let sim = BatchedSim::from_fn(lanes, || Ok(mk()), l).expect("batched");
            (l, sim)
        })
        .collect();

    let mut rng = XorShift64::new(seed);
    for cyc in 0..cycles {
        let inputs: Vec<(String, Value)> = in_sig
            .iter()
            .map(|(n, ty)| (n.clone(), random_input(*ty, &mut rng)))
            .collect();
        for sim in std::iter::once(&mut interp as &mut dyn Simulator)
            .chain(compiled.iter_mut().map(|(_, s)| s as &mut dyn Simulator))
            .chain(batched.iter_mut().map(|(_, s)| s as &mut dyn Simulator))
        {
            for (n, v) in &inputs {
                sim.set_input(n, *v).expect("set_input");
            }
            sim.step().expect("step");
        }
        for out in &out_names {
            let want = interp.output(out).expect("output");
            for (l, sim) in &compiled {
                assert_eq!(
                    want,
                    sim.output(out).expect("output"),
                    "{name}: compiled output `{out}` diverged at cycle {cyc} ({l:?})"
                );
            }
            for (l, sim) in &batched {
                for lane in [0, sim.lanes() - 1] {
                    assert_eq!(
                        want,
                        sim.output_lane(lane, out).expect("output"),
                        "{name}: batched x{} lane {lane} output `{out}` diverged at cycle \
                         {cyc} ({l:?})",
                        sim.lanes()
                    );
                }
            }
        }
        for net in &net_names {
            let want = interp.peek_net(net).expect("peek_net");
            for (l, sim) in &compiled {
                assert_eq!(
                    want,
                    sim.peek_net(net).expect("peek_net"),
                    "{name}: compiled net `{net}` diverged at cycle {cyc} ({l:?})"
                );
            }
            for (l, sim) in &batched {
                for lane in [0, sim.lanes() - 1] {
                    assert_eq!(
                        want,
                        sim.peek_net_lane(lane, net).expect("peek_net"),
                        "{name}: batched x{} lane {lane} net `{net}` diverged at cycle \
                         {cyc} ({l:?})",
                        sim.lanes()
                    );
                }
            }
        }
    }
}

#[test]
fn tape_engines_match_interp_on_all_designs() {
    for (name, mk) in designs() {
        assert_engines_agree(name, mk.as_ref(), 0xD1FF_u64 ^ name.len() as u64, 48);
    }
}

/// Seeded sweep: more seeds × more cycles under `slow-tests`.
#[test]
fn tape_engines_fuzz_sweep_stays_bit_identical() {
    let (seeds, cycles) = if cfg!(feature = "slow-tests") {
        (8u64, 256)
    } else {
        (2u64, 64)
    };
    for (name, mk) in designs() {
        for j in 0..seeds {
            let seed = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(j + 1) ^ name.len() as u64;
            assert_engines_agree(name, mk.as_ref(), seed, cycles);
        }
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

#[test]
fn snapshot_level_and_family_confusion_stays_typed() {
    let mk = || hcor::build_system().expect("hcor");

    // Different opt level → different design hash → SnapshotMismatch.
    let c0 = CompiledSim::new_with(mk(), OptLevel::None).expect("compiled");
    let mut c2 = CompiledSim::new_with(mk(), OptLevel::Full).expect("compiled");
    let mut b2 = BatchedSim::from_fn(2, || Ok(mk()), OptLevel::Full).expect("batched");
    match c2.restore(&c0.snapshot()) {
        Err(CoreError::SnapshotMismatch { .. }) => {}
        other => panic!("expected SnapshotMismatch, got {other:?}"),
    }
    match b2.restore_lane(1, &c0.snapshot()) {
        Err(CoreError::SnapshotMismatch { .. }) => {}
        other => panic!("expected SnapshotMismatch, got {other:?}"),
    }

    // Interp snapshots belong to the other back-end family.
    let i = InterpSim::new(mk()).expect("interp");
    match c2.restore(&i.snapshot()) {
        Err(CoreError::SnapshotFormat { .. }) => {}
        other => panic!("expected SnapshotFormat, got {other:?}"),
    }
    match b2.restore_lane(0, &i.snapshot()) {
        Err(CoreError::SnapshotFormat { .. }) => {}
        other => panic!("expected SnapshotFormat, got {other:?}"),
    }
}

#[test]
fn tape_reuse_matches_fresh_compilation() {
    let mk = || wlan::build_system().expect("wlan");
    let tape = CompiledTape::compile(&mk(), OptLevel::Full).expect("tape");
    let mut from_tape = CompiledSim::from_tape(mk(), &tape).expect("from_tape");
    let mut fresh = CompiledSim::new_with(mk(), OptLevel::Full).expect("fresh");
    let mut batch = BatchedSim::from_tape(vec![mk(), mk()], &tape).expect("from_tape");
    assert_eq!(from_tape.design_hash(), fresh.design_hash());
    assert_eq!(tape.program_hash(), fresh.design_hash());
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
    match BatchedSim::from_tape(vec![wlan()], &tape) {
        Err(CoreError::TapeMismatch { .. }) => {}
        other => panic!("expected TapeMismatch, got {:?}", other.map(|_| ())),
    }
}
