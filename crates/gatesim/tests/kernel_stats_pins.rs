//! Pins the activity of the event-driven gate kernel: a fixed, seeded
//! stimulus on each of the five in-tree designs (through
//! `GateSystemSim`) and on a small replicated HCOR netlist (through the
//! flat `GateSim`) must produce exactly these gate-evaluation and event
//! totals. The totals fingerprint the evaluation order — any change to
//! which dirty gate the kernel evaluates next moves them. The
//! gate-evaluation totals were recorded on the min-heap worklist kernel
//! that the bitmap dirty set replaced.

use ocapi::rng::XorShift64;
use ocapi::{Fix, Overflow, Rounding, Simulator, System, Value};
use ocapi_designs::dect::burst::{generate, BurstConfig};
use ocapi_designs::dect::transceiver::{build_system, run_burst, TransceiverConfig};
use ocapi_designs::{hcor, image, modem, scaled, wlan};
use ocapi_gatesim::{GateSim, GateSimStats, GateSystemSim};
use ocapi_synth::SynthOptions;

const CYCLES: usize = 256;

/// Runs `CYCLES` cycles, setting every input from `row` each cycle.
fn drive(sys: System, inputs: &[&str], mut row: impl FnMut(usize) -> Vec<Value>) -> GateSimStats {
    let mut sim = GateSystemSim::new(sys, &SynthOptions::default()).expect("synth");
    for k in 0..CYCLES {
        for (name, v) in inputs.iter().zip(row(k)) {
            sim.set_input(name, v).expect("set");
        }
        sim.step().expect("step");
    }
    sim.stats()
}

fn stats(gate_evals: u64, events: u64) -> GateSimStats {
    GateSimStats { gate_evals, events }
}

#[test]
fn hcor_gate_stats_are_pinned() {
    let bits = hcor::test_pattern((CYCLES - hcor::TAPS) / 2, 5);
    let got = drive(
        hcor::build_system().expect("build"),
        &["bit_in", "enable", "threshold"],
        |k| {
            vec![
                Value::Bool(bits[k % bits.len()]),
                Value::Bool(k % 17 != 3),
                Value::bits(5, 14),
            ]
        },
    );
    assert_eq!(got, stats(25_019, 15_926));
}

#[test]
fn modem_gate_stats_are_pinned() {
    let mut r = XorShift64::new(11);
    let got = drive(
        modem::build_system().expect("build"),
        &["bit", "en"],
        |_| vec![Value::Bool(r.next_bool()), Value::Bool(!r.chance(0.1))],
    );
    assert_eq!(got, stats(43_292, 32_800));
}

#[test]
fn wlan_gate_stats_are_pinned() {
    let mut r = XorShift64::new(12);
    let got = drive(wlan::build_system().expect("build"), &["bit", "en"], |_| {
        vec![Value::Bool(r.next_bool()), Value::Bool(!r.chance(0.1))]
    });
    assert_eq!(got, stats(87_602, 54_628));
}

#[test]
fn image_gate_stats_are_pinned() {
    let mut r = XorShift64::new(13);
    let got = drive(
        image::build_system(2).expect("build"),
        &["pixel", "start"],
        |k| {
            let x = r.next_f64() * 2.0 - 1.0;
            vec![
                Value::Fixed(Fix::from_f64(
                    x,
                    image::pixel_fmt(),
                    Rounding::Nearest,
                    Overflow::Saturate,
                )),
                Value::Bool(k % 8 == 0),
            ]
        },
    );
    assert_eq!(got, stats(474_265, 286_450));
}

#[test]
fn dect_gate_stats_are_pinned() {
    let cfg = TransceiverConfig::default();
    let burst = generate(&BurstConfig {
        payload_len: 16,
        ..BurstConfig::default()
    });
    let mut sim = GateSystemSim::new(build_system(&cfg).expect("build"), &SynthOptions::default())
        .expect("synth");
    run_burst(&mut sim, &burst, Some((37, 9))).expect("run");
    assert_eq!(sim.cycle(), 201);
    assert_eq!(sim.stats(), stats(1_796_779, 1_034_339));
}

/// The flat kernel on its own, without the system wrapper: a fresh
/// xorshift word on every input bus of a 4-replica HCOR chain, then a
/// clock edge.
#[test]
fn flat_scaled_hcor_stats_are_pinned() {
    let net = scaled::scaled_hcor(4).expect("scaled");
    let mut sim = GateSim::new(net.clone()).expect("build");
    let mut r = XorShift64::new(21);
    for _ in 0..CYCLES {
        for (_, bus) in &net.inputs {
            sim.set_bus(bus, r.next_u64());
        }
        sim.clock().expect("clock");
    }
    assert_eq!(sim.stats(), stats(81_776, 46_176));
}
