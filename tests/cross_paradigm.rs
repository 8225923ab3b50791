//! Workspace-level integration: the same captured designs driven through
//! all four simulation paradigms (interpreted, compiled, event-driven RT,
//! gate-level netlist) must agree cycle for cycle — the property that
//! makes the paper's Table 1 a comparison of *speeds*, not semantics.

use asic_dse::ocapi::{CompiledSim, InterpSim, Simulator, Value};
use asic_dse::ocapi_designs::dect::burst::{generate, BurstConfig};
use asic_dse::ocapi_designs::dect::transceiver::{build_system, run_burst, TransceiverConfig};
use asic_dse::ocapi_designs::{hcor, modem, wlan};
use asic_dse::ocapi_gatesim::GateSystemSim;
use asic_dse::ocapi_rtl::RtlSystemSim;
use asic_dse::ocapi_synth::SynthOptions;

#[test]
fn hcor_four_paradigms_agree() {
    let bits = hcor::test_pattern(40, 77);
    let run = |sim: &mut dyn Simulator| -> (Option<u64>, Value, Value) {
        let hit = hcor::run_detection(sim, &bits, 15).expect("run");
        (
            hit,
            sim.output("corr").expect("out"),
            sim.output("sync_pos").expect("out"),
        )
    };
    let mut interp = InterpSim::new(hcor::build_system().expect("build")).expect("sim");
    let a = run(&mut interp);
    let mut compiled = CompiledSim::new(hcor::build_system().expect("build")).expect("sim");
    assert_eq!(a, run(&mut compiled), "compiled");
    let mut rtl = RtlSystemSim::new(hcor::build_system().expect("build")).expect("sim");
    assert_eq!(a, run(&mut rtl), "rtl");
    let mut gates = GateSystemSim::new(
        hcor::build_system().expect("build"),
        &SynthOptions::default(),
    )
    .expect("sim");
    assert_eq!(a, run(&mut gates), "gates");
}

#[test]
fn dect_four_paradigms_agree() {
    let cfg = TransceiverConfig::default();
    let burst = generate(&BurstConfig {
        payload_len: 8,
        ..BurstConfig::default()
    });
    let mut interp = InterpSim::new(build_system(&cfg).expect("build")).expect("sim");
    let a = run_burst(&mut interp, &burst, None).expect("run");
    let mut compiled = CompiledSim::new(build_system(&cfg).expect("build")).expect("sim");
    let b = run_burst(&mut compiled, &burst, None).expect("run");
    assert_eq!(a, b, "compiled");
    let mut rtl = RtlSystemSim::new(build_system(&cfg).expect("build")).expect("sim");
    let c = run_burst(&mut rtl, &burst, None).expect("run");
    assert_eq!(a, c, "rtl");
    let mut gates =
        GateSystemSim::new(build_system(&cfg).expect("build"), &SynthOptions::default())
            .expect("sim");
    let d = run_burst(&mut gates, &burst, None).expect("run");
    assert_eq!(a, d, "gates");
}

#[test]
fn dect_hold_agrees_across_paradigms() {
    let cfg = TransceiverConfig::default();
    let burst = generate(&BurstConfig {
        payload_len: 8,
        ..BurstConfig::default()
    });
    let hold = Some((37, 9));
    let mut interp = InterpSim::new(build_system(&cfg).expect("build")).expect("sim");
    let a = run_burst(&mut interp, &burst, hold).expect("run");
    let mut rtl = RtlSystemSim::new(build_system(&cfg).expect("build")).expect("sim");
    let b = run_burst(&mut rtl, &burst, hold).expect("run");
    assert_eq!(a, b, "rtl under hold");
    let mut gates =
        GateSystemSim::new(build_system(&cfg).expect("build"), &SynthOptions::default())
            .expect("sim");
    let c = run_burst(&mut gates, &burst, hold).expect("run");
    assert_eq!(a, c, "gates under hold");
}

#[test]
fn wlan_paradigms_agree() {
    let drive = |sim: &mut dyn Simulator| -> Vec<(Value, Value)> {
        sim.set_input("en", Value::Bool(true)).expect("set");
        let mut out = Vec::new();
        for i in 0..66 {
            sim.set_input("bit", Value::Bool(i % 7 < 3)).expect("set");
            sim.step().expect("step");
            out.push((
                sim.output("corr").expect("out"),
                sim.output("peak").expect("out"),
            ));
        }
        out
    };
    let mut interp = InterpSim::new(wlan::build_system().expect("build")).expect("sim");
    let a = drive(&mut interp);
    let mut compiled = CompiledSim::new(wlan::build_system().expect("build")).expect("sim");
    assert_eq!(a, drive(&mut compiled), "compiled");
    let mut rtl = RtlSystemSim::new(wlan::build_system().expect("build")).expect("sim");
    assert_eq!(a, drive(&mut rtl), "rtl");
    let mut gates = GateSystemSim::new(
        wlan::build_system().expect("build"),
        &SynthOptions::default(),
    )
    .expect("sim");
    assert_eq!(a, drive(&mut gates), "gates");
}

#[test]
fn modem_paradigms_agree() {
    let drive = |sim: &mut dyn Simulator| -> Vec<(Value, Value, Value)> {
        sim.set_input("en", Value::Bool(true)).expect("set");
        let mut out = Vec::new();
        for i in 0..64 {
            sim.set_input("bit", Value::Bool(i % 5 == 2)).expect("set");
            sim.step().expect("step");
            out.push((
                sim.output("i").expect("out"),
                sim.output("q").expect("out"),
                sim.output("sym_valid").expect("out"),
            ));
        }
        out
    };
    let mut interp = InterpSim::new(modem::build_system().expect("build")).expect("sim");
    let a = drive(&mut interp);
    let mut compiled = CompiledSim::new(modem::build_system().expect("build")).expect("sim");
    assert_eq!(a, drive(&mut compiled));
    let mut rtl = RtlSystemSim::new(modem::build_system().expect("build")).expect("sim");
    assert_eq!(a, drive(&mut rtl));
}

#[test]
fn image_compressor_paradigms_agree() {
    use asic_dse::ocapi::Fix;
    use asic_dse::ocapi::{Overflow, Rounding};
    use asic_dse::ocapi_designs::image;
    let drive = |sim: &mut dyn Simulator| -> Vec<Value> {
        let block = [0.6, -0.4, 0.2, 0.8, -0.7, 0.1, -0.2, 0.5];
        sim.set_input("start", Value::Bool(true)).expect("set");
        let mut out = Vec::new();
        for (i, p) in block.iter().enumerate() {
            sim.set_input(
                "pixel",
                Value::Fixed(Fix::from_f64(
                    *p,
                    image::pixel_fmt(),
                    Rounding::Nearest,
                    Overflow::Saturate,
                )),
            )
            .expect("set");
            sim.step().expect("step");
            if i == 0 {
                sim.set_input("start", Value::Bool(false)).expect("set");
            }
        }
        for _ in 0..8 {
            sim.step().expect("step");
            out.push(sim.output("coef").expect("out"));
        }
        out
    };
    let mut interp = InterpSim::new(image::build_system(1).expect("build")).expect("sim");
    let a = drive(&mut interp);
    let mut compiled = CompiledSim::new(image::build_system(1).expect("build")).expect("sim");
    assert_eq!(a, drive(&mut compiled), "compiled");
    let mut rtl = RtlSystemSim::new(image::build_system(1).expect("build")).expect("sim");
    assert_eq!(a, drive(&mut rtl), "rtl");
    let mut gates = GateSystemSim::new(
        image::build_system(1).expect("build"),
        &SynthOptions::default(),
    )
    .expect("sim");
    assert_eq!(a, drive(&mut gates), "gates");
}
