//! Pins the event semantics of the RT-level kernel: a fixed stimulus on
//! each of the five in-tree designs must produce exactly these event,
//! process-run and delta-cycle totals. Any change to how the kernel
//! applies updates, dedups wake-ups or orders process runs, or to when
//! the untimed blocks fire, moves them.

use asic_dse::ocapi::rng::XorShift64;
use asic_dse::ocapi::{Fix, Overflow, Rounding, Simulator, System, Value};
use asic_dse::ocapi_designs::dect::burst::{generate, BurstConfig};
use asic_dse::ocapi_designs::dect::transceiver::{build_system, run_burst, TransceiverConfig};
use asic_dse::ocapi_designs::{hcor, image, modem, wlan};
use asic_dse::ocapi_rtl::{KernelStats, RtlSystemSim};

const CYCLES: usize = 300;

/// Runs `CYCLES` cycles, setting every input from `row` each cycle.
fn drive(sys: System, inputs: &[&str], mut row: impl FnMut(usize) -> Vec<Value>) -> KernelStats {
    let mut sim = RtlSystemSim::new(sys).expect("lower");
    for k in 0..CYCLES {
        for (name, v) in inputs.iter().zip(row(k)) {
            sim.set_input(name, v).expect("set");
        }
        sim.step().expect("step");
    }
    sim.stats()
}

fn stats(events: u64, process_runs: u64, deltas: u64) -> KernelStats {
    KernelStats {
        events,
        process_runs,
        deltas,
    }
}

#[test]
fn hcor_kernel_stats_are_pinned() {
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
    assert_eq!(got, stats(4678, 6825, 1842));
}

#[test]
fn modem_kernel_stats_are_pinned() {
    let mut r = XorShift64::new(11);
    let got = drive(
        modem::build_system().expect("build"),
        &["bit", "en"],
        |_| vec![Value::Bool(r.next_bool()), Value::Bool(!r.chance(0.1))],
    );
    assert_eq!(got, stats(8592, 9891, 3129));
}

#[test]
fn wlan_kernel_stats_are_pinned() {
    let mut r = XorShift64::new(12);
    let got = drive(wlan::build_system().expect("build"), &["bit", "en"], |_| {
        vec![Value::Bool(r.next_bool()), Value::Bool(!r.chance(0.1))]
    });
    assert_eq!(got, stats(6962, 7080, 2100));
}

#[test]
fn image_kernel_stats_are_pinned() {
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
    assert_eq!(got, stats(8734, 7289, 1875));
}

#[test]
fn dect_kernel_stats_are_pinned() {
    let cfg = TransceiverConfig::default();
    let burst = generate(&BurstConfig {
        payload_len: 16,
        ..BurstConfig::default()
    });
    let mut sim = RtlSystemSim::new(build_system(&cfg).expect("build")).expect("lower");
    run_burst(&mut sim, &burst, Some((37, 9))).expect("run");
    assert_eq!(sim.cycle(), 201);
    assert_eq!(sim.stats(), stats(17251, 29496, 3775));
}
