//! Every engine stops a combinational loop with its own guard, with no
//! limit set by the caller. `crates/core/tests/error_paths.rs` pins the
//! interpreter's no-progress check (`CombinationalLoop`) and the tape's
//! levelization (`NotCompilable`) on a two-instance loop that XORs 1 on
//! both sides; here the RT kernel's delta limit and the gate kernel's
//! oscillation limit must surface as `CombinationalLoop`, at
//! construction or at the first step.
//!
//! On gates that loop is two inverters in a ring, a latch that settles,
//! so there is no runaway for the oscillation limit to stop. The gate
//! test runs a ring that inverts on one side only, which oscillates.

use ocapi::{Component, CoreError, SigType, Simulator, System};
use ocapi_gatesim::GateSystemSim;
use ocapi_rtl::RtlSystemSim;
use ocapi_synth::SynthOptions;

/// A combinational component: `o` is its input XOR `mask`, with no
/// register in between.
fn xor_with(name: &str, mask: u64) -> Component {
    let c = Component::build(name);
    let i = c.input("i", SigType::Bits(8)).expect("in");
    let o = c.output("o", SigType::Bits(8)).expect("out");
    let s = c.sfg("s").expect("sfg");
    s.drive(o, &(c.read(i) ^ c.const_bits(8, mask)))
        .expect("drive");
    c.finish().expect("finish")
}

/// Two components wired head-to-tail: `a.o = b.o ^ mask_a` and
/// `b.o = a.o ^ mask_b`. Masks 1 and 1 give the loop of
/// `error_paths.rs`; masks 1 and 0 a ring oscillator.
fn looped_system(mask_a: u64, mask_b: u64) -> System {
    let mut sb = System::build("loopy");
    let b = sb.add_component("b", xor_with("pb", mask_b)).expect("add");
    let a = sb.add_component("a", xor_with("pa", mask_a)).expect("add");
    sb.connect(a, "o", b, "i").expect("conn");
    sb.connect(b, "o", a, "i").expect("conn");
    sb.output("probe", a, "o").expect("po");
    sb.finish().expect("system")
}

/// The error a simulator built by `build` meets at construction or at
/// its first step.
fn first_error<S: Simulator>(build: impl FnOnce() -> Result<S, CoreError>) -> CoreError {
    match build() {
        Err(e) => e,
        Ok(mut sim) => sim.step().expect_err("the loop must be stopped"),
    }
}

fn is_loop(err: &CoreError) -> bool {
    matches!(err, CoreError::CombinationalLoop { .. })
}

#[test]
fn rtl_delta_limit_stops_both_loops() {
    for (a, b) in [(1, 1), (1, 0)] {
        let err = first_error(|| RtlSystemSim::new(looped_system(a, b)));
        assert!(is_loop(&err), "masks {a},{b}: {err:?}");
    }
}

#[test]
fn gate_oscillation_limit_stops_the_ring() {
    let err = first_error(|| GateSystemSim::new(looped_system(1, 0), &SynthOptions::default()));
    assert!(is_loop(&err), "{err:?}");
}
