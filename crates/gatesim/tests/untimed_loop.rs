//! A combinational loop through an untimed block is refused, never run:
//! the interpreter fails the step, and the RT and gate engines, which
//! fire every block once a cycle in `System::untimed_order`, refuse to
//! build, naming the block as the interpreter does.

use ocapi::{
    Component, CoreError, FnBlock, InterpSim, PortDecl, SigType, Simulator, System, Value,
};
use ocapi_gatesim::GateSystemSim;
use ocapi_rtl::RtlSystemSim;
use ocapi_synth::SynthOptions;

/// `inc` (untimed, y = x + 1) feeds a combinational pass-through
/// component whose output feeds `inc` back: no register anywhere.
fn untimed_feedback() -> System {
    let inc = FnBlock::new(
        "inc",
        vec![PortDecl {
            name: "x".into(),
            ty: SigType::Bits(8),
        }],
        vec![PortDecl {
            name: "y".into(),
            ty: SigType::Bits(8),
        }],
        |i, o| o[0] = Value::bits(8, i[0].as_bits().unwrap_or(0).wrapping_add(1) & 0xff),
    );
    let c = Component::build("pass");
    let i = c.input("i", SigType::Bits(8)).expect("input");
    let o = c.output("o", SigType::Bits(8)).expect("output");
    c.sfg("wire")
        .expect("sfg")
        .drive(o, &c.read(i))
        .expect("drive");
    let pass = c.finish().expect("finish");

    let mut sb = System::build("untimed_feedback");
    let b = sb.add_block(Box::new(inc)).expect("block");
    let p = sb.add_component("p", pass).expect("component");
    sb.connect(b, "y", p, "i").expect("connect");
    sb.connect(p, "o", b, "x").expect("connect");
    sb.output("probe", p, "o").expect("output");
    sb.finish().expect("system")
}

#[test]
fn untimed_feedback_fails_like_the_interpreter() {
    let interp = InterpSim::new(untimed_feedback())
        .expect("interp")
        .step()
        .expect_err("the interpreter rejects the loop");
    let CoreError::CombinationalLoop { waiting } = &interp else {
        panic!("interpreter: expected a combinational loop, got {interp:?}");
    };
    assert!(waiting.contains(&"inc (untimed)".to_owned()), "{waiting:?}");

    let want = CoreError::CombinationalLoop {
        waiting: vec!["inc (untimed)".to_owned()],
    };
    let gates = GateSystemSim::new(untimed_feedback(), &SynthOptions::default());
    assert_eq!(gates.map(drop), Err(want.clone()), "gate level");
    let rtl = RtlSystemSim::new(untimed_feedback());
    assert_eq!(rtl.map(drop), Err(want), "RT level");
}
