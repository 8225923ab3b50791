//! Error-path coverage: malformed-but-constructible designs must produce
//! typed errors with deterministic (sorted) diagnostics — never a panic.

use ocapi::dataflow::{DataflowGraph, FnActor, Source};
use ocapi::{CompiledSim, Component, CoreError, InterpSim, SigType, Simulator, System, Value};

/// A combinational pass-through component: `o` is driven directly from
/// the input, with no register in between.
fn pass_through(name: &str) -> Component {
    let c = Component::build(name);
    let i = c.input("i", SigType::Bits(8)).expect("in");
    let o = c.output("o", SigType::Bits(8)).expect("out");
    let s = c.sfg("s").expect("sfg");
    s.drive(o, &(c.read(i) ^ c.const_bits(8, 1)))
        .expect("drive");
    c.finish().expect("finish")
}

/// Two pass-throughs wired head-to-tail: a true combinational loop.
/// Instances are added in reverse alphabetical order so an unsorted
/// diagnostic would come out as `b…, a…`.
fn looped_system() -> System {
    let mut sb = System::build("loopy");
    let b = sb.add_component("b", pass_through("pass")).expect("add");
    let a = sb.add_component("a", pass_through("pass")).expect("add");
    sb.connect(a, "o", b, "i").expect("conn");
    sb.connect(b, "o", a, "i").expect("conn");
    sb.output("probe", a, "o").expect("po");
    sb.finish().expect("system")
}

#[test]
fn interp_reports_combinational_loop_with_sorted_message() {
    let mut sim = InterpSim::new(looped_system()).expect("sim");
    let err = sim.step().expect_err("loop must be detected");
    match &err {
        CoreError::CombinationalLoop { waiting } => {
            assert_eq!(waiting, &["a.s -> o", "b.s -> o"]);
        }
        other => panic!("expected CombinationalLoop, got {other:?}"),
    }
    // The exact rendered diagnostic, stable across work-list orders.
    assert_eq!(
        err.to_string(),
        "combinational loop: unresolved after evaluation phase: a.s -> o, b.s -> o"
    );
}

#[test]
fn compiled_rejects_loop_at_construction() {
    let err = CompiledSim::new(looped_system()).expect_err("loop must be rejected");
    match &err {
        CoreError::NotCompilable { cycle } => {
            assert!(cycle.contains(&"output of `a`".to_owned()), "{cycle:?}");
            assert!(cycle.contains(&"output of `b`".to_owned()), "{cycle:?}");
            let mut sorted = cycle.clone();
            sorted.sort();
            assert_eq!(&sorted, cycle, "diagnostic list must be pre-sorted");
        }
        other => panic!("expected NotCompilable, got {other:?}"),
    }
}

#[test]
fn dataflow_deadlock_message_is_sorted() {
    // Two actors that each need a token from the other before firing;
    // sources feed only one of the two inputs, so both stay blocked with
    // tokens queued. Added in reverse order to catch unsorted output.
    let mut g = DataflowGraph::new();
    let src_b = g.add(Box::new(Source::new("src_b", [Value::bits(8, 1)])));
    let src_a = g.add(Box::new(Source::new("src_a", [Value::bits(8, 2)])));
    let b = g.add(Box::new(FnActor::new("b", 2, 1, |i, o| o.push(i[0]))));
    let a = g.add(Box::new(FnActor::new("a", 2, 1, |i, o| o.push(i[0]))));
    g.connect(src_a, 0, a, 0, &[]).expect("conn");
    g.connect(src_b, 0, b, 0, &[]).expect("conn");
    g.connect(a, 0, b, 1, &[]).expect("conn");
    g.connect(b, 0, a, 1, &[]).expect("conn");
    let err = g.run(u64::MAX).expect_err("deadlock must be detected");
    match &err {
        CoreError::DataflowDeadlock { blocked } => {
            assert_eq!(blocked, &["a", "b"]);
        }
        other => panic!("expected DataflowDeadlock, got {other:?}"),
    }
    assert_eq!(err.to_string(), "data-flow deadlock, blocked actors: a, b");
}

#[test]
fn unsupported_peek_poke_default_is_typed() {
    // A minimal Simulator with only the required methods: the provided
    // peek/poke defaults must answer with CoreError::Unsupported.
    struct Stub;
    impl Simulator for Stub {
        fn set_input(&mut self, _: &str, _: Value) -> Result<(), CoreError> {
            Ok(())
        }
        fn step(&mut self) -> Result<(), CoreError> {
            Ok(())
        }
        fn output(&self, _: &str) -> Result<Value, CoreError> {
            Ok(Value::Bool(false))
        }
        fn cycle(&self) -> u64 {
            0
        }
        fn empty_trace(&self) -> ocapi::Trace {
            ocapi::Trace::default()
        }
    }
    let mut s = Stub;
    assert!(matches!(
        s.peek_net("x"),
        Err(CoreError::Unsupported { .. })
    ));
    assert!(matches!(
        s.poke_net("x", Value::Bool(true)),
        Err(CoreError::Unsupported { .. })
    ));
    assert!(matches!(
        s.peek_reg("u", "r"),
        Err(CoreError::Unsupported { .. })
    ));
    assert!(matches!(
        s.poke_reg("u", "r", Value::Bool(true)),
        Err(CoreError::Unsupported { .. })
    ));
}
