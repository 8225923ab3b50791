//! Focused semantics tests: float-typed high-level modelling, FSM idle
//! behaviour, simulator reset, trace equivalence and API lookups.

use ocapi::{CompiledSim, Component, Fsm, InterpSim, SigType, Simulator, System, Value};

/// Floats are for high-level (pre-quantisation) models; both simulators
/// must handle them identically.
fn float_system() -> System {
    let c = Component::build("float_iir");
    let x = c.input("x", SigType::Float).unwrap();
    let y = c.output("y", SigType::Float).unwrap();
    let st = c.reg("st", SigType::Float).unwrap();
    let s = c.sfg("step").unwrap();
    let q = c.q(st);
    // y[n] = 0.5*y[n-1] + x[n], with a comparison and a select thrown in.
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

#[test]
fn float_models_agree_between_simulators() {
    let mut interp = InterpSim::new(float_system()).unwrap();
    let mut compiled = CompiledSim::new(float_system()).unwrap();
    let stimuli = [1.0, -0.25, 3.5, 10.0, -2.0, 0.125, 0.0, 7.75];
    for (cyc, x) in stimuli.iter().enumerate() {
        for sim in [
            &mut interp as &mut dyn Simulator,
            &mut compiled as &mut dyn Simulator,
        ] {
            sim.set_input("x", Value::Float(*x)).unwrap();
            sim.step().unwrap();
        }
        assert_eq!(
            interp.output("y").unwrap(),
            compiled.output("y").unwrap(),
            "cycle {cyc}"
        );
    }
    // The clip engaged on the final sample (0.53125·0.5 + 7.75 > 4).
    assert_eq!(interp.output("y").unwrap().to_f64(), 4.0);
}

/// An FSM with no matching transition idles: state holds, no SFG runs,
/// outputs hold their previous values.
#[test]
fn fsm_without_matching_transition_idles() {
    fn build() -> System {
        let c = Component::build("partial");
        let go = c.input("go", SigType::Bool).unwrap();
        let o = c.output("o", SigType::Bits(8)).unwrap();
        let r = c.reg("r", SigType::Bits(8)).unwrap();
        let s = c.sfg("bump").unwrap();
        let q = c.q(r);
        let n = q.clone() + c.const_bits(8, 1);
        s.drive(o, &n).unwrap();
        s.next(r, &n).unwrap();
        let gos = c.read(go);
        let f = c.fsm().unwrap();
        let s0 = f.initial("s0").unwrap();
        // Only a guarded transition: when !go, nothing matches.
        f.from(s0).when(&gos).run(s.id()).to(s0).unwrap();
        let comp = c.finish().unwrap();
        let mut sb = System::build("idle_sys");
        let u = sb.add_component("u", comp).unwrap();
        sb.input("go", SigType::Bool).unwrap();
        sb.connect_input("go", u, "go").unwrap();
        sb.output("o", u, "o").unwrap();
        sb.finish().unwrap()
    }
    for make in [
        (|| Box::new(InterpSim::new(build()).unwrap()) as Box<dyn Simulator>) as fn() -> _,
        || Box::new(CompiledSim::new(build()).unwrap()) as Box<dyn Simulator>,
    ] {
        let mut sim = make();
        sim.set_input("go", Value::Bool(true)).unwrap();
        sim.run(3).unwrap();
        assert_eq!(sim.output("o").unwrap(), Value::bits(8, 3));
        sim.set_input("go", Value::Bool(false)).unwrap();
        sim.run(5).unwrap();
        // Output held at the last driven value, register untouched.
        assert_eq!(sim.output("o").unwrap(), Value::bits(8, 3));
        sim.set_input("go", Value::Bool(true)).unwrap();
        sim.step().unwrap();
        assert_eq!(sim.output("o").unwrap(), Value::bits(8, 4));
    }
}

#[test]
fn compiled_reset_matches_fresh_instance() {
    let mut a = CompiledSim::new(float_system()).unwrap();
    a.set_input("x", Value::Float(2.0)).unwrap();
    a.run(4).unwrap();
    a.reset();
    assert_eq!(a.cycle(), 0);
    let mut b = CompiledSim::new(float_system()).unwrap();
    for x in [0.5, 1.5, -1.0] {
        a.set_input("x", Value::Float(x)).unwrap();
        b.set_input("x", Value::Float(x)).unwrap();
        a.step().unwrap();
        b.step().unwrap();
        assert_eq!(a.output("y").unwrap(), b.output("y").unwrap());
    }
}

#[test]
fn api_lookups() {
    let c = Component::build("lookups");
    let a = c.input("a", SigType::Bool).unwrap();
    let o = c.output("o", SigType::Bool).unwrap();
    let s = c.sfg("s").unwrap();
    s.drive(o, &c.read(a)).unwrap();
    let f = c.fsm().unwrap();
    let s0 = f.initial("zero").unwrap();
    let s1 = f.state("one").unwrap();
    f.from(s0).always().run(s.id()).to(s1).unwrap();
    f.from(s1).always().run(s.id()).to(s0).unwrap();
    let comp = c.finish().unwrap();

    assert_eq!(comp.input_by_name("a"), Some(a));
    assert_eq!(comp.output_by_name("o"), Some(o));
    assert!(comp.input_by_name("zzz").is_none());
    let fsm: &Fsm = comp.fsm.as_ref().unwrap();
    assert_eq!(fsm.state_by_name("one"), Some(s1));
    assert!(fsm.state_by_name("two").is_none());
    assert_eq!(fsm.from_state(s0).count(), 1);

    let mut sb = System::build("s");
    let u = sb.add_component("u", comp).unwrap();
    sb.input("a", SigType::Bool).unwrap();
    sb.connect_input("a", u, "a").unwrap();
    sb.output("o", u, "o").unwrap();
    let sys = sb.finish().unwrap();
    // One FSM state bit, no data registers.
    assert_eq!(sys.register_count(), 1);
}

#[test]
fn multiple_sfgs_per_transition_execute_together() {
    fn build() -> System {
        let c = Component::build("multi");
        let o1 = c.output("o1", SigType::Bits(4)).unwrap();
        let o2 = c.output("o2", SigType::Bits(4)).unwrap();
        let r = c.reg("r", SigType::Bits(4)).unwrap();
        let sa = c.sfg("sa").unwrap();
        sa.drive(o1, &(c.q(r) + c.const_bits(4, 1))).unwrap();
        sa.next(r, &(c.q(r) + c.const_bits(4, 1))).unwrap();
        let sb_ = c.sfg("sb").unwrap();
        sb_.drive(o2, &(c.q(r) + c.const_bits(4, 2))).unwrap();
        let f = c.fsm().unwrap();
        let s0 = f.initial("s0").unwrap();
        f.from(s0)
            .always()
            .run(sa.id())
            .run(sb_.id())
            .to(s0)
            .unwrap();
        let comp = c.finish().unwrap();
        let mut sys = System::build("multi_sys");
        let u = sys.add_component("u", comp).unwrap();
        sys.output("o1", u, "o1").unwrap();
        sys.output("o2", u, "o2").unwrap();
        sys.finish().unwrap()
    }
    let mut interp = InterpSim::new(build()).unwrap();
    let mut compiled = CompiledSim::new(build()).unwrap();
    for _ in 0..3 {
        interp.step().unwrap();
        compiled.step().unwrap();
        assert_eq!(interp.output("o1").unwrap(), compiled.output("o1").unwrap());
        assert_eq!(interp.output("o2").unwrap(), compiled.output("o2").unwrap());
    }
    // Both SFGs observed the same register value in the same cycle.
    assert_eq!(interp.output("o1").unwrap(), Value::bits(4, 3));
    assert_eq!(interp.output("o2").unwrap(), Value::bits(4, 4));
}
