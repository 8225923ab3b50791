//! Integration tests: the interpreted and compiled simulators, the
//! three-phase cycle scheduler, and mixed timed/untimed systems.

use ocapi::{
    CompiledSim, Component, CoreError, FnBlock, InterpSim, PortDecl, Ram, Rom, SigType, Simulator,
    System, Traced, Value,
};

/// A 2-state accumulator component with an enable-controlled FSM, used by
/// several tests. In `run` it accumulates `x`; on `stop` it freezes and
/// emits the held sum.
fn accumulator() -> Component {
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
    c.finish().unwrap()
}

fn acc_system() -> System {
    let mut sb = System::build("acc_sys");
    let u = sb.add_component("u0", accumulator()).unwrap();
    sb.input("x", SigType::Bits(8)).unwrap();
    sb.input("stop", SigType::Bool).unwrap();
    sb.connect_input("x", u, "x").unwrap();
    sb.connect_input("stop", u, "stop").unwrap();
    sb.output("sum", u, "sum").unwrap();
    sb.finish().unwrap()
}

#[test]
fn interp_accumulates_and_freezes() {
    let mut sim = InterpSim::new(acc_system()).unwrap();
    sim.set_input("stop", Value::Bool(false)).unwrap();
    for i in 1..=4 {
        sim.set_input("x", Value::bits(8, i)).unwrap();
        sim.step().unwrap();
    }
    // Mealy output shows the *pre-add* register value; after 4 adds the
    // register holds 1+2+3+4 = 10, the output showed 1+2+3 = 6.
    assert_eq!(sim.output("sum").unwrap(), Value::bits(8, 6));
    assert_eq!(sim.state_name("u0").unwrap(), "run");
    sim.set_input("stop", Value::Bool(true)).unwrap();
    sim.set_input("x", Value::bits(8, 99)).unwrap();
    sim.step().unwrap();
    assert_eq!(sim.state_name("u0").unwrap(), "frozen");
    assert_eq!(sim.output("sum").unwrap(), Value::bits(8, 10));
    sim.set_input("stop", Value::Bool(false)).unwrap();
    sim.step().unwrap();
    assert_eq!(sim.output("sum").unwrap(), Value::bits(8, 10)); // stays frozen
}

#[test]
fn compiled_matches_interp_on_accumulator() {
    let mut a = InterpSim::new(acc_system()).unwrap();
    let mut b = CompiledSim::new(acc_system()).unwrap();
    let stimuli = [
        (5u64, false),
        (3, false),
        (0, true),
        (7, false),
        (2, true),
        (1, false),
    ];
    for (x, stop) in stimuli {
        for sim in [&mut a as &mut dyn Simulator, &mut b as &mut dyn Simulator] {
            sim.set_input("x", Value::bits(8, x)).unwrap();
            sim.set_input("stop", Value::Bool(stop)).unwrap();
            sim.step().unwrap();
        }
        assert_eq!(
            a.output("sum").unwrap(),
            b.output("sum").unwrap(),
            "divergence at x={x} stop={stop}"
        );
    }
}

#[test]
fn sim_reset_restores_power_up() {
    let mut sim = InterpSim::new(acc_system()).unwrap();
    sim.set_input("x", Value::bits(8, 9)).unwrap();
    sim.set_input("stop", Value::Bool(false)).unwrap();
    sim.run(3).unwrap();
    assert_eq!(sim.cycle(), 3);
    sim.reset();
    assert_eq!(sim.cycle(), 0);
    sim.set_input("x", Value::bits(8, 1)).unwrap();
    sim.step().unwrap();
    assert_eq!(sim.output("sum").unwrap(), Value::bits(8, 0));
}

/// Figure 6 of the paper: a circular dependency between two timed
/// components and an untimed one, resolvable only because token
/// production first emits the register-dependent outputs.
#[test]
fn fig6_three_phase_resolves_circular_dependency() {
    // comp1: out1 = reg (register-only cone) ; reg' = in1 + 1
    let c1 = Component::build("comp1");
    let in1 = c1.input("in1", SigType::Bits(8)).unwrap();
    let out1 = c1.output("out1", SigType::Bits(8)).unwrap();
    let r1 = c1.reg("r1", SigType::Bits(8)).unwrap();
    let s1 = c1.sfg("s1").unwrap();
    s1.drive(out1, &c1.q(r1)).unwrap();
    s1.next(r1, &(c1.read(in1) + c1.const_bits(8, 1))).unwrap();
    let c1 = c1.finish().unwrap();

    // comp2 (untimed "RAM-like"): out = in * 2
    let blk = FnBlock::new(
        "comp2",
        vec![PortDecl {
            name: "a".into(),
            ty: SigType::Bits(8),
        }],
        vec![PortDecl {
            name: "y".into(),
            ty: SigType::Bits(8),
        }],
        |i, o| o[0] = Value::bits(8, i[0].as_bits().unwrap().wrapping_mul(2)),
    );

    // comp3: out3 = in3 + 3 (combinational through)
    let c3 = Component::build("comp3");
    let in3 = c3.input("in3", SigType::Bits(8)).unwrap();
    let out3 = c3.output("out3", SigType::Bits(8)).unwrap();
    let s3 = c3.sfg("s3").unwrap();
    s3.drive(out3, &(c3.read(in3) + c3.const_bits(8, 3)))
        .unwrap();
    let c3 = c3.finish().unwrap();

    // Loop: comp1 -> comp2 -> comp3 -> comp1
    let mut sb = System::build("fig6");
    let u1 = sb.add_component("u1", c1).unwrap();
    let u2 = sb.add_block(Box::new(blk)).unwrap();
    let u3 = sb.add_component("u3", c3).unwrap();
    sb.connect(u1, "out1", u2, "a").unwrap();
    sb.connect(u2, "y", u3, "in3").unwrap();
    sb.connect(u3, "out3", u1, "in1").unwrap();
    sb.output("probe", u3, "out3").unwrap();
    let sys = sb.finish().unwrap();

    let mut sim = InterpSim::new(sys).unwrap();
    // cycle 1: r1=0 -> out1=0 -> y=0 -> out3=3 ; r1' = 4
    sim.step().unwrap();
    assert_eq!(sim.output("probe").unwrap(), Value::bits(8, 3));
    // cycle 2: out1=4 -> y=8 -> out3=11 ; r1' = 12
    sim.step().unwrap();
    assert_eq!(sim.output("probe").unwrap(), Value::bits(8, 11));
    // cycle 3: out1=12 -> y=24 -> out3=27
    sim.step().unwrap();
    assert_eq!(sim.output("probe").unwrap(), Value::bits(8, 27));
}

#[test]
fn fig6_loop_also_compiles() {
    // The same loop is statically schedulable because comp1's output cone
    // contains only a register — build it again for the compiled back-end.
    let c1 = Component::build("comp1");
    let in1 = c1.input("in1", SigType::Bits(8)).unwrap();
    let out1 = c1.output("out1", SigType::Bits(8)).unwrap();
    let r1 = c1.reg("r1", SigType::Bits(8)).unwrap();
    let s1 = c1.sfg("s1").unwrap();
    s1.drive(out1, &c1.q(r1)).unwrap();
    s1.next(r1, &(c1.read(in1) + c1.const_bits(8, 1))).unwrap();
    let c1 = c1.finish().unwrap();

    let blk = FnBlock::new(
        "comp2",
        vec![PortDecl {
            name: "a".into(),
            ty: SigType::Bits(8),
        }],
        vec![PortDecl {
            name: "y".into(),
            ty: SigType::Bits(8),
        }],
        |i, o| o[0] = Value::bits(8, i[0].as_bits().unwrap().wrapping_mul(2)),
    );

    let c3 = Component::build("comp3");
    let in3 = c3.input("in3", SigType::Bits(8)).unwrap();
    let out3 = c3.output("out3", SigType::Bits(8)).unwrap();
    let s3 = c3.sfg("s3").unwrap();
    s3.drive(out3, &(c3.read(in3) + c3.const_bits(8, 3)))
        .unwrap();
    let c3 = c3.finish().unwrap();

    let mut sb = System::build("fig6");
    let u1 = sb.add_component("u1", c1).unwrap();
    let u2 = sb.add_block(Box::new(blk)).unwrap();
    let u3 = sb.add_component("u3", c3).unwrap();
    sb.connect(u1, "out1", u2, "a").unwrap();
    sb.connect(u2, "y", u3, "in3").unwrap();
    sb.connect(u3, "out3", u1, "in1").unwrap();
    sb.output("probe", u3, "out3").unwrap();

    let mut sim = CompiledSim::new(sb.finish().unwrap()).unwrap();
    sim.run(3).unwrap();
    assert_eq!(sim.output("probe").unwrap(), Value::bits(8, 27));
}

/// A genuine combinational loop must be reported, not spun on forever.
#[test]
fn combinational_loop_detected() {
    fn passthrough(name: &str) -> Component {
        let c = Component::build(name);
        let i = c.input("i", SigType::Bits(4)).unwrap();
        let o = c.output("o", SigType::Bits(4)).unwrap();
        let s = c.sfg("s").unwrap();
        s.drive(o, &(c.read(i) + c.const_bits(4, 1))).unwrap();
        c.finish().unwrap()
    }
    let mut sb = System::build("loop");
    let a = sb.add_component("a", passthrough("p1")).unwrap();
    let b = sb.add_component("b", passthrough("p2")).unwrap();
    sb.connect(a, "o", b, "i").unwrap();
    sb.connect(b, "o", a, "i").unwrap();
    sb.output("y", a, "o").unwrap();
    let sys = sb.finish().unwrap();

    let mut sim = InterpSim::new(sys).unwrap();
    match sim.step() {
        Err(CoreError::CombinationalLoop { waiting }) => {
            assert_eq!(waiting.len(), 2);
        }
        other => panic!("expected combinational loop, got {other:?}"),
    }
}

#[test]
fn combinational_loop_rejected_by_compiler() {
    fn passthrough(name: &str) -> Component {
        let c = Component::build(name);
        let i = c.input("i", SigType::Bits(4)).unwrap();
        let o = c.output("o", SigType::Bits(4)).unwrap();
        let s = c.sfg("s").unwrap();
        s.drive(o, &(c.read(i) + c.const_bits(4, 1))).unwrap();
        c.finish().unwrap()
    }
    let mut sb = System::build("loop");
    let a = sb.add_component("a", passthrough("p1")).unwrap();
    let b = sb.add_component("b", passthrough("p2")).unwrap();
    sb.connect(a, "o", b, "i").unwrap();
    sb.connect(b, "o", a, "i").unwrap();
    sb.output("y", a, "o").unwrap();
    assert!(matches!(
        CompiledSim::new(sb.finish().unwrap()),
        Err(CoreError::NotCompilable { .. })
    ));
}

/// The DECT-style RAM-in-the-loop pattern: a timed datapath addresses a
/// RAM from a registered pointer and consumes the read data in the same
/// cycle.
#[test]
fn ram_loop_with_timed_datapath() {
    let c = Component::build("dp");
    let rdata = c.input("rdata", SigType::Bits(8)).unwrap();
    let addr = c.output("addr", SigType::Bits(4)).unwrap();
    let we = c.output("we", SigType::Bool).unwrap();
    let wdata = c.output("wdata", SigType::Bits(8)).unwrap();
    let acc_out = c.output("acc", SigType::Bits(8)).unwrap();
    let ptr = c.reg("ptr", SigType::Bits(4)).unwrap();
    let acc = c.reg("accr", SigType::Bits(8)).unwrap();
    let s = c.sfg("scan").unwrap();
    let q = c.q(ptr);
    s.drive(addr, &q).unwrap();
    s.drive(we, &c.const_bool(false)).unwrap();
    s.drive(wdata, &c.const_bits(8, 0)).unwrap();
    let newacc = c.q(acc) + c.read(rdata);
    s.drive(acc_out, &newacc).unwrap();
    s.next(acc, &newacc).unwrap();
    s.next(ptr, &(q + c.const_bits(4, 1))).unwrap();
    let comp = c.finish().unwrap();

    let mut ram = Ram::new("ram", 4, SigType::Bits(8));
    for i in 0..16 {
        ram.preload(i, Value::bits(8, i as u64));
    }

    let build = |comp: Component, ram: Ram| {
        let mut sb = System::build("ramsys");
        let dp = sb.add_component("dp", comp).unwrap();
        let r = sb.add_block(Box::new(ram)).unwrap();
        sb.connect(dp, "addr", r, "addr").unwrap();
        sb.connect(dp, "we", r, "we").unwrap();
        sb.connect(dp, "wdata", r, "wdata").unwrap();
        sb.connect(r, "rdata", dp, "rdata").unwrap();
        sb.output("acc", dp, "acc").unwrap();
        sb.finish().unwrap()
    };

    // Sum of RAM contents 0..=4 after 5 cycles = 10.
    let mut sim = InterpSim::new(build(comp, ram)).unwrap();
    sim.run(5).unwrap();
    assert_eq!(sim.output("acc").unwrap(), Value::bits(8, 10));
}

#[test]
fn rom_driven_counter_matches_compiled() {
    // A program counter addressing a ROM; the output is the fetched word.
    fn build_sys() -> System {
        let c = Component::build("pc");
        let data = c.input("data", SigType::Bits(16)).unwrap();
        let addr = c.output("addr", SigType::Bits(4)).unwrap();
        let instr = c.output("instr", SigType::Bits(16)).unwrap();
        let pc = c.reg("pc", SigType::Bits(4)).unwrap();
        let s = c.sfg("fetch").unwrap();
        let q = c.q(pc);
        s.drive(addr, &q).unwrap();
        s.drive(instr, &c.read(data)).unwrap();
        s.next(pc, &(q + c.const_bits(4, 1))).unwrap();
        let comp = c.finish().unwrap();

        let words: Vec<Value> = (0..16)
            .map(|i| Value::bits(16, (i * 1000 + 7) as u64))
            .collect();
        let mut sb = System::build("romsys");
        let u = sb.add_component("pc", comp).unwrap();
        let rom = sb
            .add_block(Box::new(Rom::new("rom", SigType::Bits(16), words)))
            .unwrap();
        sb.connect(u, "addr", rom, "addr").unwrap();
        sb.connect(rom, "data", u, "data").unwrap();
        sb.output("instr", u, "instr").unwrap();
        sb.finish().unwrap()
    }

    let mut interp = InterpSim::new(build_sys()).unwrap();
    interp.run(5).unwrap();
    assert_eq!(interp.output("instr").unwrap(), Value::bits(16, 4007));

    let mut compiled = CompiledSim::new(build_sys()).unwrap();
    compiled.run(5).unwrap();
    assert_eq!(compiled.output("instr").unwrap(), Value::bits(16, 4007));
}

#[test]
fn trace_records_io() {
    let mut sim = Traced::new(InterpSim::new(acc_system()).unwrap());
    sim.set_input("stop", Value::Bool(false)).unwrap();
    for i in 1..=3 {
        sim.set_input("x", Value::bits(8, i)).unwrap();
        sim.step().unwrap();
    }
    let t = sim.trace();
    assert_eq!(t.len(), 3);
    let x = t.signal("x").unwrap();
    assert!(x.is_input);
    assert_eq!(
        x.values,
        vec![Value::bits(8, 1), Value::bits(8, 2), Value::bits(8, 3)]
    );
    let sum = t.signal("sum").unwrap();
    assert!(!sum.is_input);
    assert_eq!(
        sum.values,
        vec![Value::bits(8, 0), Value::bits(8, 1), Value::bits(8, 3)]
    );
    // VCD export works and mentions the signals.
    let vcd = t.to_vcd();
    assert!(vcd.contains("$var wire 8 s0 x $end"));
}

#[test]
fn unknown_names_are_errors() {
    let mut sim = InterpSim::new(acc_system()).unwrap();
    assert!(matches!(
        sim.set_input("nope", Value::Bool(false)),
        Err(CoreError::UnknownName { .. })
    ));
    assert!(matches!(
        sim.output("nope"),
        Err(CoreError::UnknownName { .. })
    ));
    assert!(matches!(
        sim.set_input("x", Value::Bool(false)),
        Err(CoreError::ValueType { .. })
    ));
}

#[test]
fn tie_and_unconnected_input_checks() {
    let c = Component::build("needy");
    let a = c.input("a", SigType::Bits(4)).unwrap();
    let o = c.output("o", SigType::Bits(4)).unwrap();
    let s = c.sfg("s").unwrap();
    s.drive(o, &(c.read(a) + c.const_bits(4, 1))).unwrap();
    let comp = c.finish().unwrap();

    // Unconnected input -> error.
    let mut sb = System::build("t1");
    let u = sb.add_component("u", comp).unwrap();
    sb.output("o", u, "o").unwrap();
    assert!(matches!(
        sb.finish(),
        Err(CoreError::UnconnectedInput { .. })
    ));

    // Tied input works.
    let c = Component::build("needy");
    let a = c.input("a", SigType::Bits(4)).unwrap();
    let o = c.output("o", SigType::Bits(4)).unwrap();
    let s = c.sfg("s").unwrap();
    s.drive(o, &(c.read(a) + c.const_bits(4, 1))).unwrap();
    let comp = c.finish().unwrap();
    let mut sb = System::build("t2");
    let u = sb.add_component("u", comp).unwrap();
    sb.tie(u, "a", Value::bits(4, 6)).unwrap();
    sb.output("o", u, "o").unwrap();
    let mut sim = InterpSim::new(sb.finish().unwrap()).unwrap();
    sim.step().unwrap();
    assert_eq!(sim.output("o").unwrap(), Value::bits(4, 7));
}

#[test]
fn double_connection_rejected() {
    let c = Component::build("needy");
    let a = c.input("a", SigType::Bits(4)).unwrap();
    let o = c.output("o", SigType::Bits(4)).unwrap();
    let s = c.sfg("s").unwrap();
    s.drive(o, &c.read(a)).unwrap();
    let comp = c.finish().unwrap();
    let mut sb = System::build("t");
    let u = sb.add_component("u", comp).unwrap();
    sb.input("p", SigType::Bits(4)).unwrap();
    sb.input("q", SigType::Bits(4)).unwrap();
    sb.connect_input("p", u, "a").unwrap();
    sb.connect_input("q", u, "a").unwrap();
    assert!(matches!(
        sb.finish(),
        Err(CoreError::ConnectionConflict { .. })
    ));
}
