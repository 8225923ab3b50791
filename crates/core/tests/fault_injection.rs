//! Integration test for the cycle-true fault-injection subsystem: the
//! interpreted and compiled back-ends must stay cycle-equivalent under
//! every injected fault, because both expose identical peek/poke
//! semantics to [`FaultySim`].

#[path = "../../../tests/agree/mod.rs"]
mod agree;

use ocapi::rng::XorShift64;
use ocapi::{
    CompiledSim, Component, FaultEvent, FaultPlan, FaultSite, FaultySim, Format, InterpSim,
    Overflow, Rounding, SigType, Simulator, System, Traced, Value,
};

/// An FSMD exercising all four value types: a bit-word counter, a bool
/// control path, a fixed-point accumulator and a float mirror of it.
fn mixed_system() -> System {
    let fmt = Format::new(10, 4).expect("fmt");
    let acc_fmt = Format::new(16, 8).expect("fmt");

    let c = Component::build("dsp");
    let x = c.input("x", SigType::Fixed(fmt)).expect("in");
    let en = c.input("en", SigType::Bool).expect("in");
    let y = c.output("y", SigType::Fixed(acc_fmt)).expect("out");
    let cnt_o = c.output("cnt", SigType::Bits(6)).expect("out");
    let fl_o = c.output("fl", SigType::Float).expect("out");

    let acc = c.reg("acc", SigType::Fixed(acc_fmt)).expect("reg");
    let cnt = c.reg("cnt", SigType::Bits(6)).expect("reg");
    let fl = c.reg("fl", SigType::Float).expect("reg");

    let run = c.sfg("run").expect("sfg");
    let sum = (c.q(acc) + c.read(x)).to_fixed(acc_fmt, Rounding::Nearest, Overflow::Saturate);
    run.drive(y, &c.q(acc)).expect("drive");
    run.drive(cnt_o, &c.q(cnt)).expect("drive");
    run.drive(fl_o, &c.q(fl)).expect("drive");
    run.next(acc, &sum).expect("next");
    run.next(cnt, &(c.q(cnt) + c.const_bits(6, 1)))
        .expect("next");
    run.next(fl, &(c.q(fl) + c.read(x).to_float()))
        .expect("next");

    let hold = c.sfg("hold").expect("sfg");
    hold.drive(y, &c.q(acc)).expect("drive");
    hold.drive(cnt_o, &c.q(cnt)).expect("drive");
    hold.drive(fl_o, &c.q(fl)).expect("drive");

    let en_s = c.read(en);
    let f = c.fsm().expect("fsm");
    let s0 = f.initial("idle").expect("state");
    let s1 = f.state("busy").expect("state");
    f.from(s0).when(&en_s).run(run.id()).to(s1).expect("t");
    f.from(s0).always().run(hold.id()).to(s0).expect("t");
    f.from(s1).when(&en_s).run(run.id()).to(s1).expect("t");
    f.from(s1).always().run(hold.id()).to(s0).expect("t");
    let comp = c.finish().expect("finish");

    let mut sb = System::build("faulty");
    let u = sb.add_component("u0", comp).expect("add");
    sb.input("x", SigType::Fixed(fmt)).expect("pi");
    sb.input("en", SigType::Bool).expect("pi");
    sb.connect_input("x", u, "x").expect("conn");
    sb.connect_input("en", u, "en").expect("conn");
    sb.output("y", u, "y").expect("po");
    sb.output("cnt", u, "cnt").expect("po");
    sb.output("fl", u, "fl").expect("po");
    sb.finish().expect("system")
}

fn stimulus_value(fmt: Format, rng: &mut XorShift64) -> Value {
    let x = rng.next_f64() * 4.0 - 2.0;
    Value::Fixed(ocapi::Fix::from_f64(
        x,
        fmt,
        Rounding::Nearest,
        Overflow::Saturate,
    ))
}

/// Drives both back-ends under the identical plan and stimuli and
/// asserts every primary output matches every cycle.
fn assert_equivalent_under(plan: &FaultPlan, cycles: u64, stim_seed: u64) {
    let fmt = Format::new(10, 4).expect("fmt");
    let mut interp = Traced::new(FaultySim::new(
        InterpSim::new(mixed_system()).expect("interp"),
        plan.clone(),
    ));
    let mut compiled = Traced::new(FaultySim::new(
        CompiledSim::new(mixed_system()).expect("compiled"),
        plan.clone(),
    ));
    let mut rng_i = XorShift64::new(stim_seed);
    let mut rng_c = XorShift64::new(stim_seed);
    for cyc in 0..cycles {
        for (sim, rng) in [
            (&mut interp as &mut dyn Simulator, &mut rng_i),
            (&mut compiled as &mut dyn Simulator, &mut rng_c),
        ] {
            sim.set_input("x", stimulus_value(fmt, rng)).expect("set");
            sim.set_input("en", Value::Bool(rng.chance(0.8)))
                .expect("set");
            sim.step().expect("step");
        }
        for out in ["y", "cnt", "fl"] {
            let a = interp.output(out).expect("out");
            let b = compiled.output(out).expect("out");
            let same = match (a, b) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                (a, b) => a == b,
            };
            assert!(
                same,
                "output `{out}` diverged at cycle {cyc}: {a:?} vs {b:?}"
            );
        }
    }
    // Cycle-by-cycle traces are identical too (floats by bit pattern,
    // so an injected NaN still compares equal to itself).
    let (ti, tc) = (interp.trace(), compiled.trace());
    assert_eq!(ti.len(), tc.len());
    assert_eq!(ti.signals.len(), tc.signals.len());
    for (si, sc) in ti.signals.iter().zip(&tc.signals) {
        assert_eq!(si.name, sc.name);
        for (c, (a, b)) in si.values.iter().zip(&sc.values).enumerate() {
            let same = match (a, b) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                (a, b) => a == b,
            };
            assert!(
                same,
                "trace `{}` diverged at cycle {c}: {a:?} vs {b:?}",
                si.name
            );
        }
    }
}

#[test]
fn backends_agree_under_explicit_faults() {
    let sites = [
        FaultSite::reg("u0", "acc"),
        FaultSite::reg("u0", "cnt"),
        FaultSite::reg("u0", "fl"),
        FaultSite::net("x"),
        FaultSite::net("en"),
        FaultSite::net("u0.y"),
        FaultSite::net("u0.cnt"),
    ];
    for (i, site) in sites.iter().enumerate() {
        let plan = FaultPlan::new()
            .with(FaultEvent::flip(site.clone(), i as u32, 3))
            .with(FaultEvent::stuck_at(site.clone(), 0, i % 2 == 0, 7, 5));
        assert_equivalent_under(&plan, 24, 0xabc0 + i as u64);
    }
}

#[test]
fn backends_agree_under_random_campaigns() {
    let sys = mixed_system();
    let seeds = if cfg!(feature = "slow-tests") {
        0..40u64
    } else {
        0..10u64
    };
    for seed in seeds {
        let plan = FaultPlan::random(&sys, 32, 0.25, 0x9999 + seed);
        assert_equivalent_under(&plan, 32, 0x1111 + seed);
    }
}

#[test]
fn fault_plan_site_enumeration_covers_system() {
    let sys = mixed_system();
    let sites = FaultPlan::sites(&sys);
    assert!(sites.contains(&FaultSite::reg("u0", "acc")));
    assert!(sites.contains(&FaultSite::net("x")));
    // 3 registers + every net.
    assert_eq!(sites.len(), 3 + sys.nets.len());
}

/// The mixed system — bit-word, fixed-point and float registers, the
/// float one corrupted in its bit pattern — classifies every fault
/// event alike on every campaign driver.
#[test]
fn fault_campaigns_agree_on_the_mixed_system() {
    agree::check_design_faults(&[("mixed", mixed_system)], 0xF10A7, 48);
}
