//! Differential tests for the compiled back-end's tape optimizer
//! (`ocapi::OptLevel`, DESIGN.md §9).
//!
//! Every algebraic rewrite rule gets its own unit test: the same design
//! is built for the interpreter and for the compiled simulator at all
//! three optimization levels, driven with boundary stimuli (including
//! wrapping cases like `200 * 8` on 8-bit words), and compared on every
//! primary output *and every named net* each cycle — the optimizer must
//! be invisible to `peek_net`, the fault injector's read primitive. The
//! `OptStats` assertions then pin down that the intended rule actually
//! fired (or, for the signed fixed-point cases, that it did **not**).
//!
//! A seeded differential at the end runs generated systems, whose
//! expression pools hold the constants 0, 1, 8 and 255 so identities,
//! CSE and DCE fire, through the workspace's one generator and
//! every-engine checker (`tests/agree/mod.rs`), which compares `None`,
//! `Basic` and `Full` on every net and register each cycle.

#[path = "../../../tests/agree/mod.rs"]
mod agree;

use ocapi::{
    CompiledSim, Component, ComponentBuilder, Fix, Format, InterpSim, OptLevel, OptStats, Overflow,
    Rounding, Sig, SigType, Simulator, System, Value,
};

/// Boundary values for an 8-bit word: identities, carries, wrap-around.
const XS: [u64; 12] = [0, 1, 2, 3, 7, 8, 127, 128, 170, 200, 254, 255];

/// Builds the system four times (interpreter + the three optimization
/// levels), drives all of them with the same stimuli and asserts that
/// primary outputs and every named net agree cycle by cycle. Returns the
/// `Full`-level statistics for rule-specific assertions.
fn assert_levels_agree(mk: &dyn Fn() -> System, stimuli: &[Vec<(&str, Value)>]) -> OptStats {
    let probe = mk();
    let net_names: Vec<String> = probe.nets.iter().map(|n| n.name.clone()).collect();
    let out_names: Vec<String> = probe
        .primary_outputs
        .iter()
        .map(|p| p.name.clone())
        .collect();

    let mut interp = InterpSim::new(mk()).expect("interp");
    let mut compiled: Vec<(OptLevel, CompiledSim)> =
        [OptLevel::None, OptLevel::Basic, OptLevel::Full]
            .into_iter()
            .map(|l| (l, CompiledSim::new_with(mk(), l).expect("compiled")))
            .collect();

    for (cyc, inputs) in stimuli.iter().enumerate() {
        for sim in std::iter::once(&mut interp as &mut dyn Simulator)
            .chain(compiled.iter_mut().map(|(_, s)| s as &mut dyn Simulator))
        {
            for (name, v) in inputs {
                sim.set_input(name, *v).expect("set_input");
            }
            sim.step().expect("step");
        }
        for name in &out_names {
            let want = interp.output(name).expect("output");
            for (level, sim) in &compiled {
                assert_eq!(
                    want,
                    sim.output(name).expect("output"),
                    "output `{name}` diverged at cycle {cyc} ({level:?})"
                );
            }
        }
        for name in &net_names {
            let want = interp.peek_net(name).expect("peek_net");
            for (level, sim) in &compiled {
                assert_eq!(
                    want,
                    sim.peek_net(name).expect("peek_net"),
                    "net `{name}` diverged at cycle {cyc} ({level:?})"
                );
            }
        }
    }
    compiled
        .last()
        .map(|(_, s)| s.opt_stats())
        .unwrap_or_default()
}

/// One-component DUT with an 8-bit data input, a control bit and one
/// output driven by the expression `build` produces; a single-state FSM
/// fires the sole SFG unconditionally each cycle.
fn bits_system(build: &dyn Fn(&ComponentBuilder, &Sig, &Sig) -> Sig) -> System {
    let c = Component::build("dut");
    let xi = c.input("x", SigType::Bits(8)).expect("input");
    let si = c.input("sel", SigType::Bool).expect("input");
    let x = c.read(xi);
    let sel = c.read(si);
    let expr = build(&c, &x, &sel);
    let o = c.output("o", expr.sig_type()).expect("output");
    let s = c.sfg("main").expect("sfg");
    s.drive(o, &expr).expect("drive");
    let f = c.fsm().expect("fsm");
    let s0 = f.initial("run").expect("state");
    f.from(s0).always().run(s.id()).to(s0).expect("t");
    let comp = c.finish().expect("finish");

    let mut sb = System::build("opt_test");
    let u = sb.add_component("u", comp).expect("add");
    sb.input("x", SigType::Bits(8)).expect("pi");
    sb.input("sel", SigType::Bool).expect("pi");
    sb.connect_input("x", u, "x").expect("conn");
    sb.connect_input("sel", u, "sel").expect("conn");
    sb.output("o", u, "o").expect("po");
    sb.finish().expect("system")
}

/// Boundary stimuli: every value in [`XS`] under both control values.
fn bits_stimuli() -> Vec<Vec<(&'static str, Value)>> {
    let mut out = Vec::new();
    for &x in &XS {
        for sel in [false, true] {
            out.push(vec![("x", Value::bits(8, x)), ("sel", Value::Bool(sel))]);
        }
    }
    out
}

/// Runs one algebraic-rule DUT through the full differential harness.
fn check_bits_rule(build: &dyn Fn(&ComponentBuilder, &Sig, &Sig) -> Sig) -> OptStats {
    assert_levels_agree(&|| bits_system(build), &bits_stimuli())
}

#[test]
fn mul_by_zero_becomes_constant() {
    let stats = check_bits_rule(&|c, x, _| x.clone() * c.const_bits(8, 0));
    assert!(stats.algebraic >= 1, "x*0 must rewrite: {stats:?}");
    assert!(stats.instrs_out < stats.instrs_in, "{stats:?}");
}

#[test]
fn mul_by_one_is_removed() {
    let stats = check_bits_rule(&|c, x, _| x.clone() * c.const_bits(8, 1));
    assert!(stats.algebraic >= 1, "x*1 must alias: {stats:?}");
}

#[test]
fn mul_by_power_of_two_becomes_shift() {
    // 200 * 8 = 1600 ≡ 64 (mod 256): the strength-reduced shift must
    // wrap exactly like the multiply (both are width-masked).
    let stats = check_bits_rule(&|c, x, _| x.clone() * c.const_bits(8, 8));
    assert!(stats.algebraic >= 1, "x*8 must become x<<3: {stats:?}");
}

#[test]
fn add_and_sub_zero_are_removed() {
    let stats = check_bits_rule(&|c, x, _| (x.clone() + c.const_bits(8, 0)) - c.const_bits(8, 0));
    assert!(stats.algebraic >= 2, "x+0 and x-0 must alias: {stats:?}");
}

#[test]
fn zero_minus_x_is_not_removed() {
    // 0 - x is a negation: the x-0 rule must not fire on the a-position.
    let stats = check_bits_rule(&|c, x, _| c.const_bits(8, 0) - x.clone());
    assert_eq!(stats.algebraic, 0, "0-x must survive: {stats:?}");
}

#[test]
fn and_with_zero_and_full_mask() {
    let stats = check_bits_rule(&|c, x, _| x.clone() & c.const_bits(8, 0));
    assert!(stats.algebraic >= 1, "x&0 must become 0: {stats:?}");
    let stats = check_bits_rule(&|c, x, _| x.clone() & c.const_bits(8, 255));
    assert!(stats.algebraic >= 1, "x&0xff must alias: {stats:?}");
    // A partial mask is not an identity and must survive.
    let stats = check_bits_rule(&|c, x, _| x.clone() & c.const_bits(8, 0x0f));
    assert_eq!(stats.algebraic, 0, "x&0x0f must survive: {stats:?}");
}

#[test]
fn or_with_zero_and_full_mask() {
    let stats = check_bits_rule(&|c, x, _| {
        let or0 = (x.clone() | c.const_bits(8, 0)) ^ c.const_bits(8, 0);
        or0 | c.const_bits(8, 255)
    });
    // x|0 aliases, x^0 aliases, x|0xff becomes the constant mask.
    assert!(stats.algebraic >= 3, "{stats:?}");
}

#[test]
fn bool_identities() {
    let stats = check_bits_rule(&|c, _, sel| {
        let t = c.const_bool(true);
        let f = c.const_bool(false);
        let kept = (sel.clone() & t) | f; // both alias to sel
        let gone = sel.clone() & c.const_bool(false); // absorbed to false
        kept ^ gone // ^ false aliases again
    });
    assert!(stats.algebraic >= 4, "{stats:?}");
}

#[test]
fn mux_with_identical_arms_is_removed() {
    let stats = check_bits_rule(&|_, x, sel| sel.mux(x, x));
    assert!(stats.algebraic >= 1, "mux(c,a,a) must alias: {stats:?}");
}

#[test]
fn mux_with_constant_condition_selects_statically() {
    // The condition is a foldable compare of two constants; the taken
    // branch is dynamic, so the select aliases rather than folds.
    let stats = check_bits_rule(&|c, x, _| {
        let cond = c.const_bits(8, 5).lt(&c.const_bits(8, 7));
        cond.mux(&(x.clone() + c.const_bits(8, 3)), &(x.clone() ^ x.clone()))
    });
    assert!(stats.folded >= 1, "5<7 must fold: {stats:?}");
    assert!(stats.algebraic >= 1, "mux(true,·,·) must alias: {stats:?}");
}

#[test]
fn shift_by_zero_is_removed() {
    let stats = check_bits_rule(&|_, x, _| x.shl(0) ^ x.shr(0));
    assert!(stats.algebraic >= 2, "x<<0 and x>>0 must alias: {stats:?}");
}

#[test]
fn same_slot_compare_is_decided() {
    let stats = check_bits_rule(&|_, x, _| x.lt(x));
    assert!(stats.algebraic >= 1, "x<x must become false: {stats:?}");
}

#[test]
fn constant_expressions_fold_completely() {
    let stats = check_bits_rule(&|c, x, _| {
        // (3 + 4) * 2 folds to 14 at build time; the add with x stays.
        x.clone() + (c.const_bits(8, 3) + c.const_bits(8, 4)) * c.const_bits(8, 2)
    });
    assert!(stats.folded >= 2, "const subtree must fold: {stats:?}");
}

#[test]
fn duplicate_subexpressions_are_shared() {
    let stats = check_bits_rule(&|c, x, sel| {
        let k = c.const_bits(8, 3);
        // Two structurally identical adds (same operand slots), then two
        // identical muxes over them: value numbering shares both pairs.
        let a = x.clone() + k.clone();
        let b = x.clone() + k;
        let m1 = sel.mux(&a, x);
        let m2 = sel.mux(&b, x);
        m1 * m2
    });
    assert!(stats.cse_hits >= 2, "{stats:?}");
    assert!(stats.instrs_out < stats.instrs_in, "{stats:?}");
}

#[test]
fn dead_cones_are_eliminated_and_slots_compacted() {
    let stats = check_bits_rule(&|c, x, _| {
        // A computed-but-never-driven cone: captured in the component's
        // node list, lowered into the tape, then removed by liveness.
        let _dead = (x.clone() * x.clone()) + (x.clone() & c.const_bits(8, 0x3c));
        !x.clone()
    });
    assert!(stats.dce_removed >= 2, "dead cone must go: {stats:?}");
    assert!(stats.slots_saved >= 2, "dead slots must go: {stats:?}");
    assert!(stats.slots_out < stats.slots_in, "{stats:?}");
}

/// Fixed-point DUT: `x * k` quantised back to the input format. The
/// multiply is signed arithmetic on a growing format — the optimizer
/// must leave it alone even when `k` is a power of two.
fn fixed_system(k: f64) -> System {
    let fmt = Format::new(10, 4).expect("fmt");
    let c = Component::build("dsp");
    let xi = c.input("x", SigType::Fixed(fmt)).expect("input");
    let x = c.read(xi);
    let prod = (x * c.const_fixed(k, fmt)).to_fixed(fmt, Rounding::Nearest, Overflow::Saturate);
    let o = c.output("o", SigType::Fixed(fmt)).expect("output");
    let s = c.sfg("main").expect("sfg");
    s.drive(o, &prod).expect("drive");
    let f = c.fsm().expect("fsm");
    let s0 = f.initial("run").expect("state");
    f.from(s0).always().run(s.id()).to(s0).expect("t");
    let comp = c.finish().expect("finish");

    let mut sb = System::build("fixed_opt");
    let u = sb.add_component("u", comp).expect("add");
    sb.input("x", SigType::Fixed(fmt)).expect("pi");
    sb.connect_input("x", u, "x").expect("conn");
    sb.output("o", u, "o").expect("po");
    sb.finish().expect("system")
}

#[test]
fn signed_fixed_multiply_is_never_strength_reduced() {
    let fmt = Format::new(10, 4).expect("fmt");
    let stimuli: Vec<Vec<(&str, Value)>> = [-2.5, -1.25, -0.0625, 0.0, 0.75, 1.5, 3.875]
        .iter()
        .map(|&v| {
            vec![(
                "x",
                Value::Fixed(Fix::from_f64(v, fmt, Rounding::Nearest, Overflow::Saturate)),
            )]
        })
        .collect();
    // 2.0 is a power of two: an unsigned strength reduction would shift
    // the raw two's-complement bits and corrupt negative products.
    for k in [2.0, 1.0, 0.0] {
        let stats = assert_levels_agree(&|| fixed_system(k), &stimuli);
        assert_eq!(
            stats.algebraic, 0,
            "fixed-point multiply by {k} must not be rewritten: {stats:?}"
        );
    }
}

#[test]
fn opt_levels_are_monotone() {
    let mk = || {
        bits_system(&|c, x, sel| {
            let k = c.const_bits(8, 3);
            let a = x.clone() + k.clone();
            let b = x.clone() + k;
            let _dead = x.clone() * x.clone();
            sel.mux(&(a * b), &(x.clone() & c.const_bits(8, 255)))
        })
    };
    let none = CompiledSim::new_with(mk(), OptLevel::None)
        .expect("compiled")
        .opt_stats();
    let basic = CompiledSim::new_with(mk(), OptLevel::Basic)
        .expect("compiled")
        .opt_stats();
    let full = CompiledSim::new_with(mk(), OptLevel::Full)
        .expect("compiled")
        .opt_stats();
    assert_eq!(none.instrs_in, none.instrs_out, "None must not touch");
    assert_eq!(none.instrs_in, basic.instrs_in);
    assert_eq!(basic.instrs_in, full.instrs_in);
    assert!(basic.instrs_out <= basic.instrs_in, "{basic:?}");
    assert!(full.instrs_out < basic.instrs_out, "{full:?} vs {basic:?}");
    assert_eq!(basic.cse_hits + basic.dce_removed + basic.slots_saved, 0);
    assert!(full.cse_hits >= 1 && full.dce_removed >= 1, "{full:?}");
}

#[test]
fn attach_obs_flushes_optimizer_counters() {
    let reg = ocapi_obs::Registry::new();
    let mut sim = CompiledSim::new_with(
        bits_system(&|c, x, _| x.clone() * c.const_bits(8, 4)),
        OptLevel::Full,
    )
    .expect("compiled");
    let stats = sim.opt_stats();
    sim.attach_obs(&reg);
    for (name, want) in [
        ("compiled.opt.instrs_in", stats.instrs_in),
        ("compiled.opt.instrs_out", stats.instrs_out),
        ("compiled.opt.folded", stats.folded),
        ("compiled.opt.cse_hits", stats.cse_hits),
        ("compiled.opt.dce_removed", stats.dce_removed),
        ("compiled.opt.slots_saved", stats.slots_saved),
    ] {
        assert_eq!(reg.counter(name).get(), want, "{name}");
    }
}

/// Seeds `1144..1168`, disjoint from the seeds the workspace's
/// `tests/engines_agree.rs` runs.
#[test]
fn fuzz_none_vs_full_agree() {
    agree::check_generated(1144..1168);
}
