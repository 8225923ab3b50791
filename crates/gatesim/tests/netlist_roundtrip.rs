//! Round-trip and optimisation equivalence at the gate level:
//!
//! * a netlist written as structural Verilog and parsed back must
//!   behave identically (the Figure 8 hand-off is lossless), and
//! * `opt::optimize` must never change a netlist's function.
//!
//! Both are property-tested on randomly generated netlists, with
//! randomness from the in-tree deterministic [`XorShift64`] PRNG (no
//! registry access needed); every case reproduces from its seed, and
//! the `slow-tests` feature multiplies the case count.

use ocapi::rng::XorShift64;
use ocapi_gatesim::GateSim;
use ocapi_synth::gate::{GateKind, Netlist};
use ocapi_synth::{emit, opt, parse, techmap};

#[derive(Debug, Clone)]
struct Recipe {
    ops: Vec<(u8, u8, u8, u8)>,
    stimuli: Vec<u8>,
}

fn random_recipe(rng: &mut XorShift64) -> Recipe {
    let ops = (0..1 + rng.index(39))
        .map(|_| {
            (
                rng.next_u64() as u8,
                rng.next_u64() as u8,
                rng.next_u64() as u8,
                rng.next_u64() as u8,
            )
        })
        .collect();
    let stimuli = (0..2 + rng.index(14))
        .map(|_| rng.next_u64() as u8)
        .collect();
    Recipe { ops, stimuli }
}

fn cases() -> u64 {
    if cfg!(feature = "slow-tests") {
        192
    } else {
        48
    }
}

/// Builds a random (but always legal and acyclic) netlist from a recipe:
/// a 4-bit input bus, a pool of derived wires, a 4-bit output bus.
fn build(r: &Recipe) -> Netlist {
    let mut n = Netlist::new();
    let mut pool = n.input_bus("x", 4);
    for (kind_sel, a, b, c) in &r.ops {
        let pa = pool[*a as usize % pool.len()];
        let pb = pool[*b as usize % pool.len()];
        let pc = pool[*c as usize % pool.len()];
        let w = match kind_sel % 12 {
            0 => n.gate(GateKind::Inv, &[pa]),
            1 => n.gate(GateKind::And2, &[pa, pb]),
            2 => n.gate(GateKind::Or2, &[pa, pb]),
            3 => n.gate(GateKind::Nand2, &[pa, pb]),
            4 => n.gate(GateKind::Nor2, &[pa, pb]),
            5 => n.gate(GateKind::Xor2, &[pa, pb]),
            6 => n.gate(GateKind::Xnor2, &[pa, pb]),
            7 => n.gate(GateKind::Mux2, &[pa, pb, pc]),
            8 => n.gate(GateKind::Buf, &[pa]),
            9 => n.constant(*a % 2 == 0),
            10 => n.dff(pa, *b % 2 == 0),
            _ => n.dff(pb, true),
        };
        pool.push(w);
    }
    let outs: Vec<_> = pool.iter().rev().take(4).copied().collect();
    n.output_bus("y", outs);
    n
}

/// Drives two netlists with the same stimulus and asserts the output
/// bus matches after every settle and every clock edge.
fn assert_equivalent(a: Netlist, b: Netlist, stimuli: &[u8]) {
    let mut sa = GateSim::new(a).expect("sim a");
    let mut sb = GateSim::new(b).expect("sim b");
    for (cyc, x) in stimuli.iter().enumerate() {
        for s in [&mut sa, &mut sb] {
            let inp = s.netlist().input_by_name("x").expect("bus").to_vec();
            s.set_bus(&inp, *x as u64 & 0xf);
            s.settle().expect("settle");
        }
        let oa = sa.netlist().output_by_name("y").expect("bus").to_vec();
        let ob = sb.netlist().output_by_name("y").expect("bus").to_vec();
        assert_eq!(sa.bus(&oa), sb.bus(&ob), "combinational, cycle {cyc}");
        sa.clock().expect("clock");
        sb.clock().expect("clock");
        assert_eq!(sa.bus(&oa), sb.bus(&ob), "registered, cycle {cyc}");
    }
}

#[test]
fn verilog_round_trip_preserves_function() {
    for seed in 0..cases() {
        let recipe = random_recipe(&mut XorShift64::new(0x0e71 + seed));
        let original = build(&recipe);
        let src = emit::verilog_netlist("dut", &original);
        let parsed = parse::verilog_netlist(&src).expect("emitted netlist must parse");
        assert_eq!(parsed.name.as_str(), "dut");
        assert_equivalent(original, parsed.netlist, &recipe.stimuli);
    }
}

#[test]
fn optimize_preserves_function() {
    for seed in 0..cases() {
        let recipe = random_recipe(&mut XorShift64::new(0x10d0 + seed));
        let original = build(&recipe);
        let mut optimized = original.clone();
        opt::optimize(&mut optimized);
        assert!(
            optimized.area() <= original.area(),
            "seed {seed}: optimisation must not grow area"
        );
        assert_equivalent(original, optimized, &recipe.stimuli);
    }
}

#[test]
fn optimized_netlist_round_trips() {
    for seed in 0..cases() {
        let recipe = random_recipe(&mut XorShift64::new(0x2bd0 + seed));
        let mut net = build(&recipe);
        opt::optimize(&mut net);
        let src = emit::verilog_netlist("dut", &net);
        let parsed = parse::verilog_netlist(&src).expect("parse");
        assert_equivalent(net, parsed.netlist, &recipe.stimuli);
    }
}

#[test]
fn parallel_fault_simulation_matches_serial() {
    use ocapi_gatesim::fault::{stuck_at_coverage, stuck_at_coverage_sharded_stats, CycleStimulus};
    for seed in 0..cases() {
        let recipe = random_recipe(&mut XorShift64::new(0xfa17 + seed));
        let net = build(&recipe);
        let stimuli: Vec<CycleStimulus> = recipe
            .stimuli
            .iter()
            .map(|x| CycleStimulus {
                inputs: vec![("x".into(), *x as u64 & 0xf)],
            })
            .collect();
        let (serial, _) = stuck_at_coverage(&net, &stimuli).expect("serial grade");
        let (parallel, _) =
            stuck_at_coverage_sharded_stats(&net, &stimuli, &ocapi::ParConfig::single())
                .expect("parallel grade");
        assert_eq!(serial.total, parallel.total, "seed {seed}");
        assert_eq!(serial.detected, parallel.detected, "seed {seed}");
        assert_eq!(serial.undetected, parallel.undetected, "seed {seed}");
    }
}

#[test]
fn nand_inv_mapping_preserves_function() {
    for seed in 0..cases() {
        let recipe = random_recipe(&mut XorShift64::new(0x9a9d + seed));
        let original = build(&recipe);
        let mut mapped = original.clone();
        techmap::to_nand_inv(&mut mapped);
        assert!(
            techmap::is_nand_inv(&mapped),
            "seed {seed}: mapping must reach the target cell set"
        );
        assert_equivalent(original.clone(), mapped.clone(), &recipe.stimuli);
        // And the classic map-then-clean flow stays equivalent too.
        opt::optimize(&mut mapped);
        assert!(
            techmap::is_nand_inv(&mapped),
            "seed {seed}: clean-up must stay in the cell set"
        );
        assert_equivalent(original, mapped, &recipe.stimuli);
    }
}
