//! Partition-count invariance of the model-parallel gate engine.
//!
//! The contract under test: `PartitionedGateSim` is a *parallel
//! schedule* of the flat kernel's event wave, not an approximation.
//! For every partition count the observed values, the kernel stats
//! (gate evaluations and events), the stuck-at fault classification
//! and even the oscillation diagnostics must be identical to the
//! single-core `GateSim` — the same contract the CI determinism job
//! checks end-to-end by byte-diffing `table_gates --json` across
//! `--partitions` values.

use ocapi_gatesim::fault::{enumerate_faults, Fault};
use ocapi_gatesim::{GateError, GateSim, PartitionOptions, PartitionedGateSim};
use ocapi_synth::bitops::ripple_add;
use ocapi_synth::gate::{Gate, GateKind, Netlist, WireId};

const PARTITION_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A `table_gates`-shaped workload in miniature: `lanes` parallel
/// pipelines of `stages` adder stages, each stage separated from the
/// next by a DFF bank and cross-coupled to its neighbour lane, so the
/// netlist has many balanced combinational islands and only registered
/// nets between them — the structure the partitioner cuts.
fn pipeline_grid(lanes: usize, stages: usize) -> Netlist {
    let mut net = Netlist::new();
    let a = net.input_bus("a", 8);
    let b = net.input_bus("b", 8);
    let cin = net.constant(false);
    let mut regs: Vec<Vec<WireId>> = (0..lanes)
        .map(|l| {
            let mut rb: Vec<WireId> = b.clone();
            rb.rotate_left(l % 8);
            let (sum, _) = ripple_add(&mut net, &a, &rb, cin);
            sum.iter().map(|w| net.dff(*w, l % 2 == 0)).collect()
        })
        .collect();
    for _ in 1..stages {
        regs = (0..lanes)
            .map(|l| {
                let other = &regs[(l + 1) % lanes];
                let mixed: Vec<WireId> = regs[l]
                    .iter()
                    .zip(other)
                    .map(|(x, y)| net.gate(GateKind::Xor2, &[*x, *y]))
                    .collect();
                let (sum, _) = ripple_add(&mut net, &regs[l], &mixed, cin);
                sum.iter().map(|w| net.dff(*w, false)).collect()
            })
            .collect();
    }
    let mut folds = Vec::new();
    for lane in &regs {
        let mut fold = lane[0];
        for w in &lane[1..] {
            fold = net.gate(GateKind::Xor2, &[fold, *w]);
        }
        folds.push(fold);
    }
    net.output_bus("sig", folds);
    net.output_bus("q", regs.swap_remove(0));
    net
}

/// One engine behind one driving interface, so the flat and the
/// partitioned kernels run the exact same stimulus code path.
enum Engine {
    Flat(GateSim),
    Part(PartitionedGateSim),
}

impl Engine {
    fn build(net: &Netlist, partitions: Option<usize>) -> Result<Engine, GateError> {
        Ok(match partitions {
            None => Engine::Flat(GateSim::new(net.clone())?),
            Some(k) => Engine::Part(PartitionedGateSim::new(
                net.clone(),
                &PartitionOptions::new(k),
            )?),
        })
    }

    fn set_bus(&mut self, wires: &[WireId], value: u64) {
        match self {
            Engine::Flat(s) => s.set_bus(wires, value),
            Engine::Part(s) => s.set_bus(wires, value),
        }
    }

    fn bus(&self, wires: &[WireId]) -> u64 {
        match self {
            Engine::Flat(s) => s.bus(wires),
            Engine::Part(s) => s.bus(wires),
        }
    }

    fn settle(&mut self) -> Result<(), GateError> {
        match self {
            Engine::Flat(s) => s.settle(),
            Engine::Part(s) => s.settle(),
        }
    }

    fn clock(&mut self) -> Result<(), GateError> {
        match self {
            Engine::Flat(s) => s.clock(),
            Engine::Part(s) => s.clock(),
        }
    }

    fn stats(&self) -> ocapi_gatesim::GateSimStats {
        match self {
            Engine::Flat(s) => s.stats(),
            Engine::Part(s) => s.stats(),
        }
    }
}

/// Drives `cycles` clock edges of deterministic stimulus and returns
/// every output-bus word observed after each settle and each clock,
/// plus the final kernel activity stats.
fn observe(
    net: &Netlist,
    partitions: Option<usize>,
    cycles: u64,
) -> Result<(Vec<u64>, ocapi_gatesim::GateSimStats), GateError> {
    let mut engine = Engine::build(net, partitions)?;
    let aw = net.input_by_name("a").map(<[WireId]>::to_vec);
    let bw = net.input_by_name("b").map(<[WireId]>::to_vec);
    let outs: Vec<Vec<WireId>> = net.outputs.iter().map(|(_, ws)| ws.clone()).collect();
    let mut seen = Vec::new();
    let mut x = 0x1d87_2b41_1e86_3f25u64;
    for _ in 0..cycles {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if let Some(aw) = &aw {
            engine.set_bus(aw, x & 0xff);
        }
        if let Some(bw) = &bw {
            engine.set_bus(bw, (x >> 8) & 0xff);
        }
        engine.settle()?;
        for ws in &outs {
            seen.push(engine.bus(ws));
        }
        engine.clock()?;
        for ws in &outs {
            seen.push(engine.bus(ws));
        }
    }
    Ok((seen, engine.stats()))
}

#[test]
fn values_and_stats_are_invariant_across_partition_counts() {
    let net = pipeline_grid(6, 3);
    let reference = observe(&net, None, 32).expect("flat run");
    for k in PARTITION_COUNTS {
        let observed = observe(&net, Some(k), 32).expect("partitioned run");
        assert_eq!(
            observed, reference,
            "partitioned engine diverged from flat at k={k}"
        );
    }
}

#[test]
fn fault_classification_is_invariant_across_partition_counts() {
    // Classify a sampled fault universe through the flat kernel and
    // through the partitioned engine at every K: the detected /
    // undetected split must be identical fault for fault, including
    // faults that make a machine oscillate (detected on a tester).
    // Dropping the `sig` observation bus leaves the per-lane XOR folds
    // of lanes 1..n as dead logic, so the sample is guaranteed to
    // contain undetectable faults alongside detectable ones.
    let mut net = pipeline_grid(3, 2);
    net.outputs.retain(|(name, _)| name == "q");
    let inject = |fault: Fault| {
        let mut n = net.clone();
        let g = &mut n.gates[fault.gate];
        *g = Gate {
            kind: if fault.stuck_at {
                GateKind::Const1
            } else {
                GateKind::Const0
            },
            inputs: Vec::new(),
            output: g.output,
            init: fault.stuck_at,
        };
        n
    };
    let universe = enumerate_faults(&net);
    let sampled: Vec<Fault> = universe.iter().copied().step_by(9).take(48).collect();
    assert!(sampled.len() >= 32, "sample too small to be meaningful");
    // Full per-fault behaviour: the observation stream, the activity
    // stats, and any error — all Eq, so one vector comparison checks
    // classification *and* stats parity *and* diagnostic parity.
    type FaultRun = Result<(Vec<u64>, ocapi_gatesim::GateSimStats), GateError>;
    let run_all = |partitions: Option<usize>| -> Vec<FaultRun> {
        sampled
            .iter()
            .map(|f| observe(&inject(*f), partitions, 12))
            .collect()
    };
    let golden = observe(&net, None, 12).expect("fault-free run").0;
    let reference = run_all(None);
    let detected: Vec<bool> = reference
        .iter()
        .map(|r| match r {
            Ok((seen, _)) => *seen != golden,
            // An oscillating faulty machine is observable: detected.
            Err(_) => true,
        })
        .collect();
    assert!(
        detected.iter().any(|d| *d) && detected.iter().any(|d| !*d),
        "sample must contain both detected and undetected faults"
    );
    for k in PARTITION_COUNTS {
        assert_eq!(
            run_all(Some(k)),
            reference,
            "fault behaviour diverged at k={k}"
        );
    }
}

#[test]
fn oscillation_diagnostics_match_flat_across_the_cut() {
    // A NAND-enabled inverter ring next to a pipelined adder: when the
    // enable input sensitises the loop, every engine must report the
    // same Oscillation error — same spent evaluation limit, same
    // sorted `unstable` gate list in *flat* netlist indices — even
    // though the partitioned engine discovered it inside a sub-kernel
    // with its own local gate numbering.
    let mut net = pipeline_grid(2, 2);
    let en = net.input_bus("en", 1);
    let loopback = net.wire();
    let n1 = net.gate(GateKind::Nand2, &[en[0], loopback]);
    let n2 = net.gate(GateKind::Inv, &[n1]);
    net.gate_into(GateKind::Inv, &[n2], loopback);
    net.output_bus("ring", vec![loopback]);

    let run = |partitions: Option<usize>| -> Result<Vec<u64>, GateError> {
        let mut engine = Engine::build(&net, partitions)?;
        let ew = net.input_by_name("en").map(<[WireId]>::to_vec);
        if let Some(ew) = &ew {
            engine.set_bus(ew, 1);
        }
        engine.settle()?;
        Ok(Vec::new())
    };
    let reference = run(None).expect_err("ring must oscillate");
    assert!(
        matches!(&reference, GateError::Oscillation { unstable, .. } if !unstable.is_empty()),
        "flat run must report the unstable gates: {reference:?}"
    );
    for k in PARTITION_COUNTS {
        let observed = run(Some(k)).expect_err("ring must oscillate");
        assert_eq!(observed, reference, "oscillation diagnostics at k={k}");
    }
}
