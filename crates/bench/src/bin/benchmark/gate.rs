//! `gate-signoff`: synthesis and gate-level simulation. All five designs
//! synthesized and run on `GateSystemSim`, packed stuck-at grading of the
//! HCOR netlist on two threads, and the `scaled_hcor` replica netlist
//! on the flat kernel and on `PartitionedGateSim` with K = 2.

use std::hint::black_box;

use ocapi::{CompiledSim, OptLevel, ParConfig, System};
use ocapi_designs::{hcor, scaled};
use ocapi_gatesim::fault::{stuck_at_coverage_sharded_stats, CycleStimulus, GradeStats};
use ocapi_gatesim::{GateError, GateSim, GateSystemSim, PartitionOptions, PartitionedGateSim};
use ocapi_synth::gate::{Netlist, WireId};
use ocapi_synth::{synthesize, SynthOptions};

use crate::cycle::{self, Design, Stimulus};
use crate::sample::{interleaved_builds, round_robin, Build, Pair};
use crate::trace::{SpanId, Tracer};
use crate::{fnv, Run, FNV_OFFSET};

/// Gate-level verification prefix: one DECT burst.
const GATE_PREFIX: usize = 512;
/// Cycles of the stimulus each grading pass applies.
const GRADE_CYCLES: usize = 128;
/// HCOR replicas in the scaled netlist.
const REPLICAS: usize = 192;
/// Partitions (and settle threads) of the partitioned engine.
const PARTITIONS: usize = 2;
/// Cycles on which flat and partitioned must agree, wire for wire.
const PART_PREFIX: u64 = 64;

/// The clocked interface shared by the flat and the partitioned kernel.
trait Clocked {
    fn set_bus(&mut self, wires: &[WireId], value: u64);
    fn clock(&mut self) -> Result<(), GateError>;
    fn bus(&self, wires: &[WireId]) -> u64;
}

impl Clocked for GateSim {
    fn set_bus(&mut self, wires: &[WireId], value: u64) {
        GateSim::set_bus(self, wires, value);
    }
    fn clock(&mut self) -> Result<(), GateError> {
        GateSim::clock(self)
    }
    fn bus(&self, wires: &[WireId]) -> u64 {
        GateSim::bus(self, wires)
    }
}

impl Clocked for PartitionedGateSim {
    fn set_bus(&mut self, wires: &[WireId], value: u64) {
        PartitionedGateSim::set_bus(self, wires, value);
    }
    fn clock(&mut self) -> Result<(), GateError> {
        PartitionedGateSim::clock(self)
    }
    fn bus(&self, wires: &[WireId]) -> u64 {
        PartitionedGateSim::bus(self, wires)
    }
}

/// One cycle per step on a netlist: a fresh xorshift word on every
/// input bus, a clock edge, every output bus folded into `digest`.
fn clock_netlist(
    sim: &mut impl Clocked,
    net: &Netlist,
    state: &mut u64,
    n: u64,
    digest: &mut u64,
) -> Result<(), GateError> {
    for _ in 0..n {
        for (_, bus) in &net.inputs {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            sim.set_bus(bus, *state);
        }
        sim.clock()?;
        for (_, bus) in &net.outputs {
            *digest = fnv(*digest, sim.bus(bus));
        }
    }
    Ok(())
}

/// `PART_PREFIX` cycles of the seeded stimulus, folding every gate
/// output after every clock: the scaled netlist's primary outputs see
/// the stimulus only after one cycle per replica. Returns the digest and
/// the stimulus state to continue from.
fn wire_digest(sim: &mut impl Clocked, net: &Netlist, seed: u64) -> Result<(u64, u64), GateError> {
    let (mut state, mut digest) = (seed | 1, FNV_OFFSET);
    for _ in 0..PART_PREFIX {
        clock_netlist(sim, net, &mut state, 1, &mut digest)?;
        for g in &net.gates {
            digest = fnv(digest, sim.bus(&[g.output]));
        }
    }
    Ok((digest, state))
}

fn gate_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The HCOR stimulus as bus-level grading vectors.
fn grade_stimuli(stim: &Stimulus) -> Vec<CycleStimulus> {
    stim.rows
        .iter()
        .take(GRADE_CYCLES)
        .map(|row| CycleStimulus {
            inputs: stim
                .inputs
                .iter()
                .zip(row)
                .map(|(name, v)| ((*name).to_owned(), v.to_raw()))
                .collect(),
        })
        .collect()
}

fn designs() -> Vec<Design> {
    let mut d = cycle::small_designs();
    d.push(cycle::dect_design());
    d
}

fn build_gate(d: Design, tr: &Tracer, parent: SpanId) -> Result<GateSystemSim, String> {
    let sys: System = tr
        .time("designs.capture", d.name, parent, d.build)
        .map_err(gate_err)?;
    tr.time("gatesim.build", d.name, parent, || {
        GateSystemSim::new(sys, &SynthOptions::default())
    })
    .map_err(|e| format!("gate-level build of {}: {e}", d.name))
}

fn hcor_netlist(tr: &Tracer, parent: SpanId) -> Result<Netlist, String> {
    let comp = tr
        .time("designs.capture", "hcor", parent, hcor::build_component)
        .map_err(gate_err)?;
    tr.time("synth", "hcor", parent, || {
        synthesize(&comp, &SynthOptions::default())
    })
    .map(|cn| cn.netlist)
    .map_err(gate_err)
}

fn scaled_netlist(tr: &Tracer, parent: SpanId) -> Result<Netlist, String> {
    tr.time("synth", "scaled_hcor", parent, || {
        scaled::scaled_hcor(REPLICAS)
    })
    .map_err(gate_err)
}

/// Everything the measurement phase runs, as built in set-up.
struct Built {
    gates: Vec<Option<GateSystemSim>>,
    grade_net: Option<Netlist>,
    flat: Option<(Netlist, GateSim)>,
    part: Option<(Netlist, PartitionedGateSim)>,
}

pub fn run(run: &mut Run<'_>) -> Result<(), String> {
    let tr = run.tracer;
    let designs = designs();
    let stims: Vec<Stimulus> = designs
        .iter()
        .map(|d| cycle::stimulus(d.name, run.seed))
        .collect();
    let outs: Vec<Vec<String>> = designs
        .iter()
        .map(cycle::outputs)
        .collect::<Result<_, _>>()?;
    let grade_stim = grade_stimuli(&stims[0]);
    let pool = ParConfig::new(2);
    let part_opts = PartitionOptions::new(PARTITIONS).threads(PARTITIONS);

    let setup = tr.open("setup", "", SpanId::NONE);
    let mut built = Built {
        gates: designs.iter().map(|_| None).collect(),
        grade_net: None,
        flat: None,
        part: None,
    };
    {
        let Built {
            gates,
            grade_net,
            flat,
            part,
        } = &mut built;
        let mut builds: Vec<Build<'_>> = designs
            .iter()
            .zip(gates.iter_mut())
            .map(|(d, slot)| -> Build<'_> {
                let d = *d;
                Box::new(move || {
                    *slot = Some(build_gate(d, tr, setup)?);
                    Ok(())
                })
            })
            .collect();
        builds.push(Box::new(|| {
            *grade_net = Some(hcor_netlist(tr, setup)?);
            Ok(())
        }));
        builds.push(Box::new(|| {
            let net = scaled_netlist(tr, setup)?;
            let sim = tr
                .time("gatesim.build", "scaled_hcor", setup, || {
                    GateSim::new(net.clone())
                })
                .map_err(gate_err)?;
            *flat = Some((net, sim));
            Ok(())
        }));
        builds.push(Box::new(|| {
            let net = scaled_netlist(tr, setup)?;
            let sim = tr
                .time("partition.build", "scaled_hcor", setup, || {
                    PartitionedGateSim::new(net.clone(), &part_opts)
                })
                .map_err(gate_err)?;
            *part = Some((net, sim));
            Ok(())
        }));
        let n_timed = builds.len();
        if tr.on() {
            // Synthesis alone, for `gatesim.build_s` = build − synth.
            for d in &designs {
                let d = *d;
                builds.push(Box::new(move || {
                    let sys = (d.build)().map_err(gate_err)?;
                    tr.time("synth", d.name, setup, || {
                        sys.timed
                            .iter()
                            .map(|t| synthesize(&t.comp, &SynthOptions::default()))
                            .collect::<Result<Vec<_>, _>>()
                    })
                    .map(drop)
                    .map_err(gate_err)
                }));
            }
        }
        let medians = interleaved_builds(run.reps, &mut builds)?;
        run.set("setup_s", medians[..n_timed].iter().map(|s| s.median).sum());
    }
    tr.close(setup);
    if tr.on() {
        let synth = tr.medians("synth");
        let design_synth: f64 = designs.iter().filter_map(|d| synth.get(d.name)).sum();
        run.set(
            "gatesim.build_s",
            tr.median_sum("gatesim.build") - design_synth,
        );
    }
    let missing = || "a build produced nothing".to_owned();
    let mut gates: Vec<GateSystemSim> = built
        .gates
        .into_iter()
        .map(|g| g.ok_or_else(missing))
        .collect::<Result<_, _>>()?;
    let grade_net = built.grade_net.ok_or_else(missing)?;
    let (flat_net, mut flat) = built.flat.ok_or_else(missing)?;
    let (part_net, mut part) = built.part.ok_or_else(missing)?;

    // Correctness gate.
    let verify = tr.open("verify", "", SpanId::NONE);
    // Gate level equals the compiled tape on every design's prefix.
    let (mut gate_count, mut evals) = (0.0, 0.0);
    for (di, d) in designs.iter().enumerate() {
        let mut reference = CompiledSim::new_with((d.build)().map_err(gate_err)?, OptLevel::Full)
            .map_err(gate_err)?;
        let mut want = FNV_OFFSET;
        cycle::drive(
            &mut reference,
            &stims[di],
            &outs[di],
            0,
            GATE_PREFIX,
            &mut want,
        )
        .map_err(gate_err)?;
        let mut got = FNV_OFFSET;
        cycle::drive(
            &mut gates[di],
            &stims[di],
            &outs[di],
            0,
            GATE_PREFIX,
            &mut got,
        )
        .map_err(|e| format!("gate level on {}: {e}", d.name))?;
        println!("digest {} {got:016x}", d.name);
        run.check(got == want, || {
            format!(
                "gate-level digest {got:016x} != compiled {want:016x} on {}",
                d.name
            )
        });
        gate_count += gates[di].gate_count() as f64;
        evals += gates[di].stats().gate_evals as f64 / GATE_PREFIX as f64;
    }
    run.set("synth.gates", gate_count);
    run.set("gatesim.evals_per_cycle", evals);
    // Partitioned K=2 equals flat: every wire on every cycle, and the
    // kernel stats.
    let (flat_digest, lfsr) = wire_digest(&mut flat, &flat_net, run.seed).map_err(gate_err)?;
    let (part_digest, _) = wire_digest(&mut part, &part_net, run.seed).map_err(gate_err)?;
    println!("digest scaled_hcor {flat_digest:016x}");
    run.check(flat_digest == part_digest, || {
        format!("partitioned digest {part_digest:016x} != flat {flat_digest:016x}")
    });
    run.check(part.stats() == flat.stats(), || {
        format!(
            "partitioned stats {:?} != flat {:?}",
            part.stats(),
            flat.stats()
        )
    });
    run.set("partition.cut_edges", part.cut_edges() as f64);
    run.set(
        "partition.exchanged_per_cycle",
        part.exchanged() as f64 / PART_PREFIX as f64,
    );
    // Packed grading on two threads equals one thread.
    let (want, stats): (_, GradeStats) =
        stuck_at_coverage_sharded_stats(&grade_net, &grade_stim, &ParConfig::single())
            .map_err(gate_err)?;
    let (two, _) =
        stuck_at_coverage_sharded_stats(&grade_net, &grade_stim, &pool).map_err(gate_err)?;
    run.check(
        two.detected == want.detected && two.undetected == want.undetected,
        || {
            format!(
                "grading on 2 threads detected {} != 1 thread {}",
                two.detected, want.detected
            )
        },
    );
    println!(
        "grading: {} of {} faults detected",
        want.detected, want.total
    );
    run.set(
        "gatefault.faults_per_gate_eval",
        stats.faults_per_gate_eval(),
    );
    tr.close(verify);

    let detected = want.detected;
    let measure = tr.open("measure", "", SpanId::NONE);
    let mut pairs: Vec<Pair<'_>> = Vec::new();
    for ((d, sim), (stim, outs)) in designs.iter().zip(gates).zip(stims.iter().zip(&outs)) {
        pairs.push(cycle::stream_pair(
            "gatesim",
            d.name,
            Box::new(sim),
            stim,
            outs,
            1.0,
        ));
    }
    pairs.push(Pair::new("gatefault", "hcor", |reps, _| {
        let mut faults = 0.0;
        for _ in 0..reps {
            let (report, _) = stuck_at_coverage_sharded_stats(&grade_net, &grade_stim, &pool)
                .map_err(gate_err)?;
            if report.detected != detected {
                return Err(format!(
                    "detected {} faults, expected {detected}",
                    report.detected
                ));
            }
            faults += report.total as f64;
        }
        Ok(faults)
    }));
    let mut flat_lfsr = lfsr;
    pairs.push(Pair::new(
        "gatesim.scaled",
        "scaled_hcor",
        move |reps, _| {
            let mut digest = FNV_OFFSET;
            clock_netlist(&mut flat, &flat_net, &mut flat_lfsr, reps, &mut digest)
                .map_err(gate_err)?;
            black_box(digest);
            Ok(reps as f64)
        },
    ));
    let mut part_lfsr = lfsr;
    pairs.push(Pair::new("partition", "scaled_hcor", move |reps, _| {
        let mut digest = FNV_OFFSET;
        clock_netlist(&mut part, &part_net, &mut part_lfsr, reps, &mut digest).map_err(gate_err)?;
        black_box(digest);
        Ok(reps as f64)
    }));
    let tally = round_robin(&mut pairs, run.budget, tr, measure);
    tr.close(measure);
    run.report_pairs(&pairs, "cycles or faults", tally);
    Ok(())
}
