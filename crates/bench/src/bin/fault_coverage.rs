//! Fault coverage and fault tolerance of the HCOR correlator, at two
//! levels of the paper's design hierarchy:
//!
//! * **Gate level** — stuck-at coverage of the generated verification
//!   testbenches, an extension of the paper's Figure 8 story: the
//!   testbench vectors recorded from system simulation double as a
//!   manufacturing test set, and fault simulation grades them.
//! * **System level** — a cycle-true `FaultySim` campaign over every
//!   register and net of the captured system, classifying each injected
//!   fault as masked, silently corrupting or detected.
//!
//! Both levels shard across the `--threads N` worker pool (fault
//! batches at gate level, fault events at system level) with
//! bit-identical reports for every `N`; the campaign is additionally
//! timed at one thread and at `N` threads, and the measured speedup
//! lands in the `--perf-json` record. The graceful-degradation sweep
//! checkpoints per run under `--checkpoint DIR` and resumes with
//! `--resume` to byte-identical JSON. Run with:
//!
//! `cargo run --release -p ocapi-bench --bin fault_coverage -- [--threads N] [--quick]`

#![deny(clippy::unwrap_used, clippy::expect_used)]

use ocapi::rng::XorShift64;
use ocapi::sim::fault::{run_campaign_batched, run_campaign_par, FaultEvent, FaultPlan};
use ocapi::sim::par::ParConfig;
use ocapi::{CompiledDesign, InterpSim, Simulator, Value};
use ocapi_bench::{
    fingerprint, parse_args, timed, write_profile, BenchArgs, BenchError, Reporter, Robust,
};
use ocapi_designs::hcor;
use ocapi_gatesim::fault::{
    flush_grade_obs, stuck_at_coverage, stuck_at_coverage_sharded_stats, CycleStimulus, GradeStats,
};
use ocapi_obs::Registry;
use ocapi_synth::{synthesize, SynthOptions};

/// Apply–settle–clock–observe stimulus for the HCOR netlist: a bit
/// stream with the thresholds cycled every 32 symbols.
fn stimuli_for(bits: &[bool], thresholds: &[u64]) -> Vec<CycleStimulus> {
    bits.iter()
        .enumerate()
        .map(|(k, b)| CycleStimulus {
            inputs: vec![
                ("bit_in".into(), *b as u64),
                ("enable".into(), 1),
                ("threshold".into(), thresholds[(k / 32) % thresholds.len()]),
            ],
        })
        .collect()
}

/// System-level fault campaign: sweep every fault site of the captured
/// HCOR system with transient flips and stuck-at faults, running the
/// interpreted simulator under `FaultySim` — sharded over fault events,
/// timed at 1 and at N threads for the perf trajectory.
fn system_level_campaign(
    args: &BenchArgs,
    rep: &mut Reporter,
    obs: &Registry,
) -> Result<(), BenchError> {
    let root = obs.span("fault_coverage");
    let pool = args.pool();
    let rb = Robust::new(args, &pool, Some(obs));
    let sys = hcor::build_system()?;
    let sites = FaultPlan::sites(&sys);
    let bits = hcor::test_pattern(if args.quick { 128 } else { 256 }, 7);
    let cycles = bits.len() as u64;

    // Exhaustive over bit positions: four transient flips spread across
    // the burst and one nine-cycle stuck-at-1 per bit of every site.
    let mut events: Vec<FaultEvent> = Vec::new();
    for site in &sites {
        let width = FaultPlan::site_width(&sys, site);
        for bit in 0..width {
            for k in 1..=4u64 {
                events.push(FaultEvent::flip(site.clone(), bit, k * cycles / 5));
            }
            events.push(FaultEvent::stuck_at(site.clone(), bit, true, cycles / 4, 9));
        }
    }

    let stimulus = |sim: &mut dyn Simulator, cycle: u64| {
        sim.set_input("enable", Value::Bool(true))?;
        sim.set_input("threshold", Value::bits(5, 11))?;
        sim.set_input("bit_in", Value::Bool(bits[cycle as usize]))?;
        Ok(())
    };
    let make_sim = || InterpSim::new(hcor::build_system()?);

    // The perf-trajectory measurement: same campaign at one worker and
    // at the requested pool width. Reports are asserted identical —
    // the determinism contract, enforced on every benchmark run.
    let t_campaign = root.child("campaign").timer();
    let (serial_report, secs_t1) =
        timed(|| run_campaign_par(&ParConfig::single(), make_sim, stimulus, cycles, &events));
    let serial_report = serial_report?;
    let (report, secs_tn) = if pool.threads() > 1 {
        let (r, s) = timed(|| run_campaign_par(&pool, make_sim, stimulus, cycles, &events));
        let r = r?;
        assert_eq!(
            r.outcomes, serial_report.outcomes,
            "thread-count determinism violated"
        );
        (r, s)
    } else {
        (serial_report, secs_t1)
    };
    drop(t_campaign);
    obs.counter("fault.campaign_injections")
        .add(report.total() as u64);

    // The same campaign through the lane-batched compiled back-end:
    // `--lanes` fault runs share one micro-op tape walk per cycle, and
    // the chunks shard across the same worker pool. The one capture and
    // tape compile of the design are part of the timed run. Classification must match the scalar
    // interpreter event-for-event — asserted on every benchmark run,
    // like the thread-count contract above.
    let t_batched = root.child("campaign_batched").timer();
    let (batched, secs_batched) = timed(|| {
        let design = CompiledDesign::new(hcor::build_system()?, args.opt_level(), |_| None)?;
        run_campaign_batched(&pool, &design, stimulus, cycles, &events, args.lanes)
    });
    let batched = batched?;
    drop(t_batched);
    assert_eq!(
        batched.outcomes, report.outcomes,
        "batched campaign classification diverged from scalar"
    );

    println!(
        "\nsystem-level FaultySim campaign on HCOR ({} sites, {} injections, {} cycles each):",
        sites.len(),
        report.total(),
        cycles
    );
    println!(
        "  masked             {:>6}  ({:.1}%)",
        report.masked(),
        100.0 * report.masked() as f64 / report.total() as f64
    );
    println!(
        "  silent corruption  {:>6}  ({:.1}%)",
        report.silent(),
        100.0 * report.silent_rate()
    );
    println!("  detected (error)   {:>6}", report.detected());
    if let Some(lat) = report.mean_detection_latency() {
        println!("  mean latency to first visible effect: {lat:.1} cycles");
    }
    println!(
        "  campaign wall: {secs_t1:.2}s at 1 thread, {secs_tn:.2}s at {} ({:.2}x)",
        pool.threads(),
        secs_t1 / secs_tn.max(1e-12)
    );
    println!(
        "  batched (compiled, {} lane(s)): {secs_batched:.2}s — identical classification",
        args.lanes
    );

    rep.result_u64("campaign_injections", report.total() as u64);
    rep.result_u64("campaign_masked", report.masked() as u64);
    rep.result_u64("campaign_silent", report.silent() as u64);
    rep.result_u64("campaign_detected", report.detected() as u64);
    rep.perf_f64("campaign_secs_t1", secs_t1);
    rep.perf_f64("campaign_secs_tn", secs_tn);
    rep.perf_f64("campaign_speedup", secs_t1 / secs_tn.max(1e-12));
    rep.perf_f64(
        "campaign_runs_per_sec",
        report.total() as f64 / secs_tn.max(1e-12),
    );
    rep.perf_f64(
        "campaign_cycles_per_sec",
        (report.total() as u64 * cycles) as f64 / secs_tn.max(1e-12),
    );
    rep.perf_u64("campaign_lanes", args.lanes as u64);
    rep.perf_f64("campaign_batched_secs", secs_batched);
    rep.perf_f64(
        "campaign_batched_runs_per_sec",
        report.total() as f64 / secs_batched.max(1e-12),
    );

    // Graceful degradation: per-cycle output corruption and sync
    // detection vs injected fault rate. Random single-cycle flips at
    // increasing per-cycle probability, compared against the fault-free
    // run cycle by cycle. Each (rate, seed) run is one work item,
    // checkpointed per run under `--checkpoint`.
    let outputs = ["detect", "corr", "sync_pos"];
    let mut golden: Vec<Vec<Value>> = Vec::with_capacity(bits.len());
    let mut sim = InterpSim::new(hcor::build_system()?)?;
    for b in &bits {
        sim.set_input("enable", Value::Bool(true))?;
        sim.set_input("threshold", Value::bits(5, 11))?;
        sim.set_input("bit_in", Value::Bool(*b))?;
        sim.step()?;
        let mut row = Vec::with_capacity(outputs.len());
        for o in outputs {
            row.push(sim.output(o)?);
        }
        golden.push(row);
    }

    println!("\ngraceful degradation vs injected fault rate (random single-cycle flips):");
    println!(
        "  {:>10} {:>6} {:>16} {:>12}",
        "fault rate", "runs", "corrupted cycles", "sync found"
    );
    let rates: &[f64] = if args.quick {
        &[0.0, 0.2, 1.0]
    } else {
        &[0.0, 0.05, 0.2, 0.5, 1.0, 2.0]
    };
    let runs = if args.quick { 8u64 } else { 20u64 };
    let t_degrade = root.child("degrade").timer();
    let sw_degrade = ocapi_obs::Stopwatch::start();
    for &rate in rates {
        // Plans are sampled up front, in order, from the one captured
        // system; the simulation runs they drive are the work items.
        // `rate` > 1 approximates
        // multiple faults per cycle by stacking independent plans.
        let plans: Vec<FaultPlan> = (0..runs)
            .map(|seed| {
                let mut plan = FaultPlan::random(&sys, cycles, rate.min(1.0), 0xfa117 + seed);
                if rate > 1.0 {
                    for e in FaultPlan::random(&sys, cycles, rate - 1.0, 0x5eed + seed).events() {
                        plan.push(e.clone());
                    }
                }
                plan
            })
            .collect();
        let fp = fingerprint(&[
            "degrade",
            &rate.to_bits().to_string(),
            &runs.to_string(),
            &cycles.to_string(),
        ]);
        let outcomes = rb.run_chunked(
            &format!("degrade_r{rate}"),
            fp,
            runs as usize,
            1,
            |(c, d): &(u64, bool)| format!("{c},{}", *d as u8),
            |s| {
                let (c, d) = s.split_once(',')?;
                Some((c.parse().ok()?, d == "1"))
            },
            || (),
            |_, idxs| {
                let plan = &plans[idxs[0]];
                let mut sim =
                    ocapi::FaultySim::new(InterpSim::new(hcor::build_system()?)?, plan.clone());
                sim.attach_obs(obs);
                let mut corrupted = 0u64;
                let mut detected = false;
                for (cyc, b) in bits.iter().enumerate() {
                    if sim.set_input("enable", Value::Bool(true)).is_err()
                        || sim.set_input("threshold", Value::bits(5, 11)).is_err()
                        || sim.set_input("bit_in", Value::Bool(*b)).is_err()
                        || sim.step().is_err()
                    {
                        break;
                    }
                    let mut now = Vec::with_capacity(outputs.len());
                    for o in outputs {
                        now.push(sim.output(o)?);
                    }
                    if now != golden[cyc] {
                        corrupted += 1;
                    }
                    if now[0] == Value::Bool(true) {
                        detected = true;
                    }
                }
                Ok(vec![(corrupted, detected)])
            },
        )?;
        let corrupted: u64 = outcomes.iter().map(|(c, _)| c).sum();
        let detects = outcomes.iter().filter(|(_, d)| *d).count() as u64;
        println!(
            "  {rate:>10.2} {runs:>6} {:>15.1}% {detects:>9}/{runs}",
            100.0 * corrupted as f64 / (runs * cycles) as f64
        );
        rep.result_u64(&format!("degrade_r{rate}_corrupted"), corrupted);
        rep.result_u64(&format!("degrade_r{rate}_detects"), detects);
    }
    let degrade_secs = sw_degrade.elapsed_secs();
    drop(t_degrade);
    rep.perf_f64("degrade_wall_secs", degrade_secs);
    rep.perf_u64("degrade_runs", runs * rates.len() as u64);
    rep.perf_f64(
        "degrade_runs_per_sec",
        (runs * rates.len() as u64) as f64 / degrade_secs.max(1e-12),
    );
    Ok(())
}

fn main() {
    let args = parse_args("fault_coverage");
    if let Err(e) = run(&args) {
        eprintln!("fault_coverage: {e}");
        std::process::exit(1);
    }
}

fn run(args: &BenchArgs) -> Result<(), BenchError> {
    let pool = args.pool();
    let mut rep = Reporter::new("fault_coverage");
    let obs = Registry::new();
    let root = obs.span("fault_coverage");

    let comp = hcor::build_component()?;
    let netlist = synthesize(&comp, &SynthOptions::default())?;
    let n_gates = netlist.netlist.combinational_count();
    let n_ffs = netlist.netlist.dff_count();
    println!(
        "HCOR netlist: {} gates, {} FF — {} stuck-at faults",
        n_gates,
        n_ffs,
        2 * (n_gates + n_ffs)
    );
    rep.result_u64("netlist_gates", n_gates as u64);
    rep.result_u64("netlist_ffs", n_ffs as u64);
    println!(
        "\n{:<38} {:>8} {:>10} {:>10}",
        "vector set", "cycles", "detected", "coverage"
    );

    let mut sets: Vec<(String, Vec<bool>, Vec<u64>)> = Vec::new();
    // The functional pattern the generated testbench replays (burst with
    // the sync word at a known offset), at two lengths.
    let lengths: &[usize] = if args.quick { &[64] } else { &[64, 256] };
    for &n in lengths {
        sets.push((
            format!("generated testbench (burst, {n})"),
            hcor::test_pattern(n, 7),
            vec![11],
        ));
    }
    if !args.quick {
        // The same burst with a threshold sweep between segments.
        sets.push((
            "burst + threshold sweep (256)".into(),
            hcor::test_pattern(256, 7),
            vec![15, 11, 31, 9],
        ));
    }
    // Random bits, same lengths.
    let mut rng = XorShift64::new(0x2545f4914f6cdd1d);
    for &n in lengths {
        let bits = (0..n).map(|_| rng.next_bool()).collect();
        sets.push((format!("random bits ({n})"), bits, vec![11]));
    }
    // The lower bound: a constant stream never exercises the datapath.
    sets.push(("all-zero idle (64)".into(), vec![false; 64], vec![11]));

    // Every set is graded, and timed, on the packed grader (63 fault
    // machines per word, sharded); each report must equal the reference
    // one-fault-at-a-time grader's on the same set, checked untimed on
    // every run.
    let mut best: Option<ocapi_gatesim::fault::FaultReport> = None;
    let mut grade_secs = 0.0f64;
    let mut grade_faults = 0u64;
    let mut grade_stats = GradeStats::default();
    for (label, bits, thresholds) in &sets {
        let stim = stimuli_for(bits, thresholds);
        let t_grade = root.child("grade").timer();
        let (graded, secs) =
            timed(|| stuck_at_coverage_sharded_stats(&netlist.netlist, &stim, &pool));
        let (graded, stats) = graded?;
        drop(t_grade);
        let (reference, _) = stuck_at_coverage(&netlist.netlist, &stim)?;
        assert_eq!(
            graded, reference,
            "packed grader disagrees with the reference on `{label}`"
        );
        grade_secs += secs;
        grade_faults += graded.total as u64;
        grade_stats.merge(&stats);
        println!(
            "{:<38} {:>8} {:>10} {:>9.1}%",
            label,
            bits.len(),
            graded.detected,
            100.0 * graded.coverage()
        );
        rep.result_u64(&format!("set_{label}_detected"), graded.detected as u64);
        rep.result_u64(&format!("set_{label}_total"), graded.total as u64);
        if best.as_ref().is_none_or(|b| graded.detected > b.detected) {
            best = Some(graded);
        }
    }
    rep.perf_f64("grade_wall_secs", grade_secs);
    rep.perf_f64(
        "grade_faults_per_sec",
        grade_faults as f64 / grade_secs.max(1e-12),
    );
    rep.perf_u64("grade_gate_evals", grade_stats.gate_evals);
    rep.perf_f64(
        "grade_faults_per_gate_eval",
        grade_stats.faults_per_gate_eval(),
    );
    obs.counter("fault.graded").add(grade_faults);
    flush_grade_obs(&obs, &grade_stats);

    // Where do the escapes of the best set live?
    let best = best.ok_or_else(|| BenchError::Driver("no vector sets graded".into()))?;
    let mut by_kind: std::collections::BTreeMap<String, usize> = Default::default();
    for f in &best.undetected {
        let kind = netlist.netlist.gates[f.gate].kind;
        *by_kind.entry(format!("{kind:?}")).or_default() += 1;
    }
    println!("\nundetected faults of the best set, by gate kind:");
    for (k, n) in &by_kind {
        println!("  {k:<8} {n:>6}");
        rep.result_u64(&format!("best_undetected_{k}"), *n as u64);
    }

    // BIST: pseudo-random LFSR patterns, graded with the sharded
    // engine; the MISR signature is what an on-chip comparison fuses.
    use ocapi_gatesim::bist;
    // Two BIST disciplines: fully random, and enable held high (classic
    // constrained BIST on control pins). Both plateau early: the locked
    // state is terminal (only a global reset leaves it), so the first
    // random low threshold freezes the machine and everything behind
    // the lock becomes unobservable — this design needs a reset between
    // BIST sessions, which is itself a finding fault grading surfaces.
    let pattern_counts: &[usize] = if args.quick { &[256] } else { &[256, 2048] };
    let t_bist = root.child("bist").timer();
    for (label, constrain) in [("LFSR BIST", false), ("LFSR BIST, enable held", true)] {
        for &patterns in pattern_counts {
            let mut stim = bist::lfsr_stimulus(&netlist.netlist, patterns, 0xace1);
            if constrain {
                for cyc in &mut stim {
                    for (name, v) in &mut cyc.inputs {
                        if name == "enable" {
                            *v = 1;
                        }
                    }
                }
            }
            let signoff = bist::bist_signoff(&netlist.netlist, &stim, &pool)?;
            println!(
                "{:<38} {:>8} {:>10} {:>9.1}%   signature {:08x}",
                format!("{label} ({patterns})"),
                patterns,
                signoff.coverage.detected,
                100.0 * signoff.coverage.coverage(),
                signoff.report.signature
            );
            rep.result_str(
                &format!("bist_{label}_{patterns}_signature"),
                &format!("{:08x}", signoff.report.signature),
            );
            rep.result_u64(
                &format!("bist_{label}_{patterns}_detected"),
                signoff.coverage.detected as u64,
            );
        }
    }
    drop(t_bist);

    // Engine ablation: the 64-way bit-parallel engine single-threaded
    // vs sharded across the pool, on the longest vector set graded.
    let bits = hcor::test_pattern(if args.quick { 64 } else { 256 }, 7);
    let stimuli = stimuli_for(&bits, &[11]);
    let t_abl = root.child("ablation").timer();
    let (serial, t_serial) =
        timed(|| stuck_at_coverage_sharded_stats(&netlist.netlist, &stimuli, &ParConfig::single()));
    let (serial, _) = serial?;
    let (sharded, t_sharded) =
        timed(|| stuck_at_coverage_sharded_stats(&netlist.netlist, &stimuli, &pool));
    let (sharded, _) = sharded?;
    drop(t_abl);
    assert_eq!(serial.detected, sharded.detected, "engines disagree");
    assert_eq!(serial.undetected, sharded.undetected, "engines disagree");
    println!(
        "\nengine ablation on the {}-symbol burst ({} faults, identical reports):",
        bits.len(),
        serial.total
    );
    println!("  bit-parallel, 1 thread   {t_serial:>8.3} s");
    println!(
        "  bit-parallel, {} thread(s) {t_sharded:>8.3} s   ({:.1}x)",
        pool.threads(),
        t_serial / t_sharded.max(1e-12)
    );
    rep.perf_f64("ablation_secs_t1", t_serial);
    rep.perf_f64("ablation_secs_tn", t_sharded);

    // Packed vs scalar head-to-head on the same burst: the word-packed
    // grader must classify identically to the per-fault reference and
    // advance ≥ 32× more fault machines per gate evaluation — the
    // multiple the parallel-pattern engine exists for (63 machines per
    // word vs at most 1 for the scalar grader). Asserted on every run,
    // like the thread-count contract; CI also gates on the ratio from
    // the `table_gates` perf JSON.
    let t_h2h = root.child("engine_h2h").timer();
    let (packed, t_packed) =
        timed(|| stuck_at_coverage_sharded_stats(&netlist.netlist, &stimuli, &pool));
    let (packed, packed_stats) = packed?;
    let (scalar, t_scalar) = timed(|| stuck_at_coverage(&netlist.netlist, &stimuli));
    let (scalar, scalar_stats) = scalar?;
    drop(t_h2h);
    assert_eq!(
        packed.detected, scalar.detected,
        "packed and scalar graders disagree on detections"
    );
    assert_eq!(
        packed.undetected, scalar.undetected,
        "packed and scalar graders disagree on escapes"
    );
    let ratio =
        packed_stats.faults_per_gate_eval() / scalar_stats.faults_per_gate_eval().max(1e-12);
    println!("\npacked vs scalar grader on the same burst (identical classification):");
    println!(
        "  packed  {:>8.3} s   {:>7.2} faults/gate-eval",
        t_packed,
        packed_stats.faults_per_gate_eval()
    );
    println!(
        "  scalar  {:>8.3} s   {:>7.2} faults/gate-eval   (packed advantage {ratio:.1}x)",
        t_scalar,
        scalar_stats.faults_per_gate_eval()
    );
    assert!(
        ratio >= 32.0,
        "packed grader advanced only {ratio:.1}x more faults per gate eval (need >= 32x)"
    );
    rep.perf_f64("fault_packed_secs", t_packed);
    rep.perf_f64("fault_scalar_secs", t_scalar);
    rep.perf_f64(
        "fault_packed_faults_per_sec",
        packed.total as f64 / t_packed.max(1e-12),
    );
    rep.perf_f64(
        "fault_scalar_faults_per_sec",
        scalar.total as f64 / t_scalar.max(1e-12),
    );
    rep.perf_u64("fault_packed_gate_evals", packed_stats.gate_evals);
    rep.perf_u64("fault_scalar_gate_evals", scalar_stats.gate_evals);
    rep.perf_f64(
        "fault_packed_faults_per_gate_eval",
        packed_stats.faults_per_gate_eval(),
    );
    rep.perf_f64(
        "fault_scalar_faults_per_gate_eval",
        scalar_stats.faults_per_gate_eval(),
    );
    rep.perf_f64("fault_eval_ratio", ratio);

    if !args.quick {
        println!(
            "\nReading the table: any data-rich stream (functional burst or\n\
             random) saturates the datapath cone within one correlator fill,\n\
             so doubling the vector count buys nothing — the remaining faults\n\
             sit in logic those vectors never sensitise: the high bits of the\n\
             16-bit sync-position counter (a longer burst would reach them)\n\
             and the threshold comparator cone under a fixed threshold.\n\
             Sweeping the threshold across segments (high first, so the\n\
             terminal locked state arrives late) recovers part of that.\n\
             LFSR BIST plateaus low for the same reason: a random low\n\
             threshold locks the FSM within a few cycles and the lock is\n\
             terminal — this design needs a reset between BIST sessions,\n\
             the kind of DFT finding fault grading exists to surface.\n\
             A constant stream tests almost nothing."
        );
    }

    system_level_campaign(args, &mut rep, &obs)?;
    rep.write(args)?;
    write_profile(args, &obs)?;
    Ok(())
}
