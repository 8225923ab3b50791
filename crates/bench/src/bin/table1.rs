//! Regenerates Table 1 of the paper: source-code size, simulation speed
//! and process size for the HCOR header correlator and the complete DECT
//! transceiver, across the simulation paradigms:
//!
//! * `C++ (interpreted obj)` → [`ocapi::InterpSim`] (the three-phase cycle
//!   scheduler walking the captured data structure),
//! * `C++ (compiled)` → [`ocapi::CompiledSim`] (the levelized tape),
//! * `VHDL (RT)` → [`ocapi_rtl::RtlSystemSim`] (event-driven RT kernel on
//!   the lowered design),
//! * `VHDL/Verilog (netlist)` → [`ocapi_gatesim::GateSystemSim`]
//!   (event-driven gate-level simulation of the synthesized netlist).
//!
//! A `DSL (batched xN)` row drives `--lanes N` instances of each design
//! through [`ocapi::BatchedSim`] in lockstep and reports the aggregate
//! instance-cycles per second — the scalar-vs-batched comparison the
//! Monte-Carlo workloads bank on.
//!
//! The simulator drive loops are inherently serial (one sim, one clock);
//! the `--threads N` pool shards the synthesis runs behind the gate-eq
//! column instead. `--quick` shrinks the driven pattern lengths for CI.
//! Run with:
//!
//! `cargo run --release -p ocapi-bench --bin table1 -- [--threads N] [--lanes N] [--quick]`

#![deny(clippy::unwrap_used, clippy::expect_used)]

use ocapi::sim::par::{map_indexed, ParError};
use ocapi::{
    BatchObs, BatchedSim, CompiledSim, CompiledTape, Component, CoreError, InterpSim, OptLevel,
    ParConfig, SimObs, Simulator, System, Value,
};
use ocapi_bench::{
    mb, parse_args, timed, write_profile, BenchArgs, BenchError, CountingAlloc, Reporter,
};
use ocapi_designs::dect::burst::{generate, BurstConfig};
use ocapi_designs::dect::transceiver::{self, TransceiverConfig};
use ocapi_designs::hcor;
use ocapi_gatesim::GateSystemSim;
use ocapi_hdl::report::effective_lines;
use ocapi_hdl::{verilog, vhdl};
use ocapi_obs::Registry;
use ocapi_rtl::RtlSystemSim;
use ocapi_synth::report::ChipReport;
use ocapi_synth::{synthesize_observed, SynthOptions};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

struct Row {
    kind: String,
    source_lines: usize,
    cycles_per_sec: f64,
    process_mb: String,
}

/// Measures one simulator: build under allocation accounting, run the
/// driver, report speed and peak footprint.
fn measure<S: Simulator>(
    build: impl FnOnce() -> Result<S, BenchError>,
    drive: impl Fn(&mut S) -> Result<u64, CoreError>,
) -> Result<(f64, String), BenchError> {
    CountingAlloc::reset_peak();
    let before = CountingAlloc::live();
    let mut sim = build()?;
    let (cycles, secs) = timed(|| drive(&mut sim));
    let cycles = cycles?;
    let peak = CountingAlloc::peak().saturating_sub(before);
    drop(sim);
    Ok((cycles as f64 / secs, mb(peak)))
}

fn dsl_lines(keys: &[&str]) -> usize {
    ocapi_designs::dsl_sources()
        .iter()
        .filter(|(name, _)| keys.contains(name))
        .map(|(_, src)| {
            // Count only the capture description, not the unit tests.
            let desc = src.split("#[cfg(test)]").next().unwrap_or(src);
            effective_lines(desc, "//")
        })
        .sum()
}

fn hdl_lines(sys: &System) -> Result<(usize, usize), BenchError> {
    let v = vhdl::system_source(sys)?;
    let vl = verilog::system_source(sys)?;
    Ok((effective_lines(&v, "--"), effective_lines(&vl, "//")))
}

/// Total gate-eq area of the system: every timed component synthesized
/// independently across the worker pool, areas summed in component
/// order (finished `Component`s are plain data, so they shard freely).
fn gate_count(sys: &System, pool: &ParConfig, obs: &Registry) -> Result<f64, BenchError> {
    let comps: Vec<Component> = sys.timed.iter().map(|t| t.comp.clone()).collect();
    let nets = map_indexed(pool, &comps, |_, c| {
        synthesize_observed(c, &SynthOptions::default(), &[], obs)
    })
    .map_err(|e| match e {
        ParError::Task { error, .. } => BenchError::Synth(error),
        ParError::Panic { index } => BenchError::Panic { index },
    })?;
    let mut rep = ChipReport::new(&sys.name);
    for n in &nets {
        rep.add(n);
    }
    Ok(rep.total_area())
}

fn print_design(name: &str, gates: f64, rows: &[Row]) {
    println!("\n{name}  ({gates:.0} gate-eq)");
    println!(
        "  {:<28} {:>14} {:>16} {:>14}",
        "type", "source (lines)", "speed (cyc/sec)", "process (MB)"
    );
    for r in rows {
        println!(
            "  {:<28} {:>14} {:>16.0} {:>14}",
            r.kind, r.source_lines, r.cycles_per_sec, r.process_mb
        );
    }
}

/// Builds the compiled simulator at `OptLevel::None` and `Full` and
/// records the per-cycle tape lengths under `{design}_tape_len_opt0` /
/// `_opt2` (perf section: build-time metrics, not workload results).
/// Returns (opt0, opt2) so `run` can aggregate the workload totals.
fn tape_len_metrics(
    design: &str,
    rep: &mut Reporter,
    mk: impl Fn() -> Result<System, CoreError>,
) -> Result<(usize, usize), BenchError> {
    let len0 = CompiledSim::new_with(mk()?, OptLevel::None)?.tape_len();
    let full = CompiledSim::new_with(mk()?, OptLevel::Full)?;
    let len2 = full.tape_len();
    rep.perf_u64(&format!("{design}_tape_len_opt0"), len0 as u64);
    rep.perf_u64(&format!("{design}_tape_len_opt2"), len2 as u64);
    let st = full.opt_stats();
    println!(
        "  compiled tape: {len0} micro-ops unoptimised, {len2} at --opt 2 \
         ({} folded, {} CSE, {} dead, {} slots freed)",
        st.folded, st.cse_hits, st.dce_removed, st.slots_saved
    );
    Ok((len0, len2))
}

fn hcor_table(
    args: &BenchArgs,
    rep: &mut Reporter,
    obs: &Registry,
) -> Result<(usize, usize), BenchError> {
    let bits = hcor::test_pattern(if args.quick { 256 } else { 3000 }, 99);
    let drive_bits = bits.clone();
    let drive = move |sim: &mut dyn Simulator| -> Result<u64, CoreError> {
        sim.set_input("enable", Value::Bool(true))?;
        sim.set_input("threshold", Value::bits(5, 17))?; // never locks
        for b in &drive_bits {
            sim.set_input("bit_in", Value::Bool(*b))?;
            sim.step()?;
        }
        Ok(drive_bits.len() as u64)
    };

    let sys = hcor::build_system()?;
    let (vhdl_l, verilog_l) = hdl_lines(&sys)?;
    let dsl_l = dsl_lines(&["hcor"]);
    let gates = gate_count(&sys, &args.pool(), obs)?;
    rep.result_u64("hcor_dsl_lines", dsl_l as u64);
    rep.result_u64("hcor_vhdl_lines", vhdl_l as u64);
    rep.result_u64("hcor_verilog_lines", verilog_l as u64);
    rep.result_f64("hcor_gate_eq", gates);

    let (interp_speed, interp_mem) = measure(
        || {
            let mut s = InterpSim::new(hcor::build_system()?)?;
            s.attach_obs(SimObs::interp(obs));
            Ok(s)
        },
        |s| drive(s),
    )?;
    let (comp_speed, comp_mem) = measure(
        || {
            let mut s = CompiledSim::new_with(hcor::build_system()?, args.opt_level())?;
            s.attach_obs(SimObs::compiled(obs));
            Ok(s)
        },
        |s| drive(s),
    )?;
    // The lane-batched compiled tape, all `--lanes` instances driven in
    // lockstep (`BatchedSim` broadcasts inputs through the `Simulator`
    // trait); the aggregate throughput is instance-cycles per second.
    let lanes = args.lanes;
    let (batch_speed, batch_mem) = measure(
        || {
            let mut s = BatchedSim::from_fn(lanes, hcor::build_system, args.opt_level())?;
            s.attach_obs(BatchObs::new(obs));
            Ok(s)
        },
        |s| Ok(drive(s)? * lanes as u64),
    )?;
    let (rtl_speed, rtl_mem) = measure(
        || Ok(RtlSystemSim::new(hcor::build_system()?)?),
        |s| drive(s),
    )?;
    let (gate_speed, gate_mem) = measure(
        || {
            let mut s = GateSystemSim::new(hcor::build_system()?, &SynthOptions::default())?;
            s.attach_obs(obs);
            Ok(s)
        },
        |s| drive(s),
    )?;

    let rows = vec![
        Row {
            kind: "DSL (interpreted obj)".into(),
            source_lines: dsl_l,
            cycles_per_sec: interp_speed,
            process_mb: interp_mem,
        },
        Row {
            kind: "DSL (compiled)".into(),
            source_lines: dsl_l,
            cycles_per_sec: comp_speed,
            process_mb: comp_mem,
        },
        Row {
            kind: format!("DSL (batched x{lanes})"),
            source_lines: dsl_l,
            cycles_per_sec: batch_speed,
            process_mb: batch_mem,
        },
        Row {
            kind: "VHDL (RT, event-driven)".into(),
            source_lines: vhdl_l,
            cycles_per_sec: rtl_speed,
            process_mb: rtl_mem,
        },
        Row {
            kind: "Verilog (netlist)".into(),
            source_lines: verilog_l,
            cycles_per_sec: gate_speed,
            process_mb: gate_mem,
        },
    ];
    print_design("HCOR (header correlator)", gates, &rows);
    rep.perf_f64("hcor_interp_cycles_per_sec", interp_speed);
    rep.perf_f64("hcor_compiled_cycles_per_sec", comp_speed);
    rep.perf_f64("hcor_batched_cycles_per_sec", batch_speed);
    rep.perf_f64("hcor_rtl_cycles_per_sec", rtl_speed);
    rep.perf_f64("hcor_gate_cycles_per_sec", gate_speed);
    tape_len_metrics("hcor", rep, hcor::build_system)
}

fn dect_table(
    args: &BenchArgs,
    rep: &mut Reporter,
    obs: &Registry,
) -> Result<(usize, usize), BenchError> {
    let cfg = TransceiverConfig::default();
    let make_burst = |n: usize| {
        generate(&BurstConfig {
            payload_len: n,
            ..BurstConfig::default()
        })
    };
    let drive = |sim: &mut dyn Simulator, payload: usize| -> Result<u64, CoreError> {
        let burst = make_burst(payload);
        transceiver::run_burst(sim, &burst, None)?;
        Ok((burst.samples.len() * transceiver::CYCLES_PER_SYMBOL) as u64)
    };

    let sys = transceiver::build_system(&cfg)?;
    let (vhdl_l, verilog_l) = hdl_lines(&sys)?;
    let dsl_l = dsl_lines(&[
        "hcor",
        "dect/pc_controller",
        "dect/datapaths",
        "dect/transceiver",
    ]);
    let gates = gate_count(&sys, &args.pool(), obs)?;
    rep.result_u64("dect_dsl_lines", dsl_l as u64);
    rep.result_u64("dect_vhdl_lines", vhdl_l as u64);
    rep.result_u64("dect_verilog_lines", verilog_l as u64);
    rep.result_f64("dect_gate_eq", gates);

    // Payload lengths per paradigm, scaled to each kernel's speed (and
    // shrunk further under `--quick`).
    let (p_obj, p_rtl, p_gate) = if args.quick {
        (128, 64, 8)
    } else {
        (960, 480, 32)
    };
    let (interp_speed, interp_mem) = measure(
        || {
            let mut s = InterpSim::new(transceiver::build_system(&cfg)?)?;
            s.attach_obs(SimObs::interp(obs));
            Ok(s)
        },
        |s| drive(s, p_obj),
    )?;
    let (comp_speed, comp_mem) = measure(
        || {
            let mut s = CompiledSim::new_with(transceiver::build_system(&cfg)?, args.opt_level())?;
            s.attach_obs(SimObs::compiled(obs));
            Ok(s)
        },
        |s| drive(s, p_obj),
    )?;
    // Lane-batched compiled tape, all lanes replaying the same burst in
    // lockstep through the broadcasting `Simulator` trait.
    let lanes = args.lanes;
    let (batch_speed, batch_mem) = measure(
        || {
            let mut s =
                BatchedSim::from_fn(lanes, || transceiver::build_system(&cfg), args.opt_level())?;
            s.attach_obs(BatchObs::new(obs));
            Ok(s)
        },
        |s| Ok(drive(s, p_obj)? * lanes as u64),
    )?;
    let (rtl_speed, rtl_mem) = measure(
        || Ok(RtlSystemSim::new(transceiver::build_system(&cfg)?)?),
        |s| drive(s, p_rtl),
    )?;
    let (gate_speed, gate_mem) = measure(
        || {
            let mut s =
                GateSystemSim::new(transceiver::build_system(&cfg)?, &SynthOptions::default())?;
            s.attach_obs(obs);
            Ok(s)
        },
        |s| drive(s, p_gate),
    )?;

    let rows = vec![
        Row {
            kind: "DSL (interpreted obj)".into(),
            source_lines: dsl_l,
            cycles_per_sec: interp_speed,
            process_mb: interp_mem,
        },
        Row {
            kind: "DSL (compiled)".into(),
            source_lines: dsl_l,
            cycles_per_sec: comp_speed,
            process_mb: comp_mem,
        },
        Row {
            kind: format!("DSL (batched x{lanes})"),
            source_lines: dsl_l,
            cycles_per_sec: batch_speed,
            process_mb: batch_mem,
        },
        Row {
            kind: "VHDL (RT, event-driven)".into(),
            source_lines: vhdl_l,
            cycles_per_sec: rtl_speed,
            process_mb: rtl_mem,
        },
        Row {
            kind: "Verilog (netlist)".into(),
            source_lines: verilog_l,
            cycles_per_sec: gate_speed,
            process_mb: gate_mem,
        },
    ];
    print_design("DECT (radiolink transceiver)", gates, &rows);
    rep.perf_f64("dect_interp_cycles_per_sec", interp_speed);
    rep.perf_f64("dect_compiled_cycles_per_sec", comp_speed);
    rep.perf_f64("dect_batched_cycles_per_sec", batch_speed);
    rep.perf_f64("dect_rtl_cycles_per_sec", rtl_speed);
    rep.perf_f64("dect_gate_cycles_per_sec", gate_speed);
    tape_len_metrics("dect", rep, || transceiver::build_system(&cfg))
}

fn main() {
    let args = parse_args("table1");
    if let Err(e) = run(&args) {
        eprintln!("table1: {e}");
        std::process::exit(1);
    }
}

fn run(args: &BenchArgs) -> Result<(), BenchError> {
    let mut rep = Reporter::new("table1");
    let obs = Registry::new();
    println!("Table 1 reproduction: performances of interpreted and compiled approaches");
    println!("(speed measured on this machine; see EXPERIMENTS.md for the comparison)");
    println!("compiled tape optimization: --opt {}", args.opt);
    let (h0, h2) = hcor_table(args, &mut rep, &obs)?;
    let (d0, d2) = dect_table(args, &mut rep, &obs)?;
    rep.perf_u64("tape_len_opt0", (h0 + d0) as u64);
    rep.perf_u64("tape_len_opt2", (h2 + d2) as u64);
    println!("\ncode-size ratio (generated RT-VHDL lines / DSL lines):");
    let hs = hcor::build_system()?;
    // Front-end cost: tape compilation (capture → levelized micro-op
    // tape), summed over both designs at the CLI's opt level.
    {
        let ds2 = transceiver::build_system(&TransceiverConfig::default())?;
        let (htape, hc) = timed(|| CompiledTape::compile(&hs, args.opt_level()));
        let (dtape, dc) = timed(|| CompiledTape::compile(&ds2, args.opt_level()));
        htape?;
        dtape?;
        rep.perf_f64("tape_compile_secs", hc + dc);
    }
    let (hv, _) = hdl_lines(&hs)?;
    let hd = dsl_lines(&["hcor"]);
    println!("  HCOR: {:.1}x", hv as f64 / hd as f64);
    rep.result_f64("hcor_code_ratio", hv as f64 / hd as f64);
    let ds = transceiver::build_system(&TransceiverConfig::default())?;
    let (dv, _) = hdl_lines(&ds)?;
    let dd = dsl_lines(&[
        "hcor",
        "dect/pc_controller",
        "dect/datapaths",
        "dect/transceiver",
    ]);
    println!("  DECT: {:.1}x", dv as f64 / dd as f64);
    rep.result_f64("dect_code_ratio", dv as f64 / dd as f64);
    rep.write(args)?;
    write_profile(args, &obs)?;
    Ok(())
}
