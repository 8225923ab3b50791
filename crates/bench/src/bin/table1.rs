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
//! Every speed is timed with no observability bundle attached; the same
//! drive then runs once more, untimed, on a fresh simulator with its
//! bundle attached, so `--profile-json` keeps its deterministic counts.
//! The simulator drive loops are inherently serial (one sim, one clock);
//! the `--threads N` pool shards the synthesis runs behind the gate-eq
//! column instead. `--quick` shrinks the driven pattern lengths for CI.
//! Run with:
//!
//! `cargo run --release -p ocapi-bench --bin table1 -- [--threads N] [--lanes N] [--quick]`

#![deny(clippy::unwrap_used, clippy::expect_used)]

use ocapi::sim::par::{map_indexed, ParError};
use ocapi::{
    BatchedSim, CompiledSim, CompiledTape, Component, CoreError, InterpSim, OptLevel, ParConfig,
    Simulator, System, Value,
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
/// driver with no obs bundle attached, report speed and peak footprint.
/// Then, with `attach`, drive a fresh build once more, untimed, with its
/// bundle attached: the profile's deterministic counts come from there.
fn measure<S: Simulator>(
    build: impl Fn() -> Result<S, BenchError>,
    attach: Option<&dyn Fn(&mut S)>,
    drive: impl Fn(&mut S) -> Result<u64, CoreError>,
) -> Result<(f64, String), BenchError> {
    CountingAlloc::reset_peak();
    let before = CountingAlloc::live();
    let mut sim = build()?;
    let (cycles, secs) = timed(|| drive(&mut sim));
    let cycles = cycles?;
    let peak = CountingAlloc::peak().saturating_sub(before);
    drop(sim);
    if let Some(attach) = attach {
        let mut observed = build()?;
        attach(&mut observed);
        drive(&mut observed)?;
    }
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

/// The DSL sources of the DECT transceiver, HCOR included.
const DECT_DSL: [&str; 4] = [
    "hcor",
    "dect/pc_controller",
    "dect/datapaths",
    "dect/transceiver",
];

/// One design of Table 1: how to build it, and how to drive it for the
/// workload size of each paradigm.
struct TableDesign<'a> {
    /// Prefix of its result and perf keys.
    key: &'static str,
    title: &'static str,
    /// Its DSL sources, for the line count.
    dsl: &'a [&'a str],
    build: &'a dyn Fn() -> Result<System, CoreError>,
    /// Drives one simulator through a workload of the given size and
    /// returns the cycles run.
    drive: &'a dyn Fn(&mut dyn Simulator, usize) -> Result<u64, CoreError>,
    /// Workload sizes for the object-level engines (interpreted,
    /// compiled, batched), the RT kernel and the gate-level netlist.
    sizes: [usize; 3],
}

/// Prints one design's Table 1 rows and records its results and speeds.
fn design_table(
    args: &BenchArgs,
    rep: &mut Reporter,
    obs: &Registry,
    d: &TableDesign<'_>,
) -> Result<(usize, usize), BenchError> {
    let sys = (d.build)()?;
    let (vhdl_l, verilog_l) = hdl_lines(&sys)?;
    let dsl_l = dsl_lines(d.dsl);
    let gates = gate_count(&sys, &args.pool(), obs)?;
    let key = d.key;
    rep.result_u64(&format!("{key}_dsl_lines"), dsl_l as u64);
    rep.result_u64(&format!("{key}_vhdl_lines"), vhdl_l as u64);
    rep.result_u64(&format!("{key}_verilog_lines"), verilog_l as u64);
    rep.result_f64(&format!("{key}_gate_eq"), gates);

    let [n_obj, n_rtl, n_gate] = d.sizes;
    let (level, lanes) = (args.opt_level(), args.lanes);
    let interp = measure(
        || Ok(InterpSim::new((d.build)()?)?),
        Some(&|s: &mut InterpSim| s.attach_obs(obs)),
        |s| (d.drive)(s, n_obj),
    )?;
    let compiled = measure(
        || Ok(CompiledSim::new_with((d.build)()?, level)?),
        Some(&|s: &mut CompiledSim| s.attach_obs(obs)),
        |s| (d.drive)(s, n_obj),
    )?;
    // The lane-batched compiled tape, all `--lanes` instances driven in
    // lockstep (`BatchedSim` broadcasts inputs through the `Simulator`
    // trait); the aggregate throughput is instance-cycles per second.
    let batched = measure(
        || Ok(BatchedSim::from_fn(lanes, d.build, level)?),
        Some(&|s: &mut BatchedSim| s.attach_obs(obs)),
        |s| Ok((d.drive)(s, n_obj)? * lanes as u64),
    )?;
    let rtl = measure(
        || Ok(RtlSystemSim::new((d.build)()?)?),
        None,
        |s| (d.drive)(s, n_rtl),
    )?;
    let gate = measure(
        || Ok(GateSystemSim::new((d.build)()?, &SynthOptions::default())?),
        Some(&|s: &mut GateSystemSim| s.attach_obs(obs)),
        |s| (d.drive)(s, n_gate),
    )?;

    let rows = [
        ("DSL (interpreted obj)".to_owned(), dsl_l, interp),
        ("DSL (compiled)".to_owned(), dsl_l, compiled),
        (format!("DSL (batched x{lanes})"), dsl_l, batched),
        ("VHDL (RT, event-driven)".to_owned(), vhdl_l, rtl),
        ("Verilog (netlist)".to_owned(), verilog_l, gate),
    ]
    .map(|(kind, source_lines, (cycles_per_sec, process_mb))| Row {
        kind,
        source_lines,
        cycles_per_sec,
        process_mb,
    });
    print_design(d.title, gates, &rows);
    for (engine, row) in ["interp", "compiled", "batched", "rtl", "gate"]
        .iter()
        .zip(&rows)
    {
        rep.perf_f64(
            &format!("{key}_{engine}_cycles_per_sec"),
            row.cycles_per_sec,
        );
    }
    tape_len_metrics(key, rep, d.build)
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
    let bits = hcor::test_pattern(if args.quick { 256 } else { 3000 }, 99);
    let (h0, h2) = design_table(
        args,
        &mut rep,
        &obs,
        &TableDesign {
            key: "hcor",
            title: "HCOR (header correlator)",
            dsl: &["hcor"],
            build: &hcor::build_system,
            drive: &|sim, n| {
                sim.set_input("enable", Value::Bool(true))?;
                sim.set_input("threshold", Value::bits(5, 17))?; // never locks
                for b in &bits[..n] {
                    sim.set_input("bit_in", Value::Bool(*b))?;
                    sim.step()?;
                }
                Ok(n as u64)
            },
            sizes: [bits.len(); 3],
        },
    )?;
    let cfg = TransceiverConfig::default();
    let (d0, d2) = design_table(
        args,
        &mut rep,
        &obs,
        &TableDesign {
            key: "dect",
            title: "DECT (radiolink transceiver)",
            dsl: &DECT_DSL,
            build: &|| transceiver::build_system(&cfg),
            drive: &|sim, payload_len| {
                let burst = generate(&BurstConfig {
                    payload_len,
                    ..BurstConfig::default()
                });
                transceiver::run_burst(sim, &burst, None)?;
                Ok((burst.samples.len() * transceiver::CYCLES_PER_SYMBOL) as u64)
            },
            // Payload lengths per paradigm, scaled to each kernel's
            // speed (and shrunk further under `--quick`).
            sizes: if args.quick {
                [128, 64, 8]
            } else {
                [960, 480, 32]
            },
        },
    )?;
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
    let dd = dsl_lines(&DECT_DSL);
    println!("  DECT: {:.1}x", dv as f64 / dd as f64);
    rep.result_f64("dect_code_ratio", dv as f64 / dd as f64);
    rep.write(args)?;
    write_profile(args, &obs)?;
    Ok(())
}
