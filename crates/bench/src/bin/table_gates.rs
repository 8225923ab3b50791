//! The gate inventory behind the paper's §1 claims ("75 Kgate chip with a
//! VLIW architecture, including 22 datapaths … and 7 RAM cells") plus two
//! synthesis ablations:
//!
//! * operator sharing on/off (the Cathedral-3 "operator sharing at word
//!   level" of §6),
//! * FSM state encodings for the controllers (binary / one-hot / Gray).
//!
//! Each component synthesizes independently, so the inventory and the
//! static-timing sweep shard across the `--threads N` worker pool (one
//! synthesis run per work item, results merged in component order).
//! Run with:
//!
//! `cargo run --release -p ocapi-bench --bin table_gates -- [--threads N] [--quick]`

#![deny(clippy::unwrap_used, clippy::expect_used)]

use ocapi::sim::par::{map_indexed, ParError};
use ocapi::Component;
use ocapi_bench::{
    padded_sequencer, parse_args, timed, write_profile, BenchArgs, BenchError, Reporter,
};
use ocapi_designs::dect::transceiver::{build_system, TransceiverConfig};
use ocapi_designs::hcor;
use ocapi_obs::Registry;
use ocapi_synth::controller::Encoding;
use ocapi_synth::report::ChipReport;
use ocapi_synth::{synthesize, synthesize_observed, timing, AdderStyle, SynthOptions};

/// A 4-instruction FSM datapath in the Cathedral-3 style: each
/// instruction is its own SFG, so the multiplier units are mutually
/// exclusive and can share one hardware multiplier.
fn cathedral_demo() -> Result<ocapi::Component, BenchError> {
    use ocapi::{Component, SigType};
    use ocapi_fixp::Format;
    let fmt =
        Format::new(12, 4).map_err(|e| BenchError::Driver(format!("fixed-point format: {e}")))?;
    let c = Component::build("vliw_alu");
    let op = c.input("op", SigType::Bits(2))?;
    let a = c.input("a", SigType::Fixed(fmt))?;
    let b = c.input("b", SigType::Fixed(fmt))?;
    let y = c.output("y", SigType::Fixed(fmt))?;
    let acc = c.reg("acc", SigType::Fixed(fmt))?;

    let cast =
        |s: &ocapi::Sig| s.to_fixed(fmt, ocapi::Rounding::Truncate, ocapi::Overflow::Saturate);
    // Four instructions, each multiplying different sources.
    let i0 = c.sfg("mul_ab")?;
    let v = cast(&(c.read(a) * c.read(b)));
    i0.drive(y, &v)?;
    i0.next(acc, &v)?;
    let i1 = c.sfg("mul_aacc")?;
    let v = cast(&(c.read(a) * c.q(acc)));
    i1.drive(y, &v)?;
    i1.next(acc, &v)?;
    let i2 = c.sfg("mul_bacc")?;
    let v = cast(&(c.read(b) * c.q(acc)));
    i2.drive(y, &v)?;
    i2.next(acc, &v)?;
    let i3 = c.sfg("sq_acc")?;
    let v = cast(&(c.q(acc) * c.q(acc)));
    i3.drive(y, &v)?;
    i3.next(acc, &v)?;

    let opv = c.read(op);
    let f = c.fsm()?;
    let s0 = f.initial("s0")?;
    for (k, sfg) in [i0.id(), i1.id(), i2.id(), i3.id()].iter().enumerate() {
        let g = opv.eq(&c.const_bits(2, k as u64));
        f.from(s0).when(&g).run(*sfg).to(s0)?;
    }
    Ok(c.finish()?)
}

/// Looks up a timed component of the system by name.
fn timed_comp<'a>(sys: &'a ocapi::System, name: &str) -> Result<&'a Component, BenchError> {
    sys.timed
        .iter()
        .find(|t| t.name == name)
        .map(|t| &t.comp)
        .ok_or_else(|| BenchError::Driver(format!("component `{name}` missing from system")))
}

fn main() {
    let args = parse_args("table_gates");
    if let Err(e) = run(&args) {
        eprintln!("table_gates: {e}");
        std::process::exit(1);
    }
}

fn run(args: &BenchArgs) -> Result<(), BenchError> {
    let pool = args.pool();
    let mut rep = Reporter::new("table_gates");
    let obs = Registry::new();
    let root = obs.span("table_gates");
    let sys = build_system(&TransceiverConfig::default())?;

    // Chip inventory: one synthesis run per component, sharded across
    // the pool and merged in component order (so the table is identical
    // for every thread count). The same netlists feed the timing sweep.
    let comps: Vec<Component> = sys.timed.iter().map(|t| t.comp.clone()).collect();
    let t_inv = root.child("inventory").timer();
    let (nets, secs) = timed(|| {
        map_indexed(&pool, &comps, |_, c| {
            synthesize_observed(c, &SynthOptions::default(), &[], &obs)
        })
    });
    let nets = nets.map_err(|e| match e {
        ParError::Task { error, .. } => BenchError::Synth(error),
        ParError::Panic { index } => BenchError::Panic { index },
    })?;
    drop(t_inv);
    let mut report = ChipReport::new("dect");
    for n in &nets {
        report.add(n);
    }
    println!("DECT transceiver gate inventory (defaults: sharing on, binary encoding):\n");
    println!("{}", report.table());

    // Static timing: the slowest component bounds the chip clock.
    println!("critical paths (gate-delay units; ~300 ps/unit in 0.7 um):");
    let mut worst = (String::new(), 0.0f64);
    for (t, cn) in sys.timed.iter().zip(&nets) {
        let rep = timing::analyze(&cn.netlist);
        if rep.critical_path > worst.1 {
            worst = (t.name.clone(), rep.critical_path);
        }
    }
    let chip = timing::TimingReport {
        critical_path: worst.1,
        path: Vec::new(),
        depth: 0,
    };
    println!(
        "  chip critical path: {:.1} units through `{}` -> max clock ~{:.0} MHz in 0.7 um\n",
        worst.1,
        worst.0,
        chip.max_clock_mhz(300.0)
    );
    println!("paper: 75 Kgate, 22 datapaths (2-57 instructions each), 7 RAM cells");
    println!(
        "here : {:.0} gate-eq, {} datapaths + controller/decoder, {} RAM/ROM cells",
        report.total_area(),
        sys.timed.len() - 2,
        sys.untimed.len()
    );
    println!(
        "synthesis time for all components: {:.2}s at {} thread(s)\n",
        secs,
        pool.threads()
    );
    rep.result_f64("chip_gate_eq", report.total_area());
    rep.result_f64("chip_critical_path", worst.1);
    rep.result_u64("chip_components", sys.timed.len() as u64);
    rep.perf_f64("synthesis_secs", secs);
    rep.perf_f64(
        "synthesis_comps_per_sec",
        sys.timed.len() as f64 / secs.max(1e-12),
    );

    // Sharing ablation. The DECT MAC decodes its instructions with
    // select expressions inside one SFG, so its two multipliers are
    // co-active and cannot share. A Cathedral-3-style datapath whose
    // instructions are separate FSM-selected SFGs (like the paper's
    // 57-instruction datapath) shows where word-level sharing pays off:
    let cathedral = cathedral_demo()?;
    let t_abl = root.child("ablations").timer();
    println!("operator-sharing ablation (per component, gate-eq):");
    println!(
        "  {:<16} {:>12} {:>12} {:>9}",
        "component", "shared", "flat", "saving"
    );
    {
        let shared = synthesize(&cathedral, &SynthOptions::default())?;
        let flat = synthesize(
            &cathedral,
            &SynthOptions {
                share_operators: false,
                ..SynthOptions::default()
            },
        )?;
        println!(
            "  {:<16} {:>12.0} {:>12.0} {:>8.1}%  (4-instruction FSM datapath)",
            "vliw_alu",
            shared.area(),
            flat.area(),
            100.0 * (1.0 - shared.area() / flat.area())
        );
        rep.result_f64("vliw_alu_shared_area", shared.area());
        rep.result_f64("vliw_alu_flat_area", flat.area());
    }
    for name in ["dp_mac0", "pc_ctrl", "dp_slice"] {
        let comp = timed_comp(&sys, name)?;
        let shared = synthesize(
            comp,
            &SynthOptions {
                share_operators: true,
                ..SynthOptions::default()
            },
        )?;
        let flat = synthesize(
            comp,
            &SynthOptions {
                share_operators: false,
                ..SynthOptions::default()
            },
        )?;
        println!(
            "  {:<16} {:>12.0} {:>12.0} {:>8.1}%",
            name,
            shared.area(),
            flat.area(),
            100.0 * (1.0 - shared.area() / flat.area())
        );
    }

    // Encoding ablation over the FSM-bearing components.
    println!("\nFSM encoding ablation (full-component gate-eq):");
    println!(
        "  {:<16} {:>10} {:>10} {:>10}",
        "component", "binary", "one-hot", "gray"
    );
    let hcor_comp = hcor::build_component()?;
    let pc = timed_comp(&sys, "pc_ctrl")?;
    for (name, comp) in [("pc_ctrl", pc), ("hcor", &hcor_comp)] {
        let area = |e: Encoding| -> Result<f64, BenchError> {
            Ok(synthesize(
                comp,
                &SynthOptions {
                    encoding: e,
                    ..SynthOptions::default()
                },
            )?
            .area())
        };
        println!(
            "  {:<16} {:>10.0} {:>10.0} {:>10.0}",
            name,
            area(Encoding::Binary)?,
            area(Encoding::OneHot)?,
            area(Encoding::Gray)?
        );
    }

    // Adder-architecture ablation: area vs critical path on the MAC.
    println!("\nadder-architecture ablation (dp_mac0):");
    println!(
        "  {:<24} {:>12} {:>18}",
        "style", "gate-eq", "critical path"
    );
    let mac = timed_comp(&sys, "dp_mac0")?;
    for (label, style) in [
        ("ripple-carry", AdderStyle::Ripple),
        ("carry-select (4)", AdderStyle::CarrySelect { block: 4 }),
        ("carry-select (8)", AdderStyle::CarrySelect { block: 8 }),
    ] {
        let cn = synthesize(
            mac,
            &SynthOptions {
                adder_style: style,
                ..SynthOptions::default()
            },
        )?;
        let t = timing::analyze(&cn.netlist);
        println!(
            "  {:<24} {:>12.0} {:>13.1} units",
            label,
            cn.area(),
            t.critical_path
        );
    }

    // Post-optimisation effect.
    println!("\ngate-level post-optimisation (dp_mac0):");
    let raw = synthesize(
        mac,
        &SynthOptions {
            optimize: false,
            ..SynthOptions::default()
        },
    )?;
    let opt = synthesize(mac, &SynthOptions::default())?;
    println!(
        "  raw {:.0} gate-eq -> optimized {:.0} gate-eq ({:.1}% saved)",
        raw.area(),
        opt.area(),
        100.0 * (1.0 - opt.area() / raw.area())
    );

    // NAND/INV technology mapping: cell-subset cost of the hand-off.
    println!("\nNAND/INV technology mapping (map + re-optimise):");
    println!(
        "  {:<12} {:>14} {:>14} {:>16} {:>16}",
        "component", "generic area", "mapped area", "generic path", "mapped path"
    );
    for (label, comp) in [("hcor", &hcor_comp), ("dp_mac0", mac), ("pc_ctrl", pc)] {
        let generic = synthesize(comp, &SynthOptions::default())?;
        let mut mapped = generic.netlist.clone();
        ocapi_synth::techmap::to_nand_inv(&mut mapped);
        ocapi_synth::opt::optimize(&mut mapped);
        assert!(ocapi_synth::techmap::is_nand_inv(&mapped));
        let tg = timing::analyze(&generic.netlist);
        let tm = timing::analyze(&mapped);
        println!(
            "  {:<12} {:>14.0} {:>14.0} {:>10.1} units {:>10.1} units",
            label,
            generic.area(),
            mapped.area(),
            tg.critical_path,
            tm.critical_path
        );
    }

    // FSM state minimisation: collapses hand-unrolled wait chains.
    println!("\nFSM state-minimisation ablation (padded sequencer, N wait states):");
    println!(
        "  {:<10} {:>8} {:>10} {:>14} {:>14}",
        "waits", "states", "reduced", "plain area", "minimised area"
    );
    let wait_sizes: &[usize] = if args.quick { &[2, 8] } else { &[2, 8, 16] };
    for &waits in wait_sizes {
        let comp = padded_sequencer(waits)?;
        let fsm = comp
            .fsm
            .as_ref()
            .ok_or_else(|| BenchError::Driver("padded sequencer lost its FSM".into()))?;
        let reduced = ocapi_synth::fsm_min::minimize(fsm);
        let plain = synthesize(&comp, &SynthOptions::default())?;
        let min = synthesize(
            &comp,
            &SynthOptions {
                minimize_states: true,
                ..SynthOptions::default()
            },
        )?;
        println!(
            "  {:<10} {:>8} {:>10} {:>14.0} {:>14.0}",
            waits,
            fsm.states.len(),
            fsm.states.len() - reduced.merged,
            plain.area(),
            min.area()
        );
    }
    println!("  (captured production FSMs are already minimal: pc_ctrl and hcor merge 0 states)");
    for (label, comp) in [("pc_ctrl", pc), ("hcor", &hcor_comp)] {
        let fsm = comp
            .fsm
            .as_ref()
            .ok_or_else(|| BenchError::Driver(format!("{label} has no FSM")))?;
        let merged = ocapi_synth::fsm_min::minimize(fsm).merged;
        assert_eq!(merged, 0, "{label} unexpectedly reducible");
    }
    drop(t_abl);

    // Fault-simulation engine comparison on the HCOR netlist: the
    // word-packed parallel-pattern grader (63 fault machines per u64,
    // golden machine in bit 0) against the one-fault-at-a-time scalar
    // reference, on the same LFSR patterns. Classification must be
    // identical; the packed engine must advance at least 32x more fault
    // machines per gate evaluation — the structural advantage CI gates
    // on via `fault_eval_ratio` in this bin's perf JSON.
    use ocapi_gatesim::{bist, fault};
    let hcor_net = synthesize(&hcor_comp, &SynthOptions::default())?;
    let patterns = if args.quick { 32 } else { 128 };
    let stim = bist::lfsr_stimulus(&hcor_net.netlist, patterns, 0xace1);
    let t_fault = root.child("fault_engines").timer();
    let (packed, t_packed) =
        timed(|| fault::stuck_at_coverage_sharded_stats(&hcor_net.netlist, &stim, &pool));
    let (packed, packed_stats) = packed?;
    let (scalar, t_scalar) = timed(|| fault::stuck_at_coverage(&hcor_net.netlist, &stim));
    let (scalar, scalar_stats) = scalar?;
    drop(t_fault);
    assert_eq!(packed.detected, scalar.detected, "fault engines disagree");
    assert_eq!(
        packed.undetected, scalar.undetected,
        "fault engines disagree"
    );
    let ratio =
        packed_stats.faults_per_gate_eval() / scalar_stats.faults_per_gate_eval().max(1e-12);
    println!(
        "\nfault-simulation engines on hcor ({} faults, {} LFSR patterns, identical reports):",
        packed.total, patterns
    );
    println!(
        "  packed (63/word) {:>8.3} s   {:>6.2} faults/gate-eval",
        t_packed,
        packed_stats.faults_per_gate_eval()
    );
    println!(
        "  scalar           {:>8.3} s   {:>6.2} faults/gate-eval   (packed advantage {ratio:.1}x)",
        t_scalar,
        scalar_stats.faults_per_gate_eval()
    );
    assert!(
        ratio >= 32.0,
        "packed grader advanced only {ratio:.1}x more faults per gate eval (need >= 32x)"
    );
    rep.result_u64("fault_total", packed.total as u64);
    rep.result_u64("fault_detected", packed.detected as u64);
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
    rep.perf_f64("fault_packed_secs", t_packed);
    rep.perf_f64("fault_scalar_secs", t_scalar);

    // Model-parallel partitioned gate engine on a paper-scale workload:
    // the synthesized HCOR correlator stamped into a registered replica
    // chain (large enough that one settle dominates the per-clock
    // thread hand-off), clocked through an LFSR stimulus by the flat
    // single-core kernel and by `PartitionedGateSim` at `--partitions`.
    // Output digests and kernel stats must match bit-for-bit — the
    // partitioned engine is a parallel schedule of the same events, not
    // an approximation — so the digest lands in the deterministic
    // results (byte-diffed by CI across partition counts) while the
    // throughput pair and the speedup land in perf.
    use ocapi_designs::scaled;
    use ocapi_gatesim::{GateSim, PartitionOptions, PartitionedGateSim};
    // Sized so one flat settle (~0.5-1 ms) dominates the per-clock
    // scoped-thread hand-off (~0.2 ms for 4 workers): small enough for
    // a smoke run, large enough that the speedup is structural rather
    // than noise on a multi-core runner.
    let replicas = if args.quick { 192 } else { 384 };
    let cycles = if args.quick { 48 } else { 96 };
    let scaled_net =
        scaled::scaled_hcor(replicas).map_err(|e| BenchError::Driver(e.to_string()))?;
    let in_buses: Vec<(String, Vec<_>)> = scaled_net.inputs.clone();
    let out_buses: Vec<(String, Vec<_>)> = scaled_net.outputs.clone();
    let drive = |step: u64, seed: &mut u64| -> u64 {
        // Galois LFSR stimulus, one fresh word per input bus per cycle.
        let mut x = *seed;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *seed = x;
        x.wrapping_add(step)
    };
    let fnv = |digest: u64, v: u64| -> u64 { (digest ^ v).wrapping_mul(0x0000_0100_0000_01b3) };
    let t_part = root.child("partitioned").timer();
    let mut flat = GateSim::new(scaled_net.clone()).map_err(BenchError::Gate)?;
    let (flat_digest, t_flat) = timed(|| -> Result<u64, BenchError> {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut seed = 0x1d87_2b41_1e86_3f25u64;
        for step in 0..cycles {
            for (_, bus) in &in_buses {
                flat.set_bus(bus, drive(step, &mut seed));
            }
            flat.clock().map_err(BenchError::Gate)?;
            for (_, bus) in &out_buses {
                digest = fnv(digest, flat.bus(bus));
            }
        }
        Ok(digest)
    });
    let flat_digest = flat_digest?;
    let opts = PartitionOptions::new(args.partitions).threads(args.threads.min(args.partitions));
    let mut part = PartitionedGateSim::new(scaled_net, &opts).map_err(BenchError::Gate)?;
    part.attach_obs(&obs);
    let (part_digest, t_part_run) = timed(|| -> Result<u64, BenchError> {
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut seed = 0x1d87_2b41_1e86_3f25u64;
        for step in 0..cycles {
            for (_, bus) in &in_buses {
                part.set_bus(bus, drive(step, &mut seed));
            }
            part.clock().map_err(BenchError::Gate)?;
            for (_, bus) in &out_buses {
                digest = fnv(digest, part.bus(bus));
            }
        }
        Ok(digest)
    });
    let part_digest = part_digest?;
    drop(t_part);
    assert_eq!(
        part_digest, flat_digest,
        "partitioned engine diverged from the single-core kernel"
    );
    assert_eq!(
        part.stats(),
        flat.stats(),
        "partitioned engine stats diverged from the single-core kernel"
    );
    let (pmax, pmin) = part.plan().balance();
    let single_cps = cycles as f64 / t_flat.max(1e-12);
    let part_cps = cycles as f64 / t_part_run.max(1e-12);
    println!(
        "\npartitioned gate engine on scaled hcor ({} gates, {} replicas, {} cycles):",
        part.netlist().gates.len(),
        replicas,
        cycles
    );
    println!(
        "  single-core      {:>8.3} s   {:>8.0} cycles/s",
        t_flat, single_cps
    );
    println!(
        "  {:>2} partition(s)  {:>8.3} s   {:>8.0} cycles/s   ({:.2}x, {} cut edges, {}..{} gates/part)",
        part.partitions(),
        t_part_run,
        part_cps,
        part_cps / single_cps.max(1e-12),
        part.cut_edges(),
        pmin,
        pmax
    );
    rep.result_str("partition_digest", &format!("{flat_digest:016x}"));
    rep.result_u64("partition_gates", part.netlist().gates.len() as u64);
    rep.result_u64("partition_gate_evals", part.stats().gate_evals);
    rep.result_u64("partition_events", part.stats().events);
    rep.perf_u64("partition_cut_edges", part.cut_edges() as u64);
    rep.perf_u64("partition_exchanged", part.exchanged());
    rep.perf_f64("single_core_cycles_per_sec", single_cps);
    rep.perf_f64("partitioned_cycles_per_sec", part_cps);
    rep.perf_f64("partition_speedup", part_cps / single_cps.max(1e-12));

    rep.write(args)?;
    write_profile(args, &obs)?;
    Ok(())
}
