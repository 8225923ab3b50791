//! Bit-error-rate sweep of the DECT transceiver: BER versus channel
//! noise and multipath severity, with and without the adaptive
//! equalizer's training — the evaluation a receiver designer runs before
//! committing an architecture (an extension beyond the paper's Table 1,
//! using only the machinery the paper describes). A second sweep injects
//! random hardware faults into the running receiver with `FaultySim`
//! and plots BER versus injected fault rate: the graceful-degradation
//! curve of the architecture itself.
//!
//! Bursts are independent seeded runs, so the sweep shards across the
//! `--threads N` worker pool with bit-identical totals for every `N`,
//! and batches across the `--lanes N` lanes of the compiled tape
//! executor with bit-identical totals for every lane count (the CI
//! determinism job diffs the `--json` output across both axes). With
//! `--checkpoint DIR` every sweep point writes an atomic per-burst
//! manifest, and a killed run resumed with `--resume` produces
//! byte-identical JSON — the CI kill-and-resume job enforces this. A
//! scalar-vs-batched head-to-head on one sweep point records the
//! batching payoff in the perf trajectory. Run with:
//!
//! `cargo run --release -p ocapi-bench --bin ber_sweep -- [--threads N] [--lanes N] [--quick]`

#![deny(clippy::unwrap_used, clippy::expect_used)]

use ocapi::CompiledTape;
use ocapi_bench::ber::{fmt_ber, measure, measure_batched, measure_with_faults_batched};
use ocapi_bench::{parse_args, timed, write_profile, BenchError, Reporter, Robust};
use ocapi_designs::dect::transceiver::{build_system, TransceiverConfig};
use ocapi_obs::Registry;

fn main() {
    let args = parse_args("ber_sweep");
    if let Err(e) = run(&args) {
        eprintln!("ber_sweep: {e}");
        std::process::exit(1);
    }
}

fn run(args: &ocapi_bench::BenchArgs) -> Result<(), BenchError> {
    let pool = args.pool();
    let lanes = args.lanes;
    let level = args.opt_level();
    let mut rep = Reporter::new("ber_sweep");
    let obs = Registry::new();
    let rb = Robust::new(args, &pool, Some(&obs));
    let root = obs.span("ber_sweep");

    // Both receiver configurations compile once up front; every chunk
    // of every sweep point reuses the cached tape instead of
    // re-levelizing — the same artifact the simulation service caches.
    let sw_compile = ocapi_obs::Stopwatch::start();
    let cfg_eq = TransceiverConfig {
        train: true,
        agc: false,
        adapt: true,
    };
    let cfg_fixed = TransceiverConfig {
        train: false,
        agc: false,
        adapt: false,
    };
    let tape_eq = CompiledTape::compile(&build_system(&cfg_eq)?, level)?;
    let tape_fixed = CompiledTape::compile(&build_system(&cfg_fixed)?, level)?;
    let compile_secs = sw_compile.elapsed_secs();

    let (bursts, payload) = if args.quick { (2, 64) } else { (8, 160) };
    println!("DECT payload BER ({payload}-bit payloads x {bursts} bursts per point)\n");
    println!(
        "{:<22} {:>7} {:>14} {:>15}",
        "channel", "noise", "BER equalized", "BER fixed-tap"
    );
    let channels: &[Vec<f64>] = if args.quick {
        &[vec![1.0], vec![1.0, 0.65, 0.35]]
    } else {
        &[
            vec![1.0],
            vec![1.0, 0.45],
            vec![1.0, 0.65, 0.35],
            vec![0.8, 0.7, -0.3],
        ]
    };
    let noises: &[f64] = if args.quick {
        &[0.05, 0.45]
    } else {
        &[0.05, 0.25, 0.45]
    };

    let mut total_runs = 0u64;
    let t_sweep = root.child("noise_sweep").timer();
    let sw_sweep = ocapi_obs::Stopwatch::start();
    for channel in channels {
        for &noise in noises {
            let key = format!("ch{channel:?}_n{noise}");
            let eq = measure_batched(
                &rb,
                &format!("eq_{key}"),
                channel,
                noise,
                true,
                bursts,
                payload,
                lanes,
                level,
                Some(&tape_eq),
            )?;
            let fixed = measure_batched(
                &rb,
                &format!("fixed_{key}"),
                channel,
                noise,
                false,
                bursts,
                payload,
                lanes,
                level,
                Some(&tape_fixed),
            )?;
            total_runs += 2 * bursts;
            println!(
                "{:<22} {:>7.2} {:>14} {:>15}",
                format!("{channel:?}"),
                noise,
                fmt_ber(eq),
                fmt_ber(fixed)
            );
            rep.result_u64(&format!("{key}_eq_errors"), eq.errors);
            rep.result_u64(&format!("{key}_eq_bits"), eq.bits);
            rep.result_u64(&format!("{key}_fixed_errors"), fixed.errors);
            rep.result_u64(&format!("{key}_fixed_bits"), fixed.bits);
        }
    }
    let sweep_secs = sw_sweep.elapsed_secs();
    drop(t_sweep);

    // Fault-injection sweep: BER of the equalized receiver on a mild
    // channel as random transient flips hit the hardware.
    println!("\nBER vs injected hardware fault rate (channel [1.0, 0.45], noise 0.05):");
    println!("{:<22} {:>14}", "faults per cycle", "BER equalized");
    let rates: &[f64] = if args.quick {
        &[0.0, 1e-2, 2e-1]
    } else {
        &[0.0, 1e-4, 1e-3, 1e-2, 5e-2, 2e-1]
    };
    let t_fault = root.child("fault_sweep").timer();
    let sw_fault = ocapi_obs::Stopwatch::start();
    for &rate in rates {
        let c = measure_with_faults_batched(
            &rb,
            &format!("fault_r{rate}"),
            &[1.0, 0.45],
            0.05,
            rate,
            bursts,
            payload,
            lanes,
            level,
            Some(&tape_eq),
        )?;
        total_runs += bursts;
        println!("{rate:<22} {:>14}", fmt_ber(c));
        rep.result_u64(&format!("fault_r{rate}_errors"), c.errors);
        rep.result_u64(&format!("fault_r{rate}_bits"), c.bits);
    }
    let fault_secs = sw_fault.elapsed_secs();
    drop(t_fault);
    obs.counter("ber.burst_runs").add(total_runs);

    if !args.quick {
        println!(
            "\nReading the sweep: on the hard-but-equalisable channel\n\
             [1.0, 0.65, 0.35] the trained equalizer buys two orders of\n\
             magnitude of BER at low noise — the gates of the 11 MAC datapaths\n\
             earning their keep. The severe non-minimum-phase channel\n\
             [0.8, 0.7, -0.3] defeats a short linear equalizer regardless\n\
             (decision feedback territory), and at very high noise the\n\
             decision-directed tail of the adaptation can even misadapt —\n\
             both classical, expected behaviours."
        );
    }

    // Scalar-vs-batched head-to-head on one equalised sweep point: the
    // interpreted one-burst-at-a-time path against the lane-batched
    // compiled tape at `--lanes`. Identical counts are asserted (the
    // batching contract), and both throughputs land in the perf record
    // — CI gates on batched_runs_per_sec rising with the lane count.
    // Deliberately uncheckpointed: it is a timing probe, not a campaign.
    let hh_bursts = if args.quick { 8 } else { 16 };
    let hh_channel = [1.0, 0.65, 0.35];
    let rb_plain = Robust::plain(&pool);
    let t_hh = root.child("head_to_head").timer();
    let (scalar_hh, scalar_secs) =
        timed(|| measure(&pool, &hh_channel, 0.05, true, hh_bursts, payload));
    let scalar_hh = scalar_hh?;
    let (batched_hh, batched_secs) = timed(|| {
        measure_batched(
            &rb_plain,
            "head_to_head",
            &hh_channel,
            0.05,
            true,
            hh_bursts,
            payload,
            lanes,
            level,
            Some(&tape_eq),
        )
    });
    let batched_hh = batched_hh?;
    drop(t_hh);
    assert_eq!(batched_hh, scalar_hh, "batched BER diverged from scalar");
    println!(
        "\nscalar vs batched ({hh_bursts} bursts): scalar {scalar_secs:.2}s, \
         batched x{lanes} {batched_secs:.2}s ({:.2}x)",
        scalar_secs / batched_secs.max(1e-12)
    );

    let wall = sweep_secs + fault_secs;
    rep.perf_f64("tape_compile_secs", compile_secs);
    rep.perf_f64("sweep_wall_secs", wall);
    rep.perf_u64("burst_runs", total_runs);
    rep.perf_f64("runs_per_sec", total_runs as f64 / wall.max(1e-12));
    rep.perf_f64(
        "scalar_runs_per_sec",
        hh_bursts as f64 / scalar_secs.max(1e-12),
    );
    rep.perf_f64(
        "batched_runs_per_sec",
        hh_bursts as f64 / batched_secs.max(1e-12),
    );
    rep.write(args)?;
    write_profile(args, &obs)?;
    Ok(())
}
