//! The shared benchmark CLI: parsing contract for every bin, plus
//! thread-count invariance of the sharded BER measurement (the property
//! the CI determinism job checks end-to-end on the built binaries).

use ocapi::{CompiledTape, OptLevel, ParConfig};
use ocapi_bench::ber::{
    measure, measure_batched, measure_with_faults, measure_with_faults_batched,
};
use ocapi_bench::{parse_arg_list, BenchArgs, Robust};
use ocapi_designs::dect::transceiver::{build_system, TransceiverConfig};

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn defaults_are_one_thread_full_workload() {
    let a = parse_arg_list("bin", &[]).expect("defaults parse");
    assert_eq!(a, BenchArgs::defaults("bin"));
    assert_eq!(a.threads, 1);
    assert!(!a.quick);
    assert_eq!(a.json, None);
    assert_eq!(a.perf_json, None);
    assert_eq!(a.profile_json, None);
    assert_eq!(a.opt, 2, "full tape optimization by default");
    assert_eq!(a.opt_level(), OptLevel::Full);
    assert_eq!(a.lanes, 1, "scalar-equivalent batch width by default");
}

#[test]
fn lanes_flag_parses_both_spellings() {
    for spelling in [argv(&["--lanes", "8"]), argv(&["--lanes=8"])] {
        let a = parse_arg_list("bin", &spelling).expect("parse");
        assert_eq!(a.lanes, 8, "{spelling:?}");
    }
}

#[test]
fn malformed_lane_counts_are_errors() {
    for bad in ["0", "-1", "eight", "", "2.0"] {
        let msg = parse_arg_list("bin", &argv(&["--lanes", bad]))
            .expect_err(&format!("--lanes {bad} must be rejected"));
        assert!(msg.contains("--lanes"), "message names the flag: {msg}");
        assert!(parse_arg_list("bin", &argv(&[&format!("--lanes={bad}")])).is_err());
    }
    assert!(parse_arg_list("bin", &argv(&["--lanes"])).is_err());
}

#[test]
fn flags_parse_in_any_order() {
    let a = parse_arg_list(
        "bin",
        &argv(&[
            "--quick",
            "-t",
            "4",
            "--json",
            "r.json",
            "--perf-json",
            "p.json",
            "--profile-json",
            "prof.json",
        ]),
    )
    .expect("parse");
    assert_eq!(a.threads, 4);
    assert!(a.quick);
    assert_eq!(a.json.as_deref(), Some("r.json"));
    assert_eq!(a.perf_json.as_deref(), Some("p.json"));
    assert_eq!(a.profile_json.as_deref(), Some("prof.json"));
    assert_eq!(a.pool().threads(), 4);
}

#[test]
fn unknown_flags_and_bad_values_are_errors() {
    assert!(parse_arg_list("bin", &argv(&["--bogus"])).is_err());
    assert!(parse_arg_list("bin", &argv(&["stray"])).is_err());
    assert!(parse_arg_list("bin", &argv(&["--threads"])).is_err());
    assert!(parse_arg_list("bin", &argv(&["--threads", "zero"])).is_err());
    assert!(parse_arg_list("bin", &argv(&["--threads", "0"])).is_err());
    assert!(parse_arg_list("bin", &argv(&["--json"])).is_err());
    assert!(parse_arg_list("bin", &argv(&["--profile-json"])).is_err());
    // The engine selector went with the threaded-code engine.
    assert!(parse_arg_list("bin", &argv(&["--engine", "compiled"])).is_err());
    // `--help` uses the empty-message sentinel, distinct from errors.
    assert_eq!(
        parse_arg_list("bin", &argv(&["--help"])).unwrap_err(),
        String::new()
    );
}

#[test]
fn partitions_flag_parses_both_spellings_and_rejects_junk() {
    let a = parse_arg_list("bin", &[]).expect("defaults parse");
    assert_eq!(a.partitions, 1, "single sub-kernel by default");
    for spelling in [argv(&["--partitions", "4"]), argv(&["--partitions=4"])] {
        let a = parse_arg_list("bin", &spelling).expect("parse");
        assert_eq!(a.partitions, 4, "{spelling:?}");
    }
    for bad in ["0", "-2", "four", "", "4.0"] {
        let msg = parse_arg_list("bin", &argv(&["--partitions", bad]))
            .expect_err(&format!("--partitions {bad} must be rejected"));
        assert!(msg.contains("--partitions"), "names the flag: {msg}");
        assert!(parse_arg_list("bin", &argv(&[&format!("--partitions={bad}")])).is_err());
    }
    assert!(parse_arg_list("bin", &argv(&["--partitions"])).is_err());
}

#[test]
fn opt_flag_parses_both_spellings() {
    for (spelling, want, level) in [
        (argv(&["--opt", "0"]), 0u8, OptLevel::None),
        (argv(&["--opt=0"]), 0, OptLevel::None),
        (argv(&["--opt", "1"]), 1, OptLevel::Basic),
        (argv(&["--opt=1"]), 1, OptLevel::Basic),
        (argv(&["--opt", "2"]), 2, OptLevel::Full),
        (argv(&["--opt=2"]), 2, OptLevel::Full),
    ] {
        let a = parse_arg_list("bin", &spelling).expect("parse");
        assert_eq!(a.opt, want, "{spelling:?}");
        assert_eq!(a.opt_level(), level, "{spelling:?}");
    }
}

#[test]
fn malformed_opt_values_are_errors() {
    // parse_args turns these messages into exit code 2, same as any
    // unknown flag; only 0, 1 and 2 are valid levels.
    for bad in ["3", "-1", "two", "", "0x1", "2.0"] {
        let msg = parse_arg_list("bin", &argv(&["--opt", bad]))
            .expect_err(&format!("--opt {bad} must be rejected"));
        assert!(msg.contains("--opt"), "message names the flag: {msg}");
        assert!(!msg.is_empty(), "not the --help sentinel");
        let msg = parse_arg_list("bin", &argv(&[&format!("--opt={bad}")]))
            .expect_err(&format!("--opt={bad} must be rejected"));
        assert!(msg.contains("--opt"), "message names the flag: {msg}");
    }
    assert!(parse_arg_list("bin", &argv(&["--opt"])).is_err());
}

#[test]
fn ber_counts_invariant_across_thread_counts() {
    // A tiny sweep point, measured at 1, 2 and 8 workers: the summed
    // (errors, bits) totals must be bit-identical because every burst
    // carries its own explicit seed and the merge is order-keyed.
    let baseline =
        measure(&ParConfig::new(1), &[1.0, 0.65, 0.35], 0.4, true, 3, 24).expect("measure");
    assert!(baseline.bits > 0, "the measurement must compare bits");
    for threads in [2usize, 8] {
        let c = measure(
            &ParConfig::new(threads),
            &[1.0, 0.65, 0.35],
            0.4,
            true,
            3,
            24,
        )
        .expect("measure");
        assert_eq!(c, baseline, "BER totals diverged at {threads} thread(s)");
    }
}

#[test]
fn batched_ber_counts_equal_scalar_for_all_lane_and_thread_counts() {
    // The batched executor must reproduce the scalar measurement
    // bit-for-bit: per-burst seeds are keyed on the global burst index,
    // so lanes × threads is pure geometry. Includes lane counts that do
    // not divide the burst count (ragged final chunk).
    let channel = [1.0, 0.65, 0.35];
    let scalar = measure(&ParConfig::new(1), &channel, 0.4, true, 5, 24).expect("measure");
    // A tape compiled once up front must reproduce the totals of
    // batches the workers compile themselves bit-for-bit too — the
    // simulation service's warm path.
    let cfg = TransceiverConfig {
        train: true,
        agc: false,
        adapt: true,
    };
    let tape = CompiledTape::compile(&build_system(&cfg).expect("build"), OptLevel::Full)
        .expect("compile");
    for lanes in [1usize, 3, 8] {
        for threads in [1usize, 4] {
            let pool = ParConfig::new(threads);
            for tape in [None, Some(&tape)] {
                let c = measure_batched(
                    &Robust::plain(&pool),
                    "test_eq",
                    &channel,
                    0.4,
                    true,
                    5,
                    24,
                    lanes,
                    OptLevel::Full,
                    tape,
                )
                .expect("measure");
                assert_eq!(
                    c,
                    scalar,
                    "fault-free diverged at {lanes} lanes, {threads} threads, cached={}",
                    tape.is_some()
                );
            }
        }
    }
}

#[test]
fn batched_faulty_ber_counts_equal_scalar() {
    // The faulted variant exercises per-lane fault plans and the
    // masked-lane (fully-errored burst) accounting path.
    let channel = [1.0, 0.65, 0.35];
    let scalar =
        measure_with_faults(&ParConfig::new(1), &channel, 0.2, 0.02, 4, 24).expect("measure");
    let pool = ParConfig::new(2);
    let cfg = TransceiverConfig {
        train: true,
        agc: false,
        adapt: true,
    };
    let tape = CompiledTape::compile(&build_system(&cfg).expect("build"), OptLevel::Full)
        .expect("compile");
    for lanes in [1usize, 3] {
        for tape in [None, Some(&tape)] {
            let c = measure_with_faults_batched(
                &Robust::plain(&pool),
                "test_fault",
                &channel,
                0.2,
                0.02,
                4,
                24,
                lanes,
                OptLevel::Full,
                tape,
            )
            .expect("measure");
            assert_eq!(
                c,
                scalar,
                "faulted totals diverged at {lanes} lanes, cached={}",
                tape.is_some()
            );
        }
    }
}
