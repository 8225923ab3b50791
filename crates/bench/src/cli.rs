//! The shared command-line interface of every benchmark binary.
//!
//! Before this module the five bins diverged in argument handling (and
//! mostly ignored `argv` altogether); now each parses the same flag
//! set through [`parse_args`] and exits non-zero with a usage message
//! on anything it does not understand, so CI invocations fail loudly
//! instead of silently running the wrong workload.
//!
//! Flags:
//!
//! * `--threads N` / `-t N` — worker-pool width for the sharded
//!   engines. Results are bit-identical for every `N`; see
//!   `ocapi::sim::par`.
//! * `--lanes N` — lane count for the batched tape executor
//!   (`ocapi::sim::batch`): N independent instances share one micro-op
//!   tape walk per cycle. Composes with `--threads` (each worker steps
//!   its own batch) and results are bit-identical for every `N`.
//! * `--quick` / `-q` — a CI-sized workload (same code paths, smaller
//!   vector sets) for the `bench-smoke` and `determinism` jobs.
//! * `--opt N` (or `--opt=N`, N in 0..=2) — tape-optimization level for
//!   the compiled simulator (`ocapi::OptLevel`); default 2 (Full).
//!   Deterministic results are identical at every level — only the perf
//!   section (tape length, wall time) may differ.
//! * `--json PATH` — write the *deterministic* results (counts,
//!   signatures, BER points — never timings or the thread count) as
//!   JSON. Byte-identical across thread counts; the CI determinism job
//!   diffs this file between `--threads 1` and `--threads 4`.
//! * `--perf-json PATH` — write the throughput metrics (wall seconds,
//!   cycles/sec, runs/sec) as JSON; CI merges these into the
//!   `BENCH_PR.json` trajectory artifact.
//! * `--profile-json PATH` — write the observability profile (counter
//!   totals, span call-tree, per-phase timings) as JSON. The
//!   `deterministic` section is byte-identical across thread counts;
//!   the `timing` section is advisory wall-clock data.

use ocapi::{OptLevel, ParConfig};

/// Parsed benchmark options, shared by all five bins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Binary name, for usage and report headers.
    pub bin: String,
    /// Worker threads for the sharded engines (≥ 1).
    pub threads: usize,
    /// Lanes for the batched tape executor (≥ 1; 1 = scalar path).
    pub lanes: usize,
    /// CI-sized workload.
    pub quick: bool,
    /// Compiled-simulator tape-optimization level (0, 1 or 2).
    pub opt: u8,
    /// Destination for the deterministic results JSON.
    pub json: Option<String>,
    /// Destination for the performance-metrics JSON.
    pub perf_json: Option<String>,
    /// Destination for the observability-profile JSON.
    pub profile_json: Option<String>,
    /// Checkpoint directory for crash-safe campaigns (`--checkpoint`).
    pub checkpoint: Option<String>,
    /// Completed items between manifest flushes (`--checkpoint-every`).
    pub checkpoint_every: u64,
    /// Skip items already recorded in the checkpoint manifests
    /// (`--resume`; requires `--checkpoint`).
    pub resume: bool,
    /// Attempts per sharded work item (≥ 1; `--retries`). Retried items
    /// re-run with their original index-derived seeds, so recovery is
    /// bit-identical to a first-try success.
    pub retries: u32,
    /// Partition count for the model-parallel gate engine
    /// (`--partitions`, ≥ 1; 1 = single sub-kernel). Only `table_gates`
    /// acts on it today. Results are bit-identical for every K — the
    /// CI determinism job byte-diffs `--json` across partition counts.
    pub partitions: usize,
}

impl BenchArgs {
    /// Defaults: one thread, full workload, no JSON files.
    pub fn defaults(bin: &str) -> BenchArgs {
        BenchArgs {
            bin: bin.to_owned(),
            threads: 1,
            lanes: 1,
            quick: false,
            opt: 2,
            json: None,
            perf_json: None,
            profile_json: None,
            checkpoint: None,
            checkpoint_every: 64,
            resume: false,
            retries: 1,
            partitions: 1,
        }
    }

    /// The worker pool these options select.
    pub fn pool(&self) -> ParConfig {
        ParConfig::new(self.threads)
    }

    /// The compiled-simulator optimization level `--opt` selects.
    pub fn opt_level(&self) -> OptLevel {
        match self.opt {
            0 => OptLevel::None,
            1 => OptLevel::Basic,
            _ => OptLevel::Full,
        }
    }
}

/// The usage text for `bin`.
pub fn usage(bin: &str) -> String {
    format!(
        "usage: {bin} [--threads N] [--lanes N] [--quick] [--opt N] [--json PATH] [--perf-json PATH] [--profile-json PATH]\n\
         \x20      [--checkpoint DIR] [--checkpoint-every N] [--resume] [--retries N]\n\
         \x20      [--partitions K]\n\
         \n\
         \x20 -t, --threads N    worker threads for the sharded engines (default 1;\n\
         \x20                    results are bit-identical for every N)\n\
         \x20     --lanes N      lanes for the batched tape executor (default 1;\n\
         \x20                    N instances share one tape walk per cycle —\n\
         \x20                    results are bit-identical for every N)\n\
         \x20 -q, --quick        CI-sized workload (same code paths, smaller sets)\n\
         \x20     --opt N        compiled-simulator tape optimization: 0 = none,\n\
         \x20                    1 = fold/simplify, 2 = full (CSE + DCE + slot\n\
         \x20                    compaction; default 2). Results are identical at\n\
         \x20                    every level\n\
         \x20     --json PATH    write deterministic results as JSON (no timings)\n\
         \x20     --perf-json PATH\n\
         \x20                    write throughput metrics as JSON (BENCH_PR data)\n\
         \x20     --profile-json PATH\n\
         \x20                    write the observability profile (counters, span\n\
         \x20                    tree, per-phase timings) as JSON\n\
         \x20     --checkpoint DIR\n\
         \x20                    write atomic checkpoint manifests of completed\n\
         \x20                    work items into DIR (crash-safe: temp + fsync +\n\
         \x20                    rename, never torn)\n\
         \x20     --checkpoint-every N\n\
         \x20                    flush manifests every N completed items\n\
         \x20                    (default 64)\n\
         \x20     --resume       skip items recorded in DIR's manifests; the\n\
         \x20                    resumed JSON output is byte-identical to an\n\
         \x20                    uninterrupted run at any --lanes x --threads\n\
         \x20     --retries N    attempts per sharded work item (default 1);\n\
         \x20                    retried items rerun with their original seeds,\n\
         \x20                    so recovery is bit-identical\n\
         \x20     --partitions K\n\
         \x20                    partitions for the model-parallel gate engine\n\
         \x20                    (default 1). The netlist is split into K\n\
         \x20                    sub-kernels settled in parallel, with registered\n\
         \x20                    cut-edge values exchanged at each clock edge.\n\
         \x20                    Results are bit-identical for every K\n\
         \x20 -h, --help         show this message"
    )
}

/// Parses an explicit argument list (everything after `argv[0]`).
///
/// Pure and in-process for testability; [`parse_args`] is the exiting
/// wrapper the bins call.
///
/// # Errors
///
/// Returns a human-readable message for an unknown flag, a missing or
/// malformed flag value, or a stray positional argument.
pub fn parse_arg_list(bin: &str, args: &[String]) -> Result<BenchArgs, String> {
    let mut out = BenchArgs::defaults(bin);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" | "-t" => {
                let v = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("{arg} expects a positive integer, got `{v}`"))?;
                if n == 0 {
                    return Err(format!("{arg} must be at least 1"));
                }
                out.threads = n;
            }
            "--lanes" => {
                let v = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
                out.lanes = parse_lanes(arg, v)?;
            }
            _ if arg.starts_with("--lanes=") => {
                out.lanes = parse_lanes("--lanes", &arg["--lanes=".len()..])?;
            }
            "--quick" | "-q" => out.quick = true,
            "--opt" => {
                let v = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
                out.opt = parse_opt_level(arg, v)?;
            }
            _ if arg.starts_with("--opt=") => {
                out.opt = parse_opt_level("--opt", &arg["--opt=".len()..])?;
            }
            "--json" => {
                let v = it.next().ok_or_else(|| format!("{arg} requires a path"))?;
                out.json = Some(v.clone());
            }
            "--perf-json" => {
                let v = it.next().ok_or_else(|| format!("{arg} requires a path"))?;
                out.perf_json = Some(v.clone());
            }
            "--profile-json" => {
                let v = it.next().ok_or_else(|| format!("{arg} requires a path"))?;
                out.profile_json = Some(v.clone());
            }
            "--checkpoint" => {
                let v = it.next().ok_or_else(|| format!("{arg} requires a path"))?;
                out.checkpoint = Some(v.clone());
            }
            "--checkpoint-every" => {
                let v = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
                out.checkpoint_every = parse_at_least_one(arg, v)?;
            }
            _ if arg.starts_with("--checkpoint-every=") => {
                out.checkpoint_every =
                    parse_at_least_one("--checkpoint-every", &arg["--checkpoint-every=".len()..])?;
            }
            "--resume" => out.resume = true,
            "--retries" => {
                let v = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
                out.retries = parse_at_least_one(arg, v)? as u32;
            }
            _ if arg.starts_with("--retries=") => {
                out.retries = parse_at_least_one("--retries", &arg["--retries=".len()..])? as u32;
            }
            "--partitions" => {
                let v = it.next().ok_or_else(|| format!("{arg} requires a value"))?;
                out.partitions = parse_partitions(arg, v)?;
            }
            _ if arg.starts_with("--partitions=") => {
                out.partitions = parse_partitions("--partitions", &arg["--partitions=".len()..])?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.resume && out.checkpoint.is_none() {
        return Err("--resume requires --checkpoint DIR".to_owned());
    }
    Ok(out)
}

/// Parses a count that must be at least 1 (checkpoint interval, retry
/// attempts).
fn parse_at_least_one(flag: &str, v: &str) -> Result<u64, String> {
    match v.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} expects a positive integer, got `{v}`")),
    }
}

/// Parses and range-checks an `--opt` level (0, 1 or 2).
fn parse_opt_level(flag: &str, v: &str) -> Result<u8, String> {
    match v.parse::<u8>() {
        Ok(n @ 0..=2) => Ok(n),
        _ => Err(format!("{flag} expects 0, 1 or 2, got `{v}`")),
    }
}

/// Parses and range-checks a `--lanes` count (≥ 1).
fn parse_lanes(flag: &str, v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} expects a positive integer, got `{v}`")),
    }
}

/// Parses and range-checks a `--partitions` count (≥ 1).
fn parse_partitions(flag: &str, v: &str) -> Result<usize, String> {
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("{flag} expects a positive integer, got `{v}`")),
    }
}

/// Parses `std::env::args()`. On `--help` prints usage and exits 0; on
/// any parse error prints the error plus usage to stderr and exits 2.
pub fn parse_args(bin: &str) -> BenchArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_arg_list(bin, &argv) {
        Ok(args) => args,
        Err(msg) if msg.is_empty() => {
            println!("{}", usage(bin));
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{bin}: {msg}\n\n{}", usage(bin));
            std::process::exit(2);
        }
    }
}
