//! Machine-readable benchmark output: the perf-trajectory record
//! (`BENCH_PR.json`) and the deterministic results file the CI
//! determinism job byte-diffs across thread counts.
//!
//! The serializer is hand-rolled (the workspace builds offline with
//! zero registry dependencies) and intentionally boring: objects with
//! insertion-ordered keys, numbers rendered with Rust's
//! shortest-roundtrip formatting, no floats derived from timers in the
//! *results* section. The split matters:
//!
//! * **results** — pure functions of (workload, seed): fault
//!   classification counts, coverage, signatures, BER points. Identical
//!   for every `--threads N`, so `cmp` on two results files is the
//!   determinism check.
//! * **perf** — wall-clock throughput: cycles/sec, runs/sec, per-worker
//!   utilization, speedups. Different on every run; tracked over PRs as
//!   the repo's performance trajectory.

use std::io::Write as _;

use ocapi_obs::json::{escape, num};

use crate::cli::BenchArgs;

/// Collects key → value pairs for one benchmark binary and writes the
/// two JSON files selected by the CLI.
#[derive(Debug, Clone, Default)]
pub struct Reporter {
    bin: String,
    results: Vec<(String, String)>,
    perf: Vec<(String, String)>,
}

impl Reporter {
    /// A reporter for the named binary.
    pub fn new(bin: &str) -> Reporter {
        Reporter {
            bin: bin.to_owned(),
            ..Reporter::default()
        }
    }

    /// Records a deterministic integer result.
    pub fn result_u64(&mut self, key: &str, v: u64) {
        self.results.push((key.to_owned(), v.to_string()));
    }

    /// Records a deterministic float result (a pure function of the
    /// workload, e.g. a BER — never a timing).
    pub fn result_f64(&mut self, key: &str, v: f64) {
        self.results.push((key.to_owned(), num(v)));
    }

    /// Records a deterministic string result (e.g. a hex signature).
    pub fn result_str(&mut self, key: &str, v: &str) {
        self.results
            .push((key.to_owned(), format!("\"{}\"", escape(v))));
    }

    /// Records a throughput/perf metric.
    pub fn perf_f64(&mut self, key: &str, v: f64) {
        self.perf.push((key.to_owned(), num(v)));
    }

    /// Records an integer perf metric.
    pub fn perf_u64(&mut self, key: &str, v: u64) {
        self.perf.push((key.to_owned(), v.to_string()));
    }

    fn object(pairs: &[(String, String)]) -> String {
        let body: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("    \"{}\": {}", escape(k), v))
            .collect();
        format!("{{\n{}\n  }}", body.join(",\n"))
    }

    /// The deterministic results document. Contains no timings and no
    /// thread count: byte-identical across `--threads` values.
    pub fn results_json(&self) -> String {
        format!(
            "{{\n  \"bin\": \"{}\",\n  \"results\": {}\n}}\n",
            escape(&self.bin),
            Reporter::object(&self.results)
        )
    }

    /// The perf document: run configuration plus throughput metrics.
    pub fn perf_json(&self, args: &BenchArgs) -> String {
        format!(
            "{{\n  \"bin\": \"{}\",\n  \"threads\": {},\n  \"lanes\": {},\n  \"quick\": {},\n  \"opt\": {},\n  \"partitions\": {},\n  \"perf\": {}\n}}\n",
            escape(&self.bin),
            args.threads,
            args.lanes,
            args.quick,
            args.opt,
            args.partitions,
            Reporter::object(&self.perf)
        )
    }

    /// Writes whichever files the CLI asked for, atomically (see
    /// [`write_atomic`]): a crash or kill during the write leaves either
    /// the previous file or the complete new one, never a torn JSON.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating, writing or renaming.
    pub fn write(&self, args: &BenchArgs) -> std::io::Result<()> {
        if let Some(path) = &args.json {
            write_atomic(path, self.results_json().as_bytes())?;
        }
        if let Some(path) = &args.perf_json {
            write_atomic(path, self.perf_json(args).as_bytes())?;
        }
        Ok(())
    }
}

/// Atomically replaces `path` with `contents`: the bytes are written to
/// a sibling temp file, fsynced to disk, and renamed over `path`. On a
/// POSIX filesystem the rename is atomic, so readers (and a run killed
/// mid-write) see either the old file or the complete new one — the
/// write discipline shared by every `--json`/`--perf-json`/
/// `--profile-json` report and by the checkpoint manifests.
///
/// # Errors
///
/// Propagates I/O errors from creating, writing, syncing or renaming.
pub fn write_atomic(path: &str, contents: &[u8]) -> std::io::Result<()> {
    let tmp = format!("{path}.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Writes the observability profile (`--profile-json`) if the CLI asked
/// for it. The document's `deterministic` section (counter totals, span
/// tree structure, event totals) is byte-identical across thread counts;
/// `timing` carries the advisory wall-clock data.
///
/// # Errors
///
/// Propagates I/O errors from creating, writing or renaming the file.
pub fn write_profile(args: &BenchArgs, reg: &ocapi_obs::Registry) -> std::io::Result<()> {
    if let Some(path) = &args.profile_json {
        write_atomic(path, reg.profile_json(&args.bin).as_bytes())?;
    }
    Ok(())
}
