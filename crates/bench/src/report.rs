//! Machine-readable benchmark output: the perf-trajectory record
//! (`BENCH_PR.json`) and the deterministic results file the CI
//! determinism job byte-diffs across thread counts.
//!
//! Both documents are built as [`Json`] values and printed in the
//! indented form, with keys in insertion order and numbers in Rust's
//! shortest-roundtrip formatting; no float derived from a timer enters
//! the *results* section. The split matters:
//!
//! * **results** — pure functions of (workload, seed): fault
//!   classification counts, coverage, signatures, BER points. Identical
//!   for every `--threads N`, so `cmp` on two results files is the
//!   determinism check.
//! * **perf** — wall-clock throughput: cycles/sec, runs/sec, speedups.
//!   Different on every run; tracked over PRs as the repo's performance
//!   trajectory.

use std::io::Write as _;
use std::path::Path;

use ocapi_obs::json::{obj, Json};

use crate::cli::BenchArgs;

/// Collects key → value pairs for one benchmark binary and writes the
/// two JSON files selected by the CLI.
#[derive(Debug, Clone, Default)]
pub struct Reporter {
    bin: String,
    results: Vec<(String, Json)>,
    perf: Vec<(String, Json)>,
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
        self.results.push((key.to_owned(), Json::U64(v)));
    }

    /// Records a deterministic float result (a pure function of the
    /// workload, e.g. a BER — never a timing).
    pub fn result_f64(&mut self, key: &str, v: f64) {
        self.results.push((key.to_owned(), Json::Num(v)));
    }

    /// Records a deterministic string result (e.g. a hex signature).
    pub fn result_str(&mut self, key: &str, v: &str) {
        self.results.push((key.to_owned(), Json::Str(v.to_owned())));
    }

    /// Records a throughput/perf metric.
    pub fn perf_f64(&mut self, key: &str, v: f64) {
        self.perf.push((key.to_owned(), Json::Num(v)));
    }

    /// Records an integer perf metric.
    pub fn perf_u64(&mut self, key: &str, v: u64) {
        self.perf.push((key.to_owned(), Json::U64(v)));
    }

    /// The deterministic results document. Contains no timings and no
    /// thread count: byte-identical across `--threads` values.
    pub fn results_json(&self) -> String {
        let doc = obj([
            ("bin", Json::Str(self.bin.clone())),
            ("results", Json::Obj(self.results.clone())),
        ]);
        format!("{doc:#}\n")
    }

    /// The perf document: run configuration plus throughput metrics.
    pub fn perf_json(&self, args: &BenchArgs) -> String {
        let doc = obj([
            ("bin", Json::Str(self.bin.clone())),
            ("threads", Json::U64(args.threads as u64)),
            ("lanes", Json::U64(args.lanes as u64)),
            ("quick", Json::Bool(args.quick)),
            ("opt", Json::U64(args.opt.into())),
            ("partitions", Json::U64(args.partitions as u64)),
            ("perf", Json::Obj(self.perf.clone())),
        ]);
        format!("{doc:#}\n")
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
pub fn write_atomic(path: impl AsRef<Path>, contents: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Reporter {
        let mut rep = Reporter::new("t");
        rep.result_u64("coverage_max", u64::MAX);
        rep.result_f64("ber", 0.125);
        rep.result_f64("undefined", f64::NAN);
        rep.result_str("signature", "0x1f \"q\"");
        rep.perf_f64("cycles_per_sec", 1.5e6);
        rep.perf_u64("jobs", 8);
        rep
    }

    #[test]
    fn documents_round_trip_through_the_parser() {
        let rep = sample();
        let args = BenchArgs::defaults("t");
        for text in [rep.results_json(), rep.perf_json(&args)] {
            let v = Json::parse(&text).unwrap();
            assert_eq!(format!("{v:#}\n"), text);
        }
        let results = Json::parse(&rep.results_json()).unwrap();
        let results = results.get("results").unwrap();
        assert_eq!(results.get("coverage_max"), Some(&Json::U64(u64::MAX)));
        assert_eq!(results.get("undefined"), Some(&Json::Null));
        assert_eq!(
            results.get("signature").and_then(Json::as_str),
            Some("0x1f \"q\"")
        );
    }

    #[test]
    fn results_layout_is_pinned() {
        assert_eq!(
            sample().results_json(),
            "{\n  \"bin\": \"t\",\n  \"results\": {\n    \"coverage_max\": 18446744073709551615,\n    \
             \"ber\": 0.125,\n    \"undefined\": null,\n    \"signature\": \"0x1f \\\"q\\\"\"\n  }\n}\n"
        );
    }
}
