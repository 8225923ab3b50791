//! `benchmark` — the repository benchmark: one seeded workload per
//! process, interleaved median sampling, end-to-end metrics from an
//! untraced run and per-layer metrics from a traced one.
//!
//! ```text
//! benchmark --workload W --seed S [--seconds N] [--trace 0|1|SPANS.json] [--smoke]
//! ```
//!
//! Workloads: `cycle-small`, `cycle-dect`, `gate-signoff`, `monte-carlo`,
//! `serve` (see README.md for what each runs and why). The last line of
//! standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`
//! holding every end-to-end metric, or with tracing on every per-layer
//! metric. A failed correctness check prints `correct: false` and exits 1;
//! a bad argument exits 2.

#![deny(clippy::unwrap_used, clippy::expect_used)]

mod cycle;
mod gate;
mod montecarlo;
mod reference;
mod sample;
mod serve;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use ocapi_serve::Json;

use sample::{geomean, Pair, Tally};
use trace::Tracer;

/// Counts allocation calls (for the per-layer `allocs_per_cycle`) and
/// live heap bytes with their high-water mark (for `peak_mem_mb`). The
/// mark is the heap the program itself asked for: unlike the resident
/// set, it does not depend on which malloc arena a pool thread drew.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to the system allocator with the
// caller's arguments unchanged; the counters are statistics that
// publish no other data, so `Relaxed` suffices.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = unsafe { SysAlloc.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = unsafe { SysAlloc.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let p = unsafe { SysAlloc.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SysAlloc.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls since the process started.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Metrics every workload reports from its untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_mem_mb", "MB"),
    ("throughput", "1/s"),
];

/// Metrics of single layers, reported from the traced run. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("designs.capture_s", "s"),
    ("compile.levelize_s", "s"),
    ("compile.opt_s", "s"),
    ("compile.tape_len", "count"),
    ("lower.lower_s", "s"),
    ("lower.kernels", "count"),
    ("lower.superinstructions", "count"),
    ("instantiate.build_s", "s"),
    ("rtl.lower_s", "s"),
    ("interp.cycles_per_s", "cycles/s"),
    ("compiled.cycles_per_s", "cycles/s"),
    ("fused.cycles_per_s", "cycles/s"),
    ("batched.lane_cycles_per_s", "cycles/s"),
    ("rtl.cycles_per_s", "cycles/s"),
    ("compiled.ns_per_op", "ns"),
    ("fused.ns_per_op", "ns"),
    ("batched.ns_per_op", "ns"),
    ("interp.allocs_per_cycle", "count"),
    ("compiled.allocs_per_cycle", "count"),
    ("fused.allocs_per_cycle", "count"),
    ("batched.allocs_per_cycle", "count"),
    ("rtl.allocs_per_cycle", "count"),
    ("synth.synth_s", "s"),
    ("synth.gates", "count"),
    ("gatesim.build_s", "s"),
    ("gatesim.cycles_per_s", "cycles/s"),
    ("gatesim.evals_per_cycle", "count"),
    ("partition.build_s", "s"),
    ("partition.flat_cycles_per_s", "cycles/s"),
    ("partition.cycles_per_s", "cycles/s"),
    ("partition.speedup", "ratio"),
    ("partition.cut_edges", "count"),
    ("partition.exchanged_per_cycle", "count"),
    ("gatefault.faults_per_s", "faults/s"),
    ("gatefault.faults_per_gate_eval", "ratio"),
    ("campaign.runs_per_s", "runs/s"),
    ("campaign.cycles_per_s", "cycles/s"),
    ("campaign.masked", "count"),
    ("campaign.silent", "count"),
    ("campaign.detected", "count"),
    ("campaign.timed_out", "count"),
    ("ber.bursts_per_s", "bursts/s"),
    ("ber.lane_cycles_per_s", "cycles/s"),
    ("ber.word_ops", "count"),
    ("serve.jobs_per_s", "jobs/s"),
    ("serve.ready_s", "s"),
    ("serve.p50_ms.hcor_campaign", "ms"),
    ("serve.p50_ms.ber", "ms"),
    ("serve.p50_ms.session", "ms"),
    ("serve.p50_ms.dect_campaign", "ms"),
    ("serve.tail_ms.hcor_campaign", "ms"),
    ("serve.tail_ms.ber", "ms"),
    ("serve.tail_ms.session", "ms"),
    ("serve.tail_ms.dect_campaign", "ms"),
    ("serve.server_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

const USAGE: &str =
    "usage: benchmark --workload cycle-small|cycle-dect|gate-signoff|monte-carlo|serve \
                     --seed N [--seconds N] [--trace 0|1|SPANS.json] [--smoke]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    CycleSmall,
    CycleDect,
    GateSignoff,
    MonteCarlo,
    Serve,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "cycle-small" => Workload::CycleSmall,
            "cycle-dect" => Workload::CycleDect,
            "gate-signoff" => Workload::GateSignoff,
            "monte-carlo" => Workload::MonteCarlo,
            "serve" => Workload::Serve,
            _ => return None,
        })
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    /// Tracing on, and where to write the spans (if anywhere).
    trace: Option<Option<String>>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15.0;
    let mut trace = None;
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("`--seed` needs an integer, got `{v}`"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("`--seconds` needs a number in (0, 600], got `{v}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(None),
                    path => Some(Some(path.to_owned())),
                };
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed: seed.ok_or("`--seed` is required")?,
        seconds: if smoke { 1.0 } else { seconds },
        trace,
        smoke,
    })
}

/// The state of one benchmark run: its settings, the metrics gathered
/// so far, and the failure accounting.
pub struct Run<'a> {
    pub seed: u64,
    /// Measurement budget of the round-robin (or the serve load).
    pub budget: Duration,
    /// Interleaved rebuilds per build behind `setup_s`.
    pub reps: usize,
    pub smoke: bool,
    pub tracer: &'a Tracer,
    metrics: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl<'a> Run<'a> {
    fn new(args: &Args, tracer: &'a Tracer) -> Run<'a> {
        Run {
            seed: args.seed,
            budget: Duration::from_secs_f64(args.seconds),
            reps: if args.smoke { 3 } else { 15 },
            smoke: args.smoke,
            tracer,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// One correctness check: counted as an attempted operation, and as
    /// a failed one (with its message) when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        eprintln!("benchmark: FAILED: {e}");
        self.errors.push(e);
    }

    pub fn tally(&mut self, t: Tally) {
        self.attempted += t.attempted;
        self.failed += t.failed;
    }

    /// Prints the per-pair table, accounts the sampled slices, and sets
    /// `throughput` (geomean of the pairs' median normalized rates) and,
    /// when traced, `trace.overhead_frac`. The table shows each pair's
    /// median measured rate, then its normalized median and quartiles.
    pub fn report_pairs(&mut self, pairs: &[Pair<'_>], unit: &str, tally: Tally) {
        self.tally(tally);
        println!(
            "{:<14} {:<12} {:>14} {:>14} {:>14} {:>14} {:>5}",
            "layer",
            "design",
            &format!("{unit}/s"),
            "normalized",
            "q1",
            "q3",
            "n"
        );
        for p in pairs {
            let s = sample::summarize(&p.normalized);
            println!(
                "{:<14} {:<12} {:>14.1} {:>14.1} {:>14.1} {:>14.1} {:>5}",
                p.layer,
                p.design,
                sample::summarize(&p.rates).median,
                s.median,
                s.q1,
                s.q3,
                s.n
            );
            if let Some(e) = &p.error {
                self.errors.push(e.clone());
                eprintln!("benchmark: FAILED: {e}");
            }
        }
        let medians: Vec<f64> = pairs.iter().map(Pair::median).collect();
        self.set("throughput", geomean(&medians));
        if self.tracer.on() {
            let traced: Vec<f64> = pairs
                .iter()
                .map(|p| sample::summarize(&p.traced).median)
                .collect();
            self.set(
                "trace.overhead_frac",
                1.0 - geomean(&traced) / geomean(&medians),
            );
        }
    }

    /// Per-layer numbers every workload derives the same way from its
    /// spans: build-step medians and slice rates.
    fn span_metrics(&mut self) {
        let t = self.tracer;
        let levelize = t.median_sum("compile.levelize");
        self.set("designs.capture_s", t.median_sum("designs.capture"));
        self.set("compile.levelize_s", levelize);
        if levelize > 0.0 {
            self.set("compile.opt_s", t.median_sum("compile.opt") - levelize);
        }
        self.set("lower.lower_s", t.median_sum("lower"));
        self.set("instantiate.build_s", t.median_sum("instantiate"));
        self.set("rtl.lower_s", t.median_sum("rtl.lower"));
        for (metric, span) in [
            ("interp.cycles_per_s", "interp"),
            ("compiled.cycles_per_s", "compiled"),
            ("fused.cycles_per_s", "fused"),
            ("batched.lane_cycles_per_s", "batched"),
            ("rtl.cycles_per_s", "rtl"),
            ("gatesim.cycles_per_s", "gatesim"),
            ("partition.flat_cycles_per_s", "gatesim.scaled"),
            ("partition.cycles_per_s", "partition"),
            ("gatefault.faults_per_s", "gatefault"),
            ("campaign.runs_per_s", "campaign"),
            ("ber.bursts_per_s", "ber"),
        ] {
            self.set(metric, t.rate(span));
        }
        self.set("synth.synth_s", t.median_sum("synth"));
        self.set("partition.build_s", t.median_sum("partition.build"));
        let flat = self.get("partition.flat_cycles_per_s");
        if flat > 0.0 {
            self.set(
                "partition.speedup",
                self.get("partition.cycles_per_s") / flat,
            );
        }
    }

    /// Prints the tables and the result line, writes the spans, and
    /// returns the exit code.
    fn finish(mut self, spans_path: Option<&str>) -> ExitCode {
        let catalog: &[(&str, &str)] = if self.tracer.on() {
            self.span_metrics();
            println!("\nper-layer self time (traced run):");
            print!("{}", self.tracer.table());
            &PER_LAYER
        } else {
            &END_TO_END
        };
        if let Some(path) = spans_path {
            if let Err(e) = std::fs::write(path, self.tracer.to_json().to_string()) {
                self.fail(format!("writing spans to {path}: {e}"));
            }
        }
        let mut metrics = Vec::new();
        for (name, unit) in catalog {
            let v = self.get(name);
            if !v.is_finite() || (!self.tracer.on() && v <= 0.0) {
                self.fail(format!("metric {name} was not measured ({v})"));
            }
            println!("metric {name:<32} {v:>16.6} {unit}");
            metrics.push((
                (*name).to_owned(),
                Json::Obj(vec![
                    (
                        "value".to_owned(),
                        Json::Num(if v.is_finite() { v } else { 0.0 }),
                    ),
                    ("unit".to_owned(), Json::Str((*unit).to_owned())),
                ]),
            ));
        }
        let correct = self.errors.is_empty() && self.failed == 0;
        println!("ops_total {}  ops_failed {}", self.attempted, self.failed);
        let result = Json::Obj(vec![
            ("correct".to_owned(), Json::Bool(correct)),
            (
                "attempted".to_owned(),
                Json::Num(self.attempted.max(1) as f64),
            ),
            ("failed".to_owned(), Json::Num(self.failed as f64)),
            ("metrics".to_owned(), Json::Obj(metrics)),
        ]);
        println!("{result}");
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }
}

const MB: f64 = 1024.0 * 1024.0;

/// `VmHWM` (peak resident set) of process `pid`, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("reading /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / MB)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

/// FNV-1a over the bytes of one 64-bit word — the output digest fold.
pub fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs one workload into `run`.
fn run_workload(w: Workload, run: &mut Run<'_>) -> Result<(), String> {
    match w {
        Workload::CycleSmall => cycle::run(run, &cycle::small_designs()),
        Workload::CycleDect => cycle::run(run, &[cycle::dect_design()]),
        Workload::GateSignoff => gate::run(run),
        Workload::MonteCarlo => montecarlo::run(run),
        Workload::Serve => serve::run(run),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace.is_some());
    let mut run = Run::new(&args, &tracer);
    if let Err(e) = run_workload(args.workload, &mut run) {
        run.fail(e);
    }
    if args.workload != Workload::Serve {
        run.set("peak_mem_mb", PEAK.load(Ordering::Relaxed) as f64 / MB);
    }
    run.finish(args.trace.flatten().as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn args_parse_and_bad_values_are_rejected() {
        let a = parse_args(&argv("--workload serve --seed 3 --seconds 12 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::Serve);
        assert_eq!((a.seed, a.seconds), (3, 12.0));
        assert_eq!(a.trace, Some(None));
        let b = parse_args(&argv(
            "--workload cycle-dect --seed 1 --trace spans.json --smoke",
        ))
        .unwrap();
        assert_eq!(b.trace, Some(Some("spans.json".to_owned())));
        assert_eq!(b.seconds, 1.0);
        assert_eq!(
            parse_args(&argv("--workload gate-signoff --seed 1 --trace 0"))
                .unwrap()
                .trace,
            None
        );
        for bad in [
            "--workload nope --seed 1",
            "--seed 1",
            "--workload serve",
            "--workload serve --seed x",
            "--workload serve --seed 1 --seconds 0",
            "--workload serve --seed 1 --bogus",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        for (key, catalog) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalog
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert!(names.iter().all(|n| Workload::parse(n).is_some()));
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn fnv_folds_every_byte() {
        assert_ne!(fnv(FNV_OFFSET, 1), fnv(FNV_OFFSET, 1 << 56));
        assert_eq!(fnv(FNV_OFFSET, 7), fnv(FNV_OFFSET, 7));
    }

    #[test]
    fn peak_rss_is_readable_and_the_heap_mark_counts() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        let v = vec![0u8; 4 << 20];
        assert!(PEAK.load(Ordering::Relaxed) >= v.len());
        assert!(allocations() > 0);
    }

    /// Runs an in-process workload traced, at a tiny budget, and returns
    /// the layers its spans cover.
    fn smoke(name: &str) -> Vec<&'static str> {
        let args = parse_args(&argv(&format!("--workload {name} --seed 3 --smoke"))).unwrap();
        let tracer = Tracer::new(true);
        let mut run = Run::new(&args, &tracer);
        run.budget = Duration::from_millis(100);
        run.reps = 1;
        run_workload(args.workload, &mut run).unwrap();
        assert!(run.errors.is_empty() && run.failed == 0, "{:?}", run.errors);
        assert!(run.attempted > 0);
        for metric in ["setup_s", "throughput"] {
            assert!(run.get(metric) > 0.0, "{metric} on {name}");
        }
        let mut names: Vec<&'static str> = tracer.spans().iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    fn covers(names: &[&str], layers: &[&str]) {
        for l in layers {
            assert!(names.contains(l), "no `{l}` span in {names:?}");
        }
    }

    #[test]
    fn cycle_small_smoke() {
        let names = smoke("cycle-small");
        covers(
            &names,
            &[
                "designs.capture",
                "compile.levelize",
                "compile.opt",
                "lower",
            ],
        );
        covers(
            &names,
            &[
                "instantiate",
                "rtl.lower",
                "interp",
                "compiled",
                "fused",
                "batched",
                "rtl",
            ],
        );
    }

    #[test]
    fn cycle_dect_smoke() {
        covers(
            &smoke("cycle-dect"),
            &["designs.capture", "fused", "batched", "rtl"],
        );
    }

    #[test]
    fn gate_signoff_smoke() {
        let names = smoke("gate-signoff");
        covers(&names, &["synth", "gatesim.build", "gatesim", "gatefault"]);
        covers(&names, &["gatesim.scaled", "partition.build", "partition"]);
    }

    #[test]
    fn monte_carlo_smoke() {
        covers(
            &smoke("monte-carlo"),
            &["designs.capture", "compile.opt", "ber", "campaign"],
        );
    }
}
