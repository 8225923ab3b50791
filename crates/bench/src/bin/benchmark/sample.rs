//! Interleaved slice sampling and the order statistics the benchmark
//! reports.
//!
//! Host contention on a shared machine drifts over seconds, so one long
//! timed run per (engine, design) pair measures the neighbours as much
//! as the code. Instead every pair is first calibrated to a slice of
//! about [`SLICE`], then slices run round-robin across all pairs until
//! the budget is spent: drift hits every pair alike. Each slice's rate
//! is rescaled by the reference kernel timed just before it (see
//! `reference.rs`), and a pair's number is the median of those.

use std::time::{Duration, Instant};

use crate::reference::{Reference, NOMINAL};
use crate::trace::{SpanId, Tracer};

/// Target wall time of one timed slice.
pub const SLICE: Duration = Duration::from_millis(20);

/// Median, quartiles and sample count of one set of samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// The `q`-quantile of ascending `sorted`, interpolating linearly
/// between closest ranks. `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median, first and third quartile of `xs`.
pub fn summarize(xs: &[f64]) -> Summary {
    let s = sorted(xs);
    Summary {
        median: quantile(&s, 0.5),
        q1: quantile(&s, 0.25),
        q3: quantile(&s, 0.75),
        n: s.len(),
    }
}

/// Geometric mean; `NaN` when `xs` is empty or holds a non-positive value.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() || xs.iter().any(|x| *x <= 0.0 || !x.is_finite()) {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The percentile ladder a tail is reported on, as (label, share of
/// samples beyond it in parts per 100 000).
const LADDER: [(&str, u64); 5] = [
    ("p50", 50_000),
    ("p90", 10_000),
    ("p99", 1_000),
    ("p99.9", 100),
    ("p99.99", 10),
];

/// The highest percentile of the ladder that has at least ten samples
/// beyond it, with its nearest-rank value: p99.9 needs 10 000 samples,
/// p99 needs 1 000. `None` below 20 samples.
pub fn tail(xs: &[f64]) -> Option<(&'static str, f64)> {
    let s = sorted(xs);
    let n = s.len() as u64;
    let (label, beyond) = LADDER
        .iter()
        .rev()
        .find(|(_, per)| n * per >= 10 * 100_000)?;
    // Nearest rank: the smallest value with at least the percentile's
    // share of samples at or below it.
    let rank = (n * (100_000 - beyond)).div_ceil(100_000);
    Some((label, s[rank.max(1) as usize - 1]))
}

/// The timed unit of one sampled pair: `run(reps, span)` performs
/// `reps` units of work (cycles, bursts, grading passes, jobs) and
/// returns the amount of work done in the pair's own unit. `span` is the
/// slice's span when the slice is traced, so the run can hang its own
/// spans under it, and [`SpanId::NONE`] otherwise.
pub type Work<'a> = Box<dyn FnMut(u64, SpanId) -> Result<f64, String> + 'a>;

/// One sampled pair: an (engine, design), (kernel, netlist) or load.
pub struct Pair<'a> {
    /// The layer the slice calls into (span name, per-layer metric key).
    pub layer: &'static str,
    /// The design or netlist it runs.
    pub design: String,
    run: Work<'a>,
    reps: u64,
    slice: Duration,
    /// Work per second of the untraced slices.
    pub rates: Vec<f64>,
    /// The same, each rescaled to the nominal host by the reference rate
    /// measured right before the slice.
    pub normalized: Vec<f64>,
    /// Normalized rates of the traced slices (trace mode only).
    pub traced: Vec<f64>,
    /// The first error the pair returned; it is not sampled again.
    pub error: Option<String>,
}

impl<'a> Pair<'a> {
    pub fn new(
        layer: &'static str,
        design: &str,
        run: impl FnMut(u64, SpanId) -> Result<f64, String> + 'a,
    ) -> Pair<'a> {
        Pair {
            layer,
            design: design.to_owned(),
            run: Box::new(run),
            reps: 1,
            slice: SLICE,
            rates: Vec::new(),
            normalized: Vec::new(),
            traced: Vec::new(),
            error: None,
        }
    }

    /// A pair whose slices last `slice` instead of [`SLICE`]: for units
    /// so long that a 20 ms slice would hold only a few of them.
    pub fn slice(mut self, slice: Duration) -> Pair<'a> {
        self.slice = slice;
        self
    }

    /// Median normalized rate of the untraced slices.
    pub fn median(&self) -> f64 {
        summarize(&self.normalized).median
    }

    fn fail(&mut self, e: String) {
        if self.error.is_none() {
            self.error = Some(format!("{} on {}: {e}", self.layer, self.design));
        }
    }

    /// Grows `reps` by fours until a run takes a quarter slice, then
    /// scales it to one slice. These runs are the warm-up and are not
    /// sampled. A unit longer than a slice stays at one rep.
    fn calibrate(&mut self) -> Result<(), String> {
        let target = self.slice.as_secs_f64();
        let mut reps = 1u64;
        loop {
            let t = Instant::now();
            (self.run)(reps, SpanId::NONE)?;
            let dt = t.elapsed().as_secs_f64();
            if dt >= target / 4.0 || reps >= 1 << 40 {
                self.reps = (reps as f64 * target / dt.max(1e-9)).round().max(1.0) as u64;
                return Ok(());
            }
            reps *= 4;
        }
    }

    /// Times the reference, then one slice. A traced slice keeps its
    /// span open while it runs, so span bookkeeping (and whatever the
    /// run hangs under the span) is timed with it. An untraced slice
    /// runs bare and, when tracing is on, is recorded only afterwards,
    /// so the self-time table still covers every slice.
    fn sample(
        &mut self,
        reference: &mut Reference,
        tracer: &Tracer,
        parent: SpanId,
        traced: bool,
    ) -> Result<(), String> {
        let r = Instant::now();
        let reference_rate = reference.rate();
        tracer.record("reference", "host", parent, r, Instant::now(), 0.0);
        let span = if traced {
            tracer.open(self.layer, &self.design, parent)
        } else {
            SpanId::NONE
        };
        let t = Instant::now();
        let work = (self.run)(self.reps, span)?;
        let end = Instant::now();
        let rate = work / (end - t).as_secs_f64().max(1e-9);
        let normalized = rate * NOMINAL / reference_rate;
        if traced {
            tracer.close_with_work(span, work);
            self.traced.push(normalized);
        } else {
            tracer.record(self.layer, &self.design, parent, t, end, work);
            self.rates.push(rate);
            self.normalized.push(normalized);
        }
        Ok(())
    }
}

/// Slices run and slices that failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Calibrates every pair, then runs slices round-robin until `budget`
/// is spent (at least two rounds). With tracing on, every other round
/// is traced, so the traced and untraced rates of a pair see the same
/// host conditions and their ratio is the tracing overhead.
pub fn round_robin(
    pairs: &mut [Pair<'_>],
    budget: Duration,
    tracer: &Tracer,
    parent: SpanId,
) -> Tally {
    let mut tally = Tally::default();
    for p in pairs.iter_mut() {
        tally.attempted += 1;
        if let Err(e) = p.calibrate() {
            tally.failed += 1;
            p.fail(e);
        }
    }
    let mut reference = Reference::default();
    let start = Instant::now();
    let mut round = 0u64;
    while (round < 2 || start.elapsed() < budget) && pairs.iter().any(|p| p.error.is_none()) {
        let traced = tracer.on() && round % 2 == 1;
        for p in pairs.iter_mut().filter(|p| p.error.is_none()) {
            if round >= 2 && start.elapsed() >= budget {
                break;
            }
            tally.attempted += 1;
            if let Err(e) = p.sample(&mut reference, tracer, parent, traced) {
                tally.failed += 1;
                p.fail(e);
            }
        }
        round += 1;
    }
    tally
}

/// One set-up step that [`interleaved_builds`] repeats.
pub type Build<'a> = Box<dyn FnMut() -> Result<(), String> + 'a>;

/// Set-up repeats at least this often (or as often as asked, if less)…
pub const MIN_SETUP_REPS: usize = 5;
/// …and starts no further rep once this much set-up time is spent.
pub const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Whether set-up rep `done + 1` of at most `max` should run.
pub fn another_rep(done: usize, max: usize, started: Instant) -> bool {
    done < max.min(MIN_SETUP_REPS) || (done < max && started.elapsed() < SETUP_BUDGET)
}

/// Runs every build once per rep, interleaved across builds so drift
/// hits them alike, and returns each build's median time, rescaled to
/// the nominal host by a reference measurement right before the build.
/// The first rep of each build is the cold one and counts like the
/// others.
pub fn interleaved_builds(
    max_reps: usize,
    builds: &mut [Build<'_>],
) -> Result<Vec<Summary>, String> {
    let mut reference = Reference::default();
    let mut times = vec![Vec::new(); builds.len()];
    let started = Instant::now();
    let mut done = 0;
    while done == 0 || another_rep(done, max_reps, started) {
        for (b, t) in builds.iter_mut().zip(&mut times) {
            let rate = reference.rate();
            let t0 = Instant::now();
            b()?;
            t.push(t0.elapsed().as_secs_f64() * rate / NOMINAL);
        }
        done += 1;
    }
    Ok(times.iter().map(|t| summarize(t)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate_between_ranks() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(s.n, 4);
        let odd = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((odd.q1, odd.median, odd.q3), (2.0, 3.0, 4.0));
        assert_eq!(summarize(&[7.0]).median, 7.0);
        assert!(summarize(&[]).median.is_nan());
    }

    #[test]
    fn geomean_of_rates() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[8.0, 8.0, 8.0]) - 8.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
        assert!(geomean(&[1.0, 0.0]).is_nan());
    }

    fn ramp(n: usize) -> Vec<f64> {
        // 1..=n, shuffled so the rule cannot depend on input order.
        let mut v: Vec<f64> = (1..=n).map(|x| x as f64).collect();
        v.reverse();
        v.rotate_left(n / 3);
        v
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 999 samples: p99 would leave 9.99 beyond, so p90 it is.
        assert_eq!(tail(&ramp(999)), Some(("p90", 900.0)));
        // 1 000: p99 leaves exactly 10 samples beyond.
        assert_eq!(tail(&ramp(1000)), Some(("p99", 990.0)));
        // 10 010: p99.9 leaves 10.01 beyond.
        let (label, v) = tail(&ramp(10_010)).unwrap();
        assert_eq!(label, "p99.9");
        assert_eq!(v, 10_000.0);
        assert!(ramp(10_010).iter().filter(|x| **x > v).count() >= 10);
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&ramp(20)), Some(("p50", 10.0)));
    }

    #[test]
    fn infinite_samples_sort_last() {
        let mut xs = ramp(1000);
        xs[3] = f64::INFINITY;
        assert_eq!(tail(&xs), Some(("p99", 991.0)));
    }

    #[test]
    fn calibration_scales_reps_to_one_slice_and_warmup_is_not_sampled() {
        let tracer = Tracer::new(false);
        let mut calls = Vec::new();
        {
            let mut pair = Pair::new("unit", "spin", |reps, _| {
                calls.push(reps);
                let t = Instant::now();
                while t.elapsed() < Duration::from_micros(50) * reps as u32 {}
                Ok(reps as f64)
            });
            pair.calibrate().unwrap();
            // 50 µs per rep → about 400 reps per 20 ms slice.
            assert!((200..=800).contains(&pair.reps), "{}", pair.reps);
            assert!(pair.rates.is_empty());
            pair.sample(&mut Reference::default(), &tracer, SpanId::NONE, false)
                .unwrap();
            assert_eq!((pair.rates.len(), pair.normalized.len()), (1, 1));
        }
        assert_eq!(&calls[..3], &[1, 4, 16]);
    }

    #[test]
    fn round_robin_interleaves_pairs_and_alternates_traced_rounds() {
        let tracer = Tracer::new(true);
        let order = std::cell::RefCell::new(Vec::new());
        let mut pairs = vec![
            Pair::new("a", "x", |_, _| {
                order.borrow_mut().push('a');
                Ok(1.0)
            }),
            Pair::new("b", "x", |_, _| {
                order.borrow_mut().push('b');
                Ok(1.0)
            }),
        ];
        let tally = round_robin(&mut pairs, Duration::ZERO, &tracer, SpanId::NONE);
        assert_eq!(
            tally,
            Tally {
                attempted: 6,
                failed: 0
            }
        );
        for p in &pairs {
            assert_eq!((p.rates.len(), p.traced.len()), (1, 1));
        }
        // Every slice and every reference measurement has a span.
        assert_eq!(tracer.spans().len(), 8);
        drop(pairs);
        // Calibration first (until a run reaches a quarter slice), then
        // two sampled rounds in pair order.
        let order = order.into_inner();
        assert_eq!(&order[order.len() - 4..], &['a', 'b', 'a', 'b']);
    }

    #[test]
    fn a_failing_pair_is_counted_and_dropped() {
        let tracer = Tracer::new(false);
        let mut n = 0;
        let mut pairs = vec![Pair::new("bad", "x", |_, _| {
            n += 1;
            if n > 1 {
                Err("boom".to_owned())
            } else {
                std::thread::sleep(SLICE);
                Ok(1.0)
            }
        })];
        let tally = round_robin(&mut pairs, Duration::ZERO, &tracer, SpanId::NONE);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
        assert_eq!(pairs[0].error.as_deref(), Some("bad on x: boom"));
    }

    #[test]
    fn setup_reps_stop_at_the_budget_after_the_minimum() {
        let now = Instant::now();
        assert!(another_rep(4, 15, now - SETUP_BUDGET * 2));
        assert!(!another_rep(5, 15, now - SETUP_BUDGET * 2));
        assert!(another_rep(14, 15, now));
        assert!(!another_rep(15, 15, now));
        assert!(!another_rep(3, 3, now));
    }

    #[test]
    fn builds_are_interleaved_and_summarized_per_build() {
        let log = std::cell::RefCell::new(String::new());
        let mut builds: Vec<Build<'_>> = vec![
            Box::new(|| {
                log.borrow_mut().push('a');
                Ok(())
            }),
            Box::new(|| {
                log.borrow_mut().push('b');
                Ok(())
            }),
        ];
        let s = interleaved_builds(3, &mut builds).unwrap();
        drop(builds);
        assert_eq!(log.into_inner(), "ababab");
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|s| s.n == 3 && s.median >= 0.0));
    }
}
