//! Bit-error-rate measurement of the DECT transceiver, sharded over
//! bursts.
//!
//! Each burst is an independent simulation run with an explicit
//! per-burst seed (`1000 + burst` for the channel, `0xdec7 + burst` for
//! the fault plan), so the bursts fan across the worker pool of
//! `ocapi::sim::par` and the summed `(errors, bits)` totals are
//! **bit-identical for every thread count** — integer sums merged in
//! burst order.
//!
//! Two calls measure one [`BerPoint`], in the shape of the fault
//! campaigns (`run_campaign_par`, `run_campaign_batched`):
//!
//! * [`measure_reference`] runs every burst on its own interpreter of
//!   the receiver a [`TransceiverConfig`] builds — the reference.
//! * [`measure_lanes`] runs the bursts over one [`CompiledDesign`], a
//!   chunk of lanes at a time, under the [`Robust`] envelope: per-burst
//!   checkpoint manifests so a killed sweep resumes (`--resume`) to
//!   byte-identical totals. It captures and hashes nothing: every
//!   worker builds its batches from the design — one per lane count
//!   ([`WorkerSims`]), reset between chunks — and each burst's fault
//!   plan is sampled from the design's template. A chunk that fails or
//!   panics drops the worker's batches, so its next chunk runs on a
//!   fresh build.
//!
//! [`measure_batched`] remains only as the repository benchmark's
//! pinned entry point: it forms a design and calls [`measure_lanes`].

use ocapi::sim::hash::Fnv;
use ocapi::sim::par::{map_indexed, ParConfig, ParError};
use ocapi::{
    apply_lane_faults, BatchedSim, CompiledDesign, CompiledTape, CoreError, FaultPlan, FaultySim,
    InterpSim, LaneFault, OptLevel, SigType, System, Value, WorkerSims,
};
use ocapi_designs::dect::burst::{generate, Burst, BurstConfig};
use ocapi_designs::dect::transceiver::{
    build_system, run_burst, SymbolRecord, TransceiverConfig, CYCLES_PER_SYMBOL,
};
use ocapi_designs::dect::{err_fmt, DELAY};

use crate::checkpoint::{fingerprint, Robust};
use crate::error::BenchError;

/// Accumulated payload-bit errors over a set of bursts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BerCount {
    /// Payload bits in error.
    pub errors: u64,
    /// Payload bits compared.
    pub bits: u64,
}

impl BerCount {
    /// The bit-error rate (0 when no bits were compared).
    pub fn rate(&self) -> f64 {
        if self.bits == 0 {
            0.0
        } else {
            self.errors as f64 / self.bits as f64
        }
    }

    /// Checkpoint payload: `errors,bits`. Round-trips exactly, so a
    /// resumed sweep's totals are bit-identical.
    pub fn encode(&self) -> String {
        format!("{},{}", self.errors, self.bits)
    }

    /// Parses [`BerCount::encode`]'s payload; `None` for anything else,
    /// including more errors than bits.
    pub fn decode(s: &str) -> Option<BerCount> {
        let (e, b) = s.split_once(',')?;
        let count = BerCount {
            errors: e.parse().ok()?,
            bits: b.parse().ok()?,
        };
        (count.errors <= count.bits).then_some(count)
    }
}

/// One point of a BER curve.
#[derive(Debug, Clone, Copy)]
pub struct BerPoint<'a> {
    /// The multipath channel's impulse response (tap 0 first).
    pub channel: &'a [f64],
    /// Peak amplitude of the additive noise.
    pub noise: f64,
    /// Bursts measured, one work item each.
    pub bursts: u64,
    /// Payload bits per burst.
    pub payload_len: usize,
    /// Random transient bit flips injected into the receiver's
    /// registers and nets, in faults per clock cycle, one independent
    /// plan per burst; `None` runs fault-free.
    pub fault_rate: Option<f64>,
}

impl BerPoint<'_> {
    /// Burst `seed` (a global burst index) of this point.
    fn burst(&self, seed: u64) -> Burst {
        generate(&BurstConfig {
            payload_len: self.payload_len,
            channel: self.channel.to_vec(),
            noise: self.noise,
            seed: 1000 + seed,
        })
    }

    /// The fault plan of burst `seed` over `sys`, or `None` fault-free.
    fn plan(&self, sys: &System, burst: &Burst, seed: u64) -> Option<FaultPlan> {
        let cycles = (burst.samples.len() * CYCLES_PER_SYMBOL) as u64;
        self.fault_rate
            .map(|rate| FaultPlan::random(sys, cycles, rate, 0xdec7 + seed))
    }
}

/// The total of per-burst counts. A burst compares a few hundred bits,
/// so only counts read back from a damaged manifest can overflow it.
fn sum(parts: Vec<BerCount>) -> Result<BerCount, BenchError> {
    parts
        .into_iter()
        .try_fold(BerCount::default(), |a, b| {
            Some(BerCount {
                errors: a.errors.checked_add(b.errors)?,
                bits: a.bits.checked_add(b.bits)?,
            })
        })
        .ok_or_else(|| BenchError::Checkpoint("resumed bit counts overflow".into()))
}

fn par_err(e: ParError<CoreError>) -> BenchError {
    match e {
        ParError::Task { index, error } => BenchError::Item { index, error },
        ParError::Panic { index } => BenchError::Panic { index },
    }
}

/// The checkpoint fingerprint of `point` over `design` in `stream`:
/// what fixes every burst's count — the design's structure
/// ([`CompiledTape::system_hash`]), its memories' power-up contents and
/// the point — and nothing that only routes work (threads, lanes) or
/// picks the tape (its optimization level). A manifest therefore
/// resumes across topologies and levels, and never into another
/// receiver (the adaptive and the fixed one differ only in ROM
/// contents) or another fault rate.
fn point_fingerprint(stream: &str, design: &CompiledDesign, point: &BerPoint<'_>) -> u64 {
    let mut memories = Fnv::new();
    for u in &design.system().untimed {
        if let Some(spec) = u.block.memory_spec() {
            memories.write(&(spec.contents.len() as u64).to_le_bytes());
            for word in spec.contents.iter() {
                memories.write(&word.to_raw().to_le_bytes());
            }
        }
    }
    let taps: Vec<String> = point
        .channel
        .iter()
        .map(|t| t.to_bits().to_string())
        .collect();
    let rate = point
        .fault_rate
        .map_or_else(|| "none".to_owned(), |r| r.to_bits().to_string());
    fingerprint(&[
        "ber",
        stream,
        &format!("{:016x}", design.tape().system_hash()),
        &format!("{:016x}", memories.finish()),
        &taps.join(";"),
        &point.noise.to_bits().to_string(),
        &rate,
        &point.bursts.to_string(),
        &point.payload_len.to_string(),
    ])
}

/// The interpreter reference: every burst of `point` runs on its own
/// [`InterpSim`] of the receiver `cfg` builds (under a [`FaultySim`]
/// with the burst's plan when `point.fault_rate` is set), one work item
/// of `pool` each. A faulty run that trips a typed error — the
/// detection path working — counts its burst fully errored.
///
/// # Errors
///
/// [`BenchError::Item`]/[`BenchError::Panic`] for the lowest-indexed
/// burst whose build or fault-free run failed, or whose worker panicked.
pub fn measure_reference(
    pool: &ParConfig,
    cfg: &TransceiverConfig,
    point: &BerPoint<'_>,
) -> Result<BerCount, BenchError> {
    let bursts: Vec<u64> = (0..point.bursts).collect();
    let parts = map_indexed(pool, &bursts, |_, seed| {
        let burst = point.burst(*seed);
        let sys = build_system(cfg)?;
        let records = match point.plan(&sys, &burst, *seed) {
            None => Some(run_burst(&mut InterpSim::new(sys)?, &burst, None)?),
            Some(plan) => {
                let mut sim = FaultySim::new(InterpSim::new(sys)?, plan);
                run_burst(&mut sim, &burst, None).ok()
            }
        };
        Ok::<_, CoreError>(count(&burst, records.as_deref()))
    })
    .map_err(par_err)?;
    sum(parts)
}

/// The lane driver: the bursts of `point` over `design`, `lanes` bursts
/// a chunk, each chunk one work item of `rb`'s pool that walks the tape
/// once per cycle for all of its lanes. Seeds and fault plans key on the
/// global burst index, never the lane or thread, so the totals equal
/// [`measure_reference`]'s for the receiver `design` was captured from,
/// bit for bit, at every lane and thread count; `lanes = 1` runs the
/// compiled tape one burst at a time. A lane whose faults trip a typed
/// error is masked off and its burst counted fully errored, without
/// aborting the chunk. Under a checkpointing [`Robust`], per-burst
/// counts land in the `stream` manifest, fingerprinted on the design's
/// structure and memory contents and on `point`, and `--resume` skips
/// completed bursts.
///
/// # Errors
///
/// As [`measure_reference`], per chunk; plus checkpoint manifest I/O
/// and decode errors, and [`BenchError::Checkpoint`] for a manifest of
/// another design or point.
pub fn measure_lanes(
    rb: &Robust<'_>,
    stream: &str,
    design: &CompiledDesign,
    point: &BerPoint<'_>,
    lanes: usize,
) -> Result<BerCount, BenchError> {
    // The fingerprint only names a manifest.
    let fp = rb
        .dir
        .map_or(0, |_| point_fingerprint(stream, design, point));
    let parts = rb.run_chunked(
        stream,
        fp,
        point.bursts as usize,
        lanes.max(1),
        BerCount::encode,
        BerCount::decode,
        WorkerSims::default,
        |sims, seeds| batched_chunk(sims, design, point, rb.obs, seeds),
    )?;
    sum(parts)
}

/// The repository benchmark's pinned entry point, kept only until the
/// benchmark calls [`measure_lanes`]: captures the receiver `adapt`
/// selects (trained and adaptive, or the fixed centre-tap baseline),
/// pairs it with `tape` (one structural hash check) or, without one,
/// compiles it at `level`, and measures the fault-free point over that
/// design.
///
/// # Errors
///
/// As [`measure_lanes`], plus the capture's errors and
/// [`CoreError::TapeMismatch`] via [`BenchError::Core`] when `tape` was
/// compiled from another structure.
#[allow(clippy::too_many_arguments)]
pub fn measure_batched(
    rb: &Robust,
    stream: &str,
    channel: &[f64],
    noise: f64,
    adapt: bool,
    n_bursts: u64,
    payload_len: usize,
    lanes: usize,
    level: OptLevel,
    tape: Option<&CompiledTape>,
) -> Result<BerCount, BenchError> {
    let cfg = TransceiverConfig {
        train: adapt,
        agc: false,
        adapt,
    };
    let design = CompiledDesign::new(build_system(&cfg)?, level, |_| tape.cloned())?;
    let point = BerPoint {
        channel,
        noise,
        bursts: n_bursts,
        payload_len,
        fault_rate: None,
    };
    measure_lanes(rb, stream, &design, &point, lanes)
}

/// One burst's count, the same on every path: completed records are
/// compared bit for bit with the transmitted payload; a burst that
/// erred out before finishing counts fully errored.
fn count(burst: &Burst, records: Option<&[SymbolRecord]>) -> BerCount {
    match records {
        Some(records) => {
            let mut out = BerCount::default();
            for (k, rec) in records.iter().enumerate().skip(burst.payload_start + DELAY) {
                out.bits += 1;
                if burst.bits[k - DELAY] != rec.bit {
                    out.errors += 1;
                }
            }
            out
        }
        None => {
            let n = burst.bits.len().saturating_sub(burst.payload_start + DELAY) as u64;
            BerCount { errors: n, bits: n }
        }
    }
}

/// An output of a type the driver did not expect — a driver bug, not a
/// workload condition.
fn bad_output(name: &str, expected: SigType) -> CoreError {
    CoreError::ValueType {
        context: format!("batched BER driver output `{name}`"),
        expected,
    }
}

/// Per-lane burst progress for the batched driver.
struct LaneDrive {
    sample_idx: usize,
    done: usize,
    records: Vec<SymbolRecord>,
    finished: bool,
}

/// Drives one burst per lane through a batched transceiver, mirroring
/// [`run_burst`] (with `hold: None`) lane-for-lane: every live,
/// unfinished lane gets its own `sample` stream and fault plan, symbols
/// advance per lane on `holding == false`, and a lane whose fault
/// application fails is masked off and reported as `None` (counted
/// fully errored by the caller) while its chunk-mates keep running.
///
/// Because a lane steps once per batch step until it finishes — exactly
/// the cycles the scalar driver would run — fault-plan cycle numbers
/// line up with the scalar path and the per-burst records are
/// bit-identical for every lane count.
fn run_bursts_batched(
    sim: &mut BatchedSim,
    bursts: &[Burst],
    plans: &[Vec<LaneFault>],
) -> Result<Vec<Option<Vec<SymbolRecord>>>, CoreError> {
    use ocapi::Simulator as _;
    let mut st: Vec<LaneDrive> = bursts
        .iter()
        .map(|b| LaneDrive {
            sample_idx: 0,
            done: 0,
            records: Vec::with_capacity(b.samples.len()),
            finished: false,
        })
        .collect();
    loop {
        let mut any = false;
        for (l, s) in st.iter().enumerate() {
            if s.finished || !sim.alive(l) {
                continue;
            }
            any = true;
            sim.set_input_lane(l, "sample", Value::Fixed(bursts[l].samples[s.sample_idx]))?;
        }
        if !any {
            break;
        }
        // Driven every cycle, as `run_burst` drives it: a fault that
        // flips the input lasts one cycle, not the rest of the burst.
        sim.set_input("hold_request", Value::Bool(false))?;
        for (l, faults) in plans.iter().enumerate() {
            if !st[l].finished {
                apply_lane_faults(sim, l, faults);
            }
        }
        if sim.step().is_err() {
            // Every lane is masked; per-lane outcomes are settled below.
            break;
        }
        for (l, s) in st.iter_mut().enumerate() {
            if s.finished || !sim.alive(l) {
                continue;
            }
            // Held cycles issue nops and do not advance the symbol.
            if sim.output_lane(l, "holding")? == Value::Bool(false) {
                s.done += 1;
            }
            if s.done == CYCLES_PER_SYMBOL {
                s.done = 0;
                s.records.push(SymbolRecord {
                    bit: sim
                        .output_lane(l, "bit")?
                        .as_bool()
                        .ok_or_else(|| bad_output("bit", SigType::Bool))?,
                    err: sim
                        .output_lane(l, "err")?
                        .as_fixed()
                        .ok_or_else(|| bad_output("err", SigType::Fixed(err_fmt())))?
                        .to_f64(),
                    detect: sim
                        .output_lane(l, "detect")?
                        .as_bool()
                        .ok_or_else(|| bad_output("detect", SigType::Bool))?,
                });
                s.sample_idx += 1;
                if s.sample_idx == bursts[l].samples.len() {
                    s.finished = true;
                }
            }
        }
    }
    Ok(st
        .into_iter()
        .map(|s| s.finished.then_some(s.records))
        .collect())
}

/// One chunk of the lane driver: the bursts at `seeds` (global burst
/// indices), one per lane, on the worker's batch of `design` for the
/// chunk's lane count, reset, or on a new one.
fn batched_chunk(
    sims: &mut WorkerSims,
    design: &CompiledDesign,
    point: &BerPoint<'_>,
    obs: Option<&ocapi_obs::Registry>,
    seeds: &[usize],
) -> Result<Vec<BerCount>, CoreError> {
    let bursts: Vec<Burst> = seeds.iter().map(|seed| point.burst(*seed as u64)).collect();
    let sim = sims.get(seeds.len(), design)?;
    // A plan depends only on the design's structure, never on its
    // untimed state, so the batch's own system samples it, and each
    // event is resolved against the batch once.
    let plans: Vec<Vec<LaneFault>> = seeds
        .iter()
        .zip(&bursts)
        .map(
            |(seed, burst)| match point.plan(sim.system(), burst, *seed as u64) {
                Some(plan) => plan
                    .events()
                    .iter()
                    .map(|e| LaneFault::resolve(sim, e))
                    .collect(),
                None => Vec::new(),
            },
        )
        .collect();
    // Attached per chunk, so the deterministic `batch.lanes` total
    // counts chunks' lanes, not workers'.
    if let Some(reg) = obs {
        sim.attach_obs(reg);
    }
    let outcomes = run_bursts_batched(sim, &bursts, &plans)?;
    Ok(bursts
        .iter()
        .zip(&outcomes)
        .map(|(burst, records)| count(burst, records.as_deref()))
        .collect())
}

/// Formats a BER for the tables: `<1/bits` when no errors were seen.
pub fn fmt_ber(c: BerCount) -> String {
    if c.errors == 0 {
        format!("<{:.1e}", 1.0 / c.bits as f64)
    } else {
        format!("{:.2e}", c.rate())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    use super::*;

    const CHANNEL: [f64; 3] = [1.0, 0.65, 0.35];

    fn receiver(adapt: bool) -> TransceiverConfig {
        TransceiverConfig {
            train: adapt,
            agc: false,
            adapt,
        }
    }

    fn design(adapt: bool) -> CompiledDesign {
        let sys = build_system(&receiver(adapt)).expect("build");
        CompiledDesign::new(sys, OptLevel::Full, |_| None).expect("compile")
    }

    fn point(noise: f64, bursts: u64, fault_rate: Option<f64>) -> BerPoint<'static> {
        BerPoint {
            channel: &CHANNEL,
            noise,
            bursts,
            payload_len: 16,
            fault_rate,
        }
    }

    /// The lane driver over each receiver's design equals the
    /// interpreter reference of that receiver, fault-free and faulty, at
    /// every geometry. 19 bursts leave a short last chunk at 3 lanes
    /// (one burst) and at 8 (three), and give every lane count a chunk
    /// that reuses a batch.
    #[test]
    fn reused_batches_give_the_scalar_totals_at_every_geometry() {
        let single = ParConfig::single();
        // Burst 4's plan flips `hold_request`; the batched driver held
        // that lane forever before it drove the input every cycle.
        let points = [point(0.4, 19, None), point(0.2, 7, Some(0.02))];
        for adapt in [true, false] {
            let design = design(adapt);
            let reference: Vec<BerCount> = points
                .iter()
                .map(|p| measure_reference(&single, &receiver(adapt), p).expect("reference"))
                .collect();
            if adapt {
                // The totals before batches were reused, batched or not.
                assert_eq!((reference[0].errors, reference[0].bits), (3, 228));
                assert_eq!((reference[1].errors, reference[1].bits), (5, 84));
            }
            for lanes in [1usize, 3, 8] {
                for threads in [1usize, 4] {
                    let pool = ParConfig::new(threads);
                    let rb = Robust::plain(&pool);
                    for (p, want) in points.iter().zip(&reference) {
                        let got = measure_lanes(&rb, "reuse", &design, p, lanes).expect("lanes");
                        assert_eq!(
                            got, *want,
                            "adapt={adapt} lanes={lanes} threads={threads} faults={:?}",
                            p.fault_rate
                        );
                    }
                }
            }
            // The benchmark's wrapper, with the design's tape or without.
            let rb = Robust::plain(&single);
            for tape in [None, Some(design.tape())] {
                let got = measure_batched(
                    &rb,
                    "wrapper",
                    &CHANNEL,
                    0.4,
                    adapt,
                    19,
                    16,
                    3,
                    OptLevel::None,
                    tape,
                )
                .expect("wrapper");
                assert_eq!(got, reference[0], "adapt={adapt} cached={}", tape.is_some());
            }
        }
    }

    /// A manifest names the design's structure and memory contents and
    /// the point: under one stream name it resumes across lanes, threads
    /// and optimization levels, and is refused for the other receiver
    /// (one structure, other ROMs) and for another fault rate.
    #[test]
    fn a_manifest_resumes_only_its_own_receiver_and_point() {
        let dir = std::env::temp_dir().join(format!("ocapi-ber-keyed-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir = dir.to_string_lossy().into_owned();
        let (one, four) = (ParConfig::single(), ParConfig::new(4));
        let rb = |pool, resume| Robust {
            dir: Some(&dir),
            resume,
            ..Robust::plain(pool)
        };
        let (adaptive, fixed) = (design(true), design(false));
        let clean = point(0.3, 2, None);
        let want = measure_lanes(&rb(&one, false), "s", &adaptive, &clean, 1).expect("write");
        let other_level = CompiledDesign::new(
            build_system(&receiver(true)).expect("build"),
            OptLevel::None,
            |_| None,
        )
        .expect("compile");
        let got = measure_lanes(&rb(&four, true), "s", &other_level, &clean, 2).expect("resume");
        assert_eq!(got, want);
        for (design, p) in [
            (&fixed, clean),
            (&adaptive, point(0.3, 2, Some(0.0))),
            (&adaptive, point(0.3, 2, Some(0.01))),
        ] {
            let err = measure_lanes(&rb(&one, true), "s", design, &p, 1).unwrap_err();
            assert!(
                matches!(err, BenchError::Checkpoint(_)),
                "faults {:?}: {err}",
                p.fault_rate
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checkpointed count with more errors than bits, or counts whose
    /// total overflows, can only come from a damaged manifest: the
    /// resume fails with a typed error instead of reporting a BER
    /// above 1 or panicking.
    #[test]
    fn impossible_resumed_counts_are_a_damaged_manifest() {
        assert_eq!(
            BerCount::decode("3,7"),
            Some(BerCount { errors: 3, bits: 7 })
        );
        assert_eq!(BerCount::decode("7,3"), None);
        let dir = std::env::temp_dir().join(format!("ocapi-ber-damaged-{}", std::process::id()));
        let dir = dir.to_string_lossy().into_owned();
        let pool = ParConfig::single();
        let rb = Robust {
            dir: Some(&dir),
            resume: true,
            ..Robust::plain(&pool)
        };
        let max = u64::MAX;
        for damaged in [["1,12", "7,3"], ["1,12", &format!("0,{max}")[..]]] {
            let mut st = crate::checkpoint::CheckpointStream::open(&dir, "s", 5, false).unwrap();
            for (i, payload) in damaged.iter().enumerate() {
                st.record(i, (*payload).to_owned());
            }
            st.flush().unwrap();
            let parts = rb.run_chunked(
                "s",
                5,
                2,
                1,
                BerCount::encode,
                BerCount::decode,
                || (),
                |_, _| Err(CoreError::WorkerPanic { index: 0 }),
            );
            let err = parts.and_then(sum).unwrap_err();
            assert!(
                matches!(err, BenchError::Checkpoint(_)),
                "{damaged:?}: {err}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A chunk that panics after it has run — leaving its batch
    /// mid-burst — fails the run at its first item, and its worker drops
    /// that batch: the worker's next chunk runs on a freshly built one
    /// and counts exactly as in a clean run.
    #[test]
    fn a_panicked_chunk_fails_at_its_first_item_and_the_next_gets_a_fresh_batch() {
        let design = design(true);
        let p = point(0.4, 7, None);
        for threads in [1usize, 4] {
            let pool = ParConfig::new(threads);
            // Chunks [0,1,2] [3,4,5] [6]; `panic_at` names the chunk
            // that panics once it has run.
            let run = |panic_at: Option<usize>| {
                let states = AtomicUsize::new(0);
                let seen = Mutex::new(Vec::new());
                let parts = Robust::plain(&pool).run_chunked(
                    "s",
                    0,
                    7,
                    3,
                    BerCount::encode,
                    BerCount::decode,
                    || {
                        states.fetch_add(1, Ordering::Relaxed);
                        WorkerSims::default()
                    },
                    |sims, seeds| {
                        let counts = batched_chunk(sims, &design, &p, None, seeds)?;
                        if panic_at == Some(seeds[0]) {
                            panic!("chunk {} panicked after running", seeds[0]);
                        }
                        let mut seen = seen.lock().unwrap();
                        seen.extend(seeds.iter().copied().zip(counts.iter().copied()));
                        Ok(counts)
                    },
                );
                let mut seen = seen.into_inner().unwrap();
                seen.sort_by_key(|(i, _)| *i);
                (parts, states.into_inner(), seen)
            };
            let (clean, _, _) = run(None);
            let clean = clean.expect("clean run");
            let (parts, states, seen) = run(Some(3));
            assert!(
                matches!(parts, Err(BenchError::Panic { index: 3 })),
                "threads={threads}: {parts:?}"
            );
            assert_eq!(
                seen.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
                [0, 1, 2, 6],
                "threads={threads}"
            );
            for (i, counts) in &seen {
                assert_eq!(*counts, clean[*i], "threads={threads}: item {i}");
            }
            if threads == 1 {
                // One worker: its state is dropped after the panic and
                // rebuilt for [6].
                assert_eq!(states, 2);
            }
        }
    }
}
