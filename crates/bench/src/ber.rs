//! Bit-error-rate measurement of the DECT transceiver, sharded over
//! bursts.
//!
//! Each burst is an independent simulation run with an explicit
//! per-burst seed (`1000 + burst` for the channel, `0xdec7 + burst` for
//! the fault plan), so the bursts fan across the worker pool of
//! `ocapi::sim::par` and the summed `(errors, bits)` totals are
//! **bit-identical for every thread count** — integer sums merged in
//! burst order. The batched paths additionally run under the
//! [`Robust`] envelope: bounded retry per chunk, and per-burst
//! checkpoint manifests so a killed sweep resumes (`--resume`) to
//! byte-identical totals.
//!
//! A batched call captures the transceiver once, on the calling
//! thread, into one [`CompiledDesign`]: checked against the cached tape
//! (one structural hash check) or compiled. Every worker builds its
//! batches from that design — one per lane count ([`WorkerSims`]),
//! reset between chunks — so workers capture and hash nothing, and each
//! burst's fault plan is sampled from the design's template. A chunk
//! that fails or panics drops the worker's batches, so its retry runs
//! on a fresh build.

use ocapi::sim::par::{map_indexed, ParConfig, ParError};
use ocapi::{
    apply_lane_faults, BatchedSim, CompiledDesign, CompiledTape, CoreError, FaultPlan, FaultySim,
    InterpSim, LaneFault, OptLevel, SigType, Value, WorkerSims,
};
use ocapi_designs::dect::burst::{generate, Burst, BurstConfig};
use ocapi_designs::dect::transceiver::{
    build_system, run_burst, SymbolRecord, TransceiverConfig, CYCLES_PER_SYMBOL,
};
use ocapi_designs::dect::DELAY;

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

/// The workload fingerprint of one sweep point: everything that
/// determines per-burst values — and nothing that only routes work
/// (thread count, lane count), so checkpoints resume across topologies.
fn point_fingerprint(
    stream: &str,
    channel: &[f64],
    noise: f64,
    knob: u64,
    n_bursts: u64,
    payload_len: usize,
) -> u64 {
    let taps: Vec<String> = channel.iter().map(|t| t.to_bits().to_string()).collect();
    fingerprint(&[
        "ber",
        stream,
        &taps.join(";"),
        &noise.to_bits().to_string(),
        &knob.to_string(),
        &n_bursts.to_string(),
        &payload_len.to_string(),
    ])
}

/// Runs `n_bursts` payload bursts (one work item each) and counts
/// payload-bit errors. With `adapt` off the LMS update instruction is
/// removed from the program: a fixed centre-tap receiver, the
/// no-equalizer baseline.
///
/// # Errors
///
/// [`BenchError::Item`]/[`BenchError::Panic`] for the lowest-indexed
/// burst whose run failed (system build, simulation, or a worker
/// panic).
pub fn measure(
    pool: &ParConfig,
    channel: &[f64],
    noise: f64,
    adapt: bool,
    n_bursts: u64,
    payload_len: usize,
) -> Result<BerCount, BenchError> {
    let cfg = TransceiverConfig {
        train: adapt,
        agc: false,
        adapt,
    };
    let bursts: Vec<u64> = (0..n_bursts).collect();
    let parts = map_indexed(pool, &bursts, |_, seed| {
        let burst = generate(&BurstConfig {
            payload_len,
            channel: channel.to_vec(),
            noise,
            seed: 1000 + seed,
        });
        let mut sim = InterpSim::new(build_system(&cfg)?)?;
        let records = run_burst(&mut sim, &burst, None)?;
        let mut out = BerCount::default();
        accumulate(&mut out, &burst, Some(&records));
        Ok::<_, CoreError>(out)
    })
    .map_err(par_err)?;
    sum(parts)
}

/// Same measurement with random transient bit flips injected into the
/// receiver's registers and nets at `rate` faults per clock cycle, one
/// independent fault plan per burst (seeded `0xdec7 + burst`).
///
/// A heavily faulted run may trip a typed error — that is the detection
/// path working — and its burst is counted as fully errored.
///
/// # Errors
///
/// As [`measure`]; faulty-run errors are absorbed into the error count,
/// so only build/stimulus failures surface.
pub fn measure_with_faults(
    pool: &ParConfig,
    channel: &[f64],
    noise: f64,
    rate: f64,
    n_bursts: u64,
    payload_len: usize,
) -> Result<BerCount, BenchError> {
    let cfg = TransceiverConfig {
        train: true,
        agc: false,
        adapt: true,
    };
    let bursts: Vec<u64> = (0..n_bursts).collect();
    let parts = map_indexed(pool, &bursts, |_, seed| {
        let burst = generate(&BurstConfig {
            payload_len,
            channel: channel.to_vec(),
            noise,
            seed: 1000 + seed,
        });
        let sys = build_system(&cfg)?;
        let cycles = (burst.samples.len() * CYCLES_PER_SYMBOL) as u64;
        let plan = FaultPlan::random(&sys, cycles, rate, 0xdec7 + seed);
        let mut sim = FaultySim::new(InterpSim::new(sys)?, plan);
        let mut out = BerCount::default();
        accumulate(
            &mut out,
            &burst,
            run_burst(&mut sim, &burst, None).ok().as_deref(),
        );
        Ok::<_, CoreError>(out)
    })
    .map_err(par_err)?;
    sum(parts)
}

/// Per-burst error accounting, shared by the scalar and batched paths:
/// completed records are compared bit-for-bit against the transmitted
/// payload; a burst that erred out before finishing is counted fully
/// errored (exactly the scalar `Err` branch).
fn accumulate(out: &mut BerCount, burst: &Burst, records: Option<&[SymbolRecord]>) {
    match records {
        Some(records) => {
            for (k, rec) in records.iter().enumerate().skip(burst.payload_start + DELAY) {
                out.bits += 1;
                if burst.bits[k - DELAY] != rec.bit {
                    out.errors += 1;
                }
            }
        }
        None => {
            let n = burst.bits.len().saturating_sub(burst.payload_start + DELAY) as u64;
            out.bits += n;
            out.errors += n;
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
                        .ok_or_else(|| bad_output("err", SigType::Bool))?
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

/// One chunk of the batched measurement: the bursts at `seeds` (global
/// burst indices), one per lane, through one shared tape walk per
/// cycle. `fault_rate` of `None` runs fault-free; `Some(rate)` builds
/// one independent plan per burst, seeded on the global index. The
/// chunk runs on the worker's batch of `design` for its lane count,
/// reset, or on a new one.
#[allow(clippy::too_many_arguments)]
fn batched_chunk(
    sims: &mut WorkerSims,
    design: &CompiledDesign,
    channel: &[f64],
    noise: f64,
    fault_rate: Option<f64>,
    payload_len: usize,
    obs: Option<&ocapi_obs::Registry>,
    seeds: &[usize],
) -> Result<Vec<BerCount>, CoreError> {
    let bursts: Vec<Burst> = seeds
        .iter()
        .map(|seed| {
            generate(&BurstConfig {
                payload_len,
                channel: channel.to_vec(),
                noise,
                seed: 1000 + *seed as u64,
            })
        })
        .collect();
    let sim = sims.get(seeds.len(), design)?;
    // A plan depends only on the design's structure, never on its
    // untimed state, so the batch's own system samples it, and each
    // event is resolved against the batch once.
    let plans: Vec<Vec<LaneFault>> = seeds
        .iter()
        .zip(&bursts)
        .map(|(seed, burst)| match fault_rate {
            Some(rate) => {
                let cycles = (burst.samples.len() * CYCLES_PER_SYMBOL) as u64;
                let plan = FaultPlan::random(sim.system(), cycles, rate, 0xdec7 + *seed as u64);
                plan.events()
                    .iter()
                    .map(|e| LaneFault::resolve(sim, e))
                    .collect()
            }
            None => Vec::new(),
        })
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
        .map(|(burst, records)| {
            let mut out = BerCount::default();
            accumulate(&mut out, burst, records.as_deref());
            out
        })
        .collect())
}

/// The design of one batched call: the transceiver `cfg` captured once
/// and paired with the cached `tape` (one structural hash check) or,
/// without one, compiled at `level`.
fn transceiver(
    cfg: &TransceiverConfig,
    level: OptLevel,
    tape: Option<&CompiledTape>,
) -> Result<CompiledDesign, CoreError> {
    let sys = build_system(cfg)?;
    match tape {
        Some(tape) => CompiledDesign::new(sys, tape),
        None => CompiledDesign::compile(sys, level),
    }
}

/// The two batched measurements over one design: `n_bursts` bursts in
/// chunks of `lanes` under `rb`, checkpointed in `stream` under the
/// workload fingerprint `fp`.
#[allow(clippy::too_many_arguments)]
fn run_batched(
    rb: &Robust,
    stream: &str,
    fp: u64,
    design: &CompiledDesign,
    channel: &[f64],
    noise: f64,
    fault_rate: Option<f64>,
    n_bursts: u64,
    payload_len: usize,
    lanes: usize,
) -> Result<BerCount, BenchError> {
    let parts = rb.run_chunked(
        stream,
        fp,
        n_bursts as usize,
        lanes.max(1),
        BerCount::encode,
        BerCount::decode,
        WorkerSims::default,
        |sims, seeds| {
            batched_chunk(
                sims,
                design,
                channel,
                noise,
                fault_rate,
                payload_len,
                rb.obs,
                seeds,
            )
        },
    )?;
    sum(parts)
}

/// [`measure`] over the lane-batched compiled back-end: bursts are
/// chunked into groups of `lanes` and every chunk is one work item of
/// the `--threads` pool, walking the micro-op tape once per cycle for
/// all of its lanes. Per-burst seeds are unchanged (`1000 + burst`), so
/// the summed totals are bit-identical for every lane count *and*
/// thread count; `lanes = 1` is the scalar compiled path one burst at a
/// time. Under a checkpointing [`Robust`] envelope, per-burst counts
/// land in the `stream` manifest and `--resume` skips completed bursts.
///
/// The call captures the transceiver once and forms one design with a
/// cached `tape` (compiled once from the same transceiver config at the
/// same level — the simulation service's tape cache) or, with `None`,
/// by compiling it at `level`. Totals are bit-identical either way.
///
/// # Errors
///
/// As [`measure`], plus checkpoint manifest I/O and decode errors, and
/// [`CoreError::TapeMismatch`](ocapi::CoreError) via [`BenchError::Core`]
/// when `tape` was compiled from a different design.
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
    let fp = point_fingerprint(stream, channel, noise, adapt as u64, n_bursts, payload_len);
    let design = transceiver(&cfg, level, tape)?;
    run_batched(
        rb,
        stream,
        fp,
        &design,
        channel,
        noise,
        None,
        n_bursts,
        payload_len,
        lanes,
    )
}

/// [`measure_with_faults`] over the lane-batched back-end: one
/// independent fault plan per burst (seeded `0xdec7 + burst`, keyed on
/// the burst's *global* index — never its lane), applied per lane
/// before every shared tape pass. A lane whose faults trip a typed
/// error is masked off and its burst counted fully errored, exactly as
/// the scalar path's `Err` branch, without aborting the chunk. Under a
/// checkpointing [`Robust`] envelope, per-burst counts land in the
/// `stream` manifest and `--resume` skips completed bursts.
///
/// # Errors
///
/// As [`measure_batched`].
#[allow(clippy::too_many_arguments)]
pub fn measure_with_faults_batched(
    rb: &Robust,
    stream: &str,
    channel: &[f64],
    noise: f64,
    rate: f64,
    n_bursts: u64,
    payload_len: usize,
    lanes: usize,
    level: OptLevel,
    tape: Option<&CompiledTape>,
) -> Result<BerCount, BenchError> {
    let cfg = TransceiverConfig {
        train: true,
        agc: false,
        adapt: true,
    };
    let fp = point_fingerprint(
        stream,
        channel,
        noise,
        rate.to_bits(),
        n_bursts,
        payload_len,
    );
    let design = transceiver(&cfg, level, tape)?;
    run_batched(
        rb,
        stream,
        fp,
        &design,
        channel,
        noise,
        Some(rate),
        n_bursts,
        payload_len,
        lanes,
    )
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

    use super::*;
    use ocapi::{ChaosKind, ChaosPlan};

    const CHANNEL: [f64; 3] = [1.0, 0.65, 0.35];

    fn adaptive() -> TransceiverConfig {
        TransceiverConfig {
            train: true,
            agc: false,
            adapt: true,
        }
    }

    fn tape() -> CompiledTape {
        let sys = build_system(&adaptive()).expect("build");
        CompiledTape::compile(&sys, OptLevel::Full).expect("compile")
    }

    /// 19 bursts leave a short last chunk at 3 lanes (one burst) and at
    /// 8 (three), and give every lane count a chunk that reuses a batch.
    #[test]
    fn reused_batches_give_the_scalar_totals_at_every_geometry() {
        let tape = tape();
        let scalar = measure(&ParConfig::single(), &CHANNEL, 0.4, true, 19, 16).expect("scalar");
        // The totals before batches were reused, batched or not.
        assert_eq!((scalar.errors, scalar.bits), (3, 228));
        // Burst 4's plan flips `hold_request`; the batched driver held
        // that lane forever before it drove the input every cycle.
        let faulty = measure_with_faults(&ParConfig::single(), &CHANNEL, 0.2, 0.02, 7, 16)
            .expect("scalar faulty");
        assert_eq!((faulty.errors, faulty.bits), (5, 84));
        for lanes in [1usize, 3, 8] {
            for threads in [1usize, 4] {
                let pool = ParConfig::new(threads);
                let rb = Robust::plain(&pool);
                for tape in [None, Some(&tape)] {
                    let at = format!("lanes={lanes} threads={threads} cached={}", tape.is_some());
                    let c = measure_batched(
                        &rb,
                        "reuse",
                        &CHANNEL,
                        0.4,
                        true,
                        19,
                        16,
                        lanes,
                        OptLevel::Full,
                        tape,
                    )
                    .expect("batched");
                    assert_eq!(c, scalar, "{at}");
                    let f = measure_with_faults_batched(
                        &rb,
                        "reuse_f",
                        &CHANNEL,
                        0.2,
                        0.02,
                        7,
                        16,
                        lanes,
                        OptLevel::Full,
                        tape,
                    )
                    .expect("batched faulty");
                    assert_eq!(f, faulty, "{at}");
                }
            }
        }
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

    /// A chunk whose first attempt panics after it has run — leaving its
    /// batch mid-burst — is retried on a freshly built batch, and the
    /// totals match a clean run.
    #[test]
    fn a_panicked_chunk_is_retried_on_a_fresh_batch() {
        let tape = tape();
        let design = transceiver(&adaptive(), OptLevel::Full, Some(&tape)).expect("design");
        for threads in [1usize, 4] {
            let pool = ParConfig::new(threads);
            let clean = measure_batched(
                &Robust::plain(&pool),
                "clean",
                &CHANNEL,
                0.4,
                true,
                7,
                16,
                3,
                OptLevel::Full,
                Some(&tape),
            )
            .expect("clean");
            // Chunks [0,1,2] [3,4,5] [6]: the second panics once.
            let plan = ChaosPlan::new(vec![(3, 0, ChaosKind::Panic).into()]);
            let states = AtomicUsize::new(0);
            let rb = Robust {
                attempts: 2,
                ..Robust::plain(&pool)
            };
            let parts = rb
                .run_chunked(
                    "chaos",
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
                        let counts =
                            batched_chunk(sims, &design, &CHANNEL, 0.4, None, 16, None, seeds)?;
                        plan.strike(seeds[0])?;
                        Ok(counts)
                    },
                )
                .expect("retried run");
            assert_eq!(sum(parts).expect("sum"), clean, "threads={threads}");
            assert_eq!(plan.attempts(3), 2, "threads={threads}");
            if threads == 1 {
                // One worker: its state is dropped after the panic and
                // rebuilt for [6]; the retry round builds a third.
                assert_eq!(states.into_inner(), 3);
            }
        }
    }
}
