//! The job executor: dispatches cached designs into the existing
//! campaign, BER and warm-session machinery.
//!
//! Every op handler follows the same shape: parse the request into
//! typed parameters (failures become `error` frames naming the field),
//! fetch the compiled design from the cache, run the job through the
//! `ocapi`/`ocapi-bench` drivers, and stream response frames. The
//! deterministic frames are pure functions of the request — per-item
//! seeds come from [`XorShift64::stream`] keyed on global indices, the
//! worker pool is per-job, and no job reports into a registry another
//! job could share.
//!
//! A cache hit captures and hashes nothing: BER jobs, campaigns and
//! sessions run on the variant's cached template
//! ([`ocapi::CompiledDesign`]), and the drivers build one simulator per
//! worker from it and reset it between chunks.

use std::fmt::Write as _;
use std::io::Write;

use ocapi::rng::XorShift64;
use ocapi::sim::hash::Fnv;
use ocapi::sim::par::ParConfig;
use ocapi::{
    run_campaign_batched, CompiledSim, CoreError, FaultEvent, FaultPlan, FaultSite, Fix, OptLevel,
    Overflow, Rounding, SigType, SimSnapshot, Simulator, System, Value,
};
use ocapi_bench::ber::{measure_lanes, BerPoint};
use ocapi_bench::Robust;
use ocapi_obs::json::{obj, Json};

use crate::designs::Design;
use crate::error::ServeError;
use crate::proto::send;
use crate::server::{ParkedSession, ServerState, SessionLookup};

/// Typed field access: a missing or mistyped field is a parse error
/// naming the field, not a silent default.
fn need_str<'a>(req: &'a Json, key: &str) -> Result<&'a str, ServeError> {
    req.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::Parse(format!("missing or non-string field `{key}`")))
}

fn opt_u64(req: &Json, key: &str, default: u64) -> Result<u64, ServeError> {
    match req.get(key) {
        None => Ok(default),
        Some(v) => v.as_u64().ok_or_else(|| {
            ServeError::Parse(format!("field `{key}` must be a non-negative integer"))
        }),
    }
}

/// Upper bounds on the request fields that size a job's allocations
/// (event list, golden output rows, burst list, payload buffers, channel
/// copies, lane batch), its length (noise points, session cycles) and
/// its worker threads. Far above every in-tree client, low enough that
/// one request cannot exhaust the daemon's memory or threads, or hold a
/// connection for hours.
const MAX_EVENTS: u64 = 1 << 16;
const MAX_CYCLES: u64 = 1 << 16;
const MAX_SESSION_CYCLES: u64 = 1 << 20;
const MAX_BURSTS: u64 = 1 << 16;
const MAX_PAYLOAD_LEN: u64 = 1 << 12;
const MAX_TAPS: usize = 64;
const MAX_POINTS: usize = 256;
const MAX_LANES: u64 = 256;
const MAX_THREADS: u64 = 64;

/// [`opt_u64`] that rejects values above `cap` with a parse error
/// naming the field and the cap.
fn capped_u64(req: &Json, key: &str, default: u64, cap: u64) -> Result<u64, ServeError> {
    let v = opt_u64(req, key, default)?;
    if v > cap {
        return Err(ServeError::Parse(format!(
            "field `{key}` is {v}, above the cap of {cap}"
        )));
    }
    Ok(v)
}

fn opt_bool(req: &Json, key: &str, default: bool) -> Result<bool, ServeError> {
    match req.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| ServeError::Parse(format!("field `{key}` must be a boolean"))),
    }
}

/// An array of numbers, refused with a parse error naming the field and
/// the cap when it holds more than `cap`.
fn capped_f64_arr(
    req: &Json,
    key: &str,
    default: &[f64],
    cap: usize,
) -> Result<Vec<f64>, ServeError> {
    let items = match req.get(key) {
        None => return Ok(default.to_vec()),
        Some(v) => v.as_arr().ok_or_else(|| {
            ServeError::Parse(format!("field `{key}` must be an array of numbers"))
        })?,
    };
    if items.len() > cap {
        return Err(ServeError::Parse(format!(
            "field `{key}` has {} numbers, above the cap of {cap}",
            items.len()
        )));
    }
    items
        .iter()
        .map(Json::as_f64)
        .collect::<Option<Vec<f64>>>()
        .ok_or_else(|| ServeError::Parse(format!("field `{key}` must be an array of numbers")))
}

fn opt_level(req: &Json) -> Result<OptLevel, ServeError> {
    match opt_u64(req, "opt", 2)? {
        0 => Ok(OptLevel::None),
        1 => Ok(OptLevel::Basic),
        2 => Ok(OptLevel::Full),
        n => Err(ServeError::Parse(format!(
            "field `opt` must be 0..=2, got {n}"
        ))),
    }
}

/// The engine name a warm session asks for: `compiled` (default) or
/// `fused`, echoed back by `session.open`. Both run the compiled tape;
/// `fused` names the retired threaded-code engine and stays accepted so
/// existing clients keep working. A parked snapshot is the design's
/// architectural state, which any engine restores, so the choice never
/// reaches it; sessions run on `CompiledSim`.
fn engine_of(req: &Json) -> Result<&'static str, ServeError> {
    match req.get("engine") {
        None => Ok("compiled"),
        Some(v) => match v
            .as_str()
            .ok_or_else(|| ServeError::Parse("field `engine` must be a string".into()))?
        {
            "compiled" => Ok("compiled"),
            "fused" => Ok("fused"),
            s => Err(ServeError::Parse(format!(
                "field `engine` must be `compiled` or `fused`, got `{s}`"
            ))),
        },
    }
}

/// Rejects an `engine` selection on jobs that always run the batched
/// compiled path (BER sweeps, fault campaigns drive [`ocapi`'s] lane
/// machinery, not a scalar engine).
fn reject_engine(req: &Json, job: &str) -> Result<(), ServeError> {
    match req.get("engine") {
        None => Ok(()),
        Some(_) => Err(ServeError::Parse(format!(
            "`{job}` has no `engine` option: it runs the lane-batched compiled path; \
             use `session.open` for engine selection"
        ))),
    }
}

fn design_of(req: &Json, default: Design) -> Result<Design, ServeError> {
    match req.get("design") {
        None => Ok(default),
        Some(v) => Design::parse(
            v.as_str()
                .ok_or_else(|| ServeError::Parse("field `design` must be a string".into()))?,
        ),
    }
}

/// The request id, echoed into every response frame. Client-chosen so
/// that identical requests produce byte-identical deterministic frames
/// regardless of what else the server is doing.
pub fn request_id(req: &Json) -> Result<&str, ServeError> {
    need_str(req, "id")
}

fn chunk(id: &str, fields: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![
        ("id".to_owned(), Json::Str(id.to_owned())),
        ("type".to_owned(), Json::Str("chunk".to_owned())),
    ];
    pairs.extend(fields);
    Json::Obj(pairs)
}

fn done(id: &str, results: Json) -> Json {
    obj([
        ("id", Json::Str(id.to_owned())),
        ("type", Json::Str("done".to_owned())),
        ("results", results),
    ])
}

/// The advisory perf frame of a finished job: wall seconds plus the
/// server-lifetime cache counters at completion.
fn perf_frame(id: &str, state: &ServerState, wall_secs: f64) -> Json {
    let (hits, misses, evictions) = state.cache.stats();
    obj([
        ("id", Json::Str(id.to_owned())),
        ("type", Json::Str("perf".to_owned())),
        ("wall_secs", Json::Num(wall_secs)),
        ("cache_hits", Json::Num(hits as f64)),
        ("cache_misses", Json::Num(misses as f64)),
        ("cache_evictions", Json::Num(evictions as f64)),
    ])
}

/// Drives every primary input of `sim` with a deterministic value for
/// `cycle`: one independent seed stream per (base seed, input index),
/// values shaped by the input's type. A pure function of
/// `(seed, input list, cycle)` — the stimulus side of the
/// deterministic-session contract.
fn drive_inputs(
    sim: &mut dyn Simulator,
    inputs: &[(String, SigType)],
    seed: u64,
    cycle: u64,
) -> Result<(), CoreError> {
    for (j, (name, ty)) in inputs.iter().enumerate() {
        let base = seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(j as u64 + 1);
        let mut r = XorShift64::stream(base, cycle);
        let v = match ty {
            SigType::Bool => Value::Bool(r.next_bool()),
            SigType::Bits(w) => {
                let mask = if *w >= 64 { u64::MAX } else { (1u64 << w) - 1 };
                Value::bits(*w, r.next_u64() & mask)
            }
            SigType::Fixed(fmt) => Value::Fixed(Fix::from_f64(
                r.next_f64() * 2.0 - 1.0,
                *fmt,
                Rounding::Nearest,
                Overflow::Saturate,
            )),
            SigType::Float => Value::Float(r.next_f64() * 2.0 - 1.0),
        };
        sim.set_input(name, v)?;
    }
    Ok(())
}

fn input_decls(sys: &System) -> Vec<(String, SigType)> {
    sys.primary_inputs
        .iter()
        .map(|i| (i.name.clone(), i.ty))
        .collect()
}

fn output_names(sys: &System) -> Vec<String> {
    sys.primary_outputs.iter().map(|o| o.name.clone()).collect()
}

/// A BER job: the lane driver over the cached design of the receiver
/// variant (`dect` or `dect_fixed`, each template holding its own ROMs),
/// one sweep point per `chunk` frame, per-burst checkpointing namespaced
/// by the request id when `checkpoint` is set. No point captures or
/// hashes a system.
pub fn run_ber(state: &ServerState, req: &Json, out: &mut impl Write) -> Result<(), ServeError> {
    let id = request_id(req)?;
    reject_engine(req, "ber")?;
    let design = design_of(req, Design::Dect)?;
    if design == Design::Hcor {
        return Err(ServeError::Parse(
            "op `ber` needs a transceiver design (dect or dect_fixed)".into(),
        ));
    }
    let channel = capped_f64_arr(req, "channel", &[1.0, 0.45], MAX_TAPS)?;
    let noise = capped_f64_arr(req, "noise", &[0.05], MAX_POINTS)?;
    let bursts = capped_u64(req, "bursts", 4, MAX_BURSTS)?.max(1);
    let payload_len = capped_u64(req, "payload_len", 64, MAX_PAYLOAD_LEN)?.max(16) as usize;
    let lanes = capped_u64(req, "lanes", 1, MAX_LANES)?.max(1) as usize;
    let threads = capped_u64(req, "threads", 1, MAX_THREADS)?.max(1) as usize;
    let level = opt_level(req)?;
    let use_checkpoint = opt_bool(req, "checkpoint", false)?;
    let resume = opt_bool(req, "resume", false)?;
    let ckpt_dir =
        match (use_checkpoint, state.checkpoint_root.as_deref()) {
            (false, _) => None,
            (true, Some(root)) => Some(root),
            (true, None) => return Err(ServeError::Parse(
                "request asked for checkpointing but the daemon was started without --checkpoint"
                    .into(),
            )),
        };

    let sw = ocapi_obs::Stopwatch::start();
    let compiled = state.cache.design(design, level)?;
    let pool = ParConfig::new(threads);
    let rb = Robust {
        pool: &pool,
        every: opt_u64(req, "checkpoint_every", 4)?.max(1),
        dir: ckpt_dir,
        job: None,
        resume,
        obs: None,
    }
    .for_job(id);

    let mut tot_errors = 0u64;
    let mut tot_bits = 0u64;
    for (i, &noise_pt) in noise.iter().enumerate() {
        let point = BerPoint {
            channel: &channel,
            noise: noise_pt,
            bursts,
            payload_len,
            fault_rate: None,
        };
        let c = measure_lanes(&rb, &format!("pt{i}"), &compiled, &point, lanes)?;
        tot_errors += c.errors;
        tot_bits += c.bits;
        send(
            out,
            &chunk(
                id,
                vec![
                    ("point".to_owned(), Json::Num(i as f64)),
                    ("noise".to_owned(), Json::Num(noise_pt)),
                    ("errors".to_owned(), Json::Num(c.errors as f64)),
                    ("bits".to_owned(), Json::Num(c.bits as f64)),
                ],
            ),
        )?;
    }
    send(out, &perf_frame(id, state, sw.elapsed_secs()))?;
    send(
        out,
        &done(
            id,
            obj([
                ("design", Json::Str(design.name().to_owned())),
                ("points", Json::Num(noise.len() as f64)),
                ("errors", Json::Num(tot_errors as f64)),
                ("bits", Json::Num(tot_bits as f64)),
            ]),
        ),
    )?;
    Ok(())
}

/// Deterministically generates `n` fault events for `sys`: event `i`
/// draws from [`XorShift64::stream`]`(seed, i)`, so the event list is a
/// pure function of `(design, seed, n, cycles)` — independent of lane
/// and thread geometry.
fn campaign_events(sys: &System, n: u64, seed: u64, cycles: u64) -> Vec<FaultEvent> {
    let sites = FaultPlan::sites(sys);
    (0..n)
        .map(|i| {
            let mut r = XorShift64::stream(seed, i);
            let site: FaultSite = sites[r.index(sites.len())].clone();
            let width = FaultPlan::site_width(sys, &site).max(1);
            let bit = r.below(u64::from(width)) as u32;
            let cycle = 1 + r.below(cycles.max(2) - 1);
            if r.chance(0.25) {
                FaultEvent::stuck_at(site, bit, r.next_bool(), cycle, 1 + r.below(8))
            } else {
                FaultEvent::flip(site, bit, cycle)
            }
        })
        .collect()
}

/// A fault-campaign job over the cached design: deterministic event
/// generation from its template, the shared-golden batched parallel
/// driver, one `done` frame with the classification counts.
pub fn run_campaign_job(
    state: &ServerState,
    req: &Json,
    out: &mut impl Write,
) -> Result<(), ServeError> {
    let id = request_id(req)?;
    reject_engine(req, "campaign")?;
    let design = design_of(req, Design::Hcor)?;
    let cycles = capped_u64(req, "cycles", 96, MAX_CYCLES)?.max(2);
    let n_events = capped_u64(req, "events", 32, MAX_EVENTS)?.max(1);
    let seed = opt_u64(req, "seed", 0xca3)?;
    let lanes = capped_u64(req, "lanes", 1, MAX_LANES)?.max(1) as usize;
    let threads = capped_u64(req, "threads", 1, MAX_THREADS)?.max(1) as usize;
    let level = opt_level(req)?;

    let sw = ocapi_obs::Stopwatch::start();
    let compiled = state.cache.design(design, level)?;
    let inputs = input_decls(compiled.system());
    let events = campaign_events(compiled.system(), n_events, seed, cycles);
    let pool = ParConfig::new(threads);
    let report = run_campaign_batched(
        &pool,
        &compiled,
        |sim, cycle| drive_inputs(sim, &inputs, seed, cycle),
        cycles,
        &events,
        lanes,
    )?;
    send(out, &perf_frame(id, state, sw.elapsed_secs()))?;
    send(
        out,
        &done(
            id,
            obj([
                ("design", Json::Str(design.name().to_owned())),
                ("injections", Json::Num(report.total() as f64)),
                ("masked", Json::Num(report.masked() as f64)),
                ("silent", Json::Num(report.silent() as f64)),
                ("detected", Json::Num(report.detected() as f64)),
            ]),
        ),
    )?;
    Ok(())
}

/// `session.open`: registers a warm session at cycle 0. The design is
/// compiled (or cache-hit) immediately, so the first `session.run` is
/// already warm.
pub fn session_open(
    state: &ServerState,
    req: &Json,
    out: &mut impl Write,
) -> Result<(), ServeError> {
    let id = request_id(req)?;
    let name = need_str(req, "session")?;
    let design = design_of(req, Design::Hcor)?;
    let level = opt_level(req)?;
    let engine = engine_of(req)?;
    let seed = opt_u64(req, "seed", 1)?;
    let design_hash = state.cache.design(design, level)?.tape().program_hash();
    let mut sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
    if sessions.contains(name) {
        return Err(ServeError::Parse(format!(
            "session `{name}` already exists"
        )));
    }
    sessions.park(
        name,
        ParkedSession {
            design,
            level,
            seed,
            snapshot: None,
            digest: Fnv::new().finish(),
        },
    );
    drop(sessions);
    send(
        out,
        &done(
            id,
            obj([
                ("session", Json::Str(name.to_owned())),
                ("design", Json::Str(design.name().to_owned())),
                ("engine", Json::Str(engine.to_owned())),
                ("design_hash", Json::Str(format!("{design_hash:016x}"))),
                ("cycle", Json::Num(0.0)),
            ]),
        ),
    )?;
    Ok(())
}

/// `session.run`: resume the parked session from its snapshot (cycle 0
/// on first run), advance `cycles` cycles under the deterministic
/// stimulus, park it again, and report the session's cumulative output
/// digest. The digest chains across parks, so it is a pure function of
/// `(design, opt, seed, total cycles run)`: one run of `2n` cycles
/// reports the same digest as two runs of `n` with a park between —
/// the warm-session determinism contract.
pub fn session_run(
    state: &ServerState,
    req: &Json,
    out: &mut impl Write,
) -> Result<(), ServeError> {
    let id = request_id(req)?;
    let name = need_str(req, "session")?;
    let cycles = capped_u64(req, "cycles", 16, MAX_SESSION_CYCLES)?.max(1);
    let parked = {
        let mut sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
        match sessions.get(name) {
            SessionLookup::Found(parked) => *parked,
            SessionLookup::Evicted => {
                // Deterministic eviction report: the name existed but
                // was dropped by the LRU bound, which is actionable
                // (reopen and replay) where `unknown session` is not.
                let capacity = sessions.capacity();
                drop(sessions);
                send(
                    out,
                    &obj([
                        ("id", Json::Str(id.to_owned())),
                        ("type", Json::Str("error".to_owned())),
                        ("code", Json::Str("session.evicted".to_owned())),
                        (
                            "message",
                            Json::Str(format!(
                                "session `{name}` was evicted by the LRU bound \
                                 (capacity {capacity}); reopen it with session.open"
                            )),
                        ),
                    ]),
                )?;
                return Ok(());
            }
            SessionLookup::Unknown => {
                return Err(ServeError::Parse(format!("unknown session `{name}`")))
            }
        }
    };
    let compiled = state.cache.design(parked.design, parked.level)?;
    let inputs = input_decls(compiled.system());
    let outputs = output_names(compiled.system());
    let mut sim = CompiledSim::from_design(&compiled)?;
    if let Some(bytes) = &parked.snapshot {
        sim.restore(&SimSnapshot::from_bytes(bytes)?)?;
    }
    let from_cycle = sim.cycle();
    let mut digest = Fnv::from_state(parked.digest);
    for _ in 0..cycles {
        let cycle = sim.cycle();
        drive_inputs(&mut sim, &inputs, parked.seed, cycle)?;
        sim.step()?;
        digest.write(&cycle.to_be_bytes());
        for name in &outputs {
            let v = sim.output(name)?;
            // Writing into an `Fnv` cannot fail.
            let _ = write!(digest, "{v:?}");
        }
    }
    let digest = digest.finish();
    let to_cycle = sim.cycle();
    let snapshot = sim.snapshot().to_bytes();
    {
        let mut sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
        sessions.repark(name, snapshot, digest);
    }
    send(
        out,
        &done(
            id,
            obj([
                ("session", Json::Str(name.to_owned())),
                ("from_cycle", Json::Num(from_cycle as f64)),
                ("to_cycle", Json::Num(to_cycle as f64)),
                ("digest", Json::Str(format!("{digest:016x}"))),
            ]),
        ),
    )?;
    Ok(())
}

/// `session.close`: drops the parked session and its snapshot.
pub fn session_close(
    state: &ServerState,
    req: &Json,
    out: &mut impl Write,
) -> Result<(), ServeError> {
    let id = request_id(req)?;
    let name = need_str(req, "session")?;
    let existed = {
        let mut sessions = state.sessions.lock().unwrap_or_else(|e| e.into_inner());
        sessions.remove(name)
    };
    send(
        out,
        &done(
            id,
            obj([
                ("session", Json::Str(name.to_owned())),
                ("closed", Json::Bool(existed)),
            ]),
        ),
    )?;
    Ok(())
}
