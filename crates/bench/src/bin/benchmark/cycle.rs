//! `cycle-small` and `cycle-dect`: the five DSL engines (interpreter,
//! compiled tape, fused tape, 64-lane batched tape, RT-level kernel) on
//! captured designs, each driven through `Simulator` by a seeded
//! stimulus.

use std::hint::black_box;

use ocapi::rng::XorShift64;
use ocapi::{
    BatchedSim, CompiledSim, CompiledTape, CoreError, Fix, FusedSim, FusedTape, InterpSim,
    OptLevel, Overflow, Rounding, Simulator, System, Value,
};
use ocapi_designs::dect::burst::{generate, Burst, BurstConfig};
use ocapi_designs::dect::transceiver::{self, TransceiverConfig, CYCLES_PER_SYMBOL};
use ocapi_designs::{hcor, image, modem, wlan};
use ocapi_rtl::RtlSystemSim;

use crate::sample::{geomean, interleaved_builds, round_robin, Build, Pair};
use crate::trace::{SpanId, Tracer};
use crate::{allocations, fnv, Run, FNV_OFFSET};

/// Lanes of the batched engine.
pub const LANES: usize = 64;
/// Cycles of the verification prefix (4 DECT bursts are the same length).
pub const PREFIX: usize = 2048;
/// Payload bits of one DECT burst: 32 + 96 symbols, 512 cycles.
pub const PAYLOAD: usize = 96;

/// A design under test: its name and its capture.
#[derive(Clone, Copy)]
pub struct Design {
    pub name: &'static str,
    pub build: fn() -> Result<System, CoreError>,
}

fn image_q2() -> Result<System, CoreError> {
    image::build_system(2)
}

pub fn dect_system() -> Result<System, CoreError> {
    transceiver::build_system(&TransceiverConfig::default())
}

/// The designs of `cycle-small`: small tapes whose state fits in L1.
pub fn small_designs() -> Vec<Design> {
    vec![
        Design {
            name: "hcor",
            build: hcor::build_system,
        },
        Design {
            name: "modem",
            build: modem::build_system,
        },
        Design {
            name: "wlan",
            build: wlan::build_system,
        },
        Design {
            name: "image",
            build: image_q2,
        },
    ]
}

pub fn dect_design() -> Design {
    Design {
        name: "dect",
        build: dect_system,
    }
}

/// A seeded per-cycle stimulus: a value for every primary input on
/// every cycle, plus the DECT bursts the rows were cut from.
pub struct Stimulus {
    pub inputs: Vec<&'static str>,
    pub rows: Vec<Vec<Value>>,
    pub bursts: Vec<Burst>,
}

fn fixed(x: f64, fmt: ocapi::Format) -> Value {
    Value::Fixed(Fix::from_f64(x, fmt, Rounding::Nearest, Overflow::Saturate))
}

/// The stimulus of `design` for `seed`: `PREFIX` cycles that the
/// verification prefix runs once and the timed slices cycle through.
pub fn stimulus(design: &str, seed: u64) -> Stimulus {
    let salt = design.bytes().fold(FNV_OFFSET, |h, b| fnv(h, u64::from(b)));
    let mut r = XorShift64::new(seed ^ salt);
    let mut bursts = Vec::new();
    let (inputs, rows): (Vec<&'static str>, Vec<Vec<Value>>) = match design {
        "hcor" => {
            // Noise with the sync word in the middle; a threshold the
            // word clears, so detection fires once per pass.
            let threshold = 12 + r.below(5);
            let bits = hcor::test_pattern((PREFIX - hcor::TAPS) / 2, seed);
            let rows = bits
                .iter()
                .map(|b| {
                    vec![
                        Value::Bool(*b),
                        Value::Bool(true),
                        Value::bits(5, threshold),
                    ]
                })
                .collect();
            (vec!["bit_in", "enable", "threshold"], rows)
        }
        "modem" | "wlan" => {
            let rows = (0..PREFIX)
                .map(|_| vec![Value::Bool(r.next_bool()), Value::Bool(!r.chance(0.1))])
                .collect();
            (vec!["bit", "en"], rows)
        }
        "image" => {
            let rows = (0..PREFIX)
                .map(|k| {
                    vec![
                        fixed(r.next_f64() * 2.0 - 1.0, image::pixel_fmt()),
                        Value::Bool(k % 8 == 0),
                    ]
                })
                .collect();
            (vec!["pixel", "start"], rows)
        }
        _ => {
            bursts = (0..PREFIX / ((32 + PAYLOAD) * CYCLES_PER_SYMBOL))
                .map(|k| {
                    generate(&BurstConfig {
                        payload_len: PAYLOAD,
                        seed: seed.wrapping_mul(16).wrapping_add(k as u64),
                        ..BurstConfig::default()
                    })
                })
                .collect();
            // `run_burst` without a hold request: one sample per
            // symbol, held for the symbol's cycles.
            let rows = bursts
                .iter()
                .flat_map(|b| &b.samples)
                .flat_map(|s| {
                    std::iter::repeat_n(
                        vec![Value::Fixed(*s), Value::Bool(false)],
                        CYCLES_PER_SYMBOL,
                    )
                })
                .collect();
            (vec!["sample", "hold_request"], rows)
        }
    };
    Stimulus {
        inputs,
        rows,
        bursts,
    }
}

/// Names of the primary outputs of `d`.
pub fn outputs(d: &Design) -> Result<Vec<String>, String> {
    let sys = (d.build)().map_err(|e| e.to_string())?;
    Ok(sys.primary_outputs.iter().map(|o| o.name.clone()).collect())
}

/// Drives `n` cycles of `stim` from row `from`, folding every primary
/// output of every cycle into `digest`.
pub fn drive(
    sim: &mut dyn Simulator,
    stim: &Stimulus,
    outputs: &[String],
    from: usize,
    n: usize,
    digest: &mut u64,
) -> Result<(), CoreError> {
    let len = stim.rows.len();
    for k in from..from + n {
        for (name, v) in stim.inputs.iter().zip(&stim.rows[k % len]) {
            sim.set_input(name, *v)?;
        }
        sim.step()?;
        for o in outputs {
            *digest = fnv(*digest, sim.output(o)?.to_raw());
        }
    }
    Ok(())
}

/// [`drive`] on the batched engine (inputs broadcast to every lane),
/// returning the digests of lane 0 and of the last lane.
fn drive_lanes(
    sim: &mut BatchedSim,
    stim: &Stimulus,
    outputs: &[String],
    n: usize,
) -> Result<(u64, u64), CoreError> {
    let (mut first, mut last) = (FNV_OFFSET, FNV_OFFSET);
    for row in stim.rows.iter().cycle().take(n) {
        for (name, v) in stim.inputs.iter().zip(row) {
            sim.set_input(name, *v)?;
        }
        sim.step()?;
        for o in outputs {
            first = fnv(first, sim.output_lane(0, o)?.to_raw());
            last = fnv(last, sim.output_lane(LANES - 1, o)?.to_raw());
        }
    }
    Ok((first, last))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    Interp,
    Compiled,
    Fused,
    Batched,
    Rtl,
}

pub const ENGINES: [Engine; 5] = [
    Engine::Interp,
    Engine::Compiled,
    Engine::Fused,
    Engine::Batched,
    Engine::Rtl,
];

impl Engine {
    pub fn name(self) -> &'static str {
        match self {
            Engine::Interp => "interp",
            Engine::Compiled => "compiled",
            Engine::Fused => "fused",
            Engine::Batched => "batched",
            Engine::Rtl => "rtl",
        }
    }

    fn lanes(self) -> f64 {
        if self == Engine::Batched {
            LANES as f64
        } else {
            1.0
        }
    }
}

/// A built simulator of one engine.
pub enum Sim {
    Interp(Box<InterpSim>),
    Compiled(Box<CompiledSim>),
    Fused(Box<FusedSim>),
    Batched(Box<BatchedSim>),
    Rtl(Box<RtlSystemSim>),
}

impl Sim {
    pub fn as_dyn(&mut self) -> &mut dyn Simulator {
        match self {
            Sim::Interp(s) => &mut **s,
            Sim::Compiled(s) => &mut **s,
            Sim::Fused(s) => &mut **s,
            Sim::Batched(s) => &mut **s,
            Sim::Rtl(s) => &mut **s,
        }
    }

    fn into_dyn(self) -> Box<dyn Simulator> {
        match self {
            Sim::Interp(s) => s,
            Sim::Compiled(s) => s,
            Sim::Fused(s) => s,
            Sim::Batched(s) => s,
            Sim::Rtl(s) => s,
        }
    }
}

/// Design in → first cycle ready on engine `e`, with a span around each
/// layer it passes through: capture, compile (levelize + optimize),
/// lower, instantiate (hash check + constructor), RTL lowering.
pub fn build(e: Engine, d: Design, tr: &Tracer, parent: SpanId) -> Result<Sim, CoreError> {
    let capture = || tr.time("designs.capture", d.name, parent, d.build);
    let compile = |sys: &System| {
        tr.time("compile.opt", d.name, parent, || {
            CompiledTape::compile(sys, OptLevel::Full)
        })
    };
    let inst = format!("{}/{}", e.name(), d.name);
    Ok(match e {
        Engine::Interp => {
            let sys = capture()?;
            Sim::Interp(Box::new(
                tr.time("instantiate", &inst, parent, || InterpSim::new(sys))?,
            ))
        }
        Engine::Compiled => {
            let sys = capture()?;
            let tape = compile(&sys)?;
            Sim::Compiled(Box::new(tr.time("instantiate", &inst, parent, || {
                CompiledSim::from_tape(sys, &tape)
            })?))
        }
        Engine::Fused => {
            let sys = capture()?;
            let tape = compile(&sys)?;
            let fused = tr.time("lower", d.name, parent, || {
                FusedTape::from_compiled(&sys, &tape)
            })?;
            Sim::Fused(Box::new(tr.time("instantiate", &inst, parent, || {
                FusedSim::from_tape(sys, &fused)
            })?))
        }
        Engine::Batched => {
            let systems = tr.time(
                "designs.capture",
                &format!("{} x{LANES}", d.name),
                parent,
                || {
                    (0..LANES)
                        .map(|_| (d.build)())
                        .collect::<Result<Vec<_>, _>>()
                },
            )?;
            let tape = compile(&systems[0])?;
            Sim::Batched(Box::new(tr.time("instantiate", &inst, parent, || {
                BatchedSim::from_tape(systems, &tape)
            })?))
        }
        Engine::Rtl => {
            let sys = capture()?;
            Sim::Rtl(Box::new(
                tr.time("rtl.lower", d.name, parent, || RtlSystemSim::new(sys))?,
            ))
        }
    })
}

/// A pair that streams `stim` through `sim` from the end of the
/// verification prefix, `reps` cycles per call, reading every output
/// each cycle as a testbench would. Work is simulated cycles times
/// `lanes`.
pub fn stream_pair<'a>(
    layer: &'static str,
    design: &str,
    mut sim: Box<dyn Simulator + 'a>,
    stim: &'a Stimulus,
    outputs: &'a [String],
    lanes: f64,
) -> Pair<'a> {
    let mut next = PREFIX;
    Pair::new(layer, design, move |reps, _| {
        let mut digest = FNV_OFFSET;
        drive(&mut *sim, stim, outputs, next, reps as usize, &mut digest)
            .map_err(|e| e.to_string())?;
        black_box(digest);
        next += reps as usize;
        Ok(reps as f64 * lanes)
    })
}

/// A pair that runs `reps` of the seeded DECT bursts per call through
/// `transceiver::run_burst`.
fn burst_pair<'a>(
    layer: &'static str,
    mut sim: Box<dyn Simulator>,
    stim: &'a Stimulus,
    lanes: f64,
) -> Pair<'a> {
    let mut next = 0;
    Pair::new(layer, "dect", move |reps, _| {
        let mut cycles = 0;
        for _ in 0..reps {
            let burst = &stim.bursts[next % stim.bursts.len()];
            next += 1;
            let records =
                transceiver::run_burst(&mut *sim, burst, None).map_err(|e| e.to_string())?;
            black_box(records);
            cycles += burst.samples.len() * CYCLES_PER_SYMBOL;
        }
        Ok(cycles as f64 * lanes)
    })
}

pub fn run(run: &mut Run<'_>, designs: &[Design]) -> Result<(), String> {
    let tr = run.tracer;
    let stims: Vec<Stimulus> = designs.iter().map(|d| stimulus(d.name, run.seed)).collect();
    let outs: Vec<Vec<String>> = designs.iter().map(outputs).collect::<Result<_, _>>()?;
    let combos: Vec<(Design, Engine)> = designs
        .iter()
        .flat_map(|d| ENGINES.iter().map(move |e| (*d, *e)))
        .collect();

    // Set-up: every (engine, design) build repeated `reps` times,
    // interleaved; `setup_s` sums the per-build medians.
    let setup = tr.open("setup", "", SpanId::NONE);
    let mut slots: Vec<Option<Sim>> = combos.iter().map(|_| None).collect();
    {
        let mut builds: Vec<Build<'_>> = combos
            .iter()
            .zip(slots.iter_mut())
            .map(|(&(d, e), slot)| -> Build<'_> {
                Box::new(move || {
                    let sim = build(e, d, tr, setup)
                        .map_err(|err| format!("building {} on {}: {err}", d.name, e.name()))?;
                    *slot = Some(sim);
                    Ok(())
                })
            })
            .collect();
        if tr.on() {
            // Levelize alone (no optimization), for `compile.opt_s`.
            for d in designs {
                let d = *d;
                builds.push(Box::new(move || {
                    let sys = (d.build)().map_err(|e| e.to_string())?;
                    tr.time("compile.levelize", d.name, setup, || {
                        CompiledTape::compile(&sys, OptLevel::None)
                    })
                    .map(drop)
                    .map_err(|e| e.to_string())
                }));
            }
        }
        let medians = interleaved_builds(run.reps, &mut builds)?;
        run.set(
            "setup_s",
            medians[..combos.len()].iter().map(|s| s.median).sum(),
        );
    }
    tr.close(setup);

    let mut sims: Vec<Sim> = slots
        .into_iter()
        .map(|s| s.ok_or_else(|| "a build produced no simulator".to_owned()))
        .collect::<Result<_, _>>()?;

    // Build-time counts of the compiled and fused tapes.
    let (mut tape_len, mut kernels, mut supers) = (0.0, 0.0, 0.0);
    let mut lens = Vec::new();
    for sim in &sims {
        match sim {
            Sim::Compiled(s) => {
                tape_len += s.tape_len() as f64;
                lens.push(s.tape_len() as f64);
            }
            Sim::Fused(s) => {
                kernels += s.lower_stats().kernels as f64;
                supers += s.lower_stats().superinstructions as f64;
            }
            _ => {}
        }
    }
    run.set("compile.tape_len", tape_len);
    run.set("lower.kernels", kernels);
    run.set("lower.superinstructions", supers);

    // Correctness gate: every engine's output digest over the seeded
    // prefix equals the interpreter's; batched lanes 0 and 63 both.
    let verify = tr.open("verify", "", SpanId::NONE);
    let mut allocs = [(0u64, 0u64); 5];
    for (di, d) in designs.iter().enumerate() {
        let mut reference = None;
        for (ei, e) in ENGINES.iter().enumerate() {
            let sim = &mut sims[di * ENGINES.len() + ei];
            let before = allocations();
            let digest = match sim {
                Sim::Batched(b) => {
                    let (first, last) = drive_lanes(b, &stims[di], &outs[di], PREFIX)
                        .map_err(|err| format!("batched on {}: {err}", d.name))?;
                    run.check(first == last, || {
                        format!(
                            "batched lane 0 {first:016x} != lane {} {last:016x} on {}",
                            LANES - 1,
                            d.name
                        )
                    });
                    first
                }
                _ => {
                    let mut digest = FNV_OFFSET;
                    drive(sim.as_dyn(), &stims[di], &outs[di], 0, PREFIX, &mut digest)
                        .map_err(|err| format!("{} on {}: {err}", e.name(), d.name))?;
                    digest
                }
            };
            allocs[ei].0 += allocations() - before;
            allocs[ei].1 += PREFIX as u64;
            match reference {
                None => {
                    println!("digest {} {digest:016x}", d.name);
                    reference = Some(digest);
                }
                Some(r) => run.check(digest == r, || {
                    format!(
                        "{} digest {digest:016x} != interp {r:016x} on {}",
                        e.name(),
                        d.name
                    )
                }),
            }
        }
    }
    tr.close(verify);
    for (e, (a, c)) in ENGINES.iter().zip(allocs) {
        run.set(
            format!("{}.allocs_per_cycle", e.name()),
            a as f64 / c.max(1) as f64,
        );
    }

    let measure = tr.open("measure", "", SpanId::NONE);
    let mut pairs: Vec<Pair<'_>> = Vec::with_capacity(sims.len());
    for (i, sim) in sims.into_iter().enumerate() {
        let (d, e) = combos[i];
        let (stim, outs) = (&stims[i / ENGINES.len()], &outs[i / ENGINES.len()]);
        pairs.push(if stim.bursts.is_empty() {
            stream_pair(e.name(), d.name, sim.into_dyn(), stim, outs, e.lanes())
        } else {
            burst_pair(e.name(), sim.into_dyn(), stim, e.lanes())
        });
    }
    let tally = round_robin(&mut pairs, run.budget, tr, measure);
    tr.close(measure);
    run.report_pairs(&pairs, "cycles", tally);

    // Host time per tape op, per design, from the traced slice rates.
    if tr.on() {
        for (metric, engine) in [
            ("compiled.ns_per_op", "compiled"),
            ("fused.ns_per_op", "fused"),
            ("batched.ns_per_op", "batched"),
        ] {
            let rates = tr.rates(engine);
            let ns: Vec<f64> = designs
                .iter()
                .zip(&lens)
                .filter_map(|(d, len)| rates.get(d.name).map(|r| 1e9 / (r * len)))
                .collect();
            run.set(metric, geomean(&ns));
        }
    }
    Ok(())
}
