//! Steady-state cycles must not touch the heap: after a short warm-up,
//! `set_input` + `step` + `output` on HCOR and DECT allocates zero times
//! on every cycle-based engine (the batched one at four lanes and at
//! one), on the event-driven RT kernel and on the gate-level system
//! simulator. Register pokes — the fault injector's per-cycle corruption
//! primitive — are allocation-free too. A cycle traced through
//! `Traced` writes its row into reused scratch, so all it may allocate
//! is the amortized growth of the trace's value columns. A fault
//! campaign records no trace, so its allocations do not grow with its
//! length.
//!
//! The global allocator counts per thread, so tests running in parallel
//! do not see each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use asic_dse::ocapi::rng::XorShift64;
use asic_dse::ocapi::{
    run_campaign_cached_par, BatchedSim, CompiledSim, CompiledTape, CoreError, FaultEvent,
    FaultPlan, InterpSim, OptLevel, ParConfig, Simulator, System, Traced, Value,
};
use asic_dse::ocapi_designs::dect::burst::{generate, BurstConfig};
use asic_dse::ocapi_designs::dect::transceiver::{
    build_system, TransceiverConfig, CYCLES_PER_SYMBOL,
};
use asic_dse::ocapi_designs::hcor;
use asic_dse::ocapi_gatesim::GateSystemSim;
use asic_dse::ocapi_rtl::RtlSystemSim;
use asic_dse::ocapi_synth::SynthOptions;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        SystemAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        SystemAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        SystemAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

const WARMUP: usize = 32;
const MEASURED: usize = 1_000;

/// A design, the inputs set every cycle and `WARMUP + MEASURED` rows of
/// stimulus for them.
struct Workload {
    build: fn() -> System,
    inputs: Vec<&'static str>,
    rows: Vec<Vec<Value>>,
}

fn hcor_workload() -> Workload {
    let bits = hcor::test_pattern((WARMUP + MEASURED) / 2, 3);
    let rows = (0..WARMUP + MEASURED)
        .map(|k| {
            vec![
                Value::Bool(bits[k % bits.len()]),
                Value::Bool(k % 13 != 5),
                Value::bits(5, 13),
            ]
        })
        .collect();
    Workload {
        build: || hcor::build_system().expect("build"),
        inputs: vec!["bit_in", "enable", "threshold"],
        rows,
    }
}

fn dect_workload() -> Workload {
    let burst = generate(&BurstConfig {
        payload_len: 96,
        ..BurstConfig::default()
    });
    let mut r = XorShift64::new(9);
    let rows = burst
        .samples
        .iter()
        .flat_map(|s| std::iter::repeat_n(*s, CYCLES_PER_SYMBOL))
        .cycle()
        .take(WARMUP + MEASURED)
        .map(|s| vec![Value::Fixed(s), Value::Bool(r.chance(0.02))])
        .collect();
    Workload {
        build: || build_system(&TransceiverConfig::default()).expect("build"),
        inputs: vec!["sample", "hold_request"],
        rows,
    }
}

/// Allocations made by the `MEASURED` cycles after the warm-up.
fn steady_state_allocations(sim: &mut dyn Simulator, w: &Workload, outputs: &[String]) -> u64 {
    let cycle = |sim: &mut dyn Simulator, row: &[Value]| {
        for (name, v) in w.inputs.iter().zip(row) {
            sim.set_input(name, *v).expect("set");
        }
        sim.step().expect("step");
        for o in outputs {
            std::hint::black_box(sim.output(o).expect("output"));
        }
    };
    let (warm, measured) = w.rows.split_at(WARMUP);
    for row in warm {
        cycle(sim, row);
    }
    let before = allocations();
    for row in measured {
        cycle(sim, row);
    }
    allocations() - before
}

/// Every engine on `w`'s design, named.
fn engines(w: &Workload) -> Vec<(&'static str, Box<dyn Simulator>)> {
    vec![
        (
            "interp",
            Box::new(InterpSim::new((w.build)()).expect("interp")),
        ),
        (
            "compiled",
            Box::new(CompiledSim::new((w.build)()).expect("compiled")),
        ),
        (
            "batched",
            Box::new(BatchedSim::from_fn(4, || Ok((w.build)()), OptLevel::Full).expect("batched")),
        ),
        (
            "batched 1 lane",
            Box::new(
                BatchedSim::from_fn(1, || Ok((w.build)()), OptLevel::Full).expect("batched 1 lane"),
            ),
        ),
        (
            "rtl",
            Box::new(RtlSystemSim::new((w.build)()).expect("rtl")),
        ),
        (
            "gate",
            Box::new(GateSystemSim::new((w.build)(), &SynthOptions::default()).expect("gate")),
        ),
    ]
}

fn assert_alloc_free(w: &Workload) {
    let sys = (w.build)();
    let outputs: Vec<String> = sys.primary_outputs.iter().map(|o| o.name.clone()).collect();
    for (name, mut sim) in engines(w) {
        let n = steady_state_allocations(sim.as_mut(), w, &outputs);
        assert_eq!(
            n, 0,
            "{name}: {n} allocations in {MEASURED} steady-state cycles"
        );
    }
}

#[test]
fn hcor_steady_state_is_allocation_free() {
    assert_alloc_free(&hcor_workload());
}

#[test]
fn dect_steady_state_is_allocation_free() {
    assert_alloc_free(&dect_workload());
}

const TRACED: usize = 4_096;

/// Allocations per cycle of `sim` wrapped in [`Traced`], over `TRACED`
/// cycles of `w` from power-up.
fn traced_allocations<S: Simulator>(sim: S, w: &Workload) -> f64 {
    let mut sim = Traced::new(sim);
    let before = allocations();
    for row in w.rows.iter().cycle().take(TRACED) {
        for (input, v) in w.inputs.iter().zip(row) {
            sim.set_input(input, *v).expect("set");
        }
        sim.step().expect("step");
    }
    let per_cycle = (allocations() - before) as f64 / TRACED as f64;
    assert_eq!(sim.trace().len(), TRACED);
    per_cycle
}

/// Traced from power-up for `TRACED` cycles, every engine makes fewer
/// than 0.1 allocations per cycle: the trace's value columns grow by
/// doubling, and no cycle collects a row of its own.
#[test]
fn traced_cycles_do_not_allocate_rows() {
    let w = hcor_workload();
    let batched = |lanes| BatchedSim::from_fn(lanes, || Ok((w.build)()), OptLevel::Full);
    let gate = GateSystemSim::new((w.build)(), &SynthOptions::default()).expect("gate");
    let per_cycle = [
        (
            "interp",
            traced_allocations(InterpSim::new((w.build)()).expect("interp"), &w),
        ),
        (
            "compiled",
            traced_allocations(CompiledSim::new((w.build)()).expect("compiled"), &w),
        ),
        (
            "batched",
            traced_allocations(batched(4).expect("batched"), &w),
        ),
        (
            "batched 1 lane",
            traced_allocations(batched(1).expect("batched 1 lane"), &w),
        ),
        (
            "rtl",
            traced_allocations(RtlSystemSim::new((w.build)()).expect("rtl"), &w),
        ),
        ("gate", traced_allocations(gate, &w)),
    ];
    for (name, n) in per_cycle {
        assert!(n < 0.1, "{name}: {n:.3} allocations per traced cycle");
    }
}

/// Allocations made by `MEASURED` register pokes, cycling through every
/// register of `sys`, after one warm-up round over all of them.
fn steady_state_poke_allocations(
    sys: &System,
    mut poke: impl FnMut(&str, &str) -> Result<(), CoreError>,
) -> u64 {
    let regs: Vec<(&str, &str)> = sys
        .timed
        .iter()
        .flat_map(|t| {
            t.comp
                .regs
                .iter()
                .map(|r| (t.name.as_str(), r.name.as_str()))
        })
        .collect();
    assert!(!regs.is_empty(), "{}: no registers to poke", sys.name);
    for (inst, reg) in &regs {
        poke(inst, reg).expect("poke_reg");
    }
    let before = allocations();
    for (inst, reg) in regs.iter().cycle().take(MEASURED) {
        poke(inst, reg).expect("poke_reg");
    }
    allocations() - before
}

/// Each engine's `poke_reg` (and the batch's `poke_reg_lane`) writing
/// back the value `peek_reg` reads.
fn assert_poke_reg_alloc_free(w: &Workload) {
    let sys = (w.build)();
    let mut interp = InterpSim::new((w.build)()).expect("interp");
    let mut compiled = CompiledSim::new((w.build)()).expect("compiled");
    let mut batched = BatchedSim::from_fn(4, || Ok((w.build)()), OptLevel::Full).expect("batched");
    let counts = [
        (
            "interp",
            steady_state_poke_allocations(&sys, |i, r| {
                let v = interp.peek_reg(i, r)?;
                interp.poke_reg(i, r, v)
            }),
        ),
        (
            "compiled",
            steady_state_poke_allocations(&sys, |i, r| {
                let v = compiled.peek_reg(i, r)?;
                compiled.poke_reg(i, r, v)
            }),
        ),
        (
            "batched",
            steady_state_poke_allocations(&sys, |i, r| {
                let v = batched.peek_reg(i, r)?;
                batched.poke_reg(i, r, v)
            }),
        ),
        (
            "batched lane",
            steady_state_poke_allocations(&sys, |i, r| {
                let v = batched.peek_reg_lane(3, i, r)?;
                batched.poke_reg_lane(3, i, r, v)
            }),
        ),
    ];
    for (name, n) in counts {
        assert_eq!(n, 0, "{name}: {n} allocations in steady-state poke_reg");
    }
}

#[test]
fn hcor_poke_reg_is_allocation_free() {
    assert_poke_reg_alloc_free(&hcor_workload());
}

#[test]
fn dect_poke_reg_is_allocation_free() {
    assert_poke_reg_alloc_free(&dect_workload());
}

/// One lane-batched campaign over the same 20 flips allocates as often
/// at 96 cycles as at 48: the golden outputs fill one buffer sized up
/// front, and no lane records a trace.
#[test]
fn campaign_allocations_do_not_grow_with_its_length() {
    let w = hcor_workload();
    let sys = (w.build)();
    let tape = CompiledTape::compile(&sys, OptLevel::Full).expect("compile");
    let sites = FaultPlan::sites(&sys);
    let events: Vec<FaultEvent> = (0..20)
        .map(|i| {
            let mut r = XorShift64::stream(0xa110c, i);
            let site = sites[r.index(sites.len())].clone();
            let bit = r.below(u64::from(FaultPlan::site_width(&sys, &site))) as u32;
            FaultEvent::flip(site, bit, 1 + r.below(47))
        })
        .collect();
    let stimulus = |sim: &mut dyn Simulator, cycle: u64| {
        for (name, v) in w.inputs.iter().zip(&w.rows[cycle as usize]) {
            sim.set_input(name, *v)?;
        }
        Ok(())
    };
    let campaign = |cycles| {
        let before = allocations();
        run_campaign_cached_par(
            &ParConfig::single(),
            hcor::build_system,
            &tape,
            stimulus,
            cycles,
            &events,
            1,
        )
        .expect("campaign");
        allocations() - before
    };
    let (short, long) = (campaign(48), campaign(96));
    assert_eq!(short, long, "48 cycles: {short} allocations, 96: {long}");
}
