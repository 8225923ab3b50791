//! Thread-count invariance of the sharded fault-injection campaign:
//! `run_campaign_par` must produce a report **bit-identical** to its
//! single-thread run for every worker-pool width, and a shard
//! that panics must surface as a typed error (never hang the pool, and
//! always the same error regardless of thread count). The same holds
//! for single failing items in a map of real simulations: the lowest
//! failing index is reported and every other item still runs.
//!
//! The same contract covers the observability registry: counter totals,
//! span-tree structure and hit counts, and event totals are workload
//! functions, so the registry's `deterministic` JSON must be
//! byte-identical at every `--threads` width (only the `timing` section
//! may differ).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use ocapi::sim::par::map_indexed;
use ocapi::{
    run_campaign_par, Component, CoreError, FaultEvent, FaultPlan, InterpSim, ParConfig, ParError,
    SigType, Simulator, System, Value,
};
use ocapi_obs::Registry;

/// A small FSMD with enough state to make faults interesting: an
/// enabled counter feeding a saturating accumulator.
fn small_system() -> Result<System, CoreError> {
    let c = Component::build("dut");
    let en = c.input("en", SigType::Bool)?;
    let o = c.output("o", SigType::Bits(8))?;
    let cnt = c.reg("cnt", SigType::Bits(8))?;
    let acc = c.reg("acc", SigType::Bits(8))?;
    let s = c.sfg("s")?;
    let q = c.q(cnt);
    let step = c.read(en).mux(&(q.clone() + c.const_bits(8, 1)), &q);
    s.next(cnt, &step)?;
    s.next(acc, &(c.q(acc) ^ q.clone()))?;
    s.drive(o, &(c.q(acc) + q))?;
    let comp = c.finish()?;
    let mut sb = System::build("par_inv");
    let u = sb.add_component("u", comp)?;
    sb.input("en", SigType::Bool)?;
    sb.connect_input("en", u, "en")?;
    sb.output("o", u, "o")?;
    sb.finish()
}

fn events(sys: &System, cycles: u64) -> Vec<FaultEvent> {
    let mut out = Vec::new();
    for site in FaultPlan::sites(sys) {
        let width = FaultPlan::site_width(sys, &site);
        for bit in 0..width {
            out.push(FaultEvent::flip(site.clone(), bit, cycles / 3));
            out.push(FaultEvent::flip(site.clone(), bit, 2 * cycles / 3));
            out.push(FaultEvent::stuck_at(site.clone(), bit, true, cycles / 4, 3));
        }
    }
    out
}

fn stimulus(sim: &mut dyn Simulator, cycle: u64) -> Result<(), CoreError> {
    sim.set_input("en", Value::Bool(cycle % 7 != 3))
}

#[test]
fn campaign_report_invariant_across_thread_counts() {
    let sys = small_system().expect("build");
    let cycles = 48u64;
    let evs = events(&sys, cycles);
    assert!(evs.len() > 16, "want a non-trivial campaign");

    let baseline = run_campaign_par(
        &ParConfig::single(),
        || InterpSim::new(small_system()?),
        stimulus,
        cycles,
        &evs,
    )
    .expect("sequential campaign");

    for threads in [2usize, 8] {
        let par = run_campaign_par(
            &ParConfig::new(threads),
            || InterpSim::new(small_system()?),
            stimulus,
            cycles,
            &evs,
        )
        .expect("sharded campaign");
        assert_eq!(
            par.outcomes, baseline.outcomes,
            "outcomes diverged at {threads} thread(s)"
        );
        assert_eq!(par.masked(), baseline.masked());
        assert_eq!(par.silent(), baseline.silent());
        assert_eq!(par.detected(), baseline.detected());
    }
}

/// Runs the same 12-shard simulation workload at the given pool width
/// with every shard instrumented into one shared registry, and returns
/// the registry's deterministic export.
fn obs_workload(threads: usize) -> String {
    let reg = Registry::new();
    let pool = ParConfig::new(threads);
    let shards: Vec<u64> = (0..12).collect();
    map_indexed(&pool, &shards, |_, &seed| {
        let mut sim = InterpSim::new(small_system()?)?;
        sim.attach_obs(&reg);
        for cycle in 0..32u64 {
            sim.set_input("en", Value::Bool((cycle + seed) % 5 != 2))?;
            sim.step()?;
        }
        Ok::<_, CoreError>(())
    })
    .expect("instrumented shards");
    reg.deterministic_json()
}

#[test]
fn obs_counters_and_span_structure_invariant_across_thread_counts() {
    let baseline = obs_workload(1);
    // Sanity: the export actually carries the instrumented data.
    assert!(baseline.contains("\"interp.cycles\": 384"), "{baseline}");
    assert!(baseline.contains("\"label\": \"interp\""));
    assert!(baseline.contains("\"label\": \"transition_select\""));
    for threads in [2usize, 8] {
        assert_eq!(
            obs_workload(threads),
            baseline,
            "deterministic obs section diverged at {threads} thread(s)"
        );
    }
}

#[test]
fn advisory_counters_stay_out_of_the_deterministic_section() {
    let reg = Registry::new();
    reg.counter("work.done").add(7);
    reg.advisory_counter("pool.shards_stolen").add(3);
    let det = reg.deterministic_json();
    assert!(det.contains("work.done"));
    assert!(
        !det.contains("shards_stolen"),
        "scheduling-dependent counters must export under timing only"
    );
    assert!(reg.timing_json().contains("shards_stolen"));
}

#[test]
fn panicking_shard_is_a_typed_error_not_a_hang() {
    let sys = small_system().expect("build");
    let cycles = 24u64;
    let evs = events(&sys, cycles);

    for threads in [1usize, 2, 8] {
        // The first make_sim call (the golden run) succeeds; every
        // per-event call panics, so every shard panics and the merge
        // must deterministically report the lowest-index item.
        let calls = AtomicU64::new(0);
        let result = run_campaign_par(
            &ParConfig::new(threads),
            || {
                if calls.fetch_add(1, Ordering::SeqCst) > 0 {
                    panic!("injected worker panic");
                }
                InterpSim::new(small_system()?)
            },
            stimulus,
            cycles,
            &evs,
        );
        match result {
            Err(CoreError::WorkerPanic { index }) => {
                assert_eq!(
                    index, 0,
                    "lowest-index panic must win at {threads} thread(s)"
                );
            }
            other => panic!("expected WorkerPanic at {threads} thread(s), got {other:?}"),
        }
    }
}

#[test]
fn failing_shard_propagates_its_error() {
    let sys = small_system().expect("build");
    let cycles = 24u64;
    let evs = events(&sys, cycles);

    for threads in [1usize, 2, 8] {
        let calls = AtomicU64::new(0);
        let result = run_campaign_par(
            &ParConfig::new(threads),
            || {
                if calls.fetch_add(1, Ordering::SeqCst) > 0 {
                    return Err(CoreError::UnknownName {
                        kind: "injected-failure",
                        name: "make_sim".into(),
                    });
                }
                InterpSim::new(small_system()?)
            },
            stimulus,
            cycles,
            &evs,
        );
        match result {
            Err(CoreError::UnknownName { kind, .. }) => assert_eq!(kind, "injected-failure"),
            other => panic!("expected UnknownName at {threads} thread(s), got {other:?}"),
        }
    }
}

/// Runs the system for 12 cycles with a `seed`-dependent enable and
/// returns the final output word.
fn simulate_item(seed: u64) -> Result<u64, CoreError> {
    let mut sim = InterpSim::new(small_system()?)?;
    for cycle in 0..12u64 {
        sim.set_input("en", Value::Bool((cycle + seed) % 3 != 1))?;
        sim.step()?;
    }
    let out = sim.output("o")?;
    out.as_bits().ok_or_else(|| CoreError::CheckFailed {
        diagnostics: vec![format!("unexpected output {out:?}")],
    })
}

#[test]
fn panicking_simulation_item_is_contained_at_its_index() {
    let items: Vec<u64> = (0..8).collect();
    let clean: Vec<u64> = items.iter().map(|s| simulate_item(*s).unwrap()).collect();

    for threads in [1usize, 4] {
        // Item 3 panics on its one run; the panic stays at that item,
        // and every other item runs once and finishes clean.
        let calls: Vec<AtomicU32> = items.iter().map(|_| AtomicU32::new(0)).collect();
        let finished: Vec<AtomicU64> = items.iter().map(|_| AtomicU64::new(u64::MAX)).collect();
        let result = map_indexed(&ParConfig::new(threads), &items, |i, seed| {
            calls[i].fetch_add(1, Ordering::Relaxed);
            if i == 3 {
                panic!("injected item panic");
            }
            let out = simulate_item(*seed)?;
            finished[i].store(out, Ordering::Relaxed);
            Ok::<_, CoreError>(out)
        });
        assert_eq!(
            result.unwrap_err(),
            ParError::Panic { index: 3 },
            "threads={threads}"
        );
        for (i, want) in clean.iter().enumerate() {
            assert_eq!(
                calls[i].load(Ordering::Relaxed),
                1,
                "threads={threads} item {i}"
            );
            let got = finished[i].load(Ordering::Relaxed);
            if i == 3 {
                assert_eq!(got, u64::MAX, "threads={threads}");
            } else {
                assert_eq!(got, *want, "threads={threads} item {i}");
            }
        }
    }
}

#[test]
fn failing_simulation_items_fail_at_lowest_index_for_any_thread_count() {
    let items: Vec<u64> = (0..16).collect();
    for threads in [1usize, 2, 4, 8] {
        // Items 5 and 11 fail with a typed error; the reported failure
        // must be the lowest index, whatever the interleaving.
        let result = map_indexed(&ParConfig::new(threads), &items, |i, seed| {
            if i == 5 || i == 11 {
                return Err(CoreError::UnknownName {
                    kind: "injected-failure",
                    name: format!("item {i}"),
                });
            }
            simulate_item(*seed)
        });
        match result {
            Err(ParError::Task { index, error }) => {
                assert_eq!(index, 5, "threads={threads}");
                assert!(
                    matches!(
                        &error,
                        CoreError::UnknownName { kind: "injected-failure", name } if name == "item 5"
                    ),
                    "threads={threads}: {error:?}"
                );
            }
            other => panic!("threads={threads}: expected Task error, got {other:?}"),
        }
    }
}
