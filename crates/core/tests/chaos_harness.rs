//! Chaos-harness integration tests: deterministic failure injection
//! ([`ChaosPlan`]) driven through the retrying worker pool and real
//! simulator workloads. These prove the robustness claims end to end —
//! a panicked attempt is contained and retried, an injected budget kill
//! is classified at the lowest failing index for every thread count,
//! and watchdog budgets trip at the same cycle on every back-end.

use ocapi::sim::par::map_indexed_retry;
use ocapi::{
    BatchedSim, Budget, BudgetKind, ChaosKind, ChaosPlan, CompiledSim, Component, CoreError,
    InterpSim, OptLevel, ParConfig, ParError, SigType, Simulator, System, Value,
};

/// A small real workload for pool items: run the accumulator system for
/// a few cycles with a seed-dependent stimulus and return the sum.
fn accumulator() -> Component {
    let c = Component::build("acc");
    let x = c.input("x", SigType::Bits(8)).unwrap();
    let stop = c.input("stop", SigType::Bool).unwrap();
    let sum_out = c.output("sum", SigType::Bits(8)).unwrap();
    let acc = c.reg("acc", SigType::Bits(8)).unwrap();

    let add = c.sfg("add").unwrap();
    let q = c.q(acc);
    let next = &q + &c.read(x);
    add.drive(sum_out, &q).unwrap();
    add.next(acc, &next).unwrap();

    let hold = c.sfg("hold").unwrap();
    hold.drive(sum_out, &c.q(acc)).unwrap();

    let stop_s = c.read(stop);
    let f = c.fsm().unwrap();
    let run = f.initial("run").unwrap();
    let frozen = f.state("frozen").unwrap();
    f.from(run).when(&stop_s).run(hold.id()).to(frozen).unwrap();
    f.from(run).always().run(add.id()).to(run).unwrap();
    f.from(frozen).always().run(hold.id()).to(frozen).unwrap();
    c.finish().unwrap()
}

fn acc_system() -> System {
    let mut sb = System::build("acc_sys");
    let u = sb.add_component("u0", accumulator()).unwrap();
    sb.input("x", SigType::Bits(8)).unwrap();
    sb.input("stop", SigType::Bool).unwrap();
    sb.connect_input("x", u, "x").unwrap();
    sb.connect_input("stop", u, "stop").unwrap();
    sb.output("sum", u, "sum").unwrap();
    sb.finish().unwrap()
}

/// Runs the accumulator for 5 cycles seeded by `seed` and returns the
/// final output word.
fn simulate_item(seed: u64) -> Result<u64, CoreError> {
    let mut sim = CompiledSim::new(acc_system())?;
    sim.set_input("stop", Value::Bool(false))?;
    for i in 0..5 {
        sim.set_input("x", Value::bits(8, (seed * 7 + i) % 256))?;
        sim.step()?;
    }
    let out = sim.output("sum")?;
    out.as_bits().ok_or_else(|| CoreError::CheckFailed {
        diagnostics: vec![format!("unexpected output {out:?}")],
    })
}

#[test]
fn chaos_panic_is_contained_and_retry_recovers() {
    let items: Vec<u64> = (0..8).collect();
    let clean: Vec<u64> = items.iter().map(|s| simulate_item(*s).unwrap()).collect();

    for threads in [1, 4] {
        let pool = ParConfig::new(threads);
        // First attempt of item 3 panics, first attempt of item 6 is
        // killed by a synthetic budget trip; their retries run clean.
        let plan = ChaosPlan::new(vec![
            (3, 0, ChaosKind::Panic).into(),
            (6, 0, ChaosKind::BudgetKill).into(),
        ]);
        let (result, stats) = map_indexed_retry(
            &pool,
            &items,
            2,
            || (),
            |_, i, seed| {
                plan.strike(i)?;
                simulate_item(*seed)
            },
        );
        let got = result.unwrap_or_else(|e| panic!("threads={threads}: {e:?}"));
        assert_eq!(got, clean, "threads={threads}");
        assert_eq!(stats.retries, 2, "threads={threads}");
        assert_eq!(stats.recovered, 2, "threads={threads}");
        assert_eq!(plan.attempts(3), 2);
        assert_eq!(plan.attempts(6), 2);
        assert_eq!(plan.attempts(0), 1);
    }
}

#[test]
fn chaos_exhausted_retries_fail_at_lowest_index_for_any_thread_count() {
    let items: Vec<u64> = (0..16).collect();
    for threads in [1, 2, 4, 8] {
        let pool = ParConfig::new(threads);
        // Items 5 and 11 fail on *every* allowed attempt; the reported
        // casualty must be the lowest index, whatever the interleaving.
        let plan = ChaosPlan::new(vec![
            (5, 0, ChaosKind::BudgetKill).into(),
            (5, 1, ChaosKind::BudgetKill).into(),
            (11, 0, ChaosKind::BudgetKill).into(),
            (11, 1, ChaosKind::BudgetKill).into(),
        ]);
        let (result, stats) = map_indexed_retry(
            &pool,
            &items,
            2,
            || (),
            |_, i, seed| {
                plan.strike(i)?;
                simulate_item(*seed)
            },
        );
        match result {
            Err(ParError::Task { index, error }) => {
                assert_eq!(index, 5, "threads={threads}");
                assert!(
                    matches!(
                        error,
                        CoreError::BudgetExceeded {
                            kind: BudgetKind::WallClock,
                            ..
                        }
                    ),
                    "threads={threads}: {error:?}"
                );
            }
            other => panic!("threads={threads}: expected Task error, got {other:?}"),
        }
        // Both doomed items burned their retry budget.
        assert!(stats.retries >= 2, "threads={threads}: {stats:?}");
        assert_eq!(stats.recovered, 0, "threads={threads}");
    }
}

#[test]
fn chaos_delay_changes_timing_but_not_results() {
    let items: Vec<u64> = (0..6).collect();
    let clean: Vec<u64> = items.iter().map(|s| simulate_item(*s).unwrap()).collect();
    for threads in [1, 4] {
        let pool = ParConfig::new(threads);
        // Stragglers on two items: same answer, just later.
        let plan = ChaosPlan::new(vec![
            (0, 0, ChaosKind::Delay(10)).into(),
            (4, 0, ChaosKind::Delay(5)).into(),
        ]);
        let (result, stats) = map_indexed_retry(
            &pool,
            &items,
            1,
            || (),
            |_, i, seed| {
                plan.strike(i)?;
                simulate_item(*seed)
            },
        );
        assert_eq!(result.unwrap(), clean, "threads={threads}");
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.recovered, 0);
    }
}

/// Drives `sim` until its budget trips, returning the error.
fn run_to_budget(sim: &mut dyn Simulator) -> CoreError {
    sim.set_input("stop", Value::Bool(false)).unwrap();
    for i in 0..100u64 {
        sim.set_input("x", Value::bits(8, i % 256)).unwrap();
        if let Err(e) = sim.step() {
            return e;
        }
    }
    panic!("budget never tripped");
}

#[test]
fn cycle_budget_trips_at_the_same_cycle_on_every_backend() {
    const LIMIT: u64 = 5;
    let budget = Budget::none().with_max_cycles(LIMIT);

    let mut trips: Vec<(String, u64)> = Vec::new();

    let mut interp = InterpSim::new(acc_system()).unwrap();
    interp.set_budget(budget);
    match run_to_budget(&mut interp) {
        CoreError::BudgetExceeded {
            kind: BudgetKind::Cycles,
            at_cycle,
        } => trips.push(("interp".into(), at_cycle)),
        other => panic!("interp: {other:?}"),
    }
    assert_eq!(interp.cycle(), LIMIT); // completed exactly LIMIT cycles

    for level in [OptLevel::None, OptLevel::Full] {
        let mut compiled = CompiledSim::new_with(acc_system(), level).unwrap();
        compiled.set_budget(budget);
        match run_to_budget(&mut compiled) {
            CoreError::BudgetExceeded {
                kind: BudgetKind::Cycles,
                at_cycle,
            } => trips.push((format!("compiled-{level:?}"), at_cycle)),
            other => panic!("compiled-{level:?}: {other:?}"),
        }
    }

    for lanes in [1usize, 8] {
        let mut batch = BatchedSim::from_fn(lanes, || Ok(acc_system()), OptLevel::Full).unwrap();
        batch.set_budget(budget);
        for lane in 0..lanes {
            batch
                .set_input_lane(lane, "stop", Value::Bool(false))
                .unwrap();
        }
        let mut tripped = None;
        for i in 0..100u64 {
            for lane in 0..lanes {
                batch
                    .set_input_lane(lane, "x", Value::bits(8, i % 256))
                    .unwrap();
            }
            if let Err(e) = batch.step() {
                tripped = Some(e);
                break;
            }
        }
        match tripped {
            Some(CoreError::BudgetExceeded {
                kind: BudgetKind::Cycles,
                at_cycle,
            }) => trips.push((format!("batched-{lanes}"), at_cycle)),
            other => panic!("batched-{lanes}: {other:?}"),
        }
    }

    for (name, at_cycle) in &trips {
        assert_eq!(*at_cycle, LIMIT, "{name} tripped at the wrong cycle");
    }
    assert_eq!(trips.len(), 5);
}

/// A budget attached after a snapshot restore counts from the restored
/// cycle, so "run 3 more cycles" composes with checkpoint/resume.
#[test]
fn budget_composes_with_snapshot_restore() {
    let mut sim = CompiledSim::new(acc_system()).unwrap();
    sim.set_input("stop", Value::Bool(false)).unwrap();
    for i in 0..4u64 {
        sim.set_input("x", Value::bits(8, i)).unwrap();
        sim.step().unwrap();
    }
    let snap = sim.snapshot();

    let mut resumed = CompiledSim::new(acc_system()).unwrap();
    resumed.restore(&snap).unwrap();
    resumed.set_budget(Budget::none().with_max_cycles(6));
    resumed.set_input("stop", Value::Bool(false)).unwrap();
    resumed.set_input("x", Value::bits(8, 1)).unwrap();
    resumed.step().unwrap(); // cycle 5
    resumed.step().unwrap(); // cycle 6
    match resumed.step() {
        Err(CoreError::BudgetExceeded {
            kind: BudgetKind::Cycles,
            at_cycle: 6,
        }) => {}
        other => panic!("expected cycle-budget trip at 6, got {other:?}"),
    }
}
