//! Error-path determinism: the *diagnostics* of failing runs — masked
//! lane `(cycle, error)` records in a batched campaign, oscillation and
//! deadlock messages — must be byte-identical across worker-thread
//! counts and lane counts. A failure report that changes with the
//! execution geometry cannot be diffed, cached or resumed.

use ocapi::dataflow::{DataflowGraph, FnActor, Source};
use ocapi::{
    map_indexed_with, run_campaign_cached_par, CompiledTape, Component, CoreError, FaultEvent,
    FaultSite, InterpSim, OptLevel, ParConfig, SigType, Simulator, System, Value,
};

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

/// A batched campaign whose event list mixes real register flips with
/// fault sites that do not exist. The bogus sites mask their lane with
/// a `(cycle, error)` record that becomes a `Detected` outcome — and
/// the *complete* rendered report, errors included, must come out
/// byte-identical for every `threads × lanes` geometry.
#[test]
fn masked_lane_reporting_identical_across_threads_and_lanes() {
    let mut events: Vec<FaultEvent> = Vec::new();
    for cycle in 0..6u64 {
        for bit in 0..4u32 {
            events.push(FaultEvent::flip(FaultSite::reg("u0", "acc"), bit, cycle));
        }
        // A site that cannot be resolved: masks the lane at `cycle`.
        events.push(FaultEvent::flip(FaultSite::net("no_such_net"), 0, cycle));
        events.push(FaultEvent::flip(
            FaultSite::reg("u0", "no_such_reg"),
            0,
            cycle,
        ));
    }

    let stimulus = |sim: &mut dyn Simulator, c: u64| {
        sim.set_input("x", Value::bits(8, (c * 13 + 5) % 256))?;
        sim.set_input("stop", Value::Bool(false))
    };

    let tape = CompiledTape::compile(&acc_system(), OptLevel::Full).unwrap();
    let mut renderings: Vec<(usize, usize, String)> = Vec::new();
    for threads in [1usize, 4] {
        for lanes in [1usize, 8] {
            let pool = ParConfig::new(threads);
            let report = run_campaign_cached_par(
                &pool,
                || Ok(acc_system()),
                &tape,
                stimulus,
                8,
                &events,
                lanes,
            )
            .unwrap();
            // Debug form carries every (cycle, error) pair verbatim.
            renderings.push((threads, lanes, format!("{:?}", report.outcomes)));
        }
    }

    let (_, _, reference) = &renderings[0];
    assert!(
        reference.contains("no_such_net"),
        "bogus sites must surface in the report: {reference}"
    );
    assert!(reference.contains("Detected"));
    for (threads, lanes, r) in &renderings[1..] {
        assert_eq!(
            r, reference,
            "report diverged at threads={threads} lanes={lanes}"
        );
    }
}

/// A combinational pass-through, two of which wired head-to-tail make a
/// true oscillation (combinational loop).
fn pass_through(name: &str) -> Component {
    let c = Component::build(name);
    let i = c.input("i", SigType::Bits(8)).unwrap();
    let o = c.output("o", SigType::Bits(8)).unwrap();
    let s = c.sfg("s").unwrap();
    s.drive(o, &(c.read(i) ^ c.const_bits(8, 1))).unwrap();
    c.finish().unwrap()
}

fn looped_system() -> System {
    let mut sb = System::build("loopy");
    let b = sb.add_component("b", pass_through("pass")).unwrap();
    let a = sb.add_component("a", pass_through("pass")).unwrap();
    sb.connect(a, "o", b, "i").unwrap();
    sb.connect(b, "o", a, "i").unwrap();
    sb.output("probe", a, "o").unwrap();
    sb.finish().unwrap()
}

/// The oscillation diagnostic rendered inside pool workers is the same
/// byte string for every thread count — the waiting list is sorted, not
/// in work-list discovery order.
#[test]
fn oscillation_diagnostics_identical_across_worker_threads() {
    const EXPECT: &str =
        "combinational loop: unresolved after evaluation phase: a.s -> o, b.s -> o";
    let items: Vec<u64> = (0..8).collect();
    for threads in [1, 4] {
        let pool = ParConfig::new(threads);
        let result = map_indexed_with(
            &pool,
            &items,
            || (),
            |_, _, _| {
                let mut sim = InterpSim::new(looped_system())?;
                let err = match sim.step() {
                    Err(e) => e,
                    Ok(()) => {
                        return Err(CoreError::CheckFailed {
                            diagnostics: vec!["loop not detected".into()],
                        })
                    }
                };
                Ok::<String, CoreError>(err.to_string())
            },
        );
        let messages = result.unwrap();
        for m in &messages {
            assert_eq!(m, EXPECT, "threads={threads}");
        }
    }
}

/// Same for data-flow deadlock diagnostics: blocked actors are listed
/// sorted, identically on every worker and thread count.
#[test]
fn deadlock_diagnostics_identical_across_worker_threads() {
    const EXPECT: &str = "data-flow deadlock, blocked actors: a, b";
    let items: Vec<u64> = (0..8).collect();
    for threads in [1, 4] {
        let pool = ParConfig::new(threads);
        let result = map_indexed_with(
            &pool,
            &items,
            || (),
            |_, _, _| {
                let mut g = DataflowGraph::new();
                let src_b = g.add(Box::new(Source::new("src_b", [Value::bits(8, 1)])));
                let src_a = g.add(Box::new(Source::new("src_a", [Value::bits(8, 2)])));
                let b = g.add(Box::new(FnActor::new("b", 2, 1, |i, o| o.push(i[0]))));
                let a = g.add(Box::new(FnActor::new("a", 2, 1, |i, o| o.push(i[0]))));
                g.connect(src_a, 0, a, 0, &[])?;
                g.connect(src_b, 0, b, 0, &[])?;
                g.connect(a, 0, b, 1, &[])?;
                g.connect(b, 0, a, 1, &[])?;
                let err = match g.run(u64::MAX) {
                    Err(e) => e,
                    Ok(_) => {
                        return Err(CoreError::CheckFailed {
                            diagnostics: vec!["deadlock not detected".into()],
                        })
                    }
                };
                Ok::<String, CoreError>(err.to_string())
            },
        );
        let messages = result.unwrap();
        for m in &messages {
            assert_eq!(m, EXPECT, "threads={threads}");
        }
    }
}
