//! The lane-batched campaign driver reuses one reset batch per worker
//! and lane count instead of building one per chunk of events, and
//! builds every batch and the golden run from one design, captured
//! once. These tests pin what that must not change — every event's
//! outcome, at every lane and thread count, including a short last
//! chunk — and what it must change: how often a campaign captures a
//! system.

use std::sync::atomic::{AtomicUsize, Ordering};

use ocapi::rng::XorShift64;
use ocapi::{
    run_campaign_cached_par, run_campaign_par, CampaignReport, CompiledSim, CompiledTape,
    CoreError, FaultEvent, FaultPlan, OptLevel, ParConfig, Simulator, System, Value,
};
use ocapi_designs::hcor;

/// 22 events: a short last chunk at 3 lanes (one event) and at 8 (six).
const EVENTS: u64 = 22;
const CYCLES: u64 = 48;

/// Seeded flips and short stuck-ats over every site of HCOR.
fn events(sys: &System) -> Vec<FaultEvent> {
    let sites = FaultPlan::sites(sys);
    (0..EVENTS)
        .map(|i| {
            let mut r = XorShift64::stream(0x7e57, i);
            let site = sites[r.index(sites.len())].clone();
            let bit = r.below(u64::from(FaultPlan::site_width(sys, &site))) as u32;
            let cycle = 1 + r.below(CYCLES - 1);
            if r.chance(0.25) {
                FaultEvent::stuck_at(site, bit, r.next_bool(), cycle, 1 + r.below(8))
            } else {
                FaultEvent::flip(site, bit, cycle)
            }
        })
        .collect()
}

/// A bit stream that carries the sync word now and then, so faults hit
/// both the search and the locked state.
fn stimulus(sim: &mut dyn Simulator, cycle: u64) -> Result<(), CoreError> {
    let mut r = XorShift64::stream(0xb175, cycle);
    sim.set_input("enable", Value::Bool(true))?;
    sim.set_input("threshold", Value::bits(5, 11))?;
    sim.set_input("bit_in", Value::Bool(r.next_bool()))
}

fn counts(report: &CampaignReport) -> [usize; 4] {
    [
        report.masked(),
        report.silent(),
        report.detected(),
        report.timed_out(),
    ]
}

#[test]
fn reused_batches_classify_every_event_as_fresh_builds_do() {
    let sys = hcor::build_system().expect("hcor");
    let events = events(&sys);
    let tape = CompiledTape::compile(&sys, OptLevel::Full).expect("compile");
    // The reference driver builds a fresh simulator for every event.
    let fresh = run_campaign_par(
        &ParConfig::single(),
        || CompiledSim::from_tape(hcor::build_system()?, &tape),
        stimulus,
        CYCLES,
        &events,
    )
    .expect("reference campaign");
    // The counts this campaign gave before batches were reused, at
    // every geometry.
    assert_eq!(counts(&fresh), [20, 2, 0, 0]);
    for lanes in [1usize, 3, 8] {
        for threads in [1usize, 4] {
            let report = run_campaign_cached_par(
                &ParConfig::new(threads),
                hcor::build_system,
                &tape,
                stimulus,
                CYCLES,
                &events,
                lanes,
            )
            .expect("cached campaign");
            assert_eq!(
                report.outcomes, fresh.outcomes,
                "lanes={lanes} threads={threads}"
            );
        }
    }
}

#[test]
fn a_campaign_captures_its_system_once() {
    let sys = hcor::build_system().expect("hcor");
    let events = events(&sys);
    let tape = CompiledTape::compile(&sys, OptLevel::Full).expect("compile");
    for lanes in [1usize, 3, 8] {
        for threads in [1usize, 4] {
            let captures = AtomicUsize::new(0);
            run_campaign_cached_par(
                &ParConfig::new(threads),
                || {
                    captures.fetch_add(1, Ordering::Relaxed);
                    hcor::build_system()
                },
                &tape,
                stimulus,
                CYCLES,
                &events,
                lanes,
            )
            .expect("cached campaign");
            // One design serves the golden run and every worker's
            // batches; a capture per worker and lane count would be up
            // to 1 + T + [E mod L ≠ 0], one per event 1 + E.
            assert_eq!(captures.into_inner(), 1, "lanes={lanes} threads={threads}");
        }
    }
}
