//! Observability bundles for the simulation back-ends.
//!
//! Every simulator takes `attach_obs(&Registry)` and resolves its own
//! bundle — the counters, phase spans and event-log handle it reports
//! into — once from the [`ocapi_obs::Registry`] at attach time, so the
//! per-cycle cost is a handful of relaxed atomic adds and one clock
//! read per phase. A simulator with no bundle attached pays a single
//! `Option` test per phase and nothing else. Since each engine picks
//! its own bundle, an engine can never report under another's names.
//!
//! Counter names are `{backend}.{what}` (`interp.cycles`,
//! `compiled.sfg_firings`, …); the phase spans hang off one root span
//! per back-end, mirroring the paper's three-phase cycle scheduler:
//!
//! * `interp` ([`InterpObs`]) → `transition_select`, `evaluate`,
//!   `register_update`
//! * `compiled` ([`TapeObs::compiled`]) → `guard_pre_tape`,
//!   `transition_select`, `tape`, `register_update`
//! * `batch` ([`TapeObs::batch`]) → the same four phases as `compiled`
//!
//! The tape simulator (`BatchedSim`, and `CompiledSim` as its one-lane
//! form) steps with one [`TapeObs`], so one step reports `compiled.*`
//! or `batch.*` with the same phase timers.
//!
//! Both the span *structure* and the per-span hit counts are pure
//! functions of the workload — the deterministic half of the obs
//! contract — while the recorded durations land in the profile's
//! `timing` section only.

use ocapi_obs::{Counter, EventLog, Registry, Span};

use crate::sim::opt::OptStats;

/// The interpreted back-end's bundle: counters, the three phase spans
/// under `interp`, and the event log (deadlock forensics). Several
/// interpreters attached to one registry share the same counters and
/// spans, so their contributions sum.
#[derive(Debug)]
pub(crate) struct InterpObs {
    /// Completed clock cycles.
    pub(crate) cycles: Counter,
    /// Signal-flow graphs (and untimed blocks) fired.
    pub(crate) sfg_firings: Counter,
    /// Work-list convergence iterations of the evaluation phase.
    pub(crate) convergence_iters: Counter,
    /// Register writes committed.
    pub(crate) reg_updates: Counter,
    /// Transition selection (phase 0).
    pub(crate) sp_select: Span,
    /// Token production + evaluation (phases 1+2).
    pub(crate) sp_eval: Span,
    /// Register update and state commit (phase 3).
    pub(crate) sp_commit: Span,
    /// Forensics sink (deadlocks).
    pub(crate) events: EventLog,
}

impl InterpObs {
    pub(crate) fn new(reg: &Registry) -> InterpObs {
        let root = reg.span("interp");
        InterpObs {
            cycles: reg.counter("interp.cycles"),
            sfg_firings: reg.counter("interp.sfg_firings"),
            convergence_iters: reg.counter("interp.convergence_iters"),
            reg_updates: reg.counter("interp.reg_updates"),
            sp_select: root.child("transition_select"),
            sp_eval: root.child("evaluate"),
            sp_commit: root.child("register_update"),
            events: reg.events().clone(),
        }
    }
}

/// The handles one tape simulator (`BatchedSim`, and `CompiledSim` as
/// its one-lane form) reports into: the four phase spans under its
/// root, one counter bumped per cycle, and the engine's own extras.
#[derive(Debug)]
pub(crate) struct TapeObs {
    pub(crate) pre: Span,
    pub(crate) select: Span,
    pub(crate) eval: Span,
    pub(crate) commit: Span,
    /// One per cycle: `compiled.cycles` or `batch.tape_passes`.
    passes: Counter,
    /// `compiled.sfg_firings` and `compiled.reg_updates`.
    activity: Option<(Counter, Counter)>,
    /// `batch.masked_lanes`.
    pub(crate) masked: Option<Counter>,
}

impl TapeObs {
    fn phases(reg: &Registry, root: &str, passes: Counter) -> TapeObs {
        let root = reg.span(root);
        TapeObs {
            pre: root.child("guard_pre_tape"),
            select: root.child("transition_select"),
            eval: root.child("tape"),
            commit: root.child("register_update"),
            passes,
            activity: None,
            masked: None,
        }
    }

    /// The `compiled` bundle. The build-time optimizer statistics are
    /// flushed into the `compiled.opt.*` counters here, once per
    /// attach; they are pure functions of the system and therefore live
    /// in the deterministic namespace. `compiled.convergence_iters`
    /// stays at zero: the tape is statically scheduled.
    pub(crate) fn compiled(reg: &Registry, opt: &OptStats) -> TapeObs {
        for (what, n) in [
            ("instrs_in", opt.instrs_in),
            ("instrs_out", opt.instrs_out),
            ("folded", opt.folded),
            ("cse_hits", opt.cse_hits),
            ("dce_removed", opt.dce_removed),
            ("slots_saved", opt.slots_saved),
        ] {
            reg.counter(&format!("compiled.opt.{what}")).add(n);
        }
        reg.counter("compiled.convergence_iters");
        TapeObs {
            activity: Some((
                reg.counter("compiled.sfg_firings"),
                reg.counter("compiled.reg_updates"),
            )),
            ..TapeObs::phases(reg, "compiled", reg.counter("compiled.cycles"))
        }
    }

    /// The `batch` bundle. All three counters are **deterministic** —
    /// pure functions of the workload and the lane geometry:
    ///
    /// * `batch.lanes` — lane slots attached, flushed here;
    /// * `batch.masked_lanes` — lanes masked off mid-run by a per-lane
    ///   error (incremented at the masking event);
    /// * `batch.tape_passes` — full walks of the main tape (one per
    ///   batched step, regardless of lane count — the amortization the
    ///   batch exists for).
    pub(crate) fn batch(reg: &Registry, lanes: usize) -> TapeObs {
        reg.counter("batch.lanes").add(lanes as u64);
        TapeObs {
            masked: Some(reg.counter("batch.masked_lanes")),
            ..TapeObs::phases(reg, "batch", reg.counter("batch.tape_passes"))
        }
    }

    /// Counts one finished cycle with its SFG firings and register
    /// updates (summed over the live lanes).
    pub(crate) fn count_cycle(&self, firings: u64, reg_updates: u64) {
        self.passes.incr();
        if let Some((f, u)) = &self.activity {
            f.add(firings);
            u.add(reg_updates);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_creates_the_phase_tree_up_front() {
        let reg = Registry::new();
        let _i = InterpObs::new(&reg);
        let _c = TapeObs::compiled(&reg, &OptStats::default());
        let roots = reg.roots();
        assert_eq!(roots.len(), 2);
        let labels: Vec<Vec<String>> = roots
            .iter()
            .map(|r| r.children().iter().map(|c| c.label().to_owned()).collect())
            .collect();
        // Sorted by label: compiled first, interp second.
        assert_eq!(roots[0].label(), "compiled");
        assert!(labels[0].iter().any(|l| l == "guard_pre_tape"));
        assert!(labels[0].iter().any(|l| l == "tape"));
        assert_eq!(roots[1].label(), "interp");
        assert!(labels[1].iter().any(|l| l == "evaluate"));
        assert_eq!((labels[0].len(), labels[1].len()), (4, 3));
    }

    #[test]
    fn two_attaches_share_counters() {
        let reg = Registry::new();
        let a = InterpObs::new(&reg);
        let b = InterpObs::new(&reg);
        a.cycles.add(2);
        b.cycles.add(3);
        assert_eq!(reg.counter("interp.cycles").get(), 5);
        assert_eq!(reg.roots().len(), 1);
    }
}
