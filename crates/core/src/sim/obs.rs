//! Observability bundles for the simulation back-ends.
//!
//! A [`SimObs`] is the set of counters, phase spans and the event-log
//! handle one simulator reports into, resolved once from an
//! [`ocapi_obs::Registry`] at attach time so the per-cycle cost is a
//! handful of relaxed atomic adds and one clock read per phase. A
//! simulator with no bundle attached pays a single `Option` test per
//! phase and nothing else.
//!
//! Counter names are `{backend}.{what}` (`interp.cycles`,
//! `compiled.sfg_firings`, …); the phase spans hang off one root span
//! per back-end, mirroring the paper's three-phase cycle scheduler:
//!
//! * `interp` → `transition_select`, `evaluate`, `register_update`,
//!   `trace`
//! * `compiled` → `guard_pre_tape`, `transition_select`, `tape`,
//!   `register_update`, `trace`
//!
//! Both the span *structure* and the per-span hit counts are pure
//! functions of the workload — the deterministic half of the obs
//! contract — while the recorded durations land in the profile's
//! `timing` section only.

use ocapi_obs::{Counter, EventLog, Registry, Span};

use crate::sim::opt::OptStats;

/// Counter handles for the compiled back-end's build-time tape
/// optimizer. The values are pure functions of the captured system (the
/// deterministic namespace); `CompiledSim::attach_obs` records them once
/// per attach.
#[derive(Debug, Clone)]
pub(crate) struct OptCounters {
    instrs_in: Counter,
    instrs_out: Counter,
    folded: Counter,
    cse_hits: Counter,
    dce_removed: Counter,
    slots_saved: Counter,
}

impl OptCounters {
    fn new(reg: &Registry, backend: &str) -> OptCounters {
        OptCounters {
            instrs_in: reg.counter(&format!("{backend}.opt.instrs_in")),
            instrs_out: reg.counter(&format!("{backend}.opt.instrs_out")),
            folded: reg.counter(&format!("{backend}.opt.folded")),
            cse_hits: reg.counter(&format!("{backend}.opt.cse_hits")),
            dce_removed: reg.counter(&format!("{backend}.opt.dce_removed")),
            slots_saved: reg.counter(&format!("{backend}.opt.slots_saved")),
        }
    }

    pub(crate) fn record(&self, s: &OptStats) {
        self.instrs_in.add(s.instrs_in);
        self.instrs_out.add(s.instrs_out);
        self.folded.add(s.folded);
        self.cse_hits.add(s.cse_hits);
        self.dce_removed.add(s.dce_removed);
        self.slots_saved.add(s.slots_saved);
    }
}

/// Counter + span + event-log handles for one simulator back-end.
///
/// Build with [`SimObs::interp`] or [`SimObs::compiled`] and hand to
/// `InterpSim::attach_obs` / `CompiledSim::attach_obs`. Cloning shares
/// the underlying atomics, so several simulators of the same back-end
/// attached to one registry aggregate into the same counters and spans.
#[derive(Debug, Clone)]
pub struct SimObs {
    /// Completed clock cycles.
    pub(crate) cycles: Counter,
    /// Signal-flow graphs (and untimed blocks) fired.
    pub(crate) sfg_firings: Counter,
    /// Work-list convergence iterations of the evaluation phase
    /// (0 for the compiled back-end: its tape is statically scheduled).
    pub(crate) convergence_iters: Counter,
    /// Register writes committed.
    pub(crate) reg_updates: Counter,
    /// Guard pre-tape execution (compiled back-end only).
    pub(crate) sp_pre: Option<Span>,
    /// Transition selection (phase 0).
    pub(crate) sp_select: Span,
    /// Token production + evaluation (phases 1+2) / main tape.
    pub(crate) sp_eval: Span,
    /// Register update and state commit (phase 3).
    pub(crate) sp_commit: Span,
    /// Trace recording, when enabled.
    pub(crate) sp_trace: Span,
    /// Forensics sink (deadlocks).
    pub(crate) events: EventLog,
    /// Tape-optimizer counters (compiled back-end only).
    pub(crate) opt: Option<OptCounters>,
}

impl SimObs {
    /// The bundle for the interpreted (cycle-scheduler) back-end.
    pub fn interp(reg: &Registry) -> SimObs {
        SimObs::attach(reg, "interp", "evaluate", false)
    }

    /// The bundle for the compiled (levelized-tape) back-end.
    pub fn compiled(reg: &Registry) -> SimObs {
        SimObs::attach(reg, "compiled", "tape", true)
    }

    fn attach(reg: &Registry, backend: &str, eval_label: &str, pre: bool) -> SimObs {
        let root = reg.span(backend);
        SimObs {
            cycles: reg.counter(&format!("{backend}.cycles")),
            sfg_firings: reg.counter(&format!("{backend}.sfg_firings")),
            convergence_iters: reg.counter(&format!("{backend}.convergence_iters")),
            reg_updates: reg.counter(&format!("{backend}.reg_updates")),
            sp_pre: pre.then(|| root.child("guard_pre_tape")),
            sp_select: root.child("transition_select"),
            sp_eval: root.child(eval_label),
            sp_commit: root.child("register_update"),
            sp_trace: root.child("trace"),
            events: reg.events().clone(),
            opt: pre.then(|| OptCounters::new(reg, backend)),
        }
    }

    /// The cycles counter (e.g. for throughput reporting).
    pub fn cycles(&self) -> &Counter {
        &self.cycles
    }
}

/// Observability bundle for the lane-batched executor
/// (`ocapi::sim::batch::BatchedSim`).
///
/// All three counters are **deterministic** — pure functions of the
/// workload and the lane geometry, never of wall time or thread
/// scheduling:
///
/// * `batch.lanes` — lane slots attached (flushed once per
///   `BatchedSim::attach_obs`, like the optimizer counters);
/// * `batch.masked_lanes` — lanes masked off mid-run by a per-lane
///   error (incremented at the masking event);
/// * `batch.tape_passes` — full walks of the main tape (one per batched
///   step, regardless of lane count — the amortization the batch
///   exists for);
/// * `batch.word_ops` — packed `u64` word operations executed by the
///   bitsliced Bool fast path (each one advances up to 64 lanes at
///   once; 0 when the tape has no word-eligible runs or a masked lane
///   forces the scalar fallback).
///
/// The phase spans hang off a `batch` root and mirror the compiled
/// back-end's tree: `guard_pre_tape`, `transition_select`, `tape`,
/// `register_update`, `trace`.
#[derive(Debug, Clone)]
pub struct BatchObs {
    /// Lane slots attached (flushed at attach time).
    pub(crate) lanes: Counter,
    /// Lanes masked off by a per-lane error.
    pub(crate) masked_lanes: Counter,
    /// Full tape walks (one per batched step).
    pub(crate) tape_passes: Counter,
    /// Packed word operations executed by the bitsliced fast path.
    pub(crate) word_ops: Counter,
    /// Guard pre-tape execution.
    pub(crate) sp_pre: Span,
    /// Per-lane transition selection.
    pub(crate) sp_select: Span,
    /// Main tape execution across all live lanes.
    pub(crate) sp_eval: Span,
    /// Per-lane register commit.
    pub(crate) sp_commit: Span,
    /// Per-lane trace recording, when enabled.
    pub(crate) sp_trace: Span,
}

impl BatchObs {
    /// The bundle for the lane-batched executor, resolved from `reg`.
    pub fn new(reg: &Registry) -> BatchObs {
        let root = reg.span("batch");
        BatchObs {
            lanes: reg.counter("batch.lanes"),
            masked_lanes: reg.counter("batch.masked_lanes"),
            tape_passes: reg.counter("batch.tape_passes"),
            word_ops: reg.counter("batch.word_ops"),
            sp_pre: root.child("guard_pre_tape"),
            sp_select: root.child("transition_select"),
            sp_eval: root.child("tape"),
            sp_commit: root.child("register_update"),
            sp_trace: root.child("trace"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attach_creates_the_phase_tree_up_front() {
        let reg = Registry::new();
        let _i = SimObs::interp(&reg);
        let _c = SimObs::compiled(&reg);
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
        assert!(labels[1].len() >= 4 && labels[0].len() >= 4);
    }

    #[test]
    fn two_attaches_share_counters() {
        let reg = Registry::new();
        let a = SimObs::interp(&reg);
        let b = SimObs::interp(&reg);
        a.cycles.add(2);
        b.cycles.add(3);
        assert_eq!(reg.counter("interp.cycles").get(), 5);
        assert_eq!(reg.roots().len(), 1);
    }
}
