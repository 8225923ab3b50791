//! Cycle-true fault injection on top of any [`Simulator`] back-end.
//!
//! The gate-level engine ([`ocapi-gatesim`]'s `fault` module) grades
//! stuck-at coverage on synthesized netlists; this module moves fault
//! injection up to the SFG/cycle-true level, where architectural
//! exploration happens. A [`FaultySim`] wraps an [`InterpSim`] or
//! [`CompiledSim`] (anything implementing [`Simulator`] with net/register
//! peek-poke support) and corrupts state at the start of selected cycles:
//!
//! * **transient bit flips** — one bit of a register, primary input or
//!   named net inverted for one cycle (an SEU model);
//! * **stuck-at faults** — one bit forced to 0 or 1 for a cycle window
//!   (a hard-defect model).
//!
//! Faults are scheduled by a declarative [`FaultPlan`]; plans can be
//! built explicitly or sampled with the deterministic in-tree
//! [`XorShift64`] PRNG, so every campaign is reproducible from its seed.
//! A campaign sweeps a list of fault events against a golden
//! (fault-free) run and classifies each as masked, silently corrupting
//! or detected — the raw material for detection-latency and
//! graceful-degradation studies (see the `fault_coverage` and
//! `ber_sweep` benchmark binaries). There are two campaign drivers, both
//! sharded over a worker pool with reports that are bit-identical for
//! every thread count:
//!
//! * [`run_campaign_par`] — the reference: one fresh [`FaultySim`] of
//!   any back-end per event, classified by comparing its recorded trace
//!   with the golden run's;
//! * [`run_campaign_batched`] — lane-batched over one
//!   [`CompiledDesign`]: chunks of events share one walk of its tape per
//!   cycle, and classify every event exactly as the reference does over
//!   [`CompiledSim`] at the tape's level, without a trace. The golden
//!   run keeps its primary outputs as raw words, one row a cycle; after
//!   every step each live lane's output slots are compared with that
//!   row, and the lane's first differing cycle is kept. Each event is
//!   resolved once into a [`LaneFault`] — its site's state word, type
//!   and window — which [`apply_lane_faults`] pokes straight into the
//!   lane. The golden simulator and every worker's batches
//!   ([`WorkerSims`], one per lane count, reset between chunks) share
//!   the design's template, so the driver captures and hashes nothing.
//!   [`run_campaign_cached_par`] forms that design from a builder and a
//!   cached tape: one capture and one hash check a campaign.
//!
//! Because both cycle-true back-ends expose identical peek/poke
//! semantics, the interpreted and compiled simulators stay
//! **cycle-equivalent under every injected fault** — the
//! `fault_injection` integration test drives both through identical
//! plans and asserts identical traces.
//!
//! [`InterpSim`]: crate::InterpSim
//! [`ocapi-gatesim`]: https://example.org/asic-dse

use crate::rng::XorShift64;
use crate::sim::batch::{BatchedSim, Word, WorkerSims};
use crate::sim::compiled::CompiledSim;
use crate::sim::hash::{CompiledDesign, CompiledTape};
use crate::sim::par::{map_indexed, map_indexed_with, ParConfig, ParError};
use crate::sim::Simulator;
use crate::system::System;
use crate::trace::Trace;
use crate::value::{SigType, Value};
use crate::CoreError;

use ocapi_fixp::Fix;
use ocapi_obs::{Counter, EventLog, Registry};

/// A state element a fault can target.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A named net: `instance.port` or a primary-input name, exactly as
    /// accepted by [`Simulator::poke_net`].
    Net(String),
    /// A register of a timed component instance.
    Reg {
        /// Timed-instance name.
        instance: String,
        /// Register name within the component.
        reg: String,
    },
}

impl FaultSite {
    /// Convenience constructor for a net site.
    pub fn net(name: &str) -> FaultSite {
        FaultSite::Net(name.to_owned())
    }

    /// Convenience constructor for a register site.
    pub fn reg(instance: &str, reg: &str) -> FaultSite {
        FaultSite::Reg {
            instance: instance.to_owned(),
            reg: reg.to_owned(),
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSite::Net(n) => write!(f, "net {n}"),
            FaultSite::Reg { instance, reg } => write!(f, "reg {instance}.{reg}"),
        }
    }
}

/// How the targeted bit is corrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Invert bit `bit` (modulo the site's width).
    Flip {
        /// Bit position, taken modulo the site's width.
        bit: u32,
    },
    /// Force bit `bit` to `level`.
    StuckAt {
        /// Bit position, taken modulo the site's width.
        bit: u32,
        /// The forced level: `true` = stuck-at-1, `false` = stuck-at-0.
        level: bool,
    },
}

/// One scheduled fault: a site, a corruption kind, and a cycle window.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Where to inject.
    pub site: FaultSite,
    /// What to do to the value.
    pub kind: FaultKind,
    /// First cycle (as reported by [`Simulator::cycle`] *before* the
    /// step) at which the fault is applied.
    pub cycle: u64,
    /// Number of consecutive cycles the fault is applied (≥ 1).
    pub duration: u64,
}

impl FaultEvent {
    /// A single-cycle transient bit flip at `cycle`.
    pub fn flip(site: FaultSite, bit: u32, cycle: u64) -> FaultEvent {
        FaultEvent {
            site,
            kind: FaultKind::Flip { bit },
            cycle,
            duration: 1,
        }
    }

    /// A stuck-at fault held for `duration` cycles starting at `cycle`.
    pub fn stuck_at(
        site: FaultSite,
        bit: u32,
        level: bool,
        cycle: u64,
        duration: u64,
    ) -> FaultEvent {
        FaultEvent {
            site,
            kind: FaultKind::StuckAt { bit, level },
            cycle,
            duration: duration.max(1),
        }
    }

    /// Whether the fault is applied in the step beginning at `cycle`.
    pub fn active_at(&self, cycle: u64) -> bool {
        in_window(self.cycle, self.duration, cycle)
    }
}

/// Whether a fault applied from `start` for `duration` cycles (at least
/// one) is applied in the step beginning at `cycle`.
fn in_window(start: u64, duration: u64, cycle: u64) -> bool {
    cycle >= start && cycle - start < duration.max(1)
}

/// A declarative schedule of fault events.
///
/// ```
/// use ocapi::{FaultEvent, FaultPlan, FaultSite};
///
/// let plan = FaultPlan::new()
///     .with(FaultEvent::flip(FaultSite::reg("u0", "r"), 2, 10))
///     .with(FaultEvent::stuck_at(FaultSite::net("bit_in"), 0, true, 4, 8));
/// assert_eq!(plan.events().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Builder-style append.
    #[must_use]
    pub fn with(mut self, event: FaultEvent) -> FaultPlan {
        self.events.push(event);
        self
    }

    /// Appends an event.
    pub fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// The scheduled events.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Every injectable site of `sys`: all registers of all timed
    /// instances, then all nets (primary inputs included — their nets
    /// carry the primary-input name).
    pub fn sites(sys: &System) -> Vec<FaultSite> {
        let mut out = Vec::new();
        for t in &sys.timed {
            for r in &t.comp.regs {
                out.push(FaultSite::reg(&t.name, &r.name));
            }
        }
        for net in &sys.nets {
            out.push(FaultSite::Net(net.name.clone()));
        }
        out
    }

    /// Samples a random plan: each cycle in `0..cycles` injects a
    /// single-cycle bit flip with probability `rate`, at a uniformly
    /// chosen site and bit. Deterministic in `seed`.
    pub fn random(sys: &System, cycles: u64, rate: f64, seed: u64) -> FaultPlan {
        let sites = FaultPlan::sites(sys);
        let mut plan = FaultPlan::new();
        if sites.is_empty() {
            return plan;
        }
        let mut rng = XorShift64::new(seed);
        for c in 0..cycles {
            if rng.chance(rate) {
                let site = sites[rng.index(sites.len())].clone();
                let width = site_width(sys, &site);
                let bit = rng.below(u64::from(width)) as u32;
                plan.push(FaultEvent::flip(site, bit, c));
            }
        }
        plan
    }

    /// The bit width of a site's value (1 for unknown sites), for
    /// choosing bit positions when building a plan by hand.
    pub fn site_width(sys: &System, site: &FaultSite) -> u32 {
        site_width(sys, site)
    }
}

/// The bit width of a site's value, for bit-position sampling.
fn site_width(sys: &System, site: &FaultSite) -> u32 {
    let w = match site {
        FaultSite::Net(name) => sys
            .nets
            .iter()
            .find(|n| &n.name == name)
            .map(|n| n.ty.width()),
        FaultSite::Reg { instance, reg } => sys
            .timed
            .iter()
            .find(|t| &t.name == instance)
            .and_then(|t| t.comp.regs.iter().find(|r| &r.name == reg))
            .map(|r| r.ty.width()),
    };
    w.unwrap_or(1).max(1)
}

/// Applies `kind` to `v`, staying inside the value's own representation:
/// bit words stay masked, fixed-point mantissas stay in range (the
/// corrupted word is re-sign-extended inside the declared word length),
/// floats are corrupted in their IEEE-754 bit pattern.
pub(crate) fn corrupt(v: Value, kind: FaultKind) -> Value {
    let (bit, stuck) = match kind {
        FaultKind::Flip { bit } => (bit, None),
        FaultKind::StuckAt { bit, level } => (bit, Some(level)),
    };
    let twiddle = |bits: u64, width: u32| -> u64 {
        let b = bit % width.max(1);
        match stuck {
            None => bits ^ (1u64 << b),
            Some(true) => bits | (1u64 << b),
            Some(false) => bits & !(1u64 << b),
        }
    };
    match v {
        Value::Bool(x) => Value::Bool(match stuck {
            None => !x,
            Some(level) => level,
        }),
        Value::Bits { width, bits } => Value::Bits {
            width,
            bits: twiddle(bits, width),
        },
        Value::Fixed(f) => {
            let fmt = f.format();
            let wl = fmt.wl();
            let raw = twiddle(f.mantissa() as u64, wl);
            // Sign-extend within the word length: any wl-bit pattern is a
            // representable mantissa, so this cannot over/underflow.
            let mant = ((raw << (64 - wl)) as i64) >> (64 - wl);
            Value::Fixed(Fix::from_raw(mant, fmt))
        }
        Value::Float(x) => Value::Float(f64::from_bits(twiddle(x.to_bits(), 64))),
    }
}

/// A fault-injecting wrapper around a cycle-true simulator.
///
/// Faults scheduled for the coming cycle are applied to the wrapped
/// simulator's state (via peek/poke) at the start of every
/// [`Simulator::step`], then the step runs normally. All other
/// [`Simulator`] operations delegate unchanged, so a `FaultySim` drops
/// into any harness that drives a `dyn Simulator`.
#[derive(Debug)]
pub struct FaultySim<S: Simulator> {
    inner: S,
    plan: FaultPlan,
    obs: Option<(Counter, EventLog)>,
}

impl<S: Simulator> FaultySim<S> {
    /// Wraps `inner`, scheduling the faults of `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultySim<S> {
        FaultySim {
            inner,
            plan,
            obs: None,
        }
    }

    /// Starts reporting into `reg`: every applied fault bumps the
    /// `fault.injected` counter and logs a cycle-stamped `"fault"` event
    /// (site + corruption kind) for forensics.
    pub fn attach_obs(&mut self, reg: &Registry) {
        self.obs = Some((reg.counter("fault.injected"), reg.events().clone()));
    }

    /// The wrapped simulator.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped simulator, mutably.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Unwraps the inner simulator.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The fault schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn apply_faults(&mut self) -> Result<(), CoreError> {
        let now = self.inner.cycle();
        for i in 0..self.plan.events.len() {
            if !self.plan.events[i].active_at(now) {
                continue;
            }
            let kind = self.plan.events[i].kind;
            match self.plan.events[i].site.clone() {
                FaultSite::Net(name) => {
                    let v = self.inner.peek_net(&name)?;
                    self.inner.poke_net(&name, corrupt(v, kind))?;
                }
                FaultSite::Reg { instance, reg } => {
                    let v = self.inner.peek_reg(&instance, &reg)?;
                    self.inner.poke_reg(&instance, &reg, corrupt(v, kind))?;
                }
            }
            if let Some((injected, events)) = &self.obs {
                injected.incr();
                events.record(
                    now,
                    "fault",
                    format!("{} {:?}", self.plan.events[i].site, kind),
                );
            }
        }
        Ok(())
    }
}

impl<S: Simulator> Simulator for FaultySim<S> {
    fn set_input(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        self.inner.set_input(name, value)
    }

    fn step(&mut self) -> Result<(), CoreError> {
        self.apply_faults()?;
        self.inner.step()
    }

    fn output(&self, name: &str) -> Result<Value, CoreError> {
        self.inner.output(name)
    }

    fn cycle(&self) -> u64 {
        self.inner.cycle()
    }

    fn enable_trace(&mut self) {
        self.inner.enable_trace();
    }

    fn trace(&self) -> &Trace {
        self.inner.trace()
    }

    fn peek_net(&self, name: &str) -> Result<Value, CoreError> {
        self.inner.peek_net(name)
    }

    fn poke_net(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        self.inner.poke_net(name, value)
    }

    fn peek_reg(&self, instance: &str, reg: &str) -> Result<Value, CoreError> {
        self.inner.peek_reg(instance, reg)
    }

    fn poke_reg(&mut self, instance: &str, reg: &str, value: Value) -> Result<(), CoreError> {
        self.inner.poke_reg(instance, reg, value)
    }
}

/// What one injected fault did to the design, relative to the golden run.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultOutcome {
    /// Outputs matched the golden run's cycle-for-cycle: the fault was
    /// logically masked.
    Masked,
    /// The run completed but a primary output diverged — the dangerous
    /// case: wrong answers with no alarm.
    SilentCorruption {
        /// First cycle (0-based) whose outputs differ from golden.
        first_divergence: u64,
    },
    /// The simulator itself flagged the fault with a typed error (e.g. a
    /// corrupted guard producing [`CoreError::ValueType`]).
    Detected {
        /// Cycle at which the error surfaced.
        cycle: u64,
        /// The reported error.
        error: CoreError,
    },
}

/// Aggregate result of a fault campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Per-event outcome, in the order the events were supplied.
    pub outcomes: Vec<(FaultEvent, FaultOutcome)>,
}

impl CampaignReport {
    /// Number of injected faults.
    pub fn total(&self) -> usize {
        self.outcomes.len()
    }

    /// Faults with no observable effect.
    pub fn masked(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, FaultOutcome::Masked))
            .count()
    }

    /// Faults that corrupted outputs without raising any error.
    pub fn silent(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, FaultOutcome::SilentCorruption { .. }))
            .count()
    }

    /// Faults the simulator reported as errors.
    pub fn detected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, o)| matches!(o, FaultOutcome::Detected { .. }))
            .count()
    }

    /// Always 0: every faulty run completes or fails with an error
    /// ([`FaultOutcome::Detected`]). Kept only because the repository
    /// benchmark still reads it, until its next change removes it with
    /// its `campaign.timed_out` metric.
    #[doc(hidden)]
    pub fn timed_out(&self) -> usize {
        0
    }

    /// Fraction of faults that silently corrupted outputs (0 if none
    /// were injected).
    pub fn silent_rate(&self) -> f64 {
        if self.outcomes.is_empty() {
            0.0
        } else {
            self.silent() as f64 / self.outcomes.len() as f64
        }
    }

    /// Mean cycles from injection to first observable divergence, over
    /// the silently-corrupting faults. `None` if there were none.
    pub fn mean_detection_latency(&self) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0u64;
        for (e, o) in &self.outcomes {
            let at = match o {
                FaultOutcome::SilentCorruption { first_divergence } => *first_divergence,
                FaultOutcome::Detected { cycle, .. } => *cycle,
                FaultOutcome::Masked => continue,
            };
            sum += at.saturating_sub(e.cycle) as f64;
            n += 1;
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }
}

/// Values compared for trace equality; floats by bit pattern so NaNs
/// compare equal to themselves.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// First cycle at which any non-input trace signal differs, if any.
fn first_output_divergence(golden: &Trace, faulty: &Trace) -> Option<u64> {
    let cycles = golden.len().min(faulty.len());
    for c in 0..cycles {
        for (g, f) in golden.signals.iter().zip(&faulty.signals) {
            if g.is_input {
                continue;
            }
            if !same_value(&g.values[c], &f.values[c]) {
                return Some(c as u64);
            }
        }
    }
    None
}

/// Runs the golden (fault-free) reference over `cycles` cycles and
/// returns its recorded trace.
fn golden_trace<S: Simulator>(
    make_sim: &impl Fn() -> Result<S, CoreError>,
    stimulus: &impl Fn(&mut dyn Simulator, u64) -> Result<(), CoreError>,
    cycles: u64,
) -> Result<Trace, CoreError> {
    let mut golden_sim = make_sim()?;
    golden_sim.enable_trace();
    for c in 0..cycles {
        stimulus(&mut golden_sim, c)?;
        golden_sim.step()?;
    }
    Ok(golden_sim.trace().clone())
}

/// One faulty run, classified against the golden trace: the work item
/// of [`run_campaign_par`].
fn run_event<S: Simulator>(
    make_sim: &impl Fn() -> Result<S, CoreError>,
    stimulus: &impl Fn(&mut dyn Simulator, u64) -> Result<(), CoreError>,
    cycles: u64,
    golden: &Trace,
    event: &FaultEvent,
) -> Result<FaultOutcome, CoreError> {
    let plan = FaultPlan::new().with(event.clone());
    let mut sim = FaultySim::new(make_sim()?, plan);
    sim.enable_trace();
    let mut detected: Option<(u64, CoreError)> = None;
    for c in 0..cycles {
        stimulus(&mut sim, c)?;
        if let Err(e) = sim.step() {
            detected = Some((c, e));
            break;
        }
    }
    Ok(match detected {
        Some((cycle, error)) => FaultOutcome::Detected { cycle, error },
        None => match first_output_divergence(golden, sim.trace()) {
            Some(first_divergence) => FaultOutcome::SilentCorruption { first_divergence },
            None => FaultOutcome::Masked,
        },
    })
}

/// Maps a sharded-map failure onto the campaign's error type.
fn par_error(e: ParError<CoreError>) -> CoreError {
    match e {
        ParError::Task { error, .. } => error,
        ParError::Panic { index } => CoreError::WorkerPanic { index },
    }
}

/// Runs a fault campaign: one golden run plus one faulty run per event,
/// each over `cycles` cycles with the same `stimulus` closure (called
/// before every step with the current cycle number). This is the
/// reference driver every other campaign path is checked against.
///
/// `make_sim` builds a fresh simulator per run, so runs are independent;
/// any back-end with peek/poke support works, and mixing back-ends
/// across campaigns is fine because they are cycle-equivalent.
///
/// The golden run executes once on the calling thread; every fault
/// event is then an independent work item of the
/// [`par`](crate::sim::par) engine, sharded across
/// [`ParConfig::threads`] worker threads. Because each item builds its
/// own simulator, is classified against the shared golden trace, and the
/// merged report is assembled in event order, the returned
/// [`CampaignReport`] is **bit-identical for every thread count**;
/// `ParConfig::single()` runs the events one after another on the
/// calling thread.
///
/// # Errors
///
/// Propagates errors from `make_sim`, from the golden (fault-free) run,
/// and from stimulus application. Errors raised by a *faulty* run's step
/// are not errors of the campaign — they are recorded as
/// [`FaultOutcome::Detected`]. A faulty run's closure that panics in a
/// worker surfaces as [`CoreError::WorkerPanic`] (never a hang or an
/// abort), and the reported failure is always the lowest-indexed one.
pub fn run_campaign_par<S: Simulator>(
    pool: &ParConfig,
    make_sim: impl Fn() -> Result<S, CoreError> + Sync,
    stimulus: impl Fn(&mut dyn Simulator, u64) -> Result<(), CoreError> + Sync,
    cycles: u64,
    events: &[FaultEvent],
) -> Result<CampaignReport, CoreError> {
    let golden = golden_trace(&make_sim, &stimulus, cycles)?;
    let outcomes = map_indexed(pool, events, |_, event| {
        run_event(&make_sim, &stimulus, cycles, &golden, event)
            .map(|outcome| (event.clone(), outcome))
    })
    .map_err(par_error)?;
    Ok(CampaignReport { outcomes })
}

/// One [`FaultEvent`] resolved against a [`BatchedSim`]'s system: the
/// state word its site names (a net's slot or a register) and the type
/// that word is read as, its corruption and its cycle window. A site the
/// batch cannot poke — an unknown name, or a net declared with another
/// type than its slot holds — resolves to the error the lane fails with
/// at the event's first active cycle, as [`FaultySim`] fails there.
/// Built once per run with [`LaneFault::resolve`], applied with
/// [`apply_lane_faults`], so no site is looked up by name per cycle.
#[derive(Debug, Clone)]
pub struct LaneFault {
    site: Result<(Word, SigType), CoreError>,
    kind: FaultKind,
    cycle: u64,
    duration: u64,
}

impl LaneFault {
    /// Resolves `event` against `sim`'s system.
    pub fn resolve(sim: &BatchedSim, event: &FaultEvent) -> LaneFault {
        let site = match &event.site {
            FaultSite::Net(name) => sim.net_word(name),
            FaultSite::Reg { instance, reg } => sim.reg_word(instance, reg),
        };
        LaneFault {
            site,
            kind: event.kind,
            cycle: event.cycle,
            duration: event.duration,
        }
    }

    /// Whether the fault is applied in the step beginning at `cycle`.
    fn active_at(&self, cycle: u64) -> bool {
        in_window(self.cycle, self.duration, cycle)
    }
}

/// Applies every fault of `faults` active at the batch's current cycle to
/// one live lane, in order, as [`FaultySim`] applies a plan to its
/// simulator: the lane's word is read at its type, corrupted as its
/// [`FaultKind`] says and written back. A fault that resolved to an
/// error masks the lane with it ([`BatchedSim::fail_lane`]), so one
/// lane's bad site never aborts its batch; a masked lane takes no
/// further faults. Both lane-batched drivers — the campaign chunk and
/// the BER bursts — call this before each step.
pub fn apply_lane_faults(sim: &mut BatchedSim, lane: usize, faults: &[LaneFault]) {
    let now = sim.cycle();
    for f in faults.iter().filter(|f| f.active_at(now)) {
        if !sim.alive(lane) {
            return;
        }
        match &f.site {
            Ok((word, ty)) => {
                let w = sim.word_mut(*word, lane);
                *w = corrupt(Value::from_raw(*ty, *w), f.kind).to_raw();
            }
            Err(e) => sim.fail_lane(lane, e.clone()),
        }
    }
}

/// The golden (fault-free) run of [`run_campaign_batched`]: the
/// [`CompiledSim`] of `design` over `cycles` cycles, its primary outputs
/// recorded as raw words ([`BatchedSim::raw_outputs`]), one row of
/// `outputs` words a cycle, in one allocation.
fn golden_rows(
    design: &CompiledDesign,
    stimulus: &impl Fn(&mut dyn Simulator, u64) -> Result<(), CoreError>,
    cycles: u64,
) -> Result<Vec<u64>, CoreError> {
    let mut sim = CompiledSim::from_design(design)?;
    let outputs = sim.system().primary_outputs.len();
    let mut rows = Vec::with_capacity(outputs * cycles as usize);
    for c in 0..cycles {
        stimulus(&mut sim, c)?;
        sim.step()?;
        rows.extend(sim.raw_outputs());
    }
    Ok(rows)
}

/// One lane-batched chunk of faulty runs: `chunk.len()` lanes of the
/// worker's batch of `design` for that lane count (built on first use,
/// reset after), stepped through one shared tape walk per cycle, each
/// lane injecting its own event. The work item of
/// [`run_campaign_batched`].
///
/// Per-lane semantics replicate [`run_event`] exactly: a failing fault
/// application masks *that lane* at the pre-step cycle (becoming its
/// [`FaultOutcome::Detected`] record) while the remaining lanes keep
/// running. After every step each live lane's raw outputs are compared
/// with that cycle's golden row, and its first differing cycle is kept;
/// a lane error wins over a divergence.
fn run_event_chunk(
    sims: &mut WorkerSims,
    design: &CompiledDesign,
    stimulus: &impl Fn(&mut dyn Simulator, u64) -> Result<(), CoreError>,
    golden: &[u64],
    cycles: u64,
    chunk: &[FaultEvent],
) -> Result<Vec<FaultOutcome>, CoreError> {
    let lanes = chunk.len();
    let sim = sims.get(lanes, design)?;
    let faults: Vec<LaneFault> = chunk.iter().map(|e| LaneFault::resolve(sim, e)).collect();
    let outputs = sim.system().primary_outputs.len();
    let mut diverged: Vec<Option<u64>> = vec![None; lanes];
    for c in 0..cycles {
        stimulus(sim, c)?;
        for (lane, fault) in faults.iter().enumerate() {
            apply_lane_faults(sim, lane, std::slice::from_ref(fault));
        }
        if sim.step().is_err() {
            // Every lane is masked; the per-lane errors are recorded.
            break;
        }
        let row = &golden[c as usize * outputs..][..outputs];
        for (lane, first) in diverged.iter_mut().enumerate() {
            let differs = || !sim.raw_outputs(lane).eq(row.iter().copied());
            if first.is_none() && sim.alive(lane) && differs() {
                *first = Some(c);
            }
        }
    }
    Ok(diverged
        .into_iter()
        .enumerate()
        .map(|(lane, first)| match (sim.lane_error(lane), first) {
            (Some((cycle, error)), _) => FaultOutcome::Detected {
                cycle: *cycle,
                error: error.clone(),
            },
            (None, Some(first_divergence)) => FaultOutcome::SilentCorruption { first_divergence },
            (None, None) => FaultOutcome::Masked,
        })
        .collect())
}

/// [`run_campaign_par`] over the lane-batched compiled back-end
/// ([`BatchedSim`]) of one [`CompiledDesign`]: events are grouped into
/// chunks of `lanes`, every chunk walks the design's micro-op tape once
/// per cycle for all of its lanes, and the chunks shard across
/// [`ParConfig::threads`] worker threads. Nothing is compiled, captured
/// or hashed: the golden run and every worker's batches are built from
/// the design and share its template and program — the campaign path of
/// the persistent simulation service, where one cached design serves
/// thousands of jobs. Each worker keeps one batch per lane count and
/// resets it between chunks ([`WorkerSims`]), and drops it after a chunk
/// that fails or panics.
///
/// The golden run uses the design's scalar [`CompiledSim`] and records
/// its primary outputs as raw words, one row a cycle, in one
/// allocation. No lane records a trace: after every step each live
/// lane's output slots are compared with that cycle's row and its
/// first differing cycle is kept, and every event's site is resolved
/// once per chunk ([`LaneFault`]). Raw words compare as the reference
/// compares values (floats by bit pattern) because every slot holds its
/// value's canonical [`Value::to_raw`] word. `stimulus` must be a pure
/// function of the cycle number (it is invoked once per cycle and
/// broadcast to every live lane), which every campaign stimulus already
/// satisfies — per-run divergence comes from the injected faults, never
/// the stimulus.
///
/// **Determinism:** a lane runs the event at global index
/// `chunk * lanes + lane` and injects exactly what the scalar path
/// injects for that index, and the merged report is assembled in chunk
/// order, so the classification of every event is byte-identical to
/// [`run_campaign_par`] over [`CompiledSim`] at the tape's level, for
/// every lane count and every thread count. Drivers that *sample*
/// per-event randomness must key it on that global index (e.g.
/// [`XorShift64::stream`]), never on lane position.
///
/// # Errors
///
/// As [`run_campaign_par`]: errors from the golden run and stimulus
/// application propagate; per-lane faulty-run errors are recorded as
/// [`FaultOutcome::Detected`].
pub fn run_campaign_batched(
    pool: &ParConfig,
    design: &CompiledDesign,
    stimulus: impl Fn(&mut dyn Simulator, u64) -> Result<(), CoreError> + Sync,
    cycles: u64,
    events: &[FaultEvent],
    lanes: usize,
) -> Result<CampaignReport, CoreError> {
    let golden = golden_rows(design, &stimulus, cycles)?;
    let chunks: Vec<&[FaultEvent]> = events.chunks(lanes.max(1)).collect();
    let parts = map_indexed_with(pool, &chunks, WorkerSims::default, |sims, _, chunk| {
        run_event_chunk(sims, design, &stimulus, &golden, cycles, chunk)
            .map(|outcomes| chunk.iter().cloned().zip(outcomes).collect::<Vec<_>>())
    })
    .map_err(par_error)?;
    Ok(CampaignReport {
        outcomes: parts.into_iter().flatten().collect(),
    })
}

/// [`run_campaign_batched`] over the design that one `make_sys` call and
/// a cached `tape` form ([`CompiledDesign::new`]): one capture and one
/// structural hash check a campaign. Kept only because the repository
/// benchmark calls it; every other caller forms its design once and
/// calls [`run_campaign_batched`].
///
/// # Errors
///
/// As [`run_campaign_batched`], plus `make_sys`'s error and
/// [`CoreError::TapeMismatch`] when it builds a system the tape was not
/// compiled from.
pub fn run_campaign_cached_par(
    pool: &ParConfig,
    make_sys: impl Fn() -> Result<System, CoreError> + Sync,
    tape: &CompiledTape,
    stimulus: impl Fn(&mut dyn Simulator, u64) -> Result<(), CoreError> + Sync,
    cycles: u64,
    events: &[FaultEvent],
    lanes: usize,
) -> Result<CampaignReport, CoreError> {
    let design = CompiledDesign::new(make_sys()?, tape.level(), |_| Some(tape.clone()))?;
    run_campaign_batched(pool, &design, stimulus, cycles, events, lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::SigType;
    use crate::{Component, InterpSim, System};
    use ocapi_fixp::{Format, Overflow, Rounding};

    fn counter_system() -> System {
        let c = Component::build("counter");
        let out = c.output("count", SigType::Bits(8)).unwrap();
        let r = c.reg("r", SigType::Bits(8)).unwrap();
        let sfg = c.sfg("tick").unwrap();
        let q = c.q(r);
        sfg.drive(out, &q).unwrap();
        sfg.next(r, &(q.clone() + c.const_bits(8, 1))).unwrap();
        let comp = c.finish().unwrap();
        let mut sb = System::build("demo");
        let inst = sb.add_component("u0", comp).unwrap();
        sb.output("count", inst, "count").unwrap();
        sb.finish().unwrap()
    }

    #[test]
    fn corrupt_flips_and_forces_bits() {
        let v = Value::bits(8, 0b0001_0010);
        assert_eq!(
            corrupt(v, FaultKind::Flip { bit: 1 }),
            Value::bits(8, 0b0001_0000)
        );
        assert_eq!(
            corrupt(
                v,
                FaultKind::StuckAt {
                    bit: 0,
                    level: true
                }
            ),
            Value::bits(8, 0b0001_0011)
        );
        assert_eq!(
            corrupt(
                v,
                FaultKind::StuckAt {
                    bit: 4,
                    level: false
                }
            ),
            Value::bits(8, 0b0000_0010)
        );
        // Bit positions wrap at the width instead of escaping it.
        assert_eq!(
            corrupt(v, FaultKind::Flip { bit: 9 }),
            Value::bits(8, 0b0001_0000)
        );
        assert_eq!(
            corrupt(Value::Bool(false), FaultKind::Flip { bit: 0 }),
            Value::Bool(true)
        );
    }

    #[test]
    fn corrupt_fixed_stays_in_range() {
        let fmt = Format::new(6, 2).unwrap();
        // Flip every bit position of every representable mantissa: the
        // result must always be constructible (no assert in from_raw).
        for m in -32..=31 {
            let v = Value::Fixed(Fix::from_raw(m, fmt));
            for bit in 0..6 {
                let c = corrupt(v, FaultKind::Flip { bit });
                let f = match c {
                    Value::Fixed(f) => f,
                    other => panic!("unexpected {other:?}"),
                };
                assert_eq!(f.format(), fmt);
                // Double-flip restores the value.
                assert_eq!(corrupt(c, FaultKind::Flip { bit }), v);
            }
        }
    }

    #[test]
    fn corrupt_float_flips_bit_pattern() {
        let v = Value::Float(1.5);
        let c = corrupt(v, FaultKind::Flip { bit: 63 });
        assert_eq!(c, Value::Float(-1.5));
        assert_eq!(corrupt(c, FaultKind::Flip { bit: 63 }), v);
    }

    #[test]
    fn transient_flip_perturbs_one_cycle() {
        let sim = InterpSim::new(counter_system()).unwrap();
        let plan = FaultPlan::new().with(FaultEvent::flip(FaultSite::reg("u0", "r"), 7, 3));
        let mut f = FaultySim::new(sim, plan);
        for expect in [0u64, 1, 2, 128 + 3, 128 + 4] {
            f.step().unwrap();
            assert_eq!(
                f.output("count").unwrap(),
                Value::bits(8, expect),
                "cycle {}",
                f.cycle()
            );
        }
    }

    #[test]
    fn stuck_at_holds_for_duration() {
        let sim = InterpSim::new(counter_system()).unwrap();
        // Force bit 0 of the counter register to 0 for cycles 0..4.
        let plan = FaultPlan::new().with(FaultEvent::stuck_at(
            FaultSite::reg("u0", "r"),
            0,
            false,
            0,
            4,
        ));
        let mut f = FaultySim::new(sim, plan);
        let mut seen = Vec::new();
        for _ in 0..6 {
            f.step().unwrap();
            seen.push(f.output("count").unwrap());
        }
        // Each faulty cycle starts by forcing r's LSB low: r is pinned
        // to 0, so the count stays 0 and only resumes after the window.
        assert_eq!(
            seen,
            [0u64, 0, 0, 0, 1, 2]
                .iter()
                .map(|v| Value::bits(8, *v))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn plan_random_is_deterministic_and_in_bounds() {
        let sys = counter_system();
        let a = FaultPlan::random(&sys, 100, 0.3, 42);
        let b = FaultPlan::random(&sys, 100, 0.3, 42);
        assert_eq!(a, b);
        let c = FaultPlan::random(&sys, 100, 0.3, 43);
        assert_ne!(a, c);
        assert!(!a.events().is_empty());
        for e in a.events() {
            assert!(e.cycle < 100);
            assert_eq!(e.duration, 1);
        }
    }

    #[test]
    fn campaign_classifies_outcomes() {
        let events = vec![
            // Flip the counter MSB: visible on the output → silent.
            FaultEvent::flip(FaultSite::reg("u0", "r"), 7, 2),
            // Flip a bit after the run window: no effect → masked.
            FaultEvent::flip(FaultSite::reg("u0", "r"), 0, 50),
        ];
        let report = run_campaign_par(
            &ParConfig::single(),
            || InterpSim::new(counter_system()),
            |_, _| Ok(()),
            10,
            &events,
        )
        .unwrap();
        assert_eq!(report.total(), 2);
        assert_eq!(report.silent(), 1);
        assert_eq!(report.masked(), 1);
        assert_eq!(report.detected(), 0);
        assert!((report.silent_rate() - 0.5).abs() < 1e-12);
        match &report.outcomes[0].1 {
            FaultOutcome::SilentCorruption { first_divergence } => {
                assert_eq!(*first_divergence, 2)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(report.mean_detection_latency(), Some(0.0));
    }

    #[test]
    fn poke_type_mismatch_is_reported() {
        let mut sim = InterpSim::new(counter_system()).unwrap();
        let fmt = Format::new(8, 4).unwrap();
        let bad = Value::Fixed(Fix::from_f64(
            0.5,
            fmt,
            Rounding::Nearest,
            Overflow::Saturate,
        ));
        let err = sim.poke_reg("u0", "r", bad).unwrap_err();
        assert!(matches!(err, CoreError::ValueType { .. }));
        let err = sim.poke_net("nope", Value::Bool(true)).unwrap_err();
        assert!(matches!(err, CoreError::UnknownName { .. }));
    }
}
