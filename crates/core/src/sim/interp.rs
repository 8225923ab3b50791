//! The interpreted simulator: the three-phase cycle scheduler walking the
//! in-memory signal-flow-graph data structure (§4 of the paper).
//!
//! Each clock cycle runs:
//!
//! 0. **Transition selection** — every FSM picks a transition (guards read
//!    register current values and the values nets held at the end of the
//!    previous cycle) and marks its SFGs for execution.
//! 1. **Token production** — marked-SFG outputs that depend only on
//!    registered and constant signals are evaluated and their tokens put
//!    on the interconnect.
//! 2. **Evaluation** — marked SFGs and untimed blocks fire as their input
//!    tokens arrive, until everything has fired. If an iteration makes no
//!    progress, the system is declared deadlocked: a combinational loop.
//! 3. **Register update** — next values are committed.
//!
//! Phases 1 and 2 are one work-list loop here: token production is simply
//! the first wave of assignments, whose input-dependency set is empty.

use ocapi_obs::Registry;

use crate::comp::{NodeId, Reg};
use crate::fsm::StateRef;
use crate::sim::eval::{eval_node, EvalCache};
use crate::sim::hash::hash_system;
use crate::sim::obs::InterpObs;
use crate::sim::snapshot::{held_outputs, taken, SimSnapshot};
use crate::sim::Simulator;
use crate::system::{NetSource, System};
use crate::trace::Trace;
use crate::trace::{make_trace, traced_nets};
use crate::value::{SigType, Value};
use crate::CoreError;

#[derive(Debug, Clone, Copy)]
enum Target {
    Out { port: usize, node: NodeId },
    RegWrite { reg: Reg, node: NodeId },
}

#[derive(Debug, Clone, Copy)]
struct Pend {
    inst: usize,
    sfg: usize,
    target: Target,
}

/// Per-cycle work lists, kept across steps so a steady-state
/// [`Simulator::step`] does not allocate. Each is cleared where `step`
/// starts using it.
#[derive(Debug, Default)]
struct StepScratch {
    pending: Vec<Pend>,
    next_states: Vec<StateRef>,
    /// Outputs of the current instance driven by its marked SFGs.
    driven: Vec<bool>,
    reg_writes: Vec<(usize, Reg, Value)>,
    /// Untimed blocks fired this cycle.
    fired: Vec<bool>,
    in_buf: Vec<Value>,
    out_buf: Vec<Value>,
}

/// The interpreted (cycle-scheduler) simulator.
///
/// # Example
///
/// ```
/// use ocapi::{Component, SigType, System, Value, InterpSim, Simulator};
///
/// # fn main() -> Result<(), ocapi::CoreError> {
/// // A free-running 4-bit counter.
/// let c = Component::build("counter");
/// let out = c.output("count", SigType::Bits(4))?;
/// let r = c.reg("r", SigType::Bits(4))?;
/// let sfg = c.sfg("tick")?;
/// let q = c.q(r);
/// sfg.drive(out, &q)?;
/// sfg.next(r, &(q.clone() + c.const_bits(4, 1)))?;
/// let comp = c.finish()?;
///
/// let mut sb = System::build("demo");
/// let inst = sb.add_component("u0", comp)?;
/// sb.output("count", inst, "count")?;
/// let mut sim = InterpSim::new(sb.finish()?)?;
/// sim.run(3)?;
/// assert_eq!(sim.output("count")?, Value::bits(4, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct InterpSim {
    sys: System,
    nets: Vec<Value>,
    fresh: Vec<bool>,
    /// Freshness at cycle start: primary inputs and constants.
    fresh_at_start: Vec<bool>,
    regs: Vec<Vec<Value>>,
    states: Vec<StateRef>,
    /// Per untimed block, per output port: the value the block left
    /// there when it last fired. A block reads it back as the held value
    /// of an output that drives no net; a connected output reads its net.
    held: Vec<Vec<Value>>,
    caches: Vec<EvalCache>,
    /// Per timed inst without an FSM: every SFG, precomputed so phase 0
    /// borrows the list instead of allocating it each cycle.
    all_sfgs: Vec<Vec<crate::comp::SfgRef>>,
    scratch: StepScratch,
    cycle: u64,
    trace: Option<Trace>,
    full_trace: Option<Trace>,
    obs: Option<InterpObs>,
    design_hash: u64,
}

impl InterpSim {
    /// Prepares a simulator for the system; registers take their initial
    /// values, nets their type's zero.
    ///
    /// # Errors
    ///
    /// Currently infallible, but returns `Result` for parity with
    /// [`crate::CompiledSim::new`], which can reject designs.
    pub fn new(sys: System) -> Result<InterpSim, CoreError> {
        let nets: Vec<Value> = sys
            .nets
            .iter()
            .map(|n| match &n.source {
                NetSource::Constant(v) => *v,
                _ => n.ty.zero(),
            })
            .collect();
        let regs = sys
            .timed
            .iter()
            .map(|t| t.comp.regs.iter().map(|r| r.init).collect())
            .collect();
        let states = sys
            .timed
            .iter()
            .map(|t| t.comp.fsm.as_ref().map_or(StateRef(0), |f| f.initial))
            .collect();
        let held = sys
            .untimed
            .iter()
            .map(|u| u.outputs.iter().map(|p| p.ty.zero()).collect())
            .collect();
        let caches = sys
            .timed
            .iter()
            .map(|t| EvalCache::new(t.comp.nodes.len()))
            .collect();
        let all_sfgs = sys.timed.iter().map(|t| t.comp.all_sfg_refs()).collect();
        let fresh_at_start: Vec<bool> = sys
            .nets
            .iter()
            .map(|n| {
                matches!(
                    n.source,
                    NetSource::PrimaryInput(_) | NetSource::Constant(_)
                )
            })
            .collect();
        let fresh = fresh_at_start.clone();
        let design_hash = hash_system(&sys);
        Ok(InterpSim {
            sys,
            nets,
            fresh,
            fresh_at_start,
            regs,
            states,
            held,
            caches,
            all_sfgs,
            scratch: StepScratch::default(),
            cycle: 0,
            trace: None,
            full_trace: None,
            obs: None,
            design_hash,
        })
    }

    /// The structural design hash that keys this simulator's snapshots.
    pub fn design_hash(&self) -> u64 {
        self.design_hash
    }

    /// Captures the architectural state — net values, FSM states,
    /// register files, held untimed outputs, stateful untimed blocks and
    /// the cycle count — as a [`SimSnapshot`], the layout every engine
    /// shares. Traces are not part of the snapshot. Take
    /// snapshots between steps.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot::capture(
            self.design_hash,
            self.cycle,
            self.nets.iter().map(Value::to_raw),
            self.states.iter().map(|st| st.index() as u64),
            self.regs.iter().flatten().map(Value::to_raw),
            held_outputs(&self.sys).map(|(u, p)| self.held[u][p].to_raw()),
            self.sys.untimed.iter().map(|u| u.block.snapshot_state()),
        )
    }

    /// Restores a snapshot of this design taken on any engine: this
    /// simulator, [`crate::CompiledSim`] at any optimization level, or a
    /// [`crate::BatchedSim`] lane.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotMismatch`] when the snapshot was taken from
    /// a different design, and [`CoreError::SnapshotFormat`] when it has
    /// damaged sections. On error the simulator state is unspecified;
    /// call [`InterpSim::reset`] before reusing it.
    pub fn restore(&mut self, snap: &SimSnapshot) -> Result<(), CoreError> {
        let arch = snap.arch(&self.sys, self.design_hash)?;
        for (v, (net, raw)) in self
            .nets
            .iter_mut()
            .zip(self.sys.nets.iter().zip(arch.nets))
        {
            *v = Value::from_raw(net.ty, *raw);
        }
        for (st, idx) in self.states.iter_mut().zip(arch.states) {
            *st = StateRef(*idx as u32);
        }
        let regs = self.sys.timed.iter().flat_map(|t| &t.comp.regs);
        for ((v, r), raw) in self.regs.iter_mut().flatten().zip(regs).zip(arch.regs) {
            *v = Value::from_raw(r.ty, *raw);
        }
        for ((u, p), raw) in held_outputs(&self.sys).zip(arch.held) {
            self.held[u][p] = Value::from_raw(self.sys.untimed[u].outputs[p].ty, *raw);
        }
        let untimed = &mut self.sys.untimed;
        arch.hand_off(|u, words| {
            let block = &mut untimed[u].block;
            taken(block.restore_state(words), block.name())
        })?;
        self.cycle = snap.cycle();
        Ok(())
    }

    /// Starts reporting into `reg`: every subsequent
    /// [`Simulator::step`] bumps the `interp.cycles`,
    /// `interp.sfg_firings`, `interp.convergence_iters` and
    /// `interp.reg_updates` counters, times its phases under the
    /// `interp` span, and logs deadlocks to the event log. Detached
    /// simulators pay nothing.
    pub fn attach_obs(&mut self, reg: &Registry) {
        self.obs = Some(InterpObs::new(reg));
    }

    /// The simulated system.
    pub fn system(&self) -> &System {
        &self.sys
    }

    /// Gives the system back (e.g. to rebuild a different simulator).
    pub fn into_system(self) -> System {
        self.sys
    }

    /// The current FSM state name of a timed instance, for tests and
    /// debugging.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] if the instance does not exist
    /// or has no FSM.
    pub fn state_name(&self, instance: &str) -> Result<&str, CoreError> {
        let (i, t) = self
            .sys
            .timed
            .iter()
            .enumerate()
            .find(|(_, t)| t.name == instance)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "instance",
                name: instance.to_owned(),
            })?;
        let fsm = t.comp.fsm.as_ref().ok_or_else(|| CoreError::UnknownName {
            kind: "fsm",
            name: instance.to_owned(),
        })?;
        Ok(&fsm.states[self.states[i].index()])
    }

    /// The current value on a named net (`instance.port` or primary-input
    /// name), for tests and debugging.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] if no net has this name.
    pub fn net_value(&self, name: &str) -> Result<Value, CoreError> {
        self.sys
            .nets
            .iter()
            .position(|n| n.name == name)
            .map(|i| self.nets[i])
            .ok_or_else(|| CoreError::UnknownName {
                kind: "net",
                name: name.to_owned(),
            })
    }

    /// Starts recording *every net* each cycle (not only the primary
    /// I/O): the full-hierarchy waveform view of the design, dumped with
    /// [`InterpSim::full_trace`]`.to_vcd()`. Costs one value copy per net
    /// per cycle.
    pub fn enable_full_trace(&mut self) {
        if self.full_trace.is_none() {
            self.full_trace = Some(Trace::new(
                self.sys.nets.iter().map(|n| (n.name.clone(), n.ty, false)),
            ));
        }
    }

    /// The full-hierarchy trace (empty unless
    /// [`InterpSim::enable_full_trace`] was called before stepping).
    pub fn full_trace(&self) -> &Trace {
        static EMPTY: std::sync::OnceLock<Trace> = std::sync::OnceLock::new();
        self.full_trace
            .as_ref()
            .unwrap_or_else(|| EMPTY.get_or_init(Trace::default))
    }

    /// Resets registers, FSM states, nets, held untimed outputs and
    /// untimed blocks to their power-up values and rewinds the cycle
    /// counter.
    pub fn reset(&mut self) {
        for (i, t) in self.sys.timed.iter().enumerate() {
            for (j, r) in t.comp.regs.iter().enumerate() {
                self.regs[i][j] = r.init;
            }
            self.states[i] = t.comp.fsm.as_ref().map_or(StateRef(0), |f| f.initial);
        }
        for (i, net) in self.sys.nets.iter().enumerate() {
            self.nets[i] = match &net.source {
                NetSource::Constant(v) => *v,
                _ => net.ty.zero(),
            };
        }
        for (u, held) in self.sys.untimed.iter_mut().zip(&mut self.held) {
            u.block.reset();
            for (v, p) in held.iter_mut().zip(&u.outputs) {
                *v = p.ty.zero();
            }
        }
        self.cycle = 0;
        if let Some(t) = &mut self.trace {
            *t = make_trace(&self.sys);
        }
        if let Some(t) = &mut self.full_trace {
            *t = Trace::new(self.sys.nets.iter().map(|n| (n.name.clone(), n.ty, false)));
        }
    }
}

impl Simulator for InterpSim {
    fn set_input(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        let pi = self
            .sys
            .primary_inputs
            .iter()
            .find(|p| p.name == name)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "primary input",
                name: name.to_owned(),
            })?;
        value.check_type_with(pi.ty, || format!("primary input `{name}`"))?;
        self.nets[pi.net] = value;
        Ok(())
    }

    fn step(&mut self) -> Result<(), CoreError> {
        let sys = &mut self.sys;
        let nets = &mut self.nets;
        let held_outs = &mut self.held;
        let fresh = &mut self.fresh;
        let StepScratch {
            pending,
            next_states,
            driven,
            reg_writes,
            fired,
            in_buf,
            out_buf,
        } = &mut self.scratch;

        // Freshness: primary inputs and constants are available at cycle
        // start; everything else must be produced.
        fresh.copy_from_slice(&self.fresh_at_start);

        // Phase 0: transition selection, marking SFGs for execution.
        let t_select = self.obs.as_ref().map(|o| o.sp_select.timer());
        pending.clear();
        next_states.clear();
        next_states.extend_from_slice(&self.states);
        for (i, t) in sys.timed.iter().enumerate() {
            self.caches[i].bump();
            let comp = &t.comp;
            let active: &[crate::comp::SfgRef] = if let Some(fsm) = &comp.fsm {
                let mut chosen: Option<&crate::fsm::Transition> = None;
                for tr in fsm.from_state(self.states[i]) {
                    let take = match tr.guard {
                        None => true,
                        Some(g) => {
                            let in_nets = &sys.timed_in_net[i];
                            let held = |p: usize| nets[in_nets[p]];
                            eval_node(comp, g, &held, &self.regs[i], &mut self.caches[i])?
                                .as_bool()
                                .ok_or_else(|| CoreError::ValueType {
                                    context: format!("fsm guard in `{}`", t.name),
                                    expected: SigType::Bool,
                                })?
                        }
                    };
                    if take {
                        chosen = Some(tr);
                        break;
                    }
                }
                match chosen {
                    Some(tr) => {
                        next_states[i] = tr.to;
                        &tr.actions
                    }
                    None => &[], // idle: stay, run nothing
                }
            } else {
                &self.all_sfgs[i]
            };

            // Outputs not driven by the marked SFGs hold their value and
            // count as settled immediately.
            driven.clear();
            driven.resize(comp.outputs.len(), false);
            for sfg_ref in active {
                let sfg = &comp.sfgs[sfg_ref.index()];
                for (p, node) in &sfg.outputs {
                    driven[p.index()] = true;
                    pending.push(Pend {
                        inst: i,
                        sfg: sfg_ref.index(),
                        target: Target::Out {
                            port: p.index(),
                            node: *node,
                        },
                    });
                }
                for (r, node) in &sfg.reg_writes {
                    pending.push(Pend {
                        inst: i,
                        sfg: sfg_ref.index(),
                        target: Target::RegWrite {
                            reg: *r,
                            node: *node,
                        },
                    });
                }
            }
            for (p, d) in driven.iter().enumerate() {
                if !d {
                    if let Some(net) = sys.timed_output_net(i, p) {
                        fresh[net] = true; // held value
                    }
                }
            }
            // The guard evaluation used held input values; assignment
            // evaluation below must re-read inputs fresh.
            self.caches[i].bump();
        }

        drop(t_select);

        // Phases 1+2: token production and evaluation as one work list.
        let t_eval = self.obs.as_ref().map(|o| o.sp_eval.timer());
        let mut firings = 0u64;
        let mut iterations = 0u64;
        reg_writes.clear();
        fired.clear();
        fired.resize(sys.untimed.len(), false);
        loop {
            iterations += 1;
            let mut progress = false;

            let mut i = 0;
            while i < pending.len() {
                let pend = pending[i];
                let comp = &sys.timed[pend.inst].comp;
                let node = match pend.target {
                    Target::Out { node, .. } | Target::RegWrite { node, .. } => node,
                };
                let in_nets = &sys.timed_in_net[pend.inst];
                let ready = comp
                    .input_deps(node)
                    .iter()
                    .all(|p| fresh[in_nets[*p as usize]]);
                if ready {
                    let read = |p: usize| nets[in_nets[p]];
                    let v = eval_node(
                        comp,
                        node,
                        &read,
                        &self.regs[pend.inst],
                        &mut self.caches[pend.inst],
                    )?;
                    match pend.target {
                        Target::Out { port, .. } => {
                            if let Some(net) = sys.timed_output_net(pend.inst, port) {
                                nets[net] = v;
                                fresh[net] = true;
                            }
                        }
                        Target::RegWrite { reg, .. } => {
                            reg_writes.push((pend.inst, reg, v));
                        }
                    }
                    pending.swap_remove(i);
                    firings += 1;
                    progress = true;
                } else {
                    i += 1;
                }
            }

            for (u, inst) in sys.untimed.iter_mut().enumerate() {
                if fired[u] {
                    continue;
                }
                let in_nets = &sys.untimed_in_net[u];
                if !in_nets.iter().all(|n| fresh[*n]) {
                    continue;
                }
                in_buf.clear();
                in_buf.extend(in_nets.iter().map(|n| nets[*n]));
                let first = sys.out_base[sys.timed.len() + u];
                let out_nets = &sys.out_net[first..first + inst.outputs.len()];
                // Outputs are pre-filled with their held values: a net's
                // word, or what the block left on an output that drives
                // none.
                let held = &mut held_outs[u];
                out_buf.clear();
                out_buf.extend(
                    out_nets
                        .iter()
                        .zip(held.iter())
                        .map(|(n, h)| n.map_or(*h, |n| nets[n])),
                );
                if inst.block.ready(in_buf) {
                    inst.block.fire(in_buf, out_buf);
                }
                held.copy_from_slice(out_buf);
                for (n, v) in out_nets.iter().zip(out_buf.iter()) {
                    if let Some(n) = n {
                        nets[*n] = *v;
                        fresh[*n] = true;
                    }
                }
                fired[u] = true;
                firings += 1;
                progress = true;
            }

            if pending.is_empty() && fired.iter().all(|f| *f) {
                break;
            }
            if !progress {
                let mut waiting: Vec<String> = pending
                    .iter()
                    .map(|p| {
                        let t = &sys.timed[p.inst];
                        let sfg = &t.comp.sfgs[p.sfg];
                        let target = match p.target {
                            Target::Out { port, .. } => t.comp.outputs[port].name.clone(),
                            Target::RegWrite { reg, .. } => {
                                format!("reg {}", t.comp.regs[reg.index()].name)
                            }
                        };
                        format!("{}.{} -> {}", t.name, sfg.name, target)
                    })
                    .collect();
                waiting.extend(
                    fired
                        .iter()
                        .enumerate()
                        .filter(|(_, f)| !**f)
                        .map(|(u, _)| format!("{} (untimed)", sys.untimed[u].block.name())),
                );
                // Deterministic diagnostics regardless of work-list order.
                waiting.sort();
                if let Some(o) = &self.obs {
                    o.events.record(self.cycle, "deadlock", waiting.join(", "));
                }
                return Err(CoreError::CombinationalLoop { waiting });
            }
        }
        drop(t_eval);

        // Phase 3: register update and state commit.
        let t_commit = self.obs.as_ref().map(|o| o.sp_commit.timer());
        let reg_update_count = reg_writes.len() as u64;
        for &(inst, reg, v) in reg_writes.iter() {
            self.regs[inst][reg.index()] = v;
        }
        self.states.copy_from_slice(next_states);
        self.cycle += 1;
        drop(t_commit);

        if self.trace.is_some() || self.full_trace.is_some() {
            let _t_trace = self.obs.as_ref().map(|o| o.sp_trace.timer());
            if let Some(trace) = &mut self.trace {
                trace.record_cycle(traced_nets(sys).map(|net| nets[net]))?;
            }
            if let Some(trace) = &mut self.full_trace {
                trace.record_cycle(nets)?;
            }
        }

        if let Some(o) = &self.obs {
            o.cycles.incr();
            o.sfg_firings.add(firings);
            o.convergence_iters.add(iterations);
            o.reg_updates.add(reg_update_count);
        }
        Ok(())
    }

    fn output(&self, name: &str) -> Result<Value, CoreError> {
        self.sys
            .primary_outputs
            .iter()
            .find(|p| p.name == name)
            .map(|p| self.nets[p.net])
            .ok_or_else(|| CoreError::UnknownName {
                kind: "primary output",
                name: name.to_owned(),
            })
    }

    fn cycle(&self) -> u64 {
        self.cycle
    }

    fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(make_trace(&self.sys));
        }
    }

    fn trace(&self) -> &Trace {
        static EMPTY: std::sync::OnceLock<Trace> = std::sync::OnceLock::new();
        self.trace
            .as_ref()
            .unwrap_or_else(|| EMPTY.get_or_init(Trace::default))
    }

    fn peek_net(&self, name: &str) -> Result<Value, CoreError> {
        self.net_value(name)
    }

    fn poke_net(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        let i = self
            .sys
            .nets
            .iter()
            .position(|n| n.name == name)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "net",
                name: name.to_owned(),
            })?;
        value.check_type_with(self.sys.nets[i].ty, || format!("net `{name}`"))?;
        self.nets[i] = value;
        Ok(())
    }

    fn peek_reg(&self, instance: &str, reg: &str) -> Result<Value, CoreError> {
        let (i, j) = find_reg(&self.sys, instance, reg)?;
        Ok(self.regs[i][j])
    }

    fn poke_reg(&mut self, instance: &str, reg: &str, value: Value) -> Result<(), CoreError> {
        let (i, j) = find_reg(&self.sys, instance, reg)?;
        value.check_type_with(self.sys.timed[i].comp.regs[j].ty, || {
            format!("register `{instance}.{reg}`")
        })?;
        self.regs[i][j] = value;
        Ok(())
    }
}

/// Resolves `instance.reg` to (timed-instance index, register index).
pub(crate) fn find_reg(
    sys: &System,
    instance: &str,
    reg: &str,
) -> Result<(usize, usize), CoreError> {
    let (i, t) = sys
        .timed
        .iter()
        .enumerate()
        .find(|(_, t)| t.name == instance)
        .ok_or_else(|| CoreError::UnknownName {
            kind: "instance",
            name: instance.to_owned(),
        })?;
    let j = t
        .comp
        .regs
        .iter()
        .position(|r| r.name == reg)
        .ok_or_else(|| CoreError::UnknownName {
            kind: "register",
            name: format!("{instance}.{reg}"),
        })?;
    Ok((i, j))
}
