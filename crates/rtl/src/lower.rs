//! Lowering a captured [`ocapi::System`] to the event-driven RTL kernel.
//!
//! The lowering produces the process structure of the generated VHDL (see
//! `ocapi-hdl`) from the same [`ComponentPlan`]: per timed component a
//! controller process, one process per shared node (a non-leaf node used
//! twice), output/register selection processes, and one rising-edge
//! process; untimed blocks become behavioural "extern" processes
//! sensitive to their inputs. FSM guards read registered copies of the
//! inputs [`System::guard_held_inputs`] names and direct values of the
//! rest, which reproduces the cycle scheduler's phase-0 semantics
//! event-accurately — the `rtl_matches_core` tests assert cycle-for-cycle
//! equality against both core simulators.

use ocapi::{
    BinOp, Component, CoreError, NetSource, NodeId, NodeKind, SigType, Simulator, System, Trace,
    Value,
};

use crate::ir::{Expr, ProcessBody, RtlDesign, SignalId, Stmt, Trigger};
use crate::kernel::{KernelStats, RtlSim};
use crate::plan::{ComponentPlan, Cone};
use crate::RtlError;

/// Per-instance lowering context.
struct InstLower<'a> {
    comp: &'a Component,
    /// Expression for reading each input port (net signal or held copy).
    input_expr: Vec<SignalId>,
    /// Held copies for guard reads (None = read the input directly).
    guard_input: Vec<SignalId>,
    reg_r: Vec<SignalId>,
    /// The signal of each shared datapath node (None = inlined).
    node_sig: Vec<Option<SignalId>>,
    /// The signal of each shared guard node (None = inlined).
    guard_sig: Vec<Option<SignalId>>,
}

impl<'a> InstLower<'a> {
    fn expr_of(&self, id: NodeId, guard: bool) -> Expr {
        let sigs = if guard {
            &self.guard_sig
        } else {
            &self.node_sig
        };
        match sigs[id.index()] {
            Some(sig) => Expr::Sig(sig),
            None => self.inline(id, guard),
        }
    }

    fn inline(&self, id: NodeId, guard: bool) -> Expr {
        match &self.comp.nodes[id.index()].kind {
            NodeKind::Const(v) => Expr::Const(*v),
            NodeKind::Input(p) => {
                let sig = if guard {
                    self.guard_input[p.index()]
                } else {
                    self.input_expr[p.index()]
                };
                Expr::Sig(sig)
            }
            NodeKind::RegRead(r) => Expr::Sig(self.reg_r[r.index()]),
            NodeKind::Un(op, a) => Expr::Un(*op, Box::new(self.expr_of(*a, guard))),
            NodeKind::Bin(op, a, b) => Expr::Bin(
                *op,
                Box::new(self.expr_of(*a, guard)),
                Box::new(self.expr_of(*b, guard)),
            ),
            NodeKind::Select {
                cond,
                then,
                otherwise,
            } => Expr::Select {
                c: Box::new(self.expr_of(*cond, guard)),
                t: Box::new(self.expr_of(*then, guard)),
                e: Box::new(self.expr_of(*otherwise, guard)),
            },
        }
    }

    /// `target` takes the value of the first selected SFG's driver, else
    /// `default`.
    fn select(
        &self,
        sel: &[SignalId],
        drivers: &[(usize, NodeId)],
        target: SignalId,
        default: SignalId,
    ) -> Vec<Stmt> {
        let last = vec![Stmt::Assign(target, Expr::Sig(default))];
        drivers.iter().rev().fold(last, |chain, (si, node)| {
            vec![Stmt::If {
                cond: Expr::Sig(sel[*si]),
                then: vec![Stmt::Assign(target, self.expr_of(*node, false))],
                otherwise: chain,
            }]
        })
    }
}

/// Adds a combinational process sensitive to every signal `body` reads.
fn comb_process(d: &mut RtlDesign, name: &str, body: Vec<Stmt>) {
    let mut sensitivity = Vec::new();
    for s in &body {
        s.support(&mut sensitivity);
    }
    sensitivity.sort_by_key(|s| s.index());
    sensitivity.dedup();
    d.process(
        name,
        Trigger::Signals(sensitivity),
        ProcessBody::Stmts(body),
    );
}

/// Lowers a system to an RTL design plus bookkeeping for the testbench.
struct Lowered {
    design: RtlDesign,
    clk: SignalId,
    net_sig: Vec<SignalId>,
}

fn lower(mut sys: System) -> Lowered {
    let mut d = RtlDesign::new(&sys.name);
    let clk = d.signal("clk", SigType::Bool, Value::Bool(false));

    // Net signals.
    let net_sig: Vec<SignalId> = sys
        .nets
        .iter()
        .map(|n| {
            let init = match &n.source {
                NetSource::Constant(v) => *v,
                _ => n.ty.zero(),
            };
            d.signal(&format!("net.{}", n.name), n.ty, init)
        })
        .collect();

    for (ti, t) in sys.timed.iter().enumerate() {
        let comp = &t.comp;
        let plan = ComponentPlan::new(comp);
        let prefix = &t.name;
        let n_sfgs = comp.sfgs.len();

        // Register signals.
        let reg_r: Vec<SignalId> = comp
            .regs
            .iter()
            .map(|r| d.signal(&format!("{prefix}.{}_r", r.name), r.ty, r.init))
            .collect();
        let reg_next: Vec<SignalId> = comp
            .regs
            .iter()
            .map(|r| d.signal(&format!("{prefix}.{}_next", r.name), r.ty, r.init))
            .collect();

        // Input reads: the driving net's signal.
        let input_expr: Vec<SignalId> = (0..comp.inputs.len())
            .map(|pi| net_sig[sys.timed_input_net(ti, pi)])
            .collect();

        // Guard reads: a held register for each guard-held input.
        let held = sys.guard_held_inputs(ti);
        let guard_input: Vec<SignalId> = comp
            .inputs
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                if held.contains(&pi) {
                    d.signal(&format!("{prefix}.{}_held", p.name), p.ty, p.ty.zero())
                } else {
                    input_expr[pi]
                }
            })
            .collect();

        // Selection signals.
        let sel: Vec<SignalId> = (0..n_sfgs)
            .map(|k| {
                d.signal(
                    &format!("{prefix}.sel{k}"),
                    SigType::Bool,
                    Value::Bool(comp.fsm.is_none()),
                )
            })
            .collect();

        // Shared datapath/guard node signals: a non-leaf node used twice.
        let shared = |cone: &Cone, i: usize| cone.ops[i] && cone.uses[i] > 1;
        let mut node_sig: Vec<Option<SignalId>> = vec![None; comp.nodes.len()];
        let mut guard_sig: Vec<Option<SignalId>> = vec![None; comp.nodes.len()];
        for (i, node) in comp.nodes.iter().enumerate() {
            if shared(&plan.datapath, i) {
                node_sig[i] = Some(d.signal(&format!("{prefix}.n{i}"), node.ty, node.ty.zero()));
            }
            if shared(&plan.guards, i) {
                guard_sig[i] = Some(d.signal(&format!("{prefix}.g{i}"), node.ty, node.ty.zero()));
            }
        }

        let il = InstLower {
            comp,
            input_expr,
            guard_input,
            reg_r: reg_r.clone(),
            node_sig,
            guard_sig,
        };

        // Shared-node processes.
        for i in 0..comp.nodes.len() {
            if let Some(sig) = il.node_sig[i] {
                let expr = il.inline(NodeId::from_index(i), false);
                let mut sensitivity = Vec::new();
                expr.support(&mut sensitivity);
                d.process(
                    &format!("{prefix}.n{i}_p"),
                    Trigger::Signals(sensitivity),
                    ProcessBody::Stmts(vec![Stmt::Assign(sig, expr)]),
                );
            }
            if let Some(sig) = il.guard_sig[i] {
                let expr = il.inline(NodeId::from_index(i), true);
                let mut sensitivity = Vec::new();
                expr.support(&mut sensitivity);
                d.process(
                    &format!("{prefix}.g{i}_p"),
                    Trigger::Signals(sensitivity),
                    ProcessBody::Stmts(vec![Stmt::Assign(sig, expr)]),
                );
            }
        }

        // Controller.
        let (state, state_next) = if let Some(fsm) = &comp.fsm {
            let sb = plan.state_bits;
            let init = Value::bits(sb, fsm.initial.index() as u64);
            let state = d.signal(&format!("{prefix}.state"), SigType::Bits(sb), init);
            let state_next = d.signal(&format!("{prefix}.state_next"), SigType::Bits(sb), init);

            let mut body: Vec<Stmt> = vec![Stmt::Assign(state_next, Expr::Sig(state))];
            for s in &sel {
                body.push(Stmt::Assign(*s, Expr::Const(Value::Bool(false))));
            }
            // Case over states as nested ifs, transitions as guard chains.
            let mut case: Vec<Stmt> = Vec::new();
            for (si, _) in fsm.states.iter().enumerate().rev() {
                let mut chain: Vec<Stmt> = Vec::new();
                for tr in fsm
                    .transitions
                    .iter()
                    .filter(|t| t.from.index() == si)
                    .rev()
                {
                    let mut taken: Vec<Stmt> = Vec::new();
                    for a in &tr.actions {
                        taken.push(Stmt::Assign(sel[a.index()], Expr::Const(Value::Bool(true))));
                    }
                    taken.push(Stmt::Assign(
                        state_next,
                        Expr::Const(Value::bits(sb, tr.to.index() as u64)),
                    ));
                    chain = match tr.guard {
                        None => taken,
                        Some(g) => vec![Stmt::If {
                            cond: il.expr_of(g, true),
                            then: taken,
                            otherwise: chain,
                        }],
                    };
                }
                let cond = Expr::Bin(
                    BinOp::Eq,
                    Box::new(Expr::Sig(state)),
                    Box::new(Expr::Const(Value::bits(sb, si as u64))),
                );
                case = vec![Stmt::If {
                    cond,
                    then: chain,
                    otherwise: case,
                }];
            }
            body.extend(case);
            comb_process(&mut d, &format!("{prefix}.ctrl"), body);
            (Some(state), Some(state_next))
        } else {
            (None, None)
        };

        // Output selection and hold.
        let mut out_hold: Vec<Option<SignalId>> = vec![None; comp.outputs.len()];
        let mut out_int: Vec<Option<SignalId>> = vec![None; comp.outputs.len()];
        for (pi, p) in comp.outputs.iter().enumerate() {
            let drivers = &plan.output_drivers[pi];
            if drivers.is_empty() {
                continue;
            }
            let int = match sys.timed_output_net(ti, pi) {
                Some(n) => net_sig[n],
                None => d.signal(&format!("{prefix}.{}_int", p.name), p.ty, p.ty.zero()),
            };
            let hold = d.signal(&format!("{prefix}.{}_hold", p.name), p.ty, p.ty.zero());
            out_int[pi] = Some(int);
            out_hold[pi] = Some(hold);
            let chain = il.select(&sel, drivers, int, hold);
            comb_process(&mut d, &format!("{prefix}.{}_mux", p.name), chain);
        }

        // Register next-value selection.
        for (ri, r) in comp.regs.iter().enumerate() {
            let drivers = &plan.reg_drivers[ri];
            if drivers.is_empty() {
                continue;
            }
            let chain = il.select(&sel, drivers, reg_next[ri], reg_r[ri]);
            comb_process(&mut d, &format!("{prefix}.{}_nx", r.name), chain);
        }

        // Sequential process.
        let mut seq: Vec<Stmt> = Vec::new();
        if let (Some(state), Some(state_next)) = (state, state_next) {
            seq.push(Stmt::Assign(state, Expr::Sig(state_next)));
        }
        for (ri, _) in comp.regs.iter().enumerate() {
            seq.push(Stmt::Assign(reg_r[ri], Expr::Sig(reg_next[ri])));
        }
        for pi in 0..comp.outputs.len() {
            if let (Some(h), Some(i)) = (out_hold[pi], out_int[pi]) {
                seq.push(Stmt::Assign(h, Expr::Sig(i)));
            }
        }
        for &pi in &held {
            seq.push(Stmt::Assign(
                il.guard_input[pi],
                Expr::Sig(il.input_expr[pi]),
            ));
        }
        if !seq.is_empty() {
            d.process(
                &format!("{prefix}.seq"),
                Trigger::Rising(clk),
                ProcessBody::Stmts(seq),
            );
        }
    }

    // Untimed blocks become extern processes, sensitive to their inputs.
    //
    // Note: a stateful untimed block only re-fires when an input *changes*
    // (event-driven semantics). Blocks whose state advances on identical
    // consecutive inputs (e.g. a FIFO pop) would diverge from the cycle
    // scheduler; address/write patterns like the RAM/ROM models are safe.
    for (ui, inst) in std::mem::take(&mut sys.untimed).into_iter().enumerate() {
        let inputs: Vec<SignalId> = (0..inst.inputs.len())
            .map(|pi| net_sig[sys.untimed_input_net(ui, pi)])
            .collect();
        let outputs: Vec<SignalId> = inst
            .outputs
            .iter()
            .enumerate()
            .map(|(pi, p)| match sys.untimed_output_net(ui, pi) {
                Some(n) => net_sig[n],
                None => d.signal(&format!("{}.out{pi}", inst.block.name()), p.ty, p.ty.zero()),
            })
            .collect();
        let name = format!("{}.beh", inst.block.name());
        d.process(
            &name,
            Trigger::Signals(inputs.clone()),
            ProcessBody::Extern {
                inputs,
                outputs,
                block: inst.block,
            },
        );
    }

    Lowered {
        design: d,
        clk,
        net_sig,
    }
}

/// Event-driven simulation of a lowered system, driven through the common
/// [`Simulator`] interface for direct comparison with [`ocapi::InterpSim`]
/// and [`ocapi::CompiledSim`].
#[derive(Debug)]
pub struct RtlSystemSim {
    sim: RtlSim,
    clk: SignalId,
    inputs: Vec<(String, SigType, SignalId)>,
    outputs: Vec<(String, SignalId)>,
    latched: Vec<Value>,
    cycle: u64,
    trace: Option<Trace>,
}

impl RtlSystemSim {
    /// Lowers the system and elaborates the event-driven model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CombinationalLoop`] if elaboration does not
    /// converge.
    pub fn new(sys: System) -> Result<RtlSystemSim, CoreError> {
        let inputs: Vec<(String, SigType, usize)> = sys
            .primary_inputs
            .iter()
            .map(|p| (p.name.clone(), p.ty, p.net))
            .collect();
        let outputs: Vec<(String, usize)> = sys
            .primary_outputs
            .iter()
            .map(|p| (p.name.clone(), p.net))
            .collect();
        let lowered = lower(sys);
        let mut sim = RtlSim::new(lowered.design);
        sim.elaborate().map_err(to_core)?;
        let inputs = inputs
            .into_iter()
            .map(|(n, t, net)| (n, t, lowered.net_sig[net]))
            .collect();
        let n_outputs = outputs.len();
        let outputs: Vec<(String, SignalId)> = outputs
            .into_iter()
            .map(|(n, net)| (n, lowered.net_sig[net]))
            .collect();
        Ok(RtlSystemSim {
            sim,
            clk: lowered.clk,
            inputs,
            outputs,
            latched: vec![Value::Bool(false); n_outputs],
            cycle: 0,
            trace: None,
        })
    }

    /// Event/process/delta counters from the kernel.
    pub fn stats(&self) -> KernelStats {
        self.sim.stats()
    }

    /// The number of signals in the lowered design.
    pub fn signal_count(&self) -> usize {
        self.sim.design().signals.len()
    }
}

fn to_core(e: RtlError) -> CoreError {
    CoreError::CombinationalLoop {
        waiting: vec![e.to_string()],
    }
}

impl Simulator for RtlSystemSim {
    fn set_input(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        let (_, ty, sig) = self
            .inputs
            .iter()
            .find(|(n, _, _)| n == name)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "primary input",
                name: name.to_owned(),
            })?;
        value.check_type_with(*ty, || format!("primary input `{name}`"))?;
        self.sim.schedule(*sig, value);
        Ok(())
    }

    fn step(&mut self) -> Result<(), CoreError> {
        // Apply inputs, settle the combinational logic of this cycle.
        self.sim.settle().map_err(to_core)?;
        // Sample outputs (the values driven during this cycle).
        for (i, (_, sig)) in self.outputs.iter().enumerate() {
            self.latched[i] = self.sim.value(*sig);
        }
        // Clock edge: registers advance, combinational logic recomputes.
        self.sim.schedule(self.clk, Value::Bool(true));
        self.sim.settle().map_err(to_core)?;
        self.sim.schedule(self.clk, Value::Bool(false));
        self.sim.settle().map_err(to_core)?;
        self.cycle += 1;
        if let Some(trace) = &mut self.trace {
            // Inputs, then the latched outputs, without collecting a row.
            let (ins, outs) = (&self.inputs, &self.latched);
            trace.record_cycle((0..ins.len() + outs.len()).map(|k| match ins.get(k) {
                Some((_, _, s)) => self.sim.value(*s),
                None => outs[k - ins.len()],
            }))?;
        }
        Ok(())
    }

    fn output(&self, name: &str) -> Result<Value, CoreError> {
        self.outputs
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| self.latched[i])
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
            self.trace =
                Some(Trace::new(
                    self.inputs
                        .iter()
                        .map(|(n, t, _)| (n.clone(), *t, true))
                        .chain(self.outputs.iter().map(|(n, s)| {
                            (n.clone(), self.sim.design().signals[s.index()].ty, false)
                        })),
                ));
        }
    }

    fn trace(&self) -> &Trace {
        static EMPTY: std::sync::OnceLock<Trace> = std::sync::OnceLock::new();
        self.trace
            .as_ref()
            .unwrap_or_else(|| EMPTY.get_or_init(Trace::default))
    }
}
