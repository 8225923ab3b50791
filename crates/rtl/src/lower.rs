//! Lowering a captured [`ocapi::System`] to the event-driven RTL kernel.
//!
//! The lowering produces exactly the process structure of the generated
//! VHDL (see `ocapi-hdl`): per timed component a controller process,
//! per-shared-node datapath assignments, output/register selection
//! processes, and one rising-edge process; untimed blocks become
//! behavioural "extern" processes sensitive to their inputs. FSM guards
//! read registered copies of internally-driven inputs and direct values of
//! external pins, which reproduces the cycle scheduler's phase-0 semantics
//! event-accurately — the `rtl_matches_core` tests assert cycle-for-cycle
//! equality against both core simulators.

use ocapi::{
    BinOp, Component, CoreError, NetSource, NodeId, NodeKind, SigType, Simulator, System, Trace,
    Value,
};

use crate::ir::{Expr, ProcessBody, RtlDesign, SignalId, Stmt, Trigger};
use crate::kernel::{KernelStats, RtlSim};
use crate::RtlError;

fn state_bits(n_states: usize) -> u32 {
    (n_states.next_power_of_two().trailing_zeros()).max(1)
}

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
}

fn mark_shared(comp: &Component, roots: &[NodeId]) -> Vec<bool> {
    let mut uses = vec![0u32; comp.nodes.len()];
    let mut reach = vec![false; comp.nodes.len()];
    let mut stack = roots.to_vec();
    for r in roots {
        uses[r.index()] += 1;
    }
    while let Some(n) = stack.pop() {
        if reach[n.index()] {
            continue;
        }
        reach[n.index()] = true;
        let mut visit = |c: NodeId| {
            uses[c.index()] += 1;
        };
        match &comp.nodes[n.index()].kind {
            NodeKind::Const(_) | NodeKind::Input(_) | NodeKind::RegRead(_) => {}
            NodeKind::Un(_, a) => {
                visit(*a);
                stack.push(*a);
            }
            NodeKind::Bin(_, a, b) => {
                visit(*a);
                visit(*b);
                stack.push(*a);
                stack.push(*b);
            }
            NodeKind::Select {
                cond,
                then,
                otherwise,
            } => {
                visit(*cond);
                visit(*then);
                visit(*otherwise);
                stack.push(*cond);
                stack.push(*then);
                stack.push(*otherwise);
            }
        }
    }
    comp.nodes
        .iter()
        .enumerate()
        .map(|(i, n)| {
            reach[i]
                && uses[i] > 1
                && !matches!(
                    n.kind,
                    NodeKind::Const(_) | NodeKind::Input(_) | NodeKind::RegRead(_)
                )
        })
        .collect()
}

/// Lowers a system to an RTL design plus bookkeeping for the testbench.
struct Lowered {
    design: RtlDesign,
    clk: SignalId,
    net_sig: Vec<SignalId>,
}

fn lower(sys: System) -> Lowered {
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

        // Guard reads: a held register for internally-driven inputs.
        let guard_roots: Vec<NodeId> = comp
            .fsm
            .iter()
            .flat_map(|f| f.transitions.iter().filter_map(|t| t.guard))
            .collect();
        let mut needs_held = vec![false; comp.inputs.len()];
        for g in &guard_roots {
            for p in comp.input_deps(*g) {
                let net = sys.timed_input_net(ti, *p as usize);
                let internal = !matches!(
                    sys.nets[net].source,
                    NetSource::PrimaryInput(_) | NetSource::Constant(_)
                );
                if internal {
                    needs_held[*p as usize] = true;
                }
            }
        }
        let guard_input: Vec<SignalId> = comp
            .inputs
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                if needs_held[pi] {
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

        // Shared datapath/guard node signals.
        let dp_roots: Vec<NodeId> = comp
            .sfgs
            .iter()
            .flat_map(|s| {
                s.outputs
                    .iter()
                    .map(|(_, n)| *n)
                    .chain(s.reg_writes.iter().map(|(_, n)| *n))
            })
            .collect();
        let shared = mark_shared(comp, &dp_roots);
        let guard_shared = mark_shared(comp, &guard_roots);
        let mut node_sig: Vec<Option<SignalId>> = vec![None; comp.nodes.len()];
        let mut guard_sig: Vec<Option<SignalId>> = vec![None; comp.nodes.len()];
        for (i, node) in comp.nodes.iter().enumerate() {
            if shared[i] {
                node_sig[i] = Some(d.signal(&format!("{prefix}.n{i}"), node.ty, node.ty.zero()));
            }
            if guard_shared[i] {
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
            let sb = state_bits(fsm.states.len());
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
            let mut sensitivity = Vec::new();
            for s in &body {
                s.support(&mut sensitivity);
            }
            sensitivity.sort_by_key(|s| s.index());
            sensitivity.dedup();
            d.process(
                &format!("{prefix}.ctrl"),
                Trigger::Signals(sensitivity),
                ProcessBody::Stmts(body),
            );
            (Some(state), Some(state_next))
        } else {
            (None, None)
        };

        // Output selection and hold.
        let mut out_hold: Vec<Option<SignalId>> = vec![None; comp.outputs.len()];
        let mut out_int: Vec<Option<SignalId>> = vec![None; comp.outputs.len()];
        for (pi, p) in comp.outputs.iter().enumerate() {
            let drivers: Vec<(usize, NodeId)> = comp
                .sfgs
                .iter()
                .enumerate()
                .flat_map(|(si, sfg)| {
                    sfg.outputs
                        .iter()
                        .filter(|(port, _)| port.index() == pi)
                        .map(move |(_, n)| (si, *n))
                })
                .collect();
            if drivers.is_empty() {
                continue;
            }
            let net = sys.nets.iter().position(|n| {
                matches!(n.source, NetSource::TimedOut { inst, port } if inst == ti && port == pi)
            });
            let int = match net {
                Some(n) => net_sig[n],
                None => d.signal(&format!("{prefix}.{}_int", p.name), p.ty, p.ty.zero()),
            };
            let hold = d.signal(&format!("{prefix}.{}_hold", p.name), p.ty, p.ty.zero());
            out_int[pi] = Some(int);
            out_hold[pi] = Some(hold);

            let mut chain: Vec<Stmt> = vec![Stmt::Assign(int, Expr::Sig(hold))];
            for (si, node) in drivers.iter().rev() {
                chain = vec![Stmt::If {
                    cond: Expr::Sig(sel[*si]),
                    then: vec![Stmt::Assign(int, il.expr_of(*node, false))],
                    otherwise: chain,
                }];
            }
            let mut sensitivity = Vec::new();
            for s in &chain {
                s.support(&mut sensitivity);
            }
            sensitivity.sort_by_key(|s| s.index());
            sensitivity.dedup();
            d.process(
                &format!("{prefix}.{}_mux", p.name),
                Trigger::Signals(sensitivity),
                ProcessBody::Stmts(chain),
            );
        }

        // Register next-value selection.
        for (ri, r) in comp.regs.iter().enumerate() {
            let drivers: Vec<(usize, NodeId)> = comp
                .sfgs
                .iter()
                .enumerate()
                .flat_map(|(si, sfg)| {
                    sfg.reg_writes
                        .iter()
                        .filter(|(reg, _)| reg.index() == ri)
                        .map(move |(_, n)| (si, *n))
                })
                .collect();
            if drivers.is_empty() {
                continue;
            }
            let mut chain: Vec<Stmt> = vec![Stmt::Assign(reg_next[ri], Expr::Sig(reg_r[ri]))];
            for (si, node) in drivers.iter().rev() {
                chain = vec![Stmt::If {
                    cond: Expr::Sig(sel[*si]),
                    then: vec![Stmt::Assign(reg_next[ri], il.expr_of(*node, false))],
                    otherwise: chain,
                }];
            }
            let mut sensitivity = Vec::new();
            for s in &chain {
                s.support(&mut sensitivity);
            }
            sensitivity.sort_by_key(|s| s.index());
            sensitivity.dedup();
            d.process(
                &format!("{prefix}.{}_nx", r.name),
                Trigger::Signals(sensitivity),
                ProcessBody::Stmts(chain),
            );
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
        for (pi, held) in needs_held.iter().enumerate() {
            if *held {
                seq.push(Stmt::Assign(
                    il.guard_input[pi],
                    Expr::Sig(il.input_expr[pi]),
                ));
            }
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
    let in_nets: Vec<Vec<usize>> = (0..sys.untimed.len())
        .map(|ui| {
            (0..sys.untimed[ui].inputs.len())
                .map(|pi| sys.untimed_input_net(ui, pi))
                .collect()
        })
        .collect();
    let out_nets: Vec<Vec<Option<usize>>> = (0..sys.untimed.len())
        .map(|ui| {
            (0..sys.untimed[ui].outputs.len())
                .map(|pi| {
                    sys.nets.iter().position(|n| {
                        matches!(n.source, NetSource::UntimedOut { inst, port }
                            if inst == ui && port == pi)
                    })
                })
                .collect()
        })
        .collect();
    for (ui, inst) in sys.untimed.into_iter().enumerate() {
        let inputs: Vec<SignalId> = in_nets[ui].iter().map(|n| net_sig[*n]).collect();
        let outputs: Vec<SignalId> = out_nets[ui]
            .iter()
            .enumerate()
            .map(|(pi, n)| match n {
                Some(n) => net_sig[*n],
                None => d.signal(
                    &format!("{}.out{pi}", inst.block.name()),
                    inst.outputs[pi].ty,
                    inst.outputs[pi].ty.zero(),
                ),
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
            let row: Vec<Value> = self
                .inputs
                .iter()
                .map(|(_, _, s)| self.sim.value(*s))
                .chain(self.latched.iter().copied())
                .collect();
            trace.record_cycle(&row)?;
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
