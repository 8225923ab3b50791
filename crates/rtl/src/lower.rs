//! Elaborating a system's module AST into the event-driven RTL kernel.
//!
//! [`RtlSystemSim`] builds the system's [`Top`] with [`Sharing::Reused`]
//! and instantiates each timed instance's [`ast::Module`]: every name
//! prefixed with the instance name, ports bound to net signals, states
//! encoded as `Bits`. A module becomes one process per named net, a
//! controller process, one selection process per driven output and
//! register, and one rising-edge process. Guards read the held copies the
//! module declares, which reproduces the cycle scheduler's phase-0
//! semantics event-accurately — the `rtl_matches_core` tests assert
//! cycle-for-cycle equality against both core simulators.
//!
//! Untimed blocks are no processes. Each cycle, once the inputs have
//! settled, [`RtlSystemSim`] fires every block once in
//! [`System::untimed_order`] on its settled inputs and settles its
//! outputs before the next, as the cycle scheduler fires it once a cycle.

use ocapi::{BinOp, CoreError, SigType, Simulator, System, Trace, UntimedBlock, Value};

use crate::ast::{self, ExprKind, Instance, Sharing, Top, Var};
use crate::ir::{Expr, RtlDesign, SignalId, Stmt, Trigger};
use crate::kernel::{KernelStats, RtlSim};
use crate::RtlError;

/// The signals of one instance, by module variable.
struct Bound {
    /// Per input port: the driving net's signal.
    pin: Vec<SignalId>,
    /// Per input port: its held copy, or the pin when it has none.
    held: Vec<SignalId>,
    reg: Vec<SignalId>,
    next: Vec<SignalId>,
    /// Per output port: its value and hold signals; `None` when no SFG
    /// drives it.
    int: Vec<Option<SignalId>>,
    hold: Vec<Option<SignalId>>,
    /// The state and next-state signals.
    state: Option<(SignalId, SignalId)>,
    sel: Vec<SignalId>,
    nets: Vec<SignalId>,
}

impl Bound {
    fn var(&self, v: Var) -> Option<SignalId> {
        match v {
            Var::Pin(p) => Some(self.pin[p]),
            Var::Held(p) => Some(self.held[p]),
            Var::Reg(r) => Some(self.reg[r]),
            Var::Next(r) => Some(self.next[r]),
            Var::Int(o) => self.int[o],
            Var::Hold(o) => self.hold[o],
            Var::State => self.state.map(|s| s.0),
            Var::StateNext => self.state.map(|s| s.1),
        }
    }

    fn expr(&self, e: &ast::Expr) -> Expr {
        let sub = |x: &ast::Expr| Box::new(self.expr(x));
        match &e.kind {
            ExprKind::Const(v) => Expr::Const(*v),
            // Only the signals of an output no SFG drives are unbound, and
            // no expression reads them.
            ExprKind::Var(v) => self.var(*v).map_or(Expr::Const(e.ty.zero()), Expr::Sig),
            ExprKind::Net(k) => Expr::Sig(self.nets[*k]),
            ExprKind::Un(op, a) => Expr::Un(*op, sub(a)),
            ExprKind::Bin(op, a, b) => Expr::Bin(*op, sub(a), sub(b)),
            ExprKind::Select {
                cond,
                then,
                otherwise,
            } => Expr::Select {
                c: sub(cond),
                t: sub(then),
                e: sub(otherwise),
            },
        }
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
    d.process(name, Trigger::Signals(sensitivity), body);
}

/// Elaborates one timed instance into `d`.
fn instantiate(d: &mut RtlDesign, clk: SignalId, net_sig: &[SignalId], inst: &Instance) {
    let (m, prefix) = (&inst.module, &inst.name);
    let name = |v: Var| format!("{prefix}.{}", m.var_name(v, str::to_owned));
    let net_name = |n: &ast::Net| format!("{prefix}.{}", n.name());
    let reg = (0..m.regs.len())
        .map(|r| d.signal(&name(Var::Reg(r)), m.regs[r].ty, m.regs[r].init))
        .collect();
    let next = (0..m.regs.len())
        .map(|r| d.signal(&name(Var::Next(r)), m.regs[r].ty, m.regs[r].init))
        .collect();
    let pin: Vec<SignalId> = inst.inputs.iter().map(|&n| net_sig[n]).collect();
    let mut held = pin.clone();
    for &p in &m.held {
        let ty = m.inputs[p].ty;
        held[p] = d.signal(&name(Var::Held(p)), ty, ty.zero());
    }
    let sel = (0..m.sel_width)
        .map(|k| {
            let init = Value::Bool(m.controller.is_none());
            d.signal(&format!("{prefix}.sel{k}"), SigType::Bool, init)
        })
        .collect();
    let nets = m
        .nets
        .iter()
        .map(|n| d.signal(&net_name(n), n.expr.ty, n.expr.ty.zero()))
        .collect();
    let state = m.controller.as_ref().map(|c| {
        let init = Value::bits(c.bits, c.initial as u64);
        let (s, s_next) = (Var::State, Var::StateNext);
        (
            d.signal(&name(s), m.ty(s), init),
            d.signal(&name(s_next), m.ty(s_next), init),
        )
    });
    // An output no SFG drives gets no mux and no hold; a connected one
    // drives its net directly.
    let mut int = vec![None; m.outputs.len()];
    let mut hold = vec![None; m.outputs.len()];
    for mux in m.muxes.iter().filter(|x| !x.arms.is_empty()) {
        if let Var::Int(o) = mux.target {
            let ty = m.outputs[o].ty;
            int[o] = Some(match inst.outputs[o] {
                Some(n) => net_sig[n],
                None => d.signal(&name(mux.target), ty, ty.zero()),
            });
            hold[o] = Some(d.signal(&name(mux.default), ty, ty.zero()));
        }
    }
    let b = Bound {
        pin,
        held,
        reg,
        next,
        int,
        hold,
        state,
        sel,
        nets,
    };

    for (net, &sig) in m.nets.iter().zip(&b.nets) {
        let expr = b.expr(&net.expr);
        let mut sensitivity = Vec::new();
        expr.support(&mut sensitivity);
        d.process(
            &format!("{}_p", net_name(net)),
            Trigger::Signals(sensitivity),
            vec![Stmt::Assign(sig, expr)],
        );
    }

    // The controller: a case over states as nested ifs, each state's
    // transitions as a guard chain.
    if let (Some(c), Some((state, state_next))) = (&m.controller, b.state) {
        let encode = |s: usize| Expr::Const(Value::bits(c.bits, s as u64));
        let mut body = vec![Stmt::Assign(state_next, Expr::Sig(state))];
        for s in &b.sel {
            body.push(Stmt::Assign(*s, Expr::Const(Value::Bool(false))));
        }
        let case = c.transitions.iter().enumerate().rev();
        body.extend(case.fold(Vec::new(), |case, (si, transitions)| {
            let chain = transitions.iter().rev().fold(Vec::new(), |chain, t| {
                let run = t.selects.iter().map(|&k| b.sel[k]);
                let mut taken: Vec<Stmt> = run
                    .map(|s| Stmt::Assign(s, Expr::Const(Value::Bool(true))))
                    .collect();
                taken.push(Stmt::Assign(state_next, encode(t.to)));
                match &t.guard {
                    None => taken,
                    Some(g) => vec![Stmt::If {
                        cond: b.expr(g),
                        then: taken,
                        otherwise: chain,
                    }],
                }
            });
            let cond = Expr::Bin(BinOp::Eq, Box::new(Expr::Sig(state)), Box::new(encode(si)));
            vec![Stmt::If {
                cond,
                then: chain,
                otherwise: case,
            }]
        }));
        comb_process(d, &format!("{prefix}.ctrl"), body);
    }

    for mux in m.muxes.iter().filter(|x| !x.arms.is_empty()) {
        let (Some(target), Some(default)) = (b.var(mux.target), b.var(mux.default)) else {
            continue;
        };
        let last = vec![Stmt::Assign(target, Expr::Sig(default))];
        let chain = mux.arms.iter().rev().fold(last, |chain, (k, e)| {
            vec![Stmt::If {
                cond: Expr::Sig(b.sel[*k]),
                then: vec![Stmt::Assign(target, b.expr(e))],
                otherwise: chain,
            }]
        });
        let process = match mux.target {
            Var::Next(r) => format!("{prefix}.{}_nx", m.regs[r].name),
            Var::Int(o) => format!("{prefix}.{}_mux", m.outputs[o].name),
            v => format!("{}_mux", name(v)),
        };
        comb_process(d, &process, chain);
    }

    let seq: Vec<Stmt> = m
        .commits
        .iter()
        .filter_map(|c| Some(Stmt::Assign(b.var(c.target)?, Expr::Sig(b.var(c.source)?))))
        .collect();
    if !seq.is_empty() {
        d.process(&format!("{prefix}.seq"), Trigger::Rising(clk), seq);
    }
}

/// An untimed block and the signals of its ports, in port order.
#[derive(Debug)]
struct Untimed {
    block: Box<dyn UntimedBlock>,
    inputs: Vec<SignalId>,
    outputs: Vec<SignalId>,
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
    /// The untimed blocks, by index in the system.
    untimed: Vec<Untimed>,
    /// The order they fire in ([`System::untimed_order`]).
    order: Vec<usize>,
    /// Input and output values of the block being fired.
    ins: Vec<Value>,
    outs: Vec<Value>,
    cycle: u64,
}

impl RtlSystemSim {
    /// Lowers the system and elaborates the event-driven model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CombinationalLoop`] if the untimed blocks
    /// feed each other in a loop or elaboration does not converge.
    pub fn new(mut sys: System) -> Result<RtlSystemSim, CoreError> {
        let order = sys.untimed_order()?;
        let top = Top::new(&sys, Sharing::Reused);
        let mut d = RtlDesign::new(&top.name);
        let clk = d.signal("clk", SigType::Bool, Value::Bool(false));
        let net_sig: Vec<SignalId> = top
            .nets
            .iter()
            .map(|n| d.signal(&format!("net.{}", n.name), n.ty, n.power_up()))
            .collect();
        for inst in &top.instances {
            instantiate(&mut d, clk, &net_sig, inst);
        }
        // An untimed output that drives no net keeps its held value in a
        // signal of its own.
        let untimed = (top.blocks.iter().zip(std::mem::take(&mut sys.untimed)))
            .map(|(b, u)| Untimed {
                block: u.block,
                inputs: b.inputs.iter().map(|(_, n)| net_sig[*n]).collect(),
                outputs: (b.outputs.iter().enumerate())
                    .map(|(k, (q, net))| match net {
                        Some(n) => net_sig[*n],
                        None => d.signal(&format!("{}.out{k}", b.name), q.ty, q.ty.zero()),
                    })
                    .collect(),
            })
            .collect();
        let mut sim = RtlSim::new(d);
        sim.elaborate().map_err(to_core)?;
        let inputs = top
            .inputs
            .into_iter()
            .map(|p| (p.name, p.ty, net_sig[p.net]))
            .collect();
        let outputs: Vec<(String, SignalId)> = top
            .outputs
            .into_iter()
            .map(|p| (p.name, net_sig[p.net]))
            .collect();
        let latched = outputs
            .iter()
            .map(|(_, s)| sim.design().signals[s.index()].init)
            .collect();
        Ok(RtlSystemSim {
            sim,
            clk,
            inputs,
            outputs,
            latched,
            untimed,
            order,
            ins: Vec::new(),
            outs: Vec::new(),
            cycle: 0,
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

    /// The lowered design the kernel runs.
    pub fn design(&self) -> &RtlDesign {
        self.sim.design()
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
        // Fire each untimed block once on its settled inputs; the order
        // settles every block's inputs before it fires.
        for &u in &self.order {
            let u = &mut self.untimed[u];
            let sim = &mut self.sim;
            self.ins.clear();
            self.ins.extend(u.inputs.iter().map(|s| sim.value(*s)));
            if !u.block.ready(&self.ins) {
                continue;
            }
            self.outs.clear();
            self.outs.extend(u.outputs.iter().map(|s| sim.value(*s)));
            u.block.fire(&self.ins, &mut self.outs);
            for (s, v) in u.outputs.iter().zip(&self.outs) {
                sim.schedule(*s, *v);
            }
            sim.settle().map_err(to_core)?;
        }
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

    fn empty_trace(&self) -> Trace {
        let signals = &self.sim.design().signals;
        let inputs = self.inputs.iter().map(|(n, t, _)| (n.clone(), *t, true));
        let outputs = self
            .outputs
            .iter()
            .map(|(n, s)| (n.clone(), signals[s.index()].ty, false));
        Trace::new(inputs.chain(outputs))
    }
}
