//! Gate-level simulation of a whole captured system.
//!
//! Every timed component is synthesized to gates and merged into one flat
//! netlist; untimed blocks stay behavioural (the way real netlist
//! simulations keep vendor memory models behavioural) and fire whenever
//! their input bits change. The result implements [`Simulator`], so the
//! same stimuli drive interpreted, compiled, RT-level and gate-level
//! simulation — exactly the comparison of the paper's Table 1.

use ocapi::{CoreError, NetSource, SigType, Simulator, System, Trace, UntimedBlock, Value};
use ocapi_fixp::Fix;
use ocapi_obs::{Counter, Registry, Span};
use ocapi_synth::gate::{Gate, GateKind, Netlist, WireId};
use ocapi_synth::{synthesize_with_held, SynthOptions};

use crate::kernel::{GateError, GateSim, GateSimStats};

/// Lifts a gate-kernel failure into the system-level error vocabulary: an
/// oscillating netlist is the gate-level face of a combinational loop.
fn gate_err(e: GateError) -> CoreError {
    match e {
        GateError::Oscillation { unstable, .. } => {
            CoreError::CombinationalLoop { waiting: unstable }
        }
        GateError::WorkerPanic { index } => CoreError::WorkerPanic { index },
    }
}

fn encode(v: &Value) -> u64 {
    match v {
        Value::Bool(b) => *b as u64,
        Value::Bits { bits, .. } => *bits,
        Value::Fixed(f) => {
            let wl = f.format().wl() as usize;
            let mask = if wl >= 64 { u64::MAX } else { (1u64 << wl) - 1 };
            (f.mantissa() as u64) & mask
        }
        // Synthesis rejects float signals on timed components, but
        // untimed blocks stay behavioural and may carry floats as a
        // 64-bit pattern.
        Value::Float(x) => x.to_bits(),
    }
}

fn decode(bits: u64, ty: SigType) -> Value {
    match ty {
        SigType::Bool => Value::Bool(bits & 1 == 1),
        SigType::Bits(w) => Value::bits(w, bits),
        SigType::Fixed(f) => {
            let wl = f.wl();
            // Sign-extend the mantissa.
            let shifted = (bits << (64 - wl)) as i64 >> (64 - wl);
            Value::Fixed(Fix::from_raw(shifted, f))
        }
        SigType::Float => Value::Float(f64::from_bits(bits)),
    }
}

struct UntimedIo {
    block: Box<dyn UntimedBlock>,
    in_wires: Vec<Vec<WireId>>,
    out_wires: Vec<Vec<WireId>>,
    in_tys: Vec<SigType>,
    out_tys: Vec<SigType>,
    /// The input pattern the block last saw; `None` before its first
    /// visit.
    last_in: Option<Vec<Value>>,
    /// Input and output scratch, reused across passes and cycles so a
    /// steady-state step allocates nothing.
    ins: Vec<Value>,
    outs: Vec<Value>,
}

/// Phase spans + cycle counter of the gate-level system simulator,
/// resolved once at attach time (root span `gatesim`, children
/// `settle`/`untimed`/`clock`/`trace`).
struct SysObs {
    cycles: Counter,
    sp_settle: Span,
    sp_untimed: Span,
    sp_clock: Span,
    sp_trace: Span,
}

/// Gate-level simulation of a captured system.
pub struct GateSystemSim {
    sim: GateSim,
    untimed: Vec<UntimedIo>,
    inputs: Vec<(String, SigType, Vec<WireId>)>,
    outputs: Vec<(String, SigType, Vec<WireId>)>,
    latched: Vec<Value>,
    /// Total synthesized area in gate equivalents (before merging; Bufs
    /// added at port boundaries are excluded).
    area: f64,
    cycle: u64,
    trace: Option<Trace>,
    obs: Option<SysObs>,
}

impl std::fmt::Debug for GateSystemSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateSystemSim")
            .field("gates", &self.sim.netlist().gates.len())
            .field("area", &self.area)
            .finish()
    }
}

impl GateSystemSim {
    /// Synthesizes every timed component and assembles the flat netlist.
    /// Each instance samples the inputs [`System::guard_held_inputs`]
    /// names into held flip-flops for its guards, and no other input.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CheckFailed`] wrapping synthesis errors
    /// (float signals).
    pub fn new(mut sys: System, options: &SynthOptions) -> Result<GateSystemSim, CoreError> {
        let mut flat = Netlist::new();

        // One bus of wires per net.
        let net_bus: Vec<Vec<WireId>> = sys
            .nets
            .iter()
            .map(|n| flat.wires(n.ty.width() as usize))
            .collect();

        let mut area = 0.0;

        for (ti, t) in sys.timed.iter().enumerate() {
            let held = sys.guard_held_inputs(ti);
            let cn = synthesize_with_held(&t.comp, options, &held).map_err(|e| {
                CoreError::CheckFailed {
                    diagnostics: vec![e.to_string()],
                }
            })?;
            area += cn.netlist.area();

            // Wire remap: inputs alias their net wires, everything else is
            // offset into the flat netlist.
            let local = cn.netlist;
            let mut remap: Vec<Option<WireId>> = vec![None; local.n_wires];
            for (pi, _) in t.comp.inputs.iter().enumerate() {
                let bus = local
                    .input_by_name(&t.comp.inputs[pi].name)
                    .ok_or_else(|| CoreError::UnknownName {
                        kind: "synthesized input bus",
                        name: t.comp.inputs[pi].name.clone(),
                    })?;
                let net = sys.timed_input_net(ti, pi);
                for (b, w) in bus.iter().enumerate() {
                    remap[w.index()] = Some(net_bus[net][b]);
                }
            }
            let map = |w: WireId, flat: &mut Netlist, remap: &mut Vec<Option<WireId>>| {
                if let Some(m) = remap[w.index()] {
                    m
                } else {
                    let m = flat.wire();
                    remap[w.index()] = Some(m);
                    m
                }
            };
            for g in &local.gates {
                let inputs: Vec<WireId> = g
                    .inputs
                    .iter()
                    .map(|w| map(*w, &mut flat, &mut remap))
                    .collect();
                let output = map(g.output, &mut flat, &mut remap);
                flat.gates.push(Gate {
                    kind: g.kind,
                    inputs,
                    output,
                    init: g.init,
                });
            }
            // Connect output port buses to their nets with buffers.
            for (pi, p) in t.comp.outputs.iter().enumerate() {
                let Some(net) = sys.timed_output_net(ti, pi) else {
                    continue;
                };
                let bus = local
                    .output_by_name(&p.name)
                    .ok_or_else(|| CoreError::UnknownName {
                        kind: "synthesized output bus",
                        name: p.name.clone(),
                    })?;
                for (b, w) in bus.iter().enumerate() {
                    let src = map(*w, &mut flat, &mut remap);
                    flat.gate_into(GateKind::Buf, &[src], net_bus[net][b]);
                }
            }
        }

        let inputs: Vec<(String, SigType, Vec<WireId>)> = sys
            .primary_inputs
            .iter()
            .map(|p| (p.name.clone(), p.ty, net_bus[p.net].clone()))
            .collect();
        let outputs: Vec<(String, SigType, Vec<WireId>)> = sys
            .primary_outputs
            .iter()
            .map(|p| (p.name.clone(), sys.nets[p.net].ty, net_bus[p.net].clone()))
            .collect();
        let constants: Vec<(usize, Value)> = sys
            .nets
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match &n.source {
                NetSource::Constant(v) => Some((i, *v)),
                _ => None,
            })
            .collect();

        let mut untimed = Vec::new();
        for (ui, inst) in std::mem::take(&mut sys.untimed).into_iter().enumerate() {
            let in_tys: Vec<SigType> = inst.inputs.iter().map(|p| p.ty).collect();
            let out_tys: Vec<SigType> = inst.outputs.iter().map(|p| p.ty).collect();
            let in_wires: Vec<Vec<WireId>> = (0..in_tys.len())
                .map(|pi| net_bus[sys.untimed_input_net(ui, pi)].clone())
                .collect();
            let out_wires: Vec<Vec<WireId>> = out_tys
                .iter()
                .enumerate()
                .map(|(pi, ty)| match sys.untimed_output_net(ui, pi) {
                    Some(n) => net_bus[n].clone(),
                    None => flat.wires(ty.width() as usize),
                })
                .collect();
            untimed.push(UntimedIo {
                block: inst.block,
                in_wires,
                out_wires,
                in_tys,
                out_tys,
                last_in: None,
                ins: Vec::new(),
                outs: Vec::new(),
            });
        }

        let n_outputs = outputs.len();
        let mut sim = GateSim::new(flat).map_err(gate_err)?;
        for (net, v) in constants {
            let bus = net_bus[net].clone();
            sim.set_bus(&bus, encode(&v));
        }
        sim.settle().map_err(gate_err)?;

        Ok(GateSystemSim {
            sim,
            untimed,
            inputs,
            outputs,
            latched: vec![Value::Bool(false); n_outputs],
            area,
            cycle: 0,
            trace: None,
            obs: None,
        })
    }

    /// Starts reporting into `reg`: per-phase spans under the `gatesim`
    /// root, the `gatesim.cycles` counter, and the kernel's
    /// `gate.evals`/`gate.events` counters (see
    /// [`GateSim::attach_obs`]). Detached simulators pay nothing.
    pub fn attach_obs(&mut self, reg: &Registry) {
        let root = reg.span("gatesim");
        self.obs = Some(SysObs {
            cycles: reg.counter("gatesim.cycles"),
            sp_settle: root.child("settle"),
            sp_untimed: root.child("untimed"),
            sp_clock: root.child("clock"),
            sp_trace: root.child("trace"),
        });
        self.sim.attach_obs(reg);
    }

    /// Total synthesized area in gate equivalents.
    pub fn area(&self) -> f64 {
        self.area
    }

    /// Number of gates in the merged netlist.
    pub fn gate_count(&self) -> usize {
        self.sim.netlist().gates.len()
    }

    /// Kernel activity counters.
    pub fn stats(&self) -> GateSimStats {
        self.sim.stats()
    }

    /// Runs untimed blocks until no input pattern changes.
    ///
    /// Each pass visits every block whose input pattern changed, then
    /// settles the netlist. If the blocks feed each other only
    /// acyclically, n blocks reach their fixed point within n + 1
    /// passes: give a block depth 0 when no block output reaches its
    /// inputs, else one more than the deepest block feeding it, so
    /// depths are below n. Inputs of depth-0 blocks are final before the
    /// first pass; once pass p has visited every block of depth below p
    /// with final inputs and settled, the inputs of depth-p blocks are
    /// final too. So pass n visits the deepest blocks with final inputs
    /// and pass n + 1 sees no change. A change in pass n + 1 therefore
    /// means a combinational loop through the blocks: instead of firing,
    /// that pass reports the blocks whose inputs still change, labelled
    /// and sorted as the interpreter reports a waiting block.
    fn run_untimed(&mut self) -> Result<(), CoreError> {
        let bound = self.untimed.len() + 1;
        for pass in 1..=bound {
            let mut changed = false;
            let mut waiting = Vec::new();
            for u in &mut self.untimed {
                u.ins.clear();
                u.ins.extend(
                    u.in_wires
                        .iter()
                        .zip(&u.in_tys)
                        .map(|(w, ty)| decode(self.sim.bus(w), *ty)),
                );
                if u.last_in.as_ref() == Some(&u.ins) {
                    continue;
                }
                if pass == bound {
                    waiting.push(format!("{} (untimed)", u.block.name()));
                    continue;
                }
                u.outs.clear();
                u.outs.extend(
                    u.out_wires
                        .iter()
                        .zip(&u.out_tys)
                        .map(|(w, ty)| decode(self.sim.bus(w), *ty)),
                );
                if u.block.ready(&u.ins) {
                    u.block.fire(&u.ins, &mut u.outs);
                    for (w, v) in u.out_wires.iter().zip(&u.outs) {
                        self.sim.set_bus(w, encode(v));
                    }
                }
                match &mut u.last_in {
                    Some(last) => last.clone_from(&u.ins),
                    None => u.last_in = Some(u.ins.clone()),
                }
                changed = true;
            }
            if !waiting.is_empty() {
                waiting.sort();
                return Err(CoreError::CombinationalLoop { waiting });
            }
            self.sim.settle().map_err(gate_err)?;
            if !changed {
                break;
            }
        }
        Ok(())
    }
}

impl Simulator for GateSystemSim {
    fn set_input(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        let (_, ty, wires) = self
            .inputs
            .iter()
            .find(|(n, _, _)| n == name)
            .ok_or_else(|| CoreError::UnknownName {
                kind: "primary input",
                name: name.to_owned(),
            })?;
        value.check_type_with(*ty, || format!("primary input `{name}`"))?;
        self.sim.set_bus(wires, encode(&value));
        Ok(())
    }

    fn step(&mut self) -> Result<(), CoreError> {
        let t_settle = self.obs.as_ref().map(|o| o.sp_settle.timer());
        self.sim.settle().map_err(gate_err)?;
        drop(t_settle);
        let t_untimed = self.obs.as_ref().map(|o| o.sp_untimed.timer());
        self.run_untimed()?;
        drop(t_untimed);
        let t_clock = self.obs.as_ref().map(|o| o.sp_clock.timer());
        for (i, (_, ty, wires)) in self.outputs.iter().enumerate() {
            self.latched[i] = decode(self.sim.bus(wires), *ty);
        }
        self.sim.clock().map_err(gate_err)?;
        self.cycle += 1;
        drop(t_clock);
        if let Some(trace) = &mut self.trace {
            let _t_trace = self.obs.as_ref().map(|o| o.sp_trace.timer());
            // Inputs, then the latched outputs, without collecting a row.
            let (ins, outs) = (&self.inputs, &self.latched);
            trace.record_cycle((0..ins.len() + outs.len()).map(|k| match ins.get(k) {
                Some((_, ty, w)) => decode(self.sim.bus(w), *ty),
                None => outs[k - ins.len()],
            }))?;
        }
        if let Some(o) = &self.obs {
            o.cycles.incr();
        }
        Ok(())
    }

    fn output(&self, name: &str) -> Result<Value, CoreError> {
        self.outputs
            .iter()
            .position(|(n, _, _)| n == name)
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
            self.trace = Some(Trace::new(
                self.inputs
                    .iter()
                    .map(|(n, t, _)| (n.clone(), *t, true))
                    .chain(self.outputs.iter().map(|(n, t, _)| (n.clone(), *t, false))),
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
