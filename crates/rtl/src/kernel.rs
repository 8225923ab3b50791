//! The event-driven simulation kernel: delta cycles, event queues,
//! sensitivity-driven process execution.

use crate::ir::{Expr, RtlDesign, SignalId, Stmt, Trigger};
use crate::RtlError;
use ocapi::Value;

/// Activity counters, useful for comparing simulation paradigms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Signal-update events applied.
    pub events: u64,
    /// Process executions.
    pub process_runs: u64,
    /// Delta cycles executed.
    pub deltas: u64,
}

/// An event-driven simulator for an [`RtlDesign`].
///
/// The delta loop runs without heap allocation once its buffers have
/// grown to the design's working size: the two update queues are swapped
/// rather than rebuilt, and wake-ups are deduplicated with a per-process
/// stamp instead of a search of the run list.
#[derive(Debug)]
pub struct RtlSim {
    design: RtlDesign,
    values: Vec<Value>,
    /// signal -> processes sensitive to any event on it
    sens: Vec<Vec<usize>>,
    /// signal -> processes triggered by its rising edge
    rising: Vec<Vec<usize>>,
    /// scheduled assignments for the next delta
    scheduled: Vec<(SignalId, Value)>,
    /// the assignments being applied in the current delta (swapped with
    /// `scheduled` at the top of each delta)
    applying: Vec<(SignalId, Value)>,
    /// processes to run in the current delta, in first-trigger order
    to_run: Vec<usize>,
    /// process -> the delta (by `stats.deltas`) it was last queued in
    queued: Vec<u64>,
    delta_limit: usize,
    stats: KernelStats,
}

impl RtlSim {
    /// Builds the simulator; signals take their declared initial values
    /// and every process runs once (VHDL elaboration semantics) at the
    /// first [`RtlSim::settle`].
    pub fn new(design: RtlDesign) -> RtlSim {
        let n_sig = design.signals.len();
        let mut sens: Vec<Vec<usize>> = vec![Vec::new(); n_sig];
        let mut rising = vec![Vec::new(); n_sig];
        for (pi, p) in design.processes.iter().enumerate() {
            match &p.trigger {
                Trigger::Signals(list) => {
                    for s in list {
                        // Processes are visited in order, so a repeat
                        // within one list can only be the last entry.
                        if sens[s.index()].last() != Some(&pi) {
                            sens[s.index()].push(pi);
                        }
                    }
                }
                Trigger::Rising(s) => rising[s.index()].push(pi),
            }
        }
        let values = design.signals.iter().map(|s| s.init).collect();
        let queued = vec![0; design.processes.len()];
        RtlSim {
            design,
            values,
            sens,
            rising,
            scheduled: Vec::new(),
            applying: Vec::new(),
            to_run: Vec::new(),
            queued,
            delta_limit: 10_000,
            stats: KernelStats::default(),
        }
    }

    /// The design being simulated.
    pub fn design(&self) -> &RtlDesign {
        &self.design
    }

    /// Activity counters so far.
    pub fn stats(&self) -> KernelStats {
        self.stats
    }

    /// Current value of a signal.
    pub fn value(&self, s: SignalId) -> Value {
        self.values[s.index()]
    }

    /// Schedules `signal <= value` for the next delta (testbench drive).
    pub fn schedule(&mut self, s: SignalId, v: Value) {
        self.scheduled.push((s, v));
    }

    /// Runs every process once (elaboration) and settles.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::DeltaOverflow`] on combinational feedback.
    pub fn elaborate(&mut self) -> Result<(), RtlError> {
        for pi in 0..self.design.processes.len() {
            self.run_process(pi)?;
        }
        self.settle()
    }

    /// Applies scheduled updates and runs deltas until no events remain.
    ///
    /// # Errors
    ///
    /// Returns [`RtlError::DeltaOverflow`] on combinational feedback.
    pub fn settle(&mut self) -> Result<(), RtlError> {
        for delta in 0.. {
            if self.scheduled.is_empty() {
                return Ok(());
            }
            if delta >= self.delta_limit {
                return Err(RtlError::DeltaOverflow {
                    limit: self.delta_limit,
                });
            }
            self.stats.deltas += 1;
            let stamp = self.stats.deltas;
            // Apply updates, collecting the processes woken by changed
            // signals and rising edges.
            std::mem::swap(&mut self.scheduled, &mut self.applying);
            self.to_run.clear();
            for &(s, v) in &self.applying {
                let old = self.values[s.index()];
                if old == v {
                    continue;
                }
                self.stats.events += 1;
                self.values[s.index()] = v;
                wake(
                    &mut self.to_run,
                    &mut self.queued,
                    &self.sens[s.index()],
                    stamp,
                );
                if old == Value::Bool(false) && v == Value::Bool(true) {
                    wake(
                        &mut self.to_run,
                        &mut self.queued,
                        &self.rising[s.index()],
                        stamp,
                    );
                }
            }
            self.applying.clear();
            for k in 0..self.to_run.len() {
                self.run_process(self.to_run[k])?;
            }
        }
        // `for delta in 0..` either returns Ok (queue drained) or
        // Err (limit hit) from inside the loop.
        Err(RtlError::DeltaOverflow {
            limit: self.delta_limit,
        })
    }

    /// Runs process `pi`, scheduling its assignments for the next delta.
    /// A process that fails schedules nothing.
    fn run_process(&mut self, pi: usize) -> Result<(), RtlError> {
        self.stats.process_runs += 1;
        let mark = self.scheduled.len();
        for s in &self.design.processes[pi].body {
            if let Err(e) = exec_stmt(s, &self.values, &mut self.scheduled) {
                self.scheduled.truncate(mark);
                return Err(e);
            }
        }
        Ok(())
    }
}

/// Queues every process in `procs` not yet queued in delta `stamp`,
/// keeping first-trigger order.
fn wake(to_run: &mut Vec<usize>, queued: &mut [u64], procs: &[usize], stamp: u64) {
    for &p in procs {
        if queued[p] != stamp {
            queued[p] = stamp;
            to_run.push(p);
        }
    }
}

fn exec_stmt(
    stmt: &Stmt,
    values: &[Value],
    out: &mut Vec<(SignalId, Value)>,
) -> Result<(), RtlError> {
    match stmt {
        Stmt::Assign(s, e) => out.push((*s, eval(e, values)?)),
        Stmt::If {
            cond,
            then,
            otherwise,
        } => {
            let c = eval(cond, values)?.as_bool().ok_or(RtlError::Type {
                context: "if condition is not a boolean",
            })?;
            for s in if c { then } else { otherwise } {
                exec_stmt(s, values, out)?;
            }
        }
    }
    Ok(())
}

fn eval(e: &Expr, values: &[Value]) -> Result<Value, RtlError> {
    Ok(match e {
        Expr::Sig(s) => values[s.index()],
        Expr::Const(v) => *v,
        Expr::Un(op, a) => op.apply(eval(a, values)?),
        Expr::Bin(op, a, b) => op.apply(eval(a, values)?, eval(b, values)?),
        Expr::Select { c, t, e } => {
            let cond = eval(c, values)?.as_bool().ok_or(RtlError::Type {
                context: "select condition is not a boolean",
            })?;
            if cond {
                eval(t, values)?
            } else {
                eval(e, values)?
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{RtlDesign, Trigger};
    use ocapi::SigType;

    fn b8(v: u64) -> Value {
        Value::bits(8, v)
    }

    #[test]
    fn combinational_chain_settles() {
        // b = a + 1; c = b + 1
        let mut d = RtlDesign::new("chain");
        let a = d.signal("a", SigType::Bits(8), b8(0));
        let b = d.signal("b", SigType::Bits(8), b8(0));
        let c = d.signal("c", SigType::Bits(8), b8(0));
        d.process(
            "pb",
            Trigger::Signals(vec![a]),
            vec![Stmt::Assign(
                b,
                Expr::Bin(
                    ocapi::BinOp::Add,
                    Box::new(Expr::Sig(a)),
                    Box::new(Expr::Const(b8(1))),
                ),
            )],
        );
        d.process(
            "pc",
            Trigger::Signals(vec![b]),
            vec![Stmt::Assign(
                c,
                Expr::Bin(
                    ocapi::BinOp::Add,
                    Box::new(Expr::Sig(b)),
                    Box::new(Expr::Const(b8(1))),
                ),
            )],
        );
        let mut sim = RtlSim::new(d);
        sim.elaborate().unwrap();
        assert_eq!(sim.value(c), b8(2));
        sim.schedule(a, b8(10));
        sim.settle().unwrap();
        assert_eq!(sim.value(b), b8(11));
        assert_eq!(sim.value(c), b8(12));
        assert!(sim.stats().events >= 3);
    }

    #[test]
    fn rising_edge_only_fires_on_edge() {
        let mut d = RtlDesign::new("ff");
        let clk = d.signal("clk", SigType::Bool, Value::Bool(false));
        let din = d.signal("d", SigType::Bits(8), b8(0));
        let q = d.signal("q", SigType::Bits(8), b8(0));
        d.process(
            "ff",
            Trigger::Rising(clk),
            vec![Stmt::Assign(q, Expr::Sig(din))],
        );
        let mut sim = RtlSim::new(d);
        sim.elaborate().unwrap();
        sim.schedule(din, b8(42));
        sim.settle().unwrap();
        assert_eq!(sim.value(q), b8(0), "no clock edge yet");
        sim.schedule(clk, Value::Bool(true));
        sim.settle().unwrap();
        assert_eq!(sim.value(q), b8(42), "captured on rising edge");
        sim.schedule(din, b8(7));
        sim.schedule(clk, Value::Bool(false));
        sim.settle().unwrap();
        assert_eq!(sim.value(q), b8(42), "falling edge does nothing");
    }

    #[test]
    fn oscillation_detected() {
        // a = not a: never settles.
        let mut d = RtlDesign::new("osc");
        let a = d.signal("a", SigType::Bool, Value::Bool(false));
        d.process(
            "inv",
            Trigger::Signals(vec![a]),
            vec![Stmt::Assign(
                a,
                Expr::Un(ocapi::UnOp::Not, Box::new(Expr::Sig(a))),
            )],
        );
        let mut sim = RtlSim::new(d);
        assert!(matches!(
            sim.elaborate(),
            Err(RtlError::DeltaOverflow { .. })
        ));
    }

    #[test]
    fn non_boolean_condition_is_a_typed_error() {
        // Malformed-but-constructible IR: an 8-bit signal used as an
        // `if` condition must surface as RtlError::Type, not a panic.
        let mut d = RtlDesign::new("badif");
        let a = d.signal("a", SigType::Bits(8), b8(1));
        let b = d.signal("b", SigType::Bits(8), b8(0));
        d.process(
            "p",
            Trigger::Signals(vec![a]),
            vec![Stmt::If {
                cond: Expr::Sig(a),
                then: vec![Stmt::Assign(b, Expr::Sig(a))],
                otherwise: vec![],
            }],
        );
        let mut sim = RtlSim::new(d);
        let err = sim.elaborate().unwrap_err();
        assert!(matches!(err, RtlError::Type { .. }));
        assert_eq!(
            err.to_string(),
            "type mismatch in RTL evaluation: if condition is not a boolean"
        );
    }

    #[test]
    fn no_event_no_work() {
        let mut d = RtlDesign::new("quiet");
        let a = d.signal("a", SigType::Bits(8), b8(3));
        let b = d.signal("b", SigType::Bits(8), b8(0));
        d.process(
            "p",
            Trigger::Signals(vec![a]),
            vec![Stmt::Assign(b, Expr::Sig(a))],
        );
        let mut sim = RtlSim::new(d);
        sim.elaborate().unwrap();
        let runs = sim.stats().process_runs;
        // Writing the same value creates no event and runs no process.
        sim.schedule(a, b8(3));
        sim.settle().unwrap();
        assert_eq!(sim.stats().process_runs, runs);
    }
}
