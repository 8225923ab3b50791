//! Cycle-accurate signal traces.
//!
//! A [`Trace`] records a run cycle by cycle: the primary inputs as
//! applied, then the primary outputs of the finished cycle. It is what
//! the code generator turns into a verification testbench (§5/§6 of the
//! paper: "during system simulation, the system stimuli are also
//! translated into test-benches"), and it can be dumped as a VCD file
//! for waveform viewing. No engine records one itself: [`Traced`] wraps
//! any [`Simulator`] and records its run.

use std::borrow::Borrow;
use std::fmt::Write as _;

use crate::sim::Simulator;
use crate::system::System;
use crate::value::{SigType, Value};
use crate::CoreError;

/// One recorded signal: name, type and per-cycle values.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSignal {
    /// Signal name.
    pub name: String,
    /// Signal type.
    pub ty: SigType,
    /// Whether this is an input (stimulus) or output (expected response).
    pub is_input: bool,
    /// One value per recorded cycle.
    pub values: Vec<Value>,
}

/// A recorded simulation run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// The recorded signals.
    pub signals: Vec<TraceSignal>,
}

impl Trace {
    /// Creates an empty trace with the given signal declarations.
    pub fn new(signals: impl IntoIterator<Item = (String, SigType, bool)>) -> Trace {
        Trace {
            signals: signals
                .into_iter()
                .map(|(name, ty, is_input)| TraceSignal {
                    name,
                    ty,
                    is_input,
                    values: Vec::new(),
                })
                .collect(),
        }
    }

    /// An empty trace of `sys`'s primary inputs, then its primary
    /// outputs: the declaration [`Simulator::empty_trace`] returns for
    /// the engines that keep the system.
    pub(crate) fn of_system(sys: &System) -> Trace {
        let inputs = sys
            .primary_inputs
            .iter()
            .map(|p| (p.name.clone(), p.ty, true));
        let outputs = sys
            .primary_outputs
            .iter()
            .map(|p| (p.name.clone(), sys.nets[p.net].ty, false));
        Trace::new(inputs.chain(outputs))
    }

    /// Appends one cycle of values (same order as the declarations).
    /// `values` is any exact-size row: an array, a slice, or an
    /// iterator fed in without being collected first.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TraceShape`] — recording nothing — when
    /// `values` has a different length than the declared signals, so a
    /// malformed row can never tear the trace (partial columns).
    pub fn record_cycle<I>(&mut self, values: I) -> Result<(), CoreError>
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        I::Item: Borrow<Value>,
    {
        let values = values.into_iter();
        if values.len() != self.signals.len() {
            return Err(CoreError::TraceShape {
                expected: self.signals.len(),
                got: values.len(),
            });
        }
        for (s, v) in self.signals.iter_mut().zip(values) {
            s.values.push(*v.borrow());
        }
        Ok(())
    }

    /// Number of recorded cycles.
    pub fn len(&self) -> usize {
        self.signals.first().map_or(0, |s| s.values.len())
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a recorded signal by name.
    pub fn signal(&self, name: &str) -> Option<&TraceSignal> {
        self.signals.iter().find(|s| s.name == name)
    }

    /// Renders the trace as a Value Change Dump (VCD) file with a 10 ns
    /// clock period.
    pub fn to_vcd(&self) -> String {
        let mut out = String::new();
        out.push_str("$timescale 1ns $end\n$scope module trace $end\n");
        let ids: Vec<String> = (0..self.signals.len()).map(|i| format!("s{i}")).collect();
        for (s, id) in self.signals.iter().zip(&ids) {
            let width = s.ty.width();
            let _ = writeln!(out, "$var wire {width} {id} {} $end", s.name);
        }
        out.push_str("$upscope $end\n$enddefinitions $end\n");
        for cycle in 0..self.len() {
            let _ = writeln!(out, "#{}", cycle * 10);
            for (s, id) in self.signals.iter().zip(&ids) {
                let v = s.values[cycle];
                if cycle > 0 && s.values[cycle - 1] == v {
                    continue;
                }
                match v {
                    Value::Bool(b) => {
                        let _ = writeln!(out, "{}{id}", if b { 1 } else { 0 });
                    }
                    Value::Bits { width, bits } => {
                        let _ = writeln!(out, "b{:0w$b} {id}", bits, w = width as usize);
                    }
                    Value::Fixed(f) => {
                        let w = f.format().wl() as usize;
                        let m = f.mantissa();
                        let masked = (m as u64) & (u64::MAX >> (64 - w.max(1)));
                        let _ = writeln!(out, "b{masked:0w$b} {id}");
                    }
                    Value::Float(x) => {
                        let _ = writeln!(out, "r{x} {id}");
                    }
                }
            }
        }
        out
    }
}

/// Records the run of any [`Simulator`] as a [`Trace`].
///
/// `Traced` forwards every call to the engine it wraps. It keeps each
/// primary input's value as last set — an input never set holds its
/// type's zero, as at power-up on every engine — and after each
/// successful step appends one row: those inputs, then every primary
/// output the step left. A failed step records nothing. The row is
/// reused scratch, so a traced step allocates only when the trace's
/// value columns grow.
///
/// ```
/// use ocapi::{Component, SigType, System, Value, InterpSim, Simulator, Traced};
///
/// # fn main() -> Result<(), ocapi::CoreError> {
/// let c = Component::build("inv");
/// let a = c.input("a", SigType::Bool)?;
/// let y = c.output("y", SigType::Bool)?;
/// c.sfg("run")?.drive(y, &!c.read(a))?;
/// let mut sb = System::build("demo");
/// let u = sb.add_component("u0", c.finish()?)?;
/// sb.input("a", SigType::Bool)?;
/// sb.connect_input("a", u, "a")?;
/// sb.output("y", u, "y")?;
///
/// let mut sim = Traced::new(InterpSim::new(sb.finish()?)?);
/// sim.set_input("a", Value::Bool(true))?;
/// sim.run(2)?;
/// let y = sim.trace().signal("y").map(|s| s.values.clone());
/// assert_eq!(y, Some(vec![Value::Bool(false); 2]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Traced<S> {
    sim: S,
    trace: Trace,
    /// The primary inputs: the trace's leading columns.
    inputs: usize,
    /// The next row: the inputs as last set, then the outputs of the
    /// last step.
    row: Vec<Value>,
}

impl<S: Simulator> Traced<S> {
    /// Wraps `sim`, recording into its [`Simulator::empty_trace`].
    pub fn new(sim: S) -> Traced<S> {
        let trace = sim.empty_trace();
        let inputs = trace.signals.iter().take_while(|s| s.is_input).count();
        let row = trace.signals.iter().map(|s| s.ty.zero()).collect();
        Traced {
            sim,
            trace,
            inputs,
            row,
        }
    }

    /// The recorded trace: one row per successful step.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &S {
        &self.sim
    }
}

impl<S: Simulator> Simulator for Traced<S> {
    fn set_input(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        self.sim.set_input(name, value)?;
        let inputs = &self.trace.signals[..self.inputs];
        if let Some(k) = inputs.iter().position(|s| s.name == name) {
            self.row[k] = value;
        }
        Ok(())
    }

    fn step(&mut self) -> Result<(), CoreError> {
        self.sim.step()?;
        let outputs = &self.trace.signals[self.inputs..];
        for (v, s) in self.row[self.inputs..].iter_mut().zip(outputs) {
            *v = self.sim.output(&s.name)?;
        }
        self.trace.record_cycle(&self.row)
    }

    fn output(&self, name: &str) -> Result<Value, CoreError> {
        self.sim.output(name)
    }

    fn cycle(&self) -> u64 {
        self.sim.cycle()
    }

    fn empty_trace(&self) -> Trace {
        self.sim.empty_trace()
    }

    fn peek_net(&self, name: &str) -> Result<Value, CoreError> {
        self.sim.peek_net(name)
    }

    fn poke_net(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        self.sim.poke_net(name, value)
    }

    fn peek_reg(&self, instance: &str, reg: &str) -> Result<Value, CoreError> {
        self.sim.peek_reg(instance, reg)
    }

    fn poke_reg(&mut self, instance: &str, reg: &str, value: Value) -> Result<(), CoreError> {
        self.sim.poke_reg(instance, reg, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut t = Trace::new([
            ("a".to_owned(), SigType::Bool, true),
            ("y".to_owned(), SigType::Bits(4), false),
        ]);
        t.record_cycle([Value::Bool(true), Value::bits(4, 3)])
            .unwrap();
        // Slices work as rows too.
        let row = vec![Value::Bool(false), Value::bits(4, 9)];
        t.record_cycle(row.as_slice()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.signal("y").map(|s| s.values[1]), Some(Value::bits(4, 9)));
        assert!(t.signal("nope").is_none());
    }

    #[test]
    fn wrong_width_row_is_rejected_whole() {
        let mut t = Trace::new([
            ("a".to_owned(), SigType::Bool, true),
            ("y".to_owned(), SigType::Bits(4), false),
        ]);
        let err = t.record_cycle([Value::Bool(true)]).unwrap_err();
        assert_eq!(
            err,
            CoreError::TraceShape {
                expected: 2,
                got: 1
            }
        );
        // The malformed row recorded nothing: no partial columns.
        assert!(t.is_empty());
        t.record_cycle([Value::Bool(true), Value::bits(4, 1)])
            .unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn vcd_has_headers_and_changes() {
        let mut t = Trace::new([("a".to_owned(), SigType::Bool, true)]);
        t.record_cycle([Value::Bool(true)]).unwrap();
        t.record_cycle([Value::Bool(true)]).unwrap(); // no change: no dump line
        t.record_cycle([Value::Bool(false)]).unwrap();
        let vcd = t.to_vcd();
        assert!(vcd.contains("$var wire 1 s0 a $end"));
        assert!(vcd.contains("#0\n1s0"));
        assert!(vcd.contains("#20\n0s0"));
        assert!(!vcd.contains("#10\n1s0"));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
    }
}
