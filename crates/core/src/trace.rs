//! Cycle-accurate signal traces.
//!
//! Both simulators can record the primary inputs and outputs of every
//! cycle. The recorded [`Trace`] is what the code generator turns into a
//! verification testbench (§5/§6 of the paper: "during system simulation,
//! the system stimuli are also translated into test-benches"), and it can
//! be dumped as a VCD file for waveform viewing.

use std::borrow::Borrow;
use std::fmt::Write as _;

use crate::system::System;
use crate::value::{SigType, Value};
use crate::CoreError;

/// The nets a trace row records, in [`make_trace`]'s signal order:
/// primary inputs, then primary outputs — as one exact-size iterator,
/// so a row feeds [`Trace::record_cycle`] without being collected.
pub(crate) fn traced_nets(sys: &System) -> impl ExactSizeIterator<Item = usize> + '_ {
    let (ins, outs) = (&sys.primary_inputs, &sys.primary_outputs);
    (0..ins.len() + outs.len()).map(move |k| match ins.get(k) {
        Some(p) => p.net,
        None => outs[k - ins.len()].net,
    })
}

/// An empty trace of `sys`'s primary inputs, then its primary outputs.
pub(crate) fn make_trace(sys: &System) -> Trace {
    Trace::new(
        sys.primary_inputs
            .iter()
            .map(|p| (p.name.clone(), p.ty, true))
            .chain(
                sys.primary_outputs
                    .iter()
                    .map(|p| (p.name.clone(), sys.nets[p.net].ty, false)),
            ),
    )
}

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

    /// Appends one cycle of values (same order as the declarations).
    /// `values` is any exact-size row — a slice, or a simulator's
    /// iterator over its state, which is fed in without being collected
    /// first.
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
