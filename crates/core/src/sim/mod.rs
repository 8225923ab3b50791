//! Simulation back-ends.
//!
//! The paper treats the captured C++ description in two ways (§5,
//! Figure 7): *interpreted* — the simulator walks the in-memory data
//! structure — and *compiled* — an application-specific simulator is
//! regenerated for maximum speed. [`InterpSim`] and [`CompiledSim`] are
//! the two back-ends; both implement [`Simulator`] and produce identical
//! cycle-by-cycle behaviour (see the `codegen_equivalence` integration
//! test). One simulator runs the compiled tape, [`BatchedSim`]: N
//! independent instances in lockstep, with [`CompiledSim`] its one-lane
//! form. The tape has exactly one executor, `exec`, instantiated for one
//! lane fixed at compile time and for N lane stripes with or without
//! masked lanes.
//!
//! The kernels in this module are **panic-free on constructible
//! designs**: every runtime failure (combinational loops, type-confused
//! guards, unknown names) surfaces as a typed [`CoreError`], never an
//! abort. The lint gates below keep it that way.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod batch;
mod compiled;
mod eval;
mod exec;
pub mod fault;
pub mod hash;
mod interp;
mod lower;
mod obs;
pub mod opt;
pub mod par;
pub mod snapshot;

pub use batch::{BatchedSim, WorkerSims};
pub use compiled::CompiledSim;
pub use hash::{hash_system, CompiledDesign, CompiledTape};
pub use interp::InterpSim;
pub use lower::{FusedSim, FusedTape, LowerStats};
pub use opt::{OptLevel, OptStats};
pub use snapshot::SimSnapshot;

use crate::trace::Trace;
use crate::value::Value;
use crate::CoreError;

/// Common driving interface of the interpreted and compiled simulators.
pub trait Simulator {
    /// Sets a primary input for the coming cycle(s).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown input and
    /// [`CoreError::ValueType`] for a type mismatch.
    fn set_input(&mut self, name: &str, value: Value) -> Result<(), CoreError>;

    /// Advances the system by one clock cycle.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::CombinationalLoop`] if the evaluation phase
    /// stalls.
    fn step(&mut self) -> Result<(), CoreError>;

    /// Reads a primary output (the value driven in the last completed
    /// cycle).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown output.
    fn output(&self, name: &str) -> Result<Value, CoreError>;

    /// Number of completed cycles.
    fn cycle(&self) -> u64;

    /// Starts recording primary inputs and outputs each cycle.
    fn enable_trace(&mut self);

    /// The recorded trace (empty unless [`Simulator::enable_trace`] was
    /// called before stepping).
    fn trace(&self) -> &Trace;

    /// Runs `n` cycles.
    ///
    /// # Errors
    ///
    /// Propagates the first [`Simulator::step`] error.
    fn run(&mut self, n: u64) -> Result<(), CoreError> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Observes the current value on a named net (`instance.port` or a
    /// primary-input name). Used by the fault injector to read state.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown net, or
    /// [`CoreError::Unsupported`] on back-ends without observable nets.
    fn peek_net(&self, name: &str) -> Result<Value, CoreError> {
        let _ = name;
        Err(CoreError::Unsupported {
            op: "peek_net".to_owned(),
        })
    }

    /// Overwrites the value held on a named net — the fault injector's
    /// corruption primitive. The value must match the net's type.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown net,
    /// [`CoreError::ValueType`] for a type mismatch, or
    /// [`CoreError::Unsupported`] on back-ends without pokeable nets.
    fn poke_net(&mut self, name: &str, value: Value) -> Result<(), CoreError> {
        let _ = (name, value);
        Err(CoreError::Unsupported {
            op: "poke_net".to_owned(),
        })
    }

    /// Observes the current value of register `reg` in timed instance
    /// `instance`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown instance or
    /// register, or [`CoreError::Unsupported`] on back-ends without
    /// observable registers.
    fn peek_reg(&self, instance: &str, reg: &str) -> Result<Value, CoreError> {
        let _ = (instance, reg);
        Err(CoreError::Unsupported {
            op: "peek_reg".to_owned(),
        })
    }

    /// Overwrites the current value of register `reg` in timed instance
    /// `instance`. The value must match the register's declared type.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnknownName`] for an unknown instance or
    /// register, [`CoreError::ValueType`] for a type mismatch, or
    /// [`CoreError::Unsupported`] on back-ends without pokeable
    /// registers.
    fn poke_reg(&mut self, instance: &str, reg: &str, value: Value) -> Result<(), CoreError> {
        let _ = (instance, reg, value);
        Err(CoreError::Unsupported {
            op: "poke_reg".to_owned(),
        })
    }
}
