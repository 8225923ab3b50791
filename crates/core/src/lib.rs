#![warn(missing_docs)]

//! An embedded hardware description environment, reproducing the DAC 1998
//! paper *"A Programming Environment for the Design of Complex High Speed
//! ASICs"* (Schaumont, Vernalde, Rijnders, Engels, Bolsens — IMEC).
//!
//! The original system captured digital hardware as C++ objects and used a
//! single in-memory data structure for simulation, HDL generation and
//! synthesis. This crate provides the same capture model in Rust:
//!
//! * **Signals and signal flow graphs** ([`Sig`], [`Sfg`]): operator
//!   overloading on signal handles appends nodes to a per-component
//!   expression graph — the host-language parser is reused to build the
//!   SFG, exactly like the paper's Figure 3. Registered signals
//!   ([`Reg`]) carry a current and a next value. Semantic checks flag
//!   dangling inputs and dead code.
//! * **Finite state machines** ([`Fsm`]): a compact Mealy-FSM builder in
//!   the style of the paper's Figure 4 selects which SFGs execute each
//!   clock cycle.
//! * **Untimed blocks** ([`UntimedBlock`]): high-level models with
//!   data-flow firing rules, freely mixed with cycle-true components.
//! * **Schedulers**: the three-phase *cycle scheduler* (token production,
//!   evaluation, register update — §4) embodied by [`InterpSim`], and a
//!   *data-flow scheduler* ([`dataflow::DataflowGraph`]) for untimed-only
//!   systems, including SDF repetition vectors and static schedules.
//! * **Two simulation back-ends** (§5): the interpreted [`InterpSim`]
//!   walks the data structure; the compiled [`CompiledSim`] levelizes the
//!   whole system into a flat evaluation tape. One simulator runs that
//!   tape over any number of lanes, [`BatchedSim`]; `CompiledSim` is its
//!   one-lane form.
//!
//! # Example: the paper's Figure 4 FSM
//!
//! ```
//! use ocapi::{Component, SigType, System, Value, InterpSim, Simulator};
//!
//! # fn main() -> Result<(), ocapi::CoreError> {
//! let c = Component::build("fig4");
//! let eof = c.input("eof", SigType::Bool)?;
//! let out = c.output("phase", SigType::Bits(2))?;
//! let sfg1 = c.sfg("sfg1")?; sfg1.drive(out, &c.const_bits(2, 1))?;
//! let sfg2 = c.sfg("sfg2")?; sfg2.drive(out, &c.const_bits(2, 2))?;
//! let sfg3 = c.sfg("sfg3")?; sfg3.drive(out, &c.const_bits(2, 3))?;
//! let eof_s = c.read(eof);
//! let f = c.fsm()?;
//! let s0 = f.initial("s0")?;
//! let s1 = f.state("s1")?;
//! f.from(s0).always().run(sfg1.id()).to(s1)?;
//! f.from(s1).when(&eof_s).run(sfg2.id()).to(s1)?;
//! f.from(s1).unless(&eof_s).run(sfg3.id()).to(s0)?;
//!
//! let mut sb = System::build("demo");
//! let u = sb.add_component("u0", c.finish()?)?;
//! sb.input("eof", SigType::Bool)?;
//! sb.connect_input("eof", u, "eof")?;
//! sb.output("phase", u, "phase")?;
//! let mut sim = InterpSim::new(sb.finish()?)?;
//!
//! sim.set_input("eof", Value::Bool(false))?;
//! sim.step()?; // s0 -> s1 running sfg1
//! assert_eq!(sim.output("phase")?, Value::bits(2, 1));
//! sim.step()?; // !eof: s1 -> s0 running sfg3
//! assert_eq!(sim.output("phase")?, Value::bits(2, 3));
//! # Ok(())
//! # }
//! ```

mod blocks;
mod comp;
pub mod dataflow;
mod error;
mod fsm;
pub mod rng;
pub mod sim;
mod system;
mod trace;
mod value;

pub use blocks::{FnBlock, MemorySpec, Ram, Rom, UntimedBlock};
pub use comp::{
    Component, ComponentBuilder, Diagnostic, DiagnosticKind, InPort, Node, NodeId, NodeKind,
    OutPort, PortDecl, Reg, RegDecl, Sfg, SfgBuilder, SfgRef, Sig,
};
pub use error::CoreError;
pub use fsm::{Fsm, FsmBuilder, StateRef, Transition, TransitionBuilder};
pub use sim::fault::{
    apply_lane_faults, run_campaign_batched, run_campaign_cached_par, run_campaign_par,
    CampaignReport, FaultEvent, FaultKind, FaultOutcome, FaultPlan, FaultSite, FaultySim,
    LaneFault,
};
pub use sim::hash::{hash_system, CompiledDesign, CompiledTape};
pub use sim::par::{map_indexed_with, ParConfig, ParError};
pub use sim::snapshot::SimSnapshot;
pub use sim::{BatchedSim, CompiledSim, InterpSim, OptLevel, OptStats, Simulator, WorkerSims};
pub use sim::{FusedSim, FusedTape, LowerStats};
pub use system::{
    InstanceId, Net, NetSink, NetSource, PrimaryInput, PrimaryOutput, System, SystemBuilder,
    TimedInstance, UntimedInstance,
};
pub use trace::{Trace, TraceSignal, Traced};
pub use value::{BinOp, SigType, UnOp, Value};

// Re-export the fixed-point types commonly needed alongside `SigType::Fixed`.
pub use ocapi_fixp::{Fix, Format, Overflow, Rounding};
