#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Event-driven register-transfer-level simulation.
//!
//! Table 1 of the paper compares the C++ environment's cycle-based
//! simulators against event-driven RT-VHDL simulation. Since we generate
//! the VHDL but do not ship a commercial simulator, this crate *is* the
//! RT-level baseline: a faithful event-driven kernel — signals, processes,
//! sensitivity lists, delta cycles — plus a lowering that turns a captured
//! [`ocapi::System`] into the process structure of the generated VHDL
//! (controller process, datapath assignments, sequential process,
//! output-hold and guard-hold registers).
//!
//! That structure is built once, as the module AST of [`ast`]: an
//! [`ast::Module`] per component and an [`ast::Top`] per system.
//! [`RtlSystemSim`] elaborates it and both HDL printers of `ocapi-hdl`
//! print it; they differ only in its [`ast::Sharing`] rule.
//!
//! The kernel is a genuine event-driven engine, not a throttled cycle
//! simulator: work per cycle is proportional to signal *activity*, every
//! signal update is an event, and combinational feedback is detected by a
//! delta-cycle limit — the same failure mode as a real VHDL simulator.
//!
//! # Example
//!
//! ```
//! use ocapi::{Component, SigType, System, Value, Simulator};
//! use ocapi_rtl::RtlSystemSim;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let c = Component::build("counter");
//! let out = c.output("count", SigType::Bits(4))?;
//! let r = c.reg("r", SigType::Bits(4))?;
//! let sfg = c.sfg("tick")?;
//! let q = c.q(r);
//! sfg.drive(out, &q)?;
//! sfg.next(r, &(q.clone() + c.const_bits(4, 1)))?;
//!
//! let mut sb = System::build("demo");
//! let u = sb.add_component("u0", c.finish()?)?;
//! sb.output("count", u, "count")?;
//!
//! let mut sim = RtlSystemSim::new(sb.finish()?)?;
//! sim.run(3)?;
//! assert_eq!(sim.output("count")?, Value::bits(4, 2));
//! # Ok(())
//! # }
//! ```

pub mod ast;
mod error;
mod ir;
mod kernel;
mod lower;
mod plan;

pub use error::RtlError;
pub use ir::{Expr, Process, RtlDesign, SignalDecl, SignalId, Stmt, Trigger};
pub use kernel::{KernelStats, RtlSim};
pub use lower::RtlSystemSim;
