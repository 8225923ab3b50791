#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! HDL code generation from captured designs.
//!
//! The paper's environment avoids hand-written HDL entirely: "the writing
//! of HDL is avoided through code generation from C++" (§7). The same
//! in-memory data structure that the simulators execute is processed by a
//! code generator to yield a synthesizable description (§5, Figure 7), with
//! separate controller and datapath descriptions per component so that
//! specialised synthesis tools can be applied to each (§6, Figure 8).
//!
//! This crate generates:
//!
//! * **VHDL** ([`vhdl`]) — one entity per timed component with a
//!   controller process (state register + transition selection), dataflow-
//!   style concurrent assignments for the datapath, and output-hold
//!   registers matching the simulators' semantics; plus a structural
//!   top-level entity for the whole system.
//! * **Verilog** ([`verilog`]) — the same design in Verilog-2001.
//! * **Testbenches** ([`testbench`]) — generated from a recorded
//!   simulation [`ocapi::Trace`], applying the stimuli and asserting the
//!   responses, so "the synthesis result of each component" can be
//!   verified (§6).
//! * **Code-size reports** ([`report`]) — the line-count comparison of
//!   Table 1 (DSL description vs generated HDL).
//!
//! Both writers print each component from an [`ocapi_rtl::ComponentPlan`]:
//! the same cones, drivers and state encoding that the RT kernel's
//! lowering simulates. So this crate depends on `ocapi-rtl`. Which guard
//! inputs are registered is [`ocapi::System::guard_held_inputs`], the rule
//! the RT kernel and gate-level simulation use as well.
//!
//! Floating-point signals are deliberately rejected: they exist for
//! high-level modelling only and must be quantised to fixed point before
//! code generation, exactly as in the original flow.

mod error;
mod ident;
pub mod project;
pub mod report;
pub mod testbench;
pub mod verilog;
pub mod vhdl;

pub use error::CodegenError;

use ocapi::{Component, MemorySpec, System};
use ocapi_rtl::ComponentPlan;

/// The plan both writers print a component from, and the guard inputs
/// among `held_ports`, sorted.
fn plan(
    comp: &Component,
    held_ports: &[usize],
) -> Result<(ComponentPlan, Vec<usize>), CodegenError> {
    let plan = ComponentPlan::new(comp);
    if plan.has_float {
        return Err(CodegenError::FloatNotSynthesizable {
            component: comp.name.clone(),
        });
    }
    let mut held = comp.guard_inputs();
    held.retain(|p| held_ports.contains(p));
    Ok((plan, held))
}

/// The distinct components of `sys` in first-instance order, each with
/// the guard-held inputs ([`System::guard_held_inputs`]) of its
/// instances.
///
/// Every instance of a component shares one entity, whose guards read
/// either a pin or its held copy, so all instances must hold the same
/// guard inputs; otherwise this returns
/// [`CodegenError::HeldGuardConflict`].
fn components(sys: &System) -> Result<Vec<(&Component, Vec<usize>)>, CodegenError> {
    let mut out: Vec<(&Component, Vec<usize>)> = Vec::new();
    for (ti, t) in sys.timed.iter().enumerate() {
        let held = sys.guard_held_inputs(ti);
        match out.iter().find(|(c, _)| c.name == t.comp.name) {
            None => out.push((&t.comp, held)),
            Some((comp, first)) => {
                let differs = |p: &&usize| first.contains(p) != held.contains(p);
                if let Some(&p) = first.iter().chain(&held).find(differs) {
                    return Err(CodegenError::HeldGuardConflict {
                        component: comp.name.clone(),
                        port: comp.inputs[p].name.clone(),
                    });
                }
            }
        }
    }
    Ok(out)
}

/// The distinct memory blocks of `sys`, by block name in first-instance
/// order.
fn memories(sys: &System) -> Vec<(&str, MemorySpec)> {
    let mut out: Vec<(&str, MemorySpec)> = Vec::new();
    for u in &sys.untimed {
        if let Some(spec) = u.block.memory_spec() {
            if out.iter().all(|(n, _)| *n != u.block.name()) {
                out.push((u.block.name(), spec));
            }
        }
    }
    out
}
