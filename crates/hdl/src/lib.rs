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
//! Both printers print one module AST, [`ocapi_rtl::ast`]: per component
//! a [`Module`] and per system a [`Top`], the structure the RT kernel
//! elaborates too. They differ only in its [`Sharing`] rule, and keep
//! identifier escaping, literals, types and expression syntax to
//! themselves. So this crate depends on `ocapi-rtl`. Which guard inputs are
//! registered is [`ocapi::System::guard_held_inputs`], the rule the RT
//! kernel and gate-level simulation use as well.
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

use ocapi::{MemorySpec, System};
use ocapi_rtl::ast::{Module, Sharing, Top};

/// The top level of `sys` with modules built by `sharing`, once every
/// entity name names one module.
///
/// Each component is printed once, so all instances that share its name
/// must build equal modules. A differing held set is a
/// [`CodegenError::HeldGuardConflict`], and any other difference a
/// [`CodegenError::ComponentConflict`].
fn top(sys: &System, sharing: Sharing) -> Result<Top, CodegenError> {
    let top = Top::new(sys, sharing);
    for (k, inst) in top.instances.iter().enumerate() {
        let m = &inst.module;
        let mut earlier = top.instances[..k].iter().map(|i| &i.module);
        let Some(first) = earlier.find(|f| f.name == m.name) else {
            continue;
        };
        let differs = |p: &&usize| first.held.contains(p) != m.held.contains(p);
        if let Some(&p) = first.held.iter().chain(&m.held).find(differs) {
            let owner = if first.held.contains(&p) { first } else { m };
            return Err(CodegenError::HeldGuardConflict {
                component: m.name.clone(),
                port: owner.inputs[p].name.clone(),
            });
        }
        if first != m {
            return Err(CodegenError::ComponentConflict {
                component: m.name.clone(),
            });
        }
    }
    Ok(top)
}

/// The distinct modules of `top`, in first-instance order.
fn modules(top: &Top) -> Vec<&Module> {
    let named = top
        .instances
        .iter()
        .map(|i| (i.module.name.as_str(), &i.module));
    first_by_name(named).into_iter().map(|(_, m)| m).collect()
}

/// The distinct memory blocks of `top`, by block name in first-instance
/// order.
fn memories(top: &Top) -> Vec<(&str, &MemorySpec<'static>)> {
    let specs = top
        .blocks
        .iter()
        .filter_map(|b| Some((b.name.as_str(), b.memory.as_ref()?)));
    first_by_name(specs)
}

/// The first of `items` under each name, in order.
fn first_by_name<'a, T>(items: impl Iterator<Item = (&'a str, T)>) -> Vec<(&'a str, T)> {
    let mut out: Vec<(&str, T)> = Vec::new();
    for (name, item) in items {
        if out.iter().all(|(n, _)| *n != name) {
            out.push((name, item));
        }
    }
    out
}

/// Rejects a module no HDL synthesizes.
fn synthesizable(m: &Module) -> Result<(), CodegenError> {
    if m.has_float {
        return Err(CodegenError::FloatNotSynthesizable {
            component: m.name.clone(),
        });
    }
    Ok(())
}

/// Writes each of `items` on a line of its own after `indent`, separated
/// by `sep`, with no newline after the last.
fn list(out: &mut String, indent: &str, sep: &str, items: impl IntoIterator<Item = String>) {
    for (k, item) in items.into_iter().enumerate() {
        if k > 0 {
            out.push_str(sep);
            out.push('\n');
        }
        out.push_str(indent);
        out.push_str(&item);
    }
}
