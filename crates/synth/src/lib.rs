#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Synthesis from captured components to gate-level netlists.
//!
//! The paper's flow (§6, Figure 8) splits each component into a
//! **datapath**, synthesized by the Cathedral-3 back-end with "operator
//! sharing at word level", and a **controller**, synthesized by logic
//! synthesis (Synopsys DC), followed by gate-level post-optimisation of
//! the combined netlist. This crate rebuilds that flow:
//!
//! * [`gate`] — a generic gate library (NAND/NOR/XOR/MUX/DFF…) with
//!   gate-equivalent areas, and the [`gate::Netlist`] data structure.
//! * [`datapath`] — word-level operator sharing across mutually exclusive
//!   SFGs (compatibility-driven unit binding with input multiplexers),
//!   then expansion of word operators into gates (ripple-carry adders,
//!   array multipliers, comparators, saturating quantisers).
//! * [`controller`] — FSM synthesis: state encoding (binary, one-hot,
//!   Gray), transition logic either as minimised two-level logic
//!   (Quine–McCluskey, [`logic`]) or as structural selector chains.
//! * [`opt`] — gate-level post-optimisation: constant propagation,
//!   structural deduplication, inverter-pair removal, dead-gate sweep.
//! * [`report`] — the gate-count and area inventory behind the paper's
//!   "75 Kgate" and "6 Kgate" claims.
//! * [`timing`] — static timing analysis: the critical path and the
//!   maximum clock estimate of the synthesized netlist.
//!
//! The synthesized netlist is bit-exact with the captured component: the
//! `ocapi-gatesim` crate simulates it event-driven, and the cross-checks
//! in `tests/` assert cycle-for-cycle equality against the core
//! simulators.
//!
//! # Example
//!
//! ```
//! use ocapi::{Component, SigType};
//! use ocapi_synth::{synthesize, SynthOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Capture a small accumulator and synthesize it to gates.
//! let c = Component::build("acc");
//! let x = c.input("x", SigType::Bits(8))?;
//! let o = c.output("o", SigType::Bits(8))?;
//! let r = c.reg("r", SigType::Bits(8))?;
//! let s = c.sfg("s")?;
//! let sum = c.q(r) + c.read(x);
//! s.drive(o, &sum)?;
//! s.next(r, &sum)?;
//! let netlist = synthesize(&c.finish()?, &SynthOptions::default())?;
//! // The 8-bit accumulator register plus the 8-bit output-hold register.
//! assert_eq!(netlist.netlist.dff_count(), 16);
//! assert!(netlist.area() > 50.0); // an 8-bit adder and its registers
//! # Ok(())
//! # }
//! ```

pub mod bitops;
pub mod controller;
pub mod datapath;
pub mod emit;
mod error;
pub mod fsm_min;
pub mod gate;
pub mod logic;
pub mod opt;
pub mod parse;
pub mod report;
pub mod techmap;
pub mod timing;

pub use error::SynthError;

use ocapi::Component;

/// Adder architecture for datapath expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdderStyle {
    /// Ripple-carry: smallest area, O(width) delay.
    #[default]
    Ripple,
    /// Carry-select with the given block size: roughly twice the adder
    /// area for O(width / block + block) delay — the high-speed option.
    CarrySelect {
        /// Bits per carry-select block (must be non-zero).
        block: usize,
    },
}

/// Synthesis options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthOptions {
    /// Share word-level operators across mutually exclusive SFGs
    /// (Cathedral-3 style). Off = one hardware operator per expression
    /// node.
    pub share_operators: bool,
    /// FSM state encoding.
    pub encoding: controller::Encoding,
    /// Use two-level minimisation (Quine–McCluskey) for the controller
    /// when the input count allows; otherwise structural selector chains.
    pub minimize_controller: bool,
    /// Merge bisimilar FSM states ([`fsm_min`]) before encoding. Off by
    /// default: captured machines are usually already minimal, and
    /// keeping the documented state/gate counts stable matters more.
    pub minimize_states: bool,
    /// Run the gate-level post-optimisation passes.
    pub optimize: bool,
    /// Adder architecture for the datapath expansion.
    pub adder_style: AdderStyle,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            share_operators: true,
            encoding: controller::Encoding::Binary,
            minimize_controller: true,
            minimize_states: false,
            optimize: true,
            adder_style: AdderStyle::Ripple,
        }
    }
}

/// Synthesizes one timed component into a gate-level netlist.
///
/// Guard inputs listed in `options`' held set are sampled through a
/// register, matching the system topology (see
/// `ocapi_hdl::vhdl::component_source`); [`synthesize`] uses an
/// empty held set (all guard inputs are external pins).
///
/// # Errors
///
/// Returns [`SynthError::FloatNotSynthesizable`] for float signals.
pub fn synthesize(
    comp: &Component,
    options: &SynthOptions,
) -> Result<gate::ComponentNetlist, SynthError> {
    synthesize_with_held(comp, options, &[])
}

/// [`synthesize`] with an explicit set of guard input ports to register.
///
/// # Errors
///
/// Returns [`SynthError::FloatNotSynthesizable`] for float signals.
pub fn synthesize_with_held(
    comp: &Component,
    options: &SynthOptions,
    held_ports: &[usize],
) -> Result<gate::ComponentNetlist, SynthError> {
    let mut netlist = datapath::synthesize_component(comp, options, held_ports)?;
    if options.optimize {
        opt::optimize(&mut netlist.netlist);
    }
    Ok(netlist)
}

/// [`synthesize_with_held`] with per-pass observability.
///
/// Records a `synth` span with `datapath` and `optimize` children in the
/// registry, plus `synth.components` / `synth.gates` counters (the gate
/// count is taken after optimisation, so it matches the final netlist).
///
/// # Errors
///
/// Returns [`SynthError::FloatNotSynthesizable`] for float signals.
pub fn synthesize_observed(
    comp: &Component,
    options: &SynthOptions,
    held_ports: &[usize],
    reg: &ocapi_obs::Registry,
) -> Result<gate::ComponentNetlist, SynthError> {
    let root = reg.span("synth");
    let t_dp = root.child("datapath").timer();
    let mut netlist = datapath::synthesize_component(comp, options, held_ports)?;
    drop(t_dp);
    if options.optimize {
        let _t_opt = root.child("optimize").timer();
        opt::optimize(&mut netlist.netlist);
    }
    reg.counter("synth.components").incr();
    reg.counter("synth.gates")
        .add(netlist.netlist.gates.len() as u64);
    Ok(netlist)
}
