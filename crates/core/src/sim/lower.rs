//! The names of the retired threaded-code engine, kept only for the
//! repository benchmark.
//!
//! `FusedSim` used to lower the compiled tape into monomorphic kernel
//! runs and superinstructions. Measured without instrumentation it ran
//! below `CompiledSim` on every in-tree design (DESIGN.md §10), so it is
//! gone. The benchmark's cycle workloads still build a `fused` engine
//! through [`FusedTape::from_compiled`], [`FusedSim::from_tape`] and
//! [`FusedSim::lower_stats`], so those names stay as aliases of the
//! compiled back-end until the next change to the benchmark removes
//! them.

use crate::sim::compiled::CompiledSim;
use crate::sim::hash::CompiledTape;
use crate::system::System;
use crate::CoreError;

/// The compiled simulator, under the retired engine's name.
pub type FusedSim = CompiledSim;

/// A compiled tape, under the retired engine's name.
pub type FusedTape = CompiledTape;

/// Tape counts under the retired lowering's names: each micro-op is its
/// own kernel and nothing is fused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowerStats {
    /// Micro-ops per cycle (guard pre-tape + main tape).
    pub micro_in: u64,
    /// Equal to `micro_in`.
    pub kernels: u64,
    /// Always 0.
    pub superinstructions: u64,
    /// Always 0.
    pub fused_micros: u64,
    /// Always 0.
    pub coverage_pct: u64,
}

impl CompiledTape {
    /// A copy of `tape`, once `sys` is verified to be the system it was
    /// compiled from.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TapeMismatch`] when it is not.
    #[doc(hidden)]
    pub fn from_compiled(sys: &System, tape: &CompiledTape) -> Result<CompiledTape, CoreError> {
        tape.check_system(sys)?;
        Ok(tape.clone())
    }
}

impl CompiledSim {
    /// The tape length in [`LowerStats`] form.
    #[doc(hidden)]
    pub fn lower_stats(&self) -> LowerStats {
        let n = self.tape_len() as u64;
        LowerStats {
            micro_in: n,
            kernels: n,
            ..LowerStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::value::{SigType, Value};
    use crate::OptLevel;

    fn bits_pair_system() -> System {
        use crate::comp::Component;
        let c = Component::build("c");
        let x = c.input("x", SigType::Bits(8)).unwrap();
        let y = c.input("y", SigType::Bits(8)).unwrap();
        let o = c.output("o", SigType::Bits(8)).unwrap();
        let p = c.output("p", SigType::Bool).unwrap();
        let s = c.sfg("s").unwrap();
        let sum = c.read(x) + c.read(y);
        s.drive(o, &sum).unwrap();
        let cmp = c.read(x).eq(&c.read(y));
        s.drive(p, &cmp).unwrap();
        let mut sb = System::build("sys");
        let u = sb.add_component("u0", c.finish().unwrap()).unwrap();
        sb.input("x", SigType::Bits(8)).unwrap();
        sb.input("y", SigType::Bits(8)).unwrap();
        sb.connect_input("x", u, "x").unwrap();
        sb.connect_input("y", u, "y").unwrap();
        sb.output("o", u, "o").unwrap();
        sb.output("p", u, "p").unwrap();
        sb.finish().unwrap()
    }

    /// The benchmark's `fused` build path is the compiled simulator:
    /// same outputs and hash, and counts that describe the unfused tape.
    #[test]
    fn fused_matches_compiled_on_a_small_design() {
        let tape = CompiledTape::compile(&bits_pair_system(), OptLevel::Full).unwrap();
        let fused = FusedTape::from_compiled(&bits_pair_system(), &tape).unwrap();
        let mut f = FusedSim::from_tape(bits_pair_system(), &fused).unwrap();
        let mut c = CompiledSim::new(bits_pair_system()).unwrap();
        for i in 0..64u64 {
            for s in [&mut f as &mut dyn Simulator, &mut c] {
                s.set_input("x", Value::bits(8, i * 7 % 256)).unwrap();
                s.set_input("y", Value::bits(8, i * 13 % 256)).unwrap();
                s.step().unwrap();
            }
            assert_eq!(f.output("o").unwrap(), c.output("o").unwrap());
            assert_eq!(f.output("p").unwrap(), c.output("p").unwrap());
        }
        assert_eq!(f.design_hash(), c.design_hash());
        let n = c.tape_len() as u64;
        assert_eq!(
            f.lower_stats(),
            LowerStats {
                micro_in: n,
                kernels: n,
                ..LowerStats::default()
            }
        );
        assert!(matches!(
            FusedTape::from_compiled(&System::build("other").finish().unwrap(), &tape),
            Err(CoreError::TapeMismatch { .. })
        ));
    }
}
