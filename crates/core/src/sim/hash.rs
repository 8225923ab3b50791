//! Stable design hashes and reusable compiled tapes — the **cache-key
//! contract** of the persistent simulation service.
//!
//! Snapshot keying (DESIGN.md §12) already relies on two 64-bit FNV-1a
//! hashes; this module promotes them from an internal detail to a
//! documented API so a compiled-tape cache can be built on top of them:
//!
//! * [`hash_system`] — the **structural** hash of a captured
//!   [`System`]: names, components (ports, registers, expression nodes,
//!   SFGs, FSMs), untimed-block interfaces and the interconnect.
//!   Mutable untimed state (RAM contents) does not contribute, and
//!   neither does anything about *how* the system will be simulated.
//!   Two elaborations of the same design (the same builder called
//!   twice) hash identically; any structural edit changes the hash.
//! * [`CompiledTape::program_hash`] — the hash of a **compiled build**:
//!   the structural hash combined with the levelized program (slot
//!   layout, both micro-op tapes, FSM tables, register-write selectors,
//!   net-to-slot map). The same system compiled at a different
//!   [`OptLevel`] produces a different tape and therefore a different
//!   program hash — so tapes, snapshots and cache entries can never be
//!   confused across optimization levels.
//!
//! Both hashes are pure functions of their inputs: stable across
//! processes, platforms and sessions (no pointer values, no iteration
//! over unordered containers). That stability is load-bearing — the
//! simulation service keys its compiled-tape cache and its checkpoint
//! manifests on these values, and a client may remember them across
//! daemon restarts.
//!
//! [`CompiledTape`] is the cacheable artifact itself: one levelization +
//! optimization of a system, shareable across threads (the program is
//! behind an [`Arc`]) and instantiable into simulators without
//! recompiling via [`crate::CompiledSim::from_tape`] and
//! [`crate::BatchedSim::from_tape`]. Instantiation verifies the
//! structural hash of the offered system against the tape's, so a cache
//! lookup gone wrong is a typed [`CoreError::TapeMismatch`], never a
//! silently wrong simulation. Both tape simulators execute the tape as
//! it is, through one executor, so there is no per-engine artifact to
//! cache beside it.

use std::sync::Arc;

use crate::sim::compiled::{build_program, Program};
use crate::sim::opt::OptLevel;
use crate::system::System;
use crate::CoreError;

/// The structural design hash of a system — the interpreted-family
/// member of the cache-key contract (see the module docs). Stable
/// across re-elaboration: building the same design twice yields the
/// same hash.
pub fn hash_system(sys: &System) -> u64 {
    crate::sim::snapshot::hash_system(sys)
}

/// The program hash of `sys` compiled at `level` — a convenience that
/// levelizes, optimizes and hashes in one call. Use [`CompiledTape`]
/// when the compiled program itself is wanted too (a cache should:
/// hashing alone costs a full compilation).
///
/// # Errors
///
/// Returns [`CoreError::NotCompilable`] when the design has no static
/// single-pass schedule.
pub fn hash_compiled(sys: &System, level: OptLevel) -> Result<u64, CoreError> {
    Ok(CompiledTape::compile(sys, level)?.program_hash())
}

/// One levelized, optimized compilation of a system: the immutable
/// program plus the two hashes that key it. Cheap to clone and safe to
/// share across threads — the program is reference-counted, and
/// instantiating a simulator from a tape copies only the per-instance
/// mutable state, skipping levelization and optimization entirely.
///
/// This is the unit the simulation service caches: compile once per
/// `(structural hash, optimization level)`, then serve every job that
/// asks for the same design from the cached tape.
#[derive(Debug, Clone)]
pub struct CompiledTape {
    pub(crate) prog: Arc<Program>,
    system_hash: u64,
    program_hash: u64,
    level: OptLevel,
}

impl CompiledTape {
    /// Levelizes and monomorphises `sys` at `level` into a cacheable
    /// tape. The system itself is not consumed or retained — tapes key
    /// on hashes, and every instantiation brings its own freshly built
    /// system (untimed blocks carry per-instance state).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotCompilable`] when the conservative
    /// cross-component dependence graph is cyclic.
    pub fn compile(sys: &System, level: OptLevel) -> Result<CompiledTape, CoreError> {
        let prog = build_program(sys, level)?;
        let system_hash = crate::sim::snapshot::hash_system(sys);
        let program_hash = crate::sim::snapshot::hash_program(sys, &prog);
        Ok(CompiledTape {
            prog: Arc::new(prog),
            system_hash,
            program_hash,
            level,
        })
    }

    /// The structural hash of the system this tape was compiled from
    /// ([`hash_system`]).
    pub fn system_hash(&self) -> u64 {
        self.system_hash
    }

    /// The hash of this build: structure plus levelized program. Equal
    /// to [`crate::CompiledSim::design_hash`] for a simulator built
    /// from (or compiled identically to) this tape, so snapshots and
    /// tape-cache entries share one key space.
    pub fn program_hash(&self) -> u64 {
        self.program_hash
    }

    /// The optimization level this tape was compiled at.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// Number of micro-ops executed per cycle (tape + guard pre-tape).
    pub fn tape_len(&self) -> usize {
        self.prog.tape.len() + self.prog.pre_tape.len()
    }

    /// Verifies that `sys` is structurally the system this tape was
    /// compiled from; every `from_tape` constructor goes through here.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TapeMismatch`] when the hashes disagree.
    pub(crate) fn check_system(&self, sys: &System) -> Result<(), CoreError> {
        let got = hash_system(sys);
        if got != self.system_hash {
            return Err(CoreError::TapeMismatch {
                expected: self.system_hash,
                got,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::SigType;
    use crate::Component;

    /// A small design with foldable redundancy, so optimization levels
    /// genuinely produce different tapes.
    fn build(name: &str) -> System {
        let c = Component::build("acc");
        let i = c.input("i", SigType::Bits(8)).unwrap();
        let out = c.output("o", SigType::Bits(8)).unwrap();
        let r = c.reg("r", SigType::Bits(8)).unwrap();
        let sfg = c.sfg("run").unwrap();
        let zero = c.const_bits(8, 0);
        // `x + 0` twice: fodder for folding and CSE.
        let x = c.read(i) + zero.clone();
        let y = c.q(r) + (x.clone() + zero);
        sfg.drive(out, &y).unwrap();
        sfg.next(r, &y).unwrap();
        let comp = c.finish().unwrap();
        let mut sb = System::build(name);
        let inst = sb.add_component("u0", comp).unwrap();
        sb.input("i", SigType::Bits(8)).unwrap();
        sb.connect_input("i", inst, "i").unwrap();
        sb.output("o", inst, "o").unwrap();
        sb.finish().unwrap()
    }

    #[test]
    fn structural_hash_is_stable_across_re_elaboration() {
        assert_eq!(hash_system(&build("d")), hash_system(&build("d")));
    }

    #[test]
    fn structural_hash_sees_structural_edits() {
        assert_ne!(hash_system(&build("d")), hash_system(&build("e")));
    }

    #[test]
    fn program_hash_is_stable_and_level_sensitive() {
        let t0 = CompiledTape::compile(&build("d"), OptLevel::None).unwrap();
        let t0b = CompiledTape::compile(&build("d"), OptLevel::None).unwrap();
        let t2 = CompiledTape::compile(&build("d"), OptLevel::Full).unwrap();
        // Recompiling the same build reproduces the hash exactly…
        assert_eq!(t0.program_hash(), t0b.program_hash());
        // …while a different optimization level is a different tape.
        assert_ne!(t0.program_hash(), t2.program_hash());
        // Both builds share the structural hash of the one design.
        assert_eq!(t0.system_hash(), t2.system_hash());
        assert_eq!(t0.system_hash(), hash_system(&build("d")));
        // Full optimization shrank this deliberately redundant tape.
        assert!(t2.tape_len() < t0.tape_len());
    }

    #[test]
    fn hash_compiled_matches_the_tape() {
        let t = CompiledTape::compile(&build("d"), OptLevel::Full).unwrap();
        assert_eq!(
            hash_compiled(&build("d"), OptLevel::Full).unwrap(),
            t.program_hash()
        );
    }

    #[test]
    fn mismatched_system_is_a_typed_error() {
        let t = CompiledTape::compile(&build("d"), OptLevel::Full).unwrap();
        match t.check_system(&build("e")) {
            Err(CoreError::TapeMismatch { expected, got }) => {
                assert_eq!(expected, t.system_hash());
                assert_eq!(got, hash_system(&build("e")));
            }
            other => panic!("expected TapeMismatch, got {other:?}"),
        }
    }
}
