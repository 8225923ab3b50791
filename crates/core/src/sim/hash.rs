//! Stable design hashes and reusable compiled tapes — the **cache-key
//! contract** of the persistent simulation service.
//!
//! Two 64-bit FNV-1a hashes key what a simulator stores: snapshots
//! (DESIGN.md §12) and the compiled-tape cache. This module documents
//! them as an API so a cache can be built on top of them:
//!
//! * [`hash_system`] — the **structural** hash of a captured
//!   [`System`]: names, components (ports, registers, expression nodes,
//!   SFGs, FSMs), untimed-block interfaces and the interconnect.
//!   Mutable untimed state (RAM contents) does not contribute, and
//!   neither does anything about *how* the system will be simulated.
//!   Two elaborations of the same design (the same builder called
//!   twice) hash identically; any structural edit changes the hash.
//!   It keys every snapshot, whichever engine or optimization level
//!   took it.
//! * [`CompiledTape::program_hash`] — the hash of a **compiled build**:
//!   the structural hash combined with the levelized program (slot
//!   layout, both micro-op tapes, FSM tables, register-write selectors,
//!   net-to-slot map). The same system compiled at a different
//!   [`OptLevel`] produces a different tape and therefore a different
//!   program hash — so tapes and cache entries can never be confused
//!   across optimization levels.
//!
//! Both hashes stream into [`Fnv`], the workspace's one FNV-1a hasher,
//! which also checksums snapshots, fingerprints checkpoint workloads
//! and digests the outputs of a served session.
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
//! behind an [`Arc`]). [`CompiledDesign`] pairs a tape with one
//! captured [`System`] of its structure, checked against it once: that
//! immutable template is what every simulator built from the
//! design shares ([`crate::CompiledSim::from_design`],
//! [`crate::BatchedSim::from_design`]), on any thread, so building one
//! captures and hashes nothing. Forming a design ([`CompiledDesign::new`])
//! hashes the offered system once, looks its tape up by that hash and
//! compares the hash stored in the tape it gets back, or compiles the
//! system without hashing it again: a cache lookup gone wrong is a typed
//! [`CoreError::TapeMismatch`] there, never a silently wrong simulation.
//! The `from_tape` constructors form a design from the system they are
//! given. The program hash extends the structural hash instead of
//! recomputing it. One simulator executes the tape as it is — every
//! [`crate::BatchedSim`], and `CompiledSim` as its one-lane form, shares
//! the tape's program — so there is no per-engine or per-lane-count
//! artifact to cache beside it.

use std::fmt;
use std::sync::Arc;

use crate::sim::compiled::{build_program, Program};
use crate::sim::opt::OptLevel;
use crate::system::System;
use crate::CoreError;

/// FNV-1a, 64-bit — the in-tree hash behind design hashes, snapshot
/// checksums, checkpoint fingerprints and session digests (offline
/// build: no external hashing crates).
///
/// It is also a [`fmt::Write`] sink: a design hash streams `{:?}` text
/// into it instead of building a `String` first. FNV-1a consumes bytes
/// one at a time, so the split of the input into chunks does not
/// change the value.
///
/// ```
/// use ocapi::sim::hash::Fnv;
///
/// let mut h = Fnv::new();
/// h.write(b"ab");
/// let mut split = Fnv::from_state(Fnv::new().finish());
/// split.write(b"a");
/// split.write(b"b");
/// assert_eq!(h.finish(), split.finish());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    /// A hasher resuming from a value [`Fnv::finish`] returned, e.g. a
    /// running digest kept between requests.
    pub fn from_state(state: u64) -> Fnv {
        Fnv(state)
    }

    /// Hashes `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Hashes one field: `s`, then a `0xff` delimiter, so ("ab","c")
    /// and ("a","bc") hash differently.
    pub(crate) fn field(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// [`Fnv::field`] of formatted text, streamed: the same value as
    /// `field(&format!(..))`.
    pub(crate) fn field_fmt(&mut self, args: fmt::Arguments<'_>) {
        // Writing into an `Fnv` cannot fail.
        let _ = fmt::Write::write_fmt(self, args);
        self.write(&[0xff]);
    }

    /// The hash of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// The structural design hash of a system — the snapshot key of every
/// engine (see the module docs): names,
/// components (ports, registers, expression nodes, SFGs, FSMs), untimed
/// block interfaces, and the interconnect. Mutable untimed state (RAM
/// contents) deliberately does not contribute. Stable across
/// re-elaboration: building the same design twice yields the same hash.
pub fn hash_system(sys: &System) -> u64 {
    let mut h = Fnv::new();
    h.field("ocapi.system.v1");
    h.field(&sys.name);
    for t in &sys.timed {
        h.field(&t.name);
        h.field_fmt(format_args!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            t.comp.inputs, t.comp.outputs, t.comp.regs, t.comp.nodes, t.comp.sfgs, t.comp.fsm
        ));
    }
    for u in &sys.untimed {
        h.field(u.block.name());
        h.field_fmt(format_args!("{:?}|{:?}", u.inputs, u.outputs));
    }
    for n in &sys.nets {
        h.field_fmt(format_args!(
            "{}|{:?}|{:?}|{:?}",
            n.name, n.ty, n.source, n.sinks
        ));
    }
    h.field_fmt(format_args!(
        "{:?}|{:?}",
        sys.primary_inputs, sys.primary_outputs
    ));
    h.finish()
}

/// The hash of a compiled build: the structural hash `system_hash`
/// ([`hash_system`] of the compiled system) combined with the levelized
/// program (slot layout, both tapes, FSM tables, register-write
/// selectors, net-to-slot map). Two builds of the same system at
/// different optimization levels produce different tapes, hence
/// different hashes.
fn hash_program(system_hash: u64, prog: &Program) -> u64 {
    let mut h = Fnv::new();
    h.field("ocapi.program.v1");
    h.write(&system_hash.to_le_bytes());
    h.field_fmt(format_args!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        prog.slot_ty, prog.pre_tape, prog.tape, prog.fsm_tables, prog.reg_writes, prog.net_slot
    ));
    h.finish()
}

/// One levelized, optimized compilation of a system: the immutable
/// program plus the two hashes that key it. Cheap to clone and safe to
/// share across threads — the program is reference-counted, and
/// instantiating a simulator from a tape copies only the per-instance
/// mutable state, skipping levelization and optimization entirely.
///
/// This is the unit the simulation service caches: compile once per
/// `(structural hash, optimization level)`, then serve every job that
/// asks for the same structure from the cached tape, paired with its
/// design variant's template in a [`CompiledDesign`].
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
    /// on hashes, and a [`CompiledDesign`] pairs a tape with its system.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotCompilable`] when the conservative
    /// cross-component dependence graph is cyclic.
    pub fn compile(sys: &System, level: OptLevel) -> Result<CompiledTape, CoreError> {
        CompiledTape::compile_hashed(sys, hash_system(sys), level)
    }

    /// [`CompiledTape::compile`] of a system whose structural hash the
    /// caller has just computed from it.
    fn compile_hashed(
        sys: &System,
        system_hash: u64,
        level: OptLevel,
    ) -> Result<CompiledTape, CoreError> {
        let prog = build_program(sys, level)?;
        let program_hash = hash_program(system_hash, &prog);
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

    /// The hash of this build: structure plus levelized program, the
    /// key of a tape-cache entry. Snapshots key on
    /// [`CompiledTape::system_hash`] instead, so they cross builds.
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
    /// compiled from.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TapeMismatch`] when the hashes disagree.
    pub(crate) fn check_system(&self, sys: &System) -> Result<(), CoreError> {
        self.check_hash(hash_system(sys))
    }

    /// [`CompiledTape::check_system`] for a system whose structural hash
    /// is already known.
    fn check_hash(&self, got: u64) -> Result<(), CoreError> {
        if got != self.system_hash {
            return Err(CoreError::TapeMismatch {
                expected: self.system_hash,
                got,
            });
        }
        Ok(())
    }
}

/// One design, captured once and checked against its compiled tape
/// once: an immutable [`System`] template behind an [`Arc`], paired
/// with the [`CompiledTape`] compiled from it.
///
/// Every simulator built from a design shares its template
/// ([`crate::CompiledSim::from_design`], [`crate::BatchedSim::from_design`]):
/// the template's untimed blocks never fire, lanes copy its generic
/// blocks and read its memories' power-up contents. So building a
/// simulator, on any thread, captures and hashes nothing, and the
/// question "does this system match this tape?" is answered once, where
/// the design is formed. Cloning a design clones two `Arc`s.
///
/// Two variants of one structure (the same design with other memory
/// contents) are two designs: each keeps its own template, and both can
/// share one tape ([`CompiledDesign::with_tape`]).
#[derive(Debug, Clone)]
pub struct CompiledDesign {
    system: Arc<System>,
    tape: CompiledTape,
}

impl CompiledDesign {
    /// The design of `sys`, which becomes its template: `sys` is hashed
    /// once ([`hash_system`]), `cached` is asked for a tape compiled from
    /// a system of that hash, and a tape it returns is paired with `sys`
    /// once the structural hash stored in the tape is found equal; with
    /// none (`|_| None`), `sys` is compiled at `level` without hashing it
    /// again. The one structural hash of the design, whichever way its
    /// tape comes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TapeMismatch`] when `cached` returns a tape
    /// compiled from another structure, and [`CoreError::NotCompilable`]
    /// when the design has no static single-pass schedule.
    pub fn new(
        sys: System,
        level: OptLevel,
        cached: impl FnOnce(u64) -> Option<CompiledTape>,
    ) -> Result<CompiledDesign, CoreError> {
        let system_hash = hash_system(&sys);
        let tape = match cached(system_hash) {
            Some(tape) => {
                tape.check_hash(system_hash)?;
                tape
            }
            None => CompiledTape::compile_hashed(&sys, system_hash, level)?,
        };
        Ok(CompiledDesign {
            system: Arc::new(sys),
            tape,
        })
    }

    /// This design's template paired with `tape`, another compilation
    /// of the same structure (e.g. at another level): the two stored
    /// structural hashes are compared, and nothing is rehashed.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TapeMismatch`] when `tape` was compiled from
    /// another structure.
    pub fn with_tape(&self, tape: &CompiledTape) -> Result<CompiledDesign, CoreError> {
        tape.check_hash(self.tape.system_hash)?;
        Ok(CompiledDesign {
            system: Arc::clone(&self.system),
            tape: tape.clone(),
        })
    }

    /// The template: the system the tape was compiled from.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// The shared template itself, for simulators that keep it.
    pub(crate) fn template(&self) -> &Arc<System> {
        &self.system
    }

    /// The compiled tape.
    pub fn tape(&self) -> &CompiledTape {
        &self.tape
    }
}

/// A design is shared across worker threads, so it and its template
/// must stay `Send + Sync`; this fails to compile if either stops being.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<CompiledDesign>();
    send_sync::<System>();
};

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

    /// The constructor asks for a tape by the hash it computed, pairs
    /// the one it gets after comparing stored hashes, and compiles when
    /// it gets none.
    #[test]
    fn a_design_pairs_a_cached_tape_or_compiles() {
        let t = CompiledTape::compile(&build("d"), OptLevel::None).unwrap();
        let mut asked = None;
        let cached = CompiledDesign::new(build("d"), OptLevel::Full, |h| {
            asked = Some(h);
            Some(t.clone())
        })
        .unwrap();
        assert_eq!(asked, Some(t.system_hash()));
        assert_eq!(cached.tape().program_hash(), t.program_hash());
        let fresh = CompiledDesign::new(build("d"), OptLevel::Full, |_| None).unwrap();
        assert_eq!(fresh.tape().level(), OptLevel::Full);
        assert_eq!(fresh.tape().system_hash(), t.system_hash());
        match CompiledDesign::new(build("e"), OptLevel::None, |_| Some(t.clone())) {
            Err(CoreError::TapeMismatch { expected, got }) => {
                assert_eq!(expected, t.system_hash());
                assert_eq!(got, hash_system(&build("e")));
            }
            other => panic!("expected TapeMismatch, got {other:?}"),
        }
    }
}
