//! Versioned, checksummed simulator snapshots.
//!
//! A long validation run (ROADMAP item 5: a persistent simulation
//! service with warm restarts) needs to park a simulator and pick it up
//! later — possibly in another process. [`SimSnapshot`] captures the
//! complete mutable state of a back-end: every state slot or net value,
//! FSM selectors, register files, untimed-block memories, the cycle
//! count, and (optionally) the positions of the PRNG streams driving
//! the stimuli.
//!
//! Two rules make restores safe rather than undefined behaviour:
//!
//! 1. **Design-hash keying.** Every snapshot records a 64-bit FNV-1a
//!    hash of the design structure it was taken from; for the compiled
//!    back-ends the hash also covers the levelized tape, so the same
//!    design compiled at a different [`OptLevel`](crate::OptLevel)
//!    produces a *different* hash. A restore into a mismatched
//!    simulator fails with [`CoreError::SnapshotMismatch`].
//! 2. **Checksummed framing.** The byte format is versioned, carries a
//!    trailing FNV-1a checksum, and every section length is validated,
//!    so a truncated or corrupted file fails with
//!    [`CoreError::SnapshotFormat`] instead of silently corrupting
//!    state.
//!
//! The format is hand-rolled (magic + little-endian sections) — the
//! workspace builds offline with zero serialisation dependencies. A
//! human-readable JSON rendering is available via
//! [`SimSnapshot::to_json`] for debugging and manifests.
//!
//! Snapshots of [`CompiledSim`](crate::CompiledSim) and of a
//! [`BatchedSim`](crate::BatchedSim) lane are interchangeable when both
//! simulators were built from the same system at the same optimization
//! level: both keep their state in the striped layout of `sim::exec`,
//! and one shared routine captures and restores one lane of it — a
//! session parked on one engine can resume on the other.

use std::fmt::Write as _;

use crate::rng::XorShift64;
use crate::system::System;
use crate::value::{SigType, Value};
use crate::CoreError;

/// FNV-1a, 64-bit — the in-tree hash used for design hashes and
/// snapshot checksums (offline build: no external hashing crates).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    pub(crate) fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub(crate) fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        // Delimit, so ("ab","c") and ("a","bc") hash differently.
        self.write(&[0xff]);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// The structural design hash of a system, as seen by the interpreted
/// simulator: names, components (ports, registers, expression nodes,
/// SFGs, FSMs), untimed block interfaces, and the interconnect.
/// Mutable untimed state (RAM contents) deliberately does not
/// contribute.
pub(crate) fn hash_system(sys: &System) -> u64 {
    let mut h = Fnv::new();
    h.write_str("ocapi.system.v1");
    h.write_str(&sys.name);
    for t in &sys.timed {
        h.write_str(&t.name);
        h.write_str(&format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
            t.comp.inputs, t.comp.outputs, t.comp.regs, t.comp.nodes, t.comp.sfgs, t.comp.fsm
        ));
    }
    for u in &sys.untimed {
        h.write_str(u.block.name());
        h.write_str(&format!("{:?}|{:?}", u.inputs, u.outputs));
    }
    for n in &sys.nets {
        h.write_str(&format!(
            "{}|{:?}|{:?}|{:?}",
            n.name, n.ty, n.source, n.sinks
        ));
    }
    h.write_str(&format!(
        "{:?}|{:?}",
        sys.primary_inputs, sys.primary_outputs
    ));
    h.finish()
}

/// The design hash of a compiled back-end: the structural system hash
/// combined with the levelized program (slot layout, both tapes, FSM
/// tables, register-write selectors, net-to-slot map). Two builds of
/// the same system at different optimization levels produce different
/// tapes, hence different hashes — a snapshot cannot cross them.
pub(crate) fn hash_program(sys: &System, prog: &super::compiled::Program) -> u64 {
    let mut h = Fnv::new();
    h.write_str("ocapi.program.v1");
    h.write(&hash_system(sys).to_le_bytes());
    h.write_str(&format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        prog.slot_ty, prog.pre_tape, prog.tape, prog.fsm_tables, prog.reg_writes, prog.net_slot
    ));
    h.finish()
}

/// The register types of `sys` in snapshot order: instance by
/// instance, register by register.
pub(crate) fn reg_types(sys: &System) -> impl Iterator<Item = SigType> + '_ {
    sys.timed
        .iter()
        .flat_map(|t| t.comp.regs.iter().map(|r| r.ty))
}

/// Checks every word of snapshot section `section` against its type
/// (see [`Value::raw_fits`]), so a restore never installs a word that
/// decoding would reject. `words` and `types` have the same length.
pub(crate) fn check_words(
    section: &str,
    words: &[u64],
    types: impl IntoIterator<Item = SigType>,
) -> Result<(), CoreError> {
    for (i, (raw, ty)) in words.iter().zip(types).enumerate() {
        if !Value::raw_fits(ty, *raw) {
            return Err(CoreError::SnapshotFormat {
                reason: format!("section `{section}` word {i}: {raw:#x} is not a {ty} value"),
            });
        }
    }
    Ok(())
}

/// Which back-end family a snapshot was taken from. Interpreted state
/// (typed values over nets) and compiled state (raw slots over a
/// levelized tape) have different shapes, so they are never
/// interchangeable; a [`BatchedSim`](crate::BatchedSim) lane uses
/// [`SnapshotBackend::Compiled`] because its per-lane state stripe is
/// exactly the compiled state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotBackend {
    /// Taken from [`InterpSim`](crate::InterpSim).
    Interp,
    /// Taken from [`CompiledSim`](crate::CompiledSim) or a
    /// [`BatchedSim`](crate::BatchedSim) lane.
    Compiled,
}

impl SnapshotBackend {
    fn tag(self) -> u8 {
        match self {
            SnapshotBackend::Interp => 0,
            SnapshotBackend::Compiled => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<SnapshotBackend> {
        match tag {
            0 => Some(SnapshotBackend::Interp),
            1 => Some(SnapshotBackend::Compiled),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            SnapshotBackend::Interp => "interp",
            SnapshotBackend::Compiled => "compiled",
        }
    }
}

const MAGIC: &[u8; 4] = b"OSNP";
const VERSION: u16 = 1;

/// Reserved section name carrying PRNG stream positions.
const RNG_SECTION: &str = "rng";

/// A complete, restorable image of a simulator's mutable state. See
/// the module docs for the compatibility and integrity rules.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    backend: SnapshotBackend,
    design_hash: u64,
    cycle: u64,
    sections: Vec<(String, Vec<u64>)>,
}

impl SimSnapshot {
    pub(crate) fn new(backend: SnapshotBackend, design_hash: u64, cycle: u64) -> SimSnapshot {
        SimSnapshot {
            backend,
            design_hash,
            cycle,
            sections: Vec::new(),
        }
    }

    pub(crate) fn push_section(&mut self, name: &str, words: Vec<u64>) {
        self.sections.push((name.to_owned(), words));
    }

    /// The back-end family this snapshot restores into.
    pub fn backend(&self) -> SnapshotBackend {
        self.backend
    }

    /// The design hash the snapshot is keyed to.
    pub fn design_hash(&self) -> u64 {
        self.design_hash
    }

    /// The completed-cycle count at capture time.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The words of the named section, if present.
    pub fn section(&self, name: &str) -> Option<&[u64]> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, w)| w.as_slice())
    }

    /// Attaches the positions of the PRNG streams driving the run, so a
    /// restore resumes the stimulus exactly. Replaces any previously
    /// attached streams.
    pub fn set_rng_streams(&mut self, streams: &[XorShift64]) {
        self.sections.retain(|(n, _)| n != RNG_SECTION);
        self.push_section(RNG_SECTION, streams.iter().map(XorShift64::state).collect());
    }

    /// The PRNG streams attached via [`SimSnapshot::set_rng_streams`],
    /// rebuilt at their saved positions (empty if none were attached).
    pub fn rng_streams(&self) -> Vec<XorShift64> {
        self.section(RNG_SECTION).map_or_else(Vec::new, |words| {
            words.iter().copied().map(XorShift64::from_state).collect()
        })
    }

    /// Checks this snapshot against a simulator's identity; every
    /// back-end's `restore` goes through here first.
    pub(crate) fn check(
        &self,
        backend: SnapshotBackend,
        design_hash: u64,
    ) -> Result<(), CoreError> {
        if self.backend != backend {
            return Err(CoreError::SnapshotFormat {
                reason: format!(
                    "backend mismatch: snapshot is {}, simulator is {}",
                    self.backend.name(),
                    backend.name()
                ),
            });
        }
        if self.design_hash != design_hash {
            return Err(CoreError::SnapshotMismatch {
                expected: design_hash,
                got: self.design_hash,
            });
        }
        Ok(())
    }

    /// A required section of an exact length; shape violations are
    /// typed [`CoreError::SnapshotFormat`] errors.
    pub(crate) fn section_exact(&self, name: &str, len: usize) -> Result<&[u64], CoreError> {
        let words = self
            .section(name)
            .ok_or_else(|| CoreError::SnapshotFormat {
                reason: format!("missing section `{name}`"),
            })?;
        if words.len() != len {
            return Err(CoreError::SnapshotFormat {
                reason: format!("section `{name}` has {} words, expected {len}", words.len()),
            });
        }
        Ok(words)
    }

    /// Serialises to the versioned, checksummed binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(self.backend.tag());
        out.push(0); // reserved
        out.extend_from_slice(&self.design_hash.to_le_bytes());
        out.extend_from_slice(&self.cycle.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (name, words) in &self.sections {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(words.len() as u32).to_le_bytes());
            for w in words {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        let mut h = Fnv::new();
        h.write(&out);
        out.extend_from_slice(&h.finish().to_le_bytes());
        out
    }

    /// Parses and validates the binary format.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotFormat`] on bad magic, unsupported version,
    /// checksum failure, or any truncated/oversized field.
    pub fn from_bytes(bytes: &[u8]) -> Result<SimSnapshot, CoreError> {
        let bad = |reason: &str| CoreError::SnapshotFormat {
            reason: reason.to_owned(),
        };
        if bytes.len() < MAGIC.len() + 2 + 2 + 8 + 8 + 4 + 8 {
            return Err(bad("truncated header"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let mut h = Fnv::new();
        h.write(body);
        let stored = u64::from_le_bytes(tail.try_into().map_err(|_| bad("truncated checksum"))?);
        if stored != h.finish() {
            return Err(bad("checksum mismatch"));
        }
        let mut cur = Cursor { body, pos: 0 };
        if cur.take(4)? != MAGIC.as_slice() {
            return Err(bad("bad magic"));
        }
        let version = cur.u16()?;
        if version != VERSION {
            return Err(CoreError::SnapshotFormat {
                reason: format!("unsupported snapshot version {version}"),
            });
        }
        let backend =
            SnapshotBackend::from_tag(cur.u8()?).ok_or_else(|| bad("unknown backend tag"))?;
        let _reserved = cur.u8()?;
        let design_hash = cur.u64()?;
        let cycle = cur.u64()?;
        let n_sections = cur.u32()? as usize;
        let mut sections = Vec::with_capacity(n_sections.min(64));
        for _ in 0..n_sections {
            let name_len = cur.u16()? as usize;
            let name = std::str::from_utf8(cur.take(name_len)?)
                .map_err(|_| bad("section name is not UTF-8"))?
                .to_owned();
            let n_words = cur.u32()? as usize;
            let mut words = Vec::with_capacity(n_words.min(1 << 20));
            for _ in 0..n_words {
                words.push(cur.u64()?);
            }
            sections.push((name, words));
        }
        if cur.pos != cur.body.len() {
            return Err(bad("trailing bytes after last section"));
        }
        Ok(SimSnapshot {
            backend,
            design_hash,
            cycle,
            sections,
        })
    }

    /// A human-readable JSON rendering (deterministic, hand-rolled) for
    /// debugging and checkpoint manifests. Not a restore format — use
    /// [`SimSnapshot::to_bytes`] for that.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"version\":{VERSION},\"backend\":\"{}\",\"design_hash\":\"{:#018x}\",\"cycle\":{},\"sections\":{{",
            self.backend.name(),
            self.design_hash,
            self.cycle
        );
        for (i, (name, words)) in self.sections.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{name}\":[");
            for (j, w) in words.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{w}");
            }
            s.push(']');
        }
        s.push_str("}}");
        s
    }
}

/// A bounds-checked little-endian reader over the snapshot body.
struct Cursor<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CoreError> {
        let end = self.pos.checked_add(n).filter(|e| *e <= self.body.len());
        match end {
            Some(end) => {
                let s = &self.body[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(CoreError::SnapshotFormat {
                reason: "truncated snapshot body".to_owned(),
            }),
        }
    }

    fn u8(&mut self) -> Result<u8, CoreError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, CoreError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CoreError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimSnapshot {
        let mut s = SimSnapshot::new(SnapshotBackend::Compiled, 0xdead_beef_1234_5678, 42);
        s.push_section("slots", vec![1, 2, 3, u64::MAX]);
        s.push_section("states", vec![0]);
        s.set_rng_streams(&[XorShift64::new(7), XorShift64::new(9)]);
        s
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let s = sample();
        let bytes = s.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.section("slots"), Some(&[1, 2, 3, u64::MAX][..]));
        assert_eq!(back.cycle(), 42);
        assert_eq!(
            back.rng_streams(),
            vec![XorShift64::new(7), XorShift64::new(9)]
        );
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match SimSnapshot::from_bytes(&bytes) {
            Err(CoreError::SnapshotFormat { reason }) => {
                assert!(reason.contains("checksum"), "{reason}");
            }
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = sample().to_bytes();
        for cut in [0usize, 3, 10, bytes.len() - 1] {
            assert!(
                SimSnapshot::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn mismatched_hash_is_typed() {
        let s = sample();
        match s.check(SnapshotBackend::Compiled, 1) {
            Err(CoreError::SnapshotMismatch { expected, got }) => {
                assert_eq!(expected, 1);
                assert_eq!(got, 0xdead_beef_1234_5678);
            }
            other => panic!("expected mismatch, got {other:?}"),
        }
        match s.check(SnapshotBackend::Interp, s.design_hash()) {
            Err(CoreError::SnapshotFormat { reason }) => {
                assert!(reason.contains("backend"), "{reason}");
            }
            other => panic!("expected format error, got {other:?}"),
        }
        assert!(s.check(SnapshotBackend::Compiled, s.design_hash()).is_ok());
    }

    #[test]
    fn json_rendering_is_stable() {
        let mut s = SimSnapshot::new(SnapshotBackend::Interp, 0x10, 3);
        s.push_section("nets", vec![5, 6]);
        assert_eq!(
            s.to_json(),
            "{\"version\":1,\"backend\":\"interp\",\"design_hash\":\"0x0000000000000010\",\
             \"cycle\":3,\"sections\":{\"nets\":[5,6]}}"
        );
    }
}
