//! Versioned, checksummed simulator snapshots: one architectural state
//! for every engine.
//!
//! A long validation run, or a session of the persistent simulation
//! service (`ocapi-serve`), needs to park a simulator and pick it up
//! later — possibly in another process, possibly on another engine. A
//! [`SimSnapshot`] holds the design's *architectural* state, which is
//! the same whichever engine simulates the captured system (the paper's
//! interpreted and compiled back-ends are two views of one data
//! structure, Figure 7):
//!
//! * `nets` — every net's word, in [`System::nets`] order;
//! * `states` — each timed instance's FSM state (0 without an FSM);
//! * `regs` — instance by instance, register by register;
//! * `held` — the held word of every untimed output that drives no net,
//!   block then port, which the block reads back as that output's
//!   previous value when it next fires;
//! * `untimed.<u>` — block `u`'s own state words, for a block that has
//!   any (a RAM's words; none for a ROM).
//!
//! Every word is its value's canonical [`Value::to_raw`] word, plus the
//! completed-cycle count. [`InterpSim`](crate::InterpSim),
//! [`CompiledSim`](crate::CompiledSim) at every
//! [`OptLevel`](crate::OptLevel) and every
//! [`BatchedSim`](crate::BatchedSim) lane save and restore exactly these
//! sections: a snapshot from any of them restores into any other and
//! runs on identically, and at the same cycle their snapshots are
//! byte-equal (the every-engine checker, `tests/agree/mod.rs`, holds
//! them to both). The tape keeps nothing else between cycles: its other
//! slots are constants or are written by the next step before it reads
//! them.
//!
//! Two rules make restores safe rather than undefined behaviour:
//!
//! 1. **Design-hash keying.** Every snapshot records the structural hash
//!    ([`hash_system`](crate::sim::hash::hash_system)) of the design it
//!    was taken from, whatever engine or optimization level took it. A
//!    restore into a simulator of another design fails with
//!    [`CoreError::SnapshotMismatch`].
//! 2. **Checked framing and contents.** The byte format is versioned and
//!    carries a trailing FNV-1a checksum, and [`SimSnapshot::from_bytes`]
//!    validates every length. Before a restore installs anything, this
//!    module checks the sections against the system: their lengths,
//!    every word against its type, every FSM state against its range,
//!    and each block's section through the block itself. A truncated,
//!    corrupted or forged snapshot fails with
//!    [`CoreError::SnapshotFormat`] instead of corrupting state.
//!
//! The format is hand-rolled (magic + little-endian sections) — the
//! workspace builds offline with zero serialisation dependencies. This
//! is version 2; version 1, which kept a tape's raw slots keyed on its
//! program hash, is refused. A human-readable JSON rendering is
//! available via [`SimSnapshot::to_json`] for debugging.

use ocapi_obs::json::{obj, Json};

use crate::sim::hash::Fnv;
use crate::system::System;
use crate::value::{SigType, Value};
use crate::CoreError;

const MAGIC: &[u8; 4] = b"OSNP";
const VERSION: u16 = 2;

/// The untimed outputs of `sys` that drive no net, as (block, port),
/// block then port: the outputs whose words section `held` carries.
pub(crate) fn held_outputs(sys: &System) -> impl Iterator<Item = (usize, usize)> + '_ {
    sys.untimed.iter().enumerate().flat_map(move |(u, inst)| {
        (0..inst.outputs.len())
            .filter(move |p| sys.untimed_output_net(u, *p).is_none())
            .map(move |p| (u, p))
    })
}

/// Checks every word of section `section` against its type (see
/// [`Value::raw_fits`]), so a restore never installs a word that
/// decoding would reject. `words` and `types` have the same length.
fn check_words(
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

/// `Ok` when untimed block `block` `took` its state section, else the
/// typed refusal naming it.
pub(crate) fn taken(took: bool, block: &str) -> Result<(), CoreError> {
    match took {
        true => Ok(()),
        false => Err(CoreError::SnapshotFormat {
            reason: format!("untimed block `{block}` rejected its state section"),
        }),
    }
}

/// The architectural sections of a snapshot, checked against a system
/// by [`SimSnapshot::arch`]: each as long as the system needs, every
/// word of its type and every FSM state in range. An engine installs
/// these words and hands the block sections over with
/// [`Arch::hand_off`].
pub(crate) struct Arch<'a> {
    /// One word per net, in [`System::nets`] order.
    pub(crate) nets: &'a [u64],
    /// One FSM state per timed instance.
    pub(crate) states: &'a [u64],
    /// Instance by instance, register by register.
    pub(crate) regs: &'a [u64],
    /// One word per output of [`held_outputs`].
    pub(crate) held: &'a [u64],
    /// The system's untimed blocks.
    blocks: usize,
    snap: &'a SimSnapshot,
}

impl Arch<'_> {
    /// Hands each untimed block `u` of the system its `untimed.<u>`
    /// section, empty when absent, through `install`, and stops at the
    /// first block that refuses it (see [`taken`]).
    pub(crate) fn hand_off(
        &self,
        mut install: impl FnMut(usize, &[u64]) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        (0..self.blocks).try_for_each(|u| {
            let words = self.snap.section(&format!("untimed.{u}"));
            install(u, words.unwrap_or(&[]))
        })
    }
}

/// A complete, restorable image of a simulator's architectural state.
/// See the module docs for the layout and the integrity rules.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSnapshot {
    design_hash: u64,
    cycle: u64,
    sections: Vec<(String, Vec<u64>)>,
}

impl SimSnapshot {
    /// The snapshot of a simulator of the design hashing to
    /// `design_hash` after `cycle` completed cycles, from its words in
    /// the order of the module docs; `blocks` yields each untimed
    /// block's state words, and a block with none gets no section.
    pub(crate) fn capture(
        design_hash: u64,
        cycle: u64,
        nets: impl IntoIterator<Item = u64>,
        states: impl IntoIterator<Item = u64>,
        regs: impl IntoIterator<Item = u64>,
        held: impl IntoIterator<Item = u64>,
        blocks: impl IntoIterator<Item = Vec<u64>>,
    ) -> SimSnapshot {
        let mut s = SimSnapshot {
            design_hash,
            cycle,
            sections: Vec::new(),
        };
        s.push_section("nets", nets.into_iter().collect());
        s.push_section("states", states.into_iter().collect());
        s.push_section("regs", regs.into_iter().collect());
        s.push_section("held", held.into_iter().collect());
        for (u, words) in blocks.into_iter().enumerate() {
            if !words.is_empty() {
                s.push_section(&format!("untimed.{u}"), words);
            }
        }
        s
    }

    fn push_section(&mut self, name: &str, words: Vec<u64>) {
        self.sections.push((name.to_owned(), words));
    }

    /// The structural design hash the snapshot is keyed to.
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

    /// Checks this snapshot against a simulator of `sys` whose design
    /// hash is `design_hash` — every engine's restore goes through here
    /// before it installs a word.
    ///
    /// # Errors
    ///
    /// [`CoreError::SnapshotMismatch`] for a snapshot of another design,
    /// and [`CoreError::SnapshotFormat`] for a missing section, a section
    /// of the wrong length, a word its type cannot hold or an FSM state
    /// out of range.
    pub(crate) fn arch(&self, sys: &System, design_hash: u64) -> Result<Arch<'_>, CoreError> {
        if self.design_hash != design_hash {
            return Err(CoreError::SnapshotMismatch {
                expected: design_hash,
                got: self.design_hash,
            });
        }
        let reg_types = || {
            sys.timed
                .iter()
                .flat_map(|t| t.comp.regs.iter().map(|r| r.ty))
        };
        let held_types = || held_outputs(sys).map(|(u, p)| sys.untimed[u].outputs[p].ty);
        let arch = Arch {
            nets: self.section_exact("nets", sys.nets.len())?,
            states: self.section_exact("states", sys.timed.len())?,
            regs: self.section_exact("regs", reg_types().count())?,
            held: self.section_exact("held", held_types().count())?,
            blocks: sys.untimed.len(),
            snap: self,
        };
        check_words("nets", arch.nets, sys.nets.iter().map(|n| n.ty))?;
        check_words("regs", arch.regs, reg_types())?;
        check_words("held", arch.held, held_types())?;
        for (t, idx) in sys.timed.iter().zip(arch.states) {
            let n_states = t.comp.fsm.as_ref().map_or(1, |f| f.states.len() as u64);
            if *idx >= n_states {
                return Err(CoreError::SnapshotFormat {
                    reason: format!("state selector {idx} out of range for `{}`", t.name),
                });
            }
        }
        Ok(arch)
    }

    /// A required section of an exact length; shape violations are
    /// typed [`CoreError::SnapshotFormat`] errors.
    fn section_exact(&self, name: &str, len: usize) -> Result<&[u64], CoreError> {
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
    /// [`CoreError::SnapshotFormat`] on bad magic, an unsupported
    /// version (version 1 included), checksum failure, or any
    /// truncated/oversized field.
    pub fn from_bytes(bytes: &[u8]) -> Result<SimSnapshot, CoreError> {
        let bad = |reason: &str| CoreError::SnapshotFormat {
            reason: reason.to_owned(),
        };
        if bytes.len() < MAGIC.len() + 2 + 8 + 8 + 4 + 8 {
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
            design_hash,
            cycle,
            sections,
        })
    }

    /// A human-readable JSON rendering for debugging, printed compactly
    /// from a [`Json`] value: version, design hash (hex), cycle
    /// and every section's words as exact integers. Not a restore
    /// format — use [`SimSnapshot::to_bytes`] for that.
    pub fn to_json(&self) -> String {
        let sections = self.sections.iter().map(|(name, words)| {
            let words = words.iter().map(|&w| Json::U64(w)).collect();
            (name.clone(), Json::Arr(words))
        });
        obj([
            ("version", Json::U64(VERSION.into())),
            (
                "design_hash",
                Json::Str(format!("{:#018x}", self.design_hash)),
            ),
            ("cycle", Json::U64(self.cycle)),
            ("sections", Json::Obj(sections.collect())),
        ])
        .to_string()
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
    use crate::{Component, SigType};

    fn sample() -> SimSnapshot {
        let nets = [1, 2, 3, u64::MAX];
        SimSnapshot::capture(0xdead_beef_1234_5678, 42, nets, [0], [], [], [])
    }

    /// `bytes` re-framed with a fresh checksum.
    fn reframed(mut bytes: Vec<u8>) -> Vec<u8> {
        let body = bytes.len() - 8;
        let mut h = Fnv::new();
        h.write(&bytes[..body]);
        bytes[body..].copy_from_slice(&h.finish().to_le_bytes());
        bytes
    }

    /// One instance with a 4-bit register driving its one output: one
    /// net, one state, one register.
    fn counter() -> System {
        let c = Component::build("counter");
        let out = c.output("count", SigType::Bits(4)).unwrap();
        let r = c.reg("r", SigType::Bits(4)).unwrap();
        let sfg = c.sfg("tick").unwrap();
        sfg.drive(out, &c.q(r)).unwrap();
        sfg.next(r, &(c.q(r) + c.const_bits(4, 1))).unwrap();
        let mut sb = System::build("demo");
        let inst = sb.add_component("u0", c.finish().unwrap()).unwrap();
        sb.output("count", inst, "count").unwrap();
        sb.finish().unwrap()
    }

    #[test]
    fn byte_round_trip_is_exact() {
        let s = sample();
        let bytes = s.to_bytes();
        let back = SimSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.section("nets"), Some(&[1, 2, 3, u64::MAX][..]));
        assert_eq!(back.section("held"), Some(&[][..]));
        assert_eq!(back.cycle(), 42);
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

    /// Version 1 kept a tape's raw slots under its program hash; its
    /// bytes are refused with a typed error, checksum intact or not.
    #[test]
    fn version_1_is_refused() {
        let mut bytes = sample().to_bytes();
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        match SimSnapshot::from_bytes(&reframed(bytes)) {
            Err(CoreError::SnapshotFormat { reason }) => {
                assert_eq!(reason, "unsupported snapshot version 1");
            }
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_hash_is_typed() {
        let sys = counter();
        let s = SimSnapshot::capture(1, 0, [3], [0], [5], [], []);
        match s.arch(&sys, 2) {
            Err(CoreError::SnapshotMismatch { expected, got }) => {
                assert_eq!((expected, got), (2, 1));
            }
            other => panic!("expected mismatch, got {:?}", other.map(|_| ())),
        }
        assert!(s.arch(&sys, s.design_hash()).is_ok());
    }

    #[test]
    fn arch_checks_lengths_and_states() {
        let sys = counter();
        let s = SimSnapshot::capture(1, 0, [3], [0], [5], [], []);
        let arch = s.arch(&sys, 1).unwrap();
        assert_eq!(
            (arch.nets, arch.states, arch.regs),
            (&[3][..], &[0][..], &[5][..])
        );
        let bad = |s: SimSnapshot| match s.arch(&sys, 1) {
            Err(CoreError::SnapshotFormat { reason }) => reason,
            other => panic!("expected format error, got {:?}", other.map(|_| ())),
        };
        let short = SimSnapshot::capture(1, 0, [], [0], [5], [], []);
        assert_eq!(bad(short), "section `nets` has 0 words, expected 1");
        let wide = SimSnapshot::capture(1, 0, [3], [0], [16], [], []);
        assert_eq!(
            bad(wide),
            "section `regs` word 0: 0x10 is not a bits<4> value"
        );
        let state = SimSnapshot::capture(1, 0, [3], [1], [5], [], []);
        assert_eq!(bad(state), "state selector 1 out of range for `u0`");
    }

    #[test]
    fn json_round_trips_exactly() {
        let s = sample();
        let text = s.to_json();
        let v = Json::parse(&text).unwrap();
        assert_eq!(v.to_string(), text);
        let nets = v.get("sections").and_then(|x| x.get("nets"));
        let last = nets.and_then(Json::as_arr).and_then(|w| w.last());
        assert_eq!(last.and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn json_rendering_is_stable() {
        let s = SimSnapshot::capture(0x10, 3, [5, 6], [], [], [], [vec![], vec![7]]);
        assert_eq!(
            s.to_json(),
            "{\"version\":2,\"design_hash\":\"0x0000000000000010\",\"cycle\":3,\
             \"sections\":{\"nets\":[5,6],\"states\":[],\"regs\":[],\"held\":[],\
             \"untimed.1\":[7]}}"
        );
    }
}
