//! Untimed (high-level) processes and a small library of standard blocks.
//!
//! The paper mixes "high level descriptions of undesigned components with
//! detailed clock-cycle true, bit-true descriptions" (§1). An untimed
//! block is plain Rust behaviour with a data-flow *firing rule*: inside the
//! cycle scheduler it fires at most once per clock cycle, as soon as all
//! its input tokens are available — which is how the DECT design models
//! the RAM cells attached to the datapaths (§4, Figure 6).

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::comp::PortDecl;
use crate::value::{SigType, Value};

/// Structural description of a memory block, letting code generators
/// emit a behavioural HDL model instead of a black box (the "behavioural
/// model supplied separately" of the original flow, now generated).
///
/// A block reports its contents borrowed, so reading a spec copies no
/// words; [`MemorySpec::into_owned`] detaches one from its block.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySpec<'a> {
    /// True for read-only memories.
    pub is_rom: bool,
    /// Address width in bits.
    pub addr_bits: u32,
    /// Word type.
    pub word: SigType,
    /// Initial/constant contents (length `2^addr_bits`).
    pub contents: Cow<'a, [Value]>,
}

impl MemorySpec<'_> {
    /// The same spec, owning its contents.
    pub fn into_owned(self) -> MemorySpec<'static> {
        MemorySpec {
            contents: Cow::Owned(self.contents.into_owned()),
            ..self
        }
    }
}

/// A high-level (untimed) process usable inside a clocked system.
///
/// The cycle scheduler calls [`UntimedBlock::ready`] once all input nets
/// carry this cycle's tokens; if it returns `true`, [`UntimedBlock::fire`]
/// runs and must write every output. If it returns `false`, the outputs
/// hold their previous values.
///
/// A block is `Send + Sync`, so a captured [`System`](crate::System) is
/// too: one template serves every simulator built from a
/// [`CompiledDesign`](crate::CompiledDesign), on any thread, without a
/// capture of its own.
pub trait UntimedBlock: Send + Sync {
    /// Instance name (unique within the system).
    fn name(&self) -> &str;

    /// Declared input ports.
    fn input_ports(&self) -> Vec<PortDecl>;

    /// Declared output ports.
    fn output_ports(&self) -> Vec<PortDecl>;

    /// The firing rule. The default fires whenever all inputs are
    /// available (which is when this is called).
    fn ready(&self, _inputs: &[Value]) -> bool {
        true
    }

    /// One firing: consume `inputs`, produce `outputs`. `outputs` is
    /// pre-filled with the previous (held) values.
    fn fire(&mut self, inputs: &[Value], outputs: &mut [Value]);

    /// A copy of this block in its current state, whose
    /// [`UntimedBlock::reset`] restores the same power-up state as the
    /// original's. A lane-batched simulator captures one system and
    /// gives each lane copies of its (power-up) generic blocks, so every
    /// lane owns its untimed state without a capture of its own. A
    /// memory the compiled tape runs natively (see
    /// [`UntimedBlock::memory_spec`]) is not copied per lane: each lane
    /// keeps the memory's words in the tape state instead. A block that
    /// derives `Clone` returns `Box::new(self.clone())`.
    fn boxed_clone(&self) -> Box<dyn UntimedBlock>;

    /// Returns the block to its power-up state: afterwards it must
    /// behave exactly like a freshly built copy. Simulators call this
    /// from their own `reset`, and the campaign and BER drivers reset
    /// and reuse one simulator per worker instead of building one per
    /// run, so a block that keeps any state across firings must restore
    /// all of it here. There is no default: a stateless block says so
    /// with an empty body.
    fn reset(&mut self);

    /// If this block is a memory, its structural description. Defaults
    /// to `None` (opaque behaviour).
    ///
    /// The HDL writers emit a behavioural model from the spec instead of
    /// a black box. The compiled tape (`CompiledSim`, `BatchedSim`) runs
    /// a block that reports a spec, and whose ports have the memory
    /// shape — a ROM `addr: Bits(a)` → `data: W`, a RAM `addr: Bits(a)`,
    /// `we: Bool`, `wdata: W` → `rdata: W`, `2^a` words of contents — as
    /// that memory: each firing reads the word at the address masked to
    /// `a` bits, and a RAM then stores `wdata` when `we` is set, as
    /// [`Ram`] and [`Rom`] do. There, the block's `ready` and `fire` are
    /// not called, its `contents` when the simulator is built are the
    /// power-up contents a reset returns to, and a snapshot's section
    /// for it is a RAM's words (none for a ROM). The interpreter, the RT
    /// kernel and gate level still fire the block, so a block that
    /// reports a spec must behave as that memory.
    fn memory_spec(&self) -> Option<MemorySpec<'_>> {
        None
    }

    /// The block's internal state as raw words (see [`Value::to_raw`]),
    /// for simulator snapshots. Stateless blocks (the default) return
    /// an empty vector. A stateful block must override this *and*
    /// [`UntimedBlock::restore_state`] as an exact pair.
    fn snapshot_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores state captured by [`UntimedBlock::snapshot_state`].
    /// Returns `false` when the words do not fit this block (wrong
    /// length, or a word its type cannot hold), in which case the block
    /// is left unchanged. The default (stateless) implementation accepts
    /// only an empty slice.
    fn restore_state(&mut self, words: &[u64]) -> bool {
        words.is_empty()
    }
}

impl fmt::Debug for dyn UntimedBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UntimedBlock({})", self.name())
    }
}

/// A single-port RAM with combinational (asynchronous) read — the model
/// the DECT transceiver uses for its 7 RAM cells: the datapath computes an
/// address from registered signals, the RAM responds within the same
/// cycle.
///
/// Ports: `addr: Bits(a)`, `we: Bool`, `wdata: T` → `rdata: T`. A write
/// is visible from the *next* firing (write happens after the read).
/// Power-up contents are zero apart from the [`Ram::preload`]ed words,
/// which [`UntimedBlock::reset`] restores.
#[derive(Debug, Clone)]
pub struct Ram {
    name: String,
    addr_bits: u32,
    ty: SigType,
    words: Vec<Value>,
    /// Preloaded `(address, word)` pairs in call order: the non-zero
    /// part of the power-up contents.
    preloaded: Vec<(usize, Value)>,
}

impl Ram {
    /// Creates a RAM with `2^addr_bits` words of type `ty`, zero-filled.
    ///
    /// # Panics
    ///
    /// Panics if `addr_bits` is 0 or greater than 24 (16M words).
    pub fn new(name: &str, addr_bits: u32, ty: SigType) -> Ram {
        assert!((1..=24).contains(&addr_bits), "addr_bits must be 1..=24");
        Ram {
            name: name.to_owned(),
            addr_bits,
            ty,
            words: vec![ty.zero(); 1 << addr_bits],
            preloaded: Vec::new(),
        }
    }

    /// Pre-loads a word: it becomes part of the power-up contents, so a
    /// reset restores it.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or `value` has the wrong type.
    pub fn preload(&mut self, addr: usize, value: Value) {
        assert_eq!(value.sig_type(), self.ty, "preload type mismatch");
        self.words[addr] = value;
        self.preloaded.push((addr, value));
    }

    /// Reads a word directly (for test inspection).
    pub fn word(&self, addr: usize) -> Value {
        self.words[addr]
    }
}

impl UntimedBlock for Ram {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> Vec<PortDecl> {
        vec![
            PortDecl {
                name: "addr".to_owned(),
                ty: SigType::Bits(self.addr_bits),
            },
            PortDecl {
                name: "we".to_owned(),
                ty: SigType::Bool,
            },
            PortDecl {
                name: "wdata".to_owned(),
                ty: self.ty,
            },
        ]
    }

    fn output_ports(&self) -> Vec<PortDecl> {
        vec![PortDecl {
            name: "rdata".to_owned(),
            ty: self.ty,
        }]
    }

    fn fire(&mut self, inputs: &[Value], outputs: &mut [Value]) {
        // Port types are checked at system build; a mistyped value can
        // only mean corrupted state, so read as an idle access rather
        // than panicking mid-simulation.
        let addr = inputs[0].as_bits().unwrap_or(0) as usize;
        let we = inputs[1].as_bool().unwrap_or(false);
        outputs[0] = self.words.get(addr).copied().unwrap_or(self.ty.zero());
        if we {
            if let Some(w) = self.words.get_mut(addr) {
                *w = inputs[2];
            }
        }
    }

    fn boxed_clone(&self) -> Box<dyn UntimedBlock> {
        Box::new(self.clone())
    }

    fn reset(&mut self) {
        self.words.fill(self.ty.zero());
        for &(addr, value) in &self.preloaded {
            self.words[addr] = value;
        }
    }

    fn memory_spec(&self) -> Option<MemorySpec<'_>> {
        Some(MemorySpec {
            is_rom: false,
            addr_bits: self.addr_bits,
            word: self.ty,
            contents: Cow::Borrowed(&self.words),
        })
    }

    fn snapshot_state(&self) -> Vec<u64> {
        self.words.iter().map(Value::to_raw).collect()
    }

    fn restore_state(&mut self, words: &[u64]) -> bool {
        if words.len() != self.words.len() || !words.iter().all(|w| Value::raw_fits(self.ty, *w)) {
            return false;
        }
        for (slot, raw) in self.words.iter_mut().zip(words) {
            *slot = Value::from_raw(self.ty, *raw);
        }
        true
    }
}

/// A ROM with combinational read: `addr: Bits(a)` → `data: T`.
///
/// The DECT instruction ROM (IROM) is modelled this way.
#[derive(Debug, Clone)]
pub struct Rom {
    name: String,
    addr_bits: u32,
    ty: SigType,
    words: Vec<Value>,
}

impl Rom {
    /// Creates a ROM from its contents; the depth is rounded up to the
    /// next power of two (padding with zeros).
    ///
    /// # Panics
    ///
    /// Panics if `words` is empty, exceeds 16M entries, or contains a
    /// value of the wrong type.
    pub fn new(name: &str, ty: SigType, words: Vec<Value>) -> Rom {
        assert!(!words.is_empty(), "ROM must have contents");
        for w in &words {
            assert_eq!(w.sig_type(), ty, "ROM word type mismatch");
        }
        let addr_bits = (usize::BITS - (words.len() - 1).leading_zeros()).max(1);
        assert!(addr_bits <= 24, "ROM too large");
        let mut words = words;
        words.resize(1 << addr_bits, ty.zero());
        Rom {
            name: name.to_owned(),
            addr_bits,
            ty,
            words,
        }
    }

    /// The number of address bits.
    pub fn addr_bits(&self) -> u32 {
        self.addr_bits
    }
}

impl UntimedBlock for Rom {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> Vec<PortDecl> {
        vec![PortDecl {
            name: "addr".to_owned(),
            ty: SigType::Bits(self.addr_bits),
        }]
    }

    fn output_ports(&self) -> Vec<PortDecl> {
        vec![PortDecl {
            name: "data".to_owned(),
            ty: self.ty,
        }]
    }

    fn fire(&mut self, inputs: &[Value], outputs: &mut [Value]) {
        let addr = inputs[0].as_bits().unwrap_or(0) as usize;
        outputs[0] = self.words.get(addr).copied().unwrap_or(self.ty.zero());
    }

    fn boxed_clone(&self) -> Box<dyn UntimedBlock> {
        Box::new(self.clone())
    }

    /// Read-only: nothing to restore.
    fn reset(&mut self) {}

    fn memory_spec(&self) -> Option<MemorySpec<'_>> {
        Some(MemorySpec {
            is_rom: true,
            addr_bits: self.addr_bits,
            word: self.ty,
            contents: Cow::Borrowed(&self.words),
        })
    }
}

/// An untimed block defined by a closure — the quickest way to drop a
/// high-level model of an undesigned component into a clocked system.
///
/// The closure is a `Fn`: a pure function of the inputs, with no
/// captured state that a reset would have to restore. A model that
/// keeps state across firings implements [`UntimedBlock`] itself, with
/// a `reset` that restores it. Copies of the block
/// ([`UntimedBlock::boxed_clone`]) share the one closure, which is
/// `Send + Sync` as every block is.
///
/// # Example
///
/// ```
/// use ocapi::{FnBlock, PortDecl, SigType, Value};
///
/// // A high-level "saturating doubler" that has not been designed yet.
/// let blk = FnBlock::new(
///     "doubler",
///     vec![PortDecl { name: "x".into(), ty: SigType::Bits(8) }],
///     vec![PortDecl { name: "y".into(), ty: SigType::Bits(8) }],
///     |inp, out| {
///         let x = inp[0].as_bits().expect("bits");
///         out[0] = Value::bits(8, (x * 2).min(255));
///     },
/// );
/// ```
pub struct FnBlock<F> {
    name: String,
    inputs: Vec<PortDecl>,
    outputs: Vec<PortDecl>,
    behaviour: Arc<F>,
}

impl<F> Clone for FnBlock<F> {
    fn clone(&self) -> Self {
        FnBlock {
            name: self.name.clone(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
            behaviour: Arc::clone(&self.behaviour),
        }
    }
}

impl<F> FnBlock<F>
where
    F: Fn(&[Value], &mut [Value]) + Send + Sync,
{
    /// Wraps a closure as an untimed block.
    pub fn new(name: &str, inputs: Vec<PortDecl>, outputs: Vec<PortDecl>, behaviour: F) -> Self {
        FnBlock {
            name: name.to_owned(),
            inputs,
            outputs,
            behaviour: Arc::new(behaviour),
        }
    }
}

impl<F> UntimedBlock for FnBlock<F>
where
    F: Fn(&[Value], &mut [Value]) + Send + Sync + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> Vec<PortDecl> {
        self.inputs.clone()
    }

    fn output_ports(&self) -> Vec<PortDecl> {
        self.outputs.clone()
    }

    fn fire(&mut self, inputs: &[Value], outputs: &mut [Value]) {
        (self.behaviour)(inputs, outputs)
    }

    fn boxed_clone(&self) -> Box<dyn UntimedBlock> {
        Box::new(self.clone())
    }

    /// A `Fn` closure holds no state between firings.
    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ram_read_then_write() {
        let mut ram = Ram::new("r", 4, SigType::Bits(8));
        ram.preload(3, Value::bits(8, 42));
        let mut out = [Value::bits(8, 0)];
        // read addr 3
        ram.fire(
            &[Value::bits(4, 3), Value::Bool(false), Value::bits(8, 0)],
            &mut out,
        );
        assert_eq!(out[0], Value::bits(8, 42));
        // write addr 3: old value is read out, new value lands
        ram.fire(
            &[Value::bits(4, 3), Value::Bool(true), Value::bits(8, 7)],
            &mut out,
        );
        assert_eq!(out[0], Value::bits(8, 42));
        assert_eq!(ram.word(3), Value::bits(8, 7));
    }

    #[test]
    fn ram_reset_clears() {
        // Reset returns the power-up contents: written words are
        // cleared, preloaded words are restored.
        let mut ram = Ram::new("r", 2, SigType::Bits(8));
        ram.preload(1, Value::bits(8, 9));
        let mut out = [Value::bits(8, 0)];
        for (addr, v) in [(1, 7), (2, 5)] {
            ram.fire(
                &[Value::bits(2, addr), Value::Bool(true), Value::bits(8, v)],
                &mut out,
            );
        }
        assert_eq!(ram.word(1), Value::bits(8, 7));
        assert_eq!(ram.word(2), Value::bits(8, 5));
        ram.reset();
        assert_eq!(ram.word(1), Value::bits(8, 9));
        assert_eq!(ram.word(2), Value::bits(8, 0));
    }

    #[test]
    fn rom_rounds_to_power_of_two() {
        let rom = Rom::new(
            "irom",
            SigType::Bits(16),
            (0..5).map(|i| Value::bits(16, i)).collect(),
        );
        assert_eq!(rom.addr_bits(), 3);
        let mut out = [Value::bits(16, 0)];
        let mut rom = rom;
        rom.fire(&[Value::bits(3, 4)], &mut out);
        assert_eq!(out[0], Value::bits(16, 4));
        rom.fire(&[Value::bits(3, 7)], &mut out);
        assert_eq!(out[0], Value::bits(16, 0)); // padding
    }

    #[test]
    fn fn_block_runs_closure() {
        let mut blk = FnBlock::new(
            "inc",
            vec![PortDecl {
                name: "x".into(),
                ty: SigType::Bits(8),
            }],
            vec![PortDecl {
                name: "y".into(),
                ty: SigType::Bits(8),
            }],
            |inp, out| {
                out[0] = Value::bits(8, inp[0].as_bits().expect("bits") + 1);
            },
        );
        let mut out = [Value::bits(8, 0)];
        blk.fire(&[Value::bits(8, 9)], &mut out);
        assert_eq!(out[0], Value::bits(8, 10));
    }
}
