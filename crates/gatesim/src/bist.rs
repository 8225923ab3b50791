//! Built-in self-test building blocks: LFSR pattern generation and MISR
//! signature compression.
//!
//! The era's alternative to scan + external test vectors: an on-chip
//! linear-feedback shift register feeds pseudo-random patterns into the
//! logic and a multiple-input signature register compresses the output
//! stream into one word compared against the good-machine signature.
//! Here both are host-side models, used with [`crate::fault`] to ask
//! the sign-off question: *how many stuck-at faults would a BIST run of
//! N patterns catch, and does the signature see them?*

use ocapi_synth::gate::Netlist;

use crate::fault::CycleStimulus;
use crate::{GateError, GateSim};

/// Maximal-length feedback masks for the Fibonacci recurrence
/// `b = parity(state & mask)` with a left shift (tap `k` of the
/// textbook `(w, …)` tap sets is bit `k-1` here). Every entry is
/// exhaustively verified maximal by the test suite, which is why the
/// table stops at 16 bits.
fn taps(width: u32) -> u64 {
    match width {
        3 => 0b110,       // (3, 2)
        4 => 0b1100,      // (4, 3)
        5 => 0b1_0100,    // (5, 3)
        6 => 0b11_0000,   // (6, 5)
        7 => 0b110_0000,  // (7, 6)
        8 => 0b1011_1000, // (8, 6, 5, 4)
        16 => 0xD008,     // (16, 15, 13, 4)
        _ => panic!("no maximal-length taps tabulated for width {width}"),
    }
}

/// A Fibonacci LFSR over `width` bits. With tabulated taps the sequence
/// is maximal-length: it visits every non-zero state once per
/// `2^width - 1` steps.
///
/// ```
/// use ocapi_gatesim::bist::Lfsr;
///
/// let mut l = Lfsr::new(4, 1);
/// let first: Vec<u64> = (0..15).map(|_| l.step()).collect();
/// assert_eq!(l.state(), 1); // period 2^4 - 1
/// assert!(first.iter().all(|s| *s != 0));
/// ```
#[derive(Debug, Clone)]
pub struct Lfsr {
    state: u64,
    width: u32,
    taps: u64,
}

impl Lfsr {
    /// Creates an LFSR with the tabulated maximal-length taps.
    ///
    /// # Panics
    ///
    /// Panics when no taps are tabulated for `width` or `seed` is zero
    /// (the all-zero state is the one state an LFSR can never leave).
    pub fn new(width: u32, seed: u64) -> Lfsr {
        let mask = (1u64 << width) - 1;
        assert!(seed & mask != 0, "LFSR seed must be non-zero");
        Lfsr {
            state: seed & mask,
            width,
            taps: taps(width),
        }
    }

    /// The current state.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Advances one step and returns the new state.
    pub fn step(&mut self) -> u64 {
        let fb = (self.state & self.taps).count_ones() & 1;
        self.state = ((self.state << 1) | fb as u64) & ((1u64 << self.width) - 1);
        self.state
    }
}

/// A multiple-input signature register: an LFSR that XORs a data word
/// into its state every step, compressing an output stream into one
/// signature word.
///
/// ```
/// use ocapi_gatesim::bist::Misr;
///
/// let mut good = Misr::new(16);
/// let mut bad = Misr::new(16);
/// for k in 0..32u64 {
///     good.absorb(k);
///     bad.absorb(if k == 7 { k ^ 4 } else { k });
/// }
/// assert_ne!(good.signature(), bad.signature());
/// ```
#[derive(Debug, Clone)]
pub struct Misr {
    lfsr: Lfsr,
}

impl Misr {
    /// Creates a MISR of the given width (same tap table as [`Lfsr`]),
    /// starting from the all-ones state.
    pub fn new(width: u32) -> Misr {
        Misr {
            lfsr: Lfsr::new(width, (1u64 << width) - 1),
        }
    }

    /// Absorbs a word wider than the register by folding it in
    /// `width`-bit chunks.
    pub fn absorb_wide(&mut self, word: u64, bits: u32) {
        let w = self.lfsr.width;
        let mut rest = word;
        let mut remaining = bits;
        loop {
            self.absorb(rest);
            rest >>= w.min(63);
            remaining = remaining.saturating_sub(w);
            if remaining == 0 {
                break;
            }
        }
    }

    /// Absorbs one observation word.
    pub fn absorb(&mut self, word: u64) {
        self.lfsr.step();
        self.lfsr.state ^= word & ((1u64 << self.lfsr.width) - 1);
    }

    /// The accumulated signature.
    pub fn signature(&self) -> u64 {
        self.lfsr.state
    }
}

/// The result of a BIST dry run on a netlist.
#[derive(Debug, Clone)]
pub struct BistReport {
    /// The good-machine signature after `patterns` LFSR patterns.
    pub signature: u64,
    /// Patterns applied.
    pub patterns: usize,
}

/// Generates `patterns` cycles of LFSR stimulus for every input bus of
/// `net` (one shared LFSR, slices of its state per bus) — the stimulus
/// a BIST controller would apply. Usable directly with
/// [`crate::fault::stuck_at_coverage_sharded_stats`].
pub fn lfsr_stimulus(net: &Netlist, patterns: usize, seed: u64) -> Vec<CycleStimulus> {
    let mut lfsr = Lfsr::new(16, seed & 0xffff);
    (0..patterns)
        .map(|_| {
            let inputs = net
                .inputs
                .iter()
                .map(|(name, ws)| {
                    // One fresh LFSR step per 16-bit chunk of the bus, so
                    // every input sees its own slice of the m-sequence.
                    let mut value = 0u64;
                    for chunk in 0..ws.len().div_ceil(16) {
                        value |= lfsr.step() << (16 * chunk);
                    }
                    (name.clone(), value & ((1u64 << ws.len().min(63)) - 1))
                })
                .collect();
            CycleStimulus { inputs }
        })
        .collect()
}

/// Runs the fault-free machine under LFSR stimulus and compresses every
/// output bus into a MISR each cycle: the reference signature a BIST
/// comparison would be fused against.
///
/// # Errors
///
/// Returns [`GateError::Oscillation`] when the good machine itself does
/// not settle — a design bug the BIST run cannot paper over.
pub fn golden_signature(net: &Netlist, stimuli: &[CycleStimulus]) -> Result<BistReport, GateError> {
    let mut sim = GateSim::new(net.clone())?;
    let outs: Vec<Vec<_>> = net.outputs.iter().map(|(_, ws)| ws.clone()).collect();
    let mut misr = Misr::new(16);
    for cyc in stimuli {
        for (name, value) in &cyc.inputs {
            // Unknown bus names are skipped, matching the parallel
            // fault engine's stimulus contract.
            let Some(ws) = sim.netlist().input_by_name(name) else {
                continue;
            };
            let ws = ws.to_vec();
            sim.set_bus(&ws, *value);
        }
        sim.settle()?;
        sim.clock()?;
        for ws in &outs {
            misr.absorb_wide(sim.bus(ws), ws.len() as u32);
        }
    }
    Ok(BistReport {
        signature: misr.signature(),
        patterns: stimuli.len(),
    })
}

/// A complete BIST sign-off: the fused good-machine signature plus the
/// stuck-at coverage the pattern set achieves.
#[derive(Debug, Clone)]
pub struct BistSignoff {
    /// The good-machine signature a production part is compared against.
    pub report: BistReport,
    /// Stuck-at coverage of the pattern set (which faults the signature
    /// comparison would actually catch).
    pub coverage: crate::fault::FaultReport,
    /// Gate-evaluation accounting of the word-parallel grading run
    /// (deterministic; see [`crate::fault::GradeStats`]).
    pub grade_stats: crate::fault::GradeStats,
}

/// Answers the sign-off question in one call: runs the good machine for
/// the fused signature and grades the same pattern set for stuck-at
/// coverage, with the fault batches sharded across `pool` (see
/// [`crate::fault::stuck_at_coverage_sharded_stats`]). Deterministic for
/// any thread count.
///
/// # Errors
///
/// As [`golden_signature`] and
/// [`stuck_at_coverage_sharded_stats`](crate::fault::stuck_at_coverage_sharded_stats).
pub fn bist_signoff(
    net: &Netlist,
    stimuli: &[CycleStimulus],
    pool: &ocapi::ParConfig,
) -> Result<BistSignoff, GateError> {
    let report = golden_signature(net, stimuli)?;
    let (coverage, grade_stats) =
        crate::fault::stuck_at_coverage_sharded_stats(net, stimuli, pool)?;
    Ok(BistSignoff {
        report,
        coverage,
        grade_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocapi_synth::gate::GateKind;

    #[test]
    fn lfsr_is_maximal_length() {
        // Every tabulated width, exhaustively — including the 16-bit
        // register the stimulus generator uses.
        for width in [3u32, 4, 5, 6, 7, 8, 16] {
            let mut l = Lfsr::new(width, 1);
            let period = (1u64 << width) - 1;
            let mut seen = std::collections::HashSet::new();
            for _ in 0..period {
                assert!(seen.insert(l.step()), "width {width}: state repeated early");
            }
            assert_eq!(l.state(), 1, "width {width}: period is not 2^n - 1");
            assert!(!seen.contains(&0), "LFSR must never reach all-zero");
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_seed_is_rejected() {
        let _ = Lfsr::new(8, 0);
    }

    #[test]
    fn misr_distinguishes_streams() {
        let mut a = Misr::new(16);
        let mut b = Misr::new(16);
        assert_ne!(a.signature(), 0);
        for k in 0..100u64 {
            a.absorb(k);
            b.absorb(if k == 57 { k ^ 1 } else { k }); // one bit flip
        }
        assert_ne!(a.signature(), b.signature());
        // And identical streams agree.
        let mut c = Misr::new(16);
        for k in 0..100u64 {
            c.absorb(k);
        }
        assert_eq!(a.signature(), c.signature());
    }

    #[test]
    fn bist_signature_is_deterministic_and_pattern_sensitive() {
        let mut n = Netlist::new();
        let i = n.input_bus("x", 4);
        let a = n.gate(GateKind::Xor2, &[i[0], i[1]]);
        let b = n.gate(GateKind::And2, &[i[2], i[3]]);
        let q = n.dff(a, false);
        let o = n.gate(GateKind::Or2, &[q, b]);
        n.output_bus("y", vec![o, q]);

        let s64 = lfsr_stimulus(&n, 64, 0xace1);
        let r1 = golden_signature(&n, &s64).expect("bist");
        let r2 = golden_signature(&n, &s64).expect("bist");
        assert_eq!(r1.signature, r2.signature, "deterministic");
        let r3 = golden_signature(&n, &lfsr_stimulus(&n, 64, 0xbeef)).expect("bist");
        assert_ne!(r1.signature, r3.signature, "seed-sensitive");
    }

    fn demo_netlist() -> Netlist {
        let mut n = Netlist::new();
        let i = n.input_bus("x", 4);
        let a = n.gate(GateKind::Xor2, &[i[0], i[1]]);
        let b = n.gate(GateKind::Nand2, &[i[2], i[3]]);
        let q = n.dff(a, false);
        let o = n.gate(GateKind::Mux2, &[q, b, i[0]]);
        n.output_bus("y", vec![o, q]);
        n
    }

    #[test]
    fn signoff_matches_single_threaded_engines() {
        let n = demo_netlist();
        let stim = lfsr_stimulus(&n, 64, 0xace1);
        let (serial_cov, _) = crate::fault::stuck_at_coverage(&n, &stim).expect("grade");
        let serial_sig = golden_signature(&n, &stim).expect("bist").signature;
        for threads in [1usize, 4] {
            let s = bist_signoff(&n, &stim, &ocapi::ParConfig::new(threads)).expect("signoff");
            assert_eq!(s.report.signature, serial_sig);
            assert_eq!(s.coverage.detected, serial_cov.detected);
            assert_eq!(s.coverage.undetected, serial_cov.undetected);
        }
    }
}
