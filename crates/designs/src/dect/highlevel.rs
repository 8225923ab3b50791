//! Stepwise refinement: the transceiver with a *high-level* equalizer.
//!
//! "The object oriented features of this language allow it to mix
//! high-level descriptions of undesigned components with detailed
//! clock-cycle true, bit-true descriptions" (§1) — the essential ability
//! to keep an executable system specification at all times. This module
//! is that flow on the flagship design: [`HighLevelEqualizer`] is an
//! untimed behavioural model that replaces the 11 MAC datapaths *and*
//! the sum tree of the cycle-true machine, plugged into the otherwise
//! unchanged system (same PC controller, decoder, RAMs, slicer, HCOR…).
//!
//! Because the model uses the same fixed-point casts the datapaths use,
//! the mixed system is **bit-exact** with the fully refined one — the
//! check a designer runs after each refinement step
//! (`tests/dect_system.rs::mixed_refinement_matches_cycle_true`).

use ocapi::{CoreError, System};
use ocapi::{PortDecl, Ram, Rom, SigType, UntimedBlock, Value};
use ocapi_fixp::{Fix, Format, Overflow, Rounding};

use super::datapaths;
use super::pc_controller;
use super::transceiver::{decoder, program, training_rom_contents, TransceiverConfig, INSTR_BITS};
use super::{acc_fmt, coef_fmt, err_fmt, sample_fmt, sym_fmt, CENTER_TAP, TAPS};

/// The undesigned equalizer as a plain behavioural model: delay line,
/// coefficients, MAC and LMS update — one `fire` per clock cycle,
/// decoding the same instruction fields the datapaths decode.
#[derive(Debug, Clone)]
pub struct HighLevelEqualizer {
    name: String,
    taps: Vec<Fix>,
    delay: Vec<Fix>,
}

impl HighLevelEqualizer {
    /// A fresh equalizer with the cursor initialised at the centre tap.
    pub fn new(name: &str) -> HighLevelEqualizer {
        let one = Fix::from_f64(1.0, coef_fmt(), Rounding::Nearest, Overflow::Saturate);
        let mut taps = vec![Fix::zero(coef_fmt()); TAPS];
        taps[CENTER_TAP] = one;
        HighLevelEqualizer {
            name: name.to_owned(),
            taps,
            delay: vec![Fix::zero(sample_fmt()); TAPS],
        }
    }
}

impl UntimedBlock for HighLevelEqualizer {
    fn name(&self) -> &str {
        &self.name
    }

    fn input_ports(&self) -> Vec<PortDecl> {
        vec![
            PortDecl {
                name: "op".into(),
                ty: SigType::Bits(2),
            },
            PortDecl {
                name: "x_in".into(),
                ty: SigType::Fixed(sample_fmt()),
            },
            PortDecl {
                name: "e_in".into(),
                ty: SigType::Fixed(err_fmt()),
            },
            PortDecl {
                name: "sum_en".into(),
                ty: SigType::Bool,
            },
        ]
    }

    fn output_ports(&self) -> Vec<PortDecl> {
        vec![PortDecl {
            name: "acc".into(),
            ty: SigType::Fixed(acc_fmt()),
        }]
    }

    fn boxed_clone(&self) -> Box<dyn UntimedBlock> {
        Box::new(self.clone())
    }

    fn fire(&mut self, inputs: &[Value], outputs: &mut [Value]) {
        let op = inputs[0].as_bits().expect("op is bits");
        let x_in = inputs[1].as_fixed().expect("x_in is fixed");
        let e_in = inputs[2].as_fixed().expect("e_in is fixed");
        let sum_en = inputs[3].as_bool().expect("sum_en is bool");

        // The state transition of this cycle's instruction (the MAC
        // datapaths commit it at the register-update phase; here it is
        // immediate, which is equivalent because the sum is read in a
        // *later* instruction of the symbol loop).
        match op {
            1 => {
                for i in (1..TAPS).rev() {
                    self.delay[i] = self.delay[i - 1];
                }
                self.delay[0] = x_in;
            }
            2 => {
                for i in 0..TAPS {
                    self.taps[i] = (self.taps[i] + e_in * self.delay[i]).cast(
                        coef_fmt(),
                        Rounding::Nearest,
                        Overflow::Saturate,
                    );
                }
            }
            3 => {
                let one = Fix::from_f64(1.0, coef_fmt(), Rounding::Nearest, Overflow::Saturate);
                for (i, t) in self.taps.iter_mut().enumerate() {
                    *t = if i == CENTER_TAP {
                        one
                    } else {
                        Fix::zero(coef_fmt())
                    };
                }
                for d in &mut self.delay {
                    *d = Fix::zero(sample_fmt());
                }
            }
            _ => {}
        }

        // The output of the (replaced) sum tree, with its cast points.
        outputs[0] = if sum_en {
            let ys: Vec<Fix> = self
                .taps
                .iter()
                .zip(&self.delay)
                .map(|(c, x)| (*c * *x).cast(acc_fmt(), Rounding::Truncate, Overflow::Saturate))
                .collect();
            let mut layer = ys;
            while layer.len() > 1 {
                let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                let mut it = layer.into_iter();
                while let Some(a) = it.next() {
                    match it.next() {
                        Some(b) => next.push(a + b),
                        None => next.push(a),
                    }
                }
                layer = next;
            }
            Value::Fixed(layer[0].cast(acc_fmt(), Rounding::Truncate, Overflow::Saturate))
        } else {
            Value::Fixed(Fix::zero(acc_fmt()))
        };
    }

    fn reset(&mut self) {
        *self = HighLevelEqualizer::new(&self.name);
    }

    /// The taps' mantissas, then the delay line's: `2 * TAPS` words.
    fn snapshot_state(&self) -> Vec<u64> {
        self.taps
            .iter()
            .chain(&self.delay)
            .map(|f| f.mantissa() as u64)
            .collect()
    }

    /// Takes exactly `2 * TAPS` words, each tap a `coef_fmt` mantissa and
    /// each delay-line entry a `sample_fmt` one.
    fn restore_state(&mut self, words: &[u64]) -> bool {
        if words.len() != 2 * TAPS {
            return false;
        }
        let (taps, delay) = words.split_at(TAPS);
        let read = |words: &[u64], fmt: Format| -> Option<Vec<Fix>> {
            let range = fmt.min_mantissa()..=fmt.max_mantissa();
            words
                .iter()
                .map(|w| {
                    range
                        .contains(&(*w as i64))
                        .then(|| Fix::from_raw(*w as i64, fmt))
                })
                .collect()
        };
        match (read(taps, coef_fmt()), read(delay, sample_fmt())) {
            (Some(taps), Some(delay)) => {
                self.taps = taps;
                self.delay = delay;
                true
            }
            _ => false,
        }
    }
}

/// Builds the mixed-refinement transceiver: identical to
/// [`super::transceiver::build_system`] except that the 11 MAC datapaths
/// and the sum tree are one untimed [`HighLevelEqualizer`] block.
///
/// # Errors
///
/// Propagates capture errors.
pub fn build_mixed_system(cfg: &TransceiverConfig) -> Result<System, CoreError> {
    let mut sb = System::build("dect_mixed");

    let pc = sb.add_component("pc_ctrl", pc_controller::build("pc_ctrl")?)?;
    let dec = sb.add_component("decoder", decoder("decoder")?)?;

    let irom_words: Vec<Value> = {
        let mut w: Vec<Value> = program(cfg)
            .iter()
            .map(|i| Value::bits(INSTR_BITS, i.word()))
            .collect();
        w.resize(256, Value::bits(INSTR_BITS, 0));
        w
    };
    let irom = sb.add_block(Box::new(Rom::new(
        "irom",
        SigType::Bits(INSTR_BITS),
        irom_words,
    )))?;
    let trom = sb.add_block(Box::new(Rom::new(
        "train_rom",
        SigType::Fixed(sym_fmt()),
        training_rom_contents(),
    )))?;
    let ram_a = sb.add_block(Box::new(Ram::new(
        "sample_a",
        8,
        SigType::Fixed(sample_fmt()),
    )))?;
    let ram_b = sb.add_block(Box::new(Ram::new(
        "sample_b",
        8,
        SigType::Fixed(sample_fmt()),
    )))?;

    // The high-level (not yet designed) equalizer.
    let eq = sb.add_block(Box::new(HighLevelEqualizer::new("equalizer")))?;

    let front = sb.add_component("dp_in", datapaths::input_frontend("dp_in")?)?;
    let agc = sb.add_component("dp_agc", datapaths::agc("dp_agc")?)?;
    let dco = sb.add_component("dp_dco", datapaths::dc_offset("dp_dco")?)?;
    let slicer = sb.add_component(
        "dp_slice",
        datapaths::slicer("dp_slice", (super::TRAIN_LEN + super::DELAY) as u64)?,
    )?;
    let errs = sb.add_component("dp_err", datapaths::err_scale("dp_err")?)?;
    let corr = sb.add_component("dp_corr", crate::hcor::build_component()?)?;

    sb.input("sample", SigType::Fixed(sample_fmt()))?;
    sb.input("hold_request", SigType::Bool)?;
    sb.connect_input("sample", front, "sample")?;
    sb.connect_input("hold_request", pc, "hold_request")?;

    sb.tie(pc, "loop_start", Value::bits(8, 1))?;
    sb.tie(
        pc,
        "loop_end",
        Value::bits(8, super::transceiver::CYCLES_PER_SYMBOL as u64),
    )?;
    sb.connect(pc, "iaddr", irom, "addr")?;
    sb.connect(irom, "data", dec, "instr")?;

    sb.connect(dec, "in_we", front, "we")?;
    sb.connect(dec, "in_rd", front, "rd")?;
    sb.connect(front, "addr_a", ram_a, "addr")?;
    sb.connect(front, "we_a", ram_a, "we")?;
    sb.connect(front, "wdata", ram_a, "wdata")?;
    sb.connect(front, "addr_b", ram_b, "addr")?;
    sb.connect(front, "we_b", ram_b, "we")?;
    sb.connect(front, "wdata", ram_b, "wdata")?;
    sb.connect(ram_a, "rdata", front, "rdata_a")?;
    sb.connect(ram_b, "rdata", front, "rdata_b")?;
    sb.connect(front, "x_head", agc, "x")?;
    sb.connect(dec, "agc_en", agc, "en")?;
    sb.connect(agc, "y", dco, "x")?;
    sb.connect(dec, "dco_en", dco, "en")?;

    // The refinement boundary: the untimed equalizer sits where the MAC
    // delay line and sum tree sat.
    sb.connect(dec, "eq_op", eq, "op")?;
    sb.connect(dco, "y", eq, "x_in")?;
    sb.connect(errs, "e_scaled", eq, "e_in")?;
    sb.connect(dec, "sum_en", eq, "sum_en")?;
    sb.connect(eq, "acc", slicer, "y")?;

    sb.connect(dec, "slice_en", slicer, "en")?;
    sb.connect(dec, "train", slicer, "train")?;
    sb.connect(dec, "train_step", slicer, "step")?;
    sb.connect(trom, "data", slicer, "train_sym")?;
    sb.connect(slicer, "train_addr", trom, "addr")?;
    sb.connect(slicer, "err", errs, "err")?;

    sb.connect(slicer, "bit", corr, "bit_in")?;
    sb.connect(dec, "corr_en", corr, "enable")?;
    sb.tie(corr, "threshold", Value::bits(5, 15))?;

    sb.output("bit", slicer, "bit")?;
    sb.output("err", slicer, "err")?;
    sb.output("detect", corr, "detect")?;
    sb.output("holding", pc, "holding")?;
    sb.finish()
}
