//! Seeded byte-mutation fuzzing of the snapshot decoder and of restore.
//!
//! Snapshots of HCOR, DECT and the mixed-refinement DECT, taken on the
//! interpreter and on the compiled engine, are mutated with their
//! checksums recomputed, so the damage gets past the checksum. Each
//! mutant is decoded with `SimSnapshot::from_bytes` and restored into
//! the interpreter, `CompiledSim` at `None` and at `Full`, and a batch
//! lane. Every result must be `Ok` or a typed `SnapshotFormat` or
//! `SnapshotMismatch` error, never a panic, and a simulator that took a
//! mutant must then step 8 cycles.

use std::panic::{catch_unwind, AssertUnwindSafe};

use ocapi::rng::XorShift64;
use ocapi::sim::hash::Fnv;
use ocapi::{
    BatchedSim, CompiledSim, CoreError, Fix, InterpSim, OptLevel, Overflow, Rounding, SigType,
    SimSnapshot, Simulator, System, Value,
};
use ocapi_designs::dect::highlevel::build_mixed_system;
use ocapi_designs::dect::transceiver::{build_system, TransceiverConfig};
use ocapi_designs::hcor;

/// Mutants per source snapshot (three designs, two engines each).
const MUTANTS: usize = 40;

/// Steps a simulator that took a mutant must run.
const STEPS: u64 = 8;

/// Words a mutation writes into the body: small values that pass most
/// type checks, and the edges of `u64`.
const WORDS: [u64; 6] = [0, 1, 2, 0xff, u64::MAX >> 1, u64::MAX];

/// `bytes` mutated once or twice, its checksum recomputed. Three in
/// four mutants only overwrite bits, bytes or words in place, so most
/// keep their framing and reach the restore-time checks; the rest also
/// truncate, delete or insert bytes.
fn mutate(bytes: &[u8], rng: &mut XorShift64) -> Vec<u8> {
    let mut body = bytes[..bytes.len() - 8].to_vec();
    let kinds = if rng.chance(0.75) { 3 } else { 6 };
    for _ in 0..=rng.index(2) {
        let at = rng.index(body.len() + 1);
        match rng.index(kinds) {
            0 if at < body.len() => body[at] ^= 1 << rng.index(8),
            1 if at < body.len() => body[at] = rng.next_u64() as u8,
            2 if at + 8 <= body.len() => {
                let word = WORDS[rng.index(WORDS.len())];
                body[at..at + 8].copy_from_slice(&word.to_le_bytes());
            }
            3 => body.truncate(at),
            4 => {
                let end = (at + 1 + rng.index(8)).min(body.len());
                body.drain(at.min(end)..end);
            }
            5 => {
                let n = 1 + rng.index(8);
                body.splice(at..at, (0..n).map(|_| rng.next_u64() as u8));
            }
            _ => {}
        }
    }
    let mut h = Fnv::new();
    h.write(&body);
    body.extend_from_slice(&h.finish().to_le_bytes());
    body
}

/// A random value of one primary input's type.
fn random_input(ty: SigType, rng: &mut XorShift64) -> Value {
    match ty {
        SigType::Bool => Value::Bool(rng.next_bool()),
        SigType::Fixed(fmt) => Value::Fixed(Fix::from_f64(
            rng.next_f64() * 2.0 - 1.0,
            fmt,
            Rounding::Nearest,
            Overflow::Saturate,
        )),
        SigType::Float => Value::Float(rng.next_f64()),
        SigType::Bits(_) => Value::from_raw(ty, rng.next_u64() & 1),
    }
}

/// Runs `sim` for `cycles` cycles of random inputs drawn from `seed`.
fn run(sim: &mut dyn Simulator, sys: &System, seed: u64, cycles: u64) {
    let mut rng = XorShift64::new(seed);
    for _ in 0..cycles {
        for p in &sys.primary_inputs {
            sim.set_input(&p.name, random_input(p.ty, &mut rng))
                .expect("input");
        }
        sim.step().expect("step");
    }
}

/// One engine a mutant is restored into.
trait Target {
    fn take(&mut self, snap: &SimSnapshot) -> Result<(), CoreError>;
    fn sim(&mut self) -> &mut dyn Simulator;
    fn clear(&mut self);
}

impl Target for InterpSim {
    fn take(&mut self, snap: &SimSnapshot) -> Result<(), CoreError> {
        self.restore(snap)
    }
    fn sim(&mut self) -> &mut dyn Simulator {
        self
    }
    fn clear(&mut self) {
        self.reset();
    }
}

impl Target for CompiledSim {
    fn take(&mut self, snap: &SimSnapshot) -> Result<(), CoreError> {
        self.restore(snap)
    }
    fn sim(&mut self) -> &mut dyn Simulator {
        self
    }
    fn clear(&mut self) {
        self.reset();
    }
}

impl Target for BatchedSim {
    fn take(&mut self, snap: &SimSnapshot) -> Result<(), CoreError> {
        self.restore_lane(1, snap)
    }
    fn sim(&mut self) -> &mut dyn Simulator {
        self
    }
    fn clear(&mut self) {
        self.reset();
    }
}

/// What one mutant did on one target.
#[derive(Debug, Default)]
struct Tally {
    undecoded: usize,
    refused: usize,
    restored: usize,
}

/// Decodes `bytes` and restores it into `target`; a restored target
/// steps [`STEPS`] cycles. Returns the outcome, or why it broke the
/// contract.
fn restore(target: &mut dyn Target, bytes: &[u8], tally: &mut Tally) -> Result<(), String> {
    let snap = match SimSnapshot::from_bytes(bytes) {
        Ok(snap) => snap,
        Err(CoreError::SnapshotFormat { .. }) => {
            tally.undecoded += 1;
            return Ok(());
        }
        Err(e) => return Err(format!("decode failed untyped: {e}")),
    };
    match target.take(&snap) {
        Ok(()) => {
            tally.restored += 1;
            for k in 0..STEPS {
                target
                    .sim()
                    .step()
                    .map_err(|e| format!("step {k} after restore: {e}"))?;
            }
            Ok(())
        }
        Err(CoreError::SnapshotFormat { .. } | CoreError::SnapshotMismatch { .. }) => {
            tally.refused += 1;
            target.clear();
            Ok(())
        }
        Err(e) => Err(format!("restore failed untyped: {e}")),
    }
}

#[test]
fn mutated_snapshots_restore_or_fail_typed() {
    type Build = fn() -> System;
    let designs: [(&str, Build); 3] = [
        ("hcor", || hcor::build_system().expect("hcor")),
        ("dect", || {
            build_system(&TransceiverConfig::default()).expect("dect")
        }),
        ("dect_mixed", || {
            build_mixed_system(&TransceiverConfig::default()).expect("mixed")
        }),
    ];
    let mut rng = XorShift64::new(0x5a9_f022);
    let mut tally = Tally::default();
    for (name, mk) in designs {
        let sys = mk();
        let mut interp = InterpSim::new(mk()).expect("interp");
        let mut full = CompiledSim::new_with(mk(), OptLevel::Full).expect("compiled");
        run(&mut interp, &sys, 3, 40);
        run(&mut full, &sys, 4, 40);
        let sources = [
            ("interp", interp.snapshot().to_bytes()),
            ("compiled", full.snapshot().to_bytes()),
        ];
        let mut targets: Vec<(&str, Box<dyn Target>)> = vec![
            ("interp", Box::new(interp)),
            ("compiled None", {
                let sim = CompiledSim::new_with(mk(), OptLevel::None).expect("compiled");
                Box::new(sim)
            }),
            ("compiled Full", Box::new(full)),
            ("batch lane", {
                let sim = BatchedSim::from_fn(2, || Ok(mk()), OptLevel::Full).expect("batch");
                Box::new(sim)
            }),
        ];
        for (source, bytes) in &sources {
            for m in 0..MUTANTS {
                let mutant = mutate(bytes, &mut rng);
                for (target, sim) in &mut targets {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        restore(sim.as_mut(), &mutant, &mut tally)
                    }));
                    let why = match outcome {
                        Ok(Ok(())) => continue,
                        Ok(Err(why)) => why,
                        Err(_) => "panicked".to_owned(),
                    };
                    panic!("{name} {source} snapshot, mutant {m}, into {target}: {why}");
                }
            }
        }
    }
    // Every outcome is exercised, not just one.
    let Tally {
        undecoded,
        refused,
        restored,
    } = tally;
    assert!(
        undecoded >= 20 && refused >= 20 && restored >= 20,
        "{tally:?}"
    );
}
