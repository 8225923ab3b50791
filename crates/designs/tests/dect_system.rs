//! System tests of the full DECT transceiver: the cycle-true machine
//! against the bit-exact software reference, sync detection, LMS
//! convergence, the Figure 2 hold mechanism and cross-simulator equality.

use ocapi::sim::hash::Fnv;
use ocapi::{CompiledSim, CoreError, InterpSim, SimSnapshot, Simulator, Value};
use ocapi_designs::dect::burst::{generate, BurstConfig};
use ocapi_designs::dect::highlevel::build_mixed_system;
use ocapi_designs::dect::reference::Reference;
use ocapi_designs::dect::transceiver::{
    build_system, run_burst, TransceiverConfig, CYCLES_PER_SYMBOL,
};
use ocapi_designs::dect::{DELAY, TAPS, TRAIN_LEN};

fn default_burst() -> BurstConfig {
    BurstConfig {
        payload_len: 96,
        channel: vec![1.0, 0.4],
        noise: 0.02,
        seed: 11,
    }
}

#[test]
fn transceiver_matches_reference_bit_exactly() {
    let cfg = TransceiverConfig::default();
    let burst = generate(&default_burst());

    let mut sim = InterpSim::new(build_system(&cfg).unwrap()).unwrap();
    let hw = run_burst(&mut sim, &burst, None).unwrap();

    let mut r = Reference::new(cfg.train);
    let sw = r.run(&burst.samples);

    assert_eq!(hw.len(), sw.len());
    for (k, (h, s)) in hw.iter().zip(&sw).enumerate() {
        assert_eq!(h.bit, s.bit, "decision diverged at symbol {k}");
        assert_eq!(h.err, s.err.to_f64(), "error diverged at symbol {k}");
    }
}

#[test]
fn equalizer_converges_and_decodes_payload() {
    let cfg = TransceiverConfig::default();
    let burst = generate(&default_burst());
    let mut sim = InterpSim::new(build_system(&cfg).unwrap()).unwrap();
    let records = run_burst(&mut sim, &burst, None).unwrap();

    // Training error shrinks: compare early vs late training symbols.
    let early: f64 = records[DELAY..DELAY + 8]
        .iter()
        .map(|r| r.err.abs())
        .sum::<f64>()
        / 8.0;
    let late: f64 = records[TRAIN_LEN..TRAIN_LEN + 8]
        .iter()
        .map(|r| r.err.abs())
        .sum::<f64>()
        / 8.0;
    assert!(
        late < early,
        "LMS error should shrink: early {early}, late {late}"
    );

    // Payload decisions match the transmitted bits (delayed by the
    // pipeline).
    let mut errors = 0;
    let mut checked = 0;
    for (k, rec) in records.iter().enumerate().skip(burst.payload_start + DELAY) {
        let tx = burst.bits[k - DELAY];
        checked += 1;
        if tx != rec.bit {
            errors += 1;
        }
    }
    assert!(checked > 60);
    assert_eq!(errors, 0, "bit errors in payload: {errors}/{checked}");
}

#[test]
fn sync_word_is_detected_during_burst() {
    let cfg = TransceiverConfig::default();
    let burst = generate(&default_burst());
    let mut sim = InterpSim::new(build_system(&cfg).unwrap()).unwrap();
    let records = run_burst(&mut sim, &burst, None).unwrap();
    let first_detect = records.iter().position(|r| r.detect);
    // The sync word ends at symbol 31; add pipeline delay and the
    // correlator's registered lock.
    let hit = first_detect.expect("sync must be detected");
    assert!(
        (30 + DELAY..40 + DELAY).contains(&hit),
        "detect at symbol {hit}"
    );
    // Detection latency is far inside the 29-symbol DECT budget counted
    // from the last sync bit (symbol 31).
    assert!(hit - 31 <= 29, "latency {} symbols", hit - 31);
}

#[test]
fn hold_request_freezes_and_resumes_without_corruption() {
    let cfg = TransceiverConfig::default();
    let burst = generate(&default_burst());

    let mut clean = InterpSim::new(build_system(&cfg).unwrap()).unwrap();
    let clean_records = run_burst(&mut clean, &burst, None).unwrap();

    // Hold for 13 cycles in the middle of the burst (mid-instruction in
    // the symbol loop).
    let mut held = InterpSim::new(build_system(&cfg).unwrap()).unwrap();
    let held_records = run_burst(&mut held, &burst, Some((201, 13))).unwrap();

    assert_eq!(
        clean_records, held_records,
        "a hold must delay, not corrupt, the processing"
    );
}

#[test]
fn compiled_simulator_agrees_with_interpreter() {
    let cfg = TransceiverConfig::default();
    let mut small = default_burst();
    small.payload_len = 32;
    let burst = generate(&small);

    let mut interp = InterpSim::new(build_system(&cfg).unwrap()).unwrap();
    let a = run_burst(&mut interp, &burst, None).unwrap();
    let mut compiled = CompiledSim::new(build_system(&cfg).unwrap()).unwrap();
    let b = run_burst(&mut compiled, &burst, None).unwrap();
    assert_eq!(a, b);
}

#[test]
fn status_word_reports_activity() {
    let cfg = TransceiverConfig::default();
    let burst = generate(&default_burst());
    let mut sim = InterpSim::new(build_system(&cfg).unwrap()).unwrap();
    run_burst(&mut sim, &burst, None).unwrap();
    let status = sim.output("status").unwrap().as_bits().unwrap();
    // Bit 7: sync detected.
    assert_eq!(status >> 7, 1, "status = {status:08b}");
}

#[test]
fn dr_interface_produces_bytes() {
    let cfg = TransceiverConfig::default();
    let burst = generate(&default_burst());
    let mut sim = InterpSim::new(build_system(&cfg).unwrap()).unwrap();
    // Count dr_valid pulses cycle by cycle.
    sim.set_input("hold_request", Value::Bool(false)).unwrap();
    let mut valids = 0;
    for s in &burst.samples {
        sim.set_input("sample", Value::Fixed(*s)).unwrap();
        for _ in 0..4 {
            sim.step().unwrap();
            if sim.output("dr_valid").unwrap() == Value::Bool(true) {
                valids += 1;
            }
        }
    }
    // One byte per 8 symbols.
    assert_eq!(valids as usize, burst.samples.len() / 8);
}

#[test]
fn dirty_channel_needs_the_equalizer() {
    // With training disabled (no adaptation towards the reference), the
    // hard channel produces bit errors; with it, none.
    let hard = BurstConfig {
        payload_len: 96,
        channel: vec![1.0, 0.55],
        noise: 0.01,
        seed: 3,
    };
    let burst = generate(&hard);

    let count_errors = |train: bool| {
        let cfg = TransceiverConfig {
            train,
            agc: false,
            adapt: true,
        };
        let mut sim = InterpSim::new(build_system(&cfg).unwrap()).unwrap();
        let records = run_burst(&mut sim, &burst, None).unwrap();
        let mut errors = 0;
        for (k, rec) in records.iter().enumerate().skip(burst.payload_start + DELAY) {
            if burst.bits[k - DELAY] != rec.bit {
                errors += 1;
            }
        }
        errors
    };
    let trained = count_errors(true);
    assert_eq!(trained, 0, "trained equalizer must decode cleanly");
}

#[test]
fn mixed_refinement_matches_cycle_true() {
    // The paper's §1 headline: a high-level (untimed) equalizer model
    // replaces the 11 MAC datapaths + sum tree, and the mixed system
    // stays bit-exact with the fully refined cycle-true machine.
    let cfg = TransceiverConfig::default();
    let burst = generate(&default_burst());

    let mut refined = InterpSim::new(build_system(&cfg).unwrap()).unwrap();
    let a = run_burst(&mut refined, &burst, None).unwrap();
    let mut mixed = InterpSim::new(build_mixed_system(&cfg).unwrap()).unwrap();
    let b = run_burst(&mut mixed, &burst, None).unwrap();
    assert_eq!(a, b, "refinement must preserve behaviour bit-exactly");

    // The compiled back-end handles the mixed description too
    // ("maintaining an executable system specification at all times").
    let mut mixed_compiled = CompiledSim::new(build_mixed_system(&cfg).unwrap()).unwrap();
    let c = run_burst(&mut mixed_compiled, &burst, None).unwrap();
    assert_eq!(a, c);
}

#[test]
fn mixed_refinement_survives_hold() {
    let cfg = TransceiverConfig::default();
    let burst = generate(&default_burst());
    let mut refined = InterpSim::new(build_system(&cfg).unwrap()).unwrap();
    let a = run_burst(&mut refined, &burst, Some((101, 7))).unwrap();
    let mut mixed = InterpSim::new(build_mixed_system(&cfg).unwrap()).unwrap();
    let b = run_burst(&mut mixed, &burst, Some((101, 7))).unwrap();
    assert_eq!(a, b);
}

/// `snap` with section `name` holding `words`, re-framed with a fresh
/// checksum so only the restore-time checks can catch the damage.
fn with_section(snap: &SimSnapshot, name: &str, words: &[u64]) -> SimSnapshot {
    let bytes = snap.to_bytes();
    let body = &bytes[..bytes.len() - 8];
    let u32_at = |p: usize| u32::from_le_bytes([body[p], body[p + 1], body[p + 2], body[p + 3]]);
    // magic, version, design hash, cycle, sections
    let mut out = body[..26].to_vec();
    let mut pos = 26;
    for _ in 0..u32_at(22) {
        let head = 2 + usize::from(u16::from_le_bytes([body[pos], body[pos + 1]]));
        let end = pos + head + 4 + 8 * u32_at(pos + head) as usize;
        if &body[pos + 2..pos + head] == name.as_bytes() {
            out.extend_from_slice(&body[pos..pos + head]);
            out.extend_from_slice(&(words.len() as u32).to_le_bytes());
            out.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        } else {
            out.extend_from_slice(&body[pos..end]);
        }
        pos = end;
    }
    let mut h = Fnv::new();
    h.write(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    SimSnapshot::from_bytes(&out).expect("re-framed snapshot")
}

/// Parks a run of the mixed-refinement system at cycle 128 with
/// `snapshot`, restores it into a fresh simulator with `restore` and
/// continues to cycle 256: every output of every later cycle equals the
/// uninterrupted run's, because the snapshot carries the equalizer's
/// taps and delay line. A truncated equalizer section is refused.
fn mixed_run_resumes<S: Simulator>(
    new: impl Fn() -> S,
    snapshot: impl Fn(&S) -> SimSnapshot,
    restore: impl Fn(&mut S, &SimSnapshot) -> Result<(), CoreError>,
) {
    const CYCLES: usize = 256;
    const PARK: usize = 128;
    let burst = generate(&BurstConfig {
        payload_len: 32,
        channel: vec![1.0, 0.4],
        noise: 0.02,
        seed: 7,
    });
    let sys = build_mixed_system(&TransceiverConfig::default()).unwrap();
    let outputs: Vec<String> = sys.primary_outputs.iter().map(|p| p.name.clone()).collect();
    let eq = sys
        .untimed
        .iter()
        .position(|u| u.block.name() == "equalizer")
        .unwrap();
    let section = format!("untimed.{eq}");
    let drive = |sim: &mut S, cycles: std::ops::Range<usize>| -> Vec<Vec<Value>> {
        cycles
            .map(|c| {
                let x = burst.samples[(c / CYCLES_PER_SYMBOL) % burst.samples.len()];
                sim.set_input("sample", Value::Fixed(x)).unwrap();
                sim.set_input("hold_request", Value::Bool(false)).unwrap();
                sim.step().unwrap();
                outputs.iter().map(|o| sim.output(o).unwrap()).collect()
            })
            .collect()
    };

    let want = drive(&mut new(), 0..CYCLES);
    let mut first = new();
    drive(&mut first, 0..PARK);
    let snap = snapshot(&first);
    assert_eq!(snap.section(&section).map(<[u64]>::len), Some(2 * TAPS));
    let mut resumed = new();
    restore(&mut resumed, &snap).unwrap();
    for (k, got) in drive(&mut resumed, PARK..CYCLES).iter().enumerate() {
        let c = PARK + k;
        for ((name, g), w) in outputs.iter().zip(got).zip(&want[c]) {
            assert_eq!(g, w, "output `{name}` at cycle {}", c + 1);
        }
    }

    let words = snap.section(&section).unwrap();
    let truncated = with_section(&snap, &section, &words[..words.len() - 1]);
    match restore(&mut new(), &truncated) {
        Err(CoreError::SnapshotFormat { reason }) => assert_eq!(
            reason,
            "untimed block `equalizer` rejected its state section"
        ),
        other => panic!("expected SnapshotFormat, got {other:?}"),
    }
}

#[test]
fn mixed_refinement_resumes_from_a_snapshot() {
    let sys = || build_mixed_system(&TransceiverConfig::default()).unwrap();
    mixed_run_resumes(
        || InterpSim::new(sys()).unwrap(),
        InterpSim::snapshot,
        InterpSim::restore,
    );
    mixed_run_resumes(
        || CompiledSim::new(sys()).unwrap(),
        CompiledSim::snapshot,
        CompiledSim::restore,
    );
}
