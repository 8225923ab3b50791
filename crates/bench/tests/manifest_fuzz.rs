//! Seeded byte-mutation fuzzing of checkpoint manifests, as a resumed
//! BER measurement reads them.
//!
//! The manifest is the one a real `measure_batched` run writes. Every
//! mutant's checksum line is recomputed, so the damage reaches the line
//! parser behind the checksum. Every mutant is written back in its
//! place and the same measurement is resumed from it: the resume must
//! return `Ok` or a typed error, never panic. Every `Ok` must keep the
//! two invariants a damaged manifest used to break: a BER of at most 1
//! (no more errors than bits), and every burst either resumed or run,
//! once — no line beyond the stream counted as resumed.

use ocapi::rng::XorShift64;
use ocapi::sim::hash::Fnv;
use ocapi::{CompiledTape, OptLevel, ParConfig};
use ocapi_bench::ber::measure_batched;
use ocapi_bench::{BenchError, Robust};
use ocapi_designs::dect::transceiver::{build_system, TransceiverConfig};
use ocapi_obs::Registry;

const MUTANTS: usize = 160;
const BURSTS: u64 = 3;
const CHANNEL: [f64; 2] = [1.0, 0.5];

/// Byte strings a mutation splices in: the manifest's separators, item
/// lines in and beyond the stream, one with more errors than bits, and
/// counts at the edge of `u64`.
const TOKENS: [&str; 11] = [
    " ",
    ",",
    "\n",
    "0",
    "2",
    "9",
    "\n1 1,12",
    "\n2 99,3",
    "\n7 0,16",
    "18446744073709551615",
    "18446744073709551616",
];

/// `body` (a manifest up to its checksum line), ended by a newline and
/// a checksum line that matches it.
fn checksummed(mut body: Vec<u8>) -> Vec<u8> {
    if !body.ends_with(b"\n") {
        body.push(b'\n');
    }
    let mut h = Fnv::new();
    h.write(&body);
    body.extend_from_slice(format!("checksum {:016x}\n", h.finish()).as_bytes());
    body
}

/// Mutates `doc` at or after byte `from`.
fn mutate(doc: &[u8], from: usize, rng: &mut XorShift64) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    for _ in 0..=rng.index(2) {
        let from = from.min(bytes.len());
        let at = from + rng.index(bytes.len() - from + 1);
        match rng.index(5) {
            // Overwrite one byte with an arbitrary value.
            0 if at < bytes.len() => bytes[at] = rng.next_u64() as u8,
            // Delete a short run.
            1 => {
                let end = (at + 1 + rng.index(4)).min(bytes.len());
                bytes.drain(at.min(end)..end);
            }
            // Truncate.
            2 => bytes.truncate(at),
            // Splice in a token; one that starts a line goes at the end
            // of a line.
            _ => {
                let token = TOKENS[rng.index(TOKENS.len())].as_bytes();
                let at = match token[0] {
                    b'\n' => {
                        at + bytes[at..]
                            .iter()
                            .position(|b| *b == b'\n')
                            .unwrap_or(bytes.len() - at)
                    }
                    _ => at,
                };
                bytes.splice(at..at, token.iter().copied());
            }
        }
    }
    bytes
}

#[test]
fn mutated_manifests_resume_or_fail_typed() {
    let dir = std::env::temp_dir().join(format!("ocapi-manifest-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_string_lossy().into_owned();
    let cfg = TransceiverConfig::default();
    let tape = CompiledTape::compile(&build_system(&cfg).expect("build"), OptLevel::Full)
        .expect("compile");
    let pool = ParConfig::single();
    let measure = |resume: bool, obs: Option<&Registry>| {
        let rb = Robust {
            dir: Some(&dir),
            every: 1,
            resume,
            obs,
            ..Robust::plain(&pool)
        };
        measure_batched(
            &rb,
            "fuzz",
            &CHANNEL,
            0.3,
            cfg.adapt,
            BURSTS,
            16,
            BURSTS as usize,
            OptLevel::Full,
            Some(&tape),
        )
    };
    let reference = measure(false, None).expect("reference run");
    let mut paths = std::fs::read_dir(&dir).expect("checkpoint dir");
    let path = paths.next().expect("one manifest").expect("entry").path();
    assert!(paths.next().is_none(), "one stream, one manifest");
    let manifest = std::fs::read(&path).expect("manifest");
    let text = String::from_utf8_lossy(&manifest);
    let manifest = manifest[..text.rfind("checksum ").expect("checksum line")].to_vec();
    assert_eq!(
        checksummed(manifest.clone()),
        std::fs::read(&path).expect("manifest")
    );
    // The item lines follow three header lines (magic, stream and
    // fingerprint), where any change is a refusal.
    let items = (0..3).fold(0, |at, _| {
        at + 1
            + manifest[at..]
                .iter()
                .position(|b| *b == b'\n')
                .expect("header line")
    });
    // The untouched manifest resumes every burst to the same totals.
    let obs = Registry::new();
    assert_eq!(measure(true, Some(&obs)).expect("resume"), reference);
    assert_eq!(obs.counter("robust.items_resumed").get(), BURSTS);

    let mut rng = XorShift64::new(0x3a11_fe57);
    let (mut ok, mut refused) = (0usize, 0usize);
    for _ in 0..MUTANTS {
        // Most mutants damage only the item lines.
        let from = if rng.chance(0.75) { items } else { 0 };
        let mutant = checksummed(mutate(&manifest, from, &mut rng));
        std::fs::write(&path, &mutant).expect("write mutant");
        let obs = Registry::new();
        let text = String::from_utf8_lossy(&mutant);
        match measure(true, Some(&obs)) {
            Ok(c) => {
                assert!(c.errors <= c.bits, "BER above 1 ({c:?}) from:\n{text}");
                // A chunk's batch counts its lanes: the bursts it ran.
                let resumed = obs.counter("robust.items_resumed").get();
                let ran = obs.counter("batch.lanes").get();
                assert_eq!(
                    resumed + ran,
                    BURSTS,
                    "{resumed} bursts resumed and {ran} run from:\n{text}"
                );
                ok += 1;
            }
            Err(BenchError::Checkpoint(_) | BenchError::Io(_)) => refused += 1,
            Err(e) => panic!("untyped resume failure {e} from:\n{text}"),
        }
    }
    // Both outcomes are exercised, not just one.
    assert!(ok >= 10 && refused >= 10, "ok {ok}, refused {refused}");
    let _ = std::fs::remove_dir_all(&dir);
}
