//! Seeded byte-mutation fuzzing of the frame reader,
//! `proto::read_frame`, over a stream of valid request frames, and of
//! `Json::parse` over every frame it returns.
//!
//! Every mutant stream must read to its end or to a typed
//! `ServeError::Protocol`, never panic, and no allocation may exceed
//! 64 KiB: a length prefix beyond `MAX_FRAME` is refused before it
//! sizes a buffer, and one within it reserves at most 64 KiB before its
//! payload arrives, while every mutant stream is under 1 KiB.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ocapi::rng::XorShift64;
use ocapi_serve::proto::{read_frame, write_frame, MAX_FRAME};
use ocapi_serve::{Json, ServeError};

/// Records the largest single allocation.
struct Largest;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates to the system allocator; the counter is a relaxed
// atomic and never affects an allocation.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

const MUTANTS: usize = 400;

/// The largest allocation a mutant may cause: `read_frame`'s up-front
/// reservation. Mutant streams are far shorter, so any payload buffer
/// sized by its declared length rather than its bytes shows up here.
const LARGEST_ALLOWED: usize = 64 * 1024;

/// Byte strings a mutation splices in: length prefixes at, just above
/// and far beyond `MAX_FRAME` and at zero, a broken UTF-8 sequence, and
/// JSON tokens at the edge of what the parser accepts.
const TOKENS: [&[u8]; 11] = [
    &[0xff, 0xff, 0xff, 0xff],
    &[0x01, 0x00, 0x00, 0x00],
    &[0x01, 0x00, 0x00, 0x01],
    &[0x00, 0x00, 0x00, 0x00],
    &[0x00, 0x00, 0x00],
    &[0xc3, 0x28],
    b"18446744073709551615",
    b"1e400",
    b"\"",
    b"{",
    b"[",
];

/// Mutates `doc` with one to three edits.
fn mutate(doc: &[u8], rng: &mut XorShift64) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    for _ in 0..=rng.index(3) {
        let at = rng.index(bytes.len() + 1);
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
            // Splice in a token.
            _ => {
                let token = TOKENS[rng.index(TOKENS.len())];
                bytes.splice(at..at, token.iter().copied());
            }
        }
    }
    bytes
}

/// Reads every frame of `stream`, parsing each as the daemon does: the
/// number of frames read, and how the stream ended.
fn read_all(mut stream: &[u8]) -> (usize, Result<(), ServeError>) {
    let mut frames = 0;
    loop {
        match read_frame(&mut stream) {
            Ok(Some(text)) => {
                frames += 1;
                // `Ok` or a typed `ParseError`; `json_fuzz.rs` fuzzes it.
                let _ = Json::parse(&text);
            }
            Ok(None) => return (frames, Ok(())),
            Err(e) => return (frames, Err(e)),
        }
    }
}

#[test]
fn mutated_frame_streams_read_or_fail_typed_within_max_frame() {
    let mut stream = Vec::new();
    for request in [
        r#"{"op":"ping","id":"p"}"#,
        r#"{"op":"ber","id":"b","design":"dect","noise":[0.05,0.2],"bursts":2}"#,
        r#"{"op":"campaign","id":"c","design":"hcor","cycles":64,"events":12}"#,
        r#"{"op":"session.run","id":"r","session":"s","cycles":16}"#,
    ] {
        write_frame(&mut stream, request).expect("write");
    }
    assert_eq!(read_all(&stream).0, 4);

    let mut rng = XorShift64::new(0xf4a3_e5ed);
    let (mut clean, mut refused) = (0usize, 0usize);
    LARGEST.store(0, Ordering::Relaxed);
    for _ in 0..MUTANTS {
        let mutant = mutate(&stream, &mut rng);
        assert!(mutant.len() < 1024, "a mutant of {} bytes", mutant.len());
        match read_all(&mutant).1 {
            Ok(()) => clean += 1,
            Err(ServeError::Protocol(_)) => refused += 1,
            Err(e) => panic!("untyped frame failure {e} from {mutant:?}"),
        }
    }
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= LARGEST_ALLOWED,
        "an allocation of {largest} bytes (MAX_FRAME is {MAX_FRAME})"
    );
    // Both outcomes are exercised, not just one.
    assert!(
        clean >= 10 && refused >= 10,
        "clean {clean}, refused {refused}"
    );
}
