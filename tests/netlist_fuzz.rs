//! Seeded byte-mutation fuzzing of the structural Verilog reader,
//! `ocapi_synth::parse::verilog_netlist`, over the synthesized HCOR
//! netlist as `emit::verilog_netlist` writes it.
//!
//! Every mutant must parse or fail with `SynthError::Parse`, never
//! panic, and no parse may hold more heap than a small multiple of its
//! input: a port is sized only once the source has the lines to bind
//! it. The two ranges that used to break the reader stay as regression
//! inputs: `[18446744073709551615:0]` overflowed the width, and a
//! 10^15-bit range asked for petabytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use asic_dse::ocapi::rng::XorShift64;
use asic_dse::ocapi_designs::hcor;
use asic_dse::ocapi_synth::{emit, parse, synthesize, SynthError, SynthOptions};

/// Counts live heap bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates to the system allocator; the counters are relaxed
// atomics and never affect an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const MUTANTS: usize = 240;

/// Byte strings a mutation splices in: the netlist's separators and
/// keywords, and port ranges at and beyond what any source can bind.
const TOKENS: [&str; 14] = [
    " ",
    ";",
    "\n",
    "[",
    ":",
    "0",
    "9",
    "assign ",
    "1'b1",
    "18446744073709551615",
    "999999999999999",
    "\n  input [18446744073709551615:0] big;",
    "\n  output [999999999999999:0] big;",
    "\n  input [7:0] wide;",
];

/// Parses `src`, asserting that the parse never held more than 16 bytes
/// of heap per input byte (plus a fixed allowance) at once; the emitted
/// HCOR netlist holds about 9.
fn parse_bounded(src: &str) -> Result<(), SynthError> {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let parsed = parse::verilog_netlist(src).map(drop);
    let held = PEAK.load(Ordering::Relaxed).saturating_sub(base);
    assert!(
        held <= 16 * src.len() + (64 << 10),
        "a parse held {held} bytes for {} bytes of input:\n{src}",
        src.len()
    );
    parsed
}

/// Mutates `doc` with one or two edits.
fn mutate(doc: &[u8], rng: &mut XorShift64) -> Vec<u8> {
    let mut bytes = doc.to_vec();
    for _ in 0..=rng.index(2) {
        let at = rng.index(bytes.len() + 1);
        match rng.index(5) {
            // Overwrite one byte with an arbitrary value.
            0 if at < bytes.len() => bytes[at] = rng.next_u64() as u8,
            // Delete a short run.
            1 => {
                let end = (at + 1 + rng.index(8)).min(bytes.len());
                bytes.drain(at.min(end)..end);
            }
            // Truncate.
            2 => bytes.truncate(at),
            // Splice in a token.
            _ => {
                let token = TOKENS[rng.index(TOKENS.len())].as_bytes();
                bytes.splice(at..at, token.iter().copied());
            }
        }
    }
    bytes
}

#[test]
fn mutated_netlists_parse_or_fail_typed_within_their_size() {
    let sys = hcor::build_system().expect("build");
    let synthesized = synthesize(&sys.timed[0].comp, &SynthOptions::default()).expect("synth");
    let src = emit::verilog_netlist(&synthesized.name, &synthesized.netlist);
    parse_bounded(&src).expect("the emitted netlist parses");

    // The ranges that overflowed and over-allocated, alone and in the
    // emitted netlist in place of its first port range.
    let range = src.find("input [").expect("a bus input") + "input [".len();
    let msb_end = range + src[range..].find(':').expect("a range");
    for msb in ["18446744073709551615", "999999999999999"] {
        let alone = format!("module m (clk, rst, a);\n  input [{msb}:0] a;\nendmodule\n");
        let spliced = format!("{}{msb}{}", &src[..range], &src[msb_end..]);
        for doc in [alone, spliced] {
            match parse_bounded(&doc) {
                Err(SynthError::Parse { message, .. }) => {
                    assert!(message.contains("wider than"), "{message}")
                }
                other => panic!("[{msb}:0] must be refused, got {other:?}"),
            }
        }
    }

    let mut rng = XorShift64::new(0x5e71_f022);
    let (mut ok, mut refused) = (0usize, 0usize);
    for _ in 0..MUTANTS {
        let mutant = mutate(src.as_bytes(), &mut rng);
        let text = String::from_utf8_lossy(&mutant);
        match parse_bounded(&text) {
            Ok(()) => ok += 1,
            Err(SynthError::Parse { .. }) => refused += 1,
            Err(e) => panic!("untyped parse failure {e} from:\n{text}"),
        }
    }
    // Both outcomes are exercised, not just one.
    assert!(ok >= 5 && refused >= 5, "ok {ok}, refused {refused}");
}
