#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

//! Shared infrastructure for the benchmark harnesses that regenerate the
//! paper's evaluation (Table 1 and the figure-level experiments).
//!
//! The binaries:
//!
//! * `table1` — regenerates Table 1: source-code size, simulation speed
//!   and process size for HCOR and the DECT transceiver across the four
//!   simulation paradigms.
//! * `table_gates` — the gate inventory behind the "75 Kgate" claim, plus
//!   the operator-sharing and FSM-encoding ablations.
//! * `exception_latency` — the §3.3 experiment: global-exception latency
//!   under central control vs a data-driven pipeline.
//!
//! The plain timing harnesses in `benches/` (run with `cargo bench`)
//! time the same workloads, reporting the median of repeated runs with
//! no registry dependencies.

use std::alloc::{GlobalAlloc, Layout, System as SysAlloc};
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod ber;
pub mod checkpoint;
pub mod cli;
pub mod error;
pub mod report;

pub use checkpoint::{fingerprint, job_dir, CheckpointStream, Robust};
pub use cli::{parse_arg_list, parse_args, usage, BenchArgs};
pub use error::BenchError;
pub use report::{write_atomic, write_profile, Reporter};

/// A counting allocator for the "process size" column of Table 1: tracks
/// live and peak heap bytes.
pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: delegates to the system allocator; the counters are only
// advisory and use relaxed atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { SysAlloc.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SysAlloc.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

impl CountingAlloc {
    /// Currently live heap bytes.
    pub fn live() -> usize {
        LIVE.load(Ordering::Relaxed)
    }

    /// Peak heap bytes since start (or the last reset).
    pub fn peak() -> usize {
        PEAK.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live count.
    pub fn reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Formats a byte count as MB with two decimals.
pub fn mb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Times a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = ocapi_obs::Stopwatch::start();
    let r = f();
    (r, sw.elapsed_secs())
}

/// A sequencer whose wait loop was hand-unrolled into `waits` identical
/// states — the redundancy that FSM state minimisation removes. Shared
/// by the `table_gates` ablation and the synthesis benches.
///
/// # Errors
///
/// Propagates capture errors from the DSL (none for valid `waits >= 1`).
pub fn padded_sequencer(waits: usize) -> Result<ocapi::Component, ocapi::CoreError> {
    use ocapi::{Component, SigType};
    let c = Component::build("seq");
    let ready = c.input("ready", SigType::Bool)?;
    let o = c.output("o", SigType::Bits(8))?;
    let r = c.reg("r", SigType::Bits(8))?;
    let work = c.sfg("work")?;
    let q = c.q(r);
    work.drive(o, &q)?;
    work.next(r, &(q + c.const_bits(8, 3)))?;
    let hold = c.sfg("hold")?;
    hold.drive(o, &c.q(r))?;
    let g = c.read(ready);
    let f = c.fsm()?;
    let s0 = f.initial("fetch")?;
    let ws: Vec<_> = (0..waits)
        .map(|k| f.state(&format!("wait{k}")))
        .collect::<Result<_, _>>()?;
    f.from(s0).always().run(work.id()).to(ws[0])?;
    for (k, w) in ws.iter().enumerate() {
        f.from(*w).when(&g).run(work.id()).to(s0)?;
        f.from(*w)
            .always()
            .run(hold.id())
            .to(ws[(k + 1) % ws.len()])?;
    }
    c.finish()
}
