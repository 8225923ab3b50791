#![warn(missing_docs)]

//! Deterministic observability for the ASIC design environment:
//! counters, hierarchical wall-clock spans, a bounded event log, and a
//! profile JSON export — shared by both simulation back-ends, the
//! sharded worker pool, the gate-level kernel and the synthesis
//! pipeline.
//!
//! The paper's central evaluation claim is *performance* (the compiled
//! simulator is "far faster" than the interpreted one, §4/Table 1), so
//! the repo needs a first-class instrumentation substrate rather than
//! ad-hoc `Instant::now()` calls scattered over bench binaries. This
//! crate is that substrate, built on the standard library only (the
//! workspace builds fully offline), and designed around one contract:
//!
//! > **Counts are deterministic; durations are advisory.** Counter
//! > values, span-tree *structure* and span *hit counts* are pure
//! > functions of the workload — bit-identical for every `--threads N`
//! > and byte-identical in the exported JSON. Wall-clock durations
//! > and event *ordering* are measurements of a
//! > particular run and live in a separate `timing` section that
//! > consumers (the CI determinism job) strip before diffing.
//!
//! The pieces:
//!
//! * [`Registry`] — a global-free handle (cheaply cloneable `Arc`)
//!   owning named [`Counter`]s, root [`Span`]s and the [`EventLog`].
//!   Nothing in this crate touches process globals: two registries
//!   never share state, and code that is handed no registry pays
//!   nothing.
//! * [`Counter`] — a relaxed `AtomicU64` handle. Increments commute, so
//!   totals are identical however work is sharded across threads.
//! * [`Span`] / [`ScopedTimer`] — a hierarchical profiler. Each span is
//!   a call-tree node with a hit count and inclusive min/max/total
//!   wall time; exclusive time is derived at export. Structure and
//!   counts are deterministic even though the durations are not.
//! * [`EventLog`] — a bounded cycle-stamped ring buffer for
//!   schedule/deadlock/fault forensics. Overflow drops the *oldest*
//!   entry and bumps a drop counter, so the log always holds the most
//!   recent history and never grows without bound.
//! * [`Stopwatch`] — one wall-clock timer, so the bench and serve
//!   crates stop re-rolling their own `Instant` plumbing.
//! * [`json`] — the workspace's one JSON value ([`json::Json`]): its
//!   parser, its compact and indented printers, and the profile export
//!   with the deterministic/timing split described above.

mod counter;
mod event;
pub mod json;
mod pool;
mod span;

pub use counter::Counter;
pub use event::{Event, EventLog};
pub use pool::Stopwatch;
pub use span::{ScopedTimer, Span};

use std::sync::{Arc, Mutex};

/// The default [`EventLog`] capacity of a registry.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

struct RegistryInner {
    counters: Mutex<Vec<Counter>>,
    advisory: Mutex<Vec<Counter>>,
    roots: Mutex<Vec<Span>>,
    events: EventLog,
}

/// The global-free root of one observability domain.
///
/// A `Registry` is created by whoever owns a run (a bench binary, a
/// test) and passed *by handle* — `clone()` is an `Arc` bump — to every
/// subsystem that wants to report: simulators, the worker pool, the
/// gate kernel, synthesis. Counters and spans are get-or-create by
/// name, so two subsystems naming the same counter share it and their
/// contributions sum.
///
/// # Example
///
/// ```
/// use ocapi_obs::Registry;
///
/// let reg = Registry::new();
/// let cycles = reg.counter("interp.cycles");
/// cycles.add(3);
/// let step = reg.span("interp").child("evaluate");
/// {
///     let _t = step.timer(); // records on drop
/// }
/// assert_eq!(cycles.get(), 3);
/// assert_eq!(step.count(), 1);
/// assert!(reg.deterministic_json().contains("\"interp.cycles\": 3"));
/// ```
#[derive(Clone)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &self.counters().len())
            .field("spans", &self.roots().len())
            .field("events", &self.events().recorded())
            .finish()
    }
}

impl Registry {
    /// An empty registry with the default event-log capacity.
    pub fn new() -> Registry {
        Registry::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// An empty registry whose event log keeps at most `capacity`
    /// entries (older entries are dropped first, counted).
    pub fn with_event_capacity(capacity: usize) -> Registry {
        Registry {
            inner: Arc::new(RegistryInner {
                counters: Mutex::new(Vec::new()),
                advisory: Mutex::new(Vec::new()),
                roots: Mutex::new(Vec::new()),
                events: EventLog::new(capacity),
            }),
        }
    }

    /// The counter named `name`, creating it (at zero) on first use.
    /// The returned handle is cheap to clone and safe to bump from any
    /// thread.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(c) = counters.iter().find(|c| c.name() == name) {
            return c.clone();
        }
        let c = Counter::new(name);
        counters.push(c.clone());
        c
    }

    /// An *advisory* counter: same handle semantics as
    /// [`Registry::counter`], but the value is understood to depend on
    /// scheduling (steal counts, retry tallies) and therefore exports
    /// under the `timing` section instead of the deterministic one.
    pub fn advisory_counter(&self, name: &str) -> Counter {
        let mut advisory = self
            .inner
            .advisory
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(c) = advisory.iter().find(|c| c.name() == name) {
            return c.clone();
        }
        let c = Counter::new(name);
        advisory.push(c.clone());
        c
    }

    /// The root span labelled `label`, creating it on first use. Child
    /// spans come from [`Span::child`].
    pub fn span(&self, label: &str) -> Span {
        let mut roots = self.inner.roots.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(s) = roots.iter().find(|s| s.label() == label) {
            return s.clone();
        }
        let s = Span::new(label);
        roots.push(s.clone());
        s
    }

    /// The registry's event log (one shared ring buffer; the `kind`
    /// field namespaces producers).
    pub fn events(&self) -> &EventLog {
        &self.inner.events
    }

    /// Snapshot of all counters, sorted by name (the export order, so
    /// it is independent of creation interleaving).
    pub fn counters(&self) -> Vec<Counter> {
        let mut v = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        v.sort_by(|a, b| a.name().cmp(b.name()));
        v
    }

    /// Snapshot of all advisory counters, sorted by name.
    pub fn advisory_counters(&self) -> Vec<Counter> {
        let mut v = self
            .inner
            .advisory
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        v.sort_by(|a, b| a.name().cmp(b.name()));
        v
    }

    /// Snapshot of the root spans, sorted by label.
    pub fn roots(&self) -> Vec<Span> {
        let mut v = self
            .inner
            .roots
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        v.sort_by(|a, b| a.label().cmp(b.label()));
        v
    }

    /// The deterministic section of the profile: counters, span
    /// structure + hit counts, event totals. Byte-identical for every
    /// thread count of the same workload.
    pub fn deterministic_json(&self) -> String {
        format!("{:#}", json::deterministic(self))
    }

    /// The timing section: span durations (inclusive and exclusive),
    /// and the event entries themselves. Advisory — different on every
    /// run.
    pub fn timing_json(&self) -> String {
        format!("{:#}", json::timing(self))
    }

    /// The full profile document for `bin`, with the deterministic and
    /// timing sections cleanly separated (CI strips `timing` before
    /// byte-diffing across thread counts).
    pub fn profile_json(&self, bin: &str) -> String {
        format!("{:#}\n", json::profile(self, bin))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_get_or_create() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.incr();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert_eq!(reg.counters().len(), 1);
    }

    #[test]
    fn spans_are_get_or_create_per_level() {
        let reg = Registry::new();
        let r1 = reg.span("root");
        let r2 = reg.span("root");
        let c1 = r1.child("leaf");
        let c2 = r2.child("leaf");
        c1.record_secs(0.5);
        c2.record_secs(0.25);
        assert_eq!(reg.roots().len(), 1);
        assert_eq!(reg.span("root").child("leaf").count(), 2);
    }

    #[test]
    fn counters_sum_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("sum");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn export_order_is_name_sorted_not_creation_sorted() {
        let reg = Registry::new();
        reg.counter("zeta").incr();
        reg.counter("alpha").incr();
        let j = reg.deterministic_json();
        let za = j.find("zeta").expect("zeta");
        let al = j.find("alpha").expect("alpha");
        assert!(al < za, "alphabetical export order");
    }
}
