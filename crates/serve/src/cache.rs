//! The design-hash-keyed compiled-tape cache — the reason the daemon
//! exists.
//!
//! Compiling a design (levelize, optimize, hash) costs orders of
//! magnitude more than instantiating a simulator from an existing
//! [`CompiledTape`], and a service sees the same handful of designs
//! over and over. The cache keys each tape on
//! `(`[`ocapi::hash_system`]`, `[`OptLevel`]`)` — the stable structural
//! hash promoted to public API for exactly this purpose. Every job runs
//! the compiled tape, whichever engine name a session asked for, so one
//! entry serves them all. Least-recently-used entries beyond a fixed
//! capacity are evicted.
//!
//! Telemetry lands in the server's advisory [`Registry`] as
//! `serve.cache.hits` / `serve.cache.misses` / `serve.cache.evictions`.
//! The counters are *advisory*: they depend on request interleaving
//! across connections, so they appear in `stats`/`perf` frames, never
//! in deterministic results.

use std::sync::Mutex;

use ocapi::{hash_system, CompiledTape, CoreError, OptLevel, System};
use ocapi_obs::Registry;

/// One cache slot, ordered by recency via `stamp`.
struct Entry {
    key: (u64, OptLevel),
    tape: CompiledTape,
    stamp: u64,
}

struct Inner {
    entries: Vec<Entry>,
    clock: u64,
}

/// A thread-safe LRU cache of compiled tapes.
pub struct TapeCache {
    inner: Mutex<Inner>,
    capacity: usize,
    obs: Registry,
}

impl std::fmt::Debug for TapeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TapeCache")
            .field("capacity", &self.capacity)
            .field("entries", &self.len())
            .finish()
    }
}

impl TapeCache {
    /// An empty cache holding at most `capacity` tapes (minimum 1),
    /// reporting into `obs`.
    pub fn new(capacity: usize, obs: Registry) -> TapeCache {
        TapeCache {
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
            obs,
        }
    }

    /// Number of cached tapes.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tape for `sys` at `level`: a clone of the cached tape on a
    /// hit (cheap — the program is reference-counted), a fresh
    /// compilation inserted into the cache on a miss. The system itself
    /// is not retained; callers keep it to instantiate simulators.
    ///
    /// # Errors
    ///
    /// Propagates [`CoreError::NotCompilable`] from a miss's
    /// compilation; the failed key is not cached.
    pub fn get(&self, sys: &System, level: OptLevel) -> Result<CompiledTape, CoreError> {
        let key = (hash_system(sys), level);
        {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.clock += 1;
            let stamp = inner.clock;
            if let Some(e) = inner.entries.iter_mut().find(|e| e.key == key) {
                e.stamp = stamp;
                let tape = e.tape.clone();
                drop(inner);
                self.obs.advisory_counter("serve.cache.hits").add(1);
                return Ok(tape);
            }
        }
        // Compile outside the lock: a slow compilation must not stall
        // every other connection's cache hits. Two racing misses on the
        // same key both compile; the duplicate insert below is folded.
        let tape = CompiledTape::compile(sys, level)?;
        self.obs.advisory_counter("serve.cache.misses").add(1);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(e) = inner.entries.iter_mut().find(|e| e.key == key) {
            // A racing miss beat us to the insert; keep one entry.
            e.stamp = stamp;
        } else {
            inner.entries.push(Entry {
                key,
                tape: tape.clone(),
                stamp,
            });
            while inner.entries.len() > self.capacity {
                if let Some(oldest) = inner
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(i, _)| i)
                {
                    inner.entries.swap_remove(oldest);
                    self.obs.advisory_counter("serve.cache.evictions").add(1);
                }
            }
        }
        Ok(tape)
    }

    /// Current values of the three cache counters
    /// `(hits, misses, evictions)`.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.obs.advisory_counter("serve.cache.hits").get(),
            self.obs.advisory_counter("serve.cache.misses").get(),
            self.obs.advisory_counter("serve.cache.evictions").get(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocapi::{Component, SigType};

    fn design(name: &str) -> System {
        let c = Component::build("c");
        let i = c.input("i", SigType::Bits(8)).unwrap();
        let o = c.output("o", SigType::Bits(8)).unwrap();
        let s = c.sfg("s").unwrap();
        s.drive(o, &(c.read(i) + c.const_bits(8, 1))).unwrap();
        let mut sb = System::build(name);
        let u = sb.add_component("u0", c.finish().unwrap()).unwrap();
        sb.input("i", SigType::Bits(8)).unwrap();
        sb.connect_input("i", u, "i").unwrap();
        sb.output("o", u, "o").unwrap();
        sb.finish().unwrap()
    }

    #[test]
    fn repeat_lookups_hit_without_recompiling() {
        let cache = TapeCache::new(4, Registry::new());
        let t1 = cache.get(&design("d"), OptLevel::Full).unwrap();
        let t2 = cache.get(&design("d"), OptLevel::Full).unwrap();
        assert_eq!(t1.program_hash(), t2.program_hash());
        assert_eq!(cache.stats(), (1, 1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn opt_level_is_part_of_the_key() {
        let cache = TapeCache::new(4, Registry::new());
        cache.get(&design("d"), OptLevel::None).unwrap();
        cache.get(&design("d"), OptLevel::Full).unwrap();
        assert_eq!(cache.stats(), (0, 2, 0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_overflow_evicts_least_recently_used() {
        let cache = TapeCache::new(2, Registry::new());
        cache.get(&design("a"), OptLevel::Full).unwrap();
        cache.get(&design("b"), OptLevel::Full).unwrap();
        // Touch `a` so `b` is the LRU entry.
        cache.get(&design("a"), OptLevel::Full).unwrap();
        cache.get(&design("c"), OptLevel::Full).unwrap();
        assert_eq!(cache.stats().2, 1, "one eviction expected");
        // `a` survived (hit), `b` was evicted (miss again).
        cache.get(&design("a"), OptLevel::Full).unwrap();
        let misses_before = cache.stats().1;
        cache.get(&design("b"), OptLevel::Full).unwrap();
        assert_eq!(cache.stats().1, misses_before + 1);
    }
}
