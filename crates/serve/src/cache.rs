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
//! Capturing a design and hashing it cost as much as a short job, so a
//! lookup names the design variant and the cache remembers each
//! variant's structural hash from its first request: a hit neither
//! builds nor hashes a system. The two transceiver variants share one
//! hash (they differ only in ROM contents, which live in each job's own
//! systems) and therefore one tape.
//!
//! Telemetry lands in the server's advisory [`Registry`] as
//! `serve.cache.hits` / `serve.cache.misses` / `serve.cache.evictions`.
//! The counters are *advisory*: they depend on request interleaving
//! across connections, so they appear in `stats`/`perf` frames, never
//! in deterministic results.

use std::borrow::Borrow;
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
    /// The structural hash of every design variant looked up so far;
    /// never evicted (one word per variant the registry names).
    hashes: Vec<(String, u64)>,
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
                hashes: Vec::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
            obs,
        }
    }

    /// Number of cached tapes.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tape of design variant `variant` at `level`: a clone of the
    /// cached tape on a hit (cheap — the program is reference-counted),
    /// a fresh compilation inserted into the cache on a miss.
    ///
    /// `build` captures the variant's system, and must capture the same
    /// structure every time it is called for the same variant, as the
    /// design registry's builders do. It runs only when the cache cannot
    /// answer without it: on the variant's first lookup, to learn its
    /// structural hash, and on a miss, to compile. A hit neither builds
    /// nor hashes. The system is not retained; callers that already hold
    /// one pass it by reference.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error and [`CoreError::NotCompilable`] from
    /// a miss's compilation; the failed key is not cached.
    pub fn get<S: Borrow<System>>(
        &self,
        variant: &str,
        level: OptLevel,
        build: impl FnOnce() -> Result<S, CoreError>,
    ) -> Result<CompiledTape, CoreError> {
        let known = self
            .lock()
            .hashes
            .iter()
            .find(|(v, _)| v == variant)
            .map(|(_, h)| *h);
        if let Some(tape) = known.and_then(|h| self.hit((h, level))) {
            return Ok(tape);
        }
        let sys = build()?;
        let sys = sys.borrow();
        let h = match known {
            Some(h) => h,
            None => {
                let h = hash_system(sys);
                let mut inner = self.lock();
                // A racing first lookup of the variant may have added it.
                if inner.hashes.iter().all(|(v, _)| v != variant) {
                    inner.hashes.push((variant.to_owned(), h));
                }
                drop(inner);
                // A new variant may share its structure with a cached one.
                if let Some(tape) = self.hit((h, level)) {
                    return Ok(tape);
                }
                h
            }
        };
        self.compile((h, level), sys)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The cached tape under `key`, marked most recently used.
    fn hit(&self, key: (u64, OptLevel)) -> Option<CompiledTape> {
        let mut inner = self.lock();
        inner.clock += 1;
        let stamp = inner.clock;
        let e = inner.entries.iter_mut().find(|e| e.key == key)?;
        e.stamp = stamp;
        let tape = e.tape.clone();
        drop(inner);
        self.obs.advisory_counter("serve.cache.hits").add(1);
        Some(tape)
    }

    /// Compiles `sys` and caches its tape under `key`, evicting the
    /// least recently used entries beyond capacity.
    fn compile(&self, key: (u64, OptLevel), sys: &System) -> Result<CompiledTape, CoreError> {
        // Compile outside the lock: a slow compilation must not stall
        // every other connection's cache hits. Two racing misses on the
        // same key both compile; the duplicate insert below is folded.
        let tape = CompiledTape::compile(sys, key.1)?;
        self.obs.advisory_counter("serve.cache.misses").add(1);
        let mut inner = self.lock();
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
        let t1 = cache.get("d", OptLevel::Full, || Ok(design("d"))).unwrap();
        let t2 = cache.get("d", OptLevel::Full, || Ok(design("d"))).unwrap();
        assert_eq!(t1.program_hash(), t2.program_hash());
        assert_eq!(cache.stats(), (1, 1, 0));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_hit_neither_builds_nor_hashes() {
        let cache = TapeCache::new(4, Registry::new());
        let cold = cache.get("d", OptLevel::Full, || Ok(design("d"))).unwrap();
        let warm = cache
            .get("d", OptLevel::Full, || -> Result<System, CoreError> {
                panic!("a hit must not build the system")
            })
            .unwrap();
        assert_eq!(cold.program_hash(), warm.program_hash());
        // A new level of a known variant builds (to compile) but does not
        // hash again; a new variant of a known structure builds and
        // hashes, then shares the cached tape.
        cache.get("d", OptLevel::None, || Ok(design("d"))).unwrap();
        let same = cache
            .get("d_again", OptLevel::Full, || Ok(design("d")))
            .unwrap();
        assert_eq!(same.program_hash(), cold.program_hash());
        assert_eq!(cache.stats(), (2, 2, 0));
        // A system the caller already holds is passed by reference.
        let sys = design("e");
        cache.get("e", OptLevel::Full, || Ok(&sys)).unwrap();
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn opt_level_is_part_of_the_key() {
        let cache = TapeCache::new(4, Registry::new());
        cache.get("d", OptLevel::None, || Ok(design("d"))).unwrap();
        cache.get("d", OptLevel::Full, || Ok(design("d"))).unwrap();
        assert_eq!(cache.stats(), (0, 2, 0));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_overflow_evicts_least_recently_used() {
        let cache = TapeCache::new(2, Registry::new());
        cache.get("a", OptLevel::Full, || Ok(design("a"))).unwrap();
        cache.get("b", OptLevel::Full, || Ok(design("b"))).unwrap();
        // Touch `a` so `b` is the LRU entry.
        cache.get("a", OptLevel::Full, || Ok(design("a"))).unwrap();
        cache.get("c", OptLevel::Full, || Ok(design("c"))).unwrap();
        assert_eq!(cache.stats().2, 1, "one eviction expected");
        // `a` survived (hit), `b` was evicted (miss again).
        cache.get("a", OptLevel::Full, || Ok(design("a"))).unwrap();
        let misses_before = cache.stats().1;
        cache.get("b", OptLevel::Full, || Ok(design("b"))).unwrap();
        assert_eq!(cache.stats().1, misses_before + 1);
    }
}
