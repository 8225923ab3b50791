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
//! A lookup names the design variant and returns a [`CompiledDesign`]:
//! the variant's one template, paired with the cached tape of its
//! structure and level. The template is captured and hashed on the
//! variant's first lookup and never evicted, so a hit builds and hashes
//! nothing, and a miss compiles from the template. The two transceiver
//! variants share one structure (they differ only in ROM contents,
//! which live in each variant's template) and therefore one tape.
//!
//! Telemetry lands in the server's advisory [`Registry`] as
//! `serve.cache.hits` / `serve.cache.misses` / `serve.cache.evictions`.
//! The counters are *advisory*: they depend on request interleaving
//! across connections, so they appear in `stats`/`perf` frames, never
//! in deterministic results.

use std::sync::Mutex;

use ocapi::{hash_system, CompiledDesign, CompiledTape, CoreError, OptLevel, System};
use ocapi_obs::Registry;

use crate::designs::Design;

/// One cache slot, ordered by recency via `stamp`.
struct Entry {
    key: (u64, OptLevel),
    tape: CompiledTape,
    stamp: u64,
}

struct Inner {
    entries: Vec<Entry>,
    /// Every design variant looked up so far: its template, paired with
    /// the tape it was first looked up at. Never evicted (one captured
    /// system per variant the registry names).
    variants: Vec<(String, CompiledDesign)>,
    clock: u64,
}

/// A thread-safe LRU cache of compiled tapes, with one template per
/// design variant.
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
                variants: Vec::new(),
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

    /// The registry design `design` at `level`: [`TapeCache::get`] with
    /// the registry's builder.
    ///
    /// # Errors
    ///
    /// As [`TapeCache::get`].
    pub fn design(&self, design: Design, level: OptLevel) -> Result<CompiledDesign, CoreError> {
        self.get(design.name(), level, || design.build())
    }

    /// Design variant `variant` at `level`: the variant's template paired
    /// with the cached tape of its structure and level on a hit (cheap —
    /// two reference counts), or with a fresh compilation of the
    /// template, inserted into the cache, on a miss.
    ///
    /// `build` captures the variant's system, and must capture the same
    /// system every time it is called for the same variant, as the
    /// design registry's builders do. It runs once, on the variant's
    /// first lookup, which hashes the capture to find its tape; forming
    /// the design checks that hash once more. Every later lookup of the
    /// variant, at any level, neither builds nor hashes.
    ///
    /// # Errors
    ///
    /// Propagates `build`'s error and [`CoreError::NotCompilable`] from
    /// a miss's compilation; the failed key is not cached.
    pub fn get(
        &self,
        variant: &str,
        level: OptLevel,
        build: impl FnOnce() -> Result<System, CoreError>,
    ) -> Result<CompiledDesign, CoreError> {
        let known = self
            .lock()
            .variants
            .iter()
            .find(|(v, _)| v == variant)
            .map(|(_, d)| d.clone());
        if let Some(template) = known {
            let key = (template.tape().system_hash(), level);
            let tape = match self.hit(key) {
                Some(tape) => tape,
                None => self.insert(key, CompiledTape::compile(template.system(), level)?),
            };
            return template.with_tape(&tape);
        }
        let sys = build()?;
        let key = (hash_system(&sys), level);
        let design = match self.hit(key) {
            // A new variant may share its structure with a cached one.
            Some(tape) => CompiledDesign::new(sys, &tape)?,
            None => {
                let design = CompiledDesign::compile(sys, level)?;
                self.insert(key, design.tape().clone());
                design
            }
        };
        let mut inner = self.lock();
        // A racing first lookup of the variant may have added it.
        if inner.variants.iter().all(|(v, _)| v != variant) {
            inner.variants.push((variant.to_owned(), design.clone()));
        }
        Ok(design)
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

    /// Counts a miss and caches `tape`, compiled for it, under `key`,
    /// evicting the least recently used entries beyond capacity.
    /// Callers compile outside the lock: a slow compilation must not
    /// stall every other connection's cache hits. Two racing misses on
    /// the same key both compile; the duplicate insert is folded.
    fn insert(&self, key: (u64, OptLevel), tape: CompiledTape) -> CompiledTape {
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
        tape
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
        assert_eq!(t1.tape().program_hash(), t2.tape().program_hash());
        assert_eq!(cache.stats(), (1, 1, 0));
        assert_eq!(cache.len(), 1);
    }

    /// A builder that must not run.
    fn no_build() -> Result<System, CoreError> {
        panic!("a known variant must not build its system")
    }

    #[test]
    fn a_hit_neither_builds_nor_hashes() {
        let cache = TapeCache::new(4, Registry::new());
        let cold = cache.get("d", OptLevel::Full, || Ok(design("d"))).unwrap();
        let warm = cache.get("d", OptLevel::Full, no_build).unwrap();
        assert_eq!(cold.tape().program_hash(), warm.tape().program_hash());
        assert!(std::ptr::eq(cold.system(), warm.system()));
        // A known variant at a new level compiles from its template,
        // without building a system.
        let other_level = cache.get("d", OptLevel::None, no_build).unwrap();
        assert!(std::ptr::eq(other_level.system(), cold.system()));
        assert_eq!(other_level.tape().level(), OptLevel::None);
        assert_eq!(cache.stats(), (1, 2, 0));
        // A new variant of a known structure builds its own template,
        // hashes it, then shares the cached tape.
        let same = cache
            .get("d_again", OptLevel::Full, || Ok(design("d")))
            .unwrap();
        assert_eq!(same.tape().program_hash(), cold.tape().program_hash());
        assert!(!std::ptr::eq(same.system(), cold.system()));
        assert_eq!(cache.stats(), (2, 2, 0));
        // Once evicted, a known variant's tape is recompiled from its
        // template, still without a build.
        let small = TapeCache::new(1, Registry::new());
        small.get("d", OptLevel::Full, || Ok(design("d"))).unwrap();
        small.get("e", OptLevel::Full, || Ok(design("e"))).unwrap();
        let back = small.get("d", OptLevel::Full, no_build).unwrap();
        assert_eq!(back.tape().program_hash(), cold.tape().program_hash());
        assert_eq!(small.stats(), (0, 3, 2));
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
