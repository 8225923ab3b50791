//! Deterministic work-sharding across a scoped thread pool.
//!
//! Simulation throughput is the bottleneck of the whole design loop —
//! the reason the paper grew a compiled back-end at all. The workloads
//! layered on top of the simulators (fault campaigns, BER sweeps, BIST
//! grading, seeded equivalence sweeps) are embarrassingly parallel:
//! many independent runs whose results are merged. This module fans
//! those runs across a pool of `std::thread::scope` workers while
//! keeping one property absolute:
//!
//! > **Results are bit-identical for every thread count.** Running with
//! > one worker reproduces the single-threaded outputs exactly; running
//! > with eight merely finishes sooner.
//!
//! Three rules buy that determinism:
//!
//! 1. **Per-item seeding, not per-thread seeding.** Any randomness a
//!    work item needs is derived from `(base seed, item index)` — see
//!    [`XorShift64::stream`](crate::rng::XorShift64::stream) — never
//!    from which worker happens to execute it.
//! 2. **Order-independent merge.** Workers pull items from a shared
//!    atomic cursor (dynamic load balancing), but every result is keyed
//!    by its item index and the merged output is assembled in index
//!    order, so the interleaving of workers is invisible.
//! 3. **Deterministic failure selection.** All items run to completion
//!    even when some fail; the reported failure is the one with the
//!    *lowest index*, which is the same failure a sequential loop would
//!    hit first. A panicking item is caught ([`ParError::Panic`]) and
//!    surfaces as an error — never a hang, never a torn-down process.
//!
//! **Per-worker state.** [`map_indexed_with`] and [`map_indexed_retry`]
//! give each worker one value built by an `init` closure on the
//! worker's first item and handed to every item it runs — the place to
//! keep a simulator that is reset between items instead of rebuilt for
//! each. An item's result must not depend on what earlier items left in
//! the state (a reset that equals a fresh build keeps that promise), so
//! which worker runs which item still cannot show in the output. After
//! an item that fails or panics, the worker drops its state and builds a
//! fresh one for its next item, so a half-updated simulator is never
//! reused and a retry starts from a fresh build.
//!
//! The pool is built on the standard library only: the workspace builds
//! fully offline, with zero registry dependencies.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker-pool configuration for the sharded engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    threads: usize,
}

impl ParConfig {
    /// A pool of `threads` workers (0 is clamped to 1).
    pub fn new(threads: usize) -> ParConfig {
        ParConfig {
            threads: threads.max(1),
        }
    }

    /// The single-threaded pool: sequential execution, identical
    /// results, no spawned threads at all.
    pub fn single() -> ParConfig {
        ParConfig { threads: 1 }
    }

    /// One worker per available hardware thread (1 when the platform
    /// cannot report parallelism).
    pub fn available() -> ParConfig {
        ParConfig::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for ParConfig {
    fn default() -> ParConfig {
        ParConfig::single()
    }
}

/// A failure of a sharded map, pinned to the work item that caused it.
///
/// When several items fail, the reported one is always the item with
/// the lowest index — exactly the failure a sequential loop over the
/// same items would report first, for any thread count.
#[derive(Debug, Clone, PartialEq)]
pub enum ParError<E> {
    /// The worker closure returned an error for item `index`.
    Task {
        /// Index of the failing work item.
        index: usize,
        /// The error it returned.
        error: E,
    },
    /// The worker closure panicked on item `index`. The panic was
    /// caught at the item boundary: the pool survives, every other item
    /// still runs, and the caller gets an error instead of a poisoned
    /// pool or a hang.
    Panic {
        /// Index of the work item whose closure panicked.
        index: usize,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for ParError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::Task { index, error } => {
                write!(f, "sharded work item {index} failed: {error}")
            }
            ParError::Panic { index } => {
                write!(f, "sharded work item {index} panicked")
            }
        }
    }
}

impl<E: std::fmt::Debug + std::fmt::Display> std::error::Error for ParError<E> {}

/// What one item produced, kept until the order-restoring merge.
enum Slot<R, E> {
    Done(R),
    Failed(E),
    Panicked,
}

/// What one worker did: its items' outcomes, by item index.
type Shard<R, E> = Vec<(usize, Slot<R, E>)>;

/// Bookkeeping of a retrying sharded map ([`map_indexed_retry`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Extra attempts executed (sum over all items and retry rounds).
    pub retries: u64,
    /// Items that failed or panicked at least once but eventually
    /// succeeded on a retry.
    pub recovered: u64,
}

/// Runs `f` over the given item indices on the pool, one guarded call
/// per index, and returns one [`Shard`] per worker in worker order. Each
/// worker builds its state with `init` on first use and drops it after
/// an item that fails or panics (see the module docs).
fn run_indices<T, S, R, E, I, F>(
    pool: &ParConfig,
    items: &[T],
    indices: &[usize],
    init: &I,
    f: &F,
) -> Vec<Shard<R, E>>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
{
    let workers = pool.threads.min(indices.len().max(1));
    let cursor = AtomicUsize::new(0);
    // One worker loop, shared by both paths, so sequential and threaded
    // execution have byte-identical per-item semantics.
    let work = || -> Shard<R, E> {
        let mut shard = Shard::new();
        let mut state: Option<S> = None;
        loop {
            let k = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(&i) = indices.get(k) else { break };
            let run = || f(state.get_or_insert_with(init), i, &items[i]);
            let slot = match catch_unwind(AssertUnwindSafe(run)) {
                Ok(Ok(r)) => Slot::Done(r),
                Ok(Err(e)) => Slot::Failed(e),
                Err(_) => Slot::Panicked,
            };
            if !matches!(slot, Slot::Done(_)) {
                state = None;
            }
            shard.push((i, slot));
        }
        shard
    };
    if workers <= 1 {
        return vec![work()];
    }
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
        // A worker's join only fails when its loop panicked outside the
        // guard; the indices it claimed simply stay missing and the
        // merge treats them as panicked.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// Order-restoring merge with deterministic failure selection: the
/// lowest-indexed failure wins, as in a sequential loop. An index with
/// no outcome (its worker died outside the guard) counts as a panic.
fn merge<R, E>(slots: Vec<Option<Slot<R, E>>>) -> Result<Vec<R>, ParError<E>> {
    let mut out = Vec::with_capacity(slots.len());
    for (index, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Slot::Done(r)) => out.push(r),
            Some(Slot::Failed(error)) => return Err(ParError::Task { index, error }),
            Some(Slot::Panicked) | None => return Err(ParError::Panic { index }),
        }
    }
    Ok(out)
}

/// [`map_indexed_with`] with bounded retry: an item whose closure fails
/// or panics is re-executed — on whichever worker is free, but always
/// with its original index, hence its original seed stream, and always
/// on a freshly built worker state — until it succeeds or `attempts`
/// total attempts are spent. Items that still fail after the last round
/// are merged exactly like [`map_indexed`]: the lowest-indexed failure
/// is reported, identically for every thread count.
///
/// The result is **deterministic regardless of which worker or attempt
/// succeeds**, provided `f` is a pure function of `(index, item)` — the
/// contract every campaign work item in this workspace already obeys.
///
/// # Errors
///
/// Returns the lowest-indexed [`ParError`] among items whose final
/// attempt failed, after all items and retries have run.
pub fn map_indexed_retry<T, S, R, E, I, F>(
    pool: &ParConfig,
    items: &[T],
    attempts: u32,
    init: I,
    f: F,
) -> (Result<Vec<R>, ParError<E>>, RetryStats)
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
{
    let n = items.len();
    let attempts = attempts.max(1);
    let mut stats = RetryStats::default();
    let mut slots: Vec<Option<Slot<R, E>>> = Vec::new();
    slots.resize_with(n, || None);
    let mut pending: Vec<usize> = (0..n).collect();
    for round in 0..attempts {
        if round > 0 {
            pending = (0..n)
                .filter(|&i| !matches!(slots[i], Some(Slot::Done(_))))
                .collect();
            if pending.is_empty() {
                break;
            }
            stats.retries += pending.len() as u64;
        }
        for shard in run_indices(pool, items, &pending, &init, &f) {
            for (i, slot) in shard {
                if round > 0 && matches!(slot, Slot::Done(_)) {
                    stats.recovered += 1;
                }
                slots[i] = Some(slot);
            }
        }
        // An index never handed back (a worker died outside the guard)
        // stays in its previous non-Done state and is retried again or
        // reported as the panic it was.
    }
    (merge(slots), stats)
}

/// Maps `f` over `items` on a pool of [`ParConfig::threads`] workers,
/// returning the results in item order.
///
/// See the module docs for the determinism contract: identical output
/// for every thread count, including which failure is reported.
///
/// # Errors
///
/// Returns the lowest-indexed [`ParError`] after **all** items have
/// run: [`ParError::Task`] wrapping the closure's error, or
/// [`ParError::Panic`] when the closure panicked on that item.
pub fn map_indexed<T, R, E, F>(pool: &ParConfig, items: &[T], f: F) -> Result<Vec<R>, ParError<E>>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    map_indexed_with(pool, items, || (), |_, i, t| f(i, t))
}

/// [`map_indexed`] with per-worker state: each worker builds one `S`
/// with `init` and passes it to every item it runs, and drops it after
/// an item that fails or panics (see the module docs). `f` must give
/// the same result whatever an earlier item left in the state.
///
/// # Errors
///
/// As [`map_indexed`].
pub fn map_indexed_with<T, S, R, E, I, F>(
    pool: &ParConfig,
    items: &[T],
    init: I,
    f: F,
) -> Result<Vec<R>, ParError<E>>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
{
    map_indexed_retry(pool, items, 1, init, f).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order() {
        for threads in [1usize, 2, 3, 8] {
            let pool = ParConfig::new(threads);
            let items: Vec<u64> = (0..37).collect();
            let out: Vec<u64> =
                map_indexed(&pool, &items, |i, x| Ok::<_, ()>(x * 3 + i as u64)).unwrap();
            assert_eq!(out, items.iter().map(|x| x * 4).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_is_fine() {
        let items: Vec<u32> = Vec::new();
        let out = map_indexed(&ParConfig::new(4), &items, |_, x| Ok::<_, ()>(*x)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn lowest_index_error_wins_for_any_thread_count() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1usize, 2, 8] {
            let err = map_indexed(&ParConfig::new(threads), &items, |_, x| {
                if *x == 9 || *x == 41 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(*x)
                }
            })
            .unwrap_err();
            assert_eq!(
                err,
                ParError::Task {
                    index: 9,
                    error: "bad 9".to_owned()
                }
            );
        }
    }

    #[test]
    fn panicking_item_surfaces_as_error_not_hang() {
        let items: Vec<usize> = (0..16).collect();
        for threads in [1usize, 2, 8] {
            let err = map_indexed(&ParConfig::new(threads), &items, |_, x| {
                if *x == 5 {
                    panic!("poisoned shard");
                }
                Ok::<_, String>(*x)
            })
            .unwrap_err();
            assert_eq!(err, ParError::Panic { index: 5 });
        }
    }

    #[test]
    fn panic_before_error_selects_the_panic() {
        // Item 3 panics, item 7 errors: index order decides, so the
        // panic is reported for every thread count.
        let items: Vec<usize> = (0..12).collect();
        for threads in [1usize, 4] {
            let err = map_indexed(&ParConfig::new(threads), &items, |_, x| match *x {
                3 => panic!("first failure"),
                7 => Err("later failure"),
                _ => Ok(*x),
            })
            .unwrap_err();
            assert_eq!(err, ParError::Panic { index: 3 });
        }
    }

    #[test]
    fn config_clamps_and_reports() {
        assert_eq!(ParConfig::new(0).threads(), 1);
        assert_eq!(ParConfig::single().threads(), 1);
        assert!(ParConfig::available().threads() >= 1);
    }

    #[test]
    fn retry_recovers_first_attempt_panics() {
        use std::sync::atomic::AtomicU32;
        let items: Vec<usize> = (0..24).collect();
        for threads in [1usize, 4] {
            let tries: Vec<AtomicU32> = (0..24).map(|_| AtomicU32::new(0)).collect();
            let (out, stats) = map_indexed_retry(
                &ParConfig::new(threads),
                &items,
                3,
                || (),
                |_, i, x| {
                    let attempt = tries[i].fetch_add(1, Ordering::Relaxed);
                    if *x == 7 && attempt == 0 {
                        panic!("chaos");
                    }
                    if *x == 11 && attempt < 2 {
                        return Err("flaky");
                    }
                    Ok(*x * 2)
                },
            );
            let out = out.unwrap();
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            assert_eq!(stats.retries, 3, "threads={threads}"); // 7 once, 11 twice
            assert_eq!(stats.recovered, 2, "threads={threads}");
        }
    }

    #[test]
    fn exhausted_retries_report_lowest_index_deterministically() {
        let items: Vec<usize> = (0..32).collect();
        for threads in [1usize, 4] {
            let (out, stats) = map_indexed_retry(
                &ParConfig::new(threads),
                &items,
                2,
                || (),
                |_, _, x| {
                    if *x == 13 || *x == 21 {
                        Err(format!("bad {x}"))
                    } else {
                        Ok(*x)
                    }
                },
            );
            assert_eq!(
                out.unwrap_err(),
                ParError::Task {
                    index: 13,
                    error: "bad 13".to_owned()
                }
            );
            assert_eq!(stats.retries, 2); // two items, one retry round
            assert_eq!(stats.recovered, 0);
        }
    }

    #[test]
    fn single_attempt_matches_map_indexed() {
        let items: Vec<u64> = (0..10).collect();
        let (out, stats) = map_indexed_retry(
            &ParConfig::new(2),
            &items,
            1,
            || (),
            |_, _, x| Ok::<_, ()>(*x + 1),
        );
        assert_eq!(out.unwrap(), (1..=10).collect::<Vec<_>>());
        assert_eq!(stats, RetryStats::default());
    }

    #[test]
    fn worker_state_is_built_once_per_worker() {
        use std::sync::atomic::AtomicU32;
        let items: Vec<u64> = (0..40).collect();
        for threads in [1usize, 3] {
            let built = AtomicU32::new(0);
            // The state counts the items its worker ran; the results do
            // not depend on it, as the contract asks.
            let out = map_indexed_with(
                &ParConfig::new(threads),
                &items,
                || {
                    built.fetch_add(1, Ordering::Relaxed);
                    0u64
                },
                |seen, _, x| {
                    *seen += 1;
                    Ok::<_, ()>(*x * 2)
                },
            )
            .unwrap();
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            let built = built.load(Ordering::Relaxed) as usize;
            assert!((1..=threads).contains(&built), "threads={threads}: {built}");
        }
    }

    #[test]
    fn worker_state_is_dropped_after_a_failed_item() {
        use std::sync::atomic::AtomicU32;
        // One worker, so the item order is the cursor order: item 2
        // errs and item 5 panics, each on a state that has run earlier
        // items; the item after each failure starts on a fresh state.
        let items: Vec<u32> = (0..8).collect();
        let built = AtomicU32::new(0);
        let (out, stats) = map_indexed_retry(
            &ParConfig::single(),
            &items,
            2,
            || {
                built.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            },
            |ran: &mut Vec<u32>, _, x| {
                ran.push(*x);
                match (*x, ran.len()) {
                    (2, n) if n > 1 => Err("dirty"),
                    (5, n) if n > 1 => panic!("dirty"),
                    _ => Ok(ran.len()),
                }
            },
        );
        // First round: states [0,1,2] [3,4,5] [6,7]; the retry round
        // runs 2 and 5 on one fresh state, where 2 is its first item and
        // 5 its second, so 5 fails again and its state is dropped.
        assert_eq!(out.unwrap_err(), ParError::Panic { index: 5 });
        assert_eq!(built.load(Ordering::Relaxed), 4);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.recovered, 1);
    }
}
