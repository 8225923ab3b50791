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
//! **Per-worker state.** [`map_indexed_with`] gives each worker one
//! value built by an `init` closure on the worker's first item and
//! handed to every item it runs — the place to keep a simulator that is
//! reset between items instead of rebuilt for each. An item's result
//! must not depend on what earlier items left in the state (a reset that
//! equals a fresh build keeps that promise), so which worker runs which
//! item still cannot show in the output. After an item that fails or
//! panics, the worker drops its state and builds a fresh one for its
//! next item, so a half-updated simulator is never reused.
//!
//! There is no retry: every item is a pure function of its index, so an
//! item that failed once fails again on a fresh state.
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

/// Runs `f` over every item on the pool, one guarded call per item,
/// and returns one [`Shard`] per worker in worker order. Each worker
/// builds its state with `init` on first use and drops it after an item
/// that fails or panics (see the module docs).
fn run_items<T, S, R, E, I, F>(pool: &ParConfig, items: &[T], init: I, f: F) -> Vec<Shard<R, E>>
where
    T: Sync,
    R: Send,
    E: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
{
    let workers = pool.threads.min(items.len().max(1));
    let cursor = AtomicUsize::new(0);
    // One worker loop, shared by both paths, so sequential and threaded
    // execution have byte-identical per-item semantics.
    let work = || -> Shard<R, E> {
        let mut shard = Shard::new();
        let mut state: Option<S> = None;
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let run = || f(state.get_or_insert_with(&init), i, item);
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
    let mut slots: Vec<Option<Slot<R, E>>> = Vec::new();
    slots.resize_with(items.len(), || None);
    for (i, slot) in run_items(pool, items, init, f).into_iter().flatten() {
        slots[i] = Some(slot);
    }
    merge(slots)
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
    fn failing_items_run_once_and_report_the_lowest_index_deterministically() {
        use std::sync::atomic::AtomicU32;
        // Items 13 and 21 fail on every call. Each item, failing or not,
        // runs exactly once, and item 13 is reported for every width.
        let items: Vec<usize> = (0..32).collect();
        for threads in [1usize, 4] {
            let calls: Vec<AtomicU32> = items.iter().map(|_| AtomicU32::new(0)).collect();
            let out = map_indexed_with(
                &ParConfig::new(threads),
                &items,
                || (),
                |_, i, x| {
                    calls[i].fetch_add(1, Ordering::Relaxed);
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
            for (i, n) in calls.iter().enumerate() {
                assert_eq!(n.load(Ordering::Relaxed), 1, "threads={threads} item {i}");
            }
        }
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
        use std::sync::Mutex;
        // One worker, so the item order is the cursor order: item 2
        // errs and item 5 panics, each on a state that has run earlier
        // items; the item after each failure starts on a fresh state.
        let items: Vec<u32> = (0..8).collect();
        let built = AtomicU32::new(0);
        let fresh = Mutex::new(Vec::new());
        let out = map_indexed_with(
            &ParConfig::single(),
            &items,
            || {
                built.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            },
            |ran: &mut Vec<u32>, _, x| {
                ran.push(*x);
                if ran.len() == 1 {
                    fresh.lock().unwrap().push(*x);
                }
                match (*x, ran.len()) {
                    (2, n) if n > 1 => Err("dirty"),
                    (5, n) if n > 1 => panic!("dirty"),
                    _ => Ok(ran.len()),
                }
            },
        );
        // States [0,1,2] [3,4,5] [6,7]; every item ran, and the lowest
        // failing index is reported.
        assert_eq!(
            out.unwrap_err(),
            ParError::Task {
                index: 2,
                error: "dirty"
            }
        );
        assert_eq!(built.load(Ordering::Relaxed), 3);
        assert_eq!(*fresh.lock().unwrap(), [0, 3, 6]);
    }
}
