//! Deterministic data-parallel primitives for the reproduction
//! pipeline.
//!
//! Everything here obeys one rule, stated in `DESIGN.md`: **parallelism
//! must never change results**. Work is distributed dynamically across
//! threads, but results are merged back in input order, so the output
//! of every helper is a pure function of its inputs — byte-identical
//! whether run on 1 thread or 64.
//!
//! The thread budget is a process-wide setting ([`set_max_threads`]),
//! defaulting to the machine's available parallelism. Helpers fall back
//! to plain sequential execution when the budget is 1, when the input
//! is too small to pay for threads, or when they are called on one of
//! this crate's own workers (a map nested in a map runs on its outer
//! item's worker, so the budget is never oversubscribed). Sequential
//! runs pay no synchronization cost.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod executor;

pub use cache::{CacheOutcome, CacheStats, MemoCache};
pub use executor::{Executor, Workers};

use std::cell::Cell;
use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Sentinel meaning "not configured yet" (resolve to the hardware).
const UNSET: usize = 0;

static MAX_THREADS: AtomicUsize = AtomicUsize::new(UNSET);

/// Sets the process-wide thread budget for all `sc-par` helpers.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn set_max_threads(n: usize) {
    assert!(n > 0, "thread budget must be at least 1");
    MAX_THREADS.store(n, Ordering::Relaxed);
}

/// The largest thread budget [`parse_thread_budget`] accepts. It
/// bounds what one command-line value can ask the operating system
/// for: a map starts one thread per item up to the budget, and a
/// full-scale telemetry batch has tens of thousands of items.
pub const MAX_THREAD_BUDGET: usize = 1_024;

/// Parses a thread budget given as text, such as a `--threads` value:
/// a whole number from 1 to [`MAX_THREAD_BUDGET`].
///
/// # Errors
///
/// A message naming the accepted range and the value given, for the
/// caller's usage error.
pub fn parse_thread_budget(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if (1..=MAX_THREAD_BUDGET).contains(&n) => Ok(n),
        _ => Err(format!("takes a whole number from 1 to {MAX_THREAD_BUDGET}, got {s:?}")),
    }
}

/// The current thread budget: the value of the last
/// [`set_max_threads`] call, or the machine's available parallelism if
/// never configured.
pub fn current_threads() -> usize {
    match MAX_THREADS.load(Ordering::Relaxed) {
        UNSET => thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Inputs below this size run sequentially in [`par_map`] regardless
/// of the budget — thread startup costs more than the work.
const MIN_PARALLEL_ITEMS: usize = 4;

thread_local! {
    /// Set on this crate's worker threads, where the helpers run
    /// sequentially: the outer map already holds the budget.
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Maps `f` over `items` in parallel, preserving input order.
///
/// Items are claimed dynamically (an atomic cursor, not static chunks),
/// so uneven item costs balance across threads; each result lands in
/// its item's slot, so the returned `Vec` is identical to
/// `items.iter().map(f).collect()` for any thread count.
///
/// Runs sequentially when the budget is 1, for fewer than four items,
/// and on a worker of this crate's helpers.
///
/// Returns only after every worker thread has exited, so thread-local
/// scratch the workers filled (such as the telemetry sine tape) is
/// already freed.
///
/// # Panics
///
/// If `f` panics on a worker, the panic is re-raised on the calling
/// thread with the worker's own payload, as on the sequential path.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_on_workers(items, MIN_PARALLEL_ITEMS, f)
}

/// [`par_map`] for a few expensive items, such as whole simulation
/// replays: parallel from two items, where one item's work outweighs
/// a thread's startup.
///
/// Shares [`par_map`]'s workers and guarantees: items are claimed in
/// input order, results come back in input order, and the output is
/// identical at any thread budget. It runs sequentially when the
/// budget is 1, for a single item, and on a worker of this crate's
/// helpers. A [`par_map`] that `f` calls runs on `f`'s own worker.
///
/// # Panics
///
/// If `f` panics on a worker, the panic is re-raised on the calling
/// thread with the worker's own payload.
pub fn par_map_coarse<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_on_workers(items, 2, f)
}

/// The worker loop behind both maps: sequential below `min_items`, at
/// a budget of 1 or on a worker, else one worker per thread claiming
/// items through an atomic cursor.
#[allow(
    clippy::expect_used,
    reason = "the cursor hands out each index once and a worker that dies before sending its \
              result has already re-raised its panic, so every slot is filled"
)]
fn map_on_workers<T, R, F>(items: &[T], min_items: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = current_threads().min(items.len());
    if threads <= 1 || items.len() < min_items || ON_WORKER.get() {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let (cursor, f) = (&cursor, &f);
                scope.spawn(move || {
                    ON_WORKER.set(true);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        if tx.send((i, f(item))).is_err() {
                            break;
                        }
                    }
                })
            })
            .collect();
        drop(tx);

        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, result) in rx {
            slots[i] = Some(result);
        }
        // Join each worker explicitly: the scope's implicit join returns
        // before worker thread-local destructors run, and a panicking
        // worker leaves its item's slot empty, so surface its payload
        // rather than the missing slot.
        for worker in workers {
            if let Err(payload) = worker.join() {
                panic::resume_unwind(payload);
            }
        }
        slots.into_iter().map(|r| r.expect("every index is claimed exactly once")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-wide thread budget.
    static BUDGET_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn thread_budget_parses_only_its_range() {
        assert_eq!(parse_thread_budget("1"), Ok(1));
        assert_eq!(parse_thread_budget("8"), Ok(8));
        assert_eq!(parse_thread_budget("1024"), Ok(MAX_THREAD_BUDGET));
        for bad in ["0", "1025", "-1", "two", "2.5", "", " 4", "99999999999999999999999"] {
            let err = parse_thread_budget(bad).expect_err(bad);
            assert!(err.contains("from 1 to 1024"), "{bad}: {err}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, |&x| x * 2);
        let expected: Vec<u64> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, expected);
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        assert_eq!(par_map(&[] as &[u64], |&x| x), Vec::<u64>::new());
        assert_eq!(par_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_matches_sequential_for_any_budget() {
        // Uneven per-item cost so workers genuinely finish out of order.
        let items: Vec<u64> = (0..257).collect();
        let work = |&x: &u64| {
            let mut acc = x;
            for _ in 0..(x % 7) * 10 {
                acc = std::hint::black_box(acc.wrapping_mul(0x9e37).rotate_left(7));
            }
            acc
        };
        let sequential: Vec<u64> = items.iter().map(work).collect();
        let _guard = BUDGET_LOCK.lock().unwrap();
        let saved = current_threads();
        for budget in [1, 2, 3, 8] {
            set_max_threads(budget);
            assert_eq!(par_map(&items, work), sequential, "budget {budget}");
        }
        set_max_threads(saved);
    }

    #[test]
    fn par_map_reraises_the_worker_panic() {
        let items: Vec<u64> = (0..64).collect();
        let _guard = BUDGET_LOCK.lock().unwrap();
        let saved = current_threads();
        for budget in [2, 8] {
            set_max_threads(budget);
            let caught = panic::catch_unwind(|| {
                par_map(&items, |&x| {
                    assert!(x != 37, "worker failed on item {x}");
                    x
                })
            });
            let payload = caught.expect_err("the worker panic must propagate");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert_eq!(message, "worker failed on item 37", "budget {budget}");
        }
        set_max_threads(saved);
    }

    #[test]
    fn par_map_frees_worker_thread_locals_before_returning() {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        static FREED: AtomicUsize = AtomicUsize::new(0);
        struct Scratch;
        impl Drop for Scratch {
            fn drop(&mut self) {
                // A slow destructor, so a missing join shows every time.
                thread::sleep(std::time::Duration::from_millis(50));
                FREED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static SCRATCH: Scratch = {
                CREATED.fetch_add(1, Ordering::SeqCst);
                Scratch
            };
        }
        let items: Vec<u64> = (0..64).collect();
        let _guard = BUDGET_LOCK.lock().unwrap();
        let saved = current_threads();
        set_max_threads(4);
        par_map(&items, |&x| SCRATCH.with(|_| x));
        set_max_threads(saved);
        assert!(CREATED.load(Ordering::SeqCst) > 0);
        assert_eq!(FREED.load(Ordering::SeqCst), CREATED.load(Ordering::SeqCst));
    }

    #[test]
    fn par_map_coarse_matches_sequential_for_any_budget() {
        // Uneven costs: the first item is far dearer than the rest.
        let work = |&x: &u64| {
            let mut acc = x;
            for _ in 0..(if x == 0 { 200_000 } else { 1_000 }) {
                acc = std::hint::black_box(acc.wrapping_mul(0x9e37).rotate_left(7));
            }
            acc
        };
        let _guard = BUDGET_LOCK.lock().unwrap();
        let saved = current_threads();
        for len in [2u64, 3] {
            let items: Vec<u64> = (0..len).collect();
            let sequential: Vec<u64> = items.iter().map(work).collect();
            for budget in [1, 2, 3, 8] {
                set_max_threads(budget);
                assert_eq!(
                    par_map_coarse(&items, work),
                    sequential,
                    "{len} items, budget {budget}"
                );
            }
        }
        set_max_threads(saved);
    }

    #[test]
    fn par_map_coarse_reraises_the_worker_panic() {
        let items: Vec<u64> = (0..3).collect();
        let _guard = BUDGET_LOCK.lock().unwrap();
        let saved = current_threads();
        for budget in [2, 8] {
            set_max_threads(budget);
            let caught = panic::catch_unwind(|| {
                par_map_coarse(&items, |&x| {
                    assert!(x != 1, "worker failed on item {x}");
                    x
                })
            });
            let payload = caught.expect_err("the worker panic must propagate");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert_eq!(message, "worker failed on item 1", "budget {budget}");
        }
        set_max_threads(saved);
    }

    #[test]
    fn par_map_on_a_worker_runs_on_that_worker() {
        let _guard = BUDGET_LOCK.lock().unwrap();
        let saved = current_threads();
        set_max_threads(4);
        let caller = thread::current().id();
        let inner: Vec<u64> = (0..64).collect();
        let arms = par_map_coarse(&[0u8, 1], |_| {
            let worker = thread::current().id();
            (worker, par_map(&inner, |_| thread::current().id()))
        });
        for (worker, ids) in arms {
            assert_ne!(worker, caller, "each arm runs on a worker");
            assert!(ids.iter().all(|&id| id == worker), "the nested map left its worker");
        }
        // The flag stays on the workers: the caller still fans out, and
        // its own thread never runs an item.
        let ids = par_map(&inner, |_| thread::current().id());
        assert!(ids.iter().all(|&id| id != caller), "a later par_map ran on the caller");
        set_max_threads(saved);
    }

    #[test]
    fn thread_budget_round_trips() {
        let _guard = BUDGET_LOCK.lock().unwrap();
        let saved = current_threads();
        set_max_threads(5);
        assert_eq!(current_threads(), 5);
        set_max_threads(saved);
    }
}
