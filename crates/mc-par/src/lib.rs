//! The unit dispatcher of the `chebymc` workspace.
//!
//! Campaign work units (`mc_exp::run_units`, shared by `chebymc exp run`
//! and the mc-serve worker) are the workspace's one parallel layer: the
//! GA and the source audit run serially, because their per-index work is
//! far cheaper than waking a thread. [`for_each_while`] fans a fixed
//! index range `0..count` out over scoped threads. The calling thread is
//! one of the lanes, each atomic claim takes one index (units cost
//! milliseconds, so finer balancing buys nothing), and a `false` return
//! or a panic stops further claims.
//!
//! Determinism is the caller's side of the contract: the value computed
//! for index `i` must not depend on which thread runs it or when. Results
//! then stay bit-identical for any thread count (the campaign runner
//! reorders completions before they reach the store).
//!
//! # Example
//!
//! ```
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! let sum = AtomicU64::new(0);
//! let complete = mc_par::for_each_while(4, 100, |i| {
//!     sum.fetch_add(i as u64, Ordering::Relaxed);
//!     true
//! });
//! assert!(complete);
//! assert_eq!(sum.into_inner(), 4950);
//! ```

#![warn(missing_docs)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Hard cap on any resolved thread count, guarding against a
/// misconfigured `threads` knob spawning an absurd number of OS threads.
pub const MAX_THREADS: usize = 1024;

/// The number of lanes [`for_each_while`] runs for `count` indices: the
/// workspace's `threads` convention (`0` means all `available` cores, any
/// other value is taken literally), capped at [`MAX_THREADS`] and at
/// `count`, and never below 1.
fn resolve_threads(threads: usize, available: usize, count: usize) -> usize {
    let wanted = if threads == 0 { available } else { threads };
    wanted.min(MAX_THREADS).min(count).max(1)
}

/// Calls `f` once for each index in `0..count`, on up to `threads` lanes
/// (`0` = all available cores, capped at [`MAX_THREADS`] and at `count`);
/// the calling thread is one of them.
///
/// Indices are claimed one at a time in increasing order. Once any call
/// returns `false`, no further index is claimed; calls already running
/// finish. Which indices after it still ran depends on thread timing, so
/// a `false` is only for abandoning work whose results no longer matter
/// (a failed campaign unit, say).
///
/// Returns `true` when every index ran and no call returned `false`.
///
/// # Panics
///
/// A panic inside `f` also stops further claims. It is re-raised here,
/// with its original payload, once every lane has stopped.
pub fn for_each_while<F>(threads: usize, count: usize, f: F) -> bool
where
    F: Fn(usize) -> bool + Sync,
{
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let lanes = resolve_threads(threads, available, count);
    let _span = mc_obs::span("par.dispatch");
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    // `Relaxed` suffices: the flags publish no data (callers synchronise
    // their own results), and the scope's join orders the final reads.
    let lane = || {
        while !stop.load(Ordering::Relaxed) {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                return;
            }
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(true) => {}
                Ok(false) => stop.store(true, Ordering::Relaxed),
                Err(payload) => {
                    stop.store(true, Ordering::Relaxed);
                    let mut slot = panic.lock().expect("no lane panics holding the slot");
                    slot.get_or_insert(payload);
                }
            }
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..lanes {
            scope.spawn(lane);
        }
        lane();
    });
    if let Some(payload) = panic.into_inner().expect("no lane panics holding the slot") {
        resume_unwind(payload);
    }
    !stop.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn thread_resolution() {
        // `0` takes the available cores, any other value is literal.
        assert_eq!(resolve_threads(0, 6, 100), 6);
        assert_eq!(resolve_threads(3, 6, 100), 3);
        assert_eq!(resolve_threads(8, 2, 100), 8);
        // The cap holds for both routes.
        assert_eq!(resolve_threads(usize::MAX, 2, usize::MAX), MAX_THREADS);
        assert_eq!(resolve_threads(0, 5000, usize::MAX), MAX_THREADS);
        // Never more lanes than indices, never fewer than one.
        assert_eq!(resolve_threads(8, 8, 3), 3);
        assert_eq!(resolve_threads(0, 8, 0), 1);
        assert_eq!(resolve_threads(0, 0, 10), 1);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        for threads in [1, 2, 4] {
            let hits: Vec<AtomicU64> = (0..257).map(|_| AtomicU64::new(0)).collect();
            let complete = for_each_while(threads, hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                true
            });
            assert!(complete, "{threads} threads");
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}, {threads} threads");
            }
        }
    }

    #[test]
    fn empty_range_runs_nothing() {
        assert!(for_each_while(4, 0, |_| panic!("must not run")));
    }

    /// A slow index, so a lane that missed the stop would visibly keep
    /// running.
    fn slow() {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }

    #[test]
    fn a_false_return_stops_further_claims() {
        for threads in [1, 2, 4] {
            let ran = AtomicU64::new(0);
            let complete = for_each_while(threads, 10_000, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                slow();
                i != 5
            });
            assert!(!complete, "{threads} threads");
            let ran = ran.load(Ordering::Relaxed);
            if threads == 1 {
                assert_eq!(ran, 6);
            } else {
                assert!(ran < 10_000, "{ran} indices ran ({threads} threads)");
            }
        }
    }

    #[test]
    fn a_panic_reaches_the_caller_after_the_lanes_stop() {
        for threads in [1, 2, 4] {
            let ran = AtomicU64::new(0);
            let result = catch_unwind(AssertUnwindSafe(|| {
                for_each_while(threads, 10_000, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    slow();
                    assert!(i != 63, "boom at {i}");
                    true
                })
            }));
            let payload = result.expect_err("the panic propagates");
            let message = payload
                .downcast_ref::<String>()
                .expect("the original payload survives");
            assert_eq!(message, "boom at 63");
            // Every lane had stopped when the panic arrived: nothing runs
            // after it.
            let at_panic = ran.load(Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_millis(5));
            assert_eq!(ran.load(Ordering::Relaxed), at_panic, "{threads} threads");
            if threads == 1 {
                assert_eq!(at_panic, 64);
            } else {
                assert!(
                    at_panic < 10_000,
                    "{at_panic} indices ran ({threads} threads)"
                );
            }
        }
    }
}
