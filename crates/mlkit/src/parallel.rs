//! Deterministic work distribution for the search hot paths.
//!
//! Every compile-time loop the paper counts (SA chain updates, surrogate
//! fits, kernel-matrix assembly, candidate scoring) is embarrassingly
//! parallel *per item*, so this module provides exactly one abstraction:
//! an indexed map over scoped worker threads, with results always returned
//! in input order. Workers claim small blocks of consecutive items from a
//! shared counter rather than taking one fixed contiguous chunk each, so a
//! batch of items of uneven cost (such as the six meta-net trainings of
//! glimpse-core's `GlimpseArtifacts::train_with`, one item per block) keeps
//! every worker busy until the last block is claimed.
//!
//! **Determinism contract:** callers must make each item's computation a
//! pure function of `(index, item)` — per-item randomness is derived by
//! seed-splitting (see [`crate::stats::child_rng`]), never by sharing an
//! RNG across items. Under that discipline the output is bit-identical for
//! every worker count, so `GLIMPSE_THREADS=1` and `GLIMPSE_THREADS=64`
//! replay the same tuning trajectory.
//!
//! Worker-count resolution order (first set wins):
//!
//! 1. an explicit [`Threads::fixed`] at the call site,
//! 2. the process-wide override installed by [`set_default_threads`]
//!    (plumbed from the CLI `--threads` flag),
//! 3. the `GLIMPSE_THREADS` environment variable,
//! 4. [`std::thread::available_parallelism`].
//!
//! Requests from layers 2 and 3 are clamped to the machine's available
//! parallelism: asking for 8 workers on a 1-core box would only add
//! scheduling overhead to a compute-bound fan-out (the throughput harness
//! recorded multi-thread *slower* than single under exactly that
//! oversubscription). Only [`Threads::fixed`] bypasses the clamp — it is
//! the call site saying it knows better (tests pinning determinism at
//! thread counts above the core count rely on this).

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker-count override (0 = unset).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Environment variable consulted when no explicit count is set.
pub const THREADS_ENV: &str = "GLIMPSE_THREADS";

/// Installs a process-wide worker-count override (0 restores auto).
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::SeqCst);
}

/// The current process-wide override (0 = unset).
#[must_use]
pub fn default_threads() -> usize {
    DEFAULT_THREADS.load(Ordering::SeqCst)
}

/// Parses a `GLIMPSE_THREADS`-style value; `None` for unset/invalid/zero.
#[must_use]
pub fn parse_threads(value: &str) -> Option<usize> {
    match value.trim().parse::<usize>() {
        Ok(0) | Err(_) => None,
        Ok(n) => Some(n),
    }
}

/// A worker-count request: either auto-resolved or pinned at the call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads(usize);

impl Threads {
    /// Resolve from override, environment, then available parallelism.
    pub const AUTO: Threads = Threads(0);

    /// Exactly `n` workers (`0` behaves like [`Threads::AUTO`]).
    #[must_use]
    pub const fn fixed(n: usize) -> Self {
        Self(n)
    }

    /// The concrete worker count (always ≥ 1).
    ///
    /// The process-wide override and `GLIMPSE_THREADS` are clamped to
    /// [`available_workers`]; an explicit [`Threads::fixed`] is not.
    #[must_use]
    pub fn resolve(self) -> usize {
        if self.0 > 0 {
            return self.0;
        }
        let cap = available_workers();
        let global = default_threads();
        if global > 0 {
            return global.min(cap);
        }
        if let Ok(value) = std::env::var(THREADS_ENV) {
            if let Some(n) = parse_threads(&value) {
                return n.min(cap);
            }
        }
        cap
    }
}

/// The machine's available parallelism (≥ 1): the cap applied to every
/// auto-resolved worker-count request, and what the bench harness records
/// as the *effective* count next to the *requested* one.
#[must_use]
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl Default for Threads {
    fn default() -> Self {
        Self::AUTO
    }
}

/// Maps `f(index, &item)` over `items` on up to `threads` scoped workers,
/// returning results in input order.
///
/// The items are cut into blocks of consecutive indices, about
/// `BLOCKS_PER_WORKER` per worker (so each of a handful of items is a
/// block of its own). Each worker claims the next block from one counter,
/// so items of uneven cost keep every worker busy, and the blocks are put
/// back in input order after the join. A block rather than a single item
/// is the unit of claim because a claim costs a contended atomic, more
/// than a sub-microsecond item such as one featurization. With one worker
/// (or ≤ 1 item) the loop runs inline on the caller thread as one block. A
/// panic in any worker is resumed on the caller thread.
///
/// # Examples
///
/// ```
/// use glimpse_mlkit::parallel::{parallel_map, Threads};
///
/// let squares = parallel_map(Threads::fixed(4), &[1i64, 2, 3, 4, 5], |_, x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
///
/// Rule D3: the `Fn + Sync` bound rejects a closure that draws from a
/// shared RNG, whose output would depend on the worker count. Derive each
/// item's RNG with [`child_rng`](crate::stats::child_rng)`(seed, index)`
/// inside the closure instead.
///
/// ```compile_fail,E0596
/// use glimpse_mlkit::parallel::{parallel_map, Threads};
/// use rand::rngs::StdRng;
/// use rand::{Rng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let noisy = parallel_map(Threads::fixed(2), &[1.0f64, 2.0], |_, x| x + rng.gen::<f64>());
/// ```
pub fn parallel_map<T, R, F>(threads: Threads, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.resolve().min(n).max(1);
    let block = if workers == 1 { n } else { n.div_ceil(workers * BLOCKS_PER_WORKER) }.max(1);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            // Relaxed: the counter hands out block numbers and publishes
            // nothing; results reach the caller through the scope's join.
            let b = next.fetch_add(1, Ordering::Relaxed);
            let Some(block_items) = items.chunks(block).nth(b) else { break };
            done.push((b, (b * block..).zip(block_items).map(|(i, item)| f(i, item)).collect::<Vec<R>>()));
        }
        done
    };
    let mut parts: Vec<Vec<(usize, Vec<R>)>> = (0..workers).map(|_| Vec::new()).collect();
    if let [only] = parts.as_mut_slice() {
        *only = work();
    } else {
        let work = &work;
        let joined = crossbeam::thread::scope(|s| {
            for part in &mut parts {
                s.spawn(move |_| *part = work());
            }
        });
        if let Err(payload) = joined {
            std::panic::resume_unwind(payload);
        }
    }
    let mut blocks: Vec<(usize, Vec<R>)> = parts.into_iter().flatten().collect();
    if blocks.len() == 1 {
        return blocks.swap_remove(0).1;
    }
    blocks.sort_unstable_by_key(|&(b, _)| b);
    let mut out = Vec::with_capacity(n);
    for (_, results) in blocks {
        out.extend(results);
    }
    out
}

/// Blocks each worker's share of a map is cut into (see [`parallel_map`]).
const BLOCKS_PER_WORKER: usize = 8;

/// Index-only variant of [`parallel_map`]: maps `f(i)` over `0..n`.
pub fn parallel_map_range<R, F>(threads: Threads, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let indices: Vec<usize> = (0..n).collect();
    parallel_map(threads, &indices, |_, &i| f(i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = parallel_map(Threads::fixed(8), &items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn identical_across_worker_counts() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, x: &u64| {
            use rand::Rng;
            let mut rng = crate::stats::child_rng(*x, i as u64);
            rng.gen::<u64>()
        };
        let one = parallel_map(Threads::fixed(1), &items, f);
        for workers in [2, 3, 8, 16] {
            assert_eq!(parallel_map(Threads::fixed(workers), &items, f), one, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<i32> = Vec::new();
        assert!(parallel_map(Threads::fixed(4), &empty, |_, x| *x).is_empty());
        assert_eq!(parallel_map(Threads::fixed(4), &[7], |_, x| *x), vec![7]);
    }

    #[test]
    fn range_variant_matches_slice_variant() {
        let out = parallel_map_range(Threads::fixed(3), 10, |i| i * i);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = parallel_map(Threads::fixed(64), &[1, 2, 3], |_, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(Threads::fixed(2), &[0, 1, 2, 3], |_, &x| {
                assert!(x != 2, "boom");
                x
            })
        });
        assert!(caught.is_err());
    }

    #[test]
    fn uneven_items_keep_input_order_at_any_worker_count() {
        // Item cost falls steeply with the index, so the early items are
        // still running while the later ones are claimed and finished.
        let items: Vec<u64> = (0..40).collect();
        let f = |i: usize, x: &u64| {
            let spins = if i < 3 { 200_000 } else { 50 };
            let mut acc = *x;
            for k in 0..spins {
                acc = std::hint::black_box(acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k));
            }
            (i, acc)
        };
        let one = parallel_map(Threads::fixed(1), &items, f);
        assert!(one.iter().enumerate().all(|(i, (j, _))| i == *j));
        for workers in [3, 8] {
            assert_eq!(parallel_map(Threads::fixed(workers), &items, f), one, "workers={workers}");
        }
    }

    #[test]
    fn panic_in_the_last_item_propagates() {
        let items: Vec<usize> = (0..17).collect();
        for workers in [1usize, 3, 8] {
            let caught = std::panic::catch_unwind(|| {
                parallel_map(Threads::fixed(workers), &items, |i, &x| {
                    assert!(i != items.len() - 1, "boom");
                    x
                })
            });
            assert!(caught.is_err(), "workers={workers}");
        }
    }

    #[test]
    fn parse_threads_rejects_junk() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 12 "), Some(12));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-3"), None);
        assert_eq!(parse_threads("many"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn fixed_wins_over_global_override() {
        assert_eq!(Threads::fixed(5).resolve(), 5);
        assert!(Threads::AUTO.resolve() >= 1);
    }

    #[test]
    fn auto_resolution_never_oversubscribes() {
        // Whatever the global override says (other tests mutate it
        // concurrently), an AUTO resolution must never exceed the machine's
        // available parallelism — only Threads::fixed may oversubscribe.
        let cap = available_workers();
        assert!(cap >= 1);
        assert!(Threads::AUTO.resolve() <= cap);
        assert_eq!(Threads::fixed(cap + 7).resolve(), cap + 7, "fixed bypasses the clamp");
    }

    #[test]
    fn global_override_is_clamped_to_available_parallelism() {
        // Serialize against other tests that flip the global override by
        // checking the invariant rather than an exact count: a huge request
        // resolves to at most the cap.
        let before = default_threads();
        set_default_threads(1_000_000);
        let resolved = Threads::AUTO.resolve();
        set_default_threads(before);
        assert!(resolved <= 1_000_000);
        assert!(
            resolved <= available_workers() || resolved != 1_000_000,
            "a requested 1,000,000 workers must be clamped (resolved {resolved})"
        );
    }
}
