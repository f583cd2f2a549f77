//! A deterministic worker pool for per-node computation phases.
//!
//! Protocols simulated on [`crate::Simulator`] often have a *computation*
//! phase before any message is exchanged — in distributed LSS every node
//! solves its own local map, which at metro scale dominates the whole
//! protocol's wall time. Those per-node computations are embarrassingly
//! parallel (each node only reads shared inputs), so this module shards
//! them across `std::thread` workers (the `rl-bench` campaign runner
//! shards its grid on the same pool), under one contract:
//!
//! **The output is bit-identical for any worker count.** [`par_map_indexed`]
//! requires `f(i)` to be a pure function of the index `i` and the captured
//! (shared, immutable) inputs — any randomness must come from a stream
//! derived from `i`, never from a generator shared across calls — and it
//! returns results in index order regardless of which worker computed
//! what. This is clause 5 of the `rl_math::rng` seeding contract applied
//! to the simulator's setup phase.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested worker count: `0` means "the machine's available
/// parallelism", and the pool is never larger than the number of items.
pub fn resolve_workers(requested: usize, items: usize) -> usize {
    let requested = if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    requested.clamp(1, items.max(1))
}

/// Maps `f` over `0..n` on a pool of `workers` threads (resolved by
/// [`resolve_workers`]), returning `vec![f(0), f(1), …, f(n-1)]`.
///
/// `f(i)` must depend only on `i` and immutable captured state; under
/// that contract the result is **bit-identical for any worker count**,
/// including the serial `workers == 1` path (which calls `f` inline with
/// no thread machinery at all).
///
/// # Panics
///
/// Propagates panics from `f` (the pool joins all workers first).
///
/// # Example
///
/// ```
/// use rl_net::pool::par_map_indexed;
///
/// let serial: Vec<u64> = par_map_indexed(100, 1, |i| (i as u64) * 3 + 1);
/// let pooled: Vec<u64> = par_map_indexed(100, 4, |i| (i as u64) * 3 + 1);
/// assert_eq!(serial, pooled);
/// ```
pub fn par_map_indexed<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = resolve_workers(workers, n);
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    // Scheduling decided only who computed what; index order is restored
    // here so the output is schedule-independent.
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_index_order() {
        let out = par_map_indexed(10, 3, |i| i * i);
        assert_eq!(out, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert_eq!(par_map_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn worker_count_never_changes_the_output() {
        // Each item draws from its own derived stream — the contract the
        // distributed local-solve phase relies on.
        let run = |workers: usize| -> Vec<u64> {
            par_map_indexed(37, workers, |i| {
                use rand::Rng;
                let mut rng =
                    rl_math::rng::seeded(0xFEED ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9));
                rng.random::<u64>()
            })
        };
        let reference = run(1);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn resolve_workers_clamps() {
        assert_eq!(resolve_workers(4, 2), 2);
        assert_eq!(resolve_workers(4, 100), 4);
        assert_eq!(resolve_workers(1, 0), 1);
        assert!(resolve_workers(0, 100) >= 1);
    }
}
