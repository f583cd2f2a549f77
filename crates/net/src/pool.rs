//! A deterministic worker pool for per-node computation phases.
//!
//! Many phases are loops whose iterations only read shared inputs, so
//! this module shards them across `std::thread` workers. Its consumers:
//!
//! * distributed LSS's local phase, where every node solves its own
//!   local map before any message is exchanged on [`crate::Simulator`];
//! * the `rl-bench` campaign runner, which shards its grid of cells;
//! * MDS-MAP in `rl_core::mds`: geodesic completion (blocks of Dijkstra
//!   sources written in place into the one `n x n` table) and the
//!   eigensolve's double-centered operator products (blocks of rows).
//!   Centralized LSS inherits both through its MDS-MAP seed;
//! * `rl_core::multilateration`: one fix per node per round, which
//!   DV-hop inherits through its multilateration phase;
//! * `rl_deploy::mobility` traces, which size their measuring threads
//!   with [`resolve_workers`] and feed them each tick through a channel
//!   as the serial motion pass produces it (a pipeline this module's
//!   index-based maps cannot express); the same contract holds, and
//!   results are placed by tick.
//!
//! The `rl_core` and `rl_deploy` consumers ask for the machine's
//! parallelism only at sparse scale (`n >= SolverBackend::AUTO_THRESHOLD`,
//! 100 nodes, through `rl_core::problem::pool_workers`) and run serially
//! below it. So paper-scale solves and traces stay on one thread, and the
//! distributed local maps (all under 100 nodes) never spawn threads
//! inside the distributed pool's own workers. `Scenario::instantiate`
//! never pools, because the campaign runner calls it inside its workers,
//! and no caller generates a trace inside a pool worker.
//!
//! Every consumer relies on one contract:
//!
//! **The output is bit-identical for any worker count.** [`par_map_indexed`]
//! and [`par_for_each_mut`] require `f(i, …)` to be a pure function of
//! the index `i` and the captured (shared, immutable) inputs — any
//! randomness must come from a stream derived from `i`, never from a
//! generator shared across calls — and they place results by index
//! regardless of which worker computed what. This is clause 5 of the
//! `rl_math::rng` seeding contract.

use std::sync::Mutex;

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
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    par_for_each_mut(&mut slots, workers, |i, slot| *slot = Some(f(i)));
    slots
        .into_iter()
        .map(|slot| slot.expect("every slot is filled"))
        .collect()
}

/// Calls `f(i, &mut items[i])` for every item on a pool of `workers`
/// threads (resolved by [`resolve_workers`]).
///
/// Each call owns one item exclusively, so a caller can hand out
/// disjoint `&mut` slices of one preallocated buffer (blocks of rows of
/// a table, say) and let every worker write its results in place. Under
/// the same contract as [`par_map_indexed`] — `f(i, item)` depends only
/// on `i`, the item and immutable captured state — the items end up
/// **bit-identical for any worker count**; `workers == 1` runs inline.
///
/// # Panics
///
/// Propagates panics from `f` (the pool joins all workers first).
///
/// # Example
///
/// ```
/// use rl_net::pool::par_for_each_mut;
///
/// let mut table = vec![0u64; 10];
/// let mut rows: Vec<&mut [u64]> = table.chunks_mut(3).collect();
/// par_for_each_mut(&mut rows, 2, |block, row| row.fill(block as u64));
/// assert_eq!(table, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
/// ```
pub fn par_for_each_mut<T, F>(items: &mut [T], workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let workers = resolve_workers(workers, items.len());
    if workers <= 1 {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    // Scheduling decides only who computes which item; every item is
    // written by exactly one call, so the outcome is schedule-independent.
    let queue = Mutex::new(items.iter_mut().enumerate());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = queue.lock().expect("pool queue poisoned").next();
                match next {
                    Some((i, item)) => f(i, item),
                    None => break,
                }
            });
        }
    });
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
    fn for_each_mut_fills_disjoint_blocks_for_any_worker_count() {
        // 10 rows in blocks of 3: the last block is short.
        let run = |workers: usize| -> Vec<u64> {
            let mut table = vec![0u64; 10 * 4];
            let mut blocks: Vec<&mut [u64]> = table.chunks_mut(3 * 4).collect();
            par_for_each_mut(&mut blocks, workers, |b, block| {
                for (k, v) in block.iter_mut().enumerate() {
                    *v = (b * 3 * 4 + k) as u64 * 7;
                }
            });
            table
        };
        let reference = run(1);
        assert_eq!(reference, (0..40).map(|k| k * 7).collect::<Vec<u64>>());
        for workers in [2, 3, 8] {
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
