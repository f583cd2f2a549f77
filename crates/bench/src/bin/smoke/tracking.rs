//! The tracking suite: warm-started streaming against per-tick cold
//! re-solves, and replay across worker counts.

use rl_bench::experiments::tracking::{run_stream, warm_vs_cold, ALWAYS_COLD};
use rl_bench::gate::Suite;
use rl_bench::MASTER_SEED;
use rl_core::distributed::{DistributedConfig, DistributedSolver};
use rl_core::tracking::{StreamingTracker, TrackerConfig};
use rl_deploy::mobility::MobilityScenario;

/// Metro-250 trace length. Long enough that the warm path dominates the
/// mean, short enough that the cold arm (a full batch LSS per tick)
/// stays inside the wall budget.
const METRO_TICKS: usize = 10;

/// Town-scale replay trace length for the worker-count gate (every tick
/// is a cold distributed solve, the expensive arm).
const REPLAY_TICKS: usize = 3;

/// Per-tick fingerprints of a forced-cold tracker whose cold engine is
/// distributed LSS, the solver whose internals shard across a pool.
fn replay_fingerprints(workers: usize) -> Vec<u64> {
    let trace = MobilityScenario::town(MASTER_SEED)
        .with_ticks(REPLAY_TICKS)
        .trace(MASTER_SEED);
    let cold = DistributedSolver::new(DistributedConfig::metro().with_workers(workers));
    let mut tracker = StreamingTracker::new(
        TrackerConfig::new(MASTER_SEED).with_churn_restart_fraction(ALWAYS_COLD),
        Box::new(cold),
    );
    run_stream(&mut tracker, &trace).fingerprints
}

/// The warm tracker and a forced-cold reference over the same metro-250
/// trace: warm ticks must be ≥ 3× faster at ≤ 1.25× the cold stream's
/// mean error, and a town replay must be bit-identical at 1 and 2
/// workers.
pub fn tracking(suite: &mut Suite) {
    let scenario = MobilityScenario::metro_250(MASTER_SEED).with_ticks(METRO_TICKS);
    let (warm, cold) = warm_vs_cold(&scenario, MASTER_SEED);
    let warm_tick = warm.mean_wall(true).expect("warm stream has warm ticks");
    let cold_tick = cold.mean_wall(false).expect("cold stream has cold ticks");
    println!(
        "metro-250 stream ({METRO_TICKS} ticks): warm {warm_tick:.2?}/tick ({} warm, {} cold), \
         cold re-solve {cold_tick:.2?}/tick; error warm {:.3} m vs cold {:.3} m",
        warm.warm_updates,
        warm.cold_solves,
        warm.mean_error(),
        cold.mean_error(),
    );
    suite.at_least(
        "warm-speedup",
        cold_tick.as_secs_f64() / warm_tick.as_secs_f64().max(1e-9),
        3.0,
    );
    suite.at_most(
        "warm-error-ratio",
        warm.mean_error() / cold.mean_error().max(1e-9),
        1.25,
    );
    suite.check(
        "replay-1-vs-2-workers-identical",
        replay_fingerprints(1) == replay_fingerprints(2),
    );
}
