//! Online tracking: warm-started incremental updates vs cold re-solves
//! on mobility streams.
//!
//! The paper's evaluation is batch: one measurement set, one solve. The
//! tracking layer ([`rl_core::tracking`]) turns that into a stream —
//! this experiment measures what the stream buys. A
//! [`StreamingTracker`] consumes a [`MobilityScenario`] trace twice:
//! once warm (previous solution as seed, a few Gauss–Newton steps per
//! tick) and once forced cold (a from-scratch batch solve every tick,
//! seeded identically via [`rl_core::tracking::cold_seed`]). Sustained
//! updates/sec and per-tick error are reported side by side at town and
//! metro-250 scale. The metro-250 stream is gated (warm ticks ≥ 3× faster
//! than cold at ≤ 1.25× the cold error), and so is replay: a town stream
//! solved cold by distributed LSS gives the same fingerprints at 1 and 2
//! workers.

use std::time::Duration;

use rl_core::distributed::{DistributedConfig, DistributedSolver};
use rl_core::eval::evaluate_absolute;
use rl_core::tracking::{solution_fingerprint, StreamingTracker, Tracker, TrackerConfig};
use rl_deploy::mobility::{MobilityScenario, MobilityTrace};

use super::ExperimentResult;
use crate::gate::Gate;
use crate::Table;

/// A churn-restart threshold no churn fraction can satisfy: with it, the
/// warm seed is never declared valid and **every** tick is solved cold —
/// the reference arm of the warm-vs-cold comparison.
const ALWAYS_COLD: f64 = f64::NEG_INFINITY;

/// Metro-250 trace length. Long enough that the warm path dominates the
/// mean, short enough that the cold arm (a full batch LSS per tick)
/// stays cheap.
const METRO_TICKS: usize = 10;

/// Town-scale replay trace length for the worker-count gate (every tick
/// is a cold distributed solve, the expensive arm).
const REPLAY_TICKS: usize = 3;

/// Per-stream aggregates of one tracker pass over one trace.
#[derive(Debug, Clone)]
struct StreamRun {
    /// Ticks consumed.
    ticks: usize,
    /// Ticks answered by the warm incremental path.
    warm_updates: u64,
    /// Ticks answered by the cold fallback.
    cold_solves: u64,
    /// Per-tick solve wall time, index = tick.
    wall: Vec<Duration>,
    /// Whether each tick went through the warm path.
    warm: Vec<bool>,
    /// Per-tick mean localization error against that tick's ground
    /// truth, meters.
    error_m: Vec<f64>,
    /// Per-tick solution fingerprints (bit-exact replay digests).
    fingerprints: Vec<u64>,
}

impl StreamRun {
    /// Mean wall time over the ticks selected by `warm_path`
    /// (`true` = warm ticks, `false` = cold ticks), or `None` when no
    /// tick took that path.
    fn mean_wall(&self, warm_path: bool) -> Option<Duration> {
        let selected: Vec<&Duration> = self
            .wall
            .iter()
            .zip(&self.warm)
            .filter(|(_, &w)| w == warm_path)
            .map(|(d, _)| d)
            .collect();
        if selected.is_empty() {
            return None;
        }
        Some(selected.iter().copied().sum::<Duration>() / selected.len() as u32)
    }

    /// Mean per-tick localization error over the whole stream, meters.
    fn mean_error(&self) -> f64 {
        if self.error_m.is_empty() {
            return f64::NAN;
        }
        self.error_m.iter().sum::<f64>() / self.error_m.len() as f64
    }
}

/// Drives `tracker` through every tick of `trace`, recording per-tick
/// wall time, path (warm/cold), error against ground truth, and the
/// bit-exact solution fingerprint.
///
/// # Panics
///
/// Panics if any tick fails to solve or to evaluate — the mobility
/// traces this experiment builds are connected by construction, so a
/// failure is a tracking-layer bug, not a workload property.
fn run_stream(tracker: &mut StreamingTracker, trace: &MobilityTrace) -> StreamRun {
    let mut run = StreamRun {
        ticks: 0,
        warm_updates: 0,
        cold_solves: 0,
        wall: Vec::with_capacity(trace.len()),
        warm: Vec::with_capacity(trace.len()),
        error_m: Vec::with_capacity(trace.len()),
        fingerprints: Vec::with_capacity(trace.len()),
    };
    for obs in trace.iter() {
        let warm_before = tracker.warm_updates();
        let (wall, fingerprint, error_m) = {
            let solution = tracker
                .observe(obs)
                .unwrap_or_else(|e| panic!("tick {} failed: {e}", obs.tick));
            let truth = obs.truth.as_ref().expect("mobility traces carry truth");
            let eval = evaluate_absolute(solution.positions(), truth)
                .unwrap_or_else(|e| panic!("tick {} unevaluable: {e}", obs.tick));
            (
                solution.stats().wall_time,
                solution_fingerprint(solution),
                eval.mean_error,
            )
        };
        run.wall.push(wall);
        run.warm.push(tracker.warm_updates() > warm_before);
        run.fingerprints.push(fingerprint);
        run.error_m.push(error_m);
        run.ticks += 1;
    }
    run.warm_updates = tracker.warm_updates();
    run.cold_solves = tracker.cold_solves();
    run
}

/// Runs the warm-vs-cold pair on one mobility scenario: the same trace,
/// the same per-tick cold seeds, one tracker warm-started and one forced
/// cold. Returns `(warm, cold)`.
fn warm_vs_cold(scenario: &MobilityScenario, seed: u64) -> (StreamRun, StreamRun) {
    let trace = scenario.trace(seed);
    let mut warm = StreamingTracker::with_lss(TrackerConfig::new(seed));
    let mut cold = StreamingTracker::with_lss(
        TrackerConfig::new(seed).with_churn_restart_fraction(ALWAYS_COLD),
    );
    (run_stream(&mut warm, &trace), run_stream(&mut cold, &trace))
}

/// Per-tick fingerprints of a forced-cold town tracker whose cold engine
/// is distributed LSS, the solver whose internals shard across a pool.
fn replay_fingerprints(seed: u64, workers: usize) -> Vec<u64> {
    let trace = MobilityScenario::town(seed)
        .with_ticks(REPLAY_TICKS)
        .trace(seed);
    let cold = DistributedSolver::new(DistributedConfig::metro().with_workers(workers));
    let mut tracker = StreamingTracker::new(
        TrackerConfig::new(seed).with_churn_restart_fraction(ALWAYS_COLD),
        Box::new(cold),
    );
    run_stream(&mut tracker, &trace).fingerprints
}

/// **TRACKING** — sustained updates/sec and per-tick error of the
/// warm-started tracker vs a cold re-solve every tick, on town- and
/// metro-250-scale mobility streams (random-walk motion + light churn),
/// with the gates in the module docs.
pub fn tracking_stream(seed: u64) -> ExperimentResult {
    let cells = [
        (MobilityScenario::town(seed).with_ticks(16), "town"),
        (
            MobilityScenario::metro_250(seed).with_ticks(METRO_TICKS),
            "metro-250",
        ),
    ];
    let mut table = Table::new(
        "warm-started tracking vs cold re-solve",
        &[
            "stream",
            "ticks",
            "warm_ticks",
            "cold_ticks",
            "warm_ms_per_tick",
            "cold_ms_per_tick",
            "speedup",
            "warm_upd_per_s",
            "warm_err_m",
            "cold_err_m",
            "err_ratio",
        ],
    );
    let mut notes = Vec::new();
    let mut gates = Vec::new();
    for (scenario, label) in cells {
        let (warm, cold) = warm_vs_cold(&scenario, seed);
        let warm_tick = warm
            .mean_wall(true)
            .expect("warm stream has warm ticks")
            .as_secs_f64();
        let cold_tick = cold
            .mean_wall(false)
            .expect("cold stream has cold ticks")
            .as_secs_f64();
        let speedup = cold_tick / warm_tick.max(1e-9);
        let err_ratio = warm.mean_error() / cold.mean_error().max(1e-9);
        table.push(&[
            label.to_string(),
            warm.ticks.to_string(),
            warm.warm_updates.to_string(),
            warm.cold_solves.to_string(),
            format!("{:.2}", warm_tick * 1e3),
            format!("{:.2}", cold_tick * 1e3),
            format!("{speedup:.1}x"),
            format!("{:.0}", 1.0 / warm_tick.max(1e-9)),
            format!("{:.3}", warm.mean_error()),
            format!("{:.3}", cold.mean_error()),
            format!("{err_ratio:.2}"),
        ]);
        notes.push(format!(
            "{label}: warm path solves {:.0} updates/s vs {:.0} cold re-solves/s at {:.2}x the \
             cold error",
            1.0 / warm_tick.max(1e-9),
            1.0 / cold_tick.max(1e-9),
            err_ratio,
        ));
        if label == "metro-250" {
            gates.push(Gate::at_least("metro-250-warm-speedup", speedup, 3.0));
            gates.push(Gate::at_most("metro-250-warm-error-ratio", err_ratio, 1.25));
        }
    }
    gates.push(Gate::check(
        "replay-1-vs-2-workers-identical",
        replay_fingerprints(seed, 1) == replay_fingerprints(seed, 2),
    ));
    let mut result = ExperimentResult::new(
        "TRACKING",
        "warm-started tracking vs cold re-solve on mobility streams (town, metro-250)",
    )
    .with_table(table)
    .with_note(
        "both arms consume the identical trace and identical per-tick cold seeds \
         (rl_core::tracking::cold_seed); the warm arm re-pins anchors and takes 4 bounded \
         Gauss-Newton/CG steps per tick, the cold arm re-solves from scratch every tick",
    );
    result.notes.extend(notes);
    result.gates = gates;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_and_cold_arms_disagree_on_path_but_not_workload() {
        let scenario = MobilityScenario::town(5).with_ticks(4);
        let (warm, cold) = warm_vs_cold(&scenario, 5);
        assert_eq!(warm.ticks, 4);
        assert_eq!(cold.ticks, 4);
        // Warm arm: one cold bootstrap tick, then warm updates.
        assert_eq!(warm.cold_solves, 1);
        assert_eq!(warm.warm_updates, 3);
        // Cold arm: never warm.
        assert_eq!(cold.cold_solves, 4);
        assert_eq!(cold.warm_updates, 0);
        // Tick 0 is the same cold solve in both arms, bit for bit.
        assert_eq!(warm.fingerprints[0], cold.fingerprints[0]);
        // Errors are finite and comparable.
        for run in [&warm, &cold] {
            for e in &run.error_m {
                assert!(e.is_finite() && *e >= 0.0);
            }
        }
        assert!(warm.mean_error() <= cold.mean_error() * 2.0 + 0.5);
    }

    #[test]
    fn stream_runs_replay_bit_identically() {
        let scenario = MobilityScenario::town(9).with_ticks(3);
        let (a, _) = warm_vs_cold(&scenario, 9);
        let (b, _) = warm_vs_cold(&scenario, 9);
        assert_eq!(a.fingerprints, b.fingerprints);
    }
}
