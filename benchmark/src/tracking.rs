//! The in-process tracking stream of the traced run.
//!
//! One thread drives `StreamingTracker::with_lss(TrackerConfig::metro(seed))`
//! over `metro-250-mobile` traces (random walk, light churn): [`TRACES`]
//! independent traces of [`TICKS`] ticks each, every one started from a
//! reset tracker. One trace's tick cost and error depend on its
//! trajectory (its CG iteration counts differ by ±15% from the next
//! trace's), so the pass spans many. It is the no-wire twin of
//! `serve-mixed`'s stream: a codec or queue change leaves it flat.
//!
//! It is not a workload of its own: over ten runs its tick latency
//! flipped between two levels (0.6 and 1.0 ms) from one process to the
//! next on the shared dev box, wider than any bound the benchmark may
//! set. The traced run reports its layer instead.

use std::time::Instant;

use rl_core::eval::evaluate_absolute;
use rl_core::tracking::{
    solution_fingerprint, StreamingTracker, TickObservation, Tracker, TrackerConfig,
};
use rl_deploy::mobility::{self, MobilityTrace};

use crate::stats::{mean, median, Report};
use crate::{secs, Args, SETUP_REPEATS};

/// The mobility preset the stream replays.
pub const MOBILITY_PRESET: &str = "metro-250-mobile";

/// Independent traces per pass.
pub const TRACES: usize = 16;

/// Ticks per trace: 61 warm ticks follow each trace's cold first tick,
/// and all traces together (~50 KB a tick) stay small in memory.
pub const TICKS: usize = 62;

/// Generates one trace.
pub fn generate(preset: &str, ticks: usize, seed: u64) -> MobilityTrace {
    mobility::preset(preset)
        .expect("the benchmark names a registered mobility preset")
        .with_ticks(ticks)
        .trace(seed)
}

/// The pass's traces: the first seeded by the workload seed itself, the
/// rest by derived seeds.
pub fn generate_all(seed: u64) -> Vec<MobilityTrace> {
    let mut seeds = vec![seed];
    seeds.extend(crate::derived_seeds(seed, 0x7472_6163_6500, TRACES - 1));
    seeds
        .into_iter()
        .map(|s| generate(MOBILITY_PRESET, TICKS, s))
        .collect()
}

/// The stream's tracker.
pub fn tracker(seed: u64) -> StreamingTracker {
    StreamingTracker::with_lss(TrackerConfig::metro(seed))
}

/// What one `observe` call did.
#[derive(Debug, Clone, PartialEq)]
pub struct Tick {
    /// Wall seconds of `observe` alone.
    pub wall_s: f64,
    /// Whether the warm path answered.
    pub warm: bool,
    /// Solution fingerprint.
    pub fingerprint: u64,
    /// Inner CG iterations of a warm tick.
    pub cg_iterations: Option<usize>,
    /// Active nodes this tick.
    pub active: usize,
}

/// Feeds one observation; errors when the tracker rejects it.
pub fn observe(tracker: &mut StreamingTracker, obs: &TickObservation) -> Result<Tick, String> {
    let warm_before = tracker.warm_updates();
    let start = Instant::now();
    let solution = tracker
        .observe(obs)
        .map_err(|e| format!("tick {} failed: {e}", obs.tick))?;
    let wall_s = secs(start);
    let fingerprint = solution_fingerprint(solution);
    let cg_iterations = solution.stats().cg_iterations;
    Ok(Tick {
        wall_s,
        warm: tracker.warm_updates() > warm_before,
        fingerprint,
        cg_iterations,
        active: obs.active.len(),
    })
}

/// Mean error of the tracker's latest solution against the tick's truth.
fn tick_error(tracker: &StreamingTracker, obs: &TickObservation) -> Result<f64, String> {
    let solution = tracker.latest().ok_or("no solution after a tick")?;
    let truth = obs.truth.as_ref().ok_or("mobility traces carry truth")?;
    evaluate_absolute(solution.positions(), truth)
        .map(|e| e.mean_error)
        .map_err(|e| format!("tick {} unevaluable: {e}", obs.tick))
}

/// One pass over every trace, each from a reset tracker. The first pass
/// records reference fingerprints and errors, indexed by tick across
/// all traces; a later pass checks every tick against them.
fn pass(
    tracker: &mut StreamingTracker,
    traces: &[MobilityTrace],
    reference: &mut Vec<u64>,
    errors: &mut Vec<f64>,
    report: &mut Report,
) -> Vec<Tick> {
    let first = reference.is_empty();
    let mut ticks = Vec::new();
    let observations = traces.iter().flat_map(|trace| trace.iter());
    for (i, obs) in observations.enumerate() {
        if obs.tick == 0 {
            tracker.reset();
        }
        report.attempt(1);
        match observe(tracker, obs) {
            Ok(tick) => {
                if first {
                    reference.push(tick.fingerprint);
                    match tick_error(tracker, obs) {
                        Ok(e) => errors.push(e),
                        Err(e) => report.inconsistent(e),
                    }
                } else if reference.get(i) != Some(&tick.fingerprint) {
                    report.fail(format!(
                        "replayed tick {i}: fingerprint {:#018x} differs from the first pass",
                        tick.fingerprint
                    ));
                }
                ticks.push(tick);
            }
            Err(e) => {
                if first {
                    reference.push(0);
                }
                report.fail(e);
            }
        }
    }
    ticks
}

/// The traced pass: the traces generated [`SETUP_REPEATS`] times, one
/// untraced pass, then one pass timed by path and checked tick for tick
/// against the first.
pub fn trace(args: &Args) -> Report {
    let mut report = Report::new();
    let mut trace_s = Vec::with_capacity(SETUP_REPEATS);
    let mut traces = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        traces = generate_all(args.seed);
        trace_s.push(secs(start));
    }
    report.median("deploy.trace_s", &trace_s, "s");

    let mut tracker = tracker(args.seed);
    let (mut reference, mut errors) = (Vec::new(), Vec::new());
    let untraced = pass(
        &mut tracker,
        &traces,
        &mut reference,
        &mut errors,
        &mut report,
    );
    let ticks = pass(
        &mut tracker,
        &traces,
        &mut reference,
        &mut errors,
        &mut report,
    );
    record_paths(&ticks, &mut report);
    let p50 = |ticks: &[Tick]| median(&ticks.iter().map(|t| t.wall_s * 1e3).collect::<Vec<_>>());
    if let (Some(t), Some(u), Some(error)) = (p50(&ticks), p50(&untraced), mean(&errors)) {
        report.notes.push(format!(
            "overhead tick_p50_ms (in-process stream): traced {t:.4} ms, untraced {u:.4} ms, \
             difference {:+.4} ms ({:+.1}%); mean_error_m {error:.4} m over {} ticks",
            t - u,
            100.0 * (t - u) / u,
            errors.len()
        ));
    }
    report
}

/// The tracking layer's per-path metrics over one pass.
pub fn record_paths(ticks: &[Tick], report: &mut Report) {
    let by_path = |warm: bool| -> Vec<f64> {
        ticks
            .iter()
            .filter(|t| t.warm == warm)
            .map(|t| t.wall_s * 1e3)
            .collect()
    };
    let (warm, cold) = (by_path(true), by_path(false));
    report.median("tracking.warm_tick_ms", &warm, "ms");
    report.median("tracking.cold_tick_ms", &cold, "ms");
    report.metric(
        "tracking.warm_ticks",
        warm.len() as f64,
        "count",
        ticks.len(),
    );
    report.metric(
        "tracking.cold_ticks",
        cold.len() as f64,
        "count",
        ticks.len(),
    );
    let active: Vec<f64> = ticks.iter().map(|t| t.active as f64).collect();
    report.mean("tracking.active_nodes", &active, "count");
    let cg: Vec<f64> = ticks
        .iter()
        .filter(|t| t.warm)
        .filter_map(|t| t.cg_iterations.map(|c| c as f64))
        .collect();
    report.mean("refine.warm_cg_iters", &cg, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paths(seed: u64) -> (Vec<bool>, Vec<u64>) {
        let trace = generate("town-mobile", 12, seed);
        let mut tracker = tracker(seed);
        let ticks: Vec<Tick> = trace
            .iter()
            .map(|obs| observe(&mut tracker, obs).unwrap())
            .collect();
        (
            ticks.iter().map(|t| t.warm).collect(),
            ticks.iter().map(|t| t.fingerprint).collect(),
        )
    }

    #[test]
    fn tick_paths_and_fingerprints_repeat_at_one_seed() {
        let (warm, fingerprints) = paths(11);
        assert!(!warm[0], "the first tick is cold");
        assert!(warm[1..].iter().any(|&w| w), "later ticks go warm");
        assert_eq!((warm, fingerprints), paths(11));
    }

    #[test]
    fn replays_match_the_first_pass() {
        let traces = [generate("town-mobile", 6, 3), generate("town-mobile", 4, 5)];
        let mut tracker = tracker(3);
        let mut report = Report::new();
        let (mut reference, mut errors) = (Vec::new(), Vec::new());
        let first = pass(
            &mut tracker,
            &traces,
            &mut reference,
            &mut errors,
            &mut report,
        );
        let again = pass(
            &mut tracker,
            &traces,
            &mut reference,
            &mut errors,
            &mut report,
        );
        assert!(report.correct, "{}", report.lines());
        assert_eq!((first.len(), again.len(), errors.len()), (10, 10, 10));
        assert_eq!(report.attempted, 20);
        assert_eq!(
            again.iter().filter(|t| !t.warm).count(),
            2,
            "each trace starts cold"
        );
    }
}
