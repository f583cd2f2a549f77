//! Golden pins for one mobility trajectory and its tracked solutions.
//!
//! PR 8 added the time-stepped mobility layer (`rl_deploy::mobility`) and
//! the warm-started tracker (`rl_core::tracking`). These pins freeze one
//! town-scale trajectory — per-tick observation fingerprints straight off
//! the vendored xoshiro256++ stream, plus the tracker's per-tick solution
//! fingerprints on that trajectory. Any change to the draw order inside
//! `MobilityScenario::trace` (churn, motion, measurement sub-streams), to
//! the measurement remap, or to the tracker's cold/warm paths shows up
//! here as a bit-level diff before it can silently re-run every archived
//! tracking benchmark on different data.
//!
//! The pins were re-generated when every scenario moved onto the single
//! `RangingChannel` measurement path (the paper's recipe as
//! `RangingChannel::paper()`), which changed each tick's measurement
//! draws.
//!
//! Golden values hash output driven by the vendored xoshiro256++ stream
//! and are not portable to upstream `rand`.

use resilient_localization::prelude::*;
use rl_deploy::mobility::observation_fingerprint;

/// Per-tick observation fingerprints of
/// `MobilityScenario::town(2005).with_ticks(4).trace(2005)` — default
/// motion (random walk, 0.5 m steps) and light churn.
const GOLDEN_TOWN_OBSERVATIONS: [u64; 4] = [
    0x1877_0933_99d1_5631,
    0xb2e2_bdce_6866_e0ea,
    0x78a7_d61f_c9b2_5259,
    0x0169_6ff3_6006_d347,
];

/// Per-tick solution fingerprints of a default warm-started
/// `StreamingTracker` (seed 2005, LSS cold engine) consuming that same
/// trajectory: tick 0 is the cold bootstrap, ticks 1..4 are warm updates.
/// Re-generated when the cold bootstrap's MDS-MAP seed moved onto the
/// iterative eigensolve and warm updates began warm-starting their CG
/// solves, and again when that eigensolve became one restarted block
/// Krylov loop, and again when anchored LSS (the cold engine) began
/// ending in the hard-pinned Gauss–Newton polish instead of a spring
/// descent — the warm ticks move with the cold tick they start from.
const GOLDEN_TOWN_SOLUTIONS: [u64; 4] = [
    0x9d10_5e25_385e_42ff,
    0xb8ee_1c09_93bb_13d3,
    0xe193_7c41_62b1_6d12,
    0x61ec_c8b7_a251_949a,
];

fn golden_trace() -> MobilityTrace {
    MobilityScenario::town(2005).with_ticks(4).trace(2005)
}

#[test]
fn town_trajectory_fingerprints_are_unchanged() {
    let trace = golden_trace();
    assert_eq!(trace.len(), GOLDEN_TOWN_OBSERVATIONS.len());
    for (obs, expected) in trace.iter().zip(GOLDEN_TOWN_OBSERVATIONS) {
        assert_eq!(
            observation_fingerprint(obs),
            expected,
            "trajectory diverged at tick {}: got {:#018x}",
            obs.tick,
            observation_fingerprint(obs)
        );
    }
}

#[test]
fn tracked_solution_fingerprints_are_unchanged() {
    let trace = golden_trace();
    let mut tracker = StreamingTracker::with_lss(TrackerConfig::new(2005));
    for (obs, expected) in trace.iter().zip(GOLDEN_TOWN_SOLUTIONS) {
        let solution = tracker.observe(obs).expect("golden trace solves");
        assert_eq!(
            solution_fingerprint(solution),
            expected,
            "tracked solution diverged at tick {}: got {:#018x}",
            obs.tick,
            solution_fingerprint(solution)
        );
    }
    assert_eq!(tracker.cold_solves(), 1, "tick 0 is the only cold solve");
    assert_eq!(tracker.warm_updates(), 3);
}
