//! Time-stepped mobility scenarios for the tracking layer.
//!
//! A [`Scenario`] is one frozen snapshot; a [`MobilityScenario`] is the
//! same geometry set in motion. Every tick, non-anchor nodes move under a
//! [`MotionModel`], join and leave under a [`ChurnModel`], and the active
//! subnetwork re-measures its ranges through the scenario's
//! [`RangingChannel`](rl_ranging::channel::RangingChannel) (the paper's
//! clean recipe or a degraded stack). The result is a stream of solver-ready
//! [`TickObservation`]s — the input
//! contract of [`rl_core::tracking::Tracker`].
//!
//! # Determinism contract
//!
//! [`MobilityScenario::trace`] carries the same guarantee as
//! [`Scenario::instantiate`]: the same `(scenario, seed)` pair always
//! produces a bit-identical trace. Motion and churn draw from one
//! sequential stream with a **fixed draw order** — every non-anchor
//! draws every tick, active or not — so they run serially, in one pass
//! over the ticks. Each tick's measurement noise draws from its own
//! salted sub-stream (a pure function of `(seed, tick)`), so a tick's
//! measurements never depend on how many pairs were in range on earlier
//! ticks. That makes each tick's measurement a pure function of its
//! index and the serial pass's record of that tick and the one before.
//! So at sparse scale the motion pass overlaps with measurement: it
//! hands each tick to a pool of measuring threads (sized by
//! [`rl_net::pool::resolve_workers`]) as soon as the tick exists, each
//! tick is measured straight into deployment ids
//! ([`RangingChannel::measure_subnetwork`](rl_ranging::channel::RangingChannel::measure_subnetwork)),
//! and the observations are put back in tick order. The trace is
//! bit-identical for any worker count.
//!
//! # Example
//!
//! ```
//! use rl_deploy::mobility::MobilityScenario;
//!
//! let mobile = MobilityScenario::town(7).with_ticks(5);
//! let trace = mobile.trace(1);
//! assert_eq!(trace.len(), 5);
//! // Same seed, bit-identical trace.
//! assert_eq!(mobile.trace(1), trace);
//! for obs in trace.iter() {
//!     assert!(!obs.active.is_empty());
//! }
//! ```

use rand::Rng;
use rl_core::problem::pool_workers;
use rl_core::tracking::TickObservation;
use rl_core::types::Anchor;
use rl_geom::Point2;
use rl_math::rng::{normal, seeded};
use rl_math::Fnv1a;
use rl_net::pool::resolve_workers;
use rl_net::NodeId;
use serde::{Deserialize, Serialize};
use std::sync::{mpsc, Mutex};

use crate::Scenario;

/// Stream salt separating each tick's measurement-noise stream from the
/// motion/churn stream (same sub-stream idiom as the distributed
/// pipeline's per-node salt).
const MEASURE_STREAM: u64 = 0xD1B5_4A32_D192_ED03;

/// How non-anchor nodes move between ticks. Anchors are surveyed
/// infrastructure and never move.
///
/// Serializable so streaming clients can declare their motion model
/// over the wire (`rl-serve`'s `OpenStream` carries one for custom
/// mobility sources).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MotionModel {
    /// Nodes hold their deployment positions (pure-churn scenarios).
    Static,
    /// Independent Gaussian steps: each tick every non-anchor moves by
    /// `N(0, step_m)` in x and y.
    RandomWalk {
        /// Per-axis step standard deviation in meters per tick.
        step_m: f64,
    },
    /// Random-waypoint motion: each node walks toward a uniformly drawn
    /// target inside the deployment's bounding box and draws a new
    /// target on arrival.
    Waypoint {
        /// Travel speed in meters per tick.
        speed_m_per_tick: f64,
    },
}

/// Per-tick join/leave churn over the non-anchor population. Anchors
/// never churn. Serializable for the same wire uses as [`MotionModel`].
/// Both probabilities must lie in `[0, 1]`:
/// [`MobilityScenario::trace`] panics on any other value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnModel {
    /// Probability that an inactive non-anchor rejoins each tick.
    pub join_probability: f64,
    /// Probability that an active non-anchor drops out each tick.
    pub leave_probability: f64,
}

impl ChurnModel {
    /// No churn at all: every node stays active forever.
    pub fn none() -> Self {
        ChurnModel {
            join_probability: 0.0,
            leave_probability: 0.0,
        }
    }

    /// Symmetric light churn: 2% of nodes leave and 2% of the absent
    /// rejoin per tick.
    pub fn light() -> Self {
        ChurnModel {
            join_probability: 0.02,
            leave_probability: 0.02,
        }
    }
}

/// A [`Scenario`] set in motion: motion + churn + per-tick re-measured
/// ranges, producing a deterministic [`MobilityTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityScenario {
    /// The underlying geometry, anchors, and error model.
    pub base: Scenario,
    /// Non-anchor motion model.
    pub motion: MotionModel,
    /// Join/leave churn model.
    pub churn: ChurnModel,
    /// Trace length in ticks.
    pub ticks: usize,
    /// Fraction of non-anchors active on tick 0 (`1.0` = everyone).
    pub initial_active_fraction: f64,
}

impl MobilityScenario {
    /// Wraps a scenario with the default mobility recipe: 0.5 m/tick
    /// random walk, light churn, 30 ticks, everyone initially active.
    pub fn new(base: Scenario) -> Self {
        MobilityScenario {
            base,
            motion: MotionModel::RandomWalk { step_m: 0.5 },
            churn: ChurnModel::light(),
            ticks: 30,
            initial_active_fraction: 1.0,
        }
    }

    /// The paper's 59-node town set in motion with the default recipe.
    pub fn town(seed: u64) -> Self {
        MobilityScenario::new(Scenario::town(seed))
    }

    /// A 250-node metro district grid set in motion with the default
    /// recipe (the tracking benchmark's large cell).
    pub fn metro_250(seed: u64) -> Self {
        MobilityScenario::new(Scenario::metro_sized(250, 0.10, seed))
    }

    /// Replaces the motion model (builder style).
    pub fn with_motion(mut self, motion: MotionModel) -> Self {
        self.motion = motion;
        self
    }

    /// Replaces the churn model (builder style).
    pub fn with_churn(mut self, churn: ChurnModel) -> Self {
        self.churn = churn;
        self
    }

    /// Sets the trace length (builder style).
    pub fn with_ticks(mut self, ticks: usize) -> Self {
        self.ticks = ticks;
        self
    }

    /// Sets the tick-0 active fraction of non-anchors (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn with_initial_active_fraction(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "initial_active_fraction {fraction} outside [0, 1]"
        );
        self.initial_active_fraction = fraction;
        self
    }

    /// Generates the full trace: one [`TickObservation`] per tick, with
    /// ground truth riding along (like [`Scenario::instantiate`]'s
    /// truth) for evaluation and protocol-driven solvers.
    ///
    /// The same `(scenario, seed)` pair always produces a bit-identical
    /// trace. The ticks are measured while the motion pass runs, on as
    /// many threads as [`rl_core::problem::pool_workers`] gives for the
    /// node count (the calling thread alone below sparse scale), with the
    /// same bits at any count.
    ///
    /// # Panics
    ///
    /// Panics if a churn probability lies outside `[0, 1]` and the trace
    /// has more than one tick.
    pub fn trace(&self, seed: u64) -> MobilityTrace {
        self.trace_on(seed, pool_workers(self.base.deployment.len()))
    }

    /// [`MobilityScenario::trace`] with each tick measured on a pool of
    /// `workers` threads (`0` = the machine's parallelism). Motion and
    /// churn run serially on the calling thread and queue each tick's
    /// record as soon as it exists; the other workers measure queued ticks
    /// meanwhile, each on its own salted stream, and the calling thread
    /// joins them once the pass is done. With one worker no thread is
    /// spawned: the pass queues every tick, then the calling thread
    /// measures them in order.
    fn trace_on(&self, seed: u64, workers: usize) -> MobilityTrace {
        let anchors = self.base.anchor_list();
        let (sender, receiver) = mpsc::channel::<TickState>();
        let receiver = Mutex::new(receiver);
        // Measures queued ticks until the queue is empty and closed.
        let drain = || {
            let mut done = Vec::new();
            loop {
                let next = receiver.lock().expect("tick queue poisoned").recv();
                match next {
                    Ok(state) => done.push(self.observe(seed, &anchors, state)),
                    Err(_) => break done,
                }
            }
        };
        let mut observations = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..resolve_workers(workers, self.ticks))
                .map(|_| scope.spawn(drain))
                .collect();
            // The sender moves into the pass, so the queue closes when the
            // pass returns or unwinds, and no helper waits forever.
            self.motion_pass(seed, move |state| {
                sender.send(state).expect("the queue outlives the pass");
            });
            let mut observations = drain();
            for helper in helpers {
                match helper.join() {
                    Ok(done) => observations.extend(done),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            observations
        });
        observations.sort_unstable_by_key(|obs| obs.tick);
        MobilityTrace {
            name: format!("{}-mobile", self.base.name),
            observations,
        }
    }

    /// The serial motion and churn pass: hands every tick's active flags
    /// (and the tick before's) and every node's position to `emit`, in
    /// tick order.
    ///
    /// # Panics
    ///
    /// Panics if a churn probability lies outside `[0, 1]`, on the first
    /// tick that draws churn.
    fn motion_pass(&self, seed: u64, mut emit: impl FnMut(TickState)) {
        let n = self.base.deployment.len();
        let mut is_anchor = vec![false; n];
        for a in &self.base.anchors {
            is_anchor[a.index()] = true;
        }
        let bounds = self
            .base
            .deployment
            .bounding_box()
            .unwrap_or((Point2::new(0.0, 0.0), Point2::new(0.0, 0.0)));

        let mut rng = seeded(seed);
        let mut positions = self.base.deployment.positions.clone();
        let mut active = vec![false; n];
        // Waypoint targets; drawn up front for every non-anchor so the
        // draw order is fixed regardless of the motion model's arrivals.
        let mut targets: Vec<Point2> = Vec::new();
        if let MotionModel::Waypoint { .. } = self.motion {
            targets = (0..n)
                .map(|_| {
                    Point2::new(
                        rng.gen_range(bounds.0.x..=bounds.1.x),
                        rng.gen_range(bounds.0.y..=bounds.1.y),
                    )
                })
                .collect();
        }

        for tick in 0..self.ticks {
            let was_active = active.clone();
            if tick == 0 {
                for (i, slot) in active.iter_mut().enumerate() {
                    *slot = is_anchor[i]
                        || self.initial_active_fraction >= 1.0
                        || rng.gen_bool(self.initial_active_fraction);
                }
            } else {
                let ChurnModel {
                    join_probability,
                    leave_probability,
                } = self.churn;
                assert!(
                    (0.0..=1.0).contains(&join_probability)
                        && (0.0..=1.0).contains(&leave_probability),
                    "churn probabilities {join_probability} and {leave_probability} \
                     must lie in [0, 1]"
                );
                // One churn draw per non-anchor, id order: active nodes
                // test leaving, inactive ones test rejoining. The draw
                // count per tick is constant, so editing the churn rates
                // never shifts the motion stream.
                for i in 0..n {
                    if is_anchor[i] {
                        continue;
                    }
                    if active[i] {
                        if rng.gen_bool(leave_probability) {
                            active[i] = false;
                        }
                    } else if rng.gen_bool(join_probability) {
                        active[i] = true;
                    }
                }
                // Motion applies to every non-anchor — inactive nodes
                // keep wandering while absent, so draw order is fixed
                // and positions stay continuous across a rejoin.
                match self.motion {
                    MotionModel::Static => {}
                    MotionModel::RandomWalk { step_m } => {
                        for (i, p) in positions.iter_mut().enumerate() {
                            if is_anchor[i] {
                                continue;
                            }
                            p.x =
                                (p.x + normal(&mut rng, 0.0, step_m)).clamp(bounds.0.x, bounds.1.x);
                            p.y =
                                (p.y + normal(&mut rng, 0.0, step_m)).clamp(bounds.0.y, bounds.1.y);
                        }
                    }
                    MotionModel::Waypoint { speed_m_per_tick } => {
                        for (i, p) in positions.iter_mut().enumerate() {
                            if is_anchor[i] {
                                continue;
                            }
                            let target = targets[i];
                            let dist = p.distance(target);
                            if dist <= speed_m_per_tick {
                                *p = target;
                                targets[i] = Point2::new(
                                    rng.gen_range(bounds.0.x..=bounds.1.x),
                                    rng.gen_range(bounds.0.y..=bounds.1.y),
                                );
                            } else {
                                let scale = speed_m_per_tick / dist;
                                p.x += (target.x - p.x) * scale;
                                p.y += (target.y - p.y) * scale;
                            }
                        }
                    }
                }
            }
            emit(TickState {
                tick,
                was_active,
                active: active.clone(),
                positions: positions.clone(),
            });
        }
    }

    /// Re-measures one tick's active subnetwork through the scenario's
    /// error stack, on the tick's own salted sub-stream, straight into
    /// deployment ids.
    fn observe(&self, seed: u64, anchors: &[Anchor], state: TickState) -> TickObservation {
        let TickState {
            tick,
            was_active,
            active,
            positions,
        } = state;
        let n = active.len();
        let active_ids: Vec<NodeId> = (0..n).filter(|&i| active[i]).map(NodeId).collect();
        let active_positions: Vec<Point2> =
            active_ids.iter().map(|id| positions[id.index()]).collect();
        let mut tick_rng = seeded(seed ^ (tick as u64 + 1).wrapping_mul(MEASURE_STREAM));
        let measurements =
            self.base
                .channel
                .measure_subnetwork(&active_positions, &active_ids, n, &mut tick_rng);
        let joined: Vec<NodeId> = (0..n)
            .filter(|&i| active[i] && !was_active[i])
            .map(NodeId)
            .collect();
        let left: Vec<NodeId> = (0..n)
            .filter(|&i| !active[i] && was_active[i])
            .map(NodeId)
            .collect();
        TickObservation {
            tick: tick as u64,
            measurements,
            anchors: anchors.to_vec(),
            active: active_ids,
            joined,
            left,
            truth: Some(positions),
        }
    }
}

/// One tick's record from the motion and churn pass.
struct TickState {
    tick: usize,
    /// Active flags on the tick before (all clear on tick 0).
    was_active: Vec<bool>,
    active: Vec<bool>,
    positions: Vec<Point2>,
}

/// Names of every serveable mobility preset, in registry order. Like
/// [`crate::presets::NAMES`] these are the vocabulary `rl-serve` streams
/// speak: a client opening a stream names one of these instead of
/// shipping a scenario over the wire, and both sides agree bit-for-bit
/// on what it means (everything is pinned to
/// [`PRESET_SEED`](crate::presets::PRESET_SEED)).
pub const NAMES: &[&str] = &[
    "town-mobile",
    "town-waypoint",
    "parking-lot-churn",
    "metro-250-mobile",
];

/// Resolves a mobility preset name to its scenario, or `None` for an
/// unknown name.
///
/// * `"town-mobile"` — the paper's 59-node town under the default
///   recipe: 0.5 m/tick random walk with light (2%) churn,
/// * `"town-waypoint"` — the town under 2 m/tick random-waypoint motion
///   with no churn (pure-motion tracking),
/// * `"parking-lot-churn"` — the 15-node parking lot held static under
///   5% join/leave churn (pure-churn tracking),
/// * `"metro-250-mobile"` — the 250-node metro district under the
///   default recipe (the tracking benchmark's large cell).
///
/// Trace lengths are the [`MobilityScenario::new`] default (30 ticks);
/// streaming clients generate exactly as many ticks as they push, so the
/// preset's tick count is a default, not a contract.
pub fn preset(name: &str) -> Option<MobilityScenario> {
    let seed = crate::presets::PRESET_SEED;
    match name {
        "town-mobile" => Some(MobilityScenario::town(seed)),
        "town-waypoint" => Some(
            MobilityScenario::town(seed)
                .with_motion(MotionModel::Waypoint {
                    speed_m_per_tick: 2.0,
                })
                .with_churn(ChurnModel::none()),
        ),
        "parking-lot-churn" => Some(
            MobilityScenario::new(Scenario::parking_lot(seed))
                .with_motion(MotionModel::Static)
                .with_churn(ChurnModel {
                    join_probability: 0.05,
                    leave_probability: 0.05,
                }),
        ),
        "metro-250-mobile" => Some(MobilityScenario::metro_250(seed)),
        _ => None,
    }
}

/// A generated mobility run: one observation per tick, ready to feed a
/// [`Tracker`](rl_core::tracking::Tracker).
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityTrace {
    /// Trace name, derived from the base scenario.
    pub name: String,
    /// Per-tick observations, index = tick.
    pub observations: Vec<TickObservation>,
}

impl MobilityTrace {
    /// Number of ticks.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether the trace has no ticks.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// Iterates the per-tick observations.
    pub fn iter(&self) -> impl Iterator<Item = &TickObservation> + '_ {
        self.observations.iter()
    }
}

/// A bit-exact digest of one tick: truth coordinates, active/joined/left
/// membership, and every weighted measurement. Golden fixtures pin these
/// against the vendored xoshiro256++ stream.
pub fn observation_fingerprint(obs: &TickObservation) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(obs.tick);
    h.write_u64(obs.measurements.node_count() as u64);
    match &obs.truth {
        Some(truth) => {
            h.write_u8(1);
            h.write_u64(truth.len() as u64);
            for p in truth {
                h.write_f64(p.x);
                h.write_f64(p.y);
            }
        }
        None => h.write_u8(0),
    }
    for list in [&obs.active, &obs.joined, &obs.left] {
        h.write_u64(list.len() as u64);
        for id in list {
            h.write_u64(id.index() as u64);
        }
    }
    for a in &obs.anchors {
        h.write_u64(a.id.index() as u64);
        h.write_f64(a.position.x);
        h.write_f64(a.position.y);
    }
    for (a, b, d, w) in obs.measurements.iter_weighted() {
        h.write_u64(a.index() as u64);
        h.write_u64(b.index() as u64);
        h.write_f64(d);
        h.write_f64(w);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MobilityScenario {
        MobilityScenario::town(3).with_ticks(6)
    }

    #[test]
    fn traces_are_bit_deterministic() {
        let m = small();
        let a = m.trace(9);
        let b = m.trace(9);
        assert_eq!(a, b);
        let fp_a: Vec<u64> = a.iter().map(observation_fingerprint).collect();
        let fp_b: Vec<u64> = b.iter().map(observation_fingerprint).collect();
        assert_eq!(fp_a, fp_b);
        assert_ne!(m.trace(10), a, "different seed, different trace");
    }

    #[test]
    fn traces_are_bit_identical_for_any_worker_count() {
        // Every preset: random walk, waypoint motion with its
        // data-dependent target draws, and static motion under churn.
        // Metro-250 gets churn rates that make every tick's active set
        // differ from the last.
        for &name in NAMES {
            let mut m = preset(name).unwrap().with_ticks(24);
            if name == "metro-250-mobile" {
                m = m.with_churn(ChurnModel {
                    join_probability: 0.2,
                    leave_probability: 0.1,
                });
            }
            let serial = m.trace_on(17, 1);
            let fingerprints: Vec<u64> = serial.iter().map(observation_fingerprint).collect();
            for workers in [2, 3] {
                let pooled = m.trace_on(17, workers);
                let pooled_fingerprints: Vec<u64> =
                    pooled.iter().map(observation_fingerprint).collect();
                assert_eq!(
                    pooled_fingerprints, fingerprints,
                    "{name}, {workers} workers"
                );
                assert_eq!(pooled, serial, "{name}, {workers} workers");
            }
            assert_eq!(m.trace(17), serial, "{name}");
            if name != "town-waypoint" {
                assert!(serial.iter().any(|obs| !obs.joined.is_empty()), "{name}");
                assert!(serial.iter().any(|obs| !obs.left.is_empty()), "{name}");
            }
        }
    }

    #[test]
    fn an_invalid_churn_probability_panics_out_of_the_trace() {
        // The pass panics on tick 1, after tick 0 is queued for the pool:
        // the trace must unwind, not leave a worker waiting for ticks.
        for workers in [1, 2, 3] {
            let mut m = preset("metro-250-mobile").unwrap().with_ticks(50);
            m.churn.leave_probability = 1.5;
            let (done, finished) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(|| m.trace_on(3, workers));
                let message = outcome.err().and_then(|panic| {
                    panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                });
                done.send(message).unwrap();
            });
            let message = finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("the trace hung on {workers} workers"));
            let message = message.unwrap_or_else(|| panic!("no panic on {workers} workers"));
            assert!(message.contains("must lie in [0, 1]"), "{message}");
        }
    }

    #[test]
    fn anchors_are_immortal_and_static() {
        let m = small();
        let trace = m.trace(4);
        let start = &m.base.deployment.positions;
        for obs in trace.iter() {
            for id in &m.base.anchors {
                assert!(obs.active.contains(id), "anchor {id:?} inactive");
                let truth = obs.truth.as_ref().unwrap();
                assert_eq!(truth[id.index()], start[id.index()], "anchor {id:?} moved");
            }
        }
    }

    #[test]
    fn churn_deltas_are_consistent() {
        let m = small().with_churn(ChurnModel {
            join_probability: 0.3,
            leave_probability: 0.3,
        });
        let trace = m.trace(11);
        let mut previous: Vec<NodeId> = Vec::new();
        for obs in trace.iter() {
            for id in &obs.joined {
                assert!(obs.active.contains(id) && !previous.contains(id));
            }
            for id in &obs.left {
                assert!(!obs.active.contains(id) && previous.contains(id));
            }
            // active = previous + joined − left, as sets.
            let mut rebuilt: Vec<NodeId> = previous
                .iter()
                .filter(|id| !obs.left.contains(id))
                .chain(obs.joined.iter())
                .copied()
                .collect();
            rebuilt.sort_by_key(|id| id.index());
            assert_eq!(rebuilt, obs.active);
            previous = obs.active.clone();
        }
    }

    #[test]
    fn motion_stays_in_bounds_and_finite() {
        for motion in [
            MotionModel::Static,
            MotionModel::RandomWalk { step_m: 2.0 },
            MotionModel::Waypoint {
                speed_m_per_tick: 3.0,
            },
        ] {
            let m = small().with_motion(motion);
            let (lo, hi) = m.base.deployment.bounding_box().unwrap();
            let trace = m.trace(5);
            for obs in trace.iter() {
                for p in obs.truth.as_ref().unwrap() {
                    assert!(p.x.is_finite() && p.y.is_finite());
                    assert!(p.x >= lo.x - 1e-9 && p.x <= hi.x + 1e-9);
                    assert!(p.y >= lo.y - 1e-9 && p.y <= hi.y + 1e-9);
                }
            }
            if motion == MotionModel::Static {
                let first = trace.observations[0].truth.clone();
                let last = trace.observations[trace.len() - 1].truth.clone();
                assert_eq!(first, last, "static motion must not move anyone");
            }
        }
    }

    #[test]
    fn edges_only_touch_active_nodes() {
        let m = small().with_initial_active_fraction(0.6);
        let trace = m.trace(8);
        for obs in trace.iter() {
            for (a, b, d, w) in obs.measurements.iter_weighted() {
                assert!(obs.active.contains(&a) && obs.active.contains(&b));
                assert!(d.is_finite() && w.is_finite());
            }
        }
    }

    #[test]
    fn mobility_presets_resolve_deterministically() {
        for &name in NAMES {
            let a = preset(name).unwrap_or_else(|| panic!("preset {name} must resolve"));
            assert_eq!(
                Some(a.clone()),
                preset(name),
                "{name} must be deterministic"
            );
            assert!(!a.base.deployment.is_empty());
            // Short traces stay generable and deterministic.
            let short = a.clone().with_ticks(2);
            assert_eq!(short.trace(1), short.trace(1));
        }
        assert_eq!(
            preset("town"),
            None,
            "static presets are a separate registry"
        );
        assert_eq!(preset("atlantis-mobile"), None);
    }

    #[test]
    fn motion_and_churn_models_round_trip_through_json() {
        for motion in [
            MotionModel::Static,
            MotionModel::RandomWalk { step_m: 0.5 },
            MotionModel::Waypoint {
                speed_m_per_tick: 2.0,
            },
        ] {
            let json = serde_json::to_string(&motion).unwrap();
            assert_eq!(serde_json::from_str::<MotionModel>(&json).unwrap(), motion);
        }
        let churn = ChurnModel {
            join_probability: 0.05,
            leave_probability: 0.02,
        };
        let json = serde_json::to_string(&churn).unwrap();
        assert_eq!(serde_json::from_str::<ChurnModel>(&json).unwrap(), churn);
    }

    #[test]
    fn churn_rates_do_not_shift_the_motion_stream() {
        // Same seed, different churn rates: the truth trajectories must
        // stay identical (fixed draw order per tick).
        let calm = small().with_churn(ChurnModel::none()).trace(13);
        let busy = small()
            .with_churn(ChurnModel {
                join_probability: 0.5,
                leave_probability: 0.5,
            })
            .trace(13);
        for (a, b) in calm.iter().zip(busy.iter()) {
            assert_eq!(a.truth, b.truth);
        }
    }
}
