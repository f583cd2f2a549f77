//! Online tracking: incremental localization for slowly-moving networks.
//!
//! Every solver in [`crate::problem`] is batch — one `Problem` in, one
//! `Solution` out. Real deployments are streams: nodes move a little
//! between measurement rounds, a few join or leave, and ranges are
//! re-measured every tick. Re-solving from scratch each tick throws away
//! the one thing a stream gives for free: the previous solution is an
//! excellent seed. DILAND (Khan et al.) observes that the Gauss–Newton
//! refinement iteration this crate already runs after the distributed
//! alignment flood ([`crate::distributed::refine_anchored`]) is naturally
//! incremental — seed from the last configuration, take a few damped
//! CG-backed steps against the fresh measurements, done.
//!
//! # The warm/cold split
//!
//! A [`StreamingTracker`] consumes one [`TickObservation`] per tick and
//! picks one of two paths:
//!
//! * **Warm update** — the default once a solution exists. Anchors are
//!   re-pinned at their surveyed positions (hard constraints, so the
//!   absolute frame cannot drift tick over tick), nodes that joined are
//!   seeded from the centroid of their already-positioned measured
//!   neighbors, and [`refine_anchored`] runs a bounded number of
//!   robust-loss-aware Gauss–Newton steps ([`TrackerConfig::warm`],
//!   4 by default). The warm path draws **no randomness**.
//! * **Cold solve** — the fallback when the warm seed is invalid: the
//!   first observation, a [`Tracker::reset`], a changed node universe,
//!   churn beyond [`TrackerConfig::churn_restart_fraction`], or a
//!   disconnected tick (no measured edge touches a refinable node). The
//!   configured batch [`Localizer`] solves the active subnetwork from
//!   scratch, seeded by [`cold_seed`] — a pure function of the tracker
//!   seed and the observation index, never of wall clock or thread
//!   scheduling.
//!
//! # Determinism contract
//!
//! The emitted solution stream is a pure function of
//! `(TrackerConfig, cold localizer, observation sequence)`: warm updates
//! are deterministic arithmetic, cold solves derive their RNG stream
//! from the observation index alone, and nothing depends on worker
//! count or timing (the campaign-style worker-count bit-identity of the
//! cold solver carries over to the whole stream). Replaying the same
//! observations after [`Tracker::reset`] reproduces the original stream
//! bit for bit.
//!
//! # Example
//!
//! ```
//! use rl_core::tracking::{StreamingTracker, Tracker, TrackerConfig, TickObservation};
//! use rl_core::types::{Anchor, NodeId};
//! use rl_geom::Point2;
//! use rl_ranging::measurement::MeasurementSet;
//!
//! // A 4-node square with one surveyed corner pair.
//! let truth = vec![
//!     Point2::new(0.0, 0.0),
//!     Point2::new(10.0, 0.0),
//!     Point2::new(0.0, 10.0),
//!     Point2::new(10.0, 10.0),
//! ];
//! let obs = TickObservation {
//!     tick: 0,
//!     measurements: MeasurementSet::oracle(&truth, 20.0),
//!     anchors: vec![
//!         Anchor::new(NodeId(0), truth[0]),
//!         Anchor::new(NodeId(1), truth[1]),
//!         Anchor::new(NodeId(2), truth[2]),
//!     ],
//!     active: (0..4).map(NodeId).collect(),
//!     joined: (0..4).map(NodeId).collect(),
//!     left: vec![],
//!     truth: Some(truth.clone()),
//! };
//! let mut tracker = StreamingTracker::with_lss(TrackerConfig::new(7));
//! let solution = tracker.observe(&obs)?;
//! assert_eq!(solution.positions().localized_count(), 4);
//! # Ok::<(), rl_core::LocalizationError>(())
//! ```

use std::time::Instant;

use rl_geom::Point2;
use rl_math::Fnv1a;
use rl_net::NodeId;
use rl_ranging::measurement::MeasurementSet;

use crate::distributed::{refine_anchored, RefineConfig};
use crate::lss::{LssConfig, LssSolver};
use crate::problem::{Frame, Localizer, Problem, Solution, SolveStats};
use crate::types::{Anchor, PositionMap};
use crate::{LocalizationError, Result};

/// Stream salt separating cold-solve RNG streams per observation index
/// (same role as the distributed pipeline's per-node salt: distinct
/// streams that are pure functions of identity, never of scheduling).
pub const COLD_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// The RNG seed of the cold solve at observation index `tick` for a
/// tracker configured with `seed`: a pure function of the pair, so
/// replay — on any worker count, after any reset — reproduces the same
/// stream. Exposed so tests and offline reference solves can derive the
/// exact seed a tracker used.
pub fn cold_seed(seed: u64, tick: u64) -> u64 {
    seed ^ tick.wrapping_add(1).wrapping_mul(COLD_STREAM)
}

/// One tick's worth of network change, as the tracking layer sees it:
/// fresh measurements over a **fixed node universe** plus the churn
/// delta. Node ids are stable slots — a node that leaves and later
/// rejoins keeps its id; inactive slots simply have no measured edges.
#[derive(Debug, Clone, PartialEq)]
pub struct TickObservation {
    /// Observation index in the stream, starting at 0.
    pub tick: u64,
    /// This tick's re-measured ranges, over the full slot universe
    /// (`measurements.node_count()` is the universe size; edges only
    /// ever touch active nodes).
    pub measurements: MeasurementSet,
    /// Surveyed nodes, at their surveyed positions.
    pub anchors: Vec<Anchor>,
    /// Every active slot this tick, ascending and unique.
    pub active: Vec<NodeId>,
    /// Slots that became active this tick.
    pub joined: Vec<NodeId>,
    /// Slots that became inactive this tick.
    pub left: Vec<NodeId>,
    /// Ground-truth positions for the whole universe, when the source is
    /// a simulation. Like [`Problem`]'s truth this is scaffolding, not
    /// input: protocol-driven cold solvers (distributed LSS) need it for
    /// radio connectivity, and evaluation reads it; the estimates never
    /// do.
    pub truth: Option<Vec<Point2>>,
}

/// Configuration of a [`StreamingTracker`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerConfig {
    /// Base seed of the tracker's cold-solve streams (see [`cold_seed`]).
    pub seed: u64,
    /// The warm path's bounded refinement: `warm.max_iterations` is the
    /// Gauss–Newton step budget *per tick* (default 4 — a tick's motion
    /// is small, so a few damped steps re-converge the configuration).
    pub warm: RefineConfig,
    /// Cold-restart threshold: when more than this fraction of the
    /// active nodes has no carried estimate (mass joins, post-reset
    /// churn), the warm seed is declared invalid and the tick is solved
    /// cold.
    pub churn_restart_fraction: f64,
}

impl TrackerConfig {
    /// The default tracking configuration for `seed`: 4 warm steps per
    /// tick, cold restart beyond 25% unseeded active nodes.
    pub fn new(seed: u64) -> Self {
        TrackerConfig {
            seed,
            warm: RefineConfig {
                max_iterations: 4,
                ..RefineConfig::default()
            },
            churn_restart_fraction: 0.25,
        }
    }

    /// The `metro` tracker preset that wire clients and the benchmark
    /// select by name. It equals [`TrackerConfig::new`]: every
    /// refinement already warm-starts its inner CG solves (see
    /// [`refine`](crate::distributed::refine)).
    pub fn metro(seed: u64) -> Self {
        Self::new(seed)
    }

    /// Sets the warm path's Gauss–Newton step budget per tick (builder
    /// style).
    pub fn with_steps_per_tick(mut self, steps: usize) -> Self {
        self.warm.max_iterations = steps;
        self
    }

    /// Sets the cold-restart churn threshold (builder style).
    pub fn with_churn_restart_fraction(mut self, fraction: f64) -> Self {
        self.churn_restart_fraction = fraction;
        self
    }
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig::new(0)
    }
}

/// An online localizer: consumes a stream of [`TickObservation`]s,
/// emits one [`Solution`] per tick.
pub trait Tracker: Send {
    /// Human-readable tracker name.
    fn name(&self) -> &str;

    /// Consumes one tick and returns the updated solution.
    ///
    /// # Errors
    ///
    /// A [`LocalizationError`] when the observation is malformed or the
    /// tick could not be solved (e.g. a cold solve on a disconnected
    /// network); the tracker stays usable and the next observation is
    /// processed normally.
    fn observe(&mut self, obs: &TickObservation) -> Result<&Solution>;

    /// Drops all carried state: the next [`Tracker::observe`] behaves
    /// exactly like the first one ever (cold-restart equivalence — a
    /// reset tracker replays a stream bit-identically to a fresh one).
    fn reset(&mut self);

    /// The most recent solution, if any tick has been solved.
    fn latest(&self) -> Option<&Solution>;
}

/// The warm-started Gauss–Newton tracker described in the
/// [module docs](self): incremental [`refine_anchored`] updates with a
/// batch [`Localizer`] as cold fallback.
pub struct StreamingTracker {
    config: TrackerConfig,
    cold: Box<dyn Localizer>,
    name: String,
    /// Carried position estimates over the current slot universe; empty
    /// until the first successful tick.
    positions: PositionMap,
    latest: Option<Solution>,
    /// Observations consumed since construction or the last reset
    /// (errors included — the cold-seed derivation must be a pure
    /// function of the observation index).
    ticks: u64,
    cold_solves: u64,
    warm_updates: u64,
}

impl StreamingTracker {
    /// Creates a tracker with an explicit cold-fallback localizer.
    pub fn new(config: TrackerConfig, cold: Box<dyn Localizer>) -> Self {
        let name = format!("tracking+{}", cold.name());
        StreamingTracker {
            config,
            cold,
            name,
            positions: PositionMap::unlocalized(0),
            latest: None,
            ticks: 0,
            cold_solves: 0,
            warm_updates: 0,
        }
    }

    /// The standard configuration: anchored sparse LSS
    /// ([`LssConfig::metro`] with anchors enabled) as the cold engine,
    /// producing absolute-frame solutions whenever two or more anchors
    /// are active.
    pub fn with_lss(config: TrackerConfig) -> Self {
        let lss = LssConfig {
            use_anchors: true,
            ..LssConfig::metro()
        };
        StreamingTracker::new(config, Box::new(LssSolver::new(lss)))
    }

    /// The tracker configuration.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }

    /// Observations consumed since construction or the last reset.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Ticks answered by the cold fallback.
    pub fn cold_solves(&self) -> u64 {
        self.cold_solves
    }

    /// Ticks answered by the warm incremental path.
    pub fn warm_updates(&self) -> u64 {
        self.warm_updates
    }

    /// Solves the active subnetwork from scratch with the cold
    /// localizer, replacing the carried estimates on success.
    fn cold_solve(&mut self, obs: &TickObservation, tick: u64) -> Result<Frame> {
        let n = obs.measurements.node_count();
        let (sub, mapping) = obs.measurements.subgraph(&obs.active);
        // Slot -> subgraph index, for anchor remapping.
        let mut sub_index = vec![usize::MAX; n];
        for (k, id) in mapping.iter().enumerate() {
            sub_index[id.index()] = k;
        }
        let mut builder = Problem::builder(sub).name("tracking-tick").anchors(
            obs.anchors
                .iter()
                .filter(|a| a.id.index() < n && sub_index[a.id.index()] != usize::MAX)
                .map(|a| Anchor::new(NodeId(sub_index[a.id.index()]), a.position))
                .collect(),
        );
        if let Some(truth) = &obs.truth {
            if truth.len() == n {
                builder = builder.truth(mapping.iter().map(|id| truth[id.index()]).collect());
            }
        }
        let problem = builder.build()?;
        let mut rng = rl_math::rng::seeded(cold_seed(self.config.seed, tick));
        let solution = self.cold.localize(&problem, &mut rng)?;
        let mut fresh = PositionMap::unlocalized(n);
        for (k, id) in mapping.iter().enumerate() {
            if let Some(p) = solution.positions().get(NodeId(k)) {
                if p.x.is_finite() && p.y.is_finite() {
                    fresh.set(*id, p);
                }
            }
        }
        self.positions = fresh;
        self.latest = None; // the carried solution no longer describes `positions`
        Ok(solution.frame())
    }

    /// One warm increment: re-pin anchors, seed joiners from positioned
    /// neighbors, refine. Returns the stats of the accepted update, or
    /// `None` when the tick has nothing refinable (disconnection — the
    /// caller falls back to a cold solve).
    fn warm_update(&mut self, obs: &TickObservation, active_mask: &[bool]) -> Option<WarmStats> {
        // Hard-pin every active anchor at its surveyed position: the
        // absolute frame is re-asserted every tick instead of drifting.
        let mut pins: Vec<NodeId> = Vec::new();
        for a in &obs.anchors {
            if a.id.index() < active_mask.len() && active_mask[a.id.index()] {
                self.positions.set(a.id, a.position);
                pins.push(a.id);
            }
        }
        // Seed unpositioned active nodes (joiners, or nodes a previous
        // tick could not place) from the centroid of their positioned
        // measured neighbors, in id order — earlier seeds serve later
        // ones. The sub-millimeter deterministic offset breaks exact
        // coincidence with a lone neighbor (a zero-length edge has no
        // usable gradient direction).
        for &id in &obs.active {
            if self.positions.is_localized(id) {
                continue;
            }
            let mut cx = 0.0;
            let mut cy = 0.0;
            let mut count = 0usize;
            for (other, _) in obs.measurements.neighbors_of(id) {
                if let Some(p) = self.positions.get(other) {
                    cx += p.x;
                    cy += p.y;
                    count += 1;
                }
            }
            if count > 0 {
                let c = count as f64;
                let angle = id.index() as f64 * 2.399_963_229_728_653;
                self.positions.set(
                    id,
                    Point2::new(cx / c + 1e-3 * angle.cos(), cy / c + 1e-3 * angle.sin()),
                );
            }
        }
        let outcome = refine_anchored(
            &obs.measurements,
            &mut self.positions,
            &pins,
            &self.config.warm,
        )?;
        // Defensive scrub: the damping loop only accepts descending
        // (finite) steps, but the no-non-finite contract is cheap to
        // enforce outright.
        for i in 0..self.positions.len() {
            if let Some(p) = self.positions.get(NodeId(i)) {
                if !p.x.is_finite() || !p.y.is_finite() {
                    self.positions.clear(NodeId(i));
                }
            }
        }
        Some(WarmStats {
            iterations: outcome.iterations,
            residual: Some(outcome.final_stress),
            converged: Some(outcome.converged),
            cg_iterations: outcome.cg_iterations,
            pins: pins.len(),
        })
    }
}

/// Stats of one accepted warm update, reported into [`SolveStats`].
struct WarmStats {
    /// Accepted Gauss-Newton steps of the incremental refinement.
    iterations: usize,
    /// Final robust stress.
    residual: Option<f64>,
    /// Whether the refinement converged.
    converged: Option<bool>,
    /// Cumulative inner CG iterations across the refinement's solves.
    cg_iterations: usize,
    /// Anchors hard-pinned this tick (>= 2 re-asserts the absolute frame).
    pins: usize,
}

impl Tracker for StreamingTracker {
    fn name(&self) -> &str {
        &self.name
    }

    fn observe(&mut self, obs: &TickObservation) -> Result<&Solution> {
        let start = Instant::now();
        let tick = self.ticks;
        self.ticks += 1;

        let n = obs.measurements.node_count();
        let mut active_mask = vec![false; n];
        for &id in &obs.active {
            if id.index() >= n {
                return Err(LocalizationError::InvalidConfig(
                    "active node id outside the measurement universe",
                ));
            }
            if active_mask[id.index()] {
                return Err(LocalizationError::InvalidConfig("duplicate active node id"));
            }
            active_mask[id.index()] = true;
        }
        if obs.active.is_empty() {
            return Err(LocalizationError::InsufficientMeasurements(
                "no active nodes this tick",
            ));
        }

        // Carried-state upkeep: a changed universe invalidates every
        // estimate; otherwise inactive slots (including this tick's
        // `left` list) lose theirs.
        let mut have_previous = self.latest.is_some();
        if self.positions.len() != n {
            self.positions = PositionMap::unlocalized(n);
            have_previous = false;
        }
        for (i, &active) in active_mask.iter().enumerate() {
            if !active {
                self.positions.clear(NodeId(i));
            }
        }

        let seeded = obs
            .active
            .iter()
            .filter(|id| self.positions.is_localized(**id))
            .count();
        let churn = 1.0 - seeded as f64 / obs.active.len() as f64;
        let warm_viable = have_previous && churn <= self.config.churn_restart_fraction;
        let previous_frame = self.latest.as_ref().map(|s| s.frame());

        let mut warm_stats = None;
        if warm_viable {
            warm_stats = self.warm_update(obs, &active_mask);
        }
        let (frame, iterations, residual, converged, cg_iterations) = match warm_stats {
            Some(warm) => {
                self.warm_updates += 1;
                let frame = if warm.pins >= 2 {
                    Frame::Absolute
                } else {
                    previous_frame.unwrap_or(Frame::Relative)
                };
                (
                    frame,
                    warm.iterations,
                    warm.residual,
                    warm.converged,
                    Some(warm.cg_iterations),
                )
            }
            None => {
                let frame = self.cold_solve(obs, tick)?;
                self.cold_solves += 1;
                (frame, 0usize, None, None, None)
            }
        };

        let solution = Solution::new(
            self.positions.clone(),
            frame,
            SolveStats {
                iterations,
                residual,
                converged,
                cg_iterations,
                wall_time: start.elapsed(),
            },
        );
        self.latest = Some(solution);
        Ok(self.latest.as_ref().expect("just stored"))
    }

    fn reset(&mut self) {
        self.positions = PositionMap::unlocalized(0);
        self.latest = None;
        self.ticks = 0;
        self.cold_solves = 0;
        self.warm_updates = 0;
    }

    fn latest(&self) -> Option<&Solution> {
        self.latest.as_ref()
    }
}

/// A worker-count- and wall-clock-independent digest of one solution:
/// every position bit, the frame, the iteration counter, and the
/// residual (never `SolveStats::wall_time`). Two tracker replays agree
/// tick for tick exactly when these digests agree.
pub fn solution_fingerprint(solution: &Solution) -> u64 {
    let mut h = Fnv1a::new();
    let map = solution.positions();
    h.write_u64(map.len() as u64);
    for (_, p) in map.iter() {
        match p {
            Some(p) => {
                h.write_u8(1);
                h.write_f64(p.x);
                h.write_f64(p.y);
            }
            None => h.write_u8(0),
        }
    }
    h.write_str(match solution.frame() {
        Frame::Absolute => "absolute",
        Frame::Relative => "relative",
    });
    h.write_u64(solution.stats().iterations as u64);
    h.write_opt_f64(solution.stats().residual);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A noise-free 4x4 grid universe with 3 surveyed corners.
    fn static_obs(tick: u64) -> (Vec<Point2>, TickObservation) {
        let truth: Vec<Point2> = (0..16)
            .map(|i| Point2::new((i % 4) as f64 * 9.0, (i / 4) as f64 * 9.0))
            .collect();
        let anchors = vec![
            Anchor::new(NodeId(0), truth[0]),
            Anchor::new(NodeId(3), truth[3]),
            Anchor::new(NodeId(12), truth[12]),
        ];
        let obs = TickObservation {
            tick,
            measurements: MeasurementSet::oracle(&truth, 15.0),
            anchors,
            active: (0..16).map(NodeId).collect(),
            joined: if tick == 0 {
                (0..16).map(NodeId).collect()
            } else {
                vec![]
            },
            left: vec![],
            truth: Some(truth.clone()),
        };
        (truth, obs)
    }

    #[test]
    fn first_tick_is_cold_then_warm() {
        let (_, obs) = static_obs(0);
        let mut tracker = StreamingTracker::with_lss(TrackerConfig::new(7));
        tracker.observe(&obs).unwrap();
        assert_eq!((tracker.cold_solves(), tracker.warm_updates()), (1, 0));
        tracker.observe(&static_obs(1).1).unwrap();
        assert_eq!((tracker.cold_solves(), tracker.warm_updates()), (1, 1));
        assert_eq!(tracker.ticks(), 2);
        assert!(tracker.name().starts_with("tracking+"));
    }

    #[test]
    fn warm_updates_track_the_truth_tightly() {
        let (truth, obs) = static_obs(0);
        let mut tracker = StreamingTracker::with_lss(TrackerConfig::new(7));
        tracker.observe(&obs).unwrap();
        for t in 1..6 {
            tracker.observe(&static_obs(t).1).unwrap();
        }
        let sol = tracker.latest().unwrap();
        assert_eq!(sol.frame(), Frame::Absolute);
        let eval = crate::eval::evaluate_absolute(sol.positions(), &truth).unwrap();
        assert!(eval.mean_error < 1e-3, "mean error {}", eval.mean_error);
    }

    #[test]
    fn heavy_churn_triggers_a_cold_restart() {
        let (_, obs) = static_obs(0);
        let mut tracker = StreamingTracker::with_lss(TrackerConfig::new(7));
        tracker.observe(&obs).unwrap();
        // Shrink to 8 active nodes, then jump back to 16: half the
        // active set has no carried estimate, beyond the 25% threshold.
        let (truth, mut small) = static_obs(1);
        small.active = (0..8).map(NodeId).collect();
        small.left = (8..16).map(NodeId).collect();
        small.measurements = {
            let mut set = MeasurementSet::new(16);
            let full = MeasurementSet::oracle(&truth, 15.0);
            for (a, b, d, w) in full.iter_weighted() {
                if a.index() < 8 && b.index() < 8 {
                    set.insert_weighted(a, b, d, w);
                }
            }
            set
        };
        tracker.observe(&small).unwrap();
        let cold_before = tracker.cold_solves();
        let (_, full) = static_obs(2);
        tracker.observe(&full).unwrap();
        assert_eq!(tracker.cold_solves(), cold_before + 1, "mass join is cold");
    }

    #[test]
    fn reset_replays_bit_identically() {
        let mut tracker = StreamingTracker::with_lss(TrackerConfig::new(3));
        let first: Vec<u64> = (0..4)
            .map(|t| solution_fingerprint(tracker.observe(&static_obs(t).1).unwrap()))
            .collect();
        tracker.reset();
        assert!(tracker.latest().is_none());
        let second: Vec<u64> = (0..4)
            .map(|t| solution_fingerprint(tracker.observe(&static_obs(t).1).unwrap()))
            .collect();
        assert_eq!(first, second);
    }

    #[test]
    fn malformed_observations_are_typed_errors() {
        let (_, mut obs) = static_obs(0);
        let mut tracker = StreamingTracker::with_lss(TrackerConfig::new(1));
        obs.active.push(NodeId(99));
        assert!(matches!(
            tracker.observe(&obs),
            Err(LocalizationError::InvalidConfig(_))
        ));
        let (_, mut dup) = static_obs(1);
        dup.active.push(NodeId(0));
        assert!(matches!(
            tracker.observe(&dup),
            Err(LocalizationError::InvalidConfig(_))
        ));
        let (_, mut empty) = static_obs(2);
        empty.active.clear();
        assert!(matches!(
            tracker.observe(&empty),
            Err(LocalizationError::InsufficientMeasurements(_))
        ));
        // The tracker survives all three and solves the next good tick.
        assert!(tracker.observe(&static_obs(3).1).is_ok());
    }

    #[test]
    fn cold_seed_is_a_pure_injective_looking_function() {
        assert_eq!(cold_seed(7, 0), cold_seed(7, 0));
        assert_ne!(cold_seed(7, 0), cold_seed(7, 1));
        assert_ne!(cold_seed(7, 0), cold_seed(8, 0));
    }

    #[test]
    fn fingerprints_separate_positions_frame_and_stats() {
        let base = Solution::new(
            PositionMap::complete(vec![Point2::new(1.0, 2.0)]),
            Frame::Absolute,
            SolveStats::default(),
        );
        let moved = Solution::new(
            PositionMap::complete(vec![Point2::new(1.0, 2.5)]),
            Frame::Absolute,
            SolveStats::default(),
        );
        let relative = Solution::new(
            PositionMap::complete(vec![Point2::new(1.0, 2.0)]),
            Frame::Relative,
            SolveStats::default(),
        );
        assert_eq!(solution_fingerprint(&base), solution_fingerprint(&base));
        assert_ne!(solution_fingerprint(&base), solution_fingerprint(&moved));
        assert_ne!(solution_fingerprint(&base), solution_fingerprint(&relative));
    }
}
