//! Distributed LSS localization (Section 4.3).
//!
//! The centralized algorithm does not scale: every added node grows the
//! stress function and its local-minima count. The distributed variant
//! splits the work in three steps:
//!
//! 1. **Local localization** — every node runs LSS over itself and its
//!    ranging neighbors, producing a *local map* in an arbitrary relative
//!    frame.
//! 2. **Pairwise transforms** — neighbors exchange local maps and estimate
//!    the rigid transform (rotation + reflection + translation) relating
//!    their frames from shared nodes, either by full minimization or by
//!    the cheap center-of-mass/covariance closed form.
//! 3. **Alignment** — starting from a root, a flood carries the global
//!    frame (origin + axis vectors) through the network; each node maps it
//!    into its own frame, computes its global position as
//!    `((p − ô)·x̂, (p − ô)·ŷ)`, and forwards.
//!
//! The protocol runs on the `rl-net` discrete-event simulator with real
//! message passing ("two local data exchanges per node and one round of
//! flooding").
//!
//! # Metro scale
//!
//! Two additions beyond the paper keep the pipeline competitive on
//! metro-size deployments (hundreds to thousands of nodes):
//!
//! * the **local-solve phase** — by far the dominant cost, one LSS solve
//!   per node — shards across [`rl_net::pool`]'s deterministic worker
//!   pool ([`DistributedConfig::workers`]), each node drawing from its
//!   own RNG stream derived from `(run seed, node id)` so the result is
//!   bit-identical for any worker count, and
//! * a **refinement stage** ([`refine`]) after the alignment flood:
//!   Tikhonov-regularized Gauss–Newton over the stitched map, each step
//!   solved with [`rl_math::sparse::cg`], which collapses the
//!   registration drift that accumulates hop over hop across districts
//!   (tens of meters at metro-1000) back to the measurement noise floor.
//!
//! [`DistributedConfig::metro`] bundles the metro-tuned settings.

pub mod refine;

pub use refine::{refine_aligned, refine_anchored, RefineConfig, RefineOutcome};

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::Rng;
use rl_geom::{fit_rigid_transform, Point2, RigidTransform, Vec2};
use rl_math::gradient::{minimize, DescentConfig, Objective};
use rl_net::sim::{Api, Node, Simulator};
use rl_net::{NodeId, RadioModel};
use rl_ranging::measurement::MeasurementSet;
use serde::{Deserialize, Serialize};

use crate::lss::{LssConfig, LssSolver};
use crate::types::PositionMap;
use crate::{LocalizationError, Result};

/// A node's local relative map: itself plus its ranging neighbors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalMap {
    /// The node that computed the map.
    pub center: NodeId,
    /// Nodes covered by the map (center included).
    pub nodes: Vec<NodeId>,
    /// Their coordinates in the map's arbitrary local frame.
    pub coords: Vec<Point2>,
}

impl LocalMap {
    /// The local coordinate of `id`, if covered.
    pub fn coord_of(&self, id: NodeId) -> Option<Point2> {
        self.nodes
            .iter()
            .position(|&n| n == id)
            .map(|k| self.coords[k])
    }

    /// Nodes covered by both maps, ascending.
    pub fn shared_nodes(&self, other: &LocalMap) -> Vec<NodeId> {
        self.nodes
            .iter()
            .copied()
            .filter(|id| other.coord_of(*id).is_some())
            .collect()
    }

    /// Builds the local map of `center` from the measurement set by
    /// running LSS over `center` and its neighbors.
    ///
    /// # Errors
    ///
    /// [`LocalizationError::InsufficientMeasurements`] when the cluster
    /// has fewer than three nodes.
    pub fn build<R: Rng + ?Sized>(
        center: NodeId,
        set: &MeasurementSet,
        lss: &LssConfig,
        rng: &mut R,
    ) -> Result<LocalMap> {
        let mut cluster: Vec<NodeId> = vec![center];
        cluster.extend(set.neighbors_of(center).map(|(id, _)| id));
        cluster.sort();
        cluster.dedup();
        if cluster.len() < 3 {
            return Err(LocalizationError::InsufficientMeasurements(
                "local cluster needs at least three nodes",
            ));
        }
        let (sub, mapping) = set.subgraph(&cluster);
        let solution = LssSolver::new(lss.clone()).solve(&sub, rng)?;
        Ok(LocalMap {
            center,
            nodes: mapping,
            coords: solution.coordinates().to_vec(),
        })
    }
}

/// How pairwise frame transforms are estimated.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TransformMethod {
    /// The computationally cheap closed form — translation between
    /// centers of mass, rotation from cross-covariances, reflection by
    /// error comparison (Section 4.3.1's mote-friendly method) —
    /// *center-weighted*: shared nodes far from either map's center get
    /// less pull on the fit, since a local LSS map is most accurate
    /// near its center. An extension beyond the paper; use
    /// [`TransformMethod::CovarianceUniform`] for the paper's exact
    /// uniform-weight registration.
    #[default]
    Covariance,
    /// The paper's closed form with uniform weights over the shared
    /// nodes — Section 4.3.1 exactly, kept for paper-faithful runs.
    CovarianceUniform,
    /// Full gradient-descent minimization over `(θ, t_x, t_y)` for both
    /// reflection factors ("fairly accurate … but too computationally
    /// intensive" for motes).
    Minimization(DescentConfig),
}

/// Sanity guards applied to pairwise transform estimation.
///
/// The paper's algorithm accepts any transform computable from the shared
/// nodes — which is exactly how one bad transform wrecked half of its
/// Figure 24. The hardened defaults reject geometrically untrustworthy
/// transforms so the alignment flood routes around them;
/// [`TransformGuards::permissive`] reproduces the paper's behavior.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransformGuards {
    /// Minimum shared nodes required to relate two frames.
    pub min_shared: usize,
    /// Maximum RMS residual (meters) the fitted transform may leave on the
    /// shared nodes.
    pub max_rmse_m: f64,
    /// Whether to reject nearly collinear shared sets (reflection
    /// ambiguity).
    pub reject_collinear: bool,
}

impl Default for TransformGuards {
    fn default() -> Self {
        TransformGuards {
            min_shared: 4,
            max_rmse_m: 1.5,
            reject_collinear: true,
        }
    }
}

impl TransformGuards {
    /// The paper's unguarded behavior: any transform from at least three
    /// shared nodes is accepted.
    pub fn permissive() -> Self {
        TransformGuards {
            min_shared: 3,
            max_rmse_m: f64::INFINITY,
            reject_collinear: false,
        }
    }
}

/// Estimates the rigid transform mapping `source`-frame coordinates to
/// `target`-frame coordinates using their shared nodes.
///
/// # Errors
///
/// * [`LocalizationError::InsufficientMeasurements`] when a guard rejects
///   the shared set (too few nodes, near-collinear, or residual above
///   `max_rmse_m`),
/// * geometric errors from degenerate configurations.
pub fn estimate_transform(
    source: &LocalMap,
    target: &LocalMap,
    method: &TransformMethod,
    guards: &TransformGuards,
) -> Result<RigidTransform> {
    let shared = source.shared_nodes(target);
    if shared.len() < guards.min_shared {
        return Err(LocalizationError::InsufficientMeasurements(
            "too few shared nodes between local maps",
        ));
    }
    let src: Vec<Point2> = shared
        .iter()
        .map(|&id| source.coord_of(id).expect("shared"))
        .collect();
    let tgt: Vec<Point2> = shared
        .iter()
        .map(|&id| target.coord_of(id).expect("shared"))
        .collect();
    // Near-collinear shared sets leave the reflection factor ambiguous and
    // produce mirror-image transforms; reject them so the alignment flood
    // routes through a geometrically richer neighbor instead.
    if guards.reject_collinear && (is_near_collinear(&src) || is_near_collinear(&tgt)) {
        return Err(LocalizationError::InsufficientMeasurements(
            "shared nodes are nearly collinear; transform reflection is ambiguous",
        ));
    }
    let transform = match method {
        TransformMethod::Covariance => {
            // Weighted registration: a local LSS map is most accurate
            // near its center (where the measurement graph is densest),
            // so shared nodes far from *either* map's center get less
            // pull on the fit. Weights are scale-normalized by the mean
            // center distance, so tight and sprawling clusters behave
            // alike; a map that cannot locate its own center falls back
            // to uniform weights.
            let centers = (
                source.coord_of(source.center),
                target.coord_of(target.center),
            );
            let fit = if let (Some(sc), Some(tc)) = centers {
                // `src`/`tgt` already hold the shared nodes' coordinates
                // in shared order; no per-node map lookups needed.
                let center_dist: Vec<f64> = src
                    .iter()
                    .zip(&tgt)
                    .map(|(&s, &t)| 0.5 * (s.distance(sc) + t.distance(tc)))
                    .collect();
                let mean = (center_dist.iter().sum::<f64>() / center_dist.len() as f64).max(1e-9);
                let weights: Vec<f64> = center_dist
                    .iter()
                    .map(|&d| 1.0 / (1.0 + (d / mean) * (d / mean)))
                    .collect();
                rl_geom::fit_rigid_transform_weighted(&src, &tgt, &weights, true)?
            } else {
                fit_rigid_transform(&src, &tgt, true)?
            };
            fit.transform
        }
        TransformMethod::CovarianceUniform => fit_rigid_transform(&src, &tgt, true)?.transform,
        TransformMethod::Minimization(descent) => {
            let mut best: Option<(f64, RigidTransform)> = None;
            for reflected in [false, true] {
                let objective = TransformObjective {
                    src: &src,
                    tgt: &tgt,
                    reflected,
                };
                let outcome = minimize(
                    &objective,
                    &[0.0, 0.0, 0.0],
                    descent,
                    &mut rl_math::rng::seeded(0),
                );
                let t = RigidTransform::new(
                    outcome.x[0],
                    reflected,
                    Vec2::new(outcome.x[1], outcome.x[2]),
                );
                if best.as_ref().is_none_or(|(e, _)| outcome.value < *e) {
                    best = Some((outcome.value, t));
                }
            }
            best.expect("two candidates evaluated").1
        }
    };
    // Residual guard: local maps that disagree beyond `max_rmse_m` on
    // their shared nodes yield transforms that misplace everything
    // downstream; better to let the alignment flood route around them.
    let rmse = (src
        .iter()
        .zip(&tgt)
        .map(|(&s, &t)| transform.apply(s).distance_sq(t))
        .sum::<f64>()
        / src.len() as f64)
        .sqrt();
    if rmse > guards.max_rmse_m {
        return Err(LocalizationError::InsufficientMeasurements(
            "local maps disagree on shared nodes beyond the residual guard",
        ));
    }
    Ok(transform)
}

/// Whether a point set is too close to a line for a reliable reflection
/// decision: the minor principal axis must carry at least 4 % of the major
/// axis' standard deviation and at least 0.5 m of spread.
fn is_near_collinear(points: &[Point2]) -> bool {
    let Some(mu) = rl_geom::centroid(points) else {
        return true;
    };
    let (mut sxx, mut sxy, mut syy) = (0.0, 0.0, 0.0);
    for p in points {
        let d = *p - mu;
        sxx += d.x * d.x;
        sxy += d.x * d.y;
        syy += d.y * d.y;
    }
    let n = points.len() as f64;
    let (sxx, sxy, syy) = (sxx / n, sxy / n, syy / n);
    // Eigenvalues of the 2x2 covariance matrix.
    let trace = sxx + syy;
    let det = sxx * syy - sxy * sxy;
    let disc = (trace * trace / 4.0 - det).max(0.0).sqrt();
    let lambda_max = trace / 2.0 + disc;
    let lambda_min = (trace / 2.0 - disc).max(0.0);
    // Minor-axis spread below 1 m (variance 1 m²), or below 5 % of the
    // major axis, is too thin for a trustworthy reflection decision.
    lambda_min < 1.0 || lambda_min < 0.0025 * lambda_max
}

/// Objective for the full-minimization transform: squared residuals of
/// `T(src) − tgt` over `(θ, t_x, t_y)` at a fixed reflection factor.
struct TransformObjective<'a> {
    src: &'a [Point2],
    tgt: &'a [Point2],
    reflected: bool,
}

impl Objective for TransformObjective<'_> {
    fn dim(&self) -> usize {
        3
    }

    /// One `sin_cos` per evaluation; each residual serves the value and
    /// the gradient.
    fn evaluate(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let (sin, cos) = x[0].sin_cos();
        let f = if self.reflected { -1.0 } else { 1.0 };
        grad.fill(0.0);
        let mut e = -0.0;
        for (&s, &g) in self.src.iter().zip(self.tgt) {
            // T(s) with row-vector convention, as `RigidTransform::apply`:
            // x' = s.x cos + s.y f sin + tx ; y' = -s.x sin + s.y f cos + ty
            let px = s.x * cos + s.y * f * sin + x[1];
            let py = -s.x * sin + s.y * f * cos + x[2];
            let rx = px - g.x;
            let ry = py - g.y;
            e += rx * rx + ry * ry;
            // d px/dθ = -s.x sin + s.y f cos ; d py/dθ = -s.x cos - s.y f sin
            let dpx = -s.x * sin + s.y * f * cos;
            let dpy = -s.x * cos - s.y * f * sin;
            grad[0] += 2.0 * (rx * dpx + ry * dpy);
            grad[1] += 2.0 * rx;
            grad[2] += 2.0 * ry;
        }
        e
    }
}

/// Configuration of the distributed algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedConfig {
    /// LSS settings for the per-node local maps (smaller budget than the
    /// centralized solver).
    pub local_lss: LssConfig,
    /// Transform estimation method.
    pub transform: TransformMethod,
    /// Sanity guards on pairwise transforms
    /// ([`TransformGuards::permissive`] reproduces the paper's unguarded
    /// behavior).
    pub guards: TransformGuards,
    /// Radio model for the protocol run.
    pub radio: RadioModel,
    /// Post-alignment Gauss–Newton/CG refinement of the stitched map
    /// (`None` reproduces the paper's raw flood output). See [`refine`].
    pub refine: Option<RefineConfig>,
    /// Worker threads for the per-node local-solve phase, sharded on
    /// [`rl_net::pool`]: `0` (the default) sizes the pool to the
    /// machine, `1` runs serially. The outcome is bit-identical for any
    /// value.
    pub workers: usize,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            local_lss: LssConfig {
                descent: DescentConfig {
                    step_size: 0.005,
                    max_iterations: 2_500,
                    tolerance: 1e-10,
                    patience: 40,
                    restarts: 10,
                    perturbation: 5.0,
                    record_trace: false,
                },
                // Local maps are small, so a single gross ranging outlier
                // can fold them; robust reweighting suppresses it before
                // the map is shared with neighbors.
                robust: Some(crate::lss::RobustReweight::default()),
                ..LssConfig::default()
            },
            transform: TransformMethod::Covariance,
            guards: TransformGuards::default(),
            radio: RadioModel::mica2(),
            refine: Some(RefineConfig::default()),
            workers: 0,
        }
    }
}

impl DistributedConfig {
    /// A configuration tuned for metro-scale deployments (hundreds to
    /// thousands of nodes), the distributed counterpart of
    /// [`LssConfig::metro`](crate::lss::LssConfig::metro):
    ///
    /// * per-node local solves are seeded from cluster-local MDS-MAP
    ///   (clusters are small and dense, so the seed is nearly right and
    ///   long perturbation searches are wasted work) with a short
    ///   restart schedule and the paper's minimum-spacing constraint,
    /// * robust local reweighting is off — the refinement stage's Cauchy
    ///   weights handle outliers globally, once, instead of per node,
    /// * refinement runs a deeper Gauss–Newton budget, since at metro
    ///   diameters the accumulated stitching drift is the dominant error
    ///   term and the CG solves are cheap (`O(edges)` per iteration).
    pub fn metro() -> Self {
        DistributedConfig {
            local_lss: LssConfig {
                descent: DescentConfig {
                    step_size: 0.005,
                    max_iterations: 800,
                    tolerance: 1e-9,
                    patience: 30,
                    restarts: 2,
                    perturbation: 4.0,
                    record_trace: false,
                },
                robust: None,
                init: crate::lss::InitStrategy::MdsMap,
                ..LssConfig::default()
            }
            .with_min_spacing(9.14, 10.0),
            refine: Some(RefineConfig {
                max_iterations: 30,
                ..RefineConfig::default()
            }),
            ..DistributedConfig::default()
        }
    }

    /// Replaces the refinement configuration (builder style); `None`
    /// reproduces the paper's raw flood output.
    pub fn with_refine(mut self, refine: Option<RefineConfig>) -> Self {
        self.refine = refine;
        self
    }

    /// Selects the robust loss for the whole pipeline (builder style):
    /// both the per-node local LSS reweighting and the post-alignment
    /// Gauss–Newton refinement use `loss`.
    /// [`RobustLoss`](rl_math::RobustLoss)`::SquaredL2` turns every IRLS
    /// stage into its plain least-squares baseline.
    pub fn with_robust_loss(mut self, loss: rl_math::RobustLoss) -> Self {
        self.local_lss = self.local_lss.with_robust_loss(loss);
        if let Some(refine) = &mut self.refine {
            refine.loss = loss;
        }
        self
    }

    /// Sets the local-solve worker count (builder style); `0` sizes the
    /// pool to the machine. Any value produces the bit-identical
    /// outcome.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enables the minimum-spacing soft constraint for the per-node local
    /// maps (builder style). Local clusters are small and sparse, so
    /// without the constraint they fold as readily as the global problem
    /// does — folded local maps then poison the pairwise transforms.
    pub fn with_min_spacing(mut self, min_spacing_m: f64, weight: f64) -> Self {
        self.local_lss = self.local_lss.with_min_spacing(min_spacing_m, weight);
        self
    }
}

/// The distributed-LSS solver: the config-struct entry point to
/// [`run_distributed`], consistent with
/// [`LssSolver`] and
/// [`MultilaterationSolver`](crate::multilateration::MultilaterationSolver).
///
/// ```
/// use rl_core::distributed::{DistributedConfig, DistributedSolver};
/// use rl_geom::Point2;
/// use rl_net::NodeId;
/// use rl_ranging::measurement::MeasurementSet;
///
/// let truth: Vec<Point2> = (0..16)
///     .map(|i| Point2::new((i % 4) as f64 * 9.0, (i / 4) as f64 * 9.0))
///     .collect();
/// let set = MeasurementSet::oracle(&truth, 22.0);
/// let solver = DistributedSolver::new(DistributedConfig::default()).with_root(NodeId(5));
/// let mut rng = rl_math::rng::seeded(3);
/// let out = solver.solve(&set, &truth, &mut rng)?;
/// assert_eq!(out.positions.localized_count(), 16);
/// # Ok::<(), rl_core::LocalizationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DistributedSolver {
    config: DistributedConfig,
    root: NodeId,
}

impl DistributedSolver {
    /// Creates a solver with the alignment flood rooted at node 0.
    pub fn new(config: DistributedConfig) -> Self {
        DistributedSolver {
            config,
            root: NodeId(0),
        }
    }

    /// Picks the node the alignment flood starts from (builder style).
    /// The global frame is this node's local frame.
    pub fn with_root(mut self, root: NodeId) -> Self {
        self.root = root;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &DistributedConfig {
        &self.config
    }

    /// Runs the full three-step protocol; `truth_positions` provides radio
    /// connectivity only.
    ///
    /// # Errors
    ///
    /// Same as [`run_distributed`].
    pub fn solve<R: Rng + ?Sized>(
        &self,
        set: &MeasurementSet,
        truth_positions: &[Point2],
        rng: &mut R,
    ) -> Result<DistributedOutcome> {
        run_distributed(set, truth_positions, self.root, &self.config, rng)
    }
}

impl crate::problem::Localizer for DistributedSolver {
    fn name(&self) -> &str {
        "distributed-lss"
    }

    fn localize(
        &self,
        problem: &crate::problem::Problem,
        rng: &mut dyn rand::RngCore,
    ) -> Result<crate::problem::Solution> {
        use crate::problem::{Frame, Solution, SolveStats};
        let start = std::time::Instant::now();
        let truth = problem.truth_required()?;
        let out = self.solve(problem.measurements(), truth, rng)?;
        Ok(Solution::new(
            out.positions,
            Frame::Relative,
            SolveStats {
                iterations: out.messages_delivered,
                // The flood itself terminates by message quiescence, not
                // by a numerical test; when the refinement stage ran
                // it contributes its stress and convergence flag.
                residual: out.refine.map(|r| r.final_stress),
                converged: out.refine.map(|r| r.converged),
                cg_iterations: out.refine.map(|r| r.cg_iterations),
                wall_time: start.elapsed(),
            },
        ))
    }
}

/// Message exchanged by the distributed protocol.
#[derive(Debug)]
enum DistMsg {
    /// A node's local map (step 2's "local data exchange").
    Map(Arc<SharedMap>),
    /// The alignment wave: global origin and axis vectors expressed in the
    /// sender's local frame.
    Align {
        /// Global origin in the sender's local frame.
        origin: Point2,
        /// Global x-axis unit vector in the sender's local frame.
        ex: Vec2,
        /// Global y-axis unit vector in the sender's local frame.
        ey: Vec2,
        /// The sender's local map, for the static overlap test of
        /// [`DistNode::ignores`].
        sender: Arc<SharedMap>,
    },
}

const ALIGN_TIMER: u64 = 1;

/// Delay before the root starts the alignment flood, seconds (must exceed
/// one map-exchange round trip).
const ALIGN_DELAY_S: f64 = 1.0;

/// Membership bitset over the node ids of one local map, covering only
/// the 64-id words between its smallest and largest id.
#[derive(Debug, Default)]
struct NodeSet {
    first_word: usize,
    words: Vec<u64>,
}

impl NodeSet {
    fn new(ids: &[NodeId]) -> Self {
        let (Some(lo), Some(hi)) = (ids.iter().min(), ids.iter().max()) else {
            return NodeSet::default();
        };
        let first_word = lo.index() / 64;
        let mut words = vec![0u64; hi.index() / 64 - first_word + 1];
        for id in ids {
            words[id.index() / 64 - first_word] |= 1 << (id.index() % 64);
        }
        NodeSet { first_word, words }
    }

    /// How many ids both sets hold: `a.shared_nodes(b).len()` for the
    /// sets of maps `a` and `b`, whose node lists hold no repeats.
    fn overlap(&self, other: &NodeSet) -> usize {
        let lo = self.first_word.max(other.first_word);
        let hi = (self.first_word + self.words.len()).min(other.first_word + other.words.len());
        (lo..hi)
            .map(|w| {
                (self.words[w - self.first_word] & other.words[w - other.first_word]).count_ones()
                    as usize
            })
            .sum()
    }
}

/// A local map with its membership set, built once and shared by every
/// message that carries it and every receiver that keeps it.
#[derive(Debug)]
struct SharedMap {
    map: LocalMap,
    members: NodeSet,
}

impl SharedMap {
    fn new(map: LocalMap) -> Arc<Self> {
        Arc::new(SharedMap {
            members: NodeSet::new(&map.nodes),
            map,
        })
    }
}

/// Per-node protocol state.
#[derive(Debug)]
struct DistNode {
    local_map: Option<Arc<SharedMap>>,
    /// Received neighbour maps that share enough nodes with `local_map`
    /// to pass [`TransformGuards::min_shared`]; no other map can align.
    neighbor_maps: BTreeMap<NodeId, Arc<SharedMap>>,
    global_pos: Option<Point2>,
    is_root: bool,
    transform: TransformMethod,
    guards: TransformGuards,
}

impl DistNode {
    /// Whether `other` shares at least [`TransformGuards::min_shared`]
    /// nodes with this node's map (a node without a map shares none).
    /// `estimate_transform` rejects any pair with fewer, so a smaller
    /// overlap could never align. The test is static: neither map ever
    /// changes.
    fn can_align_with(&self, other: &SharedMap) -> bool {
        let shared = self
            .local_map
            .as_ref()
            .map_or(0, |own| own.members.overlap(&other.members));
        shared >= self.guards.min_shared
    }

    fn align_and_forward(
        &mut self,
        origin: Point2,
        ex: Vec2,
        ey: Vec2,
        api: &mut Api<'_, DistMsg>,
    ) {
        let Some(own) = &self.local_map else { return };
        let Some(p) = own.map.coord_of(own.map.center) else {
            return;
        };
        let rel = p - origin;
        self.global_pos = Some(Point2::new(rel.dot(ex), rel.dot(ey)));
        let sender = Arc::clone(own);
        api.broadcast(DistMsg::Align {
            origin,
            ex,
            ey,
            sender,
        });
    }
}

impl Node for DistNode {
    type Msg = DistMsg;

    fn on_start(&mut self, api: &mut Api<'_, DistMsg>) {
        if let Some(own) = &self.local_map {
            api.broadcast(DistMsg::Map(Arc::clone(own)));
        }
        if self.is_root {
            // Give the map exchange time to complete, then start the
            // alignment flood from this node's frame.
            api.set_timer(ALIGN_DELAY_S, ALIGN_TIMER);
        }
    }

    /// Every test here holds for good once it holds: overlaps are
    /// static, and an aligned node never unaligns.
    fn ignores(&self, _from: NodeId, msg: &DistMsg) -> bool {
        match msg {
            DistMsg::Map(map) => !self.can_align_with(map),
            // A map this node could not keep is never in `neighbor_maps`,
            // so its sender's alignment can never land here. Whether the
            // map arrived is not tested: that can change before the
            // alignment does.
            DistMsg::Align { sender, .. } => {
                self.global_pos.is_some()
                    || self.local_map.is_none()
                    || !self.can_align_with(sender)
            }
        }
    }

    fn on_message(&mut self, from: NodeId, msg: &DistMsg, api: &mut Api<'_, DistMsg>) {
        match msg {
            DistMsg::Map(map) => {
                if self.can_align_with(map) {
                    self.neighbor_maps.insert(from, Arc::clone(map));
                }
            }
            &DistMsg::Align { origin, ex, ey, .. } => {
                if self.global_pos.is_some() {
                    return; // first alignment wins
                }
                let Some(own) = &self.local_map else {
                    return;
                };
                let Some(sender) = self.neighbor_maps.get(&from) else {
                    return;
                };
                // Transform from the sender's frame into mine.
                let Ok(t) =
                    estimate_transform(&sender.map, &own.map, &self.transform, &self.guards)
                else {
                    return;
                };
                let origin_here = t.apply(origin);
                let ex_here = t.apply_vec(ex);
                let ey_here = t.apply_vec(ey);
                self.align_and_forward(origin_here, ex_here, ey_here, api);
            }
        }
    }

    fn on_timer(&mut self, timer: u64, api: &mut Api<'_, DistMsg>) {
        if timer == ALIGN_TIMER && self.is_root {
            // The global frame IS the root's local frame.
            self.align_and_forward(
                Point2::ORIGIN,
                Vec2::new(1.0, 0.0),
                Vec2::new(0.0, 1.0),
                api,
            );
        }
    }
}

/// Outcome of a distributed localization run.
#[derive(Debug, Clone)]
pub struct DistributedOutcome {
    /// Global positions (in the root's local frame); nodes the alignment
    /// wave could not reach (or that had no usable local map) stay `None`.
    pub positions: PositionMap,
    /// Nodes that managed to build a local map.
    pub local_maps_built: usize,
    /// Messages delivered during the protocol run.
    pub messages_delivered: usize,
    /// What the post-alignment refinement stage did; `None` when it was
    /// disabled or had nothing to work on (fewer than two aligned nodes,
    /// or no measured edge between aligned nodes).
    pub refine: Option<RefineOutcome>,
}

/// The per-node RNG-stream derivation constant for the local-solve
/// phase: node `i` draws from `seeded(base ^ (i+1) · STREAM)`, so every
/// node owns a whole stream regardless of which pool worker solves it.
const LOCAL_STREAM: u64 = 0xA076_1D64_78BD_642F;

/// Runs the full distributed LSS pipeline: local solves (sharded on the
/// [`rl_net::pool`] worker pool), map exchange and alignment flood on the
/// discrete-event simulator, then the optional Gauss–Newton/CG
/// refinement of the stitched map.
///
/// `truth_positions` provides radio connectivity only (the algorithm never
/// reads them as coordinates).
///
/// # Errors
///
/// * [`LocalizationError::InvalidConfig`] for an out-of-range root or
///   mismatched lengths,
/// * simulator errors if the protocol fails to quiesce.
pub fn run_distributed<R: Rng + ?Sized>(
    set: &MeasurementSet,
    truth_positions: &[Point2],
    root: NodeId,
    config: &DistributedConfig,
    rng: &mut R,
) -> Result<DistributedOutcome> {
    let n = set.node_count();
    if truth_positions.len() != n {
        return Err(LocalizationError::InvalidConfig(
            "positions and measurements disagree on node count",
        ));
    }
    if root.index() >= n {
        return Err(LocalizationError::InvalidConfig("root out of range"));
    }

    // Step 1: local maps (computation only; no messages involved). Each
    // node's solve draws from its own stream derived from (base seed,
    // node id), never from a generator shared across nodes, so the pool
    // returns bit-identical maps for any worker count — clause 5 of the
    // `rl_math::rng` seeding contract.
    let local_seed = rng.random::<u64>();
    let local_maps: Vec<Option<LocalMap>> = rl_net::pool::par_map_indexed(n, config.workers, |i| {
        let mut node_rng =
            rl_math::rng::seeded(local_seed ^ (i as u64 + 1).wrapping_mul(LOCAL_STREAM));
        LocalMap::build(NodeId(i), set, &config.local_lss, &mut node_rng).ok()
    });
    let local_maps_built = local_maps.iter().filter(|m| m.is_some()).count();
    let nodes = protocol_nodes(local_maps, root, config);

    // Steps 2-3: map exchange + alignment flood on the simulator.
    let seed = rng.random::<u64>();
    let mut sim = exchange_simulator(nodes, truth_positions, &config.radio, seed);
    let stats = sim.run().map_err(|_| {
        LocalizationError::InvalidConfig("network simulation exhausted its event budget")
    })?;

    let mut positions = PositionMap::unlocalized(n);
    for (id, node) in sim.iter() {
        if let Some(p) = node.global_pos {
            positions.set(id, p);
        }
    }

    // Step 4: pull the stitched map back onto the measurements,
    // collapsing the registration drift the flood accumulated.
    let refine = config
        .refine
        .as_ref()
        .and_then(|cfg| refine_aligned(set, &mut positions, cfg));

    Ok(DistributedOutcome {
        positions,
        local_maps_built,
        messages_delivered: stats.delivered,
        refine,
    })
}

/// One protocol node per local map, the alignment flood rooted at `root`.
fn protocol_nodes(
    local_maps: Vec<Option<LocalMap>>,
    root: NodeId,
    config: &DistributedConfig,
) -> Vec<DistNode> {
    local_maps
        .into_iter()
        .enumerate()
        .map(|(i, local_map)| DistNode {
            local_map: local_map.map(SharedMap::new),
            neighbor_maps: BTreeMap::new(),
            global_pos: None,
            is_root: i == root.index(),
            transform: config.transform.clone(),
            guards: config.guards,
        })
        .collect()
}

/// The simulator for the map exchange and alignment flood, its event
/// budget the protocol's own bound: every node broadcasts its map once
/// and its alignment at most once, so the run takes at most `n` starts,
/// the root's timer and two deliveries per neighbour of every node.
fn exchange_simulator<N: Node<Msg = DistMsg>>(
    nodes: Vec<N>,
    positions: &[Point2],
    radio: &RadioModel,
    seed: u64,
) -> Simulator<N> {
    let n = nodes.len();
    let sim = Simulator::new(nodes, positions, radio.clone(), seed);
    let degree_sum = 2 * sim.topology().edge_count();
    let budget = n + 1 + 2 * degree_sum;
    sim.with_event_budget(budget)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_against_truth;
    use proptest::prelude::*;
    use rl_math::rng::seeded;

    /// The value and gradient as two passes, before they were fused:
    /// the oracle `TransformObjective::evaluate` must match bit for bit.
    impl TransformObjective<'_> {
        fn value(&self, x: &[f64]) -> f64 {
            let t = RigidTransform::new(x[0], self.reflected, Vec2::new(x[1], x[2]));
            self.src
                .iter()
                .zip(self.tgt)
                .map(|(&s, &g)| t.apply(s).distance_sq(g))
                .sum()
        }

        fn gradient(&self, x: &[f64], grad: &mut [f64]) {
            let (sin, cos) = x[0].sin_cos();
            let f = if self.reflected { -1.0 } else { 1.0 };
            grad.iter_mut().for_each(|g| *g = 0.0);
            for (&s, &g) in self.src.iter().zip(self.tgt) {
                let px = s.x * cos + s.y * f * sin + x[1];
                let py = -s.x * sin + s.y * f * cos + x[2];
                let rx = px - g.x;
                let ry = py - g.y;
                let dpx = -s.x * sin + s.y * f * cos;
                let dpy = -s.x * cos - s.y * f * sin;
                grad[0] += 2.0 * (rx * dpx + ry * dpy);
                grad[1] += 2.0 * rx;
                grad[2] += 2.0 * ry;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The fused transform evaluation equals the two-pass value and
        /// gradient under both reflections.
        #[test]
        fn transform_objective_evaluate_matches_the_two_pass_oracle(
            pairs in proptest::collection::vec(
                ((-40.0f64..40.0, -40.0f64..40.0), (-40.0f64..40.0, -40.0f64..40.0)),
                0..24,
            ),
            x in (-7.0f64..7.0, -50.0f64..50.0, -50.0f64..50.0),
        ) {
            let src: Vec<Point2> = pairs.iter().map(|&((a, b), _)| Point2::new(a, b)).collect();
            let tgt: Vec<Point2> = pairs.iter().map(|&(_, (a, b))| Point2::new(a, b)).collect();
            let x = [x.0, x.1, x.2];
            for reflected in [false, true] {
                let objective = TransformObjective {
                    src: &src,
                    tgt: &tgt,
                    reflected,
                };
                let mut grad = [f64::NAN; 3];
                let value = objective.evaluate(&x, &mut grad);
                let mut want = [0.0; 3];
                objective.gradient(&x, &mut want);
                prop_assert_eq!(value.to_bits(), objective.value(&x).to_bits());
                prop_assert_eq!(grad.map(f64::to_bits), want.map(f64::to_bits));
            }
        }
    }

    fn grid(nx: usize, ny: usize, spacing: f64) -> Vec<Point2> {
        let mut out = Vec::new();
        for gy in 0..ny {
            for gx in 0..nx {
                out.push(Point2::new(gx as f64 * spacing, gy as f64 * spacing));
            }
        }
        out
    }

    #[test]
    fn local_map_covers_cluster() {
        let truth = grid(3, 3, 9.0);
        let set = MeasurementSet::oracle(&truth, 14.0);
        let mut rng = seeded(1);
        let map = LocalMap::build(NodeId(4), &set, &LssConfig::default(), &mut rng).unwrap();
        // Center node 4 (middle) has all 8 others as neighbors at <= 13 m.
        assert_eq!(map.center, NodeId(4));
        assert_eq!(map.nodes.len(), 9);
        assert!(map.coord_of(NodeId(4)).is_some());
        assert_eq!(map.coord_of(NodeId(99)), None);
        // Local map distances match measurements (relative frame).
        let d01 = map
            .coord_of(NodeId(0))
            .unwrap()
            .distance(map.coord_of(NodeId(1)).unwrap());
        assert!((d01 - 9.0).abs() < 0.3, "local map distance {d01}");
    }

    #[test]
    fn local_map_needs_three_nodes() {
        let mut set = MeasurementSet::new(3);
        set.insert(NodeId(0), NodeId(1), 5.0);
        let mut rng = seeded(2);
        assert!(matches!(
            LocalMap::build(NodeId(2), &set, &LssConfig::default(), &mut rng),
            Err(LocalizationError::InsufficientMeasurements(_))
        ));
    }

    #[test]
    fn transform_estimation_recovers_hidden_transform() {
        let truth = grid(3, 3, 9.0);
        let shared: Vec<NodeId> = (0..9).map(NodeId).collect();
        let hidden = RigidTransform::new(0.9, true, Vec2::new(4.0, -2.0));
        let source = LocalMap {
            center: NodeId(0),
            nodes: shared.clone(),
            coords: truth.clone(),
        };
        let target = LocalMap {
            center: NodeId(1),
            nodes: shared,
            coords: truth.iter().map(|&p| hidden.apply(p)).collect(),
        };
        for method in [
            TransformMethod::Covariance,
            TransformMethod::CovarianceUniform,
            TransformMethod::Minimization(DescentConfig {
                step_size: 0.01,
                max_iterations: 3_000,
                restarts: 2,
                perturbation: 1.0,
                ..DescentConfig::default()
            }),
        ] {
            let t =
                estimate_transform(&source, &target, &method, &TransformGuards::default()).unwrap();
            for &p in &truth {
                assert!(
                    t.apply(p).distance(hidden.apply(p)) < 0.05,
                    "{method:?} failed at {p}"
                );
            }
        }
    }

    #[test]
    fn guards_reject_collinear_shared_sets_but_permissive_accepts() {
        // Shared nodes on a line: the reflection is ambiguous.
        let line: Vec<Point2> = (0..5).map(|i| Point2::new(i as f64 * 9.0, 0.0)).collect();
        let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
        let source = LocalMap {
            center: NodeId(0),
            nodes: nodes.clone(),
            coords: line.clone(),
        };
        let hidden = RigidTransform::new(0.4, false, Vec2::new(2.0, 2.0));
        let target = LocalMap {
            center: NodeId(1),
            nodes,
            coords: line.iter().map(|&p| hidden.apply(p)).collect(),
        };
        assert!(matches!(
            estimate_transform(
                &source,
                &target,
                &TransformMethod::Covariance,
                &TransformGuards::default()
            ),
            Err(LocalizationError::InsufficientMeasurements(_))
        ));
        // The paper-faithful guards accept it.
        let t = estimate_transform(
            &source,
            &target,
            &TransformMethod::Covariance,
            &TransformGuards::permissive(),
        )
        .unwrap();
        assert!(t.apply(line[2]).distance(hidden.apply(line[2])) < 1e-6);
    }

    #[test]
    fn guards_reject_disagreeing_maps() {
        // Rich 2-D shared set, but the target map is warped (not rigid):
        // the residual guard must fire.
        let grid_pts: Vec<Point2> = (0..9)
            .map(|i| Point2::new((i % 3) as f64 * 9.0, (i / 3) as f64 * 9.0))
            .collect();
        let nodes: Vec<NodeId> = (0..9).map(NodeId).collect();
        let source = LocalMap {
            center: NodeId(0),
            nodes: nodes.clone(),
            coords: grid_pts.clone(),
        };
        let target = LocalMap {
            center: NodeId(1),
            nodes,
            coords: grid_pts
                .iter()
                .map(|&p| Point2::new(p.x * 1.4, p.y * 0.6)) // sheared
                .collect(),
        };
        assert!(matches!(
            estimate_transform(
                &source,
                &target,
                &TransformMethod::Covariance,
                &TransformGuards::default()
            ),
            Err(LocalizationError::InsufficientMeasurements(_))
        ));
    }

    #[test]
    fn transform_needs_shared_nodes() {
        let source = LocalMap {
            center: NodeId(0),
            nodes: vec![NodeId(0), NodeId(1)],
            coords: vec![Point2::ORIGIN, Point2::new(1.0, 0.0)],
        };
        let target = LocalMap {
            center: NodeId(5),
            nodes: vec![NodeId(5), NodeId(6)],
            coords: vec![Point2::ORIGIN, Point2::new(1.0, 0.0)],
        };
        assert!(matches!(
            estimate_transform(
                &source,
                &target,
                &TransformMethod::Covariance,
                &TransformGuards::default()
            ),
            Err(LocalizationError::InsufficientMeasurements(_))
        ));
    }

    /// Receivers keep a neighbour's map only if it shares at least
    /// `guards.min_shared` nodes with their own: node 0 shares three
    /// nodes with node 1's map and four with node 2's.
    #[test]
    fn receivers_keep_only_maps_that_can_align() {
        let map = |center: usize, ids: [usize; 5]| {
            let nodes: Vec<NodeId> = ids.into_iter().map(NodeId).collect();
            let coords = nodes
                .iter()
                .map(|id| Point2::new(id.index() as f64, (id.index() * id.index()) as f64))
                .collect();
            LocalMap {
                center: NodeId(center),
                nodes,
                coords,
            }
        };
        let stored = |guards: TransformGuards| {
            let maps = [
                map(0, [0, 1, 2, 3, 4]),
                map(1, [0, 1, 2, 5, 6]),
                map(2, [0, 1, 2, 3, 7]),
            ];
            let nodes = maps
                .into_iter()
                .map(|local_map| DistNode {
                    local_map: Some(SharedMap::new(local_map)),
                    neighbor_maps: BTreeMap::new(),
                    global_pos: None,
                    is_root: false,
                    transform: TransformMethod::Covariance,
                    guards,
                })
                .collect();
            let positions = [Point2::ORIGIN, Point2::new(5.0, 0.0), Point2::new(0.0, 5.0)];
            let mut sim = Simulator::new(nodes, &positions, RadioModel::ideal(10.0), 1);
            assert_eq!(sim.run().unwrap().delivered, 6);
            sim.node(NodeId(0))
                .neighbor_maps
                .keys()
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(stored(TransformGuards::default()), vec![NodeId(2)]);
        assert_eq!(
            stored(TransformGuards::permissive()),
            vec![NodeId(1), NodeId(2)]
        );
    }

    /// Forwards every callback to a [`DistNode`] but keeps the default
    /// [`Node::ignores`], so the simulator queues every delivery: the
    /// oracle the elided exchange must match. At each delivery the node
    /// would ignore, it checks that the delivery changed nothing.
    struct QueueEverything {
        inner: DistNode,
        ignorable: usize,
        /// Alignments that arrived before a map this node would keep.
        early_aligns: usize,
    }

    impl Node for QueueEverything {
        type Msg = DistMsg;
        fn on_start(&mut self, api: &mut Api<'_, DistMsg>) {
            self.inner.on_start(api);
        }
        fn on_message(&mut self, from: NodeId, msg: &DistMsg, api: &mut Api<'_, DistMsg>) {
            let ignorable = self.inner.ignores(from, msg);
            if !ignorable
                && matches!(msg, DistMsg::Align { .. })
                && !self.inner.neighbor_maps.contains_key(&from)
            {
                self.early_aligns += 1;
            }
            let before = (self.inner.global_pos, self.inner.neighbor_maps.len());
            self.inner.on_message(from, msg, api);
            if ignorable {
                self.ignorable += 1;
                let after = (self.inner.global_pos, self.inner.neighbor_maps.len());
                assert_eq!(after, before, "an ignorable delivery changed its node");
            }
        }
        fn on_timer(&mut self, timer: u64, api: &mut Api<'_, DistMsg>) {
            self.inner.on_timer(timer, api);
        }
    }

    /// The exchange that skips ignored deliveries ends with the position
    /// bits and the statistics of the oracle that queues them all, on
    /// town and metro-250, under radio loss, the paper's permissive
    /// guards, and a MAC delay beyond [`ALIGN_DELAY_S`] whose jitter lets
    /// alignments overtake maps.
    #[test]
    fn skipping_ignored_deliveries_moves_no_bit() {
        let slow = RadioModel {
            loss_probability: 0.0,
            mac_delay_s: 1.5 * ALIGN_DELAY_S,
            mac_jitter_s: 3.0 * ALIGN_DELAY_S,
            ..RadioModel::mica2()
        };
        let cases = [
            ("mica2", RadioModel::mica2(), TransformGuards::default()),
            (
                "30% loss",
                RadioModel {
                    loss_probability: 0.3,
                    ..RadioModel::mica2()
                },
                TransformGuards::default(),
            ),
            (
                "permissive",
                RadioModel::mica2(),
                TransformGuards::permissive(),
            ),
            ("slow MAC", slow, TransformGuards::default()),
        ];
        for (preset, config) in [
            ("town", DistributedConfig::default()),
            ("metro-250", DistributedConfig::metro()),
        ] {
            let problem = rl_deploy::presets::preset(preset)
                .expect("a preset")
                .instantiate(11);
            let set = problem.measurements();
            let truth = problem.truth_required().expect("presets carry truth");
            let local_maps: Vec<Option<LocalMap>> = (0..set.node_count())
                .map(|i| {
                    LocalMap::build(NodeId(i), set, &config.local_lss, &mut seeded(i as u64)).ok()
                })
                .collect();
            for (case, radio, guards) in &cases {
                let config = DistributedConfig {
                    guards: *guards,
                    ..config.clone()
                };
                let nodes = protocol_nodes(local_maps.clone(), NodeId(0), &config);
                let mut elided = exchange_simulator(nodes, truth, radio, 7);
                let stats = elided.run().expect("the elided exchange quiesces");
                let nodes = protocol_nodes(local_maps.clone(), NodeId(0), &config)
                    .into_iter()
                    .map(|inner| QueueEverything {
                        inner,
                        ignorable: 0,
                        early_aligns: 0,
                    })
                    .collect();
                let mut queued = exchange_simulator(nodes, truth, radio, 7);
                let queued_stats = queued.run().expect("the oracle quiesces");
                assert_eq!(stats, queued_stats, "{preset} {case}: statistics");

                let bits = |p: Option<Point2>| p.map(|p| (p.x.to_bits(), p.y.to_bits()));
                let elided_bits: Vec<_> = elided.iter().map(|(_, n)| bits(n.global_pos)).collect();
                let queued_bits: Vec<_> = queued
                    .iter()
                    .map(|(_, n)| bits(n.inner.global_pos))
                    .collect();
                assert_eq!(elided_bits, queued_bits, "{preset} {case}: positions");
                let aligned = elided_bits.iter().flatten().count();
                assert!(
                    aligned * 2 > truth.len(),
                    "{preset} {case}: {aligned} aligned"
                );
                let ignorable: usize = queued.iter().map(|(_, n)| n.ignorable).sum();
                assert!(ignorable > 0, "{preset} {case}: nothing to skip");
                if *case == "slow MAC" {
                    let early: usize = queued.iter().map(|(_, n)| n.early_aligns).sum();
                    assert!(early > 0, "{preset}: no alignment overtook a map");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The word-wise overlap equals the shared-node count of two maps,
        /// empty ones included, across the words both sets span.
        #[test]
        fn node_set_overlap_matches_shared_nodes(
            a in proptest::collection::vec(0usize..400, 0..40),
            b in proptest::collection::vec(0usize..400, 0..40),
        ) {
            let map = |ids: &[usize]| {
                let mut nodes: Vec<NodeId> = ids.iter().copied().map(NodeId).collect();
                nodes.sort();
                nodes.dedup();
                LocalMap {
                    center: NodeId(0),
                    coords: vec![Point2::ORIGIN; nodes.len()],
                    nodes,
                }
            };
            let (a, b) = (map(&a), map(&b));
            let shared = a.shared_nodes(&b).len();
            prop_assert_eq!(NodeSet::new(&a.nodes).overlap(&NodeSet::new(&b.nodes)), shared);
        }
    }

    #[test]
    fn distributed_on_dense_measurements_localizes_all() {
        let truth = grid(4, 4, 9.0);
        let set = MeasurementSet::oracle(&truth, 22.0);
        let mut rng = seeded(3);
        let config = DistributedConfig::default();
        let out = run_distributed(&set, &truth, NodeId(5), &config, &mut rng).unwrap();
        assert_eq!(out.local_maps_built, 16);
        assert_eq!(
            out.positions.localized_count(),
            16,
            "all nodes should align"
        );
        let eval = evaluate_against_truth(&out.positions, &truth).unwrap();
        assert!(eval.mean_error < 1.0, "mean error {}", eval.mean_error);
        assert!(out.messages_delivered > 0);
    }

    #[test]
    fn distributed_with_noise_stays_meter_level() {
        let truth = grid(4, 3, 9.0);
        let mut rng = seeded(4);
        let mut set = MeasurementSet::new(truth.len());
        for i in 0..truth.len() {
            for j in (i + 1)..truth.len() {
                let d = truth[i].distance(truth[j]);
                if d <= 22.0 {
                    set.insert(
                        NodeId(i),
                        NodeId(j),
                        (d + rl_math::rng::normal(&mut rng, 0.0, 0.33)).max(0.1),
                    );
                }
            }
        }
        let config = DistributedConfig::default().with_min_spacing(9.0, 10.0);
        let out = run_distributed(&set, &truth, NodeId(0), &config, &mut rng).unwrap();
        assert!(out.positions.localized_count() >= 10);
        let eval = evaluate_against_truth(&out.positions, &truth).unwrap();
        assert!(eval.mean_error < 1.5, "mean error {}", eval.mean_error);
    }

    #[test]
    fn sparse_measurements_break_alignment() {
        // A long chain of nodes where consecutive local maps share too few
        // nodes: alignment cannot propagate past the gaps.
        let truth: Vec<Point2> = (0..8).map(|i| Point2::new(i as f64 * 9.0, 0.0)).collect();
        let set = MeasurementSet::oracle(&truth, 9.5); // nearest neighbors only
        let mut rng = seeded(5);
        let out = run_distributed(
            &set,
            &truth,
            NodeId(0),
            &DistributedConfig::default(),
            &mut rng,
        )
        .unwrap();
        // Local maps are collinear triples; transforms are degenerate or
        // under-shared, so most nodes stay unlocalized.
        assert!(
            out.positions.localized_count() < truth.len(),
            "alignment should not fully propagate on a bare chain"
        );
    }

    #[test]
    fn metro_preset_and_builders() {
        let metro = DistributedConfig::metro();
        assert!(metro.refine.is_some(), "metro preset refines");
        assert_eq!(metro.workers, 0, "metro preset auto-sizes the pool");
        assert!(metro.local_lss.soft_constraint.is_some());
        assert!(
            metro.local_lss.descent.restarts
                < DistributedConfig::default().local_lss.descent.restarts,
            "MDS-seeded local solves need fewer restarts"
        );
        let custom = DistributedConfig::default()
            .with_workers(2)
            .with_refine(None);
        assert_eq!(custom.workers, 2);
        assert_eq!(custom.refine, None);
    }

    #[test]
    fn refinement_stays_in_regime_on_a_noisy_run() {
        // Same seed, refinement on versus off. At town scale the flood
        // accumulates almost no drift, so refinement is a wash within
        // the measurement noise (its real work — collapsing tens of
        // meters of metro-scale drift — is covered by the refine module
        // tests and the `smoke metro` error budget); what this asserts is
        // that the stage reports what it did and never *degrades* a
        // good run beyond noise level.
        let truth = grid(5, 4, 9.0);
        let mut seed_rng = seeded(12);
        let mut set = MeasurementSet::new(truth.len());
        for i in 0..truth.len() {
            for j in (i + 1)..truth.len() {
                let d = truth[i].distance(truth[j]);
                if d <= 22.0 {
                    set.insert(
                        NodeId(i),
                        NodeId(j),
                        (d + rl_math::rng::normal(&mut seed_rng, 0.0, 0.33)).max(0.1),
                    );
                }
            }
        }
        let error_with = |refine: Option<RefineConfig>| {
            let mut rng = seeded(13);
            let config = DistributedConfig::default()
                .with_min_spacing(9.0, 10.0)
                .with_refine(refine);
            let out = run_distributed(&set, &truth, NodeId(7), &config, &mut rng).unwrap();
            let eval = evaluate_against_truth(&out.positions, &truth).unwrap();
            (eval.mean_error, out.refine)
        };
        let (raw, no_stats) = error_with(None);
        let (refined, stats) = error_with(Some(RefineConfig::default()));
        assert_eq!(no_stats, None);
        let stats = stats.expect("refinement ran");
        assert!(stats.final_stress <= stats.initial_stress);
        assert!(stats.edges > 0 && stats.nodes > 2);
        assert!(
            refined <= (raw * 1.25).max(raw + 0.1),
            "refined {refined} left the regime of raw {raw}"
        );
        assert!(refined < 0.5, "refined error {refined} m");
    }

    #[test]
    fn error_cases() {
        let truth = grid(2, 2, 9.0);
        let set = MeasurementSet::oracle(&truth, 22.0);
        let mut rng = seeded(6);
        assert!(matches!(
            run_distributed(
                &set,
                &truth[..2],
                NodeId(0),
                &DistributedConfig::default(),
                &mut rng
            ),
            Err(LocalizationError::InvalidConfig(_))
        ));
        assert!(matches!(
            run_distributed(
                &set,
                &truth,
                NodeId(9),
                &DistributedConfig::default(),
                &mut rng
            ),
            Err(LocalizationError::InvalidConfig(_))
        ));
    }
}
