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
        cluster.extend(set.neighbors_of(center).into_iter().map(|(id, _)| id));
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

    fn value(&self, x: &[f64]) -> f64 {
        let t = RigidTransform::new(x[0], self.reflected, Vec2::new(x[1], x[2]));
        self.src
            .iter()
            .zip(self.tgt)
            .map(|(&s, &g)| t.apply(s).distance_sq(g))
            .sum()
    }

    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        // Analytic gradient over theta and translation.
        let (sin, cos) = x[0].sin_cos();
        let f = if self.reflected { -1.0 } else { 1.0 };
        grad.iter_mut().for_each(|g| *g = 0.0);
        for (&s, &g) in self.src.iter().zip(self.tgt) {
            // T(s) with row-vector convention:
            // x' = s.x cos + s.y f sin + tx ; y' = -s.x sin + s.y f cos + ty
            let px = s.x * cos + s.y * f * sin + x[1];
            let py = -s.x * sin + s.y * f * cos + x[2];
            let rx = px - g.x;
            let ry = py - g.y;
            // d px/dθ = -s.x sin + s.y f cos ; d py/dθ = -s.x cos - s.y f sin
            let dpx = -s.x * sin + s.y * f * cos;
            let dpy = -s.x * cos - s.y * f * sin;
            grad[0] += 2.0 * (rx * dpx + ry * dpy);
            grad[1] += 2.0 * rx;
            grad[2] += 2.0 * ry;
        }
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
    /// Delay before the root starts the alignment flood, seconds (must
    /// exceed one map-exchange round trip).
    pub alignment_delay_s: f64,
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
            alignment_delay_s: 1.0,
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

    /// [`DistributedConfig::metro`] plus the sparse-kernel acceleration
    /// that measures as a win on this pipeline: warm-started inner CG
    /// solves, seeded from the previous Gauss–Newton delta (rescaled by
    /// a one-matvec line search; CG's never-worse guard makes the seed
    /// risk-free). Jacobi preconditioning is deliberately *not* enabled:
    /// the damped normal equations' diagonal is near-uniform on metro
    /// deployments (uniform edge weights, narrow degree spread), so
    /// Jacobi measured as a slight iteration-count *increase* there —
    /// the preconditioner that pays at metro scale is [`IC(0)`] on
    /// explicitly assembled systems, which the `smoke sparse` CI suite
    /// gates at ≥2x iteration reduction.
    ///
    /// Same optimization problem and stopping rules as `metro()` — the
    /// acceleration changes the *path* to the solution, not its quality —
    /// but **not** bit-identical to it: `metro()` predates the kernel
    /// work and its output bits are fingerprint-pinned
    /// (`tests/robust_parity.rs`), so the warm-started variant is a
    /// separate opt-in preset rather than a silent upgrade.
    ///
    /// [`IC(0)`]: rl_math::sparse::cg::IncompleteCholesky
    pub fn metro_fast() -> Self {
        let mut config = Self::metro();
        if let Some(refine) = &mut config.refine {
            refine.cg_warm_start = true;
        }
        config
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
                // by a numerical criterion; when the refinement stage ran
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
#[derive(Debug, Clone)]
pub enum DistMsg {
    /// A node's local map (step 2's "local data exchange").
    Map(LocalMap),
    /// The alignment wave: global origin and axis vectors expressed in the
    /// sender's local frame.
    Align {
        /// Global origin in the sender's local frame.
        origin: Point2,
        /// Global x-axis unit vector in the sender's local frame.
        ex: Vec2,
        /// Global y-axis unit vector in the sender's local frame.
        ey: Vec2,
    },
}

const ALIGN_TIMER: u64 = 1;

/// Per-node protocol state.
#[derive(Debug)]
struct DistNode {
    local_map: Option<LocalMap>,
    neighbor_maps: BTreeMap<NodeId, LocalMap>,
    global_pos: Option<Point2>,
    is_root: bool,
    transform: TransformMethod,
    guards: TransformGuards,
    align_delay_s: f64,
}

impl DistNode {
    fn align_and_forward(
        &mut self,
        origin: Point2,
        ex: Vec2,
        ey: Vec2,
        api: &mut Api<'_, DistMsg>,
    ) {
        let Some(map) = &self.local_map else { return };
        let Some(p) = map.coord_of(map.center) else {
            return;
        };
        let rel = p - origin;
        self.global_pos = Some(Point2::new(rel.dot(ex), rel.dot(ey)));
        api.broadcast(DistMsg::Align { origin, ex, ey });
    }
}

impl Node for DistNode {
    type Msg = DistMsg;

    fn on_start(&mut self, api: &mut Api<'_, DistMsg>) {
        if let Some(map) = self.local_map.clone() {
            api.broadcast(DistMsg::Map(map));
        }
        if self.is_root {
            // Give the map exchange time to complete, then start the
            // alignment flood from this node's frame.
            api.set_timer(self.align_delay_s, ALIGN_TIMER);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: DistMsg, api: &mut Api<'_, DistMsg>) {
        match msg {
            DistMsg::Map(map) => {
                self.neighbor_maps.insert(from, map);
            }
            DistMsg::Align { origin, ex, ey } => {
                if self.global_pos.is_some() {
                    return; // first alignment wins
                }
                let Some(my_map) = self.local_map.clone() else {
                    return;
                };
                let Some(sender_map) = self.neighbor_maps.get(&from) else {
                    return;
                };
                // Transform from the sender's frame into mine.
                let Ok(t) = estimate_transform(sender_map, &my_map, &self.transform, &self.guards)
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
    let nodes: Vec<DistNode> = local_maps
        .into_iter()
        .enumerate()
        .map(|(i, local_map)| DistNode {
            local_map,
            neighbor_maps: BTreeMap::new(),
            global_pos: None,
            is_root: i == root.index(),
            transform: config.transform.clone(),
            guards: config.guards,
            align_delay_s: config.alignment_delay_s,
        })
        .collect();

    // Steps 2-3: map exchange + alignment flood on the simulator.
    let seed = rng.random::<u64>();
    let mut sim = Simulator::new(nodes, truth_positions, config.radio.clone(), seed);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_against_truth;
    use rl_math::rng::seeded;

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
