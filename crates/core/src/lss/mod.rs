//! Centralized least-squares scaling (LSS) with soft constraints.
//!
//! The paper's key localization algorithm (Section 4.2): an anchor-free
//! multidimensional-scaling variant that tolerates missing pairwise
//! distances, supports per-measurement confidence weights, and — crucially
//! for resilience — incorporates deployment knowledge ("a minimum distance
//! between nodes can be known in advance") as a **soft constraint** on
//! unmeasured pairs. Minimization is plain gradient descent with
//! perturbation restarts, exactly as in the paper.
//!
//! Without the soft constraint the descent routinely converges to folded
//! configurations (Figures 19/22); with it, sparse noisy field data
//! localizes every node to meter-level error (Figures 18/21).

mod error_fn;

pub use error_fn::{LssObjective, SoftConstraint};

use rand::Rng;
use rl_geom::Point2;
use rl_math::gradient::{descend, DescentConfig, DescentTrace};
use rl_math::RobustLoss;
use rl_ranging::measurement::MeasurementSet;

use crate::types::PositionMap;
use crate::{LocalizationError, Result};

/// How to seed the configuration before descent.
#[derive(Debug, Clone, PartialEq)]
pub enum InitStrategy {
    /// Uniform random positions in a square sized to the measurement
    /// scale (side ≈ mean measured distance × √n).
    Random,
    /// Seed from MDS-MAP (shortest-path completion + classical MDS),
    /// falling back to [`InitStrategy::Random`] when the graph is
    /// disconnected. An extension beyond the paper that typically speeds
    /// convergence.
    MdsMap,
    /// Explicit starting coordinates (must match the node count).
    Given(Vec<Point2>),
}

/// Weight of the quadratic anchor springs used by
/// [`LssSolver::solve_anchored`].
const ANCHOR_WEIGHT: f64 = 100.0;

/// Configuration of the centralized LSS solver.
#[derive(Debug, Clone, PartialEq)]
pub struct LssConfig {
    /// Minimum-spacing soft constraint, if any.
    pub soft_constraint: Option<SoftConstraint>,
    /// Gradient-descent settings. `descent.restarts` is the maximum number
    /// of perturbation rounds after the initial one; the solver stops
    /// early once the stress target is reached (the paper: "repeated until
    /// a reasonable minimum is reached or the maximum computation time
    /// limit expires").
    pub descent: DescentConfig,
    /// Early-exit threshold: restarting stops once
    /// `stress <= target_stress_per_pair × measured_pairs`. Set to `0.0`
    /// to always exhaust every round. The default of 0.5 (RMS residual
    /// ~0.7 m per pair) comfortably accepts `N(0, 0.33 m)` noise while
    /// rejecting folded configurations, whose stress is orders of
    /// magnitude higher.
    pub target_stress_per_pair: f64,
    /// Optional robust reweighting: after the base solve, measurement
    /// weights are multiplied by the IRLS factor of the configured
    /// [`RobustLoss`] at their residual and the problem is re-solved,
    /// which suppresses gross ranging outliers. This realizes §4.2.1's
    /// suggestion to weight measurements "depending on their confidence
    /// levels". A [`RobustLoss::SquaredL2`] loss makes the reweighting a
    /// no-op and the solver skips the extra re-solves entirely, leaving
    /// the RNG stream — and therefore the solution — bit-identical to a
    /// plain (`robust: None`) solve.
    pub robust: Option<RobustReweight>,
    /// Configuration seeding strategy.
    pub init: InitStrategy,
    /// Whether the unified [`Localizer`](crate::problem::Localizer) entry
    /// point may use a problem's anchors (anchored solve, absolute
    /// output). Disable to force the paper's anchor-free operation even
    /// when anchors are available — head-to-head comparisons use this to
    /// keep LSS on equal (anchor-less) footing. Ignored by the inherent
    /// [`LssSolver::solve`]/[`LssSolver::solve_anchored`] methods.
    pub use_anchors: bool,
}

impl Default for LssConfig {
    fn default() -> Self {
        LssConfig {
            soft_constraint: None,
            descent: DescentConfig {
                step_size: 0.005,
                max_iterations: 4_000,
                tolerance: 1e-10,
                patience: 50,
                // Escaping folded configurations needs many perturbation
                // rounds with displacement on the scale of the node
                // spacing (the paper ran minimization for hours; we spend
                // our budget on restarts, cut short by the stress target).
                restarts: 120,
                perturbation: 6.0,
                record_trace: false,
            },
            target_stress_per_pair: 0.5,
            robust: None,
            init: InitStrategy::Random,
            use_anchors: true,
        }
    }
}

/// Parameters of the robust reweighting loop.
///
/// # Example
///
/// ```
/// use rl_core::lss::RobustReweight;
/// use rl_math::RobustLoss;
///
/// // The default is the historical Cauchy kernel at a 1 m scale ...
/// assert_eq!(
///     RobustReweight::default().loss,
///     RobustLoss::Cauchy { scale_m: 1.0 }
/// );
/// // ... and any loss kernel can be swapped in.
/// let huber = RobustReweight::with_loss(RobustLoss::Huber { delta_m: 1.0 });
/// assert_eq!(huber.iterations, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustReweight {
    /// Number of reweight-and-resolve passes (1-2 suffice).
    pub iterations: usize,
    /// The loss kernel supplying the IRLS weight factor. The default
    /// Cauchy loss halves a measurement's weight at a 1 m residual.
    pub loss: RobustLoss,
}

impl Default for RobustReweight {
    fn default() -> Self {
        RobustReweight {
            iterations: 2,
            loss: RobustLoss::Cauchy { scale_m: 1.0 },
        }
    }
}

impl RobustReweight {
    /// The default iteration budget with an explicit loss kernel.
    pub fn with_loss(loss: RobustLoss) -> Self {
        RobustReweight {
            loss,
            ..RobustReweight::default()
        }
    }
}

impl LssConfig {
    /// Enables the minimum-spacing soft constraint (builder style). The
    /// paper's grass-grid experiment used `d_min = 9.14 m`, `w_D = 10`.
    pub fn with_min_spacing(mut self, min_spacing_m: f64, weight: f64) -> Self {
        self.soft_constraint = Some(SoftConstraint {
            min_spacing_m,
            weight,
        });
        self
    }

    /// Disables the soft constraint (builder style).
    pub fn without_constraint(mut self) -> Self {
        self.soft_constraint = None;
        self
    }

    /// Enables recording of the error-versus-epoch trace (Figure 23).
    pub fn with_trace(mut self) -> Self {
        self.descent.record_trace = true;
        self
    }

    /// Replaces the init strategy (builder style).
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Enables robust outlier reweighting (builder style).
    pub fn with_robust_reweight(mut self, robust: RobustReweight) -> Self {
        self.robust = Some(robust);
        self
    }

    /// Enables robust outlier reweighting with an explicit loss kernel
    /// and the default iteration budget (builder style).
    /// [`RobustLoss::SquaredL2`] turns the reweight passes into no-ops
    /// (and the solver skips them), so the same code path covers the
    /// non-robust baseline.
    pub fn with_robust_loss(self, loss: RobustLoss) -> Self {
        self.with_robust_reweight(RobustReweight::with_loss(loss))
    }

    /// Forces anchor-free operation through the unified
    /// [`Localizer`](crate::problem::Localizer) entry point (builder
    /// style): anchors in the problem are ignored and the solution stays
    /// in a relative frame, as in the paper's evaluation.
    pub fn anchor_free(mut self) -> Self {
        self.use_anchors = false;
        self
    }

    /// A configuration tuned for metro-scale deployments (hundreds to
    /// thousands of nodes): the paper's soft constraint, anchor-free
    /// operation, the MDS-MAP initializer (whose sparse path makes it
    /// cheap at this size), and a short restart schedule — a good seed
    /// makes long perturbation searches unnecessary, and each descent
    /// round already costs `O(edges + candidates)` per iteration.
    pub fn metro() -> Self {
        LssConfig {
            soft_constraint: Some(SoftConstraint {
                min_spacing_m: 9.14,
                weight: 10.0,
            }),
            descent: DescentConfig {
                step_size: 0.005,
                max_iterations: 1_500,
                tolerance: 1e-9,
                patience: 40,
                restarts: 2,
                perturbation: 4.0,
                record_trace: false,
            },
            target_stress_per_pair: 1.0,
            robust: None,
            init: InitStrategy::MdsMap,
            use_anchors: false,
        }
    }
}

/// The result of an LSS run.
#[derive(Debug, Clone)]
pub struct LssSolution {
    coordinates: Vec<Point2>,
    stress: f64,
    iterations: usize,
    converged: bool,
    trace: Option<DescentTrace>,
}

impl LssSolution {
    /// The solved coordinates (relative frame: translation, rotation and
    /// reflection are arbitrary unless anchors were used).
    pub fn coordinates(&self) -> &[Point2] {
        &self.coordinates
    }

    /// The coordinates as a complete [`PositionMap`] — LSS always assigns
    /// every node a position.
    pub fn positions(&self) -> PositionMap {
        PositionMap::complete(self.coordinates.clone())
    }

    /// Final stress `E`.
    pub fn stress(&self) -> f64 {
        self.stress
    }

    /// Total accepted descent iterations.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the restart loop reached its stress target
    /// (`target_stress_per_pair × measured pairs`) rather than exhausting
    /// every round. A `false` solution is the best configuration found,
    /// typically still folded.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Error-versus-epoch trace, when recording was enabled.
    pub fn trace(&self) -> Option<&DescentTrace> {
        self.trace.as_ref()
    }
}

/// The centralized LSS solver.
#[derive(Debug, Clone)]
pub struct LssSolver {
    config: LssConfig,
}

impl LssSolver {
    /// Creates a solver.
    pub fn new(config: LssConfig) -> Self {
        LssSolver { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LssConfig {
        &self.config
    }

    /// Solves for a relative configuration from the measurement set.
    ///
    /// # Errors
    ///
    /// * [`LocalizationError::InsufficientMeasurements`] for empty sets or
    ///   fewer than three nodes,
    /// * [`LocalizationError::InvalidConfig`] when a `Given` init has the
    ///   wrong length.
    pub fn solve<R: Rng + ?Sized>(&self, set: &MeasurementSet, rng: &mut R) -> Result<LssSolution> {
        let mut solution = self.solve_once(set, rng)?;
        let Some(robust) = self.config.robust else {
            return Ok(solution);
        };
        if robust.loss.is_quadratic() {
            // IRLS with the quadratic loss re-solves the identical
            // problem; skipping keeps the RNG stream (and the solution)
            // bit-identical to a non-robust solve.
            return Ok(solution);
        }
        // Robust refinement: reweight by residual, re-solve from the
        // current configuration with a short budget.
        for _ in 0..robust.iterations {
            let mut reweighted = MeasurementSet::new(set.node_count());
            for (a, b, d, w) in set.iter_weighted() {
                let pa = solution.coordinates[a.index()];
                let pb = solution.coordinates[b.index()];
                let residual = (pa.distance(pb) - d).abs();
                let factor = robust.loss.irls_factor(residual);
                reweighted.insert_weighted(a, b, d, (w * factor).max(1e-6));
            }
            let refine = LssSolver::new(LssConfig {
                robust: None,
                init: InitStrategy::Given(solution.coordinates.clone()),
                descent: DescentConfig {
                    restarts: 6,
                    ..self.config.descent.clone()
                },
                ..self.config.clone()
            });
            let refined = refine.solve_once(&reweighted, rng)?;
            solution = LssSolution {
                trace: solution.trace.take(),
                iterations: solution.iterations + refined.iterations,
                ..refined
            };
        }
        Ok(solution)
    }

    fn solve_once<R: Rng + ?Sized>(
        &self,
        set: &MeasurementSet,
        rng: &mut R,
    ) -> Result<LssSolution> {
        let n = set.node_count();
        if n < 3 {
            return Err(LocalizationError::InsufficientMeasurements(
                "LSS needs at least three nodes",
            ));
        }
        if set.is_empty() {
            return Err(LocalizationError::InsufficientMeasurements(
                "no measured pairs",
            ));
        }
        let objective = LssObjective::new(set, self.config.soft_constraint);
        let x0 = self.initial_configuration(set, rng)?;

        // Restart management lives here (each round is one `descend`, not
        // the generic optimizer's restart loop) so the stress target can end
        // the search early, as in the paper.
        let target = self.config.target_stress_per_pair * set.len() as f64;
        let mut best_x = x0.clone();
        let mut best_stress = f64::INFINITY;
        let mut iterations = 0usize;
        let mut trace = self.config.descent.record_trace.then(DescentTrace::default);
        let mut gauss = rl_math::rng::GaussianSampler::new();

        // Scale for fresh random re-seeds (see below).
        let fresh_side = square_side(set);
        let mut stale_rounds = 0usize;

        for round in 0..=self.config.descent.restarts {
            // Perturbing a deeply folded best configuration can orbit the
            // same basin forever, so the restart schedule mixes the paper's
            // perturb-the-best rounds with completely fresh random seeds:
            // every third round, and additionally after six fruitless
            // rounds, a fresh configuration is drawn.
            let fresh = round % 3 == 2 || stale_rounds >= 6;
            let seed_x: Vec<f64> = if round == 0 {
                x0.clone()
            } else if fresh {
                stale_rounds = 0;
                random_square(n, fresh_side, rng)
            } else {
                best_x
                    .iter()
                    .map(|&v| v + gauss.sample_with(rng, 0.0, self.config.descent.perturbation))
                    .collect()
            };
            let outcome = descend(&objective, &seed_x, &self.config.descent);
            iterations += outcome.iterations;
            if let (Some(t), Some(rt)) = (trace.as_mut(), outcome.trace.as_ref()) {
                t.round_starts.push(t.values.len());
                t.values.extend_from_slice(&rt.values);
            }
            if outcome.value < best_stress - 1e-12 {
                best_stress = outcome.value;
                best_x = outcome.x;
                stale_rounds = 0;
            } else {
                stale_rounds += 1;
            }
            if best_stress <= target {
                break;
            }
        }

        Ok(LssSolution {
            coordinates: unflatten(&best_x, n),
            stress: best_stress,
            iterations,
            converged: best_stress <= target,
            trace,
        })
    }

    /// Solves with anchors pinned by quadratic springs of weight 100,
    /// producing coordinates directly in the anchors' (absolute) frame.
    ///
    /// This is an extension beyond the paper (which evaluates LSS
    /// anchor-free and aligns post hoc); it is useful when a deployment has
    /// a few surveyed nodes and wants absolute output.
    ///
    /// # Errors
    ///
    /// Same as [`LssSolver::solve`], plus
    /// [`LocalizationError::TooFewAnchors`] with fewer than 2 anchors.
    pub fn solve_anchored<R: Rng + ?Sized>(
        &self,
        set: &MeasurementSet,
        anchors: &[crate::types::Anchor],
        rng: &mut R,
    ) -> Result<LssSolution> {
        if anchors.len() < 2 {
            return Err(LocalizationError::TooFewAnchors {
                needed: 2,
                got: anchors.len(),
            });
        }
        let relative = self.solve(set, rng)?;
        // Align the relative solution onto the anchors (rigid fit), then
        // run a short anchored refinement with springs.
        let source: Vec<Point2> = anchors
            .iter()
            .map(|a| relative.coordinates[a.id.index()])
            .collect();
        let target: Vec<Point2> = anchors.iter().map(|a| a.position).collect();
        let fit = rl_geom::fit_rigid_transform(&source, &target, true)?;
        let seeded: Vec<Point2> = relative
            .coordinates
            .iter()
            .map(|&p| fit.transform.apply(p))
            .collect();

        let objective = AnchoredObjective {
            inner: LssObjective::new(set, self.config.soft_constraint),
            anchors: anchors.iter().map(|a| (a.id.index(), a.position)).collect(),
            weight: ANCHOR_WEIGHT,
            n: set.node_count(),
        };
        let x0 = flatten(&seeded);
        let refine_cfg = DescentConfig {
            record_trace: false,
            ..self.config.descent.clone()
        };
        let outcome = descend(&objective, &x0, &refine_cfg);
        Ok(LssSolution {
            coordinates: unflatten(&outcome.x, set.node_count()),
            stress: outcome.value,
            iterations: relative.iterations + outcome.iterations,
            converged: relative.converged,
            trace: relative.trace,
        })
    }

    fn initial_configuration<R: Rng + ?Sized>(
        &self,
        set: &MeasurementSet,
        rng: &mut R,
    ) -> Result<Vec<f64>> {
        let n = set.node_count();
        match &self.config.init {
            InitStrategy::Random => Ok(random_square(n, square_side(set), rng)),
            InitStrategy::MdsMap => match crate::mds::mdsmap_coordinates(set) {
                Ok(coords) => Ok(flatten(&coords)),
                Err(_) => Ok(random_square(n, square_side(set), rng)),
            },
            InitStrategy::Given(coords) => {
                if coords.len() != n {
                    return Err(LocalizationError::InvalidConfig(
                        "given init has wrong node count",
                    ));
                }
                Ok(flatten(coords))
            }
        }
    }
}

impl crate::problem::Localizer for LssSolver {
    fn name(&self) -> &str {
        match (
            self.config.soft_constraint.is_some(),
            self.config.use_anchors,
        ) {
            (true, true) => "lss+constraint",
            (false, true) => "lss",
            (true, false) => "lss-anchor-free+constraint",
            (false, false) => "lss-anchor-free",
        }
    }

    /// Unified entry point collapsing the [`LssSolver::solve`] /
    /// [`LssSolver::solve_anchored`] split: with two or more anchors (and
    /// [`LssConfig::use_anchors`] left enabled) the solve is anchored and
    /// the solution is [`Frame::Absolute`]; otherwise it is anchor-free
    /// and [`Frame::Relative`].
    ///
    /// [`Frame::Absolute`]: crate::problem::Frame::Absolute
    /// [`Frame::Relative`]: crate::problem::Frame::Relative
    fn localize(
        &self,
        problem: &crate::problem::Problem,
        rng: &mut dyn rand::RngCore,
    ) -> Result<crate::problem::Solution> {
        use crate::problem::{Frame, Solution, SolveStats};
        let start = std::time::Instant::now();
        let (solution, frame) = if self.config.use_anchors && problem.anchors().len() >= 2 {
            let sol = self.solve_anchored(problem.measurements(), problem.anchors(), rng)?;
            (sol, Frame::Absolute)
        } else {
            (self.solve(problem.measurements(), rng)?, Frame::Relative)
        };
        Ok(Solution::new(
            solution.positions(),
            frame,
            SolveStats {
                iterations: solution.iterations(),
                residual: Some(solution.stress()),
                converged: Some(solution.converged()),
                // The LSS descent is gradient-based; no CG inside.
                cg_iterations: None,
                wall_time: start.elapsed(),
            },
        ))
    }
}

/// Anchored LSS objective: the plain stress plus quadratic springs pulling
/// anchors toward their surveyed positions.
#[derive(Debug)]
struct AnchoredObjective {
    inner: LssObjective,
    anchors: Vec<(usize, Point2)>,
    weight: f64,
    n: usize,
}

impl rl_math::gradient::Objective for AnchoredObjective {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn evaluate(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let mut e = self.inner.evaluate(x, grad);
        for &(i, p) in &self.anchors {
            let dx = x[i] - p.x;
            let dy = x[self.n + i] - p.y;
            e += self.weight * (dx * dx + dy * dy);
            grad[i] += 2.0 * self.weight * dx;
            grad[self.n + i] += 2.0 * self.weight * dy;
        }
        e
    }
}

/// Side of the random start square, sized to the measurement scale:
/// mean measured distance × √n × 0.7, at least 1 m.
fn square_side(set: &MeasurementSet) -> f64 {
    let mean_d = set.iter().map(|(_, _, d)| d).sum::<f64>() / set.len() as f64;
    (mean_d * (set.node_count() as f64).sqrt() * 0.7).max(1.0)
}

fn random_square<R: Rng + ?Sized>(n: usize, side: f64, rng: &mut R) -> Vec<f64> {
    let mut x = Vec::with_capacity(2 * n);
    for _ in 0..n {
        x.push(rng.random::<f64>() * side);
    }
    for _ in 0..n {
        x.push(rng.random::<f64>() * side);
    }
    x
}

fn flatten(coords: &[Point2]) -> Vec<f64> {
    let n = coords.len();
    let mut x = vec![0.0; 2 * n];
    for (i, p) in coords.iter().enumerate() {
        x[i] = p.x;
        x[n + i] = p.y;
    }
    x
}

fn unflatten(x: &[f64], n: usize) -> Vec<Point2> {
    (0..n).map(|i| Point2::new(x[i], x[n + i])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{evaluate_absolute, evaluate_against_truth};
    use crate::types::Anchor;
    use proptest::prelude::*;
    use rl_math::gradient::Objective;
    use rl_math::rng::seeded;
    use rl_net::NodeId;

    /// The value and gradient as two passes, before they were fused:
    /// the oracle `AnchoredObjective::evaluate` must match bit for bit.
    impl AnchoredObjective {
        fn value(&self, x: &[f64]) -> f64 {
            let mut e = self.inner.value(x);
            for &(i, p) in &self.anchors {
                let dx = x[i] - p.x;
                let dy = x[self.n + i] - p.y;
                e += self.weight * (dx * dx + dy * dy);
            }
            e
        }

        fn gradient(&self, x: &[f64], grad: &mut [f64]) {
            self.inner.gradient(x, grad);
            for &(i, p) in &self.anchors {
                grad[i] += 2.0 * self.weight * (x[i] - p.x);
                grad[self.n + i] += 2.0 * self.weight * (x[self.n + i] - p.y);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The fused anchored evaluation equals the two-pass value and
        /// gradient, with and without the soft constraint.
        #[test]
        fn anchored_objective_evaluate_matches_the_two_pass_oracle(
            edges in proptest::collection::vec((0usize..8, 0usize..8, 1.0f64..30.0), 3..20),
            anchors in proptest::collection::vec((0usize..8, -20.0f64..20.0, -20.0f64..20.0), 2..5),
            x in proptest::collection::vec(-25.0f64..25.0, 16),
            constrained in proptest::bool::ANY,
        ) {
            let mut set = MeasurementSet::new(8);
            for &(a, b, d) in &edges {
                if a != b {
                    set.insert(NodeId(a), NodeId(b), d);
                }
            }
            let soft = constrained.then_some(SoftConstraint {
                min_spacing_m: 9.0,
                weight: 10.0,
            });
            let objective = AnchoredObjective {
                inner: LssObjective::new(&set, soft),
                anchors: anchors
                    .iter()
                    .map(|&(i, px, py)| (i, Point2::new(px, py)))
                    .collect(),
                weight: ANCHOR_WEIGHT,
                n: 8,
            };
            let mut grad = vec![f64::NAN; 16];
            let value = objective.evaluate(&x, &mut grad);
            let mut want = vec![0.0; 16];
            objective.gradient(&x, &mut want);
            let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(value.to_bits(), objective.value(&x).to_bits());
            prop_assert_eq!(bits(&grad), bits(&want));
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
    fn exact_complete_distances_recover_geometry() {
        let truth = grid(3, 3, 9.0);
        let set = MeasurementSet::oracle(&truth, 1e9);
        let mut rng = seeded(1);
        let solver = LssSolver::new(LssConfig::default());
        let sol = solver.solve(&set, &mut rng).unwrap();
        let eval = evaluate_against_truth(&sol.positions(), &truth).unwrap();
        assert!(eval.mean_error < 0.05, "mean error {}", eval.mean_error);
        assert!(sol.stress() < 1e-3, "stress {}", sol.stress());
        assert!(sol.iterations() > 0);
    }

    #[test]
    fn sparse_distances_with_constraint_recover_geometry() {
        let truth = grid(4, 4, 9.0);
        // Only neighbors within 14 m are measured (4-neighborhood plus
        // diagonals) — far sparser than complete.
        let set = MeasurementSet::oracle(&truth, 14.0);
        let mut rng = seeded(2);
        let config = LssConfig::default().with_min_spacing(9.0, 10.0);
        let solver = LssSolver::new(config);
        let sol = solver.solve(&set, &mut rng).unwrap();
        let eval = evaluate_against_truth(&sol.positions(), &truth).unwrap();
        assert!(eval.mean_error < 0.8, "mean error {}", eval.mean_error);
    }

    #[test]
    fn noisy_measurements_still_converge() {
        let truth = grid(3, 3, 9.0);
        let mut rng = seeded(3);
        let mut set = MeasurementSet::new(9);
        for i in 0..9usize {
            for j in (i + 1)..9 {
                let d = truth[i].distance(truth[j]);
                if d <= 15.0 {
                    let noisy = d + rl_math::rng::normal(&mut rng, 0.0, 0.33);
                    set.insert(NodeId(i), NodeId(j), noisy.max(0.1));
                }
            }
        }
        let config = LssConfig::default().with_min_spacing(9.0, 10.0);
        let sol = LssSolver::new(config).solve(&set, &mut rng).unwrap();
        let eval = evaluate_against_truth(&sol.positions(), &truth).unwrap();
        assert!(eval.mean_error < 1.0, "mean error {}", eval.mean_error);
    }

    #[test]
    fn trace_recording_works() {
        let truth = grid(3, 3, 9.0);
        let set = MeasurementSet::oracle(&truth, 1e9);
        let mut rng = seeded(4);
        let sol = LssSolver::new(LssConfig::default().with_trace())
            .solve(&set, &mut rng)
            .unwrap();
        let trace = sol.trace().expect("trace requested");
        assert!(!trace.values.is_empty());
        // Final trace value matches reported stress.
        let best = trace.values.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((best - sol.stress()).abs() < 1e-9 * (1.0 + best));
    }

    #[test]
    fn error_cases() {
        let mut rng = seeded(5);
        let solver = LssSolver::new(LssConfig::default());
        let tiny = MeasurementSet::new(2);
        assert!(matches!(
            solver.solve(&tiny, &mut rng),
            Err(LocalizationError::InsufficientMeasurements(_))
        ));
        let empty = MeasurementSet::new(5);
        assert!(matches!(
            solver.solve(&empty, &mut rng),
            Err(LocalizationError::InsufficientMeasurements(_))
        ));
        let mut set = MeasurementSet::new(3);
        set.insert(NodeId(0), NodeId(1), 5.0);
        let bad_init = LssSolver::new(
            LssConfig::default().with_init(InitStrategy::Given(vec![Point2::ORIGIN])),
        );
        assert!(matches!(
            bad_init.solve(&set, &mut rng),
            Err(LocalizationError::InvalidConfig(_))
        ));
    }

    #[test]
    fn given_init_near_truth_converges_fast() {
        let truth = grid(3, 3, 9.0);
        let set = MeasurementSet::oracle(&truth, 1e9);
        let mut rng = seeded(6);
        let near: Vec<Point2> = truth
            .iter()
            .map(|&p| Point2::new(p.x + 0.1, p.y - 0.1))
            .collect();
        let config = LssConfig {
            descent: DescentConfig {
                restarts: 0,
                ..LssConfig::default().descent
            },
            ..LssConfig::default()
        }
        .with_init(InitStrategy::Given(near));
        let sol = LssSolver::new(config).solve(&set, &mut rng).unwrap();
        assert!(sol.stress() < 1e-6);
    }

    #[test]
    fn mdsmap_init_solves_connected_graph() {
        let truth = grid(4, 3, 9.0);
        let set = MeasurementSet::oracle(&truth, 14.0);
        let mut rng = seeded(7);
        let config = LssConfig::default()
            .with_init(InitStrategy::MdsMap)
            .with_min_spacing(9.0, 10.0);
        let sol = LssSolver::new(config).solve(&set, &mut rng).unwrap();
        let eval = evaluate_against_truth(&sol.positions(), &truth).unwrap();
        assert!(eval.mean_error < 0.5, "mean error {}", eval.mean_error);
    }

    #[test]
    fn anchored_solve_outputs_absolute_frame() {
        let truth = grid(3, 3, 9.0);
        let set = MeasurementSet::oracle(&truth, 1e9);
        let mut rng = seeded(8);
        let anchors = Anchor::from_truth(&[NodeId(0), NodeId(2), NodeId(6)], &truth);
        let sol = LssSolver::new(LssConfig::default())
            .solve_anchored(&set, &anchors, &mut rng)
            .unwrap();
        // No alignment step: positions must already be in the truth frame.
        let eval = evaluate_absolute(&sol.positions(), &truth).unwrap();
        assert!(eval.mean_error < 0.2, "mean error {}", eval.mean_error);
    }

    #[test]
    fn robust_reweighting_suppresses_gross_outlier() {
        let truth = grid(3, 3, 9.0);
        let mut set = MeasurementSet::oracle(&truth, 1e9);
        // One catastrophic underestimate (echo-style).
        set.insert(NodeId(0), NodeId(8), 2.0); // true ~25.5 m
        let mut rng = seeded(21);
        let plain = LssSolver::new(LssConfig::default())
            .solve(&set, &mut rng)
            .unwrap();
        let plain_eval = evaluate_against_truth(&plain.positions(), &truth).unwrap();

        let mut rng = seeded(21);
        let robust =
            LssSolver::new(LssConfig::default().with_robust_reweight(RobustReweight::default()))
                .solve(&set, &mut rng)
                .unwrap();
        let robust_eval = evaluate_against_truth(&robust.positions(), &truth).unwrap();
        assert!(
            robust_eval.mean_error < plain_eval.mean_error * 0.6,
            "robust {} vs plain {}",
            robust_eval.mean_error,
            plain_eval.mean_error
        );
        assert!(
            robust_eval.mean_error < 0.3,
            "robust {}",
            robust_eval.mean_error
        );
    }

    #[test]
    fn anchored_needs_two_anchors() {
        let truth = grid(3, 3, 9.0);
        let set = MeasurementSet::oracle(&truth, 1e9);
        let mut rng = seeded(9);
        let anchors = Anchor::from_truth(&[NodeId(0)], &truth);
        assert!(matches!(
            LssSolver::new(LssConfig::default()).solve_anchored(&set, &anchors, &mut rng),
            Err(LocalizationError::TooFewAnchors { needed: 2, got: 1 })
        ));
    }
}
