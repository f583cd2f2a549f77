//! The unified solving API: [`Problem`] in, [`Solution`] out, through the
//! [`Localizer`] trait.
//!
//! The paper's contribution is a *family* of algorithms of increasing
//! resilience — multilateration (§4.1), centralized LSS (§4.2), distributed
//! LSS (§4.3) — evaluated head-to-head on shared deployments, alongside the
//! Related-Work baselines (DV-hop, centroid, MDS-MAP). Every family has a
//! different calling convention in its natural habitat (anchors or not,
//! ground-truth connectivity or not), so comparison harnesses used to
//! hand-roll the wiring per algorithm. This module gives them one seam:
//!
//! * [`Problem`] — the inputs every localizer draws from: a measurement
//!   set, an anchor list (possibly empty), and optional ground-truth
//!   positions (used for radio connectivity by protocol-driven solvers and
//!   for evaluation),
//! * [`Solution`] — a [`PositionMap`] plus per-run [`SolveStats`] and the
//!   coordinate [`Frame`] the positions live in,
//! * [`Localizer`] — the object-safe trait implemented by
//!   [`MultilaterationSolver`](crate::multilateration::MultilaterationSolver),
//!   [`LssSolver`](crate::lss::LssSolver),
//!   [`DistributedSolver`](crate::distributed::DistributedSolver),
//!   [`MdsMapLocalizer`](crate::mds::MdsMapLocalizer),
//!   [`DvHopLocalizer`](crate::baselines::DvHopLocalizer) and
//!   [`CentroidLocalizer`](crate::baselines::CentroidLocalizer), so a
//!   `Vec<Box<dyn Localizer>>` can sweep the whole family over one problem.
//!
//! # Example
//!
//! ```
//! use rl_core::lss::{LssConfig, LssSolver};
//! use rl_core::problem::{Localizer, Problem};
//! use rl_geom::Point2;
//! use rl_ranging::measurement::MeasurementSet;
//!
//! let truth: Vec<Point2> = (0..9)
//!     .map(|i| Point2::new((i % 3) as f64 * 9.0, (i / 3) as f64 * 9.0))
//!     .collect();
//! let problem = Problem::builder(MeasurementSet::oracle(&truth, 25.0))
//!     .truth(truth)
//!     .build()?;
//!
//! let solver: Box<dyn Localizer> = Box::new(LssSolver::new(LssConfig::default()));
//! let mut rng = rl_math::rng::seeded(7);
//! let solution = solver.localize(&problem, &mut rng)?;
//! let eval = problem.evaluate(&solution)?;
//! assert!(eval.mean_error < 0.5, "mean error {}", eval.mean_error);
//! # Ok::<(), rl_core::LocalizationError>(())
//! ```

use std::time::Duration;

use rand::RngCore;
use rl_geom::Point2;
use rl_net::NodeId;
use rl_ranging::measurement::MeasurementSet;

use crate::eval::{evaluate_absolute, evaluate_against_truth, Evaluation};
use crate::types::{Anchor, PositionMap};
use crate::{LocalizationError, Result};

/// Which linear-algebra backend a solver runs its heavy stages on.
///
/// The dense paths ([`DMatrix`](rl_math::DMatrix) products, full Jacobi
/// eigendecompositions, materialized `O(n^2)` pair lists) are exact and
/// simple but scale as `O(n^2)`–`O(n^3)`; the sparse paths
/// ([`rl_math::sparse`]: CSR mat-vec, iterative top-`k` eigensolver,
/// spatial-grid active sets) exploit the connectivity graph's sparsity
/// under the 22 m ranging cutoff and stay tractable at metro scale.
/// Solvers honoring this enum ([`LssConfig`](crate::lss::LssConfig),
/// [`MdsMapLocalizer`](crate::mds::MdsMapLocalizer)) default to
/// [`SolverBackend::Auto`], which switches on the problem's node count at
/// [`SolverBackend::AUTO_THRESHOLD`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Pick per problem: dense below [`SolverBackend::AUTO_THRESHOLD`]
    /// nodes, sparse at or above it.
    #[default]
    Auto,
    /// Force the dense path regardless of size (the small-`n` reference
    /// implementation and parity oracle).
    Dense,
    /// Force the sparse path regardless of size.
    Sparse,
}

impl SolverBackend {
    /// Node count at which [`SolverBackend::Auto`] switches to the sparse
    /// path. Below it the dense `O(n^3)` work is cheaper than the sparse
    /// machinery's constant factors; the paper-scale scenarios (town: 59
    /// nodes) stay dense, the metro ladder (250+) goes sparse.
    pub const AUTO_THRESHOLD: usize = 100;

    /// Whether the sparse path should run for an `n`-node problem.
    pub fn use_sparse(self, n: usize) -> bool {
        match self {
            SolverBackend::Auto => n >= Self::AUTO_THRESHOLD,
            SolverBackend::Dense => false,
            SolverBackend::Sparse => true,
        }
    }
}

/// The coordinate frame a solution's positions are expressed in. Decides
/// how [`Problem::evaluate`] compares them with ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// Positions live in the anchors' (surveyed) coordinate system and are
    /// compared with truth directly — the protocol for anchor-based
    /// algorithms like multilateration.
    Absolute,
    /// Positions live in an arbitrary relative frame (translation,
    /// rotation and reflection undetermined) and are best-fit aligned
    /// before comparison — the paper's protocol for anchor-free LSS.
    Relative,
}

/// A localization problem: everything an algorithm may draw on.
///
/// Built with [`Problem::builder`]; validation (anchor ids in range, truth
/// length matching the measurement set) happens at
/// [`ProblemBuilder::build`].
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    name: String,
    measurements: MeasurementSet,
    anchors: Vec<Anchor>,
    truth: Option<Vec<Point2>>,
}

impl Problem {
    /// Starts building a problem around a measurement set.
    pub fn builder(measurements: MeasurementSet) -> ProblemBuilder {
        ProblemBuilder {
            name: String::new(),
            measurements,
            anchors: Vec::new(),
            truth: None,
        }
    }

    /// The problem's label (empty unless set via
    /// [`ProblemBuilder::name`]).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pairwise distance measurements.
    pub fn measurements(&self) -> &MeasurementSet {
        &self.measurements
    }

    /// The anchors (nodes with surveyed positions); empty for anchor-free
    /// operation.
    pub fn anchors(&self) -> &[Anchor] {
        &self.anchors
    }

    /// Anchor node ids, in declaration order.
    pub fn anchor_ids(&self) -> Vec<NodeId> {
        self.anchors.iter().map(|a| a.id).collect()
    }

    /// Ground-truth positions, when known. Protocol-driven solvers
    /// (distributed LSS, DV-hop, centroid) read these for radio
    /// *connectivity* only; [`Problem::evaluate`] reads them as
    /// coordinates.
    pub fn truth(&self) -> Option<&[Point2]> {
        self.truth.as_deref()
    }

    /// Ground-truth positions, or the standard error when the problem
    /// carries none.
    ///
    /// # Errors
    ///
    /// [`LocalizationError::InvalidConfig`] without ground truth.
    pub fn truth_required(&self) -> Result<&[Point2]> {
        self.truth
            .as_deref()
            .ok_or(LocalizationError::InvalidConfig(
                "this localizer needs ground-truth positions (radio connectivity)",
            ))
    }

    /// Number of nodes in the problem.
    pub fn node_count(&self) -> usize {
        self.measurements.node_count()
    }

    /// Evaluates a solution against the problem's ground truth: absolute
    /// comparison for [`Frame::Absolute`] solutions, best-fit alignment
    /// for [`Frame::Relative`] ones. When the problem has anchors, they
    /// are excluded from the error metric (they are inputs, not
    /// estimates).
    ///
    /// # Errors
    ///
    /// * [`LocalizationError::Evaluation`] when the problem carries no
    ///   ground truth, when too few nodes are localized to evaluate, or
    ///   when no *non-anchor* node was localized.
    pub fn evaluate(&self, solution: &Solution) -> Result<Evaluation> {
        let truth = self
            .truth
            .as_deref()
            .ok_or(LocalizationError::Evaluation("problem has no ground truth"))?;
        let eval = match solution.frame() {
            Frame::Absolute => evaluate_absolute(solution.positions(), truth)?,
            Frame::Relative => evaluate_against_truth(solution.positions(), truth)?,
        };
        if self.anchors.is_empty() {
            return Ok(eval);
        }
        let eval = eval.excluding(&self.anchor_ids());
        if eval.localized == 0 {
            return Err(LocalizationError::Evaluation(
                "no non-anchor node was localized",
            ));
        }
        Ok(eval)
    }
}

/// Builder for [`Problem`].
#[derive(Debug, Clone)]
pub struct ProblemBuilder {
    name: String,
    measurements: MeasurementSet,
    anchors: Vec<Anchor>,
    truth: Option<Vec<Point2>>,
}

impl ProblemBuilder {
    /// Labels the problem (shows up in campaign tables).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Supplies the anchor list.
    pub fn anchors(mut self, anchors: Vec<Anchor>) -> Self {
        self.anchors = anchors;
        self
    }

    /// Supplies ground-truth positions (one per node).
    pub fn truth(mut self, truth: Vec<Point2>) -> Self {
        self.truth = Some(truth);
        self
    }

    /// Validates and builds the problem.
    ///
    /// # Errors
    ///
    /// [`LocalizationError::InvalidConfig`] when an anchor id is out of
    /// range or the truth length disagrees with the measurement set's node
    /// count.
    pub fn build(self) -> Result<Problem> {
        let n = self.measurements.node_count();
        for a in &self.anchors {
            if a.id.index() >= n {
                return Err(LocalizationError::InvalidConfig("anchor id out of range"));
            }
        }
        if let Some(truth) = &self.truth {
            if truth.len() != n {
                return Err(LocalizationError::InvalidConfig(
                    "truth and measurements disagree on node count",
                ));
            }
        }
        Ok(Problem {
            name: self.name,
            measurements: self.measurements,
            anchors: self.anchors,
            truth: self.truth,
        })
    }
}

/// Per-run solver statistics attached to every [`Solution`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveStats {
    /// Algorithm-specific work counter: descent iterations for the
    /// least-squares solvers, protocol messages delivered for distributed
    /// LSS, rounds for progressive multilateration, `0` for closed-form
    /// baselines.
    pub iterations: usize,
    /// Final objective value where one exists (LSS stress, anchored
    /// refinement stress); `None` for algorithms without a scalar
    /// residual.
    pub residual: Option<f64>,
    /// Whether the solver's iteration reached its convergence criterion:
    /// the stress target for the least-squares solvers, the eigensolver
    /// residual bound for sparse MDS-MAP. `None` for algorithms with no
    /// convergence notion (closed-form baselines, protocol-driven
    /// solvers). Campaign summary tables aggregate this per cell.
    pub converged: Option<bool>,
    /// Cumulative inner conjugate-gradient iterations, for solvers whose
    /// refinement stage runs CG (distributed LSS, the tracking warm
    /// path); `None` for solvers with no CG inside. The `smoke sparse`
    /// CI suite reads this to gate the preconditioned-CG iteration win —
    /// deliberately **not** part of any campaign fingerprint, which were
    /// pinned before the field existed.
    pub cg_iterations: Option<usize>,
    /// Wall-clock time the solve took.
    pub wall_time: Duration,
}

/// The output of one [`Localizer::localize`] call.
#[derive(Debug, Clone)]
pub struct Solution {
    positions: PositionMap,
    frame: Frame,
    stats: SolveStats,
}

impl Solution {
    /// Creates a solution.
    pub fn new(positions: PositionMap, frame: Frame, stats: SolveStats) -> Self {
        Solution {
            positions,
            frame,
            stats,
        }
    }

    /// The estimated positions (unlocalized nodes stay `None`).
    pub fn positions(&self) -> &PositionMap {
        &self.positions
    }

    /// Consumes the solution, returning the position map.
    pub fn into_positions(self) -> PositionMap {
        self.positions
    }

    /// The coordinate frame the positions are expressed in.
    pub fn frame(&self) -> Frame {
        self.frame
    }

    /// Per-run solver statistics.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }
}

/// A localization algorithm runnable through one object-safe entry point.
///
/// Implementations wrap their inherent solving methods (which remain the
/// richer, algorithm-specific API) so heterogeneous solver sets can be
/// swept over a shared [`Problem`]: `Vec<Box<dyn Localizer>>` is the
/// comparison matrix the paper's evaluation is built from.
///
/// # Thread safety
///
/// `Localizer` requires `Send + Sync` so campaign runners can fan a shared
/// `&dyn Localizer` out across worker threads (each worker solves
/// different cells of the grid with the *same* solver value). Localizers
/// are configuration, not state: [`Localizer::localize`] takes `&self`,
/// and all per-run mutability lives in the caller-supplied RNG, so plain
/// config structs satisfy the bounds automatically.
pub trait Localizer: Send + Sync {
    /// Short stable identifier for tables and reports, e.g. `"lss"`.
    fn name(&self) -> &str;

    /// Solves the problem.
    ///
    /// # Errors
    ///
    /// Algorithm-specific [`LocalizationError`]s: missing anchors for
    /// anchor-based schemes, missing ground truth for protocol-driven
    /// ones, insufficient measurements, configuration errors.
    fn localize(&self, problem: &Problem, rng: &mut dyn RngCore) -> Result<Solution>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_geom::Vec2;

    fn grid(nx: usize, ny: usize, spacing: f64) -> Vec<Point2> {
        (0..nx * ny)
            .map(|i| Point2::new((i % nx) as f64 * spacing, (i / nx) as f64 * spacing))
            .collect()
    }

    fn oracle_problem() -> Problem {
        let truth = grid(3, 3, 9.0);
        Problem::builder(MeasurementSet::oracle(&truth, 1e9))
            .name("oracle-3x3")
            .truth(truth)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_anchor_ids_and_truth_length() {
        let truth = grid(2, 2, 9.0);
        let set = MeasurementSet::oracle(&truth, 1e9);
        let bad_anchor = Problem::builder(set.clone())
            .anchors(vec![Anchor::new(NodeId(99), Point2::ORIGIN)])
            .build();
        assert!(matches!(
            bad_anchor,
            Err(LocalizationError::InvalidConfig(_))
        ));
        let bad_truth = Problem::builder(set).truth(grid(3, 3, 9.0)).build();
        assert!(matches!(
            bad_truth,
            Err(LocalizationError::InvalidConfig(_))
        ));
    }

    #[test]
    fn accessors_round_trip() {
        let p = oracle_problem();
        assert_eq!(p.name(), "oracle-3x3");
        assert_eq!(p.node_count(), 9);
        assert!(p.anchors().is_empty());
        assert!(p.anchor_ids().is_empty());
        assert_eq!(p.truth().unwrap().len(), 9);
        assert_eq!(p.truth_required().unwrap().len(), 9);
        let anonymous = Problem::builder(MeasurementSet::new(3)).build().unwrap();
        assert!(anonymous.truth().is_none());
        assert!(anonymous.truth_required().is_err());
    }

    #[test]
    fn evaluate_requires_truth_and_excludes_anchors() {
        let truth = grid(3, 3, 9.0);
        let anchors = vec![Anchor::new(NodeId(0), truth[0])];
        let with_anchors = Problem::builder(MeasurementSet::oracle(&truth, 1e9))
            .anchors(anchors)
            .truth(truth.clone())
            .build()
            .unwrap();

        // A perfect absolute solution: anchors must not count toward the
        // metric, so 8 of 9 nodes are evaluated.
        let solution = Solution::new(
            PositionMap::complete(truth.clone()),
            Frame::Absolute,
            SolveStats::default(),
        );
        let eval = with_anchors.evaluate(&solution).unwrap();
        assert_eq!(eval.localized, 8);
        assert_eq!(eval.total, 8);
        assert!(eval.mean_error < 1e-12);

        let truthless = Problem::builder(MeasurementSet::oracle(&truth, 1e9))
            .build()
            .unwrap();
        assert!(matches!(
            truthless.evaluate(&solution),
            Err(LocalizationError::Evaluation(_))
        ));
    }

    #[test]
    fn evaluate_aligns_relative_solutions() {
        let p = oracle_problem();
        let truth = p.truth().unwrap().to_vec();
        let shifted: Vec<Point2> = truth.iter().map(|&q| q + Vec2::new(50.0, -3.0)).collect();
        let relative = Solution::new(
            PositionMap::complete(shifted.clone()),
            Frame::Relative,
            SolveStats::default(),
        );
        assert!(p.evaluate(&relative).unwrap().mean_error < 1e-9);
        let absolute = Solution::new(
            PositionMap::complete(shifted),
            Frame::Absolute,
            SolveStats::default(),
        );
        assert!(p.evaluate(&absolute).unwrap().mean_error > 10.0);
    }

    #[test]
    fn evaluate_rejects_anchor_only_solutions() {
        let truth = grid(3, 3, 9.0);
        let anchors = Anchor::from_truth(&[NodeId(0), NodeId(1), NodeId(2)], &truth);
        let p = Problem::builder(MeasurementSet::oracle(&truth, 1e9))
            .anchors(anchors.clone())
            .truth(truth.clone())
            .build()
            .unwrap();
        let mut positions = PositionMap::unlocalized(9);
        for a in &anchors {
            positions.set(a.id, a.position);
        }
        let solution = Solution::new(positions, Frame::Absolute, SolveStats::default());
        assert!(matches!(
            p.evaluate(&solution),
            Err(LocalizationError::Evaluation(_))
        ));
    }

    #[test]
    fn problem_and_solutions_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        // The campaign worker pool shares problems and boxed localizers by
        // reference across threads and sends solutions back.
        assert_send_sync::<Problem>();
        assert_send_sync::<Solution>();
        assert_send_sync::<Box<dyn Localizer>>();
        assert_send_sync::<crate::eval::Evaluation>();
    }

    #[test]
    fn localizer_is_object_safe() {
        struct Fixed;
        impl Localizer for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn localize(&self, problem: &Problem, _rng: &mut dyn RngCore) -> Result<Solution> {
                Ok(Solution::new(
                    PositionMap::unlocalized(problem.node_count()),
                    Frame::Absolute,
                    SolveStats::default(),
                ))
            }
        }
        let solvers: Vec<Box<dyn Localizer>> = vec![Box::new(Fixed)];
        let p = oracle_problem();
        let mut rng = rl_math::rng::seeded(1);
        for s in &solvers {
            assert_eq!(s.name(), "fixed");
            let sol = s.localize(&p, &mut rng).unwrap();
            assert_eq!(sol.positions().len(), 9);
            assert_eq!(sol.frame(), Frame::Absolute);
            assert_eq!(sol.stats().iterations, 0);
        }
    }
}
