//! Anchor-based multilateration (Section 4.1).
//!
//! A node with distance measurements to at least three non-collinear
//! anchors estimates its position by weighted least squares:
//!
//! ```text
//! argmin Σ_{a ∈ A} w(c_a) · (‖p − p_a‖ − d_a)²
//! ```
//!
//! optionally after the *intersection consistency check* has discarded
//! anchors with inconsistent ranges. A *progressive* variant promotes
//! freshly localized nodes to anchors so later nodes have more references
//! — at the cost of error propagation.
//!
//! Each fix is a two-unknown problem, so it is minimized by damped
//! Gauss–Newton (Levenberg–Marquardt) on the weighted range residuals,
//! from the anchor centroid and from a ring of five starts around it. One
//! fused *pass* over the ranges returns the residual, the 2×2 normal
//! matrix `Σ w·u·uᵀ` (`u` the unit vector from anchor to estimate) and
//! the vector `Σ w·u·r` (`r` the range residual); a step is kept only if
//! it lowers the residual, and a start ends when its step rounds back to
//! the same point or the residual's relative drop becomes negligible.
//! [`MultilaterationOutcome::passes`] counts the passes of a whole run.
//!
//! Multilateration is the paper's baseline: accurate when anchors are
//! plentiful (Figure 12) and essentially useless on sparse field data
//! (Figure 14 localized 7 of 33 nodes), which is what motivates LSS.

mod consistency;

pub use consistency::{IntersectionConsistency, RangeToAnchor};

use rl_geom::{Point2, Vec2};
use rl_net::{pool, NodeId};
use rl_ranging::measurement::MeasurementSet;

use crate::problem::pool_workers;
use crate::types::{Anchor, PositionMap};
use crate::{LocalizationError, Result};

/// Minimum usable anchors per node (3 for an unambiguous 2-D fix).
const MIN_ANCHORS: usize = 3;

/// Weight of a derived (non-original) anchor in progressive mode; original
/// anchors weigh 1.
const PROGRESSIVE_WEIGHT: f64 = 0.5;

/// A start stops once an accepted step lowers the residual by no more
/// than this fraction of it.
const RELATIVE_DROP: f64 = 1e-12;

/// Damping of a start's first step, relative to the mean eigenvalue of
/// the normal matrix; divided by 10 after each accepted step and
/// multiplied by 10 after each rejected one.
const INITIAL_DAMPING: f64 = 1e-3;

/// Passes one start may take at most; a backstop, since every start
/// ends by a rounded-back step or a negligible drop well before it.
const MAX_PASSES: usize = 200;

/// Configuration of the multilateration solver.
#[derive(Debug, Clone, PartialEq)]
pub struct MultilaterationConfig {
    /// Intersection consistency check, if enabled.
    pub consistency: Option<IntersectionConsistency>,
    /// Whether localized nodes become anchors for later nodes.
    pub progressive: bool,
    /// Whether to leave a node unlocalized when its least-squares problem
    /// has two well-separated minima of comparable residual (the
    /// mirror-image ambiguity of near-collinear anchor sets). Disabling
    /// this reproduces the paper's Figure 16 "victims of the gradient
    /// descent falling into a local minimum": a start that converges to
    /// the wrong minimum with the lowest residual is accepted.
    pub reject_ambiguous: bool,
}

impl Default for MultilaterationConfig {
    fn default() -> Self {
        MultilaterationConfig {
            consistency: Some(IntersectionConsistency::default()),
            progressive: false,
            reject_ambiguous: true,
        }
    }
}

impl MultilaterationConfig {
    /// The configuration used in the paper's experiments: original anchors
    /// only, constant weight 1, least squares. (The intersection check was
    /// "omitted in this localization simulation" for Figure 16; toggle it
    /// with [`MultilaterationConfig::with_consistency`].)
    pub fn paper() -> Self {
        MultilaterationConfig::default()
    }

    /// Enables or disables the intersection consistency check.
    pub fn with_consistency(mut self, enabled: bool) -> Self {
        self.consistency = enabled.then(IntersectionConsistency::default);
        self
    }

    /// Enables progressive localization (builder style).
    pub fn progressive(mut self) -> Self {
        self.progressive = true;
        self
    }

    /// Enables or disables mirror-ambiguity rejection (builder style).
    pub fn with_ambiguity_rejection(mut self, enabled: bool) -> Self {
        self.reject_ambiguous = enabled;
        self
    }
}

/// Statistics and positions from one multilateration run.
#[derive(Debug, Clone)]
pub struct MultilaterationOutcome {
    /// Estimated positions (unlocalized nodes stay `None`).
    pub positions: PositionMap,
    /// Mean number of anchor ranges available per non-anchor node before
    /// filtering (the paper reports 1.47 for the sparse grid).
    pub mean_anchors_available: f64,
    /// Total anchors dropped by the consistency check.
    pub anchors_dropped: usize,
    /// Progressive rounds executed (1 when progressive mode is off).
    pub rounds: usize,
    /// Fused passes over a node's ranges, summed over every start of
    /// every fix in every round: the solver's unit of work.
    pub passes: usize,
}

/// Mean number of anchor ranges available per non-anchor node before any
/// filtering — the statistic behind the paper's "1.47 anchors per node"
/// for the sparse grid. Computed over the original anchor set; reported
/// by [`MultilaterationOutcome::mean_anchors_available`] and reusable by
/// comparison harnesses.
pub fn mean_anchors_available(measurements: &MeasurementSet, anchors: &[Anchor]) -> f64 {
    let anchor_set: std::collections::BTreeSet<NodeId> = anchors.iter().map(|a| a.id).collect();
    let mut total_available = 0usize;
    let mut non_anchor_count = 0usize;
    for i in 0..measurements.node_count() {
        if anchor_set.contains(&NodeId(i)) {
            continue;
        }
        non_anchor_count += 1;
        total_available += measurements
            .neighbors_of(NodeId(i))
            .filter(|(j, _)| anchor_set.contains(j))
            .count();
    }
    if non_anchor_count == 0 {
        0.0
    } else {
        total_available as f64 / non_anchor_count as f64
    }
}

/// The multilateration solver.
///
/// Runs in rounds: one round in plain mode, and in progressive mode until
/// a round localizes nobody. Each round computes every pending node's fix
/// from that node's own ranges to the anchor table as it stood at the
/// start of the round, then applies the fixes in index order (promoting
/// them to anchors in progressive mode). The fixes draw no randomness, so
/// they run on as many [`rl_net::pool`] workers as [`pool_workers`]
/// gives (the machine's parallelism at sparse scale, the calling thread
/// below it) with bit-identical results at any worker count.
///
/// A fix runs damped Gauss–Newton from six starts: the centroid of the
/// node's anchors and a ring of five around it at the anchors' spread.
/// The lowest residual wins. With [`MultilaterationConfig::reject_ambiguous`]
/// set, a start that ends more than 2 m from the winner at a residual
/// within `9·best + 0.5` marks a competing (mirror) minimum, and the node
/// stays unlocalized. [`MultilaterationOutcome::passes`] counts the fused
/// passes over the ranges that all starts took.
#[derive(Debug, Clone)]
pub struct MultilaterationSolver {
    config: MultilaterationConfig,
}

/// One fused pass over a node's ranges at one point.
struct Pass {
    /// Weighted residual `Σ w·(‖p − a‖ − d)²`.
    residual: f64,
    /// The normal matrix `Σ w·u·uᵀ` as `(xx, xy, yy)`.
    normal: (f64, f64, f64),
    /// `Σ w·u·r`, half the residual's gradient.
    gradient: Vec2,
}

impl Pass {
    fn at(observations: &[RangeToAnchor], p: Point2) -> Pass {
        let mut residual = 0.0;
        let (mut xx, mut xy, mut yy) = (0.0, 0.0, 0.0);
        let mut gradient = Vec2::ZERO;
        for o in observations {
            let dvec = p - o.anchor;
            let dist = dvec.norm();
            let r = dist - o.distance;
            residual += o.weight * r * r;
            // At an anchor the direction is undefined; that range then
            // adds to the residual only.
            if dist > 0.0 {
                let u = dvec * (1.0 / dist);
                let wu = u * o.weight;
                xx += wu.x * u.x;
                xy += wu.x * u.y;
                yy += wu.y * u.y;
                gradient = gradient + wu * r;
            }
        }
        Pass {
            residual,
            normal: (xx, xy, yy),
            gradient,
        }
    }

    /// The step solving `(N + μ·I)·δ = −g`, with `μ` the `damping`
    /// fraction of `N`'s mean eigenvalue.
    fn step(&self, damping: f64) -> Vec2 {
        let (xx, xy, yy) = self.normal;
        let mu = damping * 0.5 * (xx + yy);
        let (a, c) = (xx + mu, yy + mu);
        let det = a * c - xy * xy;
        let g = self.gradient;
        Vec2::new((xy * g.y - c * g.x) / det, (xy * g.x - a * g.y) / det)
    }
}

/// One start's damped Gauss–Newton descent: `(point, residual, passes)`.
fn gauss_newton(observations: &[RangeToAnchor], start: Point2) -> (Point2, f64, usize) {
    let mut p = start;
    let mut at = Pass::at(observations, p);
    let mut passes = 1;
    let mut damping = INITIAL_DAMPING;
    while passes < MAX_PASSES {
        let cand = p + at.step(damping);
        if !cand.is_finite() || (cand.x == p.x && cand.y == p.y) {
            break;
        }
        let next = Pass::at(observations, cand);
        passes += 1;
        if next.residual < at.residual {
            let negligible = at.residual - next.residual <= RELATIVE_DROP * at.residual;
            p = cand;
            at = next;
            damping *= 0.1;
            if negligible {
                break;
            }
        } else {
            damping *= 10.0;
        }
    }
    (p, at.residual, passes)
}

/// The six starts of a fix: the anchors' centroid, then a ring of five
/// at the anchors' spread (at least 1 m) around it.
fn starts(observations: &[RangeToAnchor]) -> Option<[Point2; 6]> {
    let anchors: Vec<Point2> = observations.iter().map(|o| o.anchor).collect();
    let centroid = rl_geom::centroid(&anchors)?;
    let spread = anchors
        .iter()
        .map(|a| a.distance(centroid))
        .fold(0.0f64, f64::max)
        .max(1.0);
    Some(core::array::from_fn(|k| {
        if k == 0 {
            centroid
        } else {
            let angle = core::f64::consts::TAU * (k - 1) as f64 / 5.0;
            centroid + Vec2::new(angle.cos(), angle.sin()) * spread
        }
    }))
}

impl MultilaterationSolver {
    /// Creates a solver.
    pub fn new(config: MultilaterationConfig) -> Self {
        MultilaterationSolver { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MultilaterationConfig {
        &self.config
    }

    /// Localizes every non-anchor node that has enough anchor ranges.
    ///
    /// Anchors appear in the output at their known positions.
    ///
    /// Multilateration consumes no randomness. The rounds may run on the
    /// worker pool (see [`MultilaterationSolver`]); the output is
    /// bit-identical for any core count.
    ///
    /// # Errors
    ///
    /// * [`LocalizationError::TooFewAnchors`] with fewer than
    ///   three anchors overall,
    /// * [`LocalizationError::InvalidConfig`] for out-of-range anchor ids.
    pub fn solve(
        &self,
        measurements: &MeasurementSet,
        anchors: &[Anchor],
    ) -> Result<MultilaterationOutcome> {
        self.solve_on(
            measurements,
            anchors,
            pool_workers(measurements.node_count()),
        )
    }

    /// [`Self::solve`] with each round's fixes on `workers` pool threads.
    fn solve_on(
        &self,
        measurements: &MeasurementSet,
        anchors: &[Anchor],
        workers: usize,
    ) -> Result<MultilaterationOutcome> {
        let n = measurements.node_count();
        if anchors.len() < MIN_ANCHORS {
            return Err(LocalizationError::TooFewAnchors {
                needed: MIN_ANCHORS,
                got: anchors.len(),
            });
        }
        for a in anchors {
            if a.id.index() >= n {
                return Err(LocalizationError::InvalidConfig("anchor id out of range"));
            }
        }

        let mut positions = PositionMap::unlocalized(n);
        // Anchor table: position plus weight (originals get weight 1).
        let mut anchor_table: Vec<Option<(Point2, f64)>> = vec![None; n];
        for a in anchors {
            anchor_table[a.id.index()] = Some((a.position, 1.0));
            positions.set(a.id, a.position);
        }

        // Availability statistic over the original anchor set only.
        let mean_anchors_available = mean_anchors_available(measurements, anchors);

        let mut anchors_dropped = 0usize;
        let mut rounds = 0usize;
        let mut passes = 0usize;
        loop {
            rounds += 1;
            let fixes = pool::par_map_indexed(n, workers, |i| {
                if positions.is_localized(NodeId(i)) {
                    Fix::default()
                } else {
                    self.fix(measurements, &anchor_table, NodeId(i))
                }
            });
            let mut localized_any = false;
            for (i, fix) in fixes.into_iter().enumerate() {
                anchors_dropped += fix.dropped;
                passes += fix.passes;
                if let Some(p) = fix.position {
                    localized_any = true;
                    positions.set(NodeId(i), p);
                    if self.config.progressive {
                        anchor_table[i] = Some((p, PROGRESSIVE_WEIGHT));
                    }
                }
            }
            if !localized_any || !self.config.progressive {
                break;
            }
        }

        Ok(MultilaterationOutcome {
            positions,
            mean_anchors_available,
            anchors_dropped,
            rounds,
            passes,
        })
    }

    /// One node's fix from the ranges it holds to the anchors in
    /// `anchor_table`. Pure in its inputs, so a round's fixes may run in
    /// any order.
    fn fix(
        &self,
        measurements: &MeasurementSet,
        anchor_table: &[Option<(Point2, f64)>],
        node: NodeId,
    ) -> Fix {
        let observations: Vec<RangeToAnchor> = measurements
            .neighbors_of(node)
            .filter_map(|(j, d)| {
                anchor_table[j.index()].map(|(pos, w)| RangeToAnchor {
                    anchor: pos,
                    distance: d,
                    weight: w,
                })
            })
            .collect();
        if observations.len() < MIN_ANCHORS {
            return Fix::default();
        }
        let (dropped, filtered): (usize, Vec<RangeToAnchor>) = match &self.config.consistency {
            Some(check) => {
                let kept = check.filter(&observations);
                (
                    observations.len() - kept.len(),
                    kept.into_iter().map(|k| observations[k]).collect(),
                )
            }
            None => (0, observations),
        };
        if filtered.len() < MIN_ANCHORS {
            return Fix {
                dropped,
                ..Fix::default()
            };
        }
        let (position, passes) = self.estimate(&filtered);
        Fix {
            dropped,
            position,
            passes,
        }
    }

    /// Weighted least squares from the six [`starts`]: the estimate, if
    /// any, and the passes taken.
    fn estimate(&self, observations: &[RangeToAnchor]) -> (Option<Point2>, usize) {
        // A single start from the centroid (the surveyor's choice) finds
        // *a* minimum; the ring dodges the mirror-image local minimum
        // that near-collinear anchor sets produce, and reveals whether
        // that minimum competes.
        let Some(starts) = starts(observations) else {
            return (None, 0);
        };
        let mut passes = 0;
        let mut minima: Vec<(Point2, f64)> = Vec::with_capacity(starts.len());
        for start in starts {
            let (p, residual, taken) = gauss_newton(observations, start);
            passes += taken;
            if p.is_finite() {
                minima.push((p, residual));
            }
        }
        let Some(&(best_p, best_v)) = minima
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite residuals"))
        else {
            return (None, passes);
        };
        if self.config.reject_ambiguous {
            let competing = minima
                .iter()
                .any(|&(p, v)| p.distance(best_p) > 2.0 && v <= best_v * 9.0 + 0.5);
            if competing {
                return (None, passes);
            }
        }
        (Some(best_p), passes)
    }
}

/// One node's fix: the anchors the consistency check dropped, the
/// estimate, if any, and the passes it took.
#[derive(Debug, Default)]
struct Fix {
    dropped: usize,
    position: Option<Point2>,
    passes: usize,
}

impl crate::problem::Localizer for MultilaterationSolver {
    fn name(&self) -> &str {
        if self.config.progressive {
            "multilateration-progressive"
        } else {
            "multilateration"
        }
    }

    /// Unified-trait entry point; see [`MultilaterationSolver::solve`] for
    /// the richer inherent API (availability statistics, dropped-anchor
    /// counts).
    fn localize(
        &self,
        problem: &crate::problem::Problem,
        _rng: &mut dyn rand::RngCore,
    ) -> Result<crate::problem::Solution> {
        use crate::problem::{Frame, Solution, SolveStats};
        let start = std::time::Instant::now();
        let out = self.solve(problem.measurements(), problem.anchors())?;
        Ok(Solution::new(
            out.positions,
            Frame::Absolute,
            SolveStats {
                iterations: out.rounds,
                residual: None,
                // A multilateration pass either localizes a node or
                // leaves it unlocalized; there is no global convergence
                // test to report.
                converged: None,
                cg_iterations: None,
                wall_time: start.elapsed(),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_absolute;
    use proptest::prelude::*;
    use rl_math::gradient::{descend, DescentConfig, Objective};
    use rl_math::rng::seeded;

    /// The fix before Gauss–Newton, kept as the property test's oracle:
    /// adaptive-step gradient descent on the same weighted residual.
    struct DescentOracle<'a> {
        observations: &'a [RangeToAnchor],
    }

    impl Objective for DescentOracle<'_> {
        fn dim(&self) -> usize {
            2
        }

        fn evaluate(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            let p = Point2::new(x[0], x[1]);
            let mut e = -0.0;
            grad[0] = 0.0;
            grad[1] = 0.0;
            for o in self.observations {
                let dvec = p - o.anchor;
                let dist = dvec.norm();
                let diff = dist - o.distance;
                e += o.weight * diff * diff;
                let dc = dist.max(1e-9);
                let factor = 2.0 * o.weight * (dc - o.distance) / dc;
                grad[0] += factor * dvec.x;
                grad[1] += factor * dvec.y;
            }
            e
        }
    }

    /// The lowest-residual end point over the six starts, and its
    /// residual, from `run` on each start.
    fn best_of_starts(
        observations: &[RangeToAnchor],
        run: impl Fn(Point2) -> (Point2, f64),
    ) -> (Point2, f64) {
        starts(observations)
            .expect("anchors")
            .into_iter()
            .map(run)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("six starts")
    }

    /// Where the deleted descent ends from `start`, and its residual:
    /// step 0.05, at most 500 iterations.
    fn descend_from(observations: &[RangeToAnchor], start: Point2) -> (Point2, f64) {
        let config = DescentConfig {
            step_size: 0.05,
            max_iterations: 500,
            tolerance: 1e-12,
            patience: 20,
            ..DescentConfig::default()
        };
        let out = descend(
            &DescentOracle { observations },
            &[start.x, start.y],
            &config,
        );
        (Point2::new(out.x[0], out.x[1]), out.value)
    }

    /// Anchors spread over a 100 m square, none of the layouts
    /// near-collinear, and a node inside their hull.
    fn layout(anchors: Vec<(f64, f64)>, mix: Vec<f64>) -> Option<(Vec<Point2>, Point2)> {
        let anchors: Vec<Point2> = anchors
            .into_iter()
            .map(|(x, y)| Point2::new(x, y))
            .collect();
        let c = rl_geom::centroid(&anchors)?;
        let (mut xx, mut xy, mut yy) = (0.0, 0.0, 0.0);
        for a in &anchors {
            let d = *a - c;
            xx += d.x * d.x;
            xy += d.x * d.y;
            yy += d.y * d.y;
        }
        let n = anchors.len() as f64;
        let (xx, xy, yy) = (xx / n, xy / n, yy / n);
        // The smaller eigenvalue of the anchors' covariance: at least
        // (15 m)² keeps the mirror minimum out of the layouts.
        let weakest = 0.5 * (xx + yy) - (0.25 * (xx - yy).powi(2) + xy * xy).sqrt();
        if weakest < 225.0 {
            return None;
        }
        let total: f64 = mix.iter().take(anchors.len()).sum();
        let node = anchors
            .iter()
            .zip(&mix)
            .fold(Point2::ORIGIN, |p, (a, w)| p + a.to_vec() * (w / total));
        Some((anchors, node))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Exact ranges to non-collinear anchors: the fix is the node
        /// itself, and every start of the ring converges to the node or,
        /// where the residual has a second local minimum, to the point the
        /// deleted descent from that start stalls at too.
        #[test]
        fn exact_ranges_recover_the_node_from_every_start(
            anchors in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 3..10),
            mix in proptest::collection::vec(0.05f64..1.0, 9),
        ) {
            let layout = layout(anchors, mix);
            prop_assume!(layout.is_some());
            let (anchors, node) = layout.expect("assumed");
            let observations: Vec<RangeToAnchor> = anchors
                .iter()
                .map(|&a| RangeToAnchor { anchor: a, distance: a.distance(node), weight: 1.0 })
                .collect();
            for start in starts(&observations).expect("anchors") {
                let (p, _, _) = gauss_newton(&observations, start);
                if p.distance(node) > 1e-9 {
                    let (stalled, _) = descend_from(&observations, start);
                    prop_assert!(p.distance(stalled) <= 1e-3, "from {start}: {p}, not {node}");
                }
            }
            let (fix, _) = best_of_starts(&observations, |start| {
                let (p, residual, _) = gauss_newton(&observations, start);
                (p, residual)
            });
            prop_assert!(fix.distance(node) <= 1e-9, "fix {fix}, node {node}");
        }

        /// On noisy ranges the Gauss–Newton fix reaches a residual no
        /// higher than the deleted descent's, at the same point.
        #[test]
        fn gauss_newton_fix_matches_the_descent_oracle(
            anchors in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 4..10),
            mix in proptest::collection::vec(0.05f64..1.0, 9),
            noise in proptest::collection::vec((-0.5f64..0.5, 0.5f64..1.0), 9),
        ) {
            let layout = layout(anchors, mix);
            prop_assume!(layout.is_some());
            let (anchors, node) = layout.expect("assumed");
            let observations: Vec<RangeToAnchor> = anchors
                .iter()
                .zip(&noise)
                .map(|(&a, &(e, weight))| RangeToAnchor {
                    anchor: a,
                    distance: (a.distance(node) + e).max(0.0),
                    weight,
                })
                .collect();
            let (want, oracle) =
                best_of_starts(&observations, |start| descend_from(&observations, start));
            let (got, residual) = best_of_starts(&observations, |start| {
                let (p, residual, _) = gauss_newton(&observations, start);
                (p, residual)
            });
            // A start stops once its relative drop is negligible, so the
            // residual may sit that fraction above the minimum.
            prop_assert!(
                residual <= oracle * (1.0 + RELATIVE_DROP),
                "residual {residual} > oracle {oracle}"
            );
            prop_assert!(got.distance(want) <= 1e-3, "{got} vs oracle {want}");
        }
    }

    /// Five anchors and four hidden nodes on a 20x20 field, exact ranges.
    fn exact_setup() -> (Vec<Point2>, Vec<Anchor>, MeasurementSet) {
        let truth = vec![
            Point2::new(0.0, 0.0),   // anchor
            Point2::new(20.0, 0.0),  // anchor
            Point2::new(0.0, 20.0),  // anchor
            Point2::new(20.0, 20.0), // anchor
            Point2::new(10.0, 10.0), // anchor
            Point2::new(6.0, 9.0),
            Point2::new(14.0, 5.0),
            Point2::new(4.0, 15.0),
            Point2::new(16.0, 13.0),
        ];
        let anchors: Vec<Anchor> = (0..5).map(|i| Anchor::new(NodeId(i), truth[i])).collect();
        let set = MeasurementSet::oracle(&truth, 1e9);
        (truth, anchors, set)
    }

    #[test]
    fn exact_ranges_localize_everything() {
        let (truth, anchors, set) = exact_setup();
        let out = MultilaterationSolver::new(MultilaterationConfig::paper())
            .solve(&set, &anchors)
            .unwrap();
        assert_eq!(out.positions.localized_count(), 9);
        let eval = evaluate_absolute(&out.positions, &truth).unwrap();
        assert!(eval.mean_error < 0.05, "mean error {}", eval.mean_error);
        assert_eq!(out.rounds, 1);
        assert!((out.mean_anchors_available - 5.0).abs() < 1e-12);
    }

    /// On the five-anchor field every start of every node's ring reaches
    /// the node, and the solve counts every pass the starts took.
    #[test]
    fn exact_ranges_converge_from_every_ring_start() {
        let (truth, anchors, set) = exact_setup();
        let mut passes = 0;
        for (i, &node) in truth.iter().enumerate().skip(anchors.len()) {
            let observations: Vec<RangeToAnchor> = anchors
                .iter()
                .map(|a| RangeToAnchor {
                    anchor: a.position,
                    distance: set.get(NodeId(i), a.id).expect("oracle range"),
                    weight: 1.0,
                })
                .collect();
            for start in starts(&observations).expect("anchors") {
                let (p, _, taken) = gauss_newton(&observations, start);
                assert!(p.distance(node) <= 1e-9, "node {i} from {start}: {p}");
                passes += taken;
            }
        }
        let out =
            MultilaterationSolver::new(MultilaterationConfig::paper().with_consistency(false))
                .solve(&set, &anchors)
                .unwrap();
        assert_eq!(out.passes, passes);
    }

    #[test]
    fn too_few_anchor_ranges_leave_node_unlocalized() {
        let (_, anchors, mut set) = exact_setup();
        // Strip node 5's measurements to anchors 0-2, leaving only two.
        set.remove(NodeId(5), NodeId(0));
        set.remove(NodeId(5), NodeId(1));
        set.remove(NodeId(5), NodeId(2));
        let out = MultilaterationSolver::new(MultilaterationConfig::paper())
            .solve(&set, &anchors)
            .unwrap();
        assert!(!out.positions.is_localized(NodeId(5)));
        assert!(out.positions.is_localized(NodeId(6)));
    }

    #[test]
    fn consistency_check_rescues_outlier_measurement() {
        let (truth, anchors, mut set) = exact_setup();
        // Corrupt node 5's range to anchor 3 grossly.
        set.insert(NodeId(5), NodeId(3), 3.0); // true ≈ 17.8

        let with = MultilaterationSolver::new(MultilaterationConfig::paper())
            .solve(&set, &anchors)
            .unwrap();
        let without =
            MultilaterationSolver::new(MultilaterationConfig::paper().with_consistency(false))
                .solve(&set, &anchors)
                .unwrap();

        let err_with = with.positions.get(NodeId(5)).unwrap().distance(truth[5]);
        let err_without = without.positions.get(NodeId(5)).unwrap().distance(truth[5]);
        assert!(
            with.anchors_dropped >= 1,
            "dropped {}",
            with.anchors_dropped
        );
        assert!(
            err_with < err_without,
            "consistency should help: {err_with} vs {err_without}"
        );
        assert!(err_with < 0.5, "err with check {err_with}");
    }

    #[test]
    fn progressive_extends_coverage() {
        // Chain: anchors cluster on the left; node 7 only measures nodes
        // 5 and 6 plus one anchor, so it needs progressive promotion.
        let truth = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(0.0, 10.0),
            Point2::new(10.0, 10.0),
            Point2::new(5.0, 5.0),
            Point2::new(15.0, 5.0),
            Point2::new(20.0, 10.0),
            Point2::new(25.0, 5.0),
        ];
        let anchors: Vec<Anchor> = (0..4).map(|i| Anchor::new(NodeId(i), truth[i])).collect();
        let mut set = MeasurementSet::new(8);
        let mut add = |a: usize, b: usize| {
            let d = truth[a].distance(truth[b]);
            set.insert(NodeId(a), NodeId(b), d);
        };
        // Nodes 4-6 see plenty of anchors; node 7 sees only 4, 5, 6.
        for node in 4..7 {
            for anchor in 0..4 {
                add(node, anchor);
            }
        }
        add(7, 4);
        add(7, 5);
        add(7, 6);

        let plain = MultilaterationSolver::new(MultilaterationConfig::paper())
            .solve(&set, &anchors)
            .unwrap();
        assert!(!plain.positions.is_localized(NodeId(7)));

        let progressive = MultilaterationSolver::new(MultilaterationConfig::paper().progressive())
            .solve(&set, &anchors)
            .unwrap();
        assert!(progressive.positions.is_localized(NodeId(7)));
        assert!(progressive.rounds > 1);
        let err = progressive
            .positions
            .get(NodeId(7))
            .unwrap()
            .distance(truth[7]);
        assert!(err < 1.0, "progressive error {err}");
    }

    #[test]
    fn ambiguity_rejection_declines_collinear_anchor_fixes() {
        // Three exactly collinear anchors: the mirror image across their
        // line fits the ranges equally well.
        let truth_node = Point2::new(5.0, 7.0);
        let anchor_positions = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(20.0, 0.0),
        ];
        let mut set = MeasurementSet::new(4);
        let anchors: Vec<Anchor> = anchor_positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                set.insert(NodeId(i), NodeId(3), p.distance(truth_node));
                Anchor::new(NodeId(i), p)
            })
            .collect();
        // The intersection check cannot help here (all intersections
        // cluster at both the node and its mirror), so disable it to
        // isolate the ambiguity rejection.
        let rejecting =
            MultilaterationSolver::new(MultilaterationConfig::paper().with_consistency(false))
                .solve(&set, &anchors)
                .unwrap();
        assert!(
            !rejecting.positions.is_localized(NodeId(3)),
            "mirror-ambiguous node must stay unlocalized"
        );

        let accepting = MultilaterationSolver::new(
            MultilaterationConfig::paper()
                .with_consistency(false)
                .with_ambiguity_rejection(false),
        )
        .solve(&set, &anchors)
        .unwrap();
        let p = accepting.positions.get(NodeId(3)).expect("localized");
        // Without rejection the node lands at the truth or its mirror.
        let mirror = Point2::new(5.0, -7.0);
        assert!(
            p.distance(truth_node) < 0.2 || p.distance(mirror) < 0.2,
            "got {p}"
        );
    }

    #[test]
    fn error_cases() {
        let (_, anchors, set) = exact_setup();
        let solver = MultilaterationSolver::new(MultilaterationConfig::paper());
        assert!(matches!(
            solver.solve(&set, &anchors[..2]),
            Err(LocalizationError::TooFewAnchors { .. })
        ));
        let bad = vec![Anchor::new(NodeId(99), Point2::ORIGIN); 3];
        assert!(matches!(
            solver.solve(&set, &bad),
            Err(LocalizationError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rounds_are_bit_identical_for_any_worker_count() {
        use rand::Rng;
        let n = 67;
        let mut rng = seeded(12);
        let truth: Vec<Point2> = (0..n)
            .map(|_| Point2::new(60.0 * rng.random::<f64>(), 60.0 * rng.random::<f64>()))
            .collect();
        let mut set = MeasurementSet::new(n);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = truth[i].distance(truth[j]);
                if d < 25.0 {
                    let noisy = (d + rl_math::rng::normal(&mut rng, 0.0, 0.5)).max(0.1);
                    set.insert(NodeId(i), NodeId(j), noisy);
                }
            }
        }
        // Gross outliers give the consistency check something to drop.
        for i in (1..n).step_by(7) {
            if let Some(d) = set.get(NodeId(i), NodeId(0)) {
                set.insert(NodeId(i), NodeId(0), d + 15.0);
            }
        }
        let anchors: Vec<Anchor> = (0..n)
            .step_by(6)
            .map(|i| Anchor::new(NodeId(i), truth[i]))
            .collect();
        for config in [
            MultilaterationConfig::paper(),
            MultilaterationConfig::paper().progressive(),
            MultilaterationConfig::paper()
                .with_consistency(false)
                .progressive(),
        ] {
            let solver = MultilaterationSolver::new(config);
            let reference = solver.solve_on(&set, &anchors, 1).unwrap();
            assert!(reference.positions.localized_count() > anchors.len());
            // The fixture exercises promotion rounds and dropped ranges.
            assert!(!solver.config.progressive || reference.rounds > 1);
            assert!(solver.config.consistency.is_none() || reference.anchors_dropped > 0);
            let bits = |map: &PositionMap| -> Vec<Option<(u64, u64)>> {
                (0..map.len())
                    .map(|i| map.get(NodeId(i)).map(|p| (p.x.to_bits(), p.y.to_bits())))
                    .collect()
            };
            for workers in [2, 3] {
                let pooled = solver.solve_on(&set, &anchors, workers).unwrap();
                assert_eq!(bits(&pooled.positions), bits(&reference.positions));
                assert_eq!(pooled.anchors_dropped, reference.anchors_dropped);
                assert_eq!(pooled.rounds, reference.rounds);
            }
        }
    }

    #[test]
    fn noisy_ranges_meter_level_accuracy() {
        let (truth, anchors, _) = exact_setup();
        let mut rng = seeded(7);
        let mut set = MeasurementSet::new(9);
        for i in 0..9usize {
            for j in (i + 1)..9 {
                let d = truth[i].distance(truth[j]);
                let noisy = (d + rl_math::rng::normal(&mut rng, 0.0, 0.33)).max(0.1);
                set.insert(NodeId(i), NodeId(j), noisy);
            }
        }
        let out = MultilaterationSolver::new(MultilaterationConfig::paper())
            .solve(&set, &anchors)
            .unwrap();
        let eval = evaluate_absolute(&out.positions, &truth).unwrap();
        // Anchors at truth + 4 localized nodes with sub-meter error.
        assert_eq!(out.positions.localized_count(), 9);
        assert!(eval.mean_error < 0.6, "mean error {}", eval.mean_error);
    }
}
