//! Anchor-based multilateration (Section 4.1).
//!
//! A node with distance measurements to at least three non-collinear
//! anchors estimates its position by weighted least squares:
//!
//! ```text
//! argmin Σ_{a ∈ A} w(c_a) · (‖p − p_a‖ − d_a)²
//! ```
//!
//! minimized by gradient descent, optionally after the *intersection
//! consistency check* has discarded anchors with inconsistent ranges. A
//! *progressive* variant promotes freshly localized nodes to anchors so
//! later nodes have more references — at the cost of error propagation.
//!
//! Multilateration is the paper's baseline: accurate when anchors are
//! plentiful (Figure 12) and essentially useless on sparse field data
//! (Figure 14 localized 7 of 33 nodes), which is what motivates LSS.

mod consistency;

pub use consistency::{IntersectionConsistency, RangeToAnchor};

use rl_geom::Point2;
use rl_math::gradient::{descend, DescentConfig, Objective};
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

/// Configuration of the multilateration solver.
#[derive(Debug, Clone, PartialEq)]
pub struct MultilaterationConfig {
    /// Intersection consistency check, if enabled.
    pub consistency: Option<IntersectionConsistency>,
    /// Whether localized nodes become anchors for later nodes.
    pub progressive: bool,
    /// Gradient descent of each node's weighted least-squares fix.
    pub descent: DescentConfig,
    /// Whether to leave a node unlocalized when its least-squares problem
    /// has two well-separated minima of comparable residual (the
    /// mirror-image ambiguity of near-collinear anchor sets). Disabling
    /// this reproduces the paper's Figure 16 "victims of the gradient
    /// descent falling into a local minimum".
    pub reject_ambiguous: bool,
}

impl Default for MultilaterationConfig {
    fn default() -> Self {
        MultilaterationConfig {
            consistency: Some(IntersectionConsistency::default()),
            progressive: false,
            descent: DescentConfig {
                step_size: 0.05,
                max_iterations: 500,
                tolerance: 1e-12,
                patience: 20,
                ..DescentConfig::default()
            },
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
#[derive(Debug, Clone)]
pub struct MultilaterationSolver {
    config: MultilaterationConfig,
}

/// Least-squares objective for one node's position.
struct NodeObjective<'a> {
    observations: &'a [RangeToAnchor],
}

impl Objective for NodeObjective<'_> {
    fn dim(&self) -> usize {
        2
    }

    /// One `hypot` per observation serves both the residual and, clamped
    /// away from zero, the gradient's direction.
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
        loop {
            rounds += 1;
            let fixes = pool::par_map_indexed(n, workers, |i| {
                if positions.is_localized(NodeId(i)) {
                    (0, None)
                } else {
                    self.fix(measurements, &anchor_table, NodeId(i))
                }
            });
            let mut localized_any = false;
            for (i, (dropped, fix)) in fixes.into_iter().enumerate() {
                anchors_dropped += dropped;
                if let Some(p) = fix {
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
        })
    }

    /// One node's fix from the ranges it holds to the anchors in
    /// `anchor_table`: `(anchors the consistency check dropped, estimate)`.
    /// Pure in its inputs, so a round's fixes may run in any order.
    fn fix(
        &self,
        measurements: &MeasurementSet,
        anchor_table: &[Option<(Point2, f64)>],
        node: NodeId,
    ) -> (usize, Option<Point2>) {
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
            return (0, None);
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
            return (dropped, None);
        }
        (dropped, self.estimate(&filtered))
    }

    /// Weighted least squares by gradient descent.
    fn estimate(&self, observations: &[RangeToAnchor]) -> Option<Point2> {
        // Multistart descent: the anchor centroid plus a ring of
        // perturbed starts. A single start from the centroid (the
        // surveyor's choice) finds *a* minimum; the ring dodges the
        // mirror-image local minimum that near-collinear anchor sets
        // produce, and reveals whether that minimum competes.
        let anchors: Vec<Point2> = observations.iter().map(|o| o.anchor).collect();
        let centroid = rl_geom::centroid(&anchors)?;
        let spread = anchors
            .iter()
            .map(|a| a.distance(centroid))
            .fold(0.0f64, f64::max)
            .max(1.0);
        let objective = NodeObjective { observations };
        let mut minima: Vec<(Point2, f64)> = Vec::new();
        for k in 0..6 {
            let start = if k == 0 {
                centroid
            } else {
                let angle = core::f64::consts::TAU * (k - 1) as f64 / 5.0;
                centroid + rl_geom::Vec2::new(angle.cos(), angle.sin()) * spread
            };
            let outcome = descend(&objective, &[start.x, start.y], &self.config.descent);
            let p = Point2::new(outcome.x[0], outcome.x[1]);
            if p.is_finite() {
                minima.push((p, outcome.value));
            }
        }
        let &(best_p, best_v) = minima
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite residuals"))?;
        if self.config.reject_ambiguous {
            let competing = minima
                .iter()
                .any(|&(p, v)| p.distance(best_p) > 2.0 && v <= best_v * 9.0 + 0.5);
            if competing {
                return None;
            }
        }
        Some(best_p)
    }
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
    use rl_math::rng::seeded;

    /// The value and gradient as two passes, before they were fused:
    /// the oracle `NodeObjective::evaluate` must match bit for bit.
    impl NodeObjective<'_> {
        fn value(&self, x: &[f64]) -> f64 {
            let p = Point2::new(x[0], x[1]);
            self.observations
                .iter()
                .map(|o| {
                    let diff = p.distance(o.anchor) - o.distance;
                    o.weight * diff * diff
                })
                .sum()
        }

        fn gradient(&self, x: &[f64], grad: &mut [f64]) {
            let p = Point2::new(x[0], x[1]);
            grad[0] = 0.0;
            grad[1] = 0.0;
            for o in self.observations {
                let dvec = p - o.anchor;
                let dc = dvec.norm().max(1e-9);
                let factor = 2.0 * o.weight * (dc - o.distance) / dc;
                grad[0] += factor * dvec.x;
                grad[1] += factor * dvec.y;
            }
        }
    }

    /// Asserts `evaluate` at `x` equals the two-pass oracle bit for bit.
    fn assert_fused_matches(objective: &NodeObjective<'_>, x: &[f64]) {
        let mut grad = [f64::NAN; 2];
        let value = objective.evaluate(x, &mut grad);
        let mut want = [0.0; 2];
        objective.gradient(x, &mut want);
        assert_eq!(
            value.to_bits(),
            objective.value(x).to_bits(),
            "value at {x:?}"
        );
        assert_eq!(
            grad.map(f64::to_bits),
            want.map(f64::to_bits),
            "gradient at {x:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fused evaluation equals the two-pass value and gradient
        /// for 3 to 120 observations, at a random point and exactly at
        /// every anchor, where the 1e-9 clamp applies.
        #[test]
        fn node_objective_evaluate_matches_the_two_pass_oracle(
            observations in proptest::collection::vec(
                ((-80.0f64..80.0, -80.0f64..80.0), 0.0f64..90.0, 0.1f64..2.0),
                3..121,
            ),
            x in (-120.0f64..120.0, -120.0f64..120.0),
        ) {
            let observations: Vec<RangeToAnchor> = observations
                .into_iter()
                .map(|((ax, ay), distance, weight)| RangeToAnchor {
                    anchor: Point2::new(ax, ay),
                    distance,
                    weight,
                })
                .collect();
            let objective = NodeObjective {
                observations: &observations,
            };
            assert_fused_matches(&objective, &[x.0, x.1]);
            for o in &observations {
                assert_fused_matches(&objective, &[o.anchor.x, o.anchor.y]);
            }
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
