//! The LSS stress function and its gradient.
//!
//! Centralized LSS seeks a configuration minimizing (Section 4.2.1):
//!
//! ```text
//! E = Σ_{d_ij ∈ D} w_ij (‖p_i − p_j‖ − d_ij)²
//!   + Σ_{d_ij ∉ D} w_D (min(‖p_i − p_j‖, d_min) − d_min)²
//! ```
//!
//! The first sum is the weighted least-squares-scaling stress `E_w`; the
//! second is the **minimum-spacing soft constraint**, penalizing
//! *unmeasured* pairs that are placed closer than `d_min` ("straightening
//! a plane which is incorrectly folded"). The penalized set changes
//! dynamically as the minimization progresses.
//!
//! The configuration vector is laid out `[x_0 … x_{n−1}, y_0 … y_{n−1}]`,
//! matching the paper's gradient formulas.
//!
//! # The constraint's evaluator
//!
//! The measured sum runs over the sparse edge list, but the soft
//! constraint ranges over the *complement* of the measurement graph —
//! `O(n²)` pairs. Only pairs closer than `d_min` contribute, so the
//! objective never materializes the complement. It keeps a *Verlet
//! list* with a skin `s` of 2 m: the sorted unmeasured pairs closer
//! than `d_min + s` at the configuration where the list was built,
//! found by binning that configuration into a uniform grid of cell size
//! `d_min + s` and visiting only neighboring-cell pairs (`O(n + c)` for
//! `c` candidates). An evaluation filters the list by `dist < d_min` at
//! the current configuration, in `O(n + c)` with no grid work at all.
//! The list is reused while every node is within `s / 2` of its build
//! position (minus a float margin). By the triangle inequality any pair
//! now closer than `d_min` was then closer than `d_min + s`, so it is on
//! the list. A larger move or a non-finite coordinate rebuilds the list
//! at the current configuration.
//!
//! Non-violating pairs contribute exactly `+0.0` to the sum, and the
//! violators are visited in sorted `i < j` order with one distance
//! expression. So the objective equals a full scan of the complement
//! **bit for bit** — same value, same gradient — whether the list was
//! just built or reused. The cache lives in a `RefCell` and can only
//! change how fast a result is found, never the result.
//! `tests/sparse_parity.rs` checks this against a complement scan along
//! trajectories that reuse and rebuild the list.

use std::cell::RefCell;

use rl_geom::grid::for_each_grid_pair;
use rl_geom::Point2;
use rl_math::gradient::Objective;
use rl_ranging::measurement::MeasurementSet;

/// Guard against division by a vanishing computed distance.
const MIN_DISTANCE: f64 = 1e-9;

/// Verlet skin of the soft constraint's candidate list, meters: it holds
/// pairs closer than `d_min + SKIN_M` and survives node moves of up to
/// `SKIN_M / 2`.
const SKIN_M: f64 = 2.0;

/// The minimum-spacing soft constraint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftConstraint {
    /// Minimum node spacing `d_min`, meters (9.14 m in the grass-grid
    /// experiment).
    pub min_spacing_m: f64,
    /// Constraint weight `w_D` (10 in the paper, versus `w_ij` = 1).
    pub weight: f64,
}

/// The soft constraint's cached candidate pairs (see the module docs).
#[derive(Debug, Clone, Default)]
struct VerletList {
    /// The configuration the list was built at; empty before the first
    /// build.
    built_at: Vec<f64>,
    /// Unmeasured pairs `(i, j)` with `i < j`, sorted, closer than
    /// `d_min + SKIN_M` at `built_at`.
    pairs: Vec<(usize, usize)>,
    /// Number of builds so far.
    #[cfg(test)]
    builds: usize,
}

impl VerletList {
    /// Whether every node of `x` is within the reuse radius of its build
    /// position. Non-finite displacements compare false and force a
    /// rebuild.
    fn covers(&self, x: &[f64], d_min: f64) -> bool {
        if self.built_at.len() != x.len() {
            return false;
        }
        // Computed distances and displacements carry a relative rounding
        // error of a few ulp, so the margin only has to cover a few ulp
        // of `d_min + SKIN_M`; 1e-9 of it is generous. An absurd `d_min`
        // leaves no positive reach and rebuilds every time.
        let reach = 0.5 * SKIN_M - 1e-9 * (d_min + SKIN_M);
        if !(reach > 0.0) {
            return false;
        }
        let n = x.len() / 2;
        (0..n).all(|k| {
            let dx = x[k] - self.built_at[k];
            let dy = x[n + k] - self.built_at[n + k];
            dx * dx + dy * dy <= reach * reach
        })
    }
}

/// The LSS stress objective over a measurement set.
#[derive(Debug, Clone)]
pub struct LssObjective {
    n: usize,
    /// Measured pairs: `(i, j, distance, weight)` with `i < j`, sorted.
    measured: Vec<(usize, usize, f64, f64)>,
    soft: Option<SoftConstraint>,
    /// The soft constraint's candidate list, cached across evaluations.
    verlet: RefCell<VerletList>,
}

impl LssObjective {
    /// Builds the objective. When `soft` is `None` the constraint
    /// machinery is skipped entirely.
    pub fn new(set: &MeasurementSet, soft: Option<SoftConstraint>) -> Self {
        LssObjective {
            n: set.node_count(),
            measured: set
                .iter_weighted()
                .map(|(a, b, d, w)| (a.index(), b.index(), d, w))
                .collect(),
            soft,
            verlet: RefCell::default(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The offset `p_i − p_j` between nodes `i` and `j` at `x` and its
    /// length — one expression for the candidate filter and the sums
    /// alike.
    #[inline]
    fn offset(x: &[f64], n: usize, i: usize, j: usize) -> (f64, f64, f64) {
        let (dx, dy) = (x[i] - x[j], x[n + i] - x[n + j]);
        (dx, dy, (dx * dx + dy * dy).sqrt())
    }

    /// Visits the unmeasured pairs violating the constraint at `x`
    /// (distance strictly below `d_min`) with their offsets, ascending by
    /// pair — the only pairs with a nonzero constraint contribution. The
    /// sorted list keeps the accumulation order that of an `i < j` scan
    /// of the whole complement. Visits nothing without a constraint.
    fn for_each_violator(&self, x: &[f64], mut visit: impl FnMut(usize, usize, (f64, f64, f64))) {
        let Some(soft) = self.soft else {
            return;
        };
        let d_min = soft.min_spacing_m;
        let mut list = self.verlet.borrow_mut();
        if !list.covers(x, d_min) {
            list.pairs = self.grid_pairs(x, d_min + SKIN_M);
            list.built_at.clear();
            list.built_at.extend_from_slice(x);
            #[cfg(test)]
            {
                list.builds += 1;
            }
        }
        for &(i, j) in &list.pairs {
            let offset = Self::offset(x, self.n, i, j);
            if offset.2 < d_min {
                visit(i, j, offset);
            }
        }
    }

    /// The unmeasured pairs `(i, j)`, `i < j`, closer than `radius` at
    /// `x`, sorted ascending.
    ///
    /// Candidates come from [`for_each_grid_pair`] with cell size
    /// `radius`. Non-finite probe points cannot panic there (the
    /// optimizer rejects them by value). Measured pairs are excluded by
    /// binary search in the sorted `measured` list.
    fn grid_pairs(&self, x: &[f64], radius: f64) -> Vec<(usize, usize)> {
        let n = self.n;
        let point = |i: usize| Point2::new(x[i], x[n + i]);
        let mut out = Vec::new();
        for_each_grid_pair(n, radius, point, |i, j| {
            if Self::offset(x, n, i, j).2 < radius && !self.is_measured(i, j) {
                out.push((i, j));
            }
        });
        out.sort_unstable();
        out
    }

    /// Whether `(i, j)`, `i < j`, is a measured pair.
    fn is_measured(&self, i: usize, j: usize) -> bool {
        self.measured
            .binary_search_by(|&(a, b, _, _)| (a, b).cmp(&(i, j)))
            .is_ok()
    }

    /// How many unmeasured pairs currently violate the constraint at `x`.
    pub fn active_constraints(&self, x: &[f64]) -> usize {
        let mut active = 0;
        self.for_each_violator(x, |_, _, _| active += 1);
        active
    }
}

impl Objective for LssObjective {
    fn dim(&self) -> usize {
        2 * self.n
    }

    /// One pass over the measured pairs and one walk of the Verlet list:
    /// each pair's distance serves its stress term and, clamped away
    /// from zero, its gradient term.
    fn evaluate(&self, x: &[f64], grad: &mut [f64]) -> f64 {
        let n = self.n;
        grad.fill(0.0);
        // Adds `w (‖p_i − p_j‖ − target)²`'s gradient, returns the term.
        let mut pair = |i: usize, j: usize, w: f64, target: f64, offset: (f64, f64, f64)| {
            let (dx, dy, dist) = offset;
            let dc = dist.max(MIN_DISTANCE);
            let factor = 2.0 * w * (dc - target) / dc;
            grad[i] += factor * dx;
            grad[j] -= factor * dx;
            grad[n + i] += factor * dy;
            grad[n + j] -= factor * dy;
            w * (dist - target) * (dist - target)
        };
        let mut e = 0.0;
        for &(i, j, d, w) in &self.measured {
            e += pair(i, j, w, d, Self::offset(x, n, i, j));
        }
        if let Some(soft) = self.soft {
            // Only violating pairs contribute: clamped pairs at d_min add
            // exactly +0.0, so summing the violators alone (in i < j
            // order) reproduces a full-complement scan bit for bit.
            // Violators are strictly inside d_min, so the min-clamp is a
            // no-op and the filter's distance is reused.
            self.for_each_violator(x, |i, j, offset| {
                e += pair(i, j, soft.weight, soft.min_spacing_m, offset);
            });
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rl_geom::Point2;
    use rl_net::NodeId;

    fn pair_set(d: f64) -> MeasurementSet {
        let mut set = MeasurementSet::new(2);
        set.insert(NodeId(0), NodeId(1), d);
        set
    }

    /// The value and gradient as two passes, before they were fused:
    /// the oracle `LssObjective::evaluate` must match bit for bit.
    impl LssObjective {
        fn violating_pairs(&self, x: &[f64]) -> Vec<(usize, usize, f64)> {
            let mut out = Vec::new();
            self.for_each_violator(x, |i, j, (_, _, dist)| out.push((i, j, dist)));
            out
        }

        pub(crate) fn value(&self, x: &[f64]) -> f64 {
            let n = self.n;
            let mut e = 0.0;
            for &(i, j, d, w) in &self.measured {
                let dc = LssObjective::offset(x, n, i, j).2;
                e += w * (dc - d) * (dc - d);
            }
            if let Some(soft) = self.soft {
                for (_, _, dc) in self.violating_pairs(x) {
                    let diff = dc - soft.min_spacing_m;
                    e += soft.weight * diff * diff;
                }
            }
            e
        }

        pub(crate) fn gradient(&self, x: &[f64], grad: &mut [f64]) {
            let n = self.n;
            grad.iter_mut().for_each(|g| *g = 0.0);
            for &(i, j, d, w) in &self.measured {
                let dx = x[i] - x[j];
                let dy = x[n + i] - x[n + j];
                let dc = (dx * dx + dy * dy).sqrt().max(MIN_DISTANCE);
                let factor = 2.0 * w * (dc - d) / dc;
                grad[i] += factor * dx;
                grad[j] -= factor * dx;
                grad[n + i] += factor * dy;
                grad[n + j] -= factor * dy;
            }
            if let Some(soft) = self.soft {
                for (i, j, dist) in self.violating_pairs(x) {
                    let dx = x[i] - x[j];
                    let dy = x[n + i] - x[n + j];
                    let dc = dist.max(MIN_DISTANCE);
                    let factor = 2.0 * soft.weight * (dc - soft.min_spacing_m) / dc;
                    grad[i] += factor * dx;
                    grad[j] -= factor * dx;
                    grad[n + i] += factor * dy;
                    grad[n + j] -= factor * dy;
                }
            }
        }
    }

    /// The fused value and gradient at `x`.
    fn eval(obj: &LssObjective, x: &[f64]) -> (f64, Vec<f64>) {
        let mut grad = vec![f64::NAN; x.len()];
        let value = obj.evaluate(x, &mut grad);
        (value, grad)
    }

    /// The objective's reference: the unconstrained objective plus an
    /// `i < j` scan of the whole complement, returning value, gradient
    /// and the number of active constraints.
    fn complement_scan(
        set: &MeasurementSet,
        soft: SoftConstraint,
        x: &[f64],
    ) -> (f64, Vec<f64>, usize) {
        let plain = LssObjective::new(set, None);
        let n = set.node_count();
        let mut value = plain.value(x);
        let mut grad = vec![0.0; x.len()];
        plain.gradient(x, &mut grad);
        let mut active = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let dist = LssObjective::offset(x, n, i, j).2;
                if set.contains(NodeId(i), NodeId(j)) || !(dist < soft.min_spacing_m) {
                    continue;
                }
                active += 1;
                let diff = dist - soft.min_spacing_m;
                value += soft.weight * diff * diff;
                let (dx, dy) = (x[i] - x[j], x[n + i] - x[n + j]);
                let dc = dist.max(MIN_DISTANCE);
                let factor = 2.0 * soft.weight * (dc - soft.min_spacing_m) / dc;
                grad[i] += factor * dx;
                grad[j] -= factor * dx;
                grad[n + i] += factor * dy;
                grad[n + j] -= factor * dy;
            }
        }
        (value, grad, active)
    }

    /// Asserts that `obj`'s fused evaluation equals the two-pass oracle
    /// and, with a constraint, the complement scan, bit for bit.
    fn assert_matches_scan(obj: &LssObjective, set: &MeasurementSet, x: &[f64]) {
        let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (value, grad) = eval(obj, x);
        let mut oracle = vec![0.0; x.len()];
        obj.gradient(x, &mut oracle);
        assert_eq!(
            value.to_bits(),
            obj.value(x).to_bits(),
            "oracle value at {x:?}"
        );
        assert_eq!(bits(&grad), bits(&oracle), "oracle gradient at {x:?}");
        let (scan_value, scan_grad, active) = match obj.soft {
            Some(soft) => complement_scan(set, soft, x),
            None => (obj.value(x), oracle, 0),
        };
        assert_eq!(value.to_bits(), scan_value.to_bits(), "value at {x:?}");
        assert_eq!(bits(&grad), bits(&scan_grad), "gradient at {x:?}");
        assert_eq!(obj.active_constraints(x), active, "active at {x:?}");
    }

    /// Finite-difference gradient check.
    fn check_gradient(obj: &LssObjective, x: &[f64]) {
        let grad = eval(obj, x).1;
        let h = 1e-6;
        for k in 0..x.len() {
            let mut xp = x.to_vec();
            xp[k] += h;
            let mut xm = x.to_vec();
            xm[k] -= h;
            let numeric = (eval(obj, &xp).0 - eval(obj, &xm).0) / (2.0 * h);
            assert!(
                (grad[k] - numeric).abs() < 1e-4 * (1.0 + numeric.abs()),
                "grad[{k}] = {} vs numeric {numeric}",
                grad[k]
            );
        }
    }

    #[test]
    fn stress_zero_at_exact_configuration() {
        let set = pair_set(5.0);
        let obj = LssObjective::new(&set, None);
        // Nodes at distance exactly 5.
        let x = [0.0, 5.0, 0.0, 0.0];
        assert!(eval(&obj, &x).0 < 1e-18);
        assert_eq!(obj.dim(), 4);
    }

    #[test]
    fn stress_grows_quadratically() {
        let set = pair_set(5.0);
        let obj = LssObjective::new(&set, None);
        let at = |d: f64| eval(&obj, &[0.0, d, 0.0, 0.0]).0;
        assert!((at(6.0) - 1.0).abs() < 1e-12);
        assert!((at(7.0) - 4.0).abs() < 1e-12);
        assert!((at(3.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn weights_scale_stress() {
        let mut set = MeasurementSet::new(2);
        set.insert_weighted(NodeId(0), NodeId(1), 5.0, 3.0);
        let obj = LssObjective::new(&set, None);
        assert!((eval(&obj, &[0.0, 6.0, 0.0, 0.0]).0 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut set = MeasurementSet::new(4);
        set.insert(NodeId(0), NodeId(1), 5.0);
        set.insert(NodeId(1), NodeId(2), 7.0);
        set.insert_weighted(NodeId(2), NodeId(3), 4.0, 2.5);
        let obj = LssObjective::new(&set, None);
        let x = [0.3, 4.9, 11.2, 13.0, -0.2, 0.4, 1.0, -3.0];
        check_gradient(&obj, &x);
    }

    #[test]
    fn gradient_with_soft_constraint_matches_fd() {
        let mut set = MeasurementSet::new(4);
        set.insert(NodeId(0), NodeId(1), 5.0);
        set.insert(NodeId(2), NodeId(3), 4.0);
        let soft = SoftConstraint {
            min_spacing_m: 6.0,
            weight: 10.0,
        };
        let obj = LssObjective::new(&set, Some(soft));
        // Configuration with some constrained pairs inside d_min and some
        // outside (avoid the non-differentiable point dc == d_min).
        let x = [0.0, 5.0, 1.0, 9.0, 0.0, 0.0, 2.0, 1.5];
        check_gradient(&obj, &x);
        assert_matches_scan(&obj, &set, &x);
    }

    #[test]
    fn soft_constraint_penalizes_only_close_unmeasured_pairs() {
        let mut set = MeasurementSet::new(3);
        set.insert(NodeId(0), NodeId(1), 5.0);
        let soft = SoftConstraint {
            min_spacing_m: 6.0,
            weight: 10.0,
        };
        let obj = LssObjective::new(&set, Some(soft));
        // Pairs (0,2) and (1,2) are unmeasured. Put node 2 far away: no
        // penalty.
        let far = [0.0, 5.0, 100.0, 0.0, 0.0, 0.0];
        assert!(eval(&obj, &far).0 < 1e-18);
        assert_eq!(obj.active_constraints(&far), 0);
        // Node 2 at 3 m from node 0: one active violation of (6-3)².
        let near = [0.0, 5.0, 3.0, 0.0, 0.0, 0.0];
        let expected = 10.0 * (3.0f64 - 6.0).powi(2) + 10.0 * (2.0f64 - 6.0).powi(2);
        let value = eval(&obj, &near).0;
        assert!(
            (value - expected).abs() < 1e-9,
            "value {value} expected {expected}"
        );
        assert_eq!(obj.active_constraints(&near), 2);
    }

    #[test]
    fn the_candidate_list_reproduces_the_complement_scan_bitwise() {
        let mut set = MeasurementSet::new(6);
        set.insert(NodeId(0), NodeId(1), 4.0);
        set.insert(NodeId(2), NodeId(4), 3.0);
        let soft = Some(SoftConstraint {
            min_spacing_m: 5.0,
            weight: 10.0,
        });
        // A messy configuration with several violations.
        let x = [0.0, 1.0, 2.0, 7.5, 3.0, 9.0, 0.0, 0.5, 1.0, 8.0, 2.0, 7.0];
        assert_matches_scan(&LssObjective::new(&set, soft), &set, &x);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The objective equals the complement scan for arbitrary sparse
        /// graphs and arbitrary (even far-from-plausible) configurations:
        /// same value bits, same gradient bits, same active constraint
        /// count.
        ///
        /// One objective is reused along a whole trajectory, so its
        /// cached Verlet list (2 m skin) is exercised both ways: jiggles
        /// under half the skin reuse it, jumps past it and a non-finite
        /// probe rebuild it, and the walk ends back at the start. Every
        /// point is checked against the scan.
        #[test]
        fn lss_objective_matches_the_complement_scan_bitwise(
            pts in proptest::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 4..10),
            edges in proptest::collection::vec((0usize..10, 0usize..10), 2..18),
            x0 in proptest::collection::vec(-50.0f64..50.0, 20),
            d_min in 3.0f64..12.0,
            walk in proptest::collection::vec((0usize..10, -1.5f64..1.5, -1.5f64..1.5), 1..12),
            jiggle in proptest::collection::vec(-0.35f64..0.35, 20),
            jump in (0usize..10, 2.0f64..15.0),
            probe in (0usize..20, 0usize..3),
            approach in (0usize..10, 0usize..10, 0.3f64..0.9),
        ) {
            let n = pts.len();
            let mut set = MeasurementSet::new(n);
            for &(a, b) in &edges {
                if a == b || a >= n || b >= n {
                    continue;
                }
                let pa = Point2::new(pts[a].0, pts[a].1);
                let pb = Point2::new(pts[b].0, pts[b].1);
                let d = pa.distance(pb);
                if d > 1e-6 {
                    set.insert(NodeId(a), NodeId(b), d);
                }
            }
            let soft = SoftConstraint {
                min_spacing_m: d_min,
                weight: 10.0,
            };
            let x: Vec<f64> = x0.iter().take(2 * n).copied().collect();
            prop_assume!(x.len() == 2 * n);

            // The trajectory: start, a jiggle of every node (each move
            // under 0.5 m, so the list is reused), a random walk of
            // single-node steps that cross the skin at random, one node
            // approaching another, a jump of one node, a non-finite
            // probe, and the start again.
            let mut points = vec![x.clone()];
            points.push(x.iter().zip(&jiggle).map(|(a, d)| a + d).collect());
            let mut cur = x.clone();
            for &(node, dx, dy) in &walk {
                let node = node % n;
                cur[node] += dx;
                cur[n + node] += dy;
                points.push(cur.clone());
            }
            // One node walks straight at another in steps under half the
            // skin, from far outside d_min to well inside it: the pair
            // must turn into a violator through reused and rebuilt lists
            // alike.
            let (a, b) = (approach.0 % n, approach.1 % n);
            if a != b {
                for _ in 0..200 {
                    let (dx, dy) = (cur[b] - cur[a], cur[n + b] - cur[n + a]);
                    let gap = dx.hypot(dy);
                    if gap < 0.5 * d_min {
                        break;
                    }
                    cur[a] += approach.2 * dx / gap;
                    cur[n + a] += approach.2 * dy / gap;
                    points.push(cur.clone());
                }
            }
            let mut jumped = cur.clone();
            jumped[jump.0 % n] += jump.1;
            points.push(jumped);
            let mut wild = x.clone();
            wild[probe.0 % (2 * n)] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][probe.1];
            points.push(wild);
            points.push(x.clone());

            // With and without the constraint: the fused evaluation walks
            // the Verlet list once and the measured pairs once.
            for objective in [LssObjective::new(&set, Some(soft)), LssObjective::new(&set, None)] {
                for p in &points {
                    assert_matches_scan(&objective, &set, p);
                }
            }
        }
    }

    #[test]
    fn the_constraint_tolerates_non_finite_probe_points() {
        let mut set = MeasurementSet::new(3);
        set.insert(NodeId(0), NodeId(1), 5.0);
        let soft = Some(SoftConstraint {
            min_spacing_m: 6.0,
            weight: 10.0,
        });
        let obj = LssObjective::new(&set, soft);
        // An overflowed descent probe must not panic; the optimizer
        // rejects it by value.
        let x = [f64::INFINITY, 5.0, 3.0, f64::NEG_INFINITY, 0.0, 0.0];
        let v = eval(&obj, &x).0;
        assert!(v.is_nan() || v.is_infinite() || v.is_finite());
    }

    #[test]
    fn verlet_list_rebuilds_only_past_half_the_skin() {
        let mut set = MeasurementSet::new(3);
        set.insert(NodeId(0), NodeId(1), 5.0);
        let soft = Some(SoftConstraint {
            min_spacing_m: 6.0,
            weight: 10.0,
        });
        let obj = LssObjective::new(&set, soft);
        // Node 2 starts 6.5 m from node 0: outside d_min, inside the skin.
        let x0 = [0.0, 5.0, 6.5, 0.0, 0.0, 0.0];
        let steps: [(&[f64], usize); 7] = [
            (&x0, 1),
            // 0.8 m toward node 0 is under SKIN_M / 2: the list is reused,
            // and the pair (0, 2) it holds is now a violator.
            (&[0.0, 5.0, 5.7, 0.0, 0.0, 0.0], 1),
            // 1.1 m from the build position: rebuilt here.
            (&[0.0, 5.0, 5.4, 0.0, 0.0, 0.0], 2),
            (&[0.0, 5.0, 5.4, 0.0, 0.0, 0.9], 2),
            // A non-finite coordinate rebuilds on every walk of the list
            // (`assert_matches_scan` walks it four times), and so does the
            // first return from it.
            (&[f64::NAN, 5.0, 5.4, 0.0, 0.0, 0.9], 6),
            (&x0, 7),
            (&x0, 7),
        ];
        for (x, expected) in steps {
            assert_matches_scan(&obj, &set, x);
            assert_eq!(
                obj.verlet.borrow().builds,
                expected,
                "builds after evaluating at {x:?}"
            );
        }
        assert_eq!(obj.active_constraints(&[0.0, 5.0, 5.7, 0.0, 0.0, 0.0]), 2);
    }

    #[test]
    fn coincident_points_have_finite_gradient() {
        let set = pair_set(5.0);
        let obj = LssObjective::new(&set, None);
        let x = [1.0, 1.0, 2.0, 2.0]; // identical positions
        let (value, grad) = eval(&obj, &x);
        assert!(grad.iter().all(|g| g.is_finite()));
        assert!(value.is_finite());
    }
}
