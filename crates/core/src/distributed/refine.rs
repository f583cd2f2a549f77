//! Tikhonov-regularized Gauss–Newton refinement of a stitched map.
//!
//! The alignment flood composes one rigid transform per hop, so every
//! hop's registration error — fractions of a meter on noisy local maps —
//! *accumulates* along the flood tree. At town scale (a few hops) the
//! drift is invisible; across a metro's district after district it grows
//! into tens of meters of smooth, low-frequency warp even though every
//! *local* distance is still known to ±0.33 m. The fix mirrors DILAND
//! (Khan et al.): iterative refinement that pulls the stitched
//! configuration back onto the measurements, converging toward the
//! centralized LSS solution.
//!
//! Each outer iteration linearizes the stress
//! `E(p) = Σ w̃_ij (‖p_i − p_j‖ − d_ij)²` around the current
//! configuration and solves the damped normal equations
//!
//! ```text
//! (JᵀWJ + λI) δ = −JᵀW r
//! ```
//!
//! with [`rl_math::sparse::cg`] — `JᵀWJ` is applied matrix-free from the
//! edge list (`O(edges)` per CG iteration, nothing materialized). The
//! Tikhonov term `λI` does double duty: it anchors each step to the
//! current (flood-aligned) configuration, which both removes the rigid
//! null space (translations/rotations cost `λ‖δ‖²`, so the solution
//! stays in the root's frame instead of drifting) and acts as
//! Levenberg–Marquardt damping, grown on rejected steps and shrunk on
//! accepted ones. A [`rl_math::RobustLoss`] kernel
//! ([`RefineConfig::loss`], Cauchy at a 2 m scale by default:
//! `w̃ = w / (1 + (r/c)²)`, recomputed per outer iteration) keeps the
//! handful of badly stitched nodes a metro flood produces from bending
//! the refit around them; `RobustLoss::SquaredL2` turns the
//! reweighting off.
//!
//! The inner solves support two opt-in accelerations from the sparse
//! kernel layer: **Jacobi-preconditioned CG** (the operator's diagonal
//! falls straight out of the edge list, see
//! `DampedNormalOperator::diagonal_into`) and **warm starts** seeding
//! each solve from the previous accepted delta
//! ([`RefineConfig::cg_warm_start`]). Both are off by default — the
//! historical zero-started, unpreconditioned path is fingerprint-pinned.
//! The throughput presets enable warm starts only: Jacobi measured as a
//! slight loss on metro deployments, whose normal equations carry a
//! near-uniform diagonal (see
//! [`DistributedConfig::metro_fast`](super::DistributedConfig::metro_fast)).
//!
//! The whole stage is deterministic: no randomness, fixed iteration
//! order (edges in measurement-set order), so it preserves the
//! bit-identical replay contract of the surrounding protocol.

use rl_geom::Point2;
use rl_math::sparse::cg::{conjugate_gradient_with, resolve_preconditioner, CgConfig, CgWorkspace};
use rl_math::sparse::LinearOperator;
use rl_math::RobustLoss;
use rl_net::NodeId;
use rl_ranging::measurement::MeasurementSet;

use crate::types::PositionMap;

/// Configuration of the post-alignment refinement stage.
#[derive(Debug, Clone, PartialEq)]
pub struct RefineConfig {
    /// Maximum Gauss–Newton (outer) iterations.
    pub max_iterations: usize,
    /// Initial Tikhonov damping `λ` (per coordinate, against edge weights
    /// of ~1). Adapted multiplicatively: ×0.3 on accepted steps, ×10 on
    /// rejected ones.
    pub tikhonov: f64,
    /// The robust loss kernel applied to edge residuals: an edge's
    /// weight is multiplied by the loss's IRLS factor at its current
    /// residual each outer iteration. The default Cauchy loss at a 2 m
    /// scale keeps badly stitched outlier nodes from bending the refit;
    /// [`RobustLoss::SquaredL2`] disables reweighting (the historical
    /// `robust_scale_m: None`).
    pub loss: RobustLoss,
    /// Inner CG settings. The default loosens the tolerance to `1e-4` —
    /// each linearization is approximate, so solving it to machine
    /// precision buys nothing — and caps iterations at 200 (a truncated
    /// solve still yields a usable damped-Newton direction; the damping
    /// loop simply stiffens `λ`, which also improves the system's
    /// conditioning for the retry).
    pub cg: CgConfig,
    /// Seed each inner CG solve with the *previous accepted step's*
    /// delta, rescaled by a one-matvec line search against the new
    /// right-hand side (the raw delta is sized to the previous, larger
    /// gradient and would overshoot). Combined with CG's never-worse
    /// guard the seed is risk-free: measured a few percent fewer inner
    /// iterations on metro refinement, never more. `false` by default:
    /// the zero-started path is fingerprint-pinned; the fast presets
    /// ([`DistributedConfig::metro_fast`](super::DistributedConfig::metro_fast))
    /// opt in.
    pub cg_warm_start: bool,
    /// Stop once the relative stress improvement of an accepted step
    /// falls below this.
    pub min_relative_improvement: f64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            max_iterations: 12,
            tikhonov: 1e-2,
            loss: RobustLoss::Cauchy { scale_m: 2.0 },
            cg: CgConfig::default()
                .with_max_iterations(200)
                .with_tolerance(1e-4),
            cg_warm_start: false,
            min_relative_improvement: 1e-6,
        }
    }
}

/// What the refinement stage did, reported on
/// [`DistributedOutcome`](super::DistributedOutcome).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOutcome {
    /// Aligned nodes the refinement optimized over.
    pub nodes: usize,
    /// Measured edges with both endpoints aligned.
    pub edges: usize,
    /// Accepted Gauss–Newton steps.
    pub iterations: usize,
    /// Total inner CG iterations across all solves.
    pub cg_iterations: usize,
    /// Robust stress before the first step.
    pub initial_stress: f64,
    /// Robust stress after the last accepted step.
    pub final_stress: f64,
    /// Whether the loop stopped at a (numerical) stationary point —
    /// via the relative-improvement criterion or because no damping
    /// level could find a descending step — rather than exhausting
    /// `max_iterations` while still improving.
    pub converged: bool,
}

/// Compact-index sentinel marking an edge whose second endpoint is a
/// *pinned* node: a constant of the optimization, not a variable. Edges
/// carrying this sentinel contribute a Jacobian row with an entry at the
/// free endpoint only.
const PINNED: usize = usize::MAX;

/// One linearization's damped normal operator `JᵀWJ + λI`, applied
/// matrix-free from the edge list. Layout matches the LSS objective:
/// `[x_0 … x_{m−1}, y_0 … y_{m−1}]`.
struct DampedNormalOperator<'a> {
    m: usize,
    /// `(i, j, w̃)` per edge, compact indices (`j == PINNED` marks a
    /// free–pinned edge).
    edges: &'a [(usize, usize, f64)],
    /// Unit vector of `p_i − p_j` per edge at the linearization point.
    units: &'a [(f64, f64)],
    lambda: f64,
}

impl LinearOperator for DampedNormalOperator<'_> {
    fn dim(&self) -> usize {
        2 * self.m
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let m = self.m;
        for (out, v) in y.iter_mut().zip(x) {
            *out = self.lambda * v;
        }
        for (&(i, j, w), &(ux, uy)) in self.edges.iter().zip(self.units) {
            if j == PINNED {
                // Row of J: +u at i only; the pinned endpoint is constant.
                let s = w * (ux * x[i] + uy * x[m + i]);
                y[i] += s * ux;
                y[m + i] += s * uy;
            } else {
                // Row of J for this edge: +u at i, −u at j (per coordinate).
                let s = w * (ux * (x[i] - x[j]) + uy * (x[m + i] - x[m + j]));
                y[i] += s * ux;
                y[j] -= s * ux;
                y[m + i] += s * uy;
                y[m + j] -= s * uy;
            }
        }
    }

    /// The diagonal of `JᵀWJ + λI` falls straight out of the edge list —
    /// `λ + Σ_edges w ux²` per x-coordinate (resp. `uy²` per y) — which
    /// unlocks the Jacobi preconditioner without materializing anything.
    fn diagonal_into(&self, out: &mut [f64]) -> bool {
        let m = self.m;
        out.fill(self.lambda);
        for (&(i, j, w), &(ux, uy)) in self.edges.iter().zip(self.units) {
            let (cx, cy) = (w * ux * ux, w * uy * uy);
            out[i] += cx;
            out[m + i] += cy;
            if j != PINNED {
                out[j] += cx;
                out[m + j] += cy;
            }
        }
        true
    }
}

/// Guard against division by a vanishing computed distance.
const MIN_DISTANCE: f64 = 1e-9;

/// Refines the aligned subset of `positions` in place against the
/// measured distances; returns `None` (leaving positions untouched) when
/// fewer than two nodes aligned or no measured edge connects two aligned
/// nodes.
pub fn refine_aligned(
    set: &MeasurementSet,
    positions: &mut PositionMap,
    config: &RefineConfig,
) -> Option<RefineOutcome> {
    refine_anchored(set, positions, &[], config)
}

/// [`refine_aligned`] with hard position constraints: nodes listed in
/// `pinned` (and localized in `positions`) are treated as *constants* of
/// the optimization — their coordinates enter edge residuals but are not
/// variables, so they cannot move. This is the warm-update engine of the
/// tracking layer ([`crate::tracking`]): anchors are pinned at their
/// surveyed positions, which keeps incremental refinement in the
/// absolute frame tick after tick instead of letting it drift.
///
/// Pinned ids that are out of range or not localized are ignored. With
/// `pinned` empty this is exactly `refine_aligned` — same arithmetic,
/// same bit-identical output. Returns `None` (positions untouched) when
/// there are no free localized nodes, fewer than two localized nodes
/// overall, or no measured edge touches a free localized node.
pub fn refine_anchored(
    set: &MeasurementSet,
    positions: &mut PositionMap,
    pinned: &[NodeId],
    config: &RefineConfig,
) -> Option<RefineOutcome> {
    let n = set.node_count();
    let mut is_pinned = vec![false; n];
    for &p in pinned {
        if p.index() < n {
            is_pinned[p.index()] = true;
        }
    }

    // Compact the aligned free nodes: refinement variables are their
    // coordinates only; unaligned nodes stay untouched, pinned localized
    // nodes become per-edge constants.
    let mut compact_of = vec![usize::MAX; n];
    let mut pin_pos: Vec<Option<Point2>> = vec![None; n];
    let mut original: Vec<usize> = Vec::new();
    let mut x: Vec<f64> = Vec::new();
    let mut pinned_aligned = 0usize;
    for i in 0..n {
        if let Some(p) = positions.get(NodeId(i)) {
            if is_pinned[i] {
                pin_pos[i] = Some(p);
                pinned_aligned += 1;
            } else {
                compact_of[i] = original.len();
                original.push(i);
                x.push(p.x);
            }
        }
    }
    let m = original.len();
    if m == 0 || m + pinned_aligned < 2 {
        return None;
    }
    x.resize(2 * m, 0.0);
    for (k, &i) in original.iter().enumerate() {
        x[m + k] = positions.get(NodeId(i)).expect("aligned").y;
    }

    // Edges with both endpoints aligned and at least one free, in
    // measurement-set order (deterministic: the set iterates its sorted
    // edge map). A free–pinned edge is oriented free-first and carries
    // the `PINNED` sentinel plus the pinned endpoint's coordinates;
    // pinned–pinned edges are constant and skipped.
    let mut edges: Vec<(usize, usize, f64, f64)> = Vec::new();
    let mut edge_pin: Vec<(f64, f64)> = Vec::new();
    for (a, b, d, w) in set.iter_weighted() {
        let (ia, ib) = (compact_of[a.index()], compact_of[b.index()]);
        match (ia != usize::MAX, ib != usize::MAX) {
            (true, true) => {
                edges.push((ia, ib, d, w));
                edge_pin.push((0.0, 0.0));
            }
            (true, false) => {
                if let Some(p) = pin_pos[b.index()] {
                    edges.push((ia, PINNED, d, w));
                    edge_pin.push((p.x, p.y));
                }
            }
            (false, true) => {
                if let Some(p) = pin_pos[a.index()] {
                    edges.push((ib, PINNED, d, w));
                    edge_pin.push((p.x, p.y));
                }
            }
            (false, false) => {}
        }
    }
    if edges.is_empty() {
        return None;
    }

    // Robust stress and per-edge IRLS weights at configuration `x`.
    let linearize = |x: &[f64]| -> Linearization {
        let mut lin = Linearization {
            stress: 0.0,
            w_tilde: Vec::with_capacity(edges.len()),
            residuals: Vec::with_capacity(edges.len()),
            units: Vec::with_capacity(edges.len()),
        };
        for (&(i, j, d, w), &(px, py)) in edges.iter().zip(&edge_pin) {
            let (dx, dy) = if j == PINNED {
                (x[i] - px, x[m + i] - py)
            } else {
                (x[i] - x[j], x[m + i] - x[m + j])
            };
            let dist = (dx * dx + dy * dy).sqrt();
            let r = dist - d;
            let wr = w * config.loss.irls_factor(r);
            lin.stress += wr * r * r;
            lin.w_tilde.push(wr);
            lin.residuals.push(r);
            let safe = dist.max(MIN_DISTANCE);
            lin.units.push((dx / safe, dy / safe));
        }
        lin
    };

    let mut lambda = config.tikhonov.max(f64::MIN_POSITIVE);
    let lambda_ceiling = lambda * 1e9;
    let mut iterations = 0usize;
    let mut cg_iterations = 0usize;
    let mut lin = linearize(&x);
    let initial_stress = lin.stress;
    let mut converged = false;
    // CG scratch shared across every inner solve, and the previous
    // accepted delta for warm starts (opt-in; `None` keeps the
    // fingerprint-pinned zero-start bits).
    let mut cg_ws = CgWorkspace::new();
    let mut prev_delta: Option<Vec<f64>> = None;

    for _ in 0..config.max_iterations {
        // rhs g = −JᵀW r.
        let mut g = vec![0.0; 2 * m];
        for (k, &(i, j, _, _)) in edges.iter().enumerate() {
            let s = lin.w_tilde[k] * lin.residuals[k];
            let (ux, uy) = lin.units[k];
            g[i] -= s * ux;
            g[m + i] -= s * uy;
            if j != PINNED {
                g[j] += s * ux;
                g[m + j] += s * uy;
            }
        }
        let op_edges: Vec<(usize, usize, f64)> = edges
            .iter()
            .zip(&lin.w_tilde)
            .map(|(&(i, j, _, _), &w)| (i, j, w))
            .collect();

        // Damping loop: retry the linear solve with stiffer λ until the
        // step actually reduces the (robust) stress.
        let mut accepted = false;
        while lambda <= lambda_ceiling {
            let op = DampedNormalOperator {
                m,
                edges: &op_edges,
                units: &lin.units,
                lambda,
            };
            // The operator changes with every reweight and damping level,
            // so the preconditioner is rebuilt per solve (a diagonal
            // extraction — cheap next to even one CG iteration).
            let precond = resolve_preconditioner(&op, config.cg.preconditioner);
            // Warm seed: the previous accepted delta, *rescaled* by a
            // one-matvec line search `α = gᵀ(Ad) / ||Ad||²`. The raw
            // delta is sized to the previous (larger) gradient and
            // overshoots — its residual exceeds ||g|| and CG's
            // never-worse guard would just discard it. The optimally
            // scaled seed starts at or below the cold residual by
            // construction whenever the old direction still has a
            // component along the new gradient.
            let seed: Option<Vec<f64>> = if config.cg_warm_start {
                prev_delta.as_deref().and_then(|d| {
                    let mut ad = vec![0.0; 2 * m];
                    op.apply(d, &mut ad);
                    let denom: f64 = ad.iter().map(|v| v * v).sum();
                    let alpha = g.iter().zip(&ad).map(|(gi, ai)| gi * ai).sum::<f64>() / denom;
                    (alpha.is_finite() && alpha != 0.0)
                        .then(|| d.iter().map(|di| alpha * di).collect())
                })
            } else {
                None
            };
            let Ok(solve) = conjugate_gradient_with(
                &op,
                &g,
                seed.as_deref(),
                precond.as_deref(),
                &config.cg,
                &mut cg_ws,
            ) else {
                // CG only fails here by iteration budget on a
                // near-singular system; stiffer damping fixes that.
                lambda *= 10.0;
                continue;
            };
            cg_iterations += solve.iterations;
            let trial: Vec<f64> = x.iter().zip(&solve.x).map(|(xi, di)| xi + di).collect();
            let trial_lin = linearize(&trial);
            if trial_lin.stress < lin.stress {
                let improvement =
                    (lin.stress - trial_lin.stress) / lin.stress.max(f64::MIN_POSITIVE);
                x = trial;
                lin = trial_lin;
                lambda = (lambda * 0.3).max(config.tikhonov * 1e-3);
                iterations += 1;
                accepted = true;
                prev_delta = Some(solve.x);
                if improvement < config.min_relative_improvement {
                    converged = true;
                }
                break;
            }
            lambda *= 10.0;
        }
        if !accepted {
            // The damping ceiling was reached without any descent: the
            // configuration is at (a numerical) stationary point —
            // converged, whether or not any earlier step was accepted
            // (a map that arrives already optimal takes zero steps).
            converged = true;
            break;
        }
        if converged {
            break;
        }
    }

    for (k, &i) in original.iter().enumerate() {
        positions.set(NodeId(i), Point2::new(x[k], x[m + k]));
    }
    Some(RefineOutcome {
        nodes: m,
        edges: edges.len(),
        iterations,
        cg_iterations,
        initial_stress,
        final_stress: lin.stress,
        converged,
    })
}

/// One linearization of the robust stress at a configuration: the
/// per-edge IRLS weights, residuals, and unit directions the normal
/// equations are assembled from.
struct Linearization {
    stress: f64,
    w_tilde: Vec<f64>,
    residuals: Vec<f64>,
    units: Vec<(f64, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_geom::{RigidTransform, Vec2};

    fn grid(nx: usize, ny: usize, spacing: f64) -> Vec<Point2> {
        (0..nx * ny)
            .map(|i| Point2::new((i % nx) as f64 * spacing, (i / nx) as f64 * spacing))
            .collect()
    }

    /// A smoothly warped copy of the truth, mimicking accumulated
    /// registration drift: displacement grows quadratically with x.
    fn drifted(truth: &[Point2], scale: f64) -> PositionMap {
        let mut positions = PositionMap::unlocalized(truth.len());
        for (i, p) in truth.iter().enumerate() {
            let t = p.x / 40.0;
            positions.set(
                NodeId(i),
                Point2::new(p.x + scale * t * t, p.y + 0.5 * scale * t * t),
            );
        }
        positions
    }

    #[test]
    fn refinement_pulls_drifted_map_back_onto_measurements() {
        let truth = grid(6, 4, 9.0);
        let set = MeasurementSet::oracle(&truth, 15.0);
        let mut positions = drifted(&truth, 8.0);
        let before = crate::eval::evaluate_against_truth(&positions, &truth).unwrap();
        let out = refine_aligned(&set, &mut positions, &RefineConfig::default()).unwrap();
        let after = crate::eval::evaluate_against_truth(&positions, &truth).unwrap();
        assert_eq!(out.nodes, truth.len());
        assert!(out.final_stress < out.initial_stress * 1e-3, "{out:?}");
        assert!(
            after.mean_error < 0.05 * before.mean_error,
            "refinement {} -> {}",
            before.mean_error,
            after.mean_error
        );
        assert!(out.iterations > 0 && out.cg_iterations > 0);
    }

    #[test]
    fn unaligned_nodes_stay_untouched() {
        let truth = grid(4, 4, 9.0);
        let set = MeasurementSet::oracle(&truth, 15.0);
        let mut positions = drifted(&truth, 5.0);
        positions.clear(NodeId(7));
        let frozen = positions.get(NodeId(3));
        let out = refine_aligned(&set, &mut positions, &RefineConfig::default()).unwrap();
        assert_eq!(out.nodes, 15);
        assert_eq!(positions.get(NodeId(7)), None, "unaligned stays unaligned");
        assert_ne!(positions.get(NodeId(3)), frozen, "aligned nodes move");
    }

    #[test]
    fn degenerate_inputs_return_none() {
        let truth = grid(3, 3, 9.0);
        let set = MeasurementSet::oracle(&truth, 15.0);
        // Zero aligned nodes.
        let mut none = PositionMap::unlocalized(truth.len());
        assert!(refine_aligned(&set, &mut none, &RefineConfig::default()).is_none());
        // One aligned node.
        let mut one = PositionMap::unlocalized(truth.len());
        one.set(NodeId(0), truth[0]);
        assert!(refine_aligned(&set, &mut one, &RefineConfig::default()).is_none());
        // Two aligned nodes without a measured edge between them.
        let mut sparse_set = MeasurementSet::new(3);
        sparse_set.insert(NodeId(0), NodeId(1), 9.0);
        let mut pair = PositionMap::unlocalized(3);
        pair.set(NodeId(0), truth[0]);
        pair.set(NodeId(2), truth[2]);
        assert!(refine_aligned(&sparse_set, &mut pair, &RefineConfig::default()).is_none());
    }

    #[test]
    fn already_optimal_configuration_converges_immediately() {
        let truth = grid(4, 3, 9.0);
        let set = MeasurementSet::oracle(&truth, 15.0);
        let mut positions = PositionMap::complete(truth.clone());
        let out = refine_aligned(&set, &mut positions, &RefineConfig::default()).unwrap();
        assert!(out.converged, "{out:?}");
        assert!(out.final_stress < 1e-12);
        for (i, &p) in truth.iter().enumerate() {
            assert!(positions.get(NodeId(i)).unwrap().distance(p) < 1e-6);
        }
    }

    #[test]
    fn refinement_is_deterministic() {
        let truth = grid(5, 4, 9.0);
        let set = MeasurementSet::oracle(&truth, 15.0);
        let run = || {
            let mut positions = drifted(&truth, 6.0);
            refine_aligned(&set, &mut positions, &RefineConfig::default());
            (0..truth.len())
                .map(|i| {
                    let p = positions.get(NodeId(i)).unwrap();
                    (p.x.to_bits(), p.y.to_bits())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn robust_reweighting_resists_a_gross_outlier_edge() {
        let truth = grid(5, 3, 9.0);
        let mut set = MeasurementSet::oracle(&truth, 15.0);
        set.insert(NodeId(0), NodeId(1), 0.5); // true 9 m, echo-style
        let robust_cfg = RefineConfig::default();
        let plain_cfg = RefineConfig {
            loss: RobustLoss::SquaredL2,
            ..RefineConfig::default()
        };
        let err_with = |cfg: &RefineConfig| {
            let mut positions = drifted(&truth, 4.0);
            refine_aligned(&set, &mut positions, cfg).unwrap();
            crate::eval::evaluate_against_truth(&positions, &truth)
                .unwrap()
                .mean_error
        };
        let robust = err_with(&robust_cfg);
        let plain = err_with(&plain_cfg);
        assert!(
            robust < plain,
            "robust {robust} should beat plain {plain} under a gross outlier"
        );
        assert!(robust < 0.5, "robust error {robust}");
    }

    #[test]
    fn empty_pin_list_is_bitwise_refine_aligned() {
        let truth = grid(5, 4, 9.0);
        let set = MeasurementSet::oracle(&truth, 15.0);
        let bits = |positions: &PositionMap| -> Vec<(u64, u64)> {
            (0..truth.len())
                .map(|i| {
                    let p = positions.get(NodeId(i)).unwrap();
                    (p.x.to_bits(), p.y.to_bits())
                })
                .collect()
        };
        let mut plain = drifted(&truth, 6.0);
        let mut anchored = plain.clone();
        let a = refine_aligned(&set, &mut plain, &RefineConfig::default()).unwrap();
        let b = refine_anchored(&set, &mut anchored, &[], &RefineConfig::default()).unwrap();
        assert_eq!(a, b);
        assert_eq!(bits(&plain), bits(&anchored));
    }

    #[test]
    fn pinned_nodes_never_move_and_pull_the_frame_home() {
        let truth = grid(6, 4, 9.0);
        let set = MeasurementSet::oracle(&truth, 15.0);
        let mut positions = drifted(&truth, 8.0);
        // Pin three spread-out nodes at their *true* positions, like
        // anchors re-surveyed each tick.
        let pins = [NodeId(0), NodeId(11), NodeId(23)];
        for &p in &pins {
            positions.set(p, truth[p.index()]);
        }
        let out = refine_anchored(&set, &mut positions, &pins, &RefineConfig::default()).unwrap();
        assert_eq!(out.nodes, truth.len() - pins.len(), "free variables only");
        for &p in &pins {
            let q = positions.get(p).unwrap();
            assert_eq!(q.x.to_bits(), truth[p.index()].x.to_bits());
            assert_eq!(q.y.to_bits(), truth[p.index()].y.to_bits());
        }
        // With exact measurements and true pins, the refit lands on the
        // truth in the absolute frame — no best-fit alignment needed.
        let mut worst = 0.0f64;
        for (i, &t) in truth.iter().enumerate() {
            worst = worst.max(positions.get(NodeId(i)).unwrap().distance(t));
        }
        assert!(worst < 1e-3, "absolute-frame residual {worst} m");
    }

    #[test]
    fn single_free_node_refines_against_pinned_neighbors() {
        // Trilateration-style: one free node, three pinned ones. The
        // all-free path would bail out (m < 2); the pinned path solves.
        let truth = vec![
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(0.0, 10.0),
            Point2::new(6.0, 6.0),
        ];
        let set = MeasurementSet::oracle(&truth, 20.0);
        let mut positions = PositionMap::complete(truth.clone());
        positions.set(NodeId(3), Point2::new(2.0, 9.0)); // perturbed
        let pins = [NodeId(0), NodeId(1), NodeId(2)];
        let out = refine_anchored(&set, &mut positions, &pins, &RefineConfig::default()).unwrap();
        assert_eq!(out.nodes, 1);
        assert!(positions.get(NodeId(3)).unwrap().distance(truth[3]) < 1e-6);
    }

    #[test]
    fn unlocalized_or_out_of_range_pins_are_ignored() {
        let truth = grid(4, 3, 9.0);
        let set = MeasurementSet::oracle(&truth, 15.0);
        let mut positions = drifted(&truth, 5.0);
        positions.clear(NodeId(2));
        // Pinning an unlocalized node and an out-of-range id must not
        // panic nor change the degenerate-input rules.
        let pins = [NodeId(2), NodeId(999)];
        let out = refine_anchored(&set, &mut positions, &pins, &RefineConfig::default());
        assert!(out.is_some());
        assert_eq!(positions.get(NodeId(2)), None);
    }

    #[test]
    fn preconditioned_warm_started_refine_matches_default_quality() {
        use rl_math::sparse::cg::PreconditionerKind;
        let truth = grid(8, 5, 9.0);
        let set = MeasurementSet::oracle(&truth, 15.0);
        let fast_cfg = RefineConfig {
            cg: CgConfig::default()
                .with_max_iterations(200)
                .with_tolerance(1e-4)
                .with_preconditioner(PreconditionerKind::Jacobi),
            cg_warm_start: true,
            ..RefineConfig::default()
        };
        let mut plain_pos = drifted(&truth, 8.0);
        let plain = refine_aligned(&set, &mut plain_pos, &RefineConfig::default()).unwrap();
        let mut fast_pos = drifted(&truth, 8.0);
        let fast = refine_aligned(&set, &mut fast_pos, &fast_cfg).unwrap();
        // Same optimization problem, same answer quality — the
        // accelerations change the path to the solution, not the
        // solution.
        assert!(fast.final_stress < fast.initial_stress * 1e-3, "{fast:?}");
        let plain_err = crate::eval::evaluate_against_truth(&plain_pos, &truth)
            .unwrap()
            .mean_error;
        let fast_err = crate::eval::evaluate_against_truth(&fast_pos, &truth)
            .unwrap()
            .mean_error;
        assert!(
            (plain_err - fast_err).abs() < 0.05,
            "plain {plain_err} vs fast {fast_err}"
        );
        assert!(fast.cg_iterations > 0 && plain.cg_iterations > 0);
    }

    #[test]
    fn warm_start_alone_preserves_refined_quality() {
        let truth = grid(6, 4, 9.0);
        let set = MeasurementSet::oracle(&truth, 15.0);
        let cfg = RefineConfig {
            cg_warm_start: true,
            ..RefineConfig::default()
        };
        let mut positions = drifted(&truth, 8.0);
        let out = refine_aligned(&set, &mut positions, &cfg).unwrap();
        assert!(out.final_stress < out.initial_stress * 1e-3, "{out:?}");
        let after = crate::eval::evaluate_against_truth(&positions, &truth).unwrap();
        assert!(
            after.mean_error < 0.5,
            "warm-started error {}",
            after.mean_error
        );
    }

    #[test]
    fn rigid_frame_is_preserved_not_recentered() {
        // The Tikhonov anchor keeps the refined map in the frame the
        // flood produced: a configuration that is already a rigid motion
        // of the truth must stay (approximately) where it is rather than
        // snapping somewhere else.
        let truth = grid(4, 3, 9.0);
        let set = MeasurementSet::oracle(&truth, 15.0);
        let moved = RigidTransform::new(0.6, false, Vec2::new(30.0, -12.0));
        let mut positions = PositionMap::complete(truth.iter().map(|&p| moved.apply(p)).collect());
        refine_aligned(&set, &mut positions, &RefineConfig::default()).unwrap();
        for (i, &p) in truth.iter().enumerate() {
            let q = positions.get(NodeId(i)).unwrap();
            assert!(
                q.distance(moved.apply(p)) < 0.1,
                "node {i} moved {} m out of frame",
                q.distance(moved.apply(p))
            );
        }
    }
}
