//! Gradient descent with perturbation restarts.
//!
//! The paper minimizes the LSS stress function by gradient descent and
//! escapes local minima by restarting "each round of minimization with seed
//! positions obtained by perturbing the best results so far" (Section 4.2.1).
//! This module provides that optimizer generically for LSS, centralized
//! and distributed. Multilateration no longer shares it: each of its
//! fixes has two unknowns, so `rl_core::multilateration` solves them by
//! Gauss–Newton on the 2×2 normal equations instead.
//!
//! The step rule is the paper's `x_{t+1} = x_t - alpha * grad E(x_t)`,
//! augmented with a multiplicative adaptive step size: accepted steps grow
//! `alpha` slightly, rejected steps (those that increase `E`) shrink it and
//! are retried. This keeps the fixed-step spirit while avoiding manual
//! per-problem tuning.
//!
//! # One evaluation per point
//!
//! An [`Objective`] returns `E(x)` and `∇E(x)` from one pass, so the
//! descent evaluates `x0` once and each candidate once: an accepted
//! candidate's gradient is the next step's. Backtracking stops as soon as
//! `x − α·g` rounds to `x` bit for bit. That exit is exact: rounding is
//! monotone, so every smaller `α` rounds to `x` too, and the value at `x`
//! cannot pass `cand < value`. The skipped halvings could only have
//! re-evaluated `x` and been rejected.

use rand::Rng;

/// A differentiable objective `E : R^n -> R`.
///
/// One fused evaluation returns the value and writes the gradient, so the
/// terms both need (distances, mostly) are computed once per point. It
/// must be a pure function of `x`, bit for bit. Value and gradient need
/// not agree to machine precision, but descent degrades if they diverge.
pub trait Objective {
    /// Dimension `n` of the search space.
    fn dim(&self) -> usize;

    /// Returns `E(x)` and writes `∇E(x)` into `grad`
    /// (`x.len() == grad.len() == self.dim()`).
    fn evaluate(&self, x: &[f64], grad: &mut [f64]) -> f64;
}

/// Configuration for [`minimize`].
#[derive(Debug, Clone, PartialEq)]
pub struct DescentConfig {
    /// Initial step size `alpha`.
    pub step_size: f64,
    /// Maximum iterations per round.
    pub max_iterations: usize,
    /// Convergence: stop a round when the relative improvement of `E` stays
    /// below this for [`DescentConfig::patience`] consecutive iterations.
    pub tolerance: f64,
    /// Consecutive low-improvement iterations tolerated before stopping.
    pub patience: usize,
    /// Number of perturbation restarts after the initial round.
    pub restarts: usize,
    /// Standard deviation of the Gaussian perturbation applied to the best
    /// configuration when seeding a restart round.
    pub perturbation: f64,
    /// Whether to record the objective value at every accepted iteration
    /// (used to reproduce the error-vs-epoch curves of Figure 23).
    pub record_trace: bool,
}

impl Default for DescentConfig {
    fn default() -> Self {
        DescentConfig {
            step_size: 0.01,
            max_iterations: 2_000,
            tolerance: 1e-9,
            patience: 25,
            restarts: 0,
            perturbation: 1.0,
            record_trace: false,
        }
    }
}

/// Objective values recorded per accepted iteration, across all rounds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DescentTrace {
    /// `E` after each accepted step, in order; round boundaries are recorded
    /// in [`DescentTrace::round_starts`].
    pub values: Vec<f64>,
    /// Index into `values` where each round begins.
    pub round_starts: Vec<usize>,
}

/// Result of a [`minimize`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct DescentOutcome {
    /// Best configuration found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Total accepted iterations across all rounds.
    pub iterations: usize,
    /// Whether at least one round terminated by the tolerance test (rather
    /// than exhausting its iteration budget).
    pub converged: bool,
    /// Objective trace, present when requested in the config.
    pub trace: Option<DescentTrace>,
}

/// Minimizes `objective` starting from `x0`.
///
/// Runs `1 + cfg.restarts` rounds of adaptive-step gradient descent. Round 0
/// starts at `x0`; each later round starts from the best configuration found
/// so far perturbed by `N(0, cfg.perturbation^2)` per coordinate, following
/// the paper's restart scheme.
///
/// # Panics
///
/// Panics if `x0.len() != objective.dim()` or the config's `step_size`,
/// `perturbation` or `max_iterations` are non-positive/zero.
///
/// # Example
///
/// ```
/// use rl_math::gradient::{minimize, DescentConfig, Objective};
///
/// struct Bowl;
/// impl Objective for Bowl {
///     fn dim(&self) -> usize { 2 }
///     fn evaluate(&self, x: &[f64], g: &mut [f64]) -> f64 {
///         g[0] = 2.0 * x[0];
///         g[1] = 2.0 * (x[1] - 1.0);
///         x[0].powi(2) + (x[1] - 1.0).powi(2)
///     }
/// }
///
/// let mut rng = rl_math::rng::seeded(0);
/// let out = minimize(&Bowl, &[5.0, -3.0], &DescentConfig::default(), &mut rng);
/// assert!(out.value < 1e-8);
/// assert!((out.x[1] - 1.0).abs() < 1e-4);
/// ```
pub fn minimize<O: Objective, R: Rng + ?Sized>(
    objective: &O,
    x0: &[f64],
    cfg: &DescentConfig,
    rng: &mut R,
) -> DescentOutcome {
    assert!(cfg.perturbation > 0.0, "perturbation must be positive");
    let mut best = descend(objective, x0, cfg);
    let mut gauss = crate::rng::GaussianSampler::new();
    for _ in 0..cfg.restarts {
        // Seed: the best configuration so far, perturbed.
        let start: Vec<f64> = best
            .x
            .iter()
            .map(|&v| v + gauss.sample_with(rng, 0.0, cfg.perturbation))
            .collect();
        let round = descend(objective, &start, cfg);
        best.iterations += round.iterations;
        best.converged |= round.converged;
        if let (Some(t), Some(r)) = (best.trace.as_mut(), round.trace) {
            t.round_starts.push(t.values.len());
            t.values.extend(r.values);
        }
        if round.value < best.value {
            best.x = round.x;
            best.value = round.value;
        }
    }
    best
}

/// One round of [`minimize`]'s descent from `x0`, with no restarts.
///
/// Draws no randomness — `cfg.restarts` and `cfg.perturbation` are
/// ignored — and returns exactly what [`minimize`] returns for
/// `cfg.restarts == 0`, so callers that never restart need no generator.
///
/// # Panics
///
/// Panics if `x0.len() != objective.dim()` or the config's `step_size`
/// or `max_iterations` are non-positive/zero.
pub fn descend<O: Objective>(objective: &O, x0: &[f64], cfg: &DescentConfig) -> DescentOutcome {
    let n = objective.dim();
    assert_eq!(x0.len(), n, "x0 has wrong dimension");
    assert!(cfg.step_size > 0.0, "step_size must be positive");
    assert!(cfg.max_iterations > 0, "max_iterations must be nonzero");

    let mut trace = cfg.record_trace.then(|| DescentTrace {
        values: Vec::new(),
        round_starts: vec![0],
    });
    let mut iterations = 0usize;
    let mut converged = false;

    let mut x = x0.to_vec();
    let mut grad = vec![0.0; n];
    let mut value = objective.evaluate(&x, &mut grad);
    let mut alpha = cfg.step_size;
    let mut candidate = vec![0.0; n];
    let mut cand_grad = vec![0.0; n];
    let mut stall = 0usize;

    for _ in 0..cfg.max_iterations {
        let gnorm_sq: f64 = grad.iter().map(|g| g * g).sum();
        if gnorm_sq == 0.0 || !gnorm_sq.is_finite() {
            converged = gnorm_sq == 0.0;
            break;
        }

        // Backtracking: shrink alpha until the step improves E, or until
        // the step no longer moves x (see the module docs).
        let mut accepted = false;
        for _ in 0..30 {
            let mut moved = false;
            for i in 0..n {
                candidate[i] = x[i] - alpha * grad[i];
                moved |= candidate[i].to_bits() != x[i].to_bits();
            }
            if !moved {
                break;
            }
            let cand_value = objective.evaluate(&candidate, &mut cand_grad);
            if cand_value.is_finite() && cand_value < value {
                let improvement = (value - cand_value) / value.abs().max(1.0);
                core::mem::swap(&mut x, &mut candidate);
                core::mem::swap(&mut grad, &mut cand_grad);
                value = cand_value;
                alpha *= 1.05;
                accepted = true;
                iterations += 1;
                if let Some(t) = trace.as_mut() {
                    t.values.push(value);
                }
                if improvement < cfg.tolerance {
                    stall += 1;
                } else {
                    stall = 0;
                }
                break;
            }
            alpha *= 0.5;
            if alpha < 1e-300 {
                break;
            }
        }
        if !accepted {
            // Gradient step cannot improve: local minimum at this scale.
            converged = true;
            break;
        }
        if stall >= cfg.patience {
            converged = true;
            break;
        }
    }

    // Steps are accepted only when they lower E, so the round's last
    // point is its best one (x0 itself when no step was accepted).
    DescentOutcome {
        x,
        value,
        iterations,
        converged,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    use proptest::prelude::*;
    use std::cell::RefCell;

    struct Bowl;
    impl Objective for Bowl {
        fn dim(&self) -> usize {
            2
        }
        fn evaluate(&self, x: &[f64], g: &mut [f64]) -> f64 {
            g[0] = 2.0 * x[0];
            g[1] = 2.0 * (x[1] - 1.0);
            x[0] * x[0] + (x[1] - 1.0) * (x[1] - 1.0)
        }
    }

    /// Double-well in 1D: minima at x = ±1, f(-1) = 0 is global only at -1
    /// after tilting. f(x) = (x^2 - 1)^2 + 0.3 x.
    struct DoubleWell;
    impl Objective for DoubleWell {
        fn dim(&self) -> usize {
            1
        }
        fn evaluate(&self, x: &[f64], g: &mut [f64]) -> f64 {
            g[0] = 4.0 * x[0] * (x[0] * x[0] - 1.0) + 0.3;
            let q = x[0] * x[0] - 1.0;
            q * q + 0.3 * x[0]
        }
    }

    #[test]
    fn bowl_converges_to_minimum() {
        let mut rng = seeded(0);
        let out = minimize(&Bowl, &[10.0, -10.0], &DescentConfig::default(), &mut rng);
        assert!(out.value < 1e-8, "value {}", out.value);
        assert!(out.x[0].abs() < 1e-4);
        assert!((out.x[1] - 1.0).abs() < 1e-4);
        assert!(out.converged);
    }

    #[test]
    fn trace_is_monotone_within_round() {
        let mut rng = seeded(1);
        let cfg = DescentConfig {
            record_trace: true,
            ..DescentConfig::default()
        };
        let out = minimize(&Bowl, &[3.0, 3.0], &cfg, &mut rng);
        let t = out.trace.expect("trace requested");
        assert!(!t.values.is_empty());
        assert_eq!(t.round_starts, vec![0]);
        for w in t.values.windows(2) {
            assert!(w[1] <= w[0] + 1e-12, "E increased within a round");
        }
    }

    #[test]
    fn restarts_escape_local_minimum() {
        // Start inside the shallow (right) well; the global minimum is near
        // x = -1.04. Without restarts descent stays in the right well.
        let stuck_cfg = DescentConfig {
            step_size: 0.01,
            restarts: 0,
            ..DescentConfig::default()
        };
        let mut rng = seeded(2);
        let stuck = minimize(&DoubleWell, &[0.9], &stuck_cfg, &mut rng);
        assert!(stuck.x[0] > 0.0, "expected to stay in right well");

        let free_cfg = DescentConfig {
            step_size: 0.01,
            restarts: 12,
            perturbation: 1.5,
            ..DescentConfig::default()
        };
        let mut rng = seeded(2);
        let freed = minimize(&DoubleWell, &[0.9], &free_cfg, &mut rng);
        assert!(
            freed.x[0] < 0.0,
            "restarts should find the global well, got {}",
            freed.x[0]
        );
        assert!(freed.value < stuck.value);
    }

    #[test]
    fn restart_rounds_recorded_in_trace() {
        let cfg = DescentConfig {
            restarts: 3,
            record_trace: true,
            max_iterations: 50,
            ..DescentConfig::default()
        };
        let mut rng = seeded(3);
        let out = minimize(&Bowl, &[1.0, 0.0], &cfg, &mut rng);
        let t = out.trace.unwrap();
        assert_eq!(t.round_starts.len(), 4);
        // Round starts are non-decreasing and within bounds.
        for w in t.round_starts.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(*t.round_starts.last().unwrap() <= t.values.len());
    }

    #[test]
    fn outcome_never_worse_than_start() {
        let mut rng = seeded(4);
        let start = [0.3, 0.7];
        let before = Bowl.evaluate(&start, &mut [0.0; 2]);
        let out = minimize(&Bowl, &start, &DescentConfig::default(), &mut rng);
        assert!(out.value <= before);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn wrong_dimension_panics() {
        let mut rng = seeded(0);
        let _ = minimize(&Bowl, &[0.0], &DescentConfig::default(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "step_size")]
    fn zero_step_panics() {
        let mut rng = seeded(0);
        let cfg = DescentConfig {
            step_size: 0.0,
            ..DescentConfig::default()
        };
        let _ = minimize(&Bowl, &[0.0, 0.0], &cfg, &mut rng);
    }

    /// `descend` is `minimize` without restarts, bit for bit, and never
    /// needs a generator.
    #[test]
    fn descend_is_minimize_without_restarts() {
        let cfg = DescentConfig {
            record_trace: true,
            ..DescentConfig::default()
        };
        let with_rng = minimize(
            &AnisotropicBowl,
            &[3.0, -2.0, 1.0, 9.0],
            &cfg,
            &mut seeded(9),
        );
        let without = descend(&AnisotropicBowl, &[3.0, -2.0, 1.0, 9.0], &cfg);
        assert_eq!(with_rng.value.to_bits(), without.value.to_bits());
        assert!(with_rng
            .x
            .iter()
            .zip(&without.x)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(with_rng.iterations, without.iterations);
        assert_eq!(with_rng.converged, without.converged);
        assert_eq!(with_rng.trace, without.trace);
    }

    #[test]
    fn already_at_minimum_is_stable() {
        let mut rng = seeded(5);
        let out = minimize(&Bowl, &[0.0, 1.0], &DescentConfig::default(), &mut rng);
        assert!(out.value <= 1e-20);
        assert!(out.x[0].abs() < 1e-9 && (out.x[1] - 1.0).abs() < 1e-9);
    }

    /// Anisotropic quadratic bowl `Σ aᵢ (xᵢ − cᵢ)²` with known minimizer
    /// `c`, curvatures spanning a 20:1 conditioning spread.
    struct AnisotropicBowl;

    impl AnisotropicBowl {
        const CURVATURE: [f64; 4] = [0.5, 2.0, 5.0, 10.0];
        const CENTER: [f64; 4] = [-3.0, 0.25, 7.5, -1.0];
    }

    impl Objective for AnisotropicBowl {
        fn dim(&self) -> usize {
            4
        }

        fn evaluate(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            let mut e = -0.0;
            for i in 0..4 {
                e += Self::CURVATURE[i] * (x[i] - Self::CENTER[i]).powi(2);
                grad[i] = 2.0 * Self::CURVATURE[i] * (x[i] - Self::CENTER[i]);
            }
            e
        }
    }

    /// Gradient descent must converge to the analytic minimizer of a
    /// badly-conditioned quadratic bowl from a distant start.
    #[test]
    fn converges_on_anisotropic_quadratic_bowl() {
        let mut rng = seeded(6);
        let cfg = DescentConfig {
            max_iterations: 20_000,
            tolerance: 1e-14,
            ..DescentConfig::default()
        };
        let out = minimize(
            &AnisotropicBowl,
            &[20.0, -20.0, 20.0, -20.0],
            &cfg,
            &mut rng,
        );
        assert!(out.converged, "did not converge: value {}", out.value);
        assert!(out.value < 1e-8, "value {}", out.value);
        for (xi, c) in out.x.iter().zip(AnisotropicBowl::CENTER) {
            assert!((xi - c).abs() < 1e-4, "coordinate {xi} vs center {c}");
        }
    }

    /// Restart perturbations must not lose the best-so-far configuration:
    /// with restarts enabled on a convex bowl the outcome stays optimal.
    #[test]
    fn restarts_keep_best_on_convex_objective() {
        let mut rng = seeded(7);
        let cfg = DescentConfig {
            restarts: 3,
            perturbation: 5.0,
            ..DescentConfig::default()
        };
        let out = minimize(&AnisotropicBowl, &[10.0, 10.0, 10.0, 10.0], &cfg, &mut rng);
        assert!(out.value < 1e-6, "value {}", out.value);
    }

    /// The descent loop as it was before evaluations were fused: the
    /// value of every candidate, then the gradient at the accepted point
    /// in a second call, and all 30 halvings of a step that cannot move.
    /// `descend` must return exactly what this returns.
    fn two_call_descend<O: Objective>(
        objective: &O,
        x0: &[f64],
        cfg: &DescentConfig,
    ) -> DescentOutcome {
        let n = objective.dim();
        let mut scratch = vec![0.0; n];
        let mut trace = cfg.record_trace.then(|| DescentTrace {
            values: Vec::new(),
            round_starts: vec![0],
        });
        let mut iterations = 0usize;
        let mut converged = false;
        let mut x = x0.to_vec();
        let mut value = objective.evaluate(&x, &mut scratch);
        let mut alpha = cfg.step_size;
        let mut grad = vec![0.0; n];
        let mut candidate = vec![0.0; n];
        let mut stall = 0usize;
        for _ in 0..cfg.max_iterations {
            objective.evaluate(&x, &mut grad);
            let gnorm_sq: f64 = grad.iter().map(|g| g * g).sum();
            if gnorm_sq == 0.0 || !gnorm_sq.is_finite() {
                converged = gnorm_sq == 0.0;
                break;
            }
            let mut accepted = false;
            for _ in 0..30 {
                for i in 0..n {
                    candidate[i] = x[i] - alpha * grad[i];
                }
                let cand_value = objective.evaluate(&candidate, &mut scratch);
                if cand_value.is_finite() && cand_value < value {
                    let improvement = (value - cand_value) / value.abs().max(1.0);
                    core::mem::swap(&mut x, &mut candidate);
                    value = cand_value;
                    alpha *= 1.05;
                    accepted = true;
                    iterations += 1;
                    if let Some(t) = trace.as_mut() {
                        t.values.push(value);
                    }
                    if improvement < cfg.tolerance {
                        stall += 1;
                    } else {
                        stall = 0;
                    }
                    break;
                }
                alpha *= 0.5;
                if alpha < 1e-300 {
                    break;
                }
            }
            if !accepted || stall >= cfg.patience {
                converged = true;
                break;
            }
        }
        DescentOutcome {
            x,
            value,
            iterations,
            converged,
            trace,
        }
    }

    /// Asserts that `descend` returns what the two-call loop returns.
    fn assert_parity<O: Objective>(objective: &O, x0: &[f64], cfg: &DescentConfig) {
        assert_same_outcome(
            &descend(objective, x0, cfg),
            &two_call_descend(objective, x0, cfg),
        );
    }

    /// Asserts two outcomes are equal bit for bit, traces included.
    fn assert_same_outcome(got: &DescentOutcome, want: &DescentOutcome) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.x), bits(&want.x), "x");
        assert_eq!(got.value.to_bits(), want.value.to_bits(), "value");
        assert_eq!(got.iterations, want.iterations, "iterations");
        assert_eq!(got.converged, want.converged, "converged");
        let trace_bits = |t: &Option<DescentTrace>| {
            t.as_ref()
                .map(|t| (bits(&t.values), t.round_starts.clone()))
        };
        assert_eq!(trace_bits(&got.trace), trace_bits(&want.trace), "trace");
    }

    /// A 2-D weighted range fix, multilateration's shape: descents on it
    /// end in the backtracking tail, at a point no halving can move.
    struct Ranges {
        anchors: Vec<(f64, f64, f64)>,
    }

    impl Objective for Ranges {
        fn dim(&self) -> usize {
            2
        }

        fn evaluate(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            let mut e = -0.0;
            grad[0] = 0.0;
            grad[1] = 0.0;
            for &(ax, ay, d) in &self.anchors {
                let (dx, dy) = (x[0] - ax, x[1] - ay);
                let dist = dx.hypot(dy);
                e += (dist - d) * (dist - d);
                let dc = dist.max(1e-9);
                grad[0] += 2.0 * (dc - d) / dc * dx;
                grad[1] += 2.0 * (dc - d) / dc * dy;
            }
            e
        }
    }

    /// Noisy ranges from four anchors to a node near (3, 4).
    fn ranges() -> Ranges {
        Ranges {
            anchors: vec![
                (0.0, 0.0, 5.02),
                (10.0, 0.0, 8.11),
                (0.0, 10.0, 6.69),
                (10.0, 10.0, 9.23),
            ],
        }
    }

    /// `E(x) = x − ln x`: NaN left of 0 with a finite gradient there, and
    /// `+inf` at 0 with an infinite one.
    struct Barrier;

    impl Objective for Barrier {
        fn dim(&self) -> usize {
            1
        }

        fn evaluate(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            grad[0] = 1.0 - 1.0 / x[0];
            x[0] - x[0].ln()
        }
    }

    /// Records every point it evaluates.
    struct Recording<O> {
        inner: O,
        points: RefCell<Vec<Vec<u64>>>,
    }

    impl<O: Objective> Recording<O> {
        fn new(inner: O) -> Self {
            Recording {
                inner,
                points: RefCell::default(),
            }
        }

        /// How many times `x` was evaluated, bit for bit.
        fn visits(&self, x: &[f64]) -> usize {
            let key: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
            self.points.borrow().iter().filter(|p| **p == key).count()
        }
    }

    impl<O: Objective> Objective for Recording<O> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn evaluate(&self, x: &[f64], grad: &mut [f64]) -> f64 {
            self.points
                .borrow_mut()
                .push(x.iter().map(|v| v.to_bits()).collect());
            self.inner.evaluate(x, grad)
        }
    }

    #[test]
    fn descend_matches_the_two_call_loop_on_fixed_cases() {
        let cfg = DescentConfig {
            record_trace: true,
            ..DescentConfig::default()
        };
        let multilateration = DescentConfig {
            step_size: 0.05,
            max_iterations: 400,
            tolerance: 1e-12,
            patience: 20,
            ..cfg.clone()
        };
        assert_parity(&Bowl, &[10.0, -10.0], &cfg);
        assert_parity(&Bowl, &[0.0, 1.0], &cfg);
        assert_parity(&DoubleWell, &[0.9], &cfg);
        assert_parity(&AnisotropicBowl, &[20.0, -20.0, 20.0, -20.0], &cfg);
        for x0 in [[5.0, 5.0], [3.0, 4.0], [-20.0, 30.0], [0.0, 0.0]] {
            assert_parity(&ranges(), &x0, &multilateration);
        }
        // A NaN start value with a finite gradient: no candidate can be
        // accepted. An infinite start gradient stops at once.
        assert_parity(&Barrier, &[-2.0], &cfg);
        assert_parity(&Barrier, &[0.0], &cfg);
        assert!(descend(&Barrier, &[-2.0], &cfg).value.is_nan());
    }

    /// A descent that reaches a point no step can move evaluates that
    /// point once; the two-call loop evaluated it again for its gradient
    /// and once more for every one of the 30 halvings.
    #[test]
    fn a_fixed_point_is_evaluated_once() {
        let cfg = DescentConfig {
            step_size: 0.05,
            max_iterations: 400,
            tolerance: 1e-12,
            patience: 20,
            ..DescentConfig::default()
        };
        let fused = Recording::new(ranges());
        let out = descend(&fused, &[5.0, 5.0], &cfg);
        let old = Recording::new(ranges());
        let want = two_call_descend(&old, &[5.0, 5.0], &cfg);
        assert_same_outcome(&out, &want);
        assert!(out.converged && out.iterations < cfg.max_iterations);
        assert_eq!(fused.visits(&out.x), 1);
        assert!(old.visits(&out.x) > 2, "{} visits", old.visits(&out.x));
        // Every accepted step is one evaluation, and so is the start.
        let calls = fused.points.borrow().len();
        assert!(calls > out.iterations && calls < old.points.borrow().len());

        // A start that no step can move is evaluated once, and nothing
        // else is.
        // One ulp off the bowl's minimum, the gradient is nonzero but
        // every step rounds back to the start.
        let still = Recording::new(Bowl);
        let out = descend(&still, &[0.0, 1.0 + f64::EPSILON], &cfg);
        assert_eq!((out.iterations, out.converged), (0, true));
        assert_eq!(still.points.borrow().len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// `descend` equals the two-call loop bit for bit from arbitrary
        /// starts and settings, traces included.
        #[test]
        fn descend_matches_the_two_call_loop(
            start in proptest::collection::vec(-60.0f64..60.0, 4),
            step_size in 1e-4f64..0.5,
            max_iterations in 1usize..600,
            tolerance_exp in -16i32..-2,
            patience in 1usize..40,
        ) {
            let cfg = DescentConfig {
                step_size,
                max_iterations,
                tolerance: 10f64.powi(tolerance_exp),
                patience,
                record_trace: true,
                ..DescentConfig::default()
            };
            assert_parity(&AnisotropicBowl, &start, &cfg);
            assert_parity(&ranges(), &start[..2], &cfg);
            assert_parity(&DoubleWell, &start[2..3], &cfg);
        }
    }
}
