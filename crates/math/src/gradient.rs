//! Gradient descent with perturbation restarts.
//!
//! The paper minimizes the LSS stress function by gradient descent and
//! escapes local minima by restarting "each round of minimization with seed
//! positions obtained by perturbing the best results so far" (Section 4.2.1).
//! This module provides that optimizer generically so both multilateration
//! and LSS share one well-tested implementation.
//!
//! The step rule is the paper's `x_{t+1} = x_t - alpha * grad E(x_t)`,
//! augmented with a multiplicative adaptive step size: accepted steps grow
//! `alpha` slightly, rejected steps (those that increase `E`) shrink it and
//! are retried. This keeps the fixed-step spirit while avoiding manual
//! per-problem tuning.

use rand::Rng;

/// A differentiable objective `E : R^n -> R`.
///
/// Implementors provide the dimension, the value, and the gradient. The
/// optimizer never requires the gradient and value to be consistent to
/// machine precision, but descent quality degrades if they diverge.
pub trait Objective {
    /// Dimension `n` of the search space.
    fn dim(&self) -> usize;

    /// Objective value at `x` (`x.len() == self.dim()`).
    fn value(&self, x: &[f64]) -> f64;

    /// Writes the gradient at `x` into `grad` (`grad.len() == self.dim()`).
    fn gradient(&self, x: &[f64], grad: &mut [f64]);
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
///     fn value(&self, x: &[f64]) -> f64 { x[0].powi(2) + (x[1] - 1.0).powi(2) }
///     fn gradient(&self, x: &[f64], g: &mut [f64]) {
///         g[0] = 2.0 * x[0];
///         g[1] = 2.0 * (x[1] - 1.0);
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
    let mut value = objective.value(&x);
    let mut alpha = cfg.step_size;
    let mut grad = vec![0.0; n];
    let mut candidate = vec![0.0; n];
    let mut stall = 0usize;

    for _ in 0..cfg.max_iterations {
        objective.gradient(&x, &mut grad);
        let gnorm_sq: f64 = grad.iter().map(|g| g * g).sum();
        if gnorm_sq == 0.0 || !gnorm_sq.is_finite() {
            converged = gnorm_sq == 0.0;
            break;
        }

        // Backtracking: shrink alpha until the step improves E.
        let mut accepted = false;
        for _ in 0..30 {
            for i in 0..n {
                candidate[i] = x[i] - alpha * grad[i];
            }
            let cand_value = objective.value(&candidate);
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

    struct Bowl;
    impl Objective for Bowl {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[0] * x[0] + (x[1] - 1.0) * (x[1] - 1.0)
        }
        fn gradient(&self, x: &[f64], g: &mut [f64]) {
            g[0] = 2.0 * x[0];
            g[1] = 2.0 * (x[1] - 1.0);
        }
    }

    /// Double-well in 1D: minima at x = ±1, f(-1) = 0 is global only at -1
    /// after tilting. f(x) = (x^2 - 1)^2 + 0.3 x.
    struct DoubleWell;
    impl Objective for DoubleWell {
        fn dim(&self) -> usize {
            1
        }
        fn value(&self, x: &[f64]) -> f64 {
            let q = x[0] * x[0] - 1.0;
            q * q + 0.3 * x[0]
        }
        fn gradient(&self, x: &[f64], g: &mut [f64]) {
            g[0] = 4.0 * x[0] * (x[0] * x[0] - 1.0) + 0.3;
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
        let before = Bowl.value(&start);
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

        fn value(&self, x: &[f64]) -> f64 {
            Self::CURVATURE
                .iter()
                .zip(Self::CENTER)
                .zip(x)
                .map(|((a, c), xi)| a * (xi - c).powi(2))
                .sum()
        }

        fn gradient(&self, x: &[f64], grad: &mut [f64]) {
            for i in 0..4 {
                grad[i] = 2.0 * Self::CURVATURE[i] * (x[i] - Self::CENTER[i]);
            }
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
}
