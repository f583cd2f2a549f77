//! Robust loss kernels for iteratively-reweighted least squares (IRLS).
//!
//! Every least-squares stage in the workspace — centralized LSS stress
//! minimization and the distributed pipeline's Gauss–Newton refinement —
//! minimizes a sum of weighted residuals `Σ w_i · ρ(r_i)`. The choice of
//! `ρ` decides how much a single corrupted measurement can move the
//! solution:
//!
//! * [`RobustLoss::SquaredL2`] — `ρ(r) = r²`: the classical choice;
//!   statistically efficient on clean Gaussian noise but a single gross
//!   outlier has unbounded influence,
//! * [`RobustLoss::Huber`] — quadratic near zero, linear beyond
//!   `delta_m`: bounded influence, still convex,
//! * [`RobustLoss::Cauchy`] — `ρ(r) = c²/2 · ln(1 + (r/c)²)`: a
//!   redescending loss whose influence *decays* for large residuals,
//!   effectively ignoring measurements that disagree grossly with the
//!   current fit.
//!
//! The solvers never evaluate `ρ` directly; they run IRLS, re-solving the
//! weighted quadratic problem with each measurement's weight multiplied
//! by the loss's *IRLS factor* `ψ(r)/r` at the previous iterate's
//! residual. The LSS robust-reweight loop and the distributed
//! refinement stage both compute `w · irls_factor(r)`, so one kernel
//! serves every robust solve.
//!
//! # Example
//!
//! ```
//! use rl_math::loss::RobustLoss;
//!
//! let cauchy = RobustLoss::Cauchy { scale_m: 1.0 };
//! // A residual at the scale parameter is down-weighted to 1/2 ...
//! assert_eq!(cauchy.irls_factor(1.0), 0.5);
//! // ... while the quadratic loss never down-weights anything.
//! assert_eq!(RobustLoss::SquaredL2.irls_factor(1e9), 1.0);
//! ```

/// A robust loss function, represented by its IRLS weighting kernel.
///
/// See the [module docs](self) for the role each variant plays. The
/// variants carry their scale parameters in meters (`_m`), matching the
/// residual units used throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum RobustLoss {
    /// The classical squared loss `ρ(r) = r²`. IRLS weights are constant:
    /// this is *not* robust, and is provided so robustness can be switched
    /// off without changing code paths (its IRLS factor is exactly `1.0`,
    /// and solvers skip reweight iterations entirely).
    SquaredL2,
    /// The Huber loss: quadratic for `|r| ≤ delta_m`, linear beyond.
    /// Bounded influence; the convex compromise between efficiency and
    /// robustness.
    Huber {
        /// The transition point between the quadratic and linear regimes,
        /// in meters. Must be positive.
        delta_m: f64,
    },
    /// The Cauchy (Lorentzian) loss `ρ(r) = c²/2 · ln(1 + (r/c)²)`:
    /// redescending, so gross outliers are asymptotically ignored.
    Cauchy {
        /// The scale parameter `c` in meters. Residuals well below `c`
        /// keep full weight; a residual of `c` is down-weighted to 1/2.
        /// Must be positive.
        scale_m: f64,
    },
}

impl Default for RobustLoss {
    /// The workspace default is the Cauchy loss at a 1 m scale — the
    /// historical `RobustReweight` kernel of the LSS solver.
    fn default() -> Self {
        RobustLoss::Cauchy { scale_m: 1.0 }
    }
}

impl RobustLoss {
    /// The multiplicative IRLS factor `ψ(r)/r ∈ (0, 1]` at residual
    /// `residual`: an existing quadratic weight is multiplied by this to
    /// get the robustified weight for the next re-solve.
    ///
    /// `SquaredL2` returns exactly `1.0`; `Cauchy` evaluates
    /// `1 / (1 + (r/c)²)` with the same floating-point expression the LSS
    /// robust-reweight loop has always used.
    pub fn irls_factor(&self, residual: f64) -> f64 {
        match *self {
            RobustLoss::SquaredL2 => 1.0,
            RobustLoss::Huber { delta_m } => {
                let a = residual.abs();
                if a <= delta_m {
                    1.0
                } else {
                    delta_m / a
                }
            }
            RobustLoss::Cauchy { scale_m } => 1.0 / (1.0 + (residual / scale_m).powi(2)),
        }
    }

    /// Whether this loss is the plain quadratic: IRLS reweighting is a
    /// no-op, and solvers use this to skip reweight-re-solve iterations
    /// entirely (keeping RNG streams identical to a non-robust solve).
    pub fn is_quadratic(&self) -> bool {
        matches!(self, RobustLoss::SquaredL2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_l2_never_downweights() {
        let loss = RobustLoss::SquaredL2;
        for r in [0.0, 0.5, 3.0, 1e6, -7.0] {
            assert_eq!(loss.irls_factor(r), 1.0);
        }
        assert!(loss.is_quadratic());
    }

    #[test]
    fn huber_is_quadratic_inside_linear_outside() {
        let loss = RobustLoss::Huber { delta_m: 1.5 };
        assert_eq!(loss.irls_factor(1.0), 1.0);
        assert_eq!(loss.irls_factor(-1.5), 1.0);
        assert!((loss.irls_factor(3.0) - 0.5).abs() < 1e-15);
        assert!((loss.irls_factor(-3.0) - 0.5).abs() < 1e-15);
        assert!(!loss.is_quadratic());
    }

    #[test]
    fn cauchy_matches_the_historical_lss_kernel_bitwise() {
        let c = 2.0;
        let loss = RobustLoss::Cauchy { scale_m: c };
        for r in [0.0f64, 0.1, 1.0, 2.0, 5.7, -13.0, 100.0] {
            // The LSS robust-reweight loop's expression.
            let lss = 1.0 / (1.0 + (r / c).powi(2));
            assert_eq!(loss.irls_factor(r).to_bits(), lss.to_bits());
        }
    }

    #[test]
    fn factors_decrease_with_residual_magnitude() {
        for loss in [
            RobustLoss::Huber { delta_m: 1.0 },
            RobustLoss::Cauchy { scale_m: 1.0 },
        ] {
            let mut prev = loss.irls_factor(0.0);
            assert_eq!(prev, 1.0);
            for r in [0.5, 1.0, 2.0, 4.0, 8.0] {
                let f = loss.irls_factor(r);
                // Non-increasing everywhere (Huber is flat inside delta),
                // strictly below 1 once past the scale parameter.
                assert!(f <= prev, "{loss:?} factor increased at r={r}");
                assert!(f > 0.0);
                if r > 1.0 {
                    assert!(f < 1.0, "{loss:?} factor not robust at r={r}");
                }
                prev = f;
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        for loss in [
            RobustLoss::SquaredL2,
            RobustLoss::Huber { delta_m: 1.5 },
            RobustLoss::Cauchy { scale_m: 2.0 },
            RobustLoss::default(),
        ] {
            let json = serde_json::to_string(&loss).unwrap();
            assert_eq!(serde_json::from_str::<RobustLoss>(&json).unwrap(), loss);
        }
        assert!(serde_json::from_str::<RobustLoss>("null").is_err());
    }

    #[test]
    fn default_is_the_historical_lss_kernel() {
        assert_eq!(RobustLoss::default(), RobustLoss::Cauchy { scale_m: 1.0 });
    }
}
