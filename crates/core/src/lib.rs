//! Resilient localization algorithms — the primary contribution of
//! Kwon, Mechitov, Sundresh, Kim and Agha, *"Resilient Localization for
//! Sensor Networks in Outdoor Environments"* (ICDCS 2005).
//!
//! Given the sparse, noisy distance measurements an acoustic ranging
//! service produces in the field, this crate computes node positions with
//! a family of algorithms of increasing resilience:
//!
//! * [`multilateration`] — anchor-based least-squares multilateration with
//!   the paper's *intersection consistency check* (Section 4.1) and a
//!   progressive variant; accurate when anchors abound, brittle when
//!   measurements are sparse,
//! * [`lss`] — **centralized least-squares scaling** with a
//!   minimum-node-spacing **soft constraint** (Section 4.2): anchor-free,
//!   resilient against missing measurements and large-magnitude errors,
//! * [`distributed`] — the scalable **distributed LSS** variant
//!   (Section 4.3): per-node local maps, pairwise coordinate-system
//!   transforms, and a flooding alignment phase, running on the `rl-net`
//!   discrete-event simulator,
//! * [`mds`] — classical multidimensional scaling and the MDS-MAP-style
//!   shortest-path completion, as baselines and as an LSS initializer,
//! * [`baselines`] — DV-hop (APS) and centroid localization from the
//!   paper's Related Work, for head-to-head comparisons,
//! * [`eval`] — evaluation: best-fit alignment (translate/rotate/flip)
//!   against ground truth and the paper's average-localization-error
//!   metric,
//! * [`tracking`] — online tracking: a [`Tracker`] consumes per-tick
//!   measurement deltas and keeps the solution warm with bounded
//!   Gauss–Newton refinement, falling back to a cold batch solve when
//!   churn invalidates the seed,
//! * [`problem`] — the unified solving API: a [`Problem`] (measurements +
//!   anchors + optional ground truth), a [`Solution`] (positions + solve
//!   statistics), and the object-safe [`Localizer`] trait implemented by
//!   every algorithm family above, so heterogeneous solver sets can be
//!   swept over shared problems (`Vec<Box<dyn Localizer>>`).
//!
//! # Example: anchor-free LSS on a noisy grid
//!
//! ```
//! use rl_core::eval::evaluate_against_truth;
//! use rl_core::lss::{LssConfig, LssSolver};
//! use rl_geom::Point2;
//! use rl_ranging::measurement::MeasurementSet;
//!
//! // A 3x3 grid with exact distances below a 25 m cutoff.
//! let truth: Vec<Point2> = (0..9)
//!     .map(|i| Point2::new((i % 3) as f64 * 9.0, (i / 3) as f64 * 9.0))
//!     .collect();
//! let measurements = MeasurementSet::oracle(&truth, 25.0);
//!
//! let mut rng = rl_math::rng::seeded(7);
//! let config = LssConfig::default().with_min_spacing(9.0, 10.0);
//! let solution = LssSolver::new(config).solve(&measurements, &mut rng)?;
//!
//! let eval = evaluate_against_truth(&solution.positions(), &truth)?;
//! assert!(eval.mean_error < 0.5, "mean error {}", eval.mean_error);
//! # Ok::<(), rl_core::LocalizationError>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod distributed;
pub mod eval;
pub mod lss;
pub mod mds;
pub mod multilateration;
pub mod problem;
pub mod tracking;
pub mod types;

pub use eval::{evaluate_against_truth, Evaluation};
pub use lss::{LssConfig, LssSolution, LssSolver};
pub use multilateration::{MultilaterationConfig, MultilaterationSolver};
pub use problem::{Frame, Localizer, Problem, Solution, SolveStats};
pub use rl_math::RobustLoss;
pub use tracking::{StreamingTracker, TickObservation, Tracker, TrackerConfig};
pub use types::{Anchor, PositionMap};

/// Error type for localization algorithms.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LocalizationError {
    /// The measurement set is empty or disconnected beyond use.
    InsufficientMeasurements(&'static str),
    /// Fewer anchors than required were supplied.
    TooFewAnchors {
        /// Anchors required.
        needed: usize,
        /// Anchors available.
        got: usize,
    },
    /// A configuration parameter was out of its documented domain.
    InvalidConfig(&'static str),
    /// Evaluation failed (e.g. nothing was localized).
    Evaluation(&'static str),
    /// A geometric subroutine failed.
    Geometry(rl_geom::GeomError),
    /// A numerical subroutine failed.
    Numerical(rl_math::MathError),
}

impl core::fmt::Display for LocalizationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            LocalizationError::InsufficientMeasurements(what) => {
                write!(f, "insufficient measurements: {what}")
            }
            LocalizationError::TooFewAnchors { needed, got } => {
                write!(f, "needed {needed} anchors, got {got}")
            }
            LocalizationError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            LocalizationError::Evaluation(what) => write!(f, "evaluation failed: {what}"),
            LocalizationError::Geometry(e) => write!(f, "geometry error: {e}"),
            LocalizationError::Numerical(e) => write!(f, "numerical error: {e}"),
        }
    }
}

impl std::error::Error for LocalizationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LocalizationError::Geometry(e) => Some(e),
            LocalizationError::Numerical(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rl_geom::GeomError> for LocalizationError {
    fn from(e: rl_geom::GeomError) -> Self {
        LocalizationError::Geometry(e)
    }
}

impl From<rl_math::MathError> for LocalizationError {
    fn from(e: rl_math::MathError) -> Self {
        LocalizationError::Numerical(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, LocalizationError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = LocalizationError::TooFewAnchors { needed: 3, got: 1 };
        assert_eq!(e.to_string(), "needed 3 anchors, got 1");
        let wrapped: LocalizationError = rl_geom::GeomError::Degenerate("flat").into();
        assert!(wrapped.to_string().contains("degenerate"));
        use std::error::Error;
        assert!(wrapped.source().is_some());
    }

    #[test]
    fn error_is_well_behaved() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<LocalizationError>();
    }
}
