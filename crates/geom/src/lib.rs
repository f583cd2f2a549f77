//! Planar geometry for the `resilient-localization` workspace.
//!
//! Localization in the paper is strictly two-dimensional, so this crate
//! provides exactly the 2-D toolkit the algorithms need:
//!
//! * [`point`] — [`Point2`] / [`Vec2`] with the usual vector arithmetic,
//! * [`transform`] — rigid transforms (rotation + optional reflection +
//!   translation) in the paper's row-vector homogeneous-coordinate
//!   convention (Section 4.3.1),
//! * [`circle`] — circle–circle intersection, the primitive behind the
//!   multilateration *intersection consistency check* (Section 4.1.2),
//! * [`grid`] — the uniform-grid walk that finds every close point pair
//!   without an all-pairs scan,
//! * [`procrustes`] — closed-form best-fit rigid alignment between point
//!   sets (the paper's center-of-mass/covariance transform method, also used
//!   to align computed coordinates with ground truth for evaluation).
//!
//! # Example
//!
//! ```
//! use rl_geom::{Point2, Vec2};
//!
//! let a = Point2::new(0.0, 0.0);
//! let b = Point2::new(3.0, 4.0);
//! assert_eq!(a.distance(b), 5.0);
//! assert_eq!(b - a, Vec2::new(3.0, 4.0));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod circle;
pub mod grid;
pub mod point;
pub mod procrustes;
pub mod transform;

pub use circle::{pairwise_intersections, Circle, CircleIntersection};
pub use point::{centroid, Point2, Vec2};
pub use procrustes::{fit_rigid_transform, fit_rigid_transform_weighted, AlignmentFit};
pub use transform::RigidTransform;

/// Error type for geometric routines.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GeomError {
    /// An operation needed more points than were supplied.
    TooFewPoints {
        /// How many points are required.
        needed: usize,
        /// How many were provided.
        got: usize,
    },
    /// Two point sets that must correspond element-wise differ in length.
    LengthMismatch {
        /// Length of the first set.
        left: usize,
        /// Length of the second set.
        right: usize,
    },
    /// The input configuration is degenerate (e.g. all points coincident).
    Degenerate(&'static str),
}

impl core::fmt::Display for GeomError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            GeomError::TooFewPoints { needed, got } => {
                write!(f, "needed at least {needed} points, got {got}")
            }
            GeomError::LengthMismatch { left, right } => {
                write!(f, "point sets differ in length: {left} vs {right}")
            }
            GeomError::Degenerate(what) => write!(f, "degenerate configuration: {what}"),
        }
    }
}

impl std::error::Error for GeomError {}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, GeomError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(
            GeomError::TooFewPoints { needed: 3, got: 1 }.to_string(),
            "needed at least 3 points, got 1"
        );
        assert_eq!(
            GeomError::LengthMismatch { left: 2, right: 5 }.to_string(),
            "point sets differ in length: 2 vs 5"
        );
        assert_eq!(
            GeomError::Degenerate("coincident points").to_string(),
            "degenerate configuration: coincident points"
        );
    }

    #[test]
    fn error_is_well_behaved() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<GeomError>();
    }
}
