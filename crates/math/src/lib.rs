//! Numerical substrate for the `resilient-localization` workspace.
//!
//! This crate provides the from-scratch numerical building blocks that the
//! localization algorithms of Kwon et al. (ICDCS 2005) rest on:
//!
//! * [`matrix`] — a small dense row-major matrix type ([`DMatrix`]) with the
//!   operations needed by classical multidimensional scaling (double
//!   centering, products, transposes),
//! * [`eigen`] — a cyclic Jacobi eigensolver for symmetric matrices
//!   ([`SymmetricEigen`]), used to extract principal coordinates in the
//!   classical-MDS baseline,
//! * [`stats`] — robust statistics (median, mode, MAD, quantiles,
//!   histograms) used by the ranging service's statistical filtering,
//! * [`rng`] — deterministic random sampling helpers, including Gaussian
//!   sampling via the Box–Muller transform (the `rand` crate alone ships no
//!   normal distribution),
//! * [`gradient`] — a generic gradient-descent driver with perturbation
//!   restarts and trace recording, the optimizer behind least-squares
//!   scaling (LSS) and multilateration,
//! * [`loss`] — robust loss kernels ([`RobustLoss`]: squared-L2, Huber,
//!   Cauchy) shared by every IRLS stage in the solving layers,
//! * [`fingerprint`] — stable FNV-1a digests ([`Fnv1a`]) with prefix-free
//!   typed writers, shared by campaign reports and the serving layer's
//!   solution cache,
//! * [`sparse`] — the large-`n` backend: a CSR graph adjacency
//!   ([`CsrMatrix`]) and Dijkstra over it, the matrix-free
//!   [`LinearOperator`] abstraction, a conjugate-gradient solver and a
//!   restarted block Krylov top-`k` symmetric eigensolver — everything
//!   the metro-scale solver paths need without `O(n^2)` storage or
//!   `O(n^3)` factorizations.
//!
//! # Example
//!
//! ```
//! use rl_math::stats::median;
//!
//! let mut xs = [9.7, 10.3, 10.0, 21.5, 9.9];
//! // One gross outlier (21.5 m) does not move the median estimate.
//! assert_eq!(median(&mut xs), Some(10.0));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod eigen;
pub mod fingerprint;
pub mod gradient;
pub mod loss;
pub mod matrix;
pub mod rng;
pub mod sparse;
pub mod stats;

pub use eigen::SymmetricEigen;
pub use fingerprint::Fnv1a;
pub use gradient::{DescentConfig, DescentOutcome, DescentTrace, Objective};
pub use loss::RobustLoss;
pub use matrix::DMatrix;
pub use rng::GaussianSampler;
pub use sparse::{CsrMatrix, LinearOperator};

/// Error type for numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MathError {
    /// A matrix operation was attempted on incompatible dimensions.
    DimensionMismatch {
        /// Dimensions of the left-hand operand, `(rows, cols)`.
        left: (usize, usize),
        /// Dimensions of the right-hand operand, `(rows, cols)`.
        right: (usize, usize),
    },
    /// An operation requiring a square matrix received a rectangular one.
    NotSquare {
        /// Actual dimensions, `(rows, cols)`.
        dims: (usize, usize),
    },
    /// The Jacobi eigensolver did not converge within its sweep budget.
    NoConvergence {
        /// Number of sweeps performed before giving up.
        sweeps: usize,
        /// Remaining off-diagonal Frobenius mass.
        off_diagonal: f64,
    },
    /// An input argument was empty or otherwise out of its documented domain.
    InvalidArgument(&'static str),
}

impl core::fmt::Display for MathError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MathError::DimensionMismatch { left, right } => write!(
                f,
                "dimension mismatch: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            MathError::NotSquare { dims } => {
                write!(f, "matrix is not square: {}x{}", dims.0, dims.1)
            }
            MathError::NoConvergence {
                sweeps,
                off_diagonal,
            } => write!(
                f,
                "eigensolver did not converge after {sweeps} sweeps \
                 (off-diagonal mass {off_diagonal:.3e})"
            ),
            MathError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
        }
    }
}

impl std::error::Error for MathError {}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, MathError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = MathError::DimensionMismatch {
            left: (2, 3),
            right: (4, 5),
        };
        assert_eq!(
            e.to_string(),
            "dimension mismatch: left is 2x3, right is 4x5"
        );
        let e = MathError::NotSquare { dims: (3, 4) };
        assert_eq!(e.to_string(), "matrix is not square: 3x4");
        let e = MathError::InvalidArgument("empty slice");
        assert_eq!(e.to_string(), "invalid argument: empty slice");
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_good_error<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good_error::<MathError>();
    }
}
