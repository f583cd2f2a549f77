//! A small dense, row-major, `f64` matrix.
//!
//! [`DMatrix`] implements exactly the operations the workspace needs —
//! products, transposes, double centering for classical MDS, and symmetric
//! checks for the eigensolver — rather than aiming to be a general linear
//! algebra library.

use crate::{MathError, Result};
use serde::{Deserialize, Serialize};

/// Dense row-major matrix of `f64`.
///
/// # Example
///
/// ```
/// use rl_math::DMatrix;
///
/// let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let i = DMatrix::identity(2);
/// let prod = a.mul(&i).unwrap();
/// assert_eq!(prod, a);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::InvalidArgument`] if the rows are empty or have
    /// inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(MathError::InvalidArgument("no rows provided"));
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(MathError::InvalidArgument("rows are empty"));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(MathError::InvalidArgument("ragged rows"));
            }
            data.extend_from_slice(r);
        }
        Ok(DMatrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds an `n x n` matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = DMatrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Returns row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Returns column `j` as an owned vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] when the inner dimensions
    /// disagree.
    pub fn mul(&self, rhs: &DMatrix) -> Result<DMatrix> {
        if self.cols != rhs.rows {
            return Err(MathError::DimensionMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut out = DMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> DMatrix {
        let mut out = DMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Maximum absolute asymmetry `max |a_ij - a_ji|` (0 for symmetric).
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotSquare`] for rectangular matrices.
    pub fn asymmetry(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(MathError::NotSquare {
                dims: (self.rows, self.cols),
            });
        }
        let mut worst: f64 = 0.0;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        Ok(worst)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Double-centers a matrix of squared distances:
    /// `B = -1/2 * J * D2 * J` with `J = I - (1/n) * 1 1^T`.
    ///
    /// This is the classical-MDS Gram-matrix construction. `self` must be the
    /// matrix of **squared** distances.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::NotSquare`] for rectangular matrices.
    ///
    /// # Example
    ///
    /// ```
    /// use rl_math::DMatrix;
    ///
    /// // Three collinear points 0, 3, 5 -> squared distance matrix.
    /// let d2 = DMatrix::from_rows(&[
    ///     &[0.0, 9.0, 25.0],
    ///     &[9.0, 0.0, 4.0],
    ///     &[25.0, 4.0, 0.0],
    /// ]).unwrap();
    /// let b = d2.double_center().unwrap();
    /// // The Gram matrix of centered collinear coordinates has rank 1.
    /// assert!(b.asymmetry().unwrap() < 1e-12);
    /// ```
    pub fn double_center(&self) -> Result<DMatrix> {
        if !self.is_square() {
            return Err(MathError::NotSquare {
                dims: (self.rows, self.cols),
            });
        }
        let n = self.rows;
        let nf = n as f64;
        let mut row_mean = vec![0.0; n];
        let mut col_mean = vec![0.0; n];
        let mut total = 0.0;
        for i in 0..n {
            for j in 0..n {
                let v = self[(i, j)];
                row_mean[i] += v;
                col_mean[j] += v;
                total += v;
            }
        }
        for m in row_mean.iter_mut().chain(col_mean.iter_mut()) {
            *m /= nf;
        }
        total /= nf * nf;
        let mut b = DMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = -0.5 * (self[(i, j)] - row_mean[i] - col_mean[j] + total);
            }
        }
        Ok(b)
    }
}

impl core::ops::Index<(usize, usize)> for DMatrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl core::ops::IndexMut<(usize, usize)> for DMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl core::fmt::Display for DMatrix {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = DMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = DMatrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(1, 2)], 0.0);
        assert!(i.is_square());
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0][..]]).unwrap_err();
        assert!(matches!(err, MathError::InvalidArgument(_)));
        assert!(DMatrix::from_rows(&[]).is_err());
    }

    #[test]
    fn product_against_hand_computed() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.mul(&b).unwrap();
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn product_dimension_mismatch() {
        let a = DMatrix::zeros(2, 3);
        let b = DMatrix::zeros(2, 3);
        assert!(matches!(
            a.mul(&b),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn row_and_col_access() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "row index")]
    fn row_out_of_bounds_panics() {
        DMatrix::zeros(1, 1).row(1);
    }

    #[test]
    fn double_center_recovers_gram_matrix() {
        // Points on a line: x = 0, 3, 5. Centered coordinates: -8/3, 1/3, 7/3.
        let d2 =
            DMatrix::from_rows(&[&[0.0, 9.0, 25.0], &[9.0, 0.0, 4.0], &[25.0, 4.0, 0.0]]).unwrap();
        let b = d2.double_center().unwrap();
        let xs = [-8.0 / 3.0, 1.0 / 3.0, 7.0 / 3.0];
        for i in 0..3 {
            for j in 0..3 {
                let expected = xs[i] * xs[j];
                assert!(
                    (b[(i, j)] - expected).abs() < 1e-12,
                    "B[{i}{j}] = {} expected {expected}",
                    b[(i, j)]
                );
            }
        }
    }

    #[test]
    fn double_center_rejects_rectangular() {
        assert!(matches!(
            DMatrix::zeros(2, 3).double_center(),
            Err(MathError::NotSquare { .. })
        ));
    }

    #[test]
    fn asymmetry_measures_worst_pair() {
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[3.0, 0.0]]).unwrap();
        assert_eq!(a.asymmetry().unwrap(), 2.0);
        let s = DMatrix::identity(4);
        assert_eq!(s.asymmetry().unwrap(), 0.0);
    }

    #[test]
    fn frobenius_norm_of_identity() {
        assert!((DMatrix::identity(4).frobenius_norm() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn display_renders_all_entries() {
        let a = DMatrix::identity(2);
        let s = a.to_string();
        assert!(s.contains("1.0000"));
        assert!(s.lines().count() == 2);
    }
}
