//! Conjugate gradient for symmetric positive-definite systems, with
//! optional preconditioning and warm starts.
//!
//! The large-`n` solver paths need `A x = b` solves where `A` is only
//! available as a matrix-free [`LinearOperator`] — assembling a dense
//! factorization would reintroduce the `O(n^2)` storage the sparse
//! backend exists to avoid. Plain CG needs one operator application and a
//! handful of vector operations per iteration, and converges in at most
//! `n` steps in exact arithmetic (far fewer on the well-conditioned
//! systems the solvers produce).
//!
//! Three orthogonal extensions sit on top of the plain method, all
//! **opt-in** so the historical default path stays bit-for-bit stable
//! (campaign fingerprints are pinned on it):
//!
//! * **Preconditioning** ([`Preconditioner`]) — passed explicitly to
//!   [`conjugate_gradient_with`], it solves `M^{-1} A x = M^{-1} b`
//!   implicitly, trading one `z = M^{-1} r` application per iteration
//!   for a (often drastically) smaller iteration count.
//!   [`IncompleteCholesky`] (IC(0)) factors a materialized
//!   [`CsrMatrix`].
//! * **Warm starts** — [`conjugate_gradient_with`] accepts an `x0`;
//!   outer Gauss–Newton loops seed each linearization from the previous
//!   step's delta, which shrinks the initial residual by orders of
//!   magnitude once the outer iteration is in its contraction regime.
//! * **Scratch reuse** ([`CgWorkspace`]) — the per-solve `r`/`p`/`Ap`/`z`
//!   vectors live in a caller-owned workspace, so a refinement loop
//!   running hundreds of CG solves allocates them once.

use super::{CsrMatrix, LinearOperator};
use crate::{MathError, Result};

/// Configuration for [`conjugate_gradient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgConfig {
    /// Iteration cap. `0` means "dimension of the system" (the exact-
    /// arithmetic worst case).
    pub max_iterations: usize,
    /// Convergence threshold on the *relative* residual
    /// `||b - A x|| / ||b||`.
    pub tolerance: f64,
}

impl Default for CgConfig {
    fn default() -> Self {
        CgConfig {
            max_iterations: 0,
            tolerance: 1e-10,
        }
    }
}

impl CgConfig {
    /// Replaces the iteration cap (builder style); `0` means "dimension
    /// of the system".
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Replaces the relative-residual convergence threshold (builder
    /// style). Outer loops wrapping CG (e.g. Gauss–Newton refinement)
    /// typically loosen this: each linearization is only an approximation,
    /// so solving it past ~1e-6 buys nothing.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }
}

/// The result of a [`conjugate_gradient`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOutcome {
    /// The solution estimate.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final relative residual `||b - A x|| / ||b||`.
    pub relative_residual: f64,
    /// Whether the tolerance was reached within the iteration budget.
    pub converged: bool,
}

/// A symmetric positive-definite preconditioner `M ~ A`, applied as
/// `z = M^{-1} r` once per CG iteration.
///
/// Implementations must be SPD for preconditioned CG to retain its
/// convergence guarantees; an indefinite `M` surfaces as a breakdown
/// error mid-solve.
pub trait Preconditioner {
    /// Dimension `n` of the (square) preconditioner.
    fn dim(&self) -> usize;

    /// Writes `M^{-1} r` into `z` (`r.len() == z.len() == self.dim()`).
    fn apply_inv(&self, r: &[f64], z: &mut [f64]);
}

/// Incomplete Cholesky factorization with zero fill-in — IC(0):
/// `M = L L^T` where `L` has exactly the lower-triangle sparsity pattern
/// of `A`.
///
/// Effective on mesh-like systems (graph Laplacians, normal equations
/// of geometric networks) at the cost of needing the matrix
/// materialized as a [`CsrMatrix`]. Application is two sparse
/// triangular solves.
///
/// IC(0) can break down on matrices that are SPD but not H-matrices; the
/// factorization retries with increasing diagonal shifts
/// (`A + alpha diag(A)`, the Manteuffel strategy) before giving up.
#[derive(Debug, Clone, PartialEq)]
pub struct IncompleteCholesky {
    n: usize,
    /// `L` in CSR (columns ascending, so the diagonal is each row's last
    /// stored entry).
    l_row_ptr: Vec<usize>,
    l_col: Vec<usize>,
    l_val: Vec<f64>,
    /// `L^T` in CSR (columns ascending, so the diagonal is each row's
    /// first stored entry) — the backward solve walks this.
    u_row_ptr: Vec<usize>,
    u_col: Vec<usize>,
    u_val: Vec<f64>,
}

impl IncompleteCholesky {
    /// Factors the lower triangle of a square, symmetric, SPD-ish CSR
    /// matrix. Only stored lower-triangle entries participate (symmetry
    /// is assumed, not checked — same contract as
    /// [`conjugate_gradient`]).
    ///
    /// # Errors
    ///
    /// * [`MathError::NotSquare`] for rectangular matrices.
    /// * [`MathError::InvalidArgument`] for an empty matrix, a
    ///   non-positive diagonal entry, or a persistent pivot breakdown
    ///   after the shift retries.
    pub fn factor(a: &CsrMatrix) -> Result<Self> {
        if !a.is_square() {
            return Err(MathError::NotSquare {
                dims: (a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(MathError::InvalidArgument("empty matrix"));
        }
        // Manteuffel shifts: retry `A + alpha diag(A)` with growing alpha
        // until the pivots stay positive.
        for &alpha in &[0.0, 1e-3, 1e-2, 1e-1, 1.0, 10.0] {
            if let Some(ic) = Self::try_factor(a, alpha)? {
                return Ok(ic);
            }
        }
        Err(MathError::InvalidArgument(
            "IC(0) breakdown persists under diagonal shifts",
        ))
    }

    /// One factorization attempt at shift `alpha`; `Ok(None)` signals a
    /// pivot breakdown (retry with a larger shift), `Err` a structural
    /// problem no shift can fix.
    fn try_factor(a: &CsrMatrix, alpha: f64) -> Result<Option<Self>> {
        let n = a.rows();
        let mut l_row_ptr = Vec::with_capacity(n + 1);
        let mut l_col: Vec<usize> = Vec::new();
        let mut l_val: Vec<f64> = Vec::new();
        l_row_ptr.push(0);
        for i in 0..n {
            let mut diag = None;
            for (j, v) in a.row(i) {
                if j > i {
                    break;
                }
                if j == i {
                    diag = Some(v * (1.0 + alpha));
                    continue;
                }
                // l_ij = (a_ij - sum_p l_ip l_jp) / l_jj over the shared
                // pattern p < j of rows i (partial) and j (complete).
                let mut s = v;
                let row_i = l_row_ptr[i]..l_col.len();
                let row_j = l_row_ptr[j]..l_row_ptr[j + 1];
                let mut pi = row_i.start;
                let mut pj = row_j.start;
                while pi < row_i.end && pj < row_j.end {
                    let (ci, cj) = (l_col[pi], l_col[pj]);
                    if ci >= j || cj >= j {
                        break;
                    }
                    match ci.cmp(&cj) {
                        core::cmp::Ordering::Less => pi += 1,
                        core::cmp::Ordering::Greater => pj += 1,
                        core::cmp::Ordering::Equal => {
                            s -= l_val[pi] * l_val[pj];
                            pi += 1;
                            pj += 1;
                        }
                    }
                }
                // l_jj is row j's last stored entry (columns ascend).
                let l_jj = l_val[l_row_ptr[j + 1] - 1];
                l_col.push(j);
                l_val.push(s / l_jj);
            }
            let Some(mut d) = diag else {
                return Err(MathError::InvalidArgument(
                    "IC(0) needs every diagonal entry stored",
                ));
            };
            for v in &l_val[l_row_ptr[i]..] {
                d -= v * v;
            }
            if !(d > 0.0) || !d.is_finite() {
                return Ok(None); // pivot breakdown: caller retries shifted
            }
            l_col.push(i);
            l_val.push(d.sqrt());
            l_row_ptr.push(l_col.len());
        }

        // Transpose L into U = L^T (counting sort by column).
        let nnz = l_col.len();
        let mut counts = vec![0usize; n + 1];
        for &c in &l_col {
            counts[c + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let u_row_ptr = counts.clone();
        let mut u_col = vec![0usize; nnz];
        let mut u_val = vec![0.0; nnz];
        let mut cursor = counts;
        for i in 0..n {
            for k in l_row_ptr[i]..l_row_ptr[i + 1] {
                let c = l_col[k];
                u_col[cursor[c]] = i;
                u_val[cursor[c]] = l_val[k];
                cursor[c] += 1;
            }
        }
        Ok(Some(IncompleteCholesky {
            n,
            l_row_ptr,
            l_col,
            l_val,
            u_row_ptr,
            u_col,
            u_val,
        }))
    }

    /// Number of stored entries in `L`.
    pub fn nnz(&self) -> usize {
        self.l_val.len()
    }
}

impl Preconditioner for IncompleteCholesky {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply_inv(&self, r: &[f64], z: &mut [f64]) {
        debug_assert_eq!(r.len(), self.n);
        debug_assert_eq!(z.len(), self.n);
        // Forward solve L y = r (y lives in z; the diagonal is each L
        // row's last entry).
        for i in 0..self.n {
            let row = self.l_row_ptr[i]..self.l_row_ptr[i + 1];
            let mut s = r[i];
            for k in row.start..row.end - 1 {
                s -= self.l_val[k] * z[self.l_col[k]];
            }
            z[i] = s / self.l_val[row.end - 1];
        }
        // Backward solve L^T z = y in place: row i of U only references
        // z[j] for j > i, which are already final.
        for i in (0..self.n).rev() {
            let row = self.u_row_ptr[i]..self.u_row_ptr[i + 1];
            let mut s = z[i];
            for k in row.start + 1..row.end {
                s -= self.u_val[k] * z[self.u_col[k]];
            }
            z[i] = s / self.u_val[row.start];
        }
    }
}

/// Reusable scratch for [`conjugate_gradient_with`]: the residual,
/// search-direction, operator-image, and preconditioned-residual vectors.
///
/// A workspace is not tied to a system size — it grows to fit and is
/// reusable across solves of different dimensions.
#[derive(Debug, Clone, Default)]
pub struct CgWorkspace {
    r: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    z: Vec<f64>,
}

impl CgWorkspace {
    /// An empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn resize(&mut self, n: usize) {
        self.r.resize(n, 0.0);
        self.p.resize(n, 0.0);
        self.ap.resize(n, 0.0);
        self.z.resize(n, 0.0);
    }
}

/// Solves `A x = b` for a symmetric positive-definite operator `A` by
/// the conjugate-gradient method, starting from `x = 0`.
///
/// The operator's symmetry and positive-definiteness are *assumed*, not
/// checked (checking would require materializing the operator); an
/// indefinite operator typically shows up as a failure to converge.
/// The run is fully deterministic — no randomness, fixed starting point.
///
/// The solve is unpreconditioned. For a preconditioner, a warm start or
/// scratch reuse, call [`conjugate_gradient_with`] directly.
///
/// # Errors
///
/// * [`MathError::DimensionMismatch`] when `b.len() != a.dim()`.
/// * [`MathError::InvalidArgument`] for an empty system, a non-finite
///   right-hand side, or a breakdown (`p^T A p <= 0`, the indefinite-
///   operator signature).
/// * [`MathError::NoConvergence`] when the iteration budget runs out
///   before the tolerance is met.
pub fn conjugate_gradient<O: LinearOperator + ?Sized>(
    a: &O,
    b: &[f64],
    cfg: &CgConfig,
) -> Result<CgOutcome> {
    conjugate_gradient_with(a, b, None, None, cfg, &mut CgWorkspace::new())
}

/// The full-control conjugate-gradient entry point: optional warm start
/// `x0`, optional explicit preconditioner `m`, and caller-owned scratch.
///
/// With `x0 = None` and `m = None` this is bit-for-bit
/// [`conjugate_gradient`]: the unpreconditioned, zero-started path.
///
/// The reported `iterations` count has the same meaning in all modes:
/// operator applications spent in the main loop (a converged warm start
/// can cost 0).
///
/// Warm starts are *never worse* than cold starts by more than the one
/// operator apply spent evaluating the seed: convergence is measured
/// relative to `||b||`, so a stale `x0` whose residual is not smaller
/// than the zero start's is discarded and the solve proceeds from
/// `x = 0`.
///
/// # Errors
///
/// Same as [`conjugate_gradient`], plus
/// [`MathError::DimensionMismatch`] when `x0` or `m` disagree with the
/// operator dimension and [`MathError::InvalidArgument`] when the
/// preconditioner turns out not to be positive definite.
pub fn conjugate_gradient_with<O: LinearOperator + ?Sized>(
    a: &O,
    b: &[f64],
    x0: Option<&[f64]>,
    m: Option<&dyn Preconditioner>,
    cfg: &CgConfig,
    ws: &mut CgWorkspace,
) -> Result<CgOutcome> {
    let n = a.dim();
    if b.len() != n {
        return Err(MathError::DimensionMismatch {
            left: (n, n),
            right: (b.len(), 1),
        });
    }
    if let Some(x0) = x0 {
        if x0.len() != n {
            return Err(MathError::DimensionMismatch {
                left: (n, n),
                right: (x0.len(), 1),
            });
        }
        if x0.iter().any(|v| !v.is_finite()) {
            return Err(MathError::InvalidArgument("warm start is not finite"));
        }
    }
    if let Some(m) = &m {
        if m.dim() != n {
            return Err(MathError::DimensionMismatch {
                left: (n, n),
                right: (m.dim(), m.dim()),
            });
        }
    }
    if n == 0 {
        return Err(MathError::InvalidArgument("empty system"));
    }
    if b.iter().any(|v| !v.is_finite()) {
        return Err(MathError::InvalidArgument("right-hand side is not finite"));
    }
    let b_norm = norm(b);
    if b_norm == 0.0 {
        return Ok(CgOutcome {
            x: vec![0.0; n],
            iterations: 0,
            relative_residual: 0.0,
            converged: true,
        });
    }
    let max_iterations = if cfg.max_iterations == 0 {
        n
    } else {
        cfg.max_iterations
    };

    ws.resize(n);
    let mut x;
    match x0 {
        Some(x0) => {
            x = x0.to_vec();
            a.apply(&x, &mut ws.ap);
            for ((ri, bi), ai) in ws.r.iter_mut().zip(b).zip(&ws.ap) {
                *ri = bi - ai;
            }
            // Never-worse contract: convergence is measured relative to
            // ||b||, so a stale seed whose residual is not smaller than
            // the zero start's (r = b) would *cost* iterations. Fall
            // back to the cold start in that case; the warm start then
            // costs exactly one extra operator apply.
            let warm = dot(&ws.r, &ws.r);
            if !(warm < b_norm * b_norm) {
                x.iter_mut().for_each(|v| *v = 0.0);
                ws.r.copy_from_slice(b);
            }
        }
        None => {
            x = vec![0.0; n];
            ws.r.copy_from_slice(b); // r = b - A*0
        }
    }
    // rs tracks ||r||^2 (the convergence metric in every mode); rho is
    // the CG inner product r^T z — identical to rs when unpreconditioned.
    let mut rs = dot(&ws.r, &ws.r);
    let mut rho = match &m {
        Some(m) => {
            m.apply_inv(&ws.r, &mut ws.z);
            ws.p.copy_from_slice(&ws.z);
            dot(&ws.r, &ws.z)
        }
        None => {
            ws.p.copy_from_slice(&ws.r);
            rs
        }
    };

    for iteration in 0..max_iterations {
        let rel = rs.sqrt() / b_norm;
        if rel <= cfg.tolerance {
            return Ok(CgOutcome {
                x,
                iterations: iteration,
                relative_residual: rel,
                converged: true,
            });
        }
        if m.is_some() && (!(rho > 0.0) || !rho.is_finite()) {
            return Err(MathError::InvalidArgument(
                "CG breakdown: preconditioner is not positive definite",
            ));
        }
        a.apply(&ws.p, &mut ws.ap);
        let p_ap = dot(&ws.p, &ws.ap);
        if !(p_ap > 0.0) || !p_ap.is_finite() {
            return Err(MathError::InvalidArgument(
                "CG breakdown: operator is not positive definite",
            ));
        }
        let alpha = rho / p_ap;
        for (xi, pi) in x.iter_mut().zip(&ws.p) {
            *xi += alpha * pi;
        }
        for (ri, ai) in ws.r.iter_mut().zip(&ws.ap) {
            *ri -= alpha * ai;
        }
        rs = dot(&ws.r, &ws.r);
        let rho_new = match &m {
            Some(m) => {
                m.apply_inv(&ws.r, &mut ws.z);
                dot(&ws.r, &ws.z)
            }
            None => rs,
        };
        let beta = rho_new / rho;
        match &m {
            Some(_) => {
                for i in 0..n {
                    ws.p[i] = ws.z[i] + beta * ws.p[i];
                }
            }
            None => {
                for i in 0..n {
                    ws.p[i] = ws.r[i] + beta * ws.p[i];
                }
            }
        }
        rho = rho_new;
    }

    let rel = rs.sqrt() / b_norm;
    if rel <= cfg.tolerance {
        return Ok(CgOutcome {
            x,
            iterations: max_iterations,
            relative_residual: rel,
            converged: true,
        });
    }
    Err(MathError::NoConvergence {
        sweeps: max_iterations,
        off_diagonal: rel,
    })
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrMatrix;
    use crate::{DMatrix, SymmetricEigen};
    use proptest::prelude::*;

    /// Dense SPD solve via eigendecomposition: `x = V diag(1/l) V^T b`.
    /// The parity oracle for CG.
    fn dense_spd_solve(a: &DMatrix, b: &[f64]) -> Vec<f64> {
        let eig = SymmetricEigen::new(a).unwrap();
        let n = b.len();
        let v = eig.eigenvectors();
        let mut coeffs = vec![0.0; n];
        for (k, coeff) in coeffs.iter_mut().enumerate() {
            let vk = eig.eigenvector(k);
            let proj: f64 = vk.iter().zip(b).map(|(x, y)| x * y).sum();
            *coeff = proj / eig.eigenvalues()[k];
        }
        (0..n)
            .map(|i| (0..n).map(|k| v[(i, k)] * coeffs[k]).sum())
            .collect()
    }

    /// A well-conditioned SPD matrix `Q diag(lambda) Q^T` built from the
    /// orthonormal eigenvectors of an arbitrary symmetric seed matrix.
    fn spd_from_seed(entries: &[f64], lambdas: &[f64]) -> DMatrix {
        let n = lambdas.len();
        let mut seed = DMatrix::zeros(n, n);
        let mut it = entries.iter().cycle();
        for i in 0..n {
            for j in i..n {
                let v = *it.next().unwrap();
                seed[(i, j)] = v;
                seed[(j, i)] = v;
            }
        }
        let q = SymmetricEigen::new(&seed).unwrap();
        let v = q.eigenvectors();
        let mut lambda = DMatrix::zeros(n, n);
        for (i, &l) in lambdas.iter().enumerate() {
            lambda[(i, i)] = l;
        }
        v.mul(&lambda).unwrap().mul(&v.transpose()).unwrap()
    }

    /// The ill-conditioned workhorse: a 1-D Laplacian chain with a huge
    /// diagonal spread, where plain CG grinds and IC(0) shines.
    fn ill_conditioned(n: usize) -> (CsrMatrix, Vec<f64>) {
        let mut edges: Vec<(usize, usize, f64)> = (0..n)
            .map(|i| (i, i, 2.0 + 1000.0 * (i % 7) as f64))
            .collect();
        edges.extend((0..n - 1).map(|i| (i, i + 1, -1.0)));
        let a = CsrMatrix::symmetric_from_edges(n, &edges).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        (a, b)
    }

    #[test]
    fn solves_laplacian_system() {
        let a = CsrMatrix::symmetric_from_edges(
            3,
            &[
                (0, 0, 2.0),
                (1, 1, 2.0),
                (2, 2, 2.0),
                (0, 1, -1.0),
                (1, 2, -1.0),
            ],
        )
        .unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let out = conjugate_gradient(&a, &b, &CgConfig::default()).unwrap();
        assert!(out.converged);
        for (xi, ti) in out.x.iter().zip(x_true) {
            assert!((xi - ti).abs() < 1e-8, "{xi} vs {ti}");
        }
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        let out = conjugate_gradient(&a, &[0.0, 0.0], &CgConfig::default()).unwrap();
        assert_eq!(out.x, vec![0.0, 0.0]);
        assert_eq!(out.iterations, 0);
        assert!(out.converged);
    }

    #[test]
    fn error_cases() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 1.0)]).unwrap();
        assert!(matches!(
            conjugate_gradient(&a, &[1.0], &CgConfig::default()),
            Err(MathError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            conjugate_gradient(&a, &[f64::NAN, 0.0], &CgConfig::default()),
            Err(MathError::InvalidArgument(_))
        ));
        let empty = CsrMatrix::from_triplets(0, 0, &[]).unwrap();
        assert!(conjugate_gradient(&empty, &[], &CgConfig::default()).is_err());
        // Warm starts and explicit preconditioners are validated too.
        assert!(matches!(
            conjugate_gradient_with(
                &a,
                &[1.0, 1.0],
                Some(&[1.0]),
                None,
                &CgConfig::default(),
                &mut CgWorkspace::new()
            ),
            Err(MathError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            conjugate_gradient_with(
                &a,
                &[1.0, 1.0],
                Some(&[f64::INFINITY, 0.0]),
                None,
                &CgConfig::default(),
                &mut CgWorkspace::new()
            ),
            Err(MathError::InvalidArgument(_))
        ));
        let one = CsrMatrix::from_triplets(1, 1, &[(0, 0, 1.0)]).unwrap();
        let wrong_m = IncompleteCholesky::factor(&one).unwrap();
        assert!(matches!(
            conjugate_gradient_with(
                &a,
                &[1.0, 1.0],
                None,
                Some(&wrong_m),
                &CgConfig::default(),
                &mut CgWorkspace::new()
            ),
            Err(MathError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn indefinite_operator_breaks_down() {
        // diag(1, -1) is symmetric but indefinite.
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, -1.0)]).unwrap();
        let err = conjugate_gradient(&a, &[0.0, 1.0], &CgConfig::default()).unwrap_err();
        assert!(matches!(err, MathError::InvalidArgument(_)));
    }

    #[test]
    fn iteration_budget_is_enforced() {
        // A 1-D Laplacian chain needs ~n iterations; 1 is not enough.
        let n = 20;
        let mut edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 2.0)).collect();
        edges.extend((0..n - 1).map(|i| (i, i + 1, -1.0)));
        let a = CsrMatrix::symmetric_from_edges(n, &edges).unwrap();
        let b = vec![1.0; n];
        let cfg = CgConfig {
            max_iterations: 1,
            tolerance: 1e-12,
        };
        assert!(matches!(
            conjugate_gradient(&a, &b, &cfg),
            Err(MathError::NoConvergence { .. })
        ));
    }

    /// The bitwise-stability pin: the default `CgConfig` path must
    /// reproduce the pre-refactor solver exactly — same iteration count,
    /// same residual, same solution bits. The golden values were captured
    /// from the pre-preconditioner implementation on this fixture.
    #[test]
    fn default_path_is_bitwise_stable() {
        let n = 24;
        let mut edges: Vec<(usize, usize, f64)> =
            (0..n).map(|i| (i, i, 4.0 + (i % 3) as f64)).collect();
        edges.extend((0..n - 1).map(|i| (i, i + 1, -1.0)));
        edges.extend((0..n - 2).map(|i| (i, i + 2, -0.5)));
        let a = CsrMatrix::symmetric_from_edges(n, &edges).unwrap();
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let out = conjugate_gradient(&a, &b, &CgConfig::default()).unwrap();
        assert_eq!(out.iterations, 18, "iteration count drifted");
        assert_eq!(
            out.relative_residual.to_bits(),
            8.635970093400802e-11f64.to_bits(),
            "residual drifted"
        );
        let mut h = crate::Fnv1a::new();
        for xi in &out.x {
            h.write_f64(*xi);
        }
        assert_eq!(h.finish(), 0x1fed314636c515f1, "solution bits drifted");
        assert_eq!(out.x[0].to_bits(), 0xbff31e57e1e919d6);
        assert_eq!(out.x[23].to_bits(), 0x3fbbcc05f7a2a7e0);
        // The explicit-plumbing entry with everything disabled is the
        // same code path.
        let again = conjugate_gradient_with(
            &a,
            &b,
            None,
            None,
            &CgConfig::default(),
            &mut CgWorkspace::new(),
        )
        .unwrap();
        assert_eq!(again, out);
    }

    #[test]
    fn ic0_factors_reproduce_full_cholesky_on_dense_pattern() {
        // With a fully dense lower triangle IC(0) *is* Cholesky, so
        // M^{-1} r must solve exactly: PCG converges in one iteration.
        let a = CsrMatrix::from_dense(&spd_from_seed(
            &[1.0, -0.5, 2.0, 0.3, -1.0, 0.7, 1.5, -0.2, 0.9, 2.2],
            &[3.0, 5.0, 8.0, 11.0],
        ));
        let ic = IncompleteCholesky::factor(&a).unwrap();
        let b = [1.0, -2.0, 3.0, -4.0];
        let cfg = CgConfig::default();
        let out = conjugate_gradient_with(&a, &b, None, Some(&ic), &cfg, &mut CgWorkspace::new())
            .unwrap();
        assert!(out.converged);
        assert!(
            out.iterations <= 2,
            "exact factorization should solve in ~1 iteration, took {}",
            out.iterations
        );
    }

    #[test]
    fn ic0_cuts_iterations_on_ill_conditioned_fixture() {
        let (a, b) = ill_conditioned(120);
        let plain = conjugate_gradient(&a, &b, &CgConfig::default()).unwrap();
        let ic = IncompleteCholesky::factor(&a).unwrap();
        let ic0 = conjugate_gradient_with(
            &a,
            &b,
            None,
            Some(&ic),
            &CgConfig::default(),
            &mut CgWorkspace::new(),
        )
        .unwrap();
        assert!(plain.converged && ic0.converged);
        assert!(
            ic0.iterations < plain.iterations,
            "IC(0) ({}) must beat plain ({}) on the skewed-diagonal chain",
            ic0.iterations,
            plain.iterations
        );
    }

    #[test]
    fn warm_start_from_exact_solution_costs_zero_iterations() {
        let (a, b) = ill_conditioned(60);
        let exact = conjugate_gradient(&a, &b, &CgConfig::default()).unwrap();
        let warm = conjugate_gradient_with(
            &a,
            &b,
            Some(&exact.x),
            None,
            &CgConfig::default().with_tolerance(1e-8),
            &mut CgWorkspace::new(),
        )
        .unwrap();
        assert!(warm.converged);
        assert_eq!(warm.iterations, 0);
    }

    #[test]
    fn stale_warm_start_falls_back_to_cold_start() {
        let (a, b) = ill_conditioned(60);
        let cold = conjugate_gradient(&a, &b, &CgConfig::default()).unwrap();
        // A seed pointing away from the solution has a residual larger
        // than ||b||; the never-worse guard must discard it, making the
        // solve bitwise identical to the cold start.
        let stale: Vec<f64> = (0..60).map(|i| 100.0 * (1.0 + (i % 5) as f64)).collect();
        let warm = conjugate_gradient_with(
            &a,
            &b,
            Some(&stale),
            None,
            &CgConfig::default(),
            &mut CgWorkspace::new(),
        )
        .unwrap();
        assert_eq!(warm.iterations, cold.iterations);
        for (c, w) in cold.x.iter().zip(&warm.x) {
            assert_eq!(c.to_bits(), w.to_bits());
        }
    }

    #[test]
    fn workspace_is_reusable_across_sizes() {
        let mut ws = CgWorkspace::new();
        let (a1, b1) = ill_conditioned(40);
        let first =
            conjugate_gradient_with(&a1, &b1, None, None, &CgConfig::default(), &mut ws).unwrap();
        let (a2, b2) = ill_conditioned(80);
        let second =
            conjugate_gradient_with(&a2, &b2, None, None, &CgConfig::default(), &mut ws).unwrap();
        // Same answers as fresh-workspace runs.
        assert_eq!(
            first,
            conjugate_gradient(&a1, &b1, &CgConfig::default()).unwrap()
        );
        assert_eq!(
            second,
            conjugate_gradient(&a2, &b2, &CgConfig::default()).unwrap()
        );
    }

    proptest! {
        /// CG agrees with the dense eigendecomposition solve on random
        /// well-conditioned SPD systems (the dense<->sparse parity
        /// contract of the sparse backend).
        #[test]
        fn prop_cg_matches_dense_eigen_solve(
            entries in proptest::collection::vec(-3.0f64..3.0, 15),
            lambdas in proptest::collection::vec(1.0f64..10.0, 5),
            b in proptest::collection::vec(-5.0f64..5.0, 5),
        ) {
            let dense = spd_from_seed(&entries, &lambdas);
            let sparse = CsrMatrix::from_dense(&dense);
            let out = conjugate_gradient(&sparse, &b, &CgConfig::default()).unwrap();
            prop_assert!(out.converged);
            let oracle = dense_spd_solve(&dense, &b);
            let scale = oracle.iter().map(|v| v.abs()).fold(1.0, f64::max);
            for (xi, oi) in out.x.iter().zip(&oracle) {
                prop_assert!((xi - oi).abs() < 1e-6 * scale, "{xi} vs {oi}");
            }
        }

        /// PCG parity: IC(0) lands on the same solution as
        /// unpreconditioned CG (within tolerance) on random SPD fixtures
        /// — preconditioning changes the path, never the answer.
        #[test]
        fn prop_pcg_matches_plain_cg(
            entries in proptest::collection::vec(-3.0f64..3.0, 15),
            lambdas in proptest::collection::vec(1.0f64..10.0, 5),
            b in proptest::collection::vec(-5.0f64..5.0, 5),
        ) {
            let dense = spd_from_seed(&entries, &lambdas);
            let sparse = CsrMatrix::from_dense(&dense);
            let plain = conjugate_gradient(&sparse, &b, &CgConfig::default()).unwrap();
            let scale = plain.x.iter().map(|v| v.abs()).fold(1.0, f64::max);
            let ic = IncompleteCholesky::factor(&sparse).unwrap();
            let pcg = conjugate_gradient_with(
                &sparse, &b, None, Some(&ic),
                &CgConfig::default(), &mut CgWorkspace::new(),
            ).unwrap();
            prop_assert!(pcg.converged);
            for (xi, pi) in plain.x.iter().zip(&pcg.x) {
                prop_assert!((xi - pi).abs() < 1e-6 * scale, "{xi} vs {pi}");
            }
        }

        /// Warm-starting from a perturbed solution never changes the
        /// answer, only the work: the result still matches plain CG.
        #[test]
        fn prop_warm_start_matches_cold(
            entries in proptest::collection::vec(-3.0f64..3.0, 15),
            lambdas in proptest::collection::vec(1.0f64..10.0, 5),
            b in proptest::collection::vec(-5.0f64..5.0, 5),
            jitter in proptest::collection::vec(-0.1f64..0.1, 5),
        ) {
            let dense = spd_from_seed(&entries, &lambdas);
            let sparse = CsrMatrix::from_dense(&dense);
            let cold = conjugate_gradient(&sparse, &b, &CgConfig::default()).unwrap();
            let x0: Vec<f64> = cold.x.iter().zip(&jitter).map(|(x, j)| x + j).collect();
            let warm = conjugate_gradient_with(
                &sparse, &b, Some(&x0), None,
                &CgConfig::default(), &mut CgWorkspace::new(),
            ).unwrap();
            prop_assert!(warm.converged);
            let scale = cold.x.iter().map(|v| v.abs()).fold(1.0, f64::max);
            for (ci, wi) in cold.x.iter().zip(&warm.x) {
                prop_assert!((ci - wi).abs() < 1e-6 * scale, "{ci} vs {wi}");
            }
        }

        /// IC(0) really factors: `L L^T` reproduces `A` exactly on a
        /// fully stored pattern (where IC(0) degenerates to Cholesky).
        #[test]
        fn prop_ic0_is_exact_on_dense_pattern(
            entries in proptest::collection::vec(-2.0f64..2.0, 10),
            lambdas in proptest::collection::vec(1.0f64..8.0, 4),
        ) {
            let dense = spd_from_seed(&entries, &lambdas);
            let sparse = CsrMatrix::from_dense(&dense);
            if let Ok(ic) = IncompleteCholesky::factor(&sparse) {
                // M^{-1} A should act as identity: apply to random-ish b.
                let b = [1.0, -1.0, 0.5, 2.0];
                let ab = sparse.matvec(&b).unwrap();
                let mut z = vec![0.0; 4];
                ic.apply_inv(&ab, &mut z);
                for (zi, bi) in z.iter().zip(&b) {
                    prop_assert!((zi - bi).abs() < 1e-6, "{zi} vs {bi}");
                }
            }
        }
    }
}
