//! Top-`k` eigenpairs of a symmetric operator from mat-vec alone.
//!
//! Classical MDS needs only the **two** dominant eigenpairs of the
//! double-centered squared-distance matrix, but the dense Jacobi solver
//! ([`SymmetricEigen`]) computes the full
//! spectrum in `O(n^3)` — the cost that locks MDS-MAP out of metro-scale
//! problems. [`topk_symmetric`] replaces it with shifted subspace
//! (block power) iteration: each step applies the operator to `k`
//! vectors, re-orthonormalizes, and reads eigenvalue estimates off a
//! `k x k` Rayleigh–Ritz projection, for `O(k * apply_cost)` per
//! iteration and no materialized matrix.
//!
//! The shift makes the method converge to the *algebraically* largest
//! eigenvalues (what MDS needs), not the largest in magnitude: a spectral
//! radius estimate `rho` from a short power iteration turns `A` into the
//! positive-semidefinite `A + sigma I` (`sigma ~ 1.1 rho`), whose
//! magnitude order equals `A`'s algebraic order.
//!
//! Subspace iteration stalls when the `k`-th eigenvalue is tiny next to
//! the shift: the second axis of a thin, nearly collinear layout, which
//! a distributed local map along a street can be. A run that exhausts
//! its iteration budget continues with thick-restarted block Krylov
//! cycles from the block it reached, so every run that converged by
//! subspace iteration alone keeps its bits, and small operators always
//! converge: their Krylov space spans the whole dimension.
//!
//! The run is deterministic: starting vectors come from a fixed-seed
//! stream, so two runs on the same operator produce bit-identical
//! eigenpairs (the campaign determinism contract extends through this
//! solver).

use rand::Rng;

use super::LinearOperator;
use crate::{DMatrix, MathError, Result, SymmetricEigen};

/// Fixed seed for the deterministic starting block (see module docs).
const INIT_SEED: u64 = 0x5EED_E16E;

/// Iteration cap for the subspace iteration.
const MAX_ITERATIONS: usize = 2_000;

/// Convergence threshold on the worst Ritz-pair *residual*: stop when
/// `max_j ||A x_j - lambda_j x_j|| <= TOLERANCE * max(spectral scale, 1)`.
/// A residual bound controls the eigenvector error directly
/// (value-settling criteria converge twice as fast as the vectors and
/// would stop too early).
const TOLERANCE: f64 = 1e-8;

/// Basis size of one block Krylov cycle once subspace iteration stalls.
const KRYLOV_BASIS: usize = 32;

/// Block Krylov cycles before giving up.
const KRYLOV_CYCLES: usize = 50;

/// The `k` algebraically largest eigenpairs of a symmetric operator,
/// eigenvalues in descending order.
#[derive(Debug, Clone)]
pub struct TopKEigen {
    /// Eigenvalue estimates, descending.
    pub eigenvalues: Vec<f64>,
    /// Unit eigenvector estimates; `eigenvectors[j]` pairs with
    /// `eigenvalues[j]` (determined up to sign, like any eigenvector).
    pub eigenvectors: Vec<Vec<f64>>,
    /// Subspace iterations performed.
    pub iterations: usize,
}

impl TopKEigen {
    /// Principal-coordinate embedding: row `i` holds the `dims = k`
    /// coordinates `eigenvectors[j][i] * sqrt(max(eigenvalues[j], 0))` —
    /// the classical-MDS configuration, mirroring
    /// [`SymmetricEigen::principal_coordinates`].
    pub fn principal_coordinates(&self) -> DMatrix {
        let k = self.eigenvalues.len();
        let n = self.eigenvectors.first().map_or(0, Vec::len);
        DMatrix::from_fn(n, k, |i, j| {
            self.eigenvectors[j][i] * self.eigenvalues[j].max(0.0).sqrt()
        })
    }
}

/// Computes the `k` algebraically largest eigenpairs of the symmetric
/// operator `a` by shifted subspace iteration.
///
/// Symmetry is assumed (the algorithm only ever applies `a`); feeding an
/// asymmetric operator produces meaningless results. Degenerate
/// eigenvalues are handled — the returned vectors then span the invariant
/// subspace, individual vectors being an arbitrary orthonormal basis of
/// it, exactly like the dense solver's.
///
/// # Errors
///
/// * [`MathError::InvalidArgument`] when `k` is zero or exceeds the
///   operator dimension, or the dimension is zero.
/// * [`MathError::NoConvergence`] when the Ritz pairs fail to settle
///   within both the subspace-iteration and the Krylov budgets.
pub fn topk_symmetric<O: LinearOperator + ?Sized>(a: &O, k: usize) -> Result<TopKEigen> {
    let n = a.dim();
    if n == 0 {
        return Err(MathError::InvalidArgument("empty operator"));
    }
    if k == 0 || k > n {
        return Err(MathError::InvalidArgument(
            "k must be between 1 and the operator dimension",
        ));
    }

    let mut rng = crate::rng::seeded(INIT_SEED);
    let sigma = shift_for(a, &mut rng);

    // The orthonormal block V (k columns of length n) and its image under
    // the shifted operator S = A + sigma I.
    let mut v: Vec<Vec<f64>> = (0..k).map(|_| random_unit(n, &mut rng)).collect();
    orthonormalize(&mut v, &mut rng);
    let mut w: Vec<Vec<f64>> = vec![vec![0.0; n]; k];
    let mut worst_residual = f64::INFINITY;

    // Ritz-pair blocks refilled every pass, so a long subspace iteration
    // allocates them once instead of per step.
    let mut xs: Vec<Vec<f64>> = vec![vec![0.0; n]; k];
    let mut sxs: Vec<Vec<f64>> = vec![vec![0.0; n]; k];

    for iteration in 1..=MAX_ITERATIONS {
        // One blocked application S V = A V + sigma V: operators with
        // structure (CSR, the MDS centering operator) push the whole
        // block through a single traversal.
        shifted_apply(a, sigma, &v, &mut w);
        let (theta, worst) = rayleigh_ritz(&v, &w, &mut xs, &mut sxs)?;
        worst_residual = worst;
        if worst <= TOLERANCE * theta[0].abs().max(1.0) {
            return Ok(converged(theta, sigma, xs, iteration));
        }

        // Next subspace: orthonormalized image.
        core::mem::swap(&mut v, &mut w);
        orthonormalize(&mut v, &mut rng);
    }

    // The subspace iteration contracts unwanted components by
    // `(sigma + lambda_{k+1}) / (sigma + lambda_k)` per step, which stalls
    // when `lambda_k` is tiny next to the shift: the second axis of a
    // thin, nearly collinear layout. Continue from the current block with
    // thick-restarted block Krylov cycles instead: Rayleigh–Ritz over the
    // block's Krylov space, restarted from the top-k Ritz vectors. A
    // space that reaches the whole dimension is exact.
    let m = KRYLOV_BASIS.max(k).min(n);
    let mut steps = MAX_ITERATIONS;
    for _cycle in 0..KRYLOV_CYCLES {
        let mut q: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut sq: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut block = v;
        while q.len() < m {
            let start = q.len();
            for mut x in block {
                if q.len() == m {
                    break;
                }
                for _pass in 0..2 {
                    for qi in &q {
                        let proj = dot(qi, &x);
                        for (xj, qj) in x.iter_mut().zip(qi) {
                            *xj -= proj * qj;
                        }
                    }
                }
                if normalize(&mut x) {
                    q.push(x);
                }
            }
            if q.len() == start {
                // The space is invariant: its Ritz pairs are exact.
                break;
            }
            let mut images = vec![vec![0.0; n]; q.len() - start];
            shifted_apply(a, sigma, &q[start..], &mut images);
            steps += 1;
            sq.extend(images.iter().cloned());
            block = images;
        }
        let (theta, worst) = rayleigh_ritz(&q, &sq, &mut xs, &mut sxs)?;
        worst_residual = worst;
        if worst <= TOLERANCE * theta[0].abs().max(1.0) {
            return Ok(converged(theta, sigma, xs, steps));
        }
        v = xs.clone();
    }

    Err(MathError::NoConvergence {
        sweeps: steps,
        off_diagonal: worst_residual,
    })
}

/// `ys = (A + sigma I) xs` in one blocked application.
fn shifted_apply<O: LinearOperator + ?Sized>(
    a: &O,
    sigma: f64,
    xs: &[Vec<f64>],
    ys: &mut [Vec<f64>],
) {
    a.apply_multi(xs, ys);
    for (x, y) in xs.iter().zip(ys.iter_mut()) {
        for (yi, xi) in y.iter_mut().zip(x) {
            *yi += sigma * xi;
        }
    }
}

/// Rayleigh–Ritz on the orthonormal basis `q` with images `sq = S q`:
/// fills `xs` with the top `xs.len()` Ritz vectors and `sxs` with their
/// images (both free in extra operator applications: `X = Q U` and
/// `S X = (S Q) U`), and returns their Ritz values, descending, with the
/// worst residual norm `max_j ||S x_j - theta_j x_j||`.
fn rayleigh_ritz(
    q: &[Vec<f64>],
    sq: &[Vec<f64>],
    xs: &mut [Vec<f64>],
    sxs: &mut [Vec<f64>],
) -> Result<(Vec<f64>, f64)> {
    // B = Q^T S Q, symmetrized against round-off before the small dense
    // eigensolve.
    let p = q.len();
    let mut b = DMatrix::zeros(p, p);
    for i in 0..p {
        for j in 0..p {
            b[(i, j)] = dot(&q[i], &sq[j]);
        }
    }
    for i in 0..p {
        for j in (i + 1)..p {
            let m = 0.5 * (b[(i, j)] + b[(j, i)]);
            b[(i, j)] = m;
            b[(j, i)] = m;
        }
    }
    let ritz = SymmetricEigen::new(&b)?;
    let theta = &ritz.eigenvalues()[..xs.len()];
    let u = ritz.eigenvectors();
    for x in xs.iter_mut() {
        x.fill(0.0);
    }
    for x in sxs.iter_mut() {
        x.fill(0.0);
    }
    for (j, (x, sx)) in xs.iter_mut().zip(sxs.iter_mut()).enumerate() {
        for c in 0..p {
            let coeff = u[(c, j)];
            for i in 0..x.len() {
                x[i] += coeff * q[c][i];
                sx[i] += coeff * sq[c][i];
            }
        }
    }
    let worst = xs
        .iter()
        .zip(sxs.iter())
        .zip(theta)
        .map(|((x, sx), t)| {
            let r: f64 = x
                .iter()
                .zip(sx)
                .map(|(xi, sxi)| {
                    let r = sxi - t * xi;
                    r * r
                })
                .sum();
            r.sqrt()
        })
        .fold(0.0, f64::max);
    Ok((theta.to_vec(), worst))
}

/// The converged result: unshifted eigenvalues and unit eigenvectors.
fn converged(theta: Vec<f64>, sigma: f64, mut xs: Vec<Vec<f64>>, iterations: usize) -> TopKEigen {
    for x in xs.iter_mut() {
        normalize(x);
    }
    TopKEigen {
        eigenvalues: theta.iter().map(|t| t - sigma).collect(),
        eigenvectors: xs,
        iterations,
    }
}

/// A safe positive shift `sigma >= |lambda|_max * 1.1`, estimated by a
/// short power iteration (12 applications).
fn shift_for<O: LinearOperator + ?Sized>(a: &O, rng: &mut impl Rng) -> f64 {
    let n = a.dim();
    let mut x = random_unit(n, rng);
    let mut y = vec![0.0; n];
    let mut rho = 0.0;
    for _ in 0..12 {
        a.apply(&x, &mut y);
        rho = dot(&y, &y).sqrt();
        if rho <= f64::MIN_POSITIVE || !rho.is_finite() {
            break;
        }
        for (xi, yi) in x.iter_mut().zip(&y) {
            *xi = yi / rho;
        }
    }
    if rho.is_finite() && rho > 0.0 {
        1.1 * rho
    } else {
        1.0
    }
}

/// A deterministic unit-norm starting vector.
fn random_unit(n: usize, rng: &mut impl Rng) -> Vec<f64> {
    let mut x: Vec<f64> = (0..n).map(|_| rng.random::<f64>() - 0.5).collect();
    if !normalize(&mut x) {
        x[0] = 1.0;
    }
    x
}

/// In-place modified Gram-Schmidt (two passes — "twice is enough").
/// Columns that collapse to zero are replaced with fresh deterministic
/// vectors and re-orthogonalized.
fn orthonormalize(v: &mut [Vec<f64>], rng: &mut impl Rng) {
    let n = v.first().map_or(0, Vec::len);
    for j in 0..v.len() {
        let mut attempts = 0;
        loop {
            for _pass in 0..2 {
                for i in 0..j {
                    let proj = dot(&v[i], &v[j]);
                    let (head, tail) = v.split_at_mut(j);
                    for (xj, xi) in tail[0].iter_mut().zip(&head[i]) {
                        *xj -= proj * xi;
                    }
                }
            }
            if normalize(&mut v[j]) {
                break;
            }
            attempts += 1;
            assert!(attempts <= n + 1, "cannot complete orthonormal block");
            v[j] = random_unit(n, rng);
        }
    }
}

/// Normalizes in place; returns `false` when the vector is (numerically)
/// zero and was left untouched.
fn normalize(x: &mut [f64]) -> bool {
    let norm = dot(x, x).sqrt();
    if norm <= 1e-300 || !norm.is_finite() {
        return false;
    }
    for xi in x.iter_mut() {
        *xi /= norm;
    }
    true
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CsrMatrix;
    use proptest::prelude::*;

    fn alignment(v: &[f64], expected: &[f64]) -> f64 {
        let dot: f64 = v.iter().zip(expected).map(|(a, b)| a * b).sum();
        let norm: f64 = expected.iter().map(|e| e * e).sum::<f64>().sqrt();
        (dot / norm).abs()
    }

    #[test]
    fn two_by_two_known_eigenpair() {
        let a = DMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let top = topk_symmetric(&a, 2).unwrap();
        assert!((top.eigenvalues[0] - 3.0).abs() < 1e-8);
        assert!((top.eigenvalues[1] - 1.0).abs() < 1e-8);
        assert!((alignment(&top.eigenvectors[0], &[1.0, 1.0]) - 1.0).abs() < 1e-7);
        assert!((alignment(&top.eigenvectors[1], &[1.0, -1.0]) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn algebraic_order_beats_magnitude_order() {
        // diag(1, -5): the magnitude-dominant eigenvalue is -5, but MDS
        // needs the algebraically largest, +1. The shift must deliver it.
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, -5.0)]).unwrap();
        let top = topk_symmetric(&a, 1).unwrap();
        assert!(
            (top.eigenvalues[0] - 1.0).abs() < 1e-8,
            "{:?}",
            top.eigenvalues
        );
        assert!((alignment(&top.eigenvectors[0], &[1.0, 0.0]) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn matches_dense_jacobi_on_tridiagonal() {
        let a = DMatrix::from_rows(&[&[2.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 2.0]])
            .unwrap();
        let dense = SymmetricEigen::new(&a).unwrap();
        let sparse = CsrMatrix::from_dense(&a);
        let top = topk_symmetric(&sparse, 3).unwrap();
        for j in 0..3 {
            assert!(
                (top.eigenvalues[j] - dense.eigenvalues()[j]).abs() < 1e-8,
                "lambda_{j}: {} vs {}",
                top.eigenvalues[j],
                dense.eigenvalues()[j]
            );
            assert!((alignment(&top.eigenvectors[j], &dense.eigenvector(j)) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn a_stalled_subspace_iteration_finishes_in_krylov_cycles() {
        // The second eigenvalue is 0.3% of the first and the rest of the
        // spectrum sits at zero, so subspace iteration would need
        // thousands of steps; the Krylov space spans all seven
        // dimensions and is exact.
        let lambdas = [100.0, 0.3, 0.0, 0.0, 0.0, 0.0, -0.1];
        let diagonal: Vec<(usize, usize, f64)> = lambdas
            .iter()
            .enumerate()
            .map(|(i, &l)| (i, i, l))
            .collect();
        let a = CsrMatrix::from_triplets(7, 7, &diagonal).unwrap();
        let top = topk_symmetric(&a, 2).unwrap();
        assert!(top.iterations > MAX_ITERATIONS, "{}", top.iterations);
        for j in 0..2 {
            assert!((top.eigenvalues[j] - lambdas[j]).abs() < 1e-8 * lambdas[0]);
            let mut axis = [0.0; 7];
            axis[j] = 1.0;
            assert!((alignment(&top.eigenvectors[j], &axis) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_operator_yields_zero_eigenvalues() {
        let a = CsrMatrix::from_triplets(3, 3, &[]).unwrap();
        let top = topk_symmetric(&a, 2).unwrap();
        for l in &top.eigenvalues {
            assert!(l.abs() < 1e-12);
        }
    }

    #[test]
    fn rejects_bad_k_and_empty_operators() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(
            topk_symmetric(&a, 0),
            Err(MathError::InvalidArgument(_))
        ));
        assert!(matches!(
            topk_symmetric(&a, 3),
            Err(MathError::InvalidArgument(_))
        ));
        let empty = CsrMatrix::from_triplets(0, 0, &[]).unwrap();
        assert!(topk_symmetric(&empty, 1).is_err());
    }

    #[test]
    fn runs_are_bit_deterministic() {
        let a =
            DMatrix::from_rows(&[&[4.0, 1.0, -2.0], &[1.0, 2.0, 0.0], &[-2.0, 0.0, 3.0]]).unwrap();
        let first = topk_symmetric(&a, 2).unwrap();
        let second = topk_symmetric(&a, 2).unwrap();
        assert_eq!(first.eigenvalues, second.eigenvalues);
        assert_eq!(first.eigenvectors, second.eigenvectors);
    }

    #[test]
    fn principal_coordinates_recover_rank_one_gram() {
        let xs = [-8.0 / 3.0, 1.0 / 3.0, 7.0 / 3.0];
        let g = DMatrix::from_fn(3, 3, |i, j| xs[i] * xs[j]);
        let top = topk_symmetric(&g, 2).unwrap();
        let coords = top.principal_coordinates();
        let sign = if coords[(0, 0)] * xs[0] >= 0.0 {
            1.0
        } else {
            -1.0
        };
        for i in 0..3 {
            assert!((sign * coords[(i, 0)] - xs[i]).abs() < 1e-6);
            // The second eigenvalue is ~0 up to the iteration tolerance;
            // the square root amplifies that error to ~sqrt(tol * l1).
            assert!(coords[(i, 1)].abs() < 1e-4);
        }
    }

    /// Builds `Q diag(lambdas) Q^T` with well-separated eigenvalues from
    /// an arbitrary symmetric seed's orthonormal eigenvectors, so the
    /// ground truth is known exactly.
    fn with_known_spectrum(entries: &[f64], lambdas: &[f64]) -> (DMatrix, DMatrix) {
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
        let q = SymmetricEigen::new(&seed).unwrap().eigenvectors().clone();
        let mut lambda = DMatrix::zeros(n, n);
        for (i, &l) in lambdas.iter().enumerate() {
            lambda[(i, i)] = l;
        }
        let a = q.mul(&lambda).unwrap().mul(&q.transpose()).unwrap();
        (a, q)
    }

    proptest! {
        /// Top-k eigenpairs match the known spectrum (and the dense
        /// Jacobi solver) on random well-gapped symmetric matrices.
        #[test]
        fn prop_topk_matches_known_spectrum(
            entries in proptest::collection::vec(-3.0f64..3.0, 15),
            base in 1.0f64..5.0,
            gaps in proptest::collection::vec(1.0f64..4.0, 5),
            k in 1usize..4,
        ) {
            // Descending, well-separated eigenvalues.
            let mut lambdas = vec![0.0; 5];
            let mut acc = base;
            for i in (0..5).rev() {
                lambdas[i] = acc;
                acc += gaps[i];
            }
            let (a, q) = with_known_spectrum(&entries, &lambdas);
            let sparse = CsrMatrix::from_dense(&a);
            let top = topk_symmetric(&sparse, k).unwrap();
            let dense = SymmetricEigen::new(&a).unwrap();
            for j in 0..k {
                prop_assert!(
                    (top.eigenvalues[j] - lambdas[j]).abs() < 1e-7 * lambdas[0],
                    "lambda_{j}: {} vs {}", top.eigenvalues[j], lambdas[j]
                );
                prop_assert!(
                    (top.eigenvalues[j] - dense.eigenvalues()[j]).abs() < 1e-7 * lambdas[0]
                );
                let expected: Vec<f64> = (0..5).map(|i| q[(i, j)]).collect();
                prop_assert!(
                    (alignment(&top.eigenvectors[j], &expected) - 1.0).abs() < 1e-5,
                    "eigenvector {j} misaligned"
                );
            }
        }
    }
}
