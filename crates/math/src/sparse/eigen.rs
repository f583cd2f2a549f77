//! Top-`k` eigenpairs of a symmetric operator from mat-vec alone.
//!
//! Classical MDS needs only the **two** dominant eigenpairs of the
//! double-centered squared-distance matrix, but the dense Jacobi solver
//! ([`SymmetricEigen`]) computes the full
//! spectrum in `O(n^3)` — the cost that locks MDS-MAP out of metro-scale
//! problems. [`topk_symmetric`] replaces it with restarted block Krylov
//! cycles: each cycle grows an orthonormal basis from a block of `k`
//! vectors by applying the operator to its newest block, reads the top
//! `k` Ritz pairs off a small Rayleigh–Ritz projection, and restarts
//! from them, for `O(k * apply_cost)` per block step and no
//! materialized matrix.
//!
//! Rayleigh–Ritz orders Ritz values algebraically, so the cycles
//! converge to the algebraically largest eigenvalues (what MDS needs),
//! not the largest in magnitude. No shift is needed: the Krylov space
//! of `A` equals that of any `A + sigma I`. Nor do the cycles stall when
//! the `k`-th eigenvalue is tiny next to the first, as on the second
//! axis of a thin, nearly collinear layout (a distributed local map
//! along a street), and an operator no larger than the basis is solved
//! exactly in one cycle.
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

/// Convergence threshold on the worst Ritz-pair *residual*: stop when
/// `max_j ||A x_j - theta_j x_j|| <= TOLERANCE * max(|theta|_max, 1)`,
/// `|theta|_max` being the largest Ritz value magnitude of the cycle.
/// A residual bound controls the eigenvector error directly
/// (value-settling criteria converge twice as fast as the vectors and
/// would stop too early).
const TOLERANCE: f64 = 1e-8;

/// Block steps per cycle: the basis holds `CYCLE_STEPS * k` vectors,
/// capped at the dimension. Chosen by measurement: MDS's `k = 2` then
/// converges metro-250 to metro-2500 embeddings and 0.5–5 m wide strips
/// in three or four cycles, and each of the many small distributed
/// local maps pays only a 6 x 6 dense Rayleigh–Ritz solve per cycle.
const CYCLE_STEPS: usize = 3;

/// Cycles before giving up.
const MAX_CYCLES: usize = 100;

/// The `k` algebraically largest eigenpairs of a symmetric operator,
/// eigenvalues in descending order.
#[derive(Debug, Clone)]
pub struct TopKEigen {
    /// Eigenvalue estimates, descending.
    pub eigenvalues: Vec<f64>,
    /// Unit eigenvector estimates; `eigenvectors[j]` pairs with
    /// `eigenvalues[j]` (determined up to sign, like any eigenvector).
    pub eigenvectors: Vec<Vec<f64>>,
    /// Block operator applications performed, over all cycles.
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
/// operator `a` by restarted block Krylov cycles.
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
///   within the cycle budget; `sweeps` counts the block steps and
///   `off_diagonal` holds the last worst residual relative to the
///   spectrum's scale.
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

    // Uniform random vectors: `k <= n` of them are independent with
    // probability one, so every basis holds the `k` vectors Rayleigh–Ritz
    // slices.
    let mut rng = crate::rng::seeded(INIT_SEED);
    let mut block: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..n).map(|_| rng.random::<f64>() - 0.5).collect())
        .collect();
    let m = (CYCLE_STEPS * k).min(n);
    let mut steps = 0;
    let mut residual = f64::INFINITY;
    for _cycle in 0..MAX_CYCLES {
        // The orthonormal basis Q of the block's Krylov space and its
        // image A Q, one blocked application per step: operators with
        // structure (CSR, the MDS centering operator) push a whole block
        // through a single traversal.
        let mut q: Vec<Vec<f64>> = Vec::with_capacity(m);
        let mut aq: Vec<Vec<f64>> = Vec::with_capacity(m);
        while q.len() < m {
            let start = q.len();
            for mut x in block {
                if q.len() == m {
                    break;
                }
                // Two Gram–Schmidt passes: "twice is enough".
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
            a.apply_multi(&q[start..], &mut images);
            steps += 1;
            aq.extend_from_slice(&images);
            block = images;
        }
        let (theta, mut xs, worst) = rayleigh_ritz(&q, &aq, k)?;
        residual = worst;
        if residual <= TOLERANCE {
            for x in xs.iter_mut() {
                normalize(x);
            }
            return Ok(TopKEigen {
                eigenvalues: theta,
                eigenvectors: xs,
                iterations: steps,
            });
        }
        block = xs;
    }

    Err(MathError::NoConvergence {
        sweeps: steps,
        off_diagonal: residual,
    })
}

/// Rayleigh–Ritz on the orthonormal basis `q` with images `aq = A q`:
/// returns the top `k` Ritz values, descending, their Ritz vectors
/// `X = Q U`, and the worst residual norm `max_j ||A x_j - theta_j x_j||`
/// over the largest Ritz value magnitude (at least 1). The images
/// `A X = (A Q) U` cost no extra operator application.
fn rayleigh_ritz(
    q: &[Vec<f64>],
    aq: &[Vec<f64>],
    k: usize,
) -> Result<(Vec<f64>, Vec<Vec<f64>>, f64)> {
    // B = Q^T A Q, symmetrized against round-off before the small dense
    // eigensolve.
    let p = q.len();
    let mut b = DMatrix::zeros(p, p);
    for i in 0..p {
        for j in 0..p {
            b[(i, j)] = dot(&q[i], &aq[j]);
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
    let values = ritz.eigenvalues();
    let scale = values[0].abs().max(values[p - 1].abs()).max(1.0);
    let u = ritz.eigenvectors();
    let n = q[0].len();
    let mut worst: f64 = 0.0;
    let mut xs = Vec::with_capacity(k);
    for (j, &theta) in values[..k].iter().enumerate() {
        let (mut x, mut ax) = (vec![0.0; n], vec![0.0; n]);
        for c in 0..p {
            let coeff = u[(c, j)];
            for i in 0..n {
                x[i] += coeff * q[c][i];
                ax[i] += coeff * aq[c][i];
            }
        }
        let r: f64 = x
            .iter()
            .zip(&ax)
            .map(|(xi, axi)| {
                let r = axi - theta * xi;
                r * r
            })
            .sum();
        worst = worst.max(r.sqrt());
        xs.push(x);
    }
    Ok((values[..k].to_vec(), xs, worst / scale))
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
        // needs the algebraically largest, +1, which Rayleigh–Ritz's
        // algebraic order delivers without a shift.
        let a = DMatrix::from_rows(&[&[1.0, 0.0], &[0.0, -5.0]]).unwrap();
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
        let top = topk_symmetric(&a, 3).unwrap();
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
    fn a_tiny_second_eigenvalue_converges_in_one_cycle() {
        // The second eigenvalue is 0.3% of the first and the rest of the
        // spectrum sits at zero, which stalls a shifted power method for
        // thousands of steps. With four distinct eigenvalues, the block's
        // Krylov space is invariant at five vectors, inside one cycle,
        // whose Ritz pairs are then exact.
        let lambdas = [100.0, 0.3, 0.0, 0.0, 0.0, 0.0, -0.1];
        let a = DMatrix::from_fn(7, 7, |i, j| if i == j { lambdas[i] } else { 0.0 });
        let top = topk_symmetric(&a, 2).unwrap();
        assert!(top.iterations <= CYCLE_STEPS, "{}", top.iterations);
        for j in 0..2 {
            assert!((top.eigenvalues[j] - lambdas[j]).abs() < 1e-8 * lambdas[0]);
            let mut axis = [0.0; 7];
            axis[j] = 1.0;
            assert!((alignment(&top.eigenvectors[j], &axis) - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn every_small_k_returns_k_orthonormal_vectors() {
        // The zero operator leaves only the start block to span the
        // space, the rank-one operator adds a single direction to it, and
        // the identity makes every vector an eigenvector.
        for n in 1..=8 {
            let u: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
            let zero = DMatrix::zeros(n, n);
            let rank_one = DMatrix::from_fn(n, n, |i, j| u[i] * u[j]);
            let identity = DMatrix::identity(n);
            let norm2 = dot(&u, &u);
            let operators: [(&str, &dyn LinearOperator, f64, f64); 3] = [
                ("zero", &zero, 0.0, 0.0),
                ("rank one", &rank_one, norm2, 0.0),
                ("identity", &identity, 1.0, 1.0),
            ];
            for (name, a, first, rest) in operators {
                for k in 1..=n {
                    let top = topk_symmetric(a, k).unwrap();
                    assert_eq!(top.eigenvectors.len(), k, "{name} n={n} k={k}");
                    for (j, l) in top.eigenvalues.iter().enumerate() {
                        let expect = if j == 0 { first } else { rest };
                        assert!(
                            (l - expect).abs() <= 1e-8 * first,
                            "{name} n={n} k={k}: {l}"
                        );
                    }
                    for (i, x) in top.eigenvectors.iter().enumerate() {
                        for (j, y) in top.eigenvectors.iter().enumerate() {
                            let expect = if i == j { 1.0 } else { 0.0 };
                            assert!(
                                (dot(x, y) - expect).abs() < 1e-10,
                                "{name} n={n} k={k}: <x{i}, x{j}> = {}",
                                dot(x, y)
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rejects_bad_k_and_empty_operators() {
        let a = DMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 0.0]]).unwrap();
        assert!(matches!(
            topk_symmetric(&a, 0),
            Err(MathError::InvalidArgument(_))
        ));
        assert!(matches!(
            topk_symmetric(&a, 3),
            Err(MathError::InvalidArgument(_))
        ));
        let empty = DMatrix::zeros(0, 0);
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
            let top = topk_symmetric(&a, k).unwrap();
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
