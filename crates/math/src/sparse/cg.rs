//! Conjugate gradient for symmetric positive-definite systems, with
//! optional warm starts.
//!
//! The large-`n` solver paths need `A x = b` solves where `A` is only
//! available as a matrix-free [`LinearOperator`] — assembling a dense
//! factorization would reintroduce the `O(n^2)` storage the sparse
//! backend exists to avoid. Plain CG needs one operator application and a
//! handful of vector operations per iteration, and converges in at most
//! `n` steps in exact arithmetic (far fewer on the well-conditioned
//! systems the solvers produce).
//!
//! Two orthogonal extensions sit on top of the plain method:
//!
//! * **Warm starts** — [`conjugate_gradient_with`] accepts an `x0`; the
//!   refinement's Gauss–Newton loop seeds every linearization after the
//!   first from the previous step's delta, which shrinks the initial
//!   residual by orders of magnitude once the outer iteration is in its
//!   contraction regime.
//! * **Scratch reuse** ([`CgWorkspace`]) — the per-solve `r`/`p`/`Ap`
//!   vectors live in a caller-owned workspace, so a refinement loop
//!   running hundreds of CG solves allocates them once.

use super::LinearOperator;
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

/// Reusable scratch for [`conjugate_gradient_with`]: the residual,
/// search-direction and operator-image vectors.
///
/// A workspace is not tied to a system size — it grows to fit and is
/// reusable across solves of different dimensions.
#[derive(Debug, Clone, Default)]
pub struct CgWorkspace {
    r: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
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
/// For a warm start or scratch reuse, call [`conjugate_gradient_with`]
/// directly.
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
    conjugate_gradient_with(a, b, None, cfg, &mut CgWorkspace::new())
}

/// The full-control conjugate-gradient entry point: optional warm start
/// `x0` and caller-owned scratch.
///
/// With `x0 = None` this is bit-for-bit [`conjugate_gradient`]: the
/// zero-started path.
///
/// The reported `iterations` count has the same meaning in both modes:
/// operator applications spent in the main loop (a converged warm start
/// can cost 0).
///
/// Warm starts are *never worse* than cold starts by more than the one
/// operator apply spent evaluating the seed: convergence is measured
/// relative to `||b||`, so a stale `x0` whose residual is not smaller
/// than the zero start's is discarded and the solve proceeds from
/// `x = 0`.
///
/// The solve is scale-free: when `||b||^2` leaves `2^-512..=2^512`,
/// `b` and `x0` are scaled by the one exact power of two that brings
/// `max |b_i|` near 1, and the solution is scaled back, so squared norms
/// neither underflow (which would read as a zero right-hand side) nor
/// overflow (a breakdown). Inside that band nothing is scaled, and the
/// result is the unscaled iteration's, bit for bit.
///
/// # Errors
///
/// Same as [`conjugate_gradient`], plus
/// [`MathError::DimensionMismatch`] when `x0` disagrees with the
/// operator dimension and [`MathError::InvalidArgument`] when `x0` is
/// not finite.
pub fn conjugate_gradient_with<O: LinearOperator + ?Sized>(
    a: &O,
    b: &[f64],
    x0: Option<&[f64]>,
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
    if n == 0 {
        return Err(MathError::InvalidArgument("empty system"));
    }
    if b.iter().any(|v| !v.is_finite()) {
        return Err(MathError::InvalidArgument("right-hand side is not finite"));
    }
    let b_squared = dot(b, b);
    if !RHS_BAND.contains(&b_squared) {
        let b_max = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if b_max != 0.0 {
            // CG is linear in (b, x0): solve at the scale where max |b_i|
            // is near 1, then undo it. Powers of two keep both steps
            // exact.
            let shift = -(b_max.log2().floor() as i32);
            let scaled_b = scaled(b, shift);
            // A seed that overflows at the new scale could not beat the
            // zero start; the never-worse rule would discard it anyway.
            let scaled_x0 = x0
                .map(|x0| scaled(x0, shift))
                .filter(|x0| x0.iter().all(|v| v.is_finite()));
            let mut out = conjugate_gradient_with(a, &scaled_b, scaled_x0.as_deref(), cfg, ws)?;
            out.x = scaled(&out.x, -shift);
            return Ok(out);
        }
    }
    let b_norm = b_squared.sqrt();
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
    // rs tracks ||r||^2: both the convergence metric and CG's step inner
    // product.
    let mut rs = dot(&ws.r, &ws.r);
    ws.p.copy_from_slice(&ws.r);

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
        a.apply(&ws.p, &mut ws.ap);
        let p_ap = dot(&ws.p, &ws.ap);
        if !(p_ap > 0.0) || !p_ap.is_finite() {
            return Err(MathError::InvalidArgument(
                "CG breakdown: operator is not positive definite",
            ));
        }
        let alpha = rs / p_ap;
        for (xi, pi) in x.iter_mut().zip(&ws.p) {
            *xi += alpha * pi;
        }
        for (ri, ai) in ws.r.iter_mut().zip(&ws.ap) {
            *ri -= alpha * ai;
        }
        let rs_new = dot(&ws.r, &ws.r);
        let beta = rs_new / rs;
        for i in 0..n {
            ws.p[i] = ws.r[i] + beta * ws.p[i];
        }
        rs = rs_new;
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

/// The range of `||b||^2` that [`conjugate_gradient_with`] solves
/// unscaled: there the iteration's squared norms stay far inside the
/// normal `f64` range. Rescaled, `max |b_i|` lands in `[1, 2)`, so
/// `||b||^2` is back inside for any system size that fits in memory.
const RHS_BAND: core::ops::RangeInclusive<f64> = TWO_POW_MINUS_512..=TWO_POW_512;

const TWO_POW_512: f64 = f64::from_bits((1023 + 512) << 52);
const TWO_POW_MINUS_512: f64 = f64::from_bits((1023 - 512) << 52);

/// `v` times `2^shift`, exact wherever the result is a normal `f64`.
/// The factor is applied in two halves, so `|shift|` may exceed the
/// largest finite power of two's exponent.
fn scaled(v: &[f64], shift: i32) -> Vec<f64> {
    let first = 2f64.powi(shift / 2);
    let second = 2f64.powi(shift - shift / 2);
    v.iter().map(|x| x * first * second).collect()
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The symmetric `n x n` matrix holding `v` at `(i, j)` and `(j, i)`
    /// for every entry `(i, j, v)`, zero elsewhere.
    fn symmetric(n: usize, entries: &[(usize, usize, f64)]) -> DMatrix {
        let mut a = DMatrix::zeros(n, n);
        for &(i, j, v) in entries {
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
        a
    }

    /// The ill-conditioned workhorse: a 1-D Laplacian chain with a huge
    /// diagonal spread, where CG needs many iterations.
    fn ill_conditioned(n: usize) -> (DMatrix, Vec<f64>) {
        let mut edges: Vec<(usize, usize, f64)> = (0..n)
            .map(|i| (i, i, 2.0 + 1000.0 * (i % 7) as f64))
            .collect();
        edges.extend((0..n - 1).map(|i| (i, i + 1, -1.0)));
        let a = symmetric(n, &edges);
        let b: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        (a, b)
    }

    #[test]
    fn solves_laplacian_system() {
        let a = DMatrix::from_rows(&[&[2.0, -1.0, 0.0], &[-1.0, 2.0, -1.0], &[0.0, -1.0, 2.0]])
            .unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let mut b = vec![0.0; 3];
        a.apply(&x_true, &mut b);
        let out = conjugate_gradient(&a, &b, &CgConfig::default()).unwrap();
        assert!(out.converged);
        for (xi, ti) in out.x.iter().zip(x_true) {
            assert!((xi - ti).abs() < 1e-8, "{xi} vs {ti}");
        }
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let a = DMatrix::identity(2);
        let out = conjugate_gradient(&a, &[0.0, 0.0], &CgConfig::default()).unwrap();
        assert_eq!(out.x, vec![0.0, 0.0]);
        assert_eq!(out.iterations, 0);
        assert!(out.converged);
    }

    #[test]
    fn error_cases() {
        let a = DMatrix::identity(2);
        assert!(matches!(
            conjugate_gradient(&a, &[1.0], &CgConfig::default()),
            Err(MathError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            conjugate_gradient(&a, &[f64::NAN, 0.0], &CgConfig::default()),
            Err(MathError::InvalidArgument(_))
        ));
        let empty = DMatrix::zeros(0, 0);
        assert!(conjugate_gradient(&empty, &[], &CgConfig::default()).is_err());
        // Warm starts are validated too.
        assert!(matches!(
            conjugate_gradient_with(
                &a,
                &[1.0, 1.0],
                Some(&[1.0]),
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
                &CgConfig::default(),
                &mut CgWorkspace::new()
            ),
            Err(MathError::InvalidArgument(_))
        ));
    }

    #[test]
    fn indefinite_operator_breaks_down() {
        // diag(1, -1) is symmetric but indefinite.
        let a = DMatrix::from_rows(&[&[1.0, 0.0], &[0.0, -1.0]]).unwrap();
        let err = conjugate_gradient(&a, &[0.0, 1.0], &CgConfig::default()).unwrap_err();
        assert!(matches!(err, MathError::InvalidArgument(_)));
    }

    #[test]
    fn iteration_budget_is_enforced() {
        // A 1-D Laplacian chain needs ~n iterations; 1 is not enough.
        let n = 20;
        let mut edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, i, 2.0)).collect();
        edges.extend((0..n - 1).map(|i| (i, i + 1, -1.0)));
        let a = symmetric(n, &edges);
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
        let a = symmetric(n, &edges);
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
        // The explicit-plumbing entry without a warm start is the same
        // code path.
        let again =
            conjugate_gradient_with(&a, &b, None, &CgConfig::default(), &mut CgWorkspace::new())
                .unwrap();
        assert_eq!(again, out);
    }

    #[test]
    fn right_hand_sides_outside_the_band_solve_at_their_scale() {
        let (a, b) = ill_conditioned(30);
        let unit = conjugate_gradient(&a, &b, &CgConfig::default()).unwrap();
        for k in [-1000, -600, 600, 1000] {
            let scale = 2f64.powi(k);
            let big: Vec<f64> = b.iter().map(|v| v * scale).collect();
            let out = conjugate_gradient(&a, &big, &CgConfig::default()).unwrap();
            assert_eq!(out.iterations, unit.iterations, "2^{k}");
            for (u, s) in unit.x.iter().zip(&out.x) {
                assert_eq!((u * scale).to_bits(), s.to_bits(), "2^{k}");
            }
        }
        // A seed that overflows at the solve's scale is dropped, as a
        // stale one would be.
        let tiny: Vec<f64> = b.iter().map(|v| v * 2f64.powi(-900)).collect();
        let seed = vec![2f64.powi(200); 30];
        let out = conjugate_gradient_with(
            &a,
            &tiny,
            Some(&seed),
            &CgConfig::default(),
            &mut CgWorkspace::new(),
        )
        .unwrap();
        assert!(out.converged);
        assert!(out.x.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn warm_start_from_exact_solution_costs_zero_iterations() {
        let (a, b) = ill_conditioned(60);
        let exact = conjugate_gradient(&a, &b, &CgConfig::default()).unwrap();
        let warm = conjugate_gradient_with(
            &a,
            &b,
            Some(&exact.x),
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
        let first = conjugate_gradient_with(&a1, &b1, None, &CgConfig::default(), &mut ws).unwrap();
        let (a2, b2) = ill_conditioned(80);
        let second =
            conjugate_gradient_with(&a2, &b2, None, &CgConfig::default(), &mut ws).unwrap();
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
        /// well-conditioned SPD systems.
        #[test]
        fn prop_cg_matches_dense_eigen_solve(
            entries in proptest::collection::vec(-3.0f64..3.0, 15),
            lambdas in proptest::collection::vec(1.0f64..10.0, 5),
            b in proptest::collection::vec(-5.0f64..5.0, 5),
        ) {
            let dense = spd_from_seed(&entries, &lambdas);
            let out = conjugate_gradient(&dense, &b, &CgConfig::default()).unwrap();
            prop_assert!(out.converged);
            let oracle = dense_spd_solve(&dense, &b);
            let scale = oracle.iter().map(|v| v.abs()).fold(1.0, f64::max);
            for (xi, oi) in out.x.iter().zip(&oracle) {
                prop_assert!((xi - oi).abs() < 1e-6 * scale, "{xi} vs {oi}");
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
            let cold = conjugate_gradient(&dense, &b, &CgConfig::default()).unwrap();
            let x0: Vec<f64> = cold.x.iter().zip(&jitter).map(|(x, j)| x + j).collect();
            let warm = conjugate_gradient_with(
                &dense, &b, Some(&x0),
                &CgConfig::default(), &mut CgWorkspace::new(),
            ).unwrap();
            prop_assert!(warm.converged);
            let scale = cold.x.iter().map(|v| v.abs()).fold(1.0, f64::max);
            for (ci, wi) in cold.x.iter().zip(&warm.x) {
                prop_assert!((ci - wi).abs() < 1e-6 * scale, "{ci} vs {wi}");
            }
        }
    }
}
