//! Closed-form best-fit rigid alignment between corresponding point sets.
//!
//! This implements the computationally cheap transform-estimation method of
//! Section 4.3.1: translation is taken between the centers of mass of the
//! shared point sets, the rotation angle is the closed-form minimizer
//! obtained from the cross-covariances
//! `[C_xu + C_yv, C_xv − C_yu] · [sin θ, cos θ]^T = 0`, and the reflection
//! factor `f ∈ {1, −1}` is chosen by comparing the resulting errors.
//!
//! The same routine serves two roles in the workspace:
//!
//! 1. the pairwise local-coordinate-system transform of **distributed LSS**
//!    (source = neighbor's local map, target = own local map), and
//! 2. the **evaluation alignment** of every experiment, where "computed
//!    coordinates were translated, rotated and flipped to achieve a best-fit
//!    match with the actual node coordinates" (Section 4.2.2).

use crate::{GeomError, Point2, Result, RigidTransform, Vec2};
use serde::{Deserialize, Serialize};

/// Sizes `n · extent²` that [`power_of_two_scale`] leaves unscaled:
/// their squares stay well inside the normal `f64` range.
const SCALE_RANGE: std::ops::RangeInclusive<f64> = 1e-150..=1e150;

/// The exact rescaling for a computation over `n` points that squares
/// coordinates or distances of magnitude up to `extent`: when
/// `n · extent²` leaves `1e-150..=1e150` and `extent` is a finite normal
/// number, `Some` power of two at or below `extent`; otherwise `None`,
/// and the computation runs unscaled. Dividing by a power of two and
/// multiplying back is exact, so only inputs that would overflow or
/// underflow change bits. The rigid fit here and MDS-MAP's embedding
/// both decide their scale through this one function.
pub fn power_of_two_scale(n: usize, extent: f64) -> Option<f64> {
    ((f64::MIN_POSITIVE..=f64::MAX).contains(&extent)
        && !SCALE_RANGE.contains(&(n as f64 * extent * extent)))
    // Keep only the exponent bits: 2^floor(log2(extent)).
    .then(|| f64::from_bits(extent.to_bits() & 0x7ff0_0000_0000_0000))
}

/// Outcome of fitting a rigid transform `T` with `T(source[i]) ≈ target[i]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlignmentFit {
    /// The fitted transform (source frame → target frame).
    pub transform: RigidTransform,
    /// Sum of squared residuals after alignment.
    pub sse: f64,
    /// Root-mean-square residual after alignment.
    pub rmse: f64,
    /// Per-point residual distances after alignment.
    pub residuals: Vec<f64>,
}

/// Fits the rigid transform minimizing `Σ |T(source[i]) − target[i]|²`.
///
/// When `allow_reflection` is `true`, both reflection factors are tried and
/// the better one kept (the paper always allows reflection, because a local
/// LSS map is only determined up to a flip).
///
/// # Errors
///
/// * [`GeomError::LengthMismatch`] if the slices differ in length,
/// * [`GeomError::TooFewPoints`] with fewer than 2 points (the rotation is
///   underdetermined),
/// * [`GeomError::Degenerate`] when all source or all target points
///   coincide, leaving the rotation angle undefined.
///
/// # Example
///
/// ```
/// use rl_geom::{fit_rigid_transform, Point2, RigidTransform, Vec2};
///
/// let source = [Point2::new(0.0, 0.0), Point2::new(1.0, 0.0), Point2::new(0.0, 2.0)];
/// let hidden = RigidTransform::new(0.8, true, Vec2::new(3.0, -1.0));
/// let target: Vec<Point2> = source.iter().map(|&p| hidden.apply(p)).collect();
///
/// let fit = fit_rigid_transform(&source, &target, true)?;
/// assert!(fit.rmse < 1e-9);
/// # Ok::<(), rl_geom::GeomError>(())
/// ```
pub fn fit_rigid_transform(
    source: &[Point2],
    target: &[Point2],
    allow_reflection: bool,
) -> Result<AlignmentFit> {
    fit_weighted(source, target, None, allow_reflection)
}

/// The weighted variant of [`fit_rigid_transform`]: minimizes
/// `Σ w_i |T(source[i]) − target[i]|²`, so correspondences known to be
/// less reliable pull on the fit less. Distributed LSS uses this for its
/// pairwise local-map registration, down-weighting shared nodes far from
/// the two map centers (a local LSS map is most accurate near its
/// center, where the measurement graph is densest).
///
/// With uniform weights the fit is identical to [`fit_rigid_transform`].
/// [`AlignmentFit::sse`] and [`AlignmentFit::rmse`] become their
/// weight-adjusted forms (`Σ w r²` and `√(Σ w r² / Σ w)`);
/// [`AlignmentFit::residuals`] stays the raw per-point distances.
///
/// # Errors
///
/// Same as [`fit_rigid_transform`], plus:
///
/// * [`GeomError::LengthMismatch`] when `weights` differs in length,
/// * [`GeomError::Degenerate`] for a weight that is negative or not
///   finite, or a weight vector summing to (near) zero.
pub fn fit_rigid_transform_weighted(
    source: &[Point2],
    target: &[Point2],
    weights: &[f64],
    allow_reflection: bool,
) -> Result<AlignmentFit> {
    if weights.len() != source.len() {
        return Err(GeomError::LengthMismatch {
            left: source.len(),
            right: weights.len(),
        });
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(GeomError::Degenerate(
            "weights must be finite and non-negative",
        ));
    }
    if weights.iter().sum::<f64>() <= 1e-18 {
        return Err(GeomError::Degenerate("weights sum to zero"));
    }
    fit_weighted(source, target, Some(weights), allow_reflection)
}

/// Shared implementation of the (weighted) rigid fit. `weights: None` is
/// the uniform case and reproduces the historical unweighted arithmetic
/// bit for bit (every factor is then exactly `1.0`).
///
/// The spreads and cross-covariances square coordinates. When
/// [`power_of_two_scale`] asks for it, both point sets are first divided
/// by the power of two at or below `extent` and the fit scaled back, so
/// a set at 1e300 m neither overflows nor one at 1e-150 m reads as
/// coincident; every other input fits unscaled, bit for bit.
fn fit_weighted(
    source: &[Point2],
    target: &[Point2],
    weights: Option<&[f64]>,
    allow_reflection: bool,
) -> Result<AlignmentFit> {
    if source.len() != target.len() {
        return Err(GeomError::LengthMismatch {
            left: source.len(),
            right: target.len(),
        });
    }
    if source.len() < 2 {
        return Err(GeomError::TooFewPoints {
            needed: 2,
            got: source.len(),
        });
    }
    let extent = source
        .iter()
        .chain(target)
        .fold(0.0, |m: f64, p| m.max(p.x.abs()).max(p.y.abs()));
    if let Some(scale) = power_of_two_scale(source.len(), extent) {
        // The shrunk extent lies in [1, 2), so the inner fit runs unscaled.
        let shrink = |pts: &[Point2]| -> Vec<Point2> {
            pts.iter()
                .map(|p| Point2::new(p.x / scale, p.y / scale))
                .collect()
        };
        let fit = fit_weighted(&shrink(source), &shrink(target), weights, allow_reflection)?;
        let t = fit.transform;
        return Ok(AlignmentFit {
            transform: RigidTransform::new(
                t.theta(),
                t.is_reflected(),
                t.translation_vec() * scale,
            ),
            sse: fit.sse * scale * scale,
            rmse: fit.rmse * scale,
            residuals: fit.residuals.iter().map(|r| r * scale).collect(),
        });
    }
    let w_of = |i: usize| weights.map_or(1.0, |w| w[i]);
    let w_sum: f64 = (0..source.len()).map(&w_of).sum();
    let weighted_centroid = |pts: &[Point2]| {
        let (sx, sy) = pts.iter().enumerate().fold((0.0, 0.0), |(sx, sy), (i, p)| {
            (sx + w_of(i) * p.x, sy + w_of(i) * p.y)
        });
        Point2::new(sx / w_sum, sy / w_sum)
    };
    let mu_src = weighted_centroid(source);
    let mu_tgt = weighted_centroid(target);

    let spread = |pts: &[Point2], mu: Point2| {
        pts.iter()
            .enumerate()
            .map(|(i, p)| w_of(i) * p.distance_sq(mu))
            .sum::<f64>()
    };
    if spread(source, mu_src) < 1e-18 || spread(target, mu_tgt) < 1e-18 {
        return Err(GeomError::Degenerate("all points coincide"));
    }

    let factors: &[f64] = if allow_reflection {
        &[1.0, -1.0]
    } else {
        &[1.0]
    };
    let mut best: Option<AlignmentFit> = None;

    for &f in factors {
        // Centered coordinates; the reflection factor acts on the source's
        // second coordinate (matching `RigidTransform`'s convention).
        let centered: Vec<(Vec2, Vec2)> = source
            .iter()
            .zip(target)
            .map(|(&s, &t)| {
                let sc = s - mu_src;
                let tc = t - mu_tgt;
                (Vec2::new(sc.x, f * sc.y), tc)
            })
            .collect();

        // Weighted cross-covariance sums between target (x, y) and
        // f-adjusted source (u, v). Our transform applies x = c·u + s·v,
        // y = −s·u + c·v; the stationarity condition is
        // s·(S_xu − S_yv) = c·(S_xv + S_yu) ...
        // derive: minimize Σ w (c·u + s·v − x)² + w (−s·u + c·v − y)².
        // dE/dθ = 0  ⇔  s·(S_xu + S_yv) + c·(−S_xv + S_yu) = 0
        //         ⇔  θ = atan2(S_xv − S_yu, S_xu + S_yv)  (up to π).
        let (mut sxu, mut sxv, mut syu, mut syv) = (0.0, 0.0, 0.0, 0.0);
        for (i, &(sv, tv)) in centered.iter().enumerate() {
            let w = w_of(i);
            sxu += w * (tv.x * sv.x);
            sxv += w * (tv.x * sv.y);
            syu += w * (tv.y * sv.x);
            syv += w * (tv.y * sv.y);
        }
        let theta0 = (sxv - syu).atan2(sxu + syv);

        // Both θ and θ+π satisfy the stationarity equation; evaluate both.
        for theta in [theta0, theta0 + core::f64::consts::PI] {
            let linear = RigidTransform::new(theta, f < 0.0, Vec2::ZERO);
            let t = mu_tgt.to_vec() - linear.apply(mu_src).to_vec();
            let candidate = RigidTransform::new(theta, f < 0.0, t);
            let residuals: Vec<f64> = source
                .iter()
                .zip(target)
                .map(|(&s, &t)| candidate.apply(s).distance(t))
                .collect();
            let sse: f64 = residuals
                .iter()
                .enumerate()
                .map(|(i, r)| w_of(i) * (r * r))
                .sum();
            if best.as_ref().is_none_or(|b| sse < b.sse) {
                let rmse = (sse / w_sum).sqrt();
                best = Some(AlignmentFit {
                    transform: candidate,
                    sse,
                    rmse,
                    residuals,
                });
            }
        }
    }

    Ok(best.expect("at least one candidate evaluated"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centroid;
    use proptest::prelude::*;

    #[test]
    fn scale_is_the_power_of_two_below_extremes_only() {
        assert_eq!(power_of_two_scale(25, 1.0), None);
        assert_eq!(power_of_two_scale(25, 1e70), None);
        assert_eq!(power_of_two_scale(25, 3e150), Some(2f64.powi(499)));
        assert_eq!(power_of_two_scale(25, 1e-150), Some(2f64.powi(-499)));
        for extent in [0.0, 1e-310, f64::INFINITY, f64::NAN] {
            assert_eq!(power_of_two_scale(25, extent), None, "{extent}");
        }
    }

    fn square() -> Vec<Point2> {
        vec![
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(2.0, 1.0),
            Point2::new(0.0, 1.0),
        ]
    }

    #[test]
    fn identity_when_already_aligned() {
        let pts = square();
        let fit = fit_rigid_transform(&pts, &pts, true).unwrap();
        assert!(fit.rmse < 1e-12);
        assert!(fit.sse < 1e-20);
        let p = Point2::new(0.5, 0.5);
        assert!(fit.transform.apply(p).distance(p) < 1e-9);
    }

    /// Full Procrustes round trip: push an irregular point set through a
    /// hidden rigid transform (rotation + reflection + translation), recover
    /// the transform from correspondences alone, and demand sub-1e-9
    /// residuals — both on the fitted points and on held-out probe points.
    #[test]
    fn round_trip_recovers_hidden_transform_below_1e9() {
        let source = vec![
            Point2::new(0.0, 0.0),
            Point2::new(9.1, 0.3),
            Point2::new(4.4, 8.2),
            Point2::new(-3.7, 5.6),
            Point2::new(1.2, -6.9),
            Point2::new(12.8, 4.1),
        ];
        for &(theta, reflected) in &[(0.8, false), (2.4, true), (-1.3, true)] {
            let hidden = RigidTransform::new(theta, reflected, Vec2::new(17.0, -42.5));
            let target: Vec<Point2> = source.iter().map(|&p| hidden.apply(p)).collect();

            let fit = fit_rigid_transform(&source, &target, true).unwrap();
            assert!(fit.rmse < 1e-9, "rmse {} for theta {theta}", fit.rmse);
            assert!(
                fit.residuals.iter().all(|&r| r < 1e-9),
                "residuals {:?} for theta {theta}",
                fit.residuals
            );
            assert_eq!(fit.transform.is_reflected(), reflected);

            // The recovered map must agree with the hidden transform off the
            // fitted correspondences too.
            for &probe in &[Point2::new(100.0, -50.0), Point2::new(-8.0, 33.3)] {
                let err = fit.transform.apply(probe).distance(hidden.apply(probe));
                assert!(err < 1e-8, "probe error {err} for theta {theta}");
            }
        }
    }

    #[test]
    fn recovers_pure_translation() {
        let src = square();
        let shift = Vec2::new(10.0, -3.0);
        let tgt: Vec<Point2> = src.iter().map(|&p| p + shift).collect();
        let fit = fit_rigid_transform(&src, &tgt, true).unwrap();
        assert!(fit.rmse < 1e-12);
        assert!((fit.transform.translation_vec() - shift).norm() < 1e-9);
        assert!(!fit.transform.is_reflected());
    }

    #[test]
    fn recovers_rotation_translation() {
        let src = square();
        let hidden = RigidTransform::new(1.1, false, Vec2::new(-4.0, 2.0));
        let tgt: Vec<Point2> = src.iter().map(|&p| hidden.apply(p)).collect();
        let fit = fit_rigid_transform(&src, &tgt, true).unwrap();
        assert!(fit.rmse < 1e-10, "rmse {}", fit.rmse);
        assert!(!fit.transform.is_reflected());
    }

    #[test]
    fn recovers_reflection() {
        let src = square();
        let hidden = RigidTransform::new(-0.4, true, Vec2::new(1.0, 7.0));
        let tgt: Vec<Point2> = src.iter().map(|&p| hidden.apply(p)).collect();
        let fit = fit_rigid_transform(&src, &tgt, true).unwrap();
        assert!(fit.rmse < 1e-10, "rmse {}", fit.rmse);
        assert!(fit.transform.is_reflected());
    }

    #[test]
    fn reflection_disallowed_fits_worse() {
        let src = square();
        let hidden = RigidTransform::new(0.3, true, Vec2::ZERO);
        let tgt: Vec<Point2> = src.iter().map(|&p| hidden.apply(p)).collect();
        let with = fit_rigid_transform(&src, &tgt, true).unwrap();
        let without = fit_rigid_transform(&src, &tgt, false).unwrap();
        assert!(with.rmse < 1e-10);
        assert!(without.rmse > 0.1, "rmse {}", without.rmse);
        assert!(!without.transform.is_reflected());
    }

    #[test]
    fn noisy_fit_close_to_truth() {
        let src = square();
        let hidden = RigidTransform::new(2.0, false, Vec2::new(5.0, 5.0));
        // Perturb targets slightly and check the fit error stays small.
        let tgt: Vec<Point2> = src
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let q = hidden.apply(p);
                Point2::new(q.x + 0.01 * (i as f64 - 1.5), q.y - 0.01 * (i as f64 - 1.5))
            })
            .collect();
        let fit = fit_rigid_transform(&src, &tgt, true).unwrap();
        assert!(fit.rmse < 0.05, "rmse {}", fit.rmse);
        assert!(fit.residuals.iter().all(|&r| r < 0.1));
    }

    #[test]
    fn error_cases() {
        let pts = square();
        assert!(matches!(
            fit_rigid_transform(&pts, &pts[..3], true),
            Err(GeomError::LengthMismatch { .. })
        ));
        assert!(matches!(
            fit_rigid_transform(&pts[..1], &pts[..1], true),
            Err(GeomError::TooFewPoints { .. })
        ));
        let same = vec![Point2::new(1.0, 1.0); 4];
        assert!(matches!(
            fit_rigid_transform(&same, &pts, true),
            Err(GeomError::Degenerate(_))
        ));
        assert!(matches!(
            fit_rigid_transform(&pts, &same, true),
            Err(GeomError::Degenerate(_))
        ));
    }

    #[test]
    fn uniform_weights_reproduce_unweighted_fit_bitwise() {
        let src = vec![
            Point2::new(0.0, 0.0),
            Point2::new(9.1, 0.3),
            Point2::new(4.4, 8.2),
            Point2::new(-3.7, 5.6),
        ];
        let hidden = RigidTransform::new(1.2, true, Vec2::new(3.0, -2.0));
        let tgt: Vec<Point2> = src
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let q = hidden.apply(p);
                Point2::new(q.x + 0.05 * i as f64, q.y - 0.03 * i as f64)
            })
            .collect();
        let plain = fit_rigid_transform(&src, &tgt, true).unwrap();
        let weighted = fit_rigid_transform_weighted(&src, &tgt, &[1.0; 4], true).unwrap();
        assert_eq!(plain, weighted, "uniform weights must change nothing");
    }

    #[test]
    fn weights_pull_the_fit_toward_reliable_points() {
        // Three exact correspondences plus one grossly corrupted point:
        // down-weighting the outlier must beat the uniform fit.
        let src = vec![
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(0.0, 10.0),
            Point2::new(10.0, 10.0),
        ];
        let hidden = RigidTransform::new(0.7, false, Vec2::new(4.0, 1.0));
        let mut tgt: Vec<Point2> = src.iter().map(|&p| hidden.apply(p)).collect();
        tgt[3] = Point2::new(tgt[3].x + 8.0, tgt[3].y - 6.0); // corrupted
        let uniform = fit_rigid_transform(&src, &tgt, true).unwrap();
        let weighted =
            fit_rigid_transform_weighted(&src, &tgt, &[1.0, 1.0, 1.0, 0.01], true).unwrap();
        let err = |t: &RigidTransform| {
            src[..3]
                .iter()
                .map(|&p| t.apply(p).distance(hidden.apply(p)))
                .sum::<f64>()
        };
        assert!(
            err(&weighted.transform) < 0.2 * err(&uniform.transform),
            "weighted {} vs uniform {}",
            err(&weighted.transform),
            err(&uniform.transform)
        );
    }

    #[test]
    fn weighted_error_cases() {
        let src = square();
        let tgt = square();
        assert!(matches!(
            fit_rigid_transform_weighted(&src, &tgt, &[1.0; 3], true),
            Err(GeomError::LengthMismatch { .. })
        ));
        assert!(matches!(
            fit_rigid_transform_weighted(&src, &tgt, &[1.0, -1.0, 1.0, 1.0], true),
            Err(GeomError::Degenerate(_))
        ));
        assert!(matches!(
            fit_rigid_transform_weighted(&src, &tgt, &[1.0, f64::NAN, 1.0, 1.0], true),
            Err(GeomError::Degenerate(_))
        ));
        assert!(matches!(
            fit_rigid_transform_weighted(&src, &tgt, &[0.0; 4], true),
            Err(GeomError::Degenerate(_))
        ));
    }

    #[test]
    fn two_point_fit_is_exact() {
        let src = [Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)];
        let hidden = RigidTransform::new(0.9, false, Vec2::new(2.0, 2.0));
        let tgt: Vec<Point2> = src.iter().map(|&p| hidden.apply(p)).collect();
        let fit = fit_rigid_transform(&src, &tgt, true).unwrap();
        assert!(fit.rmse < 1e-10);
    }

    proptest! {
        /// Fitting exactly transformed points recovers a zero-residual fit
        /// for any hidden rigid transform and any non-degenerate point set.
        #[test]
        fn prop_exact_recovery(
            theta in -3.1f64..3.1,
            reflected in proptest::bool::ANY,
            tx in -50.0f64..50.0,
            ty in -50.0f64..50.0,
            pts in proptest::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 3..20),
        ) {
            let source: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            // Ensure non-degenerate spread.
            let mu = centroid(&source).unwrap();
            prop_assume!(source.iter().map(|p| p.distance_sq(mu)).sum::<f64>() > 1e-6);
            let hidden = RigidTransform::new(theta, reflected, Vec2::new(tx, ty));
            let target: Vec<Point2> = source.iter().map(|&p| hidden.apply(p)).collect();
            let fit = fit_rigid_transform(&source, &target, true).unwrap();
            prop_assert!(fit.rmse < 1e-7, "rmse {}", fit.rmse);
        }

        /// The fitted transform is never worse than plain centroid
        /// translation.
        #[test]
        fn prop_at_least_as_good_as_translation(
            pairs in proptest::collection::vec(
                ((-20.0f64..20.0, -20.0f64..20.0), (-20.0f64..20.0, -20.0f64..20.0)), 3..15),
        ) {
            let source: Vec<Point2> = pairs.iter().map(|&((x, y), _)| Point2::new(x, y)).collect();
            let target: Vec<Point2> = pairs.iter().map(|&(_, (x, y))| Point2::new(x, y)).collect();
            let ms = centroid(&source).unwrap();
            let mt = centroid(&target).unwrap();
            prop_assume!(source.iter().map(|p| p.distance_sq(ms)).sum::<f64>() > 1e-6);
            prop_assume!(target.iter().map(|p| p.distance_sq(mt)).sum::<f64>() > 1e-6);
            let fit = fit_rigid_transform(&source, &target, true).unwrap();
            let translation_sse: f64 = source.iter().zip(&target)
                .map(|(&s, &t)| ((s - ms) - (t - mt)).norm_sq())
                .sum();
            prop_assert!(fit.sse <= translation_sse + 1e-9);
        }
    }
}
