//! Rigid transforms between planar coordinate systems.
//!
//! Section 4.3.1 of the paper expresses the transform between two local
//! coordinate systems as a composition of rotation, optional reflection and
//! translation, written in homogeneous coordinates with **row vectors**:
//!
//! ```text
//! [x, y, 1] = [u, v, 1] · | cos θ   -sin θ   0 |
//!                         | f sin θ  f cos θ 0 |
//!                         | tx       ty      1 |
//! ```
//!
//! with rotation angle `θ`, reflection factor `f ∈ {1, -1}` and translation
//! `(tx, ty)`. [`RigidTransform`] stores exactly these parameters and
//! provides application, composition and inversion.

use crate::{Point2, Vec2};
use serde::{Deserialize, Serialize};

/// A distance-preserving map of the plane: rotation by `theta`, reflection
/// of the *y* input axis when `reflected`, then translation.
///
/// Applying the transform to `(u, v)` yields, following the paper's matrix:
///
/// ```text
/// x = u·cosθ + v·f·sinθ + tx
/// y = -u·sinθ + v·f·cosθ + ty
/// ```
///
/// # Example
///
/// ```
/// use rl_geom::{Point2, RigidTransform, Vec2};
///
/// // Quarter-turn plus a shift; distances are preserved.
/// let t = RigidTransform::new(std::f64::consts::FRAC_PI_2, false, Vec2::new(1.0, 0.0));
/// let a = t.apply(Point2::new(1.0, 0.0));
/// let b = t.apply(Point2::new(0.0, 1.0));
/// let d = Point2::new(1.0, 0.0).distance(Point2::new(0.0, 1.0));
/// assert!((a.distance(b) - d).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RigidTransform {
    theta: f64,
    reflected: bool,
    translation: Vec2,
}

impl RigidTransform {
    /// The identity transform.
    pub const IDENTITY: RigidTransform = RigidTransform {
        theta: 0.0,
        reflected: false,
        translation: Vec2::ZERO,
    };

    /// Creates a transform with rotation `theta` (radians), reflection flag
    /// and translation.
    pub fn new(theta: f64, reflected: bool, translation: Vec2) -> Self {
        RigidTransform {
            theta,
            reflected,
            translation,
        }
    }

    /// Pure translation.
    pub fn translation(t: Vec2) -> Self {
        RigidTransform::new(0.0, false, t)
    }

    /// Rotation angle in radians.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Whether the transform includes a reflection (`f = -1` in the paper).
    pub fn is_reflected(&self) -> bool {
        self.reflected
    }

    /// Translation component.
    pub fn translation_vec(&self) -> Vec2 {
        self.translation
    }

    /// The paper's reflection factor `f`: `-1.0` if reflected else `1.0`.
    pub fn reflection_factor(&self) -> f64 {
        if self.reflected {
            -1.0
        } else {
            1.0
        }
    }

    /// Applies the transform to a point.
    pub fn apply(&self, p: Point2) -> Point2 {
        let (s, c) = self.theta.sin_cos();
        let f = self.reflection_factor();
        Point2 {
            x: p.x * c + p.y * f * s + self.translation.x,
            y: -p.x * s + p.y * f * c + self.translation.y,
        }
    }

    /// Applies the transform to a displacement (no translation).
    pub fn apply_vec(&self, v: Vec2) -> Vec2 {
        let (s, c) = self.theta.sin_cos();
        let f = self.reflection_factor();
        Vec2 {
            x: v.x * c + v.y * f * s,
            y: -v.x * s + v.y * f * c,
        }
    }

    /// Returns the transform as the paper's 3×3 row-vector homogeneous
    /// matrix, row-major: `[x, y, 1] = [u, v, 1] · M`.
    pub fn to_matrix(&self) -> [[f64; 3]; 3] {
        let (s, c) = self.theta.sin_cos();
        let f = self.reflection_factor();
        [
            [c, -s, 0.0],
            [f * s, f * c, 0.0],
            [self.translation.x, self.translation.y, 1.0],
        ]
    }

    /// Builds a transform from the paper's 3×3 row-vector matrix.
    ///
    /// Returns `None` if the matrix is not a rigid row-vector homogeneous
    /// transform (orthonormal upper-left block, last column `(0, 0, 1)`),
    /// within tolerance `1e-9`.
    pub fn from_matrix(m: &[[f64; 3]; 3]) -> Option<Self> {
        let eps = 1e-9;
        if (m[0][2]).abs() > eps || (m[1][2]).abs() > eps || (m[2][2] - 1.0).abs() > eps {
            return None;
        }
        let r0 = Vec2::new(m[0][0], m[0][1]);
        let r1 = Vec2::new(m[1][0], m[1][1]);
        if (r0.norm() - 1.0).abs() > eps || (r1.norm() - 1.0).abs() > eps || r0.dot(r1).abs() > eps
        {
            return None;
        }
        // det of the 2x2 block: +1 without reflection, -1 with.
        let det = m[0][0] * m[1][1] - m[0][1] * m[1][0];
        let reflected = det < 0.0;
        // First row is (cos θ, -sin θ) in both cases.
        let theta = (-m[0][1]).atan2(m[0][0]);
        Some(RigidTransform::new(
            theta,
            reflected,
            Vec2::new(m[2][0], m[2][1]),
        ))
    }

    /// Composition: applies `self` first, then `next`.
    ///
    /// `self.then(&next).apply(p) == next.apply(self.apply(p))`.
    pub fn then(&self, next: &RigidTransform) -> RigidTransform {
        // Compose via matrices, then re-extract parameters: with row vectors,
        // p * M_self * M_next.
        let a = self.to_matrix();
        let b = next.to_matrix();
        let mut m = [[0.0; 3]; 3];
        for i in 0..3 {
            for j in 0..3 {
                for (k, bk) in b.iter().enumerate() {
                    m[i][j] += a[i][k] * bk[j];
                }
            }
        }
        RigidTransform::from_matrix(&m).expect("composition of rigid transforms is rigid")
    }
}

impl Default for RigidTransform {
    fn default() -> Self {
        RigidTransform::IDENTITY
    }
}

impl core::fmt::Display for RigidTransform {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "RigidTransform(theta={:.4} rad, f={}, t={})",
            self.theta,
            self.reflection_factor(),
            self.translation
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: Point2, b: Point2) -> bool {
        a.distance(b) < 1e-9
    }

    #[test]
    fn identity_fixes_points() {
        let p = Point2::new(3.0, -2.0);
        assert_eq!(RigidTransform::IDENTITY.apply(p), p);
        assert_eq!(RigidTransform::default(), RigidTransform::IDENTITY);
    }

    #[test]
    fn translation_only() {
        let t = RigidTransform::translation(Vec2::new(1.0, 2.0));
        assert!(close(t.apply(Point2::ORIGIN), Point2::new(1.0, 2.0)));
    }

    #[test]
    fn rotation_matches_paper_convention() {
        // Paper matrix with θ = 90°, f = 1: [u,v,1]·M = (u·0 + v·1, -u·1 + v·0)
        // so (1, 0) -> (0, -1): the row-vector convention rotates clockwise
        // for positive θ.
        let t = RigidTransform::new(core::f64::consts::FRAC_PI_2, false, Vec2::ZERO);
        let p = t.apply(Point2::new(1.0, 0.0));
        assert!(close(p, Point2::new(0.0, -1.0)), "got {p}");
    }

    #[test]
    fn reflection_flips_orientation() {
        let t = RigidTransform::new(0.0, true, Vec2::ZERO);
        // f = -1, θ = 0: (u, v) -> (u, -v).
        assert!(close(
            t.apply(Point2::new(2.0, 3.0)),
            Point2::new(2.0, -3.0)
        ));
        // Orientation of a triangle flips.
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(1.0, 0.0);
        let c = Point2::new(0.0, 1.0);
        let orientation = |a: Point2, b: Point2, c: Point2| (b - a).cross(c - a).signum();
        assert_eq!(
            orientation(t.apply(a), t.apply(b), t.apply(c)),
            -orientation(a, b, c)
        );
    }

    #[test]
    fn matrix_roundtrip() {
        let t = RigidTransform::new(0.7, true, Vec2::new(-4.0, 9.0));
        let m = t.to_matrix();
        let back = RigidTransform::from_matrix(&m).unwrap();
        assert!((back.theta() - t.theta()).abs() < 1e-12);
        assert_eq!(back.is_reflected(), t.is_reflected());
        assert!((back.translation_vec() - t.translation_vec()).norm() < 1e-12);
    }

    #[test]
    fn from_matrix_rejects_non_rigid() {
        let scaled = [[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]];
        assert_eq!(RigidTransform::from_matrix(&scaled), None);
        let sheared = [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        assert_eq!(RigidTransform::from_matrix(&sheared), None);
        let bad_col = [[1.0, 0.0, 0.3], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
        assert_eq!(RigidTransform::from_matrix(&bad_col), None);
    }

    #[test]
    fn composition_order() {
        let rot = RigidTransform::new(0.3, false, Vec2::ZERO);
        let shift = RigidTransform::translation(Vec2::new(5.0, 0.0));
        let p = Point2::new(1.0, 1.0);
        let composed = rot.then(&shift);
        assert!(close(composed.apply(p), shift.apply(rot.apply(p))));
        let other_order = shift.then(&rot);
        assert!(close(other_order.apply(p), rot.apply(shift.apply(p))));
        assert!(!close(composed.apply(p), other_order.apply(p)));
    }

    #[test]
    fn display_mentions_parameters() {
        let t = RigidTransform::new(0.5, true, Vec2::new(1.0, 2.0));
        let s = t.to_string();
        assert!(s.contains("0.5000"));
        assert!(s.contains("f=-1"));
    }

    proptest! {
        #[test]
        fn prop_preserves_distances(
            theta in -6.3f64..6.3,
            reflected in proptest::bool::ANY,
            tx in -100.0f64..100.0, ty in -100.0f64..100.0,
            ax in -50.0f64..50.0, ay in -50.0f64..50.0,
            bx in -50.0f64..50.0, by in -50.0f64..50.0,
        ) {
            let t = RigidTransform::new(theta, reflected, Vec2::new(tx, ty));
            let a = Point2::new(ax, ay);
            let b = Point2::new(bx, by);
            prop_assert!((t.apply(a).distance(t.apply(b)) - a.distance(b)).abs() < 1e-9);
        }

        #[test]
        fn prop_composition_associative(
            t1 in (-3.0f64..3.0, proptest::bool::ANY, -10.0f64..10.0, -10.0f64..10.0),
            t2 in (-3.0f64..3.0, proptest::bool::ANY, -10.0f64..10.0, -10.0f64..10.0),
            t3 in (-3.0f64..3.0, proptest::bool::ANY, -10.0f64..10.0, -10.0f64..10.0),
            px in -20.0f64..20.0, py in -20.0f64..20.0,
        ) {
            let mk = |(th, r, x, y): (f64, bool, f64, f64)| RigidTransform::new(th, r, Vec2::new(x, y));
            let (a, b, c) = (mk(t1), mk(t2), mk(t3));
            let p = Point2::new(px, py);
            let left = a.then(&b).then(&c).apply(p);
            let right = a.then(&b.then(&c)).apply(p);
            prop_assert!(left.distance(right) < 1e-8);
        }
    }
}
