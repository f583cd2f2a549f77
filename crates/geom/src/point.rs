//! Points and vectors in the plane.

use serde::{Deserialize, Serialize};

/// A position in the plane, in meters.
///
/// # Example
///
/// ```
/// use rl_geom::{Point2, Vec2};
///
/// let p = Point2::new(1.0, 2.0) + Vec2::new(0.5, -0.5);
/// assert_eq!(p, Point2::new(1.5, 1.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point2 {
    /// Easting coordinate (m).
    pub x: f64,
    /// Northing coordinate (m).
    pub y: f64,
}

/// A displacement in the plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Vec2 {
    /// X component (m).
    pub x: f64,
    /// Y component (m).
    pub y: f64,
}

impl Point2 {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point2 = Point2 { x: 0.0, y: 0.0 };

    /// Creates a point from coordinates.
    pub const fn new(x: f64, y: f64) -> Self {
        Point2 { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Point2) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to `other` (no square root).
    pub fn distance_sq(self, other: Point2) -> f64 {
        (self - other).norm_sq()
    }

    /// Interprets the point as a displacement from the origin.
    pub fn to_vec(self) -> Vec2 {
        Vec2 {
            x: self.x,
            y: self.y,
        }
    }

    /// Whether both coordinates are finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Vec2 {
    /// The zero vector.
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    /// Creates a vector from components.
    pub const fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.x.hypot(self.y)
    }

    /// Squared norm.
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Returns the perpendicular vector (counterclockwise quarter-turn).
    pub fn perp(self) -> Vec2 {
        Vec2 {
            x: -self.y,
            y: self.x,
        }
    }

    /// Angle of the vector from the +x axis, in `(-pi, pi]`.
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }
}

impl core::ops::Sub for Point2 {
    type Output = Vec2;
    fn sub(self, rhs: Point2) -> Vec2 {
        Vec2 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl core::ops::Add<Vec2> for Point2 {
    type Output = Point2;
    fn add(self, rhs: Vec2) -> Point2 {
        Point2 {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
        }
    }
}

impl core::ops::Sub<Vec2> for Point2 {
    type Output = Point2;
    fn sub(self, rhs: Vec2) -> Point2 {
        Point2 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl core::ops::Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2 {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
        }
    }
}

impl core::ops::Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2 {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl core::ops::Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, s: f64) -> Vec2 {
        Vec2 {
            x: self.x * s,
            y: self.y * s,
        }
    }
}

impl core::ops::Neg for Vec2 {
    type Output = Vec2;
    fn neg(self) -> Vec2 {
        Vec2 {
            x: -self.x,
            y: -self.y,
        }
    }
}

impl From<(f64, f64)> for Point2 {
    fn from((x, y): (f64, f64)) -> Self {
        Point2 { x, y }
    }
}

impl From<(f64, f64)> for Vec2 {
    fn from((x, y): (f64, f64)) -> Self {
        Vec2 { x, y }
    }
}

impl core::fmt::Display for Point2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl core::fmt::Display for Vec2 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "<{:.3}, {:.3}>", self.x, self.y)
    }
}

/// Centroid (center of mass) of a point set, `None` when empty.
///
/// The distributed transform method of Section 4.3.1 views translation
/// between coordinate systems as translation between the centers of mass of
/// the shared-neighbor sets.
pub fn centroid(points: &[Point2]) -> Option<Point2> {
    if points.is_empty() {
        return None;
    }
    let n = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
    Some(Point2::new(sx / n, sy / n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn distance_and_norm() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
        assert_eq!(a.distance_sq(b), 25.0);
        assert_eq!((b - a).norm(), 5.0);
    }

    #[test]
    fn arithmetic_ops() {
        let p = Point2::new(1.0, 1.0);
        let v = Vec2::new(2.0, -1.0);
        assert_eq!(p + v, Point2::new(3.0, 0.0));
        assert_eq!(p - v, Point2::new(-1.0, 2.0));
        assert_eq!(v + v, Vec2::new(4.0, -2.0));
        assert_eq!(v - v, Vec2::ZERO);
        assert_eq!(v * 2.0, Vec2::new(4.0, -2.0));
        assert_eq!(-v, Vec2::new(-2.0, 1.0));
    }

    #[test]
    fn dot_cross_perp() {
        let a = Vec2::new(1.0, 0.0);
        let b = Vec2::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
        assert_eq!(a.perp(), b);
    }

    #[test]
    fn angle_of_axes() {
        assert_eq!(Vec2::new(1.0, 0.0).angle(), 0.0);
        assert!((Vec2::new(0.0, 1.0).angle() - core::f64::consts::FRAC_PI_2).abs() < 1e-15);
    }

    #[test]
    fn centroid_basic() {
        assert_eq!(centroid(&[]), None);
        let c = centroid(&[
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(1.0, 3.0),
        ])
        .unwrap();
        assert!((c.x - 1.0).abs() < 1e-15);
        assert!((c.y - 1.0).abs() < 1e-15);
    }

    #[test]
    fn conversions_and_display() {
        let p: Point2 = (1.0, 2.0).into();
        let v: Vec2 = (3.0, 4.0).into();
        assert_eq!(p.to_vec(), Vec2::new(1.0, 2.0));
        assert_eq!(p.to_string(), "(1.000, 2.000)");
        assert_eq!(v.to_string(), "<3.000, 4.000>");
        assert!(p.is_finite());
        assert!(!Point2::new(f64::NAN, 0.0).is_finite());
    }

    proptest! {
        #[test]
        fn prop_triangle_inequality(
            ax in -100.0f64..100.0, ay in -100.0f64..100.0,
            bx in -100.0f64..100.0, by in -100.0f64..100.0,
            cx in -100.0f64..100.0, cy in -100.0f64..100.0,
        ) {
            let a = Point2::new(ax, ay);
            let b = Point2::new(bx, by);
            let c = Point2::new(cx, cy);
            prop_assert!(a.distance(c) <= a.distance(b) + b.distance(c) + 1e-9);
        }

        #[test]
        fn prop_centroid_within_bbox(
            pts in proptest::collection::vec((-50.0f64..50.0, -50.0f64..50.0), 1..30)
        ) {
            let points: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let c = centroid(&points).unwrap();
            let (min_x, max_x) = points.iter().fold((f64::INFINITY, f64::NEG_INFINITY),
                |(lo, hi), p| (lo.min(p.x), hi.max(p.x)));
            prop_assert!(c.x >= min_x - 1e-9 && c.x <= max_x + 1e-9);
        }
    }
}
