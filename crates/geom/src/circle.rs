//! Circles and circle–circle intersection.
//!
//! Multilateration draws "an imaginary circle at each anchor `a` of radius
//! `d_a`" (Section 4.1); with noisy distance measurements these circles no
//! longer meet in one point, and the paper's *intersection consistency check*
//! (Section 4.1.2) inspects the cluster structure of all pairwise circle
//! intersection points. This module provides the underlying primitive.

use crate::Point2;
use serde::{Deserialize, Serialize};

/// A circle: anchor position plus measured range.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Circle {
    /// Center of the circle (the anchor's position).
    pub center: Point2,
    /// Radius (the measured distance), must be non-negative.
    pub radius: f64,
}

/// Result of intersecting two circles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CircleIntersection {
    /// The circles do not meet: either too far apart or nested.
    None,
    /// The circles touch at a single point.
    Tangent(Point2),
    /// The circles cross at two points.
    Two(Point2, Point2),
    /// The circles are (numerically) identical; every point is shared.
    Coincident,
}

impl Circle {
    /// Creates a circle.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    pub fn new(center: Point2, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "circle radius must be finite and non-negative, got {radius}"
        );
        Circle { center, radius }
    }

    /// Intersects two circles.
    ///
    /// Tangency is detected with an absolute tolerance of `1e-9` relative to
    /// the circle scale; callers performing the consistency check should rely
    /// on [`CircleIntersection::points`] and cluster with their own radius.
    ///
    /// # Example
    ///
    /// ```
    /// use rl_geom::{Circle, CircleIntersection, Point2};
    ///
    /// let a = Circle::new(Point2::new(0.0, 0.0), 5.0);
    /// let b = Circle::new(Point2::new(8.0, 0.0), 5.0);
    /// match a.intersect(&b) {
    ///     CircleIntersection::Two(p, q) => {
    ///         assert_eq!(p.x, 4.0);
    ///         assert_eq!(q.x, 4.0);
    ///         assert_eq!(p.y, -q.y);
    ///     }
    ///     other => panic!("expected two intersections, got {other:?}"),
    /// }
    /// ```
    pub fn intersect(&self, other: &Circle) -> CircleIntersection {
        let delta = other.center - self.center;
        let d = delta.norm();
        let scale = self.radius.max(other.radius).max(d).max(1.0);
        let eps = 1e-9 * scale;

        if d < eps && (self.radius - other.radius).abs() < eps {
            return if self.radius < eps {
                // Two identical points.
                CircleIntersection::Tangent(self.center)
            } else {
                CircleIntersection::Coincident
            };
        }
        if d > self.radius + other.radius + eps {
            return CircleIntersection::None;
        }
        if d < (self.radius - other.radius).abs() - eps {
            return CircleIntersection::None;
        }
        if d < eps {
            // Concentric with different radii.
            return CircleIntersection::None;
        }

        // Distance from self.center to the radical line along delta.
        let a = (d * d + self.radius * self.radius - other.radius * other.radius) / (2.0 * d);
        let h_sq = self.radius * self.radius - a * a;
        let u = delta * (1.0 / d);
        let base = self.center + u * a;
        if h_sq <= eps * eps {
            return CircleIntersection::Tangent(base);
        }
        let h = h_sq.sqrt();
        let off = u.perp() * h;
        CircleIntersection::Two(base + off, base - off)
    }
}

impl CircleIntersection {
    /// The discrete intersection points (empty for `None` / `Coincident`).
    pub fn points(&self) -> Vec<Point2> {
        match *self {
            CircleIntersection::None | CircleIntersection::Coincident => vec![],
            CircleIntersection::Tangent(p) => vec![p],
            CircleIntersection::Two(p, q) => vec![p, q],
        }
    }
}

/// Computes all pairwise intersection points of a set of circles, tagged with
/// the indices of the two circles that produced them.
///
/// This is the raw material of the multilateration consistency check: each
/// entry is `(i, j, point)` with `i < j`.
pub fn pairwise_intersections(circles: &[Circle]) -> Vec<(usize, usize, Point2)> {
    let mut out = Vec::new();
    for i in 0..circles.len() {
        for j in (i + 1)..circles.len() {
            for p in circles[i].intersect(&circles[j]).points() {
                out.push((i, j, p));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Whether `p` lies on `c` within `tol`.
    fn on_boundary(c: &Circle, p: Point2, tol: f64) -> bool {
        (c.center.distance(p) - c.radius).abs() <= tol
    }

    #[test]
    fn two_point_intersection_symmetric() {
        let a = Circle::new(Point2::new(0.0, 0.0), 5.0);
        let b = Circle::new(Point2::new(8.0, 0.0), 5.0);
        match a.intersect(&b) {
            CircleIntersection::Two(p, q) => {
                assert!((p.x - 4.0).abs() < 1e-12);
                assert!((q.x - 4.0).abs() < 1e-12);
                assert!((p.y - 3.0).abs() < 1e-12);
                assert!((q.y + 3.0).abs() < 1e-12);
            }
            other => panic!("expected Two, got {other:?}"),
        }
    }

    #[test]
    fn intersection_is_commutative() {
        let a = Circle::new(Point2::new(1.0, 2.0), 3.0);
        let b = Circle::new(Point2::new(4.0, -1.0), 2.5);
        let pa: Vec<Point2> = a.intersect(&b).points();
        let mut pb: Vec<Point2> = b.intersect(&a).points();
        pb.reverse(); // points come out in mirrored order
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert!(x.distance(*y) < 1e-9);
        }
    }

    #[test]
    fn external_tangency() {
        let a = Circle::new(Point2::new(0.0, 0.0), 2.0);
        let b = Circle::new(Point2::new(5.0, 0.0), 3.0);
        match a.intersect(&b) {
            CircleIntersection::Tangent(p) => {
                assert!(p.distance(Point2::new(2.0, 0.0)) < 1e-9);
            }
            other => panic!("expected Tangent, got {other:?}"),
        }
    }

    #[test]
    fn internal_tangency() {
        let a = Circle::new(Point2::new(0.0, 0.0), 5.0);
        let b = Circle::new(Point2::new(2.0, 0.0), 3.0);
        match a.intersect(&b) {
            CircleIntersection::Tangent(p) => {
                assert!(p.distance(Point2::new(5.0, 0.0)) < 1e-9);
            }
            other => panic!("expected Tangent, got {other:?}"),
        }
    }

    #[test]
    fn disjoint_and_nested() {
        let a = Circle::new(Point2::new(0.0, 0.0), 1.0);
        let far = Circle::new(Point2::new(10.0, 0.0), 1.0);
        assert_eq!(a.intersect(&far), CircleIntersection::None);
        let inner = Circle::new(Point2::new(0.1, 0.0), 0.2);
        assert_eq!(a.intersect(&inner), CircleIntersection::None);
        let concentric = Circle::new(Point2::new(0.0, 0.0), 2.0);
        assert_eq!(a.intersect(&concentric), CircleIntersection::None);
    }

    #[test]
    fn coincident_circles() {
        let a = Circle::new(Point2::new(3.0, 4.0), 2.0);
        assert_eq!(a.intersect(&a), CircleIntersection::Coincident);
        assert!(a.intersect(&a).points().is_empty());
    }

    #[test]
    fn degenerate_zero_radius() {
        let p = Circle::new(Point2::new(1.0, 1.0), 0.0);
        match p.intersect(&p) {
            CircleIntersection::Tangent(q) => assert_eq!(q, Point2::new(1.0, 1.0)),
            other => panic!("expected point tangency, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "radius must be finite")]
    fn negative_radius_panics() {
        let _ = Circle::new(Point2::ORIGIN, -1.0);
    }

    #[test]
    fn pairwise_intersections_count_and_tags() {
        // Three mutually intersecting circles -> 3 pairs x 2 points.
        let circles = [
            Circle::new(Point2::new(0.0, 0.0), 2.0),
            Circle::new(Point2::new(2.0, 0.0), 2.0),
            Circle::new(Point2::new(1.0, 1.5), 2.0),
        ];
        let pts = pairwise_intersections(&circles);
        assert_eq!(pts.len(), 6);
        for &(i, j, p) in &pts {
            assert!(i < j);
            assert!(on_boundary(&circles[i], p, 1e-6));
            assert!(on_boundary(&circles[j], p, 1e-6));
        }
    }

    proptest! {
        /// Every reported intersection point lies on both circles.
        #[test]
        fn prop_points_on_both_circles(
            ax in -50.0f64..50.0, ay in -50.0f64..50.0, ar in 0.1f64..30.0,
            bx in -50.0f64..50.0, by in -50.0f64..50.0, br in 0.1f64..30.0,
        ) {
            let a = Circle::new(Point2::new(ax, ay), ar);
            let b = Circle::new(Point2::new(bx, by), br);
            for p in a.intersect(&b).points() {
                prop_assert!(on_boundary(&a, p, 1e-6 * (ar + br + 1.0)));
                prop_assert!(on_boundary(&b, p, 1e-6 * (ar + br + 1.0)));
            }
        }

        /// Circles around two anchors at the true distances of a hidden node
        /// intersect at (at least) the hidden node.
        #[test]
        fn prop_trilateration_geometry(
            nx in -20.0f64..20.0, ny in -20.0f64..20.0,
            ax in -20.0f64..20.0, ay in -20.0f64..20.0,
            bx in -20.0f64..20.0, by in -20.0f64..20.0,
        ) {
            let node = Point2::new(nx, ny);
            let a = Point2::new(ax, ay);
            let b = Point2::new(bx, by);
            prop_assume!(a.distance(b) > 1e-3);
            prop_assume!(node.distance(a) > 1e-3 && node.distance(b) > 1e-3);
            let ca = Circle::new(a, a.distance(node));
            let cb = Circle::new(b, b.distance(node));
            let pts = ca.intersect(&cb).points();
            prop_assert!(!pts.is_empty());
            let closest = pts.iter().map(|p| p.distance(node)).fold(f64::INFINITY, f64::min);
            prop_assert!(closest < 1e-5);
        }
    }
}
