//! The intersection consistency check (Section 4.1.2).
//!
//! Errors in distance measurements keep the anchors' range circles from
//! meeting in one point; instead, consistent measurements produce a tight
//! *cluster* of pairwise circle-intersection points around the node being
//! localized. The check "computes intersection points of all pairs of
//! circles and drops from consideration those anchors which have no
//! intersection points close to other intersection points (e.g., beyond 1 m
//! range)". Near-collinear anchors — whose intersections are wildly
//! displaced by small errors (Figure 11) — are filtered the same way.

use rl_geom::{pairwise_intersections, Circle, Point2};
use serde::{Deserialize, Serialize};

/// Configuration of the intersection consistency check.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IntersectionConsistency {
    /// Distance within which two intersection points count as "close"
    /// (1 m in the paper).
    pub cluster_radius_m: f64,
}

impl Default for IntersectionConsistency {
    fn default() -> Self {
        IntersectionConsistency {
            cluster_radius_m: 1.0,
        }
    }
}

/// One anchor's range observation: known position plus measured distance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RangeToAnchor {
    /// Anchor position.
    pub anchor: Point2,
    /// Measured distance to the node being localized, meters.
    pub distance: f64,
    /// Confidence weight `w(c_a)`.
    pub weight: f64,
}

impl IntersectionConsistency {
    /// Returns the indices of anchors that pass the check.
    ///
    /// An anchor passes when at least one intersection point of its range
    /// circle lies within `cluster_radius_m` of an intersection point
    /// produced by a *different* circle pair. With fewer than three
    /// observations the check is vacuous and every anchor passes.
    pub fn filter(&self, observations: &[RangeToAnchor]) -> Vec<usize> {
        if observations.len() < 3 {
            return (0..observations.len()).collect();
        }
        let circles: Vec<Circle> = observations
            .iter()
            .map(|o| Circle::new(o.anchor, o.distance.max(0.0)))
            .collect();
        let points = pairwise_intersections(&circles);

        let mut keep = Vec::new();
        for a in 0..observations.len() {
            let mine: Vec<&(usize, usize, Point2)> = points
                .iter()
                .filter(|(i, j, _)| *i == a || *j == a)
                .collect();
            let close_to_other = mine.iter().any(|(i, j, p)| {
                points.iter().any(|(oi, oj, q)| {
                    (oi, oj) != (i, j) && p.distance(*q) <= self.cluster_radius_m
                })
            });
            if close_to_other {
                keep.push(a);
            }
        }
        keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(x: f64, y: f64, d: f64) -> RangeToAnchor {
        RangeToAnchor {
            anchor: Point2::new(x, y),
            distance: d,
            weight: 1.0,
        }
    }

    /// Anchors around a hidden node at (5, 5) with exact distances.
    fn consistent_observations() -> Vec<RangeToAnchor> {
        let node = Point2::new(5.0, 5.0);
        [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0), (10.0, 10.0)]
            .iter()
            .map(|&(x, y)| obs(x, y, Point2::new(x, y).distance(node)))
            .collect()
    }

    #[test]
    fn consistent_anchors_all_pass() {
        let check = IntersectionConsistency::default();
        let kept = check.filter(&consistent_observations());
        assert_eq!(kept, vec![0, 1, 2, 3]);
    }

    #[test]
    fn grossly_wrong_anchor_is_dropped() {
        let check = IntersectionConsistency::default();
        let mut observations = consistent_observations();
        // Anchor far away with a distance that misses the cluster: its
        // circle intersects nothing near (5, 5).
        observations.push(obs(40.0, 5.0, 10.0));
        let kept = check.filter(&observations);
        assert!(!kept.contains(&4), "bad anchor kept: {kept:?}");
        assert!(kept.len() >= 4);
    }

    #[test]
    fn near_collinear_anchor_with_error_is_dropped() {
        // The Figure 11 situation: two anchors nearly collinear with the
        // node; a small error displaces their mutual intersections far from
        // the cluster.
        let node = Point2::new(0.0, 0.0);
        let good1 = obs(-10.0, 8.0, Point2::new(-10.0, 8.0).distance(node));
        let good2 = obs(10.0, 8.0, Point2::new(10.0, 8.0).distance(node));
        let good3 = obs(0.0, -12.0, Point2::new(0.0, -12.0).distance(node));
        // Collinear pair along the x-axis, one with a +2 m error: their
        // intersection points fly far off the true position.
        let bad = obs(-30.0, 0.1, Point2::new(-30.0, 0.1).distance(node) + 2.5);
        let observations = vec![good1, good2, good3, bad];
        let check = IntersectionConsistency::default();
        let kept = check.filter(&observations);
        assert!(kept.contains(&0) && kept.contains(&1) && kept.contains(&2));
        assert!(!kept.contains(&3), "collinear+error anchor kept: {kept:?}");
    }

    #[test]
    fn fewer_than_three_is_vacuous() {
        let check = IntersectionConsistency::default();
        let two = &consistent_observations()[..2];
        assert_eq!(check.filter(two), vec![0, 1]);
        assert_eq!(check.filter(&[]), Vec::<usize>::new());
    }
}
