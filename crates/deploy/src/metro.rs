//! Metro-scale deployments: districts of city blocks separated by
//! obstruction belts.
//!
//! The paper's largest simulation is a 59-node town map. [`MetroMap`]
//! grows that geometry by an order of magnitude and more: a grid of
//! *districts*, each a street-aligned block pattern (reusing
//! [`TownMap`]), separated by *obstruction belts* — rivers, highways,
//! rail corridors — that contain no nodes at all. The result preserves
//! what stresses the algorithms at scale: anisotropic street-aligned
//! geometry, sharp density discontinuities at the belts, and thin
//! cross-belt connectivity bridging otherwise dense clusters.
//!
//! Capacity scales with the district grid — the default metro holds
//! thousands of candidate positions — so deployments ~10× (and beyond)
//! the paper's town are one [`MetroMap::generate`] call away. The
//! `metro_sweep` experiment in `rl-bench` drives these through the
//! parallel campaign runner.
//!
//! # Connectivity
//!
//! Districts stay mutually reachable under the paper's 22 m ranging
//! cutoff as long as `belt_m` plus jitter slack stays below the cutoff:
//! facing boundary streets across a belt are `belt_m` apart, and the
//! worst-case cross-belt link is roughly
//! `sqrt(belt_m² + (2·street_spacing)²) + 2·jitter` for deployments that
//! keep at least half the candidate positions. The defaults (12 m belts,
//! 4.2 m street spacing, 1.5 m jitter) leave comfortable margin; the
//! root `tests/properties.rs` suite asserts connectedness property-based.

use rand::Rng;
use rl_geom::{Point2, Vec2};
use serde::{Deserialize, Serialize};

use crate::town::TownMap;
use crate::Deployment;

/// Metro-scale deployment generator: a `districts_x × districts_y` grid
/// of street-aligned districts separated by empty obstruction belts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetroMap {
    /// Districts horizontally.
    pub districts_x: usize,
    /// Districts vertically.
    pub districts_y: usize,
    /// The street pattern of one district. Its `origin` is the metro's
    /// origin (district copies are translated from it), and its
    /// `jitter_m` applies to every node of the metro.
    pub district: TownMap,
    /// Width of the obstruction belt (river / highway / rail corridor)
    /// between adjacent districts, meters. Belts contain no candidate
    /// positions.
    pub belt_m: f64,
}

impl MetroMap {
    /// The default metro: a 4×4 district grid (each district 4×3 blocks
    /// of 16 m × 14 m) with 12 m obstruction belts — ≈1700 candidate
    /// positions spanning roughly 290 m × 200 m, an order of magnitude
    /// beyond the paper's town in both node capacity and extent.
    pub fn default_metro() -> Self {
        MetroMap {
            districts_x: 4,
            districts_y: 4,
            district: TownMap {
                blocks_x: 4,
                blocks_y: 3,
                block_w: 16.0,
                block_h: 14.0,
                street_spacing: 4.2,
                jitter_m: 1.5,
                origin: Point2::new(0.0, 0.0),
            },
            belt_m: 12.0,
        }
    }

    /// Resizes the district grid (builder style).
    pub fn with_districts(mut self, districts_x: usize, districts_y: usize) -> Self {
        self.districts_x = districts_x;
        self.districts_y = districts_y;
        self
    }

    /// One district's street extent `(width, height)` in meters.
    pub fn district_extent(&self) -> (f64, f64) {
        (
            self.district.block_w * self.district.blocks_x as f64,
            self.district.block_h * self.district.blocks_y as f64,
        )
    }

    /// All candidate positions, district-major (row by row of districts,
    /// streets in [`TownMap::candidate_positions`] order within each).
    /// Every district is an exact translated copy of the base district's
    /// candidates, so district counts never drift apart from
    /// floating-point boundary effects.
    pub fn candidate_positions(&self) -> Vec<Point2> {
        let base = self.district.candidate_positions();
        let (w, h) = self.district_extent();
        let mut out = Vec::with_capacity(base.len() * self.districts_x * self.districts_y);
        for dy in 0..self.districts_y {
            for dx in 0..self.districts_x {
                let offset =
                    Vec2::new(dx as f64 * (w + self.belt_m), dy as f64 * (h + self.belt_m));
                out.extend(base.iter().map(|&p| p + offset));
            }
        }
        out
    }

    /// Number of candidate positions — the maximum deployable node count.
    /// Districts are identical translated copies, so this counts one
    /// district's candidates instead of materializing the full metro.
    pub fn capacity(&self) -> usize {
        self.districts_x * self.districts_y * self.district.candidate_positions().len()
    }

    /// Generates a deployment of exactly `count` jittered street
    /// positions, evenly subsampled from the candidates so every district
    /// keeps proportional coverage.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`MetroMap::capacity`].
    pub fn generate<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Deployment {
        let candidates = self.candidate_positions();
        assert!(
            count <= candidates.len(),
            "requested {count} nodes but the metro only has {} street positions",
            candidates.len()
        );
        let mut positions = Vec::with_capacity(count);
        for k in 0..count {
            let idx = k * candidates.len() / count;
            let base = candidates[idx];
            let jx = (rng.random::<f64>() * 2.0 - 1.0) * self.district.jitter_m;
            let jy = (rng.random::<f64>() * 2.0 - 1.0) * self.district.jitter_m;
            positions.push(Point2::new(base.x + jx, base.y + jy));
        }
        Deployment::new(format!("metro-{count}"), positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rl_math::rng::seeded;
    use rl_net::Topology;

    #[test]
    fn default_metro_holds_thousands() {
        let metro = MetroMap::default_metro();
        assert!(
            metro.capacity() >= 1500,
            "capacity {} should comfortably exceed 1000",
            metro.capacity()
        );
        // capacity() counts without materializing; it must agree with the
        // actual candidate set, for non-square grids too.
        assert_eq!(metro.capacity(), metro.candidate_positions().len());
        let lopsided = MetroMap::default_metro().with_districts(3, 2);
        assert_eq!(lopsided.capacity(), lopsided.candidate_positions().len());
    }

    #[test]
    fn metro_extent_is_an_order_of_magnitude_beyond_the_town() {
        let mut rng = seeded(1);
        let d = MetroMap::default_metro().generate(1000, &mut rng);
        assert_eq!(d.len(), 1000);
        let (lo, hi) = d.bounding_box().unwrap();
        // The paper's town spans ~50 m x ~35 m; the metro spans ~290 x ~200.
        assert!(hi.x - lo.x > 250.0, "width {}", hi.x - lo.x);
        assert!(hi.y - lo.y > 170.0, "height {}", hi.y - lo.y);
    }

    #[test]
    fn obstruction_belts_are_empty() {
        let metro = MetroMap::default_metro();
        let (w, h) = metro.district_extent();
        // No unjittered candidate may fall strictly inside a belt.
        for p in metro.candidate_positions() {
            let fx = (p.x - metro.district.origin.x).rem_euclid(w + metro.belt_m);
            let fy = (p.y - metro.district.origin.y).rem_euclid(h + metro.belt_m);
            assert!(fx <= w + 1e-9, "{p} sits inside a vertical belt");
            assert!(fy <= h + 1e-9, "{p} sits inside a horizontal belt");
        }
    }

    #[test]
    fn dense_metro_is_connected_under_paper_range() {
        let mut rng = seeded(2);
        let d = MetroMap::default_metro().generate(1200, &mut rng);
        let topo = Topology::from_positions(&d.positions, 22.0);
        assert!(topo.is_connected(), "1200-node metro must be connected");
    }

    #[test]
    fn small_district_grids_work() {
        let metro = MetroMap {
            belt_m: 9.0,
            ..MetroMap::default_metro().with_districts(2, 1)
        };
        let mut rng = seeded(3);
        let n = metro.capacity() / 2;
        let d = metro.generate(n, &mut rng);
        assert_eq!(d.len(), n);
        let topo = Topology::from_positions(&d.positions, 22.0);
        assert!(topo.is_connected());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = MetroMap::default_metro().generate(500, &mut seeded(7));
        let b = MetroMap::default_metro().generate(500, &mut seeded(7));
        assert_eq!(a, b);
        let c = MetroMap::default_metro().generate(500, &mut seeded(8));
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "street positions")]
    fn requesting_beyond_capacity_panics() {
        let mut rng = seeded(9);
        let _ = MetroMap::default_metro().generate(100_000, &mut rng);
    }
}
