//! Deployment and workload generators.
//!
//! Every evaluation in the paper runs on a concrete deployment geometry:
//! the 7×7 offset grid of Figure 5 (46–47 motes on a grassy field), a
//! 15-node parking lot with 5 anchors, and "59 plausible node positions in
//! a map of a few city blocks in a small town". This crate generates those
//! geometries deterministically, selects anchors, and measures them with
//! the paper's synthetic recipe (true distances under 22 m perturbed by
//! `N(0, 0.33 m)`, `rl_ranging::channel::RangingChannel::paper()`):
//!
//! * [`grid`] — offset grids ([`grid::OffsetGrid`], including the exact
//!   Figure 5 layout),
//! * [`random`] — uniform random deployments with minimum separation,
//! * [`town`] — the street-aligned town map generator,
//! * [`metro`] — metro-scale district grids with obstruction belts
//!   (thousands of nodes, ~10× and beyond the paper's town),
//! * [`anchors`] — anchor selection strategies,
//! * [`scenario`] — the named paper scenarios (plus metro-scale
//!   extensions) used by the benchmark harness,
//! * [`mobility`] — time-stepped mobility scenarios (motion + churn +
//!   per-tick re-measured ranges) feeding the `rl-core` tracking layer,
//! * [`presets`] — the fixed-seed serveable preset registry the
//!   `rl-serve` server resolves client deployment names against.
//!
//! # Example
//!
//! ```
//! use rl_deploy::grid::OffsetGrid;
//!
//! let field = OffsetGrid::paper_figure5().generate();
//! assert_eq!(field.len(), 47);
//! // Nearest neighbors sit at the paper's ~9 m / ~10 m spacings.
//! let d = field.min_pair_distance().unwrap();
//! assert!((d - 9.144).abs() < 1e-9);
//! ```
//!
//! A [`Scenario`] bundles a deployment with anchors and a ranging-error
//! channel, and instantiates directly into a solver-ready
//! [`Problem`](rl_core::problem::Problem):
//!
//! ```
//! use rl_deploy::Scenario;
//!
//! // The paper's 59-node town, and a metro ~10x beyond it.
//! let town = Scenario::town(7).instantiate(1);
//! assert_eq!(town.node_count(), 59);
//! let metro = Scenario::metro_sized(600, 0.1, 7);
//! assert_eq!(metro.deployment.len(), 600);
//! assert_eq!(metro.anchors.len(), 60);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod anchors;
pub mod grid;
pub mod metro;
pub mod mobility;
pub mod presets;
pub mod random;
pub mod scenario;
pub mod town;

pub use anchors::AnchorSelection;
pub use metro::MetroMap;
pub use mobility::{ChurnModel, MobilityScenario, MobilityTrace, MotionModel};
pub use scenario::Scenario;

use rl_geom::Point2;
use serde::{Deserialize, Serialize};

/// A named set of node positions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deployment {
    /// Human-readable name, e.g. `"grass-grid-47"`.
    pub name: String,
    /// Ground-truth node positions; index = node id.
    pub positions: Vec<Point2>,
}

impl Deployment {
    /// Creates a deployment.
    pub fn new(name: impl Into<String>, positions: Vec<Point2>) -> Self {
        Deployment {
            name: name.into(),
            positions,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the deployment has no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Axis-aligned bounding box `(min, max)`, or `None` when empty.
    pub fn bounding_box(&self) -> Option<(Point2, Point2)> {
        let first = *self.positions.first()?;
        let mut lo = first;
        let mut hi = first;
        for p in &self.positions {
            lo.x = lo.x.min(p.x);
            lo.y = lo.y.min(p.y);
            hi.x = hi.x.max(p.x);
            hi.y = hi.y.max(p.y);
        }
        Some((lo, hi))
    }

    /// Smallest pairwise distance, or `None` with fewer than two nodes.
    pub fn min_pair_distance(&self) -> Option<f64> {
        let n = self.positions.len();
        if n < 2 {
            return None;
        }
        let mut best = f64::INFINITY;
        for i in 0..n {
            for j in (i + 1)..n {
                best = best.min(self.positions[i].distance(self.positions[j]));
            }
        }
        Some(best)
    }

    /// Number of unordered pairs with distance at most `range_m` (the
    /// paper reports e.g. "945 pairs of nodes whose Euclidean distances
    /// were less than 22 m").
    pub fn pairs_within(&self, range_m: f64) -> usize {
        let n = self.positions.len();
        let mut count = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                if self.positions[i].distance(self.positions[j]) <= range_m {
                    count += 1;
                }
            }
        }
        count
    }

    /// Removes the nodes at the given indices, renumbering the rest. Used
    /// to model failed nodes ("the node at (0, 4.5) failed to report its
    /// existence").
    pub fn without_nodes(&self, indices: &[usize]) -> Deployment {
        let drop: std::collections::BTreeSet<usize> = indices.iter().copied().collect();
        Deployment {
            name: format!("{}-minus{}", self.name, indices.len()),
            positions: self
                .positions
                .iter()
                .enumerate()
                .filter(|(i, _)| !drop.contains(i))
                .map(|(_, &p)| p)
                .collect(),
        }
    }
}

/// Error type for deployment generation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DeployError {
    /// A configuration parameter was out of its documented domain.
    InvalidConfig(&'static str),
    /// Random placement could not satisfy the separation constraint.
    PlacementFailed {
        /// Nodes successfully placed before giving up.
        placed: usize,
        /// Nodes requested.
        requested: usize,
    },
}

impl core::fmt::Display for DeployError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeployError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            DeployError::PlacementFailed { placed, requested } => {
                write!(f, "placed only {placed} of {requested} nodes")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, DeployError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_basics() {
        let d = Deployment::new(
            "test",
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(3.0, 4.0),
                Point2::new(0.0, 10.0),
            ],
        );
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        let (lo, hi) = d.bounding_box().unwrap();
        assert_eq!(lo, Point2::new(0.0, 0.0));
        assert_eq!(hi, Point2::new(3.0, 10.0));
        assert_eq!(d.min_pair_distance(), Some(5.0));
        assert_eq!(d.pairs_within(5.0), 1);
        assert_eq!(d.pairs_within(7.0), 2); // adds the sqrt(45) ≈ 6.7 m pair
        assert_eq!(d.pairs_within(10.0), 3);
    }

    #[test]
    fn empty_deployment() {
        let d = Deployment::new("empty", vec![]);
        assert!(d.is_empty());
        assert_eq!(d.bounding_box(), None);
        assert_eq!(d.min_pair_distance(), None);
        assert_eq!(d.pairs_within(10.0), 0);
    }

    #[test]
    fn without_nodes_renumbers() {
        let d = Deployment::new(
            "t",
            vec![
                Point2::new(0.0, 0.0),
                Point2::new(1.0, 0.0),
                Point2::new(2.0, 0.0),
            ],
        );
        let smaller = d.without_nodes(&[1]);
        assert_eq!(smaller.len(), 2);
        assert_eq!(smaller.positions[1], Point2::new(2.0, 0.0));
        assert!(smaller.name.contains("minus1"));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            DeployError::PlacementFailed {
                placed: 3,
                requested: 10
            }
            .to_string(),
            "placed only 3 of 10 nodes"
        );
    }
}
