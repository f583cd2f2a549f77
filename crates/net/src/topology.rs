//! Connectivity graphs over node positions.
//!
//! Localization algorithms care about two graphs: the *radio* graph (who
//! can exchange messages) and the *ranging* graph (who has distance
//! measurements to whom). [`Topology`] is the radio graph, an undirected
//! disk graph over node positions; the ranging graph is the measurement
//! set itself (`rl_ranging::measurement::MeasurementSet`).

use crate::NodeId;
use rl_geom::grid::for_each_grid_pair;
use rl_geom::Point2;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// An undirected neighbor graph over `n` nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    neighbors: Vec<Vec<NodeId>>,
}

impl Topology {
    /// Builds the disk graph: nodes are neighbors when within `range_m`.
    ///
    /// Candidate pairs come from a uniform spatial grid of cell size
    /// `range_m` (any in-range pair shares a cell or sits in adjacent
    /// cells), so construction costs `O(n + edges)` instead of the
    /// all-pairs `O(n²)` scan — the difference between instantiating a
    /// metro-scale simulator in microseconds versus milliseconds.
    /// Adjacency lists come out sorted ascending, exactly as the
    /// all-pairs scan produced them.
    pub fn from_positions(positions: &[Point2], range_m: f64) -> Self {
        let n = positions.len();
        let mut neighbors = vec![Vec::new(); n];
        // The final `<= range_m` check keeps the semantics of the
        // all-pairs scan for every range, degenerate ones included.
        for_each_grid_pair(
            n,
            range_m,
            |i| positions[i],
            |i, j| {
                if positions[i].distance(positions[j]) <= range_m {
                    neighbors[i].push(NodeId(j));
                    neighbors[j].push(NodeId(i));
                }
            },
        );
        // The grid sweep discovers pairs in cell order, not id order;
        // sorting restores the exact adjacency lists of the all-pairs
        // scan (each list ascending), keeping `Topology` values — and
        // everything fingerprinted downstream — bit-identical.
        for list in &mut neighbors {
            list.sort_unstable();
        }
        Topology { neighbors }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.neighbors.is_empty()
    }

    /// The neighbors of `node` (empty slice for unknown nodes).
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        self.neighbors
            .get(node.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether `a` and `b` are direct neighbors.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).contains(&b)
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.neighbors.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Breadth-first hop counts from `root`; unreachable nodes get `None`.
    pub fn hop_counts(&self, root: NodeId) -> Vec<Option<usize>> {
        let mut hops = vec![None; self.len()];
        if root.index() >= self.len() {
            return hops;
        }
        hops[root.index()] = Some(0);
        let mut queue = VecDeque::from([root]);
        while let Some(u) = queue.pop_front() {
            let d = hops[u.index()].expect("visited");
            for &v in self.neighbors(u) {
                if hops[v.index()].is_none() {
                    hops[v.index()] = Some(d + 1);
                    queue.push_back(v);
                }
            }
        }
        hops
    }

    /// Whether every node is reachable from node 0 (trivially true for
    /// empty topologies).
    pub fn is_connected(&self) -> bool {
        if self.is_empty() {
            return true;
        }
        self.hop_counts(NodeId(0)).iter().all(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line(n: usize, spacing: f64, range: f64) -> Topology {
        let positions: Vec<Point2> = (0..n)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect();
        Topology::from_positions(&positions, range)
    }

    #[test]
    fn disk_graph_edges() {
        let t = line(3, 8.0, 10.0);
        assert!(t.are_neighbors(NodeId(0), NodeId(1)));
        assert!(!t.are_neighbors(NodeId(0), NodeId(2)));
        assert_eq!(t.edge_count(), 2);
    }

    #[test]
    fn hop_counts_on_a_line() {
        let t = line(5, 8.0, 10.0);
        let hops = t.hop_counts(NodeId(0));
        assert_eq!(hops, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn hop_counts_from_invalid_root() {
        let t = line(3, 8.0, 10.0);
        assert!(t.hop_counts(NodeId(99)).iter().all(Option::is_none));
    }

    #[test]
    fn connectivity() {
        assert!(line(4, 8.0, 10.0).is_connected());
        assert!(!line(4, 8.0, 7.0).is_connected()); // spacing exceeds range

        assert!(Topology::from_positions(&[], 5.0).is_connected());
        assert!(Topology::from_positions(&[], 5.0).is_empty());
    }

    /// The all-pairs reference the spatial-grid builder must reproduce
    /// exactly (adjacency lists ascending).
    fn from_positions_all_pairs(positions: &[Point2], range_m: f64) -> Topology {
        let n = positions.len();
        let mut neighbors = vec![Vec::new(); n];
        for i in 0..n {
            for j in i + 1..n {
                if positions[i].distance(positions[j]) <= range_m {
                    neighbors[i].push(NodeId(j));
                    neighbors[j].push(NodeId(i));
                }
            }
        }
        Topology { neighbors }
    }

    #[test]
    fn grid_builder_handles_degenerate_ranges() {
        let positions = [
            Point2::new(0.0, 0.0),
            Point2::new(0.0, 0.0), // coincident with node 0
            Point2::new(5.0, 0.0),
        ];
        // Range 0 connects only coincident points.
        let zero = Topology::from_positions(&positions, 0.0);
        assert!(zero.are_neighbors(NodeId(0), NodeId(1)));
        assert_eq!(zero.edge_count(), 1);
        // An infinite range connects everything.
        let inf = Topology::from_positions(&positions, f64::INFINITY);
        assert_eq!(inf.edge_count(), 3);
        // A NaN range connects nothing.
        assert_eq!(
            Topology::from_positions(&positions, f64::NAN).edge_count(),
            0
        );
    }

    #[test]
    fn grid_builder_handles_saturated_cell_indices() {
        // Coordinates whose cell index saturates to the i64 extremes
        // collapse adjacent grid columns onto one value; each pair must
        // still be recorded exactly once.
        let coincident = [Point2::new(5.0, 0.0), Point2::new(5.0, 0.0)];
        let zero = Topology::from_positions(&coincident, 0.0); // 5/0 = +inf
        assert_eq!(zero.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(zero.edge_count(), 1);
        let negative = [Point2::new(-5.0, -3.0), Point2::new(-5.0, -3.0)];
        let neg = Topology::from_positions(&negative, 0.0); // -5/0 = -inf
        assert_eq!(neg.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(neg.edge_count(), 1);
        // Huge but finite coordinates with a tiny range saturate too.
        let huge = [Point2::new(1e300, 1e300), Point2::new(1e300, 1e300)];
        let t = Topology::from_positions(&huge, 1e-3);
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1)]);
        assert_eq!(t.edge_count(), 1);
    }

    proptest! {
        /// The shared grid walk and the disk-graph builder on top of it
        /// reproduce the all-pairs scan exactly. The walk must yield every
        /// pair within its cell size exactly once, under both a strict
        /// (`<`, the LSS soft constraint) and an inclusive (`<=`, the
        /// disk graph) distance test. Besides arbitrary point clouds,
        /// integer lattices with an integer radius put pairs exactly at
        /// the radius (axis offsets, 3-4-5 triangles) and points exactly
        /// on cell boundaries.
        #[test]
        fn prop_grid_builder_matches_all_pairs(
            pts in proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0), 0..60),
            range in 0.5f64..50.0,
            lattice in proptest::collection::vec((-12i32..12, -12i32..12), 0..60),
            lattice_range in 1i32..6,
        ) {
            let cloud: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let grid: Vec<Point2> = lattice
                .iter()
                .map(|&(x, y)| Point2::new(f64::from(x), f64::from(y)))
                .collect();
            for (positions, radius) in [(cloud, range), (grid, f64::from(lattice_range))] {
                prop_assert_eq!(
                    Topology::from_positions(&positions, radius),
                    from_positions_all_pairs(&positions, radius)
                );
                for strict in [false, true] {
                    let within = |i: usize, j: usize| {
                        let d = positions[i].distance(positions[j]);
                        if strict { d < radius } else { d <= radius }
                    };
                    let mut walked = Vec::new();
                    for_each_grid_pair(positions.len(), radius, |i| positions[i], |i, j| {
                        if within(i, j) {
                            walked.push((i, j));
                        }
                    });
                    walked.sort_unstable();
                    let n = positions.len();
                    let oracle: Vec<(usize, usize)> = (0..n)
                        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                        .filter(|&(i, j)| within(i, j))
                        .collect();
                    prop_assert_eq!(walked, oracle);
                }
            }
        }

        /// Hop counts are symmetric for undirected graphs built from
        /// positions: hops(a)[b] == hops(b)[a].
        #[test]
        fn prop_hops_symmetric(
            pts in proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 2..20),
            range in 5.0f64..40.0,
        ) {
            let positions: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            let t = Topology::from_positions(&positions, range);
            let a = NodeId(0);
            let b = NodeId(positions.len() - 1);
            prop_assert_eq!(t.hop_counts(a)[b.index()], t.hop_counts(b)[a.index()]);
        }
    }
}
