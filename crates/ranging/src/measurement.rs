//! Measurement data structures.
//!
//! Two layers of data come out of a ranging campaign:
//!
//! 1. [`RangingCampaign`] — every raw directed sample (`from` chirped, `to`
//!    measured) per round, before any filtering; this is what statistical
//!    filtering and consistency checking consume, and
//! 2. [`MeasurementSet`] — the final sparse, undirected, weighted distance
//!    graph handed to the localization algorithms. LSS explicitly tolerates
//!    `D ⊆ D_full` (missing pairs), which this structure represents
//!    natively.

use crate::RangingError;
use rl_net::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Largest node count a measurement set read from the wire may declare
/// (the session protocol's universe cap, too). Bounds allocation before
/// any validation has run; far above every preset (metro-2500) and far
/// below anything that could balloon memory.
pub const MAX_UNIVERSE: u64 = 100_000;

/// One raw directed ranging sample: node `from` emitted the chirp train,
/// node `to` measured `measured_m`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DirectedSample {
    /// Chirping (source) node.
    pub from: NodeId,
    /// Receiving (measuring) node.
    pub to: NodeId,
    /// Measurement round index.
    pub round: usize,
    /// Measured distance, meters.
    pub measured_m: f64,
}

/// All raw samples of one ranging campaign plus ground truth for
/// evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RangingCampaign {
    /// Number of nodes in the deployment.
    pub n: usize,
    /// Ground-truth node positions (for evaluation only; the algorithms
    /// never see them).
    pub true_positions: Vec<rl_geom::Point2>,
    /// Every successful directed measurement.
    pub samples: Vec<DirectedSample>,
}

impl RangingCampaign {
    /// True distance between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn true_distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.true_positions[a.index()].distance(self.true_positions[b.index()])
    }

    /// Signed error of one sample (measured − actual), meters.
    pub fn error_of(&self, sample: &DirectedSample) -> f64 {
        sample.measured_m - self.true_distance(sample.from, sample.to)
    }

    /// All signed errors, for histogramming (Figures 2, 6).
    pub fn errors(&self) -> Vec<f64> {
        self.samples.iter().map(|s| self.error_of(s)).collect()
    }

    /// Groups samples by directed pair.
    pub fn by_directed_pair(&self) -> BTreeMap<(NodeId, NodeId), Vec<f64>> {
        let mut map: BTreeMap<(NodeId, NodeId), Vec<f64>> = BTreeMap::new();
        for s in &self.samples {
            map.entry((s.from, s.to)).or_default().push(s.measured_m);
        }
        map
    }
}

/// Sparse undirected distance graph with per-edge weights.
///
/// Edges are stored once under the ordered key `(min, max)`; lookups accept
/// either orientation. Weights default to 1 and feed LSS's weighted stress
/// function `E_w`.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementSet {
    n: usize,
    edges: BTreeMap<(usize, usize), Edge>,
    adjacency: Vec<BTreeSet<usize>>,
}

/// JSON-friendly representation (tuple map keys are not valid JSON keys).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MeasurementSetRepr {
    n: usize,
    edges: Vec<(usize, usize, f64, f64)>,
}

// Serialized through `MeasurementSetRepr` (tuple map keys are not valid
// JSON object keys), mirroring `#[serde(into/from)]`.
impl Serialize for MeasurementSet {
    fn to_value(&self) -> serde::Value {
        MeasurementSetRepr {
            n: self.n,
            edges: self
                .edges
                .iter()
                .map(|(&(a, b), e)| (a, b, e.distance, e.weight))
                .collect(),
        }
        .to_value()
    }
}

impl Deserialize for MeasurementSet {
    /// Rejects a node count above [`MAX_UNIVERSE`] before allocating
    /// anything for it, and an invalid edge with an error rather than a
    /// panic: the input may be untrusted.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let repr = MeasurementSetRepr::from_value(value)?;
        if repr.n as u64 > MAX_UNIVERSE {
            return Err(serde::Error::custom(format!(
                "node count {} exceeds the {MAX_UNIVERSE}-node limit",
                repr.n
            )));
        }
        let mut set = MeasurementSet::new(repr.n);
        for (a, b, d, w) in repr.edges {
            set.try_insert_weighted(NodeId(a), NodeId(b), d, w)
                .map_err(|e| serde::Error::custom(e.to_string()))?;
        }
        Ok(set)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Edge {
    distance: f64,
    weight: f64,
}

impl MeasurementSet {
    /// Creates an empty measurement set over `n` nodes.
    pub fn new(n: usize) -> Self {
        MeasurementSet {
            n,
            edges: BTreeMap::new(),
            adjacency: vec![BTreeSet::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of measured pairs.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no pair has a measurement.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    fn key(a: NodeId, b: NodeId) -> (usize, usize) {
        let (x, y) = (a.index(), b.index());
        (x.min(y), x.max(y))
    }

    /// Inserts (or replaces) the measured distance for a pair with weight 1.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, either id is out of range, or the distance is
    /// negative/not finite.
    pub fn insert(&mut self, a: NodeId, b: NodeId, distance_m: f64) {
        self.insert_weighted(a, b, distance_m, 1.0);
    }

    /// Inserts (or replaces) the measured distance with an explicit weight.
    ///
    /// # Panics
    ///
    /// Same conditions as [`MeasurementSet::insert`], plus a weight that
    /// is not finite and positive. Untrusted input goes through
    /// [`MeasurementSet::try_insert_weighted`] instead.
    pub fn insert_weighted(&mut self, a: NodeId, b: NodeId, distance_m: f64, weight: f64) {
        if let Err(e) = self.try_insert_weighted(a, b, distance_m, weight) {
            panic!("{e}");
        }
    }

    /// [`MeasurementSet::insert_weighted`] that rejects an invalid edge
    /// instead of panicking; the set is unchanged on error.
    ///
    /// # Errors
    ///
    /// [`RangingError::InvalidMeasurement`] naming the first violation:
    /// `a == b`, an id out of range, a distance that is not finite and
    /// non-negative, or a weight that is not finite and positive.
    pub fn try_insert_weighted(
        &mut self,
        a: NodeId,
        b: NodeId,
        distance_m: f64,
        weight: f64,
    ) -> Result<(), RangingError> {
        let invalid = |what: String| Err(RangingError::InvalidMeasurement(what));
        if a == b {
            return invalid(format!("self-distance for {a} is meaningless"));
        }
        if a.index() >= self.n || b.index() >= self.n {
            return invalid(format!("node out of range: {a}, {b} (n = {})", self.n));
        }
        if !(distance_m.is_finite() && distance_m >= 0.0) {
            return invalid(format!(
                "distance must be finite and non-negative, got {distance_m}"
            ));
        }
        if !(weight.is_finite() && weight > 0.0) {
            return invalid(format!("weight must be finite and positive, got {weight}"));
        }
        self.edges.insert(
            Self::key(a, b),
            Edge {
                distance: distance_m,
                weight,
            },
        );
        self.adjacency[a.index()].insert(b.index());
        self.adjacency[b.index()].insert(a.index());
        Ok(())
    }

    /// The measured distance for a pair, in either orientation.
    pub fn get(&self, a: NodeId, b: NodeId) -> Option<f64> {
        if a == b {
            return None;
        }
        self.edges.get(&Self::key(a, b)).map(|e| e.distance)
    }

    /// The weight of a measured pair.
    pub fn weight(&self, a: NodeId, b: NodeId) -> Option<f64> {
        if a == b {
            return None;
        }
        self.edges.get(&Self::key(a, b)).map(|e| e.weight)
    }

    /// Whether the pair has a measurement.
    pub fn contains(&self, a: NodeId, b: NodeId) -> bool {
        self.get(a, b).is_some()
    }

    /// Removes a pair's measurement; returns the removed distance.
    pub fn remove(&mut self, a: NodeId, b: NodeId) -> Option<f64> {
        if a == b || a.index() >= self.n || b.index() >= self.n {
            return None;
        }
        let removed = self.edges.remove(&Self::key(a, b)).map(|e| e.distance);
        if removed.is_some() {
            self.adjacency[a.index()].remove(&b.index());
            self.adjacency[b.index()].remove(&a.index());
        }
        removed
    }

    /// Iterates over `(a, b, distance)` with `a < b`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.edges
            .iter()
            .map(|(&(a, b), e)| (NodeId(a), NodeId(b), e.distance))
    }

    /// Iterates over `(a, b, distance, weight)` with `a < b`.
    pub fn iter_weighted(&self) -> impl Iterator<Item = (NodeId, NodeId, f64, f64)> + '_ {
        self.edges
            .iter()
            .map(|(&(a, b), e)| (NodeId(a), NodeId(b), e.distance, e.weight))
    }

    /// Measured neighbors of `node` with distances.
    pub fn neighbors_of(&self, node: NodeId) -> Vec<(NodeId, f64)> {
        let Some(adj) = self.adjacency.get(node.index()) else {
            return Vec::new();
        };
        adj.iter()
            .map(|&j| {
                let d = self
                    .get(node, NodeId(j))
                    .expect("adjacency is consistent with edges");
                (NodeId(j), d)
            })
            .collect()
    }

    /// Node degree (number of measured neighbors).
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency
            .get(node.index())
            .map(BTreeSet::len)
            .unwrap_or(0)
    }

    /// Mean degree over all nodes.
    pub fn average_degree(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        2.0 * self.len() as f64 / self.n as f64
    }

    /// Extracts the sub-measurement-set induced by `nodes`; returns the set
    /// (re-indexed `0..nodes.len()`) plus the mapping from new index to the
    /// original [`NodeId`].
    ///
    /// Used by distributed LSS, where each node localizes only itself and
    /// its ranging neighbors. Extraction walks the induced nodes'
    /// adjacency lists — `O(cluster edges)` lookups — rather than
    /// scanning the whole edge map, so carving `n` per-node clusters out
    /// of a metro-scale set costs `O(Σ cluster edges)` total instead of
    /// `O(n · total edges)`.
    pub fn subgraph(&self, nodes: &[NodeId]) -> (MeasurementSet, Vec<NodeId>) {
        let mapping: Vec<NodeId> = nodes.to_vec();
        let index_of: BTreeMap<usize, usize> = nodes
            .iter()
            .enumerate()
            .map(|(new, old)| (old.index(), new))
            .collect();
        let mut sub = MeasurementSet::new(nodes.len());
        for (&old, &ia) in &index_of {
            let Some(adj) = self.adjacency.get(old) else {
                continue;
            };
            for &other in adj {
                // Each induced edge is visited from both endpoints; keep
                // the `old < other` orientation so it is inserted once.
                if other <= old {
                    continue;
                }
                if let Some(&ib) = index_of.get(&other) {
                    let edge = self.edges[&(old, other)];
                    sub.insert_weighted(NodeId(ia), NodeId(ib), edge.distance, edge.weight);
                }
            }
        }
        (sub, mapping)
    }

    /// The connectivity topology of the measurement graph.
    pub fn topology(&self) -> rl_net::Topology {
        rl_net::Topology::from_edges(
            self.n,
            self.edges.keys().map(|&(a, b)| (NodeId(a), NodeId(b))),
        )
    }

    /// Builds the set of exact pairwise distances for all pairs closer than
    /// `max_range` (an oracle measurement set, useful for tests and ideal
    /// baselines).
    pub fn oracle(positions: &[rl_geom::Point2], max_range: f64) -> Self {
        let mut set = MeasurementSet::new(positions.len());
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                let d = positions[i].distance(positions[j]);
                if d <= max_range {
                    set.insert(NodeId(i), NodeId(j), d);
                }
            }
        }
        set
    }
}

impl Extend<(NodeId, NodeId, f64)> for MeasurementSet {
    fn extend<T: IntoIterator<Item = (NodeId, NodeId, f64)>>(&mut self, iter: T) {
        for (a, b, d) in iter {
            self.insert(a, b, d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rl_geom::Point2;

    fn id(i: usize) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn insert_get_either_orientation() {
        let mut set = MeasurementSet::new(4);
        set.insert(id(2), id(0), 5.5);
        assert_eq!(set.get(id(0), id(2)), Some(5.5));
        assert_eq!(set.get(id(2), id(0)), Some(5.5));
        assert_eq!(set.get(id(0), id(1)), None);
        assert_eq!(set.get(id(1), id(1)), None);
        assert!(set.contains(id(0), id(2)));
        assert_eq!(set.len(), 1);
        assert!(!set.is_empty());
    }

    #[test]
    fn insert_replaces() {
        let mut set = MeasurementSet::new(2);
        set.insert(id(0), id(1), 5.0);
        set.insert(id(1), id(0), 6.0);
        assert_eq!(set.get(id(0), id(1)), Some(6.0));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn weights_default_and_explicit() {
        let mut set = MeasurementSet::new(3);
        set.insert(id(0), id(1), 5.0);
        set.insert_weighted(id(1), id(2), 7.0, 0.25);
        assert_eq!(set.weight(id(0), id(1)), Some(1.0));
        assert_eq!(set.weight(id(2), id(1)), Some(0.25));
        assert_eq!(set.weight(id(0), id(2)), None);
    }

    #[test]
    #[should_panic(expected = "self-distance")]
    fn self_edge_panics() {
        MeasurementSet::new(2).insert(id(1), id(1), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        MeasurementSet::new(2).insert(id(0), id(5), 1.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn negative_distance_panics() {
        MeasurementSet::new(2).insert(id(0), id(1), -1.0);
    }

    #[test]
    fn try_insert_rejects_invalid_edges_and_leaves_the_set_unchanged() {
        let mut set = MeasurementSet::new(3);
        set.insert(id(0), id(1), 5.0);
        let before = set.clone();
        for (a, b, d, w) in [
            (1, 1, 1.0, 1.0),
            (0, 3, 1.0, 1.0),
            (0, 1, -1.0, 1.0),
            (0, 1, f64::NAN, 1.0),
            (0, 1, 5.0, 0.0),
            (0, 1, 5.0, -2.0),
            (0, 1, 5.0, f64::INFINITY),
        ] {
            assert!(
                matches!(
                    set.try_insert_weighted(id(a), id(b), d, w),
                    Err(RangingError::InvalidMeasurement(_))
                ),
                "({a}, {b}, {d}, {w}) must be rejected"
            );
            assert_eq!(set, before);
        }
        set.try_insert_weighted(id(1), id(2), 7.0, 0.5).unwrap();
        assert_eq!(set.weight(id(2), id(1)), Some(0.5));
    }

    #[test]
    fn deserializing_an_invalid_edge_is_an_error_not_a_panic() {
        for edges in [
            "[[0,1,5.0,0.0]]",
            "[[0,1,-1.0,1.0]]",
            "[[1,1,1.0,1.0]]",
            "[[0,9,1.0,1.0]]",
        ] {
            let json = format!(r#"{{"n":2,"edges":{edges}}}"#);
            assert!(
                serde_json::from_str::<MeasurementSet>(&json).is_err(),
                "{json} must be rejected"
            );
        }
    }

    #[test]
    fn deserializing_a_huge_node_count_is_rejected_before_allocating() {
        // Accepted, this would build 10^15 adjacency sets; the cap must
        // reject it without touching the allocator.
        let json = r#"{"n":1000000000000000,"edges":[]}"#;
        let err = serde_json::from_str::<MeasurementSet>(json).unwrap_err();
        assert!(err.to_string().contains("node limit"), "{err}");
        let at_cap = format!(r#"{{"n":{MAX_UNIVERSE},"edges":[]}}"#);
        let set: MeasurementSet = serde_json::from_str(&at_cap).unwrap();
        assert_eq!(set.node_count() as u64, MAX_UNIVERSE);
    }

    #[test]
    fn remove_updates_adjacency() {
        let mut set = MeasurementSet::new(3);
        set.insert(id(0), id(1), 5.0);
        set.insert(id(1), id(2), 6.0);
        assert_eq!(set.degree(id(1)), 2);
        assert_eq!(set.remove(id(1), id(0)), Some(5.0));
        assert_eq!(set.remove(id(1), id(0)), None);
        assert_eq!(set.degree(id(1)), 1);
        assert_eq!(set.neighbors_of(id(1)), vec![(id(2), 6.0)]);
        assert_eq!(set.remove(id(2), id(2)), None);
    }

    #[test]
    fn neighbors_and_degrees() {
        let mut set = MeasurementSet::new(4);
        set.insert(id(0), id(1), 1.0);
        set.insert(id(0), id(2), 2.0);
        set.insert(id(0), id(3), 3.0);
        let nbrs = set.neighbors_of(id(0));
        assert_eq!(nbrs, vec![(id(1), 1.0), (id(2), 2.0), (id(3), 3.0)]);
        assert_eq!(set.degree(id(0)), 3);
        assert_eq!(set.degree(id(3)), 1);
        assert!((set.average_degree() - 1.5).abs() < 1e-12);
        assert!(set.neighbors_of(id(9)).is_empty());
    }

    #[test]
    fn iter_orders_pairs() {
        let mut set = MeasurementSet::new(3);
        set.insert(id(2), id(1), 5.0);
        set.insert(id(1), id(0), 4.0);
        let pairs: Vec<_> = set.iter().collect();
        assert_eq!(pairs, vec![(id(0), id(1), 4.0), (id(1), id(2), 5.0)]);
        let weighted: Vec<_> = set.iter_weighted().collect();
        assert_eq!(weighted[0], (id(0), id(1), 4.0, 1.0));
    }

    #[test]
    fn subgraph_reindexes() {
        let mut set = MeasurementSet::new(5);
        set.insert(id(1), id(3), 7.0);
        set.insert(id(3), id(4), 8.0);
        set.insert(id(0), id(1), 9.0);
        let (sub, mapping) = set.subgraph(&[id(1), id(3), id(4)]);
        assert_eq!(mapping, vec![id(1), id(3), id(4)]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get(id(0), id(1)), Some(7.0)); // 1-3 remapped
        assert_eq!(sub.get(id(1), id(2)), Some(8.0)); // 3-4 remapped
    }

    #[test]
    fn oracle_respects_max_range() {
        let positions = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(40.0, 0.0),
        ];
        let set = MeasurementSet::oracle(&positions, 22.0);
        assert_eq!(set.get(id(0), id(1)), Some(10.0));
        assert_eq!(set.get(id(1), id(2)), None); // 30 m > 22 m
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn topology_reflects_edges() {
        let mut set = MeasurementSet::new(3);
        set.insert(id(0), id(1), 5.0);
        let topo = set.topology();
        assert!(topo.are_neighbors(id(0), id(1)));
        assert!(!topo.are_neighbors(id(0), id(2)));
    }

    #[test]
    fn extend_collects_tuples() {
        let mut set = MeasurementSet::new(3);
        set.extend([(id(0), id(1), 1.0), (id(1), id(2), 2.0)]);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn campaign_errors() {
        let campaign = RangingCampaign {
            n: 2,
            true_positions: vec![Point2::new(0.0, 0.0), Point2::new(10.0, 0.0)],
            samples: vec![
                DirectedSample {
                    from: id(0),
                    to: id(1),
                    round: 0,
                    measured_m: 10.4,
                },
                DirectedSample {
                    from: id(1),
                    to: id(0),
                    round: 0,
                    measured_m: 9.8,
                },
            ],
        };
        assert_eq!(campaign.true_distance(id(0), id(1)), 10.0);
        let errs = campaign.errors();
        assert!((errs[0] - 0.4).abs() < 1e-12);
        assert!((errs[1] + 0.2).abs() < 1e-12);
        let grouped = campaign.by_directed_pair();
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[&(id(0), id(1))], vec![10.4]);
    }

    #[test]
    fn serde_roundtrip() {
        let mut set = MeasurementSet::new(3);
        set.insert_weighted(id(0), id(2), 5.0, 0.5);
        let json = serde_json::to_string(&set).unwrap();
        let back: MeasurementSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, set);
    }

    proptest! {
        /// The adjacency-walking subgraph extraction agrees with a full
        /// edge-map scan for arbitrary sets and arbitrary induced node
        /// lists (including ids with no edges).
        #[test]
        fn prop_subgraph_matches_full_scan(
            edges in proptest::collection::vec((0usize..10, 0usize..10, 0.1f64..50.0), 0..40),
            picks in proptest::collection::vec(0usize..10, 0..8),
        ) {
            let mut set = MeasurementSet::new(10);
            for (a, b, d) in edges {
                if a != b {
                    set.insert(id(a), id(b), d);
                }
            }
            let mut nodes: Vec<NodeId> = picks.into_iter().map(NodeId).collect();
            nodes.sort();
            nodes.dedup();
            let (sub, mapping) = set.subgraph(&nodes);
            // Reference: re-map every edge whose endpoints are both picked.
            let mut expect = MeasurementSet::new(nodes.len());
            for (a, b, d, w) in set.iter_weighted() {
                let pa = nodes.iter().position(|&x| x == a);
                let pb = nodes.iter().position(|&x| x == b);
                if let (Some(ia), Some(ib)) = (pa, pb) {
                    expect.insert_weighted(NodeId(ia), NodeId(ib), d, w);
                }
            }
            prop_assert_eq!(sub, expect);
            prop_assert_eq!(mapping, nodes);
        }

        /// Adjacency stays consistent with the edge map under arbitrary
        /// insert/remove interleavings.
        #[test]
        fn prop_adjacency_consistent(ops in proptest::collection::vec(
            (0usize..6, 0usize..6, proptest::bool::ANY, 0.1f64..50.0), 0..60)
        ) {
            let mut set = MeasurementSet::new(6);
            for (a, b, is_insert, d) in ops {
                if a == b { continue; }
                if is_insert {
                    set.insert(id(a), id(b), d);
                } else {
                    set.remove(id(a), id(b));
                }
            }
            // Every adjacency entry has a matching edge and vice versa.
            let mut count = 0;
            for i in 0..6 {
                for (j, d) in set.neighbors_of(id(i)) {
                    prop_assert_eq!(set.get(id(i), j), Some(d));
                    count += 1;
                }
            }
            prop_assert_eq!(count, 2 * set.len());
        }
    }
}
