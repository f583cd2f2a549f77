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
use std::collections::BTreeMap;

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
/// One adjacency holds the graph: row `i` lists node `i`'s measured
/// neighbors with their edge, sorted by neighbor id, and every edge is
/// stored under both endpoints. Lookups accept either orientation.
/// [`MeasurementSet::iter`] walks the part of each row above its own id,
/// so pairs come out as `(a, b)` with `a < b` in `(a, b)` order, and
/// [`MeasurementSet::neighbors_of`] borrows a row in id order. Weights
/// default to 1 and feed LSS's weighted stress function `E_w`.
///
/// Inserting into a sorted row shifts its tail, so a set built edge by
/// edge in adversarial order costs quadratic time in a node's degree.
/// Untrusted edge lists go through
/// [`MeasurementSet::try_from_weighted_edges`] instead, which validates
/// every edge, sorts once and builds each row in a single pass.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasurementSet {
    rows: Vec<Vec<(usize, Edge)>>,
    len: usize,
}

/// Serialized form: the node count and every pair once, as
/// [`MeasurementSet::iter_weighted`] yields it.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct MeasurementSetRepr {
    n: usize,
    edges: Vec<(usize, usize, f64, f64)>,
}

// Serialized through `MeasurementSetRepr`, mirroring
// `#[serde(into/from)]`.
impl Serialize for MeasurementSet {
    fn to_value(&self) -> serde::Value {
        MeasurementSetRepr {
            n: self.node_count(),
            edges: self
                .iter_weighted()
                .map(|(a, b, d, w)| (a.index(), b.index(), d, w))
                .collect(),
        }
        .to_value()
    }
}

impl Deserialize for MeasurementSet {
    /// Rejects a node count above [`MAX_UNIVERSE`] before allocating
    /// anything for it, and an invalid edge with an error rather than a
    /// panic: the input may be untrusted. Builds through
    /// [`MeasurementSet::try_from_weighted_edges`], so decoding stays
    /// `O(m log m)` in any edge order.
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let repr = MeasurementSetRepr::from_value(value)?;
        if repr.n as u64 > MAX_UNIVERSE {
            return Err(serde::Error::custom(format!(
                "node count {} exceeds the {MAX_UNIVERSE}-node limit",
                repr.n
            )));
        }
        MeasurementSet::try_from_weighted_edges(
            repr.n,
            repr.edges
                .into_iter()
                .map(|(a, b, d, w)| (NodeId(a), NodeId(b), d, w)),
        )
        .map_err(|(_, e)| serde::Error::custom(e.to_string()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Edge {
    distance: f64,
    weight: f64,
}

/// Position of neighbor `j` in a sorted row.
fn search(row: &[(usize, Edge)], j: usize) -> Result<usize, usize> {
    row.binary_search_by_key(&j, |&(k, _)| k)
}

impl MeasurementSet {
    /// Creates an empty measurement set over `n` nodes.
    pub fn new(n: usize) -> Self {
        MeasurementSet {
            rows: vec![Vec::new(); n],
            len: 0,
        }
    }

    /// Builds a set over `n` nodes from `(a, b, distance, weight)` edges
    /// in one pass: every edge is checked exactly as
    /// [`MeasurementSet::try_insert_weighted`] checks it, the edges are
    /// sorted once, and a pair listed twice keeps its last edge, as
    /// repeated inserts would. Costs `O(m log m)` whatever the edge
    /// order, which makes it the constructor for untrusted input.
    ///
    /// # Errors
    ///
    /// The position of the first invalid edge in `edges` and the
    /// [`RangingError::InvalidMeasurement`] that
    /// [`MeasurementSet::try_insert_weighted`] would have returned for it.
    pub fn try_from_weighted_edges(
        n: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId, f64, f64)>,
    ) -> Result<Self, (usize, RangingError)> {
        let edges = edges.into_iter();
        let mut keyed: Vec<(usize, usize, Edge)> = Vec::with_capacity(edges.size_hint().0);
        for (k, (a, b, distance, weight)) in edges.enumerate() {
            Self::check(n, a, b, distance, weight).map_err(|e| (k, e))?;
            let (x, y) = (a.index().min(b.index()), a.index().max(b.index()));
            keyed.push((x, y, Edge { distance, weight }));
        }
        // A stable sort keeps repeats of a pair in input order; folding
        // each later repeat into the first keeps the last edge.
        keyed.sort_by_key(|&(a, b, _)| (a, b));
        keyed.dedup_by(|later, kept| {
            let repeat = (later.0, later.1) == (kept.0, kept.1);
            if repeat {
                kept.2 = later.2;
            }
            repeat
        });
        let mut degree = vec![0usize; n];
        for &(a, b, _) in &keyed {
            degree[a] += 1;
            degree[b] += 1;
        }
        let mut rows: Vec<Vec<(usize, Edge)>> =
            degree.into_iter().map(Vec::with_capacity).collect();
        // In `(a, b)` order, row `b` first receives its lower neighbors
        // (ascending `a`), then its upper ones (ascending `b'` of
        // `(b, b')`), so every row comes out sorted.
        for &(a, b, edge) in &keyed {
            rows[a].push((b, edge));
            rows[b].push((a, edge));
        }
        Ok(MeasurementSet {
            rows,
            len: keyed.len(),
        })
    }

    /// Builds a set over `n` nodes from weight-1 `(a, b, distance)` pairs
    /// that a pair walk visited with `a < b`, in `(a, b)` order, as
    /// [`crate::channel::RangingChannel`] does. Every edge gets the
    /// [`MeasurementSet::try_insert_weighted`] check. One degree pass
    /// sizes each row exactly, then each pair is pushed once under each
    /// endpoint: the walk's order already leaves every row sorted, for
    /// the reason given in [`MeasurementSet::try_from_weighted_edges`],
    /// so nothing is copied, sorted or deduplicated.
    ///
    /// # Errors
    ///
    /// The position of the first invalid edge and its
    /// [`RangingError::InvalidMeasurement`].
    ///
    /// # Panics
    ///
    /// Panics if a pair is not above the one before it in `(a, b)` order
    /// with `a < b`: the rows would come out unsorted.
    pub(crate) fn from_ordered_pairs(
        n: usize,
        pairs: &[(usize, usize, f64)],
    ) -> Result<Self, (usize, RangingError)> {
        let mut degree = vec![0usize; n];
        let mut previous = None;
        for (k, &(a, b, distance)) in pairs.iter().enumerate() {
            Self::check(n, NodeId(a), NodeId(b), distance, 1.0).map_err(|e| (k, e))?;
            assert!(
                a < b && previous < Some((a, b)),
                "pair ({a}, {b}) out of walk order"
            );
            previous = Some((a, b));
            degree[a] += 1;
            degree[b] += 1;
        }
        let mut rows: Vec<Vec<(usize, Edge)>> =
            degree.into_iter().map(Vec::with_capacity).collect();
        for &(a, b, distance) in pairs {
            let edge = Edge {
                distance,
                weight: 1.0,
            };
            rows[a].push((b, edge));
            rows[b].push((a, edge));
        }
        Ok(MeasurementSet {
            rows,
            len: pairs.len(),
        })
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of measured pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no pair has a measurement.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node `node`'s row (empty for an id out of range).
    fn row(&self, node: NodeId) -> &[(usize, Edge)] {
        self.rows.get(node.index()).map_or(&[], Vec::as_slice)
    }

    fn edge(&self, a: NodeId, b: NodeId) -> Option<Edge> {
        let row = self.row(a);
        search(row, b.index()).ok().map(|p| row[p].1)
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
    /// [`MeasurementSet::try_insert_weighted`] or
    /// [`MeasurementSet::try_from_weighted_edges`] instead.
    pub fn insert_weighted(&mut self, a: NodeId, b: NodeId, distance_m: f64, weight: f64) {
        if let Err(e) = self.try_insert_weighted(a, b, distance_m, weight) {
            panic!("{e}");
        }
    }

    /// The one edge check behind every insert and the bulk constructor.
    fn check(
        n: usize,
        a: NodeId,
        b: NodeId,
        distance_m: f64,
        weight: f64,
    ) -> Result<(), RangingError> {
        let invalid = |what: String| Err(RangingError::InvalidMeasurement(what));
        if a == b {
            return invalid(format!("self-distance for {a} is meaningless"));
        }
        if a.index() >= n || b.index() >= n {
            return invalid(format!("node out of range: {a}, {b} (n = {n})"));
        }
        if !(distance_m.is_finite() && distance_m >= 0.0) {
            return invalid(format!(
                "distance must be finite and non-negative, got {distance_m}"
            ));
        }
        if !(weight.is_finite() && weight > 0.0) {
            return invalid(format!("weight must be finite and positive, got {weight}"));
        }
        Ok(())
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
        Self::check(self.node_count(), a, b, distance_m, weight)?;
        let edge = Edge {
            distance: distance_m,
            weight,
        };
        let mut added = false;
        for (x, y) in [(a, b), (b, a)] {
            let row = &mut self.rows[x.index()];
            match search(row, y.index()) {
                Ok(p) => row[p].1 = edge,
                Err(p) => {
                    row.insert(p, (y.index(), edge));
                    added = true;
                }
            }
        }
        self.len += usize::from(added);
        Ok(())
    }

    /// The measured distance for a pair, in either orientation.
    pub fn get(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.edge(a, b).map(|e| e.distance)
    }

    /// The weight of a measured pair.
    pub fn weight(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.edge(a, b).map(|e| e.weight)
    }

    /// Whether the pair has a measurement.
    pub fn contains(&self, a: NodeId, b: NodeId) -> bool {
        self.edge(a, b).is_some()
    }

    /// Removes a pair's measurement; returns the removed distance.
    pub fn remove(&mut self, a: NodeId, b: NodeId) -> Option<f64> {
        let p = search(self.row(a), b.index()).ok()?;
        let (_, edge) = self.rows[a.index()].remove(p);
        let row = &mut self.rows[b.index()];
        let q = search(row, a.index()).expect("every edge is stored under both endpoints");
        row.remove(q);
        self.len -= 1;
        Some(edge.distance)
    }

    /// Iterates over `(a, b, distance)` with `a < b`, in `(a, b)` order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.iter_weighted().map(|(a, b, d, _)| (a, b, d))
    }

    /// Iterates over `(a, b, distance, weight)` with `a < b`, in `(a, b)`
    /// order: the part of each row above its own id, row by row.
    pub fn iter_weighted(&self) -> impl Iterator<Item = (NodeId, NodeId, f64, f64)> + '_ {
        self.rows.iter().enumerate().flat_map(|(a, row)| {
            let upper = row.partition_point(|&(b, _)| b < a);
            row[upper..]
                .iter()
                .map(move |&(b, e)| (NodeId(a), NodeId(b), e.distance, e.weight))
        })
    }

    /// Measured neighbors of `node` with distances, sorted by id; empty
    /// for an id out of range. Borrows the node's row, so reading it
    /// allocates nothing.
    pub fn neighbors_of(&self, node: NodeId) -> impl ExactSizeIterator<Item = (NodeId, f64)> + '_ {
        self.row(node).iter().map(|&(j, e)| (NodeId(j), e.distance))
    }

    /// Node degree (number of measured neighbors).
    pub fn degree(&self, node: NodeId) -> usize {
        self.row(node).len()
    }

    /// Mean degree over all nodes.
    pub fn average_degree(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        2.0 * self.len() as f64 / self.node_count() as f64
    }

    /// Extracts the sub-measurement-set induced by `nodes`; returns the set
    /// (re-indexed `0..nodes.len()`, node `k` being `nodes[k]`) plus the
    /// mapping from new index to the original [`NodeId`]. An id out of
    /// range becomes an isolated node.
    ///
    /// Used by distributed LSS, where each node localizes only itself and
    /// its ranging neighbors. Old ids map to new ones through a slot
    /// vector, and extraction walks only the induced nodes' rows, so
    /// carving a cluster costs `O(n)` for the slots plus
    /// `O(cluster edges)`, not a scan of the whole edge list.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` lists an id twice: the induced set would need
    /// two new nodes for one old one.
    pub fn subgraph(&self, nodes: &[NodeId]) -> (MeasurementSet, Vec<NodeId>) {
        let mut slot = vec![usize::MAX; self.node_count()];
        for (new, old) in nodes.iter().enumerate() {
            if let Some(s) = slot.get_mut(old.index()) {
                assert!(*s == usize::MAX, "subgraph lists node {old} twice");
                *s = new;
            }
        }
        let mut sub = MeasurementSet::new(nodes.len());
        for (row, old) in sub.rows.iter_mut().zip(nodes) {
            row.extend(
                self.row(*old)
                    .iter()
                    .filter(|&&(other, _)| slot[other] != usize::MAX)
                    .map(|&(other, edge)| (slot[other], edge)),
            );
            // New ids follow `nodes`' order, not the old ids'.
            row.sort_unstable_by_key(|&(j, _)| j);
            sub.len += row.len();
        }
        sub.len /= 2;
        (sub, nodes.to_vec())
    }

    /// The connectivity topology of the measurement graph.
    pub fn topology(&self) -> rl_net::Topology {
        rl_net::Topology::from_edges(self.node_count(), self.iter().map(|(a, b, _)| (a, b)))
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
        assert!(set.neighbors_of(id(1)).eq([(id(2), 6.0)]));
        assert_eq!(set.remove(id(2), id(2)), None);
    }

    #[test]
    fn neighbors_and_degrees() {
        let mut set = MeasurementSet::new(4);
        set.insert(id(0), id(1), 1.0);
        set.insert(id(0), id(2), 2.0);
        set.insert(id(0), id(3), 3.0);
        let nbrs: Vec<_> = set.neighbors_of(id(0)).collect();
        assert_eq!(nbrs, vec![(id(1), 1.0), (id(2), 2.0), (id(3), 3.0)]);
        assert_eq!(set.degree(id(0)), 3);
        assert_eq!(set.degree(id(3)), 1);
        assert!((set.average_degree() - 1.5).abs() < 1e-12);
        assert_eq!(set.neighbors_of(id(9)).len(), 0);
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

    #[test]
    fn bulk_build_keeps_the_last_repeat_and_matches_inserts() {
        let edges = [
            (id(3), id(1), 4.0, 1.0),
            (id(0), id(2), 5.0, 0.5),
            (id(1), id(3), 6.0, 2.0),
            (id(2), id(1), 7.0, 1.0),
        ];
        let bulk = MeasurementSet::try_from_weighted_edges(4, edges).unwrap();
        let mut inserted = MeasurementSet::new(4);
        for (a, b, d, w) in edges {
            inserted.insert_weighted(a, b, d, w);
        }
        assert_eq!(bulk, inserted);
        assert_eq!(bulk.len(), 3);
        assert_eq!(bulk.get(id(3), id(1)), Some(6.0));
        assert_eq!(bulk.weight(id(1), id(3)), Some(2.0));
        assert!(bulk.neighbors_of(id(1)).eq([(id(2), 7.0), (id(3), 6.0)]));
    }

    #[test]
    fn bulk_build_rejects_the_first_invalid_edge_with_the_insert_error() {
        for (a, b, d, w) in [
            (1, 1, 1.0, 1.0),
            (0, 3, 1.0, 1.0),
            (0, 1, -1.0, 1.0),
            (0, 1, f64::NAN, 1.0),
            (0, 1, 5.0, 0.0),
            (0, 1, 5.0, f64::INFINITY),
        ] {
            let edges = [
                (id(0), id(2), 1.0, 1.0),
                (id(a), id(b), d, w),
                (id(1), id(1), 1.0, 1.0),
            ];
            let (at, err) = MeasurementSet::try_from_weighted_edges(3, edges).unwrap_err();
            let expect = MeasurementSet::new(3)
                .try_insert_weighted(id(a), id(b), d, w)
                .unwrap_err();
            assert_eq!((at, err), (1, expect), "({a}, {b}, {d}, {w})");
        }
    }

    #[test]
    fn ordered_rows_match_the_bulk_build_and_check_every_edge() {
        // Every pair of 6 nodes within 2 ids, in walk order.
        let pairs: Vec<(usize, usize, f64)> = (0..6)
            .flat_map(|a| ((a + 1)..6).map(move |b| (a, b, (a * 10 + b) as f64)))
            .filter(|&(a, b, _)| b - a <= 2)
            .collect();
        let ordered = MeasurementSet::from_ordered_pairs(7, &pairs).unwrap();
        let bulk = MeasurementSet::try_from_weighted_edges(
            7,
            pairs.iter().map(|&(a, b, d)| (id(a), id(b), d, 1.0)),
        )
        .unwrap();
        assert_eq!(ordered, bulk);
        assert_eq!(ordered.len(), pairs.len());
        assert_eq!(ordered.degree(id(6)), 0);
        for (a, b, d) in [(0, 7, 1.0), (0, 1, f64::NAN), (0, 1, -1.0)] {
            let bad = [(0, 2, 1.0), (a, b, d)];
            let (at, err) = MeasurementSet::from_ordered_pairs(7, &bad).unwrap_err();
            let expect = MeasurementSet::new(7)
                .try_insert_weighted(id(a), id(b), d, 1.0)
                .unwrap_err();
            assert_eq!((at, err), (1, expect), "({a}, {b}, {d})");
        }
    }

    #[test]
    #[should_panic(expected = "out of walk order")]
    fn ordered_rows_reject_a_pair_out_of_walk_order() {
        let _ = MeasurementSet::from_ordered_pairs(4, &[(1, 2, 1.0), (0, 3, 1.0)]);
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

        /// Random inserts, replacing inserts, removes and rejected
        /// inserts agree, step by step, with a `BTreeMap` model keyed
        /// by `(min, max)`: every reader, the subgraph, serde and
        /// equality with a bulk rebuild.
        #[test]
        fn prop_matches_a_btreemap_model(ops in proptest::collection::vec(
            (0usize..5, 0usize..MODEL_N, 0usize..MODEL_N, 0.0f64..50.0), 1..48)
        ) {
            let mut set = MeasurementSet::new(MODEL_N);
            let mut model: BTreeMap<(usize, usize), (f64, f64)> = BTreeMap::new();
            for (step, (kind, a, b, d)) in ops.into_iter().enumerate() {
                let w = 0.25 + d / 8.0;
                match kind {
                    // New or replacing insert, either orientation.
                    0 | 1 if a != b => {
                        set.insert_weighted(id(a), id(b), d, w);
                        model.insert((a.min(b), a.max(b)), (d, w));
                    }
                    // Replace an existing pair, reversed orientation.
                    2 if !model.is_empty() => {
                        let (&(x, y), _) = model.iter().nth((a * MODEL_N + b) % model.len()).unwrap();
                        set.insert_weighted(id(y), id(x), d, w);
                        model.insert((x, y), (d, w));
                    }
                    3 => {
                        let expect = if a == b {
                            None
                        } else {
                            model.remove(&(a.min(b), a.max(b))).map(|(d, _)| d)
                        };
                        prop_assert_eq!(set.remove(id(a), id(b)), expect);
                    }
                    _ => {
                        let before = set.clone();
                        let (x, y, dd, ww) = match b % 4 {
                            0 => (a, a, d, w),
                            1 => (a, MODEL_N + b, d, w),
                            2 => (a, (a + 1) % MODEL_N, -1.0 - d, w),
                            _ => (a, (a + 1) % MODEL_N, d, -w),
                        };
                        prop_assert!(set.try_insert_weighted(id(x), id(y), dd, ww).is_err());
                        prop_assert_eq!(&set, &before);
                    }
                }
                check_against_model(&set, &model, step);
            }
        }
    }

    const MODEL_N: usize = 7;

    fn check_against_model(
        set: &MeasurementSet,
        model: &BTreeMap<(usize, usize), (f64, f64)>,
        step: usize,
    ) {
        let expect: Vec<_> = model
            .iter()
            .map(|(&(a, b), &(d, w))| (id(a), id(b), d, w))
            .collect();
        assert_eq!(set.len(), model.len());
        assert_eq!(set.is_empty(), model.is_empty());
        assert_eq!(set.iter_weighted().collect::<Vec<_>>(), expect);
        assert!(set.iter().eq(expect.iter().map(|&(a, b, d, _)| (a, b, d))));
        // Point lookups in both orientations, including an id out of range.
        for i in 0..=MODEL_N {
            for j in 0..=MODEL_N {
                let want = model.get(&(i.min(j), i.max(j))).filter(|_| i != j);
                assert_eq!(set.get(id(i), id(j)), want.map(|e| e.0));
                assert_eq!(set.weight(id(i), id(j)), want.map(|e| e.1));
                assert_eq!(set.contains(id(i), id(j)), want.is_some());
            }
            let nbrs: Vec<_> = model
                .iter()
                .filter_map(|(&(a, b), &(d, _))| match i {
                    _ if a == i => Some((id(b), d)),
                    _ if b == i => Some((id(a), d)),
                    _ => None,
                })
                .collect();
            let mut sorted = nbrs.clone();
            sorted.sort_by_key(|&(j, _)| j);
            assert_eq!(nbrs, sorted);
            assert_eq!(set.neighbors_of(id(i)).collect::<Vec<_>>(), nbrs);
            assert_eq!(set.degree(id(i)), nbrs.len());
        }
        // An induced set in an order that is not the id order.
        let nodes: Vec<NodeId> = (0..MODEL_N)
            .rev()
            .filter(|i| !(i + step).is_multiple_of(3))
            .map(NodeId)
            .collect();
        let (sub, mapping) = set.subgraph(&nodes);
        assert_eq!(mapping, nodes);
        let new_of = |old: usize| nodes.iter().position(|&x| x.index() == old);
        let mut sub_model = BTreeMap::new();
        for (&(a, b), &e) in model {
            if let (Some(x), Some(y)) = (new_of(a), new_of(b)) {
                sub_model.insert((x.min(y), x.max(y)), e);
            }
        }
        let sub_expect: Vec<_> = sub_model
            .iter()
            .map(|(&(a, b), &(d, w))| (id(a), id(b), d, w))
            .collect();
        assert_eq!(sub.node_count(), nodes.len());
        assert_eq!(sub.iter_weighted().collect::<Vec<_>>(), sub_expect);
        // Serde round trip, and equality with bulk rebuilds in reverse
        // order (with a stale repeat first) and in model order.
        let back: MeasurementSet =
            serde_json::from_str(&serde_json::to_string(set).unwrap()).unwrap();
        assert_eq!(&back, set);
        let stale = expect.first().map(|&(a, b, d, w)| (b, a, d + 1.0, w));
        let reversed = stale.into_iter().chain(expect.iter().rev().copied());
        assert_eq!(
            &MeasurementSet::try_from_weighted_edges(MODEL_N, reversed).unwrap(),
            set
        );
        let rebuilt = MeasurementSet::try_from_weighted_edges(MODEL_N, expect.clone()).unwrap();
        assert_eq!(&rebuilt, set);
        if let Some(&(a, b, d, w)) = expect.first() {
            let mut changed = rebuilt;
            changed.insert_weighted(a, b, d + 1.0, w);
            assert_ne!(&changed, set);
        }
    }
}
