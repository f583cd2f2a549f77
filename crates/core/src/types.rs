//! Shared localization types.

use rl_geom::Point2;
pub use rl_net::NodeId;
use serde::{Deserialize, Serialize};

/// An anchor: a node that knows its own position (by survey, careful
/// deployment, or GPS).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Anchor {
    /// The anchor's node id.
    pub id: NodeId,
    /// Its known position.
    pub position: Point2,
}

impl Anchor {
    /// Creates an anchor.
    pub fn new(id: NodeId, position: Point2) -> Self {
        Anchor { id, position }
    }

    /// Builds anchor descriptors from ids and a ground-truth position
    /// table.
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn from_truth(ids: &[NodeId], truth: &[Point2]) -> Vec<Anchor> {
        ids.iter()
            .map(|&id| Anchor::new(id, truth[id.index()]))
            .collect()
    }
}

/// Estimated positions per node; `None` marks nodes the algorithm could
/// not localize (multilateration routinely leaves nodes unlocalized —
/// Figure 14 localized only 7 of 33).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PositionMap {
    positions: Vec<Option<Point2>>,
}

impl PositionMap {
    /// A map of `n` unlocalized nodes.
    pub fn unlocalized(n: usize) -> Self {
        PositionMap {
            positions: vec![None; n],
        }
    }

    /// A map in which every node has a position.
    pub fn complete(positions: Vec<Point2>) -> Self {
        PositionMap {
            positions: positions.into_iter().map(Some).collect(),
        }
    }

    /// Number of nodes (localized or not).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the map covers zero nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The estimated position of `node`, if localized.
    pub fn get(&self, node: NodeId) -> Option<Point2> {
        self.positions.get(node.index()).copied().flatten()
    }

    /// Sets a node's position.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set(&mut self, node: NodeId, position: Point2) {
        self.positions[node.index()] = Some(position);
    }

    /// Marks a node as unlocalized.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn clear(&mut self, node: NodeId) {
        self.positions[node.index()] = None;
    }

    /// Whether `node` is localized.
    pub fn is_localized(&self, node: NodeId) -> bool {
        self.get(node).is_some()
    }

    /// Number of localized nodes.
    pub fn localized_count(&self) -> usize {
        self.positions.iter().filter(|p| p.is_some()).count()
    }

    /// Ids of localized nodes, ascending.
    pub fn localized_nodes(&self) -> Vec<NodeId> {
        self.positions
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|_| NodeId(i)))
            .collect()
    }

    /// Iterates over `(id, Option<position>)` for every node.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Option<Point2>)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .map(|(i, p)| (NodeId(i), *p))
    }

    /// The raw option slice.
    pub fn as_slice(&self) -> &[Option<Point2>] {
        &self.positions
    }
}

impl From<Vec<Option<Point2>>> for PositionMap {
    fn from(positions: Vec<Option<Point2>>) -> Self {
        PositionMap { positions }
    }
}

impl FromIterator<Option<Point2>> for PositionMap {
    fn from_iter<T: IntoIterator<Item = Option<Point2>>>(iter: T) -> Self {
        PositionMap {
            positions: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlocalized_map() {
        let m = PositionMap::unlocalized(3);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.localized_count(), 0);
        assert_eq!(m.get(NodeId(1)), None);
        assert!(!m.is_localized(NodeId(1)));
        assert_eq!(m.get(NodeId(99)), None, "out of range is just None");
    }

    #[test]
    fn set_get_clear() {
        let mut m = PositionMap::unlocalized(2);
        m.set(NodeId(1), Point2::new(3.0, 4.0));
        assert_eq!(m.get(NodeId(1)), Some(Point2::new(3.0, 4.0)));
        assert_eq!(m.localized_count(), 1);
        assert_eq!(m.localized_nodes(), vec![NodeId(1)]);
        m.clear(NodeId(1));
        assert_eq!(m.localized_count(), 0);
    }

    #[test]
    fn complete_map() {
        let m = PositionMap::complete(vec![Point2::ORIGIN, Point2::new(1.0, 1.0)]);
        assert_eq!(m.localized_count(), 2);
        let collected: Vec<_> = m.iter().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[1].1, Some(Point2::new(1.0, 1.0)));
    }

    #[test]
    fn conversions() {
        let m: PositionMap = vec![None, Some(Point2::ORIGIN)].into();
        assert_eq!(m.localized_count(), 1);
        let m2: PositionMap = m.as_slice().iter().copied().collect();
        assert_eq!(m, m2);
    }

    #[test]
    fn anchors_from_truth() {
        let truth = vec![Point2::new(0.0, 0.0), Point2::new(5.0, 5.0)];
        let anchors = Anchor::from_truth(&[NodeId(1)], &truth);
        assert_eq!(anchors.len(), 1);
        assert_eq!(anchors[0].position, Point2::new(5.0, 5.0));
    }
}
