//! Network-wide flooding.
//!
//! The alignment step of distributed LSS (Section 4.3.1) is "one round of
//! flooding" from the root node; DV-hop-style baselines also need hop
//! counts from flooding. [`FloodNode`] is a reusable [`Node`] implementation
//! that rebroadcasts each origin's payload once, recording hop count and
//! parent, and [`run_flood`] wraps a full simulation run.

use std::collections::btree_map::Entry;

use rl_geom::Point2;
use serde::{Deserialize, Serialize};

use crate::sim::{Api, Node, Simulator};
use crate::{NodeId, RadioModel, Result};

/// The message carried by a flood: origin, hop count so far, and a payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FloodMsg<P> {
    /// Node that started the flood.
    pub origin: NodeId,
    /// Hops traversed before this transmission.
    pub hops: usize,
    /// Application payload.
    pub payload: P,
}

/// Per-node flooding state machine.
///
/// Rebroadcasts the first copy received per origin; later copies are
/// absorbed (but a shorter-hop copy still updates the recorded distance,
/// which can happen with lossy links and timing races). The payload is
/// cloned only when a copy is stored or relayed.
#[derive(Debug, Clone)]
pub struct FloodNode<P: Clone + core::fmt::Debug> {
    /// Payload this node floods at start, if it is an origin.
    pub initial: Option<P>,
    /// Received payloads by origin: `(hops, parent, payload)`.
    pub received: std::collections::BTreeMap<NodeId, (usize, NodeId, P)>,
}

impl<P: Clone + core::fmt::Debug> FloodNode<P> {
    /// A relay node (floods nothing of its own).
    pub fn relay() -> Self {
        FloodNode {
            initial: None,
            received: Default::default(),
        }
    }

    /// An origin node that floods `payload` at start.
    pub fn origin(payload: P) -> Self {
        FloodNode {
            initial: Some(payload),
            received: Default::default(),
        }
    }

    /// Hop count from `origin`, if the flood reached this node.
    pub fn hops_from(&self, origin: NodeId) -> Option<usize> {
        self.received.get(&origin).map(|(h, _, _)| *h)
    }

    /// The upstream neighbor that delivered `origin`'s flood first.
    pub fn parent_toward(&self, origin: NodeId) -> Option<NodeId> {
        self.received.get(&origin).map(|(_, p, _)| *p)
    }
}

impl<P: Clone + core::fmt::Debug> Node for FloodNode<P> {
    type Msg = FloodMsg<P>;

    fn on_start(&mut self, api: &mut Api<'_, Self::Msg>) {
        if let Some(payload) = self.initial.clone() {
            api.broadcast(FloodMsg {
                origin: api.id(),
                hops: 1,
                payload,
            });
        }
    }

    fn on_message(&mut self, from: NodeId, msg: &FloodMsg<P>, api: &mut Api<'_, Self::Msg>) {
        if msg.origin == api.id() {
            return; // own flood reflected back
        }
        match self.received.entry(msg.origin) {
            Entry::Vacant(slot) => {
                slot.insert((msg.hops, from, msg.payload.clone()));
                api.broadcast(FloodMsg {
                    origin: msg.origin,
                    hops: msg.hops + 1,
                    payload: msg.payload.clone(),
                });
            }
            Entry::Occupied(mut known) => {
                if msg.hops < known.get().0 {
                    known.insert((msg.hops, from, msg.payload.clone()));
                }
            }
        }
    }
}

/// Outcome of a single-origin flood.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodResult {
    /// Hop count from the root per node (`Some(0)` for the root itself).
    pub hops: Vec<Option<usize>>,
    /// Parent toward the root per node.
    pub parents: Vec<Option<NodeId>>,
    /// Fraction of nodes reached.
    pub coverage: f64,
}

/// Runs one flood from `root` over nodes at `positions` and reports hop
/// counts, parents and coverage.
///
/// # Errors
///
/// Propagates simulator errors (event budget exhaustion).
///
/// # Panics
///
/// Panics if `root` is out of range of `positions`.
pub fn run_flood(
    positions: &[Point2],
    radio: RadioModel,
    root: NodeId,
    seed: u64,
) -> Result<FloodResult> {
    assert!(root.index() < positions.len(), "root must exist");
    let nodes: Vec<FloodNode<()>> = (0..positions.len())
        .map(|i| {
            if i == root.index() {
                FloodNode::origin(())
            } else {
                FloodNode::relay()
            }
        })
        .collect();
    let mut sim = Simulator::new(nodes, positions, radio, seed);
    sim.run()?;
    let mut hops = vec![None; positions.len()];
    let mut parents = vec![None; positions.len()];
    hops[root.index()] = Some(0);
    let mut reached = 1usize;
    for (id, node) in sim.iter() {
        if id == root {
            continue;
        }
        if let Some(h) = node.hops_from(root) {
            hops[id.index()] = Some(h);
            parents[id.index()] = node.parent_toward(root);
            reached += 1;
        }
    }
    Ok(FloodResult {
        hops,
        parents,
        coverage: reached as f64 / positions.len().max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_positions(n: usize, spacing: f64) -> Vec<Point2> {
        (0..n)
            .map(|i| Point2::new(i as f64 * spacing, 0.0))
            .collect()
    }

    #[test]
    fn flood_covers_connected_line() {
        let positions = line_positions(6, 8.0);
        let result = run_flood(&positions, RadioModel::ideal(10.0), NodeId(0), 1).unwrap();
        assert_eq!(result.coverage, 1.0);
        for (i, h) in result.hops.iter().enumerate() {
            assert_eq!(*h, Some(i), "hop count along the line");
        }
        // Parents form a chain toward the root.
        for i in 1..6 {
            assert_eq!(result.parents[i], Some(NodeId(i - 1)));
        }
    }

    #[test]
    fn flood_from_middle() {
        let positions = line_positions(5, 8.0);
        let result = run_flood(&positions, RadioModel::ideal(10.0), NodeId(2), 2).unwrap();
        assert_eq!(
            result.hops,
            vec![Some(2), Some(1), Some(0), Some(1), Some(2)]
        );
    }

    #[test]
    fn flood_does_not_cross_partitions() {
        let mut positions = line_positions(3, 8.0);
        positions.push(Point2::new(1000.0, 0.0)); // isolated node
        let result = run_flood(&positions, RadioModel::ideal(10.0), NodeId(0), 3).unwrap();
        assert_eq!(result.hops[3], None);
        assert!((result.coverage - 0.75).abs() < 1e-12);
    }

    #[test]
    fn lossless_flood_is_deterministic() {
        let positions = line_positions(10, 8.0);
        let a = run_flood(&positions, RadioModel::ideal(12.0), NodeId(0), 7).unwrap();
        let b = run_flood(&positions, RadioModel::ideal(12.0), NodeId(0), 8).unwrap();
        assert_eq!(a.hops, b.hops);
    }

    #[test]
    fn multi_origin_flood_collects_all() {
        // Every node is an origin; afterwards everyone knows hop counts to
        // everyone (DV-hop's data collection phase).
        let positions = line_positions(4, 8.0);
        let nodes: Vec<FloodNode<u32>> = (0..4).map(|i| FloodNode::origin(i as u32)).collect();
        let mut sim = Simulator::new(nodes, &positions, RadioModel::ideal(10.0), 4);
        sim.run().unwrap();
        for (id, node) in sim.iter() {
            for other in 0..4 {
                let other = NodeId(other);
                if other == id {
                    continue;
                }
                let expected = id.index().abs_diff(other.index());
                assert_eq!(
                    node.hops_from(other),
                    Some(expected),
                    "{id} hops from {other}"
                );
                // Payload carried through.
                assert_eq!(node.received[&other].2, other.index() as u32);
            }
        }
    }

    #[test]
    #[should_panic(expected = "root must exist")]
    fn flood_rejects_bad_root() {
        let _ = run_flood(&[], RadioModel::ideal(1.0), NodeId(0), 0);
    }
}
