//! Network-wide flooding.
//!
//! [`FloodNode`] is a reusable [`Node`] implementation that rebroadcasts
//! each origin's payload once, recording the hop count it arrived with.
//! On a lossless, jitter-free radio every hop costs the same delay, so the
//! first copy of each flood travels a shortest path and the recorded hop
//! counts are exactly [`Topology::hop_counts`](crate::Topology::hop_counts);
//! DV-hop (`rl_core::baselines::dv_hop`) reads them from the graph
//! directly. The flood itself serves two purposes:
//!
//! * the simulator's delivery-order golden (`sim.rs`) runs a multi-origin
//!   flood through the event loop,
//! * the repository benchmark's traced DV-hop run replays the anchors'
//!   floods as `FloodNode<()>` and checks their hop counts bit for bit
//!   against `dv_hop`'s meters per hop.

use std::collections::btree_map::Entry;

use serde::{Deserialize, Serialize};

use crate::sim::{Api, Node};
use crate::NodeId;

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
    /// Received payloads by origin: `(hops, payload)`.
    pub received: std::collections::BTreeMap<NodeId, (usize, P)>,
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
        self.received.get(&origin).map(|(h, _)| *h)
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

    fn on_message(&mut self, _from: NodeId, msg: &FloodMsg<P>, api: &mut Api<'_, Self::Msg>) {
        if msg.origin == api.id() {
            return; // own flood reflected back
        }
        match self.received.entry(msg.origin) {
            Entry::Vacant(slot) => {
                slot.insert((msg.hops, msg.payload.clone()));
                api.broadcast(FloodMsg {
                    origin: msg.origin,
                    hops: msg.hops + 1,
                    payload: msg.payload.clone(),
                });
            }
            Entry::Occupied(mut known) => {
                if msg.hops < known.get().0 {
                    known.insert((msg.hops, msg.payload.clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RadioModel, Simulator, Topology};
    use proptest::prelude::*;
    use rl_geom::Point2;

    proptest! {
        /// A lossless, jitter-free flood records exactly the breadth-first
        /// hop counts of the radio graph, for every origin and node, and
        /// carries each origin's own payload. Layouts mix a random cloud
        /// with isolated far-away nodes; any subset of nodes may originate.
        #[test]
        fn prop_ideal_flood_records_breadth_first_hop_counts(
            cloud in proptest::collection::vec((0.0f64..60.0, 0.0f64..60.0), 1..40),
            isolated in 0usize..3,
            origin_mask in proptest::collection::vec(proptest::bool::ANY, 43),
            range in 5.0f64..30.0,
            mac_delay_s in 1.0e-5f64..1.0e-2,
            seed in 0u64..1_000,
        ) {
            let mut positions: Vec<Point2> =
                cloud.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            positions.extend((0..isolated).map(|k| Point2::new(1_000.0 + 100.0 * k as f64, 0.0)));
            let n = positions.len();
            let origins: Vec<NodeId> = (0..n).filter(|&i| origin_mask[i]).map(NodeId).collect();
            let payload = |o: NodeId| o.index() as u32 * 7 + 1;
            let nodes: Vec<FloodNode<u32>> = (0..n)
                .map(|i| {
                    if origins.contains(&NodeId(i)) {
                        FloodNode::origin(payload(NodeId(i)))
                    } else {
                        FloodNode::relay()
                    }
                })
                .collect();
            let radio = RadioModel {
                mac_delay_s,
                ..RadioModel::ideal(range)
            };
            let mut sim = Simulator::new(nodes, &positions, radio, seed);
            sim.run().unwrap();
            let topology = Topology::from_positions(&positions, range);
            for &o in &origins {
                let bfs = topology.hop_counts(o);
                for (v, node) in sim.iter() {
                    // An origin ignores its own flood reflected back.
                    let expected = bfs[v.index()].filter(|_| v != o);
                    prop_assert_eq!(node.hops_from(o), expected, "{} hops from {}", v, o);
                    if let Some((_, p)) = node.received.get(&o) {
                        prop_assert_eq!(*p, payload(o));
                    }
                }
            }
        }
    }
}
