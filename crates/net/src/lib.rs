//! Discrete-event wireless sensor network simulator.
//!
//! The distributed localization algorithm of Section 4.3 runs on a real
//! multi-hop radio network: nodes exchange local maps with neighbors and a
//! flooding wave aligns all local coordinate systems to the root's. This
//! crate provides the network substrate for that algorithm — and for the
//! clock-synchronization analysis of Section 3.1 — as a deterministic
//! discrete-event simulation:
//!
//! * [`clock`] — per-node clocks with bounded drift (the paper measured at
//!   most 50 µs/s between MICA2 motes) and FTSP-style MAC-layer timestamp
//!   synchronization,
//! * [`radio`] — a disk communication model with per-link delivery
//!   probability and MAC delay jitter,
//! * [`sim`] — the event loop: typed per-node state machines exchanging
//!   messages and timers ([`sim::Node`], [`sim::Simulator`]). Each
//!   transmission is one *burst* in the event queue — the message, held
//!   once, and the recipients the radio reached — and receivers get the
//!   message by reference, so the simulator never copies one,
//! * [`flood`] — a network-wide flooding protocol that records hop counts
//!   (on an ideal radio, the breadth-first distances of the topology),
//! * [`pool`] — a deterministic worker pool for the per-node computation
//!   phases of simulated protocols (bit-identical output for any worker
//!   count; distributed LSS shards its local-map solves on it),
//! * [`topology`] — connectivity graphs derived from node positions and
//!   radio range.
//!
//! Everything is deterministic: the event loop is driven by one seeded
//! RNG, events pop in `(time, seq)` order (`seq` numbers events as they
//! are scheduled, so equal timestamps pop in a fixed order, and bursts
//! merge into exactly that order), and no code reads ambient entropy —
//! so a simulation replays bit-for-bit and can safely run inside the
//! sharded campaign workers of `rl-bench` (see the seeding contract in
//! `rl_math::rng`).
//!
//! # Examples
//!
//! Connectivity from geometry — the substrate every protocol runs on:
//!
//! ```
//! use rl_net::topology::Topology;
//! use rl_geom::Point2;
//!
//! let positions = vec![
//!     Point2::new(0.0, 0.0),
//!     Point2::new(8.0, 0.0),
//!     Point2::new(16.0, 0.0),
//! ];
//! let topo = Topology::from_positions(&positions, 10.0);
//! assert!(topo.are_neighbors(rl_net::NodeId(0), rl_net::NodeId(1)));
//! assert!(!topo.are_neighbors(rl_net::NodeId(0), rl_net::NodeId(2)));
//! assert!(topo.is_connected());
//! ```
//!
//! A full protocol run — one flood through the event simulator over an
//! ideal radio:
//!
//! ```
//! use rl_net::flood::FloodNode;
//! use rl_net::{NodeId, RadioModel, Simulator};
//! use rl_geom::Point2;
//!
//! let positions: Vec<Point2> =
//!     (0..5).map(|i| Point2::new(i as f64 * 8.0, 0.0)).collect();
//! let nodes = (0..5)
//!     .map(|i| if i == 0 { FloodNode::origin(()) } else { FloodNode::relay() })
//!     .collect();
//! let mut sim = Simulator::new(nodes, &positions, RadioModel::ideal(10.0), 7);
//! sim.run()?;
//! let end = sim.node(NodeId(4));
//! assert_eq!(end.hops_from(NodeId(0)), Some(4), "line topology: 4 hops to the end");
//! # Ok::<(), rl_net::NetError>(())
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod flood;
pub mod pool;
pub mod radio;
pub mod sim;
pub mod topology;

pub use clock::{DriftingClock, TimeSync};
pub use radio::RadioModel;
pub use sim::{Api, Node, Simulator};
pub use topology::Topology;

use serde::{Deserialize, Serialize};

/// Identifier of a sensor node, unique within a deployment.
///
/// Node ids double as indices into position/measurement arrays throughout
/// the workspace.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The id as an index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

impl core::fmt::Display for NodeId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Error type for network simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetError {
    /// A node id referenced a node that does not exist.
    UnknownNode(NodeId),
    /// The simulation exceeded its configured event budget (runaway
    /// protocol).
    EventBudgetExhausted {
        /// The budget that was exhausted.
        budget: usize,
    },
    /// A configuration parameter was out of its documented domain.
    InvalidConfig(&'static str),
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::UnknownNode(id) => write!(f, "unknown node {id}"),
            NetError::EventBudgetExhausted { budget } => {
                write!(f, "simulation exceeded its event budget of {budget}")
            }
            NetError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_conversion() {
        let id: NodeId = 7usize.into();
        assert_eq!(id.to_string(), "n7");
        assert_eq!(id.index(), 7);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            NetError::UnknownNode(NodeId(3)).to_string(),
            "unknown node n3"
        );
        assert_eq!(
            NetError::EventBudgetExhausted { budget: 10 }.to_string(),
            "simulation exceeded its event budget of 10"
        );
    }

    #[test]
    fn error_is_well_behaved() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<NetError>();
    }
}
