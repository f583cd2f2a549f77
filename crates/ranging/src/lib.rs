//! Acoustic TDoA ranging service.
//!
//! This crate assembles the paper's Section-3 ranging pipeline on top of the
//! acoustic simulation in `rl-signal`:
//!
//! * [`measurement`] — the sparse measurement graph
//!   ([`measurement::MeasurementSet`]) consumed by every
//!   localization algorithm, plus raw per-round campaign data. The graph
//!   is one adjacency: a row per node, sorted by neighbor id, each edge
//!   stored under both endpoints. Pairs iterate as `(a, b)` with `a < b`
//!   in `(a, b)` order, neighbor lists are borrowed rows in id order,
//!   and untrusted edge lists (serde, the wire) are built through one
//!   bulk constructor that validates, sorts once and keeps the last of
//!   repeated pairs,
//! * [`tdoa`] — detection-index → distance conversion with `δ_const`
//!   calibration (Section 3.1's combined constant delay),
//! * [`service`] — the ranging service itself: per-node hardware variation,
//!   chirp-train simulation for every candidate pair over multiple rounds,
//!   baseline and refined modes,
//! * [`filter`] — statistical filtering (median / mode) of repeated
//!   measurements (Section 3.5),
//! * [`consistency`] — bidirectional agreement checks (Section 3.5),
//! * [`channel`] — the composable ranging-error channel stack
//!   ([`channel::RangingChannel`]) that measures every simulated
//!   scenario: the paper's synthetic recipe (`RangingChannel::paper()`)
//!   plus NLOS bias, multipath delay spread, clock drift, and adversarial
//!   contamination as independently seeded, stackable stages for
//!   stress-testing the resilience claims.
//!
//! # Example
//!
//! ```
//! use rl_ranging::measurement::MeasurementSet;
//! use rl_net::NodeId;
//!
//! let mut set = MeasurementSet::new(3);
//! set.insert(NodeId(0), NodeId(1), 9.1);
//! set.insert(NodeId(1), NodeId(2), 10.3);
//! assert_eq!(set.get(NodeId(1), NodeId(0)), Some(9.1));
//! assert_eq!(set.len(), 2);
//! let neighbors: Vec<_> = set.neighbors_of(NodeId(1)).collect();
//! assert_eq!(neighbors, [(NodeId(0), 9.1), (NodeId(2), 10.3)]);
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod channel;
pub mod consistency;
pub mod filter;
pub mod measurement;
pub mod service;
pub mod tdoa;

pub use channel::{ChannelStage, RangingChannel};
pub use consistency::{BidirectionalPolicy, ConsistencyConfig};
pub use filter::StatFilter;
pub use measurement::{MeasurementSet, RangingCampaign};
pub use service::{RangingService, ServiceConfig, ServiceMode};
pub use tdoa::TdoaConverter;

/// Error type for the ranging service.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RangingError {
    /// A node id was out of range for the measurement set.
    UnknownNode(rl_net::NodeId),
    /// A configuration parameter was out of its documented domain.
    InvalidConfig(&'static str),
    /// A measurement was rejected: a self pair, an id out of range, or a
    /// distance or weight outside its domain.
    InvalidMeasurement(String),
    /// Calibration failed (no successful detections at the reference
    /// distance).
    CalibrationFailed,
}

impl core::fmt::Display for RangingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RangingError::UnknownNode(id) => write!(f, "unknown node {id}"),
            RangingError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            RangingError::InvalidMeasurement(what) => write!(f, "{what}"),
            RangingError::CalibrationFailed => {
                write!(f, "calibration failed: no detections at reference distance")
            }
        }
    }
}

impl std::error::Error for RangingError {}

/// Convenience result alias for this crate.
pub type Result<T> = core::result::Result<T, RangingError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert_eq!(
            RangingError::UnknownNode(rl_net::NodeId(4)).to_string(),
            "unknown node n4"
        );
        assert_eq!(
            RangingError::CalibrationFailed.to_string(),
            "calibration failed: no detections at reference distance"
        );
    }

    #[test]
    fn error_is_well_behaved() {
        fn assert_good<E: std::error::Error + Send + Sync + 'static>() {}
        assert_good::<RangingError>();
    }
}
