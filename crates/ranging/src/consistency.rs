//! Consistency checking across measurements.
//!
//! "The ranging service employs consistency checks to identify measurements
//! containing errors that may be correlated on a single node (e.g., errors
//! due to faulty hardware or persistent wide-band noise). … bidirectional
//! range estimates between a pair of nodes are discarded if they are
//! inconsistent. If three nodes have measurements to each other, we use the
//! triangle inequality to identify inconsistent one." (Section 3.5)

use rl_net::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::measurement::MeasurementSet;

/// How to merge directed estimates into undirected pair distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BidirectionalPolicy {
    /// Keep a pair only when both directions measured it *and* they agree
    /// within tolerance (the strict check behind Figure 7).
    RequireBoth,
    /// Keep agreeing bidirectional pairs and pairs measured in one
    /// direction only (the paper's parking-lot experiment had "one-way
    /// measurement data"; "sometimes it may be beneficial to retain
    /// suspicious measurements due to the scarcity of available data").
    AcceptOneWay,
}

/// Configuration of the consistency pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyConfig {
    /// Maximum |d_ij − d_ji| for a bidirectional pair to be accepted,
    /// meters.
    pub bidirectional_tolerance_m: f64,
    /// Merge policy for one-way measurements.
    pub policy: BidirectionalPolicy,
}

impl Default for ConsistencyConfig {
    fn default() -> Self {
        ConsistencyConfig {
            bidirectional_tolerance_m: 1.0,
            policy: BidirectionalPolicy::AcceptOneWay,
        }
    }
}

/// Merges per-directed-pair estimates into an undirected
/// [`MeasurementSet`], applying the bidirectional consistency check.
///
/// Agreeing bidirectional pairs contribute the mean of the two directions.
///
/// # Panics
///
/// Panics if any node id in `directed` is `>= n`.
pub fn merge_bidirectional(
    directed: &BTreeMap<(NodeId, NodeId), f64>,
    n: usize,
    config: &ConsistencyConfig,
) -> MeasurementSet {
    let mut set = MeasurementSet::new(n);
    for (&(from, to), &d_fwd) in directed {
        // Process each undirected pair once, from its smaller endpoint.
        if from.index() > to.index() {
            continue;
        }
        let reverse = directed.get(&(to, from)).copied();
        match reverse {
            Some(d_rev) => {
                if (d_fwd - d_rev).abs() <= config.bidirectional_tolerance_m {
                    set.insert(from, to, 0.5 * (d_fwd + d_rev));
                }
                // Disagreeing directions: drop the pair entirely.
            }
            None => {
                if config.policy == BidirectionalPolicy::AcceptOneWay {
                    set.insert(from, to, d_fwd);
                }
            }
        }
    }
    // One-way pairs stored under the larger-first key.
    for (&(from, to), &d) in directed {
        if from.index() < to.index() {
            continue;
        }
        if directed.contains_key(&(to, from)) {
            continue; // already handled above
        }
        if config.policy == BidirectionalPolicy::AcceptOneWay {
            set.insert(from, to, d);
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> NodeId {
        NodeId(i)
    }

    fn directed(entries: &[((usize, usize), f64)]) -> BTreeMap<(NodeId, NodeId), f64> {
        entries
            .iter()
            .map(|&((a, b), d)| ((id(a), id(b)), d))
            .collect()
    }

    #[test]
    fn agreeing_bidirectional_pair_is_averaged() {
        let d = directed(&[((0, 1), 10.2), ((1, 0), 9.8)]);
        let set = merge_bidirectional(&d, 2, &ConsistencyConfig::default());
        assert_eq!(set.get(id(0), id(1)), Some(10.0));
    }

    #[test]
    fn disagreeing_bidirectional_pair_is_dropped() {
        let d = directed(&[((0, 1), 10.0), ((1, 0), 14.0)]);
        let cfg = ConsistencyConfig::default();
        let set = merge_bidirectional(&d, 2, &cfg);
        assert_eq!(set.get(id(0), id(1)), None);
        // Even under AcceptOneWay: disagreement is worse than absence.
        assert!(set.is_empty());
    }

    #[test]
    fn one_way_policy_controls_retention() {
        let d = directed(&[((0, 1), 10.0), ((2, 1), 7.0)]);
        let strict = merge_bidirectional(
            &d,
            3,
            &ConsistencyConfig {
                policy: BidirectionalPolicy::RequireBoth,
                ..ConsistencyConfig::default()
            },
        );
        assert!(strict.is_empty());
        let lenient = merge_bidirectional(&d, 3, &ConsistencyConfig::default());
        assert_eq!(lenient.get(id(0), id(1)), Some(10.0));
        assert_eq!(lenient.get(id(1), id(2)), Some(7.0));
        assert_eq!(lenient.len(), 2);
    }

    #[test]
    fn one_way_stored_under_either_orientation() {
        // (2, 0): from > to exercises the second loop.
        let d = directed(&[((2, 0), 8.0)]);
        let set = merge_bidirectional(&d, 3, &ConsistencyConfig::default());
        assert_eq!(set.get(id(0), id(2)), Some(8.0));
    }
}
