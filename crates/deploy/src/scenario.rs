//! Named experiment scenarios.
//!
//! Each scenario bundles a deployment, an anchor set, the ranging-error
//! channel that measures it (the paper's synthetic recipe,
//! [`RangingChannel::paper`], unless a degraded regime is installed) and
//! the seeds that make the paper's experiments reproducible bit-for-bit.
//! The `rl-bench` harness builds every figure from one of these, and
//! [`Scenario::instantiate`] turns one directly into a solver-ready
//! [`Problem`] for the unified
//! [`Localizer`](rl_core::problem::Localizer) API.

use rl_core::problem::Problem;
use rl_core::types::Anchor;
use rl_net::NodeId;
use rl_ranging::channel::RangingChannel;
use serde::{Deserialize, Serialize};

use crate::anchors::AnchorSelection;
use crate::grid::OffsetGrid;
use crate::metro::MetroMap;
use crate::random::RandomDeployment;
use crate::town::TownMap;
use crate::Deployment;

/// A reproducible experiment geometry: deployment, anchors, and the
/// ranging-error channel used when the scenario is instantiated into a
/// [`Problem`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name, e.g. `"grass-grid-47"`.
    pub name: String,
    /// The deployment.
    pub deployment: Deployment,
    /// Anchor node ids (sorted).
    pub anchors: Vec<NodeId>,
    /// The error-channel stack that measures the scenario in
    /// [`Scenario::instantiate`]: the paper's 22 m / N(0, 0.33 m) recipe
    /// ([`RangingChannel::paper`]) by default, with NLOS bias, multipath,
    /// clock drift or adversarial stages composed on top for degraded
    /// regimes.
    pub channel: RangingChannel,
}

impl Scenario {
    /// The Figure 5 grass grid: 47 motes, no anchors (LSS experiments).
    pub fn grass_grid() -> Scenario {
        let deployment = OffsetGrid::paper_figure5().generate();
        Scenario {
            name: "grass-grid-47".into(),
            deployment,
            anchors: Vec::new(),
            channel: RangingChannel::paper(),
        }
    }

    /// The multilateration variant of the grass grid: 13 random anchors of
    /// the 46 reporting motes (one mote failed to report, Section 4.1.3).
    pub fn grass_grid_multilateration(seed: u64) -> Scenario {
        // Drop one node to model the mote that failed to report.
        let deployment = OffsetGrid::paper_figure5().generate().without_nodes(&[0]);
        let mut rng = rl_math::rng::seeded(seed);
        let anchors = AnchorSelection::Random { count: 13 }.select(&deployment, &mut rng);
        Scenario {
            name: "grass-grid-46-13anchors".into(),
            deployment,
            anchors,
            channel: RangingChannel::paper(),
        }
    }

    /// The 15-node parking-lot experiment of Figure 12: 25×25 m area, the
    /// 5 loudspeaker-equipped nodes as anchors.
    pub fn parking_lot(seed: u64) -> Scenario {
        let mut rng = rl_math::rng::seeded(seed);
        let deployment = RandomDeployment::new(15, 25.0, 25.0, 4.0)
            .generate(&mut rng)
            .expect("15 nodes fit in 25x25 at 4 m separation");
        let deployment = Deployment::new("parking-lot-15", deployment.positions);
        // Anchors spread across the id space (the equipped nodes).
        let anchors = AnchorSelection::EveryKth { k: 3 }.select(&deployment, &mut rng);
        Scenario {
            name: "parking-lot-15-5anchors".into(),
            deployment,
            anchors,
            channel: RangingChannel::paper(),
        }
    }

    /// The town-map simulation of Figures 20–22: 59 nodes, 18 random
    /// anchors.
    pub fn town(seed: u64) -> Scenario {
        let mut rng = rl_math::rng::seeded(seed);
        let deployment = TownMap::paper_town().generate(59, &mut rng);
        let anchors = AnchorSelection::Random { count: 18 }.select(&deployment, &mut rng);
        Scenario {
            name: "town-59-18anchors".into(),
            deployment,
            anchors,
            channel: RangingChannel::paper(),
        }
    }

    /// The urban baseline-ranging deployment of Section 3.3: 60 motes over
    /// a few city blocks (ranging evaluation only, no anchors needed).
    pub fn urban_60(seed: u64) -> Scenario {
        let mut rng = rl_math::rng::seeded(seed);
        let deployment = TownMap {
            jitter_m: 3.0,
            ..TownMap::paper_town()
        }
        .generate(60, &mut rng);
        Scenario {
            name: "urban-60".into(),
            deployment: Deployment::new("urban-60", deployment.positions),
            anchors: Vec::new(),
            channel: RangingChannel::paper(),
        }
    }

    /// A metro-scale deployment an order of magnitude beyond the paper's
    /// town: 1000 nodes across an auto-sized district grid (obstruction
    /// belts between districts), 10% of them anchors.
    pub fn metro(seed: u64) -> Scenario {
        Scenario::metro_sized(1000, 0.10, seed)
    }

    /// A metro with `nodes` nodes and `round(nodes × anchor_fraction)`
    /// random anchors, on a district grid sized to the node count: the
    /// smallest square-ish grid of default districts whose capacity holds
    /// `nodes`. Auto-sizing keeps street density — and therefore
    /// connectivity under the 22 m cutoff — roughly constant across the
    /// whole scale ladder, instead of thinning a fixed map until its
    /// streets break apart. (Below ~60 nodes even one district is
    /// undersubscribed; use [`Scenario::town`] at that scale.)
    ///
    /// # Panics
    ///
    /// Panics if `anchor_fraction` is outside `[0, 1]`.
    pub fn metro_sized(nodes: usize, anchor_fraction: f64, seed: u64) -> Scenario {
        let mut map = MetroMap::default_metro().with_districts(1, 1);
        while map.capacity() < nodes {
            let (dx, dy) = (map.districts_x, map.districts_y);
            map = if dx == dy {
                map.with_districts(dx + 1, dy)
            } else {
                map.with_districts(dx, dy + 1)
            };
        }
        Scenario::metro_custom(map, nodes, anchor_fraction, seed)
    }

    /// A metro scenario on an explicit [`MetroMap`]: `nodes` nodes
    /// subsampled from the map's candidates, `round(nodes ×
    /// anchor_fraction)` random anchors, the paper's synthetic error
    /// model.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds the map's capacity or `anchor_fraction`
    /// is outside `[0, 1]`.
    pub fn metro_custom(map: MetroMap, nodes: usize, anchor_fraction: f64, seed: u64) -> Scenario {
        assert!(
            (0.0..=1.0).contains(&anchor_fraction),
            "anchor_fraction {anchor_fraction} outside [0, 1]"
        );
        let mut rng = rl_math::rng::seeded(seed);
        let deployment = map.generate(nodes, &mut rng);
        let count = (nodes as f64 * anchor_fraction).round() as usize;
        let anchors = AnchorSelection::Random { count }.select(&deployment, &mut rng);
        Scenario {
            name: format!("metro-{nodes}-{count}anchors"),
            deployment,
            anchors,
            channel: RangingChannel::paper(),
        }
    }

    /// Non-anchor node ids.
    pub fn non_anchors(&self) -> Vec<NodeId> {
        crate::anchors::split_nodes(self.deployment.len(), &self.anchors).1
    }

    /// Replaces the error-channel stack (builder style). Same
    /// `(scenario, seed)` pair, same bit-identical problem — the channel
    /// draws its sub-streams from the instantiation seed.
    ///
    /// ```
    /// use rl_deploy::Scenario;
    /// use rl_ranging::channel::{ChannelStage, RangingChannel};
    ///
    /// let clean = Scenario::town(7);
    /// let hostile = clean.clone().with_channel(
    ///     RangingChannel::paper().with_stage(ChannelStage::Adversarial {
    ///         node_fraction: 0.10,
    ///         corruption_m: 40.0,
    ///     }),
    /// );
    /// // Same geometry, different measurements.
    /// let (a, b) = (clean.instantiate(1), hostile.instantiate(1));
    /// assert_eq!(a.truth(), b.truth());
    /// assert_ne!(a.measurements(), b.measurements());
    /// ```
    pub fn with_channel(mut self, channel: RangingChannel) -> Self {
        self.channel = channel;
        self
    }

    /// Anchor descriptors (id + ground-truth position), ready for the
    /// anchor-based solvers.
    pub fn anchor_list(&self) -> Vec<Anchor> {
        Anchor::from_truth(&self.anchors, &self.deployment.positions)
    }

    /// Instantiates the scenario into a solver-ready
    /// [`Problem`]: the channel measures
    /// every in-range pair (seeded by `seed`), anchors are resolved to
    /// their ground-truth positions, and the deployment's positions ride
    /// along as ground truth for evaluation and radio connectivity.
    ///
    /// The same `(scenario, seed)` pair always produces a bit-identical
    /// problem.
    pub fn instantiate(&self, seed: u64) -> Problem {
        let mut rng = rl_math::rng::seeded(seed);
        let measurements = self
            .channel
            .measure_all(&self.deployment.positions, &mut rng);
        Problem::builder(measurements)
            .name(self.name.clone())
            .anchors(self.anchor_list())
            .truth(self.deployment.positions.clone())
            .build()
            .expect("scenario anchors and truth are consistent by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grass_grid_matches_paper_counts() {
        let s = Scenario::grass_grid();
        assert_eq!(s.deployment.len(), 47);
        assert!(s.anchors.is_empty());
        assert_eq!(s.non_anchors().len(), 47);
    }

    #[test]
    fn grass_multilateration_has_13_of_46() {
        let s = Scenario::grass_grid_multilateration(42);
        assert_eq!(s.deployment.len(), 46);
        assert_eq!(s.anchors.len(), 13);
        assert_eq!(s.non_anchors().len(), 33);
    }

    #[test]
    fn parking_lot_geometry() {
        let s = Scenario::parking_lot(7);
        assert_eq!(s.deployment.len(), 15);
        assert_eq!(s.anchors.len(), 5);
        let (lo, hi) = s.deployment.bounding_box().unwrap();
        assert!(hi.x - lo.x <= 25.0 && hi.y - lo.y <= 25.0);
    }

    #[test]
    fn town_has_59_nodes_18_anchors() {
        let s = Scenario::town(11);
        assert_eq!(s.deployment.len(), 59);
        assert_eq!(s.anchors.len(), 18);
    }

    #[test]
    fn urban_has_60_nodes() {
        let s = Scenario::urban_60(3);
        assert_eq!(s.deployment.len(), 60);
    }

    #[test]
    fn scenarios_are_deterministic() {
        assert_eq!(Scenario::town(5), Scenario::town(5));
        assert_ne!(Scenario::town(5), Scenario::town(6));
        assert_eq!(Scenario::metro_sized(300, 0.1, 5), {
            Scenario::metro_sized(300, 0.1, 5)
        });
    }

    #[test]
    fn metro_scenario_scales_past_the_town() {
        let s = Scenario::metro(3);
        assert_eq!(s.deployment.len(), 1000);
        assert_eq!(s.anchors.len(), 100);
        assert_eq!(s.name, "metro-1000-100anchors");
        assert_eq!(s.non_anchors().len(), 900);
        // Instantiation produces a consistent, evaluable problem at scale.
        let p = s.instantiate(1);
        assert_eq!(p.node_count(), 1000);
        assert_eq!(p.anchors().len(), 100);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn metro_rejects_bad_anchor_fraction() {
        let _ = Scenario::metro_sized(100, 1.5, 1);
    }

    #[test]
    fn instantiate_builds_consistent_problem() {
        let s = Scenario::town(7);
        let p = s.instantiate(13);
        assert_eq!(p.name(), s.name);
        assert_eq!(p.node_count(), 59);
        assert_eq!(p.anchors().len(), 18);
        assert_eq!(p.truth().unwrap(), &s.deployment.positions[..]);
        assert_eq!(
            p.measurements().len(),
            s.deployment.pairs_within(s.channel.max_range_m())
        );
        // Anchors sit at their ground-truth positions.
        for a in p.anchors() {
            assert_eq!(a.position, s.deployment.positions[a.id.index()]);
        }
        // Same seed, bit-identical problem; different seed, different
        // measurements.
        assert_eq!(s.instantiate(13), p);
        assert_ne!(s.instantiate(14).measurements(), p.measurements());
    }

    #[test]
    fn with_channel_replaces_the_recipe_deterministically() {
        use rl_ranging::channel::{ChannelStage, RangingChannel};
        let clean = Scenario::town(7);
        let hostile = clean.clone().with_channel(
            RangingChannel::paper()
                .with_stage(ChannelStage::NlosBias {
                    mean_m: 1.0,
                    std_m: 0.5,
                })
                .with_stage(ChannelStage::Adversarial {
                    node_fraction: 0.10,
                    corruption_m: 40.0,
                }),
        );
        // Geometry and anchors are untouched; measurements differ.
        assert_eq!(hostile.deployment, clean.deployment);
        assert_eq!(hostile.anchors, clean.anchors);
        let (a, b) = (clean.instantiate(13), hostile.instantiate(13));
        assert_ne!(a.measurements(), b.measurements());
        // Channel instantiation is bit-deterministic per seed.
        assert_eq!(hostile.instantiate(13), b);
        assert_ne!(hostile.instantiate(14), b);
        // And survives serde.
        let json = serde_json::to_string(&hostile).unwrap();
        assert_eq!(serde_json::from_str::<Scenario>(&json).unwrap(), hostile);
    }

    #[test]
    fn with_channel_changes_the_range_cutoff() {
        use rl_ranging::channel::ChannelStage;
        let s = Scenario::grass_grid().with_channel(
            RangingChannel::ideal(10.0).with_stage(ChannelStage::GaussianNoise { sigma_m: 0.1 }),
        );
        let p = s.instantiate(1);
        assert_eq!(
            p.measurements().len(),
            s.deployment.pairs_within(10.0),
            "short-range model must shrink the pair set"
        );
    }
}
