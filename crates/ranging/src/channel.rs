//! Composable ranging-error channel stack.
//!
//! The synthetic recipe used throughout the paper's evaluation — true
//! distance plus `N(0, 0.33 m)` under a 22 m cutoff — is the *clean*
//! regime. Real outdoor deployments layer several distinct error
//! mechanisms on top of it, and the resilience claims of the title are
//! only meaningful against them. [`RangingChannel`] models each
//! mechanism as an independent [`ChannelStage`] and composes any subset:
//!
//! * [`ChannelStage::NlosBias`] — non-line-of-sight propagation: the
//!   first detected path is longer than the straight line, adding a
//!   positive bias (mean + spread) to every measurement,
//! * [`ChannelStage::Multipath`] — delay spread: reflections smear the
//!   detection point by an exponentially distributed excess path,
//! * [`ChannelStage::GaussianNoise`] — the familiar zero-mean
//!   measurement noise of the paper's recipe,
//! * [`ChannelStage::ClockDrift`] — per-node hardware clock frequency
//!   error, scaling each pair's time-of-flight multiplicatively,
//! * [`ChannelStage::Adversarial`] — contamination: a seeded fraction
//!   of *nodes* is compromised and reports garbage ranges; pairs between
//!   two compromised nodes are always garbage, mixed pairs survive with
//!   the honest endpoint's report about half the time (the
//!   bidirectional consistency filter keeps one directed report).
//!
//! An empty stack is the ideal channel (exact true distances under the
//! range cutoff).
//!
//! # Determinism
//!
//! `measure_all` (like `augment`) draws exactly **one** `u64` from the
//! caller's stream and expands it into an independent sub-stream per
//! stage *kind* (the same whole-stream derivation pattern the
//! distributed pipeline uses for per-node solves — rule 5 of the
//! `rl_math::rng` seeding contract). Stages are applied in a fixed
//! canonical kind order, so:
//!
//! * the same seed reproduces bit-identical measurements,
//! * stacks that differ only in *construction order* of distinct-kind
//!   stages produce bit-identical measurements (the models commute by
//!   canonicalization), and
//! * adding a stage never perturbs the draws of the stages already in
//!   the stack — each kind owns its stream — so error contributions
//!   compose independently.
//!
//! Duplicate stages of the same kind share that kind's stream (their
//! draws are identical, not independent); stacks are expected to carry
//! at most one stage per kind.
//!
//! # Example
//!
//! ```
//! use rl_geom::Point2;
//! use rl_ranging::channel::{ChannelStage, RangingChannel};
//!
//! let positions: Vec<Point2> = (0..9)
//!     .map(|i| Point2::new((i % 3) as f64 * 9.0, (i / 3) as f64 * 9.0))
//!     .collect();
//!
//! // The paper's clean recipe plus 10% compromised nodes.
//! let channel = RangingChannel::ideal(22.0)
//!     .with_stage(ChannelStage::GaussianNoise { sigma_m: 0.33 })
//!     .with_stage(ChannelStage::Adversarial {
//!         node_fraction: 0.10,
//!         corruption_m: 40.0,
//!     });
//!
//! let mut rng = rl_math::rng::seeded(7);
//! let set = channel.measure_all(&positions, &mut rng);
//! assert!(set.len() > 0);
//!
//! // Same seed, same bits.
//! let mut rng2 = rl_math::rng::seeded(7);
//! let set2 = channel.measure_all(&positions, &mut rng2);
//! assert_eq!(set, set2);
//! ```

use rand::rngs::StdRng;
use rand::Rng;
use rl_geom::Point2;
use rl_net::NodeId;
use serde::{Deserialize, Serialize};

use crate::measurement::MeasurementSet;

/// One error mechanism in a [`RangingChannel`] stack.
///
/// Variants are listed in their canonical application order: additive
/// path-length biases first (NLOS, multipath), then measurement noise,
/// then the multiplicative clock scaling, and adversarial replacement
/// last (a compromised node's report is garbage regardless of what the
/// physics did).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChannelStage {
    /// Non-line-of-sight bias: adds `max(0, N(mean_m, std_m²))` meters
    /// per pair — the detected path is never shorter than the true one.
    NlosBias {
        /// Mean excess path length, meters.
        mean_m: f64,
        /// Spread of the excess path length, meters.
        std_m: f64,
    },
    /// Multipath delay spread: adds an `Exp(delay_spread_m)` excess
    /// path per pair (mean `delay_spread_m` meters, heavy right tail).
    Multipath {
        /// Mean excess path of the reflected detection, meters.
        delay_spread_m: f64,
    },
    /// Zero-mean Gaussian measurement noise — the paper's
    /// `N(0, 0.33 m)` recipe is `sigma_m: 0.33`.
    GaussianNoise {
        /// Standard deviation, meters.
        sigma_m: f64,
    },
    /// Per-node hardware clock frequency error: node `i` draws
    /// `δ_i ~ N(0, (std_ppm · 10⁻⁶)²)` once, and the pair `(i, j)`
    /// measurement is scaled by `1 + (δ_i + δ_j)/2` (each endpoint's
    /// clock contributes half the time-of-flight conversion).
    ClockDrift {
        /// Per-node frequency-error spread, parts per million.
        std_ppm: f64,
    },
    /// Adversarial contamination: `round(node_fraction · n)` nodes are
    /// compromised (selected from the stage's seeded stream) and report
    /// `U(0, corruption_m)` garbage instead of real measurements. A pair
    /// between two compromised nodes is always garbage; a *mixed* pair
    /// (one honest endpoint) is garbage with probability ½ — the ranging
    /// pipeline's bidirectional consistency filter keeps one of the two
    /// directed reports, and the compromised node controls only its own.
    Adversarial {
        /// Fraction of nodes compromised, in `[0, 1]`.
        node_fraction: f64,
        /// Upper bound of the garbage range report, meters.
        corruption_m: f64,
    },
}

impl ChannelStage {
    /// Canonical application rank (also the stream-salt index).
    fn rank(&self) -> u64 {
        match self {
            ChannelStage::NlosBias { .. } => 0,
            ChannelStage::Multipath { .. } => 1,
            ChannelStage::GaussianNoise { .. } => 2,
            ChannelStage::ClockDrift { .. } => 3,
            ChannelStage::Adversarial { .. } => 4,
        }
    }
}

/// Stream-salt multiplier for per-kind sub-streams (the same derivation
/// pattern as the distributed pipeline's per-node streams).
const STAGE_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// A composable stack of ranging-error stages over a disk range cutoff.
///
/// See the [module docs](self) for the error model and determinism
/// rules, and [`ChannelStage`] for the individual mechanisms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RangingChannel {
    /// Pairs farther apart than this (true distance) are not measured.
    max_range_m: f64,
    /// The error stages, as constructed (applied in canonical order).
    stages: Vec<ChannelStage>,
}

impl RangingChannel {
    /// The ideal channel: exact true distances for every pair within
    /// `max_range_m`, no error stages.
    pub fn ideal(max_range_m: f64) -> Self {
        assert!(
            max_range_m > 0.0,
            "max_range_m must be positive, got {max_range_m}"
        );
        RangingChannel {
            max_range_m,
            stages: Vec::new(),
        }
    }

    /// The paper's clean synthetic recipe as a channel stack: 22 m
    /// cutoff plus `N(0, 0.33 m)` noise.
    pub fn paper() -> Self {
        RangingChannel::ideal(22.0).with_stage(ChannelStage::GaussianNoise { sigma_m: 0.33 })
    }

    /// Adds an error stage (builder style). Construction order is
    /// irrelevant for distinct-kind stages: application follows the
    /// canonical kind order.
    pub fn with_stage(mut self, stage: ChannelStage) -> Self {
        match stage {
            ChannelStage::NlosBias { mean_m, std_m } => {
                assert!(
                    mean_m >= 0.0 && std_m >= 0.0,
                    "NLOS parameters must be non-negative"
                );
            }
            ChannelStage::Multipath { delay_spread_m } => {
                assert!(delay_spread_m >= 0.0, "delay spread must be non-negative");
            }
            ChannelStage::GaussianNoise { sigma_m } => {
                assert!(sigma_m >= 0.0, "noise sigma must be non-negative");
            }
            ChannelStage::ClockDrift { std_ppm } => {
                assert!(std_ppm >= 0.0, "clock drift must be non-negative");
            }
            ChannelStage::Adversarial { node_fraction, .. } => {
                assert!(
                    (0.0..=1.0).contains(&node_fraction),
                    "node_fraction {node_fraction} outside [0, 1]"
                );
            }
        }
        self.stages.push(stage);
        self
    }

    /// The range cutoff, meters.
    pub fn max_range_m(&self) -> f64 {
        self.max_range_m
    }

    /// The stages, in construction order.
    pub fn stages(&self) -> &[ChannelStage] {
        &self.stages
    }

    /// Measures every pair within the range cutoff, applying the error
    /// stack. Draws exactly one `u64` from `rng` (the stream base); see
    /// the [module docs](self) for the determinism guarantees. Outputs
    /// are clamped to be non-negative. This is
    /// [`measure_subnetwork`](Self::measure_subnetwork) with every node
    /// keeping its own id.
    pub fn measure_all<R: Rng + ?Sized>(
        &self,
        positions: &[Point2],
        rng: &mut R,
    ) -> MeasurementSet {
        let ids: Vec<NodeId> = (0..positions.len()).map(NodeId).collect();
        self.measure_subnetwork(positions, &ids, positions.len(), rng)
    }

    /// Measures the nodes at `positions` as
    /// [`measure_all`](Self::measure_all) does, into a set over
    /// `universe` nodes in which the node at `positions[k]` is `ids[k]`.
    /// A mobility tick measures its active nodes this way, straight into
    /// the ids of the whole deployment.
    ///
    /// It draws exactly what `measure_all(positions, rng)` draws, and
    /// per-node stage state (clock drift, compromised nodes) is drawn in
    /// `positions` order, so the set equals `measure_all`'s with node `k`
    /// renamed `ids[k]`. Since `ids` ascend, the walk's pairs keep their
    /// `(a, b)` order under the renaming, and the set's rows are filled
    /// straight from the walk.
    ///
    /// # Panics
    ///
    /// Panics if `ids` and `positions` differ in length, if `ids` are not
    /// strictly ascending or reach `universe`, or, like `measure_all`, if
    /// the stack produces an invalid measurement (a non-finite garbage
    /// range, say).
    pub fn measure_subnetwork<R: Rng + ?Sized>(
        &self,
        positions: &[Point2],
        ids: &[NodeId],
        universe: usize,
        rng: &mut R,
    ) -> MeasurementSet {
        assert_eq!(
            ids.len(),
            positions.len(),
            "ids and positions must agree on node count"
        );
        assert!(
            ids.windows(2).all(|w| w[0] < w[1])
                && ids.last().is_none_or(|id| id.index() < universe),
            "ids must ascend strictly below the universe of {universe}"
        );
        let mut pairs = self.measure_pairs(positions, rng, |_, _| false);
        for (a, b, _) in &mut pairs {
            (*a, *b) = (ids[*a].index(), ids[*b].index());
        }
        MeasurementSet::from_ordered_pairs(universe, &pairs).unwrap_or_else(|(_, e)| panic!("{e}"))
    }

    /// Measures every in-range pair that `set` *lacks*, keeping existing
    /// measurements as they are (the paper's augmentation of sparse field
    /// data, Section 4.1.3 and Figure 25); returns how many pairs were
    /// added. Draws exactly one `u64` from `rng`, like
    /// [`measure_all`](Self::measure_all).
    ///
    /// Both walk the pairs `(i < j)` once, in `(i, j)` order. A pair whose
    /// squared separation exceeds `max_range_m² · (1 + 10⁻⁹)` is dropped
    /// before its true distance (a `hypot`) is taken. The prefilter is
    /// exact: the squared sum and the cutoff's square each carry a few
    /// ulps of rounding, about 10⁻¹⁵ relative, so the 10⁻⁹ margin is
    /// some 10⁶ times wider than any disagreement between the two tests,
    /// and it drops only pairs the `hypot` test would drop too. For a
    /// cutoff so small that its square is subnormal the margin no longer
    /// covers the rounding, and every pair goes to the `hypot` test.
    /// Pairs with non-finite coordinates reach the same verdict as the
    /// `hypot` test alone gives them.
    ///
    /// The prefilter itself does not branch: for each `i`, every later
    /// `j` is written to a candidate buffer whose length advances only
    /// past the pairs the prefilter keeps, and the `hypot` test and the
    /// stages then run on those candidates alone, still in `(i, j)`
    /// order. Unlike `measure_all`, `augment` inserts each new pair into
    /// the existing set.
    ///
    /// # Panics
    ///
    /// Panics if `set` and `positions` disagree on the node count.
    pub fn augment<R: Rng + ?Sized>(
        &self,
        set: &mut MeasurementSet,
        positions: &[Point2],
        rng: &mut R,
    ) -> usize {
        assert_eq!(
            set.node_count(),
            positions.len(),
            "measurement set and positions must agree on node count"
        );
        let pairs = self.measure_pairs(positions, rng, |i, j| set.contains(NodeId(i), NodeId(j)));
        for &(i, j, d) in &pairs {
            set.insert(NodeId(i), NodeId(j), d);
        }
        pairs.len()
    }

    /// The pair walk behind [`measure_subnetwork`](Self::measure_subnetwork)
    /// and [`augment`](Self::augment): draws the stream base from `rng`,
    /// then measures every in-range pair `(i < j)` that `skip` does not
    /// reject, in `(i, j)` order. A skipped pair draws nothing from the
    /// stages' streams.
    fn measure_pairs<R: Rng + ?Sized>(
        &self,
        positions: &[Point2],
        rng: &mut R,
        skip: impl Fn(usize, usize) -> bool,
    ) -> Vec<(usize, usize, f64)> {
        let base: u64 = rng.random();
        let n = positions.len();

        // Stable sort into canonical kind order; each stage owns the
        // sub-stream of its kind.
        let mut ordered: Vec<&ChannelStage> = self.stages.iter().collect();
        ordered.sort_by_key(|s| s.rank());
        let mut states: Vec<StageState> = ordered
            .iter()
            .map(|s| StageState::prepare(s, base, n))
            .collect();

        // The squared-separation prefilter (see `augment`); off when the
        // cutoff's square is not a normal float.
        let range_sq = self.max_range_m * self.max_range_m;
        let prefilter_sq = if range_sq >= f64::MIN_POSITIVE {
            range_sq * (1.0 + 1e-9)
        } else {
            f64::INFINITY
        };

        let mut pairs = Vec::new();
        let mut candidates = vec![0usize; n];
        for (i, &p) in positions.iter().enumerate() {
            // Every later node is written; the length advances past the
            // ones the prefilter keeps (the same comparison a branch would
            // take, so NaN and infinite separations are kept alike).
            let mut len = 0;
            for (j, &q) in positions.iter().enumerate().skip(i + 1) {
                candidates[len] = j;
                len += usize::from(!(p.distance_sq(q) > prefilter_sq));
            }
            for &j in &candidates[..len] {
                let true_d = p.distance(positions[j]);
                if true_d > self.max_range_m || skip(i, j) {
                    continue;
                }
                let mut d = true_d;
                for state in &mut states {
                    d = state.apply(d, i, j);
                }
                pairs.push((i, j, d.max(0.0)));
            }
        }
        pairs
    }
}

/// Per-run state of one stage: its kind sub-stream plus any per-node
/// draws made up front (in node order, so pair iteration never touches
/// them).
enum StageState {
    Nlos {
        mean_m: f64,
        std_m: f64,
        rng: StdRng,
    },
    Multipath {
        delay_spread_m: f64,
        rng: StdRng,
    },
    Noise {
        sigma_m: f64,
        rng: StdRng,
    },
    ClockDrift {
        /// Per-node clock factor contribution `δ_i`.
        drift: Vec<f64>,
    },
    Adversarial {
        corrupted: Vec<bool>,
        corruption_m: f64,
        rng: StdRng,
    },
}

impl StageState {
    fn prepare(stage: &ChannelStage, base: u64, n: usize) -> StageState {
        let mut rng = rl_math::rng::seeded(base ^ (stage.rank() + 1).wrapping_mul(STAGE_STREAM));
        match *stage {
            ChannelStage::NlosBias { mean_m, std_m } => StageState::Nlos { mean_m, std_m, rng },
            ChannelStage::Multipath { delay_spread_m } => StageState::Multipath {
                delay_spread_m,
                rng,
            },
            ChannelStage::GaussianNoise { sigma_m } => StageState::Noise { sigma_m, rng },
            ChannelStage::ClockDrift { std_ppm } => {
                let std = std_ppm * 1e-6;
                let drift = (0..n)
                    .map(|_| rl_math::rng::normal(&mut rng, 0.0, std))
                    .collect();
                StageState::ClockDrift { drift }
            }
            ChannelStage::Adversarial {
                node_fraction,
                corruption_m,
            } => {
                let k = (node_fraction * n as f64).round() as usize;
                let mut corrupted = vec![false; n];
                for idx in rl_math::rng::sample_indices(&mut rng, n, k) {
                    corrupted[idx] = true;
                }
                StageState::Adversarial {
                    corrupted,
                    corruption_m,
                    rng,
                }
            }
        }
    }

    fn apply(&mut self, d: f64, i: usize, j: usize) -> f64 {
        match self {
            StageState::Nlos { mean_m, std_m, rng } => {
                d + rl_math::rng::normal(rng, *mean_m, *std_m).max(0.0)
            }
            StageState::Multipath {
                delay_spread_m,
                rng,
            } => {
                // Inverse-CDF exponential: u in [0, 1) keeps ln finite.
                let u: f64 = rng.random();
                d + *delay_spread_m * -(1.0 - u).ln()
            }
            StageState::Noise { sigma_m, rng } => d + rl_math::rng::normal(rng, 0.0, *sigma_m),
            StageState::ClockDrift { drift } => d * (1.0 + 0.5 * (drift[i] + drift[j])),
            StageState::Adversarial {
                corrupted,
                corruption_m,
                rng,
            } => {
                if corrupted[i] && corrupted[j] {
                    rng.random::<f64>() * *corruption_m
                } else if corrupted[i] || corrupted[j] {
                    // Mixed pair: the consistency filter keeps the honest
                    // directed report half the time.
                    if rng.random::<f64>() < 0.5 {
                        rng.random::<f64>() * *corruption_m
                    } else {
                        d
                    }
                } else {
                    d
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(nx: usize, ny: usize, spacing: f64) -> Vec<Point2> {
        (0..nx * ny)
            .map(|i| Point2::new((i % nx) as f64 * spacing, (i / nx) as f64 * spacing))
            .collect()
    }

    /// The exhaustive pair walk that the squared-separation prefilter
    /// replaced, kept as the oracle: every pair's `hypot` against the
    /// cutoff, inserted one at a time.
    fn oracle_augment<R: Rng + ?Sized>(
        channel: &RangingChannel,
        set: &mut MeasurementSet,
        positions: &[Point2],
        rng: &mut R,
    ) -> usize {
        let base: u64 = rng.random();
        let n = positions.len();
        let mut ordered: Vec<&ChannelStage> = channel.stages.iter().collect();
        ordered.sort_by_key(|s| s.rank());
        let mut states: Vec<StageState> = ordered
            .iter()
            .map(|s| StageState::prepare(s, base, n))
            .collect();
        let mut added = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let true_d = positions[i].distance(positions[j]);
                if true_d > channel.max_range_m || set.contains(NodeId(i), NodeId(j)) {
                    continue;
                }
                let mut d = true_d;
                for state in &mut states {
                    d = state.apply(d, i, j);
                }
                set.insert(NodeId(i), NodeId(j), d.max(0.0));
                added += 1;
            }
        }
        added
    }

    /// One stage of every kind over a `max_range_m` cutoff.
    fn five_kind_stack(max_range_m: f64) -> RangingChannel {
        RangingChannel::ideal(max_range_m)
            .with_stage(ChannelStage::NlosBias {
                mean_m: 1.0,
                std_m: 0.5,
            })
            .with_stage(ChannelStage::Multipath {
                delay_spread_m: 0.5,
            })
            .with_stage(ChannelStage::GaussianNoise { sigma_m: 0.33 })
            .with_stage(ChannelStage::ClockDrift { std_ppm: 5_000.0 })
            .with_stage(ChannelStage::Adversarial {
                node_fraction: 0.2,
                corruption_m: 40.0,
            })
    }

    /// The compact-then-remap oracle for a subnetwork: a compact set from
    /// the exhaustive walk, rebuilt in universe ids by the validated bulk
    /// constructor.
    fn oracle_subnetwork<R: Rng + ?Sized>(
        channel: &RangingChannel,
        positions: &[Point2],
        ids: &[NodeId],
        universe: usize,
        rng: &mut R,
    ) -> MeasurementSet {
        let mut compact = MeasurementSet::new(positions.len());
        oracle_augment(channel, &mut compact, positions, rng);
        MeasurementSet::try_from_weighted_edges(
            universe,
            compact
                .iter_weighted()
                .map(|(a, b, d, w)| (ids[a.index()], ids[b.index()], d, w)),
        )
        .expect("remapped edges stay valid")
    }

    /// The second `u64` of `seed`'s stream: what a caller draws next after
    /// a call that took exactly one.
    fn next_after_one(seed: u64) -> u64 {
        let mut rng = rl_math::rng::seeded(seed);
        let _: u64 = rng.random();
        rng.random::<u64>()
    }

    /// Asserts that `measure_subnetwork` matches the compact-then-remap
    /// oracle on one layout and draws exactly one `u64`.
    fn assert_subnetwork_matches_oracle(
        channel: &RangingChannel,
        positions: &[Point2],
        ids: &[NodeId],
        universe: usize,
        seed: u64,
    ) {
        let mut rng = rl_math::rng::seeded(seed);
        let measured = channel.measure_subnetwork(positions, ids, universe, &mut rng);
        assert_eq!(
            rng.random::<u64>(),
            next_after_one(seed),
            "measure_subnetwork stream"
        );
        let mut rng = rl_math::rng::seeded(seed);
        let expected = oracle_subnetwork(channel, positions, ids, universe, &mut rng);
        assert_eq!(measured, expected);
        assert_eq!(measured.node_count(), universe);
    }

    /// Asserts that `measure_all`, `augment` and `measure_subnetwork` (on
    /// spread-out odd ids) agree with the oracles on one layout: equal
    /// sets, equal `added` counts, and exactly one `u64` drawn from the
    /// caller's stream. `given` lists the pairs the set holds before
    /// `augment`. Returns the measured set.
    fn assert_matches_oracle(
        channel: &RangingChannel,
        positions: &[Point2],
        given: &[(usize, usize)],
        seed: u64,
    ) -> MeasurementSet {
        let n = positions.len();
        let next_after_one = next_after_one(seed);
        let odd: Vec<NodeId> = (0..n).map(|k| NodeId(2 * k + 1)).collect();
        assert_subnetwork_matches_oracle(channel, positions, &odd, 2 * n + 2, seed);

        let mut rng = rl_math::rng::seeded(seed);
        let measured = channel.measure_all(positions, &mut rng);
        assert_eq!(rng.random::<u64>(), next_after_one, "measure_all stream");
        let mut expected = MeasurementSet::new(n);
        let mut rng = rl_math::rng::seeded(seed);
        let expected_added = oracle_augment(channel, &mut expected, positions, &mut rng);
        assert_eq!(measured, expected);
        assert_eq!(measured.len(), expected_added);

        let mut partial = MeasurementSet::new(n);
        for &(a, b) in given {
            if a != b {
                partial.insert(NodeId(a), NodeId(b), 77.0);
            }
        }
        let mut augmented = partial.clone();
        let mut rng = rl_math::rng::seeded(seed);
        let added = channel.augment(&mut augmented, positions, &mut rng);
        assert_eq!(rng.random::<u64>(), next_after_one, "augment stream");
        let mut rng = rl_math::rng::seeded(seed);
        let expected_added = oracle_augment(channel, &mut partial, positions, &mut rng);
        assert_eq!(augmented, partial);
        assert_eq!(added, expected_added);
        measured
    }

    #[test]
    fn prefilter_matches_the_exhaustive_walk_on_the_range_boundary() {
        let r = 25.0_f64;
        let up = f64::next_up;
        let down = f64::next_down;
        // (dx, dy) separations of a two-node layout, and whether the pair
        // is in range (`None`: left to the oracle). 15-20-25 is a
        // Pythagorean triple, so that diagonal lies exactly on the cutoff.
        let offsets: [(f64, f64, Option<bool>); 12] = [
            (r, 0.0, Some(true)),
            (down(r), 0.0, Some(true)),
            (up(r), 0.0, Some(false)),
            (0.0, r, Some(true)),
            (0.0, up(r), Some(false)),
            (15.0, 20.0, Some(true)),
            (15.0, down(20.0), Some(true)),
            (15.0, up(20.0), None),
            (up(15.0), up(20.0), None),
            (-20.0, -15.0, Some(true)),
            // Inside the prefilter's margin, outside the cutoff: only the
            // `hypot` test drops it.
            (r * (1.0 + 4e-10), 0.0, Some(false)),
            // Just beyond the margin: the prefilter drops it.
            (r * (1.0 + 6e-10), 0.0, Some(false)),
        ];
        let channel = five_kind_stack(r);
        for shift in [0.0, 1e6] {
            for (k, &(dx, dy, in_range)) in offsets.iter().enumerate() {
                let positions = [
                    Point2::new(shift, shift),
                    Point2::new(shift + dx, shift + dy),
                ];
                let set = assert_matches_oracle(&channel, &positions, &[], 23 + k as u64);
                if let Some(in_range) = in_range.filter(|_| shift == 0.0) {
                    assert_eq!(set.len() == 1, in_range, "separation {k}");
                }
            }
            let given = [(0, 1), (5, 10), (3, 12)];
            // A grid at the cutoff's spacing: every axis neighbour sits
            // exactly on the boundary.
            let grid: Vec<Point2> = grid(4, 4, r)
                .into_iter()
                .map(|p| Point2::new(p.x + shift, p.y + shift))
                .collect();
            assert_eq!(assert_matches_oracle(&channel, &grid, &given, 5).len(), 24);
        }
        // A cutoff whose square is subnormal: the squares round by far
        // more than the margin, and this in-range pair's squared sum
        // reads above it.
        let tiny = [
            Point2::new(0.0, 0.0),
            Point2::new(9.176797042478298e-161, 3.97320119627379e-161),
        ];
        assert_eq!(
            assert_matches_oracle(&five_kind_stack(1e-160), &tiny, &[], 3).len(),
            1
        );
        // Non-finite coordinates take the branch the `hypot` test alone
        // gives them.
        let mut odd = grid(3, 3, 10.0);
        odd.push(Point2::new(f64::NAN, 0.0));
        odd.push(Point2::new(f64::INFINITY, 0.0));
        odd.push(Point2::new(f64::INFINITY, f64::INFINITY));
        odd.push(Point2::new(f64::NEG_INFINITY, 5.0));
        assert_matches_oracle(&channel, &odd, &[(0, 9)], 31);
    }

    #[test]
    #[should_panic(expected = "ascend strictly")]
    fn subnetwork_ids_must_ascend() {
        let mut rng = rl_math::rng::seeded(1);
        let ids = [NodeId(3), NodeId(2)];
        let _ = RangingChannel::paper().measure_subnetwork(&grid(2, 1, 5.0), &ids, 4, &mut rng);
    }

    #[test]
    #[should_panic(expected = "below the universe")]
    fn subnetwork_ids_must_fit_the_universe() {
        let mut rng = rl_math::rng::seeded(1);
        let ids = [NodeId(2), NodeId(4)];
        let _ = RangingChannel::paper().measure_subnetwork(&grid(2, 1, 50.0), &ids, 4, &mut rng);
    }

    #[test]
    #[should_panic(expected = "distance must be finite")]
    fn an_infinite_garbage_range_still_panics() {
        // A compromised pair reports `U(0, ∞)`: the edge check rejects it.
        let channel = RangingChannel::ideal(22.0).with_stage(ChannelStage::Adversarial {
            node_fraction: 1.0,
            corruption_m: f64::INFINITY,
        });
        let mut rng = rl_math::rng::seeded(2);
        let _ = channel.measure_all(&grid(2, 2, 5.0), &mut rng);
    }

    #[test]
    fn ideal_channel_reports_exact_distances() {
        let positions = grid(3, 3, 9.0);
        let mut rng = rl_math::rng::seeded(1);
        let set = RangingChannel::ideal(22.0).measure_all(&positions, &mut rng);
        for (a, b, d) in set.iter() {
            let true_d = positions[a.index()].distance(positions[b.index()]);
            assert_eq!(d.to_bits(), true_d.to_bits());
        }
        assert!(!set.is_empty());
    }

    #[test]
    fn range_cutoff_is_respected() {
        let positions = grid(4, 4, 9.0);
        let mut rng = rl_math::rng::seeded(2);
        let set = RangingChannel::ideal(10.0).measure_all(&positions, &mut rng);
        for (a, b, _) in set.iter() {
            assert!(positions[a.index()].distance(positions[b.index()]) <= 10.0);
        }
    }

    #[test]
    fn same_seed_same_bits_different_seed_different_bits() {
        let positions = grid(4, 4, 9.0);
        let channel = RangingChannel::paper()
            .with_stage(ChannelStage::NlosBias {
                mean_m: 1.0,
                std_m: 0.5,
            })
            .with_stage(ChannelStage::Adversarial {
                node_fraction: 0.2,
                corruption_m: 40.0,
            });
        let run = |seed: u64| {
            let mut rng = rl_math::rng::seeded(seed);
            channel.measure_all(&positions, &mut rng)
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn construction_order_of_distinct_kinds_is_irrelevant() {
        let positions = grid(4, 4, 9.0);
        let forward = RangingChannel::ideal(22.0)
            .with_stage(ChannelStage::NlosBias {
                mean_m: 1.5,
                std_m: 0.5,
            })
            .with_stage(ChannelStage::GaussianNoise { sigma_m: 0.33 })
            .with_stage(ChannelStage::ClockDrift { std_ppm: 5_000.0 });
        let backward = RangingChannel::ideal(22.0)
            .with_stage(ChannelStage::ClockDrift { std_ppm: 5_000.0 })
            .with_stage(ChannelStage::GaussianNoise { sigma_m: 0.33 })
            .with_stage(ChannelStage::NlosBias {
                mean_m: 1.5,
                std_m: 0.5,
            });
        let mut ra = rl_math::rng::seeded(3);
        let mut rb = rl_math::rng::seeded(3);
        assert_eq!(
            forward.measure_all(&positions, &mut ra),
            backward.measure_all(&positions, &mut rb)
        );
    }

    #[test]
    fn adversarial_contamination_hits_selected_nodes_only() {
        let positions = grid(5, 5, 9.0);
        let channel = RangingChannel::ideal(22.0).with_stage(ChannelStage::Adversarial {
            node_fraction: 0.2,
            corruption_m: 40.0,
        });
        let mut rng = rl_math::rng::seeded(4);
        let set = channel.measure_all(&positions, &mut rng);
        // Nodes whose every measurement is exact are uncompromised; the
        // rest must be exactly round(0.2 * 25) = 5 nodes.
        let mut touched = vec![false; positions.len()];
        for (a, b, d) in set.iter() {
            let true_d = positions[a.index()].distance(positions[b.index()]);
            if d.to_bits() != true_d.to_bits() {
                touched[a.index()] = true;
                touched[b.index()] = true;
            }
        }
        // Every corrupted pair touches a compromised node, so compromised
        // nodes form a vertex cover of the perturbed pairs; with 5
        // compromised nodes out of 25, at most 10 distinct nodes appear
        // perturbed only via a compromised partner. Check the exact-pair
        // property instead: a pair of two clean nodes is always exact.
        let clean: Vec<usize> = (0..positions.len()).filter(|&i| !touched[i]).collect();
        assert!(!clean.is_empty(), "some nodes stay clean at 20%");
        for &a in &clean {
            for &b in &clean {
                if a < b {
                    if let Some(d) = set.get(NodeId(a), NodeId(b)) {
                        let true_d = positions[a].distance(positions[b]);
                        assert_eq!(d.to_bits(), true_d.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn outputs_are_always_finite_and_non_negative() {
        let positions = grid(4, 4, 9.0);
        let channel = RangingChannel::ideal(22.0)
            .with_stage(ChannelStage::GaussianNoise { sigma_m: 10.0 })
            .with_stage(ChannelStage::Adversarial {
                node_fraction: 1.0,
                corruption_m: 100.0,
            });
        let mut rng = rl_math::rng::seeded(5);
        let set = channel.measure_all(&positions, &mut rng);
        for (_, _, d) in set.iter() {
            assert!(d.is_finite() && d >= 0.0, "bad measurement {d}");
        }
    }

    #[test]
    fn paper_noise_has_the_recipes_mean_and_spread() {
        // Two nodes 10 m apart: every draw is one sample of the noise.
        let positions = [Point2::new(0.0, 0.0), Point2::new(10.0, 0.0)];
        let channel = RangingChannel::paper();
        let mut rng = rl_math::rng::seeded(2);
        let errors: Vec<f64> = (0..20_000)
            .map(|_| {
                let set = channel.measure_all(&positions, &mut rng);
                set.get(NodeId(0), NodeId(1)).unwrap() - 10.0
            })
            .collect();
        let mean = rl_math::stats::mean(&errors).unwrap();
        let sd = rl_math::stats::std_dev(&errors).unwrap();
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((sd - 0.33).abs() < 0.01, "sd {sd}");
    }

    #[test]
    fn augment_fills_only_missing_in_range_pairs() {
        // A square of side 10: four 10 m sides in range, the ~14.1 m
        // diagonals beyond the 12 m cutoff.
        let positions = grid(2, 2, 10.0);
        let channel =
            RangingChannel::ideal(12.0).with_stage(ChannelStage::GaussianNoise { sigma_m: 0.1 });
        let mut set = MeasurementSet::new(4);
        set.insert(NodeId(0), NodeId(1), 77.0); // deliberately wrong
        let mut rng = rl_math::rng::seeded(4);
        let added = channel.augment(&mut set, &positions, &mut rng);
        assert_eq!(added, 3);
        assert_eq!(set.get(NodeId(0), NodeId(1)), Some(77.0), "kept as-is");
        assert_eq!(set.len(), 4);
        assert!(!set.contains(NodeId(0), NodeId(3)) && !set.contains(NodeId(1), NodeId(2)));
    }

    #[test]
    #[should_panic(expected = "node count")]
    fn augment_checks_node_count() {
        let mut set = MeasurementSet::new(2);
        let mut rng = rl_math::rng::seeded(6);
        let _ = RangingChannel::paper().augment(&mut set, &grid(2, 2, 10.0), &mut rng);
    }

    #[test]
    fn serde_roundtrip() {
        let channel = RangingChannel::paper().with_stage(ChannelStage::Multipath {
            delay_spread_m: 2.0,
        });
        let json = serde_json::to_string(&channel).unwrap();
        assert_eq!(
            serde_json::from_str::<RangingChannel>(&json).unwrap(),
            channel
        );
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn invalid_fraction_panics() {
        let _ = RangingChannel::ideal(22.0).with_stage(ChannelStage::Adversarial {
            node_fraction: 1.5,
            corruption_m: 10.0,
        });
    }

    /// Golden pins against the vendored xoshiro256++ stream: the exact
    /// bit patterns the full stack produces for a fixed seed. Any change
    /// to the stream derivation, the canonical stage order, or a stage's
    /// floating-point expression trips these. Not portable to upstream
    /// `rand`.
    #[test]
    fn golden_values_pin_the_vendored_rng_stream() {
        let positions = [
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(0.0, 12.0),
        ];
        let stacked = RangingChannel::ideal(22.0)
            .with_stage(ChannelStage::NlosBias {
                mean_m: 1.5,
                std_m: 0.5,
            })
            .with_stage(ChannelStage::Multipath {
                delay_spread_m: 2.0,
            })
            .with_stage(ChannelStage::GaussianNoise { sigma_m: 0.33 })
            .with_stage(ChannelStage::ClockDrift { std_ppm: 5_000.0 });
        let mut rng = rl_math::rng::seeded(42);
        let set = stacked.measure_all(&positions, &mut rng);
        let bits = |a: usize, b: usize| set.get(NodeId(a), NodeId(b)).unwrap().to_bits();
        assert_eq!(bits(0, 1), GOLDEN_STACKED_01);
        assert_eq!(bits(0, 2), GOLDEN_STACKED_02);
        assert_eq!(bits(1, 2), GOLDEN_STACKED_12);

        let mut rng = rl_math::rng::seeded(42);
        let noise_only = RangingChannel::ideal(22.0)
            .with_stage(ChannelStage::GaussianNoise { sigma_m: 0.33 })
            .measure_all(&positions, &mut rng);
        assert_eq!(
            noise_only.get(NodeId(0), NodeId(1)).unwrap().to_bits(),
            GOLDEN_NOISE_01
        );
    }

    const GOLDEN_STACKED_01: u64 = 0x402b_f6df_054a_e002;
    const GOLDEN_STACKED_02: u64 = 0x402a_f169_0f52_2e64;
    const GOLDEN_STACKED_12: u64 = 0x4030_a798_6863_b777;
    const GOLDEN_NOISE_01: u64 = 0x4023_380a_ccf3_b2e0;

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// All five stage kinds with the given parameters, in canonical
        /// order.
        fn five_stages(p: &StageParams) -> Vec<ChannelStage> {
            vec![
                ChannelStage::NlosBias {
                    mean_m: p.nlos_mean,
                    std_m: p.nlos_std,
                },
                ChannelStage::Multipath {
                    delay_spread_m: p.spread,
                },
                ChannelStage::GaussianNoise { sigma_m: p.sigma },
                ChannelStage::ClockDrift { std_ppm: p.ppm },
                ChannelStage::Adversarial {
                    node_fraction: p.fraction,
                    corruption_m: p.corruption,
                },
            ]
        }

        struct StageParams {
            nlos_mean: f64,
            nlos_std: f64,
            spread: f64,
            sigma: f64,
            ppm: f64,
            fraction: f64,
            corruption: f64,
        }

        fn build(stages: &[ChannelStage]) -> RangingChannel {
            stages
                .iter()
                .fold(RangingChannel::ideal(22.0), |c, &s| c.with_stage(s))
        }

        /// Sample variance of the measurement error (measured − true)
        /// across every in-range pair.
        fn error_variance(channel: &RangingChannel, positions: &[Point2], seed: u64) -> f64 {
            let mut rng = rl_math::rng::seeded(seed);
            let set = channel.measure_all(positions, &mut rng);
            let errors: Vec<f64> = set
                .iter()
                .map(|(a, b, d)| d - positions[a.index()].distance(positions[b.index()]))
                .collect();
            let mean = errors.iter().sum::<f64>() / errors.len() as f64;
            errors.iter().map(|e| (e - mean) * (e - mean)).sum::<f64>() / errors.len() as f64
        }

        proptest! {
            /// The prefilter is exact: on random layouts, `measure_all` and
            /// `augment` (over a random set of given pairs) match the
            /// exhaustive `hypot` walk bit for bit.
            #[test]
            fn prop_pair_walk_matches_the_exhaustive_oracle(
                coords in proptest::collection::vec((0.0f64..80.0, 0.0f64..80.0), 2..40),
                given in proptest::collection::vec((0usize..40, 0usize..40), 0..20),
                max_range_m in 5.0f64..40.0,
                seed in 0u64..1_000,
            ) {
                let positions: Vec<Point2> =
                    coords.iter().map(|&(x, y)| Point2::new(x, y)).collect();
                let n = positions.len();
                let given: Vec<(usize, usize)> =
                    given.iter().map(|&(a, b)| (a % n, b % n)).collect();
                assert_matches_oracle(&five_kind_stack(max_range_m), &positions, &given, seed);
            }

            /// `measure_subnetwork` on random layouts, random strictly
            /// ascending ids and random cutoffs matches the compact set
            /// rebuilt in universe ids, bit for bit.
            #[test]
            fn prop_subnetwork_matches_the_compact_then_remap_oracle(
                coords in proptest::collection::vec((0.0f64..80.0, 0.0f64..80.0), 0..40),
                gaps in proptest::collection::vec(0usize..4, 40),
                spare in 0usize..5,
                max_range_m in 5.0f64..40.0,
                seed in 0u64..1_000,
            ) {
                let positions: Vec<Point2> =
                    coords.iter().map(|&(x, y)| Point2::new(x, y)).collect();
                let mut next = 0;
                let ids: Vec<NodeId> = gaps[..positions.len()]
                    .iter()
                    .map(|&gap| {
                        next += gap;
                        next += 1;
                        NodeId(next - 1)
                    })
                    .collect();
                let universe = next + spare;
                assert_subnetwork_matches_oracle(
                    &five_kind_stack(max_range_m), &positions, &ids, universe, seed,
                );
            }

            /// Commutation: for stacks of the five distinct kinds, any
            /// construction order produces bit-identical measurements
            /// for the same seed — stages are canonicalized and each
            /// kind owns its own sub-stream.
            #[test]
            fn prop_distinct_kind_stacks_commute(
                (nlos_mean, nlos_std, spread, sigma) in (0.1f64..3.0, 0.1f64..1.5, 0.1f64..3.0, 0.05f64..2.0),
                (ppm, fraction, corruption) in (1_000.0f64..20_000.0, 0.0f64..0.5, 10.0f64..80.0),
                seed in 0u64..1_000,
                shuffle in proptest::collection::vec(0usize..5, 4),
            ) {
                let params = StageParams {
                    nlos_mean, nlos_std, spread, sigma, ppm, fraction, corruption,
                };
                let canonical = five_stages(&params);
                // Fisher–Yates driven by the sampled indices: an
                // arbitrary permutation of the five stages.
                let mut permuted = canonical.clone();
                for (k, &r) in shuffle.iter().enumerate() {
                    let pick = k + r % (permuted.len() - k);
                    permuted.swap(k, pick);
                }
                let positions = grid(5, 5, 9.0);
                let mut ra = rl_math::rng::seeded(seed);
                let mut rb = rl_math::rng::seeded(seed);
                let a = build(&canonical).measure_all(&positions, &mut ra);
                let b = build(&permuted).measure_all(&positions, &mut rb);
                prop_assert_eq!(a, b);
            }

            /// Monotonicity: growing the stack one stage at a time never
            /// reduces the error variance across pairs (up to a small
            /// sampling tolerance — per-kind streams make the shared
            /// stages' draws identical between the two stacks, so the
            /// added stage contributes an independent term).
            #[test]
            fn prop_adding_a_stage_never_reduces_error_variance(
                (nlos_mean, nlos_std, spread, sigma) in (0.3f64..3.0, 0.3f64..1.5, 0.3f64..3.0, 0.3f64..2.0),
                (ppm, fraction, corruption) in (3_000.0f64..20_000.0, 0.1f64..0.5, 20.0f64..80.0),
                seed in 0u64..1_000,
            ) {
                let params = StageParams {
                    nlos_mean, nlos_std, spread, sigma, ppm, fraction, corruption,
                };
                let stages = five_stages(&params);
                let positions = grid(5, 5, 9.0);
                let mut prev = 0.0; // the ideal channel's error variance
                for k in 1..=stages.len() {
                    let var = error_variance(&build(&stages[..k]), &positions, seed);
                    prop_assert!(
                        var >= prev * 0.95 - 1e-12,
                        "stage {} reduced error variance: {} -> {}",
                        k, prev, var
                    );
                    prev = var;
                }
            }

            /// Clamping holds for arbitrary stacks: every measurement is
            /// finite and non-negative even under extreme parameters.
            #[test]
            fn prop_measurements_stay_finite_and_non_negative(
                sigma in 0.0f64..50.0,
                fraction in 0.0f64..1.0,
                seed in 0u64..1_000,
            ) {
                let channel = RangingChannel::ideal(22.0)
                    .with_stage(ChannelStage::GaussianNoise { sigma_m: sigma })
                    .with_stage(ChannelStage::Adversarial {
                        node_fraction: fraction,
                        corruption_m: 100.0,
                    });
                let positions = grid(4, 4, 9.0);
                let mut rng = rl_math::rng::seeded(seed);
                for (_, _, d) in channel.measure_all(&positions, &mut rng).iter() {
                    prop_assert!(d.is_finite() && d >= 0.0);
                }
            }
        }
    }
}
