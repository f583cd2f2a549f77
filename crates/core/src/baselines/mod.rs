//! Baseline localization schemes from the paper's Related Work (§2).
//!
//! The paper positions its LSS scheme against the anchor-based families of
//! the early-2000s literature. Two representatives are implemented here so
//! the benchmark harness can compare against them directly:
//!
//! * [`dv_hop`] — APS DV-hop (Niculescu & Nath): anchors flood hop counts;
//!   each anchor converts its known distances to other anchors into an
//!   average distance-per-hop; nodes multilaterate using
//!   `hops × meters_per_hop` as range estimates. Works "well only for
//!   isotropic networks with uniform node density".
//! * [`centroid_localization`] — GPS-less centroid localization (Bulusu, Heidemann &
//!   Estrin): each node localizes to the centroid of the anchors it can
//!   hear. Coarse but nearly free.

use rl_geom::Point2;
use rl_net::{NodeId, RadioModel, Topology};

use crate::multilateration::{MultilaterationConfig, MultilaterationSolver};
use crate::types::{Anchor, PositionMap};
use crate::{LocalizationError, Result};

/// Outcome of a DV-hop run.
#[derive(Debug, Clone)]
pub struct DvHopOutcome {
    /// Estimated positions (anchors at their known positions).
    pub positions: PositionMap,
    /// The network-wide average meters-per-hop each anchor computed,
    /// indexed like `anchors`.
    pub meters_per_hop: Vec<f64>,
}

/// Runs DV-hop over the connectivity graph induced by `radio` on the true
/// positions (connectivity is physical; the algorithm itself only ever
/// sees hop counts and anchor coordinates).
///
/// The hop counts are those the anchors' floods record on a lossless,
/// jitter-free radio: breadth-first distances in the radio graph. Nothing
/// here is random, so `rng` draws nothing; the parameter keeps the
/// signature existing callers use.
///
/// # Errors
///
/// * [`LocalizationError::TooFewAnchors`] with fewer than 3 anchors,
/// * [`LocalizationError::InvalidConfig`] for out-of-range anchor ids, an
///   invalid radio model, or a lossy or jittered one (whose floods need
///   not record shortest-path hop counts),
/// * [`LocalizationError::InsufficientMeasurements`] if no anchor pair is
///   mutually reachable (no meters-per-hop estimate possible).
pub fn dv_hop<R: rand::Rng + ?Sized>(
    truth_positions: &[Point2],
    anchors: &[Anchor],
    radio: &RadioModel,
    _rng: &mut R,
) -> Result<DvHopOutcome> {
    let n = truth_positions.len();
    if anchors.len() < 3 {
        return Err(LocalizationError::TooFewAnchors {
            needed: 3,
            got: anchors.len(),
        });
    }
    for a in anchors {
        if a.id.index() >= n {
            return Err(LocalizationError::InvalidConfig("anchor id out of range"));
        }
    }
    radio
        .validate()
        .map_err(|_| LocalizationError::InvalidConfig("invalid radio model"))?;
    if radio.loss_probability > 0.0 || radio.mac_jitter_s > 0.0 {
        return Err(LocalizationError::InvalidConfig(
            "DV-hop needs a lossless, jitter-free radio",
        ));
    }

    // Phase 1: every node's hop count to every anchor. On a lossless,
    // jitter-free radio every hop costs the same MAC delay, so the first
    // copy of an anchor's flood reaches each node along a shortest path:
    // the flood would record exactly the breadth-first distance in the
    // radio graph. hops[k][i]: hop count from anchor k to node i.
    let topology = Topology::from_positions(truth_positions, radio.range_m);
    let hops: Vec<Vec<Option<usize>>> = anchors.iter().map(|a| topology.hop_counts(a.id)).collect();

    // Phase 2: each anchor computes average meters-per-hop from its known
    // straight-line distances to the other anchors.
    let mut meters_per_hop = Vec::with_capacity(anchors.len());
    for (k, a) in anchors.iter().enumerate() {
        let mut total_m = 0.0;
        let mut total_hops = 0usize;
        for (j, b) in anchors.iter().enumerate() {
            if j == k {
                continue;
            }
            if let Some(h) = hops[j][a.id.index()] {
                total_m += a.position.distance(b.position);
                total_hops += h;
            }
        }
        meters_per_hop.push(if total_hops > 0 {
            total_m / total_hops as f64
        } else {
            f64::NAN
        });
    }
    if meters_per_hop.iter().all(|m| !m.is_finite()) {
        return Err(LocalizationError::InsufficientMeasurements(
            "no anchor pair is mutually reachable",
        ));
    }

    // Phase 3: each node converts hop counts into distance estimates using
    // the meters-per-hop of its *closest* anchor (the value it would have
    // received first), then multilaterates.
    let mut ranges = Vec::new();
    for i in 0..n {
        if anchors.iter().any(|a| a.id == NodeId(i)) {
            continue;
        }
        // Closest anchor by hops with a finite calibration value.
        let mph = hops
            .iter()
            .zip(&meters_per_hop)
            .filter_map(|(from_anchor, &m)| from_anchor[i].map(|h| (h, m)))
            .filter(|(_, m)| m.is_finite())
            .min_by_key(|&(h, _)| h)
            .map(|(_, m)| m);
        let Some(mph) = mph else { continue };
        for (a, from_anchor) in anchors.iter().zip(&hops) {
            if let Some(h) = from_anchor[i] {
                if h > 0 {
                    ranges.push((NodeId(i), a.id, mph * h as f64, 1.0));
                }
            }
        }
    }
    let set = rl_ranging::measurement::MeasurementSet::try_from_weighted_edges(n, ranges)
        .map_err(|_| LocalizationError::InvalidConfig("hop distance estimate is not finite"))?;
    let solver = MultilaterationSolver::new(MultilaterationConfig {
        // Hop-distance estimates are coarse; the intersection check would
        // reject nearly everything, so DV-hop runs without it.
        consistency: None,
        reject_ambiguous: false,
        ..MultilaterationConfig::default()
    });
    let outcome = solver.solve(&set, anchors)?;
    Ok(DvHopOutcome {
        positions: outcome.positions,
        meters_per_hop,
    })
}

/// Centroid localization: each non-anchor localizes to the centroid of
/// the anchors within radio range; nodes hearing no anchor stay
/// unlocalized.
///
/// # Errors
///
/// * [`LocalizationError::TooFewAnchors`] with no anchors at all,
/// * [`LocalizationError::InvalidConfig`] for out-of-range anchor ids.
pub fn centroid_localization(
    truth_positions: &[Point2],
    anchors: &[Anchor],
    radio_range_m: f64,
) -> Result<PositionMap> {
    let n = truth_positions.len();
    if anchors.is_empty() {
        return Err(LocalizationError::TooFewAnchors { needed: 1, got: 0 });
    }
    for a in anchors {
        if a.id.index() >= n {
            return Err(LocalizationError::InvalidConfig("anchor id out of range"));
        }
    }
    let topology = Topology::from_positions(truth_positions, radio_range_m);
    let mut positions = PositionMap::unlocalized(n);
    for a in anchors {
        positions.set(a.id, a.position);
    }
    for i in 0..n {
        if positions.is_localized(NodeId(i)) {
            continue;
        }
        let heard: Vec<Point2> = anchors
            .iter()
            .filter(|a| topology.are_neighbors(NodeId(i), a.id))
            .map(|a| a.position)
            .collect();
        if let Some(c) = rl_geom::centroid(&heard) {
            positions.set(NodeId(i), c);
        }
    }
    Ok(positions)
}

/// DV-hop as a [`Localizer`](crate::problem::Localizer). Requires the
/// problem to carry ground truth (radio connectivity) and at least three
/// anchors; the solution is absolute.
#[derive(Debug, Clone)]
pub struct DvHopLocalizer {
    radio: RadioModel,
}

impl DvHopLocalizer {
    /// Creates the localizer over the connectivity graph of `radio`, which
    /// must be lossless and jitter-free (see [`dv_hop`]).
    pub fn new(radio: RadioModel) -> Self {
        DvHopLocalizer { radio }
    }
}

impl crate::problem::Localizer for DvHopLocalizer {
    fn name(&self) -> &str {
        "dv-hop"
    }

    fn localize(
        &self,
        problem: &crate::problem::Problem,
        rng: &mut dyn rand::RngCore,
    ) -> Result<crate::problem::Solution> {
        use crate::problem::{Frame, Solution, SolveStats};
        let start = std::time::Instant::now();
        let truth = problem.truth_required()?;
        let out = dv_hop(truth, problem.anchors(), &self.radio, rng)?;
        Ok(Solution::new(
            out.positions,
            Frame::Absolute,
            SolveStats {
                iterations: 0,
                residual: None,
                converged: None,
                cg_iterations: None,
                wall_time: start.elapsed(),
            },
        ))
    }
}

/// Centroid localization as a [`Localizer`](crate::problem::Localizer).
/// Requires ground truth (radio connectivity) and at least one anchor; the
/// solution is absolute.
#[derive(Debug, Clone, Copy)]
pub struct CentroidLocalizer {
    radio_range_m: f64,
}

impl CentroidLocalizer {
    /// Creates the localizer with the radio range anchors are heard
    /// within.
    pub fn new(radio_range_m: f64) -> Self {
        CentroidLocalizer { radio_range_m }
    }
}

impl crate::problem::Localizer for CentroidLocalizer {
    fn name(&self) -> &str {
        "centroid"
    }

    fn localize(
        &self,
        problem: &crate::problem::Problem,
        _rng: &mut dyn rand::RngCore,
    ) -> Result<crate::problem::Solution> {
        use crate::problem::{Frame, Solution, SolveStats};
        let start = std::time::Instant::now();
        let truth = problem.truth_required()?;
        let positions = centroid_localization(truth, problem.anchors(), self.radio_range_m)?;
        Ok(Solution::new(
            positions,
            Frame::Absolute,
            SolveStats {
                iterations: 0,
                residual: None,
                converged: None,
                cg_iterations: None,
                wall_time: start.elapsed(),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate_absolute;
    use rl_math::rng::seeded;

    fn grid(nx: usize, ny: usize, spacing: f64) -> Vec<Point2> {
        (0..nx * ny)
            .map(|i| Point2::new((i % nx) as f64 * spacing, (i / nx) as f64 * spacing))
            .collect()
    }

    fn corner_anchors(truth: &[Point2], nx: usize, ny: usize) -> Vec<Anchor> {
        [0, nx - 1, nx * (ny - 1), nx * ny - 1]
            .iter()
            .map(|&i| Anchor::new(NodeId(i), truth[i]))
            .collect()
    }

    #[test]
    fn dv_hop_on_isotropic_grid() {
        // The favorable case the APS paper assumes: uniform density,
        // isotropic. Radio range slightly over one grid step.
        let truth = grid(5, 5, 10.0);
        let anchors = corner_anchors(&truth, 5, 5);
        let mut rng = seeded(1);
        let out = dv_hop(&truth, &anchors, &RadioModel::ideal(15.0), &mut rng).unwrap();
        let eval = evaluate_absolute(&out.positions, &truth).unwrap();
        assert!(
            eval.localized >= 20,
            "dv-hop should localize most nodes, got {}",
            eval.localized
        );
        assert!(
            eval.mean_error < 6.0,
            "isotropic grid error {} m",
            eval.mean_error
        );
        // Meters-per-hop should be near the diagonal-ish step length.
        for mph in &out.meters_per_hop {
            assert!((8.0..20.0).contains(mph), "meters/hop {mph}");
        }
    }

    #[test]
    fn dv_hop_degrades_on_anisotropic_layout() {
        // A bent corridor: hop counts no longer track Euclidean distance.
        let mut truth: Vec<Point2> = (0..8).map(|i| Point2::new(i as f64 * 10.0, 0.0)).collect();
        truth.extend((1..8).map(|i| Point2::new(70.0, i as f64 * 10.0)));
        let anchors = vec![
            Anchor::new(NodeId(0), truth[0]),
            Anchor::new(NodeId(7), truth[7]),
            Anchor::new(NodeId(14), truth[14]),
        ];
        let mut rng = seeded(2);
        let out = dv_hop(&truth, &anchors, &RadioModel::ideal(15.0), &mut rng).unwrap();
        let eval = evaluate_absolute(&out.positions, &truth).unwrap();
        let isotropic_truth = grid(5, 3, 10.0);
        let isotropic_anchors = corner_anchors(&isotropic_truth, 5, 3);
        let iso = dv_hop(
            &isotropic_truth,
            &isotropic_anchors,
            &RadioModel::ideal(15.0),
            &mut rng,
        )
        .unwrap();
        let iso_eval = evaluate_absolute(&iso.positions, &isotropic_truth).unwrap();
        assert!(
            eval.mean_error > iso_eval.mean_error,
            "anisotropy should hurt dv-hop: corridor {} vs grid {}",
            eval.mean_error,
            iso_eval.mean_error
        );
    }

    #[test]
    fn dv_hop_error_cases() {
        let truth = grid(3, 3, 10.0);
        let mut rng = seeded(3);
        let too_few = vec![Anchor::new(NodeId(0), truth[0])];
        assert!(matches!(
            dv_hop(&truth, &too_few, &RadioModel::ideal(15.0), &mut rng),
            Err(LocalizationError::TooFewAnchors { .. })
        ));
        let bad = vec![Anchor::new(NodeId(99), Point2::ORIGIN); 3];
        assert!(matches!(
            dv_hop(&truth, &bad, &RadioModel::ideal(15.0), &mut rng),
            Err(LocalizationError::InvalidConfig(_))
        ));
    }

    #[test]
    fn dv_hop_rejects_radios_without_shortest_path_floods() {
        let truth = grid(3, 3, 10.0);
        let anchors = corner_anchors(&truth, 3, 3);
        let mut rng = seeded(4);
        let invalid = [0.0, -1.0, f64::NAN].map(RadioModel::ideal);
        let lossy = RadioModel {
            loss_probability: 0.1,
            ..RadioModel::ideal(15.0)
        };
        let jittered = RadioModel {
            mac_jitter_s: 1.0e-3,
            ..RadioModel::ideal(15.0)
        };
        for radio in invalid.iter().chain([&lossy, &jittered]) {
            assert!(
                matches!(
                    dv_hop(&truth, &anchors, radio, &mut rng),
                    Err(LocalizationError::InvalidConfig(_))
                ),
                "{radio:?} must be rejected"
            );
        }
    }

    #[test]
    fn centroid_is_coarse_but_total() {
        let truth = grid(4, 4, 10.0);
        let anchors = corner_anchors(&truth, 4, 4);
        // Range long enough that everyone hears all four corners.
        let positions = centroid_localization(&truth, &anchors, 100.0).unwrap();
        let eval = evaluate_absolute(&positions, &truth).unwrap();
        assert_eq!(eval.localized, 16);
        // Everyone lands on the global centroid: coarse by design.
        assert!(eval.mean_error > 5.0);
        assert!(eval.mean_error < 25.0);
    }

    #[test]
    fn centroid_with_short_range_leaves_gaps() {
        let truth = grid(4, 4, 10.0);
        let anchors = corner_anchors(&truth, 4, 4);
        let positions = centroid_localization(&truth, &anchors, 11.0).unwrap();
        // Center nodes hear no anchor.
        assert!(positions.localized_count() < 16);
        assert!(positions.localized_count() >= 4);
    }

    #[test]
    fn centroid_error_cases() {
        let truth = grid(2, 2, 10.0);
        assert!(matches!(
            centroid_localization(&truth, &[], 10.0),
            Err(LocalizationError::TooFewAnchors { .. })
        ));
        let bad = vec![Anchor::new(NodeId(9), Point2::ORIGIN)];
        assert!(centroid_localization(&truth, &bad, 10.0).is_err());
    }
}
