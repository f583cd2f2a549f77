//! Multilateration experiments: Figures 11, 12, 13/14, 15/16 and 20.
//!
//! The solver figures (12, 14, 16, 20) run through the [`Campaign`] grid
//! and the unified [`Localizer`](rl_core::problem::Localizer) trait —
//! non-anchor error accounting comes from
//! [`Problem::evaluate`](rl_core::problem::Problem::evaluate), which
//! excludes anchors from the metric exactly as the paper reports it. The
//! intersection-consistency illustration (Figure 11) exercises the check
//! directly.

use rl_core::multilateration::{
    mean_anchors_available, IntersectionConsistency, MultilaterationConfig, MultilaterationSolver,
    RangeToAnchor,
};
use rl_core::problem::Problem;
use rl_core::types::{Anchor, PositionMap};
use rl_deploy::Scenario;
use rl_geom::Point2;
use rl_net::NodeId;
use rl_ranging::channel::RangingChannel;
use rl_ranging::consistency::{merge_bidirectional, ConsistencyConfig};
use rl_ranging::filter::StatFilter;
use rl_ranging::measurement::MeasurementSet;
use rl_ranging::service::{NodeHardware, RangingService, ServiceConfig};
use rl_signal::env::Environment;

use super::ExperimentResult;
use crate::gate::Gate;
use crate::report::{m, pct};
use crate::{Campaign, Table};

/// Runs one multilateration configuration on a fixed problem through the
/// campaign grid, returning `(solution positions, localized non-anchors,
/// mean non-anchor error, sorted non-anchor errors)`.
fn solve_via_campaign(
    problem: Problem,
    config: MultilaterationConfig,
    seed: u64,
) -> (PositionMap, usize, f64, Vec<f64>) {
    let report = Campaign::new()
        .problem(problem)
        .localizer(Box::new(MultilaterationSolver::new(config)))
        .seeds(&[seed])
        .run();
    let record = &report.runs[0];
    let outcome = record.outcome.as_ref().expect("anchors supplied");
    let positions = outcome.solution.positions().clone();
    match &outcome.evaluation {
        Some(eval) => {
            let mut errors: Vec<f64> = eval.per_node.iter().map(|&(_, e)| e).collect();
            errors.sort_by(|a, b| a.partial_cmp(b).expect("finite errors"));
            (positions, eval.localized, eval.mean_error, errors)
        }
        None => (positions, 0, 0.0, Vec::new()),
    }
}

fn positions_table(positions: &PositionMap, truth: &[Point2]) -> Table {
    let mut t = Table::new(
        "positions",
        &["node", "true_x", "true_y", "est_x", "est_y", "error_m"],
    );
    for (id, pos) in positions.iter() {
        let truth_p = truth[id.index()];
        match pos {
            Some(p) => t.push(&[
                id.to_string(),
                m(truth_p.x),
                m(truth_p.y),
                m(p.x),
                m(p.y),
                m(p.distance(truth_p)),
            ]),
            None => t.push(&[
                id.to_string(),
                m(truth_p.x),
                m(truth_p.y),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    t
}

/// **F11** — the intersection-consistency illustration: near-collinear
/// anchors with a small range error produce displaced intersection points
/// and are filtered out.
pub fn figure11_intersection_consistency(_seed: u64) -> ExperimentResult {
    // A node at the origin; three well-placed anchors; one distant anchor
    // nearly collinear with the node whose range carries a +2.5 m error.
    let node = Point2::new(0.0, 0.0);
    let mk = |x: f64, y: f64, err: f64| RangeToAnchor {
        anchor: Point2::new(x, y),
        distance: Point2::new(x, y).distance(node) + err,
        weight: 1.0,
    };
    let observations = vec![
        mk(-10.0, 8.0, 0.0),
        mk(10.0, 8.0, 0.0),
        mk(0.0, -12.0, 0.0),
        mk(-30.0, 0.1, 2.5), // near-collinear with the node, erroneous
    ];
    let check = IntersectionConsistency::default();
    let kept = check.filter(&observations);

    let mut t = Table::new(
        "anchors",
        &["anchor", "distance_m", "range_error_m", "kept"],
    );
    for (i, o) in observations.iter().enumerate() {
        let err = o.distance - o.anchor.distance(node);
        t.push(&[
            format!("({:.0}, {:.1})", o.anchor.x, o.anchor.y),
            m(o.distance),
            m(err),
            if kept.contains(&i) { "yes" } else { "DROPPED" }.into(),
        ]);
    }

    // Least-squares position estimates with and without the filter (the
    // paper's estimator; the erroneous collinear anchor displaces it).
    let solve = |obs: &[RangeToAnchor]| -> Point2 {
        let mut set = MeasurementSet::new(obs.len() + 1);
        let target = NodeId(obs.len());
        let anchors: Vec<Anchor> = obs
            .iter()
            .enumerate()
            .map(|(i, o)| {
                set.insert(NodeId(i), target, o.distance);
                Anchor::new(NodeId(i), o.anchor)
            })
            .collect();
        let out =
            MultilaterationSolver::new(MultilaterationConfig::paper().with_consistency(false))
                .solve(&set, &anchors)
                .expect("enough anchors");
        out.positions.get(target).expect("target localized")
    };
    let with_filter: Vec<RangeToAnchor> = kept.iter().map(|&k| observations[k]).collect();
    let est_filtered = solve(&with_filter);
    let est_all = solve(&observations);

    ExperimentResult::new("F11", "intersection consistency with collinear anchors")
        .with_table(t)
        .with_note(format!(
            "least-squares position error: all anchors {} m, after filtering {} m (paper: the \
             collinear anchor with no nearby intersections is discarded)",
            m(est_all.distance(node)),
            m(est_filtered.distance(node))
        ))
}

/// **F12** — the 15-node parking-lot experiment: 5 loudspeaker-equipped
/// anchors produce one-way measurements; median filtering; average error
/// about 0.87 m in the paper.
pub fn figure12_parking_lot(seed: u64) -> ExperimentResult {
    let scenario = Scenario::parking_lot(seed);
    let truth = &scenario.deployment.positions;
    let mut rng = rl_math::rng::seeded(seed ^ 0x12);

    // The experiment predates the chirp pattern: baseline service on
    // pavement, median of five rounds, anchors chirp / everyone listens.
    let service = RangingService::new(
        Environment::Pavement,
        ServiceConfig {
            rounds: 5,
            ..ServiceConfig::baseline()
        },
        &mut rng,
    )
    .expect("pavement calibrates");
    let hardware: Vec<NodeHardware> = (0..truth.len())
        .map(|_| NodeHardware::sample(&mut rng, &service.config().hardware))
        .collect();

    let mut set = MeasurementSet::new(truth.len());
    for &a in &scenario.anchors {
        for j in 0..truth.len() {
            if NodeId(j) == a {
                continue;
            }
            let d = truth[a.index()].distance(truth[j]);
            let mut samples = Vec::new();
            for _ in 0..service.config().rounds {
                let pair = NodeHardware::pair(&hardware[a.index()], &hardware[j]);
                if let Some(est) = service.measure_pair(d, &pair, &mut rng) {
                    samples.push(est);
                }
            }
            if let Some(est) = StatFilter::Median.reduce(&samples) {
                set.insert(a, NodeId(j), est);
            }
        }
    }

    let anchors = Anchor::from_truth(&scenario.anchors, truth);
    let problem = Problem::builder(set)
        .name("parking-lot-field")
        .anchors(anchors)
        .truth(truth.clone())
        .build()
        .expect("scenario data is consistent");
    let (positions, localized, mean_err, _) =
        solve_via_campaign(problem, MultilaterationConfig::paper(), seed ^ 0x12);

    let mut summary = Table::new("summary", &["metric", "value"]);
    summary.push(&["nodes".into(), truth.len().to_string()]);
    summary.push(&["anchors".into(), scenario.anchors.len().to_string()]);
    summary.push(&["localized non-anchors".into(), localized.to_string()]);
    summary.push(&["average error (m)".into(), m(mean_err)]);

    ExperimentResult::new(
        "F12",
        "15-node parking lot, 5 anchors, one-way baseline ranging",
    )
    .with_table(summary)
    .with_table(positions_table(&positions, truth))
    .with_note(format!(
        "paper: average error 0.868 m over 10 non-anchors; measured: {} m over {localized}",
        m(mean_err)
    ))
    .with_gate(Gate::at_most("mean-error-m", mean_err, 0.868))
}

/// The sparse grass-grid measurement set used by Figures 13/14 and the LSS
/// experiments: refined service, median filter, one-way pairs accepted.
pub fn grass_grid_measurements(seed: u64) -> (Scenario, MeasurementSet) {
    let scenario = Scenario::grass_grid_multilateration(seed);
    let mut rng = rl_math::rng::seeded(seed ^ 0x14);
    let service = RangingService::new(Environment::Grass, ServiceConfig::refined(), &mut rng)
        .expect("grass calibrates");
    let campaign = service.run_campaign(&scenario.deployment.positions, &mut rng);
    let estimates = StatFilter::Median.apply(&campaign);
    let set = merge_bidirectional(&estimates, campaign.n, &ConsistencyConfig::default());
    (scenario, set)
}

/// Figure 14's solve: the paper's multilateration on the sparse grid's
/// measurements.
fn solve_sparse_grid(
    scenario: &Scenario,
    set: MeasurementSet,
    seed: u64,
) -> (PositionMap, usize, f64, Vec<f64>) {
    let truth = &scenario.deployment.positions;
    let problem = Problem::builder(set)
        .name("grass-grid-field")
        .anchors(Anchor::from_truth(&scenario.anchors, truth))
        .truth(truth.clone())
        .build()
        .expect("scenario data is consistent");
    solve_via_campaign(problem, MultilaterationConfig::paper(), seed ^ 0x15)
}

/// **F13/F14** — multilateration on the sparse 46-node grid with 13 random
/// anchors: the paper localized only 7 of 33 non-anchors (1.47 anchors per
/// node on average).
pub fn figure14_sparse_grid(seed: u64) -> ExperimentResult {
    let (scenario, set) = grass_grid_measurements(seed);
    let truth = &scenario.deployment.positions;
    let available = mean_anchors_available(&set, &Anchor::from_truth(&scenario.anchors, truth));
    let pairs = set.len();
    let (positions, localized, mean_err, _) = solve_sparse_grid(&scenario, set, seed);
    let non_anchors = truth.len() - scenario.anchors.len();

    let mut summary = Table::new("summary", &["metric", "value"]);
    summary.push(&["measured pairs".into(), pairs.to_string()]);
    summary.push(&["non-anchor nodes".into(), non_anchors.to_string()]);
    summary.push(&[
        "localized".into(),
        format!(
            "{localized} ({})",
            pct(localized as f64 / non_anchors as f64)
        ),
    ]);
    summary.push(&["mean anchors available per node".into(), m(available)]);
    summary.push(&["average error (m)".into(), m(mean_err)]);

    ExperimentResult::new(
        "F14",
        "multilateration, sparse grass grid, 13 of 46 anchors",
    )
    .with_table(summary)
    .with_table(positions_table(&positions, truth))
    .with_note(format!(
        "paper: 7 of 33 localized (avg 1.47 anchors/node), error 0.7 m; measured: \
             {localized} of {non_anchors} (avg {} anchors/node), error {} m",
        m(available),
        m(mean_err)
    ))
}

/// **F15/F16** — the same grid with synthetic distances added
/// (N(0, 0.33 m), cutoff 22 m): ~80 % localized, average error pulled up
/// by a few gross failures.
pub fn figure16_augmented_grid(seed: u64) -> ExperimentResult {
    let (scenario, mut set) = grass_grid_measurements(seed);
    let truth = &scenario.deployment.positions;
    let (_, sparse_localized, _, _) = solve_sparse_grid(&scenario, set.clone(), seed);
    let mut rng = rl_math::rng::seeded(seed ^ 0x16);
    let added = RangingChannel::paper().augment(&mut set, truth, &mut rng);
    let pairs = set.len();

    let anchors = Anchor::from_truth(&scenario.anchors, truth);
    let problem = Problem::builder(set)
        .name("grass-grid-augmented")
        .anchors(anchors)
        .truth(truth.clone())
        .build()
        .expect("scenario data is consistent");
    // "Intersection consistency checking was omitted in this localization
    // simulation" (paper footnote 5) — and the paper's solver had no
    // mirror-ambiguity rejection either, which is what produces its
    // "victims of the gradient descent falling into a local minimum".
    let (positions, localized, mean_err, errors) = solve_via_campaign(
        problem,
        MultilaterationConfig::paper()
            .with_consistency(false)
            .with_ambiguity_rejection(false),
        seed ^ 0x16,
    );
    let non_anchors = truth.len() - scenario.anchors.len();
    let keep = errors.len().saturating_sub(3);
    let trimmed = if keep == 0 {
        0.0
    } else {
        errors[..keep].iter().sum::<f64>() / keep as f64
    };

    let mut summary = Table::new("summary", &["metric", "value"]);
    summary.push(&["synthetic pairs added".into(), added.to_string()]);
    summary.push(&["total pairs".into(), pairs.to_string()]);
    summary.push(&[
        "localized".into(),
        format!(
            "{localized} ({})",
            pct(localized as f64 / non_anchors as f64)
        ),
    ]);
    summary.push(&["average error (m)".into(), m(mean_err)]);
    summary.push(&["average error w/o worst 3 (m)".into(), m(trimmed)]);

    ExperimentResult::new("F16", "multilateration, grid + synthetic distances")
        .with_table(summary)
        .with_table(positions_table(&positions, truth))
        .with_note(format!(
            "paper: ~80% localized, 3.5 m average (0.9 m without 3 gross failures); measured: \
             {} localized, {} m average ({} m without worst 3)",
            pct(localized as f64 / non_anchors as f64),
            m(mean_err),
            m(trimmed)
        ))
        // Augmentation localizes more of the grid than Figure 14 does.
        .with_gate(Gate::at_least(
            "localized-beyond-f14",
            localized as f64,
            sparse_localized as f64 + 1.0,
        ))
        .with_gate(Gate::at_most("mean-error-m", mean_err, 3.5))
}

/// **F20** — multilateration on the 59-node town map with 18 anchors and
/// synthetic ranging (paper: 35 localized, ~0.95 m average error).
pub fn figure20_town(seed: u64) -> ExperimentResult {
    let scenario = Scenario::town(seed);
    let truth = &scenario.deployment.positions;
    // The scenario bundles the paper's synthetic error model, so the
    // problem comes straight from `instantiate`.
    let problem = scenario.instantiate(seed ^ 0x20);
    let pairs = problem.measurements().len();
    let (positions, localized, mean_err, _) = solve_via_campaign(
        problem,
        MultilaterationConfig::paper().with_consistency(false),
        seed ^ 0x20,
    );
    let non_anchors = truth.len() - scenario.anchors.len();

    let mut summary = Table::new("summary", &["metric", "value"]);
    summary.push(&["pairs under 22 m".into(), pairs.to_string()]);
    summary.push(&["non-anchor nodes".into(), non_anchors.to_string()]);
    summary.push(&[
        "localized".into(),
        format!(
            "{localized} ({})",
            pct(localized as f64 / non_anchors as f64)
        ),
    ]);
    summary.push(&["average error (m)".into(), m(mean_err)]);

    ExperimentResult::new("F20", "multilateration, town map, 18 of 59 anchors")
        .with_table(summary)
        .with_table(positions_table(&positions, truth))
        .with_note(format!(
            "paper: 35 of 41 localized, ~0.95 m average; measured: {localized} of {non_anchors}, {} m",
            m(mean_err)
        ))
}

/// **Ablation** — intersection consistency on/off under injected outlier
/// ranges (extends Figure 11 quantitatively).
pub fn consistency_ablation(seed: u64) -> ExperimentResult {
    let scenario = Scenario::parking_lot(seed);
    let truth = &scenario.deployment.positions;
    let mut rng = rl_math::rng::seeded(seed ^ 0xAB);
    // Oracle distances to anchors, then corrupt 15 % of them grossly.
    let mut set = MeasurementSet::new(truth.len());
    for &a in &scenario.anchors {
        for j in 0..truth.len() {
            if NodeId(j) == a {
                continue;
            }
            let d = truth[a.index()].distance(truth[j]);
            let corrupted = if rl_math::rng::normal(&mut rng, 0.0, 1.0) > 1.0 {
                d * 0.4 // echo-style gross underestimate
            } else {
                d + rl_math::rng::normal(&mut rng, 0.0, 0.3)
            };
            set.insert(a, NodeId(j), corrupted.max(0.1));
        }
    }
    let anchors = Anchor::from_truth(&scenario.anchors, truth);

    let mut t = Table::new(
        "consistency check under 15% gross outliers",
        &["configuration", "localized", "mean_error_m"],
    );
    let mut note_vals = Vec::new();
    for (label, enabled) in [("with check", true), ("without check", false)] {
        let problem = Problem::builder(set.clone())
            .name("parking-lot-corrupted")
            .anchors(anchors.clone())
            .truth(truth.clone())
            .build()
            .expect("scenario data is consistent");
        let (_, localized, mean_err, _) = solve_via_campaign(
            problem,
            MultilaterationConfig::paper().with_consistency(enabled),
            seed ^ 0xAB,
        );
        t.push(&[label.into(), localized.to_string(), m(mean_err)]);
        note_vals.push(mean_err);
    }
    ExperimentResult::new(
        "ABL-CONSIST",
        "intersection consistency vs gross range outliers",
    )
    .with_table(t)
    .with_note(format!(
        "filtering {} the error ({} -> {} m)",
        if note_vals[0] <= note_vals[1] {
            "reduces"
        } else {
            "did not reduce"
        },
        m(note_vals[1]),
        m(note_vals[0])
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure11_drops_the_bad_anchor() {
        let r = figure11_intersection_consistency(0);
        let csv = r.tables[0].to_csv();
        assert!(csv.contains("DROPPED"));
        // Exactly one anchor dropped.
        assert_eq!(csv.matches("DROPPED").count(), 1);
    }

    #[test]
    fn sparse_grid_localizes_fewer_than_augmented() {
        let sparse = figure14_sparse_grid(7);
        let augmented = figure16_augmented_grid(7);
        let loc = |r: &ExperimentResult| -> usize {
            r.tables[0]
                .to_csv()
                .lines()
                .find(|l| l.starts_with("localized"))
                .unwrap()
                .split(',')
                .nth(1)
                .unwrap()
                .split(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(
            loc(&augmented) > loc(&sparse),
            "augmentation should raise coverage: {} vs {}",
            loc(&augmented),
            loc(&sparse)
        );
    }
}
