//! Distributed-LSS experiments: Figures 24 and 25, plus the
//! transform-method ablation.

use rl_core::distributed::{DistributedConfig, DistributedSolver, TransformMethod};
use rl_core::eval::evaluate_against_truth;
use rl_geom::Point2;
use rl_math::gradient::DescentConfig;
use rl_net::NodeId;
use rl_ranging::channel::RangingChannel;
use rl_ranging::measurement::MeasurementSet;

use super::multilateration::grass_grid_measurements;
use super::{Direction, ExperimentResult};
use crate::report::m;
use crate::Table;

/// The paper's root node sits at (27, 36); pick the node closest to it.
fn root_near(truth: &[Point2], target: Point2) -> NodeId {
    let mut best = NodeId(0);
    let mut best_d = f64::INFINITY;
    for (i, p) in truth.iter().enumerate() {
        let d = p.distance(target);
        if d < best_d {
            best_d = d;
            best = NodeId(i);
        }
    }
    best
}

fn distributed_config() -> DistributedConfig {
    DistributedConfig::default().with_min_spacing(9.14, 10.0)
}

fn run_and_summarize(
    set: &MeasurementSet,
    truth: &[Point2],
    config: &DistributedConfig,
    seed: u64,
) -> (Table, usize, f64) {
    let mut rng = rl_math::rng::seeded(seed);
    let root = root_near(truth, Point2::new(27.0, 36.0));
    let out = DistributedSolver::new(config.clone())
        .with_root(root)
        .solve(set, truth, &mut rng)
        .expect("protocol runs");

    let mut t = Table::new("summary", &["metric", "value"]);
    t.push(&["nodes".into(), truth.len().to_string()]);
    t.push(&["measured pairs".into(), set.len().to_string()]);
    t.push(&["root".into(), root.to_string()]);
    t.push(&["local maps built".into(), out.local_maps_built.to_string()]);
    t.push(&[
        "localized".into(),
        out.positions.localized_count().to_string(),
    ]);
    t.push(&[
        "messages delivered".into(),
        out.messages_delivered.to_string(),
    ]);

    let (localized, mean_err) = match evaluate_against_truth(&out.positions, truth) {
        Ok(eval) => {
            t.push(&["average error (m)".into(), m(eval.mean_error)]);
            t.push(&["max error (m)".into(), m(eval.max_error)]);
            (eval.localized, eval.mean_error)
        }
        Err(_) => {
            t.push(&["average error (m)".into(), "n/a".into()]);
            (out.positions.localized_count(), f64::NAN)
        }
    };
    (t, localized, mean_err)
}

/// **F24** — distributed LSS on the sparse grass-grid field measurements.
///
/// Run twice: with the paper's unguarded transform acceptance *and* no
/// refinement stage (reproducing its failure mode — "the bad transform
/// of a pair of nodes caused large localization errors which were
/// amplified and propagated", 9.5 m average) and with this library's
/// full hardened pipeline — transform guards that route the alignment
/// flood around untrustworthy transforms, plus the Gauss–Newton/CG
/// refinement of the stitched map.
pub fn figure24_sparse(seed: u64) -> ExperimentResult {
    use rl_core::distributed::TransformGuards;
    let (scenario, set) = grass_grid_measurements(seed);
    let truth = &scenario.deployment.positions;

    // Paper-faithful: any ≥3-shared-node transform accepted, uniform
    // (unweighted) registration, raw flood output (the center-weighted
    // registration and the refinement stage are this library's
    // extensions).
    let permissive = DistributedConfig {
        guards: TransformGuards::permissive(),
        transform: TransformMethod::CovarianceUniform,
        ..distributed_config()
    }
    .with_refine(None);
    let (mut table_p, loc_p, err_p) = run_and_summarize(&set, truth, &permissive, seed ^ 0x30);
    let (mut table_g, loc_g, err_g) =
        run_and_summarize(&set, truth, &distributed_config(), seed ^ 0x30);
    // Retitle via a combined comparison table.
    let mut comparison = crate::Table::new(
        "paper-faithful vs hardened transform guards",
        &["configuration", "localized", "mean_error_m"],
    );
    comparison.push(&["permissive (paper)".into(), loc_p.to_string(), m(err_p)]);
    comparison.push(&["hardened + refined".into(), loc_g.to_string(), m(err_g)]);
    table_p = {
        let mut t = crate::Table::new("permissive run detail", &["metric", "value"]);
        for line in table_p.to_csv().lines().skip(1) {
            let mut cells = line.splitn(2, ',');
            t.push(&[
                cells.next().unwrap_or_default().to_string(),
                cells.next().unwrap_or_default().to_string(),
            ]);
        }
        t
    };
    table_g = {
        let mut t = crate::Table::new("hardened run detail", &["metric", "value"]);
        for line in table_g.to_csv().lines().skip(1) {
            let mut cells = line.splitn(2, ',');
            t.push(&[
                cells.next().unwrap_or_default().to_string(),
                cells.next().unwrap_or_default().to_string(),
            ]);
        }
        t
    };

    ExperimentResult::new("F24", "distributed LSS, sparse grass-grid measurements")
        .with_table(comparison)
        .with_table(table_p)
        .with_table(table_g)
        .with_note(format!(
            "paper: 9.5 m average from 247 pairs (bad transforms propagate); measured \
             permissive: {} m over {loc_p} nodes; hardened pipeline: {} m over {loc_g} nodes \
             from {} pairs",
            m(err_p),
            m(err_g),
            set.len()
        ))
}

/// Field measurements merged with the *strict* bidirectional policy
/// (Figure 7's step): the paper's successful distributed run rests on data
/// whose gross errors have been consistency-checked away.
fn strict_grass_measurements(seed: u64) -> (rl_deploy::Scenario, MeasurementSet) {
    use rl_ranging::consistency::{merge_bidirectional, BidirectionalPolicy, ConsistencyConfig};
    use rl_ranging::filter::StatFilter;
    use rl_ranging::service::{RangingService, ServiceConfig};
    use rl_signal::env::Environment;

    let scenario = rl_deploy::Scenario::grass_grid_multilateration(seed);
    let mut rng = rl_math::rng::seeded(seed ^ 0x14);
    let service = RangingService::new(Environment::Grass, ServiceConfig::refined(), &mut rng)
        .expect("grass calibrates");
    let campaign = service.run_campaign(&scenario.deployment.positions, &mut rng);
    let estimates = StatFilter::Median.apply(&campaign);
    let strict = ConsistencyConfig {
        bidirectional_tolerance_m: 1.0,
        policy: BidirectionalPolicy::RequireBoth,
    };
    let set = merge_bidirectional(&estimates, campaign.n, &strict);
    (scenario, set)
}

/// **F25** — distributed LSS after augmenting the measurements with
/// synthetic distances (paper added 370 pairs; every node localized with
/// 0.5 m average error). The field pairs pass the bidirectional
/// consistency check first — without it, retained gross one-way errors
/// poison the local maps.
pub fn figure25_augmented(seed: u64) -> ExperimentResult {
    let (scenario, mut set) = strict_grass_measurements(seed);
    let truth = &scenario.deployment.positions;
    let mut rng = rl_math::rng::seeded(seed ^ 0x31);
    let added = RangingChannel::paper().augment(&mut set, truth, &mut rng);
    // Paper-comparable run: guarded transforms but no refinement stage,
    // so the figure isolates the paper's variable (measurement
    // augmentation) exactly as its 0.534 m number does.
    let paper_cfg = distributed_config().with_refine(None);
    let (table, localized, mean_err) = run_and_summarize(&set, truth, &paper_cfg, seed ^ 0x32);
    // The full hardened pipeline on the same data, reported alongside.
    let (_, _, refined_err) = run_and_summarize(&set, truth, &distributed_config(), seed ^ 0x32);
    ExperimentResult::new("F25", "distributed LSS, augmented measurements")
        .with_table(table)
        .with_note(format!(
            "paper: +370 synthetic pairs, all nodes localized, 0.534 m average; measured \
             (paper protocol, no refinement): +{added} pairs, {localized} localized, {} m; \
             with the Gauss-Newton/CG refinement stage: {} m",
            m(mean_err),
            m(refined_err)
        ))
        .with_claim(
            "F25 localized, all nodes",
            localized as f64,
            Direction::AtLeast,
            truth.len() as f64,
        )
        .with_claim("F25 average error (m)", mean_err, Direction::AtMost, 0.534)
}

/// **Ablation** — transform estimation method: the mote-friendly
/// covariance closed form versus full minimization (§4.3.1 discusses the
/// trade-off but reports no numbers).
pub fn transform_method_ablation(seed: u64) -> ExperimentResult {
    let (scenario, mut set) = strict_grass_measurements(seed);
    let truth = &scenario.deployment.positions;
    let mut rng = rl_math::rng::seeded(seed ^ 0x33);
    RangingChannel::paper().augment(&mut set, truth, &mut rng);

    let mut t = Table::new(
        "transform method comparison (augmented grid)",
        &["method", "localized", "mean_error_m"],
    );
    for (label, method) in [
        (
            "covariance closed form (paper)",
            TransformMethod::CovarianceUniform,
        ),
        ("covariance, center-weighted", TransformMethod::Covariance),
        (
            "full minimization",
            TransformMethod::Minimization(DescentConfig {
                step_size: 0.01,
                max_iterations: 2_000,
                restarts: 2,
                perturbation: 1.0,
                ..DescentConfig::default()
            }),
        ),
    ] {
        // Refinement off: it pulls every leg toward the centralized
        // solution, which would flatten exactly the per-method
        // stitching differences this ablation measures.
        let config = DistributedConfig {
            transform: method,
            ..distributed_config()
        }
        .with_refine(None);
        let (_, localized, mean_err) = run_and_summarize(&set, truth, &config, seed ^ 0x34);
        t.push(&[label.into(), localized.to_string(), m(mean_err)]);
    }
    ExperimentResult::new(
        "ABL-TRANSFORM",
        "covariance (uniform vs center-weighted) vs minimization transform estimation",
    )
    .with_table(t)
    .with_note(
        "paper: the closed form is 'slightly less accurate, but computationally tractable' \
         on motes; the center-weighted variant and the (disabled here) refinement stage are \
         this library's extensions",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn augmented_beats_sparse() {
        let sparse = figure24_sparse(11);
        let augmented = figure25_augmented(11);
        let mean = |r: &ExperimentResult| -> f64 {
            r.tables[0]
                .to_csv()
                .lines()
                .find(|l| l.starts_with("average error (m)"))
                .and_then(|l| l.split(',').nth(1))
                .and_then(|v| v.parse().ok())
                .unwrap_or(f64::INFINITY)
        };
        assert!(
            mean(&augmented) < mean(&sparse),
            "augmentation should improve distributed LSS: {} vs {}",
            mean(&augmented),
            mean(&sparse)
        );
        assert!(
            mean(&augmented) < 2.0,
            "augmented error {}",
            mean(&augmented)
        );
    }
}
