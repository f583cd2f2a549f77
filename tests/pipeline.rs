//! Cross-crate integration tests: the full field pipeline from acoustic
//! simulation through localization and evaluation.

use resilient_localization::prelude::*;
use rl_core::lss::{LssConfig, LssSolver};
use rl_ranging::consistency::{merge_bidirectional, ConsistencyConfig};
use rl_ranging::filter::StatFilter;
use rl_ranging::service::{RangingService, ServiceConfig};

/// The complete grass pipeline on a small grid must reach sub-meter
/// localization: ranging simulation → median filter → consistency merge →
/// constrained LSS → best-fit evaluation.
#[test]
fn acoustic_to_position_pipeline() {
    let mut rng = rl_math::rng::seeded(1001);
    let field = rl_deploy::grid::OffsetGrid::new(4, 4, 9.144, 9.144).generate();

    let service = RangingService::new(Environment::Grass, ServiceConfig::refined(), &mut rng)
        .expect("calibration succeeds on grass");
    let campaign = service.run_campaign(&field.positions, &mut rng);
    assert!(
        campaign.samples.len() > 300,
        "expected a dense campaign, got {}",
        campaign.samples.len()
    );

    let estimates = StatFilter::Median.apply(&campaign);
    let set = merge_bidirectional(&estimates, campaign.n, &ConsistencyConfig::default());
    assert!(
        set.average_degree() > 3.0,
        "degree {}",
        set.average_degree()
    );

    let config = LssConfig::default().with_min_spacing(9.14, 10.0);
    let solution = LssSolver::new(config)
        .solve(&set, &mut rng)
        .expect("solvable");
    let eval = evaluate_against_truth(&solution.positions(), &field.positions).expect("evaluable");
    assert_eq!(eval.localized, field.len(), "LSS localizes everyone");
    assert!(
        eval.mean_error < 1.2,
        "pipeline mean error {} m",
        eval.mean_error
    );
}

/// The same measurement set must feed both multilateration and LSS, and
/// anchor-free LSS must localize more nodes than sparse multilateration.
#[test]
fn lss_beats_multilateration_on_sparse_data() {
    let mut rng = rl_math::rng::seeded(1002);
    let scenario = rl_deploy::Scenario::grass_grid_multilateration(1002);
    let truth = &scenario.deployment.positions;

    let service = RangingService::new(Environment::Grass, ServiceConfig::refined(), &mut rng)
        .expect("calibration succeeds");
    let campaign = service.run_campaign(truth, &mut rng);
    let estimates = StatFilter::Median.apply(&campaign);
    let set = merge_bidirectional(&estimates, campaign.n, &ConsistencyConfig::default());

    let anchors = Anchor::from_truth(&scenario.anchors, truth);
    let multi = MultilaterationSolver::new(MultilaterationConfig::paper())
        .solve(&set, &anchors, &mut rng)
        .expect("enough anchors");
    // Multilateration: anchors "localized" for free, many non-anchors not.
    let non_anchor_localized = multi
        .positions
        .localized_nodes()
        .iter()
        .filter(|id| !scenario.anchors.contains(id))
        .count();

    let lss = LssSolver::new(LssConfig::default().with_min_spacing(9.14, 10.0))
        .solve(&set, &mut rng)
        .expect("solvable");
    let eval = evaluate_against_truth(&lss.positions(), truth).expect("evaluable");

    assert!(
        eval.localized > non_anchor_localized,
        "LSS localized {} vs multilateration {non_anchor_localized}",
        eval.localized
    );
    assert_eq!(eval.localized, truth.len());
}

/// Synthetic town data end-to-end through the distributed protocol.
#[test]
fn distributed_protocol_on_town() {
    let mut rng = rl_math::rng::seeded(1003);
    let scenario = rl_deploy::Scenario::town(1003);
    let truth = &scenario.deployment.positions;
    let set = rl_ranging::RangingChannel::paper().measure_all(truth, &mut rng);

    let config = rl_core::distributed::DistributedConfig::default().with_min_spacing(9.0, 10.0);
    let out = rl_core::distributed::run_distributed(&set, truth, NodeId(0), &config, &mut rng)
        .expect("protocol runs");
    assert!(
        out.positions.localized_count() as f64 >= 0.9 * truth.len() as f64,
        "only {} of {} localized",
        out.positions.localized_count(),
        truth.len()
    );
    let eval = evaluate_against_truth(&out.positions, truth).expect("evaluable");
    assert!(
        eval.mean_error < 1.0,
        "distributed error {} m",
        eval.mean_error
    );
    assert!(
        out.messages_delivered > truth.len(),
        "protocol exchanged messages"
    );
}

/// Determinism across the whole stack: same seed, same result.
#[test]
fn full_pipeline_is_deterministic() {
    let run = || {
        let mut rng = rl_math::rng::seeded(1004);
        let field = rl_deploy::grid::OffsetGrid::new(3, 3, 9.144, 9.144).generate();
        let set = rl_ranging::RangingChannel::paper().measure_all(&field.positions, &mut rng);
        let solution = LssSolver::new(LssConfig::default().with_min_spacing(9.14, 10.0))
            .solve(&set, &mut rng)
            .expect("solvable");
        solution.coordinates().to_vec()
    };
    assert_eq!(run(), run());
}

/// Serde round-trips across crate boundaries: a scenario and its
/// measurement set survive JSON.
#[test]
fn cross_crate_serde_roundtrip() {
    let mut rng = rl_math::rng::seeded(1005);
    let scenario = rl_deploy::Scenario::parking_lot(1005);
    let set =
        rl_ranging::RangingChannel::paper().measure_all(&scenario.deployment.positions, &mut rng);

    let json = serde_json::to_string(&(&scenario, &set)).expect("serializes");
    let (scenario2, set2): (rl_deploy::Scenario, MeasurementSet) =
        serde_json::from_str(&json).expect("deserializes");
    assert_eq!(scenario, scenario2);
    assert_eq!(set, set2);
}
