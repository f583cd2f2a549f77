//! Failure-injection integration tests: the paper's resilience claims
//! under deliberately hostile measurement conditions.

use resilient_localization::prelude::*;
use rl_core::lss::{LssConfig, LssSolver, RobustReweight};
use rl_ranging::{ChannelStage, RangingChannel};

fn grid(nx: usize, ny: usize, spacing: f64) -> Vec<Point2> {
    (0..nx * ny)
        .map(|i| Point2::new((i % nx) as f64 * spacing, (i / nx) as f64 * spacing))
        .collect()
}

/// LSS keeps working as measurements are deleted, down to a sparse graph —
/// the paper's "resilient against sparse range measurements".
#[test]
fn lss_degrades_gracefully_with_sparsity() {
    let truth = grid(4, 4, 9.0);
    let mut rng = rl_math::rng::seeded(2001);
    let full = RangingChannel::ideal(40.0)
        .with_stage(ChannelStage::GaussianNoise { sigma_m: 0.2 })
        .measure_all(&truth, &mut rng);

    for keep_fraction in [1.0f64, 0.7, 0.5] {
        // Keep a deterministic stride of pairs (spread over the graph, so
        // the remainder stays roughly uniform rather than clustered).
        let mut sparse = MeasurementSet::new(truth.len());
        let all: Vec<_> = full.iter().collect();
        for (i, &(a, b, d)) in all.iter().enumerate() {
            if (i as f64 * keep_fraction).fract() < keep_fraction {
                sparse.insert(a, b, d);
            }
        }
        let config = LssConfig::default().with_min_spacing(9.0, 10.0);
        let solution = LssSolver::new(config)
            .solve(&sparse, &mut rng)
            .expect("solvable");
        let eval = evaluate_against_truth(&solution.positions(), &truth).expect("evaluable");
        assert!(
            eval.mean_error < 1.5,
            "at {:.0}% density the error blew up to {} m",
            keep_fraction * 100.0,
            eval.mean_error
        );
    }
}

/// A handful of catastrophic outliers must not wreck robust LSS.
#[test]
fn robust_lss_survives_outlier_injection() {
    let truth = grid(4, 4, 9.0);
    let mut rng = rl_math::rng::seeded(2002);
    let mut set = RangingChannel::ideal(25.0)
        .with_stage(ChannelStage::GaussianNoise { sigma_m: 0.2 })
        .measure_all(&truth, &mut rng);

    // Corrupt 5% of the edges with echo-style gross underestimates.
    let edges: Vec<_> = set.iter().collect();
    for (k, &(a, b, d)) in edges.iter().enumerate() {
        if k % 20 == 0 {
            set.insert(a, b, (d * 0.25).max(0.5));
        }
    }

    let config = LssConfig::default()
        .with_min_spacing(9.0, 10.0)
        .with_robust_reweight(RobustReweight::default());
    let solution = LssSolver::new(config)
        .solve(&set, &mut rng)
        .expect("solvable");
    let eval = evaluate_against_truth(&solution.positions(), &truth).expect("evaluable");
    assert!(
        eval.mean_error < 1.0,
        "robust LSS error {} m under 5% gross outliers",
        eval.mean_error
    );
}

/// Node failures: localization continues for survivors when nodes vanish.
#[test]
fn lss_tolerates_node_failures() {
    let full_truth = grid(5, 4, 9.0);
    let deployment = rl_deploy::Deployment::new("failure-test", full_truth);
    // Three nodes die before ranging.
    let survivors = deployment.without_nodes(&[3, 9, 17]);
    let mut rng = rl_math::rng::seeded(2003);
    let set = RangingChannel::paper().measure_all(&survivors.positions, &mut rng);

    let config = LssConfig::default().with_min_spacing(9.0, 10.0);
    let solution = LssSolver::new(config)
        .solve(&set, &mut rng)
        .expect("solvable");
    let eval =
        evaluate_against_truth(&solution.positions(), &survivors.positions).expect("evaluable");
    assert_eq!(eval.localized, survivors.len());
    assert!(eval.mean_error < 1.0, "error {} m", eval.mean_error);
}

/// Multilateration under lossy radio and sparse anchors refuses to invent
/// positions (no gross errors among the nodes it does localize, thanks to
/// consistency checking and ambiguity rejection).
#[test]
fn multilateration_does_not_invent_positions() {
    let truth = grid(5, 4, 9.0);
    let mut rng = rl_math::rng::seeded(2004);
    let set = RangingChannel::ideal(15.0)
        .with_stage(ChannelStage::GaussianNoise { sigma_m: 0.33 })
        .measure_all(&truth, &mut rng);

    let anchor_ids = [NodeId(0), NodeId(4), NodeId(15), NodeId(19), NodeId(7)];
    let anchors = Anchor::from_truth(&anchor_ids, &truth);
    let out = MultilaterationSolver::new(MultilaterationConfig::paper())
        .solve(&set, &anchors, &mut rng)
        .expect("enough anchors");

    for (id, pos) in out.positions.iter() {
        if anchor_ids.contains(&id) {
            continue;
        }
        if let Some(p) = pos {
            let err = p.distance(truth[id.index()]);
            assert!(
                err < 3.0,
                "{id} localized {err:.1} m off — should have been rejected instead"
            );
        }
    }
}

/// A node with zero usable neighbors (no ranging pairs, no radio
/// contact) cannot build a local map or hear the alignment flood; the
/// rest of the network must localize around it, and the refinement
/// stage must leave the unlocalized node untouched instead of inventing
/// a position for it.
#[test]
fn distributed_tolerates_node_with_zero_neighbors() {
    use rl_core::distributed::{run_distributed, DistributedConfig};
    let mut truth = grid(4, 4, 9.0);
    truth.push(Point2::new(500.0, 500.0)); // far beyond ranging and radio
    let mut rng = rl_math::rng::seeded(2006);
    let set = RangingChannel::paper().measure_all(&truth, &mut rng);
    assert_eq!(set.degree(NodeId(16)), 0, "the outlier must be isolated");

    let config = DistributedConfig::default().with_min_spacing(9.0, 10.0);
    let out = run_distributed(&set, &truth, NodeId(5), &config, &mut rng).expect("protocol runs");
    assert_eq!(out.local_maps_built, 16, "only the connected nodes map");
    assert_eq!(out.positions.get(NodeId(16)), None, "no invented position");
    assert!(out.positions.localized_count() >= 14);
    let eval = evaluate_against_truth(&out.positions, &truth).expect("evaluable");
    assert!(eval.mean_error < 1.0, "error {} m", eval.mean_error);
}

/// A disconnected district — internally dense, but with no measurements
/// or radio path to the root's district — must stay unlocalized while
/// the root's district localizes to meter level (the refinement stage
/// operates on the aligned component alone).
#[test]
fn distributed_survives_disconnected_district() {
    use rl_core::distributed::{run_distributed, DistributedConfig};
    let mut truth = grid(4, 3, 9.0);
    let far: Vec<Point2> = grid(3, 3, 9.0)
        .iter()
        .map(|p| Point2::new(p.x + 400.0, p.y + 400.0))
        .collect();
    truth.extend(far);
    let mut rng = rl_math::rng::seeded(2007);
    let set = RangingChannel::paper().measure_all(&truth, &mut rng);

    let config = DistributedConfig::default().with_min_spacing(9.0, 10.0);
    let out = run_distributed(&set, &truth, NodeId(0), &config, &mut rng).expect("protocol runs");
    assert_eq!(out.local_maps_built, 21, "both districts map locally");
    for i in 12..21 {
        assert_eq!(
            out.positions.get(NodeId(i)),
            None,
            "node {i} is unreachable from the root and must stay unlocalized"
        );
    }
    assert!(out.positions.localized_count() >= 10);
    let eval = evaluate_against_truth(&out.positions, &truth).expect("evaluable");
    assert!(eval.mean_error < 1.0, "error {} m", eval.mean_error);
}

/// The distributed protocol survives radio loss: with 20% packet loss the
/// flood still aligns the large majority of nodes.
#[test]
fn distributed_survives_lossy_radio() {
    use rl_core::distributed::{run_distributed, DistributedConfig};
    let truth = grid(4, 4, 9.0);
    let mut rng = rl_math::rng::seeded(2005);
    let set = RangingChannel::paper().measure_all(&truth, &mut rng);

    let config = DistributedConfig {
        radio: rl_net::RadioModel {
            loss_probability: 0.2,
            ..rl_net::RadioModel::mica2()
        },
        ..DistributedConfig::default().with_min_spacing(9.0, 10.0)
    };
    let out = run_distributed(&set, &truth, NodeId(5), &config, &mut rng).expect("protocol runs");
    assert!(
        out.positions.localized_count() >= 12,
        "only {} of 16 aligned under 20% loss",
        out.positions.localized_count()
    );
}
