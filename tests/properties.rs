//! Cross-crate property-based tests on algorithm invariants.

use proptest::prelude::*;
use resilient_localization::prelude::*;
use rl_core::lss::{LssConfig, LssObjective, LssSolver, SoftConstraint};
use rl_geom::{RigidTransform, Vec2};
use rl_math::gradient::Objective;
use rl_net::NodeId as NetNodeId;
use rl_ranging::{ChannelStage, RangingChannel};

/// The objective's value and gradient at `x`.
fn eval(obj: &LssObjective, x: &[f64]) -> (f64, Vec<f64>) {
    let mut grad = vec![0.0; x.len()];
    let value = obj.evaluate(x, &mut grad);
    (value, grad)
}

fn measurement_set(
    pts: &[(f64, f64)],
    edges: &[(usize, usize)],
    noise: &[f64],
) -> (Vec<Point2>, MeasurementSet) {
    let truth: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
    let mut set = MeasurementSet::new(truth.len());
    for (k, &(a, b)) in edges.iter().enumerate() {
        if a == b || a >= truth.len() || b >= truth.len() {
            continue;
        }
        let d = truth[a].distance(truth[b]);
        if d < 1e-6 {
            continue;
        }
        let noisy = (d + noise[k % noise.len()]).max(0.05);
        set.insert(NetNodeId(a), NetNodeId(b), noisy);
    }
    (truth, set)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The LSS gradient always matches finite differences, for arbitrary
    /// sparse graphs, weights, and constraint settings.
    #[test]
    fn lss_gradient_matches_finite_differences(
        pts in proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 4..8),
        edges in proptest::collection::vec((0usize..8, 0usize..8), 3..16),
        noise in proptest::collection::vec(-0.5f64..0.5, 4),
        constrained in proptest::bool::ANY,
        x0 in proptest::collection::vec(-40.0f64..40.0, 16),
    ) {
        let (truth, set) = measurement_set(&pts, &edges, &noise);
        prop_assume!(set.len() >= 2);
        let soft = constrained.then_some(SoftConstraint {
            min_spacing_m: 7.0,
            weight: 10.0,
        });
        let obj = LssObjective::new(&set, soft);
        let n = truth.len();
        let x: Vec<f64> = x0.iter().take(2 * n).cloned().collect();
        prop_assume!(x.len() == 2 * n);
        let grad = eval(&obj, &x).1;
        let h = 1e-6;
        for k in 0..x.len() {
            let mut xp = x.clone();
            xp[k] += h;
            let mut xm = x.clone();
            xm[k] -= h;
            let numeric = (eval(&obj, &xp).0 - eval(&obj, &xm).0) / (2.0 * h);
            // Skip points near the constraint kink (non-differentiable).
            if (grad[k] - numeric).abs() > 1e-3 * (1.0 + numeric.abs()) {
                // Verify we are near a kink: re-check with a shifted point.
                let mut x2 = x.clone();
                x2[k] += 0.01;
                let g2 = eval(&obj, &x2).1;
                let numeric2 = {
                    let mut xp = x2.clone();
                    xp[k] += h;
                    let mut xm = x2.clone();
                    xm[k] -= h;
                    (eval(&obj, &xp).0 - eval(&obj, &xm).0) / (2.0 * h)
                };
                prop_assert!(
                    (g2[k] - numeric2).abs() <= 1e-3 * (1.0 + numeric2.abs()),
                    "gradient mismatch persists away from kink: {} vs {}",
                    g2[k],
                    numeric2
                );
            }
        }
    }

    /// Evaluation after best-fit alignment is invariant under any rigid
    /// transform of the estimated coordinates.
    #[test]
    fn evaluation_is_rigid_invariant(
        pts in proptest::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 3..12),
        errors in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 12),
        theta in -3.0f64..3.0,
        reflected in proptest::bool::ANY,
        tx in -50.0f64..50.0,
        ty in -50.0f64..50.0,
    ) {
        let truth: Vec<Point2> = pts.iter().map(|&(x, y)| Point2::new(x, y)).collect();
        let estimate: Vec<Point2> = truth
            .iter()
            .zip(errors.iter().cycle())
            .map(|(&p, &(ex, ey))| Point2::new(p.x + ex, p.y + ey))
            .collect();
        // Estimates must not be all-coincident for alignment to exist.
        let mu = rl_geom::centroid(&estimate).unwrap();
        prop_assume!(estimate.iter().map(|p| p.distance_sq(mu)).sum::<f64>() > 1e-3);

        let base = evaluate_against_truth(&PositionMap::complete(estimate.clone()), &truth)
            .unwrap();
        let t = RigidTransform::new(theta, reflected, Vec2::new(tx, ty));
        let moved: Vec<Point2> = estimate.iter().map(|&p| t.apply(p)).collect();
        let moved_eval =
            evaluate_against_truth(&PositionMap::complete(moved), &truth).unwrap();
        prop_assert!(
            (base.mean_error - moved_eval.mean_error).abs() < 1e-6 * (1.0 + base.mean_error),
            "alignment not invariant: {} vs {}",
            base.mean_error,
            moved_eval.mean_error
        );
    }

    /// An LSS solution's stress never exceeds the stress of the ground
    /// truth configuration by more than the restart tolerance (on exact
    /// measurements, truth is a global minimum with stress ~0).
    #[test]
    fn lss_reaches_global_minimum_on_exact_triangle_meshes(
        nx in 2usize..4,
        ny in 2usize..3,
        spacing in 5.0f64..12.0,
        seed in 0u64..50,
    ) {
        let truth: Vec<Point2> = (0..nx * ny)
            .map(|i| Point2::new((i % nx) as f64 * spacing, (i / nx) as f64 * spacing))
            .collect();
        let set = MeasurementSet::oracle(&truth, spacing * 2.5);
        prop_assume!(set.len() >= 2 * truth.len() - 3); // generically rigid
        let mut rng = rl_math::rng::seeded(seed);
        let sol = LssSolver::new(LssConfig::default().with_min_spacing(spacing * 0.9, 10.0))
            .solve(&set, &mut rng)
            .unwrap();
        prop_assert!(sol.stress() < 0.5 * set.len() as f64, "stress {}", sol.stress());
    }

    /// Metro-generated deployments stay connected under the paper's 22 m
    /// ranging cutoff — across district-grid shapes, subsample fractions
    /// down to half the candidates, and seeds — and carry exactly the
    /// requested anchor fraction. (Connectivity is what makes the
    /// metro-scale campaign cells solvable at all: one severed district
    /// and every protocol-driven localizer degrades to its island.)
    #[test]
    fn metro_deployments_are_connected_with_requested_anchor_fraction(
        districts_x in 1usize..4,
        districts_y in 1usize..3,
        fill in 0.5f64..0.95,
        anchor_fraction in 0.05f64..0.25,
        seed in 0u64..1000,
    ) {
        let map = rl_deploy::MetroMap::default_metro()
            .with_districts(districts_x, districts_y);
        let nodes = (map.capacity() as f64 * fill) as usize;
        let scenario =
            rl_deploy::Scenario::metro_custom(map, nodes, anchor_fraction, seed);
        prop_assert_eq!(scenario.deployment.len(), nodes);

        let expected_anchors = (nodes as f64 * anchor_fraction).round() as usize;
        prop_assert_eq!(scenario.anchors.len(), expected_anchors);
        prop_assert!(scenario
            .anchors
            .iter()
            .all(|a| a.index() < nodes));

        let topo = rl_net::Topology::from_positions(&scenario.deployment.positions, 22.0);
        prop_assert!(
            topo.is_connected(),
            "{} nodes over {}x{} districts disconnected under 22 m",
            nodes, districts_x, districts_y
        );
    }

    /// Distances between solved coordinates reproduce the measurements
    /// (up to noise scale) whenever the solver reports low stress.
    #[test]
    fn low_stress_implies_distance_fidelity(
        seed in 0u64..30,
    ) {
        let truth: Vec<Point2> = (0..9)
            .map(|i| Point2::new((i % 3) as f64 * 9.0, (i / 3) as f64 * 9.0))
            .collect();
        let mut rng = rl_math::rng::seeded(seed);
        let set = RangingChannel::ideal(25.0)
            .with_stage(ChannelStage::GaussianNoise { sigma_m: 0.2 })
            .measure_all(&truth, &mut rng);
        let sol = LssSolver::new(LssConfig::default().with_min_spacing(9.0, 10.0))
            .solve(&set, &mut rng)
            .unwrap();
        if sol.stress() < 0.5 * set.len() as f64 {
            for (a, b, d) in set.iter() {
                let dc = sol.coordinates()[a.index()].distance(sol.coordinates()[b.index()]);
                prop_assert!(
                    (dc - d).abs() < 1.5,
                    "pair {a}-{b}: solved {dc:.2} vs measured {d:.2}"
                );
            }
        }
    }
}
