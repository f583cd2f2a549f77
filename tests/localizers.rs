//! Integration tests for the unified `Localizer` trait: every algorithm
//! family driven through `Box<dyn Localizer>` on one shared problem, plus
//! the Related-Work error ranking the paper's §2 comparison implies.

use resilient_localization::net::RadioModel;
use resilient_localization::prelude::*;

/// A 5x5 oracle grid (spacing 10 m) with the four corners as anchors:
/// exact distances below 25 m, anchors heard by everyone within 45 m.
fn oracle_grid_problem() -> Problem {
    let truth: Vec<Point2> = (0..25)
        .map(|i| Point2::new((i % 5) as f64 * 10.0, (i / 5) as f64 * 10.0))
        .collect();
    let anchors = Anchor::from_truth(&[NodeId(0), NodeId(4), NodeId(20), NodeId(24)], &truth);
    Problem::builder(MeasurementSet::oracle(&truth, 25.0))
        .name("oracle-5x5")
        .anchors(anchors)
        .truth(truth)
        .build()
        .expect("oracle grid is consistent")
}

fn solve_and_evaluate(localizer: &dyn Localizer, problem: &Problem, seed: u64) -> Evaluation {
    let mut rng = rl_math::rng::seeded(seed);
    let solution = localizer
        .localize(problem, &mut rng)
        .unwrap_or_else(|e| panic!("{} failed: {e}", localizer.name()));
    problem
        .evaluate(&solution)
        .unwrap_or_else(|e| panic!("{} evaluation failed: {e}", localizer.name()))
}

#[test]
fn baselines_rank_worse_than_lss_through_the_trait() {
    // The paper's Related-Work positioning: hop-count and connectivity
    // schemes are coarse compared with distance-based LSS, even on the
    // isotropic grid that favors DV-hop.
    let problem = oracle_grid_problem();
    let lss: Box<dyn Localizer> = Box::new(LssSolver::new(
        LssConfig::default().with_min_spacing(10.0, 10.0),
    ));
    let dv_hop: Box<dyn Localizer> = Box::new(DvHopLocalizer::new(RadioModel::ideal(15.0)));
    let centroid: Box<dyn Localizer> = Box::new(CentroidLocalizer::new(45.0));

    let lss_eval = solve_and_evaluate(lss.as_ref(), &problem, 1);
    let dv_hop_eval = solve_and_evaluate(dv_hop.as_ref(), &problem, 1);
    let centroid_eval = solve_and_evaluate(centroid.as_ref(), &problem, 1);

    assert!(lss_eval.mean_error < 0.5, "LSS {}", lss_eval.mean_error);
    assert!(
        lss_eval.mean_error < dv_hop_eval.mean_error,
        "LSS {} must beat DV-hop {}",
        lss_eval.mean_error,
        dv_hop_eval.mean_error
    );
    assert!(
        lss_eval.mean_error < centroid_eval.mean_error,
        "LSS {} must beat centroid {}",
        lss_eval.mean_error,
        centroid_eval.mean_error
    );
    // DV-hop uses distance estimates, centroid only connectivity: on an
    // isotropic grid the ranking between the two baselines holds as well.
    assert!(
        dv_hop_eval.mean_error < centroid_eval.mean_error,
        "DV-hop {} vs centroid {}",
        dv_hop_eval.mean_error,
        centroid_eval.mean_error
    );
}

#[test]
fn every_family_runs_as_a_trait_object() {
    // Trait-object safety: the whole comparison matrix behind one vtable.
    let localizers: Vec<Box<dyn Localizer>> = vec![
        Box::new(LssSolver::new(LssConfig::default())),
        Box::new(MultilaterationSolver::new(MultilaterationConfig::paper())),
        Box::new(MultilaterationSolver::new(
            MultilaterationConfig::paper().progressive(),
        )),
        Box::new(DistributedSolver::new(
            DistributedConfig::default().with_min_spacing(10.0, 10.0),
        )),
        Box::new(MdsMapLocalizer::new()),
        Box::new(DvHopLocalizer::new(RadioModel::ideal(15.0))),
        Box::new(CentroidLocalizer::new(45.0)),
    ];
    let names: Vec<&str> = localizers.iter().map(|l| l.name()).collect();
    assert_eq!(
        names,
        vec![
            "lss",
            "multilateration",
            "multilateration-progressive",
            "distributed-lss",
            "mds-map",
            "dv-hop",
            "centroid"
        ]
    );

    let problem = oracle_grid_problem();
    let mut rng = rl_math::rng::seeded(9);
    for localizer in &localizers {
        let solution = localizer
            .localize(&problem, &mut rng)
            .unwrap_or_else(|e| panic!("{} failed: {e}", localizer.name()));
        assert_eq!(solution.positions().len(), problem.node_count());
        assert!(
            solution.positions().localized_count() > 0,
            "{} localized nothing",
            localizer.name()
        );
    }
}

#[test]
fn anchored_lss_collapses_the_solve_split() {
    // Through the trait, the anchor set decides between `solve` and
    // `solve_anchored`: with anchors the output is already absolute (the
    // anchors are pinned and the rest polished), without it needs
    // alignment.
    let problem = oracle_grid_problem();
    let solver = LssSolver::new(LssConfig::default());
    let mut rng = rl_math::rng::seeded(4);
    let anchored = Localizer::localize(&solver, &problem, &mut rng).expect("anchored solve");
    assert_eq!(anchored.frame(), Frame::Absolute);
    // Absolute evaluation (no alignment) must already be accurate.
    let eval = problem.evaluate(&anchored).expect("evaluable");
    assert!(eval.mean_error < 0.5, "anchored error {}", eval.mean_error);

    let anchor_free = Problem::builder(problem.measurements().clone())
        .truth(problem.truth().unwrap().to_vec())
        .build()
        .expect("consistent");
    let relative = Localizer::localize(&solver, &anchor_free, &mut rng).expect("anchor-free solve");
    assert_eq!(relative.frame(), Frame::Relative);
    assert!(
        anchor_free
            .evaluate(&relative)
            .expect("evaluable")
            .mean_error
            < 0.5,
        "aligned relative solve must be accurate"
    );

    // `anchor_free()` forces the paper's anchor-less operation even when
    // the problem supplies anchors (equal-footing comparisons).
    let forced = LssSolver::new(LssConfig::default().anchor_free());
    assert_eq!(Localizer::name(&forced), "lss-anchor-free");
    let solution = Localizer::localize(&forced, &problem, &mut rng).expect("solvable");
    assert_eq!(solution.frame(), Frame::Relative);
}

#[test]
fn stats_ride_along_with_solutions() {
    let problem = oracle_grid_problem();
    let mut rng = rl_math::rng::seeded(2);
    let solution = LssSolver::new(LssConfig::default())
        .localize(&problem, &mut rng)
        .expect("solvable");
    let stats = solution.stats();
    assert!(stats.iterations > 0, "LSS reports descent iterations");
    let stress = stats.residual.expect("LSS reports stress");
    assert!(stress.is_finite() && stress >= 0.0);

    let mds = MdsMapLocalizer::new()
        .localize(&problem, &mut rng)
        .expect("solvable");
    assert!(
        mds.stats().iterations > 0,
        "MDS-MAP reports eigensolver iterations"
    );
    assert!(mds.stats().residual.is_none());
}
