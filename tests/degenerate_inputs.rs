//! Degenerate-input resilience: every solver family must fail *with a
//! structured error* — or return a solution containing only finite
//! positions — on inputs that break the geometric assumptions the
//! algorithms lean on. Panics and NaN positions are the two failure
//! modes these tests forbid:
//!
//! * **100% contamination**: every node compromised, every measurement
//!   `U(0, 60 m)` garbage (the degradation ladder's limit case),
//! * **zero measurements**: a deployment that produced no ranges at all,
//! * **collinear anchors**: every anchor on one line, so anchor-based
//!   position fixes have a reflection ambiguity everywhere,
//! * **the degenerate corpus**: fifteen valid problems at the edges of
//!   the input domain — lines, co-located and disconnected nodes,
//!   coordinates near the ends of the `f64` range, extreme weights, the
//!   smallest networks, a star and a long zigzag strip.

use proptest::prelude::*;
use rand::Rng;
use resilient_localization::prelude::*;
use rl_deploy::Scenario;
use rl_geom::{fit_rigid_transform, RigidTransform};
use rl_net::RadioModel;
use rl_ranging::channel::{ChannelStage, RangingChannel};

const RANGE_M: f64 = 22.0;

/// The full six-family panel plus the paper-scale LSS preset, freshly
/// boxed (solvers are stateless, but `Box<dyn Localizer>` is not `Clone`).
fn panel() -> Vec<Box<dyn Localizer>> {
    vec![
        Box::new(LssSolver::new(LssConfig::metro())),
        Box::new(LssSolver::new(LssConfig::default())),
        Box::new(MultilaterationSolver::new(
            MultilaterationConfig::paper().progressive(),
        )),
        Box::new(DistributedSolver::new(DistributedConfig::metro())),
        Box::new(MdsMapLocalizer::new()),
        Box::new(DvHopLocalizer::new(RadioModel::ideal(RANGE_M))),
        Box::new(CentroidLocalizer::new(RANGE_M)),
    ]
}

/// Every family either returns a structured error or a solution whose
/// localized positions are all finite, and evaluating that solution
/// against the truth gives a structured error or a finite mean error
/// (the rigid fit squares coordinates, so a node at 1e300 m reads NaN
/// unless the fit rescales). Reaching the end of this function is the
/// assertion: no family panicked, no family emitted NaN.
fn assert_no_panic_no_nan(problem: &Problem, label: &str) {
    for solver in panel() {
        let mut rng = rl_math::rng::seeded(1);
        match solver.localize(problem, &mut rng) {
            Ok(solution) => {
                let positions = solution.positions();
                for i in 0..problem.node_count() {
                    if let Some(p) = positions.get(NodeId(i)) {
                        assert!(
                            p.x.is_finite() && p.y.is_finite(),
                            "{} on {label}: node {i} localized at non-finite {p:?}",
                            solver.name(),
                        );
                    }
                }
                let truth = problem.truth().expect("every problem here carries truth");
                if let Ok(eval) = evaluate_against_truth(positions, truth) {
                    assert!(
                        eval.mean_error.is_finite() && eval.max_error >= eval.mean_error,
                        "{} on {label}: mean error {} max {}",
                        solver.name(),
                        eval.mean_error,
                        eval.max_error
                    );
                }
            }
            Err(e) => {
                // A structured error is the correct way to decline; it
                // must also render (no panicking Display impls).
                let _ = e.to_string();
            }
        }
    }
}

#[test]
fn all_families_survive_total_contamination() {
    // Every node compromised: every surviving pair is two compromised
    // endpoints, so the whole measurement set is uniform garbage.
    let scenario = Scenario::town(3).with_channel(RangingChannel::ideal(RANGE_M).with_stage(
        ChannelStage::Adversarial {
            node_fraction: 1.0,
            corruption_m: 60.0,
        },
    ));
    let problem = scenario.instantiate(3);
    assert!(!problem.measurements().is_empty(), "garbage is still data");
    assert_no_panic_no_nan(&problem, "100% contamination");
}

#[test]
fn all_families_survive_zero_measurements() {
    let problem = zero_measurements();
    assert_eq!(problem.measurements().len(), 0);
    assert_no_panic_no_nan(&problem, "zero measurements");
}

#[test]
fn all_families_survive_collinear_anchors() {
    assert_no_panic_no_nan(&collinear_anchors(), "collinear anchors");
}

/// A `cols x rows` grid with spacing `spacing_m`, origin at (0, 0).
fn grid(cols: usize, rows: usize, spacing_m: f64) -> Vec<Point2> {
    (0..cols * rows)
        .map(|i| Point2::new((i % cols) as f64 * spacing_m, (i / cols) as f64 * spacing_m))
        .collect()
}

/// A problem over `truth` with the given ranges and the listed nodes as
/// anchors.
fn problem(
    name: impl Into<String>,
    truth: Vec<Point2>,
    set: MeasurementSet,
    anchor_ids: &[usize],
) -> Problem {
    let ids: Vec<NodeId> = anchor_ids.iter().map(|&i| NodeId(i)).collect();
    Problem::builder(set)
        .name(name)
        .anchors(Anchor::from_truth(&ids, &truth))
        .truth(truth)
        .build()
        .expect("every corpus problem is valid")
}

/// Exact ranges for every pair of `truth` within `range_m`.
fn oracle(
    name: impl Into<String>,
    truth: Vec<Point2>,
    range_m: f64,
    anchor_ids: &[usize],
) -> Problem {
    let set = MeasurementSet::oracle(&truth, range_m);
    problem(name, truth, set, anchor_ids)
}

/// A 12-node grid that produced no ranges at all.
fn zero_measurements() -> Problem {
    problem(
        "zero-measurements",
        grid(4, 3, 9.0),
        MeasurementSet::new(12),
        &[0, 3, 5, 10],
    )
}

/// A 4x4 grid whose four anchors all sit on the bottom row: every
/// anchor-based fix has a mirror ambiguity across that line.
fn collinear_anchors() -> Problem {
    oracle("collinear-anchors", grid(4, 4, 9.0), 25.0, &[0, 1, 2, 3])
}

/// A 5x5 grid of 9 m spacing, every pair measured exactly, with every
/// coordinate and range multiplied by `scale`.
fn scaled_grid(scale: f64) -> Problem {
    let truth: Vec<Point2> = grid(5, 5, 9.0)
        .into_iter()
        .map(|p| Point2::new(p.x * scale, p.y * scale))
        .collect();
    oracle(
        format!("grid-x{scale:e}"),
        truth,
        f64::INFINITY,
        &[0, 4, 20],
    )
}

/// The fifteen problems of the degenerate corpus.
fn corpus() -> Vec<Problem> {
    let mut rng = rl_math::rng::seeded(15);
    let line: Vec<Point2> = (0..50).map(|i| Point2::new(i as f64 * 9.0, 0.0)).collect();
    let two_components: Vec<Point2> = grid(4, 4, 9.0)
        .into_iter()
        .chain(
            grid(4, 4, 9.0)
                .into_iter()
                .map(|p| Point2::new(p.x + 1_000.0, p.y)),
        )
        .collect();
    let garbage = {
        let truth = grid(5, 5, 9.0);
        let mut set = MeasurementSet::oracle(&truth, 22.0);
        let pairs: Vec<(NodeId, NodeId, f64)> = set.iter().collect();
        for (a, b, _) in pairs {
            set.insert(a, b, 60.0 * rng.random::<f64>());
        }
        problem("garbage-U(0,60m)", truth, set, &[0, 4, 20])
    };
    let heavy = {
        let truth = grid(5, 5, 9.0);
        let mut set = MeasurementSet::new(truth.len());
        for (a, b, d) in MeasurementSet::oracle(&truth, 22.0).iter() {
            set.insert_weighted(a, b, d, 1e300);
        }
        problem("weights-1e300", truth, set, &[0, 4, 20])
    };
    let far_node = {
        let mut truth = grid(5, 5, 9.0);
        truth.push(Point2::new(1e300, 0.0));
        let mut set = MeasurementSet::oracle(&truth, 22.0);
        set.insert(NodeId(4), NodeId(25), truth[25].distance(truth[4]));
        problem("node-at-1e300m", truth, set, &[0, 4, 20])
    };
    let star = {
        let truth: Vec<Point2> = std::iter::once(Point2::ORIGIN)
            .chain((0..30).map(|k| {
                let angle = std::f64::consts::TAU * k as f64 / 30.0;
                Point2::new(20.0 * angle.cos(), 20.0 * angle.sin())
            }))
            .collect();
        let mut set = MeasurementSet::new(truth.len());
        for leaf in 1..truth.len() {
            set.insert(NodeId(0), NodeId(leaf), 20.0);
        }
        problem("star-31", truth, set, &[0, 1, 11, 21])
    };
    let zigzag: Vec<Point2> = (0..300)
        .map(|i| Point2::new(i as f64 * 4.0, if i % 2 == 0 { 0.0 } else { 6.0 }))
        .collect();
    let co_located = vec![Point2::new(3.0, 4.0); 20];
    vec![
        oracle("line-50", line, 22.0, &[0, 10, 20, 30]),
        oracle("co-located-20", co_located, 22.0, &[0, 1, 2]),
        oracle(
            "two-components-1km",
            two_components,
            22.0,
            &[0, 3, 12, 16, 19],
        ),
        scaled_grid(1e150),
        scaled_grid(1e-150),
        garbage,
        heavy,
        far_node,
        oracle("n=1", vec![Point2::ORIGIN], 22.0, &[]),
        oracle("n=2", grid(2, 1, 9.0), 22.0, &[0]),
        oracle("n=3", grid(3, 1, 9.0), 22.0, &[0, 1, 2]),
        star,
        oracle("zigzag-300", zigzag, 8.0, &[0, 150, 299]),
        zero_measurements(),
        collinear_anchors(),
    ]
}

#[test]
fn all_families_survive_the_degenerate_corpus() {
    let corpus = corpus();
    assert_eq!(corpus.len(), 15);
    for problem in &corpus {
        assert_no_panic_no_nan(problem, problem.name());
    }
}

/// The 5x5 grid of [`scaled_grid`] and a random 25-node layout over the
/// same 36 m square, every coordinate multiplied by `2^k`, every pair
/// measured exactly.
fn scaled_layouts(k: i32, layout: &[(f64, f64)]) -> [Problem; 2] {
    let scale = 2f64.powi(k);
    let random: Vec<Point2> = layout
        .iter()
        .map(|&(x, y)| Point2::new(x * scale, y * scale))
        .collect();
    [
        scaled_grid(scale),
        oracle(format!("random-x2^{k}"), random, f64::INFINITY, &[0, 4, 20]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scale is free across the whole `f64` range: at `2^k` m the rigid
    /// fit recovers a hidden rotation, reflection and shift, and MDS-MAP
    /// places every node, each within 1e-12 of the 9 m spacing scaled.
    /// Every family either answers with finite positions or refuses with
    /// a typed error.
    #[test]
    fn the_fit_and_mds_map_are_exact_at_every_power_of_two_scale(
        k in -1000i32..=1000,
        layout in proptest::collection::vec((0.0f64..36.0, 0.0f64..36.0), 25),
        angle in 0.0f64..std::f64::consts::TAU,
        shift in (-50.0f64..50.0, -50.0f64..50.0),
    ) {
        let spacing = 9.0 * 2f64.powi(k);
        for problem in scaled_layouts(k, &layout) {
            let truth = problem.truth().expect("the layouts carry truth");
            let hidden = RigidTransform::new(
                angle,
                true,
                Vec2::new(shift.0 * 2f64.powi(k), shift.1 * 2f64.powi(k)),
            );
            let moved: Vec<Point2> = truth.iter().map(|&p| hidden.apply(p)).collect();
            let fit = fit_rigid_transform(truth, &moved, true).expect("the fit succeeds");
            prop_assert!(fit.rmse <= 1e-12 * spacing, "{}: rmse {:e}", problem.name(), fit.rmse);
            let solution = MdsMapLocalizer::new()
                .localize(&problem, &mut rl_math::rng::seeded(1))
                .unwrap_or_else(|e| panic!("{}: {e}", problem.name()));
            let eval = evaluate_against_truth(solution.positions(), truth).expect("evaluates");
            prop_assert!(
                eval.max_error <= 1e-12 * spacing,
                "{}: MDS-MAP max error {:e}",
                problem.name(),
                eval.max_error
            );
            assert_no_panic_no_nan(&problem, problem.name());
        }
    }
}

/// Nodes in the graphs and systems of the kernel sweep below.
const KERNEL_N: usize = 12;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Shortest paths commute with every power-of-two scale: each cost is
    /// a sum of weights, and a power of two rescales a normal sum
    /// exactly, so the distances over weights times `2^k` are the
    /// unscaled distances times `2^k`, bit for bit (unreachable nodes stay
    /// infinite).
    #[test]
    fn dijkstra_distances_scale_exactly_with_the_weights(
        k in -1000i32..=1000,
        edges in proptest::collection::vec((0usize..KERNEL_N, 0usize..KERNEL_N, 0.5f64..40.0), 0..=40),
    ) {
        use rl_math::sparse::{dijkstra_into, CsrMatrix, DijkstraWorkspace};
        let scale = 2f64.powi(k);
        let scaled: Vec<_> = edges.iter().map(|&(i, j, w)| (i, j, w * scale)).collect();
        let graph = CsrMatrix::symmetric_from_edges(KERNEL_N, &edges).expect("valid edges");
        let scaled = CsrMatrix::symmetric_from_edges(KERNEL_N, &scaled).expect("valid edges");
        let ws = &mut DijkstraWorkspace::new();
        let (mut unit, mut big) = (vec![0.0; KERNEL_N], vec![0.0; KERNEL_N]);
        for source in 0..KERNEL_N {
            dijkstra_into(&graph, source, &mut unit, ws);
            dijkstra_into(&scaled, source, &mut big, ws);
            for (d, s) in unit.iter().zip(&big) {
                prop_assert_eq!((d * scale).to_bits(), s.to_bits(), "source {}: {} vs {}", source, d, s);
            }
        }
    }

    /// Conjugate gradient is linear in the right-hand side at every scale
    /// whose squared residuals stay normal `f64`s: `b` times `2^k`
    /// solves to the unscaled solution times `2^k`, within 1e-12
    /// relative. Below about `2^-500` the squared norms underflow: the
    /// solve first loses accuracy, then silently returns zeros. Above
    /// about `2^509` they overflow into a typed breakdown. Neither end
    /// is swept here until CG is scale-free.
    #[test]
    fn cg_solutions_scale_with_the_right_hand_side(
        k in -450i32..=450,
        off in proptest::collection::vec(-1.0f64..1.0, KERNEL_N * KERNEL_N),
        b in proptest::collection::vec(0.5f64..4.0, KERNEL_N),
    ) {
        use rl_math::sparse::cg::{conjugate_gradient, CgConfig};
        // Symmetric and strictly diagonally dominant, so positive definite.
        let entry = |i: usize, j: usize| off[i.min(j) * KERNEL_N + i.max(j)];
        let dominance = |i: usize| (0..KERNEL_N).filter(|&j| j != i).map(|j| entry(i, j).abs()).sum::<f64>();
        let a = rl_math::DMatrix::from_fn(KERNEL_N, KERNEL_N, |i, j| {
            if i == j { 1.0 + dominance(i) } else { entry(i, j) }
        });
        let scale = 2f64.powi(k);
        let config = CgConfig::default();
        let unit = conjugate_gradient(&a, &b, &config).expect("the unit solve converges");
        let scaled_b: Vec<f64> = b.iter().map(|v| v * scale).collect();
        let scaled = conjugate_gradient(&a, &scaled_b, &config).expect("the scaled solve converges");
        let size = unit.x.iter().fold(0.0f64, |m, v| m.max(v.abs())) * scale;
        for (u, s) in unit.x.iter().zip(&scaled.x) {
            prop_assert!((u * scale - s).abs() <= 1e-12 * size, "2^{}: {:e} vs {:e}", k, u * scale, s);
        }
    }
}

/// MDS-MAP's pairwise distances on `problem`, row-major over every pair
/// `i < j`.
fn mds_map_pair_distances(problem: &Problem) -> Vec<f64> {
    let solution = MdsMapLocalizer::new()
        .localize(problem, &mut rl_math::rng::seeded(1))
        .unwrap_or_else(|e| panic!("{}: {e}", problem.name()));
    let positions = solution.positions();
    let n = problem.node_count();
    let point = |i: usize| {
        positions
            .get(NodeId(i))
            .expect("MDS-MAP localizes every node")
    };
    (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .map(|(i, j)| point(i).distance(point(j)))
        .collect()
}

/// MDS-MAP embeds a grid at 1e150 m and at 1e-150 m as it embeds the
/// same grid in meters: within 1e-12 relative of the meter grid's own
/// pair distances, scaled (they read ~1.6e-15). Against the truth the
/// bound is 1e-7: the iterative eigensolve stops at a 1e-8 residual, and
/// the meter grid itself reads 4.9e-8.
#[test]
fn mds_map_localizes_grids_at_1e150_and_1e_minus_150_m() {
    let reference = mds_map_pair_distances(&scaled_grid(1.0));
    for scale in [1e150, 1e-150] {
        let problem = scaled_grid(scale);
        let truth = problem.truth().expect("the corpus carries truth");
        let n = truth.len();
        let want = (0..n).flat_map(|i| ((i + 1)..n).map(move |j| truth[i].distance(truth[j])));
        let got = mds_map_pair_distances(&problem);
        for ((got, want), meters) in got.into_iter().zip(want).zip(&reference) {
            assert!(
                (got - want).abs() <= 1e-7 * want,
                "x{scale:e}: {got:e} vs true {want:e}"
            );
            let unscaled = got / scale;
            assert!(
                (unscaled - meters).abs() <= 1e-12 * meters,
                "x{scale:e}: {unscaled} vs {meters} in meters"
            );
        }
    }
}

/// A grid at 1e-150 m, whose squared spread (~1e-296) used to read as
/// "all points coincide", gets a rigid fit, and MDS-MAP's estimate of it
/// evaluates to within 1e-7 of its spacing.
#[test]
fn a_grid_at_1e_minus_150_m_fits_and_evaluates() {
    let problem = scaled_grid(1e-150);
    let truth = problem.truth().expect("the corpus carries truth");
    let hidden = RigidTransform::new(0.8, true, Vec2::new(3e-150, -1e-150));
    let moved: Vec<Point2> = truth.iter().map(|&p| hidden.apply(p)).collect();
    let fit = fit_rigid_transform(truth, &moved, true).expect("the fit succeeds");
    assert!(fit.rmse <= 1e-12 * 9e-150, "rmse {:e}", fit.rmse);
    let solution = MdsMapLocalizer::new()
        .localize(&problem, &mut rl_math::rng::seeded(1))
        .expect("MDS-MAP localizes the grid");
    let eval = evaluate_against_truth(solution.positions(), truth).expect("evaluates");
    assert!(
        eval.max_error <= 1e-7 * 9e-150,
        "max error {:e}",
        eval.max_error
    );
}
