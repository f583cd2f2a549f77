//! Dense ↔ sparse backend parity, end to end.
//!
//! The sparse backend (`rl_math::sparse` + the solver paths built on it)
//! exists to make metro-scale problems tractable, **not** to change any
//! answer. These tests pin that contract at the integration level:
//!
//! * the CSR Dijkstra completion reproduces a brute-force Bellman–Ford
//!   fixed point bit for bit on a real measurement graph,
//! * sparse-path MDS-MAP embeds a town-scale scenario into the same
//!   geometry as the dense Jacobi path (compared via pairwise distances,
//!   which are invariant to the eigenvector sign/rotation ambiguity),
//! * sparse-path LSS reproduces the dense path **bit for bit** on a
//!   fixed-seed town-scale solve — the Verlet-list constraint evaluates
//!   the identical objective, so the whole descent trajectory matches,
//! * the LSS objective backends agree on value and gradient along
//!   random trajectories that reuse and rebuild the sparse backend's
//!   cached candidate list (property test).

use proptest::prelude::*;
use resilient_localization::prelude::*;
use rl_core::lss::{LssConfig, LssObjective, LssSolver, SoftConstraint};
use rl_core::mds::mdsmap_coordinates_with;
use rl_core::SolverBackend;
use rl_math::gradient::Objective;
use rl_math::sparse::{dijkstra, CsrMatrix};
use rl_net::NodeId as NetNodeId;

/// The town-scale measurement graph every end-to-end test runs on: the
/// paper's 59-node town under its synthetic 22 m / N(0, 0.33 m) model.
fn town_measurements() -> (Vec<Point2>, MeasurementSet) {
    let scenario = rl_deploy::Scenario::town(7);
    let problem = scenario.instantiate(7);
    (
        problem.truth().expect("scenario carries truth").to_vec(),
        problem.measurements().clone(),
    )
}

/// Brute-force single-source shortest paths: Bellman–Ford relaxation
/// of every edge in both directions until nothing changes. The fixed
/// point holds, for each node, the least left-to-right float sum over
/// all paths from `source` — the same value Dijkstra settles on.
fn bellman_ford(n: usize, edges: &[(usize, usize, f64)], source: usize) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; n];
    dist[source] = 0.0;
    let mut changed = true;
    while changed {
        changed = false;
        for &(a, b, w) in edges {
            for (from, to) in [(a, b), (b, a)] {
                let cand = dist[from] + w;
                if cand < dist[to] {
                    dist[to] = cand;
                    changed = true;
                }
            }
        }
    }
    dist
}

#[test]
fn csr_dijkstra_matches_bellman_ford_on_town_graph() {
    let (_, set) = town_measurements();
    let n = set.node_count();
    let edges: Vec<(usize, usize, f64)> = set
        .iter()
        .map(|(a, b, d)| (a.index(), b.index(), d))
        .collect();
    let adjacency = CsrMatrix::symmetric_from_edges(n, &edges).unwrap();

    for src in 0..n {
        let reference = bellman_ford(n, &edges, src);
        let sparse = dijkstra(&adjacency, src);
        for (j, (s, r)) in sparse.iter().zip(&reference).enumerate() {
            assert_eq!(
                s.to_bits(),
                r.to_bits(),
                "distance {src}->{j}: dijkstra {s} vs bellman-ford {r}"
            );
        }
    }
}

#[test]
fn sparse_mdsmap_embeds_the_town_like_the_dense_path() {
    let (truth, set) = town_measurements();
    let dense = mdsmap_coordinates_with(&set, SolverBackend::Dense).unwrap();
    let sparse = mdsmap_coordinates_with(&set, SolverBackend::Sparse).unwrap();
    assert_eq!(dense.len(), sparse.len());

    // Pairwise distances are invariant to the eigenvector sign /
    // degenerate-rotation ambiguity between the two eigensolvers.
    let scale: f64 = dense
        .iter()
        .flat_map(|a| dense.iter().map(move |b| a.distance(*b)))
        .fold(1.0, f64::max);
    for i in 0..dense.len() {
        for j in (i + 1)..dense.len() {
            let dd = dense[i].distance(dense[j]);
            let ds = sparse[i].distance(sparse[j]);
            assert!(
                (dd - ds).abs() < 1e-5 * scale,
                "pair {i}-{j}: dense {dd} vs sparse {ds}"
            );
        }
    }

    // Both embeddings evaluate identically against ground truth.
    let dense_eval = evaluate_against_truth(&PositionMap::complete(dense), &truth).unwrap();
    let sparse_eval = evaluate_against_truth(&PositionMap::complete(sparse), &truth).unwrap();
    assert!(
        (dense_eval.mean_error - sparse_eval.mean_error).abs() < 1e-4,
        "dense {} vs sparse {}",
        dense_eval.mean_error,
        sparse_eval.mean_error
    );
}

#[test]
fn sparse_lss_reproduces_the_dense_solve_bit_for_bit() {
    let (_, set) = town_measurements();
    // A short fixed-seed solve is enough: bitwise equality of the whole
    // trajectory either holds from the first accepted step or not at all.
    let config = |backend| {
        LssConfig::default()
            .with_min_spacing(9.14, 10.0)
            .with_backend(backend)
            .with_descent(rl_math::DescentConfig {
                max_iterations: 600,
                restarts: 4,
                ..LssConfig::default().descent
            })
    };
    let solve = |backend| {
        let mut rng = rl_math::rng::seeded(99);
        LssSolver::new(config(backend))
            .solve(&set, &mut rng)
            .expect("town graph is solvable")
    };
    let dense = solve(SolverBackend::Dense);
    let sparse = solve(SolverBackend::Sparse);

    assert_eq!(dense.stress().to_bits(), sparse.stress().to_bits());
    assert_eq!(dense.iterations(), sparse.iterations());
    assert_eq!(dense.converged(), sparse.converged());
    for (a, b) in dense.coordinates().iter().zip(sparse.coordinates()) {
        assert_eq!(a.x.to_bits(), b.x.to_bits(), "x coordinates diverged");
        assert_eq!(a.y.to_bits(), b.y.to_bits(), "y coordinates diverged");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The two constraint backends evaluate the identical objective for
    /// arbitrary sparse graphs and arbitrary (even far-from-plausible)
    /// configurations: same value bits, same gradient bits, same active
    /// constraint count.
    ///
    /// One sparse objective is reused along a whole trajectory, so its
    /// cached Verlet list (2 m skin) is exercised both ways: jiggles under
    /// half the skin reuse it, jumps past it and a non-finite probe
    /// rebuild it, and the walk ends back at the start. Every point is
    /// checked against a fresh dense objective.
    #[test]
    fn lss_objective_backends_agree_bitwise(
        pts in proptest::collection::vec((-40.0f64..40.0, -40.0f64..40.0), 4..10),
        edges in proptest::collection::vec((0usize..10, 0usize..10), 2..18),
        x0 in proptest::collection::vec(-50.0f64..50.0, 20),
        d_min in 3.0f64..12.0,
        walk in proptest::collection::vec((0usize..10, -1.5f64..1.5, -1.5f64..1.5), 1..12),
        jiggle in proptest::collection::vec(-0.35f64..0.35, 20),
        jump in (0usize..10, 2.0f64..15.0),
        probe in (0usize..20, 0usize..3),
        approach in (0usize..10, 0usize..10, 0.3f64..0.9),
    ) {
        let n = pts.len();
        let mut set = MeasurementSet::new(n);
        for &(a, b) in &edges {
            if a == b || a >= n || b >= n {
                continue;
            }
            let pa = Point2::new(pts[a].0, pts[a].1);
            let pb = Point2::new(pts[b].0, pts[b].1);
            let d = pa.distance(pb);
            if d > 1e-6 {
                set.insert(NetNodeId(a), NetNodeId(b), d);
            }
        }
        let soft = Some(SoftConstraint {
            min_spacing_m: d_min,
            weight: 10.0,
        });
        let x: Vec<f64> = x0.iter().take(2 * n).copied().collect();
        prop_assume!(x.len() == 2 * n);

        // The trajectory: start, a jiggle of every node (each move under
        // 0.5 m, so the list is reused), a random walk of single-node
        // steps that cross the skin at random, one node approaching
        // another, a jump of one node, a non-finite probe, and the start
        // again.
        let mut points = vec![x.clone()];
        points.push(x.iter().zip(&jiggle).map(|(a, d)| a + d).collect());
        let mut cur = x.clone();
        for &(node, dx, dy) in &walk {
            let node = node % n;
            cur[node] += dx;
            cur[n + node] += dy;
            points.push(cur.clone());
        }
        // One node walks straight at another in steps under half the
        // skin, from far outside d_min to well inside it: the pair must
        // turn into a violator through reused and rebuilt lists alike.
        let (a, b) = (approach.0 % n, approach.1 % n);
        if a != b {
            for _ in 0..200 {
                let (dx, dy) = (cur[b] - cur[a], cur[n + b] - cur[n + a]);
                let gap = dx.hypot(dy);
                if gap < 0.5 * d_min {
                    break;
                }
                cur[a] += approach.2 * dx / gap;
                cur[n + a] += approach.2 * dy / gap;
                points.push(cur.clone());
            }
        }
        let mut jumped = cur.clone();
        jumped[jump.0 % n] += jump.1;
        points.push(jumped);
        let mut wild = x.clone();
        wild[probe.0 % (2 * n)] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][probe.1];
        points.push(wild);
        points.push(x.clone());

        let sparse = LssObjective::with_backend(&set, soft, SolverBackend::Sparse);
        let mut gd = vec![0.0; 2 * n];
        let mut gs = vec![0.0; 2 * n];
        for p in &points {
            let dense = LssObjective::with_backend(&set, soft, SolverBackend::Dense);
            prop_assert_eq!(dense.value(p).to_bits(), sparse.value(p).to_bits());
            dense.gradient(p, &mut gd);
            sparse.gradient(p, &mut gs);
            for (a, b) in gd.iter().zip(&gs) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(dense.active_constraints(p), sparse.active_constraints(p));
        }
    }
}
