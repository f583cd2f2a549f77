//! The sparse kernels against brute-force references, end to end.
//!
//! The sparse paths (`rl_math::sparse` + the solver paths built on it)
//! exist to make metro-scale problems tractable, **not** to change any
//! answer. This test pins that contract at the integration level: the
//! CSR Dijkstra completion reproduces a brute-force Bellman–Ford fixed
//! point bit for bit on a real measurement graph, and the LSS objective's
//! one-pass evaluation reproduces a two-pass brute-force stress, gradient
//! and complement scan along a descent on that graph. (The LSS
//! objective's property test against a scan of the whole complement
//! lives with its oracle in `rl_core::lss::error_fn`'s unit tests.)

use rl_core::lss::{LssObjective, SoftConstraint};
use rl_math::gradient::Objective;
use rl_math::sparse::{dijkstra, CsrMatrix};
use rl_net::NodeId;
use rl_ranging::measurement::MeasurementSet;

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
    // The paper's 59-node town under its synthetic 22 m / N(0, 0.33 m)
    // model.
    let problem = rl_deploy::Scenario::town(7).instantiate(7);
    let set = problem.measurements();
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

/// The LSS stress and its gradient by brute force, in two passes as the
/// objective once computed them: the measured pairs, then every
/// unmeasured pair `i < j` closer than `d_min`.
fn brute_force_stress(
    set: &MeasurementSet,
    soft: Option<SoftConstraint>,
    x: &[f64],
) -> (f64, Vec<f64>) {
    let n = set.node_count();
    let offset = |i: usize, j: usize| {
        let (dx, dy) = (x[i] - x[j], x[n + i] - x[n + j]);
        (dx, dy, (dx * dx + dy * dy).sqrt())
    };
    let mut terms = Vec::new();
    for (a, b, d, w) in set.iter_weighted() {
        terms.push((a.index(), b.index(), d, w));
    }
    if let Some(soft) = soft {
        for i in 0..n {
            for j in (i + 1)..n {
                if !set.contains(NodeId(i), NodeId(j)) && offset(i, j).2 < soft.min_spacing_m {
                    terms.push((i, j, soft.min_spacing_m, soft.weight));
                }
            }
        }
    }
    let mut value = 0.0;
    for &(i, j, target, w) in &terms {
        let dc = offset(i, j).2;
        value += w * (dc - target) * (dc - target);
    }
    let mut grad = vec![0.0; 2 * n];
    for &(i, j, target, w) in &terms {
        let (dx, dy, dist) = offset(i, j);
        let dc = dist.max(1e-9);
        let factor = 2.0 * w * (dc - target) / dc;
        grad[i] += factor * dx;
        grad[j] -= factor * dx;
        grad[n + i] += factor * dy;
        grad[n + j] -= factor * dy;
    }
    (value, grad)
}

#[test]
fn lss_objective_matches_a_two_pass_brute_force_along_a_descent() {
    let problem = rl_deploy::Scenario::town(7).instantiate(7);
    let set = problem.measurements();
    let n = set.node_count();
    let truth = problem.truth().expect("town has truth");
    // A start 2-3 m off the truth, folded so the constraint has
    // violators to push apart.
    let mut start = vec![0.0; 2 * n];
    for (k, p) in truth.iter().enumerate() {
        start[k] = 0.6 * p.x + 3.0 * (k as f64 * 0.7).sin();
        start[n + k] = 0.6 * p.y + 3.0 * (k as f64 * 1.3).cos();
    }
    let soft = SoftConstraint {
        min_spacing_m: 9.14,
        weight: 10.0,
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for soft in [Some(soft), None] {
        let objective = LssObjective::new(set, soft);
        let mut x = start.clone();
        let mut grad = vec![0.0; 2 * n];
        let mut violations = 0;
        // Short steps leave every node inside the Verlet list's reach and
        // reuse it; every fifth step is long enough to rebuild it.
        for step in 0..40 {
            let value = objective.evaluate(&x, &mut grad);
            let (want_value, want_grad) = brute_force_stress(set, soft, &x);
            assert_eq!(value.to_bits(), want_value.to_bits(), "value, step {step}");
            assert_eq!(bits(&grad), bits(&want_grad), "gradient, step {step}");
            violations += objective.active_constraints(&x);
            let gmax = grad.iter().fold(0.0f64, |m, g| m.max(g.abs()));
            let reach = if step % 5 == 4 { 3.0 } else { 0.2 };
            for (xi, g) in x.iter_mut().zip(&grad) {
                *xi -= reach * g / gmax;
            }
        }
        assert_eq!(violations > 0, soft.is_some(), "{violations} violations");
    }
}
