//! The sparse kernels against brute-force references, end to end.
//!
//! The sparse paths (`rl_math::sparse` + the solver paths built on it)
//! exist to make metro-scale problems tractable, **not** to change any
//! answer. These tests pin that contract at the integration level:
//!
//! * the CSR Dijkstra completion reproduces a brute-force Bellman–Ford
//!   fixed point bit for bit on a real measurement graph,
//! * the LSS objective, whose soft constraint reads a cached Verlet
//!   candidate list, reproduces a scan of the whole complement bit for
//!   bit on value, gradient and active count, along random trajectories
//!   that reuse and rebuild the list (property test).

use proptest::prelude::*;
use resilient_localization::prelude::*;
use rl_core::lss::{LssObjective, SoftConstraint};
use rl_math::gradient::Objective;
use rl_math::sparse::{dijkstra, CsrMatrix};
use rl_net::NodeId as NetNodeId;

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

/// The LSS objective's reference: the unconstrained objective plus an
/// `i < j` scan of the whole complement of the measurement graph, with
/// the objective's own distance expression and gradient guard. Returns
/// value, gradient and active-constraint count.
fn complement_scan(
    set: &MeasurementSet,
    soft: SoftConstraint,
    x: &[f64],
) -> (f64, Vec<f64>, usize) {
    let plain = LssObjective::new(set, None);
    let n = set.node_count();
    let mut value = plain.value(x);
    let mut grad = vec![0.0; x.len()];
    plain.gradient(x, &mut grad);
    let mut active = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let (dx, dy) = (x[i] - x[j], x[n + i] - x[n + j]);
            let dist = (dx.powi(2) + dy.powi(2)).sqrt();
            if set.contains(NetNodeId(i), NetNodeId(j)) || !(dist < soft.min_spacing_m) {
                continue;
            }
            active += 1;
            let diff = dist - soft.min_spacing_m;
            value += soft.weight * diff * diff;
            let dc = dist.max(1e-9);
            let factor = 2.0 * soft.weight * (dc - soft.min_spacing_m) / dc;
            grad[i] += factor * dx;
            grad[j] -= factor * dx;
            grad[n + i] += factor * dy;
            grad[n + j] -= factor * dy;
        }
    }
    (value, grad, active)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The objective equals the complement scan for arbitrary sparse
    /// graphs and arbitrary (even far-from-plausible) configurations:
    /// same value bits, same gradient bits, same active constraint count.
    ///
    /// One objective is reused along a whole trajectory, so its cached
    /// Verlet list (2 m skin) is exercised both ways: jiggles under half
    /// the skin reuse it, jumps past it and a non-finite probe rebuild
    /// it, and the walk ends back at the start. Every point is checked
    /// against the scan.
    #[test]
    fn lss_objective_matches_the_complement_scan_bitwise(
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
        let soft = SoftConstraint {
            min_spacing_m: d_min,
            weight: 10.0,
        };
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

        let objective = LssObjective::new(&set, Some(soft));
        let mut grad = vec![0.0; 2 * n];
        for p in &points {
            let (value, expected, active) = complement_scan(&set, soft, p);
            prop_assert_eq!(objective.value(p).to_bits(), value.to_bits());
            objective.gradient(p, &mut grad);
            for (a, b) in grad.iter().zip(&expected) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(objective.active_constraints(p), active);
        }
    }
}
