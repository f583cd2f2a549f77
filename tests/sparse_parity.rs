//! The sparse kernels against brute-force references, end to end.
//!
//! The sparse paths (`rl_math::sparse` + the solver paths built on it)
//! exist to make metro-scale problems tractable, **not** to change any
//! answer. This test pins that contract at the integration level: the
//! CSR Dijkstra completion reproduces a brute-force Bellman–Ford fixed
//! point bit for bit on a real measurement graph. (The LSS objective's
//! property test against a scan of the whole complement lives with its
//! oracle in `rl_core::lss::error_fn`'s unit tests.)

use rl_math::sparse::{dijkstra, CsrMatrix};

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
