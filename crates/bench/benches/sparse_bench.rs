//! Dense-vs-sparse backend wall times on the town → metro ladder.
//!
//! Two head-to-heads, one per refactored solver family:
//!
//! * **MDS-MAP**: full dense path (Topology shortest paths + `O(n³)`
//!   Jacobi on the double-centered matrix) versus the sparse path (CSR
//!   Dijkstra + implicit centering operator + iterative top-2
//!   eigensolver).
//! * **LSS objective**: one stress value + gradient evaluation with the
//!   soft constraint on the dense backend (materialized `O(n²)`
//!   complement scan) versus the sparse backend (Verlet candidate
//!   list; repeated evaluations at one configuration reuse it, as most
//!   descent steps do).
//!
//! The dense rungs stop at 500 nodes — at 1000 the dense MDS-MAP
//! eigendecomposition alone runs for minutes, which is precisely the
//! wall the sparse backend removes; the sparse paths are additionally
//! timed at the full metro-1000 rung. Expect the dense/sparse ratio to
//! widen with every rung (the asymptotic gap: O(n³) vs ~O(n² · k) for
//! MDS-MAP, O(n²) vs O(n + edges + active) per LSS evaluation).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rl_core::lss::{LssObjective, SoftConstraint};
use rl_core::mds::mdsmap_coordinates_with;
use rl_core::problem::{Problem, SolverBackend};
use rl_deploy::Scenario;
use rl_math::gradient::Objective;

const SEED: u64 = 2005;

/// The ladder rungs both backends are timed on.
fn ladder() -> Vec<(&'static str, Problem)> {
    vec![
        ("town59", Scenario::town(SEED).instantiate(SEED)),
        (
            "metro250",
            Scenario::metro_sized(250, 0.10, SEED).instantiate(SEED),
        ),
        (
            "metro500",
            Scenario::metro_sized(500, 0.10, SEED).instantiate(SEED),
        ),
    ]
}

const BACKENDS: [(&str, SolverBackend); 2] = [
    ("dense", SolverBackend::Dense),
    ("sparse", SolverBackend::Sparse),
];

fn bench_mdsmap_backends(c: &mut Criterion) {
    for (label, problem) in ladder() {
        for (bname, backend) in BACKENDS {
            c.bench_function(&format!("mdsmap/{label}_{bname}"), |b| {
                b.iter(|| {
                    black_box(
                        mdsmap_coordinates_with(problem.measurements(), backend)
                            .expect("ladder graphs are connected"),
                    )
                })
            });
        }
    }
    // Sparse-only headroom rungs: the dense path at these sizes is the
    // minutes-long wall the backend exists to remove. The 2500 rung is
    // the multi-source-Dijkstra / blocked-eigensolver stress tier that
    // `smoke sparse` wall-gates in CI.
    for (label, nodes) in [("metro1000", 1000), ("metro2500", 2500)] {
        let problem = Scenario::metro_sized(nodes, 0.10, SEED).instantiate(SEED);
        c.bench_function(&format!("mdsmap/{label}_sparse"), |b| {
            b.iter(|| {
                black_box(
                    mdsmap_coordinates_with(problem.measurements(), SolverBackend::Sparse)
                        .expect("metro graphs are connected"),
                )
            })
        });
    }
}

/// Flattens ground truth into the `[x.. , y..]` configuration layout.
fn truth_configuration(problem: &Problem) -> Vec<f64> {
    let truth = problem.truth().expect("scenario problems carry truth");
    let n = truth.len();
    let mut x = vec![0.0; 2 * n];
    for (i, p) in truth.iter().enumerate() {
        x[i] = p.x;
        x[n + i] = p.y;
    }
    x
}

fn bench_lss_objective_backends(c: &mut Criterion) {
    let soft = Some(SoftConstraint {
        min_spacing_m: 9.14,
        weight: 10.0,
    });
    for (label, problem) in ladder() {
        let x = truth_configuration(&problem);
        for (bname, backend) in BACKENDS {
            let obj = LssObjective::with_backend(problem.measurements(), soft, backend);
            let mut grad = vec![0.0; x.len()];
            c.bench_function(&format!("lss_objective/{label}_{bname}"), |b| {
                b.iter(|| {
                    let value = obj.value(&x);
                    obj.gradient(&x, &mut grad);
                    black_box((value, grad.last().copied()));
                })
            });
        }
    }
    let metro1000 = Scenario::metro(SEED).instantiate(SEED);
    let x = truth_configuration(&metro1000);
    let obj = LssObjective::with_backend(metro1000.measurements(), soft, SolverBackend::Sparse);
    let mut grad = vec![0.0; x.len()];
    c.bench_function("lss_objective/metro1000_sparse", |b| {
        b.iter(|| {
            let value = obj.value(&x);
            obj.gradient(&x, &mut grad);
            black_box((value, grad.last().copied()));
        })
    });
}

criterion_group!(benches, bench_mdsmap_backends, bench_lss_objective_backends);
criterion_main!(benches);
