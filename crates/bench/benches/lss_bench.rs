//! Criterion benches behind Figures 17-23: the LSS stress function, its
//! gradient, and end-to-end solves with and without the soft constraint.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rl_core::lss::{InitStrategy, LssConfig, LssObjective, LssSolver, SoftConstraint};
use rl_geom::Point2;
use rl_math::gradient::Objective;
use rl_ranging::channel::RangingChannel;
use rl_ranging::measurement::MeasurementSet;

fn grid_set(n_side: usize) -> (Vec<Point2>, MeasurementSet) {
    let truth: Vec<Point2> = (0..n_side * n_side)
        .map(|i| Point2::new((i % n_side) as f64 * 9.144, (i / n_side) as f64 * 9.144))
        .collect();
    let set = RangingChannel::paper().measure_all(&truth, &mut rl_math::rng::seeded(1));
    (truth, set)
}

fn bench_objective(c: &mut Criterion) {
    let (truth, set) = grid_set(7);
    let obj = LssObjective::new(
        &set,
        Some(SoftConstraint {
            min_spacing_m: 9.14,
            weight: 10.0,
        }),
    );
    let n = truth.len();
    let mut x = vec![0.0; 2 * n];
    for (i, p) in truth.iter().enumerate() {
        x[i] = p.x + 0.5;
        x[n + i] = p.y - 0.5;
    }
    let mut grad = vec![0.0; 2 * n];
    c.bench_function("lss/stress_49_nodes", |b| {
        b.iter(|| black_box(obj.value(black_box(&x))))
    });
    c.bench_function("lss/gradient_49_nodes", |b| {
        b.iter(|| {
            obj.gradient(black_box(&x), &mut grad);
            black_box(grad[0])
        })
    });
}

fn bench_solve(c: &mut Criterion) {
    let (_, set) = grid_set(4);
    // Warm-started solve isolates descent speed from restart luck.
    let config = LssConfig::default()
        .with_min_spacing(9.14, 10.0)
        .with_init(InitStrategy::MdsMap);
    let solver = LssSolver::new(config);
    c.bench_function("lss/solve_4x4_mdsmap_init", |b| {
        let mut rng = rl_math::rng::seeded(2);
        b.iter(|| black_box(solver.solve(&set, &mut rng).unwrap()))
    });

    let unconstrained = LssSolver::new(LssConfig::default().with_init(InitStrategy::MdsMap));
    c.bench_function("lss/solve_4x4_unconstrained", |b| {
        let mut rng = rl_math::rng::seeded(3);
        b.iter(|| black_box(unconstrained.solve(&set, &mut rng).unwrap()))
    });
}

criterion_group!(benches, bench_objective, bench_solve);
criterion_main!(benches);
