//! Criterion benches behind Figures 11-16 and 20: single-node least
//! squares, the intersection consistency check, and full network solves.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rl_core::multilateration::{
    IntersectionConsistency, MultilaterationConfig, MultilaterationSolver, RangeToAnchor,
};
use rl_core::types::Anchor;
use rl_deploy::Scenario;
use rl_geom::Point2;
use rl_ranging::channel::RangingChannel;

fn observations() -> Vec<RangeToAnchor> {
    let node = Point2::new(5.0, 5.0);
    [
        (0.0, 0.0),
        (10.0, 0.0),
        (0.0, 10.0),
        (10.0, 10.0),
        (5.0, -5.0),
        (-5.0, 5.0),
    ]
    .iter()
    .map(|&(x, y)| RangeToAnchor {
        anchor: Point2::new(x, y),
        distance: Point2::new(x, y).distance(node) + 0.1,
        weight: 1.0,
    })
    .collect()
}

fn bench_consistency(c: &mut Criterion) {
    let obs = observations();
    let check = IntersectionConsistency::default();
    c.bench_function("multilateration/intersection_check_6anchors", |b| {
        b.iter(|| black_box(check.filter(black_box(&obs))))
    });
    c.bench_function("multilateration/mode_of_intersections", |b| {
        b.iter(|| black_box(check.mode_of_intersections(black_box(&obs))))
    });
}

fn bench_solve(c: &mut Criterion) {
    let scenario = Scenario::town(1);
    let truth = &scenario.deployment.positions;
    let set = RangingChannel::paper().measure_all(truth, &mut rl_math::rng::seeded(2));
    let anchors = Anchor::from_truth(&scenario.anchors, truth);
    let solver = MultilaterationSolver::new(MultilaterationConfig::paper());
    c.bench_function("multilateration/town_59_18anchors", |b| {
        let mut rng = rl_math::rng::seeded(3);
        b.iter(|| black_box(solver.solve(&set, &anchors, &mut rng).unwrap()))
    });
}

criterion_group!(benches, bench_consistency, bench_solve);
criterion_main!(benches);
