//! Criterion benches behind Figures 24/25: local map construction,
//! transform estimation (both methods), and the full protocol run.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rl_core::distributed::{
    estimate_transform, run_distributed, DistributedConfig, LocalMap, TransformGuards,
    TransformMethod,
};
use rl_core::lss::LssConfig;
use rl_geom::{Point2, RigidTransform, Vec2};
use rl_math::gradient::DescentConfig;
use rl_net::NodeId;
use rl_ranging::channel::RangingChannel;
use rl_ranging::measurement::MeasurementSet;

fn grid(n_side: usize) -> (Vec<Point2>, MeasurementSet) {
    let truth: Vec<Point2> = (0..n_side * n_side)
        .map(|i| Point2::new((i % n_side) as f64 * 9.144, (i / n_side) as f64 * 9.144))
        .collect();
    let set = RangingChannel::paper().measure_all(&truth, &mut rl_math::rng::seeded(1));
    (truth, set)
}

fn bench_local_map(c: &mut Criterion) {
    let (_, set) = grid(4);
    let lss = LssConfig::default().with_min_spacing(9.14, 10.0);
    c.bench_function("distributed/local_map_center_node", |b| {
        let mut rng = rl_math::rng::seeded(2);
        b.iter(|| black_box(LocalMap::build(NodeId(5), &set, &lss, &mut rng).unwrap()))
    });
}

fn bench_transform(c: &mut Criterion) {
    let coords: Vec<Point2> = (0..12)
        .map(|i| Point2::new((i % 4) as f64 * 9.0, (i / 4) as f64 * 9.0))
        .collect();
    let nodes: Vec<NodeId> = (0..12).map(NodeId).collect();
    let hidden = RigidTransform::new(0.7, true, Vec2::new(4.0, -2.0));
    let source = LocalMap {
        center: NodeId(0),
        nodes: nodes.clone(),
        coords: coords.clone(),
    };
    let target = LocalMap {
        center: NodeId(1),
        nodes,
        coords: coords.iter().map(|&p| hidden.apply(p)).collect(),
    };
    c.bench_function("distributed/transform_covariance_12shared", |b| {
        b.iter(|| {
            black_box(
                estimate_transform(
                    &source,
                    &target,
                    &TransformMethod::Covariance,
                    &TransformGuards::default(),
                )
                .unwrap(),
            )
        })
    });
    let minimization = TransformMethod::Minimization(DescentConfig {
        step_size: 0.01,
        max_iterations: 1_000,
        restarts: 0,
        ..DescentConfig::default()
    });
    c.bench_function("distributed/transform_minimization_12shared", |b| {
        b.iter(|| {
            black_box(
                estimate_transform(&source, &target, &minimization, &TransformGuards::default())
                    .unwrap(),
            )
        })
    });
}

fn bench_protocol(c: &mut Criterion) {
    let (truth, set) = grid(4);
    let config = DistributedConfig::default().with_min_spacing(9.14, 10.0);
    c.bench_function("distributed/protocol_4x4_grid", |b| {
        let mut rng = rl_math::rng::seeded(3);
        b.iter(|| black_box(run_distributed(&set, &truth, NodeId(5), &config, &mut rng).unwrap()))
    });
}

criterion_group!(benches, bench_local_map, bench_transform, bench_protocol);
criterion_main!(benches);
