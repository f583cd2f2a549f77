//! Criterion benches for the network substrate: flooding and topology
//! construction.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use rl_geom::Point2;
use rl_net::flood::run_flood;
use rl_net::{NodeId, RadioModel, Topology};

fn positions(n_side: usize, spacing: f64) -> Vec<Point2> {
    (0..n_side * n_side)
        .map(|i| Point2::new((i % n_side) as f64 * spacing, (i / n_side) as f64 * spacing))
        .collect()
}

fn bench_topology(c: &mut Criterion) {
    let pts = positions(8, 9.0);
    c.bench_function("net/topology_64_nodes", |b| {
        b.iter(|| black_box(Topology::from_positions(black_box(&pts), 22.0)))
    });
}

fn bench_flood(c: &mut Criterion) {
    let pts = positions(8, 9.0);
    c.bench_function("net/flood_64_nodes", |b| {
        b.iter(|| black_box(run_flood(&pts, RadioModel::ideal(22.0), NodeId(0), 1).unwrap()))
    });
}

criterion_group!(benches, bench_topology, bench_flood);
criterion_main!(benches);
