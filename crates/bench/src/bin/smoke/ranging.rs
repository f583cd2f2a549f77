//! The ranging suite: the signal and ranging chain timed per call, the
//! two Section-4 estimator variants that no solver preset runs, and the
//! deploy layer that builds measurement sets.
//!
//! Every signal and ranging cell loops its kernel for at least
//! [`crate::MIN_LOOP`] and gates the mean time of one call; each budget
//! is about 3x the slowest mean read over 16 runs on a 2-core x86-64 box.
//! The deploy cells instead gate the fastest of [`DEPLOY_CALLS`] calls,
//! timed in alternation. Their absolute budgets sit below twice the
//! median of 16 runs there and some 1.2-1.3x above the slowest, but that
//! box's single-thread speed shifts by ~1.5x from one run to the next,
//! so two within-run ratio gates catch a 2x slowdown: the instantiate
//! against a plain all-pairs `hypot` walk of the same layout, and the
//! trace against its ticks measured one after another (a trace measured
//! on one thread reads ~1.3x of that, the pipelined one under 1.05x).

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::{mean_call, ms, us};
use rl_bench::gate::Suite;
use rl_bench::MASTER_SEED;
use rl_core::distributed::{estimate_transform, LocalMap, TransformGuards, TransformMethod};
use rl_core::multilateration::{IntersectionConsistency, RangeToAnchor};
use rl_deploy::{mobility, presets};
use rl_geom::{Point2, RigidTransform, Vec2};
use rl_math::gradient::DescentConfig;
use rl_net::NodeId;
use rl_ranging::consistency::{merge_bidirectional, ConsistencyConfig};
use rl_ranging::filter::StatFilter;
use rl_ranging::service::{RangingService, ServiceConfig};
use rl_signal::chirp::ChirpTrainConfig;
use rl_signal::detection::{detect_signal, record_signal, DetectionParams};
use rl_signal::detector::ReceptionSimulator;
use rl_signal::dft::{Band, XsmFilter, XsmToneDetector};
use rl_signal::env::Environment;
use rl_signal::waveform::WaveformSpec;

/// Per-call budgets in microseconds.
const XSM_FILTER_US: f64 = 36.0;
const TONE_DETECT_US: f64 = 115.0;
const RECORD_SIGNAL_US: f64 = 4.2;
const DETECT_SIGNAL_US: f64 = 5.7;
const RECEPTION_US: f64 = 290.0;
const GRASS_CAMPAIGN_US: f64 = 112_000.0;
const MEDIAN_FILTER_US: f64 = 58.0;
const MERGE_US: f64 = 13.0;
const MODE_OF_INTERSECTIONS_US: f64 = 40.0;
const TRANSFORM_MINIMIZATION_US: f64 = 1_380.0;

/// Best-call budgets in milliseconds for the deploy layer.
const METRO1000_INSTANTIATE_MS: f64 = 4.0;
const METRO250_MOBILE_TRACE_MS: f64 = 18.0;

/// Ceiling on the trace's best time over the best time of measuring its
/// ticks one after another (gated on two or more cores).
const TRACE_VS_SERIAL_TICKS: f64 = 1.15;

/// Ceiling on the instantiate's best time over the best time of a plain
/// all-pairs `hypot` walk of the same layout.
const INSTANTIATE_VS_HYPOT_WALK: f64 = 0.7;

/// Ticks in the timed mobility trace.
const TRACE_TICKS: usize = 100;

/// Timed calls per deploy cell; each cell gates its fastest.
const DEPLOY_CALLS: usize = 15;

/// The sliding-DFT filter and tone detector on the Figure-10 waveform,
/// one chirp-train reception at 12 m on grass with the Figure-3
/// record/detect routines on its buffer, a 3x3 grass ranging campaign
/// with its median filter and bidirectional merge, the
/// mode-of-intersections estimator, and the minimization transform
/// between two local maps; then the deploy layer: a metro-1000
/// `Scenario::instantiate` and a 100-tick `metro-250-mobile` trace.
pub fn ranging(suite: &mut Suite) {
    let mut rng = rl_math::rng::seeded(MASTER_SEED);

    let wave = WaveformSpec::figure10_noisy().synthesize(&mut rng);
    let filter = mean_call(|| {
        let mut f = XsmFilter::new();
        let acc: f64 = wave.iter().map(|&s| f.filter(black_box(s)).quarter).sum();
        black_box(acc);
    });
    suite.at_most("xsm-filter-us", us(filter), XSM_FILTER_US);
    let tone = mean_call(|| {
        black_box(XsmToneDetector::new(Band::Quarter).detect_chirps(&wave, 24));
    });
    suite.at_most("tone-detect-us", us(tone), TONE_DETECT_US);

    let sim = ReceptionSimulator::new(Environment::Grass.profile(), ChirpTrainConfig::paper());
    let reception = mean_call(|| {
        black_box(sim.receive(black_box(12.0), &mut rng));
    });
    suite.at_most("reception-12m-us", us(reception), RECEPTION_US);
    let outcome = sim.receive(12.0, &mut rng);
    let record = mean_call(|| {
        let mut acc = outcome.accumulated.clone();
        record_signal(&mut acc, black_box(&outcome.first_chirp_hits));
        black_box(acc);
    });
    suite.at_most("record-signal-us", us(record), RECORD_SIGNAL_US);
    let params = DetectionParams::paper();
    let detect = mean_call(|| {
        black_box(detect_signal(black_box(&outcome.accumulated), &params));
    });
    suite.at_most("detect-signal-us", us(detect), DETECT_SIGNAL_US);
    suite.check("reception-12m-detected", outcome.detect_default().is_some());

    let service = RangingService::new(Environment::Grass, ServiceConfig::refined(), &mut rng)
        .expect("refined grass service");
    let positions: Vec<Point2> = (0..9)
        .map(|i| Point2::new((i % 3) as f64 * 9.144, (i / 3) as f64 * 9.144))
        .collect();
    let campaign = mean_call(|| {
        black_box(service.run_campaign(&positions, &mut rng));
    });
    suite.at_most("grass-3x3-campaign-us", us(campaign), GRASS_CAMPAIGN_US);
    let raw = service.run_campaign(&positions, &mut rng);
    let median = mean_call(|| {
        black_box(StatFilter::Median.apply(&raw));
    });
    suite.at_most("median-filter-us", us(median), MEDIAN_FILTER_US);
    let estimates = StatFilter::Median.apply(&raw);
    let merge = mean_call(|| {
        black_box(merge_bidirectional(
            &estimates,
            raw.n,
            &ConsistencyConfig::default(),
        ));
    });
    suite.at_most("bidirectional-merge-us", us(merge), MERGE_US);

    let node = Point2::new(5.0, 5.0);
    let observations: Vec<RangeToAnchor> = [
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
    .collect();
    let check = IntersectionConsistency::default();
    let mode = mean_call(|| {
        black_box(check.mode_of_intersections(black_box(&observations)));
    });
    suite.at_most(
        "mode-of-intersections-us",
        us(mode),
        MODE_OF_INTERSECTIONS_US,
    );

    // Twelve shared nodes, the target map a hidden rigid motion (with a
    // reflection) of the source.
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
    let minimization = TransformMethod::Minimization(DescentConfig {
        step_size: 0.01,
        max_iterations: 1_000,
        restarts: 0,
        ..DescentConfig::default()
    });
    let guards = TransformGuards::default();
    let transform = mean_call(|| {
        black_box(
            estimate_transform(&source, &target, &minimization, &guards)
                .expect("the maps share twelve nodes"),
        );
    });
    suite.at_most(
        "transform-minimization-us",
        us(transform),
        TRANSFORM_MINIMIZATION_US,
    );

    // The deploy cells take the fastest of several calls, timed in
    // alternation, so that a neighbour's burst on a shared box moves
    // neither a budget nor the ratio.
    let metro = presets::preset("metro-1000").expect("registered preset");
    let mobile = mobility::preset("metro-250-mobile")
        .expect("registered mobility preset")
        .with_ticks(TRACE_TICKS);
    let trace = mobile.trace(MASTER_SEED);
    let universe = mobile.base.deployment.len();
    let channel = &mobile.base.channel;
    let serial_ticks = || {
        for obs in trace.iter() {
            let truth = obs.truth.as_ref().expect("traces carry truth");
            let positions: Vec<Point2> = obs.active.iter().map(|id| truth[id.index()]).collect();
            let mut rng = rl_math::rng::seeded(obs.tick);
            black_box(channel.measure_subnetwork(&positions, &obs.active, universe, &mut rng));
        }
    };
    // A fixed kernel outside the library, timed beside the instantiate so
    // that its ratio gate reads the machine's speed out: every pair's
    // `hypot` over the metro-1000 layout, with no prefilter and no noise.
    let layout = &metro.deployment.positions;
    let hypot_walk = || {
        let positions = black_box(layout.as_slice());
        let mut within = 0usize;
        for (i, &p) in positions.iter().enumerate() {
            for &q in &positions[i + 1..] {
                within += usize::from(p.distance(q) <= metro.channel.max_range_m());
            }
        }
        black_box(within);
    };
    let mut best = [Duration::MAX; 4];
    for _ in 0..DEPLOY_CALLS {
        best[0] = best[0].min(timed(|| {
            black_box(metro.instantiate(black_box(MASTER_SEED)));
        }));
        best[1] = best[1].min(timed(hypot_walk));
        best[2] = best[2].min(timed(|| {
            black_box(mobile.trace(black_box(MASTER_SEED)));
        }));
        best[3] = best[3].min(timed(serial_ticks));
    }
    let [instantiate, walk, traced, serial] = best;
    suite.at_most(
        "metro1000-instantiate-ms",
        ms(instantiate),
        METRO1000_INSTANTIATE_MS,
    );
    suite.at_most(
        "metro1000-instantiate-vs-hypot-walk",
        instantiate.as_secs_f64() / walk.as_secs_f64(),
        INSTANTIATE_VS_HYPOT_WALK,
    );
    suite.at_most(
        "metro250-mobile-trace-100-ms",
        ms(traced),
        METRO250_MOBILE_TRACE_MS,
    );
    // The trace overlaps its motion pass with pooled tick measurement, so
    // on two or more cores it beats measuring the same ticks one after
    // another; a trace measured serially reads above 1.
    let ratio = traced.as_secs_f64() / serial.as_secs_f64();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 2 {
        suite.at_most(
            "metro250-mobile-trace-vs-serial-ticks",
            ratio,
            TRACE_VS_SERIAL_TICKS,
        );
    } else {
        println!(
            "  ranging/metro250-mobile-trace-vs-serial-ticks: {ratio:.3} (one core, not gated)"
        );
    }
}

/// Wall time of one call to `op`.
fn timed(mut op: impl FnMut()) -> Duration {
    let start = Instant::now();
    op();
    start.elapsed()
}
