//! Release-mode streaming-session gate; run by CI.
//!
//! ```text
//! cargo run --release -p rl-serve --bin session_smoke
//! ```
//!
//! Exercises the protocol's `stream` namespace end to end and enforces:
//!
//! 1. **Replay bit-identity** — a wire-driven session replaying the
//!    town mobility trace produces per-push solution fingerprints (and
//!    final positions, compared at the `f64::to_bits` level) identical
//!    to a directly-driven [`StreamingTracker`], for worker counts 1
//!    and 4,
//! 2. **Warm tick latency** — pushing the trace tick-by-tick over the
//!    wire, every warm tick (tick 0, the cold solve, is excluded) must
//!    come back under [`WARM_P99_BUDGET`] at the 99th percentile,
//! 3. **Non-starvation** — with one worker, a solve floor, and a queue
//!    full of batch jobs, interleaved stream ticks must drain *before*
//!    the batch backlog does (the weighted-fair wheel alternates
//!    classes), while every batch job still completes with a
//!    bit-correct reply.
//!
//! Warm-tick p50/p99 and the non-starvation timings are written to
//! `BENCH_sessions.json` (uploaded as a CI artifact next to the other
//! `BENCH_*.json` records).

use std::time::{Duration, Instant};

use rl_core::tracking::{
    solution_fingerprint, StreamingTracker, TickObservation, Tracker, TrackerConfig,
};
use rl_deploy::mobility;
use rl_math::stats::quantile;
use rl_serve::protocol::stream::{StreamSource, TrackerSpec};
use rl_serve::server::solve_direct;
use rl_serve::{Client, ServeConfig, Server};
use serde::Serialize;

/// Seed used for every smoke stream (matches the campaign master seed).
const SEED: u64 = 20050614;

/// Ticks replayed from the town mobility trace.
const TICKS: usize = 48;

/// p99 budget for warm (tick ≥ 1) over-the-wire push round-trips.
const WARM_P99_BUDGET: Duration = Duration::from_millis(20);

/// Distinct batch jobs queued behind the solve floor in the
/// non-starvation phase.
const BATCH_STORM: usize = 12;

/// Stream ticks interleaved against the batch storm.
const STORM_TICKS: usize = 4;

/// Per-job solve floor in the non-starvation phase.
const STORM_FLOOR: Duration = Duration::from_millis(30);

#[derive(Debug, Serialize)]
struct LatencyRecord {
    ticks: usize,
    universe: u64,
    cold_ms: f64,
    p50_ms: f64,
    p99_ms: f64,
    p99_budget_ms: f64,
}

#[derive(Debug, Serialize)]
struct StarvationRecord {
    workers: usize,
    batch_jobs: usize,
    stream_ticks: usize,
    floor_ms: f64,
    stream_done_ms: f64,
    batch_done_ms: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    seed: u64,
    replay_worker_counts: Vec<usize>,
    replay_fingerprint: u64,
    latency: LatencyRecord,
    starvation: StarvationRecord,
}

/// The deterministic observation stream both sides of the parity
/// checks consume: the town mobility preset, 59 nodes.
fn town_stream() -> Vec<TickObservation> {
    mobility::preset("town-mobile")
        .expect("registry preset")
        .with_ticks(TICKS)
        .trace(SEED)
        .observations
}

fn town_source() -> StreamSource {
    StreamSource::Preset {
        name: "town-mobile".into(),
    }
}

fn main() {
    let mut failed = false;
    let observations = town_stream();

    // The in-process reference tracker, fed the same trace.
    let mut direct = StreamingTracker::with_lss(TrackerConfig::new(SEED));
    let mut direct_prints = Vec::with_capacity(observations.len());
    for obs in &observations {
        direct.observe(obs).expect("direct tick");
        direct_prints.push(solution_fingerprint(direct.latest().expect("solution")));
    }
    let final_print = *direct_prints.last().expect("non-empty trace");
    let direct_positions = direct.latest().expect("solution").positions().clone();

    // Phase 1: replay bit-identity for worker counts 1 and 4, pushing
    // tick-by-tick and checking every intermediate fingerprint.
    let replay_worker_counts = vec![1usize, 4];
    for &workers in &replay_worker_counts {
        let (addr, handle) =
            Server::spawn(ServeConfig::default().with_workers(workers)).expect("bind");
        let mut client = Client::connect(addr).expect("connect");
        let mut session = client
            .open_stream(town_source(), TrackerSpec::default(), SEED)
            .expect("open session");
        for (tick, obs) in observations.iter().enumerate() {
            let reply = session.push(std::slice::from_ref(obs)).expect("push tick");
            if reply.fingerprint != direct_prints[tick] {
                eprintln!(
                    "REPLAY DIVERGED: workers={workers} tick={tick}: wire fingerprint \
                     {:#018x} != direct {:#018x}",
                    reply.fingerprint, direct_prints[tick]
                );
                failed = true;
            }
        }
        let read = session.read().expect("read solution");
        for (i, served) in read.positions.iter().enumerate() {
            let expected = direct_positions
                .get(rl_core::types::NodeId(i))
                .map(|p| (p.x, p.y));
            let ok = match (served, &expected) {
                (Some(a), Some(b)) => {
                    a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits()
                }
                (None, None) => true,
                _ => false,
            };
            if !ok {
                eprintln!(
                    "REPLAY DIVERGED: workers={workers}: node {i} served {served:?} but tracks \
                     directly to {expected:?}"
                );
                failed = true;
            }
        }
        session.close().expect("close session");
        client.shutdown().expect("shutdown");
        handle.join().expect("join").expect("serve");
        println!(
            "replay: workers={workers}: {} wire ticks bit-identical to the direct tracker \
             (fingerprint {final_print:#018x})",
            observations.len()
        );
    }

    // Phase 2: warm tick latency over the wire on a default server.
    let (addr, handle) = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(addr).expect("connect");
    let mut session = client
        .open_stream(town_source(), TrackerSpec::default(), SEED)
        .expect("open session");
    let universe = session.universe();
    let mut warm = Vec::with_capacity(observations.len() - 1);
    let mut cold = Duration::ZERO;
    for (tick, obs) in observations.iter().enumerate() {
        let t0 = Instant::now();
        session.push(std::slice::from_ref(obs)).expect("push tick");
        let elapsed = t0.elapsed();
        if tick == 0 {
            cold = elapsed;
        } else {
            warm.push(elapsed.as_secs_f64() * 1e3);
        }
    }
    session.close().expect("close session");
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");
    let p50_ms = quantile(&mut warm, 0.50).expect("warm ticks");
    let p99_ms = quantile(&mut warm, 0.99).expect("warm ticks");
    let p99_budget_ms = WARM_P99_BUDGET.as_secs_f64() * 1e3;
    let latency = LatencyRecord {
        ticks: observations.len(),
        universe,
        cold_ms: cold.as_secs_f64() * 1e3,
        p50_ms,
        p99_ms,
        p99_budget_ms,
    };
    println!(
        "latency: {} warm ticks over the wire at town scale ({universe} nodes): cold {cold:.2?}, \
         p50 {p50_ms:.2} ms, p99 {p99_ms:.2} ms (budget {p99_budget_ms:.0} ms)",
        warm.len()
    );
    if p99_ms > p99_budget_ms {
        eprintln!("WARM TICK BUDGET EXCEEDED: p99 {p99_ms:.2} ms > {p99_budget_ms:.0} ms");
        failed = true;
    }

    // Phase 3: non-starvation. One worker, a solve floor, and a storm
    // of distinct batch jobs; interleaved stream ticks must finish
    // while the batch backlog is still draining, and every batch job
    // must still complete bit-correct.
    let config = ServeConfig::default()
        .with_workers(1)
        .with_solve_floor(STORM_FLOOR);
    let (addr, handle) = Server::spawn(config).expect("bind");
    let mut control = Client::connect(addr).expect("connect control");
    let started = Instant::now();
    let storm: Vec<_> = (0..BATCH_STORM)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect storm client");
                let seed = SEED + 1 + i as u64;
                let reply = client
                    .localize("town", "centroid", seed)
                    .expect("storm solve");
                (seed, reply, Instant::now())
            })
        })
        .collect();
    // Wait until the worker is occupied and a backlog exists, so the
    // stream ticks below genuinely compete with queued batch work.
    loop {
        let stats = control.status().expect("status");
        if stats.solves_started >= 1 && stats.batch_queued >= (BATCH_STORM as u64) / 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut session = control
        .open_stream(town_source(), TrackerSpec::default(), SEED)
        .expect("open session");
    for obs in observations.iter().take(STORM_TICKS) {
        session.push(std::slice::from_ref(obs)).expect("storm tick");
    }
    let stream_done = started.elapsed();
    session.close().expect("close session");
    let batch_done = storm
        .into_iter()
        .map(|t| {
            let (seed, reply, finished) = t.join().expect("storm thread");
            let direct = solve_direct("town", "centroid", seed).expect("direct storm solve");
            if reply != direct {
                eprintln!("NON-STARVATION BROKE BATCH: seed {seed} reply diverges from direct");
                (true, finished)
            } else {
                (false, finished)
            }
        })
        .fold(Duration::ZERO, |acc, (bad, finished)| {
            if bad {
                failed = true;
            }
            acc.max(finished.duration_since(started))
        });
    let stats = control.status().expect("status");
    control.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");
    let starvation = StarvationRecord {
        workers: 1,
        batch_jobs: BATCH_STORM,
        stream_ticks: STORM_TICKS,
        floor_ms: STORM_FLOOR.as_secs_f64() * 1e3,
        stream_done_ms: stream_done.as_secs_f64() * 1e3,
        batch_done_ms: batch_done.as_secs_f64() * 1e3,
    };
    println!(
        "non-starvation: {STORM_TICKS} stream ticks drained in {stream_done:.2?} against \
         {BATCH_STORM} floored batch jobs (backlog drained in {batch_done:.2?}); \
         ticks_served={} solves={}",
        stats.ticks_served, stats.solves
    );
    if stream_done >= batch_done {
        eprintln!(
            "STREAM STARVED: {STORM_TICKS} interleaved ticks took {stream_done:.2?}, not less \
             than the {batch_done:.2?} batch backlog drain"
        );
        failed = true;
    }
    if stats.ticks_served < STORM_TICKS as u64 {
        eprintln!(
            "TICKS LOST: served {} of {STORM_TICKS} storm ticks",
            stats.ticks_served
        );
        failed = true;
    }

    let bench = BenchReport {
        seed: SEED,
        replay_worker_counts,
        replay_fingerprint: final_print,
        latency,
        starvation,
    };
    let json = serde_json::to_string(&bench).expect("report serializes");
    match std::fs::write("BENCH_sessions.json", &json) {
        Ok(()) => println!("wrote BENCH_sessions.json ({} bytes)", json.len()),
        Err(e) => {
            eprintln!("FAILED to write BENCH_sessions.json: {e}");
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!(
        "streaming sessions: wire replay bit-identical for workers 1 and 4, warm ticks under \
         {WARM_P99_BUDGET:.0?} p99, fair sharing against a floored batch storm"
    );
}
