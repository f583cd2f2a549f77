//! The serving suites: cached batch throughput and streaming sessions
//! against a loopback server.

use std::time::{Duration, Instant};

use crate::ms;
use rl_bench::gate::Suite;
use rl_bench::MASTER_SEED;
use rl_deploy::mobility;
use rl_math::stats::quantile;
use rl_serve::protocol::stream::{StreamSource, TrackerSpec};
use rl_serve::server::solve_direct;
use rl_serve::{Client, ServeConfig, Server};

/// Concurrent clients replaying the cached town query.
const CLIENTS: usize = 4;

/// Requests per client in the throughput phase.
const REQUESTS_PER_CLIENT: usize = 250;

/// Ticks pushed from the town mobility trace in the latency phase.
const TICKS: usize = 48;

/// Distinct batch jobs queued behind the solve floor in the
/// non-starvation phase.
const BATCH_STORM: usize = 12;

/// Stream ticks interleaved against the batch storm.
const STORM_TICKS: usize = 4;

/// Per-job solve floor in the non-starvation phase.
const STORM_FLOOR: Duration = Duration::from_millis(30);

/// [`CLIENTS`] concurrent clients replaying a cached town query must
/// sustain ≥ 200 req/s at p99 ≤ 250 ms, every load request a cache hit.
pub fn serve(suite: &mut Suite) {
    let (addr, handle) = Server::spawn(ServeConfig::default()).expect("bind throughput server");
    let mut control = Client::connect(addr).expect("connect control");
    control
        .localize("town", "lss", MASTER_SEED)
        .expect("warm cache");
    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect load client");
                (0..REQUESTS_PER_CLIENT)
                    .map(|_| {
                        let t0 = Instant::now();
                        client
                            .localize("town", "lss", MASTER_SEED)
                            .expect("cached solve");
                        ms(t0.elapsed())
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut latencies_ms: Vec<f64> = clients
        .into_iter()
        .flat_map(|t| t.join().expect("load thread"))
        .collect();
    let wall = started.elapsed();
    let stats = control.status().expect("status");
    control.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");

    let total = CLIENTS * REQUESTS_PER_CLIENT;
    println!(
        "{CLIENTS} clients x {REQUESTS_PER_CLIENT} cached town queries in {wall:.2?}, p50 {:.2} ms",
        quantile(&mut latencies_ms, 0.50).expect("load latencies"),
    );
    suite.at_least("cached-rps", total as f64 / wall.as_secs_f64(), 200.0);
    suite.at_most(
        "cached-p99-ms",
        quantile(&mut latencies_ms, 0.99).expect("load latencies"),
        250.0,
    );
    // The warm-up request solved; every load request must hit.
    suite.at_least("cache-hits", stats.cache_hits as f64, total as f64);
}

fn town_source() -> StreamSource {
    StreamSource::Preset {
        name: "town-mobile".into(),
    }
}

/// Warm over-the-wire ticks at town scale must come back at p99
/// ≤ 20 ms, and with one worker, a solve floor and a queue full of
/// batch jobs, interleaved stream ticks must drain before the batch
/// backlog does, none lost, while every batch job still completes with
/// the direct solve's reply.
pub fn sessions(suite: &mut Suite) {
    let observations = mobility::preset("town-mobile")
        .expect("registry preset")
        .with_ticks(TICKS)
        .trace(MASTER_SEED)
        .observations;

    // Warm tick latency on a default server; tick 0 is the cold solve.
    let (addr, handle) = Server::spawn(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(addr).expect("connect");
    let mut session = client
        .open_stream(town_source(), TrackerSpec::default(), MASTER_SEED)
        .expect("open session");
    let mut warm_ms: Vec<f64> = observations
        .iter()
        .map(|obs| {
            let t0 = Instant::now();
            session.push(std::slice::from_ref(obs)).expect("push tick");
            ms(t0.elapsed())
        })
        .skip(1)
        .collect();
    session.close().expect("close session");
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");
    suite.at_most(
        "warm-tick-p99-ms",
        quantile(&mut warm_ms, 0.99).expect("warm ticks"),
        20.0,
    );

    // Non-starvation: a storm of distinct floored batch jobs on one
    // worker, then stream ticks pushed while the backlog is draining.
    let config = ServeConfig::default()
        .with_workers(1)
        .with_solve_floor(STORM_FLOOR);
    let (addr, handle) = Server::spawn(config).expect("bind");
    let mut control = Client::connect(addr).expect("connect control");
    let started = Instant::now();
    let storm: Vec<_> = (0..BATCH_STORM as u64)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect storm client");
                let seed = MASTER_SEED + 1 + i;
                let reply = client
                    .localize("town", "centroid", seed)
                    .expect("storm solve");
                (seed, reply, started.elapsed())
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
        .open_stream(town_source(), TrackerSpec::default(), MASTER_SEED)
        .expect("open session");
    for obs in observations.iter().take(STORM_TICKS) {
        session.push(std::slice::from_ref(obs)).expect("storm tick");
    }
    let stream_done = started.elapsed();
    session.close().expect("close session");
    let mut batch_done = Duration::ZERO;
    let mut diverged = 0;
    for t in storm {
        let (seed, reply, finished) = t.join().expect("storm thread");
        batch_done = batch_done.max(finished);
        if reply != solve_direct("town", "centroid", seed).expect("direct storm solve") {
            eprintln!("storm seed {seed}: served reply diverges from the direct solve");
            diverged += 1;
        }
    }
    let stats = control.status().expect("status");
    control.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");
    suite.gate(
        "stream-drain-before-batch-ms",
        ms(stream_done),
        ms(batch_done),
        stream_done < batch_done,
    );
    suite.at_least(
        "storm-ticks-served",
        stats.ticks_served as f64,
        STORM_TICKS as f64,
    );
    suite.at_most("storm-replies-diverged", f64::from(diverged), 0.0);
}
