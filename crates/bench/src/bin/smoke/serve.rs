//! The serving suites: cached batch throughput and streaming sessions
//! against a loopback server.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::ms;
use rl_bench::gate::Suite;
use rl_bench::MASTER_SEED;
use rl_core::tracking::{solution_fingerprint, StreamingTracker, Tracker};
use rl_deploy::mobility;
use rl_math::stats::quantile;
use rl_serve::protocol::stream::{StreamSource, TrackerSpec};
use rl_serve::protocol::{self, batch, Request, Response};
use rl_serve::server::{make_tracker_config, solve_direct};
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

/// Connections looping on fresh metro-1000 distributed-LSS solves in
/// the noisy-neighbour phase: the default worker count on a 2-core box.
const NOISY_SOLVERS: u64 = 2;

/// Metro-250 ticks pushed, one per push, in the noisy-neighbour phase.
const NOISY_TICKS: usize = 200;

/// [`CLIENTS`] concurrent clients replaying a cached town query must
/// sustain ≥ 200 req/s at p99 ≤ 250 ms, every load request a cache hit
/// whose frame is byte-identical to the warm-up's, which is the direct
/// solve's.
pub fn serve(suite: &mut Suite) {
    let (addr, handle) = Server::spawn(ServeConfig::default()).expect("bind throughput server");
    let mut control = Client::connect(addr).expect("connect control");
    let request = Request::localize("town", "lss", MASTER_SEED);
    let warm = control.request_raw(&request).expect("warm cache");
    let direct = Response::from(batch::Response::Localized(
        solve_direct("town", "lss", MASTER_SEED).expect("direct solve"),
    ));
    let direct = protocol::encode_frame(&direct, usize::MAX).expect("direct frame");
    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let (request, warm) = (request.clone(), warm.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect load client");
                let mut diverged = 0;
                let latencies = (0..REQUESTS_PER_CLIENT)
                    .map(|_| {
                        let t0 = Instant::now();
                        let frame = client.request_raw(&request).expect("cached solve");
                        let elapsed = ms(t0.elapsed());
                        diverged += usize::from(frame != warm);
                        elapsed
                    })
                    .collect::<Vec<_>>();
                (latencies, diverged)
            })
        })
        .collect();
    let mut latencies_ms = Vec::with_capacity(CLIENTS * REQUESTS_PER_CLIENT);
    let mut diverged = 0;
    for client in clients {
        let (latencies, wrong) = client.join().expect("load thread");
        latencies_ms.extend(latencies);
        diverged += wrong;
    }
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
    suite.check("cached-frames-match-warm-up", diverged == 0);
    suite.check("warm-up-matches-direct", warm[..] == direct[4..]);
}

fn town_source() -> StreamSource {
    StreamSource::Preset {
        name: "town-mobile".into(),
    }
}

/// Warm over-the-wire ticks at town scale must come back at p99
/// ≤ 20 ms; with one worker, a solve floor and a queue full of batch
/// jobs, interleaved stream ticks must drain before the batch backlog
/// does, none lost, while every batch job still completes with the
/// direct solve's reply; and metro-250 ticks pushed beside fresh
/// metro-1000 solves must stay fast and exact ([`noisy_neighbours`]).
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

    noisy_neighbours(suite);
}

/// On a default server, [`NOISY_SOLVERS`] connections loop on fresh
/// metro-1000 distributed-LSS solves while another pushes
/// [`NOISY_TICKS`] metro-250 ticks one at a time. The ticks after the
/// cold first one must come back at p99 ≤ 100 ms, no push may fail,
/// and every push's fingerprint must equal a direct tracker replay's.
fn noisy_neighbours(suite: &mut Suite) {
    let spec = TrackerSpec {
        preset: "metro".into(),
        ..TrackerSpec::default()
    };
    let observations = mobility::preset("metro-250-mobile")
        .expect("registry preset")
        .with_ticks(NOISY_TICKS)
        .trace(MASTER_SEED)
        .observations;
    let config = make_tracker_config(&spec, MASTER_SEED).expect("tracker preset");
    let mut direct = StreamingTracker::with_lss(config);
    let direct_prints: Vec<u64> = observations
        .iter()
        .map(|obs| {
            direct.observe(obs).expect("direct tick");
            solution_fingerprint(direct.latest().expect("solved tick"))
        })
        .collect();

    let (addr, handle) = Server::spawn(ServeConfig::default()).expect("bind");
    let stop = Arc::new(AtomicBool::new(false));
    let noisy: Vec<_> = (0..NOISY_SOLVERS)
        .map(|i| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect noisy client");
                let mut seed = MASTER_SEED + 1 + i * 1_000;
                while !stop.load(Ordering::Relaxed) {
                    client
                        .localize("metro-1000", "distributed-lss", seed)
                        .expect("noisy solve");
                    seed += 1;
                }
            })
        })
        .collect();
    let mut client = Client::connect(addr).expect("connect");
    while client.status().expect("status").solves_started < NOISY_SOLVERS {
        std::thread::sleep(Duration::from_millis(2));
    }
    let source = StreamSource::Preset {
        name: "metro-250-mobile".into(),
    };
    let mut session = client
        .open_stream(source, spec, MASTER_SEED)
        .expect("open session");
    let mut warm_ms = Vec::new();
    let (mut failed, mut mismatched) = (0, 0);
    for (tick, (obs, &expected)) in observations.iter().zip(&direct_prints).enumerate() {
        let t0 = Instant::now();
        match session.push(std::slice::from_ref(obs)) {
            Ok(reply) => {
                // Tick 0 is the cold solve.
                if tick > 0 {
                    warm_ms.push(ms(t0.elapsed()));
                }
                if reply.fingerprint != expected {
                    mismatched += 1;
                }
            }
            Err(e) => {
                eprintln!("noisy-neighbour tick {tick}: push failed: {e}");
                failed += 1;
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    session.close().expect("close session");
    for t in noisy {
        t.join().expect("noisy thread");
    }
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");

    println!(
        "{NOISY_TICKS} metro-250 ticks beside {NOISY_SOLVERS} metro-1000 solvers: warm p50 {:.2} ms",
        quantile(&mut warm_ms, 0.50).unwrap_or(f64::NAN),
    );
    suite.at_most(
        "noisy-tick-p99-ms",
        quantile(&mut warm_ms, 0.99).unwrap_or(f64::INFINITY),
        100.0,
    );
    suite.at_most("noisy-pushes-failed", f64::from(failed), 0.0);
    suite.at_most("noisy-fingerprint-mismatches", f64::from(mismatched), 0.0);
}
