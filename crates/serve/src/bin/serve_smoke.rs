//! Release-mode serving gate; run by CI.
//!
//! ```text
//! cargo run --release -p rl-serve --bin serve_smoke
//! ```
//!
//! Exercises the serving layer end to end and enforces:
//!
//! 1. **Determinism** — a served reply is bit-identical to the
//!    in-process [`solve_direct`] for the same triple (positions
//!    compared at the `f64::to_bits` level),
//! 2. **Caching** — a repeated identical request is answered from the
//!    solution cache (`cache_hits` increments) and its raw response
//!    frame is **byte-identical** to the cold one,
//! 3. **Batching** — concurrent identical requests coalesce into one
//!    shared solve: the solve count stays strictly below the request
//!    count,
//! 4. **Throughput** — [`CLIENTS`] concurrent clients replaying a
//!    cached town query sustain at least [`RPS_FLOOR`] requests/second
//!    with p99 latency under [`P99_BUDGET`].
//!
//! Measured req/s and p50/p99 latency are written to `BENCH_serve.json`
//! (uploaded as a CI artifact next to the other `BENCH_*.json` records).

use std::time::{Duration, Instant};

use rl_math::stats::quantile;
use rl_serve::server::solve_direct;
use rl_serve::{Client, ServeConfig, Server};
use serde::Serialize;

/// Seed used for every smoke query (matches the campaign master seed).
const SEED: u64 = 20050614;

/// Concurrent clients in the throughput phase.
const CLIENTS: usize = 4;

/// Requests per client in the throughput phase.
const REQUESTS_PER_CLIENT: usize = 250;

/// Minimum sustained throughput on cached town queries.
const RPS_FLOOR: f64 = 200.0;

/// Generous per-request p99 latency budget for cached queries.
const P99_BUDGET: Duration = Duration::from_millis(250);

/// Duplicate localize requests fired at the single-worker batching
/// server (on top of one blocker request).
const DUPLICATES: usize = 6;

#[derive(Debug, Serialize)]
struct BatchingRecord {
    requests: u64,
    solves: u64,
    coalesced: u64,
    cache_hits: u64,
}

#[derive(Debug, Serialize)]
struct ThroughputRecord {
    clients: usize,
    requests: usize,
    wall_ms: f64,
    rps: f64,
    rps_floor: f64,
    p50_ms: f64,
    p99_ms: f64,
    p99_budget_ms: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    seed: u64,
    workers: u64,
    bitwise_triples_checked: usize,
    cached_frame_bytes: usize,
    batching: BatchingRecord,
    throughput: ThroughputRecord,
}

/// Asserts `reply` equals `direct` with positions compared bit-for-bit.
fn assert_bitwise(
    reply: &rl_serve::LocalizeReply,
    direct: &rl_serve::LocalizeReply,
    what: &str,
) -> bool {
    if reply.positions.len() != direct.positions.len() {
        eprintln!("DETERMINISM BROKEN: {what}: position counts diverge");
        return false;
    }
    for (i, (a, b)) in reply.positions.iter().zip(&direct.positions).enumerate() {
        let ok = match (a, b) {
            (Some(a), Some(b)) => a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits(),
            (None, None) => true,
            _ => false,
        };
        if !ok {
            eprintln!(
                "DETERMINISM BROKEN: {what}: node {i} served {a:?} but solves directly to {b:?}"
            );
            return false;
        }
    }
    if reply != direct {
        eprintln!("DETERMINISM BROKEN: {what}: non-position reply fields diverge");
        return false;
    }
    true
}

fn main() {
    let mut failed = false;

    // Phase 1+2: determinism and caching, on a default server.
    let (addr, handle) = Server::spawn(ServeConfig::default()).expect("bind smoke server");
    let mut client = Client::connect(addr).expect("connect");
    let workers = client.status().expect("status").workers;

    let triples = [
        ("town", "lss"),
        ("parking-lot", "multilateration"),
        ("grass-grid", "distributed-lss"),
        ("metro-250", "centroid"),
    ];
    for (deployment, solver) in triples {
        let reply = client
            .localize(deployment, solver, SEED)
            .expect("served solve");
        let direct = solve_direct(deployment, solver, SEED).expect("direct solve");
        if !assert_bitwise(&reply, &direct, &format!("{deployment}/{solver}")) {
            failed = true;
        }
    }
    println!(
        "determinism: {} served triples bit-identical to direct solves",
        triples.len()
    );

    // Byte-identical cached frame: issue the same raw request twice.
    let request = rl_serve::Request::localize("town", "lss", SEED);
    let before = client.status().expect("status").cache_hits;
    let cold = client.request_raw(&request).expect("first frame");
    let cached = client.request_raw(&request).expect("second frame");
    let hits = client.status().expect("status").cache_hits - before;
    if cold != cached {
        eprintln!(
            "CACHE CONTRACT BROKEN: cached response frame differs from the cold one \
             ({} vs {} bytes)",
            cached.len(),
            cold.len()
        );
        failed = true;
    }
    if hits < 2 {
        // Both raw requests repeat the phase-1 town/lss solve, so both
        // must be cache hits.
        eprintln!("CACHE NOT SERVING: expected >=2 cache hits for repeated requests, got {hits}");
        failed = true;
    }
    println!(
        "caching: repeated town/lss request served from cache, frames byte-identical \
         ({} bytes)",
        cached.len()
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");

    // Phase 3: batching. One worker, a solve floor wide enough that the
    // duplicates deterministically arrive while their solve is in
    // flight, and a blocker request occupying the worker first.
    let config = ServeConfig::default()
        .with_workers(1)
        .with_solve_floor(Duration::from_millis(250));
    let (addr, handle) = Server::spawn(config).expect("bind batching server");
    let blocker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect blocker");
        client
            .localize("parking-lot", "centroid", SEED)
            .expect("blocker solve");
    });
    // Wait until the worker has picked the blocker up, so every
    // duplicate below is enqueued behind it.
    let mut control = Client::connect(addr).expect("connect control");
    while control.status().expect("status").solves_started < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let duplicates: Vec<_> = (0..DUPLICATES)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect duplicate");
                client
                    .localize("town", "centroid", SEED)
                    .expect("duplicate solve")
            })
        })
        .collect();
    let replies: Vec<_> = duplicates
        .into_iter()
        .map(|t| t.join().expect("duplicate thread"))
        .collect();
    blocker.join().expect("blocker thread");
    let stats = control.status().expect("status");
    let batching = BatchingRecord {
        requests: stats.requests,
        solves: stats.solves,
        coalesced: stats.coalesced,
        cache_hits: stats.cache_hits,
    };
    control.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");

    let direct = solve_direct("town", "centroid", SEED).expect("direct town/centroid");
    for reply in &replies {
        if !assert_bitwise(reply, &direct, "coalesced town/centroid") {
            failed = true;
        }
    }
    // Blocker + one shared solve; DUPLICATES requests collapse into one.
    if batching.solves >= batching.requests || batching.solves != 2 {
        eprintln!(
            "BATCHING BROKEN: {} requests ran {} solves (expected exactly 2: blocker + one \
             coalesced solve)",
            batching.requests, batching.solves
        );
        failed = true;
    }
    if batching.coalesced + batching.cache_hits != (DUPLICATES as u64 - 1) || batching.coalesced < 1
    {
        eprintln!(
            "BATCHING BROKEN: {} duplicates should coalesce/hit-cache {} times, got \
             coalesced={} cache_hits={}",
            DUPLICATES,
            DUPLICATES - 1,
            batching.coalesced,
            batching.cache_hits
        );
        failed = true;
    }
    println!(
        "batching: {} requests -> {} solves (coalesced={}, cache_hits={}), fan-out replies \
         bit-identical",
        batching.requests, batching.solves, batching.coalesced, batching.cache_hits
    );

    // Phase 4: throughput on cached town queries.
    let (addr, handle) = Server::spawn(ServeConfig::default()).expect("bind throughput server");
    let mut control = Client::connect(addr).expect("connect control");
    control.localize("town", "lss", SEED).expect("warm cache");
    let started = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect load client");
                let mut latencies = Vec::with_capacity(REQUESTS_PER_CLIENT);
                for _ in 0..REQUESTS_PER_CLIENT {
                    let t0 = Instant::now();
                    client.localize("town", "lss", SEED).expect("cached solve");
                    latencies.push(t0.elapsed());
                }
                latencies
            })
        })
        .collect();
    let mut latencies_ms: Vec<f64> = clients
        .into_iter()
        .flat_map(|t| t.join().expect("load thread"))
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let wall = started.elapsed();
    let stats = control.status().expect("status");
    control.shutdown().expect("shutdown");
    handle.join().expect("join").expect("serve");

    let total = CLIENTS * REQUESTS_PER_CLIENT;
    let rps = total as f64 / wall.as_secs_f64();
    let p50_ms = quantile(&mut latencies_ms, 0.50).expect("load latencies");
    let p99_ms = quantile(&mut latencies_ms, 0.99).expect("load latencies");
    let p99_budget_ms = P99_BUDGET.as_secs_f64() * 1e3;
    let throughput = ThroughputRecord {
        clients: CLIENTS,
        requests: total,
        wall_ms: wall.as_secs_f64() * 1e3,
        rps,
        rps_floor: RPS_FLOOR,
        p50_ms,
        p99_ms,
        p99_budget_ms,
    };
    println!(
        "throughput: {CLIENTS} clients x {REQUESTS_PER_CLIENT} cached town queries in {wall:.2?} \
         -> {rps:.0} req/s (floor {RPS_FLOOR:.0}), p50 {p50_ms:.2} ms, p99 {p99_ms:.2} ms \
         (budget {p99_budget_ms:.0} ms)"
    );
    if rps < RPS_FLOOR {
        eprintln!("THROUGHPUT FLOOR MISSED: {rps:.0} req/s < {RPS_FLOOR:.0} req/s");
        failed = true;
    }
    if p99_ms > p99_budget_ms {
        eprintln!("P99 BUDGET EXCEEDED: {p99_ms:.2} ms > {p99_budget_ms:.0} ms");
        failed = true;
    }
    let expected_hits = total as u64; // warm request solved; all load requests hit
    if stats.cache_hits < expected_hits {
        eprintln!(
            "CACHE NOT SERVING UNDER LOAD: {} hits < {} load requests",
            stats.cache_hits, expected_hits
        );
        failed = true;
    }

    let bench = BenchReport {
        seed: SEED,
        workers,
        bitwise_triples_checked: triples.len(),
        cached_frame_bytes: cached.len(),
        batching,
        throughput,
    };
    let json = serde_json::to_string(&bench).expect("report serializes");
    match std::fs::write("BENCH_serve.json", &json) {
        Ok(()) => println!("wrote BENCH_serve.json ({} bytes)", json.len()),
        Err(e) => {
            eprintln!("FAILED to write BENCH_serve.json: {e}");
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!(
        "serving layer: bit-identical replies, byte-identical cached frames, coalesced solves, \
         {rps:.0} req/s"
    );
}
