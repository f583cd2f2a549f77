//! Loopback-TCP integration tests for the serving layer: concurrency,
//! caching, batching, lifecycle, and bad-input handling, all against a
//! real server on an ephemeral port.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use resilient_localization::serve::client::{Client, ClientError};
use resilient_localization::serve::protocol::{
    self, batch, ErrorCode, Request, Response, PROTOCOL_VERSION,
};
use resilient_localization::serve::server::solve_direct;
use resilient_localization::serve::{ServeConfig, Server};

const SEED: u64 = 20050614;

/// Positions must match at the bit level, not just `==` (which would
/// accept `0.0 == -0.0`).
fn assert_reply_bitwise(
    served: &resilient_localization::serve::LocalizeReply,
    direct: &resilient_localization::serve::LocalizeReply,
) {
    assert_eq!(served, direct);
    for (a, b) in served.positions.iter().zip(&direct.positions) {
        match (a, b) {
            (Some(a), Some(b)) => {
                assert_eq!(a.0.to_bits(), b.0.to_bits());
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
            (None, None) => {}
            _ => panic!("localization sets diverged"),
        }
    }
}

/// Sends one raw frame payload on an unhandshaken connection and
/// decodes the reply.
fn exchange(stream: &mut TcpStream, payload: &[u8]) -> Response {
    protocol::write_frame(stream, payload, usize::MAX).unwrap();
    let reply = protocol::read_frame(stream, usize::MAX).unwrap().unwrap();
    protocol::decode(&reply).unwrap()
}

fn roundtrip(stream: &mut TcpStream, request: &Request) -> Response {
    exchange(stream, serde_json::to_string(request).unwrap().as_bytes())
}

fn assert_malformed(stream: &mut TcpStream, payload: &[u8]) {
    match exchange(stream, payload) {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::MalformedFrame),
        other => panic!("expected MalformedFrame, got {other:?}"),
    }
}

#[test]
fn concurrent_clients_get_bitwise_direct_results() {
    let (addr, handle) = Server::spawn(ServeConfig::default()).unwrap();
    // >= 4 concurrent clients, distinct triples, all checked against the
    // in-process solve.
    let triples = [
        ("parking-lot", "multilateration", 1),
        ("town", "centroid", 2),
        ("grass-grid", "lss", 3),
        ("parking-lot", "dv-hop", 4),
        ("town", "mds-map", 5),
        ("town", "lss", SEED),
        ("grass-grid", "distributed-lss", SEED),
        ("metro-250", "centroid", SEED),
    ];
    let served: Vec<_> = triples
        .map(|(deployment, solver, seed)| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.localize(deployment, solver, seed).unwrap()
            })
        })
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    for ((deployment, solver, seed), reply) in triples.iter().zip(&served) {
        let direct = solve_direct(deployment, solver, *seed).unwrap();
        assert_reply_bitwise(reply, &direct);
        assert_eq!(&reply.deployment, deployment);
        assert_eq!(&reply.solver, solver);
        assert_eq!(reply.seed, *seed);
    }
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn repeats_hit_the_cache_with_byte_identical_frames() {
    let (addr, handle) = Server::spawn(ServeConfig::default()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    let request = Request::localize("parking-lot", "centroid", SEED);
    let cold = client.request_raw(&request).unwrap();
    let before = client.status().unwrap();
    let repeat = client.request_raw(&request).unwrap();
    let after = client.status().unwrap();

    assert_eq!(cold, repeat, "cached frame must be byte-identical");
    assert_eq!(
        after.cache_hits,
        before.cache_hits + 1,
        "the repeat must be served from cache"
    );
    assert_eq!(after.solves, before.solves, "no new solve for a repeat");
    // A different seed is a different cache entry.
    let other = client
        .localize("parking-lot", "centroid", SEED + 1)
        .unwrap();
    assert_ne!(
        Some(other.seed),
        protocol::decode::<Response>(&cold)
            .ok()
            .and_then(|r| match r {
                Response::Batch(batch::Response::Localized(reply)) => Some(reply.seed),
                _ => None,
            })
    );
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn duplicate_requests_coalesce_into_fewer_solves() {
    // One worker + a solve floor: a blocker occupies the worker, then
    // duplicates pile up behind it and must share a single solve.
    let config = ServeConfig::default()
        .with_workers(1)
        .with_solve_floor(Duration::from_millis(200));
    let (addr, handle) = Server::spawn(config).unwrap();
    let blocker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        // Distinct triple so it occupies the worker without touching the
        // duplicates' cache entry (centroid needs anchors, so not
        // grass-grid).
        client.localize("parking-lot", "centroid", 99).unwrap();
    });
    let mut control = Client::connect(addr).unwrap();
    while control.status().unwrap().solves_started < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }

    const DUPLICATES: u64 = 5;
    let waiters: Vec<_> = (0..DUPLICATES)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client
                    .request_raw(&Request::localize("town", "centroid", SEED))
                    .unwrap()
            })
        })
        .collect();
    let frames: Vec<_> = waiters.into_iter().map(|t| t.join().unwrap()).collect();
    blocker.join().unwrap();

    let stats = control.status().unwrap();
    control.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    assert!(
        stats.solves < stats.requests,
        "coalescing must keep solves ({}) strictly below requests ({})",
        stats.solves,
        stats.requests
    );
    assert_eq!(stats.solves, 2, "blocker + one shared solve");
    assert!(stats.coalesced >= 1, "at least one request must coalesce");
    assert_eq!(
        stats.coalesced + stats.cache_hits,
        DUPLICATES - 1,
        "every duplicate but the first is coalesced or cache-served"
    );
    // The solving request, its coalesced waiters and any cache hit all
    // write the one frame the solve encoded.
    for frame in &frames[1..] {
        assert_eq!(frame, &frames[0], "duplicate frames must be byte-identical");
    }
    match protocol::decode::<Response>(&frames[0]).unwrap() {
        Response::Batch(batch::Response::Localized(reply)) => {
            assert_reply_bitwise(&reply, &solve_direct("town", "centroid", SEED).unwrap());
        }
        other => panic!("expected Localized, got {other:?}"),
    }
}

#[test]
fn projections_and_full_frames_share_one_cache_entry() {
    let (addr, handle) = Server::spawn(ServeConfig::default()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    // A projection solves cold; the full reply is then a cache hit that
    // writes the stored frame, and a second projection slices the same
    // cached entry.
    let nodes = [9u64, 0, 9, 3];
    let cold = client
        .localize_nodes("parking-lot", "centroid", SEED, &nodes)
        .unwrap();
    let full = client
        .request_raw(&Request::localize("parking-lot", "centroid", SEED))
        .unwrap();
    let cached = client
        .localize_nodes("parking-lot", "centroid", SEED, &nodes)
        .unwrap();
    let stats = client.status().unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    assert_eq!((stats.solves, stats.cache_hits), (1, 2));
    let Response::Batch(batch::Response::Localized(full)) = protocol::decode(&full).unwrap() else {
        panic!("expected the full Localized reply");
    };
    assert_reply_bitwise(
        &full,
        &solve_direct("parking-lot", "centroid", SEED).unwrap(),
    );
    let sliced = batch::Projection::slice(&full, &nodes).unwrap();
    assert_eq!(cold, sliced, "a cold projection slices the full reply");
    assert_eq!(cached, sliced, "a cached projection slices the full reply");
}

#[test]
fn unknown_names_get_typed_errors_and_the_connection_survives() {
    let (addr, handle) = Server::spawn(ServeConfig::default()).unwrap();
    let mut client = Client::connect(addr).unwrap();

    match client.localize("atlantis", "lss", 1) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::UnknownDeployment),
        other => panic!("expected a typed UnknownDeployment error, got {other:?}"),
    }
    match client.localize("town", "oracle", 1) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::UnknownSolver),
        other => panic!("expected a typed UnknownSolver error, got {other:?}"),
    }
    // Same connection still serves good requests afterwards.
    let reply = client.localize("parking-lot", "centroid", 1).unwrap();
    assert!(reply.localized > 0);
    let stats = client.status().unwrap();
    assert!(stats.errors >= 2);

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn malformed_frames_get_typed_errors_without_dropping_the_connection() {
    let (addr, handle) = Server::spawn(ServeConfig::default()).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();

    // Valid frame, invalid payload (not JSON at all).
    assert_malformed(&mut stream, b"definitely not json");
    // Valid JSON of the wrong shape.
    assert_malformed(&mut stream, br#"{"Nonsense":{"x":1}}"#);

    // The same raw connection still works (framing never desynced).
    match roundtrip(&mut stream, &Request::Batch(batch::Request::Status)) {
        Response::Batch(batch::Response::Status(stats)) => assert!(stats.errors >= 2),
        other => panic!("expected Status, got {other:?}"),
    }

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn oversized_frames_are_rejected_then_the_connection_closes() {
    let config = ServeConfig {
        max_frame: 256,
        ..ServeConfig::default()
    };
    let (addr, handle) = Server::spawn(config).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();

    // Declare a frame far over the server's limit; the payload itself
    // never needs to be sent.
    stream.write_all(&4096u32.to_be_bytes()).unwrap();
    let payload = protocol::read_frame(&mut stream, usize::MAX)
        .unwrap()
        .unwrap();
    match protocol::decode::<Response>(&payload).unwrap() {
        Response::Error(e) => assert_eq!(e.code, ErrorCode::FrameTooLarge),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    // Past an oversized declaration the stream is unsynchronized, so the
    // server closes: the next read sees EOF.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "connection must close after FrameTooLarge");

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn idle_connections_time_out_without_affecting_others() {
    let config = ServeConfig {
        read_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let (addr, handle) = Server::spawn(config).unwrap();
    let mut idle = TcpStream::connect(addr).unwrap();
    let mut busy = Client::connect(addr).unwrap();

    // A connection that stays active outlives the idle timeout: each
    // frame resets the idle clock.
    let active = std::thread::spawn(move || {
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(50));
            busy.status().unwrap();
        }
        busy
    });
    // Meanwhile the idle connection is closed by the server.
    let mut rest = Vec::new();
    idle.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "idle connection must be closed cleanly");

    let mut busy = active.join().expect("active connection must survive");
    let reply = busy.localize("parking-lot", "centroid", 1).unwrap();
    assert!(reply.localized > 0);

    busy.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn protocol_version_mismatch_is_a_typed_error() {
    let (addr, handle) = Server::spawn(ServeConfig::default()).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    // The server speaks exactly one version: older and newer ones are
    // refused alike, and the connection keeps serving after each.
    for version in [1, 2, PROTOCOL_VERSION + 1] {
        match roundtrip(&mut stream, &Request::Hello { protocol: version }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnsupportedProtocol),
            other => panic!("expected UnsupportedProtocol for v{version}, got {other:?}"),
        }
    }
    match roundtrip(
        &mut stream,
        &Request::Hello {
            protocol: PROTOCOL_VERSION,
        },
    ) {
        Response::Hello { protocol, .. } => assert_eq!(protocol, PROTOCOL_VERSION),
        other => panic!("expected Hello, got {other:?}"),
    }
    let localize = Request::localize("parking-lot", "centroid", 1);
    match roundtrip(&mut stream, &localize) {
        Response::Batch(batch::Response::Localized(reply)) => assert!(reply.localized > 0),
        other => panic!("expected Localized, got {other:?}"),
    }

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn json_depth_bombs_get_typed_errors_and_the_connection_survives() {
    let (addr, handle) = Server::spawn(ServeConfig::default()).unwrap();
    let mut stream = TcpStream::connect(addr).unwrap();
    // 400 KB of `[`: well under the 1 MiB frame cap, and deep enough to
    // overflow a thread stack in an unbounded recursive-descent parser.
    assert_malformed(&mut stream, &[b'['; 400_000]);
    // Same connection, normal service.
    let localize = Request::localize("parking-lot", "centroid", 1);
    match roundtrip(&mut stream, &localize) {
        Response::Batch(batch::Response::Localized(reply)) => {
            assert_reply_bitwise(&reply, &solve_direct("parking-lot", "centroid", 1).unwrap());
        }
        other => panic!("expected Localized, got {other:?}"),
    }

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn shutdown_is_acknowledged_and_later_connects_fail() {
    let (addr, handle) = Server::spawn(ServeConfig::default()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    client.localize("parking-lot", "centroid", 1).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();

    // The listener is gone: a fresh connect must fail (or be refused at
    // the first request on platforms that accept briefly).
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut c) => {
            assert!(c.localize("parking-lot", "centroid", 1).is_err());
        }
    }
}

#[test]
fn full_queues_reject_with_a_typed_overloaded_error() {
    // One worker, a queue bound of one, and a solve floor: a blocker
    // occupies the worker, a second distinct request fills the queue, and
    // a third must be rejected with `Overloaded` instead of waiting —
    // without taking the server down.
    let config = ServeConfig {
        workers: 1,
        queue_depth: 1,
        solve_floor: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let (addr, handle) = Server::spawn(config).unwrap();

    let blocker = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.localize("parking-lot", "centroid", 11).unwrap();
    });
    let mut control = Client::connect(addr).unwrap();
    while control.status().unwrap().solves_started < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Fills the one queue slot (distinct triple: no coalescing).
    let queued = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.localize("town", "centroid", 12).unwrap();
    });
    while control.status().unwrap().batch_queued < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = control.status().unwrap();
    assert_eq!(
        stats.queue_depth, 1,
        "stats must report the configured bound"
    );
    assert_eq!(stats.batch_queued, 1);

    // A third distinct request now finds the queue full.
    let mut rejected = Client::connect(addr).unwrap();
    match rejected.localize("grass-grid", "lss", 13) {
        Err(ClientError::Server(e)) => {
            assert_eq!(e.code, ErrorCode::Overloaded, "got {e}");
            assert!(e.message.contains("retry"), "got {:?}", e.message);
        }
        other => panic!("expected an Overloaded rejection, got {other:?}"),
    }

    blocker.join().unwrap();
    queued.join().unwrap();

    // The rejection is not sticky: once the queue drains, the *same
    // connection* can submit the same triple and get the real answer.
    let reply = rejected.localize("grass-grid", "lss", 13).unwrap();
    let direct = solve_direct("grass-grid", "lss", 13).unwrap();
    assert_reply_bitwise(&reply, &direct);

    let stats = control.status().unwrap();
    assert!(stats.overloaded >= 1, "rejections must be counted");
    assert_eq!(stats.batch_queued, 0, "queue gauge must drain to zero");
    control.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

/// Opens a raw connection, proves its handler runs with one round trip,
/// then sends a frame prefix declaring 100 bytes plus only 10 of them,
/// so the handler stalls mid-frame.
fn stall_mid_frame(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    roundtrip(&mut stream, &Request::Batch(batch::Request::Status));
    stream.write_all(&100u32.to_be_bytes()).unwrap();
    stream.write_all(&[b' '; 10]).unwrap();
    stream
}

#[test]
fn a_connection_stalled_mid_frame_closes_after_the_read_timeout() {
    let timeout = Duration::from_millis(800);
    let config = ServeConfig {
        read_timeout: timeout,
        ..ServeConfig::default()
    };
    let (addr, handle) = Server::spawn(config).unwrap();
    let started = Instant::now();
    let mut stalled = stall_mid_frame(addr);

    // Another client is served while the stalled frame is pending.
    let mut client = Client::connect(addr).unwrap();
    let reply = client.localize("parking-lot", "centroid", 1).unwrap();
    assert_reply_bitwise(&reply, &solve_direct("parking-lot", "centroid", 1).unwrap());
    let served = started.elapsed();

    let mut rest = Vec::new();
    stalled.read_to_end(&mut rest).unwrap();
    let closed = started.elapsed();
    assert!(rest.is_empty(), "a stalled frame gets no answer");
    assert!(closed >= timeout, "closed early, after {closed:?}");
    assert!(
        served < closed,
        "served at {served:?}, closed at {closed:?}"
    );

    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn shutdown_does_not_wait_for_a_connection_stalled_mid_frame() {
    let config = ServeConfig {
        read_timeout: Duration::from_secs(30),
        ..ServeConfig::default()
    };
    let (addr, handle) = Server::spawn(config).unwrap();
    let mut stalled = stall_mid_frame(addr);
    let mut client = Client::connect(addr).unwrap();

    let started = Instant::now();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
    let waited = started.elapsed();
    assert!(waited < Duration::from_secs(5), "shutdown took {waited:?}");
    let mut rest = Vec::new();
    stalled.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "the stalled frame gets no answer");
}

#[test]
fn waiting_solves_run_in_arrival_order() {
    // One turn, held by a floored blocker; three distinct misses then
    // queue one after another and must complete in the order sent.
    let config = ServeConfig::default()
        .with_workers(1)
        .with_solve_floor(Duration::from_millis(150));
    let (addr, handle) = Server::spawn(config).unwrap();
    let (done, completions) = mpsc::channel();
    let send = |seed: u64| {
        let done = done.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client
                .set_reply_timeout(Some(Duration::from_secs(20)))
                .unwrap();
            client.localize("parking-lot", "centroid", seed).unwrap();
            done.send(seed).unwrap();
        })
    };
    let mut control = Client::connect(addr).unwrap();
    let mut threads = vec![send(100)];
    while control.status().unwrap().solves_started < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }
    for (queued, seed) in [1, 2, 3].into_iter().zip([101, 102, 103]) {
        threads.push(send(seed));
        while control.status().unwrap().batch_queued < queued {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    for thread in threads {
        thread.join().unwrap();
    }
    let order: Vec<u64> = completions.try_iter().collect();
    assert_eq!(order, [100, 101, 102, 103]);

    control.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}
