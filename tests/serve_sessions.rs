//! Loopback-TCP integration tests for the protocol's streaming
//! sessions: lifecycle, determinism against directly-driven trackers,
//! TTL eviction under an injected clock, quota rejections, partial
//! reads, and ticks that never wait behind batch solves — all against a
//! real server on an ephemeral port.

use std::sync::Arc;
use std::time::Duration;

use resilient_localization::deploy::mobility;
use resilient_localization::localization::tracking::{
    solution_fingerprint, StreamingTracker, TickObservation, Tracker, TrackerConfig,
};
use resilient_localization::serve::client::{Client, ClientError};
use resilient_localization::serve::protocol::stream::{StreamSource, TrackerSpec};
use resilient_localization::serve::protocol::{batch, stream, ErrorCode, Request, Response};
use resilient_localization::serve::{ManualClock, ServeConfig, Server};

const SEED: u64 = 20050614;

/// A deterministic observation stream over the town mobility preset —
/// the same recipe both sides of the parity tests consume.
fn town_stream(ticks: usize) -> Vec<TickObservation> {
    mobility::preset("town-mobile")
        .expect("registry preset")
        .with_ticks(ticks)
        .trace(SEED)
        .observations
}

fn town_source() -> StreamSource {
    StreamSource::Preset {
        name: "town-mobile".into(),
    }
}

/// The serialized payload bytes `response` would travel as — what
/// `request_raw` returns, for byte-identity assertions.
fn payload_bytes(response: &Response) -> Vec<u8> {
    serde_json::to_string(response)
        .expect("responses serialize infallibly")
        .into_bytes()
}

#[test]
fn wire_sessions_match_direct_trackers_for_any_worker_count() {
    let observations = town_stream(6);
    // The in-process reference: one tracker fed the same stream.
    let mut direct = StreamingTracker::with_lss(TrackerConfig::new(SEED));
    let mut direct_prints = Vec::new();
    for obs in &observations {
        direct.observe(obs).expect("direct tick");
        direct_prints.push(solution_fingerprint(direct.latest().unwrap()));
    }

    for workers in [1usize, 4] {
        let config = ServeConfig::default().with_workers(workers);
        let (addr, handle) = Server::spawn(config).unwrap();
        let mut client = Client::connect(addr).unwrap();
        let mut session = client
            .open_stream(town_source(), TrackerSpec::default(), SEED)
            .unwrap();

        // Push in two chunks; every per-push fingerprint must match the
        // directly-driven tracker at the same point in the stream.
        let (head, tail) = observations.split_at(2);
        let first = session.push(head).unwrap();
        assert_eq!(first.accepted, 2);
        assert_eq!(first.ticks, 2);
        assert_eq!(
            first.fingerprint, direct_prints[1],
            "workers={workers}: fingerprint diverged after the first push"
        );
        let second = session.push(tail).unwrap();
        assert_eq!(second.ticks, observations.len() as u64);
        assert_eq!(
            second.fingerprint,
            *direct_prints.last().unwrap(),
            "workers={workers}: fingerprint diverged after the second push"
        );
        assert_eq!(second.cold_solves, direct.cold_solves());
        assert_eq!(second.warm_updates, direct.warm_updates());

        // The read-back solution is the direct tracker's, bit for bit.
        let read = session.read().unwrap();
        assert_eq!(read.fingerprint, *direct_prints.last().unwrap());
        let map = direct.latest().unwrap().positions();
        assert_eq!(read.positions.len(), map.len());
        for (i, served) in read.positions.iter().enumerate() {
            let expected = map
                .get(resilient_localization::localization::types::NodeId(i))
                .map(|p| (p.x, p.y));
            match (served, expected) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.0.to_bits(), b.0.to_bits());
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
                (None, None) => {}
                other => panic!("workers={workers}: node {i} diverged: {other:?}"),
            }
        }

        assert_eq!(session.close().unwrap(), observations.len() as u64);
        client.shutdown().unwrap();
        handle.join().unwrap().unwrap();
    }
}

#[test]
fn session_lifecycle_and_partial_reads_over_the_wire() {
    let (addr, handle) = Server::spawn(ServeConfig::default()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    let observations = town_stream(3);

    let mut session = client
        .open_stream(town_source(), TrackerSpec::default(), SEED)
        .unwrap();
    let universe = session.universe();
    assert!(universe > 0);
    let token = session.token();

    // Reading before any tick is a typed error, not a panic or a hang.
    match session.read() {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::SolveFailed),
        other => panic!("expected a typed no-solution error, got {other:?}"),
    }

    session.push(&observations).unwrap();
    let full = session.read().unwrap();
    assert_eq!(full.positions.len(), universe as usize);
    assert_eq!(full.nodes, None);

    // A projected read slices the full frame exactly — and the raw
    // reply frame is byte-identical to serializing that slice.
    let nodes = vec![3u64, 0, 3];
    let projected = session.read_nodes(&nodes).unwrap();
    assert_eq!(projected.nodes.as_deref(), Some(&nodes[..]));
    assert_eq!(projected.fingerprint, full.fingerprint);
    for (slot, &id) in projected.positions.iter().zip(&nodes) {
        assert_eq!(*slot, full.positions[id as usize]);
    }
    session.leak();
    let expected = Response::Stream(stream::Response::Solution(stream::SolutionReply {
        nodes: Some(nodes.clone()),
        positions: nodes
            .iter()
            .map(|&id| full.positions[id as usize])
            .collect(),
        localized: nodes
            .iter()
            .filter(|&&id| full.positions[id as usize].is_some())
            .count() as u64,
        ..full.clone()
    }));
    let raw = client
        .request_raw(&Request::Stream(stream::Request::ReadSolution {
            session: token,
            nodes: Some(nodes.clone()),
        }))
        .unwrap();
    assert_eq!(
        raw,
        payload_bytes(&expected),
        "projected read frame must be byte-identical to slicing the full frame"
    );

    // Out-of-universe projection ids are typed errors.
    let mut session =
        resilient_localization::serve::StreamSession::adopt(&mut client, token, universe);
    match session.read_nodes(&[universe]) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::UnknownNode),
        other => panic!("expected UnknownNode, got {other:?}"),
    }

    // Close tears the session down; its token stops resolving.
    assert_eq!(session.close().unwrap(), observations.len() as u64);
    let mut gone =
        resilient_localization::serve::StreamSession::adopt(&mut client, token, universe);
    match gone.read() {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::UnknownSession),
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    gone.leak();

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn invalid_pushed_edges_get_typed_errors_and_the_connection_survives() {
    let (addr, handle) = Server::spawn(ServeConfig::default()).unwrap();
    let mut client = Client::connect(addr).unwrap();
    let observations = town_stream(1);
    let good = stream::WireObservation::from_observation(&observations[0]);
    let mut session = client
        .open_stream(town_source(), TrackerSpec::default(), SEED)
        .unwrap();
    // A zero weight and a negative distance pass the wire decoder, and
    // a universe one slot wider than the session's passes it too; each
    // must come back as a typed InvalidObservation, not a dropped
    // connection.
    let mut bad_inputs: Vec<_> = [(0, 1, 5.0, 0.0), (0, 1, -1.0, 1.0)]
        .into_iter()
        .map(|edge| {
            let mut bad = good.clone();
            bad.edges.push(edge);
            bad
        })
        .collect();
    // (Truth must cover every slot, so the wider tick carries none.)
    let mut wider = good.clone();
    wider.universe = session.universe() + 1;
    wider.truth = None;
    bad_inputs.push(wider);
    for (k, bad) in bad_inputs.into_iter().enumerate() {
        match session.push_wire(&[bad]) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::InvalidObservation),
            other => panic!("expected InvalidObservation for bad input {k}, got {other:?}"),
        }
    }
    // The same connection keeps serving, and the session took no tick.
    session.push_wire(&[good]).unwrap();
    assert_eq!(session.close().unwrap(), 1);
    client.status().unwrap();

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn idle_sessions_evict_deterministically_under_an_injected_clock() {
    let clock = Arc::new(ManualClock::new());
    let config = ServeConfig {
        session_ttl: Duration::from_secs(60),
        clock: Some(clock.clone()),
        ..ServeConfig::default()
    };
    let (addr, handle) = Server::spawn(config).unwrap();
    let mut client = Client::connect(addr).unwrap();

    let session = client
        .open_stream(town_source(), TrackerSpec::default(), SEED)
        .unwrap();
    let token = session.leak();
    assert_eq!(client.status().unwrap().sessions_open, 1);

    // One second short of the TTL the session survives a sweep...
    clock.advance(Duration::from_secs(59));
    let mut survivor = resilient_localization::serve::StreamSession::adopt(&mut client, token, 0);
    survivor.push(&town_stream(1)).unwrap();
    survivor.leak();

    // ...and the push re-armed the timer: another 59 s is still fine,
    // but 60 s of idleness evicts.
    clock.advance(Duration::from_secs(60));
    let mut evicted = resilient_localization::serve::StreamSession::adopt(&mut client, token, 0);
    match evicted.read() {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::SessionEvicted),
        other => panic!("expected SessionEvicted, got {other:?}"),
    }
    evicted.leak();

    let stats = client.status().unwrap();
    assert_eq!(stats.sessions_open, 0);
    assert_eq!(stats.sessions_evicted, 1);

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn session_quotas_reject_with_typed_overloaded_errors() {
    let config = ServeConfig {
        session_capacity: 1,
        ..ServeConfig::default()
    };
    let (addr, handle) = Server::spawn(config).unwrap();
    let mut client = Client::connect(addr).unwrap();

    let session = client
        .open_stream(town_source(), TrackerSpec::default(), SEED)
        .unwrap();
    let token = session.leak();

    // The capacity quota: a second open is rejected, typed.
    match client.open_stream(town_source(), TrackerSpec::default(), SEED + 1) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::Overloaded),
        other => panic!("expected Overloaded on the second open, got {other:?}"),
    }

    // The rejection is not sticky: the open session still takes a
    // push, and closing frees the capacity for a new session.
    let mut session = resilient_localization::serve::StreamSession::adopt(&mut client, token, 0);
    session.push(&town_stream(1)).unwrap();
    session.close().unwrap();
    let reopened = client
        .open_stream(town_source(), TrackerSpec::default(), SEED + 1)
        .unwrap();
    reopened.close().unwrap();

    let stats = client.status().unwrap();
    assert!(stats.overloaded >= 1, "quota rejections must be counted");
    assert_eq!(stats.session_capacity, 1);
    assert_eq!(stats.ticks_served, 1);

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn batch_projections_serve_from_the_same_cache_byte_identically() {
    let (addr, handle) = Server::spawn(ServeConfig::default()).unwrap();
    let mut client = Client::connect(addr).unwrap();

    // Warm the cache with the full frame, then project against it.
    let full = client.localize("parking-lot", "centroid", SEED).unwrap();
    let before = client.status().unwrap();
    let nodes = vec![2u64, 2, 0, 14];
    let projection = client
        .localize_nodes("parking-lot", "centroid", SEED, &nodes)
        .unwrap();
    let after = client.status().unwrap();
    assert_eq!(
        after.cache_hits,
        before.cache_hits + 1,
        "the projection must be served from the full-frame cache entry"
    );
    assert_eq!(after.solves, before.solves, "no new solve for a projection");
    assert_eq!(
        projection,
        batch::Projection::slice(&full, &nodes).unwrap(),
        "a served projection is exactly the slice of the full reply"
    );

    // Raw-frame byte identity against serializing the slice.
    let raw = client
        .request_raw(&Request::Batch(batch::Request::Localize {
            deployment: "parking-lot".into(),
            solver: "centroid".into(),
            seed: SEED,
            nodes: Some(nodes.clone()),
        }))
        .unwrap();
    assert_eq!(
        raw,
        payload_bytes(&Response::Batch(batch::Response::Projected(
            batch::Projection::slice(&full, &nodes).unwrap()
        )))
    );

    // Out-of-universe ids are typed errors and don't poison the cache.
    match client.localize_nodes("parking-lot", "centroid", SEED, &[999]) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, ErrorCode::UnknownNode),
        other => panic!("expected UnknownNode, got {other:?}"),
    }
    let again = client.localize("parking-lot", "centroid", SEED).unwrap();
    assert_eq!(again, full);

    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn pushed_ticks_do_not_wait_behind_a_batch_solve() {
    // One worker, held by a fresh solve for at least the floor: a tick
    // pushed meanwhile must come back before that solve completes.
    let config = ServeConfig::default()
        .with_workers(1)
        .with_solve_floor(Duration::from_secs(3));
    let (addr, handle) = Server::spawn(config).unwrap();
    let solve = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.localize("town", "centroid", SEED).unwrap()
    });
    let mut client = Client::connect(addr).unwrap();
    while client.status().unwrap().solves_started < 1 {
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut session = client
        .open_stream(town_source(), TrackerSpec::default(), SEED)
        .unwrap();
    let reply = session.push(&town_stream(1)).unwrap();
    assert_eq!(reply.accepted, 1);
    session.close().unwrap();
    assert_eq!(
        client.status().unwrap().solves,
        0,
        "the tick waited for the batch solve holding the only worker"
    );

    solve.join().unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}
