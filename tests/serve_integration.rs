//! End-to-end tests of the staq-serve subsystem over real loopback TCP:
//! many concurrent connections, single-flight cold-cache semantics
//! observable through `Stats.pipeline_runs`, scenario edits over the
//! wire, protocol error handling, and graceful shutdown.

use staq_repro::gtfs::Delta;
use staq_repro::prelude::*;
use staq_serve::codec::{self, ErrorCode};
use staq_serve::presets::CityPreset;
use staq_serve::{ClientError, MuxClient, Response, ServerConfig, ServerHandle};
use staq_shard::{route, Backend, RouterConfig, ShardSupervisor, SupervisorConfig, ThreadBackend};
use std::net::SocketAddr;
use std::sync::Arc;

fn start_server(workers: usize) -> ServerHandle {
    let engine = CityPreset::Test.engine(0.05, 42);
    staq_serve::serve(
        engine,
        &ServerConfig { addr: "127.0.0.1:0".into(), workers, ..Default::default() },
    )
    .expect("bind loopback server")
}

/// A route the delta validator refuses: it needs at least two stops.
fn one_stop_route() -> Delta {
    Delta::AddRoute { stops: vec![Point::new(0.0, 0.0)], headway_s: 600 }
}

#[test]
fn sixty_four_concurrent_connections_share_one_pipeline_run() {
    let mut server = start_server(8);
    let addr = server.addr();

    // 64 clients connect at once and all demand the same cold category.
    const CONNS: usize = 64;
    let answers: Vec<QueryAnswer> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|_| {
                scope.spawn(move |_| {
                    let c = MuxClient::connect(addr).expect("connect");
                    c.query(&AccessQuery::MeanAccess, PoiCategory::School).expect("query answered")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();

    assert_eq!(answers.len(), CONNS);
    for a in &answers[1..] {
        assert_eq!(a, &answers[0], "all clients must see the same answer");
    }
    match &answers[0] {
        QueryAnswer::MeanAccess { mean_mac, n_zones, .. } => {
            assert!(*mean_mac > 0.0);
            assert!(*n_zones > 0);
        }
        other => panic!("{other:?}"),
    }

    // The single-flight guarantee, asserted over the wire: 64 concurrent
    // cold queries ran the SSR pipeline exactly once.
    let control = MuxClient::connect(addr).expect("connect");
    let stats = control.stats().expect("stats");
    assert_eq!(
        stats.pipeline_runs, 1,
        "cold category under concurrent demand must run the pipeline once"
    );
    assert_eq!(stats.cached, vec![PoiCategory::School]);
    assert_eq!(stats.workers, 8);
    assert!(stats.requests_served >= CONNS as u64);

    // Warm queries never recompute.
    for _ in 0..10 {
        control.query(&AccessQuery::MeanAccess, PoiCategory::School).expect("warm");
        control.measures(PoiCategory::School).expect("warm measures");
    }
    assert_eq!(control.stats().expect("stats").pipeline_runs, 1);

    server.shutdown();
}

#[test]
fn edits_over_the_wire_invalidate_precisely() {
    let mut server = start_server(4);
    let c = MuxClient::connect(server.addr()).expect("connect");

    // Warm two categories: two pipeline runs.
    let school = c.measures(PoiCategory::School).expect("school");
    c.measures(PoiCategory::Hospital).expect("hospital");
    assert_eq!(c.stats().unwrap().pipeline_runs, 2);

    // A POI edit invalidates only its own category.
    let pos = {
        // Any in-city position: reuse a zone centroid shipped in measures
        // is not possible (measures carry no coordinates), so probe via a
        // route-agnostic point near the origin corner of the synth grid.
        Point::new(1000.0, 1000.0)
    };
    c.add_poi(PoiCategory::School, pos).expect("add_poi acked");
    let stats = c.stats().unwrap();
    assert_eq!(stats.cached, vec![PoiCategory::Hospital], "school dropped, hospital kept");

    // Hospital is still warm (no recompute)...
    c.query(&AccessQuery::MeanAccess, PoiCategory::Hospital).expect("warm hospital");
    assert_eq!(c.stats().unwrap().pipeline_runs, 2);
    // ...while School recomputes once, and differs from the pre-edit world.
    let school_after = c.measures(PoiCategory::School).expect("recomputed school");
    assert_eq!(c.stats().unwrap().pipeline_runs, 3);
    assert_ne!(school, school_after, "an added school must change the measures");

    // A bus-route edit invalidates everything.
    let stops = vec![Point::new(1000.0, 1000.0), Point::new(4000.0, 4000.0)];
    c.apply_delta(0, &Delta::AddRoute { stops, headway_s: 600 }).expect("route acked");
    assert!(c.stats().unwrap().cached.is_empty(), "schedule edits drop all categories");

    server.shutdown();
}

#[test]
fn semantic_errors_keep_the_connection_usable() {
    let mut server = start_server(2);
    let c = MuxClient::connect(server.addr()).expect("connect");

    // A one-stop route is rejected with an error frame, not a hangup.
    match c.apply_delta(0, &one_stop_route()) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, ErrorCode::Invalid);
            assert!(message.contains("two stops"), "{message}");
        }
        other => panic!("expected server error, got {other:?}"),
    }
    // Same connection still answers.
    let stats = c.stats().expect("stats after error");
    assert_eq!(stats.pipeline_runs, 0);

    server.shutdown();
}

#[test]
fn non_finite_point_coordinates_are_rejected_not_answered() {
    let mut server = start_server(2);
    let c = MuxClient::connect(server.addr()).expect("connect");
    // Every distance to a NaN or infinite point is NaN or infinite, so a
    // nearest-centroid scan would keep its first candidate and answer
    // with that zone's measures.
    let payload_nan = f64::from_bits(0x7ff8_dead_beef_0001);
    let bad = [
        (f64::NAN, 300.0),
        (400.0, payload_nan),
        (f64::INFINITY, 0.0),
        (f64::NEG_INFINITY, f64::NAN),
    ];
    for (x, y) in bad {
        match c.query(&AccessQuery::PointAccess { x, y }, PoiCategory::School) {
            Err(ClientError::Server { code, message }) => {
                assert_eq!(code, ErrorCode::Invalid);
                assert!(message.contains("finite"), "{message}");
            }
            other => panic!("({x}, {y}) must be refused, got {other:?}"),
        }
    }
    let ok = c.query(&AccessQuery::PointAccess { x: 400.0, y: 300.0 }, PoiCategory::School);
    assert!(matches!(ok, Ok(QueryAnswer::PointAccess { .. })), "{ok:?}");
    server.shutdown();
}

#[test]
fn malformed_frames_get_an_error_and_a_hangup() {
    use std::io::{Read, Write};

    let mut server = start_server(2);
    let addr: SocketAddr = server.addr();

    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    // Valid length prefix, bogus version byte.
    raw.write_all(&[0, 0, 0, 2, 99, 0x01]).expect("write");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read until server hangup");
    // An error frame came back before the close: kind byte 0xFF.
    assert!(reply.len() > 6, "server must reply before hanging up");
    assert_eq!(reply[5], 0xFF, "reply must be an error frame");

    // A fresh, well-behaved connection is unaffected.
    let c = MuxClient::connect(addr).expect("connect");
    c.stats().expect("stats");

    server.shutdown();
}

/// A well-formed frame of the previous wire version (v3: no request ID,
/// no flags byte) draws exactly one `BadRequest` error frame and then
/// EOF; the next connection is served normally.
fn old_version_frame_gets_one_error_frame_then_eof(addr: SocketAddr) {
    use std::io::{Read, Write};

    let mut v3_stats = vec![0, 0, 0, 18, 3, 0x05];
    v3_stats.extend_from_slice(&[0u8; 16]); // trace id + span id, untraced
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(&v3_stats).expect("write");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read until server hangup");

    let mut buf = bytes::BytesMut::new();
    buf.extend_from_slice(&reply);
    match codec::decode_response(&mut buf).expect("a well-formed reply") {
        Some(Response::Error { code: ErrorCode::BadRequest, message }) => {
            assert!(message.contains("unsupported wire version 3"), "{message}")
        }
        other => panic!("expected one BadRequest error frame, got {other:?}"),
    }
    assert!(buf.is_empty(), "exactly one frame precedes the hangup: {buf:?}");

    let c = MuxClient::connect(addr).expect("connect");
    c.stats().expect("the next connection is served normally");
}

#[test]
fn old_version_frames_are_refused_by_the_server() {
    let mut server = start_server(2);
    old_version_frame_gets_one_error_frame_then_eof(server.addr());
    server.shutdown();
}

#[test]
fn old_version_frames_are_refused_by_the_router() {
    let backend: Box<dyn Backend> =
        Box::new(ThreadBackend::new(2, || Arc::new(CityPreset::Test.engine(0.05, 42))));
    let sup = ShardSupervisor::start(vec![backend], SupervisorConfig::default()).expect("fleet up");
    let mut router = route(sup, &RouterConfig::default()).expect("bind router");
    old_version_frame_gets_one_error_frame_then_eof(router.addr());
    router.shutdown();
}

#[test]
fn shutdown_disconnects_idle_clients_cleanly() {
    let mut server = start_server(2);
    let c = MuxClient::connect(server.addr()).expect("connect");
    c.stats().expect("stats");
    assert!(!c.is_poisoned(), "a healthy request/response must not poison");
    server.shutdown();
    // After shutdown the connection is gone: the next call fails rather
    // than hanging, and the failure poisons the client so a pool can
    // detect the broken connection instead of reusing it.
    match c.stats() {
        Err(_) => {}
        Ok(_) => panic!("server answered after shutdown"),
    }
    assert!(c.is_poisoned(), "a mid-call failure must poison the connection");
    match c.stats() {
        Err(ClientError::Poisoned) => {}
        other => panic!("a poisoned client must fail fast, got {other:?}"),
    }
}

#[test]
fn semantic_error_frames_do_not_poison() {
    let mut server = start_server(2);
    let c = MuxClient::connect(server.addr()).expect("connect");
    match c.apply_delta(0, &one_stop_route()) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Invalid),
        other => panic!("expected server error, got {other:?}"),
    }
    assert!(!c.is_poisoned(), "error frames keep the protocol in sync");
    c.stats().expect("connection stays usable");
    server.shutdown();
}
