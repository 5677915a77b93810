//! Graceful shutdown of the serving binaries' cores: in-flight requests
//! drain and their replies are flushed before the listener goes away,
//! and a second `shutdown()` is an idempotent no-op rather than a
//! deadlock or a double-join panic.

use bytes::BytesMut;
use staq_repro::prelude::*;
use staq_serve::codec::{self, ErrorCode};
use staq_serve::presets::CityPreset;
use staq_serve::{MuxClient, Request, Response, ServerConfig};
use staq_shard::{route, Backend, RouterConfig, ShardSupervisor, SupervisorConfig, ThreadBackend};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn query(category: PoiCategory) -> Request {
    Request::Query { category, query: AccessQuery::MeanAccess, approx: false }
}

#[test]
fn serve_shutdown_drains_in_flight_requests_and_is_idempotent() {
    let engine = CityPreset::Test.engine(0.05, 42);
    let mut server = staq_serve::serve(
        engine,
        &ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..Default::default() },
    )
    .expect("bind server");
    let addr = server.addr();

    // A cold query is a full pipeline run — slow enough that shutdown
    // begins while it is still executing.
    let mux = MuxClient::connect(addr).expect("connect");
    let in_flight = {
        let mux = mux.clone();
        std::thread::spawn(move || mux.call(&query(PoiCategory::School)))
    };
    std::thread::sleep(Duration::from_millis(20)); // let the worker take it

    server.shutdown();

    // The caller whose request was already admitted gets a real answer,
    // not a hangup: drain completes the job and flushes the reply.
    let answer = in_flight.join().unwrap().expect("in-flight reply must be flushed");
    assert!(matches!(answer, Response::Query(_)), "{answer:?}");

    // Stopping twice is a no-op.
    server.shutdown();

    // The listener is really gone.
    assert!(TcpStream::connect(addr).is_err(), "listener must be closed after shutdown");
}

/// A started fleet of `n` in-process backends over the test city.
fn fleet(n: usize) -> ShardSupervisor {
    let backends: Vec<Box<dyn Backend>> = (0..n)
        .map(|_| {
            Box::new(ThreadBackend::new(2, || Arc::new(CityPreset::Test.engine(0.05, 42))))
                as Box<dyn Backend>
        })
        .collect();
    ShardSupervisor::start(backends, SupervisorConfig::default()).expect("fleet up")
}

#[test]
fn shard_router_shutdown_is_idempotent_and_closes_the_listener() {
    let mut router = route(fleet(2), &RouterConfig::default()).expect("bind router");
    let addr = router.addr();

    let c = MuxClient::connect(addr).expect("connect");
    c.query(&AccessQuery::MeanAccess, PoiCategory::School).expect("routed query");

    router.shutdown();
    router.shutdown(); // idempotent
    assert!(TcpStream::connect(addr).is_err(), "router listener must be closed after shutdown");
}

/// What one flooding connection saw: `(req_id, reply)` in arrival order,
/// and whether the stream ended in a clean EOF (the server had read
/// every byte this side wrote) rather than a reset.
struct Flooded {
    replies: Vec<(u64, Response)>,
    clean_eof: bool,
}

const FLOOD_CONNS: usize = 48;
const FLOOD_FRAMES: u64 = 1500;
/// Ample time to flush every owed reply, however loaded the test host:
/// a reply cut off by the flush deadline would read as a lost one.
const FLOOD_FLUSH: Duration = Duration::from_secs(30);

/// Pipelines [`FLOOD_FRAMES`] warm queries (IDs `1..=FLOOD_FRAMES`) down
/// one raw socket, reports in at `all_written`, then reads until the
/// server hangs up.
fn flood(addr: SocketAddr, all_written: &Barrier) -> Flooded {
    let mut burst = BytesMut::new();
    for id in 1..=FLOOD_FRAMES {
        codec::encode_request_mux(&query(PoiCategory::School), id, None, &mut burst);
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(&burst).expect("the burst fits the socket buffers");
    all_written.wait();

    let mut buf = BytesMut::new();
    let mut scratch = [0u8; 16 * 1024];
    let clean_eof = loop {
        match stream.read(&mut scratch) {
            Ok(0) => break true,
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
            Err(_) => break false,
        }
    };
    let mut replies = Vec::new();
    while let Some(d) = codec::decode_response_full(&mut buf).expect("well-formed replies") {
        replies.push((d.req_id, d.response));
    }
    Flooded { replies, clean_eof }
}

/// Shuts a front end down while [`FLOOD_CONNS`] connections are mid-burst
/// and checks what every connection got back. The reactor finishes the
/// readiness batch it is in after intake is told to stop, so frames keep
/// being decoded after the job queue is revoked; each of those is owed
/// exactly one `Unavailable`. Returns how many such replies were seen.
fn flood_through_shutdown(addr: SocketAddr, shutdown: impl FnOnce()) -> usize {
    // Warm the category so admitted queries are cheap.
    MuxClient::connect(addr)
        .expect("connect")
        .query(&AccessQuery::MeanAccess, PoiCategory::School)
        .expect("warm-up query");

    // Every burst is in the server's socket buffers before the shutdown
    // starts; the reactor, far slower at decoding than the clients are
    // at writing, is somewhere in the middle of them.
    let all_written = Arc::new(Barrier::new(FLOOD_CONNS + 1));
    let conns: Vec<_> = (0..FLOOD_CONNS)
        .map(|_| {
            let all_written = Arc::clone(&all_written);
            std::thread::spawn(move || flood(addr, &all_written))
        })
        .collect();
    all_written.wait();
    shutdown();

    let mut unavailable = 0;
    for conn in conns {
        let Flooded { replies, clean_eof } = conn.join().unwrap();
        let mut seen = vec![false; FLOOD_FRAMES as usize + 1];
        for (id, reply) in &replies {
            assert!((1..=FLOOD_FRAMES).contains(id), "reply to an id never sent: {id}");
            assert!(!std::mem::replace(&mut seen[*id as usize], true), "id {id} answered twice");
            match reply {
                Response::Query(_) => {}
                Response::Error { code: ErrorCode::Overloaded, .. } => {}
                Response::Error { code: ErrorCode::Unavailable, .. } => unavailable += 1,
                other => panic!("id {id}: {other:?}"),
            }
        }
        if clean_eof {
            // Nothing this side wrote was left unread, so every frame
            // was decoded — before or after the drain began.
            assert_eq!(
                replies.len() as u64,
                FLOOD_FRAMES,
                "a decoded frame went unanswered (or was answered twice)"
            );
        }
    }
    unavailable
}

/// Runs the flood against fresh front ends until one shutdown lands
/// inside a readiness batch (frames decoded after the drain began).
fn shutdown_answers_late_frames_unavailable(
    mut boot: impl FnMut() -> (SocketAddr, Box<dyn FnOnce()>),
) {
    for _ in 0..5 {
        let (addr, shutdown) = boot();
        if flood_through_shutdown(addr, shutdown) > 0 {
            return;
        }
    }
    panic!("five floods and no frame was ever decoded after the drain began");
}

#[test]
fn serve_answers_frames_decoded_after_drain_began_exactly_once() {
    shutdown_answers_late_frames_unavailable(|| {
        let mut server = staq_serve::serve(
            CityPreset::Test.engine(0.05, 42),
            &ServerConfig { workers: 2, flush_timeout: FLOOD_FLUSH, ..Default::default() },
        )
        .expect("bind server");
        (server.addr(), Box::new(move || server.shutdown()))
    });
}

#[test]
fn router_answers_frames_decoded_after_drain_began_exactly_once() {
    shutdown_answers_late_frames_unavailable(|| {
        let cfg = RouterConfig { flush_timeout: FLOOD_FLUSH, ..Default::default() };
        let mut router = route(fleet(1), &cfg).expect("bind router");
        (router.addr(), Box::new(move || router.shutdown()))
    });
}
