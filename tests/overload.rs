//! Saturation behaviour of the serving core: a full queue answers
//! `Overloaded` immediately (load shedding, not queueing), requests
//! whose deadline expired while queued are shed *before* execution, and
//! the admission/connection metrics account for every outcome.
//!
//! The same body runs against a backend's front end and against the
//! shard router's — one implementation, two instantiations. Everything
//! lives in ONE `#[test]` because the admission counters are
//! process-global: a second test running in a parallel harness thread
//! would corrupt the accounting.

use bytes::BytesMut;
use staq_net::admission::{ADMITTED, SHED, SHED_EXPIRED};
use staq_repro::prelude::*;
use staq_repro::rt::RtEngine;
use staq_serve::codec;
use staq_serve::pool::{execute, PoolStats};
use staq_serve::presets::CityPreset;
use staq_serve::{MuxClient, Request, Response, ServerConfig};
use staq_shard::{route, Backend, RouterConfig, ShardSupervisor, SupervisorConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn query(category: PoiCategory) -> Request {
    Request::Query { category, query: AccessQuery::MeanAccess, approx: false }
}

fn add_poi(category: PoiCategory, x: f64) -> Request {
    Request::AddPoi { category, pos: staq_repro::geom::Point::new(x, x) }
}

fn is_overloaded(resp: &Response) -> bool {
    matches!(resp, Response::Error { code: staq_serve::codec::ErrorCode::Overloaded, .. })
}

/// Fetches stats, riding out `Overloaded` bounces while the tiny queue
/// drains. Counts every attempt (shed ones included) into `sent`.
fn stats_eventually(mux: &MuxClient, sent: &mut u64) -> staq_serve::StatsReply {
    for _ in 0..100 {
        *sent += 1;
        match mux.call(&Request::Stats).expect("stats") {
            Response::Stats(s) => return s,
            resp if is_overloaded(&resp) => std::thread::sleep(Duration::from_millis(10)),
            other => panic!("{other:?}"),
        }
    }
    panic!("the queue never drained");
}

/// The front end under test — one worker, queue depth one — and how to
/// stop it.
struct Front {
    addr: SocketAddr,
    shutdown: Box<dyn FnOnce()>,
}

fn backend_front() -> Front {
    let engine = CityPreset::Test.engine(0.05, 42);
    let mut server = staq_serve::serve(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_depth: 1,
            ..Default::default()
        },
    )
    .expect("bind server");
    Front { addr: server.addr(), shutdown: Box::new(move || server.shutdown()) }
}

/// A shard with no front end of its own: each connection's frames run
/// straight through `execute` on the connection's thread. Behind the
/// router under test, a real backend would pass every request through a
/// second admission gate feeding the same process-global counters; this
/// one leaves them to the router alone.
struct BareBackend;

impl BareBackend {
    fn serve_conn(mut stream: TcpStream, rt: &RtEngine, stats: &PoolStats) {
        let mut buf = BytesMut::new();
        let mut scratch = [0u8; 4096];
        let mut out = BytesMut::new();
        loop {
            while let Ok(Some(d)) = codec::decode_request_full(&mut buf) {
                out.clear();
                codec::encode_response_to(&execute(rt, stats, 1, &d.request), d.req_id, &mut out);
                if stream.write_all(&out).is_err() {
                    return;
                }
            }
            match stream.read(&mut scratch) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&scratch[..n]),
            }
        }
    }
}

impl Backend for BareBackend {
    fn start(&mut self) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let rt = Arc::new(RtEngine::new(Arc::new(CityPreset::Test.engine(0.05, 42))));
        let stats = Arc::new(PoolStats::default());
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                let (rt, stats) = (Arc::clone(&rt), Arc::clone(&stats));
                std::thread::spawn(move || Self::serve_conn(stream, &rt, &stats));
            }
        });
        Ok(addr)
    }

    fn is_alive(&mut self) -> bool {
        true
    }

    fn kill(&mut self) {}

    fn in_process(&self) -> bool {
        true
    }
}

fn router_front() -> Front {
    let sup = ShardSupervisor::start(vec![Box::new(BareBackend)], SupervisorConfig::default())
        .expect("fleet up");
    let mut router = route(sup, &RouterConfig { workers: 1, queue_depth: 1, ..Default::default() })
        .expect("bind router");
    Front { addr: router.addr(), shutdown: Box::new(move || router.shutdown()) }
}

#[test]
fn saturation_sheds_fast_and_every_outcome_is_accounted_for() {
    saturation(backend_front());
    saturation(router_front());
}

fn saturation(front: Front) {
    let admitted0 = ADMITTED.get();
    let shed0 = SHED.get();
    let expired0 = SHED_EXPIRED.get();
    let frames0 = staq_obs::snapshot();
    let mut sent = 0u64; // valid requests that reached the server
    let mut expected_runs = 0u64; // pipeline runs we deliberately caused

    let mux = MuxClient::connect(front.addr).expect("connect");

    let stats0 = stats_eventually(&mux, &mut sent);

    // ---- part 1: a full queue answers Overloaded fast -----------------
    //
    // One worker, queue depth one. A cold School query occupies the
    // worker for a full pipeline run; a concurrent burst can then park
    // at most one request — the rest must bounce immediately, while the
    // blocker is still running, not after the queue drains behind it.
    let mut bounced = 0u64;
    let mut attempts = 0;
    while bounced == 0 {
        attempts += 1;
        assert!(attempts <= 10, "ten cold bursts with zero sheds: the queue is not bounded");
        // (Re-)chill the School cache so the blocker is a pipeline run.
        let resp = mux.call(&add_poi(PoiCategory::School, 1500.0)).expect("add poi");
        assert!(matches!(resp, Response::AddPoi { .. }));
        sent += 1;
        expected_runs += 1; // the blocker recomputes School below

        crossbeam::scope(|scope| {
            let blocker = {
                let mux = mux.clone();
                scope.spawn(move |_| {
                    let resp = mux.call(&query(PoiCategory::School)).expect("blocker");
                    (Instant::now(), resp)
                })
            };
            std::thread::sleep(Duration::from_millis(5)); // let the worker take it
            let burst: Vec<_> = (0..8)
                .map(|_| {
                    let mux = mux.clone();
                    scope.spawn(move |_| {
                        let resp = mux.call(&query(PoiCategory::School)).expect("burst call");
                        (Instant::now(), resp)
                    })
                })
                .collect();
            let outcomes: Vec<_> = burst.into_iter().map(|h| h.join().unwrap()).collect();
            let (blocker_done, blocker_resp) = blocker.join().unwrap();
            assert!(!is_overloaded(&blocker_resp), "the blocker itself was admitted");
            for (when, resp) in &outcomes {
                if is_overloaded(resp) {
                    bounced += 1;
                    assert!(
                        *when < blocker_done,
                        "an Overloaded reply must not wait for the running request"
                    );
                }
            }
        })
        .unwrap();
        sent += 1 + 8; // blocker + burst
    }

    // ---- part 2: expired deadlines are shed before execution ----------
    //
    // Hospital stays cold throughout. A Hospital query carrying a 1 ms
    // deadline is queued behind a School pipeline run, so by the time
    // the worker sees it, it is dead — it must be shed, never executed,
    // or `cached`/`pipeline_runs` would betray a Hospital run.
    let mut expired_shed = 0u64;
    let mut stats = stats0.clone();
    attempts = 0;
    while expired_shed == 0 {
        attempts += 1;
        assert!(attempts <= 10, "deadline-carrying requests keep executing");
        let resp = mux.call(&add_poi(PoiCategory::School, 2500.0)).expect("add poi");
        assert!(matches!(resp, Response::AddPoi { .. }));
        sent += 1;
        expected_runs += 1; // this attempt's School blocker

        let expired_before = SHED_EXPIRED.get();
        crossbeam::scope(|scope| {
            let blocker = {
                let mux = mux.clone();
                scope.spawn(move |_| mux.call(&query(PoiCategory::School)).expect("blocker"))
            };
            std::thread::sleep(Duration::from_millis(5));
            // The 1 ms deadline doubles as the client-side timeout, so
            // the *client* gives up first; what matters is the server's
            // side of it, checked below through the counters.
            match mux.call_with_deadline(&query(PoiCategory::Hospital), Duration::from_millis(1)) {
                Ok(resp) => assert!(is_overloaded(&resp), "an expired request ran: {resp:?}"),
                Err(staq_serve::ClientError::TimedOut) => {}
                Err(e) => panic!("transport failure: {e:?}"),
            }
            blocker.join().unwrap();
        })
        .unwrap();
        sent += 2; // blocker + deadline call

        // FIFO barrier: by the time a Stats answer comes back, the
        // single worker has already dealt with the deadline request.
        stats = stats_eventually(&mux, &mut sent);
        if SHED_EXPIRED.get() > expired_before {
            expired_shed += 1;
        } else {
            // Lost the race: the worker was free in time and the query
            // ran, warming Hospital. Re-chill it and try again.
            assert!(stats.cached.contains(&PoiCategory::Hospital));
            let resp = mux.call(&add_poi(PoiCategory::Hospital, 1800.0)).expect("re-chill");
            assert!(matches!(resp, Response::AddPoi { .. }));
            sent += 1;
            expected_runs += 1; // the accidental Hospital run
        }
    }
    assert!(
        !stats.cached.contains(&PoiCategory::Hospital),
        "a shed request must never have executed: {:?}",
        stats.cached
    );
    assert_eq!(
        stats.pipeline_runs,
        stats0.pipeline_runs + expected_runs,
        "only the deliberate blockers may have run the pipeline"
    );

    // ---- part 3: the metrics account for every outcome ----------------
    //
    // Every request was either admitted or shed — with one subtlety: a
    // request admitted to the queue whose deadline then expires counts
    // in BOTH `admitted` (it was enqueued) and `shed` (the worker
    // refused to execute it). Those double-counted requests are exactly
    // the `admission.shed.expired` ones.
    let admitted = ADMITTED.get() - admitted0;
    let shed = SHED.get() - shed0;
    let expired_twice = SHED_EXPIRED.get() - expired0;
    assert_eq!(
        admitted + shed,
        sent + expired_twice,
        "admission metrics must account for every request \
         (admitted {admitted}, shed {shed}, sent {sent}, expired {expired_twice})"
    );
    assert!(
        shed >= bounced + expired_shed,
        "every Overloaded answer stems from a recorded shed ({shed} < {bounced}+{expired_shed})"
    );

    // Every request the front end decoded was answered exactly once:
    // the one reactor in play queued as many frames as it was sent (the
    // deadline call's reply counts even though its caller had given up).
    let live = staq_obs::snapshot();
    let grew = |name: &str| live.counter(name).unwrap_or(0) - frames0.counter(name).unwrap_or(0);
    assert_eq!(grew("net.frames_in"), sent, "every request reached the front end");
    assert_eq!(grew("net.frames_out"), sent, "every req_id is answered exactly once");

    // Connection accounting: our one mux connection is the only one
    // live; after shutdown the gauge returns to zero and every accepted
    // connection has a matching close.
    assert_eq!(live.gauge("net.conns"), Some(1), "one live client connection");
    drop(mux);
    (front.shutdown)();
    let settled = staq_obs::snapshot();
    assert_eq!(settled.gauge("net.conns"), Some(0), "shutdown must close every connection");
    assert_eq!(
        settled.counter("net.accepted"),
        settled.counter("net.closed"),
        "every accepted connection must be closed exactly once"
    );
}
