//! Multiplexing correctness over real TCP: N concurrent callers sharing
//! one [`MuxClient`] connection must observe responses *bit-identical*
//! to N callers with private connections — success and error frames
//! alike — and a connection dying mid-stream must fail every in-flight
//! caller and leave the client poisoned.

use bytes::BytesMut;
use staq_repro::gtfs::Delta;
use staq_repro::prelude::*;
use staq_serve::codec::encode_response;
use staq_serve::presets::CityPreset;
use staq_serve::{ClientError, MuxClient, Request, Response, ServerConfig};
use std::io::Read;
use std::net::TcpListener;

const CALLERS: usize = 8;

/// The request script every caller runs, in order. Read-only (so the
/// answers cannot depend on caller interleaving) except the one-stop
/// bus route, which the server rejects with an error *frame* before
/// touching any state — that is the error-path equivalence case.
fn script() -> Vec<Request> {
    vec![
        Request::Query {
            category: PoiCategory::School,
            query: AccessQuery::MeanAccess,
            approx: false,
        },
        Request::Query {
            category: PoiCategory::School,
            query: AccessQuery::Classification,
            approx: false,
        },
        Request::Query {
            category: PoiCategory::School,
            query: AccessQuery::WorstZones { k: 5 },
            approx: false,
        },
        Request::Query {
            category: PoiCategory::School,
            query: AccessQuery::PointAccess { x: 2000.0, y: 2000.0 },
            approx: false,
        },
        Request::Measures { category: PoiCategory::School, approx: false },
        Request::ApplyDelta {
            seq: 0,
            delta: Delta::AddRoute {
                stops: vec![staq_repro::geom::Point::new(0.0, 0.0)],
                headway_s: 600,
            },
        },
        Request::Query {
            category: PoiCategory::School,
            query: AccessQuery::AtRisk { threshold_factor: 1.0 },
            approx: false,
        },
    ]
}

/// Canonical wire form of an outcome: the encoded response frame for
/// answers (error frames included), the error variant for client-side
/// failures. Two outcomes are equivalent iff these bytes are equal.
fn canon(outcome: &Result<Response, ClientError>) -> Vec<u8> {
    match outcome {
        Ok(resp) => {
            let mut buf = BytesMut::new();
            encode_response(resp, &mut buf);
            buf.to_vec()
        }
        Err(e) => format!("client error: {e:?}").into_bytes(),
    }
}

#[test]
fn mux_callers_match_private_connection_callers_bit_for_bit() {
    let engine = CityPreset::Test.engine(0.05, 42);
    let mut server = staq_serve::serve(
        engine,
        &ServerConfig { addr: "127.0.0.1:0".into(), workers: 4, ..Default::default() },
    )
    .expect("bind server");
    let addr = server.addr();

    // Path A: every caller shares ONE multiplexed connection.
    let mux = MuxClient::connect(addr).expect("connect mux");
    let shared: Vec<Vec<Vec<u8>>> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                let mux = mux.clone();
                scope.spawn(move |_| {
                    script().iter().map(|req| canon(&mux.call(req))).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();

    // Path B: every caller dials its own private connection (its own
    // client, with one request in flight at a time).
    let private: Vec<Vec<Vec<u8>>> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|_| {
                scope.spawn(move |_| {
                    let c = MuxClient::connect(addr).expect("connect");
                    script().iter().map(|req| canon(&c.call(req))).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();

    for (caller, (a, b)) in shared.iter().zip(&private).enumerate() {
        assert_eq!(a.len(), b.len());
        for (step, (bytes_a, bytes_b)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                bytes_a, bytes_b,
                "caller {caller} step {step}: mux and private answers diverge"
            );
        }
    }
    // Every caller saw the same bytes as every other caller, too.
    for a in &shared[1..] {
        assert_eq!(a, &shared[0]);
    }
    // The error-path step really was an error frame, not a success.
    let error_step = &shared[0][5];
    assert_eq!(error_step[5], 0xFF, "one-stop route must answer with an error frame");

    server.shutdown();
}

/// A backend that accepts, reads a little, then hangs up mid-stream.
fn abrupt_backend() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut s) = stream else { return };
            std::thread::spawn(move || {
                let mut buf = [0u8; 64];
                let _ = s.read(&mut buf);
                // Drop: RST/FIN mid-conversation, before any response.
            });
        }
    });
    addr
}

#[test]
fn mid_stream_death_fails_every_in_flight_caller_and_poisons_the_mux() {
    let addr = abrupt_backend();
    let req = Request::Stats;

    // Concurrent in-flight callers: every waiter gets an error (none
    // hangs), the client reports poisoned, and later calls fail fast
    // with `Poisoned` without touching the socket.
    let mux = MuxClient::connect(addr).expect("connect mux");
    let outcomes: Vec<Result<Response, ClientError>> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..4).map(|_| scope.spawn(|_| mux.call(&Request::Stats))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();
    for outcome in &outcomes {
        assert!(outcome.is_err(), "an in-flight caller must not see a fabricated response");
    }
    assert!(mux.is_poisoned());
    assert!(matches!(mux.call(&req), Err(ClientError::Poisoned)));
}
