//! Client behaviour against peers that stop cooperating. A half-open
//! peer accepts the connection (the TCP handshake succeeds) and drains
//! requests but never answers: a timed call must fail in bounded time
//! and leave the client usable. A deaf peer accepts and never reads: a
//! timed call whose frame outgrows the socket buffers must fail in
//! bounded time too, and poison the client, since a partial frame is
//! left on the stream.

use staq_repro::gtfs::model::RouteId;
use staq_repro::gtfs::Delta;
use staq_serve::{ClientError, MuxClient, Request};
use std::io::Read;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Accepts connections and reads (so requests are drained off the
/// socket) but never writes a byte back — a stalled or wedged server.
fn half_open_peer() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut s) = stream else { return };
            std::thread::spawn(move || {
                let mut sink = [0u8; 4096];
                while s.read(&mut sink).map(|n| n > 0).unwrap_or(false) {}
            });
        }
    });
    addr
}

/// Accepts connections and holds them open without reading a byte, so
/// a large enough request fills both socket buffers and stalls.
fn deaf_peer() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in listener.incoming() {
            let Ok(s) = stream else { return };
            held.push(s);
        }
    });
    addr
}

#[test]
fn a_half_open_peer_times_out_mux_calls_without_poisoning_them() {
    let addr = half_open_peer();
    let mux = MuxClient::connect(addr).expect("connect");

    // Responses are matched by request ID, so a timed-out call leaves
    // the stream coherent: the client survives and later calls are
    // allowed to try again (and, here, time out again).
    for _ in 0..2 {
        let t0 = Instant::now();
        let outcome = mux.call_timeout(&Request::Stats, Duration::from_millis(150));
        assert!(matches!(outcome, Err(ClientError::TimedOut)), "{outcome:?}");
        assert!(t0.elapsed() < Duration::from_secs(5));
        assert!(!mux.is_poisoned(), "a timeout is not a transport failure");
    }
}

#[test]
fn a_timed_call_bounds_its_write_to_a_peer_that_never_reads() {
    let addr = deaf_peer();
    let mux = MuxClient::connect(addr).expect("connect");
    // About 12 MB of advisories: well past what loopback socket buffers
    // absorb, well under the 16 MiB frame limit.
    let message = "x".repeat(60_000);
    let deltas: Vec<Delta> = (0..200)
        .map(|_| Delta::ServiceAlert { route: RouteId(0), message: message.clone() })
        .collect();
    let batch = Request::DeltaBatch { first_seq: 1, deltas };

    // The call runs on its own thread so that a write that never returns
    // fails this test at the watchdog instead of hanging the suite.
    let (tx, rx) = std::sync::mpsc::channel();
    let caller = mux.clone();
    std::thread::spawn(move || {
        let t0 = Instant::now();
        let outcome = caller.call_timeout(&batch, Duration::from_millis(150));
        let _ = tx.send((outcome, t0.elapsed()));
    });
    let (outcome, took) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the timed call is still blocked writing to a peer that never reads");
    assert!(matches!(outcome, Err(ClientError::TimedOut)), "{outcome:?}");
    assert!(took < Duration::from_secs(5), "the timeout must bound the write: {took:?}");

    // Part of the frame may be on the wire; the stream cannot be trusted.
    assert!(mux.is_poisoned(), "a write that timed out must poison the client");
    assert!(matches!(mux.call(&Request::Stats), Err(ClientError::Poisoned)));
}
