//! The client for the staq-serve wire protocol: one socket, any number
//! of concurrent callers.
//!
//! A [`MuxClient`] exploits the wire protocol's request IDs to keep
//! any number of requests in flight over a single TCP connection. Each
//! call stamps a fresh ID into its frame, registers a reply slot, and
//! writes under a brief writer lock; a dedicated reader thread decodes
//! response frames as they arrive — in whatever order the server
//! completed them — and routes each to its caller by ID. A caller that
//! sends one request at a time is simply the one-caller case.
//!
//! The typed helpers ([`measures`](MuxClient::measures),
//! [`query`](MuxClient::query), [`apply_delta`](MuxClient::apply_delta),
//! …) are untimed [`call`](MuxClient::call)s that unpack the expected
//! response kind. Semantic failures arrive as [`ClientError::Server`]
//! with the server's error code and message — the connection stays
//! usable after them.
//!
//! Failure model:
//!
//! * Transport errors (broken pipe, EOF, decode desync) poison the
//!   whole client — every in-flight and future call fails with
//!   [`ClientError::Poisoned`]. There is no per-request recovery on a
//!   broken stream; discard the client and dial a new one.
//! * A timed call ([`call_timeout`](MuxClient::call_timeout),
//!   [`call_with_deadline`](MuxClient::call_with_deadline)) bounds its
//!   write and its wait by the same timeout. A wait that expires fails
//!   with [`ClientError::TimedOut`] but does **not** poison: the stream
//!   is still in sync, and when the late response eventually arrives
//!   the reader finds no waiter registered for its ID and discards it.
//!   A write that expires fails the same way but poisons, because a
//!   partial frame desyncs the stream.

use crate::codec::{self, DeltaAck, ErrorCode, Request, Response, StatsReply, WhatIfAnswer};
use bytes::BytesMut;
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use staq_access::measures::ZoneMeasures;
use staq_access::{AccessQuery, QueryAnswer};
use staq_geom::Point;
use staq_gtfs::time::{DayOfWeek, Stime};
use staq_gtfs::Delta;
use staq_obs::{OpsReport, OwnedSpan};
use staq_synth::{PoiCategory, PoiId};
use staq_transit::Journey;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    Io(std::io::Error),
    /// The server answered with an error frame.
    Server {
        code: ErrorCode,
        message: String,
    },
    /// The server answered with the wrong response kind.
    Unexpected(&'static str),
    /// A timed call outlived its timeout. The client survives an expired
    /// wait (the late response is matched by ID and discarded) but not an
    /// expired write, which leaves a partial frame on the stream.
    TimedOut,
    /// A transport failure broke the stream; request/response pairing on
    /// this connection can no longer be trusted. Discard the client.
    Poisoned,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
            ClientError::TimedOut => write!(f, "timed out waiting for the server"),
            ClientError::Poisoned => {
                write!(f, "connection poisoned by an earlier mid-frame failure")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// A cloneable handle to one multiplexed connection. Clones share the
/// socket; every clone (and every thread) may call concurrently.
pub struct MuxClient {
    inner: Arc<Inner>,
}

impl Clone for MuxClient {
    fn clone(&self) -> Self {
        MuxClient { inner: Arc::clone(&self.inner) }
    }
}

struct Inner {
    /// Kept for shutdown on drop (unblocks the reader thread).
    stream: TcpStream,
    /// Writers serialize frame writes; the lock spans one `write_all`.
    writer: Mutex<Writer>,
    /// In-flight calls awaiting their response, by request ID.
    pending: Mutex<HashMap<u64, Sender<Result<Response, ClientError>>>>,
    next_id: AtomicU64,
    poisoned: AtomicBool,
}

struct Writer {
    stream: TcpStream,
    /// The send timeout last set on `stream`, so that calls sharing one
    /// timeout (or none) cost no `setsockopt` each.
    timeout: Option<Duration>,
}

impl Writer {
    fn send(&mut self, frame: &[u8], timeout: Option<Duration>) -> std::io::Result<()> {
        // The socket refuses a zero timeout; one nanosecond is the same
        // "do not wait".
        let timeout = timeout.map(|t| t.max(Duration::from_nanos(1)));
        if self.timeout != timeout {
            self.stream.set_write_timeout(timeout)?;
            self.timeout = timeout;
        }
        self.stream.write_all(frame)
    }
}

impl Inner {
    /// Marks the client dead and fails every in-flight call.
    fn poison_all(&self) {
        self.poisoned.store(true, Ordering::Release);
        let waiters = std::mem::take(&mut *self.pending.lock());
        for (_, tx) in waiters {
            let _ = tx.send(Err(ClientError::Poisoned));
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Wakes the reader out of its blocking read; it exits on the
        // resulting EOF/error.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

impl MuxClient {
    /// Connects, disables Nagle (request/response latencies matter more
    /// than byte counts here) and starts the reader thread.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<MuxClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = Writer { stream: stream.try_clone()?, timeout: None };
        let reader = stream.try_clone()?;
        let inner = Arc::new(Inner {
            stream,
            writer: Mutex::new(writer),
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            poisoned: AtomicBool::new(false),
        });
        let weak = Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name("staq-mux-reader".into())
            .spawn(move || reader_loop(reader, weak))
            .expect("spawning mux reader thread");
        Ok(MuxClient { inner })
    }

    /// True after any transport failure: all calls fail fast with
    /// [`ClientError::Poisoned`]; discard the client. Semantic error
    /// frames ([`ClientError::Server`]) do *not* poison — the protocol
    /// stays in sync across them.
    pub fn is_poisoned(&self) -> bool {
        self.inner.poisoned.load(Ordering::Acquire)
    }

    /// Sends one request and blocks until its response arrives, however
    /// many other calls are in flight on this connection.
    pub fn call(&self, request: &Request) -> Result<Response, ClientError> {
        self.call_opts(request, None, None)
    }

    /// [`call`](Self::call) with a client-side timeout on the write and
    /// on the wait. An expired wait fails with [`ClientError::TimedOut`]
    /// and leaves the connection healthy (the late response is discarded
    /// by ID when it lands); an expired write fails the same way and
    /// poisons it.
    pub fn call_timeout(
        &self,
        request: &Request,
        timeout: Duration,
    ) -> Result<Response, ClientError> {
        self.call_opts(request, Some(timeout), None)
    }

    /// [`call_timeout`](Self::call_timeout) that also stamps the
    /// deadline into the frame, letting the server shed the request
    /// with `Overloaded` instead of executing it after the caller has
    /// already given up.
    pub fn call_with_deadline(
        &self,
        request: &Request,
        deadline: Duration,
    ) -> Result<Response, ClientError> {
        let ms = deadline.as_millis().min(u32::MAX as u128) as u32;
        self.call_opts(request, Some(deadline), Some(ms))
    }

    fn call_opts(
        &self,
        request: &Request,
        timeout: Option<Duration>,
        deadline_ms: Option<u32>,
    ) -> Result<Response, ClientError> {
        let inner = &self.inner;
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        inner.pending.lock().insert(id, tx);
        // Register, then check: `poison_all` sets the flag before it takes
        // the `pending` lock, so either its drain finds this slot or this
        // load sees the flag. Checked the other way round, a slot
        // registered after the drain is never answered and an untimed
        // `recv` below waits forever.
        if inner.poisoned.load(Ordering::Acquire) {
            inner.pending.lock().remove(&id);
            return Err(ClientError::Poisoned);
        }

        let mut out = BytesMut::with_capacity(256);
        codec::encode_request_mux(request, id, deadline_ms, &mut out);
        {
            let mut w = inner.writer.lock();
            if let Err(e) = w.send(&out, timeout) {
                drop(w);
                // A half-written frame desyncs the stream for everyone.
                inner.poison_all();
                return Err(match e.kind() {
                    // How an expired send timeout surfaces (platform-dependent).
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                        ClientError::TimedOut
                    }
                    _ => ClientError::Io(e),
                });
            }
        }

        match timeout {
            None => rx.recv().unwrap_or(Err(ClientError::Poisoned)),
            Some(t) => match rx.recv_timeout(t) {
                Ok(r) => r,
                Err(RecvTimeoutError::Timeout) => {
                    // Deregister so the reader discards the late frame.
                    inner.pending.lock().remove(&id);
                    Err(ClientError::TimedOut)
                }
                Err(RecvTimeoutError::Disconnected) => Err(ClientError::Poisoned),
            },
        }
    }

    /// Full SSR measure vector for one category.
    pub fn measures(&self, category: PoiCategory) -> Result<Vec<ZoneMeasures>, ClientError> {
        match self.call(&Request::Measures { category, approx: false })? {
            Response::Measures(ms) => Ok(ms),
            other => Err(unexpected(other)),
        }
    }

    /// An analytical access query for one category.
    pub fn query(
        &self,
        query: &AccessQuery,
        category: PoiCategory,
    ) -> Result<QueryAnswer, ClientError> {
        match self.call(&Request::Query { category, query: query.clone(), approx: false })? {
            Response::Query(a) => Ok(a),
            other => Err(unexpected(other)),
        }
    }

    /// Scenario edit: add a POI.
    pub fn add_poi(&self, category: PoiCategory, pos: Point) -> Result<PoiId, ClientError> {
        match self.call(&Request::AddPoi { category, pos })? {
            Response::AddPoi { poi_id } => Ok(PoiId(poi_id)),
            other => Err(unexpected(other)),
        }
    }

    /// Streams one delta at a sequence number (0 = let the server assign
    /// the next one). A [`ClientError::Server`] with
    /// [`ErrorCode::SeqGap`] means this client is ahead of the server's
    /// log and must resend the missing tail first. The paper's "new bus
    /// route" edit is a [`Delta::AddRoute`] sent here.
    pub fn apply_delta(&self, seq: u64, delta: &Delta) -> Result<DeltaAck, ClientError> {
        match self.call(&Request::ApplyDelta { seq, delta: delta.clone() })? {
            Response::ApplyDelta(ack) => Ok(ack),
            other => Err(unexpected(other)),
        }
    }

    /// Streams a contiguous run of deltas starting at `first_seq`
    /// (1-based); already-seen prefixes are skipped idempotently. Returns
    /// the highest sequence number the server's log now covers from this
    /// batch.
    pub fn delta_batch(&self, first_seq: u64, deltas: &[Delta]) -> Result<u64, ClientError> {
        match self.call(&Request::DeltaBatch { first_seq, deltas: deltas.to_vec() })? {
            Response::DeltaBatch { last_seq } => Ok(last_seq),
            other => Err(unexpected(other)),
        }
    }

    /// Evaluates counterfactual scenarios (each a delta list) against the
    /// live engine, answering `query` under each — side by side, in
    /// request order.
    pub fn what_if(
        &self,
        category: PoiCategory,
        scenarios: &[Vec<Delta>],
        query: &AccessQuery,
    ) -> Result<Vec<WhatIfAnswer>, ClientError> {
        match self.call(&Request::WhatIf {
            category,
            scenarios: scenarios.to_vec(),
            query: query.clone(),
        })? {
            Response::WhatIf(answers) => Ok(answers),
            other => Err(unexpected(other)),
        }
    }

    /// Point-to-point journeys against the live timetable: the Pareto
    /// (arrival, transfers) frontier, or — with `max_transfers` — the
    /// single fastest journey within that transfer cap.
    pub fn plan(
        &self,
        origin: Point,
        dest: Point,
        depart: Stime,
        day: DayOfWeek,
        max_transfers: Option<u8>,
    ) -> Result<Vec<Journey>, ClientError> {
        match self.call(&Request::Plan { origin, dest, depart, day, max_transfers })? {
            Response::Plan(journeys) => Ok(journeys),
            other => Err(unexpected(other)),
        }
    }

    /// The server's fleet-mergeable ops report: windowed per-class rates
    /// and quantiles, SLO burn status, retained slow traces.
    pub fn ops_report(&self) -> Result<OpsReport, ClientError> {
        match self.call(&Request::OpsReport)? {
            Response::OpsReport(report) => Ok(report),
            other => Err(unexpected(other)),
        }
    }

    /// Server counters.
    pub fn stats(&self) -> Result<StatsReply, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(unexpected(other)),
        }
    }

    /// Completed spans at least `min_dur_ns` long from the server's trace
    /// ring; `set_capture_ns` first retunes the server's capture
    /// threshold (spans shorter than it are never recorded).
    pub fn trace_dump(
        &self,
        min_dur_ns: u64,
        set_capture_ns: Option<u64>,
    ) -> Result<Vec<OwnedSpan>, ClientError> {
        match self.call(&Request::TraceDump { min_dur_ns, set_capture_ns })? {
            Response::TraceDump(spans) => Ok(spans),
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: Response) -> ClientError {
    match resp {
        Response::Error { code, message } => ClientError::Server { code, message },
        Response::Measures(_) => ClientError::Unexpected("measures"),
        Response::Query(_) => ClientError::Unexpected("query answer"),
        Response::AddPoi { .. } => ClientError::Unexpected("add_poi ack"),
        Response::Stats(_) => ClientError::Unexpected("stats"),
        Response::TraceDump(_) => ClientError::Unexpected("trace dump"),
        Response::ApplyDelta(_) => ClientError::Unexpected("apply_delta ack"),
        Response::DeltaBatch { .. } => ClientError::Unexpected("delta_batch ack"),
        Response::WhatIf(_) => ClientError::Unexpected("what_if answers"),
        Response::Plan(_) => ClientError::Unexpected("plan journeys"),
        Response::OpsReport(_) => ClientError::Unexpected("ops report"),
    }
}

/// Decodes response frames off the shared socket and routes each to its
/// waiter by request ID until EOF, a transport error, or every handle
/// is dropped.
fn reader_loop(mut stream: TcpStream, inner: Weak<Inner>) {
    let mut buf = BytesMut::with_capacity(4096);
    let mut scratch = [0u8; 16 * 1024];
    loop {
        // Drain complete frames before reading more bytes.
        loop {
            let decoded = match codec::decode_response_full(&mut buf) {
                Ok(Some(d)) => d,
                Ok(None) => break,
                Err(_) => {
                    if let Some(inner) = inner.upgrade() {
                        inner.poison_all();
                    }
                    return;
                }
            };
            let Some(strong) = inner.upgrade() else { return };
            let waiter = strong.pending.lock().remove(&decoded.req_id);
            if let Some(tx) = waiter {
                let _ = tx.send(Ok(decoded.response));
            }
            // No waiter: a timed-out call already gave up — drop it.
        }
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => {
                if let Some(inner) = inner.upgrade() {
                    inner.poison_all();
                }
                return;
            }
            Ok(n) => buf.extend_from_slice(&scratch[..n]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A minimal protocol peer: answers every request with an error
    /// frame echoing the request ID — enough to exercise multiplexed
    /// routing without booting an engine.
    fn echo_error_server(listener: TcpListener) {
        std::thread::spawn(move || {
            let Ok((mut s, _)) = listener.accept() else { return };
            let mut buf = BytesMut::new();
            let mut scratch = [0u8; 4096];
            loop {
                while let Ok(Some(d)) = codec::decode_request_full(&mut buf) {
                    let resp = Response::Error {
                        code: ErrorCode::Invalid,
                        message: format!("echo {}", d.req_id),
                    };
                    let mut out = BytesMut::new();
                    codec::encode_response_to(&resp, d.req_id, &mut out);
                    if s.write_all(&out).is_err() {
                        return;
                    }
                }
                match s.read(&mut scratch) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&scratch[..n]),
                }
            }
        });
    }

    #[test]
    fn concurrent_calls_each_get_their_own_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        echo_error_server(listener);
        let mux = MuxClient::connect(addr).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let mux = mux.clone();
                std::thread::spawn(move || mux.call(&Request::Stats))
            })
            .collect();
        let mut ids = Vec::new();
        for h in handles {
            match h.join().unwrap() {
                Ok(Response::Error { code: ErrorCode::Invalid, message }) => {
                    let id: u64 = message.strip_prefix("echo ").unwrap().parse().unwrap();
                    ids.push(id);
                }
                other => panic!("{other:?}"),
            }
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "every caller got a distinct response");
        assert!(!mux.is_poisoned());
    }

    #[test]
    fn timeout_fails_the_call_but_not_the_connection() {
        // A listener that accepts and never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _held = std::thread::spawn(move || listener.accept());
        let mux = MuxClient::connect(addr).unwrap();
        match mux.call_timeout(&Request::Stats, Duration::from_millis(50)) {
            Err(ClientError::TimedOut) => {}
            other => panic!("{other:?}"),
        }
        assert!(!mux.is_poisoned(), "a timeout alone must not poison");
    }

    /// A zero budget (an HTTP `deadline_ms` of 0 arrives as one) gives up
    /// at once; it must not become a socket error that poisons the
    /// connection every other caller shares.
    #[test]
    fn a_zero_timeout_does_not_poison_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        echo_error_server(listener);
        let mux = MuxClient::connect(addr).unwrap();
        let _ = mux.call_timeout(&Request::Stats, Duration::ZERO);
        assert!(!mux.is_poisoned());
        assert!(matches!(mux.call(&Request::Stats), Ok(Response::Error { .. })));
    }

    /// A call racing `poison_all` must fail, not hang: the caller is held
    /// at its registration (this test owns the `pending` lock) while the
    /// flag is set and the waiters drained — exactly what `poison_all`
    /// does — and is then let through to a peer that never answers.
    #[test]
    fn a_call_registering_across_poison_all_fails_instead_of_hanging() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _held = std::thread::spawn(move || listener.accept());
        let mux = MuxClient::connect(addr).unwrap();

        let mut pending = mux.inner.pending.lock();
        let first_id = mux.inner.next_id.load(Ordering::Relaxed);
        let (done_tx, done_rx) = bounded(1);
        let caller = mux.clone();
        std::thread::spawn(move || {
            let _ = done_tx.send(caller.call(&Request::Stats));
        });
        // The caller draws its ID before it registers, and it cannot
        // register while this thread holds the lock.
        while mux.inner.next_id.load(Ordering::Relaxed) == first_id {
            std::thread::yield_now();
        }
        mux.inner.poisoned.store(true, Ordering::Release);
        assert!(std::mem::take(&mut *pending).is_empty(), "nothing registered yet");
        drop(pending);

        match done_rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Err(ClientError::Poisoned)) => {}
            Ok(other) => panic!("{other:?}"),
            Err(_) => panic!("the call registered after the drain and was never answered"),
        }
        assert!(mux.inner.pending.lock().is_empty(), "the late slot was withdrawn");
    }

    #[test]
    fn server_death_poisons_every_in_flight_call() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let killer = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(50));
            drop(s); // close without answering
        });
        let mux = MuxClient::connect(addr).unwrap();
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let mux = mux.clone();
                std::thread::spawn(move || mux.call(&Request::Stats))
            })
            .collect();
        for w in waiters {
            match w.join().unwrap() {
                Err(ClientError::Poisoned) => {}
                other => panic!("{other:?}"),
            }
        }
        killer.join().unwrap();
        assert!(mux.is_poisoned());
        match mux.call(&Request::Stats) {
            Err(ClientError::Poisoned) => {}
            other => panic!("{other:?}"),
        }
    }
}
