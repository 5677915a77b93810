//! Multiplexed client: one socket, many concurrent callers.
//!
//! A [`MuxClient`] exploits the wire protocol's request IDs to keep
//! any number of requests in flight over a single TCP connection. Each
//! call stamps a fresh ID into its frame, registers a reply slot, and
//! writes under a brief writer lock; a dedicated reader thread decodes
//! response frames as they arrive — in whatever order the server
//! completed them — and routes each to its caller by ID. Compared to a
//! pool of private [`Client`] connections this turns N concurrent
//! round-trips into pipelined frames on one stream: one socket, one
//! reader, no checkout latency.
//!
//! Failure model:
//!
//! * Transport errors (broken pipe, EOF, decode desync) poison the
//!   whole client — every in-flight and future call fails, matching the
//!   [`ClientError::Poisoned`] contract of the plain client. There is
//!   no per-request recovery on a broken stream.
//! * A call that outlives its own `timeout` fails with
//!   [`ClientError::TimedOut`] but does **not** poison: the stream is
//!   still in sync, and when the late response eventually arrives the
//!   reader finds no waiter registered for its ID and discards it.
//!
//! [`Client`]: crate::client::Client

use crate::client::ClientError;
use crate::codec::{self, Request, Response};
use bytes::BytesMut;
use crossbeam::channel::{bounded, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

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
    writer: Mutex<TcpStream>,
    /// In-flight calls awaiting their response, by request ID.
    pending: Mutex<HashMap<u64, Sender<Result<Response, ClientError>>>>,
    next_id: AtomicU64,
    poisoned: AtomicBool,
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
    /// Connects and starts the reader thread.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<MuxClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
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
    /// [`ClientError::Poisoned`]; discard the client.
    pub fn is_poisoned(&self) -> bool {
        self.inner.poisoned.load(Ordering::Acquire)
    }

    /// Sends one request and blocks until its response arrives, however
    /// many other calls are in flight on this connection.
    pub fn call(&self, request: &Request) -> Result<Response, ClientError> {
        self.call_opts(request, None, None)
    }

    /// [`call`](Self::call) with a client-side timeout. On expiry the
    /// call fails with [`ClientError::TimedOut`]; the connection stays
    /// healthy (the late response is discarded by ID when it lands).
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
            if let Err(e) = w.write_all(&out) {
                drop(w);
                // A half-written frame desyncs the stream for everyone.
                inner.poison_all();
                return Err(ClientError::Io(e));
            }
        }

        let result = match timeout {
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
        };
        result
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
    use crate::codec::ErrorCode;
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
