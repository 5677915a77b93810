//! The serving front end: a readiness reactor feeding a worker pool.
//!
//! One event-loop thread owns every socket:
//!
//! ```text
//! reactor thread ── decode frame ── admission gate ──► bounded job queue
//!      ▲                 │(shed: Overloaded frame)          │
//!      │                 ▼                                  ▼
//!      │        per-conn outbound queue ◄── encode ◄── worker 0..N
//!      └────────────── waker ◄──────────────────────── (callback)
//! ```
//!
//! Workers complete in any order; every response echoes its request's ID
//! and is written in completion order, the client matching by ID.
//!
//! Admission control happens at decode time, before a queue slot is
//! consumed: the gate estimates queue wait from an EWMA of execution
//! time and sheds with [`ErrorCode::Overloaded`] when the estimate
//! exceeds the server budget or the request's own deadline. Workers
//! shed once more at dequeue if the deadline lapsed while queued.
//!
//! There is one front end. A backend ([`serve_rt`]) runs it over the
//! engine; the shard router runs the same code over its dispatch, via
//! [`serve_front`] — the executor, the span names and the thread name
//! are all that differ.

use crate::codec::{self, DecodedRequest, ErrorCode, Response, MAX_FRAME_LEN};
use crate::pool::{self, InFlight, Job, JobSender, WorkerPool};
use bytes::{Bytes, BytesMut};
use crossbeam::channel::TrySendError;
use staq_core::AccessEngine;
use staq_net::admission::{Admission, AdmissionConfig, ShedReason, ADMITTED};
use staq_net::reactor::{self, ConnHandler, ConnId, ReactorConfig, ReactorHandle, ReplySink};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878`. Port 0 picks a free port.
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded job-queue depth (backpressure point).
    pub queue_depth: usize,
    /// How long shutdown waits for outbound queues to flush.
    pub flush_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 256,
            flush_timeout: Duration::from_secs(1),
        }
    }
}

/// What tells one front end's threads and spans from another's.
#[derive(Debug, Clone, Copy)]
pub struct FrontNames {
    /// Event-loop thread name; workers are `<reactor>-worker-<i>`.
    pub reactor: &'static str,
    /// Span covering a request from decode to reply.
    pub request_span: &'static str,
    /// Its first child: time spent queued for a worker.
    pub queue_wait_span: &'static str,
}

/// A backend's names.
pub(crate) const SERVE_NAMES: FrontNames = FrontNames {
    reactor: "staq-serve",
    request_span: "serve.request",
    queue_wait_span: "serve.queue_wait",
};

/// Handle to a running front end; dropping it shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    reactor: ReactorHandle,
    pool: WorkerPool,
    flush: Duration,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live client connections.
    pub fn conn_count(&self) -> usize {
        self.reactor.conn_count()
    }

    /// Graceful shutdown: stop accepting and reading, let in-flight
    /// requests finish, flush every outbound queue, then join all
    /// threads. Idempotent (each step is).
    pub fn shutdown(&mut self) {
        // Drain order matters: stop intake first, then revoke the queue
        // and run it dry (joining workers fires every reply callback),
        // and only then flush + close the sockets.
        self.reactor.begin_drain();
        self.pool.shutdown();
        self.reactor.finish(self.flush);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds `cfg.addr` and serves `engine` until shutdown. The server's
/// delta log starts empty; to serve an [`RtEngine`] whose log must
/// survive a server restart, use [`serve_rt`].
///
/// [`RtEngine`]: staq_rt::RtEngine
pub fn serve(engine: AccessEngine, cfg: &ServerConfig) -> std::io::Result<ServerHandle> {
    serve_rt(Arc::new(staq_rt::RtEngine::new(Arc::new(engine))), cfg)
}

/// Like [`serve`], over an existing [`RtEngine`] — the sequenced
/// delta log is shared with (and survives) the server.
///
/// [`RtEngine`]: staq_rt::RtEngine
pub fn serve_rt(rt: Arc<staq_rt::RtEngine>, cfg: &ServerConfig) -> std::io::Result<ServerHandle> {
    serve_front(cfg, SERVE_NAMES, pool::backend_executor(rt, cfg.workers))
}

/// Binds `cfg.addr` and runs the front end over `exec`: every admitted
/// request is handed to it on one of `cfg.workers` threads, and what it
/// returns is the reply.
pub fn serve_front<E>(
    cfg: &ServerConfig,
    names: FrontNames,
    exec: E,
) -> std::io::Result<ServerHandle>
where
    E: Fn(InFlight) -> Response + Send + Sync + 'static,
{
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    // The default budget (500 ms): requests whose estimated queue wait
    // exceeds it are shed with `Overloaded` instead of queued.
    let admission =
        Arc::new(Admission::new(AdmissionConfig { workers: cfg.workers, ..Default::default() }));
    let pool = WorkerPool::spawn(names, cfg.workers, cfg.queue_depth, Arc::clone(&admission), exec);
    let handler = FrontHandler { jobs: pool.jobs(), admission };
    let reactor = reactor::spawn(
        listener,
        Box::new(handler),
        ReactorConfig { name: names.reactor, max_frame: MAX_FRAME_LEN },
    )?;
    Ok(ServerHandle { addr, reactor, pool, flush: cfg.flush_timeout })
}

fn encode_reply(response: &Response, req_id: u64) -> Bytes {
    let mut buf = BytesMut::with_capacity(256);
    codec::encode_response_to(response, req_id, &mut buf);
    buf.freeze()
}

fn error_reply(code: ErrorCode, message: &str, req_id: u64) -> Bytes {
    encode_reply(&Response::Error { code, message: message.into() }, req_id)
}

const SHUTTING_DOWN: &str = "server is shutting down";

/// The reactor's protocol handler: decodes frames, gates admission,
/// queues jobs whose reply callback encodes straight onto the
/// connection's outbound queue.
struct FrontHandler {
    jobs: JobSender,
    admission: Arc<Admission>,
}

impl FrontHandler {
    /// Every decoded frame leaves here with exactly one reply owed: sent
    /// on the spot when refused, by the job's callback when queued.
    fn submit(&self, conn: ConnId, out: &ReplySink, decoded: DecodedRequest) {
        reactor::FRAMES_IN.inc();
        let enqueued = Instant::now();
        let DecodedRequest { request, ctx, req_id, deadline_ms } = decoded;
        let budget = deadline_ms.map(|ms| Duration::from_millis(ms.into()));
        // One lock per frame: the queue whose length the gate judges is
        // the queue the job then enters.
        let jobs = self.jobs.lock();
        let Some(tx) = jobs.as_ref() else {
            // Decoded in the window between shutdown revoking the queue
            // and the reactor going deaf.
            out.send(conn, error_reply(ErrorCode::Unavailable, SHUTTING_DOWN, req_id));
            return;
        };
        if let Err(reason) = self.admission.admit(tx.len(), budget) {
            out.send(conn, encode_reply(&pool::shed(reason, &request), req_id));
            return;
        }
        let sink = out.clone();
        let job = Job {
            request,
            reply: Box::new(move |response| sink.send(conn, encode_reply(&response, req_id))),
            ctx,
            enqueued,
            deadline: budget.map(|b| enqueued + b),
        };
        match tx.try_send(job) {
            Ok(()) => ADMITTED.inc(),
            Err(TrySendError::Full(job)) => {
                (job.reply)(pool::shed(ShedReason::QueueFull, &job.request))
            }
            Err(TrySendError::Disconnected(job)) => (job.reply)(Response::Error {
                code: ErrorCode::Unavailable,
                message: SHUTTING_DOWN.into(),
            }),
        }
    }
}

impl ConnHandler for FrontHandler {
    fn on_data(&mut self, conn: ConnId, buf: &mut BytesMut, out: &ReplySink) -> bool {
        loop {
            match codec::decode_request_full(buf) {
                Ok(Some(decoded)) => self.submit(conn, out, decoded),
                Ok(None) => return true,
                Err(e) => {
                    // Framing is gone; tell the client why and hang up
                    // (the reactor flushes the queue before closing).
                    out.send(conn, error_reply(ErrorCode::BadRequest, &e.to_string(), 0));
                    return false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Request;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// The state `shutdown` leaves the handler in between revoking the
    /// queue and the reactor going deaf, held open: every frame decoded
    /// in it is answered `Unavailable`, once, under its own request ID,
    /// and the connection is not dropped.
    #[test]
    fn frames_decoded_after_the_queue_is_revoked_get_one_unavailable_each() {
        let mut front =
            serve_front(&ServerConfig::default(), SERVE_NAMES, |_: InFlight| -> Response {
                panic!("nothing may reach a worker once the queue is revoked")
            })
            .unwrap();
        front.pool.jobs().lock().take();

        let mut stream = TcpStream::connect(front.addr()).unwrap();
        let mut frames = BytesMut::new();
        for req_id in [7, 8, 9] {
            codec::encode_request_mux(&Request::Stats, req_id, Some(0), &mut frames);
        }
        stream.write_all(&frames).unwrap();

        let mut buf = BytesMut::new();
        let mut scratch = [0u8; 1024];
        let mut answered = Vec::new();
        while answered.len() < 3 {
            let n = stream.read(&mut scratch).unwrap();
            assert!(n > 0, "the connection must stay open");
            buf.extend_from_slice(&scratch[..n]);
            while let Some(d) = codec::decode_response_full(&mut buf).unwrap() {
                match d.response {
                    Response::Error { code: ErrorCode::Unavailable, .. } => answered.push(d.req_id),
                    other => panic!("{other:?}"),
                }
            }
        }
        assert_eq!(answered, [7, 8, 9]);
        front.shutdown();
        // Nothing more was owed: the stream ends without another frame.
        assert_eq!(stream.read(&mut scratch).unwrap(), 0);
    }
}
