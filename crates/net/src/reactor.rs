//! Single-threaded readiness reactor for framed TCP connections.
//!
//! One event-loop thread owns the listener, every connection's socket,
//! input buffer and outbound queue. Inbound bytes are handed to a
//! [`ConnHandler`] which decodes frames and dispatches work elsewhere
//! (typically a worker pool); completions come back through the
//! [`ReplySink`] — an unbounded channel plus a pipe-based waker — and are
//! written from the per-connection outbound queue, honouring partial
//! writes. Connection slots carry a generation so a reply that arrives
//! after its connection died (and the slot was reused) is dropped instead
//! of being written to a stranger.
//!
//! Shutdown is two-phase: [`ReactorHandle::begin_drain`] stops accepting
//! and reading (in-flight work keeps completing), then
//! [`ReactorHandle::finish`] flushes every outbound queue (bounded by a
//! deadline), closes, and joins the loop.

use crate::poll::{Event, Interest, Poller};
use bytes::{Bytes, BytesMut};
use staq_obs::{Counter, Gauge};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

static NET_CONNS: Gauge = Gauge::new("net.conns");
static NET_ACCEPTED: Counter = Counter::new("net.accepted");
static NET_CLOSED: Counter = Counter::new("net.closed");
static NET_ACCEPT_ERRORS: Counter = Counter::new("net.accept_errors");
static NET_FRAMES_OUT: Counter = Counter::new("net.frames_out");
/// Bumped by protocol handlers per decoded inbound frame (the reactor
/// itself is framing-agnostic).
pub static FRAMES_IN: Counter = Counter::new("net.frames_in");

/// Live connections across every reactor in the process (backs the
/// `net.conns` gauge).
static GLOBAL_ACTIVE: AtomicUsize = AtomicUsize::new(0);

fn conns_changed(delta: isize) {
    let now = if delta >= 0 {
        GLOBAL_ACTIVE.fetch_add(delta as usize, Ordering::Relaxed) + delta as usize
    } else {
        GLOBAL_ACTIVE.fetch_sub((-delta) as usize, Ordering::Relaxed) - (-delta) as usize
    };
    NET_CONNS.set(now as u64);
}

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKER: usize = 1;
const TOKEN_CONN_BASE: usize = 2;

/// Identifies one connection for the lifetime of the reactor. The
/// generation makes ids single-use: after a connection closes, a stale
/// id no longer matches the (possibly reused) slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConnId {
    idx: u32,
    gen: u32,
}

impl ConnId {
    /// Slot index — stable while this connection lives; reused after.
    pub fn index(&self) -> u32 {
        self.idx
    }
}

/// Wakes the event loop from other threads: one byte down a nonblocking
/// pipe, deduplicated by a pending flag so a storm of completions costs
/// one syscall.
struct Waker {
    tx: UnixStream,
    pending: AtomicBool,
}

impl Waker {
    fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// Event-loop side: re-arm *before* draining the channel so a wake
    /// racing with the drain writes a fresh byte instead of being lost.
    fn rearm(&self) {
        self.pending.store(false, Ordering::Release);
    }
}

enum Outbound {
    Frame(ConnId, Bytes),
    /// Flush whatever is queued for the connection, then close it.
    Close(ConnId),
}

/// Completion side of the reactor: any thread may queue frames for any
/// live connection. Cheap to clone.
#[derive(Clone)]
pub struct ReplySink {
    tx: crossbeam::channel::Sender<Outbound>,
    waker: Arc<Waker>,
}

impl ReplySink {
    /// Queues one already-encoded frame for `conn`. Silently dropped if
    /// the connection is gone by the time the reactor sees it.
    pub fn send(&self, conn: ConnId, frame: Bytes) {
        if self.tx.send(Outbound::Frame(conn, frame)).is_ok() {
            self.waker.wake();
        }
    }

    /// Closes `conn` after flushing frames queued before this call.
    pub fn close(&self, conn: ConnId) {
        if self.tx.send(Outbound::Close(conn)).is_ok() {
            self.waker.wake();
        }
    }
}

/// Protocol layer plugged into the reactor. Runs on the event-loop
/// thread — implementations must never block (dispatch to a pool and
/// answer through the [`ReplySink`]).
pub trait ConnHandler: Send {
    fn on_open(&mut self, _conn: ConnId) {}

    /// Called after new bytes land in `buf`. Drain every complete frame;
    /// leave partial trailing bytes in place. Return `false` to close the
    /// connection (protocol error) after flushing queued output.
    fn on_data(&mut self, conn: ConnId, buf: &mut BytesMut, out: &ReplySink) -> bool;

    fn on_close(&mut self, _conn: ConnId) {}
}

pub struct ReactorConfig {
    /// Thread name for the event loop.
    pub name: &'static str,
    /// Connections whose input buffer exceeds this after frame-draining
    /// are closed (a single frame larger than this can never complete).
    pub max_frame: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig { name: "staq-net", max_frame: 16 << 20 }
    }
}

struct Shared {
    draining: AtomicBool,
    stop: AtomicBool,
    flush_ms: AtomicU64,
    active: AtomicUsize,
}

/// Owner's view of a running reactor.
pub struct ReactorHandle {
    addr: SocketAddr,
    sink: ReplySink,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl ReactorHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn sink(&self) -> ReplySink {
        self.sink.clone()
    }

    /// Live connections on this reactor.
    pub fn conn_count(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Phase one of shutdown: stop accepting and stop reading. Requests
    /// already dispatched keep completing and their responses still go
    /// out. Idempotent.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.sink.waker.wake();
    }

    /// Phase two: flush every outbound queue (up to `flush_timeout`),
    /// close all connections and join the event loop. Idempotent — later
    /// calls return immediately.
    pub fn finish(&mut self, flush_timeout: Duration) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared
            .flush_ms
            .store(flush_timeout.as_millis().min(u64::MAX as u128) as u64, Ordering::Release);
        self.shared.stop.store(true, Ordering::Release);
        self.sink.waker.wake();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.finish(Duration::from_secs(1));
    }
}

struct Conn {
    stream: TcpStream,
    gen: u32,
    in_buf: BytesMut,
    out: VecDeque<Bytes>,
    /// Bytes of `out.front()` already written.
    out_pos: usize,
    interest: Interest,
    /// Flush the queue, then close.
    closing: bool,
    read_eof: bool,
    /// Already on this tick's flush list.
    dirty: bool,
}

struct Reactor {
    listener: TcpListener,
    poller: Poller,
    handler: Box<dyn ConnHandler>,
    sink: ReplySink,
    rx: crossbeam::channel::Receiver<Outbound>,
    waker_rx: UnixStream,
    shared: Arc<Shared>,
    max_frame: usize,
    conns: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    touched: Vec<usize>,
    scratch: Box<[u8]>,
    reads_on: bool,
}

/// Binds nothing itself: callers pass a bound listener so tests and
/// binaries control the address. Returns once the loop thread is up.
pub fn spawn(
    listener: TcpListener,
    handler: Box<dyn ConnHandler>,
    cfg: ReactorConfig,
) -> io::Result<ReactorHandle> {
    let mut poller = Poller::default();
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let (wake_rx, wake_tx) = UnixStream::pair()?;
    wake_rx.set_nonblocking(true)?;
    wake_tx.set_nonblocking(true)?;
    let waker = Arc::new(Waker { tx: wake_tx, pending: AtomicBool::new(false) });

    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.register(wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;

    let (tx, rx) = crossbeam::channel::unbounded();
    let sink = ReplySink { tx, waker };
    let shared = Arc::new(Shared {
        draining: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        flush_ms: AtomicU64::new(1000),
        active: AtomicUsize::new(0),
    });

    let mut reactor = Reactor {
        listener,
        poller,
        handler,
        sink: sink.clone(),
        rx,
        waker_rx: wake_rx,
        shared: shared.clone(),
        max_frame: cfg.max_frame,
        conns: Vec::new(),
        gens: Vec::new(),
        free: Vec::new(),
        touched: Vec::new(),
        scratch: vec![0u8; 64 * 1024].into_boxed_slice(),
        reads_on: true,
    };
    let thread =
        std::thread::Builder::new().name(cfg.name.to_string()).spawn(move || reactor.run())?;

    Ok(ReactorHandle { addr, sink, shared, thread: Some(thread) })
}

impl Reactor {
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut flush_deadline: Option<Instant> = None;
        loop {
            self.drain_outbound();

            if self.shared.draining.load(Ordering::Acquire) && self.reads_on {
                self.stop_reading();
            }
            if self.shared.stop.load(Ordering::Acquire) {
                let deadline = *flush_deadline.get_or_insert_with(|| {
                    Instant::now()
                        + Duration::from_millis(self.shared.flush_ms.load(Ordering::Acquire))
                });
                let flushed =
                    self.rx.is_empty() && self.conns.iter().flatten().all(|c| c.out.is_empty());
                if flushed || Instant::now() >= deadline {
                    break;
                }
            }

            if self.poller.wait(&mut events, Some(Duration::from_millis(100))).is_err() {
                break;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.drain_waker(),
                    t => self.conn_event(t - TOKEN_CONN_BASE, ev),
                }
            }
        }
        // Teardown: everything still open gets one last close callback.
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.close_conn(idx);
            }
        }
    }

    fn live(&self, cid: ConnId) -> Option<usize> {
        let idx = cid.idx as usize;
        match self.conns.get(idx) {
            Some(Some(c)) if c.gen == cid.gen => Some(idx),
            _ => None,
        }
    }

    /// Moves completions from the sink channel into per-connection
    /// queues, then opportunistically flushes each touched connection so
    /// the common case (socket writable) costs no extra poll round-trip.
    fn drain_outbound(&mut self) {
        self.sink.waker.rearm();
        while let Ok(ob) = self.rx.try_recv() {
            let (cid, frame) = match ob {
                Outbound::Frame(cid, f) => (cid, Some(f)),
                Outbound::Close(cid) => (cid, None),
            };
            let Some(idx) = self.live(cid) else { continue };
            let conn = self.conns[idx].as_mut().unwrap();
            match frame {
                Some(f) => {
                    conn.out.push_back(f);
                    NET_FRAMES_OUT.inc();
                }
                None => conn.closing = true,
            }
            if !conn.dirty {
                conn.dirty = true;
                self.touched.push(idx);
            }
        }
        let touched = std::mem::take(&mut self.touched);
        for idx in touched {
            if let Some(c) = self.conns[idx].as_mut() {
                c.dirty = false;
                self.flush_conn(idx);
            }
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 64];
        while matches!((&self.waker_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    fn accept_ready(&mut self) {
        if self.shared.draining.load(Ordering::Acquire) {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.add_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE and friends: count it and let the next poll
                    // tick retry instead of spinning.
                    NET_ACCEPT_ERRORS.inc();
                    break;
                }
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        let gen = self.gens[idx];
        if self.poller.register(stream.as_raw_fd(), idx + TOKEN_CONN_BASE, Interest::READ).is_err()
        {
            self.free.push(idx);
            return;
        }
        self.conns[idx] = Some(Conn {
            stream,
            gen,
            in_buf: BytesMut::with_capacity(4096),
            out: VecDeque::new(),
            out_pos: 0,
            interest: Interest::READ,
            closing: false,
            read_eof: false,
            dirty: false,
        });
        self.shared.active.fetch_add(1, Ordering::Relaxed);
        conns_changed(1);
        NET_ACCEPTED.inc();
        self.handler.on_open(ConnId { idx: idx as u32, gen });
    }

    fn conn_event(&mut self, idx: usize, ev: Event) {
        if self.conns.get(idx).is_none_or(|c| c.is_none()) {
            return;
        }
        if ev.readable && self.reads_on {
            self.read_conn(idx);
        }
        if self.conns.get(idx).is_none_or(|c| c.is_none()) {
            return; // read path closed it
        }
        if ev.writable {
            self.flush_conn(idx);
        }
        if self.conns.get(idx).is_none_or(|c| c.is_none()) {
            return;
        }
        if ev.hup {
            // Peer went away or the socket errored: finish writing what
            // we have, then close. A dead peer fails the write promptly.
            // (A half-closed peer arrives as a readable EOF instead, and
            // the read path closes on it.)
            let conn = self.conns[idx].as_mut().unwrap();
            if conn.out.is_empty() {
                self.close_conn(idx);
            } else {
                conn.closing = true;
                self.update_interest(idx);
            }
        }
    }

    fn read_conn(&mut self, idx: usize) {
        loop {
            let conn = self.conns[idx].as_mut().unwrap();
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.read_eof = true;
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    conn.in_buf.extend_from_slice(&self.scratch[..n]);
                    if n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
        let cid = {
            let conn = self.conns[idx].as_ref().unwrap();
            ConnId { idx: idx as u32, gen: conn.gen }
        };
        // Temporarily take the buffer so the handler and the connection
        // table don't fight over `self`.
        let mut in_buf = std::mem::take(&mut self.conns[idx].as_mut().unwrap().in_buf);
        let keep = self.handler.on_data(cid, &mut in_buf, &self.sink);
        let oversized = in_buf.len() > self.max_frame + 64;
        let conn = self.conns[idx].as_mut().unwrap();
        conn.in_buf = in_buf;
        if !keep || oversized {
            conn.closing = true;
        }
        // The handler may have queued replies through the sink in this
        // same tick (e.g. an error frame right before requesting the
        // close); pull them into the outbound queues before judging
        // whether this connection is safe to close.
        self.drain_outbound();
        if let Some(conn) = self.conns[idx].as_ref() {
            if conn.closing && conn.out.is_empty() {
                self.close_conn(idx);
            } else {
                self.update_interest(idx);
            }
        }
    }

    fn flush_conn(&mut self, idx: usize) {
        loop {
            let conn = self.conns[idx].as_mut().unwrap();
            // Cheap Arc-window clone so the write below doesn't hold a
            // borrow of the queue.
            let Some(front) = conn.out.front().cloned() else { break };
            match conn.stream.write(&front[conn.out_pos..]) {
                Ok(n) => {
                    conn.out_pos += n;
                    if conn.out_pos == front.len() {
                        conn.out.pop_front();
                        conn.out_pos = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
        }
        let conn = self.conns[idx].as_ref().unwrap();
        if conn.closing && conn.out.is_empty() {
            self.close_conn(idx);
        } else {
            self.update_interest(idx);
        }
    }

    fn update_interest(&mut self, idx: usize) {
        let conn = self.conns[idx].as_mut().unwrap();
        let desired = Interest {
            readable: self.reads_on && !conn.read_eof && !conn.closing,
            writable: !conn.out.is_empty(),
        };
        if desired != conn.interest {
            let fd = conn.stream.as_raw_fd();
            conn.interest = desired;
            let _ = self.poller.reregister(fd, idx + TOKEN_CONN_BASE, desired);
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].take() else { return };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.shared.active.fetch_sub(1, Ordering::Relaxed);
        conns_changed(-1);
        NET_CLOSED.inc();
        self.handler.on_close(ConnId { idx: idx as u32, gen: conn.gen });
    }

    /// Drain phase: deaf to new connections and new bytes, still writing.
    fn stop_reading(&mut self) {
        self.reads_on = false;
        let _ = self.poller.deregister(self.listener.as_raw_fd());
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.update_interest(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test protocol: 1-byte length prefix + payload; echoes the payload
    /// reversed. `on_data` must handle partial frames and pipelining.
    struct Echo;
    impl ConnHandler for Echo {
        fn on_data(&mut self, conn: ConnId, buf: &mut BytesMut, out: &ReplySink) -> bool {
            loop {
                if buf.is_empty() {
                    return true;
                }
                let need = buf[0] as usize + 1;
                if buf.len() < need {
                    return true;
                }
                let frame = buf.split_to(need);
                let mut reply = Vec::with_capacity(need);
                reply.push(frame[0]);
                reply.extend(frame[1..].iter().rev());
                out.send(conn, reply.into());
            }
        }
    }

    #[test]
    fn echo_roundtrip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut handle = spawn(
            listener,
            Box::new(Echo),
            ReactorConfig { name: "test-echo", max_frame: 1 << 16 },
        )
        .unwrap();

        let mut s = TcpStream::connect(handle.addr()).unwrap();
        // Two pipelined frames, the second split across writes.
        s.write_all(&[3, b'a', b'b', b'c', 4, b'w']).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        s.write_all(b"xyz").unwrap();

        let mut got = [0u8; 9];
        s.read_exact(&mut got).unwrap();
        assert_eq!(&got, &[3, b'c', b'b', b'a', 4, b'z', b'y', b'x', b'w']);
        assert_eq!(handle.conn_count(), 1);

        drop(s);
        // The reactor notices the close soon after.
        let t0 = Instant::now();
        while handle.conn_count() != 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handle.conn_count(), 0);
        handle.finish(Duration::from_secs(1));
    }

    /// Echo that reports each decoded frame, so tests can sequence
    /// shutdown after the request was actually seen.
    struct SignallingEcho(std::sync::mpsc::Sender<()>);
    impl ConnHandler for SignallingEcho {
        fn on_data(&mut self, conn: ConnId, buf: &mut BytesMut, out: &ReplySink) -> bool {
            let before = buf.len();
            let keep = Echo.on_data(conn, buf, out);
            if buf.len() != before {
                let _ = self.0.send(());
            }
            keep
        }
    }

    #[test]
    fn finish_flushes_queued_output_before_closing() {
        let (tx, rx) = std::sync::mpsc::channel();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut handle =
            spawn(listener, Box::new(SignallingEcho(tx)), ReactorConfig::default()).unwrap();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(&[2, b'h', b'i']).unwrap();
        // Don't read yet: once the frame is decoded, drain + finish must
        // still deliver the queued reply.
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        handle.begin_drain();
        handle.finish(Duration::from_secs(5));
        let mut got = Vec::new();
        s.read_to_end(&mut got).unwrap();
        assert_eq!(got, vec![2, b'i', b'h']);
    }

    #[test]
    fn drain_stops_accepting_but_existing_replies_flow() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut handle = spawn(listener, Box::new(Echo), ReactorConfig::default()).unwrap();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(&[1, b'q']).unwrap();
        let mut got = [0u8; 2];
        s.read_exact(&mut got).unwrap();

        handle.begin_drain();
        std::thread::sleep(Duration::from_millis(50));
        // New connections are not served while draining.
        let probe = TcpStream::connect(handle.addr());
        if let Ok(mut p) = probe {
            p.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
            let _ = p.write_all(&[1, b'z']);
            let mut buf = [0u8; 2];
            assert!(p.read_exact(&mut buf).is_err(), "draining reactor answered a new conn");
        }
        handle.finish(Duration::from_secs(1));
    }

    #[test]
    fn stale_conn_ids_are_dropped_not_misdelivered() {
        struct Capture(std::sync::mpsc::Sender<ConnId>);
        impl ConnHandler for Capture {
            fn on_open(&mut self, conn: ConnId) {
                let _ = self.0.send(conn);
            }
            fn on_data(&mut self, _conn: ConnId, buf: &mut BytesMut, _out: &ReplySink) -> bool {
                buf.clear();
                true
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut handle = spawn(listener, Box::new(Capture(tx)), ReactorConfig::default()).unwrap();
        let sink = handle.sink();

        let first = TcpStream::connect(handle.addr()).unwrap();
        let stale = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        drop(first);
        let t0 = Instant::now();
        while handle.conn_count() != 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }

        // Same slot, new generation.
        let mut second = TcpStream::connect(handle.addr()).unwrap();
        let fresh = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(stale.index(), fresh.index(), "slot should be reused");
        assert_ne!(stale, fresh);

        // A frame addressed to the dead generation must not reach the
        // new occupant of the slot.
        sink.send(stale, Bytes::from(vec![0xAA; 4]));
        sink.send(fresh, Bytes::from(vec![0x55; 2]));
        let mut got = [0u8; 2];
        second.read_exact(&mut got).unwrap();
        assert_eq!(got, [0x55, 0x55]);
        handle.finish(Duration::from_secs(1));
    }
}
