//! Per-backend connection pool: shared multiplexed streams, bounded
//! in-flight, generations.
//!
//! One [`BackendPool`] fronts one shard. The wire protocol carries
//! request IDs, so the pool does not check connections out
//! exclusively: it keeps a small, fixed set of [`MuxClient`] streams per
//! backend and round-robins concurrent calls across them, so N router
//! workers hitting the same shard coalesce into pipelined frames on a
//! handful of sockets instead of N private connections. The in-flight
//! count is still capped: past the cap, [`call`](BackendPool::call)
//! blocks briefly and then fails with [`PoolError::Overloaded`], turning
//! a wedged backend into backpressure instead of an unbounded pile-up.
//!
//! Respawn safety is generation-based. Every `bring_up` bumps the pool's
//! generation and discards the previous incarnation's streams; a call
//! that fails mid-flight reports [`PoolError::Io`] with the generation it
//! ran under, and the caller's `mark_down_if(gen)` is a no-op when that
//! incarnation has already been replaced. Without this, a slow request
//! that started before a crash could — on failing — mark the *respawned*
//! backend down.
//!
//! The pool never unpoisons: a [`MuxClient`] that failed mid-frame
//! ([`MuxClient::is_poisoned`]) is dropped at the next slot pick, never
//! reused — on a desynced stream every in-flight and future call is
//! unrecoverable.

use crate::metrics;
use parking_lot::{Condvar, Mutex};
use staq_serve::codec::{Request, Response};
use staq_serve::MuxClient;
use std::net::SocketAddr;
use std::time::Duration;

/// Pool tunables.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Multiplexed streams kept per backend; concurrent calls
    /// round-robin across them.
    pub mux_conns: usize,
    /// Concurrent calls per backend; past this, [`BackendPool::call`] waits.
    pub max_inflight: usize,
    /// Connect attempts before declaring the backend unreachable.
    pub connect_retries: u32,
    /// Backoff between connect attempts (linear: 1×, 2×, ...).
    pub connect_backoff: Duration,
    /// How long a call waits for an in-flight permit before failing.
    pub acquire_timeout: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            mux_conns: 2,
            max_inflight: 64,
            connect_retries: 3,
            connect_backoff: Duration::from_millis(20),
            acquire_timeout: Duration::from_secs(2),
        }
    }
}

/// Why a call failed. `Down` and `Overloaded` map to
/// `ErrorCode::Unavailable` frames at the router; `Io` is a mid-request
/// transport failure the caller may retry or escalate into a
/// down-marking via [`BackendPool::mark_down_if`] with the carried
/// generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// The backend is marked down (crashed, or connects are failing).
    Down,
    /// The in-flight cap, or another caller's dial of the picked
    /// stream, held for the whole acquire timeout.
    Overloaded,
    /// The stream died mid-request under this pool generation.
    Io { gen: u64 },
}

/// One shared-stream slot.
enum Slot {
    /// No stream: before first use, after poisoning, after a failed dial
    /// and after every `bring_up` / down-marking.
    Empty,
    /// One caller is connecting. Later arrivals wait for it rather than
    /// each opening a socket (and a reader thread) of their own.
    Dialing,
    Ready(MuxClient),
}

struct PoolState {
    /// `None` while the backend is down.
    addr: Option<SocketAddr>,
    /// Bumped on every `bring_up`; stale-generation events are ignored.
    gen: u64,
    /// The shared streams.
    conns: Vec<Slot>,
    /// Round-robin cursor over `conns`.
    next: usize,
    inflight: usize,
}

/// The pool for one backend.
pub struct BackendPool {
    cfg: PoolConfig,
    state: Mutex<PoolState>,
    permit_freed: Condvar,
}

impl BackendPool {
    /// A pool starting in the *down* state; the supervisor calls
    /// [`bring_up`](Self::bring_up) after the readiness probe passes.
    pub fn new(cfg: PoolConfig) -> Self {
        let n = cfg.mux_conns.max(1);
        BackendPool {
            cfg,
            state: Mutex::new(PoolState {
                addr: None,
                gen: 0,
                conns: (0..n).map(|_| Slot::Empty).collect(),
                next: 0,
                inflight: 0,
            }),
            permit_freed: Condvar::new(),
        }
    }

    /// Whether the backend is currently accepting traffic.
    pub fn is_up(&self) -> bool {
        self.state.lock().addr.is_some()
    }

    /// Current generation (for stale-event filtering by callers).
    pub fn generation(&self) -> u64 {
        self.state.lock().gen
    }

    /// Admits traffic to `addr` under a fresh generation, discarding any
    /// streams to the previous incarnation.
    pub fn bring_up(&self, addr: SocketAddr) {
        let mut s = self.state.lock();
        s.addr = Some(addr);
        s.gen += 1;
        s.conns.fill_with(|| Slot::Empty);
        drop(s);
        self.permit_freed.notify_all();
    }

    /// Marks the backend down if `gen` is still current; returns whether
    /// this call performed the up→down transition (the caller counts
    /// failovers on `true`). A stale generation is a no-op: the failure
    /// belongs to an incarnation that has already been replaced.
    pub fn mark_down_if(&self, gen: u64) -> bool {
        let mut s = self.state.lock();
        if s.gen != gen || s.addr.is_none() {
            return false;
        }
        s.addr = None;
        s.conns.fill_with(|| Slot::Empty);
        drop(s);
        // Waiters should fail fast with Down rather than ride out the
        // acquire timeout.
        self.permit_freed.notify_all();
        true
    }

    /// Marks the backend down unconditionally (supervisor-observed death,
    /// explicit kill); same transition reporting as [`mark_down_if`](Self::mark_down_if).
    pub fn mark_down(&self) -> bool {
        let gen = self.state.lock().gen;
        self.mark_down_if(gen)
    }

    /// Sends one request over a shared multiplexed stream, dialing lazily
    /// (with `connect_retries` × `connect_backoff`) when the picked slot
    /// has no healthy stream; callers that pick a slot while another is
    /// dialing it wait for that one dial. Fails fast with
    /// [`PoolError::Down`] while the backend is down — no dialing, no
    /// waiting — and with [`PoolError::Overloaded`] when the in-flight
    /// cap (or a dial) held for the whole acquire timeout.
    pub fn call(&self, request: &Request) -> Result<Response, PoolError> {
        let (client, gen) = {
            let mut s = self.state.lock();
            loop {
                let Some(addr) = s.addr else { return Err(PoolError::Down) };
                let slot = s.next % s.conns.len();
                if s.inflight < self.cfg.max_inflight && !matches!(s.conns[slot], Slot::Dialing) {
                    s.inflight += 1;
                    s.next = s.next.wrapping_add(1);
                    match &s.conns[slot] {
                        // A stream that died since its last use is not
                        // reused; the dial below replaces it.
                        Slot::Ready(c) if !c.is_poisoned() => break (c.clone(), s.gen),
                        _ => {
                            s.conns[slot] = Slot::Dialing;
                            let gen = s.gen;
                            drop(s);
                            break (self.dial(addr, gen, slot)?, gen);
                        }
                    }
                }
                if self.permit_freed.wait_for(&mut s, self.cfg.acquire_timeout).timed_out() {
                    return Err(PoolError::Overloaded);
                }
            }
        };

        let result = client.call(request);
        self.release_permit();
        result.map_err(|_| PoolError::Io { gen })
    }

    /// Dials one stream for `slot`, which the caller marked
    /// [`Slot::Dialing`], outside the state lock; connects can take
    /// milliseconds. On success the stream is parked in `conns[slot]`
    /// for sharing and the callers waiting on the dial are woken —
    /// unless the generation moved mid-dial (respawn), in which case the
    /// old incarnation must not be talked to and the slot, emptied by
    /// `bring_up`, belongs to the new one. On final failure the backend
    /// is marked down, which empties the slot and wakes the waiters.
    /// Either way the caller's in-flight permit is released on error.
    fn dial(&self, addr: SocketAddr, gen: u64, slot: usize) -> Result<MuxClient, PoolError> {
        let mut attempt = 0;
        loop {
            match MuxClient::connect(addr) {
                Ok(client) => {
                    let mut s = self.state.lock();
                    if s.gen == gen && s.addr.is_some() {
                        s.conns[slot] = Slot::Ready(client.clone());
                        drop(s);
                        self.permit_freed.notify_all();
                        return Ok(client);
                    }
                    drop(s);
                    self.release_permit();
                    return Err(PoolError::Down);
                }
                Err(_) if attempt + 1 < self.cfg.connect_retries => {
                    attempt += 1;
                    metrics::RETRIES.inc();
                    std::thread::sleep(self.cfg.connect_backoff * attempt);
                }
                Err(_) => {
                    self.release_permit();
                    if self.mark_down_if(gen) {
                        metrics::FAILOVERS.inc();
                    }
                    return Err(PoolError::Down);
                }
            }
        }
    }

    /// Frees an in-flight permit.
    fn release_permit(&self) {
        let mut s = self.state.lock();
        s.inflight = s.inflight.saturating_sub(1);
        drop(s);
        self.permit_freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use staq_serve::codec::{self, ErrorCode};
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A minimal protocol backend: accepts connections (counting them)
    /// and answers every request with an `Invalid` error frame after
    /// `delay` — enough to exercise the pool without booting an engine.
    fn backend(listener: TcpListener, delay: Duration) -> Arc<AtomicUsize> {
        let accepts = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&accepts);
        std::thread::spawn(move || {
            while let Ok((mut s, _)) = listener.accept() {
                counter.fetch_add(1, Ordering::SeqCst);
                std::thread::spawn(move || {
                    let mut buf = BytesMut::new();
                    let mut scratch = [0u8; 4096];
                    loop {
                        while let Ok(Some(d)) = codec::decode_request_full(&mut buf) {
                            if !delay.is_zero() {
                                std::thread::sleep(delay);
                            }
                            let resp =
                                Response::Error { code: ErrorCode::Invalid, message: "ok".into() };
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
        });
        accepts
    }

    #[test]
    fn down_pool_fails_fast_without_dialing() {
        let pool = BackendPool::new(PoolConfig::default());
        assert!(!pool.is_up());
        assert_eq!(pool.call(&Request::Stats).unwrap_err(), PoolError::Down);
    }

    #[test]
    fn concurrent_calls_share_one_multiplexed_stream() {
        // Fresh pools, so every round races eight *first* calls: all
        // pick the one empty slot while the first of them is dialing.
        for round in 0..20 {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let accepts = backend(listener, Duration::from_millis(1));
            let pool = BackendPool::new(PoolConfig { mux_conns: 1, ..PoolConfig::default() });
            pool.bring_up(addr);
            let start = std::sync::Barrier::new(8);
            std::thread::scope(|scope| {
                for _ in 0..8 {
                    scope.spawn(|| {
                        start.wait();
                        assert!(matches!(pool.call(&Request::Stats), Ok(Response::Error { .. })));
                    });
                }
            });
            assert_eq!(
                accepts.load(Ordering::SeqCst),
                1,
                "round {round}: eight concurrent calls must coalesce onto one socket"
            );
        }
    }

    #[test]
    fn respawn_generation_is_tracked_and_stale_downs_ignored() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let pool = BackendPool::new(PoolConfig::default());
        pool.bring_up(addr);
        let gen = pool.generation();

        // Backend "crashes" and comes back (same addr, new incarnation).
        assert!(pool.mark_down());
        assert!(!pool.mark_down(), "transition reported once");
        assert_eq!(pool.call(&Request::Stats).unwrap_err(), PoolError::Down);
        pool.bring_up(addr);
        assert_eq!(pool.generation(), gen + 1, "bring_up bumps the generation");
        // A stale-generation down-marking must not take the new pool down.
        assert!(!pool.mark_down_if(gen));
        assert!(pool.is_up());
    }

    #[test]
    fn inflight_cap_turns_into_overloaded() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _accepts = backend(listener, Duration::from_millis(300));
        let pool = Arc::new(BackendPool::new(PoolConfig {
            max_inflight: 1,
            acquire_timeout: Duration::from_millis(50),
            ..PoolConfig::default()
        }));
        pool.bring_up(addr);
        let holder = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.call(&Request::Stats))
        };
        // Let the holder claim the single permit, then contend.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(pool.call(&Request::Stats).unwrap_err(), PoolError::Overloaded);
        assert!(holder.join().unwrap().is_ok());
        // The permit came back: the next call goes through.
        assert!(pool.call(&Request::Stats).is_ok());
    }

    #[test]
    fn mid_request_death_reports_io_with_the_generation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            while let Ok((s, _)) = listener.accept() {
                std::thread::sleep(Duration::from_millis(20));
                drop(s); // close without answering
            }
        });
        let pool = BackendPool::new(PoolConfig::default());
        pool.bring_up(addr);
        let gen = pool.generation();
        assert_eq!(pool.call(&Request::Stats).unwrap_err(), PoolError::Io { gen });
        // The pool itself never marks down on call errors; retry vs
        // mark_down_if(gen) is the caller's policy.
        assert!(pool.is_up());
    }

    #[test]
    fn unreachable_backend_marks_itself_down() {
        // Bind a port, then drop the listener so connects are refused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let cfg = PoolConfig {
            connect_retries: 2,
            connect_backoff: Duration::from_millis(1),
            ..PoolConfig::default()
        };
        let pool = BackendPool::new(cfg);
        pool.bring_up(addr);
        assert_eq!(pool.call(&Request::Stats).unwrap_err(), PoolError::Down);
        assert!(!pool.is_up(), "failed dialing must mark the backend down");
    }
}
