//! Backend lifecycle and the per-shard call path.
//!
//! [`ShardSupervisor::start`] boots every backend in parallel, readiness-
//! probes each one (connect + `Stats` until it answers) and only then
//! admits traffic. A monitor thread watches liveness: a backend that dies
//! — observed either by the monitor or by a failed call — is marked down,
//! and after `respawn_backoff` the monitor restarts it, re-probes, and
//! brings its pool back up under a fresh generation.
//!
//! While a shard is down, calls to it fail fast with
//! `ErrorCode::Unavailable` — no dialing, no timeout-waiting — so the
//! categories owned by live shards are completely unaffected by a crashed
//! neighbour.
//!
//! Retry semantics on a mid-call failure:
//!
//! * **Reads** (`Measures`, `Query`, `Stats`, `WhatIf`) are idempotent
//!   and retried once on a *fresh* stream (a multiplexed connection that
//!   failed mid-frame is poisoned and discarded — even with request ids,
//!   a desynced stream cannot be reused).
//! * **Edits** (`AddPoi`, `ApplyDelta`) are not retried:
//!   the backend may have applied the edit before the connection died,
//!   and replaying it would double-apply. The caller gets `Unavailable`
//!   and decides. `DeltaBatch` carries explicit sequence numbers, so the
//!   backend deduplicates replays itself and the batch *is* retryable.
//!
//! # The fleet edit log
//!
//! Schedule edits must land on every replica or the fleet serves
//! divergent answers. The supervisor owns the authoritative, sequenced
//! delta log: [`ShardSupervisor::broadcast_delta`] appends the delta,
//! assigns it the next fleet sequence number, and fans it out. Each
//! shard's highest *acked* sequence is tracked; a lagging shard first
//! receives the missing tail as an explicitly-sequenced `DeltaBatch`
//! (idempotent — the backend skips what it already has), then the new
//! delta. A `SeqGap` reply means the backend respawned with an empty log;
//! the full log is resent once from sequence 1. The broadcast replies OK
//! only when **all** shards acked the new sequence number; a partial
//! application reports `Unavailable` with the applied count, and the
//! delta stays in the log so lagging shards converge on the next edit or
//! when the monitor re-syncs them after a respawn. A delta rejected by
//! *every* shard (validation is deterministic and replicas are identical)
//! is popped from the log and the rejection relayed.

use crate::backend::Backend;
use crate::metrics;
use crate::pool::{BackendPool, PoolConfig, PoolError};
use parking_lot::Mutex;
use staq_gtfs::Delta;
use staq_obs::trace;
use staq_serve::codec::{DeltaAck, ErrorCode, Request, Response};
use staq_serve::MuxClient;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Supervisor tunables.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Delay between a backend being marked down and the respawn attempt.
    pub respawn_backoff: Duration,
    /// Monitor thread tick.
    pub poll_interval: Duration,
    /// Per-backend connection pool settings.
    pub pool: PoolConfig,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            respawn_backoff: Duration::from_millis(500),
            poll_interval: Duration::from_millis(50),
            pool: PoolConfig::default(),
        }
    }
}

/// Readiness-probe window per backend start; covers a city build.
const PROBE_TIMEOUT: Duration = Duration::from_secs(600);

struct Slot {
    backend: Mutex<Box<dyn Backend>>,
    pool: BackendPool,
}

/// The fleet's authoritative sequenced delta log. `log[i]` carries
/// sequence number `i + 1`; `acked[shard]` is the highest sequence that
/// shard is known to have applied (contiguously from 1).
struct EditLog {
    log: Vec<Delta>,
    acked: Vec<u64>,
}

struct Inner {
    slots: Vec<Slot>,
    cfg: SupervisorConfig,
    shutdown: AtomicBool,
    edits: Mutex<EditLog>,
}

/// Spawns, probes, monitors and respawns the backend fleet; owns the
/// routed call path. Dropping the supervisor kills every backend.
pub struct ShardSupervisor {
    inner: Arc<Inner>,
    /// Behind a mutex so [`shutdown`](Self::shutdown) can take `&self` —
    /// the router shares the supervisor across connection threads.
    monitor: Mutex<Option<JoinHandle<()>>>,
    in_process: bool,
}

impl ShardSupervisor {
    /// Starts every backend concurrently (city builds dominate startup),
    /// probes readiness, and admits traffic. Fails if any backend cannot
    /// start or never answers its probe.
    pub fn start(
        backends: Vec<Box<dyn Backend>>,
        cfg: SupervisorConfig,
    ) -> io::Result<ShardSupervisor> {
        assert!(!backends.is_empty(), "a shard fleet needs at least one backend");
        let in_process = backends.iter().any(|b| b.in_process());
        let slots: Vec<Slot> = backends
            .into_iter()
            .map(|b| Slot { backend: Mutex::new(b), pool: BackendPool::new(cfg.pool.clone()) })
            .collect();

        let addrs = fan_out(slots.len(), |i| -> io::Result<SocketAddr> {
            let addr = slots[i].backend.lock().start()?;
            probe(addr)?;
            Ok(addr)
        });

        for (slot, addr) in slots.iter().zip(addrs) {
            match addr {
                Ok(a) => slot.pool.bring_up(a),
                Err(e) => {
                    for s in &slots {
                        s.backend.lock().kill();
                    }
                    return Err(e);
                }
            }
        }

        let n = slots.len();
        let inner = Arc::new(Inner {
            slots,
            cfg,
            shutdown: AtomicBool::new(false),
            edits: Mutex::new(EditLog { log: Vec::new(), acked: vec![0; n] }),
        });
        let monitor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("staq-shard-monitor".into())
                .spawn(move || monitor_loop(&inner))
                .expect("spawning monitor thread")
        };
        Ok(ShardSupervisor { inner, monitor: Mutex::new(Some(monitor)), in_process })
    }

    /// Number of shards in the fleet.
    pub fn n_shards(&self) -> usize {
        self.inner.slots.len()
    }

    /// True when any backend shares this process (and its metrics
    /// registry) — the Stats merge must not sum identical snapshots.
    pub fn any_in_process(&self) -> bool {
        self.in_process
    }

    /// Whether a shard is currently admitting traffic.
    pub fn is_up(&self, shard: usize) -> bool {
        self.inner.slots[shard].pool.is_up()
    }

    /// Test hook: hard-kills one backend, as a crash would. The monitor
    /// respawns it after the configured backoff.
    pub fn kill_backend(&self, shard: usize) {
        let slot = &self.inner.slots[shard];
        slot.backend.lock().kill();
        if slot.pool.mark_down() {
            metrics::FAILOVERS.inc();
        }
    }

    /// Sends one request to one shard through its pool, with the retry
    /// semantics described at module level. Failures come back as
    /// `Unavailable` error frames, never as transport errors — the front
    /// connection stays healthy while backends churn.
    pub fn call(&self, shard: usize, request: &Request) -> Response {
        call_inner(&self.inner, shard, request)
    }

    /// Appends `delta` to the fleet log under the next sequence number
    /// and fans it out to every shard (catching lagging shards up first).
    /// `Ok` only when **all** shards acked; see the module docs for the
    /// partial/rejected cases.
    pub fn broadcast_delta(&self, delta: Delta) -> Result<DeltaAck, Response> {
        let mut edits = self.inner.edits.lock();
        broadcast_one(&self.inner, &mut edits, delta)
    }

    /// Replays an explicitly-sequenced run of deltas against the fleet
    /// log. Sequences the router already has are skipped idempotently;
    /// genuinely new ones are settled one at a time through the same
    /// all-acked broadcast as [`broadcast_delta`](Self::broadcast_delta).
    pub fn broadcast_batch(&self, first_seq: u64, deltas: &[Delta]) -> Response {
        if first_seq == 0 {
            return Response::Error {
                code: ErrorCode::Invalid,
                message: "a delta batch carries explicit sequence numbers (first_seq >= 1)".into(),
            };
        }
        let inner = &self.inner;
        let mut edits = inner.edits.lock();
        let have = edits.log.len() as u64;
        if first_seq > have + 1 {
            return Response::Error {
                code: ErrorCode::SeqGap,
                message: format!("fleet log has {have} deltas; batch starts at {first_seq}"),
            };
        }
        let skip = (have + 1 - first_seq) as usize;
        for d in deltas.iter().skip(skip) {
            if let Err(e) = broadcast_one(inner, &mut edits, d.clone()) {
                return e;
            }
        }
        Response::DeltaBatch { last_seq: edits.log.len() as u64 }
    }

    /// Test hook: the fleet log's current highest sequence number.
    pub fn edit_seq(&self) -> u64 {
        self.inner.edits.lock().log.len() as u64
    }

    /// Test hook: the highest sequence `shard` is known to have applied.
    pub fn edit_acked(&self, shard: usize) -> u64 {
        self.inner.edits.lock().acked[shard]
    }

    /// Stops the monitor and kills every backend. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(h) = self.monitor.lock().take() {
            h.join().expect("monitor thread panicked");
        }
        for slot in &self.inner.slots {
            slot.backend.lock().kill();
            slot.pool.mark_down();
        }
    }
}

/// Runs `f(shard)` for every shard in `0..n`, each on its own scoped
/// thread, and returns the results in shard order. Scope threads are new
/// stacks: each gets the caller's span context, so per-shard calls stay
/// inside the request's trace.
pub(crate) fn fan_out<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let ctx = trace::current();
    let f = &f;
    crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                scope.spawn(move |_| {
                    let _ctx = trace::attach(ctx);
                    f(i)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("shard fan-out thread panicked")).collect()
    })
    .expect("shard fan-out scope")
}

/// The routed call path (see [`ShardSupervisor::call`]); free-standing so
/// the monitor thread and the broadcast fan-out can use it too.
fn call_inner(inner: &Inner, shard: usize, request: &Request) -> Response {
    let slot = &inner.slots[shard];
    let retryable = !matches!(request, Request::AddPoi { .. } | Request::ApplyDelta { .. });
    let attempts = if retryable { 2 } else { 1 };

    for attempt in 0..attempts {
        let t = Instant::now();
        // The pool's mux client encodes the current span context into
        // the frame, so opening this span *before* the call is what
        // propagates the trace to the backend.
        let mut span = trace::span("shard.backend.call");
        span.attr("shard", shard as u64);
        span.attr("attempt", attempt as u64);
        let result = slot.pool.call(request);
        drop(span);
        match result {
            Ok(resp) => {
                metrics::backend_latency(shard).record(t.elapsed());
                return resp;
            }
            Err(PoolError::Down) => return unavailable(shard, "down"),
            Err(PoolError::Overloaded) => return unavailable(shard, "overloaded"),
            Err(PoolError::Io { gen }) => {
                // The stream is poisoned and will be replaced on the
                // next call; a retry dials (or picks) a fresh one.
                if attempt + 1 < attempts {
                    metrics::RETRIES.inc();
                    continue;
                }
                if slot.pool.mark_down_if(gen) {
                    metrics::FAILOVERS.inc();
                }
                return unavailable(shard, "failed mid-request");
            }
        }
    }
    unreachable!("attempts >= 1")
}

impl Drop for ShardSupervisor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn unavailable(shard: usize, why: &str) -> Response {
    Response::Error { code: ErrorCode::Unavailable, message: format!("shard {shard} is {why}") }
}

/// Appends `delta` under the next fleet sequence number and settles it on
/// every shard concurrently. The edit lock is held for the whole round
/// trip: edits serialize through the log (queries are unaffected — they
/// never touch it). Returns the first shard's ack on unanimous success.
fn broadcast_one(inner: &Inner, edits: &mut EditLog, delta: Delta) -> Result<DeltaAck, Response> {
    edits.log.push(delta.clone());
    let seq = edits.log.len() as u64;
    let n = inner.slots.len();
    let log = &edits.log[..];
    let acked = &edits.acked;
    let outcomes = fan_out(n, |i| apply_on_shard(inner, i, log, acked[i], seq, &delta));

    let mut first_ack = None;
    let mut first_err = None;
    let mut applied = 0usize;
    let mut all_rejected = true;
    for (i, (new_acked, result)) in outcomes.into_iter().enumerate() {
        edits.acked[i] = new_acked;
        match result {
            Ok(ack) => {
                applied += 1;
                all_rejected = false;
                first_ack.get_or_insert(ack);
            }
            Err(e) => {
                if !matches!(&e, Response::Error { code: ErrorCode::Invalid, .. }) {
                    all_rejected = false;
                }
                first_err.get_or_insert(e);
            }
        }
    }
    match (first_ack, first_err) {
        (Some(ack), None) => Ok(ack),
        (None, Some(err)) if all_rejected => {
            // Validation is deterministic over identical replicas: a
            // unanimous rejection means no shard's log grew. Un-sequence
            // the delta and relay the rejection.
            edits.log.pop();
            Err(err)
        }
        (_, Some(_)) => Err(Response::Error {
            code: ErrorCode::Unavailable,
            message: format!(
                "delta {seq} applied on {applied}/{n} shards; lagging shards converge on \
                 the next edit or respawn sync"
            ),
        }),
        (None, None) => unreachable!("fleet is never empty"),
    }
}

/// Settles sequence `seq` (the last entry of `log`) on one shard:
/// catch-up batch for any missing prefix, then the delta itself. Returns
/// the shard's new acked sequence plus the ack or the failure.
fn apply_on_shard(
    inner: &Inner,
    shard: usize,
    log: &[Delta],
    mut acked: u64,
    seq: u64,
    delta: &Delta,
) -> (u64, Result<DeltaAck, Response>) {
    if acked + 1 < seq {
        let batch = Request::DeltaBatch {
            first_seq: acked + 1,
            deltas: log[acked as usize..(seq - 1) as usize].to_vec(),
        };
        match call_inner(inner, shard, &batch) {
            Response::DeltaBatch { last_seq } => acked = last_seq,
            Response::Error { code: ErrorCode::SeqGap, .. } => {
                // The backend respawned with an empty log: resend the
                // whole committed prefix once.
                let full = Request::DeltaBatch {
                    first_seq: 1,
                    deltas: log[..(seq - 1) as usize].to_vec(),
                };
                match call_inner(inner, shard, &full) {
                    Response::DeltaBatch { last_seq } => acked = last_seq,
                    err @ Response::Error { .. } => return (0, Err(err)),
                    _ => return (0, Err(unavailable(shard, "answering out of protocol"))),
                }
            }
            err @ Response::Error { .. } => return (acked, Err(err)),
            _ => return (acked, Err(unavailable(shard, "answering out of protocol"))),
        }
        if acked + 1 != seq {
            return (acked, Err(unavailable(shard, "lagging after catch-up")));
        }
    }
    match call_inner(inner, shard, &Request::ApplyDelta { seq, delta: delta.clone() }) {
        Response::ApplyDelta(ack) => (seq, Ok(ack)),
        Response::Error { code: ErrorCode::SeqGap, .. } => {
            // Respawned between catch-up and apply; one full resend,
            // new delta included.
            let full = Request::DeltaBatch { first_seq: 1, deltas: log[..seq as usize].to_vec() };
            match call_inner(inner, shard, &full) {
                Response::DeltaBatch { last_seq } if last_seq >= seq => {
                    (last_seq, Ok(DeltaAck { seq, zones_rebuilt: 0, replayed: false }))
                }
                Response::DeltaBatch { last_seq } => {
                    (last_seq, Err(unavailable(shard, "lagging after full resend")))
                }
                err @ Response::Error { .. } => (0, Err(err)),
                _ => (0, Err(unavailable(shard, "answering out of protocol"))),
            }
        }
        err @ Response::Error { .. } => (acked, Err(err)),
        _ => (acked, Err(unavailable(shard, "answering out of protocol"))),
    }
}

/// Replays the full fleet log onto a freshly-respawned shard (its own
/// log restarted empty). On failure the shard stays marked at sequence 0
/// and the next broadcast retries the catch-up.
fn sync_shard(inner: &Inner, shard: usize) {
    let mut edits = inner.edits.lock();
    edits.acked[shard] = 0;
    if edits.log.is_empty() {
        return;
    }
    let batch = Request::DeltaBatch { first_seq: 1, deltas: edits.log.clone() };
    if let Response::DeltaBatch { last_seq } = call_inner(inner, shard, &batch) {
        edits.acked[shard] = last_seq;
    }
}

/// Readiness: the backend must answer a real `Stats` request, not merely
/// accept a connection — the listener comes up before the worker pool.
fn probe(addr: SocketAddr) -> io::Result<()> {
    let deadline = Instant::now() + PROBE_TIMEOUT;
    loop {
        // A bounded call keeps a half-open backend (accepts, never
        // answers) from wedging the probe loop past its own deadline.
        if let Ok(c) = MuxClient::connect(addr) {
            let stats = c.call_timeout(&Request::Stats, Duration::from_secs(1));
            if matches!(stats, Ok(Response::Stats(_))) {
                return Ok(());
            }
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("backend at {addr} never answered its readiness probe"),
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Watches liveness and respawns dead backends after the backoff.
fn monitor_loop(inner: &Inner) {
    // Per-slot deadline for the next respawn attempt.
    let mut respawn_at: Vec<Option<Instant>> = vec![None; inner.slots.len()];
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(inner.cfg.poll_interval);
        for (i, slot) in inner.slots.iter().enumerate() {
            if slot.pool.is_up() {
                respawn_at[i] = None;
                // The process can die without any call noticing (idle
                // shard): poll liveness directly.
                if !slot.backend.lock().is_alive() && slot.pool.mark_down() {
                    metrics::FAILOVERS.inc();
                }
                continue;
            }
            let due =
                *respawn_at[i].get_or_insert_with(|| Instant::now() + inner.cfg.respawn_backoff);
            if Instant::now() < due {
                continue;
            }
            // Attempt a restart; on failure, back off again.
            let started = {
                let mut backend = slot.backend.lock();
                backend.start().and_then(|addr| {
                    probe(addr)?;
                    Ok(addr)
                })
            };
            match started {
                Ok(addr) => {
                    slot.pool.bring_up(addr);
                    metrics::RESPAWNS.inc();
                    respawn_at[i] = None;
                    // The respawned backend's delta log restarted empty:
                    // replay the fleet's committed edits before it serves
                    // answers that diverge from its replicas.
                    sync_shard(inner, i);
                }
                Err(_) => {
                    respawn_at[i] = Some(Instant::now() + inner.cfg.respawn_backoff);
                }
            }
            if inner.shutdown.load(Ordering::SeqCst) {
                return;
            }
        }
    }
}
