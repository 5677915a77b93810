//! staq-trace: per-query spans without locks.
//!
//! Aggregate counters (the [`registry`](crate::registry)) answer "how
//! slow is the fleet"; this module answers "where did *this* query spend
//! its time". A trace is a tree of spans sharing one [`TraceId`]: the
//! edge (router or server) opens the root, every downstream hop attaches
//! the incoming [`SpanContext`] to its thread and opens children, and
//! completed spans land in a fixed-size lock-free ring buffer that
//! [`dump`] reads without stopping writers.
//!
//! Design constraints, in order:
//!
//! * **Zero locks on the hot path.** The current context is a
//!   thread-local `Cell` (the call stack *is* the span stack — opening a
//!   span pushes, dropping it pops). Finishing a span claims a ring slot
//!   with one `fetch_add` plus one CAS; a lost CAS (two writers lapping
//!   onto the same slot, ring-size apart) drops the span rather than
//!   waiting.
//! * **Fixed memory.** [`RING_SLOTS`] completed spans, drop-oldest.
//!   Overwrites and lost claims count into `trace.spans_dropped`, so a
//!   flood is visible instead of silent.
//! * **Seqlock slots.** Each slot is an even/odd sequence number guarding
//!   a `Copy` record (names are `&'static str`, attributes a fixed
//!   array) — readers retry/skip torn slots; no allocation until a dump
//!   materialises [`OwnedSpan`]s.
//! * **Runtime knobs.** [`set_enabled`] turns capture off globally — the
//!   one way to silence spans, and how `staq-e2e` prices them
//!   (`obs.trace_off_speedup`); [`set_capture_min_ns`] keeps only slow
//!   spans (the slow-query flight recorder mode).
//!
//! Context crosses threads by value: capture [`current()`] before
//! spawning, [`attach`] it inside the worker. It crosses processes in
//! the wire protocol's request frame header (see `staq-serve`'s codec).

use crate::registry::Counter;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime};

/// Trace ids are plain u64s; `0` means "not traced".
pub type TraceId = u64;

/// The propagation unit: which trace we are in and which span is the
/// current parent. `(0, 0)` ([`SpanContext::NONE`]) means untraced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanContext {
    pub trace: u64,
    pub span: u64,
}

impl SpanContext {
    /// The untraced context.
    pub const NONE: SpanContext = SpanContext { trace: 0, span: 0 };

    /// True when this context belongs to a live trace.
    #[inline]
    pub fn is_some(&self) -> bool {
        self.trace != 0
    }
}

/// A completed span, materialised out of the ring by [`dump`] (and the
/// form spans take on the wire). Times are wall-clock Unix nanoseconds
/// so spans from different processes order on one axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnedSpan {
    pub trace: u64,
    pub span: u64,
    /// Parent span id; `0` for a root.
    pub parent: u64,
    pub name: String,
    pub start_unix_ns: u64,
    pub dur_ns: u64,
    pub attrs: Vec<(String, u64)>,
}

/// Attributes per span; excess `Span::attr` calls are dropped.
pub const MAX_ATTRS: usize = 4;

/// Completed spans the ring holds before dropping the oldest.
pub const RING_SLOTS: usize = 8192;

/// Spans lost to ring overwrites or slot-claim races.
static SPANS_DROPPED: Counter = Counter::new("trace.spans_dropped");
/// Spans successfully written to the ring.
static SPANS_RECORDED: Counter = Counter::new("trace.spans_recorded");

static ENABLED: AtomicBool = AtomicBool::new(true);
static CAPTURE_MIN_NS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static CURRENT: Cell<SpanContext> = const { Cell::new(SpanContext::NONE) };
}

/// Fixed-size span payload: fully `Copy` (names and attribute keys
/// are `&'static str`) so a torn seqlock read can never observe a
/// partially-written heap pointer.
#[derive(Clone, Copy)]
struct SpanRecord {
    trace: u64,
    span: u64,
    parent: u64,
    name: &'static str,
    start_unix_ns: u64,
    dur_ns: u64,
    n_attrs: u8,
    attrs: [(&'static str, u64); MAX_ATTRS],
}

impl SpanRecord {
    const EMPTY: SpanRecord = SpanRecord {
        trace: 0,
        span: 0,
        parent: 0,
        name: "",
        start_unix_ns: 0,
        dur_ns: 0,
        n_attrs: 0,
        attrs: [("", 0); MAX_ATTRS],
    };
}

/// One seqlock-guarded ring slot: even sequence = stable, odd =
/// write in flight. Writers claim via CAS; readers skip odd or
/// changed sequences.
struct Slot {
    seq: AtomicU64,
    data: std::cell::UnsafeCell<SpanRecord>,
}

// SAFETY: `data` is only accessed under the seqlock protocol —
// writers hold the odd sequence exclusively (CAS-claimed), readers
// validate the sequence around a volatile copy of `Copy` data.
unsafe impl Sync for Slot {}

impl Slot {
    const fn new() -> Slot {
        Slot { seq: AtomicU64::new(0), data: std::cell::UnsafeCell::new(SpanRecord::EMPTY) }
    }
}

static RING: [Slot; RING_SLOTS] = [const { Slot::new() }; RING_SLOTS];
/// Monotone ticket counter; slot = ticket % RING_SLOTS.
static HEAD: AtomicU64 = AtomicU64::new(0);

/// Publishes one completed span into the ring.
fn push(rec: SpanRecord) {
    let ticket = HEAD.fetch_add(1, Ordering::Relaxed);
    let slot = &RING[(ticket % RING_SLOTS as u64) as usize];
    let seq = slot.seq.load(Ordering::Relaxed);
    // Odd: another writer is mid-flight on this slot (it lapped us
    // or we lapped it). Drop rather than spin — tracing must never
    // add a wait to the serving path.
    if seq & 1 == 1
        || slot.seq.compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed).is_err()
    {
        SPANS_DROPPED.inc();
        return;
    }
    if ticket >= RING_SLOTS as u64 {
        // This write evicts the span previously in the slot.
        SPANS_DROPPED.inc();
    }
    // SAFETY: the CAS above made the sequence odd, which excludes
    // every other writer until the release store below.
    unsafe { std::ptr::write_volatile(slot.data.get(), rec) };
    slot.seq.store(seq + 2, Ordering::Release);
    SPANS_RECORDED.inc();
}

/// Reads every stable slot; torn or empty slots are skipped.
fn read_ring() -> Vec<SpanRecord> {
    let head = HEAD.load(Ordering::Acquire);
    let n = head.min(RING_SLOTS as u64);
    let oldest = head - n;
    let mut out = Vec::with_capacity(n as usize);
    for ticket in oldest..head {
        let slot = &RING[(ticket % RING_SLOTS as u64) as usize];
        let seq0 = slot.seq.load(Ordering::Acquire);
        if seq0 & 1 == 1 {
            continue;
        }
        // SAFETY: the record is `Copy`; a torn read is discarded by
        // the sequence re-check below before the copy is used.
        let rec = unsafe { std::ptr::read_volatile(slot.data.get()) };
        if slot.seq.load(Ordering::Acquire) != seq0 || rec.trace == 0 {
            continue;
        }
        out.push(rec);
    }
    out
}

fn to_owned_span(rec: &SpanRecord) -> OwnedSpan {
    OwnedSpan {
        trace: rec.trace,
        span: rec.span,
        parent: rec.parent,
        name: rec.name.to_string(),
        start_unix_ns: rec.start_unix_ns,
        dur_ns: rec.dur_ns,
        attrs: rec.attrs[..rec.n_attrs as usize].iter().map(|&(k, v)| (k.to_string(), v)).collect(),
    }
}

/// splitmix64 finalizer — cheap, well-mixed, no external RNG.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

static ID_SEED: OnceLock<u64> = OnceLock::new();
static ID_NEXT: AtomicU64 = AtomicU64::new(1);

/// Process-unique nonzero id: a per-process wall-clock⊕pid seed
/// mixed with a monotone counter, so two processes started the same
/// nanosecond still diverge.
fn new_id() -> u64 {
    let seed = *ID_SEED.get_or_init(|| {
        let ns =
            SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).unwrap_or_default().as_nanos()
                as u64;
        ns ^ ((std::process::id() as u64) << 32)
    });
    let id = mix(seed ^ mix(ID_NEXT.fetch_add(1, Ordering::Relaxed)));
    if id == 0 {
        1
    } else {
        id
    }
}

/// `(unix epoch ns, Instant)` captured together once, so monotonic
/// span clocks convert to one wall axis consistently per process.
static CLOCK_BASE: OnceLock<(u64, Instant)> = OnceLock::new();

fn unix_ns(at: Instant) -> u64 {
    let &(base_ns, base_instant) = CLOCK_BASE.get_or_init(|| {
        let ns =
            SystemTime::now().duration_since(SystemTime::UNIX_EPOCH).unwrap_or_default().as_nanos()
                as u64;
        (ns, Instant::now())
    });
    if at >= base_instant {
        base_ns.saturating_add((at - base_instant).as_nanos() as u64)
    } else {
        base_ns.saturating_sub((base_instant - at).as_nanos() as u64)
    }
}

/// Whether span capture is globally on (runtime switch; default on).
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span capture on/off at runtime (benches price the overhead by
/// flipping this; ops can silence a flood).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Minimum duration a span must reach to enter the ring (slow-query
/// flight recorder). 0 records everything.
pub fn capture_min_ns() -> u64 {
    CAPTURE_MIN_NS.load(Ordering::Relaxed)
}

/// Sets the capture threshold at runtime (also settable over the wire
/// via the `TraceDump` request).
pub fn set_capture_min_ns(ns: u64) {
    CAPTURE_MIN_NS.store(ns, Ordering::Relaxed);
}

/// A fresh nonzero trace id. Generated once at the edge; everything
/// downstream inherits it through [`SpanContext`] propagation.
pub fn new_trace_id() -> TraceId {
    new_id()
}

/// The calling thread's current span context.
pub fn current() -> SpanContext {
    CURRENT.with(|c| c.get())
}

/// True when the calling thread is inside a live trace and capture is
/// on — the cheap guard for optional instrumentation work.
pub fn is_active() -> bool {
    enabled() && current().is_some()
}

/// Makes `ctx` the thread's current context until the guard drops
/// (restoring whatever was there). This is how a context crosses a
/// thread boundary: capture [`current()`], move it, `attach` it.
pub fn attach(ctx: SpanContext) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace(ctx));
    ContextGuard { prev }
}

/// Restores the previously attached context on drop.
pub struct ContextGuard {
    prev: SpanContext,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// An in-flight span. Opening one makes it the thread's current
/// context; dropping it records the span (if capture is on and it beat
/// the min-duration threshold) and pops back to the parent.
pub struct Span {
    ctx: SpanContext,
    parent: SpanContext,
    name: &'static str,
    start: Instant,
    attrs: [(&'static str, u64); MAX_ATTRS],
    n_attrs: u8,
    active: bool,
}

/// Opens a child span of the thread's current context. Inert (and
/// free) when the thread is untraced or capture is off.
pub fn span(name: &'static str) -> Span {
    span_at(name, Instant::now())
}

/// Opens a child span whose clock started at `start` — for phases that
/// began before the tracing code runs (queue wait measured from enqueue
/// time, a RAPTOR query timed from entry).
pub fn span_at(name: &'static str, start: Instant) -> Span {
    let parent = current();
    if !enabled() || !parent.is_some() {
        return Span {
            ctx: SpanContext::NONE,
            parent,
            name,
            start,
            attrs: [("", 0); MAX_ATTRS],
            n_attrs: 0,
            active: false,
        };
    }
    let ctx = SpanContext { trace: parent.trace, span: new_id() };
    CURRENT.with(|c| c.set(ctx));
    Span { ctx, parent, name, start, attrs: [("", 0); MAX_ATTRS], n_attrs: 0, active: true }
}

/// Opens a root span under a brand-new trace id (the edge of a trace).
/// Inert when capture is off.
pub fn root_span(name: &'static str) -> Span {
    root_span_at(name, Instant::now())
}

/// Like [`root_span`], but backdated to `start` — for request roots
/// whose wall time began before the tracing thread picked them up
/// (a job executed by a worker pool is timed from enqueue).
pub fn root_span_at(name: &'static str, start: Instant) -> Span {
    let parent = current();
    if !enabled() {
        return Span {
            ctx: SpanContext::NONE,
            parent,
            name,
            start,
            attrs: [("", 0); MAX_ATTRS],
            n_attrs: 0,
            active: false,
        };
    }
    let ctx = SpanContext { trace: new_id(), span: new_id() };
    CURRENT.with(|c| c.set(ctx));
    Span {
        ctx,
        parent: SpanContext::NONE,
        name,
        start,
        attrs: [("", 0); MAX_ATTRS],
        n_attrs: 0,
        active: true,
    }
}

impl Span {
    /// Attaches a numeric attribute (first [`MAX_ATTRS`] stick).
    #[inline]
    pub fn attr(&mut self, key: &'static str, value: u64) {
        if self.active && (self.n_attrs as usize) < MAX_ATTRS {
            self.attrs[self.n_attrs as usize] = (key, value);
            self.n_attrs += 1;
        }
    }

    /// This span's context — what to propagate to children opened on
    /// other threads or processes while the span is open.
    pub fn context(&self) -> SpanContext {
        if self.active {
            self.ctx
        } else {
            current()
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        CURRENT.with(|c| c.set(self.parent));
        let dur = self.start.elapsed();
        let dur_ns = dur.as_nanos().min(u64::MAX as u128) as u64;
        if dur_ns < capture_min_ns() {
            return;
        }
        push(SpanRecord {
            trace: self.ctx.trace,
            span: self.ctx.span,
            parent: self.parent.span,
            name: self.name,
            start_unix_ns: unix_ns(self.start),
            dur_ns,
            n_attrs: self.n_attrs,
            attrs: self.attrs,
        });
    }
}

/// Recent completed spans with `dur_ns >= min_dur_ns`, oldest first.
/// Does not drain the ring; concurrent writers keep going.
pub fn dump(min_dur_ns: u64) -> Vec<OwnedSpan> {
    read_ring().iter().filter(|r| r.dur_ns >= min_dur_ns).map(to_owned_span).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `enabled` / `capture_min_ns` are process-global; tests that touch
    /// them serialize here so the parallel test harness can't interleave
    /// a `u64::MAX` threshold into a neighbour's recording window.
    static KNOBS: Mutex<()> = Mutex::new(());

    /// Each test runs with a fresh trace id, so assertions filter the
    /// shared process-global ring down to their own spans.
    fn my_spans(trace: u64) -> Vec<OwnedSpan> {
        dump(0).into_iter().filter(|s| s.trace == trace).collect()
    }

    #[test]
    fn nested_spans_form_a_tree_in_the_ring() {
        let _k = KNOBS.lock().unwrap();
        set_capture_min_ns(0);
        let trace;
        {
            let root = root_span("test.root");
            trace = root.context().trace;
            assert!(trace != 0);
            {
                let mut child = span("test.child");
                child.attr("k", 7);
                assert_eq!(child.context().trace, trace);
                {
                    let grandchild = span("test.grandchild");
                    assert_eq!(grandchild.context().trace, trace);
                }
            }
        }
        let spans = my_spans(trace);
        assert_eq!(spans.len(), 3, "root + child + grandchild recorded");
        let root = spans.iter().find(|s| s.name == "test.root").unwrap();
        let child = spans.iter().find(|s| s.name == "test.child").unwrap();
        let gc = spans.iter().find(|s| s.name == "test.grandchild").unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(child.parent, root.span);
        assert_eq!(gc.parent, child.span);
        assert_eq!(child.attrs, vec![("k".to_string(), 7)]);
        // Child windows nest inside the root's window.
        assert!(root.dur_ns >= child.dur_ns);
        assert!(child.start_unix_ns >= root.start_unix_ns);
    }

    #[test]
    fn untraced_thread_records_nothing() {
        let before = dump(0).len();
        {
            let s = span("test.orphan");
            assert!(!s.context().is_some());
        }
        // No new span with that name for an untraced thread.
        let after: Vec<_> = dump(0).into_iter().filter(|s| s.name == "test.orphan").collect();
        assert!(after.is_empty(), "orphan spans must not record (ring had {before})");
    }

    #[test]
    fn attach_restores_previous_context() {
        let outer = SpanContext { trace: new_trace_id(), span: new_trace_id() };
        let _g0 = attach(outer);
        {
            let inner = SpanContext { trace: new_trace_id(), span: new_trace_id() };
            let _g1 = attach(inner);
            assert_eq!(current(), inner);
        }
        assert_eq!(current(), outer);
        drop(_g0);
    }

    #[test]
    fn capture_threshold_filters_fast_spans() {
        let _k = KNOBS.lock().unwrap();
        set_capture_min_ns(u64::MAX);
        let trace;
        {
            let root = root_span("test.too_fast");
            trace = root.context().trace;
        }
        set_capture_min_ns(0);
        assert!(my_spans(trace).is_empty(), "sub-threshold span must not record");
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _k = KNOBS.lock().unwrap();
        set_enabled(false);
        let s = root_span("test.disabled");
        assert!(!s.context().is_some());
        drop(s);
        set_enabled(true);
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let id = new_trace_id();
            assert!(id != 0);
            assert!(seen.insert(id), "duplicate trace id {id}");
        }
    }

    #[test]
    fn dump_respects_min_duration() {
        let _k = KNOBS.lock().unwrap();
        set_capture_min_ns(0);
        let trace;
        {
            let root = root_span("test.slow_enough");
            trace = root.context().trace;
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let all = my_spans(trace);
        assert_eq!(all.len(), 1);
        assert!(all[0].dur_ns >= 2_000_000);
        let slow: Vec<_> = dump(1_000_000).into_iter().filter(|s| s.trace == trace).collect();
        assert_eq!(slow.len(), 1);
        let too_slow: Vec<_> = dump(u64::MAX).into_iter().filter(|s| s.trace == trace).collect();
        assert!(too_slow.is_empty());
    }

    #[test]
    fn concurrent_writers_never_corrupt_the_ring() {
        let _k = KNOBS.lock().unwrap();
        set_capture_min_ns(0);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..5000 {
                        let root = root_span("test.flood");
                        drop(root);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // A dump during/after the flood must be structurally sane: all
        // spans parse, no zero trace ids, names intact.
        for s in dump(0) {
            assert!(s.trace != 0);
            assert!(!s.name.is_empty());
        }
    }
}
