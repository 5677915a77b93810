//! The metric registry: statics that record lock-free and a global list
//! that snapshots on demand.
//!
//! Metrics are declared as `static` items with `const` constructors:
//!
//! ```
//! use staq_obs::{Counter, AtomicHistogram};
//! static QUERIES: Counter = Counter::new("raptor.queries");
//! static LATENCY: AtomicHistogram = AtomicHistogram::new("serve.request.query");
//! QUERIES.inc();
//! LATENCY.record(std::time::Duration::from_micros(14));
//! ```
//!
//! The hot path is a relaxed atomic RMW plus one relaxed load (the
//! registration flag) — no locks, no allocation. A metric adds itself to
//! the global registry on first touch (the only mutex in the crate, taken
//! once per metric per process). [`snapshot`] walks the registry and
//! assembles a [`MetricsSnapshot`] without disturbing writers.
//!
//! ## The registry is process-global
//!
//! There is exactly one registry per process and no way to reset it:
//! counters only ever go up, for as long as the process lives. Anything
//! that shares a process shares every metric — most notably the test
//! harness, which runs many `#[test]` functions concurrently in one
//! binary. A test must therefore never assert an absolute counter value
//! ("`serve.requests` == 3"); it must take a [`snapshot`] before the
//! work, another after, and assert on the *delta* — other tests may bump
//! the same metric at any moment. The same aliasing shows up in
//! production topologies: a shard router whose backends run in-process
//! sees one registry for the whole fleet (see the router's stats-merge
//! logic), while out-of-process backends each own one.

use crate::hist::{bucket, LatencyHistogram, N_BUCKETS};
use crate::snapshot::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A registered metric, by reference to its static.
enum Metric {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static AtomicHistogram),
}

static REGISTRY: Mutex<Vec<Metric>> = Mutex::new(Vec::new());

/// First-touch registration: one relaxed load on the hot path; the mutex
/// is only ever taken before the flag flips.
macro_rules! ensure_registered {
    ($self:ident, $variant:ident) => {
        if !$self.registered.load(Ordering::Relaxed) {
            let mut reg = REGISTRY.lock().expect("metric registry poisoned");
            if !$self.registered.load(Ordering::Relaxed) {
                reg.push(Metric::$variant($self));
                $self.registered.store(true, Ordering::Release);
            }
        }
    };
}

/// Monotone event counter. Increments are relaxed atomics; reads are
/// advisory (a snapshot is not a linearization point).
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Declares a counter; use in a `static`.
    pub const fn new(name: &'static str) -> Self {
        Counter { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&'static self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&'static self, n: u64) {
        ensure_registered!(self, Counter);
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Last-write-wins level (queue depths, pool sizes, cache entries).
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Gauge {
    /// Declares a gauge; use in a `static`.
    pub const fn new(name: &'static str) -> Self {
        Gauge { name, value: AtomicU64::new(0), registered: AtomicBool::new(false) }
    }

    /// Sets the level.
    #[inline]
    pub fn set(&'static self, v: u64) {
        ensure_registered!(self, Gauge);
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Concurrent log-bucketed histogram: the multi-writer counterpart of
/// [`LatencyHistogram`], sharing its bucket math so the two merge.
///
/// ~5 KiB of atomics per declared histogram; recording is two relaxed
/// RMWs plus a relaxed `fetch_max`.
pub struct AtomicHistogram {
    name: &'static str,
    counts: [AtomicU64; N_BUCKETS],
    total: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
    registered: AtomicBool,
}

impl AtomicHistogram {
    /// Declares a histogram; use in a `static`.
    pub const fn new(name: &'static str) -> Self {
        AtomicHistogram {
            name,
            counts: [const { AtomicU64::new(0) }; N_BUCKETS],
            total: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Records one duration sample.
    #[inline]
    pub fn record(&'static self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one nanosecond sample.
    #[inline]
    pub fn record_ns(&'static self, ns: u64) {
        ensure_registered!(self, Histogram);
        self.counts[bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of samples so far.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Copies the current state into a single-writer histogram. Readers
    /// race benignly with writers: a concurrent `record` may be partially
    /// visible, so the copy's `total` can differ from its bucket sum by
    /// in-flight samples — acceptable for monitoring, which is the point
    /// of a snapshot.
    pub fn to_histogram(&self) -> LatencyHistogram {
        let buckets: Vec<(u32, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((i as u32, n))
            })
            .collect();
        LatencyHistogram::from_sparse(
            &buckets,
            self.sum_ns.load(Ordering::Relaxed) as u128,
            self.max_ns.load(Ordering::Relaxed),
        )
    }
}

/// Assembles a snapshot of every metric touched so far, sorted by name
/// for deterministic output. Writers are never blocked; values are
/// relaxed reads.
pub fn snapshot() -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    let reg = REGISTRY.lock().expect("metric registry poisoned");
    for m in reg.iter() {
        match m {
            Metric::Counter(c) => {
                snap.counters.push(CounterSample { name: c.name().to_string(), value: c.get() })
            }
            Metric::Gauge(g) => {
                snap.gauges.push(GaugeSample { name: g.name().to_string(), value: g.get() })
            }
            Metric::Histogram(h) => {
                snap.histograms.push(HistogramSample::from_histogram(h.name(), &h.to_histogram()))
            }
        }
    }
    drop(reg);
    snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
    snap.gauges.sort_by(|a, b| a.name.cmp(&b.name));
    snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    static T_COUNTER: Counter = Counter::new("test.registry.counter");
    static T_GAUGE: Gauge = Gauge::new("test.registry.gauge");
    static T_HIST: AtomicHistogram = AtomicHistogram::new("test.registry.hist");

    #[test]
    fn metrics_register_on_first_touch_and_snapshot() {
        T_COUNTER.add(3);
        T_GAUGE.set(7);
        T_HIST.record(Duration::from_micros(50));
        let snap = snapshot();
        assert!(snap.counter("test.registry.counter").unwrap() >= 3);
        assert_eq!(snap.gauge("test.registry.gauge"), Some(7));
        let h = snap.histogram("test.registry.hist").unwrap();
        assert!(h.count >= 1);
        assert!(h.p50_ns > 0);
    }

    #[test]
    fn atomic_histogram_matches_sequential() {
        static H: AtomicHistogram = AtomicHistogram::new("test.registry.hist2");
        let mut reference = LatencyHistogram::new();
        for i in 1..=200u64 {
            H.record_ns(i * 1001);
            reference.record_ns(i * 1001);
        }
        let got = H.to_histogram();
        assert_eq!(got.count(), reference.count());
        for p in [10.0, 50.0, 90.0, 99.0] {
            assert_eq!(got.percentile(p), reference.percentile(p));
        }
        assert_eq!(got.max(), reference.max());
    }
}
