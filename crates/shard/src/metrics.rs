//! Router-side staq-obs metrics.
//!
//! The obs registry is statics-only (no dynamic metric names), so the
//! per-backend latency histograms are a fixed bank of eight; fleets larger
//! than eight shards fold the tail into `shard.backend.7plus.latency`.
//! Everything here rides the normal [`staq_obs::snapshot()`] path, so the
//! router's own numbers appear in the merged `Stats` reply next to the
//! backends'.

use staq_obs::{AtomicHistogram, Counter};

/// Requests routed, by request kind (mirrors `Request::kind_label`).
static ROUTE_MEASURES: Counter = Counter::new("shard.route.measures");
static ROUTE_QUERY: Counter = Counter::new("shard.route.query");
static ROUTE_ADD_POI: Counter = Counter::new("shard.route.add_poi");
static ROUTE_STATS: Counter = Counter::new("shard.route.stats");
static ROUTE_TRACE_DUMP: Counter = Counter::new("shard.route.trace_dump");

/// Mid-call failures retried on a fresh connection (idempotent reads only).
pub(crate) static RETRIES: Counter = Counter::new("shard.backend.retries");
/// Up→down transitions: a backend was marked unavailable.
pub(crate) static FAILOVERS: Counter = Counter::new("shard.backend.failovers");
/// Down→up transitions driven by the supervisor restarting a backend.
pub(crate) static RESPAWNS: Counter = Counter::new("shard.backend.respawns");

/// Bumps the route counter for one request kind.
pub(crate) fn route_counter(kind: &'static str) -> &'static Counter {
    match kind {
        "measures" => &ROUTE_MEASURES,
        "query" => &ROUTE_QUERY,
        "add_poi" => &ROUTE_ADD_POI,
        "trace_dump" => &ROUTE_TRACE_DUMP,
        _ => &ROUTE_STATS,
    }
}

static B0: AtomicHistogram = AtomicHistogram::new("shard.backend.0.latency");
static B1: AtomicHistogram = AtomicHistogram::new("shard.backend.1.latency");
static B2: AtomicHistogram = AtomicHistogram::new("shard.backend.2.latency");
static B3: AtomicHistogram = AtomicHistogram::new("shard.backend.3.latency");
static B4: AtomicHistogram = AtomicHistogram::new("shard.backend.4.latency");
static B5: AtomicHistogram = AtomicHistogram::new("shard.backend.5.latency");
static B6: AtomicHistogram = AtomicHistogram::new("shard.backend.6.latency");
static B7: AtomicHistogram = AtomicHistogram::new("shard.backend.7plus.latency");

/// Round-trip latency histogram for one backend (request sent → response
/// decoded, as the router measured it).
pub(crate) fn backend_latency(shard: usize) -> &'static AtomicHistogram {
    const BANK: [&AtomicHistogram; 8] = [&B0, &B1, &B2, &B3, &B4, &B5, &B6, &B7];
    BANK[shard.min(BANK.len() - 1)]
}
