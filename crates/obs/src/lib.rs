//! # staq-obs
//!
//! Zero-dependency metrics & tracing for the STAQ workspace. The paper's
//! cost analysis (§IV-E) says SPQ labeling dominates end-to-end runtime;
//! this crate makes "where do the seconds go" answerable in-process and
//! over the wire, without taking a lock on any hot path.
//!
//! Three pieces:
//!
//! * [`registry`] — `static`-declared [`Counter`]s, [`Gauge`]s and
//!   concurrent [`AtomicHistogram`]s that self-register on first touch.
//!   Recording is relaxed atomics only; [`snapshot()`] assembles the
//!   registry's state on demand without blocking writers.
//! * [`hist`] — the log-bucketed mergeable [`LatencyHistogram`] plus
//!   the bucket math shared with the atomic variant.
//! * [`snapshot`] — [`MetricsSnapshot`], the serde-typed interchange view
//!   with a hand-rolled JSON codec (`to_json`/`from_json`) for
//!   `BENCH_*.json` trajectories and the serve `Stats` frame.
//! * [`trace`] — staq-trace: per-query spans in a lock-free seqlock ring,
//!   with a propagatable [`SpanContext`] that crosses threads by value
//!   and processes via the wire protocol's request frame header.
//! * [`prom`] — Prometheus text exposition of a snapshot; the daemons'
//!   `--metrics-addr` and the gateway's `GET /metrics` serve it through
//!   `staq_net::http`.
//! * [`window`] / [`slo`] / [`slow`] / [`ops`] — staq-ops: windowed
//!   snapshot deltas ("p99 *right now*", not since boot), declarative
//!   per-class SLOs with fast/slow burn rates, tail-sampled slow-trace
//!   retention, and the mergeable [`OpsReport`] the serving layer
//!   exposes fleet-wide.
//!
//! Instrumentation cost: a counter bump is one relaxed `fetch_add` plus a
//! relaxed flag load; a histogram record is three; an untraced span is a
//! thread-local read. Building with the `obs-off` feature compiles every
//! recording call — metrics and spans — to a no-op so the overhead
//! itself is benchmarkable.

pub mod hist;
pub mod ops;
pub mod prom;
pub mod registry;
pub mod slo;
pub mod slow;
pub mod snapshot;
pub mod trace;
pub mod window;

pub use hist::{fmt_dur, LatencyHistogram};
pub use ops::{BurnWindow, ClassWindow, OpsReport, SloStatus};
pub use registry::{snapshot, AtomicHistogram, Counter, Gauge, ScopedTimer};
pub use slo::{SloClass, SloSpec};
pub use slow::SlowTrace;
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, JsonError, MetricsSnapshot};
pub use trace::{OwnedSpan, SpanContext, TraceId};
pub use window::WindowRing;

/// True when the crate was built with recording compiled in (i.e. the
/// `obs-off` feature is absent) — benches stamp this into their reports
/// so a "fast" run can't silently be an uninstrumented one.
pub const fn obs_enabled() -> bool {
    cfg!(not(feature = "obs-off"))
}
