//! # staq-obs
//!
//! Zero-dependency metrics & tracing for the STAQ workspace. The paper's
//! cost analysis (§IV-E) says SPQ labeling dominates end-to-end runtime;
//! this crate makes "where do the seconds go" answerable in-process and
//! over the wire, without taking a lock on any hot path.
//!
//! Six pieces, one of each:
//!
//! * [`registry`] — `static`-declared [`Counter`]s, [`Gauge`]s and
//!   concurrent [`AtomicHistogram`]s that self-register on first touch.
//!   Recording is relaxed atomics only; [`snapshot()`] assembles the
//!   registry's state on demand without blocking writers.
//! * [`hist`] — the log-bucketed mergeable [`LatencyHistogram`] plus
//!   the bucket math shared with the atomic variant.
//! * [`snapshot`](mod@snapshot) — [`MetricsSnapshot`], the plain-data view of the
//!   registry that the serve `Stats` frame carries (staq-serve's wire
//!   codec is its one interchange format).
//! * [`trace`] — staq-trace: per-query spans in a lock-free seqlock ring,
//!   with a propagatable [`SpanContext`] that crosses threads by value
//!   and processes via the wire protocol's request frame header.
//! * [`prom`] — Prometheus text exposition of a snapshot; the daemons'
//!   `--metrics-addr` and the gateway's `GET /metrics` serve it through
//!   `staq_net::http`.
//! * [`slo`] / [`slow`] / [`ops`] — staq-ops: one table of what each
//!   serving class owns, declarative per-class SLOs with fast/slow burn
//!   rates over a ring of per-class windows ("p99 *right now*", not
//!   since boot), tail-sampled slow-trace retention, and the mergeable
//!   [`OpsReport`] the serving layer exposes fleet-wide.
//!
//! Instrumentation cost: a counter bump is one relaxed `fetch_add` plus a
//! relaxed flag load; a histogram record is three; an untraced span is a
//! thread-local read. There is one recording path and it is always
//! compiled in; [`trace::set_enabled`] silences spans at runtime, which
//! is how `staq-e2e` prices them (`obs.trace_off_speedup`).

pub mod hist;
pub mod ops;
pub mod prom;
pub mod registry;
pub mod slo;
pub mod slow;
pub mod snapshot;
pub mod trace;

pub use hist::{fmt_dur, LatencyHistogram};
pub use ops::{BurnWindow, ClassWindow, OpsReport, SloStatus};
pub use registry::{snapshot, AtomicHistogram, Counter, Gauge};
pub use slo::{SloClass, SloSpec};
pub use slow::SlowTrace;
pub use snapshot::{CounterSample, GaugeSample, HistogramSample, MetricsSnapshot};
pub use trace::{OwnedSpan, SpanContext, TraceId};

/// Always true: recording is compiled into every build. Kept because
/// the `staq-e2e` benchmark stamps it into each run record.
pub const fn obs_enabled() -> bool {
    true
}
