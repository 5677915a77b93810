//! The front server: wire protocol in, shard calls out.
//!
//! Speaks the same wire protocol as a single `staq-serve` server, so
//! every existing client — including the load generator — works against
//! a sharded fleet unchanged. Per-request routing:
//!
//! * `Measures` / `Query` / `AddPoi` / `WhatIf` carry a category →
//!   routed to the one shard that [`shard_for`] assigns it (what-if
//!   scenarios are read-only, so any replica answers them).
//! * `ApplyDelta` / `DeltaBatch` change the transit schedule for every
//!   category → the router is the fleet's sequencing authority: the
//!   supervisor appends the delta to its edit log under the next fleet
//!   sequence number (a client's `ApplyDelta` seq is advisory and
//!   ignored; `DeltaBatch` seqs are honored idempotently) and broadcasts
//!   it, gating OK on every shard acking. See `supervisor` module docs
//!   for catch-up and partial-failure behavior.
//! * `Stats` scatter-gathers: every live shard's [`StatsReply`] merges
//!   into one — engine fields sum, cached categories union, and metrics
//!   snapshots fold together via [`MetricsSnapshot::merge`] (or, when the
//!   backends share this process's registry, one snapshot stands for all
//!   to avoid double-counting).
//!
//! The socket side is `staq-serve`'s front end, unchanged
//! ([`staq_serve::serve_front`]): one event-loop thread owns every front
//! socket, decodes frames and gates admission; the worker pool runs
//! [`dispatch`], each worker blocking on one backend round-trip at a time
//! (which the per-shard mux pools coalesce onto shared streams).

use crate::hash::{shard_for, shard_for_key};
use crate::metrics;
use crate::supervisor::{fan_out, ShardSupervisor};
use staq_obs::{trace, MetricsSnapshot, OpsReport, OwnedSpan};
use staq_serve::codec::{ErrorCode, Request, Response, StatsReply};
use staq_serve::{serve_front, FrontNames, ServerHandle};
use std::net::SocketAddr;
use std::sync::Arc;

/// Router front-end tunables: the same settings as a backend's front end.
/// `workers` counts routing threads, each blocking on one backend
/// round-trip at a time (shard-side concurrency is what they fan into).
pub use staq_serve::ServerConfig as RouterConfig;

/// Handle to a running router; dropping it shuts down the front end and
/// the supervised backend fleet.
pub struct RouterHandle {
    front: ServerHandle,
    sup: Arc<ShardSupervisor>,
}

impl RouterHandle {
    /// The bound front address.
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Live front connections.
    pub fn conn_count(&self) -> usize {
        self.front.conn_count()
    }

    /// The supervised fleet behind this router (test hooks: kill a
    /// backend, check shard status).
    pub fn supervisor(&self) -> &ShardSupervisor {
        &self.sup
    }

    /// Graceful shutdown: drain the front end (queued requests finish
    /// routing, every outbound queue is flushed), and only then stop the
    /// backends those replies needed. Idempotent.
    pub fn shutdown(&mut self) {
        self.front.shutdown();
        self.sup.shutdown();
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Binds the front end over an already-started fleet. The router is the
/// fleet's edge: its request span continues a traced client's context,
/// or mints the TraceId here.
pub fn route(sup: ShardSupervisor, cfg: &RouterConfig) -> std::io::Result<RouterHandle> {
    let sup = Arc::new(sup);
    let names = FrontNames {
        reactor: "staq-shard",
        request_span: "shard.request",
        queue_wait_span: "shard.queue_wait",
    };
    let fleet = Arc::clone(&sup);
    let front = serve_front(cfg, names, move |job| dispatch(&fleet, job.request))?;
    Ok(RouterHandle { front, sup })
}

/// Routes one decoded request to the fleet and produces its response.
pub fn dispatch(sup: &ShardSupervisor, request: Request) -> Response {
    metrics::route_counter(request.kind_label()).inc();
    match &request {
        Request::Measures { category, .. }
        | Request::Query { category, .. }
        | Request::AddPoi { category, .. }
        | Request::WhatIf { category, .. } => {
            let shard = shard_for(*category, sup.n_shards());
            let mut span = trace::span("shard.route");
            span.attr("shard", shard as u64);
            sup.call(shard, &request)
        }
        // Schedule edits: the supervisor sequences them into the fleet
        // log and broadcasts, replying OK only once every shard acked.
        // The router assigns fleet sequence numbers; a client's own seq
        // is advisory and ignored (0 already means "assign for me").
        Request::ApplyDelta { delta, .. } => match sup.broadcast_delta(delta.clone()) {
            Ok(ack) => Response::ApplyDelta(ack),
            Err(e) => e,
        },
        Request::DeltaBatch { first_seq, deltas } => sup.broadcast_batch(*first_seq, deltas),
        Request::Stats => gather_stats(sup),
        Request::OpsReport => gather_ops(sup),
        Request::TraceDump { min_dur_ns, set_capture_ns } => {
            gather_traces(sup, *min_dur_ns, *set_capture_ns)
        }
        // Journey planning has no category: every shard serves the same
        // replicated timetable, so spread queries by a rendezvous hash of
        // the OD pair (a repeated query sticks to one shard's warm caches).
        Request::Plan { origin, dest, .. } => {
            let key = origin.x.to_bits()
                ^ origin.y.to_bits().rotate_left(16)
                ^ dest.x.to_bits().rotate_left(32)
                ^ dest.y.to_bits().rotate_left(48);
            let shard = shard_for_key(key, sup.n_shards());
            let mut span = trace::span("shard.route");
            span.attr("shard", shard as u64);
            sup.call(shard, &request)
        }
    }
}

/// Scatter-gathers `Stats` from every live shard into one reply.
fn gather_stats(sup: &ShardSupervisor) -> Response {
    let stats: Vec<StatsReply> = fan_out(sup.n_shards(), |i| sup.call(i, &Request::Stats))
        .into_iter()
        .filter_map(|r| match r {
            Response::Stats(s) => Some(s),
            _ => None,
        })
        .collect();
    if stats.is_empty() {
        return Response::Error {
            code: ErrorCode::Unavailable,
            message: "no shard answered stats".into(),
        };
    }
    Response::Stats(merge_stats(stats, sup.any_in_process()))
}

/// Scatter-gathers `OpsReport` from every live shard and folds the
/// replies (class windows and burn counts sum, slow traces re-rank) into
/// one fleet view that includes the router's own report. With in-process
/// backends the fleet shares one registry and trace ring, so the local
/// report already covers everyone — merging N copies would multiply
/// every rate by the fleet size, exactly like `Stats`.
fn gather_ops(sup: &ShardSupervisor) -> Response {
    if sup.any_in_process() {
        return Response::OpsReport(staq_obs::ops::report(staq_obs::slow::SLOW_KEEP));
    }
    let mut merged: OpsReport = staq_obs::ops::report(staq_obs::slow::SLOW_KEEP);
    for r in fan_out(sup.n_shards(), |i| sup.call(i, &Request::OpsReport)) {
        if let Response::OpsReport(report) = r {
            merged.merge(&report);
        }
    }
    Response::OpsReport(merged)
}

/// Scatter-gathers `TraceDump` from every shard and concatenates the
/// spans with the router's own ring. With in-process backends the fleet
/// shares one ring, so the local dump already covers everyone (fanning
/// out would return every span N+1 times). Shards that fail to answer
/// are skipped — a trace dump is diagnostic, not transactional.
fn gather_traces(sup: &ShardSupervisor, min_dur_ns: u64, set_capture_ns: Option<u64>) -> Response {
    if let Some(ns) = set_capture_ns {
        trace::set_capture_min_ns(ns);
    }
    if sup.any_in_process() {
        return Response::TraceDump(trace::dump(min_dur_ns));
    }
    let request = Request::TraceDump { min_dur_ns, set_capture_ns };
    let mut spans: Vec<OwnedSpan> = trace::dump(min_dur_ns);
    for r in fan_out(sup.n_shards(), |i| sup.call(i, &request)) {
        if let Response::TraceDump(s) = r {
            spans.extend(s);
        }
    }
    Response::TraceDump(spans)
}

/// Merges per-shard stats. Engine-level fields (`pipeline_runs`,
/// `requests_served`, `workers`, `cached`) are per-engine state and
/// always sum/union. The metrics snapshot is registry state: with
/// out-of-process backends each reply carries a distinct registry and
/// they fold via [`MetricsSnapshot::merge`]; with in-process backends
/// every reply snapshot *is* this process's registry, so the local
/// snapshot stands alone (summing N copies would multiply every value
/// by the fleet size).
fn merge_stats(stats: Vec<StatsReply>, backends_share_registry: bool) -> StatsReply {
    let mut merged = StatsReply {
        pipeline_runs: 0,
        requests_served: 0,
        cached: Vec::new(),
        workers: 0,
        metrics: MetricsSnapshot::default(),
    };
    for s in &stats {
        merged.pipeline_runs += s.pipeline_runs;
        merged.requests_served += s.requests_served;
        merged.workers = merged.workers.saturating_add(s.workers);
        for &c in &s.cached {
            if !merged.cached.contains(&c) {
                merged.cached.push(c);
            }
        }
    }
    // Deterministic category order, independent of shard reply order.
    merged.cached.sort_by_key(|c| {
        staq_synth::PoiCategory::ALL.iter().position(|k| k == c).unwrap_or(usize::MAX)
    });
    if backends_share_registry {
        merged.metrics = staq_obs::snapshot();
    } else {
        for s in &stats {
            merged.metrics.merge(&s.metrics);
        }
        // The router's own registry (shard.* counters, per-backend
        // latency) rides along in the same reply.
        merged.metrics.merge(&staq_obs::snapshot());
    }
    merged
}
