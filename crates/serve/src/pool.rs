//! Fixed-size worker pool over a bounded request queue, and the
//! backend's request executor.
//!
//! The front end ([`crate::server`]) enqueues `Job`s; `N` workers run
//! each admitted one through the pool's executor and hand the
//! [`Response`] to the job's reply callback. The pool is the same for
//! every front end — what differs is the executor: a backend runs
//! `backend_executor` ([`execute`] against the shared [`RtEngine`], a
//! sequenced delta log wrapping the [`AccessEngine`], so replicas can
//! replay a server's edits deterministically); the shard router plugs in
//! its dispatch. The queue is bounded, so a flood of requests is shed at
//! the front instead of growing memory without limit.
//! `WorkerPool::shutdown` (or dropping the pool) revokes the queue's
//! sender; workers drain what is left and exit.

use crate::codec::{DeltaAck, ErrorCode, Request, Response, StatsReply, WhatIfAnswer};
use crate::server::FrontNames;
use crossbeam::channel::{bounded, Sender};
use parking_lot::Mutex;
use staq_access::AccessQuery;
use staq_core::AccessEngine;
use staq_net::admission::{Admission, ShedReason};
use staq_obs::trace::Span;
use staq_obs::{slo, slow, trace, AtomicHistogram, Counter, SloClass, SpanContext};
use staq_rt::{RtEngine, RtError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Requests executed, all kinds (the registry's view of
/// `PoolStats::requests_served`, which stays per-pool).
static REQUESTS: Counter = Counter::new("serve.requests");
/// Server-side execution latency per request kind — queue wait excluded,
/// engine time included, so the histograms price the work itself.
static H_MEASURES: AtomicHistogram = AtomicHistogram::new("serve.request.measures");
static H_QUERY: AtomicHistogram = AtomicHistogram::new("serve.request.query");
static H_ADD_POI: AtomicHistogram = AtomicHistogram::new("serve.request.add_poi");
static H_STATS: AtomicHistogram = AtomicHistogram::new("serve.request.stats");
static H_TRACE_DUMP: AtomicHistogram = AtomicHistogram::new("serve.request.trace_dump");
static H_APPLY_DELTA: AtomicHistogram = AtomicHistogram::new("serve.request.apply_delta");
static H_DELTA_BATCH: AtomicHistogram = AtomicHistogram::new("serve.request.delta_batch");
static H_WHAT_IF: AtomicHistogram = AtomicHistogram::new("serve.request.what_if");
static H_PLAN: AtomicHistogram = AtomicHistogram::new("serve.request.plan");
static H_OPS_REPORT: AtomicHistogram = AtomicHistogram::new("serve.request.ops_report");

/// The latency histogram for one request kind; names follow
/// [`Request::kind_label`] under the `serve.request.` prefix.
fn kind_histogram(request: &Request) -> &'static AtomicHistogram {
    match request {
        Request::Measures { .. } => &H_MEASURES,
        Request::Query { .. } => &H_QUERY,
        Request::AddPoi { .. } => &H_ADD_POI,
        Request::Stats => &H_STATS,
        Request::TraceDump { .. } => &H_TRACE_DUMP,
        Request::ApplyDelta { .. } => &H_APPLY_DELTA,
        Request::DeltaBatch { .. } => &H_DELTA_BATCH,
        Request::WhatIf { .. } => &H_WHAT_IF,
        Request::Plan { .. } => &H_PLAN,
        Request::OpsReport => &H_OPS_REPORT,
    }
}

/// The SLO class a request's latency and sheds are attributed to.
/// Introspection kinds (`Stats`, `TraceDump`, `OpsReport`) and the
/// scenario sandbox (`WhatIf`) carry no objective and return `None`.
pub fn slo_class(request: &Request) -> Option<SloClass> {
    match request {
        Request::Query { .. } => Some(SloClass::Query),
        Request::Plan { .. } => Some(SloClass::Plan),
        Request::Measures { .. } => Some(SloClass::Measures),
        Request::AddPoi { .. } | Request::ApplyDelta { .. } | Request::DeltaBatch { .. } => {
            Some(SloClass::Edits)
        }
        Request::Stats
        | Request::TraceDump { .. }
        | Request::WhatIf { .. }
        | Request::OpsReport => None,
    }
}

/// The `Overloaded` answer for a shed request, counted against the
/// reason and the request's SLO class.
pub(crate) fn shed(reason: ShedReason, request: &Request) -> Response {
    reason.count();
    if let Some(class) = slo_class(request) {
        slo::shed(class);
    }
    Response::Error { code: ErrorCode::Overloaded, message: reason.message().into() }
}

/// One queued request plus where its answer goes back.
pub(crate) struct Job {
    pub request: Request,
    /// Delivers the answer: the front end's callback encodes the frame
    /// and pushes it onto the connection's outbound queue without
    /// parking a thread.
    pub reply: Box<dyn FnOnce(Response) + Send>,
    /// The peer's propagated span context; the worker re-attaches it so
    /// engine spans land in the caller's trace (or roots a new one).
    pub ctx: SpanContext,
    /// When the job entered the queue — priced as the queue-wait span.
    pub enqueued: Instant,
    /// Absolute shed point: a worker that dequeues the job after this
    /// instant answers `Overloaded` without executing.
    pub deadline: Option<Instant>,
}

/// An admitted request as its executor receives it: on a worker thread,
/// inside the request span.
pub struct InFlight {
    pub request: Request,
    /// When the request was decoded and queued; the request span is
    /// backdated to it.
    pub enqueued: Instant,
    /// The open request span. It is recorded when dropped — at the
    /// latest when the executor returns; an executor that needs the
    /// finished span in the ring drops it sooner.
    pub span: Span,
}

/// Shared counters the pool maintains for `Stats` requests.
#[derive(Default)]
pub struct PoolStats {
    requests_served: AtomicU64,
}

impl PoolStats {
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Relaxed)
    }
}

/// The queue's sender, shared between the pool and the front end's
/// handler and revocable by the pool: taking it at shutdown is what lets
/// the workers observe channel disconnect and exit (the handler lives
/// inside the reactor thread until the reactor finishes, so a plain
/// `Sender` clone there would hold the channel open and deadlock the
/// worker join).
pub(crate) type JobSender = Arc<Mutex<Option<Sender<Job>>>>;

/// Fixed worker threads running one executor over a bounded job queue.
pub(crate) struct WorkerPool {
    jobs: JobSender,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads with a queue of `queue_depth` jobs. The
    /// front end consults `admission` at decode time; the workers feed
    /// it execution samples and apply the dequeue-side deadline shed.
    pub fn spawn<E>(
        names: FrontNames,
        workers: usize,
        queue_depth: usize,
        admission: Arc<Admission>,
        exec: E,
    ) -> Self
    where
        E: Fn(InFlight) -> Response + Send + Sync + 'static,
    {
        assert!(workers >= 1, "a pool needs at least one worker");
        assert!(queue_depth >= 1, "the queue must hold at least one job");
        let (tx, rx) = bounded::<Job>(queue_depth);
        let exec = Arc::new(exec);
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let admission = Arc::clone(&admission);
                let exec = Arc::clone(&exec);
                std::thread::Builder::new()
                    .name(format!("{}-worker-{i}", names.reactor))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            run_job(job, names, &admission, &*exec);
                        }
                    })
                    .expect("spawning worker thread")
            })
            .collect();
        WorkerPool { jobs: Arc::new(Mutex::new(Some(tx))), workers: handles }
    }

    /// The revocable queue sender, for the front end's handler.
    pub fn jobs(&self) -> JobSender {
        Arc::clone(&self.jobs)
    }

    /// Revokes the sender and joins every worker; queued jobs are run
    /// (and answered) first. Idempotent.
    pub fn shutdown(&mut self) {
        self.jobs.lock().take();
        for h in self.workers.drain(..) {
            h.join().expect("worker thread panicked");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One dequeued job, start to reply.
fn run_job(
    job: Job,
    names: FrontNames,
    admission: &Admission,
    exec: &impl Fn(InFlight) -> Response,
) {
    // Adopt the peer's trace on this worker thread, or root a new one
    // when this front end is the edge: the request span is backdated to
    // enqueue time, the queue wait priced as its first child.
    let _ctx = trace::attach(job.ctx);
    let span = if job.ctx.is_some() {
        trace::span_at(names.request_span, job.enqueued)
    } else {
        trace::root_span_at(names.request_span, job.enqueued)
    };
    drop(trace::span_at(names.queue_wait_span, job.enqueued));
    // Dequeue-side shed: the deadline lapsed while the job waited, so
    // executing it would only burn a worker on a dead answer.
    if job.deadline.is_some_and(|d| Instant::now() > d) {
        let refusal = shed(ShedReason::Expired, &job.request);
        drop(span);
        (job.reply)(refusal);
        return;
    }
    let t0 = Instant::now();
    let response = exec(InFlight { request: job.request, enqueued: job.enqueued, span });
    admission.observe_exec(t0.elapsed());
    (job.reply)(response);
}

/// What a backend's workers run: [`execute`] against `rt`, the pool's
/// request count, and — once the request span has closed — slow-trace
/// promotion.
pub(crate) fn backend_executor(
    rt: Arc<RtEngine>,
    pool_size: usize,
) -> impl Fn(InFlight) -> Response + Send + Sync + 'static {
    let stats = PoolStats::default();
    move |job: InFlight| {
        let response = execute(&rt, &stats, pool_size, &job.request);
        stats.requests_served.fetch_add(1, Ordering::Relaxed);
        // The worker is the one place the request's class, outcome and
        // full duration coexist with a ring that still holds its spans:
        // drop the request span so it lands in the ring, then decide
        // whether the completed trace earns slow-capture retention.
        let trace_id = trace::current().trace;
        drop(job.span);
        if let Some(class) = slo_class(&job.request) {
            let is_error = matches!(response, Response::Error { .. });
            slow::maybe_promote(
                class,
                trace_id,
                job.enqueued.elapsed().as_nanos() as u64,
                is_error,
            );
        }
        response
    }
}

/// Executes one request against the engine, timing it into the kind's
/// latency histogram. Validation happens here or in the delta path's
/// `Result` (never an engine assert) so a bad request becomes an error
/// frame instead of a dead worker.
pub fn execute(rt: &RtEngine, stats: &PoolStats, pool_size: usize, request: &Request) -> Response {
    let t0 = Instant::now();
    let span = trace::span("serve.execute");
    let response = execute_inner(rt, stats, pool_size, request);
    drop(span);
    REQUESTS.inc();
    kind_histogram(request).record(t0.elapsed());
    response
}

/// Maps a streaming failure to its error frame: gaps are recoverable
/// (resend the tail), rejections are semantic.
fn rt_error(e: RtError) -> Response {
    match e {
        RtError::Gap { .. } => Response::Error { code: ErrorCode::SeqGap, message: e.to_string() },
        RtError::Rejected(message) => Response::Error { code: ErrorCode::Invalid, message },
    }
}

fn execute_inner(
    rt: &RtEngine,
    stats: &PoolStats,
    pool_size: usize,
    request: &Request,
) -> Response {
    let engine: &AccessEngine = rt.engine();
    // The approx flag on `Measures` / `Query` is accepted and ignored:
    // every answer is exact.
    match request {
        Request::Measures { category, .. } => {
            Response::Measures(engine.measures(*category).predicted.clone())
        }
        Request::Query { query: AccessQuery::PointAccess { x, y }, .. }
            if !x.is_finite() || !y.is_finite() =>
        {
            Response::Error {
                code: ErrorCode::Invalid,
                message: "point_access coordinates must be finite".into(),
            }
        }
        Request::Query { category, query, .. } => Response::Query(engine.query(query, *category)),
        Request::AddPoi { category, pos } => {
            if !pos.x.is_finite() || !pos.y.is_finite() {
                return Response::Error {
                    code: ErrorCode::Invalid,
                    message: "POI position must be finite".into(),
                };
            }
            Response::AddPoi { poi_id: engine.add_poi(*category, *pos).0 }
        }
        Request::ApplyDelta { seq, delta } => match rt.apply_at(*seq, delta.clone()) {
            Ok(a) => Response::ApplyDelta(DeltaAck {
                seq: a.seq,
                zones_rebuilt: a.receipt.map_or(0, |r| r.zones_rebuilt as u32),
                replayed: a.receipt.is_none(),
            }),
            Err(e) => rt_error(e),
        },
        Request::DeltaBatch { first_seq, deltas } => {
            if *first_seq == 0 {
                return Response::Error {
                    code: ErrorCode::Invalid,
                    message: "a delta batch carries explicit sequence numbers (first_seq >= 1)"
                        .into(),
                };
            }
            match rt.apply_batch(*first_seq, deltas) {
                Ok(a) => Response::DeltaBatch { last_seq: a.seq },
                Err(e) => rt_error(e),
            }
        }
        Request::WhatIf { category, scenarios, query } => match rt.what_if(*category, scenarios) {
            Ok(outcomes) => Response::WhatIf(
                outcomes
                    .iter()
                    .map(|o| WhatIfAnswer {
                        answer: engine.answer_with(&o.predicted, query),
                        overlay_bytes: 0,
                    })
                    .collect(),
            ),
            Err(e) => rt_error(e),
        },
        Request::Stats => Response::Stats(StatsReply {
            pipeline_runs: engine.pipeline_runs(),
            requests_served: stats.requests_served(),
            cached: engine.cached_categories(),
            workers: pool_size as u16,
            // The snapshot is taken before this stats request's own
            // latency lands, so `serve.request.stats` lags itself by one.
            metrics: staq_obs::snapshot(),
        }),
        Request::TraceDump { min_dur_ns, set_capture_ns } => {
            if let Some(ns) = set_capture_ns {
                trace::set_capture_min_ns(*ns);
            }
            Response::TraceDump(trace::dump(*min_dur_ns))
        }
        Request::Plan { origin, dest, depart, day, max_transfers } => {
            if !origin.x.is_finite()
                || !origin.y.is_finite()
                || !dest.x.is_finite()
                || !dest.y.is_finite()
            {
                return Response::Error {
                    code: ErrorCode::Invalid,
                    message: "plan endpoints must be finite".into(),
                };
            }
            Response::Plan(engine.plan(*origin, *dest, *depart, *day, *max_transfers))
        }
        Request::OpsReport => {
            // Ticks the window ring lazily (the poll cadence defines the
            // window width) and assembles this process's fleet-mergeable
            // health view.
            Response::OpsReport(staq_obs::ops::report(staq_obs::slow::SLOW_KEEP))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SERVE_NAMES;
    use staq_core::PipelineConfig;
    use staq_gtfs::Delta;
    use staq_ml::ModelKind;
    use staq_net::admission::AdmissionConfig;
    use staq_synth::{City, CityConfig, PoiCategory};
    use staq_todam::TodamSpec;

    fn engine() -> Arc<AccessEngine> {
        let city = City::generate(&CityConfig::small(42));
        Arc::new(AccessEngine::new(
            city,
            PipelineConfig {
                beta: 0.25,
                model: ModelKind::Ols,
                todam: TodamSpec { per_hour: 3, ..Default::default() },
                ..Default::default()
            },
        ))
    }

    /// A backend pool with no socket in front of it.
    fn spawn(engine: Arc<AccessEngine>, workers: usize, queue_depth: usize) -> WorkerPool {
        let admission =
            Arc::new(Admission::new(AdmissionConfig { workers, ..AdmissionConfig::default() }));
        let exec = backend_executor(Arc::new(RtEngine::new(engine)), workers);
        WorkerPool::spawn(SERVE_NAMES, workers, queue_depth, admission, exec)
    }

    fn roundtrip(pool: &WorkerPool, request: Request) -> Response {
        let (reply_tx, reply_rx) = bounded(1);
        let job = Job {
            request,
            reply: Box::new(move |response| {
                let _ = reply_tx.send(response);
            }),
            ctx: trace::current(),
            enqueued: Instant::now(),
            deadline: None,
        };
        let sent = pool.jobs().lock().as_ref().expect("pool is running").send(job);
        assert!(sent.is_ok(), "workers hold the queue open");
        reply_rx.recv().unwrap()
    }

    /// staq-obs names each SLO class's latency histograms; this module
    /// declares them. The two must agree or a class's windows go quiet.
    #[test]
    fn slo_classes_name_the_histograms_their_kinds_record_into() {
        use staq_gtfs::model::TripId;
        let p = staq_geom::Point::new(0.0, 0.0);
        let (category, query) = (PoiCategory::School, AccessQuery::MeanAccess);
        let delta = Delta::TripDelay { trip: TripId(0), delay_secs: 60 };
        let one_of_every_kind = [
            Request::Measures { category, approx: false },
            Request::Query { category, query: query.clone(), approx: false },
            Request::AddPoi { category, pos: p },
            Request::Stats,
            Request::TraceDump { min_dur_ns: 0, set_capture_ns: None },
            Request::ApplyDelta { seq: 0, delta: delta.clone() },
            Request::DeltaBatch { first_seq: 1, deltas: vec![delta] },
            Request::WhatIf { category, scenarios: vec![], query },
            Request::Plan {
                origin: p,
                dest: p,
                depart: staq_gtfs::time::Stime::hms(7, 30, 0),
                day: staq_gtfs::time::DayOfWeek::Tuesday,
                max_transfers: None,
            },
            Request::OpsReport,
        ];
        let mut labels: Vec<_> = one_of_every_kind.iter().map(Request::kind_label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), one_of_every_kind.len(), "one request per kind");
        for r in &one_of_every_kind {
            let hist = kind_histogram(r).name();
            assert_eq!(hist, format!("serve.request.{}", r.kind_label()));
            if let Some(class) = slo_class(r) {
                assert!(class.hist_names().contains(&hist), "{class:?} omits {hist}");
            }
        }
        for class in SloClass::ALL {
            for name in class.hist_names() {
                let recorded = one_of_every_kind
                    .iter()
                    .any(|r| slo_class(r) == Some(class) && kind_histogram(r).name() == *name);
                assert!(recorded, "no {class:?} request kind records into {name}");
            }
        }
    }

    /// "Fastest with ≤1 transfer" end-to-end: a `Plan` frame through the
    /// pool answers with the Pareto frontier, and the capped variant
    /// returns exactly the frontier's best ≤1-transfer point.
    #[test]
    fn plan_answers_pareto_and_capped_queries() {
        let pool = spawn(engine(), 2, 8);
        let city = City::generate(&CityConfig::small(42));
        let o = city.zones[3].centroid;
        let d = city.zones[city.zones.len() - 4].centroid;
        let depart = staq_gtfs::time::Stime::hms(7, 30, 0);
        let day = staq_gtfs::time::DayOfWeek::Tuesday;
        let plan = |max_transfers| Request::Plan { origin: o, dest: d, depart, day, max_transfers };
        let frontier = match roundtrip(&pool, plan(None)) {
            Response::Plan(js) => js,
            other => panic!("{other:?}"),
        };
        assert!(!frontier.is_empty(), "frontier always has the walk fallback");
        for w in frontier.windows(2) {
            assert!(w[0].n_transfers() < w[1].n_transfers());
            assert!(w[0].arrive > w[1].arrive);
        }
        let capped = match roundtrip(&pool, plan(Some(1))) {
            Response::Plan(js) => js,
            other => panic!("{other:?}"),
        };
        assert_eq!(capped.len(), 1);
        assert!(capped[0].n_transfers() <= 1);
        let want = frontier
            .iter()
            .filter(|j| j.n_transfers() <= 1)
            .map(|j| j.arrive)
            .min()
            .expect("walk fallback has zero transfers");
        assert_eq!(capped[0].arrive, want);

        let bad = Request::Plan {
            origin: staq_geom::Point::new(f64::NAN, 0.0),
            dest: d,
            depart,
            day,
            max_transfers: None,
        };
        match roundtrip(&pool, bad) {
            Response::Error { code: ErrorCode::Invalid, .. } => {}
            other => panic!("NaN origin must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn pool_answers_and_counts_requests() {
        let pool = spawn(engine(), 2, 8);
        match roundtrip(&pool, Request::Measures { category: PoiCategory::School, approx: false }) {
            Response::Measures(ms) => assert!(!ms.is_empty()),
            other => panic!("{other:?}"),
        }
        match roundtrip(&pool, Request::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.pipeline_runs, 1);
                assert_eq!(s.requests_served, 1); // stats itself not yet counted
                assert_eq!(s.cached, vec![PoiCategory::School]);
                assert_eq!(s.workers, 2);
                // The embedded snapshot saw the measures request land
                // (obs statics are process-global, so only lower bounds
                // hold when tests share the binary).
                assert!(s.metrics.counter("serve.requests").unwrap_or(0) >= 1);
                let h = s.metrics.histogram("serve.request.measures").expect("measures hist");
                assert!(h.count >= 1, "measures latency must be recorded");
                assert!(h.p50_ns > 0, "recorded latencies are nonzero");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalid_edits_become_error_frames_not_panics() {
        use staq_geom::Point;
        let e = engine();
        let pool = spawn(Arc::clone(&e), 1, 4);
        let measures = |pool: &WorkerPool| match roundtrip(
            pool,
            Request::Measures { category: PoiCategory::School, approx: false },
        ) {
            Response::Measures(ms) => assert!(!ms.is_empty()),
            other => panic!("{other:?}"),
        };
        let route = |stops: Vec<Point>, headway_s| Delta::AddRoute { stops, headway_s };
        let (a, b) = (Point::new(100.0, 100.0), Point::new(900.0, 900.0));
        // One stop, and a stop so far out that its run time overflows the
        // service clock.
        for bad in [route(vec![a], 600), route(vec![a, Point::new(1e12, 100.0)], 600)] {
            match roundtrip(&pool, Request::ApplyDelta { seq: 0, delta: bad }) {
                Response::Error { code, .. } => assert_eq!(code, ErrorCode::Invalid),
                other => panic!("{other:?}"),
            }
            // The worker survived and keeps serving.
            measures(&pool);
        }
        // A headway longer than the day is one trip each way, not a
        // wrapped clock.
        let trips = |e: &AccessEngine| e.city().feed.feed().trips.len();
        let before = trips(&e);
        match roundtrip(&pool, Request::ApplyDelta { seq: 0, delta: route(vec![a, b], u32::MAX) }) {
            Response::ApplyDelta(_) => assert_eq!(trips(&e), before + 2),
            other => panic!("{other:?}"),
        }
        measures(&pool);
        match roundtrip(&pool, Request::Stats) {
            Response::Stats(s) => assert_eq!(s.requests_served, 6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shutdown_joins_workers() {
        let mut pool = spawn(engine(), 3, 4);
        pool.shutdown();
        pool.shutdown(); // idempotent
    }

    #[test]
    fn edits_and_deltas_share_one_sequenced_log() {
        use staq_gtfs::model::TripId;

        let pool = spawn(engine(), 1, 4);
        // A route edit takes seq 1...
        let stops = vec![staq_geom::Point::new(100.0, 100.0), staq_geom::Point::new(900.0, 900.0)];
        let route = Delta::AddRoute { stops, headway_s: 600 };
        match roundtrip(&pool, Request::ApplyDelta { seq: 0, delta: route }) {
            Response::ApplyDelta(ack) => assert_eq!(ack.seq, 1),
            other => panic!("{other:?}"),
        }
        // ...so the next delta gets seq 2.
        let delta = Delta::TripDelay { trip: TripId(0), delay_secs: 60 };
        match roundtrip(&pool, Request::ApplyDelta { seq: 0, delta: delta.clone() }) {
            Response::ApplyDelta(ack) => {
                assert_eq!(ack.seq, 2);
                assert!(!ack.replayed);
            }
            other => panic!("{other:?}"),
        }
        // Replaying seq 2 is idempotent; jumping to 9 is a gap.
        match roundtrip(&pool, Request::ApplyDelta { seq: 2, delta: delta.clone() }) {
            Response::ApplyDelta(ack) => assert!(ack.replayed),
            other => panic!("{other:?}"),
        }
        match roundtrip(&pool, Request::ApplyDelta { seq: 9, delta }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::SeqGap),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn what_if_empty_scenario_reproduces_the_base_answer() {
        use staq_synth::PoiCategory;

        let pool = spawn(engine(), 2, 8);
        let query = AccessQuery::MeanAccess;
        let base = match roundtrip(
            &pool,
            Request::Query { category: PoiCategory::School, query: query.clone(), approx: false },
        ) {
            Response::Query(a) => a,
            other => panic!("{other:?}"),
        };
        match roundtrip(
            &pool,
            Request::WhatIf { category: PoiCategory::School, scenarios: vec![vec![]], query },
        ) {
            Response::WhatIf(answers) => {
                assert_eq!(answers.len(), 1);
                assert_eq!(answers[0].answer, base);
            }
            other => panic!("{other:?}"),
        }
    }
}
