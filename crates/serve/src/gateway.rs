//! HTTP/1.1 JSON gateway over the binary wire protocol.
//!
//! The staq stack speaks a length-prefixed binary protocol end to end —
//! compact and multiplexable, but opaque to anything that isn't a staq
//! client. This module is the thin translation layer that makes the
//! stack curl-able: it serves a small JSON API over
//! [`staq_net::http`] and forwards each request to a `staq-serve` or
//! `staq-shard` endpoint over a single shared [`MuxClient`] connection,
//! so a burst of HTTP callers does not fan out into a burst of backend
//! sockets.
//!
//! Routes:
//!
//! | method | path           | body / params                             |
//! |--------|----------------|-------------------------------------------|
//! | GET    | `/healthz`     | — (gateway liveness only)                 |
//! | GET    | `/v1/stats`    | —                                         |
//! | GET    | `/v1/measures` | `?category=school`                        |
//! | POST   | `/v1/query`    | `{category, query:{kind,...}}`            |
//! | POST   | `/v1/plan`     | `{origin:{x,y}, dest:{x,y}, depart, ...}` |
//! | POST   | `/v1/poi`      | `{category, x, y}`                        |
//! | GET    | `/metrics`     | — (gateway-process Prometheus exposition) |
//! | GET    | `/v1/ops/health`  | — (fleet summary: rates, burn, budget) |
//! | GET    | `/v1/ops/slo`     | — (per-class objectives + burn state)  |
//! | GET    | `/v1/ops/windows` | — (last closed window, per class)      |
//! | GET    | `/v1/ops/slow`    | `?limit=N` (retained slow traces)      |
//!
//! The four `/v1/ops/*` routes are views over one backend `OpsReport`
//! poll — against a `staq-shard` router that is a fleet-merged report,
//! against a single `staq-serve` endpoint the process-local one.
//! `/metrics` is different: it renders the *gateway's own* registry, so
//! a scrape never touches the backend. The gateway records a
//! `gateway.http.request` latency histogram and `gateway.http.{2,4,5}xx`
//! status counters, so a standalone gateway's scrape is never empty.
//!
//! Every backend-touching request accepts an optional `deadline_ms`
//! (body field on POSTs, query param on GETs). When present it is
//! stamped into the wire frame so the backend's admission control can
//! shed the request instead of executing it after the caller has given
//! up; the gateway itself gives up at the same instant with `504`.
//!
//! Integer fields (`depart`, `max_transfers`, `deadline_ms`, a
//! `worst_zones` query's `k`) must be non-negative integers that fit
//! their wire field (`u8` for `max_transfers`, `u32` for the rest);
//! anything else is a `400` naming the field, never a cast.
//!
//! Error mapping: backend `BadRequest`/`Invalid` → 400, `SeqGap` → 409,
//! `Unavailable` → 503, `Overloaded` → 429, transport failures → 502,
//! deadline expiry → 504. The body is always `{"error": "..."}`.

use crate::client::{ClientError, MuxClient};
use crate::codec::{ErrorCode, Request, Response, StatsReply};
use parking_lot::Mutex;
use staq_access::measures::ZoneMeasures;
use staq_access::{AccessClass, AccessQuery, DemographicWeight, QueryAnswer};
use staq_geom::Point;
use staq_gtfs::time::{DayOfWeek, Stime};
use staq_net::http::{serve_http, Handler, HttpHandle, HttpRequest, HttpResponse};
use staq_net::json::Json;
use staq_obs::{
    AtomicHistogram, BurnWindow, ClassWindow, Counter, OpsReport, OwnedSpan, SloStatus, SlowTrace,
};
use staq_synth::PoiCategory;
use staq_transit::{Journey, Leg};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Gateway tuning knobs.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Address the HTTP listener binds (`host:port`, port 0 for ephemeral).
    pub addr: String,
    /// HTTP worker threads (each handles one connection at a time).
    pub threads: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig { addr: "127.0.0.1:0".into(), threads: 4 }
    }
}

/// Starts the gateway in background threads; dropping the handle (or
/// calling [`HttpHandle::shutdown`]) stops it. The backend connection
/// is dialed lazily on the first request, so the gateway can come up
/// before (or outlive a restart of) the endpoint it fronts.
pub fn gateway(backend: SocketAddr, cfg: &GatewayConfig) -> std::io::Result<HttpHandle> {
    let state = Arc::new(GatewayState { backend, mux: Mutex::new(None) });
    let handler: Handler = Arc::new(move |req| route(&state, req));
    serve_http(&cfg.addr, cfg.threads.max(1), handler)
}

/// The scrape listener behind `--metrics-addr` on the `serve` and
/// `shard` daemons: `GET /metrics` answers this process's registry in
/// Prometheus text form, exactly as the gateway's own `/metrics` route
/// does; other paths get 404, other methods 405. One thread — scrapes
/// are rare and small.
pub fn serve_metrics(addr: &str) -> std::io::Result<HttpHandle> {
    let handler: Handler = Arc::new(|req| match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => metrics_page(),
        (_, "/metrics") => error_response(405, "method not allowed on this route"),
        _ => error_response(404, "no such route"),
    });
    serve_http(addr, 1, handler)
}

fn metrics_page() -> HttpResponse {
    HttpResponse::text(200, &staq_obs::prom::render(&staq_obs::snapshot()))
}

struct GatewayState {
    backend: SocketAddr,
    /// One multiplexed connection shared by every HTTP worker. A
    /// poisoned client is dropped and redialed on the next call.
    mux: Mutex<Option<MuxClient>>,
}

impl GatewayState {
    fn client(&self) -> Result<MuxClient, ClientError> {
        let mut slot = self.mux.lock();
        if let Some(c) = slot.as_ref() {
            if !c.is_poisoned() {
                return Ok(c.clone());
            }
        }
        let c = MuxClient::connect(self.backend).map_err(ClientError::Io)?;
        *slot = Some(c.clone());
        Ok(c)
    }

    fn call(&self, request: &Request, deadline: Option<Duration>) -> Result<Response, ClientError> {
        let client = self.client()?;
        match deadline {
            Some(d) => client.call_with_deadline(request, d),
            None => client.call(request),
        }
    }
}

// The gateway's own process registry — what a standalone gateway's
// `/metrics` scrape shows even when the backend lives in another
// process (backend metrics are reached via `/v1/ops/*` instead).
static H_HTTP: AtomicHistogram = AtomicHistogram::new("gateway.http.request");
static C_HTTP_2XX: Counter = Counter::new("gateway.http.2xx");
static C_HTTP_4XX: Counter = Counter::new("gateway.http.4xx");
static C_HTTP_5XX: Counter = Counter::new("gateway.http.5xx");

fn route(state: &GatewayState, req: &HttpRequest) -> HttpResponse {
    let start = std::time::Instant::now();
    let resp = dispatch(state, req);
    H_HTTP.record(start.elapsed());
    match resp.status {
        200..=299 => C_HTTP_2XX.inc(),
        400..=499 => C_HTTP_4XX.inc(),
        _ => C_HTTP_5XX.inc(),
    }
    resp
}

fn dispatch(state: &GatewayState, req: &HttpRequest) -> HttpResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            HttpResponse::json(200, Json::obj(vec![("ok", Json::Bool(true))]).to_string())
        }
        ("GET", "/v1/stats") => stats(state, req),
        ("GET", "/v1/measures") => measures(state, req),
        ("POST", "/v1/query") => query(state, req),
        ("POST", "/v1/plan") => plan(state, req),
        ("POST", "/v1/poi") => add_poi(state, req),
        ("GET", "/metrics") => metrics_page(),
        ("GET", "/v1/ops/health") => ops_health(state, req),
        ("GET", "/v1/ops/slo") => ops_slo(state, req),
        ("GET", "/v1/ops/windows") => ops_windows(state, req),
        ("GET", "/v1/ops/slow") => ops_slow(state, req),
        (
            _,
            "/healthz" | "/v1/stats" | "/v1/measures" | "/v1/query" | "/v1/plan" | "/v1/poi"
            | "/metrics" | "/v1/ops/health" | "/v1/ops/slo" | "/v1/ops/windows" | "/v1/ops/slow",
        ) => error_response(405, "method not allowed on this route"),
        _ => error_response(404, "no such route"),
    }
}

// ---------------------------------------------------------------- routes

fn stats(state: &GatewayState, req: &HttpRequest) -> HttpResponse {
    let deadline = match query_deadline(req) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    forward(state, &Request::Stats, deadline, |resp| match resp {
        Response::Stats(s) => Some(stats_json(&s)),
        _ => None,
    })
}

fn measures(state: &GatewayState, req: &HttpRequest) -> HttpResponse {
    let deadline = match query_deadline(req) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    let Some(category) = req.param("category").and_then(parse_category) else {
        return error_response(400, "category must be school|hospital|vax_center|job_center");
    };
    forward(state, &Request::Measures { category, approx: false }, deadline, |resp| match resp {
        Response::Measures(zones) => Some(Json::Arr(zones.iter().map(measures_json).collect())),
        _ => None,
    })
}

fn query(state: &GatewayState, req: &HttpRequest) -> HttpResponse {
    let body = match body_json(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let Some(category) = body.get("category").and_then(Json::as_str).and_then(parse_category)
    else {
        return error_response(400, "category must be school|hospital|vax_center|job_center");
    };
    let query = match body.get("query").map(parse_access_query) {
        Some(Ok(q)) => q,
        Some(Err(msg)) => return error_response(400, &msg),
        None => return error_response(400, "missing query object"),
    };
    let deadline = match body_deadline(&body) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    let request = Request::Query { category, query, approx: false };
    forward(state, &request, deadline, |resp| match resp {
        Response::Query(answer) => Some(answer_json(&answer)),
        _ => None,
    })
}

fn plan(state: &GatewayState, req: &HttpRequest) -> HttpResponse {
    let body = match body_json(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let (origin, dest) = match (parse_point(body.get("origin")), parse_point(body.get("dest"))) {
        (Some(o), Some(d)) => (o, d),
        _ => return error_response(400, "origin and dest must be {x, y} objects"),
    };
    let depart = match wire_uint::<u32>(&body, "depart") {
        Ok(Some(d)) => d,
        Ok(None) => return error_response(400, "missing depart (seconds since midnight)"),
        Err(msg) => return error_response(400, &msg),
    };
    let day = match body.get("day").and_then(Json::as_str) {
        Some(name) => match parse_day(name) {
            Some(d) => d,
            None => return error_response(400, "day must be monday..sunday"),
        },
        None => DayOfWeek::Monday,
    };
    let (max_transfers, deadline) = match (wire_uint(&body, "max_transfers"), body_deadline(&body))
    {
        (Ok(m), Ok(d)) => (m, d),
        (Err(msg), _) => return error_response(400, &msg),
        (_, Err(resp)) => return resp,
    };
    let request = Request::Plan { origin, dest, depart: Stime(depart), day, max_transfers };
    forward(state, &request, deadline, |resp| match resp {
        Response::Plan(journeys) => Some(Json::obj(vec![(
            "journeys",
            Json::Arr(journeys.iter().map(journey_json).collect()),
        )])),
        _ => None,
    })
}

fn add_poi(state: &GatewayState, req: &HttpRequest) -> HttpResponse {
    let body = match body_json(req) {
        Ok(b) => b,
        Err(resp) => return resp,
    };
    let Some(category) = body.get("category").and_then(Json::as_str).and_then(parse_category)
    else {
        return error_response(400, "category must be school|hospital|vax_center|job_center");
    };
    let (x, y) = match (body.get("x").and_then(Json::as_f64), body.get("y").and_then(Json::as_f64))
    {
        (Some(x), Some(y)) => (x, y),
        _ => return error_response(400, "missing x/y coordinates"),
    };
    let deadline = match body_deadline(&body) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    let request = Request::AddPoi { category, pos: Point::new(x, y) };
    forward(state, &request, deadline, |resp| match resp {
        Response::AddPoi { poi_id } => Some(Json::obj(vec![("poi_id", Json::Num(poi_id as f64))])),
        _ => None,
    })
}

// ------------------------------------------------------------ ops routes

/// All `/v1/ops/*` routes poll the backend once and shape a view of the
/// same [`OpsReport`]; they share deadline handling and error mapping.
fn ops_call(
    state: &GatewayState,
    req: &HttpRequest,
    render: impl Fn(&OpsReport) -> Json,
) -> HttpResponse {
    let deadline = match query_deadline(req) {
        Ok(d) => d,
        Err(resp) => return resp,
    };
    forward(state, &Request::OpsReport, deadline, |resp| match resp {
        Response::OpsReport(report) => Some(render(&report)),
        _ => None,
    })
}

fn ops_health(state: &GatewayState, req: &HttpRequest) -> HttpResponse {
    ops_call(state, req, |r| {
        // "ok" means no class is burning its fast-window budget faster
        // than the sustainable pace — the page-someone threshold.
        let ok = r.slo.iter().all(|s| s.burn_fast() < 1.0);
        let classes = r
            .classes
            .iter()
            .map(|c| {
                let slo = r.slo_for(&c.class);
                Json::obj(vec![
                    ("class", Json::str(&c.class)),
                    ("rps", Json::Num(c.rps())),
                    ("p99_ms", Json::Num(ns_to_ms(c.quantile_ns(99.0)))),
                    ("shed", Json::Num(c.shed as f64)),
                    ("burn_fast", Json::Num(slo.map_or(0.0, SloStatus::burn_fast))),
                    ("budget_remaining", Json::Num(slo.map_or(1.0, SloStatus::budget_remaining))),
                ])
            })
            .collect();
        Json::obj(vec![
            ("ok", Json::Bool(ok)),
            ("generated_unix_ms", Json::Num(ns_to_ms(r.generated_unix_ns))),
            ("interval_ms", Json::Num(ns_to_ms(r.interval_ns))),
            ("windows", Json::Num(r.windows as f64)),
            ("classes", Json::Arr(classes)),
        ])
    })
}

fn ops_slo(state: &GatewayState, req: &HttpRequest) -> HttpResponse {
    ops_call(state, req, |r| {
        Json::obj(vec![("classes", Json::Arr(r.slo.iter().map(slo_json).collect()))])
    })
}

fn ops_windows(state: &GatewayState, req: &HttpRequest) -> HttpResponse {
    ops_call(state, req, |r| {
        Json::obj(vec![
            ("interval_ms", Json::Num(ns_to_ms(r.interval_ns))),
            ("windows", Json::Num(r.windows as f64)),
            ("classes", Json::Arr(r.classes.iter().map(window_json).collect())),
        ])
    })
}

fn ops_slow(state: &GatewayState, req: &HttpRequest) -> HttpResponse {
    let limit = match req.param("limit") {
        None => staq_obs::slow::SLOW_KEEP,
        Some(v) => match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return error_response(400, "limit must be an integer"),
        },
    };
    ops_call(state, req, move |r| {
        Json::obj(vec![(
            "traces",
            Json::Arr(r.slow.iter().take(limit).map(slow_trace_json).collect()),
        )])
    })
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn slo_json(s: &SloStatus) -> Json {
    Json::obj(vec![
        ("class", Json::str(&s.class)),
        ("objective_milli", Json::Num(s.objective_milli as f64)),
        ("threshold_ms", Json::Num(ns_to_ms(s.threshold_ns))),
        ("fast", burn_json(&s.fast, s.burn_fast())),
        ("slow", burn_json(&s.slow, s.burn_slow())),
        ("budget_remaining", Json::Num(s.budget_remaining())),
        ("shed_total", Json::Num(s.shed_total as f64)),
    ])
}

fn burn_json(w: &BurnWindow, burn: f64) -> Json {
    Json::obj(vec![
        ("span_ms", Json::Num(ns_to_ms(w.span_ns))),
        ("total", Json::Num(w.total as f64)),
        ("bad", Json::Num(w.bad as f64)),
        ("burn", Json::Num(burn)),
    ])
}

fn window_json(c: &ClassWindow) -> Json {
    Json::obj(vec![
        ("class", Json::str(&c.class)),
        ("span_ms", Json::Num(ns_to_ms(c.span_ns))),
        ("count", Json::Num(c.count as f64)),
        ("rps", Json::Num(c.rps())),
        ("p50_ms", Json::Num(ns_to_ms(c.quantile_ns(50.0)))),
        ("p90_ms", Json::Num(ns_to_ms(c.quantile_ns(90.0)))),
        ("p99_ms", Json::Num(ns_to_ms(c.quantile_ns(99.0)))),
        ("max_ms", Json::Num(ns_to_ms(c.max_ns))),
        ("shed", Json::Num(c.shed as f64)),
    ])
}

fn slow_trace_json(t: &SlowTrace) -> Json {
    Json::obj(vec![
        ("trace", Json::str(format!("{:016x}", t.trace))),
        ("class", Json::str(&t.class)),
        ("root_dur_ms", Json::Num(ns_to_ms(t.root_dur_ns))),
        ("is_error", Json::Bool(t.is_error)),
        ("captured_unix_ms", Json::Num(ns_to_ms(t.captured_unix_ns))),
        ("spans", Json::Arr(t.spans.iter().map(span_json).collect())),
    ])
}

fn span_json(s: &OwnedSpan) -> Json {
    let parent = if s.parent == 0 { Json::Null } else { Json::str(format!("{:016x}", s.parent)) };
    Json::obj(vec![
        ("span", Json::str(format!("{:016x}", s.span))),
        ("parent", parent),
        ("name", Json::str(&s.name)),
        ("start_unix_ms", Json::Num(ns_to_ms(s.start_unix_ns))),
        ("dur_ms", Json::Num(ns_to_ms(s.dur_ns))),
        (
            "attrs",
            Json::obj(s.attrs.iter().map(|(k, v)| (k.as_str(), Json::Num(*v as f64))).collect()),
        ),
    ])
}

// ------------------------------------------------------- request parsing

fn body_json(req: &HttpRequest) -> Result<Json, HttpResponse> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| error_response(400, "body is not valid UTF-8"))?;
    Json::parse(text).map_err(|e| error_response(400, &format!("bad JSON body: {e}")))
}

/// The integer field `name` of a JSON object, refused unless it is a
/// non-negative integer that fits `T`, its wire field: an `as` cast
/// would silently change what the caller asked for. Absent is `None`.
fn wire_uint<T: TryFrom<u64>>(obj: &Json, name: &str) -> Result<Option<T>, String> {
    let Some(value) = obj.get(name) else { return Ok(None) };
    value
        .as_f64()
        .filter(|n| *n >= 0.0 && n.fract() == 0.0)
        .and_then(|n| T::try_from(n as u64).ok())
        .map(Some)
        .ok_or_else(|| {
            format!(
                "{name} must be a non-negative integer that fits a {}",
                std::any::type_name::<T>()
            )
        })
}

fn body_deadline(body: &Json) -> Result<Option<Duration>, HttpResponse> {
    match wire_uint::<u32>(body, "deadline_ms") {
        Ok(ms) => Ok(ms.map(|ms| Duration::from_millis(ms.into()))),
        Err(msg) => Err(error_response(400, &msg)),
    }
}

fn query_deadline(req: &HttpRequest) -> Result<Option<Duration>, HttpResponse> {
    match req.param("deadline_ms") {
        None => Ok(None),
        Some(v) => match v.parse::<u32>() {
            Ok(ms) => Ok(Some(Duration::from_millis(ms.into()))),
            Err(_) => Err(error_response(
                400,
                "deadline_ms must be a non-negative integer that fits a u32",
            )),
        },
    }
}

fn parse_category(name: &str) -> Option<PoiCategory> {
    match name {
        "school" => Some(PoiCategory::School),
        "hospital" => Some(PoiCategory::Hospital),
        "vax_center" => Some(PoiCategory::VaxCenter),
        "job_center" => Some(PoiCategory::JobCenter),
        _ => None,
    }
}

fn category_slug(category: PoiCategory) -> &'static str {
    match category {
        PoiCategory::School => "school",
        PoiCategory::Hospital => "hospital",
        PoiCategory::VaxCenter => "vax_center",
        PoiCategory::JobCenter => "job_center",
    }
}

fn parse_weight(name: &str) -> Option<DemographicWeight> {
    match name {
        "uniform" => Some(DemographicWeight::Uniform),
        "population" => Some(DemographicWeight::Population),
        "unemployed" => Some(DemographicWeight::Unemployed),
        "vulnerable" => Some(DemographicWeight::Vulnerable),
        "children" => Some(DemographicWeight::Children),
        _ => None,
    }
}

fn parse_day(name: &str) -> Option<DayOfWeek> {
    match name {
        "monday" => Some(DayOfWeek::Monday),
        "tuesday" => Some(DayOfWeek::Tuesday),
        "wednesday" => Some(DayOfWeek::Wednesday),
        "thursday" => Some(DayOfWeek::Thursday),
        "friday" => Some(DayOfWeek::Friday),
        "saturday" => Some(DayOfWeek::Saturday),
        "sunday" => Some(DayOfWeek::Sunday),
        _ => None,
    }
}

fn parse_point(value: Option<&Json>) -> Option<Point> {
    let v = value?;
    Some(Point::new(v.get("x")?.as_f64()?, v.get("y")?.as_f64()?))
}

fn parse_access_query(q: &Json) -> Result<AccessQuery, String> {
    let Some(kind) = q.get("kind").and_then(Json::as_str) else {
        return Err("query needs a kind".into());
    };
    match kind {
        "mean_access" => Ok(AccessQuery::MeanAccess),
        "classification" => Ok(AccessQuery::Classification),
        "at_risk" => {
            let f = q.get("threshold_factor").and_then(Json::as_f64).unwrap_or(1.0);
            Ok(AccessQuery::AtRisk { threshold_factor: f })
        }
        "fairness" => {
            let weight = match q.get("weight").and_then(Json::as_str) {
                Some(name) => parse_weight(name).ok_or_else(|| {
                    "weight must be uniform|population|unemployed|vulnerable|children".to_string()
                })?,
                None => DemographicWeight::Uniform,
            };
            Ok(AccessQuery::Fairness { weight })
        }
        "worst_zones" => {
            let k = wire_uint::<u32>(q, "k")?.unwrap_or(10);
            Ok(AccessQuery::WorstZones { k: k as usize })
        }
        "point_access" => {
            match (q.get("x").and_then(Json::as_f64), q.get("y").and_then(Json::as_f64)) {
                (Some(x), Some(y)) => Ok(AccessQuery::PointAccess { x, y }),
                _ => Err("point_access needs x and y".into()),
            }
        }
        other => Err(format!(
            "unknown query kind {other:?} (want mean_access|classification|at_risk|fairness|\
             worst_zones|point_access)"
        )),
    }
}

// ------------------------------------------------------ response shaping

/// Forwards one request to the backend and renders the response. The
/// `render` closure returns `None` when the backend answered with an
/// unexpected response kind — a protocol bug, reported as 502.
fn forward(
    state: &GatewayState,
    request: &Request,
    deadline: Option<Duration>,
    render: impl Fn(Response) -> Option<Json>,
) -> HttpResponse {
    match state.call(request, deadline) {
        Ok(Response::Error { code, message }) => error_response(error_code_status(code), &message),
        Ok(resp) => match render(resp) {
            Some(json) => HttpResponse::json(200, json.to_string()),
            None => error_response(502, "backend answered with an unexpected response kind"),
        },
        Err(ClientError::Server { code, message }) => {
            error_response(error_code_status(code), &message)
        }
        Err(ClientError::TimedOut) => error_response(504, "deadline elapsed"),
        Err(e) => error_response(502, &format!("backend unreachable: {e}")),
    }
}

fn error_code_status(code: ErrorCode) -> u16 {
    match code {
        ErrorCode::BadRequest | ErrorCode::Invalid => 400,
        ErrorCode::Unavailable => 503,
        ErrorCode::SeqGap => 409,
        ErrorCode::Overloaded => 429,
    }
}

fn error_response(status: u16, message: &str) -> HttpResponse {
    HttpResponse::json(status, Json::obj(vec![("error", Json::str(message))]).to_string())
}

fn measures_json(m: &ZoneMeasures) -> Json {
    Json::obj(vec![
        ("zone", Json::Num(m.zone.0 as f64)),
        ("mac", Json::Num(m.mac)),
        ("acsd", Json::Num(m.acsd)),
    ])
}

fn class_label(class: AccessClass) -> &'static str {
    match class {
        AccessClass::Best => "best",
        AccessClass::MostlyGood => "mostly_good",
        AccessClass::MostlyBad => "mostly_bad",
        AccessClass::Worst => "worst",
    }
}

fn answer_json(answer: &QueryAnswer) -> Json {
    match answer {
        QueryAnswer::MeanAccess { mean_mac, mean_acsd, n_zones } => Json::obj(vec![
            ("kind", Json::str("mean_access")),
            ("mean_mac", Json::Num(*mean_mac)),
            ("mean_acsd", Json::Num(*mean_acsd)),
            ("n_zones", Json::Num(*n_zones as f64)),
        ]),
        QueryAnswer::Classification(classes) => Json::obj(vec![
            ("kind", Json::str("classification")),
            (
                "zones",
                Json::Arr(
                    classes
                        .iter()
                        .map(|(zone, class)| {
                            Json::obj(vec![
                                ("zone", Json::Num(zone.0 as f64)),
                                ("class", Json::str(class_label(*class))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        QueryAnswer::AtRisk(zones) => Json::obj(vec![
            ("kind", Json::str("at_risk")),
            ("zones", Json::Arr(zones.iter().map(|z| Json::Num(z.0 as f64)).collect())),
        ]),
        QueryAnswer::Fairness(score) => {
            Json::obj(vec![("kind", Json::str("fairness")), ("score", Json::Num(*score))])
        }
        QueryAnswer::WorstZones(zones) => Json::obj(vec![
            ("kind", Json::str("worst_zones")),
            (
                "zones",
                Json::Arr(
                    zones
                        .iter()
                        .map(|(zone, mac)| {
                            Json::obj(vec![
                                ("zone", Json::Num(zone.0 as f64)),
                                ("mac", Json::Num(*mac)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
        QueryAnswer::PointAccess { zone, mac, acsd } => Json::obj(vec![
            ("kind", Json::str("point_access")),
            ("zone", Json::Num(zone.0 as f64)),
            ("mac", Json::Num(*mac)),
            ("acsd", Json::Num(*acsd)),
        ]),
    }
}

fn stats_json(s: &StatsReply) -> Json {
    Json::obj(vec![
        ("pipeline_runs", Json::Num(s.pipeline_runs as f64)),
        ("requests_served", Json::Num(s.requests_served as f64)),
        ("workers", Json::Num(s.workers as f64)),
        ("cached", Json::Arr(s.cached.iter().map(|c| Json::str(category_slug(*c))).collect())),
    ])
}

fn journey_json(j: &Journey) -> Json {
    Json::obj(vec![
        ("depart", Json::Num(j.depart.0 as f64)),
        ("arrive", Json::Num(j.arrive.0 as f64)),
        ("legs", Json::Arr(j.legs.iter().map(leg_json).collect())),
    ])
}

fn leg_json(leg: &Leg) -> Json {
    match leg {
        Leg::Walk { secs, to_stop } => Json::obj(vec![
            ("kind", Json::str("walk")),
            ("secs", Json::Num(*secs as f64)),
            ("to_stop", to_stop.map_or(Json::Null, |s| Json::Num(s.0 as f64))),
        ]),
        Leg::Wait { secs, at_stop } => Json::obj(vec![
            ("kind", Json::str("wait")),
            ("secs", Json::Num(*secs as f64)),
            ("at_stop", Json::Num(at_stop.0 as f64)),
        ]),
        Leg::Ride { trip, route, from_stop, to_stop, board, alight } => Json::obj(vec![
            ("kind", Json::str("ride")),
            ("trip", Json::Num(trip.0 as f64)),
            ("route", Json::Num(route.0 as f64)),
            ("from_stop", Json::Num(from_stop.0 as f64)),
            ("to_stop", Json::Num(to_stop.0 as f64)),
            ("board", Json::Num(board.0 as f64)),
            ("alight", Json::Num(alight.0 as f64)),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_synth::ZoneId;

    #[test]
    fn metrics_listener_scrapes_and_rejects_other_paths() {
        use std::io::{Read, Write};
        static PROBE: Counter = Counter::new("test.gateway.scrape_probe");
        PROBE.add(5);
        let mut handle = serve_metrics("127.0.0.1:0").unwrap();
        let fetch = |method: &str, path: &str| {
            let mut s = std::net::TcpStream::connect(handle.addr()).unwrap();
            let head = format!("{method} {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
            s.write_all(head.as_bytes()).unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        };
        let ok = fetch("GET", "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK"), "{ok}");
        assert!(ok.contains("staq_test_gateway_scrape_probe"), "{ok}");
        let missing = fetch("GET", "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        let post = fetch("POST", "/metrics");
        assert!(post.starts_with("HTTP/1.1 405"), "{post}");
        handle.shutdown();
        handle.shutdown(); // idempotent
    }

    #[test]
    fn access_queries_parse_from_json() {
        let q = Json::parse(r#"{"kind":"at_risk","threshold_factor":0.5}"#).unwrap();
        assert_eq!(parse_access_query(&q).unwrap(), AccessQuery::AtRisk { threshold_factor: 0.5 });

        let q = Json::parse(r#"{"kind":"fairness","weight":"children"}"#).unwrap();
        assert_eq!(
            parse_access_query(&q).unwrap(),
            AccessQuery::Fairness { weight: DemographicWeight::Children }
        );

        let q = Json::parse(r#"{"kind":"worst_zones","k":3}"#).unwrap();
        assert_eq!(parse_access_query(&q).unwrap(), AccessQuery::WorstZones { k: 3 });
        for bad in ["-3", "2.5", "4294967296"] {
            let q = Json::parse(&format!(r#"{{"kind":"worst_zones","k":{bad}}}"#)).unwrap();
            let err = parse_access_query(&q).unwrap_err();
            assert!(err.starts_with("k must be"), "k = {bad}: {err}");
        }

        let q = Json::parse(r#"{"kind":"point_access","x":1.5,"y":-2.0}"#).unwrap();
        assert_eq!(parse_access_query(&q).unwrap(), AccessQuery::PointAccess { x: 1.5, y: -2.0 });

        let q = Json::parse(r#"{"kind":"telepathy"}"#).unwrap();
        assert!(parse_access_query(&q).is_err());
    }

    #[test]
    fn answers_render_to_stable_json() {
        let answer = QueryAnswer::MeanAccess { mean_mac: 2.0, mean_acsd: 0.5, n_zones: 7 };
        assert_eq!(
            answer_json(&answer).to_string(),
            r#"{"kind":"mean_access","mean_mac":2,"mean_acsd":0.5,"n_zones":7}"#
        );

        let answer = QueryAnswer::WorstZones(vec![(ZoneId(4), 9.25)]);
        assert_eq!(
            answer_json(&answer).to_string(),
            r#"{"kind":"worst_zones","zones":[{"zone":4,"mac":9.25}]}"#
        );

        let answer = QueryAnswer::Classification(vec![(ZoneId(1), AccessClass::MostlyGood)]);
        assert_eq!(
            answer_json(&answer).to_string(),
            r#"{"kind":"classification","zones":[{"zone":1,"class":"mostly_good"}]}"#
        );
    }

    #[test]
    fn error_codes_map_to_http_statuses() {
        assert_eq!(error_code_status(ErrorCode::BadRequest), 400);
        assert_eq!(error_code_status(ErrorCode::Invalid), 400);
        assert_eq!(error_code_status(ErrorCode::Unavailable), 503);
        assert_eq!(error_code_status(ErrorCode::SeqGap), 409);
        assert_eq!(error_code_status(ErrorCode::Overloaded), 429);
    }

    #[test]
    fn slow_traces_render_with_hex_ids() {
        let t = SlowTrace {
            trace: 0xFEED_F00D,
            class: "query".into(),
            root_dur_ns: 2_500_000,
            is_error: true,
            captured_unix_ns: 4_000_000,
            spans: vec![OwnedSpan {
                trace: 0xFEED_F00D,
                span: 0xAB,
                parent: 0,
                name: "serve.request.query".into(),
                start_unix_ns: 1_000_000,
                dur_ns: 2_000_000,
                attrs: vec![("shard".into(), 3)],
            }],
        };
        assert_eq!(
            slow_trace_json(&t).to_string(),
            r#"{"trace":"00000000feedf00d","class":"query","root_dur_ms":2.5,"is_error":true,"#
                .to_string()
                + r#""captured_unix_ms":4,"spans":[{"span":"00000000000000ab","parent":null,"#
                + r#""name":"serve.request.query","start_unix_ms":1,"dur_ms":2,"attrs":{"shard":3}}]}"#
        );
    }

    #[test]
    fn burn_windows_render_span_and_rate() {
        let w = BurnWindow { span_ns: 5_000_000_000, total: 100, bad: 2 };
        assert_eq!(
            burn_json(&w, 2.0).to_string(),
            r#"{"span_ms":5000,"total":100,"bad":2,"burn":2}"#
        );
    }

    #[test]
    fn days_and_categories_round_trip() {
        for c in PoiCategory::ALL {
            assert_eq!(parse_category(category_slug(c)), Some(c));
        }
        assert_eq!(parse_day("wednesday"), Some(DayOfWeek::Wednesday));
        assert!(parse_day("Someday").is_none());
    }
}
