//! End-to-end test of the ops surface: a shard fleet behind a router
//! behind the HTTP gateway, driven through a warm phase and then a
//! burst of deliberately slow queries plus admission sheds. Asserts the
//! acceptance contract of the ops layer:
//!
//! - `/v1/ops/slo` reports non-zero burn for the battered `query` class
//!   while the untouched `plan` class stays at exactly zero;
//! - `/v1/ops/slow` returns the slow trace's span tree under the same
//!   TraceId the wire-level report carries;
//! - the burst window's p99 exceeds the all-time cumulative p50 (the
//!   cumulative registry is dominated by the warm phase, the window is
//!   not).
//!
//! Everything lives in ONE `#[test]`: the window ring, the SLO specs
//! and the slow store are process-global, and a second test in a
//! parallel harness thread would corrupt the accounting.

use staq_net::json::Json;
use staq_obs::{LatencyHistogram, SloClass, SloSpec};
use staq_repro::prelude::*;
use staq_serve::gateway::{gateway, GatewayConfig};
use staq_serve::presets::CityPreset;
use staq_serve::{MuxClient, Request, Response};
use staq_shard::{route, Backend, RouterConfig, ShardSupervisor, SupervisorConfig, ThreadBackend};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 2;
const SEED: u64 = 42;

fn query(category: PoiCategory) -> Request {
    Request::Query { category, query: AccessQuery::MeanAccess, approx: false }
}

fn add_poi(category: PoiCategory, x: f64) -> Request {
    Request::AddPoi { category, pos: staq_repro::geom::Point::new(x, x) }
}

/// The "bad request" threshold of the query class in this test: half the
/// fastest of three cold School runs on a shard's engine, each after the
/// same `AddPoi` chill the burst uses. Every blocker runs such a pipeline
/// plus the hops around it, so it is slow by construction on any machine,
/// while a warm cache hit stays far below.
fn calibrate_slow_ns() -> u64 {
    let engine = CityPreset::Test.engine(0.05, SEED);
    engine.measures(PoiCategory::School); // warms the access cache, as the warm phase does
    let fastest = (1..=3)
        .map(|k| {
            engine.add_poi(
                PoiCategory::School,
                staq_repro::geom::Point::new(1500.0 + k as f64, 1500.0),
            );
            let start = Instant::now();
            engine.measures(PoiCategory::School);
            start.elapsed().as_nanos() as u64
        })
        .min()
        .expect("three runs");
    fastest / 2
}

fn is_overloaded(resp: &Response) -> bool {
    matches!(resp, Response::Error { code: staq_serve::codec::ErrorCode::Overloaded, .. })
}

/// Minimal HTTP/1.1 client: one fresh connection per request.
fn http(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect gateway");
    let req = format!(
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
    );
    s.write_all(req.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8(raw).expect("UTF-8 response");
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn get_json(addr: SocketAddr, path: &str) -> Json {
    let (status, body) = http(addr, path);
    assert_eq!(status, 200, "{path} failed: {body}");
    Json::parse(&body).unwrap_or_else(|e| panic!("{path} returned invalid JSON ({e}): {body}"))
}

/// The object in `arr` whose `"class"` field equals `name`.
fn class_entry<'a>(arr: &'a [Json], name: &str) -> &'a Json {
    arr.iter()
        .find(|c| c.get("class").and_then(Json::as_str) == Some(name))
        .unwrap_or_else(|| panic!("no class {name} in {arr:?}"))
}

fn f64_field(obj: &Json, key: &str) -> f64 {
    obj.get(key).and_then(Json::as_f64).unwrap_or_else(|| panic!("no {key} in {obj:?}"))
}

fn ops_report(mux: &MuxClient) -> staq_obs::OpsReport {
    match mux.call(&Request::OpsReport).expect("ops report") {
        Response::OpsReport(r) => r,
        other => panic!("{other:?}"),
    }
}

#[test]
fn burst_with_slow_queries_and_sheds_shows_up_on_the_ops_surface() {
    // Deterministic windows: no lazy ticks mid-test, boundaries are ours.
    staq_obs::ops::set_interval(Duration::from_secs(3600));
    // A query SLO under a cold pipeline run, so one is a threshold
    // violation and a slow-trace promotion; plan keeps its default and
    // stays idle.
    let slow_ns = calibrate_slow_ns();
    staq_obs::slo::configure(&[SloSpec {
        class: SloClass::Query,
        objective_milli: 999,
        threshold_ns: slow_ns,
    }]);
    staq_obs::slow::set_threshold_ns(SloClass::Query, slow_ns);

    // Fleet: two in-process shards, a deliberately narrow router (one
    // routing worker, queue depth one — the shed point), a gateway.
    let backends: Vec<Box<dyn Backend>> = (0..SHARDS)
        .map(|_| {
            Box::new(ThreadBackend::new(2, || Arc::new(CityPreset::Test.engine(0.05, SEED))))
                as Box<dyn Backend>
        })
        .collect();
    let sup = ShardSupervisor::start(backends, SupervisorConfig::default()).expect("fleet start");
    let mut router = route(sup, &RouterConfig { workers: 1, queue_depth: 1, ..Default::default() })
        .expect("router bind");
    let gw = gateway(router.addr(), &GatewayConfig::default()).expect("gateway bind");
    let gw_addr = gw.addr();
    let mux = MuxClient::connect(router.addr()).expect("connect router");

    // ---- warm phase ---------------------------------------------------
    //
    // Warm every category's cache (Measures class), then push a pile of
    // warm-cache queries so the *cumulative* query histogram is
    // dominated by microsecond-fast samples.
    for cat in PoiCategory::ALL {
        let resp = mux.call(&Request::Measures { category: cat, approx: false }).expect("warm");
        assert!(matches!(resp, Response::Measures(_)), "{resp:?}");
    }
    for _ in 0..200 {
        let resp = mux.call(&query(PoiCategory::Hospital)).expect("warm query");
        assert!(matches!(resp, Response::Query(_)), "{resp:?}");
    }
    staq_obs::ops::force_tick(); // window 1: warm traffic only

    // ---- burst phase --------------------------------------------------
    //
    // Each attempt chills the School cache (an Edits request), sends a
    // blocker query that now has to run the whole pipeline (slow: a
    // threshold violation AND a slow-trace promotion), and fires a burst
    // at the one-deep router queue until something bounces `Overloaded`
    // (an admission shed). Sheds are timing-dependent, so retry.
    let shed0 = staq_obs::slo::shed_count(SloClass::Query);
    let mut bounced = 0u64;
    let mut attempts = 0;
    while bounced == 0 {
        attempts += 1;
        assert!(attempts <= 10, "ten bursts with zero sheds: the router queue is not bounded");
        let resp =
            mux.call(&add_poi(PoiCategory::School, 1500.0 + attempts as f64)).expect("chill");
        assert!(matches!(resp, Response::AddPoi { .. }), "{resp:?}");

        crossbeam::scope(|scope| {
            let blocker = {
                let mux = mux.clone();
                scope.spawn(move |_| mux.call(&query(PoiCategory::School)).expect("blocker"))
            };
            std::thread::sleep(Duration::from_millis(5)); // let the worker take it
            let burst: Vec<_> = (0..8)
                .map(|_| {
                    let mux = mux.clone();
                    scope.spawn(move |_| mux.call(&query(PoiCategory::School)).expect("burst"))
                })
                .collect();
            for h in burst {
                if is_overloaded(&h.join().unwrap()) {
                    bounced += 1;
                }
            }
            let resp = blocker.join().unwrap();
            assert!(!is_overloaded(&resp), "the blocker itself was admitted");
        })
        .unwrap();
    }
    staq_obs::ops::force_tick(); // window 2: the burst

    assert!(
        staq_obs::slo::shed_count(SloClass::Query) > shed0,
        "an Overloaded bounce must be recorded as a query-class shed"
    );

    // ---- wire-level report (scatter-gathered by the router) -----------
    let report = ops_report(&mux);
    assert_eq!(report.classes.len(), 4, "one window per configured class");
    assert_eq!(report.slo.len(), 4);

    let qw = report.class("query").expect("query window");
    let cum = staq_obs::snapshot();
    // Burst-window p99 vs all-time cumulative p50: the burst window
    // holds the slow pipeline runs, the cumulative histogram is
    // drowned in warm-phase microseconds.
    let h = cum.histogram("serve.request.query").expect("cumulative query histogram");
    let cum_p50 = LatencyHistogram::from_sparse(&h.buckets, h.sum_ns as u128, h.max_ns)
        .percentile(50.0)
        .as_nanos() as u64;
    let win_p99 = qw.quantile_ns(99.0);
    assert!(
        win_p99 > cum_p50,
        "burst-window p99 ({win_p99} ns) must exceed cumulative p50 ({cum_p50} ns)"
    );
    assert!(win_p99 >= slow_ns, "the burst window must contain a slow pipeline run");

    let qs = report.slo_for("query").expect("query slo");
    assert!(qs.fast.bad > 0, "violations + sheds must count as bad: {qs:?}");
    assert!(qs.burn_fast() > 0.0, "query burn must be non-zero: {qs:?}");
    assert!(qs.shed_total > 0, "sheds must accumulate: {qs:?}");
    let ps = report.slo_for("plan").expect("plan slo");
    assert_eq!((ps.fast.total, ps.fast.bad), (0, 0), "plan was never driven: {ps:?}");
    assert_eq!(ps.burn_fast(), 0.0, "untouched class must burn nothing");

    // The slow store holds the blocker's trace with its span tree.
    let slow = report.slow.iter().find(|t| t.class == "query").expect("a promoted query trace");
    assert!(slow.root_dur_ns >= slow_ns, "{slow:?}");
    assert!(!slow.spans.is_empty(), "a promoted trace carries its spans");
    assert!(slow.spans.iter().all(|s| s.trace == slow.trace), "spans belong to the trace");
    assert!(
        slow.spans.iter().any(|s| s.name == "serve.request"),
        "the request root span must be retained: {:?}",
        slow.spans.iter().map(|s| &s.name).collect::<Vec<_>>()
    );

    // ---- HTTP surface over the same data --------------------------
    let slo_page = get_json(gw_addr, "/v1/ops/slo");
    let classes = slo_page.get("classes").and_then(Json::as_arr).expect("classes array");
    let q = class_entry(classes, "query");
    assert!(f64_field(q.get("fast").expect("fast"), "bad") > 0.0, "{q:?}");
    assert!(f64_field(q.get("fast").expect("fast"), "burn") > 0.0, "{q:?}");
    let p = class_entry(classes, "plan");
    assert_eq!(f64_field(p.get("fast").expect("fast"), "bad"), 0.0, "{p:?}");
    assert_eq!(f64_field(p.get("fast").expect("fast"), "burn"), 0.0, "{p:?}");

    let slow_page = get_json(gw_addr, "/v1/ops/slow");
    let traces = slow_page.get("traces").and_then(Json::as_arr).expect("traces array");
    let want = format!("{:016x}", slow.trace);
    let entry = traces
        .iter()
        .find(|t| t.get("trace").and_then(Json::as_str) == Some(want.as_str()))
        .unwrap_or_else(|| panic!("trace {want} missing from /v1/ops/slow: {traces:?}"));
    let spans = entry.get("spans").and_then(Json::as_arr).expect("spans array");
    assert_eq!(spans.len(), slow.spans.len(), "the full span tree is served");
    assert!(
        spans.iter().any(|s| s.get("name").and_then(Json::as_str) == Some("serve.request")),
        "{spans:?}"
    );

    let windows_page = get_json(gw_addr, "/v1/ops/windows");
    let wq =
        class_entry(windows_page.get("classes").and_then(Json::as_arr).expect("classes"), "query");
    assert!(f64_field(wq, "p99_ms") > 0.0, "{wq:?}");

    let health = get_json(gw_addr, "/v1/ops/health");
    assert!(health.get("ok").and_then(Json::as_bool).is_some(), "{health:?}");
    assert!(f64_field(&health, "windows") >= 2.0, "both ticked windows: {health:?}");

    // The gateway's own Prometheus page: its process registry is the
    // fleet's (in-process test), so serving metrics appear too.
    let (status, page) = http(gw_addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        page.contains("# TYPE staq_serve_request_query histogram"),
        "{}",
        &page[..400.min(page.len())]
    );
    assert!(page.contains("staq_obs_slo_query_burn_fast_milli"), "slo gauges are exported");

    drop(mux);
    router.shutdown();
}
