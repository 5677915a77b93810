//! The observability contract over the wire: a warm query burst against a
//! real loopback server must come back countable through the `Stats`
//! frame's embedded metrics snapshot — per-kind server-side latency
//! histograms, engine cache counters, and the pipeline stage timers the
//! cold run left behind.
//!
//! The obs registry is process-global and the test harness runs many
//! tests in one binary, so every count here is asserted as a *delta*
//! between a baseline stats frame and one taken after the burst — an
//! absolute assertion would race any other test touching the same
//! metric (see the registry module docs in staq-obs).

use staq_obs::MetricsSnapshot;
use staq_repro::prelude::*;
use staq_serve::presets::CityPreset;
use staq_serve::{MuxClient, ServerConfig};

fn counter(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counter(name).unwrap_or(0)
}

fn hist_count(m: &MetricsSnapshot, name: &str) -> u64 {
    m.histogram(name).map_or(0, |h| h.count)
}

#[test]
fn stats_frame_carries_server_side_latency_histograms() {
    let engine = CityPreset::Test.engine(0.05, 42);
    let mut server = staq_serve::serve(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_depth: 64,
            ..Default::default()
        },
    )
    .expect("bind loopback server");
    let c = MuxClient::connect(server.addr()).expect("connect");

    // Baseline before this test's own traffic (the frame itself also
    // proves the snapshot codec round-trips over the wire).
    let before = c.stats().expect("baseline stats").metrics;

    // One cold touch (runs the SSR pipeline), then a warm burst.
    c.measures(PoiCategory::School).expect("cold measures");
    const BURST: u64 = 50;
    for _ in 0..BURST {
        c.query(&AccessQuery::MeanAccess, PoiCategory::School).expect("warm query");
        c.query(&AccessQuery::WorstZones { k: 5 }, PoiCategory::School).expect("warm query");
    }

    let stats = c.stats().expect("stats");
    let m = &stats.metrics;

    // Per-kind server-side latency histograms grew by the burst and stay
    // ordered. (Shape properties are absolute; counts are deltas.)
    let q = m.histogram("serve.request.query").expect("query latency histogram");
    let q_delta = q.count - hist_count(&before, "serve.request.query");
    assert!(q_delta >= 2 * BURST, "burst must be visible server-side, got +{q_delta}");
    assert!(q.p50_ns > 0, "recorded latencies are nonzero");
    assert!(q.p50_ns <= q.p95_ns && q.p95_ns <= q.p99_ns, "quantiles must be ordered");
    assert!(q.max_ns >= q.p99_ns);
    assert!(!q.buckets.is_empty(), "sparse buckets ship with the frame");
    assert!(
        hist_count(m, "serve.request.measures") - hist_count(&before, "serve.request.measures")
            >= 1
    );

    // The registry's request counter covers at least what the pool
    // reported served (both all-kind; the registry is process-global so
    // it may lead by other servers' traffic, never lag).
    assert!(counter(m, "serve.requests") >= stats.requests_served);

    // Engine cache counters: one miss (the cold touch), a burst of hits.
    assert!(counter(m, "engine.cache.misses") - counter(&before, "engine.cache.misses") >= 1);
    assert!(counter(m, "engine.cache.hits") - counter(&before, "engine.cache.hits") >= 2 * BURST);

    // The cold pipeline run left stage timings and router/labeling
    // counters behind. `artifacts` records at engine *construction* —
    // before the baseline frame — so it only gets an existence check.
    for stage in ["todam", "features", "sampling", "labeling", "train"] {
        let name = format!("pipeline.stage.{stage}");
        let delta = hist_count(m, &name) - hist_count(&before, &name);
        assert!(delta >= 1, "stage {stage} must have run, got +{delta}");
    }
    assert!(hist_count(m, "pipeline.stage.artifacts") >= 1);
    assert!(counter(m, "raptor.queries") > counter(&before, "raptor.queries"));
    assert!(counter(m, "label.zones") > counter(&before, "label.zones"));

    server.shutdown();
}
