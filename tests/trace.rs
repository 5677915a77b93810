//! End-to-end trace propagation across a sharded fleet: the test thread
//! opens a root span, issues one cold `measures` through the router, and
//! asserts the dumped trace is a single connected tree under that
//! TraceId — router-side spans (`shard.request`/`shard.route`/
//! `shard.backend.call`), backend serving spans (`serve.request`/
//! `serve.execute`), and the engine's pipeline-stage and labeling-worker
//! child spans, all with non-zero durations.
//!
//! A cold pipeline run emits thousands of micro-spans (per RAPTOR query,
//! per labeling chunk); the test first raises the runtime capture
//! threshold over the wire so the 8192-slot ring keeps the structural
//! millisecond-scale spans instead of drowning them.

use staq_obs::trace;
use staq_obs::OwnedSpan;
use staq_repro::prelude::*;
use staq_serve::presets::CityPreset;
use staq_serve::MuxClient;
use staq_shard::{route, Backend, RouterConfig, ShardSupervisor, SupervisorConfig, ThreadBackend};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 4;
const SEED: u64 = 42;

/// Only spans at least this long are captured during the traced query.
/// Everything the tree assertions need (request/route/execute/pipeline
/// stages/labeling workers) runs for milliseconds on a cold engine;
/// per-query and per-chunk micro-spans fall below it.
const CAPTURE_MIN_NS: u64 = 50_000;

#[test]
fn traced_query_dumps_one_connected_tree_across_router_and_backends() {
    let backends: Vec<Box<dyn Backend>> = (0..SHARDS)
        .map(|_| {
            Box::new(ThreadBackend::new(2, || Arc::new(CityPreset::Test.engine(0.05, SEED))))
                as Box<dyn Backend>
        })
        .collect();
    let cfg = SupervisorConfig {
        respawn_backoff: Duration::from_millis(100),
        poll_interval: Duration::from_millis(10),
        ..Default::default()
    };
    let sup = ShardSupervisor::start(backends, cfg).expect("fleet start");
    let mut router = route(sup, &RouterConfig::default()).expect("router bind");
    let c = MuxClient::connect(router.addr()).expect("connect");

    // Raise the capture threshold fleet-wide before sending the traced
    // query (the dump itself is discarded — only the knob matters here).
    c.trace_dump(0, Some(CAPTURE_MIN_NS)).expect("set capture threshold");

    // Open a root span on the test thread; the client embeds the current
    // context in every v3 request frame, so the router and (via the
    // supervisor's backend call) the serving shard all join this trace.
    let root = trace::root_span("test.measures");
    let trace_id = root.context().trace;
    assert_ne!(trace_id, 0, "root span must mint a trace id");
    c.measures(PoiCategory::School).expect("traced cold measures");
    drop(root);

    let dump = c.trace_dump(0, None).expect("trace dump");
    c.trace_dump(0, Some(0)).expect("restore capture threshold");
    let ours: Vec<OwnedSpan> = dump.into_iter().filter(|s| s.trace == trace_id).collect();
    assert!(!ours.is_empty(), "traced query must have left spans in the ring");

    // Every span carries a non-zero duration and a distinct span id.
    let mut by_id: HashMap<u64, &OwnedSpan> = HashMap::new();
    for s in &ours {
        assert!(s.dur_ns > 0, "{}: span duration must be non-zero", s.name);
        assert!(by_id.insert(s.span, s).is_none(), "{}: duplicate span id {}", s.name, s.span);
    }

    // The trace crosses both layers: router spans and backend spans —
    // including the pipeline stages and labeling workers the cold run
    // fanned out to — share the one TraceId.
    let names: HashSet<&str> = ours.iter().map(|s| s.name.as_str()).collect();
    for required in [
        "test.measures",
        "shard.request",
        "shard.route",
        "shard.backend.call",
        "serve.request",
        "serve.execute",
        "engine.measures",
        "pipeline.run",
        "pipeline.stage.labeling",
        "label.worker",
    ] {
        assert!(names.contains(required), "trace must contain a {required} span, got {names:?}");
    }

    // One connected tree: exactly one root, every other span's parent is
    // in the dump (a captured child implies its longer-lived parent also
    // cleared the threshold), and everything is reachable from the root.
    let roots: Vec<&OwnedSpan> = ours.iter().filter(|s| s.parent == 0).collect();
    assert_eq!(roots.len(), 1, "expected exactly one root span, got {roots:?}");
    assert_eq!(roots[0].name, "test.measures");

    let mut children: HashMap<u64, Vec<u64>> = HashMap::new();
    for s in &ours {
        if s.parent != 0 {
            assert!(
                by_id.contains_key(&s.parent),
                "{}: parent span {} missing from dump",
                s.name,
                s.parent
            );
            children.entry(s.parent).or_default().push(s.span);
        }
    }
    let mut reachable = HashSet::new();
    let mut stack = vec![roots[0].span];
    while let Some(id) = stack.pop() {
        if reachable.insert(id) {
            if let Some(kids) = children.get(&id) {
                stack.extend(kids);
            }
        }
    }
    assert_eq!(
        reachable.len(),
        ours.len(),
        "every span must be reachable from the root — the trace is one tree"
    );

    // Child spans nest inside their parents on the wall-clock axis
    // (same process here, so the shared clock makes this exact).
    for s in &ours {
        if let Some(parent) = by_id.get(&s.parent) {
            assert!(
                s.start_unix_ns >= parent.start_unix_ns,
                "{} starts before its parent {}",
                s.name,
                parent.name
            );
        }
    }

    router.shutdown();
}
