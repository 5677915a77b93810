//! staq-serve round trip: start an in-process server on loopback, talk to
//! it with the client library, edit the scenario over the wire, and watch
//! the single-flight cache through the Stats frame.
//!
//! The same protocol serves out-of-process deployments:
//!
//! ```bash
//! cargo run --release -p staq-serve --bin serve -- --city test --workers 4
//! cargo run --release -p staq-serve --bin staq-gateway -- --backend 127.0.0.1:7878
//! ```

use staq_repro::prelude::*;
use staq_serve::presets::CityPreset;
use staq_serve::{MuxClient, ServerConfig};

fn main() {
    // A server over the scaled test city, 4 worker threads, ephemeral port.
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
    println!("serving on {}", server.addr());

    let c = MuxClient::connect(server.addr()).expect("connect");

    // Cold query: this runs the SSR pipeline once, no matter how many
    // clients ask concurrently (see tests/serve_integration.rs for the
    // 64-connection version of this claim).
    match c.query(&AccessQuery::MeanAccess, PoiCategory::School).expect("query") {
        QueryAnswer::MeanAccess { mean_mac, n_zones, .. } => {
            println!("mean access to school: {mean_mac:.1} min over {n_zones} zones")
        }
        other => println!("unexpected: {other:?}"),
    }
    let stats = c.stats().expect("stats");
    println!("after cold query: pipeline_runs={} cached={:?}", stats.pipeline_runs, stats.cached);

    // Warm query: answered from the cached measures, no recompute.
    c.query(&AccessQuery::WorstZones { k: 3 }, PoiCategory::School).expect("warm");
    let stats = c.stats().expect("stats");
    println!("after warm query: pipeline_runs={}", stats.pipeline_runs);

    // A scenario edit over the wire invalidates exactly its own category…
    let side = 0.05 * 11_000.0; // inside the scaled test city
    c.add_poi(PoiCategory::School, staq_repro::geom::Point::new(side, side)).expect("add_poi");
    let stats = c.stats().expect("stats");
    println!("after add_poi: cached={:?}", stats.cached);

    // …so the next query recomputes once.
    c.query(&AccessQuery::MeanAccess, PoiCategory::School).expect("recompute");
    let stats = c.stats().expect("stats");
    println!(
        "after re-query: pipeline_runs={} requests_served={}",
        stats.pipeline_runs, stats.requests_served
    );

    drop(c);
    server.shutdown();
    println!("server shut down cleanly");
}
