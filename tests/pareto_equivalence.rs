//! End-to-end Pareto serving: `Plan` frames over real loopback TCP must
//! return the same (arrival, transfers) frontier a local router computes
//! on the identical city, and the transfer-capped variant must equal the
//! frontier filtered to the cap.

use staq_gtfs::time::{DayOfWeek, Stime};
use staq_serve::codec::ErrorCode;
use staq_serve::presets::CityPreset;
use staq_serve::{ClientError, MuxClient, ServerConfig, ServerHandle};
use staq_synth::City;
use staq_transit::{Raptor, TransitNetwork};

fn start_server(workers: usize) -> ServerHandle {
    let engine = CityPreset::Test.engine(0.05, 42);
    staq_serve::serve(
        engine,
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_depth: 64,
            ..Default::default()
        },
    )
    .expect("bind loopback server")
}

#[test]
fn served_plan_frontier_matches_local_router() {
    let mut server = start_server(4);
    let c = MuxClient::connect(server.addr()).expect("connect");

    // The same city the `Test` preset serves, rebuilt locally as the oracle.
    let city = CityPreset::Test.generate(0.05, 42);
    let net = TransitNetwork::with_defaults(&city.road, &city.feed);
    let router = Raptor::new(&net);

    let depart = Stime::hms(7, 30, 0);
    let day = DayOfWeek::Tuesday;
    for (o, d) in od_pairs(&city, 8) {
        let served = c.plan(o, d, depart, day, None).expect("plan answered");
        let local = router.query_pareto(&o, &d, depart, day);
        assert_eq!(served, local, "served frontier diverged for o={o:?} d={d:?}");
        assert!(!served.is_empty(), "frontier always has the walk fallback");
        for w in served.windows(2) {
            assert!(w[0].n_transfers() < w[1].n_transfers());
            assert!(w[0].arrive > w[1].arrive, "more transfers must buy time");
        }

        // "Fastest with ≤1 transfer" over the wire equals the frontier
        // filtered to the cap.
        let capped = c.plan(o, d, depart, day, Some(1)).expect("capped plan");
        assert_eq!(capped.len(), 1);
        assert!(capped[0].n_transfers() <= 1);
        let want = served
            .iter()
            .filter(|j| j.n_transfers() <= 1)
            .map(|j| j.arrive)
            .min()
            .expect("walk fallback has zero transfers");
        assert_eq!(capped[0].arrive, want);
    }

    // Garbage endpoints are a semantic error, not a dead connection.
    match c.plan(
        staq_geom::Point::new(f64::INFINITY, 0.0),
        staq_geom::Point::new(0.0, 0.0),
        depart,
        day,
        None,
    ) {
        Err(ClientError::Server { code: ErrorCode::Invalid, .. }) => {}
        other => panic!("non-finite origin must be Invalid, got {other:?}"),
    }
    c.stats().expect("connection stays usable after the error");

    server.shutdown();
}

fn od_pairs(city: &City, n: usize) -> Vec<(staq_geom::Point, staq_geom::Point)> {
    (0..n)
        .map(|i| {
            let o = city.zones[(i * 7) % city.zones.len()].centroid;
            let d = city.zones[(i * 13 + 5) % city.zones.len()].centroid;
            (o, d)
        })
        .collect()
}
