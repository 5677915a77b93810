//! End-to-end tests of the live streaming surface over real loopback
//! TCP: server-assigned delta sequence numbers, idempotent replay,
//! `SeqGap` signalling, catch-up batches converging a lagging replica
//! onto a leader's measures bit-for-bit, and what-if scenarios whose
//! answers match the same deltas committed for real.

use staq_gtfs::model::{RouteId, TripId};
use staq_gtfs::Delta;
use staq_repro::prelude::*;
use staq_serve::codec::ErrorCode;
use staq_serve::presets::CityPreset;
use staq_serve::{Client, ClientError, Request, Response, ServerConfig, ServerHandle};

fn start_server(seed: u64) -> ServerHandle {
    let engine = CityPreset::Test.engine(0.05, seed);
    staq_serve::serve(
        engine,
        &ServerConfig { addr: "127.0.0.1:0".into(), workers: 4, ..Default::default() },
    )
    .expect("bind loopback server")
}

fn server_error(e: ClientError) -> (ErrorCode, String) {
    match e {
        ClientError::Server { code, message } => (code, message),
        other => panic!("expected a server error frame, got {other:?}"),
    }
}

#[test]
fn deltas_stream_with_server_assigned_sequence_numbers() {
    let mut server = start_server(42);
    let mut c = Client::connect(server.addr()).expect("connect");

    // seq 0 asks the server to assign the next sequence number.
    let d1 = Delta::TripDelay { trip: TripId(0), delay_secs: 300 };
    let ack = c.apply_delta(0, &d1).expect("first delta");
    assert_eq!(ack.seq, 1);
    assert!(!ack.replayed);

    let d2 = Delta::ServiceAlert { route: RouteId(0), message: "diversion".into() };
    let ack = c.apply_delta(0, &d2).expect("second delta");
    assert_eq!(ack.seq, 2);
    assert!(!ack.replayed);

    // Resending an already-sequenced delta is acked idempotently, not
    // re-applied.
    let ack = c.apply_delta(2, &d2).expect("replay");
    assert_eq!(ack.seq, 2);
    assert!(ack.replayed, "an already-seen sequence number must be a no-op");

    // Jumping past the log's head is a gap the client must backfill.
    let (code, message) = server_error(c.apply_delta(9, &d1).expect_err("gap"));
    assert_eq!(code, ErrorCode::SeqGap);
    assert!(message.contains('2') && message.contains('9'), "gap names both seqs: {message}");

    // The connection survives the error frame.
    c.query(&AccessQuery::MeanAccess, PoiCategory::School).expect("query after gap");
    server.shutdown();
}

#[test]
fn a_structural_delta_changes_served_measures() {
    let mut server = start_server(42);
    let mut c = Client::connect(server.addr()).expect("connect");

    let before = c.measures(PoiCategory::School).expect("cold measures");
    let ack =
        c.apply_delta(0, &Delta::RouteRemove { route: RouteId(0) }).expect("remove a whole route");
    assert!(ack.zones_rebuilt > 0, "a structural delta must rebuild zones");

    let after = c.measures(PoiCategory::School).expect("measures after removal");
    assert_eq!(before.len(), after.len(), "the zone set is untouched");
    assert_ne!(before, after, "losing a route must move access measures");
    server.shutdown();
}

#[test]
fn a_delta_batch_converges_a_lagging_replica_bit_for_bit() {
    let mut leader = start_server(42);
    let mut replica = start_server(42); // same seed → identical city
    let mut lc = Client::connect(leader.addr()).expect("connect leader");
    let mut rc = Client::connect(replica.addr()).expect("connect replica");

    let deltas = vec![
        Delta::TripDelay { trip: TripId(0), delay_secs: 240 },
        Delta::TripCancel { trip: TripId(1) },
        Delta::RouteRemove { route: RouteId(1) },
    ];
    for d in &deltas {
        lc.apply_delta(0, d).expect("leader applies live");
    }

    // The replica receives the same history as one explicitly-sequenced
    // batch.
    let last = rc.delta_batch(1, &deltas).expect("replica catches up");
    assert_eq!(last, 3);

    // Replaying the batch is harmless: the log already covers it.
    let last = rc.delta_batch(1, &deltas).expect("idempotent replay");
    assert_eq!(last, 3);

    // A batch starting past the head is refused with the gap code.
    let (code, _) = server_error(rc.delta_batch(7, &deltas).expect_err("gap batch"));
    assert_eq!(code, ErrorCode::SeqGap);

    // Incremental application and batch replay of the same log are
    // bit-identical, across every category the deltas touched.
    for category in [PoiCategory::School, PoiCategory::Hospital] {
        let on_leader = lc.measures(category).expect("leader measures");
        let on_replica = rc.measures(category).expect("replica measures");
        assert_eq!(on_leader, on_replica, "{category:?} measures diverged");
    }
    leader.shutdown();
    replica.shutdown();
}

#[test]
fn what_if_answers_match_the_committed_future() {
    let mut server = start_server(42);
    let mut c = Client::connect(server.addr()).expect("connect");

    let cut = Delta::RouteRemove { route: RouteId(0) };
    let query = AccessQuery::MeanAccess;
    let base = c.query(&query, PoiCategory::School).expect("base answer");

    // Two scenarios side by side: "nothing changes" and "route 0 gone".
    let scenarios = vec![vec![], vec![cut.clone()]];
    let answers = c.what_if(PoiCategory::School, &scenarios, &query).expect("what-if");
    assert_eq!(answers.len(), 2, "one answer per scenario, in request order");
    assert_eq!(answers[0].answer, base, "the empty scenario is the present");
    assert_ne!(answers[1].answer, base, "the counterfactual must differ");

    // The base engine is untouched by evaluating scenarios.
    assert_eq!(c.query(&query, PoiCategory::School).expect("still base"), base);

    // Committing the scenario's delta for real lands close to the
    // what-if prediction. Exact equality is not promised — what-if reuses
    // the base hop-tree features as its documented approximation — but
    // both worlds lost the same route, so both must move below the base
    // and agree to within a few percent.
    c.apply_delta(0, &cut).expect("commit the cut");
    let committed = c.query(&query, PoiCategory::School).expect("committed answer");
    let mac = |a: &QueryAnswer| match a {
        QueryAnswer::MeanAccess { mean_mac, .. } => *mean_mac,
        other => panic!("{other:?}"),
    };
    let (b, predicted, actual) = (mac(&base), mac(&answers[1].answer), mac(&committed));
    assert!(predicted < b, "prediction must see the lost route ({predicted} vs base {b})");
    assert!(actual < b, "committed world must see the lost route ({actual} vs base {b})");
    let rel = (predicted - actual).abs() / actual;
    assert!(rel < 0.10, "what-if within 10% of the committed future, off by {rel:.3}");
    server.shutdown();
}

/// The served `PointAccess` answer at `p`, its measures as raw bits so
/// that comparisons are bit for bit rather than float equality.
fn point_bits(c: &mut Client, p: Point, approx: bool) -> (ZoneId, u64, u64) {
    let query = AccessQuery::PointAccess { x: p.x, y: p.y };
    let request = Request::Query { category: PoiCategory::School, query, approx };
    match c.call(&request).expect("point answer") {
        Response::Query(QueryAnswer::PointAccess { zone, mac, acsd }) => {
            assert!(mac.is_finite(), "a measured zone answers at {p:?}");
            (zone, mac.to_bits(), acsd.to_bits())
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn approx_flagged_point_queries_answer_exactly_across_a_delta() {
    let mut server = start_server(42);
    let mut c = Client::connect(server.addr()).expect("connect");
    let centroids: Vec<Point> =
        CityPreset::Test.generate(0.05, 42).zones.iter().map(|z| z.centroid).collect();
    let midpoints = centroids.windows(2).map(|w| w[0].midpoint(&w[1]));
    let points: Vec<Point> =
        centroids.iter().copied().chain(midpoints).chain([Point::new(400.0, 300.0)]).collect();
    let check = |c: &mut Client, when: &str| {
        for &p in &points {
            let (flagged, plain) = (point_bits(c, p, true), point_bits(c, p, false));
            assert_eq!(flagged, plain, "{when}: the approx-flagged reply differs at {p:?}");
        }
    };

    check(&mut c, "before the delta");
    // The delta recomputes the measures; a flagged reply follows them at
    // once, with nothing of its own to refresh.
    c.apply_delta(0, &Delta::TripDelay { trip: TripId(0), delay_secs: 300 }).expect("delta");
    check(&mut c, "after the delta");
    server.shutdown();
}

#[test]
fn streaming_counters_are_visible_through_stats() {
    let mut server = start_server(42);
    let mut c = Client::connect(server.addr()).expect("connect");

    // Warm one category first: engine-cache invalidation only counts
    // published results, so a delta on a cold server invalidates nothing.
    c.query(&AccessQuery::MeanAccess, PoiCategory::School).expect("warm the cache");

    // The obs registry is process-global and shared across tests in this
    // binary, so assert deltas against a baseline, not absolutes.
    let baseline = c.stats().expect("baseline").metrics;
    let counter = |m: &staq_obs::MetricsSnapshot, name: &str| m.counter(name).unwrap_or(0);

    c.apply_delta(0, &Delta::TripDelay { trip: TripId(2), delay_secs: 120 }).expect("delta");
    c.what_if(
        PoiCategory::School,
        &[vec![Delta::TripCancel { trip: TripId(3) }]],
        &AccessQuery::MeanAccess,
    )
    .expect("what-if");

    let m = c.stats().expect("stats").metrics;
    assert!(
        counter(&m, "rt.deltas_applied") > counter(&baseline, "rt.deltas_applied"),
        "rt.deltas_applied must count the applied delta"
    );
    assert!(
        counter(&m, "rt.invalidations.engine") > counter(&baseline, "rt.invalidations.engine"),
        "a structural delta invalidates engine caches"
    );
    server.shutdown();
}
