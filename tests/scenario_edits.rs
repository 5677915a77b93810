//! Dynamic-scenario integration: the engine's edits keep every invariant of
//! the underlying structures and produce the causally expected direction of
//! change — and incremental delta application is *exact*: replaying the
//! delta log on a fresh engine, or rebuilding an engine from the mutated
//! feed, lands on bit-identical measures.

use staq_repro::geom::Point;
use staq_repro::gtfs::model::{RouteId, TripId};
use staq_repro::gtfs::time::{DayOfWeek, Stime};
use staq_repro::gtfs::{validate, Delta, FeedIndex};
use staq_repro::prelude::*;
use staq_repro::rt::RtEngine;
use staq_repro::transit::{Journey, Raptor, TransitNetwork};

fn engine() -> AccessEngine {
    engine_with(ModelKind::Ols)
}

fn engine_with(model: ModelKind) -> AccessEngine {
    let city = City::generate(&CityConfig::small(42));
    AccessEngine::new(
        city,
        PipelineConfig {
            beta: 0.2,
            model,
            todam: TodamSpec { per_hour: 3, ..Default::default() },
            ..Default::default()
        },
    )
}

#[test]
fn added_route_keeps_feed_valid() {
    let e = engine();
    let a = e.city().zones[3].centroid;
    let b = e.city().cores[0];
    e.apply_delta(&Delta::AddRoute { stops: vec![a, a.midpoint(&b), b], headway_s: 480 })
        .expect("route applies");
    let violations = validate::validate(e.city().feed.feed());
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn added_route_shortens_journeys_from_its_terminus() {
    use staq_repro::gtfs::time::{DayOfWeek, Stime};
    use staq_repro::transit::{Raptor, TransitNetwork};

    let e = engine();
    // Pick the zone farthest from the center: its journey to the center
    // should benefit from a direct express route.
    let center = e.city().cores[0];
    let far = e
        .city()
        .zones
        .iter()
        .max_by(|x, y| x.centroid.dist(&center).partial_cmp(&y.centroid.dist(&center)).unwrap())
        .unwrap()
        .clone();

    let before = {
        let city = e.city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        Raptor::new(&net)
            .query(&far.centroid, &center, Stime::hms(8, 0, 0), DayOfWeek::Tuesday)
            .jt_secs()
    };
    let stops = vec![far.centroid, far.centroid.midpoint(&center), center];
    e.apply_delta(&Delta::AddRoute { stops, headway_s: 300 }).expect("route applies");
    let after = {
        let city = e.city();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        Raptor::new(&net)
            .query(&far.centroid, &center, Stime::hms(8, 0, 0), DayOfWeek::Tuesday)
            .jt_secs()
    };
    assert!(
        after <= before,
        "a direct 5-minute-headway route must not worsen the journey: {before}s -> {after}s"
    );
    assert!(
        after < before,
        "journey from the periphery should strictly improve: {before}s -> {after}s"
    );
}

#[test]
fn poi_edits_extend_the_poi_set_consistently() {
    let e = engine();
    let n = e.city().pois.len();
    let pos = e.city().cores[0];
    let id = e.add_poi(PoiCategory::JobCenter, pos);
    assert_eq!(e.city().pois.len(), n + 1);
    let poi = &e.city().pois[id.idx()];
    assert_eq!(poi.category, PoiCategory::JobCenter);
    assert_eq!(poi.pos, pos);
    // Zone association must be the nearest centroid.
    let tree = staq_repro::geom::KdTree::build(&e.city().zone_points());
    assert_eq!(poi.zone.0, tree.nearest(&pos).unwrap().item);
}

#[test]
fn queries_work_after_many_edits() {
    let e = engine();
    let c = e.city().cores[0];
    for k in 0..3 {
        let p = c.offset(100.0 * k as f64, -50.0 * k as f64);
        e.add_poi(PoiCategory::VaxCenter, p);
    }
    let side = e.city().config.side_m;
    let stops = vec![
        Point::new(side * 0.1, side * 0.1),
        Point::new(side * 0.5, side * 0.5),
        Point::new(side * 0.9, side * 0.9),
    ];
    e.apply_delta(&Delta::AddRoute { stops, headway_s: 600 }).expect("route applies");
    for cat in [PoiCategory::VaxCenter, PoiCategory::School] {
        match e.query(&AccessQuery::MeanAccess, cat) {
            QueryAnswer::MeanAccess { mean_mac, .. } => {
                assert!(mean_mac.is_finite() && mean_mac > 0.0)
            }
            other => panic!("{other:?}"),
        }
    }
}

/// A mixed slice of live-feed history: one of each structural kind plus
/// an advisory alert in the middle.
fn sample_history(side: f64) -> Vec<Delta> {
    vec![
        Delta::TripDelay { trip: TripId(0), delay_secs: 240 },
        Delta::ServiceAlert { route: RouteId(2), message: "expect crowding".into() },
        Delta::TripCancel { trip: TripId(3) },
        Delta::AddRoute {
            stops: vec![
                staq_repro::geom::Point::new(side * 0.2, side * 0.8),
                staq_repro::geom::Point::new(side * 0.5, side * 0.5),
                staq_repro::geom::Point::new(side * 0.8, side * 0.2),
            ],
            headway_s: 420,
        },
        Delta::RouteRemove { route: RouteId(1) },
    ]
}

#[test]
fn delta_log_replay_on_a_fresh_engine_is_bit_identical() {
    // Live path: deltas arrive one at a time, applied incrementally.
    let live = RtEngine::new(std::sync::Arc::new(engine()));
    let history = sample_history(live.engine().city().config.side_m);
    for d in &history {
        live.apply(d.clone()).expect("live delta applies");
    }
    assert_eq!(live.seq(), history.len() as u64);

    // Replica path: a fresh same-seed engine replays the whole log as
    // one sequenced batch.
    let replica = RtEngine::new(std::sync::Arc::new(engine()));
    let applied = replica.apply_batch(1, &live.log_tail(0)).expect("log replays");
    assert_eq!(applied.seq, live.seq());

    // Incremental application must be deterministic: both worlds agree
    // bit-for-bit on every category's measures and on the feed itself.
    for cat in [PoiCategory::School, PoiCategory::Hospital, PoiCategory::VaxCenter] {
        assert_eq!(
            live.engine().measures(cat).predicted,
            replica.engine().measures(cat).predicted,
            "replayed measures diverged for {cat:?}"
        );
    }
    assert_eq!(
        live.engine().city().feed.feed(),
        replica.engine().city().feed.feed(),
        "replayed feed diverged"
    );
}

#[test]
fn incremental_apply_matches_a_from_scratch_rebuild() {
    let config = PipelineConfig {
        beta: 0.2,
        model: ModelKind::Ols,
        todam: TodamSpec { per_hour: 3, ..Default::default() },
        ..Default::default()
    };
    let city = City::generate(&CityConfig::small(42));
    let history = sample_history(city.config.side_m);

    // Incremental path: an engine built on the pristine city, mutated
    // delta by delta (partial hop-tree rebuilds, cache invalidation). The
    // network it holds is never stale: after every delta its plans equal
    // a router over a network prepared from scratch from its current city.
    let ods = plan_ods(&city);
    let incremental = AccessEngine::new(city.clone(), config.clone());
    for delta in &history {
        incremental.apply_delta(delta).expect("incremental delta applies");
        let expected = {
            let city = incremental.city();
            let net = TransitNetwork::with_defaults(&city.road, &city.feed);
            let router = Raptor::new(&net);
            plans(&ods, |o, d, cap| match cap {
                Some(k) => vec![router.query_max_transfers(o, d, PLAN_DEPART, PLAN_DAY, k)],
                None => router.query_pareto(o, d, PLAN_DEPART, PLAN_DAY),
            })
        };
        let held = plans(&ods, |o, d, cap| incremental.plan(*o, *d, PLAN_DEPART, PLAN_DAY, cap));
        assert!(held == expected, "plans over the held network went stale after {}", delta.kind());
    }

    // Rebuild path: the same deltas mutate the raw feed first, then a
    // brand-new engine computes everything from scratch.
    let mut mutated = city;
    let bus_speed = mutated.config.bus_speed_mps;
    for d in &history {
        mutated.feed.apply_delta(d, bus_speed).expect("feed delta applies");
    }
    let rebuilt = AccessEngine::new(mutated, config);

    // The incremental invalidation must be *exact*: nothing stale may
    // survive, so both engines answer bit-identically.
    for cat in [PoiCategory::School, PoiCategory::Hospital] {
        assert_eq!(
            incremental.measures(cat).predicted,
            rebuilt.measures(cat).predicted,
            "incremental apply diverged from full rebuild for {cat:?}"
        );
    }
    let at_end =
        |e: &AccessEngine| plans(&ods, |o, d, cap| e.plan(*o, *d, PLAN_DEPART, PLAN_DAY, cap));
    assert!(at_end(&incremental) == at_end(&rebuilt), "incremental plans diverged from rebuild");
    let violations = validate::validate(incremental.city().feed.feed());
    assert!(violations.is_empty(), "mutated feed must stay valid: {violations:?}");
}

/// Removing a route in one pass lands on the index that cancelling its
/// trips one by one (in id order) gives, and its footprint's rows are the
/// per-trip cancel footprints' rows concatenated, for every route of the
/// city — after one of its trips was already cancelled, so a removal also
/// walks past empty ranges.
#[test]
fn route_removal_equals_cancelling_its_trips_one_by_one() {
    let city = City::generate(&CityConfig::small(42));
    let speed = city.config.bus_speed_mps;
    let feed = city.feed.feed();
    for route in feed.routes.iter().map(|r| r.id) {
        let trips: Vec<TripId> =
            feed.trips.iter().filter(|t| t.route == route).map(|t| t.id).collect();
        let mut base = city.feed.clone();
        if let Some(&first) = trips.get(1) {
            base.apply_delta(&Delta::TripCancel { trip: first }, speed).expect("cancel applies");
        }
        let mut one_pass = base.clone();
        let removed = one_pass
            .apply_delta(&Delta::RouteRemove { route }, speed)
            .expect("removal applies")
            .trips;
        let mut by_trip = base;
        let mut expected = Vec::new();
        for &trip in &trips {
            let out = by_trip.apply_delta(&Delta::TripCancel { trip }, speed);
            expected.extend(out.expect("cancel applies").trips);
        }
        assert_eq!(removed, expected, "footprint rows of route {}", route.0);
        assert!(one_pass == by_trip, "route {} removal diverged from per-trip cancels", route.0);
        assert!(one_pass == FeedIndex::build(one_pass.feed().clone()), "diverged from a rebuild");
    }
}

/// One step of an edit history: a streamed delta or a new POI.
enum Edit {
    Delta(Delta),
    Poi(PoiCategory, Point),
}

/// A Tuesday trip running wholly inside the 07:00–09:00 AM peak, and how
/// many 30 s delays push its last departure to 09:00 or later: the trip
/// ending latest among those at least three steps short of it.
fn late_peak_trip(city: &City) -> (TripId, u32) {
    let (start, end) = (Stime::hours(7), Stime::hours(9));
    let feed = &city.feed;
    let (last, trip) = (0..feed.feed().trips.len() as u32)
        .map(TripId)
        .filter(|&t| feed.trip_runs_on(t, DayOfWeek::Tuesday))
        .filter_map(|t| {
            let calls = feed.trip_calls(t);
            let (first, last) = (calls.first()?.departure, calls.last()?.departure);
            (first >= start && last.0 + 90 < end.0).then_some((last, t))
        })
        .max()
        .expect("an AM-peak trip");
    (trip, (end.0 - last.0).div_ceil(30))
}

/// Measures as raw bits: `==` on f64 would hide a sign-of-zero difference
/// (the clamp `max(0.0)` can produce one).
fn measure_bits(measures: &[ZoneMeasures]) -> Vec<(u32, u64, u64)> {
    measures.iter().map(|m| (m.zone.0, m.mac.to_bits(), m.acsd.to_bits())).collect()
}

/// After every edit, each category's served measures equal a from-scratch
/// engine's bit for bit, under a linear and a neural model. The fresh
/// engine has no kept stage and no retired fit, so it is an oracle
/// independent of both reuse paths, and the history takes every path:
/// kept and rebuilt feature rows, reused fits and refits.
#[test]
fn every_category_stays_exact_after_every_edit() {
    for model in [ModelKind::Ols, ModelKind::Mlp] {
        let e = engine_with(model);
        let (trip, steps) = late_peak_trip(&e.city());
        // Delays that keep every departure inside the peak change no hop
        // tree; the last one pushes a departure past 09:00. Then a
        // cancellation, a POI, a new route and a route removal.
        let [cancel, route, remove] =
            [2, 3, 4].map(|i| sample_history(e.city().config.side_m)[i].clone());
        let mut edits: Vec<Edit> =
            (0..steps).map(|_| Edit::Delta(Delta::TripDelay { trip, delay_secs: 30 })).collect();
        edits.push(Edit::Delta(cancel));
        edits.push(Edit::Poi(PoiCategory::School, e.city().cores[0].offset(120.0, -80.0)));
        edits.extend([route, remove].map(Edit::Delta));

        for c in PoiCategory::ALL {
            e.measures(c);
        }
        let (mut kept, mut rebuilt, mut reused_fits, mut refits) = (0, 0, 0, 0);
        for (step, edit) in edits.iter().enumerate() {
            let new_poi = match edit {
                Edit::Delta(d) => {
                    e.apply_delta(d).expect("delta applies");
                    None
                }
                Edit::Poi(c, p) => {
                    e.add_poi(*c, *p);
                    Some(*c)
                }
            };
            // A from-scratch engine on the edited city is the reference.
            let fresh = AccessEngine::new(e.city().clone(), e.config().clone());
            for c in PoiCategory::ALL {
                let ours = e.measures(c);
                assert_eq!(
                    measure_bits(&ours.predicted),
                    measure_bits(&fresh.measures(c).predicted),
                    "{c:?} diverged from a fresh engine after edit {step} under {model}"
                );
                assert_eq!(
                    ours.timings.todam_secs > 0.0,
                    new_poi == Some(c),
                    "only a new POI rebuilds a TODAM ({c:?}, edit {step}, {model})"
                );
                if ours.timings.feature_secs == 0.0 {
                    kept += 1;
                } else {
                    rebuilt += 1;
                }
                if ours.timings.train_secs == 0.0 {
                    reused_fits += 1;
                } else {
                    refits += 1;
                }
            }
        }
        assert!(kept > 0 && rebuilt > 0, "{model}: kept {kept}, rebuilt {rebuilt} feature rows");
        assert!(
            reused_fits > 0 && refits > 0,
            "{model}: reused {reused_fits} fits, refit {refits}"
        );
    }
}

const PLAN_DEPART: Stime = Stime(8 * 3600);
const PLAN_DAY: DayOfWeek = DayOfWeek::Tuesday;

/// 24 fixed OD pairs over zone centroids, spread across the city.
fn plan_ods(city: &City) -> Vec<(Point, Point)> {
    let n = city.n_zones();
    (0..24)
        .map(|k| (city.zones[k * 5 % n].centroid, city.zones[(k * 37 + 11) % n].centroid))
        .collect()
}

/// `plan` answers for every OD pair, uncapped (the Pareto frontier) and
/// capped at one transfer.
fn plans(
    ods: &[(Point, Point)],
    mut plan: impl FnMut(&Point, &Point, Option<u8>) -> Vec<Journey>,
) -> Vec<Vec<Journey>> {
    ods.iter().flat_map(|(o, d)| [None, Some(1)].map(|cap| plan(o, d, cap))).collect()
}
