//! The access cache is a pure performance substrate: an engine that kept
//! its stop tables and warm cache across an edit sequence must answer
//! every Measures request bit-identically to a fresh engine built on the
//! city the sequence left behind — including while reader threads hammer
//! it and the deltas land mid-stream. Only a delta that moves the stop set
//! (`AddRoute`) may replace the stop tables, and with them the cache.

use staq_gtfs::model::{RouteId, TripId};
use staq_gtfs::Delta;
use staq_repro::prelude::*;
use std::sync::Arc;

fn config() -> PipelineConfig {
    PipelineConfig {
        beta: 0.25,
        model: ModelKind::Ols,
        todam: TodamSpec { per_hour: 3, ..Default::default() },
        ..Default::default()
    }
}

/// Every category's measures of `e` against those of a fresh engine built
/// on `e`'s current (quiesced) city, compared by `f64::to_bits`.
fn assert_matches_fresh_engine(e: &AccessEngine, when: &str) {
    let city = e.city().clone();
    let fresh = AccessEngine::new(city, config());
    for cat in PoiCategory::ALL {
        let a = e.measures(cat);
        let b = fresh.measures(cat);
        assert_eq!(a.predicted.len(), b.predicted.len(), "{when}: {cat:?} zone count");
        for (s, p) in a.predicted.iter().zip(b.predicted.iter()) {
            assert_eq!(s.zone, p.zone, "{when}: {cat:?}");
            assert_eq!(
                s.mac.to_bits(),
                p.mac.to_bits(),
                "{when}: {cat:?} zone {:?}: mac {} vs {}",
                s.zone,
                s.mac,
                p.mac
            );
            assert_eq!(
                s.acsd.to_bits(),
                p.acsd.to_bits(),
                "{when}: {cat:?} zone {:?}: acsd {} vs {}",
                s.zone,
                s.acsd,
                p.acsd
            );
        }
    }
}

#[test]
fn measures_match_a_fresh_engine_while_readers_race_deltas() {
    let city = City::generate(&CityConfig::small(21));
    let side = city.config.side_m;
    let e = Arc::new(AccessEngine::new(city, config()));

    // Three rounds: 4 reader threads race Measures and point queries while
    // one editor thread applies a delta mid-round. Readers may observe
    // pre- or post-delta answers — that's fine; the equivalence claim is
    // about the quiesced state after each round.
    let deltas = [
        Delta::TripDelay { trip: TripId(0), delay_secs: 300 },
        Delta::TripCancel { trip: TripId(1) },
        Delta::AddRoute {
            stops: vec![
                Point::new(side * 0.2, side * 0.3),
                Point::new(side * 0.5, side * 0.55),
                Point::new(side * 0.8, side * 0.7),
            ],
            headway_s: 600,
        },
    ];
    for (round, delta) in deltas.iter().enumerate() {
        let before = e.stop_tables();
        crossbeam::scope(|scope| {
            for r in 0..4 {
                let e = Arc::clone(&e);
                scope.spawn(move |_| {
                    let cat = PoiCategory::ALL[r % 4];
                    for _ in 0..3 {
                        let m = e.measures(cat);
                        assert!(!m.predicted.is_empty());
                        let _ = e.query(&AccessQuery::MeanAccess, cat);
                    }
                });
            }
            let e = Arc::clone(&e);
            scope.spawn(move |_| {
                e.apply_delta(delta).expect("delta applies");
            });
        })
        .unwrap();
        let adds_stops = matches!(delta, Delta::AddRoute { .. });
        assert_eq!(
            !Arc::ptr_eq(&before, &e.stop_tables()),
            adds_stops,
            "round {round}: only a stop-adding delta replaces the stop tables"
        );
        assert_matches_fresh_engine(&e, &format!("after round {round}"));
    }
    assert!(!e.stop_tables().access_cache().is_empty(), "labeling warmed the access cache");
}

/// A memoised access list depends on the road graph and stop positions
/// only. A delay or a route removal keeps every stop, so it must keep the
/// stop tables and their warm cache, and answers must still match a fresh
/// engine bit for bit.
#[test]
fn delays_and_route_removals_keep_the_access_cache() {
    let city = City::generate(&CityConfig::small(21));
    let e = AccessEngine::new(city, config());
    assert_matches_fresh_engine(&e, "cold");
    let stops = e.stop_tables();
    assert!(!stops.access_cache().is_empty(), "labeling warmed the access cache");

    for delta in [
        Delta::TripDelay { trip: TripId(0), delay_secs: 300 },
        Delta::RouteRemove { route: RouteId(1) },
    ] {
        e.apply_delta(&delta).expect("delta applies");
        assert!(Arc::ptr_eq(&stops, &e.stop_tables()), "{delta:?} adds no stop: tables must stay");
        assert_matches_fresh_engine(&e, &format!("after {delta:?}"));
    }
}

#[test]
fn scenario_edits_match_a_fresh_engine() {
    let city = City::generate(&CityConfig::small(33));
    let side = city.config.side_m;
    let e = AccessEngine::new(city, config());
    assert_matches_fresh_engine(&e, "cold");

    let stops = e.stop_tables();
    e.add_poi(PoiCategory::School, Point::new(side * 0.4, side * 0.6));
    assert!(Arc::ptr_eq(&stops, &e.stop_tables()), "add_poi leaves the network alone");
    assert_matches_fresh_engine(&e, "after add_poi");

    let route = vec![Point::new(side * 0.1, side * 0.1), Point::new(side * 0.9, side * 0.9)];
    e.apply_delta(&Delta::AddRoute { stops: route, headway_s: 900 }).expect("route applies");
    assert!(!Arc::ptr_eq(&stops, &e.stop_tables()), "a new route brings new stop tables");
    assert_matches_fresh_engine(&e, "after a new route");
}
