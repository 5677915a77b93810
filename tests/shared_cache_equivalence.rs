//! Fleet-shared access cache vs private per-router caches: the shared
//! cache is a pure performance substrate, so a shared-cache engine and a
//! private-cache engine fed the same city, config, and edit sequence must
//! answer every Measures request bit-identically — including while many
//! worker threads hammer both engines concurrently and structural deltas
//! invalidate the shared generations mid-stream.

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

fn assert_bit_identical(shared: &AccessEngine, private: &AccessEngine, when: &str) {
    for cat in PoiCategory::ALL {
        let a = shared.measures(cat);
        let b = private.measures(cat);
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
fn shared_cache_measures_match_private_caches_under_concurrent_invalidation() {
    let city = City::generate(&CityConfig::small(21));
    let side = city.config.side_m;
    let shared = Arc::new(AccessEngine::new(city.clone(), config()));
    let private = Arc::new(AccessEngine::with_options(
        city,
        config(),
        EngineOptions { private_access_caches: true },
    ));
    assert!(shared.shared_access_cache().is_some(), "default engine shares its access cache");
    assert!(private.shared_access_cache().is_none(), "opted-out engine keeps private caches");

    // Three rounds: 8 reader threads (4 per engine) race Measures and
    // point queries while one editor thread applies the *same* delta to
    // both engines mid-round (epoch-bumping the shared generations).
    // Readers may observe pre- or post-delta answers — that's fine; the
    // equivalence claim is about the quiesced state after each round.
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
        crossbeam::scope(|scope| {
            for engine in [&shared, &private] {
                for r in 0..4 {
                    let e = Arc::clone(engine);
                    scope.spawn(move |_| {
                        let cat = PoiCategory::ALL[r % 4];
                        for _ in 0..3 {
                            let m = e.measures(cat);
                            assert!(!m.predicted.is_empty());
                            let _ = e.query(&AccessQuery::MeanAccess, cat);
                        }
                    });
                }
            }
            let (s, p) = (Arc::clone(&shared), Arc::clone(&private));
            scope.spawn(move |_| {
                s.apply_delta(delta).expect("delta applies to shared-cache engine");
                p.apply_delta(delta).expect("delta applies to private-cache engine");
            });
        })
        .unwrap();
        assert_bit_identical(&shared, &private, &format!("after round {round}"));
    }

    // The shared substrate actually took the traffic: labeling warmed it,
    // and the stop-adding delta bumped its epoch once.
    let cache = shared.shared_access_cache().expect("shared cache");
    assert!(!cache.is_empty(), "labeling warmed the shared access cache");
    let adds = deltas.iter().filter(|d| matches!(d, Delta::AddRoute { .. })).count();
    assert_eq!(cache.epoch(), adds as u64, "one epoch bump per stop-adding delta");
}

/// A memoised access list depends on the road graph and stop positions
/// only. A delay or a route removal keeps every stop, so it must leave the
/// shared cache's epoch alone, and answers must still match private caches
/// bit for bit.
#[test]
fn delays_and_route_removals_keep_the_shared_access_cache() {
    let city = City::generate(&CityConfig::small(21));
    let shared = AccessEngine::new(city.clone(), config());
    let private =
        AccessEngine::with_options(city, config(), EngineOptions { private_access_caches: true });
    assert_bit_identical(&shared, &private, "cold");
    let cache = shared.shared_access_cache().expect("shared cache");
    let epoch = cache.epoch();
    assert!(!cache.is_empty(), "labeling warmed the shared access cache");

    for delta in [
        Delta::TripDelay { trip: TripId(0), delay_secs: 300 },
        Delta::RouteRemove { route: RouteId(1) },
    ] {
        shared.apply_delta(&delta).expect("delta applies to shared-cache engine");
        private.apply_delta(&delta).expect("delta applies to private-cache engine");
        assert_eq!(cache.epoch(), epoch, "{} adds no stop: the epoch must not move", delta.kind());
        assert_bit_identical(&shared, &private, &format!("after {}", delta.kind()));
    }
}

#[test]
fn scenario_edits_keep_shared_and_private_engines_in_lockstep() {
    let city = City::generate(&CityConfig::small(33));
    let side = city.config.side_m;
    let shared = AccessEngine::new(city.clone(), config());
    let private =
        AccessEngine::with_options(city, config(), EngineOptions { private_access_caches: true });

    assert_bit_identical(&shared, &private, "cold");

    let pos = Point::new(side * 0.4, side * 0.6);
    shared.add_poi(PoiCategory::School, pos);
    private.add_poi(PoiCategory::School, pos);
    assert_bit_identical(&shared, &private, "after add_poi");

    let stops = [Point::new(side * 0.1, side * 0.1), Point::new(side * 0.9, side * 0.9)];
    shared.add_bus_route(&stops, 900);
    private.add_bus_route(&stops, 900);
    assert_bit_identical(&shared, &private, "after add_bus_route");
}
