//! Pruning exactness: the pruned router must return **leg-for-leg
//! identical** journeys to the unpruned reference — not merely the same
//! arrival times — across seeds, service days, and departure times.
//!
//! This is the contract that makes the pruning safe to ship: target
//! pruning keeps arrivals that *tie* the bound (strict `>` comparison), so
//! the winning label chain survives byte-identical. The one-to-many pass
//! labeling runs is held to the same reference, one call per (zone, start)
//! group of real TODAM trips.

use staq_geom::Point;
use staq_gtfs::time::{DayOfWeek, Stime};
use staq_synth::{City, CityConfig, PoiCategory, ZoneId};
use staq_todam::build::{trip_origin, trip_poi_pos};
use staq_todam::TodamSpec;
use staq_transit::{mmdijkstra, Raptor, TransitNetwork};

fn od_pairs(city: &City, n: usize) -> Vec<(Point, Point)> {
    (0..n)
        .map(|i| {
            let o = city.zones[(i * 7) % city.zones.len()].centroid;
            let d = city.zones[(i * 13 + 5) % city.zones.len()].centroid;
            (o, d)
        })
        .collect()
}

const SEEDS: [u64; 3] = [7, 42, 1234];
const DAYS: [DayOfWeek; 2] = [DayOfWeek::Tuesday, DayOfWeek::Sunday];

fn departures() -> [Stime; 3] {
    [Stime::hms(7, 30, 0), Stime::hms(12, 15, 0), Stime::hms(17, 45, 0)]
}

/// Seed-swept property test: every (seed, day, departure, od) cell must
/// produce identical `Journey` values from both routers.
#[test]
fn pruned_journeys_identical_to_reference() {
    for seed in SEEDS {
        let city = City::generate(&CityConfig::small(seed));
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let pruned = Raptor::new(&net);
        let reference = Raptor::reference(&net);
        for day in DAYS {
            for depart in departures() {
                for (o, d) in od_pairs(&city, 25) {
                    let jp = pruned.query(&o, &d, depart, day);
                    let jr = reference.query(&o, &d, depart, day);
                    assert_eq!(
                        jp, jr,
                        "pruned/reference divergence: seed={seed} day={day:?} \
                         depart={depart:?} o={o:?} d={d:?}"
                    );
                }
            }
        }
    }
}

/// Every TODAM trip of every category (centroid → POI, the default spec's
/// Tuesday AM peak): `query`, `reference` and `query_many` return the same
/// journey, leg for leg. This is the labeling workload itself — the pruned
/// router's bound interacts with chained foot transfers on real trips in
/// ways the zone-to-zone pairs above never reach.
#[test]
fn todam_trips_agree_across_query_reference_and_query_many() {
    let spec = TodamSpec::default();
    let day = spec.interval.day;
    for seed in SEEDS {
        let city = City::generate(&CityConfig::small(seed));
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let pruned = Raptor::new(&net);
        let reference = Raptor::reference(&net);
        let (mut journeys, mut mismatches, mut trips) = (Vec::new(), Vec::new(), 0usize);
        for category in PoiCategory::ALL {
            let m = spec.build(&city, category);
            for z in 0..city.n_zones() as u32 {
                let zone_trips = m.zone_trips(ZoneId(z));
                let mut starts: Vec<Stime> = zone_trips.iter().map(|t| t.start).collect();
                starts.sort_unstable();
                starts.dedup();
                for start in starts {
                    let group: Vec<_> = zone_trips.iter().filter(|t| t.start == start).collect();
                    let o = trip_origin(&city, group[0]);
                    let dests: Vec<Point> =
                        group.iter().map(|t| trip_poi_pos(&city, &m, t)).collect();
                    pruned.query_many(&o, &dests, start, day, &mut journeys);
                    assert_eq!(journeys.len(), dests.len());
                    for (d, jm) in dests.iter().zip(&journeys) {
                        trips += 1;
                        let jr = reference.query(&o, d, start, day);
                        let jp = pruned.query(&o, d, start, day);
                        if *jm != jr || jp != jr {
                            mismatches.push(format!(
                                "{category} zone={z} start={start:?} d={d:?}: reference \
                                 arrives {:?}, query {:?}, query_many {:?}",
                                jr.arrive, jp.arrive, jm.arrive
                            ));
                        }
                    }
                }
            }
        }
        assert!(trips > 0);
        assert!(
            mismatches.is_empty(),
            "seed {seed}: {} of {trips} trips diverge from the reference, first: {:#?}",
            mismatches.len(),
            &mismatches[..mismatches.len().min(5)]
        );
    }
}

/// Repeating a query on a warm router (cached isochrones, reused scratch)
/// must not change the answer.
#[test]
fn warm_router_is_idempotent() {
    let city = City::generate(&CityConfig::small(42));
    let net = TransitNetwork::with_defaults(&city.road, &city.feed);
    let router = Raptor::new(&net);
    for (o, d) in od_pairs(&city, 10) {
        let first = router.query(&o, &d, Stime::hms(8, 0, 0), DayOfWeek::Tuesday);
        for _ in 0..3 {
            let again = router.query(&o, &d, Stime::hms(8, 0, 0), DayOfWeek::Tuesday);
            assert_eq!(first, again);
        }
    }
}

/// Cross-check against the time-dependent multimodal Dijkstra baseline:
/// the exact baseline never arrives later than either router, and both
/// routers agree with each other on arrival everywhere.
#[test]
fn arrivals_cross_check_against_dijkstra() {
    for seed in [7u64, 42] {
        let city = City::generate(&CityConfig::small(seed));
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let pruned = Raptor::new(&net);
        let reference = Raptor::reference(&net);
        for day in DAYS {
            for depart in [Stime::hms(7, 30, 0), Stime::hms(17, 45, 0)] {
                for (o, d) in od_pairs(&city, 12) {
                    let ap = pruned.query(&o, &d, depart, day).arrive;
                    let ar = reference.query(&o, &d, depart, day).arrive;
                    assert_eq!(ap, ar, "arrival divergence seed={seed} day={day:?}");
                    let dij = mmdijkstra::earliest_arrival(&net, &o, &d, depart, day);
                    assert!(
                        dij.0 <= ap.0,
                        "dijkstra {dij:?} lost to raptor {ap:?} (seed={seed} day={day:?})"
                    );
                }
            }
        }
    }
}
