//! Router invariants that must hold on any city, checked over a seeded
//! sweep of OD pairs.

use staq_gtfs::time::{DayOfWeek, Stime};
use staq_synth::{City, CityConfig};
use staq_transit::{Raptor, RouterConfig, TransitNetwork};

fn city() -> City {
    City::generate(&CityConfig::small(1234))
}

fn od_pairs(city: &City, n: usize) -> Vec<(staq_geom::Point, staq_geom::Point)> {
    (0..n)
        .map(|i| {
            (
                city.zones[(i * 31 + 2) % city.n_zones()].centroid,
                city.zones[(i * 17 + 9) % city.n_zones()].centroid,
            )
        })
        .collect()
}

#[test]
fn more_boardings_never_hurt() {
    let city = city();
    let nets: Vec<TransitNetwork> = [1usize, 2, 4]
        .iter()
        .map(|&k| {
            TransitNetwork::new(
                &city.road,
                &city.feed,
                RouterConfig { max_boardings: k, ..RouterConfig::default() },
            )
        })
        .collect();
    let depart = Stime::hms(7, 45, 0);
    for (o, d) in od_pairs(&city, 20) {
        let arrivals: Vec<Stime> = nets
            .iter()
            .map(|n| Raptor::new(n).query(&o, &d, depart, DayOfWeek::Tuesday).arrive)
            .collect();
        for w in arrivals.windows(2) {
            assert!(w[1] <= w[0], "extra boarding budget worsened arrival: {:?}", arrivals);
        }
    }
}

#[test]
fn wider_access_budget_never_hurts() {
    let city = city();
    let tight = TransitNetwork::new(
        &city.road,
        &city.feed,
        RouterConfig { access_budget_secs: 300.0, ..RouterConfig::default() },
    );
    let wide = TransitNetwork::new(
        &city.road,
        &city.feed,
        RouterConfig { access_budget_secs: 900.0, ..RouterConfig::default() },
    );
    let depart = Stime::hms(8, 0, 0);
    for (o, d) in od_pairs(&city, 20) {
        let a_tight = Raptor::new(&tight).query(&o, &d, depart, DayOfWeek::Tuesday).arrive;
        let a_wide = Raptor::new(&wide).query(&o, &d, depart, DayOfWeek::Tuesday).arrive;
        assert!(a_wide <= a_tight, "more walk budget worsened {a_wide} > {a_tight}");
    }
}

#[test]
fn journey_components_always_reconcile() {
    let city = city();
    let net = TransitNetwork::with_defaults(&city.road, &city.feed);
    let router = Raptor::new(&net);
    for (i, (o, d)) in od_pairs(&city, 30).into_iter().enumerate() {
        let depart = Stime::hms(7, (i as u32 * 7) % 60, 0);
        let j = router.query(&o, &d, depart, DayOfWeek::Tuesday);
        j.check_consistency().unwrap();
        let parts = j.access_walk_secs()
            + j.egress_walk_secs()
            + j.transfer_walk_secs()
            + j.wait_secs()
            + j.in_vehicle_secs();
        if j.is_walk_only() {
            assert_eq!(j.n_rides(), 0);
        } else {
            assert_eq!(parts, j.jt_secs(), "component decomposition must cover the journey");
        }
    }
}

#[test]
fn self_journeys_are_instant() {
    let city = city();
    let net = TransitNetwork::with_defaults(&city.road, &city.feed);
    let router = Raptor::new(&net);
    let o = city.zones[5].centroid;
    let j = router.query(&o, &o, Stime::hms(9, 0, 0), DayOfWeek::Tuesday);
    assert_eq!(j.jt_secs(), 0);
    assert!(j.is_walk_only());
}

#[test]
fn describe_renders_transit_itineraries() {
    let city = city();
    let net = TransitNetwork::with_defaults(&city.road, &city.feed);
    let router = Raptor::new(&net);
    // Find a transit journey and verify its rendering mentions a ride.
    for (o, d) in od_pairs(&city, 40) {
        let j = router.query(&o, &d, Stime::hms(7, 30, 0), DayOfWeek::Tuesday);
        if !j.is_walk_only() {
            let s = j.describe();
            assert!(s.contains("ride route"), "{s}");
            assert!(s.contains("depart"));
            return;
        }
    }
    panic!("no transit journey found in sweep");
}
