//! Regression tests for delay-induced overtaking in the trip-boarding path.
//!
//! A uniform `TripDelay` can make a delayed trip *cross* a slower successor
//! — depart after it at the first stop yet arrive before it downstream.
//! Rebuilding a network from such a feed used to hit `check_no_overtaking`'s
//! `assert!` and panic a serving backend; the boarding binary search also
//! leaned on departure columns being sorted, which only arrivals were ever
//! checked for. The fix splits overtaking trips into separate
//! non-overtaking patterns at build time and reserves errors for genuinely
//! malformed trips.

use staq_geom::Point;
use staq_gtfs::model::{
    Agency, AgencyId, Feed, Route, RouteId, RouteType, Service, ServiceId, Stop, StopId, StopTime,
    Trip, TripId,
};
use staq_gtfs::time::{DayOfWeek, Stime};
use staq_gtfs::{Delta, FeedIndex};
use staq_synth::{City, CityConfig};
use staq_transit::{Raptor, TransitNetwork};

/// A feed with one route, three stops, and two trips whose run times
/// differ: trip 0 is fast (10-minute hops), trip 1 slow (20-minute hops).
/// Delaying trip 0 past trip 1's departure makes it overtake trip 1.
fn crossing_feed(stops_at: [Point; 3]) -> Feed {
    let stops: Vec<Stop> = stops_at
        .iter()
        .enumerate()
        .map(|(k, p)| Stop {
            id: StopId(k as u32),
            gtfs_id: format!("S{k}"),
            name: format!("Stop {k}"),
            pos: *p,
        })
        .collect();
    let mut stop_times = Vec::new();
    // trip 0: departs 8:00, 600 s hops; trip 1: departs 8:05, 1200 s hops.
    for (trip, start, hop) in [(0u32, 8 * 3600, 600u32), (1, 8 * 3600 + 300, 1200)] {
        for seq in 0u32..3 {
            let arr = start + seq * hop;
            let dep = if seq < 2 { arr + 15 } else { arr };
            stop_times.push(StopTime {
                trip: TripId(trip),
                stop: StopId(seq),
                arrival: Stime(arr),
                departure: Stime(dep),
                seq,
            });
        }
    }
    Feed {
        agencies: vec![Agency { id: AgencyId(0), gtfs_id: "A".into(), name: "Test".into() }],
        stops,
        routes: vec![Route {
            id: RouteId(0),
            gtfs_id: "R0".into(),
            agency: AgencyId(0),
            short_name: "X1".into(),
            route_type: RouteType::Bus,
        }],
        services: vec![Service {
            id: ServiceId(0),
            gtfs_id: "WK".into(),
            days: [true, true, true, true, true, false, false],
        }],
        trips: (0..2)
            .map(|t| Trip {
                id: TripId(t),
                gtfs_id: format!("T{t}"),
                route: RouteId(0),
                service: ServiceId(0),
            })
            .collect(),
        stop_times,
    }
}

/// A delay that makes trip 0 depart after trip 1 at stop 0 (8:10 vs 8:05)
/// while still arriving downstream before it (8:30 vs 8:45 at stop 2).
const CROSSING_DELAY: u32 = 600;

#[test]
fn live_overtaking_delay_builds_and_splits_instead_of_panicking() {
    let city = City::generate(&CityConfig::small(42));
    let stops = [city.zones[2].centroid, city.cores[0], city.zones[9].centroid];
    let mut ix = FeedIndex::build(crossing_feed(stops));
    ix.apply_delta(&Delta::TripDelay { trip: TripId(0), delay_secs: CROSSING_DELAY }, 8.0)
        .expect("delay applies");

    // Regression: this construction used to panic on the overtaking pattern.
    let net = TransitNetwork::with_defaults(&city.road, &ix);
    assert_eq!(net.patterns().len(), 2, "the crossing trips must be split into separate patterns");
    let total_trips: usize = net.patterns().iter().map(|p| p.trips.len()).sum();
    assert_eq!(total_trips, 2, "splitting must not lose trips");

    // The boarding search must pick the delayed (now faster-downstream)
    // trip: leaving stop 0 at 8:06 catches trip 0 at 8:10 and arrives at
    // stop 2 at 8:30, not trip 1's 8:45.
    let router = Raptor::new(&net);
    let j = router.query(&stops[0], &stops[2], Stime::hms(8, 6, 0), DayOfWeek::Tuesday);
    assert!(!j.is_walk_only(), "zone-to-zone hop must use the bus");
    // Rode the delayed trip: off the bus at 8:30 (plus a short egress walk),
    // well before trip 1's 8:45 at the same stop.
    let off_bus = Stime(8 * 3600 + CROSSING_DELAY + 2 * 600);
    let trip1_arrival = Stime(8 * 3600 + 300 + 2 * 1200);
    assert!(j.arrive >= off_bus && j.arrive < trip1_arrival, "must ride the delayed trip: {j:?}");
}

#[test]
fn genuinely_malformed_trip_is_an_error_not_a_panic() {
    let city = City::generate(&CityConfig::small(42));
    let stops = [city.zones[2].centroid, city.cores[0], city.zones[9].centroid];
    let mut feed = crossing_feed(stops);
    // Time travel inside trip 1: second call arrives before the first
    // call's departure. No pattern split can repair this.
    feed.stop_times[4].arrival = Stime(7 * 3600);
    feed.stop_times[4].departure = Stime(7 * 3600 + 15);
    let ix = FeedIndex::build(feed);
    let err = TransitNetwork::try_new(&city.road, &ix, Default::default())
        .expect_err("malformed trip must be rejected");
    assert!(err.contains("non-monotonic"), "{err}");
}
