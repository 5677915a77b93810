//! A delta's footprint, checked by value rather than by rule: after every
//! delta of a random sequence, the [`Footprint`] `FeedIndex::apply_delta`
//! returns must equal a field diff of the index cloned before it — exactly
//! the trips whose call rows differ, with both rows, and through
//! `stops()` exactly the stops whose departure rows differ.

use proptest::prelude::*;
use staq_geom::Point;
use staq_gtfs::index::Departure;
use staq_gtfs::model::RouteId;
use staq_gtfs::{DayOfWeek, Delta, FeedIndex, Footprint, Stime, StopId, TimeInterval};
use staq_gtfs::{TripId, TripRows};
use staq_synth::{City, CityConfig};
use staq_transit::{NetworkTables, RouterConfig};

/// The trips the delays and cancels draw from: few enough that a
/// sequence repeats cancels and delays cancelled trips.
const TRIP_POOL: u32 = 6;

/// Every stop's departure row over `0..n_stops`, seen through the public
/// per-day view over the whole service clock (empty past `ix`'s stops).
/// No interval holds the clock's last second, but no accepted delta leaves
/// a call there (asserted below). Every trip runs on some day (asserted
/// below too), so two rows are equal exactly when their seven views are.
fn departure_rows(ix: &FeedIndex, n_stops: usize) -> Vec<Vec<Vec<Departure>>> {
    let clock = |day| TimeInterval::new(Stime(0), Stime(u32::MAX), day, "all");
    (0..n_stops)
        .map(|s| {
            let stop = StopId(s as u32);
            let days = if s < ix.n_stops() { &DayOfWeek::ALL[..] } else { &[] };
            days.iter().map(|&day| ix.departures_at(stop, &clock(day)).collect()).collect()
        })
        .collect()
}

/// What changed from `before` to `after`, field by field.
fn diff(before: &FeedIndex, after: &FeedIndex) -> (Vec<TripRows>, Vec<StopId>) {
    let rows = |ix: &FeedIndex, t: TripId| {
        if t.idx() < ix.feed().trips.len() {
            ix.trip_calls(t).to_vec()
        } else {
            Vec::new()
        }
    };
    let trips = (0..after.feed().trips.len() as u32)
        .map(TripId)
        .map(|trip| TripRows { trip, before: rows(before, trip), after: rows(after, trip) })
        .filter(|t| t.before != t.after)
        .collect();
    let n = after.n_stops();
    let (b, a) = (departure_rows(before, n), departure_rows(after, n));
    let stops = (0..n as u32).map(StopId).filter(|s| b[s.idx()] != a[s.idx()]).collect();
    (trips, stops)
}

/// One drawn delta: `(kind, id, (extreme, delay), (far, points))`.
type Draw = (u8, u32, (u8, u32), (u32, Vec<(f64, f64)>));

/// One delta from a [`Draw`]. An `extreme` of 0 puts the delay (and the
/// headway) within `delay` seconds of `u32::MAX`; a `far` in 8..=12
/// spreads the route's points over `10^far` m instead of the city's side,
/// far enough out from 10^10 m on for run times to overflow the service
/// clock.
fn delta(ix: &FeedIndex, side: f64, (kind, id, (extreme, delay), (far, pts)): Draw) -> Delta {
    let delay = if extreme == 0 { u32::MAX - delay } else { delay };
    let scale = if (8..=12).contains(&far) { 10f64.powi(far as i32) } else { side };
    let trip = TripId((id % TRIP_POOL) * (ix.feed().trips.len() as u32 / TRIP_POOL));
    let route = RouteId(id % ix.feed().routes.len() as u32);
    match kind {
        0 => Delta::TripDelay { trip, delay_secs: delay },
        1 => Delta::TripCancel { trip },
        2 => Delta::RouteRemove { route },
        3 => Delta::ServiceAlert { route, message: "advisory".into() },
        _ => Delta::AddRoute {
            stops: pts.into_iter().map(|(x, y)| Point::new(x * scale, y * scale)).collect(),
            headway_s: delay.saturating_add(600),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_footprint_equals_a_field_diff_of_the_index(ops in proptest::collection::vec(
        (
            0u8..5,
            0u32..1_000,
            (0u8..4, 0u32..5_401),
            (0u32..20, proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..5)),
        ),
        1..16,
    )) {
        let city = City::generate(&CityConfig::tiny(42));
        let (side, speed) = (city.config.side_m, city.config.bus_speed_mps);
        let mut ix = city.feed;
        for op in ops {
            let delta = delta(&ix, side, op);
            let before = ix.clone();
            let Ok(fp) = ix.apply_delta(&delta, speed) else {
                prop_assert!(ix == before, "a rejected {delta:?} changed the index");
                continue;
            };
            prop_assert!(ix.feed().services.iter().all(|s| s.days.contains(&true)));
            let parked = ix.feed().stop_times.iter().find(|c| c.departure == Stime(u32::MAX));
            prop_assert!(parked.is_none(), "{delta:?} parked {parked:?} on the clock's last second");
            let (trips, stops) = diff(&before, &ix);
            prop_assert_eq!(&fp, &Footprint { trips }, "trips of {:?}", delta);
            prop_assert_eq!(fp.stops(), stops, "stops of {:?}", delta);
            prop_assert!(delta.is_structural() || fp.is_empty(), "{delta:?} is advisory");
            prop_assert!(ix == FeedIndex::build(ix.feed().clone()), "{delta:?}: edit != rebuild");
            let network = NetworkTables::build(&city.road, &ix, RouterConfig::default());
            prop_assert!(network.is_ok(), "{delta:?} left a malformed feed: {:?}", network.err());
        }
    }
}
