//! A delta's footprint, checked by value rather than by rule: after every
//! delta of a random sequence, the [`Footprint`] `FeedIndex::apply_delta`
//! returns must equal a field diff of the index cloned before it — exactly
//! the trips whose call rows differ, with both rows, and through
//! `stops()` exactly the stops whose calls differ. The hop-tree store
//! edited with those stops must then equal a fresh build, tree for tree.

use proptest::prelude::*;
use staq_geom::Point;
use staq_gtfs::model::RouteId;
use staq_gtfs::{Delta, FeedIndex, Footprint, Stime, StopId, StopTime, TimeInterval};
use staq_gtfs::{TripId, TripRows};
use staq_hoptree::HopTreeStore;
use staq_road::IsochroneParams;
use staq_synth::{City, CityConfig, ZoneId};
use staq_transit::{NetworkTables, RouterConfig};
use std::sync::Arc;

/// The trips the delays and cancels draw from: few enough that a
/// sequence repeats cancels and delays cancelled trips.
const TRIP_POOL: u32 = 6;

/// Every stop's calls over `0..n_stops`, in `stop_times` order (empty
/// past `ix`'s stops).
fn stop_calls(ix: &FeedIndex, n_stops: usize) -> Vec<Vec<StopTime>> {
    let mut calls = vec![Vec::new(); n_stops];
    for c in &ix.feed().stop_times {
        calls[c.stop.idx()].push(*c);
    }
    calls
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
    let (b, a) = (stop_calls(before, n), stop_calls(after, n));
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

/// The store's trees, zone by zone.
fn trees(store: &HopTreeStore) -> Vec<(ZoneId, staq_hoptree::HopTree, staq_hoptree::HopTree)> {
    let zones = (0..store.n_zones() as u32).map(ZoneId);
    zones.map(|z| (z, store.outbound(z).clone(), store.inbound(z).clone())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The store edited by `rebuild_stops` with each footprint's stops
    /// rests on the rule that only those stops' hops can change; a
    /// `Footprint::stops` that read only the `after` rows would miss every
    /// stop a cancel or a removal empties, and this comparison fails.
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
        let mut city = City::generate(&CityConfig::tiny(42));
        let (side, speed) = (city.config.side_m, city.config.bus_speed_mps);
        let (v, params) = (TimeInterval::am_peak(), IsochroneParams::default());
        let mut store = HopTreeStore::build(&city, &v, &params);
        for op in ops {
            let ix = &mut city.feed;
            let delta = delta(ix, side, op);
            let before = ix.clone();
            let Ok(fp) = ix.apply_delta(&delta, speed) else {
                prop_assert!(*ix == before, "a rejected {delta:?} changed the index");
                continue;
            };
            prop_assert!(ix.feed().services.iter().all(|s| s.days.contains(&true)));
            let parked = ix.feed().stop_times.iter().find(|c| c.departure == Stime(u32::MAX));
            prop_assert!(parked.is_none(), "{delta:?} parked {parked:?} on the clock's last second");
            let (trips, stops) = diff(&before, ix);
            prop_assert_eq!(&fp, &Footprint { trips }, "trips of {:?}", delta);
            prop_assert_eq!(fp.stops(), stops, "stops of {:?}", delta);
            prop_assert!(delta.is_structural() || fp.is_empty(), "{delta:?} is advisory");
            prop_assert!(*ix == FeedIndex::build(ix.feed().clone()), "{delta:?}: edit != rebuild");
            let network = NetworkTables::build(&city.road, &city.feed, RouterConfig::default());
            prop_assert!(network.is_ok(), "{delta:?} left a malformed feed: {:?}", network.err());
            let network = Arc::new(network.unwrap());
            store.rebuild_stops(&network.view(&city.road, &city.feed), &fp.stops());
            let fresh = HopTreeStore::build(&city, &v, &params);
            prop_assert_eq!(trees(&store), trees(&fresh), "hop trees after {:?}", delta);
        }
    }
}
