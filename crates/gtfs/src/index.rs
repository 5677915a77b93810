//! `FeedIndex`: the query views the rest of the system uses.
//!
//! The paper consumes GTFS through two operations (§IV-A):
//!
//! * `F_stops ∩ W_i` — which stops fall in a walking isochrone. The index
//!   exposes stop positions as `(Point, u32)` pairs ready for a spatial
//!   index; the intersection itself happens in `staq-road`/`staq-hoptree`.
//! * `F_trips` — "for each bus stop, all the services that pass through it
//!   during `v_i`", and for each such service the subsequent (or preceding)
//!   stops. That view is the trip patterns `staq-transit` prepares from
//!   [`FeedIndex::trip_calls`]: per stop, the patterns calling there, each
//!   with a sorted departure column. The hop trees and the router both
//!   read it, so the index keeps no per-stop copy of the timetable.
//!
//! A streaming [`Delta`] edits the index in place through
//! [`FeedIndex::apply_delta`] in one step: the delta becomes the new call
//! rows of the trips it changes, the rows they replace are read, the pairs
//! that differ are its [`Footprint`], and those rows are written — the
//! feed's `stop_times` and the trip ranges. [`FeedIndex::build`] is that
//! step's helpers applied over every trip, so an edited index and a
//! rebuilt one follow the same rules.

use crate::delta::{append_route, Delta, Footprint, TripRows};
use crate::model::{Feed, RouteId, ServiceId, StopId, StopTime, TripId};
use crate::time::{DayOfWeek, Stime};
use staq_geom::Point;

/// A [`Feed`] with each trip's range of calls and its route and service.
///
/// Construction is O(|stop_times|) on a normalized feed; every query
/// afterwards is a slice or a lookup.
///
/// The index is also *incrementally mutable*: [`FeedIndex::apply_delta`]
/// applies a streaming schedule [`Delta`] by rewriting only the changed
/// trips' call rows — never a full rebuild — and is exact: equality
/// (`PartialEq`) with `FeedIndex::build` over the equivalently mutated feed
/// is test-gated.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedIndex {
    feed: Feed,
    /// Per-trip ranges into `feed.stop_times` (which is `(trip, seq)`-sorted).
    trip_ranges: Vec<(u32, u32)>,
    /// Route of each trip (dense copy for cache-friendly lookups).
    trip_route: Vec<RouteId>,
    /// Service of each trip.
    trip_service: Vec<ServiceId>,
}

impl FeedIndex {
    /// Builds the index, taking ownership of the feed. The feed must be
    /// normalized (sorted stop_times); [`crate::parse`] and `staq-synth`
    /// both guarantee this, and it is re-checked here.
    pub fn build(mut feed: Feed) -> Self {
        if !feed.is_normalized() {
            feed.normalize();
        }
        let mut ix = FeedIndex {
            feed,
            trip_ranges: Vec::new(),
            trip_route: Vec::new(),
            trip_service: Vec::new(),
        };
        ix.extend_to_records();
        derive_trip_ranges(&mut ix.trip_ranges, &ix.feed.stop_times);
        ix
    }

    /// The underlying feed.
    #[inline]
    pub fn feed(&self) -> &Feed {
        &self.feed
    }

    /// Number of stops.
    #[inline]
    pub fn n_stops(&self) -> usize {
        self.feed.stops.len()
    }

    /// Position of a stop.
    #[inline]
    pub fn stop_pos(&self, s: StopId) -> Point {
        self.feed.stops[s.idx()].pos
    }

    /// `(position, raw stop id)` pairs for building spatial indexes.
    pub fn stop_points(&self) -> Vec<(Point, u32)> {
        self.feed.stops.iter().map(|s| (s.pos, s.id.0)).collect()
    }

    /// The ordered calls of `trip` (slice into the canonical stop_times).
    #[inline]
    pub fn trip_calls(&self, trip: TripId) -> &[StopTime] {
        let (a, b) = self.trip_ranges[trip.idx()];
        &self.feed.stop_times[a as usize..b as usize]
    }

    /// Route operated by `trip`.
    #[inline]
    pub fn trip_route(&self, trip: TripId) -> RouteId {
        self.trip_route[trip.idx()]
    }

    /// True when `trip` operates on `day`.
    #[inline]
    pub fn trip_runs_on(&self, trip: TripId, day: DayOfWeek) -> bool {
        self.feed.services[self.trip_service[trip.idx()].idx()].runs_on(day)
    }

    // ------------------------------------------------------------------
    // Incremental mutation: the live-delta path. A delta is lowered to new
    // call rows and one step writes them; equality with a from-scratch
    // `build` over the mutated feed is the test-gated contract.
    // ------------------------------------------------------------------

    /// Applies one streaming [`Delta`] incrementally and returns its
    /// [`Footprint`] so callers can invalidate precisely; `Err` on unknown
    /// ids, a delay of a trip without calls, a delay that shifts a call
    /// past the service clock ([`Stime::checked_plus`]) or invalid route
    /// geometry (the index is unchanged on error).
    ///
    /// `bus_speed_mps` parameterizes the run times of [`Delta::AddRoute`]
    /// (the city's bus speed; unused by the other kinds).
    pub fn apply_delta(&mut self, delta: &Delta, bus_speed_mps: f64) -> Result<Footprint, String> {
        let rows = self.lower(delta, bus_speed_mps)?;
        Ok(self.write_rows(rows))
    }

    /// The new call rows of the trips `delta` changes, ascending by trip
    /// id: a delay shifts the trip's rows, a cancellation empties them, a
    /// route removal empties every trip of the route, an alert changes
    /// none. An added route appends its records to the feed (and nothing
    /// else) and returns its trips' rows. Every error is raised before
    /// anything is mutated.
    fn lower(
        &mut self,
        delta: &Delta,
        bus_speed_mps: f64,
    ) -> Result<Vec<(TripId, Vec<StopTime>)>, String> {
        let known = |trip: TripId| {
            (trip.idx() < self.trip_ranges.len())
                .then_some(trip)
                .ok_or_else(|| format!("unknown trip #{}", trip.0))
        };
        Ok(match delta {
            Delta::TripDelay { trip, delay_secs } => {
                let calls = self.trip_calls(known(*trip)?);
                if calls.is_empty() {
                    return Err(format!("trip #{} has no calls to delay", trip.0));
                }
                let shift = |t: Stime| {
                    t.checked_plus(*delay_secs).ok_or_else(|| {
                        format!("delaying trip #{} overflows the service clock", trip.0)
                    })
                };
                let delay = |c: &StopTime| {
                    Ok(StopTime {
                        arrival: shift(c.arrival)?,
                        departure: shift(c.departure)?,
                        ..*c
                    })
                };
                vec![(*trip, calls.iter().map(delay).collect::<Result<_, String>>()?)]
            }
            Delta::TripCancel { trip } => vec![(known(*trip)?, Vec::new())],
            Delta::RouteRemove { route } => {
                if route.idx() >= self.feed.routes.len() {
                    return Err(format!("unknown route #{}", route.0));
                }
                let trips = (0..self.trip_route.len() as u32).map(TripId);
                trips.filter(|&t| self.trip_route(t) == *route).map(|t| (t, Vec::new())).collect()
            }
            Delta::ServiceAlert { .. } => Vec::new(),
            Delta::AddRoute { stops, headway_s } => {
                append_route(&mut self.feed, stops, *headway_s, bus_speed_mps)?
            }
        })
    }

    /// The one edit step: gives each trip of `rows` (ascending by id) its
    /// new call rows and returns the footprint, the pairs whose rows
    /// differ. Rows that keep their length are written in place; a change
    /// of length re-packs `stop_times` in one pass and re-derives the trip
    /// ranges.
    fn write_rows(&mut self, rows: Vec<(TripId, Vec<StopTime>)>) -> Footprint {
        self.extend_to_records();
        let trips: Vec<TripRows> = rows
            .into_iter()
            .map(|(trip, after)| TripRows { trip, before: self.trip_calls(trip).to_vec(), after })
            .filter(|t| t.before != t.after)
            .collect();
        if trips.iter().all(|t| t.before.len() == t.after.len()) {
            for t in &trips {
                let (a, b) = self.trip_ranges[t.trip.idx()];
                self.feed.stop_times[a as usize..b as usize].copy_from_slice(&t.after);
            }
        } else {
            let old = std::mem::take(&mut self.feed.stop_times);
            let mut changed = trips.iter().peekable();
            for (t, &(a, b)) in self.trip_ranges.iter().enumerate() {
                let calls = match changed.next_if(|c| c.trip.idx() == t) {
                    Some(c) => &c.after[..],
                    None => &old[a as usize..b as usize],
                };
                self.feed.stop_times.extend_from_slice(calls);
            }
            derive_trip_ranges(&mut self.trip_ranges, &self.feed.stop_times);
        }
        Footprint { trips }
    }

    /// Extends the per-trip vectors to the feed's trip count — a no-op
    /// except after [`Delta::AddRoute`] appended records, or from empty in
    /// [`FeedIndex::build`]. A new trip has no calls yet.
    fn extend_to_records(&mut self) {
        let trips = &self.feed.trips;
        self.trip_route.extend(trips[self.trip_route.len()..].iter().map(|t| t.route));
        self.trip_service.extend(trips[self.trip_service.len()..].iter().map(|t| t.service));
        self.trip_ranges.resize(trips.len(), (0, 0));
    }
}

/// Sets each trip's range into `stop_times` (which is `(trip, seq)`-sorted),
/// `(0, 0)` for a trip without calls.
fn derive_trip_ranges(ranges: &mut [(u32, u32)], stop_times: &[StopTime]) {
    ranges.fill((0, 0));
    let mut start = 0;
    for calls in stop_times.chunk_by(|a, b| a.trip == b.trip) {
        let end = start + calls.len() as u32;
        ranges[calls[0].trip.idx()] = (start, end);
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::tests::tiny_feed_text;

    fn index() -> FeedIndex {
        FeedIndex::build(tiny_feed_text().parse().unwrap())
    }

    #[test]
    fn trip_calls_are_ordered() {
        let ix = index();
        let calls = ix.trip_calls(TripId(0));
        assert_eq!(calls.len(), 2);
        assert!(calls[0].seq < calls[1].seq);
        assert_eq!(calls[0].stop, StopId(0));
    }

    #[test]
    fn stop_points_expose_all_stops() {
        let ix = index();
        let pts = ix.stop_points();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].1, 0);
    }

    #[test]
    fn builds_from_unnormalized_feed() {
        let mut feed = tiny_feed_text().parse().unwrap();
        feed.stop_times.reverse();
        let ix = FeedIndex::build(feed);
        assert_eq!(ix.trip_calls(TripId(0)).len(), 2);
        assert!(ix.feed().is_normalized());
    }

    /// A richer index for mutation tests: the tiny feed plus an appended
    /// dynamic route (several trips over fresh stops).
    fn mutable_index() -> FeedIndex {
        let mut ix = index();
        let stops = vec![Point::new(0.0, 0.0), Point::new(900.0, 0.0), Point::new(1800.0, 600.0)];
        ix.apply_delta(&Delta::AddRoute { stops, headway_s: 1800 }, 8.0).unwrap();
        ix
    }

    /// The incremental-mutation contract: after any delta, the index equals
    /// a from-scratch build over its own mutated feed.
    fn assert_matches_rebuild(ix: &FeedIndex) {
        let rebuilt = FeedIndex::build(ix.feed().clone());
        assert_eq!(*ix, rebuilt, "incremental index diverged from rebuild");
    }

    #[test]
    fn append_route_matches_rebuild_and_validates() {
        let mut ix = index();
        let (base_trips, base_stops) = (ix.feed().trips.len(), ix.n_stops());
        let stops = vec![Point::new(0.0, 0.0), Point::new(900.0, 0.0), Point::new(1800.0, 600.0)];
        let fp = ix.apply_delta(&Delta::AddRoute { stops, headway_s: 1800 }, 8.0).unwrap();
        crate::validate::assert_valid(ix.feed());
        assert_matches_rebuild(&ix);
        // Both directions, 6:00–22:00 at the (clamped) headway.
        let n_new_trips = ix.feed().trips.len() - base_trips;
        assert_eq!(n_new_trips, 2 * 32, "32 departures per direction over 6:00-22:00 at 1800s");
        assert_eq!(fp.trips.len(), n_new_trips);
        assert!(fp.trips.iter().all(|t| t.before.is_empty() && t.after.len() == 3));
        assert_eq!(
            fp.stops(),
            (base_stops as u32..ix.n_stops() as u32).map(StopId).collect::<Vec<_>>()
        );
    }

    #[test]
    fn delay_trip_matches_rebuild() {
        let mut ix = mutable_index();
        let trip = TripId(2); // first appended trip
        let rows = ix.trip_calls(trip).to_vec();
        let fp = ix.apply_delta(&Delta::TripDelay { trip, delay_secs: 420 }, 8.0).unwrap();
        assert_eq!(
            fp.trips,
            vec![TripRows { trip, before: rows, after: ix.trip_calls(trip).to_vec() }]
        );
        assert_eq!(fp.stops().len(), 3);
        for (b, a) in fp.trips[0].before.iter().zip(&fp.trips[0].after) {
            assert_eq!(b.departure.plus(420), a.departure);
        }
        assert_matches_rebuild(&ix);
        crate::validate::assert_valid(ix.feed());
    }

    #[test]
    fn cancel_trip_matches_rebuild_and_clears_calls() {
        let mut ix = mutable_index();
        let trip = TripId(3);
        let rows = ix.trip_calls(trip).to_vec();
        let fp = ix.apply_delta(&Delta::TripCancel { trip }, 8.0).unwrap();
        assert_eq!(fp.trips, vec![TripRows { trip, before: rows, after: Vec::new() }]);
        assert_eq!(fp.stops().len(), 3);
        assert!(ix.trip_calls(trip).is_empty());
        assert_matches_rebuild(&ix);
        crate::validate::assert_valid(ix.feed());
        // Cancelling again changes no row.
        assert!(ix.apply_delta(&Delta::TripCancel { trip }, 8.0).unwrap().is_empty());
        assert_matches_rebuild(&ix);
    }

    #[test]
    fn remove_route_cancels_every_trip_and_matches_rebuild() {
        let mut ix = mutable_index();
        let route = ix.feed().routes.last().unwrap().id;
        let fp = ix.apply_delta(&Delta::RouteRemove { route }, 8.0).unwrap();
        let trips: Vec<TripId> =
            ix.feed().trips.iter().filter(|t| t.route == route).map(|t| t.id).collect();
        assert_eq!(fp.trips.iter().map(|t| t.trip).collect::<Vec<_>>(), trips);
        for t in &trips {
            assert!(ix.trip_calls(*t).is_empty());
        }
        assert!(ix.apply_delta(&Delta::RouteRemove { route }, 8.0).unwrap().is_empty());
        // The original trips are untouched.
        assert_eq!(ix.trip_calls(TripId(0)).len(), 2);
        assert_matches_rebuild(&ix);
        crate::validate::assert_valid(ix.feed());
    }

    #[test]
    fn apply_delta_dispatches_and_reports_the_footprint() {
        let mut ix = mutable_index();
        let alert = ix
            .apply_delta(&Delta::ServiceAlert { route: RouteId(0), message: "slow".into() }, 8.0)
            .unwrap();
        assert!(alert.is_empty());
        let still = ix.clone();
        let zero = Delta::TripDelay { trip: TripId(2), delay_secs: 0 };
        assert!(ix.apply_delta(&zero, 8.0).unwrap().is_empty());
        assert_eq!(ix, still, "a zero delay changes nothing");
        let out =
            ix.apply_delta(&Delta::TripDelay { trip: TripId(2), delay_secs: 60 }, 8.0).unwrap();
        assert!(!out.is_empty());
        assert_matches_rebuild(&ix);
    }

    #[test]
    fn mutations_reject_unknown_ids_and_bad_geometry() {
        let mut ix = index();
        for bad in [
            Delta::TripDelay { trip: TripId(99), delay_secs: 60 },
            Delta::TripDelay { trip: TripId(0), delay_secs: u32::MAX - 1 },
            Delta::TripCancel { trip: TripId(99) },
            Delta::RouteRemove { route: RouteId(99) },
            Delta::AddRoute { stops: vec![Point::new(0.0, 0.0)], headway_s: 600 },
            Delta::AddRoute {
                stops: vec![Point::new(0.0, 0.0), Point::new(f64::NAN, 0.0)],
                headway_s: 600,
            },
        ] {
            assert!(ix.apply_delta(&bad, 8.0).is_err(), "{bad:?} must be rejected");
        }
        // Failed mutations leave the index untouched.
        assert_eq!(ix, index());
    }
}
