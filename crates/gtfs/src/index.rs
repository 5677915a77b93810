//! `FeedIndex`: the query views the rest of the system uses.
//!
//! The paper consumes GTFS through two operations (§IV-A):
//!
//! * `F_stops ∩ W_i` — which stops fall in a walking isochrone. The index
//!   exposes stop positions as `(Point, u32)` pairs ready for a spatial
//!   index; the intersection itself happens in `staq-road`/`staq-hoptree`.
//! * `F_trips` — "for each bus stop, all the services that pass through it
//!   during `v_i`", and for each such service the subsequent (or preceding)
//!   stops. [`FeedIndex::departures_at`] and [`FeedIndex::trip_calls`]
//!   provide exactly these.

use crate::delta::{Delta, DeltaOutcome};
use crate::model::{
    Feed, Route, RouteId, RouteType, Service, ServiceId, Stop, StopId, StopTime, Trip, TripId,
};
use crate::time::{DayOfWeek, Stime, TimeInterval};
use staq_geom::Point;

/// A departure event at a stop: `trip` leaves at `departure`, being call
/// number `seq` of that trip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Departure {
    pub trip: TripId,
    pub departure: Stime,
    pub seq: u32,
}

/// Precomputed inverted indexes over a [`Feed`].
///
/// Construction is O(|stop_times| log |stop_times|); all queries afterwards
/// are binary searches plus slice scans.
///
/// The index is also *incrementally mutable*: [`FeedIndex::apply_delta`]
/// applies a streaming schedule [`Delta`] by patching only the touched
/// ranges and departure rows — never a full rebuild — and is exact:
/// equality (`PartialEq`) with `FeedIndex::build` over the equivalently
/// mutated feed is test-gated.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedIndex {
    feed: Feed,
    /// Per-trip ranges into `feed.stop_times` (which is `(trip, seq)`-sorted).
    trip_ranges: Vec<(u32, u32)>,
    /// Departures at each stop, sorted by time.
    stop_departures: Vec<Vec<Departure>>,
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
        let n_trips = feed.trips.len();
        let mut trip_ranges = vec![(0u32, 0u32); n_trips];
        let mut i = 0usize;
        while i < feed.stop_times.len() {
            let trip = feed.stop_times[i].trip;
            let start = i;
            while i < feed.stop_times.len() && feed.stop_times[i].trip == trip {
                i += 1;
            }
            trip_ranges[trip.idx()] = (start as u32, i as u32);
        }

        let mut stop_departures: Vec<Vec<Departure>> = vec![Vec::new(); feed.stops.len()];
        for st in &feed.stop_times {
            stop_departures[st.stop.idx()].push(Departure {
                trip: st.trip,
                departure: st.departure,
                seq: st.seq,
            });
        }
        for deps in &mut stop_departures {
            // Total order: the `(trip, seq)` tie-break matches the stable
            // sort over canonical stop_time order this used to be, and makes
            // incremental departure edits land at the same slot a rebuild
            // would.
            deps.sort_by_key(|d| (d.departure, d.trip, d.seq));
        }

        let trip_route = feed.trips.iter().map(|t| t.route).collect();
        let trip_service = feed.trips.iter().map(|t| t.service).collect();
        FeedIndex { feed, trip_ranges, stop_departures, trip_route, trip_service }
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

    /// Departures from `stop` within the interval `v`, filtered to services
    /// operating on `v.day` — the paper's `F_trips` retrieval.
    pub fn departures_at<'a>(
        &'a self,
        stop: StopId,
        v: &'a TimeInterval,
    ) -> impl Iterator<Item = Departure> + 'a {
        let deps = &self.stop_departures[stop.idx()];
        let lo = deps.partition_point(|d| d.departure < v.start);
        deps[lo..]
            .iter()
            .take_while(move |d| d.departure < v.end)
            .filter(move |d| self.trip_runs_on(d.trip, v.day))
            .copied()
    }

    /// Mean scheduled headway (seconds between consecutive departures) at
    /// `stop` within `v`; `None` with fewer than two departures.
    pub fn mean_headway(&self, stop: StopId, v: &TimeInterval) -> Option<f64> {
        let times: Vec<Stime> = self.departures_at(stop, v).map(|d| d.departure).collect();
        if times.len() < 2 {
            return None;
        }
        let total: u32 = times.windows(2).map(|w| w[0].until(w[1])).sum();
        Some(total as f64 / (times.len() - 1) as f64)
    }

    // ------------------------------------------------------------------
    // Incremental mutation: the live-delta path. Every method patches the
    // feed *and* the inverted indexes in place; equality with a
    // from-scratch `build` over the mutated feed is the test-gated
    // contract.
    // ------------------------------------------------------------------

    /// Applies one streaming [`Delta`] incrementally. Returns what was
    /// touched so callers can invalidate precisely; `Err` on unknown ids or
    /// invalid route geometry (the index is unchanged on error).
    ///
    /// `bus_speed_mps` parameterizes the run times of [`Delta::AddRoute`]
    /// (the city's bus speed; unused by the other kinds).
    pub fn apply_delta(
        &mut self,
        delta: &Delta,
        bus_speed_mps: f64,
    ) -> Result<DeltaOutcome, String> {
        let touched_stops = match delta {
            Delta::TripDelay { trip, delay_secs } => self.delay_trip(*trip, *delay_secs)?,
            Delta::TripCancel { trip } => self.cancel_trip(*trip)?,
            Delta::RouteRemove { route } => self.remove_route(*route)?,
            Delta::ServiceAlert { .. } => {
                return Ok(DeltaOutcome { touched_stops: Vec::new(), structural: false })
            }
            Delta::AddRoute { stops, headway_s } => {
                self.append_route(stops, *headway_s, bus_speed_mps)?
            }
        };
        Ok(DeltaOutcome { touched_stops, structural: true })
    }

    /// Shifts every call of `trip` `delay_secs` later (uniform holding
    /// delay). Returns the touched stops.
    fn delay_trip(&mut self, trip: TripId, delay_secs: u32) -> Result<Vec<StopId>, String> {
        let (a, b) =
            *self.trip_ranges.get(trip.idx()).ok_or_else(|| format!("unknown trip #{}", trip.0))?;
        if a == b {
            return Err(format!("trip #{} has no calls to delay", trip.0));
        }
        let mut touched = Vec::with_capacity((b - a) as usize);
        for i in a as usize..b as usize {
            let st = self.feed.stop_times[i];
            // Re-slot the departure in its stop's sorted row: remove the old
            // event, insert the shifted one at its total-order position.
            let row = &mut self.stop_departures[st.stop.idx()];
            let pos = row
                .iter()
                .position(|d| d.trip == trip && d.seq == st.seq)
                .expect("departure rows track the feed");
            row.remove(pos);
            let nd = Departure { trip, departure: st.departure.plus(delay_secs), seq: st.seq };
            let at = row.partition_point(|d| {
                (d.departure, d.trip, d.seq) < (nd.departure, nd.trip, nd.seq)
            });
            row.insert(at, nd);
            let stm = &mut self.feed.stop_times[i];
            stm.arrival = stm.arrival.plus(delay_secs);
            stm.departure = stm.departure.plus(delay_secs);
            touched.push(st.stop);
        }
        Ok(touched)
    }

    /// Cancels `trip`: its calls are removed from the feed and every
    /// departure row. A trip that already makes no calls is a no-op (so
    /// replaying a delta log is idempotent per entry). The trip record
    /// itself remains — dense ids stay stable.
    fn cancel_trip(&mut self, trip: TripId) -> Result<Vec<StopId>, String> {
        let (a, b) =
            *self.trip_ranges.get(trip.idx()).ok_or_else(|| format!("unknown trip #{}", trip.0))?;
        if a == b {
            return Ok(Vec::new());
        }
        let mut touched = Vec::with_capacity((b - a) as usize);
        for i in a as usize..b as usize {
            let st = self.feed.stop_times[i];
            let row = &mut self.stop_departures[st.stop.idx()];
            let pos = row
                .iter()
                .position(|d| d.trip == trip && d.seq == st.seq)
                .expect("departure rows track the feed");
            row.remove(pos);
            touched.push(st.stop);
        }
        self.feed.stop_times.drain(a as usize..b as usize);
        let removed = b - a;
        self.trip_ranges[trip.idx()] = (0, 0);
        for r in &mut self.trip_ranges {
            if r.0 >= b {
                r.0 -= removed;
                r.1 -= removed;
            }
        }
        Ok(touched)
    }

    /// Cancels every trip of `route` in one pass: one retain over
    /// `stop_times` and over each touched departure row, then one walk of
    /// the trip ranges. Equal to cancelling the trips one by one in id
    /// order, touched-stop list included. The route (and its
    /// trips/services) stay as records; only calls disappear.
    fn remove_route(&mut self, route: RouteId) -> Result<Vec<StopId>, String> {
        if route.idx() >= self.feed.routes.len() {
            return Err(format!("unknown route #{}", route.0));
        }
        let removed: Vec<bool> = self.trip_route.iter().map(|&r| r == route).collect();
        let mut touched = Vec::new();
        for (t, _) in removed.iter().enumerate().filter(|(_, &gone)| gone) {
            touched.extend(self.trip_calls(TripId(t as u32)).iter().map(|st| st.stop));
        }
        if touched.is_empty() {
            return Ok(touched);
        }
        self.feed.stop_times.retain(|st| !removed[st.trip.idx()]);
        let mut rows = touched.clone();
        rows.sort_unstable();
        rows.dedup();
        for stop in rows {
            self.stop_departures[stop.idx()].retain(|d| !removed[d.trip.idx()]);
        }
        // `stop_times` is trip-sorted, so ranges ascend with the trip id:
        // each kept range moves down by the calls removed before it.
        let mut shift = 0;
        for (r, &gone) in self.trip_ranges.iter_mut().zip(&removed) {
            if gone {
                shift += r.1 - r.0;
                *r = (0, 0);
            } else if r.0 != r.1 {
                r.0 -= shift;
                r.1 -= shift;
            }
        }
        Ok(touched)
    }

    /// Appends a new weekday bus route calling at `stops_at` in order with
    /// the given peak headway, extending the index incrementally: new trips
    /// get fresh (maximal) ids, so their stop_times append in canonical
    /// order and no existing departure row is touched.
    fn append_route(
        &mut self,
        stops_at: &[Point],
        peak_headway_s: u32,
        bus_speed_mps: f64,
    ) -> Result<Vec<StopId>, String> {
        if stops_at.iter().any(|p| !p.is_finite()) {
            return Err("route stops must be finite".into());
        }
        // Validate geometry (stop count, zero-length hops) before touching
        // the feed, so a rejected route leaves the index unchanged.
        let tt = crate::delta::dyn_route_timetable(stops_at, peak_headway_s, bus_speed_mps)?;
        let feed = &mut self.feed;
        let first_new_stop = feed.stops.len();
        let first_new_trip = feed.trips.len();
        let first_new_st = feed.stop_times.len();

        // New stops at the given points.
        let mut new_stops: Vec<StopId> = Vec::with_capacity(stops_at.len());
        for (k, p) in stops_at.iter().enumerate() {
            let id = StopId(feed.stops.len() as u32);
            feed.stops.push(Stop {
                id,
                gtfs_id: format!("DYN_S{}_{}", feed.routes.len(), k),
                name: format!("Dynamic stop {k}"),
                pos: *p,
            });
            new_stops.push(id);
        }

        // Weekday service dedicated to dynamic routes.
        let svc = ServiceId(feed.services.len() as u32);
        feed.services.push(Service {
            id: svc,
            gtfs_id: format!("DYN_WK{}", svc.0),
            days: [true, true, true, true, true, false, false],
        });
        let route = RouteId(feed.routes.len() as u32);
        feed.routes.push(Route {
            id: route,
            gtfs_id: format!("DYN_R{}", route.0),
            agency: feed.agencies[0].id,
            short_name: format!("D{}", route.0),
            route_type: RouteType::Bus,
        });

        // All-day service at the peak headway (scenario routes are
        // what-ifs; a flat headway keeps the experiment interpretable),
        // on the schedule convention of `dyn_route_timetable`.
        for dir in 0..2usize {
            let ordered: Vec<StopId> = if dir == 0 {
                new_stops.clone()
            } else {
                new_stops.iter().rev().copied().collect()
            };
            for (k, &start) in tt.starts.iter().enumerate() {
                let trip = TripId(feed.trips.len() as u32);
                feed.trips.push(Trip {
                    id: trip,
                    gtfs_id: format!("DYN_T{}_{dir}_{k}", route.0),
                    route,
                    service: svc,
                });
                for (i, &stop) in ordered.iter().enumerate() {
                    let (arr, dep) = tt.offsets[dir][i];
                    feed.stop_times.push(StopTime {
                        trip,
                        stop,
                        arrival: Stime(start + arr),
                        departure: Stime(start + dep),
                        seq: i as u32,
                    });
                }
            }
        }

        // Incremental index extension. New trips carry maximal ids, so the
        // appended stop_times keep the feed `(trip, seq)`-normalized and
        // their ranges scan off the tail.
        self.trip_route.extend(feed.trips[first_new_trip..].iter().map(|t| t.route));
        self.trip_service.extend(feed.trips[first_new_trip..].iter().map(|t| t.service));
        self.trip_ranges.resize(feed.trips.len(), (0, 0));
        let mut i = first_new_st;
        while i < feed.stop_times.len() {
            let trip = feed.stop_times[i].trip;
            let start = i;
            while i < feed.stop_times.len() && feed.stop_times[i].trip == trip {
                i += 1;
            }
            self.trip_ranges[trip.idx()] = (start as u32, i as u32);
        }
        // New trips call only at new stops: existing departure rows are
        // untouched, the fresh rows sort like a rebuild would.
        self.stop_departures.resize(feed.stops.len(), Vec::new());
        for st in &feed.stop_times[first_new_st..] {
            self.stop_departures[st.stop.idx()].push(Departure {
                trip: st.trip,
                departure: st.departure,
                seq: st.seq,
            });
        }
        for row in &mut self.stop_departures[first_new_stop..] {
            row.sort_by_key(|d| (d.departure, d.trip, d.seq));
        }
        debug_assert!(self.feed.is_normalized());
        Ok(new_stops)
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
    fn departures_filtered_by_interval_and_day() {
        let ix = index();
        let am = TimeInterval::am_peak();
        let deps: Vec<_> = ix.departures_at(StopId(0), &am).collect();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].departure, Stime::hms(7, 0, 30));

        // Sunday: weekday-only service doesn't run.
        let sunday = TimeInterval::new(Stime::hours(7), Stime::hours(9), DayOfWeek::Sunday, "sun");
        assert_eq!(ix.departures_at(StopId(0), &sunday).count(), 0);

        // Window after the departure.
        let late =
            TimeInterval::new(Stime::hours(10), Stime::hours(12), DayOfWeek::Tuesday, "late");
        assert_eq!(ix.departures_at(StopId(0), &late).count(), 0);
    }

    #[test]
    fn mean_headway_requires_two_departures() {
        let ix = index();
        assert!(ix.mean_headway(StopId(0), &TimeInterval::am_peak()).is_none());
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
        let base_trips = index().feed().trips.len();
        let ix = mutable_index();
        crate::validate::assert_valid(ix.feed());
        assert_matches_rebuild(&ix);
        // Both directions, 6:00–22:00 at the (clamped) headway.
        let n_new_trips = ix.feed().trips.len() - base_trips;
        assert_eq!(n_new_trips, 2 * 32, "32 departures per direction over 6:00-22:00 at 1800s");
    }

    #[test]
    fn delay_trip_matches_rebuild() {
        let mut ix = mutable_index();
        let trip = TripId(2); // first appended trip
        let before: Vec<Stime> = ix.trip_calls(trip).iter().map(|c| c.departure).collect();
        let out = ix.apply_delta(&Delta::TripDelay { trip, delay_secs: 420 }, 8.0).unwrap();
        assert_eq!(out.touched_stops.len(), 3);
        let after: Vec<Stime> = ix.trip_calls(trip).iter().map(|c| c.departure).collect();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.plus(420), *a);
        }
        assert_matches_rebuild(&ix);
        crate::validate::assert_valid(ix.feed());
    }

    #[test]
    fn cancel_trip_matches_rebuild_and_clears_calls() {
        let mut ix = mutable_index();
        let trip = TripId(3);
        let stop = ix.trip_calls(trip)[0].stop;
        let deps_before = ix.stop_departures[stop.idx()].len();
        let out = ix.apply_delta(&Delta::TripCancel { trip }, 8.0).unwrap();
        assert_eq!(out.touched_stops.len(), 3);
        assert!(ix.trip_calls(trip).is_empty());
        assert_eq!(ix.stop_departures[stop.idx()].len(), deps_before - 1);
        assert_matches_rebuild(&ix);
        crate::validate::assert_valid(ix.feed());
        // Cancelling again is a structural no-op.
        assert!(ix.apply_delta(&Delta::TripCancel { trip }, 8.0).unwrap().touched_stops.is_empty());
        assert_matches_rebuild(&ix);
    }

    #[test]
    fn remove_route_cancels_every_trip_and_matches_rebuild() {
        let mut ix = mutable_index();
        let route = ix.feed().routes.last().unwrap().id;
        ix.apply_delta(&Delta::RouteRemove { route }, 8.0).unwrap();
        for t in ix.feed().trips.iter().filter(|t| t.route == route) {
            assert!(ix.trip_calls(t.id).is_empty());
        }
        // The original trips are untouched.
        assert_eq!(ix.trip_calls(TripId(0)).len(), 2);
        assert_matches_rebuild(&ix);
        crate::validate::assert_valid(ix.feed());
    }

    #[test]
    fn apply_delta_dispatches_and_reports_structure() {
        let mut ix = mutable_index();
        let alert = ix
            .apply_delta(&Delta::ServiceAlert { route: RouteId(0), message: "slow".into() }, 8.0)
            .unwrap();
        assert!(!alert.structural);
        assert!(alert.touched_stops.is_empty());
        let out =
            ix.apply_delta(&Delta::TripDelay { trip: TripId(2), delay_secs: 60 }, 8.0).unwrap();
        assert!(out.structural);
        assert!(!out.touched_stops.is_empty());
        assert_matches_rebuild(&ix);
    }

    #[test]
    fn mutations_reject_unknown_ids_and_bad_geometry() {
        let mut ix = index();
        for bad in [
            Delta::TripDelay { trip: TripId(99), delay_secs: 60 },
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
