//! Streaming schedule deltas — the GTFS-RT-shaped mutations applied by
//! [`crate::FeedIndex::apply_delta`], the one place that decides what a
//! delta means: a commit applies them to the live feed, a what-if scenario
//! to a copy of it.
//!
//! A [`Delta`] is one self-contained edit to the transit world. The kinds
//! mirror the real-time feeds agencies publish (trip delays, cancellations,
//! detour-level route removals, advisory alerts) plus the repo's original
//! scenario edit — adding a bus route — recast as a delta so every edit
//! flows through one path.
//!
//! Every delta means the same thing: new call rows for the trips it
//! changes. A delay is the trip's rows shifted later, a cancellation an
//! empty row, a route removal an empty row for each of its trips, an alert
//! no row at all, and an added route the rows of its new trips (after
//! `append_route` appends their records). Its [`Footprint`] is the diff
//! of those rows against the ones they replace: the trips whose rows
//! changed, each with both rows. It is the one answer to "what did this
//! edit touch"; consumers derive what they need from it (`stops()` for
//! the hop-tree store, `is_empty()` for whether anything changed at all)
//! instead of keeping their own lists.

use crate::model::{
    Feed, Route, RouteId, RouteType, Service, ServiceId, Stop, StopId, StopTime, Trip, TripId,
};
use crate::time::Stime;
use serde::{Deserialize, Serialize};
use staq_geom::Point;

/// One schedule edit, applied incrementally to a [`crate::FeedIndex`]: the
/// live one (a commit) or a copy (a what-if scenario).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Delta {
    /// Every call of `trip` shifts `delay_secs` later (a uniform holding
    /// delay, the common GTFS-RT `TripUpdate` shape). Refused when a
    /// shifted time would run off the service clock.
    TripDelay { trip: TripId, delay_secs: u32 },
    /// `trip` is cancelled: it makes no calls today or any other day.
    TripCancel { trip: TripId },
    /// Every trip of `route` is cancelled (the route record remains so
    /// dense ids stay stable).
    RouteRemove { route: RouteId },
    /// Advisory only: no schedule structure changes, nothing to invalidate.
    ServiceAlert { route: RouteId, message: String },
    /// A new weekday bus route calling at `stops` in order with the given
    /// peak headway — the bus-route scenario edit, as a delta.
    AddRoute { stops: Vec<Point>, headway_s: u32 },
}

impl Delta {
    /// False only for an advisory alert, which never changes a call row:
    /// the cheap check that lets an alert skip applying anything. Whether
    /// a structural kind changed anything is its [`Footprint`]'s to say.
    pub fn is_structural(&self) -> bool {
        !matches!(self, Delta::ServiceAlert { .. })
    }
}

/// Appends the records of a [`Delta::AddRoute`] to `feed` — a stop at each
/// of `points`, a weekday service, the route and its trips — and returns
/// the call rows of the new trips, ascending by id.
///
/// Every dynamic route follows one synthetic timetable convention: weekday
/// service, departures 6:00–22:00 at the (≥120 s) headway in each
/// direction (direction 1 runs the stops reversed), 15 s dwell at every
/// stop but the last, run times from stop geometry at
/// `1.25 × crow-flies / bus_speed` (min 30 s per hop). A headway longer
/// than the day gives one trip per direction.
///
/// Errors before `feed` is touched, matching
/// [`crate::FeedIndex::apply_delta`]'s contract of rejecting bad input
/// instead of emitting a degenerate route: on a non-finite point, fewer
/// than two stops (no hop to run), a zero-length hop (two consecutive
/// stops at the same position), or run times that overflow the service
/// clock (a stop absurdly far from the others).
pub(crate) fn append_route(
    feed: &mut Feed,
    points: &[Point],
    headway_s: u32,
    bus_speed_mps: f64,
) -> Result<Vec<(TripId, Vec<StopTime>)>, String> {
    if points.iter().any(|p| !p.is_finite()) {
        return Err("route stops must be finite".into());
    }
    if points.len() < 2 {
        return Err("a route needs at least two stops".into());
    }
    if points.windows(2).any(|w| w[0].dist(&w[1]) == 0.0) {
        return Err("route has a zero-length hop (consecutive stops coincide)".into());
    }
    let mut starts = Vec::new();
    let mut next = Some(6 * 3600u32);
    while let Some(t) = next.filter(|&t| t < 22 * 3600) {
        starts.push(t);
        next = t.checked_add(headway_s.max(120));
    }
    // Each trip's `(arrival, departure)` times in travel order over hops
    // with the given run times; `None` when a time overflows.
    let timetable = |runs: Vec<u32>| -> Option<Vec<Vec<(Stime, Stime)>>> {
        let mut offsets = Vec::with_capacity(runs.len() + 1);
        let mut arr = 0u32;
        for run in runs {
            let dep = arr.checked_add(15)?;
            offsets.push((arr, dep));
            arr = dep.checked_add(run)?;
        }
        offsets.push((arr, arr));
        let at = |t: u32, offset: u32| Stime(t).checked_plus(offset);
        starts
            .iter()
            .map(|&t| offsets.iter().map(|&(a, d)| Some((at(t, a)?, at(t, d)?))).collect())
            .collect()
    };
    let runs: Vec<u32> = points
        .windows(2)
        .map(|w| ((w[0].dist(&w[1]) * 1.25 / bus_speed_mps).round() as u32).max(30))
        .collect();
    let back = runs.iter().rev().copied().collect();
    let (Some(fwd), Some(back)) = (timetable(runs), timetable(back)) else {
        return Err("route run times overflow the service clock".into());
    };

    let (n, first_stop) = (points.len(), feed.stops.len());
    let route = RouteId(feed.routes.len() as u32);
    for (k, p) in points.iter().enumerate() {
        feed.stops.push(Stop {
            id: StopId((first_stop + k) as u32),
            gtfs_id: format!("DYN_S{}_{k}", route.0),
            name: format!("Dynamic stop {k}"),
            pos: *p,
        });
    }
    let service = ServiceId(feed.services.len() as u32);
    feed.services.push(Service {
        id: service,
        gtfs_id: format!("DYN_WK{}", service.0),
        days: [true, true, true, true, true, false, false],
    });
    feed.routes.push(Route {
        id: route,
        gtfs_id: format!("DYN_R{}", route.0),
        agency: feed.agencies[0].id,
        short_name: format!("D{}", route.0),
        route_type: RouteType::Bus,
    });
    let mut rows = Vec::new();
    for (dir, trips) in [fwd, back].into_iter().enumerate() {
        for (k, times) in trips.into_iter().enumerate() {
            let trip = TripId(feed.trips.len() as u32);
            feed.trips.push(Trip {
                id: trip,
                gtfs_id: format!("DYN_T{}_{dir}_{k}", route.0),
                route,
                service,
            });
            let calls = times.into_iter().enumerate().map(|(i, (arrival, departure))| {
                let stop = StopId((first_stop + if dir == 0 { i } else { n - 1 - i }) as u32);
                StopTime { trip, stop, arrival, departure, seq: i as u32 }
            });
            rows.push((trip, calls.collect()));
        }
    }
    Ok(rows)
}

/// What a delta changed, by value: every trip whose call rows differ,
/// with its rows on both sides of the edit.
/// [`crate::FeedIndex::apply_delta`] builds it in one place by pairing the
/// new rows a delta lowers to with the rows they replace (empty for an
/// added trip) and keeping the pairs that differ, so no edit has to say
/// what it touched. An alert, a repeated cancel or removal and a zero
/// delay change no row: their footprint is empty.
#[derive(Debug, Clone, PartialEq)]
pub struct Footprint {
    /// The changed trips, ascending by id.
    pub trips: Vec<TripRows>,
}

/// One changed trip's call rows, in call order.
#[derive(Debug, Clone, PartialEq)]
pub struct TripRows {
    pub trip: TripId,
    /// Rows before the delta; empty for a trip it added.
    pub before: Vec<StopTime>,
    /// Rows after the delta; empty for a trip it cancelled.
    pub after: Vec<StopTime>,
}

impl Footprint {
    /// True when the delta changed no call row.
    pub fn is_empty(&self) -> bool {
        self.trips.is_empty()
    }

    /// The stops of a changed call row, before or after the edit, sorted
    /// and deduplicated: every stop at which the trips calling there, or
    /// their times, changed.
    pub fn stops(&self) -> Vec<StopId> {
        let mut stops: Vec<StopId> = self
            .trips
            .iter()
            .flat_map(|t| t.before.iter().chain(&t.after))
            .map(|c| c.stop)
            .collect();
        stops.sort_unstable();
        stops.dedup();
        stops
    }
}
