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
//! Applying a delta yields its [`Footprint`]: the trips whose call rows
//! changed, each with its rows before and after. It is the one answer to
//! "what did this edit touch"; consumers derive what they need from it
//! (`stops()` for the hop-tree store, `is_empty()` for whether anything
//! changed at all) instead of keeping their own lists.

use crate::model::{RouteId, StopId, StopTime, TripId};
use serde::{Deserialize, Serialize};
use staq_geom::Point;

/// One schedule edit, applied incrementally to a [`crate::FeedIndex`]: the
/// live one (a commit) or a copy (a what-if scenario).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Delta {
    /// Every call of `trip` shifts `delay_secs` later (a uniform holding
    /// delay, the common GTFS-RT `TripUpdate` shape).
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

    /// Short label for metrics/log lines.
    pub fn kind(&self) -> &'static str {
        match self {
            Delta::TripDelay { .. } => "trip_delay",
            Delta::TripCancel { .. } => "trip_cancel",
            Delta::RouteRemove { .. } => "route_remove",
            Delta::ServiceAlert { .. } => "service_alert",
            Delta::AddRoute { .. } => "add_route",
        }
    }
}

/// The synthetic timetable convention every dynamic route
/// ([`Delta::AddRoute`]) follows: weekday service, departures 6:00–22:00
/// at the (≥120 s) headway, 15 s dwell at every stop but the last, run
/// times from stop geometry at `1.25 × crow-flies / bus_speed` (min 30 s
/// per hop).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DynTimetable {
    /// Trip start times (seconds since midnight), shared by both directions.
    pub starts: Vec<u32>,
    /// Per-direction `(arrival, departure)` offsets from the trip start, in
    /// travel order (direction 1 runs the stops reversed).
    pub offsets: [Vec<(u32, u32)>; 2],
}

/// Computes the [`DynTimetable`] for a dynamic route calling at `stops`.
///
/// Errors on degenerate geometry — fewer than two stops (no hop to run)
/// or a zero-length hop (two consecutive stops at the same position) —
/// matching [`crate::FeedIndex::apply_delta`]'s contract of rejecting bad
/// input with an error instead of emitting a degenerate route.
pub(crate) fn dyn_route_timetable(
    stops: &[Point],
    headway_s: u32,
    bus_speed_mps: f64,
) -> Result<DynTimetable, String> {
    if stops.len() < 2 {
        return Err("a route needs at least two stops".into());
    }
    if stops.windows(2).any(|w| w[0].dist(&w[1]) == 0.0) {
        return Err("route has a zero-length hop (consecutive stops coincide)".into());
    }
    let runtimes: Vec<u32> = stops
        .windows(2)
        .map(|w| ((w[0].dist(&w[1]) * 1.25 / bus_speed_mps).round() as u32).max(30))
        .collect();
    let offsets = |runs: &[u32]| -> Vec<(u32, u32)> {
        let n = stops.len();
        let mut out = Vec::with_capacity(n);
        let mut clock = 0u32;
        for (i, _) in stops.iter().enumerate() {
            let arr = clock;
            let dep = if i + 1 < n { arr + 15 } else { arr };
            out.push((arr, dep));
            if i < runs.len() {
                clock = dep + runs[i];
            }
        }
        out
    };
    let fwd = offsets(&runtimes);
    let rev_runs: Vec<u32> = runtimes.iter().rev().copied().collect();
    let rev = offsets(&rev_runs);
    let mut starts = Vec::new();
    let mut t = 6 * 3600u32;
    while t < 22 * 3600 {
        starts.push(t);
        t += headway_s.max(120);
    }
    Ok(DynTimetable { starts, offsets: [fwd, rev] })
}

/// What a delta changed, by value: every trip whose call rows differ,
/// with its rows on both sides of the edit.
/// [`crate::FeedIndex::apply_delta`] builds it in one place by copying the
/// rows of the trips the delta names (and of any trip it appends) before
/// and after the mutation and keeping the pairs that differ, so no mutator
/// has to say what it touched. An alert, a repeated cancel or removal and
/// a zero delay change no row: their footprint is empty.
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

    /// The stops whose departure rows changed: every stop of a changed
    /// call row, sorted and deduplicated.
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
