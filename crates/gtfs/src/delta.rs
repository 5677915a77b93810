//! Streaming schedule deltas — the GTFS-RT-shaped mutations the live
//! update path ([`crate::FeedIndex::apply_delta`]) and the what-if overlay
//! engine share.
//!
//! A [`Delta`] is one self-contained edit to the transit world. The kinds
//! mirror the real-time feeds agencies publish (trip delays, cancellations,
//! detour-level route removals, advisory alerts) plus the repo's original
//! scenario edit — adding a bus route — recast as a delta so every edit
//! flows through one path.

use crate::model::{RouteId, StopId, TripId};
use serde::{Deserialize, Serialize};
use staq_geom::Point;

/// One schedule edit, applicable incrementally to a [`crate::FeedIndex`]
/// (mutating the live world) or overlaid copy-on-write onto a prepared
/// transit network (evaluating a counterfactual without mutating anything).
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
    /// True when the delta changes schedule structure (and therefore
    /// invalidates routing artifacts); advisory alerts do not.
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

/// The synthetic timetable convention every dynamic route follows, shared
/// by the feed-mutating path ([`crate::FeedIndex::apply_delta`]) and the
/// copy-on-write network overlay so both produce the *same* schedule:
/// weekday service, departures 6:00–22:00 at the (≥120 s) headway, 15 s
/// dwell at every stop but the last, run times from stop geometry at
/// `1.25 × crow-flies / bus_speed` (min 30 s per hop).
#[derive(Debug, Clone, PartialEq)]
pub struct DynTimetable {
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
pub fn dyn_route_timetable(
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

/// What applying a delta touched — the inputs downstream cache invalidation
/// needs to stay *precise* (only zones whose walkshed reaches a touched
/// stop get their hop trees rebuilt).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeltaOutcome {
    /// Every stop whose departure board changed (call stops of
    /// delayed/cancelled trips, stops of an added route). Empty for
    /// advisory deltas.
    pub touched_stops: Vec<StopId>,
    /// False only for advisory deltas: nothing structural changed.
    pub structural: bool,
}
