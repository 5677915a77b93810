//! Hop-tree generation (paper §IV-A, "Transit-Hop Tree Generation").
//!
//! For a zone `z` and interval `v`:
//!
//! 1. retrieve the precomputed walking isochrone `W_z`;
//! 2. intersect `F_stops` with `W_z` → the stops walkable from `z`;
//! 3. for each such stop, retrieve all services through it during `v`
//!    (`F_trips`);
//! 4. outbound: visit each *subsequent* stop of each service; inbound: each
//!    *preceding* stop;
//! 5. map the visited stop to its zone and add/update a leaf: record the
//!    in-vehicle journey time and bump the frequency counter.

use crate::tree::{Direction, HopTree};
use staq_geom::{GridIndex, KdTree};
use staq_gtfs::time::TimeInterval;
use staq_gtfs::{FeedIndex, StopId};
use staq_road::Isochrone;
use staq_synth::ZoneId;
use std::collections::HashMap;

/// Context shared by all per-zone builds: stop spatial index and
/// stop→zone mapping.
pub struct BuildContext<'a> {
    pub feed: &'a FeedIndex,
    /// Grid over stop positions (cell ≈ walking radius).
    pub stop_grid: GridIndex,
    /// Zone of each stop (nearest centroid).
    pub stop_zone: Vec<ZoneId>,
}

impl<'a> BuildContext<'a> {
    /// Prepares the context from the feed and the zone centroid index.
    pub fn new(feed: &'a FeedIndex, zone_tree: &KdTree, walk_radius_m: f64) -> Self {
        let stop_points = feed.stop_points();
        let stop_grid = GridIndex::build(&stop_points, walk_radius_m.max(50.0));
        let stop_zone = stop_points
            .iter()
            .map(|(p, _)| ZoneId(zone_tree.nearest(p).expect("at least one zone").item))
            .collect();
        BuildContext { feed, stop_grid, stop_zone }
    }

    /// Stops inside the walking isochrone `w` (grid pre-filter by radius,
    /// exact polygon test after).
    fn stops_in_isochrone(&self, w: &Isochrone, max_radius_m: f64) -> Vec<StopId> {
        let mut out = Vec::new();
        self.stop_grid.for_each_within(&w.origin, max_radius_m, |stop, _| {
            let pos = self.feed.stop_pos(StopId(stop));
            if w.contains(&pos) {
                out.push(StopId(stop));
            }
        });
        out
    }
}

/// Builds one hop tree over interval `v` for the zone whose walkshed is `w`.
pub fn build_tree(
    ctx: &BuildContext<'_>,
    w: &Isochrone,
    max_radius_m: f64,
    v: &TimeInterval,
    direction: Direction,
) -> HopTree {
    let stops = ctx.stops_in_isochrone(w, max_radius_m);
    // zone -> (count, jt_sum, jt_min)
    let mut accum: HashMap<ZoneId, (u32, f64, f64)> = HashMap::new();
    for &stop in &stops {
        for dep in ctx.feed.departures_at(stop, v) {
            let calls = ctx.feed.trip_calls(dep.trip);
            // Position of this call within the trip.
            let Some(pos) = calls.iter().position(|c| c.stop == stop && c.seq == dep.seq) else {
                continue;
            };
            match direction {
                Direction::Outbound => {
                    let board = calls[pos].departure;
                    for call in &calls[pos + 1..] {
                        let jt = board.until(call.arrival) as f64;
                        update(&mut accum, ctx.stop_zone[call.stop.idx()], jt);
                    }
                }
                Direction::Inbound => {
                    let arrive = calls[pos].arrival;
                    for call in &calls[..pos] {
                        let jt = call.departure.until(arrive) as f64;
                        update(&mut accum, ctx.stop_zone[call.stop.idx()], jt);
                    }
                }
            }
        }
    }
    let accum: Vec<(ZoneId, u32, f64, f64)> =
        accum.into_iter().map(|(z, (c, sum, min))| (z, c, sum, min)).collect();
    HopTree::from_accum(accum)
}

#[inline]
fn update(accum: &mut HashMap<ZoneId, (u32, f64, f64)>, zone: ZoneId, jt: f64) {
    let e = accum.entry(zone).or_insert((0, 0.0, f64::INFINITY));
    e.0 += 1;
    e.1 += jt;
    e.2 = e.2.min(jt);
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_road::{IsochroneParams, NodeSnapper};
    use staq_synth::{City, CityConfig};

    fn setup() -> (City, KdTree) {
        let city = City::generate(&CityConfig::small(42));
        let tree = KdTree::build(&city.zone_points());
        (city, tree)
    }

    fn iso(city: &City, z: ZoneId, params: &IsochroneParams) -> Isochrone {
        let snapper = NodeSnapper::new(&city.road);
        let c = city.zone_centroid(z);
        Isochrone::grow(&city.road, c, snapper.snap_unchecked(&c), params)
    }

    #[test]
    fn outbound_tree_has_leaves_for_connected_zone() {
        let (city, ztree) = setup();
        let params = IsochroneParams::default();
        let ctx = BuildContext::new(&city.feed, &ztree, params.max_radius_m());
        // Use the densest zone (closest to the core) — certain to have
        // service.
        let core_zone = ZoneId(ztree.nearest(&city.cores[0]).unwrap().item);
        let w = iso(&city, core_zone, &params);
        let t = build_tree(
            &ctx,
            &w,
            params.max_radius_m(),
            &TimeInterval::am_peak(),
            Direction::Outbound,
        );
        assert!(t.n_leaves() > 3, "core zone reaches {} zones", t.n_leaves());
        for l in t.leaves() {
            assert!(l.count >= 1);
            assert!(l.jt_min >= 0.0 && l.jt_avg() >= l.jt_min);
        }
    }

    #[test]
    fn inbound_and_outbound_differ_but_overlap() {
        let (city, ztree) = setup();
        let params = IsochroneParams::default();
        let ctx = BuildContext::new(&city.feed, &ztree, params.max_radius_m());
        let core_zone = ZoneId(ztree.nearest(&city.cores[0]).unwrap().item);
        let w = iso(&city, core_zone, &params);
        let v = TimeInterval::am_peak();
        let ob = build_tree(&ctx, &w, params.max_radius_m(), &v, Direction::Outbound);
        let ib = build_tree(&ctx, &w, params.max_radius_m(), &v, Direction::Inbound);
        assert!(ob.n_leaves() > 0 && ib.n_leaves() > 0);
        // Bidirectional routes make most zones appear in both.
        let shared = ob.leaves().iter().filter(|l| ib.reaches(l.zone)).count();
        assert!(shared > 0, "no shared leaves between OB and IB");
    }

    #[test]
    fn no_service_interval_gives_empty_tree() {
        let (city, ztree) = setup();
        let params = IsochroneParams::default();
        let ctx = BuildContext::new(&city.feed, &ztree, params.max_radius_m());
        let z = ZoneId(0);
        let w = iso(&city, z, &params);
        let sunday = TimeInterval::new(
            staq_gtfs::Stime::hours(7),
            staq_gtfs::Stime::hours(9),
            staq_gtfs::DayOfWeek::Sunday,
            "sun",
        );
        let t = build_tree(&ctx, &w, params.max_radius_m(), &sunday, Direction::Outbound);
        assert_eq!(t.n_leaves(), 0);
    }

    #[test]
    fn stops_in_isochrone_subset_of_radius() {
        let (city, ztree) = setup();
        let params = IsochroneParams::default();
        let ctx = BuildContext::new(&city.feed, &ztree, params.max_radius_m());
        let core_zone = ZoneId(ztree.nearest(&city.cores[0]).unwrap().item);
        let w = iso(&city, core_zone, &params);
        let stops = ctx.stops_in_isochrone(&w, params.max_radius_m());
        for s in &stops {
            let d = city.feed.stop_pos(*s).dist(&w.origin);
            assert!(d <= params.max_radius_m() * 1.01);
        }
    }

    #[test]
    fn tighter_walk_budget_never_adds_leaves() {
        let (city, ztree) = setup();
        let v = TimeInterval::am_peak();
        let core_zone = ZoneId(ztree.nearest(&city.cores[0]).unwrap().item);
        let loose = IsochroneParams::default();
        let tight = IsochroneParams { tau_secs: 200.0, ..loose };
        let ctx = BuildContext::new(&city.feed, &ztree, loose.max_radius_m());
        let wl = iso(&city, core_zone, &loose);
        let wt = iso(&city, core_zone, &tight);
        let tl = build_tree(&ctx, &wl, loose.max_radius_m(), &v, Direction::Outbound);
        let tt = build_tree(&ctx, &wt, tight.max_radius_m(), &v, Direction::Outbound);
        assert!(tt.n_leaves() <= tl.n_leaves());
    }
}
