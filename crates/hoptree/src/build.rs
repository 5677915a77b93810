//! Hop-tree generation (paper §IV-A, "Transit-Hop Tree Generation").
//!
//! For a zone `z` and interval `v`:
//!
//! 1. retrieve the precomputed walking isochrone `W_z`;
//! 2. intersect `F_stops` with `W_z` → the stops walkable from `z`;
//! 3. for each such stop, retrieve all services through it during `v`
//!    (`F_trips`), read from the trip patterns RAPTOR routes over;
//! 4. outbound: visit each *subsequent* stop of each service; inbound: each
//!    *preceding* stop;
//! 5. map the visited stop to its zone and add/update a leaf: record the
//!    in-vehicle journey time and bump the frequency counter.
//!
//! Steps 3–5 depend on the stop alone, so a [`TreeBuilder`] scans each stop
//! once into its [`StopHops`], and a zone's trees are the merge of the hops
//! of the stops in its walkshed. A leaf's count and JT sum are integers
//! (every JT is a whole number of seconds) and its JT minimum is a minimum,
//! so the order of the additions changes no bit of a tree.

use crate::tree::HopTree;
use staq_geom::{GridIndex, KdTree};
use staq_gtfs::time::TimeInterval;
use staq_gtfs::StopId;
use staq_road::Isochrone;
use staq_synth::ZoneId;
use staq_transit::TransitNetwork;

/// Per leaf zone: departures counted, their in-vehicle JT sum and minimum.
type Leaves = Vec<(ZoneId, u32, f64, f64)>;

/// A [`Leaves`] accumulator over a dense zone table; `take` drains it.
struct Accum {
    slots: Vec<(u32, f64, f64)>,
    touched: Vec<ZoneId>,
}

impl Accum {
    const EMPTY: (u32, f64, f64) = (0, 0.0, f64::INFINITY);

    fn new(n_zones: usize) -> Self {
        Accum { slots: vec![Self::EMPTY; n_zones], touched: Vec::new() }
    }

    #[inline]
    fn add(&mut self, zone: ZoneId, count: u32, jt_sum: f64, jt_min: f64) {
        let e = &mut self.slots[zone.idx()];
        if e.0 == 0 {
            self.touched.push(zone);
        }
        e.0 += count;
        e.1 += jt_sum;
        e.2 = e.2.min(jt_min);
    }

    /// The accumulated leaves, ascending by zone, so two takes of equal
    /// hops compare equal whatever order their additions came in.
    fn take(&mut self) -> Leaves {
        self.touched.sort_unstable();
        let slots = &mut self.slots;
        self.touched
            .drain(..)
            .map(|z| {
                let (count, sum, min) = std::mem::replace(&mut slots[z.idx()], Self::EMPTY);
                (z, count, sum, min)
            })
            .collect()
    }
}

/// What one stop adds to the outbound and inbound trees of every zone
/// whose walkshed holds it: the hops of its departures in the interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct StopHops {
    outbound: Leaves,
    inbound: Leaves,
}

/// Builds hop trees over one interval of one prepared network: the stop
/// index, the stop → zone map and two reusable accumulators.
pub(crate) struct TreeBuilder<'a> {
    net: &'a TransitNetwork<'a>,
    v: TimeInterval,
    walk_radius_m: f64,
    /// Grid over stop positions (cell ≈ walking radius).
    stop_grid: GridIndex,
    /// Zone of each stop (nearest centroid).
    stop_zone: Vec<ZoneId>,
    ob: Accum,
    ib: Accum,
}

impl<'a> TreeBuilder<'a> {
    pub(crate) fn new(
        net: &'a TransitNetwork<'a>,
        zone_tree: &KdTree,
        walk_radius_m: f64,
        v: &TimeInterval,
    ) -> Self {
        let stop_points = net.feed.stop_points();
        let stop_grid = GridIndex::build(&stop_points, walk_radius_m.max(50.0));
        let stop_zone = stop_points
            .iter()
            .map(|(p, _)| ZoneId(zone_tree.nearest(p).expect("at least one zone").item))
            .collect();
        let (ob, ib) = (Accum::new(zone_tree.len()), Accum::new(zone_tree.len()));
        TreeBuilder { net, v: v.clone(), walk_radius_m, stop_grid, stop_zone, ob, ib }
    }

    /// Stops inside the walking isochrone `w` (grid pre-filter by radius,
    /// exact polygon test after).
    pub(crate) fn stops_in(&self, w: &Isochrone) -> Vec<StopId> {
        let mut out = Vec::new();
        self.stop_grid.for_each_within(&w.origin, self.walk_radius_m, |stop, _| {
            let pos = self.net.feed.stop_pos(StopId(stop));
            if w.contains(&pos) {
                out.push(StopId(stop));
            }
        });
        out
    }

    /// Steps 3–5 for one stop: every trip of a pattern through `stop`
    /// that departs it in the interval and runs on its day, one leaf update
    /// per later (outbound) or earlier (inbound) call. A pattern's
    /// departure column is sorted, so its trips in `v` are one range.
    pub(crate) fn scan(&mut self, stop: StopId) -> StopHops {
        let v = &self.v;
        for &(p, pos) in self.net.patterns_at(stop) {
            let (p, pos) = (&self.net.patterns()[p as usize], pos as usize);
            let col = p.departures_at(pos);
            let in_v = col.partition_point(|&d| d < v.start)..col.partition_point(|&d| d < v.end);
            for t in in_v.filter(|&t| p.trip_runs_on(t, v.day)) {
                let (board, arrive) = (col[t], p.arrival(t, pos));
                for j in pos + 1..p.stops.len() {
                    let jt = board.until(p.arrival(t, j)) as f64;
                    self.ob.add(self.stop_zone[p.stops[j].idx()], 1, jt, jt);
                }
                for j in 0..pos {
                    let jt = p.departure(t, j).until(arrive) as f64;
                    self.ib.add(self.stop_zone[p.stops[j].idx()], 1, jt, jt);
                }
            }
        }
        StopHops { outbound: self.ob.take(), inbound: self.ib.take() }
    }

    /// The outbound and inbound trees of a zone whose walkshed holds
    /// `stops`, from each stop's entry in `hops` (indexed by stop id).
    pub(crate) fn merge(&mut self, stops: &[StopId], hops: &[StopHops]) -> (HopTree, HopTree) {
        for stop in stops {
            let h = &hops[stop.idx()];
            for &(z, count, sum, min) in &h.outbound {
                self.ob.add(z, count, sum, min);
            }
            for &(z, count, sum, min) in &h.inbound {
                self.ib.add(z, count, sum, min);
            }
        }
        (HopTree::from_accum(self.ob.take()), HopTree::from_accum(self.ib.take()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_gtfs::parse::FeedText;
    use staq_gtfs::{DayOfWeek, FeedIndex, Stime, TripId};
    use staq_road::{IsochroneParams, NodeSnapper};
    use staq_synth::{City, CityConfig};
    use std::collections::HashMap;

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

    /// Every stop's hops, indexed by stop id.
    fn all_hops(b: &mut TreeBuilder<'_>) -> Vec<StopHops> {
        (0..b.net.n_stops() as u32).map(|s| b.scan(StopId(s))).collect()
    }

    /// Outbound and inbound trees of the zone whose walkshed is `w`.
    fn trees(b: &mut TreeBuilder<'_>, w: &Isochrone) -> (HopTree, HopTree) {
        let hops = all_hops(b);
        b.merge(&b.stops_in(w), &hops)
    }

    /// The §IV-A procedure zone by zone, as a reference that reads the
    /// feed's call rows, not the patterns: every call at a stop in `w` of
    /// a trip running on `v`'s day that departs in `v`, one leaf update per
    /// call after (outbound) or before (inbound) it.
    fn reference_trees(b: &TreeBuilder<'_>, w: &Isochrone) -> (HopTree, HopTree) {
        let mut ob: HashMap<ZoneId, (u32, f64, f64)> = HashMap::new();
        let mut ib = ob.clone();
        let update = |acc: &mut HashMap<ZoneId, (u32, f64, f64)>, zone, jt: f64| {
            let e = acc.entry(zone).or_insert((0, 0.0, f64::INFINITY));
            (e.0, e.1, e.2) = (e.0 + 1, e.1 + jt, e.2.min(jt));
        };
        let (feed, walkable) = (b.net.feed, b.stops_in(w));
        for trip in (0..feed.feed().trips.len() as u32).map(TripId) {
            if !feed.trip_runs_on(trip, b.v.day) {
                continue;
            }
            let calls = feed.trip_calls(trip);
            for (pos, board) in calls.iter().enumerate() {
                if !walkable.contains(&board.stop) || !b.v.contains(board.departure) {
                    continue;
                }
                for call in &calls[pos + 1..] {
                    let jt = board.departure.until(call.arrival) as f64;
                    update(&mut ob, b.stop_zone[call.stop.idx()], jt);
                }
                for call in &calls[..pos] {
                    let jt = call.departure.until(board.arrival) as f64;
                    update(&mut ib, b.stop_zone[call.stop.idx()], jt);
                }
            }
        }
        let tree = |acc: HashMap<_, _>| {
            HopTree::from_accum(acc.into_iter().map(|(z, (c, s, m))| (z, c, s, m)).collect())
        };
        (tree(ob), tree(ib))
    }

    #[test]
    fn merged_stop_scans_equal_the_per_zone_procedure_bit_for_bit() {
        let (city, ztree) = setup();
        let params = IsochroneParams::default();
        let v = TimeInterval::am_peak();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let mut b = TreeBuilder::new(&net, &ztree, params.max_radius_m(), &v);
        let hops = all_hops(&mut b);
        let bits = |t: &HopTree| -> Vec<u64> {
            t.leaves().iter().flat_map(|l| [l.jt_avg().to_bits(), l.jt_min.to_bits()]).collect()
        };
        let mut leaves = 0;
        for z in 0..city.n_zones() as u32 {
            let w = iso(&city, ZoneId(z), &params);
            let got = b.merge(&b.stops_in(&w), &hops);
            let want = reference_trees(&b, &w);
            leaves += want.0.n_leaves();
            assert_eq!(got, want, "zone {z}");
            assert_eq!((bits(&got.0), bits(&got.1)), (bits(&want.0), bits(&want.1)));
        }
        assert!(leaves > city.n_zones(), "the city must have service to compare");
    }

    #[test]
    fn outbound_tree_has_leaves_for_connected_zone() {
        let (city, ztree) = setup();
        let params = IsochroneParams::default();
        let v = TimeInterval::am_peak();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let mut b = TreeBuilder::new(&net, &ztree, params.max_radius_m(), &v);
        // Use the densest zone (closest to the core) — certain to have
        // service.
        let core_zone = ZoneId(ztree.nearest(&city.cores[0]).unwrap().item);
        let (t, _) = trees(&mut b, &iso(&city, core_zone, &params));
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
        let v = TimeInterval::am_peak();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let mut b = TreeBuilder::new(&net, &ztree, params.max_radius_m(), &v);
        let core_zone = ZoneId(ztree.nearest(&city.cores[0]).unwrap().item);
        let (ob, ib) = trees(&mut b, &iso(&city, core_zone, &params));
        assert!(ob.n_leaves() > 0 && ib.n_leaves() > 0);
        // Bidirectional routes make most zones appear in both.
        let shared = ob.leaves().iter().filter(|l| ib.reaches(l.zone)).count();
        assert!(shared > 0, "no shared leaves between OB and IB");
    }

    #[test]
    fn no_service_interval_gives_empty_tree() {
        let (city, ztree) = setup();
        let params = IsochroneParams::default();
        let sunday = TimeInterval::new(Stime::hours(7), Stime::hours(9), DayOfWeek::Sunday, "sun");
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let mut b = TreeBuilder::new(&net, &ztree, params.max_radius_m(), &sunday);
        let (ob, ib) = trees(&mut b, &iso(&city, ZoneId(0), &params));
        assert_eq!((ob.n_leaves(), ib.n_leaves()), (0, 0));
    }

    #[test]
    fn stops_in_isochrone_subset_of_radius() {
        let (city, ztree) = setup();
        let params = IsochroneParams::default();
        let v = TimeInterval::am_peak();
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let b = TreeBuilder::new(&net, &ztree, params.max_radius_m(), &v);
        let core_zone = ZoneId(ztree.nearest(&city.cores[0]).unwrap().item);
        let w = iso(&city, core_zone, &params);
        for s in &b.stops_in(&w) {
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
        let tree = |params: &IsochroneParams| {
            let net = TransitNetwork::with_defaults(&city.road, &city.feed);
            let mut b = TreeBuilder::new(&net, &ztree, params.max_radius_m(), &v);
            trees(&mut b, &iso(&city, core_zone, params)).0
        };
        assert!(tree(&tight).n_leaves() <= tree(&loose).n_leaves());
    }

    /// One weekday trip from stop 0 (departs 07:00:30) to stop 1 (arrives
    /// 07:06:00), each stop the centroid of its own zone.
    #[test]
    fn the_scan_counts_a_departure_only_inside_the_interval_on_its_day() {
        let text = FeedText {
            agency: "agency_id,agency_name\nA1,Test Buses\n".into(),
            stops: "stop_id,stop_name,stop_lat,stop_lon\nS1,First,1000,2000\nS2,Second,1500,2600\n"
                .into(),
            routes: "route_id,agency_id,route_short_name,route_type\nR1,A1,11A,3\n".into(),
            calendar: "service_id,monday,tuesday,wednesday,thursday,friday,saturday,sunday\n\
                       WK,1,1,1,1,1,0,0\n"
                .into(),
            trips: "route_id,service_id,trip_id\nR1,WK,T1\n".into(),
            stop_times: "trip_id,arrival_time,departure_time,stop_id,stop_sequence\n\
                         T1,07:00:00,07:00:30,S1,0\nT1,07:06:00,07:06:00,S2,1\n"
                .into(),
        };
        let feed = FeedIndex::build(text.parse().unwrap());
        let road = City::generate(&CityConfig::tiny(42)).road;
        let net = TransitNetwork::with_defaults(&road, &feed);
        let zones = KdTree::build(&feed.stop_points());
        let hops = |v: &TimeInterval| {
            let mut b = TreeBuilder::new(&net, &zones, 600.0, v);
            [b.scan(StopId(0)), b.scan(StopId(1))]
        };
        let (ride, none) = (vec![(ZoneId(1), 1, 330.0, 330.0)], Vec::new());
        let [from, to] = hops(&TimeInterval::am_peak());
        assert_eq!((from.outbound, from.inbound), (ride, none.clone()));
        assert_eq!((to.outbound, to.inbound), (none, vec![(ZoneId(0), 1, 330.0, 330.0)]));
        // Sunday: the weekday-only service does not run.
        let sunday = TimeInterval::new(Stime::hours(7), Stime::hours(9), DayOfWeek::Sunday, "sun");
        assert_eq!(hops(&sunday), [StopHops::default(), StopHops::default()]);
        // A window after the departure.
        let late =
            TimeInterval::new(Stime::hours(10), Stime::hours(12), DayOfWeek::Tuesday, "late");
        assert_eq!(hops(&late), [StopHops::default(), StopHops::default()]);
    }
}
