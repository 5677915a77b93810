//! The hop-tree store: every zone's outbound and inbound trees for one
//! interval, plus the isochrones and spatial indexes the feature extractor
//! needs. This is the paper's offline artifact ("the tree is saved such
//! that it can be retrieved efficiently").
//!
//! It also keeps each stop's hops (see `build`) and the stops of each
//! walkshed, so an edit costs what it touched: [`HopTreeStore::rebuild_stops`]
//! rescans the stops of an edit's footprint over the [`TransitNetwork`] the
//! edit re-prepared (the trees read the trip patterns RAPTOR routes over)
//! and re-merges only the trees of the zones whose walksheds hold a stop
//! whose hops changed in value.

use crate::build::{StopHops, TreeBuilder};
use crate::tree::HopTree;
use staq_geom::KdTree;
use staq_gtfs::time::TimeInterval;
use staq_gtfs::StopId;
use staq_road::{Isochrone, IsochroneParams, NodeSnapper};
use staq_synth::{City, ZoneId};
use staq_transit::TransitNetwork;

/// All per-zone offline artifacts for one `(city, interval)`.
#[derive(Debug, Clone)]
pub struct HopTreeStore {
    pub interval: TimeInterval,
    pub params: IsochroneParams,
    outbound: Vec<HopTree>,
    inbound: Vec<HopTree>,
    isochrones: Vec<Isochrone>,
    /// Stops inside each zone's walkshed.
    zone_stops: Vec<Vec<StopId>>,
    /// Each stop's hops in the interval, indexed by stop id.
    hops: Vec<StopHops>,
    /// kd-tree over zone centroids (maps stops to zones on rebuilds).
    zone_tree: KdTree,
}

/// What [`HopTreeStore::rebuild_stops`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeRebuild {
    /// Zones whose trees were re-merged: those whose walkshed holds a
    /// stop whose hops changed in value.
    pub zones: usize,
    /// True when any re-merged OB or IB tree differs from the one it
    /// replaced (bitwise; see [`HopTreeStore::rebuild_zones`]).
    pub changed: bool,
}

impl HopTreeStore {
    /// Builds isochrones and both tree families for every zone, reading
    /// the trips of `net`, a network prepared from `city`'s current feed.
    ///
    /// Cost is the paper's offline pre-processing step; it is linear in
    /// |Z| x isochrone size plus the departures scanned once per stop, and
    /// far cheaper than labeling (`hoptree.build_s` beside `todam.label_s`
    /// in `staq-e2e`).
    pub fn over(
        city: &City,
        net: &TransitNetwork<'_>,
        interval: &TimeInterval,
        params: &IsochroneParams,
    ) -> Self {
        let snapper = NodeSnapper::new(&city.road);
        let isochrones = city
            .zones
            .iter()
            .map(|z| {
                Isochrone::grow(&city.road, z.centroid, snapper.snap_unchecked(&z.centroid), params)
            })
            .collect();
        let mut store = HopTreeStore {
            interval: interval.clone(),
            params: *params,
            outbound: Vec::new(),
            inbound: Vec::new(),
            isochrones,
            zone_stops: Vec::new(),
            hops: Vec::new(),
            zone_tree: KdTree::build(&city.zone_points()),
        };
        let mut b = store.builder(net);
        store.zone_stops = store.isochrones.iter().map(|w| b.stops_in(w)).collect();
        store.hops = (0..net.n_stops() as u32).map(|s| b.scan(StopId(s))).collect();
        (store.outbound, store.inbound) =
            store.zone_stops.iter().map(|stops| b.merge(stops, &store.hops)).unzip();
        store
    }

    /// [`over`](Self::over) a network it prepares from `city`'s feed under
    /// the default router config. Kept for callers that hold no prepared
    /// network: the `staq-e2e` layer probes and the tests.
    pub fn build(city: &City, interval: &TimeInterval, params: &IsochroneParams) -> Self {
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        Self::over(city, &net, interval, params)
    }

    /// Number of zones covered.
    #[inline]
    pub fn n_zones(&self) -> usize {
        self.outbound.len()
    }

    /// Outbound tree `OB_z^v`.
    #[inline]
    pub fn outbound(&self, z: ZoneId) -> &HopTree {
        &self.outbound[z.idx()]
    }

    /// Inbound tree `IB_z^v`.
    #[inline]
    pub fn inbound(&self, z: ZoneId) -> &HopTree {
        &self.inbound[z.idx()]
    }

    /// Walking isochrone `W_z`.
    #[inline]
    pub fn isochrone(&self, z: ZoneId) -> &Isochrone {
        &self.isochrones[z.idx()]
    }

    /// Rebuilds the trees of a subset of zones in place from `city`'s
    /// current feed, rescanning every stop in their walksheds over a
    /// network it prepares. Walksheds are kept: an isochrone depends only
    /// on the road graph, the centroid and the params, and no edit changes
    /// any of them.
    ///
    /// Returns true when any rebuilt OB or IB tree differs from the one it
    /// replaced. The comparison is bitwise: every JT is a `u32` from
    /// `Stime::until` widened to `f64`, and sums of such integers are exact
    /// in any order, so no tree holds a NaN or a −0.0 and `==` on the
    /// floats means equal bits.
    pub fn rebuild_zones(&mut self, city: &City, zones: &[ZoneId]) -> bool {
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let mut b = self.builder(&net);
        self.add_new_stops(&b, net.n_stops());
        let mut stops: Vec<StopId> =
            zones.iter().flat_map(|z| self.zone_stops[z.idx()].iter().copied()).collect();
        stops.sort_unstable();
        stops.dedup();
        for s in stops {
            self.hops[s.idx()] = b.scan(s);
        }
        self.merge(&mut b, zones)
    }

    /// The incremental path for a feed edit: rescans the stops of its
    /// changed call rows (a delta's [`staq_gtfs::Footprint::stops`], an
    /// added route's new stops included) over `net`, prepared from the
    /// edited feed, and re-merges the trees of the zones whose walksheds
    /// hold a stop whose hops changed in value. A stop's hops depend only
    /// on the trips calling at it, so every other tree is unchanged.
    pub fn rebuild_stops(&mut self, net: &TransitNetwork<'_>, touched: &[StopId]) -> TreeRebuild {
        let mut b = self.builder(net);
        self.add_new_stops(&b, net.n_stops());
        let mut dirty = vec![false; self.n_zones()];
        for &s in touched {
            let hops = b.scan(s);
            if hops != self.hops[s.idx()] {
                self.hops[s.idx()] = hops;
                for (d, stops) in dirty.iter_mut().zip(&self.zone_stops) {
                    *d |= stops.contains(&s);
                }
            }
        }
        let zones: Vec<ZoneId> =
            (0..self.n_zones() as u32).map(ZoneId).filter(|z| dirty[z.idx()]).collect();
        TreeRebuild { zones: zones.len(), changed: self.merge(&mut b, &zones) }
    }

    fn builder<'n>(&self, net: &'n TransitNetwork<'n>) -> TreeBuilder<'n> {
        TreeBuilder::new(net, &self.zone_tree, self.params.max_radius_m(), &self.interval)
    }

    /// Catches up with a feed that gained stops: walkshed membership is
    /// recomputed and each new stop starts with no hops, so a new stop
    /// with departures reads as changed once scanned.
    fn add_new_stops(&mut self, b: &TreeBuilder<'_>, n_stops: usize) {
        if self.hops.len() != n_stops {
            self.zone_stops = self.isochrones.iter().map(|w| b.stops_in(w)).collect();
            self.hops.resize_with(n_stops, StopHops::default);
        }
    }

    /// Re-merges `zones`' trees from the stored stop hops; true when any
    /// differs from the tree it replaces.
    fn merge(&mut self, b: &mut TreeBuilder<'_>, zones: &[ZoneId]) -> bool {
        let mut changed = false;
        for &z in zones {
            let (ob, ib) = b.merge(&self.zone_stops[z.idx()], &self.hops);
            changed |= ob != self.outbound[z.idx()] || ib != self.inbound[z.idx()];
            (self.outbound[z.idx()], self.inbound[z.idx()]) = (ob, ib);
        }
        changed
    }
}

/// Test fixture: the small city, its AM-peak store, and the zone nearest
/// the city's first core (certain to have service).
#[cfg(test)]
pub(crate) fn small_city() -> (City, HopTreeStore, ZoneId) {
    let city = City::generate(&staq_synth::CityConfig::small(42));
    let store = HopTreeStore::build(&city, &TimeInterval::am_peak(), &IsochroneParams::default());
    let core = ZoneId(store.zone_tree.nearest(&city.cores[0]).expect("zones").item);
    (city, store, core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_gtfs::{Delta, TripId};

    #[test]
    fn covers_every_zone() {
        let (city, s, _) = small_city();
        assert_eq!(s.n_zones(), city.n_zones());
        // Most zones in a city with decent coverage have some connectivity.
        let connected =
            (0..s.n_zones()).filter(|&z| s.outbound(ZoneId(z as u32)).n_leaves() > 0).count();
        assert!(connected * 2 > s.n_zones(), "only {connected}/{} zones connected", s.n_zones());
    }

    #[test]
    fn trees_are_interval_sensitive() {
        // Evening headways are 3x the peak's, so hop frequencies (leaf
        // counters) must be lower in the evening for a connected zone.
        use staq_gtfs::time::{DayOfWeek, Stime};
        let (city, s_am, z) = small_city();
        let evening =
            TimeInterval::new(Stime::hours(19), Stime::hours(21), DayOfWeek::Tuesday, "evening");
        let params = IsochroneParams::default();
        let s_ev = HopTreeStore::build(&city, &evening, &params);
        let count =
            |s: &HopTreeStore| -> u32 { s.outbound(z).leaves().iter().map(|l| l.count).sum() };
        assert!(
            count(&s_am) > count(&s_ev),
            "AM peak hops {} should exceed evening {}",
            count(&s_am),
            count(&s_ev)
        );
    }

    #[test]
    fn rebuild_zones_is_idempotent_without_changes() {
        let (city, mut s, _) = small_city();
        let z = ZoneId(3);
        let before = s.outbound(z).clone();
        s.rebuild_zones(&city, &[z]);
        assert_eq!(*s.outbound(z), before);
    }

    /// Applies `delta` to the small city's feed and rebuilds two stores:
    /// one every zone, one only what the touched stops reach. Both must
    /// equal a fresh build and agree on the change report. Returns that
    /// report and the zones the touched-stop path re-merged.
    fn rebuild_after(pick: impl Fn(&City, &TimeInterval) -> Delta) -> (bool, usize) {
        let (mut city, mut by_zone, _) = small_city();
        let (_, mut by_stop, _) = small_city();
        let delta = pick(&city, &by_zone.interval);
        let fp = city.feed.apply_delta(&delta, city.config.bus_speed_mps).expect("delta applies");
        let zones: Vec<ZoneId> = (0..by_zone.n_zones() as u32).map(ZoneId).collect();
        let changed = by_zone.rebuild_zones(&city, &zones);
        let net = TransitNetwork::with_defaults(&city.road, &city.feed);
        let rebuilt = by_stop.rebuild_stops(&net, &fp.stops());
        let fresh = HopTreeStore::build(&city, &by_zone.interval, &by_zone.params);
        for s in [&by_zone, &by_stop] {
            for &z in &zones {
                assert_eq!((s.outbound(z), s.inbound(z)), (fresh.outbound(z), fresh.inbound(z)));
            }
        }
        assert_eq!(rebuilt.changed, changed, "both paths report the same change");
        (changed, rebuilt.zones)
    }

    /// The first trip matching `pred`.
    fn trip_where(city: &City, pred: impl Fn(TripId) -> bool) -> TripId {
        (0..city.feed.feed().trips.len() as u32).map(TripId).find(|&t| pred(t)).expect("a trip")
    }

    /// A trip running on `v`'s day whose every call, delayed by `slack`
    /// seconds, still departs inside `v`.
    fn in_interval_trip(city: &City, v: &TimeInterval, slack: u32) -> TripId {
        trip_where(city, |t| {
            city.feed.trip_runs_on(t, v.day)
                && city
                    .feed
                    .trip_calls(t)
                    .iter()
                    .all(|c| c.departure.0 >= v.start.0 && c.departure.0 + slack < v.end.0)
        })
    }

    #[test]
    fn delaying_a_trip_off_the_intervals_day_changes_no_tree() {
        let (changed, zones) = rebuild_after(|city, v| {
            let trip = trip_where(city, |t| {
                !city.feed.trip_runs_on(t, v.day)
                    && city.feed.trip_calls(t).iter().any(|c| v.contains(c.departure))
            });
            Delta::TripDelay { trip, delay_secs: 30 }
        });
        assert!(!changed, "a trip that does not run on the interval's day counts nowhere");
        assert_eq!(zones, 0, "no stop's hops changed, so no tree is re-merged");
    }

    #[test]
    fn a_small_delay_inside_the_interval_changes_no_tree() {
        let (changed, zones) = rebuild_after(|city, v| Delta::TripDelay {
            trip: in_interval_trip(city, v, 5),
            delay_secs: 5,
        });
        assert!(!changed, "no departure crossed an edge and in-vehicle JTs are unchanged");
        assert_eq!(zones, 0);
    }

    #[test]
    fn a_delay_that_only_reorders_departures_changes_no_tree() {
        // 1 500 s moves the trip past others on its pattern but keeps each
        // departure in the interval and each in-vehicle JT: every stop's
        // hops are equal in value, though scanned in another order.
        let (changed, zones) = rebuild_after(|city, v| Delta::TripDelay {
            trip: in_interval_trip(city, v, 1500),
            delay_secs: 1500,
        });
        assert!(!changed);
        assert_eq!(zones, 0, "hops equal in value re-merge no zone");
    }

    #[test]
    fn cancelling_an_in_interval_trip_changes_a_tree() {
        let (changed, zones) =
            rebuild_after(|city, v| Delta::TripCancel { trip: in_interval_trip(city, v, 0) });
        assert!(changed && zones > 0, "the cancelled trip's hops no longer count");
    }

    #[test]
    fn an_added_route_changes_the_trees_its_new_stops_reach() {
        let (changed, zones) = rebuild_after(|city, _| {
            let (a, b) = (city.zones[0].centroid, city.cores[0]);
            Delta::AddRoute { stops: vec![a, a.midpoint(&b), b], headway_s: 600 }
        });
        assert!(changed && zones > 0);
    }

    #[test]
    fn isochrones_contain_their_origin() {
        let (city, s, _) = small_city();
        for z in 0..s.n_zones() {
            let zid = ZoneId(z as u32);
            let c = city.zone_centroid(zid);
            let iso = s.isochrone(zid);
            // The centroid is either strictly inside the hull or is itself a
            // hull vertex (when the walkshed collapses toward the snapped
            // node, the origin sits on the boundary).
            let on_ring = iso.shape.ring().iter().any(|v| v.dist(&c) < 1e-6);
            assert!(iso.contains(&c) || on_ring, "zone {z} centroid escapes its walkshed");
        }
    }
}
