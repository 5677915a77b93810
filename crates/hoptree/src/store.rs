//! The hop-tree store: every zone's outbound and inbound trees for one
//! interval, plus the isochrones and spatial indexes the feature extractor
//! needs. This is the paper's offline artifact ("the tree is saved such
//! that it can be retrieved efficiently").

use crate::build::{build_tree, BuildContext};
use crate::tree::{Direction, HopTree};
use staq_geom::KdTree;
use staq_gtfs::time::TimeInterval;
use staq_road::{Isochrone, IsochroneParams, NodeSnapper};
use staq_synth::{City, ZoneId};

/// All per-zone offline artifacts for one `(city, interval)`.
#[derive(Debug)]
pub struct HopTreeStore {
    pub interval: TimeInterval,
    pub params: IsochroneParams,
    outbound: Vec<HopTree>,
    inbound: Vec<HopTree>,
    isochrones: Vec<Isochrone>,
    /// kd-tree over zone centroids (maps stops to zones on rebuilds).
    zone_tree: KdTree,
}

impl HopTreeStore {
    /// Builds isochrones and both tree families for every zone.
    ///
    /// Cost is the paper's offline pre-processing step; it is linear in
    /// |Z| x (isochrone size + departures scanned), and far cheaper than
    /// labeling (`hoptree.build_s` beside `todam.label_s` in `staq-e2e`).
    pub fn build(city: &City, interval: &TimeInterval, params: &IsochroneParams) -> Self {
        let mut store = HopTreeStore {
            interval: interval.clone(),
            params: *params,
            outbound: Vec::new(),
            inbound: Vec::new(),
            isochrones: Vec::new(),
            zone_tree: KdTree::build(&city.zone_points()),
        };
        let zones: Vec<ZoneId> = (0..city.n_zones() as u32).map(ZoneId).collect();
        for (w, ob, ib) in store.grow(city, &zones) {
            store.isochrones.push(w);
            store.outbound.push(ob);
            store.inbound.push(ib);
        }
        store
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

    /// Rebuilds the trees and isochrone of a subset of zones in place —
    /// the incremental path for dynamic scenario edits (a new bus stop only
    /// affects zones whose walkshed covers it).
    pub fn rebuild_zones(&mut self, city: &City, zones: &[ZoneId]) {
        for (&z, (w, ob, ib)) in zones.iter().zip(self.grow(city, zones)) {
            (self.isochrones[z.idx()], self.outbound[z.idx()], self.inbound[z.idx()]) = (w, ob, ib);
        }
    }

    /// Grows each zone's walkshed and builds its two trees from it.
    fn grow(&self, city: &City, zones: &[ZoneId]) -> Vec<(Isochrone, HopTree, HopTree)> {
        let snapper = NodeSnapper::new(&city.road);
        let r = self.params.max_radius_m();
        let ctx = BuildContext::new(&city.feed, &self.zone_tree, r);
        let tree = |w: &Isochrone, dir| build_tree(&ctx, w, r, &self.interval, dir);
        zones
            .iter()
            .map(|&z| {
                let c = city.zone_centroid(z);
                let w = Isochrone::grow(&city.road, c, snapper.snap_unchecked(&c), &self.params);
                let (ob, ib) = (tree(&w, Direction::Outbound), tree(&w, Direction::Inbound));
                (w, ob, ib)
            })
            .collect()
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
