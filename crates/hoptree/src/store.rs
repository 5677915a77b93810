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
use std::collections::HashSet;

/// All per-zone offline artifacts for one `(city, interval)`.
#[derive(Debug)]
pub struct HopTreeStore {
    pub interval: TimeInterval,
    pub params: IsochroneParams,
    outbound: Vec<HopTree>,
    inbound: Vec<HopTree>,
    isochrones: Vec<Isochrone>,
    /// kd-tree over zone centroids (shared by interchange search).
    zone_tree: KdTree,
    n_zones: usize,
}

impl HopTreeStore {
    /// Builds isochrones and both tree families for every zone.
    ///
    /// Cost is the paper's offline pre-processing step; it is linear in
    /// |Z| x (isochrone size + departures scanned), and far cheaper than
    /// labeling (`hoptree.build_s` beside `todam.label_s` in `staq-e2e`).
    pub fn build(city: &City, interval: &TimeInterval, params: &IsochroneParams) -> Self {
        let zone_tree = KdTree::build(&city.zone_points());
        let snapper = NodeSnapper::new(&city.road);
        let ctx = BuildContext::new(&city.feed, &zone_tree, params.max_radius_m());

        let mut isochrones = Vec::with_capacity(city.n_zones());
        let mut outbound = Vec::with_capacity(city.n_zones());
        let mut inbound = Vec::with_capacity(city.n_zones());
        for zone in &city.zones {
            let w = Isochrone::grow(
                &city.road,
                zone.centroid,
                snapper.snap_unchecked(&zone.centroid),
                params,
            );
            let ob =
                build_tree(&ctx, zone.id, &w, params.max_radius_m(), interval, Direction::Outbound);
            let ib =
                build_tree(&ctx, zone.id, &w, params.max_radius_m(), interval, Direction::Inbound);
            isochrones.push(w);
            outbound.push(ob);
            inbound.push(ib);
        }
        HopTreeStore {
            interval: interval.clone(),
            params: *params,
            outbound,
            inbound,
            isochrones,
            zone_tree,
            n_zones: city.n_zones(),
        }
    }

    /// Number of zones covered.
    #[inline]
    pub fn n_zones(&self) -> usize {
        self.n_zones
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

    /// kd-tree over zone centroids.
    #[inline]
    pub fn zone_tree(&self) -> &KdTree {
        &self.zone_tree
    }

    /// Zones reachable from `z` within `h` outbound hops (chained trees,
    /// paper: "they can also be chained easily to provide information after
    /// multiple (h) hops"). `h = 0` returns just `z`.
    pub fn reachable_within(&self, z: ZoneId, h: usize) -> HashSet<ZoneId> {
        let mut seen: HashSet<ZoneId> = HashSet::from([z]);
        let mut frontier = vec![z];
        for _ in 0..h {
            let mut next = Vec::new();
            for &f in &frontier {
                for leaf in self.outbound(f).leaves() {
                    if seen.insert(leaf.zone) {
                        next.push(leaf.zone);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        seen
    }

    /// Rebuilds the trees and isochrone of a subset of zones in place —
    /// the incremental path for dynamic scenario edits (a new bus stop only
    /// affects zones whose walkshed covers it).
    pub fn rebuild_zones(&mut self, city: &City, zones: &[ZoneId]) {
        let snapper = NodeSnapper::new(&city.road);
        let ctx = BuildContext::new(&city.feed, &self.zone_tree, self.params.max_radius_m());
        for &z in zones {
            let centroid = city.zone_centroid(z);
            let w = Isochrone::grow(
                &city.road,
                centroid,
                snapper.snap_unchecked(&centroid),
                &self.params,
            );
            self.outbound[z.idx()] = build_tree(
                &ctx,
                z,
                &w,
                self.params.max_radius_m(),
                &self.interval,
                Direction::Outbound,
            );
            self.inbound[z.idx()] = build_tree(
                &ctx,
                z,
                &w,
                self.params.max_radius_m(),
                &self.interval,
                Direction::Inbound,
            );
            self.isochrones[z.idx()] = w;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_synth::CityConfig;

    fn store() -> (City, HopTreeStore) {
        let city = City::generate(&CityConfig::small(42));
        let s = HopTreeStore::build(&city, &TimeInterval::am_peak(), &IsochroneParams::default());
        (city, s)
    }

    #[test]
    fn covers_every_zone() {
        let (city, s) = store();
        assert_eq!(s.n_zones(), city.n_zones());
        // Most zones in a city with decent coverage have some connectivity.
        let connected =
            (0..s.n_zones()).filter(|&z| s.outbound(ZoneId(z as u32)).n_leaves() > 0).count();
        assert!(connected * 2 > s.n_zones(), "only {connected}/{} zones connected", s.n_zones());
    }

    #[test]
    fn chaining_is_monotone_in_h() {
        let (city, s) = store();
        let z = ZoneId(s.zone_tree().nearest(&city.cores[0]).unwrap().item);
        let h0 = s.reachable_within(z, 0);
        let h1 = s.reachable_within(z, 1);
        let h2 = s.reachable_within(z, 2);
        assert_eq!(h0.len(), 1);
        assert!(h1.len() >= h0.len());
        assert!(h2.len() >= h1.len());
        assert!(h1.is_subset(&h2));
        assert!(h2.len() > h1.len(), "a second hop should reach new zones from the core");
    }

    #[test]
    fn trees_are_interval_sensitive() {
        // Evening headways are 3x the peak's, so hop frequencies (leaf
        // counters) must be lower in the evening for a connected zone.
        use staq_gtfs::time::{DayOfWeek, Stime};
        let city = City::generate(&CityConfig::small(42));
        let am = TimeInterval::am_peak();
        let evening =
            TimeInterval::new(Stime::hours(19), Stime::hours(21), DayOfWeek::Tuesday, "evening");
        let params = IsochroneParams::default();
        let s_am = HopTreeStore::build(&city, &am, &params);
        let s_ev = HopTreeStore::build(&city, &evening, &params);
        let z = ZoneId(s_am.zone_tree().nearest(&city.cores[0]).unwrap().item);
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
        let (city, mut s) = store();
        let z = ZoneId(3);
        let before = s.outbound(z).clone();
        s.rebuild_zones(&city, &[z]);
        assert_eq!(*s.outbound(z), before);
    }

    #[test]
    fn isochrones_contain_their_origin() {
        let (city, s) = store();
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
