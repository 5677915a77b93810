//! Interchange identification (paper §IV-B1).
//!
//! "An interchange occurs when any z_k ∈ OB is within walking distance of
//! any z_k ∈ IB, allowing a passenger to connect to that service. ... a
//! k-NN (k = 1) search is made for each z_k ∈ OB on IB to retrieve the
//! nearest-node pairs. For each of these pairs, the walking isochrone for
//! one is retrieved to test if the other intersects."

use crate::store::HopTreeStore;
use crate::tree::HopTree;
use serde::{Deserialize, Serialize};
use staq_geom::KdTree;
use staq_synth::ZoneId;

/// A feasible transfer point between an outbound and an inbound hop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Interchange {
    /// Leaf of the origin's outbound tree.
    pub ob_zone: ZoneId,
    /// Leaf of the destination's inbound tree.
    pub ib_zone: ZoneId,
    /// Distance between the two leaf centroids, meters.
    pub gap_m: f64,
    /// Combined hop frequency (min of the two leaf counters — a chain is
    /// only as frequent as its rarer half).
    pub frequency: u32,
}

/// Finds interchanges between `ob` (outbound from the origin) and `ib`
/// (inbound to the destination) using the store's zone centroids and
/// isochrones.
pub fn find_interchanges(
    store: &HopTreeStore,
    ob: &HopTree,
    ib: &HopTree,
    centroids: &[staq_geom::Point],
) -> Vec<Interchange> {
    if ob.n_leaves() == 0 || ib.n_leaves() == 0 {
        return Vec::new();
    }
    // k-NN index over the inbound leaves.
    let ib_points: Vec<(staq_geom::Point, u32)> =
        ib.leaves().iter().map(|l| (centroids[l.zone.idx()], l.zone.0)).collect();
    let ib_tree = KdTree::build(&ib_points);

    let mut out = Vec::new();
    for ob_leaf in ob.leaves() {
        let q = centroids[ob_leaf.zone.idx()];
        let Some(nearest) = ib_tree.nearest(&q) else { continue };
        let ib_zone = ZoneId(nearest.item);
        // Isochrone intersection test: can a passenger actually walk the gap?
        let wa = store.isochrone(ob_leaf.zone);
        let wb = store.isochrone(ib_zone);
        if wa.overlaps(wb) {
            let ib_leaf = ib.leaf(ib_zone).expect("leaf present by construction");
            out.push(Interchange {
                ob_zone: ob_leaf.zone,
                ib_zone,
                gap_m: nearest.dist(),
                frequency: ob_leaf.count.min(ib_leaf.count),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_gtfs::time::TimeInterval;
    use staq_road::IsochroneParams;
    use staq_synth::{City, CityConfig};

    fn setup() -> (City, HopTreeStore, Vec<staq_geom::Point>) {
        let city = City::generate(&CityConfig::small(42));
        let store =
            HopTreeStore::build(&city, &TimeInterval::am_peak(), &IsochroneParams::default());
        let centroids: Vec<_> = city.zones.iter().map(|z| z.centroid).collect();
        (city, store, centroids)
    }

    #[test]
    fn interchanges_exist_for_connected_pairs() {
        let (city, store, centroids) = setup();
        // Core zone to a peripheral zone: interchanges should exist in a
        // radial+orbital network.
        let core = ZoneId(store.zone_tree().nearest(&city.cores[0]).unwrap().item);
        let mut found_any = false;
        for z in 0..city.n_zones() {
            let dest = ZoneId(z as u32);
            let ints =
                find_interchanges(&store, store.outbound(core), store.inbound(dest), &centroids);
            if !ints.is_empty() {
                found_any = true;
                for i in &ints {
                    assert!(i.gap_m >= 0.0);
                    assert!(i.frequency >= 1);
                    assert!(store.outbound(core).reaches(i.ob_zone));
                    assert!(store.inbound(dest).reaches(i.ib_zone));
                }
                break;
            }
        }
        assert!(found_any, "no interchanges anywhere in the city");
    }

    #[test]
    fn empty_trees_give_no_interchanges() {
        let (_, store, centroids) = setup();
        let empty = HopTree::from_accum(ZoneId(0), crate::tree::Direction::Outbound, Vec::new());
        let ib = store.inbound(ZoneId(1));
        assert!(find_interchanges(&store, &empty, ib, &centroids).is_empty());
    }

    #[test]
    fn overlapping_walkshed_pairs_only() {
        let (city, store, centroids) = setup();
        let core = ZoneId(store.zone_tree().nearest(&city.cores[0]).unwrap().item);
        for z in (0..city.n_zones()).step_by(7) {
            let dest = ZoneId(z as u32);
            for i in
                find_interchanges(&store, store.outbound(core), store.inbound(dest), &centroids)
            {
                assert!(
                    store.isochrone(i.ob_zone).overlaps(store.isochrone(i.ib_zone)),
                    "reported interchange whose walksheds don't overlap"
                );
            }
        }
    }
}
