//! Interchange identification (paper §IV-B1).
//!
//! "An interchange occurs when any z_k ∈ OB is within walking distance of
//! any z_k ∈ IB, allowing a passenger to connect to that service. ... a
//! k-NN (k = 1) search is made for each z_k ∈ OB on IB to retrieve the
//! nearest-node pairs. For each of these pairs, the walking isochrone for
//! one is retrieved to test if the other intersects."
//!
//! Neither step depends on the origin: the nearest IB leaf of `z_j` to an
//! OB leaf `a` and the overlap of two isochrones are facts about
//! `(a, z_j)` and `(a, b)`. `Interchanges` therefore answers each once
//! per feature pass, however many origins share the OB leaf, and builds
//! each destination's IB kd-tree once, on first use.

use crate::features::FeatureExtractor;
use crate::tree::{HopTree, Leaf};
use staq_geom::{KdTree, Point};
use staq_synth::ZoneId;

/// Nearest-leaf memo slot not yet filled.
const UNKNOWN: u32 = u32::MAX;
/// Overlap memo bits per ordered zone pair: known, then value.
const KNOWN: u8 = 1;
const OVERLAPS: u8 = 2;

/// Pass-wide interchange memos over one extractor's store.
pub(crate) struct Interchanges<'s> {
    fx: &'s FeatureExtractor<'s>,
    /// Per destination zone, from its first use: a k-NN index over its IB
    /// leaves and, per OB-leaf zone `a`, the index in `IB.leaves()` of
    /// the leaf nearest `a`.
    dest: Vec<Option<(KdTree, Vec<u32>)>>,
    /// Two bits per ordered pair `(a, b)`: `W_a.overlaps(W_b)`, once known.
    overlap: Vec<u8>,
}

impl<'s> Interchanges<'s> {
    pub(crate) fn new(fx: &'s FeatureExtractor<'s>) -> Self {
        let n = fx.store.n_zones();
        Interchanges { fx, dest: vec![None; n], overlap: vec![0; (n * n).div_ceil(4)] }
    }

    /// Calls `f(ob_leaf, ib_leaf)` for every interchange between `ob`
    /// (outbound from the origin) and `IB_zj`, in OB leaf order: each OB
    /// leaf paired with its nearest IB leaf, kept when walksheds overlap.
    pub(crate) fn for_each(&mut self, ob: &HopTree, zj: ZoneId, mut f: impl FnMut(&Leaf, &Leaf)) {
        let (store, centroids) = (self.fx.store, &self.fx.centroids);
        let n = store.n_zones();
        let ib = store.inbound(zj);
        if ob.n_leaves() == 0 || ib.n_leaves() == 0 {
            return;
        }
        let (tree, nearest) = self.dest[zj.idx()].get_or_insert_with(|| {
            let points: Vec<(Point, u32)> =
                ib.leaves().iter().map(|l| (centroids[l.zone.idx()], l.zone.0)).collect();
            (KdTree::build(&points), vec![UNKNOWN; n])
        });
        for a in ob.leaves() {
            let slot = &mut nearest[a.zone.idx()];
            if *slot == UNKNOWN {
                let hit = tree.nearest(&centroids[a.zone.idx()]).expect("IB has leaves");
                let found = ib.leaves().binary_search_by_key(&hit.item, |l| l.zone.0);
                *slot = found.expect("leaf present by construction") as u32;
            }
            let b = &ib.leaves()[*slot as usize];
            // Isochrone intersection test: can a passenger walk the gap?
            let pair = a.zone.idx() * n + b.zone.idx();
            let (byte, shift) = (pair / 4, (pair % 4) * 2);
            let mut bits = self.overlap[byte] >> shift;
            if bits & KNOWN == 0 {
                let hit = store.isochrone(a.zone).overlaps(store.isochrone(b.zone));
                bits = KNOWN | if hit { OVERLAPS } else { 0 };
                self.overlap[byte] |= bits << shift;
            }
            if bits & OVERLAPS != 0 {
                f(a, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::small_city;

    /// `(ob_zone, ib_zone, frequency)` per interchange.
    fn collect(
        ints: &mut Interchanges<'_>,
        ob: &HopTree,
        zj: ZoneId,
    ) -> Vec<(ZoneId, ZoneId, u32)> {
        let mut out = Vec::new();
        ints.for_each(ob, zj, |a, b| out.push((a.zone, b.zone, a.count.min(b.count))));
        out
    }

    #[test]
    fn interchanges_exist_for_connected_pairs() {
        let (city, store, core) = small_city();
        let fx = FeatureExtractor::new(&city, &store);
        let mut ints = Interchanges::new(&fx);
        // Core zone to a peripheral zone: interchanges should exist in a
        // radial+orbital network.
        let mut found_any = false;
        for z in 0..city.n_zones() {
            let dest = ZoneId(z as u32);
            let found = collect(&mut ints, store.outbound(core), dest);
            if !found.is_empty() {
                found_any = true;
                for &(ob_zone, ib_zone, frequency) in &found {
                    assert!(frequency >= 1);
                    assert!(store.outbound(core).reaches(ob_zone));
                    assert!(store.inbound(dest).reaches(ib_zone));
                }
                break;
            }
        }
        assert!(found_any, "no interchanges anywhere in the city");
    }

    #[test]
    fn empty_trees_give_no_interchanges() {
        let (city, store, _) = small_city();
        let fx = FeatureExtractor::new(&city, &store);
        let empty = HopTree::from_accum(Vec::new());
        let mut ints = Interchanges::new(&fx);
        assert!(collect(&mut ints, &empty, ZoneId(1)).is_empty());
    }

    #[test]
    fn overlapping_walkshed_pairs_only() {
        let (city, store, core) = small_city();
        let fx = FeatureExtractor::new(&city, &store);
        let mut ints = Interchanges::new(&fx);
        for z in (0..city.n_zones()).step_by(7) {
            for (ob_zone, ib_zone, _) in collect(&mut ints, store.outbound(core), ZoneId(z as u32))
            {
                assert!(
                    store.isochrone(ob_zone).overlaps(store.isochrone(ib_zone)),
                    "reported interchange whose walksheds don't overlap"
                );
            }
        }
    }
}
