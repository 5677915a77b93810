//! The OD connectivity feature vector (paper §IV-B2).
//!
//! Each `(z_i, p_j)` pair is described by a fixed-width vector computed
//! purely from precomputed artifacts — no shortest-path queries:
//!
//! | # | feature |
//! |---|---------|
//! | 0 | Euclidean o→d distance (m) |
//! | 1 | walkable within τ·ω (binary) |
//! | 2 | d's zone reachable in 1 outbound hop (binary) |
//! | 3 | d's zone reachable within 2 hops (binary) |
//! | 4 | distance from the OB leaf closest to d, to d (m) |
//! | 5 | that leaf's average in-vehicle JT (s) |
//! | 6 | that leaf's hop frequency |
//! | 7 | distance from the IB leaf closest to o, to o (m) |
//! | 8 | that leaf's average in-vehicle JT (s) |
//! | 9 | that leaf's hop frequency |
//! | 10 | number of interchanges |
//! | 11 | distance from the interchange closest to o (m) |
//! | 12 | distance from the interchange closest to d (m) |
//! | 13 | closest approach to d via high-frequency OB leaves (m) |
//! | 14 | number of high-frequency interchanges |
//! | 15 | fraction of zones reachable in 1 hop |
//! | 16 | fraction of zones reachable within 2 hops |
//! | 17 | OB leaf count |
//! | 18 | IB leaf count |
//!
//! Distances that have no witness (empty trees) take the sentinel
//! `max_dist` (the city diagonal): "unreachably far" stays ordinal for the
//! models rather than NaN.
//!
//! A `FeaturePass` computes origin-only terms (reach, high-frequency
//! leaves) once per origin and memoises interchange terms pass-wide, so
//! each OD costs two nearest-leaf scans and one join, O(|OB| + |IB|).

use crate::interchange::Interchanges;
use crate::store::HopTreeStore;
use crate::tree::Leaf;
use staq_geom::Point;
use staq_synth::{City, ZoneId};

/// Feature vector width.
pub const FEATURE_DIM: usize = 19;

/// Human-readable feature names, index-aligned.
pub const FEATURE_NAMES: [&str; FEATURE_DIM] = [
    "euclid_od_m",
    "walkable",
    "reach_1hop",
    "reach_2hop",
    "ob_closest_to_d_m",
    "ob_closest_jt_s",
    "ob_closest_freq",
    "ib_closest_to_o_m",
    "ib_closest_jt_s",
    "ib_closest_freq",
    "n_interchanges",
    "interchange_to_o_m",
    "interchange_to_d_m",
    "hf_closest_to_d_m",
    "n_hf_interchanges",
    "frac_reach_1hop",
    "frac_reach_2hop",
    "ob_n_leaves",
    "ib_n_leaves",
];

/// The settings and shared inputs of a feature pass over one store
/// (`aggregate::all_origin_features` runs the pass).
pub struct FeatureExtractor<'a> {
    pub(crate) store: &'a HopTreeStore,
    pub(crate) centroids: Vec<Point>,
    /// Sentinel distance for "no witness" (city diagonal).
    max_dist: f64,
    /// Walkable threshold in meters (τ·ω).
    walk_m: f64,
    /// Frequency quantile defining "high-frequency" leaves.
    pub hf_quantile: f64,
    /// Maximum hop depth for reachability features (paper: h is 1 or 2).
    pub max_hops: usize,
    /// Compute interchange features (10–12, 14). Disabling them is the
    /// feature-set ablation from DESIGN.md: those indices take their
    /// missing-witness sentinels instead.
    pub use_interchanges: bool,
}

impl<'a> FeatureExtractor<'a> {
    /// Prepares an extractor for `city`'s store.
    pub fn new(city: &City, store: &'a HopTreeStore) -> Self {
        let centroids: Vec<Point> = city.zones.iter().map(|z| z.centroid).collect();
        let max_dist = city.config.side_m * std::f64::consts::SQRT_2;
        FeatureExtractor {
            store,
            centroids,
            max_dist,
            walk_m: store.params.max_radius_m(),
            hf_quantile: 0.8,
            max_hops: 2,
            use_interchanges: true,
        }
    }

    /// `(distance, average JT, count)` of the first leaf closest to `p`,
    /// or the no-witness sentinel for an empty tree.
    fn closest(&self, leaves: &[Leaf], p: &Point) -> (f64, f64, f64) {
        let mut best: Option<(f64, f64, u32)> = None;
        for leaf in leaves {
            let dist = self.centroids[leaf.zone.idx()].dist(p);
            if best.is_none_or(|(bd, _, _)| dist < bd) {
                best = Some((dist, leaf.jt_avg(), leaf.count));
            }
        }
        best.map_or((self.max_dist, 0.0, 0.0), |(d, jt, n)| (d, jt, n as f64))
    }
}

/// One pass's state: the current origin's terms and the interchange
/// memos, dropped with the pass (so never stale after a store edit).
pub(crate) struct FeaturePass<'x> {
    fx: &'x FeatureExtractor<'x>,
    ints: Interchanges<'x>,
    origin: Option<ZoneId>,
    /// The origin's `max_hops` reach: a table over zones, reset through
    /// `reached`, which lists the marked zones in BFS order.
    in_reach: Vec<bool>,
    reached: Vec<ZoneId>,
    /// Centroids of the origin's high-frequency OB leaves, in leaf order.
    hf: Vec<Point>,
    hf_threshold: u32,
}

impl<'x> FeaturePass<'x> {
    pub(crate) fn new(fx: &'x FeatureExtractor<'x>) -> Self {
        FeaturePass {
            fx,
            ints: Interchanges::new(fx),
            origin: None,
            in_reach: vec![false; fx.store.n_zones()],
            reached: Vec::new(),
            hf: Vec::new(),
            hf_threshold: u32::MAX,
        }
    }

    /// Computes the origin-only terms of `zi`. The reach chains trees
    /// (paper: "they can also be chained easily to provide information
    /// after multiple (h) hops"), one BFS layer per hop.
    fn set_origin(&mut self, zi: ZoneId) {
        let fx = self.fx;
        self.origin = Some(zi);
        for z in self.reached.drain(..) {
            self.in_reach[z.idx()] = false;
        }
        self.in_reach[zi.idx()] = true;
        self.reached.push(zi);
        let mut layer = 0..1;
        for _ in 0..fx.max_hops {
            for i in layer.clone() {
                for leaf in fx.store.outbound(self.reached[i]).leaves() {
                    if !std::mem::replace(&mut self.in_reach[leaf.zone.idx()], true) {
                        self.reached.push(leaf.zone);
                    }
                }
            }
            layer = layer.end..self.reached.len();
            if layer.is_empty() {
                break;
            }
        }
        let hf = fx.store.outbound(zi).high_frequency_leaves(fx.hf_quantile);
        self.hf_threshold = hf.iter().map(|l| l.count).min().unwrap_or(u32::MAX);
        self.hf.clear();
        self.hf.extend(hf.iter().map(|l| fx.centroids[l.zone.idx()]));
    }

    /// Features for origin zone `zi` to a destination point `d` associated
    /// with zone `zj`; origin terms are reused while `zi` repeats.
    pub(crate) fn features(&mut self, zi: ZoneId, d: &Point, zj: ZoneId) -> [f64; FEATURE_DIM] {
        if self.origin != Some(zi) {
            self.set_origin(zi);
        }
        let fx = self.fx;
        let c = &fx.centroids;
        let (o, ob, ib) = (c[zi.idx()], fx.store.outbound(zi), fx.store.inbound(zj));
        let n_zones = fx.store.n_zones() as f64;
        let mut f = [0.0; FEATURE_DIM];

        f[0] = o.dist(d);
        f[1] = if f[0] <= fx.walk_m { 1.0 } else { 0.0 };
        f[2] = if ob.reaches(zj) { 1.0 } else { 0.0 };
        f[3] = if self.in_reach[zj.idx()] { 1.0 } else { 0.0 };
        (f[4], f[5], f[6]) = fx.closest(ob.leaves(), d);
        (f[7], f[8], f[9]) = fx.closest(ib.leaves(), &o);

        // Interchanges, folded in OB leaf order.
        let (mut n, mut to_o, mut to_d, mut n_hf) = (0, fx.max_dist, fx.max_dist, 0);
        if fx.use_interchanges {
            let hf_threshold = self.hf_threshold;
            self.ints.for_each(ob, zj, |a, b| {
                n += 1;
                to_o = to_o.min(c[a.zone.idx()].dist(&o));
                to_d = to_d.min(c[b.zone.idx()].dist(d));
                // A chain is only as frequent as its rarer half.
                if a.count.min(b.count) >= hf_threshold {
                    n_hf += 1;
                }
            });
        }
        (f[10], f[11], f[12]) = (n as f64, to_o, to_d);

        // High-frequency analysis.
        f[13] = self.hf.iter().map(|p| p.dist(d)).fold(fx.max_dist, f64::min);
        f[14] = n_hf as f64;

        f[15] = ob.n_leaves() as f64 / n_zones;
        f[16] = (self.reached.len() as f64 - 1.0).max(0.0) / n_zones;
        f[17] = ob.n_leaves() as f64;
        f[18] = ib.n_leaves() as f64;
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::small_city;
    use staq_synth::{Poi, PoiCategory};

    #[test]
    fn feature_vector_is_finite_and_dimensioned() {
        let (city, store, _) = small_city();
        let fx = FeatureExtractor::new(&city, &store);
        let mut pass = FeaturePass::new(&fx);
        let poi = city.pois_of(PoiCategory::School)[0];
        for z in (0..city.n_zones()).step_by(11) {
            let f = pass.features(ZoneId(z as u32), &poi.pos, poi.zone);
            assert_eq!(f.len(), FEATURE_DIM);
            assert!(f.iter().all(|v| v.is_finite()), "{f:?}");
        }
    }

    #[test]
    fn names_align_with_dim() {
        assert_eq!(FEATURE_NAMES.len(), FEATURE_DIM);
        let unique: std::collections::HashSet<_> = FEATURE_NAMES.iter().collect();
        assert_eq!(unique.len(), FEATURE_DIM);
    }

    #[test]
    fn chaining_is_monotone_in_h() {
        let (city, store, z) = small_city();
        let reach = |h| {
            let mut fx = FeatureExtractor::new(&city, &store);
            fx.max_hops = h;
            let mut pass = FeaturePass::new(&fx);
            // A dirty table first: a new origin must reset what it marked.
            pass.set_origin(ZoneId(1));
            pass.set_origin(z);
            assert_eq!(pass.in_reach.iter().filter(|&&m| m).count(), pass.reached.len());
            pass.in_reach
        };
        let (h0, h1, h2) = (reach(0), reach(1), reach(2));
        let len = |r: &[bool]| r.iter().filter(|&&m| m).count();
        assert_eq!(len(&h0), 1);
        assert!(len(&h1) >= len(&h0));
        assert!(len(&h2) >= len(&h1));
        assert!(h1.iter().zip(&h2).all(|(&a, &b)| !a || b), "h1 is a subset of h2");
        assert!(len(&h2) > len(&h1), "a second hop should reach new zones from the core");
    }

    #[test]
    fn walkable_flag_matches_distance() {
        let (city, store, _) = small_city();
        let fx = FeatureExtractor::new(&city, &store);
        let mut pass = FeaturePass::new(&fx);
        let poi = city.pois_of(PoiCategory::School)[0];
        for z in 0..city.n_zones() {
            let f = pass.features(ZoneId(z as u32), &poi.pos, poi.zone);
            assert_eq!(f[1] == 1.0, f[0] <= store.params.max_radius_m());
        }
    }

    #[test]
    fn reach2_implies_at_least_reach1_superset() {
        let (city, store, _) = small_city();
        let fx = FeatureExtractor::new(&city, &store);
        let mut pass = FeaturePass::new(&fx);
        let poi = city.pois_of(PoiCategory::Hospital)[0];
        for z in 0..city.n_zones() {
            let f = pass.features(ZoneId(z as u32), &poi.pos, poi.zone);
            if f[2] == 1.0 {
                assert_eq!(f[3], 1.0, "1-hop reachable must be 2-hop reachable");
            }
            assert!(f[16] >= f[15] - 1e-12, "2-hop fraction below 1-hop fraction");
        }
    }

    #[test]
    fn connected_zone_has_informative_features() {
        let (city, store, core) = small_city();
        let fx = FeatureExtractor::new(&city, &store);
        let poi = city.pois_of(PoiCategory::School)[0];
        let f = FeaturePass::new(&fx).features(core, &poi.pos, poi.zone);
        assert!(f[17] > 0.0, "core zone has outbound leaves");
        assert!(f[4] < fx.max_dist, "closest OB leaf distance is a real value");
    }

    #[test]
    fn interchange_ablation_zeroes_those_features() {
        let (city, store, core) = small_city();
        let mut fx = FeatureExtractor::new(&city, &store);
        fx.use_interchanges = false;
        let poi = city.pois_of(PoiCategory::School)[0];
        let f = FeaturePass::new(&fx).features(core, &poi.pos, poi.zone);
        assert_eq!(f[10], 0.0, "no interchanges counted");
        assert_eq!(f[11], fx.max_dist, "sentinel distances");
        assert_eq!(f[12], fx.max_dist);
        assert_eq!(f[14], 0.0);
        // Non-interchange features still live.
        assert!(f[17] > 0.0);
    }

    #[test]
    fn near_destination_scores_closer_than_far() {
        let (city, store, core) = small_city();
        let fx = FeatureExtractor::new(&city, &store);
        let mut pass = FeaturePass::new(&fx);
        let o = city.zone_centroid(core);
        // Nearest vs farthest school by crow-flies.
        let schools = city.pois_of(PoiCategory::School);
        let by_dist = |a: &&&Poi, b: &&&Poi| o.dist(&a.pos).partial_cmp(&o.dist(&b.pos)).unwrap();
        let near = schools.iter().min_by(by_dist).unwrap();
        let far = schools.iter().max_by(by_dist).unwrap();
        let fn_ = pass.features(core, &near.pos, near.zone);
        let ff = pass.features(core, &far.pos, far.zone);
        assert!(fn_[0] < ff[0]);
        assert!(fn_[4] <= ff[4] + 1e-9, "OB closest approach should not worsen for near POI");
    }
}
