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

use crate::interchange::find_interchanges;
use crate::store::HopTreeStore;
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

/// Computes OD feature vectors against one store.
pub struct FeatureExtractor<'a> {
    store: &'a HopTreeStore,
    centroids: Vec<Point>,
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

    /// Features for origin zone `zi` to a destination point `d` associated
    /// with zone `zj`.
    pub fn features(&self, zi: ZoneId, d: &Point, zj: ZoneId) -> [f64; FEATURE_DIM] {
        let o = self.centroids[zi.idx()];
        let ob = self.store.outbound(zi);
        let ib = self.store.inbound(zj);
        let n_zones = self.store.n_zones() as f64;
        let mut f = [0.0; FEATURE_DIM];

        f[0] = o.dist(d);
        f[1] = if f[0] <= self.walk_m { 1.0 } else { 0.0 };
        f[2] = if ob.reaches(zj) { 1.0 } else { 0.0 };
        let reach2 = self.store.reachable_within(zi, self.max_hops);
        f[3] = if reach2.contains(&zj) { 1.0 } else { 0.0 };

        // Closest OB leaf to the destination point.
        let mut best: Option<(f64, f64, u32)> = None; // (dist, jt_avg, count)
        for leaf in ob.leaves() {
            let dist = self.centroids[leaf.zone.idx()].dist(d);
            if best.is_none_or(|(bd, _, _)| dist < bd) {
                best = Some((dist, leaf.jt_avg(), leaf.count));
            }
        }
        let (d4, d5, d6) = best.map_or((self.max_dist, 0.0, 0), |b| b);
        f[4] = d4;
        f[5] = d5;
        f[6] = d6 as f64;

        // Closest IB leaf to the origin point.
        let mut best: Option<(f64, f64, u32)> = None;
        for leaf in ib.leaves() {
            let dist = self.centroids[leaf.zone.idx()].dist(&o);
            if best.is_none_or(|(bd, _, _)| dist < bd) {
                best = Some((dist, leaf.jt_avg(), leaf.count));
            }
        }
        let (d7, d8, d9) = best.map_or((self.max_dist, 0.0, 0), |b| b);
        f[7] = d7;
        f[8] = d8;
        f[9] = d9 as f64;

        // Interchanges.
        let ints = if self.use_interchanges {
            find_interchanges(self.store, ob, ib, &self.centroids)
        } else {
            Vec::new()
        };
        f[10] = ints.len() as f64;
        f[11] = ints
            .iter()
            .map(|i| self.centroids[i.ob_zone.idx()].dist(&o))
            .fold(self.max_dist, f64::min);
        f[12] = ints
            .iter()
            .map(|i| self.centroids[i.ib_zone.idx()].dist(d))
            .fold(self.max_dist, f64::min);

        // High-frequency analysis.
        let hf = ob.high_frequency_leaves(self.hf_quantile);
        f[13] =
            hf.iter().map(|l| self.centroids[l.zone.idx()].dist(d)).fold(self.max_dist, f64::min);
        let hf_threshold = hf.iter().map(|l| l.count).min().unwrap_or(u32::MAX);
        f[14] = ints.iter().filter(|i| i.frequency >= hf_threshold).count() as f64;

        f[15] = ob.n_leaves() as f64 / n_zones;
        f[16] = (reach2.len() as f64 - 1.0).max(0.0) / n_zones;
        f[17] = ob.n_leaves() as f64;
        f[18] = ib.n_leaves() as f64;
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_gtfs::time::TimeInterval;
    use staq_road::IsochroneParams;
    use staq_synth::{CityConfig, PoiCategory};

    fn setup() -> (City, HopTreeStore) {
        let city = City::generate(&CityConfig::small(42));
        let store =
            HopTreeStore::build(&city, &TimeInterval::am_peak(), &IsochroneParams::default());
        (city, store)
    }

    #[test]
    fn feature_vector_is_finite_and_dimensioned() {
        let (city, store) = setup();
        let fx = FeatureExtractor::new(&city, &store);
        let poi = city.pois_of(PoiCategory::School)[0];
        for z in (0..city.n_zones()).step_by(11) {
            let f = fx.features(ZoneId(z as u32), &poi.pos, poi.zone);
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
    fn walkable_flag_matches_distance() {
        let (city, store) = setup();
        let fx = FeatureExtractor::new(&city, &store);
        let poi = city.pois_of(PoiCategory::School)[0];
        for z in 0..city.n_zones() {
            let f = fx.features(ZoneId(z as u32), &poi.pos, poi.zone);
            assert_eq!(f[1] == 1.0, f[0] <= store.params.max_radius_m());
        }
    }

    #[test]
    fn reach2_implies_at_least_reach1_superset() {
        let (city, store) = setup();
        let fx = FeatureExtractor::new(&city, &store);
        let poi = city.pois_of(PoiCategory::Hospital)[0];
        for z in 0..city.n_zones() {
            let f = fx.features(ZoneId(z as u32), &poi.pos, poi.zone);
            if f[2] == 1.0 {
                assert_eq!(f[3], 1.0, "1-hop reachable must be 2-hop reachable");
            }
            assert!(f[16] >= f[15] - 1e-12, "2-hop fraction below 1-hop fraction");
        }
    }

    #[test]
    fn connected_zone_has_informative_features() {
        let (city, store) = setup();
        let fx = FeatureExtractor::new(&city, &store);
        let core = ZoneId(store.zone_tree().nearest(&city.cores[0]).unwrap().item);
        let poi = city.pois_of(PoiCategory::School)[0];
        let f = fx.features(core, &poi.pos, poi.zone);
        assert!(f[17] > 0.0, "core zone has outbound leaves");
        assert!(f[4] < fx.max_dist, "closest OB leaf distance is a real value");
    }

    #[test]
    fn interchange_ablation_zeroes_those_features() {
        let (city, store) = setup();
        let mut fx = FeatureExtractor::new(&city, &store);
        fx.use_interchanges = false;
        let poi = city.pois_of(PoiCategory::School)[0];
        let core = ZoneId(store.zone_tree().nearest(&city.cores[0]).unwrap().item);
        let f = fx.features(core, &poi.pos, poi.zone);
        assert_eq!(f[10], 0.0, "no interchanges counted");
        assert_eq!(f[11], fx.max_dist, "sentinel distances");
        assert_eq!(f[12], fx.max_dist);
        assert_eq!(f[14], 0.0);
        // Non-interchange features still live.
        assert!(f[17] > 0.0);
    }

    #[test]
    fn near_destination_scores_closer_than_far() {
        let (city, store) = setup();
        let fx = FeatureExtractor::new(&city, &store);
        let core = ZoneId(store.zone_tree().nearest(&city.cores[0]).unwrap().item);
        let o = city.zone_centroid(core);
        // Nearest vs farthest school by crow-flies.
        let schools = city.pois_of(PoiCategory::School);
        let near = schools
            .iter()
            .min_by(|a, b| o.dist(&a.pos).partial_cmp(&o.dist(&b.pos)).unwrap())
            .unwrap();
        let far = schools
            .iter()
            .max_by(|a, b| o.dist(&a.pos).partial_cmp(&o.dist(&b.pos)).unwrap())
            .unwrap();
        let fn_ = fx.features(core, &near.pos, near.zone);
        let ff = fx.features(core, &far.pos, far.zone);
        assert!(fn_[0] < ff[0]);
        assert!(fn_[4] <= ff[4] + 1e-9, "OB closest approach should not worsen for near POI");
    }
}
