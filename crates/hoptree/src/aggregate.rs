//! Origin-level feature aggregation (paper §IV-C).
//!
//! "The feature vector is generated on the OD level. For training, it is
//! aggregated to the origin-level using a mean function weighted by α_ij,
//! which applies the same weighting factor as the gravity-based access
//! measures."
//!
//! One `FeaturePass` serves every zone, in id order, and each OD in α order.

use crate::features::{FeatureExtractor, FeaturePass, FEATURE_DIM};
use staq_synth::{City, ZoneId};
use staq_todam::Todam;

/// α-weighted mean of a zone's OD feature vectors over its (nonzero-α)
/// POIs. `None` when the zone has no attracted POIs.
fn origin_features(
    pass: &mut FeaturePass<'_>,
    city: &City,
    m: &Todam,
    zone: ZoneId,
) -> Option<[f64; FEATURE_DIM]> {
    let alpha = m.zone_alpha(zone);
    if alpha.is_empty() {
        return None;
    }
    let mut acc = [0.0; FEATURE_DIM];
    let mut wsum = 0.0;
    for &(poi_idx, a) in alpha {
        let poi = &city.pois[m.pois[poi_idx as usize].idx()];
        let f = pass.features(zone, &poi.pos, poi.zone);
        for (dst, v) in acc.iter_mut().zip(f) {
            *dst += a * v;
        }
        wsum += a;
    }
    for v in &mut acc {
        *v /= wsum;
    }
    Some(acc)
}

/// Origin features for every zone (rows align with zone ids; zones with no
/// attracted POIs get `None`).
pub fn all_origin_features(
    fx: &FeatureExtractor<'_>,
    city: &City,
    m: &Todam,
) -> Vec<Option<[f64; FEATURE_DIM]>> {
    let mut pass = FeaturePass::new(fx);
    (0..city.n_zones() as u32).map(|z| origin_features(&mut pass, city, m, ZoneId(z))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{small_city, HopTreeStore};
    use staq_synth::PoiCategory;
    use staq_todam::TodamSpec;

    fn setup() -> (City, HopTreeStore, Todam) {
        let (city, store, _) = small_city();
        let m = TodamSpec::default().build(&city, PoiCategory::School);
        (city, store, m)
    }

    #[test]
    fn aggregated_features_are_finite() {
        let (city, store, m) = setup();
        let fx = FeatureExtractor::new(&city, &store);
        let all = all_origin_features(&fx, &city, &m);
        assert_eq!(all.len(), city.n_zones());
        let some: Vec<_> = all.iter().flatten().collect();
        assert!(!some.is_empty());
        for f in some {
            assert!(f.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn weighted_mean_lies_within_od_range() {
        let (city, store, m) = setup();
        let fx = FeatureExtractor::new(&city, &store);
        let mut pass = FeaturePass::new(&fx);
        let z = ZoneId(0);
        let Some(agg) = origin_features(&mut pass, &city, &m, z) else {
            panic!("zone 0 should attract POIs");
        };
        // Bounds: the α-weighted mean of each column must lie within the
        // min/max over the contributing OD vectors.
        let mut lo = [f64::INFINITY; FEATURE_DIM];
        let mut hi = [f64::NEG_INFINITY; FEATURE_DIM];
        for &(poi_idx, _) in m.zone_alpha(z) {
            let poi = &city.pois[m.pois[poi_idx as usize].idx()];
            let f = pass.features(z, &poi.pos, poi.zone);
            for k in 0..FEATURE_DIM {
                lo[k] = lo[k].min(f[k]);
                hi[k] = hi[k].max(f[k]);
            }
        }
        for k in 0..FEATURE_DIM {
            assert!(
                agg[k] >= lo[k] - 1e-9 && agg[k] <= hi[k] + 1e-9,
                "column {k}: {} outside [{}, {}]",
                agg[k],
                lo[k],
                hi[k]
            );
        }
    }

    #[test]
    fn single_poi_zone_equals_its_od_vector() {
        let (city, store, _) = setup();
        // Job centers: tiny category — many zones attract exactly one.
        let m = TodamSpec::default().build(&city, PoiCategory::JobCenter);
        let fx = FeatureExtractor::new(&city, &store);
        let mut pass = FeaturePass::new(&fx);
        for z in 0..city.n_zones() {
            let zid = ZoneId(z as u32);
            let alpha = m.zone_alpha(zid);
            if alpha.len() == 1 {
                let poi = &city.pois[m.pois[alpha[0].0 as usize].idx()];
                let od = pass.features(zid, &poi.pos, poi.zone);
                let agg = origin_features(&mut pass, &city, &m, zid).unwrap();
                for k in 0..FEATURE_DIM {
                    assert!((od[k] - agg[k]).abs() < 1e-9);
                }
                return;
            }
        }
    }
}
