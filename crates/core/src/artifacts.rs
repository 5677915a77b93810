//! The offline artifact bundle: built once per (city, interval), shared by
//! every pipeline run and by the engine.

use staq_gtfs::time::TimeInterval;
use staq_hoptree::HopTreeStore;
use staq_ml::SparseAdj;
use staq_obs::AtomicHistogram;
use staq_road::IsochroneParams;
use staq_synth::City;
use std::time::Instant;

/// Offline artifact builds (hop trees + isochrones + adjacency) — the
/// once-per-(city, interval) stage upstream of every pipeline run.
static STAGE_ARTIFACTS: AtomicHistogram = AtomicHistogram::new("pipeline.stage.artifacts");

/// Precomputed structures for one `(city, interval)`.
pub struct OfflineArtifacts {
    /// Hop trees + isochrones + zone index.
    pub store: HopTreeStore,
    /// Gaussian-thresholded zone adjacency, in zone-id order (the GNN
    /// permutes it into labeled-then-unlabeled order per run).
    pub adjacency: SparseAdj,
    /// Wall-clock seconds spent building (offline cost accounting).
    pub build_secs: f64,
}

impl OfflineArtifacts {
    /// Builds hop trees, isochrones and the zone adjacency.
    pub fn build(city: &City, interval: &TimeInterval, params: &IsochroneParams) -> Self {
        let t0 = Instant::now();
        let store = HopTreeStore::build(city, interval, params);
        let coords: Vec<(f64, f64)> =
            city.zones.iter().map(|z| (z.centroid.x, z.centroid.y)).collect();
        let adjacency = SparseAdj::gaussian_threshold(&coords, 12, 1e-4, None);
        STAGE_ARTIFACTS.record(t0.elapsed());
        OfflineArtifacts { store, adjacency, build_secs: t0.elapsed().as_secs_f64() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_synth::CityConfig;

    #[test]
    fn builds_for_small_city() {
        let city = City::generate(&CityConfig::small(42));
        let a =
            OfflineArtifacts::build(&city, &TimeInterval::am_peak(), &IsochroneParams::default());
        assert_eq!(a.store.n_zones(), city.n_zones());
        assert_eq!(a.adjacency.n(), city.n_zones());
        assert!(a.build_secs >= 0.0);
    }
}
