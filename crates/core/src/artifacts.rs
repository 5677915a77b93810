//! The offline artifact bundle: built once per (city, interval), shared by
//! every pipeline run and by the engine.

use staq_gtfs::time::TimeInterval;
use staq_gtfs::FeedIndex;
use staq_hoptree::HopTreeStore;
use staq_obs::AtomicHistogram;
use staq_road::{IsochroneParams, RoadGraph};
use staq_synth::City;
use staq_transit::{NetworkTables, RouterConfig};
use std::sync::Arc;
use std::time::Instant;

/// Offline artifact builds (hop trees + isochrones + prepared transit
/// network) — the once-per-(city, interval) stage upstream of every
/// pipeline run.
static STAGE_ARTIFACTS: AtomicHistogram = AtomicHistogram::new("pipeline.stage.artifacts");

/// Precomputed structures for one `(city, interval)`.
pub struct OfflineArtifacts {
    /// Hop trees + isochrones + zone index.
    pub store: HopTreeStore,
    /// The city's prepared transit network (trip patterns, stop snapping,
    /// foot transfers): every plan and labeling pass routes over a view of
    /// it.
    pub network: Arc<NetworkTables>,
}

impl OfflineArtifacts {
    /// Builds hop trees, isochrones and the prepared transit network.
    pub fn build(city: &City, interval: &TimeInterval, params: &IsochroneParams) -> Self {
        let t0 = Instant::now();
        let store = HopTreeStore::build(city, interval, params);
        let network = prepare_network(&city.road, &city.feed);
        STAGE_ARTIFACTS.record(t0.elapsed());
        OfflineArtifacts { store, network }
    }

    /// Rebuilds the prepared network from `city`'s current feed — called
    /// once per structural delta, right after the feed changed.
    pub(crate) fn rebuild_network(&mut self, city: &City) {
        self.network = prepare_network(&city.road, &city.feed);
    }
}

/// The transit network of `feed` over `road` under the default router
/// config: what a commit routes over after its deltas land, and what a
/// what-if scenario routes over after its deltas land on a copy of the
/// feed. Panics on a trip whose call times run backwards; neither
/// `City::generate` nor `FeedIndex::apply_delta` produces one.
pub(crate) fn prepare_network(road: &RoadGraph, feed: &FeedIndex) -> Arc<NetworkTables> {
    let tables = NetworkTables::build(road, feed, RouterConfig::default());
    Arc::new(tables.expect("malformed feed"))
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
        assert_eq!(a.network.view(&city.road, &city.feed).n_stops(), city.feed.n_stops());
    }
}
