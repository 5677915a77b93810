//! The offline artifact bundle: built once per (city, interval), shared by
//! every pipeline run and by the engine.

use staq_gtfs::time::TimeInterval;
use staq_gtfs::FeedIndex;
use staq_hoptree::HopTreeStore;
use staq_obs::AtomicHistogram;
use staq_road::{IsochroneParams, RoadGraph};
use staq_synth::City;
use staq_transit::{NetworkTables, RouterConfig, StopTables};
use std::sync::Arc;
use std::time::Instant;

/// Offline artifact builds (hop trees + isochrones + prepared transit
/// network) — the once-per-(city, interval) stage upstream of every
/// pipeline run.
static STAGE_ARTIFACTS: AtomicHistogram = AtomicHistogram::new("pipeline.stage.artifacts");

/// Precomputed structures for one `(city, interval)`.
#[derive(Clone)]
pub struct OfflineArtifacts {
    /// Hop trees + isochrones + zone index.
    pub store: HopTreeStore,
    /// The city's prepared transit network (trip patterns, stop snapping,
    /// foot transfers, the access cache): every plan and labeling pass
    /// routes over a view of it.
    pub network: Arc<NetworkTables>,
}

impl OfflineArtifacts {
    /// Builds hop trees, isochrones and the prepared transit network.
    pub fn build(city: &City, interval: &TimeInterval, params: &IsochroneParams) -> Self {
        let t0 = Instant::now();
        let store = HopTreeStore::build(city, interval, params);
        let network = prepare_network(&city.road, &city.feed, None);
        STAGE_ARTIFACTS.record(t0.elapsed());
        OfflineArtifacts { store, network }
    }

    /// Rebuilds the prepared network from `city`'s current feed — called
    /// once per structural delta, right after the feed changed. The stop
    /// tables and their access cache carry over unless the stops moved.
    pub(crate) fn rebuild_network(&mut self, city: &City) {
        self.network = prepare_network(&city.road, &city.feed, Some(&self.network));
    }
}

/// The transit network of `feed` over `road` under the default router
/// config: what the artifacts start from (`previous` is `None`) and what
/// a world routes over after a delta lands (`previous` is the network it
/// routed over before).
///
/// The trip patterns are always built afresh. `previous`'s stop tables,
/// access cache included, are reused when they [match](StopTables::matches)
/// `feed` — same config, every stop position bit-identical — and built
/// anew otherwise, so a new stop set starts from an empty cache and no
/// cache ever needs invalidating. `previous` must be a network over
/// `road`. Panics on a trip whose call times run backwards; neither
/// `City::generate` nor `FeedIndex::apply_delta` produces one.
fn prepare_network(
    road: &RoadGraph,
    feed: &FeedIndex,
    previous: Option<&NetworkTables>,
) -> Arc<NetworkTables> {
    let cfg = RouterConfig::default();
    let stops = match previous.map(NetworkTables::stops) {
        Some(stops) if stops.matches(feed, cfg) => Arc::clone(stops),
        _ => Arc::new(StopTables::build(road, feed, cfg)),
    };
    Arc::new(NetworkTables::with_stops(feed, stops).expect("malformed feed"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use staq_geom::Point;
    use staq_gtfs::model::{RouteId, TripId};
    use staq_gtfs::Delta;
    use staq_synth::CityConfig;
    use std::sync::OnceLock;

    #[test]
    fn builds_for_small_city() {
        let city = City::generate(&CityConfig::small(42));
        let a =
            OfflineArtifacts::build(&city, &TimeInterval::am_peak(), &IsochroneParams::default());
        assert_eq!(a.store.n_zones(), city.n_zones());
        assert_eq!(a.network.view(&city.road, &city.feed).n_stops(), city.feed.n_stops());
    }

    fn tiny_city() -> &'static City {
        static CITY: OnceLock<City> = OnceLock::new();
        CITY.get_or_init(|| City::generate(&CityConfig::tiny(42)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Reusing stop tables rests on a value comparison, so it is held
        /// to a from-scratch build: after every delta of a random sequence
        /// (delays long enough to overtake, cancels, route removals, new
        /// routes), the network prepared from an earlier one equals
        /// `NetworkTables::build` field for field, pattern order included,
        /// and shares that earlier network's stop tables exactly when no
        /// `AddRoute` landed since it was built.
        #[test]
        fn reused_stop_tables_equal_a_from_scratch_build(
            steps in proptest::collection::vec(
                (0u8..4, 0usize..1000, 0u32..5400, 0.0f64..1.0, 0.0f64..1.0, 0u8..3), 1..10),
        ) {
            let city = tiny_city();
            let (road, cfg, side) = (&city.road, RouterConfig::default(), city.config.side_m);
            let mut feed = city.feed.clone();
            let mut prev = prepare_network(road, &feed, None);
            let mut added_route = false;
            for (kind, pick, secs, fx, fy, advance) in steps {
                let trip = TripId((pick % feed.feed().trips.len()) as u32);
                let delta = match kind {
                    0 => Delta::TripDelay { trip, delay_secs: secs },
                    1 => Delta::TripCancel { trip },
                    2 => Delta::RouteRemove {
                        route: RouteId((pick % feed.feed().routes.len()) as u32),
                    },
                    _ => Delta::AddRoute {
                        stops: vec![
                            Point::new(fx * side, fy * side),
                            Point::new((1.0 - fy) * side, fx * side),
                        ],
                        headway_s: 600 + secs,
                    },
                };
                if feed.apply_delta(&delta, city.config.bus_speed_mps).is_err() {
                    continue;
                }
                added_route |= matches!(delta, Delta::AddRoute { .. });
                let next = prepare_network(road, &feed, Some(&prev));
                let scratch = NetworkTables::build(road, &feed, cfg).expect("valid feed");
                prop_assert!(*next == scratch, "prepared tables differ after {:?}", delta);
                prop_assert_eq!(
                    Arc::ptr_eq(next.stops(), prev.stops()),
                    !added_route,
                    "stop tables after {:?}",
                    delta
                );
                // Sometimes keep the older network, so reuse is also
                // checked across several deltas.
                if advance != 0 {
                    prev = next;
                    added_route = false;
                }
            }
        }
    }
}
