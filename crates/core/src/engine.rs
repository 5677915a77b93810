//! The dynamic access-query engine.
//!
//! The paper's motivation (§I): planners "need to operate in a dynamic
//! environment and test new policy scenarios, such as optimally locating a
//! new school ... or introducing new bus stops to avoid access deserts",
//! which means the TODAM and its artifacts must be recomputable after every
//! spatio-temporal edit — cheaply.
//!
//! [`AccessEngine`] owns a city and its offline artifacts and supports:
//!
//! * answering [`AccessQuery`]s through the SSR pipeline (fast) with result
//!   caching per (category, cost);
//! * **scenario edits** — [`AccessEngine::add_poi`] (no network change: hop
//!   trees stay valid, only that category's TODAM/labels refresh) and
//!   [`AccessEngine::apply_delta`] (schedule change: the GTFS feed is
//!   mutated, only the zones whose walkshed holds a stop of the delta's
//!   footprint whose in-interval hops changed get their hop trees rebuilt,
//!   and the prepared transit network is rebuilt once; a delta that
//!   changed no call row changes nothing);
//! * **kept pipeline stages** — each category's TODAM and origin feature
//!   rows (stages 1–2, [`crate::pipeline::Prepared`]) outlive its result.
//!   The TODAM depends only on zones and POIs, so only `add_poi` of that
//!   category drops it. The feature rows also depend on the hop trees, so
//!   a delta drops them only when a rebuilt tree changed. A cold read
//!   after a tree-preserving `TripDelay` then only samples, labels and
//!   trains;
//! * **retired results** — a delta moves each category's published result
//!   to `previous` instead of dropping it. The next cold read still labels
//!   `L`, but when its fit inputs (L, U, features, targets) equal the
//!   retired result's bit for bit it takes that result's measures instead
//!   of training ([`SsrPipeline::solve`]). A label-preserving delay then
//!   costs sampling and labeling only. The check compares values, so the
//!   answer still depends only on the world, never on which reads ran;
//! * journey planning ([`AccessEngine::plan`]) over that same prepared
//!   network, never a per-request copy;
//! * counterfactual scenarios ([`AccessEngine::what_if`]), each routed
//!   over a network built from a copy of the feed with its deltas
//!   applied — the way a commit builds one.
//!
//! # Concurrency model
//!
//! Every method takes `&self`, so one engine can be shared (`Arc`) across a
//! server's worker pool. One [`RwLock`] guards the world (city + artifacts)
//! and everything derived from it:
//!
//! * Reads take the read lock and run concurrently; scenario edits take
//!   the write lock.
//! * Each category's TODAM, feature rows and published result are cells
//!   in the world, each filled at most once per world state. A cold read
//!   fills them under the read lock, and no edit can land while it holds
//!   it, so a filled cell always describes the world it sits in.
//! * The cells make reads **single-flight**: when N threads ask for an
//!   uncached category at once, exactly one runs the SSR pipeline while
//!   the rest block on the cell and share the `Arc<PipelineResult>` it
//!   publishes. [`AccessEngine::pipeline_runs`] counts actual pipeline
//!   executions so this is assertable. A run that panics leaves its cell
//!   empty, and the next reader runs it again.
//! * Edits reset the cells they invalidate through the write guard (see
//!   [`AccessEngine::apply_delta`]), so the invalidation matrix lives in
//!   one place, under the one lock.
//!
//! A read holds one guard from start to finish, so every answer describes
//! one world. No method takes the read lock while it holds a guard: the
//! std `RwLock` behind the `parking_lot` stand-in prefers writers, so a
//! nested read deadlocks once an edit waits.

use crate::artifacts::{prepare_network, OfflineArtifacts};
use crate::config::PipelineConfig;
use crate::pipeline::{
    ssr_train_infer, FeatureRows, PipelineResult, Prepared, SsrPipeline, StageTimings,
};
use parking_lot::{RwLock, RwLockReadGuard};
use staq_access::{AccessQuery, QueryAnswer, ZoneMeasures};
use staq_geom::{KdTree, Point};
use staq_gtfs::time::{DayOfWeek, Stime};
use staq_gtfs::Delta;
use staq_obs::Counter;
use staq_synth::{City, Poi, PoiCategory, PoiId, ZoneId};
use staq_todam::{LabelEngine, Todam, ZoneStats};
use staq_transit::{AccessCost, Journey, Raptor, StopTables};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Warm reads: a published result served straight from the cache.
static CACHE_HITS: Counter = Counter::new("engine.cache.hits");
/// Cold reads that ran the SSR pipeline.
static CACHE_MISSES: Counter = Counter::new("engine.cache.misses");
/// Reads that joined another thread's in-flight compute (single-flight).
static CACHE_JOINS: Counter = Counter::new("engine.cache.joins");
/// Published category results retired (deltas) or dropped (`add_poi`)
/// by scenario edits.
static CACHE_INVALIDATIONS: Counter = Counter::new("engine.cache.invalidations");

/// The mutable world state: what scenario edits rewrite. `artifacts`
/// always describe `city` as it is now: a structural delta (the one edit
/// that changes the feed) rebuilds the hop trees of the zones it touched
/// and re-prepares the transit network under the same write lock, so
/// every reader's `plan` and labeling pass routes over tables that match
/// the feed it reads.
struct EngineState {
    city: City,
    artifacts: OfflineArtifacts,
    /// What each category derives from `city` and `artifacts` as they are
    /// now, indexed by `PoiCategory as usize`.
    derived: [Derived; PoiCategory::ALL.len()],
}

/// One category's pipeline stages 1–2 and its published result. Cells
/// are filled only inside `result`'s initializer, so a feature row cell
/// is only ever full beside the TODAM cell it was built from.
#[derive(Default)]
struct Derived {
    todam: OnceLock<Arc<Todam>>,
    features: OnceLock<Arc<FeatureRows>>,
    result: OnceLock<Arc<PipelineResult>>,
    /// The last result a delta retired from `result`: a fit the next cold
    /// read reuses when its inputs match bit for bit. It may describe an
    /// older world; the check compares values, not provenance.
    previous: Option<Arc<PipelineResult>>,
}

/// What [`AccessEngine::approx_config`] reports. Kept only because the
/// `staq-e2e` benchmark (`benchmark/src/workload.rs`) reads its one field
/// as the tolerance of its point-answer check.
#[derive(Debug, Clone)]
pub struct ApproxConfig {
    /// Acceptable |served − exact| MAC error, in cost-model units
    /// (seconds under JT).
    pub error_bound: f64,
}

/// Read guard over the engine's city. Derefs to [`City`]; holding it blocks
/// scenario edits, so keep it short-lived.
pub struct CityRef<'a> {
    guard: RwLockReadGuard<'a, EngineState>,
}

impl Deref for CityRef<'_> {
    type Target = City;
    fn deref(&self) -> &City {
        &self.guard.city
    }
}

/// A stateful engine over one (mutable) city, shareable across threads.
pub struct AccessEngine {
    config: PipelineConfig,
    /// Zones never change across scenario edits (edits add POIs and routes),
    /// so the zone lookup tree is built once here instead of per `add_poi`.
    zone_tree: KdTree,
    state: RwLock<EngineState>,
    pipeline_runs: AtomicU64,
}

impl AccessEngine {
    /// Builds offline artifacts for `city` (the expensive, once-per-interval
    /// step).
    pub fn new(city: City, config: PipelineConfig) -> Self {
        config.validate().expect("invalid engine config");
        let artifacts = OfflineArtifacts::build(&city, &config.todam.interval, &config.isochrone);
        let zone_tree = KdTree::build(&city.zone_points());
        AccessEngine {
            config,
            zone_tree,
            state: RwLock::new(EngineState { city, artifacts, derived: Default::default() }),
            pipeline_runs: AtomicU64::new(0),
        }
    }

    /// The stop tables of the live network, with the access cache every
    /// labeling worker, `plan` and what-if scenario over those stops
    /// shares. A delta replaces them only when it moves the stop set.
    pub fn stop_tables(&self) -> Arc<StopTables> {
        Arc::clone(self.state.read().artifacts.network.stops())
    }

    /// The tolerance of an approx-flagged point answer: zero, because the
    /// flag is answered exactly. Kept only while `benchmark/src/workload.rs`
    /// reads it.
    pub fn approx_config(&self) -> ApproxConfig {
        ApproxConfig { error_bound: 0.0 }
    }

    /// The current city state, behind a read guard.
    pub fn city(&self) -> CityRef<'_> {
        CityRef { guard: self.state.read() }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Number of SSR pipeline executions so far (one per solve, whether or
    /// not its TODAM and features were kept). Single-flight means this
    /// advances once per (category, edit-generation), no matter how many
    /// threads demand the result concurrently.
    pub fn pipeline_runs(&self) -> u64 {
        self.pipeline_runs.load(Ordering::Relaxed)
    }

    /// Categories with a published (warm) cache entry.
    pub fn cached_categories(&self) -> Vec<PoiCategory> {
        let state = self.state.read();
        PoiCategory::ALL
            .into_iter()
            .filter(|&c| state.derived[c as usize].result.get().is_some())
            .collect()
    }

    /// SSR measures for one category, cached until the next scenario edit.
    ///
    /// Concurrent callers for a cold category coalesce into one pipeline
    /// run; everyone gets the same shared result.
    pub fn measures(&self, category: PoiCategory) -> Arc<PipelineResult> {
        self.measures_in(&self.state.read(), category)
    }

    /// [`Self::measures`] in the world `state` pins. A cold read runs the
    /// pipeline inside the result cell's initializer, taking stages 1–2
    /// from their cells where they are still full (a kept stage reports
    /// 0 s); a caller whose initializer did not run joined another's.
    fn measures_in(&self, state: &EngineState, category: PoiCategory) -> Arc<PipelineResult> {
        let mut span = staq_obs::trace::span("engine.measures");
        let derived = &state.derived[category as usize];
        if let Some(result) = derived.result.get() {
            CACHE_HITS.inc();
            span.attr("cache_hit", 1);
            return Arc::clone(result);
        }
        let mut ran = false;
        let result = derived.result.get_or_init(|| {
            ran = true;
            let pipeline = SsrPipeline::new(&state.city, &state.artifacts, self.config.clone());
            let _run_span = staq_obs::trace::span("pipeline.run");
            let mut timings = StageTimings::default();
            let matrix = derived.todam.get_or_init(|| {
                let (matrix, secs) = pipeline.todam(category);
                timings.todam_secs = secs;
                matrix
            });
            let features = derived.features.get_or_init(|| {
                let (features, secs) = pipeline.features(matrix);
                timings.feature_secs = secs;
                features
            });
            let (matrix, features) = (Arc::clone(matrix), Arc::clone(features));
            let prepared = Prepared { matrix, features, timings };
            let result = Arc::new(pipeline.solve(&prepared, derived.previous.as_deref()));
            self.pipeline_runs.fetch_add(1, Ordering::Relaxed);
            result
        });
        if ran {
            CACHE_MISSES.inc();
            span.attr("cache_miss", 1);
        } else {
            CACHE_JOINS.inc();
            span.attr("cache_join", 1);
        }
        Arc::clone(result)
    }

    /// Answers an access query for one category via SSR measures.
    pub fn query(&self, q: &AccessQuery, category: PoiCategory) -> QueryAnswer {
        let state = self.state.read();
        let predicted = self.measures_in(&state, category);
        q.answer(&predicted.predicted, &state.city.zones)
    }

    /// [`Self::query`] under its old name. Kept only while
    /// `benchmark/src/layers.rs` times it as `core.query_approx_ns`.
    pub fn query_approx(&self, q: &AccessQuery, category: PoiCategory) -> QueryAnswer {
        self.query(q, category)
    }

    /// Answers `q` against an externally supplied measure vector (e.g. one
    /// scenario's [`Self::what_if`] outcome) using this engine's zone set
    /// for demographic weights.
    pub fn answer_with(&self, measures: &[ZoneMeasures], q: &AccessQuery) -> QueryAnswer {
        let state = self.state.read();
        q.answer(measures, &state.city.zones)
    }

    /// Adds a POI (e.g. a candidate vaccination site). No transit change:
    /// only the category's cached and retired results, TODAM and feature
    /// rows are dropped. Returns the new POI's id.
    pub fn add_poi(&self, category: PoiCategory, pos: Point) -> PoiId {
        let zone = ZoneId(self.zone_tree.nearest(&pos).expect("city has zones").item);
        let mut state = self.state.write();
        let id = PoiId(state.city.pois.len() as u32);
        state.city.pois.push(Poi { id, category, pos, zone });
        let dropped = std::mem::take(&mut state.derived[category as usize]);
        if dropped.result.get().is_some() {
            CACHE_INVALIDATIONS.inc();
        }
        id
    }

    /// Applies one streaming delta to the live world, **incrementally**: the
    /// feed index is mutated in place (no rebuild), then exactly the state
    /// the delta's [`staq_gtfs::Footprint`] says it changed is refreshed.
    ///
    /// Invalidation matrix:
    ///
    /// * `ServiceAlert` — advisory; nothing structural changed, no caches
    ///   touched, no locks taken, the prepared network kept.
    /// * An empty footprint (a repeated cancel or route removal, a zero
    ///   delay) — no call row changed, so the network, the hop trees and
    ///   every published result are kept.
    /// * Every other delta — the prepared transit network's trip
    ///   patterns are rebuilt from the mutated feed (once, under the write
    ///   lock), and its stop tables and access cache are kept unless the
    ///   stop positions changed (see `prepare_network`); the hops of each
    ///   footprint stop in the interval are rescanned, and hop trees are
    ///   rebuilt only for zones whose walkshed holds a stop whose hops
    ///   changed; and every category's published result is retired to
    ///   `previous` (the next cold read reuses its fit when the fit inputs
    ///   match bit for bit). Every kept TODAM survives (demand is
    ///   POI-driven); the kept feature rows are dropped only when a rebuilt
    ///   hop tree differs from the one it replaced.
    /// * `AddRoute` only — as the one delta that adds stops, it gets new
    ///   stop tables with a fresh, empty access cache. Delays,
    ///   cancellations and route removals keep every stop, so they keep
    ///   the stop tables and the warm cache.
    /// * `add_poi(c)` (not a delta) drops `c`'s result, retired result,
    ///   TODAM and feature rows, and nothing else.
    ///
    /// Rejected deltas (unknown ids, bad geometry) leave the world
    /// untouched.
    pub fn apply_delta(&self, delta: &Delta) -> Result<DeltaApplied, String> {
        let mut span = staq_obs::trace::span("engine.apply_delta");
        // An alert changes no call row: it skips the write lock.
        if !delta.is_structural() {
            span.attr("structural", 0);
            return Ok(DeltaApplied::default());
        }
        let mut state = self.state.write();
        let state = &mut *state;
        let bus_speed = state.city.config.bus_speed_mps;
        let footprint = state.city.feed.apply_delta(delta, bus_speed)?;
        span.attr("structural", !footprint.is_empty() as u64);
        if footprint.is_empty() {
            return Ok(DeltaApplied::default());
        }
        // The one place the feed changes: re-prepare the network here
        // so no reader ever routes over tables of an older feed.
        state.artifacts.rebuild_network(&state.city);

        // Incremental hop-tree rebuild: only the trees of zones whose
        // walkshed holds a footprint stop whose hops changed.
        let rebuilt = state.artifacts.store.rebuild_stops(&state.city, &footprint.stops());
        let mut invalidated = 0;
        for derived in &mut state.derived {
            if let Some(result) = derived.result.take() {
                derived.previous = Some(result);
                invalidated += 1;
            }
            if rebuilt.changed {
                derived.features.take();
            }
        }
        CACHE_INVALIDATIONS.add(invalidated as u64);
        Ok(DeltaApplied { structural: true, zones_rebuilt: rebuilt.zones, invalidated })
    }

    /// Evaluates `scenarios` (each a list of deltas) against the current
    /// world for one category, side by side, **without mutating anything**.
    ///
    /// A scenario's network is built the way a commit builds it: the
    /// deltas land on a copy of the feed through [`FeedIndex::apply_delta`]
    /// (so they are accepted, rejected and scheduled exactly as a commit
    /// would), and the scenario routes over tables prepared from that copy,
    /// sharing the live network's stop tables and warm access cache unless
    /// its deltas moved the stops. Everything else comes from the one
    /// shared base: the cached base measures supply the TODAM, the L/U
    /// split and the feature matrices (demand is POI-driven, so the TODAM
    /// is exact under schedule deltas; reusing base hop-tree features is
    /// the documented approximation). Per scenario, only labeling `L` over
    /// its network and retraining the SSR model run. Retraining is skipped
    /// when the scenario's targets equal the base's bit for bit (its L, U
    /// and features are the base's): the base fit is what it would return.
    ///
    /// An empty scenario reproduces the base measures bit-for-bit.
    ///
    /// [`FeedIndex::apply_delta`]: staq_gtfs::FeedIndex::apply_delta
    pub fn what_if(
        &self,
        category: PoiCategory,
        scenarios: &[Vec<Delta>],
    ) -> Result<Vec<ScenarioOutcome>, String> {
        let mut span = staq_obs::trace::span("engine.what_if");
        span.attr("scenarios", scenarios.len() as u64);
        let state = self.state.read();
        let base = self.measures_in(&state, category);
        let bus_speed = state.city.config.bus_speed_mps;
        let cost_model = AccessCost::of(self.config.cost);
        let mut out = Vec::with_capacity(scenarios.len());
        for deltas in scenarios {
            let mut feed = state.city.feed.clone();
            for delta in deltas {
                feed.apply_delta(delta, bus_speed)?;
            }
            let tables = prepare_network(&state.city.road, &feed, Some(&state.artifacts.network));
            let net = tables.view(&state.city.road, &feed);
            let labeler = LabelEngine::with_network(
                &state.city,
                net,
                cost_model,
                self.config.todam.interval.clone(),
            );
            let labeled_stats: Vec<ZoneStats> = labeler
                .label_zones(&base.matrix, &base.labeled)
                .into_iter()
                .map(|s| s.expect("base-labeled zone must relabel under the scenario"))
                .collect();
            let (l, u, x_l, x_u) =
                (&base.labeled, &base.unlabeled, &base.x_labeled, &base.x_unlabeled);
            let predicted = base.reuse_fit(l, u, x_l, x_u, &labeled_stats).unwrap_or_else(|| {
                ssr_train_infer(&state.city, &self.config, l, u, x_l, x_u, &labeled_stats)
            });
            out.push(ScenarioOutcome { predicted, labeled_stats });
        }
        Ok(out)
    }

    /// Point-to-point journey planning against the live timetable (the
    /// state every applied delta has already rewritten), routed over the
    /// engine's prepared network. With a transfer cap the answer is the
    /// single fastest journey using at most `max_transfers` transfers;
    /// without one it is the whole Pareto (arrival, transfers) frontier,
    /// transfers ascending.
    pub fn plan(
        &self,
        origin: Point,
        dest: Point,
        depart: Stime,
        day: DayOfWeek,
        max_transfers: Option<u8>,
    ) -> Vec<Journey> {
        let mut span = staq_obs::trace::span("engine.plan");
        let state = self.state.read();
        let net = state.artifacts.network.view(&state.city.road, &state.city.feed);
        let router = Raptor::new(&net);
        let journeys = match max_transfers {
            Some(k) => vec![router.query_max_transfers(&origin, &dest, depart, day, k)],
            None => router.query_pareto(&origin, &dest, depart, day),
        };
        span.attr("journeys", journeys.len() as u64);
        journeys
    }
}

/// What [`AccessEngine::apply_delta`] did — the invalidation receipt. The
/// default is the receipt of a delta that changed nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeltaApplied {
    /// True when the delta's footprint is non-empty: it changed a call
    /// row. False for alerts and for no-op edits, which change nothing
    /// below.
    pub structural: bool,
    /// Zones whose hop trees were incrementally rebuilt.
    pub zones_rebuilt: usize,
    /// Categories whose published result was retired. A category no read
    /// measured since the last edit counts 0, and no run can be in flight:
    /// it would hold the read lock the edit waited for.
    pub invalidated: usize,
}

/// One counterfactual scenario's evaluation from [`AccessEngine::what_if`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Access measures per zone under the scenario (same zone set as the
    /// base measures: truth for `L`, inference for `U`).
    pub predicted: Vec<ZoneMeasures>,
    /// Counterfactual ground-truth stats for the labeled zones.
    pub labeled_stats: Vec<ZoneStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_ml::ModelKind;
    use staq_synth::CityConfig;
    use staq_todam::TodamSpec;

    fn engine() -> AccessEngine {
        let city = City::generate(&CityConfig::small(42));
        let config = PipelineConfig {
            beta: 0.25,
            model: ModelKind::Ols,
            todam: TodamSpec { per_hour: 3, ..Default::default() },
            ..Default::default()
        };
        AccessEngine::new(city, config)
    }

    #[test]
    fn queries_answer_from_ssr_measures() {
        let e = engine();
        let a = e.query(&AccessQuery::MeanAccess, PoiCategory::School);
        match a {
            QueryAnswer::MeanAccess { mean_mac, n_zones, .. } => {
                assert!(mean_mac > 0.0);
                assert!(n_zones > 0);
            }
            other => panic!("{other:?}"),
        }
        // Second call hits the cache: the very same result object, and no
        // extra pipeline execution.
        let r1 = e.measures(PoiCategory::School);
        let r2 = e.measures(PoiCategory::School);
        assert!(Arc::ptr_eq(&r1, &r2));
        assert_eq!(e.pipeline_runs(), 1);
    }

    #[test]
    fn add_poi_invalidates_only_its_category() {
        let e = engine();
        let _ = e.measures(PoiCategory::School);
        let _ = e.measures(PoiCategory::Hospital);
        assert_eq!(e.cached_categories().len(), 2);
        let center = e.city().cores[0];
        let id = e.add_poi(PoiCategory::School, center);
        assert_eq!(id.idx(), e.city().pois.len() - 1);
        assert_eq!(e.cached_categories(), vec![PoiCategory::Hospital]);
    }

    #[test]
    fn concurrent_cold_reads_run_pipeline_once() {
        let e = Arc::new(engine());
        let results: Vec<Arc<PipelineResult>> = crossbeam::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let e = Arc::clone(&e);
                    scope.spawn(move |_| e.measures(PoiCategory::School))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .unwrap();
        assert_eq!(e.pipeline_runs(), 1, "single-flight must coalesce cold reads");
        for r in &results[1..] {
            assert!(Arc::ptr_eq(&results[0], r), "all callers share one result");
        }
    }

    #[test]
    fn adding_a_poi_improves_nearby_access() {
        // Causal check against *ground truth* (SSR predictions add model
        // noise that could mask a small improvement): a hospital placed at
        // the worst-served zone lowers mean access cost.
        use crate::naive::NaiveResult;
        use staq_transit::CostKind;

        let e = engine();
        let spec = e.config().todam.clone();
        let before = NaiveResult::compute(&e.city(), &spec, PoiCategory::Hospital, CostKind::Jt);
        let worst =
            *before.measures.iter().max_by(|a, b| a.mac.partial_cmp(&b.mac).unwrap()).unwrap();
        let pos = e.city().zone_centroid(worst.zone);
        e.add_poi(PoiCategory::Hospital, pos);
        let after = NaiveResult::compute(&e.city(), &spec, PoiCategory::Hospital, CostKind::Jt);
        let worst_after =
            after.measures.iter().find(|m| m.zone == worst.zone).expect("worst zone still labeled");
        // Note: the *city mean* MAC may legitimately rise — under gravity
        // trip redistribution a new attractor pulls trips toward itself from
        // zones it is far from. The zone that received the hospital,
        // however, must improve: its nearest hospital is now at distance
        // ~0 and dominates its attractiveness.
        assert!(
            worst_after.mac < worst.mac,
            "hospital at the worst zone must improve that zone: {} -> {}",
            worst.mac,
            worst_after.mac
        );
    }

    #[test]
    fn classification_query_covers_predicted_zones() {
        let e = engine();
        let n = e.measures(PoiCategory::School).predicted.len();
        match e.query(&AccessQuery::Classification, PoiCategory::School) {
            QueryAnswer::Classification(classes) => {
                assert_eq!(classes.len(), n);
                // All four quadrants exist in a heterogeneous city... at
                // least two distinct classes must appear.
                let distinct: std::collections::HashSet<_> =
                    classes.iter().map(|(_, c)| c.label()).collect();
                assert!(distinct.len() >= 2, "degenerate classification {distinct:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_new_bus_route_rebuilds_affected_zones() {
        let e = engine();
        let _ = e.measures(PoiCategory::School);
        let (a, b) = {
            let city = e.city();
            (city.zones[0].centroid, city.cores[0])
        };
        let mid = a.midpoint(&b);
        let route = Delta::AddRoute { stops: vec![a, mid, b], headway_s: 600 };
        let n = e.apply_delta(&route).expect("a three-stop route applies").zones_rebuilt;
        assert!(n > 0, "route through the city must touch some walkshed");
        assert!(e.cached_categories().is_empty(), "schedule edits invalidate all caches");
        // Engine still answers queries afterwards.
        let ans = e.query(&AccessQuery::MeanAccess, PoiCategory::School);
        assert!(matches!(ans, QueryAnswer::MeanAccess { .. }));
    }

    #[test]
    fn route_needs_two_stops() {
        let e = engine();
        let route = Delta::AddRoute { stops: vec![Point::new(0.0, 0.0)], headway_s: 600 };
        let err = e.apply_delta(&route).expect_err("a one-stop route is refused");
        assert!(err.contains("two stops"), "{err}");
    }

    #[test]
    fn advisories_keep_the_prepared_network_and_structural_deltas_replace_it() {
        use staq_gtfs::model::{RouteId, TripId};
        let e = engine();
        let tables = |e: &AccessEngine| Arc::clone(&e.state.read().artifacts.network);
        let before = tables(&e);
        let alert = Delta::ServiceAlert { route: RouteId(0), message: "advisory".into() };
        e.apply_delta(&alert).expect("advisory applies");
        assert!(Arc::ptr_eq(&before, &tables(&e)), "an advisory must keep the tables");
        e.apply_delta(&Delta::TripDelay { trip: TripId(0), delay_secs: 120 }).expect("delay");
        let after = tables(&e);
        assert!(!Arc::ptr_eq(&before, &after), "a structural delta must rebuild them");
        assert!(Arc::ptr_eq(before.stops(), after.stops()), "a delay must keep the stop tables");
    }

    /// A repeated cancel or route removal changes no call row: its empty
    /// footprint keeps the network, the hop trees and every published
    /// result, so the next read relabels nothing.
    #[test]
    fn a_no_op_delta_keeps_the_network_and_every_published_result() {
        use staq_gtfs::model::{RouteId, TripId};
        let e = engine();
        let network = |e: &AccessEngine| Arc::clone(&e.state.read().artifacts.network);
        for delta in
            [Delta::TripCancel { trip: TripId(0) }, Delta::RouteRemove { route: RouteId(1) }]
        {
            assert!(e.apply_delta(&delta).expect("first apply").structural);
            let _ = e.measures(PoiCategory::School);
            let (runs, before) = (e.pipeline_runs(), network(&e));
            let again = e.apply_delta(&delta).expect("a repeat applies");
            assert_eq!(again, DeltaApplied::default(), "{delta:?} changed nothing");
            assert_eq!(e.cached_categories(), vec![PoiCategory::School], "{delta:?}");
            let _ = e.measures(PoiCategory::School);
            assert_eq!(e.pipeline_runs(), runs, "{delta:?} must not relabel");
            assert!(Arc::ptr_eq(&before, &network(&e)), "{delta:?} must keep the network");
        }
    }

    #[test]
    fn bad_scenarios_are_rejected_and_leave_the_engine_as_it_was() {
        use staq_gtfs::model::{RouteId, TripId};
        let e = engine();
        let mean_bits =
            |e: &AccessEngine| match e.query(&AccessQuery::MeanAccess, PoiCategory::School) {
                QueryAnswer::MeanAccess { mean_mac, .. } => mean_mac.to_bits(),
                other => panic!("{other:?}"),
            };
        let before = mean_bits(&e);
        let runs = e.pipeline_runs();
        let (n_trips, n_routes) = {
            let city = e.city();
            (city.feed.feed().trips.len() as u32, city.feed.feed().routes.len() as u32)
        };
        let (a, b) = (Point::new(0.0, 0.0), Point::new(800.0, 0.0));
        let route = |stops: Vec<Point>| Delta::AddRoute { stops, headway_s: 600 };
        let bad = [
            (Delta::TripCancel { trip: TripId(n_trips + 7) }, "unknown trip"),
            (Delta::TripDelay { trip: TripId(n_trips), delay_secs: 60 }, "unknown trip"),
            (Delta::RouteRemove { route: RouteId(n_routes) }, "unknown route"),
            (route(vec![a]), "two stops"),
            (route(vec![a, a, b]), "coincide"),
            (route(vec![a, Point::new(f64::NAN, 0.0)]), "finite"),
        ];
        for (delta, why) in bad {
            // A valid delta first: a rejected scenario must leave no trace
            // of the deltas that did apply to its copy of the feed.
            let scenario = vec![Delta::TripDelay { trip: TripId(0), delay_secs: 300 }, delta];
            let err = e.what_if(PoiCategory::School, &[vec![], scenario]).expect_err(why);
            assert!(err.contains(why), "{why}: {err}");
            assert_eq!(e.pipeline_runs(), runs, "{why}: a rejected scenario reran the pipeline");
            assert_eq!(mean_bits(&e), before, "{why}: a rejected scenario moved the answer");
        }
        let out = e.what_if(PoiCategory::School, &[vec![]]).expect("the next what-if answers");
        assert_eq!(out[0].predicted, e.measures(PoiCategory::School).predicted);
    }

    /// Each category's measured TODAM and its kept feature rows.
    fn kept_stages(e: &AccessEngine) -> Vec<(Arc<Todam>, Arc<FeatureRows>)> {
        PoiCategory::ALL
            .iter()
            .map(|c| {
                let matrix = Arc::clone(&e.measures(*c).matrix);
                let features = e.state.read().derived[*c as usize].features.get().cloned();
                (matrix, features.expect("a measured category keeps its feature rows"))
            })
            .collect()
    }

    #[test]
    fn deltas_keep_every_todam_and_drop_features_only_when_a_tree_changed() {
        use staq_gtfs::model::TripId;
        let e = engine();
        let before = kept_stages(&e);
        // A Saturday trip counts in no tree of the Tuesday AM peak.
        let trip = {
            let feed = &e.city().feed;
            (0..feed.feed().trips.len() as u32)
                .map(TripId)
                .find(|&t| !feed.trip_runs_on(t, DayOfWeek::Tuesday))
                .expect("a Saturday-only trip")
        };
        e.apply_delta(&Delta::TripDelay { trip, delay_secs: 30 }).expect("delay");
        let after_delay = kept_stages(&e);
        for (c, (b, a)) in PoiCategory::ALL.iter().zip(before.iter().zip(&after_delay)) {
            assert!(Arc::ptr_eq(&b.0, &a.0), "a TripDelay must keep {c}'s TODAM");
            assert!(Arc::ptr_eq(&b.1, &a.1), "a tree-preserving delay must keep {c}'s features");
            let t = e.measures(*c).timings;
            assert_eq!((t.todam_secs, t.feature_secs), (0.0, 0.0), "{c} reran a kept stage");
        }

        let (a, b) = (e.city().zones[0].centroid, e.city().cores[0]);
        e.apply_delta(&Delta::AddRoute { stops: vec![a, a.midpoint(&b), b], headway_s: 600 })
            .expect("route");
        let after_route = kept_stages(&e);
        for (c, (b, a)) in PoiCategory::ALL.iter().zip(after_delay.iter().zip(&after_route)) {
            assert!(Arc::ptr_eq(&b.0, &a.0), "an AddRoute must keep {c}'s TODAM");
            assert!(!Arc::ptr_eq(&b.1, &a.1), "an AddRoute must rebuild {c}'s features");
            let t = e.measures(*c).timings;
            assert!(t.todam_secs == 0.0 && t.feature_secs > 0.0, "{c}: {t:?}");
        }
    }

    #[test]
    fn add_poi_replaces_only_its_own_categorys_todam() {
        let e = engine();
        let school = Arc::clone(&e.measures(PoiCategory::School).matrix);
        let hospital = Arc::clone(&e.measures(PoiCategory::Hospital).matrix);
        let center = e.city().cores[0];
        e.add_poi(PoiCategory::School, center);
        let school_after = e.measures(PoiCategory::School);
        assert!(!Arc::ptr_eq(&school, &school_after.matrix), "School's TODAM must be rebuilt");
        assert_eq!(school_after.matrix.pois.len(), school.pois.len() + 1);
        assert!(school_after.timings.todam_secs > 0.0 && school_after.timings.feature_secs > 0.0);
        let kept_hospital =
            e.state.read().derived[PoiCategory::Hospital as usize].todam.get().cloned();
        let kept_hospital = kept_hospital.expect("Hospital keeps its TODAM");
        assert!(Arc::ptr_eq(&hospital, &kept_hospital), "Hospital's TODAM must be kept");
    }

    #[test]
    fn labeling_fills_the_stop_tables_access_cache() {
        let e = engine();
        let stops = e.stop_tables();
        assert!(stops.access_cache().is_empty());
        let _ = e.measures(PoiCategory::School);
        assert!(!stops.access_cache().is_empty(), "labeling must fill the access cache");
    }
}
