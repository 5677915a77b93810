//! The SSR solution pipeline (paper Fig. 1 / §IV).
//!
//! Stages, each individually timed because Table II prices them:
//!
//! 1. **TODAM construction** — gravity-gated trip sampling.
//! 2. **Feature extraction** — OD features from hop trees, α-aggregated to
//!    the origin level.
//! 3. **Sampling** — random β-fraction of zones into the labeled set `L`.
//! 4. **Labeling** — real SPQs for `L`'s trips only, routed over the
//!    artifacts' prepared transit network.
//! 5. **SSR** — train on `L`, infer `U`.
//!
//! [`SsrPipeline::run`] is [`SsrPipeline::prepare`] (stages 1–2, a
//! [`Prepared`] state) then [`SsrPipeline::solve`] (stages 3–5), so the
//! paper binaries charge every stage to every run. The engine calls the two
//! halves itself: it keeps each category's TODAM across schedule deltas and
//! its feature rows until a hop tree changes, so a cold read after a
//! tree-preserving edit only samples, labels and trains, and reports 0 s
//! (and records no stage sample) for the stages it skipped.
//!
//! The fit is a deterministic function of `(L, U, X_L, X_U, y_L)` and the
//! config, so `solve` also takes the result an edit retired: when the new
//! run's fit inputs equal that result's bit for bit, its `predicted` is
//! what training would return, and stage 5 is skipped the same way.

use crate::artifacts::OfflineArtifacts;
use crate::config::PipelineConfig;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use staq_access::ZoneMeasures;
use staq_hoptree::{aggregate, FeatureExtractor, FEATURE_DIM};
use staq_ml::{Matrix, SparseAdj, SsrTask};
use staq_obs::{trace, AtomicHistogram, Counter};
use staq_synth::{City, PoiCategory, ZoneId};
use staq_todam::{LabelEngine, Todam, ZoneStats};
use staq_transit::AccessCost;
use std::sync::Arc;
use std::time::Instant;

/// Full pipeline passes completed.
static PIPELINE_RUNS: Counter = Counter::new("pipeline.runs");
/// Stage walltimes, one histogram per stage so relative cost (Table II's
/// breakdown) is readable straight off a [`staq_obs::snapshot`].
static STAGE_TODAM: AtomicHistogram = AtomicHistogram::new("pipeline.stage.todam");
static STAGE_FEATURES: AtomicHistogram = AtomicHistogram::new("pipeline.stage.features");
static STAGE_SAMPLING: AtomicHistogram = AtomicHistogram::new("pipeline.stage.sampling");
static STAGE_LABELING: AtomicHistogram = AtomicHistogram::new("pipeline.stage.labeling");
static STAGE_TRAIN: AtomicHistogram = AtomicHistogram::new("pipeline.stage.train");
/// Fits taken from an earlier result whose fit inputs matched bit for bit
/// (stage 5 skipped by `solve`, for a read or a what-if scenario alike).
static FITS_REUSED: Counter = Counter::new("pipeline.fits_reused");

/// Wall-clock seconds per stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageTimings {
    pub todam_secs: f64,
    pub feature_secs: f64,
    /// Drawing the labeled set `L` (cheap, but β-strategy dependent).
    pub sampling_secs: f64,
    pub label_secs: f64,
    pub train_secs: f64,
}

impl StageTimings {
    /// End-to-end solution cost (Table II's "Solution Cost").
    pub fn total(&self) -> f64 {
        self.todam_secs + self.feature_secs + self.sampling_secs + self.label_secs + self.train_secs
    }
}

/// Origin feature rows, one per zone in id order; `None` for a zone that
/// attracts no POI.
pub type FeatureRows = Vec<Option<[f64; FEATURE_DIM]>>;

/// Stages 1–2 of a run for one category: what [`SsrPipeline::solve`]
/// samples, labels and trains on. The TODAM depends only on zones and POIs;
/// the feature rows also depend on the hop trees. Both are shared, so a
/// holder can keep them across runs while those inputs stand.
pub struct Prepared {
    pub matrix: Arc<Todam>,
    pub features: Arc<FeatureRows>,
    /// `todam_secs` and `feature_secs` spent building this state; 0 for a
    /// stage whose output was kept from an earlier run.
    pub timings: StageTimings,
}

/// Output of one pipeline run.
pub struct PipelineResult {
    /// The gravity matrix used, shared with the [`Prepared`] state.
    pub matrix: Arc<Todam>,
    /// Zones labeled with real SPQs.
    pub labeled: Vec<ZoneId>,
    /// Zones whose measures were inferred.
    pub unlabeled: Vec<ZoneId>,
    /// Ground-truth stats for the labeled zones (aligned with `labeled`).
    pub labeled_stats: Vec<ZoneStats>,
    /// Measures for every eligible zone — SPQ-labeled for `labeled`,
    /// model-inferred for `unlabeled`.
    pub predicted: Vec<ZoneMeasures>,
    /// Feature matrix of the labeled zones (row order = `labeled`), retained
    /// so a later solve can compare its fit inputs with this result's.
    pub x_labeled: Matrix,
    /// Feature matrix of the unlabeled zones (row order = `unlabeled`).
    pub x_unlabeled: Matrix,
    /// Trips actually routed (β of the matrix).
    pub labeled_trips: usize,
    pub timings: StageTimings,
}

impl PipelineResult {
    /// This result's `predicted` when a fit on the given inputs would
    /// reproduce it: the same `L` and `U`, and the same features and
    /// targets (`mac`, `acsd`) compared by `f64::to_bits`. Comparing
    /// values rather than provenance means no invalidation rule has to be
    /// right for the reuse to be exact.
    fn reuse_fit(
        &self,
        labeled: &[ZoneId],
        unlabeled: &[ZoneId],
        x_labeled: &Matrix,
        x_unlabeled: &Matrix,
        labeled_stats: &[ZoneStats],
    ) -> Option<Vec<ZoneMeasures>> {
        let same_bits = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let same_matrix = |a: &Matrix, b: &Matrix| {
            (a.rows(), a.cols()) == (b.rows(), b.cols()) && same_bits(a.data(), b.data())
        };
        let targets = |stats: &[ZoneStats]| -> Vec<f64> {
            stats.iter().flat_map(|s| [s.mac, s.acsd]).collect()
        };
        let matches = self.labeled == labeled
            && self.unlabeled == unlabeled
            && same_matrix(&self.x_labeled, x_labeled)
            && same_matrix(&self.x_unlabeled, x_unlabeled)
            && same_bits(&targets(&self.labeled_stats), &targets(labeled_stats));
        matches.then(|| {
            FITS_REUSED.inc();
            self.predicted.clone()
        })
    }

    /// Predicted measures of the unlabeled zones only (evaluation set).
    pub fn predicted_unlabeled(&self) -> Vec<ZoneMeasures> {
        // Two-pointer merge: `predicted` is sorted by zone and `unlabeled`
        // ascends (it filters the ascending eligible list), so no per-call
        // set needs building.
        let mut out = Vec::with_capacity(self.unlabeled.len());
        let mut i = 0;
        for &z in &self.unlabeled {
            while i < self.predicted.len() && self.predicted[i].zone < z {
                i += 1;
            }
            if i < self.predicted.len() && self.predicted[i].zone == z {
                out.push(self.predicted[i]);
                i += 1;
            }
        }
        out
    }
}

/// The SSR pipeline bound to a city and its offline artifacts.
pub struct SsrPipeline<'a> {
    pub city: &'a City,
    pub artifacts: &'a OfflineArtifacts,
    pub config: PipelineConfig,
}

impl<'a> SsrPipeline<'a> {
    /// Creates a pipeline; validates the configuration.
    pub fn new(city: &'a City, artifacts: &'a OfflineArtifacts, config: PipelineConfig) -> Self {
        config.validate().expect("invalid pipeline config");
        SsrPipeline { city, artifacts, config }
    }

    /// Runs the full pipeline for one POI category: [`Self::prepare`], then
    /// [`Self::solve`] with no earlier result, so every stage is charged to
    /// the run.
    pub fn run(&self, category: PoiCategory) -> PipelineResult {
        let _run_span = trace::span("pipeline.run");
        self.solve(&self.prepare(category), None)
    }

    /// Stages 1–2: the category's TODAM and its origin feature rows.
    pub fn prepare(&self, category: PoiCategory) -> Prepared {
        let (matrix, todam_secs) = self.todam(category);
        let (features, feature_secs) = self.features(&matrix);
        let timings = StageTimings { todam_secs, feature_secs, ..Default::default() };
        Prepared { matrix, features, timings }
    }

    /// Stage 1 alone, with its seconds.
    pub(crate) fn todam(&self, category: PoiCategory) -> (Arc<Todam>, f64) {
        stage(&STAGE_TODAM, "pipeline.stage.todam", || {
            Arc::new(self.config.todam.build(self.city, category))
        })
    }

    /// Stage 2 alone: features for every zone (α-weighted origin level),
    /// with its seconds.
    pub(crate) fn features(&self, matrix: &Todam) -> (Arc<FeatureRows>, f64) {
        stage(&STAGE_FEATURES, "pipeline.stage.features", || {
            let mut fx = FeatureExtractor::new(self.city, &self.artifacts.store);
            fx.use_interchanges = self.config.use_interchange_features;
            fx.max_hops = self.config.max_hops;
            Arc::new(aggregate::all_origin_features(&fx, self.city, matrix))
        })
    }

    /// Stages 3–5 on a prepared state: sample `L`, label it, train and
    /// infer. `prepared` must describe this pipeline's city and store.
    ///
    /// `previous` is an earlier result for the same category, from any
    /// world. Labeling always runs; when the fit inputs then equal
    /// `previous`'s bit for bit (see `PipelineResult::reuse_fit`), its
    /// `predicted` is taken instead of training, and `train_secs` is 0.
    pub fn solve(&self, prepared: &Prepared, previous: Option<&PipelineResult>) -> PipelineResult {
        let cfg = &self.config;
        let (matrix, feats) = (&prepared.matrix, &prepared.features);

        // Eligible zones: have features and at least one trip to label.
        let eligible: Vec<ZoneId> = (0..self.city.n_zones() as u32)
            .map(ZoneId)
            .filter(|&z| feats[z.idx()].is_some() && !matrix.zone_trips(z).is_empty())
            .collect();
        assert!(
            eligible.len() >= 4,
            "too few eligible zones ({}) for an SSR split",
            eligible.len()
        );

        // 3. Draw L at budget β.
        let ((labeled, unlabeled), sampling_secs) =
            stage(&STAGE_SAMPLING, "pipeline.stage.sampling", || {
                let n_l = ((eligible.len() as f64 * cfg.beta).ceil() as usize)
                    .clamp(2, eligible.len() - 1);
                let labeled = match cfg.sampling {
                    crate::config::SamplingStrategy::Random => {
                        let mut order = eligible.clone();
                        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBE7A);
                        order.shuffle(&mut rng);
                        order.truncate(n_l);
                        order
                    }
                    crate::config::SamplingStrategy::SpatialCoverage => {
                        farthest_point_sample(self.city, &eligible, n_l, cfg.seed)
                    }
                };
                let labeled_set: std::collections::HashSet<ZoneId> =
                    labeled.iter().copied().collect();
                let unlabeled: Vec<ZoneId> =
                    eligible.iter().copied().filter(|z| !labeled_set.contains(z)).collect();
                (labeled, unlabeled)
            });

        // 4. Label L with real SPQs.
        let cost_model = AccessCost::of(cfg.cost);
        let net = self.artifacts.network.view(&self.city.road, &self.city.feed);
        let engine =
            LabelEngine::with_network(self.city, net, cost_model, cfg.todam.interval.clone());
        let (stats, label_secs) = stage(&STAGE_LABELING, "pipeline.stage.labeling", || {
            engine.label_zones(matrix, &labeled)
        });
        let labeled_trips = engine.trip_count(matrix, &labeled);
        // Eligibility guarantees trips, so every labeled zone has stats.
        let labeled_stats: Vec<ZoneStats> =
            stats.into_iter().map(|s| s.expect("eligible zone must label")).collect();

        // 5. SSR train + infer, unless `previous` already holds this fit.
        let x_labeled = feature_matrix(feats, &labeled);
        let x_unlabeled = feature_matrix(feats, &unlabeled);
        let reused = previous.and_then(|p| {
            p.reuse_fit(&labeled, &unlabeled, &x_labeled, &x_unlabeled, &labeled_stats)
        });
        let (predicted, train_secs) = match reused {
            Some(predicted) => (predicted, 0.0),
            None => stage(&STAGE_TRAIN, "pipeline.stage.train", || {
                ssr_train_infer(
                    self.city,
                    cfg,
                    &labeled,
                    &unlabeled,
                    &x_labeled,
                    &x_unlabeled,
                    &labeled_stats,
                )
            }),
        };
        PIPELINE_RUNS.inc();

        PipelineResult {
            matrix: Arc::clone(matrix),
            labeled,
            unlabeled,
            labeled_stats,
            predicted,
            x_labeled,
            x_unlabeled,
            labeled_trips,
            timings: StageTimings { sampling_secs, label_secs, train_secs, ..prepared.timings },
        }
    }
}

/// Runs one stage under its trace span, records its walltime in `hist`,
/// and returns its output with its seconds.
fn stage<T>(hist: &'static AtomicHistogram, span: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = {
        let _span = trace::span(span);
        f()
    };
    let elapsed = t0.elapsed();
    hist.record(elapsed);
    (out, elapsed.as_secs_f64())
}

/// Greedy k-center sampling: start from the zone nearest the seed-chosen
/// centroid, then repeatedly add the eligible zone farthest from the chosen
/// set. Guarantees spatial coverage: every zone lies within the final
/// covering radius of a labeled zone.
fn farthest_point_sample(city: &City, eligible: &[ZoneId], k: usize, seed: u64) -> Vec<ZoneId> {
    assert!(!eligible.is_empty());
    // Centroids once up front — the update loop runs k·n times and
    // `zone_centroid` is not free.
    let cents: Vec<_> = eligible.iter().map(|&z| city.zone_centroid(z)).collect();
    let first_idx = (seed as usize) % eligible.len();
    let mut chosen = vec![eligible[first_idx]];
    // Distance from each eligible zone to the nearest chosen zone.
    let mut dist: Vec<f64> = cents.iter().map(|c| c.dist(&cents[first_idx])).collect();
    while chosen.len() < k {
        let (best_idx, _) =
            dist.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).expect("nonempty");
        chosen.push(eligible[best_idx]);
        let np = cents[best_idx];
        for (d, c) in dist.iter_mut().zip(&cents) {
            *d = d.min(c.dist(&np));
        }
    }
    chosen
}

/// Stage 5 proper: train the configured SSR model on `(x_labeled,
/// labeled_stats)`, infer the unlabeled zones, and assemble the full
/// per-zone measure list (truth for `L`, clamped inference for `U`), sorted
/// by zone.
pub fn ssr_train_infer(
    city: &City,
    cfg: &PipelineConfig,
    labeled: &[ZoneId],
    unlabeled: &[ZoneId],
    x_labeled: &Matrix,
    x_unlabeled: &Matrix,
    labeled_stats: &[ZoneStats],
) -> Vec<ZoneMeasures> {
    let y_labeled =
        Matrix::from_rows(&labeled_stats.iter().map(|s| vec![s.mac, s.acsd]).collect::<Vec<_>>());
    // GNN needs adjacency in L-then-U row order.
    let adjacency = if cfg.model == staq_ml::ModelKind::Gnn {
        let coords: Vec<(f64, f64)> = labeled
            .iter()
            .chain(unlabeled)
            .map(|z| {
                let c = city.zone_centroid(*z);
                (c.x, c.y)
            })
            .collect();
        Some(SparseAdj::gaussian_threshold(&coords, 12, 1e-4, None))
    } else {
        None
    };
    let task = SsrTask {
        x_labeled,
        y_labeled: &y_labeled,
        x_unlabeled,
        adjacency: adjacency.as_ref(),
        seed: cfg.seed,
    };
    let model = cfg.model.build();
    let pred = model.fit_predict(&task);

    // Assemble: truth for L, inference for U (costs clamped to their
    // physical domain: non-negative).
    let mut predicted = Vec::with_capacity(labeled.len() + unlabeled.len());
    for (z, s) in labeled.iter().zip(labeled_stats) {
        predicted.push(ZoneMeasures { zone: *z, mac: s.mac, acsd: s.acsd });
    }
    for (k, z) in unlabeled.iter().enumerate() {
        predicted.push(ZoneMeasures {
            zone: *z,
            mac: pred[(k, 0)].max(0.0),
            acsd: pred[(k, 1)].max(0.0),
        });
    }
    predicted.sort_by_key(|m| m.zone);
    predicted
}

fn feature_matrix(feats: &FeatureRows, zones: &[ZoneId]) -> Matrix {
    Matrix::from_rows(
        &zones
            .iter()
            .map(|z| feats[z.idx()].expect("eligible zone has features").to_vec())
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_gtfs::time::TimeInterval;
    use staq_ml::ModelKind;
    use staq_road::IsochroneParams;
    use staq_synth::CityConfig;
    use staq_todam::TodamSpec;

    fn setup() -> (City, OfflineArtifacts) {
        let city = City::generate(&CityConfig::small(42));
        let artifacts =
            OfflineArtifacts::build(&city, &TimeInterval::am_peak(), &IsochroneParams::default());
        (city, artifacts)
    }

    fn quick_config(beta: f64, model: ModelKind) -> PipelineConfig {
        PipelineConfig {
            beta,
            model,
            todam: TodamSpec { per_hour: 4, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_produces_full_coverage() {
        let (city, artifacts) = setup();
        let p = SsrPipeline::new(&city, &artifacts, quick_config(0.2, ModelKind::Ols));
        let r = p.run(PoiCategory::School);
        assert_eq!(r.predicted.len(), r.labeled.len() + r.unlabeled.len());
        assert!(r.labeled.len() >= 2);
        assert!(!r.unlabeled.is_empty());
        for m in &r.predicted {
            assert!(m.mac.is_finite() && m.mac >= 0.0);
            assert!(m.acsd.is_finite() && m.acsd >= 0.0);
        }
        assert!(r.timings.label_secs > 0.0);
        assert!(r.timings.total() > 0.0);
    }

    #[test]
    fn beta_controls_labeled_fraction_and_cost() {
        let (city, artifacts) = setup();
        let small = SsrPipeline::new(&city, &artifacts, quick_config(0.05, ModelKind::Ols))
            .run(PoiCategory::School);
        let large = SsrPipeline::new(&city, &artifacts, quick_config(0.3, ModelKind::Ols))
            .run(PoiCategory::School);
        assert!(large.labeled.len() > small.labeled.len() * 3);
        assert!(large.labeled_trips > small.labeled_trips);
    }

    #[test]
    fn labeled_zones_carry_ground_truth() {
        let (city, artifacts) = setup();
        let r = SsrPipeline::new(&city, &artifacts, quick_config(0.2, ModelKind::Ols))
            .run(PoiCategory::Hospital);
        for (z, s) in r.labeled.iter().zip(&r.labeled_stats) {
            let m = r.predicted.iter().find(|m| m.zone == *z).unwrap();
            assert_eq!(m.mac, s.mac);
            assert_eq!(m.acsd, s.acsd);
        }
    }

    #[test]
    fn all_models_run_end_to_end() {
        let (city, artifacts) = setup();
        for model in ModelKind::ALL {
            let mut cfg = quick_config(0.2, model);
            // Cheap training settings would live on the models; defaults are
            // small enough for the 120-zone city.
            cfg.seed = 3;
            let r = SsrPipeline::new(&city, &artifacts, cfg).run(PoiCategory::VaxCenter);
            assert!(
                r.predicted.iter().all(|m| m.mac.is_finite()),
                "model {model} produced non-finite MAC"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (city, artifacts) = setup();
        let a = SsrPipeline::new(&city, &artifacts, quick_config(0.1, ModelKind::Mlp))
            .run(PoiCategory::School);
        let b = SsrPipeline::new(&city, &artifacts, quick_config(0.1, ModelKind::Mlp))
            .run(PoiCategory::School);
        assert_eq!(a.labeled, b.labeled);
        assert_eq!(a.predicted, b.predicted);
    }

    #[test]
    fn spatial_coverage_sampling_spreads_the_labeled_set() {
        use crate::config::SamplingStrategy;
        let (city, artifacts) = setup();
        let run = |sampling: SamplingStrategy| {
            let cfg = PipelineConfig { sampling, ..quick_config(0.1, ModelKind::Ols) };
            SsrPipeline::new(&city, &artifacts, cfg).run(PoiCategory::School)
        };
        let random = run(SamplingStrategy::Random);
        let coverage = run(SamplingStrategy::SpatialCoverage);
        assert_eq!(random.labeled.len(), coverage.labeled.len());
        // Coverage radius: max distance from any zone to its nearest
        // labeled zone. Farthest-point sampling minimizes this greedily, so
        // it must not be worse than random.
        let radius = |labeled: &[ZoneId]| {
            city.zones
                .iter()
                .map(|z| {
                    labeled
                        .iter()
                        .map(|&l| z.centroid.dist(&city.zone_centroid(l)))
                        .fold(f64::INFINITY, f64::min)
                })
                .fold(0.0f64, f64::max)
        };
        assert!(
            radius(&coverage.labeled) <= radius(&random.labeled) + 1e-9,
            "k-center radius {} should not exceed random's {}",
            radius(&coverage.labeled),
            radius(&random.labeled)
        );
    }

    #[test]
    fn coverage_sampling_is_deterministic() {
        use crate::config::SamplingStrategy;
        let (city, artifacts) = setup();
        let cfg = PipelineConfig {
            sampling: SamplingStrategy::SpatialCoverage,
            ..quick_config(0.1, ModelKind::Ols)
        };
        let a = SsrPipeline::new(&city, &artifacts, cfg.clone()).run(PoiCategory::School);
        let b = SsrPipeline::new(&city, &artifacts, cfg).run(PoiCategory::School);
        assert_eq!(a.labeled, b.labeled);
    }

    /// Measures as raw bits, so equality is bit for bit.
    fn bits(measures: &[ZoneMeasures]) -> Vec<(u32, u64, u64)> {
        measures.iter().map(|m| (m.zone.0, m.mac.to_bits(), m.acsd.to_bits())).collect()
    }

    /// `r`'s fit inputs with every measure poisoned, so a wrongful reuse
    /// shows in the output.
    fn poisoned_copy(r: &PipelineResult) -> PipelineResult {
        PipelineResult {
            matrix: Arc::clone(&r.matrix),
            labeled: r.labeled.clone(),
            unlabeled: r.unlabeled.clone(),
            labeled_stats: r.labeled_stats.clone(),
            predicted: r.predicted.iter().map(|m| ZoneMeasures { mac: -1.0, ..*m }).collect(),
            x_labeled: r.x_labeled.clone(),
            x_unlabeled: r.x_unlabeled.clone(),
            labeled_trips: r.labeled_trips,
            timings: r.timings,
        }
    }

    /// For every model: a previous result with bit-identical fit inputs is
    /// reused (no training) and equals a fresh solve, while one flipped low
    /// bit in a label or a feature forces a refit that equals it too, so
    /// the fit is a function of exactly the inputs the check compares.
    #[test]
    fn solve_reuses_a_previous_fit_only_on_bit_identical_inputs() {
        let (city, artifacts) = setup();
        let flip = |x: &mut f64| *x = f64::from_bits(x.to_bits() ^ 1);
        for model in ModelKind::ALL {
            let p = SsrPipeline::new(&city, &artifacts, quick_config(0.2, model));
            let prepared = p.prepare(PoiCategory::VaxCenter);
            let fresh = p.solve(&prepared, None);
            assert!(fresh.timings.train_secs > 0.0, "{model}");

            let reused = p.solve(&prepared, Some(&fresh));
            assert_eq!(reused.timings.train_secs, 0.0, "{model}: a matching fit was retrained");
            assert_eq!(bits(&reused.predicted), bits(&fresh.predicted), "{model}");

            let mut label = poisoned_copy(&fresh);
            flip(&mut label.labeled_stats[0].acsd);
            let mut feature = poisoned_copy(&fresh);
            flip(&mut feature.x_unlabeled.data_mut()[3]);
            for (what, previous) in [("label", label), ("feature", feature)] {
                let refit = p.solve(&prepared, Some(&previous));
                assert!(refit.timings.train_secs > 0.0, "{model}: a changed {what} was reused");
                assert_eq!(bits(&refit.predicted), bits(&fresh.predicted), "{model}: {what}");
            }
        }
    }

    #[test]
    fn predicted_unlabeled_excludes_labeled() {
        let (city, artifacts) = setup();
        let r = SsrPipeline::new(&city, &artifacts, quick_config(0.2, ModelKind::Ols))
            .run(PoiCategory::School);
        let u = r.predicted_unlabeled();
        assert_eq!(u.len(), r.unlabeled.len());
        let labeled: std::collections::HashSet<_> = r.labeled.iter().collect();
        assert!(u.iter().all(|m| !labeled.contains(&m.zone)));
    }
}
