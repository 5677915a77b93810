//! The naïve baseline: label every trip of `M_g` with real SPQs.
//!
//! This is both the ground truth for evaluation and the "Label Cost" column
//! of the paper's Table II.

use staq_access::ZoneMeasures;
use staq_synth::{City, PoiCategory};
use staq_todam::{LabelEngine, Todam, TodamSpec, ZoneStats};
use staq_transit::{AccessCost, CostKind};
use std::time::Instant;

/// Ground truth for one (city, category, cost).
pub struct NaiveResult {
    /// The gravity matrix that was labeled.
    pub matrix: Todam,
    /// Per-zone stats (`None` for zones without trips).
    pub stats: Vec<Option<ZoneStats>>,
    /// Measures of labeled zones.
    pub measures: Vec<ZoneMeasures>,
    /// Wall-clock seconds of the full labeling pass.
    pub label_secs: f64,
    /// Trips labeled.
    pub n_trips: usize,
}

impl NaiveResult {
    /// Builds `M_g` and labels all of it.
    pub fn compute(
        city: &City,
        spec: &TodamSpec,
        category: PoiCategory,
        cost: CostKind,
    ) -> NaiveResult {
        let matrix = spec.build(city, category);
        let cost_model = AccessCost::of(cost);
        let engine = LabelEngine::new(city, cost_model, spec.interval.clone());
        let t0 = Instant::now();
        let stats = engine.label_all(&matrix);
        let label_secs = t0.elapsed().as_secs_f64();
        let measures = ZoneMeasures::collect(&stats);
        let n_trips = matrix.n_trips();
        NaiveResult { matrix, stats, measures, label_secs, n_trips }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use staq_synth::CityConfig;

    #[test]
    fn computes_ground_truth() {
        let city = City::generate(&CityConfig::tiny(42));
        let spec = TodamSpec { per_hour: 4, ..Default::default() };
        let r = NaiveResult::compute(&city, &spec, PoiCategory::School, CostKind::Jt);
        assert!(r.n_trips > 0);
        assert!(!r.measures.is_empty());
        assert!(r.label_secs > 0.0);
        for m in &r.measures {
            assert!(m.mac.is_finite() && m.mac > 0.0);
        }
    }

    #[test]
    fn gac_ground_truth_costs_more_than_jt() {
        let city = City::generate(&CityConfig::tiny(42));
        let spec = TodamSpec { per_hour: 4, ..Default::default() };
        let jt = NaiveResult::compute(&city, &spec, PoiCategory::School, CostKind::Jt);
        let gac = NaiveResult::compute(&city, &spec, PoiCategory::School, CostKind::Gac);
        let mean = |r: &NaiveResult| {
            r.measures.iter().map(|m| m.mac).sum::<f64>() / r.measures.len() as f64
        };
        assert!(mean(&gac) > mean(&jt));
    }
}
