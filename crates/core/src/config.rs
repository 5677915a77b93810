//! Pipeline configuration.

use serde::{Deserialize, Serialize};
use staq_ml::ModelKind;
use staq_road::IsochroneParams;
use staq_todam::TodamSpec;
use staq_transit::CostKind;

/// How the labeled set `L` is drawn from the eligible zones (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SamplingStrategy {
    /// Uniform random sampling — the paper's method ("we assume \[this\]
    /// gives a reasonable level of geographic coverage").
    Random,
    /// Greedy k-center (farthest-point) sampling over zone centroids — the
    /// coverage-guaranteeing strategy the paper lists as future work
    /// ("active learning strategies may be explored to ensure coverage").
    SpatialCoverage,
}

/// Everything one SSR pipeline run needs besides the city itself.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Labeling budget β ∈ (0, 1]: the fraction of zones labeled with real
    /// SPQs (paper evaluates 3–30%).
    pub beta: f64,
    /// How `L` is drawn.
    pub sampling: SamplingStrategy,
    /// SSR model.
    pub model: ModelKind,
    /// Access cost (JT or GAC).
    pub cost: CostKind,
    /// TODAM construction parameters (interval, |R|, γ, decay).
    pub todam: TodamSpec,
    /// Isochrone parameters (τ, ω).
    pub isochrone: IsochroneParams,
    /// Compute interchange features (ablation lever; paper §IV-B).
    pub use_interchange_features: bool,
    /// Hop-chaining depth h for reachability features (paper: 1 or 2).
    pub max_hops: usize,
    /// Seed for zone sampling and model training.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            beta: 0.1,
            sampling: SamplingStrategy::Random,
            model: ModelKind::Mlp,
            cost: CostKind::Jt,
            todam: TodamSpec::default(),
            isochrone: IsochroneParams::default(),
            use_interchange_features: true,
            max_hops: 2,
            seed: 7,
        }
    }
}

impl PipelineConfig {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.beta > 0.0 && self.beta <= 1.0) {
            return Err(format!("beta must be in (0, 1], got {}", self.beta));
        }
        if self.todam.per_hour == 0 {
            return Err("per_hour sample rate must be positive".into());
        }
        if self.todam.gamma.is_nan() || self.todam.gamma <= 0.0 {
            return Err("gamma must be positive".into());
        }
        if self.max_hops == 0 {
            return Err("max_hops must be at least 1".into());
        }
        Ok(())
    }

    /// The paper's β sweep (Fig. 3/4, Table II): 3, 5, 7, 10, 20, 30 %.
    pub const BETA_SWEEP: [f64; 6] = [0.03, 0.05, 0.07, 0.10, 0.20, 0.30];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        PipelineConfig::default().validate().unwrap();
    }

    #[test]
    fn rejects_bad_beta() {
        let mut c = PipelineConfig { beta: 0.0, ..Default::default() };
        assert!(c.validate().is_err());
        c.beta = 1.5;
        assert!(c.validate().is_err());
        c.beta = 1.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn sweep_matches_paper() {
        assert_eq!(PipelineConfig::BETA_SWEEP.len(), 6);
        assert_eq!(PipelineConfig::BETA_SWEEP[0], 0.03);
        assert_eq!(PipelineConfig::BETA_SWEEP[5], 0.30);
    }
}
