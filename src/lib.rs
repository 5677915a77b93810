//! # staq-repro
//!
//! Workspace umbrella for the STAQ reproduction: re-exports every crate
//! under one roof so the `examples/` and `tests/` at the repository root
//! can exercise the whole stack, and so downstream users can depend on a
//! single crate.
//!
//! ```no_run
//! use staq_repro::prelude::*;
//!
//! let city = City::generate(&CityConfig::small(7));
//! let engine = AccessEngine::new(city, PipelineConfig::default());
//! let answer = engine.query(&AccessQuery::MeanAccess, PoiCategory::School);
//! println!("{answer:?}");
//! ```

pub use staq_access as access;
pub use staq_core as core;
pub use staq_geom as geom;
pub use staq_gtfs as gtfs;
pub use staq_hoptree as hoptree;
pub use staq_ml as ml;
pub use staq_road as road;
pub use staq_rt as rt;
pub use staq_synth as synth;
pub use staq_todam as todam;
pub use staq_transit as transit;

/// The names most programs need.
pub mod prelude {
    pub use staq_access::{AccessQuery, DemographicWeight, QueryAnswer, ZoneMeasures};
    pub use staq_core::{
        evaluate, AccessEngine, EvalReport, NaiveResult, OfflineArtifacts, PipelineConfig,
        SsrPipeline,
    };
    pub use staq_geom::Point;
    pub use staq_gtfs::time::TimeInterval;
    pub use staq_ml::ModelKind;
    pub use staq_synth::{City, CityConfig, PoiCategory, ZoneId};
    pub use staq_todam::TodamSpec;
    pub use staq_transit::CostKind;
}
