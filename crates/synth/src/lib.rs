//! # staq-synth
//!
//! Deterministic synthetic city generator — the substitute for the paper's
//! proprietary inputs (census-tract shapefiles, TfWM GTFS feed, scraped POI
//! locations; see DESIGN.md's substitution table).
//!
//! A [`city::City`] bundles everything the pipeline consumes:
//!
//! * a set of **zones** with centroids, population and demographic fields
//!   (the census tracts `Z` of §III-A),
//! * **POI sets** per category (schools, hospitals, vaccination centers, job
//!   centers — §V-A),
//! * a walkable **road graph** (`staq-road`),
//! * a **GTFS feed** for the bus network, generated as text and re-parsed
//!   through `staq-gtfs` so the ingestion path matches a real feed.
//!
//! Realism levers (all seeded, all deterministic):
//!
//! * zones are laid out on a jittered grid with population density decaying
//!   from one or more urban cores — giving the spatial autocorrelation the
//!   SSR models exploit;
//! * the road network is a perturbed grid with random edge dropout plus
//!   diagonal arterials — degree ≈ 3–4, like an urban street network;
//! * bus routes are radial, orbital and cross-town polylines with stops
//!   every ~350–450 m snapped to road nodes; headways vary by time of day
//!   (peak/off-peak/evening), giving the temporal variance that ACSD
//!   measures;
//! * POIs cluster toward density cores, with per-category counts taken from
//!   the paper's Table I.

pub mod city;
pub mod config;
pub mod pois;
pub mod roads;
pub mod transit_gen;

pub use city::{City, Demographics, Poi, PoiCategory, PoiId, Zone, ZoneId};
pub use config::CityConfig;
