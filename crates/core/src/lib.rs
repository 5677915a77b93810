//! # staq-core
//!
//! The end-to-end system: dynamic spatio-temporal **access queries** solved
//! with semi-supervised regression (the paper's Fig. 1 pipeline), plus the
//! naïve fully-labeled baseline it is evaluated against.
//!
//! The flow, one module per stage:
//!
//! ```text
//!   city (staq-synth)
//!     └─ offline: hop trees + isochrones          [artifacts]
//!         └─ TODAM M_g (gravity-gated trips)      [staq-todam]
//!             ├─ β-sample zones → label via SPQs  [pipeline]
//!             ├─ OD features → α-weighted origin  [staq-hoptree]
//!             └─ SSR train + infer                [staq-ml]
//!                 └─ measures, classes, fairness  [staq-access]
//! ```
//!
//! * [`config`] — pipeline parameters (β, model, cost kind, spec).
//! * [`artifacts`] — the offline bundle shared across runs.
//! * [`naive`] — ground truth: label every zone (Table II's "Label Cost").
//! * [`pipeline`] — the SSR solution with stage timings.
//! * [`report`] — evaluation (MAE, correlations, class accuracy, FIE) and
//!   runtime accounting.
//! * [`engine`] — [`engine::AccessEngine`]: a stateful façade that answers
//!   [`staq_access::AccessQuery`]s and supports *dynamic scenario edits*
//!   (add a POI, add a bus route) with incremental artifact rebuilds.

pub mod artifacts;
pub mod config;
pub mod engine;
pub mod naive;
pub mod pipeline;
pub mod report;

pub use artifacts::OfflineArtifacts;
pub use config::{PipelineConfig, SamplingStrategy};
pub use engine::{AccessEngine, ApproxConfig, DeltaApplied, ScenarioOutcome};
pub use naive::NaiveResult;
pub use pipeline::{PipelineResult, SsrPipeline};
pub use report::{evaluate, EvalReport};
