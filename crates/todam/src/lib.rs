//! # staq-todam
//!
//! The **Temporal Origin-Destination Access Matrix** (paper §III-C): the
//! three-dimensional `|Z| x |P| x |R|` structure whose entries are trips
//! `(z_i, p_j, t)`, plus the gravity-model machinery that shrinks it.
//!
//! The paper's key construction move: instead of materializing the full
//! matrix `M_f` and weighting costs by attractiveness afterwards (the Hansen
//! equation), the attractiveness score `α_ij` gates *trip sampling* — pairs
//! with `α_ij = 0` generate no trips, pairs with high `α_ij` sample many —
//! yielding the gravity matrix `M_g` that is 60–98 % smaller (Table I)
//! while leaving the downstream aggregation a plain mean.
//!
//! * [`attractiveness`] — negative-exponential distance decay `α_ij`,
//!   normalized per zone (§III-C, §V-A).
//! * [`sampling`] — the global start-time set `R` and the per-pair binomial
//!   thinning `r^{i,j} ∝ α_ij`.
//! * [`matrix`] — the compressed trip store (zone-sorted CSR).
//! * [`build`] — `M_g` construction.
//! * [`label`] — SPQ labeling of trips through the RAPTOR router, parallel
//!   across zones; produces the per-zone mean/std used both as ground truth
//!   and as SSR targets.
//! * [`stats`] — Table I's full-vs-gravity size accounting.

pub mod attractiveness;
pub mod build;
pub mod label;
pub mod matrix;
pub mod sampling;
pub mod stats;

pub use attractiveness::Attractiveness;
pub use build::TodamSpec;
pub use label::{LabelEngine, ZoneStats};
pub use matrix::{Todam, Trip};
pub use stats::MatrixStats;
