//! # staq-ml
//!
//! From-scratch machine learning for the SSR solution — the pure-Rust
//! substitute for the paper's PyTorch models (§V-A: OLS, MLP, COREG, Mean
//! Teacher, GNN). No BLAS, no framework: dense row-major matrices, hand
//! written backprop, Adam.
//!
//! All models implement [`ssr::SsrModel`]: *given features for `L ∪ U` and
//! targets for `L`, learn the labeling for `U`* — the semi-supervised
//! regression task of §IV-D. Targets are multi-output (the pipeline learns
//! MAC and ACSD jointly, matching how the paper reports both).
//!
//! * [`linalg`] — [`Matrix`], products, transposes, linear solves.
//! * [`scaler`] — feature/target standardization.
//! * [`metrics`] — MAE, RMSE, Pearson correlation, classification accuracy.
//! * [`ols`] — ridge-stabilized ordinary least squares.
//! * [`knn`] — Minkowski k-NN regressor (COREG's base learner).
//! * [`ann`] — incremental k-NN indexes ([`AnnIndex`]: kd-tree + linear
//!   scan), timed by the `staq-e2e` benchmark and used by nothing else.
//! * [`coreg`] — COREG co-training with two k-NN regressors (Zhou & Li 2005).
//! * [`mlp`] — multi-layer perceptron with ReLU and Adam.
//! * [`mean_teacher`] — consistency-regularized MLP with EMA teacher
//!   (Tarvainen & Valpola 2017).
//! * [`gnn`] — graph convolutional network over a Gaussian-thresholded
//!   zone adjacency ([`adjacency::SparseAdj`]).

pub mod adjacency;
pub mod ann;
pub mod coreg;
pub mod gnn;
pub mod knn;
pub mod linalg;
pub mod mean_teacher;
pub mod metrics;
pub mod mlp;
pub mod ols;
pub mod scaler;
pub mod ssr;

pub use adjacency::SparseAdj;
pub use ann::{AnnIndex, KdAnn, LinearAnn};
pub use linalg::Matrix;
pub use ssr::{ModelKind, SsrModel, SsrTask};
