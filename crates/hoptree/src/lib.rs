//! # staq-hoptree
//!
//! **Transit-hop trees** — the paper's novel precomputed data type (§IV-A)
//! — and the dynamic feature extraction built on them (§IV-B).
//!
//! A *transit hop* from a zone is any journey composed of a short foot leg
//! and a single transit ride. The **outbound** tree `OB_z^v` of zone `z`
//! for interval `v` has `z` at its root and, as leaves, every zone reachable
//! in one hop, annotated with connectivity data (how many services make the
//! hop, their in-vehicle journey times). The **inbound** tree `IB_z^v`
//! mirrors this for hops *into* `z`.
//!
//! Retrieving `OB_{z_i}` and `IB_{z_j}` for an `(z_i, z_j)` query instantly
//! reveals the potential connectivity between the pair; *interchanges* —
//! leaves of the two trees within walking range of each other — show how
//! multi-ride routes could be assembled. From these, a fixed-width feature
//! vector describes the pair without running a single shortest-path query.
//!
//! * [`tree`] — the tree structure and leaf connectivity data.
//! * `build` — generation from isochrones + GTFS (paper's §IV-A
//!   procedure), one scan per stop.
//! * [`store`] — all trees for one interval, plus isochrones and the zone
//!   index; supports incremental rebuilds after network edits.
//! * `interchange` — k-NN + isochrone-overlap interchange identification
//!   (§IV-B1), memoised per feature pass.
//! * [`features`] — the OD feature vector (§IV-B2), with h-hop chaining.
//! * [`aggregate`] — α-weighted aggregation of OD features to the origin
//!   level (§IV-C) in one pass: origin terms once per zone, interchange
//!   terms once per (OB leaf, destination), a join per OD.

pub mod aggregate;
mod build;
pub mod features;
mod interchange;
pub mod store;
pub mod tree;

pub use features::{FeatureExtractor, FEATURE_DIM, FEATURE_NAMES};
pub use store::{HopTreeStore, TreeRebuild};
pub use tree::{Direction, HopTree, Leaf};
