//! # staq-road
//!
//! The road/walking network substrate: the graph `G(N, E)` of paper §III-A,
//! restricted to its pedestrian role. Transit riders touch the road network
//! three ways — walking to a first stop (access), walking between stops at an
//! interchange, and walking from a final stop (egress) — and all three reduce
//! to shortest walking time between two graph nodes.
//!
//! * [`graph`] — a compact CSR directed graph with planar node positions and
//!   edge traversal times.
//! * [`dijkstra`] — exact one-to-one, one-to-many and budget-bounded
//!   shortest paths.
//! * [`isochrone`] — walking isochrones `W_i` (paper §IV-A): the region
//!   reachable from a point within `τ` seconds at walking speed `ω`,
//!   represented as a polygon plus the reachable node set.
//! * [`snap`] — snapping arbitrary points (zone centroids, POIs, bus stops)
//!   to their nearest graph node.

pub mod dijkstra;
pub mod graph;
pub mod isochrone;
pub mod snap;

pub use dijkstra::{bounded_walk_times, walk_time, walk_times_from};
pub use graph::{NodeId, RoadGraph, RoadGraphBuilder};
pub use isochrone::{Isochrone, IsochroneParams};
pub use snap::NodeSnapper;

/// Default acceptable walking budget τ in seconds (paper §V-A: τ = 600).
pub const DEFAULT_TAU_SECS: f64 = 600.0;

/// Default walking speed ω in meters/second (paper §V-A: ω = 4.5 km/h).
pub const DEFAULT_OMEGA_MPS: f64 = 4.5 * 1000.0 / 3600.0;
