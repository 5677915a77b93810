//! # staq-geom
//!
//! Planar geometry primitives and spatial indexes used throughout the STAQ
//! reproduction.
//!
//! The synthetic cities generated by `staq-synth` live in a local planar
//! coordinate system measured in **meters** (x east, y north), so Euclidean
//! distance is the physical walking distance. For completeness (and for
//! consumers that want to feed real GTFS data in WGS-84), [`point::haversine_m`]
//! converts lat/lon pairs to meters as well.
//!
//! Contents:
//!
//! * [`point`] — [`Point`], distances.
//! * [`bbox`] — axis-aligned bounding boxes.
//! * [`kdtree`] — a 2-d tree supporting nearest-neighbour and radius
//!   queries; used for interchange identification and stop snapping.
//! * [`polygon`] — simple polygons, point-in-polygon; used for walking
//!   isochrones.
//! * [`hull`] — convex hulls (Andrew's monotone chain); isochrone outlines.
//! * [`grid`] — a uniform hash-grid index for bulk radius queries.

pub mod bbox;
pub mod grid;
pub mod hull;
pub mod kdtree;
pub mod point;
pub mod polygon;

pub use bbox::BBox;
pub use grid::GridIndex;
pub use hull::convex_hull;
pub use kdtree::KdTree;
pub use point::Point;
pub use polygon::Polygon;
