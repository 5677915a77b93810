//! Walking isochrones `W_i` (paper §IV-A, Fig. 2C).
//!
//! "An isochrone for each z_i ∈ Z is pre-computed ... given an acceptable
//! walkable time in seconds (τ) and a walking speed (ω). This outputs a set
//! of shapefiles representing the walkable area around each z_i."
//!
//! Here an isochrone is a budget-bounded Dijkstra from the zone's snapped
//! road node, hulled into a polygon. Both the reachable node set (exact) and
//! the polygon (for cheap point-membership and overlap tests) are kept.

use crate::dijkstra::bounded_walk_times;
use crate::graph::{NodeId, RoadGraph};
use serde::{Deserialize, Serialize};
use staq_geom::hull::hull_polygon;
use staq_geom::{Point, Polygon};

/// Parameters for isochrone generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IsochroneParams {
    /// Acceptable walking budget τ in seconds.
    pub tau_secs: f64,
    /// Walking speed ω in meters per second.
    pub omega_mps: f64,
}

impl Default for IsochroneParams {
    fn default() -> Self {
        IsochroneParams { tau_secs: crate::DEFAULT_TAU_SECS, omega_mps: crate::DEFAULT_OMEGA_MPS }
    }
}

impl IsochroneParams {
    /// Maximum crow-flies distance walkable within the budget, in meters.
    #[inline]
    pub fn max_radius_m(&self) -> f64 {
        self.tau_secs * self.omega_mps
    }
}

/// A walking isochrone: the area reachable on foot within `τ` seconds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Isochrone {
    /// Point it was grown from.
    pub origin: Point,
    /// Road node the origin snapped to.
    pub root: NodeId,
    /// Reachable `(node, walking seconds)` pairs, non-decreasing in time.
    pub reachable: Vec<(NodeId, f64)>,
    /// Hull polygon of the reachable area. Degenerate walksheds (an isolated
    /// node, a single street) fall back to a small square so membership
    /// tests remain meaningful.
    pub shape: Polygon,
}

impl Isochrone {
    /// Grows the isochrone for `origin` snapped to `root` on graph `g`.
    ///
    /// The walk from `origin` to `root` itself consumes budget at `ω`; the
    /// remaining budget bounds the graph expansion, mirroring how a resident
    /// first walks from their front door to the network.
    pub fn grow(g: &RoadGraph, origin: Point, root: NodeId, params: &IsochroneParams) -> Self {
        let entry_cost = origin.dist(&g.pos(root)) / params.omega_mps;
        let remaining = (params.tau_secs - entry_cost).max(0.0);
        let reachable = bounded_walk_times(g, root, remaining);
        let mut pts: Vec<Point> = reachable.iter().map(|&(n, _)| g.pos(n)).collect();
        pts.push(origin);
        let shape = hull_polygon(&pts).unwrap_or_else(|| {
            // Fewer than 3 non-collinear reachable points: a minimal square
            // around the origin (half the 1-minute walking radius).
            Polygon::square(origin, (params.omega_mps * 60.0).max(1.0) * 0.5)
        });
        Isochrone { origin, root, reachable, shape }
    }

    /// True when `p` lies in the walkable area.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        self.shape.contains(p)
    }

    /// True when two walksheds overlap (the interchange test, §IV-B1).
    #[inline]
    pub fn overlaps(&self, other: &Isochrone) -> bool {
        self.shape.intersects_approx(&other.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadGraphBuilder;

    /// 5x5 grid, 100m spacing, walking speed 1.25 m/s => 80s per edge.
    fn grid_graph() -> RoadGraph {
        let mut b = RoadGraphBuilder::new();
        let mut ids = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                ids.push(b.add_node(Point::new(i as f64 * 100.0, j as f64 * 100.0)));
            }
        }
        for i in 0..5usize {
            for j in 0..5usize {
                let cur = ids[i * 5 + j];
                if i + 1 < 5 {
                    b.add_walk_edge(cur, ids[(i + 1) * 5 + j], 1.25);
                }
                if j + 1 < 5 {
                    b.add_walk_edge(cur, ids[i * 5 + j + 1], 1.25);
                }
            }
        }
        b.build()
    }

    #[test]
    fn grows_bounded_area() {
        let g = grid_graph();
        let params = IsochroneParams { tau_secs: 170.0, omega_mps: 1.25 };
        // Root at the grid center (node 12 = (2,2)).
        let origin = g.pos(NodeId(12));
        let iso = Isochrone::grow(&g, origin, NodeId(12), &params);
        // Two hops = 160s fits; three hops = 240s doesn't.
        let reached = |n| iso.reachable.iter().any(|&(m, _)| m == n);
        assert_eq!(iso.reachable[0], (NodeId(12), 0.0));
        assert!(reached(NodeId(10)), "two hops west reachable");
        assert!(!reached(NodeId(0)), "corner is 4 hops away");
        assert!(iso.reachable.len() >= 5);
        assert!(iso.contains(&origin));
    }

    #[test]
    fn entry_walk_consumes_budget() {
        let g = grid_graph();
        let params = IsochroneParams { tau_secs: 100.0, omega_mps: 1.25 };
        // Origin 100m from the root: 80s entry cost leaves only 20s.
        let origin = g.pos(NodeId(12)).offset(100.0, 0.0);
        let iso = Isochrone::grow(&g, origin, NodeId(12), &params);
        assert_eq!(iso.reachable.len(), 1, "only the root itself fits");
    }

    #[test]
    fn degenerate_walkshed_gets_fallback_square() {
        let mut b = RoadGraphBuilder::new();
        let lone = b.add_node(Point::new(0.0, 0.0));
        let g = b.build();
        let iso = Isochrone::grow(&g, Point::new(0.0, 0.0), lone, &IsochroneParams::default());
        assert!(iso.contains(&Point::new(5.0, 5.0)));
        assert!(!iso.contains(&Point::new(500.0, 500.0)));
    }

    #[test]
    fn overlap_detection() {
        let g = grid_graph();
        let params = IsochroneParams { tau_secs: 170.0, omega_mps: 1.25 };
        let a = Isochrone::grow(&g, g.pos(NodeId(6)), NodeId(6), &params); // (1,1)
        let b2 = Isochrone::grow(&g, g.pos(NodeId(18)), NodeId(18), &params); // (3,3)
        let far_params = IsochroneParams { tau_secs: 50.0, omega_mps: 1.25 };
        let c = Isochrone::grow(&g, g.pos(NodeId(0)), NodeId(0), &far_params);
        let d = Isochrone::grow(&g, g.pos(NodeId(24)), NodeId(24), &far_params);
        assert!(a.overlaps(&b2), "adjacent walksheds overlap");
        assert!(!c.overlaps(&d), "opposite corners with tiny budgets don't");
    }

    #[test]
    fn max_radius_matches_params() {
        let p = IsochroneParams { tau_secs: 600.0, omega_mps: 1.25 };
        assert_eq!(p.max_radius_m(), 750.0);
    }

    #[test]
    fn default_params_match_paper() {
        let p = IsochroneParams::default();
        assert_eq!(p.tau_secs, 600.0);
        assert!((p.omega_mps - 1.25).abs() < 1e-9);
    }
}
