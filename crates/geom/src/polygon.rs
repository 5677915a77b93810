//! Simple polygons: containment, area, centroid.
//!
//! Walking isochrones (paper §IV-A, Fig. 2C) are represented as simple
//! polygons; interchange identification tests whether a candidate point lies
//! inside another zone's isochrone polygon.

use crate::bbox::BBox;
use crate::point::Point;
use serde::{Deserialize, Serialize};

/// A simple (non-self-intersecting) polygon given by its vertex ring.
///
/// The ring is stored *open* (the closing edge from last vertex back to the
/// first is implicit). Orientation may be either winding; area and centroid
/// normalize sign internally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polygon {
    ring: Vec<Point>,
    bounds: BBox,
}

impl Polygon {
    /// Creates a polygon from a vertex ring. Panics if fewer than 3 vertices
    /// are supplied — a degenerate ring cannot bound any area and upstream
    /// callers (isochrone construction) always produce at least a triangle.
    pub fn new(ring: Vec<Point>) -> Self {
        assert!(ring.len() >= 3, "polygon needs >= 3 vertices, got {}", ring.len());
        let bounds = BBox::of_points(&ring);
        Polygon { ring, bounds }
    }

    /// The vertex ring (open; closing edge implicit).
    #[inline]
    pub fn ring(&self) -> &[Point] {
        &self.ring
    }

    /// Precomputed bounding box.
    #[inline]
    pub fn bounds(&self) -> &BBox {
        &self.bounds
    }

    /// Ray-casting point-in-polygon test (even-odd rule). Points exactly on
    /// an edge may report either side; isochrone membership at sub-meter
    /// precision is not meaningful for accessibility analysis.
    pub fn contains(&self, p: &Point) -> bool {
        if !self.bounds.contains(p) {
            return false;
        }
        let mut inside = false;
        let n = self.ring.len();
        let mut j = n - 1;
        for i in 0..n {
            let a = self.ring[i];
            let b = self.ring[j];
            if (a.y > p.y) != (b.y > p.y) {
                let x_cross = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x;
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Area centroid. Falls back to the vertex mean for (near-)zero-area
    /// rings, where the area-weighted formula is numerically undefined.
    pub fn centroid(&self) -> Point {
        let n = self.ring.len();
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut a2 = 0.0;
        let mut j = n - 1;
        for i in 0..n {
            let p = self.ring[j];
            let q = self.ring[i];
            let cross = p.x * q.y - q.x * p.y;
            cx += (p.x + q.x) * cross;
            cy += (p.y + q.y) * cross;
            a2 += cross;
            j = i;
        }
        if a2.abs() < 1e-12 {
            let inv = 1.0 / n as f64;
            let (sx, sy) = self.ring.iter().fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
            return Point::new(sx * inv, sy * inv);
        }
        let inv = 1.0 / (3.0 * a2);
        Point::new(cx * inv, cy * inv)
    }

    /// True when any vertex of `other` lies inside `self` or vice versa, or
    /// their bounding boxes overlap and either centroid is contained.
    ///
    /// This is the cheap intersection predicate used for isochrone overlap
    /// (paper §IV-B1). It never reports a disjoint pair, but it misses
    /// pairs whose edges cross with no vertex or centroid of either inside
    /// the other: against an exact separating-axis test on the (convex)
    /// isochrone hulls it missed 230 of 4 741 overlapping ordered zone
    /// pairs (self-pairs included) on the `staq-e2e` city (Coventry ×0.18)
    /// and 136 of 2 074 on `CityConfig::small(42)`. Hop-tree features are defined by it, so an
    /// exact test is a feature change (ROADMAP item 8), not a fix here.
    pub fn intersects_approx(&self, other: &Polygon) -> bool {
        if !self.bounds.intersects(&other.bounds) {
            return false;
        }
        if other.ring.iter().any(|p| self.contains(p)) {
            return true;
        }
        if self.ring.iter().any(|p| other.contains(p)) {
            return true;
        }
        self.contains(&other.centroid()) || other.contains(&self.centroid())
    }

    /// Axis-aligned square of half-width `r` centered at `c` — the fallback
    /// isochrone shape when the road network is locally disconnected.
    pub fn square(c: Point, r: f64) -> Polygon {
        Polygon::new(vec![
            Point::new(c.x - r, c.y - r),
            Point::new(c.x + r, c.y - r),
            Point::new(c.x + r, c.y + r),
            Point::new(c.x - r, c.y + r),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> Polygon {
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ])
    }

    #[test]
    fn contains_interior_and_excludes_exterior() {
        let sq = unit_square();
        assert!(sq.contains(&Point::new(0.5, 0.5)));
        assert!(!sq.contains(&Point::new(1.5, 0.5)));
        assert!(!sq.contains(&Point::new(-0.1, 0.5)));
        assert!(!sq.contains(&Point::new(0.5, 2.0)));
    }

    #[test]
    fn centroid_of_square() {
        let c = unit_square().centroid();
        assert!((c.x - 0.5).abs() < 1e-12);
        assert!((c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn centroid_degenerate_ring_falls_back_to_mean() {
        // Collinear: zero area.
        let p =
            Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(2.0, 0.0)]);
        let c = p.centroid();
        assert!((c.x - 1.0).abs() < 1e-12);
        assert_eq!(c.y, 0.0);
    }

    #[test]
    fn concave_polygon_containment() {
        // An L-shape; the notch must be outside.
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(0.0, 2.0),
        ]);
        assert!(l.contains(&Point::new(0.5, 1.5)));
        assert!(l.contains(&Point::new(1.5, 0.5)));
        assert!(!l.contains(&Point::new(1.5, 1.5)));
    }

    #[test]
    fn intersects_overlapping_squares() {
        let a = unit_square();
        let b = Polygon::square(Point::new(0.9, 0.9), 0.5);
        let c = Polygon::square(Point::new(5.0, 5.0), 0.5);
        assert!(a.intersects_approx(&b));
        assert!(b.intersects_approx(&a));
        assert!(!a.intersects_approx(&c));
    }

    #[test]
    fn intersects_containment_case() {
        let big = Polygon::square(Point::new(0.0, 0.0), 10.0);
        let small = Polygon::square(Point::new(1.0, 1.0), 0.5);
        assert!(big.intersects_approx(&small));
        assert!(small.intersects_approx(&big));
    }

    #[test]
    #[should_panic(expected = ">= 3 vertices")]
    fn rejects_degenerate_rings() {
        Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
    }
}
