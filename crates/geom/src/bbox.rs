//! Axis-aligned bounding boxes.

use crate::point::Point;
use serde::{Deserialize, Serialize};

/// An axis-aligned bounding box `[min_x, max_x] x [min_y, max_y]`.
///
/// An *empty* box (one that contains no points) is represented by
/// `min > max`; [`BBox::empty`] constructs one and [`BBox::is_empty`] tests
/// for it. Extending an empty box with a point yields the degenerate box of
/// that single point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BBox {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
}

impl BBox {
    /// The empty box: contains no points, union identity.
    pub const fn empty() -> Self {
        BBox {
            min_x: f64::INFINITY,
            min_y: f64::INFINITY,
            max_x: f64::NEG_INFINITY,
            max_y: f64::NEG_INFINITY,
        }
    }

    /// Box spanning the two corner points (in any order).
    pub fn from_corners(a: Point, b: Point) -> Self {
        BBox { min_x: a.x.min(b.x), min_y: a.y.min(b.y), max_x: a.x.max(b.x), max_y: a.y.max(b.y) }
    }

    /// Smallest box containing all `points`; empty box for an empty slice.
    pub fn of_points(points: &[Point]) -> Self {
        let mut b = BBox::empty();
        for p in points {
            b.extend(*p);
        }
        b
    }

    /// True when the box contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Grows the box to include `p`.
    #[inline]
    pub fn extend(&mut self, p: Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Grows the box to include all of `other`.
    #[inline]
    pub fn union(&mut self, other: &BBox) {
        self.min_x = self.min_x.min(other.min_x);
        self.min_y = self.min_y.min(other.min_y);
        self.max_x = self.max_x.max(other.max_x);
        self.max_y = self.max_y.max(other.max_y);
    }

    /// True when `p` lies inside or on the border.
    #[inline]
    pub fn contains(&self, p: &Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// True when the boxes share at least one point (borders count).
    #[inline]
    pub fn intersects(&self, other: &BBox) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// Center of the box. Meaningless (NaN) for an empty box.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.min_x + self.max_x) * 0.5, (self.min_y + self.max_y) * 0.5)
    }

    /// Squared distance from `p` to the nearest point of the box (0 when
    /// inside). Used for kd-tree pruning.
    #[inline]
    pub fn dist2_to(&self, p: &Point) -> f64 {
        let dx = (self.min_x - p.x).max(0.0).max(p.x - self.max_x);
        let dy = (self.min_y - p.y).max(0.0).max(p.y - self.max_y);
        dx * dx + dy * dy
    }
}

impl Default for BBox {
    fn default() -> Self {
        BBox::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_box_contains_nothing() {
        let b = BBox::empty();
        assert!(b.is_empty());
        assert!(!b.contains(&Point::new(0.0, 0.0)));
    }

    #[test]
    fn extend_from_empty_gives_degenerate_box() {
        let mut b = BBox::empty();
        b.extend(Point::new(3.0, -1.0));
        assert!(!b.is_empty());
        assert!(b.contains(&Point::new(3.0, -1.0)));
        assert_eq!((b.min_x, b.min_y), (b.max_x, b.max_y));
    }

    #[test]
    fn of_points_bounds_everything() {
        let pts = [Point::new(1.0, 5.0), Point::new(-2.0, 3.0), Point::new(4.0, -1.0)];
        let b = BBox::of_points(&pts);
        for p in &pts {
            assert!(b.contains(p));
        }
        assert_eq!(b.min_x, -2.0);
        assert_eq!(b.max_y, 5.0);
    }

    #[test]
    fn intersects_is_symmetric_and_border_inclusive() {
        let a = BBox::from_corners(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let b = BBox::from_corners(Point::new(2.0, 2.0), Point::new(4.0, 4.0));
        let c = BBox::from_corners(Point::new(2.1, 2.1), Point::new(4.0, 4.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        assert!(!a.intersects(&BBox::empty()));
    }

    #[test]
    fn dist2_to_inside_is_zero() {
        let b = BBox::from_corners(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        assert_eq!(b.dist2_to(&Point::new(1.0, 1.0)), 0.0);
        assert_eq!(b.dist2_to(&Point::new(5.0, 1.0)), 9.0);
        assert_eq!(b.dist2_to(&Point::new(5.0, 6.0)), 9.0 + 16.0);
    }

    #[test]
    fn union_covers_both() {
        let mut a = BBox::from_corners(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        let b = BBox::from_corners(Point::new(5.0, -3.0), Point::new(6.0, 0.5));
        a.union(&b);
        assert!(a.contains(&Point::new(6.0, -3.0)));
        assert!(a.contains(&Point::new(0.0, 1.0)));
    }
}
