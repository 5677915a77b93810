//! Property-based tests for the geometry crate: the kd-tree must agree with
//! brute force, hulls must be convex and covering, and boxes must behave like
//! set unions.

use proptest::prelude::*;
use staq_geom::{convex_hull, BBox, GridIndex, KdTree, Point};

fn pt() -> impl Strategy<Value = Point> {
    (-1000.0f64..1000.0, -1000.0f64..1000.0).prop_map(|(x, y)| Point::new(x, y))
}

fn pts(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(pt(), 1..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kdtree_nearest_matches_brute_force(points in pts(200), q in pt()) {
        let items: Vec<(Point, u32)> =
            points.iter().enumerate().map(|(i, &p)| (p, i as u32)).collect();
        let tree = KdTree::build(&items);
        let best = tree.nearest(&q).unwrap();
        let brute = points
            .iter()
            .map(|p| p.dist2(&q))
            .fold(f64::INFINITY, f64::min);
        prop_assert!((best.dist2 - brute).abs() < 1e-9);
    }

    #[test]
    fn kdtree_radius_matches_brute_force(points in pts(150), q in pt(), r in 0.0f64..500.0) {
        let items: Vec<(Point, u32)> =
            points.iter().enumerate().map(|(i, &p)| (p, i as u32)).collect();
        let tree = KdTree::build(&items);
        let mut got: Vec<u32> = tree.within_radius(&q, r).iter().map(|n| n.item).collect();
        let mut want: Vec<u32> = items
            .iter()
            .filter(|(p, _)| p.dist(&q) <= r)
            .map(|&(_, i)| i)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn grid_radius_matches_kdtree(points in pts(150), q in pt(), r in 1.0f64..400.0) {
        let items: Vec<(Point, u32)> =
            points.iter().enumerate().map(|(i, &p)| (p, i as u32)).collect();
        let grid = GridIndex::build(&items, 75.0);
        let tree = KdTree::build(&items);
        let mut got: Vec<u32> = grid.within_radius(&q, r).iter().map(|&(i, _)| i).collect();
        let mut want: Vec<u32> = tree.within_radius(&q, r).iter().map(|n| n.item).collect();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn hull_covers_all_points(points in pts(80)) {
        let hull = convex_hull(&points);
        if hull.len() >= 3 {
            let poly = staq_geom::Polygon::new(hull.clone());
            // Every input point is inside the hull or within epsilon of its
            // boundary (vertices themselves may ray-cast as outside).
            for p in &points {
                let inside = poly.contains(p)
                    || hull.iter().any(|v| v.dist(p) < 1e-6)
                    || on_boundary(&hull, p);
                prop_assert!(inside, "{p:?} escaped its own hull");
            }
        }
    }

    #[test]
    fn hull_is_convex(points in pts(80)) {
        let hull = convex_hull(&points);
        if hull.len() >= 3 {
            let n = hull.len();
            for i in 0..n {
                let a = hull[i];
                let b = hull[(i + 1) % n];
                let c = hull[(i + 2) % n];
                let cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x);
                prop_assert!(cross > -1e-9, "reflex vertex in hull");
            }
        }
    }

    #[test]
    fn bbox_union_contains_both(a in pts(40), b in pts(40)) {
        let mut ba = BBox::of_points(&a);
        let bb = BBox::of_points(&b);
        ba.union(&bb);
        for p in a.iter().chain(b.iter()) {
            prop_assert!(ba.contains(p));
        }
    }

    #[test]
    fn bbox_dist2_is_zero_iff_contained(points in pts(40), q in pt()) {
        let b = BBox::of_points(&points);
        if b.contains(&q) {
            prop_assert_eq!(b.dist2_to(&q), 0.0);
        } else {
            prop_assert!(b.dist2_to(&q) > 0.0);
        }
    }
}

/// Distance from `p` to the closed polyline boundary below `eps`.
fn on_boundary(ring: &[Point], p: &Point) -> bool {
    let n = ring.len();
    for i in 0..n {
        let a = ring[i];
        let b = ring[(i + 1) % n];
        let ab2 = a.dist2(&b);
        let t = if ab2 == 0.0 {
            0.0
        } else {
            (((p.x - a.x) * (b.x - a.x) + (p.y - a.y) * (b.y - a.y)) / ab2).clamp(0.0, 1.0)
        };
        let proj = a.lerp(&b, t);
        if proj.dist(p) < 1e-6 {
            return true;
        }
    }
    false
}
