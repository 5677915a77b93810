//! A static 2-d tree over points with attached payloads.
//!
//! Built once over a point set, then queried many times — the access pattern
//! of interchange identification (paper §IV-B1: a k-NN search from every leaf
//! of an outbound hop tree onto the leaves of an inbound hop tree) and of
//! stop/node snapping. Construction is O(n log n) via median partitioning;
//! queries prune with bounding boxes.

use crate::bbox::BBox;
use crate::point::Point;

/// Index of a node inside the tree's arena; `u32::MAX` encodes "no child".
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
struct Node {
    point: Point,
    /// Payload index supplied at construction (e.g. a `ZoneId`'s raw value).
    item: u32,
    left: u32,
    right: u32,
    /// Bounding box of the subtree rooted here, for pruning.
    bounds: BBox,
}

/// A static kd-tree mapping 2-d points to `u32` payloads.
///
/// Duplicated points are allowed; all duplicates are retrievable through
/// radius queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KdTree {
    nodes: Vec<Node>,
    root: u32,
}

/// A single nearest / radius query hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Payload of the matched point.
    pub item: u32,
    /// The matched point itself.
    pub point: Point,
    /// Squared Euclidean distance from the query point.
    pub dist2: f64,
}

impl Neighbor {
    /// Euclidean distance from the query point in meters.
    #[inline]
    pub fn dist(&self) -> f64 {
        self.dist2.sqrt()
    }
}

impl KdTree {
    /// Builds a tree from `(point, payload)` pairs.
    ///
    /// Non-finite coordinates are rejected with a panic: they would poison
    /// every comparison made during construction.
    pub fn build(items: &[(Point, u32)]) -> Self {
        for (p, _) in items {
            assert!(p.is_finite(), "kd-tree input contains non-finite point {p:?}");
        }
        let mut scratch: Vec<(Point, u32)> = items.to_vec();
        let mut nodes = Vec::with_capacity(items.len());
        let n = scratch.len();
        let root = if n == 0 { NONE } else { Self::build_rec(&mut scratch[..], 0, &mut nodes) };
        KdTree { nodes, root }
    }

    fn build_rec(items: &mut [(Point, u32)], depth: usize, nodes: &mut Vec<Node>) -> u32 {
        let mid = items.len() / 2;
        let axis = depth % 2;
        items.select_nth_unstable_by(mid, |a, b| {
            let (ka, kb) = if axis == 0 { (a.0.x, b.0.x) } else { (a.0.y, b.0.y) };
            ka.partial_cmp(&kb).expect("finite keys")
        });
        let (point, item) = items[mid];
        let idx = nodes.len() as u32;
        nodes.push(Node {
            point,
            item,
            left: NONE,
            right: NONE,
            bounds: BBox::from_corners(point, point),
        });
        let (lo, rest) = items.split_at_mut(mid);
        let hi = &mut rest[1..];
        let left = if lo.is_empty() { NONE } else { Self::build_rec(lo, depth + 1, nodes) };
        let right = if hi.is_empty() { NONE } else { Self::build_rec(hi, depth + 1, nodes) };
        let mut bounds = nodes[idx as usize].bounds;
        if left != NONE {
            bounds.union(&nodes[left as usize].bounds);
        }
        if right != NONE {
            bounds.union(&nodes[right as usize].bounds);
        }
        let node = &mut nodes[idx as usize];
        node.left = left;
        node.right = right;
        node.bounds = bounds;
        idx
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree indexes no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Nearest indexed point to `query`, or `None` for an empty tree.
    pub fn nearest(&self, query: &Point) -> Option<Neighbor> {
        let mut best: Option<Neighbor> = None;
        if self.root != NONE {
            self.nearest_rec(self.root, query, &mut best);
        }
        best
    }

    fn nearest_rec(&self, idx: u32, query: &Point, best: &mut Option<Neighbor>) {
        let node = &self.nodes[idx as usize];
        if let Some(b) = best {
            if node.bounds.dist2_to(query) >= b.dist2 {
                return;
            }
        }
        let d2 = node.point.dist2(query);
        if best.is_none_or(|b| d2 < b.dist2) {
            *best = Some(Neighbor { item: node.item, point: node.point, dist2: d2 });
        }
        // Visit the child whose bounds are closer first: tightens `best`
        // sooner and prunes more of the other side.
        let (first, second) = self.ordered_children(node, query);
        if first != NONE {
            self.nearest_rec(first, query, best);
        }
        if second != NONE {
            self.nearest_rec(second, query, best);
        }
    }

    #[inline]
    fn ordered_children(&self, node: &Node, query: &Point) -> (u32, u32) {
        let dl = if node.left != NONE {
            self.nodes[node.left as usize].bounds.dist2_to(query)
        } else {
            f64::INFINITY
        };
        let dr = if node.right != NONE {
            self.nodes[node.right as usize].bounds.dist2_to(query)
        } else {
            f64::INFINITY
        };
        if dl <= dr {
            (node.left, node.right)
        } else {
            (node.right, node.left)
        }
    }

    /// All indexed points within `radius` meters of `query` (inclusive),
    /// in arbitrary order.
    pub fn within_radius(&self, query: &Point, radius: f64) -> Vec<Neighbor> {
        let mut out = Vec::new();
        if self.root != NONE && radius >= 0.0 {
            self.radius_rec(self.root, query, radius * radius, &mut out);
        }
        out
    }

    fn radius_rec(&self, idx: u32, query: &Point, r2: f64, out: &mut Vec<Neighbor>) {
        let node = &self.nodes[idx as usize];
        if node.bounds.dist2_to(query) > r2 {
            return;
        }
        let d2 = node.point.dist2(query);
        if d2 <= r2 {
            out.push(Neighbor { item: node.item, point: node.point, dist2: d2 });
        }
        if node.left != NONE {
            self.radius_rec(node.left, query, r2, out);
        }
        if node.right != NONE {
            self.radius_rec(node.right, query, r2, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<(Point, u32)> {
        let mut v = Vec::new();
        for i in 0..n {
            for j in 0..n {
                v.push((Point::new(i as f64 * 10.0, j as f64 * 10.0), (i * n + j) as u32));
            }
        }
        v
    }

    #[test]
    fn empty_tree_queries() {
        let t = KdTree::build(&[]);
        assert!(t.is_empty());
        assert!(t.nearest(&Point::new(0.0, 0.0)).is_none());
        assert!(t.within_radius(&Point::new(0.0, 0.0), 100.0).is_empty());
    }

    #[test]
    fn nearest_exact_hit() {
        let t = KdTree::build(&grid_points(5));
        let n = t.nearest(&Point::new(20.0, 30.0)).unwrap();
        assert_eq!(n.point, Point::new(20.0, 30.0));
        assert_eq!(n.dist2, 0.0);
    }

    #[test]
    fn nearest_between_points() {
        let t = KdTree::build(&grid_points(5));
        let n = t.nearest(&Point::new(11.0, 12.0)).unwrap();
        assert_eq!(n.point, Point::new(10.0, 10.0));
    }

    #[test]
    fn within_radius_inclusive_boundary() {
        let t = KdTree::build(&grid_points(3));
        let hits = t.within_radius(&Point::new(0.0, 0.0), 10.0);
        // (0,0), (10,0), (0,10) are within or on 10m.
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn duplicates_are_retrievable() {
        let p = Point::new(5.0, 5.0);
        let t = KdTree::build(&[(p, 1), (p, 2), (p, 3)]);
        let hits = t.within_radius(&p, 0.0);
        let mut items: Vec<u32> = hits.iter().map(|h| h.item).collect();
        items.sort_unstable();
        assert_eq!(items, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn rejects_nan_points() {
        KdTree::build(&[(Point::new(f64::NAN, 0.0), 0)]);
    }
}
