//! Nearest-neighbour indexes behind one trait: sub-microsecond k-NN over a
//! small, incrementally grown point set.
//!
//! Its only caller outside this module's tests is the `staq-e2e`
//! benchmark's `ml.ann_query_ns` probe (`benchmark/src/layers.rs`); the
//! engine's point queries are an exact scan and use no index. The module
//! goes when that probe does. [`AnnIndex`] abstracts the index; two
//! implementations ship:
//!
//! * [`LinearAnn`] — brute-force scan. Exact, trivially correct, and the
//!   oracle the kd-tree is property-tested against.
//! * [`KdAnn`] — a kd-tree with amortized incremental insert (points buffer
//!   until the tree doubles, then it rebuilds by median splits), pruned
//!   exact k-NN search: it returns true nearest neighbours.
//!
//! Distances are Euclidean. [`KnnRegressor`](crate::knn::KnnRegressor)
//! remains the Minkowski-general regressor for COREG.

/// An incremental k-nearest-neighbour index over fixed-dimension points.
pub trait AnnIndex {
    /// Adds one point; its id is the insertion ordinal (0-based).
    fn push(&mut self, point: &[f64]);
    /// Number of indexed points.
    fn len(&self) -> usize;
    /// True when no point is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The `k` nearest points to `q` as `(id, euclidean distance)`,
    /// ascending by distance, ties broken by insertion id. Fewer than `k`
    /// when the index is smaller.
    fn nearest(&self, q: &[f64], k: usize) -> Vec<(usize, f64)>;
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Merges `(id, dist²)` into a bounded best-k list kept ascending by
/// `(dist², id)`.
fn offer(best: &mut Vec<(usize, f64)>, k: usize, id: usize, d2: f64) {
    let pos = best.partition_point(|&(bi, bd)| bd < d2 || (bd == d2 && bi < id));
    if pos < k {
        if best.len() == k {
            best.pop();
        }
        best.insert(pos, (id, d2));
    }
}

fn finish(best: Vec<(usize, f64)>) -> Vec<(usize, f64)> {
    best.into_iter().map(|(i, d2)| (i, d2.sqrt())).collect()
}

/// Brute-force exact k-NN: the reference implementation.
#[derive(Debug, Clone, Default)]
pub struct LinearAnn {
    /// Point coordinates, flattened row-major (`dim` values per point):
    /// one contiguous allocation keeps the scan cache-friendly.
    coords: Vec<f64>,
    n: usize,
    dim: usize,
}

impl LinearAnn {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    fn point(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..i * self.dim + self.dim]
    }
}

impl AnnIndex for LinearAnn {
    fn push(&mut self, point: &[f64]) {
        if self.n == 0 {
            self.dim = point.len();
        }
        assert_eq!(point.len(), self.dim, "AnnIndex points must share one dimension");
        self.coords.extend_from_slice(point);
        self.n += 1;
    }

    fn len(&self) -> usize {
        self.n
    }

    fn nearest(&self, q: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut best = Vec::with_capacity(k.min(self.n) + 1);
        if k == 0 {
            return best;
        }
        for i in 0..self.n {
            offer(&mut best, k, i, dist2(q, self.point(i)));
        }
        finish(best)
    }
}

/// A kd-tree node: splitting point + axis, children by index.
struct KdNode {
    /// Id (insertion ordinal) of the point stored at this node.
    id: usize,
    axis: usize,
    left: Option<u32>,
    right: Option<u32>,
}

/// kd-tree k-NN with amortized incremental insert.
///
/// Inserts append past the tree as a linear *tail*; when the tail outgrows
/// an eighth of the indexed set, the whole set rebuilds by median splits —
/// O(n log² n) every n/8 inserts, O(log² n) amortized per insert. Queries
/// search the tree with hypersphere/hyperplane pruning and scan the
/// (short) tail linearly, so results are always exact regardless of
/// rebuild timing. Coordinates live in one flat row-major buffer, and the
/// tail is just the id range `tree_n..n` of that buffer: both the
/// pointer-chase of a `Vec<Vec<f64>>` and a long tail of scattered ids
/// cost more than the tree search itself.
#[derive(Default)]
pub struct KdAnn {
    /// Point coordinates, flattened row-major (`dim` values per point).
    coords: Vec<f64>,
    n: usize,
    dim: usize,
    nodes: Vec<KdNode>,
    root: Option<u32>,
    /// Points `0..tree_n` are in the tree; `tree_n..n` are the tail.
    tree_n: usize,
}

impl KdAnn {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    fn point(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..i * self.dim + self.dim]
    }

    /// Builds the tree over every point, emptying the tail.
    fn rebuild(&mut self) {
        self.nodes.clear();
        self.tree_n = self.n;
        let mut ids: Vec<usize> = (0..self.n).collect();
        self.root = self.build(&mut ids, 0);
    }

    fn build(&mut self, ids: &mut [usize], depth: usize) -> Option<u32> {
        if ids.is_empty() {
            return None;
        }
        let axis = if self.dim == 0 { 0 } else { depth % self.dim };
        // Median by the split axis; ties keep id order for determinism.
        ids.sort_by(|&a, &b| {
            let (ka, kb) = (self.coord(a, axis), self.coord(b, axis));
            ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        let mid = ids.len() / 2;
        let id = ids[mid];
        let node = self.nodes.len() as u32;
        self.nodes.push(KdNode { id, axis, left: None, right: None });
        let (lo, rest) = ids.split_at_mut(mid);
        let hi = &mut rest[1..];
        let left = self.build(lo, depth + 1);
        let right = self.build(hi, depth + 1);
        self.nodes[node as usize].left = left;
        self.nodes[node as usize].right = right;
        Some(node)
    }

    fn coord(&self, id: usize, axis: usize) -> f64 {
        if axis < self.dim {
            self.coords[id * self.dim + axis]
        } else {
            0.0
        }
    }

    fn search(&self, node: u32, q: &[f64], k: usize, best: &mut Vec<(usize, f64)>) {
        let n = &self.nodes[node as usize];
        let p = self.point(n.id);
        offer(best, k, n.id, dist2(q, p));
        if self.dim == 0 {
            // Zero-dimensional points are all ties: no axis to prune on,
            // visit everything.
            if let Some(c) = n.left {
                self.search(c, q, k, best);
            }
            if let Some(c) = n.right {
                self.search(c, q, k, best);
            }
            return;
        }
        let diff = q.get(n.axis).copied().unwrap_or(0.0) - p[n.axis];
        let (near, far) = if diff < 0.0 { (n.left, n.right) } else { (n.right, n.left) };
        if let Some(c) = near {
            self.search(c, q, k, best);
        }
        // The far half-space can only help if the splitting hyperplane is
        // closer than the current k-th best (or the list is short).
        let need_far = best.len() < k || diff * diff <= best.last().map_or(f64::INFINITY, |b| b.1);
        if need_far {
            if let Some(c) = far {
                self.search(c, q, k, best);
            }
        }
    }
}

impl AnnIndex for KdAnn {
    fn push(&mut self, point: &[f64]) {
        if self.n == 0 {
            self.dim = point.len();
        }
        assert_eq!(point.len(), self.dim, "AnnIndex points must share one dimension");
        self.coords.extend_from_slice(point);
        self.n += 1;
        // Keep the linearly-scanned tail short: queries pay for every tail
        // point on every call, rebuilds amortize across n/8 inserts.
        if (self.n - self.tree_n) * 8 > self.n {
            self.rebuild();
        }
    }

    fn len(&self) -> usize {
        self.n
    }

    fn nearest(&self, q: &[f64], k: usize) -> Vec<(usize, f64)> {
        let mut best = Vec::with_capacity(k.min(self.n) + 1);
        if k == 0 {
            return best;
        }
        if let Some(root) = self.root {
            self.search(root, q, k, &mut best);
        }
        for id in self.tree_n..self.n {
            let d2 = dist2(q, self.point(id));
            // Cheap reject before the sorted-insert bookkeeping: most tail
            // points lose to an already-full best list.
            if best.len() < k || d2 <= best.last().map_or(f64::INFINITY, |b| b.1) {
                offer(&mut best, k, id, d2);
            }
        }
        finish(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for x in 0..5 {
            for y in 0..5 {
                pts.push(vec![x as f64, y as f64]);
            }
        }
        pts
    }

    #[test]
    fn kd_matches_linear_on_grid() {
        let (mut kd, mut lin) = (KdAnn::new(), LinearAnn::new());
        for p in grid() {
            kd.push(&p);
            lin.push(&p);
        }
        for q in [[0.2, 0.1], [2.5, 2.5], [10.0, -3.0]] {
            for k in [1, 3, 7, 30] {
                assert_eq!(kd.nearest(&q, k), lin.nearest(&q, k), "q={q:?} k={k}");
            }
        }
    }

    #[test]
    fn nearest_is_ascending_and_exact() {
        let mut kd = KdAnn::new();
        for p in grid() {
            kd.push(&p);
        }
        let nb = kd.nearest(&[1.1, 1.1], 4);
        assert_eq!(nb.len(), 4);
        assert!((nb[0].1 - (0.02f64).sqrt()).abs() < 1e-12);
        assert!(nb.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn duplicate_points_tie_break_by_insertion_id() {
        let (mut kd, mut lin) = (KdAnn::new(), LinearAnn::new());
        for _ in 0..4 {
            kd.push(&[1.0, 1.0]);
            lin.push(&[1.0, 1.0]);
        }
        let want = vec![(0, 0.0), (1, 0.0), (2, 0.0)];
        assert_eq!(lin.nearest(&[1.0, 1.0], 3), want);
        assert_eq!(kd.nearest(&[1.0, 1.0], 3), want);
    }

    #[test]
    fn empty_and_oversized_k() {
        let kd = KdAnn::new();
        assert!(kd.nearest(&[0.0], 3).is_empty());
        let mut kd = KdAnn::new();
        kd.push(&[1.0]);
        assert_eq!(kd.nearest(&[0.0], 5), vec![(0, 1.0)]);
        assert!(kd.nearest(&[0.0], 0).is_empty());
    }

    #[test]
    fn zero_dimensional_points_are_all_ties() {
        let mut kd = KdAnn::new();
        for _ in 0..3 {
            kd.push(&[]);
        }
        assert_eq!(kd.nearest(&[], 2), vec![(0, 0.0), (1, 0.0)]);
    }

    proptest::proptest! {
        /// The kd-tree returns exactly the brute-force k-NN — same ids,
        /// same distances — under random point sets, duplicates included.
        #[test]
        fn kd_equals_linear(
            pts in proptest::collection::vec(
                proptest::collection::vec(-50.0f64..50.0, 3), 1..60),
            q in proptest::collection::vec(-60.0f64..60.0, 3),
            k in 1usize..10,
        ) {
            let (mut kd, mut lin) = (KdAnn::new(), LinearAnn::new());
            // Duplicate every third point to force distance ties.
            for (i, p) in pts.iter().enumerate() {
                kd.push(p);
                lin.push(p);
                if i % 3 == 0 {
                    kd.push(p);
                    lin.push(p);
                }
            }
            let a = kd.nearest(&q, k);
            let b = lin.nearest(&q, k);
            proptest::prop_assert_eq!(a, b);
        }
    }
}
