//! Shortest walking times on the road graph.
//!
//! Three variants cover every caller in the system:
//!
//! * [`walk_time`] — one-to-one, early-terminating; access/egress legs.
//! * [`walk_times_from`] — one-to-all; used by the naive baseline and tests.
//! * [`bounded_walk_times`] — budget-bounded one-to-many; the isochrone
//!   primitive (stop search stops expanding past τ seconds).
//!
//! All run textbook Dijkstra over the CSR arrays with a binary heap and
//! lazy deletion; costs are `f64` seconds.

use crate::graph::{NodeId, RoadGraph};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Max-heap entry inverted into a min-heap on cost.
#[derive(Debug, PartialEq)]
struct HeapItem {
    cost: f64,
    node: u32,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smallest cost first. Costs are finite by construction.
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("finite costs")
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Shortest walking time in seconds from `src` to `dst`, or `None` when
/// unreachable. Terminates as soon as `dst` is settled.
pub fn walk_time(g: &RoadGraph, src: NodeId, dst: NodeId) -> Option<f64> {
    if src == dst {
        return Some(0.0);
    }
    let mut dist = vec![f64::INFINITY; g.n_nodes()];
    let mut heap = BinaryHeap::new();
    dist[src.idx()] = 0.0;
    heap.push(HeapItem { cost: 0.0, node: src.0 });
    while let Some(HeapItem { cost, node }) = heap.pop() {
        if cost > dist[node as usize] {
            continue; // stale entry
        }
        if node == dst.0 {
            return Some(cost);
        }
        for (t, w) in g.out_edges(NodeId(node)) {
            let nc = cost + w as f64;
            if nc < dist[t.idx()] {
                dist[t.idx()] = nc;
                heap.push(HeapItem { cost: nc, node: t.0 });
            }
        }
    }
    None
}

/// Shortest walking times from `src` to every node; unreachable nodes get
/// `f64::INFINITY`.
pub fn walk_times_from(g: &RoadGraph, src: NodeId) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.n_nodes()];
    let mut heap = BinaryHeap::new();
    dist[src.idx()] = 0.0;
    heap.push(HeapItem { cost: 0.0, node: src.0 });
    while let Some(HeapItem { cost, node }) = heap.pop() {
        if cost > dist[node as usize] {
            continue;
        }
        for (t, w) in g.out_edges(NodeId(node)) {
            let nc = cost + w as f64;
            if nc < dist[t.idx()] {
                dist[t.idx()] = nc;
                heap.push(HeapItem { cost: nc, node: t.0 });
            }
        }
    }
    dist
}

/// Reusable state for [`bounded_walk_times_into`]: the distance table, the
/// heap, and the list of entries the last run dirtied. Isochrone queries
/// touch a handful of nodes but the distance table spans the whole graph —
/// resetting only the dirtied entries keeps repeated queries allocation-free
/// *and* proportional to the isochrone, not the graph.
#[derive(Default)]
pub struct WalkScratch {
    dist: Vec<f64>,
    touched: Vec<u32>,
    heap: BinaryHeap<HeapItem>,
}

impl WalkScratch {
    /// Empty scratch; sizes itself to the graph on first use.
    pub fn new() -> Self {
        WalkScratch::default()
    }

    /// Distance table ready for `g`: sized on first use (or a graph swap),
    /// sparse-reset from the previous run's touched list otherwise.
    fn reset(&mut self, g: &RoadGraph) {
        if self.dist.len() != g.n_nodes() {
            self.dist.clear();
            self.dist.resize(g.n_nodes(), f64::INFINITY);
        } else {
            for &n in &self.touched {
                self.dist[n as usize] = f64::INFINITY;
            }
        }
        self.touched.clear();
        self.heap.clear();
    }
}

/// Nodes reachable from `src` within `budget_secs`, as `(node, time)` pairs
/// in settle order (non-decreasing time). The frontier never expands a node
/// whose settled time exceeds the budget, so the cost is proportional to the
/// isochrone's size, not the graph's.
pub fn bounded_walk_times(g: &RoadGraph, src: NodeId, budget_secs: f64) -> Vec<(NodeId, f64)> {
    let mut out = Vec::new();
    bounded_walk_times_into(g, src, budget_secs, &mut WalkScratch::new(), &mut out);
    out
}

/// [`bounded_walk_times`] against caller-owned scratch and output buffers —
/// the hot-path variant: RAPTOR runs two isochrones per query (origin
/// access, destination egress) and labeling runs millions of queries.
pub fn bounded_walk_times_into(
    g: &RoadGraph,
    src: NodeId,
    budget_secs: f64,
    scratch: &mut WalkScratch,
    out: &mut Vec<(NodeId, f64)>,
) {
    out.clear();
    if budget_secs < 0.0 {
        return;
    }
    scratch.reset(g);
    let WalkScratch { dist, touched, heap } = scratch;
    dist[src.idx()] = 0.0;
    touched.push(src.0);
    heap.push(HeapItem { cost: 0.0, node: src.0 });
    while let Some(HeapItem { cost, node }) = heap.pop() {
        if cost > dist[node as usize] {
            continue;
        }
        out.push((NodeId(node), cost));
        for (t, w) in g.out_edges(NodeId(node)) {
            let nc = cost + w as f64;
            if nc <= budget_secs && nc < dist[t.idx()] {
                if dist[t.idx()].is_infinite() {
                    touched.push(t.0);
                }
                dist[t.idx()] = nc;
                heap.push(HeapItem { cost: nc, node: t.0 });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadGraphBuilder;
    use staq_geom::Point;

    /// Line of 5 nodes, 60s per hop, with a slow 500s shortcut 0->4.
    fn line_graph() -> RoadGraph {
        let mut b = RoadGraphBuilder::new();
        let ids: Vec<NodeId> =
            (0..5).map(|i| b.add_node(Point::new(i as f64 * 100.0, 0.0))).collect();
        for w in ids.windows(2) {
            b.add_bidirectional(w[0], w[1], 60.0);
        }
        b.add_edge(ids[0], ids[4], 500.0);
        b.build()
    }

    #[test]
    fn one_to_one_shortest() {
        let g = line_graph();
        assert_eq!(walk_time(&g, NodeId(0), NodeId(4)), Some(240.0));
        assert_eq!(walk_time(&g, NodeId(2), NodeId(2)), Some(0.0));
    }

    #[test]
    fn unreachable_is_none() {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        let g = b.build();
        assert_eq!(walk_time(&g, a, c), None);
    }

    #[test]
    fn one_to_all_matches_one_to_one() {
        let g = line_graph();
        let all = walk_times_from(&g, NodeId(0));
        for n in 0..5u32 {
            let one = walk_time(&g, NodeId(0), NodeId(n)).unwrap();
            assert_eq!(all[n as usize], one);
        }
    }

    #[test]
    fn bounded_respects_budget() {
        let g = line_graph();
        let within = bounded_walk_times(&g, NodeId(0), 130.0);
        // Nodes 0 (0s), 1 (60s), 2 (120s).
        assert_eq!(within.len(), 3);
        assert!(within.iter().all(|&(_, t)| t <= 130.0));
        // Settle order is non-decreasing in time.
        for w in within.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn bounded_zero_budget_is_source_only() {
        let g = line_graph();
        let within = bounded_walk_times(&g, NodeId(2), 0.0);
        assert_eq!(within, vec![(NodeId(2), 0.0)]);
        assert!(bounded_walk_times(&g, NodeId(2), -1.0).is_empty());
    }

    #[test]
    fn directed_edges_are_one_way() {
        let g = line_graph();
        // Shortcut 0->4 exists; 4->0 must use the chain.
        assert_eq!(walk_time(&g, NodeId(4), NodeId(0)), Some(240.0));
    }
}
