//! Compact CSR road graph.
//!
//! Nodes carry planar positions; edges carry traversal time in seconds
//! (walking time for the pedestrian layer). Storage is compressed sparse
//! row: `adj_offsets[n]..adj_offsets[n+1]` indexes the out-edges of node
//! `n` in `adj_targets`/`adj_costs`. This keeps Dijkstra's inner loop on two
//! contiguous arrays — the dominant cost of labeling (paper §IV-E).

use serde::{Deserialize, Serialize};
use staq_geom::Point;

/// Dense id of a road node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Raw dense index.
    #[inline]
    pub const fn idx(self) -> usize {
        self.0 as usize
    }
}

/// An immutable CSR road graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadGraph {
    positions: Vec<Point>,
    adj_offsets: Vec<u32>,
    adj_targets: Vec<u32>,
    /// Traversal time in seconds.
    adj_costs: Vec<f32>,
}

impl RoadGraph {
    /// Number of nodes.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn n_edges(&self) -> usize {
        self.adj_targets.len()
    }

    /// Position of `n`.
    #[inline]
    pub fn pos(&self, n: NodeId) -> Point {
        self.positions[n.idx()]
    }

    /// Out-edges of `n` as `(target, cost_secs)` pairs.
    #[inline]
    pub fn out_edges(&self, n: NodeId) -> impl Iterator<Item = (NodeId, f32)> + '_ {
        let lo = self.adj_offsets[n.idx()] as usize;
        let hi = self.adj_offsets[n.idx() + 1] as usize;
        self.adj_targets[lo..hi].iter().zip(&self.adj_costs[lo..hi]).map(|(&t, &c)| (NodeId(t), c))
    }

    /// `(position, raw node id)` pairs for building spatial indexes.
    pub fn node_points(&self) -> Vec<(Point, u32)> {
        self.positions.iter().enumerate().map(|(i, &p)| (p, i as u32)).collect()
    }

    /// Checks structural invariants; used by tests and the synthetic
    /// generator's post-conditions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.adj_offsets.len() != self.positions.len() + 1 {
            return Err("offsets length must be n_nodes + 1".into());
        }
        if *self.adj_offsets.last().unwrap() as usize != self.adj_targets.len() {
            return Err("last offset must equal edge count".into());
        }
        if self.adj_targets.len() != self.adj_costs.len() {
            return Err("targets/costs length mismatch".into());
        }
        if self.adj_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets must be non-decreasing".into());
        }
        let n = self.positions.len() as u32;
        if self.adj_targets.iter().any(|&t| t >= n) {
            return Err("edge target out of range".into());
        }
        if self.adj_costs.iter().any(|&c| !c.is_finite() || c < 0.0) {
            return Err("edge costs must be finite and non-negative".into());
        }
        if self.positions.iter().any(|p| !p.is_finite()) {
            return Err("node positions must be finite".into());
        }
        Ok(())
    }
}

/// Incremental builder; finalize with [`RoadGraphBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct RoadGraphBuilder {
    positions: Vec<Point>,
    edges: Vec<(u32, u32, f32)>,
}

impl RoadGraphBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node at `pos`, returning its id.
    pub fn add_node(&mut self, pos: Point) -> NodeId {
        assert!(pos.is_finite(), "node position must be finite");
        let id = NodeId(self.positions.len() as u32);
        self.positions.push(pos);
        id
    }

    /// Adds a directed edge with traversal time `cost_secs`.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, cost_secs: f32) {
        assert!(cost_secs.is_finite() && cost_secs >= 0.0, "bad edge cost {cost_secs}");
        assert!((from.idx()) < self.positions.len(), "from node out of range");
        assert!((to.idx()) < self.positions.len(), "to node out of range");
        self.edges.push((from.0, to.0, cost_secs));
    }

    /// Adds edges in both directions (roads and footpaths are two-way).
    pub(crate) fn add_bidirectional(&mut self, a: NodeId, b: NodeId, cost_secs: f32) {
        self.add_edge(a, b, cost_secs);
        self.add_edge(b, a, cost_secs);
    }

    /// Adds a bidirectional edge whose cost is the walking time for the
    /// Euclidean distance between the endpoints at `omega_mps`.
    pub fn add_walk_edge(&mut self, a: NodeId, b: NodeId, omega_mps: f64) {
        let d = self.positions[a.idx()].dist(&self.positions[b.idx()]);
        self.add_bidirectional(a, b, (d / omega_mps) as f32);
    }

    /// Number of nodes added so far.
    pub fn n_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Finalizes into CSR form.
    pub fn build(self) -> RoadGraph {
        let n = self.positions.len();
        let mut counts = vec![0u32; n + 1];
        for &(from, _, _) in &self.edges {
            counts[from as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let mut targets = vec![0u32; self.edges.len()];
        let mut costs = vec![0f32; self.edges.len()];
        let mut cursor = counts.clone();
        for &(from, to, cost) in &self.edges {
            let slot = cursor[from as usize] as usize;
            targets[slot] = to;
            costs[slot] = cost;
            cursor[from as usize] += 1;
        }
        let g = RoadGraph {
            positions: self.positions,
            adj_offsets: counts,
            adj_targets: targets,
            adj_costs: costs,
        };
        debug_assert!(g.check_invariants().is_ok());
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -- 1 -- 2 path plus a 0->2 shortcut.
    pub(crate) fn small_graph() -> RoadGraph {
        let mut b = RoadGraphBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        let n2 = b.add_node(Point::new(200.0, 0.0));
        b.add_bidirectional(n0, n1, 80.0);
        b.add_bidirectional(n1, n2, 80.0);
        b.add_edge(n0, n2, 300.0);
        b.build()
    }

    #[test]
    fn csr_structure() {
        let g = small_graph();
        assert_eq!(g.n_nodes(), 3);
        assert_eq!(g.n_edges(), 5);
        g.check_invariants().unwrap();
        let out: Vec<_> = g.out_edges(NodeId(0)).collect();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&(NodeId(1), 80.0)));
        assert!(out.contains(&(NodeId(2), 300.0)));
        assert_eq!(g.out_edges(NodeId(2)).count(), 1);
    }

    #[test]
    fn walk_edge_uses_distance_over_speed() {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(125.0, 0.0));
        b.add_walk_edge(a, c, 1.25);
        let g = b.build();
        let (_, cost) = g.out_edges(a).next().unwrap();
        assert!((cost - 100.0).abs() < 1e-4);
    }

    #[test]
    fn node_points_align_with_ids() {
        let g = small_graph();
        let pts = g.node_points();
        assert_eq!(pts[1].1, 1);
        assert_eq!(pts[1].0, Point::new(100.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_dangling_edges() {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        b.add_edge(a, NodeId(7), 1.0);
    }

    #[test]
    #[should_panic(expected = "bad edge cost")]
    fn builder_rejects_negative_costs() {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_edge(a, c, -1.0);
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = RoadGraphBuilder::new().build();
        assert_eq!(g.n_nodes(), 0);
        g.check_invariants().unwrap();
    }
}
