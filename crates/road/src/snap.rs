//! Snapping arbitrary points to road nodes.
//!
//! Zone centroids, POIs, and bus stops all live off-network; every
//! interaction with the graph starts by finding the nearest node. A kd-tree
//! over node positions answers each snap in O(log n).

use crate::graph::{NodeId, RoadGraph};
use staq_geom::{KdTree, Point};

/// A reusable point→node snapper for one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSnapper {
    tree: KdTree,
}

impl NodeSnapper {
    /// Indexes all nodes of `g`.
    pub fn new(g: &RoadGraph) -> Self {
        NodeSnapper { tree: KdTree::build(&g.node_points()) }
    }

    /// Nearest node to `p`, with the crow-flies gap in meters. `None` only
    /// for an empty graph.
    pub fn snap(&self, p: &Point) -> Option<(NodeId, f64)> {
        self.tree.nearest(p).map(|n| (NodeId(n.item), n.dist()))
    }

    /// Nearest node, panicking on an empty graph — the common case where the
    /// graph is known non-empty by construction.
    pub fn snap_unchecked(&self, p: &Point) -> NodeId {
        self.snap(p).expect("snapping against an empty road graph").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadGraphBuilder;

    fn graph() -> RoadGraph {
        let mut b = RoadGraphBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(100.0, 0.0));
        b.add_node(Point::new(0.0, 100.0));
        b.build()
    }

    #[test]
    fn snaps_to_nearest() {
        let g = graph();
        let s = NodeSnapper::new(&g);
        let (n, d) = s.snap(&Point::new(90.0, 5.0)).unwrap();
        assert_eq!(n, NodeId(1));
        assert!((d - (10.0f64 * 10.0 + 25.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn exact_hit_has_zero_gap() {
        let g = graph();
        let s = NodeSnapper::new(&g);
        let (n, d) = s.snap(&Point::new(0.0, 100.0)).unwrap();
        assert_eq!(n, NodeId(2));
        assert_eq!(d, 0.0);
    }

    #[test]
    fn empty_graph_returns_none() {
        let g = RoadGraphBuilder::new().build();
        let s = NodeSnapper::new(&g);
        assert!(s.snap(&Point::new(0.0, 0.0)).is_none());
    }
}
