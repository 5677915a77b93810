//! Synthetic road/walking network: a perturbed grid with dropout and
//! diagonal arterials, guaranteed connected.
//!
//! Urban street networks have near-grid topology with mean degree ≈ 3–4 and
//! occasional diagonal arterials; dropout breaks the perfect-grid symmetry
//! that would otherwise make every shortest path a Manhattan path. A
//! union-find pass re-links any components the dropout disconnects, so
//! walking isochrones and access legs never dead-end on an island.

use crate::config::CityConfig;
use rand::rngs::StdRng;
use rand::RngExt;
use staq_geom::Point;
use staq_road::{NodeId, RoadGraph, RoadGraphBuilder};

/// Walking speed used to convert edge length to traversal seconds. Matches
/// the paper's ω = 4.5 km/h.
const OMEGA_MPS: f64 = 4.5 * 1000.0 / 3600.0;

/// Simple union-find over node indices.
struct Dsu {
    parent: Vec<u32>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu { parent: (0..n as u32).collect() }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra as usize] = rb;
        true
    }
}

/// Generates the road graph for `config`.
pub fn generate(config: &CityConfig, rng: &mut StdRng) -> RoadGraph {
    let g = ((config.side_m / config.road_spacing_m).round() as usize).max(2);
    let mut b = RoadGraphBuilder::new();
    let cell = config.side_m / g as f64;

    // Nodes: jittered grid.
    let mut ids = Vec::with_capacity((g + 1) * (g + 1));
    for j in 0..=g {
        for i in 0..=g {
            let jx = rng.random_range(-0.2..0.2) * cell;
            let jy = rng.random_range(-0.2..0.2) * cell;
            ids.push(b.add_node(Point::new(i as f64 * cell + jx, j as f64 * cell + jy)));
        }
    }
    let at = |i: usize, j: usize| ids[j * (g + 1) + i];

    // Candidate grid edges with dropout.
    let mut kept: Vec<(NodeId, NodeId)> = Vec::new();
    let mut dropped: Vec<(NodeId, NodeId)> = Vec::new();
    for j in 0..=g {
        for i in 0..=g {
            if i < g {
                let e = (at(i, j), at(i + 1, j));
                if rng.random_range(0.0..1.0) < config.road_dropout {
                    dropped.push(e);
                } else {
                    kept.push(e);
                }
            }
            if j < g {
                let e = (at(i, j), at(i, j + 1));
                if rng.random_range(0.0..1.0) < config.road_dropout {
                    dropped.push(e);
                } else {
                    kept.push(e);
                }
            }
        }
    }

    // Diagonal arterials through the center: faster crossings that make the
    // network non-Manhattan (about 1 per 2 km of side).
    let n_diag = ((config.side_m / 2000.0).round() as usize).max(1);
    for d in 0..n_diag {
        let off = (d + 1) * g / (n_diag + 1);
        for k in 0..g {
            let (i1, j1) = (k, (k + off) % (g + 1));
            let (i2, j2) = (k + 1, (k + 1 + off) % (g + 1));
            if j2 == (j1 + 1) % (g + 1) && j1 < g {
                kept.push((at(i1, j1), at(i2, j1 + 1)));
            }
        }
    }

    // Connectivity repair: union kept edges, then re-add dropped edges that
    // bridge components (cheapest honest repair — the edge existed in the
    // underlying grid anyway).
    let n_nodes = b.n_nodes();
    let mut dsu = Dsu::new(n_nodes);
    for &(u, v) in &kept {
        dsu.union(u.0, v.0);
    }
    for &(u, v) in &dropped {
        if dsu.find(u.0) != dsu.find(v.0) {
            dsu.union(u.0, v.0);
            kept.push((u, v));
        }
    }

    for (u, v) in kept {
        b.add_walk_edge(u, v, OMEGA_MPS);
    }
    let graph = b.build();
    graph.check_invariants().expect("generated road graph invalid");
    graph
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use staq_road::dijkstra::walk_times_from;

    fn gen(seed: u64) -> RoadGraph {
        let cfg = CityConfig::small(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        generate(&cfg, &mut rng)
    }

    #[test]
    fn graph_is_connected() {
        let g = gen(3);
        let dist = walk_times_from(&g, NodeId(0));
        let unreachable = dist.iter().filter(|d| d.is_infinite()).count();
        assert_eq!(unreachable, 0, "{unreachable} of {} nodes unreachable", g.n_nodes());
    }

    #[test]
    fn degree_distribution_is_urban() {
        let g = gen(5);
        let mean_deg = g.n_edges() as f64 / g.n_nodes() as f64;
        // Bidirectional edges: grid interior degree 4 (out-degree counts each
        // direction once), dropout trims it.
        assert!((2.5..4.5).contains(&mean_deg), "mean out-degree {mean_deg}");
    }

    #[test]
    fn edge_costs_are_walking_times() {
        let g = gen(7);
        for n in 0..g.n_nodes() {
            for (t, c) in g.out_edges(NodeId(n as u32)) {
                let d = g.pos(NodeId(n as u32)).dist(&g.pos(t));
                assert!((c as f64 - d / OMEGA_MPS).abs() < 0.5, "cost {c} for {d}m");
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = gen(11);
        let b = gen(11);
        assert_eq!(a.n_nodes(), b.n_nodes());
        assert_eq!(a.n_edges(), b.n_edges());
    }

    #[test]
    fn dropout_removes_edges() {
        let cfg_no = CityConfig { road_dropout: 0.0, ..CityConfig::small(1) };
        let cfg_hi = CityConfig { road_dropout: 0.3, ..CityConfig::small(1) };
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(1);
        let full = generate(&cfg_no, &mut r1);
        let cut = generate(&cfg_hi, &mut r2);
        assert!(cut.n_edges() < full.n_edges());
    }
}
