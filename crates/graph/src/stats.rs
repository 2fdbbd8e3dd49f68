//! Summary statistics over graphs (the shape of the paper's Table 1).

use crate::csr::CsrGraph;
use crate::traversal::{bfs_within, Direction};
use crate::NodeId;

/// Dataset-level statistics mirroring Table 1 plus degree-skew measures.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Maximum bi-directed degree.
    pub max_degree: usize,
    /// Mean bi-directed degree.
    pub mean_degree: f64,
    /// Approximate adjacency-list size on disk in bytes (Table 1 column).
    pub adjacency_bytes: usize,
    /// Fraction of nodes with zero edges.
    pub isolated_fraction: f64,
}

impl GraphStats {
    /// Computes statistics for `g`.
    pub fn compute(g: &CsrGraph) -> Self {
        let n = g.node_count();
        let mut max_degree = 0usize;
        let mut isolated = 0usize;
        for v in g.nodes() {
            let d = g.degree(v);
            max_degree = max_degree.max(d);
            if d == 0 {
                isolated += 1;
            }
        }
        let mean_degree = if n == 0 {
            0.0
        } else {
            2.0 * g.edge_count() as f64 / n as f64
        };
        Self {
            nodes: n,
            edges: g.edge_count(),
            max_degree,
            mean_degree,
            adjacency_bytes: g.topology_bytes(),
            isolated_fraction: if n == 0 {
                0.0
            } else {
                isolated as f64 / n as f64
            },
        }
    }
}

/// Mean number of nodes within `h` hops over a sample of `sample` sources
/// (deterministic stride sampling). Matches the paper's reporting of
/// "average 2-hop neighborhood size".
pub fn mean_h_hop_size(g: &CsrGraph, h: u32, sample: usize) -> f64 {
    let n = g.node_count();
    if n == 0 || sample == 0 {
        return 0.0;
    }
    let stride = (n / sample.min(n)).max(1);
    let mut total = 0usize;
    let mut taken = 0usize;
    let mut i = 0usize;
    while i < n && taken < sample {
        let v = NodeId::new(i as u32);
        total += bfs_within(g, v, h, Direction::Both).len() - 1;
        taken += 1;
        i += stride;
    }
    total as f64 / taken.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn star(k: u32) -> CsrGraph {
        let mut b = GraphBuilder::new();
        for i in 1..=k {
            b.add_edge(n(0), n(i));
        }
        b.build().unwrap()
    }

    #[test]
    fn stats_of_star() {
        let g = star(5);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nodes, 6);
        assert_eq!(s.edges, 5);
        assert_eq!(s.max_degree, 5);
        assert!((s.mean_degree - 10.0 / 6.0).abs() < 1e-12);
        assert_eq!(s.isolated_fraction, 0.0);
        assert!(s.adjacency_bytes > 0);
    }

    #[test]
    fn stats_counts_isolated() {
        let g = GraphBuilder::with_nodes(4).build().unwrap();
        let s = GraphStats::compute(&g);
        assert_eq!(s.isolated_fraction, 1.0);
        assert_eq!(s.mean_degree, 0.0);
        assert_eq!(s.max_degree, 0);
    }

    #[test]
    fn mean_h_hop_size_star() {
        let g = star(5);
        // Every leaf reaches hub at hop 1 and the other 4 leaves at hop 2;
        // hub reaches all 5 leaves at hop 1.
        let m1 = mean_h_hop_size(&g, 1, 6);
        assert!(m1 > 0.0);
        let m2 = mean_h_hop_size(&g, 2, 6);
        assert!(m2 >= m1);
        assert!((m2 - 5.0).abs() < 1e-9, "m2={m2}");
    }
}
