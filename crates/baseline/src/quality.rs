//! Partition-quality metrics: edge-cut, balance, replication factor. The
//! cuts' tests use them as their oracle.

use grouting_graph::CsrGraph;

use grouting_storage::Partitioner;

/// Number of directed edges whose endpoints live on different partitions.
pub fn edge_cut(g: &CsrGraph, p: &dyn Partitioner) -> usize {
    let mut cut = 0usize;
    for v in g.nodes() {
        let pv = p.assign(v);
        for w in g.out_neighbors(v) {
            if p.assign(w) != pv {
                cut += 1;
            }
        }
    }
    cut
}

/// Fraction of edges cut, in `[0, 1]`; zero for an empty graph.
pub fn edge_cut_fraction(g: &CsrGraph, p: &dyn Partitioner) -> f64 {
    if g.edge_count() == 0 {
        return 0.0;
    }
    edge_cut(g, p) as f64 / g.edge_count() as f64
}

/// Node counts per partition.
pub fn part_sizes(g: &CsrGraph, p: &dyn Partitioner) -> Vec<usize> {
    let mut sizes = vec![0usize; p.parts()];
    for v in g.nodes() {
        sizes[p.assign(v)] += 1;
    }
    sizes
}

/// Balance factor: `max_part_size / ideal_part_size` (1.0 = perfect).
pub fn balance(g: &CsrGraph, p: &dyn Partitioner) -> f64 {
    let sizes = part_sizes(g, p);
    let n = g.node_count();
    if n == 0 {
        return 1.0;
    }
    let ideal = n as f64 / p.parts() as f64;
    sizes.iter().copied().max().unwrap_or(0) as f64 / ideal
}

/// Replication factor of a vertex-cut edge assignment: average number of
/// partitions in which a node is materialised (PowerGraph's quality metric).
///
/// `edge_parts[e]` is the partition of the e-th edge in the graph's
/// canonical out-edge order.
pub fn replication_factor(g: &CsrGraph, edge_parts: &[u32]) -> f64 {
    assert_eq!(edge_parts.len(), g.edge_count(), "one partition per edge");
    let mut replicas: Vec<std::collections::BTreeSet<u32>> =
        vec![std::collections::BTreeSet::new(); g.node_count()];
    let mut e = 0usize;
    for v in g.nodes() {
        for w in g.out_neighbors(v) {
            let p = edge_parts[e];
            replicas[v.index()].insert(p);
            replicas[w.index()].insert(p);
            e += 1;
        }
    }
    let (sum, cnt) = replicas
        .iter()
        .filter(|r| !r.is_empty())
        .fold((0usize, 0usize), |(s, c), r| (s + r.len(), c + 1));
    if cnt == 0 {
        0.0
    } else {
        sum as f64 / cnt as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TablePartitioner;
    use grouting_graph::{GraphBuilder, NodeId};
    use grouting_storage::HashPartitioner;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn two_triangles() -> CsrGraph {
        // Triangle 0-1-2 and triangle 3-4-5 joined by one edge 2 -> 3.
        let mut b = GraphBuilder::new();
        for (s, d) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)] {
            b.add_edge(n(s), n(d));
        }
        b.build().unwrap()
    }

    #[test]
    fn perfect_cut_for_natural_clusters() {
        let g = two_triangles();
        let p = TablePartitioner::new(vec![0, 0, 0, 1, 1, 1], 2);
        assert_eq!(edge_cut(&g, &p), 1);
        assert!((edge_cut_fraction(&g, &p) - 1.0 / 7.0).abs() < 1e-12);
        assert_eq!(balance(&g, &p), 1.0);
    }

    #[test]
    fn bad_cut_for_interleaved() {
        let g = two_triangles();
        let p = TablePartitioner::new(vec![0, 1, 0, 1, 0, 1], 2);
        assert!(edge_cut(&g, &p) >= 5);
    }

    #[test]
    fn hash_partitioner_cut_is_high_on_clustered_graph() {
        let g = two_triangles();
        let hash = HashPartitioner::new(2);
        let ideal = TablePartitioner::new(vec![0, 0, 0, 1, 1, 1], 2);
        assert!(edge_cut(&g, &hash) >= edge_cut(&g, &ideal));
    }

    #[test]
    fn part_sizes_sum_to_n() {
        let g = two_triangles();
        let p = HashPartitioner::new(3);
        let sizes = part_sizes(&g, &p);
        assert_eq!(sizes.iter().sum::<usize>(), 6);
    }

    #[test]
    fn replication_factor_bounds() {
        let g = two_triangles();
        // All edges on one partition: every touched node has 1 replica.
        let rf = replication_factor(&g, &vec![0; g.edge_count()]);
        assert!((rf - 1.0).abs() < 1e-12);
        // Alternate partitions: some nodes get 2 replicas.
        let alternating: Vec<u32> = (0..g.edge_count() as u32).map(|e| e % 2).collect();
        let rf2 = replication_factor(&g, &alternating);
        assert!(rf2 > 1.0 && rf2 <= 2.0);
    }

    #[test]
    #[should_panic(expected = "one partition per edge")]
    fn replication_factor_arity_checked() {
        let g = two_triangles();
        let _ = replication_factor(&g, &[0, 1]);
    }

    #[test]
    fn empty_graph_metrics() {
        let g = GraphBuilder::new().build().unwrap();
        let p = HashPartitioner::new(2);
        assert_eq!(edge_cut(&g, &p), 0);
        assert_eq!(edge_cut_fraction(&g, &p), 0.0);
        assert_eq!(balance(&g, &p), 1.0);
    }
}
