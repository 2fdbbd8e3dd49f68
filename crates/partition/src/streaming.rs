//! Linear Deterministic Greedy (LDG) streaming partitioner.
//!
//! Stanton & Kliot's one-pass heuristic (referenced by the paper as
//! streaming partitioning \[30\]): nodes arrive in a stream and each is
//! assigned to the partition maximising
//! `|N(v) ∩ P_i| · (1 − |P_i| / C)` where `C` is the per-partition capacity.
//! One pass over the graph, O(n) memory — the cheap middle ground between
//! hash and multilevel partitioning, used in re-partitioning ablations.

use grouting_graph::CsrGraph;

use crate::TablePartitioner;

/// Runs LDG over nodes in id order and returns the assignment.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn ldg_partition(g: &CsrGraph, parts: usize) -> TablePartitioner {
    assert!(parts > 0, "zero partitions");
    let n = g.node_count();
    let capacity = (n as f64 / parts as f64).ceil().max(1.0);
    let mut assign = vec![u32::MAX; n];
    let mut sizes = vec![0usize; parts];

    for v in g.nodes() {
        let mut neighbor_counts = vec![0u32; parts];
        for w in g.all_neighbors(v) {
            let a = assign.get(w.index()).copied().unwrap_or(u32::MAX);
            if a != u32::MAX {
                neighbor_counts[a as usize] += 1;
            }
        }
        let mut best_part = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for p in 0..parts {
            let penalty = 1.0 - sizes[p] as f64 / capacity;
            let score = neighbor_counts[p] as f64 * penalty.max(0.0)
                // Tie-break toward the emptiest part so isolated prefixes
                // spread instead of piling into partition 0.
                + penalty * 1e-6;
            if score > best_score {
                best_score = score;
                best_part = p;
            }
        }
        assign[v.index()] = best_part as u32;
        sizes[best_part] += 1;
    }
    TablePartitioner::new(assign, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{balance, edge_cut};
    use crate::HashPartitioner;
    use grouting_graph::{GraphBuilder, NodeId};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn clique_chain(k: usize, s: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        for c in 0..k {
            let base = (c * s) as u32;
            for i in 0..s as u32 {
                for j in (i + 1)..s as u32 {
                    b.add_edge(n(base + i), n(base + j));
                }
            }
            if c + 1 < k {
                b.add_edge(n(base + s as u32 - 1), n(base + s as u32));
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn better_than_hash_on_clusters() {
        let g = clique_chain(8, 12);
        let ldg = ldg_partition(&g, 4);
        let hash = HashPartitioner::new(4);
        assert!(edge_cut(&g, &ldg) < edge_cut(&g, &hash));
    }

    #[test]
    fn stays_balanced() {
        let g = clique_chain(8, 12);
        let ldg = ldg_partition(&g, 4);
        assert!(balance(&g, &ldg) <= 1.6, "balance {}", balance(&g, &ldg));
    }

    #[test]
    fn covers_all_nodes() {
        let g = clique_chain(3, 5);
        let ldg = ldg_partition(&g, 2);
        assert_eq!(ldg.table().len(), g.node_count());
        assert!(ldg.table().iter().all(|&p| p < 2));
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        let ldg = ldg_partition(&g, 3);
        assert!(ldg.table().is_empty());
    }

    #[test]
    #[should_panic(expected = "zero partitions")]
    fn rejects_zero_parts() {
        let g = clique_chain(1, 3);
        let _ = ldg_partition(&g, 0);
    }
}
