//! Label assignment for knowledge-graph-style workloads.
//!
//! The Freebase-like profile needs node labels (entity types) and edge
//! labels (relation types) so that label-constrained queries (§2.2) have
//! something to filter on. Labels are drawn from Zipf distributions because
//! real type/relation frequencies are heavily skewed.

use grouting_graph::{CsrGraph, EdgeLabelId, GraphBuilder, NodeLabelId};

use crate::rng;
use crate::zipf::Zipf;

/// Configuration for label assignment.
#[derive(Debug, Clone, Copy)]
pub struct LabelConfig {
    /// Number of distinct node labels (entity types).
    pub node_alphabet: u16,
    /// Number of distinct edge labels (relation types); label 0 is reserved
    /// for "unlabelled" so generated labels start at 1.
    pub edge_alphabet: u16,
    /// Zipf exponent for both alphabets.
    pub skew: f64,
}

impl Default for LabelConfig {
    fn default() -> Self {
        Self {
            node_alphabet: 32,
            edge_alphabet: 16,
            skew: 1.0,
        }
    }
}

/// Rebuilds `g` with Zipf-assigned node and edge labels.
///
/// # Panics
///
/// Panics if either alphabet is zero.
pub fn assign_labels(g: &CsrGraph, config: &LabelConfig, seed: u64) -> CsrGraph {
    assert!(config.node_alphabet > 0, "empty node alphabet");
    assert!(config.edge_alphabet > 0, "empty edge alphabet");
    let mut r = rng(seed);
    let node_z = Zipf::new(config.node_alphabet as usize, config.skew);
    let edge_z = Zipf::new(config.edge_alphabet as usize, config.skew);
    let mut b = GraphBuilder::with_nodes(g.node_count());
    for v in g.nodes() {
        b.set_node_label(v, NodeLabelId::new(node_z.sample(&mut r) as u16));
        for w in g.out_neighbors(v) {
            // Edge labels start at 1; 0 means unlabelled.
            let l = edge_z.sample(&mut r) as u16 + 1;
            b.add_labeled_edge(v, w, EdgeLabelId::new(l.min(config.edge_alphabet)));
        }
    }
    b.build().expect("same node count as input")
}

/// Counts nodes per label, for workload construction and tests.
pub fn label_histogram(g: &CsrGraph) -> Vec<(NodeLabelId, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for v in g.nodes() {
        if let Some(l) = g.node_label(v) {
            *counts.entry(l).or_insert(0usize) += 1;
        }
    }
    counts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::er;

    #[test]
    fn labels_cover_graph() {
        let g = er::generate(500, 2000, 1);
        let lg = assign_labels(&g, &LabelConfig::default(), 2);
        assert_eq!(lg.node_count(), g.node_count());
        assert_eq!(lg.edge_count(), g.edge_count());
        assert!(lg.has_node_labels());
        let hist = label_histogram(&lg);
        let total: usize = hist.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn labels_are_skewed() {
        let g = er::generate(2000, 4000, 3);
        let lg = assign_labels(
            &g,
            &LabelConfig {
                node_alphabet: 16,
                edge_alphabet: 8,
                skew: 1.2,
            },
            4,
        );
        let hist = label_histogram(&lg);
        let max = hist.iter().map(|&(_, c)| c).max().unwrap();
        let min = hist.iter().map(|&(_, c)| c).min().unwrap();
        assert!(max > 4 * min.max(1), "max {max} min {min}");
    }

    #[test]
    fn edge_labels_start_at_one() {
        let g = er::generate(100, 400, 5);
        let lg = assign_labels(&g, &LabelConfig::default(), 6);
        for v in lg.nodes() {
            for (_, l) in lg.out_edges(v) {
                assert!(l.0 >= 1);
            }
        }
    }
}
