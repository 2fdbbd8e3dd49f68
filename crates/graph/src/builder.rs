//! Edge-list accumulator that produces an immutable [`CsrGraph`].

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::{EdgeLabelId, NodeId, NodeLabelId};
use crate::Result;

/// Accumulates directed, optionally labelled edges and node labels, then
/// builds a compressed-sparse-row graph with both edge directions.
///
/// Duplicate `(src, dst, label)` triples are removed at build time; the node
/// count is the maximum of the declared count and the highest endpoint seen.
///
/// # Examples
///
/// ```
/// use grouting_graph::{GraphBuilder, NodeId};
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(NodeId::new(0), NodeId::new(1));
/// b.add_edge(NodeId::new(1), NodeId::new(2));
/// let g = b.build().unwrap();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    edges: Vec<(u32, u32, EdgeLabelId)>,
    node_labels: Vec<(u32, NodeLabelId)>,
    min_nodes: usize,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that pre-declares at least `n` nodes.
    pub fn with_nodes(n: usize) -> Self {
        Self {
            min_nodes: n,
            ..Self::default()
        }
    }

    /// Pre-allocates space for `n` edges.
    pub fn reserve_edges(&mut self, n: usize) {
        self.edges.reserve(n);
    }

    /// Adds an unlabelled directed edge.
    #[inline]
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) {
        self.add_labeled_edge(src, dst, EdgeLabelId::UNLABELED);
    }

    /// Adds a directed edge carrying an edge label.
    #[inline]
    pub fn add_labeled_edge(&mut self, src: NodeId, dst: NodeId, label: EdgeLabelId) {
        self.edges.push((src.raw(), dst.raw(), label));
    }

    /// Assigns a label to a node (last assignment wins).
    pub fn set_node_label(&mut self, node: NodeId, label: NodeLabelId) {
        self.node_labels.push((node.raw(), label));
    }

    /// Number of edges accumulated so far (before dedup).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Builds the CSR graph, sorting and deduplicating edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooManyNodes`] if the node count exceeds the
    /// `u32` id space.
    pub fn build(mut self) -> Result<CsrGraph> {
        let max_endpoint = self
            .edges
            .iter()
            .map(|&(s, d, _)| s.max(d) as usize + 1)
            .chain(self.node_labels.iter().map(|&(n, _)| n as usize + 1))
            .max()
            .unwrap_or(0);
        let n = self.min_nodes.max(max_endpoint);
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyNodes(n));
        }

        // Sort by (src, dst, label) and drop exact duplicates.
        self.edges.sort_unstable();
        self.edges.dedup();

        let m = self.edges.len();
        let mut out_offsets = vec![0u64; n + 1];
        for &(s, _, _) in &self.edges {
            out_offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let mut out_targets = vec![0u32; m];
        let mut out_labels = vec![EdgeLabelId::UNLABELED; m];
        {
            let mut cursor = out_offsets.clone();
            for &(s, d, l) in &self.edges {
                let at = cursor[s as usize] as usize;
                out_targets[at] = d;
                out_labels[at] = l;
                cursor[s as usize] += 1;
            }
        }

        // Reverse direction: count in-degrees and scatter.
        let mut in_offsets = vec![0u64; n + 1];
        for &(_, d, _) in &self.edges {
            in_offsets[d as usize + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut in_sources = vec![0u32; m];
        let mut in_labels = vec![EdgeLabelId::UNLABELED; m];
        {
            let mut cursor = in_offsets.clone();
            for &(s, d, l) in &self.edges {
                let at = cursor[d as usize] as usize;
                in_sources[at] = s;
                in_labels[at] = l;
                cursor[d as usize] += 1;
            }
        }
        // In-lists come out sorted by source because the edge list is sorted
        // by (src, dst): scattering preserves the source order per target.

        let mut node_labels =
            vec![NodeLabelId::default(); if self.node_labels.is_empty() { 0 } else { n }];
        for &(node, label) in &self.node_labels {
            node_labels[node as usize] = label;
        }

        Ok(CsrGraph::from_parts(
            n,
            out_offsets,
            out_targets,
            out_labels,
            in_offsets,
            in_sources,
            in_labels,
            node_labels,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn builds_empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn builds_isolated_nodes() {
        let g = GraphBuilder::with_nodes(5).build().unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.out_degree(n(4)), 0);
    }

    #[test]
    fn deduplicates_edges() {
        let mut b = GraphBuilder::new();
        b.add_edge(n(0), n(1));
        b.add_edge(n(0), n(1));
        b.add_edge(n(0), n(1));
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn distinct_labels_are_distinct_edges() {
        let mut b = GraphBuilder::new();
        b.add_labeled_edge(n(0), n(1), EdgeLabelId::new(1));
        b.add_labeled_edge(n(0), n(1), EdgeLabelId::new(2));
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn in_and_out_lists_agree() {
        let mut b = GraphBuilder::new();
        b.add_edge(n(0), n(1));
        b.add_edge(n(2), n(1));
        b.add_edge(n(1), n(0));
        let g = b.build().unwrap();
        assert_eq!(g.out_neighbors(n(0)).collect::<Vec<_>>(), vec![n(1)]);
        assert_eq!(g.in_neighbors(n(1)).collect::<Vec<_>>(), vec![n(0), n(2)]);
        assert_eq!(g.in_neighbors(n(0)).collect::<Vec<_>>(), vec![n(1)]);
    }

    #[test]
    fn node_labels_stored() {
        let mut b = GraphBuilder::new();
        b.add_edge(n(0), n(1));
        b.set_node_label(n(1), NodeLabelId::new(7));
        let g = b.build().unwrap();
        assert_eq!(g.node_label(n(1)), Some(NodeLabelId::new(7)));
        assert_eq!(g.node_label(n(0)), Some(NodeLabelId::new(0)));
    }

    #[test]
    fn unlabeled_graph_has_no_label_storage() {
        let mut b = GraphBuilder::new();
        b.add_edge(n(0), n(1));
        let g = b.build().unwrap();
        assert_eq!(g.node_label(n(0)), None);
    }
}
