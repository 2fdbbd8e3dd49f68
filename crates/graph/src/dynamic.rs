//! Mutable adjacency-map graph for the paper's update model.
//!
//! §3.4 describes how the routing preprocessors cope with *graph updates*:
//! node additions, edge additions/deletions, node deletions (treated as
//! deleting all incident edges). This graph supports those operations and
//! records them in an update log so preprocessing layers can incrementally
//! refresh the affected neighbourhoods.

use std::collections::BTreeSet;
use std::collections::HashMap;

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::NodeId;
use crate::Result;

/// A single topology mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphUpdate {
    /// A node was added.
    AddNode(NodeId),
    /// A directed edge was added.
    AddEdge(NodeId, NodeId),
    /// A directed edge was removed.
    RemoveEdge(NodeId, NodeId),
    /// A node and all incident edges were removed.
    RemoveNode(NodeId),
}

/// A mutable directed graph over sparse node ids.
#[derive(Debug, Default, Clone)]
pub struct DynamicGraph {
    out: HashMap<NodeId, BTreeSet<NodeId>>,
    inc: HashMap<NodeId, BTreeSet<NodeId>>,
    edge_count: usize,
    log: Vec<GraphUpdate>,
}

impl DynamicGraph {
    /// Creates an empty dynamic graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a dynamic graph initialised from an immutable CSR graph.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let mut d = Self::new();
        for v in g.nodes() {
            d.out.entry(v).or_default();
            d.inc.entry(v).or_default();
        }
        for v in g.nodes() {
            for w in g.out_neighbors(v) {
                d.insert_edge_silent(v, w);
            }
        }
        d.log.clear();
        d
    }

    fn insert_edge_silent(&mut self, src: NodeId, dst: NodeId) -> bool {
        let fresh = self.out.entry(src).or_default().insert(dst);
        self.inc.entry(dst).or_default().insert(src);
        if fresh {
            self.edge_count += 1;
        }
        fresh
    }

    /// Adds a node with no edges.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateNode`] if the node already exists.
    pub fn add_node(&mut self, node: NodeId) -> Result<()> {
        if self.out.contains_key(&node) {
            return Err(GraphError::DuplicateNode(node));
        }
        self.out.insert(node, BTreeSet::new());
        self.inc.insert(node, BTreeSet::new());
        self.log.push(GraphUpdate::AddNode(node));
        Ok(())
    }

    /// Adds a directed edge, implicitly creating missing endpoints.
    ///
    /// Returns `true` if the edge was new.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        self.out.entry(src).or_default();
        self.inc.entry(src).or_default();
        self.out.entry(dst).or_default();
        self.inc.entry(dst).or_default();
        let fresh = self.insert_edge_silent(src, dst);
        if fresh {
            self.log.push(GraphUpdate::AddEdge(src, dst));
        }
        fresh
    }

    /// Removes a directed edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if either endpoint is absent.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId) -> Result<bool> {
        if !self.out.contains_key(&src) {
            return Err(GraphError::UnknownNode(src));
        }
        if !self.out.contains_key(&dst) {
            return Err(GraphError::UnknownNode(dst));
        }
        let removed = self.out.get_mut(&src).is_some_and(|s| s.remove(&dst));
        if removed {
            self.inc.get_mut(&dst).map(|s| s.remove(&src));
            self.edge_count -= 1;
            self.log.push(GraphUpdate::RemoveEdge(src, dst));
        }
        Ok(removed)
    }

    /// Removes a node and all incident edges (the paper handles node
    /// deletion as multiple edge deletions).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::UnknownNode`] if the node is absent.
    pub fn remove_node(&mut self, node: NodeId) -> Result<()> {
        let out = self
            .out
            .remove(&node)
            .ok_or(GraphError::UnknownNode(node))?;
        let inc = self.inc.remove(&node).unwrap_or_default();
        for w in &out {
            self.inc.get_mut(w).map(|s| s.remove(&node));
        }
        for w in &inc {
            self.out.get_mut(w).map(|s| s.remove(&node));
        }
        // Out-edges (including a self-loop, which lives in both sets but is
        // one directed edge) plus in-edges from *other* nodes.
        self.edge_count -= out.len();
        self.edge_count -= inc.iter().filter(|w| **w != node).count();
        self.log.push(GraphUpdate::RemoveNode(node));
        Ok(())
    }

    /// Whether the node exists.
    pub fn contains(&self, node: NodeId) -> bool {
        self.out.contains_key(&node)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Out-neighbours of `node` (sorted), empty if absent.
    pub fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out
            .get(&node)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// In-neighbours of `node` (sorted), empty if absent.
    pub fn in_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.inc
            .get(&node)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// The update log since construction (or last [`Self::take_log`]).
    pub fn log(&self) -> &[GraphUpdate] {
        &self.log
    }

    /// Drains and returns the update log.
    pub fn take_log(&mut self) -> Vec<GraphUpdate> {
        std::mem::take(&mut self.log)
    }

    /// Nodes whose preprocessing is stale after `update`: the endpoints and
    /// their neighbours up to `hops` hops, per the paper's incremental
    /// maintenance rule ("for these two end-nodes and their neighbors up to
    /// a certain number of hops, we recompute their distances").
    pub fn affected_nodes(&self, update: GraphUpdate, hops: u32) -> Vec<NodeId> {
        let seeds: Vec<NodeId> = match update {
            GraphUpdate::AddNode(n) | GraphUpdate::RemoveNode(n) => vec![n],
            GraphUpdate::AddEdge(s, d) | GraphUpdate::RemoveEdge(s, d) => vec![s, d],
        };
        let mut seen: BTreeSet<NodeId> = seeds.iter().copied().collect();
        let mut frontier = seeds;
        for _ in 0..hops {
            let mut next = Vec::new();
            for v in frontier {
                for w in self.out_neighbors(v).chain(self.in_neighbors(v)) {
                    if seen.insert(w) {
                        next.push(w);
                    }
                }
            }
            frontier = next;
        }
        seen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn add_and_remove_edges() {
        let mut g = DynamicGraph::new();
        assert!(g.add_edge(n(0), n(1)));
        assert!(!g.add_edge(n(0), n(1)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_count(), 2);
        assert!(g.remove_edge(n(0), n(1)).unwrap());
        assert!(!g.remove_edge(n(0), n(1)).unwrap());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn duplicate_node_rejected() {
        let mut g = DynamicGraph::new();
        g.add_node(n(3)).unwrap();
        assert_eq!(g.add_node(n(3)), Err(GraphError::DuplicateNode(n(3))));
    }

    #[test]
    fn remove_node_drops_incident_edges() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        g.add_edge(n(2), n(1));
        assert_eq!(g.edge_count(), 3);
        g.remove_node(n(1)).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 2);
        assert!(g.out_neighbors(n(0)).next().is_none());
        assert!(g.in_neighbors(n(2)).next().is_none());
    }

    #[test]
    fn remove_node_with_self_loop() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(0), n(0));
        g.add_edge(n(0), n(1));
        assert_eq!(g.edge_count(), 2);
        g.remove_node(n(0)).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn update_log_records() {
        let mut g = DynamicGraph::new();
        g.add_node(n(5)).unwrap();
        g.add_edge(n(5), n(6));
        g.remove_edge(n(5), n(6)).unwrap();
        assert_eq!(
            g.log(),
            &[
                GraphUpdate::AddNode(n(5)),
                GraphUpdate::AddEdge(n(5), n(6)),
                GraphUpdate::RemoveEdge(n(5), n(6)),
            ]
        );
        let drained = g.take_log();
        assert_eq!(drained.len(), 3);
        assert!(g.log().is_empty());
    }

    #[test]
    fn affected_nodes_two_hops() {
        // Path 0 - 1 - 2 - 3 - 4 (directed forward).
        let mut g = DynamicGraph::new();
        for i in 0..4 {
            g.add_edge(n(i), n(i + 1));
        }
        let affected = g.affected_nodes(GraphUpdate::AddEdge(n(2), n(2)), 2);
        // Seeds {2}, 1 hop {1, 3}, 2 hops {0, 4}.
        assert_eq!(affected, vec![n(0), n(1), n(2), n(3), n(4)]);
        let affected1 = g.affected_nodes(GraphUpdate::AddEdge(n(0), n(1)), 1);
        assert_eq!(affected1, vec![n(0), n(1), n(2)]);
    }

    #[test]
    fn round_trip_through_csr() {
        let mut b = GraphBuilder::new();
        b.add_edge(n(0), n(1));
        b.add_edge(n(1), n(2));
        let csr = b.build().unwrap();
        let back = DynamicGraph::from_csr(&csr);
        assert_eq!(back.node_count(), 3);
        assert_eq!(back.edge_count(), 2);
        assert!(back.log().is_empty());
        assert_eq!(back.out_neighbors(n(1)).collect::<Vec<_>>(), vec![n(2)]);
    }

    #[test]
    fn unknown_node_errors() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(0), n(1));
        assert!(matches!(
            g.remove_edge(n(0), n(9)),
            Err(GraphError::UnknownNode(_))
        ));
        assert!(matches!(
            g.remove_node(n(9)),
            Err(GraphError::UnknownNode(_))
        ));
    }

    proptest::proptest! {
        /// edge_count stays consistent with the actual adjacency sets under
        /// arbitrary interleavings of add/remove operations.
        #[test]
        fn prop_edge_count_consistent(ops in proptest::collection::vec((0u8..3, 0u32..12, 0u32..12), 0..200)) {
            let mut g = DynamicGraph::new();
            for (op, a, b) in ops {
                match op {
                    0 => { g.add_edge(n(a), n(b)); }
                    1 => { let _ = g.remove_edge(n(a), n(b)); }
                    _ => { let _ = g.remove_node(n(a)); }
                }
            }
            let real: usize = g.out.values().map(|s| s.len()).sum();
            proptest::prop_assert_eq!(real, g.edge_count());
            // in/out views agree
            let real_in: usize = g.inc.values().map(|s| s.len()).sum();
            proptest::prop_assert_eq!(real_in, g.edge_count());
        }
    }
}
