//! Mutable adjacency-map graph for the paper's update model.
//!
//! §3.4.1 keeps the routing preprocessors current under two update kinds,
//! edge additions and edge deletions. A node is added by its first edge
//! and removed as the deletion of its incident edges, one
//! [`GraphUpdate::RemoveEdge`] each, which leaves it isolated: every query
//! kind answers an isolated node exactly as it answers an absent one.

use std::collections::BTreeSet;
use std::collections::HashMap;

use crate::csr::CsrGraph;
use crate::error::GraphError;
use crate::ids::NodeId;
use crate::Result;

/// A single topology mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphUpdate {
    /// A directed edge was added.
    AddEdge(NodeId, NodeId),
    /// A directed edge was removed.
    RemoveEdge(NodeId, NodeId),
}

/// A mutable directed graph over sparse node ids.
#[derive(Debug, Default, Clone)]
pub struct DynamicGraph {
    out: HashMap<NodeId, BTreeSet<NodeId>>,
    inc: HashMap<NodeId, BTreeSet<NodeId>>,
    edge_count: usize,
}

impl DynamicGraph {
    /// Builds a dynamic graph initialised from an immutable CSR graph.
    pub fn from_csr(g: &CsrGraph) -> Self {
        let mut d = Self::default();
        for v in g.nodes() {
            d.out.entry(v).or_default();
            d.inc.entry(v).or_default();
        }
        for v in g.nodes() {
            for w in g.out_neighbors(v) {
                d.add_edge(v, w);
            }
        }
        d
    }

    /// Adds a directed edge, implicitly creating missing endpoints.
    ///
    /// Returns `true` if the edge was new.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId) -> bool {
        self.inc.entry(src).or_default();
        self.out.entry(dst).or_default();
        let fresh = self.out.entry(src).or_default().insert(dst);
        self.inc.entry(dst).or_default().insert(src);
        if fresh {
            self.edge_count += 1;
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
        }
        Ok(removed)
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

    /// Nodes whose preprocessing is stale after `update`, per the paper's
    /// maintenance rule ("for these two end-nodes and their neighbors up to
    /// a certain number of hops, we recompute their distances"): the
    /// endpoints and their one-hop neighbours on the updated graph, in id
    /// order.
    pub fn affected_nodes(&self, update: GraphUpdate) -> Vec<NodeId> {
        let (GraphUpdate::AddEdge(s, d) | GraphUpdate::RemoveEdge(s, d)) = update;
        let mut seen = BTreeSet::from([s, d]);
        for v in [s, d] {
            seen.extend(self.out_neighbors(v).chain(self.in_neighbors(v)));
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
        let mut g = DynamicGraph::default();
        assert!(g.add_edge(n(0), n(1)));
        assert!(!g.add_edge(n(0), n(1)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_count(), 2);
        assert!(g.remove_edge(n(0), n(1)).unwrap());
        assert!(!g.remove_edge(n(0), n(1)).unwrap());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn affected_nodes_one_hop() {
        // Path 0 - 1 - 2 - 3 - 4 - 5 (directed forward).
        let mut g = DynamicGraph::default();
        for i in 0..5 {
            g.add_edge(n(i), n(i + 1));
        }
        // Endpoints {2}, one hop {1, 3} in both directions; 0 and 4 are two
        // hops away.
        let affected = g.affected_nodes(GraphUpdate::AddEdge(n(2), n(2)));
        assert_eq!(affected, vec![n(1), n(2), n(3)]);
        let affected = g.affected_nodes(GraphUpdate::RemoveEdge(n(0), n(4)));
        assert_eq!(affected, vec![n(0), n(1), n(3), n(4), n(5)]);
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
        assert_eq!(back.out_neighbors(n(1)).collect::<Vec<_>>(), vec![n(2)]);
    }

    #[test]
    fn unknown_node_errors() {
        let mut g = DynamicGraph::default();
        g.add_edge(n(0), n(1));
        assert!(matches!(
            g.remove_edge(n(0), n(9)),
            Err(GraphError::UnknownNode(_))
        ));
        assert!(matches!(
            g.remove_edge(n(9), n(0)),
            Err(GraphError::UnknownNode(_))
        ));
    }

    proptest::proptest! {
        /// edge_count stays consistent with the actual adjacency sets under
        /// arbitrary interleavings of edge additions, edge removals and node
        /// removals (as the removal of every incident edge, self-loops
        /// included).
        #[test]
        fn prop_edge_count_consistent(ops in proptest::collection::vec((0u8..3, 0u32..12, 0u32..12), 0..200)) {
            let mut g = DynamicGraph::default();
            for (op, a, b) in ops {
                match op {
                    0 => { g.add_edge(n(a), n(b)); }
                    1 => { let _ = g.remove_edge(n(a), n(b)); }
                    _ => {
                        let out: Vec<_> = g.out_neighbors(n(a)).collect();
                        let inc: Vec<_> = g.in_neighbors(n(a)).collect();
                        for w in out {
                            proptest::prop_assert_eq!(g.remove_edge(n(a), w), Ok(true));
                        }
                        for u in inc.into_iter().filter(|&u| u != n(a)) {
                            proptest::prop_assert_eq!(g.remove_edge(u, n(a)), Ok(true));
                        }
                        proptest::prop_assert_eq!(g.out_neighbors(n(a)).count(), 0);
                        proptest::prop_assert_eq!(g.in_neighbors(n(a)).count(), 0);
                    }
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
