//! Error type for graph construction and access.

use crate::ids::NodeId;

/// Errors produced by graph construction, mutation, and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node id referenced a node outside the graph.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes in the graph.
        node_count: usize,
    },
    /// An edge referenced a node that does not exist (dynamic graphs).
    UnknownNode(NodeId),
    /// Adjacency value bytes failed to decode.
    Codec(String),
    /// The graph would exceed the 32-bit node-id space.
    TooManyNodes(usize),
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range (graph has {node_count} nodes)")
            }
            GraphError::UnknownNode(n) => write!(f, "unknown node {n}"),
            GraphError::Codec(msg) => write!(f, "adjacency codec error: {msg}"),
            GraphError::TooManyNodes(n) => {
                write!(f, "{n} nodes exceed the u32 node-id space")
            }
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::NodeOutOfRange {
            node: NodeId::new(9),
            node_count: 5,
        };
        assert!(e.to_string().contains("n9"));
        assert!(e.to_string().contains("5 nodes"));
        assert!(GraphError::UnknownNode(NodeId::new(1))
            .to_string()
            .contains("n1"));
        assert!(GraphError::Codec("bad".into()).to_string().contains("bad"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_error<E: std::error::Error>(_e: E) {}
        takes_error(GraphError::TooManyNodes(1));
    }
}
