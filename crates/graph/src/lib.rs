//! Graph data model for gRouting.
//!
//! The paper (§2.1) models a heterogeneous network as a labelled directed
//! graph `G = (V, E, L)` stored as an adjacency list in which **both**
//! incoming and outgoing edges are kept per node — incoming edges make
//! backward BFS (and hence bidirectional reachability search) possible.
//!
//! This crate provides:
//!
//! * [`ids`] — compact node/label identifier newtypes;
//! * [`hash`] — the integer hasher (and `NodeMap` / `NodeSet` aliases)
//!   every id-keyed lookup table on the record path uses;
//! * [`builder`] — an edge-list accumulator that deduplicates and sorts;
//! * [`csr`] — the immutable compressed-sparse-row graph with both edge
//!   directions, the workhorse for preprocessing and query execution;
//! * [`labels`] — interned label tables for nodes and edges;
//! * [`traversal`] — BFS distance maps, k-hop neighbourhoods, and a
//!   bidirectional reachability check over the in-memory graph;
//! * [`dynamic`] — a mutable adjacency-map graph supporting the paper's
//!   update model (§3.4, "dealing with graph updates");
//! * [`stats`] — degree distributions and summary statistics (Table 1);
//! * [`codec`] — the compact binary encoding of per-node adjacency values
//!   used as storage-tier values.

pub mod builder;
pub mod codec;
pub mod csr;
pub mod dynamic;
pub mod error;
pub mod hash;
pub mod ids;
pub mod labels;
pub mod serialize;
pub mod stats;
pub mod subgraph;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use dynamic::DynamicGraph;
pub use error::GraphError;
pub use hash::{IdBuildHasher, NodeMap, NodeSet};
pub use ids::{EdgeLabelId, NodeId, NodeLabelId};
pub use labels::LabelTable;

/// Result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
