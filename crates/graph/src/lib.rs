//! Graph data model for gRouting.
//!
//! The paper (§2.1) models a heterogeneous network as a labelled directed
//! graph `G = (V, E, L)` stored as an adjacency list in which **both**
//! incoming and outgoing edges are kept per node — incoming edges make
//! backward BFS (and hence bidirectional reachability search) possible.
//!
//! This crate provides:
//!
//! * [`NodeId`], [`NodeLabelId`], [`EdgeLabelId`] — compact identifier
//!   newtypes;
//! * [`hash`] — the integer hasher (and `NodeMap` / `NodeSet` aliases)
//!   every id-keyed lookup table on the record path uses;
//! * [`GraphBuilder`] — an edge-list accumulator that deduplicates and sorts;
//! * [`CsrGraph`] — the immutable compressed-sparse-row graph with both edge
//!   directions, the workhorse for preprocessing and query execution;
//! * [`traversal`] — BFS distance maps, k-hop neighbourhoods and hop
//!   distances over the in-memory graph;
//! * [`dynamic`] — a mutable adjacency-map graph for the paper's update
//!   model (§3.4.1): edge additions and removals, a node removed as the
//!   removal of its incident edges;
//! * [`subgraph`] — induced subgraphs (the refresh scope of an update);
//! * [`stats`] — summary statistics (Table 1);
//! * [`codec`] — the compact binary encoding of per-node adjacency values
//!   used as storage-tier values.

mod builder;
pub mod codec;
mod csr;
pub mod dynamic;
mod error;
pub mod hash;
mod ids;
pub mod stats;
pub mod subgraph;
pub mod traversal;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use error::GraphError;
pub use hash::{IdBuildHasher, NodeMap, NodeSet};
pub use ids::{EdgeLabelId, NodeId, NodeLabelId};

/// Result alias for graph operations.
pub type Result<T> = std::result::Result<T, GraphError>;
