//! # gRouting — smart query routing for decoupled distributed graph querying
//!
//! A from-scratch Rust reproduction of *"On Smart Query Routing: For
//! Distributed Graph Querying with Decoupled Storage"* (Khan, Segovia,
//! Kossmann). The system answers online h-hop traversal queries over large
//! directed graphs on a cluster that **decouples** stateless query
//! processors (each with an LRU cache) from a sharded in-memory storage
//! tier, and routes queries so that *nearby* query nodes land on the *same*
//! processor — turning the processors' caches into an adaptive, workload-
//! driven replication layer that makes expensive graph partitioning
//! unnecessary.
//!
//! ## Quick start
//!
//! ```
//! use grouting_core::prelude::*;
//!
//! // A small scale-free graph, stored across 2 storage servers.
//! let graph = DatasetProfile::tiny(ProfileName::Freebase).generate();
//! let cluster = GRouting::builder()
//!     .graph(graph)
//!     .storage_servers(2)
//!     .processors(3)
//!     .routing(RoutingKind::Embed)
//!     .build();
//!
//! // The paper's hotspot workload, then a simulated run.
//! let queries = cluster.hotspot_workload(8, 4, 2, 2, 7);
//! let report = cluster.simulate(&queries);
//! assert_eq!(report.timeline.len(), queries.len());
//! assert!(report.hit_rate() > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`graph`] | `grouting-graph` | CSR graph, labels, traversal, updates |
//! | [`gen`] | `grouting-gen` | community and Erdős–Rényi generators, dataset profiles |
//! | [`storage`] | `grouting-storage` | log-structured KV tier, MurmurHash3 hash placement, network models |
//! | [`cache`] | `grouting-cache` | LRU/FIFO/LFU/null caches |
//! | [`embed`] | `grouting-embed` | landmarks, pivots, simplex embedding |
//! | [`route`] | `grouting-route` | the router and all routing strategies |
//! | [`query`] | `grouting-query` | queries + executors + fetch layer |
//! | [`workload`] | `grouting-workload` | hotspot workload generation |
//! | [`engine`] | `grouting-engine` | the shared engine builder both runtimes drive |
//! | [`sim`] | `grouting-sim` | deterministic discrete-event cluster |
//! | [`wire`] | `grouting-wire` | framed RPC: transports, services, the real-time cluster (TCP or in-proc) |
//! | [`baseline`] | `grouting-baseline` | SEDGE/Giraph-style BSP on multilevel edge-cuts, PowerGraph-style GAS on vertex-cuts |
//! | [`metrics`] | `grouting-metrics` | histograms, timelines, heatmaps, table reporter |
//! | [`obs`] | `grouting-obs` | metrics registry, scrape endpoint, flight recorder |

pub use grouting_baseline as baseline;
pub use grouting_cache as cache;
pub use grouting_embed as embed;
pub use grouting_engine as engine;
pub use grouting_gen as gen;
pub use grouting_graph as graph;
pub use grouting_metrics as metrics;
pub use grouting_obs as obs;
pub use grouting_query as query;
pub use grouting_route as route;
pub use grouting_sim as sim;
pub use grouting_storage as storage;
pub use grouting_trace as trace;
pub use grouting_wire as wire;
pub use grouting_workload as workload;

mod cluster;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::cluster::{GRouting, GRoutingBuilder};
    pub use grouting_cache::Policy;
    pub use grouting_engine::EngineConfig;
    pub use grouting_gen::{DatasetProfile, ProfileName};
    pub use grouting_graph::{CsrGraph, GraphBuilder, NodeId, NodeLabelId};
    pub use grouting_query::{Query, QueryResult};
    pub use grouting_route::RoutingKind;
    pub use grouting_sim::{SimConfig, SimReport};
    pub use grouting_wire::TransportKind;
    pub use grouting_workload::{hotspot_workload, QueryMix, WorkloadConfig};
}
