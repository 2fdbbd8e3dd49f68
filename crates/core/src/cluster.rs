//! The `GRouting` facade: build a cluster once, run workloads against it.

use std::sync::Arc;

use grouting_cache::Policy;
use grouting_embed::embedding::EmbeddingConfig;
use grouting_embed::landmarks::LandmarkConfig;
use grouting_gen::profiles::env_scale;
use grouting_graph::CsrGraph;
use grouting_live::{run_live, LiveConfig, LiveReport};
use grouting_query::Query;
use grouting_route::RoutingKind;
use grouting_sim::{simulate, SimAssets, SimConfig, SimReport};
use grouting_wire::TransportKind;
use grouting_workload::{hotspot_workload, QueryMix, WorkloadConfig};

/// Builder for a [`GRouting`] cluster.
///
/// Performs the full preprocessing pipeline on
/// [`build`](GRoutingBuilder::build): loads the storage tier (hash
/// partitioning), selects landmarks, runs the BFS distance maps, and embeds
/// the graph.
#[derive(Debug)]
pub struct GRoutingBuilder {
    graph: Option<CsrGraph>,
    storage_servers: usize,
    processors: usize,
    routing: RoutingKind,
    cache_capacity: usize,
    cache_policy: Policy,
    alpha: f64,
    load_factor: f64,
    landmarks: Option<LandmarkConfig>,
    embedding: Option<EmbeddingConfig>,
}

impl Default for GRoutingBuilder {
    fn default() -> Self {
        Self {
            graph: None,
            storage_servers: 4,
            processors: 7,
            routing: RoutingKind::Embed,
            cache_capacity: 4 << 30,
            cache_policy: Policy::Lru,
            alpha: 0.9,
            load_factor: 20.0,
            landmarks: None,
            embedding: None,
        }
    }
}

impl GRoutingBuilder {
    /// Sets the graph to serve (required).
    pub fn graph(mut self, graph: CsrGraph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// Number of storage servers (default 4, as in the paper).
    pub fn storage_servers(mut self, n: usize) -> Self {
        self.storage_servers = n;
        self
    }

    /// Number of query processors (default 7, as in the paper).
    pub fn processors(mut self, n: usize) -> Self {
        self.processors = n;
        self
    }

    /// Routing scheme (default embed, the paper's best).
    pub fn routing(mut self, routing: RoutingKind) -> Self {
        self.routing = routing;
        self
    }

    /// Per-processor cache capacity in bytes (default 4 GB).
    pub fn cache_capacity(mut self, bytes: usize) -> Self {
        self.cache_capacity = bytes;
        self
    }

    /// Cache eviction policy (default LRU).
    pub fn cache_policy(mut self, policy: Policy) -> Self {
        self.cache_policy = policy;
        self
    }

    /// EMA smoothing α for embed routing (default 0.5).
    pub fn alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Load factor for the load-balanced distance (default 20).
    pub fn load_factor(mut self, lf: f64) -> Self {
        self.load_factor = lf;
        self
    }

    /// Overrides landmark selection parameters.
    pub fn landmark_config(mut self, cfg: LandmarkConfig) -> Self {
        self.landmarks = Some(cfg);
        self
    }

    /// Overrides embedding parameters.
    pub fn embedding_config(mut self, cfg: EmbeddingConfig) -> Self {
        self.embedding = Some(cfg);
        self
    }

    /// Runs preprocessing and assembles the cluster handle.
    ///
    /// # Panics
    ///
    /// Panics if no graph was supplied or it has no edges.
    pub fn build(self) -> GRouting {
        let graph = Arc::new(self.graph.expect("GRoutingBuilder requires a graph"));
        assert!(graph.edge_count() > 0, "cannot serve an empty graph");
        let n = graph.node_count();
        let landmark_config = self.landmarks.unwrap_or(LandmarkConfig {
            count: 96.min(((n as f64).sqrt() as usize).max(4)),
            min_separation: 3,
        });
        let embedding_config = self.embedding.unwrap_or_default();
        let assets = SimAssets::build(
            graph,
            self.storage_servers.max(1),
            &landmark_config,
            &embedding_config,
        );
        GRouting {
            assets,
            processors: self.processors.max(1),
            routing: self.routing,
            cache_capacity: self.cache_capacity,
            cache_policy: self.cache_policy,
            alpha: self.alpha,
            load_factor: self.load_factor,
        }
    }
}

/// A preprocessed gRouting cluster, ready to serve workloads in either the
/// deterministic simulator or the live threaded runtime.
pub struct GRouting {
    /// Preprocessing assets (graph, storage tier, landmarks, embedding).
    pub assets: SimAssets,
    processors: usize,
    routing: RoutingKind,
    cache_capacity: usize,
    cache_policy: Policy,
    alpha: f64,
    load_factor: f64,
}

impl GRouting {
    /// Starts a builder.
    pub fn builder() -> GRoutingBuilder {
        GRoutingBuilder::default()
    }

    /// The graph being served.
    pub fn graph(&self) -> &CsrGraph {
        &self.assets.graph
    }

    /// Configured processor count.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Configured routing scheme.
    pub fn routing(&self) -> RoutingKind {
        self.routing
    }

    /// A handle over the same preprocessed assets with a different routing
    /// scheme — preprocessing is routing-agnostic, so scheme sweeps build
    /// once and reconfigure cheaply (the assets are shared `Arc`s).
    #[must_use]
    pub fn with_routing(&self, routing: RoutingKind) -> GRouting {
        GRouting {
            assets: self.assets.clone(),
            processors: self.processors,
            routing,
            cache_capacity: self.cache_capacity,
            cache_policy: self.cache_policy,
            alpha: self.alpha,
            load_factor: self.load_factor,
        }
    }

    /// Generates a paper-style hotspot workload over this cluster's graph.
    pub fn hotspot_workload(
        &self,
        hotspots: usize,
        per_hotspot: usize,
        radius: u32,
        hops: u32,
        seed: u64,
    ) -> Vec<Query> {
        hotspot_workload(
            &self.assets.graph,
            &WorkloadConfig {
                hotspots,
                per_hotspot,
                radius,
                hops,
                mix: QueryMix::uniform(),
                restart_prob: 0.15,
                seed,
            },
        )
        .queries
    }

    /// The simulation config equivalent to this cluster's settings.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            cache_capacity: self.cache_capacity,
            cache_policy: self.cache_policy,
            alpha: self.alpha,
            load_factor: self.load_factor,
            ..SimConfig::paper_default(self.processors, self.routing)
        }
    }

    /// Runs the queries in the deterministic discrete-event simulator.
    pub fn simulate(&self, queries: &[Query]) -> SimReport {
        simulate(&self.assets, queries, &self.sim_config())
    }

    /// Runs the queries in a simulator configured by the caller (sweeps).
    pub fn simulate_with(&self, queries: &[Query], config: &SimConfig) -> SimReport {
        simulate(&self.assets, queries, config)
    }

    /// The live-runtime config equivalent to this cluster's settings.
    /// Wire deployments honour `GROUTING_OVERLAP` for the per-processor
    /// in-flight window (default 2, cross-query fetch overlap on) and
    /// `GROUTING_PREFETCH` for speculative frontier prefetching (default
    /// off; `degree` or `hotspot`, optionally `policy:max_nodes`), and
    /// `GROUTING_TRACE` for the query-tracing level (default off;
    /// `stats` or `spans`).
    fn live_config(&self) -> LiveConfig {
        LiveConfig {
            processors: self.processors,
            routing: self.routing,
            cache_capacity: self.cache_capacity,
            cache_policy: self.cache_policy,
            alpha: self.alpha,
            load_factor: self.load_factor,
            stealing: true,
            admission_window: 0,
            overlap: grouting_wire::overlap_from_env(2),
            prefetch: grouting_query::PrefetchConfig::from_env(),
            trace: grouting_trace::TraceLevel::from_env(),
            seed: 0x11FE,
        }
    }

    /// Runs the queries on real threads (wall-clock measurements).
    pub fn run_live(&self, queries: &[Query]) -> LiveReport {
        run_live(
            Arc::clone(&self.assets.tier),
            Some(Arc::clone(&self.assets.landmarks)),
            Some(Arc::clone(&self.assets.embedding)),
            queries,
            &self.live_config(),
        )
    }

    /// Runs the queries on a wire cluster: the router, every processor,
    /// and every storage server deployed as framed-transport peers
    /// (real loopback sockets for [`TransportKind::Tcp`]), with all
    /// dispatches, acknowledgements, and adjacency fetches (pipelined
    /// frontier batches) crossing connections.
    ///
    /// # Errors
    ///
    /// Propagates wire-layer failures (bind/dial errors, peers dying
    /// mid-run).
    pub fn run_cluster(
        &self,
        queries: &[Query],
        transport: TransportKind,
    ) -> Result<LiveReport, grouting_wire::WireError> {
        grouting_live::run_cluster(
            Arc::clone(&self.assets.tier),
            Some(Arc::clone(&self.assets.landmarks)),
            Some(Arc::clone(&self.assets.embedding)),
            queries,
            &self.live_config(),
            transport,
            grouting_storage::Preset::Local,
        )
    }

    /// The `GROUTING_SCALE`-aware scale factor (re-exported convenience for
    /// examples and benches).
    pub fn env_scale() -> f64 {
        env_scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_gen::{DatasetProfile, ProfileName};

    fn tiny_cluster(routing: RoutingKind) -> GRouting {
        let graph = DatasetProfile::tiny(ProfileName::Freebase).generate();
        GRouting::builder()
            .graph(graph)
            .storage_servers(2)
            .processors(3)
            .routing(routing)
            .cache_capacity(16 << 20)
            .embedding_config(EmbeddingConfig {
                dimensions: 5,
                landmark_sweeps: 1,
                landmark_iters: 100,
                node_iters: 30,
                nearest_landmarks: 8,
                seed: 1,
            })
            .build()
    }

    #[test]
    fn build_and_simulate_every_routing() {
        for routing in grouting_route::RoutingKind::ALL {
            let cluster = tiny_cluster(routing);
            let queries = cluster.hotspot_workload(6, 4, 2, 2, 3);
            let report = cluster.simulate(&queries);
            assert_eq!(report.timeline.len(), queries.len(), "{routing}");
            if routing == RoutingKind::NoCache {
                assert_eq!(report.cache_hits, 0);
            }
        }
    }

    #[test]
    fn live_and_sim_agree_on_results() {
        let cluster = tiny_cluster(RoutingKind::Hash);
        let queries = cluster.hotspot_workload(4, 4, 2, 2, 9);
        let live = cluster.run_live(&queries);
        assert_eq!(live.results.len(), queries.len());
        // The simulator executes the same queries over the same data;
        // check a few counts against ground truth.
        for (q, r) in queries.iter().zip(&live.results) {
            if let grouting_query::Query::NeighborAggregation { node, hops, .. } = q {
                let truth = grouting_graph::traversal::h_hop_neighborhood(
                    cluster.graph(),
                    *node,
                    *hops,
                    grouting_graph::traversal::Direction::Both,
                )
                .len() as u64;
                assert_eq!(r.count(), Some(truth));
            }
        }
    }

    #[test]
    fn socket_cluster_matches_live_results() {
        let cluster = tiny_cluster(RoutingKind::Hash);
        let queries = cluster.hotspot_workload(4, 4, 2, 2, 11);
        let wire = cluster
            .run_cluster(&queries, TransportKind::InProc)
            .expect("cluster runs");
        let live = cluster.run_live(&queries);
        assert_eq!(wire.results, live.results);
        assert_eq!(wire.results.len(), queries.len());
    }

    #[test]
    #[should_panic(expected = "requires a graph")]
    fn builder_requires_graph() {
        let _ = GRouting::builder().build();
    }
}
