//! Shared preprocessing assets for a family of simulations.
//!
//! The expensive inputs — generating the graph, loading the storage tier,
//! landmark BFS, and the embedding — are independent of the cluster shape
//! being simulated, so experiment sweeps build a [`SimAssets`] once and run
//! many configurations against it (exactly how the paper runs one
//! preprocessing pass, then varies processors, cache sizes, α, …).

use std::sync::Arc;

use grouting_embed::embedding::{Embedding, EmbeddingConfig};
use grouting_embed::landmarks::{LandmarkConfig, Landmarks};
use grouting_graph::CsrGraph;
use grouting_storage::{HashPartitioner, StorageTier};

/// Everything a simulation needs that is independent of P, caches, and the
/// routing scheme under test.
#[derive(Clone)]
pub struct SimAssets {
    /// The graph (kept for ground-truth checks and workload generation).
    pub graph: Arc<CsrGraph>,
    /// The loaded storage tier (hash partitioning, per the paper).
    pub tier: Arc<StorageTier>,
    /// Landmark set + distance maps.
    pub landmarks: Arc<Landmarks>,
    /// The graph embedding.
    pub embedding: Arc<Embedding>,
    /// Wall-clock preprocessing times, for Table 2.
    pub timings: PreprocessTimings,
}

/// Wall-clock durations of each preprocessing stage (Table 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct PreprocessTimings {
    /// Landmark selection + BFS distance maps.
    pub landmark_ns: u64,
    /// Landmark embedding (Simplex Downhill over landmark pairs).
    pub embed_landmarks_ns: u64,
    /// Every other node's embedding: nearest-landmark lists built, each
    /// distinct list solved once, points copied out.
    pub embed_nodes_ns: u64,
}

impl SimAssets {
    /// Builds assets with explicit landmark/embedding configs and
    /// `storage_servers` hash-partitioned storage servers.
    ///
    /// # Panics
    ///
    /// Panics if the graph cannot be loaded (oversized records) — graphs
    /// produced by `grouting-gen` always fit.
    pub fn build(
        graph: Arc<CsrGraph>,
        storage_servers: usize,
        landmark_config: &LandmarkConfig,
        embedding_config: &EmbeddingConfig,
    ) -> Self {
        let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(
            storage_servers,
        ))));
        tier.load_graph(&graph).expect("generated graphs fit");

        let t0 = std::time::Instant::now();
        let landmarks = Arc::new(Landmarks::build(&graph, landmark_config));
        let landmark_ns = t0.elapsed().as_nanos() as u64;

        let embedding = Arc::new(Embedding::build(&landmarks, embedding_config));
        let (embed_landmarks, embed_nodes) = embedding.build_times();

        Self {
            graph,
            tier,
            landmarks,
            embedding,
            timings: PreprocessTimings {
                landmark_ns,
                embed_landmarks_ns: embed_landmarks.as_nanos() as u64,
                embed_nodes_ns: embed_nodes.as_nanos() as u64,
            },
        }
    }

    /// Builds assets with the paper's default parameters (96 landmarks at
    /// ≥3 hops separation, D = 10), scaled down for small graphs.
    pub fn paper_defaults(graph: Arc<CsrGraph>, storage_servers: usize) -> Self {
        let n = graph.node_count();
        // On sub-paper-scale graphs, cap landmarks at roughly √n so tiny
        // test graphs don't drown in landmarks.
        let count = 96.min(((n as f64).sqrt() as usize).max(4));
        Self::build(
            graph,
            storage_servers,
            &LandmarkConfig {
                count,
                min_separation: 3,
            },
            &EmbeddingConfig::default(),
        )
    }

    /// The shared-engine view of this bundle: the loaded tier plus both
    /// smart-routing assets.
    pub fn engine_assets(&self) -> grouting_engine::EngineAssets {
        grouting_engine::EngineAssets::new(Arc::clone(&self.tier))
            .with_landmarks(Some(Arc::clone(&self.landmarks)))
            .with_embedding(Some(Arc::clone(&self.embedding)))
    }

    /// Rebuilds only the storage tier with a different server count (the
    /// Figure 8(c) sweep), reusing all preprocessing.
    pub fn with_storage_servers(&self, storage_servers: usize) -> Self {
        let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(
            storage_servers,
        ))));
        tier.load_graph(&self.graph).expect("graph fit before");
        Self {
            tier,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_graph::{GraphBuilder, NodeId};

    fn ring(k: u32) -> Arc<CsrGraph> {
        let mut b = GraphBuilder::new();
        for i in 0..k {
            b.add_edge(NodeId::new(i), NodeId::new((i + 1) % k));
        }
        Arc::new(b.build().unwrap())
    }

    #[test]
    fn builds_all_assets() {
        let g = ring(64);
        let assets = SimAssets::build(
            Arc::clone(&g),
            3,
            &LandmarkConfig {
                count: 6,
                min_separation: 4,
            },
            &EmbeddingConfig {
                dimensions: 4,
                landmark_sweeps: 1,
                landmark_iters: 100,
                node_iters: 40,
                nearest_landmarks: 6,
                seed: 1,
            },
        );
        assert_eq!(assets.tier.server_count(), 3);
        assert_eq!(assets.landmarks.len(), 6);
        assert_eq!(assets.embedding.node_count(), 64);
        assert!(assets.timings.landmark_ns > 0);
        assert!(assets.timings.embed_nodes_ns > 0);
        // Storage holds one record per node.
        let total: usize = (0..3).map(|s| assets.tier.server(s).len()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn storage_resize_reuses_preprocessing() {
        let g = ring(32);
        let assets = SimAssets::paper_defaults(g, 2);
        let bigger = assets.with_storage_servers(5);
        assert_eq!(bigger.tier.server_count(), 5);
        assert!(Arc::ptr_eq(&assets.embedding, &bigger.embedding));
        assert!(Arc::ptr_eq(&assets.landmarks, &bigger.landmarks));
        let total: usize = (0..5).map(|s| bigger.tier.server(s).len()).sum();
        assert_eq!(total, 32);
    }
}
