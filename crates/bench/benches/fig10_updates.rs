//! Figure 10: robustness with graph updates.
//!
//! Preprocessing runs on an induced subgraph covering 20 %–100 % of the
//! nodes; queries run on the *complete* graph. Nodes outside the
//! preprocessed subgraph get their landmark rows / coordinates computed
//! incrementally from the full graph (the paper's update rule), while the
//! originally preprocessed nodes keep their now-stale information.
//!
//! Paper shape: smart routing degrades gracefully — at 80 % coverage the
//! response time is within a few percent of full preprocessing, and only at
//! 20 % does it approach the hash baseline.

use std::sync::Arc;

use grouting_bench::{bench_graph, paper_workload, PAPER_PROCESSORS, PAPER_STORAGE};
use grouting_core::embed::embedding::{Embedding, EmbeddingConfig};
use grouting_core::embed::landmarks::{LandmarkConfig, Landmarks};
use grouting_core::gen::ProfileName;
use grouting_core::graph::subgraph::{fraction_mask, induced_subgraph};
use grouting_core::metrics::TableReport;
use grouting_core::prelude::*;
use grouting_core::sim::{simulate, SimAssets, SimConfig};
use grouting_core::storage::HashPartitioner;
use grouting_core::storage::StorageTier;

fn main() {
    let graph = bench_graph(ProfileName::WebGraph);
    let n = graph.node_count();
    let landmark_cfg = LandmarkConfig {
        count: 96.min(((n as f64).sqrt() as usize).max(4)),
        min_separation: 3,
    };
    let embed_cfg = EmbeddingConfig::default();

    // The storage tier always holds the full graph.
    let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(
        PAPER_STORAGE,
    ))));
    tier.load_graph(&graph).expect("graph fits");

    let mut t = TableReport::new(
        "Figure 10: response time vs preprocessed fraction of the graph (WebGraph)",
        &["preprocessed_%", "routing", "response_ms", "hit_rate_%"],
    );

    for pct in [20u32, 40, 60, 80, 100] {
        // Preprocess on the induced subgraph...
        let mask = fraction_mask(&graph, pct as f64 / 100.0, 0xF16);
        let sub = induced_subgraph(&graph, |v| mask[v.index()]);
        let stale = Landmarks::build(&sub, &landmark_cfg);
        // ...then incrementally fill rows for nodes outside it from the
        // full graph, leaving preprocessed rows untouched (stale).
        let fresh = Landmarks::for_nodes(&graph, stale.nodes.clone(), landmark_cfg.min_separation);
        let mut merged = stale.clone();
        for (row_stale, row_fresh) in merged.dist.iter_mut().zip(&fresh.dist) {
            for v in 0..n {
                if !mask[v] {
                    row_stale[v] = row_fresh[v];
                }
            }
        }
        let embedding = Embedding::build(&merged, &embed_cfg);

        let assets = SimAssets {
            graph: Arc::clone(&graph),
            tier: Arc::clone(&tier),
            landmarks: Arc::new(merged),
            embedding: Arc::new(embedding),
            timings: Default::default(),
        };
        let queries = paper_workload(&assets, 2, 2);
        for routing in [RoutingKind::Hash, RoutingKind::Landmark, RoutingKind::Embed] {
            let mut cfg = SimConfig::paper_default(PAPER_PROCESSORS, routing);
            cfg.engine.cache_capacity = grouting_bench::default_cache_bytes(&assets);
            let r = simulate(&assets, &queries, &cfg);
            t.row(vec![
                (pct as usize).into(),
                routing.to_string().into(),
                r.mean_response_ms().into(),
                (r.hit_rate() * 100.0).into(),
            ]);
        }
    }
    t.print();
}
