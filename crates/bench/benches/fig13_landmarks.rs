//! Figure 13: impact of landmark count and separation.
//!
//! (a) response time vs number of landmarks (4–128) for both smart
//!     schemes — generally "the more, the better", with diminishing returns
//!     traded against preprocessing time;
//! (b) response time vs minimum landmark separation (1–5 hops) — a mild
//!     effect in the paper.

use std::sync::Arc;

use grouting_bench::{
    bench_graph, default_cache_bytes, paper_workload, PAPER_PROCESSORS, PAPER_STORAGE,
};
use grouting_core::embed::embedding::{Embedding, EmbeddingConfig};
use grouting_core::embed::landmarks::{LandmarkConfig, Landmarks};
use grouting_core::gen::ProfileName;
use grouting_core::metrics::TableReport;
use grouting_core::prelude::*;
use grouting_core::sim::{simulate, SimAssets, SimConfig};
use grouting_core::storage::HashPartitioner;
use grouting_core::storage::StorageTier;

fn run_with(
    graph: &Arc<grouting_core::graph::CsrGraph>,
    tier: &Arc<StorageTier>,
    landmark_cfg: &LandmarkConfig,
) -> Vec<(RoutingKind, f64)> {
    let landmarks = Arc::new(Landmarks::build(graph, landmark_cfg));
    let embedding = Arc::new(Embedding::build(&landmarks, &EmbeddingConfig::default()));
    let assets = SimAssets {
        graph: Arc::clone(graph),
        tier: Arc::clone(tier),
        landmarks,
        embedding,
        timings: Default::default(),
    };
    let queries = paper_workload(&assets, 2, 2);
    let cache = default_cache_bytes(&assets);
    [RoutingKind::Hash, RoutingKind::Landmark, RoutingKind::Embed]
        .into_iter()
        .map(|routing| {
            let mut cfg = SimConfig::paper_default(PAPER_PROCESSORS, routing);
            cfg.engine.cache_capacity = cache;
            let r = simulate(&assets, &queries, &cfg);
            (routing, r.mean_response_ms())
        })
        .collect()
}

fn main() {
    let graph = bench_graph(ProfileName::WebGraph);
    let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(
        PAPER_STORAGE,
    ))));
    tier.load_graph(&graph).expect("graph fits");

    let mut a = TableReport::new(
        "Figure 13(a): response time vs number of landmarks (WebGraph)",
        &["landmarks", "routing", "response_ms"],
    );
    for count in [4usize, 8, 16, 32, 64, 96, 128] {
        for (routing, ms) in run_with(
            &graph,
            &tier,
            &LandmarkConfig {
                count,
                min_separation: 3,
            },
        ) {
            a.row(vec![count.into(), routing.to_string().into(), ms.into()]);
        }
    }
    a.print();

    let mut b = TableReport::new(
        "Figure 13(b): response time vs minimum landmark separation (WebGraph)",
        &["separation_hops", "routing", "response_ms"],
    );
    for sep in 1u32..=5 {
        for (routing, ms) in run_with(
            &graph,
            &tier,
            &LandmarkConfig {
                count: 96,
                min_separation: sep,
            },
        ) {
            b.row(vec![
                (sep as usize).into(),
                routing.to_string().into(),
                ms.into(),
            ]);
        }
    }
    b.print();
}
