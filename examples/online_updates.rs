//! Online graph updates with incremental preprocessing maintenance (§3.4).
//!
//! Streams edge/node updates into the dynamic graph, keeps the storage
//! tier and both smart-routing preprocessing structures fresh with the
//! paper's incremental rules, and shows queries staying correct throughout —
//! plus the staleness tracker deciding when a full offline re-preprocess is
//! due.
//!
//! ```bash
//! cargo run --release -p grouting-examples --bin online_updates
//! ```

use grouting_core::embed::updates::{
    landmark_distances_from, refresh_embedding, refresh_landmark_table, StalenessTracker,
};
use grouting_core::embed::{EmbeddingConfig, ProcessorDistanceTable};
use grouting_core::graph::dynamic::DynamicGraph;
use grouting_core::prelude::*;

fn main() {
    let graph = DatasetProfile::tiny(ProfileName::Memetracker).generate();
    let n0 = graph.node_count();
    println!("initial graph: {} nodes, {} edges", n0, graph.edge_count());

    let cluster = GRouting::builder()
        .graph(graph)
        .storage_servers(2)
        .processors(4)
        .routing(RoutingKind::Embed)
        .cache_capacity(16 << 20)
        .build();

    // Mutable state next to the immutable preprocessing.
    let mut dynamic = DynamicGraph::from_csr(&cluster.assets.graph);
    let mut table = ProcessorDistanceTable::build(&cluster.assets.landmarks, 4);
    let mut embedding = (*cluster.assets.embedding).clone();
    let mut tracker = StalenessTracker::new(50);
    let landmark_ids = cluster.assets.landmarks.nodes.clone();
    let embed_cfg = EmbeddingConfig {
        node_iters: 40,
        ..EmbeddingConfig::default()
    };

    // Stream updates: attach a chain of new nodes to existing ones, with a
    // few deletions mixed in.
    let mut refreshed = 0usize;
    for i in 0..30u32 {
        let fresh = NodeId::new((n0 as u32) + i);
        let attach = NodeId::new((i * 37) % n0 as u32);
        dynamic.add_edge(fresh, attach);
        let update = grouting_core::graph::dynamic::GraphUpdate::AddEdge(fresh, attach);
        cluster
            .assets
            .tier
            .apply_update(&dynamic, update)
            .expect("records fit");
        // Incremental maintenance per §3.4: endpoints + 1-hop neighbours.
        refresh_landmark_table(&mut table, &dynamic, &landmark_ids, update, 1);
        refresh_embedding(&mut embedding, &dynamic, update, 1, &embed_cfg);
        refreshed += 1;
        if tracker.record() {
            println!(
                "after {} updates: staleness threshold hit — a full offline \
                 re-preprocess would be scheduled here",
                tracker.pending()
            );
            tracker.reset();
        }
    }
    println!(
        "applied {refreshed} updates; table now covers {} nodes, embedding {}",
        table.nodes(),
        embedding.node_count()
    );

    // New nodes are queryable immediately: their records are in storage and
    // their routing rows exist.
    let fresh = NodeId::new(n0 as u32);
    let dists = landmark_distances_from(&dynamic, fresh, &landmark_ids);
    let reachable_landmarks = dists
        .iter()
        .filter(|&&d| d != grouting_core::embed::UNREACHED_U16)
        .count();
    println!(
        "new node {fresh}: reaches {reachable_landmarks}/{} landmarks, \
         routed to processor {}",
        landmark_ids.len(),
        table.best_processor(fresh)
    );

    // Run queries against the updated storage on the in-proc wire cluster.
    let queries: Vec<Query> = (0..10)
        .map(|i| Query::NeighborAggregation {
            node: NodeId::new((n0 as u32) + i),
            hops: 2,
            label: None,
        })
        .collect();
    let report = cluster
        .run_cluster(&queries, TransportKind::InProc)
        .expect("in-proc cluster run");
    println!("--- queries on freshly added nodes ---");
    for (q, r) in queries.iter().zip(&report.results) {
        println!("  |N_2({})| = {:?}", q.anchor(), r.count().unwrap_or(0));
    }
    println!(
        "all {} answered from the updated storage tier",
        queries.len()
    );
}
