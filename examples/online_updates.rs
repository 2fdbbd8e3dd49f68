//! Online graph updates with incremental preprocessing maintenance (§3.4).
//!
//! Streams edge additions and removals into the dynamic graph (new nodes
//! arrive with their first edge, and one node is removed as its incident
//! edges), keeps the storage tier and both smart-routing preprocessing
//! structures fresh with the paper's incremental rule, and shows queries
//! staying correct throughout — plus the staleness tracker deciding when a
//! full offline re-preprocess is due.
//!
//! ```bash
//! cargo run --release -p grouting-examples --bin online_updates
//! ```

use grouting_core::embed::updates::{
    landmark_distances_from, refresh_embedding, refresh_landmark_table, StalenessTracker,
};
use grouting_core::embed::{EmbeddingConfig, ProcessorDistanceTable};
use grouting_core::graph::dynamic::{DynamicGraph, GraphUpdate};
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
    let mut tracker = StalenessTracker::new(25);
    let landmark_ids = cluster.assets.landmarks.nodes.clone();
    let embed_cfg = EmbeddingConfig {
        node_iters: 40,
        ..EmbeddingConfig::default()
    };

    // Stream updates: attach a chain of new nodes to existing ones, with a
    // few deletions mixed in. Each update is applied to the dynamic graph,
    // then to the storage tier, then to both routing structures (§3.4.1:
    // endpoints + 1-hop neighbours).
    let (mut added, mut removed) = (0usize, 0usize);
    let mut apply = |dynamic: &mut DynamicGraph, update: GraphUpdate| {
        match update {
            GraphUpdate::AddEdge(s, d) => {
                dynamic.add_edge(s, d);
                added += 1;
            }
            GraphUpdate::RemoveEdge(s, d) => {
                dynamic.remove_edge(s, d).expect("endpoints exist");
                removed += 1;
            }
        }
        cluster
            .assets
            .tier
            .apply_update(dynamic, update)
            .expect("records fit");
        refresh_landmark_table(&mut table, dynamic, &landmark_ids, update);
        refresh_embedding(&mut embedding, dynamic, update, &embed_cfg);
        if tracker.record() {
            println!(
                "after {} updates: staleness threshold hit — a full offline \
                 re-preprocess would be scheduled here",
                tracker.pending()
            );
            tracker.reset();
        }
    };
    let attach_of = |i: u32| NodeId::new((i * 37) % n0 as u32);
    for i in 0..30u32 {
        let fresh = NodeId::new((n0 as u32) + i);
        let attach = attach_of(i);
        apply(&mut dynamic, GraphUpdate::AddEdge(fresh, attach));
        // Every tenth attachment point loses one of its original edges.
        if i % 10 == 9 {
            if let Some(w) = cluster.graph().out_neighbors(attach).next() {
                apply(&mut dynamic, GraphUpdate::RemoveEdge(attach, w));
            }
        }
    }
    // One node removal, done as the removal of its incident edges: the
    // node stays, isolated, and answers every query as an absent node.
    let gone = cluster
        .graph()
        .nodes()
        .find(|&v| {
            (2..=4).contains(&cluster.graph().degree(v)) && (0..30).all(|i| attach_of(i) != v)
        })
        .expect("a node to remove");
    let incident: Vec<GraphUpdate> = dynamic
        .out_neighbors(gone)
        .map(|w| GraphUpdate::RemoveEdge(gone, w))
        .chain(
            dynamic
                .in_neighbors(gone)
                .filter(|&u| u != gone)
                .map(|u| GraphUpdate::RemoveEdge(u, gone)),
        )
        .collect();
    for update in incident {
        apply(&mut dynamic, update);
    }
    println!(
        "applied {added} edge additions and {removed} edge removals (node {gone} \
         removed as its incident edges); graph now {} nodes, {} edges",
        dynamic.node_count(),
        dynamic.edge_count()
    );
    println!(
        "table now covers {} nodes, embedding {}",
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

    // Run queries against the updated storage on the in-proc wire cluster:
    // the freshly added nodes, then the removed one.
    let queries: Vec<Query> = (0..10)
        .map(|i| NodeId::new((n0 as u32) + i))
        .chain([gone])
        .map(|node| Query::NeighborAggregation {
            node,
            hops: 2,
            label: None,
        })
        .collect();
    let report = cluster
        .run_cluster(&queries, TransportKind::InProc)
        .expect("in-proc cluster run");
    println!("--- queries on freshly added nodes, then the removed one ---");
    for (q, r) in queries.iter().zip(&report.results) {
        println!("  |N_2({})| = {:?}", q.anchor(), r.count().unwrap_or(0));
    }
    assert_eq!(
        report.results.last().and_then(|r| r.count()),
        Some(0),
        "the removed node is isolated"
    );
    println!(
        "all {} answered from the updated storage tier",
        queries.len()
    );
}
