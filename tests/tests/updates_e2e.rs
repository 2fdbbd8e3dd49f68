//! End-to-end graph updates: storage, landmark tables, and embeddings all
//! stay consistent while the topology mutates (§3.4's update model).

use grouting_core::embed::updates::{
    landmark_distances_from, refresh_embedding, refresh_landmark_table,
};
use grouting_core::embed::{EmbeddingConfig, ProcessorDistanceTable, UNREACHED_U16};
use grouting_core::graph::dynamic::{DynamicGraph, GraphUpdate};
use grouting_core::prelude::*;

fn cluster() -> GRouting {
    GRouting::builder()
        .graph(DatasetProfile::tiny(ProfileName::Memetracker).generate())
        .storage_servers(2)
        .processors(3)
        .routing(RoutingKind::Embed)
        .cache_capacity(8 << 20)
        .build()
}

#[test]
fn added_nodes_become_queryable_and_routable() {
    let c = cluster();
    let n0 = c.graph().node_count() as u32;
    let mut dynamic = DynamicGraph::from_csr(c.graph());
    let mut table = ProcessorDistanceTable::build(&c.assets.landmarks, 3);
    let mut embedding = (*c.assets.embedding).clone();
    let cfg = EmbeddingConfig {
        node_iters: 30,
        ..EmbeddingConfig::default()
    };

    // Attach 10 fresh nodes to well-connected existing ones.
    let hubs = c.graph().nodes_by_degree_desc();
    for i in 0..10u32 {
        let fresh = NodeId::new(n0 + i);
        let attach = hubs[i as usize];
        dynamic.add_edge(fresh, attach);
        let update = GraphUpdate::AddEdge(fresh, attach);
        c.assets.tier.apply_update(&dynamic, update).unwrap();
        refresh_landmark_table(&mut table, &dynamic, &c.assets.landmarks.nodes, update, 1);
        refresh_embedding(&mut embedding, &dynamic, update, 1, &cfg);
    }
    assert_eq!(table.nodes(), (n0 + 10) as usize);
    assert_eq!(embedding.node_count(), (n0 + 10) as usize);

    for i in 0..10u32 {
        let fresh = NodeId::new(n0 + i);
        // Stored record exists and mentions the attachment.
        let (_, rec) = c.assets.tier.get_record(fresh).unwrap();
        assert_eq!(rec.degree(), 1);
        // Routing rows exist and are finite (reachable via the hub).
        let row = table.row(fresh);
        assert!(
            row.iter().any(|&d| d != UNREACHED_U16),
            "fresh node {fresh} unroutable: {row:?}"
        );
        assert!(table.best_processor(fresh) < 3);
    }
}

#[test]
fn edge_removal_updates_storage_and_distances() {
    let c = cluster();
    let mut dynamic = DynamicGraph::from_csr(c.graph());
    // Find an existing edge to remove.
    let v = c
        .graph()
        .nodes()
        .find(|&v| c.graph().out_degree(v) > 0)
        .unwrap();
    let w = c.graph().out_neighbors(v).next().unwrap();
    dynamic.remove_edge(v, w).unwrap();
    c.assets
        .tier
        .apply_update(&dynamic, GraphUpdate::RemoveEdge(v, w))
        .unwrap();
    let (_, rec) = c.assets.tier.get_record(v).unwrap();
    assert!(!rec.out().contains(&w));
    let (_, rec_w) = c.assets.tier.get_record(w).unwrap();
    assert!(!rec_w.inc().contains(&v));

    // Distances recomputed from the dynamic graph reflect the removal.
    let d = landmark_distances_from(&dynamic, v, &c.assets.landmarks.nodes);
    assert_eq!(d.len(), c.assets.landmarks.len());
}

#[test]
fn queries_stay_correct_after_updates() {
    let c = cluster();
    let n0 = c.graph().node_count() as u32;
    let mut dynamic = DynamicGraph::from_csr(c.graph());
    let hub = c.graph().nodes_by_degree_desc()[0];
    dynamic.add_edge(NodeId::new(n0), hub);
    c.assets
        .tier
        .apply_update(&dynamic, GraphUpdate::AddEdge(NodeId::new(n0), hub))
        .unwrap();

    // A 1-hop aggregation from the new node must see exactly the hub, and a
    // 2-hop one the hub's bi-directed neighbourhood.
    let queries = vec![
        Query::NeighborAggregation {
            node: NodeId::new(n0),
            hops: 1,
            label: None,
        },
        Query::Reachability {
            source: NodeId::new(n0),
            target: hub,
            hops: 1,
        },
    ];
    let run = c
        .run_cluster(&queries, TransportKind::InProc)
        .expect("in-proc cluster completes");
    assert_eq!(run.results[0].count(), Some(1));
    assert_eq!(run.results[1].reachable(), Some(true));
}
