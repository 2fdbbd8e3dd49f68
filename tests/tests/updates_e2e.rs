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
        refresh_landmark_table(&mut table, &dynamic, &c.assets.landmarks.nodes, update);
        refresh_embedding(&mut embedding, &dynamic, update, &cfg);
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

/// Applies `update` to `dynamic` and then to the cluster's storage tier.
fn apply(c: &GRouting, dynamic: &mut DynamicGraph, update: GraphUpdate) {
    match update {
        GraphUpdate::AddEdge(s, d) => assert!(dynamic.add_edge(s, d)),
        GraphUpdate::RemoveEdge(s, d) => assert_eq!(dynamic.remove_edge(s, d), Ok(true)),
    }
    c.assets.tier.apply_update(dynamic, update).unwrap();
}

/// Removes `node` as §3.4.1 does: one `RemoveEdge` per incident edge.
fn remove_node(c: &GRouting, dynamic: &mut DynamicGraph, node: NodeId) {
    let out: Vec<NodeId> = dynamic.out_neighbors(node).collect();
    let inc: Vec<NodeId> = dynamic.in_neighbors(node).collect();
    for w in out {
        apply(c, dynamic, GraphUpdate::RemoveEdge(node, w));
    }
    for u in inc.into_iter().filter(|&u| u != node) {
        apply(c, dynamic, GraphUpdate::RemoveEdge(u, node));
    }
}

#[test]
fn each_run_reads_the_records_an_update_rewrote() {
    // Every `simulate` / `run_cluster` call builds fresh processor caches,
    // so no cache outlives an update: the second run answers from the
    // rewritten records on both runtimes.
    let c = cluster();
    let mut dynamic = DynamicGraph::from_csr(c.graph());
    let v = c.graph().nodes_by_degree_desc()[0];
    let query = [Query::NeighborAggregation {
        node: v,
        hops: 1,
        label: None,
    }];
    let before = c.simulate(&query).results[0].count().unwrap();
    let wire = c.run_cluster(&query, TransportKind::InProc).unwrap();
    assert_eq!(wire.results[0].count(), Some(before));

    let fresh = NodeId::new(c.graph().node_count() as u32);
    apply(&c, &mut dynamic, GraphUpdate::AddEdge(v, fresh));
    assert_eq!(c.simulate(&query).results[0].count(), Some(before + 1));
    let wire = c.run_cluster(&query, TransportKind::InProc).unwrap();
    assert_eq!(wire.results[0].count(), Some(before + 1));
}

#[test]
fn a_removed_node_answers_every_query_kind_as_an_absent_node() {
    // Two identical clusters lose the same node's edges; the second also
    // loses the node's record, so there the node is absent.
    let (isolated, absent) = (cluster(), cluster());
    let g = isolated.graph();
    let removed = g
        .nodes()
        .find(|&v| g.out_degree(v) > 1 && g.in_degree(v) > 1)
        .unwrap();
    let neighbour = g.out_neighbors(removed).next().unwrap();
    let far = g.nodes_by_degree_desc()[0];
    for c in [&isolated, &absent] {
        remove_node(c, &mut DynamicGraph::from_csr(c.graph()), removed);
    }
    let tier = &absent.assets.tier;
    for s in tier.replica_chain(removed).collect::<Vec<_>>() {
        assert!(tier.server(s).delete(u64::from(removed.raw())));
    }
    assert!(tier.get(removed).is_none());
    let (_, rec) = isolated.assets.tier.get_record(removed).unwrap();
    assert_eq!(rec.degree(), 0, "the removed node stays, isolated");

    let label = NodeLabelId::new(0);
    let mut queries = Vec::new();
    for (a, b) in [
        (removed, neighbour),
        (neighbour, removed),
        (removed, removed),
        (removed, far),
    ] {
        queries.extend([
            Query::NeighborAggregation {
                node: a,
                hops: 2,
                label: None,
            },
            Query::NeighborAggregation {
                node: a,
                hops: 1,
                label: Some(label),
            },
            Query::RandomWalk {
                node: a,
                steps: 5,
                restart_prob: 0.2,
                seed: 7,
            },
            Query::Reachability {
                source: a,
                target: b,
                hops: 4,
            },
            Query::ConstrainedReachability {
                source: a,
                target: b,
                hops: 4,
                via_label: label,
            },
        ]);
    }
    let want = absent.simulate(&queries).results;
    assert_eq!(isolated.simulate(&queries).results, want);
    let wire = isolated
        .run_cluster(&queries, TransportKind::InProc)
        .unwrap();
    assert_eq!(wire.results, want);
}
