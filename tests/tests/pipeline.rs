//! End-to-end pipeline tests over the public facade.

use grouting_core::graph::traversal::{h_hop_neighborhood, hop_distance, Direction};
use grouting_core::prelude::*;

fn tiny_cluster(name: ProfileName, routing: RoutingKind) -> GRouting {
    GRouting::builder()
        .graph(DatasetProfile::tiny(name).generate())
        .storage_servers(3)
        .processors(4)
        .routing(routing)
        .cache_capacity(8 << 20)
        .build()
}

#[test]
fn every_routing_scheme_answers_correctly() {
    // The same workload must produce identical, ground-truth-correct
    // results no matter how queries are routed — routing affects *where*
    // work happens, never *what* is computed.
    let cluster = tiny_cluster(ProfileName::WebGraph, RoutingKind::Hash);
    let queries = cluster.hotspot_workload(6, 5, 2, 2, 11);
    let answers = cluster.simulate(&queries).results;
    for routing in RoutingKind::ALL {
        let mut cfg = grouting_core::sim::SimConfig::paper_default(4, routing);
        cfg.engine.cache_capacity = 8 << 20;
        let report = cluster.simulate_with(&queries, &cfg);
        assert_eq!(report.timeline.len(), queries.len(), "{routing}");
        assert_eq!(report.results, answers, "{routing}");
    }
    // Verify the answers themselves against whole-graph traversals.
    for (q, r) in queries.iter().zip(&answers) {
        match q {
            Query::NeighborAggregation {
                node,
                hops,
                label: None,
            } => {
                let truth =
                    h_hop_neighborhood(cluster.graph(), *node, *hops, Direction::Both).len() as u64;
                assert_eq!(r.count(), Some(truth));
            }
            Query::Reachability {
                source,
                target,
                hops,
            } => {
                let truth = match hop_distance(cluster.graph(), *source, *target, Direction::Out) {
                    Some(d) => d <= *hops,
                    None => false,
                };
                assert_eq!(r.reachable(), Some(truth));
            }
            _ => {}
        }
    }
}

#[test]
fn simulation_is_deterministic_end_to_end() {
    let cluster = tiny_cluster(ProfileName::Memetracker, RoutingKind::Embed);
    let queries = cluster.hotspot_workload(5, 4, 2, 2, 3);
    let a = cluster.simulate(&queries);
    let b = cluster.simulate(&queries);
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(a.cache_hits, b.cache_hits);
    assert_eq!(a.cache_misses, b.cache_misses);
    assert_eq!(a.stolen, b.stolen);
}

#[test]
fn labeled_queries_flow_through_the_stack() {
    let cluster = tiny_cluster(ProfileName::Freebase, RoutingKind::Landmark);
    let g = cluster.graph();
    assert!(g.has_node_labels());
    let anchor = g.nodes_by_degree_desc()[0];
    let label = g.node_label(anchor).unwrap();
    let queries = vec![
        Query::NeighborAggregation {
            node: anchor,
            hops: 2,
            label: Some(label),
        },
        Query::NeighborAggregation {
            node: anchor,
            hops: 2,
            label: None,
        },
    ];
    let run = cluster
        .run_cluster(&queries, TransportKind::InProc)
        .expect("in-proc cluster completes");
    let filtered = run.results[0].count().unwrap();
    let unfiltered = run.results[1].count().unwrap();
    assert!(filtered <= unfiltered);
}

#[test]
fn storage_tier_holds_every_record() {
    let cluster = tiny_cluster(ProfileName::WebGraph, RoutingKind::Hash);
    let g = cluster.graph();
    let total: usize = (0..cluster.assets.tier.server_count())
        .map(|s| cluster.assets.tier.server(s).len())
        .sum();
    assert_eq!(total, g.node_count());
    // Every record decodes back to the graph's adjacency.
    for v in g.nodes().take(50) {
        let (_, rec) = cluster.assets.tier.get_record(v).unwrap();
        assert_eq!(rec.out(), g.out_neighbors(v).collect::<Vec<_>>());
        assert_eq!(rec.inc(), g.in_neighbors(v).collect::<Vec<_>>());
    }
}

#[test]
fn preprocessing_assets_cover_the_graph() {
    let cluster = tiny_cluster(ProfileName::WebGraph, RoutingKind::Embed);
    let g = cluster.graph();
    assert!(!cluster.assets.landmarks.is_empty());
    assert_eq!(cluster.assets.embedding.node_count(), g.node_count());
    for row in &cluster.assets.landmarks.dist {
        assert_eq!(row.len(), g.node_count());
    }
}
