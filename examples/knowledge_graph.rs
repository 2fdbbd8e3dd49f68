//! Knowledge-graph queries: labels, ego-centric filters, reachability.
//!
//! Uses the Freebase-like labelled profile to run the paper's §2.2 query
//! menu with label constraints — "find Alice's 2-hop connections employed
//! by Google" style — through the in-proc wire cluster, printing actual
//! answers.
//!
//! ```bash
//! cargo run --release -p grouting-examples --bin knowledge_graph
//! ```

use grouting_core::gen::labels::label_histogram;
use grouting_core::prelude::*;

fn main() {
    let graph = DatasetProfile::tiny(ProfileName::Freebase).generate();
    println!(
        "Freebase-profile graph: {} nodes, {} edges, labelled: {}",
        graph.node_count(),
        graph.edge_count(),
        graph.has_node_labels()
    );

    // The three most common entity types, as label-constrained targets.
    let mut hist = label_histogram(&graph);
    hist.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
    let top: Vec<(NodeLabelId, usize)> = hist.into_iter().take(3).collect();
    for (label, count) in &top {
        println!("label {:?}: {count} entities", label);
    }

    // Pick well-connected query nodes.
    let anchors: Vec<NodeId> = graph.nodes_by_degree_desc().into_iter().take(4).collect();

    let mut queries = Vec::new();
    // Ego-centric: count 2-hop neighbours of each anchor of each top type.
    for &anchor in &anchors {
        queries.push(Query::NeighborAggregation {
            node: anchor,
            hops: 2,
            label: None,
        });
        for &(label, _) in &top {
            queries.push(Query::NeighborAggregation {
                node: anchor,
                hops: 2,
                label: Some(label),
            });
        }
    }
    // Reachability between the anchors within 4 hops — plain, and
    // label-constrained ("reachable only through <top type> entities",
    // the paper's §2.2 label-constrained variant).
    for w in anchors.windows(2) {
        queries.push(Query::Reachability {
            source: w[0],
            target: w[1],
            hops: 4,
        });
        queries.push(Query::ConstrainedReachability {
            source: w[0],
            target: w[1],
            hops: 4,
            via_label: top[0].0,
        });
    }
    // And a random-walk exploration from the top anchor.
    queries.push(Query::RandomWalk {
        node: anchors[0],
        steps: 8,
        restart_prob: 0.15,
        seed: 7,
    });

    let cluster = GRouting::builder()
        .graph(graph)
        .storage_servers(2)
        .processors(4)
        .routing(RoutingKind::Landmark)
        .cache_capacity(16 << 20)
        .build();

    let report = cluster
        .run_cluster(&queries, TransportKind::InProc)
        .expect("in-proc cluster run");
    println!("--- answers ({} queries, wire run) ---", queries.len());
    for (q, r) in queries.iter().zip(&report.results) {
        match (q, r) {
            (
                Query::NeighborAggregation {
                    node, label: None, ..
                },
                QueryResult::Count(c),
            ) => {
                println!("  |N_2({node})| = {c}");
            }
            (
                Query::NeighborAggregation {
                    node,
                    label: Some(l),
                    ..
                },
                QueryResult::Count(c),
            ) => {
                println!("  |N_2({node}) with label {l:?}| = {c}");
            }
            (
                Query::Reachability {
                    source,
                    target,
                    hops,
                },
                QueryResult::Reachable(ok),
            ) => {
                println!("  {source} -> {target} within {hops} hops: {ok}");
            }
            (
                Query::ConstrainedReachability {
                    source,
                    target,
                    hops,
                    via_label,
                },
                QueryResult::Reachable(ok),
            ) => {
                println!("  {source} -> {target} within {hops} hops via {via_label:?} only: {ok}");
            }
            (Query::RandomWalk { node, steps, .. }, QueryResult::Walk { end, visited }) => {
                println!("  walk({node}, {steps} steps) ended at {end}, visited {visited}");
            }
            _ => unreachable!("result kind matches query kind"),
        }
    }
    println!(
        "hit rate {:.1}% over {} record accesses",
        report.hit_rate() * 100.0,
        report.snapshot.cache_hits + report.snapshot.cache_misses
    );
}
