//! Quickstart: build a cluster, run a hotspot workload, read the numbers.
//!
//! ```bash
//! cargo run --release -p grouting-examples --bin quickstart
//! ```

use grouting_core::prelude::*;

fn main() {
    // 1. A graph. Dataset profiles mimic the paper's Table 1 datasets at
    //    reduced scale; any `CsrGraph` (e.g. loaded from your own edges via
    //    `GraphBuilder`) works the same way.
    let graph = DatasetProfile::tiny(ProfileName::WebGraph).generate();
    println!(
        "graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );

    // 2. A cluster: 4 storage servers, 7 processors, embed routing (the
    //    paper's best). `build()` runs the whole preprocessing pipeline —
    //    hash-partitioned storage load, landmark BFS, graph embedding.
    let cluster = GRouting::builder()
        .graph(graph)
        .storage_servers(4)
        .processors(7)
        .routing(RoutingKind::Embed)
        .cache_capacity(64 << 20)
        .build();
    println!(
        "preprocessing: landmarks {:.1} ms, embedding {:.1} ms",
        cluster.assets.timings.landmark_ns as f64 / 1e6,
        (cluster.assets.timings.embed_landmarks_ns + cluster.assets.timings.embed_nodes_ns) as f64
            / 1e6,
    );

    // 3. The paper's workload: queries clustered around hotspots, sent
    //    hotspot-by-hotspot (100 hotspots × 10 queries in the paper).
    let queries = cluster.hotspot_workload(50, 10, 2, 2, 42);

    // 4. Simulate: deterministic virtual-time run of the full cluster.
    let report = cluster.simulate(&queries);
    println!("--- simulated (Infiniband cost model) ---");
    println!("queries:        {}", report.timeline.len());
    println!("throughput:     {:.1} queries/s", report.throughput_qps());
    println!("mean response:  {:.2} ms", report.mean_response_ms());
    println!(
        "cache hits:     {} ({:.1}% hit rate)",
        report.cache_hits,
        report.hit_rate() * 100.0
    );
    println!("stolen queries: {}", report.stolen);

    // 5. Or run it for real: router, processors and storage servers as
    //    in-proc peers exchanging frames (`TransportKind::Tcp`: sockets).
    let run = cluster
        .run_cluster(&queries, TransportKind::InProc)
        .expect("in-proc cluster run");
    assert_eq!(run.results, report.results, "both runtimes answer alike");
    println!("--- real time (in-proc cluster on this machine) ---");
    println!("wall time:      {:.1} ms", run.wall_ns as f64 / 1e6);
    println!("throughput:     {:.0} queries/s", run.throughput_qps());
    println!("hit rate:       {:.1}%", run.hit_rate() * 100.0);
}
