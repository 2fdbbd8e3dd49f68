//! Distributed deployment: the cluster as real socket peers on one machine.
//!
//! Launches the paper's full topology over `grouting-wire` — one router,
//! `P` query processors, `M` storage servers, every hop a framed
//! connection on TCP loopback — and replays the hotspot workload through
//! it under each routing scheme, checking every answer against the
//! simulator's on the same queries. The decoupling stops being simulated
//! here: each cache miss is an adjacency fetch crossing a socket.
//!
//! Sandboxes without loopback networking can set `GROUTING_NO_SOCKETS=1`
//! to fall back to the hermetic in-process transport (same services, same
//! frames, same encoded bytes). Adjacency fetches are frontier-batched and
//! pipelined (`grouting-flow`).
//! `GROUTING_TRACE=stats|spans` turns on the query-tracing layer: the wire
//! runs then print a per-stage latency breakdown (router queue, dispatch
//! RTT, fetch wait, compute, completion) and the reactor's busy/idle and
//! buffer-pool telemetry.
//! `GROUTING_METRICS_ADDR=host:port` additionally serves a live
//! Prometheus-style scrape endpoint on the router covering the whole
//! cluster, and `GROUTING_OBS_DUMP=1` replays each node's sampled counter
//! history at teardown; neither changes a single statistic (pinned by
//! wire_agreement). The per-partition workload heat is printed from the
//! final snapshot either way.
//!
//! ```bash
//! cargo run --release --example cluster
//! GROUTING_TRACE=stats cargo run --release --example cluster
//! GROUTING_METRICS_ADDR=127.0.0.1:9464 cargo run --release --example cluster
//! GROUTING_NO_SOCKETS=1 cargo run --release --example cluster
//! ```

use grouting_core::metrics::TableReport;
use grouting_core::prelude::*;
use grouting_core::wire::ClusterConfig;

fn main() {
    let graph = DatasetProfile::at_scale(ProfileName::WebGraph, 0.1).generate();
    let (nodes, edges) = (graph.node_count(), graph.edge_count());
    let processors = 4;
    let storage_servers = 3;
    let cluster = GRouting::builder()
        .graph(graph)
        .storage_servers(storage_servers)
        .processors(processors)
        .cache_capacity(8 << 20)
        .build();
    // The deployment the runs below use: this cluster's engine plus the
    // `GROUTING_*` variables.
    let config = ClusterConfig::from_env(*cluster.engine());
    let transport = config.transport;
    println!(
        "WebGraph-profile graph: {nodes} nodes, {edges} edges; transport: {transport}; \
         overlap: {}",
        config.engine.overlap,
    );
    let queries = cluster.hotspot_workload(40, 10, 2, 2, 77);
    println!(
        "Topology: 1 router + {processors} processors + {storage_servers} storage servers; \
         {} hotspot queries\n",
        queries.len()
    );

    let mut table = TableReport::new(
        format!("Wire cluster over {transport} (same workload per routing)"),
        &[
            "routing",
            "throughput_qps",
            "hit_rate_%",
            "stolen",
            "wall_ms",
        ],
    );
    let mut failover_lines: Vec<String> = Vec::new();
    let mut heat_lines: Vec<String> = Vec::new();
    let mut traces: Vec<(RoutingKind, grouting_core::trace::TraceSnapshot)> = Vec::new();
    for routing in [RoutingKind::Hash, RoutingKind::Embed] {
        let cluster = cluster.with_routing(routing);
        let wire = cluster
            .run_cluster(&queries, transport)
            .expect("wire cluster run");
        assert_eq!(
            wire.results,
            cluster.simulate(&queries).results,
            "the wire cluster and the simulator must agree on answers"
        );
        // Processors report their cumulative tallies only when they
        // change; a lost update would leave the router's copy behind.
        // Demand heat folds in from each completed query's miss log, so
        // it must account for every miss the engine counted.
        assert_eq!(
            wire.snapshot.partition_heat.total_demand(),
            wire.snapshot.cache_misses,
            "partition heat must account for every cache miss"
        );
        // Recovery accounting from the final snapshot — all zeros in a
        // healthy run; the chaos example (`cargo run --example chaos`)
        // kills real nodes and shows these spent on recoveries instead.
        failover_lines.push(format!(
            "{routing}: {} redials, {} replica failovers, {} batches resubmitted, \
             {} windows resubmitted",
            wire.snapshot.redials,
            wire.snapshot.replica_failovers,
            wire.snapshot.batches_resubmitted,
            wire.snapshot.windows_resubmitted,
        ));
        // The workload heatmap from the final snapshot: cumulative
        // demand (cache-miss fetches) per storage partition, plus the
        // per-landmark-region dispatch tallies when the routing scheme
        // placed landmarks.
        let cells = wire.snapshot.partition_heat.cells();
        let hottest = cells
            .iter()
            .enumerate()
            .max_by_key(|&(_, &demand)| demand)
            .map_or_else(|| "-".to_string(), |(p, _)| format!("p{p}"));
        heat_lines.push(format!(
            "{routing}: [{}] (hottest {hottest}); {} regions touched",
            cells
                .iter()
                .enumerate()
                .map(|(p, demand)| format!("p{p} {demand}"))
                .collect::<Vec<_>>()
                .join(", "),
            wire.snapshot.region_heat.len(),
        ));
        if let Some(trace) = wire.trace.clone() {
            traces.push((routing, trace));
        }
        table.row(vec![
            routing.to_string().into(),
            format!("{:.0}", wire.throughput_qps()).into(),
            format!("{:.1}", wire.hit_rate() * 100.0).into(),
            wire.snapshot.stolen.to_string().into(),
            format!("{:.1}", wire.wall_ns as f64 / 1e6).into(),
        ]);
    }
    table.print();
    println!("\nFailover counters:");
    for line in &failover_lines {
        println!("  {line}");
    }
    println!("\nWorkload heat per partition (demand accesses):");
    for line in &heat_lines {
        println!("  {line}");
    }
    for (routing, trace) in &traces {
        println!("\nTrace ({routing} routing, level {}):", trace.level);
        trace.stages.table().print();
        let r = &trace.reactor;
        println!(
            "reactor: {:.1}% busy ({:.2} ms busy / {:.2} ms idle), \
             {} frames in / {} out ({} B / {} B), \
             batch depth peak {}, pool reuse {:.1}% (peak {} free buffers)",
            r.busy_ratio() * 100.0,
            r.busy_ns as f64 / 1e6,
            r.idle_ns as f64 / 1e6,
            r.frames_in,
            r.frames_out,
            r.bytes_in,
            r.bytes_out,
            r.batch_depth_peak,
            r.pool_reuse_rate() * 100.0,
            r.pool_peak_free,
        );
        if !trace.spans.is_empty() {
            println!("captured {} query spans (spans level)", trace.spans.len());
        }
    }
    if traces.is_empty() {
        println!("\n(set GROUTING_TRACE=stats for per-stage latency and reactor telemetry)");
    }
    println!("\nThe wire cluster answered every query as the simulator did.");
}
