//! Distributed deployment: the cluster as real socket peers on one machine.
//!
//! Launches the paper's full topology over `grouting-wire` — one router,
//! `P` query processors, `M` storage servers, every hop a framed
//! connection on TCP loopback — and replays the hotspot workload through
//! it under each routing scheme, comparing against the in-process live
//! runtime on the same queries. The decoupling stops being simulated
//! here: each cache miss is an adjacency fetch crossing a socket.
//!
//! Sandboxes without loopback networking can set `GROUTING_NO_SOCKETS=1`
//! to fall back to the hermetic in-process transport (same services, same
//! frames, same encoded bytes). Adjacency fetches are frontier-batched and
//! pipelined (`grouting-flow`).
//! `GROUTING_PREFETCH=degree|hotspot` piggybacks speculative next-hop
//! nodes onto the frontier batches (demand statistics stay identical; the
//! speculative tally is reported from the final snapshot).
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
//! GROUTING_PREFETCH=hotspot cargo run --release --example cluster
//! GROUTING_TRACE=stats cargo run --release --example cluster
//! GROUTING_METRICS_ADDR=127.0.0.1:9464 cargo run --release --example cluster
//! GROUTING_NO_SOCKETS=1 cargo run --release --example cluster
//! ```

use grouting_core::metrics::TableReport;
use grouting_core::prelude::*;

fn main() {
    let transport = TransportKind::from_env();
    let overlap = grouting_core::wire::overlap_from_env(2);
    let prefetch = grouting_core::query::PrefetchConfig::from_env();
    let graph = DatasetProfile::at_scale(ProfileName::WebGraph, 0.1).generate();
    println!(
        "WebGraph-profile graph: {} nodes, {} edges; transport: {transport}; \
         overlap: {overlap}; prefetch: {}",
        graph.node_count(),
        graph.edge_count(),
        prefetch.policy,
    );

    let processors = 4;
    let storage_servers = 3;
    let cluster = GRouting::builder()
        .graph(graph)
        .storage_servers(storage_servers)
        .processors(processors)
        .cache_capacity(8 << 20)
        .build();
    let queries = cluster.hotspot_workload(40, 10, 2, 2, 77);
    println!(
        "Topology: 1 router + {processors} processors + {storage_servers} storage servers; \
         {} hotspot queries\n",
        queries.len()
    );

    let mut table = TableReport::new(
        "Socket cluster vs in-process live runtime (same workload)",
        &[
            "routing",
            "deployment",
            "throughput_qps",
            "hit_rate_%",
            "stolen",
            "wall_ms",
        ],
    );
    let mut prefetch_lines: Vec<String> = Vec::new();
    let mut failover_lines: Vec<String> = Vec::new();
    let mut heat_lines: Vec<String> = Vec::new();
    let mut traces: Vec<(RoutingKind, grouting_core::trace::TraceSnapshot)> = Vec::new();
    for routing in [RoutingKind::Hash, RoutingKind::Embed] {
        let cluster = cluster.with_routing(routing);
        let wire = cluster
            .run_cluster(&queries, transport)
            .expect("wire cluster run");
        let live = cluster.run_live(&queries);
        assert_eq!(
            wire.results, live.results,
            "socket and in-process deployments must agree on answers"
        );
        if prefetch.enabled() {
            // The final snapshot's speculative tally — strictly separate
            // from the demand hit rate in the table. Zero issuance is a
            // real signal: every hot node was already cached or in
            // flight, so the predictor had nothing worth piggybacking.
            prefetch_lines.push(format!(
                "{routing}: prefetch issued {} nodes, {} demanded ({:.1}% hit rate), \
                 {} B fetched in vain",
                wire.prefetch_issued,
                wire.prefetch_hits,
                wire.prefetch_hit_rate() * 100.0,
                wire.prefetch_wasted_bytes,
            ));
        }
        // Recovery accounting from the final snapshot — all zeros in a
        // healthy run; the chaos example (`cargo run --example chaos`)
        // kills real nodes and shows these spent on recoveries instead.
        failover_lines.push(format!(
            "{routing}: {} redials, {} replica failovers, {} batches resubmitted, \
             {} windows resubmitted",
            wire.redials,
            wire.replica_failovers,
            wire.batches_resubmitted,
            wire.windows_resubmitted,
        ));
        // The workload heatmap from the final snapshot: cumulative
        // demand (cache-miss fetches) and speculative (prefetched)
        // accesses per storage partition, plus the per-landmark-region
        // dispatch tallies when the routing scheme placed landmarks.
        let cells = wire.partition_heat.cells();
        let hottest = cells
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.total())
            .map_or_else(|| "-".to_string(), |(p, _)| format!("p{p}"));
        heat_lines.push(format!(
            "{routing}: [{}] (hottest {hottest}); {} regions touched",
            cells
                .iter()
                .enumerate()
                .map(|(p, c)| format!("p{p} {}+{}", c.demand, c.speculative))
                .collect::<Vec<_>>()
                .join(", "),
            wire.region_heat.len(),
        ));
        if let Some(trace) = wire.trace.clone() {
            traces.push((routing, trace));
        }
        for (deployment, report) in [(transport.to_string(), &wire), ("threads".into(), &live)] {
            table.row(vec![
                routing.to_string().into(),
                deployment.into(),
                format!("{:.0}", report.throughput_qps()).into(),
                format!("{:.1}", report.hit_rate() * 100.0).into(),
                report.stolen.to_string().into(),
                format!("{:.1}", report.wall_ns as f64 / 1e6).into(),
            ]);
        }
    }
    table.print();
    for line in &prefetch_lines {
        println!("{line}");
    }
    println!("\nFailover counters:");
    for line in &failover_lines {
        println!("  {line}");
    }
    println!("\nWorkload heat per partition (demand+speculative accesses):");
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
    println!("\nBoth deployments answered every query identically.");
}
