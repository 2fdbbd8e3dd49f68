//! The discrete-event loop.
//!
//! A closed-loop, acknowledgement-driven simulation of Figure 2's cluster:
//!
//! * queries are *admitted* into the router's queues through a bounded
//!   window (modelling the online arrival stream — routing decisions see
//!   realistic queue lengths and fresh EMA state);
//! * an idle processor asks the router for work (own queue → global queue →
//!   steal), executes the query **for real** against its cache and the
//!   storage tier, and completes after the virtual time its accesses cost;
//! * each storage get occupies the owning server FCFS
//!   (`storage_service_ns`), so under-provisioned storage tiers become the
//!   bottleneck exactly as in Figure 8(c);
//! * completion acks the router, which dispatches the next query.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use grouting_engine::Engine;
use grouting_metrics::timeline::QueryRecord;
use grouting_query::{Query, QueryResult};

use crate::assets::SimAssets;
use crate::config::SimConfig;
use crate::report::SimReport;

/// Runs one simulated cluster over the query stream.
///
/// The whole stack — router, strategy, per-processor caches, storage-tier
/// handles, timeline — is assembled by the shared [`Engine`] builder (the
/// wire cluster's router node runs the same router half); this loop only
/// owns *virtual time*. Each processor holds one query in flight, driven
/// through the same dispatch window the wire router uses: `next_for`
/// opens it, `complete` acknowledges it at once.
///
/// # Panics
///
/// Panics if `cfg.engine.processors == 0`.
pub fn simulate(assets: &SimAssets, queries: &[Query], cfg: &SimConfig) -> SimReport {
    let p = cfg.engine.processors;
    let mut engine = Engine::new(&assets.engine_assets(), &cfg.engine);
    let mut workers = engine.take_workers();

    let mut backlog = queries.iter().copied().enumerate();
    let mut arrivals: Vec<u64> = vec![0; queries.len()];
    let mut results: Vec<Option<QueryResult>> = vec![None; queries.len()];

    // Storage servers as fluid queues: each holds a work backlog that
    // drains in real time and grows by `storage_service_ns` per get. A get
    // issued at time `t` waits for the backlog present at `t`. This lets
    // concurrent queries' gets interleave (as they do on a real server)
    // while still saturating when aggregate demand exceeds a server's
    // capacity — the Figure 8(c) bottleneck.
    let mut server_backlog = vec![0u64; assets.tier.server_count()];
    let mut server_seen = vec![0u64; assets.tier.server_count()];
    // This run's gets per server. The tier's own counters are lifetime
    // totals over everything that shares it (other runs, wire clusters).
    let mut storage_gets = vec![0u64; assets.tier.server_count()];
    let mut makespan = 0u64;

    // Completion events: (time, processor).
    let mut completions: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    // Idle processors with the time they became ready.
    let mut idle: Vec<(u64, usize)> = (0..p).map(|proc| (0u64, proc)).collect();

    let cost = cfg.cost;
    let uses_cache = cfg.engine.routing.uses_cache();

    loop {
        // Keep the admission window full at the current frontier time.
        let now_floor = idle.iter().map(|&(t, _)| t).min().unwrap_or(0);
        engine.admit(&mut backlog, |seq| arrivals[seq] = now_floor);

        // Dispatch to idle processors, earliest-ready first.
        idle.sort_unstable();
        let mut still_idle = Vec::new();
        for (ready_at, proc) in idle.drain(..) {
            match engine.next_for(proc) {
                Some((seq, query)) => {
                    let started = ready_at + cost.router_decision_ns;
                    // Execute for real; then charge virtual time.
                    let (out, miss_log) = workers[proc].run(&query);

                    let mut t = started;
                    for m in &miss_log {
                        let s = m.server as usize;
                        storage_gets[s] += 1;
                        // Drain the backlog for the time that passed since
                        // this server was last observed.
                        let drained = t.saturating_sub(server_seen[s]);
                        server_backlog[s] = server_backlog[s].saturating_sub(drained);
                        server_seen[s] = server_seen[s].max(t);
                        let wait = server_backlog[s];
                        server_backlog[s] += cost.storage_service_ns;
                        t += wait
                            + cost.storage_service_ns
                            + cost.network.fetch_ns(m.bytes as usize);
                    }
                    let accesses = out.stats.accesses();
                    if uses_cache {
                        t += accesses * cost.cache_probe_ns;
                        t += out.stats.cache_misses * cost.cache_insert_ns;
                    }
                    t += accesses * cost.compute_per_node_ns;
                    results[seq as usize] = Some(out.result);

                    engine.complete(
                        QueryRecord {
                            seq,
                            arrived: arrivals[seq as usize],
                            started,
                            completed: t,
                            processor: proc,
                        },
                        &out.stats,
                    );
                    makespan = makespan.max(t);
                    completions.push(Reverse((t + cost.ack_ns, proc)));
                }
                None => still_idle.push((ready_at, proc)),
            }
        }
        idle = still_idle;

        // Advance to the next completion; when none remain, the run is
        // finished (or wedged with undispatchable work, which the missing
        // results surface below).
        match completions.pop() {
            Some(Reverse((t, proc))) => idle.push((t, proc)),
            None => break,
        }
    }

    let run = engine.finish();
    SimReport {
        results: results
            .into_iter()
            .map(|r| r.expect("every query completed"))
            .collect(),
        timeline: run.timeline,
        cache_hits: run.totals.cache_hits,
        cache_misses: run.totals.cache_misses,
        evictions: run.totals.evictions,
        stolen: run.stolen,
        makespan_ns: makespan,
        storage_gets,
        processors: p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_route::RoutingKind;
    use grouting_workload::{hotspot_workload, WorkloadConfig};
    use std::sync::Arc;

    fn small_world(n: usize) -> Arc<grouting_graph::CsrGraph> {
        // A ring with chords: strong topology-aware locality.
        let mut b = grouting_graph::GraphBuilder::new();
        let k = n as u32;
        for i in 0..k {
            b.add_edge(
                grouting_graph::NodeId::new(i),
                grouting_graph::NodeId::new((i + 1) % k),
            );
            b.add_edge(
                grouting_graph::NodeId::new(i),
                grouting_graph::NodeId::new((i + 2) % k),
            );
        }
        Arc::new(b.build().unwrap())
    }

    fn assets(n: usize) -> SimAssets {
        SimAssets::build(
            small_world(n),
            4,
            &grouting_embed::landmarks::LandmarkConfig {
                count: 8,
                min_separation: (n / 8).max(2) as u32,
            },
            &grouting_embed::EmbeddingConfig {
                dimensions: 5,
                landmark_sweeps: 1,
                landmark_iters: 150,
                node_iters: 50,
                nearest_landmarks: 8,
                seed: 2,
            },
        )
    }

    fn sim_config(processors: usize, routing: RoutingKind, cache: usize) -> SimConfig {
        let mut cfg = SimConfig::paper_default(processors, routing);
        cfg.engine.cache_capacity = cache;
        cfg
    }

    fn workload(assets: &SimAssets, seed: u64) -> Vec<grouting_query::Query> {
        hotspot_workload(
            &assets.graph,
            &WorkloadConfig {
                hotspots: 20,
                per_hotspot: 8,
                radius: 2,
                hops: 2,
                mix: grouting_workload::QueryMix::uniform(),
                restart_prob: 0.15,
                seed,
            },
        )
        .queries
    }

    #[test]
    fn all_queries_complete() {
        let a = assets(128);
        let q = workload(&a, 1);
        let cfg = sim_config(4, RoutingKind::Hash, 1 << 20);
        let r = simulate(&a, &q, &cfg);
        assert_eq!(r.timeline.len(), q.len());
        assert!(r.makespan_ns > 0);
        assert!(r.throughput_qps() > 0.0);
    }

    #[test]
    fn deterministic_runs() {
        let a = assets(96);
        let q = workload(&a, 2);
        let cfg = sim_config(3, RoutingKind::Embed, 1 << 20);
        let r1 = simulate(&a.with_storage_servers(4), &q, &cfg);
        let r2 = simulate(&a.with_storage_servers(4), &q, &cfg);
        assert_eq!(r1.makespan_ns, r2.makespan_ns);
        assert_eq!(r1.cache_hits, r2.cache_hits);
        assert_eq!(r1.stolen, r2.stolen);
    }

    #[test]
    fn no_cache_never_hits() {
        let a = assets(96);
        let q = workload(&a, 3);
        let cfg = sim_config(4, RoutingKind::NoCache, 1 << 20);
        let r = simulate(&a, &q, &cfg);
        assert_eq!(r.cache_hits, 0);
        assert!(r.cache_misses > 0);
    }

    #[test]
    fn smart_routing_beats_next_ready_on_cache_hits() {
        let a = assets(256);
        let q = workload(&a, 4);
        let base = sim_config(4, RoutingKind::NextReady, 4 << 20);
        let r_next = simulate(&a.with_storage_servers(4), &q, &base);
        let r_embed = simulate(
            &a.with_storage_servers(4),
            &q,
            &sim_config(4, RoutingKind::Embed, 4 << 20),
        );
        let r_landmark = simulate(
            &a.with_storage_servers(4),
            &q,
            &sim_config(4, RoutingKind::Landmark, 4 << 20),
        );
        assert!(
            r_embed.hit_rate() > r_next.hit_rate(),
            "embed {} vs next-ready {}",
            r_embed.hit_rate(),
            r_next.hit_rate()
        );
        assert!(
            r_landmark.hit_rate() > r_next.hit_rate(),
            "landmark {} vs next-ready {}",
            r_landmark.hit_rate(),
            r_next.hit_rate()
        );
    }

    #[test]
    fn stealing_keeps_load_balanced_under_hash_skew() {
        let a = assets(96);
        // All queries anchored at node 0: hash pins them to one processor.
        let q: Vec<grouting_query::Query> = (0..40)
            .map(|_| grouting_query::Query::NeighborAggregation {
                node: grouting_graph::NodeId::new(0),
                hops: 1,
                label: None,
            })
            .collect();
        let cfg = sim_config(4, RoutingKind::Hash, 1 << 20);
        let mut no_steal = cfg;
        no_steal.engine.stealing = false;
        let with_steal = simulate(&a.with_storage_servers(4), &q, &cfg);
        let without = simulate(&a.with_storage_servers(4), &q, &no_steal);
        assert!(with_steal.stolen > 0);
        assert!(with_steal.load_imbalance() < without.load_imbalance());
        assert!(with_steal.makespan_ns <= without.makespan_ns);
    }

    #[test]
    fn more_storage_servers_do_not_slow_the_run() {
        let a = assets(128);
        let q = workload(&a, 5);
        let cfg = sim_config(4, RoutingKind::NoCache, 1 << 20);
        let one = simulate(&a.with_storage_servers(1), &q, &cfg);
        let four = simulate(&a.with_storage_servers(4), &q, &cfg);
        assert!(
            four.makespan_ns <= one.makespan_ns,
            "4 servers {} vs 1 server {}",
            four.makespan_ns,
            one.makespan_ns
        );
    }

    #[test]
    fn storage_gets_accounted() {
        // Two runs on one set of assets share its storage tier: each must
        // report its own gets, not the tier's lifetime totals.
        let a = assets(96);
        let q = workload(&a, 6);
        let cfg = sim_config(2, RoutingKind::Hash, 1 << 20);
        let first = simulate(&a, &q, &cfg);
        let second = simulate(&a, &q, &cfg);
        assert_eq!(first.storage_gets, second.storage_gets);
        for r in [&first, &second] {
            let total: u64 = r.storage_gets.iter().sum();
            assert_eq!(total, r.cache_misses);
        }
    }

    #[test]
    fn results_match_the_serial_executor_for_every_query_kind() {
        use grouting_graph::{GraphBuilder, NodeId, NodeLabelId};
        use grouting_query::Executor;

        // A chord ring whose nodes carry one of three labels, so label
        // filters and label-constrained paths have something to decide.
        let k = 96u32;
        let mut b = GraphBuilder::new();
        for i in 0..k {
            b.add_edge(NodeId::new(i), NodeId::new((i + 1) % k));
            b.add_edge(NodeId::new(i), NodeId::new((i + 2) % k));
            b.set_node_label(NodeId::new(i), NodeLabelId::new((i % 3) as u16));
        }
        let a = SimAssets::paper_defaults(Arc::new(b.build().unwrap()), 4);
        let q: Vec<Query> = (0..48u32)
            .map(|i| {
                let (node, other) = (NodeId::new(i * 5 % k), NodeId::new((i * 5 + i % 7) % k));
                match i % 4 {
                    0 => Query::NeighborAggregation {
                        node,
                        hops: 2,
                        label: (i % 8 == 0).then_some(NodeLabelId::new(1)),
                    },
                    1 => Query::RandomWalk {
                        node,
                        steps: 6,
                        restart_prob: 0.15,
                        seed: u64::from(i),
                    },
                    2 => Query::Reachability {
                        source: node,
                        target: other,
                        hops: 3,
                    },
                    _ => Query::ConstrainedReachability {
                        source: node,
                        target: other,
                        hops: 3,
                        via_label: NodeLabelId::new(2),
                    },
                }
            })
            .collect();

        // A 1 KiB cache keeps the run missing and evicting.
        let cfg = sim_config(4, RoutingKind::Embed, 1 << 10);
        let report = simulate(&a, &q, &cfg);
        let mut cache = cfg.engine.build_cache();
        let mut serial = Executor::new(Arc::clone(&a.tier), &mut cache);
        let expected: Vec<QueryResult> = q.iter().map(|q| serial.run(q).result).collect();
        assert_eq!(report.results, expected);
    }
}
