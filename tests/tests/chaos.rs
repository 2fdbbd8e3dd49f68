//! Chaos agreement: a cluster that loses a node of every type mid-run
//! must still produce the fault-free run's answers — byte for byte.
//!
//! The script kills and restarts one node of each type while a mixed BFS
//! workload streams through the cluster:
//!
//! - a **storage primary** (`s0`): fetches homed there fail over to the
//!   replica, and a later wave proves the restarted primary is recovered
//!   by the chain walk (its replica `s1` is dead by then);
//! - a **storage replica** (`s1`): fetches homed on `s1` fail over to
//!   `s2`, while `s0`-homed fetches can no longer lean on `s1`;
//! - a **processor**: killed and restarted between waves, with the
//!   harness waiting for the router's re-join acknowledgement so the
//!   next wave is routed exactly as the fault-free run routes it.
//!
//! Byte identity holds because every query is anchored in its own graph
//! component (no cross-query cache overlap — a cold restarted cache
//! re-misses exactly what the fault-free run missed), waves fully drain
//! before any kill (no resubmitted windows), and hash routing with
//! stealing off makes placement a pure function of the query. The
//! failover counters in the final snapshot must account for the
//! recoveries: redials and replica failovers strictly positive under
//! chaos, all four exactly zero in the fault-free run.

use std::sync::Arc;
use std::time::Duration;

use grouting_core::engine::{EngineAssets, EngineConfig};
use grouting_core::graph::{GraphBuilder, NodeId};
use grouting_core::query::Query;
use grouting_core::route::RoutingKind;
use grouting_core::storage::HashPartitioner;
use grouting_core::storage::StorageTier;
use grouting_core::wire::{
    launch_chaos_cluster, ChaosAction, ChaosScript, ClusterConfig, ClusterRun, RetryPolicy,
    TransportKind,
};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// Disjoint components — a 6-node star plus a 3-chain off one leaf — so a
/// 2-hop BFS from the hub touches a non-trivial frontier while sharing no
/// adjacency record with any other query's traversal.
fn disjoint_assets(components: u32, servers: usize, replication: usize) -> EngineAssets {
    let mut b = GraphBuilder::new();
    for c in 0..components {
        let base = c * 16;
        for leaf in 1..6 {
            b.add_edge(n(base), n(base + leaf));
        }
        b.add_edge(n(base + 1), n(base + 6));
        b.add_edge(n(base + 6), n(base + 7));
    }
    let g = b.build().unwrap();
    let tier = Arc::new(StorageTier::with_replication(
        Arc::new(HashPartitioner::new(servers)),
        grouting_core::storage::log::DEFAULT_SEGMENT_BYTES,
        replication,
    ));
    tier.load_graph(&g).unwrap();
    EngineAssets::new(tier)
}

/// A mixed wave: 2-hop neighborhood counts and reachability probes, all
/// anchored at distinct component hubs.
fn wave(components: std::ops::Range<u32>) -> Vec<Query> {
    components
        .map(|c| {
            let base = c * 16;
            if c % 3 == 2 {
                Query::Reachability {
                    source: n(base),
                    target: n(base + 7),
                    hops: 3,
                }
            } else {
                Query::NeighborAggregation {
                    node: n(base),
                    hops: 2,
                    label: None,
                }
            }
        })
        .collect()
}

/// One node of every type dies and comes back, across four waves.
fn everything_dies_once() -> ChaosScript {
    ChaosScript::new()
        .wave(wave(0..10))
        .then(ChaosAction::KillStorage(0))
        .wave(wave(10..20))
        .then(ChaosAction::RestartStorage(0))
        .then(ChaosAction::KillStorage(1))
        .wave(wave(20..30))
        .then(ChaosAction::RestartStorage(1))
        .then(ChaosAction::KillProcessor(1))
        .then(ChaosAction::RestartProcessor(1))
        .wave(wave(30..40))
}

fn chaos_engine() -> EngineConfig {
    EngineConfig {
        stealing: false,
        cache_capacity: 8 << 20,
        ..EngineConfig::paper_default(2, RoutingKind::Hash)
    }
}

/// Hermetic: built with `ClusterConfig::new`, so no environment variable
/// moves the run.
fn chaos_config(transport: TransportKind) -> ClusterConfig {
    ClusterConfig {
        retry: Some(RetryPolicy::new(2, Duration::from_millis(1))),
        ..ClusterConfig::new(chaos_engine(), transport)
    }
}

/// Per-query processor assignments, in sequence order.
fn assignments(run: &ClusterRun, queries: usize) -> Vec<usize> {
    let mut by_seq = vec![usize::MAX; queries];
    for r in run.timeline.records() {
        assert_eq!(by_seq[r.seq as usize], usize::MAX, "duplicate completion");
        by_seq[r.seq as usize] = r.processor;
    }
    assert!(
        by_seq.iter().all(|&p| p != usize::MAX),
        "every query must complete"
    );
    by_seq
}

fn assert_chaos_agreement(transport: TransportKind) {
    let assets = disjoint_assets(40, 3, 2);
    let script = everything_dies_once();
    let config = chaos_config(transport);

    let chaos = launch_chaos_cluster(&assets, &script, &config).unwrap();
    let calm = launch_chaos_cluster(&assets, &script.fault_free(), &config).unwrap();
    let total = script.query_count();

    // Answers, demand accounting, and placement are byte-identical.
    assert_eq!(chaos.results, calm.results);
    assert_eq!(chaos.snapshot.queries, calm.snapshot.queries);
    assert_eq!(chaos.snapshot.cache_hits, calm.snapshot.cache_hits);
    assert_eq!(chaos.snapshot.cache_misses, calm.snapshot.cache_misses);
    assert_eq!(chaos.snapshot.stolen, calm.snapshot.stolen);
    assert_eq!(chaos.snapshot.per_processor, calm.snapshot.per_processor);
    assert_eq!(assignments(&chaos, total), assignments(&calm, total));

    // The counters account for the recoveries the script forced: dead
    // endpoints were redialed and fetches failed over to replicas. Waves
    // drain before every kill, so no dispatch window was ever resubmitted.
    assert!(chaos.snapshot.redials > 0, "kills must force redials");
    assert!(
        chaos.snapshot.replica_failovers > 0,
        "kills must force replica failovers"
    );
    assert_eq!(chaos.snapshot.windows_resubmitted, 0);

    // The fault-free run never touched a recovery path.
    assert_eq!(calm.snapshot.redials, 0);
    assert_eq!(calm.snapshot.replica_failovers, 0);
    assert_eq!(calm.snapshot.batches_resubmitted, 0);
    assert_eq!(calm.snapshot.windows_resubmitted, 0);
}

#[test]
fn chaos_agrees_inproc_batched() {
    assert_chaos_agreement(TransportKind::InProc);
}

// `GROUTING_NO_SOCKETS=1` falls back to the in-proc fabric so the suite
// stays green in sandboxes without loopback sockets.
#[test]
fn chaos_agrees_tcp_batched() {
    assert_chaos_agreement(ClusterConfig::from_env(chaos_engine()).transport);
}
