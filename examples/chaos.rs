//! Chaos demo: the cluster keeps answering while nodes die around it.
//!
//! Deploys the full wire topology — router, processors, replicated
//! storage endpoints — and replays a four-wave BFS workload twice: once
//! on a chaos script that kills and restarts one node of every type
//! (storage primary, storage replica, query processor) between waves,
//! and once fault-free. The two runs must agree byte-for-byte on answers
//! and demand cache statistics — the paper's continuous-availability
//! argument (§4.1): processors are stateless routable caches and storage
//! replicates, so no single death loses the graph or changes a result.
//! The failover counters tell the story of the recoveries.
//!
//! ```bash
//! cargo run --release --example chaos
//! GROUTING_NO_SOCKETS=1 cargo run --release --example chaos
//! ```

use std::sync::Arc;
use std::time::Duration;

use grouting_core::engine::{EngineAssets, EngineConfig};
use grouting_core::graph::{GraphBuilder, NodeId};
use grouting_core::partition::HashPartitioner;
use grouting_core::prelude::*;
use grouting_core::storage::StorageTier;
use grouting_core::wire::{
    launch_chaos_cluster, ChaosAction, ChaosScript, ClusterConfig, RetryPolicy,
};

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

fn main() {
    let transport = TransportKind::from_env();

    // Disjoint star-and-tail components, one per query: no two queries
    // share an adjacency record, so a restarted (cold) cache re-misses
    // exactly what the fault-free run missed.
    let components = 48u32;
    let mut b = GraphBuilder::new();
    for c in 0..components {
        let base = c * 16;
        for leaf in 1..6 {
            b.add_edge(n(base), n(base + leaf));
        }
        b.add_edge(n(base + 1), n(base + 6));
        b.add_edge(n(base + 6), n(base + 7));
    }
    let graph = b.build().expect("valid graph");

    // Three storage endpoints, every partition replicated on two of them.
    let tier = Arc::new(StorageTier::with_replication(
        Arc::new(HashPartitioner::new(3)),
        grouting_core::storage::log::DEFAULT_SEGMENT_BYTES,
        2,
    ));
    tier.load_graph(&graph).unwrap();
    let assets = EngineAssets::new(tier);

    let wave = |range: std::ops::Range<u32>| -> Vec<Query> {
        range
            .map(|c| Query::NeighborAggregation {
                node: n(c * 16),
                hops: 2,
                label: None,
            })
            .collect()
    };
    let script = ChaosScript::new()
        .wave(wave(0..12))
        .then(ChaosAction::KillStorage(0))
        .wave(wave(12..24))
        .then(ChaosAction::RestartStorage(0))
        .then(ChaosAction::KillStorage(1))
        .wave(wave(24..36))
        .then(ChaosAction::RestartStorage(1))
        .then(ChaosAction::KillProcessor(1))
        .then(ChaosAction::RestartProcessor(1))
        .wave(wave(36..48));

    let engine = EngineConfig {
        stealing: false,
        cache_capacity: 8 << 20,
        ..EngineConfig::paper_default(2, RoutingKind::Hash)
    };
    let config = ClusterConfig::new(engine, transport)
        .with_retry(RetryPolicy::new(4, Duration::from_millis(2)));

    println!(
        "Topology: 1 router + 2 processors + 3 storage endpoints (replication 2); \
         transport: {transport}"
    );
    println!(
        "Script: {} queries in 4 waves; between waves we kill the storage \
         primary, then its replica (primary re-joins), then a processor.\n",
        script.query_count()
    );

    let chaos = launch_chaos_cluster(&assets, &script, &config).expect("chaos run");
    let calm = launch_chaos_cluster(&assets, &script.fault_free(), &config).expect("calm run");

    assert_eq!(chaos.results, calm.results, "answers must survive chaos");
    assert_eq!(chaos.snapshot.cache_hits, calm.snapshot.cache_hits);
    assert_eq!(chaos.snapshot.cache_misses, calm.snapshot.cache_misses);
    assert_eq!(chaos.snapshot.per_processor, calm.snapshot.per_processor);

    for (label, run) in [("chaos", &chaos), ("fault-free", &calm)] {
        let s = &run.snapshot;
        println!(
            "{label:>10}: {} queries, {} hits / {} misses, wall {:.1} ms | \
             {} redials, {} replica failovers, {} batches resubmitted, {} windows resubmitted",
            s.queries,
            s.cache_hits,
            s.cache_misses,
            run.wall_ns as f64 / 1e6,
            s.redials,
            s.replica_failovers,
            s.batches_resubmitted,
            s.windows_resubmitted,
        );
    }
    assert!(chaos.snapshot.redials > 0, "kills must force redials");
    assert!(chaos.snapshot.replica_failovers > 0);
    println!(
        "\nThree nodes died and came back; every answer and every demand-miss \
         byte matched the fault-free run."
    );
}
