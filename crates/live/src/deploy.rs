//! The socket deployment frontend: a live run over real wire peers.
//!
//! Where [`crate::runtime::run_live`] keeps every tier in one process and
//! wires them with channels, this frontend hands the same configuration to
//! `grouting-wire`: the router, each query processor, and each storage
//! server become transport endpoints (TCP loopback by default), and every
//! dispatch, acknowledgement, and adjacency fetch crosses a framed
//! connection. The report comes back in the same [`LiveReport`] shape, so
//! callers — and the agreement tests — can compare deployments directly.

use std::sync::Arc;

use grouting_embed::embedding::Embedding;
use grouting_embed::landmarks::Landmarks;
use grouting_engine::EngineAssets;
use grouting_query::Query;
use grouting_storage::{Preset, StorageTier};
use grouting_wire::{launch_cluster, ClusterConfig, TransportKind, WireResult};

use crate::runtime::LiveConfig;
use crate::LiveReport;

/// Runs the query stream on a wire cluster (router + processors + storage
/// as transport peers) and returns wall-clock metrics.
///
/// `transport` picks the fabric — [`TransportKind::Tcp`] for real loopback
/// sockets, [`TransportKind::InProc`] for sandboxes without them
/// ([`TransportKind::from_env`] honours `GROUTING_NO_SOCKETS=1`). `net`
/// charges an emulated processor↔storage network per fetch at the storage
/// endpoints ([`Preset::Local`] charges nothing). Misses travel as
/// pipelined frontier batches, one per storage server per hop.
/// `cfg.overlap` sets the per-processor in-flight query window
/// (cross-query fetch overlap; `1` = strictly serial with byte-identical
/// cache statistics to [`run_live`]).
///
/// # Errors
///
/// Propagates wire-layer failures (bind/dial errors, protocol violations,
/// peers dying mid-run).
///
/// # Panics
///
/// Panics if `cfg.processors == 0`, or if a smart scheme is requested
/// without its preprocessing asset — the same contract as
/// [`crate::runtime::run_live`].
pub fn run_cluster(
    tier: Arc<StorageTier>,
    landmarks: Option<Arc<Landmarks>>,
    embedding: Option<Arc<Embedding>>,
    queries: &[Query],
    cfg: &LiveConfig,
    transport: TransportKind,
    net: Preset,
) -> WireResult<LiveReport> {
    let assets = EngineAssets::new(tier)
        .with_landmarks(landmarks)
        .with_embedding(embedding);
    let mut cluster_cfg = ClusterConfig::new(cfg.engine_config(), transport).with_trace(cfg.trace);
    cluster_cfg.net = net;
    let run = launch_cluster(&assets, queries, &cluster_cfg)?;
    Ok(LiveReport {
        results: run.results,
        cache_hits: run.snapshot.cache_hits,
        cache_misses: run.snapshot.cache_misses,
        stolen: run.snapshot.stolen,
        prefetch_issued: run.snapshot.prefetch_issued,
        prefetch_hits: run.snapshot.prefetch_hits,
        prefetch_wasted_bytes: run.snapshot.prefetch_wasted_bytes,
        redials: run.snapshot.redials,
        replica_failovers: run.snapshot.replica_failovers,
        batches_resubmitted: run.snapshot.batches_resubmitted,
        windows_resubmitted: run.snapshot.windows_resubmitted,
        partition_heat: run.snapshot.partition_heat,
        region_heat: run.snapshot.region_heat,
        trace: run.trace,
        timeline: run.timeline,
        wall_ns: run.wall_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_graph::traversal::{h_hop_neighborhood, Direction};
    use grouting_graph::{CsrGraph, GraphBuilder, NodeId};
    use grouting_partition::HashPartitioner;
    use grouting_query::QueryResult;
    use grouting_route::RoutingKind;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn chord_ring(k: u32) -> Arc<CsrGraph> {
        let mut b = GraphBuilder::new();
        for i in 0..k {
            b.add_edge(n(i), n((i + 1) % k));
            b.add_edge(n(i), n((i + 2) % k));
        }
        Arc::new(b.build().unwrap())
    }

    fn loaded_tier(g: &CsrGraph, servers: usize) -> Arc<StorageTier> {
        let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(servers))));
        tier.load_graph(g).unwrap();
        tier
    }

    #[test]
    fn wire_deployment_answers_correctly() {
        let g = chord_ring(64);
        let tier = loaded_tier(&g, 2);
        let q: Vec<Query> = (0..40)
            .map(|i| Query::NeighborAggregation {
                node: n((i * 5) % 64),
                hops: 2,
                label: None,
            })
            .collect();
        let report = run_cluster(
            tier,
            None,
            None,
            &q,
            &LiveConfig::paper_default(3, RoutingKind::Hash),
            TransportKind::InProc,
            Preset::Local,
        )
        .unwrap();
        assert_eq!(report.results.len(), q.len());
        for (query, result) in q.iter().zip(&report.results) {
            let truth = h_hop_neighborhood(&g, query.anchor(), 2, Direction::Both).len() as u64;
            assert_eq!(*result, QueryResult::Count(truth));
        }
        assert!(report.throughput_qps() > 0.0);
    }
}
