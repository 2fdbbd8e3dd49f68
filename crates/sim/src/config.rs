//! Simulation configuration: cluster shape and the virtual-time cost model.

use grouting_engine::EngineConfig;
use grouting_route::RoutingKind;
use grouting_storage::NetworkModel;

/// Virtual-time charges for every operation the cluster performs.
///
/// Defaults are calibrated to the paper's testbed: RAMCloud gets take
/// 5–10 µs over Infiniband RDMA (§4.1), per-node processing is on the order
/// of a microsecond (52 K-node 2-hop neighbourhoods answer in tens of
/// milliseconds, 367 K-node 3-hop ones in hundreds), and routing decisions
/// are sub-microsecond (O(P) table lookups).
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Network between processing and storage tiers.
    pub network: NetworkModel,
    /// Storage-server occupancy per get (serialises gets on one server).
    pub storage_service_ns: u64,
    /// Processor-side cache probe (charged per access when a cache exists).
    pub cache_probe_ns: u64,
    /// Cache maintenance on each miss-side insert (allocation, hash-map
    /// churn, eviction bookkeeping). This is the overhead that makes a
    /// too-small cache *worse* than no cache at all (Figure 9).
    pub cache_insert_ns: u64,
    /// Processor-side work per record processed (neighbour iteration,
    /// counting, label checks).
    pub compute_per_node_ns: u64,
    /// Router decision plus dispatch overhead per query.
    pub router_decision_ns: u64,
    /// Acknowledgement path from processor back to router.
    pub ack_ns: u64,
}

impl CostModel {
    /// The paper's default deployment: Infiniband RDMA.
    pub fn infiniband() -> Self {
        Self {
            network: NetworkModel::infiniband_rdma(),
            storage_service_ns: 1_000,
            cache_probe_ns: 150,
            cache_insert_ns: 700,
            compute_per_node_ns: 1_000,
            router_decision_ns: 700,
            ack_ns: 3_000,
        }
    }

    /// The `gRouting-E` deployment: 10 Gbps Ethernet.
    pub fn ethernet() -> Self {
        Self {
            network: NetworkModel::ethernet_10g(),
            ack_ns: 15_000,
            ..Self::infiniband()
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::infiniband()
    }
}

/// One simulated cluster run: the shared cluster shape plus the cost
/// model that prices it.
///
/// The simulator executes one query per processor at a time, so
/// [`EngineConfig::overlap`] is unused here.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Cluster shape: processors, routing, caches, α, load factor,
    /// stealing, admission window, seed.
    pub engine: EngineConfig,
    /// Cost model.
    pub cost: CostModel,
}

impl SimConfig {
    /// [`EngineConfig::paper_default`] on Infiniband.
    pub fn paper_default(processors: usize, routing: RoutingKind) -> Self {
        Self {
            engine: EngineConfig::paper_default(processors, routing),
            cost: CostModel::infiniband(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = CostModel::default();
        assert!(c.network.fetch_ns(64) >= 5_000);
        assert!(c.cache_probe_ns < c.compute_per_node_ns);
        let e = CostModel::ethernet();
        assert!(e.network.fetch_ns(64) > c.network.fetch_ns(64));
    }

    #[test]
    fn paper_default_shape() {
        let cfg = SimConfig::paper_default(7, RoutingKind::Embed);
        assert_eq!(cfg.engine.processors, 7);
        assert_eq!(cfg.engine.window(), 112);
        assert_eq!(cfg.engine.cache_capacity, 4 << 30);
        assert!(cfg.engine.stealing);
    }
}
