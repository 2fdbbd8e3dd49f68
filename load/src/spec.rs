//! The fixed deployment and the four workloads. Everything here is set in
//! code; nothing is read from the environment (see `main::refuse_env`).

use grouting_core::route::RoutingKind;
use grouting_core::storage::NetworkModel;
use grouting_core::workload::QueryMix;

/// Query processors P.
pub const PROCESSORS: usize = 4;
/// Storage servers M.
pub const STORAGE_SERVERS: usize = 2;
/// WebGraph profile scale (1.0 = 105,897 nodes / 3.74 M edges).
pub const GRAPH_SCALE: f64 = 1.0;
/// Fresh-cluster repetitions per run; every reported value is their median.
pub const REPETITIONS: usize = 3;
/// A latency above this (or a failed query) misses the service-level
/// objective `client.slo_miss_frac` and `client.max_rate_ok` are judged by.
pub const SLO_NS: u64 = 10_000_000;
/// A reference answer is computed for every query whose index in the
/// generated stream is a multiple of this (and for every query of a stream
/// no longer than `REFERENCE_ALL_BELOW`).
pub const REFERENCE_EVERY: usize = 8;
pub const REFERENCE_ALL_BELOW: usize = 1024;
/// Queries replayed by the isolated layer pass.
pub const LAYER_PASS_QUERIES: usize = 2000;

/// How the client offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadLoop {
    /// `in_flight` callers that each wait for their reply.
    Closed { in_flight: usize },
    /// Independent users: one request every `1/rate` seconds regardless of
    /// replies, after a closed-loop warm-up.
    Open { rate: f64 },
}

/// One workload: its inputs, the cluster knobs that differ from the fixed
/// deployment, and how load is offered.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub hotspots: usize,
    pub per_hotspot: usize,
    /// Hotspot radius r (0 = the query node is the hotspot centre itself,
    /// i.e. uniform anchors with no locality).
    pub radius: u32,
    pub mix: QueryMix,
    pub routing: RoutingKind,
    pub cache_bytes: usize,
    /// Emulated processor↔storage network, charged at the storage endpoints.
    pub net: NetworkModel,
    /// Completions excluded before the measured window opens.
    pub warm: usize,
    /// Completions measured per repetition of a run of `run_seconds`
    /// (`BENCHMARK.json`; `--seconds` scales the count in proportion). The
    /// window is counted, so every commit measures the same queries against
    /// caches in the same state; it is sized to take about a third of
    /// `run_seconds` at the speed of the commit that added the benchmark.
    pub measure: usize,
    pub load: LoadLoop,
}

/// Traversal depth h of every generated query.
pub const HOPS: u32 = 2;

/// The decoupled tier of gRouting-E: a 200 µs exchange on a 10 Gbps link.
const REMOTE_TIER: NetworkModel = NetworkModel {
    rtt_ns: 200_000,
    gbps: 10.0,
};

fn local() -> NetworkModel {
    NetworkModel::local()
}

/// The workloads, under the names later issues cite. The reason each one
/// exists is the `why` of `BENCHMARK.json` and the table in `README.md`.
pub fn workloads() -> [Workload; 4] {
    [
        Workload {
            name: "hotspot_local",
            hotspots: 3000,
            per_hotspot: 10,
            radius: 2,
            mix: QueryMix::uniform(),
            routing: RoutingKind::Embed,
            cache_bytes: 4 << 20,
            net: local(),
            warm: 5000,
            measure: 10_000,
            load: LoadLoop::Closed { in_flight: 16 },
        },
        Workload {
            name: "hotspot_remote",
            hotspots: 1000,
            per_hotspot: 10,
            radius: 2,
            mix: QueryMix::uniform(),
            routing: RoutingKind::Embed,
            cache_bytes: 4 << 20,
            net: REMOTE_TIER,
            warm: 2000,
            measure: 4000,
            load: LoadLoop::Open { rate: 800.0 },
        },
        Workload {
            name: "resident_hot",
            hotspots: 1000,
            per_hotspot: 3,
            radius: 2,
            mix: QueryMix::uniform(),
            routing: RoutingKind::Embed,
            cache_bytes: 64 << 20,
            net: local(),
            // Five passes over the 3000 distinct queries: with stealing on,
            // every processor has to have met the whole working set.
            warm: 15_000,
            measure: 50_000,
            load: LoadLoop::Closed { in_flight: 16 },
        },
        Workload {
            name: "scatter_cold",
            hotspots: 10_000,
            per_hotspot: 1,
            radius: 0,
            mix: QueryMix::aggregation_only(),
            routing: RoutingKind::Hash,
            cache_bytes: 256 << 10,
            net: local(),
            warm: 1000,
            measure: 3667,
            load: LoadLoop::Closed { in_flight: 16 },
        },
    ]
}

pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}
