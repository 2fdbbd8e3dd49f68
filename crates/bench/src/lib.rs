//! Shared plumbing for the experiment benches.
//!
//! Every table and figure of the paper's evaluation has a bench target in
//! `benches/` (`harness = false`) that regenerates its rows/series; this
//! library holds the pieces they share: profile construction at the bench
//! scale, the paper's standard workload, and preconfigured cluster assets.
//!
//! Scale: benches default to `GROUTING_SCALE=1` (≈ 1/1000 of the paper's
//! graph sizes, 50 k–106 k nodes). Set the environment variable to trade
//! runtime for fidelity.

use std::sync::Arc;

use grouting_core::gen::{DatasetProfile, ProfileName};
use grouting_core::graph::codec::AdjacencyRecord;
use grouting_core::prelude::*;
use grouting_core::query::Query;
use grouting_core::sim::{SimAssets, SimConfig};
use grouting_core::workload::{hotspot_workload, QueryMix, WorkloadConfig};

/// The paper's default cluster shape: 1 router, 7 processors, 4 storage.
pub const PAPER_PROCESSORS: usize = 7;
/// Storage servers in the paper's default deployment.
pub const PAPER_STORAGE: usize = 4;
/// Queries per experiment (100 hotspots × 10).
pub const PAPER_HOTSPOTS: usize = 100;
/// Queries per hotspot.
pub const PAPER_PER_HOTSPOT: usize = 10;
/// Workload seed shared by all benches so series are comparable.
pub const WORKLOAD_SEED: u64 = 2024;

/// Builds the graph for `name` at the environment-controlled scale.
pub fn bench_graph(name: ProfileName) -> Arc<grouting_core::graph::CsrGraph> {
    Arc::new(DatasetProfile::from_env(name).generate())
}

/// Builds full preprocessing assets for a profile with the paper's defaults.
pub fn bench_assets(name: ProfileName) -> SimAssets {
    bench_assets_storage(name, PAPER_STORAGE)
}

/// Assets with an explicit storage-server count.
pub fn bench_assets_storage(name: ProfileName, storage: usize) -> SimAssets {
    SimAssets::paper_defaults(bench_graph(name), storage)
}

/// The paper's standard workload: r-hop hotspots, h-hop traversals,
/// uniform query mix.
pub fn paper_workload(assets: &SimAssets, radius: u32, hops: u32) -> Vec<Query> {
    hotspot_workload(
        &assets.graph,
        &WorkloadConfig {
            hotspots: PAPER_HOTSPOTS,
            per_hotspot: PAPER_PER_HOTSPOT,
            radius,
            hops,
            mix: QueryMix::uniform(),
            restart_prob: 0.15,
            seed: WORKLOAD_SEED,
        },
    )
    .queries
}

/// Paper-default simulation config with a cache sized for the bench scale.
///
/// The paper gives each processor 4 GB against a 60 GB graph (≈ 6.7 %);
/// benches size the cache relative to the scaled graph the same way unless
/// a sweep overrides it.
pub fn bench_sim_config(assets: &SimAssets, processors: usize, routing: RoutingKind) -> SimConfig {
    let mut cfg = SimConfig::paper_default(processors, routing);
    cfg.engine.cache_capacity = default_cache_bytes(assets);
    cfg
}

/// "Sufficient capacity" cache (the §4.3 setting where nothing is evicted).
pub fn ample_cache_config(
    _assets: &SimAssets,
    processors: usize,
    routing: RoutingKind,
) -> SimConfig {
    let mut cfg = SimConfig::paper_default(processors, routing);
    cfg.engine.cache_capacity = 1 << 30;
    cfg
}

/// Default bench cache: 1/12 (~8 %) of what the whole graph's records
/// occupy in a cache ([`AdjacencyRecord::resident_len`]), min 1 MiB.
pub fn default_cache_bytes(assets: &SimAssets) -> usize {
    let g = &assets.graph;
    let resident: usize = g
        .nodes()
        .map(|v| {
            AdjacencyRecord::from_graph(g, v)
                .expect("node in range")
                .resident_len()
        })
        .sum();
    (resident / 12).max(1 << 20)
}

/// Formats a byte count as a human-readable string.
pub fn human_bytes(b: u64) -> String {
    const K: f64 = 1024.0;
    let b = b as f64;
    if b >= K * K * K {
        format!("{:.1} GiB", b / K / K / K)
    } else if b >= K * K {
        format!("{:.1} MiB", b / K / K)
    } else if b >= K {
        format!("{:.1} KiB", b / K)
    } else {
        format!("{b:.0} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_bytes_formats() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.0 KiB");
        assert_eq!(human_bytes(3 << 20), "3.0 MiB");
        assert_eq!(human_bytes(5 << 30), "5.0 GiB");
    }
}
