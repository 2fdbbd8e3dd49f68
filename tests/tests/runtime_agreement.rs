//! The two runtimes (simulator, in-proc wire cluster) must agree on
//! everything that is not timing: query results and total access counts.

use grouting_core::prelude::*;
use grouting_core::wire::{launch_cluster, ClusterConfig, ClusterRun};

/// The cluster's shape on the in-proc fabric, serial like the simulator
/// (`overlap: 1`), with nothing read from the environment.
fn run_inproc(cluster: &GRouting, queries: &[Query]) -> ClusterRun {
    let engine = EngineConfig {
        overlap: 1,
        ..*cluster.engine()
    };
    let config = ClusterConfig::new(engine, TransportKind::InProc);
    launch_cluster(&cluster.assets.engine_assets(), queries, &config).expect("in-proc run")
}

#[test]
fn sim_and_inproc_cluster_agree_on_access_totals_per_processor_count() {
    let cluster = GRouting::builder()
        .graph(DatasetProfile::tiny(ProfileName::WebGraph).generate())
        .storage_servers(2)
        .processors(1)
        .routing(RoutingKind::Hash)
        .cache_capacity(32 << 20)
        .build();
    let queries = cluster.hotspot_workload(5, 5, 2, 2, 21);

    // With one processor there is no scheduling nondeterminism: the two
    // runtimes execute identical access sequences.
    let sim = cluster.simulate(&queries);
    let inproc = run_inproc(&cluster, &queries);
    assert_eq!(sim.cache_hits, inproc.snapshot.cache_hits);
    assert_eq!(sim.cache_misses, inproc.snapshot.cache_misses);
}

#[test]
fn inproc_cluster_results_match_across_routings() {
    // Results must be routing-independent in real time too.
    let cluster = GRouting::builder()
        .graph(DatasetProfile::tiny(ProfileName::Memetracker).generate())
        .storage_servers(2)
        .processors(4)
        .routing(RoutingKind::Hash)
        .cache_capacity(16 << 20)
        .build();
    let queries = cluster.hotspot_workload(5, 5, 2, 2, 22);
    let baseline = run_inproc(&cluster, &queries);
    for routing in [
        RoutingKind::NextReady,
        RoutingKind::Landmark,
        RoutingKind::Embed,
    ] {
        let other = GRouting::builder()
            .graph(DatasetProfile::tiny(ProfileName::Memetracker).generate())
            .storage_servers(2)
            .processors(4)
            .routing(routing)
            .cache_capacity(16 << 20)
            .build();
        let r = run_inproc(&other, &queries);
        assert_eq!(r.results, baseline.results, "{routing}");
    }
}

#[test]
fn inproc_cluster_uses_all_processors() {
    let cluster = GRouting::builder()
        .graph(DatasetProfile::tiny(ProfileName::WebGraph).generate())
        .storage_servers(2)
        .processors(4)
        .routing(RoutingKind::NextReady)
        .cache_capacity(16 << 20)
        .build();
    let queries = cluster.hotspot_workload(10, 10, 2, 2, 23);
    let inproc = run_inproc(&cluster, &queries);
    let counts = inproc.timeline.per_processor_counts(4);
    let active = counts.iter().filter(|&&c| c > 0).count();
    assert!(active >= 3, "only {active} processors did work: {counts:?}");
}
