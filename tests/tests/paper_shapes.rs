//! Shape assertions: the paper's qualitative results must hold at test
//! scale. These are the regression guards for the whole reproduction —
//! if a change breaks one of these, a figure has stopped reproducing.

use grouting_core::graph::codec::AdjacencyRecord;
use grouting_core::prelude::*;
use grouting_core::sim::{simulate, SimConfig};

fn cluster() -> GRouting {
    GRouting::builder()
        .graph(DatasetProfile::at_scale(ProfileName::WebGraph, 0.1).generate())
        .storage_servers(4)
        .processors(7)
        .cache_capacity(4 << 20)
        .build()
}

/// Caches hold 1/12 of what the whole graph's records occupy in a cache.
fn paper_cfg(cluster: &GRouting, p: usize, routing: RoutingKind) -> SimConfig {
    let g = &cluster.assets.graph;
    let resident: usize = g
        .nodes()
        .map(|v| AdjacencyRecord::from_graph(g, v).unwrap().resident_len())
        .sum();
    let mut cfg = SimConfig::paper_default(p, routing);
    cfg.engine.cache_capacity = (resident / 12).max(1 << 20);
    cfg
}

#[test]
fn smart_routing_beats_baselines_on_cache_hits() {
    // The paper's central claim (Figures 7/14): landmark and embed routing
    // capture topology-aware locality that hash and next-ready cannot.
    let c = cluster();
    let queries = c.hotspot_workload(40, 10, 2, 2, 77);
    let hit = |routing| simulate(&c.assets, &queries, &paper_cfg(&c, 7, routing)).hit_rate();
    let next_ready = hit(RoutingKind::NextReady);
    let hash = hit(RoutingKind::Hash);
    let landmark = hit(RoutingKind::Landmark);
    let embed = hit(RoutingKind::Embed);
    assert!(
        landmark > 1.5 * hash,
        "landmark {landmark:.3} vs hash {hash:.3}"
    );
    assert!(embed > 1.5 * hash, "embed {embed:.3} vs hash {hash:.3}");
    assert!(
        hash >= next_ready * 0.9,
        "hash {hash:.3} vs next-ready {next_ready:.3}"
    );
}

#[test]
fn smart_routing_sustains_hits_as_processors_grow() {
    // Figure 8(b): baselines shed hits as P grows; smart routing keeps most
    // of the P=1 level.
    let c = cluster();
    let queries = c.hotspot_workload(40, 10, 2, 2, 78);
    let hit = |p, routing| simulate(&c.assets, &queries, &paper_cfg(&c, p, routing)).hit_rate();
    let embed_1 = hit(1, RoutingKind::Embed);
    let embed_7 = hit(7, RoutingKind::Embed);
    let next_1 = hit(1, RoutingKind::NextReady);
    let next_7 = hit(7, RoutingKind::NextReady);
    // Embed retains more of its single-processor hit rate than next-ready.
    let embed_retention = embed_7 / embed_1.max(1e-9);
    let next_retention = next_7 / next_1.max(1e-9);
    assert!(
        embed_retention > 1.5 * next_retention,
        "embed retains {embed_retention:.2}, next-ready {next_retention:.2}"
    );
}

#[test]
fn throughput_scales_with_processors_for_smart_routing() {
    // Figure 8(a): embed throughput grows with processors; next-ready
    // saturates early.
    let c = cluster();
    let queries = c.hotspot_workload(40, 10, 2, 2, 79);
    let qps =
        |p, routing| simulate(&c.assets, &queries, &paper_cfg(&c, p, routing)).throughput_qps();
    let embed_gain = qps(7, RoutingKind::Embed) / qps(1, RoutingKind::Embed);
    let next_gain = qps(7, RoutingKind::NextReady) / qps(1, RoutingKind::NextReady);
    assert!(embed_gain > 1.2, "embed gain {embed_gain:.2}");
    assert!(
        embed_gain > next_gain,
        "embed {embed_gain:.2} vs next-ready {next_gain:.2}"
    );
}

#[test]
fn storage_tier_saturates_but_never_hurts() {
    // Figure 8(c): more storage servers help until the processors become
    // the bottleneck.
    let c = cluster();
    let queries = c.hotspot_workload(30, 10, 2, 2, 80);
    let mut prev = 0.0;
    for s in [1usize, 2, 4] {
        let assets = c.assets.with_storage_servers(s);
        let r = simulate(&assets, &queries, &paper_cfg(&c, 4, RoutingKind::NoCache));
        let qps = r.throughput_qps();
        assert!(
            qps >= prev * 0.95,
            "throughput regressed at {s} servers: {qps:.0} vs {prev:.0}"
        );
        prev = qps;
    }
}

#[test]
fn no_cache_is_the_floor() {
    // Every caching configuration must beat the no-cache control.
    let c = cluster();
    let queries = c.hotspot_workload(30, 10, 2, 2, 81);
    let nc = simulate(&c.assets, &queries, &paper_cfg(&c, 7, RoutingKind::NoCache));
    for routing in [RoutingKind::Hash, RoutingKind::Landmark, RoutingKind::Embed] {
        let r = simulate(&c.assets, &queries, &paper_cfg(&c, 7, routing));
        assert!(
            r.mean_response_ms() <= nc.mean_response_ms(),
            "{routing} response {:.2} vs no-cache {:.2}",
            r.mean_response_ms(),
            nc.mean_response_ms()
        );
    }
}

#[test]
fn stealing_rescues_skewed_workloads() {
    // Requirement 2: one hot node must not serialise the cluster.
    let c = cluster();
    let anchor = c.graph().nodes_by_degree_desc()[0];
    let skew: Vec<Query> = (0..100)
        .map(|_| Query::NeighborAggregation {
            node: anchor,
            hops: 2,
            label: None,
        })
        .collect();
    let mut no_stealing = paper_cfg(&c, 7, RoutingKind::Hash);
    no_stealing.engine.stealing = false;
    let with = simulate(&c.assets, &skew, &paper_cfg(&c, 7, RoutingKind::Hash));
    let without = simulate(&c.assets, &skew, &no_stealing);
    assert!(with.stolen > 0);
    assert!(
        with.throughput_qps() > 2.0 * without.throughput_qps(),
        "stealing {:.0} qps vs no stealing {:.0} qps",
        with.throughput_qps(),
        without.throughput_qps()
    );
}

#[test]
fn ethernet_is_slower_than_infiniband() {
    // The gRouting vs gRouting-E gap of Figure 7.
    let c = cluster();
    let queries = c.hotspot_workload(30, 10, 2, 2, 82);
    let ib = simulate(&c.assets, &queries, &paper_cfg(&c, 7, RoutingKind::Embed));
    let eth = simulate(
        &c.assets,
        &queries,
        &SimConfig {
            cost: grouting_core::sim::CostModel::ethernet(),
            ..paper_cfg(&c, 7, RoutingKind::Embed)
        },
    );
    assert!(
        ib.throughput_qps() > 1.5 * eth.throughput_qps(),
        "IB {:.0} vs Eth {:.0}",
        ib.throughput_qps(),
        eth.throughput_qps()
    );
}
