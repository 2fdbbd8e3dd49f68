//! Figure 7: throughput comparison with distributed graph systems.
//!
//! gRouting (Infiniband + embed routing, 1 router / 7 processors / 4
//! storage servers, *hash* partitioning) and gRouting-E (same over
//! Ethernet) versus the two coupled baselines on their 12-machine
//! configuration: SEDGE/Giraph (BSP over METIS-style multilevel edge-cut
//! partitions) and PowerGraph (GAS over greedy vertex-cut). The paper finds
//! gRouting-E 5–10× and gRouting 10–35× the baselines' throughput; the
//! partitioning-time column shows the offline cost the baselines pay on
//! top (SEDGE's repartitioning took ~1 hour on the real WebGraph).

use std::time::Instant;

use grouting_bench::{bench_assets, bench_sim_config, paper_workload, PAPER_PROCESSORS};
use grouting_core::baseline::multilevel::{partition, MultilevelConfig};
use grouting_core::baseline::vertexcut::greedy_vertex_cut;
use grouting_core::baseline::{run_bsp, run_gas, BspConfig, GasConfig};
use grouting_core::gen::ProfileName;
use grouting_core::metrics::TableReport;
use grouting_core::prelude::*;
use grouting_core::sim::{simulate, CostModel};

const COUPLED_MACHINES: usize = 12;

fn main() {
    let mut t = TableReport::new(
        "Figure 7: throughput (queries/second), 2-hop hotspot, 2-hop traversal",
        &[
            "dataset",
            "system",
            "throughput_qps",
            "vs_SEDGE",
            "partition_time_ms",
        ],
    );

    for name in [
        ProfileName::WebGraph,
        ProfileName::Memetracker,
        ProfileName::Freebase,
    ] {
        let assets = bench_assets(name);
        let queries = paper_workload(&assets, 2, 2);

        // SEDGE/Giraph: BSP over multilevel edge-cut partitions.
        let t0 = Instant::now();
        let ml = partition(&assets.graph, &MultilevelConfig::new(COUPLED_MACHINES));
        let ml_ms = t0.elapsed().as_millis() as u64;
        let (bsp_report, _) = run_bsp(
            &assets.graph,
            &ml,
            &queries,
            &BspConfig::default(),
            ml_ms * 1_000_000,
        );
        let sedge_qps = bsp_report.throughput_qps();

        // PowerGraph: GAS over greedy vertex-cut.
        let t1 = Instant::now();
        let vc = greedy_vertex_cut(&assets.graph, COUPLED_MACHINES);
        let vc_ms = t1.elapsed().as_millis() as u64;
        let (gas_report, _) = run_gas(
            &assets.graph,
            &vc,
            &queries,
            &GasConfig::default(),
            vc_ms * 1_000_000,
        );

        // gRouting-E: decoupled, hash partitioning, Ethernet.
        let eth = simulate(
            &assets,
            &queries,
            &grouting_core::sim::SimConfig {
                cost: CostModel::ethernet(),
                ..bench_sim_config(&assets, PAPER_PROCESSORS, RoutingKind::Embed)
            },
        );
        // gRouting: the same over Infiniband RDMA.
        let ib = simulate(
            &assets,
            &queries,
            &bench_sim_config(&assets, PAPER_PROCESSORS, RoutingKind::Embed),
        );

        for (system, qps, part_ms) in [
            ("SEDGE/Giraph", sedge_qps, ml_ms),
            ("PowerGraph", gas_report.throughput_qps(), vc_ms),
            ("gRouting-E", eth.throughput_qps(), 0),
            ("gRouting", ib.throughput_qps(), 0),
        ] {
            t.row(vec![
                name.as_str().into(),
                system.into(),
                qps.into(),
                (qps / sedge_qps.max(1e-9)).into(),
                part_ms.into(),
            ]);
        }
    }
    t.print();
    println!("(paper shape: gRouting-E 5-10x, gRouting 10-35x the coupled systems)");
}
