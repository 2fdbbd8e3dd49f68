//! Table 1: graph datasets.
//!
//! Prints, per dataset, the paper's reported size next to this
//! reproduction's scaled synthetic profile and its measured statistics.
//! `adj_bytes` is the in-memory adjacency; `stored_bytes` is what the
//! storage tier holds for it — every node's encoded adjacency record plus
//! the log's per-entry header, loaded into a one-server tier.

use std::sync::Arc;

use grouting_bench::{bench_graph, human_bytes};
use grouting_core::gen::ProfileName;
use grouting_core::graph::stats::{mean_h_hop_size, GraphStats};
use grouting_core::metrics::TableReport;
use grouting_core::storage::{HashPartitioner, StorageTier};

fn main() {
    let mut t = TableReport::new(
        "Table 1: graph datasets (paper vs scaled profile)",
        &[
            "dataset",
            "paper_nodes",
            "paper_edges",
            "paper_size",
            "nodes",
            "edges",
            "adj_bytes",
            "stored_bytes",
            "max_deg",
            "mean_deg",
            "avg_2hop",
        ],
    );
    for name in ProfileName::ALL {
        let g = bench_graph(name);
        let s = GraphStats::compute(&g);
        let two_hop = mean_h_hop_size(&g, 2, 200);
        let tier = StorageTier::new(Arc::new(HashPartitioner::new(1)));
        tier.load_graph(&g).expect("records fit a segment");
        let stored: usize = tier.bytes_per_server().iter().sum();
        t.row(vec![
            name.as_str().into(),
            name.paper_nodes().into(),
            name.paper_edges().into(),
            human_bytes(name.paper_bytes()).into(),
            s.nodes.into(),
            s.edges.into(),
            human_bytes(s.adjacency_bytes as u64).into(),
            human_bytes(stored as u64).into(),
            s.max_degree.into(),
            s.mean_degree.into(),
            two_hop.into(),
        ]);
    }
    t.print();
}
