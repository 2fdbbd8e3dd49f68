//! Table 2: preprocessing times.
//!
//! The paper reports, on WebGraph: ~35 s per-landmark BFS, ~36 s landmark
//! embedding, ~1 s per-node embedding (both embedding stages
//! parallelisable). This bench measures the same three stages on the scaled
//! WebGraph profile, each timed by the stage itself. The landmark BFS runs
//! up to 64 landmarks per traversal and the node stage solves each distinct
//! nearest-landmark list once, so the per-unit columns are totals amortised
//! over all landmarks and all nodes, not the cost of one BFS or one solve.

use grouting_bench::bench_assets;
use grouting_core::gen::ProfileName;
use grouting_core::metrics::TableReport;

fn main() {
    let assets = bench_assets(ProfileName::WebGraph);
    let lm = &assets.landmarks;
    let n = assets.graph.node_count() as f64;

    let mut t = TableReport::new(
        "Table 2: preprocessing times, WebGraph profile",
        &["stage", "total_ms", "amortised"],
    );
    t.row(vec![
        "landmark BFS (all landmarks)".into(),
        (assets.timings.landmark_ns as f64 / 1e6).into(),
        format!(
            "{:.2} ms/landmark",
            assets.timings.landmark_ns as f64 / 1e6 / lm.len().max(1) as f64
        )
        .into(),
    ]);
    t.row(vec![
        "embed landmarks (simplex)".into(),
        (assets.timings.embed_landmarks_ns as f64 / 1e6).into(),
        format!(
            "{:.3} ms/landmark",
            assets.timings.embed_landmarks_ns as f64 / 1e6 / lm.len().max(1) as f64
        )
        .into(),
    ]);
    t.row(vec![
        "embed nodes (simplex per distinct list, parallel)".into(),
        (assets.timings.embed_nodes_ns as f64 / 1e6).into(),
        format!(
            "{:.4} ms/node (all nodes)",
            assets.timings.embed_nodes_ns as f64 / 1e6 / n
        )
        .into(),
    ]);
    t.print();
    println!(
        "(landmarks: {}, nodes: {}, edges: {})",
        lm.len(),
        assets.graph.node_count(),
        assets.graph.edge_count()
    );
}
