//! Pregel/Giraph-style BSP engine (the SEDGE stand-in).
//!
//! Vertex-centric, bulk-synchronous: queries execute as a sequence of
//! supersteps separated by global barriers. At superstep `k` every active
//! node is processed by the worker owning its partition; discovered
//! neighbours owned by *other* workers require cross-machine messages. The
//! per-superstep cost is
//!
//! ```text
//! barrier + max_w(active_w) · compute + cross_messages · message_cost
//! ```
//!
//! which captures the two coupled-architecture penalties the paper
//! exploits: heavyweight synchronisation even for tiny frontiers (an
//! h-step random walk pays h barriers to move one node!) and edge-cut-
//! proportional communication.

use grouting_graph::{CsrGraph, NodeId};
use grouting_metrics::Histogram;
use grouting_query::{Query, QueryResult};
use grouting_storage::Partitioner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::BaselineReport;
use crate::TablePartitioner;

/// BSP engine cost model and shape.
#[derive(Debug, Clone, Copy)]
pub struct BspConfig {
    /// Barrier + coordination overhead per superstep. Giraph-class systems
    /// pay tens of milliseconds here (job coordination, barrier sync).
    pub superstep_overhead_ns: u64,
    /// Per-node processing cost on a worker.
    pub compute_per_node_ns: u64,
    /// Per-message cost for cross-worker edges.
    pub message_ns: u64,
}

impl Default for BspConfig {
    fn default() -> Self {
        // Calibrated to the bench scale: graphs ship at ~1/1000 of the
        // paper's sizes, so per-query work is ~1000x smaller than on the
        // authors' testbed. Keeping Giraph's real ~100 ms-class barriers
        // would swamp everything; a 2 ms barrier preserves the paper's
        // barrier-to-work *ratio* (and hence Figure 7's relative gaps).
        Self {
            superstep_overhead_ns: 3_000_000,
            compute_per_node_ns: 1_000,
            message_ns: 1_500,
        }
    }
}

/// Runs the query stream through the BSP engine sequentially (queries are
/// jobs; the whole cluster serves one at a time, as in Giraph).
///
/// Returns the report plus the query results (used by tests to check the
/// engine agrees with the decoupled executor).
pub fn run_bsp(
    g: &CsrGraph,
    partitioner: &TablePartitioner,
    queries: &[Query],
    config: &BspConfig,
    partition_ns: u64,
) -> (BaselineReport, Vec<QueryResult>) {
    let workers = partitioner.parts();
    let mut latency = Histogram::new();
    let mut results = Vec::with_capacity(queries.len());
    let mut makespan = 0u64;
    let mut rounds = 0u64;
    let mut messages = 0u64;

    for q in queries {
        let run = match q {
            Query::NeighborAggregation { node, hops, .. } => bsp_bfs(
                g,
                partitioner,
                workers,
                *node,
                *hops,
                config,
                BfsGoal::Count,
            ),
            Query::RandomWalk {
                node,
                steps,
                restart_prob,
                seed,
            } => bsp_walk(g, partitioner, *node, *steps, *restart_prob, *seed, config),
            Query::Reachability {
                source,
                target,
                hops,
            } => bsp_bfs(
                g,
                partitioner,
                workers,
                *source,
                *hops,
                config,
                BfsGoal::Reach(*target, None),
            ),
            Query::ConstrainedReachability {
                source,
                target,
                hops,
                via_label,
            } => bsp_bfs(
                g,
                partitioner,
                workers,
                *source,
                *hops,
                config,
                BfsGoal::Reach(*target, Some(*via_label)),
            ),
        };
        latency.record(run.time_ns);
        makespan += run.time_ns;
        rounds += run.rounds;
        messages += run.messages;
        results.push(run.result);
    }

    (
        BaselineReport {
            latency,
            makespan_ns: makespan,
            rounds,
            messages,
            partition_ns,
        },
        results,
    )
}

enum BfsGoal {
    Count,
    /// Reach the target, optionally only through labelled intermediates.
    Reach(NodeId, Option<grouting_graph::NodeLabelId>),
}

struct RunOutcome {
    time_ns: u64,
    rounds: u64,
    messages: u64,
    result: QueryResult,
}

/// Frontier BFS as supersteps over the bi-directed view (aggregation) or
/// directed out-edges (reachability, which BSP cannot run backwards).
fn bsp_bfs(
    g: &CsrGraph,
    partitioner: &TablePartitioner,
    workers: usize,
    start: NodeId,
    hops: u32,
    config: &BspConfig,
    goal: BfsGoal,
) -> RunOutcome {
    let directed_only = matches!(goal, BfsGoal::Reach(..));
    let mut time = 0u64;
    let mut rounds = 0u64;
    let mut messages = 0u64;
    let mut visited = std::collections::HashSet::new();
    let mut frontier: Vec<NodeId> = Vec::new();
    let mut reached = false;
    let mut count = 0u64;

    if g.contains(start) {
        visited.insert(start);
        frontier.push(start);
    }
    if let BfsGoal::Reach(t, _) = goal {
        if t == start {
            reached = true;
        }
    }

    for _ in 0..hops {
        if frontier.is_empty() || reached {
            break;
        }
        rounds += 1;
        let mut active_per_worker = vec![0u64; workers];
        let mut cross = 0u64;
        let mut next = Vec::new();
        for &v in &frontier {
            // Label-constrained search only expands through labelled
            // intermediates (endpoints exempt).
            if let BfsGoal::Reach(t, Some(l)) = goal {
                if v != start && v != t && g.node_label(v) != Some(l) {
                    continue;
                }
            }
            let wv = partitioner.assign(v);
            active_per_worker[wv] += 1;
            let neighbors: Vec<NodeId> = if directed_only {
                g.out_neighbors(v).collect()
            } else {
                g.all_neighbors(v).collect()
            };
            for w in neighbors {
                if partitioner.assign(w) != wv {
                    cross += 1;
                }
                if visited.insert(w) {
                    count += 1;
                    next.push(w);
                    if let BfsGoal::Reach(t, _) = goal {
                        if w == t {
                            reached = true;
                        }
                    }
                }
            }
        }
        let max_active = active_per_worker.iter().copied().max().unwrap_or(0);
        time += config.superstep_overhead_ns
            + max_active * config.compute_per_node_ns
            + cross * config.message_ns;
        messages += cross;
        frontier = next;
    }

    RunOutcome {
        time_ns: time.max(config.superstep_overhead_ns),
        rounds,
        messages,
        result: match goal {
            BfsGoal::Count => QueryResult::Count(count),
            BfsGoal::Reach(..) => QueryResult::Reachable(reached),
        },
    }
}

/// A random walk in BSP: one superstep per step — the worst case for
/// barrier-heavy engines.
fn bsp_walk(
    g: &CsrGraph,
    partitioner: &TablePartitioner,
    start: NodeId,
    steps: u32,
    restart_prob: f64,
    seed: u64,
    config: &BspConfig,
) -> RunOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = start;
    let mut visited = std::collections::HashSet::from([start]);
    let mut time = 0u64;
    let mut rounds = 0u64;
    let mut messages = 0u64;

    for _ in 0..steps {
        rounds += 1;
        time += config.superstep_overhead_ns + config.compute_per_node_ns;
        if rng.gen::<f64>() < restart_prob {
            current = start;
            continue;
        }
        if !g.contains(current) {
            break;
        }
        let outs = g.out_slice(current);
        let next = if !outs.is_empty() {
            NodeId::new(outs[rng.gen_range(0..outs.len())])
        } else {
            let ins = g.in_slice(current);
            if ins.is_empty() {
                start
            } else {
                NodeId::new(ins[rng.gen_range(0..ins.len())])
            }
        };
        if partitioner.assign(next) != partitioner.assign(current) {
            messages += 1;
            time += config.message_ns;
        }
        current = next;
        visited.insert(current);
    }

    RunOutcome {
        time_ns: time,
        rounds,
        messages,
        result: QueryResult::Walk {
            end: current,
            visited: visited.len() as u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multilevel::{partition, MultilevelConfig};
    use grouting_graph::traversal::{h_hop_neighborhood, Direction};
    use grouting_graph::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn ring(k: u32) -> CsrGraph {
        let mut b = GraphBuilder::new();
        for i in 0..k {
            b.add_edge(n(i), n((i + 1) % k));
        }
        b.build().unwrap()
    }

    #[test]
    fn aggregation_matches_ground_truth() {
        let g = ring(32);
        let table = partition(&g, &MultilevelConfig::new(4));
        let queries: Vec<Query> = (0..8)
            .map(|i| Query::NeighborAggregation {
                node: n(i * 4),
                hops: 2,
                label: None,
            })
            .collect();
        let (_, results) = run_bsp(&g, &table, &queries, &BspConfig::default(), 0);
        for (q, r) in queries.iter().zip(&results) {
            let truth = h_hop_neighborhood(&g, q.anchor(), 2, Direction::Both).len() as u64;
            assert_eq!(*r, QueryResult::Count(truth));
        }
    }

    #[test]
    fn every_query_pays_barriers() {
        let g = ring(32);
        let table = partition(&g, &MultilevelConfig::new(4));
        let queries = vec![Query::RandomWalk {
            node: n(0),
            steps: 3,
            restart_prob: 0.0,
            seed: 1,
        }];
        let cfg = BspConfig::default();
        let (report, _) = run_bsp(&g, &table, &queries, &cfg, 0);
        // 3 steps = 3 barriers minimum.
        assert!(report.makespan_ns >= 3 * cfg.superstep_overhead_ns);
        assert_eq!(report.rounds, 3);
    }

    #[test]
    fn reachability_works() {
        let g = ring(16);
        let table = partition(&g, &MultilevelConfig::new(2));
        let queries = vec![
            Query::Reachability {
                source: n(0),
                target: n(3),
                hops: 3,
            },
            Query::Reachability {
                source: n(0),
                target: n(3),
                hops: 2,
            },
        ];
        let (_, results) = run_bsp(&g, &table, &queries, &BspConfig::default(), 0);
        assert_eq!(results[0], QueryResult::Reachable(true));
        assert_eq!(results[1], QueryResult::Reachable(false));
    }

    #[test]
    fn better_partitions_mean_fewer_messages() {
        let g = ring(64);
        let good = partition(&g, &MultilevelConfig::new(4));
        // Worst case: round-robin scatter.
        let bad_table: Vec<u32> = (0..64u32).map(|i| i % 4).collect();
        let bad = TablePartitioner::new(bad_table, 4);
        let queries: Vec<Query> = (0..8)
            .map(|i| Query::NeighborAggregation {
                node: n(i * 8),
                hops: 2,
                label: None,
            })
            .collect();
        let (rg, _) = run_bsp(&g, &good, &queries, &BspConfig::default(), 0);
        let (rb, _) = run_bsp(&g, &bad, &queries, &BspConfig::default(), 0);
        assert!(
            rg.messages < rb.messages,
            "good {} vs bad {}",
            rg.messages,
            rb.messages
        );
    }

    #[test]
    fn walk_is_deterministic() {
        let g = ring(16);
        let table = partition(&g, &MultilevelConfig::new(2));
        let q = vec![Query::RandomWalk {
            node: n(0),
            steps: 8,
            restart_prob: 0.2,
            seed: 42,
        }];
        let (_, r1) = run_bsp(&g, &table, &q, &BspConfig::default(), 0);
        let (_, r2) = run_bsp(&g, &table, &q, &BspConfig::default(), 0);
        assert_eq!(r1, r2);
    }
}
