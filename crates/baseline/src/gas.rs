//! PowerGraph-style gather-apply-scatter engine (vertex-cut baseline).
//!
//! PowerGraph splits *edges* across machines and replicates nodes wherever
//! their edges live. Each iteration, every active node gathers partial
//! results from its replicas (one message per non-master replica), applies,
//! and scatters activation along its edges. Following the paper's port,
//! "only the required nodes are active at any point of time": the h-hop
//! frontier activates level by level. Iteration overhead is far lighter
//! than a Giraph barrier, but replica synchronisation charges per-replica
//! messages — the replication factor is the communication lever.

use grouting_graph::{CsrGraph, NodeId};
use grouting_metrics::Histogram;
use grouting_query::{Query, QueryResult};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::BaselineReport;
use crate::vertexcut::VertexCut;

/// GAS engine cost model.
#[derive(Debug, Clone, Copy)]
pub struct GasConfig {
    /// Per-iteration coordination overhead (lighter than a BSP barrier).
    pub iteration_overhead_ns: u64,
    /// Per-node apply cost.
    pub compute_per_node_ns: u64,
    /// Per-message cost for replica synchronisation and scatter.
    pub message_ns: u64,
}

impl Default for GasConfig {
    fn default() -> Self {
        // Calibrated to the bench scale like `BspConfig::default` — GAS
        // iterations are far lighter than Giraph barriers but not free.
        Self {
            iteration_overhead_ns: 1_200_000,
            compute_per_node_ns: 1_200,
            message_ns: 1_500,
        }
    }
}

/// Runs the query stream through the GAS engine (sequential jobs).
pub fn run_gas(
    g: &CsrGraph,
    cut: &VertexCut,
    queries: &[Query],
    config: &GasConfig,
    partition_ns: u64,
) -> (BaselineReport, Vec<QueryResult>) {
    let mut latency = Histogram::new();
    let mut results = Vec::with_capacity(queries.len());
    let mut makespan = 0u64;
    let mut rounds = 0u64;
    let mut messages = 0u64;

    for q in queries {
        let run = match q {
            Query::NeighborAggregation { node, hops, .. } => {
                gas_frontier(g, cut, *node, *hops, config, None, None)
            }
            Query::RandomWalk {
                node,
                steps,
                restart_prob,
                seed,
            } => gas_walk(g, cut, *node, *steps, *restart_prob, *seed, config),
            Query::Reachability {
                source,
                target,
                hops,
            } => gas_frontier(g, cut, *source, *hops, config, Some(*target), None),
            Query::ConstrainedReachability {
                source,
                target,
                hops,
                via_label,
            } => gas_frontier(
                g,
                cut,
                *source,
                *hops,
                config,
                Some(*target),
                Some(*via_label),
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

struct RunOutcome {
    time_ns: u64,
    rounds: u64,
    messages: u64,
    result: QueryResult,
}

fn replicas_of(cut: &VertexCut, v: NodeId) -> u64 {
    cut.replicas
        .get(v.index())
        .map(|r| r.len().max(1) as u64)
        .unwrap_or(1)
}

/// Frontier expansion with per-replica gather messages.
fn gas_frontier(
    g: &CsrGraph,
    cut: &VertexCut,
    start: NodeId,
    hops: u32,
    config: &GasConfig,
    target: Option<NodeId>,
    via_label: Option<grouting_graph::NodeLabelId>,
) -> RunOutcome {
    let directed_only = target.is_some();
    let mut time = 0u64;
    let mut rounds = 0u64;
    let mut messages = 0u64;
    let mut visited = std::collections::HashSet::new();
    let mut frontier = Vec::new();
    let mut count = 0u64;
    let mut reached = target == Some(start);

    if g.contains(start) {
        visited.insert(start);
        frontier.push(start);
    }

    for _ in 0..hops {
        if frontier.is_empty() || reached {
            break;
        }
        rounds += 1;
        let mut active_per_machine = vec![0u64; cut.parts];
        let mut round_messages = 0u64;
        let mut next = Vec::new();
        for &v in &frontier {
            // Label-constrained search only expands labelled intermediates.
            if let Some(l) = via_label {
                if v != start && target != Some(v) && g.node_label(v) != Some(l) {
                    continue;
                }
            }
            active_per_machine[cut.master(v)] += 1;
            // Gather: one message per non-master replica, twice (request +
            // response).
            round_messages += (replicas_of(cut, v) - 1) * 2;
            let neighbors: Vec<NodeId> = if directed_only {
                g.out_neighbors(v).collect()
            } else {
                g.all_neighbors(v).collect()
            };
            for w in neighbors {
                if visited.insert(w) {
                    count += 1;
                    next.push(w);
                    if target == Some(w) {
                        reached = true;
                    }
                }
            }
        }
        let max_active = active_per_machine.iter().copied().max().unwrap_or(0);
        time += config.iteration_overhead_ns
            + max_active * config.compute_per_node_ns
            + round_messages * config.message_ns;
        messages += round_messages;
        frontier = next;
    }

    RunOutcome {
        time_ns: time.max(config.iteration_overhead_ns),
        rounds,
        messages,
        result: match target {
            None => QueryResult::Count(count),
            Some(_) => QueryResult::Reachable(reached),
        },
    }
}

fn gas_walk(
    g: &CsrGraph,
    cut: &VertexCut,
    start: NodeId,
    steps: u32,
    restart_prob: f64,
    seed: u64,
    config: &GasConfig,
) -> RunOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = start;
    let mut visited = std::collections::HashSet::from([start]);
    let mut time = 0u64;
    let mut messages = 0u64;

    for _ in 0..steps {
        time += config.iteration_overhead_ns + config.compute_per_node_ns;
        let sync = (replicas_of(cut, current) - 1) * 2;
        messages += sync;
        time += sync * config.message_ns;
        if rng.gen::<f64>() < restart_prob {
            current = start;
            continue;
        }
        if !g.contains(current) {
            break;
        }
        let outs = g.out_slice(current);
        current = if !outs.is_empty() {
            NodeId::new(outs[rng.gen_range(0..outs.len())])
        } else {
            let ins = g.in_slice(current);
            if ins.is_empty() {
                start
            } else {
                NodeId::new(ins[rng.gen_range(0..ins.len())])
            }
        };
        visited.insert(current);
    }

    RunOutcome {
        time_ns: time,
        rounds: steps as u64,
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
    use crate::vertexcut::greedy_vertex_cut;
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
        let cut = greedy_vertex_cut(&g, 4);
        let queries: Vec<Query> = (0..8)
            .map(|i| Query::NeighborAggregation {
                node: n(i * 4),
                hops: 2,
                label: None,
            })
            .collect();
        let (_, results) = run_gas(&g, &cut, &queries, &GasConfig::default(), 0);
        for (q, r) in queries.iter().zip(&results) {
            let truth = h_hop_neighborhood(&g, q.anchor(), 2, Direction::Both).len() as u64;
            assert_eq!(*r, QueryResult::Count(truth));
        }
    }

    #[test]
    fn reachability_verdicts() {
        let g = ring(16);
        let cut = greedy_vertex_cut(&g, 2);
        let (_, results) = run_gas(
            &g,
            &cut,
            &[
                Query::Reachability {
                    source: n(0),
                    target: n(2),
                    hops: 2,
                },
                Query::Reachability {
                    source: n(2),
                    target: n(0),
                    hops: 3,
                },
            ],
            &GasConfig::default(),
            0,
        );
        assert_eq!(results[0], QueryResult::Reachable(true));
        assert_eq!(results[1], QueryResult::Reachable(false));
    }

    #[test]
    fn replication_drives_messages() {
        let g = ring(32);
        let cut2 = greedy_vertex_cut(&g, 2);
        let cut8 = greedy_vertex_cut(&g, 8);
        let queries: Vec<Query> = (0..8)
            .map(|i| Query::NeighborAggregation {
                node: n(i * 4),
                hops: 2,
                label: None,
            })
            .collect();
        let (r2, _) = run_gas(&g, &cut2, &queries, &GasConfig::default(), 0);
        let (r8, _) = run_gas(&g, &cut8, &queries, &GasConfig::default(), 0);
        // More machines ⇒ higher replication factor ⇒ more sync messages.
        assert!(
            r8.messages >= r2.messages,
            "8 machines {} vs 2 machines {}",
            r8.messages,
            r2.messages
        );
    }

    #[test]
    fn gas_iterations_cheaper_than_bsp_barriers() {
        let gas = GasConfig::default();
        let bsp = crate::bsp::BspConfig::default();
        assert!(gas.iteration_overhead_ns < bsp.superstep_overhead_ns);
    }
}
