//! The r-hop hotspot, h-hop traversal workload generator.

use grouting_graph::traversal::{bfs_within, Direction};
use grouting_graph::{CsrGraph, NodeId};
use grouting_query::Query;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::QueryMix;

/// Parameters for a hotspot workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of hotspot centres (paper: 100).
    pub hotspots: usize,
    /// Queries drawn per hotspot (paper: 10).
    pub per_hotspot: usize,
    /// Hotspot radius r: query nodes lie within r hops of the centre.
    pub radius: u32,
    /// Traversal depth h of each query.
    pub hops: u32,
    /// Mixture over the three query kinds.
    pub mix: QueryMix,
    /// Restart probability for random-walk queries.
    pub restart_prob: f64,
    /// Workload seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// The paper's default: 100 hotspots × 10 queries, r = 2, h = 2,
    /// uniform mix.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            hotspots: 100,
            per_hotspot: 10,
            radius: 2,
            hops: 2,
            mix: QueryMix::uniform(),
            restart_prob: 0.15,
            seed,
        }
    }
}

/// A generated workload: queries grouped by hotspot, sent in order.
#[derive(Debug, Clone)]
pub struct HotspotWorkload {
    /// The hotspot centres, in group order.
    pub centers: Vec<NodeId>,
    /// All queries; group `i` occupies
    /// `queries[i * per_hotspot .. (i+1) * per_hotspot]`.
    pub queries: Vec<Query>,
    /// Queries per hotspot group.
    pub per_hotspot: usize,
}

impl HotspotWorkload {
    /// Total query count.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Generates the hotspot workload of §4.1.
///
/// # Panics
///
/// Panics if the graph has no non-isolated nodes to centre hotspots on, or
/// if `per_hotspot == 0` / `hotspots == 0`.
pub fn hotspot_workload(g: &CsrGraph, config: &WorkloadConfig) -> HotspotWorkload {
    assert!(config.hotspots > 0, "zero hotspots");
    assert!(config.per_hotspot > 0, "zero queries per hotspot");
    let mut rng = StdRng::seed_from_u64(config.seed);

    let candidates: Vec<NodeId> = g.nodes().filter(|&v| g.degree(v) > 0).collect();
    assert!(
        !candidates.is_empty(),
        "graph has no connected nodes for hotspots"
    );

    let mut centers = Vec::with_capacity(config.hotspots);
    let mut queries = Vec::with_capacity(config.hotspots * config.per_hotspot);

    for _ in 0..config.hotspots {
        let center = candidates[rng.gen_range(0..candidates.len())];
        centers.push(center);
        // The r-hop ball around the centre; query nodes are drawn from it,
        // so any two queries of this hotspot are within 2r of each other.
        let ball: Vec<NodeId> = bfs_within(g, center, config.radius, Direction::Both)
            .into_iter()
            .map(|(v, _)| v)
            .collect();
        for _ in 0..config.per_hotspot {
            let node = ball[rng.gen_range(0..ball.len())];
            queries.push(draw_query(node, &ball, config, &mut rng));
        }
    }

    HotspotWorkload {
        centers,
        queries,
        per_hotspot: config.per_hotspot,
    }
}

fn draw_query(node: NodeId, ball: &[NodeId], config: &WorkloadConfig, rng: &mut StdRng) -> Query {
    let total = config.mix.total();
    let u: f64 = rng.gen::<f64>() * total;
    if u < config.mix.aggregation {
        Query::NeighborAggregation {
            node,
            hops: config.hops,
            label: None,
        }
    } else if u < config.mix.aggregation + config.mix.random_walk {
        Query::RandomWalk {
            node,
            steps: config.hops,
            restart_prob: config.restart_prob,
            seed: rng.gen(),
        }
    } else {
        // Reachability within the hotspot: target drawn from the same ball.
        let target = ball[rng.gen_range(0..ball.len())];
        Query::Reachability {
            source: node,
            target,
            hops: config.hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_graph::traversal::hop_distance;
    use grouting_graph::GraphBuilder;

    /// `(hotspot_index, query)` pairs in send order.
    fn iter_grouped(w: &HotspotWorkload) -> impl Iterator<Item = (usize, &Query)> + '_ {
        w.queries
            .iter()
            .enumerate()
            .map(|(i, q)| (i / w.per_hotspot.max(1), q))
    }

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

    fn config(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            hotspots: 10,
            per_hotspot: 5,
            radius: 2,
            hops: 2,
            mix: QueryMix::uniform(),
            restart_prob: 0.15,
            seed,
        }
    }

    #[test]
    fn workload_shape() {
        let g = ring(64);
        let w = hotspot_workload(&g, &config(1));
        assert_eq!(w.len(), 50);
        assert_eq!(w.centers.len(), 10);
        assert_eq!(w.per_hotspot, 5);
        let groups: Vec<usize> = iter_grouped(&w).map(|(g, _)| g).collect();
        assert_eq!(groups[0], 0);
        assert_eq!(groups[4], 0);
        assert_eq!(groups[5], 1);
        assert_eq!(groups[49], 9);
    }

    #[test]
    fn query_nodes_within_radius_of_center() {
        let g = ring(64);
        let w = hotspot_workload(&g, &config(2));
        for (group, q) in iter_grouped(&w) {
            let center = w.centers[group];
            let d =
                hop_distance(&g, center, q.anchor(), Direction::Both).expect("anchor in component");
            assert!(d <= 2, "anchor {} at distance {d} from centre", q.anchor());
        }
    }

    #[test]
    fn pairwise_distance_within_hotspot_at_most_2r() {
        let g = ring(64);
        let w = hotspot_workload(&g, &config(3));
        for group in 0..w.centers.len() {
            let anchors: Vec<NodeId> = iter_grouped(&w)
                .filter(|&(gi, _)| gi == group)
                .map(|(_, q)| q.anchor())
                .collect();
            for i in 0..anchors.len() {
                for j in (i + 1)..anchors.len() {
                    let d = hop_distance(&g, anchors[i], anchors[j], Direction::Both).unwrap();
                    assert!(d <= 4, "pair at distance {d} > 2r");
                }
            }
        }
    }

    #[test]
    fn mixture_contains_all_kinds() {
        let g = ring(128);
        let mut cfg = config(4);
        cfg.hotspots = 40;
        let w = hotspot_workload(&g, &cfg);
        let kinds: std::collections::HashSet<&str> = w.queries.iter().map(|q| q.kind()).collect();
        assert_eq!(kinds.len(), 3, "kinds {kinds:?}");
    }

    #[test]
    fn aggregation_only_mix() {
        let g = ring(32);
        let mut cfg = config(5);
        cfg.mix = QueryMix::aggregation_only();
        let w = hotspot_workload(&g, &cfg);
        assert!(w.queries.iter().all(|q| q.kind() == "agg"));
    }

    #[test]
    fn deterministic_per_seed() {
        let g = ring(64);
        let a = hotspot_workload(&g, &config(7));
        let b = hotspot_workload(&g, &config(7));
        assert_eq!(a.queries, b.queries);
        let c = hotspot_workload(&g, &config(8));
        assert_ne!(a.queries, c.queries);
    }

    #[test]
    #[should_panic(expected = "no connected nodes")]
    fn rejects_graph_of_isolated_nodes() {
        let g = GraphBuilder::with_nodes(5).build().unwrap();
        let _ = hotspot_workload(&g, &config(1));
    }
}
