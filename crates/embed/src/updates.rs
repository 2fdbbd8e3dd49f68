//! Incremental preprocessing maintenance under graph updates (§3.4.1).
//!
//! The paper keeps one rule: after an edge is added or removed, both
//! endpoints and their one-hop neighbours on the updated graph
//! ([`DynamicGraph::affected_nodes`]) get fresh distances to every
//! landmark, and from them a fresh `d(u, p)` row (landmark routing) or
//! fresh coordinates (embed routing). A new node arrives with its first
//! edge; a node is removed as the removal of its incident edges, one
//! update each. After many updates the full preprocessing is redone
//! offline ([`StalenessTracker`] decides when).

use std::collections::VecDeque;

use grouting_graph::dynamic::{DynamicGraph, GraphUpdate};
use grouting_graph::NodeId;

use crate::embedding::{Embedding, EmbeddingConfig};
use crate::pivots::ProcessorDistanceTable;
use crate::UNREACHED_U16;

/// Distances from `node` to every landmark on the *current* dynamic graph,
/// via a single bi-directed BFS from the node that stops once all landmarks
/// are found (or the component is exhausted).
pub fn landmark_distances_from(g: &DynamicGraph, node: NodeId, landmarks: &[NodeId]) -> Vec<u16> {
    let mut out = vec![UNREACHED_U16; landmarks.len()];
    if !g.contains(node) {
        return out;
    }
    let index: std::collections::HashMap<NodeId, usize> =
        landmarks.iter().enumerate().map(|(i, &l)| (l, i)).collect();
    let mut remaining = index.len();
    let mut dist: std::collections::HashMap<NodeId, u32> = std::collections::HashMap::new();
    let mut queue = VecDeque::new();
    dist.insert(node, 0);
    queue.push_back(node);
    if let Some(&i) = index.get(&node) {
        out[i] = 0;
        remaining -= 1;
    }
    while let Some(v) = queue.pop_front() {
        if remaining == 0 {
            break;
        }
        let dv = dist[&v];
        let next = dv + 1;
        let neighbors: Vec<NodeId> = g.out_neighbors(v).chain(g.in_neighbors(v)).collect();
        for w in neighbors {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(next);
                if let Some(&i) = index.get(&w) {
                    if out[i] == UNREACHED_U16 {
                        out[i] = next.min((UNREACHED_U16 - 1) as u32) as u16;
                        remaining -= 1;
                    }
                }
                queue.push_back(w);
            }
        }
    }
    out
}

/// Applies one update to a landmark-routing table in place.
///
/// Touched nodes (endpoints plus one-hop neighbours) get fresh `d(u, p)`
/// rows computed from single-source BFS on the updated graph.
pub fn refresh_landmark_table(
    table: &mut ProcessorDistanceTable,
    g: &DynamicGraph,
    landmarks: &[NodeId],
    update: GraphUpdate,
) {
    for v in g.affected_nodes(update) {
        if !g.contains(v) {
            continue;
        }
        let vector = landmark_distances_from(g, v, landmarks);
        let row = table.row_from_landmark_vector(&vector);
        if v.index() <= table.nodes() {
            table.set_row(v, &row);
        }
    }
}

/// Applies one update to an embedding in place (same affected-set rule).
pub fn refresh_embedding(
    embedding: &mut Embedding,
    g: &DynamicGraph,
    update: GraphUpdate,
    config: &EmbeddingConfig,
) {
    let landmark_ids = embedding.landmark_ids().to_vec();
    for v in g.affected_nodes(update) {
        if !g.contains(v) {
            continue;
        }
        let dists = landmark_distances_from(g, v, &landmark_ids);
        let point = embedding.embed_from_landmark_distances(&dists, config);
        if v.index() <= embedding.node_count() {
            embedding.set_coords(v, &point);
        }
    }
}

/// Counts updates and signals when a full offline re-preprocessing is due
/// ("after a significant number of updates, previously selected landmark
/// nodes become less effective; thus we recompute the entire preprocessing
/// step periodically").
#[derive(Debug, Clone)]
pub struct StalenessTracker {
    updates: u64,
    threshold: u64,
}

impl StalenessTracker {
    /// Recommends re-preprocessing after `threshold` updates.
    pub fn new(threshold: u64) -> Self {
        Self {
            updates: 0,
            threshold: threshold.max(1),
        }
    }

    /// Records one update; returns `true` when the threshold is crossed.
    pub fn record(&mut self) -> bool {
        self.updates += 1;
        self.updates >= self.threshold
    }

    /// Updates seen since the last reset.
    pub fn pending(&self) -> u64 {
        self.updates
    }

    /// Resets after a full re-preprocessing.
    pub fn reset(&mut self) {
        self.updates = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmarks::{LandmarkConfig, Landmarks};
    use grouting_graph::{CsrGraph, GraphBuilder};

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
    fn bfs_distances_match_static_maps() {
        let g = ring(24);
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 4,
                min_separation: 2,
            },
        );
        let dyn_g = DynamicGraph::from_csr(&g);
        for v in [n(0), n(5), n(13)] {
            let fresh = landmark_distances_from(&dyn_g, v, &lm.nodes);
            assert_eq!(fresh, lm.node_vector(v), "node {v}");
        }
    }

    #[test]
    fn new_node_gets_row_and_coords() {
        let g = ring(16);
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 4,
                min_separation: 2,
            },
        );
        let mut table = ProcessorDistanceTable::build(&lm, 2);
        let mut dyn_g = DynamicGraph::from_csr(&g);

        // Attach node 16 to node 3.
        dyn_g.add_edge(n(16), n(3));
        refresh_landmark_table(
            &mut table,
            &dyn_g,
            &lm.nodes,
            GraphUpdate::AddEdge(n(16), n(3)),
        );
        assert_eq!(table.nodes(), 17);
        // Its distances should be node 3's plus one (through the new edge).
        let d3 = table.row(n(3)).to_vec();
        let d16 = table.row(n(16)).to_vec();
        for (a, b) in d16.iter().zip(&d3) {
            assert!(*a <= b + 1, "row16 {d16:?} row3 {d3:?}");
        }
    }

    #[test]
    fn edge_update_refreshes_embedding_locally() {
        let g = ring(16);
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 4,
                min_separation: 2,
            },
        );
        let cfg = EmbeddingConfig {
            dimensions: 4,
            landmark_sweeps: 1,
            landmark_iters: 150,
            node_iters: 60,
            nearest_landmarks: 4,
            seed: 5,
        };
        let mut emb = Embedding::build(&lm, &cfg);
        let before_far = emb.coords(n(12)).to_vec();
        let mut dyn_g = DynamicGraph::from_csr(&g);
        dyn_g.add_edge(n(0), n(8));
        refresh_embedding(&mut emb, &dyn_g, GraphUpdate::AddEdge(n(0), n(8)), &cfg);
        // Node 12 is outside the 1-hop affected set: untouched.
        assert_eq!(emb.coords(n(12)), &before_far[..]);
    }

    #[test]
    fn removing_a_node_refreshes_its_former_neighbours() {
        // Ring 0 → 1 → … → 20 → 0 with landmarks 0, 2 and 4: node 6 reaches
        // landmark 4 through node 5 in two hops, and the long way round
        // once node 5 is gone.
        let g = ring(21);
        let lm = Landmarks::for_nodes(&g, vec![n(0), n(2), n(4)], 2);
        let cfg = EmbeddingConfig {
            dimensions: 2,
            landmark_sweeps: 1,
            landmark_iters: 100,
            node_iters: 40,
            nearest_landmarks: 3,
            seed: 9,
        };
        let mut table = ProcessorDistanceTable::build(&lm, 3);
        let mut emb = Embedding::build(&lm, &cfg);
        let mut dyn_g = DynamicGraph::from_csr(&g);
        let before = table.row(n(6)).to_vec();

        // Node 5 goes as its incident edges, one update each.
        let removed = n(5);
        let edges: Vec<(NodeId, NodeId)> = dyn_g
            .out_neighbors(removed)
            .map(|w| (removed, w))
            .chain(dyn_g.in_neighbors(removed).map(|u| (u, removed)))
            .collect();
        for (s, d) in edges {
            assert_eq!(dyn_g.remove_edge(s, d), Ok(true));
            let update = GraphUpdate::RemoveEdge(s, d);
            refresh_landmark_table(&mut table, &dyn_g, &lm.nodes, update);
            refresh_embedding(&mut emb, &dyn_g, update, &cfg);
        }

        let fresh = landmark_distances_from(&dyn_g, n(6), &lm.nodes);
        assert_eq!(fresh, vec![15, 17, 19]);
        assert_ne!(table.row(n(6)), &before[..], "row left stale");
        assert_eq!(table.row(n(6)), &table.row_from_landmark_vector(&fresh)[..]);
        assert_eq!(
            emb.coords(n(6)),
            &emb.embed_from_landmark_distances(&fresh, &cfg)[..],
            "coordinates left stale"
        );
        // The removed node stays, isolated: it reaches no landmark.
        assert!(table.row(removed).iter().all(|&d| d == UNREACHED_U16));
    }

    #[test]
    fn staleness_tracker_thresholds() {
        let mut t = StalenessTracker::new(3);
        assert!(!t.record());
        assert!(!t.record());
        assert!(t.record());
        assert_eq!(t.pending(), 3);
        t.reset();
        assert_eq!(t.pending(), 0);
        assert!(!t.record());
    }

    #[test]
    fn distances_from_missing_node_all_unreached() {
        let g = ring(8);
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 2,
                min_separation: 2,
            },
        );
        let dyn_g = DynamicGraph::from_csr(&g);
        let d = landmark_distances_from(&dyn_g, n(99), &lm.nodes);
        assert!(d.iter().all(|&x| x == UNREACHED_U16));
    }
}
