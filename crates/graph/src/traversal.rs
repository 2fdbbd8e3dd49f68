//! Traversal primitives over the in-memory graph.
//!
//! These run over the full [`CsrGraph`] and are used by preprocessing
//! (landmark BFS) and by tests as ground truth. Query-time traversal over
//! the *distributed* storage lives in `grouting-query`, which fetches
//! adjacency values through a cache; both must agree, which the integration
//! tests assert.

use std::collections::VecDeque;

use crate::csr::CsrGraph;
use crate::hash::NodeMap;
use crate::ids::NodeId;

/// Distance value meaning "unreached" in BFS distance maps.
pub const UNREACHED: u32 = u32::MAX;

/// Edge direction selector for traversals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow out-edges only.
    Out,
    /// Follow in-edges only.
    In,
    /// Follow both directions (the bi-directed view of §3.4.1).
    Both,
}

fn for_each_neighbor(g: &CsrGraph, v: NodeId, dir: Direction, mut f: impl FnMut(NodeId)) {
    match dir {
        Direction::Out => g.out_neighbors(v).for_each(&mut f),
        Direction::In => g.in_neighbors(v).for_each(&mut f),
        Direction::Both => {
            g.out_neighbors(v).for_each(&mut f);
            g.in_neighbors(v).for_each(&mut f);
        }
    }
}

/// Full single-source BFS distance map from `source`.
///
/// Returns a vector of hop distances with [`UNREACHED`] for unreachable
/// nodes. Used by landmark preprocessing (one BFS per landmark, §3.4.1).
pub fn bfs_distances(g: &CsrGraph, source: NodeId, dir: Direction) -> Vec<u32> {
    let mut dist = vec![UNREACHED; g.node_count()];
    if !g.contains(source) {
        return dist;
    }
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for_each_neighbor(g, v, dir, |w| {
            if dist[w.index()] == UNREACHED {
                dist[w.index()] = dv + 1;
                queue.push_back(w);
            }
        });
    }
    dist
}

/// BFS limited to `max_hops`, returning `(node, distance)` pairs in
/// discovery order (the source itself is included at distance 0).
pub fn bfs_within(
    g: &CsrGraph,
    source: NodeId,
    max_hops: u32,
    dir: Direction,
) -> Vec<(NodeId, u32)> {
    let mut found = Vec::new();
    if !g.contains(source) {
        return found;
    }
    // Lookup only: the output is the discovery-order `found`.
    let mut dist = NodeMap::default();
    let mut queue = VecDeque::new();
    dist.insert(source, 0u32);
    queue.push_back(source);
    found.push((source, 0));
    while let Some(v) = queue.pop_front() {
        let dv = dist[&v];
        if dv == max_hops {
            continue;
        }
        for_each_neighbor(g, v, dir, |w| {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(dv + 1);
                found.push((w, dv + 1));
                queue.push_back(w);
            }
        });
    }
    found
}

/// The set of nodes within `h` hops of `source` (excluding the source),
/// i.e. `N_h(q)` from the paper's Eq. 8.
pub fn h_hop_neighborhood(g: &CsrGraph, source: NodeId, h: u32, dir: Direction) -> Vec<NodeId> {
    bfs_within(g, source, h, dir)
        .into_iter()
        .filter(|&(_, d)| d > 0)
        .map(|(v, _)| v)
        .collect()
}

/// Exact shortest-path hop distance via forward BFS, `None` if unreachable.
pub fn hop_distance(g: &CsrGraph, source: NodeId, target: NodeId, dir: Direction) -> Option<u32> {
    if !g.contains(source) || !g.contains(target) {
        return None;
    }
    if source == target {
        return Some(0);
    }
    let mut dist = std::collections::HashMap::new();
    let mut queue = VecDeque::new();
    dist.insert(source, 0u32);
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[&v];
        let mut hit = None;
        for_each_neighbor(g, v, dir, |w| {
            if w == target {
                hit = Some(dv + 1);
            }
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                e.insert(dv + 1);
                queue.push_back(w);
            }
        });
        if let Some(d) = hit {
            return Some(d);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// A directed path 0 -> 1 -> 2 -> 3 -> 4 plus a chord 0 -> 3.
    fn path_with_chord() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_edge(n(i), n(i + 1));
        }
        b.add_edge(n(0), n(3));
        b.build().unwrap()
    }

    #[test]
    fn bfs_distances_directed() {
        let g = path_with_chord();
        let d = bfs_distances(&g, n(0), Direction::Out);
        assert_eq!(d, vec![0, 1, 2, 1, 2]);
        // Backwards from node 4.
        let db = bfs_distances(&g, n(4), Direction::In);
        assert_eq!(db, vec![2, 3, 2, 1, 0]);
    }

    #[test]
    fn bfs_distances_bidirected() {
        let g = path_with_chord();
        // From node 4 treating edges as bi-directed: 3 is adjacent; 2 and 0
        // (via the chord) are two hops; 1 is three hops (through 0 or 2).
        let d = bfs_distances(&g, n(4), Direction::Both);
        assert_eq!(d, vec![2, 3, 2, 1, 0]);
    }

    #[test]
    fn bfs_unreachable_marked() {
        let mut b = GraphBuilder::with_nodes(3);
        b.add_edge(n(0), n(1));
        let g = b.build().unwrap();
        let d = bfs_distances(&g, n(0), Direction::Out);
        assert_eq!(d[2], UNREACHED);
    }

    #[test]
    fn h_hop_neighborhood_counts() {
        let g = path_with_chord();
        // Bi-directed 1-hop of node 3: {2, 4, 0}.
        let n1 = h_hop_neighborhood(&g, n(3), 1, Direction::Both);
        assert_eq!(n1.len(), 3);
        // 2-hop adds node 1.
        let n2 = h_hop_neighborhood(&g, n(3), 2, Direction::Both);
        assert_eq!(n2.len(), 4);
        // Source never appears.
        assert!(!n2.contains(&n(3)));
    }

    #[test]
    fn hop_distance_matches_bfs() {
        let g = path_with_chord();
        assert_eq!(hop_distance(&g, n(0), n(4), Direction::Out), Some(2));
        assert_eq!(hop_distance(&g, n(0), n(0), Direction::Out), Some(0));
        assert_eq!(hop_distance(&g, n(4), n(0), Direction::Out), None);
    }

    #[test]
    fn bfs_within_respects_budget() {
        let g = path_with_chord();
        let hits = bfs_within(&g, n(0), 1, Direction::Out);
        let nodes: Vec<NodeId> = hits.iter().map(|&(v, _)| v).collect();
        assert_eq!(nodes, vec![n(0), n(1), n(3)]);
    }

    proptest::proptest! {
        /// Triangle inequality of BFS distances through any intermediate node.
        #[test]
        fn prop_bfs_triangle_inequality(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 1..100),
            a in 0u32..20,
        ) {
            let mut b = GraphBuilder::with_nodes(20);
            for (s, d) in &edges {
                b.add_edge(n(*s), n(*d));
            }
            let g = b.build().unwrap();
            let da = bfs_distances(&g, n(a), Direction::Both);
            for v in g.nodes() {
                for w in g.all_neighbors(v) {
                    let dv = da[v.index()];
                    let dw = da[w.index()];
                    if dv != UNREACHED {
                        proptest::prop_assert!(dw != UNREACHED && dw <= dv + 1);
                    }
                }
            }
        }
    }
}
