//! Landmark selection and distance-map computation (§3.4.1 preprocessing).
//!
//! "We select landmarks based on their node degree and how well they spread
//! over the entire graph. Our first step is to find a certain number of
//! landmarks considering the highest degree nodes … if we find two landmarks
//! to be closer than a pre-defined threshold, the one with the lower degree
//! is discarded."
//!
//! Selection walks nodes in descending bi-directed degree; accepting a
//! landmark marks its `(min_separation − 1)`-hop ball as blocked, so any
//! later (lower-degree) candidate inside the ball is skipped — equivalent to
//! the paper's discard rule.
//!
//! The `|L| × n` distance matrix is filled by bit-parallel multi-source BFS:
//! up to 64 landmarks share one traversal of the bi-directed view, each
//! node carrying a `u64` of the landmarks that have reached it, so an edge
//! is scanned once per distinct depth at which its endpoint enters the
//! batch's frontier rather than once per landmark. The landmarks are split
//! evenly over the available threads (96 on two cores: two batches of 48),
//! and each row equals a single-source BFS from its landmark.

use std::ops::Range;

use grouting_graph::{CsrGraph, NodeId};

use crate::UNREACHED_U16;

/// Parameters for landmark selection.
#[derive(Debug, Clone, Copy)]
pub struct LandmarkConfig {
    /// Number of landmarks to select (the paper settles on 96).
    pub count: usize,
    /// Minimum pairwise hop separation (the paper settles on 3).
    pub min_separation: u32,
}

impl Default for LandmarkConfig {
    fn default() -> Self {
        Self {
            count: 96,
            min_separation: 3,
        }
    }
}

/// The selected landmarks and their full distance maps.
#[derive(Debug, Clone)]
pub struct Landmarks {
    /// Landmark node ids, in selection (descending degree) order.
    pub nodes: Vec<NodeId>,
    /// `dist[i][v]`: hops from landmark `i` to node `v` in the bi-directed
    /// view; [`UNREACHED_U16`] if unreachable.
    pub dist: Vec<Vec<u16>>,
    /// The separation threshold used at selection time.
    pub min_separation: u32,
}

impl Landmarks {
    /// Selects landmarks and computes their distance maps.
    ///
    /// # Panics
    ///
    /// Panics if `config.count == 0`.
    pub fn build(g: &CsrGraph, config: &LandmarkConfig) -> Self {
        let nodes = select(g, config);
        let dist = distance_maps(g, &nodes);
        Self {
            nodes,
            dist,
            min_separation: config.min_separation,
        }
    }

    /// Computes distance maps for an explicit landmark set over `g`
    /// (used when preprocessing must be replayed on a different version of
    /// the graph, e.g. the Figure 10 staleness experiment).
    pub fn for_nodes(g: &CsrGraph, nodes: Vec<NodeId>, min_separation: u32) -> Self {
        let dist = distance_maps(g, &nodes);
        Self {
            nodes,
            dist,
            min_separation,
        }
    }

    /// Number of landmarks actually selected (may fall short of the request
    /// on small or fragmented graphs).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether no landmark could be selected (empty graph).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Distance from landmark `i` to `node` in hops.
    #[inline]
    pub fn distance(&self, i: usize, node: NodeId) -> u16 {
        self.dist[i][node.index()]
    }

    /// Distance between two landmarks.
    pub fn landmark_distance(&self, i: usize, j: usize) -> u16 {
        self.dist[i][self.nodes[j].index()]
    }

    /// Distances from `node` to every landmark.
    pub fn node_vector(&self, node: NodeId) -> Vec<u16> {
        self.dist.iter().map(|row| row[node.index()]).collect()
    }

    /// Bytes consumed by the distance matrix (Table 2/3 accounting).
    pub fn storage_bytes(&self) -> usize {
        self.dist.iter().map(|row| row.len() * 2).sum::<usize>() + self.nodes.len() * 4
    }

    /// Upper bound on `d(u, v)` through the best landmark (Eq. 2).
    pub fn distance_upper_bound(&self, u: NodeId, v: NodeId) -> Option<u32> {
        (0..self.len())
            .filter_map(|i| {
                let du = self.distance(i, u);
                let dv = self.distance(i, v);
                if du == UNREACHED_U16 || dv == UNREACHED_U16 {
                    None
                } else {
                    Some(du as u32 + dv as u32)
                }
            })
            .min()
    }

    /// Lower bound on `d(u, v)` through the best landmark (Eq. 2).
    pub fn distance_lower_bound(&self, u: NodeId, v: NodeId) -> Option<u32> {
        (0..self.len())
            .filter_map(|i| {
                let du = self.distance(i, u);
                let dv = self.distance(i, v);
                if du == UNREACHED_U16 || dv == UNREACHED_U16 {
                    None
                } else {
                    Some((du as i64 - dv as i64).unsigned_abs() as u32)
                }
            })
            .max()
    }
}

/// Runs the degree-and-separation selection rule.
fn select(g: &CsrGraph, config: &LandmarkConfig) -> Vec<NodeId> {
    assert!(config.count > 0, "zero landmarks requested");
    let order = g.nodes_by_degree_desc();
    let mut blocked = vec![false; g.node_count()];
    let mut chosen = Vec::with_capacity(config.count);
    // The current landmark's ball, level by level; `seen[w]` holds the
    // number of the last landmark whose ball reached `w`. One dense array
    // rather than a hash map per ball (`bfs_within`): the balls around the
    // hubs are the graph's largest, and building and freeing their tables
    // here cost `load/`'s `hotspot_remote` ~8 MiB of `peak_rss_mb`.
    let mut seen = vec![u32::MAX; g.node_count()];
    let mut ball: Vec<u32> = Vec::new();
    for v in order {
        if chosen.len() >= config.count {
            break;
        }
        if blocked[v.index()] || g.degree(v) == 0 {
            continue;
        }
        let stamp = chosen.len() as u32;
        chosen.push(v);
        if config.min_separation == 0 {
            continue;
        }
        ball.clear();
        ball.push(v.raw());
        seen[v.index()] = stamp;
        let mut level = 0..1;
        for _ in 1..config.min_separation {
            for i in level.clone() {
                let u = NodeId::new(ball[i]);
                for &w in g.out_slice(u).iter().chain(g.in_slice(u)) {
                    if seen[w as usize] != stamp {
                        seen[w as usize] = stamp;
                        ball.push(w);
                    }
                }
            }
            level = level.end..ball.len();
        }
        for &w in &ball {
            blocked[w as usize] = true;
        }
    }
    chosen
}

/// Sources one traversal carries: one bit of a `u64` each.
const BATCH: usize = 64;

/// `len` items cut into `parts` contiguous ranges whose sizes differ by at
/// most one.
fn even_ranges(len: usize, parts: usize) -> impl Iterator<Item = Range<usize>> {
    (0..parts).map(move |i| len * i / parts..len * (i + 1) / parts)
}

/// The bi-directed distance rows of `landmarks`, in order: each thread
/// takes a contiguous share and walks it in batches of at most [`BATCH`].
///
/// Where each buffer is allocated is deliberate. The scratch, which dies
/// here, comes from the calling thread, whose later set-up work reuses the
/// freed memory; the rows, which outlive the call, come from the workers,
/// as they did when each worker ran one BFS per landmark. Allocating both
/// in the workers, or both here, left glibc's arenas holding 15–40 MiB
/// more at `load/`'s peak (`peak_rss_mb` +8–25 % on some workloads).
fn distance_maps(g: &CsrGraph, landmarks: &[NodeId]) -> Vec<Vec<u16>> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(landmarks.len());
    let mut scratch: Vec<Scratch> = (0..threads).map(|_| Scratch::new(g)).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = even_ranges(landmarks.len(), threads)
            .zip(&mut scratch)
            .map(|(share, scratch)| {
                let ids = &landmarks[share];
                scope.spawn(move || {
                    let mut rows = Vec::with_capacity(ids.len());
                    for batch in even_ranges(ids.len(), ids.len().div_ceil(BATCH)) {
                        let first = rows.len();
                        rows.resize(first + batch.len(), vec![UNREACHED_U16; g.node_count()]);
                        multi_source_bfs(g, &ids[batch], &mut rows[first..], scratch);
                    }
                    rows
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("landmark BFS thread panicked"))
            .collect()
    })
}

/// One thread's multi-source BFS state, sized for the whole graph once and
/// reused by each of its batches.
struct Scratch {
    /// Per node: the batch's sources that have reached it.
    seen: Vec<u64>,
    /// Per node: the sources reaching it at the next depth.
    next: Vec<u64>,
    /// The current depth's nodes, each with the sources that reached it.
    frontier: Vec<(u32, u64)>,
    /// The next depth's nodes, in discovery order.
    upcoming: Vec<u32>,
}

impl Scratch {
    fn new(g: &CsrGraph) -> Self {
        let n = g.node_count();
        Self {
            seen: vec![0; n],
            next: vec![0; n],
            frontier: Vec::with_capacity(n),
            upcoming: Vec::with_capacity(n),
        }
    }
}

/// Bit-parallel multi-source BFS (Then et al., "The More the Merrier",
/// VLDB 2015) over the bi-directed view: source `i` of `sources` owns bit
/// `i` of each node's `seen` mask, and a frontier node's edges are scanned
/// once for all the sources that reached it at this depth. Fills `rows`
/// (one per source, all [`UNREACHED_U16`] on entry) so that row `i` equals
/// a single-source BFS from `sources[i]` compressed to `u16`: unreached
/// stays [`UNREACHED_U16`], longer distances clamp to `UNREACHED_U16 − 1`,
/// and a source outside the graph reaches nothing.
fn multi_source_bfs(g: &CsrGraph, sources: &[NodeId], rows: &mut [Vec<u16>], s: &mut Scratch) {
    debug_assert!(sources.len() <= BATCH);
    s.seen.fill(0);
    s.frontier.clear();
    for (i, &source) in sources.iter().enumerate() {
        if g.contains(source) {
            let v = source.index();
            if s.seen[v] == 0 {
                s.frontier.push((source.raw(), 0));
            }
            s.seen[v] |= 1 << i;
            rows[i][v] = 0;
        }
    }
    for entry in &mut s.frontier {
        entry.1 = s.seen[entry.0 as usize];
    }
    let mut depth = 0u32;
    while !s.frontier.is_empty() {
        depth += 1;
        let hop = depth.min(u32::from(UNREACHED_U16 - 1)) as u16;
        for &(v, mask) in &s.frontier {
            let v = NodeId::new(v);
            for &w in g.out_slice(v).iter().chain(g.in_slice(v)) {
                let w = w as usize;
                let fresh = mask & !s.seen[w];
                if fresh != 0 {
                    if s.next[w] == 0 {
                        s.upcoming.push(w as u32);
                    }
                    s.next[w] |= fresh;
                    s.seen[w] |= fresh;
                }
            }
        }
        s.frontier.clear();
        for &w in &s.upcoming {
            let mask = std::mem::take(&mut s.next[w as usize]);
            s.frontier.push((w, mask));
            let mut bits = mask;
            while bits != 0 {
                rows[bits.trailing_zeros() as usize][w as usize] = hop;
                bits &= bits - 1;
            }
        }
        s.upcoming.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_graph::traversal::{bfs_distances, bfs_within, Direction, UNREACHED};
    use grouting_graph::GraphBuilder;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Ring of `k` nodes.
    fn ring(k: u32) -> CsrGraph {
        let mut b = GraphBuilder::new();
        for i in 0..k {
            b.add_edge(n(i), n((i + 1) % k));
        }
        b.build().unwrap()
    }

    #[test]
    fn selects_requested_count_when_possible() {
        let g = ring(64);
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 8,
                min_separation: 3,
            },
        );
        assert_eq!(lm.len(), 8);
        assert_eq!(lm.dist.len(), 8);
        assert_eq!(lm.dist[0].len(), 64);
    }

    #[test]
    fn separation_is_respected() {
        let g = ring(64);
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 10,
                min_separation: 4,
            },
        );
        for i in 0..lm.len() {
            for j in (i + 1)..lm.len() {
                let d = lm.landmark_distance(i, j);
                assert!(d >= 4, "landmarks {i},{j} at distance {d}");
            }
        }
    }

    #[test]
    fn high_degree_nodes_win() {
        // Star plus a path: the hub must be the first landmark.
        let mut b = GraphBuilder::new();
        for i in 1..=10 {
            b.add_edge(n(0), n(i));
        }
        for i in 10..15 {
            b.add_edge(n(i), n(i + 1));
        }
        let g = b.build().unwrap();
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 2,
                min_separation: 2,
            },
        );
        assert_eq!(lm.nodes[0], n(0));
    }

    #[test]
    fn distances_match_bfs() {
        let g = ring(16);
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 2,
                min_separation: 3,
            },
        );
        let l0 = lm.nodes[0];
        let truth = bfs_distances(&g, l0, Direction::Both);
        for v in g.nodes() {
            assert_eq!(lm.distance(0, v) as u32, truth[v.index()]);
        }
    }

    #[test]
    fn triangle_inequality_bounds_hold() {
        let g = ring(24);
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 4,
                min_separation: 3,
            },
        );
        // Ring distance between nodes 2 and 7 is 5.
        let (u, v) = (n(2), n(7));
        let lo = lm.distance_lower_bound(u, v).unwrap();
        let hi = lm.distance_upper_bound(u, v).unwrap();
        assert!(lo <= 5, "lower bound {lo}");
        assert!(hi >= 5, "upper bound {hi}");
    }

    #[test]
    fn unreachable_marked() {
        // Two disconnected rings.
        let mut b = GraphBuilder::new();
        for i in 0..8u32 {
            b.add_edge(n(i), n((i + 1) % 8));
        }
        for i in 8..16u32 {
            b.add_edge(n(i), n(8 + (i + 1 - 8) % 8));
        }
        let g = b.build().unwrap();
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 1,
                min_separation: 2,
            },
        );
        let reached = (0..16u32)
            .filter(|&v| lm.distance(0, n(v)) != UNREACHED_U16)
            .count();
        assert_eq!(reached, 8);
    }

    #[test]
    fn storage_bytes_is_linear_in_n() {
        let g = ring(100);
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 5,
                min_separation: 2,
            },
        );
        assert_eq!(lm.storage_bytes(), 5 * 100 * 2 + 5 * 4);
    }

    #[test]
    fn isolated_nodes_never_selected() {
        let mut b = GraphBuilder::with_nodes(20);
        b.add_edge(n(0), n(1));
        let g = b.build().unwrap();
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 10,
                min_separation: 1,
            },
        );
        assert!(lm.len() <= 2);
        for &l in &lm.nodes {
            assert!(g.degree(l) > 0);
        }
    }

    /// What one single-source BFS per landmark gives, compressed to `u16`.
    fn per_landmark_rows(g: &CsrGraph, ids: &[NodeId]) -> Vec<Vec<u16>> {
        ids.iter()
            .map(|&l| {
                bfs_distances(g, l, Direction::Both)
                    .into_iter()
                    .map(|x| match x {
                        UNREACHED => UNREACHED_U16,
                        x => x.min(u32::from(UNREACHED_U16 - 1)) as u16,
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn long_path_clamps_below_unreached() {
        let k = 70_000u32;
        let mut b = GraphBuilder::new();
        for i in 0..k - 1 {
            b.add_edge(n(i), n(i + 1));
        }
        let g = b.build().unwrap();
        let lm = Landmarks::for_nodes(&g, vec![n(0), n(k - 1), n(k / 2)], 3);
        assert_eq!(lm.dist, per_landmark_rows(&g, &lm.nodes));
        assert_eq!(lm.distance(0, n(65_533)), 65_533);
        assert_eq!(lm.distance(0, n(65_534)), UNREACHED_U16 - 1);
        assert_eq!(lm.distance(0, n(k - 1)), UNREACHED_U16 - 1);
        assert_eq!(lm.distance(1, n(0)), UNREACHED_U16 - 1);
        assert_eq!(lm.distance(2, n(0)), (k / 2) as u16);
    }

    proptest::proptest! {
        /// Multi-source rows equal one BFS per landmark on graphs with
        /// isolated nodes and several components, for landmark lists that
        /// cross the 64-source batch boundary, split unevenly, repeat ids
        /// and name ids outside the graph.
        #[test]
        fn prop_multi_source_rows_equal_per_landmark_bfs(
            nodes in 1u32..200,
            components in 1u32..5,
            edges in proptest::collection::vec((0u32..200, 0u32..200), 0..300),
            ids in proptest::collection::vec(0u32..260, 1..151),
        ) {
            let mut b = GraphBuilder::with_nodes(nodes as usize);
            for (s, d) in edges {
                // Keep both ends in one residue class mod `components`.
                let d = d - d % components + s % components;
                if s < nodes && d < nodes {
                    b.add_edge(n(s), n(d));
                }
            }
            let g = b.build().unwrap();
            let ids: Vec<NodeId> = ids.into_iter().map(n).collect();
            let lm = Landmarks::for_nodes(&g, ids.clone(), 2);
            proptest::prop_assert_eq!(lm.dist, per_landmark_rows(&g, &ids));
        }

        /// Selection blocks exactly each accepted landmark's
        /// `(min_separation − 1)`-hop ball, as marking `bfs_within` does.
        #[test]
        fn prop_selection_matches_bfs_within_balls(
            nodes in 1u32..120,
            edges in proptest::collection::vec((0u32..120, 0u32..120), 0..300),
            count in 1usize..20,
            min_separation in 0u32..5,
        ) {
            let mut b = GraphBuilder::with_nodes(nodes as usize);
            for (s, d) in edges {
                if s < nodes && d < nodes {
                    b.add_edge(n(s), n(d));
                }
            }
            let g = b.build().unwrap();
            let mut blocked = vec![false; g.node_count()];
            let mut expected = Vec::new();
            for v in g.nodes_by_degree_desc() {
                if expected.len() == count || blocked[v.index()] || g.degree(v) == 0 {
                    continue;
                }
                expected.push(v);
                if min_separation > 0 {
                    for (w, _) in bfs_within(&g, v, min_separation - 1, Direction::Both) {
                        blocked[w.index()] = true;
                    }
                }
            }
            let config = LandmarkConfig { count, min_separation };
            proptest::prop_assert_eq!(select(&g, &config), expected);
        }
    }
}
