//! METIS-style multilevel edge-cut partitioner.
//!
//! The SEDGE baseline in the paper uses ParMETIS for its "expensive graph
//! partitioning and re-partitioning" (§4.2). This module implements the same
//! three-phase multilevel scheme those tools use:
//!
//! 1. **Coarsening** — repeated heavy-edge matching collapses matched node
//!    pairs into weighted coarse nodes until the graph is small;
//! 2. **Initial partitioning** — greedy region growing on the coarsest
//!    graph, seeding each part from a high-degree unassigned node;
//! 3. **Uncoarsening + refinement** — the assignment is projected back level
//!    by level, and greedy boundary Fiduccia–Mattheyses passes move nodes to
//!    reduce the cut while keeping parts within a balance tolerance.
//!
//! The result is a [`TablePartitioner`] with far lower edge-cut than hash
//! partitioning on clustered graphs, which is exactly the advantage the
//! coupled baselines enjoy — and that gRouting's smart routing neutralises.

use grouting_graph::CsrGraph;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::TablePartitioner;

/// Tuning knobs for the multilevel partitioner.
#[derive(Debug, Clone, Copy)]
pub struct MultilevelConfig {
    /// Number of parts to produce.
    pub parts: usize,
    /// Allowed imbalance: a part may weigh up to `(1 + eps) * ideal`.
    pub balance_eps: f64,
    /// Stop coarsening when at most this many coarse nodes remain
    /// (0 = pick automatically from `parts`).
    pub coarsen_target: usize,
    /// Greedy refinement passes per level.
    pub refine_passes: usize,
    /// RNG seed for matching/tie-breaking order.
    pub seed: u64,
}

impl MultilevelConfig {
    /// Reasonable defaults for `parts` partitions.
    pub fn new(parts: usize) -> Self {
        Self {
            parts,
            balance_eps: 0.05,
            coarsen_target: 0,
            refine_passes: 6,
            seed: 0x4d45_5449,
        }
    }
}

/// Internal weighted undirected graph used across levels.
#[derive(Debug, Clone)]
struct WorkGraph {
    /// Sorted adjacency with collapsed parallel-edge weights.
    adj: Vec<Vec<(u32, u64)>>,
    node_weight: Vec<u64>,
}

impl WorkGraph {
    fn len(&self) -> usize {
        self.adj.len()
    }

    fn total_weight(&self) -> u64 {
        self.node_weight.iter().sum()
    }

    fn from_csr(g: &CsrGraph) -> Self {
        let n = g.node_count();
        let mut adj: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
        for v in g.nodes() {
            for w in g.out_neighbors(v) {
                if v == w {
                    continue;
                }
                adj[v.index()].push((w.raw(), 1));
                adj[w.index()].push((v.raw(), 1));
            }
        }
        for list in &mut adj {
            list.sort_unstable_by_key(|&(t, _)| t);
            // Collapse parallel edges (u->w plus w->u, duplicates) into one
            // weighted edge.
            let mut out: Vec<(u32, u64)> = Vec::with_capacity(list.len());
            for &(t, w) in list.iter() {
                match out.last_mut() {
                    Some(last) if last.0 == t => last.1 += w,
                    _ => out.push((t, w)),
                }
            }
            *list = out;
        }
        Self {
            adj,
            node_weight: vec![1; n],
        }
    }
}

/// One coarsening level: the coarse graph and the fine→coarse mapping.
struct Level {
    coarse: WorkGraph,
    map: Vec<u32>,
}

fn heavy_edge_matching(g: &WorkGraph, rng: &mut StdRng) -> Level {
    let n = g.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut mate: Vec<u32> = vec![u32::MAX; n];
    for &v in &order {
        if mate[v as usize] != u32::MAX {
            continue;
        }
        // Pick the unmatched neighbour with the heaviest connecting edge.
        let mut best: Option<(u32, u64)> = None;
        for &(w, wt) in &g.adj[v as usize] {
            if w != v && mate[w as usize] == u32::MAX {
                match best {
                    Some((_, bw)) if bw >= wt => {}
                    _ => best = Some((w, wt)),
                }
            }
        }
        match best {
            Some((w, _)) => {
                mate[v as usize] = w;
                mate[w as usize] = v;
            }
            None => mate[v as usize] = v, // Matched with itself.
        }
    }

    // Assign coarse ids: one per matched pair / singleton.
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        if map[v as usize] != u32::MAX {
            continue;
        }
        let m = mate[v as usize];
        map[v as usize] = next;
        if m != v && m != u32::MAX {
            map[m as usize] = next;
        }
        next += 1;
    }

    // Build the coarse graph.
    let cn = next as usize;
    let mut coarse = WorkGraph {
        adj: vec![Vec::new(); cn],
        node_weight: vec![0; cn],
    };
    for (v, &cv) in map.iter().enumerate().take(n) {
        coarse.node_weight[cv as usize] += g.node_weight[v];
    }
    for v in 0..n {
        let cv = map[v];
        for &(w, wt) in &g.adj[v] {
            let cw = map[w as usize];
            if cv != cw {
                coarse.adj[cv as usize].push((cw, wt));
            }
        }
    }
    for list in &mut coarse.adj {
        list.sort_unstable_by_key(|&(t, _)| t);
        let mut out: Vec<(u32, u64)> = Vec::with_capacity(list.len());
        for &(t, w) in list.iter() {
            match out.last_mut() {
                Some(last) if last.0 == t => last.1 += w,
                _ => out.push((t, w)),
            }
        }
        *list = out;
    }
    Level { coarse, map }
}

fn initial_partition(g: &WorkGraph, parts: usize, rng: &mut StdRng) -> Vec<u32> {
    let n = g.len();
    let mut assign = vec![u32::MAX; n];
    if n == 0 {
        return assign;
    }
    let total = g.total_weight().max(1);
    let target = total.div_ceil(parts as u64);

    // Visit seeds in descending degree with random tie-breaks.
    let mut by_degree: Vec<u32> = (0..n as u32).collect();
    by_degree.shuffle(rng);
    by_degree.sort_by_key(|&v| std::cmp::Reverse(g.adj[v as usize].len()));

    let mut part_weight = vec![0u64; parts];
    let mut seed_cursor = 0usize;
    for p in 0..parts as u32 {
        // Find an unassigned seed.
        while seed_cursor < n && assign[by_degree[seed_cursor] as usize] != u32::MAX {
            seed_cursor += 1;
        }
        if seed_cursor >= n {
            break;
        }
        let seed = by_degree[seed_cursor];
        // BFS-grow the region until the target weight is met.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            if assign[v as usize] != u32::MAX {
                continue;
            }
            if part_weight[p as usize] >= target && p as usize != parts - 1 {
                break;
            }
            assign[v as usize] = p;
            part_weight[p as usize] += g.node_weight[v as usize];
            for &(w, _) in &g.adj[v as usize] {
                if assign[w as usize] == u32::MAX {
                    queue.push_back(w);
                }
            }
        }
    }
    // Any leftovers (disconnected pieces) go to the lightest part.
    for (v, a) in assign.iter_mut().enumerate().take(n) {
        if *a == u32::MAX {
            let p = (0..parts)
                .min_by_key(|&p| part_weight[p])
                .expect("parts > 0");
            *a = p as u32;
            part_weight[p] += g.node_weight[v];
        }
    }
    assign
}

fn refine(g: &WorkGraph, assign: &mut [u32], parts: usize, eps: f64, passes: usize) {
    let n = g.len();
    if n == 0 {
        return;
    }
    let total = g.total_weight().max(1);
    let max_weight = ((total as f64 / parts as f64) * (1.0 + eps)).ceil() as u64;
    let mut part_weight = vec![0u64; parts];
    for v in 0..n {
        part_weight[assign[v] as usize] += g.node_weight[v];
    }

    for _ in 0..passes {
        let mut moved = 0usize;
        for v in 0..n {
            let from = assign[v] as usize;
            // Connectivity of v to each part it touches.
            let mut link: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
            for &(w, wt) in &g.adj[v] {
                *link.entry(assign[w as usize] as usize).or_insert(0) += wt;
            }
            let internal = link.get(&from).copied().unwrap_or(0);
            let mut best: Option<(usize, u64)> = None;
            for (&p, &ext) in &link {
                if p == from {
                    continue;
                }
                if part_weight[p] + g.node_weight[v] > max_weight {
                    continue;
                }
                if ext > internal {
                    match best {
                        Some((_, b)) if b >= ext => {}
                        _ => best = Some((p, ext)),
                    }
                }
            }
            if let Some((p, _)) = best {
                part_weight[from] -= g.node_weight[v];
                part_weight[p] += g.node_weight[v];
                assign[v] = p as u32;
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

/// Runs the full multilevel pipeline and returns a table partitioner.
///
/// # Panics
///
/// Panics if `config.parts == 0`.
pub fn partition(g: &CsrGraph, config: &MultilevelConfig) -> TablePartitioner {
    assert!(config.parts > 0, "zero partitions");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let parts = config.parts;
    if g.node_count() == 0 {
        return TablePartitioner::new(Vec::new(), parts);
    }
    let target = if config.coarsen_target == 0 {
        (30 * parts).max(128)
    } else {
        config.coarsen_target
    };

    // Phase 1: coarsen.
    let mut levels: Vec<Level> = Vec::new();
    let mut current = WorkGraph::from_csr(g);
    while current.len() > target {
        let level = heavy_edge_matching(&current, &mut rng);
        // Matching stalled (e.g. star graphs where everything is matched to
        // one hub already): stop coarsening.
        if level.coarse.len() as f64 > current.len() as f64 * 0.95 {
            break;
        }
        current = level.coarse.clone();
        levels.push(level);
    }

    // Phase 2: initial partition on the coarsest graph.
    let mut assign = initial_partition(&current, parts, &mut rng);
    refine(
        &current,
        &mut assign,
        parts,
        config.balance_eps,
        config.refine_passes,
    );

    // Phase 3: project back and refine at each finer level.
    for level in levels.iter().rev() {
        let fine_n = level.map.len();
        let mut fine_assign = vec![0u32; fine_n];
        for v in 0..fine_n {
            fine_assign[v] = assign[level.map[v] as usize];
        }
        // Rebuild the fine WorkGraph for refinement. The final (finest)
        // level corresponds to the input graph itself.
        assign = fine_assign;
        let fine_graph = if std::ptr::eq(level, levels.first().expect("nonempty")) {
            WorkGraph::from_csr(g)
        } else {
            // Intermediate levels: reconstruct from the next-coarser level's
            // stored graph. For simplicity we refine only on the finest
            // graph; intermediate projections pass through unchanged.
            continue;
        };
        refine(
            &fine_graph,
            &mut assign,
            parts,
            config.balance_eps,
            config.refine_passes,
        );
    }
    if levels.is_empty() {
        // Graph was small enough to partition directly.
        let fine = WorkGraph::from_csr(g);
        refine(
            &fine,
            &mut assign,
            parts,
            config.balance_eps,
            config.refine_passes,
        );
    }

    TablePartitioner::new(assign, parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::{balance, edge_cut, edge_cut_fraction};
    use grouting_graph::{GraphBuilder, NodeId};
    use grouting_storage::{HashPartitioner, Partitioner};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// `k` cliques of size `s`, consecutive cliques joined by single edges.
    fn clique_chain(k: usize, s: usize) -> CsrGraph {
        let mut b = GraphBuilder::new();
        for c in 0..k {
            let base = (c * s) as u32;
            for i in 0..s as u32 {
                for j in (i + 1)..s as u32 {
                    b.add_edge(n(base + i), n(base + j));
                }
            }
            if c + 1 < k {
                b.add_edge(n(base + s as u32 - 1), n(base + s as u32));
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn beats_hash_on_clustered_graph() {
        let g = clique_chain(8, 16);
        let ml = partition(&g, &MultilevelConfig::new(4));
        let hash = HashPartitioner::new(4);
        let cut_ml = edge_cut(&g, &ml);
        let cut_hash = edge_cut(&g, &hash);
        assert!(
            (cut_ml as f64) < 0.3 * cut_hash as f64,
            "multilevel {cut_ml} vs hash {cut_hash}"
        );
    }

    #[test]
    fn respects_balance() {
        let g = clique_chain(8, 16);
        let ml = partition(&g, &MultilevelConfig::new(4));
        let bal = balance(&g, &ml);
        assert!(bal <= 1.35, "balance {bal}");
    }

    #[test]
    fn every_node_assigned_in_range() {
        let g = clique_chain(5, 10);
        let ml = partition(&g, &MultilevelConfig::new(3));
        for v in g.nodes() {
            assert!(ml.assign(v) < 3);
        }
        assert_eq!(ml.table().len(), g.node_count());
    }

    #[test]
    fn single_part_puts_everything_together() {
        let g = clique_chain(3, 8);
        let ml = partition(&g, &MultilevelConfig::new(1));
        assert_eq!(edge_cut(&g, &ml), 0);
    }

    #[test]
    fn small_graph_direct_partition() {
        let g = clique_chain(2, 4);
        let ml = partition(&g, &MultilevelConfig::new(2));
        // Cut should be the single bridge.
        assert!(edge_cut_fraction(&g, &ml) < 0.2);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build().unwrap();
        let ml = partition(&g, &MultilevelConfig::new(4));
        assert_eq!(ml.parts(), 4);
    }

    #[test]
    fn deterministic_per_seed() {
        let g = clique_chain(6, 12);
        let a = partition(&g, &MultilevelConfig::new(3));
        let b = partition(&g, &MultilevelConfig::new(3));
        assert_eq!(a.table(), b.table());
    }

    #[test]
    fn ring_lattice_cut_is_low() {
        // A ring of 256 nodes: optimal 4-way cut is 8 directed edges (2 per
        // boundary in the bi-directed view collapses to 1 each way).
        let mut b = GraphBuilder::new();
        for i in 0..256u32 {
            b.add_edge(n(i), n((i + 1) % 256));
        }
        let g = b.build().unwrap();
        let ml = partition(&g, &MultilevelConfig::new(4));
        let cut = edge_cut(&g, &ml);
        assert!(cut <= 16, "ring cut {cut}");
    }
}
