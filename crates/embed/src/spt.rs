//! Dynamic shortest-path trees for landmark distance maintenance.
//!
//! §3.4.1 on graph updates: "one needs to recompute the distances from
//! every node to each of the landmarks. This can be performed efficiently
//! by keeping an additional shortest-path-tree data structure \[31\]." The
//! paper itself takes the simpler per-node-BFS route
//! ([`crate::updates::landmark_distances_from`]); this module implements
//! the efficient alternative: one incrementally-maintained BFS tree per
//! landmark over the bi-directed dynamic graph.
//!
//! * **Edge insertion** — relax the cheaper endpoint and BFS-propagate
//!   improvements: `O(affected)`.
//! * **Edge deletion** — if a tree edge died, invalidate its subtree,
//!   seed a repair frontier from the subtree's boundary (neighbours with
//!   intact distances), and re-settle in distance order.
//! * **Node removal** — the node plus its subtree are invalidated and
//!   repaired the same way.
//!
//! Every operation leaves the tree equal to a from-scratch BFS, which the
//! property tests assert after arbitrary update interleavings.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};

use grouting_graph::dynamic::{DynamicGraph, GraphUpdate};
use grouting_graph::NodeId;

use crate::UNREACHED_U16;

/// An incrementally maintained BFS tree rooted at one landmark.
#[derive(Debug, Clone)]
pub struct LandmarkTree {
    root: NodeId,
    dist: HashMap<NodeId, u32>,
    parent: HashMap<NodeId, NodeId>,
    children: HashMap<NodeId, BTreeSet<NodeId>>,
}

fn bi_neighbors(g: &DynamicGraph, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
    g.out_neighbors(v).chain(g.in_neighbors(v))
}

impl LandmarkTree {
    /// Builds the tree with a fresh bi-directed BFS from `root`.
    pub fn build(g: &DynamicGraph, root: NodeId) -> Self {
        let mut tree = Self {
            root,
            dist: HashMap::new(),
            parent: HashMap::new(),
            children: HashMap::new(),
        };
        if !g.contains(root) {
            return tree;
        }
        tree.dist.insert(root, 0);
        let mut queue = VecDeque::from([root]);
        while let Some(v) = queue.pop_front() {
            let dv = tree.dist[&v];
            for w in bi_neighbors(g, v) {
                if let std::collections::hash_map::Entry::Vacant(e) = tree.dist.entry(w) {
                    e.insert(dv + 1);
                    tree.set_parent(w, v);
                    queue.push_back(w);
                }
            }
        }
        tree
    }

    /// The landmark this tree is rooted at.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Hop distance from the root to `v`, `None` when unreachable.
    pub fn distance(&self, v: NodeId) -> Option<u32> {
        self.dist.get(&v).copied()
    }

    /// Distance compressed to the `u16` convention used by the routing
    /// tables.
    pub fn distance_u16(&self, v: NodeId) -> u16 {
        match self.distance(v) {
            Some(d) => d.min((UNREACHED_U16 - 1) as u32) as u16,
            None => UNREACHED_U16,
        }
    }

    /// Number of reachable nodes (including the root).
    pub fn reachable(&self) -> usize {
        self.dist.len()
    }

    fn set_parent(&mut self, child: NodeId, parent: NodeId) {
        if let Some(old) = self.parent.insert(child, parent) {
            if let Some(set) = self.children.get_mut(&old) {
                set.remove(&child);
            }
        }
        self.children.entry(parent).or_default().insert(child);
    }

    fn clear_parent(&mut self, child: NodeId) {
        if let Some(old) = self.parent.remove(&child) {
            if let Some(set) = self.children.get_mut(&old) {
                set.remove(&child);
            }
        }
    }

    /// BFS-propagates strict improvements from already-updated seeds.
    fn relax_from(&mut self, g: &DynamicGraph, seeds: Vec<NodeId>) {
        let mut heap: BinaryHeap<Reverse<(u32, NodeId)>> = seeds
            .into_iter()
            .filter_map(|v| self.dist.get(&v).map(|&d| Reverse((d, v))))
            .collect();
        while let Some(Reverse((dv, v))) = heap.pop() {
            if self.dist.get(&v) != Some(&dv) {
                continue; // Stale entry.
            }
            for w in bi_neighbors(g, v).collect::<Vec<_>>() {
                let candidate = dv + 1;
                let improves = match self.dist.get(&w) {
                    Some(&dw) => candidate < dw,
                    None => true,
                };
                if improves {
                    self.dist.insert(w, candidate);
                    self.set_parent(w, v);
                    heap.push(Reverse((candidate, w)));
                }
            }
        }
    }

    /// Collects the tree subtree rooted at each seed (the invalidated set).
    fn subtree_of(&self, seeds: &[NodeId]) -> HashSet<NodeId> {
        let mut affected = HashSet::new();
        let mut stack: Vec<NodeId> = seeds.to_vec();
        while let Some(v) = stack.pop() {
            if affected.insert(v) {
                if let Some(kids) = self.children.get(&v) {
                    stack.extend(kids.iter().copied());
                }
            }
        }
        affected
    }

    /// Invalidates `affected` and repairs it from its boundary: every
    /// affected node adjacent to an intact node becomes a settlement
    /// candidate at `intact_dist + 1`, settled in distance order.
    fn repair(&mut self, g: &DynamicGraph, affected: HashSet<NodeId>) {
        for &a in &affected {
            self.dist.remove(&a);
            self.clear_parent(a);
            // Its children set is rebuilt as members re-attach; entries for
            // affected children are already being cleared via clear_parent.
            self.children.remove(&a);
        }
        let mut heap: BinaryHeap<Reverse<(u32, NodeId, NodeId)>> = BinaryHeap::new();
        for &a in &affected {
            if !g.contains(a) {
                continue;
            }
            for w in bi_neighbors(g, a).collect::<Vec<_>>() {
                if let Some(&dw) = self.dist.get(&w) {
                    heap.push(Reverse((dw + 1, a, w)));
                }
            }
        }
        while let Some(Reverse((d, v, via))) = heap.pop() {
            if self.dist.contains_key(&v) {
                continue;
            }
            self.dist.insert(v, d);
            self.set_parent(v, via);
            for w in bi_neighbors(g, v).collect::<Vec<_>>() {
                if affected.contains(&w) && !self.dist.contains_key(&w) {
                    heap.push(Reverse((d + 1, w, v)));
                }
            }
        }
    }

    /// Applies one topology update (the graph must already reflect it).
    pub fn apply(&mut self, g: &DynamicGraph, update: GraphUpdate) {
        match update {
            GraphUpdate::AddNode(_) => {}
            GraphUpdate::AddEdge(u, v) => {
                // The edge is bi-directed for distance purposes: relax both
                // ways from whichever endpoint is (now) cheaper.
                self.relax_from(g, vec![u, v]);
            }
            GraphUpdate::RemoveEdge(u, v) => {
                if self.root == u || self.root == v {
                    // Root-incident edges can invalidate arbitrary children.
                    let seeds: Vec<NodeId> = [u, v]
                        .into_iter()
                        .filter(|&x| x != self.root && self.parent.get(&x) == Some(&self.root))
                        .collect();
                    if !seeds.is_empty() {
                        let affected = self.subtree_of(&seeds);
                        self.repair(g, affected);
                    }
                    return;
                }
                let mut seeds = Vec::new();
                if self.parent.get(&v) == Some(&u) {
                    seeds.push(v);
                }
                if self.parent.get(&u) == Some(&v) {
                    seeds.push(u);
                }
                if !seeds.is_empty() {
                    let affected = self.subtree_of(&seeds);
                    self.repair(g, affected);
                }
            }
            GraphUpdate::RemoveNode(u) => {
                if u == self.root {
                    // The landmark itself vanished: the tree is void.
                    self.dist.clear();
                    self.parent.clear();
                    self.children.clear();
                    return;
                }
                if !self.dist.contains_key(&u) {
                    return;
                }
                let mut affected = self.subtree_of(&[u]);
                affected.insert(u);
                self.repair(g, affected);
                // `u` is gone from the graph, so repair found no distance
                // for it; drop any residue.
                self.dist.remove(&u);
                self.clear_parent(u);
            }
        }
    }

    /// Test oracle: does the tree match a from-scratch BFS?
    #[cfg(test)]
    pub fn verify(&self, g: &DynamicGraph) -> bool {
        let fresh = LandmarkTree::build(g, self.root);
        fresh.dist == self.dist
    }
}

/// A full landmark set maintained as dynamic trees.
#[derive(Debug, Clone)]
pub struct DynamicLandmarks {
    trees: Vec<LandmarkTree>,
}

impl DynamicLandmarks {
    /// Builds one tree per landmark.
    pub fn build(g: &DynamicGraph, landmarks: &[NodeId]) -> Self {
        Self {
            trees: landmarks
                .iter()
                .map(|&l| LandmarkTree::build(g, l))
                .collect(),
        }
    }

    /// Number of landmarks.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Applies one update to every tree.
    pub fn apply(&mut self, g: &DynamicGraph, update: GraphUpdate) {
        for tree in &mut self.trees {
            tree.apply(g, update);
        }
    }

    /// The node's distance vector to all landmarks, in landmark order —
    /// one column of [`crate::landmarks::Landmarks`]' matrix, but always
    /// current.
    pub fn node_vector(&self, v: NodeId) -> Vec<u16> {
        self.trees.iter().map(|t| t.distance_u16(v)).collect()
    }

    /// Access to an individual tree.
    pub fn tree(&self, i: usize) -> &LandmarkTree {
        &self.trees[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn ring(k: u32) -> DynamicGraph {
        let mut g = DynamicGraph::new();
        for i in 0..k {
            g.add_edge(n(i), n((i + 1) % k));
        }
        g.take_log();
        g
    }

    #[test]
    fn build_matches_bfs() {
        let g = ring(16);
        let t = LandmarkTree::build(&g, n(0));
        assert_eq!(t.distance(n(0)), Some(0));
        assert_eq!(t.distance(n(8)), Some(8));
        assert_eq!(t.distance(n(12)), Some(4));
        assert_eq!(t.reachable(), 16);
        assert!(t.verify(&g));
    }

    #[test]
    fn edge_insertion_creates_shortcut() {
        let mut g = ring(16);
        let mut t = LandmarkTree::build(&g, n(0));
        assert_eq!(t.distance(n(8)), Some(8));
        g.add_edge(n(0), n(8));
        t.apply(&g, GraphUpdate::AddEdge(n(0), n(8)));
        assert_eq!(t.distance(n(8)), Some(1));
        assert_eq!(t.distance(n(7)), Some(2), "neighbour rides the shortcut");
        assert!(t.verify(&g));
    }

    #[test]
    fn edge_removal_repairs_subtree() {
        let mut g = ring(16);
        let mut t = LandmarkTree::build(&g, n(0));
        // Cut 4-5: nodes 5..8 must re-route the long way round.
        g.remove_edge(n(4), n(5)).unwrap();
        t.apply(&g, GraphUpdate::RemoveEdge(n(4), n(5)));
        assert_eq!(t.distance(n(5)), Some(11));
        assert_eq!(t.distance(n(4)), Some(4));
        assert!(t.verify(&g));
    }

    #[test]
    fn disconnecting_removal_unreaches() {
        let mut g = DynamicGraph::new();
        g.add_edge(n(0), n(1));
        g.add_edge(n(1), n(2));
        let mut t = LandmarkTree::build(&g, n(0));
        g.remove_edge(n(1), n(2)).unwrap();
        t.apply(&g, GraphUpdate::RemoveEdge(n(1), n(2)));
        assert_eq!(t.distance(n(2)), None);
        assert_eq!(t.distance_u16(n(2)), UNREACHED_U16);
        assert!(t.verify(&g));
    }

    #[test]
    fn node_removal_repairs() {
        let mut g = ring(12);
        // Chord so removing node 3 leaves an alternative.
        g.add_edge(n(2), n(4));
        let mut t = LandmarkTree::build(&g, n(0));
        g.remove_node(n(3)).unwrap();
        t.apply(&g, GraphUpdate::RemoveNode(n(3)));
        assert_eq!(t.distance(n(3)), None);
        assert_eq!(t.distance(n(4)), Some(3));
        assert!(t.verify(&g));
    }

    #[test]
    fn root_removal_voids_tree() {
        let mut g = ring(8);
        let mut t = LandmarkTree::build(&g, n(0));
        g.remove_node(n(0)).unwrap();
        t.apply(&g, GraphUpdate::RemoveNode(n(0)));
        assert_eq!(t.reachable(), 0);
        assert_eq!(t.distance(n(1)), None);
    }

    #[test]
    fn new_node_attaches_via_edge() {
        let mut g = ring(8);
        let mut t = LandmarkTree::build(&g, n(0));
        g.add_node(n(100)).unwrap();
        t.apply(&g, GraphUpdate::AddNode(n(100)));
        assert_eq!(t.distance(n(100)), None);
        g.add_edge(n(100), n(4));
        t.apply(&g, GraphUpdate::AddEdge(n(100), n(4)));
        assert_eq!(t.distance(n(100)), Some(5));
        assert!(t.verify(&g));
    }

    #[test]
    fn dynamic_landmark_set_tracks_all_trees() {
        let mut g = ring(16);
        let mut dl = DynamicLandmarks::build(&g, &[n(0), n(8)]);
        assert_eq!(dl.len(), 2);
        assert_eq!(dl.node_vector(n(4)), vec![4, 4]);
        g.add_edge(n(0), n(4));
        dl.apply(&g, GraphUpdate::AddEdge(n(0), n(4)));
        assert_eq!(dl.node_vector(n(4)), vec![1, 4]);
        assert!(dl.tree(0).verify(&g));
        assert!(dl.tree(1).verify(&g));
    }

    proptest::proptest! {
        /// After any interleaving of updates, every tree equals a fresh BFS.
        #[test]
        fn prop_tree_equals_fresh_bfs(
            base in proptest::collection::vec((0u32..14, 0u32..14), 4..40),
            ops in proptest::collection::vec((0u8..3, 0u32..14, 0u32..14), 1..40),
            root in 0u32..14,
        ) {
            let mut g = DynamicGraph::new();
            for (s, d) in &base {
                g.add_edge(n(*s), n(*d));
            }
            // The root must exist for the tree to be meaningful.
            g.add_edge(n(root), n((root + 1) % 14));
            g.take_log();
            let mut t = LandmarkTree::build(&g, n(root));
            for (op, a, b) in ops {
                let update = match op {
                    0 => {
                        if !g.add_edge(n(a), n(b)) {
                            continue;
                        }
                        GraphUpdate::AddEdge(n(a), n(b))
                    }
                    1 => {
                        match g.remove_edge(n(a), n(b)) {
                            Ok(true) => GraphUpdate::RemoveEdge(n(a), n(b)),
                            _ => continue,
                        }
                    }
                    _ => {
                        if n(a) == n(root) || g.remove_node(n(a)).is_err() {
                            continue;
                        }
                        GraphUpdate::RemoveNode(n(a))
                    }
                };
                t.apply(&g, update);
                proptest::prop_assert!(
                    t.verify(&g),
                    "tree diverged after {:?}",
                    update
                );
            }
        }
    }
}
