//! Graph embedding into a low-dimensional Euclidean space (§3.4.2).
//!
//! "We embed a graph into a lower dimensional Euclidean space such that the
//! hop-count distance between graph nodes are approximately preserved via
//! their Euclidean distance."
//!
//! The pipeline mirrors the paper (and Orion [36], which it builds on):
//!
//! 1. landmarks are embedded first, minimising the pairwise *relative*
//!    distance error (Eq. 4) with Simplex Downhill — incrementally (each
//!    landmark against those already placed) plus full refinement sweeps;
//! 2. every other node is embedded independently (parallelisable) against
//!    its nearest landmarks, again with Simplex Downhill. A node's placement
//!    is a pure function of that list — the `(landmark, hop)` pairs sorted
//!    by hop, ties by landmark, cut to `nearest_landmarks` — so each
//!    distinct list is solved once and its point copied to every node that
//!    holds it (on the benchmark's WebGraph profile, ~106 k nodes share
//!    ~25 k lists). Only a node that reaches no landmark has a per-node
//!    placement, seeded by its id;
//! 3. coordinates are stored as `f32` — 4 bytes × D per node, which at
//!    D = 10 reproduces Table 3's 4 GB for the 106 M-node WebGraph.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use grouting_graph::{IdBuildHasher, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::landmarks::Landmarks;
use crate::simplex::{minimize, SimplexOptions};
use crate::UNREACHED_U16;

/// Tuning for the embedding pipeline.
#[derive(Debug, Clone, Copy)]
pub struct EmbeddingConfig {
    /// Euclidean dimensionality D (the paper settles on 10).
    pub dimensions: usize,
    /// Full re-embedding sweeps over the landmark set after the incremental
    /// placement pass.
    pub landmark_sweeps: usize,
    /// Simplex iterations per landmark placement.
    pub landmark_iters: usize,
    /// Simplex iterations per node placement.
    pub node_iters: usize,
    /// Each node's objective uses its closest `k` landmarks (Orion-style),
    /// keeping per-node cost independent of |L|.
    pub nearest_landmarks: usize,
    /// Seed for initial coordinates.
    pub seed: u64,
}

impl Default for EmbeddingConfig {
    fn default() -> Self {
        Self {
            dimensions: 10,
            landmark_sweeps: 3,
            landmark_iters: 400,
            node_iters: 60,
            nearest_landmarks: 16,
            seed: 0x0410,
        }
    }
}

/// Node coordinates in the embedded space.
#[derive(Debug, Clone)]
pub struct Embedding {
    dim: usize,
    /// Row-major `coords[v * dim ..][..dim]`, `f32` per Table 3.
    coords: Vec<f32>,
    nodes: usize,
    /// Landmark ids in the order their coordinates appear below.
    landmark_ids: Vec<NodeId>,
    /// Landmark coordinates kept at `f64` for re-embedding new nodes.
    landmark_coords: Vec<f64>,
    /// Wall-clock time of `build`'s landmark stage and node stage.
    build_times: (Duration, Duration),
}

/// Where a node's coordinates come from.
#[derive(Debug, Clone, Copy)]
enum Placement {
    /// It is landmark `i`.
    Landmark(u32),
    /// It reaches no landmark.
    Unreached,
    /// The solve of distinct nearest-landmark list `k`.
    List(u32),
}

/// The relative-error term of Eq. 4 for one (graph-distance, point) pair.
#[inline]
fn relative_error_term(graph_d: f64, euclid_d: f64) -> f64 {
    (graph_d - euclid_d).abs() / graph_d.max(1.0)
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

impl Embedding {
    /// Embeds every node of the graph underlying `landmarks`.
    ///
    /// # Panics
    ///
    /// Panics if `landmarks` is empty or `config.dimensions == 0`.
    pub fn build(landmarks: &Landmarks, config: &EmbeddingConfig) -> Self {
        assert!(!landmarks.is_empty(), "cannot embed without landmarks");
        assert!(config.dimensions > 0, "zero dimensions");
        let d = config.dimensions;
        let n = landmarks.dist[0].len();

        let t = Instant::now();
        let landmark_coords = embed_landmarks(landmarks, config);
        let landmarks_time = t.elapsed();

        let t = Instant::now();
        // The table that outlives `build` first, beneath the stage's scratch.
        let mut coords = vec![0f32; n * d];
        let (placements, lists) = nearest_lists(landmarks, config.nearest_landmarks);
        let solved = solve_lists(&lists, &landmark_coords, d, config);
        for (v, (out, placement)) in coords.chunks_mut(d).zip(&placements).enumerate() {
            match *placement {
                Placement::List(k) => out.copy_from_slice(&solved[k as usize * d..][..d]),
                Placement::Landmark(i) => narrow(out, &landmark_coords[i as usize * d..][..d]),
                Placement::Unreached => narrow(out, &unreached_point(NODE_SEED ^ v as u64, d)),
            }
        }
        let nodes_time = t.elapsed();

        Self {
            dim: d,
            coords,
            nodes: n,
            landmark_ids: landmarks.nodes.clone(),
            landmark_coords,
            build_times: (landmarks_time, nodes_time),
        }
    }

    /// Wall-clock time [`Embedding::build`] spent placing the landmarks and
    /// then every other node (Table 2's two embedding stages).
    pub fn build_times(&self) -> (Duration, Duration) {
        self.build_times
    }

    /// Dimensionality D.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of embedded nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Coordinates of `node`.
    #[inline]
    pub fn coords(&self, node: NodeId) -> &[f32] {
        let start = node.index() * self.dim;
        &self.coords[start..start + self.dim]
    }

    /// Euclidean distance between two embedded nodes.
    pub fn distance(&self, u: NodeId, v: NodeId) -> f64 {
        self.coords(u)
            .iter()
            .zip(self.coords(v))
            .map(|(a, b)| (*a as f64 - *b as f64).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    /// The landmark ids used for this embedding.
    pub fn landmark_ids(&self) -> &[NodeId] {
        &self.landmark_ids
    }

    /// Embeds a *new* node given its distances to the landmarks (the
    /// paper's incremental update path) and returns its coordinates.
    pub fn embed_from_landmark_distances(
        &self,
        dists: &[u16],
        config: &EmbeddingConfig,
    ) -> Vec<f32> {
        let point = embed_vector(
            dists,
            &self.landmark_coords,
            self.dim,
            config,
            0xFEED ^ dists.len() as u64,
        );
        point.into_iter().map(|x| x as f32).collect()
    }

    /// Overwrites (or appends, when `node` is the next id) coordinates.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch or a gap beyond the current node range.
    pub fn set_coords(&mut self, node: NodeId, point: &[f32]) {
        assert_eq!(point.len(), self.dim, "dimension mismatch");
        let start = node.index() * self.dim;
        if start + self.dim <= self.coords.len() {
            self.coords[start..start + self.dim].copy_from_slice(point);
        } else if node.index() == self.nodes {
            self.coords.extend_from_slice(point);
            self.nodes += 1;
        } else {
            panic!("coords for node {node} beyond embedding end");
        }
    }

    /// Bytes held by the coordinate table (Table 3 accounting): 4·D per
    /// node.
    pub fn storage_bytes(&self) -> usize {
        self.coords.len() * 4
    }
}

/// Places the landmarks: incremental insert, then full refinement sweeps.
fn embed_landmarks(landmarks: &Landmarks, config: &EmbeddingConfig) -> Vec<f64> {
    let d = config.dimensions;
    let l = landmarks.len();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut coords = vec![0f64; l * d];

    let ld = |i: usize, j: usize| -> Option<f64> {
        let v = landmarks.landmark_distance(i, j);
        (v != UNREACHED_U16).then_some(v as f64)
    };

    // Incremental placement: landmark 0 at the origin; each next landmark
    // minimises error against those already placed.
    for i in 1..l {
        let placed = i;
        let objective = |x: &[f64]| -> f64 {
            let mut sum = 0.0;
            for j in 0..placed {
                if let Some(dij) = ld(i, j) {
                    let e = euclid(x, &coords[j * d..(j + 1) * d]);
                    sum += relative_error_term(dij, e);
                }
            }
            sum
        };
        // Seed near the first placed landmark it can see, jittered.
        let radius = ld(i, 0).unwrap_or(1.0);
        let seed_point: Vec<f64> = (0..d).map(|_| (rng.gen::<f64>() - 0.5) * radius).collect();
        let r = minimize(
            objective,
            &seed_point,
            &SimplexOptions {
                max_iters: config.landmark_iters,
                tolerance: 1e-9,
                initial_step: (radius / 4.0).max(0.25),
            },
        );
        coords[i * d..(i + 1) * d].copy_from_slice(&r.point);
    }

    // Refinement sweeps: re-place each landmark against all the others.
    for _ in 0..config.landmark_sweeps {
        for i in 0..l {
            let current = coords[i * d..(i + 1) * d].to_vec();
            let objective = |x: &[f64]| -> f64 {
                let mut sum = 0.0;
                for j in 0..l {
                    if j == i {
                        continue;
                    }
                    if let Some(dij) = ld(i, j) {
                        let e = euclid(x, &coords[j * d..(j + 1) * d]);
                        sum += relative_error_term(dij, e);
                    }
                }
                sum
            };
            let r = minimize(
                objective,
                &current,
                &SimplexOptions {
                    max_iters: config.landmark_iters / 2,
                    tolerance: 1e-9,
                    initial_step: 0.5,
                },
            );
            coords[i * d..(i + 1) * d].copy_from_slice(&r.point);
        }
    }
    coords
}

/// Seed salt of an unreached node's placement in [`Embedding::build`]
/// (xor-ed with its id).
const NODE_SEED: u64 = 0x9E37;

/// Writes an `f64` point into `f32` storage.
fn narrow(out: &mut [f32], point: &[f64]) {
    for (o, p) in out.iter_mut().zip(point) {
        *o = *p as f32;
    }
}

/// A point for a node disconnected from every landmark: deterministically
/// far out, so such nodes cluster away from the embedded mass.
fn unreached_point(seed: u64, d: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..d).map(|_| 1e4 + rng.gen::<f64>() * 1e3).collect()
}

/// One entry of a nearest-landmark list: `hop << 32 | landmark`, so that
/// ascending order is by hop, ties by landmark index.
#[inline]
fn entry(landmark: usize, hop: u16) -> u64 {
    u64::from(hop) << 32 | landmark as u64
}

#[inline]
fn split(entry: u64) -> (usize, u16) {
    ((entry & u64::from(u32::MAX)) as usize, (entry >> 32) as u16)
}

/// Fills `out` with the `k` nearest reachable landmarks of a node whose
/// landmark hops are `hops`, ascending (see [`entry`]).
fn nearest_list(hops: impl Iterator<Item = u16>, k: usize, out: &mut Vec<u64>) {
    out.clear();
    out.extend(
        hops.enumerate()
            .filter(|&(_, hop)| hop != UNREACHED_U16)
            .map(|(i, hop)| entry(i, hop)),
    );
    let k = k.max(1);
    if out.len() > k {
        out.select_nth_unstable(k);
        out.truncate(k);
    }
    out.sort_unstable();
}

/// Every node's placement, and the distinct nearest-landmark lists the
/// non-landmark nodes hold, numbered in order of first appearance. Each
/// list is stored once, at its exact length.
fn nearest_lists(landmarks: &Landmarks, k: usize) -> (Vec<Placement>, Vec<Box<[u64]>>) {
    let n = landmarks.dist[0].len();
    let mut placements = vec![Placement::Unreached; n];
    // A landmark listed twice takes its last index.
    for (i, id) in landmarks.nodes.iter().enumerate() {
        if let Some(p) = placements.get_mut(id.index()) {
            *p = Placement::Landmark(i as u32);
        }
    }
    let mut ids: HashMap<Box<[u64]>, u32, IdBuildHasher> = HashMap::default();
    let mut list = Vec::with_capacity(landmarks.len());
    for (v, placement) in placements.iter_mut().enumerate() {
        if matches!(placement, Placement::Landmark(_)) {
            continue;
        }
        nearest_list(landmarks.dist.iter().map(|row| row[v]), k, &mut list);
        if list.is_empty() {
            continue;
        }
        let id = match ids.get(&list[..]) {
            Some(&id) => id,
            None => {
                let id = ids.len() as u32;
                ids.insert(list[..].into(), id);
                id
            }
        };
        *placement = Placement::List(id);
    }
    let mut lists = vec![Box::default(); ids.len()];
    for (list, id) in ids {
        lists[id as usize] = list;
    }
    (placements, lists)
}

/// Lists a solver thread claims at a time.
const SOLVE_BLOCK: usize = 256;

/// Solves every list, in parallel: threads claim blocks of lists from one
/// shared cursor, so a slow share cannot hold the others up. Row `k` of
/// the result is list `k`'s point.
fn solve_lists(
    lists: &[Box<[u64]>],
    landmark_coords: &[f64],
    d: usize,
    config: &EmbeddingConfig,
) -> Vec<f32> {
    let mut out = vec![0f32; lists.len() * d];
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1)
        .min(lists.len().div_ceil(SOLVE_BLOCK));
    let blocks = Mutex::new(
        lists
            .chunks(SOLVE_BLOCK)
            .zip(out.chunks_mut(SOLVE_BLOCK * d)),
    );
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let block = blocks.lock().expect("solver cursor").next();
                let Some((lists, out)) = block else { break };
                for (list, out) in lists.iter().zip(out.chunks_mut(d)) {
                    narrow(out, &solve_list(list, landmark_coords, d, config));
                }
            });
        }
    });
    out
}

/// Places a point against a non-empty nearest-landmark list with Simplex
/// Downhill, minimising the summed relative error (Eq. 4).
fn solve_list(
    list: &[u64],
    landmark_coords: &[f64],
    d: usize,
    config: &EmbeddingConfig,
) -> Vec<f64> {
    let k = list.len();
    // Seed at the weighted centroid of the chosen landmarks (closer ⇒
    // heavier).
    let mut seed_point = vec![0f64; d];
    let mut total_w = 0f64;
    for &e in list {
        let (i, hop) = split(e);
        let w = 1.0 / (hop as f64 + 1.0);
        for (s, c) in seed_point.iter_mut().zip(&landmark_coords[i * d..][..d]) {
            *s += w * c;
        }
        total_w += w;
    }
    for s in &mut seed_point {
        *s /= total_w;
    }

    // The listed landmarks' coordinates as structure of arrays: row `j`
    // holds coordinate `j` of each, so each landmark's squared distance
    // accumulates in its own lane, in `euclid`'s order, and the lanes
    // vectorise. Same operations as `euclid` per landmark, same bits.
    let mut columns = vec![0f64; d * k];
    for (lane, &e) in list.iter().enumerate() {
        let (i, _) = split(e);
        for (j, &c) in landmark_coords[i * d..][..d].iter().enumerate() {
            columns[j * k + lane] = c;
        }
    }
    let hops: Vec<f64> = list.iter().map(|&e| split(e).1 as f64).collect();
    let mut lanes = vec![0f64; k];
    let objective = |x: &[f64]| -> f64 {
        lanes.fill(0.0);
        for (&xj, column) in x.iter().zip(columns.chunks_exact(k)) {
            for (acc, &c) in lanes.iter_mut().zip(column) {
                *acc += (xj - c) * (xj - c);
            }
        }
        let mut sum = 0.0;
        for (&sq, &hop) in lanes.iter().zip(&hops) {
            sum += relative_error_term(hop, sq.sqrt());
        }
        sum
    };
    minimize(
        objective,
        &seed_point,
        &SimplexOptions {
            max_iters: config.node_iters,
            tolerance: 1e-7,
            initial_step: 0.5,
        },
    )
    .point
}

/// Embeds a point from a landmark-distance vector: the nearest-list solve
/// [`Embedding::build`] memoises, or the seeded far placement when no
/// landmark is reachable.
pub(crate) fn embed_vector(
    dists: &[u16],
    landmark_coords: &[f64],
    d: usize,
    config: &EmbeddingConfig,
    seed: u64,
) -> Vec<f64> {
    let mut list = Vec::new();
    nearest_list(dists.iter().copied(), config.nearest_landmarks, &mut list);
    if list.is_empty() {
        return unreached_point(seed, d);
    }
    solve_list(&list, landmark_coords, d, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmarks::LandmarkConfig;
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

    fn quick_config(dim: usize) -> EmbeddingConfig {
        EmbeddingConfig {
            dimensions: dim,
            landmark_sweeps: 2,
            landmark_iters: 200,
            node_iters: 80,
            nearest_landmarks: 8,
            seed: 7,
        }
    }

    fn ring_embedding(k: u32, landmarks: usize, dim: usize) -> (Embedding, Landmarks, CsrGraph) {
        let g = ring(k);
        // Rings have uniform degree, so the degree rule alone would cluster
        // landmarks at low ids; a separation of k/|L| spreads them evenly,
        // matching the paper's "how well they spread over the entire graph".
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: landmarks,
                min_separation: (k as usize / landmarks).max(2) as u32,
            },
        );
        let emb = Embedding::build(&lm, &quick_config(dim));
        (emb, lm, g)
    }

    #[test]
    fn dimensions_and_storage() {
        let (emb, _, g) = ring_embedding(32, 6, 5);
        assert_eq!(emb.dim(), 5);
        assert_eq!(emb.node_count(), g.node_count());
        assert_eq!(emb.storage_bytes(), 32 * 5 * 4);
    }

    #[test]
    fn nearby_nodes_are_close_far_nodes_are_far() {
        let (emb, _, _) = ring_embedding(48, 8, 6);
        // Average embedded distance of ring-adjacent pairs should be far
        // below that of ring-antipodal pairs.
        let mut near = 0.0;
        let mut far = 0.0;
        for v in 0..48u32 {
            near += emb.distance(n(v), n((v + 1) % 48));
            far += emb.distance(n(v), n((v + 24) % 48));
        }
        assert!(
            near * 3.0 < far,
            "near avg {} vs far avg {}",
            near / 48.0,
            far / 48.0
        );
    }

    #[test]
    fn landmark_pairwise_distances_roughly_preserved() {
        let (emb, lm, _) = ring_embedding(40, 6, 8);
        let mut total_err = 0.0;
        let mut pairs = 0;
        for i in 0..lm.len() {
            for j in (i + 1)..lm.len() {
                let gd = lm.landmark_distance(i, j) as f64;
                let ed = emb.distance(lm.nodes[i], lm.nodes[j]);
                total_err += (gd - ed).abs() / gd.max(1.0);
                pairs += 1;
            }
        }
        let mean = total_err / pairs as f64;
        assert!(mean < 0.35, "mean landmark relative error {mean}");
    }

    #[test]
    fn higher_dimensions_reduce_error() {
        let (emb2, lm, _) = ring_embedding(40, 8, 2);
        let g = ring(40);
        let lm8 = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 8,
                min_separation: 2,
            },
        );
        let emb8 = Embedding::build(&lm8, &quick_config(8));
        let err = |emb: &Embedding, lm: &Landmarks| -> f64 {
            let mut t = 0.0;
            let mut c = 0;
            for i in 0..lm.len() {
                for j in (i + 1)..lm.len() {
                    let gd = lm.landmark_distance(i, j) as f64;
                    t += (gd - emb.distance(lm.nodes[i], lm.nodes[j])).abs() / gd.max(1.0);
                    c += 1;
                }
            }
            t / c as f64
        };
        let e2 = err(&emb2, &lm);
        let e8 = err(&emb8, &lm8);
        assert!(
            e8 <= e2 + 0.05,
            "8D error {e8} should not exceed 2D error {e2}"
        );
    }

    #[test]
    fn incremental_embed_lands_near_neighbors() {
        let (emb, lm, _) = ring_embedding(32, 6, 6);
        // Pretend node 5 is new: embed it from its landmark distances.
        let dists = lm.node_vector(n(5));
        let point = emb.embed_from_landmark_distances(&dists, &quick_config(6));
        let old = emb.coords(n(5));
        let drift: f64 = point
            .iter()
            .zip(old)
            .map(|(a, b)| (*a as f64 - *b as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        // Same inputs, same objective: the re-embedded point must be close
        // to the original placement (not exact: different seeds).
        assert!(drift < 3.0, "drift {drift}");
    }

    #[test]
    fn set_coords_appends() {
        let (mut emb, _, _) = ring_embedding(16, 4, 3);
        emb.set_coords(n(16), &[1.0, 2.0, 3.0]);
        assert_eq!(emb.node_count(), 17);
        assert_eq!(emb.coords(n(16)), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn disconnected_nodes_placed_far_away() {
        let mut b = GraphBuilder::with_nodes(20);
        for i in 0..10u32 {
            b.add_edge(n(i), n((i + 1) % 10));
        }
        // Nodes 10..19 are isolated.
        let g = b.build().unwrap();
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 3,
                min_separation: 2,
            },
        );
        let emb = Embedding::build(&lm, &quick_config(4));
        let far = emb.distance(n(0), n(15));
        let near = emb.distance(n(0), n(1));
        assert!(far > 100.0 * near.max(0.1), "far {far} near {near}");
    }

    #[test]
    #[should_panic(expected = "zero dimensions")]
    fn rejects_zero_dimensions() {
        let g = ring(8);
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 2,
                min_separation: 2,
            },
        );
        let mut cfg = quick_config(1);
        cfg.dimensions = 0;
        let _ = Embedding::build(&lm, &cfg);
    }

    /// Asserts `build`'s coordinates equal, bit for bit, one `embed_vector`
    /// per node (the last listed index for a landmark) — the per-node path
    /// the memoised build replaced.
    fn assert_equals_per_node(lm: &Landmarks, emb: &Embedding, config: &EmbeddingConfig) {
        let d = config.dimensions;
        let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for v in 0..emb.node_count() {
            let v = n(v as u32);
            let expected: Vec<f32> = match lm.nodes.iter().rposition(|&l| l == v) {
                Some(i) => emb.landmark_coords[i * d..][..d].to_vec(),
                None => embed_vector(
                    &lm.node_vector(v),
                    &emb.landmark_coords,
                    d,
                    config,
                    NODE_SEED ^ v.raw() as u64,
                ),
            }
            .into_iter()
            .map(|x| x as f32)
            .collect();
            assert_eq!(bits(emb.coords(v)), bits(&expected), "node {v}");
        }
    }

    #[test]
    fn star_of_stars_shares_lists_and_keeps_seeded_strays() {
        // Hub 0 with six sub-hubs, each with 30 leaves; nodes 187 and 188
        // reach nothing.
        let mut b = GraphBuilder::with_nodes(189);
        let mut next = 7;
        for hub in 1..=6u32 {
            b.add_edge(n(0), n(hub));
            for _ in 0..30 {
                b.add_edge(n(hub), n(next));
                next += 1;
            }
        }
        let g = b.build().unwrap();
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 7,
                min_separation: 1,
            },
        );
        let config = quick_config(4);
        let emb = Embedding::build(&lm, &config);
        assert_equals_per_node(&lm, &emb, &config);

        // The seven landmarks are the hubs; the 180 leaves hold six lists
        // between them, each naming all seven.
        assert_eq!(lm.len(), 7);
        let (_, lists) = nearest_lists(&lm, config.nearest_landmarks);
        assert_eq!(lists.len(), 6);
        assert!(lists.iter().all(|list| list.len() == 7));
        let (a, b) = (emb.coords(n(187)), emb.coords(n(188)));
        assert_ne!(a, b, "unreached nodes keep their own seeded placements");
        assert!(a.iter().chain(b).all(|&x| x >= 1e4));
    }

    proptest::proptest! {
        /// The memoised build equals one solve per node on random graphs
        /// with several components and isolated nodes.
        #[test]
        fn prop_build_equals_per_node_embedding(
            nodes in 8u32..60,
            edges in proptest::collection::vec((0u32..60, 0u32..60), 4..120),
            count in 1usize..12,
            dim in 1usize..5,
            nearest in 1usize..6,
        ) {
            let mut b = GraphBuilder::with_nodes(nodes as usize);
            for (s, d) in edges {
                if s < nodes && d < nodes {
                    b.add_edge(n(s), n(d));
                }
            }
            let g = b.build().unwrap();
            let lm = Landmarks::build(&g, &LandmarkConfig { count, min_separation: 1 });
            if !lm.is_empty() {
                let config = EmbeddingConfig {
                    nearest_landmarks: nearest,
                    ..quick_config(dim)
                };
                let emb = Embedding::build(&lm, &config);
                assert_equals_per_node(&lm, &emb, &config);
            }
        }
    }
}
