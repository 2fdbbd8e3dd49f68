//! Embed routing state: per-processor EMA of served query coordinates.
//!
//! "By keeping an average of the query nodes' co-ordinates that it sent to
//! each processor, the router is able to infer the cache contents in these
//! processors" (§3.4.2). Because LRU favours recent queries, the average is
//! exponential-moving (Eq. 5): `mean(p) ← α · mean(p) + (1 − α) · coords(v)`.

use std::sync::Arc;

use grouting_embed::Embedding;
use grouting_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The embed-routing decision state.
#[derive(Debug, Clone)]
pub struct EmbedRouter {
    embedding: Arc<Embedding>,
    alpha: f64,
    /// Per-processor mean coordinates (Eq. 5 state).
    means: Vec<Vec<f64>>,
}

impl EmbedRouter {
    /// Creates the router state with random initial means (the paper:
    /// "initially, the mean co-ordinates for each processor are assigned
    /// uniformly at random").
    ///
    /// Means are seeded from the coordinates of uniformly random *nodes* so
    /// they start inside the embedded point cloud — a uniform box draw can
    /// land every mean far outside the cloud, collapsing the initial
    /// Voronoi partition onto one processor.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]` or `processors == 0`.
    pub fn new(embedding: Arc<Embedding>, processors: usize, alpha: f64, seed: u64) -> Self {
        assert!(processors > 0, "zero processors");
        assert!((0.0..=1.0).contains(&alpha), "alpha out of [0,1]: {alpha}");
        let dim = embedding.dim();
        let n = embedding.node_count();
        let mut rng = StdRng::seed_from_u64(seed);
        let means = (0..processors)
            .map(|_| {
                if n == 0 {
                    (0..dim).map(|_| rng.gen::<f64>() * 4.0 - 2.0).collect()
                } else {
                    let node = grouting_graph::NodeId::new(rng.gen_range(0..n) as u32);
                    embedding
                        .coords(node)
                        .iter()
                        .map(|&c| c as f64 + rng.gen::<f64>() * 0.25)
                        .collect()
                }
            })
            .collect();
        Self {
            embedding,
            alpha,
            means,
        }
    }

    /// Number of processors tracked.
    pub fn processors(&self) -> usize {
        self.means.len()
    }

    /// The smoothing parameter α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The underlying embedding.
    pub fn embedding(&self) -> &Arc<Embedding> {
        &self.embedding
    }

    /// `d₁(u, p)`: L2 distance from the node's coordinates to the
    /// processor's mean (Eq. 6).
    pub fn distance(&self, node: NodeId, processor: usize) -> f64 {
        if node.index() >= self.embedding.node_count() {
            // Unembedded node (e.g. added after preprocessing, not yet
            // refreshed): no locality signal, neutral large distance.
            return f64::MAX / 4.0;
        }
        let c = self.embedding.coords(node);
        self.means[processor]
            .iter()
            .zip(c)
            .map(|(m, x)| (m - *x as f64).powi(2))
            .sum::<f64>()
            .sqrt()
    }

    /// Applies Eq. 5 after dispatching a query on `node` to `processor`.
    pub fn update(&mut self, node: NodeId, processor: usize) {
        if node.index() >= self.embedding.node_count() {
            return;
        }
        let c = self.embedding.coords(node);
        for (m, x) in self.means[processor].iter_mut().zip(c) {
            *m = self.alpha * *m + (1.0 - self.alpha) * *x as f64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_embed::landmarks::{LandmarkConfig, Landmarks};
    use grouting_embed::EmbeddingConfig;
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

    fn embedding(k: u32) -> Arc<Embedding> {
        let g = ring(k);
        let lm = Landmarks::build(
            &g,
            &LandmarkConfig {
                count: 6,
                min_separation: (k as usize / 6).max(2) as u32,
            },
        );
        Arc::new(Embedding::build(
            &lm,
            &EmbeddingConfig {
                dimensions: 4,
                landmark_sweeps: 1,
                landmark_iters: 150,
                node_iters: 50,
                nearest_landmarks: 6,
                seed: 11,
            },
        ))
    }

    #[test]
    fn update_pulls_mean_toward_query() {
        let emb = embedding(32);
        let mut er = EmbedRouter::new(Arc::clone(&emb), 2, 0.5, 1);
        let before = er.distance(n(5), 0);
        for _ in 0..10 {
            er.update(n(5), 0);
        }
        let after = er.distance(n(5), 0);
        assert!(after < before, "before {before} after {after}");
        assert!(after < 1e-2, "mean should converge to the point: {after}");
    }

    #[test]
    fn alpha_one_freezes_mean() {
        let emb = embedding(16);
        let mut er = EmbedRouter::new(emb, 2, 1.0, 2);
        let before = er.distance(n(3), 1);
        er.update(n(3), 1);
        let after = er.distance(n(3), 1);
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn alpha_zero_jumps_to_last_query() {
        let emb = embedding(16);
        let mut er = EmbedRouter::new(emb, 2, 0.0, 3);
        er.update(n(3), 0);
        assert!(er.distance(n(3), 0) < 1e-9);
    }

    #[test]
    fn ema_gap_shrinks_by_exactly_alpha_per_update() {
        // Eq. 5: mean ← α·mean + (1−α)·coords(v), so the residual
        // mean − coords(v) scales by α on every update — the distance to
        // the repeated query node must decay geometrically at rate α.
        let emb = embedding(32);
        for alpha in [0.25, 0.5, 0.9] {
            let mut er = EmbedRouter::new(Arc::clone(&emb), 2, alpha, 8);
            er.update(n(5), 0);
            let d0 = er.distance(n(5), 0);
            assert!(d0 > 0.0, "mean should not start on the node");
            er.update(n(5), 0);
            let d1 = er.distance(n(5), 0);
            assert!(
                (d1 - alpha * d0).abs() <= 1e-9 * d0.max(1.0),
                "alpha {alpha}: expected {}, got {d1}",
                alpha * d0
            );
        }
    }

    #[test]
    fn load_balanced_distance_overrides_proximity_under_load() {
        // Eq. 3/7 (Requirement 2): the router scores processors by
        // d₁(u, p) + load(p)/load_factor, so a processor whose EMA mean is
        // nearest still loses the query once its queue grows long enough.
        use crate::strategy::Strategy;
        use grouting_query::Query;

        let emb = embedding(48);
        let mut er = EmbedRouter::new(Arc::clone(&emb), 2, 0.5, 4);
        for i in 0..6u32 {
            er.update(n(i), 0);
            er.update(n(24 + i), 1);
        }
        let s = Strategy::Embed(er);
        let query = Query::NeighborAggregation {
            node: n(7),
            hops: 2,
            label: None,
        };
        let up = [true, true];
        // Idle cluster: embedding proximity decides — processor 0.
        assert_eq!(s.preferred(&query, &[0, 0], &up, 1.0), Some(0));
        // Equal queues keep the proximity choice.
        assert_eq!(s.preferred(&query, &[5, 5], &up, 1.0), Some(0));
        // A deep queue on the near processor flips the decision.
        assert_eq!(s.preferred(&query, &[1000, 0], &up, 1.0), Some(1));
        // A large load factor discounts queue lengths back to proximity.
        assert_eq!(s.preferred(&query, &[1000, 0], &up, 1e9), Some(0));
    }

    #[test]
    fn nearby_nodes_prefer_same_processor_after_warmup() {
        let emb = embedding(48);
        let mut er = EmbedRouter::new(Arc::clone(&emb), 2, 0.5, 4);
        // Send nodes around 0 to processor 0, nodes around 24 to processor 1.
        for i in 0..6u32 {
            er.update(n(i), 0);
            er.update(n(24 + i), 1);
        }
        // A fresh nearby node should now be closer to its region's processor.
        assert!(er.distance(n(7), 0) < er.distance(n(7), 1));
        assert!(er.distance(n(30), 1) < er.distance(n(30), 0));
    }

    #[test]
    fn unembedded_node_is_neutral() {
        let emb = embedding(16);
        let mut er = EmbedRouter::new(emb, 2, 0.5, 5);
        let d = er.distance(n(999), 0);
        assert!(d > 1e100);
        er.update(n(999), 0); // Must not panic or distort means.
        assert!(er.distance(n(0), 0).is_finite());
    }

    #[test]
    #[should_panic(expected = "alpha out of")]
    fn rejects_bad_alpha() {
        let emb = embedding(16);
        let _ = EmbedRouter::new(emb, 2, 1.5, 0);
    }
}
