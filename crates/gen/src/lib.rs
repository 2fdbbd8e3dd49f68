//! Synthetic graph generators and dataset profiles.
//!
//! The paper evaluates on four real graphs (Table 1) that are not shipped
//! with this reproduction, so [`profiles`] provides scaled synthetic
//! stand-ins whose node:edge ratio and degree skew match each dataset (see
//! DESIGN.md §1 for the substitution argument). The generators behind them:
//!
//! * [`community`] — power-law graphs with planted communities, the
//!   web/social stand-ins;
//! * `er` — Erdős–Rényi `G(n, m)` random graphs (the Freebase stand-in);
//! * `zipf` — a bounded Zipf sampler used for skewed label draws;
//! * [`labels`] — node/edge label assignment for knowledge-graph workloads.
//!
//! Every generator is deterministic given a `u64` seed.

pub mod community;
mod er;
pub mod labels;
pub mod profiles;
mod zipf;

pub use profiles::{DatasetProfile, ProfileName};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Creates the deterministic RNG used by all generators.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn rng_is_deterministic() {
        let mut a = rng(7);
        let mut b = rng(7);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn rng_differs_by_seed() {
        let mut a = rng(1);
        let mut b = rng(2);
        let va: Vec<u64> = (0..4).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }
}
