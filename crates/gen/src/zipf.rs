//! Bounded Zipf distribution sampler.

use rand::Rng;

/// Samples ranks `0..n` with probability proportional to `1/(rank+1)^s`.
///
/// Implemented with a precomputed cumulative table and binary search, which
/// is exact, O(n) memory, and O(log n) per draw — ample for the workload and
/// label generators where `n` is at most the node count.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        assert!(s.is_finite() && s >= 0.0, "bad Zipf exponent {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point shortfall at the top end.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Self { cdf }
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn skew_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.2);
        let mut r = rng(42);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[0] > 20_000 / 100, "rank 0 should be common");
    }

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(4, 0.0);
        for (k, c) in z.cdf.iter().enumerate() {
            assert!((c - 0.25 * (k + 1) as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(7, 2.0);
        let mut r = rng(1);
        for _ in 0..1000 {
            assert!(z.sample(&mut r) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "Zipf over zero ranks")]
    fn rejects_empty_domain() {
        let _ = Zipf::new(0, 1.0);
    }

    proptest::proptest! {
        #[test]
        fn prop_samples_in_range(n in 1usize..500, s in 0.0f64..3.0, seed in 0u64..1000) {
            let z = Zipf::new(n, s);
            let mut r = rng(seed);
            for _ in 0..50 {
                proptest::prop_assert!(z.sample(&mut r) < n);
            }
        }
    }
}
