//! Storage placement: the [`Partitioner`] trait and gRouting's stateless
//! MurmurHash3 modulo partitioner.

use grouting_graph::NodeId;

use crate::murmur3::hash_node;

/// Hash seed; fixed so every tier agrees on placement.
const DEFAULT_SEED: u32 = 0x9747_b28c;

/// Maps nodes to storage/compute partitions.
///
/// Implementations must be cheap per call — the storage tier consults this
/// on every fetch — and must return values in `0..parts()`.
pub trait Partitioner: Send + Sync {
    /// Number of partitions.
    fn parts(&self) -> usize;

    /// The partition that owns `node`.
    fn assign(&self, node: NodeId) -> usize;
}

/// Assigns node `u` to partition `murmur3(u) mod P` (paper Eq. 1, with the
/// hash applied first as RAMCloud does).
#[derive(Debug, Clone, Copy)]
pub struct HashPartitioner {
    parts: usize,
}

impl HashPartitioner {
    /// Creates a partitioner over `parts` partitions.
    ///
    /// # Panics
    ///
    /// Panics if `parts == 0`.
    pub fn new(parts: usize) -> Self {
        assert!(parts > 0, "zero partitions");
        Self { parts }
    }
}

impl Partitioner for HashPartitioner {
    fn parts(&self) -> usize {
        self.parts
    }

    fn assign(&self, node: NodeId) -> usize {
        (hash_node(node.raw(), DEFAULT_SEED) as usize) % self.parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_in_range() {
        let p = HashPartitioner::new(7);
        for i in 0..1000u32 {
            assert!(p.assign(NodeId::new(i)) < 7);
        }
    }

    #[test]
    fn assignment_is_stable() {
        let a = HashPartitioner::new(5);
        let b = HashPartitioner::new(5);
        for i in 0..100u32 {
            assert_eq!(a.assign(NodeId::new(i)), b.assign(NodeId::new(i)));
        }
    }

    /// Every stored record, every figure and every benchmark workload
    /// depends on where a node lives; these are the partitions of nodes
    /// `0..64` over 1, 3, 4 and 7 servers, so a changed seed or hash fails
    /// here rather than silently moving data.
    #[test]
    fn placement_known_answers() {
        #[rustfmt::skip]
        let known: [(usize, [u8; 64]); 4] = [
            (1, [0; 64]),
            (3, [
                0, 2, 0, 1, 2, 1, 1, 0, 0, 0, 1, 1, 1, 2, 0, 0,
                0, 0, 1, 1, 1, 1, 2, 1, 0, 2, 2, 0, 2, 0, 0, 1,
                0, 0, 1, 2, 2, 0, 2, 2, 0, 0, 1, 2, 2, 2, 1, 0,
                2, 1, 1, 2, 0, 0, 1, 1, 0, 0, 2, 0, 2, 1, 2, 1,
            ]),
            (4, [
                1, 0, 2, 1, 2, 2, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1,
                3, 0, 1, 0, 2, 2, 3, 0, 2, 0, 0, 0, 1, 1, 1, 3,
                3, 3, 1, 3, 2, 3, 2, 2, 1, 0, 0, 2, 0, 1, 0, 3,
                1, 1, 0, 0, 2, 0, 1, 1, 0, 3, 0, 1, 3, 1, 1, 3,
            ]),
            (7, [
                0, 4, 2, 0, 4, 2, 5, 4, 1, 2, 3, 4, 1, 0, 6, 1,
                3, 6, 0, 1, 4, 1, 2, 3, 1, 5, 4, 2, 2, 2, 3, 0,
                6, 0, 0, 5, 0, 6, 2, 5, 1, 4, 2, 4, 1, 5, 1, 5,
                1, 5, 4, 1, 2, 2, 3, 4, 5, 3, 3, 2, 5, 4, 4, 0,
            ]),
        ];
        for (parts, expected) in known {
            let p = HashPartitioner::new(parts);
            let got: Vec<u8> = (0..64u32).map(|i| p.assign(NodeId::new(i)) as u8).collect();
            assert_eq!(got, expected, "placement over {parts} parts");
        }
    }

    #[test]
    fn reasonably_balanced() {
        let p = HashPartitioner::new(4);
        let mut counts = [0usize; 4];
        for i in 0..100_000u32 {
            counts[p.assign(NodeId::new(i))] += 1;
        }
        for &c in &counts {
            assert!((20_000..30_000).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "zero partitions")]
    fn rejects_zero_parts() {
        let _ = HashPartitioner::new(0);
    }

    proptest::proptest! {
        #[test]
        fn prop_in_range(node: u32, parts in 1usize..64) {
            let p = HashPartitioner::new(parts);
            proptest::prop_assert!(p.assign(NodeId::new(node)) < parts);
        }
    }
}
