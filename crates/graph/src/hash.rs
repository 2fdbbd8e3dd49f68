//! The one integer hasher behind every id-keyed map on the record path.
//!
//! A record access touches half a dozen hash tables — the cache index (on
//! `contains`, `get`, insert and evict), the frontier's miss set, the
//! traversal's distance map, the storage servers' log index — and under the
//! standard library's default SipHash those lookups cost more than the
//! record work between them. The keys are dense node ids that the tier
//! assigned and validates: nothing outside the program chooses them, so a
//! keyed hash protects against nothing here, and one multiply mixes them as
//! well as these tables need.
//!
//! Use [`NodeMap`] / [`NodeSet`] (or [`IdBuildHasher`] for another integer
//! key) for lookup tables only. A map whose *iteration order* reaches an
//! answer, a statistic or a log keeps the default hasher or, better, sorts:
//! this hasher is deterministic, and code that came to depend on its order
//! would break the day the constant changed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::ids::NodeId;

/// Multiply-rotate hasher for small integer keys (the scheme of rustc's
/// `FxHasher`): each written word is folded in with one rotate, xor and
/// multiply. Byte-slice keys work — they are folded a word at a time — but
/// are not what this is for.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

/// 2^64 / φ, odd: consecutive ids land far apart in the high bits.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

impl IdHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the standard
        // table indexes buckets with the low ones.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }
}

/// [`std::hash::BuildHasher`] for [`IdHasher`].
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A lookup table keyed by node id (see the module docs for when not to
/// use it). Construct with `NodeMap::default()`.
pub type NodeMap<V> = HashMap<NodeId, V, IdBuildHasher>;

/// A membership set of node ids. Construct with `NodeSet::default()`.
pub type NodeSet = HashSet<NodeId, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        IdBuildHasher::default().hash_one(v)
    }

    #[test]
    fn node_map_and_set_behave_like_std() {
        let mut m: NodeMap<u32> = NodeMap::default();
        let mut s = NodeSet::default();
        for i in 0..10_000u32 {
            assert_eq!(m.insert(NodeId::new(i), i), None);
            assert!(s.insert(NodeId::new(i)));
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(m.get(&NodeId::new(i)), Some(&i));
            assert!(!s.insert(NodeId::new(i)));
        }
        assert_eq!(m.remove(&NodeId::new(7)), Some(7));
        assert!(!m.contains_key(&NodeId::new(7)));
    }

    #[test]
    fn dense_ids_spread_over_buckets_and_tags() {
        // The standard table takes the bucket from the low bits and a
        // 7-bit tag from the top ones: both must vary over a dense id range.
        let n = 4096u32;
        let mut low = std::collections::HashSet::new();
        let mut top = std::collections::HashSet::new();
        for i in 0..n {
            let h = hash_of(NodeId::new(i));
            low.insert(h & 0xFFF);
            top.insert(h >> 57);
        }
        assert!(low.len() > 2400, "only {} of 4096 buckets used", low.len());
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn byte_keys_hash_by_content() {
        assert_eq!(hash_of("abc"), hash_of("abc"));
        assert_ne!(hash_of("abc"), hash_of("abd"));
        assert_ne!(hash_of("a long key past one word"), hash_of("a long key"));
        assert_eq!(hash_of(5u64), hash_of(5u64));
        assert_ne!(hash_of(5u64), hash_of(6u64));
    }
}
