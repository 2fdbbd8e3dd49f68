//! FIFO cache for the eviction-policy ablation.
//!
//! Identical byte accounting to [`crate::LruCache`] but eviction ignores
//! recency: the oldest *inserted* entry goes first, and `get` does not
//! promote. Under the paper's hotspot workloads FIFO should trail LRU
//! because repeated hits inside a hotspot no longer protect its records.

use std::collections::VecDeque;
use std::hash::Hash;

use crate::{Cache, Index};

/// First-in-first-out byte-capacity cache.
#[derive(Debug)]
pub struct FifoCache<K, V> {
    map: Index<K, (V, usize)>,
    order: VecDeque<K>,
    bytes: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> FifoCache<K, V> {
    /// Creates a cache bounded by `capacity` payload bytes.
    pub fn new(capacity: usize) -> Self {
        Self {
            map: Index::default(),
            order: VecDeque::new(),
            bytes: 0,
            capacity,
        }
    }

    fn pop_oldest(&mut self) -> Option<(K, V)> {
        while let Some(key) = self.order.pop_front() {
            if let Some((value, size)) = self.map.remove(&key) {
                self.bytes -= size;
                return Some((key, value));
            }
            // Stale queue entry from a replace: skip.
        }
        None
    }
}

impl<K: Eq + Hash + Clone + Send, V: Send> Cache<K, V> for FifoCache<K, V> {
    fn get(&mut self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    fn insert(&mut self, key: K, value: V, bytes: usize) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        if let Some((old, size)) = self.map.remove(&key) {
            self.bytes -= size;
            evicted.push((key.clone(), old));
            // The stale queue slot is skipped lazily by pop_oldest.
        }
        if bytes > self.capacity {
            evicted.push((key, value));
            return evicted;
        }
        while self.bytes + bytes > self.capacity {
            match self.pop_oldest() {
                Some(pair) => evicted.push(pair),
                None => break,
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, (value, bytes));
        self.bytes += bytes;
        evicted
    }

    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    fn bytes(&self) -> usize {
        self.bytes
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_insertion_order_despite_gets() {
        let mut c = FifoCache::new(30);
        c.insert("a", 1, 10);
        c.insert("b", 2, 10);
        c.insert("c", 3, 10);
        // Touching "a" does NOT protect it under FIFO.
        assert_eq!(c.get(&"a"), Some(&1));
        let ev = c.insert("d", 4, 10);
        assert_eq!(ev, vec![("a", 1)]);
    }

    #[test]
    fn replace_is_not_double_counted() {
        let mut c = FifoCache::new(100);
        c.insert(1u32, "x", 40);
        c.insert(1u32, "y", 20);
        assert_eq!(c.bytes(), 20);
        assert_eq!(c.len(), 1);
        // Fill to force eviction; the stale queue slot must be skipped.
        c.insert(2u32, "z", 70);
        assert_eq!(c.bytes(), 90);
        let ev = c.insert(3u32, "w", 30);
        assert!(!ev.is_empty());
        assert!(c.bytes() <= 100);
    }

    #[test]
    fn oversized_rejected() {
        let mut c = FifoCache::new(5);
        let ev = c.insert(9u32, (), 6);
        assert_eq!(ev.len(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_resets() {
        let mut c = FifoCache::new(50);
        c.insert(1u32, (), 10);
        c.clear();
        assert_eq!(c.bytes(), 0);
        assert!(c.is_empty());
    }

    proptest::proptest! {
        #[test]
        fn prop_never_over_capacity(ops in proptest::collection::vec((0u32..20, 1usize..40), 1..200)) {
            let mut c = FifoCache::new(100);
            for (key, size) in ops {
                c.insert(key, (), size);
                proptest::prop_assert!(c.bytes() <= 100);
            }
        }
    }
}
