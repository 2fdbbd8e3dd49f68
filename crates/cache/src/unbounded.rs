//! Unbounded cache modelling "sufficient capacity" experiments.
//!
//! §4.3 of the paper assumes "each query processor has sufficient cache
//! capacity (4GB) to store the results of all 1000 queries" — i.e. no
//! eviction ever happens. This cache never evicts and reports
//! `usize::MAX` capacity, which keeps accounting code uniform.

use std::hash::Hash;

use crate::{Cache, Index};

/// A cache that never evicts.
#[derive(Debug, Default)]
pub struct UnboundedCache<K, V> {
    map: Index<K, (V, usize)>,
    bytes: usize,
}

impl<K: Eq + Hash + Clone, V> UnboundedCache<K, V> {
    /// Creates an empty unbounded cache.
    pub fn new() -> Self {
        Self {
            map: Index::default(),
            bytes: 0,
        }
    }
}

impl<K: Eq + Hash + Clone + Send, V: Send> Cache<K, V> for UnboundedCache<K, V> {
    fn get(&mut self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    fn insert(&mut self, key: K, value: V, bytes: usize) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        if let Some((old, size)) = self.map.insert(key.clone(), (value, bytes)) {
            self.bytes -= size;
            evicted.push((key, old));
        }
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
        usize::MAX
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_evicts() {
        let mut c = UnboundedCache::new();
        for i in 0..10_000u32 {
            assert!(c.insert(i, i, 1000).is_empty());
        }
        assert_eq!(c.len(), 10_000);
        assert_eq!(c.bytes(), 10_000_000);
        assert_eq!(c.get(&0), Some(&0));
    }

    #[test]
    fn replace_returns_old() {
        let mut c = UnboundedCache::new();
        c.insert(1u32, "a", 5);
        let ev = c.insert(1u32, "b", 7);
        assert_eq!(ev, vec![(1u32, "a")]);
        assert_eq!(c.bytes(), 7);
    }
}
