//! The no-cache mode of the paper's evaluation.
//!
//! §4.1: "we consider an additional *no-cache* scheme … as there is no cache
//! in query processors, there will be no overhead due to cache lookup and
//! maintenance." [`NullCache`] stores nothing and hits never, so every fetch
//! goes to the storage tier; runtimes detect it via `capacity() == 0` to
//! skip charging cache-probe costs.

use std::hash::Hash;
use std::marker::PhantomData;

use crate::Cache;

/// A cache that never stores anything.
#[derive(Debug, Default)]
pub struct NullCache<K, V> {
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V> NullCache<K, V> {
    /// Creates the null cache.
    pub fn new() -> Self {
        Self {
            _marker: PhantomData,
        }
    }
}

impl<K: Eq + Hash + Clone + Send, V: Send> Cache<K, V> for NullCache<K, V> {
    fn get(&mut self, _key: &K) -> Option<&V> {
        None
    }

    fn insert(&mut self, key: K, value: V, _bytes: usize) -> Vec<(K, V)> {
        vec![(key, value)]
    }

    /// Every insert bounces, and a bounce is no eviction.
    fn insert_counted(&mut self, _key: K, _value: V, _bytes: usize) -> usize {
        0
    }

    fn contains(&self, _key: &K) -> bool {
        false
    }

    fn peek(&self, _key: &K) -> Option<&V> {
        None
    }

    fn bytes(&self) -> usize {
        0
    }

    fn capacity(&self) -> usize {
        0
    }

    fn len(&self) -> usize {
        0
    }

    fn clear(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_stores() {
        let mut c: NullCache<u32, &str> = NullCache::new();
        let ev = c.insert(1, "x", 4);
        assert_eq!(ev, vec![(1, "x")]);
        assert_eq!(c.get(&1), None);
        assert!(!c.contains(&1));
        assert_eq!(c.len(), 0);
        assert_eq!(c.capacity(), 0);
        c.clear();
    }
}
