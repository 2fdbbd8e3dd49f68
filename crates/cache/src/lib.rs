//! Query-processor caches.
//!
//! Each query processor in the decoupled architecture owns a byte-capacity
//! cache of adjacency records fetched from the storage tier (§2.3 "Query
//! Processing Tier"). The paper uses LRU ("we chose the LRU eviction policy
//! because of its simplicity … it favors recent queries, thus it performs
//! well with our smart routing schemes"); [`LruCache`] is the default used
//! everywhere. [`FifoCache`] and [`LfuCache`] exist for the cache-policy
//! ablation bench, and [`UnboundedCache`] models the "sufficient capacity"
//! configuration of §4.3.
//!
//! All caches implement [`Cache`] and account capacity in *bytes*, not
//! entries, because adjacency records vary enormously in size on power-law
//! graphs (a hub's record can be megabytes).

pub mod fifo;
pub mod lfu;
pub mod lru;
pub mod null;
pub mod unbounded;

pub use fifo::FifoCache;
pub use lfu::LfuCache;
pub use lru::LruCache;
pub use null::NullCache;
pub use unbounded::UnboundedCache;

use std::collections::HashMap;
use std::hash::Hash;

/// The key → entry table inside every policy. In this system the keys are
/// node ids, so the tables hash with the record path's integer hasher (see
/// [`grouting_graph::hash`]); none of them is ever iterated.
type Index<K, V> = HashMap<K, V, grouting_graph::IdBuildHasher>;

/// A byte-capacity cache with pluggable eviction.
///
/// `insert` returns the entries evicted to make room; if the new entry
/// itself exceeds the whole capacity it is rejected and returned instead
/// (callers treat both uniformly as "no longer cached").
pub trait Cache<K: Eq + Hash + Clone, V>: Send {
    /// Looks up `key`, promoting it per the policy; `None` on miss.
    fn get(&mut self, key: &K) -> Option<&V>;

    /// Inserts an entry of `bytes` size, returning evicted entries.
    fn insert(&mut self, key: K, value: V, bytes: usize) -> Vec<(K, V)>;

    /// Whether `key` is resident (no promotion side effects).
    fn contains(&self, key: &K) -> bool;

    /// Looks up `key` *without* promotion side effects: recency, frequency,
    /// and eviction state stay untouched. Speculative readers (the prefetch
    /// predictors) use this so inspecting cache contents can never perturb
    /// the demand path's Eq. 8/9 accounting.
    fn peek(&self, key: &K) -> Option<&V>;

    /// Resident payload bytes.
    fn bytes(&self) -> usize;

    /// Capacity in bytes.
    fn capacity(&self) -> usize;

    /// Number of resident entries.
    fn len(&self) -> usize;

    /// Whether the cache holds nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries.
    fn clear(&mut self);
}

/// Eviction policy selector used by configuration layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Least-recently-used (the paper's choice).
    Lru,
    /// First-in-first-out.
    Fifo,
    /// Least-frequently-used.
    Lfu,
}

impl Policy {
    /// Instantiates the chosen policy with a byte capacity.
    pub fn build<K, V>(&self, capacity: usize) -> Box<dyn Cache<K, V>>
    where
        K: Eq + Hash + Clone + Ord + Send + 'static,
        V: Send + 'static,
    {
        match self {
            Policy::Lru => Box::new(LruCache::new(capacity)),
            Policy::Fifo => Box::new(FifoCache::new(capacity)),
            Policy::Lfu => Box::new(LfuCache::new(capacity)),
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Policy::Lru => write!(f, "LRU"),
            Policy::Fifo => write!(f, "FIFO"),
            Policy::Lfu => write!(f, "LFU"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_builds_each_kind() {
        for p in [Policy::Lru, Policy::Fifo, Policy::Lfu] {
            let mut c: Box<dyn Cache<u32, u32>> = p.build(100);
            assert!(c.insert(1, 10, 4).is_empty());
            assert_eq!(c.get(&1), Some(&10));
            assert_eq!(c.capacity(), 100);
        }
    }

    #[test]
    fn policy_display() {
        assert_eq!(Policy::Lru.to_string(), "LRU");
        assert_eq!(Policy::Fifo.to_string(), "FIFO");
        assert_eq!(Policy::Lfu.to_string(), "LFU");
    }
}
