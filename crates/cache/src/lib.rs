//! Query-processor caches.
//!
//! Each query processor in the decoupled architecture owns a byte-capacity
//! cache of adjacency records fetched from the storage tier (§2.3 "Query
//! Processing Tier"). The paper uses LRU ("we chose the LRU eviction policy
//! because of its simplicity … it favors recent queries, thus it performs
//! well with our smart routing schemes"); [`LruCache`] is the default used
//! everywhere. FIFO and LFU exist for the cache-policy ablation bench
//! ([`Policy::Fifo`], [`Policy::Lfu`]), and [`NullCache`] is the no-cache
//! control.
//!
//! All caches implement [`Cache`] and account capacity in *bytes*, not
//! entries, because adjacency records vary enormously in size on power-law
//! graphs (a hub's record can be megabytes).

mod fifo;
mod lfu;
mod lru;
mod null;

pub use lru::LruCache;
pub use null::NullCache;

use std::collections::HashMap;
use std::hash::Hash;

use fifo::FifoCache;
use lfu::LfuCache;

/// The key → entry table inside every policy. In this system the keys are
/// node ids, so the tables hash with the record path's integer hasher (see
/// [`grouting_graph::hash`]); none of them is ever iterated.
type Index<K, V> = HashMap<K, V, grouting_graph::IdBuildHasher>;

/// A byte-capacity cache with pluggable eviction.
///
/// `insert` returns the entries evicted to make room; if the new entry
/// itself exceeds the whole capacity it is rejected and returned instead
/// (callers treat both uniformly as "no longer cached"), and an entry it
/// replaces comes back too. A caller that only counts what left calls
/// [`Cache::insert_counted`], which every policy here answers without
/// collecting the entries, so a miss's admission allocates nothing in
/// the cache once its tables have grown.
pub trait Cache<K: Eq + Hash + Clone, V>: Send {
    /// Looks up `key`, promoting it per the policy; `None` on miss.
    fn get(&mut self, key: &K) -> Option<&V>;

    /// Inserts an entry of `bytes` size, returning evicted entries.
    fn insert(&mut self, key: K, value: V, bytes: usize) -> Vec<(K, V)>;

    /// Inserts like [`Cache::insert`] and returns how many *other* keys'
    /// entries it evicted: neither the entry it replaced nor a rejected
    /// `value` counts. The provided body counts `insert`'s vector; the
    /// policies here override it so that nothing is collected.
    fn insert_counted(&mut self, key: K, value: V, bytes: usize) -> usize {
        let probe = key.clone();
        self.insert(key, value, bytes)
            .iter()
            .filter(|(k, _)| *k != probe)
            .count()
    }

    /// Whether `key` is resident (no promotion side effects).
    fn contains(&self, key: &K) -> bool;

    /// Looks up `key` *without* promotion side effects: recency, frequency,
    /// and eviction state stay untouched, so inspecting cache contents can
    /// never perturb the demand path's Eq. 8/9 accounting. Nothing in the
    /// workspace calls it; the benchmark (`load/`) implements it, and the
    /// next `benchmark` PR drops it.
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

    /// A policy seen only through `insert`: its `insert_counted` is the
    /// provided one, which counts `insert`'s vector.
    struct InsertOnly(Box<dyn Cache<u32, u32>>);

    impl Cache<u32, u32> for InsertOnly {
        fn get(&mut self, key: &u32) -> Option<&u32> {
            self.0.get(key)
        }
        fn insert(&mut self, key: u32, value: u32, bytes: usize) -> Vec<(u32, u32)> {
            self.0.insert(key, value, bytes)
        }
        fn contains(&self, key: &u32) -> bool {
            self.0.contains(key)
        }
        fn peek(&self, key: &u32) -> Option<&u32> {
            self.0.peek(key)
        }
        fn bytes(&self) -> usize {
            self.0.bytes()
        }
        fn capacity(&self) -> usize {
            self.0.capacity()
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn clear(&mut self) {
            self.0.clear()
        }
    }

    /// Keys the random sequences draw from.
    const KEYS: u32 = 16;

    /// Replays `ops` — inserts (`op` 0 or 1) and gets — on two caches of
    /// one policy, one inserting through its own `insert_counted` and the
    /// other through `insert`: each insert reports the same count, every
    /// get the same value, and after each step both hold the same
    /// entries and bytes.
    fn counted_equals_collected(build: fn() -> Box<dyn Cache<u32, u32>>, ops: &[(u8, u32, usize)]) {
        let mut counted = build();
        let mut collected = InsertOnly(build());
        for (step, &(op, key, size)) in ops.iter().enumerate() {
            let value = step as u32;
            if op < 2 {
                let want = collected
                    .insert(key, value, size)
                    .iter()
                    .filter(|(k, _)| *k != key)
                    .count();
                assert_eq!(
                    counted.insert_counted(key, value, size),
                    want,
                    "step {step}"
                );
            } else {
                assert_eq!(counted.get(&key), collected.get(&key), "step {step}");
            }
            assert_eq!(counted.bytes(), collected.bytes());
            assert_eq!(counted.len(), collected.len());
            for k in 0..KEYS {
                assert_eq!(counted.peek(&k), collected.peek(&k), "key {k}, step {step}");
            }
        }
        // The provided body agrees with the collected count too.
        let mut provided = InsertOnly(build());
        let mut collected = InsertOnly(build());
        for &(_, key, size) in ops {
            let want = collected
                .insert(key, 0, size)
                .iter()
                .filter(|(k, _)| *k != key)
                .count();
            assert_eq!(provided.insert_counted(key, 0, size), want);
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_lru_counted_insert_equals_collected(
            ops in proptest::collection::vec((0u8..3, 0u32..KEYS, 1usize..50), 1..200),
        ) {
            counted_equals_collected(|| Box::new(LruCache::new(100)), &ops);
        }

        #[test]
        fn prop_fifo_counted_insert_equals_collected(
            ops in proptest::collection::vec((0u8..3, 0u32..KEYS, 1usize..50), 1..200),
        ) {
            counted_equals_collected(|| Box::new(FifoCache::new(100)), &ops);
        }

        #[test]
        fn prop_lfu_counted_insert_equals_collected(
            ops in proptest::collection::vec((0u8..3, 0u32..KEYS, 1usize..50), 1..200),
        ) {
            counted_equals_collected(|| Box::new(LfuCache::new(100)), &ops);
        }

        #[test]
        fn prop_null_counted_insert_equals_collected(
            ops in proptest::collection::vec((0u8..3, 0u32..KEYS, 1usize..50), 1..200),
        ) {
            counted_equals_collected(|| Box::new(NullCache::new()), &ops);
        }
    }

    #[test]
    fn policy_display() {
        assert_eq!(Policy::Lru.to_string(), "LRU");
        assert_eq!(Policy::Fifo.to_string(), "FIFO");
        assert_eq!(Policy::Lfu.to_string(), "LFU");
    }
}
