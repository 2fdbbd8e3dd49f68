//! LFU cache for the eviction-policy ablation.
//!
//! Evicts the least-frequently-used entry (ties broken by age). Implemented
//! with a lazy binary heap: each access pushes a fresh `(freq, tick, key)`
//! marker and eviction skips stale markers, giving amortised O(log n) ops
//! without an intrusive frequency list.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hash::Hash;

use crate::{Cache, Index};

#[derive(Debug)]
struct Slot<V> {
    value: V,
    bytes: usize,
    freq: u64,
    tick: u64,
}

/// Least-frequently-used byte-capacity cache.
#[derive(Debug)]
pub struct LfuCache<K: Ord, V> {
    map: Index<K, Slot<V>>,
    heap: BinaryHeap<Reverse<(u64, u64, K)>>,
    bytes: usize,
    capacity: usize,
    clock: u64,
}

impl<K: Eq + Hash + Clone + Ord, V> LfuCache<K, V> {
    /// Creates a cache bounded by `capacity` payload bytes.
    pub fn new(capacity: usize) -> Self {
        Self {
            map: Index::default(),
            heap: BinaryHeap::new(),
            bytes: 0,
            capacity,
            clock: 0,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The one insert: hands each entry that leaves to `out`, with
    /// whether it is another key's (an eviction) rather than the entry
    /// `key` replaces or a `value` too large to ever fit.
    fn put(&mut self, key: K, value: V, bytes: usize, mut out: impl FnMut(K, V, bool)) {
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.bytes;
            out(key.clone(), old.value, false);
        }
        if bytes > self.capacity {
            out(key, value, false);
            return;
        }
        while self.bytes + bytes > self.capacity {
            match self.pop_least_frequent() {
                Some((k, v)) => out(k, v, true),
                None => break,
            }
        }
        let t = self.tick();
        self.heap.push(Reverse((1, t, key.clone())));
        self.map.insert(
            key,
            Slot {
                value,
                bytes,
                freq: 1,
                tick: t,
            },
        );
        self.bytes += bytes;
    }

    fn pop_least_frequent(&mut self) -> Option<(K, V)> {
        while let Some(Reverse((freq, tick, key))) = self.heap.pop() {
            let stale = match self.map.get(&key) {
                Some(slot) => slot.freq != freq || slot.tick != tick,
                None => true,
            };
            if stale {
                continue;
            }
            let slot = self.map.remove(&key).expect("checked above");
            self.bytes -= slot.bytes;
            return Some((key, slot.value));
        }
        None
    }
}

impl<K: Eq + Hash + Clone + Ord + Send, V: Send> Cache<K, V> for LfuCache<K, V> {
    fn get(&mut self, key: &K) -> Option<&V> {
        let t = self.tick();
        let slot = self.map.get_mut(key)?;
        slot.freq += 1;
        slot.tick = t;
        self.heap.push(Reverse((slot.freq, slot.tick, key.clone())));
        self.map.get(key).map(|s| &s.value)
    }

    fn insert(&mut self, key: K, value: V, bytes: usize) -> Vec<(K, V)> {
        let mut evicted = Vec::new();
        self.put(key, value, bytes, |k, v, _| evicted.push((k, v)));
        evicted
    }

    fn insert_counted(&mut self, key: K, value: V, bytes: usize) -> usize {
        let mut others = 0;
        self.put(key, value, bytes, |_, _, other| {
            others += usize::from(other)
        });
        others
    }

    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|s| &s.value)
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
        self.heap.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_frequent() {
        let mut c = LfuCache::new(30);
        c.insert("a", 1, 10);
        c.insert("b", 2, 10);
        c.insert("c", 3, 10);
        // "a" becomes hot; "b" and "c" each have freq 1 — "b" is older.
        c.get(&"a");
        c.get(&"a");
        let ev = c.insert("d", 4, 10);
        assert_eq!(ev, vec![("b", 2)]);
        assert!(c.contains(&"a"));
    }

    #[test]
    fn frequency_survives_pressure() {
        let mut c = LfuCache::new(20);
        c.insert(1u32, (), 10);
        for _ in 0..10 {
            c.get(&1);
        }
        // Stream of one-shot entries never displaces the hot one.
        for i in 2..20u32 {
            c.insert(i, (), 10);
            assert!(c.contains(&1), "hot entry evicted at {i}");
        }
    }

    #[test]
    fn replace_resets_frequency() {
        let mut c = LfuCache::new(30);
        c.insert(1u32, "x", 10);
        c.get(&1);
        c.get(&1);
        c.insert(1u32, "y", 10); // Replacement is a new life: freq 1.
        c.insert(2u32, "z", 10);
        c.get(&2);
        c.insert(3u32, "w", 10);
        let ev = c.insert(4u32, "v", 10);
        // Entry 1 (freq 1, oldest) should fall out before entry 2 (freq 2).
        assert!(ev.iter().any(|(k, _)| *k == 1), "evicted {ev:?}");
        assert!(c.contains(&2));
    }

    #[test]
    fn oversized_rejected() {
        let mut c = LfuCache::new(3);
        let ev = c.insert(1u32, (), 10);
        assert_eq!(ev.len(), 1);
        assert!(c.is_empty());
    }

    proptest::proptest! {
        #[test]
        fn prop_accounting(ops in proptest::collection::vec((0u8..2, 0u32..15, 1usize..40), 1..200)) {
            let mut c = LfuCache::new(80);
            for (op, key, size) in ops {
                match op {
                    0 => { c.insert(key, (), size); }
                    _ => { c.get(&key); }
                }
                proptest::prop_assert!(c.bytes() <= 80);
                let real: usize = c.map.values().map(|s| s.bytes).sum();
                proptest::prop_assert_eq!(real, c.bytes());
            }
        }
    }
}
