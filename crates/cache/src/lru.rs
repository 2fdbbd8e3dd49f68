//! Byte-capacity LRU cache with an intrusive index-linked list.
//!
//! All operations are O(1): a hash index keys into a slab of entries that
//! form a doubly-linked recency list via `usize` indices (no pointer
//! juggling, no unsafe). The head is most-recently-used; eviction pops the
//! tail while over capacity.

use std::hash::Hash;

use crate::{Cache, Index};

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry<K, V> {
    key: K,
    value: V,
    bytes: usize,
    prev: usize,
    next: usize,
}

/// The paper's default processor cache (§2.3).
#[derive(Debug)]
pub struct LruCache<K, V> {
    map: Index<K, usize>,
    slab: Vec<Option<Entry<K, V>>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache bounded by `capacity` payload bytes.
    pub fn new(capacity: usize) -> Self {
        Self {
            map: Index::default(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
            capacity,
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = {
            let e = self.slab[idx].as_ref().expect("detached live entry");
            (e.prev, e.next)
        };
        if prev != NIL {
            self.slab[prev].as_mut().expect("prev live").next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].as_mut().expect("next live").prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        {
            let e = self.slab[idx].as_mut().expect("attached live entry");
            e.prev = NIL;
            e.next = self.head;
        }
        if self.head != NIL {
            self.slab[self.head].as_mut().expect("head live").prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn pop_tail(&mut self) -> Option<(K, V)> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        self.detach(idx);
        let e = self.slab[idx].take().expect("tail live");
        self.free.push(idx);
        self.map.remove(&e.key);
        self.bytes -= e.bytes;
        Some((e.key, e.value))
    }

    /// Iterates over resident keys from most- to least-recently used.
    pub fn keys_mru(&self) -> impl Iterator<Item = &K> + '_ {
        let mut cursor = self.head;
        std::iter::from_fn(move || {
            if cursor == NIL {
                return None;
            }
            let e = self.slab[cursor].as_ref().expect("list entry live");
            cursor = e.next;
            Some(&e.key)
        })
    }
}

impl<K: Eq + Hash + Clone + Send, V: Send> Cache<K, V> for LruCache<K, V> {
    fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        self.slab[idx].as_ref().map(|e| &e.value)
    }

    fn peek(&self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.slab[idx].as_ref().map(|e| &e.value)
    }

    fn insert(&mut self, key: K, value: V, bytes: usize) -> Vec<(K, V)> {
        let mut evicted = Vec::new();

        // Replace an existing entry in place.
        if let Some(&idx) = self.map.get(&key) {
            self.detach(idx);
            let e = self.slab[idx].take().expect("replaced entry live");
            self.free.push(idx);
            self.map.remove(&e.key);
            self.bytes -= e.bytes;
            evicted.push((e.key, e.value));
        }

        if bytes > self.capacity {
            // Cannot ever fit: reject, handing the value back.
            evicted.push((key, value));
            return evicted;
        }

        while self.bytes + bytes > self.capacity {
            match self.pop_tail() {
                Some(pair) => evicted.push(pair),
                None => break,
            }
        }

        let idx = match self.free.pop() {
            Some(i) => i,
            None => {
                self.slab.push(None);
                self.slab.len() - 1
            }
        };
        self.slab[idx] = Some(Entry {
            key: key.clone(),
            value,
            bytes,
            prev: NIL,
            next: NIL,
        });
        self.attach_front(idx);
        self.map.insert(key, idx);
        self.bytes += bytes;
        evicted
    }

    fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
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
        self.slab.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(30);
        c.insert("a", 1, 10);
        c.insert("b", 2, 10);
        c.insert("c", 3, 10);
        // Touch "a" so "b" becomes LRU.
        assert_eq!(c.get(&"a"), Some(&1));
        let ev = c.insert("d", 4, 10);
        assert_eq!(ev, vec![("b", 2)]);
        assert!(c.contains(&"a"));
        assert!(c.contains(&"c"));
        assert!(c.contains(&"d"));
    }

    #[test]
    fn byte_accounting() {
        let mut c = LruCache::new(100);
        c.insert(1u32, (), 60);
        c.insert(2u32, (), 30);
        assert_eq!(c.bytes(), 90);
        let ev = c.insert(3u32, (), 20);
        assert_eq!(ev.len(), 1); // 60-byte entry 1 evicted
        assert_eq!(c.bytes(), 50);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut c = LruCache::new(10);
        let ev = c.insert(1u32, "big", 11);
        assert_eq!(ev, vec![(1u32, "big")]);
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn replace_updates_bytes() {
        let mut c = LruCache::new(100);
        c.insert(1u32, "x", 40);
        let ev = c.insert(1u32, "y", 10);
        assert_eq!(ev, vec![(1u32, "x")]);
        assert_eq!(c.bytes(), 10);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&1), Some(&"y"));
    }

    #[test]
    fn mru_order_iteration() {
        let mut c = LruCache::new(1000);
        c.insert(1u32, (), 1);
        c.insert(2u32, (), 1);
        c.insert(3u32, (), 1);
        c.get(&1);
        let order: Vec<u32> = c.keys_mru().copied().collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn clear_resets() {
        let mut c = LruCache::new(50);
        c.insert(1u32, (), 20);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        assert!(!c.contains(&1));
        c.insert(2u32, (), 20);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut c = LruCache::new(0);
        let ev = c.insert(1u32, (), 1);
        assert_eq!(ev.len(), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn slab_reuses_slots() {
        let mut c = LruCache::new(20);
        for i in 0..100u32 {
            c.insert(i, (), 10);
        }
        // Only 2 entries fit at a time, so the slab should stay tiny.
        assert!(c.slab.len() <= 3, "slab grew to {}", c.slab.len());
    }

    proptest::proptest! {
        /// Random workloads never exceed capacity, never lose accounting,
        /// and the map/list stay consistent.
        #[test]
        fn prop_invariants(ops in proptest::collection::vec((0u8..2, 0u32..20, 1usize..40), 1..300)) {
            let mut c = LruCache::new(100);
            for (op, key, size) in ops {
                match op {
                    0 => { c.insert(key, key, size); }
                    _ => { c.get(&key); }
                }
                proptest::prop_assert!(c.bytes() <= 100);
                let walked = c.keys_mru().count();
                proptest::prop_assert_eq!(walked, c.len());
                // Every key reachable via the list is in the map.
                let keys: Vec<u32> = c.keys_mru().copied().collect();
                for k in keys {
                    proptest::prop_assert!(c.contains(&k));
                }
            }
        }
    }
}
