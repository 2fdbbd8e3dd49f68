//! Monotonic event counters and the cache hit/miss bundle of Eq. 8/9.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event counter.
///
/// The counter is thread-safe (relaxed atomics) so that threads can share
/// one instance; the simulator uses it single-threaded where the atomics
/// cost nothing measurable.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Creates a counter starting at zero.
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero and returns the previous value.
    pub fn reset(&self) -> u64 {
        self.value.swap(0, Ordering::Relaxed)
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        Self {
            value: AtomicU64::new(self.get()),
        }
    }
}

/// Cache hit/miss accounting per the paper's Eq. 8 and Eq. 9.
///
/// For a stream of queries `q1..qt`, hits are the total number of nodes whose
/// adjacency entries were found in a processor cache and misses the number
/// that had to be fetched from the storage tier, so
/// `hits + misses = Σ |N_h(q_i)|`.
#[derive(Debug, Default, Clone)]
pub struct CacheCounters {
    /// Node adjacency entries served from a processor cache (Eq. 8).
    pub hits: Counter,
    /// Node adjacency entries fetched from the storage tier (Eq. 9).
    pub misses: Counter,
    /// Entries evicted from processor caches to make room.
    pub evictions: Counter,
}

impl CacheCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total lookups observed (`hits + misses`).
    pub fn lookups(&self) -> u64 {
        self.hits.get() + self.misses.get()
    }

    /// Hit rate in `[0, 1]`; zero when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }

    /// Folds another set of counters into this one.
    pub fn merge(&self, other: &CacheCounters) {
        self.hits.add(other.hits.get());
        self.misses.add(other.misses.get());
        self.evictions.add(other.evictions.get());
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.hits.reset();
        self.misses.reset();
        self.evictions.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.reset(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_clone_snapshots_value() {
        let c = Counter::new();
        c.add(7);
        let d = c.clone();
        c.add(1);
        assert_eq!(d.get(), 7);
        assert_eq!(c.get(), 8);
    }

    #[test]
    fn cache_counters_hit_rate() {
        let cc = CacheCounters::new();
        assert_eq!(cc.hit_rate(), 0.0);
        cc.hits.add(3);
        cc.misses.add(1);
        assert_eq!(cc.lookups(), 4);
        assert!((cc.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cache_counters_merge() {
        let a = CacheCounters::new();
        a.hits.add(10);
        a.evictions.add(2);
        let b = CacheCounters::new();
        b.hits.add(5);
        b.misses.add(5);
        a.merge(&b);
        assert_eq!(a.hits.get(), 15);
        assert_eq!(a.misses.get(), 5);
        assert_eq!(a.evictions.get(), 2);
    }

    #[test]
    fn counter_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Counter>();
        assert_send_sync::<CacheCounters>();
    }

    #[test]
    fn threaded_increments() {
        use std::sync::Arc;
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.incr();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
    }
}
