//! The cache-then-storage fetch layer.
//!
//! Every adjacency record a query touches flows through here: first the
//! processor's local cache, then (on miss) the payload a fetch brought
//! back. A staged query plans which records miss, its driver fetches them
//! from a [`BatchSource`] — the storage tier in-process, or the wire
//! cluster's batch protocol — and the apply pass folds the payloads in.
//! The hit/miss tallies recorded per query are exactly the paper's
//! cache-hit/cache-miss rates (Eq. 8/9), and the miss byte counts are what
//! the simulator feeds into the network cost model.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use grouting_cache::Cache;
use grouting_graph::codec::AdjacencyRecord;
use grouting_graph::{GraphError, NodeId, NodeSet};
use grouting_storage::StorageTier;

/// Where missed adjacency records come from: a source that serves a whole
/// frontier's miss set in one exchange.
///
/// The decoupled architecture means a processor's miss path is pluggable:
/// an in-process [`StorageTier`] handle (the simulator), or the
/// `grouting-wire` batch protocol, which groups the nodes per storage
/// server and ships one pipelined batch frame per server. Either way the
/// contract is [`StorageTier::get`]'s, per node: the serving server id
/// plus the *encoded* value, so byte-level cache accounting is identical
/// on every path.
pub trait BatchSource {
    /// Fetches the encoded adjacency values for `nodes`, one entry per
    /// requested node in the same order (`None` where the node is not
    /// stored).
    fn fetch_batch(&mut self, nodes: &[NodeId]) -> Vec<Option<(u16, Bytes)>>;
}

impl BatchSource for &StorageTier {
    fn fetch_batch(&mut self, nodes: &[NodeId]) -> Vec<Option<(u16, Bytes)>> {
        self.get_many(nodes)
            .into_iter()
            .map(|p| p.map(|(s, b)| (s as u16, b)))
            .collect()
    }
}

impl BatchSource for Arc<StorageTier> {
    fn fetch_batch(&mut self, nodes: &[NodeId]) -> Vec<Option<(u16, Bytes)>> {
        (&**self).fetch_batch(nodes)
    }
}

impl<S: BatchSource + ?Sized> BatchSource for &mut S {
    fn fetch_batch(&mut self, nodes: &[NodeId]) -> Vec<Option<(u16, Bytes)>> {
        (**self).fetch_batch(nodes)
    }
}

/// The concrete cache type a query processor holds: node id → shared
/// decoded record, charged its [`AdjacencyRecord::resident_len`].
pub type ProcessorCache = Box<dyn Cache<NodeId, Arc<AdjacencyRecord>>>;

/// Per-query access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Records served from the processor cache (Eq. 8 numerator).
    pub cache_hits: u64,
    /// Records fetched from the storage tier (Eq. 9 numerator).
    pub cache_misses: u64,
    /// Total encoded bytes pulled over the network on misses.
    pub miss_bytes: u64,
    /// Entries evicted from the cache while this query ran.
    pub evictions: u64,
}

impl AccessStats {
    /// Total record accesses.
    pub fn accesses(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }

    /// Adds another query's stats into this one.
    pub fn merge(&mut self, other: &AccessStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.miss_bytes += other.miss_bytes;
        self.evictions += other.evictions;
    }
}

/// One storage-tier fetch: which server answered and how many bytes moved.
///
/// The discrete-event simulator replays these in order to model queueing at
/// the storage servers (Figure 8(c): 1–2 servers cannot feed 4 processors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissEvent {
    /// Storage server that served the get.
    pub server: u16,
    /// Encoded value size in bytes.
    pub bytes: u32,
}

/// A processor's view of the graph: its cache in front of a record source.
///
/// A staged query uses only the cache, never the source; the serial
/// conveniences ([`CacheBackedStore::fetch`],
/// [`CacheBackedStore::fetch_many`], [`CacheBackedStore::apply_many`])
/// fetch through it.
pub struct CacheBackedStore<'a, S> {
    source: S,
    cache: &'a mut ProcessorCache,
    stats: AccessStats,
    miss_log: Vec<MissEvent>,
    /// The first fetched payload that failed to decode: its node and the
    /// codec's error. [`CacheBackedStore::admit`] answers such a payload
    /// as a node that is not stored, so every caller of a resume checks here
    /// ([`CacheBackedStore::take_corrupt`]) after each resume.
    corrupt: Option<(NodeId, GraphError)>,
}

impl<'a, S> CacheBackedStore<'a, S> {
    /// Wraps a cache and a miss-path source (`&StorageTier`, an
    /// `Arc<StorageTier>`, a remote batch source, or `()` for a store that
    /// only staged queries use) for one query's execution.
    pub fn new(source: S, cache: &'a mut ProcessorCache) -> Self {
        Self {
            source,
            cache,
            stats: AccessStats::default(),
            miss_log: Vec::new(),
            corrupt: None,
        }
    }

    /// Fetches the adjacency record of `node`, counting a hit or miss: a
    /// one-node [`CacheBackedStore::fetch_many`].
    pub fn fetch(&mut self, node: NodeId) -> Option<Arc<AdjacencyRecord>>
    where
        S: BatchSource,
    {
        self.fetch_many(&[node]).pop().flatten()
    }

    /// Fetches a whole frontier of adjacency records through the cache,
    /// batching the miss portion into one [`BatchSource::fetch_batch`]
    /// call.
    ///
    /// Accounting is byte-identical to accessing each node in order, one
    /// at a time (the Eq. 8/9 contract the agreement tests pin): a first,
    /// side-effect-free pass ([`CacheBackedStore::plan_many`]) classifies
    /// each node with [`Cache::contains`] to assemble the miss set, then a
    /// second pass ([`CacheBackedStore::apply_many`]) replays the exact
    /// scalar get/insert sequence per node — so LRU recency order,
    /// eviction counts, and the miss log all evolve exactly as they would
    /// have one node at a time.
    pub fn fetch_many(&mut self, nodes: &[NodeId]) -> Vec<Option<Arc<AdjacencyRecord>>>
    where
        S: BatchSource,
    {
        let miss_nodes = self.plan_many(nodes);
        let payloads = self.exchange(&miss_nodes);
        self.apply_many(nodes, &miss_nodes, payloads)
    }

    /// Fetches a miss set in one batch; an empty one makes no exchange.
    pub(crate) fn exchange(&mut self, miss: &[NodeId]) -> Vec<Option<(u16, Bytes)>>
    where
        S: BatchSource,
    {
        if miss.is_empty() {
            return Vec::new();
        }
        self.source.fetch_batch(miss)
    }

    /// Pass 1 of a batched frontier fetch: the cache-miss portion of
    /// `nodes` (first occurrence of each), classified with
    /// [`Cache::contains`] so no recency/frequency state moves. A wrapper
    /// over the staged executor's plan, which learns what an ask needs
    /// from storage *before* any bytes travel, so the fetch can be
    /// submitted asynchronously and overlapped with another query's
    /// compute.
    pub fn plan_many(&self, nodes: &[NodeId]) -> Vec<NodeId> {
        let mut miss_nodes = Vec::new();
        self.plan_into(nodes, &mut miss_nodes);
        let mut firsts = NodeSet::default();
        miss_nodes.retain(|&node| firsts.insert(node));
        miss_nodes
    }

    /// Appends the cache-miss portion of `nodes` to `miss`, in order. A
    /// staged query's asks never repeat a node (its seen tables make each
    /// ask), so nothing here deduplicates them.
    pub(crate) fn plan_into(&self, nodes: &[NodeId], miss: &mut Vec<NodeId>) {
        miss.extend(
            nodes
                .iter()
                .copied()
                .filter(|node| !self.cache.contains(node)),
        );
    }

    /// Pass 2 of a batched frontier fetch: replays the scalar access
    /// sequence over `nodes` in order, sourcing miss payloads from
    /// `payloads` (one entry per `miss_nodes` entry, in that order —
    /// normally the answer to a fetch of [`CacheBackedStore::plan_many`]'s
    /// return). A serial driver over the apply core (`apply_from`): a
    /// node that slipped between the plan and this apply is fetched alone
    /// from the source, exactly as a node-at-a-time execution would have.
    pub fn apply_many(
        &mut self,
        nodes: &[NodeId],
        miss_nodes: &[NodeId],
        payloads: Vec<Option<(u16, Bytes)>>,
    ) -> Vec<Option<Arc<AdjacencyRecord>>>
    where
        S: BatchSource,
    {
        debug_assert_eq!(miss_nodes.len(), payloads.len(), "one payload per miss");
        let mut answers = miss_nodes.iter().copied().zip(payloads).collect();
        let mut records = Vec::with_capacity(nodes.len());
        while let Some(node) = self.apply_from(nodes, &mut answers, &mut records, true) {
            let payload = self.source.fetch_batch(&[node]).pop().flatten();
            records.push(self.admit(node, payload));
        }
        self.expect_valid();
        records
    }

    /// Takes the first payload that failed to decode since the last call:
    /// its node and the codec's error. A caller that gets one must not
    /// trust the answer of the query it resumed.
    pub fn take_corrupt(&mut self) -> Option<(NodeId, GraphError)> {
        self.corrupt.take()
    }

    /// The serial executors' rule: a corrupt payload from storage panics.
    pub(crate) fn expect_valid(&mut self) {
        if let Some((node, err)) = self.take_corrupt() {
            panic!("tier stores valid records, but {node}'s failed to decode: {err}");
        }
    }

    /// The apply core: one cache-then-payload access per node of
    /// `nodes[records.len()..]`, in order, each record appended to
    /// `records`. This is the *only* place hits are recorded (misses in
    /// [`CacheBackedStore::admit`]), so every driver replays the same
    /// sequence.
    ///
    /// `answers` is consumed positionally: it is the subsequence of
    /// `nodes` that missed, first occurrences only, so its front meets each
    /// answer at the node that asked for it. An answer whose node turned
    /// into a hit is dropped. A miss with no answer (the cache evicted a
    /// planned hit, another query's apply raced the plan, or a duplicate's
    /// first insert bounced) stops the apply: it returns the node, which
    /// the caller fetches, hands to [`CacheBackedStore::admit`], and then
    /// calls this again.
    ///
    /// Without `keep` (a count-only ask) every access runs the same way,
    /// but `records` gets `None` for each node: a hit's record is not
    /// cloned, and an admitted one is dropped once cached.
    pub(crate) fn apply_from(
        &mut self,
        nodes: &[NodeId],
        answers: &mut VecDeque<(NodeId, Option<(u16, Bytes)>)>,
        records: &mut Vec<Option<Arc<AdjacencyRecord>>>,
        keep: bool,
    ) -> Option<NodeId> {
        for &node in &nodes[records.len()..] {
            let answer = answers.pop_front_if(|(asked, _)| *asked == node);
            if let Some(rec) = self.cache.get(&node) {
                self.stats.cache_hits += 1;
                records.push(keep.then(|| Arc::clone(rec)));
                continue;
            }
            let Some((_, payload)) = answer else {
                return Some(node);
            };
            let record = self.admit(node, payload);
            records.push(record.filter(|_| keep));
        }
        None
    }

    /// The miss half of an access: counts the miss and its bytes, logs
    /// it, decodes the payload and caches the record, charged its
    /// [`AdjacencyRecord::resident_len`]. A node that is not stored
    /// (`None`) counts nothing. A payload that fails to decode is kept
    /// for [`CacheBackedStore::take_corrupt`] and answered as `None`.
    pub(crate) fn admit(
        &mut self,
        node: NodeId,
        payload: Option<(u16, Bytes)>,
    ) -> Option<Arc<AdjacencyRecord>> {
        let (server, bytes) = payload?;
        let size = bytes.len();
        self.stats.cache_misses += 1;
        self.stats.miss_bytes += size as u64;
        self.miss_log.push(MissEvent {
            server,
            bytes: size as u32,
        });
        let rec = match AdjacencyRecord::decode(bytes) {
            Ok(rec) => Arc::new(rec),
            Err(err) => {
                self.corrupt.get_or_insert((node, err));
                return None;
            }
        };
        // An insert that bounces back (NullCache / oversized) is not an
        // eviction of previously cached data, and `insert_counted` does not
        // count it.
        let evicted = self
            .cache
            .insert_counted(node, Arc::clone(&rec), rec.resident_len());
        self.stats.evictions += evicted as u64;
        Some(rec)
    }

    /// Swaps this store's accumulated statistics and miss log with the
    /// caller's. A processor overlapping several in-flight queries over
    /// *one* cache constructs a transient store per execution step and
    /// swaps the active query's accounting in before the step and out
    /// after it, so hits, misses, bytes, and evictions stay attributed to
    /// the query that caused them (totals then sum correctly across
    /// interleaved queries).
    pub fn swap_accounting(&mut self, stats: &mut AccessStats, miss_log: &mut Vec<MissEvent>) {
        std::mem::swap(&mut self.stats, stats);
        std::mem::swap(&mut self.miss_log, miss_log);
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Drains the ordered per-miss event log.
    pub fn take_miss_log(&mut self) -> Vec<MissEvent> {
        std::mem::take(&mut self.miss_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_cache::{LruCache, NullCache};
    use grouting_graph::{GraphBuilder, NodeId};
    use grouting_storage::HashPartitioner;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn tier() -> StorageTier {
        let mut b = GraphBuilder::new();
        for i in 0..9 {
            b.add_edge(n(i), n(i + 1));
        }
        let g = b.build().unwrap();
        let tier = StorageTier::new(std::sync::Arc::new(HashPartitioner::new(2)));
        tier.load_graph(&g).unwrap();
        tier
    }

    #[test]
    fn first_access_misses_second_hits() {
        let t = tier();
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut store = CacheBackedStore::new(&t, &mut cache);
        let a = store.fetch(n(3)).unwrap();
        assert_eq!(a.out(), &[n(4)]);
        let b = store.fetch(n(3)).unwrap();
        assert_eq!(a, b);
        let s = store.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert!(s.miss_bytes > 0);
    }

    #[test]
    fn a_miss_charges_the_cache_the_resident_size_and_counts_the_payload() {
        // Node 0's record in a three-neighbour graph: 0 → 1, 0 → 2, 3 → 0.
        let mut b = GraphBuilder::new();
        b.add_edge(n(0), n(1));
        b.add_edge(n(0), n(2));
        b.add_edge(n(3), n(0));
        let t = StorageTier::new(std::sync::Arc::new(HashPartitioner::new(1)));
        t.load_graph(&b.build().unwrap()).unwrap();
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut store = CacheBackedStore::new(&t, &mut cache);
        let rec = store.fetch(n(0)).unwrap();
        assert_eq!(rec.resident_len(), 21);
        assert_eq!(store.stats().miss_bytes, 6, "the payload as it travelled");
        assert_eq!(store.take_miss_log()[0].bytes, 6);
        drop(store);
        assert_eq!(cache.bytes(), 21, "the record as it is held");
    }

    #[test]
    fn null_cache_always_misses() {
        let t = tier();
        let mut cache: ProcessorCache = Box::new(NullCache::new());
        let mut store = CacheBackedStore::new(&t, &mut cache);
        store.fetch(n(1));
        store.fetch(n(1));
        store.fetch(n(1));
        let s = store.stats();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 3);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn missing_node_is_none_and_unrecorded() {
        let t = tier();
        let mut cache: ProcessorCache = Box::new(LruCache::new(1024));
        let mut store = CacheBackedStore::new(&t, &mut cache);
        assert!(store.fetch(n(500)).is_none());
        assert_eq!(store.stats().cache_misses, 0);
        assert_eq!(store.stats().cache_hits, 0);
    }

    #[test]
    fn evictions_are_counted() {
        let t = tier();
        // Tiny cache: each record ~25 bytes, capacity fits about one.
        let mut cache: ProcessorCache = Box::new(LruCache::new(40));
        let mut store = CacheBackedStore::new(&t, &mut cache);
        store.fetch(n(0));
        store.fetch(n(1));
        store.fetch(n(2));
        assert!(store.stats().evictions > 0);
    }

    #[test]
    fn fetch_many_batches_misses_and_matches_scalar_order() {
        let t = tier();
        let nodes: Vec<NodeId> = (0..8).map(n).collect();

        // Scalar reference: one fetch per node, in order.
        let mut scalar_cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut scalar = CacheBackedStore::new(&t, &mut scalar_cache);
        let scalar_recs: Vec<_> = nodes.iter().map(|&v| scalar.fetch(v)).collect();
        let scalar_stats = scalar.stats();
        let scalar_log = scalar.take_miss_log();

        // Batched: the same nodes as one frontier.
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut store = CacheBackedStore::new(&t, &mut cache);
        let recs = store.fetch_many(&nodes);
        assert_eq!(recs, scalar_recs);
        assert_eq!(store.stats(), scalar_stats);
        assert_eq!(store.take_miss_log(), scalar_log);

        // A second pass over the same frontier is all hits on both paths.
        let again = store.fetch_many(&nodes);
        assert_eq!(again, recs);
        assert_eq!(store.stats().cache_hits, nodes.len() as u64);
    }

    #[test]
    fn fetch_many_handles_duplicates_and_missing_nodes() {
        let t = tier();
        // Duplicate inside the batch: first occurrence misses, second
        // hits (exactly what serial fetches would do); the unknown node
        // yields None without counting an access.
        let nodes = [n(2), n(500), n(2), n(3)];
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut store = CacheBackedStore::new(&t, &mut cache);
        let recs = store.fetch_many(&nodes);
        assert!(recs[0].is_some());
        assert!(recs[1].is_none());
        assert_eq!(recs[2], recs[0]);
        assert!(recs[3].is_some());
        let s = store.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 2);
    }

    #[test]
    fn fetch_many_with_null_cache_misses_everything() {
        let t = tier();
        let mut cache: ProcessorCache = Box::new(NullCache::new());
        let mut store = CacheBackedStore::new(&t, &mut cache);
        let nodes: Vec<NodeId> = (0..5).map(n).collect();
        store.fetch_many(&nodes);
        store.fetch_many(&nodes);
        let s = store.stats();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 10);
    }

    /// A recording source: proves the batched path issues exactly one
    /// batch per fetch_many call, containing only the miss portion.
    struct CountingSource<'a> {
        tier: &'a StorageTier,
        batches: Vec<Vec<NodeId>>,
    }

    impl BatchSource for CountingSource<'_> {
        fn fetch_batch(&mut self, nodes: &[NodeId]) -> Vec<Option<(u16, Bytes)>> {
            self.batches.push(nodes.to_vec());
            nodes
                .iter()
                .map(|&v| self.tier.get(v).map(|(s, b)| (s as u16, b)))
                .collect()
        }
    }

    #[test]
    fn fetch_many_ships_only_the_miss_portion() {
        let t = tier();
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        // Warm nodes 0 and 1.
        {
            let mut store = CacheBackedStore::new(&t, &mut cache);
            store.fetch(n(0));
            store.fetch(n(1));
        }
        let mut source = CountingSource {
            tier: &t,
            batches: Vec::new(),
        };
        let mut store = CacheBackedStore::new(&mut source, &mut cache);
        let nodes = [n(0), n(4), n(1), n(5)];
        let recs = store.fetch_many(&nodes);
        assert!(recs.iter().all(Option::is_some));
        let s = store.stats();
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 2);
        drop(store);
        assert_eq!(
            source.batches,
            vec![vec![n(4), n(5)]],
            "misses only, and no per-node fallback"
        );
    }

    #[test]
    fn plan_then_apply_equals_fetch_many() {
        let t = tier();
        let nodes: Vec<NodeId> = [0u32, 3, 0, 7, 500, 3].iter().map(|&v| n(v)).collect();

        let mut ref_cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut reference = CacheBackedStore::new(&t, &mut ref_cache);
        let want = reference.fetch_many(&nodes);
        let want_stats = reference.stats();

        // The staged split: plan, fetch the miss set out-of-band, apply.
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut store = CacheBackedStore::new(&t, &mut cache);
        let miss = store.plan_many(&nodes);
        assert_eq!(miss, vec![n(0), n(3), n(7), n(500)], "deduped misses");
        let payloads: Vec<Option<(u16, Bytes)>> = miss
            .iter()
            .map(|&v| t.get(v).map(|(s, b)| (s as u16, b)))
            .collect();
        let got = store.apply_many(&nodes, &miss, payloads);
        assert_eq!(got, want);
        assert_eq!(store.stats(), want_stats);
    }

    #[test]
    fn swap_accounting_attributes_per_query() {
        let t = tier();
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut store = CacheBackedStore::new(&t, &mut cache);

        // Query A's accounting, swapped in, then out.
        let mut a_stats = AccessStats::default();
        let mut a_log = Vec::new();
        store.swap_accounting(&mut a_stats, &mut a_log);
        store.fetch(n(0));
        store.fetch(n(1));
        store.swap_accounting(&mut a_stats, &mut a_log);
        assert_eq!(a_stats.cache_misses, 2);
        assert_eq!(a_log.len(), 2);

        // Query B interleaves on the same store: its stats start clean,
        // and A's are untouched while B runs.
        let mut b_stats = AccessStats::default();
        let mut b_log = Vec::new();
        store.swap_accounting(&mut b_stats, &mut b_log);
        store.fetch(n(0)); // hot from A
        store.fetch(n(2));
        store.swap_accounting(&mut b_stats, &mut b_log);
        assert_eq!(b_stats.cache_hits, 1);
        assert_eq!(b_stats.cache_misses, 1);
        assert_eq!(a_stats.cache_misses, 2, "A unchanged by B's run");
        // The store's own counters saw nothing while swapped out.
        assert_eq!(store.stats(), AccessStats::default());
    }

    /// An LRU that hands its final recency order out when dropped: the
    /// store only ever sees a `ProcessorCache`, and the order is part of
    /// what the two fetch paths must agree on.
    struct ProbedLru {
        inner: LruCache<NodeId, Arc<AdjacencyRecord>>,
        mru_at_drop: Arc<std::sync::Mutex<Vec<NodeId>>>,
    }

    impl Drop for ProbedLru {
        fn drop(&mut self) {
            *self.mru_at_drop.lock().unwrap() = self.inner.keys_mru().copied().collect();
        }
    }

    impl Cache<NodeId, Arc<AdjacencyRecord>> for ProbedLru {
        fn get(&mut self, key: &NodeId) -> Option<&Arc<AdjacencyRecord>> {
            self.inner.get(key)
        }
        fn insert(
            &mut self,
            key: NodeId,
            value: Arc<AdjacencyRecord>,
            bytes: usize,
        ) -> Vec<(NodeId, Arc<AdjacencyRecord>)> {
            self.inner.insert(key, value, bytes)
        }
        fn contains(&self, key: &NodeId) -> bool {
            self.inner.contains(key)
        }
        fn peek(&self, key: &NodeId) -> Option<&Arc<AdjacencyRecord>> {
            self.inner.peek(key)
        }
        fn bytes(&self) -> usize {
            self.inner.bytes()
        }
        fn capacity(&self) -> usize {
            self.inner.capacity()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn clear(&mut self) {
            self.inner.clear()
        }
    }

    /// Cache `pick`: 0 is a `NullCache` (every insert bounces), 1–3 are
    /// LRUs holding about one, three and eight of the test tier's records
    /// (so predicted hits get evicted mid-batch), 4 holds everything.
    fn picked_cache(pick: usize) -> (ProcessorCache, Arc<std::sync::Mutex<Vec<NodeId>>>) {
        let mru = Arc::new(std::sync::Mutex::new(Vec::new()));
        let cache: ProcessorCache = match pick {
            0 => Box::new(NullCache::new()),
            _ => Box::new(ProbedLru {
                inner: LruCache::new([40usize, 80, 200, 1 << 20][pick - 1]),
                mru_at_drop: Arc::clone(&mru),
            }),
        };
        (cache, mru)
    }

    /// Everything one fetch path leaves behind.
    #[derive(Debug, PartialEq)]
    struct Trace {
        records: Vec<Option<Arc<AdjacencyRecord>>>,
        stats: AccessStats,
        miss_log: Vec<MissEvent>,
        mru: Vec<NodeId>,
    }

    /// Runs `accesses`, chopped into frontiers by `splits`, down one fetch
    /// path: `fetch` per node, or `fetch_many` per frontier. With
    /// `interlopers`, a *second* store over the same cache fetches them
    /// before each frontier's records are read — on the batched path that
    /// is between `plan_many` and `apply_many`, where an overlapped query's
    /// apply lands; on the scalar path, where the plan has no counterpart,
    /// just ahead of the frontier's fetches. The second store's own
    /// accounting is not part of the trace; what it did to the cache is.
    fn run_path(
        batched: bool,
        accesses: &[u32],
        splits: &[usize],
        pick: usize,
        interlopers: &[u32],
    ) -> Trace {
        let t = tier();
        let (mut cache, mru) = picked_cache(pick);
        let mut records = Vec::new();
        let mut stats = AccessStats::default();
        let mut miss_log = Vec::new();
        let mut widths = splits.iter().copied().cycle();
        let mut rest = accesses;
        while !rest.is_empty() {
            let (head, tail) = rest.split_at(widths.next().unwrap().min(rest.len()));
            rest = tail;
            let frontier: Vec<NodeId> = head.iter().map(|&v| n(v)).collect();
            let planned = (batched && !interlopers.is_empty()).then(|| {
                let miss = CacheBackedStore::new(&t, &mut cache).plan_many(&frontier);
                let payloads: Vec<_> = miss
                    .iter()
                    .map(|&v| t.get(v).map(|(s, b)| (s as u16, b)))
                    .collect();
                (miss, payloads)
            });
            {
                let mut other = CacheBackedStore::new(&t, &mut cache);
                for &v in interlopers {
                    other.fetch(n(v));
                }
            }
            let mut store = CacheBackedStore::new(&t, &mut cache);
            store.swap_accounting(&mut stats, &mut miss_log);
            records.extend(match planned {
                Some((miss, payloads)) => store.apply_many(&frontier, &miss, payloads),
                None if batched => store.fetch_many(&frontier),
                None => frontier.iter().map(|&v| store.fetch(v)).collect(),
            });
            store.swap_accounting(&mut stats, &mut miss_log);
        }
        drop(cache);
        let mru = mru.lock().unwrap().clone();
        Trace {
            records,
            stats,
            miss_log,
            mru,
        }
    }

    /// A cache seen only through `insert`: its `insert_counted` is the
    /// trait's provided body, which counts `insert`'s vector.
    struct InsertOnly(ProcessorCache);

    impl Cache<NodeId, Arc<AdjacencyRecord>> for InsertOnly {
        fn get(&mut self, key: &NodeId) -> Option<&Arc<AdjacencyRecord>> {
            self.0.get(key)
        }
        fn insert(
            &mut self,
            key: NodeId,
            value: Arc<AdjacencyRecord>,
            bytes: usize,
        ) -> Vec<(NodeId, Arc<AdjacencyRecord>)> {
            self.0.insert(key, value, bytes)
        }
        fn contains(&self, key: &NodeId) -> bool {
            self.0.contains(key)
        }
        fn peek(&self, key: &NodeId) -> Option<&Arc<AdjacencyRecord>> {
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

    /// Cache `policy` (0–2: LRU, FIFO, LFU; 3: `NullCache`) of room for
    /// none of the test tier's records (each insert is rejected), about
    /// one, about three, or all of them.
    fn policy_cache(policy: usize, room: usize) -> ProcessorCache {
        use grouting_cache::Policy;
        let capacity = [10usize, 40, 80, 1 << 20][room];
        match policy {
            0 => Policy::Lru.build(capacity),
            1 => Policy::Fifo.build(capacity),
            2 => Policy::Lfu.build(capacity),
            _ => Box::new(NullCache::new()),
        }
    }

    /// What [`admit_all`] leaves behind.
    type Admitted = (
        Vec<Option<Arc<AdjacencyRecord>>>,
        AccessStats,
        Vec<MissEvent>,
        Vec<Option<Arc<AdjacencyRecord>>>,
    );

    /// Fetches `accesses` one at a time through `cache`; returns the
    /// records, the accounting and what the cache holds afterwards.
    fn admit_all(t: &StorageTier, mut cache: ProcessorCache, accesses: &[u32]) -> Admitted {
        let mut store = CacheBackedStore::new(t, &mut cache);
        let records = accesses.iter().map(|&v| store.fetch(n(v))).collect();
        let (stats, log) = (store.stats(), store.take_miss_log());
        drop(store);
        let held = (0..13).map(|v| cache.peek(&n(v)).cloned()).collect();
        (records, stats, log, held)
    }

    proptest::proptest! {
        /// Counting evictions leaves the same trace as collecting them:
        /// for each policy, a store over the policy as it is (its own
        /// `insert_counted`) and one over the policy seen only through
        /// `insert` return the same records and `AccessStats` (evictions
        /// included), log the same misses, and leave the same entries.
        #[test]
        fn prop_counted_admission_equals_collected_evictions(
            accesses in proptest::collection::vec(0u32..13, 1..60),
            policy in 0usize..4,
            room in 0usize..4,
        ) {
            let t = tier();
            let counted = admit_all(&t, policy_cache(policy, room), &accesses);
            let collected = admit_all(
                &t,
                Box::new(InsertOnly(policy_cache(policy, room))),
                &accesses,
            );
            proptest::prop_assert_eq!(counted, collected);
        }

        /// The batched fetch path leaves behind exactly what serial scalar
        /// fetches do — records, statistics, miss log and the LRU's
        /// recency order — for ANY access sequence (duplicates and unknown
        /// nodes included), batch split, and cache: one that bounces every
        /// insert, ones small enough to evict a predicted hit mid-batch,
        /// one that holds everything.
        #[test]
        fn prop_fetch_many_accounting_equals_scalar(
            accesses in proptest::collection::vec(0u32..13, 1..60),
            splits in proptest::collection::vec(1usize..8, 1..12),
            cache_pick in 0usize..5,
        ) {
            let scalar = run_path(false, &accesses, &splits, cache_pick, &[]);
            let batched = run_path(true, &accesses, &splits, cache_pick, &[]);
            proptest::prop_assert_eq!(batched, scalar);
        }

        /// Positional apply under interleaving: the same equality when a
        /// second store inserts into the cache between a frontier's
        /// `plan_many` and its `apply_many`, so planned misses turn into
        /// hits and planned hits into misses before the answers are
        /// consumed.
        #[test]
        fn prop_positional_apply_equals_scalar_fetches(
            accesses in proptest::collection::vec(0u32..13, 1..60),
            splits in proptest::collection::vec(1usize..9, 1..12),
            cache_pick in 0usize..5,
            interlopers in proptest::collection::vec(0u32..12, 1..4),
        ) {
            let scalar = run_path(false, &accesses, &splits, cache_pick, &interlopers);
            let batched = run_path(true, &accesses, &splits, cache_pick, &interlopers);
            proptest::prop_assert_eq!(batched, scalar);
        }
    }

    #[test]
    fn stats_merge() {
        let mut a = AccessStats {
            cache_hits: 1,
            cache_misses: 2,
            miss_bytes: 30,
            evictions: 0,
        };
        let b = AccessStats {
            cache_hits: 4,
            cache_misses: 1,
            miss_bytes: 10,
            evictions: 2,
        };
        a.merge(&b);
        assert_eq!(a.cache_hits, 5);
        assert_eq!(a.accesses(), 8);
        assert_eq!(a.miss_bytes, 40);
        assert_eq!(a.evictions, 2);
    }
}
