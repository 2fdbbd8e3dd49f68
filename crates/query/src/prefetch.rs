//! Speculative frontier prefetching with demand/speculative accounting.
//!
//! Frontier batching (`grouting-flow`) made the per-level storage exchange
//! cheap, but a BFS still pays one full RTT per level before the next
//! level can start. This module piggybacks *predicted* next-hop nodes onto
//! the frontier batch already going out, so when the traversal reaches
//! them their bytes are on hand and the level needs no wire exchange at
//! all — cutting an RTT per level when the prediction lands.
//!
//! Two predictors ship (the [`Prefetcher`] trait takes more):
//!
//! * [`DegreePrefetcher`] — structural: among the frontier members whose
//!   adjacency is *already cached* (peeked without promotion side
//!   effects), speculate on the highest-degree members' neighbours — the
//!   nodes most likely to dominate the next frontier;
//! * [`HotspotPrefetcher`] — history: per-processor decayed access counts
//!   (the same exponential-forgetting idea as the route layer's EMA,
//!   Eq. 5, and PHD-Store's workload-adaptive placement), speculating on
//!   the hottest nodes the cache does not currently hold. Pays for itself
//!   after a short warm-up on skewed workloads.
//!
//! **Accounting contract.** Speculative payloads never enter the
//! processor cache directly — they wait in a bounded side buffer owned by
//! [`PrefetchState`]. A demand access that would miss checks the buffer
//! before going to storage: if the bytes are there, the access is *still
//! accounted as a cache miss* (same `miss_bytes`, same
//! [`crate::fetch::MissEvent`] — the bytes did cross the wire, just
//! earlier) and the record is inserted into the cache exactly as a demand
//! miss would be. The cache therefore sees the identical insert sequence
//! it would see with prefetch off, so Eq. 8/9 demand statistics, eviction
//! counts, and LRU state are byte-identical under ANY predictor and
//! budget — the property the prefetch proptests pin. The speculative side
//! is tallied separately in [`PrefetchStats`].

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use grouting_graph::codec::AdjacencyRecord;
use grouting_graph::{NodeId, NodeMap, NodeSet};

use crate::fetch::ProcessorCache;

/// Which prediction policy a deployment runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PrefetchPolicy {
    /// No speculation (the measured baseline).
    #[default]
    Off,
    /// Structural: highest-degree cached frontier members' neighbours.
    Degree,
    /// History: per-processor decayed access counts.
    Hotspot,
}

impl std::fmt::Display for PrefetchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrefetchPolicy::Off => write!(f, "off"),
            PrefetchPolicy::Degree => write!(f, "degree"),
            PrefetchPolicy::Hotspot => write!(f, "hotspot"),
        }
    }
}

/// The speculation policy plus its budget: how much a predictor may
/// piggyback.
///
/// Carried by `EngineConfig`, the one declaration both runtimes (the
/// simulator, the wire cluster) read, and honoured
/// per batch: at most `max_nodes` speculative nodes ride on one frontier
/// fetch, and the staging buffer holds at most `max_bytes` of speculative
/// payloads (oldest dropped first, counted as waste).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// The prediction policy ([`PrefetchPolicy::Off`] disables everything).
    pub policy: PrefetchPolicy,
    /// Most speculative nodes appended to one frontier batch.
    pub max_nodes: usize,
    /// Staging-buffer byte budget for not-yet-demanded payloads, counted
    /// as they arrived (encoded), not as a cache would charge them.
    pub max_bytes: usize,
}

impl PrefetchConfig {
    /// Prefetch disabled — the default everywhere.
    pub const OFF: Self = Self {
        policy: PrefetchPolicy::Off,
        max_nodes: 0,
        max_bytes: 0,
    };

    /// The default budget for an enabled policy: 256 nodes per batch,
    /// 4 MiB of staged payloads.
    pub fn with_policy(policy: PrefetchPolicy) -> Self {
        match policy {
            PrefetchPolicy::Off => Self::OFF,
            _ => Self {
                policy,
                max_nodes: 256,
                max_bytes: 4 << 20,
            },
        }
    }

    /// Whether any speculation happens under this configuration.
    pub fn enabled(&self) -> bool {
        self.policy != PrefetchPolicy::Off && self.max_nodes > 0
    }

    /// Parses a `GROUTING_PREFETCH` value: `off`/`0`/`false` disable,
    /// `degree` and `hotspot` pick a policy (optionally `policy:max_nodes`
    /// to override the per-batch node budget), `on`/`1` mean `hotspot`.
    /// `None` on anything else.
    pub fn parse(raw: &str) -> Option<Self> {
        let raw = raw.trim();
        let (policy_str, budget) = match raw.split_once(':') {
            Some((p, b)) => (p, Some(b)),
            None => (raw, None),
        };
        let policy = match policy_str.to_ascii_lowercase().as_str() {
            "off" | "0" | "false" | "" => PrefetchPolicy::Off,
            "degree" => PrefetchPolicy::Degree,
            "hotspot" | "on" | "1" | "true" => PrefetchPolicy::Hotspot,
            _ => return None,
        };
        let mut cfg = Self::with_policy(policy);
        if let Some(b) = budget {
            let nodes: usize = b.parse().ok().filter(|&n| n > 0)?;
            if policy == PrefetchPolicy::Off {
                return None; // "off:64" is a contradiction, not a budget.
            }
            cfg.max_nodes = nodes;
        }
        Some(cfg)
    }
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        Self::OFF
    }
}

/// Speculative-traffic counters, kept strictly apart from the demand-side
/// [`crate::fetch::AccessStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Speculative nodes appended to frontier batches.
    pub issued: u64,
    /// Demand accesses served from the staging buffer — a miss whose RTT
    /// was already paid speculatively ("hit because prefetched").
    pub hits: u64,
    /// Staged payload bytes dropped without ever being demanded (budget
    /// evictions and payloads that arrived after the cache already held
    /// the record). Payloads still *staged* when the tally is read are in
    /// neither bucket — they were fetched but not yet judged — so
    /// `issued >= hits + (wasted payload count)` at any instant.
    pub wasted_bytes: u64,
}

impl PrefetchStats {
    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &PrefetchStats) {
        self.issued += other.issued;
        self.hits += other.hits;
        self.wasted_bytes += other.wasted_bytes;
    }

    /// Fraction of issued speculations that were demanded, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.hits as f64 / self.issued as f64
        }
    }
}

/// A prediction policy: proposes nodes to piggyback on a frontier batch.
///
/// `exclude` is the caller's residency filter (cached, already staged, in
/// flight, or part of the current frontier — fetching those would be pure
/// waste); `peek` reads a cached record *without* promotion side effects.
/// Implementations must be deterministic for a given observation history
/// (ties broken by node id), so prefetch-enabled runs are reproducible.
pub trait Prefetcher: Send {
    /// Proposes up to `budget` nodes worth speculating on for the frontier
    /// about to be fetched.
    fn predict(
        &mut self,
        frontier: &[NodeId],
        exclude: &dyn Fn(NodeId) -> bool,
        peek: &dyn Fn(NodeId) -> Option<Arc<AdjacencyRecord>>,
        budget: usize,
    ) -> Vec<NodeId>;

    /// Observes the demand frontier (every node the query is about to
    /// access), before prediction. History policies learn here.
    fn observe(&mut self, frontier: &[NodeId]);
}

/// Structural predictor: the next BFS frontier is the neighbours of the
/// current one, and high-degree members contribute most of it. Frontier
/// members already resident in the cache expose their adjacency for free
/// (a promotion-free peek), so their neighbours can ride along with the
/// batch fetching the *rest* of the frontier — arriving one level early.
#[derive(Debug, Default)]
pub struct DegreePrefetcher;

impl Prefetcher for DegreePrefetcher {
    fn predict(
        &mut self,
        frontier: &[NodeId],
        exclude: &dyn Fn(NodeId) -> bool,
        peek: &dyn Fn(NodeId) -> Option<Arc<AdjacencyRecord>>,
        budget: usize,
    ) -> Vec<NodeId> {
        // Cached frontier members, highest fan-out first (ties by id so
        // prediction order is deterministic).
        let mut cached: Vec<(usize, NodeId, Arc<AdjacencyRecord>)> = frontier
            .iter()
            .filter_map(|&v| peek(v).map(|rec| (rec.degree(), v, rec)))
            .collect();
        cached.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        let mut proposed: Vec<NodeId> = Vec::new();
        let mut seen = NodeSet::default();
        'members: for (_, _, rec) in &cached {
            for &w in rec.all_neighbors() {
                if proposed.len() >= budget {
                    break 'members;
                }
                if !exclude(w) && seen.insert(w) {
                    proposed.push(w);
                }
            }
        }
        proposed
    }

    fn observe(&mut self, _frontier: &[NodeId]) {}
}

/// History predictor: exponentially decayed per-node access counts (the
/// EMA idea of Eq. 5 applied to the fetch stream, as PHD-Store applies it
/// to placement). Every observed frontier decays the whole table by
/// [`HotspotPrefetcher::DECAY`] and bumps its members; prediction proposes
/// the hottest nodes the cache does not currently hold.
#[derive(Debug)]
pub struct HotspotPrefetcher {
    counts: HashMap<NodeId, f64>,
    max_tracked: usize,
}

impl HotspotPrefetcher {
    /// Per-observation decay multiplier: history fades like the route
    /// layer's EMA, favouring the recent workload.
    pub const DECAY: f64 = 0.9;

    /// A predictor tracking at most `max_tracked` distinct nodes (the
    /// coldest half is pruned when the table overflows).
    pub fn new(max_tracked: usize) -> Self {
        Self {
            counts: HashMap::new(),
            max_tracked: max_tracked.max(16),
        }
    }
}

impl Default for HotspotPrefetcher {
    fn default() -> Self {
        Self::new(4096)
    }
}

impl Prefetcher for HotspotPrefetcher {
    fn predict(
        &mut self,
        _frontier: &[NodeId],
        exclude: &dyn Fn(NodeId) -> bool,
        _peek: &dyn Fn(NodeId) -> Option<Arc<AdjacencyRecord>>,
        budget: usize,
    ) -> Vec<NodeId> {
        let mut hot: Vec<(NodeId, f64)> = self
            .counts
            .iter()
            .filter(|(&v, _)| !exclude(v))
            .map(|(&v, &c)| (v, c))
            .collect();
        // Hottest first; ties by node id for determinism.
        hot.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        hot.truncate(budget);
        hot.into_iter().map(|(v, _)| v).collect()
    }

    fn observe(&mut self, frontier: &[NodeId]) {
        if frontier.is_empty() {
            return;
        }
        for c in self.counts.values_mut() {
            *c *= Self::DECAY;
        }
        for &v in frontier {
            *self.counts.entry(v).or_insert(0.0) += 1.0;
        }
        if self.counts.len() > self.max_tracked {
            // Prune the coldest half in one sweep — by (count, id) so ties
            // cannot defeat the cap (an all-equal table would survive a
            // count-threshold retain untouched).
            let mut entries: Vec<(f64, NodeId)> =
                self.counts.iter().map(|(&v, &c)| (c, v)).collect();
            let mid = entries.len() / 2;
            entries.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).unwrap());
            for (_, v) in &entries[..mid] {
                self.counts.remove(v);
            }
        }
    }
}

/// One staged speculative payload.
struct Staged {
    server: u16,
    bytes: Bytes,
}

/// Per-processor speculation state: the configured predictor, the staging
/// buffer of fetched-but-not-yet-demanded payloads, and the speculative
/// tally. Lives with the processor's cache (one per worker or pipeline)
/// and is *borrowed* by transient [`crate::fetch::CacheBackedStore`]s, so
/// it persists across queries the way the cache does.
pub struct PrefetchState {
    config: PrefetchConfig,
    prefetcher: Option<Box<dyn Prefetcher>>,
    buffer: NodeMap<Staged>,
    /// Arrival order for budget eviction (may contain ids already taken;
    /// membership in `buffer` is authoritative).
    order: VecDeque<NodeId>,
    buffer_bytes: usize,
    /// Speculations submitted but not yet arrived (excluded from new
    /// predictions so pipelined batches don't re-request them).
    in_flight: NodeSet,
    /// Staged nodes a frontier plan is counting on: excluded from the
    /// demand batch on the promise the payload is here, so budget
    /// eviction must not drop them before the apply consumes them (a
    /// broken promise would force a *blocking* scalar fetch inside the
    /// otherwise non-blocking pipeline step). Cleared on take.
    reserved: NodeSet,
    /// Nodes some overlapped query's *demand* batch is currently
    /// fetching (reference-counted — interleaved queries may legally
    /// request the same node). Predictions exclude them: speculating on
    /// bytes already crossing the wire would ship them twice.
    demand_in_flight: NodeMap<u32>,
    stats: PrefetchStats,
}

impl PrefetchState {
    /// State for `config` ([`PrefetchConfig::OFF`] builds an inert state:
    /// every operation is a cheap no-op).
    pub fn new(config: PrefetchConfig) -> Self {
        let prefetcher: Option<Box<dyn Prefetcher>> = if config.enabled() {
            match config.policy {
                PrefetchPolicy::Off => None,
                PrefetchPolicy::Degree => Some(Box::new(DegreePrefetcher)),
                PrefetchPolicy::Hotspot => Some(Box::new(HotspotPrefetcher::default())),
            }
        } else {
            None
        };
        Self {
            config,
            prefetcher,
            buffer: NodeMap::default(),
            order: VecDeque::new(),
            buffer_bytes: 0,
            in_flight: NodeSet::default(),
            reserved: NodeSet::default(),
            demand_in_flight: NodeMap::default(),
            stats: PrefetchStats::default(),
        }
    }

    /// The configuration this state was built from.
    pub fn config(&self) -> &PrefetchConfig {
        &self.config
    }

    /// Whether a speculative payload for `node` is staged.
    pub fn contains(&self, node: NodeId) -> bool {
        self.buffer.contains_key(&node)
    }

    /// Records that a demand batch for `nodes` went on the wire: until
    /// [`PrefetchState::demand_arrived`] balances it, predictions will not
    /// propose these nodes (their bytes are already travelling). Drivers
    /// overlapping several queries over one state call this per submitted
    /// frontier; strictly serial drivers need not bother (the batch is
    /// collected before the next plan runs).
    pub fn demand_submitted(&mut self, nodes: &[NodeId]) {
        for &node in nodes {
            *self.demand_in_flight.entry(node).or_insert(0) += 1;
        }
    }

    /// Balances a [`PrefetchState::demand_submitted`] once the batch's
    /// payloads arrived.
    pub fn demand_arrived(&mut self, nodes: &[NodeId]) {
        for node in nodes {
            if let Some(count) = self.demand_in_flight.get_mut(node) {
                *count -= 1;
                if *count == 0 {
                    self.demand_in_flight.remove(node);
                }
            }
        }
    }

    /// If `node` is staged, *reserves* its payload — the caller may leave
    /// the node out of a demand batch, and the payload is guaranteed to
    /// survive budget eviction until [`PrefetchState::take`] consumes it.
    /// Returns whether the reservation held (false = not staged, fetch it
    /// normally).
    pub fn reserve_staged(&mut self, node: NodeId) -> bool {
        if self.buffer.contains_key(&node) {
            self.reserved.insert(node);
            true
        } else {
            false
        }
    }

    /// The speculative tally so far.
    pub fn stats(&self) -> PrefetchStats {
        self.stats
    }

    /// Observes a demand frontier and proposes the speculative nodes to
    /// append to its batch. Empty when the policy is off or nothing is
    /// being fetched (`miss` empty — speculation only ever *piggybacks* on
    /// a demand exchange, it never creates one). `cache` is consulted
    /// promotion-free, both for exclusion and for the structural
    /// predictor's peeks.
    pub fn plan(
        &mut self,
        frontier: &[NodeId],
        miss: &[NodeId],
        cache: &ProcessorCache,
    ) -> Vec<NodeId> {
        let Some(prefetcher) = self.prefetcher.as_mut() else {
            return Vec::new();
        };
        prefetcher.observe(frontier);
        if miss.is_empty() {
            return Vec::new();
        }
        let frontier_set: NodeSet = frontier.iter().chain(miss).copied().collect();
        let buffer = &self.buffer;
        let in_flight = &self.in_flight;
        let demand_in_flight = &self.demand_in_flight;
        let exclude = |v: NodeId| {
            cache.contains(&v)
                || buffer.contains_key(&v)
                || in_flight.contains(&v)
                || demand_in_flight.contains_key(&v)
                || frontier_set.contains(&v)
        };
        let peek = |v: NodeId| cache.peek(&v).cloned();
        let spec = prefetcher.predict(frontier, &exclude, &peek, self.config.max_nodes);
        self.stats.issued += spec.len() as u64;
        self.in_flight.extend(spec.iter().copied());
        spec
    }

    /// Stages the payloads answering a speculative request (`nodes` in the
    /// order [`PrefetchState::plan`] proposed them). Payloads for records
    /// the cache acquired in the meantime — or that are already staged —
    /// are waste, as is whatever the byte budget pushes out (oldest
    /// first).
    pub fn absorb(
        &mut self,
        nodes: &[NodeId],
        payloads: Vec<Option<(u16, Bytes)>>,
        cache: &ProcessorCache,
    ) {
        debug_assert_eq!(nodes.len(), payloads.len(), "one payload per speculation");
        for (&node, payload) in nodes.iter().zip(payloads) {
            self.in_flight.remove(&node);
            let Some((server, bytes)) = payload else {
                continue; // Not stored: nothing travelled beyond the id.
            };
            if cache.contains(&node) || self.buffer.contains_key(&node) {
                self.stats.wasted_bytes += bytes.len() as u64;
                continue;
            }
            self.buffer_bytes += bytes.len();
            self.buffer.insert(node, Staged { server, bytes });
            self.order.push_back(node);
        }
        // Budget eviction, oldest first — but never a reserved payload (a
        // plan already promised it to an in-flight apply). Reserved
        // survivors keep their queue position.
        let mut kept: Vec<NodeId> = Vec::new();
        while self.buffer_bytes > self.config.max_bytes {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if !self.buffer.contains_key(&old) {
                continue; // Stale queue entry (already taken).
            }
            if self.reserved.contains(&old) {
                kept.push(old);
                continue;
            }
            let staged = self.buffer.remove(&old).expect("membership checked");
            self.buffer_bytes -= staged.bytes.len();
            self.stats.wasted_bytes += staged.bytes.len() as u64;
        }
        for node in kept.into_iter().rev() {
            self.order.push_front(node);
        }
    }

    /// Takes the staged payload for a *demanded* node, counting the
    /// prefetch hit. The caller accounts the access as a normal demand
    /// miss — the bytes crossed the wire, just ahead of time.
    pub fn take(&mut self, node: NodeId) -> Option<(u16, Bytes)> {
        let staged = self.buffer.remove(&node)?;
        self.reserved.remove(&node);
        self.buffer_bytes -= staged.bytes.len();
        self.stats.hits += 1;
        Some((staged.server, staged.bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_cache::{LruCache, NullCache};
    use grouting_graph::codec::AdjacencyRecord;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn rec(out: &[u32], inc: &[u32]) -> Arc<AdjacencyRecord> {
        Arc::new(AdjacencyRecord::new(
            out.iter().map(|&v| n(v)),
            inc.iter().map(|&v| n(v)),
        ))
    }

    #[test]
    fn parse_accepts_policies_budgets_and_rejects_junk() {
        assert_eq!(PrefetchConfig::parse("off"), Some(PrefetchConfig::OFF));
        assert_eq!(PrefetchConfig::parse("0"), Some(PrefetchConfig::OFF));
        let d = PrefetchConfig::parse("degree").unwrap();
        assert_eq!(d.policy, PrefetchPolicy::Degree);
        assert_eq!(d.max_nodes, 256);
        let h = PrefetchConfig::parse("hotspot:64").unwrap();
        assert_eq!(h.policy, PrefetchPolicy::Hotspot);
        assert_eq!(h.max_nodes, 64);
        assert_eq!(
            PrefetchConfig::parse("on").unwrap().policy,
            PrefetchPolicy::Hotspot
        );
        assert_eq!(PrefetchConfig::parse("bogus"), None);
        assert_eq!(PrefetchConfig::parse("degree:zero"), None);
        assert_eq!(PrefetchConfig::parse("degree:0"), None);
        assert_eq!(PrefetchConfig::parse("off:64"), None);
    }

    #[test]
    fn off_state_is_inert() {
        let mut state = PrefetchState::new(PrefetchConfig::OFF);
        let cache: ProcessorCache = Box::new(NullCache::new());
        assert!(state.plan(&[n(1), n(2)], &[n(1)], &cache).is_empty());
        assert_eq!(state.take(n(1)), None);
        assert_eq!(state.stats(), PrefetchStats::default());
    }

    #[test]
    fn degree_prefetcher_proposes_cached_members_neighbours_by_fanout() {
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        // Node 1 (degree 3) and node 2 (degree 1) are cached; node 3 is not.
        cache.insert(n(1), rec(&[10, 11], &[12]), 10);
        cache.insert(n(2), rec(&[20], &[]), 10);
        let mut state = PrefetchState::new(PrefetchConfig::with_policy(PrefetchPolicy::Degree));
        let spec = state.plan(&[n(1), n(2), n(3)], &[n(3)], &cache);
        // Highest-degree member first: node 1's neighbours, then node 2's.
        assert_eq!(spec, vec![n(10), n(11), n(12), n(20)]);
        assert_eq!(state.stats().issued, 4);

        // The budget caps the proposal.
        let mut tight = PrefetchState::new(PrefetchConfig {
            max_nodes: 2,
            ..PrefetchConfig::with_policy(PrefetchPolicy::Degree)
        });
        assert_eq!(
            tight.plan(&[n(1), n(3)], &[n(3)], &cache),
            vec![n(10), n(11)]
        );
    }

    #[test]
    fn degree_prefetcher_excludes_resident_and_frontier_nodes() {
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        cache.insert(n(1), rec(&[2, 10, 11], &[]), 10);
        cache.insert(n(10), rec(&[], &[]), 10); // Already cached → excluded.
        let mut state = PrefetchState::new(PrefetchConfig::with_policy(PrefetchPolicy::Degree));
        // 2 is in the frontier itself; 10 is cached; only 11 is worth it.
        let spec = state.plan(&[n(1), n(2)], &[n(2)], &cache);
        assert_eq!(spec, vec![n(11)]);
    }

    #[test]
    fn hotspot_prefetcher_learns_and_decays() {
        let cache: ProcessorCache = Box::new(NullCache::new());
        let mut state = PrefetchState::new(PrefetchConfig {
            max_nodes: 2,
            ..PrefetchConfig::with_policy(PrefetchPolicy::Hotspot)
        });
        // Node 7 is touched every round, node 8 once, node 9 twice.
        state.plan(&[n(7), n(8)], &[], &cache); // observe only (no miss)
        state.plan(&[n(7), n(9)], &[], &cache);
        state.plan(&[n(7), n(9)], &[], &cache);
        let spec = state.plan(&[n(1)], &[n(1)], &cache);
        assert_eq!(spec, vec![n(7), n(9)], "hottest two, decayed history");
        // In-flight nodes are not re-proposed on the next plan.
        let again = state.plan(&[n(1)], &[n(1)], &cache);
        assert!(!again.contains(&n(7)));
        assert!(!again.contains(&n(9)));
    }

    #[test]
    fn absorb_take_accounts_hits_and_waste() {
        let cache: ProcessorCache = Box::new(NullCache::new());
        let mut state = PrefetchState::new(PrefetchConfig {
            max_nodes: 8,
            max_bytes: 25,
            ..PrefetchConfig::with_policy(PrefetchPolicy::Hotspot)
        });
        let pay = |sz: usize| Some((0u16, Bytes::from(vec![0u8; sz])));
        // Three 10-byte payloads against a 25-byte budget: the oldest is
        // evicted as waste.
        state.absorb(&[n(1), n(2), n(3)], vec![pay(10), pay(10), pay(10)], &cache);
        assert_eq!(state.buffer_bytes, 20);
        assert_eq!(state.stats().wasted_bytes, 10);
        assert!(!state.contains(n(1)), "oldest evicted");
        // Demanding a staged node is a prefetch hit and frees its bytes.
        let (server, bytes) = state.take(n(2)).unwrap();
        assert_eq!(server, 0);
        assert_eq!(bytes.len(), 10);
        assert_eq!(state.stats().hits, 1);
        assert_eq!(state.buffer_bytes, 10);
        // A missing payload stages nothing.
        state.absorb(&[n(9)], vec![None], &cache);
        assert!(!state.contains(n(9)));
    }

    #[test]
    fn reserved_payloads_survive_budget_eviction() {
        // A plan that excluded a node from its demand batch has reserved
        // the staged payload; later speculative arrivals must evict around
        // it, never through it — otherwise the apply would be forced into
        // a blocking scalar fetch.
        let cache: ProcessorCache = Box::new(NullCache::new());
        let mut state = PrefetchState::new(PrefetchConfig {
            max_nodes: 8,
            max_bytes: 25,
            ..PrefetchConfig::with_policy(PrefetchPolicy::Hotspot)
        });
        let pay = |sz: usize| Some((0u16, Bytes::from(vec![0u8; sz])));
        state.absorb(&[n(1), n(2)], vec![pay(10), pay(10)], &cache);
        assert!(state.reserve_staged(n(1)), "staged payload reserves");
        assert!(!state.reserve_staged(n(99)), "unstaged does not");
        // Two more arrivals push the buffer to 40 bytes against a 25-byte
        // budget: the oldest unreserved entries (2, then 3) go; 1 stays.
        state.absorb(&[n(3), n(4)], vec![pay(10), pay(10)], &cache);
        assert!(state.contains(n(1)), "reserved entry survives");
        assert!(!state.contains(n(2)), "oldest unreserved evicted");
        assert_eq!(state.take(n(1)).map(|(_, b)| b.len()), Some(10));
    }

    #[test]
    fn demand_in_flight_nodes_are_not_proposed() {
        // Bytes already travelling for another query's demand batch must
        // not be speculated on (they would cross the wire twice).
        let cache: ProcessorCache = Box::new(NullCache::new());
        let mut state = PrefetchState::new(PrefetchConfig::with_policy(PrefetchPolicy::Hotspot));
        state.plan(&[n(7), n(8)], &[], &cache); // learn 7 and 8
        state.demand_submitted(&[n(7)]);
        let spec = state.plan(&[n(1)], &[n(1)], &cache);
        assert!(!spec.contains(&n(7)), "in-flight demand excluded");
        assert!(spec.contains(&n(8)));
        state.demand_arrived(&[n(7)]);
        let spec = state.plan(&[n(1)], &[n(1)], &cache);
        assert!(spec.contains(&n(7)), "proposable again after arrival");
    }

    #[test]
    fn absorb_skips_records_the_cache_acquired_meanwhile() {
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        cache.insert(n(5), rec(&[], &[]), 10);
        let mut state = PrefetchState::new(PrefetchConfig::with_policy(PrefetchPolicy::Hotspot));
        state.absorb(&[n(5)], vec![Some((0, Bytes::from(vec![0u8; 7])))], &cache);
        assert!(!state.contains(n(5)));
        assert_eq!(state.stats().wasted_bytes, 7);
    }

    #[test]
    fn stats_merge_and_hit_rate() {
        let mut a = PrefetchStats {
            issued: 10,
            hits: 4,
            wasted_bytes: 100,
        };
        a.merge(&PrefetchStats {
            issued: 10,
            hits: 6,
            wasted_bytes: 11,
        });
        assert_eq!(a.issued, 20);
        assert_eq!(a.hits, 10);
        assert_eq!(a.wasted_bytes, 111);
        assert!((a.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(PrefetchStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn hotspot_table_prunes_past_its_cap() {
        let mut p = HotspotPrefetcher::new(16);
        for round in 0..10u32 {
            let frontier: Vec<NodeId> = (0..8).map(|i| n(round * 8 + i)).collect();
            p.observe(&frontier);
        }
        assert!(p.counts.len() <= 16 + 8, "table stays near its cap");
        // The most recent nodes survive pruning (decay favours them).
        assert!(p.counts.keys().any(|v| v.raw() >= 72));
    }

    // -----------------------------------------------------------------
    // The tentpole identity property: ANY prefetcher + budget leaves the
    // demand side byte-identical to a prefetch-off run.
    // -----------------------------------------------------------------

    use crate::executor::{ExecOutcome, Executor, StagedQuery, Step};
    use crate::fetch::{CacheBackedStore, MissEvent};
    use crate::types::{Query, QueryResult};
    use grouting_graph::GraphBuilder;
    use grouting_storage::HashPartitioner;
    use grouting_storage::StorageTier;

    fn proptest_tier(edges: &[(u32, u32)], nodes: u32) -> StorageTier {
        let mut b = GraphBuilder::with_nodes(nodes as usize);
        for &(s, d) in edges {
            b.add_edge(n(s), n(d));
        }
        let g = b.build().unwrap();
        let tier = StorageTier::new(std::sync::Arc::new(HashPartitioner::new(3)));
        tier.load_graph(&g).unwrap();
        tier
    }

    fn mixed_queries(anchors: &[u32], h: u32) -> Vec<Query> {
        anchors
            .iter()
            .enumerate()
            .map(|(i, &a)| match i % 3 {
                0 => Query::NeighborAggregation {
                    node: n(a),
                    hops: h,
                    label: None,
                },
                1 => Query::Reachability {
                    source: n(a),
                    target: n(a / 2),
                    hops: h,
                },
                _ => Query::RandomWalk {
                    node: n(a),
                    steps: h * 3,
                    restart_prob: 0.2,
                    seed: u64::from(a),
                },
            })
            .collect()
    }

    /// Serial prefetch-off reference: one shared cache, queries in order.
    fn run_baseline(
        tier: &StorageTier,
        queries: &[Query],
        capacity: usize,
    ) -> (Vec<ExecOutcome>, Vec<Vec<MissEvent>>) {
        let mut cache: ProcessorCache = Box::new(LruCache::new(capacity));
        let mut outs = Vec::new();
        let mut logs = Vec::new();
        for q in queries {
            let mut ex = Executor::new(tier, &mut cache);
            outs.push(ex.run(q));
            logs.push(ex.take_miss_log());
        }
        (outs, logs)
    }

    proptest::proptest! {
        /// Blocking execution with ANY policy and budget produces
        /// identical answers, demand hit/miss statistics, and miss logs
        /// to a prefetch-off run — over random graphs, mixed query kinds,
        /// and tiny (evicting) caches.
        #[test]
        fn prop_prefetch_keeps_demand_side_identical(
            edges in proptest::collection::vec((0u32..24, 0u32..24), 1..100),
            anchors in proptest::collection::vec(0u32..24, 1..12),
            h in 1u32..4,
            capacity_pick in 0usize..4,
            policy_pick in 0usize..2,
            max_nodes in 1usize..64,
            max_bytes_pick in 0usize..3,
        ) {
            let capacity = [60usize, 200, 1000, 1 << 20][capacity_pick];
            let tier = proptest_tier(&edges, 24);
            let queries = mixed_queries(&anchors, h);
            let (base_outs, base_logs) = run_baseline(&tier, &queries, capacity);

            let policy = [PrefetchPolicy::Degree, PrefetchPolicy::Hotspot][policy_pick];
            let config = PrefetchConfig {
                policy,
                max_nodes,
                max_bytes: [64usize, 1024, 1 << 20][max_bytes_pick],
            };
            let mut state = PrefetchState::new(config);
            let mut cache: ProcessorCache = Box::new(LruCache::new(capacity));
            for (i, q) in queries.iter().enumerate() {
                let mut ex = Executor::with_prefetch(&tier, &mut cache, &mut state);
                let out = ex.run(q);
                let log = ex.take_miss_log();
                proptest::prop_assert_eq!(out.result, base_outs[i].result, "query {}", i);
                proptest::prop_assert_eq!(out.stats, base_outs[i].stats, "query {}", i);
                proptest::prop_assert_eq!(log, base_logs[i].clone(), "query {}", i);
            }
        }

        /// The staged (pipeline-shaped) drive with speculative piggyback —
        /// plan, fetch miss + speculation in one exchange, absorb, resume —
        /// is also demand-identical to the prefetch-off serial run.
        #[test]
        fn prop_staged_prefetch_keeps_demand_side_identical(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 1..80),
            anchors in proptest::collection::vec(0u32..20, 1..10),
            h in 1u32..4,
            capacity_pick in 0usize..3,
            policy_pick in 0usize..2,
            max_nodes in 1usize..48,
        ) {
            let capacity = [60usize, 300, 1 << 20][capacity_pick];
            let tier = proptest_tier(&edges, 20);
            let queries = mixed_queries(&anchors, h);
            let (base_outs, base_logs) = run_baseline(&tier, &queries, capacity);

            let policy = [PrefetchPolicy::Degree, PrefetchPolicy::Hotspot][policy_pick];
            let mut state = PrefetchState::new(PrefetchConfig {
                max_nodes,
                ..PrefetchConfig::with_policy(policy)
            });
            let mut cache: ProcessorCache = Box::new(LruCache::new(capacity));
            for (i, q) in queries.iter().enumerate() {
                let mut staged = StagedQuery::new(*q);
                let mut payloads = None;
                let out = loop {
                    let mut source = &tier;
                    let mut store =
                        CacheBackedStore::with_prefetch(&mut source, &mut cache, &mut state);
                    match staged.resume(&mut store, payloads.take()) {
                        Step::Fetch(miss) => {
                            // The pipeline's piggyback: speculative nodes
                            // ride on the miss batch, their payloads go to
                            // the staging buffer.
                            let spec = store.plan_speculative(staged.frontier(), &miss);
                            let fetch = |v: &NodeId| tier.get(*v).map(|(s, b)| (s as u16, b));
                            let spec_payloads: Vec<_> = spec.iter().map(fetch).collect();
                            store.absorb_speculative(&spec, spec_payloads);
                            payloads = Some(miss.iter().map(fetch).collect());
                        }
                        Step::Done(out) => break out,
                    }
                };
                proptest::prop_assert_eq!(out.result, base_outs[i].result, "query {}", i);
                proptest::prop_assert_eq!(out.stats, base_outs[i].stats, "query {}", i);
                proptest::prop_assert_eq!(
                    staged.take_miss_log(), base_logs[i].clone(), "query {}", i
                );
            }
        }
    }

    /// Prefetch genuinely fires on a hotspot workload: a cache too small
    /// to retain the region forces repeat misses, and the history
    /// predictor turns them into staged hits — while every demand-side
    /// number still matches the prefetch-off run (asserted above; here we
    /// check the speculative tally is live, not zero).
    #[test]
    fn hotspot_workload_produces_prefetch_hits() {
        let edges: Vec<(u32, u32)> = (0..16u32)
            .flat_map(|i| [(i, (i + 1) % 16), (i, (i + 3) % 16)])
            .collect();
        let tier = proptest_tier(&edges, 16);
        let queries: Vec<Query> = (0..8u32)
            .map(|i| Query::NeighborAggregation {
                node: n(i % 4),
                hops: 2,
                label: None,
            })
            .collect();
        let mut state = PrefetchState::new(PrefetchConfig::with_policy(PrefetchPolicy::Hotspot));
        // A cache that holds nothing: every demand access misses, so any
        // staged payload that gets demanded is a prefetch hit.
        let mut cache: ProcessorCache = Box::new(NullCache::new());
        let mut results = Vec::new();
        for q in &queries {
            let mut ex = Executor::with_prefetch(&tier, &mut cache, &mut state);
            results.push(ex.run(q).result);
        }
        let stats = state.stats();
        assert!(stats.issued > 0, "speculation must fire");
        assert!(stats.hits > 0, "repeat traffic must be served from stage");
        // Answers unchanged vs the no-prefetch run.
        let mut plain_cache: ProcessorCache = Box::new(NullCache::new());
        for (q, want) in queries.iter().zip(&results) {
            let mut ex = Executor::new(&tier, &mut plain_cache);
            assert_eq!(ex.run(q).result, *want);
        }
        // All results are counts from the same ring.
        assert!(matches!(results[0], QueryResult::Count(_)));
    }
}
