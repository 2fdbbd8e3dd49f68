//! Query execution over the cache-backed store.
//!
//! One executor instance runs on each query processor. The same code backs
//! the discrete-event simulator (which converts [`AccessStats`] into virtual
//! time), the wire cluster's processors, and the correctness tests (which
//! check results against whole-graph traversals in `grouting-graph`).
//!
//! Two execution shapes share the same query algorithms:
//!
//! * [`Executor::run`] — runs a query to completion, blocking on every
//!   storage fetch (the simulator, and the serial reference the staged
//!   path is checked against);
//! * [`StagedQuery`] — the same execution split at frontier-fetch
//!   boundaries: each [`StagedQuery::resume`] advances until the query
//!   either finishes or needs remote records ([`Step::Fetch`]), letting a
//!   processor submit the fetch asynchronously and run *another* query's
//!   compute stage while the bytes travel (cross-query fetch overlap).
//!   Driven strictly serially it replays byte-identical cache accounting
//!   to [`Executor::run`].

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

use bytes::Bytes;
use grouting_graph::codec::AdjacencyRecord;
use grouting_graph::{NodeId, NodeLabelId, NodeMap, NodeSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fetch::{
    AccessStats, BatchSource, CacheBackedStore, MissEvent, ProcessorCache, RecordSource,
};
use crate::types::{Query, QueryResult};

/// The outcome of one query execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOutcome {
    /// The query's answer.
    pub result: QueryResult,
    /// Cache/storage access statistics for the runtimes' cost models.
    pub stats: AccessStats,
}

/// Executes queries against a processor cache plus a record source (the
/// storage tier in-process, or a remote wire path).
pub struct Executor<'a, S: RecordSource> {
    store: CacheBackedStore<'a, S>,
}

impl<'a, S: RecordSource> Executor<'a, S> {
    /// Creates an executor borrowing the processor's cache for one or more
    /// query executions. `source` is the miss path — pass `&tier` for the
    /// classic in-process layout.
    pub fn new(source: S, cache: &'a mut ProcessorCache) -> Self {
        Self {
            store: CacheBackedStore::new(source, cache),
        }
    }

    /// An executor whose store carries the processor's speculation state:
    /// frontier fetches piggyback predicted next-hop nodes per the
    /// configured [`PrefetchPolicy`](crate::PrefetchPolicy), and demand
    /// misses are served from the staging buffer when the bytes already
    /// arrived.
    /// Demand accounting stays byte-identical to [`Executor::new`].
    pub fn with_prefetch(
        source: S,
        cache: &'a mut ProcessorCache,
        prefetch: &'a mut crate::prefetch::PrefetchState,
    ) -> Self {
        Self {
            store: CacheBackedStore::with_prefetch(source, cache, prefetch),
        }
    }

    /// Drains the ordered per-miss event log accumulated by queries run so
    /// far (used by the simulator's storage-contention model).
    pub fn take_miss_log(&mut self) -> Vec<crate::fetch::MissEvent> {
        self.store.take_miss_log()
    }

    /// Cumulative access statistics over everything run on this executor.
    pub fn stats(&self) -> AccessStats {
        self.store.stats()
    }
}

impl<'a, S: BatchSource> Executor<'a, S> {
    /// Runs one query to completion.
    pub fn run(&mut self, query: &Query) -> ExecOutcome {
        let before = self.store.stats();
        let result = run_query(&mut self.store, query);
        let after = self.store.stats();
        ExecOutcome {
            result,
            stats: AccessStats {
                cache_hits: after.cache_hits - before.cache_hits,
                cache_misses: after.cache_misses - before.cache_misses,
                miss_bytes: after.miss_bytes - before.miss_bytes,
                evictions: after.evictions - before.evictions,
            },
        }
    }
}

/// Runs one query to completion against `store`, blocking on fetches.
fn run_query<S: BatchSource>(store: &mut CacheBackedStore<'_, S>, query: &Query) -> QueryResult {
    match query {
        Query::NeighborAggregation { node, hops, label } => {
            neighbor_aggregation(store, *node, *hops, label.as_ref().copied())
        }
        Query::RandomWalk {
            node,
            steps,
            restart_prob,
            seed,
        } => random_walk(store, *node, *steps, *restart_prob, *seed),
        Query::Reachability {
            source,
            target,
            hops,
        } => reachability(store, *source, *target, *hops, None),
        Query::ConstrainedReachability {
            source,
            target,
            hops,
            via_label,
        } => reachability(store, *source, *target, *hops, Some(*via_label)),
    }
}

/// Level-batched BFS over the bi-directed view (the paper's
/// accounting: every node in `N_h(q)` is one cache/storage access).
///
/// Each hop collects the whole next frontier in discovery order and
/// fetches it through [`CacheBackedStore::fetch_many`], so the
/// cache-miss portion of a frontier travels as one batch per storage
/// server instead of one round trip per node. The discovery order —
/// each expanded node's unseen neighbours, concatenated in expansion
/// order — is exactly the order the node-at-a-time BFS fetched in, so
/// cache statistics are byte-identical to the scalar path.
fn neighbor_aggregation<S: BatchSource>(
    store: &mut CacheBackedStore<'_, S>,
    node: NodeId,
    hops: u32,
    label: Option<NodeLabelId>,
) -> QueryResult {
    let Some(start) = store.fetch(node) else {
        return QueryResult::Count(0);
    };
    let mut state = BfsState::after_root(node, hops, label, start);
    loop {
        let Some(frontier) = state.expand() else {
            return QueryResult::Count(state.count);
        };
        let records = store.fetch_many(&frontier);
        state.absorb(records);
    }
}

/// The level-batched BFS state shared by the blocking and staged shapes:
/// [`BfsState::expand`] derives the next frontier in discovery order,
/// [`BfsState::absorb`] folds the fetched records back in. Both shapes run
/// exactly this expand/fetch/absorb cycle, which is what keeps their
/// results and access orders identical.
struct BfsState {
    hops: u32,
    label: Option<NodeLabelId>,
    dist: NodeMap<u32>,
    count: u64,
    /// Records of the current level, in discovery order. A node at
    /// depth d is expanded iff d < hops; the query node always is.
    level: Vec<Arc<AdjacencyRecord>>,
    depth: u32,
}

impl BfsState {
    fn after_root(
        node: NodeId,
        hops: u32,
        label: Option<NodeLabelId>,
        start: Arc<AdjacencyRecord>,
    ) -> Self {
        let mut dist = NodeMap::default();
        dist.insert(node, 0);
        Self {
            hops,
            label,
            dist,
            count: 0,
            level: vec![start],
            depth: 0,
        }
    }

    /// The next frontier in discovery order, or `None` when the traversal
    /// is complete (empty level or hop budget spent).
    fn expand(&mut self) -> Option<Vec<NodeId>> {
        if self.level.is_empty() || !(self.depth == 0 || self.depth < self.hops) {
            return None;
        }
        let next_depth = self.depth + 1;
        let mut frontier: Vec<NodeId> = Vec::new();
        for rec in &self.level {
            for &w in rec.all_neighbors() {
                if let Entry::Vacant(e) = self.dist.entry(w) {
                    e.insert(next_depth);
                    frontier.push(w);
                }
            }
        }
        Some(frontier)
    }

    /// Counts the fetched frontier records and installs the next level.
    fn absorb(&mut self, records: Vec<Option<Arc<AdjacencyRecord>>>) {
        let next_depth = self.depth + 1;
        let mut next = Vec::new();
        for rec in records {
            let labeled_ok = match (self.label, &rec) {
                (None, _) => true,
                (Some(l), Some(r)) => r.node_label == Some(l),
                (Some(_), None) => false,
            };
            self.count += u64::from(labeled_ok);
            if next_depth < self.hops {
                if let Some(r) = rec {
                    next.push(r);
                }
            }
        }
        self.level = next;
        self.depth = next_depth;
    }
}

/// h-step random walk with restart over out-edges (falling back to the
/// bi-directed view at sink nodes so walks don't die).
fn random_walk<S: RecordSource>(
    store: &mut CacheBackedStore<'_, S>,
    node: NodeId,
    steps: u32,
    restart_prob: f64,
    seed: u64,
) -> QueryResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = node;
    let mut visited = NodeSet::default();
    visited.insert(node);
    for _ in 0..steps {
        if rng.gen::<f64>() < restart_prob {
            current = node;
            continue;
        }
        let Some(rec) = store.fetch(current) else {
            break;
        };
        let next = if !rec.out().is_empty() {
            rec.out()[rng.gen_range(0..rec.out().len())]
        } else if !rec.inc().is_empty() {
            rec.inc()[rng.gen_range(0..rec.inc().len())]
        } else {
            node // Isolated: restart.
        };
        current = next;
        visited.insert(current);
    }
    QueryResult::Walk {
        end: current,
        visited: visited.len() as u64,
    }
}

/// Bidirectional BFS: forward over out-edges from the source, backward
/// over in-edges from the target, expanding the smaller frontier first.
///
/// With `via_label`, intermediate nodes must carry that label (the
/// endpoints are exempt) — the §2.2 label-constrained variant. The
/// constraint is enforced at *expansion* time: a node lacking the label
/// may be discovered (it could be the meeting endpoint) but its record
/// is never expanded, and a frontier meeting at an unlabelled
/// intermediate node does not count.
fn reachability<S: RecordSource>(
    store: &mut CacheBackedStore<'_, S>,
    source: NodeId,
    target: NodeId,
    hops: u32,
    via_label: Option<NodeLabelId>,
) -> QueryResult {
    if source == target {
        return QueryResult::Reachable(true);
    }
    if hops == 0 {
        return QueryResult::Reachable(false);
    }
    let mut fwd: NodeMap<u32> = NodeMap::default();
    fwd.insert(source, 0);
    let mut bwd: NodeMap<u32> = NodeMap::default();
    bwd.insert(target, 0);
    let mut fq: VecDeque<NodeId> = VecDeque::from([source]);
    let mut bq: VecDeque<NodeId> = VecDeque::from([target]);
    let fwd_budget = hops / 2 + hops % 2;
    let bwd_budget = hops / 2;

    // Expand each frontier level by level; meet-in-the-middle check on
    // every discovery.
    loop {
        let expand_fwd = match (fq.front(), bq.front()) {
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => break,
            (Some(_), Some(_)) => fq.len() <= bq.len(),
        };
        let (queue, dist, other, budget, forward) = if expand_fwd {
            (&mut fq, &mut fwd, &bwd, fwd_budget, true)
        } else {
            (&mut bq, &mut bwd, &fwd, bwd_budget, false)
        };
        let Some(v) = queue.pop_front() else {
            continue;
        };
        let dv = dist[&v];
        if dv >= budget {
            continue;
        }
        let Some(rec) = store.fetch(v) else {
            continue;
        };
        // An intermediate node (anything but the endpoints) may only be
        // expanded if it satisfies the label constraint.
        if v != source && v != target {
            if let Some(l) = via_label {
                if rec.node_label != Some(l) {
                    continue;
                }
            }
        }
        let next = if forward { rec.out() } else { rec.inc() };
        for &w in next {
            if let Some(&dw) = other.get(&w) {
                if dv + 1 + dw <= hops && meeting_ok(store, w, source, target, via_label) {
                    return QueryResult::Reachable(true);
                }
            }
            if let Entry::Vacant(e) = dist.entry(w) {
                e.insert(dv + 1);
                queue.push_back(w);
            }
        }
    }
    QueryResult::Reachable(false)
}

/// Whether the frontiers may legally meet at `w`: endpoints always; an
/// intermediate node only when it carries the required label.
fn meeting_ok<S: RecordSource>(
    store: &mut CacheBackedStore<'_, S>,
    w: NodeId,
    source: NodeId,
    target: NodeId,
    via_label: Option<NodeLabelId>,
) -> bool {
    if w == source || w == target {
        return true;
    }
    match via_label {
        None => true,
        Some(l) => store.fetch(w).is_some_and(|rec| rec.node_label == Some(l)),
    }
}

// ---------------------------------------------------------------------------
// Staged execution
// ---------------------------------------------------------------------------

/// What a staged query needs next.
#[derive(Debug)]
pub enum Step {
    /// The query needs these records fetched (the cache-miss portion of
    /// its next frontier, deduplicated, in discovery order). Fetch them —
    /// asynchronously, ideally — and pass the payloads, one entry per
    /// node in the same order, to the next [`StagedQuery::resume`].
    Fetch(Vec<NodeId>),
    /// The query finished.
    Done(ExecOutcome),
}

enum StagedPhase {
    /// Nothing has run yet.
    Start,
    /// The root node's fetch is in flight (`pending_miss` is empty when it
    /// was a cache hit and no fetch was needed).
    Root,
    /// A level's frontier fetch is in flight.
    Level,
    /// Terminal.
    Finished,
}

/// A query execution split at frontier-fetch boundaries.
///
/// Each [`StagedQuery::resume`] call advances the query as far as it can
/// against the local cache and returns either [`Step::Fetch`] (remote
/// records wanted — the caller fetches them and resumes with the payloads)
/// or [`Step::Done`]. Between calls the query holds no borrow on the cache
/// or the storage source, so a processor can keep several staged queries
/// in flight over one cache, overlapping one query's fetch with another's
/// compute.
///
/// Accounting: the query's [`AccessStats`] and miss log accumulate here,
/// not in the (possibly shared, transient) store — each resume swaps them
/// into the store for the duration of the step. Driven strictly serially
/// (resume, fetch, resume, …, with nothing interleaved) the sequence of
/// cache operations is exactly [`Executor::run`]'s, so results *and* cache
/// statistics are byte-identical to the blocking path.
///
/// Only [`Query::NeighborAggregation`] — the level-batched BFS, the shape
/// the paper's workloads are built from — actually stages its fetches;
/// the other query kinds run to completion inside the first resume,
/// blocking on the store's source as the serial path does.
pub struct StagedQuery {
    query: Query,
    stats: AccessStats,
    miss_log: Vec<MissEvent>,
    phase: StagedPhase,
    /// BFS traversal state, present from the root fetch onwards.
    bfs: Option<BfsState>,
    /// The frontier whose fetch is in flight (request order for
    /// `apply_many`).
    frontier: Vec<NodeId>,
    /// The miss portion of `frontier` handed out in the last
    /// [`Step::Fetch`].
    pending_miss: Vec<NodeId>,
}

impl StagedQuery {
    /// Prepares `query` for staged execution. Nothing runs until the first
    /// [`StagedQuery::resume`] (called with `None`).
    pub fn new(query: Query) -> Self {
        Self {
            query,
            stats: AccessStats::default(),
            miss_log: Vec::new(),
            phase: StagedPhase::Start,
            bfs: None,
            frontier: Vec::new(),
            pending_miss: Vec::new(),
        }
    }

    /// The query being executed.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The frontier whose fetch is pending (request order) — the full
    /// frontier, cache hits included, which is what a speculative
    /// predictor wants as context alongside the [`Step::Fetch`] miss set.
    /// Empty between fetches.
    pub fn frontier(&self) -> &[NodeId] {
        &self.frontier
    }

    /// Drains the ordered per-miss event log accumulated so far.
    pub fn take_miss_log(&mut self) -> Vec<MissEvent> {
        std::mem::take(&mut self.miss_log)
    }

    /// Advances the query: pass `None` on the first call, and the fetched
    /// payloads answering the previous [`Step::Fetch`] (one entry per
    /// requested node, in request order) on every later call.
    ///
    /// The store is only borrowed for the duration of the call; its
    /// accounting is swapped out for this query's, so a transient store
    /// over a shared cache attributes every access correctly.
    ///
    /// # Panics
    ///
    /// Panics when resumed after [`Step::Done`], or when `payloads` does
    /// not answer the previous step (wrong count, or missing entirely).
    pub fn resume<S: BatchSource>(
        &mut self,
        store: &mut CacheBackedStore<'_, S>,
        payloads: Option<Vec<Option<(u16, Bytes)>>>,
    ) -> Step {
        store.swap_accounting(&mut self.stats, &mut self.miss_log);
        let progress = self.advance(store, payloads);
        store.swap_accounting(&mut self.stats, &mut self.miss_log);
        match progress {
            Ok(miss) => Step::Fetch(miss),
            Err(result) => {
                self.phase = StagedPhase::Finished;
                Step::Done(ExecOutcome {
                    result,
                    stats: self.stats,
                })
            }
        }
    }

    /// `Ok(miss)` = fetch wanted, `Err(result)` = finished.
    fn advance<S: BatchSource>(
        &mut self,
        store: &mut CacheBackedStore<'_, S>,
        mut payloads: Option<Vec<Option<(u16, Bytes)>>>,
    ) -> Result<Vec<NodeId>, QueryResult> {
        loop {
            match self.phase {
                StagedPhase::Start => {
                    let Query::NeighborAggregation { node, .. } = self.query else {
                        // Non-BFS kinds execute in one blocking step.
                        return Err(run_query(store, &self.query));
                    };
                    // The root travels as a one-node frontier: identical
                    // accounting to the serial path's scalar root fetch.
                    self.frontier = vec![node];
                    self.pending_miss = store.plan_many(&self.frontier);
                    self.phase = StagedPhase::Root;
                    if !self.pending_miss.is_empty() {
                        return Ok(self.pending_miss.clone());
                    }
                }
                StagedPhase::Root => {
                    let got = self.apply(store, payloads.take());
                    let Query::NeighborAggregation { node, hops, label } = self.query else {
                        unreachable!("root phase implies an aggregation");
                    };
                    let Some(start) = got.into_iter().next().flatten() else {
                        return Err(QueryResult::Count(0));
                    };
                    self.bfs = Some(BfsState::after_root(node, hops, label, start));
                    self.phase = StagedPhase::Level;
                    self.frontier = match self.bfs.as_mut().expect("just set").expand() {
                        Some(f) => f,
                        None => return Err(QueryResult::Count(self.finished_count())),
                    };
                    self.pending_miss = store.plan_many(&self.frontier);
                    if !self.pending_miss.is_empty() {
                        return Ok(self.pending_miss.clone());
                    }
                }
                StagedPhase::Level => {
                    let records = self.apply(store, payloads.take());
                    let bfs = self.bfs.as_mut().expect("level phase has BFS state");
                    bfs.absorb(records);
                    self.frontier = match bfs.expand() {
                        Some(f) => f,
                        None => return Err(QueryResult::Count(self.finished_count())),
                    };
                    self.pending_miss = store.plan_many(&self.frontier);
                    if !self.pending_miss.is_empty() {
                        return Ok(self.pending_miss.clone());
                    }
                }
                StagedPhase::Finished => panic!("resumed a finished staged query"),
            }
        }
    }

    fn apply<S: BatchSource>(
        &mut self,
        store: &mut CacheBackedStore<'_, S>,
        payloads: Option<Vec<Option<(u16, Bytes)>>>,
    ) -> Vec<Option<Arc<AdjacencyRecord>>> {
        let payloads = if self.pending_miss.is_empty() {
            // Fully cache-served step: nothing was requested.
            payloads.unwrap_or_default()
        } else {
            payloads.expect("a pending fetch must be answered before resuming")
        };
        assert_eq!(
            payloads.len(),
            self.pending_miss.len(),
            "payloads must answer the pending fetch node-for-node"
        );
        let frontier = std::mem::take(&mut self.frontier);
        let miss = std::mem::take(&mut self.pending_miss);
        store.apply_many(&frontier, &miss, payloads)
    }

    fn finished_count(&self) -> u64 {
        self.bfs.as_ref().map_or(0, |b| b.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_cache::{LruCache, NullCache};
    use grouting_graph::traversal::{h_hop_neighborhood, hop_distance, Direction};
    use grouting_graph::{CsrGraph, GraphBuilder, NodeLabelId};
    use grouting_storage::HashPartitioner;
    use grouting_storage::StorageTier;
    use std::sync::Arc;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn setup(g: &CsrGraph) -> StorageTier {
        let tier = StorageTier::new(Arc::new(HashPartitioner::new(3)));
        tier.load_graph(g).unwrap();
        tier
    }

    fn path_with_chord() -> CsrGraph {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_edge(n(i), n(i + 1));
        }
        b.add_edge(n(0), n(3));
        b.build().unwrap()
    }

    fn fresh_cache() -> ProcessorCache {
        Box::new(LruCache::new(1 << 20))
    }

    #[test]
    fn aggregation_matches_ground_truth() {
        let g = path_with_chord();
        let tier = setup(&g);
        for v in g.nodes() {
            for h in 1..=3u32 {
                let mut cache = fresh_cache();
                let mut ex = Executor::new(&tier, &mut cache);
                let out = ex.run(&Query::NeighborAggregation {
                    node: v,
                    hops: h,
                    label: None,
                });
                let truth = h_hop_neighborhood(&g, v, h, Direction::Both).len() as u64;
                assert_eq!(out.result, QueryResult::Count(truth), "node {v} h {h}");
            }
        }
    }

    #[test]
    fn aggregation_counts_accesses_per_eq8() {
        let g = path_with_chord();
        let tier = setup(&g);
        let mut cache = fresh_cache();
        let mut ex = Executor::new(&tier, &mut cache);
        let out = ex.run(&Query::NeighborAggregation {
            node: n(0),
            hops: 2,
            label: None,
        });
        // |N_2(0)| = {1, 3, 2, 4} = 4 neighbours + the query node itself.
        assert_eq!(out.result, QueryResult::Count(4));
        assert_eq!(out.stats.accesses(), 5);
        // Cold cache: every access missed.
        assert_eq!(out.stats.cache_misses, 5);
    }

    #[test]
    fn repeated_query_hits_cache() {
        let g = path_with_chord();
        let tier = setup(&g);
        let mut cache = fresh_cache();
        let q = Query::NeighborAggregation {
            node: n(0),
            hops: 2,
            label: None,
        };
        let mut ex = Executor::new(&tier, &mut cache);
        let first = ex.run(&q);
        let second = ex.run(&q);
        assert_eq!(first.result, second.result);
        assert_eq!(second.stats.cache_misses, 0);
        assert_eq!(second.stats.cache_hits, first.stats.cache_misses);
    }

    #[test]
    fn labeled_aggregation_filters() {
        let mut b = GraphBuilder::new();
        b.add_edge(n(0), n(1));
        b.add_edge(n(0), n(2));
        b.set_node_label(n(1), NodeLabelId::new(7));
        b.set_node_label(n(2), NodeLabelId::new(9));
        let g = b.build().unwrap();
        let tier = setup(&g);
        let mut cache = fresh_cache();
        let mut ex = Executor::new(&tier, &mut cache);
        let out = ex.run(&Query::NeighborAggregation {
            node: n(0),
            hops: 1,
            label: Some(NodeLabelId::new(7)),
        });
        assert_eq!(out.result, QueryResult::Count(1));
    }

    #[test]
    fn reachability_matches_ground_truth() {
        let g = path_with_chord();
        let tier = setup(&g);
        for s in g.nodes() {
            for t in g.nodes() {
                for h in 0..=4u32 {
                    let mut cache = fresh_cache();
                    let mut ex = Executor::new(&tier, &mut cache);
                    let out = ex.run(&Query::Reachability {
                        source: s,
                        target: t,
                        hops: h,
                    });
                    let truth = match hop_distance(&g, s, t, Direction::Out) {
                        Some(d) => d <= h,
                        None => false,
                    };
                    assert_eq!(
                        out.result,
                        QueryResult::Reachable(truth),
                        "{s}->{t} within {h}"
                    );
                }
            }
        }
    }

    #[test]
    fn random_walk_is_deterministic_and_bounded() {
        let g = path_with_chord();
        let tier = setup(&g);
        let q = Query::RandomWalk {
            node: n(0),
            steps: 16,
            restart_prob: 0.15,
            seed: 99,
        };
        let mut c1 = fresh_cache();
        let r1 = Executor::new(&tier, &mut c1).run(&q);
        let mut c2 = fresh_cache();
        let r2 = Executor::new(&tier, &mut c2).run(&q);
        assert_eq!(r1.result, r2.result);
        if let QueryResult::Walk { visited, .. } = r1.result {
            assert!((1..=5).contains(&visited));
        } else {
            panic!("wrong result kind");
        }
    }

    #[test]
    fn no_cache_mode_misses_everything() {
        let g = path_with_chord();
        let tier = setup(&g);
        let mut cache: ProcessorCache = Box::new(NullCache::new());
        let q = Query::NeighborAggregation {
            node: n(0),
            hops: 2,
            label: None,
        };
        let mut ex = Executor::new(&tier, &mut cache);
        let a = ex.run(&q);
        let b = ex.run(&q);
        assert_eq!(a.stats.cache_hits, 0);
        assert_eq!(b.stats.cache_hits, 0);
        assert_eq!(b.stats.cache_misses, a.stats.cache_misses);
    }

    #[test]
    fn constrained_reachability_respects_labels() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 3; only node 1 carries the label.
        let mut b = GraphBuilder::new();
        b.add_edge(n(0), n(1));
        b.add_edge(n(1), n(3));
        b.add_edge(n(0), n(2));
        b.add_edge(n(2), n(3));
        b.set_node_label(n(1), NodeLabelId::new(5));
        b.set_node_label(n(2), NodeLabelId::new(9));
        let g = b.build().unwrap();
        let tier = setup(&g);
        let mut cache = fresh_cache();
        let mut ex = Executor::new(&tier, &mut cache);
        // Path through label-5 node exists.
        let ok = ex.run(&Query::ConstrainedReachability {
            source: n(0),
            target: n(3),
            hops: 2,
            via_label: NodeLabelId::new(5),
        });
        assert_eq!(ok.result, QueryResult::Reachable(true));
        // No path whose intermediates all carry label 7.
        let blocked = ex.run(&Query::ConstrainedReachability {
            source: n(0),
            target: n(3),
            hops: 2,
            via_label: NodeLabelId::new(7),
        });
        assert_eq!(blocked.result, QueryResult::Reachable(false));
        // Direct edges need no intermediates: source -> 1 within 1 hop holds
        // under any label constraint.
        let direct = ex.run(&Query::ConstrainedReachability {
            source: n(0),
            target: n(1),
            hops: 1,
            via_label: NodeLabelId::new(7),
        });
        assert_eq!(direct.result, QueryResult::Reachable(true));
    }

    #[test]
    fn constrained_reachability_long_chain() {
        // 0 -> 1 -> 2 -> 3 -> 4, all intermediates labelled 2 except node 2.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_edge(n(i), n(i + 1));
        }
        for i in [1u32, 3] {
            b.set_node_label(n(i), NodeLabelId::new(2));
        }
        b.set_node_label(n(2), NodeLabelId::new(8));
        let g = b.build().unwrap();
        let tier = setup(&g);
        let mut cache = fresh_cache();
        let mut ex = Executor::new(&tier, &mut cache);
        // Node 2 breaks the label-2 chain.
        let r = ex.run(&Query::ConstrainedReachability {
            source: n(0),
            target: n(4),
            hops: 4,
            via_label: NodeLabelId::new(2),
        });
        assert_eq!(r.result, QueryResult::Reachable(false));
        // But the unconstrained query succeeds.
        let r2 = ex.run(&Query::Reachability {
            source: n(0),
            target: n(4),
            hops: 4,
        });
        assert_eq!(r2.result, QueryResult::Reachable(true));
    }

    #[test]
    fn missing_query_node_yields_empty_results() {
        let g = path_with_chord();
        let tier = setup(&g);
        let mut cache = fresh_cache();
        let mut ex = Executor::new(&tier, &mut cache);
        let out = ex.run(&Query::NeighborAggregation {
            node: n(77),
            hops: 2,
            label: None,
        });
        assert_eq!(out.result, QueryResult::Count(0));
    }

    /// Drives a [`StagedQuery`] exactly as a serial caller would: resume,
    /// fetch the requested nodes straight from the tier, resume again.
    fn run_staged(tier: &StorageTier, cache: &mut ProcessorCache, query: Query) -> ExecOutcome {
        let mut staged = StagedQuery::new(query);
        let mut payloads = None;
        loop {
            let mut source = tier;
            let mut store = CacheBackedStore::new(&mut source, cache);
            match staged.resume(&mut store, payloads.take()) {
                Step::Fetch(nodes) => {
                    payloads = Some(
                        nodes
                            .iter()
                            .map(|&w| tier.get(w).map(|(s, b)| (s as u16, b)))
                            .collect(),
                    );
                }
                Step::Done(out) => return out,
            }
        }
    }

    #[test]
    fn staged_bfs_matches_serial_run_and_accounting() {
        let g = path_with_chord();
        let tier = setup(&g);
        for v in g.nodes() {
            for h in 1..=3u32 {
                let q = Query::NeighborAggregation {
                    node: v,
                    hops: h,
                    label: None,
                };
                let mut serial_cache = fresh_cache();
                let serial = Executor::new(&tier, &mut serial_cache).run(&q);
                let mut cache = fresh_cache();
                let staged = run_staged(&tier, &mut cache, q);
                assert_eq!(staged.result, serial.result, "node {v} h {h}");
                assert_eq!(staged.stats, serial.stats, "node {v} h {h}");
            }
        }
    }

    #[test]
    fn staged_runs_share_a_cache_across_queries() {
        // Two staged queries over ONE cache: the second sees the first's
        // residue, exactly as two serial runs on one worker would.
        let g = path_with_chord();
        let tier = setup(&g);
        let q = Query::NeighborAggregation {
            node: n(0),
            hops: 2,
            label: None,
        };
        let mut cache = fresh_cache();
        let first = run_staged(&tier, &mut cache, q);
        let second = run_staged(&tier, &mut cache, q);
        assert_eq!(first.result, second.result);
        assert!(first.stats.cache_misses > 0);
        assert_eq!(second.stats.cache_misses, 0, "warm cache");
        assert_eq!(second.stats.cache_hits, first.stats.cache_misses);
    }

    #[test]
    fn staged_nonbfs_kinds_complete_in_one_step() {
        let g = path_with_chord();
        let tier = setup(&g);
        for q in [
            Query::RandomWalk {
                node: n(0),
                steps: 16,
                restart_prob: 0.15,
                seed: 7,
            },
            Query::Reachability {
                source: n(0),
                target: n(4),
                hops: 4,
            },
        ] {
            let mut serial_cache = fresh_cache();
            let serial = Executor::new(&tier, &mut serial_cache).run(&q);
            let mut cache = fresh_cache();
            let mut staged = StagedQuery::new(q);
            let mut source = &tier;
            let mut store = CacheBackedStore::new(&mut source, &mut cache);
            match staged.resume(&mut store, None) {
                Step::Done(out) => {
                    assert_eq!(out.result, serial.result);
                    assert_eq!(out.stats, serial.stats);
                }
                Step::Fetch(_) => panic!("non-BFS kinds must not stage"),
            }
        }
    }

    #[test]
    fn staged_missing_root_is_empty() {
        let g = path_with_chord();
        let tier = setup(&g);
        let mut cache = fresh_cache();
        let out = run_staged(
            &tier,
            &mut cache,
            Query::NeighborAggregation {
                node: n(77),
                hops: 2,
                label: None,
            },
        );
        assert_eq!(out.result, QueryResult::Count(0));
    }

    #[test]
    #[should_panic(expected = "finished staged query")]
    fn staged_resume_after_done_panics() {
        let g = path_with_chord();
        let tier = setup(&g);
        let mut cache = fresh_cache();
        let q = Query::RandomWalk {
            node: n(0),
            steps: 2,
            restart_prob: 0.0,
            seed: 1,
        };
        let mut staged = StagedQuery::new(q);
        let mut source = &tier;
        let mut store = CacheBackedStore::new(&mut source, &mut cache);
        let _ = staged.resume(&mut store, None);
        let _ = staged.resume(&mut store, None);
    }

    proptest::proptest! {
        /// Staged execution replays byte-identical results, statistics, and
        /// miss logs to the blocking executor for ANY mix of the four query
        /// kinds, graph, and (tiny) cache capacity — the overlap=1
        /// agreement contract.
        #[test]
        fn prop_staged_equals_serial(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 1..80),
            anchors in proptest::collection::vec(0u32..24, 1..12),
            h in 1u32..4,
            capacity_pick in 0usize..3,
        ) {
            let capacity = [60usize, 300, 1 << 20][capacity_pick];
            let mut b = GraphBuilder::with_nodes(20);
            for (s, d) in &edges {
                b.add_edge(n(*s), n(*d));
            }
            // Two node labels, so the constrained kind both passes and
            // prunes intermediates.
            for v in 0..20 {
                b.set_node_label(n(v), NodeLabelId::new((v % 2) as u16));
            }
            let g = b.build().unwrap();
            let tier = setup(&g);
            let queries: Vec<Query> = anchors
                .iter()
                .enumerate()
                .map(|(i, &a)| match i % 4 {
                    0 => Query::NeighborAggregation { node: n(a), hops: h, label: None },
                    1 => Query::Reachability { source: n(a), target: n(a / 2), hops: h },
                    2 => Query::ConstrainedReachability {
                        source: n(a),
                        target: n(a / 2),
                        hops: h,
                        via_label: NodeLabelId::new(0),
                    },
                    _ => Query::RandomWalk {
                        node: n(a),
                        steps: h * 3,
                        restart_prob: 0.2,
                        seed: u64::from(a),
                    },
                })
                .collect();

            // Serial reference: one worker cache, queries in order.
            let mut serial_cache: ProcessorCache = Box::new(LruCache::new(capacity));
            let mut serial_outs = Vec::new();
            let mut serial_logs = Vec::new();
            for q in &queries {
                let mut ex = Executor::new(&tier, &mut serial_cache);
                serial_outs.push(ex.run(q));
                serial_logs.push(ex.take_miss_log());
            }

            // Staged, driven strictly serially over one shared cache.
            let mut cache: ProcessorCache = Box::new(LruCache::new(capacity));
            for (i, q) in queries.iter().enumerate() {
                let mut staged = StagedQuery::new(*q);
                let mut payloads = None;
                let out = loop {
                    let mut source = &tier;
                    let mut store = CacheBackedStore::new(&mut source, &mut cache);
                    match staged.resume(&mut store, payloads.take()) {
                        Step::Fetch(nodes) => {
                            payloads = Some(
                                nodes
                                    .iter()
                                    .map(|&w| tier.get(w).map(|(s, b)| (s as u16, b)))
                                    .collect(),
                            );
                        }
                        Step::Done(out) => break out,
                    }
                };
                proptest::prop_assert_eq!(out.result, serial_outs[i].result, "query {}", i);
                proptest::prop_assert_eq!(out.stats, serial_outs[i].stats, "query {}", i);
                proptest::prop_assert_eq!(staged.take_miss_log(), serial_logs[i].clone(), "query {}", i);
            }
        }

        /// Distributed aggregation equals whole-graph BFS on random graphs.
        #[test]
        fn prop_aggregation_matches_bfs(
            edges in proptest::collection::vec((0u32..20, 0u32..20), 1..80),
            src in 0u32..20,
            h in 1u32..4,
        ) {
            let mut b = GraphBuilder::with_nodes(20);
            for (s, d) in &edges {
                b.add_edge(n(*s), n(*d));
            }
            let g = b.build().unwrap();
            let tier = setup(&g);
            let mut cache = fresh_cache();
            let mut ex = Executor::new(&tier, &mut cache);
            let out = ex.run(&Query::NeighborAggregation { node: n(src), hops: h, label: None });
            let truth = h_hop_neighborhood(&g, n(src), h, Direction::Both).len() as u64;
            proptest::prop_assert_eq!(out.result, QueryResult::Count(truth));
        }

        /// Distributed reachability equals whole-graph bidirectional BFS.
        #[test]
        fn prop_reachability_matches(
            edges in proptest::collection::vec((0u32..16, 0u32..16), 1..60),
            s in 0u32..16,
            t in 0u32..16,
            h in 0u32..5,
        ) {
            let mut b = GraphBuilder::with_nodes(16);
            for (a, d) in &edges {
                b.add_edge(n(*a), n(*d));
            }
            let g = b.build().unwrap();
            let tier = setup(&g);
            let mut cache = fresh_cache();
            let mut ex = Executor::new(&tier, &mut cache);
            let out = ex.run(&Query::Reachability { source: n(s), target: n(t), hops: h });
            let truth = match hop_distance(&g, n(s), n(t), Direction::Out) {
                Some(d) => d <= h,
                None => false,
            };
            proptest::prop_assert_eq!(out.result, QueryResult::Reachable(truth));
        }
    }
}
