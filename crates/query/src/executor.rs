//! Query execution over the cache-backed store.
//!
//! One executor instance runs on each query processor. The same code backs
//! the discrete-event simulator (which converts [`AccessStats`] into virtual
//! time), the wire cluster's processors, and the correctness tests (which
//! check results against whole-graph traversals in `grouting-graph`).
//!
//! There is one execution shape. A [`StagedQuery`] advances until the query
//! either finishes or needs records its cache does not hold
//! ([`Step::Fetch`]); the caller fetches them and resumes it with the
//! payloads. Every query kind runs the same plan → fetch → apply cycle:
//! aggregation asks for one BFS level at a time, a random walk for one
//! node per step, and reachability for both endpoints together, then for
//! one frontier level at a time (a constrained search reads the labels of
//! the nodes where a level met as one more ask). A step whose records are
//! all cached costs no fetch. Two drivers share it:
//!
//! * [`Executor::run`] — the serial driver (the simulator, reference
//!   answers): resume, fetch the asked nodes in one batch, resume again;
//! * the wire processor's pipeline — several staged queries over one
//!   cache, one query's fetch travelling while another computes
//!   (cross-query fetch overlap). Driven strictly serially it replays
//!   [`Executor::run`]'s cache operations exactly.
//!
//! A query's buffers live in a [`Scratch`] that its driver owns and lends
//! to one query at a time: the [`Executor`] keeps one across its runs, and
//! the pipeline keeps a free list of at most one per slot. So a query
//! whose every access hits allocates nothing once its driver's scratch has
//! grown to the queries it runs, and one whose every access misses
//! allocates its records (each a slab and an `Arc`) and what its driver's
//! fetch needs, nothing else: the miss set travels in the scratch's own
//! buffer, which the driver hands back, and the miss log stays in the
//! scratch. The traversals' seen sets are stamp
//! tables indexed by node id, emptied by bumping a generation; since ids
//! arrive from storage, the dense part holds ids below a fixed cap
//! (2^22, 8 MiB of stamps) and a larger id goes to a hashed overflow set.
//! The last level of an unlabelled aggregation is *count-only*: its
//! answer is how many records the level has, so the apply still reads
//! each node through the cache (recency, hits and misses are unchanged)
//! but keeps no record.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::Arc;

use bytes::Bytes;
use grouting_graph::codec::AdjacencyRecord;
use grouting_graph::{NodeId, NodeLabelId, NodeMap, NodeSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fetch::{AccessStats, BatchSource, CacheBackedStore, MissEvent, ProcessorCache};
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
pub struct Executor<'a, S> {
    store: CacheBackedStore<'a, S>,
    miss_log: Vec<MissEvent>,
    /// Lent to each query [`Executor::run`] runs, and taken back.
    scratch: Scratch,
}

impl<'a, S> Executor<'a, S> {
    /// Creates an executor borrowing the processor's cache for one or more
    /// query executions. `source` is the miss path — pass `&tier` for the
    /// classic in-process layout.
    pub fn new(source: S, cache: &'a mut ProcessorCache) -> Self {
        Self {
            store: CacheBackedStore::new(source, cache),
            miss_log: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Drains the ordered per-miss event log accumulated by queries run so
    /// far (used by the simulator's storage-contention model).
    pub fn take_miss_log(&mut self) -> Vec<MissEvent> {
        std::mem::take(&mut self.miss_log)
    }
}

impl<S: BatchSource> Executor<'_, S> {
    /// Runs one query to completion, the serial driver: each
    /// [`Step::Fetch`] travels as one batch before the query resumes.
    ///
    /// # Panics
    ///
    /// Panics when a fetched record fails to decode.
    pub fn run(&mut self, query: &Query) -> ExecOutcome {
        let scratch = std::mem::take(&mut self.scratch);
        let mut staged = StagedQuery::with_scratch(*query, scratch);
        let mut payloads = None;
        loop {
            let step = staged.resume(&mut self.store, payloads.take());
            self.store.expect_valid();
            match step {
                Step::Fetch(miss) => {
                    payloads = Some(self.store.exchange(&miss));
                    staged.hand_back(miss);
                }
                Step::Done(outcome) => {
                    self.miss_log.append(&mut staged.scratch.miss_log);
                    self.scratch = staged.take_scratch();
                    return outcome;
                }
            }
        }
    }
}

/// What a traversal does next: ask for the records of the nodes it pushed
/// onto its ask, or finish with its answer.
type Next = ControlFlow<QueryResult>;

/// The records answering a traversal's last ask, one per node in order
/// (`None` where the node is not stored). A count-only ask's entries are
/// all `None`: only how many there are is read.
type Got = Vec<Option<Arc<AdjacencyRecord>>>;

/// The ids a seen table holds densely, `0..DENSE_IDS`; a larger id goes to
/// its overflow set. Ids come from records that storage sent, so this
/// bounds what one id can make a processor allocate (8 MiB of stamps).
const DENSE_IDS: usize = 1 << 22;

/// Dense growth rounds up to a page of stamps, so ids met in ascending
/// order grow the table once per page, not once per id.
const GROWTH_IDS: usize = 1024;

/// A set of node ids that empties in O(1): `stamps[v]` equals `generation`
/// exactly when `v` is in the set, so clearing bumps the generation, and
/// the stamps are zeroed only when it wraps, once in 65,535 clears. Stamps
/// are 16 bits wide because a processor holds two tables per query slot,
/// and 32-bit ones read `peak_rss_mb` up to 14 % higher on the benchmark's
/// `hotspot_local`.
#[derive(Default)]
struct Seen {
    stamps: Vec<u16>,
    /// Never 0 once cleared: a stamp of 0 is nobody's.
    generation: u16,
    /// The members at or above [`DENSE_IDS`].
    overflow: NodeSet,
}

impl Seen {
    /// Empties the set.
    fn clear(&mut self) {
        self.overflow.clear();
        self.generation = self.generation.checked_add(1).unwrap_or_else(|| {
            self.stamps.fill(0);
            1
        });
    }

    /// Adds `v`; returns whether it was new.
    #[inline]
    fn insert(&mut self, v: NodeId) -> bool {
        let i = v.index();
        if i >= self.stamps.len() {
            if i >= DENSE_IDS {
                return self.overflow.insert(v);
            }
            self.grow(i);
        }
        let stamp = &mut self.stamps[i];
        let new = *stamp != self.generation;
        *stamp = self.generation;
        new
    }

    #[inline]
    fn contains(&self, v: NodeId) -> bool {
        match self.stamps.get(v.index()) {
            Some(&stamp) => stamp == self.generation,
            None => !self.overflow.is_empty() && self.overflow.contains(&v),
        }
    }

    /// Makes room for id `i`: the table is sized to the largest id seen,
    /// rounded up to a page, and never doubled past it.
    #[cold]
    fn grow(&mut self, i: usize) {
        let len = (i + 1).next_multiple_of(GROWTH_IDS).min(DENSE_IDS);
        self.stamps.reserve_exact(len - self.stamps.len());
        self.stamps.resize(len, 0);
    }
}

/// A query's buffers: the seen tables, the ask and its records, the
/// fetched answers, and reachability's levels. A driver lends one to each
/// query ([`StagedQuery::with_scratch`]) and takes it back when the query
/// is done ([`StagedQuery::take_scratch`]), so the buffers keep their
/// capacity from query to query and a warm query allocates nothing.
#[derive(Default)]
pub struct Scratch {
    /// The nodes of the traversal's current ask, in access order.
    frontier: Vec<NodeId>,
    /// Records applied so far: one per node of a prefix of `frontier`.
    records: Got,
    /// The planned misses of the current ask, in `frontier` order, each
    /// with its answer once the fetch has landed.
    answers: VecDeque<(NodeId, Option<(u16, Bytes)>)>,
    /// The buffer the next [`Step::Fetch`] carries. It leaves with the
    /// step, and a driver that hands it back ([`StagedQuery::hand_back`])
    /// lets the next ask plan into the same capacity.
    pending: Vec<NodeId>,
    /// The query's misses, in order (see [`StagedQuery::take_miss_log`]).
    miss_log: Vec<MissEvent>,
    /// The traversal's own buffers.
    marks: Marks,
}

impl Scratch {
    /// Empties every buffer, keeping its capacity.
    fn reset(&mut self) {
        self.frontier.clear();
        self.records.clear();
        self.answers.clear();
        self.pending.clear();
        self.miss_log.clear();
        let m = &mut self.marks;
        m.seen.iter_mut().for_each(Seen::clear);
        m.levels.iter_mut().for_each(Vec::clear);
        m.draining.clear();
        m.labelled.clear();
        m.meets.clear();
    }
}

/// What a traversal remembers between asks beyond its scalars.
#[derive(Default)]
struct Marks {
    /// Aggregation's and the walk's seen set is the first; reachability's
    /// forward and backward sides' are the first and the second.
    seen: [Seen; 2],
    /// Reachability: each side's nodes at its depth not yet expanded, in
    /// discovery order, forward then backward.
    levels: [Vec<NodeId>; 2],
    /// Reachability: the level being expanded.
    draining: Vec<NodeId>,
    /// Constrained reachability: whether each intermediate read so far
    /// carries the label. A meeting node awaiting its label read counts as
    /// `false`: were it labelled, that read would end the search.
    labelled: NodeMap<bool>,
    /// Constrained reachability: the meeting nodes whose labels the last
    /// ask read.
    meets: Vec<NodeId>,
}

/// One query's traversal, store-free: it asks for records and is handed
/// them, and never sees the cache or the storage source.
enum Traversal {
    Bfs(BfsState),
    Walk(WalkState),
    Reach(ReachState),
}

impl Traversal {
    fn new(query: &Query, marks: &mut Marks) -> Self {
        match *query {
            Query::NeighborAggregation { node, hops, label } => {
                marks.seen[0].insert(node);
                Self::Bfs(BfsState {
                    node,
                    hops,
                    label,
                    count: 0,
                    depth: 0,
                })
            }
            Query::RandomWalk {
                node,
                steps,
                restart_prob,
                seed,
            } => {
                marks.seen[0].insert(node);
                Self::Walk(WalkState {
                    node,
                    steps_left: steps,
                    restart_prob,
                    rng: StdRng::seed_from_u64(seed),
                    current: node,
                    visited: 1,
                })
            }
            Query::Reachability {
                source,
                target,
                hops,
            } => Self::Reach(ReachState::new(source, target, hops, None, marks)),
            Query::ConstrainedReachability {
                source,
                target,
                hops,
                via_label,
            } => Self::Reach(ReachState::new(
                source,
                target,
                hops,
                Some(via_label),
                marks,
            )),
        }
    }

    /// Drains the records of the last ask (`None` on the first call, when
    /// nothing was asked) and either pushes its next ask onto the empty
    /// `ask`, in access order, or finishes. A walk asks for one node at a
    /// time; aggregation and reachability for a whole level.
    fn next(&mut self, got: Option<&mut Got>, ask: &mut Vec<NodeId>, marks: &mut Marks) -> Next {
        match self {
            Self::Bfs(s) => s.next(got, ask, &mut marks.seen[0]),
            Self::Walk(s) => s.next(got.map(|g| g.pop().flatten()), ask, &mut marks.seen[0]),
            Self::Reach(s) => s.next(got, ask, marks),
        }
    }

    /// Whether the ask just pushed is count-only: its answer reads how many
    /// records it has, not what they hold.
    fn counts_only(&self) -> bool {
        matches!(self, Self::Bfs(s) if s.label.is_none() && s.depth == s.hops)
    }
}

/// Level-batched BFS over the bi-directed view (the paper's accounting:
/// every node in `N_h(q)` is one cache/storage access).
///
/// The root is asked for alone, then each hop's whole frontier in
/// discovery order — each expanded node's unseen neighbours, concatenated
/// in expansion order — so the cache-miss portion of a frontier travels as
/// one batch per storage server instead of one round trip per node, and
/// the access order is exactly a node-at-a-time BFS's.
struct BfsState {
    node: NodeId,
    hops: u32,
    label: Option<NodeLabelId>,
    count: u64,
    /// Depth of the frontier last asked for (the root's is 0).
    depth: u32,
}

impl BfsState {
    fn next(&mut self, got: Option<&mut Got>, ask: &mut Vec<NodeId>, seen: &mut Seen) -> Next {
        let Some(got) = got else {
            ask.push(self.node);
            return ControlFlow::Continue(());
        };
        // Count the frontier's records (the root is not its own
        // neighbour) and expand them: a node at depth d is expanded iff
        // d < hops, so within 0 hops nothing is.
        let mut expanded = false;
        for rec in got.drain(..) {
            if self.depth > 0 {
                let labeled_ok = match self.label {
                    None => true,
                    Some(l) => rec.as_ref().is_some_and(|r| r.node_label == Some(l)),
                };
                self.count += u64::from(labeled_ok);
            }
            if let Some(rec) = rec.filter(|_| self.depth < self.hops) {
                expanded = true;
                for &w in rec.all_neighbors() {
                    if seen.insert(w) {
                        ask.push(w);
                    }
                }
            }
        }
        if !expanded {
            return ControlFlow::Break(QueryResult::Count(self.count));
        }
        self.depth += 1;
        ControlFlow::Continue(())
    }
}

/// h-step random walk with restart over out-edges (falling back to the
/// bi-directed view at sink nodes so walks don't die), one node per ask.
struct WalkState {
    node: NodeId,
    steps_left: u32,
    restart_prob: f64,
    rng: StdRng,
    current: NodeId,
    /// Distinct nodes visited, the start included.
    visited: u64,
}

impl WalkState {
    fn next(
        &mut self,
        got: Option<Option<Arc<AdjacencyRecord>>>,
        ask: &mut Vec<NodeId>,
        seen: &mut Seen,
    ) -> Next {
        if let Some(got) = got {
            let Some(rec) = got else {
                return ControlFlow::Break(self.answer());
            };
            self.current = if !rec.out().is_empty() {
                rec.out()[self.rng.gen_range(0..rec.out().len())]
            } else if !rec.inc().is_empty() {
                rec.inc()[self.rng.gen_range(0..rec.inc().len())]
            } else {
                self.node // Isolated: restart.
            };
            self.visited += u64::from(seen.insert(self.current));
        }
        while self.steps_left > 0 {
            self.steps_left -= 1;
            if self.rng.gen::<f64>() < self.restart_prob {
                self.current = self.node;
                continue;
            }
            ask.push(self.current);
            return ControlFlow::Continue(());
        }
        ControlFlow::Break(self.answer())
    }

    fn answer(&self) -> QueryResult {
        QueryResult::Walk {
            end: self.current,
            visited: self.visited,
        }
    }
}

/// One side of a reachability search: forward from the source over
/// out-edges, or backward from the target over in-edges. Its seen set and
/// pending level are in the query's [`Marks`].
struct Side {
    depth: u32,
    /// Only levels above this depth are expanded.
    budget: u32,
}

impl Side {
    /// Whether the pending `level` is still to be expanded.
    fn live(&self, level: &[NodeId]) -> bool {
        !level.is_empty() && self.depth < self.budget
    }
}

/// Bidirectional BFS in levels: forward over out-edges from the source
/// (⌈h/2⌉ levels), backward over in-edges from the target (⌊h/2⌋). The
/// first ask holds both endpoints; each later ask expands one whole
/// pending level, the smaller one (forward on a tie). So a search within
/// h ≥ 1 hops asks at most `max(1, h − 1)` times, and no node is asked
/// for twice: a node both sides discovered is a meeting, which ends the
/// search or is never expanded.
///
/// With `via_label`, intermediate nodes must carry that label (the
/// endpoints are exempt) — the §2.2 label-constrained variant. The
/// constraint is enforced at *expansion* time: a node lacking the label
/// may be discovered (it could be the meeting endpoint) but its record
/// is never expanded, and a meeting at an intermediate node counts only
/// once that node's record shows the label. The meeting nodes of an
/// expansion whose labels are unknown are read as one more ask.
struct ReachState {
    source: NodeId,
    target: NodeId,
    via_label: Option<NodeLabelId>,
    /// Forward, then backward.
    sides: [Side; 2],
    /// Which sides' levels the last expansion ask held, in `sides` order.
    expanding: [bool; 2],
}

impl ReachState {
    fn new(
        source: NodeId,
        target: NodeId,
        hops: u32,
        via_label: Option<NodeLabelId>,
        marks: &mut Marks,
    ) -> Self {
        for (side, root) in [source, target].into_iter().enumerate() {
            marks.seen[side].insert(root);
            marks.levels[side].push(root);
        }
        Self {
            source,
            target,
            via_label,
            sides: [hops - hops / 2, hops / 2].map(|budget| Side { depth: 0, budget }),
            expanding: [false; 2],
        }
    }

    fn next(&mut self, got: Option<&mut Got>, ask: &mut Vec<NodeId>, marks: &mut Marks) -> Next {
        let met = match got {
            // A source that is its target has met already.
            None => self.source == self.target,
            Some(got) if marks.meets.is_empty() => self.expand_levels(got, marks),
            Some(got) => {
                marks.meets.clear();
                got.drain(..)
                    .any(|rec| rec.is_some_and(|r| r.node_label == self.via_label))
            }
        };
        if met {
            return ControlFlow::Break(QueryResult::Reachable(true));
        }
        if !marks.meets.is_empty() {
            ask.extend_from_slice(&marks.meets);
            return ControlFlow::Continue(());
        }
        // A node whose record showed no label is never expanded, nor
        // asked for again.
        let labelled = &marks.labelled;
        if !labelled.is_empty() {
            for level in &mut marks.levels {
                level.retain(|v| labelled.get(v) != Some(&false));
            }
        }
        let [fwd, bwd] = &self.sides;
        let [fwd_level, bwd_level] = &marks.levels;
        let (fwd_live, bwd_live) = (fwd.live(fwd_level), bwd.live(bwd_level));
        let forward = fwd_live && (!bwd_live || fwd_level.len() <= bwd_level.len());
        self.expanding = match (fwd_live, bwd_live) {
            (false, false) => return ControlFlow::Break(QueryResult::Reachable(false)),
            // The first ask holds both endpoints.
            (true, true) if fwd.depth + bwd.depth == 0 => [true, true],
            _ => [forward, !forward],
        };
        for (level, _) in marks.levels.iter().zip(self.expanding).filter(|(_, e)| *e) {
            ask.extend_from_slice(level);
        }
        ControlFlow::Continue(())
    }

    /// Expands the levels the last ask held, whose records `got` holds in
    /// ask order. Returns whether the two sides met.
    fn expand_levels(&mut self, got: &mut Got, marks: &mut Marks) -> bool {
        let mut records = got.drain(..);
        (0..2).any(|side| self.expanding[side] && self.expand(side, &mut records, marks))
    }

    /// Expands `side`'s pending level, whose records `records` yields in
    /// level order: each expanded node's undiscovered neighbours make the
    /// next level, and a neighbour the other side discovered is a
    /// meeting. Returns whether the sides met; a meeting at an
    /// intermediate node whose label is unknown joins `meets` instead.
    fn expand(
        &mut self,
        side: usize,
        records: &mut impl Iterator<Item = Option<Arc<AdjacencyRecord>>>,
        marks: &mut Marks,
    ) -> bool {
        let Self {
            source,
            target,
            via_label,
            sides,
            ..
        } = self;
        let Marks {
            seen: [fwd_seen, bwd_seen],
            levels,
            draining,
            labelled,
            meets,
        } = marks;
        let (this, other) = if side == 0 {
            (fwd_seen, &*bwd_seen)
        } else {
            (bwd_seen, &*fwd_seen)
        };
        let intermediate = |v: NodeId| v != *source && v != *target;
        let level = &mut levels[side];
        std::mem::swap(level, draining);
        sides[side].depth += 1;
        for (v, rec) in draining.drain(..).zip(records) {
            let Some(rec) = rec else { continue };
            if let Some(l) = via_label.filter(|_| intermediate(v)) {
                let holds = rec.node_label == Some(l);
                labelled.insert(v, holds);
                if !holds {
                    continue;
                }
            }
            let next = if side == 0 { rec.out() } else { rec.inc() };
            for &w in next {
                if other.contains(w) {
                    if via_label.is_none() || !intermediate(w) {
                        return true;
                    }
                    match labelled.entry(w) {
                        Entry::Occupied(e) if *e.get() => return true,
                        Entry::Occupied(_) => {}
                        Entry::Vacant(e) => {
                            e.insert(false);
                            meets.push(w);
                        }
                    }
                }
                if this.insert(w) {
                    level.push(w);
                }
            }
        }
        false
    }
}

/// What a staged query needs next.
#[derive(Debug)]
pub enum Step {
    /// The query needs these records fetched (the cache-miss portion of
    /// its next ask, in access order; an ask never repeats a node). Fetch
    /// them — asynchronously, ideally — and pass the payloads, one entry
    /// per node in the same order, to the next [`StagedQuery::resume`].
    /// The vector is the query's own buffer: a driver that hands it back
    /// ([`StagedQuery::hand_back`]) saves the next ask an allocation.
    Fetch(Vec<NodeId>),
    /// The query finished.
    Done(ExecOutcome),
}

/// A query execution split at fetch boundaries — the one way a query
/// executes.
///
/// Each [`StagedQuery::resume`] call advances the query as far as it can
/// against the local cache and returns either [`Step::Fetch`] (remote
/// records wanted — the caller fetches them and resumes with the payloads)
/// or [`Step::Done`]. Between calls the query holds no borrow on the cache,
/// and no call ever touches the store's source, so a processor can keep
/// several staged queries in flight over one cache, overlapping one
/// query's fetch with another's compute, and never waits on storage inside
/// a query.
///
/// Each ask runs plan → fetch → apply: the plan names the misses into the
/// scratch's buffer (as [`CacheBackedStore::plan_many`] does, less its
/// deduplication, which an ask never needs), and the apply replays the
/// scalar get/insert sequence in access order. When the apply meets a
/// node the plan counted as a hit but an earlier insert of the same ask
/// evicted, it stops there and asks for that node alone as one more
/// [`Step::Fetch`]
/// ([`StagedQuery::mid_ask`]); the next resume admits it and carries on
/// with the answers it still holds, so the cache sees exactly the
/// operations a node-at-a-time execution would. A count-only ask (the
/// last level of an unlabelled aggregation) runs the same accesses and
/// keeps none of the records.
///
/// Buffers: the query runs in a [`Scratch`] its driver lends it
/// ([`StagedQuery::with_scratch`]) and takes back once it is done
/// ([`StagedQuery::take_scratch`]); [`StagedQuery::new`] gives it a
/// fresh one, which allocates as it grows. The seen tables in it hold
/// ids below 2^22 densely and larger ones in a hashed overflow set.
///
/// Accounting: the query's [`AccessStats`] and miss log (kept in its
/// scratch) accumulate here, not in the (possibly shared, transient)
/// store — each resume swaps them into the store for the duration of the
/// step.
pub struct StagedQuery {
    stats: AccessStats,
    traversal: Traversal,
    started: bool,
    finished: bool,
    /// The one node the apply stopped at, whose re-fetch is pending.
    refetch: Option<NodeId>,
    scratch: Scratch,
}

impl StagedQuery {
    /// Prepares `query` for staged execution in a fresh [`Scratch`].
    /// Nothing runs until the first [`StagedQuery::resume`] (called with
    /// `None`).
    pub fn new(query: Query) -> Self {
        Self::with_scratch(query, Scratch::default())
    }

    /// Prepares `query` for staged execution in `scratch`, whatever an
    /// earlier query left in it: every buffer is emptied first, and keeps
    /// its capacity.
    pub fn with_scratch(query: Query, mut scratch: Scratch) -> Self {
        scratch.reset();
        Self {
            stats: AccessStats::default(),
            traversal: Traversal::new(&query, &mut scratch.marks),
            started: false,
            finished: false,
            refetch: None,
            scratch,
        }
    }

    /// Takes the query's scratch back, for the driver's next query; the
    /// query must not be resumed afterwards.
    pub fn take_scratch(&mut self) -> Scratch {
        std::mem::take(&mut self.scratch)
    }

    /// The ask whose fetch is pending (request order) — the full ask,
    /// cache hits included, of which the [`Step::Fetch`] miss set is the
    /// cold part; just the one node when the apply stopped at a node it
    /// must re-fetch.
    pub fn frontier(&self) -> &[NodeId] {
        match &self.refetch {
            Some(node) => std::slice::from_ref(node),
            None => &self.scratch.frontier,
        }
    }

    /// Whether the query stopped partway through applying an ask: its
    /// pending fetch is the one node the apply met evicted, and the rest of
    /// the ask is applied when it lands.
    pub fn mid_ask(&self) -> bool {
        self.refetch.is_some()
    }

    /// Hands back the vector a [`Step::Fetch`] carried, once the fetch no
    /// longer needs it, so the next ask plans into its capacity instead of
    /// a fresh allocation. The query works the same without it.
    pub fn hand_back(&mut self, mut ask: Vec<NodeId>) {
        ask.clear();
        self.scratch.pending = ask;
    }

    /// The ordered per-miss event log accumulated so far.
    pub fn miss_log(&self) -> &[MissEvent] {
        &self.scratch.miss_log
    }

    /// Drains the ordered per-miss event log accumulated so far; its
    /// buffer leaves the scratch with it ([`StagedQuery::miss_log`] reads
    /// it in place).
    pub fn take_miss_log(&mut self) -> Vec<MissEvent> {
        std::mem::take(&mut self.scratch.miss_log)
    }

    /// Advances the query: pass `None` on the first call, and the fetched
    /// payloads answering the previous [`Step::Fetch`] (one entry per
    /// requested node, in request order) on every later call.
    ///
    /// The store is only borrowed for the duration of the call, and only
    /// its cache is used; its accounting is swapped
    /// out for this query's, so a transient store over a shared cache
    /// attributes every access correctly.
    ///
    /// # Panics
    ///
    /// Panics when resumed after [`Step::Done`], or when `payloads` does
    /// not answer the previous step (wrong count, or missing entirely).
    pub fn resume<S>(
        &mut self,
        store: &mut CacheBackedStore<'_, S>,
        payloads: Option<Vec<Option<(u16, Bytes)>>>,
    ) -> Step {
        assert!(!self.finished, "resumed a finished staged query");
        store.swap_accounting(&mut self.stats, &mut self.scratch.miss_log);
        let next = self.advance(store, payloads);
        store.swap_accounting(&mut self.stats, &mut self.scratch.miss_log);
        match next {
            ControlFlow::Continue(miss) => Step::Fetch(miss),
            ControlFlow::Break(result) => {
                self.finished = true;
                Step::Done(ExecOutcome {
                    result,
                    stats: self.stats,
                })
            }
        }
    }

    fn advance<S>(
        &mut self,
        store: &mut CacheBackedStore<'_, S>,
        payloads: Option<Vec<Option<(u16, Bytes)>>>,
    ) -> ControlFlow<QueryResult, Vec<NodeId>> {
        let s = &mut self.scratch;
        let mut payloads = payloads.unwrap_or_default();
        let asked = if self.refetch.is_some() {
            1
        } else {
            s.answers.len()
        };
        assert_eq!(
            payloads.len(),
            asked,
            "payloads must answer the pending fetch node-for-node"
        );
        let keep = !self.traversal.counts_only();
        if let Some(node) = self.refetch.take() {
            let record = store.admit(node, payloads.pop().flatten());
            s.records.push(record.filter(|_| keep));
        } else {
            for ((_, answer), payload) in s.answers.iter_mut().zip(payloads) {
                *answer = payload;
            }
        }
        loop {
            if self.started {
                let keep = !self.traversal.counts_only();
                if let Some(node) =
                    store.apply_from(&s.frontier, &mut s.answers, &mut s.records, keep)
                {
                    self.refetch = Some(node);
                    s.pending.clear();
                    s.pending.push(node);
                    return ControlFlow::Continue(std::mem::take(&mut s.pending));
                }
            }
            let got = self.started.then_some(&mut s.records);
            self.started = true;
            s.frontier.clear();
            self.traversal.next(got, &mut s.frontier, &mut s.marks)?;
            // Every answer of the last ask has been applied, so `answers`
            // is empty and takes this ask's misses, to be answered in place.
            s.pending.clear();
            store.plan_into(&s.frontier, &mut s.pending);
            if !s.pending.is_empty() {
                s.answers.extend(s.pending.iter().map(|&node| (node, None)));
                return ControlFlow::Continue(std::mem::take(&mut s.pending));
            }
        }
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

    /// FNV-1a over little-endian words.
    fn fnv1a(hash: &mut u64, words: &[u64]) {
        for word in words {
            for byte in word.to_le_bytes() {
                *hash ^= u64::from(byte);
                *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// The three pinned streams, one per query kind.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Kind {
        /// Aggregation, plain and labelled.
        Aggregation,
        Walk,
        /// Reachability, plain and constrained.
        Reachability,
    }

    const KINDS: [Kind; 3] = [Kind::Aggregation, Kind::Walk, Kind::Reachability];

    impl Kind {
        fn of(query: &Query) -> Self {
            match query {
                Query::NeighborAggregation { .. } => Self::Aggregation,
                Query::RandomWalk { .. } => Self::Walk,
                Query::Reachability { .. } | Query::ConstrainedReachability { .. } => {
                    Self::Reachability
                }
            }
        }
    }

    /// Runs the `kind` queries of a fixed seeded stream (every query
    /// kind, labelled and not), in stream order, through one [`Executor`]
    /// over `cache` and folds them into two FNV-1a hashes: an access hash
    /// of every answer, [`AccessStats`] and miss-log entry with their byte
    /// words (`miss_bytes`, [`MissEvent::bytes`]) read as zero, and a byte
    /// hash of those byte words alone. Which records are read, and in what
    /// order, moves the first; how many bytes a record travels in moves
    /// only the second. Each kind has its own cache, so a change to one
    /// kind's reads moves only that kind's pins.
    fn accounting_fingerprints(kind: Kind, cache: &mut ProcessorCache) -> (u64, u64) {
        let mut rng = StdRng::seed_from_u64(39);
        let nodes = 300u32;
        let mut b = GraphBuilder::with_nodes(nodes as usize);
        for v in 0..nodes {
            for _ in 0..3 {
                b.add_edge(n(v), n(rng.gen_range(0..nodes)));
            }
            b.set_node_label(n(v), NodeLabelId::new((v % 3) as u16));
        }
        let tier = setup(&b.build().unwrap());
        let mut ex = Executor::new(&tier, cache);
        let (mut access, mut bytes) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
        for i in 0..600u32 {
            // 120 queries of each of the five shapes, interleaved; a few
            // anchors lie past the graph.
            let a = rng.gen_range(0..nodes + 4);
            let t = rng.gen_range(0..nodes);
            let hops = 1 + rng.gen_range(0..3u32);
            let query = match i % 5 {
                0 => Query::NeighborAggregation {
                    node: n(a),
                    hops,
                    label: None,
                },
                1 => Query::NeighborAggregation {
                    node: n(a),
                    hops,
                    label: Some(NodeLabelId::new((a % 3) as u16)),
                },
                2 => Query::RandomWalk {
                    node: n(a),
                    steps: 4 * hops,
                    restart_prob: 0.15,
                    seed: u64::from(i),
                },
                3 => Query::Reachability {
                    source: n(a),
                    target: n(t),
                    hops: hops + 1,
                },
                _ => Query::ConstrainedReachability {
                    source: n(a),
                    target: n(t),
                    hops: hops + 1,
                    via_label: NodeLabelId::new((t % 3) as u16),
                },
            };
            if Kind::of(&query) != kind {
                continue;
            }
            let out = ex.run(&query);
            match out.result {
                QueryResult::Count(c) => fnv1a(&mut access, &[0, c]),
                QueryResult::Walk { end, visited } => {
                    fnv1a(&mut access, &[1, u64::from(end.raw()), visited])
                }
                QueryResult::Reachable(r) => fnv1a(&mut access, &[2, u64::from(r)]),
            }
            let s = out.stats;
            fnv1a(&mut access, &[s.cache_hits, s.cache_misses, 0, s.evictions]);
            fnv1a(&mut bytes, &[s.miss_bytes]);
            for ev in ex.take_miss_log() {
                fnv1a(&mut access, &[u64::from(ev.server), 0]);
                fnv1a(&mut bytes, &[u64::from(ev.bytes)]);
            }
        }
        (access, bytes)
    }

    /// What the serial executor produces per query kind: answers,
    /// per-query statistics and miss logs over caches that evict a planned
    /// hit mid-frontier (60 B, 300 B), one that mostly holds the stream
    /// (64 KiB), and one that holds nothing. A change that moves a kind's
    /// access constants changes which records that kind reads or in what
    /// order, and says so; the other kinds' constants stay as they are.
    #[test]
    fn serial_accounting_matches_the_pinned_fingerprints() {
        for (kind, pins) in KINDS.into_iter().zip(ACCESS_PINS) {
            for (name, mut cache, want) in pinned_caches(pins) {
                let (got, _) = accounting_fingerprints(kind, &mut cache);
                assert_eq!(got, want, "{kind:?}, {name}: {got:#018x}");
            }
        }
    }

    /// The byte words of the same streams: every query's `miss_bytes` and
    /// every miss-log entry's payload length. They move with the record
    /// codec, and with which records a kind reads.
    #[test]
    fn serial_miss_bytes_match_the_pinned_fingerprints() {
        for (kind, pins) in KINDS.into_iter().zip(BYTE_PINS) {
            for (name, mut cache, want) in pinned_caches(pins) {
                let (_, got) = accounting_fingerprints(kind, &mut cache);
                assert_eq!(got, want, "{kind:?}, {name}: {got:#018x}");
            }
        }
    }

    /// Per kind, in [`KINDS`] order.
    const ACCESS_PINS: [[u64; 4]; 3] = [
        // Aggregation.
        [
            0x7a6f_0694_bb57_245e,
            0x2baa_fb4c_4038_33d7,
            0x3c43_3cdb_8253_e5ec,
            0x298f_dc1c_4c66_e9ab,
        ],
        // Walk.
        [
            0x589e_7c7d_9e76_5e56,
            0x7f62_2175_7710_d76d,
            0xc161_8363_d0a1_efc5,
            0xea19_6d73_a543_f578,
        ],
        // Reachability.
        [
            0x540b_27da_cfab_452f,
            0x41a8_d100_7bd3_a208,
            0x3d16_a66a_bdfa_d064,
            0x10f6_1b19_0a84_68c4,
        ],
    ];

    /// Per kind, in [`KINDS`] order.
    const BYTE_PINS: [[u64; 4]; 3] = [
        // Aggregation.
        [
            0xb11e_1adf_bd32_d921,
            0xaaaa_cd36_619a_80d2,
            0x7601_0e29_a438_6241,
            0xe9a5_a534_6642_22a5,
        ],
        // Walk.
        [
            0xb35e_56db_7d56_37ab,
            0x7dd1_e185_774f_f001,
            0xf1bc_b78c_a184_848d,
            0xe89e_e500_37dc_8a0f,
        ],
        // Reachability.
        [
            0x2185_ed1a_17b1_5325,
            0x0aa9_0ad3_56f8_ad6b,
            0x0116_ee4d_3d48_c9cd,
            0xc3c6_ae0f_f422_c9eb,
        ],
    ];

    /// The four pinned caches, each beside its pin.
    fn pinned_caches(pins: [u64; 4]) -> [(&'static str, ProcessorCache, u64); 4] {
        [
            ("lru 60 B", Box::new(LruCache::new(60)), pins[0]),
            ("lru 300 B", Box::new(LruCache::new(300)), pins[1]),
            ("lru 64 KiB", Box::new(LruCache::new(64 << 10)), pins[2]),
            ("null", Box::new(NullCache::new()), pins[3]),
        ]
    }

    /// Drives a [`StagedQuery`] exactly as a serial caller would: resume,
    /// fetch the requested nodes straight from the tier, resume again.
    fn run_staged(tier: &StorageTier, cache: &mut ProcessorCache, query: Query) -> ExecOutcome {
        run_staged_asks(tier, cache, query).0
    }

    /// [`run_staged`], also returning each [`Step::Fetch`]'s nodes in turn.
    fn run_staged_asks(
        tier: &StorageTier,
        cache: &mut ProcessorCache,
        query: Query,
    ) -> (ExecOutcome, Vec<Vec<NodeId>>) {
        let mut staged = StagedQuery::new(query);
        let (mut payloads, mut asks) = (None, Vec::new());
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
                    asks.push(nodes);
                }
                Step::Done(out) => return (out, asks),
            }
        }
    }

    /// A graph over `0..16` with `edges`, whose node `v` carries label 1
    /// when bit `v` of `mask` is set and label 0 otherwise.
    fn two_label_graph(edges: &[(u32, u32)], mask: u32) -> CsrGraph {
        let mut b = GraphBuilder::with_nodes(16);
        for &(s, d) in edges {
            b.add_edge(n(s), n(d));
        }
        for v in 0..16 {
            b.set_node_label(n(v), NodeLabelId::new(((mask >> v) & 1) as u16));
        }
        b.build().unwrap()
    }

    /// Whether `target` lies within `hops` of `source` over out-edges
    /// through intermediates that all carry `via`: a whole-graph BFS that
    /// expands only the source and the nodes carrying the label.
    fn naive_constrained_reach(
        g: &CsrGraph,
        source: NodeId,
        target: NodeId,
        hops: u32,
        via: NodeLabelId,
    ) -> bool {
        let mut dist = std::collections::HashMap::from([(source, 0u32)]);
        let mut queue = VecDeque::from([source]);
        while let Some(v) = queue.pop_front() {
            if v == target {
                return true;
            }
            let d = dist[&v];
            if d == hops || (v != source && g.node_label(v) != Some(via)) {
                continue;
            }
            for w in g.out_neighbors(v) {
                dist.entry(w).or_insert_with(|| {
                    queue.push_back(w);
                    d + 1
                });
            }
        }
        false
    }

    /// The hand drive above (one tier read per asked node) and
    /// [`Executor::run`] (one batch exchange per step) leave the same
    /// answers and accounting.
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
    fn every_kind_stages_on_a_cold_cache_and_not_on_a_warm_one() {
        let g = path_with_chord();
        let tier = setup(&g);
        for q in [
            Query::NeighborAggregation {
                node: n(0),
                hops: 2,
                label: None,
            },
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
            Query::ConstrainedReachability {
                source: n(0),
                target: n(4),
                hops: 4,
                via_label: NodeLabelId::new(0),
            },
        ] {
            let mut cache = fresh_cache();
            let mut staged = StagedQuery::new(q);
            let mut store = CacheBackedStore::new((), &mut cache);
            assert!(
                matches!(staged.resume(&mut store, None), Step::Fetch(_)),
                "{q:?} must stage on a cold cache"
            );
            drop(store);
            let cold = run_staged(&tier, &mut cache, q);
            let mut store = CacheBackedStore::new((), &mut cache);
            match StagedQuery::new(q).resume(&mut store, None) {
                Step::Done(warm) => {
                    assert_eq!(warm.result, cold.result, "{q:?}");
                    assert_eq!(warm.stats.cache_hits, cold.stats.accesses(), "{q:?}");
                }
                Step::Fetch(miss) => panic!("{q:?} fetched {miss:?} on a warm cache"),
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
        let mut payloads = None;
        let mut store = CacheBackedStore::new(&tier, &mut cache);
        while let Step::Fetch(miss) = staged.resume(&mut store, payloads.take()) {
            payloads = Some(store.exchange(&miss));
        }
        let _ = staged.resume(&mut store, None);
    }

    /// A source over hand-made records, served from server 0.
    struct Records(NodeMap<Bytes>);

    impl BatchSource for Records {
        fn fetch_batch(&mut self, nodes: &[NodeId]) -> Vec<Option<(u16, Bytes)>> {
            nodes
                .iter()
                .map(|v| self.0.get(v).map(|b| (0, b.clone())))
                .collect()
        }
    }

    /// Ids near `u32::MAX` arrive from storage like any other: answers are
    /// right, and they land in the overflow set, not the dense table.
    #[test]
    fn hostile_neighbour_ids_stay_out_of_the_dense_table() {
        let far = n(u32::MAX - 1);
        let farther = n(u32::MAX - 2);
        let record = |out: &[NodeId], inc: &[NodeId]| {
            AdjacencyRecord::new(out.iter().copied(), inc.iter().copied()).encode()
        };
        let mut source = Records(NodeMap::from_iter([
            (n(0), record(&[n(1), far], &[])),
            (n(1), record(&[n(2)], &[n(0)])),
            (far, record(&[n(3), farther], &[n(0)])),
            (farther, record(&[], &[far])),
        ]));
        let mut cache = fresh_cache();
        let mut ex = Executor::new(&mut source, &mut cache);
        // Level 1: 1 and `far`; level 2: 2 (from 1), 3 and `farther`
        // (from `far`); 0 is the root.
        let agg = |hops| Query::NeighborAggregation {
            node: n(0),
            hops,
            label: None,
        };
        assert_eq!(ex.run(&agg(2)).result, QueryResult::Count(5));
        // Count-only at the root's level and at the first.
        assert_eq!(ex.run(&agg(0)).result, QueryResult::Count(0));
        assert_eq!(ex.run(&agg(1)).result, QueryResult::Count(2));
        // The backward side meets the forward one at `far`.
        let reach = Query::Reachability {
            source: n(0),
            target: farther,
            hops: 2,
        };
        assert_eq!(ex.run(&reach).result, QueryResult::Reachable(true));
        let walk = Query::RandomWalk {
            node: far,
            steps: 6,
            restart_prob: 0.0,
            seed: 5,
        };
        let QueryResult::Walk { visited, .. } = ex.run(&walk).result else {
            panic!("a walk answers a walk");
        };
        assert!((2..=4).contains(&visited), "{visited}");
        let seen = &ex.scratch.marks.seen;
        assert!(seen.iter().all(|s| s.stamps.len() <= GROWTH_IDS));
        assert!(
            seen[0].overflow.contains(&far),
            "the walk's start overflows"
        );
    }

    /// `count` queries from `rng`, cycling through the five kinds, over
    /// `nodes` nodes with labels `0..labels`. Their endpoints come from four
    /// anchors (one may lie past the graph), so they overlap as hotspot
    /// queries do.
    fn mixed_queries(rng: &mut StdRng, nodes: u32, labels: u16, count: usize) -> Vec<Query> {
        let anchors: Vec<NodeId> = (0..4).map(|_| n(rng.gen_range(0..nodes + 2))).collect();
        (0..count)
            .map(|i| {
                let a = anchors[rng.gen_range(0..anchors.len())];
                let t = anchors[rng.gen_range(0..anchors.len())];
                let hops = rng.gen_range(0..4u32);
                let label = NodeLabelId::new(rng.gen_range(0..labels));
                match i % 5 {
                    0 => Query::NeighborAggregation {
                        node: a,
                        hops: hops.min(2),
                        label: None,
                    },
                    1 => Query::NeighborAggregation {
                        node: a,
                        hops: hops.min(2),
                        label: Some(label),
                    },
                    2 => Query::RandomWalk {
                        node: a,
                        steps: 2 * hops,
                        restart_prob: 0.2,
                        seed: rng.gen(),
                    },
                    3 => Query::Reachability {
                        source: a,
                        target: t,
                        hops,
                    },
                    _ => Query::ConstrainedReachability {
                        source: a,
                        target: t,
                        hops,
                        via_label: label,
                    },
                }
            })
            .collect()
    }

    /// A scratch whose generations wrap mid-stream answers as a fresh one
    /// does: the wrap zeroes the stamps that earlier generations left.
    #[test]
    fn seen_tables_answer_the_same_across_a_generation_wrap() {
        let mut rng = StdRng::seed_from_u64(57);
        let nodes = 200u32;
        let mut b = GraphBuilder::with_nodes(nodes as usize);
        for v in 0..nodes {
            for _ in 0..3 {
                b.add_edge(n(v), n(rng.gen_range(0..nodes)));
            }
            b.set_node_label(n(v), NodeLabelId::new((v % 2) as u16));
        }
        let tier = setup(&b.build().unwrap());
        let queries = mixed_queries(&mut rng, nodes, 2, 20);
        // The first round stamps generations 1..=20. The second runs the
        // last query at u16::MAX, and then, from generation 1 again, each
        // query over the stamps its own first run left.
        let second = std::iter::once(&queries[19]).chain(&queries);
        let (mut cache, mut fresh_cache) = (fresh_cache(), fresh_cache());
        let mut ex = Executor::new(&tier, &mut cache);
        for (i, q) in queries.iter().chain(second).enumerate() {
            if i == 20 {
                for seen in &mut ex.scratch.marks.seen {
                    seen.generation = u16::MAX - 1;
                }
            }
            let reused = ex.run(q);
            let fresh = Executor::new(&tier, &mut fresh_cache).run(q);
            assert_eq!(reused, fresh, "run {i}: {q:?}");
        }
        assert!(ex.scratch.marks.seen.iter().all(|s| s.generation == 20));
    }

    /// Two staged queries interleaved, each over its own cache, draw their
    /// scratches from one pool, as the pipeline's slots do: every answer,
    /// [`AccessStats`] and miss log equals a fresh [`Executor`]'s over a
    /// twin cache, whatever kind ran in the scratch before. Graphs are
    /// `gen`'s tiny profiles with two node labels, so constrained searches
    /// both pass and prune; `PROPTEST_CASES` raises the 256 cases.
    #[test]
    fn prop_reused_scratch_equals_fresh_scratch() {
        use grouting_gen::labels::{assign_labels, LabelConfig};
        use grouting_gen::{DatasetProfile, ProfileName};
        let labels = LabelConfig {
            node_alphabet: 2,
            edge_alphabet: 1,
            skew: 1.0,
        };
        let graphs: Vec<(u32, StorageTier)> = ProfileName::ALL
            .iter()
            .map(|&name| {
                let g = assign_labels(&DatasetProfile::tiny(name).generate(), &labels, 57);
                (g.node_count() as u32, setup(&g))
            })
            .collect();
        for case in 0..proptest::cases().max(256) {
            let mut rng = StdRng::seed_from_u64(case);
            let (nodes, tier) = &graphs[rng.gen_range(0..graphs.len())];
            let capacity = [600usize, 8 << 10, 1 << 20][rng.gen_range(0..3usize)];
            let count = rng.gen_range(2..12usize);
            let queries = mixed_queries(&mut rng, *nodes, 2, count);
            let lru = || -> ProcessorCache { Box::new(LruCache::new(capacity)) };
            let mut caches = [lru(), lru()];
            let mut twins = [lru(), lru()];
            let mut pool: Vec<Scratch> = Vec::new();
            // Per lane: the query's index, its staged run, the payloads
            // answering its last fetch, and the fresh run's outcome.
            type Lane = (
                usize,
                StagedQuery,
                Option<Vec<Option<(u16, Bytes)>>>,
                (ExecOutcome, Vec<MissEvent>),
            );
            let mut lanes: [Option<Lane>; 2] = [None, None];
            let mut next = 0;
            while next < queries.len() || lanes.iter().any(Option::is_some) {
                let lane = rng.gen_range(0..2usize);
                let Some((i, staged, payloads, want)) = &mut lanes[lane] else {
                    if next < queries.len() {
                        let q = queries[next];
                        let scratch = pool.pop().unwrap_or_default();
                        let mut fresh = Executor::new(tier, &mut twins[lane]);
                        let want = (fresh.run(&q), fresh.take_miss_log());
                        lanes[lane] =
                            Some((next, StagedQuery::with_scratch(q, scratch), None, want));
                        next += 1;
                    }
                    continue;
                };
                let mut source = tier;
                let mut store = CacheBackedStore::new(&mut source, &mut caches[lane]);
                match staged.resume(&mut store, payloads.take()) {
                    Step::Fetch(miss) => *payloads = Some(store.exchange(&miss)),
                    Step::Done(out) => {
                        let got = (out, staged.take_miss_log());
                        assert_eq!(&got, want, "case {case}, query {i}: {:?}", queries[*i]);
                        pool.push(staged.take_scratch());
                        lanes[lane] = None;
                    }
                }
            }
        }
    }

    proptest::proptest! {
        /// A staged query driven by hand (one tier read per asked node)
        /// replays [`Executor::run`]'s results, statistics and miss logs for
        /// ANY mix of the four query kinds, graph, and (tiny) cache
        /// capacity — the overlap=1 agreement contract. And whatever the
        /// cache, each query's answer and record-access count are those of
        /// a run that caches nothing: the cache only moves hits and misses.
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
            let mut null_cache: ProcessorCache = Box::new(NullCache::new());
            let mut uncached = Executor::new(&tier, &mut null_cache);
            for (i, q) in queries.iter().enumerate() {
                let bare = uncached.run(q);
                proptest::prop_assert_eq!(bare.result, serial_outs[i].result, "query {}", i);
                proptest::prop_assert_eq!(
                    bare.stats.accesses(), serial_outs[i].stats.accesses(), "query {}", i
                );
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

        /// Constrained reachability equals a naive whole-graph search, over
        /// a cache that holds nothing and over one that evicts mid-ask.
        #[test]
        fn prop_constrained_reachability_matches(
            edges in proptest::collection::vec((0u32..16, 0u32..16), 1..60),
            mask in 0u32..1 << 16,
            s in 0u32..16,
            t in 0u32..16,
            h in 0u32..5,
            via in 0u16..2,
        ) {
            let g = two_label_graph(&edges, mask);
            let tier = setup(&g);
            let via = NodeLabelId::new(via);
            let truth = naive_constrained_reach(&g, n(s), n(t), h, via);
            let caches: [ProcessorCache; 2] = [Box::new(NullCache::new()), Box::new(LruCache::new(60))];
            for mut cache in caches {
                let out = Executor::new(&tier, &mut cache).run(&Query::ConstrainedReachability {
                    source: n(s),
                    target: n(t),
                    hops: h,
                    via_label: via,
                });
                proptest::prop_assert_eq!(out.result, QueryResult::Reachable(truth));
            }
        }

        /// Over a cache that holds nothing, every ask is one fetch step.
        /// Reachability within `h ≥ 1` hops asks at most `max(1, h − 1)`
        /// times, and not at all within 0 hops or from a node to itself;
        /// the constrained kind adds at most one label ask per expansion
        /// ask. No node is asked for twice in one query.
        #[test]
        fn prop_reachability_asks_stay_within_the_level_bound(
            edges in proptest::collection::vec((0u32..16, 0u32..16), 1..60),
            mask in 0u32..1 << 16,
            s in 0u32..16,
            t in 0u32..16,
            h in 0u32..6,
            constrained in proptest::bool::ANY,
        ) {
            let g = two_label_graph(&edges, mask);
            let tier = setup(&g);
            let (query, label_asks) = if constrained {
                let via_label = NodeLabelId::new(1);
                (Query::ConstrainedReachability { source: n(s), target: n(t), hops: h, via_label }, 2)
            } else {
                (Query::Reachability { source: n(s), target: n(t), hops: h }, 1)
            };
            let mut cache: ProcessorCache = Box::new(NullCache::new());
            let (_, asks) = run_staged_asks(&tier, &mut cache, query);
            let bound = if h == 0 || s == t { 0 } else { label_asks * (h - 1).max(1) as usize };
            proptest::prop_assert!(asks.len() <= bound, "{:?} asked {:?}", query, asks);
            let mut asked = NodeSet::default();
            for &v in asks.iter().flatten() {
                proptest::prop_assert!(asked.insert(v), "{:?} asked {} twice: {:?}", query, v, asks);
            }
        }

        /// Over a cache that holds nothing, aggregation asks for the root
        /// alone and then for one whole level per ask: at most `h + 1`
        /// asks, no node asked for twice, and the records it reads are
        /// exactly the stored nodes within `h` hops, the root included.
        #[test]
        fn prop_aggregation_asks_stay_within_the_level_bound(
            edges in proptest::collection::vec((0u32..16, 0u32..16), 1..60),
            mask in 0u32..1 << 16,
            src in 0u32..18,
            h in 0u32..5,
            label in proptest::option::of(0u16..2),
        ) {
            let g = two_label_graph(&edges, mask);
            let tier = setup(&g);
            let label = label.map(NodeLabelId::new);
            let query = Query::NeighborAggregation { node: n(src), hops: h, label };
            let mut cache: ProcessorCache = Box::new(NullCache::new());
            let (out, asks) = run_staged_asks(&tier, &mut cache, query);
            proptest::prop_assert!(asks.len() <= h as usize + 1, "{:?} asked {:?}", query, asks);
            let mut asked = NodeSet::default();
            for &v in asks.iter().flatten() {
                proptest::prop_assert!(asked.insert(v), "{:?} asked {} twice: {:?}", query, v, asks);
            }
            let within: NodeSet = if g.contains(n(src)) {
                let mut ball = h_hop_neighborhood(&g, n(src), h, Direction::Both);
                ball.push(n(src));
                ball.into_iter().collect()
            } else {
                NodeSet::default()
            };
            proptest::prop_assert_eq!(out.stats.accesses(), within.len() as u64, "{:?}", query);
            asked.retain(|&v| g.contains(v));
            proptest::prop_assert_eq!(asked, within, "{:?}", query);
        }

        /// Over a cache that holds nothing, a walk asks for one node per
        /// step it takes and nothing for a step that restarts: at most
        /// `steps` asks of one node each, exactly `steps` when it never
        /// restarts from a stored node, and none when it always restarts.
        #[test]
        fn prop_walk_asks_stay_within_the_step_bound(
            edges in proptest::collection::vec((0u32..16, 0u32..16), 1..60),
            node in 0u32..18,
            steps in 0u32..12,
            restart in 0usize..3,
            seed in proptest::num::u64::ANY,
        ) {
            let g = two_label_graph(&edges, 0);
            let tier = setup(&g);
            let restart_prob = [0.0, 0.3, 1.0][restart];
            let query = Query::RandomWalk { node: n(node), steps, restart_prob, seed };
            let mut cache: ProcessorCache = Box::new(NullCache::new());
            let (out, asks) = run_staged_asks(&tier, &mut cache, query);
            proptest::prop_assert!(asks.len() <= steps as usize, "{:?} asked {:?}", query, asks);
            proptest::prop_assert!(asks.iter().all(|ask| ask.len() == 1), "{:?} asked {:?}", query, asks);
            if restart_prob == 1.0 {
                proptest::prop_assert!(asks.is_empty(), "{:?} asked {:?}", query, asks);
            }
            if restart_prob == 0.0 && g.contains(n(node)) {
                proptest::prop_assert_eq!(asks.len(), steps as usize, "{:?}", query);
                proptest::prop_assert_eq!(out.stats.accesses(), u64::from(steps), "{:?}", query);
            }
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
