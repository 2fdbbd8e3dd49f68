//! Cross-query fetch overlap, decided without I/O: the half of a
//! processor's core that runs its queries.
//!
//! A processor's storage pipe idles whenever it computes. [`QueryPipeline`]
//! keeps up to `overlap` dispatched queries in flight as [`StagedQuery`]
//! state machines over ONE cache and ONE storage seam, so while query A's
//! fetch travels, query B computes, and B's next fetch goes on the wire
//! before A's reply is awaited. Every query kind stages; a query stopped
//! mid-apply for a re-fetch of an evicted node runs alone until it lands,
//! so no other query's cache operations land inside one query's ask.
//!
//! The pipeline reaches storage and the clock through one [`FetchSeam`]
//! (submit a frontier, poll a fetch, read the clock), which the processor
//! core and `flow`'s blocking source implement over the mux half, and
//! tests over a storage tier, delivering fetches in any order. Each
//! [`QueryPipeline::step`] ends with a [`Wake`]: a round that took input
//! (a dispatch, payloads) or produced output (a submission, a completion)
//! is [`Wake::Now`]; only an [`Wake::Idle`] round changed nothing. Every
//! node core shares [`Wake`], [`Input`] and [`Replies`] with the shell.
//!
//! At `overlap == 1` the pipeline's cache operations are byte-identical
//! to [`grouting_engine::Worker::run`]'s (pinned by `wire_agreement`):
//! both drive the same [`StagedQuery`] cycle. Each staged query owns its
//! [`AccessStats`], so per-query counts sum to the totals; at higher
//! overlap, which of two interleaved queries pays a shared cold record's
//! miss may differ from a serial run.
//!
//! The pipeline keeps a free list of query [`Scratch`]es, at most one per
//! slot: admission lends one to the query, and its completion takes it
//! back. With the completion vector handed back too
//! ([`QueryPipeline::recycle`]), a query whose every access hits runs
//! without allocating.

use std::collections::VecDeque;

use grouting_graph::NodeId;
use grouting_metrics::HeatMap;
use grouting_query::{
    AccessStats, CacheBackedStore, ExecOutcome, ProcessorCache, Query, Scratch, StagedQuery, Step,
};
use grouting_trace::{QueryTrace, TraceLevel};

use crate::error::{WireError, WireResult};
use crate::frame::Frame;
use crate::mux::BatchPayloads;

/// Everything the processor core needs from outside it: the storage wire
/// and the clock.
pub trait FetchSeam {
    /// A submitted fetch, held by its query until the payloads arrive.
    type Fetch;

    /// Puts a frontier's fetch on the wire without waiting for a reply. A
    /// connection that fails meanwhile fails the fetch's collect.
    fn submit_frontier(&mut self, nodes: &[NodeId]) -> Self::Fetch;

    /// Polls a submitted fetch without blocking: its payloads (one per
    /// node, in request order) once all have arrived, `None` before.
    ///
    /// # Errors
    ///
    /// The storage path's failures and protocol violations.
    fn try_collect(&mut self, fetch: &mut Self::Fetch) -> WireResult<Option<BatchPayloads>>;

    /// Nanoseconds on the processor's clock.
    fn clock_ns(&mut self) -> u64;
}

/// What a loop does after its core's round (the processor's, storage's
/// or the router's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// The round took input or produced output: step again at once.
    Now,
    /// The round did nothing and nothing is due (no dispatch arrived, no
    /// fetch it polled had landed): park until a connection has traffic.
    Idle,
    /// The round did nothing, and work falls due at this time on the
    /// loop's clock (a storage response, a processor's next dial).
    IdleUntil(u64),
}

/// What a node core's round takes in.
#[cfg_attr(test, derive(Clone))]
pub(crate) enum Input {
    /// A frame arrived on a connection.
    Frame(u64, Frame),
    /// A connection closed.
    Closed(u64),
    /// The dial asked for under this tag ([`Dials::dial`]) reached its peer
    /// on this connection, or was refused (`None`). Only a processor dials.
    Dialled(u64, Option<u64>),
}

/// Where a reactor-driven core's replies go: the shell's connections.
pub(crate) trait Replies {
    /// Sends one frame on connection `conn`: an error means it is gone. The
    /// reactor stages it for the round's end, and a write that fails then
    /// is an [`Input::Closed`] in the next round.
    fn send(&mut self, conn: u64, frame: &Frame) -> WireResult<()>;

    /// Drops connection `conn`.
    fn close(&mut self, conn: u64);
}

/// What the processor's core asks of its shell beyond [`Replies`].
pub(crate) trait Dials: Replies {
    /// Dials `addr` once; the outcome is a coming [`Input::Dialled`].
    fn dial(&mut self, tag: u64, addr: &str);

    /// Writes what is staged on `conn` now, not when the round ends.
    fn flush(&mut self, conn: u64);
}

/// One finished query, ready to be acknowledged to the router.
pub struct CompletedQuery {
    /// Workload sequence number (from the dispatch).
    pub seq: u64,
    /// Result and per-query access statistics.
    pub outcome: ExecOutcome,
    /// When execution began (admission), on the seam's clock.
    pub started_ns: u64,
    /// When the query finished, on the seam's clock.
    pub completed_ns: u64,
    /// Fetch-wait vs compute split (per level at
    /// [`TraceLevel::Spans`]); `None` when the pipeline isn't tracing.
    pub trace: Option<QueryTrace>,
}

/// An admitted query between its fetches.
struct Running {
    seq: u64,
    staged: StagedQuery,
    started_ns: u64,
    /// When its fetch went on the wire (tracing only; the gap to payload
    /// consumption is the level's fetch wait).
    fetch_started_ns: u64,
    /// Accumulated span block (all zeros while tracing is off).
    trace: QueryTrace,
}

/// What every query's compute shares: heat, the trace level and the
/// processor's running totals.
struct Shared {
    trace: TraceLevel,
    /// Cumulative per-storage-server demand, folded in from each finished
    /// query's miss log: deterministic, whatever observability samples.
    heat: HeatMap,
    /// The completed queries' access statistics, summed.
    totals: AccessStats,
    /// Queries completed.
    completed: u64,
    /// The queries the current round finished.
    done: Vec<CompletedQuery>,
    /// Scratches no query holds. A query takes one at admission (a fresh
    /// one when none is free) and returns it at completion, so there are
    /// never more than `overlap`.
    scratch: Vec<Scratch>,
}

/// The per-processor overlap engine: dispatched queries wait in a FIFO,
/// up to `overlap` of them run as interleaved staged executions. `F` is
/// the [`FetchSeam`]'s fetch handle.
pub struct QueryPipeline<F> {
    overlap: usize,
    queue: VecDeque<(u64, Query)>,
    /// Admitted queries awaiting their fetches, oldest first. A parked
    /// query always holds its fetch.
    parked: VecDeque<(Running, F)>,
    shared: Shared,
    wake: Wake,
    /// What the next round starts from: [`Wake::Now`] once a dispatch was
    /// pushed, since that is input even when no slot is free for it.
    next: Wake,
}

impl<F> QueryPipeline<F> {
    /// A pipeline admitting at most `overlap` (≥ 1) concurrent queries,
    /// with tracing off.
    pub fn new(overlap: usize) -> Self {
        Self {
            overlap: overlap.max(1),
            queue: VecDeque::new(),
            parked: VecDeque::new(),
            shared: Shared {
                trace: TraceLevel::Off,
                heat: HeatMap::new(),
                totals: AccessStats::default(),
                completed: 0,
                done: Vec::new(),
                scratch: Vec::new(),
            },
            wake: Wake::Idle,
            next: Wake::Idle,
        }
    }

    /// Raises the trace level (never lowers it): the first traced dispatch
    /// switches instrumentation on for every query resumed afterwards.
    pub fn set_trace(&mut self, level: TraceLevel) {
        self.shared.trace = self.shared.trace.max(level);
    }

    /// The completed queries' demand misses per storage server.
    pub fn heat(&self) -> &HeatMap {
        &self.shared.heat
    }

    /// The completed queries' access statistics, summed.
    pub fn totals(&self) -> AccessStats {
        self.shared.totals
    }

    /// Queries completed so far.
    pub fn queries_done(&self) -> u64 {
        self.shared.completed
    }

    /// What the last [`QueryPipeline::step`]'s round asks of the loop.
    pub fn wake(&self) -> Wake {
        self.wake
    }

    /// Accepts a dispatched query (admitted into execution by the next
    /// [`QueryPipeline::step`] once a slot frees up).
    pub fn push(&mut self, seq: u64, query: Query) {
        self.queue.push_back((seq, query));
        self.next = Wake::Now;
    }

    /// Queries accepted but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.queue.len() + self.parked.len()
    }

    /// Whether nothing is queued or executing.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.parked.is_empty()
    }

    /// Drives every in-flight query one round: admits queued queries into
    /// free slots, polls each awaited fetch, and resumes the queries whose
    /// payloads arrived, submitting their next fetch. Never blocks.
    /// Returns the queries that finished, and sets [`QueryPipeline::wake`];
    /// [`QueryPipeline::recycle`] takes the vector back.
    ///
    /// # Errors
    ///
    /// Propagates the collects' failures (a death a request cannot
    /// outlive, a refused ladder, protocol violations). A fetched record
    /// that fails to decode is a [`WireError::Protocol`].
    pub fn step<S: FetchSeam<Fetch = F>>(
        &mut self,
        seam: &mut S,
        cache: &mut ProcessorCache,
    ) -> WireResult<Vec<CompletedQuery>> {
        self.shared.done.clear();
        self.wake = std::mem::replace(&mut self.next, Wake::Idle);
        self.admit(seam, cache)?;

        // Poll every awaited fetch, oldest query first; resume those whose
        // payloads have fully arrived. A query stopped mid-ask is the only
        // one polled until it finishes the ask.
        let mut slot = 0;
        while slot < self.parked.len() {
            match self.mid_ask() {
                Some(stopped) if stopped < slot => break,
                Some(stopped) => slot = stopped,
                None => {}
            }
            let (query, fetch) = &mut self.parked[slot];
            let Some(payloads) = seam.try_collect(fetch)? else {
                slot += 1;
                continue;
            };
            self.wake = Wake::Now;
            if let Some(next) = self.shared.advance(query, Some(payloads), seam, cache)? {
                *fetch = next;
                slot += 1;
            } else {
                self.parked.remove(slot);
                // Backfill the freed slot from the queue so the window
                // stays full without waiting for the next step call.
                self.admit(seam, cache)?;
            }
        }
        Ok(std::mem::take(&mut self.shared.done))
    }

    /// Takes back the vector a [`QueryPipeline::step`] returned, emptied,
    /// so the next round's completions reuse its buffer.
    pub fn recycle(&mut self, mut done: Vec<CompletedQuery>) {
        done.clear();
        self.shared.done = done;
    }

    /// The slot of the query stopped partway through applying an ask
    /// ([`StagedQuery::mid_ask`]). Until its re-fetch lands no other query
    /// computes, so no other apply evicts what the rest of its ask planned
    /// as hits: the cache sees the operations it saw when re-fetches
    /// blocked the processor, and re-fetches do not cascade.
    fn mid_ask(&self) -> Option<usize> {
        self.parked.iter().position(|(q, _)| q.staged.mid_ask())
    }

    /// Admits queued queries into free slots, oldest first, while no
    /// query is stopped mid-ask. Each new query computes up to its first
    /// remote fetch, which goes on the wire immediately — the
    /// submit-before-await that keeps the storage pipe full while older
    /// queries compute.
    fn admit<S: FetchSeam<Fetch = F>>(
        &mut self,
        seam: &mut S,
        cache: &mut ProcessorCache,
    ) -> WireResult<()> {
        while self.parked.len() < self.overlap && self.mid_ask().is_none() {
            let Some((seq, query)) = self.queue.pop_front() else {
                break;
            };
            self.wake = Wake::Now;
            let scratch = self.shared.scratch.pop().unwrap_or_default();
            let mut query = Running {
                seq,
                staged: StagedQuery::with_scratch(query, scratch),
                started_ns: seam.clock_ns(),
                fetch_started_ns: 0,
                trace: QueryTrace::default(),
            };
            if let Some(fetch) = self.shared.advance(&mut query, None, seam, cache)? {
                self.parked.push_back((query, fetch));
            }
        }
        Ok(())
    }
}

impl Shared {
    /// Runs `query`'s compute on its fetch's payloads (`None` on
    /// admission, whose compute precedes any fetch), then puts its next
    /// fetch on the wire and returns it — or retires the query into the
    /// round's completions and returns `None`.
    fn advance<S: FetchSeam>(
        &mut self,
        query: &mut Running,
        payloads: Option<BatchPayloads>,
        seam: &mut S,
        cache: &mut ProcessorCache,
    ) -> WireResult<Option<S::Fetch>> {
        let tracing = self.trace.enabled();
        // A fetch wait ends the moment its payloads are consumed; the
        // resume that follows is its compute.
        let fetch_ns = match &payloads {
            Some(_) if tracing => seam.clock_ns().saturating_sub(query.fetch_started_ns),
            _ => 0,
        };
        let resumed_ns = if tracing { seam.clock_ns() } else { 0 };
        let level = payloads.is_some();
        let mut store = CacheBackedStore::new((), cache);
        let step = query.staged.resume(&mut store, payloads);
        if let Some((node, err)) = store.take_corrupt() {
            return Err(WireError::Protocol(format!(
                "storage sent a corrupt record for {node}: {err}"
            )));
        }
        if tracing {
            let compute_ns = seam.clock_ns().saturating_sub(resumed_ns);
            query.trace.compute_ns += compute_ns;
            if level {
                query.trace.fetch_wait_ns += fetch_ns;
                query.trace.levels += 1;
                if self.trace.spans() {
                    query.trace.level_spans.push((fetch_ns, compute_ns));
                }
            }
        }
        let miss = match step {
            Step::Fetch(miss) => miss,
            Step::Done(outcome) => {
                for ev in query.staged.miss_log() {
                    self.heat.record_demand(ev.server as usize, 1);
                }
                self.scratch.push(query.staged.take_scratch());
                self.totals.merge(&outcome.stats);
                self.completed += 1;
                self.done.push(CompletedQuery {
                    seq: query.seq,
                    outcome,
                    started_ns: query.started_ns,
                    completed_ns: seam.clock_ns(),
                    trace: tracing.then(|| std::mem::take(&mut query.trace)),
                });
                return Ok(None);
            }
        };
        let fetch = seam.submit_frontier(&miss);
        query.staged.hand_back(miss);
        if tracing {
            query.fetch_started_ns = seam.clock_ns();
        }
        Ok(Some(fetch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Key, Model};
    use crate::flow::MultiplexedStorageSource;
    use crate::service::{ServiceHandle, StorageOptions, StorageService};
    use crate::transport::{InProcTransport, RetryPolicy, Transport};
    use bytes::Bytes;
    use grouting_cache::LruCache;
    use grouting_engine::Worker;
    use grouting_graph::codec::AdjacencyRecord;
    use grouting_graph::{GraphBuilder, NodeId};
    use grouting_storage::HashPartitioner;
    use grouting_storage::{NetworkModel, StorageTier};
    use std::sync::Arc;
    use std::time::Duration;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn loaded_tier(nodes: u32, servers: usize) -> Arc<StorageTier> {
        let mut b = GraphBuilder::new();
        for i in 0..nodes {
            b.add_edge(n(i), n((i + 1) % nodes));
            b.add_edge(n(i), n((i + 3) % nodes));
            // Two labels, so constrained reachability both passes and
            // prunes intermediates.
            b.set_node_label(n(i), grouting_graph::NodeLabelId::new((i % 2) as u16));
        }
        let g = b.build().unwrap();
        let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(servers))));
        tier.load_graph(&g).unwrap();
        tier
    }

    /// One storage endpoint per tier server on a fresh in-proc fabric,
    /// each charging `net` per fetch.
    fn spawn_storage(
        tier: &Arc<StorageTier>,
        net: NetworkModel,
    ) -> (Arc<dyn Transport>, Vec<ServiceHandle>, Vec<String>) {
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let handles: Vec<_> = (0..tier.server_count())
            .map(|_| {
                let opts = StorageOptions {
                    net,
                    ..StorageOptions::default()
                };
                let addr = transport.any_addr();
                StorageService::spawn_opts(Arc::clone(&transport), &addr, Arc::clone(tier), opts)
                    .unwrap()
            })
            .collect();
        let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
        (transport, handles, addrs)
    }

    fn queries(nodes: u32, count: u32) -> Vec<Query> {
        (0..count)
            .map(|i| match i % 4 {
                0 => Query::NeighborAggregation {
                    node: n((i * 7) % nodes),
                    hops: 2,
                    label: None,
                },
                1 => Query::Reachability {
                    source: n((i * 11) % nodes),
                    target: n((i * 3) % nodes),
                    hops: 4,
                },
                2 => Query::ConstrainedReachability {
                    source: n((i * 13) % nodes),
                    target: n((i * 5) % nodes),
                    hops: 5,
                    via_label: grouting_graph::NodeLabelId::new((i / 4 % 2) as u16),
                },
                _ => Query::RandomWalk {
                    node: n((i * 5) % nodes),
                    steps: 6,
                    restart_prob: 0.2,
                    seed: u64::from(i),
                },
            })
            .collect()
    }

    /// Runs `queries` through a pipeline at `overlap` against wire-backed
    /// storage, returning (seq → outcome) in completion order and the
    /// pipeline's heat map.
    fn run_pipeline(overlap: usize, queries: &[Query]) -> (Vec<(u64, ExecOutcome)>, HeatMap) {
        let tier = loaded_tier(48, 3);
        let (transport, handles, addrs) = spawn_storage(&tier, NetworkModel::local());
        let mut source = MultiplexedStorageSource::new(transport, &addrs, tier.partitioner());
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut pipeline = QueryPipeline::new(overlap);
        for (seq, q) in queries.iter().enumerate() {
            pipeline.push(seq as u64, *q);
        }
        let mut out = Vec::new();
        while !pipeline.is_idle() {
            for c in pipeline.step(&mut source, &mut cache).unwrap() {
                assert!(c.completed_ns >= c.started_ns);
                assert!(c.trace.is_none(), "untraced pipeline produced a trace");
                out.push((c.seq, c.outcome));
            }
            std::thread::yield_now();
        }
        let heat = pipeline.heat().clone();
        drop(source);
        for h in handles {
            h.shutdown();
        }
        (out, heat)
    }

    /// The serial reference: the same queries through an engine worker
    /// whose source is the tier itself.
    fn run_serial(queries: &[Query]) -> Vec<ExecOutcome> {
        let tier = loaded_tier(48, 3);
        let cache = Box::new(LruCache::new(1 << 20));
        let mut worker = Worker::from_parts(Box::new(Arc::clone(&tier)), cache);
        queries.iter().map(|q| worker.run(q).0).collect()
    }

    #[test]
    fn overlap1_is_byte_identical_to_the_serial_worker() {
        let q = queries(48, 24);
        let serial = run_serial(&q);
        let (piped, _) = run_pipeline(1, &q);
        assert_eq!(piped.len(), q.len());
        for (i, (seq, outcome)) in piped.iter().enumerate() {
            // overlap=1 completes strictly in dispatch order.
            assert_eq!(*seq as usize, i);
            assert_eq!(outcome.result, serial[i].result, "seq {seq}");
            assert_eq!(outcome.stats, serial[i].stats, "seq {seq}");
        }
    }

    #[test]
    fn overlap2_answers_identically_and_conserves_totals() {
        let q = queries(48, 30);
        let serial = run_serial(&q);
        let (piped, _) = run_pipeline(2, &q);
        assert_eq!(piped.len(), q.len());
        let mut by_seq: Vec<Option<&ExecOutcome>> = vec![None; q.len()];
        for (seq, outcome) in &piped {
            assert!(by_seq[*seq as usize].is_none(), "duplicate completion");
            by_seq[*seq as usize] = Some(outcome);
        }
        let mut piped_accesses = 0u64;
        let mut serial_accesses = 0u64;
        for (i, slot) in by_seq.iter().enumerate() {
            let outcome = slot.expect("every query completes");
            assert_eq!(outcome.result, serial[i].result, "seq {i}");
            piped_accesses += outcome.stats.accesses();
            serial_accesses += serial[i].stats.accesses();
        }
        // Interleaving may shift which query pays a miss, but the total
        // number of record accesses is workload-determined.
        assert_eq!(piped_accesses, serial_accesses);
    }

    /// Where a fetch held by the fake seam stands.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Fate {
        Travelling,
        Delivered,
        /// Delivered with its first record's bytes truncated.
        Corrupt,
        /// Its connection died past recovery: every poll is an error.
        Failed,
        Collected,
    }

    /// What the pipeline did through the fake seam, in order.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        Submit(usize),
        Collect(usize),
        Clock,
    }

    /// A storage seam over a tier whose fetches land only when the test
    /// says so, with a counter for a clock.
    #[derive(Clone)]
    struct FakeSeam {
        /// Every node of the ring's stored payload, by id.
        stored: Arc<[Option<(u16, Bytes)>]>,
        /// Every submitted fetch, by id: its nodes and its fate.
        fetches: Vec<(Vec<NodeId>, Fate)>,
        log: Vec<Event>,
        clock: u64,
    }

    impl FakeSeam {
        fn new(tier: &StorageTier) -> Self {
            let ring: Vec<NodeId> = (0..48).map(n).collect();
            let stored = tier.get_many(&ring).into_iter();
            Self {
                stored: stored
                    .map(|p| p.map(|(s, bytes)| (s as u16, bytes)))
                    .collect(),
                fetches: Vec::new(),
                log: Vec::new(),
                clock: 0,
            }
        }

        fn fate(&self, fetch: usize) -> Fate {
            self.fetches[fetch].1
        }

        /// Lands a travelling fetch as `fate`.
        fn land(&mut self, fetch: usize, fate: Fate) {
            assert_eq!(self.fate(fetch), Fate::Travelling, "fetch {fetch}");
            self.fetches[fetch].1 = fate;
        }

        fn travelling(&self) -> Vec<usize> {
            (0..self.fetches.len())
                .filter(|&f| self.fate(f) == Fate::Travelling)
                .collect()
        }
    }

    impl FetchSeam for FakeSeam {
        type Fetch = usize;

        fn submit_frontier(&mut self, nodes: &[NodeId]) -> usize {
            self.log.push(Event::Submit(self.fetches.len()));
            self.fetches.push((nodes.to_vec(), Fate::Travelling));
            self.fetches.len() - 1
        }

        fn try_collect(&mut self, fetch: &mut usize) -> WireResult<Option<BatchPayloads>> {
            let (nodes, fate) = &mut self.fetches[*fetch];
            let corrupt = match *fate {
                Fate::Travelling => return Ok(None),
                Fate::Failed => return Err(WireError::Closed),
                Fate::Collected => panic!("fetch {fetch} collected twice"),
                Fate::Delivered => false,
                Fate::Corrupt => true,
            };
            *fate = Fate::Collected;
            self.log.push(Event::Collect(*fetch));
            let mut payloads: BatchPayloads = nodes
                .iter()
                .map(|v| self.stored[v.index()].clone())
                .collect();
            if corrupt {
                // Truncated varints: no record decodes from these bytes.
                let stored = payloads.iter_mut().flatten().next();
                stored.expect("a stored node").1 = Bytes::from(vec![0xff; 3]);
            }
            Ok(Some(payloads))
        }

        fn clock_ns(&mut self) -> u64 {
            self.log.push(Event::Clock);
            self.clock += 1;
            self.clock
        }
    }

    /// An LRU holding `records` of the ring's (equally sized) records.
    fn lru_of(tier: &StorageTier, records: usize) -> ProcessorCache {
        let (_, record) = tier.get(n(0)).unwrap();
        let size = AdjacencyRecord::decode(record).unwrap().resident_len();
        Box::new(LruCache::new(records * size))
    }

    #[test]
    fn a_query_stopped_mid_ask_runs_alone_until_its_refetch_lands() {
        let tier = loaded_tier(48, 3);
        let mut seam = FakeSeam::new(&tier);
        let mut cache = lru_of(&tier, 2);
        let mut pipeline = QueryPipeline::new(2);
        let mut step = |pipeline: &mut QueryPipeline<usize>, seam: &mut FakeSeam| {
            pipeline.step(seam, &mut cache).unwrap()
        };
        // A one-step walk leaves node 9 cached. Node 10's root joins it,
        // and its first level asks for 11, 13, 7 (misses) and 9 (a
        // planned hit) — which the inserts of 11 and 13 evict.
        let walk = Query::RandomWalk {
            node: n(9),
            steps: 1,
            restart_prob: 0.0,
            seed: 0,
        };
        pipeline.push(0, walk);
        while !pipeline.is_idle() {
            seam.travelling()
                .into_iter()
                .for_each(|f| seam.land(f, Fate::Delivered));
            step(&mut pipeline, &mut seam);
        }
        pipeline.push(
            1,
            Query::NeighborAggregation {
                node: n(10),
                hops: 2,
                label: None,
            },
        );
        while pipeline.mid_ask().is_none() {
            seam.travelling()
                .into_iter()
                .for_each(|f| seam.land(f, Fate::Delivered));
            assert!(
                step(&mut pipeline, &mut seam).is_empty(),
                "the aggregation must stop mid-ask"
            );
        }
        let refetch = pipeline.parked[0].1;
        assert_eq!(seam.travelling(), [refetch]);
        pipeline.push(
            2,
            Query::NeighborAggregation {
                node: n(30),
                hops: 1,
                label: None,
            },
        );
        // However often it steps, the slot stays free until the refetch
        // lands, and the waiting rounds are idle.
        for round in 0..3 {
            step(&mut pipeline, &mut seam);
            assert_eq!(
                pipeline.queue.len(),
                1,
                "admitted while a query was mid-ask"
            );
            let wake = if round == 0 { Wake::Now } else { Wake::Idle };
            assert_eq!(pipeline.wake(), wake, "round {round}");
        }
        seam.land(refetch, Fate::Delivered);
        step(&mut pipeline, &mut seam);
        assert_eq!(seam.fate(refetch), Fate::Collected);
        assert_eq!(pipeline.wake(), Wake::Now);
        let mut done = Vec::new();
        while !pipeline.is_idle() {
            seam.travelling()
                .into_iter()
                .for_each(|f| seam.land(f, Fate::Delivered));
            done.extend(step(&mut pipeline, &mut seam).into_iter().map(|c| c.seq));
        }
        done.sort_unstable();
        assert_eq!(done, [1, 2]);
    }

    #[test]
    fn overlap4_handles_more_queries_than_slots() {
        let q = queries(48, 9);
        let (piped, _) = run_pipeline(4, &q);
        assert_eq!(piped.len(), q.len());
    }

    #[test]
    fn zero_overlap_is_clamped_to_serial() {
        assert_eq!(QueryPipeline::<()>::new(0).overlap, 1);
    }

    #[test]
    fn traced_spans_fit_inside_the_wall_clock() {
        // At TraceLevel::Spans every completion carries a QueryTrace whose
        // fetch-wait + compute intervals are disjoint sub-spans of the
        // query's execution, so their sum can never exceed the wall time —
        // and the per-level pairs must account exactly for the totals
        // beyond the admission compute.
        let q = queries(48, 16);
        let tier = loaded_tier(48, 3);
        let (transport, handles, addrs) = spawn_storage(&tier, NetworkModel::local());
        let mut source = MultiplexedStorageSource::new(transport, &addrs, tier.partitioner());
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut pipeline = QueryPipeline::new(3);
        pipeline.set_trace(grouting_trace::TraceLevel::Spans);
        for (seq, query) in q.iter().enumerate() {
            pipeline.push(seq as u64, *query);
        }
        let mut done = 0usize;
        let mut crossed_levels = false;
        while !pipeline.is_idle() {
            for c in pipeline.step(&mut source, &mut cache).unwrap() {
                let trace = c.trace.expect("traced pipeline must produce spans");
                let wall = c.completed_ns - c.started_ns;
                assert!(
                    trace.fetch_wait_ns + trace.compute_ns <= wall,
                    "seq {}: fetch {} + compute {} > wall {wall}",
                    c.seq,
                    trace.fetch_wait_ns,
                    trace.compute_ns
                );
                assert_eq!(trace.level_spans.len(), trace.levels as usize);
                let span_fetch: u64 = trace.level_spans.iter().map(|&(f, _)| f).sum();
                assert_eq!(span_fetch, trace.fetch_wait_ns);
                let span_compute: u64 = trace.level_spans.iter().map(|&(_, c)| c).sum();
                assert!(span_compute <= trace.compute_ns);
                crossed_levels |= trace.levels > 0;
                done += 1;
            }
            std::thread::yield_now();
        }
        assert_eq!(done, q.len());
        assert!(crossed_levels, "2-hop queries over the wire must fetch");
        drop(source);
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn a_storage_failure_mid_query_is_an_error_not_a_panic() {
        // Node 7 is two hops from anything node 0's neighbourhood caches,
        // so each query's first record misses after storage is gone.
        for query in [
            Query::RandomWalk {
                node: n(7),
                steps: 4,
                restart_prob: 0.0,
                seed: 1,
            },
            Query::Reachability {
                source: n(7),
                target: n(20),
                hops: 4,
            },
        ] {
            let tier = loaded_tier(48, 1);
            let (transport, handles, addrs) = spawn_storage(&tier, NetworkModel::local());
            let mut source = MultiplexedStorageSource::new(transport, &addrs, tier.partitioner())
                .with_replication(1)
                .with_retry(RetryPolicy::new(1, Duration::from_millis(1)));
            let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
            let mut pipeline = QueryPipeline::new(1);
            // The first exchange: node 0's one-hop neighbourhood.
            pipeline.push(
                0,
                Query::NeighborAggregation {
                    node: n(0),
                    hops: 1,
                    label: None,
                },
            );
            while !pipeline.is_idle() {
                pipeline.step(&mut source, &mut cache).unwrap();
                std::thread::yield_now();
            }
            for h in handles {
                h.shutdown();
            }
            pipeline.push(1, query);
            // Runs until `step` returns the storage failure as an error.
            while let Ok(done) = pipeline.step(&mut source, &mut cache) {
                assert!(done.is_empty(), "{query:?} finished without storage");
                std::thread::yield_now();
            }
        }
    }

    #[test]
    fn a_corrupt_record_from_storage_is_a_protocol_error_not_a_panic() {
        let tier = loaded_tier(48, 3);
        // Truncated varints: no record decodes from these bytes.
        let server = tier.partitioner().assign(n(7));
        tier.server(server).put(7, &[0xff; 3]).unwrap();
        let (transport, handles, addrs) = spawn_storage(&tier, NetworkModel::local());
        let mut source = MultiplexedStorageSource::new(transport, &addrs, tier.partitioner());
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut pipeline = QueryPipeline::new(2);
        pipeline.push(
            0,
            Query::NeighborAggregation {
                node: n(7),
                hops: 2,
                label: None,
            },
        );
        let err = loop {
            match pipeline.step(&mut source, &mut cache) {
                Ok(done) => assert!(done.is_empty(), "answered from a corrupt record"),
                Err(err) => break err,
            }
            std::thread::yield_now();
        };
        assert!(
            matches!(&err, WireError::Protocol(m) if m.contains("n7")),
            "{err}"
        );
        drop(source);
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn a_walks_round_trips_are_booked_as_fetch_wait() {
        let tier = loaded_tier(48, 1);
        let net = NetworkModel {
            rtt_ns: 200_000,
            gbps: 10.0,
        };
        let (transport, handles, addrs) = spawn_storage(&tier, net);
        let mut source = MultiplexedStorageSource::new(transport, &addrs, tier.partitioner());
        let mut cache: ProcessorCache = Box::new(LruCache::new(1 << 20));
        let mut pipeline = QueryPipeline::new(1);
        pipeline.set_trace(TraceLevel::Stats);
        pipeline.push(
            0,
            Query::RandomWalk {
                node: n(0),
                steps: 6,
                restart_prob: 0.0,
                seed: 3,
            },
        );
        let mut done = Vec::new();
        while !pipeline.is_idle() {
            done.extend(pipeline.step(&mut source, &mut cache).unwrap());
            std::thread::yield_now();
        }
        let trace = done
            .pop()
            .and_then(|c| c.trace)
            .expect("a traced completion");
        assert!(trace.levels >= 1, "{trace:?}");
        assert!(trace.fetch_wait_ns >= 200_000, "{trace:?}");
        assert!(trace.compute_ns < trace.fetch_wait_ns, "{trace:?}");
        drop(source);
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn pipeline_heat_tracks_demand_misses_per_server() {
        let q = queries(48, 24);
        let serial = run_serial(&q);
        let (_, heat) = run_pipeline(2, &q);
        let serial_misses: u64 = serial.iter().map(|o| o.stats.cache_misses).sum();
        assert_eq!(heat.total_demand(), serial_misses);
        assert!(heat.len() <= 3, "only three storage servers exist");
    }

    /// A step in an explored schedule.
    #[derive(Debug, Clone, Copy)]
    enum Action {
        /// The next query is dispatched.
        Push,
        Step,
        /// A travelling fetch lands whole, corrupt, or never (failed).
        Land(usize, Fate),
    }

    /// What an explorer run covers: the queries in dispatch order, the
    /// overlap, the cache, and each query's serial outcome; and how many
    /// schedules it found finished, stopped mid-ask and failed.
    struct Scope {
        queries: Vec<Query>,
        overlap: usize,
        records: usize,
        tier: Arc<StorageTier>,
        serial: Vec<ExecOutcome>,
        /// The seam every replay starts from.
        seam: FakeSeam,
        reached: [usize; 3],
    }

    impl Scope {
        fn new(queries: Vec<Query>, overlap: usize, records: usize) -> Self {
            let tier = loaded_tier(48, 3);
            let mut cache = lru_of(&tier, records);
            let mut executor = grouting_query::Executor::new(&*tier, &mut cache);
            let serial = queries.iter().map(|q| executor.run(q)).collect();
            Self {
                queries,
                overlap,
                records,
                seam: FakeSeam::new(&tier),
                tier,
                serial,
                reached: [0; 3],
            }
        }
    }

    /// A schedule replayed from the root: the pipeline, its cache and
    /// seam, and the explorer's own account of what must have happened.
    struct Run {
        pipeline: QueryPipeline<usize>,
        cache: ProcessorCache,
        seam: FakeSeam,
        pushed: usize,
        /// Pushes since the last step: the next round's input.
        fresh: usize,
        /// Each query's outcome, once it completed.
        done: Vec<Option<ExecOutcome>>,
        /// The query that submitted each fetch.
        owner: Vec<u64>,
        /// The fetch that may land corrupt or fail, once chosen.
        fault: Option<usize>,
        /// The refetch of the query stopped mid-ask, after the last round.
        alone: Option<usize>,
        /// A step returned an error: the processor is gone.
        failed: bool,
        /// What decided the pipeline's state: the pushes, and each
        /// non-idle round's seam events.
        history: Vec<u64>,
        /// The schedule replayed.
        path: Vec<Action>,
    }

    impl Run {
        fn replay(scope: &Scope, path: &[Action]) -> Self {
            let mut run = Run {
                pipeline: QueryPipeline::new(scope.overlap),
                cache: lru_of(&scope.tier, scope.records),
                seam: scope.seam.clone(),
                pushed: 0,
                fresh: 0,
                done: vec![None; scope.queries.len()],
                owner: Vec::new(),
                fault: None,
                alone: None,
                failed: false,
                history: Vec::new(),
                path: Vec::new(),
            };
            for &action in path {
                run.apply(action, scope);
            }
            run
        }

        /// A hash of the state: the history decides the pipeline, and the
        /// fates the seam.
        fn key(&self) -> u128 {
            let mut h = Key::default();
            self.history.iter().for_each(|&w| h.put(w));
            self.seam
                .fetches
                .iter()
                .for_each(|&(_, fate)| h.put(fate as u64));
            h.put(self.fault.map_or(!0, |f| f as u64));
            h.put(u64::from(self.failed));
            h.finish()
        }

        /// Everything a round may change, for the idle check.
        fn snapshot(&self) -> impl PartialEq + std::fmt::Debug {
            let p = &self.pipeline;
            let parked: Vec<_> = p.parked.iter().map(|(q, f)| (q.seq, *f)).collect();
            let cache = (self.cache.len(), self.cache.bytes());
            let tallies = (p.queries_done(), p.totals(), p.heat().clone());
            (
                p.queue.len(),
                parked,
                p.mid_ask(),
                tallies,
                cache,
                self.seam.log.len(),
            )
        }

        fn apply(&mut self, action: Action, scope: &Scope) {
            self.path.push(action);
            match action {
                Action::Push => {
                    let seq = self.pushed;
                    self.pipeline.push(seq as u64, scope.queries[seq]);
                    self.pushed += 1;
                    self.fresh += 1;
                    self.history.push(u64::MAX);
                }
                Action::Land(fetch, fate) => {
                    if fate != Fate::Delivered {
                        self.fault = Some(fetch);
                    }
                    self.seam.land(fetch, fate);
                }
                Action::Step => self.step(scope),
            }
        }

        /// One round, and every invariant it must keep.
        fn step(&mut self, scope: &Scope) {
            let before = self.snapshot();
            let held_back = self.pipeline.mid_ask().is_some();
            let logged = self.seam.log.len();
            let result = self.pipeline.step(&mut self.seam, &mut self.cache);
            let events = self.seam.log[logged..].to_vec();
            let collected: Vec<usize> = events
                .iter()
                .filter_map(|e| match e {
                    Event::Collect(f) => Some(*f),
                    _ => None,
                })
                .collect();
            let faulted = |fate| self.fault.is_some_and(|f| self.seam.fate(f) == fate);
            let done = match result {
                Err(e) => {
                    let cause =
                        faulted(Fate::Failed) || self.fault.is_some_and(|f| collected.contains(&f));
                    assert!(cause, "a step failed with no fault to blame: {e}");
                    self.failed = true;
                    return;
                }
                Ok(done) => done,
            };
            // Each query completes once, with its serial answer (and, at
            // overlap 1, its serial statistics). A corrupt record that a
            // round collected without failing was never decoded: another
            // query had cached its node meanwhile, so the answer stands.
            for c in &done {
                let seq = c.seq as usize;
                assert!(
                    seq < self.pushed,
                    "query {seq} completed before its dispatch"
                );
                assert!(self.done[seq].is_none(), "query {seq} completed twice");
                let serial = scope.serial[seq];
                assert_eq!(c.outcome.result, serial.result, "query {seq}'s answer");
                if scope.overlap == 1 {
                    assert_eq!(c.outcome.stats, serial.stats, "query {seq}'s statistics");
                }
                self.done[seq] = Some(c.outcome);
            }
            let mut totals = AccessStats::default();
            let finished = self
                .done
                .iter()
                .flatten()
                .inspect(|o| totals.merge(&o.stats));
            assert_eq!(finished.count() as u64, self.pipeline.queries_done());
            assert_eq!(self.pipeline.totals(), totals, "the totals");
            // The progress rule.
            let took_input = self.fresh > 0 || !collected.is_empty();
            let gave_output =
                !done.is_empty() || events.iter().any(|e| matches!(e, Event::Submit(_)));
            let wake = if took_input || gave_output {
                Wake::Now
            } else {
                Wake::Idle
            };
            assert_eq!(self.pipeline.wake(), wake, "the round's wake");
            self.fresh = 0;
            if wake == Wake::Idle {
                assert_eq!(
                    self.snapshot(),
                    before,
                    "an idle round changed the pipeline"
                );
                let waiting = self
                    .pipeline
                    .parked
                    .iter()
                    .any(|(_, f)| self.seam.fate(*f) == Fate::Travelling);
                assert!(
                    self.pipeline.is_idle() || waiting,
                    "wedged with nothing travelling"
                );
                return;
            }
            // Ready queries resume oldest first.
            for pair in collected.windows(2) {
                let (a, b) = (self.owner[pair[0]], self.owner[pair[1]]);
                assert!(a < b, "query {b} resumed after the younger {a}");
            }
            self.owner.resize(self.seam.fetches.len(), u64::MAX);
            for (q, f) in &self.pipeline.parked {
                self.owner[*f] = q.seq;
            }
            // A query stopped mid-ask runs alone: the seam sees nothing
            // between its refetch's submission and its collection.
            if let (Some(r), Some(first)) = (self.alone, events.first()) {
                assert_eq!(
                    *first,
                    Event::Collect(r),
                    "another query ran while {r} was refetched"
                );
            }
            self.alone = self
                .pipeline
                .parked
                .iter()
                .find(|(q, _)| q.staged.mid_ask())
                .map(|&(_, f)| f);
            if let Some(r) = self.alone.filter(|r| events.contains(&Event::Submit(*r))) {
                assert_eq!(
                    events.last(),
                    Some(&Event::Submit(r)),
                    "another query ran after {r}'s refetch"
                );
            }
            // Admission keeps the window full. Only a round that began
            // with a query stopped mid-ask may end with a slot free and a
            // query waiting: its admission was held back, and the next
            // round's makes up for it.
            let p = &self.pipeline;
            if p.mid_ask().is_none() && !p.queue.is_empty() && p.parked.len() < scope.overlap {
                assert!(held_back, "a slot left free with a query waiting");
            }
            self.history.extend(events.iter().map(|e| match *e {
                Event::Submit(f) => (f as u64) << 2,
                Event::Collect(f) => (f as u64) << 2 | 1,
                Event::Clock => 2,
            }));
            self.history.push(u64::MAX - 1);
        }
    }

    /// Every schedule of the scope's dispatches, deliveries and rounds,
    /// with one fetch per schedule landing corrupt or failing.
    impl Model for Scope {
        type State = Run;
        type Action = Action;

        /// What may happen next, and a round, which always may.
        fn actions(&self, run: &Run) -> (Vec<Action>, Vec<Action>) {
            let mut work = Vec::new();
            if run.pushed < self.queries.len() {
                work.push(Action::Push);
            }
            for f in run.seam.travelling() {
                work.push(Action::Land(f, Fate::Delivered));
                if run.fault.is_none() {
                    work.extend([Fate::Corrupt, Fate::Failed].map(|to| Action::Land(f, to)));
                }
            }
            work.push(Action::Step);
            (if run.failed { Vec::new() } else { work }, Vec::new())
        }

        /// A pipeline cannot be copied: each successor is replayed from
        /// the root. An idle round changes nothing.
        fn apply(&self, run: &Run, action: Action) -> Option<Run> {
            let mut next = Run::replay(self, &run.path);
            next.apply(action, self);
            (next.key() != run.key()).then_some(next)
        }

        fn key(&self, run: &Run) -> u128 {
            run.key()
        }

        fn check(&mut self, run: &mut Run) {
            self.reached[1] += usize::from(!run.failed && run.alone.is_some());
            self.reached[2] += usize::from(run.failed);
        }

        fn terminal(&mut self, run: &Run) {
            if !run.failed {
                assert!(run.pushed == self.queries.len() && run.pipeline.is_idle());
                let all = run.done.iter().all(Option::is_some);
                assert!(all, "a query never completed");
                self.reached[0] += 1;
            }
        }
    }

    /// Explores every schedule of `scope`, and asserts that some finish,
    /// some stop mid-ask and some fail.
    fn explore_pipeline(mut scope: Scope, floor: usize) {
        let root = Run::replay(&scope, &[]);
        let name = format!("overlap {}, {} queries", scope.overlap, scope.queries.len());
        explore(&mut scope, root, &name, floor);
        assert!(scope.reached.iter().all(|&n| n > 0), "{:?}", scope.reached);
    }

    /// A walk that leaves its start cached, an aggregation whose second
    /// level stops mid-ask when the LRU of two evicts a planned hit, and a
    /// reachability search that takes two asks: 21 is three hops from 12,
    /// so the endpoints' ask does not meet, and the source's level does.
    fn explored_queries() -> Vec<Query> {
        vec![
            Query::RandomWalk {
                node: n(9),
                steps: 1,
                restart_prob: 0.0,
                seed: 0,
            },
            Query::NeighborAggregation {
                node: n(10),
                hops: 2,
                label: None,
            },
            Query::Reachability {
                source: n(12),
                target: n(21),
                hops: 4,
            },
        ]
    }

    #[test]
    fn explore_overlap_1() {
        explore_pipeline(Scope::new(explored_queries(), 1, 2), 1_280);
    }

    #[test]
    fn explore_overlap_2() {
        explore_pipeline(Scope::new(explored_queries(), 2, 2), 18_500);
    }
}
