//! Cross-query fetch overlap: a small in-flight window per processor.
//!
//! With frontier batching (PR 3) a processor's storage pipe is busy only
//! while a query is *fetching*; the pipe idles whenever the processor is
//! computing. [`QueryPipeline`] closes that gap: it keeps up to
//! `overlap` dispatched queries in flight as [`StagedQuery`] state
//! machines over ONE cache and ONE [`MultiplexedStorageSource`], so while
//! query A's fetch travels, query B's compute stage runs — and B's next
//! fetch goes on the wire before A's reply is awaited (double-buffered
//! frontiers). Every query kind stages: an aggregation level, a walk step,
//! a reachability expansion, a meeting node's label read and a re-fetch
//! of a node evicted mid-apply are each one submitted fetch. A query
//! stopped mid-apply for such a re-fetch runs alone until it lands, as it
//! did when the re-fetch blocked, so no other query's cache operations
//! land inside one query's ask.
//!
//! At `overlap == 1` the pipeline degenerates to strictly serial
//! execution whose cache operation sequence is byte-identical to
//! [`grouting_engine::Worker::run`] — the agreement contract pinned by
//! `wire_agreement` — because both drive the same [`StagedQuery`]
//! plan/fetch/apply cycle.
//!
//! Attribution under interleaving: each staged query owns its
//! [`grouting_query::AccessStats`] (swapped into the transient store per
//! step), so per-query hit/miss counts sum to the true totals even though
//! the queries share a cache. The *split* between two interleaved queries
//! touching the same cold record may differ from a serial run (whoever
//! applies first takes the miss), which is why strict stat agreement is
//! only promised at `overlap == 1`.

use std::collections::VecDeque;

use grouting_graph::NodeId;
use grouting_metrics::HeatMap;
use grouting_query::{
    CacheBackedStore, ExecOutcome, PrefetchConfig, PrefetchState, PrefetchStats, ProcessorCache,
    Query, StagedQuery, Step,
};
use grouting_trace::{QueryTrace, TraceLevel};

use crate::error::{WireError, WireResult};
use crate::flow::{BatchPayloads, MultiplexedStorageSource, PendingBatch};
use crate::service::now_ns;

/// One finished query, ready to be acknowledged to the router.
pub struct CompletedQuery {
    /// Workload sequence number (from the dispatch).
    pub seq: u64,
    /// Result and per-query access statistics.
    pub outcome: ExecOutcome,
    /// When execution began (first resume), [`now_ns`] clock.
    pub started_ns: u64,
    /// When the query finished, [`now_ns`] clock.
    pub completed_ns: u64,
    /// Fetch-wait vs compute split (per level at
    /// [`TraceLevel::Spans`]); `None` when the pipeline isn't tracing.
    pub trace: Option<QueryTrace>,
}

struct ActiveQuery {
    seq: u64,
    staged: StagedQuery,
    /// The in-flight frontier fetch, `None` only transiently (a query is
    /// parked here exactly when it awaits payloads). Covers the demand
    /// miss set *plus* any speculative tail.
    pending: Option<PendingBatch>,
    /// The demand miss set `pending` answers first (its payloads lead;
    /// the rest are speculative and go to the staging buffer). Also
    /// registered with the prefetch state so other queries' predictions
    /// don't re-request bytes already travelling.
    demand: Vec<NodeId>,
    /// The speculative nodes riding on `pending`, in request order.
    spec: Vec<NodeId>,
    started_ns: u64,
    /// When the in-flight frontier went on the wire (tracing only; the
    /// gap to payload consumption is the level's fetch wait).
    fetch_started_ns: u64,
    /// Accumulated span block (all zeros while tracing is off).
    trace: QueryTrace,
}

/// The per-processor overlap engine: dispatched queries wait in a FIFO,
/// up to `overlap` of them run as interleaved staged executions.
///
/// With prefetching configured ([`QueryPipeline::with_prefetch`]), every
/// frontier batch going out piggybacks the configured predictor's
/// speculative nodes; their payloads land in a processor-wide staging
/// buffer that later frontiers (of *any* query in the pipeline) are
/// served from without a wire exchange. Demand-side accounting is
/// byte-identical with speculation on or off.
pub struct QueryPipeline {
    overlap: usize,
    queue: VecDeque<(u64, Query)>,
    active: VecDeque<ActiveQuery>,
    prefetch: PrefetchState,
    trace: TraceLevel,
    /// Cumulative per-storage-server workload heat: demand counts fold in
    /// as queries complete (from their miss logs), speculative counts as
    /// prefetched payloads arrive. Deterministic integer tallies, counted
    /// unconditionally — observability sampling never changes them.
    heat: HeatMap,
    /// Whether the last [`QueryPipeline::step`] consumed any fetch's
    /// payloads.
    consumed: bool,
}

impl QueryPipeline {
    /// A pipeline admitting at most `overlap` (≥ 1) concurrent queries,
    /// with speculation off and tracing off.
    pub fn new(overlap: usize) -> Self {
        Self {
            overlap: overlap.max(1),
            queue: VecDeque::new(),
            active: VecDeque::new(),
            prefetch: PrefetchState::new(PrefetchConfig::OFF),
            trace: TraceLevel::Off,
            heat: HeatMap::new(),
            consumed: false,
        }
    }

    /// Raises the pipeline's trace level (never lowers it). The processor
    /// calls this with the level its dispatch frames carry, so the first
    /// traced dispatch switches instrumentation on for every query that
    /// resumes afterwards.
    pub fn set_trace(&mut self, level: TraceLevel) {
        self.trace = self.trace.max(level);
    }

    /// Equips the pipeline with speculative frontier prefetching per
    /// `config` ([`PrefetchConfig::OFF`] keeps it inert).
    #[must_use]
    pub fn with_prefetch(mut self, config: PrefetchConfig) -> Self {
        self.prefetch = PrefetchState::new(config);
        self
    }

    /// The cumulative speculative tally (zeros while prefetching is off).
    pub fn prefetch_stats(&self) -> PrefetchStats {
        self.prefetch.stats()
    }

    /// The cumulative per-storage-server heat (demand misses of completed
    /// queries plus speculative payloads staged so far).
    pub fn heat(&self) -> &HeatMap {
        &self.heat
    }

    /// Accepts a dispatched query (admitted into execution by the next
    /// [`QueryPipeline::step`] once a slot frees up).
    pub fn push(&mut self, seq: u64, query: Query) {
        self.queue.push_back((seq, query));
    }

    /// Queries accepted but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.queue.len() + self.active.len()
    }

    /// Whether nothing is queued or executing.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.active.is_empty()
    }

    /// Whether the last [`QueryPipeline::step`] consumed payloads: that
    /// round was progress even if no query finished, so the processor
    /// loop keeps its poller on the hot rung.
    pub(crate) fn consumed_payloads(&self) -> bool {
        self.consumed
    }

    /// Drives every in-flight query one round: admits queued queries into
    /// free slots (running their compute until the first fetch), polls
    /// each awaited fetch, and resumes whichever queries have their
    /// payloads — submitting their next fetch before returning. Never
    /// blocks: no query reads storage inside a resume, so the processor
    /// waits on storage only in its own idle wait. Returns the queries
    /// that finished this round.
    ///
    /// # Errors
    ///
    /// Propagates storage-path failures (dial/submit/poll past the
    /// reconnect budget, protocol violations). A fetched record that fails
    /// to decode is a [`WireError::Protocol`].
    pub fn step(
        &mut self,
        source: &mut MultiplexedStorageSource,
        cache: &mut ProcessorCache,
    ) -> WireResult<Vec<CompletedQuery>> {
        let mut completed = Vec::new();
        self.consumed = false;
        self.admit(source, cache, &mut completed)?;

        // Poll every awaited fetch, oldest query first; resume those whose
        // payloads have fully arrived. A query stopped mid-ask is the only
        // one polled until it finishes the ask.
        let mut slot = 0;
        while slot < self.active.len() {
            match self.mid_ask() {
                Some(stopped) if stopped < slot => break,
                Some(stopped) => slot = stopped,
                None => {}
            }
            let pending = self.active[slot]
                .pending
                .as_mut()
                .expect("parked queries await a fetch");
            let Some(payloads) = source.try_collect(pending)? else {
                slot += 1;
                continue;
            };
            self.consumed = true;
            if self.resume(slot, Some(payloads), source, cache, &mut completed)? {
                slot += 1;
            } else {
                // Backfill the freed slot from the queue so the window
                // stays full without waiting for the next step call.
                self.admit(source, cache, &mut completed)?;
            }
        }
        Ok(completed)
    }

    /// The slot of the query stopped partway through applying an ask
    /// ([`StagedQuery::mid_ask`]). Until its re-fetch lands no other query
    /// computes, so no other apply evicts what the rest of its ask planned
    /// as hits: the cache sees the operations it saw when re-fetches
    /// blocked the processor, and re-fetches do not cascade.
    fn mid_ask(&self) -> Option<usize> {
        self.active.iter().position(|a| a.staged.mid_ask())
    }

    /// Admits queued queries into free slots, oldest first, while no
    /// query is stopped mid-ask. Each new query computes up to its first
    /// remote fetch, which goes on the wire immediately — the
    /// submit-before-await that keeps the storage pipe full while older
    /// queries compute.
    fn admit(
        &mut self,
        source: &mut MultiplexedStorageSource,
        cache: &mut ProcessorCache,
        completed: &mut Vec<CompletedQuery>,
    ) -> WireResult<()> {
        while self.active.len() < self.overlap && self.mid_ask().is_none() {
            let Some((seq, query)) = self.queue.pop_front() else {
                break;
            };
            self.active.push_back(ActiveQuery {
                seq,
                staged: StagedQuery::new(query),
                pending: None,
                demand: Vec::new(),
                spec: Vec::new(),
                started_ns: now_ns(),
                fetch_started_ns: 0,
                trace: QueryTrace::default(),
            });
            self.resume(self.active.len() - 1, None, source, cache, completed)?;
        }
        Ok(())
    }

    /// Resumes the query in `slot` with its fetch's payloads (`None` on
    /// admission, whose compute precedes any fetch), then ships its next
    /// fetch or retires it into `completed`. Returns whether it is still
    /// in flight.
    fn resume(
        &mut self,
        slot: usize,
        mut payloads: Option<BatchPayloads>,
        source: &mut MultiplexedStorageSource,
        cache: &mut ProcessorCache,
        completed: &mut Vec<CompletedQuery>,
    ) -> WireResult<bool> {
        let tracing = self.trace.enabled();
        let active = &mut self.active[slot];
        // A fetch wait ends the moment its payloads are consumed; the
        // resume that follows is its compute.
        let fetch_ns = match &payloads {
            Some(_) if tracing => now_ns().saturating_sub(active.fetch_started_ns),
            _ => 0,
        };
        // The speculative tail goes to the staging buffer; the staged
        // query sees exactly the demand payloads it asked for.
        let mut spec_payloads = Vec::new();
        if let Some(payloads) = &mut payloads {
            spec_payloads = payloads.split_off(active.demand.len());
            for (server, _) in spec_payloads.iter().flatten() {
                self.heat.record_speculative(*server as usize, 1);
            }
            self.prefetch.demand_arrived(&active.demand);
        }
        let resumed_ns = if tracing { now_ns() } else { 0 };
        let level = payloads.is_some();
        let mut store = CacheBackedStore::with_prefetch((), cache, &mut self.prefetch);
        store.absorb_speculative(&std::mem::take(&mut active.spec), spec_payloads);
        let step = active.staged.resume(&mut store, payloads);
        if let Some((node, err)) = store.take_corrupt() {
            return Err(WireError::Protocol(format!(
                "storage sent a corrupt record for {node}: {err}"
            )));
        }
        let spec = match &step {
            Step::Fetch(miss) => store.plan_speculative(active.staged.frontier(), miss),
            Step::Done(_) => Vec::new(),
        };
        if tracing {
            let compute_ns = now_ns().saturating_sub(resumed_ns);
            active.trace.compute_ns += compute_ns;
            if level {
                active.trace.fetch_wait_ns += fetch_ns;
                active.trace.levels += 1;
                if self.trace.spans() {
                    active.trace.level_spans.push((fetch_ns, compute_ns));
                }
            }
        }
        match step {
            Step::Fetch(miss) => {
                self.submit(source, slot, miss, spec)?;
                Ok(true)
            }
            Step::Done(outcome) => {
                let mut finished = self.active.remove(slot).expect("slot in bounds");
                for ev in finished.staged.take_miss_log() {
                    self.heat.record_demand(ev.server as usize, 1);
                }
                completed.push(CompletedQuery {
                    seq: finished.seq,
                    outcome,
                    started_ns: finished.started_ns,
                    completed_ns: now_ns(),
                    trace: tracing.then_some(finished.trace),
                });
                Ok(false)
            }
        }
    }

    /// Ships the demand miss set plus its speculative tail as one frontier
    /// submission and parks it on `self.active[slot]`.
    fn submit(
        &mut self,
        source: &mut MultiplexedStorageSource,
        slot: usize,
        miss: Vec<NodeId>,
        spec: Vec<NodeId>,
    ) -> WireResult<()> {
        let pending = if spec.is_empty() {
            source.submit_frontier(&miss)?
        } else {
            let mut combined = miss.clone();
            combined.extend(&spec);
            source.submit_frontier(&combined)?
        };
        // Other queries' predictions must not re-request these bytes
        // while they travel.
        self.prefetch.demand_submitted(&miss);
        let active = &mut self.active[slot];
        active.pending = Some(pending);
        active.demand = miss;
        active.spec = spec;
        if self.trace.enabled() {
            active.fetch_started_ns = now_ns();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceHandle, StorageOptions, StorageService};
    use crate::transport::{InProcTransport, RetryPolicy, Transport};
    use grouting_cache::LruCache;
    use grouting_engine::Worker;
    use grouting_graph::codec::AdjacencyRecord;
    use grouting_graph::{GraphBuilder, NodeId};
    use grouting_query::PrefetchPolicy;
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
    /// storage, returning (seq → outcome) in completion order.
    fn run_pipeline(overlap: usize, queries: &[Query]) -> Vec<(u64, ExecOutcome)> {
        run_pipeline_with(overlap, queries, PrefetchConfig::OFF, || {
            Box::new(LruCache::new(1 << 20))
        })
        .0
    }

    /// Like [`run_pipeline`], with a prefetch configuration and a custom
    /// cache; also returns the pipeline's speculative tally and heat map.
    fn run_pipeline_with(
        overlap: usize,
        queries: &[Query],
        prefetch: PrefetchConfig,
        make_cache: impl Fn() -> ProcessorCache,
    ) -> (Vec<(u64, ExecOutcome)>, PrefetchStats, HeatMap) {
        let tier = loaded_tier(48, 3);
        let (transport, handles, addrs) = spawn_storage(&tier, NetworkModel::local());
        let mut source = MultiplexedStorageSource::new(transport, &addrs, tier.partitioner());
        let mut cache: ProcessorCache = make_cache();
        let mut pipeline = QueryPipeline::new(overlap).with_prefetch(prefetch);
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
        let stats = pipeline.prefetch_stats();
        let heat = pipeline.heat().clone();
        drop(source);
        for h in handles {
            h.shutdown();
        }
        (out, stats, heat)
    }

    /// The serial reference: the same queries through an engine worker
    /// whose source is the tier itself.
    fn run_serial(queries: &[Query]) -> Vec<ExecOutcome> {
        run_serial_with(queries, Box::new(LruCache::new(1 << 20)))
    }

    fn run_serial_with(queries: &[Query], cache: ProcessorCache) -> Vec<ExecOutcome> {
        let tier = loaded_tier(48, 3);
        let mut worker = Worker::from_parts(Box::new(Arc::clone(&tier)), cache);
        queries.iter().map(|q| worker.run(q).0).collect()
    }

    #[test]
    fn overlap1_is_byte_identical_to_the_serial_worker() {
        let q = queries(48, 24);
        let serial = run_serial(&q);
        let piped = run_pipeline(1, &q);
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
        let piped = run_pipeline(2, &q);
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

    #[test]
    fn a_query_stopped_mid_ask_runs_alone_until_its_refetch_lands() {
        // Every record of the ring is the same size; the cache holds two.
        let tier = loaded_tier(48, 3);
        let (_, record) = tier.get(n(0)).unwrap();
        let two_records = 2 * AdjacencyRecord::decode(record).unwrap().resident_len();
        let (transport, handles, addrs) = spawn_storage(&tier, NetworkModel::local());
        let mut source = MultiplexedStorageSource::new(transport, &addrs, tier.partitioner());
        let mut cache: ProcessorCache = Box::new(LruCache::new(two_records));
        let mut pipeline = QueryPipeline::new(2);
        let mut step = |pipeline: &mut QueryPipeline| {
            std::thread::sleep(Duration::from_millis(2));
            pipeline.step(&mut source, &mut cache).unwrap()
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
            step(&mut pipeline);
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
            assert!(
                step(&mut pipeline).is_empty(),
                "the aggregation must stop mid-ask"
            );
        }
        pipeline.push(
            2,
            Query::NeighborAggregation {
                node: n(30),
                hops: 1,
                label: None,
            },
        );
        step(&mut pipeline);
        assert_eq!(
            pipeline.queue.len(),
            1,
            "admitted while a query was mid-ask"
        );
        while !pipeline.is_idle() {
            step(&mut pipeline);
        }
        drop(source);
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn overlap4_handles_more_queries_than_slots() {
        let q = queries(48, 9);
        let piped = run_pipeline(4, &q);
        assert_eq!(piped.len(), q.len());
    }

    #[test]
    fn zero_overlap_is_clamped_to_serial() {
        assert_eq!(QueryPipeline::new(0).overlap, 1);
    }

    #[test]
    fn prefetching_pipeline_is_demand_identical_to_serial_worker() {
        // The pipeline's speculative piggyback over the real wire source:
        // at overlap 1 every demand-side number — answers, hits, misses,
        // bytes — must match the serial no-prefetch worker exactly, for
        // both policies.
        let q = queries(48, 24);
        let serial = run_serial(&q);
        for policy in [PrefetchPolicy::Degree, PrefetchPolicy::Hotspot] {
            let (piped, _, _) =
                run_pipeline_with(1, &q, PrefetchConfig::with_policy(policy), || {
                    Box::new(LruCache::new(1 << 20))
                });
            assert_eq!(piped.len(), q.len());
            for (i, (seq, outcome)) in piped.iter().enumerate() {
                assert_eq!(*seq as usize, i, "{policy}: overlap 1 is in order");
                assert_eq!(outcome.result, serial[i].result, "{policy} seq {seq}");
                assert_eq!(outcome.stats, serial[i].stats, "{policy} seq {seq}");
            }
        }
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
    fn hotspot_prefetch_stages_repeat_traffic_over_the_wire() {
        // A cache that retains nothing forces every access over the wire;
        // the history predictor stages the hot region so repeat queries
        // are served from the buffer — visible as a live speculative
        // tally, with answers still identical to the serial worker.
        let q: Vec<Query> = (0..10u32)
            .map(|i| Query::NeighborAggregation {
                node: n(i % 3),
                hops: 2,
                label: None,
            })
            .collect();
        let serial = run_serial_with(&q, Box::new(grouting_cache::NullCache::new()));
        let (piped, stats, heat) = run_pipeline_with(
            1,
            &q,
            PrefetchConfig::with_policy(PrefetchPolicy::Hotspot),
            || Box::new(grouting_cache::NullCache::new()),
        );
        for (i, (_, outcome)) in piped.iter().enumerate() {
            assert_eq!(outcome.result, serial[i].result, "seq {i}");
            assert_eq!(outcome.stats, serial[i].stats, "seq {i}");
        }
        assert!(stats.issued > 0, "speculation must fire");
        assert!(stats.hits > 0, "repeat frontiers must be served from stage");
        // Heat mirrors the accounting exactly: one demand count per miss
        // event, one speculative count per staged payload.
        let serial_misses: u64 = serial.iter().map(|o| o.stats.cache_misses).sum();
        assert_eq!(heat.total_demand(), serial_misses);
        assert!(
            heat.total_speculative() > 0,
            "staged payloads must register"
        );
        assert!(heat.total_speculative() <= stats.issued);
    }

    #[test]
    fn pipeline_heat_tracks_demand_misses_per_server() {
        let q = queries(48, 24);
        let serial = run_serial(&q);
        let (_, _, heat) = run_pipeline_with(2, &q, PrefetchConfig::OFF, || {
            Box::new(LruCache::new(1 << 20))
        });
        let serial_misses: u64 = serial.iter().map(|o| o.stats.cache_misses).sum();
        assert_eq!(heat.total_demand(), serial_misses);
        assert_eq!(heat.total_speculative(), 0, "no speculation configured");
        assert!(heat.len() <= 3, "only three storage servers exist");
    }
}
