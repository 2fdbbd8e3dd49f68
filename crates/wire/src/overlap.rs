//! Cross-query fetch overlap: a small in-flight window per processor.
//!
//! With frontier batching (PR 3) a processor's storage pipe is busy only
//! while a query is *fetching*; the pipe idles whenever the processor is
//! computing. [`QueryPipeline`] closes that gap: it keeps up to
//! `overlap` dispatched queries in flight as [`StagedQuery`] state
//! machines over ONE cache and ONE [`MultiplexedStorageSource`], so while
//! query A's frontier batch travels, query B's compute stage runs — and
//! B's next batch goes on the wire before A's reply is awaited
//! (double-buffered frontiers).
//!
//! At `overlap == 1` the pipeline degenerates to strictly serial
//! execution whose cache operation sequence is byte-identical to
//! [`grouting_engine::Worker::run`] — the agreement contract pinned by
//! `wire_agreement` — because [`StagedQuery`] replays exactly the
//! plan/fetch/apply cycle of the blocking executor.
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

use crate::error::WireResult;
use crate::flow::{MultiplexedStorageSource, PendingBatch};
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

    /// Drives every in-flight query one round: admits queued queries into
    /// free slots (running their compute until the first fetch), polls
    /// each awaited frontier fetch, and resumes whichever queries have
    /// their payloads — submitting their next frontier before returning.
    /// Never blocks; returns the queries that finished this round.
    ///
    /// # Errors
    ///
    /// Propagates storage-path failures (dial/submit/poll past the
    /// reconnect budget, protocol violations).
    pub fn step(
        &mut self,
        source: &mut MultiplexedStorageSource,
        cache: &mut ProcessorCache,
    ) -> WireResult<Vec<CompletedQuery>> {
        let mut completed = Vec::new();

        // Admit queued queries into free slots, oldest first. Each new
        // query computes up to its first remote fetch, which goes on the
        // wire immediately — this is the submit-before-await that keeps
        // the storage pipe full while older queries compute.
        while self.active.len() < self.overlap {
            if !self.admit_next(source, cache, &mut completed)? {
                break;
            }
        }

        // Poll every awaited fetch, oldest query first; resume those whose
        // payloads have fully arrived.
        let mut slot = 0;
        while slot < self.active.len() {
            let active = &mut self.active[slot];
            let pending = active
                .pending
                .as_mut()
                .expect("parked queries await a fetch");
            let Some(mut payloads) = source.try_collect(pending)? else {
                slot += 1;
                continue;
            };
            active.pending = None;
            // The level's fetch wait ends the moment its payloads are
            // consumed; the resume that follows is its compute.
            let fetch_ns = if self.trace.enabled() {
                now_ns().saturating_sub(active.fetch_started_ns)
            } else {
                0
            };
            // The speculative tail goes to the staging buffer; the staged
            // query sees exactly the demand payloads it asked for.
            let demand_nodes = std::mem::take(&mut active.demand);
            let spec_payloads = payloads.split_off(demand_nodes.len());
            let spec_nodes = std::mem::take(&mut active.spec);
            for (server, _) in spec_payloads.iter().flatten() {
                self.heat.record_speculative(*server as usize, 1);
            }
            self.prefetch.demand_arrived(&demand_nodes);
            let resume_started_ns = if self.trace.enabled() { now_ns() } else { 0 };
            let (step, spec) = {
                let active = &mut self.active[slot];
                let mut store =
                    CacheBackedStore::with_prefetch(&mut *source, cache, &mut self.prefetch);
                store.absorb_speculative(&spec_nodes, spec_payloads);
                let step = active.staged.resume(&mut store, Some(payloads));
                let spec = match &step {
                    Step::Fetch(miss) => store.plan_speculative(active.staged.frontier(), miss),
                    Step::Done(_) => Vec::new(),
                };
                (step, spec)
            };
            if self.trace.enabled() {
                let compute_ns = now_ns().saturating_sub(resume_started_ns);
                let active = &mut self.active[slot];
                active.trace.fetch_wait_ns += fetch_ns;
                active.trace.compute_ns += compute_ns;
                active.trace.levels += 1;
                if self.trace.spans() {
                    active.trace.level_spans.push((fetch_ns, compute_ns));
                }
            }
            match step {
                Step::Fetch(miss) => {
                    self.submit(source, slot, miss, spec)?;
                    slot += 1;
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
                        trace: self.trace.enabled().then_some(finished.trace),
                    });
                    // Backfill the freed slot from the queue so the window
                    // stays full without waiting for the next step call.
                    self.admit_next(source, cache, &mut completed)?;
                }
            }
        }
        Ok(completed)
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

    /// Starts the oldest queued query: runs its compute up to the first
    /// remote fetch (submitted immediately) and parks it in the active
    /// window, or records it as completed when it never needed the wire.
    /// Returns whether a query was admitted.
    fn admit_next(
        &mut self,
        source: &mut MultiplexedStorageSource,
        cache: &mut ProcessorCache,
        completed: &mut Vec<CompletedQuery>,
    ) -> WireResult<bool> {
        let Some((seq, query)) = self.queue.pop_front() else {
            return Ok(false);
        };
        let mut staged = StagedQuery::new(query);
        let started_ns = now_ns();
        let (step, spec) = {
            let mut store =
                CacheBackedStore::with_prefetch(&mut *source, cache, &mut self.prefetch);
            let step = staged.resume(&mut store, None);
            let spec = match &step {
                Step::Fetch(miss) => store.plan_speculative(staged.frontier(), miss),
                Step::Done(_) => Vec::new(),
            };
            (step, spec)
        };
        // The admission resume is level-0 compute (it precedes any fetch).
        let admit_compute_ns = if self.trace.enabled() {
            now_ns().saturating_sub(started_ns)
        } else {
            0
        };
        match step {
            Step::Fetch(miss) => {
                self.active.push_back(ActiveQuery {
                    seq,
                    staged,
                    pending: None,
                    demand: Vec::new(),
                    spec: Vec::new(),
                    started_ns,
                    fetch_started_ns: 0,
                    trace: QueryTrace {
                        compute_ns: admit_compute_ns,
                        ..QueryTrace::default()
                    },
                });
                let slot = self.active.len() - 1;
                self.submit(source, slot, miss, spec)?;
            }
            Step::Done(outcome) => {
                for ev in staged.take_miss_log() {
                    self.heat.record_demand(ev.server as usize, 1);
                }
                completed.push(CompletedQuery {
                    seq,
                    outcome,
                    started_ns,
                    completed_ns: now_ns(),
                    trace: self.trace.enabled().then(|| QueryTrace {
                        compute_ns: admit_compute_ns,
                        ..QueryTrace::default()
                    }),
                });
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{StorageOptions, StorageService};
    use crate::transport::{InProcTransport, Transport};
    use grouting_cache::LruCache;
    use grouting_engine::Worker;
    use grouting_graph::{GraphBuilder, NodeId};
    use grouting_partition::HashPartitioner;
    use grouting_query::PrefetchPolicy;
    use grouting_storage::StorageTier;
    use std::sync::Arc;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn loaded_tier(nodes: u32, servers: usize) -> Arc<StorageTier> {
        let mut b = GraphBuilder::new();
        for i in 0..nodes {
            b.add_edge(n(i), n((i + 1) % nodes));
            b.add_edge(n(i), n((i + 3) % nodes));
        }
        let g = b.build().unwrap();
        let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(servers))));
        tier.load_graph(&g).unwrap();
        tier
    }

    fn queries(nodes: u32, count: u32) -> Vec<Query> {
        (0..count)
            .map(|i| match i % 4 {
                3 => Query::RandomWalk {
                    node: n((i * 5) % nodes),
                    steps: 6,
                    restart_prob: 0.2,
                    seed: u64::from(i),
                },
                _ => Query::NeighborAggregation {
                    node: n((i * 7) % nodes),
                    hops: 2,
                    label: None,
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
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let handles: Vec<_> = (0..tier.server_count())
            .map(|_| {
                StorageService::spawn_opts(
                    Arc::clone(&transport),
                    &transport.any_addr(),
                    Arc::clone(&tier),
                    StorageOptions::default(),
                )
                .unwrap()
            })
            .collect();
        let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
        let mut source =
            MultiplexedStorageSource::new(Arc::clone(&transport), &addrs, tier.partitioner());
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
        let mut worker = Worker::from_parts(0, Box::new(Arc::clone(&tier)), cache);
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
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let handles: Vec<_> = (0..tier.server_count())
            .map(|_| {
                StorageService::spawn_opts(
                    Arc::clone(&transport),
                    &transport.any_addr(),
                    Arc::clone(&tier),
                    StorageOptions::default(),
                )
                .unwrap()
            })
            .collect();
        let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
        let mut source =
            MultiplexedStorageSource::new(Arc::clone(&transport), &addrs, tier.partitioner());
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
