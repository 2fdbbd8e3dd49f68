//! The shared engine layer: one builder for the whole routing stack.
//!
//! Both runtimes — the deterministic discrete-event simulator
//! (`grouting-sim`) and the real-time wire cluster (`grouting-wire`) —
//! drive the *same* cluster: a [`Router`] wrapping one of the paper's
//! routing strategies, a shared storage tier, one byte-capacity cache per
//! query processor, and a metrics timeline. This crate owns that assembly
//! so a routing or storage change lands in exactly one place:
//!
//! * [`EngineConfig`] — the cluster-shape knobs common to every frontend
//!   (processors, routing scheme, cache policy/capacity, EMA α, load
//!   factor, stealing, admission window, overlap, prefetch, seed),
//!   declared once: `grouting-sim`'s `SimConfig` pairs it with a cost
//!   model and the wire `ClusterConfig` pairs it with deployment knobs;
//! * [`EngineAssets`] — the preprocessing products the smart strategies
//!   need (storage tier, landmarks, embedding);
//! * [`Engine::new`] — builds the router (strategy chosen from
//!   [`RoutingKind`]) and one [`Worker`] per processor, then mediates
//!   admission, dispatch, and completion accounting;
//! * [`Worker`] — a processor's executable half (cache + tier handle),
//!   detached via [`Engine::take_workers`] for the simulator to drive.
//!
//! What stays runtime-specific is *time*: the simulator charges virtual
//! nanoseconds from its cost model, the wire cluster reads wall clocks.
//! Everything else — who serves a query, what its cache holds, what the
//! metrics count — is decided here, which is why the two runtimes agree
//! (see the `runtime_agreement` and `wire_agreement` integration tests).

use std::sync::Arc;

use grouting_cache::{NullCache, Policy};
use grouting_embed::embedding::Embedding;
use grouting_embed::landmarks::Landmarks;
use grouting_embed::ProcessorDistanceTable;
use grouting_metrics::timeline::QueryRecord;
use grouting_metrics::RunSnapshot;
use grouting_metrics::Timeline;
use grouting_query::{
    AccessStats, BatchSource, ExecOutcome, Executor, MissEvent, PrefetchConfig, PrefetchState,
    ProcessorCache, Query,
};
use grouting_route::{EmbedRouter, Router, RouterConfig, RoutingKind, Strategy};
use grouting_storage::StorageTier;

/// Cluster-shape configuration shared by every execution frontend.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Query processors P.
    pub processors: usize,
    /// Routing scheme.
    pub routing: RoutingKind,
    /// Per-processor cache capacity in bytes (ignored for
    /// [`RoutingKind::NoCache`]).
    pub cache_capacity: usize,
    /// Cache eviction policy (the paper uses LRU).
    pub cache_policy: Policy,
    /// EMA smoothing α for embed routing (Eq. 5).
    pub alpha: f64,
    /// Load factor for the load-balanced distance d_LB (Eq. 3/7).
    pub load_factor: f64,
    /// Whether query stealing is enabled (Requirement 2).
    pub stealing: bool,
    /// Queries admitted into router queues ahead of dispatch
    /// (0 = `16 × processors`).
    pub admission_window: usize,
    /// Queries a *wire* processor may hold in flight at once (clamped to
    /// ≥ 1). At 2+ the router dispatches ahead of acknowledgements and the
    /// processor overlaps one query's frontier fetch with another's
    /// compute stage (double-buffered frontiers); at 1 execution is
    /// strictly serial and cache statistics are byte-identical to the
    /// in-process engine. The simulator executes serially regardless —
    /// overlap only changes behaviour where fetches actually cross a wire.
    pub overlap: usize,
    /// Speculative frontier prefetching: policy plus per-batch/staging
    /// budgets (default [`PrefetchConfig::OFF`]). When enabled, frontier
    /// batches piggyback predicted next-hop nodes; demand-side Eq. 8/9
    /// statistics stay byte-identical either way.
    pub prefetch: PrefetchConfig,
    /// Seed for EMA mean initialisation.
    pub seed: u64,
}

impl EngineConfig {
    /// The paper's standard shape for `processors` and a routing scheme:
    /// 4 GB LRU cache, load factor 20, stealing on, overlap 2, prefetch
    /// off. α defaults to 0.9 — the optimum measured in *this*
    /// implementation's sensitivity sweep (the paper tunes α the same way
    /// and lands at 0.5 on its testbed; Figure 11(b)).
    pub fn paper_default(processors: usize, routing: RoutingKind) -> Self {
        Self {
            processors,
            routing,
            cache_capacity: 4 << 30,
            cache_policy: Policy::Lru,
            alpha: 0.9,
            load_factor: 20.0,
            stealing: true,
            admission_window: 0,
            overlap: 2,
            prefetch: PrefetchConfig::OFF,
            seed: 0x5EED,
        }
    }

    /// Effective admission window (`0` means `16 × processors`).
    pub fn window(&self) -> usize {
        if self.admission_window == 0 {
            16 * self.processors
        } else {
            self.admission_window
        }
    }

    /// Builds one processor's cache per this configuration (a null cache
    /// for [`RoutingKind::NoCache`]).
    pub fn build_cache(&self) -> ProcessorCache {
        if self.routing.uses_cache() {
            self.cache_policy.build(self.cache_capacity)
        } else {
            Box::new(NullCache::new())
        }
    }
}

/// Preprocessing products the engine wires into the routing strategies.
///
/// The smart schemes need their assets — [`RoutingKind::Landmark`] the
/// landmark set, [`RoutingKind::Embed`] the embedding; the baselines need
/// none. Construction panics (not errors) on a missing asset, matching the
/// long-standing runtime contract.
#[derive(Clone)]
pub struct EngineAssets {
    /// The loaded storage tier every processor fetches from.
    pub tier: Arc<StorageTier>,
    /// Landmark set + distance maps (landmark routing).
    pub landmarks: Option<Arc<Landmarks>>,
    /// The graph embedding (embed routing).
    pub embedding: Option<Arc<Embedding>>,
}

impl EngineAssets {
    /// Assets with only a storage tier (baseline routings).
    pub fn new(tier: Arc<StorageTier>) -> Self {
        Self {
            tier,
            landmarks: None,
            embedding: None,
        }
    }

    /// Adds the landmark set.
    #[must_use]
    pub fn with_landmarks(mut self, landmarks: Option<Arc<Landmarks>>) -> Self {
        self.landmarks = landmarks;
        self
    }

    /// Adds the embedding.
    #[must_use]
    pub fn with_embedding(mut self, embedding: Option<Arc<Embedding>>) -> Self {
        self.embedding = embedding;
        self
    }
}

/// A query processor's executable half: its cache plus a record source
/// (the miss path behind the cache).
///
/// Detached from the [`Engine`] with [`Engine::take_workers`] so the
/// simulator can drive it inline. The engine builds
/// workers whose source is a direct [`StorageTier`] handle;
/// [`Worker::from_parts`] takes any [`BatchSource`], such as a
/// transport-backed one, so the same execution code drives bytes over
/// real connections.
pub struct Worker {
    source: Box<dyn BatchSource + Send>,
    cache: ProcessorCache,
    /// Per-processor speculation state (inert unless configured): the
    /// predictor, the staged-payload buffer, and the speculative tally —
    /// persistent across queries exactly like the cache.
    prefetch: PrefetchState,
}

impl Worker {
    /// Assembles a worker from explicit parts: the miss path the cache
    /// falls back to and the cache itself (usually
    /// [`EngineConfig::build_cache`]). The source's
    /// [`BatchSource::fetch_batch`] is what the frontier-batched traversal
    /// drives — in-process tier handles serve it directly, wire sources
    /// turn it into one pipelined batch frame per storage server.
    /// Prefetching starts off; see [`Worker::with_prefetch`].
    pub fn from_parts(source: Box<dyn BatchSource + Send>, cache: ProcessorCache) -> Self {
        Self {
            source,
            cache,
            prefetch: PrefetchState::new(PrefetchConfig::OFF),
        }
    }

    /// Equips the worker with speculative frontier prefetching per
    /// `config` ([`PrefetchConfig::OFF`] keeps it inert).
    #[must_use]
    pub fn with_prefetch(mut self, config: PrefetchConfig) -> Self {
        self.prefetch = PrefetchState::new(config);
        self
    }

    /// Executes one query against this processor's cache and its record
    /// source, returning the outcome plus the ordered storage-miss log
    /// (the simulator replays it through its contention model).
    pub fn run(&mut self, query: &Query) -> (ExecOutcome, Vec<MissEvent>) {
        let mut ex =
            Executor::with_prefetch(self.source.as_mut(), &mut self.cache, &mut self.prefetch);
        let out = ex.run(query);
        let miss_log = ex.take_miss_log();
        (out, miss_log)
    }
}

/// Totals accumulated across every completion the engine records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineTotals {
    /// Cache hits across processors (Eq. 8 numerator).
    pub cache_hits: u64,
    /// Cache misses across processors (Eq. 9 numerator).
    pub cache_misses: u64,
    /// Cache evictions observed.
    pub evictions: u64,
}

/// Everything the engine measured over one run.
pub struct EngineRun {
    /// Per-query lifecycle records.
    pub timeline: Timeline,
    /// Hit/miss/eviction totals.
    pub totals: EngineTotals,
    /// Queries served by a non-preferred processor.
    pub stolen: u64,
}

/// The assembled routing stack both frontends drive.
pub struct Engine {
    config: EngineConfig,
    router: Router,
    workers: Vec<Worker>,
    timeline: Timeline,
    totals: EngineTotals,
}

impl Engine {
    /// Builds the full stack for `config`: the strategy from
    /// [`EngineConfig::routing`], the router around it, and one cache-owning
    /// [`Worker`] per processor.
    ///
    /// # Panics
    ///
    /// Panics if `config.processors == 0`, or if a smart scheme is
    /// requested without its preprocessing asset.
    pub fn new(assets: &EngineAssets, config: &EngineConfig) -> Self {
        Self::build(assets, config, true)
    }

    /// Builds only the router half — strategy, queues, admission, and
    /// completion accounting — with no local workers. This is the engine a
    /// wire deployment's router node runs: the processors (and their
    /// caches) live behind connections, so building local cache-owning
    /// workers would waste memory on state nobody drives.
    ///
    /// [`Engine::take_workers`] must not be called on a router-only
    /// engine.
    ///
    /// # Panics
    ///
    /// Same contract as [`Engine::new`].
    pub fn new_router_only(assets: &EngineAssets, config: &EngineConfig) -> Self {
        Self::build(assets, config, false)
    }

    fn build(assets: &EngineAssets, config: &EngineConfig, with_workers: bool) -> Self {
        assert!(config.processors > 0, "zero processors");
        let p = config.processors;

        let strategy = match config.routing {
            RoutingKind::NoCache => Strategy::NextReady { no_cache: true },
            RoutingKind::NextReady => Strategy::NextReady { no_cache: false },
            RoutingKind::Hash => Strategy::Hash,
            RoutingKind::Landmark => Strategy::Landmark(ProcessorDistanceTable::build(
                assets
                    .landmarks
                    .as_ref()
                    .expect("landmark routing needs landmarks"),
                p,
            )),
            RoutingKind::Embed => Strategy::Embed(EmbedRouter::new(
                Arc::clone(
                    assets
                        .embedding
                        .as_ref()
                        .expect("embed routing needs an embedding"),
                ),
                p,
                config.alpha,
                config.seed,
            )),
        };
        let router = Router::new(
            strategy,
            p,
            RouterConfig {
                load_factor: config.load_factor,
                stealing: config.stealing,
            },
        );

        let workers = if with_workers {
            (0..p)
                .map(|_| {
                    Worker::from_parts(Box::new(Arc::clone(&assets.tier)), config.build_cache())
                        .with_prefetch(config.prefetch)
                })
                .collect()
        } else {
            Vec::new()
        };

        Self {
            config: *config,
            router,
            workers,
            timeline: Timeline::new(),
            totals: EngineTotals::default(),
        }
    }

    /// Number of query processors.
    pub fn processors(&self) -> usize {
        self.config.processors
    }

    /// Detaches the per-processor workers (index = processor id) for the
    /// runtime to drive.
    ///
    /// # Panics
    ///
    /// Panics if called twice — each engine builds exactly one worker set.
    pub fn take_workers(&mut self) -> Vec<Worker> {
        assert!(
            !self.workers.is_empty(),
            "workers already taken from this engine"
        );
        std::mem::take(&mut self.workers)
    }

    /// Keeps the router's queues topped up to the admission window,
    /// invoking `on_admit` with each admitted sequence number (the frontend
    /// stamps its notion of arrival time there).
    pub fn admit<I>(&mut self, backlog: &mut I, mut on_admit: impl FnMut(usize))
    where
        I: Iterator<Item = (usize, Query)>,
    {
        let window = self.config.window();
        while self.router.pending() < window {
            match backlog.next() {
                Some((seq, q)) => {
                    on_admit(seq);
                    self.router.submit(seq as u64, q);
                }
                None => break,
            }
        }
    }

    /// Queries waiting in the router.
    pub fn pending(&self) -> usize {
        self.router.pending()
    }

    /// Next query for an idle processor: own queue → global queue → steal.
    pub fn next_for(&mut self, processor: usize) -> Option<(u64, Query)> {
        self.router.next_for(processor)
    }

    /// Records one completed query into the timeline and totals.
    pub fn complete(&mut self, record: QueryRecord, stats: &AccessStats) {
        self.totals.cache_hits += stats.cache_hits;
        self.totals.cache_misses += stats.cache_misses;
        self.totals.evictions += stats.evictions;
        self.timeline.push(record);
    }

    /// Takes a processor out of rotation: its queued work is redistributed
    /// through the strategy, and no further queries are routed to it. Used
    /// by the wire router to mask a processor that died mid-run.
    pub fn mark_down(&mut self, processor: usize) {
        self.router.mark_down(processor);
    }

    /// Brings a processor back into rotation after a [`Engine::mark_down`]
    /// — the re-join path: a restarted processor re-dialling with its old
    /// id starts receiving routed work again. A no-op when the processor
    /// was never down.
    pub fn mark_up(&mut self, processor: usize) {
        self.router.mark_up(processor);
    }

    /// Whether `processor` is currently routed to.
    pub fn is_up(&self, processor: usize) -> bool {
        self.router.is_up(processor)
    }

    /// Re-enqueues a query that was dispatched but never acknowledged
    /// (its processor died); routing sees it as a fresh submission under
    /// its original sequence number.
    pub fn resubmit(&mut self, seq: u64, query: Query) {
        self.router.submit(seq, query);
    }

    /// The measurements accumulated *so far*, as a wire-encodable
    /// snapshot — the router answers mid-run [`RunSnapshot`] requests with
    /// this without finishing the run.
    ///
    /// Prefetch counters are zero here: speculation state lives with the
    /// processors, so the wire router fills the counters in from the
    /// cumulative tallies its completions carry.
    pub fn snapshot(&self) -> RunSnapshot {
        RunSnapshot {
            queries: self.timeline.len() as u64,
            cache_hits: self.totals.cache_hits,
            cache_misses: self.totals.cache_misses,
            evictions: self.totals.evictions,
            stolen: self.router.stolen(),
            prefetch_issued: 0,
            prefetch_hits: 0,
            prefetch_wasted_bytes: 0,
            redials: 0,
            replica_failovers: 0,
            batches_resubmitted: 0,
            windows_resubmitted: 0,
            per_processor: self.timeline.per_processor_counts(self.config.processors),
            // Heat lives with the processors too (miss logs / pipeline
            // tallies); the owner folds it in alongside the prefetch
            // counters above.
            partition_heat: grouting_metrics::HeatMap::new(),
            region_heat: grouting_metrics::HeatMap::new(),
        }
    }

    /// Finishes the run, yielding the accumulated measurements.
    pub fn finish(self) -> EngineRun {
        EngineRun {
            timeline: self.timeline,
            totals: self.totals,
            stolen: self.router.stolen(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_graph::{GraphBuilder, NodeId};
    use grouting_storage::HashPartitioner;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn loaded_assets(servers: usize) -> EngineAssets {
        let mut b = GraphBuilder::new();
        for i in 0..32 {
            b.add_edge(n(i), n((i + 1) % 32));
            b.add_edge(n(i), n((i + 2) % 32));
        }
        let g = b.build().unwrap();
        let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(servers))));
        tier.load_graph(&g).unwrap();
        EngineAssets::new(tier)
    }

    fn q(node: u32) -> Query {
        Query::NeighborAggregation {
            node: n(node),
            hops: 1,
            label: None,
        }
    }

    #[test]
    fn builds_workers_and_runs_queries() {
        let assets = loaded_assets(2);
        let cfg = EngineConfig {
            cache_capacity: 1 << 20,
            ..EngineConfig::paper_default(3, RoutingKind::Hash)
        };
        let mut engine = Engine::new(&assets, &cfg);
        assert_eq!(engine.processors(), 3);
        let mut workers = engine.take_workers();
        assert_eq!(workers.len(), 3);

        let (out, misses) = workers[0].run(&q(0));
        assert!(out.stats.cache_misses > 0);
        assert_eq!(misses.len(), out.stats.cache_misses as usize);
        // Second run over the same node hits the worker's cache.
        let (out2, misses2) = workers[0].run(&q(0));
        assert!(out2.stats.cache_hits > 0);
        assert!(misses2.len() < misses.len());
    }

    #[test]
    fn no_cache_routing_gets_null_caches() {
        let assets = loaded_assets(2);
        let cfg = EngineConfig {
            cache_capacity: 1 << 20,
            ..EngineConfig::paper_default(2, RoutingKind::NoCache)
        };
        let mut engine = Engine::new(&assets, &cfg);
        let mut workers = engine.take_workers();
        let (first, _) = workers[0].run(&q(0));
        let (second, _) = workers[0].run(&q(0));
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(second.stats.cache_hits, 0, "null cache never hits");
    }

    #[test]
    fn admit_fills_to_window_and_dispatch_drains() {
        let assets = loaded_assets(2);
        let cfg = EngineConfig {
            admission_window: 4,
            ..EngineConfig::paper_default(2, RoutingKind::Hash)
        };
        let mut engine = Engine::new(&assets, &cfg);
        let queries: Vec<Query> = (0..10u32).map(q).collect();
        let mut backlog = queries.iter().copied().enumerate();
        let mut admitted = Vec::new();
        engine.admit(&mut backlog, |seq| admitted.push(seq));
        assert_eq!(admitted, vec![0, 1, 2, 3], "window of 4");
        assert_eq!(engine.pending(), 4);

        let (seq, _) = engine.next_for(0).expect("work queued");
        engine.complete(
            QueryRecord {
                seq,
                arrived: 0,
                started: 1,
                completed: 2,
                processor: 0,
            },
            &AccessStats {
                cache_hits: 3,
                cache_misses: 1,
                miss_bytes: 64,
                evictions: 0,
            },
        );
        engine.admit(&mut backlog, |_| {});
        assert_eq!(engine.pending(), 4, "refilled after dispatch");

        let run = engine.finish();
        assert_eq!(run.timeline.len(), 1);
        assert_eq!(run.totals.cache_hits, 3);
        assert_eq!(run.totals.cache_misses, 1);
    }

    #[test]
    fn window_defaults_to_sixteen_per_processor() {
        assert_eq!(
            EngineConfig::paper_default(3, RoutingKind::Hash).window(),
            48
        );
        let explicit = EngineConfig {
            admission_window: 5,
            ..EngineConfig::paper_default(3, RoutingKind::Hash)
        };
        assert_eq!(explicit.window(), 5);
    }

    #[test]
    #[should_panic(expected = "embed routing needs an embedding")]
    fn embed_without_embedding_panics() {
        let assets = loaded_assets(1);
        let _ = Engine::new(&assets, &EngineConfig::paper_default(1, RoutingKind::Embed));
    }

    #[test]
    #[should_panic(expected = "landmark routing needs landmarks")]
    fn landmark_without_landmarks_panics() {
        let assets = loaded_assets(1);
        let _ = Engine::new(
            &assets,
            &EngineConfig::paper_default(1, RoutingKind::Landmark),
        );
    }

    #[test]
    #[should_panic(expected = "zero processors")]
    fn zero_processors_rejected() {
        let assets = loaded_assets(1);
        let _ = Engine::new(&assets, &EngineConfig::paper_default(0, RoutingKind::Hash));
    }

    #[test]
    fn workers_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Worker>();
    }

    #[test]
    fn router_only_engine_routes_without_workers() {
        let assets = loaded_assets(2);
        let cfg = EngineConfig {
            admission_window: 4,
            ..EngineConfig::paper_default(2, RoutingKind::Hash)
        };
        let mut engine = Engine::new_router_only(&assets, &cfg);
        let queries: Vec<Query> = (0..6u32).map(q).collect();
        let mut backlog = queries.iter().copied().enumerate();
        engine.admit(&mut backlog, |_| {});
        assert_eq!(engine.pending(), 4);
        assert!(engine.next_for(0).is_some(), "routing works workerless");
    }
}
