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
//!   factor, stealing, admission window, overlap, seed),
//!   declared once: `grouting-sim`'s `SimConfig` pairs it with a cost
//!   model and the wire `ClusterConfig` pairs it with deployment knobs;
//! * [`EngineAssets`] — the preprocessing products the smart strategies
//!   need (storage tier, landmarks, embedding);
//! * [`Engine::new`] — builds the router (strategy chosen from
//!   [`RoutingKind`]) and one [`Worker`] per processor;
//! * [`Engine`] — the router as one state machine: admission, the
//!   per-processor queues and stealing, each processor's dispatch window
//!   of at most [`EngineConfig::overlap`] unacknowledged queries
//!   (acknowledged in any order), processor death (the window resubmitted
//!   under its original sequence numbers) and rejoin, and each
//!   processor's last reported failover / heat tallies, banked when it
//!   dies. It reads no clock: every input is an argument;
//! * [`Worker`] — a processor's executable half (cache + tier handle),
//!   detached via [`Engine::take_workers`] for the simulator to drive.
//!
//! What stays runtime-specific is *time*: the simulator charges virtual
//! nanoseconds from its cost model, the wire cluster reads wall clocks and
//! moves frames. Everything else — who serves a query, what its cache
//! holds, what the metrics count — is decided here, which is why the two
//! runtimes agree (see the `runtime_agreement` and `wire_agreement`
//! integration tests).

use std::sync::Arc;

#[cfg(test)]
mod explore;

use grouting_cache::{NullCache, Policy};
use grouting_embed::embedding::Embedding;
use grouting_embed::landmarks::Landmarks;
use grouting_embed::ProcessorDistanceTable;
use grouting_metrics::timeline::QueryRecord;
use grouting_metrics::Timeline;
use grouting_metrics::{FailoverStats, HeatMap, RunSnapshot};
use grouting_query::{
    AccessStats, BatchSource, ExecOutcome, Executor, MissEvent, PrefetchConfig, ProcessorCache,
    Query,
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
    /// Queries a processor may hold in flight at once (clamped to ≥ 1):
    /// the size of its dispatch window in [`Engine`]. At 2+ the wire
    /// router dispatches ahead of acknowledgements and the processor
    /// overlaps one query's frontier fetch with another's compute stage
    /// (double-buffered frontiers); at 1 execution is strictly serial and
    /// cache statistics are byte-identical to the in-process engine. The
    /// simulator executes serially regardless — overlap only changes
    /// behaviour where fetches actually cross a wire.
    pub overlap: usize,
    /// Nothing reads it. Named by the benchmark (`load/`); the next
    /// `benchmark` PR drops it.
    pub prefetch: PrefetchConfig,
    /// Seed for EMA mean initialisation.
    pub seed: u64,
}

impl EngineConfig {
    /// The paper's standard shape for `processors` and a routing scheme:
    /// 4 GB LRU cache, load factor 20, stealing on, overlap 2. α defaults
    /// to 0.9 — the optimum measured in *this* implementation's
    /// sensitivity sweep (the paper tunes α the same way and lands at 0.5
    /// on its testbed; Figure 11(b)).
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
/// transport-backed one. A worker is the serial driver
/// ([`Executor::run`]) of the same staged execution a wire processor
/// overlaps: each query's fetches block on the source one step at a time,
/// in the order the processor's pipeline submits them.
pub struct Worker {
    source: Box<dyn BatchSource + Send>,
    cache: ProcessorCache,
}

impl Worker {
    /// Assembles a worker from explicit parts: the miss path the cache
    /// falls back to and the cache itself (usually
    /// [`EngineConfig::build_cache`]). The source's
    /// [`BatchSource::fetch_batch`] answers every [`Step`] fetch a query
    /// asks for — in-process tier handles serve it directly, wire sources
    /// turn it into one pipelined batch frame per storage server.
    ///
    /// [`Step`]: grouting_query::Step
    pub fn from_parts(source: Box<dyn BatchSource + Send>, cache: ProcessorCache) -> Self {
        Self { source, cache }
    }

    /// Executes one query against this processor's cache and its record
    /// source, returning the outcome plus the ordered storage-miss log
    /// (the simulator replays it through its contention model).
    pub fn run(&mut self, query: &Query) -> (ExecOutcome, Vec<MissEvent>) {
        let mut ex = Executor::new(self.source.as_mut(), &mut self.cache);
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

/// A processor's cumulative storage-failover and per-partition heat
/// tallies, as it last reported them.
#[derive(Debug, Clone, Default)]
struct Tallies {
    failover: FailoverStats,
    heat: HeatMap,
}

impl Tallies {
    fn merge(&mut self, other: &Tallies) {
        self.failover.merge(&other.failover);
        self.heat.merge(&other.heat);
    }
}

/// The assembled routing stack both frontends drive.
pub struct Engine {
    config: EngineConfig,
    router: Router,
    workers: Vec<Worker>,
    timeline: Timeline,
    totals: EngineTotals,
    /// Per processor: dispatched, unacknowledged queries in dispatch
    /// order, at most `config.overlap.max(1)` of them.
    windows: Vec<Vec<(u64, Query)>>,
    /// Deaths that found a non-empty window to resubmit.
    windows_resubmitted: u64,
    /// Per processor: the live incarnation's last reported tallies.
    tallies: Vec<Tallies>,
    /// What dead incarnations reported before they went away.
    retired: Tallies,
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
            windows: vec![Vec::new(); p],
            windows_resubmitted: 0,
            tallies: vec![Tallies::default(); p],
            retired: Tallies::default(),
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

    /// Next query for `processor`, recorded in its dispatch window: own
    /// queue → global queue → steal. `None` when the window already holds
    /// [`EngineConfig::overlap`] (at least one) unacknowledged queries —
    /// checked before the router is consulted, so a refused call pops no
    /// queue, steals nothing and moves no strategy state — or when the
    /// router has nothing for it (a down processor gets nothing).
    pub fn next_for(&mut self, processor: usize) -> Option<(u64, Query)> {
        let window = &mut self.windows[processor];
        if window.len() >= self.config.overlap.max(1) {
            return None;
        }
        let picked = self.router.next_for(processor)?;
        window.push(picked);
        Some(picked)
    }

    /// Acknowledges `record.seq` from `record.processor`'s dispatch window
    /// (in any order) and records the completion into the timeline and
    /// totals, returning whether the seq was in the window. A seq that is
    /// not — acknowledged twice, never dispatched to that processor, or
    /// resubmitted after its death — counts nothing and returns `false`.
    pub fn complete(&mut self, record: QueryRecord, stats: &AccessStats) -> bool {
        let window = &mut self.windows[record.processor];
        let Some(pos) = window.iter().position(|&(seq, _)| seq == record.seq) else {
            return false;
        };
        window.remove(pos);
        self.totals.cache_hits += stats.cache_hits;
        self.totals.cache_misses += stats.cache_misses;
        self.totals.evictions += stats.evictions;
        self.timeline.push(record);
        true
    }

    /// Keeps `processor`'s latest cumulative tallies, as a completion
    /// carried them: each one rides only when it changed, so a default
    /// (empty) tally means "unchanged" and keeps the last report.
    pub fn report_tallies(&mut self, processor: usize, failover: FailoverStats, heat: HeatMap) {
        let live = &mut self.tallies[processor];
        if failover != FailoverStats::default() {
            live.failover = failover;
        }
        if !heat.is_empty() {
            live.heat = heat;
        }
    }

    /// Takes a dead processor out of rotation. Its queued work is
    /// redistributed through the strategy, then its unacknowledged
    /// dispatches are resubmitted in dispatch order under their original
    /// sequence numbers, and its last reported tallies are banked (a
    /// restarted processor reports from zero). No further queries are
    /// routed to it until [`Engine::mark_up`]. A no-op when it is down.
    pub fn mark_down(&mut self, processor: usize) {
        self.router.mark_down(processor);
        let window = std::mem::take(&mut self.windows[processor]);
        if !window.is_empty() {
            self.windows_resubmitted += 1;
        }
        for (seq, query) in window {
            self.router.submit(seq, query);
        }
        let banked = std::mem::take(&mut self.tallies[processor]);
        self.retired.merge(&banked);
    }

    /// Brings a processor back into rotation after a [`Engine::mark_down`]
    /// — the re-join path: a restarted processor re-dialling with its old
    /// id starts receiving routed work again. A no-op when the processor
    /// was never down.
    pub fn mark_up(&mut self, processor: usize) {
        self.router.mark_up(processor);
    }

    /// The measurements accumulated *so far*, as a wire-encodable
    /// snapshot — the router answers mid-run [`RunSnapshot`] requests with
    /// this without finishing the run. Failover and partition heat are the live processors' last reports plus what dead
    /// incarnations banked; `region_heat` is left empty for the wire
    /// router, which attributes dispatches to landmark regions.
    pub fn snapshot(&self) -> RunSnapshot {
        let mut tallies = self.retired.clone();
        for live in &self.tallies {
            tallies.merge(live);
        }
        RunSnapshot {
            queries: self.timeline.len() as u64,
            cache_hits: self.totals.cache_hits,
            cache_misses: self.totals.cache_misses,
            evictions: self.totals.evictions,
            stolen: self.router.stolen(),
            redials: tallies.failover.redials,
            replica_failovers: tallies.failover.replica_failovers,
            batches_resubmitted: tallies.failover.batches_resubmitted,
            windows_resubmitted: self.windows_resubmitted,
            per_processor: self.timeline.per_processor_counts(self.config.processors),
            partition_heat: tallies.heat,
            region_heat: HeatMap::new(),
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
    use grouting_embed::{EmbeddingConfig, LandmarkConfig};
    use grouting_graph::{GraphBuilder, NodeId};
    use grouting_storage::HashPartitioner;

    use crate::explore::{explore, Key, Model};

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
            ack(seq, 0),
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

    fn ack(seq: u64, processor: usize) -> QueryRecord {
        QueryRecord {
            seq,
            arrived: 0,
            started: 0,
            completed: 0,
            processor,
        }
    }

    #[test]
    fn a_full_window_leaves_the_router_untouched() {
        // Embed routing moves a processor's EMA mean on every dispatch
        // (Eq. 5), so a refused dispatch must not reach the router at all.
        let mut b = GraphBuilder::new();
        for i in 0..32 {
            b.add_edge(n(i), n((i + 1) % 32));
        }
        let landmarks = Landmarks::build(
            &b.build().unwrap(),
            &LandmarkConfig {
                count: 4,
                min_separation: 4,
            },
        );
        let embedding = Embedding::build(
            &landmarks,
            &EmbeddingConfig {
                dimensions: 3,
                landmark_sweeps: 1,
                landmark_iters: 50,
                node_iters: 20,
                nearest_landmarks: 4,
                seed: 7,
            },
        );
        let assets = loaded_assets(1).with_embedding(Some(Arc::new(embedding)));
        let cfg = EngineConfig {
            overlap: 1,
            ..EngineConfig::paper_default(2, RoutingKind::Embed)
        };
        let mut engine = Engine::new_router_only(&assets, &cfg);
        let queries: Vec<Query> = (0..8u32).map(q).collect();
        engine.admit(&mut queries.iter().copied().enumerate(), |_| {});
        assert!(engine.next_for(0).is_some());
        assert!(engine.next_for(1).is_some());
        let router_state = |e: &Engine| {
            let Strategy::Embed(ema) = e.router.strategy() else {
                unreachable!("embed routing")
            };
            let distances: Vec<f64> = (0..32)
                .flat_map(|v| (0..2).map(move |p| (v, p)))
                .map(|(v, p)| ema.distance(n(v), p))
                .collect();
            (e.router.loads(), e.pending(), e.router.stolen(), distances)
        };
        let before = router_state(&engine);
        assert_eq!(engine.next_for(0), None, "window of one is full");
        assert_eq!(engine.next_for(1), None, "window of one is full");
        assert_eq!(router_state(&engine), before);
    }

    #[test]
    fn zero_overlap_is_a_window_of_one() {
        let assets = loaded_assets(1);
        let cfg = EngineConfig {
            overlap: 0,
            ..EngineConfig::paper_default(1, RoutingKind::Hash)
        };
        let mut engine = Engine::new_router_only(&assets, &cfg);
        let queries: Vec<Query> = (0..3u32).map(q).collect();
        engine.admit(&mut queries.iter().copied().enumerate(), |_| {});
        let (seq, query) = engine.next_for(0).expect("work queued");
        assert_eq!(query, queries[seq as usize]);
        assert_eq!(engine.next_for(0), None, "one query in flight");
        assert!(engine.complete(ack(seq, 0), &AccessStats::default()));
        assert!(engine.next_for(0).is_some(), "the ack reopens the window");
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

    /// The one kill and the one rejoin an explored schedule may spend.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Phase {
        Live,
        Down(usize),
        Rejoined,
    }

    #[derive(Debug, Clone, Copy)]
    enum Action {
        Admit,
        Next(usize),
        Ack(usize, u64),
        Kill(usize),
        Rejoin,
    }

    /// An explored state: the engine plus what the schedule did to it.
    struct State {
        engine: Engine,
        /// Queries taken from the backlog so far.
        admitted: usize,
        /// Per seq: acknowledgements the engine accepted.
        completions: Vec<u32>,
        /// Per processor: acknowledgements in its current incarnation —
        /// the cumulative redial tally each acknowledgement reports.
        incarnation_acks: Vec<u64>,
        /// Kills that found a non-empty window.
        kills_with_window: u64,
        phase: Phase,
    }

    impl State {
        /// A copy, so the explorer can branch: a router-only engine has
        /// no workers.
        fn fork(&self) -> State {
            let e = &self.engine;
            State {
                engine: Engine {
                    config: e.config,
                    router: e.router.clone(),
                    workers: Vec::new(),
                    timeline: e.timeline.clone(),
                    totals: e.totals,
                    windows: e.windows.clone(),
                    windows_resubmitted: e.windows_resubmitted,
                    tallies: e.tallies.clone(),
                    retired: e.retired.clone(),
                },
                admitted: self.admitted,
                completions: self.completions.clone(),
                incarnation_acks: self.incarnation_acks.clone(),
                kills_with_window: self.kills_with_window,
                phase: self.phase,
            }
        }
    }

    /// Distinct per seq, so a lost or doubled acknowledgement shows in
    /// the totals.
    fn ack_stats(seq: u64) -> AccessStats {
        AccessStats {
            cache_hits: 1 << seq,
            cache_misses: 100 + seq,
            miss_bytes: 0,
            evictions: seq * seq + 1,
        }
    }

    /// Every schedule of admissions, dispatches and acknowledgements of
    /// `queries` over three processors, with one kill and one rejoin.
    struct Schedules(Vec<Query>);

    impl Model for Schedules {
        type State = State;
        type Action = Action;

        fn actions(&self, state: &State) -> (Vec<Action>, Vec<Action>) {
            let e = &state.engine;
            let mut work = Vec::new();
            if state.admitted < self.0.len() && e.pending() < e.config.window() {
                work.push(Action::Admit);
            }
            for p in 0..e.processors() {
                if e.windows[p].len() < e.config.overlap.max(1) && state.phase != Phase::Down(p) {
                    work.push(Action::Next(p));
                }
                for &(seq, _) in &e.windows[p] {
                    work.push(Action::Ack(p, seq));
                }
            }
            let faults = match state.phase {
                // Never the last live processor: only one kill, P = 3.
                Phase::Live => (0..e.processors()).map(Action::Kill).collect(),
                Phase::Down(_) => vec![Action::Rejoin],
                Phase::Rejoined => Vec::new(),
            };
            (work, faults)
        }

        /// The state after `action`, or `None` when the engine refused it
        /// (nothing to admit, nothing to dispatch).
        fn apply(&self, state: &State, action: Action) -> Option<State> {
            let queries = &self.0;
            let mut next = state.fork();
            let e = &mut next.engine;
            match action {
                Action::Admit => {
                    let from = next.admitted;
                    let mut backlog = queries.iter().copied().enumerate().skip(from);
                    e.admit(&mut backlog, |seq| {
                        assert_eq!(seq, next.admitted, "admission is in order");
                        next.admitted += 1;
                    });
                    if next.admitted == from {
                        return None;
                    }
                }
                Action::Next(p) => {
                    let (seq, query) = e.next_for(p)?;
                    assert_eq!(query, queries[seq as usize]);
                }
                Action::Ack(p, seq) => {
                    let acked = e.windows[p]
                        .iter()
                        .find(|&&(w, _)| w == seq)
                        .map(|&(_, q)| q);
                    assert_eq!(acked, Some(queries[seq as usize]), "ack {seq} from {p}");
                    assert!(
                        e.complete(ack(seq, p), &ack_stats(seq)),
                        "ack {seq} from {p}"
                    );
                    next.completions[seq as usize] += 1;
                    next.incarnation_acks[p] += 1;
                    let failover = FailoverStats {
                        redials: next.incarnation_acks[p],
                        ..FailoverStats::default()
                    };
                    e.report_tallies(p, failover, HeatMap::new());
                }
                Action::Kill(p) => {
                    if !e.windows[p].is_empty() {
                        next.kills_with_window += 1;
                    }
                    e.mark_down(p);
                    next.incarnation_acks[p] = 0;
                    next.phase = Phase::Down(p);
                }
                Action::Rejoin => {
                    let Phase::Down(p) = next.phase else {
                        unreachable!("rejoin follows a kill")
                    };
                    e.mark_up(p);
                    next.phase = Phase::Rejoined;
                }
            }
            Some(next)
        }

        /// A 128-bit hash of the canonical key: the router (up flags,
        /// counters, each queue front to back, then the global queue), the
        /// windows, totals, tallies (live and banked) and the explorer's own
        /// bookkeeping. Formatting the router's `Debug` instead triples an
        /// unoptimised test build's run time.
        fn key(&self, state: &State) -> u128 {
            let e = &state.engine;
            let mut h = Key::default();
            let mut put = |word: u64| h.put(word);
            // Own queues pop front first, so draining a copy `loads[p]`
            // times from each processor reads every queue in order; what
            // is left is the global queue.
            let router = &e.router;
            let mut drain = router.clone();
            for p in 0..e.processors() {
                put(u64::from(router.is_up(p)));
                drain.mark_up(p);
            }
            put(router.stolen());
            put(router.dispatched());
            for (p, load) in router.loads().into_iter().enumerate() {
                put(load as u64);
                for _ in 0..load {
                    put(drain.next_for(p).expect("own queue").0);
                }
            }
            while let Some((seq, _)) = drain.next_for(0) {
                put(seq);
            }
            for window in &e.windows {
                put(window.len() as u64);
                window.iter().for_each(|&(seq, _)| put(seq));
            }
            let t = e.totals;
            [t.cache_hits, t.cache_misses, t.evictions]
                .into_iter()
                .for_each(&mut put);
            for tally in e.tallies.iter().chain([&e.retired]) {
                let fo = tally.failover;
                [fo.redials, fo.replica_failovers, fo.batches_resubmitted]
                    .into_iter()
                    .for_each(&mut put);
                put(u64::from(tally.heat.is_empty()));
            }
            put(e.windows_resubmitted);
            put(e.timeline.len() as u64);
            state.completions.iter().for_each(|&c| put(c.into()));
            state.incarnation_acks.iter().for_each(|&acks| put(acks));
            put(state.admitted as u64);
            put(match state.phase {
                Phase::Live => 0,
                Phase::Down(p) => 1 + p as u64,
                Phase::Rejoined => 0xFF,
            });
            h.finish()
        }

        /// The invariants every reachable state must hold.
        fn check(&mut self, state: &mut State) {
            let queries = &self.0;
            let e = &state.engine;
            let procs = e.processors();
            // Where each seq is: drain a copy of the router's queues.
            let mut queued = vec![0u32; queries.len()];
            let mut router = e.router.clone();
            for p in 0..procs {
                router.mark_up(p);
            }
            for p in 0..procs {
                while let Some((seq, _)) = router.next_for(p) {
                    queued[seq as usize] += 1;
                }
            }
            for (seq, &done) in state.completions.iter().enumerate() {
                let windowed = e
                    .windows
                    .iter()
                    .flatten()
                    .filter(|&&(s, _)| s == seq as u64)
                    .count() as u32;
                let expected = u32::from(seq < state.admitted);
                assert_eq!(
                    queued[seq] + windowed + done,
                    expected,
                    "seq {seq}: queued {}, windowed {windowed}, completed {done}",
                    queued[seq]
                );
            }
            for (p, window) in e.windows.iter().enumerate() {
                assert!(
                    window.len() <= e.config.overlap.max(1),
                    "window {p} overflows"
                );
                if state.phase == Phase::Down(p) {
                    assert!(window.is_empty(), "down processor {p} holds a window");
                }
            }
            let snap = e.snapshot();
            let done: Vec<u64> = (0..queries.len() as u64)
                .filter(|&s| state.completions[s as usize] == 1)
                .collect();
            let acks: u64 = state.completions.iter().map(|&c| u64::from(c)).sum();
            assert_eq!(snap.queries, acks);
            let sum =
                |f: fn(&AccessStats) -> u64| done.iter().map(|&s| f(&ack_stats(s))).sum::<u64>();
            assert_eq!(snap.cache_hits, sum(|a| a.cache_hits));
            assert_eq!(snap.cache_misses, sum(|a| a.cache_misses));
            assert_eq!(snap.evictions, sum(|a| a.evictions));
            assert_eq!(snap.windows_resubmitted, state.kills_with_window);
            assert_eq!(snap.redials, acks, "banking lost or doubled a tally");

            // A stray acknowledgement — a duplicate, another processor's seq
            // or one never dispatched — counts nothing and changes nothing.
            let stray = (0..procs)
                .flat_map(|p| (0..=queries.len() as u64).map(move |s| (p, s)))
                .find(|&(p, s)| {
                    !e.windows[p].iter().any(|&(w, _)| w == s)
                        && (state.completions.get(s as usize) == Some(&1)
                            || e.windows.iter().flatten().any(|&(w, _)| w == s))
                })
                .unwrap_or((0, queries.len() as u64));
            let (p, seq) = stray;
            let e = &mut state.engine;
            assert!(!e.complete(ack(seq, p), &ack_stats(seq)), "stray {stray:?}");
            // A full window or a down processor gets nothing, and the refusal
            // moves nothing either.
            for p in 0..procs {
                if e.windows[p].len() >= e.config.overlap.max(1) || state.phase == Phase::Down(p) {
                    assert_eq!(e.next_for(p), None, "dispatch past window or to down {p}");
                }
            }
        }

        fn terminal(&mut self, state: &State) {
            assert_eq!(state.admitted, self.0.len(), "wedged before admitting all");
            assert!(
                state.completions.iter().all(|&c| c == 1),
                "terminal state {:?} with {:?}",
                state.phase,
                state.completions
            );
        }
    }

    /// Explores every interleaving for one configuration: 3 processors,
    /// 4 queries, an admission window of 2, one kill and one rejoin.
    fn explore_router(routing: RoutingKind, stealing: bool, overlap: usize, floor: usize) {
        const PROCESSORS: usize = 3;
        // Hash sends anchors 0, 3 and 6 to processor 0, so stealing and
        // redistribution both have work to move.
        let queries: Vec<Query> = [0, 3, 1, 6].into_iter().map(q).collect();
        let cfg = EngineConfig {
            stealing,
            overlap,
            admission_window: 2,
            ..EngineConfig::paper_default(PROCESSORS, routing)
        };
        let root = State {
            engine: Engine::new_router_only(&loaded_assets(1), &cfg),
            admitted: 0,
            completions: vec![0; queries.len()],
            incarnation_acks: vec![0; PROCESSORS],
            kills_with_window: 0,
            phase: Phase::Live,
        };
        let name = format!("{routing} stealing={stealing} overlap={overlap}");
        explore(&mut Schedules(queries), root, &name, floor);
    }

    #[test]
    fn explore_hash_with_stealing_overlap_1() {
        explore_router(RoutingKind::Hash, true, 1, 10_000);
    }

    #[test]
    fn explore_hash_with_stealing_overlap_2() {
        explore_router(RoutingKind::Hash, true, 2, 30_000);
    }

    #[test]
    fn explore_hash_without_stealing_overlap_1() {
        explore_router(RoutingKind::Hash, false, 1, 500);
    }

    #[test]
    fn explore_hash_without_stealing_overlap_2() {
        explore_router(RoutingKind::Hash, false, 2, 1_000);
    }

    #[test]
    fn explore_next_ready_overlap_1() {
        explore_router(RoutingKind::NextReady, true, 1, 5_000);
    }

    #[test]
    fn explore_next_ready_overlap_2() {
        explore_router(RoutingKind::NextReady, true, 2, 15_000);
    }
}
