//! The isolated layer pass: the workload's queries replayed on one thread
//! through each layer's *public* functions in wire order, with an
//! in-memory span around every call. Nothing in the program is edited to
//! get these numbers; they say what each layer costs with nothing else
//! contending, which is the floor the end-to-end numbers sit on.
//!
//! Wire order per query: Submit codec → routing decision → engine
//! admission → Dispatch codec → staged execution (per frontier: step,
//! fetch-request codec, storage `get_many`, fetch-response encode and
//! decode, step …) → Completion codec on both hops.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grouting_core::cache::{Cache, LruCache};
use grouting_core::engine::{Engine, EngineAssets, EngineConfig};
use grouting_core::graph::codec::AdjacencyRecord;
use grouting_core::graph::NodeId;
use grouting_core::metrics::timeline::QueryRecord;
use grouting_core::metrics::{FailoverStats, HeatMap};
use grouting_core::query::{
    AccessStats, BatchSource, CacheBackedStore, ExecOutcome, Executor, PrefetchStats,
    ProcessorCache, Query, StagedQuery, Step,
};
use grouting_core::route::{EmbedRouter, Router, RouterConfig, RoutingKind, Strategy};
use grouting_core::storage::{NetworkModel, StorageTier};
use grouting_core::wire::{
    Completion, Frame, MultiplexedStorageSource, PollerKind, QueryPipeline, WireResult,
};

use crate::cluster::{engine_config, spawn_storage, tcp_transport};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::setup::Prepared;
use crate::spec::{self, Workload};
use crate::sys::{median, ratio};

/// One recorded call. `parent` indexes the span that caused it (-1 for a
/// query's root span); spans of one query share its `seq`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: i64,
    pub seq: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: i64, seq: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            seq,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) -> u64 {
        self.spans[id].end_ns = self.now();
        self.spans[id].ns()
    }

    /// Records `f` as a child span of `parent`.
    fn child<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let seq = self.spans[parent].seq;
        let id = self.begin(name, parent as i64, seq);
        let out = f();
        self.end(id);
        out
    }
}

/// Count and total time of one kind of cache operation.
#[derive(Default)]
struct OpTally {
    count: AtomicU64,
    ns: AtomicU64,
}

impl OpTally {
    fn add(&self, started: Instant) {
        self.count.fetch_add(1, Relaxed);
        self.ns
            .fetch_add(started.elapsed().as_nanos() as u64, Relaxed);
    }

    fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }
}

#[derive(Default)]
struct CacheOps {
    get: OpTally,
    insert: OpTally,
    contains: OpTally,
    evicted: AtomicU64,
}

impl CacheOps {
    fn total_ns(&self) -> u64 {
        self.get.ns() + self.insert.ns() + self.contains.ns()
    }

    fn reset(&self) {
        for tally in [&self.get, &self.insert, &self.contains] {
            tally.count.store(0, Relaxed);
            tally.ns.store(0, Relaxed);
        }
        self.evicted.store(0, Relaxed);
    }
}

/// An LRU cache that times every operation the query layer makes on it —
/// the cache layer measured where the work happens, without touching the
/// cache crate.
struct TimedCache {
    inner: LruCache<NodeId, Arc<AdjacencyRecord>>,
    ops: Arc<CacheOps>,
}

impl Cache<NodeId, Arc<AdjacencyRecord>> for TimedCache {
    fn get(&mut self, key: &NodeId) -> Option<&Arc<AdjacencyRecord>> {
        let t = Instant::now();
        let out = self.inner.get(key);
        self.ops.get.add(t);
        out
    }

    fn insert(
        &mut self,
        key: NodeId,
        value: Arc<AdjacencyRecord>,
        bytes: usize,
    ) -> Vec<(NodeId, Arc<AdjacencyRecord>)> {
        let t = Instant::now();
        let out = self.inner.insert(key, value, bytes);
        self.ops.insert.add(t);
        self.ops.evicted.fetch_add(out.len() as u64, Relaxed);
        out
    }

    fn contains(&self, key: &NodeId) -> bool {
        let t = Instant::now();
        let out = self.inner.contains(key);
        self.ops.contains.add(t);
        out
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
        self.inner.clear();
    }
}

/// The cost of one `Instant::now()` + `elapsed()` pair, which every timed
/// cache operation carries and the per-op figures subtract.
fn clock_pair_ns() -> f64 {
    const ROUNDS: u32 = 20_000;
    let t = Instant::now();
    for _ in 0..ROUNDS {
        black_box(Instant::now().elapsed());
    }
    t.elapsed().as_nanos() as f64 / f64::from(ROUNDS)
}

/// A router of the workload's strategy with stealing off, so that after a
/// `submit` exactly one processor's `next_for` yields the query.
fn isolated_router(assets: &EngineAssets, config: &EngineConfig) -> Router {
    let strategy = match config.routing {
        RoutingKind::Embed => Strategy::Embed(EmbedRouter::new(
            Arc::clone(assets.embedding.as_ref().expect("embedding was built")),
            config.processors,
            config.alpha,
            config.seed,
        )),
        _ => Strategy::Hash,
    };
    Router::new(
        strategy,
        config.processors,
        RouterConfig {
            load_factor: config.load_factor,
            stealing: false,
        },
    )
}

fn encdec(frame: &Frame) -> Frame {
    Frame::decode(black_box(frame.encode())).expect("own encoding decodes")
}

/// What the pass produced: the spans, and the per-layer metrics and
/// counters derived from them.
pub struct LayerPass {
    pub spans: Vec<Span>,
    pub metrics: Metrics,
    pub counters: Metrics,
}

#[derive(Default)]
struct Sums {
    staged_steps: u64,
    staged_self_ns: u64,
    records: u64,
    fetch_records: u64,
    fetch_bytes: u64,
    resp_decode_ns: u64,
    plan_apply_ns: u64,
    plan_apply_nodes: u64,
    completion_bytes: u64,
}

/// The state one replay threads through every query: the recorder, the
/// tier, the timed cache with its tallies, and the shadow cache.
struct Replay<'a> {
    rec: Recorder,
    tier: &'a StorageTier,
    cache: ProcessorCache,
    /// A second cache of the same size that only ever sees plan/apply calls
    /// over the same frontiers: `plan_many` + `apply_many` timed on their
    /// own, with a realistic hit/miss mix.
    shadow: ProcessorCache,
    ops: Arc<CacheOps>,
    sums: Sums,
}

/// Replays `spec::LAYER_PASS_QUERIES` queries of the measured stream.
pub fn layer_pass(prepared: &Prepared, workload: &Workload) -> LayerPass {
    let config = EngineConfig {
        stealing: false,
        ..engine_config(workload, workload.routing)
    };
    let mut router = isolated_router(&prepared.assets, &config);
    let mut engine = Engine::new_router_only(&prepared.assets, &config);
    let ops = Arc::new(CacheOps::default());
    let mut replay = Replay {
        rec: Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        },
        tier: &prepared.tier,
        cache: Box::new(TimedCache {
            inner: LruCache::new(workload.cache_bytes),
            ops: Arc::clone(&ops),
        }),
        shadow: Box::new(LruCache::new(workload.cache_bytes)),
        ops: Arc::clone(&ops),
        sums: Sums::default(),
    };
    let clock_ns = clock_pair_ns();
    let first = workload.warm as u64;
    // Both caches start where the measured stream finds the cluster's: after
    // the warm-up queries, run here untimed.
    for warmed in [&mut replay.cache, &mut replay.shadow] {
        let mut executor = Executor::new(replay.tier, warmed);
        for seq in 0..first {
            black_box(executor.run(&prepared.query(seq)));
        }
    }
    ops.reset();
    replay.rec.epoch = Instant::now();
    let mut heat = HeatMap::new();

    for seq in first..first + spec::LAYER_PASS_QUERIES as u64 {
        let query = prepared.query(seq);
        let root = replay.rec.begin("query", -1, seq);

        replay.rec.child("wire.frame.submit_encdec", root, || {
            black_box(encdec(&Frame::Submit {
                seq,
                query,
                submitted_ns: None,
            }))
        });
        replay.rec.child("route.decision", root, || {
            router.submit(seq, query);
            black_box((0..spec::PROCESSORS).find_map(|p| router.next_for(p)))
        });
        replay.rec.child("engine.admit_dispatch", root, || {
            engine.admit(&mut std::iter::once((seq as usize, query)), |_| {});
            let picked = (0..spec::PROCESSORS).find_map(|p| engine.next_for(p).map(|_| p));
            engine.complete(
                QueryRecord {
                    seq,
                    arrived: 0,
                    started: 0,
                    completed: 0,
                    processor: picked.unwrap_or(0),
                },
                &AccessStats::default(),
            );
        });
        replay.rec.child("wire.frame.dispatch_encdec", root, || {
            black_box(encdec(&Frame::Dispatch {
                seq,
                query,
                trace: None,
            }))
        });

        let outcome = replay.execute(root, query);
        replay.sums.records += outcome.stats.accesses();
        heat.record_demand(
            seq as usize % spec::STORAGE_SERVERS,
            outcome.stats.cache_misses,
        );

        let completion = Frame::Completion(Completion {
            seq,
            processor: 0,
            result: outcome.result,
            stats: outcome.stats,
            prefetch: PrefetchStats::default(),
            failover: FailoverStats::default(),
            arrived_ns: 0,
            started_ns: replay.rec.spans[root].start_ns,
            completed_ns: replay.rec.now(),
            heat: heat.clone(),
            trace: None,
        });
        replay.sums.completion_bytes += completion.encoded_len() as u64;
        // Processor → router, then router → client: encoded and decoded on
        // each hop.
        for _hop in 0..2 {
            replay.rec.child("wire.frame.completion_encdec", root, || {
                black_box(encdec(&completion))
            });
        }
        replay.rec.end(root);
    }

    let n = spec::LAYER_PASS_QUERIES as f64;
    let span_sum = |name: &str| -> (f64, f64) {
        let (mut ns, mut count) = (0u64, 0u64);
        for s in replay.rec.spans.iter().filter(|s| s.name == name) {
            ns += s.ns();
            count += 1;
        }
        (ns as f64, count as f64)
    };
    let per_call = |name: &str| {
        let (ns, count) = span_sum(name);
        ratio(ns, count)
    };
    let op_ns = |t: &OpTally| (ratio(t.ns() as f64, t.count() as f64) - clock_ns).max(0.0);

    let mut m = Metrics::new();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_string(), v);
    };
    put("route.decision_ns", per_call("route.decision"));
    put(
        "engine.admit_dispatch_ns",
        per_call("engine.admit_dispatch"),
    );
    put("cache.get_ns", op_ns(&ops.get));
    put("cache.insert_evict_ns", op_ns(&ops.insert));
    put(
        "query.staged_step_ns",
        ratio(
            replay.sums.staged_self_ns as f64,
            replay.sums.staged_steps as f64,
        ),
    );
    put(
        "query.exec_ns_per_record",
        ratio(
            replay.sums.staged_self_ns as f64,
            replay.sums.records as f64,
        ),
    );
    put(
        "query.plan_apply_ns_per_node",
        ratio(
            replay.sums.plan_apply_ns as f64,
            replay.sums.plan_apply_nodes as f64,
        ),
    );
    put(
        "storage.get_many_ns_per_record",
        ratio(
            span_sum("storage.get_many").0,
            replay.sums.fetch_records as f64,
        ),
    );
    put(
        "storage.bytes_per_record",
        ratio(
            replay.sums.fetch_bytes as f64,
            replay.sums.fetch_records as f64,
        ),
    );
    put(
        "wire.frame.submit_encdec_ns",
        per_call("wire.frame.submit_encdec"),
    );
    put(
        "wire.frame.dispatch_encdec_ns",
        per_call("wire.frame.dispatch_encdec"),
    );
    put(
        "wire.frame.completion_encdec_ns",
        per_call("wire.frame.completion_encdec"),
    );
    put(
        "wire.frame.completion_bytes",
        replay.sums.completion_bytes as f64 / n,
    );
    put(
        "wire.frame.fetch_resp_decode_ns_per_kib",
        ratio(
            replay.sums.resp_decode_ns as f64,
            replay.sums.fetch_bytes as f64 / 1024.0,
        ),
    );
    // Every span below a root is a layer call; what the roots spend outside
    // them is this harness's own bookkeeping and is not counted, and neither
    // are the clock reads the timed cache adds inside the staged steps.
    let explained_ns: u64 = replay
        .rec
        .spans
        .iter()
        .filter(|s| s.parent >= 0)
        .map(Span::ns)
        .sum();
    let cache_ops = ops.get.count() + ops.insert.count() + ops.contains.count();
    put(
        "budget.cpu_explained_us_per_query",
        (explained_ns as f64 - cache_ops as f64 * clock_ns).max(0.0) / n / 1e3,
    );

    let mut counters = Metrics::new();
    for (name, tally) in [
        ("cache.get", &ops.get),
        ("cache.insert", &ops.insert),
        ("cache.contains", &ops.contains),
    ] {
        counters.insert(format!("{name}.count"), tally.count() as f64);
        counters.insert(format!("{name}.total_ns"), tally.ns() as f64);
    }
    counters.insert(
        "cache.evicted.count".into(),
        ops.evicted.load(Relaxed) as f64,
    );
    counters.insert("clock_pair_ns".into(), clock_ns);
    counters.insert("storage.records".into(), replay.sums.fetch_records as f64);
    counters.insert("storage.bytes".into(), replay.sums.fetch_bytes as f64);
    counters.insert("query.records".into(), replay.sums.records as f64);
    counters.insert("query.staged_steps".into(), replay.sums.staged_steps as f64);

    LayerPass {
        spans: replay.rec.spans,
        metrics: m,
        counters,
    }
}

impl Replay<'_> {
    /// Runs one query as the overlapped processor does — resumable steps
    /// with the frontier fetch in between — but with every hop of the fetch
    /// made explicit and timed: request codec, storage read, response codec.
    fn execute(&mut self, root: usize, query: Query) -> ExecOutcome {
        let Replay {
            rec,
            tier,
            cache,
            shadow,
            ops,
            sums,
        } = self;
        let tier: &StorageTier = tier;
        let seq = rec.spans[root].seq;
        let mut staged = StagedQuery::new(query);
        let mut payloads = None;
        let mut req_id = 0u64;
        // `get_many` shaped as the storage service answers it.
        let mut source = tier;
        loop {
            let cache_before = ops.total_ns();
            let id = rec.begin("query.staged_step", root as i64, seq);
            let step = {
                let mut store = CacheBackedStore::new(tier, cache);
                staged.resume(&mut store, payloads.take())
            };
            let step_ns = rec.end(id);
            sums.staged_steps += 1;
            sums.staged_self_ns += step_ns.saturating_sub(ops.total_ns() - cache_before);

            let miss = match step {
                Step::Done(outcome) => return outcome,
                Step::Fetch(miss) => miss,
            };

            // plan_many + apply_many alone, on the shadow cache (not a span:
            // it is not on the query's path).
            let frontier = staged.frontier().to_vec();
            let mut store = CacheBackedStore::new(tier, shadow);
            let t = Instant::now();
            let shadow_miss = store.plan_many(&frontier);
            let mut plan_apply = t.elapsed();
            let got = source.fetch_batch(&shadow_miss);
            let t = Instant::now();
            black_box(store.apply_many(&frontier, &shadow_miss, got));
            plan_apply += t.elapsed();
            sums.plan_apply_ns += plan_apply.as_nanos() as u64;
            sums.plan_apply_nodes += frontier.len() as u64;

            req_id += 1;
            rec.child("wire.frame.fetch_req_encdec", root, || {
                black_box(encdec(&Frame::FetchBatchRequest {
                    req_id,
                    nodes: miss.clone(),
                    issued_ns: None,
                }))
            });
            let got = rec.child("storage.get_many", root, || source.fetch_batch(&miss));
            sums.fetch_records += got.iter().flatten().count() as u64;
            sums.fetch_bytes += got
                .iter()
                .flatten()
                .map(|(_, b)| b.len() as u64)
                .sum::<u64>();
            let response = Frame::FetchBatchResponse {
                req_id,
                payloads: got,
            };
            // The send path scatter-gathers `encode_chunks`; the receive path
            // decodes one contiguous buffer.
            rec.child("wire.frame.fetch_resp_encode", root, || {
                black_box(response.encode_chunks())
            });
            let bytes = response.encode();
            let id = rec.begin("wire.frame.fetch_resp_decode", root as i64, seq);
            let decoded = Frame::decode(bytes).expect("own encoding decodes");
            sums.resp_decode_ns += rec.end(id);
            let Frame::FetchBatchResponse { payloads: got, .. } = decoded else {
                unreachable!("decoded what was encoded");
            };
            payloads = Some(got);
        }
    }
}

/// Median wall time of `f` in nanoseconds over `rounds` calls.
fn median_ns(rounds: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Layer measurements that need live peers: the fetch-request codec at a
/// fixed frontier size, one fetch round trip and one 64-node frontier
/// against real storage endpoints on loopback, and a single processor's
/// overlapped pipeline against storage with no router in front.
pub fn live_layers(prepared: &Prepared, workload: &Workload) -> WireResult<Metrics> {
    let mut m = Metrics::new();
    let frontier: Vec<NodeId> = (0..64u32).map(NodeId::new).collect();

    let request = Frame::FetchBatchRequest {
        req_id: 1,
        nodes: frontier.clone(),
        issued_ns: None,
    };
    m.insert(
        "wire.frame.fetch_req_encdec_ns".into(),
        median_ns(2000, || {
            black_box(encdec(&request));
        }),
    );

    let transport = tcp_transport();
    let partitioner = prepared.tier.partitioner();
    let source_for = |addrs: &[String]| {
        MultiplexedStorageSource::with_poller(
            Arc::clone(&transport),
            addrs,
            Arc::clone(&partitioner),
            PollerKind::default_for_host(),
        )
    };

    let storage = spawn_storage(&transport, &prepared.assets, NetworkModel::local(), &None)?;
    let addrs: Vec<String> = storage.iter().map(|h| h.addr().to_string()).collect();
    {
        let mut conn = transport.dial(&addrs[0])?;
        let one = Frame::FetchBatchRequest {
            req_id: 1,
            nodes: vec![frontier[0]],
            issued_ns: None,
        };
        let mut failure = None;
        let rtt = median_ns(2000, || {
            if let Err(e) = conn.request(&one) {
                failure.get_or_insert(e);
            }
        });
        if let Some(e) = failure {
            return Err(e);
        }
        m.insert("wire.transport.tcp_rtt_us".into(), rtt / 1e3);
    }
    {
        let mut source = source_for(&addrs);
        let us = median_ns(500, || {
            black_box(source.fetch_batch(&frontier));
        }) / 1e3;
        m.insert("wire.flow.frontier64_us".into(), us);
    }
    for handle in storage {
        handle.shutdown();
    }

    let storage = spawn_storage(&transport, &prepared.assets, workload.net, &None)?;
    let addrs: Vec<String> = storage.iter().map(|h| h.addr().to_string()).collect();
    let qps = {
        let mut source = source_for(&addrs);
        let mut cache: ProcessorCache = Box::new(LruCache::new(workload.cache_bytes));
        let mut pipeline = QueryPipeline::new(engine_config(workload, workload.routing).overlap);
        let first = workload.warm as u64;
        for seq in first..first + spec::LAYER_PASS_QUERIES as u64 {
            pipeline.push(seq, prepared.query(seq));
        }
        let t = Instant::now();
        while !pipeline.is_idle() {
            if pipeline.step(&mut source, &mut cache)?.is_empty() {
                source.idle_wait(Duration::from_millis(1));
            } else {
                source.note_progress();
            }
        }
        spec::LAYER_PASS_QUERIES as f64 / t.elapsed().as_secs_f64()
    };
    m.insert("wire.overlap.pipeline_qps_1proc".into(), qps);
    for handle in storage {
        handle.shutdown();
    }
    Ok(m)
}

/// The span file: every span with its parent link and per-query `seq`,
/// plus the counters taken at the same boundaries.
pub fn trace_json(workload: &Workload, seed: u64, pass: &LayerPass) -> Json {
    let spans = pass
        .spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("seq", Json::Num(s.seq as f64)),
            ])
        })
        .collect();
    let counters = pass
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), Json::Num(*v)));
    Json::obj([
        ("workload", Json::Str(workload.name.to_string())),
        ("seed", Json::Num(seed as f64)),
        ("clock", Json::Str("ns since the pass began".to_string())),
        ("counters", Json::obj(counters)),
        ("spans", Json::Arr(spans)),
    ])
}
