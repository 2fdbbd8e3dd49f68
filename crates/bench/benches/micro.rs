//! Criterion micro-benchmarks of the performance-critical primitives:
//! MurmurHash3, LRU operations, BFS traversal, per-strategy routing
//! decisions, the Simplex-Downhill minimiser, and the wire path (frame
//! encode/decode plus transport round trips).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use grouting_core::cache::{Cache, LruCache};
use grouting_core::embed::landmarks::{LandmarkConfig, Landmarks};
use grouting_core::embed::simplex::{minimize, SimplexOptions};
use grouting_core::embed::{EmbeddingConfig, ProcessorDistanceTable};
use grouting_core::gen::community::{generate, CommunityConfig};
use grouting_core::graph::traversal::{bfs_distances, Direction};
use grouting_core::graph::NodeId;
use grouting_core::query::Query;
use grouting_core::route::{EmbedRouter, Strategy};
use grouting_core::storage::murmur3::hash_node;
use grouting_core::storage::{HashPartitioner, Partitioner};

fn bench_graph() -> grouting_core::graph::CsrGraph {
    generate(
        &CommunityConfig {
            nodes: 20_000,
            community_size: 200,
            edges: 200_000,
            cross_fraction: 0.05,
            shortcut_fraction: 0.01,
        },
        7,
    )
}

/// TCP, or the in-proc fabric (Unix-domain sockets) where
/// `GROUTING_NO_SOCKETS=1` says the sandbox has no loopback.
fn env_transport() -> grouting_core::wire::TransportKind {
    use grouting_core::engine::EngineConfig;
    use grouting_core::route::RoutingKind;
    let engine = EngineConfig::paper_default(1, RoutingKind::Hash);
    grouting_core::wire::ClusterConfig::from_env(engine).transport
}

/// A storage endpoint on an ephemeral address charging `net` per exchange.
fn spawn_storage(
    transport: &Arc<dyn grouting_core::wire::Transport>,
    tier: &Arc<grouting_core::storage::StorageTier>,
    net: grouting_core::storage::NetworkModel,
) -> grouting_core::wire::ServiceHandle {
    use grouting_core::wire::{StorageOptions, StorageService};
    StorageService::spawn_opts(
        Arc::clone(transport),
        &transport.any_addr(),
        Arc::clone(tier),
        StorageOptions {
            net,
            ..StorageOptions::default()
        },
    )
    .unwrap()
}

fn murmur(c: &mut Criterion) {
    if !criterion::group_enabled("murmur3") {
        return;
    }
    let mut g = c.benchmark_group("murmur3");
    g.bench_function("x86_32_node_id", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            std::hint::black_box(hash_node(i, 0x9747_b28c))
        })
    });
    g.finish();
}

fn lru(c: &mut Criterion) {
    if !criterion::group_enabled("lru") {
        return;
    }
    let mut g = c.benchmark_group("lru");
    g.bench_function("insert_evict", |b| {
        b.iter_batched(
            || LruCache::<u32, u64>::new(64 * 100),
            |mut cache| {
                for i in 0..1000u32 {
                    cache.insert(i, i as u64, 64);
                }
                cache
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("hit_get", |b| {
        let mut cache = LruCache::<u32, u64>::new(1 << 20);
        for i in 0..1000u32 {
            cache.insert(i, i as u64, 64);
        }
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 1000;
            std::hint::black_box(cache.get(&i).copied())
        })
    });
    g.finish();
}

fn bfs(c: &mut Criterion) {
    if !criterion::group_enabled("bfs") {
        return;
    }
    let graph = bench_graph();
    let mut g = c.benchmark_group("bfs");
    g.sample_size(20);
    g.bench_function("full_bfs_20k_nodes", |b| {
        b.iter(|| std::hint::black_box(bfs_distances(&graph, NodeId::new(0), Direction::Both)))
    });
    g.finish();
}

fn routing_decision(c: &mut Criterion) {
    if !criterion::group_enabled("routing_decision") {
        return;
    }
    let graph = bench_graph();
    let landmarks = Landmarks::build(
        &graph,
        &LandmarkConfig {
            count: 32,
            min_separation: 3,
        },
    );
    let table = ProcessorDistanceTable::build(&landmarks, 7);
    let embedding = std::sync::Arc::new(grouting_core::embed::embedding::Embedding::build(
        &landmarks,
        &EmbeddingConfig {
            dimensions: 10,
            landmark_sweeps: 1,
            landmark_iters: 100,
            node_iters: 30,
            nearest_landmarks: 8,
            seed: 1,
        },
    ));
    let loads = vec![3usize, 1, 4, 1, 5, 9, 2];
    let up = vec![true; 7];
    let strategies: Vec<(&str, Strategy)> = vec![
        ("hash", Strategy::Hash),
        ("landmark", Strategy::Landmark(table)),
        (
            "embed",
            Strategy::Embed(EmbedRouter::new(embedding, 7, 0.9, 1)),
        ),
    ];
    let mut g = c.benchmark_group("routing_decision");
    for (name, strategy) in &strategies {
        g.bench_function(name, |b| {
            let mut i = 0u32;
            b.iter(|| {
                i = (i + 1) % 20_000;
                let q = Query::NeighborAggregation {
                    node: NodeId::new(i),
                    hops: 2,
                    label: None,
                };
                std::hint::black_box(strategy.preferred(&q, &loads, &up, 20.0))
            })
        });
    }
    g.finish();
}

fn partitioning(c: &mut Criterion) {
    if !criterion::group_enabled("partition") {
        return;
    }
    let mut g = c.benchmark_group("partition");
    g.bench_function("hash_assign", |b| {
        let p = HashPartitioner::new(4);
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            std::hint::black_box(p.assign(NodeId::new(i)))
        })
    });
    g.finish();
}

fn simplex(c: &mut Criterion) {
    if !criterion::group_enabled("simplex") {
        return;
    }
    let mut g = c.benchmark_group("simplex");
    g.bench_function("rosenbrock_2d", |b| {
        b.iter(|| {
            minimize(
                |x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
                &[-1.2, 1.0],
                &SimplexOptions {
                    max_iters: 200,
                    tolerance: 1e-9,
                    initial_step: 0.5,
                },
            )
        })
    });
    g.finish();
}

fn wire_frames(c: &mut Criterion) {
    if !criterion::group_enabled("wire_frame") {
        return;
    }
    use grouting_core::query::AccessStats;
    use grouting_core::wire::{Completion, Frame};

    let dispatch = Frame::Dispatch {
        seq: 123_456,
        query: Query::NeighborAggregation {
            node: NodeId::new(42),
            hops: 2,
            label: None,
        },
        trace: None,
    };
    let completion = Frame::Completion(Completion {
        seq: 123_456,
        processor: 3,
        result: grouting_core::query::QueryResult::Count(97),
        stats: AccessStats {
            cache_hits: 80,
            cache_misses: 17,
            miss_bytes: 4096,
            evictions: 2,
        },
        prefetch: grouting_core::query::PrefetchStats,
        failover: grouting_core::metrics::FailoverStats::default(),
        arrived_ns: 1,
        started_ns: 2,
        completed_ns: 3,
        heat: {
            let mut h = grouting_core::metrics::HeatMap::new();
            h.record_demand(1, 17);
            h.record_demand(2, 4);
            h
        },
        trace: None,
    });
    let fetch_response = Frame::FetchBatchResponse {
        req_id: 42,
        payloads: vec![Some((1, bytes::Bytes::from(vec![0xA5u8; 256])))],
    };

    let mut g = c.benchmark_group("wire_frame");
    for (name, frame) in [
        ("dispatch", &dispatch),
        ("completion", &completion),
        ("fetch_response_256B", &fetch_response),
    ] {
        g.bench_function(&format!("encode_{name}"), |b| {
            b.iter(|| std::hint::black_box(frame.encode()))
        });
        let encoded = frame.encode();
        g.bench_function(&format!("decode_{name}"), |b| {
            b.iter(|| std::hint::black_box(Frame::decode(encoded.clone()).unwrap()))
        });
    }
    g.finish();
}

fn wire_frontier_fetch(c: &mut Criterion) {
    if !criterion::group_enabled("wire_fetch_frontier64")
        && !criterion::group_enabled("wire_bfs_2hop")
    {
        return;
    }
    use grouting_core::cache::NullCache;
    use grouting_core::engine::Worker;
    use grouting_core::query::{BatchSource, ProcessorCache};
    use grouting_core::storage::{NetworkModel, StorageTier};
    use grouting_core::wire::{MultiplexedStorageSource, TcpTransport, Transport, TransportKind};

    if env_transport() == TransportKind::InProc {
        // No loopback in this sandbox; the group times a TCP deployment,
        // so skip rather than publish a Unix-socket number under its name.
        return;
    }

    // A real storage deployment on TCP loopback: the graph sharded over 3
    // socket endpoints, queried by a worker whose cache never retains
    // (NullCache), so every frontier node is a wire fetch each iteration.
    let graph = bench_graph();
    let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(3))));
    tier.load_graph(&graph).unwrap();
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let handles: Vec<_> = (0..tier.server_count())
        .map(|_| spawn_storage(&transport, &tier, NetworkModel::local()))
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();

    // A frontier of 64 known-stored nodes — every one a miss under
    // NullCache, fetched as one pipelined exchange per server.
    let frontier: Vec<NodeId> = (0..64u32).map(NodeId::new).collect();
    let mut batched_source =
        MultiplexedStorageSource::new(Arc::clone(&transport), &addrs, tier.partitioner());

    let mut g = c.benchmark_group("wire_fetch_frontier64");
    g.sample_size(20);
    g.bench_function("batched", |b| {
        b.iter(|| std::hint::black_box(batched_source.fetch_batch(&frontier)))
    });
    g.finish();

    // The end-to-end shape the subsystem exists for: a multi-hop BFS whose
    // every discovered node crosses the wire. The 2-hop neighbourhood on
    // the community graph is hundreds of nodes, far past the 64-miss bar.
    let query = Query::NeighborAggregation {
        node: NodeId::new(1),
        hops: 2,
        label: None,
    };
    let mut g = c.benchmark_group("wire_bfs_2hop");
    g.sample_size(10);
    let cache: ProcessorCache = Box::new(NullCache::new());
    let source: Box<dyn BatchSource + Send> = Box::new(MultiplexedStorageSource::new(
        Arc::clone(&transport),
        &addrs,
        tier.partitioner(),
    ));
    let mut worker = Worker::from_parts(source, cache);
    g.bench_function("batched", |b| {
        b.iter(|| std::hint::black_box(worker.run(&query)))
    });
    g.finish();

    drop(worker);
    drop(batched_source);
    for h in handles {
        h.shutdown();
    }
}

fn reactor_dispatch_latency(c: &mut Criterion) {
    if !criterion::group_enabled("reactor_dispatch_latency") {
        return;
    }
    use grouting_core::wire::{
        Frame, InProcTransport, Reactor, ReactorEvent, TcpTransport, Transport, TransportKind, Wake,
    };

    // One reactor thread echoing every frame it sees — the exact wake-up
    // path a router dispatch takes (poll in, send out, then the idle
    // policy), measured as a client-observed round trip.
    fn echo_reactor(transport: &Arc<dyn Transport>) -> (String, std::thread::JoinHandle<()>) {
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let join = std::thread::spawn(move || {
            let mut reactor = Reactor::new(listener).unwrap();
            let mut events = Vec::new();
            loop {
                if reactor.poll(&mut events).is_err() {
                    return;
                }
                let wake = if events.is_empty() {
                    Wake::Idle
                } else {
                    Wake::Now
                };
                for event in events.drain(..) {
                    match event {
                        ReactorEvent::Frame(id, Frame::Shutdown) => {
                            reactor.close(id);
                            return;
                        }
                        ReactorEvent::Frame(id, frame) => {
                            if reactor.send(id, &frame).is_err() {
                                reactor.close(id);
                            }
                        }
                        ReactorEvent::Opened(_)
                        | ReactorEvent::Closed(_)
                        | ReactorEvent::Dialled(..) => {}
                    }
                }
                reactor.honour(wake);
            }
        });
        (addr, join)
    }

    let transports: Vec<(&str, Arc<dyn Transport>)> = if env_transport() == TransportKind::InProc {
        vec![("inproc", Arc::new(InProcTransport::new()))]
    } else {
        vec![
            ("tcp_loopback", Arc::new(TcpTransport::new())),
            ("inproc", Arc::new(InProcTransport::new())),
        ]
    };

    let mut g = c.benchmark_group("reactor_dispatch_latency");
    for (name, transport) in transports {
        let (addr, join) = echo_reactor(&transport);
        let mut conn = transport.dial(&addr).unwrap();
        let request = Frame::FetchBatchRequest {
            req_id: 7,
            nodes: vec![NodeId::new(7)],
            issued_ns: None,
        };
        g.bench_function(name, |b| {
            b.iter(|| std::hint::black_box(conn.request(&request).unwrap()))
        });
        conn.send(&Frame::Shutdown).unwrap();
        let _ = join.join();
    }
    g.finish();
}

fn reactor_idle_cpu_1k(c: &mut Criterion) {
    if !criterion::group_enabled("reactor_idle_cpu_1k") {
        return;
    }
    use grouting_core::wire::{Reactor, TcpTransport, Transport, TransportKind, Wake};

    if env_transport() == TransportKind::InProc {
        // No loopback in this sandbox; the group times idle TCP
        // connections, so skip.
        return;
    }

    // The idle-cost acceptance shape: ONE reactor holding ~1k established,
    // silent TCP connections, measured per idle poll round. Epoll asks the
    // kernel once per round, whatever the connection count, where a
    // try_recv of every connection cost ~495 µs per round on the reference
    // host (README "Reactor").
    // Each round is a poll plus the idle policy on `Wake::Now`, which
    // never blocks, so the number is pure CPU cost, not sleep time.
    const CONNS: usize = 1000;
    // Dial in batches under the listener's accept backlog (128 in std),
    // draining accepts between batches so no connect ever parks.
    const DIAL_BATCH: usize = 64;

    let mut g = c.benchmark_group("reactor_idle_cpu_1k");
    g.sample_size(20);
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let listener = transport.listen(&transport.any_addr()).unwrap();
    let mut reactor = Reactor::new(listener).unwrap();
    let addr = reactor.addr();
    let mut clients = Vec::with_capacity(CONNS);
    let mut events = Vec::new();
    while clients.len() < CONNS {
        for _ in 0..DIAL_BATCH.min(CONNS - clients.len()) {
            clients.push(transport.dial(&addr).unwrap());
        }
        reactor.poll(&mut events).unwrap();
        events.clear();
    }
    while reactor.connections() < CONNS {
        reactor.poll(&mut events).unwrap();
        events.clear();
    }
    g.bench_function("epoll", |b| {
        b.iter(|| {
            reactor.honour(Wake::Now);
            reactor.poll(&mut events).unwrap();
            assert!(events.is_empty(), "connections must stay silent");
        })
    });
    drop(clients);
    g.finish();
}

fn wire_overlap_throughput(c: &mut Criterion) {
    if !criterion::group_enabled("wire_overlap_throughput") {
        return;
    }
    use grouting_core::cache::NullCache;
    use grouting_core::query::ProcessorCache;
    use grouting_core::storage::{NetworkModel, StorageTier};
    use grouting_core::wire::{
        MultiplexedStorageSource, QueryPipeline, TcpTransport, Transport, TransportKind,
    };

    if env_transport() == TransportKind::InProc {
        // No loopback in this sandbox; the group times overlap over TCP,
        // so skip.
        return;
    }

    // The tentpole's acceptance shape: a mixed 2-hop BFS workload over TCP
    // loopback, one processor, NullCache (every access crosses the wire).
    // overlap=1 is the strictly serial PR 3 path; overlap=2 double-buffers
    // frontiers across queries — while query A computes a level, query B's
    // batch is already travelling.
    //
    // Two storage-network settings: `remote` emulates the paper's
    // decoupled tier (a ~200 µs cross-rack exchange, slept off-core at the
    // storage endpoints — the latency overlap exists to hide), and
    // `local` is raw loopback with a free network (nothing to hide beyond
    // scheduler handoffs, so the win there is modest by construction).
    let graph = bench_graph();
    let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(3))));
    tier.load_graph(&graph).unwrap();
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let remote_net = NetworkModel {
        rtt_ns: 200_000,
        gbps: 10.0,
    };

    let queries: Vec<Query> = (0..8u32)
        .map(|i| Query::NeighborAggregation {
            node: NodeId::new(i * 97 + 1),
            hops: 2,
            label: None,
        })
        .collect();

    let mut g = c.benchmark_group("wire_overlap_throughput");
    g.sample_size(10);
    for (net_name, net) in [("remote", remote_net), ("local", NetworkModel::local())] {
        let handles: Vec<_> = (0..tier.server_count())
            .map(|_| spawn_storage(&transport, &tier, net))
            .collect();
        let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
        for overlap in [1usize, 2, 4] {
            let mut source =
                MultiplexedStorageSource::new(Arc::clone(&transport), &addrs, tier.partitioner());
            g.bench_function(&format!("{net_name}_overlap{overlap}"), |b| {
                b.iter(|| {
                    let mut cache: ProcessorCache = Box::new(NullCache::new());
                    let mut pipeline = QueryPipeline::new(overlap);
                    for (seq, q) in queries.iter().enumerate() {
                        pipeline.push(seq as u64, *q);
                    }
                    let mut done = 0usize;
                    while !pipeline.is_idle() {
                        done += pipeline.step(&mut source, &mut cache).unwrap().len();
                        // Idle only on a round that moved nothing, as the
                        // processor loop does.
                        source.honour(pipeline.wake());
                    }
                    assert_eq!(done, queries.len());
                    done
                })
            });
        }
        drop(handles);
    }
    g.finish();
}

fn wire_failover(c: &mut Criterion) {
    if !criterion::group_enabled("wire_failover") {
        return;
    }
    use grouting_core::query::BatchSource;
    use grouting_core::storage::{NetworkModel, StorageTier};
    use grouting_core::wire::{
        InProcTransport, MultiplexedStorageSource, RetryPolicy, TcpTransport, Transport,
        TransportKind,
    };
    use std::time::Duration;

    // Recovery cost of replica-chain failover: a 64-miss frontier fetched
    // through a mux whose primary endpoint is dead (its address refuses
    // dials) while the replica serves the same tier. Every iteration
    // starts from a cold mux, so the measured time is the failed primary
    // probe + chain walk + one batched exchange — the price a processor
    // pays the moment a storage node dies.
    let graph = bench_graph();
    let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(1))));
    tier.load_graph(&graph).unwrap();
    let frontier: Vec<NodeId> = (0..64u32).map(NodeId::new).collect();
    let retry = RetryPolicy::new(2, Duration::from_millis(1));

    let transports: Vec<(&str, Arc<dyn Transport>)> = if env_transport() == TransportKind::InProc {
        vec![("inproc", Arc::new(InProcTransport::new()))]
    } else {
        vec![
            ("tcp_loopback", Arc::new(TcpTransport::new())),
            ("inproc", Arc::new(InProcTransport::new())),
        ]
    };

    let mut g = c.benchmark_group("wire_failover");
    g.sample_size(20);
    for (name, transport) in transports {
        // A once-bound, now-dropped listener: its address refuses dials
        // exactly like a killed storage node's.
        let dead_addr = transport
            .listen(&transport.any_addr())
            .unwrap()
            .addr()
            .to_string();
        let live = spawn_storage(&transport, &tier, NetworkModel::local());
        // Every node homed on server 0 (the dead address); the live
        // replica at (0 + 1) serves the identical tier.
        let addrs = vec![dead_addr, live.addr().to_string()];
        let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(1));
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    MultiplexedStorageSource::new(
                        Arc::clone(&transport),
                        &addrs,
                        Arc::clone(&partitioner),
                    )
                    .with_replication(2)
                    .with_retry(retry)
                },
                |mut source| {
                    let got = source.fetch_batch(&frontier);
                    assert_eq!(got.len(), frontier.len());
                    got
                },
                BatchSize::SmallInput,
            )
        });
        live.shutdown();
    }
    g.finish();
}

fn trace_overhead(c: &mut Criterion) {
    if !criterion::group_enabled("trace_overhead") {
        return;
    }
    use grouting_core::engine::{EngineAssets, EngineConfig};
    use grouting_core::route::RoutingKind;
    use grouting_core::storage::StorageTier;
    use grouting_core::trace::{Stage, TraceLevel};
    use grouting_core::wire::{launch_cluster, ClusterConfig};

    // The tracing layer's acceptance gate: the same small wire cluster run
    // end to end with tracing off vs stats. "off" must be the exact
    // pre-tracing fast path (no trace blocks on the wire, no clock reads
    // in the reactor); "stats" pays per-frame timestamps, per-stage
    // histogram records, and busy/idle clocking — the gate holds that bill
    // to a few percent of wall time. Runs on whatever transport the
    // sandbox offers: the comparison is tracing-on vs tracing-off on the
    // SAME fabric, so it is meaningful over channels too.
    let graph = bench_graph();
    let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(3))));
    tier.load_graph(&graph).unwrap();
    let queries: Vec<Query> = (0..48u32)
        .map(|i| Query::NeighborAggregation {
            node: NodeId::new((i % 12) * 97 + 1),
            hops: 2,
            label: None,
        })
        .collect();
    let assets = EngineAssets::new(tier);
    let engine = EngineConfig {
        processors: 4,
        stealing: false,
        cache_capacity: 8 << 20,
        overlap: 2,
        ..EngineConfig::paper_default(4, RoutingKind::Hash)
    };
    let transport = env_transport();
    let run_at = |trace: TraceLevel| {
        let config = ClusterConfig {
            trace,
            ..ClusterConfig::new(engine, transport)
        };
        launch_cluster(&assets, &queries, &config).expect("cluster run completes")
    };

    let mut g = c.benchmark_group("trace_overhead");
    g.sample_size(10);
    for (name, level) in [("off", TraceLevel::Off), ("stats", TraceLevel::Stats)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let report = run_at(level);
                assert_eq!(report.results.len(), queries.len());
                std::hint::black_box(report.wall_ns)
            })
        });
    }
    g.finish();

    // Publish the per-stage latency percentiles of one instrumented run
    // next to the timings, so the uploaded artifact carries the stage
    // breakdown (where a query's time actually goes) alongside the
    // overhead medians.
    let trace = run_at(TraceLevel::Stats)
        .trace
        .expect("stats run returns a trace");
    for stage in Stage::ALL {
        let h = trace.stages.stage(stage);
        if h.count() == 0 {
            continue;
        }
        criterion::record_metric(
            &format!("trace_overhead/{stage}_p50_ns"),
            h.p50().unwrap_or(0) as f64,
        );
        criterion::record_metric(
            &format!("trace_overhead/{stage}_p99_ns"),
            h.p99().unwrap_or(0) as f64,
        );
        criterion::record_metric(
            &format!("trace_overhead/{stage}_p999_ns"),
            h.p999().unwrap_or(0) as f64,
        );
    }
    // The results file prints one decimal place, so the busy fraction is
    // published as a percentage (a 2% loop would round to 0.0 as a ratio).
    criterion::record_metric(
        "trace_overhead/reactor_busy_pct",
        trace.reactor.busy_ratio() * 100.0,
    );
    criterion::record_metric(
        "trace_overhead/reactor_frames_in",
        trace.reactor.frames_in as f64,
    );
    criterion::record_metric(
        "trace_overhead/reactor_busy_ns",
        trace.reactor.busy_ns as f64,
    );
    criterion::record_metric(
        "trace_overhead/reactor_idle_ns",
        trace.reactor.idle_ns as f64,
    );
}

fn obs_overhead(c: &mut Criterion) {
    if !criterion::group_enabled("obs_overhead") {
        return;
    }
    use grouting_core::engine::{EngineAssets, EngineConfig};
    use grouting_core::route::RoutingKind;
    use grouting_core::storage::StorageTier;
    use grouting_core::wire::{launch_cluster, ClusterConfig, ObsConfig, TransportKind};

    if env_transport() == TransportKind::InProc {
        // The scrape endpoint is a socket feature; without loopback the
        // sampled run cannot bind one, so the comparison loses its
        // subject — skip rather than publish misleading numbers.
        return;
    }

    // The observability acceptance gate: the same wire cluster run with
    // the sampler off vs sampling at the default cadence with live scrape
    // endpoints bound on every node. "off" must be the untouched fast
    // path (no registry, no clock reads beyond the router's own); "on"
    // pays registry refills, flight-recorder diffs, `ObsPush` frames, and
    // endpoint polling — the gate holds that bill to a few percent.
    let graph = bench_graph();
    let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(3))));
    tier.load_graph(&graph).unwrap();
    let queries: Vec<Query> = (0..48u32)
        .map(|i| Query::NeighborAggregation {
            node: NodeId::new((i % 12) * 97 + 1),
            hops: 2,
            label: None,
        })
        .collect();
    let assets = EngineAssets::new(tier);
    let engine = EngineConfig {
        processors: 4,
        stealing: false,
        cache_capacity: 8 << 20,
        overlap: 2,
        ..EngineConfig::paper_default(4, RoutingKind::Hash)
    };
    let run_with = |obs: &ObsConfig| {
        let config = ClusterConfig {
            obs: obs.clone(),
            ..ClusterConfig::new(engine, TransportKind::Tcp)
        };
        launch_cluster(&assets, &queries, &config).expect("cluster run completes")
    };
    let sampled = ObsConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        dump: false,
        sample_every_ns: grouting_core::obs::DEFAULT_SAMPLE_EVERY_NS,
    };

    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);
    for (name, obs) in [("off", ObsConfig::disabled()), ("sampled", sampled)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let run = run_with(&obs);
                assert_eq!(run.results.len(), queries.len());
                std::hint::black_box(run.wall_ns)
            })
        });
    }
    g.finish();

    // Publish the heat totals of one sampled run next to the timings, so
    // the artifact carries the workload-skew signal the heatmaps exist
    // for alongside the overhead medians.
    let run = run_with(&ObsConfig::disabled());
    criterion::record_metric(
        "obs_overhead/partition_demand_total",
        run.snapshot.partition_heat.total_demand() as f64,
    );
    let hottest = run
        .snapshot
        .partition_heat
        .cells()
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    criterion::record_metric("obs_overhead/partition_demand_peak", hottest as f64);
}

criterion_group!(
    benches,
    murmur,
    lru,
    bfs,
    routing_decision,
    partitioning,
    simplex,
    wire_frames,
    wire_frontier_fetch,
    reactor_dispatch_latency,
    reactor_idle_cpu_1k,
    wire_overlap_throughput,
    wire_failover,
    trace_overhead,
    obs_overhead
);
criterion_main!(benches);
