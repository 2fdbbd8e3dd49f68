//! Real RPC for the decoupled cluster: bytes on a wire, not function calls.
//!
//! The paper's architecture is a *network* architecture — stateless query
//! processors talking to a remote storage tier, with a router in front —
//! yet an in-process reproduction can quietly reduce every hop to a method
//! call. This crate makes the hops real:
//!
//! * [`frame`] — the router↔processor↔storage message set (submit,
//!   dispatch, batched adjacency fetch/response, completion records,
//!   metrics snapshots) and its length-prefixed little-endian binary codec;
//! * [`transport`] — the [`Transport`](transport::Transport) abstraction
//!   with two fabrics: [`TcpTransport`](transport::TcpTransport) (real
//!   `std::net` sockets, framed streams) and
//!   [`InProcTransport`](transport::InProcTransport) (hermetic channels
//!   that still move encoded bytes);
//! * [`flow`] — the one processor→storage miss path: pipelined,
//!   frontier-batched adjacency fetching through a non-blocking
//!   connection multiplexer keeping one batch frame per storage server in
//!   flight per BFS hop, correlated by request id, with redial / replica
//!   walk / resubmit on failure; a single-node fetch is a batch of one;
//! * [`reactor`] — the readiness reactor: ONE poll loop per node
//!   multiplexing the listener and every framed connection, replacing the
//!   thread-per-connection control path (O(connections) → O(1) threads);
//! * [`overlap`] — cross-query fetch overlap: up to
//!   [`grouting_engine::EngineConfig::overlap`] dispatched queries in
//!   flight per processor as resumable staged executions, double-buffering
//!   frontiers so one query's batch travels while another computes;
//! * [`service`] — the three tiers as independently runnable endpoints:
//!   storage servers answering batch fetches, processors
//!   executing dispatched queries with a remote miss path, and the router
//!   node driving the *same* [`grouting_engine::Engine`] the in-proc
//!   runtimes drive — masking mid-run processor deaths, re-admitting
//!   restarted processors, and answering mid-run metrics requests;
//! * [`cluster`] — a one-machine harness launching router + `P`
//!   processors + `M` storage servers as socket peers and streaming a
//!   workload through them.
//!
//! Because the router runs the identical engine and the processors build
//! the identical caches (only the miss path differs, byte-for-byte), a
//! TCP cluster run at `overlap = 1` agrees with an in-proc run on routing
//! assignments and cache statistics — pinned by
//! `tests/tests/wire_agreement.rs` (which also pins answers and
//! assignments at overlap 4).

pub mod chaos;
pub mod cluster;
pub mod error;
pub mod fault;
pub mod flow;
pub mod frame;
pub mod overlap;
pub mod reactor;
pub mod service;
#[cfg(target_os = "linux")]
pub(crate) mod sys;
pub mod transport;

pub use chaos::{launch_chaos_cluster, ChaosAction, ChaosScript, ChaosWave};
pub use cluster::{launch_cluster, overlap_from_env, ClusterConfig, ClusterRun, TransportKind};
pub use error::{WireError, WireResult};
pub use fault::{FaultKind, FaultPlan, FaultRule, FaultyTransport};
pub use flow::{BatchMux, FetchMode, MultiplexedStorageSource, PendingBatch};
pub use frame::{Completion, Frame, Role};
pub use grouting_obs::{NodeObs, NodeRole, ObsConfig, Registry, RegistrySnapshot};
pub use overlap::{CompletedQuery, QueryPipeline};
pub use reactor::{Backoff, Poller, PollerKind, Reactor, ReactorEvent, SweepPoller};
pub use service::{
    now_ns, run_router, ProcessorOptions, ProcessorService, RouterOptions, ServiceHandle,
    StorageOptions, StorageService,
};
pub use transport::{
    Connection, FrameSink, FrameStream, InProcTransport, Listener, RetryPolicy, TcpTransport,
    Transport,
};

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_engine::{EngineAssets, EngineConfig};
    use grouting_graph::{GraphBuilder, NodeId};
    use grouting_metrics::RunSnapshot;
    use grouting_partition::HashPartitioner;
    use grouting_query::{Query, RecordSource};
    use grouting_route::RoutingKind;
    use grouting_storage::StorageTier;
    use std::sync::Arc;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn loaded_tier(nodes: u32, servers: usize) -> Arc<StorageTier> {
        let mut b = GraphBuilder::new();
        for i in 0..nodes {
            b.add_edge(n(i), n((i + 1) % nodes));
            b.add_edge(n(i), n((i + 2) % nodes));
        }
        let g = b.build().unwrap();
        let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(servers))));
        tier.load_graph(&g).unwrap();
        tier
    }

    fn queries(nodes: u32, count: u32) -> Vec<Query> {
        (0..count)
            .map(|i| Query::NeighborAggregation {
                node: n((i * 7) % nodes),
                hops: 2,
                label: None,
            })
            .collect()
    }

    /// A storage endpoint at an ephemeral address with default options.
    fn spawn_storage(transport: &Arc<dyn Transport>, tier: &Arc<StorageTier>) -> ServiceHandle {
        StorageService::spawn_opts(
            Arc::clone(transport),
            &transport.any_addr(),
            Arc::clone(tier),
            StorageOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn storage_service_serves_remote_fetches() {
        let tier = loaded_tier(16, 2);
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let handle = spawn_storage(&transport, &tier);

        let mut source = MultiplexedStorageSource::new(
            Arc::clone(&transport),
            &[handle.addr().to_string(), handle.addr().to_string()],
            tier.partitioner(),
        );
        for i in 0..16 {
            let (server, bytes) = source.fetch_raw(n(i)).expect("stored node");
            let (want_server, want_bytes) = tier.get(n(i)).unwrap();
            assert_eq!(server as usize, want_server);
            assert_eq!(&bytes[..], &want_bytes[..]);
        }
        assert!(source.fetch_raw(n(999)).is_none());
        drop(source);
        handle.shutdown();
    }

    #[test]
    fn retired_fetch_tag_drops_the_peer_not_the_storage_node() {
        use std::io::{Read, Write};
        let tier = loaded_tier(16, 1);
        let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
        let handle = spawn_storage(&transport, &tier);
        let mut healthy = transport.dial(handle.addr()).unwrap();

        // A peer still speaking the per-node protocol: a well-formed old
        // request (length prefix, tag 6, node id).
        let mut stale = std::net::TcpStream::connect(handle.addr()).unwrap();
        stale
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        stale.write_all(&5u32.to_le_bytes()).unwrap();
        stale.write_all(&[6, 3, 0, 0, 0]).unwrap();
        // The server answers nothing and closes: EOF or a reset — a read
        // timeout would mean the stale peer was left connected.
        let mut buf = [0u8; 16];
        match stale.read(&mut buf) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("stale peer was not dropped: {other:?}"),
        }

        // The node itself is untouched: another connection is still served.
        let reply = healthy
            .request(&Frame::FetchBatchRequest {
                req_id: 1,
                nodes: vec![n(3)],
                issued_ns: None,
            })
            .unwrap();
        let want = tier.get(n(3)).map(|(s, b)| (s as u16, b));
        assert_eq!(
            reply,
            Frame::FetchBatchResponse {
                req_id: 1,
                payloads: vec![want],
            }
        );
        drop(healthy);
        handle.shutdown();
    }

    fn cluster_cfg(transport: TransportKind) -> ClusterConfig {
        let engine = EngineConfig {
            cache_capacity: 4 << 20,
            ..EngineConfig::paper_default(3, RoutingKind::Hash)
        };
        ClusterConfig::new(engine, transport)
    }

    fn end_to_end_over(kind: TransportKind) {
        let tier = loaded_tier(48, 2);
        let assets = EngineAssets::new(tier);
        let q = queries(48, 40);
        let run = launch_cluster(&assets, &q, &cluster_cfg(kind)).unwrap();
        assert_eq!(run.results.len(), q.len());
        assert_eq!(run.timeline.len(), q.len());
        assert_eq!(run.snapshot.queries, q.len() as u64);
        assert!(run.snapshot.cache_misses > 0, "cold caches must miss");
        assert!(run.wall_ns > 0);
        assert!(run.throughput_qps() > 0.0);
        let served: u64 = run.snapshot.per_processor.iter().sum();
        assert_eq!(served, q.len() as u64);
    }

    #[test]
    fn inproc_cluster_end_to_end() {
        end_to_end_over(TransportKind::InProc);
    }

    #[test]
    fn tcp_cluster_end_to_end() {
        end_to_end_over(TransportKind::Tcp);
    }

    #[test]
    fn repeated_hotspot_hits_remote_processor_caches() {
        let tier = loaded_tier(32, 2);
        let assets = EngineAssets::new(tier);
        let q: Vec<Query> = (0..30)
            .map(|i| Query::NeighborAggregation {
                node: n(i % 3),
                hops: 2,
                label: None,
            })
            .collect();
        let run = launch_cluster(&assets, &q, &cluster_cfg(TransportKind::InProc)).unwrap();
        assert!(run.snapshot.cache_hits > 0, "hotspot must hit");
        assert!(run.hit_rate() > 0.3, "hit rate {}", run.hit_rate());
    }

    #[test]
    fn router_errors_instead_of_hanging_when_client_dies_early() {
        let tier = loaded_tier(16, 1);
        let assets = EngineAssets::new(tier);
        let config = EngineConfig::paper_default(1, RoutingKind::Hash);
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let router = std::thread::spawn(move || {
            run_router(listener, &assets, &config, &RouterOptions::default())
        });

        // A client that submits work and vanishes before SubmitEnd, with
        // no processors around: the router must fail fast, not park.
        let mut client = transport.dial(&addr).unwrap();
        client
            .send(&Frame::Hello {
                role: Role::Client,
                id: 0,
            })
            .unwrap();
        client
            .send(&Frame::Submit {
                seq: 0,
                query: Query::NeighborAggregation {
                    node: n(1),
                    hops: 1,
                    label: None,
                },
                submitted_ns: None,
            })
            .unwrap();
        drop(client);
        assert!(matches!(
            router.join().unwrap(),
            Err(crate::WireError::Closed)
        ));
    }

    #[test]
    fn batched_source_agrees_with_storage_service() {
        let tier = loaded_tier(64, 3);
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let handles: Vec<_> = (0..3).map(|_| spawn_storage(&transport, &tier)).collect();
        let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();

        let mut source =
            MultiplexedStorageSource::new(Arc::clone(&transport), &addrs, tier.partitioner());
        // A frontier spanning every server, plus misses, in one batch.
        let nodes: Vec<NodeId> = (0..70).map(n).collect();
        let got = grouting_query::BatchSource::fetch_batch(&mut source, &nodes);
        assert_eq!(got.len(), nodes.len());
        for (&node, payload) in nodes.iter().zip(&got) {
            let want = tier.get(node).map(|(s, b)| (s as u16, b));
            assert_eq!(*payload, want, "node {node}");
        }
        // Single-node fetches ride the same multiplexed connections.
        assert_eq!(
            source.fetch_raw(n(5)),
            tier.get(n(5)).map(|(s, b)| (s as u16, b))
        );
        assert!(source.fetch_raw(n(999)).is_none());
        drop(source);
        for h in handles {
            h.shutdown();
        }
    }

    #[test]
    fn processor_exit_is_decided_by_the_router_stream_not_a_failed_obs_push() {
        // The end-of-run race behind a tier-1 flake
        // (`observability_pins_byte_identical_statistics`, "1 processor
        // thread(s) died mid-run"): the router had finished and stopped
        // reading, its Shutdown was still unread, and a sampler push into
        // the closed connection failed first — the processor reported that
        // failure instead of the clean exit its stream held for it. Here a
        // scripted router forces exactly that order.
        let tier = loaded_tier(16, 1);
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let storage = spawn_storage(&transport, &tier);
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let drained = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let processor = ProcessorService::spawn_opts(
            Arc::clone(&transport),
            0,
            listener.addr(),
            vec![storage.addr().to_string()],
            tier.partitioner(),
            EngineConfig::paper_default(1, RoutingKind::Hash),
            FetchMode::Batched,
            ProcessorOptions {
                ready: Some(Arc::clone(&drained)),
                // Every service round samples and pushes.
                obs: ObsConfig {
                    metrics_addr: None,
                    dump: true,
                    sample_every_ns: 1,
                },
                ..ProcessorOptions::default()
            },
        );
        let (mut sink, mut stream) = listener.accept().unwrap().split();
        // A first push proves the sampler runs in the service loop.
        while !matches!(stream.recv().unwrap(), Frame::ObsPush { .. }) {}
        // The router stops reading, but has not said Shutdown yet.
        drop(stream);
        // `ready` flips where the processor drains its stream, at the top
        // of a round; the push later in that same round finds no reader.
        sink.send(&Frame::Metrics {
            snapshot: RunSnapshot::default(),
            trace: None,
        })
        .unwrap();
        while !drained.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }
        sink.send(&Frame::Shutdown).unwrap();
        match processor.join() {
            Ok(Ok(())) => {}
            other => panic!("processor did not exit cleanly: {other:?}"),
        }
        storage.shutdown();
    }

    #[test]
    fn storage_shuts_down_promptly_after_its_router_has_closed() {
        // With observability on, storage pushes its registry to the router
        // over a connection it dials lazily. Once the router is gone every
        // push redials, and a refused TCP dial that retried with the
        // start-up patience (~2 s) held the serving loop — and with it the
        // shutdown — for that long each time.
        let tier = loaded_tier(16, 1);
        let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
        let mut router = transport.listen(&transport.any_addr()).unwrap();
        let storage = StorageService::spawn_opts(
            Arc::clone(&transport),
            &transport.any_addr(),
            Arc::clone(&tier),
            StorageOptions {
                // Every service round samples and pushes.
                obs: ObsConfig {
                    metrics_addr: None,
                    dump: true,
                    sample_every_ns: 1,
                },
                push_addr: Some(router.addr()),
                ..StorageOptions::default()
            },
        )
        .unwrap();
        let mut pushes = router.accept().unwrap();
        assert!(matches!(pushes.recv().unwrap(), Frame::ObsPush { .. }));
        drop(pushes);
        drop(router);
        // Long enough for a push to fail and the redial to be refused.
        std::thread::sleep(std::time::Duration::from_millis(200));
        let asked = std::time::Instant::now();
        storage.shutdown();
        let took = asked.elapsed();
        assert!(
            took < std::time::Duration::from_millis(500),
            "storage took {took:?} to stop"
        );
    }

    #[test]
    fn router_masks_processor_death_mid_run() {
        // One flaky processor (serves one query, then vanishes with a
        // second dispatch outstanding) and one healthy one: the router
        // must mark the dead peer down, resubmit its in-flight query, and
        // complete the whole workload on the survivor.
        let tier = loaded_tier(32, 2);
        let assets = EngineAssets::new(Arc::clone(&tier));
        let config = EngineConfig {
            stealing: false,
            ..EngineConfig::paper_default(2, RoutingKind::NextReady)
        };
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let router_assets = assets.clone();
        let router = std::thread::spawn(move || {
            run_router(listener, &router_assets, &config, &RouterOptions::default())
        });

        let storage = spawn_storage(&transport, &tier);

        // The flaky processor: hello, execute exactly one dispatch, then
        // die *without* acknowledging the next one.
        let flaky_transport = Arc::clone(&transport);
        let flaky_addr = addr.clone();
        let flaky_tier = Arc::clone(&tier);
        let flaky = std::thread::spawn(move || {
            let mut conn = flaky_transport.dial(&flaky_addr).unwrap();
            conn.send(&Frame::Hello {
                role: Role::Processor,
                id: 0,
            })
            .unwrap();
            match conn.recv().unwrap() {
                Frame::Dispatch { seq, query, .. } => {
                    let mut cache = config.build_cache();
                    let out = grouting_query::Executor::new(&*flaky_tier, &mut cache).run(&query);
                    conn.send(&Frame::Completion(Completion {
                        seq,
                        processor: 0,
                        result: out.result,
                        stats: out.stats,
                        prefetch: grouting_query::PrefetchStats::default(),
                        failover: grouting_metrics::FailoverStats::default(),
                        arrived_ns: 0,
                        started_ns: 1,
                        completed_ns: 2,
                        heat: grouting_metrics::HeatMap::default(),
                        trace: None,
                    }))
                    .unwrap();
                }
                other => panic!("flaky processor got {}", other.kind()),
            }
            // Wait for the next frame (a dispatch), then die with it
            // outstanding by dropping the connection.
            let _ = conn.recv().unwrap();
        });

        // The healthy processor is the real service. The workload is only
        // submitted once the router has acknowledged its join, so the
        // flaky peer can never be the sole (and then dead) processor.
        let joined = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let healthy = ProcessorService::spawn_opts(
            Arc::clone(&transport),
            1,
            addr.clone(),
            vec![storage.addr().to_string()],
            tier.partitioner(),
            config,
            FetchMode::Batched,
            ProcessorOptions {
                ready: Some(Arc::clone(&joined)),
                ..ProcessorOptions::default()
            },
        );
        while !joined.load(std::sync::atomic::Ordering::SeqCst) {
            std::thread::yield_now();
        }

        // The client streams enough work that the flaky processor is
        // mid-flight when it dies.
        let mut client = transport.dial(&addr).unwrap();
        client
            .send(&Frame::Hello {
                role: Role::Client,
                id: 0,
            })
            .unwrap();
        let q = queries(32, 12);
        for (seq, query) in q.iter().enumerate() {
            client
                .send(&Frame::Submit {
                    seq: seq as u64,
                    query: *query,
                    submitted_ns: None,
                })
                .unwrap();
        }
        client.send(&Frame::SubmitEnd).unwrap();

        let mut completions = 0;
        loop {
            match client.recv() {
                Ok(Frame::Completion(_)) => completions += 1,
                Ok(Frame::Metrics { .. }) => {}
                Ok(Frame::Shutdown) | Err(WireError::Closed) => break,
                Ok(other) => panic!("client got {}", other.kind()),
                Err(e) => panic!("client recv failed: {e}"),
            }
        }
        let snapshot = router.join().unwrap().expect("run completes despite death");
        assert_eq!(completions, q.len(), "every query completed");
        assert_eq!(snapshot.queries, q.len() as u64);
        // The dead processor acknowledged exactly one query; everything
        // else (including its resubmitted in-flight query) went to the
        // survivor.
        assert_eq!(snapshot.per_processor[0], 1);
        assert_eq!(snapshot.per_processor[1], q.len() as u64 - 1);
        // The flaky processor died with a dispatch outstanding, so the
        // router resubmitted exactly one window; no wire-level retries
        // were involved (the storage endpoint never went away).
        assert_eq!(snapshot.windows_resubmitted, 1);
        assert_eq!(snapshot.redials, 0);
        assert_eq!(snapshot.replica_failovers, 0);
        flaky.join().unwrap();
        let _ = healthy.join();
        storage.shutdown();
    }

    #[test]
    fn restarted_processor_rejoins_rotation() {
        // The re-join path (ROADMAP item): a processor dies mid-run, the
        // router masks it, then the processor RESTARTS, re-dials with its
        // old id, and must be marked up and re-enter rotation — serving
        // queries submitted after its return.
        let tier = loaded_tier(32, 1);
        let assets = EngineAssets::new(Arc::clone(&tier));
        let config = EngineConfig {
            stealing: false,
            ..EngineConfig::paper_default(2, RoutingKind::NextReady)
        };
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let router_assets = assets.clone();
        let router = std::thread::spawn(move || {
            run_router(listener, &router_assets, &config, &RouterOptions::default())
        });
        let storage = spawn_storage(&transport, &tier);

        // Dials the router as processor `id`, then blocks until the router
        // has processed the hello (a MetricsRequest on the same connection
        // is answered strictly after it).
        let connect_processor = |id: u32| -> crate::transport::Connection {
            let mut conn = transport.dial(&addr).unwrap();
            conn.send(&Frame::Hello {
                role: Role::Processor,
                id,
            })
            .unwrap();
            conn.send(&Frame::MetricsRequest).unwrap();
            match conn.recv().unwrap() {
                Frame::Metrics { .. } => conn,
                other => panic!("processor {id} got {}", other.kind()),
            }
        };
        let serve_one = {
            let tier = Arc::clone(&tier);
            move |conn: &mut crate::transport::Connection,
                  cache: &mut grouting_query::ProcessorCache,
                  id: u32,
                  seq: u64,
                  query: &Query| {
                let out = grouting_query::Executor::new(&*tier, cache).run(query);
                conn.send(&Frame::Completion(Completion {
                    seq,
                    processor: id,
                    result: out.result,
                    stats: out.stats,
                    prefetch: grouting_query::PrefetchStats::default(),
                    failover: grouting_metrics::FailoverStats::default(),
                    arrived_ns: 0,
                    started_ns: 1,
                    completed_ns: 2,
                    heat: grouting_metrics::HeatMap::default(),
                    trace: None,
                }))
                .unwrap();
            }
        };

        // Both processors are router-acknowledged BEFORE any work is
        // submitted, so the dispatch pattern below is deterministic.
        let mut flaky_conn = connect_processor(0);
        let healthy_conn = connect_processor(1);

        // The healthy processor serves everything it is given until
        // shutdown.
        let healthy_serve = serve_one.clone();
        let healthy = std::thread::spawn(move || {
            let mut conn = healthy_conn;
            let mut cache = config.build_cache();
            loop {
                match conn.recv() {
                    Ok(Frame::Dispatch { seq, query, .. }) => {
                        healthy_serve(&mut conn, &mut cache, 1, seq, &query);
                    }
                    Ok(Frame::Shutdown) | Err(WireError::Closed) => return,
                    Ok(other) => panic!("healthy processor got {}", other.kind()),
                    Err(e) => panic!("healthy processor recv failed: {e}"),
                }
            }
        });

        // Lets the restarted processor tell the client its re-join has
        // been acknowledged by the router.
        let (rejoined_tx, rejoined_rx) = std::sync::mpsc::channel::<()>();

        // Processor 0, incarnation 1: serve exactly one dispatch, then die
        // with the second outstanding (overlap ≥ 2 guarantees the router
        // sent two up front). Incarnation 2: re-dial under the SAME id,
        // confirm the router acknowledged the re-join, then serve until
        // Shutdown.
        let flaky_transport = Arc::clone(&transport);
        let flaky_addr = addr.clone();
        let flaky_serve = serve_one.clone();
        let flaky = std::thread::spawn(move || {
            let mut cache = config.build_cache();
            match flaky_conn.recv().unwrap() {
                Frame::Dispatch { seq, query, .. } => {
                    flaky_serve(&mut flaky_conn, &mut cache, 0, seq, &query);
                }
                other => panic!("flaky processor got {}", other.kind()),
            }
            // Wait for the next dispatch, then die with it outstanding.
            let _ = flaky_conn.recv().unwrap();
            drop(flaky_conn);

            // --- Restart: same id, fresh connection, fresh cache. ---
            let mut conn = flaky_transport.dial(&flaky_addr).unwrap();
            conn.send(&Frame::Hello {
                role: Role::Processor,
                id: 0,
            })
            .unwrap();
            conn.send(&Frame::MetricsRequest).unwrap();
            match conn.recv().unwrap() {
                Frame::Metrics { .. } => rejoined_tx.send(()).unwrap(),
                other => panic!("restarted processor got {}", other.kind()),
            }
            let mut cache = config.build_cache();
            let mut served_after_rejoin = 0u64;
            loop {
                match conn.recv() {
                    Ok(Frame::Dispatch { seq, query, .. }) => {
                        flaky_serve(&mut conn, &mut cache, 0, seq, &query);
                        served_after_rejoin += 1;
                    }
                    Ok(Frame::Shutdown) | Err(WireError::Closed) => return served_after_rejoin,
                    Ok(other) => panic!("restarted processor got {}", other.kind()),
                    Err(e) => panic!("restarted processor recv failed: {e}"),
                }
            }
        });

        // Phase 1: submit 4 queries, drain their completions — the flaky
        // processor serves one and dies mid-flight along the way.
        let mut client = transport.dial(&addr).unwrap();
        client
            .send(&Frame::Hello {
                role: Role::Client,
                id: 0,
            })
            .unwrap();
        let q = queries(32, 10);
        for (seq, query) in q.iter().take(4).enumerate() {
            client
                .send(&Frame::Submit {
                    seq: seq as u64,
                    query: *query,
                    submitted_ns: None,
                })
                .unwrap();
        }
        let mut completions = 0;
        while completions < 4 {
            match client.recv().unwrap() {
                Frame::Completion(_) => completions += 1,
                Frame::Metrics { .. } => {}
                other => panic!("client got {}", other.kind()),
            }
        }

        // Phase 2: wait until the restarted processor is back in rotation,
        // then submit the rest of the workload.
        rejoined_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("processor re-join must be acknowledged");
        for (seq, query) in q.iter().enumerate().skip(4) {
            client
                .send(&Frame::Submit {
                    seq: seq as u64,
                    query: *query,
                    submitted_ns: None,
                })
                .unwrap();
        }
        client.send(&Frame::SubmitEnd).unwrap();
        loop {
            match client.recv() {
                Ok(Frame::Completion(_)) => completions += 1,
                Ok(Frame::Metrics { .. }) => {}
                Ok(Frame::Shutdown) | Err(WireError::Closed) => break,
                Ok(other) => panic!("client got {}", other.kind()),
                Err(e) => panic!("client recv failed: {e}"),
            }
        }

        let snapshot = router.join().unwrap().expect("run completes");
        let served_after_rejoin = flaky.join().unwrap();
        assert_eq!(completions, q.len(), "every query completed");
        assert_eq!(snapshot.queries, q.len() as u64);
        assert!(
            served_after_rejoin >= 1,
            "the restarted processor must re-enter rotation"
        );
        assert_eq!(
            snapshot.per_processor[0],
            1 + served_after_rejoin,
            "router accounting: one query before the crash, the rest after re-join"
        );
        let _ = healthy.join();
        storage.shutdown();
    }

    #[test]
    fn metrics_request_is_answered_mid_run() {
        // Any peer may send Frame::MetricsRequest at any point and get the
        // totals accumulated so far, ahead of the final snapshot.
        let tier = loaded_tier(32, 1);
        let assets = EngineAssets::new(Arc::clone(&tier));
        let config = EngineConfig {
            cache_capacity: 4 << 20,
            ..EngineConfig::paper_default(1, RoutingKind::Hash)
        };
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let router_assets = assets.clone();
        let router = std::thread::spawn(move || {
            run_router(listener, &router_assets, &config, &RouterOptions::default())
        });
        let storage = spawn_storage(&transport, &tier);
        let processor = ProcessorService::spawn_opts(
            Arc::clone(&transport),
            0,
            addr.clone(),
            vec![storage.addr().to_string()],
            tier.partitioner(),
            config,
            FetchMode::Batched,
            ProcessorOptions::default(),
        );

        let mut client = transport.dial(&addr).unwrap();
        client
            .send(&Frame::Hello {
                role: Role::Client,
                id: 0,
            })
            .unwrap();
        let q = queries(32, 8);
        for (seq, query) in q.iter().enumerate() {
            client
                .send(&Frame::Submit {
                    seq: seq as u64,
                    query: *query,
                    submitted_ns: None,
                })
                .unwrap();
        }
        client.send(&Frame::SubmitEnd).unwrap();
        // The request reaches the router's event queue ahead of most of
        // the completions, so the reply is a genuinely mid-run snapshot.
        client.send(&Frame::MetricsRequest).unwrap();

        let mut metrics: Vec<RunSnapshot> = Vec::new();
        let mut completions = 0;
        loop {
            match client.recv() {
                Ok(Frame::Completion(_)) => completions += 1,
                Ok(Frame::Metrics { snapshot, .. }) => metrics.push(snapshot),
                Ok(Frame::Shutdown) | Err(WireError::Closed) => break,
                Ok(other) => panic!("client got {}", other.kind()),
                Err(e) => panic!("client recv failed: {e}"),
            }
        }
        assert_eq!(completions, q.len());
        assert!(
            metrics.len() >= 2,
            "on-demand reply plus the final snapshot, got {}",
            metrics.len()
        );
        // The on-demand snapshot precedes the final one and never
        // overcounts it.
        let last = metrics.last().unwrap();
        assert_eq!(last.queries, q.len() as u64);
        assert!(metrics[0].queries <= last.queries);
        router.join().unwrap().unwrap();
        processor.join().unwrap().unwrap();
        storage.shutdown();
    }

    #[test]
    fn periodic_snapshots_stream_to_the_client() {
        // The snapshot_every knob emits unprompted mid-run snapshots; the
        // final snapshot still arrives at shutdown.
        let tier = loaded_tier(32, 1);
        let assets = EngineAssets::new(tier);
        let q = queries(32, 10);
        let engine = EngineConfig {
            cache_capacity: 4 << 20,
            ..EngineConfig::paper_default(2, RoutingKind::Hash)
        };
        let mut config = ClusterConfig::new(engine, TransportKind::InProc);
        config.snapshot_every = 3;
        let run = launch_cluster(&assets, &q, &config).unwrap();
        assert!(
            !run.mid_snapshots.is_empty(),
            "periodic snapshots must be emitted"
        );
        let mut last = 0;
        for s in &run.mid_snapshots {
            assert!(s.queries >= last, "snapshots move forward");
            assert!(s.queries <= q.len() as u64);
            last = s.queries;
        }
        assert_eq!(run.snapshot.queries, q.len() as u64);
    }

    #[test]
    fn transport_kind_env_escape_hatch_parses() {
        // Only exercises the parser (the env var itself belongs to CI).
        assert_eq!(TransportKind::default(), TransportKind::Tcp);
        assert_eq!(TransportKind::Tcp.to_string(), "tcp");
        assert_eq!(TransportKind::InProc.to_string(), "inproc");
    }
}
