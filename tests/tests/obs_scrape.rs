//! Live scrape smoke test: one HTTP request to the router's metrics
//! endpoint mid-run must return series from all three tiers.
//!
//! The observability layer's deployment contract: the router binds
//! `GROUTING_METRICS_ADDR`, processors and storage servers push their
//! sampled registries to it (`ObsPush` frames), and a single scrape of
//! the router therefore reads the whole cluster — router dispatch
//! counters, per-processor cache and heat series, and per-storage served
//! tallies — while the run is still open. The test's own client holds it
//! open (`SubmitEnd` is sent only after a scrape has succeeded), so the
//! poll can never lose a race against the workload draining.

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grouting_core::engine::EngineAssets;
use grouting_core::gen::{DatasetProfile, ProfileName};
use grouting_core::metrics::RunSnapshot;
use grouting_core::query::Query;
use grouting_core::storage::HashPartitioner;
use grouting_core::storage::StorageTier;
use grouting_core::wire::{
    run_router, ClusterConfig, FetchMode, Frame, ObsConfig, ProcessorOptions, ProcessorService,
    Role, RouterOptions, StorageOptions, StorageService, TcpTransport, Transport, TransportKind,
    WireError,
};
use grouting_core::workload::{hotspot_workload, QueryMix, WorkloadConfig};

/// Binds an ephemeral loopback port and releases it, so the router can
/// re-bind the same address — the test needs to know the scrape address
/// before the cluster (which binds it internally) exists.
fn reserve_addr() -> Option<String> {
    let listener = TcpListener::bind("127.0.0.1:0").ok()?;
    let addr = listener.local_addr().ok()?;
    Some(addr.to_string())
}

/// One plain HTTP scrape; `None` until the endpoint accepts and serves.
fn scrape(addr: &str) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok()?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (header, body) = response.split_once("\r\n\r\n")?;
    header
        .starts_with("HTTP/1.1 200 OK")
        .then(|| body.to_string())
}

/// `GROUTING_NO_SOCKETS=1`: a sandbox without loopback to scrape over.
fn no_sockets() -> bool {
    let engine = grouting_core::engine::EngineConfig::paper_default(
        1,
        grouting_core::route::RoutingKind::Hash,
    );
    ClusterConfig::from_env(engine).transport == TransportKind::InProc
}

fn setup() -> (Arc<StorageTier>, Vec<Query>) {
    let graph = DatasetProfile::tiny(ProfileName::WebGraph).generate();
    let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(3))));
    tier.load_graph(&graph).unwrap();
    let queries = hotspot_workload(
        &graph,
        &WorkloadConfig {
            hotspots: 8,
            per_hotspot: 8,
            radius: 2,
            hops: 2,
            mix: QueryMix::uniform(),
            restart_prob: 0.15,
            seed: 23,
        },
    )
    .queries;
    (tier, queries)
}

#[test]
fn router_scrape_reads_whole_cluster_mid_run() {
    if no_sockets() {
        return; // GROUTING_NO_SOCKETS sandbox: no loopback to scrape over.
    }
    let Some(metrics_addr) = reserve_addr() else {
        // No loopback in this sandbox — the scrape endpoint is a socket
        // feature; the byte-identity agreement test still covers sampling.
        return;
    };
    let (tier, queries) = setup();
    let assets = EngineAssets::new(Arc::clone(&tier));
    let engine = grouting_core::engine::EngineConfig {
        processors: 4,
        stealing: false,
        cache_capacity: 256 << 10,
        overlap: 2,
        ..grouting_core::engine::EngineConfig::paper_default(
            4,
            grouting_core::route::RoutingKind::Hash,
        )
    };
    let obs = ObsConfig {
        metrics_addr: Some(metrics_addr.clone()),
        dump: false,
        // Sample fast so pushed registries reach the router promptly,
        // whatever the host's scheduling jitter.
        sample_every_ns: 1_000_000,
    };

    // The cluster is assembled here rather than through `launch_cluster`
    // so the test's own client connection decides when the run ends: the
    // router keeps serving (and every node keeps sampling) until
    // `SubmitEnd`, which is only sent once a scrape has succeeded.
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let router_listener = transport.listen(&transport.any_addr()).unwrap();
    let router_addr = router_listener.addr();
    let storage: Vec<_> = (0..tier.server_count())
        .map(|id| {
            StorageService::spawn_opts(
                Arc::clone(&transport),
                &transport.any_addr(),
                Arc::clone(&tier),
                StorageOptions {
                    obs: obs.clone(),
                    push_addr: Some(router_addr.clone()),
                    id: id as u16,
                    ..StorageOptions::default()
                },
            )
            .unwrap()
        })
        .collect();
    let storage_addrs: Vec<String> = storage.iter().map(|h| h.addr().to_string()).collect();
    let router_opts = RouterOptions {
        obs: obs.clone(),
        ..RouterOptions::default()
    };
    let router =
        std::thread::spawn(move || run_router(router_listener, &assets, &engine, &router_opts));
    let processors: Vec<_> = (0..engine.processors)
        .map(|id| {
            ProcessorService::spawn_opts(
                Arc::clone(&transport),
                id,
                router_addr.clone(),
                storage_addrs.clone(),
                tier.partitioner(),
                engine,
                FetchMode::Batched,
                ProcessorOptions {
                    obs: obs.clone(),
                    ..ProcessorOptions::default()
                },
            )
        })
        .collect();

    let mut client = transport.dial(&router_addr).unwrap();
    client
        .send(&Frame::Hello {
            role: Role::Client,
            id: 0,
        })
        .unwrap();
    for (seq, query) in queries.iter().enumerate() {
        client
            .send(&Frame::Submit {
                seq: seq as u64,
                query: *query,
                submitted_ns: None,
            })
            .unwrap();
    }

    // Poll the endpoint until ONE body carries all three tiers, including
    // the per-partition heat counters — the cluster-wide-scrape contract.
    // The run cannot finish underneath the poll: `SubmitEnd` comes after.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut last = String::new();
    let complete = loop {
        if let Some(body) = scrape(&metrics_addr) {
            last = body;
            if last.contains("node=\"router\"")
                && last.contains("node=\"proc-")
                && last.contains("node=\"storage-")
                && last.contains("grouting_partition_demand_total")
                && last.contains("grouting_storage_batches_total")
            {
                break true;
            }
        }
        if Instant::now() > deadline {
            break false;
        }
        std::thread::sleep(Duration::from_millis(2));
    };

    client.send(&Frame::SubmitEnd).unwrap();
    let mut completions = 0usize;
    let mut snapshot: Option<RunSnapshot> = None;
    loop {
        match client.recv() {
            Ok(Frame::Completion(_)) => completions += 1,
            Ok(Frame::Metrics { snapshot: s, .. }) => snapshot = Some(s),
            Ok(Frame::Shutdown) | Err(WireError::Closed) => break,
            Ok(other) => panic!("client got {}", other.kind()),
            Err(e) => panic!("client recv failed: {e}"),
        }
    }
    router
        .join()
        .expect("router thread joins")
        .expect("observed cluster run completes");
    for processor in processors {
        processor.join().expect("processor thread joins").unwrap();
    }
    for handle in storage {
        handle.shutdown();
    }

    assert!(
        complete,
        "no single scrape covered all three tiers; last body:\n{last}"
    );
    assert_eq!(completions, queries.len());
    // The same heat that was scrapeable mid-run lands in the final
    // snapshot, still in demand units (one count per fetched record).
    let snapshot = snapshot.expect("router sends a final snapshot");
    assert!(snapshot.partition_heat.total_demand() > 0);
    assert_eq!(
        snapshot.partition_heat.total_demand(),
        snapshot.cache_misses,
        "partition heat counts exactly the demand misses"
    );
}
