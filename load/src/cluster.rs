//! The TCP-loopback cluster, assembled from the repository's public
//! service pieces rather than `launch_cluster`: the benchmark needs its own
//! client loop and a custom network model on the storage endpoints.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use grouting_core::engine::{EngineAssets, EngineConfig};
use grouting_core::metrics::RunSnapshot;
use grouting_core::query::PrefetchConfig;
use grouting_core::route::RoutingKind;
use grouting_core::storage::NetworkModel;
use grouting_core::trace::{TelemetryCounters, TraceLevel};
use grouting_core::wire::{
    run_router, Connection, FetchMode, ObsConfig, PollerKind, ProcessorOptions, ProcessorService,
    RetryPolicy, RouterOptions, ServiceHandle, StorageOptions, StorageService, TcpTransport,
    Transport, WireError, WireResult,
};

use crate::spec::{self, Workload};

/// How long the launch waits for every processor to join the router.
const JOIN_DEADLINE: Duration = Duration::from_secs(20);

/// The engine configuration of the fixed deployment for `workload`:
/// `EngineConfig::paper_default` (LRU, overlap 2, stealing on, prefetch
/// off) with the workload's cache size and routing scheme.
pub fn engine_config(workload: &Workload, routing: RoutingKind) -> EngineConfig {
    EngineConfig {
        cache_capacity: workload.cache_bytes,
        prefetch: PrefetchConfig::OFF,
        ..EngineConfig::paper_default(spec::PROCESSORS, routing)
    }
}

/// A running cluster: storage endpoints, the router thread and the
/// processor threads, all peers of one TCP transport on loopback.
pub struct Cluster {
    transport: Arc<dyn Transport>,
    router_addr: String,
    storage: Vec<ServiceHandle>,
    router: JoinHandle<WireResult<RunSnapshot>>,
    processors: Vec<JoinHandle<WireResult<()>>>,
}

/// Spawns one storage endpoint per tier server over `transport`, each
/// charging `net` per exchange.
pub fn spawn_storage(
    transport: &Arc<dyn Transport>,
    assets: &EngineAssets,
    net: NetworkModel,
    telemetry: &Option<Arc<TelemetryCounters>>,
) -> WireResult<Vec<ServiceHandle>> {
    (0..assets.tier.server_count())
        .map(|id| {
            StorageService::spawn_opts(
                Arc::clone(transport),
                &transport.any_addr(),
                Arc::clone(&assets.tier),
                StorageOptions {
                    net,
                    poller: PollerKind::default_for_host(),
                    telemetry: telemetry.clone(),
                    obs: ObsConfig::disabled(),
                    push_addr: None,
                    id: id as u16,
                },
            )
        })
        .collect()
}

pub fn tcp_transport() -> Arc<dyn Transport> {
    Arc::new(TcpTransport::new())
}

impl Cluster {
    /// Launches the deployment and returns once every processor has joined
    /// the router. `traced` switches the repository's own `stats`-level
    /// tracing and shared telemetry counters on; end-to-end numbers always
    /// come from untraced launches.
    pub fn launch(
        assets: &EngineAssets,
        workload: &Workload,
        routing: RoutingKind,
        traced: bool,
    ) -> WireResult<Cluster> {
        let transport = tcp_transport();
        let poller = PollerKind::default_for_host();
        let trace = if traced {
            TraceLevel::Stats
        } else {
            TraceLevel::Off
        };
        let telemetry = traced.then(|| Arc::new(TelemetryCounters::new()));
        let config = engine_config(workload, routing);

        let router_listener = transport.listen(&transport.any_addr())?;
        let router_addr = router_listener.addr();

        let storage = spawn_storage(&transport, assets, workload.net, &telemetry)?;
        let storage_addrs: Vec<String> = storage.iter().map(|h| h.addr().to_string()).collect();

        let router_assets = assets.clone();
        let router_opts = RouterOptions {
            snapshot_every: 0,
            poller,
            trace,
            telemetry: telemetry.clone(),
            obs: ObsConfig::disabled(),
        };
        let router = std::thread::spawn(move || {
            run_router(router_listener, &router_assets, &config, &router_opts)
        });

        let partitioner = assets.tier.partitioner();
        let joined: Vec<Arc<AtomicBool>> = (0..spec::PROCESSORS)
            .map(|_| Arc::new(AtomicBool::new(false)))
            .collect();
        let processors = joined
            .iter()
            .enumerate()
            .map(|(id, ready)| {
                ProcessorService::spawn_opts(
                    Arc::clone(&transport),
                    id,
                    router_addr.clone(),
                    storage_addrs.clone(),
                    Arc::clone(&partitioner),
                    config,
                    FetchMode::Batched,
                    ProcessorOptions {
                        poller,
                        telemetry: telemetry.clone(),
                        replication: assets.tier.replication(),
                        retry: Some(RetryPolicy::default()),
                        stop: None,
                        ready: Some(Arc::clone(ready)),
                        obs: ObsConfig::disabled(),
                    },
                )
            })
            .collect();

        let cluster = Cluster {
            transport,
            router_addr,
            storage,
            router,
            processors,
        };
        let deadline = Instant::now() + JOIN_DEADLINE;
        while !joined.iter().all(|j| j.load(Ordering::SeqCst)) {
            if Instant::now() > deadline || cluster.router.is_finished() {
                cluster.abort();
                return Err(WireError::Protocol(
                    "processors did not join the router".to_string(),
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(cluster)
    }

    /// Dials the router as a client.
    pub fn dial_client(&self) -> WireResult<Connection> {
        self.transport.dial(&self.router_addr)
    }

    /// Joins every peer after the router has finished the run and returns
    /// the router's final totals.
    pub fn finish(self) -> WireResult<RunSnapshot> {
        let snapshot = self
            .router
            .join()
            .map_err(|_| WireError::Protocol("router thread panicked".to_string()))?;
        let mut dead = 0usize;
        for handle in self.processors {
            if !matches!(handle.join(), Ok(Ok(()))) {
                dead += 1;
            }
        }
        for handle in self.storage {
            handle.shutdown();
        }
        if dead > 0 {
            return Err(WireError::Protocol(format!(
                "{dead} processor thread(s) died"
            )));
        }
        snapshot
    }

    /// Tears a half-started or failed cluster down: tells the router to
    /// abort (which shuts the processors down), then joins everything.
    pub fn abort(self) {
        if let Ok(mut conn) = self.transport.dial(&self.router_addr) {
            let _ = conn.send(&grouting_core::wire::Frame::Shutdown);
        }
        let _ = self.finish();
    }
}
