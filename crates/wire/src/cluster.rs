//! One-machine cluster harness: router + processors + storage as peers.
//!
//! [`launch_cluster`] deploys the full decoupled topology over a chosen
//! transport — every router↔processor dispatch and every processor↔storage
//! fetch crosses a framed connection — runs a workload through it from a
//! client connection, and collects the results into a [`ClusterRun`].
//!
//! With [`TransportKind::Tcp`] the peers are real socket endpoints on
//! loopback (the honest deployment); [`TransportKind::InProc`] swaps in
//! the hermetic channel fabric for sandboxes without loopback — same
//! services, same frames, same encoded bytes.

use std::sync::Arc;

use grouting_engine::{EngineAssets, EngineConfig};
use grouting_metrics::log_warn;
use grouting_metrics::timeline::QueryRecord;
use grouting_metrics::{RunSnapshot, Timeline};
use grouting_obs::ObsConfig;
use grouting_query::{Query, QueryResult};
use grouting_storage::{NetworkModel, Preset};
use grouting_trace::{Stage, TelemetryCounters, TraceLevel, TraceSnapshot};

use crate::error::{WireError, WireResult};
use crate::fault::{FaultPlan, FaultyTransport};
use crate::flow::FetchMode;
use crate::frame::{Frame, Role};
use crate::reactor::PollerKind;
use crate::service::{
    now_ns, run_router, ProcessorOptions, ProcessorService, RouterOptions, ServiceHandle,
    StorageOptions, StorageService,
};
use crate::transport::{InProcTransport, RetryPolicy, TcpTransport, Transport};

/// Which connection fabric a cluster deployment runs on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// Real loopback sockets (`std::net`).
    #[default]
    Tcp,
    /// Hermetic in-process channels (same frames, same encoded bytes).
    InProc,
}

impl TransportKind {
    /// Honours the `GROUTING_NO_SOCKETS=1` escape hatch: TCP normally,
    /// the in-proc fabric in sandboxes without loopback networking.
    pub fn from_env() -> Self {
        match std::env::var("GROUTING_NO_SOCKETS") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => TransportKind::InProc,
            _ => TransportKind::Tcp,
        }
    }

    /// Builds the transport instance.
    pub fn build(self) -> Arc<dyn Transport> {
        match self {
            TransportKind::Tcp => Arc::new(TcpTransport::new()),
            TransportKind::InProc => Arc::new(InProcTransport::new()),
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::Tcp => write!(f, "tcp"),
            TransportKind::InProc => write!(f, "inproc"),
        }
    }
}

/// Honours the `GROUTING_OVERLAP` environment knob for the per-processor
/// in-flight query window: `default` when unset, clamped to ≥ 1
/// (`GROUTING_OVERLAP=1` forces strictly serial execution for comparison
/// runs; `2` is the double-buffered default). An unparsable value is
/// *reported* — one stderr line naming it — rather than silently treated
/// as the default.
pub fn overlap_from_env(default: usize) -> usize {
    match std::env::var("GROUTING_OVERLAP") {
        Err(_) => default,
        Ok(raw) => raw.parse::<usize>().unwrap_or_else(|_| {
            log_warn!(
                "invalid GROUTING_OVERLAP value {raw:?} \
                 (expected a positive integer); using default {default}"
            );
            default
        }),
    }
    .max(1)
}

/// Deployment shape of a wire cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The engine knobs (processors, routing, caches, window, …) — the
    /// same structure the in-proc runtimes consume, which is what makes
    /// wire runs comparable to in-proc runs.
    pub engine: EngineConfig,
    /// Connection fabric.
    pub transport: TransportKind,
    /// Emulated processor↔storage network (charged per fetch at the
    /// storage endpoints; [`Preset::Local`] charges nothing).
    pub net: Preset,
    /// Emit a mid-run metrics snapshot to the client every this many
    /// completions (`0` = final snapshot only).
    pub snapshot_every: u64,
    /// Readiness backend every peer's poll loop runs on
    /// ([`PollerKind::from_env`] honours `GROUTING_REACTOR=sweep|epoll`;
    /// the default is epoll on Linux, the portable sweep elsewhere).
    pub reactor: PollerKind,
    /// End-to-end tracing level ([`TraceLevel::from_env`] honours
    /// `GROUTING_TRACE=off|stats|spans`; default off, which keeps every
    /// frame byte-identical to an untraced deployment).
    pub trace: TraceLevel,
    /// Redial backoff ladder for the processors' storage reconnect paths
    /// (`None` = `GROUTING_RETRY` or the built-in default).
    pub retry: Option<RetryPolicy>,
    /// Scripted faults armed on the *processors'* transport (their dials
    /// towards storage and the router). Empty by default; when empty at
    /// launch, `GROUTING_FAULTS` is consulted instead. The router,
    /// storage endpoints, and client always run unfaulted — the plan
    /// injects failures into exactly the recovery paths under test.
    pub faults: FaultPlan,
    /// Observability deployment: sampler cadence, the router's scrape
    /// bind address, and the flight-recorder dump flag
    /// ([`ObsConfig::from_env`] honours `GROUTING_METRICS_ADDR` and
    /// `GROUTING_OBS_DUMP`; off when neither is set, which keeps every
    /// frame byte-identical to an unobserved deployment).
    pub obs: ObsConfig,
}

impl ClusterConfig {
    /// A cluster over `engine` on the given transport with a free network.
    pub fn new(engine: EngineConfig, transport: TransportKind) -> Self {
        Self {
            engine,
            transport,
            net: Preset::Local,
            snapshot_every: 0,
            reactor: PollerKind::from_env(),
            trace: TraceLevel::from_env(),
            retry: None,
            faults: FaultPlan::new(),
            obs: ObsConfig::from_env(),
        }
    }

    /// Overrides the observability deployment (scrape endpoint, sampling
    /// cadence, flight-recorder dump) — tests pass an explicit config
    /// instead of mutating the process environment.
    #[must_use]
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }

    /// Overrides the processors' storage redial backoff ladder.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Arms a scripted fault plan on the processors' transport (see
    /// [`ClusterConfig::faults`]).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the end-to-end tracing level.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceLevel) -> Self {
        self.trace = trace;
        self
    }

    /// Overrides the readiness backend every peer's poll loop runs on.
    #[must_use]
    pub fn with_reactor(mut self, reactor: PollerKind) -> Self {
        self.reactor = reactor;
        self
    }

    /// Overrides the per-processor in-flight query window (the engine's
    /// [`EngineConfig::overlap`] knob): 1 = strictly serial, 2+ =
    /// cross-query fetch overlap.
    #[must_use]
    pub fn with_overlap(mut self, overlap: usize) -> Self {
        self.engine.overlap = overlap.max(1);
        self
    }

    /// The per-processor in-flight query window this cluster runs with.
    pub fn overlap(&self) -> usize {
        self.engine.overlap.max(1)
    }

    /// Overrides the speculative-prefetch policy and budget (the engine's
    /// [`grouting_engine::EngineConfig::prefetch`] knob; default off).
    #[must_use]
    pub fn with_prefetch(mut self, prefetch: grouting_query::PrefetchConfig) -> Self {
        self.engine.prefetch = prefetch;
        self
    }

    /// The speculative-prefetch configuration this cluster runs with.
    pub fn prefetch(&self) -> grouting_query::PrefetchConfig {
        self.engine.prefetch
    }
}

/// Everything a cluster run produced, assembled client-side purely from
/// frames received over the wire.
#[derive(Debug)]
pub struct ClusterRun {
    /// Query results in sequence order.
    pub results: Vec<QueryResult>,
    /// Per-query lifecycle records (completion order).
    pub timeline: Timeline,
    /// The router's end-of-run totals.
    pub snapshot: RunSnapshot,
    /// Periodic mid-run snapshots, in emission order (empty unless
    /// [`ClusterConfig::snapshot_every`] was set).
    pub mid_snapshots: Vec<RunSnapshot>,
    /// The trace layer's view of the run — per-stage latency histograms,
    /// reactor telemetry, and (at [`TraceLevel::Spans`]) the last query
    /// spans. `None` when the run traced at [`TraceLevel::Off`].
    pub trace: Option<TraceSnapshot>,
    /// Wall-clock duration observed by the client.
    pub wall_ns: u64,
}

impl ClusterRun {
    /// Cache hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        self.snapshot.hit_rate()
    }

    /// Wall-clock throughput in queries/second.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.results.len() as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// Rejects configurations that would otherwise panic inside a service
/// thread (where the failure surfaces as an opaque join error) with a
/// [`WireError::Protocol`] naming the offending field up front.
pub(crate) fn validate_config(assets: &EngineAssets, config: &ClusterConfig) -> WireResult<()> {
    use grouting_route::RoutingKind;
    let bad = |field: &str, why: &str| {
        Err(WireError::Protocol(format!(
            "invalid cluster config: {field} {why}"
        )))
    };
    if config.engine.processors == 0 {
        return bad("engine.processors", "must be at least 1");
    }
    if config.engine.routing == RoutingKind::Landmark && assets.landmarks.is_none() {
        return bad(
            "engine.routing",
            "is landmark but assets.landmarks is missing",
        );
    }
    if config.engine.routing == RoutingKind::Embed && assets.embedding.is_none() {
        return bad("engine.routing", "is embed but assets.embedding is missing");
    }
    Ok(())
}

/// Launches router + `P` processors + `M` storage servers as transport
/// peers, streams `queries` through the cluster, and tears everything
/// down.
///
/// `M` is `assets.tier.server_count()` — one storage endpoint per tier
/// server. The tier handle itself stays on the storage side of the wire;
/// processors see only addresses and the placement function.
///
/// # Errors
///
/// Propagates transport failures, protocol violations, and router errors.
/// A config that would panic inside a service thread — a smart routing
/// scheme without its preprocessing asset, or zero processors — is
/// rejected up front with an error naming the field.
pub fn launch_cluster(
    assets: &EngineAssets,
    queries: &[Query],
    config: &ClusterConfig,
) -> WireResult<ClusterRun> {
    validate_config(assets, config)?;
    let transport = config.transport.build();
    let net = NetworkModel::from(config.net);
    let p = config.engine.processors;
    // One shared telemetry sink for every peer in this deployment (all
    // peers are threads of this process); absent when tracing is off so
    // the hot paths skip their clock reads entirely.
    let telemetry = config
        .trace
        .enabled()
        .then(|| Arc::new(TelemetryCounters::new()));

    // The router listener binds before anything else spawns: its address
    // doubles as the cluster's observability sink, so storage endpoints
    // need it at spawn time to push sampled registries there.
    let router_listener = transport.listen(&transport.any_addr())?;
    let router_addr = router_listener.addr();

    // Storage endpoints, one per tier server.
    let obs_push_addr = config.obs.enabled().then(|| router_addr.clone());
    let mut storage_handles: Vec<ServiceHandle> = Vec::new();
    for id in 0..assets.tier.server_count() {
        storage_handles.push(StorageService::spawn_opts(
            Arc::clone(&transport),
            &transport.any_addr(),
            Arc::clone(&assets.tier),
            StorageOptions {
                net,
                poller: config.reactor,
                telemetry: telemetry.clone(),
                obs: config.obs.clone(),
                push_addr: obs_push_addr.clone(),
                id: id as u16,
            },
        )?);
    }
    let storage_addrs: Vec<String> = storage_handles
        .iter()
        .map(|h| h.addr().to_string())
        .collect();

    // The router node.
    let router_assets = assets.clone();
    let router_config = config.engine;
    let router_opts = RouterOptions {
        snapshot_every: config.snapshot_every,
        poller: config.reactor,
        trace: config.trace,
        telemetry: telemetry.clone(),
        obs: config.obs.clone(),
    };
    let router = std::thread::spawn(move || {
        run_router(
            router_listener,
            &router_assets,
            &router_config,
            &router_opts,
        )
    });

    // The processor fleet. Scripted faults (programmatic plan, or
    // `GROUTING_FAULTS` when none was set) arm only here: the processors'
    // dials and sends misbehave; every other peer stays honest so the
    // test exercises exactly the client-side recovery paths.
    let fault_plan = if config.faults.is_empty() {
        FaultPlan::from_env()
    } else {
        config.faults.clone()
    };
    let proc_transport = FaultyTransport::wrap(Arc::clone(&transport), fault_plan);
    let partitioner = assets.tier.partitioner();
    let processors: Vec<_> = (0..p)
        .map(|id| {
            ProcessorService::spawn_opts(
                Arc::clone(&proc_transport),
                id,
                router_addr.clone(),
                storage_addrs.clone(),
                Arc::clone(&partitioner),
                config.engine,
                FetchMode::Batched,
                ProcessorOptions {
                    poller: config.reactor,
                    telemetry: telemetry.clone(),
                    // The tier IS the replica-chain layout: its factor
                    // tells the wire path how far fetches may fail over.
                    replication: assets.tier.replication(),
                    retry: config.retry,
                    stop: None,
                    ready: None,
                    obs: config.obs.clone(),
                },
            )
        })
        .collect();

    // The client: stream the workload, then collect completions.
    let run = drive_client(&*transport, &router_addr, queries, config.trace);
    if run.is_err() {
        // The router is still parked on its event loop; tell it to abort
        // so the joins below cannot hang on a half-started run.
        if let Ok(mut abort) = transport.dial(&router_addr) {
            let _ = abort.send(&Frame::Shutdown);
        }
    }

    // Teardown order: router exits on its own once the workload drains
    // (or errored, or was aborted above); processors exit on its
    // Shutdown; storage last. A panicked tier thread (e.g. a processor
    // whose storage fetch path died) degrades to an error, not a panic.
    let router_result = router
        .join()
        .map_err(|_| WireError::Protocol("router thread panicked".to_string()))?;
    // Both a panic and a processor that bailed with a wire error count as
    // dead — only a clean Shutdown-driven exit is healthy. What each died
    // of goes into the error, not just how many did.
    let mut dead_processors: Vec<String> = Vec::new();
    for (id, handle) in processors.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(())) => {}
            // A short workload can drain on the processors that joined
            // first, and the router be gone, before a slow-starting thread
            // has dialled it: that processor never joined, it did not die.
            Ok(Err(WireError::Unroutable(addr)))
                if addr == router_addr && router_result.is_ok() => {}
            Ok(Err(e)) => dead_processors.push(format!("processor {id}: {e}")),
            Err(_) => dead_processors.push(format!("processor {id}: panicked")),
        }
    }
    for handle in storage_handles {
        handle.shutdown();
    }

    // Error precedence: the router supervises every peer, so its error is
    // usually the root cause (the client only sees a generic "incomplete
    // results") — unless the router merely echoes the abort *we* sent
    // after the client failed, in which case the client error wins.
    let snapshot = match router_result {
        Ok(snapshot) => snapshot,
        Err(WireError::Protocol(m)) if m.starts_with("run aborted") && run.is_err() => {
            return Err(run.unwrap_err())
        }
        Err(router_err) => return Err(router_err),
    };
    let (results, timeline, client_snapshot, mid_snapshots, trace, wall_ns) = run?;
    if !dead_processors.is_empty() {
        return Err(WireError::Protocol(format!(
            "{} processor thread(s) died mid-run ({})",
            dead_processors.len(),
            dead_processors.join("; ")
        )));
    }
    debug_assert_eq!(
        client_snapshot, snapshot,
        "router sent a different snapshot"
    );
    Ok(ClusterRun {
        results,
        timeline,
        snapshot,
        mid_snapshots,
        trace,
        wall_ns,
    })
}

type ClientRun = (
    Vec<QueryResult>,
    Timeline,
    RunSnapshot,
    Vec<RunSnapshot>,
    Option<TraceSnapshot>,
    u64,
);

fn drive_client(
    transport: &dyn Transport,
    router_addr: &str,
    queries: &[Query],
    trace: TraceLevel,
) -> WireResult<ClientRun> {
    let started = now_ns();
    let mut conn = transport.dial(router_addr)?;
    conn.send(&Frame::Hello {
        role: Role::Client,
        id: 0,
    })?;
    for (seq, query) in queries.iter().enumerate() {
        conn.send(&Frame::Submit {
            seq: seq as u64,
            query: *query,
            // Stamped at send time: the router's queue-wait stage starts
            // here, so client→router transit is charged to the queue.
            submitted_ns: trace.enabled().then(now_ns),
        })?;
    }
    conn.send(&Frame::SubmitEnd)?;

    let mut results: Vec<Option<QueryResult>> = vec![None; queries.len()];
    let mut timeline = Timeline::new();
    // The last Metrics frame before Shutdown is the run's final snapshot;
    // anything earlier is a periodic mid-run emission.
    let mut snapshots: Vec<RunSnapshot> = Vec::new();
    // The completion stage — processor marks a query done to client holds
    // the result — is only observable here, so the client records it and
    // folds it into the router's trace snapshot below.
    let mut traces: Vec<TraceSnapshot> = Vec::new();
    let mut completion_stages = grouting_trace::StageStats::default();
    loop {
        match conn.recv() {
            Ok(Frame::Completion(c)) => {
                let seq = c.seq as usize;
                if seq >= results.len() || results[seq].is_some() {
                    return Err(WireError::Protocol(format!(
                        "unexpected completion for seq {seq}"
                    )));
                }
                if trace.enabled() {
                    completion_stages
                        .record(Stage::Completion, now_ns().saturating_sub(c.completed_ns));
                }
                results[seq] = Some(c.result);
                timeline.push(QueryRecord {
                    seq: c.seq,
                    arrived: c.arrived_ns,
                    started: c.started_ns,
                    completed: c.completed_ns,
                    processor: c.processor as usize,
                });
            }
            Ok(Frame::Metrics { snapshot, trace }) => {
                snapshots.push(snapshot);
                traces.extend(trace.map(|t| *t));
            }
            Ok(Frame::Shutdown) | Err(WireError::Closed) => break,
            Ok(other) => return Err(WireError::Protocol(format!("client got {}", other.kind()))),
            Err(e) => return Err(e),
        }
    }

    let results: Option<Vec<QueryResult>> = results.into_iter().collect();
    let results = results
        .ok_or_else(|| WireError::Protocol("run ended with incomplete results".to_string()))?;
    let snapshot = snapshots
        .pop()
        .ok_or_else(|| WireError::Protocol("run ended without a snapshot".to_string()))?;
    // The router's final trace snapshot is cumulative, so earlier periodic
    // ones are subsumed; graft the client-observed completion stage in.
    let run_trace = traces.pop().map(|mut t| {
        t.stages.merge(&completion_stages);
        t
    });
    Ok((
        results,
        timeline,
        snapshot,
        snapshots,
        run_trace,
        now_ns().saturating_sub(started),
    ))
}
