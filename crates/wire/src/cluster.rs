//! One-machine cluster harness: router + processors + storage as peers.
//!
//! One launcher deploys the full decoupled topology over a chosen
//! transport — every router↔processor dispatch and every processor↔storage
//! fetch crosses a framed connection — runs a workload through it from a
//! client connection, and collects the results into a [`ClusterRun`].
//! [`launch_chaos_cluster`] runs a [`ChaosScript`]: waves of queries with
//! node kills and restarts between them. [`launch_cluster`] is the plain
//! workload, a one-wave script with no actions — so every wire run gets
//! the same router, fleet, client and teardown, and a chaos run honours
//! [`ClusterConfig::trace`] and [`ClusterConfig::obs`] like any other.
//!
//! With [`TransportKind::Tcp`] the peers are real socket endpoints on
//! loopback (the honest deployment); [`TransportKind::InProc`] swaps in
//! Unix-domain sockets for sandboxes without loopback — same services,
//! same framing code, same bytes. Either way every peer idles the same
//! way: it blocks in `epoll_wait` (see [`crate::reactor`]).

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use grouting_engine::{EngineAssets, EngineConfig};
use grouting_metrics::log_warn;
use grouting_metrics::timeline::QueryRecord;
use grouting_metrics::{RunSnapshot, Timeline};
use grouting_obs::ObsConfig;
use grouting_query::{Query, QueryResult};
use grouting_trace::{Stage, StageStats, TelemetryCounters, TraceLevel, TraceSnapshot};

use crate::chaos::{apply_action, ChaosScript};
use crate::error::{WireError, WireResult};
use crate::fault::{FaultPlan, FaultyTransport};
use crate::flow::FetchMode;
use crate::frame::{Frame, Role};
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
    /// Hermetic Unix-domain sockets (same frames, same bytes, no network).
    InProc,
}

impl TransportKind {
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

/// Deployment shape of a wire cluster: the engine knobs plus how the
/// cluster is deployed. Fields are public; override with struct update
/// (`ClusterConfig { retry: Some(..), ..ClusterConfig::new(engine, t) }`).
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The engine knobs (processors, routing, caches, window, overlap,
    /// …) — the same structure the simulator consumes, which is
    /// what makes wire runs comparable to simulated ones.
    pub engine: EngineConfig,
    /// Connection fabric.
    pub transport: TransportKind,
    /// Emit a mid-run metrics snapshot to the client every this many
    /// completions (`0` = final snapshot only).
    pub snapshot_every: u64,
    /// End-to-end tracing level (default off, which keeps every frame
    /// byte-identical to an untraced deployment).
    pub trace: TraceLevel,
    /// Redial backoff ladder for the processors' storage reconnect paths
    /// (`None` = [`RetryPolicy::default`]).
    pub retry: Option<RetryPolicy>,
    /// Scripted faults armed on the *processors'* transport (their dials
    /// towards storage and the router); empty by default. The router,
    /// storage endpoints, and client always run unfaulted — the plan
    /// injects failures into exactly the recovery paths under test.
    pub faults: FaultPlan,
    /// Observability deployment: sampler cadence, the router's scrape
    /// bind address, and the flight-recorder dump flag (off by default,
    /// which keeps every frame byte-identical to an unobserved
    /// deployment).
    pub obs: ObsConfig,
}

impl ClusterConfig {
    /// A cluster over `engine` on the given transport with a free network
    /// and every deployment knob at its default. Reads nothing from the
    /// environment.
    pub fn new(engine: EngineConfig, transport: TransportKind) -> Self {
        Self {
            engine,
            transport,
            snapshot_every: 0,
            trace: TraceLevel::Off,
            retry: None,
            faults: FaultPlan::new(),
            obs: ObsConfig::disabled(),
        }
    }

    /// `engine` deployed as the process environment asks. This is the one
    /// reader of the cluster's `GROUTING_*` variables:
    ///
    /// | Variable | Sets |
    /// |---|---|
    /// | `GROUTING_NO_SOCKETS=1` | [`TransportKind::InProc`] (and no scrape endpoint) |
    /// | `GROUTING_OVERLAP=N` | [`EngineConfig::overlap`], clamped to ≥ 1 |
    /// | `GROUTING_TRACE=off\|stats\|spans` | [`ClusterConfig::trace`] |
    /// | `GROUTING_FAULTS=rule;…` | [`ClusterConfig::faults`] |
    /// | `GROUTING_METRICS_ADDR=host:port` | [`ObsConfig::metrics_addr`] |
    /// | `GROUTING_OBS_DUMP=1` | [`ObsConfig::dump`] |
    ///
    /// Unset variables leave [`ClusterConfig::new`]'s value (and
    /// `engine`'s); an invalid value warns on stderr, naming it, and
    /// keeps that default.
    pub fn from_env(engine: EngineConfig) -> Self {
        Self::from_vars(engine, |key| std::env::var(key).ok())
    }

    /// [`ClusterConfig::from_env`] over an arbitrary variable lookup, so
    /// tests can pass a map instead of mutating the process environment.
    pub fn from_vars(engine: EngineConfig, var: impl Fn(&str) -> Option<String>) -> Self {
        let no_sockets =
            var("GROUTING_NO_SOCKETS").is_some_and(|v| v == "1" || v.eq_ignore_ascii_case("true"));
        let transport = if no_sockets {
            TransportKind::InProc
        } else {
            TransportKind::Tcp
        };
        let mut config = Self::new(engine, transport);
        if let Some(raw) = var("GROUTING_OVERLAP") {
            match raw.parse::<usize>() {
                Ok(overlap) => config.engine.overlap = overlap.max(1),
                Err(_) => log_warn!(
                    "invalid GROUTING_OVERLAP value {raw:?} \
                     (expected a positive integer); using default {}",
                    engine.overlap
                ),
            }
        }
        if let Some(raw) = var("GROUTING_TRACE") {
            match TraceLevel::parse(&raw) {
                Some(level) => config.trace = level,
                None => log_warn!("unknown GROUTING_TRACE value {raw:?}; tracing stays off"),
            }
        }
        if let Some(raw) = var("GROUTING_FAULTS") {
            config.faults = FaultPlan::parse(&raw);
        }
        // No loopback, no scrape endpoint; the sampler and push path still
        // run when the dump flag asks for them.
        config.obs.metrics_addr =
            var("GROUTING_METRICS_ADDR").filter(|a| !a.is_empty() && !no_sockets);
        config.obs.dump = var("GROUTING_OBS_DUMP").is_some_and(|v| !v.is_empty() && v != "0");
        config
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
fn validate_config(assets: &EngineAssets, config: &ClusterConfig) -> WireResult<()> {
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

/// Streams `queries` through a freshly launched cluster and tears it
/// down: [`launch_chaos_cluster`] on a one-wave script without actions,
/// failing as it does.
pub fn launch_cluster(
    assets: &EngineAssets,
    queries: &[Query],
    config: &ClusterConfig,
) -> WireResult<ClusterRun> {
    launch_chaos_cluster(assets, &ChaosScript::new().wave(queries.to_vec()), config)
}

/// Launches router + `P` processors + `M` storage servers as transport
/// peers and runs `script` through them: submit a wave, and if actions
/// follow it, drain its completions and execute them — then `SubmitEnd`
/// and the teardown. Results, timeline, the final snapshot (whose
/// failover counters reflect every recovery the script forced) and, when
/// [`ClusterConfig::trace`] is on, the run's trace come back as a
/// [`ClusterRun`].
///
/// `M` is `assets.tier.server_count()` — one storage endpoint per tier
/// server. The tier handle itself stays on the storage side of the wire;
/// processors see only addresses and the placement function.
///
/// # Errors
///
/// Propagates transport failures, protocol violations, and router errors,
/// naming every processor that died unkilled. Errors also name the field
/// of a config that would panic a service thread (a smart routing scheme
/// without its asset, zero processors), a script action on a node in the
/// wrong state, and a restarted processor that never re-joined.
pub fn launch_chaos_cluster(
    assets: &EngineAssets,
    script: &ChaosScript,
    config: &ClusterConfig,
) -> WireResult<ClusterRun> {
    validate_config(assets, config)?;
    let transport = config.transport.build();
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

    // Storage endpoints, one per tier server, each restartable at the
    // address it announces here.
    let obs_push_addr = config.obs.enabled().then(|| router_addr.clone());
    let spawn_storage = |id: usize, addr: &str| {
        StorageService::spawn_opts(
            Arc::clone(&transport),
            addr,
            Arc::clone(&assets.tier),
            StorageOptions {
                telemetry: telemetry.clone(),
                obs: config.obs.clone(),
                push_addr: obs_push_addr.clone(),
                id: id as u16,
                ..StorageOptions::default()
            },
        )
    };
    let storage = (0..assets.tier.server_count())
        .map(|id| spawn_storage(id, &transport.any_addr()).map(Some))
        .collect::<WireResult<Vec<_>>>()?;
    let storage_addrs: Vec<String> = storage
        .iter()
        .flatten()
        .map(|h| h.addr().to_string())
        .collect();

    // The router node.
    let router_assets = assets.clone();
    let router_config = config.engine;
    let router_opts = RouterOptions {
        snapshot_every: config.snapshot_every,
        trace: config.trace,
        telemetry: telemetry.clone(),
        obs: config.obs.clone(),
        ..RouterOptions::default()
    };
    let router = std::thread::Builder::new()
        .name("router".to_string())
        .spawn(move || {
            run_router(
                router_listener,
                &router_assets,
                &router_config,
                &router_opts,
            )
        })?;

    // The processor fleet, each with a kill switch that stays inert unless
    // the script kills that processor. Scripted faults arm only here: the
    // processors' dials and sends misbehave; every other peer stays honest
    // so the run exercises exactly the client-side recovery paths.
    let proc_transport = FaultyTransport::wrap(Arc::clone(&transport), config.faults.clone());
    let partitioner = assets.tier.partitioner();
    let spawn_proc = |id: usize, ready: Option<Arc<AtomicBool>>| {
        let stop = Arc::new(AtomicBool::new(false));
        let join = ProcessorService::spawn_opts(
            Arc::clone(&proc_transport),
            id,
            router_addr.clone(),
            storage_addrs.clone(),
            Arc::clone(&partitioner),
            config.engine,
            FetchMode::Batched,
            ProcessorOptions {
                telemetry: telemetry.clone(),
                // The tier IS the replica-chain layout: its factor
                // tells the wire path how far fetches may fail over.
                replication: assets.tier.replication(),
                retry: config.retry,
                stop: Some(Arc::clone(&stop)),
                ready,
                obs: config.obs.clone(),
                ..ProcessorOptions::default()
            },
        );
        ProcSlot { stop, join }
    };
    let mut fleet = Fleet {
        procs: (0..config.engine.processors)
            .map(|id| Some(spawn_proc(id, None)))
            .collect(),
        storage,
        spawn_proc: &spawn_proc,
        restart_storage: &|server| spawn_storage(server, &storage_addrs[server]),
    };

    let started = now_ns();
    let run = drive_client(&*transport, &router_addr, script, config.trace, &mut fleet);
    let wall_ns = now_ns().saturating_sub(started);
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
    // Processors the script killed were joined when it killed them. Of the
    // survivors, both a panic and one that bailed with a wire error count
    // as dead — only a clean Shutdown-driven exit is healthy. What each
    // died of goes into the error, not just how many did.
    let mut dead_processors: Vec<String> = Vec::new();
    for (id, slot) in fleet.procs.into_iter().enumerate() {
        let Some(slot) = slot else { continue };
        match slot.join.join() {
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
    for handle in fleet.storage.into_iter().flatten() {
        handle.shutdown();
    }

    // Error precedence: the router supervises every peer, so its error is
    // usually the root cause (the client only sees a generic "incomplete
    // results") — unless it merely echoes the client: `Closed` is the
    // client's own hangup after it bailed, "run aborted" the abort sent
    // above. Then the client error wins.
    let snapshot = match router_result {
        Ok(snapshot) => snapshot,
        Err(router_err) => {
            let echo = matches!(&router_err, WireError::Closed)
                || matches!(&router_err, WireError::Protocol(m) if m.starts_with("run aborted"));
            return Err(match run {
                Err(client_err) if echo => client_err,
                _ => router_err,
            });
        }
    };
    let run = run?;
    if !dead_processors.is_empty() {
        return Err(WireError::Protocol(format!(
            "{} processor thread(s) died mid-run ({})",
            dead_processors.len(),
            dead_processors.join("; ")
        )));
    }
    debug_assert_eq!(run.snapshot, snapshot, "router sent a different snapshot");
    Ok(ClusterRun {
        snapshot,
        wall_ns,
        ..run
    })
}

/// A spawned processor the script can kill and account for.
pub(crate) struct ProcSlot {
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) join: std::thread::JoinHandle<WireResult<()>>,
}

/// The nodes of a running deployment that a script kills and restarts.
pub(crate) struct Fleet<'a> {
    /// Processors by id; `None` while killed.
    pub(crate) procs: Vec<Option<ProcSlot>>,
    /// Storage endpoints by server; `None` while killed.
    pub(crate) storage: Vec<Option<ServiceHandle>>,
    /// Spawns processor `id`, raising `ready` once the router has
    /// acknowledged its join.
    pub(crate) spawn_proc: &'a dyn Fn(usize, Option<Arc<AtomicBool>>) -> ProcSlot,
    /// Respawns storage endpoint `server` at the address it announced.
    pub(crate) restart_storage: &'a dyn Fn(usize) -> WireResult<ServiceHandle>,
}

/// What the client collects from the router connection.
#[derive(Default)]
struct Collected {
    results: Vec<Option<QueryResult>>,
    timeline: Timeline,
    /// The last Metrics frame is the run's final snapshot (and trace).
    snapshots: Vec<RunSnapshot>,
    traces: Vec<TraceSnapshot>,
    /// Processor marks a query done → client holds the result: a stage
    /// only the client observes, grafted into the router's trace.
    completion_stages: StageStats,
    traced: bool,
}

impl Collected {
    /// Files one receive from the router; `Ok(false)` once the run is
    /// over (Shutdown, or the connection closed).
    fn take(&mut self, received: WireResult<Frame>) -> WireResult<bool> {
        match received {
            Ok(Frame::Completion(c)) => {
                let seq = c.seq as usize;
                if seq >= self.results.len() || self.results[seq].is_some() {
                    return Err(WireError::Protocol(format!(
                        "unexpected completion for seq {seq}"
                    )));
                }
                if self.traced {
                    self.completion_stages
                        .record(Stage::Completion, now_ns().saturating_sub(c.completed_ns));
                }
                self.results[seq] = Some(c.result);
                self.timeline.push(QueryRecord {
                    seq: c.seq,
                    arrived: c.arrived_ns,
                    started: c.started_ns,
                    completed: c.completed_ns,
                    processor: c.processor as usize,
                });
            }
            Ok(Frame::Metrics { snapshot, trace }) => {
                self.snapshots.push(snapshot);
                self.traces.extend(trace.map(|t| *t));
            }
            Ok(Frame::Shutdown) | Err(WireError::Closed) => return Ok(false),
            Ok(other) => return Err(WireError::Protocol(format!("client got {}", other.kind()))),
            Err(e) => return Err(e),
        }
        Ok(true)
    }
}

/// The client: submits each wave (stamping `submitted_ns` when traced),
/// drains it and runs its actions when any follow it, then sends
/// `SubmitEnd` and collects everything up to the router's Shutdown. A
/// one-wave script without actions is Hello, the Submits and SubmitEnd
/// back to back. `wall_ns` is left for the caller to fill in.
fn drive_client(
    transport: &dyn Transport,
    router_addr: &str,
    script: &ChaosScript,
    trace: TraceLevel,
    fleet: &mut Fleet<'_>,
) -> WireResult<ClusterRun> {
    let traced = trace.enabled();
    let mut conn = transport.dial(router_addr)?;
    conn.send(&Frame::Hello {
        role: Role::Client,
        id: 0,
    })?;
    let mut got = Collected {
        results: vec![None; script.query_count()],
        traced,
        ..Collected::default()
    };
    let mut submitted = 0;
    for wave in &script.waves {
        for query in &wave.queries {
            conn.send(&Frame::Submit {
                seq: submitted as u64,
                query: *query,
                // Stamped at send time: the router's queue-wait stage starts
                // here, so client→router transit is charged to the queue.
                submitted_ns: traced.then(now_ns),
            })?;
            submitted += 1;
        }
        if wave.after.is_empty() {
            continue;
        }
        // Actions run with every dispatch window empty.
        while got.timeline.len() < submitted {
            if !got.take(conn.recv())? {
                return Err(WireError::Protocol(
                    "router ended the run mid-wave".to_string(),
                ));
            }
        }
        for action in &wave.after {
            apply_action(*action, &mut conn, fleet, &mut got.snapshots)?;
        }
    }
    conn.send(&Frame::SubmitEnd)?;
    while got.take(conn.recv())? {}

    let results = (got.results.into_iter().collect::<Option<Vec<_>>>())
        .ok_or_else(|| WireError::Protocol("run ended with incomplete results".to_string()))?;
    let snapshot = got
        .snapshots
        .pop()
        .ok_or_else(|| WireError::Protocol("run ended without a snapshot".to_string()))?;
    // The router's final trace snapshot is cumulative, so earlier ones are
    // subsumed; graft the client-observed completion stage in.
    let trace = got.traces.pop().map(|mut t| {
        t.stages.merge(&got.completion_stages);
        t
    });
    Ok(ClusterRun {
        results,
        timeline: got.timeline,
        snapshot,
        mid_snapshots: got.snapshots,
        trace,
        wall_ns: 0,
    })
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use grouting_route::RoutingKind;
    use grouting_storage::HashPartitioner;
    use grouting_storage::StorageTier;

    use super::*;

    fn engine() -> EngineConfig {
        EngineConfig::paper_default(3, RoutingKind::Hash)
    }

    #[test]
    fn smart_routing_without_its_asset_is_a_config_error() {
        let tier = StorageTier::new(Arc::new(HashPartitioner::new(1)));
        let assets = EngineAssets::new(Arc::new(tier));
        for routing in [RoutingKind::Embed, RoutingKind::Landmark] {
            let config = ClusterConfig::new(
                EngineConfig::paper_default(1, routing),
                TransportKind::InProc,
            );
            match launch_cluster(&assets, &[], &config) {
                Err(WireError::Protocol(msg)) => {
                    assert!(msg.contains("engine.routing"), "{routing}: {msg}")
                }
                other => panic!("{routing}: expected a config error, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_run_has_zero_rates() {
        let run = ClusterRun {
            results: Vec::new(),
            timeline: Timeline::new(),
            snapshot: RunSnapshot::default(),
            mid_snapshots: Vec::new(),
            trace: None,
            wall_ns: 0,
        };
        assert_eq!(run.hit_rate(), 0.0);
        assert_eq!(run.throughput_qps(), 0.0);
    }

    /// `ClusterConfig::from_vars` over a map — never the process
    /// environment, which other tests in this binary share.
    fn read(vars: &[(&str, &str)]) -> ClusterConfig {
        let vars: HashMap<&str, &str> = vars.iter().copied().collect();
        ClusterConfig::from_vars(engine(), |key| vars.get(key).map(|v| v.to_string()))
    }

    #[test]
    fn empty_environment_is_the_hermetic_default() {
        assert_eq!(
            format!("{:?}", read(&[])),
            format!("{:?}", ClusterConfig::new(engine(), TransportKind::Tcp))
        );
    }

    #[test]
    fn each_variable_sets_its_field() {
        let c = read(&[
            ("GROUTING_OVERLAP", "4"),
            ("GROUTING_TRACE", "spans"),
            ("GROUTING_FAULTS", "kill:3@:9100"),
            ("GROUTING_METRICS_ADDR", "127.0.0.1:0"),
            ("GROUTING_OBS_DUMP", "1"),
        ]);
        assert_eq!(c.transport, TransportKind::Tcp);
        assert_eq!(c.engine.overlap, 4);
        assert_eq!(c.trace, TraceLevel::Spans);
        assert!(!c.faults.is_empty());
        assert_eq!(c.obs.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert!(c.obs.dump);
        // The rest of the engine is the caller's.
        assert_eq!(c.engine.processors, 3);
        assert_eq!(c.engine.seed, engine().seed);
    }

    #[test]
    fn zero_overlap_clamps_to_one() {
        assert_eq!(read(&[("GROUTING_OVERLAP", "0")]).engine.overlap, 1);
    }

    #[test]
    fn invalid_values_keep_the_default() {
        let c = read(&[
            ("GROUTING_OVERLAP", "lots"),
            ("GROUTING_TRACE", "spans:64"),
            ("GROUTING_OBS_DUMP", "0"),
        ]);
        assert_eq!(c.engine.overlap, engine().overlap);
        assert_eq!(c.trace, TraceLevel::Off);
        assert!(!c.obs.dump);
    }

    #[test]
    fn no_sockets_selects_inproc_and_drops_the_scrape_endpoint() {
        let c = read(&[
            ("GROUTING_NO_SOCKETS", "1"),
            ("GROUTING_METRICS_ADDR", "127.0.0.1:9464"),
        ]);
        assert_eq!(c.transport, TransportKind::InProc);
        assert_eq!(c.obs.metrics_addr, None);
    }
}
