//! Service loops exposing the engine's tiers as wire endpoints.
//!
//! Three services turn the in-process cluster into independently runnable
//! peers, one per tier of the paper's Figure 2 — each driven by ONE
//! readiness [`Reactor`] thread multiplexing all of that node's framed
//! connections, rather than a thread per connection. Each loop is an I/O
//! shell around a core that decides without I/O; the shell moves frames,
//! reads the clock once a round and honours the round's [`crate::Wake`]:
//!
//! * [`StorageService`] — answers [`Frame::FetchBatchRequest`]s from every
//!   inbound connection through a storage core, which decides what a
//!   fetch returns from the [`StorageTier`] and when its response falls
//!   due under the [`NetworkModel`] (the `gRouting-E` emulation knob);
//! * [`ProcessorService`] — a query processor: polls its router
//!   connection and drives a [`QueryPipeline`] over a
//!   [`MultiplexedStorageSource`] — up to [`EngineConfig::overlap`]
//!   dispatched queries in flight, one query's frontier batch travelling
//!   while another's compute stage runs. The pipeline reaches storage and
//!   the clock only through its [`crate::FetchSeam`];
//! * [`run_router`] — the router node: accepts client and processor
//!   connections and hands their frames to a router core around the
//!   shared [`grouting_engine::Engine`], which decides admission,
//!   routing, stealing, each processor's dispatch window of up to
//!   `overlap` queries, death (mark-down + resubmission of the window) and
//!   rejoin (mark-up); the core stamps arrivals, forwards completions and
//!   answers mid-run [`Frame::MetricsRequest`]s, and the shell emits the
//!   final [`RunSnapshot`].
//!
//! All three speak only [`Frame`]s over [`Transport`] connections, so the
//! same loops run over TCP loopback and the hermetic in-proc fabric. The
//! storage and router shells run one drive path — [`Reactor::poll`], the
//! core's step, [`Reactor::honour`] — and all three idle through the one
//! idle policy of [`crate::reactor`]: epoll-tracked over TCP on Linux, the
//! swept yield/sleep fallback otherwise. None carries a spin or park of its
//! own: a storage delay waits in its core's due-time queue.
//!
//! Replies leave once per round and connection. The router's and
//! storage's replies are staged by [`Reactor::send`] and written when
//! [`Reactor::honour`] ends the round; a processor stages the completions
//! of one pipeline step and flushes them together. Only the processor's
//! fetch requests leave as they are made: a query's fetch must be on the
//! wire before another query's compute runs, or the pipeline's overlap is
//! lost.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use grouting_engine::{EngineAssets, EngineConfig};
use grouting_metrics::{set_node_role, DecayingHeat, FailoverStats, HeatMap, RunSnapshot};
use grouting_obs::{NodeObs, NodeRole, ObsConfig};
use grouting_query::PrefetchStats;
use grouting_storage::Partitioner;
use grouting_storage::{NetworkModel, StorageTier};
use grouting_trace::{TelemetryCounters, TraceLevel};

use crate::error::{WireError, WireResult};
use crate::flow::{FetchMode, MultiplexedStorageSource};
use crate::frame::{Completion, Frame, Role};
use crate::overlap::{Input, QueryPipeline};
use crate::reactor::{PollerKind, Reactor, ReactorEvent};
use crate::router::RouterCore;
use crate::storage::StorageCore;
use crate::transport::{Listener, RetryPolicy, Transport};

/// Monotonic nanoseconds since a process-wide epoch, shared by every
/// service so lifecycle timestamps are comparable within one machine.
pub fn now_ns() -> u64 {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Handle to a spawned background service (storage).
pub struct ServiceHandle {
    addr: String,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ServiceHandle {
    /// The address peers dial to reach this service.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stops the reactor loop and joins the service thread. The loop
    /// checks the stop flag between poll sweeps, so no wake-up dial is
    /// needed.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = join.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------------

/// Storage-side knobs beyond the tier handle.
pub struct StorageOptions {
    /// Emulated per-fetch wire delay ([`NetworkModel::local`] charges
    /// nothing).
    pub net: NetworkModel,
    /// Selects nothing: there is one poller. Named by the benchmark
    /// (`load/`); the next `benchmark` PR drops it.
    pub poller: PollerKind,
    /// Deployment-shared reactor telemetry.
    pub telemetry: Option<Arc<TelemetryCounters>>,
    /// Observability: sampler cadence, scrape endpoint, flight-recorder
    /// dump flag.
    pub obs: ObsConfig,
    /// Router address to push sampled registries to (observability only).
    /// The connection is dialled lazily on the first push and never says
    /// hello — the router absorbs `ObsPush` frames from any peer.
    pub push_addr: Option<String>,
    /// This storage server's id (observability labels and log prefixes).
    pub id: u16,
}

impl Default for StorageOptions {
    fn default() -> Self {
        Self {
            net: NetworkModel::local(),
            poller: PollerKind::default_for_host(),
            telemetry: None,
            obs: ObsConfig::disabled(),
            push_addr: None,
            id: 0,
        }
    }
}

/// A storage server endpoint serving adjacency fetches over the wire.
pub struct StorageService;

impl StorageService {
    /// Spawns a storage endpoint on `transport` at `addr`
    /// ([`Transport::any_addr`] for an ephemeral one; a concrete address
    /// for the restart half of a kill/restart cycle — TCP listeners bind
    /// with `SO_REUSEADDR`, so a restart does not wait out `TIME_WAIT`),
    /// serving `tier` under `opts`. One reactor thread serves every
    /// inbound connection — O(1) threads per storage node regardless of
    /// how many processors dial it.
    ///
    /// Emulated delays ([`StorageOptions::net`]) model *wire latency*, not
    /// server occupancy: every response waits in one due-time queue while
    /// the loop keeps serving, so concurrent exchanges overlap their flight
    /// time as over a remote wire. On a free network it is due at once.
    ///
    /// # Errors
    ///
    /// Fails when the transport cannot bind a listener at `addr`.
    pub fn spawn_opts(
        transport: Arc<dyn Transport>,
        addr: &str,
        tier: Arc<StorageTier>,
        opts: StorageOptions,
    ) -> WireResult<ServiceHandle> {
        let listener = transport.listen(addr)?;
        let addr = listener.addr();
        let stop = Arc::new(AtomicBool::new(false));
        let stop_loop = Arc::clone(&stop);
        let StorageOptions {
            net,
            poller: _,
            telemetry,
            obs: obs_cfg,
            push_addr,
            id,
        } = opts;
        // The thread carries the same name the log prefix does, so
        // `/proc/self/task/*/comm` attributes CPU by role.
        let role = format!("storage-{id}");
        let thread = std::thread::Builder::new().name(role.clone());
        let join = thread.spawn(move || {
            set_node_role(role);
            let mut reactor = Reactor::new(listener);
            if let Some(t) = &telemetry {
                reactor.set_telemetry(Arc::clone(t));
            }
            let mut obs = NodeObs::new(NodeRole::Storage, id, &obs_cfg);
            let mut core = StorageCore::new(tier, net);
            // The lazily dialled anonymous connection `ObsPush` frames ride.
            let mut push_conn = None;
            let mut events: Vec<ReactorEvent> = Vec::new();
            while !stop_loop.load(Ordering::SeqCst) {
                if reactor.poll(&mut events).is_err() {
                    break;
                }
                let now = now_ns();
                let inputs = events.drain(..).filter_map(|event| match event {
                    ReactorEvent::Frame(conn, frame) => Some(Input::Frame(conn, frame)),
                    ReactorEvent::Closed(conn) => Some(Input::Closed(conn)),
                    ReactorEvent::Opened(_) => None,
                });
                let wake = core.step(now, inputs, &mut reactor);
                if let Some(o) = obs.as_mut() {
                    o.maybe_sample(now, |r| {
                        r.counter("grouting_storage_batches_total", core.batches);
                        r.counter("grouting_storage_records_total", core.records);
                        r.gauge("grouting_storage_delayed_responses", core.delayed() as f64);
                        if let Some(t) = &telemetry {
                            r.absorb_reactor(&t.snapshot());
                        }
                    });
                    if let Some(snap) = o.take_push() {
                        if push_conn.is_none() {
                            // One attempt, no patience: a push that
                            // cannot be delivered is dropped anyway, and
                            // this loop has fetches to serve.
                            push_conn = push_addr
                                .as_deref()
                                .and_then(|a| transport.dial_once(a).ok());
                        }
                        if let Some(conn) = push_conn.as_mut() {
                            if conn.send(&Frame::ObsPush { snapshot: snap }).is_err() {
                                // The router is gone (run over, or mid
                                // fault); retry the dial on the next push.
                                push_conn = None;
                            }
                        }
                    }
                    o.poll_scrape(now);
                }
                reactor.honour(wake);
            }
            if let Some(o) = obs.as_ref() {
                o.teardown();
            }
        })?;
        Ok(ServiceHandle {
            addr,
            stop,
            join: Some(join),
        })
    }
}

// ---------------------------------------------------------------------------
// Processor
// ---------------------------------------------------------------------------

/// Processor-side knobs beyond the engine configuration.
pub struct ProcessorOptions {
    /// Selects nothing: there is one poller. Named by the benchmark
    /// (`load/`); the next `benchmark` PR drops it.
    pub poller: PollerKind,
    /// Deployment-shared reactor telemetry.
    pub telemetry: Option<Arc<TelemetryCounters>>,
    /// Replica-chain length for storage failover: a fetch its home
    /// endpoint cannot serve fails over to `(home + k) % servers` for
    /// `k < replication`. `1` = no replication — an endpoint death is
    /// fatal once the redial ladder is exhausted.
    pub replication: usize,
    /// Redial backoff ladder towards storage (`None` =
    /// [`RetryPolicy::default`]).
    pub retry: Option<RetryPolicy>,
    /// External kill switch: when raised, the processor exits its loop as
    /// if it had crashed — its connections drop and the router masks the
    /// death.
    pub stop: Option<Arc<AtomicBool>>,
    /// Re-join acknowledgement flag: when set, the processor sends a
    /// [`Frame::MetricsRequest`] right after its hello and raises the flag
    /// once the router's [`Frame::Metrics`] reply arrives. Frames on one
    /// connection are handled in order, so a raised flag proves the router
    /// has marked this processor up — chaos harnesses wait on it before
    /// submitting work a restarted processor must be in rotation for.
    pub ready: Option<Arc<AtomicBool>>,
    /// Observability: sampler cadence, scrape endpoint, flight-recorder
    /// dump flag. Sampled registries are pushed to the router as
    /// [`Frame::ObsPush`] on the existing router connection.
    pub obs: ObsConfig,
}

impl Default for ProcessorOptions {
    fn default() -> Self {
        Self {
            poller: PollerKind::default_for_host(),
            telemetry: None,
            replication: 1,
            retry: None,
            stop: None,
            ready: None,
            obs: ObsConfig::disabled(),
        }
    }
}

/// A query processor endpoint: executes dispatched queries against its
/// cache, missing to remote storage.
pub struct ProcessorService;

impl ProcessorService {
    /// Spawns processor `id`: dials the router and the storage endpoints,
    /// then serves dispatched queries until the router says
    /// [`Frame::Shutdown`] (or [`ProcessorOptions::stop`] is raised).
    ///
    /// The cache is built exactly as the in-proc engine builds its own
    /// ([`EngineConfig::build_cache`]), with the miss path swapped for a
    /// [`MultiplexedStorageSource`]. The loop polls the router connection
    /// and drives a [`QueryPipeline`]: up to [`EngineConfig::overlap`]
    /// dispatched queries in flight, one query's frontier batch on the
    /// wire while another computes. At `overlap = 1` the pipeline replays
    /// byte-identical cache accounting to the serial paths, which is why
    /// wire runs agree with in-proc runs on every cache statistic.
    #[allow(clippy::too_many_arguments)]
    pub fn spawn_opts(
        transport: Arc<dyn Transport>,
        id: usize,
        router_addr: String,
        storage_addrs: Vec<String>,
        partitioner: Arc<dyn Partitioner>,
        config: EngineConfig,
        fetch: FetchMode,
        opts: ProcessorOptions,
    ) -> std::thread::JoinHandle<WireResult<()>> {
        // Named by the benchmark (`load/`); the next `benchmark` PR drops it.
        let FetchMode::Batched = fetch;
        // Thread name = log prefix, as for storage.
        let role = format!("proc-{id}");
        std::thread::Builder::new()
            .name(role.clone())
            .spawn(move || {
                set_node_role(role);
                run_processor(
                    &transport,
                    id,
                    &router_addr,
                    &storage_addrs,
                    partitioner,
                    &config,
                    opts,
                )
            })
            .expect("spawn processor thread")
    }
}

/// The processor loop, which only moves frames: it drains the router
/// connection's dispatches into the [`QueryPipeline`] (the router sends up
/// to `overlap` ahead of acknowledgements), steps it, acknowledges the
/// step's completions with their changed tallies in one write — possibly
/// out of dispatch order, which the router correlates by sequence number —
/// samples observability, and honours the round's [`crate::Wake`]. Every
/// decision, the running totals included, is the pipeline's.
fn run_processor(
    transport: &Arc<dyn Transport>,
    id: usize,
    router_addr: &str,
    storage_addrs: &[String],
    partitioner: Arc<dyn Partitioner>,
    config: &EngineConfig,
    opts: ProcessorOptions,
) -> WireResult<()> {
    let mut source =
        MultiplexedStorageSource::new(Arc::clone(transport), storage_addrs, partitioner)
            .with_replication(opts.replication);
    if let Some(retry) = opts.retry {
        source = source.with_retry(retry);
    }
    if let Some(t) = &opts.telemetry {
        source.set_telemetry(Arc::clone(t));
    }
    let mut cache = config.build_cache();
    let mut pipeline = QueryPipeline::new(config.overlap);
    let router = transport.dial(router_addr)?;
    let (mut sink, mut stream) = router.split();
    // The router connection joins the storage connections on the source's
    // poller, so an idle processor parks on ONE wait covering dispatches
    // and fetch replies alike.
    source.register_external(
        MultiplexedStorageSource::EXTERNAL_TOKEN_BASE,
        stream.raw_fd(),
    );
    sink.send(&Frame::Hello {
        role: Role::Processor,
        id: id as u32,
    })?;
    if opts.ready.is_some() {
        sink.send(&Frame::MetricsRequest)?;
    }
    let mut obs = NodeObs::new(NodeRole::Processor, id as u16, &opts.obs);
    // The cumulative tallies as last sent to the router: a completion
    // carries a tally only when it differs from these, and the default
    // (unchanged) otherwise.
    let mut sent_failover = FailoverStats::default();
    let mut sent_heat = HeatMap::new();
    let stop = opts.stop.clone().unwrap_or_default();
    let outcome: WireResult<()> = 'run: loop {
        if stop.load(Ordering::Relaxed) {
            break Ok(());
        }
        // Drain whatever the router has sent — every queued dispatch goes
        // into the pipeline before any compute runs, so fetch submission
        // happens as early as possible.
        loop {
            match stream.try_recv().map(|got| got.map(|(frame, _)| frame)) {
                Ok(Some(Frame::Dispatch { seq, query, trace })) => {
                    if let Some(t) = trace {
                        pipeline.set_trace(t.level);
                    }
                    pipeline.push(seq, query);
                }
                Ok(Some(Frame::Shutdown)) | Err(WireError::Closed) => break 'run Ok(()),
                Ok(Some(Frame::Metrics { .. })) if opts.ready.is_some() => {
                    opts.ready
                        .iter()
                        .for_each(|r| r.store(true, Ordering::SeqCst));
                }
                Ok(Some(other)) => {
                    break 'run Err(WireError::Protocol(format!(
                        "processor {id} got {}",
                        other.kind()
                    )))
                }
                Ok(None) => break,
                Err(e) => break 'run Err(e),
            }
        }
        // `step` folds this round's tallies in before any completion is
        // built, so the first completion after a change carries it.
        let finished = match pipeline.step(&mut source, &mut cache) {
            Ok(finished) => finished,
            Err(e) => break Err(e),
        };
        // A round's completions leave in one write. The fetches `step`
        // submitted are not staged with them: the source wrote each as it
        // was made, so a query's fetch travels while another computes.
        let any = !finished.is_empty();
        for done in finished {
            if let Err(e) = sink.stage(&Frame::Completion(Completion {
                seq: done.seq,
                processor: id as u32,
                result: done.outcome.result,
                stats: done.outcome.stats,
                prefetch: PrefetchStats,
                failover: if_changed(&source.failover_stats(), &mut sent_failover),
                arrived_ns: 0,
                started_ns: done.started_ns,
                completed_ns: done.completed_ns,
                heat: if_changed(pipeline.heat(), &mut sent_heat),
                trace: done.trace,
            })) {
                break 'run Err(e);
            }
        }
        if any {
            if let Err(e) = sink.flush() {
                break Err(e);
            }
        }
        if let Some(o) = obs.as_mut() {
            let now = now_ns();
            o.maybe_sample(now, |r| {
                r.counter("grouting_queries_total", pipeline.queries_done());
                r.gauge("grouting_pipeline_in_flight", pipeline.in_flight() as f64);
                let cum = pipeline.totals();
                r.absorb_cache(cum.cache_hits, cum.cache_misses, cum.evictions);
                r.absorb_failover(&source.failover_stats());
                r.absorb_heat("partition", pipeline.heat());
                if let Some(t) = &opts.telemetry {
                    r.absorb_reactor(&t.snapshot());
                }
            });
            if let Some(snap) = o.take_push() {
                // A push the router no longer takes — the run is over and
                // its Shutdown is not read yet — must not decide how this
                // processor exits: the router stream, drained at the top of
                // the loop, does (Shutdown or a close is a clean exit).
                let _ = sink.send(&Frame::ObsPush { snapshot: snap });
            }
            o.poll_scrape(now);
        }
        // An idle round drained no dispatch and moved no query: the router
        // stream and every awaited storage stream found their sockets
        // empty, so blocking until one of them has traffic is safe.
        source.honour(pipeline.wake());
    };
    if let Some(o) = obs.as_ref() {
        o.teardown();
    }
    outcome
}

/// `current` when it differs from `sent` (which then becomes it), else
/// the default a completion uses for "unchanged". Cumulative tallies never
/// return to their default once they leave it, so the router can read a
/// default as "keep what you have".
fn if_changed<T: Clone + Default + PartialEq>(current: &T, sent: &mut T) -> T {
    if current == sent {
        return T::default();
    }
    sent.clone_from(current);
    current.clone()
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

/// Router-loop behaviour knobs beyond the engine configuration.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Emit a [`Frame::Metrics`] snapshot to the client every this many
    /// completions (`0` = only the final snapshot). Mid-run snapshots feed
    /// live dashboards without waiting for the workload to drain.
    pub snapshot_every: u64,
    /// Selects nothing: there is one poller. Named by the benchmark
    /// (`load/`); the next `benchmark` PR drops it.
    pub poller: PollerKind,
    /// Trace level for the run. At [`TraceLevel::Off`] no frame carries a
    /// trace block and every emitted byte is identical to an untraced
    /// deployment; `stats` aggregates per-stage histograms; `spans`
    /// additionally keeps a bounded ring of per-query spans.
    pub trace: TraceLevel,
    /// Deployment-shared reactor telemetry, folded into traced
    /// snapshots (and wired into the router's own reactor).
    pub telemetry: Option<Arc<TelemetryCounters>>,
    /// Observability: sampler cadence, the cluster-wide scrape endpoint
    /// (the router binds [`ObsConfig::metrics_addr`] itself and renders
    /// every pushed registry alongside its own), flight-recorder dump flag.
    pub obs: ObsConfig,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            snapshot_every: 0,
            poller: PollerKind::default_for_host(),
            trace: TraceLevel::Off,
            telemetry: None,
            obs: ObsConfig::disabled(),
        }
    }
}

/// Runs the router node over `listener` until the workload completes.
///
/// The core decides; this loop moves frames. The router core owns the
/// same [`Engine`] the simulator drives — admission, the strategy and its
/// queues, stealing, each processor's dispatch window, processor death and
/// the reported tallies all run through identical code — plus the peer
/// table, the arrival and trace stamps and the landmark-region heat. What
/// stays here is sockets (ONE [`Reactor`] poll loop), the clock (read once
/// a round), the observability sampler and scrape, and the teardown.
/// Returns the run's totals (also sent to the client as a
/// [`Frame::Metrics`]).
///
/// Protocol: processors connect and announce `Hello{Processor, id}`; one
/// client connects, announces `Hello{Client}` (a second client hello is a
/// protocol error), streams `Submit`s, and ends with `SubmitEnd`. The
/// engine keeps up to [`EngineConfig::overlap`] dispatches in flight per
/// processor; a completion for a seq that is not in its processor's
/// window is a protocol error. When every submitted query has completed,
/// the router forwards the snapshot and `Shutdown` to the client, shuts
/// processors down, and returns. A [`Frame::MetricsRequest`] from any peer
/// is answered with the *current* snapshot, and
/// [`RouterOptions::snapshot_every`] streams periodic snapshots to the
/// client unprompted.
///
/// Fault masking and re-join: a processor that disconnects mid-run, or
/// that a send fails on, is marked down ([`Engine::mark_down`]): its
/// queued work is redistributed and its dispatch window resubmitted under
/// the original sequence numbers. A restarted processor re-dialling with
/// its old id is marked up again ([`Engine::mark_up`]). Losing the client,
/// or the *last* processor, is fatal.
///
/// # Errors
///
/// Fails on transport errors towards the client, a premature client
/// disconnect, the death of every processor, or protocol violations.
///
/// # Panics
///
/// Panics if `config` requests a smart routing scheme but `assets` lacks
/// the matching preprocessing product (same contract as [`Engine::new`]).
///
/// [`Engine`]: grouting_engine::Engine
/// [`Engine::mark_down`]: grouting_engine::Engine::mark_down
/// [`Engine::mark_up`]: grouting_engine::Engine::mark_up
/// [`Engine::new`]: grouting_engine::Engine::new
pub fn run_router(
    listener: Box<dyn Listener>,
    assets: &EngineAssets,
    config: &EngineConfig,
    opts: &RouterOptions,
) -> WireResult<RunSnapshot> {
    set_node_role("router");
    let mut core = RouterCore::new(
        assets,
        config,
        opts.trace,
        opts.snapshot_every,
        opts.telemetry.clone(),
    );
    let mut reactor = Reactor::new(listener);
    if let Some(t) = &opts.telemetry {
        reactor.set_telemetry(Arc::clone(t));
    }
    let mut obs = NodeObs::new(NodeRole::Router, 0, &opts.obs);
    // Exponentially decayed heat views (the "recent demand" the scrape
    // exposes next to the cumulative counters).
    let mut decayed_partition = DecayingHeat::new(HEAT_DECAY_TAU_NS);
    let mut decayed_region = DecayingHeat::new(HEAT_DECAY_TAU_NS);
    let mut events: Vec<ReactorEvent> = Vec::new();
    let result = loop {
        if let Err(e) = reactor.poll(&mut events) {
            break Err(e);
        }
        let now = now_ns();
        let inputs = events.drain(..).filter_map(|event| match event {
            // A processor or storage node pushed its sampled registry: it
            // joins the cluster-wide scrape, or is dropped with
            // observability off, so mismatched configurations degrade
            // softly.
            ReactorEvent::Frame(_, Frame::ObsPush { snapshot }) => {
                if let Some(o) = obs.as_mut() {
                    o.absorb_push(snapshot);
                }
                None
            }
            ReactorEvent::Frame(conn, frame) => Some(Input::Frame(conn, frame)),
            ReactorEvent::Closed(conn) => Some(Input::Closed(conn)),
            ReactorEvent::Opened(_) => None,
        });
        let wake = core.step(now, inputs, &mut reactor);
        // A fault event dumps the flight recorder regardless of the
        // teardown dump flag.
        for id in core.take_deaths() {
            obs.iter()
                .for_each(|o| o.dump(&format!("processor {id} died")));
        }
        let wake = match wake {
            Ok(_) if core.finished() => break Ok(()),
            Ok(wake) => wake,
            Err(e) => break Err(e),
        };
        if let Some(o) = obs.as_mut() {
            o.maybe_sample(now, |r| {
                let snap = core.snapshot();
                fill_router_registry(r, &snap, core.completed, core.submitted);
                if opts.trace.enabled() {
                    r.absorb_stages(&core.stages);
                }
                if let Some(t) = &opts.telemetry {
                    r.absorb_reactor(&t.snapshot());
                }
                decayed_partition.observe(now, &snap.partition_heat);
                decayed_region.observe(now, &snap.region_heat);
                r.absorb_decayed_heat("partition", &decayed_partition);
                r.absorb_decayed_heat("region", &decayed_region);
            });
            o.poll_scrape(now);
        }
        reactor.honour(wake);
    };

    // Teardown: snapshot to the client, shutdown to everyone. Dropping the
    // reactor writes these staged frames, then closes the listener and
    // every connection.
    if let Some(o) = obs.as_ref() {
        o.teardown();
    }
    if let Some(client) = core.client {
        let _ = reactor.send(client, &core.metrics());
        let _ = reactor.send(client, &Frame::Shutdown);
    }
    for conn in core.processor_conns() {
        let _ = reactor.send(conn, &Frame::Shutdown);
    }
    result.map(|()| core.snapshot())
}

/// Exponential-decay time constant for the scrape's "recent heat" gauges
/// (~2 s half-life of relevance; cumulative counters sit next to them).
const HEAT_DECAY_TAU_NS: u64 = 2_000_000_000;

/// Populates the router's registry from a run snapshot — the single point
/// where engine accounting maps onto exposition series names.
fn fill_router_registry(
    r: &mut grouting_obs::Registry,
    snap: &RunSnapshot,
    completed: u64,
    submitted: u64,
) {
    r.counter("grouting_queries_total", snap.queries);
    r.gauge(
        "grouting_queries_in_flight",
        submitted.saturating_sub(completed) as f64,
    );
    r.counter("grouting_queries_stolen_total", snap.stolen);
    r.counter(
        "grouting_windows_resubmitted_total",
        snap.windows_resubmitted,
    );
    r.absorb_cache(snap.cache_hits, snap.cache_misses, snap.evictions);
    r.absorb_failover(&FailoverStats {
        redials: snap.redials,
        replica_failovers: snap.replica_failovers,
        batches_resubmitted: snap.batches_resubmitted,
    });
    for (id, served) in snap.per_processor.iter().enumerate() {
        let label = id.to_string();
        r.counter_with(
            "grouting_processor_served_total",
            &[("processor", &label)],
            *served,
        );
    }
    r.absorb_heat("partition", &snap.partition_heat);
    r.absorb_heat("region", &snap.region_heat);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcTransport;
    use bytes::Bytes;

    #[test]
    fn oversized_batch_responses_are_chunked_under_the_frame_cap() {
        let transport = InProcTransport::new();
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let mut sender = transport.dial(&listener.addr()).unwrap();
        let mut receiver = listener.accept().unwrap();

        // Five 3 MiB records: 15 MiB total against the 8 MiB soft budget
        // must stream as several frames that concatenate losslessly.
        let payloads: Vec<Option<(u16, Bytes)>> = (0..5u16)
            .map(|i| Some((i, Bytes::from(vec![i as u8; 3 << 20]))))
            .collect();
        let expected = payloads.clone();
        let writer = std::thread::spawn(move || {
            for frame in crate::storage::response_frames(42, payloads) {
                sender.send(&frame).unwrap();
            }
        });

        let mut frames = 0;
        let mut got: Vec<Option<(u16, Bytes)>> = Vec::new();
        while got.len() < expected.len() {
            match receiver.recv().unwrap() {
                Frame::FetchBatchResponse { req_id, payloads } => {
                    assert_eq!(req_id, 42);
                    frames += 1;
                    got.extend(payloads);
                }
                other => panic!("got {}", other.kind()),
            }
        }
        writer.join().unwrap();
        assert!(frames > 1, "15 MiB must not travel as one frame");
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_batch_response_still_sends_one_frame() {
        // The multiplexer treats "entry present" as "response began", so
        // even a zero-node batch must be answered with one (empty) frame.
        let transport = InProcTransport::new();
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let mut sender = transport.dial(&listener.addr()).unwrap();
        let mut receiver = listener.accept().unwrap();
        for frame in crate::storage::response_frames(7, Vec::new()) {
            sender.send(&frame).unwrap();
        }
        match receiver.recv().unwrap() {
            Frame::FetchBatchResponse { req_id, payloads } => {
                assert_eq!(req_id, 7);
                assert!(payloads.is_empty());
            }
            other => panic!("got {}", other.kind()),
        }
    }
}
