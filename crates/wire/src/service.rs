//! The three tiers as wire endpoints, one per tier of the paper's
//! Figure 2: [`StorageService`], [`ProcessorService`] and [`run_router`].
//! Each is a core that decides without I/O, run by the one node shell,
//! `run_node`, on ONE [`Reactor`] thread holding all of the node's
//! connections (a processor's has no listener, and dials storage when its
//! core asks). Nodes speak only [`Frame`]s over a [`Transport`], and wait
//! only in the reactor's idle policy: a storage delay waits in its core's
//! due-time queue, a dial's backoff in the processor's.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;
use std::vec::Drain;

use grouting_engine::{EngineAssets, EngineConfig};
use grouting_metrics::{set_node_role, DecayingHeat, FailoverStats, RunSnapshot};
use grouting_obs::{NodeObs, NodeRole, ObsConfig, Registry};
use grouting_storage::Partitioner;
use grouting_storage::{NetworkModel, StorageTier};
use grouting_trace::{TelemetryCounters, TraceLevel};

use crate::error::WireResult;
use crate::flow::FetchMode;
use crate::frame::{Frame, Role};
use crate::mux::MuxLinks;
use crate::overlap::{Input, Wake};
use crate::processor::ProcessorCore;
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

/// The one node shell, every role's: rounds of [`Reactor::poll`], one
/// clock reading, then `round` — the core's step and observability — and
/// [`Reactor::honour`] with the [`Wake`] it returns, until it returns
/// none (the node is finished) or fails. Registries pushed to this node
/// join its scrape (every peer pushes to the router), or are dropped with
/// observability off: no core takes them.
fn run_node(
    reactor: &mut Reactor,
    mut obs: Option<NodeObs>,
    mut round: impl FnMut(u64, Drain<Input>, &mut Reactor, Option<&mut NodeObs>) -> Round,
) -> WireResult<()> {
    let (mut events, mut inputs) = (Vec::new(), Vec::new());
    let result = loop {
        if let Err(e) = reactor.poll(&mut events) {
            break Err(e);
        }
        let now = now_ns();
        for event in events.drain(..) {
            match event {
                ReactorEvent::Frame(_, Frame::ObsPush { snapshot }) => {
                    if let Some(o) = obs.as_mut() {
                        o.absorb_push(snapshot);
                    }
                }
                event => inputs.extend(event.into_input()),
            }
        }
        match round(now, inputs.drain(..), reactor, obs.as_mut()) {
            Ok(Some(wake)) => {
                obs.iter_mut().for_each(|o| o.poll_scrape(now));
                reactor.honour(wake);
            }
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    obs.iter().for_each(NodeObs::teardown);
    result
}

/// What a node's round returns to the shell: the wake to honour, or none
/// once the node is finished.
type Round = WireResult<Option<Wake>>;

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

    /// Stops the reactor loop and joins the service thread, as dropping
    /// the handle does. The loop checks the stop flag every round, so no
    /// wake-up dial is needed.
    pub fn shutdown(self) {}
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
    /// Spawns a storage endpoint on `transport` at `addr` (ephemeral with
    /// [`Transport::any_addr`]; a restart rebinds its old address, with
    /// `SO_REUSEADDR` over TCP), serving `tier` under `opts`. Emulated
    /// delays ([`StorageOptions::net`]) model wire latency, not server
    /// occupancy: concurrent exchanges overlap their flight time.
    ///
    /// # Errors
    ///
    /// Fails when the transport cannot bind a listener at `addr`, or the
    /// kernel refuses the node's epoll set.
    pub fn spawn_opts(
        transport: Arc<dyn Transport>,
        addr: &str,
        tier: Arc<StorageTier>,
        opts: StorageOptions,
    ) -> WireResult<ServiceHandle> {
        let listener = transport.listen(addr)?;
        let addr = listener.addr();
        let mut reactor = Reactor::new(listener)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        // The thread carries the same name the log prefix does, so
        // `/proc/self/task/*/comm` attributes CPU by role.
        let role = format!("storage-{}", opts.id);
        let thread = std::thread::Builder::new().name(role.clone());
        let join = thread.spawn(move || {
            set_node_role(role);
            let (telemetry, push_addr) = (opts.telemetry, opts.push_addr);
            if let Some(t) = &telemetry {
                reactor.set_telemetry(Arc::clone(t));
            }
            let obs = NodeObs::new(NodeRole::Storage, opts.id, &opts.obs);
            let mut core = StorageCore::new(tier, opts.net);
            // The lazily dialled anonymous connection `ObsPush` frames ride.
            let mut push = None;
            let _ = run_node(&mut reactor, obs, |now, inputs, out, obs| {
                if stopped.load(Ordering::SeqCst) {
                    return Ok(None);
                }
                let wake = core.step(now, inputs, out);
                let Some(o) = obs else { return Ok(Some(wake)) };
                o.maybe_sample(now, |r| {
                    r.counter("grouting_storage_batches_total", core.batches);
                    r.counter("grouting_storage_records_total", core.records);
                    r.gauge("grouting_storage_delayed_responses", core.delayed() as f64);
                    absorb_reactor(r, &telemetry);
                });
                if let Some(snapshot) = o.take_push() {
                    // One attempt, no patience: a push that cannot be
                    // delivered is dropped anyway, and this loop has
                    // fetches to serve. A failed send means the router is
                    // gone (run over, or mid fault): the next push redials.
                    if push.is_none() {
                        let dialled = push_addr.as_deref().map(|a| transport.dial_once(a));
                        push = dialled.and_then(Result::ok).map(|conn| out.register(conn));
                    }
                    let sent = push.map(|conn| out.send(conn, &Frame::ObsPush { snapshot }));
                    push = push.filter(|_| matches!(sent, Some(Ok(()))));
                }
                Ok(Some(wake))
            });
        })?;
        Ok(ServiceHandle {
            addr,
            stop,
            join: Some(join),
        })
    }
}

/// Folds the deployment's reactor telemetry into a sample.
fn absorb_reactor(r: &mut Registry, telemetry: &Option<Arc<TelemetryCounters>>) {
    if let Some(t) = telemetry {
        r.absorb_reactor(&t.snapshot());
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
    /// Replica-chain length: a home endpoint's fetches fail over to
    /// `(home + k) % servers` for `k < replication` (`1`: none).
    pub replication: usize,
    /// Redial backoff ladder towards storage (`None` =
    /// [`RetryPolicy::default`]).
    pub retry: Option<RetryPolicy>,
    /// External kill switch: when raised, the processor exits its loop as
    /// if it had crashed — its connections drop and the router masks the
    /// death.
    pub stop: Option<Arc<AtomicBool>>,
    /// Re-join acknowledgement: when set, the processor sends a
    /// [`Frame::MetricsRequest`] after its hello and raises the flag at the
    /// router's [`Frame::Metrics`] reply, which proves the router has
    /// marked it up (frames on one connection are handled in order).
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
    /// Spawns processor `id`: dials the router, then serves dispatched
    /// queries until the router says [`Frame::Shutdown`] or goes away (or
    /// [`ProcessorOptions::stop`] is raised), dialling each storage
    /// endpoint when a fetch first needs it.
    ///
    /// The cache is built as the in-proc engine builds its own
    /// ([`EngineConfig::build_cache`]), and the core drives a
    /// `QueryPipeline` of up to [`EngineConfig::overlap`] queries. At
    /// `overlap = 1` it replays byte-identical cache accounting to the
    /// serial paths, so wire runs agree with in-proc runs on every cache
    /// statistic.
    ///
    /// The thread's result is an error when the kernel refuses the node's
    /// epoll set or to track its router connection, when the router
    /// cannot be dialled, and when the run fails.
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
                let mut links = MuxLinks::new(&storage_addrs, partitioner);
                links.state.replication = opts.replication.max(1);
                links.state.retry = opts.retry.unwrap_or_default();
                let mut reactor = Reactor::dialler(Arc::clone(&transport))?;
                if let Some(t) = &opts.telemetry {
                    reactor.sample_pools(Arc::clone(t));
                    links.telemetry = Some(Arc::clone(t));
                }
                let router = reactor.track(transport.dial(&router_addr)?)?;
                let id = id as u32;
                reactor.send(
                    router,
                    &Frame::Hello {
                        role: Role::Processor,
                        id,
                    },
                )?;
                if opts.ready.is_some() {
                    reactor.send(router, &Frame::MetricsRequest)?;
                }
                let mut core = ProcessorCore::new(id, router, &config, links, opts.ready, now_ns);
                let stop = opts.stop.unwrap_or_default();
                let obs = NodeObs::new(NodeRole::Processor, id as u16, &opts.obs);
                run_node(&mut reactor, obs, |now, inputs, out, obs| {
                    if stop.load(Ordering::Relaxed) {
                        return Ok(None);
                    }
                    let wake = core.step(now, inputs, out)?;
                    if core.finished() {
                        return Ok(None);
                    }
                    let Some(o) = obs else { return Ok(Some(wake)) };
                    let pipeline = &core.pipeline;
                    o.maybe_sample(now, |r| {
                        r.counter("grouting_queries_total", pipeline.queries_done());
                        r.gauge("grouting_pipeline_in_flight", pipeline.in_flight() as f64);
                        let cum = pipeline.totals();
                        r.absorb_cache(cum.cache_hits, cum.cache_misses, cum.evictions);
                        r.absorb_failover(&core.links.state.failover());
                        r.absorb_heat("partition", pipeline.heat());
                        absorb_reactor(r, &opts.telemetry);
                    });
                    if let Some(snapshot) = o.take_push() {
                        // A push the router no longer takes — the run is
                        // over and its Shutdown is not read yet — must not
                        // decide how this processor exits: the router
                        // stream's Shutdown or close does, both cleanly.
                        let _ = out.send(router, &Frame::ObsPush { snapshot });
                    }
                    Ok(Some(wake))
                })
            })
            .expect("spawn processor thread")
    }
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

/// Router-loop behaviour knobs beyond the engine configuration.
#[derive(Debug, Clone, Default)]
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

/// Runs the router node over `listener` until the workload completes,
/// and returns the run's totals (also sent to the client as a
/// [`Frame::Metrics`]). Its core owns the same [`Engine`] the simulator
/// drives — admission, routing, stealing, each processor's dispatch
/// window, processor death and the reported tallies run through
/// identical code — plus the peer table, the stamps and the region heat.
///
/// Protocol: processors announce `Hello{Processor, id}`; one client
/// announces `Hello{Client}` (a second is a protocol error), streams
/// `Submit`s and ends with `SubmitEnd`. Up to [`EngineConfig::overlap`]
/// dispatches are in flight per processor; a completion for a seq outside
/// its processor's window is a protocol error. When every query has
/// completed, the client gets the snapshot and `Shutdown`, and so do the
/// processors. A [`Frame::MetricsRequest`] from any peer is answered with
/// the current snapshot; [`RouterOptions::snapshot_every`] streams them.
///
/// A processor that disconnects, or that a send fails on, is marked down
/// ([`Engine::mark_down`]): its queued work is redistributed and its
/// window resubmitted under the original seqs. One re-dialling with its
/// old id is marked up ([`Engine::mark_up`]). Losing the client, or the
/// last processor, is fatal.
///
/// # Errors
///
/// The kernel's refusal of the node's epoll set, transport errors
/// towards the client, a premature client disconnect, the death of every
/// processor, and protocol violations.
///
/// # Panics
///
/// When `config` asks for a smart routing scheme `assets` lacks the
/// preprocessing for (as [`Engine::new`]).
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
    let mut reactor = Reactor::new(listener)?;
    if let Some(t) = &opts.telemetry {
        reactor.set_telemetry(Arc::clone(t));
    }
    let obs = NodeObs::new(NodeRole::Router, 0, &opts.obs);
    // Exponentially decayed heat views (the "recent demand" the scrape
    // exposes next to the cumulative counters).
    let mut decayed_partition = DecayingHeat::new(HEAT_DECAY_TAU_NS);
    let mut decayed_region = DecayingHeat::new(HEAT_DECAY_TAU_NS);
    let result = run_node(&mut reactor, obs, |now, inputs, out, mut obs| {
        let wake = core.step(now, inputs, out);
        // A fault event dumps the flight recorder regardless of the
        // teardown dump flag.
        for id in core.take_deaths() {
            obs.iter_mut()
                .for_each(|o| o.dump(&format!("processor {id} died")));
        }
        let wake = wake?;
        if core.finished() {
            return Ok(None);
        }
        let Some(o) = obs else { return Ok(Some(wake)) };
        o.maybe_sample(now, |r| {
            let snap = core.snapshot();
            fill_router_registry(r, &snap, core.completed, core.submitted);
            if opts.trace.enabled() {
                r.absorb_stages(&core.stages);
            }
            absorb_reactor(r, &opts.telemetry);
            decayed_partition.observe(now, &snap.partition_heat);
            decayed_region.observe(now, &snap.region_heat);
            r.absorb_decayed_heat("partition", &decayed_partition);
            r.absorb_decayed_heat("region", &decayed_region);
        });
        Ok(Some(wake))
    });

    // Teardown: snapshot to the client, shutdown to everyone. Dropping the
    // reactor writes these staged frames, then closes the listener and
    // every connection.
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
fn fill_router_registry(r: &mut Registry, snap: &RunSnapshot, completed: u64, submitted: u64) {
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
