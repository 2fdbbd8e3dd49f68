//! Service loops exposing the engine's tiers as wire endpoints.
//!
//! Three services turn the in-process cluster into independently runnable
//! peers, one per tier of the paper's Figure 2 — each driven by ONE
//! readiness [`Reactor`] thread multiplexing all of that node's framed
//! connections, rather than a thread per connection:
//!
//! * [`StorageService`] — wraps a [`StorageTier`] handle and answers
//!   [`Frame::FetchBatchRequest`]s from every inbound connection through
//!   one poll loop, with an optional [`NetworkModel`] delay charged per
//!   exchange (the `gRouting-E` emulation knob);
//! * [`ProcessorService`] — a query processor: polls its router
//!   connection and drives a [`QueryPipeline`] over a
//!   [`MultiplexedStorageSource`] — up to [`EngineConfig::overlap`]
//!   dispatched queries in flight, one query's frontier batch travelling
//!   while another's compute stage runs;
//! * [`run_router`] — the router node: accepts client and processor
//!   connections on its reactor, drives the shared [`Engine`] (admission
//!   window, strategy, queues, stealing), dispatches up to `overlap`
//!   queries ahead of acknowledgements per processor, stamps arrivals,
//!   forwards completions, masks mid-run processor deaths (mark-down +
//!   resubmission of every outstanding dispatch), re-admits restarted
//!   processors that re-dial with their old id (mark-up), answers mid-run
//!   [`Frame::MetricsRequest`]s, and emits the final [`RunSnapshot`].
//!
//! All three speak only [`Frame`]s over [`Transport`] connections, so the
//! same loops run over TCP loopback and the hermetic in-proc fabric.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use grouting_embed::landmarks::Landmarks;
use grouting_engine::{Engine, EngineAssets, EngineConfig};
use grouting_graph::NodeId;
use grouting_metrics::timeline::QueryRecord;
use grouting_metrics::{set_node_role, DecayingHeat, FailoverStats, HeatMap, RunSnapshot};
use grouting_obs::{NodeObs, NodeRole, ObsConfig};
use grouting_partition::Partitioner;
use grouting_storage::{NetworkModel, StorageTier};
use grouting_trace::{
    span_ring_from_env, QuerySpan, SpanRing, Stage, StageStats, TelemetryCounters, TraceLevel,
    TraceSnapshot,
};

use crate::error::{WireError, WireResult};
use crate::flow::{BatchMux, FetchMode, MultiplexedStorageSource};
use crate::frame::{Completion, DispatchTrace, Frame, Role};
use crate::overlap::QueryPipeline;
use crate::reactor::{PollerKind, Reactor, ReactorEvent};
use crate::transport::{Listener, RetryPolicy, Transport};

/// How long an idle service loop parks on its readiness backend before
/// re-checking its stop flag (epoll wakes early on any traffic; the sweep
/// backend degrades to the yield/sleep ladder, which returns far sooner).
const SERVICE_IDLE_WAIT: std::time::Duration = std::time::Duration::from_millis(5);

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
    /// Readiness backend for the node's reactor.
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
            poller: PollerKind::from_env(),
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
    /// server occupancy: microsecond-scale delays (RDMA/Ethernet presets)
    /// are spun inline for accuracy, while delays of 100 µs and up park
    /// the finished response in a due-time queue and keep serving — so
    /// concurrent exchanges overlap their emulated flight time exactly as
    /// they would over a real remote wire, instead of queueing behind one
    /// another's sleeps.
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
            poller,
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
            let mut reactor = Reactor::with_poller(listener, poller);
            if let Some(t) = &telemetry {
                reactor.set_telemetry(Arc::clone(t));
            }
            let mut obs = NodeObs::new(NodeRole::Storage, id, &obs_cfg);
            // Served-request tallies (cheap enough to count always; only
            // read while observability is on).
            let (mut batches, mut records) = (0u64, 0u64);
            // The lazily dialled anonymous connection `ObsPush` frames ride.
            let mut push_conn = None;
            let mut events: Vec<ReactorEvent> = Vec::new();
            // Responses whose emulated flight time has not elapsed yet.
            // Arrival order, but due times are NOT monotone (the delay
            // depends on payload bytes), so delivery scans the whole
            // queue — a large response must not head-of-line-block a
            // small one behind it. Per-connection reordering is safe:
            // batch responses correlate by req_id.
            let mut in_flight: VecDeque<DelayedResponse> = VecDeque::new();
            loop {
                if stop_loop.load(Ordering::SeqCst) {
                    break;
                }
                events.clear();
                if reactor.poll(&mut events).is_err() {
                    break;
                }
                let mut progressed = false;
                for event in events.drain(..) {
                    if let ReactorEvent::Frame(conn_id, frame) = event {
                        if let Frame::FetchBatchRequest { nodes, .. } = &frame {
                            batches += 1;
                            records += nodes.len() as u64;
                        }
                        serve_storage_frame(
                            &mut reactor,
                            conn_id,
                            frame,
                            &tier,
                            net,
                            &mut in_flight,
                        );
                        progressed = true;
                    }
                }
                // Deliver every response whose flight time has elapsed.
                let now = Instant::now();
                in_flight.retain(|response| {
                    if response.due > now {
                        return true;
                    }
                    progressed = true;
                    for frame in &response.frames {
                        if reactor.send(response.conn_id, frame).is_err() {
                            reactor.close(response.conn_id);
                            break;
                        }
                    }
                    false
                });
                if let Some(o) = obs.as_mut() {
                    let delayed = in_flight.len();
                    let now = now_ns();
                    o.maybe_sample(now, |r| {
                        r.counter("grouting_storage_batches_total", batches);
                        r.counter("grouting_storage_records_total", records);
                        r.gauge("grouting_storage_delayed_responses", delayed as f64);
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
                if progressed {
                    reactor.note_progress();
                } else if in_flight.is_empty() {
                    // Nothing buffered, nothing due: park on the readiness
                    // backend until a request arrives (epoll wakes on the
                    // first byte; the stop flag is re-checked on return).
                    reactor.idle_wait(SERVICE_IDLE_WAIT);
                } else {
                    // Responses are due within the emulated RTT; yielding
                    // keeps due-time precision tight without burning the
                    // core an overlapping processor is computing on.
                    std::thread::yield_now();
                }
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

/// A finished response waiting out its emulated wire latency.
struct DelayedResponse {
    due: Instant,
    conn_id: u64,
    frames: Vec<Frame>,
}

/// Emulated delays at or above this park the response in the due-time
/// queue; shorter ones are spun inline (`thread::sleep`'s ~50 µs kernel
/// timer slack would swamp them, and at that scale the server is
/// occupied-by-the-exchange anyway).
const DELAY_QUEUE_THRESHOLD_NS: u64 = 100_000;

/// Answers one frame on the storage reactor; a peer that cannot be
/// answered (dead, or speaking the wrong protocol) is retired without
/// taking the node down.
fn serve_storage_frame(
    reactor: &mut Reactor,
    conn_id: u64,
    frame: Frame,
    tier: &StorageTier,
    net: NetworkModel,
    in_flight: &mut VecDeque<DelayedResponse>,
) {
    match frame {
        Frame::FetchBatchRequest { req_id, nodes, .. } => {
            let payloads: Vec<Option<(u16, bytes::Bytes)>> = tier
                .get_many(&nodes)
                .into_iter()
                .map(|p| p.map(|(server, value)| (server as u16, value)))
                .collect();
            // One modelled exchange for the whole batch — exactly the
            // RTT amortisation the batch path exists for.
            let delay_ns = if net.is_free() {
                0
            } else {
                let bytes: usize = payloads
                    .iter()
                    .map(|p| p.as_ref().map_or(0, |(_, v)| v.len()))
                    .sum();
                net.fetch_ns(bytes)
            };
            if delay_ns >= DELAY_QUEUE_THRESHOLD_NS {
                let mut frames = Vec::new();
                send_batch_response(
                    |f| {
                        frames.push(f);
                        Ok(())
                    },
                    req_id,
                    payloads,
                )
                .expect("buffering frames cannot fail");
                in_flight.push_back(DelayedResponse {
                    due: Instant::now() + std::time::Duration::from_nanos(delay_ns),
                    conn_id,
                    frames,
                });
                return;
            }
            spin_for_ns(delay_ns);
            if send_batch_response(|f| reactor.send(conn_id, &f), req_id, payloads).is_err() {
                reactor.close(conn_id);
            }
        }
        Frame::Shutdown => reactor.close(conn_id),
        _ => {
            // A storage server only understands fetches; answer the
            // confusion explicitly, then drop the peer.
            let _ = reactor.send(conn_id, &Frame::Shutdown);
            reactor.close(conn_id);
        }
    }
}

/// Soft byte budget per [`Frame::FetchBatchResponse`]: a batch whose
/// payloads sum past this is streamed as several frames under the same
/// `req_id` (the multiplexer reassembles by node count), keeping every
/// frame comfortably under [`crate::frame::MAX_FRAME_BYTES`] no matter how
/// large the requested frontier is. A *single* record larger than the
/// frame cap still cannot be shipped.
pub const BATCH_RESPONSE_SOFT_BYTES: usize = 8 << 20;

/// Per-payload framing overhead assumed by the response chunker (flag +
/// server id + length prefix, rounded up).
const PAYLOAD_OVERHEAD: usize = 8;

/// Hands `send` the response frames one by one, by value: the immediate
/// path writes each and drops it, the due-time queue keeps it as built.
fn send_batch_response(
    mut send: impl FnMut(Frame) -> WireResult<()>,
    req_id: u64,
    payloads: Vec<Option<(u16, Bytes)>>,
) -> WireResult<()> {
    let mut rest = payloads;
    loop {
        let mut bytes = 0usize;
        let mut take = 0usize;
        while take < rest.len() {
            let sz = rest[take].as_ref().map_or(0, |(_, v)| v.len()) + PAYLOAD_OVERHEAD;
            // Always ship at least one payload per frame, else an
            // oversized record would loop forever.
            if take > 0 && bytes + sz > BATCH_RESPONSE_SOFT_BYTES {
                break;
            }
            bytes += sz;
            take += 1;
        }
        let tail = rest.split_off(take);
        send(Frame::FetchBatchResponse {
            req_id,
            payloads: rest,
        })?;
        if tail.is_empty() {
            return Ok(());
        }
        rest = tail;
    }
}

/// Busy-waits `ns` nanoseconds — the emulation is about *relative* cost,
/// and sleeping has far too coarse a floor for microsecond RTTs. Delays
/// large enough to matter go through the due-time queue instead (see
/// [`StorageService::spawn_opts`]).
fn spin_for_ns(ns: u64) {
    let start = Instant::now();
    while (start.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

// ---------------------------------------------------------------------------
// Processor
// ---------------------------------------------------------------------------

/// Processor-side knobs beyond the engine configuration.
pub struct ProcessorOptions {
    /// Readiness backend for the processor's storage mux.
    pub poller: PollerKind,
    /// Deployment-shared reactor telemetry.
    pub telemetry: Option<Arc<TelemetryCounters>>,
    /// Replica-chain length for storage failover: a fetch its home
    /// endpoint cannot serve fails over to `(home + k) % servers` for
    /// `k < replication`. `1` = no replication — an endpoint death is
    /// fatal once the redial ladder is exhausted.
    pub replication: usize,
    /// Redial backoff ladder towards storage (`None` = `GROUTING_RETRY`
    /// or the built-in default).
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
            poller: PollerKind::from_env(),
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

/// The processor loop: polls the router connection for dispatches
/// (the router sends up to `overlap` ahead of acknowledgements) and
/// drives the [`QueryPipeline`], acknowledging completions as they land —
/// possibly out of dispatch order, which the router correlates by
/// sequence number.
fn run_processor(
    transport: &Arc<dyn Transport>,
    id: usize,
    router_addr: &str,
    storage_addrs: &[String],
    partitioner: Arc<dyn Partitioner>,
    config: &EngineConfig,
    opts: ProcessorOptions,
) -> WireResult<()> {
    let mut source = MultiplexedStorageSource::with_poller(
        Arc::clone(transport),
        storage_addrs,
        partitioner,
        opts.poller,
    )
    .with_replication(opts.replication);
    if let Some(retry) = opts.retry {
        source = source.with_retry(retry);
    }
    let telemetry = opts.telemetry.clone();
    if let Some(t) = opts.telemetry {
        source.set_telemetry(t);
    }
    let mut cache = config.build_cache();
    let mut pipeline = QueryPipeline::new(config.overlap.max(1)).with_prefetch(config.prefetch);
    let router = transport.dial(router_addr)?;
    let (mut sink, mut stream) = router.split();
    // The router connection joins the storage connections on the source's
    // readiness backend, so an idle processor parks on ONE wait covering
    // dispatches and fetch replies alike.
    source.register_external(BatchMux::EXTERNAL_TOKEN_BASE, stream.raw_fd());
    sink.send(&Frame::Hello {
        role: Role::Processor,
        id: id as u32,
    })?;
    let ready = opts.ready.clone();
    if ready.is_some() {
        sink.send(&Frame::MetricsRequest)?;
    }
    let mut obs = NodeObs::new(NodeRole::Processor, id as u16, &opts.obs);
    let mut cum = grouting_query::AccessStats::default();
    let mut queries_done = 0u64;
    let outcome: WireResult<()> = 'run: loop {
        if opts
            .stop
            .as_ref()
            .is_some_and(|s| s.load(Ordering::Relaxed))
        {
            break Ok(());
        }
        let mut progressed = false;
        // Drain whatever the router has sent — every queued dispatch goes
        // into the pipeline before any compute runs, so fetch submission
        // happens as early as possible.
        loop {
            match stream.try_recv() {
                Ok(Some(Frame::Dispatch { seq, query, trace })) => {
                    if let Some(t) = trace {
                        pipeline.set_trace(t.level);
                    }
                    pipeline.push(seq, query);
                    progressed = true;
                }
                Ok(Some(Frame::Shutdown)) | Err(WireError::Closed) => break 'run Ok(()),
                Ok(Some(Frame::Metrics { .. })) if ready.is_some() => {
                    if let Some(r) = &ready {
                        r.store(true, Ordering::SeqCst);
                    }
                    progressed = true;
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
        let finished = match pipeline.step(&mut source, &mut cache) {
            Ok(finished) => finished,
            Err(e) => break Err(e),
        };
        for done in finished {
            cum.cache_hits += done.outcome.stats.cache_hits;
            cum.cache_misses += done.outcome.stats.cache_misses;
            cum.evictions += done.outcome.stats.evictions;
            queries_done += 1;
            if let Err(e) = sink.send(&Frame::Completion(Completion {
                seq: done.seq,
                processor: id as u32,
                result: done.outcome.result,
                stats: done.outcome.stats,
                // Cumulative per-processor speculation and recovery
                // tallies; the router keeps the latest per processor for
                // the run snapshot.
                prefetch: pipeline.prefetch_stats(),
                failover: source.failover_stats(),
                arrived_ns: 0,
                started_ns: done.started_ns,
                completed_ns: done.completed_ns,
                heat: pipeline.heat().clone(),
                trace: done.trace,
            })) {
                break 'run Err(e);
            }
            progressed = true;
        }
        if let Some(o) = obs.as_mut() {
            let now = now_ns();
            o.maybe_sample(now, |r| {
                r.counter("grouting_queries_total", queries_done);
                r.gauge("grouting_pipeline_in_flight", pipeline.in_flight() as f64);
                r.absorb_cache(cum.cache_hits, cum.cache_misses, cum.evictions);
                let pf = pipeline.prefetch_stats();
                r.absorb_prefetch(pf.issued, pf.hits, pf.wasted_bytes);
                r.absorb_failover(&source.failover_stats());
                r.absorb_heat("partition", pipeline.heat());
                if let Some(t) = &telemetry {
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
        if progressed {
            source.note_progress();
        } else {
            // No dispatch drained, no query finished: the router stream
            // and every awaited storage stream found their sockets empty
            // (pipeline.step never parks runnable compute), so blocking
            // until one of those sockets has traffic is safe.
            source.idle_wait(SERVICE_IDLE_WAIT);
        }
    };
    if let Some(o) = obs.as_ref() {
        o.teardown();
    }
    outcome
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
    /// Readiness backend for the router's reactor.
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
    /// (the router binds `GROUTING_METRICS_ADDR` itself and renders every
    /// pushed registry alongside its own), flight-recorder dump flag.
    pub obs: ObsConfig,
}

impl Default for RouterOptions {
    fn default() -> Self {
        Self {
            snapshot_every: 0,
            poller: PollerKind::from_env(),
            trace: TraceLevel::Off,
            telemetry: None,
            obs: ObsConfig::disabled(),
        }
    }
}

/// Runs the router node over `listener` until the workload completes.
///
/// The router owns the same [`Engine`] the in-proc runtimes drive — the
/// strategy, the per-processor queues, admission windowing, stealing, and
/// completion accounting all run through identical code; only the job and
/// ack channels are replaced by framed connections, all multiplexed
/// through ONE [`Reactor`] poll loop — no acceptor thread, no
/// reader thread per peer. Returns the run's totals (also sent to the
/// client as a [`Frame::Metrics`]).
///
/// Protocol: processors connect and announce `Hello{Processor, id}`; one
/// client connects, announces `Hello{Client}`, streams `Submit`s, and ends
/// with `SubmitEnd`. The router keeps up to [`EngineConfig::overlap`]
/// dispatches in flight per processor (the classic ack-driven one-at-a-time
/// protocol is `overlap = 1`). When every submitted query has completed,
/// the router forwards the snapshot and `Shutdown` to the client, shuts
/// processors down, and returns. A [`Frame::MetricsRequest`] from any peer
/// is answered immediately with the *current* snapshot, and
/// [`RouterOptions::snapshot_every`] streams periodic snapshots to the
/// client unprompted.
///
/// Fault masking and re-join: a processor that disconnects mid-run is
/// marked down in the routing engine ([`Engine::mark_down`]), its queued
/// work is redistributed through the strategy, and every outstanding
/// dispatched query is resubmitted under its original sequence number —
/// the run continues on the surviving processors. A restarted processor
/// re-dialling with its old id is marked up again ([`Engine::mark_up`])
/// and re-enters rotation. Losing the client, or the *last* processor, is
/// still fatal.
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
pub fn run_router(
    listener: Box<dyn Listener>,
    assets: &EngineAssets,
    config: &EngineConfig,
    opts: &RouterOptions,
) -> WireResult<RunSnapshot> {
    set_node_role("router");
    let p = config.processors;
    let overlap = config.overlap.max(1);
    // Router half only: the processors (and their caches) are remote.
    let mut engine = Engine::new_router_only(assets, config);
    let mut reactor = Reactor::with_poller(listener, opts.poller);
    if let Some(t) = &opts.telemetry {
        reactor.set_telemetry(Arc::clone(t));
    }
    let trace = opts.trace;
    let mut obs = NodeObs::new(NodeRole::Router, 0, &opts.obs);
    // Exponentially decayed heat views (the "recent demand" the scrape
    // exposes next to the cumulative counters).
    let mut decayed_partition = DecayingHeat::new(HEAT_DECAY_TAU_NS);
    let mut decayed_region = DecayingHeat::new(HEAT_DECAY_TAU_NS);
    // Landmark set for region attribution (None without the asset).
    let landmarks = assets.landmarks.clone();

    // Router state: which connection is which peer.
    let mut processor_conn: Vec<Option<u64>> = vec![None; p];
    let mut in_flight: Vec<usize> = vec![0; p];
    // The dispatched-but-unacknowledged queries per processor (at most
    // `overlap`), kept so a dying processor's in-flight work can be
    // resubmitted.
    let mut outstanding: Vec<Vec<(u64, grouting_query::Query)>> = vec![Vec::new(); p];
    let mut ever_connected = 0usize;
    // Latest cumulative speculation tally per processor (completions carry
    // it); summed into every snapshot the router emits. A restarted
    // processor restarts its tally — the pre-death speculation is folded
    // into `prefetch_retired` when the death is noticed.
    let mut prefetch_live: Vec<grouting_query::PrefetchStats> =
        vec![grouting_query::PrefetchStats::default(); p];
    let mut prefetch_retired = grouting_query::PrefetchStats::default();
    // Same live/retired split for the processors' storage-failover
    // tallies (redials, replica failovers, resubmitted batches).
    let mut failover_live: Vec<FailoverStats> = vec![FailoverStats::default(); p];
    let mut failover_retired = FailoverStats::default();
    // Same live/retired split for the cumulative per-partition heat every
    // completion carries.
    let mut heat_live: Vec<HeatMap> = vec![HeatMap::new(); p];
    let mut heat_retired = HeatMap::new();
    // Router-local per-landmark-region heat: demand counted at dispatch
    // (anchor's nearest landmark), speculation via the per-completion
    // prefetch delta. Stays empty without a landmark asset.
    let mut region_heat = HeatMap::new();
    // Router-local: processor-death events whose outstanding dispatch
    // window was non-empty and got resubmitted wholesale.
    let mut windows_resubmitted = 0u64;
    let mut client_conn: Option<u64> = None;
    let mut backlog: VecDeque<(usize, grouting_query::Query)> = VecDeque::new();
    let mut arrivals: HashMap<u64, u64> = HashMap::new();
    let mut submitted = 0u64;
    let mut completed = 0u64;
    let mut submit_done = false;
    // Trace state (inert at TraceLevel::Off): per-stage histograms, the
    // recent-span ring, and per-seq stamps bridging submit → dispatch →
    // completion. The stamp maps are bounded by the in-flight window,
    // like `arrivals`.
    let mut stages = StageStats::default();
    let mut spans = SpanRing::new(if trace.spans() {
        span_ring_from_env()
    } else {
        0
    });
    let mut trace_submitted: HashMap<u64, u64> = HashMap::new();
    let mut trace_dispatched: HashMap<u64, (u64, u64)> = HashMap::new();

    let result: WireResult<()> = (|| {
        let mut events: Vec<ReactorEvent> = Vec::new();
        loop {
            // Admission + dispatch between event batches.
            {
                let mut drain = std::iter::from_fn(|| backlog.pop_front());
                engine.admit(&mut drain, |seq| {
                    arrivals.insert(seq as u64, now_ns());
                });
            }
            // Synthetic deaths noticed at dispatch time (a send failing
            // before the reactor has polled the peer's closed stream).
            let mut deaths: Vec<u64> = Vec::new();
            for proc_id in 0..p {
                let Some(conn_id) = processor_conn[proc_id] else {
                    continue;
                };
                while in_flight[proc_id] < overlap {
                    let Some((seq, query)) = engine.next_for(proc_id) else {
                        break;
                    };
                    let dispatch_trace = trace.enabled().then(|| DispatchTrace {
                        level: trace,
                        dispatched_ns: now_ns(),
                    });
                    if reactor
                        .send(
                            conn_id,
                            &Frame::Dispatch {
                                seq,
                                query,
                                trace: dispatch_trace,
                            },
                        )
                        .is_err()
                    {
                        // The peer died between events; retire the
                        // connection and give the query back — the death
                        // handling below redistributes everything.
                        reactor.close(conn_id);
                        outstanding[proc_id].push((seq, query));
                        deaths.push(conn_id);
                        break;
                    }
                    if let Some(t) = dispatch_trace {
                        // Queue wait ends now; a resubmitted query (its
                        // first dispatchee died) restarts at zero.
                        let queue_ns = t.dispatched_ns.saturating_sub(
                            trace_submitted.remove(&seq).unwrap_or(t.dispatched_ns),
                        );
                        stages.record(Stage::RouterQueue, queue_ns);
                        trace_dispatched.insert(seq, (queue_ns, t.dispatched_ns));
                    }
                    // Region demand: one count per dispatch, against the
                    // anchor's nearest landmark (deterministic integer
                    // tally — sampling on or off never changes it).
                    if let Some(lm) = &landmarks {
                        if let Some(region) = nearest_region(lm, query.anchor()) {
                            region_heat.record_demand(region, 1);
                        }
                    }
                    in_flight[proc_id] += 1;
                    outstanding[proc_id].push((seq, query));
                }
            }

            // Finished? Everything submitted is done and no more will come.
            if submit_done && completed == submitted && backlog.is_empty() && engine.pending() == 0
            {
                break;
            }

            if let Some(o) = obs.as_mut() {
                let now = now_ns();
                o.maybe_sample(now, |r| {
                    let snap = snapshot_with_recovery(
                        &engine,
                        &prefetch_live,
                        &prefetch_retired,
                        &failover_live,
                        &failover_retired,
                        &heat_live,
                        &heat_retired,
                        &region_heat,
                        windows_resubmitted,
                    );
                    fill_router_registry(r, &snap, completed, submitted);
                    if trace.enabled() {
                        r.absorb_stages(&stages);
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
            events.clear();
            if deaths.is_empty() {
                if obs.is_some() {
                    // Bounded park so the sampler and the scrape endpoint
                    // keep running while the cluster idles between frames.
                    reactor.wait_timeout(&mut events, &|| true, SERVICE_IDLE_WAIT)?;
                } else {
                    reactor.wait(&mut events, &|| false)?;
                }
            }
            for conn_id in deaths {
                events.push(ReactorEvent::Closed(conn_id));
            }
            for event in events.drain(..) {
                match event {
                    ReactorEvent::Opened(_) => {}
                    ReactorEvent::Frame(conn_id, frame) => match frame {
                        Frame::Hello {
                            role: Role::Processor,
                            id,
                        } => {
                            let id = id as usize;
                            if id >= p {
                                return Err(WireError::Protocol(format!(
                                    "processor id {id} out of range (P = {p})"
                                )));
                            }
                            if processor_conn[id].is_some() {
                                return Err(WireError::Protocol(format!(
                                    "processor id {id} connected twice"
                                )));
                            }
                            processor_conn[id] = Some(conn_id);
                            in_flight[id] = 0;
                            // Re-join: a restarted processor re-dialling
                            // with its old id goes back into rotation (a
                            // no-op on the first connect).
                            engine.mark_up(id);
                            ever_connected += 1;
                        }
                        Frame::Hello {
                            role: Role::Client, ..
                        } => client_conn = Some(conn_id),
                        Frame::Submit {
                            seq,
                            query,
                            submitted_ns,
                        } => {
                            if trace.enabled() {
                                // Queue wait starts at the client's own
                                // stamp when it traced the submit, else at
                                // router receipt.
                                trace_submitted.insert(seq, submitted_ns.unwrap_or_else(now_ns));
                            }
                            backlog.push_back((seq as usize, query));
                            submitted += 1;
                        }
                        Frame::SubmitEnd => submit_done = true,
                        Frame::Completion(mut completion) => {
                            let proc_id = completion.processor as usize;
                            // `remove`, not `get`: each seq completes
                            // exactly once, so this bounds the map at the
                            // admission window instead of the whole
                            // workload.
                            completion.arrived_ns = arrivals.remove(&completion.seq).unwrap_or(0);
                            if trace.enabled() {
                                let received_ns = now_ns();
                                if let Some((queue_ns, dispatched_ns)) =
                                    trace_dispatched.remove(&completion.seq)
                                {
                                    let rtt_ns = received_ns.saturating_sub(dispatched_ns);
                                    stages.record(Stage::DispatchRtt, rtt_ns);
                                    if let Some(t) = &completion.trace {
                                        stages.record(Stage::FetchWait, t.fetch_wait_ns);
                                        stages.record(Stage::Compute, t.compute_ns);
                                    }
                                    if trace.spans() {
                                        spans.push(QuerySpan {
                                            seq: completion.seq,
                                            processor: completion.processor,
                                            levels: completion
                                                .trace
                                                .as_ref()
                                                .map_or(0, |t| t.levels),
                                            queue_ns,
                                            rtt_ns,
                                            fetch_wait_ns: completion
                                                .trace
                                                .as_ref()
                                                .map_or(0, |t| t.fetch_wait_ns),
                                            compute_ns: completion
                                                .trace
                                                .as_ref()
                                                .map_or(0, |t| t.compute_ns),
                                            // Router-side estimate: stamp →
                                            // arrival here. The client
                                            // measures the full completion
                                            // stage for the histogram.
                                            completion_ns: received_ns
                                                .saturating_sub(completion.completed_ns),
                                        });
                                    }
                                }
                            }
                            engine.complete(
                                QueryRecord {
                                    seq: completion.seq,
                                    arrived: completion.arrived_ns,
                                    started: completion.started_ns,
                                    completed: completion.completed_ns,
                                    processor: proc_id,
                                },
                                &completion.stats,
                            );
                            completed += 1;
                            if proc_id < p {
                                // Region speculation: the prefetch tally is
                                // cumulative, so this completion's newly
                                // issued speculative fetches are the delta
                                // against the processor's previous report,
                                // attributed to the completing query's
                                // anchor region.
                                if let Some(lm) = &landmarks {
                                    let delta = completion
                                        .prefetch
                                        .issued
                                        .saturating_sub(prefetch_live[proc_id].issued);
                                    if delta > 0 {
                                        if let Some(&(_, query)) = outstanding[proc_id]
                                            .iter()
                                            .find(|&&(s, _)| s == completion.seq)
                                        {
                                            if let Some(region) = nearest_region(lm, query.anchor())
                                            {
                                                region_heat.record_speculative(region, delta);
                                            }
                                        }
                                    }
                                }
                                heat_live[proc_id] = completion.heat.clone();
                                prefetch_live[proc_id] = completion.prefetch;
                                failover_live[proc_id] = completion.failover;
                                in_flight[proc_id] = in_flight[proc_id].saturating_sub(1);
                                // Out-of-order acknowledgement is legal
                                // under overlap; correlate by seq.
                                if let Some(pos) = outstanding[proc_id]
                                    .iter()
                                    .position(|&(s, _)| s == completion.seq)
                                {
                                    outstanding[proc_id].remove(pos);
                                }
                            }
                            if let Some(client) = client_conn {
                                reactor.send(client, &Frame::Completion(completion))?;
                                if opts.snapshot_every > 0
                                    && completed.is_multiple_of(opts.snapshot_every)
                                    && completed < submitted
                                {
                                    let snap = snapshot_with_recovery(
                                        &engine,
                                        &prefetch_live,
                                        &prefetch_retired,
                                        &failover_live,
                                        &failover_retired,
                                        &heat_live,
                                        &heat_retired,
                                        &region_heat,
                                        windows_resubmitted,
                                    );
                                    let snap_trace =
                                        trace_snapshot(trace, &stages, &spans, &opts.telemetry);
                                    reactor.send(
                                        client,
                                        &Frame::Metrics {
                                            snapshot: snap,
                                            trace: snap_trace,
                                        },
                                    )?;
                                }
                            }
                        }
                        Frame::MetricsRequest => {
                            // Any peer may sample the run mid-flight;
                            // answer with the totals accumulated so far (a
                            // requester that died in the meantime is
                            // handled by its own Closed event).
                            let snap = snapshot_with_recovery(
                                &engine,
                                &prefetch_live,
                                &prefetch_retired,
                                &failover_live,
                                &failover_retired,
                                &heat_live,
                                &heat_retired,
                                &region_heat,
                                windows_resubmitted,
                            );
                            let snap_trace =
                                trace_snapshot(trace, &stages, &spans, &opts.telemetry);
                            let _ = reactor.send(
                                conn_id,
                                &Frame::Metrics {
                                    snapshot: snap,
                                    trace: snap_trace,
                                },
                            );
                        }
                        Frame::ObsPush { snapshot } => {
                            // A processor or storage node pushed its sampled
                            // registry; fold it into the cluster-wide scrape.
                            // Tolerated (and dropped) with observability off,
                            // so mismatched configurations degrade softly.
                            if let Some(o) = obs.as_mut() {
                                o.absorb_push(snapshot);
                            }
                        }
                        Frame::Shutdown => {
                            // Any peer may abort the run (the harness uses
                            // this when its client fails before connecting
                            // properly).
                            return Err(WireError::Protocol(format!(
                                "run aborted by conn {conn_id}"
                            )));
                        }
                        other => {
                            return Err(WireError::Protocol(format!(
                                "router got {} from conn {conn_id}",
                                other.kind()
                            )))
                        }
                    },
                    ReactorEvent::Closed(conn_id) => {
                        // A registered peer dropped. Losing the client (the
                        // rest of the submissions and every result) is
                        // always fatal. A processor death is masked: the
                        // engine marks it down (redistributing its queued
                        // work through the strategy) and every outstanding
                        // dispatched query is resubmitted, so the run
                        // continues on the survivors — unless none remain.
                        // A stray dial or a peer that never said hello is
                        // ignorable.
                        if client_conn == Some(conn_id) {
                            return Err(WireError::Closed);
                        }
                        if let Some(proc_id) =
                            processor_conn.iter().position(|&c| c == Some(conn_id))
                        {
                            processor_conn[proc_id] = None;
                            in_flight[proc_id] = 0;
                            // A restarted processor reports a fresh tally;
                            // bank what the dead incarnation speculated.
                            prefetch_retired.merge(&prefetch_live[proc_id]);
                            prefetch_live[proc_id] = grouting_query::PrefetchStats::default();
                            failover_retired.merge(&failover_live[proc_id]);
                            failover_live[proc_id] = FailoverStats::default();
                            heat_retired.merge(&heat_live[proc_id]);
                            heat_live[proc_id] = HeatMap::new();
                            engine.mark_down(proc_id);
                            // A fault event dumps the flight recorder
                            // regardless of the teardown dump flag.
                            if let Some(o) = obs.as_ref() {
                                o.dump(&format!("processor {proc_id} died"));
                            }
                            if !outstanding[proc_id].is_empty() {
                                windows_resubmitted += 1;
                            }
                            for (seq, query) in outstanding[proc_id].drain(..) {
                                engine.resubmit(seq, query);
                            }
                            let unfinished =
                                !submit_done || completed < submitted || engine.pending() > 0;
                            if processor_conn.iter().all(Option::is_none) && unfinished {
                                return Err(WireError::Protocol(format!(
                                    "all {ever_connected} connected processor(s) died mid-run"
                                )));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    })();

    // Teardown: snapshot to the client, shutdown to everyone. Dropping the
    // reactor closes the listener and every connection.
    let snapshot = snapshot_with_recovery(
        &engine,
        &prefetch_live,
        &prefetch_retired,
        &failover_live,
        &failover_retired,
        &heat_live,
        &heat_retired,
        &region_heat,
        windows_resubmitted,
    );
    if let Some(o) = obs.as_ref() {
        o.teardown();
    }
    if let Some(client) = client_conn {
        let _ = reactor.send(
            client,
            &Frame::Metrics {
                snapshot: snapshot.clone(),
                trace: trace_snapshot(trace, &stages, &spans, &opts.telemetry),
            },
        );
        let _ = reactor.send(client, &Frame::Shutdown);
    }
    for conn_id in processor_conn.into_iter().flatten() {
        let _ = reactor.send(conn_id, &Frame::Shutdown);
    }

    result.map(|()| snapshot)
}

/// The trace layer's aggregate for a [`Frame::Metrics`]: `None` at
/// [`TraceLevel::Off`] so the frame stays byte-identical to an untraced
/// deployment.
fn trace_snapshot(
    level: TraceLevel,
    stages: &StageStats,
    spans: &SpanRing,
    telemetry: &Option<Arc<TelemetryCounters>>,
) -> Option<Box<TraceSnapshot>> {
    level.enabled().then(|| {
        Box::new(TraceSnapshot {
            level,
            stages: stages.clone(),
            reactor: telemetry.as_ref().map(|t| t.snapshot()).unwrap_or_default(),
            spans: spans.dump(),
            spans_dropped: spans.dropped(),
        })
    })
}

/// Exponential-decay time constant for the scrape's "recent heat" gauges
/// (~2 s half-life of relevance; cumulative counters sit next to them).
const HEAT_DECAY_TAU_NS: u64 = 2_000_000_000;

/// The landmark region a query anchored at `node` belongs to: the index
/// of the nearest landmark by hop distance, `None` when the node is
/// unreachable from every landmark (or out of range).
fn nearest_region(landmarks: &Landmarks, node: NodeId) -> Option<usize> {
    let idx = node.index();
    let mut best: Option<(u16, usize)> = None;
    for (region, dist) in landmarks.dist.iter().enumerate() {
        let d = *dist.get(idx)?;
        if d == grouting_embed::UNREACHED_U16 {
            continue;
        }
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, region));
        }
    }
    best.map(|(_, region)| region)
}

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
    r.absorb_prefetch(
        snap.prefetch_issued,
        snap.prefetch_hits,
        snap.prefetch_wasted_bytes,
    );
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

/// The engine's current snapshot with the speculation and recovery
/// counters filled in: the live per-processor cumulative tallies plus
/// whatever dead processor incarnations banked before they went away,
/// and the router's own count of resubmitted dispatch windows.
#[allow(clippy::too_many_arguments)]
fn snapshot_with_recovery(
    engine: &Engine,
    prefetch_live: &[grouting_query::PrefetchStats],
    prefetch_retired: &grouting_query::PrefetchStats,
    failover_live: &[FailoverStats],
    failover_retired: &FailoverStats,
    heat_live: &[HeatMap],
    heat_retired: &HeatMap,
    region_heat: &HeatMap,
    windows_resubmitted: u64,
) -> RunSnapshot {
    let mut prefetch = *prefetch_retired;
    for stats in prefetch_live {
        prefetch.merge(stats);
    }
    let mut failover = *failover_retired;
    for stats in failover_live {
        failover.merge(stats);
    }
    let mut heat = heat_retired.clone();
    for h in heat_live {
        heat.merge(h);
    }
    let mut snapshot = engine.snapshot();
    snapshot.prefetch_issued = prefetch.issued;
    snapshot.prefetch_hits = prefetch.hits;
    snapshot.prefetch_wasted_bytes = prefetch.wasted_bytes;
    snapshot.redials = failover.redials;
    snapshot.replica_failovers = failover.replica_failovers;
    snapshot.batches_resubmitted = failover.batches_resubmitted;
    snapshot.windows_resubmitted = windows_resubmitted;
    snapshot.partition_heat = heat;
    snapshot.region_heat = region_heat.clone();
    snapshot
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InProcTransport;

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
            send_batch_response(|f| sender.send(&f), 42, payloads).unwrap();
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
        send_batch_response(|f| sender.send(&f), 7, Vec::new()).unwrap();
        match receiver.recv().unwrap() {
            Frame::FetchBatchResponse { req_id, payloads } => {
                assert_eq!(req_id, 7);
                assert!(payloads.is_empty());
            }
            other => panic!("got {}", other.kind()),
        }
    }
}
