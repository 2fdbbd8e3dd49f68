//! A readiness-driven reactor: one poll loop over many framed connections.
//!
//! Every node runs a single [`Reactor`]: it multiplexes the listener
//! ([`Listener::try_accept`]) and every established connection
//! ([`crate::transport::FrameStream::try_recv`]) through one non-blocking
//! loop, so a node's thread count is O(1) rather than O(connections), and
//! a dispatch wakes its processor in one poll-loop iteration rather than a
//! channel hand-off plus a scheduler round trip.
//!
//! Between rounds every loop waits on one poller with one idle policy.
//! Sources with an fd live in an epoll set (Linux): an idle reactor
//! *blocks* in `epoll_wait` — zero syscalls per idle connection — and a
//! woken one drains only the connections the kernel reports ready,
//! O(ready) per wake instead of O(connections) per sweep. A source the
//! poller cannot track — one without an fd (the in-process transport), or
//! any source on a host without epoll — turns each wait into one rung of
//! the [`Backoff`] yield → sleep ladder plus a full sweep. Which regime a
//! wait takes never changes what a loop computes.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grouting_trace::TelemetryCounters;

use crate::error::{WireError, WireResult};
use crate::frame::Frame;
use crate::transport::{Connection, FrameSink, FrameStream, Listener};

/// The yield → sleep idle ladder shared by every poll loop (the reactor,
/// the batch multiplexer, the overlapped processor).
///
/// Deliberately NO spin rung: each "round" of a poll loop is a sweep of
/// read/accept syscalls, not a free pause, so spinning between sweeps
/// burns the very core the peer needs to produce the next frame — on a
/// single-CPU host that multiplies round-trip latency several-fold
/// (measured ~5× on the 64-node frontier fetch). Yielding immediately
/// hands the core over for the price of one syscall; the kernel wakes us
/// right back when nothing else is runnable.
#[derive(Debug, Default)]
pub struct Backoff {
    /// When this idle stretch began (first idle round after progress).
    idle_since: Option<Instant>,
}

/// How long into an idle stretch the loop keeps yielding before it starts
/// sleeping (or, on an epoll wait, blocking). Request gaps on a loaded
/// service are microseconds, far under this, so the hot path never pays
/// `thread::sleep`'s timer-slack latency (~50 µs per call); a genuinely
/// idle swept loop converges to ~10 k cheap sweeps per second instead of
/// a 100 % yield-spin.
const YIELD_FOR: Duration = Duration::from_millis(2);

impl Backoff {
    /// A fresh ladder (starts at the yield rung).
    pub fn new() -> Self {
        Self::default()
    }

    /// Progress happened: restart from the yield rung.
    pub fn reset(&mut self) {
        self.idle_since = None;
    }

    /// Nothing happened this round: pay the current rung.
    pub fn idle(&mut self) {
        if self.on_yield_rung() {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Whether the current idle stretch (started now if none is running)
    /// is still inside its yield window.
    fn on_yield_rung(&mut self) -> bool {
        self.idle_since.get_or_insert_with(Instant::now).elapsed() < YIELD_FOR
    }
}

/// How long a service or fetch-collect loop parks on its poller before
/// re-checking its own state anyway: a safety net, since an epoll wait
/// wakes on any tracked byte and the swept fallback after one rung.
pub const IDLE_WAIT: Duration = Duration::from_millis(5);

/// The readiness backend a poll loop runs on — there is only one, the
/// epoll poller with its swept fallback. Named by the benchmark (`load/`),
/// with the `poller` fields of the service options and
/// `MultiplexedStorageSource::with_poller`; the next `benchmark` PR drops
/// them all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PollerKind;

impl PollerKind {
    /// The one backend.
    pub fn default_for_host() -> Self {
        Self
    }
}

/// Off Linux there is no epoll set to hold: an uninhabited stand-in, so
/// the poller's `Option<EpollFd>` is simply always `None` there.
#[cfg(not(target_os = "linux"))]
enum EpollFd {}

#[cfg(not(target_os = "linux"))]
impl EpollFd {
    fn add(&self, _fd: i32, _token: u64) -> std::io::Result<()> {
        match *self {}
    }

    fn del(&self, _fd: i32) {
        match *self {}
    }

    fn wait(&self, _ready: &mut Vec<u64>, _timeout: Duration) -> std::io::Result<usize> {
        match *self {}
    }
}

#[cfg(target_os = "linux")]
use crate::sys::EpollFd;

/// One poll loop's readiness source: an epoll set for every source with
/// a trackable fd, a swept fallback for the rest.
///
/// [`Poller::wait`] either names the ready tokens (returns `false`) or
/// declares readiness unknown (returns `true`), in which case the owner
/// must probe every source. It names tokens only while it tracks *every*
/// registered source: one fd-less source — whose bytes arrive without any
/// fd becoming readable — or a missing epoll set turns each wait into one
/// [`Backoff`] rung plus a request to sweep.
pub(crate) struct Poller {
    /// Absent off Linux, or when the kernel refused to create one.
    epoll: Option<EpollFd>,
    /// Tokens registered without a tracked fd: while non-empty the poller
    /// must not block, and the owner sweeps.
    untracked: BTreeSet<u64>,
    /// The one idle clock, for both the swept ladder and epoll's
    /// yield-then-block hybrid.
    backoff: Backoff,
    /// Scratch for [`Poller::park`]'s discarded ready tokens.
    scratch: Vec<u64>,
}

impl Poller {
    /// A poller on the host's epoll set, or on the swept fallback alone
    /// where there is none.
    pub fn new() -> Self {
        #[cfg(target_os = "linux")]
        match EpollFd::new() {
            Ok(epoll) => return Self::with_epoll(Some(epoll)),
            Err(e) => grouting_metrics::log_warn!("epoll unavailable ({e}); using sweep"),
        }
        Self::with_epoll(None)
    }

    fn with_epoll(epoll: Option<EpollFd>) -> Self {
        Self {
            epoll,
            untracked: BTreeSet::new(),
            backoff: Backoff::new(),
            scratch: Vec::new(),
        }
    }

    /// Starts tracking a source. Without an fd, or without an epoll set,
    /// it joins the untracked set and every wait sweeps until it is
    /// deregistered.
    pub fn register(&mut self, token: u64, fd: Option<i32>) {
        if let (Some(epoll), Some(fd)) = (&self.epoll, fd) {
            if epoll.add(fd, token).is_ok() {
                return;
            }
        }
        self.untracked.insert(token);
    }

    /// Stops tracking a source (pass the same fd as at registration).
    pub fn deregister(&mut self, token: u64, fd: Option<i32>) {
        if self.untracked.remove(&token) {
            return;
        }
        if let (Some(epoll), Some(fd)) = (&self.epoll, fd) {
            epoll.del(fd);
        }
    }

    /// Progress happened (frames were drained): idle pacing restarts from
    /// its hot rung.
    pub fn reset(&mut self) {
        self.backoff.reset();
    }

    /// One idle-path wait, the loop's whole spin-or-park policy. With every
    /// source tracked: for the first 2 ms of an idle stretch, a yield (the
    /// peer may be about to produce our bytes) plus a non-blocking
    /// `epoll_wait`; after that, `epoll_wait` blocking up to `timeout` —
    /// the flat-idle-cost state where a thousand quiet connections cost
    /// zero syscalls per round. Otherwise one [`Backoff`] rung. Appends
    /// ready tokens to `ready`; returns `true` when the caller must probe
    /// every source, `false` when `ready` is authoritative.
    pub fn wait(&mut self, ready: &mut Vec<u64>, timeout: Duration) -> bool {
        let epoll = match &self.epoll {
            Some(epoll) if self.untracked.is_empty() => epoll,
            _ => {
                self.backoff.idle();
                return true;
            }
        };
        let wait_for = if self.backoff.on_yield_rung() {
            std::thread::yield_now();
            Duration::ZERO
        } else {
            timeout
        };
        // An epoll failure mid-run (should not happen): fall back to
        // sweeping rather than spinning on the error.
        epoll.wait(ready, wait_for).is_err()
    }

    /// [`Poller::wait`] with the readiness report discarded: for owners
    /// whose next round probes every source it cares about anyway.
    pub fn park(&mut self, timeout: Duration) {
        let mut ready = std::mem::take(&mut self.scratch);
        ready.clear();
        let _ = self.wait(&mut ready, timeout);
        self.scratch = ready;
    }
}

/// Something a [`Reactor::poll`] sweep observed.
// The `Frame` variant dwarfs the others, but boxing it would put a heap
// allocation on every inbound frame — the data plane's hot path. Events
// live in one short reused Vec, so the per-event size is not a cost that
// compounds.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ReactorEvent {
    /// A new inbound connection was accepted (or an outbound one
    /// registered) under this id.
    Opened(u64),
    /// A complete frame arrived on this connection.
    Frame(u64, Frame),
    /// The connection died (peer closed, transport error, or stream
    /// corruption); it has already been deregistered.
    Closed(u64),
}

struct ReactorConn {
    sink: Box<dyn FrameSink>,
    stream: Box<dyn FrameStream>,
    /// The stream's raw fd, as registered with the poller.
    fd: Option<i32>,
    /// Pool counters (checkouts, reused) already folded into telemetry —
    /// the pool exposes monotonic totals, so samples record deltas.
    pool_seen: (u64, u64),
}

/// Folds a stream's buffer-pool counters into `telemetry` as deltas
/// against `seen` (the totals already reported for this connection).
/// A no-op when telemetry is off or the stream has no pool.
pub(crate) fn sample_pool(
    telemetry: &Option<Arc<TelemetryCounters>>,
    stream: &dyn FrameStream,
    seen: &mut (u64, u64),
) {
    let Some(t) = telemetry else { return };
    let Some((checkouts, reused, free)) = stream.pool_stats() else {
        return;
    };
    t.pool_sample(
        checkouts.saturating_sub(seen.0),
        reused.saturating_sub(seen.1),
        free,
    );
    *seen = (checkouts, reused);
}

/// Most frames drained from one connection per sweep, so a flooding peer
/// cannot starve the others (order within each connection is preserved
/// regardless — the excess is simply picked up next sweep).
const MAX_FRAMES_PER_CONN_PER_SWEEP: usize = 32;

/// The poller token for the listener (connection ids count up from 0 and
/// can never collide with it).
const LISTENER_TOKEN: u64 = u64::MAX;

/// How long one blocking wait may park before re-checking the caller's
/// stop condition. Long enough that an idle node pays ~40 wakes/s, short
/// enough that shutdown stays prompt.
const DEFAULT_IDLE_WAIT: Duration = Duration::from_millis(25);

/// What draining one connection's ready frames observed.
enum Drain {
    /// Everything buffered and readable was delivered.
    Done,
    /// The per-sweep frame cap was hit; complete frames may remain
    /// buffered in userspace, invisible to the kernel's readiness.
    Capped,
    /// The connection failed (a `Closed` event was already pushed).
    Dead,
}

fn drain_conn(
    id: u64,
    conn: &mut ReactorConn,
    events: &mut Vec<ReactorEvent>,
    telemetry: &Option<Arc<TelemetryCounters>>,
) -> Drain {
    let result = 'drain: {
        for _ in 0..MAX_FRAMES_PER_CONN_PER_SWEEP {
            match conn.stream.try_recv() {
                Ok(Some((frame, len))) => {
                    if let Some(t) = telemetry {
                        t.frame_in(len as u64);
                    }
                    events.push(ReactorEvent::Frame(id, frame));
                }
                Ok(None) => break 'drain Drain::Done,
                // Any failure — clean close, reset, or stream corruption —
                // retires the connection; the consumer decides whether that
                // peer's death is fatal.
                Err(_) => {
                    events.push(ReactorEvent::Closed(id));
                    return Drain::Dead;
                }
            }
        }
        Drain::Capped
    };
    sample_pool(telemetry, conn.stream.as_ref(), &mut conn.pool_seen);
    result
}

/// One node's connection multiplexer: a listener plus every accepted (or
/// registered) connection, all driven from a single thread.
///
/// Frames are delivered in per-connection order — the order the peer sent
/// them — because each connection is a FIFO byte stream drained
/// sequentially; no ordering holds *across* connections.
///
/// [`Reactor::poll`] is always a full sweep, while [`Reactor::wait`]
/// blocks an idle epoll-tracked reactor and drains only the connections
/// reported ready when woken (the module docs give the fallback).
/// Connections whose frame drain hit the per-sweep cap are remembered as
/// *dirty* and re-drained on the next round regardless of kernel
/// readiness — complete frames parked in a userspace buffer make no fd
/// readable.
pub struct Reactor {
    listener: Option<Box<dyn Listener>>,
    // BTreeMap so sweeps visit connections in a deterministic order.
    conns: BTreeMap<u64, ReactorConn>,
    poller: Poller,
    /// Connections whose last drain hit the frame cap: complete frames
    /// may still sit in their userspace buffers.
    dirty: BTreeSet<u64>,
    /// Scratch for ready tokens (reused across rounds).
    ready: Vec<u64>,
    next_id: u64,
    /// Shared telemetry sink; `None` (tracing off) keeps the loop free of
    /// clock reads and atomic bumps.
    telemetry: Option<Arc<TelemetryCounters>>,
}

impl Reactor {
    /// A reactor accepting inbound connections from `listener`.
    pub fn new(listener: Box<dyn Listener>) -> Self {
        Self::with(listener, Poller::new())
    }

    fn with(listener: Box<dyn Listener>, mut poller: Poller) -> Self {
        poller.register(LISTENER_TOKEN, listener.raw_fd());
        Self {
            listener: Some(listener),
            conns: BTreeMap::new(),
            poller,
            dirty: BTreeSet::new(),
            ready: Vec::new(),
            next_id: 0,
            telemetry: None,
        }
    }

    /// Routes this reactor's frame, byte, busy/idle, and buffer-pool
    /// telemetry into the shared counters.
    pub fn set_telemetry(&mut self, telemetry: Arc<TelemetryCounters>) {
        self.telemetry = Some(telemetry);
    }

    /// The address peers dial to reach this reactor's listener (empty for
    /// a listenerless reactor).
    pub fn addr(&self) -> String {
        self.listener.as_ref().map(|l| l.addr()).unwrap_or_default()
    }

    /// Registers an outbound connection (a dial this node made) under a
    /// fresh id, returning it. The connection is polled like any accepted
    /// one.
    pub fn register(&mut self, conn: Connection) -> u64 {
        let (sink, stream) = conn.split();
        self.insert_conn(sink, stream)
    }

    fn insert_conn(&mut self, sink: Box<dyn FrameSink>, stream: Box<dyn FrameStream>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let fd = stream.raw_fd();
        self.poller.register(id, fd);
        // Bytes may already be buffered (frames that arrived before
        // registration): force one drain regardless of readiness.
        self.dirty.insert(id);
        self.conns.insert(
            id,
            ReactorConn {
                sink,
                stream,
                fd,
                pool_seen: (0, 0),
            },
        );
        id
    }

    fn retire(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            self.poller.deregister(id, conn.fd);
        }
        self.dirty.remove(&id);
    }

    /// Established connections currently registered.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Sends one frame on connection `id`.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] when the id is unknown (the connection died
    /// and was deregistered); transport errors from the send itself.
    pub fn send(&mut self, id: u64, frame: &Frame) -> WireResult<()> {
        match self.conns.get_mut(&id) {
            Some(conn) => {
                let len = conn.sink.send(frame)?;
                if let Some(t) = &self.telemetry {
                    t.frame_out(len as u64);
                }
                Ok(())
            }
            None => Err(WireError::Closed),
        }
    }

    /// Drops connection `id` (no event is emitted).
    pub fn close(&mut self, id: u64) {
        self.retire(id);
    }

    fn accept_new(&mut self, events: &mut Vec<ReactorEvent>) -> WireResult<()> {
        let Some(mut listener) = self.listener.take() else {
            return Ok(());
        };
        let mut result = Ok(());
        loop {
            match listener.try_accept() {
                Ok(Some(conn)) => {
                    let (sink, stream) = conn.split();
                    let id = self.insert_conn(sink, stream);
                    events.push(ReactorEvent::Opened(id));
                }
                Ok(None) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        self.listener = Some(listener);
        result
    }

    /// One non-blocking sweep: accept every waiting dial, then drain each
    /// connection's ready frames (bounded per sweep), appending events in
    /// per-connection order.
    ///
    /// # Errors
    ///
    /// Only listener failures are fatal; a failing *connection* becomes a
    /// [`ReactorEvent::Closed`] event instead.
    pub fn poll(&mut self, events: &mut Vec<ReactorEvent>) -> WireResult<()> {
        let started = self.telemetry.is_some().then(Instant::now);
        self.accept_new(events)?;
        let mut dead: Vec<u64> = Vec::new();
        for (&id, conn) in self.conns.iter_mut() {
            match drain_conn(id, conn, events, &self.telemetry) {
                Drain::Done => {
                    self.dirty.remove(&id);
                }
                Drain::Capped => {
                    self.dirty.insert(id);
                }
                Drain::Dead => dead.push(id),
            }
        }
        for id in dead {
            self.retire(id);
        }
        self.note_busy(started);
        Ok(())
    }

    /// One ready-round: accept when the listener is ready, then drain only
    /// the connections the poller reported ready plus the dirty ones
    /// holding capped userspace frames. The poller names ready tokens only
    /// while it tracks every registered source, so nothing else can hold
    /// frames.
    fn poll_ready(&mut self, events: &mut Vec<ReactorEvent>, ready: &[u64]) -> WireResult<()> {
        let started = self.telemetry.is_some().then(Instant::now);
        if ready.contains(&LISTENER_TOKEN) {
            self.accept_new(events)?;
        }
        // After the accept: fresh connections are dirty (forced drain).
        let mut targets = self.dirty.clone();
        targets.extend(ready.iter().copied().filter(|&t| t != LISTENER_TOKEN));
        for id in targets {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            match drain_conn(id, conn, events, &self.telemetry) {
                Drain::Done => {
                    self.dirty.remove(&id);
                }
                Drain::Capped => {
                    self.dirty.insert(id);
                }
                Drain::Dead => self.retire(id),
            }
        }
        self.note_busy(started);
        Ok(())
    }

    /// Folds the elapsed time since `started` into busy telemetry
    /// (`started` is `None` exactly when telemetry is off).
    fn note_busy(&self, started: Option<Instant>) {
        if let (Some(t), Some(started)) = (&self.telemetry, started) {
            t.add_busy_ns(started.elapsed().as_nanos() as u64);
        }
    }

    /// Polls until at least one event is available (or `stop` returns
    /// true). An idle epoll-tracked reactor blocks in `epoll_wait`
    /// (re-checking `stop` every 25 ms, `DEFAULT_IDLE_WAIT`) and a woken
    /// one drains only ready connections; with an untracked source it
    /// pays the [`Backoff`] ladder between full sweeps.
    ///
    /// # Errors
    ///
    /// Propagates listener failures from [`Reactor::poll`].
    pub fn wait(
        &mut self,
        events: &mut Vec<ReactorEvent>,
        stop: &dyn Fn() -> bool,
    ) -> WireResult<()> {
        self.wait_timeout(events, stop, DEFAULT_IDLE_WAIT)
    }

    /// [`Reactor::wait`] with an explicit cap on how long one blocking
    /// wait may park before `stop` is re-checked.
    ///
    /// # Errors
    ///
    /// Propagates listener failures from [`Reactor::poll`].
    pub fn wait_timeout(
        &mut self,
        events: &mut Vec<ReactorEvent>,
        stop: &dyn Fn() -> bool,
        timeout: Duration,
    ) -> WireResult<()> {
        loop {
            let mut ready = std::mem::take(&mut self.ready);
            ready.clear();
            let parked = self.telemetry.is_some().then(Instant::now);
            let must_sweep = self.poller.wait(&mut ready, timeout);
            if let (Some(t), Some(parked)) = (&self.telemetry, parked) {
                t.add_idle_ns(parked.elapsed().as_nanos() as u64);
            }
            let round = if must_sweep {
                self.poll(events)
            } else {
                self.poll_ready(events, &ready)
            };
            self.ready = ready;
            round?;
            if !events.is_empty() {
                self.poller.reset();
                return Ok(());
            }
            if stop() {
                return Ok(());
            }
        }
    }

    /// One idle-path wait *without* draining: parks (when every source is
    /// tracked) until any source may be ready or `timeout` elapses; the
    /// caller's next [`Reactor::poll`] picks up whatever arrived. Loops
    /// that must interleave polling with their own work (the storage
    /// service's delayed-response queue) use this instead of
    /// [`Reactor::wait`].
    pub fn idle_wait(&mut self, timeout: Duration) {
        if !self.dirty.is_empty() {
            // Complete frames are parked in userspace; blocking would
            // stall them.
            return;
        }
        let parked = self.telemetry.is_some().then(Instant::now);
        self.poller.park(timeout);
        if let (Some(t), Some(parked)) = (&self.telemetry, parked) {
            t.add_idle_ns(parked.elapsed().as_nanos() as u64);
        }
    }

    /// Hands the core over once, with no readiness wait and no change to
    /// idle pacing: for work due within microseconds (the storage
    /// service's delayed responses), where a park would overshoot.
    pub(crate) fn yield_once(&self) {
        std::thread::yield_now();
    }

    /// Progress happened outside the wait path (the owner drained frames
    /// via [`Reactor::poll`]): restart idle pacing from the hot rung.
    pub fn note_progress(&mut self) {
        self.poller.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InProcTransport, TcpTransport, Transport};
    use grouting_graph::NodeId;
    use std::sync::Arc;

    fn frame(i: u32) -> Frame {
        Frame::FetchBatchRequest {
            req_id: u64::from(i),
            nodes: vec![NodeId::new(i)],
            issued_ns: None,
        }
    }

    /// The poller every host without epoll runs on: each wait takes the
    /// swept fallback.
    fn swept() -> Poller {
        Poller::with_epoll(None)
    }

    fn echo_reactor_over(transport: Arc<dyn Transport>, poller: Poller) {
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = std::thread::spawn(move || {
            let mut reactor = Reactor::with(listener, poller);
            let mut events = Vec::new();
            let mut served = 0;
            loop {
                reactor.wait(&mut events, &|| false).unwrap();
                for event in events.drain(..) {
                    match event {
                        ReactorEvent::Frame(id, Frame::Shutdown) => {
                            reactor.close(id);
                            return;
                        }
                        ReactorEvent::Frame(id, f) => {
                            reactor.send(id, &f).unwrap();
                            served += 1;
                        }
                        ReactorEvent::Opened(_) | ReactorEvent::Closed(_) => {}
                    }
                }
                if served > 1000 {
                    return;
                }
            }
        });

        let mut conn = transport.dial(&addr).unwrap();
        for i in 0..50 {
            assert_eq!(conn.request(&frame(i)).unwrap(), frame(i));
        }
        conn.send(&Frame::Shutdown).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn inproc_reactor_echoes() {
        // In-process sources are fd-less: the poller must fall back to
        // sweeping them rather than deafen itself in `epoll_wait`.
        echo_reactor_over(Arc::new(InProcTransport::new()), Poller::new());
    }

    #[test]
    fn tcp_reactor_echoes() {
        echo_reactor_over(Arc::new(TcpTransport::new()), Poller::new());
        echo_reactor_over(Arc::new(TcpTransport::new()), swept());
    }

    #[test]
    fn tcp_reactor_counts_the_bytes_the_encoder_counts() {
        // A few control bytes, a request, an empty and a full response.
        let frames = vec![
            Frame::Hello {
                role: crate::frame::Role::Processor,
                id: 3,
            },
            frame(7),
            Frame::MetricsRequest,
            Frame::FetchBatchResponse {
                req_id: 1,
                payloads: Vec::new(),
            },
            Frame::FetchBatchResponse {
                req_id: 2,
                payloads: vec![None, Some((1, vec![9u8; 5000].into()))],
            },
        ];
        let want: u64 = frames.iter().map(|f| f.encoded_len() as u64).sum();
        let telemetry = Arc::new(TelemetryCounters::new());
        let transport = TcpTransport::new();
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let (counters, count) = (Arc::clone(&telemetry), frames.len());
        let server = std::thread::spawn(move || {
            let mut reactor = Reactor::new(listener);
            reactor.set_telemetry(counters);
            let (mut events, mut echoed) = (Vec::new(), 0);
            while echoed < count {
                reactor.wait(&mut events, &|| false).unwrap();
                for event in events.drain(..) {
                    if let ReactorEvent::Frame(id, f) = event {
                        reactor.send(id, &f).unwrap();
                        echoed += 1;
                    }
                }
            }
        });
        let mut conn = transport.dial(&addr).unwrap();
        for f in &frames {
            assert_eq!(&conn.request(f).unwrap(), f);
        }
        server.join().unwrap();
        let seen = telemetry.snapshot();
        assert_eq!((seen.bytes_in, seen.bytes_out), (want, want));
    }

    /// 1k concurrent TCP connections through one reactor: every dial is
    /// accepted, every frame echoed, every close observed.
    fn thousand_connections_echo(poller: Poller) {
        const CONNS: usize = 1000;
        let transport = TcpTransport::new();
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = std::thread::spawn(move || {
            let mut reactor = Reactor::with(listener, poller);
            let mut events = Vec::new();
            let mut echoed = 0usize;
            let mut closed = 0usize;
            while closed < CONNS {
                reactor.wait(&mut events, &|| false).unwrap();
                for event in events.drain(..) {
                    match event {
                        ReactorEvent::Frame(id, f) => {
                            reactor.send(id, &f).unwrap();
                            echoed += 1;
                        }
                        ReactorEvent::Closed(_) => closed += 1,
                        ReactorEvent::Opened(_) => {}
                    }
                }
            }
            echoed
        });
        let mut conns = Vec::with_capacity(CONNS);
        for _ in 0..CONNS {
            conns.push(transport.dial(&addr).unwrap());
        }
        for (i, conn) in conns.iter_mut().enumerate() {
            assert_eq!(conn.request(&frame(i as u32)).unwrap(), frame(i as u32));
        }
        drop(conns);
        assert_eq!(server.join().unwrap(), CONNS);
    }

    #[test]
    fn thousand_connections_echo_sweep() {
        thousand_connections_echo(swept());
    }

    #[test]
    fn thousand_connections_echo_epoll() {
        thousand_connections_echo(Poller::new());
    }

    #[test]
    fn fd_less_source_sweeps_until_deregistered() {
        let mut poller = Poller::new();
        let mut ready = Vec::new();
        poller.register(7, None);
        let started = Instant::now();
        assert!(
            poller.wait(&mut ready, Duration::from_secs(10)),
            "an fd-less source must turn the wait into a sweep"
        );
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "it must not park"
        );
        poller.deregister(7, None);
        if poller.epoll.is_none() {
            return; // No epoll set on this host: every wait sweeps.
        }
        // Past the yield window, an empty epoll set parks for the whole
        // timeout and names no token.
        std::thread::sleep(YIELD_FOR);
        let parked = Instant::now();
        assert!(!poller.wait(&mut ready, Duration::from_millis(50)));
        assert!(
            parked.elapsed() >= Duration::from_millis(40),
            "it must park"
        );
        assert!(ready.is_empty());
    }

    #[test]
    fn reactor_reports_closed_connections() {
        let transport = InProcTransport::new();
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let mut reactor = Reactor::new(listener);
        let conn = transport.dial(&addr).unwrap();
        let mut events = Vec::new();
        reactor.wait(&mut events, &|| false).unwrap();
        assert!(matches!(events[0], ReactorEvent::Opened(_)));
        assert_eq!(reactor.connections(), 1);
        drop(conn);
        events.clear();
        reactor.wait(&mut events, &|| false).unwrap();
        assert!(matches!(events[0], ReactorEvent::Closed(0)));
        assert_eq!(reactor.connections(), 0);
        // Sending to the retired id reports Closed rather than panicking.
        assert!(matches!(
            reactor.send(0, &Frame::Shutdown),
            Err(WireError::Closed)
        ));
    }

    #[test]
    fn wait_respects_stop() {
        let transport = InProcTransport::new();
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let mut reactor = Reactor::new(listener);
        let mut events = Vec::new();
        // No peers at all: without the stop check this would spin forever.
        reactor.wait(&mut events, &|| true).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn flooding_connection_cannot_starve_the_sweep() {
        let transport = InProcTransport::new();
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let mut reactor = Reactor::new(listener);
        let mut flood = transport.dial(&addr).unwrap();
        let mut quiet = transport.dial(&addr).unwrap();
        for i in 0..200 {
            flood.send(&frame(i)).unwrap();
        }
        quiet.send(&frame(9999)).unwrap();
        // One sweep caps the flooder's drain, so the quiet peer's frame is
        // seen within the first sweep rather than after 200 frames.
        let mut events = Vec::new();
        reactor.poll(&mut events).unwrap();
        let quiet_seen = events.iter().any(|e| {
            matches!(
                e,
                ReactorEvent::Frame(_, Frame::FetchBatchRequest { req_id: 9999, .. })
            )
        });
        assert!(quiet_seen, "bounded drain must reach the second peer");
        let flood_frames = events
            .iter()
            .filter(|e| matches!(e, ReactorEvent::Frame(0, _)))
            .count();
        assert!(flood_frames <= MAX_FRAMES_PER_CONN_PER_SWEEP);
    }

    proptest::proptest! {
        /// Interleaved frames from N concurrent connections through one
        /// poll loop are delivered in per-connection order, none lost.
        #[test]
        fn prop_per_connection_order_is_preserved(
            counts in proptest::collection::vec(1usize..40, 1..6),
        ) {
            let transport = InProcTransport::new();
            let listener = transport.listen(&transport.any_addr()).unwrap();
            let addr = listener.addr();
            let mut reactor = Reactor::new(listener);

            // Each sender thread streams `counts[k]` numbered frames,
            // racing the others for interleaving.
            let senders: Vec<_> = counts
                .iter()
                .enumerate()
                .map(|(k, &count)| {
                    let transport = transport.clone();
                    let addr = addr.clone();
                    std::thread::spawn(move || {
                        let mut conn = transport.dial(&addr).unwrap();
                        for j in 0..count {
                            conn.send(&frame((k as u32) * 1000 + j as u32)).unwrap();
                        }
                        conn
                    })
                })
                .collect();

            let total: usize = counts.iter().sum();
            let mut received: std::collections::HashMap<u64, Vec<u32>> =
                std::collections::HashMap::new();
            let mut events = Vec::new();
            let mut got = 0usize;
            while got < total {
                events.clear();
                reactor.wait(&mut events, &|| false).unwrap();
                for event in events.drain(..) {
                    if let ReactorEvent::Frame(id, Frame::FetchBatchRequest { req_id, .. }) = event {
                        received.entry(id).or_default().push(req_id as u32);
                        got += 1;
                    }
                }
            }
            for conn in senders {
                drop(conn.join().unwrap());
            }

            // One entry per dialler, each strictly in send order.
            proptest::prop_assert_eq!(received.len(), counts.len());
            for seq in received.values() {
                let k = seq[0] / 1000;
                let expected: Vec<u32> = (0..seq.len() as u32).map(|j| k * 1000 + j).collect();
                proptest::prop_assert_eq!(seq, &expected, "per-connection order broken");
            }
        }
    }
}
