//! A readiness-driven reactor: one poll loop over many framed connections.
//!
//! PR 3 made the *fetch* path non-blocking ([`crate::flow::BatchMux`]);
//! the control path — dispatch, completion, metrics — still burned one
//! parked thread per connection: the router ran an acceptor thread plus a
//! reader thread per peer, and every storage endpoint spawned a thread per
//! inbound connection. This module replaces all of that with a single
//! [`Reactor`] per node: it multiplexes the listener
//! ([`Listener::try_accept`]) and every established connection
//! ([`crate::transport::FrameStream::try_recv`]) through one non-blocking
//! sweep, shrinking a node's thread count from O(connections) to O(1) and
//! cutting wake-up latency on the dispatch path from a channel-handoff
//! plus scheduler round trip to a poll-loop iteration.
//!
//! The [`Backoff`] ladder keeps an idle loop cheap *without* adding
//! latency to a busy one: yield between empty sweeps (each sweep is a
//! round of syscalls, so "spinning" would burn the core the peer needs —
//! see [`Backoff`]), and only once the loop has been idle for a couple of
//! milliseconds, sleep in short slices. The sleep threshold matters:
//! `thread::sleep` pays the kernel's timer slack (~50 µs) per call, so
//! sleeping between back-to-back requests would tax every exchange — a
//! service under load never descends past the yield rung.
//!
//! This PR puts an OS-event backend behind that loop. The [`Poller`]
//! trait abstracts "which connections might have bytes": the portable
//! [`SweepPoller`] answers "all of them" and paces idle rounds with the
//! [`Backoff`] ladder exactly as before, while the Linux `EpollPoller`
//! (the Linux default; [`PollerKind`] picks the backend) tracks
//! every fd in one epoll set, so an idle reactor *blocks* in
//! `epoll_wait` — zero syscalls per idle connection — and a busy one
//! drains only the connections the kernel reports ready, O(ready) per
//! wake instead of O(connections) per sweep. Sources without an fd (the
//! in-process transport) degrade the epoll backend to sweep semantics
//! automatically, so backend choice never affects correctness.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grouting_metrics::log_warn;
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
/// sleeping. Request gaps on a loaded service are microseconds, far under
/// this, so the hot path never pays `thread::sleep`'s timer-slack latency
/// (~50 µs per call); a genuinely idle loop converges to ~10 k cheap
/// sweeps per second instead of a 100 % yield-spin.
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
        let since = *self.idle_since.get_or_insert_with(Instant::now);
        if since.elapsed() < YIELD_FOR {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Which readiness backend a poll loop runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollerKind {
    /// The portable non-blocking sweep: probe every source each round,
    /// pace idle rounds with the [`Backoff`] ladder.
    Sweep,
    /// Linux `epoll`: block in the kernel until a tracked fd is ready.
    /// On other platforms (or when a source has no fd) this falls back
    /// to sweep behaviour.
    Epoll,
}

impl PollerKind {
    /// The platform default: `epoll` where it exists, `sweep` elsewhere.
    pub fn default_for_host() -> Self {
        if cfg!(target_os = "linux") {
            Self::Epoll
        } else {
            Self::Sweep
        }
    }

    /// Parses a `GROUTING_REACTOR` spelling (`sweep` | `epoll`); `None`
    /// when unknown. `epoll` off Linux warns and sweeps.
    pub fn parse(raw: &str) -> Option<Self> {
        match raw {
            "sweep" => Some(Self::Sweep),
            "epoll" if cfg!(target_os = "linux") => Some(Self::Epoll),
            "epoll" => {
                log_warn!(
                    "GROUTING_REACTOR=epoll is Linux-only; \
                     using the portable sweep backend"
                );
                Some(Self::Sweep)
            }
            _ => None,
        }
    }

    /// Instantiates the backend (falling back to sweep when epoll is
    /// unavailable).
    pub fn build(self) -> Box<dyn Poller> {
        match self {
            Self::Sweep => Box::new(SweepPoller::new()),
            Self::Epoll => {
                #[cfg(target_os = "linux")]
                match EpollPoller::new() {
                    Ok(poller) => return Box::new(poller),
                    Err(e) => log_warn!("epoll unavailable ({e}); using sweep"),
                }
                Box::new(SweepPoller::new())
            }
        }
    }
}

impl std::fmt::Display for PollerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Sweep => "sweep",
            Self::Epoll => "epoll",
        })
    }
}

/// A readiness backend for one poll loop.
///
/// The contract is deliberately loose enough to cover both a kernel event
/// queue and the portable probe-everything sweep: [`Poller::wait`] may
/// either name the ready tokens (return `false`) or declare readiness
/// unknown (return `true`), in which case the owner must probe every
/// source. Sources are registered with an optional raw fd; a source
/// without one (in-process channels) can never be kernel-tracked, and a
/// correct backend must stop blocking while any such source is
/// registered — its bytes arrive without any fd becoming readable.
pub trait Poller: Send {
    /// Which backend this is (diagnostics).
    fn kind(&self) -> PollerKind;

    /// Starts tracking a source. Returns whether the backend can report
    /// readiness for it; on `false` the owner must keep probing the
    /// source every round.
    fn register(&mut self, token: u64, fd: Option<i32>) -> bool;

    /// Stops tracking a source (pass the same fd as at registration).
    fn deregister(&mut self, token: u64, fd: Option<i32>);

    /// Progress happened outside this poller (frames were drained); any
    /// idle pacing restarts from its hot rung.
    fn reset(&mut self);

    /// One idle-path wait: blocks up to `timeout` (backend permitting),
    /// appending ready tokens to `ready`. Returns `true` when the caller
    /// must probe every source (readiness unknown), `false` when `ready`
    /// is authoritative for kernel-tracked sources.
    fn wait(&mut self, ready: &mut Vec<u64>, timeout: Duration) -> bool;
}

/// The portable backend: readiness is never known, so every wait asks
/// the owner to sweep, paced by the [`Backoff`] yield→sleep ladder.
pub struct SweepPoller {
    backoff: Backoff,
}

impl SweepPoller {
    /// A fresh sweep backend.
    pub fn new() -> Self {
        Self {
            backoff: Backoff::new(),
        }
    }
}

impl Default for SweepPoller {
    fn default() -> Self {
        Self::new()
    }
}

impl Poller for SweepPoller {
    fn kind(&self) -> PollerKind {
        PollerKind::Sweep
    }

    fn register(&mut self, _token: u64, _fd: Option<i32>) -> bool {
        false
    }

    fn deregister(&mut self, _token: u64, _fd: Option<i32>) {}

    fn reset(&mut self) {
        self.backoff.reset();
    }

    fn wait(&mut self, _ready: &mut Vec<u64>, _timeout: Duration) -> bool {
        self.backoff.idle();
        true
    }
}

/// The Linux backend: every fd-bearing source lives in one epoll set.
///
/// Idle pacing is a hybrid: for the first 2 ms (`YIELD_FOR`) of an idle
/// stretch it yields with a non-blocking `epoll_wait` (the hot path keeps
/// sweep-grade latency on a loaded single-core host), then it blocks in
/// `epoll_wait` with the caller's timeout — the flat-idle-cost state
/// where a thousand quiet connections cost zero syscalls per round.
/// While any registered source has no fd, blocking would deafen the loop
/// to that source, so the poller degrades to laddered sweep behaviour.
#[cfg(target_os = "linux")]
pub struct EpollPoller {
    ep: crate::sys::EpollFd,
    /// Tokens registered without a trackable fd — while non-empty the
    /// poller must not block and the owner sweeps those sources.
    untracked: std::collections::HashSet<u64>,
    backoff: Backoff,
    idle_since: Option<Instant>,
}

#[cfg(target_os = "linux")]
impl EpollPoller {
    /// A fresh epoll backend.
    ///
    /// # Errors
    ///
    /// The OS error when the epoll instance cannot be created (fd
    /// exhaustion).
    pub fn new() -> std::io::Result<Self> {
        Ok(Self {
            ep: crate::sys::EpollFd::new()?,
            untracked: std::collections::HashSet::new(),
            backoff: Backoff::new(),
            idle_since: None,
        })
    }
}

#[cfg(target_os = "linux")]
impl Poller for EpollPoller {
    fn kind(&self) -> PollerKind {
        PollerKind::Epoll
    }

    fn register(&mut self, token: u64, fd: Option<i32>) -> bool {
        match fd {
            Some(fd) if self.ep.add(fd, token).is_ok() => true,
            _ => {
                self.untracked.insert(token);
                false
            }
        }
    }

    fn deregister(&mut self, token: u64, fd: Option<i32>) {
        if self.untracked.remove(&token) {
            return;
        }
        if let Some(fd) = fd {
            self.ep.del(fd);
        }
    }

    fn reset(&mut self) {
        self.backoff.reset();
        self.idle_since = None;
    }

    fn wait(&mut self, ready: &mut Vec<u64>, timeout: Duration) -> bool {
        if !self.untracked.is_empty() {
            // Fd-less sources in the set: blocking would miss their
            // bytes. Behave exactly like the sweep backend.
            self.backoff.idle();
            return true;
        }
        let since = *self.idle_since.get_or_insert_with(Instant::now);
        let wait_for = if since.elapsed() < YIELD_FOR {
            // Hot rung: hand the core to the peer (it may be about to
            // produce our bytes) and harvest readiness without blocking.
            std::thread::yield_now();
            Duration::ZERO
        } else {
            timeout
        };
        // An epoll failure mid-run (should not happen): fall back to
        // sweeping rather than spinning on the error.
        self.ep.wait(ready, wait_for).is_err()
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
                Ok(Some(frame)) => {
                    if let Some(t) = telemetry {
                        t.frame_in(frame.encoded_len() as u64);
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
/// The readiness backend is chosen per [`PollerKind`]:
/// [`Reactor::poll`] is always the portable full sweep, while
/// [`Reactor::wait`] lets an epoll backend block when idle and drain only
/// ready connections when woken. Connections whose frame drain hit the
/// per-sweep cap are remembered as *dirty* and re-drained on the next
/// round regardless of kernel readiness — complete frames parked in a
/// userspace buffer make no fd readable.
pub struct Reactor {
    listener: Option<Box<dyn Listener>>,
    /// Whether the poller can report listener readiness; if not, every
    /// ready-round must also probe the listener.
    listener_tracked: bool,
    // BTreeMap so sweeps visit connections in a deterministic order.
    conns: BTreeMap<u64, ReactorConn>,
    poller: Box<dyn Poller>,
    /// Connections the poller cannot track (no fd): probed every round.
    untracked: BTreeSet<u64>,
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
    /// A reactor accepting inbound connections from `listener`, on the
    /// platform's default backend.
    pub fn new(listener: Box<dyn Listener>) -> Self {
        Self::with_poller(listener, PollerKind::default_for_host())
    }

    /// A reactor on an explicitly chosen readiness backend.
    pub fn with_poller(listener: Box<dyn Listener>, kind: PollerKind) -> Self {
        let mut poller = kind.build();
        let listener_tracked = poller.register(LISTENER_TOKEN, listener.raw_fd());
        Self {
            listener: Some(listener),
            listener_tracked,
            conns: BTreeMap::new(),
            poller,
            untracked: BTreeSet::new(),
            dirty: BTreeSet::new(),
            ready: Vec::new(),
            next_id: 0,
            telemetry: None,
        }
    }

    /// The backend this reactor polls with.
    pub fn poller_kind(&self) -> PollerKind {
        self.poller.kind()
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
        if !self.poller.register(id, fd) {
            self.untracked.insert(id);
        }
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
        self.untracked.remove(&id);
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
                if let Some(t) = &self.telemetry {
                    t.frame_out(frame.encoded_len() as u64);
                }
                conn.sink.send(frame)
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

    /// One ready-round: accept when the listener is (or may be) ready,
    /// then drain only the connections the poller reported ready, plus
    /// the always-probed sets (untracked sources and dirty connections
    /// holding capped userspace frames).
    fn poll_ready(&mut self, events: &mut Vec<ReactorEvent>, ready: &[u64]) -> WireResult<()> {
        let started = self.telemetry.is_some().then(Instant::now);
        if !self.listener_tracked || ready.contains(&LISTENER_TOKEN) {
            self.accept_new(events)?;
        }
        let mut targets: BTreeSet<u64> = self
            .untracked
            .iter()
            .chain(self.dirty.iter())
            .copied()
            .collect();
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
    /// true). On the sweep backend this pays the [`Backoff`] ladder
    /// between full sweeps exactly as before; on epoll an idle reactor
    /// blocks in `epoll_wait` (re-checking `stop` every
    /// 25 ms, `DEFAULT_IDLE_WAIT`) and a woken one drains only ready
    /// connections.
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

    /// One idle-path wait *without* draining: parks (backend permitting)
    /// until any source may be ready or `timeout` elapses; the caller's
    /// next [`Reactor::poll`] picks up whatever arrived. Loops that must
    /// interleave polling with their own work (the storage service's
    /// delayed-response queue) use this instead of [`Reactor::wait`].
    pub fn idle_wait(&mut self, timeout: Duration) {
        if !self.dirty.is_empty() {
            // Complete frames are parked in userspace; blocking would
            // stall them.
            return;
        }
        let mut ready = std::mem::take(&mut self.ready);
        ready.clear();
        let parked = self.telemetry.is_some().then(Instant::now);
        let _ = self.poller.wait(&mut ready, timeout);
        if let (Some(t), Some(parked)) = (&self.telemetry, parked) {
            t.add_idle_ns(parked.elapsed().as_nanos() as u64);
        }
        self.ready = ready;
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

    fn echo_reactor_over(transport: Arc<dyn Transport>, kind: PollerKind) {
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = std::thread::spawn(move || {
            let mut reactor = Reactor::with_poller(listener, kind);
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
        // In-process sources are fd-less: the epoll backend must degrade
        // to sweep semantics for them rather than deafen itself.
        echo_reactor_over(Arc::new(InProcTransport::new()), PollerKind::Sweep);
        echo_reactor_over(Arc::new(InProcTransport::new()), PollerKind::Epoll);
    }

    #[test]
    fn tcp_reactor_echoes() {
        echo_reactor_over(Arc::new(TcpTransport::new()), PollerKind::Sweep);
        echo_reactor_over(Arc::new(TcpTransport::new()), PollerKind::Epoll);
    }

    /// 1k concurrent TCP connections through one reactor: every dial is
    /// accepted, every frame echoed, every close observed.
    fn thousand_connections_echo(kind: PollerKind) {
        const CONNS: usize = 1000;
        let transport = TcpTransport::new();
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = std::thread::spawn(move || {
            let mut reactor = Reactor::with_poller(listener, kind);
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
        thousand_connections_echo(PollerKind::Sweep);
    }

    #[test]
    fn thousand_connections_echo_epoll() {
        thousand_connections_echo(PollerKind::Epoll);
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
