//! A readiness-driven reactor: one poll loop over many framed connections.
//!
//! Every node runs a single [`Reactor`]: it multiplexes its listener, if
//! it has one ([`Listener::try_accept`]), and every connection it
//! accepted or dialled ([`crate::transport::FrameStream::try_recv`])
//! through one non-blocking loop, so a node's thread count is O(1).
//!
//! Between rounds every loop honours its core's [`Wake`] through one idle
//! policy (`Poller::pace`). Every source has an fd, and every fd lives in
//! the poller's epoll set: an idle reactor blocks in `epoll_wait`, and a
//! woken one drains only the connections reported ready. A reactor that
//! cannot get an epoll set is not built, and a source the set refuses is
//! closed.
//!
//! Replies leave once per round: [`Reactor::send`] stages a frame and
//! [`Reactor::honour`] writes every connection's, one write each, before
//! it may park. An accepted connection whose write fails is retired and
//! reported as [`ReactorEvent::Closed`] by the next [`Reactor::poll`]; a
//! dialled one is closed by its peer, and its stream reports it. Closing
//! a connection, or dropping the reactor, writes what is staged first.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use grouting_trace::TelemetryCounters;

use crate::error::{WireError, WireResult};
use crate::frame::Frame;
use crate::overlap::{Dials, Input, Replies, Wake};
use crate::transport::{Connection, FrameSink, FrameStream, Listener, Transport};

/// How long into an idle stretch a loop keeps yielding before it parks.
/// Request gaps on a loaded service are microseconds, far under this, so
/// the hot path never pays a park's wake-up latency (~50 µs of timer
/// slack); a genuinely idle loop parks instead of spinning on yields.
const YIELD_FOR: Duration = Duration::from_millis(2);

/// How long a loop parks on its poller before re-checking its own state
/// anyway (a stop flag, the sampler): a safety net, since an epoll wait
/// wakes on any tracked byte.
pub const IDLE_WAIT: Duration = Duration::from_millis(5);

/// The readiness backend a poll loop runs on — there is only one, the
/// epoll poller. Named by the benchmark (`load/`), with the `poller`
/// fields of the service options and
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

use crate::sys::EpollFd;

/// One poll loop's readiness source — an epoll set holding every
/// source's fd — and the idle clock of the one idle policy
/// ([`Poller::pace`]).
pub(crate) struct Poller {
    epoll: EpollFd,
    /// When the current idle stretch began: the first [`Wake::Idle`]
    /// round since the last [`Wake::Now`] one.
    idle_since: Option<Instant>,
}

impl Poller {
    /// A poller on a fresh epoll set.
    ///
    /// # Errors
    ///
    /// The kernel's refusal to create the set (fd or memory exhaustion).
    pub fn new() -> std::io::Result<Self> {
        Ok(Self {
            epoll: EpollFd::new()?,
            idle_since: None,
        })
    }

    /// Starts tracking source `fd` under `token`.
    ///
    /// # Errors
    ///
    /// The kernel's refusal to track it (`EPERM` for an fd epoll cannot
    /// watch, `ENOSPC` past `max_user_watches`).
    pub fn register(&mut self, token: u64, fd: i32) -> std::io::Result<()> {
        self.epoll.add(fd, token)
    }

    /// Stops tracking source `fd`; call it while the fd is still open.
    pub fn deregister(&mut self, fd: i32) {
        self.epoll.del(fd);
    }

    /// The one idle policy, every node's: what a loop does after a round,
    /// by its [`Wake`]. Returns how long the readiness wait may block.
    ///
    /// - [`Wake::Now`]: back to the hot rung; nothing waits.
    /// - [`Wake::IdleUntil`]: the idle clock stays. Work due within
    ///   [`YIELD_FOR`] (a storage response's flight time) yields once, as
    ///   a park would overshoot; later work (a dial's backoff) parks until
    ///   it is due, for at most `park`.
    /// - [`Wake::Idle`]: yield for the first [`YIELD_FOR`] of an idle
    ///   stretch, then park in the epoll wait for up to `park`.
    ///
    /// No spin: a round is a drain of read syscalls, so spinning burns the
    /// core the peer needs (~5× the frontier fetch's latency on one CPU).
    fn pace(&mut self, wake: Wake, park: Duration) -> Duration {
        let (hand_over, block) = match wake {
            Wake::Now => {
                self.idle_since = None;
                (false, Duration::ZERO)
            }
            Wake::IdleUntil(due) => {
                let left = Duration::from_nanos(due.saturating_sub(crate::service::now_ns()));
                let near = left <= YIELD_FOR;
                (near, if near { Duration::ZERO } else { left.min(park) })
            }
            Wake::Idle => {
                let since = *self.idle_since.get_or_insert_with(Instant::now);
                let hot = since.elapsed() < YIELD_FOR;
                (hot, if hot { Duration::ZERO } else { park })
            }
        };
        if hand_over {
            std::thread::yield_now();
        }
        block
    }

    /// Honours `wake` ([`Poller::pace`]), then asks which sources are
    /// ready, blocking as long as the policy allows. Appends ready tokens
    /// to `ready`; returns `true` when the caller must probe every source,
    /// `false` when `ready` is authoritative.
    pub fn wait(&mut self, wake: Wake, park: Duration, ready: &mut Vec<u64>) -> bool {
        let block = self.pace(wake, park);
        // An epoll failure mid-run (should not happen): the next poll
        // drains every source rather than trusting an empty list.
        self.epoll.wait(ready, block).is_err()
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
    /// A dial its core asked for under this tag reached its peer,
    /// now registered under this id, or was refused (`None`).
    Dialled(u64, Option<u64>),
}

impl ReactorEvent {
    /// What a core's round takes from this event: every event but an
    /// accept, which a core hears of with the connection's first frame.
    pub(crate) fn into_input(self) -> Option<Input> {
        match self {
            ReactorEvent::Opened(_) => None,
            ReactorEvent::Frame(conn, frame) => Some(Input::Frame(conn, frame)),
            ReactorEvent::Closed(conn) => Some(Input::Closed(conn)),
            ReactorEvent::Dialled(tag, conn) => Some(Input::Dialled(tag, conn)),
        }
    }
}

struct ReactorConn {
    sink: Box<dyn FrameSink>,
    stream: Box<dyn FrameStream>,
    /// The stream's fd, as registered with the poller.
    fd: i32,
    /// Pool counters (checkouts, reused) already folded into telemetry —
    /// the pool exposes monotonic totals, so samples record deltas.
    pool_seen: (u64, u64),
}

/// Folds a stream's buffer-pool counters into `telemetry` as deltas
/// against `seen` (the totals already reported for this connection).
/// A no-op when telemetry is off or the stream has no pool.
fn sample_pool(
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
    pools: &Option<Arc<TelemetryCounters>>,
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
    sample_pool(pools, conn.stream.as_ref(), &mut conn.pool_seen);
    result
}

/// One node's connection multiplexer, driven from a single thread in
/// rounds: [`Reactor::poll`], its core's step, [`Reactor::honour`]. Frames
/// arrive in per-connection order. A poll after a wait that named the
/// ready sources drains those, plus the *dirty* connections whose drain
/// hit the per-round cap: frames parked in a userspace buffer make no fd
/// readable.
pub struct Reactor {
    listener: Option<Box<dyn Listener>>,
    // BTreeMap so sweeps visit connections in a deterministic order.
    conns: BTreeMap<u64, ReactorConn>,
    poller: Poller,
    /// Connections whose last drain hit the frame cap: complete frames
    /// may still sit in their userspace buffers.
    dirty: BTreeSet<u64>,
    /// What the last wait reported ready, for the next poll.
    ready: Vec<u64>,
    /// Whether the next poll sweeps every connection: readiness is
    /// unknown (no wait since the last poll, or a failed one).
    sweep: bool,
    /// Scratch for a poll's drain targets (reused across rounds).
    targets: Vec<u64>,
    /// Connections holding staged frames: flushed by the next
    /// [`Reactor::honour`].
    staged: BTreeSet<u64>,
    /// Connections a flush failed on, already retired, and sources the
    /// poller refused: the next poll reports each as
    /// [`ReactorEvent::Closed`].
    failed: Vec<u64>,
    /// What [`Dials::dial`] dials with, and what the next poll reports.
    transport: Option<Arc<dyn Transport>>,
    dialled: Vec<(u64, Option<u64>)>,
    next_id: u64,
    /// Shared telemetry sink; `None` (tracing off) keeps the loop free of
    /// clock reads and atomic bumps.
    telemetry: Option<Arc<TelemetryCounters>>,
    /// Where buffer-pool reuse is sampled: the telemetry's, or a
    /// processor's alone (the router and storage count its frames).
    pools: Option<Arc<TelemetryCounters>>,
}

impl Reactor {
    /// A reactor accepting inbound connections from `listener`.
    ///
    /// # Errors
    ///
    /// The kernel refused an epoll set, or refused to track the listener.
    pub fn new(listener: Box<dyn Listener>) -> WireResult<Self> {
        Self::with(Some(listener), None)
    }

    /// A reactor without a listener, holding the connections its node
    /// dials over `transport` (a processor's, and the blocking source's).
    ///
    /// # Errors
    ///
    /// The kernel refused an epoll set.
    pub(crate) fn dialler(transport: Arc<dyn Transport>) -> WireResult<Self> {
        Self::with(None, Some(transport))
    }

    fn with(
        listener: Option<Box<dyn Listener>>,
        transport: Option<Arc<dyn Transport>>,
    ) -> WireResult<Self> {
        let mut poller = Poller::new()?;
        if let Some(listener) = &listener {
            poller.register(LISTENER_TOKEN, listener.raw_fd())?;
        }
        Ok(Self {
            listener,
            conns: BTreeMap::new(),
            poller,
            dirty: BTreeSet::new(),
            ready: Vec::new(),
            sweep: true,
            targets: Vec::new(),
            staged: BTreeSet::new(),
            failed: Vec::new(),
            transport,
            dialled: Vec::new(),
            next_id: 0,
            telemetry: None,
            pools: None,
        })
    }

    /// Routes this reactor's frame, byte, busy/idle, and buffer-pool
    /// telemetry into the shared counters.
    pub fn set_telemetry(&mut self, telemetry: Arc<TelemetryCounters>) {
        self.pools = Some(Arc::clone(&telemetry));
        self.telemetry = Some(telemetry);
    }

    /// Routes only this reactor's buffer-pool samples into the shared
    /// counters: its node's frames are counted by the peers they cross.
    pub(crate) fn sample_pools(&mut self, telemetry: Arc<TelemetryCounters>) {
        self.pools = Some(telemetry);
    }

    /// The address peers dial to reach this reactor's listener (empty for
    /// a listenerless reactor).
    pub fn addr(&self) -> String {
        self.listener.as_ref().map(|l| l.addr()).unwrap_or_default()
    }

    /// Registers an outbound connection (a dial this node made) under a
    /// fresh id, returning it. The connection is polled like any accepted
    /// one; one whose fd the poller refuses is closed at once, and the
    /// next poll reports it as [`ReactorEvent::Closed`].
    pub fn register(&mut self, conn: Connection) -> u64 {
        let id = self.next_id;
        if let Err(e) = self.track(conn) {
            grouting_metrics::log_warn!("epoll refused connection {id} ({e}); closing it");
            self.failed.push(id);
        }
        id
    }

    /// Tracks `conn` under the next id, returning it.
    ///
    /// # Errors
    ///
    /// The poller refused the connection's fd: the id is spent, and the
    /// connection dropped.
    pub(crate) fn track(&mut self, conn: Connection) -> WireResult<u64> {
        let (sink, stream) = conn.split();
        let id = self.next_id;
        self.next_id += 1;
        let fd = stream.raw_fd();
        self.poller.register(id, fd)?;
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
        Ok(id)
    }

    fn retire(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            self.poller.deregister(conn.fd);
        }
        self.dirty.remove(&id);
        self.staged.remove(&id);
    }

    fn flush(&mut self) {
        for id in std::mem::take(&mut self.staged) {
            self.write(id);
        }
    }

    /// Flushes connection `id`. An accepted peer that cannot be written to
    /// is gone: it is retired, for the next poll to report closed. A
    /// dialled peer ends the connection itself, and its stream, which
    /// still delivers what the peer sent, reports the close.
    fn write(&mut self, id: u64) {
        let flushed = self.conns.get_mut(&id).map(|conn| conn.sink.flush());
        if let (Some(Err(_)), Some(_)) = (flushed, &self.listener) {
            self.retire(id);
            self.failed.push(id);
        }
    }

    /// Established connections currently registered.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Sends one frame on connection `id`: stages it behind the frames
    /// already staged there this round. It leaves with them when the round
    /// is [honoured](Reactor::honour); a write that fails then comes back
    /// as [`ReactorEvent::Closed`] from the next [`Reactor::poll`].
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] when the id is unknown (the connection died
    /// and was deregistered), or when the sink refuses the frame.
    pub fn send(&mut self, id: u64, frame: &Frame) -> WireResult<()> {
        let conn = self.conns.get_mut(&id).ok_or(WireError::Closed)?;
        let len = conn.sink.stage(frame)?;
        self.staged.insert(id);
        if let Some(t) = &self.telemetry {
            t.frame_out(len as u64);
        }
        Ok(())
    }

    /// Drops connection `id` after writing what is staged on it (no event
    /// is emitted).
    pub fn close(&mut self, id: u64) {
        if self.staged.remove(&id) {
            if let Some(conn) = self.conns.get_mut(&id) {
                let _ = conn.sink.flush();
            }
        }
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
                    let id = self.register(conn);
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

    /// One round's drain: reports the connections the last flush lost,
    /// drains each connection's ready frames (bounded per connection),
    /// appending events in per-connection order, then accepts waiting
    /// dials. After a [`Reactor::honour`] whose wait named the ready
    /// sources it drains only those and the dirty connections, so an idle
    /// round is O(1); otherwise (a fresh reactor, a second poll without a
    /// wait, a failed wait) it sweeps every connection.
    ///
    /// A connection accepted here is drained from the next poll on, after
    /// every older one: a peer that closed its connection and dialled
    /// again (a restarted processor) is seen to close before its new
    /// connection's first frame, even where a stream saw the old one's
    /// last bytes but not yet its end.
    ///
    /// # Errors
    ///
    /// Only listener failures are fatal; a failing *connection* becomes a
    /// [`ReactorEvent::Closed`] event instead.
    pub fn poll(&mut self, events: &mut Vec<ReactorEvent>) -> WireResult<()> {
        let started = self.telemetry.is_some().then(Instant::now);
        events.extend(self.failed.drain(..).map(ReactorEvent::Closed));
        let dialled = self.dialled.drain(..);
        events.extend(dialled.map(|(tag, conn)| ReactorEvent::Dialled(tag, conn)));
        let sweep = std::mem::replace(&mut self.sweep, true);
        let accept = sweep || self.ready.contains(&LISTENER_TOKEN);
        let mut targets = std::mem::take(&mut self.targets);
        targets.clear();
        if sweep {
            targets.extend(self.conns.keys());
        } else {
            targets.extend(&self.dirty);
            targets.extend(self.ready.iter().filter(|&&t| t != LISTENER_TOKEN));
            targets.sort_unstable();
            targets.dedup();
        }
        self.ready.clear();
        for &id in &targets {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            match drain_conn(id, conn, events, &self.telemetry, &self.pools) {
                Drain::Done => {
                    self.dirty.remove(&id);
                }
                Drain::Capped => {
                    self.dirty.insert(id);
                }
                Drain::Dead => self.retire(id),
            }
        }
        self.targets = targets;
        // Fresh connections are dirty: the next poll drains them.
        let accepted = if accept {
            self.accept_new(events)
        } else {
            Ok(())
        };
        if let (Some(t), Some(started)) = (&self.telemetry, started) {
            t.add_busy_ns(started.elapsed().as_nanos() as u64);
        }
        accepted
    }

    /// The end of a round: writes every connection's staged frames, one
    /// write each, then the reactor's one wait — honours the round's
    /// [`Wake`] through the one idle policy, parking up to [`IDLE_WAIT`] —
    /// and notes what the next [`Reactor::poll`] drains: the sources the
    /// wait reported ready, or every source when it could not tell.
    pub fn honour(&mut self, wake: Wake) {
        // Flush before parking: a node must not idle on replies it has not
        // written.
        self.flush();
        // Complete frames parked in userspace make no fd readable, and a
        // failed flush or a dial's outcome is news for the next poll: a
        // reactor holding any of them does not idle.
        let news = !(self.failed.is_empty() && self.dialled.is_empty());
        let wake = if self.dirty.is_empty() && !news {
            wake
        } else {
            Wake::Now
        };
        let parked = self.telemetry.is_some().then(Instant::now);
        self.ready.clear();
        self.sweep = self.poller.wait(wake, IDLE_WAIT, &mut self.ready);
        if let (Some(t), Some(parked)) = (&self.telemetry, parked) {
            t.add_idle_ns(parked.elapsed().as_nanos() as u64);
        }
    }
}

/// Frames staged after the last round still leave.
impl Drop for Reactor {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Replies for Reactor {
    fn send(&mut self, conn: u64, frame: &Frame) -> WireResult<()> {
        Reactor::send(self, conn, frame)
    }

    fn close(&mut self, conn: u64) {
        Reactor::close(self, conn);
    }
}

impl Dials for Reactor {
    /// Dials once and tracks what answers; a dial the poller cannot track
    /// counts as refused, as does any dial of a listening reactor.
    fn dial(&mut self, tag: u64, addr: &str) {
        let dialled = self.transport.as_ref().and_then(|t| t.dial_once(addr).ok());
        let conn = dialled.and_then(|conn| match self.track(conn) {
            Ok(id) => Some(id),
            Err(e) => {
                grouting_metrics::log_warn!("epoll refused the dial to {addr} ({e})");
                None
            }
        });
        self.dialled.push((tag, conn));
    }

    fn flush(&mut self, conn: u64) {
        if self.staged.remove(&conn) {
            self.write(conn);
        }
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

    /// Rounds of [`Reactor::poll`] and [`Reactor::honour`] until one
    /// yields events or `stop` holds: a shell's drive path, with the test
    /// handling the events in place of a core.
    fn next_events(
        reactor: &mut Reactor,
        events: &mut Vec<ReactorEvent>,
        stop: &dyn Fn() -> bool,
    ) -> WireResult<()> {
        loop {
            reactor.poll(events)?;
            let wake = if events.is_empty() {
                Wake::Idle
            } else {
                Wake::Now
            };
            reactor.honour(wake);
            if !events.is_empty() || stop() {
                return Ok(());
            }
        }
    }

    fn echo_reactor_over(transport: Arc<dyn Transport>) {
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = std::thread::spawn(move || {
            let mut reactor = Reactor::new(listener).unwrap();
            let mut events = Vec::new();
            let mut served = 0;
            loop {
                next_events(&mut reactor, &mut events, &|| false).unwrap();
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
                        _ => {}
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
        // In-process sources are Unix sockets: the epoll set tracks them
        // as it does TCP's.
        echo_reactor_over(Arc::new(InProcTransport::new()));
    }

    #[test]
    fn tcp_reactor_echoes() {
        echo_reactor_over(Arc::new(TcpTransport::new()));
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
            let mut reactor = Reactor::new(listener).unwrap();
            reactor.set_telemetry(counters);
            let (mut events, mut echoed) = (Vec::new(), 0);
            while echoed < count {
                next_events(&mut reactor, &mut events, &|| false).unwrap();
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
    #[test]
    fn thousand_connections_echo_epoll() {
        const CONNS: usize = 1000;
        let transport = TcpTransport::new();
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = std::thread::spawn(move || {
            let mut reactor = Reactor::new(listener).unwrap();
            let mut events = Vec::new();
            let mut echoed = 0usize;
            let mut closed = 0usize;
            while closed < CONNS {
                next_events(&mut reactor, &mut events, &|| false).unwrap();
                for event in events.drain(..) {
                    match event {
                        ReactorEvent::Frame(id, f) => {
                            reactor.send(id, &f).unwrap();
                            echoed += 1;
                        }
                        ReactorEvent::Closed(_) => closed += 1,
                        _ => {}
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
    fn an_empty_epoll_set_parks_for_the_whole_timeout() {
        let mut poller = Poller::new().unwrap();
        let mut ready = Vec::new();
        // The first idle round starts the idle clock. Past the yield
        // window, an empty epoll set parks for the whole timeout and names
        // no token.
        poller.wait(Wake::Idle, Duration::ZERO, &mut ready);
        std::thread::sleep(YIELD_FOR);
        let parked = Instant::now();
        assert!(!poller.wait(Wake::Idle, Duration::from_millis(50), &mut ready));
        assert!(
            parked.elapsed() >= Duration::from_millis(40),
            "it must park"
        );
        assert!(ready.is_empty());
    }

    #[test]
    fn an_inproc_frame_wakes_the_epoll_set() {
        let transport = InProcTransport::new();
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let mut client = transport.dial(&listener.addr()).unwrap();
        let (_sink, server) = listener.accept().unwrap().split();
        let mut poller = Poller::new().unwrap();
        poller.register(7, server.raw_fd()).unwrap();
        let mut ready = Vec::new();
        client.send(&frame(1)).unwrap();
        assert!(
            !poller.wait(Wake::Now, IDLE_WAIT, &mut ready),
            "an in-proc source is tracked, so the wait names what is ready"
        );
        assert_eq!(ready, vec![7]);
    }

    #[test]
    fn a_fired_kill_reaches_the_reactor_through_epoll_and_the_peer_as_a_close() {
        use crate::fault::{FaultKind, FaultPlan, FaultRule, FaultyTransport};
        let inner: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let mut listener = inner.listen(&inner.any_addr()).unwrap();
        let plan = FaultPlan::new().with(FaultRule::new(FaultKind::KillAfterFrames(0)));
        let faulty = FaultyTransport::wrap(inner, plan);
        let mut reactor = Reactor::dialler(Arc::clone(&faulty)).unwrap();
        let id = reactor.register(faulty.dial(&listener.addr()).unwrap());
        let mut peer = listener.accept().unwrap();
        let mut events = Vec::new();
        reactor.poll(&mut events).unwrap();
        reactor.honour(Wake::Now);
        assert!(events.is_empty(), "{events:?}");
        assert!(matches!(
            reactor.send(id, &frame(1)),
            Err(WireError::Closed)
        ));
        reactor.honour(Wake::Now);
        assert!(!reactor.sweep, "the next poll is epoll-driven");
        assert_eq!(reactor.ready, vec![id], "the kill made the fd readable");
        reactor.poll(&mut events).unwrap();
        assert!(
            matches!(events[..], [ReactorEvent::Closed(closed)] if closed == id),
            "{events:?}"
        );
        assert!(matches!(peer.recv(), Err(WireError::Closed)));
    }

    #[test]
    fn reactor_reports_closed_connections() {
        let transport = InProcTransport::new();
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let mut reactor = Reactor::new(listener).unwrap();
        let conn = transport.dial(&addr).unwrap();
        let mut events = Vec::new();
        next_events(&mut reactor, &mut events, &|| false).unwrap();
        assert!(matches!(events[0], ReactorEvent::Opened(_)));
        assert_eq!(reactor.connections(), 1);
        drop(conn);
        events.clear();
        next_events(&mut reactor, &mut events, &|| false).unwrap();
        assert!(matches!(events[0], ReactorEvent::Closed(0)));
        assert_eq!(reactor.connections(), 0);
        // Sending to the retired id reports Closed rather than panicking.
        assert!(matches!(
            reactor.send(0, &Frame::Shutdown),
            Err(WireError::Closed)
        ));
    }

    /// A peer that sends a frame, closes and dials again at once (a
    /// restarted processor) is seen to close before its new connection's
    /// first frame: a poll drains every older connection before it
    /// accepts.
    fn a_close_comes_before_the_redials_first_frame(transport: Arc<dyn Transport>) {
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let mut reactor = Reactor::new(listener).unwrap();
        let mut events = Vec::new();
        // The old connection is accepted and drained, as a long-lived one is.
        let mut old = transport.dial(&addr).unwrap();
        old.send(&frame(0)).unwrap();
        let old_id = loop {
            next_events(&mut reactor, &mut events, &|| false).unwrap();
            let framed = events.drain(..).find_map(|e| match e {
                ReactorEvent::Frame(id, _) => Some(id),
                _ => None,
            });
            if let Some(id) = framed {
                break id;
            }
        };
        old.send(&frame(1)).unwrap();
        drop(old);
        let mut new = transport.dial(&addr).unwrap();
        new.send(&frame(2)).unwrap();
        // Each event as (from the old connection, its frame or `None` for
        // the close), accepts left out.
        let mut seen: Vec<(bool, Option<Frame>)> = Vec::new();
        while !seen.iter().any(|&(from_old, _)| !from_old) {
            next_events(&mut reactor, &mut events, &|| false).unwrap();
            seen.extend(events.drain(..).filter_map(|e| match e {
                ReactorEvent::Frame(id, f) => Some((id == old_id, Some(f))),
                ReactorEvent::Closed(id) => Some((id == old_id, None)),
                _ => None,
            }));
        }
        let want = vec![
            (true, Some(frame(1))),
            (true, None),
            (false, Some(frame(2))),
        ];
        assert_eq!(seen, want);
    }

    #[test]
    fn a_close_comes_before_the_redials_first_frame_inproc() {
        a_close_comes_before_the_redials_first_frame(Arc::new(InProcTransport::new()));
    }

    #[test]
    fn a_close_comes_before_the_redials_first_frame_tcp() {
        a_close_comes_before_the_redials_first_frame(Arc::new(TcpTransport::new()));
    }

    /// A stream over a regular file, which epoll refuses to watch
    /// (`EPERM`).
    struct OnDisk(std::fs::File);

    impl FrameStream for OnDisk {
        fn recv(&mut self) -> WireResult<Frame> {
            Err(WireError::Closed)
        }

        fn try_recv(&mut self) -> WireResult<Option<(Frame, usize)>> {
            Ok(None)
        }

        fn raw_fd(&self) -> i32 {
            use std::os::fd::AsRawFd;
            self.0.as_raw_fd()
        }
    }

    #[test]
    fn a_source_epoll_refuses_is_closed_and_the_others_keep_echoing() {
        let transport = InProcTransport::new();
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let mut client = transport.dial(&listener.addr()).unwrap();
        let mut reactor = Reactor::new(listener).unwrap();
        let sink = Recording {
            log: Arc::default(),
            staged: Vec::new(),
            fail: false,
        };
        let file = std::fs::File::open(std::env::current_exe().unwrap()).unwrap();
        let conn = Connection::from_halves(Box::new(sink), Box::new(OnDisk(file)));
        let refused = reactor.register(conn);
        let mut events = Vec::new();
        reactor.poll(&mut events).unwrap();
        assert!(
            matches!(events[0], ReactorEvent::Closed(id) if id == refused),
            "{events:?}"
        );
        assert!(matches!(
            reactor.send(refused, &frame(0)),
            Err(WireError::Closed)
        ));
        for i in 1..4 {
            client.send(&frame(i)).unwrap();
            let got = loop {
                events.clear();
                next_events(&mut reactor, &mut events, &|| false).unwrap();
                let framed = events.drain(..).find_map(|e| match e {
                    ReactorEvent::Frame(id, f) => Some((id, f)),
                    _ => None,
                });
                if let Some(got) = framed {
                    break got;
                }
            };
            reactor.send(got.0, &got.1).unwrap();
            reactor.honour(Wake::Now);
            assert_eq!(client.recv().unwrap(), frame(i));
        }
        assert_eq!(reactor.connections(), 1, "only the client is held");
    }

    #[test]
    fn wait_respects_stop() {
        let transport = InProcTransport::new();
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let mut reactor = Reactor::new(listener).unwrap();
        let mut events = Vec::new();
        // No peers at all: without the stop check this would spin forever.
        next_events(&mut reactor, &mut events, &|| true).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn flooding_connection_cannot_starve_the_sweep() {
        let transport = InProcTransport::new();
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let mut reactor = Reactor::new(listener).unwrap();
        let (mut flood, _flood_stream) = transport.dial(&addr).unwrap().split();
        let mut quiet = transport.dial(&addr).unwrap();
        // One write: nothing reads yet, and a socket buffer holds only a
        // few hundred small writes.
        for i in 0..200 {
            flood.stage(&frame(i)).unwrap();
        }
        flood.flush().unwrap();
        quiet.send(&frame(9999)).unwrap();
        // One sweep caps the flooder's drain, so the quiet peer's frame is
        // seen within the first sweep rather than after 200 frames. (The
        // poll before it accepts the two connections.)
        let mut events = Vec::new();
        reactor.poll(&mut events).unwrap();
        events.clear();
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

    /// What a [`Recording`] sink was asked to do.
    #[derive(Default)]
    struct SinkLog {
        stages: usize,
        /// When each flush ran, and the frames it wrote.
        flushes: Vec<(Instant, Vec<Frame>)>,
    }

    /// A sink that writes nothing anywhere: it logs each stage and flush,
    /// and fails every flush when told to.
    struct Recording {
        log: Arc<std::sync::Mutex<SinkLog>>,
        staged: Vec<Frame>,
        fail: bool,
    }

    impl Recording {
        /// The log, also after a failed assertion poisoned it: the reactor
        /// flushes while a failing test unwinds.
        fn log(&self) -> std::sync::MutexGuard<'_, SinkLog> {
            self.log
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }
    }

    impl FrameSink for Recording {
        fn stage(&mut self, frame: &Frame) -> WireResult<usize> {
            self.log().stages += 1;
            self.staged.push(frame.clone());
            Ok(frame.encoded_len())
        }

        fn flush(&mut self) -> WireResult<()> {
            let frames = std::mem::take(&mut self.staged);
            self.log().flushes.push((Instant::now(), frames));
            if self.fail {
                return Err(WireError::Closed);
            }
            Ok(())
        }
    }

    /// A stream on which nothing ever arrives: it holds both ends of a
    /// socket pair, so its fd never turns readable.
    struct Silent {
        socket: std::os::unix::net::UnixStream,
        _peer: std::os::unix::net::UnixStream,
    }

    impl FrameStream for Silent {
        fn recv(&mut self) -> WireResult<Frame> {
            Err(WireError::Closed)
        }

        fn try_recv(&mut self) -> WireResult<Option<(Frame, usize)>> {
            Ok(None)
        }

        fn raw_fd(&self) -> i32 {
            use std::os::fd::AsRawFd;
            self.socket.as_raw_fd()
        }
    }

    /// A listening reactor, and a recording connection registered on it.
    fn recorded(fail: bool) -> (Reactor, u64, Arc<std::sync::Mutex<SinkLog>>) {
        let transport = InProcTransport::new();
        let mut reactor = Reactor::new(transport.listen(&transport.any_addr()).unwrap()).unwrap();
        let log = Arc::default();
        let sink = Recording {
            log: Arc::clone(&log),
            staged: Vec::new(),
            fail,
        };
        let (socket, _peer) = std::os::unix::net::UnixStream::pair().unwrap();
        let silent = Silent { socket, _peer };
        let id = reactor.register(Connection::from_halves(Box::new(sink), Box::new(silent)));
        (reactor, id, log)
    }

    #[test]
    fn a_rounds_sends_leave_in_one_flush_when_it_is_honoured() {
        let (mut reactor, id, log) = recorded(false);
        for i in 0..3 {
            reactor.send(id, &frame(i)).unwrap();
        }
        assert_eq!(log.lock().unwrap().stages, 3);
        assert!(log.lock().unwrap().flushes.is_empty(), "send only stages");
        reactor.honour(Wake::Now);
        let log = log.lock().unwrap();
        assert_eq!(log.stages, 3);
        assert_eq!(log.flushes.len(), 1);
        assert_eq!(log.flushes[0].1, vec![frame(0), frame(1), frame(2)]);
    }

    #[test]
    fn an_idle_honour_flushes_before_it_parks() {
        let (mut reactor, id, log) = recorded(false);
        // Past the yield window, an idle round parks: an epoll wait of
        // IDLE_WAIT on the silent source, which nothing wakes. (A fresh
        // connection is drained once before its reactor may idle.)
        reactor.poll(&mut Vec::new()).unwrap();
        reactor.honour(Wake::Idle);
        std::thread::sleep(YIELD_FOR);
        reactor.send(id, &frame(1)).unwrap();
        reactor.honour(Wake::Idle);
        let returned = Instant::now();
        let log = log.lock().unwrap();
        assert_eq!(log.flushes.len(), 1);
        assert!(
            returned - log.flushes[0].0 >= IDLE_WAIT / 2,
            "the flush must come before the park"
        );
    }

    #[test]
    fn a_failed_flush_is_a_closed_connection_on_the_next_poll() {
        let (mut reactor, id, log) = recorded(true);
        let mut events = Vec::new();
        reactor.poll(&mut events).unwrap();
        reactor.send(id, &frame(1)).unwrap();
        reactor.honour(Wake::Idle);
        assert_eq!(log.lock().unwrap().flushes.len(), 1);
        assert_eq!(reactor.connections(), 0, "the connection is retired");
        reactor.poll(&mut events).unwrap();
        assert!(
            matches!(events[..], [ReactorEvent::Closed(closed)] if closed == id),
            "{events:?}"
        );
        assert!(matches!(
            reactor.send(id, &frame(2)),
            Err(WireError::Closed)
        ));
    }

    #[test]
    fn closing_or_dropping_the_reactor_writes_what_is_staged() {
        let (mut reactor, id, log) = recorded(false);
        reactor.send(id, &frame(1)).unwrap();
        reactor.close(id);
        assert_eq!(log.lock().unwrap().flushes[0].1, vec![frame(1)]);
        let (mut reactor, id, log) = recorded(false);
        reactor.send(id, &frame(2)).unwrap();
        reactor.send(id, &Frame::Shutdown).unwrap();
        drop(reactor);
        let log = log.lock().unwrap();
        assert_eq!(log.flushes.len(), 1);
        assert_eq!(log.flushes[0].1, vec![frame(2), Frame::Shutdown]);
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
            let mut reactor = Reactor::new(listener).unwrap();

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
                next_events(&mut reactor, &mut events, &|| false).unwrap();
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
