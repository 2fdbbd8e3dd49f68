//! Pluggable byte transports carrying [`Frame`]s between cluster peers.
//!
//! A [`Transport`] hands out [`Listener`]s and dials [`Connection`]s; the
//! services in [`crate::service`] are written against these traits only,
//! so the same router/processor/storage loops run over:
//!
//! * [`TcpTransport`] — real loopback/LAN sockets via `std::net`, each
//!   connection a length-prefixed framed stream (`u32` little-endian
//!   payload length, then the [`Frame`] payload), with bounded-backoff
//!   dialling so peers may start in any order;
//! * [`InProcTransport`] — a hermetic in-process fabric over channels for
//!   tests and sandboxes without loopback. It still moves *encoded* bytes
//!   (not `Frame` values), so the codec is exercised on both paths.
//!
//! A frame costs the TCP data plane one `write` going out and one copy
//! coming in. Send: the sink encodes `[len][payload]` into a buffer it
//! keeps between frames ([`Frame::encode_into`]) and hands the kernel the
//! whole frame at once — one syscall and as few segments as the frame
//! needs, whatever its size. Receive: the socket is read straight into the
//! spare room of a pooled buffer ([`bytes::BufferPool`],
//! [`bytes::BytesMut::read_from`]), sized from the peeked length prefix so
//! a batch response completes in as few reads as the socket allows, and
//! frame payloads are decoded as `Arc`-backed slice views of that buffer
//! (no per-payload copy).

use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::{Buf, BufferPool, Bytes, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use grouting_metrics::log_warn;

use crate::error::{WireError, WireResult};
use crate::frame::{Frame, MAX_FRAME_BYTES};

/// The sending half of a framed connection.
pub trait FrameSink: Send {
    /// Writes one frame.
    fn send(&mut self, frame: &Frame) -> WireResult<()>;

    /// Writes only the first `keep` bytes of the frame's encoding and
    /// stops — the fault-injection layer's mid-frame truncation primitive.
    /// The peer is left holding a partial frame: on TCP its stream stalls
    /// until the connection closes, in-process the short payload decodes
    /// as a codec error. Sinks that cannot express a partial write (the
    /// default) send nothing at all, which a reader observes the same way
    /// once the connection drops.
    ///
    /// # Errors
    ///
    /// Propagates transport failures from the partial write.
    fn send_truncated(&mut self, frame: &Frame, keep: usize) -> WireResult<()> {
        let _ = (frame, keep);
        Ok(())
    }
}

/// The receiving half of a framed connection.
pub trait FrameStream: Send {
    /// Blocks for the next frame.
    fn recv(&mut self) -> WireResult<Frame>;

    /// Polls for a frame without blocking: `Ok(Some)` when a complete
    /// frame was ready, `Ok(None)` when the peer has sent nothing (or only
    /// a partial frame) yet. This is the primitive the batch multiplexer's
    /// readiness loop spins on to keep many in-flight exchanges moving
    /// without parking on any single connection.
    ///
    /// Readiness contract: `Ok(None)` means the stream holds no complete
    /// buffered frame *and* its last read of the underlying source came
    /// back short or `WouldBlock` — the source was empty at that moment.
    /// Whatever arrives afterwards leaves the descriptor readable, so a
    /// level-triggered readiness poller may safely block on it, and a
    /// sweeping one picks it up on its next pass.
    fn try_recv(&mut self) -> WireResult<Option<Frame>>;

    /// The underlying OS file descriptor, when the stream is backed by
    /// one — lets a readiness poller track the connection in the kernel.
    /// Fd-less streams (in-process channels) return `None` and get swept.
    fn raw_fd(&self) -> Option<i32> {
        None
    }

    /// Buffer-pool counters as `(checkouts, reused, free_now)` when the
    /// stream receives into a pool — monotonic totals a telemetry sampler
    /// turns into deltas. Pool-less streams return `None`.
    fn pool_stats(&self) -> Option<(u64, u64, u64)> {
        None
    }
}

/// A bidirectional framed connection between two peers.
pub struct Connection {
    sink: Box<dyn FrameSink>,
    stream: Box<dyn FrameStream>,
}

impl Connection {
    /// Assembles a connection from its halves.
    pub fn from_halves(sink: Box<dyn FrameSink>, stream: Box<dyn FrameStream>) -> Self {
        Self { sink, stream }
    }

    /// Writes one frame.
    ///
    /// # Errors
    ///
    /// Propagates transport failures ([`WireError::Closed`] when the peer
    /// is gone).
    pub fn send(&mut self, frame: &Frame) -> WireResult<()> {
        self.sink.send(frame)
    }

    /// Blocks for the next frame.
    ///
    /// # Errors
    ///
    /// Propagates transport failures ([`WireError::Closed`] when the peer
    /// is gone).
    pub fn recv(&mut self) -> WireResult<Frame> {
        self.stream.recv()
    }

    /// Polls for a frame without blocking (see [`FrameStream::try_recv`]).
    ///
    /// # Errors
    ///
    /// Propagates transport failures ([`WireError::Closed`] when the peer
    /// is gone).
    pub fn try_recv(&mut self) -> WireResult<Option<Frame>> {
        self.stream.try_recv()
    }

    /// Sends one frame and waits for the reply — the unary-RPC shape of
    /// the storage fetch path.
    ///
    /// # Errors
    ///
    /// Propagates transport failures from either direction.
    pub fn request(&mut self, frame: &Frame) -> WireResult<Frame> {
        self.send(frame)?;
        self.recv()
    }

    /// Splits into independently owned halves so a reader thread can block
    /// on `recv` while another thread writes.
    pub fn split(self) -> (Box<dyn FrameSink>, Box<dyn FrameStream>) {
        (self.sink, self.stream)
    }

    /// The receive half's raw fd, when socket-backed (see
    /// [`FrameStream::raw_fd`]).
    pub fn raw_fd(&self) -> Option<i32> {
        self.stream.raw_fd()
    }
}

/// An endpoint accepting inbound connections.
pub trait Listener: Send {
    /// Blocks for the next inbound connection.
    fn accept(&mut self) -> WireResult<Connection>;

    /// Polls for an inbound connection without blocking: `Ok(Some)` when a
    /// dial was waiting, `Ok(None)` when none is. This is the accept-side
    /// primitive of the readiness reactor — one poll loop can watch its
    /// listener *and* every established connection without parking a
    /// thread on either.
    fn try_accept(&mut self) -> WireResult<Option<Connection>>;

    /// The address peers dial to reach this listener.
    fn addr(&self) -> String;

    /// The listening socket's raw fd, when OS-backed (see
    /// [`FrameStream::raw_fd`] for the contract).
    fn raw_fd(&self) -> Option<i32> {
        None
    }
}

/// A connection fabric: names addresses, listens, dials.
pub trait Transport: Send + Sync {
    /// Opens a listener. Pass [`Transport::any_addr`] to let the transport
    /// pick a free concrete address (returned by [`Listener::addr`]).
    fn listen(&self, addr: &str) -> WireResult<Box<dyn Listener>>;

    /// Dials a listening endpoint, retrying briefly so peers may start in
    /// any order.
    fn dial(&self, addr: &str) -> WireResult<Connection>;

    /// Dials with a single attempt and no internal patience — the
    /// primitive failover paths use so a dead endpoint fails in one round
    /// trip and the caller's own backoff ladder (see [`RetryPolicy`])
    /// paces the retries. Defaults to [`Transport::dial`] for transports
    /// whose dial is already instantaneous.
    ///
    /// # Errors
    ///
    /// [`WireError::Unroutable`] when nothing listens at `addr`.
    fn dial_once(&self, addr: &str) -> WireResult<Connection> {
        self.dial(addr)
    }

    /// The wildcard address for [`Transport::listen`].
    fn any_addr(&self) -> String;
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Longest single pause of the backoff ladder, whatever the base.
const MAX_RETRY_DELAY: Duration = Duration::from_millis(500);

/// Bounded exponential backoff with deterministic jitter, shared by every
/// client-side redial path. `GROUTING_RETRY=attempts:base_ms` overrides
/// the defaults; the jitter is a pure function of `(attempt, salt)` so a
/// seeded run retries on an identical schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Dial attempts before giving up (≥ 1).
    pub attempts: u32,
    /// First pause; each later pause doubles, capped at 500 ms.
    pub base: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        // 25, 50, 100, 200, 400, 500, 500 ms of pauses (~1.7 s of
        // patience): comparable to the dialler's historic startup grace
        // but strictly bounded, so a truly dead endpoint fails over to a
        // replica instead of hanging a fetch.
        Self {
            attempts: 8,
            base: Duration::from_millis(25),
        }
    }
}

impl RetryPolicy {
    /// A policy with explicit attempt count and base pause.
    pub fn new(attempts: u32, base: Duration) -> Self {
        Self {
            attempts: attempts.max(1),
            base,
        }
    }

    /// Reads `GROUTING_RETRY=attempts:base_ms`. Invalid values warn via
    /// `GROUTING_LOG`, naming the value, and fall back to the default.
    pub fn from_env() -> Self {
        match std::env::var("GROUTING_RETRY") {
            Ok(raw) => match Self::parse(&raw) {
                Some(policy) => policy,
                None => {
                    log_warn!(
                        "invalid GROUTING_RETRY value {raw:?} (expected attempts:base_ms, \
                         e.g. 4:10); using default"
                    );
                    Self::default()
                }
            },
            Err(_) => Self::default(),
        }
    }

    fn parse(raw: &str) -> Option<Self> {
        let (attempts, base_ms) = raw.split_once(':')?;
        let attempts: u32 = attempts.trim().parse().ok()?;
        let base_ms: u64 = base_ms.trim().parse().ok()?;
        if attempts == 0 {
            return None;
        }
        Some(Self {
            attempts,
            base: Duration::from_millis(base_ms),
        })
    }

    /// The pause after failed attempt number `attempt` (0-based):
    /// `base · 2^attempt` capped at 500 ms, plus up to 25 % deterministic
    /// jitter derived from `(attempt, salt)` — distinct salts (one per
    /// endpoint) de-synchronise a thundering herd of redials without
    /// sacrificing reproducibility.
    pub fn delay(&self, attempt: u32, salt: u64) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(MAX_RETRY_DELAY);
        // xorshift64* of the (attempt, salt) pair: deterministic jitter.
        let mut x = salt
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(attempt) + 1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let jitter_frac = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 56) as u32; // 0..=255
        exp + exp.mul_f64(f64::from(jitter_frac) / 1024.0)
    }
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// Real sockets via `std::net`, framed with a `u32` length prefix.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    dial_attempts: u32,
    dial_backoff: Duration,
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self {
            // ~2 s of patience: covers listener threads that have not
            // reached `accept` yet and services restarting mid-run.
            dial_attempts: 80,
            dial_backoff: Duration::from_millis(25),
        }
    }
}

impl TcpTransport {
    /// A transport with default dial patience.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides how long `dial` keeps retrying a refused connection.
    pub fn with_dial_patience(attempts: u32, backoff: Duration) -> Self {
        Self {
            dial_attempts: attempts.max(1),
            dial_backoff: backoff,
        }
    }
}

impl Transport for TcpTransport {
    fn listen(&self, addr: &str) -> WireResult<Box<dyn Listener>> {
        let listener = bind_reusable(addr)?;
        Ok(Box::new(TcpFrameListener {
            listener,
            nonblocking: false,
        }))
    }

    fn dial(&self, addr: &str) -> WireResult<Connection> {
        let mut last = None;
        for attempt in 0..self.dial_attempts {
            match TcpStream::connect(addr) {
                Ok(stream) => return tcp_connection(stream),
                Err(e) => {
                    last = Some(e);
                    if attempt + 1 < self.dial_attempts {
                        std::thread::sleep(self.dial_backoff);
                    }
                }
            }
        }
        Err(match last {
            Some(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                WireError::Unroutable(addr.to_string())
            }
            Some(e) => e.into(),
            None => WireError::Unroutable(addr.to_string()),
        })
    }

    fn dial_once(&self, addr: &str) -> WireResult<Connection> {
        match TcpStream::connect(addr) {
            Ok(stream) => tcp_connection(stream),
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => {
                Err(WireError::Unroutable(addr.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn any_addr(&self) -> String {
        "127.0.0.1:0".to_string()
    }
}

/// Binds a listening socket with `SO_REUSEADDR` on Linux, so a restarted
/// service can reclaim its concrete address even while connections it
/// accepted there linger in `TIME_WAIT` — the chaos harness's
/// kill-and-rebind path. Wildcard (`:0`) binds and other platforms go
/// through the plain `std` bind.
fn bind_reusable(addr: &str) -> std::io::Result<TcpListener> {
    #[cfg(target_os = "linux")]
    {
        if let Ok(parsed) = addr.parse::<std::net::SocketAddrV4>() {
            if parsed.port() != 0 {
                if let Ok(listener) = crate::sys::tcp_listen_reuseaddr(&parsed) {
                    return Ok(listener);
                }
            }
        }
    }
    TcpListener::bind(addr)
}

fn tcp_connection(stream: TcpStream) -> WireResult<Connection> {
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    Ok(Connection::from_halves(
        Box::new(TcpSink {
            stream: writer,
            buf: Vec::new(),
        }),
        Box::new(TcpStreamHalf::new(stream)),
    ))
}

struct TcpFrameListener {
    listener: TcpListener,
    /// Set on the first `try_accept` and never reverted (same discipline
    /// as the stream half: a listener is either blocking-driven or
    /// reactor-polled, never interleaved).
    nonblocking: bool,
}

impl Listener for TcpFrameListener {
    fn accept(&mut self) -> WireResult<Connection> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => return tcp_connection(stream),
                // Only reachable when `try_accept` switched the socket to
                // non-blocking; honour the blocking contract by waiting.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn try_accept(&mut self) -> WireResult<Option<Connection>> {
        if !self.nonblocking {
            self.listener.set_nonblocking(true)?;
            self.nonblocking = true;
        }
        match self.listener.accept() {
            Ok((stream, _)) => tcp_connection(stream).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default()
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> Option<i32> {
        use std::os::fd::AsRawFd;
        Some(self.listener.as_raw_fd())
    }
}

struct TcpSink {
    stream: TcpStream,
    /// The frame being sent, as `[len][payload]`. Kept between sends, so a
    /// warm connection encodes without allocating.
    buf: Vec<u8>,
}

/// Most send-buffer capacity a connection keeps between frames: enough for
/// any ordinary batch response, small enough that one multi-megabyte frame
/// does not stay pinned to every connection that ever carried one.
const SEND_BUFFER_RETAIN: usize = 256 << 10;

impl TcpSink {
    /// Encodes `frame` into the send buffer and writes the first
    /// `keep(encoded length)` bytes of it — in one `write`, unless the
    /// kernel takes less.
    fn write_frame(&mut self, frame: &Frame, keep: impl FnOnce(usize) -> usize) -> WireResult<()> {
        self.buf.clear();
        frame.encode_into(&mut self.buf);
        let keep = keep(self.buf.len());
        let sent = write_all_blocking(&mut self.stream, &self.buf[..keep]);
        if self.buf.capacity() > SEND_BUFFER_RETAIN {
            self.buf = Vec::new();
        }
        sent
    }
}

impl FrameSink for TcpSink {
    fn send(&mut self, frame: &Frame) -> WireResult<()> {
        self.write_frame(frame, |len| len)
    }

    fn send_truncated(&mut self, frame: &Frame, keep: usize) -> WireResult<()> {
        // Cut `[len][payload]` at `keep` raw bytes: the peer sees a frame
        // header promising more bytes than ever arrive.
        self.write_frame(frame, |len| keep.min(len - 1).max(1))
    }
}

/// A full socket buffer on a (possibly non-blocking) socket: wait for
/// write readiness instead of spinning. On Linux this parks in `poll`
/// until the kernel drains; elsewhere a yield-then-sleep pause paces the
/// retries without burning the core the reader needs.
#[cfg(target_os = "linux")]
fn wait_for_writable(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    let _ = crate::sys::wait_writable(stream.as_raw_fd(), Duration::from_millis(25));
}

#[cfg(not(target_os = "linux"))]
fn wait_for_writable(_stream: &TcpStream) {
    std::thread::yield_now();
    std::thread::sleep(Duration::from_micros(100));
}

/// `write_all` that tolerates a socket left in non-blocking mode: the
/// stream half of a polled connection switches the (shared) socket to
/// non-blocking on its first `try_recv` and leaves it there, so sends on
/// the same connection must treat `WouldBlock` as "kernel buffer full,
/// wait for writability" rather than an error.
fn write_all_blocking(stream: &mut TcpStream, mut buf: &[u8]) -> WireResult<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(WireError::Closed),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => wait_for_writable(stream),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Capacity of each pooled receive buffer. Most frames are far smaller
/// (a buffer accumulates many); larger frames simply grow the `Vec`
/// underneath and the grown allocation is pooled all the same.
const RECV_BUFFER_CAPACITY: usize = 64 << 10;
/// Free receive buffers retained per connection.
const RECV_POOL_BUFFERS: usize = 4;
/// Least room a read is given: a page. A buffer's room is zeroed as it
/// grows, so it grows to what the frames on its connection have needed —
/// the next bound — and a control connection's buffers stay one page.
const MIN_READ_ROOM: usize = 4 << 10;
/// Most room one read makes for a frame that has only announced itself:
/// four bytes of length prefix are trusted for a megabyte — more than a
/// socket buffer usually holds, so the read count does not rise — and the
/// buffer grows past that only as the frame's bytes really arrive.
const MAX_READ_AHEAD: usize = 1 << 20;

struct TcpStreamHalf {
    stream: TcpStream,
    /// Recycles receive buffers so a long-lived connection stops
    /// allocating once warm. Reclamation is `Arc`-gated: a buffer re-enters
    /// the free list only when no decoded payload view references it.
    pool: BufferPool,
    /// Frozen prefix of the unconsumed receive sequence. Complete frames
    /// are sliced out of here zero-copy (payloads stay `Arc`-backed views
    /// into this buffer) and the cursor advanced past them.
    frozen: Bytes,
    /// Accumulating tail: the pooled buffer socket reads land in, holding
    /// what arrived after `frozen` froze. Reads can end mid-frame, so
    /// partial input parks here between polls. Invariant: unconsumed bytes
    /// = `frozen` ++ `acc`.
    acc: BytesMut,
    /// The last `try_recv` read came back short: the socket was empty at
    /// that moment, so the next poll that finds no complete frame says so
    /// without a `read` that could only report `WouldBlock`.
    drained: bool,
    /// Whether the socket has been switched to non-blocking mode. Set on
    /// the first `try_recv` and never reverted, so a polling caller pays
    /// the fcntl once instead of twice per poll; a connection is driven
    /// either blocking (service loops) or polled (the batch multiplexer),
    /// never interleaved.
    nonblocking: bool,
}

impl TcpStreamHalf {
    fn new(stream: TcpStream) -> Self {
        let mut pool = BufferPool::new(RECV_BUFFER_CAPACITY, RECV_POOL_BUFFERS);
        let acc = pool.checkout();
        Self {
            stream,
            pool,
            frozen: Bytes::new(),
            acc,
            drained: false,
            nonblocking: false,
        }
    }

    fn buffered(&self) -> usize {
        self.frozen.len() + self.acc.len()
    }

    /// Reads the 4-byte length prefix (possibly spanning the frozen/acc
    /// boundary) without consuming it.
    fn peek_len(&self) -> WireResult<usize> {
        let mut hdr = [0u8; 4];
        for (i, b) in hdr.iter_mut().enumerate() {
            *b = if i < self.frozen.len() {
                self.frozen[i]
            } else {
                self.acc[i - self.frozen.len()]
            };
        }
        let len = u32::from_le_bytes(hdr) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::Codec(format!(
                "frame length {len} exceeds cap {MAX_FRAME_BYTES}"
            )));
        }
        Ok(len)
    }

    /// Moves every unconsumed byte into `frozen`: a zero-copy freeze of
    /// the accumulator when the frozen prefix is exhausted, one bulk copy
    /// into a pooled buffer otherwise.
    fn consolidate(&mut self) {
        let old = if self.frozen.is_empty() {
            let acc = std::mem::replace(&mut self.acc, self.pool.checkout());
            std::mem::replace(&mut self.frozen, acc.freeze())
        } else {
            let mut merged = self.pool.checkout();
            merged.extend_from_slice(&self.frozen);
            merged.extend_from_slice(&self.acc);
            self.acc.clear();
            std::mem::replace(&mut self.frozen, merged.freeze())
        };
        self.pool.checkin(old);
    }

    /// Pops one complete frame off the front of the buffered bytes —
    /// payloads decoded as zero-copy views into the frozen receive buffer
    /// — or says how many bytes that frame still lacks.
    fn parse_buffered(&mut self) -> WireResult<Parsed> {
        if self.buffered() < 4 {
            return Ok(Parsed::Lacks(4 - self.buffered()));
        }
        let len = self.peek_len()?;
        if self.buffered() < 4 + len {
            return Ok(Parsed::Lacks(4 + len - self.buffered()));
        }
        if self.frozen.len() < 4 + len {
            // The frame spans the frozen/acc boundary: merge once. A byte
            // is copied at most twice in its lifetime (kernel → acc, acc →
            // merged), and only once when its frame arrived whole.
            self.consolidate();
        }
        let payload = self.frozen.slice(4..4 + len);
        self.frozen.advance(4 + len);
        let frame = Frame::decode(payload);
        if self.frozen.is_empty() {
            // Fully consumed: offer the allocation back to the pool. It is
            // reclaimed only once no payload view of it is alive.
            let old = std::mem::replace(&mut self.frozen, Bytes::new());
            self.pool.checkin(old);
        }
        frame.map(Parsed::Frame)
    }
}

/// What the buffered bytes amount to.
enum Parsed {
    /// A complete frame, now consumed.
    Frame(Frame),
    /// No complete frame: the one at the front lacks this many bytes
    /// (counting its length prefix). The next read makes room for all of
    /// them, within [`MIN_READ_ROOM`] and [`MAX_READ_AHEAD`], so the rest
    /// of a batch response is asked for in one read rather than in
    /// buffer-sized pieces.
    Lacks(usize),
}

impl FrameStream for TcpStreamHalf {
    fn recv(&mut self) -> WireResult<Frame> {
        loop {
            let lacks = match self.parse_buffered()? {
                Parsed::Frame(frame) => return Ok(frame),
                Parsed::Lacks(n) => n,
            };
            match self
                .acc
                .read_from(&mut self.stream, lacks.clamp(MIN_READ_ROOM, MAX_READ_AHEAD))
            {
                Ok(0) => return Err(WireError::Closed),
                Ok(_) => {}
                // Only reachable when `try_recv` has been used on this
                // connection too; honour the blocking contract by waiting.
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn try_recv(&mut self) -> WireResult<Option<Frame>> {
        loop {
            let lacks = match self.parse_buffered()? {
                Parsed::Frame(frame) => return Ok(Some(frame)),
                Parsed::Lacks(n) => n,
            };
            if std::mem::take(&mut self.drained) {
                return Ok(None);
            }
            if !self.nonblocking {
                self.stream.set_nonblocking(true)?;
                self.nonblocking = true;
            }
            match self
                .acc
                .read_from(&mut self.stream, lacks.clamp(MIN_READ_ROOM, MAX_READ_AHEAD))
            {
                // A frame completed by the last bytes before EOF was
                // returned above, before this read was made.
                Ok(0) => return Err(WireError::Closed),
                Ok(_) => self.drained = self.acc.room() > 0,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    #[cfg(unix)]
    fn raw_fd(&self) -> Option<i32> {
        use std::os::fd::AsRawFd;
        Some(self.stream.as_raw_fd())
    }

    fn pool_stats(&self) -> Option<(u64, u64, u64)> {
        Some((
            self.pool.checkouts(),
            self.pool.reused(),
            self.pool.available() as u64,
        ))
    }
}

// ---------------------------------------------------------------------------
// In-process
// ---------------------------------------------------------------------------

type Registry = Arc<Mutex<HashMap<String, Sender<Connection>>>>;

/// A hermetic in-process fabric: listeners are names in a shared registry,
/// connections are channel pairs carrying *encoded* frames.
#[derive(Clone, Default)]
pub struct InProcTransport {
    registry: Registry,
    next_name: Arc<AtomicU64>,
}

impl InProcTransport {
    /// A fresh, empty fabric (addresses are scoped to this instance).
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for InProcTransport {
    fn listen(&self, addr: &str) -> WireResult<Box<dyn Listener>> {
        let name = if addr.is_empty() || addr == self.any_addr() {
            format!("inproc:{}", self.next_name.fetch_add(1, Ordering::Relaxed))
        } else {
            addr.to_string()
        };
        let (tx, rx) = unbounded();
        let mut reg = self.registry.lock().expect("registry poisoned");
        if reg.contains_key(&name) {
            return Err(WireError::Io(std::io::Error::new(
                std::io::ErrorKind::AddrInUse,
                format!("inproc address {name} already bound"),
            )));
        }
        reg.insert(name.clone(), tx);
        drop(reg);
        Ok(Box::new(InProcListener {
            name,
            inbox: rx,
            registry: Arc::clone(&self.registry),
        }))
    }

    fn dial(&self, addr: &str) -> WireResult<Connection> {
        let acceptor = {
            let reg = self.registry.lock().expect("registry poisoned");
            reg.get(addr).cloned()
        };
        let Some(acceptor) = acceptor else {
            return Err(WireError::Unroutable(addr.to_string()));
        };
        let (client_tx, server_rx) = unbounded::<Bytes>();
        let (server_tx, client_rx) = unbounded::<Bytes>();
        let server_side = Connection::from_halves(
            Box::new(ChanSink { tx: server_tx }),
            Box::new(ChanStream { rx: server_rx }),
        );
        acceptor
            .send(server_side)
            .map_err(|_| WireError::Unroutable(addr.to_string()))?;
        Ok(Connection::from_halves(
            Box::new(ChanSink { tx: client_tx }),
            Box::new(ChanStream { rx: client_rx }),
        ))
    }

    fn any_addr(&self) -> String {
        "inproc:any".to_string()
    }
}

struct InProcListener {
    name: String,
    inbox: Receiver<Connection>,
    registry: Registry,
}

impl Listener for InProcListener {
    fn accept(&mut self) -> WireResult<Connection> {
        self.inbox.recv().map_err(|_| WireError::Closed)
    }

    fn try_accept(&mut self) -> WireResult<Option<Connection>> {
        use crossbeam::channel::TryRecvError;
        match self.inbox.try_recv() {
            Ok(conn) => Ok(Some(conn)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(WireError::Closed),
        }
    }

    fn addr(&self) -> String {
        self.name.clone()
    }
}

impl Drop for InProcListener {
    fn drop(&mut self) {
        if let Ok(mut reg) = self.registry.lock() {
            reg.remove(&self.name);
        }
    }
}

struct ChanSink {
    tx: Sender<Bytes>,
}

impl FrameSink for ChanSink {
    fn send(&mut self, frame: &Frame) -> WireResult<()> {
        self.tx.send(frame.encode()).map_err(|_| WireError::Closed)
    }

    fn send_truncated(&mut self, frame: &Frame, keep: usize) -> WireResult<()> {
        // The channel fabric is message-based (no partial delivery), so a
        // mid-frame cut arrives as a short encoding the peer's decoder
        // rejects — the in-process spelling of a torn frame.
        let encoded = frame.encode();
        let cut = keep.min(encoded.len().saturating_sub(1)).max(1);
        self.tx
            .send(encoded.slice(0..cut))
            .map_err(|_| WireError::Closed)
    }
}

struct ChanStream {
    rx: Receiver<Bytes>,
}

impl FrameStream for ChanStream {
    fn recv(&mut self) -> WireResult<Frame> {
        let payload = self.rx.recv().map_err(|_| WireError::Closed)?;
        Frame::decode(payload)
    }

    fn try_recv(&mut self) -> WireResult<Option<Frame>> {
        use crossbeam::channel::TryRecvError;
        match self.rx.try_recv() {
            Ok(payload) => Frame::decode(payload).map(Some),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(WireError::Closed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_graph::NodeId;

    fn echo_server(listener: Box<dyn Listener>, serve_conns: usize) -> std::thread::JoinHandle<()> {
        let mut listener = listener;
        std::thread::spawn(move || {
            for _ in 0..serve_conns {
                let Ok(mut conn) = listener.accept() else {
                    return;
                };
                std::thread::spawn(move || {
                    while let Ok(frame) = conn.recv() {
                        if matches!(frame, Frame::Shutdown) {
                            break;
                        }
                        if conn.send(&frame).is_err() {
                            break;
                        }
                    }
                });
            }
        })
    }

    fn frame(i: u32) -> Frame {
        Frame::FetchBatchRequest {
            req_id: u64::from(i),
            nodes: vec![NodeId::new(i)],
            issued_ns: None,
        }
    }

    fn round_trips_over(transport: Arc<dyn Transport>) {
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = echo_server(listener, 1);
        let mut conn = transport.dial(&addr).unwrap();
        for i in 0..50 {
            assert_eq!(conn.request(&frame(i)).unwrap(), frame(i));
        }
        conn.send(&Frame::Shutdown).unwrap();
        server.join().unwrap();
    }

    #[test]
    fn inproc_round_trips() {
        round_trips_over(Arc::new(InProcTransport::new()));
    }

    #[test]
    fn tcp_round_trips() {
        round_trips_over(Arc::new(TcpTransport::new()));
    }

    #[test]
    fn inproc_dial_unknown_address_fails() {
        let t = InProcTransport::new();
        assert!(matches!(
            t.dial("inproc:nobody"),
            Err(WireError::Unroutable(_))
        ));
    }

    #[test]
    fn inproc_listener_drop_unbinds() {
        let t = InProcTransport::new();
        let listener = t.listen("inproc:tmp").unwrap();
        drop(listener);
        assert!(t.dial("inproc:tmp").is_err());
        // The name is free again.
        let again = t.listen("inproc:tmp").unwrap();
        assert_eq!(again.addr(), "inproc:tmp");
    }

    #[test]
    fn inproc_rejects_double_bind() {
        let t = InProcTransport::new();
        let _keep = t.listen("inproc:one").unwrap();
        assert!(t.listen("inproc:one").is_err());
    }

    #[test]
    fn tcp_dial_without_listener_errors() {
        let t = TcpTransport::with_dial_patience(2, Duration::from_millis(1));
        assert!(t.dial("127.0.0.1:1").is_err());
    }

    #[test]
    fn recv_reports_closed_when_peer_drops() {
        let t = InProcTransport::new();
        let mut listener = t.listen(&t.any_addr()).unwrap();
        let addr = listener.addr();
        let conn = t.dial(&addr).unwrap();
        let mut server_side = listener.accept().unwrap();
        drop(conn);
        assert!(matches!(server_side.recv(), Err(WireError::Closed)));
    }

    #[test]
    fn large_batch_response_round_trips_through_refilled_socket_buffers() {
        // ~7 MB in one frame, more than a loopback socket buffer ever
        // holds, sent on a socket a poll has already made non-blocking and
        // to a reader that starts late: the one flat write has to wait for
        // the kernel to drain and resume mid-frame several times, the
        // reader needs many reads, and the send buffer is let go of
        // afterwards (the small frame behind it still arrives).
        let payloads: Vec<Option<(u16, Bytes)>> = (0..1200u32)
            .map(|i| {
                if i % 9 == 0 {
                    None
                } else {
                    Some(((i % 4) as u16, Bytes::from(vec![i as u8; 6500])))
                }
            })
            .collect();
        let f = Frame::FetchBatchResponse {
            req_id: 77,
            payloads,
        };
        assert!(f.encoded_len() > 6 << 20);
        let transport = TcpTransport::new();
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let send_frame = f.clone();
        let writer = std::thread::spawn(move || {
            let mut conn = TcpTransport::new().dial(&addr).unwrap();
            assert!(conn.try_recv().unwrap().is_none());
            conn.send(&send_frame).unwrap();
            conn.send(&frame(5)).unwrap();
            conn // held open until the reader is done
        });
        let mut server = listener.accept().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(server.recv().unwrap(), f);
        assert_eq!(server.recv().unwrap(), frame(5));
        drop(writer.join().unwrap());
    }

    /// Writes `chunks` through a raw socket into an accepted connection
    /// and closes it, returning every frame the reader got — all of them
    /// still held when the last arrives — and the error that ended the
    /// stream. Polled (`try_recv`), each chunk waits until the reader has
    /// found the socket empty after the one before, so the chunk
    /// boundaries are the read boundaries; blocking (`recv`), the chunks
    /// go out back to back and the kernel decides.
    fn feed(chunks: Vec<Vec<u8>>, polled: bool) -> (Vec<Frame>, WireError) {
        let transport = TcpTransport::new();
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let empty_polls = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&empty_polls);
        let writer = std::thread::spawn(move || {
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.set_nodelay(true).unwrap();
            for chunk in chunks {
                raw.write_all(&chunk).unwrap();
                // Two empty polls: the second one started after the write.
                let before = seen.load(Ordering::SeqCst);
                let deadline = std::time::Instant::now() + Duration::from_millis(200);
                while polled
                    && seen.load(Ordering::SeqCst) < before + 2
                    && std::time::Instant::now() < deadline
                {
                    std::thread::yield_now();
                }
            }
        });
        let mut server = listener.accept().unwrap();
        let mut frames = Vec::new();
        let end = loop {
            let next = if polled {
                server.try_recv()
            } else {
                server.recv().map(Some)
            };
            match next {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => {
                    empty_polls.fetch_add(1, Ordering::SeqCst);
                    std::thread::yield_now();
                }
                Err(e) => break e,
            }
        };
        writer.join().unwrap();
        (frames, end)
    }

    /// The bytes `frames` occupy on a socket.
    fn wire_bytes(frames: &[Frame]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for f in frames {
            f.encode_into(&mut bytes);
        }
        bytes
    }

    /// A batch response of `records` records of `record_len` bytes each,
    /// every byte a function of `salt`, with a missing record now and then.
    fn response(salt: u64, records: usize, record_len: usize) -> Frame {
        Frame::FetchBatchResponse {
            req_id: salt,
            payloads: (0..records)
                .map(|i| {
                    (i % 11 != 10).then(|| {
                        let byte = |j: usize| (salt as usize + i * 31 + j) as u8;
                        (
                            (i % 4) as u16,
                            (0..record_len).map(byte).collect::<Vec<u8>>().into(),
                        )
                    })
                })
                .collect(),
        }
    }

    #[test]
    fn frames_survive_a_split_at_every_offset() {
        let frames = vec![
            Frame::Hello {
                role: crate::frame::Role::Processor,
                id: 3,
            },
            response(1, 4, 40),
            response(2, 0, 0),
            Frame::Shutdown,
        ];
        let bytes = wire_bytes(&frames);
        for polled in [true, false] {
            for at in 0..=bytes.len() {
                let chunks = vec![bytes[..at].to_vec(), bytes[at..].to_vec()];
                let (got, end) = feed(chunks, polled);
                assert_eq!(got, frames, "split at {at}, polled {polled}");
                assert!(matches!(end, WireError::Closed), "{end:?}");
            }
            // Byte at a time: every boundary at once.
            let (got, end) = feed(bytes.iter().map(|&b| vec![b]).collect(), polled);
            assert_eq!(got, frames, "byte at a time, polled {polled}");
            assert!(matches!(end, WireError::Closed), "{end:?}");
        }
    }

    proptest::proptest! {
        /// Frames stream through the pooled receive path in sequence;
        /// payload views from earlier frames are held live while later
        /// frames churn the pool, and must stay byte-identical at the end
        /// (pool reuse must never alias a live view).
        #[test]
        fn prop_pooled_recv_round_trips_and_never_aliases(
            batches in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::option::of(
                        (0u16..16, proptest::collection::vec(0u8..=255, 0..600)),
                    ),
                    0..12,
                ),
                1..6,
            ),
        ) {
            let transport = TcpTransport::new();
            let mut listener = transport.listen(&transport.any_addr()).unwrap();
            let addr = listener.addr();
            let frames: Vec<Frame> = batches
                .iter()
                .enumerate()
                .map(|(i, payloads)| Frame::FetchBatchResponse {
                    req_id: i as u64,
                    payloads: payloads
                        .iter()
                        .map(|p| p.clone().map(|(s, v)| (s, Bytes::from(v))))
                        .collect(),
                })
                .collect();
            let sender_frames = frames.clone();
            let writer = std::thread::spawn(move || {
                let mut conn = TcpTransport::new().dial(&addr).unwrap();
                for f in &sender_frames {
                    conn.send(f).unwrap();
                }
                conn
            });
            let mut server = listener.accept().unwrap();
            let mut held: Vec<Frame> = Vec::new();
            for want in &frames {
                let got = server.recv().unwrap();
                proptest::prop_assert_eq!(&got, want);
                // Keeping the decoded frame keeps its payload views alive
                // across the later receives below.
                held.push(got);
            }
            for (got, want) in held.iter().zip(&frames) {
                proptest::prop_assert_eq!(got, want);
            }
            drop(writer.join().unwrap());
        }

        /// Any sequence of frames — control frames of a few bytes, empty
        /// and ordinary batch responses, one just past the pooled buffer,
        /// one of several hundred KB — cut into any chunks (single bytes,
        /// several frames at once, everything left) comes out of `recv`
        /// and `try_recv` as exactly the frames sent. The reader holds
        /// every frame until the stream ends, so a pooled buffer reused
        /// under a live payload view would show as a mismatch; and a final
        /// frame whose tail never arrives is a `Closed`, not a frame.
        #[test]
        fn prop_any_chunking_delivers_exactly_the_frames_sent(
            specs in proptest::collection::vec((0u8..8, 0u64..1 << 40), 1..7),
            cuts in proptest::collection::vec((0u8..4, 1usize..60_000), 0..120),
            polled in proptest::bool::ANY,
            lost_tail in proptest::option::of(1usize..3_000),
        ) {
            let frames: Vec<Frame> = specs
                .iter()
                .map(|&(kind, salt)| match kind {
                    0 => Frame::Shutdown,
                    1 => Frame::Hello { role: crate::frame::Role::Client, id: salt as u32 },
                    2 => frame(salt as u32),
                    3 => response(salt, 0, 0),
                    4 => response(salt, 5, 60),
                    5 => response(salt, 100, 295),
                    6 => response(salt, 230, 300), // just past RECV_BUFFER_CAPACITY
                    _ => response(salt, 600, 200 + (salt % 800) as usize),
                })
                .collect();
            let mut bytes = wire_bytes(&frames);
            let mut want = frames;
            if let Some(lost) = lost_tail {
                let last = want.pop().unwrap();
                bytes.truncate(bytes.len() - lost.min(4 + last.encoded_len()));
            }
            let mut chunks = Vec::new();
            let mut rest = &bytes[..];
            for (class, size) in cuts {
                let size = match class {
                    0 => 1,
                    1 => 1 + size % 8,
                    2 => 1 + size % 700,
                    _ => size,
                };
                if rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at(size.min(rest.len()));
                chunks.push(chunk.to_vec());
                rest = tail;
            }
            chunks.push(rest.to_vec());
            let (got, end) = feed(chunks, polled);
            proptest::prop_assert_eq!(got, want);
            proptest::prop_assert!(matches!(end, WireError::Closed), "{:?}", end);
        }
    }

    #[test]
    fn retry_policy_parses_and_rejects() {
        assert_eq!(
            RetryPolicy::parse("4:10"),
            Some(RetryPolicy::new(4, Duration::from_millis(10)))
        );
        assert_eq!(
            RetryPolicy::parse(" 2 : 250 "),
            Some(RetryPolicy::new(2, Duration::from_millis(250)))
        );
        for bad in ["", "4", "0:10", "four:ten", "4:", ":10", "4:10:2"] {
            assert_eq!(RetryPolicy::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn retry_delay_is_deterministic_bounded_and_grows() {
        let policy = RetryPolicy::new(8, Duration::from_millis(25));
        for attempt in 0..8 {
            for salt in [0u64, 7, 0xDEAD_BEEF] {
                let d = policy.delay(attempt, salt);
                assert_eq!(d, policy.delay(attempt, salt), "reproducible");
                // Cap plus the 25 % jitter headroom.
                assert!(d <= MAX_RETRY_DELAY + MAX_RETRY_DELAY / 4, "{d:?}");
            }
        }
        // The exponential part grows until the cap.
        assert!(policy.delay(3, 1) > policy.delay(0, 1));
    }

    fn truncated_send_corrupts_not_completes(transport: Arc<dyn Transport>) {
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let conn = transport.dial(&addr).unwrap();
        let mut server_side = listener.accept().unwrap();
        let (mut sink, stream) = conn.split();
        let full = frame(42).encode();
        sink.send_truncated(&frame(42), full.len() / 2).unwrap();
        drop(sink);
        drop(stream);
        // The peer never assembles a frame from the torn bytes: it sees
        // the close (TCP) or a codec rejection (in-process), never a
        // spurious complete frame.
        match server_side.recv() {
            Err(WireError::Closed) | Err(WireError::Codec(_)) => {}
            other => panic!("torn frame surfaced as {other:?}"),
        }
    }

    #[test]
    fn tcp_truncated_send_corrupts_not_completes() {
        truncated_send_corrupts_not_completes(Arc::new(TcpTransport::new()));
    }

    #[test]
    fn inproc_truncated_send_corrupts_not_completes() {
        truncated_send_corrupts_not_completes(Arc::new(InProcTransport::new()));
    }

    #[test]
    fn tcp_listener_rebinds_its_concrete_address() {
        // The chaos harness's storage-restart path: a service that dies is
        // respawned on the same concrete address it announced before.
        let t = TcpTransport::new();
        let listener = t.listen(&t.any_addr()).unwrap();
        let addr = listener.addr();
        let mut conn = t.dial(&addr).unwrap();
        let mut listener = listener;
        let server_side = listener.accept().unwrap();
        drop(server_side); // server closes first → TIME_WAIT holds the port
        let _ = conn.recv(); // observe the close
        drop(listener);
        let again = t.listen(&addr).unwrap();
        assert_eq!(again.addr(), addr);
    }

    #[test]
    fn oversized_tcp_frame_is_rejected() {
        let t = TcpTransport::new();
        let mut listener = t.listen(&t.any_addr()).unwrap();
        let addr = listener.addr();
        let writer = std::thread::spawn(move || {
            let mut raw = TcpStream::connect(addr).unwrap();
            let huge = (MAX_FRAME_BYTES as u32) + 1;
            raw.write_all(&huge.to_le_bytes()).unwrap();
            raw.flush().unwrap();
            // Hold the socket open until the reader has judged the length.
            std::thread::sleep(Duration::from_millis(100));
        });
        let mut conn = listener.accept().unwrap();
        assert!(matches!(conn.recv(), Err(WireError::Codec(_))));
        writer.join().unwrap();
    }
}
