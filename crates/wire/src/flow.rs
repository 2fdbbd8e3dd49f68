//! `grouting-flow`: pipelined, frontier-batched adjacency fetching.
//!
//! The one processor→storage miss path. A blocking request/reply
//! exchange per frontier node would make a multi-hop BFS pay one loopback
//! RTT (~16 µs) per discovered node, serialised; this module keeps many
//! fetches in flight per processor instead:
//!
//! * `BatchMux` — a connection multiplexer holding one framed connection
//!   per storage server. Batches are *submitted* (written, correlation id
//!   assigned) separately from being *collected*, so a caller can put one
//!   [`Frame::FetchBatchRequest`] on the wire towards every storage server
//!   before waiting for any reply. Collection runs a readiness loop over
//!   the pending connections — non-blocking polls
//!   ([`crate::transport::FrameStream::try_recv`], `set_nonblocking`
//!   under TCP) draining whichever server answers first, with replies
//!   matched to requests by `req_id` so out-of-order completion is fine,
//!   and an empty round parking on the one poller of [`crate::reactor`];
//! * [`MultiplexedStorageSource`] — the [`BatchSource`] a processor plugs
//!   behind its cache: it groups a frontier's miss set by the placement
//!   function and ships exactly one batch per storage server per hop; a
//!   single-node fetch is a batch of one.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use grouting_graph::NodeId;
use grouting_metrics::FailoverStats;
use grouting_query::{BatchSource, RecordSource};
use grouting_storage::Partitioner;
use grouting_trace::TelemetryCounters;

use crate::error::{WireError, WireResult};
use crate::frame::Frame;
use crate::reactor::{sample_pool, Poller, PollerKind, IDLE_WAIT};
use crate::transport::{Connection, FrameSink, FrameStream, RetryPolicy, Transport};

/// The processor↔storage fetch path — there is only one. Named by the
/// benchmark (`load/`); the next `benchmark` PR drops it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FetchMode {
    /// Frontier-batched, pipelined fetching through `BatchMux`.
    #[default]
    Batched,
}

/// One batch's worth of per-node payloads: the serving server id and
/// encoded adjacency value, `None` where the node is not stored.
pub type BatchPayloads = Vec<Option<(u16, Bytes)>>;

/// One storage connection's multiplexer state.
struct MuxConn {
    sink: Box<dyn FrameSink>,
    stream: Box<dyn FrameStream>,
    /// Raw descriptor registered with the poller (`None` for fd-less
    /// transports, which turn each wait into a swept ladder rung).
    fd: Option<i32>,
    /// Payloads received so far per correlation id. A storage server may
    /// stream one batch's answer as *several* [`Frame::FetchBatchResponse`]
    /// frames (it chunks responses that would otherwise exceed the frame
    /// cap), so entries accumulate here until the requested node count is
    /// reached — including replies to requests the caller is not currently
    /// waiting on.
    ready: HashMap<u64, BatchPayloads>,
    /// The nodes of each outstanding request, recorded at submit: a
    /// request is complete when its `ready` entry reaches this length,
    /// and a reconnected connection resubmits exactly these.
    pending: HashMap<u64, Vec<NodeId>>,
    /// Last buffer-pool counters folded into telemetry (delta sampling).
    pool_seen: (u64, u64),
}

/// A pipelined batch-fetch multiplexer over the storage endpoints.
///
/// One lazily dialled connection per storage server; any number of
/// batches may be in flight per connection, correlated by `req_id`. The
/// submit/collect split is the pipelining: submitting writes the request
/// and returns immediately, so a frontier's batches reach every storage
/// server before the first reply is awaited.
pub struct BatchMux {
    transport: Arc<dyn Transport>,
    addrs: Vec<String>,
    conns: Vec<Option<MuxConn>>,
    next_req_id: u64,
    reconnects: u64,
    /// Replica-chain length of the storage tier: node `home`'s payload is
    /// also served by endpoints `(home + k) % servers` for
    /// `k < replication`, so a recovery redial may land on any of them.
    replication: usize,
    /// Backoff schedule the recovery redial ladder paces itself by.
    retry: RetryPolicy,
    /// Recovery counters (dial attempts, chain failovers, resubmissions).
    failover: FailoverStats,
    /// Readiness source the collect loops park on when every pending
    /// stream has reported an empty socket. Connection tokens are the server
    /// index; callers may register extra descriptors (a processor's router
    /// connection) under tokens ≥ `BatchMux::EXTERNAL_TOKEN_BASE`.
    poller: Poller,
    /// Batches submitted and not yet fully collected, across servers.
    outstanding: u64,
    /// Deployment-shared telemetry. Doubles as the trace switch: when set,
    /// batch requests carry their issue stamp and pool/batch-depth
    /// counters accumulate; when unset the mux's frames are byte-identical
    /// to an untraced deployment.
    telemetry: Option<Arc<TelemetryCounters>>,
}

impl BatchMux {
    /// First token available to `BatchMux::register_external` — far
    /// above any storage server index.
    pub const EXTERNAL_TOKEN_BASE: u64 = 1 << 32;

    /// A multiplexer towards `storage_addrs` (index = storage server id).
    pub fn new(transport: Arc<dyn Transport>, storage_addrs: &[String]) -> Self {
        Self {
            transport,
            addrs: storage_addrs.to_vec(),
            conns: storage_addrs.iter().map(|_| None).collect(),
            next_req_id: 0,
            reconnects: 0,
            replication: 1,
            retry: RetryPolicy::default(),
            failover: FailoverStats::default(),
            poller: Poller::new(),
            outstanding: 0,
            telemetry: None,
        }
    }

    /// Wires deployment-shared telemetry into the multiplexer: batch
    /// submissions count (with outstanding-depth peaks), receive-pool
    /// reuse is sampled, and every batch request carries its issue stamp.
    pub fn set_telemetry(&mut self, telemetry: Arc<TelemetryCounters>) {
        self.telemetry = Some(telemetry);
    }

    /// Registers a caller-owned descriptor (token ≥
    /// `BatchMux::EXTERNAL_TOKEN_BASE`) with the poller, so an idle wait
    /// also wakes on that connection's traffic. An `fd` of `None` (fd-less
    /// transport) turns every wait into a swept ladder rung.
    pub fn register_external(&mut self, token: u64, fd: Option<i32>) {
        debug_assert!(token >= Self::EXTERNAL_TOKEN_BASE);
        self.poller.register(token, fd);
    }

    /// Parks on the poller until any registered connection has traffic, or
    /// `timeout` passes. Only safe to call when every pending stream's
    /// last poll returned `None` — its socket was empty then (see
    /// [`crate::transport::FrameStream::try_recv`]) — which is exactly the
    /// no-progress state the collect loops call it from.
    pub fn idle_wait(&mut self, timeout: Duration) {
        self.poller.park(timeout);
    }

    /// Tells the poller progress happened, resetting its idle clock so the
    /// next wait yields briefly before blocking.
    pub fn note_progress(&mut self) {
        self.poller.reset();
    }

    /// Number of storage servers this multiplexer addresses.
    pub fn server_count(&self) -> usize {
        self.addrs.len()
    }

    /// Declares the storage tier's replica-chain length: a home server's
    /// payloads are also served by the next `replication - 1` endpoints
    /// (mod server count), so a recovery redial that cannot reach the
    /// primary fails over down the chain instead of giving up. `1` (the
    /// default) means unreplicated.
    #[must_use]
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.replication = replication.max(1);
        self
    }

    /// Overrides the recovery backoff schedule (defaults to
    /// [`RetryPolicy::default`]).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Recovery counters so far: dial attempts made by recovery paths,
    /// times a home's traffic failed over to a replica endpoint, and
    /// batches resubmitted on fresh connections.
    pub fn failover_stats(&self) -> FailoverStats {
        self.failover
    }

    /// Dials *somewhere* that serves home `server`'s data: the replica
    /// chain is walked primary-first on every backoff attempt, so a
    /// restarted primary is recovered on the first failure event after its
    /// re-join rather than being abandoned for good.
    ///
    /// # Errors
    ///
    /// The final attempt's error once every chain endpoint has refused
    /// through the whole ladder.
    fn redial(&mut self, server: usize) -> WireResult<(usize, Connection)> {
        let chain = self.replication.min(self.addrs.len()).max(1);
        let mut last = None;
        for attempt in 0..self.retry.attempts {
            for k in 0..chain {
                let target = (server + k) % self.addrs.len();
                self.failover.redials += 1;
                match self.transport.dial_once(&self.addrs[target]) {
                    Ok(conn) => return Ok((target, conn)),
                    Err(e) => last = Some(e),
                }
            }
            if attempt + 1 < self.retry.attempts {
                std::thread::sleep(self.retry.delay(attempt, server as u64));
            }
        }
        Err(last.unwrap_or_else(|| WireError::Unroutable(self.addrs[server].clone())))
    }

    fn conn(&mut self, server: usize) -> WireResult<&mut MuxConn> {
        if self.conns[server].is_none() {
            // First use. Without replicas: the patient dial (peers may
            // still be starting). With a chain: one fast attempt at the
            // primary, then the recovery ladder — its paced walk covers
            // both a still-starting primary and a dead one that must fail
            // over, without waiting out the transport's startup grace.
            let fresh = if self.replication > 1 {
                match self.transport.dial_once(&self.addrs[server]) {
                    Ok(conn) => conn,
                    Err(_) => {
                        let (target, conn) = self.redial(server)?;
                        if target != server {
                            self.failover.replica_failovers += 1;
                        }
                        conn
                    }
                }
            } else {
                self.transport.dial(&self.addrs[server])?
            };
            let (sink, stream) = fresh.split();
            let fd = stream.raw_fd();
            self.poller.register(server as u64, fd);
            self.conns[server] = Some(MuxConn {
                sink,
                stream,
                fd,
                ready: HashMap::new(),
                pending: HashMap::new(),
                pool_seen: (0, 0),
            });
        }
        Ok(self.conns[server].as_mut().expect("just dialled"))
    }

    /// Replaces a dead connection with a fresh dial — down the replica
    /// chain when the primary stays unreachable through the backoff ladder
    /// — and resubmits every outstanding request on it, masking a storage
    /// endpoint death. Partially accumulated chunks are discarded — the
    /// fresh connection re-answers each request in full, so nothing is
    /// double-counted.
    ///
    /// # Errors
    ///
    /// Propagates dial/resubmission failures (the whole chain is gone).
    fn reconnect(&mut self, server: usize) -> WireResult<()> {
        let (pending, old_fd) = self.conns[server]
            .take()
            .map(|c| (c.pending, c.fd))
            .unwrap_or_default();
        // The old connection (and its fd) is gone by now; deregister
        // BEFORE dialling so a kernel-recycled descriptor number cannot be
        // mistaken for the old registration.
        self.poller.deregister(server as u64, old_fd);
        let (target, fresh) = self.redial(server)?;
        if target != server {
            self.failover.replica_failovers += 1;
        }
        let (sink, stream) = fresh.split();
        let fd = stream.raw_fd();
        self.poller.register(server as u64, fd);
        let mut conn = MuxConn {
            sink,
            stream,
            fd,
            ready: HashMap::new(),
            pending,
            pool_seen: (0, 0),
        };
        let resubmit_ns = self.telemetry.as_ref().map(|_| crate::service::now_ns());
        for (req_id, nodes) in &conn.pending {
            conn.sink.send(&Frame::FetchBatchRequest {
                req_id: *req_id,
                nodes: nodes.clone(),
                issued_ns: resubmit_ns,
            })?;
            self.failover.batches_resubmitted += 1;
        }
        self.conns[server] = Some(conn);
        self.reconnects += 1;
        Ok(())
    }

    /// Puts one batch request on the wire towards `server` and returns its
    /// correlation id without waiting for the reply. A send failure on a
    /// kept connection (peer restarted since the last exchange) is retried
    /// exactly once on a fresh dial.
    ///
    /// # Errors
    ///
    /// Propagates dial failures and repeated send failures.
    pub fn submit(&mut self, server: usize, nodes: &[NodeId]) -> WireResult<u64> {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let frame = Frame::FetchBatchRequest {
            req_id,
            nodes: nodes.to_vec(),
            issued_ns: self.telemetry.as_ref().map(|_| crate::service::now_ns()),
        };
        let conn = self.conn(server)?;
        conn.pending.insert(req_id, nodes.to_vec());
        if conn.sink.send(&frame).is_err() {
            // The reconnect resubmits everything pending, this request
            // included.
            self.reconnect(server)?;
        }
        self.outstanding += 1;
        if let Some(t) = &self.telemetry {
            t.batch_submitted(self.outstanding);
        }
        Ok(req_id)
    }

    /// Waits for one submitted batch (see `BatchMux::collect_many`).
    ///
    /// # Errors
    ///
    /// Propagates transport failures and protocol violations.
    pub fn collect(&mut self, server: usize, req_id: u64) -> WireResult<BatchPayloads> {
        let mut out = self.collect_many(&[(server, req_id)])?;
        Ok(out.pop().expect("one requested, one returned"))
    }

    /// Drains at most one ready frame from `server`'s connection into the
    /// reassembly map, returning whether a frame landed.
    ///
    /// Chunked responses accumulate under their correlation id until the
    /// requested node count is reached; a frame answering a request that
    /// is *not* outstanding — a server bug, or a stale chunk after its
    /// request completed — is rejected rather than stashed, so the
    /// reassembly map cannot leak entries nobody will ever collect.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] on non-batch frames and unknown correlation
    /// ids; transport errors (the caller decides whether to reconnect).
    pub fn poll_server(&mut self, server: usize) -> WireResult<bool> {
        let conn = self.conns[server]
            .as_mut()
            .ok_or_else(|| WireError::Protocol(format!("server {server}: poll before submit")))?;
        match conn.stream.try_recv() {
            Ok(Some(Frame::FetchBatchResponse {
                req_id: got,
                payloads,
            })) => {
                if !conn.pending.contains_key(&got) {
                    return Err(WireError::Protocol(format!(
                        "storage server {server} answered request {got}, which is not outstanding"
                    )));
                }
                conn.ready.entry(got).or_default().extend(payloads);
                sample_pool(&self.telemetry, conn.stream.as_ref(), &mut conn.pool_seen);
                Ok(true)
            }
            Ok(Some(other)) => Err(WireError::Protocol(format!(
                "storage server {server} sent {} to a batch fetch",
                other.kind()
            ))),
            Ok(None) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Takes `req_id`'s payloads if its response has fully arrived
    /// (possibly across several chunked frames). Purely local: no I/O.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] when the request was never submitted or the
    /// server answered more nodes than were asked.
    pub fn take_ready(&mut self, server: usize, req_id: u64) -> WireResult<Option<BatchPayloads>> {
        let conn = self.conns[server].as_mut().ok_or_else(|| {
            WireError::Protocol(format!("server {server}: collect before submit"))
        })?;
        let expected = conn.pending.get(&req_id).map(Vec::len).ok_or_else(|| {
            WireError::Protocol(format!(
                "server {server}: collect of unknown request {req_id}"
            ))
        })?;
        // Complete once every requested node has been answered — possibly
        // across several chunked response frames. The server sends at
        // least one frame even for an empty batch, so presence of the
        // entry marks "response began".
        let Some(got) = conn.ready.get(&req_id) else {
            return Ok(None);
        };
        match got.len().cmp(&expected) {
            std::cmp::Ordering::Equal => {
                let payloads = conn.ready.remove(&req_id);
                conn.pending.remove(&req_id);
                self.outstanding = self.outstanding.saturating_sub(1);
                Ok(payloads)
            }
            std::cmp::Ordering::Greater => Err(WireError::Protocol(format!(
                "storage server {server} answered {} nodes to a {expected}-node batch",
                got.len()
            ))),
            std::cmp::Ordering::Less => Ok(None),
        }
    }

    /// Masks one connection failure observed by a poll: redials and
    /// resubmits (at most once per server per `budget`), or propagates
    /// the error when the budget is spent or the failure is a protocol
    /// violation (reconnecting cannot repair a misbehaving server).
    fn mask_poll_failure(
        &mut self,
        server: usize,
        error: WireError,
        budget: &mut [bool],
    ) -> WireResult<()> {
        if matches!(error, WireError::Protocol(_)) || budget[server] {
            return Err(error);
        }
        budget[server] = true;
        self.reconnect(server)
    }

    /// Readiness loop: waits until every `(server, req_id)` in `wanted`
    /// has its response, returning payload vectors in `wanted` order.
    ///
    /// Each iteration polls every still-pending connection without
    /// blocking, so whichever storage server answers first is drained
    /// first; replies for *other* outstanding requests on the same
    /// connection are stashed by correlation id rather than rejected,
    /// which is what makes out-of-order completion safe.
    ///
    /// # Errors
    ///
    /// Propagates transport failures, and [`WireError::Protocol`] when a
    /// storage server sends anything but a batch response.
    pub fn collect_many(&mut self, wanted: &[(usize, u64)]) -> WireResult<Vec<BatchPayloads>> {
        let mut out: Vec<Option<BatchPayloads>> = vec![None; wanted.len()];
        let mut remaining = wanted.len();
        // One reconnect attempt per server per collect: masks a storage
        // restart without looping forever against a peer that is gone.
        let mut reconnected = vec![false; self.conns.len()];
        while remaining > 0 {
            let mut progressed = false;
            for (slot, &(server, req_id)) in wanted.iter().enumerate() {
                if out[slot].is_some() {
                    continue;
                }
                if let Some(payloads) = self.take_ready(server, req_id)? {
                    out[slot] = Some(payloads);
                    remaining -= 1;
                    progressed = true;
                    continue;
                }
                match self.poll_server(server) {
                    Ok(landed) => progressed |= landed,
                    Err(e) => {
                        self.mask_poll_failure(server, e, &mut reconnected)?;
                        progressed = true;
                    }
                }
            }
            // An empty sweep means every pending stream found its socket
            // empty; park on the poller until a reply byte lands (epoll)
            // or pay one ladder rung (swept fallback) so a slow server
            // doesn't cost a core.
            if progressed {
                self.note_progress();
            } else {
                self.idle_wait(IDLE_WAIT);
            }
        }
        Ok(out.into_iter().map(|p| p.expect("collected")).collect())
    }
}

/// The miss path behind a processor's cache: a frontier's miss set
/// grouped per storage server, one pipelined batch frame each.
///
/// Single-node fetches (reachability expansions, random-walk steps) travel
/// as one-element batches over the same multiplexed connections, so a
/// processor speaks only the batch protocol.
pub struct MultiplexedStorageSource {
    partitioner: Arc<dyn Partitioner>,
    mux: BatchMux,
}

impl MultiplexedStorageSource {
    /// A source fetching from `storage_addrs` (index = storage server id)
    /// with `partitioner` as the placement function.
    pub fn new(
        transport: Arc<dyn Transport>,
        storage_addrs: &[String],
        partitioner: Arc<dyn Partitioner>,
    ) -> Self {
        Self {
            partitioner,
            mux: BatchMux::new(transport, storage_addrs),
        }
    }

    /// [`MultiplexedStorageSource::new`]: there is one poller, so the
    /// [`PollerKind`] selects nothing. Named by the benchmark (`load/`);
    /// the next `benchmark` PR drops it.
    pub fn with_poller(
        transport: Arc<dyn Transport>,
        storage_addrs: &[String],
        partitioner: Arc<dyn Partitioner>,
        _poller: PollerKind,
    ) -> Self {
        Self::new(transport, storage_addrs, partitioner)
    }

    /// Registers a caller-owned descriptor with the underlying
    /// multiplexer's poller (see `BatchMux::register_external`).
    pub fn register_external(&mut self, token: u64, fd: Option<i32>) {
        self.mux.register_external(token, fd);
    }

    /// Parks until any registered connection has traffic (see
    /// `BatchMux::idle_wait`).
    pub fn idle_wait(&mut self, timeout: Duration) {
        self.mux.idle_wait(timeout);
    }

    /// Resets the poller's idle clock (see `BatchMux::note_progress`).
    pub fn note_progress(&mut self) {
        self.mux.note_progress();
    }

    /// Routes the multiplexer's batch-depth and buffer-pool telemetry
    /// into `telemetry` (see `BatchMux::set_telemetry`).
    pub fn set_telemetry(&mut self, telemetry: Arc<TelemetryCounters>) {
        self.mux.set_telemetry(telemetry);
    }

    /// Declares the tier's replica-chain length (see
    /// `BatchMux::with_replication`).
    #[must_use]
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.mux = self.mux.with_replication(replication);
        self
    }

    /// Overrides the recovery backoff schedule (see
    /// `BatchMux::with_retry`).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.mux = self.mux.with_retry(retry);
        self
    }

    /// Recovery counters so far (see `BatchMux::failover_stats`).
    pub fn failover_stats(&self) -> FailoverStats {
        self.mux.failover_stats()
    }

    fn home(&self, node: NodeId) -> usize {
        self.partitioner.assign(node) % self.mux.server_count()
    }
}

impl RecordSource for MultiplexedStorageSource {
    fn fetch_raw(&mut self, node: NodeId) -> Option<(u16, Bytes)> {
        let home = self.home(node);
        let exchange = self
            .mux
            .submit(home, std::slice::from_ref(&node))
            .and_then(|req_id| self.mux.collect(home, req_id));
        match exchange {
            Ok(mut payloads) => {
                assert_eq!(payloads.len(), 1, "one node in, one payload out");
                payloads.pop().expect("length checked")
            }
            Err(e) => panic!("storage batch fetch failed: {e}"),
        }
    }
}

/// Most nodes a single [`Frame::FetchBatchRequest`] may carry: keeps the
/// encoded request (13 + 4·N bytes) around 4 MiB, far under
/// [`crate::frame::MAX_FRAME_BYTES`], however large the frontier — a
/// per-server miss set beyond this is simply pipelined as several
/// requests on the same connection.
pub const MAX_BATCH_REQUEST_NODES: usize = 1 << 20;

/// A submitted-but-uncollected frontier fetch: the per-server requests on
/// the wire, the responses gathered so far, and where each node's payload
/// lands in the caller's order.
///
/// Returned by [`MultiplexedStorageSource::submit_frontier`] and polled
/// with [`MultiplexedStorageSource::try_collect`] — the split that lets a
/// processor run another query's compute stage while this fetch is in
/// flight.
pub struct PendingBatch {
    /// (server, correlation id, caller slots) per request on the wire.
    requests: Vec<(usize, u64, Vec<usize>)>,
    /// Fully reassembled responses, indexed like `requests`.
    collected: Vec<Option<BatchPayloads>>,
    /// Requests still awaited.
    remaining: usize,
    /// Caller's frontier length (shapes the final payload vector).
    node_count: usize,
    /// One reconnect attempt per server over this batch's lifetime.
    reconnected: Vec<bool>,
}

impl PendingBatch {
    /// Nodes the frontier asked for (the length of the eventual payload
    /// vector).
    pub fn node_count(&self) -> usize {
        self.node_count
    }
}

impl MultiplexedStorageSource {
    /// Puts a whole frontier's batch requests on the wire — grouped per
    /// storage server by the placement function, chunked under the
    /// per-frame node cap — without waiting for any reply.
    ///
    /// # Errors
    ///
    /// Propagates dial and send failures.
    pub fn submit_frontier(&mut self, nodes: &[NodeId]) -> WireResult<PendingBatch> {
        let servers = self.mux.server_count();
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); servers];
        for (i, &node) in nodes.iter().enumerate() {
            groups[self.home(node)].push(i);
        }
        let mut requests: Vec<(usize, u64, Vec<usize>)> = Vec::new();
        let mut batch: Vec<NodeId> = Vec::new();
        for (server, group) in groups.iter().enumerate() {
            for slots in group.chunks(MAX_BATCH_REQUEST_NODES) {
                batch.clear();
                batch.extend(slots.iter().map(|&i| nodes[i]));
                let req_id = self.mux.submit(server, &batch)?;
                requests.push((server, req_id, slots.to_vec()));
            }
        }
        let remaining = requests.len();
        let collected = requests.iter().map(|_| None).collect();
        Ok(PendingBatch {
            requests,
            collected,
            remaining,
            node_count: nodes.len(),
            reconnected: vec![false; servers],
        })
    }

    /// Polls the in-flight batch without blocking: `Ok(Some)` with the
    /// full frontier's payloads (caller order) once every involved server
    /// has answered, `Ok(None)` while responses are still travelling.
    ///
    /// A dead connection is masked by one redial-and-resubmit per server
    /// per batch, mirroring `BatchMux::collect_many`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures past the reconnect budget and
    /// protocol violations.
    pub fn try_collect(&mut self, pending: &mut PendingBatch) -> WireResult<Option<BatchPayloads>> {
        for (i, &(server, req_id, _)) in pending.requests.iter().enumerate() {
            if pending.collected[i].is_some() {
                continue;
            }
            loop {
                if let Some(payloads) = self.mux.take_ready(server, req_id)? {
                    pending.collected[i] = Some(payloads);
                    pending.remaining -= 1;
                    break;
                }
                match self.mux.poll_server(server) {
                    Ok(true) => continue,
                    Ok(false) => break,
                    Err(e) => {
                        self.mux
                            .mask_poll_failure(server, e, &mut pending.reconnected)?;
                    }
                }
            }
        }
        if pending.remaining > 0 {
            return Ok(None);
        }
        let mut out: BatchPayloads = vec![None; pending.node_count];
        for ((server, _, slots), payloads) in
            pending.requests.iter().zip(pending.collected.drain(..))
        {
            let payloads = payloads.expect("remaining == 0 means all collected");
            assert_eq!(
                payloads.len(),
                slots.len(),
                "server {server} answered a different batch size"
            );
            for (&slot, payload) in slots.iter().zip(payloads) {
                out[slot] = payload;
            }
        }
        Ok(Some(out))
    }
}

impl BatchSource for MultiplexedStorageSource {
    fn fetch_batch(&mut self, nodes: &[NodeId]) -> Vec<Option<(u16, Bytes)>> {
        if nodes.is_empty() {
            return Vec::new();
        }
        // Submit phase: every involved server's batch goes on the wire
        // before any reply is awaited — the pipelining that amortises the
        // per-exchange RTT across the whole frontier.
        let mut pending = match self.submit_frontier(nodes) {
            Ok(p) => p,
            Err(e) => panic!("storage batch submit failed: {e}"),
        };
        // Collect phase: readiness loop over every pending connection —
        // the same submit/poll primitives the overlapped pipeline drives,
        // just awaited inline. An unproductive poll round means every
        // involved stream found its socket empty, so parking on the
        // poller is safe.
        loop {
            let before = pending.remaining;
            match self.try_collect(&mut pending) {
                Ok(Some(out)) => return out,
                Ok(None) => {
                    if pending.remaining < before {
                        self.mux.note_progress();
                    } else {
                        self.mux.idle_wait(IDLE_WAIT);
                    }
                }
                Err(e) => panic!("storage batch fetch failed: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InProcTransport, Listener, TcpTransport};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn payload(i: u32) -> Option<(u16, Bytes)> {
        Some((0, Bytes::from(i.to_le_bytes().to_vec())))
    }

    /// A storage stand-in that answers every batch with one payload per
    /// node, optionally holding replies back to force reordering.
    fn batch_server(
        mut listener: Box<dyn Listener>,
        reverse_pairs: bool,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let Ok(mut conn) = listener.accept() else {
                return;
            };
            let mut held: Vec<Frame> = Vec::new();
            loop {
                match conn.recv() {
                    Ok(Frame::FetchBatchRequest { req_id, nodes, .. }) => {
                        let payloads = nodes.iter().map(|w| payload(w.raw())).collect();
                        let response = Frame::FetchBatchResponse { req_id, payloads };
                        if reverse_pairs {
                            // Answer requests two at a time, newest first,
                            // to prove req_id correlation.
                            held.push(response);
                            if held.len() == 2 {
                                for f in held.drain(..).rev() {
                                    if conn.send(&f).is_err() {
                                        return;
                                    }
                                }
                            }
                        } else if conn.send(&response).is_err() {
                            return;
                        }
                    }
                    Ok(Frame::Shutdown) | Err(_) => return,
                    Ok(_) => return,
                }
            }
        })
    }

    fn mux_round_trips_over(transport: Arc<dyn Transport>) {
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = batch_server(listener, false);
        let mut mux = BatchMux::new(Arc::clone(&transport), &[addr]);
        let nodes: Vec<NodeId> = (0..100).map(n).collect();
        let req = mux.submit(0, &nodes).unwrap();
        let payloads = mux.collect(0, req).unwrap();
        assert_eq!(payloads.len(), nodes.len());
        for (node, got) in nodes.iter().zip(&payloads) {
            assert_eq!(*got, payload(node.raw()));
        }
        drop(mux);
        server.join().unwrap();
    }

    #[test]
    fn inproc_mux_round_trips() {
        mux_round_trips_over(Arc::new(InProcTransport::new()));
    }

    #[test]
    fn tcp_mux_round_trips() {
        mux_round_trips_over(Arc::new(TcpTransport::new()));
    }

    fn out_of_order_replies_correlate_over(transport: Arc<dyn Transport>) {
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = batch_server(listener, true);
        let mut mux = BatchMux::new(Arc::clone(&transport), &[addr]);

        // Two batches pipelined on one connection; the server replies to
        // the *second* first, so collecting in submit order exercises the
        // stash-and-match path both ways.
        let first = mux.submit(0, &[n(1), n(2)]).unwrap();
        let second = mux.submit(0, &[n(7)]).unwrap();
        assert_ne!(first, second);
        let got_first = mux.collect(0, first).unwrap();
        let got_second = mux.collect(0, second).unwrap();
        assert_eq!(got_first, vec![payload(1), payload(2)]);
        assert_eq!(got_second, vec![payload(7)]);
        drop(mux);
        server.join().unwrap();
    }

    #[test]
    fn inproc_out_of_order_replies_correlate() {
        out_of_order_replies_correlate_over(Arc::new(InProcTransport::new()));
    }

    #[test]
    fn tcp_out_of_order_replies_correlate() {
        out_of_order_replies_correlate_over(Arc::new(TcpTransport::new()));
    }

    #[test]
    fn chunked_responses_reassemble_by_node_count() {
        // A server may stream one batch's answer as several frames (the
        // storage service does this past its soft byte budget); the mux
        // must concatenate them — even interleaved with another request's
        // chunks — until every node is answered.
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let mut held: Vec<(u64, Vec<NodeId>)> = Vec::new();
            for _ in 0..2 {
                match conn.recv().unwrap() {
                    Frame::FetchBatchRequest { req_id, nodes, .. } => held.push((req_id, nodes)),
                    other => panic!("server got {}", other.kind()),
                }
            }
            // Answer both requests in per-node chunks, alternating between
            // the two correlation ids.
            let mut cursors = [0usize, 0];
            loop {
                let mut sent = false;
                for (i, (req_id, nodes)) in held.iter().enumerate() {
                    if cursors[i] < nodes.len() {
                        let w = nodes[cursors[i]];
                        cursors[i] += 1;
                        conn.send(&Frame::FetchBatchResponse {
                            req_id: *req_id,
                            payloads: vec![payload(w.raw())],
                        })
                        .unwrap();
                        sent = true;
                    }
                }
                if !sent {
                    break;
                }
            }
        });

        let mut mux = BatchMux::new(Arc::clone(&transport), &[addr]);
        let first = mux.submit(0, &[n(1), n(2), n(3)]).unwrap();
        let second = mux.submit(0, &[n(10), n(11)]).unwrap();
        assert_eq!(
            mux.collect(0, first).unwrap(),
            vec![payload(1), payload(2), payload(3)]
        );
        assert_eq!(
            mux.collect(0, second).unwrap(),
            vec![payload(10), payload(11)]
        );
        server.join().unwrap();
    }

    fn mux_reconnects_over(transport: Arc<dyn Transport>) {
        let listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        // Serve two connections in sequence: the first dies with a request
        // unanswered, forcing the mux to redial and resubmit it.
        let mut listener = listener;
        let server = std::thread::spawn(move || {
            // First connection: answer one batch, read the next request,
            // then drop it on the floor.
            let mut conn = listener.accept().unwrap();
            match conn.recv().unwrap() {
                Frame::FetchBatchRequest { req_id, nodes, .. } => {
                    let payloads = nodes.iter().map(|w| payload(w.raw())).collect();
                    conn.send(&Frame::FetchBatchResponse { req_id, payloads })
                        .unwrap();
                }
                other => panic!("server got {}", other.kind()),
            }
            let _ = conn.recv();
            drop(conn);
            // Second connection: serve whatever is resubmitted.
            let mut conn = listener.accept().unwrap();
            while let Ok(Frame::FetchBatchRequest { req_id, nodes, .. }) = conn.recv() {
                let payloads = nodes.iter().map(|w| payload(w.raw())).collect();
                if conn
                    .send(&Frame::FetchBatchResponse { req_id, payloads })
                    .is_err()
                {
                    break;
                }
            }
        });

        let mut mux = BatchMux::new(Arc::clone(&transport), &[addr]);
        let first = mux.submit(0, &[n(1)]).unwrap();
        assert_eq!(mux.collect(0, first).unwrap(), vec![payload(1)]);
        // The server dies holding this one; the mux must mask it.
        let second = mux.submit(0, &[n(2), n(3)]).unwrap();
        assert_eq!(
            mux.collect(0, second).unwrap(),
            vec![payload(2), payload(3)]
        );
        assert_eq!(mux.reconnects, 1);
        drop(mux);
        server.join().unwrap();
    }

    #[test]
    fn inproc_mux_reconnects_after_peer_death() {
        mux_reconnects_over(Arc::new(InProcTransport::new()));
    }

    #[test]
    fn tcp_mux_reconnects_after_peer_death() {
        mux_reconnects_over(Arc::new(TcpTransport::new()));
    }

    /// A connection dying *mid-batch*, with chunked responses partially
    /// received, must not leak reassembly state: the partial chunks are
    /// discarded with the dead connection, the resubmitted request is
    /// re-answered in full on the fresh one, and nothing is double-counted
    /// (stale chunks surviving the reconnect would trip the
    /// answered-more-nodes-than-asked protocol check).
    fn mux_mid_batch_death_discards_partial_chunks_over(transport: Arc<dyn Transport>) {
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = std::thread::spawn(move || {
            // First connection: stream 2 of the 4 requested nodes as
            // per-node chunks, then die mid-response.
            let mut conn = listener.accept().unwrap();
            let (req_id, nodes) = match conn.recv().unwrap() {
                Frame::FetchBatchRequest { req_id, nodes, .. } => (req_id, nodes),
                other => panic!("server got {}", other.kind()),
            };
            assert_eq!(nodes.len(), 4);
            for w in &nodes[..2] {
                conn.send(&Frame::FetchBatchResponse {
                    req_id,
                    payloads: vec![payload(w.raw())],
                })
                .unwrap();
            }
            drop(conn);
            // Second connection: answer the resubmission in full (also
            // chunked, to exercise reassembly on the fresh connection).
            let mut conn = listener.accept().unwrap();
            while let Ok(Frame::FetchBatchRequest { req_id, nodes, .. }) = conn.recv() {
                for w in &nodes {
                    if conn
                        .send(&Frame::FetchBatchResponse {
                            req_id,
                            payloads: vec![payload(w.raw())],
                        })
                        .is_err()
                    {
                        return;
                    }
                }
            }
        });

        let mut mux = BatchMux::new(Arc::clone(&transport), &[addr]);
        let req = mux.submit(0, &[n(1), n(2), n(3), n(4)]).unwrap();
        let got = mux.collect(0, req).unwrap();
        assert_eq!(
            got,
            vec![payload(1), payload(2), payload(3), payload(4)],
            "resubmitted batch must be answered in full, exactly once"
        );
        assert_eq!(mux.reconnects, 1);
        // The mux is healthy afterwards: a new exchange works and no stale
        // reassembly entries interfere.
        let req = mux.submit(0, &[n(9)]).unwrap();
        assert_eq!(mux.collect(0, req).unwrap(), vec![payload(9)]);
        drop(mux);
        server.join().unwrap();
    }

    #[test]
    fn inproc_mid_batch_death_discards_partial_chunks() {
        mux_mid_batch_death_discards_partial_chunks_over(Arc::new(InProcTransport::new()));
    }

    #[test]
    fn tcp_mid_batch_death_discards_partial_chunks() {
        mux_mid_batch_death_discards_partial_chunks_over(Arc::new(TcpTransport::new()));
    }

    #[test]
    fn response_to_unknown_request_is_rejected_not_leaked() {
        // A server answering a correlation id that is not outstanding
        // (bug, or a stale chunk after its request completed) used to be
        // stashed in the reassembly map forever; it must be a protocol
        // error instead.
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let req_id = match conn.recv().unwrap() {
                Frame::FetchBatchRequest { req_id, nodes, .. } => {
                    let payloads = nodes.iter().map(|w| payload(w.raw())).collect();
                    conn.send(&Frame::FetchBatchResponse { req_id, payloads })
                        .unwrap();
                    req_id
                }
                other => panic!("server got {}", other.kind()),
            };
            // A spurious extra chunk for the just-completed request.
            conn.send(&Frame::FetchBatchResponse {
                req_id,
                payloads: vec![payload(99)],
            })
            .unwrap();
            // Hold the connection open until the client has judged it.
            let _ = conn.recv();
        });

        let mut mux = BatchMux::new(Arc::clone(&transport), &[addr]);
        let first = mux.submit(0, &[n(1)]).unwrap();
        assert_eq!(mux.collect(0, first).unwrap(), vec![payload(1)]);
        // Collecting the next request hits the stale chunk: the mux must
        // reject it as a protocol violation, not hoard it.
        let second = mux.submit(0, &[n(2)]).unwrap();
        let err = mux.collect(0, second).unwrap_err();
        assert!(
            matches!(err, WireError::Protocol(ref m) if m.contains("not outstanding")),
            "got {err}"
        );
        drop(mux);
        server.join().unwrap();
    }

    #[test]
    fn submit_frontier_try_collect_round_trips() {
        // The staged (non-blocking) surface delivers the same payloads as
        // the blocking fetch_batch, in caller order, across servers.
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let mut addrs = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..3 {
            let listener = transport.listen(&transport.any_addr()).unwrap();
            addrs.push(listener.addr());
            servers.push(batch_server(listener, false));
        }
        let partitioner: Arc<dyn Partitioner> = Arc::new(grouting_storage::HashPartitioner::new(3));
        let mut source = MultiplexedStorageSource::new(Arc::clone(&transport), &addrs, partitioner);
        let nodes: Vec<NodeId> = (0..30).map(n).collect();
        let mut pending = source.submit_frontier(&nodes).unwrap();
        assert_eq!(pending.node_count(), nodes.len());
        let got = loop {
            if let Some(out) = source.try_collect(&mut pending).unwrap() {
                break out;
            }
            std::thread::yield_now();
        };
        assert_eq!(got.len(), nodes.len());
        for (node, p) in nodes.iter().zip(&got) {
            assert_eq!(*p, payload(node.raw()), "node {node}");
        }
        drop(source);
        for s in servers {
            s.join().unwrap();
        }
    }

    #[test]
    fn collect_many_drains_multiple_servers() {
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let mut addrs = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..3 {
            let listener = transport.listen(&transport.any_addr()).unwrap();
            addrs.push(listener.addr());
            servers.push(batch_server(listener, false));
        }
        let mut mux = BatchMux::new(Arc::clone(&transport), &addrs);
        let wanted: Vec<(usize, u64)> = (0..3)
            .map(|s| {
                let nodes: Vec<NodeId> = (0..4).map(|i| n(s as u32 * 10 + i)).collect();
                (s, mux.submit(s, &nodes).unwrap())
            })
            .collect();
        let responses = mux.collect_many(&wanted).unwrap();
        for (s, payloads) in responses.iter().enumerate() {
            assert_eq!(payloads.len(), 4);
            assert_eq!(payloads[0], payload(s as u32 * 10));
        }
        drop(mux);
        for s in servers {
            s.join().unwrap();
        }
    }

    /// A batch server that accepts ONE connection, unbinds its listener
    /// immediately (so recovery redials to it fail fast once it dies),
    /// answers `answer` requests, then dies holding the next one.
    fn flaky_batch_server(
        mut listener: Box<dyn Listener>,
        answer: usize,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let Ok(mut conn) = listener.accept() else {
                return;
            };
            drop(listener);
            for _ in 0..answer {
                match conn.recv() {
                    Ok(Frame::FetchBatchRequest { req_id, nodes, .. }) => {
                        let payloads = nodes.iter().map(|w| payload(w.raw())).collect();
                        conn.send(&Frame::FetchBatchResponse { req_id, payloads })
                            .unwrap();
                    }
                    _ => return,
                }
            }
            let _ = conn.recv();
        })
    }

    #[test]
    fn mux_fails_over_to_replica_then_recovers_primary() {
        use crate::transport::RetryPolicy;
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let a = transport.listen(&transport.any_addr()).unwrap();
        let addr_a = a.addr();
        let b = transport.listen(&transport.any_addr()).unwrap();
        let addr_b = b.addr();
        // Both endpoints serve home 0's data (replica chain of length 2);
        // each answers one request and dies holding the next.
        let sa = flaky_batch_server(a, 1);
        let sb = flaky_batch_server(b, 1);
        let mut mux = BatchMux::new(Arc::clone(&transport), &[addr_a.clone(), addr_b])
            .with_replication(2)
            .with_retry(RetryPolicy::new(2, Duration::from_millis(1)));

        // Exchange 1: served by the primary endpoint.
        let req = mux.submit(0, &[n(1)]).unwrap();
        assert_eq!(mux.collect(0, req).unwrap(), vec![payload(1)]);

        // Exchange 2: the primary dies holding it; recovery walks the
        // chain and the replica re-answers the resubmission.
        let req = mux.submit(0, &[n(2)]).unwrap();
        assert_eq!(mux.collect(0, req).unwrap(), vec![payload(2)]);
        assert_eq!(mux.failover_stats().replica_failovers, 1);

        // The primary re-joins at its old address; when the replica dies
        // in turn, the chain walk (primary-first) recovers the primary.
        let a2 = transport.listen(&addr_a).unwrap();
        let sa2 = batch_server(a2, false);
        let req = mux.submit(0, &[n(3)]).unwrap();
        assert_eq!(mux.collect(0, req).unwrap(), vec![payload(3)]);

        let stats = mux.failover_stats();
        assert_eq!(
            stats.replica_failovers, 1,
            "the recovery after the replica's death lands back on the primary"
        );
        assert_eq!(stats.batches_resubmitted, 2);
        assert_eq!(stats.redials, 3, "primary-fail, replica-ok, primary-ok");
        assert_eq!(mux.reconnects, 2);
        drop(mux);
        sa.join().unwrap();
        sb.join().unwrap();
        sa2.join().unwrap();
    }

    /// A batch server that survives any number of client connection
    /// deaths: each torn or dropped connection just moves it back to
    /// accept. Stopped by a [`Frame::Shutdown`].
    fn resilient_batch_server(mut listener: Box<dyn Listener>) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || loop {
            let Ok(mut conn) = listener.accept() else {
                return;
            };
            loop {
                match conn.recv() {
                    Ok(Frame::FetchBatchRequest { req_id, nodes, .. }) => {
                        let payloads = nodes.iter().map(|w| payload(w.raw())).collect();
                        if conn
                            .send(&Frame::FetchBatchResponse { req_id, payloads })
                            .is_err()
                        {
                            break;
                        }
                    }
                    Ok(Frame::Shutdown) => return,
                    Ok(_) | Err(_) => break,
                }
            }
        })
    }

    proptest::proptest! {
        /// A connection killed mid-frame — the fault layer tears one
        /// scripted request to `keep` bytes, anywhere in a pipelined
        /// sequence — never corrupts the stream: the server never decodes
        /// a torn frame as valid, the redialled connection resubmits
        /// exactly the outstanding requests, reassembly discards stale
        /// partial state, and every batch is answered in full exactly once
        /// (double answers would trip the mux's size checks). Exercised
        /// over both transports.
        #[test]
        fn prop_truncated_connection_never_corrupts_stream(
            sizes in proptest::collection::vec(1usize..6, 1..5),
            tear in 0u64..6,
            keep in 1usize..40,
        ) {
            use crate::fault::{FaultKind, FaultPlan, FaultRule, FaultyTransport};
            use crate::transport::RetryPolicy;
            let transports: Vec<Arc<dyn Transport>> =
                vec![Arc::new(InProcTransport::new()), Arc::new(TcpTransport::new())];
            for transport in transports {
                let listener = transport.listen(&transport.any_addr()).unwrap();
                let addr = listener.addr();
                let server = resilient_batch_server(listener);
                let plan = FaultPlan::new().with(FaultRule::new(FaultKind::TruncateFrame {
                    frame: tear,
                    keep_bytes: keep,
                }));
                let faulty = FaultyTransport::wrap(Arc::clone(&transport), plan);
                let mut mux = BatchMux::new(faulty, std::slice::from_ref(&addr))
                    .with_retry(RetryPolicy::new(4, Duration::from_millis(1)));

                // Pipeline every batch, then collect in submit order.
                let mut wanted = Vec::new();
                for (b, &size) in sizes.iter().enumerate() {
                    let nodes: Vec<NodeId> =
                        (0..size).map(|i| n((b * 100 + i) as u32)).collect();
                    let req = mux.submit(0, &nodes).unwrap();
                    wanted.push((0usize, req));
                }
                let got = mux.collect_many(&wanted).unwrap();
                for (b, (&size, payloads)) in sizes.iter().zip(&got).enumerate() {
                    let want: Vec<_> =
                        (0..size).map(|i| payload((b * 100 + i) as u32)).collect();
                    proptest::prop_assert_eq!(payloads, &want, "batch {}", b);
                }
                if tear < sizes.len() as u64 {
                    proptest::prop_assert_eq!(mux.reconnects, 1);
                    proptest::prop_assert!(mux.failover_stats().batches_resubmitted >= 1);
                }
                drop(mux);
                let mut stop = transport.dial(&addr).unwrap();
                stop.send(&Frame::Shutdown).unwrap();
                drop(stop);
                server.join().unwrap();
            }
        }
    }
}
