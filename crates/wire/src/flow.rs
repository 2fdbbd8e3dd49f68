//! `grouting-flow`: pipelined, frontier-batched adjacency fetching.
//!
//! The one processor→storage miss path. A blocking request/reply
//! exchange per frontier node would make a multi-hop BFS pay one loopback
//! RTT (~16 µs) per discovered node, serialised; this module keeps many
//! fetches in flight per processor instead. [`MultiplexedStorageSource`]
//! groups a frontier's miss set by the placement function and puts one
//! [`Frame::FetchBatchRequest`] per storage server on the wire before
//! waiting for any reply; a single-node fetch is a batch of one.
//!
//! The source is the processor core's [`FetchSeam`]: the
//! [`crate::QueryPipeline`] decides without I/O, and submits
//! ([`FetchSeam::submit_frontier`]), polls ([`FetchSeam::try_collect`])
//! and reads the clock ([`FetchSeam::clock_ns`]) only through it, never
//! blocking. The processor loop hands the pipeline's [`crate::Wake`] to
//! [`MultiplexedStorageSource::honour`], the one idle policy: step again
//! at once, or park. The blocking [`BatchSource::fetch_batch`] honours
//! the same rule for serial callers.
//!
//! The source is the I/O shell over `mux::MuxState`, which decides
//! everything else without a socket or a clock: correlation by `req_id`
//! (so out-of-order completion is fine), chunk reassembly, connection
//! epochs, the dial ladder down the replica chain, resubmission, and the
//! rule that a request outlives at most one connection death. The shell
//! holds one framed connection per storage server and runs the one
//! collect loop, [`FetchSeam::try_collect`]: non-blocking
//! polls ([`crate::transport::FrameStream::try_recv`], `set_nonblocking`
//! under TCP) that drain whichever server answers first, with an empty
//! round parking on the one poller of [`crate::reactor`]. It is also the
//! one place that waits out a dial's backoff; recovery blocks the
//! processor until the ladder ends.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use grouting_graph::NodeId;
use grouting_metrics::FailoverStats;
use grouting_query::BatchSource;
use grouting_storage::Partitioner;
use grouting_trace::TelemetryCounters;

use crate::error::{WireError, WireResult};
use crate::frame::Frame;
use crate::mux::{Dial, Dialled, MuxState};
use crate::overlap::{FetchSeam, Wake};
use crate::reactor::{sample_pool, Poller, PollerKind, IDLE_WAIT};
use crate::transport::{FrameSink, FrameStream, RetryPolicy, Transport};

/// The processor↔storage fetch path — there is only one. Named by the
/// benchmark (`load/`); the next `benchmark` PR drops it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FetchMode {
    /// Frontier-batched, pipelined fetching through
    /// [`MultiplexedStorageSource`].
    #[default]
    Batched,
}

/// One batch's worth of per-node payloads: the serving server id and
/// encoded adjacency value, `None` where the node is not stored.
pub type BatchPayloads = Vec<Option<(u16, Bytes)>>;

/// One storage connection: its halves, its poller registration, and the
/// epoch [`MuxState`] numbered it with.
struct MuxConn {
    sink: Box<dyn FrameSink>,
    stream: Box<dyn FrameStream>,
    /// Raw descriptor registered with the poller (`None` for fd-less
    /// transports, which turn each wait into a swept ladder rung).
    fd: Option<i32>,
    epoch: u64,
    /// Last buffer-pool counters folded into telemetry (delta sampling).
    pool_seen: (u64, u64),
}

/// The miss path behind a processor's cache: a frontier's miss set
/// grouped per storage server, one pipelined batch frame each, over one
/// lazily dialled connection per server with any number of batches in
/// flight on it.
///
/// Single-node fetches (random-walk steps, re-fetches) travel as
/// one-element batches over the same connections, so a processor
/// speaks only the batch protocol. The processor submits and collects
/// through the [`FetchSeam`] ([`FetchSeam::submit_frontier`],
/// [`FetchSeam::try_collect`]); the blocking [`BatchSource::fetch_batch`]
/// serves serial drivers (the simulator's wire-backed workers, benches).
pub struct MultiplexedStorageSource {
    transport: Arc<dyn Transport>,
    addrs: Vec<String>,
    partitioner: Arc<dyn Partitioner>,
    state: MuxState,
    conns: Vec<Option<MuxConn>>,
    /// Readiness source an unproductive collect round parks on. Connection
    /// tokens are the server index; callers may register extra descriptors
    /// (a processor's router connection) under tokens ≥
    /// [`MultiplexedStorageSource::EXTERNAL_TOKEN_BASE`].
    poller: Poller,
    /// Deployment-shared telemetry. Doubles as the trace switch: when set,
    /// batch requests carry their issue stamp and pool/batch-depth
    /// counters accumulate; when unset the frames are byte-identical to an
    /// untraced deployment.
    telemetry: Option<Arc<TelemetryCounters>>,
}

impl MultiplexedStorageSource {
    /// First token available to
    /// [`MultiplexedStorageSource::register_external`] — far above any
    /// storage server index.
    pub const EXTERNAL_TOKEN_BASE: u64 = 1 << 32;

    /// A source fetching from `storage_addrs` (index = storage server id)
    /// with `partitioner` as the placement function.
    pub fn new(
        transport: Arc<dyn Transport>,
        storage_addrs: &[String],
        partitioner: Arc<dyn Partitioner>,
    ) -> Self {
        Self {
            transport,
            addrs: storage_addrs.to_vec(),
            partitioner,
            state: MuxState::new(storage_addrs.len()),
            conns: storage_addrs.iter().map(|_| None).collect(),
            poller: Poller::new(),
            telemetry: None,
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

    /// Registers a caller-owned descriptor (token ≥
    /// [`MultiplexedStorageSource::EXTERNAL_TOKEN_BASE`]) with the poller,
    /// so an idle wait also wakes on that connection's traffic. An `fd` of
    /// `None` (fd-less transport) turns every wait into a swept ladder
    /// rung.
    pub fn register_external(&mut self, token: u64, fd: Option<i32>) {
        debug_assert!(token >= Self::EXTERNAL_TOKEN_BASE);
        self.poller.register(token, fd);
    }

    /// Honours a round's [`Wake`] through the one idle policy, parking (up
    /// to [`IDLE_WAIT`]) until any registered connection has traffic. An
    /// idle wake is only safe when every awaited stream's last poll
    /// returned `None` — its socket was empty then (see
    /// [`crate::transport::FrameStream::try_recv`]).
    pub fn honour(&mut self, wake: Wake) {
        self.poller.park(wake, IDLE_WAIT);
    }

    /// [`MultiplexedStorageSource::honour`] of an idle round, parking for
    /// up to `timeout` instead.
    pub fn idle_wait(&mut self, timeout: Duration) {
        self.poller.park(Wake::Idle, timeout);
    }

    /// [`MultiplexedStorageSource::honour`] of a round that moved.
    pub fn note_progress(&mut self) {
        self.honour(Wake::Now);
    }

    /// Wires deployment-shared telemetry in: batch submissions count (with
    /// outstanding-depth peaks), receive-pool reuse is sampled, and every
    /// batch request carries its issue stamp.
    pub fn set_telemetry(&mut self, telemetry: Arc<TelemetryCounters>) {
        self.telemetry = Some(telemetry);
    }

    /// Declares the storage tier's replica-chain length: a home server's
    /// payloads are also served by the next `replication - 1` endpoints
    /// (mod server count), so a dial that cannot reach the primary fails
    /// over down the chain instead of giving up. `1` (the default) means
    /// unreplicated.
    #[must_use]
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.state.replication = replication.max(1);
        self
    }

    /// Overrides the dial ladder's backoff schedule (defaults to
    /// [`RetryPolicy::default`]).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.state.retry = retry;
        self
    }

    /// Recovery counters so far: dials after each server's first, times a
    /// home's traffic failed over to a replica endpoint, and batches
    /// resubmitted on fresh connections.
    pub fn failover_stats(&self) -> FailoverStats {
        self.state.failover()
    }

    fn home(&self, node: NodeId) -> usize {
        self.partitioner.assign(node) % self.addrs.len()
    }

    /// Connects home `server`: walks the dial ladder [`MuxState`] lays
    /// out, waiting out each rung's backoff here, then resubmits the
    /// server's outstanding requests on the fresh connection.
    ///
    /// # Errors
    ///
    /// The last dial's error once the whole ladder is refused, and
    /// failures to resubmit.
    fn connect(&mut self, server: usize) -> WireResult<()> {
        let mut dial = Dial::primary(server);
        let (conn, resubmit) = loop {
            if !dial.delay.is_zero() {
                std::thread::sleep(dial.delay);
            }
            let result = self.transport.dial_once(&self.addrs[dial.target]);
            match self.state.on_dial(server, dial, result)? {
                Dialled::Connected(conn, resubmit) => break (conn, resubmit),
                Dialled::Retry(next) => dial = next,
            }
        };
        let (sink, stream) = conn.split();
        let fd = stream.raw_fd();
        self.poller.register(server as u64, fd);
        self.conns[server] = Some(MuxConn {
            sink,
            stream,
            fd,
            epoch: self.state.epoch(server),
            pool_seen: (0, 0),
        });
        resubmit
            .iter()
            .try_for_each(|frame| self.send(server, frame))
    }

    /// Sends `frame` to `server`. A failed send is the connection's death.
    fn send(&mut self, server: usize, frame: &Frame) -> WireResult<()> {
        let conn = self.conns[server].as_mut().ok_or(WireError::Closed)?;
        match conn.sink.send(frame) {
            Ok(_) => Ok(()),
            Err(e) => self.recover(server, e),
        }
    }

    /// Masks the death of `server`'s connection, seen as `error`: reconnects
    /// and resubmits, unless a request outstanding on it has already
    /// outlived a death (then `error` is returned).
    fn recover(&mut self, server: usize, error: WireError) -> WireResult<()> {
        let Some(dead) = self.conns[server].take() else {
            return Err(error);
        };
        // Deregister BEFORE dialling, so a kernel-recycled descriptor
        // number cannot be mistaken for the old registration.
        self.poller.deregister(server as u64, dead.fd);
        self.state
            .on_closed(server, dead.epoch)
            .map_err(|_| error)?;
        drop(dead);
        self.connect(server)
    }

    /// Reads at most one frame from `server` into the state. Returns
    /// whether anything happened: a frame landed, or a death was masked.
    fn poll(&mut self, server: usize) -> WireResult<bool> {
        let conn = self.conns[server].as_mut().ok_or(WireError::Closed)?;
        match conn.stream.try_recv() {
            Ok(Some((frame, _))) => {
                sample_pool(&self.telemetry, conn.stream.as_ref(), &mut conn.pool_seen);
                self.state.on_frame(server, conn.epoch, frame)?;
                Ok(true)
            }
            Ok(None) => Ok(false),
            Err(e) => self.recover(server, e).map(|()| true),
        }
    }

    /// Puts one batch request on the wire towards `server`, dialling it
    /// first if it has no connection yet, and returns its correlation id.
    fn submit(&mut self, server: usize, nodes: &[NodeId]) -> WireResult<u64> {
        if self.conns[server].is_none() {
            self.connect(server)?;
        }
        let issued_ns = self.telemetry.as_ref().map(|_| crate::service::now_ns());
        let (req_id, frame) = self.state.submit(server, nodes, issued_ns);
        // A failed send reconnects, and the reconnect resubmits this
        // request with the others outstanding.
        self.send(server, &frame)?;
        if let Some(t) = &self.telemetry {
            t.batch_submitted(self.state.outstanding());
        }
        Ok(req_id)
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
/// Returned by [`FetchSeam::submit_frontier`] and polled with
/// [`FetchSeam::try_collect`] — the split that lets a processor run
/// another query's compute stage while this fetch is in flight.
pub struct PendingBatch {
    /// (server, correlation id, caller slots) per request on the wire.
    requests: Vec<(usize, u64, Vec<usize>)>,
    /// Fully reassembled responses, indexed like `requests`.
    collected: Vec<Option<BatchPayloads>>,
    /// Requests still awaited.
    remaining: usize,
    /// Whether the last [`FetchSeam::try_collect`] read a frame or
    /// completed a request.
    progressed: bool,
    /// Caller's frontier length (shapes the final payload vector).
    node_count: usize,
}

/// The processor core's seam onto the wire: a frontier goes out as
/// pipelined batch requests, a fetch is polled by the one collect loop,
/// and the clock is [`crate::service::now_ns`].
impl FetchSeam for MultiplexedStorageSource {
    type Fetch = PendingBatch;

    /// Puts a whole frontier's batch requests on the wire — grouped per
    /// storage server by the placement function, chunked under the
    /// per-frame node cap — without waiting for any reply.
    fn submit_frontier(&mut self, nodes: &[NodeId]) -> WireResult<PendingBatch> {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.addrs.len()];
        for (i, &node) in nodes.iter().enumerate() {
            groups[self.home(node)].push(i);
        }
        let mut requests: Vec<(usize, u64, Vec<usize>)> = Vec::new();
        let mut batch: Vec<NodeId> = Vec::new();
        for (server, group) in groups.iter().enumerate() {
            for slots in group.chunks(MAX_BATCH_REQUEST_NODES) {
                batch.clear();
                batch.extend(slots.iter().map(|&i| nodes[i]));
                let req_id = self.submit(server, &batch)?;
                requests.push((server, req_id, slots.to_vec()));
            }
        }
        Ok(PendingBatch {
            collected: vec![None; requests.len()],
            remaining: requests.len(),
            progressed: false,
            requests,
            node_count: nodes.len(),
        })
    }

    /// The one collect loop. Polls the in-flight batch without blocking:
    /// `Ok(Some)` with the full frontier's payloads (caller order) once
    /// every involved server has answered, `Ok(None)` while responses are
    /// still travelling. Each awaited server is drained until its socket
    /// is empty, and answers to other batches' requests are kept for them.
    /// Fails on a connection death a request cannot outlive (see `mux`),
    /// a refused dial ladder, and protocol violations.
    fn try_collect(&mut self, pending: &mut PendingBatch) -> WireResult<Option<BatchPayloads>> {
        pending.progressed = false;
        for (&(server, req_id, _), slot) in pending.requests.iter().zip(&mut pending.collected) {
            while slot.is_none() {
                if let Some(payloads) = self.state.take(server, req_id)? {
                    *slot = Some(payloads);
                    pending.remaining -= 1;
                } else if !self.poll(server)? {
                    break;
                }
                pending.progressed = true;
            }
        }
        if pending.remaining > 0 {
            return Ok(None);
        }
        let mut out: BatchPayloads = vec![None; pending.node_count];
        for ((_, _, slots), payloads) in pending.requests.iter().zip(pending.collected.drain(..)) {
            for (&slot, payload) in slots.iter().zip(payloads.into_iter().flatten()) {
                out[slot] = payload;
            }
        }
        Ok(Some(out))
    }

    fn clock_ns(&mut self) -> u64 {
        crate::service::now_ns()
    }
}

impl BatchSource for MultiplexedStorageSource {
    fn fetch_batch(&mut self, nodes: &[NodeId]) -> Vec<Option<(u16, Bytes)>> {
        if nodes.is_empty() {
            return Vec::new();
        }
        // Every involved server's batch goes on the wire before any reply
        // is awaited, then the collect loop runs inline. A round that read
        // nothing left every awaited socket empty, so parking on the
        // poller is safe. A round that read anything, the last one
        // included, is progress and puts the poller back on its hot rung.
        // Without that, back-to-back blocking fetches leave the hot rung
        // for good, and every wait returns at once on readiness this loop
        // never drains (the router connection, other servers' answers).
        let fetched = self.submit_frontier(nodes).and_then(|mut pending| loop {
            let out = self.try_collect(&mut pending)?;
            self.honour(if pending.progressed {
                Wake::Now
            } else {
                Wake::Idle
            });
            if let Some(out) = out {
                return Ok(out);
            }
        });
        fetched.unwrap_or_else(|e| panic!("storage batch fetch failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{InProcTransport, Listener, TcpTransport};
    use grouting_storage::HashPartitioner;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn payload(i: u32) -> Option<(u16, Bytes)> {
        Some((0, Bytes::from(i.to_le_bytes().to_vec())))
    }

    /// A source whose every node's home is server 0 (a one-partition
    /// placement), so a test scripts one connection and its replicas.
    fn home0_source(transport: Arc<dyn Transport>, addrs: &[String]) -> MultiplexedStorageSource {
        MultiplexedStorageSource::new(transport, addrs, Arc::new(HashPartitioner::new(1)))
    }

    /// Drives the collect loop until `pending` completes or fails.
    fn collect(
        source: &mut MultiplexedStorageSource,
        pending: &mut PendingBatch,
    ) -> WireResult<BatchPayloads> {
        loop {
            if let Some(out) = source.try_collect(pending)? {
                return Ok(out);
            }
            source.idle_wait(IDLE_WAIT);
        }
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
        let mut source = home0_source(Arc::clone(&transport), &[addr]);
        let nodes: Vec<NodeId> = (0..100).map(n).collect();
        let payloads = source.fetch_batch(&nodes);
        assert_eq!(payloads.len(), nodes.len());
        for (node, got) in nodes.iter().zip(&payloads) {
            assert_eq!(*got, payload(node.raw()));
        }
        drop(source);
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
        let mut source = home0_source(Arc::clone(&transport), &[addr]);

        // Two batches pipelined on one connection; the server replies to
        // the *second* first, so collecting in submit order exercises the
        // stash-and-match path both ways.
        let mut first = source.submit_frontier(&[n(1), n(2)]).unwrap();
        let mut second = source.submit_frontier(&[n(7)]).unwrap();
        assert_ne!(first.requests[0].1, second.requests[0].1);
        let got_first = collect(&mut source, &mut first).unwrap();
        let got_second = collect(&mut source, &mut second).unwrap();
        assert_eq!(got_first, vec![payload(1), payload(2)]);
        assert_eq!(got_second, vec![payload(7)]);
        drop(source);
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

        let mut source = home0_source(Arc::clone(&transport), &[addr]);
        let mut first = source.submit_frontier(&[n(1), n(2), n(3)]).unwrap();
        let mut second = source.submit_frontier(&[n(10), n(11)]).unwrap();
        assert_eq!(
            collect(&mut source, &mut first).unwrap(),
            vec![payload(1), payload(2), payload(3)]
        );
        assert_eq!(
            collect(&mut source, &mut second).unwrap(),
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

        let mut source = home0_source(Arc::clone(&transport), &[addr]);
        assert_eq!(source.fetch_batch(&[n(1)]), vec![payload(1)]);
        // The server dies holding this one; the mux must mask it.
        assert_eq!(
            source.fetch_batch(&[n(2), n(3)]),
            vec![payload(2), payload(3)]
        );
        assert_eq!(source.state.epoch(0), 2, "one reconnect");
        assert_eq!(source.failover_stats().batches_resubmitted, 1);
        drop(source);
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

        let mut source = home0_source(Arc::clone(&transport), &[addr]);
        assert_eq!(
            source.fetch_batch(&[n(1), n(2), n(3), n(4)]),
            vec![payload(1), payload(2), payload(3), payload(4)],
            "resubmitted batch must be answered in full, exactly once"
        );
        assert_eq!(source.state.epoch(0), 2, "one reconnect");
        // The mux is healthy afterwards: a new exchange works and no stale
        // reassembly entries interfere.
        assert_eq!(source.fetch_batch(&[n(9)]), vec![payload(9)]);
        drop(source);
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

        let mut source = home0_source(Arc::clone(&transport), &[addr]);
        let mut first = source.submit_frontier(&[n(1)]).unwrap();
        assert_eq!(collect(&mut source, &mut first).unwrap(), vec![payload(1)]);
        // Collecting the next request hits the stale chunk: the mux must
        // reject it as a protocol violation, not hoard it.
        let mut second = source.submit_frontier(&[n(2)]).unwrap();
        let err = collect(&mut source, &mut second).unwrap_err();
        assert!(
            matches!(err, WireError::Protocol(ref m) if m.contains("not outstanding")),
            "got {err}"
        );
        drop(source);
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
        let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(3));
        let mut source = MultiplexedStorageSource::new(Arc::clone(&transport), &addrs, partitioner);
        let nodes: Vec<NodeId> = (0..30).map(n).collect();
        let mut pending = source.submit_frontier(&nodes).unwrap();
        assert_eq!(pending.node_count, nodes.len());
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
        // Three frontiers in flight at once across three servers, collected
        // newest first: each collect drains answers belonging to the
        // others, which must wait for their own batch.
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let mut addrs = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..3 {
            let listener = transport.listen(&transport.any_addr()).unwrap();
            addrs.push(listener.addr());
            servers.push(batch_server(listener, false));
        }
        let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(3));
        let mut source = MultiplexedStorageSource::new(Arc::clone(&transport), &addrs, partitioner);
        let frontiers: Vec<Vec<NodeId>> = (0..3)
            .map(|f| (0..8).map(|i| n(f * 10 + i)).collect())
            .collect();
        let mut pending: Vec<PendingBatch> = frontiers
            .iter()
            .map(|nodes| source.submit_frontier(nodes).unwrap())
            .collect();
        assert!(
            pending.iter().all(|p| p.requests.len() == 3),
            "every frontier reaches every server"
        );
        for (nodes, p) in frontiers.iter().zip(&mut pending).rev() {
            let got = collect(&mut source, p).unwrap();
            let want: Vec<_> = nodes.iter().map(|w| payload(w.raw())).collect();
            assert_eq!(got, want);
        }
        assert_eq!(source.state.outstanding(), 0);
        drop(source);
        for s in servers {
            s.join().unwrap();
        }
    }

    #[test]
    fn fault_free_run_reports_no_recovery() {
        // First dials are not redials, even down a replica chain.
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let mut addrs = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..3 {
            let listener = transport.listen(&transport.any_addr()).unwrap();
            addrs.push(listener.addr());
            servers.push(batch_server(listener, false));
        }
        let partitioner: Arc<dyn Partitioner> = Arc::new(HashPartitioner::new(3));
        let mut source = MultiplexedStorageSource::new(Arc::clone(&transport), &addrs, partitioner)
            .with_replication(2);
        for round in 0..4 {
            let nodes: Vec<NodeId> = (0..12).map(|i| n(round * 100 + i)).collect();
            let want: Vec<_> = nodes.iter().map(|w| payload(w.raw())).collect();
            assert_eq!(source.fetch_batch(&nodes), want);
        }
        assert_eq!(source.failover_stats(), FailoverStats::default());
        drop(source);
        for s in servers {
            s.join().unwrap();
        }
    }

    #[test]
    fn resubmission_replays_in_request_order() {
        // Six batches pipelined on one connection, which dies holding all
        // of them: the fresh connection must see them in request-id order
        // on every run, not in a hash map's order.
        const BATCHES: u32 = 6;
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            for _ in 0..BATCHES {
                conn.recv().unwrap();
            }
            drop(conn);
            let mut conn = listener.accept().unwrap();
            let mut replayed = Vec::new();
            for _ in 0..BATCHES {
                match conn.recv().unwrap() {
                    Frame::FetchBatchRequest { req_id, nodes, .. } => {
                        replayed.push(req_id);
                        let payloads = nodes.iter().map(|w| payload(w.raw())).collect();
                        conn.send(&Frame::FetchBatchResponse { req_id, payloads })
                            .unwrap();
                    }
                    other => panic!("server got {}", other.kind()),
                }
            }
            let _ = conn.recv();
            replayed
        });

        let mut source = home0_source(Arc::clone(&transport), &[addr]);
        let mut pending: Vec<PendingBatch> = (0..BATCHES)
            .map(|i| source.submit_frontier(&[n(i)]).unwrap())
            .collect();
        let submitted: Vec<u64> = pending.iter().map(|p| p.requests[0].1).collect();
        for (i, p) in (0..BATCHES).zip(&mut pending) {
            assert_eq!(collect(&mut source, p).unwrap(), vec![payload(i)]);
        }
        drop(source);
        assert_eq!(server.join().unwrap(), submitted);
    }

    #[test]
    fn a_request_that_sees_two_deaths_is_an_error() {
        // Every connection dies holding the request. The ladder would
        // connect a third time, but a request outlives one death only.
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let mut listener = transport.listen(&transport.any_addr()).unwrap();
        let addr = listener.addr();
        let server = std::thread::spawn(move || {
            while let Ok(mut conn) = listener.accept() {
                match conn.recv() {
                    Ok(Frame::FetchBatchRequest { .. }) => {}
                    _ => return,
                }
            }
        });

        let mut source = home0_source(Arc::clone(&transport), std::slice::from_ref(&addr));
        let mut pending = source.submit_frontier(&[n(1)]).unwrap();
        let err = collect(&mut source, &mut pending).unwrap_err();
        assert!(matches!(err, WireError::Closed), "got {err}");
        assert_eq!(source.state.epoch(0), 2, "no third connection");
        drop(source);
        let mut stop = transport.dial(&addr).unwrap();
        stop.send(&Frame::Shutdown).unwrap();
        drop(stop);
        server.join().unwrap();
    }

    /// What a misbehaving storage stand-in does to the first request.
    #[derive(Clone, Copy)]
    enum Misbehaviour {
        AnswersExtraNodes,
        SendsNonBatchFrame,
        AnswersUnsentRequest,
    }

    #[test]
    fn a_bad_storage_peer_is_a_protocol_error() {
        for (bad, expect) in [
            (Misbehaviour::AnswersExtraNodes, "3 nodes to a 2-node batch"),
            (Misbehaviour::SendsNonBatchFrame, "sent shutdown"),
            (Misbehaviour::AnswersUnsentRequest, "not outstanding"),
        ] {
            let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
            let mut listener = transport.listen(&transport.any_addr()).unwrap();
            let addr = listener.addr();
            let server = std::thread::spawn(move || {
                let mut conn = listener.accept().unwrap();
                let Ok(Frame::FetchBatchRequest { req_id, nodes, .. }) = conn.recv() else {
                    panic!("expected a batch request");
                };
                let mut payloads: BatchPayloads = nodes.iter().map(|w| payload(w.raw())).collect();
                let reply = match bad {
                    Misbehaviour::AnswersExtraNodes => {
                        payloads.push(payload(99));
                        Frame::FetchBatchResponse { req_id, payloads }
                    }
                    Misbehaviour::SendsNonBatchFrame => Frame::Shutdown,
                    Misbehaviour::AnswersUnsentRequest => Frame::FetchBatchResponse {
                        req_id: req_id + 1000,
                        payloads,
                    },
                };
                conn.send(&reply).unwrap();
                let _ = conn.recv();
            });

            let mut source = home0_source(Arc::clone(&transport), &[addr]);
            let mut pending = source.submit_frontier(&[n(1), n(2)]).unwrap();
            let err = collect(&mut source, &mut pending).unwrap_err();
            assert!(
                matches!(err, WireError::Protocol(ref m) if m.contains(expect)),
                "got {err}"
            );
            drop(source);
            server.join().unwrap();
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
        let transport: Arc<dyn Transport> = Arc::new(InProcTransport::new());
        let a = transport.listen(&transport.any_addr()).unwrap();
        let addr_a = a.addr();
        let b = transport.listen(&transport.any_addr()).unwrap();
        let addr_b = b.addr();
        // Both endpoints serve home 0's data (replica chain of length 2);
        // each answers one request and dies holding the next.
        let sa = flaky_batch_server(a, 1);
        let sb = flaky_batch_server(b, 1);
        let mut source = home0_source(Arc::clone(&transport), &[addr_a.clone(), addr_b])
            .with_replication(2)
            .with_retry(RetryPolicy::new(2, Duration::from_millis(1)));

        // Exchange 1: served by the primary endpoint.
        assert_eq!(source.fetch_batch(&[n(1)]), vec![payload(1)]);

        // Exchange 2: the primary dies holding it; recovery walks the
        // chain and the replica re-answers the resubmission.
        assert_eq!(source.fetch_batch(&[n(2)]), vec![payload(2)]);
        assert_eq!(source.failover_stats().replica_failovers, 1);

        // The primary re-joins at its old address; when the replica dies
        // in turn, the chain walk (primary-first) recovers the primary.
        let a2 = transport.listen(&addr_a).unwrap();
        let sa2 = batch_server(a2, false);
        assert_eq!(source.fetch_batch(&[n(3)]), vec![payload(3)]);

        let stats = source.failover_stats();
        assert_eq!(
            stats.replica_failovers, 1,
            "the recovery after the replica's death lands back on the primary"
        );
        assert_eq!(stats.batches_resubmitted, 2);
        assert_eq!(stats.redials, 3, "primary-fail, replica-ok, primary-ok");
        assert_eq!(source.state.epoch(0), 3, "two reconnects");
        drop(source);
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
                let mut source = home0_source(faulty, std::slice::from_ref(&addr))
                    .with_retry(RetryPolicy::new(4, Duration::from_millis(1)));

                // Pipeline every batch, then collect in submit order.
                let mut pending = Vec::new();
                for (b, &size) in sizes.iter().enumerate() {
                    let nodes: Vec<NodeId> =
                        (0..size).map(|i| n((b * 100 + i) as u32)).collect();
                    pending.push(source.submit_frontier(&nodes).unwrap());
                }
                for (b, (&size, p)) in sizes.iter().zip(&mut pending).enumerate() {
                    let want: Vec<_> =
                        (0..size).map(|i| payload((b * 100 + i) as u32)).collect();
                    proptest::prop_assert_eq!(collect(&mut source, p).unwrap(), want, "batch {}", b);
                }
                if tear < sizes.len() as u64 {
                    proptest::prop_assert_eq!(source.state.epoch(0), 2);
                    proptest::prop_assert!(source.failover_stats().batches_resubmitted >= 1);
                }
                drop(source);
                let mut stop = transport.dial(&addr).unwrap();
                stop.send(&Frame::Shutdown).unwrap();
                drop(stop);
                server.join().unwrap();
            }
        }
    }
}
