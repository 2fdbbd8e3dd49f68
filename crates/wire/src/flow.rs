//! `grouting-flow`: pipelined, frontier-batched adjacency fetching.
//!
//! The one processor→storage miss path. A blocking request/reply
//! exchange per frontier node would make a multi-hop BFS pay one loopback
//! RTT (~16 µs) per discovered node, serialised; the miss path keeps many
//! fetches in flight per processor instead. A frontier's miss set is
//! grouped by the placement function and goes out as one
//! [`Frame::FetchBatchRequest`] per storage server before any reply is
//! awaited; a single-node fetch is a batch of one.
//!
//! Its decisions live in `mux`: correlation, reassembly, epochs, the dial
//! ladder with each rung's backoff as a deadline, resubmission, and the
//! one-death budget. A processor runs them in its core, on its node's
//! reactor; [`MultiplexedStorageSource`] runs them over a listenerless
//! [`Reactor`] of its own for serial callers — the blocking
//! [`BatchSource::fetch_batch`] and a bare [`crate::QueryPipeline`] — and
//! waits only in the reactor's idle policy, a backoff included.
//!
//! [`Frame::FetchBatchRequest`]: crate::Frame::FetchBatchRequest

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use grouting_graph::NodeId;
use grouting_metrics::FailoverStats;
use grouting_query::BatchSource;
use grouting_storage::Partitioner;

use crate::error::{WireError, WireResult};
use crate::mux::{BatchPayloads, MuxLinks, PendingBatch};
use crate::overlap::{FetchSeam, Wake};
use crate::reactor::{PollerKind, Reactor, ReactorEvent};
use crate::service::now_ns;
use crate::transport::{RetryPolicy, Transport};

/// The processor↔storage fetch path — there is only one. Named by the
/// benchmark (`load/`); the next `benchmark` PR drops it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FetchMode {
    /// Frontier-batched, pipelined fetching through
    /// [`MultiplexedStorageSource`].
    #[default]
    Batched,
}

/// The miss path for serial callers: the mux half over one lazily
/// dialled connection per storage server, driven by a listenerless
/// [`Reactor`]. A caller steps a pipeline over the [`FetchSeam`] and
/// honours each round's [`Wake`] ([`MultiplexedStorageSource::honour`]),
/// or blocks in [`BatchSource::fetch_batch`].
pub struct MultiplexedStorageSource {
    links: MuxLinks,
    /// The reactor, or why the kernel refused one: the first collect
    /// reports it, and every later one [`WireError::Closed`].
    reactor: WireResult<Reactor>,
    events: Vec<ReactorEvent>,
}

impl MultiplexedStorageSource {
    /// A source fetching from `storage_addrs` (index = storage server id)
    /// with `partitioner` as the placement function. A source the kernel
    /// refuses an epoll set sends nothing, and its first collect fails.
    pub fn new(
        transport: Arc<dyn Transport>,
        storage_addrs: &[String],
        partitioner: Arc<dyn Partitioner>,
    ) -> Self {
        Self {
            links: MuxLinks::new(storage_addrs, partitioner),
            reactor: Reactor::dialler(transport),
            events: Vec::new(),
        }
    }

    /// [`MultiplexedStorageSource::new`]; the [`PollerKind`] selects
    /// nothing. Named by the benchmark (`load/`) until its next PR.
    pub fn with_poller(
        transport: Arc<dyn Transport>,
        storage_addrs: &[String],
        partitioner: Arc<dyn Partitioner>,
        _poller: PollerKind,
    ) -> Self {
        Self::new(transport, storage_addrs, partitioner)
    }

    /// Ends a caller's round: honours its [`Wake`] (an idle one waits for
    /// the next dial deadline) unless drained events await a collect.
    pub fn honour(&mut self, wake: Wake) {
        let drained = !self.events.is_empty();
        if let Ok(reactor) = &mut self.reactor {
            reactor.honour(self.links.wake(if drained { Wake::Now } else { wake }));
        }
    }

    /// [`MultiplexedStorageSource::honour`] of an idle round. Named by the
    /// benchmark (`load/`); the reactor bounds the wait itself.
    pub fn idle_wait(&mut self, _timeout: Duration) {
        self.honour(Wake::Idle);
    }

    /// [`MultiplexedStorageSource::honour`] of a round that moved. Named
    /// by the benchmark (`load/`).
    pub fn note_progress(&mut self) {
        self.honour(Wake::Now);
    }

    /// Declares the tier's replica-chain length: a home's payloads are also
    /// served by the next `replication - 1` endpoints (mod server count),
    /// where a refused dial fails over. `1` (the default): unreplicated.
    #[must_use]
    pub fn with_replication(mut self, replication: usize) -> Self {
        self.links.state.replication = replication.max(1);
        self
    }

    /// Overrides the dial ladder's backoff schedule (defaults to
    /// [`RetryPolicy::default`]).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.links.state.retry = retry;
        self
    }

    /// Recovery counters so far (see `MuxState::failover`).
    pub fn failover_stats(&self) -> FailoverStats {
        self.links.state.failover()
    }

    /// Feeds drained events into the links one at a time until `pending`
    /// completes, polling once if none are left (the rest wait for the
    /// next collect); whether anything happened.
    fn collect(&mut self, pending: &mut PendingBatch) -> WireResult<(Option<BatchPayloads>, bool)> {
        let reactor = match &mut self.reactor {
            Ok(reactor) => reactor,
            Err(e) => return Err(std::mem::replace(e, WireError::Closed)),
        };
        let now = now_ns();
        let (mut moved, mut polled) = (self.links.dial_due(now, reactor), false);
        loop {
            if let Some(out) = self.links.collect(pending)? {
                return Ok((Some(out), true));
            }
            // Polled events are held reversed, so the next is the last.
            match self.events.pop() {
                Some(event) => {
                    moved = true;
                    if let Some(input) = event.into_input() {
                        self.links.take(now, input, reactor)?;
                    }
                }
                None if !polled => {
                    reactor.poll(&mut self.events)?;
                    self.events.reverse();
                    polled = true;
                }
                None => return Ok((None, moved)),
            }
        }
    }
}

/// A bare pipeline's seam onto the wire; the clock is [`now_ns`].
impl FetchSeam for MultiplexedStorageSource {
    type Fetch = PendingBatch;

    fn submit_frontier(&mut self, nodes: &[NodeId]) -> PendingBatch {
        match &mut self.reactor {
            Ok(reactor) => self.links.submit_frontier(nodes, now_ns(), reactor),
            // Nothing can leave: the collect reports why.
            Err(_) => PendingBatch::default(),
        }
    }

    fn try_collect(&mut self, pending: &mut PendingBatch) -> WireResult<Option<BatchPayloads>> {
        self.collect(pending).map(|(out, _)| out)
    }

    fn clock_ns(&mut self) -> u64 {
        now_ns()
    }
}

impl BatchSource for MultiplexedStorageSource {
    fn fetch_batch(&mut self, nodes: &[NodeId]) -> Vec<Option<(u16, Bytes)>> {
        if nodes.is_empty() {
            return Vec::new();
        }
        // Every involved server's batch goes on the wire before any reply
        // is awaited. A round that took nothing parks; one that took
        // anything, the last one included, puts the poller back on its hot
        // rung, so back-to-back fetches never start out parked.
        // `BatchSource` returns no `Result`: a failure panics here.
        let mut pending = self.submit_frontier(nodes);
        loop {
            let collected = self.collect(&mut pending);
            let (out, moved) =
                collected.unwrap_or_else(|e| panic!("storage batch fetch failed: {e}"));
            self.honour(if moved { Wake::Now } else { Wake::Idle });
            if let Some(out) = out {
                return out;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WireError;
    use crate::frame::Frame;
    use crate::reactor::IDLE_WAIT;
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
        let mut first = source.submit_frontier(&[n(1), n(2)]);
        let mut second = source.submit_frontier(&[n(7)]);
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
        let mut first = source.submit_frontier(&[n(1), n(2), n(3)]);
        let mut second = source.submit_frontier(&[n(10), n(11)]);
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
        assert_eq!(source.links.state.epoch(0), 2, "one reconnect");
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
        assert_eq!(source.links.state.epoch(0), 2, "one reconnect");
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
        let mut first = source.submit_frontier(&[n(1)]);
        assert_eq!(collect(&mut source, &mut first).unwrap(), vec![payload(1)]);
        // Collecting the next request hits the stale chunk: the mux must
        // reject it as a protocol violation, not hoard it.
        let mut second = source.submit_frontier(&[n(2)]);
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
        let mut pending = source.submit_frontier(&nodes);
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
            .map(|nodes| source.submit_frontier(nodes))
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
        assert_eq!(source.links.state.outstanding(), 0);
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
            .map(|i| source.submit_frontier(&[n(i)]))
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
        let mut pending = source.submit_frontier(&[n(1)]);
        let err = collect(&mut source, &mut pending).unwrap_err();
        assert!(matches!(err, WireError::Closed), "got {err}");
        assert_eq!(source.links.state.epoch(0), 2, "no third connection");
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
            let mut pending = source.submit_frontier(&[n(1), n(2)]);
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
        assert_eq!(source.links.state.epoch(0), 3, "two reconnects");
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
                    pending.push(source.submit_frontier(&nodes));
                }
                for (b, (&size, p)) in sizes.iter().zip(&mut pending).enumerate() {
                    let want: Vec<_> =
                        (0..size).map(|i| payload((b * 100 + i) as u32)).collect();
                    proptest::prop_assert_eq!(collect(&mut source, p).unwrap(), want, "batch {}", b);
                }
                if tear < sizes.len() as u64 {
                    proptest::prop_assert_eq!(source.links.state.epoch(0), 2);
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
