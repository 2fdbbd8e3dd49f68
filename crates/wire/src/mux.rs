//! The storage multiplexer's decisions: [`MuxState`], and the processor's
//! mux half around it, [`MuxLinks`]. Neither does I/O or reads a clock.
//!
//! A processor keeps one connection per home storage server and many
//! batch requests in flight on each. [`MuxState`] numbers each request
//! and matches replies by that number, so they complete in any order; it
//! stitches a reply's chunks until the request's node count is reached;
//! and after a death ([`MuxState::on_closed`]) it walks the home's replica
//! chain, primary first, one [`RetryPolicy`] rung per walk
//! ([`MuxState::on_dial`]), resubmitting what was outstanding in id
//! order. A request outlives at most one connection death.
//!
//! [`MuxLinks`], shared by the processor core and `flow`'s blocking
//! source, adds which connection carries each home and where its dial
//! ladder stands. A rung's backoff is a deadline, made by the caller's
//! first round at or after it; connections are reached through [`Dials`].
//! It hands [`MuxState`] only what its home's current connection
//! delivered: a connection id is never reused, and a frame or close from
//! any other is dropped, so nothing a dead connection delivered lands on
//! its successor.
//!
//! Nothing a storage peer sends panics here: a non-batch frame, a reply
//! to a request that is not outstanding and an answer longer than its
//! request are each a [`WireError::Protocol`] that leaves the state as it
//! was.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use grouting_graph::NodeId;
use grouting_metrics::FailoverStats;
use grouting_storage::Partitioner;
use grouting_trace::TelemetryCounters;

use crate::error::{WireError, WireResult};
use crate::frame::Frame;
use crate::overlap::{Dials, Input, Wake};
use crate::transport::RetryPolicy;

/// One batch's worth of per-node payloads: the serving server id and
/// encoded adjacency value, `None` where the node is not stored.
pub type BatchPayloads = Vec<Option<(u16, Bytes)>>;

/// One dial of a home server's ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dial {
    /// Endpoint to dial, one of the home's replica chain.
    pub(crate) target: usize,
    /// Ladder rung; one rung walks the whole chain.
    pub(crate) attempt: u32,
    /// Backoff to wait before dialling.
    pub(crate) delay: Duration,
}

impl Dial {
    /// The first dial of every ladder: the primary, at once.
    pub(crate) fn primary(server: usize) -> Self {
        Self {
            target: server,
            attempt: 0,
            delay: Duration::ZERO,
        }
    }
}

/// What a dial led to.
pub(crate) enum Dialled<C> {
    /// The connection, and the frames to resubmit on it.
    Connected(C, Vec<Frame>),
    /// Refused: the ladder's next dial.
    Retry(Dial),
}

/// One request, from submit until taken.
#[derive(Debug, Clone)]
struct Request {
    nodes: Vec<NodeId>,
    issued_ns: Option<u64>,
    /// Chunks stitched on the current connection; `None` before the first
    /// (an empty batch is answered by one empty chunk).
    got: Option<BatchPayloads>,
    /// Connection deaths this request has outlived.
    deaths: u8,
}

impl Request {
    fn complete(&self) -> bool {
        self.got.as_ref().map(Vec::len) == Some(self.nodes.len())
    }

    fn frame(&self, req_id: u64) -> Frame {
        Frame::FetchBatchRequest {
            req_id,
            nodes: self.nodes.clone(),
            issued_ns: self.issued_ns,
        }
    }
}

/// One home server's connection and requests.
#[derive(Debug, Clone, Default)]
struct Server {
    /// Requests submitted and not yet taken, in id order: a few per
    /// server, so a scan finds one as fast as a map would.
    requests: Vec<(u64, Request)>,
    /// Connections made so far (the redial count reads it).
    epoch: u64,
    /// Chain offset of the connected endpoint; `None` while not connected.
    link: Option<usize>,
}

/// The miss path's correlation, reassembly and failover for one
/// processor: see the module docs.
#[derive(Debug, Clone)]
pub(crate) struct MuxState {
    servers: Vec<Server>,
    /// Replica-chain length: home `s` is also served by `(s + k) % servers`.
    pub(crate) replication: usize,
    /// The ladder a dial walks: rungs, and the backoff between them.
    pub(crate) retry: RetryPolicy,
    next_req_id: u64,
    failover: FailoverStats,
}

impl MuxState {
    /// No connections and no requests towards `servers` home servers.
    pub(crate) fn new(servers: usize) -> Self {
        Self {
            servers: vec![Server::default(); servers],
            replication: 1,
            retry: RetryPolicy::default(),
            next_req_id: 0,
            failover: FailoverStats::default(),
        }
    }

    /// Recovery counters: dials after a server's first, connections that
    /// landed on a replica, and requests resubmitted.
    pub(crate) fn failover(&self) -> FailoverStats {
        self.failover
    }

    /// Requests submitted and not yet taken, across servers.
    pub(crate) fn outstanding(&self) -> u64 {
        self.servers.iter().map(|s| s.requests.len() as u64).sum()
    }

    /// The number of `server`'s current (or last) connection.
    #[cfg(test)]
    pub(crate) fn epoch(&self, server: usize) -> u64 {
        self.servers[server].epoch
    }

    fn chain(&self) -> usize {
        self.replication.min(self.servers.len()).max(1)
    }

    /// Records a request for `nodes` to home `server` and returns its id
    /// with the frame that carries it.
    pub(crate) fn submit(
        &mut self,
        server: usize,
        nodes: &[NodeId],
        issued_ns: Option<u64>,
    ) -> (u64, Frame) {
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        let request = Request {
            nodes: nodes.to_vec(),
            issued_ns,
            got: None,
            deaths: 0,
        };
        let frame = request.frame(req_id);
        self.servers[server].requests.push((req_id, request));
        (req_id, frame)
    }

    /// Stitches `frame`, read from `server`'s current connection; while
    /// the server has none it changes nothing.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`], the state unchanged: a non-batch frame, a
    /// reply to no outstanding request, more nodes than it asked for.
    pub(crate) fn on_frame(&mut self, server: usize, frame: Frame) -> WireResult<()> {
        let s = &mut self.servers[server];
        if s.link.is_none() {
            return Ok(());
        }
        let Frame::FetchBatchResponse { req_id, payloads } = frame else {
            return Err(WireError::Protocol(format!(
                "storage server {server} sent {} to a batch fetch",
                frame.kind()
            )));
        };
        let found = s
            .requests
            .iter_mut()
            .find(|(id, r)| *id == req_id && !r.complete());
        let Some((_, request)) = found else {
            return Err(WireError::Protocol(format!(
                "storage server {server} answered request {req_id}, which is not outstanding"
            )));
        };
        let answered = request.got.as_ref().map_or(0, Vec::len) + payloads.len();
        if answered > request.nodes.len() {
            return Err(WireError::Protocol(format!(
                "storage server {server} answered {answered} nodes to a {}-node batch",
                request.nodes.len()
            )));
        }
        request.got.get_or_insert_with(Vec::new).extend(payloads);
        Ok(())
    }

    /// `req_id`'s payloads, in request order, once every node is answered.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] when `req_id` is not a request to `server`
    /// that is still untaken.
    pub(crate) fn take(&mut self, server: usize, req_id: u64) -> WireResult<Option<BatchPayloads>> {
        let requests = &mut self.servers[server].requests;
        match requests.iter().position(|(id, _)| *id == req_id) {
            None => Err(WireError::Protocol(format!(
                "server {server}: collect of unknown request {req_id}"
            ))),
            Some(i) if requests[i].1.complete() => Ok(requests.remove(i).1.got),
            Some(_) => Ok(None),
        }
    }

    /// `server`'s current connection died: its partial answers are
    /// dropped. While the server has no connection it changes nothing.
    ///
    /// # Errors
    ///
    /// [`WireError::Closed`] when an outstanding request had already
    /// outlived a death.
    pub(crate) fn on_closed(&mut self, server: usize) -> WireResult<()> {
        let s = &mut self.servers[server];
        if s.link.is_none() {
            return Ok(());
        }
        s.link = None;
        let mut spent = false;
        for (_, request) in s.requests.iter_mut().filter(|(_, r)| !r.complete()) {
            request.got = None;
            request.deaths += 1;
            spent |= request.deaths > 1;
        }
        if spent {
            return Err(WireError::Closed);
        }
        Ok(())
    }

    /// Whether a request to `server` awaits nodes.
    pub(crate) fn awaits(&self, server: usize) -> bool {
        self.servers[server]
            .requests
            .iter()
            .any(|(_, r)| !r.complete())
    }

    /// The outcome of `dial` for home `server`: connected, with what is
    /// outstanding to send in id order, or the ladder's next dial — the
    /// next chain endpoint at once, or the primary after a backoff.
    ///
    /// # Errors
    ///
    /// The last dial's error once every rung has walked the whole chain.
    pub(crate) fn on_dial<C>(
        &mut self,
        server: usize,
        dial: Dial,
        result: WireResult<C>,
    ) -> WireResult<Dialled<C>> {
        let (n, chain) = (self.servers.len(), self.chain());
        let k = (dial.target + n - server) % n;
        let s = &mut self.servers[server];
        if s.epoch > 0 || dial != Dial::primary(server) {
            self.failover.redials += 1;
        }
        match result {
            Ok(conn) => {
                s.epoch += 1;
                s.link = Some(k);
                if k > 0 {
                    self.failover.replica_failovers += 1;
                }
                // Requests made while the home had no connection go out
                // here too, but only what a death caught is resubmitted.
                let open = s.requests.iter().filter(|(_, r)| !r.complete());
                let caught = open.clone().filter(|(_, r)| r.deaths > 0).count();
                self.failover.batches_resubmitted += caught as u64;
                let resubmit = open.map(|(req_id, r)| r.frame(*req_id)).collect();
                Ok(Dialled::Connected(conn, resubmit))
            }
            Err(_) if k + 1 < chain => Ok(Dialled::Retry(Dial {
                target: (server + k + 1) % n,
                attempt: dial.attempt,
                delay: Duration::ZERO,
            })),
            Err(_) if dial.attempt + 1 < self.retry.attempts => Ok(Dialled::Retry(Dial {
                target: server,
                attempt: dial.attempt + 1,
                delay: self.retry.delay(dial.attempt, server as u64),
            })),
            Err(e) => Err(e),
        }
    }
}

/// Where one home server's link stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    /// Its next request dials it.
    Down,
    /// The ladder's next dial, due at this time.
    Waiting(Dial, u64),
    /// A dial is out; its outcome is a coming [`Input::Dialled`].
    Dialling(Dial),
    Up(u64),
}

/// Most nodes a single [`Frame::FetchBatchRequest`] may carry: keeps the
/// encoded request (13 + 4·N bytes) around 4 MiB, far under
/// [`crate::frame::MAX_FRAME_BYTES`]; a larger per-server miss set is
/// pipelined as several requests.
pub const MAX_BATCH_REQUEST_NODES: usize = 1 << 20;

/// A submitted frontier fetch: (server, correlation id, caller slots) per
/// request, the answers collected so far, and the frontier's length.
#[derive(Default)]
pub struct PendingBatch {
    pub(crate) requests: Vec<(usize, u64, Vec<usize>)>,
    collected: Vec<Option<BatchPayloads>>,
    pub(crate) node_count: usize,
}

/// A processor's half of the miss path, shared by its core and the
/// blocking storage source: the [`MuxState`], the placement function,
/// and each home's [`Link`].
pub(crate) struct MuxLinks {
    pub(crate) state: MuxState,
    addrs: Vec<String>,
    partitioner: Arc<dyn Partitioner>,
    links: Vec<Link>,
    /// Deployment-shared telemetry, and the trace switch: when set,
    /// requests carry their issue stamp and batch depths are counted.
    pub(crate) telemetry: Option<Arc<TelemetryCounters>>,
}

impl MuxLinks {
    pub(crate) fn new(addrs: &[String], partitioner: Arc<dyn Partitioner>) -> Self {
        Self {
            state: MuxState::new(addrs.len()),
            addrs: addrs.to_vec(),
            partitioner,
            links: vec![Link::Down; addrs.len()],
            telemetry: None,
        }
    }

    /// Submits a frontier at `now`, grouped per home server and chunked
    /// under the per-frame node cap, and writes each connection at once,
    /// so the fetch travels while the caller computes. A home without a
    /// connection is dialled, and its requests leave when the dial lands.
    pub(crate) fn submit_frontier(
        &mut self,
        nodes: &[NodeId],
        now: u64,
        out: &mut impl Dials,
    ) -> PendingBatch {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.addrs.len()];
        for (i, &node) in nodes.iter().enumerate() {
            groups[self.partitioner.assign(node) % self.addrs.len()].push(i);
        }
        let issued_ns = self.telemetry.as_ref().map(|_| now);
        let (mut requests, mut batch) = (Vec::new(), Vec::new());
        for (server, group) in groups.iter().enumerate() {
            for slots in group.chunks(MAX_BATCH_REQUEST_NODES) {
                batch.clear();
                batch.extend(slots.iter().map(|&i| nodes[i]));
                let (req_id, frame) = self.state.submit(server, &batch, issued_ns);
                match self.links[server] {
                    // A failed send is a death the next round hears of.
                    Link::Up(conn) => drop(out.send(conn, &frame)),
                    Link::Down => self.dial(server, Dial::primary(server), out),
                    Link::Waiting(..) | Link::Dialling(_) => {}
                }
                if let Some(t) = &self.telemetry {
                    t.batch_submitted(self.state.outstanding());
                }
                requests.push((server, req_id, slots.to_vec()));
            }
        }
        for &(server, ..) in &requests {
            if let Link::Up(conn) = self.links[server] {
                out.flush(conn);
            }
        }
        PendingBatch {
            collected: vec![None; requests.len()],
            requests,
            node_count: nodes.len(),
        }
    }

    /// `pending`'s payloads in caller order once every request is
    /// answered.
    ///
    /// # Errors
    ///
    /// [`WireError::Protocol`] for a batch these links never made.
    pub(crate) fn collect(
        &mut self,
        pending: &mut PendingBatch,
    ) -> WireResult<Option<BatchPayloads>> {
        let requests = pending.requests.iter().zip(&mut pending.collected);
        for (&(server, req_id, _), slot) in requests.filter(|(_, slot)| slot.is_none()) {
            *slot = self.state.take(server, req_id)?;
        }
        if pending.collected.iter().any(Option::is_none) {
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

    /// Takes one of a round's storage inputs at `now`: a reply is
    /// stitched; after a death, a home awaiting nodes dials its primary
    /// (an idle one waits for its next request); a dial's outcome sends
    /// what waited, walks the chain, or sets the next rung's deadline.
    ///
    /// # Errors
    ///
    /// A storage peer's protocol violation, a death a request cannot
    /// outlive, and a ladder refused to its end.
    pub(crate) fn take(&mut self, now: u64, input: Input, out: &mut impl Dials) -> WireResult<()> {
        match input {
            Input::Frame(conn, frame) => match self.home_on(conn) {
                Some(server) => self.state.on_frame(server, frame),
                None => Ok(()),
            },
            Input::Closed(conn) => {
                let Some(server) = self.home_on(conn) else {
                    return Ok(());
                };
                self.links[server] = Link::Down;
                self.state.on_closed(server)?;
                if self.state.awaits(server) {
                    self.dial(server, Dial::primary(server), out);
                }
                Ok(())
            }
            Input::Dialled(tag, conn) => {
                let server = tag as usize;
                let Some(&Link::Dialling(dial)) = self.links.get(server) else {
                    return Ok(());
                };
                let refused = || WireError::Unroutable(self.addrs[dial.target].clone());
                match self.state.on_dial(server, dial, conn.ok_or_else(refused))? {
                    Dialled::Connected(conn, frames) => {
                        self.links[server] = Link::Up(conn);
                        frames.iter().for_each(|frame| drop(out.send(conn, frame)));
                        out.flush(conn);
                    }
                    Dialled::Retry(next) if next.delay.is_zero() => self.dial(server, next, out),
                    Dialled::Retry(next) => {
                        let due = now.saturating_add(next.delay.as_nanos() as u64);
                        self.links[server] = Link::Waiting(next, due);
                    }
                }
                Ok(())
            }
        }
    }

    /// Makes every dial due by `now`; whether it made any.
    pub(crate) fn dial_due(&mut self, now: u64, out: &mut impl Dials) -> bool {
        let due: Vec<(usize, Dial)> = (self.links.iter().enumerate())
            .filter_map(|(server, link)| match *link {
                Link::Waiting(dial, due) if due <= now => Some((server, dial)),
                _ => None,
            })
            .collect();
        due.iter()
            .for_each(|&(server, dial)| self.dial(server, dial, out));
        !due.is_empty()
    }

    /// `wake`, or, for an idle round, the earliest dial deadline.
    pub(crate) fn wake(&self, wake: Wake) -> Wake {
        let due = self.links.iter().filter_map(|link| match link {
            Link::Waiting(_, due) => Some(*due),
            _ => None,
        });
        match (wake, due.min()) {
            (Wake::Idle, Some(due)) => Wake::IdleUntil(due),
            (wake, _) => wake,
        }
    }

    fn home_on(&self, conn: u64) -> Option<usize> {
        self.links.iter().position(|&link| link == Link::Up(conn))
    }

    fn dial(&mut self, server: usize, dial: Dial, out: &mut impl Dials) {
        self.links[server] = Link::Dialling(dial);
        out.dial(server as u64, &self.addrs[dial.target]);
    }
}

#[cfg(test)]
mod tests {
    use bytes::Bytes;

    use super::*;
    use crate::explore::{explore, Key, Model};

    /// What every endpoint of a node's chain answers for it. Node 4 is not
    /// stored.
    fn tier(node: NodeId) -> Option<(u16, Bytes)> {
        (node.raw() != 4).then(|| (0, Bytes::from(node.raw().to_le_bytes().to_vec())))
    }

    /// A scripted batch: its home and its two nodes, so an answer comes
    /// in one chunk or in two.
    type Batch = (usize, [u32; 2]);

    fn nodes(batch: &Batch) -> Vec<NodeId> {
        batch.1.iter().copied().map(NodeId::new).collect()
    }

    /// A storage endpoint, and what it has spent of its one kill and one
    /// restart.
    #[derive(Clone, Copy)]
    struct Endpoint {
        up: bool,
        killed: bool,
        restarted: bool,
    }

    /// A connection the mux holds, as its endpoint sees it.
    #[derive(Clone)]
    struct Link {
        target: usize,
        /// Whether it reached the endpoint after its restart.
        restarted: bool,
        /// What the endpoint still owes on it: each batch with its count
        /// of unanswered nodes, in arrival order.
        owed: Vec<(usize, usize)>,
    }

    /// A home server, as the explorer accounts for it.
    #[derive(Clone, Default)]
    struct Home {
        /// Its connection, until the mux sees it close.
        link: Option<Link>,
        /// The ladder's pending dial, and the rung and chain offset the
        /// walk must be at.
        dialing: Option<(Dial, u32, usize)>,
        /// Dialled before, so its next dial is a redial.
        dialled: bool,
        /// The batches its next connection must resubmit, in order.
        resubmit: Vec<usize>,
    }

    /// A scripted batch, as the explorer accounts for it.
    #[derive(Clone, Copy, Default)]
    struct Track {
        /// Its request id, once submitted.
        req_id: Option<u64>,
        /// Nodes answered on the current connection.
        answered: usize,
        /// Connection deaths it was outstanding at.
        deaths: u8,
        /// Taken, which is its one completion.
        taken: bool,
    }

    /// An explored state: the mux, the endpoints around it, and the
    /// explorer's own account of what the mux must have done.
    #[derive(Clone)]
    struct World {
        mux: MuxState,
        endpoints: Vec<Endpoint>,
        homes: Vec<Home>,
        tracks: Vec<Track>,
        /// The mux returned an error: the processor is gone.
        failed: bool,
        /// The counters the events so far must have produced.
        expect: FailoverStats,
    }

    impl World {
        fn submitted(&self) -> usize {
            self.tracks
                .iter()
                .take_while(|t| t.req_id.is_some())
                .count()
        }

        fn live(&self, home: usize) -> bool {
            self.homes[home].link.as_ref().is_some_and(|l| {
                let e = self.endpoints[l.target];
                e.up && l.restarted == e.restarted
            })
        }

        /// `home`'s submitted batches not taken and not fully answered, in
        /// submission order.
        fn outstanding(&self, batches: &[Batch], home: usize) -> Vec<usize> {
            (0..self.submitted())
                .filter(|&b| batches[b].0 == home)
                .filter(|&b| !self.tracks[b].taken && self.tracks[b].answered < 2)
                .collect()
        }

        fn batch_of(&self, req_id: u64) -> usize {
            let found = self.tracks.iter().position(|t| t.req_id == Some(req_id));
            found.expect("a submitted request")
        }
    }

    /// Everything in a [`MuxState`], payload bytes included.
    fn mux_key(mux: &MuxState) -> u128 {
        let mut h = Key::default();
        for s in &mux.servers {
            h.put(s.epoch << 8 | s.link.map_or(0xFF, |k| k as u64));
            for (req_id, r) in &s.requests {
                h.put(*req_id);
                h.put(r.nodes.len() as u64 | u64::from(r.deaths) << 32);
                h.put(r.issued_ns.unwrap_or(!0));
                let Some(got) = &r.got else {
                    h.put(!0);
                    continue;
                };
                h.put(got.len() as u64);
                for p in got {
                    h.put(p.as_ref().map_or(!0, |(id, b)| {
                        b.iter().fold(u64::from(*id), |a, &x| a << 8 | u64::from(x))
                    }));
                }
            }
            h.put(!1);
        }
        let f = mux.failover;
        [
            mux.next_req_id,
            f.redials,
            f.replica_failovers,
            f.batches_resubmitted,
        ]
        .into_iter()
        .for_each(|w| h.put(w));
        h.finish()
    }

    #[derive(Debug, Clone, Copy)]
    enum Action {
        /// First use of a home: its ladder's first dial.
        Connect(usize),
        /// The next batch goes to its connected home.
        Submit,
        /// The endpoint behind a home's connection answers `count` more
        /// nodes of the request it owes at `index`.
        Deliver(usize, usize, usize),
        /// The mux hands out a batch's answer.
        Take(usize),
        /// The mux sees its connection to a home die, and makes the
        /// ladder's first dial.
        Close(usize),
        /// The mux makes a home's next dial.
        Dial(usize),
        Kill(usize),
        Restart(usize),
    }

    /// `home` makes its pending dial, which must be where the walk is:
    /// the primary first, then down the chain, the backoff only before a
    /// rung's first dial.
    fn dial(w: &mut World, home: usize, batches: &[Batch]) {
        let (servers, chain) = (w.endpoints.len(), w.mux.chain());
        let (dial, attempt, k) = w.homes[home].dialing.take().expect("a pending dial");
        let delay = if k == 0 && attempt > 0 {
            w.mux.retry.delay(attempt - 1, home as u64)
        } else {
            Duration::ZERO
        };
        assert!(k < chain, "home {home} walked past its chain");
        let walk = Dial {
            target: (home + k) % servers,
            attempt,
            delay,
        };
        assert_eq!(dial, walk, "home {home}'s ladder");
        if std::mem::replace(&mut w.homes[home].dialled, true) {
            w.expect.redials += 1;
        }
        let Endpoint { up, restarted, .. } = w.endpoints[dial.target];
        let result = if up { Ok(()) } else { Err(WireError::Closed) };
        match w.mux.on_dial(home, dial, result) {
            Ok(Dialled::Connected((), frames)) => {
                assert!(up, "connected to a dead endpoint");
                let mut owed = Vec::new();
                for frame in frames {
                    let Frame::FetchBatchRequest {
                        req_id, nodes: n, ..
                    } = frame
                    else {
                        panic!("resubmitted {}", frame.kind());
                    };
                    let b = w.batch_of(req_id);
                    assert_eq!(n, nodes(&batches[b]), "batch {b} resubmitted");
                    owed.push((b, 2));
                }
                let resubmitted: Vec<usize> = owed.iter().map(|&(b, _)| b).collect();
                let want = std::mem::take(&mut w.homes[home].resubmit);
                assert_eq!(resubmitted, want, "home {home}'s resubmission");
                w.expect.batches_resubmitted += want.len() as u64;
                w.expect.replica_failovers += u64::from(k > 0);
                w.homes[home].link = Some(Link {
                    target: dial.target,
                    restarted,
                    owed,
                });
            }
            Ok(Dialled::Retry(next)) => {
                assert!(!up, "refused by a live endpoint");
                let (attempt, k) = if k + 1 < chain {
                    (attempt, k + 1)
                } else {
                    (attempt + 1, 0)
                };
                w.homes[home].dialing = Some((next, attempt, k));
            }
            Err(_) => {
                assert!(!up, "gave up on a live endpoint");
                assert_eq!(
                    (attempt + 1, k + 1),
                    (w.mux.retry.attempts, chain),
                    "gave up before the ladder's end"
                );
                w.failed = true;
            }
        }
    }

    /// Every interleaving of `batches` with one kill and one restart per
    /// endpoint.
    struct Schedules<'a>(&'a [Batch]);

    impl Model for Schedules<'_> {
        type State = World;
        type Action = Action;

        fn actions(&self, world: &World) -> (Vec<Action>, Vec<Action>) {
            let (mut work, mut faults) = (Vec::new(), Vec::new());
            if world.failed {
                return (work, faults);
            }
            if let Some(home) = world.homes.iter().position(|h| h.dialing.is_some()) {
                // Recovery blocks the processor: only the ladder moves.
                work.push(Action::Dial(home));
            } else {
                if let Some(&(home, _)) = self.0.get(world.submitted()) {
                    work.push(if world.homes[home].link.is_some() {
                        Action::Submit
                    } else {
                        Action::Connect(home)
                    });
                }
                for (home, h) in world.homes.iter().enumerate() {
                    let Some(link) = &h.link else { continue };
                    if !world.live(home) {
                        work.push(Action::Close(home));
                        continue;
                    }
                    for (index, &(_, rest)) in link.owed.iter().enumerate() {
                        work.push(Action::Deliver(home, index, 1));
                        if rest > 1 {
                            work.push(Action::Deliver(home, index, rest));
                        }
                    }
                }
                for (b, t) in world.tracks.iter().enumerate() {
                    if t.req_id.is_some() && !t.taken && t.answered == 2 {
                        work.push(Action::Take(b));
                    }
                }
            }
            // Only a dial sees a restart (a connection to the old
            // incarnation stays dead), so a restart is explored just before
            // the actions that dial, which covers every earlier moment.
            let dials = work
                .iter()
                .any(|a| matches!(a, Action::Connect(_) | Action::Close(_) | Action::Dial(_)));
            for (e, endpoint) in world.endpoints.iter().enumerate() {
                if endpoint.up && !endpoint.killed {
                    faults.push(Action::Kill(e));
                } else if dials && !endpoint.up && !endpoint.restarted {
                    faults.push(Action::Restart(e));
                }
            }
            (work, faults)
        }

        /// The state after `action`. Panics where the mux breaks a rule.
        fn apply(&self, world: &World, action: Action) -> Option<World> {
            let batches = self.0;
            let mut w = world.clone();
            match action {
                Action::Connect(home) => {
                    w.homes[home].dialing = Some((Dial::primary(home), 0, 0));
                    dial(&mut w, home, batches);
                }
                Action::Submit => {
                    let b = w.submitted();
                    let (home, want) = (batches[b].0, nodes(&batches[b]));
                    let (req_id, frame) = w.mux.submit(home, &want, None);
                    let framed = Frame::FetchBatchRequest {
                        req_id,
                        nodes: want,
                        issued_ns: None,
                    };
                    assert_eq!(frame, framed, "batch {b}'s frame");
                    w.tracks[b].req_id = Some(req_id);
                    if w.live(home) {
                        w.homes[home].link.as_mut().expect("live").owed.push((b, 2));
                    }
                }
                Action::Deliver(home, index, count) => {
                    let link = w.homes[home].link.as_mut().expect("a live link");
                    let (b, rest) = link.owed[index];
                    if rest == count {
                        link.owed.remove(index);
                    } else {
                        link.owed[index].1 -= count;
                    }
                    let from = 2 - rest;
                    let req_id = w.tracks[b].req_id.expect("submitted");
                    let payloads = nodes(&batches[b])[from..from + count]
                        .iter()
                        .map(|&node| tier(node))
                        .collect();
                    let chunk = Frame::FetchBatchResponse { req_id, payloads };
                    if let Err(e) = w.mux.on_frame(home, chunk) {
                        panic!("a chunk of batch {b} refused: {e}");
                    }
                    w.tracks[b].answered += count;
                }
                Action::Take(b) => {
                    let got = w
                        .mux
                        .take(batches[b].0, w.tracks[b].req_id.expect("submitted"));
                    let want: BatchPayloads = nodes(&batches[b]).into_iter().map(tier).collect();
                    assert_eq!(got.ok().flatten(), Some(want), "batch {b}'s answer");
                    w.tracks[b].taken = true;
                }
                Action::Close(home) => {
                    w.homes[home].link.take().expect("a link");
                    let outstanding = w.outstanding(batches, home);
                    let mut spent = false;
                    for &b in &outstanding {
                        w.tracks[b].answered = 0;
                        w.tracks[b].deaths += 1;
                        spent |= w.tracks[b].deaths > 1;
                    }
                    let closed = w.mux.on_closed(home);
                    assert_eq!(closed.is_err(), spent, "the one-death budget");
                    if spent {
                        w.failed = true;
                    } else {
                        w.homes[home].resubmit = outstanding;
                        w.homes[home].dialing = Some((Dial::primary(home), 0, 0));
                        dial(&mut w, home, batches);
                    }
                }
                Action::Dial(home) => dial(&mut w, home, batches),
                Action::Kill(e) => {
                    w.endpoints[e].up = false;
                    w.endpoints[e].killed = true;
                    for link in w.homes.iter_mut().filter_map(|h| h.link.as_mut()) {
                        if link.target == e {
                            link.owed.clear();
                        }
                    }
                }
                Action::Restart(e) => {
                    w.endpoints[e].up = true;
                    w.endpoints[e].restarted = true;
                }
            }
            Some(w)
        }

        /// A 128-bit hash of everything above, the mux included.
        fn key(&self, world: &World) -> u128 {
            let mux_key = mux_key(&world.mux);
            let mut h = Key::default();
            h.put((mux_key >> 64) as u64);
            h.put(mux_key as u64);
            for e in &world.endpoints {
                h.put(u64::from(e.up) | u64::from(e.killed) << 1 | u64::from(e.restarted) << 2);
            }
            for home in &world.homes {
                if let Some(l) = &home.link {
                    h.put(l.target as u64 | u64::from(l.restarted) << 8);
                    l.owed
                        .iter()
                        .for_each(|&(b, rest)| h.put((b << 8 | rest) as u64));
                }
                if let Some((dial, attempt, k)) = home.dialing {
                    h.put(dial.target as u64 | u64::from(dial.attempt) << 8);
                    h.put(dial.delay.as_nanos() as u64);
                    h.put(u64::from(attempt) << 8 | k as u64);
                }
                h.put(u64::from(home.dialled));
                home.resubmit.iter().for_each(|&b| h.put(b as u64));
                h.put(!1);
            }
            for t in &world.tracks {
                h.put(t.req_id.unwrap_or(!0));
                h.put(t.answered as u64 | u64::from(t.deaths) << 8 | u64::from(t.taken) << 16);
            }
            let f = world.expect;
            [
                u64::from(world.failed),
                f.redials,
                f.replica_failovers,
                f.batches_resubmitted,
            ]
            .into_iter()
            .for_each(|w| h.put(w));
            h.finish()
        }

        /// The invariants every reachable state holds, and the hostile inputs
        /// every state refuses without changing.
        fn check(&mut self, world: &mut World) {
            let batches = self.0;
            assert_eq!(world.mux.failover(), world.expect, "recovery counters");
            let untaken = world.submitted() - world.tracks.iter().filter(|t| t.taken).count();
            assert_eq!(world.mux.outstanding(), untaken as u64);
            let refused = |r: WireResult<()>| matches!(r, Err(WireError::Protocol(_)));
            let chunk = |req_id, n: usize| Frame::FetchBatchResponse {
                req_id,
                payloads: vec![tier(NodeId::new(1)); n],
            };
            for home in 0..world.homes.len() {
                // Per home, its first batch still awaiting nodes and its first
                // fully answered one (taken or not).
                let of_home = |b: &usize| batches[*b].0 == home;
                let open = world.outstanding(batches, home).first().copied();
                let answered = (0..world.submitted())
                    .filter(of_home)
                    .find(|&b| world.tracks[b].answered == 2);
                let id = |b: usize| world.tracks[b].req_id.expect("submitted");
                let mux = &mut world.mux;
                let connected = world.homes[home].link.is_some();
                // A chunk and a close while the home has no connection.
                if !connected {
                    assert!(mux.on_frame(home, chunk(open.map_or(0, id), 1)).is_ok());
                    assert!(mux.on_closed(home).is_ok());
                }
                if let Some(b) = open {
                    assert!(
                        matches!(mux.take(home, id(b)), Ok(None)),
                        "batch {b} taken early"
                    );
                }
                if let Some(b) = answered.filter(|&b| world.tracks[b].taken) {
                    let again = mux.take(home, id(b));
                    assert!(
                        matches!(again, Err(WireError::Protocol(_))),
                        "batch {b} taken twice"
                    );
                }
                if !connected {
                    continue;
                }
                assert!(refused(mux.on_frame(home, Frame::Shutdown)));
                assert!(refused(mux.on_frame(home, chunk(1000, 0))));
                // One node past the request; past a full answer, any node.
                for b in open.into_iter().chain(answered) {
                    let over = 3 - world.tracks[b].answered;
                    let bad = mux.on_frame(home, chunk(id(b), over));
                    assert!(refused(bad), "{over} more nodes for batch {b}");
                }
            }
        }

        /// Nothing left for the mux: every batch is done, whatever the
        /// endpoints still do, unless the processor is gone.
        fn terminal(&mut self, world: &World) {
            let done = world.failed || world.tracks.iter().all(|t| t.taken);
            assert!(done, "wedged with a batch outstanding");
        }
    }

    /// A shell that records what the links send and dial.
    #[derive(Default)]
    struct Shell {
        sent: Vec<(u64, Frame)>,
        dials: Vec<u64>,
    }

    impl crate::overlap::Replies for Shell {
        fn send(&mut self, conn: u64, frame: &Frame) -> WireResult<()> {
            self.sent.push((conn, frame.clone()));
            Ok(())
        }

        fn close(&mut self, conn: u64) {
            panic!("the links closed connection {conn}");
        }
    }

    impl Dials for Shell {
        fn dial(&mut self, tag: u64, _addr: &str) {
            self.dials.push(tag);
        }

        fn flush(&mut self, _conn: u64) {}
    }

    #[test]
    fn links_drop_what_a_closed_connection_delivers() {
        let partitioner = Arc::new(grouting_storage::HashPartitioner::new(1));
        let mut links = MuxLinks::new(&["s0".to_string()], partitioner);
        let mut shell = Shell::default();
        let want = [NodeId::new(1), NodeId::new(2)];
        let mut pending = links.submit_frontier(&want, 0, &mut shell);
        // The first connection carries the request and dies half answered.
        links
            .take(0, Input::Dialled(0, Some(7)), &mut shell)
            .unwrap();
        let answer = |from: usize, to: usize| Frame::FetchBatchResponse {
            req_id: 0,
            payloads: want[from..to].iter().map(|&n| tier(n)).collect(),
        };
        links
            .take(0, Input::Frame(7, answer(0, 1)), &mut shell)
            .unwrap();
        links.take(0, Input::Closed(7), &mut shell).unwrap();
        links
            .take(0, Input::Dialled(0, Some(8)), &mut shell)
            .unwrap();
        assert_eq!(shell.dials, vec![0, 0], "one redial");
        assert_eq!(shell.sent.len(), 2, "sent, then resubmitted");
        // What the dead connection still delivers changes nothing: a whole
        // answer would otherwise complete the request, and a second close
        // would cost it its one death.
        let before = mux_key(&links.state);
        links
            .take(0, Input::Frame(7, answer(0, 2)), &mut shell)
            .unwrap();
        links.take(0, Input::Closed(7), &mut shell).unwrap();
        assert_eq!(mux_key(&links.state), before);
        assert_eq!(shell.dials.len(), 2, "no dial for a stale close");
        assert!(links.collect(&mut pending).unwrap().is_none());
        links
            .take(0, Input::Frame(8, answer(0, 2)), &mut shell)
            .unwrap();
        let got = links.collect(&mut pending).unwrap();
        assert_eq!(got, Some(want.iter().map(|&n| tier(n)).collect()));
    }

    /// Explores every interleaving of `batches` over `servers` endpoints
    /// with replication 2 and a two-rung ladder, with one kill and one
    /// restart per endpoint.
    fn explore_mux(servers: usize, batches: &[Batch], floor: usize) {
        let mut mux = MuxState::new(servers);
        mux.replication = 2;
        mux.retry = RetryPolicy::new(2, Duration::from_millis(1));
        let up = Endpoint {
            up: true,
            killed: false,
            restarted: false,
        };
        let root = World {
            mux,
            endpoints: vec![up; servers],
            homes: vec![Home::default(); servers],
            tracks: vec![Track::default(); batches.len()],
            failed: false,
            expect: FailoverStats::default(),
        };
        let name = format!("{servers} servers, {} batches", batches.len());
        explore(&mut Schedules(batches), root, &name, floor);
    }

    #[test]
    fn explore_two_servers_three_batches() {
        explore_mux(2, &[(0, [1, 2]), (1, [3, 4]), (0, [5, 6])], 60_000);
    }
}
