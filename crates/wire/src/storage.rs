//! The storage node's core, decided without I/O. A storage server only
//! answers gets (the paper's RAMCloud tier, §4.1): [`StorageCore`] serves
//! each fetch from its tier handle and queues the response, due one
//! [`NetworkModel`] exchange later; on a free network it leaves before the
//! next request is served. The shell (the storage service's loop) owns the
//! connections, the clock and the wait: it hands [`StorageCore::step`] a
//! round's inputs and one clock reading, and honours the [`Wake`] back.

use std::collections::BTreeMap;
use std::sync::Arc;

use bytes::Bytes;
use grouting_storage::{NetworkModel, StorageTier};

use crate::frame::Frame;
use crate::overlap::{Input, Replies, Wake};

/// A storage node's decisions: what each fetch returns, when its response
/// is due, and what the loop does next.
#[cfg_attr(test, derive(Clone))]
pub(crate) struct StorageCore {
    tier: Arc<StorageTier>,
    net: NetworkModel,
    /// Responses not yet sent (their connection and frames), by due time
    /// and then arrival. Due times are not monotone in arrival (the delay
    /// depends on payload bytes), so a large response must not hold back a
    /// small one queued after it. Reordering within a connection is safe:
    /// responses correlate by `req_id`.
    queue: BTreeMap<(u64, u64), (u64, Vec<Frame>)>,
    /// Batches and records served; the batch count also orders responses
    /// due at once.
    pub(crate) batches: u64,
    pub(crate) records: u64,
}

impl StorageCore {
    /// A core serving `tier`, charging `net` per batch.
    pub(crate) fn new(tier: Arc<StorageTier>, net: NetworkModel) -> Self {
        Self {
            tier,
            net,
            queue: BTreeMap::new(),
            batches: 0,
            records: 0,
        }
    }

    /// Responses waiting out their flight time.
    pub(crate) fn delayed(&self) -> usize {
        self.queue.len()
    }

    /// One round at `now` (nanoseconds): serves the inputs in order, and
    /// sends every response due by `now` before each is served and at the
    /// end. The wake is [`Wake::Now`] after a round that took input or
    /// sent, else [`Wake::IdleUntil`] the earliest due time, or
    /// [`Wake::Idle`] when nothing waits.
    pub(crate) fn step(
        &mut self,
        now: u64,
        inputs: impl IntoIterator<Item = Input>,
        out: &mut impl Replies,
    ) -> Wake {
        let mut woke = false;
        for input in inputs {
            self.deliver(now, out);
            match input {
                Input::Frame(conn, frame) => self.serve(now, conn, frame, out),
                Input::Closed(conn) => self.close(conn, out),
                // Storage dials nothing.
                Input::Dialled(..) => {}
            }
            woke = true;
        }
        woke |= self.deliver(now, out);
        match self.queue.keys().next() {
            _ if woke => Wake::Now,
            Some(&(due, _)) => Wake::IdleUntil(due),
            None => Wake::Idle,
        }
    }

    /// Answers one frame; a peer speaking the wrong protocol is retired
    /// without taking the node down.
    fn serve(&mut self, now: u64, conn: u64, frame: Frame, out: &mut impl Replies) {
        let Frame::FetchBatchRequest { req_id, nodes, .. } = frame else {
            if !matches!(frame, Frame::Shutdown) {
                // A storage server only understands fetches; answer the
                // confusion explicitly, then drop the peer.
                let _ = out.send(conn, &Frame::Shutdown);
            }
            return self.close(conn, out);
        };
        self.batches += 1;
        self.records += nodes.len() as u64;
        let payloads: Vec<Option<(u16, Bytes)>> = self
            .tier
            .get_many(&nodes)
            .into_iter()
            .map(|p| p.map(|(server, value)| (server as u16, value)))
            .collect();
        // One modelled exchange for the whole batch: exactly the RTT
        // amortisation the batch path exists for.
        let bytes = payloads.iter().flatten().map(|(_, v)| v.len()).sum();
        let frames = response_frames(req_id, payloads);
        let due = now + self.net.fetch_ns(bytes);
        self.queue.insert((due, self.batches), (conn, frames));
    }

    /// Sends every response due by `now`, earliest first; whether it sent
    /// any. A connection a send fails on is closed.
    fn deliver(&mut self, now: u64, out: &mut impl Replies) -> bool {
        let mut sent = false;
        while let Some(due) = self.queue.first_entry().filter(|e| e.key().0 <= now) {
            let (conn, frames) = due.remove();
            sent = true;
            if frames.iter().any(|frame| out.send(conn, frame).is_err()) {
                self.close(conn, out);
            }
        }
        sent
    }

    /// Drops connection `conn` and every response queued for it.
    fn close(&mut self, conn: u64, out: &mut impl Replies) {
        out.close(conn);
        self.queue.retain(|_, (to, _)| *to != conn);
    }
}

/// Soft byte budget per [`Frame::FetchBatchResponse`]: a batch whose
/// payloads sum past this is streamed as several frames under the same
/// `req_id` (the multiplexer reassembles by node count), keeping every
/// frame comfortably under [`crate::frame::MAX_FRAME_BYTES`] no matter how
/// large the requested frontier is. A *single* record larger than the
/// frame cap still cannot be shipped.
const BATCH_RESPONSE_SOFT_BYTES: usize = 8 << 20;

/// Per-payload framing overhead assumed by the response chunker (flag +
/// server id + length prefix, rounded up).
const PAYLOAD_OVERHEAD: usize = 8;

/// A batch's response frames, each under [`BATCH_RESPONSE_SOFT_BYTES`]
/// unless one payload alone is larger; one empty frame for no payloads.
pub(crate) fn response_frames(req_id: u64, mut payloads: Vec<Option<(u16, Bytes)>>) -> Vec<Frame> {
    let mut frames = Vec::new();
    loop {
        let (mut bytes, mut take) = (0, 0);
        for payload in &payloads {
            bytes += payload.as_ref().map_or(0, |(_, v)| v.len()) + PAYLOAD_OVERHEAD;
            // Always ship at least one payload per frame, else an
            // oversized record would loop forever.
            if take > 0 && bytes > BATCH_RESPONSE_SOFT_BYTES {
                break;
            }
            take += 1;
        }
        let rest = payloads.split_off(take);
        frames.push(Frame::FetchBatchResponse { req_id, payloads });
        if rest.is_empty() {
            return frames;
        }
        payloads = rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::{WireError, WireResult};
    use crate::explore::{explore, Key, Model};
    use grouting_graph::{GraphBuilder, NodeId};
    use grouting_storage::HashPartitioner;

    /// The explored batches: each one's connection and nodes, its index
    /// doubling as its request id. Node 40 is not stored, so the last
    /// batch costs nothing on the wire; the first two cost two equal
    /// records each, so their delays tie.
    const BATCHES: [(u64, [u32; 2]); 3] = [(0, [1, 2]), (1, [3, 4]), (0, [40, 40])];

    /// The shell as a round sees it: a connection the world closed refuses
    /// sends, and every send is logged as its connection, its request id
    /// and whether it went out.
    struct Wire {
        closed: [bool; 2],
        log: Vec<(u64, u64, bool)>,
    }

    impl Replies for Wire {
        fn send(&mut self, conn: u64, frame: &Frame) -> WireResult<()> {
            let Frame::FetchBatchResponse { req_id, .. } = frame else {
                panic!("sent {}", frame.kind());
            };
            let open = !self.closed[conn as usize];
            self.log.push((conn, *req_id, open));
            open.then_some(()).ok_or(WireError::Closed)
        }

        fn close(&mut self, conn: u64) {
            self.closed[conn as usize] = true;
        }
    }

    /// An explored state: the core, the clock, and the explorer's own
    /// account of what must have happened.
    #[derive(Clone)]
    struct World {
        core: StorageCore,
        now: u64,
        /// What the next round takes, in arrival order.
        inbox: Vec<Input>,
        /// Per connection: batches put on it, and whether it closed.
        arrived: [usize; 2],
        closed: [bool; 2],
        /// Per batch: when the round that took it ran.
        taken_at: [Option<u64>; 3],
        /// Per batch: responses that went out.
        answered: [u8; 3],
    }

    #[derive(Debug, Clone, Copy)]
    enum Action {
        /// A connection's next batch arrives.
        Arrive(u64),
        /// A round at the current time.
        Step,
        /// The clock jumps to the earliest due time.
        Jump,
        /// The clock moves on one record's flight time.
        Tick,
        /// The shell retires a connection; the next round hears of it.
        Close(u64),
    }

    /// Every schedule of the batches' arrivals, the rounds and the clock,
    /// with one connection closed at any moment.
    struct Schedules {
        /// Per batch: its emulated flight time.
        delay: [u64; 3],
        /// One record's flight time: the clock's tick.
        tick: u64,
    }

    impl Schedules {
        /// The batches on connection `conn`, in arrival order.
        fn on(conn: u64) -> impl Iterator<Item = usize> {
            (0..BATCHES.len()).filter(move |&b| BATCHES[b].0 == conn)
        }

        /// One round, and every rule it must keep; `None` when the round
        /// was idle, which must have changed nothing.
        fn step(&self, world: &World) -> Option<World> {
            let mut w = world.clone();
            let inputs = std::mem::take(&mut w.inbox);
            for input in &inputs {
                if let Input::Frame(_, Frame::FetchBatchRequest { req_id, .. }) = input {
                    w.taken_at[*req_id as usize] = Some(w.now);
                }
            }
            let took = !inputs.is_empty();
            let mut wire = Wire {
                closed: w.closed,
                log: Vec::new(),
            };
            let wake = w.core.step(w.now, inputs, &mut wire);
            let mut last_due = 0;
            for &(conn, b, open) in &wire.log {
                let b = b as usize;
                assert_eq!(conn, BATCHES[b].0, "batch {b} answered on {conn}");
                let due = w.taken_at[b].expect("answered before asked") + self.delay[b];
                assert!(due <= w.now, "batch {b} left at {} before {due}", w.now);
                assert!(due >= last_due, "batch {b} waited behind one due later");
                last_due = due;
                w.answered[b] += u8::from(open);
                assert!(w.answered[b] <= 1, "batch {b} answered twice");
            }
            for (&(due, _), &(conn, _)) in &w.core.queue {
                assert!(due > w.now, "a response due at {due} held at {}", w.now);
                assert!(
                    !w.closed[conn as usize],
                    "a response kept for closed {conn}"
                );
            }
            let idle = match w.core.queue.keys().next() {
                Some(&(due, _)) => Wake::IdleUntil(due),
                None => Wake::Idle,
            };
            let busy = took || !wire.log.is_empty();
            assert_eq!(wake, if busy { Wake::Now } else { idle }, "the wake");
            if busy {
                return Some(w);
            }
            assert_eq!(self.key(&w), self.key(world), "an idle round changed");
            None
        }
    }

    impl Model for Schedules {
        type State = World;
        type Action = Action;

        fn actions(&self, w: &World) -> (Vec<Action>, Vec<Action>) {
            let mut work = vec![Action::Step];
            let waiting = (0..2).filter(|&c| !w.closed[c as usize]);
            let arrive = waiting.filter(|&c| Self::on(c).nth(w.arrived[c as usize]).is_some());
            work.extend(arrive.map(Action::Arrive));
            if w.core
                .queue
                .keys()
                .next()
                .is_some_and(|&(due, _)| due > w.now)
            {
                work.push(Action::Jump);
            }
            let mut faults = Vec::new();
            if w.arrived.iter().sum::<usize>() < BATCHES.len() && w.now < 2 * self.tick {
                faults.push(Action::Tick);
            }
            if !w.closed.contains(&true) {
                faults.extend([0, 1].map(Action::Close));
            }
            (work, faults)
        }

        fn apply(&self, world: &World, action: Action) -> Option<World> {
            let mut w = world.clone();
            match action {
                Action::Arrive(conn) => {
                    let b = Self::on(conn).nth(w.arrived[conn as usize]).expect("next");
                    w.arrived[conn as usize] += 1;
                    let nodes = BATCHES[b].1.into_iter().map(NodeId::new).collect();
                    let frame = Frame::FetchBatchRequest {
                        req_id: b as u64,
                        nodes,
                        issued_ns: None,
                    };
                    w.inbox.push(Input::Frame(conn, frame));
                }
                Action::Step => return self.step(world),
                Action::Jump => w.now = w.core.queue.keys().next().expect("queued").0,
                Action::Tick => w.now += self.tick,
                Action::Close(conn) => {
                    w.closed[conn as usize] = true;
                    w.inbox.push(Input::Closed(conn));
                }
            }
            Some(w)
        }

        fn key(&self, w: &World) -> u128 {
            let mut h = Key::default();
            [w.now, w.core.batches, w.core.records]
                .into_iter()
                .for_each(|word| h.put(word));
            for (&(due, seq), (conn, frames)) in &w.core.queue {
                h.put(due);
                h.put(seq << 8 | conn);
                for frame in frames {
                    let Frame::FetchBatchResponse { req_id, payloads } = frame else {
                        unreachable!("only responses are queued")
                    };
                    h.put(req_id << 8 | payloads.len() as u64);
                }
            }
            for input in &w.inbox {
                h.put(match input {
                    Input::Frame(conn, Frame::FetchBatchRequest { req_id, .. }) => {
                        conn << 8 | req_id
                    }
                    Input::Closed(conn) => 1 << 16 | conn,
                    Input::Frame(..) | Input::Dialled(..) => unreachable!("only fetches arrive"),
                });
            }
            for c in 0..2 {
                h.put(w.arrived[c] as u64 | u64::from(w.closed[c]) << 8);
            }
            for b in 0..BATCHES.len() {
                h.put(w.taken_at[b].unwrap_or(!0));
                h.put(u64::from(w.answered[b]));
            }
            h.finish()
        }

        fn check(&mut self, _: &mut World) {}

        /// Nothing left to arrive, take or send: every batch was answered
        /// once, unless its connection closed.
        fn terminal(&mut self, w: &World) {
            assert!(w.inbox.is_empty() && w.core.queue.is_empty());
            for (b, &(conn, _)) in BATCHES.iter().enumerate() {
                if !w.closed[conn as usize] {
                    assert_eq!(w.answered[b], 1, "batch {b} answered");
                }
            }
        }
    }

    /// Two connections and three batches: delays that tie (the first two)
    /// and cross (the third is free and arrives after the first), one
    /// connection closed at any moment, and a clock that ticks while
    /// batches arrive and jumps to the earliest due time.
    #[test]
    fn explore_two_connections_three_batches() {
        let mut b = GraphBuilder::new();
        for i in 0..32 {
            b.add_edge(NodeId::new(i), NodeId::new((i + 1) % 32));
        }
        let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(2))));
        tier.load_graph(&b.build().unwrap()).unwrap();
        // A byte costs a nanosecond, and nothing else does.
        let net = NetworkModel {
            rtt_ns: 0,
            gbps: 8.0,
        };
        let delay = BATCHES.map(|(_, nodes)| {
            let nodes: Vec<NodeId> = nodes.into_iter().map(NodeId::new).collect();
            let bytes = tier.get_many(&nodes).into_iter().flatten();
            net.fetch_ns(bytes.map(|(_, v)| v.len()).sum())
        });
        assert!(
            delay[0] == delay[1] && delay[1] > 0 && delay[2] == 0,
            "{delay:?}"
        );
        let root = World {
            core: StorageCore::new(tier, net),
            now: 0,
            inbox: Vec::new(),
            arrived: [0; 2],
            closed: [false; 2],
            taken_at: [None; 3],
            answered: [0; 3],
        };
        let tick = delay[0] / 2;
        explore(&mut Schedules { delay, tick }, root, "storage", 2_000);
    }
}
