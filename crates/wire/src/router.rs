//! The router node's core, decided without I/O. Every query crosses the
//! router twice (the paper's Figure 2): submit → dispatch to any
//! processor, then completion → client. [`RouterCore`] owns the
//! router-half [`Engine`], which decides admission, routing, stealing,
//! each processor's dispatch window, death and rejoin; around it, the
//! core keeps which connection is which peer, the arrival and trace
//! stamps and the landmark-region heat. The shell (`run_router`) owns the
//! connections, the clock, observability and the wait: it hands
//! [`RouterCore::step`] a round's inputs and one clock reading, and
//! honours the [`Wake`] back.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use grouting_embed::landmarks::Landmarks;
use grouting_engine::{Engine, EngineAssets, EngineConfig};
use grouting_graph::NodeId;
use grouting_metrics::timeline::QueryRecord;
use grouting_metrics::{HeatMap, RunSnapshot};
use grouting_query::Query;
use grouting_trace::{
    QuerySpan, QueryTrace, SpanRing, Stage, StageStats, TelemetryCounters, TraceLevel,
    TraceSnapshot, DEFAULT_SPAN_RING,
};

use crate::error::{WireError, WireResult};
use crate::frame::{Completion, DispatchTrace, Frame, Role};
use crate::overlap::{Input, Replies, Wake};

/// A router's decisions: which peer each connection is, what each
/// processor is sent next, what the client hears, and when the run ends.
pub(crate) struct RouterCore {
    engine: Engine,
    /// Per processor id: its connection, while it is up.
    processors: Vec<Option<u64>>,
    /// The client's connection, once it said hello.
    pub(crate) client: Option<u64>,
    /// Processor hellos so far (restarts count again).
    ever_connected: usize,
    /// Submitted queries the engine has not admitted yet.
    backlog: VecDeque<(usize, Query)>,
    /// Per admitted seq: when it was admitted. Bounded by the admission
    /// window: each entry goes when its query completes.
    arrivals: HashMap<u64, u64>,
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    submit_done: bool,
    /// Emit a [`Frame::Metrics`] to the client every this many
    /// completions (`0` = only the final one).
    snapshot_every: u64,
    /// Trace state, inert at [`TraceLevel::Off`]: per-stage histograms,
    /// the recent-span ring, and per-seq stamps bridging submit →
    /// dispatch → completion (bounded by the in-flight window, like
    /// `arrivals`).
    trace: TraceLevel,
    pub(crate) stages: StageStats,
    spans: SpanRing,
    submitted_at: HashMap<u64, u64>,
    dispatched_at: HashMap<u64, (u64, u64)>,
    /// The shell's connection telemetry, folded into traced snapshots.
    telemetry: Option<Arc<TelemetryCounters>>,
    /// Region attribution by the landmark set (`None` without it).
    regions: Option<RegionMemo>,
    /// Per landmark region: dispatches anchored there.
    region_heat: HeatMap,
    /// Processors that died since the shell last took them.
    died: Vec<usize>,
}

impl RouterCore {
    /// A core routing under `config` with `assets`' preprocessing, tracing
    /// at `trace`, and streaming a snapshot to the client every
    /// `snapshot_every` completions.
    ///
    /// # Panics
    ///
    /// As [`Engine::new`]: a smart routing scheme without its asset.
    pub(crate) fn new(
        assets: &EngineAssets,
        config: &EngineConfig,
        trace: TraceLevel,
        snapshot_every: u64,
        telemetry: Option<Arc<TelemetryCounters>>,
    ) -> Self {
        Self {
            // Router half only: the processors (and their caches) are remote.
            engine: Engine::new_router_only(assets, config),
            processors: vec![None; config.processors],
            client: None,
            ever_connected: 0,
            backlog: VecDeque::new(),
            arrivals: HashMap::new(),
            submitted: 0,
            completed: 0,
            submit_done: false,
            snapshot_every,
            trace,
            stages: StageStats::default(),
            spans: SpanRing::new(if trace.spans() { DEFAULT_SPAN_RING } else { 0 }),
            submitted_at: HashMap::new(),
            dispatched_at: HashMap::new(),
            telemetry,
            regions: assets.landmarks.clone().map(RegionMemo::new),
            region_heat: HeatMap::new(),
            died: Vec::new(),
        }
    }

    /// One round at `now` (nanoseconds): takes the inputs in order, then
    /// admits the backlog and fills every live processor's dispatch
    /// window. The wake is [`Wake::Now`] after a round that took input or
    /// sent a frame, else [`Wake::Idle`].
    ///
    /// # Errors
    ///
    /// Protocol violations, losing the client (or a send to it), and the
    /// death of every processor before the run is done.
    pub(crate) fn step(
        &mut self,
        now: u64,
        inputs: impl IntoIterator<Item = Input>,
        out: &mut impl Replies,
    ) -> WireResult<Wake> {
        let mut woke = false;
        for input in inputs {
            match input {
                Input::Frame(conn, frame) => self.take(now, conn, frame, out)?,
                Input::Closed(conn) => self.closed(conn)?,
                // The router dials nothing.
                Input::Dialled(..) => {}
            }
            woke = true;
        }
        woke |= self.dispatch(now, out)?;
        Ok(if woke { Wake::Now } else { Wake::Idle })
    }

    /// Everything submitted is done and no more will come.
    pub(crate) fn finished(&self) -> bool {
        self.submit_done
            && self.completed == self.submitted
            && self.backlog.is_empty()
            && self.engine.pending() == 0
    }

    /// The run's totals so far, the router's region heat filled in.
    pub(crate) fn snapshot(&self) -> RunSnapshot {
        RunSnapshot {
            region_heat: self.region_heat.clone(),
            ..self.engine.snapshot()
        }
    }

    /// The totals so far as a [`Frame::Metrics`], with the trace layer's
    /// aggregate when tracing is on (`None` keeps the frame byte-identical
    /// to an untraced deployment).
    pub(crate) fn metrics(&self) -> Frame {
        let trace = self.trace.enabled().then(|| {
            Box::new(TraceSnapshot {
                level: self.trace,
                stages: self.stages.clone(),
                reactor: self
                    .telemetry
                    .as_ref()
                    .map(|t| t.snapshot())
                    .unwrap_or_default(),
                spans: self.spans.dump(),
                spans_dropped: self.spans.dropped(),
            })
        });
        Frame::Metrics {
            snapshot: self.snapshot(),
            trace,
        }
    }

    /// Every live processor's connection.
    pub(crate) fn processor_conns(&self) -> impl Iterator<Item = u64> + '_ {
        self.processors.iter().flatten().copied()
    }

    /// The processors that died since the last call.
    pub(crate) fn take_deaths(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.died)
    }

    /// Sends `frame` to `conn`, returning whether it went out; a send that
    /// fails closes the connection and retires its peer at once.
    fn send(&mut self, conn: u64, frame: &Frame, out: &mut impl Replies) -> WireResult<bool> {
        if out.send(conn, frame).is_ok() {
            return Ok(true);
        }
        out.close(conn);
        self.closed(conn)?;
        Ok(false)
    }

    /// Admits the backlog, then fills each live processor's window;
    /// whether anything was sent.
    fn dispatch(&mut self, now: u64, out: &mut impl Replies) -> WireResult<bool> {
        let (backlog, arrivals) = (&mut self.backlog, &mut self.arrivals);
        let mut drain = std::iter::from_fn(|| backlog.pop_front());
        self.engine.admit(&mut drain, |seq| {
            arrivals.insert(seq as u64, now);
        });
        let mut sent = false;
        for id in 0..self.processors.len() {
            while let Some(conn) = self.processors[id] {
                let Some((seq, query)) = self.engine.next_for(id) else {
                    break;
                };
                sent = true;
                let trace = self.trace.enabled().then_some(DispatchTrace {
                    level: self.trace,
                    dispatched_ns: now,
                });
                // A failed send marks the processor down, which resubmits
                // its window, this query included.
                if !self.send(conn, &Frame::Dispatch { seq, query, trace }, out)? {
                    break;
                }
                if trace.is_some() {
                    // Queue wait ends now; a resubmitted query (its first
                    // dispatchee died) restarts at zero.
                    let queue_ns =
                        now.saturating_sub(self.submitted_at.remove(&seq).unwrap_or(now));
                    self.stages.record(Stage::RouterQueue, queue_ns);
                    self.dispatched_at.insert(seq, (queue_ns, now));
                }
                // Region demand: one count per dispatch, against the
                // anchor's nearest landmark.
                if let Some(region) = self.regions.as_mut().and_then(|m| m.region(query.anchor())) {
                    self.region_heat.record_demand(region, 1);
                }
            }
        }
        Ok(sent)
    }

    /// Takes one frame from `conn`.
    fn take(
        &mut self,
        now: u64,
        conn: u64,
        frame: Frame,
        out: &mut impl Replies,
    ) -> WireResult<()> {
        match frame {
            Frame::Hello {
                role: Role::Processor,
                id,
            } => {
                let id = id as usize;
                let p = self.processors.len();
                if id >= p {
                    return Err(WireError::Protocol(format!(
                        "processor id {id} out of range (P = {p})"
                    )));
                }
                if self.processors[id].is_some() {
                    return Err(WireError::Protocol(format!(
                        "processor id {id} connected twice"
                    )));
                }
                self.processors[id] = Some(conn);
                // Re-join: a restarted processor re-dialling with its old
                // id goes back into rotation (a no-op on the first connect).
                self.engine.mark_up(id);
                self.ever_connected += 1;
            }
            Frame::Hello {
                role: Role::Client, ..
            } => {
                // A second client would take the first one's completions.
                if let Some(first) = self.client {
                    return Err(WireError::Protocol(format!(
                        "conn {conn} said client hello after conn {first}"
                    )));
                }
                self.client = Some(conn);
            }
            Frame::Submit {
                seq,
                query,
                submitted_ns,
            } => {
                if self.trace.enabled() {
                    // Queue wait starts at the client's own stamp when it
                    // traced the submit, else at router receipt.
                    self.submitted_at.insert(seq, submitted_ns.unwrap_or(now));
                }
                self.backlog.push_back((seq as usize, query));
                self.submitted += 1;
            }
            Frame::SubmitEnd => self.submit_done = true,
            Frame::Completion(completion) => self.complete(now, conn, completion, out)?,
            // Any peer may sample the run mid-flight; it gets the totals
            // accumulated so far.
            Frame::MetricsRequest => {
                self.send(conn, &self.metrics(), out)?;
            }
            // Any peer may abort the run (the harness does when its client
            // fails before connecting properly).
            Frame::Shutdown => {
                return Err(WireError::Protocol(format!("run aborted by conn {conn}")))
            }
            other => {
                return Err(WireError::Protocol(format!(
                    "router got {} from conn {conn}",
                    other.kind()
                )))
            }
        }
        Ok(())
    }

    /// Acknowledges a completion from `conn` and forwards it to the
    /// client.
    fn complete(
        &mut self,
        now: u64,
        conn: u64,
        mut completion: Completion,
        out: &mut impl Replies,
    ) -> WireResult<()> {
        // Attributed by connection, not by the frame's word: a tally is
        // kept until the processor reports a change, so a misattributed one
        // would stick to the wrong processor.
        let hello = self.processors.iter().position(|&c| c == Some(conn));
        let Some(id) = hello.filter(|&id| id == completion.processor as usize) else {
            return Err(WireError::Protocol(format!(
                "conn {conn} ({}) sent a completion for seq {} claiming processor {}",
                hello.map_or_else(
                    || "no processor hello".to_string(),
                    |id| format!("hello as processor {id}")
                ),
                completion.seq,
                completion.processor
            )));
        };
        // The tallies ride only when they changed (default = unchanged) and
        // never on to the client, which gets run totals in `Metrics`.
        let failover = std::mem::take(&mut completion.failover);
        let heat = std::mem::take(&mut completion.heat);
        completion.arrived_ns = self.arrivals.remove(&completion.seq).unwrap_or(0);
        let record = QueryRecord {
            seq: completion.seq,
            arrived: completion.arrived_ns,
            started: completion.started_ns,
            completed: completion.completed_ns,
            processor: id,
        };
        // A repeated or unknown seq would count a query twice and end the
        // run with another in flight.
        if !self.engine.complete(record, &completion.stats) {
            return Err(WireError::Protocol(format!(
                "processor {id} acknowledged seq {}, which is not in its dispatch window",
                completion.seq
            )));
        }
        self.completed += 1;
        self.engine.report_tallies(id, failover, heat);
        if let Some((queue_ns, dispatched_ns)) = self.dispatched_at.remove(&completion.seq) {
            self.record_trace(now, queue_ns, dispatched_ns, &completion);
        }
        let Some(client) = self.client else {
            return Ok(());
        };
        self.send(client, &Frame::Completion(completion), out)?;
        let every = self.snapshot_every;
        if every > 0 && self.completed.is_multiple_of(every) && self.completed < self.submitted {
            self.send(client, &self.metrics(), out)?;
        }
        Ok(())
    }

    /// Folds a traced completion received at `now` into the stage
    /// histograms and the span ring (which keeps none below `spans`).
    fn record_trace(&mut self, now: u64, queue_ns: u64, dispatched_ns: u64, done: &Completion) {
        let rtt_ns = now.saturating_sub(dispatched_ns);
        self.stages.record(Stage::DispatchRtt, rtt_ns);
        if let Some(t) = &done.trace {
            self.stages.record(Stage::FetchWait, t.fetch_wait_ns);
            self.stages.record(Stage::Compute, t.compute_ns);
        }
        let untraced = QueryTrace::default();
        let t = done.trace.as_ref().unwrap_or(&untraced);
        self.spans.push(QuerySpan {
            seq: done.seq,
            processor: done.processor,
            levels: t.levels,
            queue_ns,
            rtt_ns,
            fetch_wait_ns: t.fetch_wait_ns,
            compute_ns: t.compute_ns,
            // Router-side estimate: stamp → arrival here. The client
            // measures the full completion stage for the histogram.
            completion_ns: now.saturating_sub(done.completed_ns),
        });
    }

    /// A peer's connection closed (or a send to it failed). Losing the
    /// client is fatal. A processor's death is masked: the engine marks it
    /// down, redistributing its queued work and resubmitting its window, so
    /// the run continues on the survivors — unless none remain. A stray
    /// dial or a peer that never said hello is ignorable.
    fn closed(&mut self, conn: u64) -> WireResult<()> {
        if self.client == Some(conn) {
            return Err(WireError::Closed);
        }
        let Some(id) = self.processors.iter().position(|&c| c == Some(conn)) else {
            return Ok(());
        };
        self.processors[id] = None;
        self.engine.mark_down(id);
        self.died.push(id);
        let unfinished =
            !self.submit_done || self.completed < self.submitted || self.engine.pending() > 0;
        if unfinished && self.processors.iter().all(Option::is_none) {
            return Err(WireError::Protocol(format!(
                "all {} connected processor(s) died mid-run",
                self.ever_connected
            )));
        }
        Ok(())
    }
}

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

/// [`nearest_region`] remembered per anchor. The scan reads one cold
/// cache line from every landmark's distance row, and the router
/// attributes every dispatch, so each node is scanned once.
struct RegionMemo {
    landmarks: Arc<Landmarks>,
    /// Per node: 0 before its scan, 1 for no region, `region + 2` after.
    /// Zeroed, so untouched pages cost no memory.
    regions: Vec<u32>,
}

impl RegionMemo {
    /// A memo over the ids every distance row covers.
    fn new(landmarks: Arc<Landmarks>) -> Self {
        let len = landmarks.dist.iter().map(Vec::len).min().unwrap_or(0);
        Self {
            landmarks,
            regions: vec![0; len],
        }
    }

    /// `nearest_region(landmarks, node)`, scanned on first use.
    fn region(&mut self, node: NodeId) -> Option<usize> {
        let slot = self.regions.get_mut(node.index())?;
        if *slot == 0 {
            *slot = nearest_region(&self.landmarks, node).map_or(1, |r| r as u32 + 2);
        }
        (*slot as usize).checked_sub(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_graph::GraphBuilder;
    use grouting_route::RoutingKind;
    use grouting_storage::{HashPartitioner, StorageTier};

    /// The client's connection; processor `p` says hello on `p + 1`.
    const CLIENT: u64 = 0;

    fn conn_of(p: u32) -> u64 {
        u64::from(p) + 1
    }

    /// The shell as a round sees it: every send is logged as its
    /// connection, the frame and whether it went out, and a connection in
    /// `refuse` fails every send.
    #[derive(Default)]
    struct Wire {
        refuse: Vec<u64>,
        log: Vec<(u64, Frame, bool)>,
        closed: Vec<u64>,
    }

    impl Replies for Wire {
        fn send(&mut self, conn: u64, frame: &Frame) -> WireResult<()> {
            let open = !self.refuse.contains(&conn);
            self.log.push((conn, frame.clone(), open));
            open.then_some(()).ok_or(WireError::Closed)
        }

        fn close(&mut self, conn: u64) {
            self.closed.push(conn);
        }
    }

    impl Wire {
        /// Every dispatch tried, in order: its connection, its seq and
        /// whether it went out.
        fn dispatches(&self) -> Vec<(u64, u64, bool)> {
            let tried = self
                .log
                .iter()
                .filter_map(|(conn, frame, open)| match frame {
                    Frame::Dispatch { seq, .. } => Some((*conn, *seq, *open)),
                    _ => None,
                });
            tried.collect()
        }
    }

    /// Two processors with windows of one, routed next-ready: the lowest
    /// idle processor id takes the next query.
    fn core() -> RouterCore {
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            b.add_edge(NodeId::new(i), NodeId::new((i + 1) % 8));
        }
        let tier = Arc::new(StorageTier::new(Arc::new(HashPartitioner::new(1))));
        tier.load_graph(&b.build().unwrap()).unwrap();
        let mut config = EngineConfig::paper_default(2, RoutingKind::NextReady);
        config.overlap = 1;
        RouterCore::new(&EngineAssets::new(tier), &config, TraceLevel::Off, 0, None)
    }

    fn hello(p: u32) -> Input {
        let role = Role::Processor;
        Input::Frame(conn_of(p), Frame::Hello { role, id: p })
    }

    fn client(frame: Frame) -> Input {
        Input::Frame(CLIENT, frame)
    }

    fn submit(seq: u64) -> Input {
        let node = NodeId::new(seq as u32);
        let query = Query::NeighborAggregation {
            node,
            hops: 1,
            label: None,
        };
        client(Frame::Submit {
            seq,
            query,
            submitted_ns: None,
        })
    }

    /// `seq`'s completion on `conn`, claiming `processor`.
    fn completion(conn: u64, seq: u64, processor: u32) -> Input {
        Input::Frame(
            conn,
            Frame::Completion(Completion {
                seq,
                processor,
                result: grouting_query::QueryResult::Count(seq),
                stats: grouting_query::AccessStats::default(),
                prefetch: grouting_query::PrefetchStats,
                failover: grouting_metrics::FailoverStats::default(),
                arrived_ns: 0,
                started_ns: 1,
                completed_ns: 2,
                heat: HeatMap::new(),
                trace: None,
            }),
        )
    }

    /// A core whose client and both processors said hello at time 1.
    fn joined(wire: &mut Wire) -> RouterCore {
        let mut core = core();
        let hellos = [
            client(Frame::Hello {
                role: Role::Client,
                id: 0,
            }),
            hello(0),
            hello(1),
        ];
        assert_eq!(core.step(1, hellos, wire).unwrap(), Wake::Now);
        core
    }

    /// Everything a round could change, as text.
    fn state(core: &RouterCore) -> String {
        let mut arrivals: Vec<_> = core.arrivals.iter().collect();
        arrivals.sort();
        format!(
            "{:?} {:?} {:?} {} {} {} {} {arrivals:?}",
            core.snapshot(),
            core.processors,
            core.client,
            core.submitted,
            core.completed,
            core.backlog.len(),
            core.finished(),
        )
    }

    #[test]
    fn a_quiet_round_sends_nothing_and_changes_nothing() {
        let quiet = |core: &mut RouterCore| {
            let mut wire = Wire::default();
            let before = state(core);
            assert_eq!(core.step(10, [], &mut wire).unwrap(), Wake::Idle);
            assert!(wire.log.is_empty() && wire.closed.is_empty());
            assert_eq!(state(core), before);
        };
        // With no peer at all, then with a query in flight and none queued.
        quiet(&mut core());
        let mut wire = Wire::default();
        let mut core = joined(&mut wire);
        core.step(2, [submit(0)], &mut wire).unwrap();
        assert_eq!(wire.dispatches(), [(conn_of(0), 0, true)]);
        quiet(&mut core);
    }

    #[test]
    fn a_completion_on_another_processors_connection_is_a_protocol_error() {
        // Processor 1's connection claims processor 0, for processor 0's
        // query and for its own.
        for seq in [0, 1] {
            let mut wire = Wire::default();
            let mut core = joined(&mut wire);
            core.step(2, [submit(0), submit(1)], &mut wire).unwrap();
            assert_eq!(
                wire.dispatches()[seq as usize],
                (conn_of(seq as u32), seq, true)
            );
            let err = core.step(3, [completion(conn_of(1), seq, 0)], &mut wire);
            assert!(matches!(err, Err(WireError::Protocol(_))), "{err:?}");
        }
    }

    #[test]
    fn a_closed_processor_resubmits_its_window_to_the_survivor() {
        let mut wire = Wire::default();
        let mut core = joined(&mut wire);
        core.step(2, [submit(0), submit(1)], &mut wire).unwrap();
        assert_eq!(
            wire.dispatches(),
            [(conn_of(0), 0, true), (conn_of(1), 1, true)]
        );
        // Processor 1 finishes its query; then processor 0 dies, and its
        // window goes to the survivor in the same round, under its seq.
        let rounds = [completion(conn_of(1), 1, 1), Input::Closed(conn_of(0))];
        assert_eq!(core.step(3, rounds, &mut wire).unwrap(), Wake::Now);
        assert_eq!(wire.dispatches()[2..], [(conn_of(1), 0, true)]);
        assert_eq!(core.take_deaths(), [0]);
        let done = [completion(conn_of(1), 0, 1), client(Frame::SubmitEnd)];
        core.step(4, done, &mut wire).unwrap();
        assert!(core.finished());
    }

    #[test]
    fn a_failed_send_marks_its_processor_down_in_the_same_step() {
        let mut wire = Wire::default();
        let mut core = joined(&mut wire);
        wire.refuse.push(conn_of(0));
        assert_eq!(core.step(2, [submit(0)], &mut wire).unwrap(), Wake::Now);
        // One round: the send to processor 0 failed, its connection was
        // closed and the query went to processor 1.
        assert_eq!(
            wire.dispatches(),
            [(conn_of(0), 0, false), (conn_of(1), 0, true)]
        );
        assert_eq!(wire.closed, [conn_of(0)]);
        assert_eq!(core.take_deaths(), [0]);
        assert_eq!(core.processor_conns().collect::<Vec<_>>(), [conn_of(1)]);
    }

    #[test]
    fn the_run_finishes_only_after_submit_end_and_the_last_completion() {
        // The end of the submissions arrives last, then first.
        for end_first in [false, true] {
            let mut wire = Wire::default();
            let mut core = joined(&mut wire);
            core.step(2, [submit(0), submit(1)], &mut wire).unwrap();
            if end_first {
                core.step(3, [client(Frame::SubmitEnd)], &mut wire).unwrap();
            }
            core.step(4, [completion(conn_of(0), 0, 0)], &mut wire)
                .unwrap();
            assert!(!core.finished(), "one query is still out");
            core.step(5, [completion(conn_of(1), 1, 1)], &mut wire)
                .unwrap();
            assert_eq!(core.finished(), end_first);
            core.step(6, [client(Frame::SubmitEnd)], &mut wire).unwrap();
            assert!(core.finished());
            let forwarded = wire.log.iter().filter(|(conn, frame, _)| {
                *conn == CLIENT && matches!(frame, Frame::Completion(_))
            });
            assert_eq!(forwarded.count(), 2);
        }
    }

    #[test]
    fn a_second_client_hello_is_a_protocol_error() {
        let mut wire = Wire::default();
        let mut core = joined(&mut wire);
        let second = Input::Frame(
            9,
            Frame::Hello {
                role: Role::Client,
                id: 0,
            },
        );
        let err = core.step(2, [second], &mut wire);
        assert!(matches!(err, Err(WireError::Protocol(_))), "{err:?}");
        assert_eq!(core.client, Some(CLIENT));
    }

    #[test]
    fn the_region_memo_answers_what_the_scan_does() {
        // Two unjoined rings of 30 with landmarks in both, three isolated
        // nodes (60..63) and seven ids past the graph (63..70): regions
        // for the rings, none for the rest.
        let mut b = GraphBuilder::with_nodes(63);
        for ring in 0..2 {
            for i in 0..30 {
                b.add_edge(
                    NodeId::new(ring * 30 + i),
                    NodeId::new(ring * 30 + (i + 1) % 30),
                );
            }
        }
        let g = b.build().unwrap();
        let landmarks =
            Landmarks::for_nodes(&g, [0, 15, 45].into_iter().map(NodeId::new).collect(), 2);
        let landmarks = Arc::new(landmarks);
        let mut memo = RegionMemo::new(Arc::clone(&landmarks));
        let ids: Vec<NodeId> = (0..70).map(NodeId::new).collect();
        let scan: Vec<_> = ids.iter().map(|&v| nearest_region(&landmarks, v)).collect();
        assert!(scan[60..63].iter().all(Option::is_none), "{scan:?}");
        assert!(scan[63..].iter().all(Option::is_none), "{scan:?}");
        assert!(scan[..60].iter().all(Option::is_some), "{scan:?}");
        // Twice: the first pass fills the memo, the second reads it.
        for _ in 0..2 {
            let memo_says: Vec<_> = ids.iter().map(|&v| memo.region(v)).collect();
            assert_eq!(memo_says, scan);
        }
        assert_eq!(memo.regions.len(), 63, "an out-of-range id grew the memo");
        assert_eq!(memo.region(NodeId::new(u32::MAX)), None);
        assert_eq!(memo.regions.len(), 63);
    }
}
