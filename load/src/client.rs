//! The load generator: one client connection to the router, a closed-loop
//! window or an open-loop schedule, and a per-query client clock.
//!
//! Closed loop runs on the calling thread alone (blocking receive, send on
//! completion). Open loop adds one sender thread that sleeps to each
//! request's due time; the calling thread keeps receiving. Latency in the
//! open loop is timed from the *due* time, so a stall in the generator or
//! the cluster is charged to every request it delays.

use std::time::Duration;

use grouting_core::metrics::RunSnapshot;
use grouting_core::query::AccessStats;
use grouting_core::trace::{ReactorStats, TraceSnapshot};
use grouting_core::wire::{
    now_ns, Completion, Connection, Frame, FrameSink, FrameStream, Role, WireError, WireResult,
};

use crate::setup::Prepared;
use crate::sys;

/// One measured query, on the process-wide `now_ns` clock.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub seq: u64,
    pub processor: u32,
    /// Send time (closed loop) or due time (open loop).
    pub issued_ns: u64,
    /// When the Submit frame was actually written.
    pub sent_ns: u64,
    pub received_ns: u64,
    pub arrived_ns: u64,
    pub started_ns: u64,
    pub completed_ns: u64,
    pub stats: AccessStats,
    /// Bytes this query moved between machines, as far as the client can
    /// see them: its Submit, Dispatch and Completion frames (the latter on
    /// both hops) plus the storage payload bytes of its misses.
    pub net_bytes: u64,
    /// Processor-side split of the service time; zero unless traced.
    pub fetch_wait_ns: u64,
    pub compute_ns: u64,
}

impl Sample {
    pub fn latency_ns(&self) -> u64 {
        self.received_ns.saturating_sub(self.issued_ns)
    }
}

/// One measured window.
#[derive(Debug, Default)]
pub struct Segment {
    /// Offered rate in queries/s; `None` for a closed loop.
    pub rate: Option<f64>,
    /// Every query issued in the window that completed (open loop: also
    /// those completing after the window closed).
    pub samples: Vec<Sample>,
    /// Completions received while the window was open.
    pub completed_in_window: u64,
    pub wall_ns: u64,
    /// CPU seconds over the window: the whole process, the load generator's
    /// threads, and the host-speed probe.
    pub process_cpu_s: f64,
    pub loadgen_cpu_s: f64,
    pub probe_cpu_s: f64,
    pub ctx_switches: u64,
    pub threads: usize,
    /// Open loop: how late each request was written, relative to its due
    /// time.
    pub late_ns: Vec<u64>,
    /// Requests sent but not completed when the window closed.
    pub inflight_end: u64,
    /// Shared reactor telemetry at window open/close (traced runs only).
    pub reactor: Option<(ReactorStats, ReactorStats)>,
}

/// What one repetition's client saw.
#[derive(Debug, Default)]
pub struct ClientRun {
    pub segments: Vec<Segment>,
    /// Summed over *every* completion of the repetition, warm-up included
    /// — must equal the router's final totals.
    pub totals: AccessStats,
    pub completions: u64,
    pub submitted: u64,
    /// Completions compared against a reference answer, and mismatches.
    pub checked: u64,
    pub wrong: u64,
    pub snapshot: Option<RunSnapshot>,
    pub trace: Option<TraceSnapshot>,
}

/// Window boundary bookkeeping shared by both loops.
struct WindowOpen {
    at_ns: u64,
    process_cpu_s: f64,
    thread_cpu_s: f64,
    probe_cpu_ns: u64,
    ctx_switches: u64,
}

impl WindowOpen {
    fn now() -> Self {
        let (_, ctx_switches) = sys::threads_and_ctx_switches();
        Self {
            at_ns: now_ns(),
            process_cpu_s: sys::process_cpu_s(),
            thread_cpu_s: sys::thread_cpu_s(),
            probe_cpu_ns: crate::host::probe_cpu_ns(),
            ctx_switches,
        }
    }

    /// Closes the window at `at_ns`, filling the accounting fields.
    fn close(&self, at_ns: u64, segment: &mut Segment) {
        let (threads, ctx_switches) = sys::threads_and_ctx_switches();
        segment.wall_ns = at_ns.saturating_sub(self.at_ns);
        segment.process_cpu_s = sys::process_cpu_s() - self.process_cpu_s;
        segment.loadgen_cpu_s += sys::thread_cpu_s() - self.thread_cpu_s;
        segment.probe_cpu_s = (crate::host::probe_cpu_ns() - self.probe_cpu_ns) as f64 / 1e9;
        segment.ctx_switches = ctx_switches.saturating_sub(self.ctx_switches);
        segment.threads = threads;
    }
}

pub struct Client<'a> {
    sink: Option<Box<dyn FrameSink>>,
    stream: Box<dyn FrameStream>,
    prepared: &'a Prepared,
    traced: bool,
    /// `sent_ns[seq]`, for every submitted query.
    sent_ns: Vec<u64>,
    run: ClientRun,
    /// Replies to the `MetricsRequest`s a traced window sends, in order.
    reactor_marks: Vec<ReactorStats>,
}

impl<'a> Client<'a> {
    /// Introduces the client to the router.
    pub fn connect(conn: Connection, prepared: &'a Prepared, traced: bool) -> WireResult<Self> {
        let (mut sink, stream) = conn.split();
        sink.send(&Frame::Hello {
            role: Role::Client,
            id: 0,
        })?;
        Ok(Self {
            sink: Some(sink),
            stream,
            prepared,
            traced,
            sent_ns: Vec::new(),
            run: ClientRun::default(),
            reactor_marks: Vec::new(),
        })
    }

    fn sink(&mut self) -> &mut Box<dyn FrameSink> {
        self.sink.as_mut().expect("sink is home between segments")
    }

    fn submit_next(&mut self) -> WireResult<()> {
        let seq = self.sent_ns.len() as u64;
        let query = self.prepared.query(seq);
        let now = now_ns();
        let frame = Frame::Submit {
            seq,
            query,
            submitted_ns: self.traced.then_some(now),
        };
        self.sink().send(&frame)?;
        self.sent_ns.push(now);
        self.run.submitted += 1;
        Ok(())
    }

    fn in_flight(&self) -> u64 {
        self.run.submitted - self.run.completions
    }

    /// Accounts one completion: totals and correctness.
    fn absorb(&mut self, c: &Completion) {
        self.run.completions += 1;
        self.run.totals.merge(&c.stats);
        if let Some(want) = self.prepared.reference(c.seq) {
            self.run.checked += 1;
            if want != c.result {
                self.run.wrong += 1;
            }
        }
    }

    fn sample(
        &self,
        (c, completion_bytes): &(Completion, u64),
        issued_ns: u64,
        sent_ns: u64,
        received_ns: u64,
    ) -> Sample {
        let query = self.prepared.query(c.seq);
        let submit = Frame::Submit {
            seq: c.seq,
            query,
            submitted_ns: None,
        };
        let dispatch = Frame::Dispatch {
            seq: c.seq,
            query,
            trace: None,
        };
        // Every frame travels behind a 4-byte length prefix.
        let net_bytes = (submit.encoded_len() + 4 + dispatch.encoded_len() + 4) as u64
            + 2 * (completion_bytes + 4)
            + c.stats.miss_bytes;
        Sample {
            seq: c.seq,
            processor: c.processor,
            issued_ns,
            sent_ns,
            received_ns,
            arrived_ns: c.arrived_ns,
            started_ns: c.started_ns,
            completed_ns: c.completed_ns,
            stats: c.stats,
            net_bytes,
            fetch_wait_ns: c.trace.as_ref().map_or(0, |t| t.fetch_wait_ns),
            compute_ns: c.trace.as_ref().map_or(0, |t| t.compute_ns),
        }
    }

    /// Blocks for the next completion (returned with its encoded size),
    /// accounting it into the totals; metrics replies are filed away.
    fn next_completion(&mut self) -> WireResult<(Completion, u64)> {
        loop {
            match self.stream.recv()? {
                frame @ Frame::Completion(_) => {
                    let bytes = frame.encoded_len() as u64;
                    let Frame::Completion(c) = frame else {
                        unreachable!("matched a completion");
                    };
                    self.absorb(&c);
                    return Ok((c, bytes));
                }
                Frame::Metrics { trace, .. } => {
                    self.reactor_marks
                        .push(trace.map(|t| t.reactor).unwrap_or_default());
                }
                other => {
                    return Err(WireError::Protocol(format!(
                        "client got {} mid-run",
                        other.kind()
                    )))
                }
            }
        }
    }

    /// Asks the router for its current snapshot; a traced window brackets
    /// itself with two of these to difference the reactor telemetry.
    fn mark_reactor(&mut self) -> WireResult<()> {
        if self.traced {
            self.sink().send(&Frame::MetricsRequest)?;
        }
        Ok(())
    }

    /// Closed loop: keeps `in_flight` queries outstanding, discards the
    /// first `warm` completions, then measures the next `count`. Returns with
    /// queries still in flight (`finish` drains them).
    pub fn closed_loop(&mut self, in_flight: usize, warm: usize, count: usize) -> WireResult<()> {
        while self.in_flight() < in_flight as u64 {
            self.submit_next()?;
        }
        for _ in 0..warm {
            self.next_completion()?;
            self.submit_next()?;
        }
        self.mark_reactor()?;
        let open = WindowOpen::now();
        let mut segment = Segment::default();
        for left in (0..count).rev() {
            let c = self.next_completion()?;
            let received_ns = now_ns();
            // Queries sent before the window opened still count: in a
            // closed loop their successors keep the same load offered.
            let sent = self.sent_ns[c.0.seq as usize];
            segment
                .samples
                .push(self.sample(&c, sent, sent, received_ns));
            if left == 0 {
                segment.completed_in_window = segment.samples.len() as u64;
                segment.inflight_end = self.in_flight();
                open.close(received_ns, &mut segment);
            } else {
                self.submit_next()?;
            }
        }
        self.mark_reactor()?;
        self.run.segments.push(segment);
        Ok(())
    }

    /// Closed-loop warm-up only: `warm` completions, then drained.
    pub fn warm_up(&mut self, in_flight: usize, warm: usize) -> WireResult<()> {
        let mut left = warm as u64;
        while left > 0 || self.in_flight() > 0 {
            while left > 0 && self.in_flight() < in_flight as u64 {
                self.submit_next()?;
                left -= 1;
            }
            self.next_completion()?;
        }
        Ok(())
    }

    /// Open loop: `count` requests, one every `1/rate` s, sent by a
    /// dedicated thread that sleeps to each due time. Returns once every
    /// request of the segment has completed.
    pub fn open_loop(&mut self, rate: f64, count: usize) -> WireResult<()> {
        let interval_ns = (1e9 / rate) as u64;
        let count = count as u64;
        let base_seq = self.sent_ns.len() as u64;
        let queries: Vec<_> = (0..count)
            .map(|k| self.prepared.query(base_seq + k))
            .collect();
        let traced = self.traced;
        self.mark_reactor()?;
        let mut sink = self.sink.take().expect("sink is home between segments");
        let open = WindowOpen::now();
        // The schedule starts a moment ahead so the sender thread is up
        // before the first request is due.
        let t0 = open.at_ns + 2_000_000;
        let close_at = t0 + count * interval_ns;
        let mut segment = Segment {
            rate: Some(rate),
            ..Segment::default()
        };

        let received = std::thread::scope(|scope| -> WireResult<()> {
            let sender = scope.spawn(move || {
                let cpu0 = sys::thread_cpu_s();
                let mut sent = Vec::with_capacity(queries.len());
                let mut result = Ok(());
                for (k, query) in queries.into_iter().enumerate() {
                    let due = t0 + k as u64 * interval_ns;
                    let now = now_ns();
                    if due > now {
                        std::thread::sleep(Duration::from_nanos(due - now));
                    }
                    let now = now_ns();
                    let frame = Frame::Submit {
                        seq: base_seq + k as u64,
                        query,
                        submitted_ns: traced.then_some(now),
                    };
                    if let Err(e) = sink.send(&frame) {
                        result = Err(e);
                        break;
                    }
                    sent.push(now);
                }
                (sink, sent, sys::thread_cpu_s() - cpu0, result)
            });

            // Receive until every request of the schedule has completed.
            let mut closed = false;
            let mut got = 0u64;
            let mut failure = None;
            while got < count {
                let c = match self.next_completion() {
                    Ok(c) => c,
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                };
                let received_ns = now_ns();
                got += 1;
                let due = t0 + (c.0.seq - base_seq) * interval_ns;
                if !closed && received_ns >= close_at {
                    closed = true;
                    open.close(received_ns, &mut segment);
                }
                if !closed {
                    segment.completed_in_window += 1;
                }
                // `sent_ns` is patched in once the sender hands its log over.
                segment.samples.push(self.sample(&c, due, 0, received_ns));
            }
            let (sink, sent, sender_cpu_s, sent_result) =
                sender.join().expect("open-loop sender panicked");
            self.sink = Some(sink);
            if !closed {
                open.close(now_ns(), &mut segment);
            }
            segment.loadgen_cpu_s += sender_cpu_s;
            segment.inflight_end = (sent.len() as u64).saturating_sub(segment.completed_in_window);
            for (k, &at) in sent.iter().enumerate() {
                segment
                    .late_ns
                    .push(at.saturating_sub(t0 + k as u64 * interval_ns));
            }
            for s in &mut segment.samples {
                s.sent_ns = sent.get((s.seq - base_seq) as usize).copied().unwrap_or(0);
            }
            self.run.submitted += sent.len() as u64;
            self.sent_ns.extend(sent);
            sent_result?;
            failure.map_or(Ok(()), Err)
        });
        received?;
        self.mark_reactor()?;
        self.run.segments.push(segment);
        Ok(())
    }

    /// Ends the submission stream, drains what is still in flight, and
    /// collects the router's final snapshot.
    pub fn finish(mut self) -> WireResult<ClientRun> {
        self.sink().send(&Frame::SubmitEnd)?;
        loop {
            match self.stream.recv() {
                Ok(Frame::Completion(c)) => self.absorb(&c),
                Ok(Frame::Metrics { snapshot, trace }) => {
                    self.reactor_marks
                        .push(trace.as_ref().map(|t| t.reactor).unwrap_or_default());
                    self.run.snapshot = Some(snapshot);
                    self.run.trace = trace.map(|t| *t);
                }
                Ok(Frame::Shutdown) | Err(WireError::Closed) => break,
                Ok(other) => {
                    return Err(WireError::Protocol(format!("client got {}", other.kind())))
                }
                Err(e) => return Err(e),
            }
        }
        // Marks arrive in the order they were requested: two per traced
        // segment, then the final snapshot's.
        if self.traced {
            for (i, segment) in self.run.segments.iter_mut().enumerate() {
                if let (Some(a), Some(b)) = (
                    self.reactor_marks.get(2 * i),
                    self.reactor_marks.get(2 * i + 1),
                ) {
                    segment.reactor = Some((*a, *b));
                }
            }
        }
        Ok(self.run)
    }
}
