//! The cluster's message set and its binary encoding.
//!
//! Every exchange between the router, the query processors, and the
//! storage servers is one of the frames below, encoded in the style of
//! `grouting_graph::codec`: a tag byte, then the fields, variable-length
//! sections carrying explicit counts. On the wire each frame travels
//! behind a `u32` length prefix (see [`Transport`](crate::Transport)); the
//! encoding here is the payload only, so the in-process transport can
//! carry the identical bytes without a length prefix and both paths
//! exercise the same codec.
//!
//! Message set (paper §3.2's router/processor protocol, plus the decoupled
//! storage fetch path):
//!
//! * [`Frame::Hello`] — a peer introduces itself to the router;
//! * [`Frame::Submit`]/[`Frame::SubmitEnd`] — a client streams a workload;
//! * [`Frame::Dispatch`] — the router hands one query to a processor
//!   (up to `overlap` outstanding per processor, each freed by its
//!   completion);
//! * [`Frame::Completion`] — the processor's acknowledgement: result,
//!   access stats, lifecycle timestamps — the per-query facts — plus
//!   whichever of the processor's cumulative tallies changed since its
//!   previous completion (see [Completion tallies](#completion-tallies));
//! * [`Frame::FetchBatchRequest`]/[`Frame::FetchBatchResponse`] — a
//!   processor's cache-miss path to a storage server, one frontier per
//!   exchange (the values are the *encoded* adjacency records, so byte
//!   accounting matches the in-proc engine);
//! * [`Frame::MetricsRequest`]/[`Frame::Metrics`] — run-total snapshots;
//! * [`Frame::ObsPush`] — a node's sampled metrics registry, forwarded
//!   to the router so one scrape of the router reads the whole cluster;
//! * [`Frame::Shutdown`] — orderly teardown.
//!
//! # Per-query frames
//!
//! Every query crosses the router twice, so `Submit`, `Dispatch` and
//! `Completion` (once per hop) are the control bytes each query costs.
//! Their integers travel as LEB128 varints (`v` below); fixed-width
//! fields are little-endian:
//!
//! * `Submit`: tag, `seq` v, query, flags, \[`submitted_ns` v\];
//! * `Dispatch`: tag, `seq` v, query, flags, \[level u8,
//!   `dispatched_ns` v\];
//! * query: kind u8, then aggregation `node` v, `hops` v, label flag u8
//!   \[label u16\]; walk `node` v, `steps` v, `restart_prob` as f64 bits
//!   u64, `seed` u64 (full-width random, which a varint would widen);
//!   reachability `source` v, `target` v, `hops` v, and the constrained
//!   kind's `via_label` u16;
//! * `Completion`: tag, `seq` v, `processor` v, result (kind u8, then a
//!   count v, a walk's `end` v and `visited` v, or a bool u8), the four
//!   [`AccessStats`] words v, `arrived_ns` v, `completed_ns` v,
//!   `completed_ns − started_ns` v, flags, then the flagged blocks.
//!
//! The varints are the record codec's own (`grouting_graph::codec`'s
//! `put_varint` and `take_varint`), and decoding is as strict as it is: a
//! varint in other than its shortest form, one longer than ten bytes or
//! past `u64`, a value past its field's type (`u32` ids, hops, steps and
//! processor) and a start-to-completion span longer than `completed_ns`
//! are all rejected, so every accepted frame re-encodes to the bytes that
//! arrived and [`Frame::encoded_len`] is their length.
//!
//! # One description
//!
//! A frame's bytes are described once, by the function that writes them
//! (with the statistics blocks' `encode_into` for what they carry).
//! [`Frame::encoded_len`] runs that writer into a [`ByteCount`], so a
//! length cannot drift from the bytes, and [`Frame::decode`] reads through
//! one checked [`Reader`], which bounds every field and every claimed
//! count by the bytes at hand. The adjacency records a batch response
//! carries are opaque here: their codec, with its own length, is
//! `grouting_graph::codec::AdjacencyRecord`.
//!
//! # Optional blocks
//!
//! Five frames carry optional blocks, and a flag bit announces each one;
//! nothing is inferred from the bytes left over. `Submit` (client submit
//! stamp), `Dispatch` (trace level + dispatch stamp, which is also how
//! processors learn the run's trace level), `FetchBatchRequest` (issue
//! stamp, u64) and `Metrics` (the trace layer's snapshot) each end their
//! fields with a flags byte whose bit 0 announces the block that follows.
//! A `Completion`'s flags byte announces its tallies (below) and, in bit
//! 3, the processor's [`QueryTrace`] span block, which comes last. With
//! tracing off every trace bit is clear and no block follows. The decoder
//! rejects unknown bits, and a truncated frame whose flag announces a
//! block it lacks.
//!
//! # Completion tallies
//!
//! A processor's failover and heat tallies are cumulative, and the router
//! keeps only the latest of each per processor. So a completion's flags
//! byte has bit 1 for failover (3 × u64) and bit 2 for heat (a
//! [`HeatMap`]), and the flagged blocks follow in that order. A block is
//! present exactly when its value is not the default, and the decoder
//! rejects a flagged block holding the default, so every completion has
//! one encoding. The processor sends a tally only on the first completion
//! after it changed; the router forwards completions to the client with
//! both at their defaults. Bit 0 (once a speculative-prefetch tally) is
//! retired, not reused: a peer that still sets it is rejected as an
//! unknown flag, and bits 1–3 keep their positions.

use bytes::{BufMut, Bytes};
use grouting_graph::codec::{put_varint, ByteCount, Reader};
use grouting_graph::{NodeId, NodeLabelId};
use grouting_metrics::{FailoverStats, HeatMap, RunSnapshot};
use grouting_obs::RegistrySnapshot;
use grouting_query::{AccessStats, PrefetchStats, Query, QueryResult};
use grouting_trace::{QueryTrace, TraceLevel, TraceSnapshot};

use crate::error::{WireError, WireResult};

/// Hard cap on a single frame's payload; anything larger is treated as
/// stream corruption rather than an allocation request.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

const TAG_HELLO: u8 = 1;
const TAG_SUBMIT: u8 = 2;
const TAG_SUBMIT_END: u8 = 3;
const TAG_DISPATCH: u8 = 4;
const TAG_COMPLETION: u8 = 5;
// 6 and 7 (the per-node fetch pair) are retired, not reused: a peer that
// still sends one is rejected as an unknown tag, and every surviving
// frame keeps its encoding.
const TAG_METRICS_REQUEST: u8 = 8;
const TAG_METRICS: u8 = 9;
const TAG_SHUTDOWN: u8 = 10;
const TAG_FETCH_BATCH_REQUEST: u8 = 11;
const TAG_FETCH_BATCH_RESPONSE: u8 = 12;
const TAG_OBS_PUSH: u8 = 13;

// A completion's flags (see "Completion tallies" above): its two
// tallies and its trace block. Bit 0 is retired.
const TALLY_FAILOVER: u8 = 1 << 1;
const TALLY_HEAT: u8 = 1 << 2;
const COMPLETION_TRACE: u8 = 1 << 3;
const COMPLETION_ALL: u8 = TALLY_FAILOVER | TALLY_HEAT | COMPLETION_TRACE;
// The one flag of every other frame with an optional block.
const BLOCK_PRESENT: u8 = 1;

/// Who a connection speaks for, announced in [`Frame::Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A workload driver submitting queries and collecting completions.
    Client,
    /// A query processor ready for ack-driven dispatch.
    Processor,
}

/// The trace context a [`Frame::Dispatch`] carries when tracing is on.
///
/// Doubles as the trace-level plumbing to processors: a processor that
/// receives a dispatch with this block knows the run's level and starts
/// producing [`QueryTrace`] blocks on its completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchTrace {
    /// The run's trace level (never [`TraceLevel::Off`] — off means the
    /// block is absent entirely).
    pub level: TraceLevel,
    /// Router dispatch timestamp (`now_ns` domain).
    pub dispatched_ns: u64,
}

/// One finished query's record, as acknowledged over the wire.
///
/// The processor fills everything except `arrived_ns` (only the router
/// knows when the query arrived); the router stamps it before forwarding
/// the completion to the client, making the forwarded frame a complete
/// lifecycle record. The two cumulative tallies (`failover`, `heat`) are
/// the exception to "per-query facts": each rides only when it changed,
/// and the router strips them before forwarding.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Workload sequence number.
    pub seq: u64,
    /// Processor that served the query.
    pub processor: u32,
    /// The query's answer.
    pub result: QueryResult,
    /// Cache/storage access statistics.
    pub stats: AccessStats,
    /// Encodes to no bytes. Named by the benchmark (`load/`); the next
    /// `benchmark` PR drops it.
    pub prefetch: PrefetchStats,
    /// The serving processor's *cumulative* storage-failover tally
    /// (redials, replica failovers, resubmitted batches since it
    /// started), when it changed since this processor's previous
    /// completion; default = unchanged; always default on the router →
    /// client hop. Cumulative rather than per-query because recovery
    /// crosses query boundaries, so the router keeps the latest value per
    /// processor and sums those for the run snapshot.
    pub failover: FailoverStats,
    /// Router arrival timestamp (0 until the router stamps it).
    pub arrived_ns: u64,
    /// Execution start timestamp, never after `completed_ns`: the wire
    /// carries the span `completed_ns − started_ns`.
    pub started_ns: u64,
    /// Execution completion timestamp.
    pub completed_ns: u64,
    /// The serving processor's *cumulative* per-partition workload heat
    /// (demand fetches per partition slot since it started), when it
    /// changed since this processor's previous completion; default
    /// (empty) = unchanged; always default on the router → client hop.
    /// Counted unconditionally, so the frame bytes are identical with
    /// observability sampling on or off.
    pub heat: HeatMap,
    /// The processor-measured span block (fetch wait vs compute, per
    /// level at `spans`). `None` when tracing is off, keeping the frame
    /// byte-identical to an untraced run.
    pub trace: Option<QueryTrace>,
}

impl Completion {
    /// The flags byte: one bit per tally that is not its default, and
    /// one for the trace block.
    fn flags(&self) -> u8 {
        let mut flags = 0;
        if self.trace.is_some() {
            flags |= COMPLETION_TRACE;
        }
        if self.failover != FailoverStats::default() {
            flags |= TALLY_FAILOVER;
        }
        if !self.heat.is_empty() {
            flags |= TALLY_HEAT;
        }
        flags
    }

    /// What the wire carries for `started_ns`. A start after the
    /// completion (which a monotonic clock never stamps) travels as a
    /// zero-length span rather than as a frame the peer would refuse.
    fn service_ns(&self) -> u64 {
        debug_assert!(self.started_ns <= self.completed_ns, "{self:?}");
        self.completed_ns.saturating_sub(self.started_ns)
    }
}

/// A protocol message between cluster peers.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Peer introduction: role plus processor id (0 for clients).
    Hello {
        /// What the peer is.
        role: Role,
        /// Processor id (`0` for clients).
        id: u32,
    },
    /// Client → router: one workload query.
    Submit {
        /// Workload sequence number.
        seq: u64,
        /// The query.
        query: Query,
        /// Client submit stamp, present when the client traces.
        submitted_ns: Option<u64>,
    },
    /// Client → router: no more submissions will follow.
    SubmitEnd,
    /// Router → processor: execute one query.
    Dispatch {
        /// Workload sequence number.
        seq: u64,
        /// The query.
        query: Query,
        /// Trace context, present when the router traces.
        trace: Option<DispatchTrace>,
    },
    /// Processor → router → client: one finished query.
    Completion(Completion),
    /// Processor → storage: one frontier's worth of adjacency records
    /// wanted in a single exchange (the `grouting-flow` batch path).
    FetchBatchRequest {
        /// Correlation id: echoed in the response so a pipelined
        /// connection can match out-of-order replies to their requests.
        req_id: u64,
        /// The nodes whose records are wanted, in request order.
        nodes: Vec<NodeId>,
        /// Issue stamp, present when the requesting processor traces.
        issued_ns: Option<u64>,
    },
    /// Storage → processor: the batched records, in request order. A
    /// server may stream one batch's answer as several of these frames
    /// (chunked so no frame exceeds [`MAX_FRAME_BYTES`] however large the
    /// frontier); the requester concatenates frames with the same `req_id`
    /// until every requested node is answered.
    FetchBatchResponse {
        /// The correlation id of the request being answered.
        req_id: u64,
        /// Per-node serving server id and encoded adjacency value, `None`
        /// where the node is not stored.
        payloads: Vec<Option<(u16, Bytes)>>,
    },
    /// Processor/storage → router: one node's sampled metrics registry,
    /// absorbed into the router's cluster-wide scrape view. Only emitted
    /// while observability sampling is on.
    ObsPush {
        /// The node's registry at its latest sampling tick.
        snapshot: RegistrySnapshot,
    },
    /// Client → router: ask for the current run snapshot.
    MetricsRequest,
    /// Router → client: run totals, plus the trace layer's aggregate when
    /// tracing is on.
    Metrics {
        /// The counters every runtime accumulates.
        snapshot: RunSnapshot,
        /// Stage histograms, reactor telemetry, and recent spans; `None`
        /// when tracing is off (byte-identical to an untraced run).
        /// Boxed so this rare frame doesn't inflate every [`Frame`] move.
        trace: Option<Box<TraceSnapshot>>,
    },
    /// Orderly teardown of the receiving peer/connection.
    Shutdown,
}

impl Frame {
    /// Short frame name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::Submit { .. } => "submit",
            Frame::SubmitEnd => "submit-end",
            Frame::Dispatch { .. } => "dispatch",
            Frame::Completion(_) => "completion",
            Frame::FetchBatchRequest { .. } => "fetch-batch-request",
            Frame::FetchBatchResponse { .. } => "fetch-batch-response",
            Frame::ObsPush { .. } => "obs-push",
            Frame::MetricsRequest => "metrics-request",
            Frame::Metrics { .. } => "metrics",
            Frame::Shutdown => "shutdown",
        }
    }

    /// Encodes this frame to its payload bytes (no length prefix).
    pub fn encode(&self) -> Bytes {
        let mut framed = Vec::with_capacity(4 + self.encoded_len());
        self.encode_into(&mut framed);
        Bytes::from(framed).slice(4..)
    }

    /// Appends this frame to `buf` exactly as it crosses a socket: the
    /// `u32` little-endian payload length, then the payload
    /// [`Frame::encode`] returns. A sender that keeps `buf` between frames
    /// encodes without allocating.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let prefix_at = buf.len();
        buf.put_u32_le(0);
        self.put_payload(buf);
        let len = (buf.len() - prefix_at - 4) as u32;
        buf[prefix_at..prefix_at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// The exact byte length [`Frame::encode`] produces: the payload
    /// written into a [`ByteCount`], which copies nothing — cheap enough
    /// for the reactor to count wire bytes per frame even when the frame
    /// carries a multi-megabyte batch response.
    pub fn encoded_len(&self) -> usize {
        let mut count = ByteCount::default();
        self.put_payload(&mut count);
        count.0
    }

    /// Writes the payload: the one description of every frame's bytes.
    fn put_payload<B: BufMut>(&self, buf: &mut B) {
        match self {
            Frame::Hello { role, id } => {
                buf.put_u8(TAG_HELLO);
                buf.put_u8(match role {
                    Role::Client => 0,
                    Role::Processor => 1,
                });
                buf.put_u32_le(*id);
            }
            Frame::Submit {
                seq,
                query,
                submitted_ns,
            } => {
                buf.put_u8(TAG_SUBMIT);
                put_varint(buf, *seq);
                put_query(buf, query);
                put_presence(buf, submitted_ns.is_some());
                if let Some(ns) = submitted_ns {
                    put_varint(buf, *ns);
                }
            }
            Frame::SubmitEnd => buf.put_u8(TAG_SUBMIT_END),
            Frame::Dispatch { seq, query, trace } => {
                buf.put_u8(TAG_DISPATCH);
                put_varint(buf, *seq);
                put_query(buf, query);
                put_presence(buf, trace.is_some());
                if let Some(t) = trace {
                    buf.put_u8(t.level.as_u8());
                    put_varint(buf, t.dispatched_ns);
                }
            }
            Frame::Completion(c) => {
                buf.put_u8(TAG_COMPLETION);
                put_varint(buf, c.seq);
                put_varint(buf, u64::from(c.processor));
                put_result(buf, &c.result);
                put_varint(buf, c.stats.cache_hits);
                put_varint(buf, c.stats.cache_misses);
                put_varint(buf, c.stats.miss_bytes);
                put_varint(buf, c.stats.evictions);
                put_varint(buf, c.arrived_ns);
                put_varint(buf, c.completed_ns);
                put_varint(buf, c.service_ns());
                let flags = c.flags();
                buf.put_u8(flags);
                if flags & TALLY_FAILOVER != 0 {
                    buf.put_u64_le(c.failover.redials);
                    buf.put_u64_le(c.failover.replica_failovers);
                    buf.put_u64_le(c.failover.batches_resubmitted);
                }
                if flags & TALLY_HEAT != 0 {
                    c.heat.encode_into(buf);
                }
                if let Some(t) = &c.trace {
                    t.encode_into(buf);
                }
            }
            Frame::FetchBatchRequest {
                req_id,
                nodes,
                issued_ns,
            } => {
                buf.put_u8(TAG_FETCH_BATCH_REQUEST);
                buf.put_u64_le(*req_id);
                buf.put_u32_le(nodes.len() as u32);
                for node in nodes {
                    buf.put_u32_le(node.raw());
                }
                put_presence(buf, issued_ns.is_some());
                if let Some(ns) = issued_ns {
                    buf.put_u64_le(*ns);
                }
            }
            Frame::FetchBatchResponse { req_id, payloads } => {
                buf.put_u8(TAG_FETCH_BATCH_RESPONSE);
                buf.put_u64_le(*req_id);
                buf.put_u32_le(payloads.len() as u32);
                for payload in payloads {
                    match payload {
                        None => buf.put_u8(0),
                        Some((server, value)) => {
                            buf.put_u8(1);
                            buf.put_u16_le(*server);
                            buf.put_u32_le(value.len() as u32);
                            buf.put_slice(value);
                        }
                    }
                }
            }
            Frame::ObsPush { snapshot } => {
                buf.put_u8(TAG_OBS_PUSH);
                snapshot.encode_into(buf);
            }
            Frame::MetricsRequest => buf.put_u8(TAG_METRICS_REQUEST),
            Frame::Metrics { snapshot, trace } => {
                buf.put_u8(TAG_METRICS);
                snapshot.encode_into(buf);
                put_presence(buf, trace.is_some());
                if let Some(t) = trace {
                    t.encode_into(buf);
                }
            }
            Frame::Shutdown => buf.put_u8(TAG_SHUTDOWN),
        }
    }

    /// [`Frame::encode`] as a one-element list. Nothing in this crate calls
    /// it — a frame leaves as one flat write (see [`Transport`](crate::Transport)) —
    /// and it stays only until the benchmark's layer pass, frozen between
    /// benchmark changes, stops naming it.
    pub fn encode_chunks(&self) -> Vec<Bytes> {
        vec![self.encode()]
    }

    /// Decodes a frame from payload bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Codec`] on truncated, trailing, or malformed
    /// input.
    pub fn decode(data: Bytes) -> WireResult<Frame> {
        let mut data = Reader::new(data);
        let frame = Self::take_payload(&mut data).map_err(WireError::Codec)?;
        if data.has_remaining() {
            return Err(WireError::Codec(format!(
                "{} trailing bytes after {} frame",
                data.remaining(),
                frame.kind()
            )));
        }
        Ok(frame)
    }

    /// Reads the payload [`Frame::put_payload`] writes.
    fn take_payload(data: &mut Reader) -> Result<Frame, String> {
        let tag = data.u8()?;
        Ok(match tag {
            TAG_HELLO => {
                let role = match data.u8()? {
                    0 => Role::Client,
                    1 => Role::Processor,
                    r => return Err(format!("unknown role {r}")),
                };
                Frame::Hello {
                    role,
                    id: data.u32()?,
                }
            }
            TAG_SUBMIT | TAG_DISPATCH => {
                let seq = data.varint()?;
                let query = take_query(data)?;
                let present = take_presence(data)?;
                if tag == TAG_SUBMIT {
                    Frame::Submit {
                        seq,
                        query,
                        submitted_ns: present.then(|| data.varint()).transpose()?,
                    }
                } else {
                    let trace = if present {
                        let level = TraceLevel::from_u8(data.u8()?)?;
                        if level == TraceLevel::Off {
                            return Err("dispatch trace block with level off".to_string());
                        }
                        Some(DispatchTrace {
                            level,
                            dispatched_ns: data.varint()?,
                        })
                    } else {
                        None
                    };
                    Frame::Dispatch { seq, query, trace }
                }
            }
            TAG_SUBMIT_END => Frame::SubmitEnd,
            TAG_COMPLETION => {
                let seq = data.varint()?;
                let processor = data.varint_u32()?;
                let result = take_result(data)?;
                let stats = AccessStats {
                    cache_hits: data.varint()?,
                    cache_misses: data.varint()?,
                    miss_bytes: data.varint()?,
                    evictions: data.varint()?,
                };
                let arrived_ns = data.varint()?;
                let completed_ns = data.varint()?;
                let service_ns = data.varint()?;
                let started_ns = completed_ns.checked_sub(service_ns).ok_or_else(|| {
                    format!("service span {service_ns} ns exceeds completion stamp {completed_ns}")
                })?;
                let flags = data.u8()?;
                if flags & !COMPLETION_ALL != 0 {
                    return Err(format!("unknown completion flags {flags:#04x}"));
                }
                let failover = tally_block(data, flags, TALLY_FAILOVER, |data| {
                    Ok(FailoverStats {
                        redials: data.u64()?,
                        replica_failovers: data.u64()?,
                        batches_resubmitted: data.u64()?,
                    })
                })?;
                let heat = tally_block(data, flags, TALLY_HEAT, HeatMap::decode_prefix)?;
                let trace = (flags & COMPLETION_TRACE != 0)
                    .then(|| QueryTrace::decode_prefix(data))
                    .transpose()?;
                Frame::Completion(Completion {
                    seq,
                    processor,
                    result,
                    stats,
                    prefetch: PrefetchStats,
                    failover,
                    arrived_ns,
                    started_ns,
                    completed_ns,
                    heat,
                    trace,
                })
            }
            TAG_FETCH_BATCH_REQUEST => {
                let req_id = data.u64()?;
                let count = data.u32()? as usize;
                let nodes = data.list(count, 4, |data| data.u32().map(NodeId::new))?;
                let issued_ns = take_presence(data)?.then(|| data.u64()).transpose()?;
                Frame::FetchBatchRequest {
                    req_id,
                    nodes,
                    issued_ns,
                }
            }
            TAG_FETCH_BATCH_RESPONSE => {
                let req_id = data.u64()?;
                let count = data.u32()? as usize;
                // Every entry takes at least its flag byte.
                let payloads = data.list(count, 1, |data| match data.u8()? {
                    0 => Ok(None),
                    1 => {
                        let server = data.u16()?;
                        let len = data.u32()? as usize;
                        Ok(Some((server, data.bytes(len)?)))
                    }
                    f => Err(format!("bad payload flag {f}")),
                })?;
                Frame::FetchBatchResponse { req_id, payloads }
            }
            TAG_OBS_PUSH => Frame::ObsPush {
                snapshot: RegistrySnapshot::decode_prefix(data)?,
            },
            TAG_METRICS_REQUEST => Frame::MetricsRequest,
            TAG_METRICS => {
                let snapshot = RunSnapshot::decode_prefix(data)?;
                let trace = take_presence(data)?
                    .then(|| TraceSnapshot::decode_prefix(data))
                    .transpose()?
                    .map(Box::new);
                Frame::Metrics { snapshot, trace }
            }
            TAG_SHUTDOWN => Frame::Shutdown,
            t => return Err(format!("unknown frame tag {t}")),
        })
    }
}

const QUERY_AGG: u8 = 0;
const QUERY_RWR: u8 = 1;
const QUERY_REACH: u8 = 2;
const QUERY_LREACH: u8 = 3;

fn put_query<B: BufMut>(buf: &mut B, query: &Query) {
    let v32 = |buf: &mut B, v: u32| put_varint(buf, u64::from(v));
    match query {
        Query::NeighborAggregation { node, hops, label } => {
            buf.put_u8(QUERY_AGG);
            v32(buf, node.raw());
            v32(buf, *hops);
            match label {
                None => buf.put_u8(0),
                Some(l) => {
                    buf.put_u8(1);
                    buf.put_u16_le(l.0);
                }
            }
        }
        Query::RandomWalk {
            node,
            steps,
            restart_prob,
            seed,
        } => {
            buf.put_u8(QUERY_RWR);
            v32(buf, node.raw());
            v32(buf, *steps);
            buf.put_u64_le(restart_prob.to_bits());
            buf.put_u64_le(*seed);
        }
        Query::Reachability {
            source,
            target,
            hops,
        } => {
            buf.put_u8(QUERY_REACH);
            v32(buf, source.raw());
            v32(buf, target.raw());
            v32(buf, *hops);
        }
        Query::ConstrainedReachability {
            source,
            target,
            hops,
            via_label,
        } => {
            buf.put_u8(QUERY_LREACH);
            v32(buf, source.raw());
            v32(buf, target.raw());
            v32(buf, *hops);
            buf.put_u16_le(via_label.0);
        }
    }
}

fn take_query(data: &mut Reader) -> Result<Query, String> {
    let node = |data: &mut Reader| data.varint_u32().map(NodeId::new);
    match data.u8()? {
        QUERY_AGG => {
            let node = node(data)?;
            let hops = data.varint_u32()?;
            let label = match data.u8()? {
                0 => None,
                1 => Some(NodeLabelId::new(data.u16()?)),
                f => return Err(format!("bad label flag {f}")),
            };
            Ok(Query::NeighborAggregation { node, hops, label })
        }
        QUERY_RWR => Ok(Query::RandomWalk {
            node: node(data)?,
            steps: data.varint_u32()?,
            restart_prob: f64::from_bits(data.u64()?),
            seed: data.u64()?,
        }),
        QUERY_REACH => Ok(Query::Reachability {
            source: node(data)?,
            target: node(data)?,
            hops: data.varint_u32()?,
        }),
        QUERY_LREACH => Ok(Query::ConstrainedReachability {
            source: node(data)?,
            target: node(data)?,
            hops: data.varint_u32()?,
            via_label: NodeLabelId::new(data.u16()?),
        }),
        t => Err(format!("unknown query tag {t}")),
    }
}

const RESULT_COUNT: u8 = 0;
const RESULT_WALK: u8 = 1;
const RESULT_REACHABLE: u8 = 2;

fn put_result<B: BufMut>(buf: &mut B, result: &QueryResult) {
    match result {
        QueryResult::Count(c) => {
            buf.put_u8(RESULT_COUNT);
            put_varint(buf, *c);
        }
        QueryResult::Walk { end, visited } => {
            buf.put_u8(RESULT_WALK);
            put_varint(buf, u64::from(end.raw()));
            put_varint(buf, *visited);
        }
        QueryResult::Reachable(r) => {
            buf.put_u8(RESULT_REACHABLE);
            buf.put_u8(u8::from(*r));
        }
    }
}

fn take_result(data: &mut Reader) -> Result<QueryResult, String> {
    match data.u8()? {
        RESULT_COUNT => Ok(QueryResult::Count(data.varint()?)),
        RESULT_WALK => Ok(QueryResult::Walk {
            end: NodeId::new(data.varint_u32()?),
            visited: data.varint()?,
        }),
        RESULT_REACHABLE => match data.u8()? {
            0 => Ok(QueryResult::Reachable(false)),
            1 => Ok(QueryResult::Reachable(true)),
            b => Err(format!("bad bool {b}")),
        },
        t => Err(format!("unknown result tag {t}")),
    }
}

/// Appends a flags byte announcing one optional block.
fn put_presence<B: BufMut>(buf: &mut B, present: bool) {
    buf.put_u8(if present { BLOCK_PRESENT } else { 0 });
}

/// Reads the flags byte [`put_presence`] wrote; any other bit is refused.
fn take_presence(data: &mut Reader) -> Result<bool, String> {
    match data.u8()? {
        0 => Ok(false),
        BLOCK_PRESENT => Ok(true),
        f => Err(format!("unknown block flags {f:#04x}")),
    }
}

/// Decodes the completion tally block `bit` announces in `flags`, or the
/// default when it is absent. A flagged block holding the default is
/// rejected: the encoder never writes one, so every completion has exactly
/// one encoding.
fn tally_block<T: Default + PartialEq>(
    data: &mut Reader,
    flags: u8,
    bit: u8,
    decode: impl FnOnce(&mut Reader) -> Result<T, String>,
) -> Result<T, String> {
    if flags & bit == 0 {
        return Ok(T::default());
    }
    let value = decode(data)?;
    if value == T::default() {
        return Err(format!("completion tally {bit:#04x} flagged but default"));
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn heat(cells: &[u64]) -> HeatMap {
        let mut h = HeatMap::new();
        for (slot, d) in cells.iter().enumerate() {
            h.record_demand(slot, *d);
        }
        h
    }

    fn obs_snapshot() -> RegistrySnapshot {
        let mut reg = grouting_obs::Registry::new(grouting_obs::NodeRole::Storage, 2);
        reg.begin(77_000);
        reg.counter("grouting_cache_hits_total", 41);
        reg.gauge_with("grouting_queue_depth", &[("lane", "demand")], 3.5);
        reg.snapshot()
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                role: Role::Client,
                id: 0,
            },
            Frame::Hello {
                role: Role::Processor,
                id: 6,
            },
            Frame::Submit {
                seq: 42,
                query: Query::NeighborAggregation {
                    node: n(7),
                    hops: 2,
                    label: Some(NodeLabelId::new(3)),
                },
                submitted_ns: None,
            },
            Frame::SubmitEnd,
            Frame::Dispatch {
                seq: 43,
                query: Query::RandomWalk {
                    node: n(9),
                    steps: 16,
                    restart_prob: 0.15,
                    seed: 99,
                },
                trace: None,
            },
            Frame::Completion(Completion {
                seq: 43,
                processor: 2,
                result: QueryResult::Walk {
                    end: n(4),
                    visited: 11,
                },
                stats: AccessStats {
                    cache_hits: 5,
                    cache_misses: 6,
                    miss_bytes: 300,
                    evictions: 1,
                },
                prefetch: PrefetchStats,
                failover: FailoverStats {
                    redials: 2,
                    replica_failovers: 1,
                    batches_resubmitted: 3,
                },
                arrived_ns: 10,
                started_ns: 20,
                completed_ns: 30,
                heat: heat(&[3, 0]),
                trace: None,
            }),
            Frame::ObsPush {
                snapshot: obs_snapshot(),
            },
            Frame::FetchBatchRequest {
                req_id: 7,
                nodes: vec![n(1), n(5), n(9)],
                issued_ns: None,
            },
            Frame::FetchBatchRequest {
                req_id: 8,
                nodes: Vec::new(),
                issued_ns: None,
            },
            Frame::FetchBatchResponse {
                req_id: 7,
                payloads: vec![
                    Some((0, Bytes::from(vec![4u8, 5]))),
                    None,
                    Some((2, Bytes::new())),
                ],
            },
            Frame::FetchBatchResponse {
                req_id: 8,
                payloads: Vec::new(),
            },
            Frame::MetricsRequest,
            Frame::Metrics {
                snapshot: RunSnapshot {
                    queries: 10,
                    cache_hits: 7,
                    cache_misses: 3,
                    evictions: 0,
                    stolen: 1,
                    redials: 2,
                    replica_failovers: 1,
                    batches_resubmitted: 3,
                    windows_resubmitted: 1,
                    per_processor: vec![5, 5],
                    partition_heat: heat(&[3, 0]),
                    region_heat: heat(&[7]),
                },
                trace: None,
            },
            Frame::Shutdown,
        ]
    }

    /// The trace-carrying variants of every frame that grew an optional
    /// block, paired with the same frame with the block stripped.
    fn traced_frame_pairs() -> Vec<(Frame, Frame)> {
        let mut trace_snapshot = TraceSnapshot::new(grouting_trace::TraceLevel::Spans);
        trace_snapshot
            .stages
            .record(grouting_trace::Stage::DispatchRtt, 42_000);
        trace_snapshot.reactor.frames_in = 5;
        trace_snapshot.spans.push(grouting_trace::QuerySpan {
            seq: 9,
            processor: 1,
            levels: 2,
            queue_ns: 100,
            rtt_ns: 9_000,
            fetch_wait_ns: 4_000,
            compute_ns: 3_000,
            completion_ns: 500,
        });
        let completion = Completion {
            seq: 43,
            processor: 2,
            result: QueryResult::Count(7),
            stats: AccessStats {
                cache_hits: 5,
                cache_misses: 6,
                miss_bytes: 300,
                evictions: 1,
            },
            prefetch: PrefetchStats,
            failover: FailoverStats {
                redials: 1,
                replica_failovers: 0,
                batches_resubmitted: 1,
            },
            arrived_ns: 10,
            started_ns: 20,
            completed_ns: 30,
            heat: heat(&[5]),
            trace: None,
        };
        let query = Query::NeighborAggregation {
            node: n(7),
            hops: 2,
            label: None,
        };
        vec![
            (
                Frame::Submit {
                    seq: 42,
                    query,
                    submitted_ns: Some(123_456),
                },
                Frame::Submit {
                    seq: 42,
                    query,
                    submitted_ns: None,
                },
            ),
            (
                Frame::Dispatch {
                    seq: 43,
                    query,
                    trace: Some(DispatchTrace {
                        level: grouting_trace::TraceLevel::Stats,
                        dispatched_ns: 9_999,
                    }),
                },
                Frame::Dispatch {
                    seq: 43,
                    query,
                    trace: None,
                },
            ),
            (
                Frame::Completion(Completion {
                    trace: Some(QueryTrace {
                        fetch_wait_ns: 4_000,
                        compute_ns: 3_000,
                        levels: 2,
                        level_spans: vec![(2_500, 1_800), (1_500, 1_200)],
                    }),
                    ..completion.clone()
                }),
                Frame::Completion(completion),
            ),
            (
                Frame::FetchBatchRequest {
                    req_id: 7,
                    nodes: vec![n(1), n(5)],
                    issued_ns: Some(77_000),
                },
                Frame::FetchBatchRequest {
                    req_id: 7,
                    nodes: vec![n(1), n(5)],
                    issued_ns: None,
                },
            ),
            (
                Frame::Metrics {
                    snapshot: RunSnapshot {
                        queries: 10,
                        cache_hits: 7,
                        cache_misses: 3,
                        evictions: 0,
                        stolen: 1,
                        redials: 0,
                        replica_failovers: 0,
                        batches_resubmitted: 0,
                        windows_resubmitted: 0,
                        per_processor: vec![5, 5],
                        partition_heat: heat(&[9, 2, 0]),
                        region_heat: heat(&[5]),
                    },
                    trace: Some(Box::new(trace_snapshot)),
                },
                Frame::Metrics {
                    snapshot: RunSnapshot {
                        queries: 10,
                        cache_hits: 7,
                        cache_misses: 3,
                        evictions: 0,
                        stolen: 1,
                        redials: 0,
                        replica_failovers: 0,
                        batches_resubmitted: 0,
                        windows_resubmitted: 0,
                        per_processor: vec![5, 5],
                        partition_heat: heat(&[9, 2, 0]),
                        region_heat: heat(&[5]),
                    },
                    trace: None,
                },
            ),
        ]
    }

    #[test]
    fn traced_frames_round_trip() {
        for (traced, _) in traced_frame_pairs() {
            let bytes = traced.encode();
            assert_eq!(Frame::decode(bytes).unwrap(), traced, "{}", traced.kind());
        }
    }

    /// The presence bit of a traced frame's optional block and the
    /// block's own bytes, encoded on their own.
    fn trace_block(traced: &Frame) -> (u8, Vec<u8>) {
        let mut block = Vec::new();
        let bit = match traced {
            Frame::Submit {
                submitted_ns: Some(ns),
                ..
            } => {
                put_varint(&mut block, *ns);
                BLOCK_PRESENT
            }
            Frame::Dispatch { trace: Some(t), .. } => {
                block.push(t.level.as_u8());
                put_varint(&mut block, t.dispatched_ns);
                BLOCK_PRESENT
            }
            Frame::Completion(Completion { trace: Some(t), .. }) => {
                t.encode_into(&mut block);
                COMPLETION_TRACE
            }
            Frame::FetchBatchRequest {
                issued_ns: Some(ns),
                ..
            } => {
                block.put_u64_le(*ns);
                BLOCK_PRESENT
            }
            Frame::Metrics { trace: Some(t), .. } => {
                t.encode_into(&mut block);
                BLOCK_PRESENT
            }
            other => panic!("{} carries no trace block", other.kind()),
        };
        (bit, block)
    }

    /// A block's presence is announced, never inferred: the untraced
    /// encoding has the presence bit clear and no block, and the traced
    /// one is the same fields with only that bit set, followed by the
    /// block. With tracing off a frame carries nothing but the clear bit.
    #[test]
    fn trace_blocks_are_announced_by_a_presence_bit() {
        for (traced, untraced) in traced_frame_pairs() {
            let kind = traced.kind();
            let with = traced.encode();
            let without = untraced.encode();
            let (bit, block) = trace_block(&traced);
            assert_eq!(with.len(), without.len() + block.len(), "{kind}");
            assert_eq!(&with[without.len()..], &block[..], "{kind} block moved");
            let changed: Vec<usize> = (0..without.len())
                .filter(|&i| with[i] != without[i])
                .collect();
            assert_eq!(changed.len(), 1, "{kind} differs in {changed:?}");
            let flags_at = changed[0];
            assert_eq!(without[flags_at] & bit, 0, "{kind} bit set untraced");
            assert_eq!(with[flags_at], without[flags_at] | bit, "{kind}");
            assert_eq!(Frame::decode(without).unwrap(), untraced, "{kind}");
        }
    }

    /// Every strict prefix of a traced frame is refused, the cut at the
    /// block boundary included: the flag announces a block the bytes lack.
    #[test]
    fn every_strict_prefix_of_a_traced_frame_is_an_error() {
        for (traced, _) in traced_frame_pairs() {
            let bytes = traced.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Frame::decode(bytes.slice(0..cut)).is_err(),
                    "{} cut at {cut} of {} decoded",
                    traced.kind(),
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn traced_frames_reject_trailing_bytes() {
        for (traced, _) in traced_frame_pairs() {
            let mut raw = traced.encode().to_vec();
            raw.push(0xAB);
            assert!(
                Frame::decode(Bytes::from(raw)).is_err(),
                "{} accepted trailing byte after trace block",
                traced.kind()
            );
        }
    }

    #[test]
    fn dispatch_trace_with_level_off_is_rejected() {
        let traced = Frame::Dispatch {
            seq: 1,
            query: Query::NeighborAggregation {
                node: n(1),
                hops: 1,
                label: None,
            },
            trace: Some(DispatchTrace {
                level: grouting_trace::TraceLevel::Stats,
                dispatched_ns: 5,
            }),
        };
        let mut raw = traced.encode().to_vec();
        // The block is the level byte and a one-byte stamp.
        let level_at = raw.len() - 2;
        assert_eq!(raw[level_at], grouting_trace::TraceLevel::Stats.as_u8());
        raw[level_at] = 0; // TraceLevel::Off on the wire
        assert!(Frame::decode(Bytes::from(raw)).is_err());
    }

    fn tally_free_completion() -> Completion {
        Completion {
            seq: 44,
            processor: 1,
            result: QueryResult::Count(7),
            stats: AccessStats {
                cache_hits: 5,
                cache_misses: 6,
                miss_bytes: 300,
                evictions: 1,
            },
            prefetch: PrefetchStats,
            failover: FailoverStats::default(),
            arrived_ns: 10,
            started_ns: 20,
            completed_ns: 30,
            heat: HeatMap::new(),
            trace: None,
        }
    }

    /// An unchanged tally costs nothing: a tally-free completion is the
    /// per-query fields plus one flags byte, and each tally adds exactly
    /// its own block.
    #[test]
    fn completion_size_is_per_query_fields_plus_changed_tallies() {
        let bare = tally_free_completion();
        // Tag, seq, processor, `Count(7)`, the stats (300 takes two
        // bytes), three stamps and the flags byte: one byte a varint
        // below 128.
        let base = 1 + 1 + 1 + 2 + (1 + 1 + 2 + 1) + 3 + 1;
        let failover = FailoverStats {
            redials: 1,
            ..FailoverStats::default()
        };
        let heat = heat(&[3, 1]);
        // The slot count, then a word per slot.
        let heat_len = 4 + 8 * 2;
        let cases = [
            (bare.clone(), base),
            (
                Completion {
                    failover,
                    ..bare.clone()
                },
                base + 24,
            ),
            (
                Completion {
                    heat: heat.clone(),
                    ..bare.clone()
                },
                base + heat_len,
            ),
            (
                Completion {
                    failover,
                    heat: heat.clone(),
                    ..bare
                },
                base + 24 + heat_len,
            ),
        ];
        for (completion, len) in cases {
            let frame = Frame::Completion(completion);
            let bytes = frame.encode();
            assert_eq!(bytes.len(), len, "{frame:?}");
            assert_encodings_agree(&frame);
            assert_eq!(Frame::decode(bytes).unwrap(), frame);
        }
    }

    /// Unknown flag bits and a flagged block holding its default are
    /// both refused, so a decoded completion re-encodes to the bytes that
    /// arrived; the trace bit needs its block.
    #[test]
    fn completion_tally_flags_are_strict() {
        let bare = Frame::Completion(tally_free_completion()).encode().to_vec();
        let flags_at = bare.len() - 1;
        for bit in [0, 4, 5, 6, 7] {
            let mut raw = bare.clone();
            raw[flags_at] = 1 << bit;
            assert!(Frame::decode(Bytes::from(raw)).is_err(), "bit {bit}");
        }
        let flagged = |flag: u8, block: &[u8]| {
            let mut raw = bare.clone();
            raw[flags_at] = flag;
            raw.extend_from_slice(block);
            Frame::decode(Bytes::from(raw))
        };
        let mut one = vec![0u8; 24];
        one[0] = 1;
        assert!(flagged(TALLY_FAILOVER, &[0; 24]).is_err());
        assert!(flagged(TALLY_FAILOVER, &one).is_ok());
        assert!(flagged(TALLY_HEAT, &0u32.to_le_bytes()).is_err());
        let mut one_slot = 1u32.to_le_bytes().to_vec();
        one_slot.extend_from_slice(&[0; 8]);
        assert!(flagged(TALLY_HEAT, &one_slot).is_ok());
        assert!(flagged(COMPLETION_TRACE, &[]).is_err());
        let mut span = Vec::new();
        QueryTrace::default().encode_into(&mut span);
        assert!(flagged(COMPLETION_TRACE, &span).is_ok());
    }

    /// The control bytes one query costs at `resident_hot` scale (seq
    /// below 2^21, ids below 2^17, counts below 2^14, stamps below 2^36
    /// ns, each at its bound, and the longest service span) stay within
    /// 60 % of what the fixed-width encoding cost: Submit + Dispatch + a
    /// Completion on each hop, every frame behind its 4-byte prefix, was
    /// 212 / 250 / 204 / 208 B for aggregation / walk / reachability /
    /// constrained reachability.
    #[test]
    fn per_query_control_bytes_fit_the_budget() {
        const SEQ: u64 = (1 << 21) - 1;
        const ID: u32 = (1 << 17) - 1;
        const COUNT: u32 = (1 << 14) - 1;
        const STAMP: u64 = (1 << 36) - 1;
        let count = u64::from(COUNT);
        let cases = [
            (
                Query::NeighborAggregation {
                    node: n(ID),
                    hops: COUNT,
                    label: None,
                },
                QueryResult::Count(count),
                212,
            ),
            (
                Query::RandomWalk {
                    node: n(ID),
                    steps: COUNT,
                    restart_prob: 0.15,
                    seed: u64::MAX,
                },
                QueryResult::Walk {
                    end: n(ID),
                    visited: count,
                },
                250,
            ),
            (
                Query::Reachability {
                    source: n(ID),
                    target: n(ID),
                    hops: COUNT,
                },
                QueryResult::Reachable(true),
                204,
            ),
            (
                Query::ConstrainedReachability {
                    source: n(ID),
                    target: n(ID),
                    hops: COUNT,
                    via_label: NodeLabelId::new(u16::MAX),
                },
                QueryResult::Reachable(false),
                208,
            ),
        ];
        for (query, result, fixed_width) in cases {
            let submit = Frame::Submit {
                seq: SEQ,
                query,
                submitted_ns: None,
            };
            let dispatch = Frame::Dispatch {
                seq: SEQ,
                query,
                trace: None,
            };
            let completion = Frame::Completion(Completion {
                seq: SEQ,
                processor: ID,
                result,
                stats: AccessStats {
                    cache_hits: count,
                    cache_misses: count,
                    miss_bytes: count,
                    evictions: count,
                },
                prefetch: PrefetchStats,
                failover: FailoverStats::default(),
                arrived_ns: STAMP,
                started_ns: 0,
                completed_ns: STAMP,
                heat: HeatMap::new(),
                trace: None,
            });
            let bytes = submit.encoded_len()
                + 4
                + dispatch.encoded_len()
                + 4
                + 2 * (completion.encoded_len() + 4);
            assert!(
                5 * bytes <= 3 * fixed_width,
                "{query:?}: {bytes} B against {fixed_width} B"
            );
        }
    }

    /// The frames behind `tests/fixtures/frames_v1.hex`, which holds what
    /// the encoder wrote for them (one hex line each, same order): one
    /// frame of every kind, each optional block both present and absent,
    /// every query and result kind, and varints from one byte to ten.
    fn fixture_frames() -> Vec<Frame> {
        let mut frames = sample_frames();
        for (traced, untraced) in traced_frame_pairs() {
            frames.push(traced);
            frames.push(untraced);
        }
        let queries = [
            Query::NeighborAggregation {
                node: n(130_000),
                hops: 300,
                label: None,
            },
            Query::RandomWalk {
                node: n(u32::MAX),
                steps: u32::MAX,
                restart_prob: 0.85,
                seed: 0x9E37_79B9_7F4A_7C15,
            },
            Query::Reachability {
                source: n(127),
                target: n(128),
                hops: 5,
            },
            Query::ConstrainedReachability {
                source: n(16_384),
                target: n(2_097_152),
                hops: 0,
                via_label: NodeLabelId::new(513),
            },
        ];
        for (i, query) in queries.into_iter().enumerate() {
            frames.push(Frame::Submit {
                seq: 1 << (7 * i as u32 + 7),
                query,
                submitted_ns: Some(u64::MAX),
            });
            frames.push(Frame::Dispatch {
                seq: u64::MAX,
                query,
                trace: Some(DispatchTrace {
                    level: grouting_trace::TraceLevel::Spans,
                    dispatched_ns: (1 << 36) + i as u64,
                }),
            });
        }
        let results = [
            QueryResult::Count(u64::MAX),
            QueryResult::Walk {
                end: n(u32::MAX),
                visited: 1 << 35,
            },
            QueryResult::Reachable(true),
        ];
        for (i, result) in results.into_iter().enumerate() {
            frames.push(Frame::Completion(Completion {
                seq: (1 << 21) - 1,
                processor: u32::MAX >> (8 * i),
                result,
                stats: AccessStats {
                    cache_hits: 249,
                    cache_misses: 0,
                    miss_bytes: u64::MAX,
                    evictions: 1 << 63,
                },
                arrived_ns: 68_719_476_735,
                started_ns: [0, 68_719_390_000, u64::MAX][i],
                completed_ns: [68_719_476_735, 68_719_476_735, u64::MAX][i],
                ..tally_free_completion()
            }));
        }
        frames
    }

    #[test]
    fn frames_match_the_v1_fixture_byte_for_byte() {
        let fixture: Vec<Vec<u8>> = include_str!("../tests/fixtures/frames_v1.hex")
            .lines()
            .map(|line| {
                (0..line.len())
                    .step_by(2)
                    .map(|i| u8::from_str_radix(&line[i..i + 2], 16).unwrap())
                    .collect()
            })
            .collect();
        let frames = fixture_frames();
        assert_eq!(fixture.len(), frames.len());
        for (i, (stored, frame)) in fixture.iter().zip(&frames).enumerate() {
            let kind = frame.kind();
            assert_eq!(
                &frame.encode()[..],
                &stored[..],
                "frame {i} ({kind}): encoder drifted"
            );
            let back = Frame::decode(Bytes::from(stored.clone())).unwrap();
            assert_eq!(&back, frame, "frame {i} ({kind})");
            assert_eq!(
                &back.encode()[..],
                &stored[..],
                "frame {i} ({kind}): re-encode drifted"
            );
        }
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            let back = Frame::decode(bytes).unwrap();
            assert_eq!(back, frame, "{}", frame.kind());
        }
    }

    #[test]
    fn every_query_kind_round_trips() {
        let queries = [
            Query::NeighborAggregation {
                node: n(1),
                hops: 3,
                label: None,
            },
            Query::Reachability {
                source: n(1),
                target: n(2),
                hops: 4,
            },
            Query::ConstrainedReachability {
                source: n(3),
                target: n(4),
                hops: 2,
                via_label: NodeLabelId::new(9),
            },
        ];
        for q in queries {
            let f = Frame::Submit {
                seq: 1,
                query: q,
                submitted_ns: None,
            };
            assert_eq!(Frame::decode(f.encode()).unwrap(), f);
        }
    }

    /// Every way of encoding a frame says the same thing: `encoded_len`
    /// is `encode`'s length, `encode_into` appends the prefixed `encode`
    /// behind whatever the buffer held, and `encode_chunks` joins to it.
    fn assert_encodings_agree(frame: &Frame) {
        let flat = frame.encode();
        assert_eq!(frame.encoded_len(), flat.len(), "{}", frame.kind());
        let mut framed = vec![0xEE; 3];
        frame.encode_into(&mut framed);
        assert_eq!(framed[..3], [0xEE; 3], "{}", frame.kind());
        assert_eq!(framed[3..7], (flat.len() as u32).to_le_bytes());
        assert_eq!(framed[7..], flat[..], "{}", frame.kind());
        let joined: Vec<u8> = frame
            .encode_chunks()
            .iter()
            .flat_map(|c| c.to_vec())
            .collect();
        assert_eq!(joined[..], flat[..], "{}", frame.kind());
    }

    #[test]
    fn encoded_len_matches_encode() {
        for frame in sample_frames() {
            assert_encodings_agree(&frame);
        }
        for (traced, untraced) in traced_frame_pairs() {
            assert_encodings_agree(&traced);
            assert_encodings_agree(&untraced);
        }
    }

    #[test]
    fn encode_chunks_concatenation_matches_encode() {
        for frame in sample_frames() {
            let flat = frame.encode();
            let chunks = frame.encode_chunks();
            let mut joined = Vec::new();
            for c in &chunks {
                joined.extend_from_slice(c);
            }
            assert_eq!(&joined[..], &flat[..], "{}", frame.kind());
            assert!(
                chunks.iter().all(|c| !c.is_empty()),
                "{} emitted an empty chunk",
                frame.kind()
            );
        }
    }

    #[test]
    fn truncation_is_rejected_everywhere() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            for cut in 0..bytes.len() {
                assert!(
                    Frame::decode(bytes.slice(0..cut)).is_err(),
                    "{} cut at {cut} decoded",
                    frame.kind()
                );
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for frame in sample_frames() {
            let mut raw = frame.encode().to_vec();
            raw.push(0xAB);
            assert!(
                Frame::decode(Bytes::from(raw)).is_err(),
                "{} accepted trailing byte",
                frame.kind()
            );
        }
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(Frame::decode(Bytes::from(vec![200u8])).is_err());
        assert!(Frame::decode(Bytes::new()).is_err());
        // The retired per-node fetch pair: a well-formed old request
        // (tag 6 + node) and an old miss response (tag 7 + node + flag).
        assert!(Frame::decode(Bytes::from(vec![6u8, 1, 0, 0, 0])).is_err());
        assert!(Frame::decode(Bytes::from(vec![7u8, 1, 0, 0, 0, 0])).is_err());
        // Unknown query tag inside a submit.
        assert!(Frame::decode(Bytes::from(vec![TAG_SUBMIT, 0, 77, 0, 0, 0, 0])).is_err());
    }

    /// The largest batch a real deployment would ship (a whole hot
    /// frontier): well beyond any test workload, still far under
    /// `MAX_FRAME_BYTES`.
    #[test]
    fn max_size_batch_round_trips() {
        let nodes: Vec<NodeId> = (0..100_000).map(n).collect();
        let request = Frame::FetchBatchRequest {
            req_id: u64::MAX,
            nodes: nodes.clone(),
            issued_ns: None,
        };
        let encoded = request.encode();
        assert!(encoded.len() < MAX_FRAME_BYTES);
        assert_eq!(Frame::decode(encoded).unwrap(), request);

        let payloads: Vec<Option<(u16, Bytes)>> = (0..100_000u32)
            .map(|i| {
                if i % 7 == 0 {
                    None
                } else {
                    Some(((i % 5) as u16, Bytes::from(i.to_le_bytes().to_vec())))
                }
            })
            .collect();
        let response = Frame::FetchBatchResponse {
            req_id: u64::MAX,
            payloads,
        };
        let encoded = response.encode();
        assert!(encoded.len() < MAX_FRAME_BYTES);
        assert_eq!(Frame::decode(encoded).unwrap(), response);
    }

    #[test]
    fn batch_request_with_absurd_count_is_rejected() {
        // A claimed count far larger than the remaining bytes must error
        // out of the `need` check, not attempt the allocation.
        let mut raw = vec![TAG_FETCH_BATCH_REQUEST];
        raw.extend_from_slice(&1u64.to_le_bytes());
        raw.extend_from_slice(&u32::MAX.to_le_bytes());
        raw.extend_from_slice(&[0u8; 8]);
        assert!(Frame::decode(Bytes::from(raw)).is_err());
    }

    proptest::proptest! {
        #[test]
        fn prop_fetch_batch_request_round_trip(
            req_id in 0u64..u64::MAX,
            nodes in proptest::collection::vec(0u32..1_000_000, 0..300),
        ) {
            let f = Frame::FetchBatchRequest {
                req_id,
                nodes: nodes.into_iter().map(n).collect(),
                issued_ns: None,
            };
            proptest::prop_assert_eq!(Frame::decode(f.encode()).unwrap(), f);
        }

        #[test]
        fn prop_fetch_batch_response_round_trip(
            req_id in 0u64..u64::MAX,
            payloads in proptest::collection::vec(
                proptest::option::of((0u16..512, proptest::collection::vec(0u8..=255, 0..64))),
                0..100,
            ),
        ) {
            let f = Frame::FetchBatchResponse {
                req_id,
                payloads: payloads
                    .into_iter()
                    .map(|p| p.map(|(s, v)| (s, Bytes::from(v))))
                    .collect(),
            };
            proptest::prop_assert_eq!(Frame::decode(f.encode()).unwrap(), f);
        }

        #[test]
        fn prop_submit_round_trip(
            seq in 0u64..u64::MAX,
            kind in 0u8..4,
            a in 0u32..1_000_000,
            b in 0u32..1_000_000,
            hops in 0u32..16,
            label in proptest::option::of(0u16..512),
            prob in 0.0f64..1.0,
            seed in 0u64..u64::MAX,
            submitted_ns in proptest::option::of(0u64..1 << 50),
        ) {
            let query = match kind {
                0 => Query::NeighborAggregation {
                    node: n(a),
                    hops,
                    label: label.map(NodeLabelId::new),
                },
                1 => Query::RandomWalk { node: n(a), steps: hops, restart_prob: prob, seed },
                2 => Query::Reachability { source: n(a), target: n(b), hops },
                _ => Query::ConstrainedReachability {
                    source: n(a),
                    target: n(b),
                    hops,
                    via_label: NodeLabelId::new(label.unwrap_or(1)),
                },
            };
            let f = Frame::Submit {
                seq,
                query,
                submitted_ns,
            };
            proptest::prop_assert_eq!(Frame::decode(f.encode()).unwrap(), f);
        }

        #[test]
        fn prop_completion_round_trip(
            seq in 0u64..u64::MAX,
            processor in 0u32..64,
            rkind in 0u8..3,
            v in 0u64..1 << 50,
            node in 0u32..1_000_000,
            hits in 0u64..1 << 40,
            misses in 0u64..1 << 40,
            bytes_ in 0u64..1 << 40,
            ts in 0u64..1 << 50,
            heat_cells in proptest::collection::vec(0u64..1 << 40, 0..5),
            trace in proptest::option::of((
                0u64..1 << 40,
                0u64..1 << 40,
                0u32..16,
                proptest::collection::vec((0u64..1 << 40, 0u64..1 << 40), 0..4),
            )),
        ) {
            let result = match rkind {
                0 => QueryResult::Count(v),
                1 => QueryResult::Walk { end: n(node), visited: v },
                _ => QueryResult::Reachable(v % 2 == 0),
            };
            let f = Frame::Completion(Completion {
                seq,
                processor,
                result,
                stats: AccessStats {
                    cache_hits: hits,
                    cache_misses: misses,
                    miss_bytes: bytes_,
                    evictions: misses / 7,
                },
                prefetch: PrefetchStats,
                failover: FailoverStats {
                    redials: misses / 5,
                    replica_failovers: misses / 11,
                    batches_resubmitted: misses / 13,
                },
                arrived_ns: ts,
                started_ns: ts + 1,
                completed_ns: ts + 2,
                heat: heat(&heat_cells),
                trace: trace.map(|(fetch_wait_ns, compute_ns, levels, level_spans)| QueryTrace {
                    fetch_wait_ns,
                    compute_ns,
                    levels,
                    level_spans,
                }),
            });
            proptest::prop_assert_eq!(Frame::decode(f.encode()).unwrap(), f);
        }

        #[test]
        fn prop_metrics_round_trip(
            queries in 0u64..1 << 50,
            hits in 0u64..1 << 50,
            per in proptest::collection::vec(0u64..1 << 40, 0..10),
            stage_ns in proptest::option::of(1u64..1 << 40),
        ) {
            let f = Frame::Metrics {
                snapshot: RunSnapshot {
                    queries,
                    cache_hits: hits,
                    cache_misses: queries / 3,
                    evictions: hits / 5,
                    stolen: queries / 9,
                    redials: queries / 5,
                    replica_failovers: queries / 7,
                    batches_resubmitted: queries / 11,
                    windows_resubmitted: queries / 13,
                    per_processor: per,
                    partition_heat: heat(&[queries % 97, hits % 83]),
                    region_heat: heat(&[queries % 13]),
                },
                trace: stage_ns.map(|ns| {
                    let mut t = TraceSnapshot::new(grouting_trace::TraceLevel::Stats);
                    t.stages.record(grouting_trace::Stage::DispatchRtt, ns);
                    t.reactor.busy_ns = ns / 2;
                    Box::new(t)
                }),
            };
            proptest::prop_assert_eq!(Frame::decode(f.encode()).unwrap(), f);
        }

        #[test]
        fn prop_random_bytes_never_panic(
            raw in proptest::collection::vec(0u8..=255, 0..64),
        ) {
            // Decoding arbitrary garbage must error, not panic.
            let _ = Frame::decode(Bytes::from(raw));
        }

        /// Every frame type in the protocol round-trips, with randomised
        /// field values where the type has any.
        #[test]
        fn prop_any_frame_round_trips(
            kind in 0u8..11,
            seq in 0u64..u64::MAX,
            id in 0u32..1024,
            node in 0u32..1_000_000,
            server in 0u16..512,
            payload in proptest::collection::vec(0u8..=255, 0..64),
            count in 0u64..1 << 50,
        ) {
            let frame = match kind {
                0 => Frame::Hello {
                    role: if id % 2 == 0 { Role::Client } else { Role::Processor },
                    id,
                },
                1 => Frame::Submit {
                    seq,
                    query: Query::NeighborAggregation { node: n(node), hops: id % 8, label: None },
                    submitted_ns: (seq % 2 == 0).then_some(seq / 2),
                },
                2 => Frame::SubmitEnd,
                3 => Frame::Dispatch {
                    seq,
                    query: Query::Reachability { source: n(node), target: n(id), hops: 3 },
                    trace: (seq % 2 == 0).then_some(DispatchTrace {
                        level: if seq % 4 == 0 {
                            grouting_trace::TraceLevel::Stats
                        } else {
                            grouting_trace::TraceLevel::Spans
                        },
                        dispatched_ns: seq / 3,
                    }),
                },
                4 => Frame::Completion(Completion {
                    seq,
                    processor: id,
                    result: QueryResult::Count(count),
                    stats: AccessStats {
                        cache_hits: count / 2,
                        cache_misses: count / 3,
                        miss_bytes: count,
                        evictions: count / 9,
                    },
                    prefetch: PrefetchStats,
                    failover: FailoverStats {
                        redials: count / 6,
                        replica_failovers: count / 7,
                        batches_resubmitted: count / 8,
                    },
                    arrived_ns: seq / 3,
                    started_ns: seq / 2,
                    completed_ns: seq,
                    heat: heat(&[count / 3; 2][..(id % 3) as usize]),
                    trace: (seq % 2 == 0).then(|| QueryTrace {
                        fetch_wait_ns: seq / 5,
                        compute_ns: seq / 7,
                        levels: id % 8,
                        level_spans: vec![(seq / 9, seq / 11); (id % 3) as usize],
                    }),
                }),
                5 => Frame::MetricsRequest,
                6 => Frame::Metrics {
                    snapshot: RunSnapshot {
                        queries: count,
                        cache_hits: count / 2,
                        cache_misses: count / 3,
                        evictions: count / 5,
                        stolen: count / 7,
                        redials: count / 17,
                        replica_failovers: count / 19,
                        batches_resubmitted: count / 23,
                        windows_resubmitted: count / 29,
                        per_processor: vec![count; (id % 6) as usize],
                        partition_heat: heat(&[count % 101, count % 11]),
                        region_heat: heat(&[count % 5]),
                    },
                    trace: (seq % 2 == 0).then(|| {
                        let mut t = TraceSnapshot::new(grouting_trace::TraceLevel::Stats);
                        t.stages.record(grouting_trace::Stage::RouterQueue, count.max(1));
                        Box::new(t)
                    }),
                },
                7 => Frame::FetchBatchRequest {
                    req_id: seq,
                    nodes: (0..id % 40).map(|i| n(node.wrapping_add(i))).collect(),
                    issued_ns: (seq % 2 == 0).then_some(seq / 4),
                },
                8 => Frame::FetchBatchResponse {
                    req_id: seq,
                    payloads: (0..id % 40)
                        .map(|i| {
                            (i % 3 != 0).then(|| (server, Bytes::from(payload.clone())))
                        })
                        .collect(),
                },
                9 => {
                    let role = match id % 3 {
                        0 => grouting_obs::NodeRole::Router,
                        1 => grouting_obs::NodeRole::Processor,
                        _ => grouting_obs::NodeRole::Storage,
                    };
                    let mut reg = grouting_obs::Registry::new(role, (id % 512) as u16);
                    reg.begin(seq);
                    for i in 0..id % 5 {
                        let slot = i.to_string();
                        reg.counter_with(
                            "grouting_partition_demand_total",
                            &[("partition", &slot)],
                            count.wrapping_add(u64::from(i)),
                        );
                    }
                    reg.gauge("grouting_queue_depth", count as f64 / 7.0);
                    Frame::ObsPush {
                        snapshot: reg.snapshot(),
                    }
                }
                _ => Frame::Shutdown,
            };
            assert_encodings_agree(&frame);
            proptest::prop_assert_eq!(Frame::decode(frame.encode()).unwrap(), frame);
        }
    }
}
