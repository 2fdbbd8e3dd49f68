//! The cluster's message set and its binary encoding.
//!
//! Every exchange between the router, the query processors, and the
//! storage servers is one of the frames below, encoded little-endian in
//! the style of `grouting_graph::codec` (a tag byte, then fixed-width
//! fields, variable-length sections carrying explicit counts). On the wire
//! each frame travels behind a `u32` length prefix (see
//! [`crate::transport`]); the encoding here is the payload only, so the
//! in-process transport can carry the identical bytes without a length
//! prefix and both paths exercise the same codec.
//!
//! Message set (paper §3.2's router/processor protocol, plus the decoupled
//! storage fetch path):
//!
//! * [`Frame::Hello`] — a peer introduces itself to the router;
//! * [`Frame::Submit`]/[`Frame::SubmitEnd`] — a client streams a workload;
//! * [`Frame::Dispatch`] — the router hands one query to a processor
//!   (ack-driven: at most one outstanding per processor);
//! * [`Frame::Completion`] — the processor's acknowledgement: result,
//!   access stats, lifecycle timestamps;
//! * [`Frame::FetchBatchRequest`]/[`Frame::FetchBatchResponse`] — a
//!   processor's cache-miss path to a storage server, one frontier per
//!   exchange (the values are the *encoded* adjacency records, so byte
//!   accounting matches the in-proc engine);
//! * [`Frame::MetricsRequest`]/[`Frame::Metrics`] — run-total snapshots;
//! * [`Frame::ObsPush`] — a node's sampled metrics registry, forwarded
//!   to the router so one scrape of the router reads the whole cluster;
//! * [`Frame::Shutdown`] — orderly teardown.
//!
//! # Optional trace blocks
//!
//! When tracing is on (`GROUTING_TRACE=stats|spans`), four frames carry
//! an optional trace block *appended after* their PR 6 fields: `Submit`
//! (client submit stamp), `Dispatch` (trace level + dispatch stamp, which
//! is also how processors learn the run's trace level),
//! `FetchBatchRequest` (issue stamp), and `Completion` (the processor's
//! [`QueryTrace`] span block). Presence is signalled by bytes remaining
//! after the base fields — with tracing off nothing is appended, so the
//! encoding is byte-identical to an untraced deployment (pinned by the
//! `wire_agreement` suite), and a PR 6-shaped frame decodes to a frame
//! with an absent block.

use bytes::{Buf, BufMut, Bytes};
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
/// lifecycle record.
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
    /// The serving processor's *cumulative* speculative-prefetch tally
    /// (issued/hits/wasted since it started). Cumulative rather than
    /// per-query because speculation crosses query boundaries — one
    /// query's piggybacked bytes serve another's demand — so the router
    /// keeps the latest value per processor and sums those for the run
    /// snapshot. Zeros whenever prefetching is off.
    pub prefetch: PrefetchStats,
    /// The serving processor's *cumulative* storage-failover tally
    /// (redials, replica failovers, resubmitted batches since it
    /// started) — cumulative for the same reason as `prefetch`: recovery
    /// crosses query boundaries, so the router keeps the latest value per
    /// processor and sums those for the run snapshot. Zeros while the
    /// storage tier stays healthy.
    pub failover: FailoverStats,
    /// Router arrival timestamp (0 until the router stamps it).
    pub arrived_ns: u64,
    /// Execution start timestamp.
    pub started_ns: u64,
    /// Execution completion timestamp.
    pub completed_ns: u64,
    /// The serving processor's *cumulative* per-partition workload heat
    /// (demand and speculative fetches per partition slot since it
    /// started) — cumulative for the same reason as `prefetch`, and
    /// counted unconditionally so the frame bytes are identical with
    /// observability sampling on or off. Empty until the processor's
    /// first fetch.
    pub heat: HeatMap,
    /// The processor-measured span block (fetch wait vs compute, per
    /// level at `spans`). `None` when tracing is off, keeping the frame
    /// byte-identical to an untraced run.
    pub trace: Option<QueryTrace>,
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
        let mut framed = Vec::new();
        self.encode_into(&mut framed);
        Bytes::from(framed).slice(4..)
    }

    /// Appends this frame to `buf` exactly as it crosses a socket: the
    /// `u32` little-endian payload length, then the payload
    /// [`Frame::encode`] returns. The one definition of every frame's
    /// encoding; a sender that keeps `buf` between frames encodes without
    /// allocating.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.reserve(4 + self.encoded_len());
        let prefix_at = buf.len();
        buf.put_u32_le(0);
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
                buf.put_u64_le(*seq);
                put_query(buf, query);
                if let Some(ns) = submitted_ns {
                    buf.put_u64_le(*ns);
                }
            }
            Frame::SubmitEnd => buf.put_u8(TAG_SUBMIT_END),
            Frame::Dispatch { seq, query, trace } => {
                buf.put_u8(TAG_DISPATCH);
                buf.put_u64_le(*seq);
                put_query(buf, query);
                if let Some(t) = trace {
                    buf.put_u8(t.level.as_u8());
                    buf.put_u64_le(t.dispatched_ns);
                }
            }
            Frame::Completion(c) => {
                buf.put_u8(TAG_COMPLETION);
                buf.put_u64_le(c.seq);
                buf.put_u32_le(c.processor);
                put_result(buf, &c.result);
                buf.put_u64_le(c.stats.cache_hits);
                buf.put_u64_le(c.stats.cache_misses);
                buf.put_u64_le(c.stats.miss_bytes);
                buf.put_u64_le(c.stats.evictions);
                buf.put_u64_le(c.prefetch.issued);
                buf.put_u64_le(c.prefetch.hits);
                buf.put_u64_le(c.prefetch.wasted_bytes);
                buf.put_u64_le(c.failover.redials);
                buf.put_u64_le(c.failover.replica_failovers);
                buf.put_u64_le(c.failover.batches_resubmitted);
                buf.put_u64_le(c.arrived_ns);
                buf.put_u64_le(c.started_ns);
                buf.put_u64_le(c.completed_ns);
                c.heat.encode_into(buf);
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
                buf.put_slice(&snapshot.encode());
                if let Some(t) = trace {
                    t.encode_into(buf);
                }
            }
            Frame::Shutdown => buf.put_u8(TAG_SHUTDOWN),
        }
        let len = (buf.len() - prefix_at - 4) as u32;
        buf[prefix_at..prefix_at + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// The exact byte length [`Frame::encode`] would produce, computed
    /// without allocating or copying payloads — cheap enough for the
    /// reactor to count wire bytes per frame even when the frame carries
    /// a multi-megabyte batch response.
    pub fn encoded_len(&self) -> usize {
        match self {
            Frame::Hello { .. } => 1 + 1 + 4,
            Frame::Submit {
                query,
                submitted_ns,
                ..
            } => 1 + 8 + query_encoded_len(query) + submitted_ns.map_or(0, |_| 8),
            Frame::SubmitEnd => 1,
            Frame::Dispatch { query, trace, .. } => {
                1 + 8 + query_encoded_len(query) + trace.map_or(0, |_| 9)
            }
            Frame::Completion(c) => {
                1 + 8
                    + 4
                    + result_encoded_len(&c.result)
                    + 8 * 13
                    + c.heat.encoded_len()
                    + c.trace.as_ref().map_or(0, QueryTrace::encoded_len)
            }
            Frame::FetchBatchRequest {
                nodes, issued_ns, ..
            } => 1 + 8 + 4 + 4 * nodes.len() + issued_ns.map_or(0, |_| 8),
            Frame::FetchBatchResponse { payloads, .. } => {
                1 + 8
                    + 4
                    + payloads
                        .iter()
                        .map(|p| match p {
                            None => 1,
                            Some((_, value)) => 1 + 2 + 4 + value.len(),
                        })
                        .sum::<usize>()
            }
            Frame::ObsPush { snapshot } => 1 + snapshot.encoded_len(),
            Frame::MetricsRequest => 1,
            Frame::Metrics { snapshot, trace } => {
                1 + snapshot.encoded_len() + trace.as_ref().map_or(0, |t| t.encoded_len())
            }
            Frame::Shutdown => 1,
        }
    }

    /// [`Frame::encode`] as a one-element list. Nothing in this crate calls
    /// it — a frame leaves as one flat write (see [`crate::transport`]) —
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
    pub fn decode(mut data: Bytes) -> WireResult<Frame> {
        need(&data, 1)?;
        let tag = data.get_u8();
        let frame = match tag {
            TAG_HELLO => {
                need(&data, 5)?;
                let role = match data.get_u8() {
                    0 => Role::Client,
                    1 => Role::Processor,
                    r => return Err(WireError::Codec(format!("unknown role {r}"))),
                };
                Frame::Hello {
                    role,
                    id: data.get_u32_le(),
                }
            }
            TAG_SUBMIT | TAG_DISPATCH => {
                need(&data, 8)?;
                let seq = data.get_u64_le();
                let query = get_query(&mut data)?;
                if tag == TAG_SUBMIT {
                    let submitted_ns = if data.has_remaining() {
                        need(&data, 8)?;
                        Some(data.get_u64_le())
                    } else {
                        None
                    };
                    Frame::Submit {
                        seq,
                        query,
                        submitted_ns,
                    }
                } else {
                    let trace = if data.has_remaining() {
                        need(&data, 9)?;
                        let level = TraceLevel::from_u8(data.get_u8()).map_err(WireError::Codec)?;
                        if level == TraceLevel::Off {
                            return Err(WireError::Codec(
                                "dispatch trace block with level off".to_string(),
                            ));
                        }
                        Some(DispatchTrace {
                            level,
                            dispatched_ns: data.get_u64_le(),
                        })
                    } else {
                        None
                    };
                    Frame::Dispatch { seq, query, trace }
                }
            }
            TAG_SUBMIT_END => Frame::SubmitEnd,
            TAG_COMPLETION => {
                need(&data, 12)?;
                let seq = data.get_u64_le();
                let processor = data.get_u32_le();
                let result = get_result(&mut data)?;
                need(&data, 13 * 8)?;
                let stats = AccessStats {
                    cache_hits: data.get_u64_le(),
                    cache_misses: data.get_u64_le(),
                    miss_bytes: data.get_u64_le(),
                    evictions: data.get_u64_le(),
                };
                let prefetch = PrefetchStats {
                    issued: data.get_u64_le(),
                    hits: data.get_u64_le(),
                    wasted_bytes: data.get_u64_le(),
                };
                let failover = FailoverStats {
                    redials: data.get_u64_le(),
                    replica_failovers: data.get_u64_le(),
                    batches_resubmitted: data.get_u64_le(),
                };
                let arrived_ns = data.get_u64_le();
                let started_ns = data.get_u64_le();
                let completed_ns = data.get_u64_le();
                let heat = HeatMap::decode_prefix(&mut data).map_err(WireError::Codec)?;
                let trace = if data.has_remaining() {
                    Some(QueryTrace::decode_prefix(&mut data).map_err(WireError::Codec)?)
                } else {
                    None
                };
                Frame::Completion(Completion {
                    seq,
                    processor,
                    result,
                    stats,
                    prefetch,
                    failover,
                    arrived_ns,
                    started_ns,
                    completed_ns,
                    heat,
                    trace,
                })
            }
            TAG_FETCH_BATCH_REQUEST => {
                need(&data, 12)?;
                let req_id = data.get_u64_le();
                let count = data.get_u32_le() as usize;
                need(&data, count.saturating_mul(4))?;
                let nodes = (0..count).map(|_| NodeId::new(data.get_u32_le())).collect();
                let issued_ns = if data.has_remaining() {
                    need(&data, 8)?;
                    Some(data.get_u64_le())
                } else {
                    None
                };
                Frame::FetchBatchRequest {
                    req_id,
                    nodes,
                    issued_ns,
                }
            }
            TAG_FETCH_BATCH_RESPONSE => {
                need(&data, 12)?;
                let req_id = data.get_u64_le();
                let count = data.get_u32_le() as usize;
                // Every entry takes at least its flag byte, so the bytes
                // at hand bound what a hostile count can reserve.
                let mut payloads = Vec::with_capacity(count.min(data.remaining()));
                for _ in 0..count {
                    need(&data, 1)?;
                    let payload = match data.get_u8() {
                        0 => None,
                        1 => {
                            need(&data, 6)?;
                            let server = data.get_u16_le();
                            let len = data.get_u32_le() as usize;
                            need(&data, len)?;
                            let value = data.slice(0..len);
                            data.advance(len);
                            Some((server, value))
                        }
                        f => return Err(WireError::Codec(format!("bad payload flag {f}"))),
                    };
                    payloads.push(payload);
                }
                Frame::FetchBatchResponse { req_id, payloads }
            }
            TAG_OBS_PUSH => Frame::ObsPush {
                snapshot: RegistrySnapshot::decode_prefix(&mut data).map_err(WireError::Codec)?,
            },
            TAG_METRICS_REQUEST => Frame::MetricsRequest,
            TAG_METRICS => {
                let snapshot = RunSnapshot::decode_prefix(&mut data).map_err(WireError::Codec)?;
                let trace = if data.has_remaining() {
                    Some(Box::new(
                        TraceSnapshot::decode_prefix(&mut data).map_err(WireError::Codec)?,
                    ))
                } else {
                    None
                };
                Frame::Metrics { snapshot, trace }
            }
            TAG_SHUTDOWN => Frame::Shutdown,
            t => return Err(WireError::Codec(format!("unknown frame tag {t}"))),
        };
        if data.has_remaining() {
            return Err(WireError::Codec(format!(
                "{} trailing bytes after {} frame",
                data.remaining(),
                frame.kind()
            )));
        }
        Ok(frame)
    }
}

const QUERY_AGG: u8 = 0;
const QUERY_RWR: u8 = 1;
const QUERY_REACH: u8 = 2;
const QUERY_LREACH: u8 = 3;

fn query_encoded_len(query: &Query) -> usize {
    match query {
        Query::NeighborAggregation { label, .. } => 1 + 4 + 4 + 1 + label.map_or(0, |_| 2),
        Query::RandomWalk { .. } => 1 + 4 + 4 + 8 + 8,
        Query::Reachability { .. } => 1 + 4 + 4 + 4,
        Query::ConstrainedReachability { .. } => 1 + 4 + 4 + 4 + 2,
    }
}

fn put_query(buf: &mut Vec<u8>, query: &Query) {
    match query {
        Query::NeighborAggregation { node, hops, label } => {
            buf.put_u8(QUERY_AGG);
            buf.put_u32_le(node.raw());
            buf.put_u32_le(*hops);
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
            buf.put_u32_le(node.raw());
            buf.put_u32_le(*steps);
            buf.put_u64_le(restart_prob.to_bits());
            buf.put_u64_le(*seed);
        }
        Query::Reachability {
            source,
            target,
            hops,
        } => {
            buf.put_u8(QUERY_REACH);
            buf.put_u32_le(source.raw());
            buf.put_u32_le(target.raw());
            buf.put_u32_le(*hops);
        }
        Query::ConstrainedReachability {
            source,
            target,
            hops,
            via_label,
        } => {
            buf.put_u8(QUERY_LREACH);
            buf.put_u32_le(source.raw());
            buf.put_u32_le(target.raw());
            buf.put_u32_le(*hops);
            buf.put_u16_le(via_label.0);
        }
    }
}

fn get_query(data: &mut Bytes) -> WireResult<Query> {
    need(data, 1)?;
    match data.get_u8() {
        QUERY_AGG => {
            need(data, 9)?;
            let node = NodeId::new(data.get_u32_le());
            let hops = data.get_u32_le();
            let label = match data.get_u8() {
                0 => None,
                1 => {
                    need(data, 2)?;
                    Some(NodeLabelId::new(data.get_u16_le()))
                }
                f => return Err(WireError::Codec(format!("bad label flag {f}"))),
            };
            Ok(Query::NeighborAggregation { node, hops, label })
        }
        QUERY_RWR => {
            need(data, 24)?;
            Ok(Query::RandomWalk {
                node: NodeId::new(data.get_u32_le()),
                steps: data.get_u32_le(),
                restart_prob: f64::from_bits(data.get_u64_le()),
                seed: data.get_u64_le(),
            })
        }
        QUERY_REACH => {
            need(data, 12)?;
            Ok(Query::Reachability {
                source: NodeId::new(data.get_u32_le()),
                target: NodeId::new(data.get_u32_le()),
                hops: data.get_u32_le(),
            })
        }
        QUERY_LREACH => {
            need(data, 14)?;
            Ok(Query::ConstrainedReachability {
                source: NodeId::new(data.get_u32_le()),
                target: NodeId::new(data.get_u32_le()),
                hops: data.get_u32_le(),
                via_label: NodeLabelId::new(data.get_u16_le()),
            })
        }
        t => Err(WireError::Codec(format!("unknown query tag {t}"))),
    }
}

const RESULT_COUNT: u8 = 0;
const RESULT_WALK: u8 = 1;
const RESULT_REACHABLE: u8 = 2;

fn result_encoded_len(result: &QueryResult) -> usize {
    match result {
        QueryResult::Count(_) => 1 + 8,
        QueryResult::Walk { .. } => 1 + 4 + 8,
        QueryResult::Reachable(_) => 1 + 1,
    }
}

fn put_result(buf: &mut Vec<u8>, result: &QueryResult) {
    match result {
        QueryResult::Count(c) => {
            buf.put_u8(RESULT_COUNT);
            buf.put_u64_le(*c);
        }
        QueryResult::Walk { end, visited } => {
            buf.put_u8(RESULT_WALK);
            buf.put_u32_le(end.raw());
            buf.put_u64_le(*visited);
        }
        QueryResult::Reachable(r) => {
            buf.put_u8(RESULT_REACHABLE);
            buf.put_u8(u8::from(*r));
        }
    }
}

fn get_result(data: &mut Bytes) -> WireResult<QueryResult> {
    need(data, 1)?;
    match data.get_u8() {
        RESULT_COUNT => {
            need(data, 8)?;
            Ok(QueryResult::Count(data.get_u64_le()))
        }
        RESULT_WALK => {
            need(data, 12)?;
            Ok(QueryResult::Walk {
                end: NodeId::new(data.get_u32_le()),
                visited: data.get_u64_le(),
            })
        }
        RESULT_REACHABLE => {
            need(data, 1)?;
            match data.get_u8() {
                0 => Ok(QueryResult::Reachable(false)),
                1 => Ok(QueryResult::Reachable(true)),
                b => Err(WireError::Codec(format!("bad bool {b}"))),
            }
        }
        t => Err(WireError::Codec(format!("unknown result tag {t}"))),
    }
}

fn need(data: &Bytes, n: usize) -> WireResult<()> {
    if data.remaining() < n {
        Err(WireError::Codec(format!(
            "need {n} bytes, have {}",
            data.remaining()
        )))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn heat(cells: &[(u64, u64)]) -> HeatMap {
        let mut h = HeatMap::new();
        for (slot, (d, s)) in cells.iter().enumerate() {
            h.record_demand(slot, *d);
            h.record_speculative(slot, *s);
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
                prefetch: PrefetchStats {
                    issued: 12,
                    hits: 9,
                    wasted_bytes: 256,
                },
                failover: FailoverStats {
                    redials: 2,
                    replica_failovers: 1,
                    batches_resubmitted: 3,
                },
                arrived_ns: 10,
                started_ns: 20,
                completed_ns: 30,
                heat: heat(&[(3, 1), (0, 2)]),
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
                    prefetch_issued: 4,
                    prefetch_hits: 2,
                    prefetch_wasted_bytes: 64,
                    redials: 2,
                    replica_failovers: 1,
                    batches_resubmitted: 3,
                    windows_resubmitted: 1,
                    per_processor: vec![5, 5],
                    partition_heat: heat(&[(3, 1), (0, 2)]),
                    region_heat: heat(&[(7, 0)]),
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
            prefetch: PrefetchStats {
                issued: 12,
                hits: 9,
                wasted_bytes: 256,
            },
            failover: FailoverStats {
                redials: 1,
                replica_failovers: 0,
                batches_resubmitted: 1,
            },
            arrived_ns: 10,
            started_ns: 20,
            completed_ns: 30,
            heat: heat(&[(5, 2)]),
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
                        prefetch_issued: 4,
                        prefetch_hits: 2,
                        prefetch_wasted_bytes: 64,
                        redials: 0,
                        replica_failovers: 0,
                        batches_resubmitted: 0,
                        windows_resubmitted: 0,
                        per_processor: vec![5, 5],
                        partition_heat: heat(&[(9, 4), (2, 0), (0, 1)]),
                        region_heat: heat(&[(5, 5)]),
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
                        prefetch_issued: 4,
                        prefetch_hits: 2,
                        prefetch_wasted_bytes: 64,
                        redials: 0,
                        replica_failovers: 0,
                        batches_resubmitted: 0,
                        windows_resubmitted: 0,
                        per_processor: vec![5, 5],
                        partition_heat: heat(&[(9, 4), (2, 0), (0, 1)]),
                        region_heat: heat(&[(5, 5)]),
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

    /// Tracing rides as a pure suffix: the traced encoding starts with
    /// the exact untraced bytes, so a trace-off deployment emits frames
    /// byte-identical to the pre-trace protocol — and pre-trace bytes
    /// decode to frames with the block absent.
    #[test]
    fn trace_blocks_are_strict_suffixes() {
        for (traced, untraced) in traced_frame_pairs() {
            let with = traced.encode();
            let without = untraced.encode();
            assert!(with.len() > without.len(), "{}", traced.kind());
            assert_eq!(
                &with[..without.len()],
                &without[..],
                "{} block is not a suffix",
                traced.kind()
            );
            assert_eq!(
                Frame::decode(without).unwrap(),
                untraced,
                "{} old-shape bytes stopped decoding",
                traced.kind()
            );
        }
    }

    /// Cutting a traced frame either errors or (exactly at the block
    /// boundary) yields the legitimate untraced frame — never a third
    /// interpretation, and never a panic.
    #[test]
    fn traced_truncation_never_misdecodes() {
        for (traced, untraced) in traced_frame_pairs() {
            let bytes = traced.encode();
            let base = untraced.encode().len();
            for cut in 0..bytes.len() {
                match Frame::decode(bytes.slice(0..cut)) {
                    Ok(frame) => {
                        assert_eq!(cut, base, "{} cut {cut} decoded", traced.kind());
                        assert_eq!(frame, untraced);
                    }
                    Err(_) => assert_ne!(cut, base, "{} base shape rejected", traced.kind()),
                }
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
        let level_at = raw.len() - 9;
        raw[level_at] = 0; // TraceLevel::Off on the wire
        assert!(Frame::decode(Bytes::from(raw)).is_err());
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
        assert!(Frame::decode(Bytes::from(vec![TAG_SUBMIT, 0, 0, 0, 0, 0, 0, 0, 0, 77])).is_err());
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
            heat_cells in proptest::collection::vec((0u64..1 << 40, 0u64..1 << 40), 0..5),
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
                prefetch: PrefetchStats {
                    issued: hits / 3,
                    hits: hits / 4,
                    wasted_bytes: bytes_ / 2,
                },
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
                    prefetch_issued: hits / 2,
                    prefetch_hits: hits / 3,
                    prefetch_wasted_bytes: queries / 2,
                    redials: queries / 5,
                    replica_failovers: queries / 7,
                    batches_resubmitted: queries / 11,
                    windows_resubmitted: queries / 13,
                    per_processor: per,
                    partition_heat: heat(&[(queries % 97, hits % 89), (hits % 83, 0)]),
                    region_heat: heat(&[(queries % 13, queries % 7)]),
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
                    prefetch: PrefetchStats {
                        issued: count / 4,
                        hits: count / 5,
                        wasted_bytes: count / 2,
                    },
                    failover: FailoverStats {
                        redials: count / 6,
                        replica_failovers: count / 7,
                        batches_resubmitted: count / 8,
                    },
                    arrived_ns: seq / 3,
                    started_ns: seq / 2,
                    completed_ns: seq,
                    heat: heat(&[(count / 3, count / 5); 2][..(id % 3) as usize]),
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
                        prefetch_issued: count / 11,
                        prefetch_hits: count / 13,
                        prefetch_wasted_bytes: count / 2,
                        redials: count / 17,
                        replica_failovers: count / 19,
                        batches_resubmitted: count / 23,
                        windows_resubmitted: count / 29,
                        per_processor: vec![count; (id % 6) as usize],
                        partition_heat: heat(&[(count % 101, count % 51), (count % 11, 0)]),
                        region_heat: heat(&[(count % 5, count % 3)]),
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
