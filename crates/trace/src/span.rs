//! Per-query trace context: processor-side span blocks and the
//! router-side span ring.

use bytes::{Buf, BufMut, Bytes};
use std::collections::VecDeque;

/// Default capacity of the router's in-memory span ring.
pub const DEFAULT_SPAN_RING: usize = 256;

/// The span-ring capacity `GROUTING_TRACE` requests: `spans:N` gives
/// `N`, every other spelling (including plain `spans`) the default.
pub fn span_ring_from_env() -> usize {
    match std::env::var("GROUTING_TRACE") {
        Ok(v) => v
            .strip_prefix("spans:")
            .and_then(|n| n.parse().ok())
            .unwrap_or(DEFAULT_SPAN_RING),
        Err(_) => DEFAULT_SPAN_RING,
    }
}

/// The processor-measured portion of a query's span, carried back to the
/// router as the optional trace block on a `Completion` frame.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryTrace {
    /// Time the query spent waiting on frontier fetches, summed across
    /// BFS levels (nanoseconds).
    pub fetch_wait_ns: u64,
    /// Time spent advancing the query between fetches, summed across
    /// resume calls (nanoseconds).
    pub compute_ns: u64,
    /// Fetch levels the query crossed (0 = served entirely from cache).
    pub levels: u32,
    /// Per-level `(fetch_wait, compute)` pairs, recorded only at
    /// [`crate::TraceLevel::Spans`]; empty at `stats`.
    pub level_spans: Vec<(u64, u64)>,
}

impl QueryTrace {
    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        8 + 8 + 4 + 4 + self.level_spans.len() * 16
    }

    /// Appends the little-endian wire layout.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(self.fetch_wait_ns);
        buf.put_u64_le(self.compute_ns);
        buf.put_u32_le(self.levels);
        buf.put_u32_le(self.level_spans.len() as u32);
        for &(wait, compute) in &self.level_spans {
            buf.put_u64_le(wait);
            buf.put_u64_le(compute);
        }
    }

    /// Decodes one trace block from the front of `data`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation on truncated input.
    pub fn decode_prefix(data: &mut Bytes) -> Result<Self, String> {
        if data.remaining() < 8 + 8 + 4 + 4 {
            return Err(format!(
                "query trace header needs 24 bytes, have {}",
                data.remaining()
            ));
        }
        let fetch_wait_ns = data.get_u64_le();
        let compute_ns = data.get_u64_le();
        let levels = data.get_u32_le();
        let n = data.get_u32_le() as usize;
        if data.remaining() < n * 16 {
            return Err(format!(
                "query trace needs {} bytes for {n} level spans, have {}",
                n * 16,
                data.remaining()
            ));
        }
        let level_spans = (0..n)
            .map(|_| (data.get_u64_le(), data.get_u64_le()))
            .collect();
        Ok(Self {
            fetch_wait_ns,
            compute_ns,
            levels,
            level_spans,
        })
    }
}

/// One query's assembled end-to-end span, stamped by the router as the
/// completion comes back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuerySpan {
    /// The query's submission sequence number.
    pub seq: u64,
    /// Processor that served it.
    pub processor: u32,
    /// Fetch levels crossed.
    pub levels: u32,
    /// Client submit → router dispatch (nanoseconds).
    pub queue_ns: u64,
    /// Router dispatch → completion back at the router.
    pub rtt_ns: u64,
    /// Processor-side fetch wait (from the [`QueryTrace`] block).
    pub fetch_wait_ns: u64,
    /// Processor-side compute time (from the [`QueryTrace`] block).
    pub compute_ns: u64,
    /// Processor completion stamp → completion reaching the client.
    pub completion_ns: u64,
}

impl QuerySpan {
    /// Encoded size in bytes.
    pub const ENCODED_LEN: usize = 8 + 4 + 4 + 8 * 5;

    /// Appends the little-endian wire layout.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(self.seq);
        buf.put_u32_le(self.processor);
        buf.put_u32_le(self.levels);
        buf.put_u64_le(self.queue_ns);
        buf.put_u64_le(self.rtt_ns);
        buf.put_u64_le(self.fetch_wait_ns);
        buf.put_u64_le(self.compute_ns);
        buf.put_u64_le(self.completion_ns);
    }

    /// Decodes one span from the front of `data`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation on truncated input.
    pub fn decode_prefix(data: &mut Bytes) -> Result<Self, String> {
        if data.remaining() < Self::ENCODED_LEN {
            return Err(format!(
                "query span needs {} bytes, have {}",
                Self::ENCODED_LEN,
                data.remaining()
            ));
        }
        Ok(Self {
            seq: data.get_u64_le(),
            processor: data.get_u32_le(),
            levels: data.get_u32_le(),
            queue_ns: data.get_u64_le(),
            rtt_ns: data.get_u64_le(),
            fetch_wait_ns: data.get_u64_le(),
            compute_ns: data.get_u64_le(),
            completion_ns: data.get_u64_le(),
        })
    }
}

/// A bounded ring of the most recent query spans — enough to see what a
/// stuck overlap pipeline was doing, cheap enough to leave on.
#[derive(Debug, Clone, Default)]
pub struct SpanRing {
    cap: usize,
    spans: VecDeque<QuerySpan>,
    dropped: u64,
}

impl SpanRing {
    /// A ring keeping the last `cap` spans (0 keeps none).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            spans: VecDeque::with_capacity(cap.min(DEFAULT_SPAN_RING)),
            dropped: 0,
        }
    }

    /// Appends a span, evicting the oldest past capacity. Evictions
    /// count as dropped spans; a zero-capacity ring is disabled, not
    /// overflowing, and counts nothing.
    pub fn push(&mut self, span: QuerySpan) {
        if self.cap == 0 {
            return;
        }
        if self.spans.len() == self.cap {
            self.spans.pop_front();
            self.dropped += 1;
        }
        self.spans.push_back(span);
    }

    /// Spans evicted past capacity since the ring was created.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans currently retained, oldest first.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates retained spans, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &QuerySpan> {
        self.spans.iter()
    }

    /// Copies the retained spans out, oldest first.
    pub fn dump(&self) -> Vec<QuerySpan> {
        self.spans.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> QueryTrace {
        QueryTrace {
            fetch_wait_ns: 12_345,
            compute_ns: 6_789,
            levels: 3,
            level_spans: vec![(4_000, 2_000), (5_000, 2_500), (3_345, 2_289)],
        }
    }

    #[test]
    fn query_trace_round_trips() {
        for trace in [sample_trace(), QueryTrace::default()] {
            let mut buf = Vec::new();
            trace.encode_into(&mut buf);
            assert_eq!(buf.len(), trace.encoded_len());
            let mut data = Bytes::from(buf);
            assert_eq!(QueryTrace::decode_prefix(&mut data).unwrap(), trace);
            assert!(!data.has_remaining());
        }
    }

    #[test]
    fn query_trace_rejects_truncation() {
        let mut buf = Vec::new();
        sample_trace().encode_into(&mut buf);
        let bytes = Bytes::from(buf);
        for cut in 0..bytes.len() {
            let mut data = bytes.slice(0..cut);
            assert!(QueryTrace::decode_prefix(&mut data).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn query_span_round_trips() {
        let span = QuerySpan {
            seq: 42,
            processor: 3,
            levels: 2,
            queue_ns: 100,
            rtt_ns: 5_000,
            fetch_wait_ns: 3_000,
            compute_ns: 1_500,
            completion_ns: 250,
        };
        let mut buf = Vec::new();
        span.encode_into(&mut buf);
        assert_eq!(buf.len(), QuerySpan::ENCODED_LEN);
        let mut data = Bytes::from(buf);
        assert_eq!(QuerySpan::decode_prefix(&mut data).unwrap(), span);
    }

    #[test]
    fn ring_is_bounded_and_keeps_the_newest() {
        let mut ring = SpanRing::new(3);
        for seq in 0..10u64 {
            ring.push(QuerySpan {
                seq,
                ..QuerySpan::default()
            });
        }
        assert_eq!(ring.len(), 3);
        let seqs: Vec<u64> = ring.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert_eq!(ring.dump().len(), 3);
        assert_eq!(ring.dropped(), 7, "10 pushed, 3 retained");

        let mut empty = SpanRing::new(0);
        empty.push(QuerySpan::default());
        assert!(empty.is_empty());
        assert_eq!(empty.dropped(), 0, "disabled ring, not overflow");
    }
}
