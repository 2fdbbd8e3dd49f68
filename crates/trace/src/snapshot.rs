//! The mergeable, encodable bundle of everything the trace layer saw.

use bytes::BufMut;
use grouting_graph::codec::Reader;

use crate::span::QuerySpan;
use crate::stage::StageStats;
use crate::telemetry::ReactorStats;
use crate::TraceLevel;

/// Everything the trace layer observed in one run (or one run-so-far,
/// when served mid-run by a `MetricsRequest`).
///
/// Travels on the wire as an optional section after the `RunSnapshot` in
/// `Metrics` frames: absent when tracing is off, which keeps the frame
/// bytes identical to an untraced deployment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// The level the run traced at.
    pub level: TraceLevel,
    /// Per-stage latency histograms, aggregated by the router.
    pub stages: StageStats,
    /// Reactor/connection telemetry totals.
    pub reactor: ReactorStats,
    /// The most recent query spans (bounded by the router's ring;
    /// empty below [`TraceLevel::Spans`]).
    pub spans: Vec<QuerySpan>,
    /// Spans evicted from the ring past its capacity — non-zero means
    /// `spans` is a suffix of the run, not the whole story.
    pub spans_dropped: u64,
}

impl TraceSnapshot {
    /// An empty snapshot at `level`.
    pub fn new(level: TraceLevel) -> Self {
        Self {
            level,
            ..Self::default()
        }
    }

    /// Combines another snapshot into this one: histograms and telemetry
    /// merge, spans concatenate, and the level takes the more verbose of
    /// the two.
    pub fn merge(&mut self, other: &TraceSnapshot) {
        self.level = self.level.max(other.level);
        self.stages.merge(&other.stages);
        self.reactor.merge(&other.reactor);
        self.spans.extend_from_slice(&other.spans);
        self.spans_dropped += other.spans_dropped;
    }

    /// Appends the little-endian wire layout.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.level.as_u8());
        self.stages.encode_into(buf);
        self.reactor.encode_into(buf);
        buf.put_u32_le(self.spans.len() as u32);
        for span in &self.spans {
            span.encode_into(buf);
        }
        buf.put_u64_le(self.spans_dropped);
    }

    /// Decodes one snapshot from the front of `data`.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation on truncated or invalid
    /// input.
    pub fn decode_prefix(data: &mut Reader) -> Result<Self, String> {
        let level = TraceLevel::from_u8(data.u8()?)?;
        let stages = StageStats::decode_prefix(data)?;
        let reactor = ReactorStats::decode_prefix(data)?;
        let n = data.u32()? as usize;
        let spans = data.list(n, QuerySpan::ENCODED_LEN, QuerySpan::decode_prefix)?;
        let spans_dropped = data.u64()?;
        Ok(Self {
            level,
            stages,
            reactor,
            spans,
            spans_dropped,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Stage;
    use bytes::Bytes;

    fn encode(s: &TraceSnapshot) -> Bytes {
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Decodes `bytes` whole: one snapshot, then the end of the input.
    fn decode(bytes: Bytes) -> Result<TraceSnapshot, String> {
        let mut data = Reader::new(bytes);
        let s = TraceSnapshot::decode_prefix(&mut data)?;
        match data.remaining() {
            0 => Ok(s),
            n => Err(format!("{n} trailing bytes")),
        }
    }

    fn sample() -> TraceSnapshot {
        let mut s = TraceSnapshot::new(TraceLevel::Spans);
        s.stages.record(Stage::RouterQueue, 1_000);
        s.stages.record(Stage::DispatchRtt, 50_000);
        s.stages.record(Stage::FetchWait, 30_000);
        s.stages.record(Stage::Compute, 20_000);
        s.stages.record(Stage::Completion, 2_000);
        s.reactor.frames_in = 12;
        s.reactor.bytes_in = 4_096;
        s.reactor.busy_ns = 77;
        s.spans.push(QuerySpan {
            seq: 1,
            processor: 0,
            levels: 2,
            queue_ns: 1_000,
            rtt_ns: 50_000,
            fetch_wait_ns: 30_000,
            compute_ns: 20_000,
            completion_ns: 2_000,
        });
        s.spans_dropped = 9;
        s
    }

    #[test]
    fn round_trips() {
        let s = sample();
        assert_eq!(decode(encode(&s)).unwrap(), s);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        for level in [TraceLevel::Off, TraceLevel::Stats, TraceLevel::Spans] {
            let s = TraceSnapshot::new(level);
            assert_eq!(decode(encode(&s)).unwrap(), s);
        }
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(decode(bytes.slice(0..cut)).is_err(), "cut {cut}");
        }
        let mut raw = bytes.to_vec();
        raw.push(0);
        assert!(decode(Bytes::from(raw)).is_err());
        assert!(decode(Bytes::from(vec![9u8])).is_err(), "bad level tag");
    }

    #[test]
    fn merge_combines_everything() {
        let mut a = sample();
        let mut b = TraceSnapshot::new(TraceLevel::Stats);
        b.stages.record(Stage::Compute, 40_000);
        b.reactor.frames_in = 3;
        b.spans_dropped = 2;
        a.merge(&b);
        assert_eq!(a.level, TraceLevel::Spans, "more verbose level wins");
        assert_eq!(a.stages.stage(Stage::Compute).count(), 2);
        assert_eq!(a.reactor.frames_in, 15);
        assert_eq!(a.spans.len(), 1);
        assert_eq!(a.spans_dropped, 11);
    }
}
