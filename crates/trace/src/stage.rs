//! The pipeline stages a query crosses, and their latency histograms.

use bytes::Bytes;
use grouting_metrics::report::Cell;
use grouting_metrics::{nanos_to_millis, Histogram, TableReport};

/// Number of traced stages.
pub const STAGE_COUNT: usize = 5;

/// One stage of a query's end-to-end path through the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Client submit → router dispatch: time spent queued at the router
    /// behind the admission/overlap window.
    RouterQueue,
    /// Router dispatch → completion received back at the router — the
    /// full processor round trip (transit, queueing, execution).
    DispatchRtt,
    /// Inside the processor: time a query spent waiting on frontier
    /// fetches (summed across BFS levels).
    FetchWait,
    /// Inside the processor: time spent advancing the query between
    /// fetches (summed across resume calls).
    Compute,
    /// Processor completion stamp → completion frame reaching the
    /// client.
    Completion,
}

impl Stage {
    /// Every stage, in wire/index order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::RouterQueue,
        Stage::DispatchRtt,
        Stage::FetchWait,
        Stage::Compute,
        Stage::Completion,
    ];

    /// Stable index into [`StageStats`] and the wire encoding.
    pub fn index(self) -> usize {
        match self {
            Stage::RouterQueue => 0,
            Stage::DispatchRtt => 1,
            Stage::FetchWait => 2,
            Stage::Compute => 3,
            Stage::Completion => 4,
        }
    }

    /// The snake_case name used in tables and JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Stage::RouterQueue => "router_queue",
            Stage::DispatchRtt => "dispatch_rtt",
            Stage::FetchWait => "fetch_wait",
            Stage::Compute => "compute",
            Stage::Completion => "completion",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One latency histogram per [`Stage`], aggregated by the router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStats {
    hists: [Histogram; STAGE_COUNT],
}

impl Default for StageStats {
    fn default() -> Self {
        Self::new()
    }
}

impl StageStats {
    /// Empty histograms for every stage.
    pub fn new() -> Self {
        Self {
            hists: std::array::from_fn(|_| Histogram::new()),
        }
    }

    /// Records one observation (nanoseconds) into a stage's histogram.
    #[inline]
    pub fn record(&mut self, stage: Stage, nanos: u64) {
        self.hists[stage.index()].record(nanos);
    }

    /// The histogram backing one stage.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.hists[stage.index()]
    }

    /// Total observations across all stages.
    pub fn total_count(&self) -> u64 {
        self.hists.iter().map(Histogram::count).sum()
    }

    /// Whether nothing has been recorded anywhere.
    pub fn is_empty(&self) -> bool {
        self.total_count() == 0
    }

    /// Merges another set of stage histograms into this one.
    pub fn merge(&mut self, other: &StageStats) {
        for (mine, theirs) in self.hists.iter_mut().zip(&other.hists) {
            mine.merge(theirs);
        }
    }

    /// Appends the wire layout: each stage's histogram in index order.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        for h in &self.hists {
            h.encode_into(buf);
        }
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        self.hists.iter().map(Histogram::encoded_len).sum()
    }

    /// Decodes stage histograms from the front of `data`, consuming
    /// exactly their bytes.
    ///
    /// # Errors
    ///
    /// Propagates histogram malformations.
    pub fn decode_prefix(data: &mut Bytes) -> Result<Self, String> {
        let mut hists = Vec::with_capacity(STAGE_COUNT);
        for stage in Stage::ALL {
            hists.push(
                Histogram::decode_prefix(data)
                    .map_err(|e| format!("stage {}: {e}", stage.name()))?,
            );
        }
        Ok(Self {
            hists: hists.try_into().expect("exactly STAGE_COUNT decoded"),
        })
    }

    /// The per-stage latency breakdown as a paper-style table
    /// (milliseconds). Stages with no observations render as `-`.
    pub fn table(&self) -> TableReport {
        let mut t = TableReport::new(
            "Per-stage latency breakdown (ms)",
            &["stage", "count", "p50", "p99", "p999", "mean", "max"],
        );
        for stage in Stage::ALL {
            let h = self.stage(stage);
            let ms = |v: Option<u64>| v.map_or(Cell::Na, |n| Cell::Float(nanos_to_millis(n)));
            t.row(vec![
                stage.name().into(),
                h.count().into(),
                ms(h.p50()),
                ms(h.p99()),
                ms(h.p999()),
                h.mean().map_or(Cell::Na, |m| Cell::Float(m / 1e6)),
                ms(h.max()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_are_stable_and_exhaustive() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
    }

    #[test]
    fn record_and_merge_by_stage() {
        let mut a = StageStats::new();
        let mut b = StageStats::new();
        a.record(Stage::FetchWait, 1_000);
        b.record(Stage::FetchWait, 3_000);
        b.record(Stage::Compute, 500);
        a.merge(&b);
        assert_eq!(a.stage(Stage::FetchWait).count(), 2);
        assert_eq!(a.stage(Stage::Compute).count(), 1);
        assert_eq!(a.stage(Stage::RouterQueue).count(), 0);
        assert_eq!(a.total_count(), 3);
        assert!(!a.is_empty());
        assert!(StageStats::new().is_empty());
    }

    #[test]
    fn encode_round_trips() {
        let mut s = StageStats::new();
        for (i, stage) in Stage::ALL.iter().enumerate() {
            for k in 0..=i as u64 {
                s.record(*stage, 1_000 * (k + 1));
            }
        }
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        assert_eq!(buf.len(), s.encoded_len());
        let mut data = Bytes::from(buf);
        let decoded = StageStats::decode_prefix(&mut data).unwrap();
        assert_eq!(decoded, s);
        assert!(!data.has_remaining());
    }

    #[test]
    fn table_has_one_row_per_stage() {
        let mut s = StageStats::new();
        s.record(Stage::DispatchRtt, 2_000_000);
        let t = s.table();
        assert_eq!(t.len(), STAGE_COUNT);
        let rendered = t.render();
        assert!(rendered.contains("dispatch_rtt"));
        assert!(rendered.contains("router_queue"));
        assert!(rendered.contains("p999"));
    }

    use bytes::Buf as _;
}
