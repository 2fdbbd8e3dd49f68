//! Per-query event timeline used to derive latency and utilisation.

use crate::throughput::ThroughputMeter;
use crate::Nanos;

/// One query's lifecycle timestamps inside a runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRecord {
    /// Query sequence number as issued by the workload.
    pub seq: u64,
    /// Time the router received the query.
    pub arrived: Nanos,
    /// Time a processor started executing it.
    pub started: Nanos,
    /// Time the processor acknowledged completion.
    pub completed: Nanos,
    /// Processor that executed the query.
    pub processor: usize,
}

impl QueryRecord {
    /// End-to-end latency (arrival to completion).
    pub fn latency(&self) -> Nanos {
        self.completed.saturating_sub(self.arrived)
    }

    /// Time spent waiting in router/processor queues before execution.
    pub fn queueing(&self) -> Nanos {
        self.started.saturating_sub(self.arrived)
    }

    /// Pure execution time on the processor.
    pub fn service(&self) -> Nanos {
        self.completed.saturating_sub(self.started)
    }
}

/// Collects [`QueryRecord`]s and derives the paper's evaluation metrics.
#[derive(Debug, Default, Clone)]
pub struct Timeline {
    records: Vec<QueryRecord>,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one completed-query record.
    pub fn push(&mut self, record: QueryRecord) {
        self.records.push(record);
    }

    /// All recorded queries in completion order.
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// Number of recorded queries.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Builds a throughput meter over the whole run.
    pub fn throughput(&self) -> ThroughputMeter {
        let mut m = ThroughputMeter::new();
        if let Some(first) = self.records.iter().map(|r| r.arrived).min() {
            m.start_at(first);
        }
        for r in &self.records {
            m.complete_at(r.completed);
        }
        m
    }

    /// Queries executed per processor, for load-balance inspection.
    pub fn per_processor_counts(&self, processors: usize) -> Vec<u64> {
        let mut counts = vec![0u64; processors];
        for r in &self.records {
            if r.processor < processors {
                counts[r.processor] += 1;
            }
        }
        counts
    }

    /// Coefficient of variation of per-processor query counts.
    ///
    /// Zero means perfectly balanced; used by tests to assert that query
    /// stealing keeps skewed workloads balanced.
    pub fn load_imbalance(&self, processors: usize) -> f64 {
        let counts = self.per_processor_counts(processors);
        if counts.is_empty() {
            return 0.0;
        }
        let n = counts.len() as f64;
        let mean = counts.iter().sum::<u64>() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, arrived: Nanos, started: Nanos, completed: Nanos, p: usize) -> QueryRecord {
        QueryRecord {
            seq,
            arrived,
            started,
            completed,
            processor: p,
        }
    }

    #[test]
    fn record_decomposition() {
        let r = rec(0, 100, 150, 400, 0);
        assert_eq!(r.latency(), 300);
        assert_eq!(r.queueing(), 50);
        assert_eq!(r.service(), 250);
    }

    #[test]
    fn per_processor_counts_and_imbalance() {
        let mut t = Timeline::new();
        for i in 0..8 {
            t.push(rec(i, 0, 0, 10, (i % 2) as usize));
        }
        assert_eq!(t.per_processor_counts(2), vec![4, 4]);
        assert_eq!(t.load_imbalance(2), 0.0);

        let mut skew = Timeline::new();
        for i in 0..8 {
            skew.push(rec(i, 0, 0, 10, 0));
        }
        assert!(skew.load_imbalance(2) > 0.9);
    }

    #[test]
    fn throughput_from_timeline() {
        let mut t = Timeline::new();
        t.push(rec(0, 0, 0, 500_000_000, 0));
        t.push(rec(1, 0, 0, 1_000_000_000, 1));
        let qps = t.throughput().qps().unwrap();
        assert!((qps - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_timeline() {
        let t = Timeline::new();
        assert!(t.is_empty());
        assert_eq!(t.load_imbalance(4), 0.0);
    }
}
