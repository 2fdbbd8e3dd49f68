//! Measurements produced by one simulated run.

use grouting_metrics::{Histogram, Timeline};
use grouting_query::QueryResult;

/// Everything a single cluster run measures — the inputs to every figure.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Query results in sequence order.
    pub results: Vec<QueryResult>,
    /// Per-query lifecycle records.
    pub timeline: Timeline,
    /// Total cache hits across processors (Eq. 8).
    pub cache_hits: u64,
    /// Total cache misses across processors (Eq. 9).
    pub cache_misses: u64,
    /// Cache evictions observed.
    pub evictions: u64,
    /// Queries stolen by idle processors.
    pub stolen: u64,
    /// Virtual makespan of the whole run in nanoseconds.
    pub makespan_ns: u64,
    /// Gets this run sent to each storage server (one per cache miss).
    pub storage_gets: Vec<u64>,
    /// Processors the run was configured with.
    pub processors: usize,
}

impl SimReport {
    /// Mean per-query response time (service time, as the paper reports) in
    /// milliseconds.
    pub fn mean_response_ms(&self) -> f64 {
        let mut h = Histogram::new();
        for r in self.timeline.records() {
            h.record(r.service());
        }
        h.mean().unwrap_or(0.0) / 1e6
    }

    /// Query throughput in queries/second over the virtual makespan.
    pub fn throughput_qps(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 0.0;
        }
        self.timeline.len() as f64 / (self.makespan_ns as f64 / 1e9)
    }

    /// Cache hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Coefficient of variation of per-processor query counts.
    pub fn load_imbalance(&self) -> f64 {
        self.timeline.load_imbalance(self.processors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grouting_metrics::timeline::QueryRecord;

    fn report() -> SimReport {
        let mut t = Timeline::new();
        t.push(QueryRecord {
            seq: 0,
            arrived: 0,
            started: 0,
            completed: 10_000_000,
            processor: 0,
        });
        t.push(QueryRecord {
            seq: 1,
            arrived: 0,
            started: 10_000_000,
            completed: 40_000_000,
            processor: 1,
        });
        SimReport {
            results: vec![QueryResult::Count(3), QueryResult::Reachable(true)],
            timeline: t,
            cache_hits: 30,
            cache_misses: 10,
            evictions: 2,
            stolen: 1,
            makespan_ns: 40_000_000,
            storage_gets: vec![6, 4],
            processors: 2,
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.mean_response_ms() - 20.0).abs() < 1e-9);
        assert!((r.throughput_qps() - 50.0).abs() < 1e-9);
        assert!((r.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(r.load_imbalance(), 0.0);
    }

    #[test]
    fn empty_report_is_zeroes() {
        let r = SimReport {
            results: Vec::new(),
            timeline: Timeline::new(),
            cache_hits: 0,
            cache_misses: 0,
            evictions: 0,
            stolen: 0,
            makespan_ns: 0,
            storage_gets: vec![],
            processors: 1,
        };
        assert_eq!(r.mean_response_ms(), 0.0);
        assert_eq!(r.throughput_qps(), 0.0);
        assert_eq!(r.hit_rate(), 0.0);
    }
}
