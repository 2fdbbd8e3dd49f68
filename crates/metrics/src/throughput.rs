//! Throughput measurement over a virtual or wall clock.

use crate::Nanos;

/// Measures queries-per-second over an explicit time interval.
///
/// Both runtimes can feed this meter explicitly — the simulator with
/// virtual nanoseconds, the wire cluster with elapsed wall nanoseconds — so
/// the same reporting code serves both.
#[derive(Debug, Default, Clone)]
pub struct ThroughputMeter {
    completed: u64,
    start: Option<Nanos>,
    end: Nanos,
}

impl ThroughputMeter {
    /// Creates an idle meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks the stream start; the first completion may also set it.
    pub fn start_at(&mut self, t: Nanos) {
        self.start = Some(match self.start {
            Some(s) => s.min(t),
            None => t,
        });
        self.end = self.end.max(t);
    }

    /// Records one completed query at time `t`.
    pub fn complete_at(&mut self, t: Nanos) {
        if self.start.is_none() {
            self.start = Some(0);
        }
        self.completed += 1;
        self.end = self.end.max(t);
    }

    /// Number of completed queries.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Total observed makespan in nanoseconds.
    pub fn elapsed(&self) -> Nanos {
        match self.start {
            Some(s) => self.end.saturating_sub(s),
            None => 0,
        }
    }

    /// Queries per second; `None` until at least one query completed over a
    /// non-zero interval.
    pub fn qps(&self) -> Option<f64> {
        let elapsed = self.elapsed();
        if self.completed == 0 || elapsed == 0 {
            return None;
        }
        Some(self.completed as f64 / (elapsed as f64 / 1e9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_meter_has_no_qps() {
        let m = ThroughputMeter::new();
        assert_eq!(m.qps(), None);
        assert_eq!(m.elapsed(), 0);
    }

    #[test]
    fn qps_computed_over_interval() {
        let mut m = ThroughputMeter::new();
        m.start_at(0);
        for i in 1..=100u64 {
            m.complete_at(i * 10_000_000); // one query every 10 ms
        }
        assert_eq!(m.completed(), 100);
        let qps = m.qps().unwrap();
        assert!((qps - 100.0).abs() < 1e-9, "qps={qps}");
    }

    #[test]
    fn start_at_takes_minimum() {
        let mut m = ThroughputMeter::new();
        m.start_at(500);
        m.start_at(100);
        m.complete_at(1_000_000_100);
        assert_eq!(m.elapsed(), 1_000_000_000);
        assert!((m.qps().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_interval_yields_none() {
        let mut m = ThroughputMeter::new();
        m.start_at(7);
        m.complete_at(7);
        assert_eq!(m.qps(), None);
    }
}
