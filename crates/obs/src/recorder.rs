//! The flight recorder: a bounded ring of per-interval counter deltas.
//!
//! Each sampling tick feeds the node's fresh [`RegistrySnapshot`] in;
//! the recorder diffs counters against the previous tick and retains the
//! interval's non-zero movement. When a node dies, a chaos event fires,
//! or teardown runs with `GROUTING_OBS_DUMP` set, the ring is dumped
//! through the logger — the last seconds of the node's life, without
//! having scraped it in time.

use std::collections::{HashMap, VecDeque};

use grouting_metrics::log_warn;

use crate::registry::{RegistrySnapshot, SampleKind};

/// One sampling interval's counter movement.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightFrame {
    /// When the interval ended (node-local monotonic nanoseconds).
    pub at_ns: u64,
    /// `(series key, delta)` for every counter that moved this interval.
    pub deltas: Vec<(String, f64)>,
}

/// A bounded ring of [`FlightFrame`]s with an overflow counter.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    cap: usize,
    prev: HashMap<String, f64>,
    frames: VecDeque<FlightFrame>,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` intervals (0 keeps none).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            ..Self::default()
        }
    }

    /// Folds one sampling tick in: counters diff against the previous
    /// tick, and the interval is retained when anything moved.
    pub fn record(&mut self, snap: &RegistrySnapshot) {
        let mut deltas = Vec::new();
        for s in &snap.samples {
            if s.kind != SampleKind::Counter {
                continue;
            }
            let key = s.series_key();
            let prev = self.prev.insert(key.clone(), s.value).unwrap_or(0.0);
            let delta = s.value - prev;
            if delta != 0.0 {
                deltas.push((key, delta));
            }
        }
        if self.cap == 0 || deltas.is_empty() {
            return;
        }
        if self.frames.len() == self.cap {
            self.frames.pop_front();
            self.dropped += 1;
        }
        self.frames.push_back(FlightFrame {
            at_ns: snap.at_ns,
            deltas,
        });
    }

    /// Writes the retained intervals through the logger, newest last.
    /// `node` attributes the dump, `reason` says what triggered it.
    pub fn dump(&self, node: &str, reason: &str) {
        log_warn!(
            "flight recorder dump for {node} ({reason}): {} intervals retained, {} evicted",
            self.frames.len(),
            self.dropped
        );
        for frame in &self.frames {
            let line: Vec<String> = frame
                .deltas
                .iter()
                .map(|(k, d)| format!("{k} +{d}"))
                .collect();
            log_warn!("  [{:>12} ns] {}", frame.at_ns, line.join(", "));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::NodeRole;

    fn tick(reg: &mut Registry, at_ns: u64, hits: u64, depth: f64) -> RegistrySnapshot {
        reg.begin(at_ns);
        reg.counter("grouting_cache_hits_total", hits);
        reg.gauge("grouting_queue_depth", depth);
        reg.snapshot()
    }

    #[test]
    fn records_counter_deltas_not_gauges() {
        let mut reg = Registry::new(NodeRole::Processor, 0);
        let mut rec = FlightRecorder::new(8);
        rec.record(&tick(&mut reg, 100, 10, 5.0));
        rec.record(&tick(&mut reg, 200, 25, 7.0));
        assert_eq!(rec.frames.len(), 2);
        let frames: Vec<&FlightFrame> = rec.frames.iter().collect();
        assert_eq!(
            frames[0].deltas,
            vec![("grouting_cache_hits_total".to_string(), 10.0)]
        );
        assert_eq!(
            frames[1].deltas,
            vec![("grouting_cache_hits_total".to_string(), 15.0)]
        );
    }

    #[test]
    fn quiet_intervals_are_not_retained() {
        let mut reg = Registry::new(NodeRole::Storage, 1);
        let mut rec = FlightRecorder::new(8);
        rec.record(&tick(&mut reg, 100, 10, 0.0));
        rec.record(&tick(&mut reg, 200, 10, 0.0));
        rec.record(&tick(&mut reg, 300, 12, 0.0));
        assert_eq!(rec.frames.len(), 2, "the flat interval is skipped");
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let mut reg = Registry::new(NodeRole::Router, 0);
        let mut rec = FlightRecorder::new(2);
        for i in 1..=5u64 {
            rec.record(&tick(&mut reg, i * 100, i * 10, 0.0));
        }
        assert_eq!(rec.frames.len(), 2);
        assert_eq!(rec.dropped, 3);
        assert!(!rec.frames.is_empty());
        rec.dump("router", "test");
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let mut reg = Registry::new(NodeRole::Router, 0);
        let mut rec = FlightRecorder::new(0);
        rec.record(&tick(&mut reg, 100, 10, 0.0));
        assert!(rec.frames.is_empty());
        assert_eq!(rec.dropped, 0);
    }
}
