//! Measurement primitives shared by every gRouting runtime.
//!
//! The paper evaluates three metrics (§4.1): *query response time*, *query
//! processing throughput*, and *cache hit rate*. This crate provides the
//! counters, histograms, and meters that the simulator, the wire cluster,
//! and the benchmark harness use to compute them, plus fixed-width table and
//! series reporters that print rows in the same shape the paper's tables and
//! figures report.

pub mod counter;
pub mod heat;
pub mod histogram;
pub mod logger;
pub mod report;
pub mod snapshot;
pub mod throughput;
pub mod timeline;

pub use counter::{CacheCounters, Counter};
pub use heat::{DecayingHeat, HeatCell, HeatMap};
pub use histogram::Histogram;
pub use logger::set_node_role;
pub use report::{SeriesReport, TableReport};
pub use snapshot::{FailoverStats, RunSnapshot};
pub use throughput::ThroughputMeter;
pub use timeline::Timeline;

/// Nanoseconds expressed as a plain integer.
///
/// Both runtimes measure time in nanoseconds: the discrete-event simulator
/// because its virtual clock is an integer, and the wire cluster because
/// [`std::time::Instant`] differences convert losslessly.
pub type Nanos = u64;

/// Converts nanoseconds to fractional milliseconds for reporting.
///
/// # Examples
///
/// ```
/// assert_eq!(grouting_metrics::nanos_to_millis(1_500_000), 1.5);
/// ```
pub fn nanos_to_millis(ns: Nanos) -> f64 {
    ns as f64 / 1e6
}

/// Converts nanoseconds to fractional seconds for reporting.
pub fn nanos_to_secs(ns: Nanos) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(nanos_to_millis(0), 0.0);
        assert_eq!(nanos_to_millis(2_000_000), 2.0);
        assert_eq!(nanos_to_secs(1_000_000_000), 1.0);
        assert!((nanos_to_secs(500_000_000) - 0.5).abs() < 1e-12);
    }
}
