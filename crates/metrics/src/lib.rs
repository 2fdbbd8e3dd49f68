//! Measurement primitives shared by every gRouting runtime.
//!
//! The paper evaluates three metrics (§4.1): *query response time*, *query
//! processing throughput*, and *cache hit rate*. This crate provides the
//! histograms, timelines, meters, heatmaps and run snapshots that the
//! simulator, the wire cluster, and the benchmark harness use to compute
//! them, plus a fixed-width table reporter that prints rows in the same
//! shape the paper's tables and figures report.

mod heat;
mod histogram;
pub mod logger;
pub mod report;
mod snapshot;
mod throughput;
pub mod timeline;

pub use heat::{DecayingHeat, HeatMap};
pub use histogram::Histogram;
pub use logger::set_node_role;
pub use report::TableReport;
pub use snapshot::{FailoverStats, RunSnapshot};
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(nanos_to_millis(0), 0.0);
        assert_eq!(nanos_to_millis(2_000_000), 2.0);
    }
}
