//! End-to-end query tracing and runtime telemetry for gRouting.
//!
//! The wire cluster (PR 6) has a fast data plane but, until this layer,
//! only end-of-run aggregate counters: nothing said *where* a query's
//! time went — router queue vs dispatch vs fetch vs compute — or what the
//! tail looked like. This crate is the observability layer the adaptive
//! features (overlap windows, workload-aware placement) feed on:
//!
//! * [`TraceLevel`] — the `GROUTING_TRACE=off|stats|spans` switch. `off`
//!   is byte-identical to an untraced build on the wire; `stats` records
//!   per-stage histograms and reactor telemetry; `spans` additionally
//!   keeps a bounded ring of per-query spans for debugging stuck
//!   pipelines.
//! * [`Stage`] / [`StageStats`] — the five pipeline stages every query
//!   crosses, each measured into a log-linear
//!   [`grouting_metrics::Histogram`] with `p50/p99/p999` extraction and a
//!   wire encoding, so the router can aggregate them and serve them
//!   mid-run.
//! * [`QueryTrace`] / [`QuerySpan`] / [`SpanRing`] — the per-query trace
//!   context: the processor-side span block that piggybacks on
//!   `Completion` frames, and the router-side assembled span.
//! * [`TelemetryCounters`] / [`ReactorStats`] — relaxed-atomic
//!   reactor/connection telemetry: poll-loop busy vs parked time, frames
//!   and bytes in/out, outstanding batch depth, buffer-pool reuse.
//! * [`TraceSnapshot`] — everything above in one mergeable, encodable
//!   bundle, carried next to `RunSnapshot` in `Metrics` frames and
//!   surfaced through `ClusterRun`.
//!
//! Tracing **observes**; it never steers. Routing decisions, cache
//! statistics, and partition heat are identical at every level — the
//! `wire_agreement` suite pins that.

mod snapshot;
mod span;
mod stage;
mod telemetry;

pub use snapshot::TraceSnapshot;
pub use span::{QuerySpan, QueryTrace, SpanRing, DEFAULT_SPAN_RING};
pub use stage::{Stage, StageStats};
pub use telemetry::{ReactorStats, TelemetryCounters};

/// How much observation the cluster performs, `GROUTING_TRACE`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// No tracing: frames, snapshots, and hot paths are byte-identical
    /// to a build without this layer.
    #[default]
    Off,
    /// Per-stage histograms plus reactor telemetry (cheap: a few clock
    /// reads per query and relaxed counter bumps per frame).
    Stats,
    /// Everything in `Stats`, plus per-level fetch/compute spans and a
    /// bounded in-memory ring of recent query spans.
    Spans,
}

impl TraceLevel {
    /// Parses a `GROUTING_TRACE` spelling (`off`, `stats`, `spans`);
    /// `None` when unknown.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" | "0" | "" => Some(TraceLevel::Off),
            "stats" | "1" => Some(TraceLevel::Stats),
            "spans" | "2" => Some(TraceLevel::Spans),
            _ => None,
        }
    }

    /// Whether any tracing is active.
    pub fn enabled(self) -> bool {
        self != TraceLevel::Off
    }

    /// Whether per-query spans (the ring, per-level breakdowns) are kept.
    pub fn spans(self) -> bool {
        self == TraceLevel::Spans
    }

    /// The lowercase spelling (`off`/`stats`/`spans`).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Stats => "stats",
            TraceLevel::Spans => "spans",
        }
    }

    /// Wire tag for this level.
    pub fn as_u8(self) -> u8 {
        match self {
            TraceLevel::Off => 0,
            TraceLevel::Stats => 1,
            TraceLevel::Spans => 2,
        }
    }

    /// Decodes a wire tag.
    ///
    /// # Errors
    ///
    /// Returns an error message on an unknown tag.
    pub fn from_u8(v: u8) -> Result<Self, String> {
        match v {
            0 => Ok(TraceLevel::Off),
            1 => Ok(TraceLevel::Stats),
            2 => Ok(TraceLevel::Spans),
            other => Err(format!("unknown trace level tag {other}")),
        }
    }
}

impl std::fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_all_spellings() {
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("stats"), Some(TraceLevel::Stats));
        assert_eq!(TraceLevel::parse("spans"), Some(TraceLevel::Spans));
        assert_eq!(TraceLevel::parse("1"), Some(TraceLevel::Stats));
        assert_eq!(TraceLevel::parse("verbose"), None);
        assert_eq!(TraceLevel::parse("spans:64"), None);
    }

    #[test]
    fn levels_are_ordered_and_tagged() {
        assert!(TraceLevel::Off < TraceLevel::Stats);
        assert!(TraceLevel::Stats < TraceLevel::Spans);
        for level in [TraceLevel::Off, TraceLevel::Stats, TraceLevel::Spans] {
            assert_eq!(TraceLevel::from_u8(level.as_u8()).unwrap(), level);
            assert!(!level.enabled() || level >= TraceLevel::Stats);
        }
        assert!(TraceLevel::from_u8(9).is_err());
        assert!(TraceLevel::Spans.spans());
        assert!(!TraceLevel::Stats.spans());
    }
}
