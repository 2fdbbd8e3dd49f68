//! Cluster observability: one metrics registry, sampled and scrapeable.
//!
//! Every gRouting runtime accumulates statistics in purpose-built structs
//! — `StageStats`, `TelemetryCounters`, `FailoverStats`, the cache
//! counters, and (new with this layer) the workload
//! [`grouting_metrics::HeatMap`]s. Those structs stay authoritative: they
//! are deterministic, they cross the wire in snapshots, and the agreement
//! tests pin them byte-identical with observability on or off. What they
//! lacked was a *live, uniform* view: nothing could read a node's counters
//! mid-run without knowing every struct's shape.
//!
//! This crate is that view:
//!
//! * [`Registry`] — a named-series sink (counters and gauges, plus
//!   histogram quantiles flattened to gauges). On each sampling tick a
//!   node fills the registry from its authoritative structs through one
//!   absorb API; the registry never feeds back into them.
//! * [`RegistrySnapshot`] — a registry's current series in a compact wire
//!   encoding, pushed by processors and storage servers to the router so
//!   one scrape reads the whole cluster.
//! * `FlightRecorder` — a bounded ring of per-interval counter deltas,
//!   dumped through the logger on fault events or at teardown when
//!   `GROUTING_OBS_DUMP` is set: the last seconds of a node's life,
//!   attributable even after it died.
//! * `ScrapeServer` — a non-blocking TCP listener serving the
//!   Prometheus-style plain-text exposition, polled from the node's own
//!   service loop (`GROUTING_METRICS_ADDR`).
//! * [`NodeObs`] — the per-node bundle gluing the above to a service
//!   loop: cadenced sampling, scrape polling, and push bookkeeping.
//!
//! Observability **observes**; it never steers. With sampling off the
//! hot paths and every frame on the wire are byte-identical.

mod node;
mod recorder;
mod registry;
mod scrape;

pub use node::{NodeObs, ObsConfig, DEFAULT_SAMPLE_EVERY_NS};
pub use registry::{Registry, RegistrySnapshot};

/// Which tier a node belongs to — the top-level identity of every
/// registry snapshot and scrape series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeRole {
    /// The router: dispatch, aggregation, and the cluster-wide scrape
    /// point.
    Router,
    /// A query processor.
    Processor,
    /// A storage server.
    Storage,
}

impl NodeRole {
    /// The lowercase name used in labels and log prefixes.
    pub fn as_str(self) -> &'static str {
        match self {
            NodeRole::Router => "router",
            NodeRole::Processor => "proc",
            NodeRole::Storage => "storage",
        }
    }

    /// Wire tag for this role.
    pub fn as_u8(self) -> u8 {
        match self {
            NodeRole::Router => 0,
            NodeRole::Processor => 1,
            NodeRole::Storage => 2,
        }
    }

    /// Decodes a wire tag.
    ///
    /// # Errors
    ///
    /// Returns an error message on an unknown tag.
    pub fn from_u8(v: u8) -> Result<Self, String> {
        match v {
            0 => Ok(NodeRole::Router),
            1 => Ok(NodeRole::Processor),
            2 => Ok(NodeRole::Storage),
            other => Err(format!("unknown node role tag {other}")),
        }
    }

    /// The `role-id` spelling used as the `node` label and log role
    /// (`router` stays bare: there is one).
    pub fn node_name(self, id: u16) -> String {
        match self {
            NodeRole::Router => "router".to_string(),
            _ => format!("{}-{id}", self.as_str()),
        }
    }
}

impl std::fmt::Display for NodeRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_tags_round_trip() {
        for role in [NodeRole::Router, NodeRole::Processor, NodeRole::Storage] {
            assert_eq!(NodeRole::from_u8(role.as_u8()).unwrap(), role);
        }
        assert!(NodeRole::from_u8(7).is_err());
    }

    #[test]
    fn node_names_are_attributable() {
        assert_eq!(NodeRole::Router.node_name(0), "router");
        assert_eq!(NodeRole::Processor.node_name(3), "proc-3");
        assert_eq!(NodeRole::Storage.node_name(1), "storage-1");
    }
}
