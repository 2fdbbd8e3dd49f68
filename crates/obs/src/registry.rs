//! The named-series registry and its wire snapshot.

use bytes::BufMut;
use grouting_graph::codec::Reader;
use grouting_metrics::{DecayingHeat, FailoverStats, HeatMap, Histogram};
use grouting_trace::{ReactorStats, Stage, StageStats};

use crate::NodeRole;

/// How a series behaves over time — what a scraper may assume about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// Monotonically non-decreasing (rates come from deltas).
    Counter,
    /// A point-in-time level that can move both ways.
    Gauge,
}

impl SampleKind {
    fn as_u8(self) -> u8 {
        match self {
            SampleKind::Counter => 0,
            SampleKind::Gauge => 1,
        }
    }

    fn from_u8(v: u8) -> Result<Self, String> {
        match v {
            0 => Ok(SampleKind::Counter),
            1 => Ok(SampleKind::Gauge),
            other => Err(format!("unknown sample kind tag {other}")),
        }
    }
}

/// One named series value at one sampling instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Series name (`grouting_*` snake_case, Prometheus-compatible).
    pub name: String,
    /// Label pairs beyond the implicit `node` label.
    pub labels: Vec<(String, String)>,
    /// Counter or gauge.
    pub kind: SampleKind,
    /// The sampled value (counters are integral, stored as `f64` so one
    /// slot fits both kinds).
    pub value: f64,
}

impl Sample {
    /// The `name{k="v",...}` key identifying this series across samples.
    pub fn series_key(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// A node's registry: every series the node exposes, refilled from the
/// authoritative stat structs on each sampling tick.
///
/// The registry is a sink, not a store of truth — `begin` clears it, the
/// absorb helpers and `counter`/`gauge` repopulate it, and `snapshot`
/// freezes the result for pushing or scraping. That keeps the hot paths
/// untouched: nothing in the query pipeline ever writes here.
#[derive(Debug, Clone)]
pub struct Registry {
    role: NodeRole,
    id: u16,
    at_ns: u64,
    samples: Vec<Sample>,
}

impl Registry {
    /// An empty registry for one node.
    pub fn new(role: NodeRole, id: u16) -> Self {
        Self {
            role,
            id,
            at_ns: 0,
            samples: Vec::new(),
        }
    }

    /// The node's tier.
    pub fn role(&self) -> NodeRole {
        self.role
    }

    /// The node's id within its tier.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Starts a new sampling interval at `now_ns`, clearing all series.
    pub fn begin(&mut self, now_ns: u64) {
        self.at_ns = now_ns;
        self.samples.clear();
    }

    /// Registers a counter series without labels.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counter_with(name, &[], value);
    }

    /// Registers a counter series with labels.
    pub fn counter_with(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        self.push(name, labels, SampleKind::Counter, value as f64);
    }

    /// Registers a gauge series without labels.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauge_with(name, &[], value);
    }

    /// Registers a gauge series with labels.
    pub fn gauge_with(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.push(name, labels, SampleKind::Gauge, value);
    }

    fn push(&mut self, name: &str, labels: &[(&str, &str)], kind: SampleKind, value: f64) {
        self.samples.push(Sample {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            kind,
            value,
        });
    }

    /// Absorbs per-stage latency histograms: a count counter plus
    /// `p50/p99/p999` quantile gauges per stage.
    pub fn absorb_stages(&mut self, stages: &StageStats) {
        for stage in Stage::ALL {
            let h = stages.stage(stage);
            self.counter_with(
                "grouting_stage_observations_total",
                &[("stage", stage.name())],
                h.count(),
            );
            self.absorb_quantiles("grouting_stage_latency_ns", &[("stage", stage.name())], h);
        }
    }

    /// Absorbs one histogram as quantile gauges (skipped while empty).
    pub fn absorb_quantiles(&mut self, name: &str, labels: &[(&str, &str)], h: &Histogram) {
        for (q, v) in [("p50", h.p50()), ("p99", h.p99()), ("p999", h.p999())] {
            if let Some(v) = v {
                let mut labelled: Vec<(&str, &str)> = labels.to_vec();
                labelled.push(("quantile", q));
                self.gauge_with(name, &labelled, v as f64);
            }
        }
    }

    /// Absorbs reactor/connection telemetry totals.
    pub fn absorb_reactor(&mut self, r: &ReactorStats) {
        self.counter("grouting_reactor_busy_ns_total", r.busy_ns);
        self.counter("grouting_reactor_idle_ns_total", r.idle_ns);
        self.counter("grouting_reactor_frames_in_total", r.frames_in);
        self.counter("grouting_reactor_frames_out_total", r.frames_out);
        self.counter("grouting_reactor_bytes_in_total", r.bytes_in);
        self.counter("grouting_reactor_bytes_out_total", r.bytes_out);
        self.counter("grouting_reactor_batches_total", r.batches_submitted);
        self.gauge(
            "grouting_reactor_batch_depth_peak",
            r.batch_depth_peak as f64,
        );
        self.counter("grouting_pool_checkouts_total", r.pool_checkouts);
        self.counter("grouting_pool_reused_total", r.pool_reused);
        self.gauge("grouting_pool_peak_free", r.pool_peak_free as f64);
    }

    /// Absorbs cache demand accounting.
    pub fn absorb_cache(&mut self, hits: u64, misses: u64, evictions: u64) {
        self.counter("grouting_cache_hits_total", hits);
        self.counter("grouting_cache_misses_total", misses);
        self.counter("grouting_cache_evictions_total", evictions);
    }

    /// Absorbs failover/recovery bookkeeping.
    pub fn absorb_failover(&mut self, f: &FailoverStats) {
        self.counter("grouting_failover_redials_total", f.redials);
        self.counter("grouting_failover_replica_total", f.replica_failovers);
        self.counter(
            "grouting_failover_batches_resubmitted_total",
            f.batches_resubmitted,
        );
    }

    /// Absorbs a cumulative heatmap as per-slot demand counters;
    /// `slot_label` is `"partition"` or `"region"`.
    pub fn absorb_heat(&mut self, slot_label: &str, heat: &HeatMap) {
        for (slot, &demand) in heat.cells().iter().enumerate() {
            self.counter_with(
                &format!("grouting_{slot_label}_demand_total"),
                &[(slot_label, &slot.to_string())],
                demand,
            );
        }
    }

    /// Absorbs a decayed heat view as per-slot gauges — the
    /// recency-weighted signal a re-placement policy reads.
    pub fn absorb_decayed_heat(&mut self, slot_label: &str, view: &DecayingHeat) {
        for (slot, &demand) in view.demand().iter().enumerate() {
            self.gauge_with(
                &format!("grouting_{slot_label}_heat"),
                &[(slot_label, &slot.to_string()), ("kind", "demand")],
                demand,
            );
        }
    }

    /// Freezes the current series into a pushable/scrapable snapshot.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            role: self.role,
            id: self.id,
            at_ns: self.at_ns,
            samples: self.samples.clone(),
        }
    }
}

/// A registry's series at one instant, in a wire-encodable form — the
/// payload of `ObsPush` frames.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// The node's tier.
    pub role: NodeRole,
    /// The node's id within its tier.
    pub id: u16,
    /// When the sample was taken (node-local monotonic nanoseconds).
    pub at_ns: u64,
    /// The series values.
    pub samples: Vec<Sample>,
}

/// Longest accepted name/label string on decode — an allocation guard,
/// far above anything the registry emits.
const MAX_STR: usize = 4096;

fn put_str(buf: &mut impl BufMut, s: &str) {
    buf.put_u16_le(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

fn get_str(data: &mut Reader) -> Result<String, String> {
    let len = data.u16()? as usize;
    if len > MAX_STR {
        return Err(format!("string of {len} bytes exceeds {MAX_STR}"));
    }
    String::from_utf8(data.bytes(len)?.to_vec()).map_err(|_| "string is not UTF-8".to_string())
}

impl RegistrySnapshot {
    /// Appends the little-endian wire layout.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.role.as_u8());
        buf.put_u16_le(self.id);
        buf.put_u64_le(self.at_ns);
        buf.put_u32_le(self.samples.len() as u32);
        for s in &self.samples {
            put_str(buf, &s.name);
            buf.put_u8(s.kind.as_u8());
            buf.put_u8(s.labels.len() as u8);
            for (k, v) in &s.labels {
                put_str(buf, k);
                put_str(buf, v);
            }
            buf.put_u64_le(s.value.to_bits());
        }
    }

    /// Decodes one snapshot from the front of `data`, consuming exactly
    /// its own bytes.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation on truncated or invalid
    /// input.
    pub fn decode_prefix(data: &mut Reader) -> Result<Self, String> {
        let role = NodeRole::from_u8(data.u8()?)?;
        let id = data.u16()?;
        let at_ns = data.u64()?;
        let n = data.u32()? as usize;
        // Each sample takes at least 12 bytes (empty name, no labels), and
        // each label four.
        let samples = data.list(n, 12, |data| {
            let name = get_str(data)?;
            let kind = SampleKind::from_u8(data.u8()?)?;
            let nlabels = data.u8()? as usize;
            let labels = data.list(nlabels, 4, |data| Ok((get_str(data)?, get_str(data)?)))?;
            Ok(Sample {
                name,
                labels,
                kind,
                value: f64::from_bits(data.u64()?),
            })
        })?;
        Ok(Self {
            role,
            id,
            at_ns,
            samples,
        })
    }
}

/// Renders snapshots as the Prometheus plain-text exposition: every
/// series gets the implicit `node="role-id"` label, `# TYPE` comments
/// are emitted once per metric name, and counters print as integers.
pub fn render_prometheus(snapshots: &[&RegistrySnapshot]) -> String {
    use std::collections::HashSet;
    use std::fmt::Write as _;

    let mut out = String::new();
    let mut typed: HashSet<&str> = HashSet::new();
    for snap in snapshots {
        let node = snap.role.node_name(snap.id);
        for s in &snap.samples {
            if typed.insert(s.name.as_str()) {
                let kind = match s.kind {
                    SampleKind::Counter => "counter",
                    SampleKind::Gauge => "gauge",
                };
                let _ = writeln!(out, "# TYPE {} {kind}", s.name);
            }
            let mut labels = format!("node=\"{node}\"");
            for (k, v) in &s.labels {
                let _ = write!(labels, ",{k}=\"{v}\"");
            }
            match s.kind {
                SampleKind::Counter => {
                    let _ = writeln!(out, "{}{{{labels}}} {}", s.name, s.value as u64);
                }
                SampleKind::Gauge => {
                    let _ = writeln!(out, "{}{{{labels}}} {}", s.name, s.value);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn encode(s: &RegistrySnapshot) -> Bytes {
        let mut buf = Vec::new();
        s.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Decodes `bytes` whole: one snapshot, then the end of the input.
    fn decode(bytes: Bytes) -> Result<RegistrySnapshot, String> {
        let mut data = Reader::new(bytes);
        let s = RegistrySnapshot::decode_prefix(&mut data)?;
        match data.remaining() {
            0 => Ok(s),
            n => Err(format!("{n} trailing bytes")),
        }
    }

    fn sample_registry() -> Registry {
        let mut r = Registry::new(NodeRole::Processor, 2);
        r.begin(1_000);
        r.absorb_cache(80, 20, 3);
        r.absorb_failover(&FailoverStats {
            redials: 1,
            replica_failovers: 0,
            batches_resubmitted: 2,
        });
        let mut heat = HeatMap::new();
        heat.record_demand(0, 15);
        heat.record_demand(1, 4);
        r.absorb_heat("partition", &heat);
        r
    }

    #[test]
    fn registry_fills_and_clears() {
        let mut r = sample_registry();
        let snap = r.snapshot();
        assert_eq!(snap.role, NodeRole::Processor);
        assert_eq!(snap.id, 2);
        assert_eq!(snap.at_ns, 1_000);
        // Three cache, three failover and two heat series.
        assert_eq!(snap.samples.len(), 8);
        r.begin(2_000);
        assert!(r.snapshot().samples.is_empty(), "begin clears the interval");
    }

    #[test]
    fn absorb_stages_emits_counts_and_quantiles() {
        let mut stages = StageStats::new();
        stages.record(Stage::Compute, 1_000);
        stages.record(Stage::Compute, 2_000);
        let mut r = Registry::new(NodeRole::Router, 0);
        r.begin(0);
        r.absorb_stages(&stages);
        let snap = r.snapshot();
        let compute_count = snap
            .samples
            .iter()
            .find(|s| {
                s.name == "grouting_stage_observations_total"
                    && s.labels.contains(&("stage".into(), "compute".into()))
            })
            .expect("compute count series");
        assert_eq!(compute_count.value, 2.0);
        assert!(snap.samples.iter().any(|s| {
            s.name == "grouting_stage_latency_ns"
                && s.labels.contains(&("quantile".into(), "p50".into()))
        }));
        // Empty stages have no quantiles, only zero counts.
        assert!(!snap.samples.iter().any(|s| s
            .labels
            .contains(&("stage".into(), "router_queue".into()))
            && s.name == "grouting_stage_latency_ns"));
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample_registry().snapshot();
        assert_eq!(decode(encode(&snap)).unwrap(), snap);
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let bytes = encode(&sample_registry().snapshot());
        for cut in 0..bytes.len() {
            assert!(decode(bytes.slice(0..cut)).is_err(), "cut {cut}");
        }
        let mut raw = bytes.to_vec();
        raw.push(0);
        assert!(decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn decode_rejects_hostile_sample_count() {
        let mut buf = Vec::new();
        buf.put_u8(0);
        buf.put_u16_le(0);
        buf.put_u64_le(0);
        buf.put_u32_le(u32::MAX);
        assert!(decode(Bytes::from(buf)).is_err());
    }

    #[test]
    fn prometheus_rendering_is_scrapeable() {
        let proc_snap = sample_registry().snapshot();
        let mut router = Registry::new(NodeRole::Router, 0);
        router.begin(5_000);
        router.counter("grouting_queries_total", 100);
        let router_snap = router.snapshot();
        let text = render_prometheus(&[&router_snap, &proc_snap]);
        assert!(text.contains("# TYPE grouting_queries_total counter"));
        assert!(text.contains("grouting_queries_total{node=\"router\"} 100"));
        assert!(text.contains("grouting_cache_hits_total{node=\"proc-2\"} 80"));
        assert!(
            text.contains("grouting_partition_demand_total{node=\"proc-2\",partition=\"0\"} 15")
        );
        // One TYPE line per metric name, not per series.
        assert_eq!(
            text.matches("# TYPE grouting_partition_demand_total")
                .count(),
            1
        );
    }

    #[test]
    fn series_key_includes_labels() {
        let s = Sample {
            name: "x_total".into(),
            labels: vec![("a".into(), "1".into())],
            kind: SampleKind::Counter,
            value: 0.0,
        };
        assert_eq!(s.series_key(), "x_total{a=\"1\"}");
    }

    proptest::proptest! {
        #[test]
        fn prop_snapshot_round_trips(
            role_tag in 0u8..3,
            id in 0u16..64,
            at_ns in 0u64..1 << 60,
            samples in proptest::collection::vec(
                (proptest::num::u64::ANY, 0usize..4, proptest::bool::ANY, 0.0f64..1e12),
                0..12,
            ),
        ) {
            let snap = RegistrySnapshot {
                role: NodeRole::from_u8(role_tag).unwrap(),
                id,
                at_ns,
                samples: samples
                    .into_iter()
                    .map(|(seed, nlabels, counter, value)| Sample {
                        name: format!("grouting_series_{:x}_total", seed & 0xFFFF),
                        labels: (0..nlabels)
                            .map(|i| (format!("k{i}"), format!("v{:x}", (seed >> (8 * i)) & 0xFF)))
                            .collect(),
                        kind: if counter { SampleKind::Counter } else { SampleKind::Gauge },
                        value,
                    })
                    .collect(),
            };
            proptest::prop_assert_eq!(decode(encode(&snap)).unwrap(), snap);
        }
    }
}
