//! Serializable end-of-run measurement snapshots.
//!
//! When the cluster runs over a real wire (`grouting-wire`), the router is
//! the only node that sees every completion, so the client learns the
//! run's totals from a single snapshot frame the router emits at shutdown.
//! The snapshot carries exactly the counters every runtime already
//! accumulates — queries, hits, misses, evictions, steals, failover
//! recoveries, and the per-processor service counts — in a compact
//! little-endian encoding.

use bytes::{Buf, BufMut, Bytes};

use crate::heat::HeatMap;

/// Recovery work one fetch path performed: how often a storage connection
/// was re-established, how often a fetch had to move to another replica in
/// its chain, and how many in-flight batches were resubmitted after a
/// connection died. Strictly bookkeeping — the demand counters in
/// [`RunSnapshot`] are unchanged by any of these events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailoverStats {
    /// Storage connections re-established (any redial that replaced a live
    /// or dead connection, whether it landed on the primary or a replica).
    pub redials: u64,
    /// Redials that landed on a non-primary replica of the chain — the
    /// primary endpoint was unreachable and the fetch moved down the chain.
    pub replica_failovers: u64,
    /// In-flight batch requests resubmitted on a fresh connection after
    /// their original connection died mid-round-trip.
    pub batches_resubmitted: u64,
}

impl FailoverStats {
    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &FailoverStats) {
        self.redials += other.redials;
        self.replica_failovers += other.replica_failovers;
        self.batches_resubmitted += other.batches_resubmitted;
    }
}

/// Totals of one complete run, in a wire-encodable form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSnapshot {
    /// Queries completed.
    pub queries: u64,
    /// Cache hits across processors (Eq. 8 numerator).
    pub cache_hits: u64,
    /// Cache misses across processors (Eq. 9 numerator).
    pub cache_misses: u64,
    /// Cache evictions observed.
    pub evictions: u64,
    /// Queries served by a non-preferred processor.
    pub stolen: u64,
    /// Speculative nodes appended to frontier batches (prefetch traffic —
    /// accounted apart from the Eq. 8/9 demand counters above).
    pub prefetch_issued: u64,
    /// Demand accesses served from the speculative staging buffer
    /// ("hit because prefetched": still a demand miss above, but one whose
    /// round trip was already paid).
    pub prefetch_hits: u64,
    /// Speculatively fetched bytes dropped without ever being demanded.
    pub prefetch_wasted_bytes: u64,
    /// Storage connections re-established across all processors.
    pub redials: u64,
    /// Storage fetches that failed over to a non-primary replica endpoint.
    pub replica_failovers: u64,
    /// In-flight fetch batches resubmitted after a connection died.
    pub batches_resubmitted: u64,
    /// Outstanding dispatch windows the router resubmitted because their
    /// processor died mid-run (one count per death with work in flight).
    pub windows_resubmitted: u64,
    /// Queries served per processor (index = processor id).
    pub per_processor: Vec<u64>,
    /// Demand vs speculative adjacency fetches per storage partition
    /// (slot = storage server id) — the workload heatmap a re-placement
    /// policy reads.
    pub partition_heat: HeatMap,
    /// Demand (dispatches) vs speculative fetches per landmark region
    /// (slot = landmark index); empty when no landmark asset is deployed.
    pub region_heat: HeatMap,
}

impl RunSnapshot {
    /// Cache hit rate in `[0, 1]` (Eq. 8).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Fraction of issued speculations that were demanded, in `[0, 1]`.
    pub fn prefetch_hit_rate(&self) -> f64 {
        if self.prefetch_issued == 0 {
            0.0
        } else {
            self.prefetch_hits as f64 / self.prefetch_issued as f64
        }
    }

    /// Adds another snapshot's totals into this one (counters sum;
    /// per-processor counts sum element-wise, growing to the longer list).
    /// This is how partial snapshots — e.g. one per router epoch, or one
    /// per deployment in a sweep — combine into a whole.
    pub fn merge(&mut self, other: &RunSnapshot) {
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.evictions += other.evictions;
        self.stolen += other.stolen;
        self.prefetch_issued += other.prefetch_issued;
        self.prefetch_hits += other.prefetch_hits;
        self.prefetch_wasted_bytes += other.prefetch_wasted_bytes;
        self.redials += other.redials;
        self.replica_failovers += other.replica_failovers;
        self.batches_resubmitted += other.batches_resubmitted;
        self.windows_resubmitted += other.windows_resubmitted;
        if self.per_processor.len() < other.per_processor.len() {
            self.per_processor.resize(other.per_processor.len(), 0);
        }
        for (mine, theirs) in self.per_processor.iter_mut().zip(&other.per_processor) {
            *mine += theirs;
        }
        self.partition_heat.merge(&other.partition_heat);
        self.region_heat.merge(&other.region_heat);
    }

    /// Encoded size in bytes (matches `encode().len()` exactly).
    pub fn encoded_len(&self) -> usize {
        8 * 12
            + 4
            + 8 * self.per_processor.len()
            + self.partition_heat.encoded_len()
            + self.region_heat.encoded_len()
    }

    /// Encodes to the little-endian wire layout.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.put_u64_le(self.queries);
        buf.put_u64_le(self.cache_hits);
        buf.put_u64_le(self.cache_misses);
        buf.put_u64_le(self.evictions);
        buf.put_u64_le(self.stolen);
        buf.put_u64_le(self.prefetch_issued);
        buf.put_u64_le(self.prefetch_hits);
        buf.put_u64_le(self.prefetch_wasted_bytes);
        buf.put_u64_le(self.redials);
        buf.put_u64_le(self.replica_failovers);
        buf.put_u64_le(self.batches_resubmitted);
        buf.put_u64_le(self.windows_resubmitted);
        buf.put_u32_le(self.per_processor.len() as u32);
        for &c in &self.per_processor {
            buf.put_u64_le(c);
        }
        self.partition_heat.encode_into(&mut buf);
        self.region_heat.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Decodes from the wire layout, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation on truncated or oversized
    /// input.
    pub fn decode(mut data: Bytes) -> Result<Self, String> {
        let snapshot = Self::decode_prefix(&mut data)?;
        if data.has_remaining() {
            return Err(format!(
                "{} trailing bytes after snapshot",
                data.remaining()
            ));
        }
        Ok(snapshot)
    }

    /// Decodes one snapshot from the front of `data`, consuming exactly
    /// its own bytes and leaving any remainder untouched — the hook frames
    /// use to carry optional sections (e.g. a trace snapshot) after it.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation on truncated input.
    pub fn decode_prefix(data: &mut Bytes) -> Result<Self, String> {
        if data.remaining() < 8 * 12 + 4 {
            return Err(format!(
                "snapshot header needs 100 bytes, have {}",
                data.remaining()
            ));
        }
        let queries = data.get_u64_le();
        let cache_hits = data.get_u64_le();
        let cache_misses = data.get_u64_le();
        let evictions = data.get_u64_le();
        let stolen = data.get_u64_le();
        let prefetch_issued = data.get_u64_le();
        let prefetch_hits = data.get_u64_le();
        let prefetch_wasted_bytes = data.get_u64_le();
        let redials = data.get_u64_le();
        let replica_failovers = data.get_u64_le();
        let batches_resubmitted = data.get_u64_le();
        let windows_resubmitted = data.get_u64_le();
        let processors = data.get_u32_le() as usize;
        if data.remaining() < 8 * processors {
            return Err(format!(
                "snapshot body needs {} bytes for {processors} processors, have {}",
                8 * processors,
                data.remaining()
            ));
        }
        let per_processor = (0..processors).map(|_| data.get_u64_le()).collect();
        let partition_heat = HeatMap::decode_prefix(data)?;
        let region_heat = HeatMap::decode_prefix(data)?;
        Ok(Self {
            queries,
            cache_hits,
            cache_misses,
            evictions,
            stolen,
            prefetch_issued,
            prefetch_hits,
            prefetch_wasted_bytes,
            redials,
            replica_failovers,
            batches_resubmitted,
            windows_resubmitted,
            per_processor,
            partition_heat,
            region_heat,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunSnapshot {
        let mut partition_heat = HeatMap::new();
        partition_heat.record_demand(0, 120);
        partition_heat.record_demand(1, 80);
        partition_heat.record_speculative(1, 30);
        let mut region_heat = HeatMap::new();
        region_heat.record_demand(2, 40);
        RunSnapshot {
            queries: 1000,
            cache_hits: 800,
            cache_misses: 200,
            evictions: 13,
            stolen: 4,
            prefetch_issued: 64,
            prefetch_hits: 48,
            prefetch_wasted_bytes: 4096,
            redials: 3,
            replica_failovers: 2,
            batches_resubmitted: 5,
            windows_resubmitted: 1,
            per_processor: vec![250, 251, 249, 250],
            partition_heat,
            region_heat,
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        let bytes = s.encode();
        assert_eq!(bytes.len(), s.encoded_len());
        assert_eq!(RunSnapshot::decode(bytes).unwrap(), s);
    }

    #[test]
    fn hit_rate_math() {
        assert!((sample().hit_rate() - 0.8).abs() < 1e-12);
        assert_eq!(RunSnapshot::default().hit_rate(), 0.0);
        assert!((sample().prefetch_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(RunSnapshot::default().prefetch_hit_rate(), 0.0);
    }

    #[test]
    fn merge_sums_counters_and_per_processor() {
        let mut a = sample();
        let b = RunSnapshot {
            queries: 10,
            cache_hits: 5,
            cache_misses: 5,
            evictions: 1,
            stolen: 2,
            prefetch_issued: 6,
            prefetch_hits: 2,
            prefetch_wasted_bytes: 100,
            redials: 7,
            replica_failovers: 1,
            batches_resubmitted: 2,
            windows_resubmitted: 3,
            per_processor: vec![1, 2, 3, 4, 5],
            partition_heat: {
                let mut h = HeatMap::new();
                h.record_demand(1, 20);
                h.record_speculative(2, 6);
                h
            },
            region_heat: HeatMap::new(),
        };
        a.merge(&b);
        assert_eq!(a.queries, 1010);
        assert_eq!(a.cache_hits, 805);
        assert_eq!(a.prefetch_issued, 70);
        assert_eq!(a.prefetch_hits, 50);
        assert_eq!(a.prefetch_wasted_bytes, 4196);
        assert_eq!(a.redials, 10);
        assert_eq!(a.replica_failovers, 3);
        assert_eq!(a.batches_resubmitted, 7);
        assert_eq!(a.windows_resubmitted, 4);
        // Element-wise, grown to the longer list.
        assert_eq!(a.per_processor, vec![251, 253, 252, 254, 5]);
        // Heat maps merge element-wise too, growing to the longer map.
        assert_eq!(a.partition_heat.cell(1).demand, 100);
        assert_eq!(a.partition_heat.cell(2).speculative, 6);
        assert_eq!(a.region_heat.cell(2).demand, 40);
    }

    #[test]
    fn failover_stats_merge_sums() {
        let mut a = FailoverStats {
            redials: 1,
            replica_failovers: 2,
            batches_resubmitted: 3,
        };
        a.merge(&FailoverStats {
            redials: 10,
            replica_failovers: 20,
            batches_resubmitted: 30,
        });
        assert_eq!(
            a,
            FailoverStats {
                redials: 11,
                replica_failovers: 22,
                batches_resubmitted: 33,
            }
        );
    }

    #[test]
    fn decode_rejects_truncation_and_trailing() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(
                RunSnapshot::decode(bytes.slice(0..cut)).is_err(),
                "cut {cut}"
            );
        }
        let mut raw = bytes.to_vec();
        raw.push(0);
        assert!(RunSnapshot::decode(Bytes::from(raw)).is_err());
    }

    proptest::proptest! {
        #[test]
        fn prop_round_trip(
            queries in 0u64..u64::MAX / 2,
            hits in 0u64..1 << 40,
            misses in 0u64..1 << 40,
            evictions in 0u64..1 << 30,
            stolen in 0u64..1 << 30,
            pf_issued in 0u64..1 << 40,
            pf_hits in 0u64..1 << 40,
            pf_wasted in 0u64..1 << 40,
            redials in 0u64..1 << 30,
            failovers in 0u64..1 << 30,
            resubmitted in 0u64..1 << 30,
            windows in 0u64..1 << 30,
            per in proptest::collection::vec(0u64..1 << 50, 0..12),
            part_heat in proptest::collection::vec((0u64..1 << 50, 0u64..1 << 50), 0..8),
            reg_heat in proptest::collection::vec((0u64..1 << 50, 0u64..1 << 50), 0..8),
        ) {
            let mut partition_heat = HeatMap::new();
            for (slot, (d, sp)) in part_heat.iter().enumerate() {
                partition_heat.record_demand(slot, *d);
                partition_heat.record_speculative(slot, *sp);
            }
            let mut region_heat = HeatMap::new();
            for (slot, (d, sp)) in reg_heat.iter().enumerate() {
                region_heat.record_demand(slot, *d);
                region_heat.record_speculative(slot, *sp);
            }
            let s = RunSnapshot {
                queries,
                cache_hits: hits,
                cache_misses: misses,
                evictions,
                stolen,
                prefetch_issued: pf_issued,
                prefetch_hits: pf_hits,
                prefetch_wasted_bytes: pf_wasted,
                redials,
                replica_failovers: failovers,
                batches_resubmitted: resubmitted,
                windows_resubmitted: windows,
                per_processor: per,
                partition_heat,
                region_heat,
            };
            let bytes = s.encode();
            proptest::prop_assert_eq!(bytes.len(), s.encoded_len());
            proptest::prop_assert_eq!(RunSnapshot::decode(bytes).unwrap(), s);
        }
    }
}
