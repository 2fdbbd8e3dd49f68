//! Workload heatmaps: demand access tallies per slot.
//!
//! A [`HeatMap`] counts, per *slot* (a storage partition, or a landmark
//! region), how many adjacency accesses the workload demanded. The
//! counters are cumulative integers and are counted unconditionally on
//! the hot paths, so they are exactly reproducible run-to-run — the
//! agreement tests pin them byte-identical with observability sampling on
//! or off. [`DecayingHeat`] derives a recency-weighted view from periodic
//! cumulative observations; that view is what a re-placement policy (and
//! the scrape endpoint) should read, while the raw map is what crosses
//! the wire in snapshots.

use bytes::BufMut;
use grouting_graph::codec::Reader;

/// Cumulative demand tallies over a dense slot range.
///
/// Slots grow on first touch, so callers never size the map up front;
/// merging grows to the longer of the two maps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeatMap {
    /// Per slot: accesses the query execution itself required (cache-miss
    /// fetches for partitions; dispatched queries for landmark regions).
    cells: Vec<u64>,
}

impl HeatMap {
    /// An empty map (no slots observed yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots observed so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no slot has been observed.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Every slot's demand, index = slot.
    pub fn cells(&self) -> &[u64] {
        &self.cells
    }

    /// The demand of `slot` (zero if never touched).
    pub fn cell(&self, slot: usize) -> u64 {
        self.cells.get(slot).copied().unwrap_or_default()
    }

    /// Counts `n` demand accesses against `slot`.
    #[inline]
    pub fn record_demand(&mut self, slot: usize, n: u64) {
        if self.cells.len() <= slot {
            self.cells.resize(slot + 1, 0);
        }
        self.cells[slot] += n;
    }

    /// Sum of demand tallies across slots.
    pub fn total_demand(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// Adds another map's tallies into this one (element-wise, growing to
    /// the longer map).
    pub fn merge(&mut self, other: &HeatMap) {
        if self.cells.len() < other.cells.len() {
            self.cells.resize(other.cells.len(), 0);
        }
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            *mine += theirs;
        }
    }

    /// Appends the little-endian wire layout: u32 slot count, then one
    /// u64 demand per slot.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.cells.len() as u32);
        for &demand in &self.cells {
            buf.put_u64_le(demand);
        }
    }

    /// Decodes one map from the front of `data`, consuming exactly its own
    /// bytes (the same prefix contract as `RunSnapshot::decode_prefix`).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation on truncated input.
    pub fn decode_prefix(data: &mut Reader) -> Result<Self, String> {
        let slots = data.u32()? as usize;
        let cells = data.list(slots, 8, Reader::u64)?;
        Ok(Self { cells })
    }
}

/// A recency-weighted view of a cumulative [`HeatMap`].
///
/// Feed it the current cumulative map at each sampling tick; it decays the
/// running value by `exp(-dt / tau)` and adds the interval's delta, so a
/// slot that stops being accessed cools toward zero with time constant
/// `tau` while the underlying integer counters stay monotone and
/// deterministic.
#[derive(Debug, Clone)]
pub struct DecayingHeat {
    tau_ns: f64,
    last_ns: Option<u64>,
    last: HeatMap,
    demand: Vec<f64>,
}

impl DecayingHeat {
    /// A view with time constant `tau_ns` (must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `tau_ns` is zero.
    pub fn new(tau_ns: u64) -> Self {
        assert!(tau_ns > 0, "zero decay time constant");
        Self {
            tau_ns: tau_ns as f64,
            last_ns: None,
            last: HeatMap::new(),
            demand: Vec::new(),
        }
    }

    /// Observes the cumulative map as of `now_ns`, decaying the running
    /// view and folding in the delta since the previous observation.
    pub fn observe(&mut self, now_ns: u64, cumulative: &HeatMap) {
        let factor = match self.last_ns {
            Some(prev) => (-(now_ns.saturating_sub(prev) as f64) / self.tau_ns).exp(),
            None => 0.0,
        };
        if self.demand.len() < cumulative.len() {
            self.demand.resize(cumulative.len(), 0.0);
        }
        for (slot, &demand) in cumulative.cells().iter().enumerate() {
            let prev = self.last.cell(slot);
            self.demand[slot] = self.demand[slot] * factor + demand.saturating_sub(prev) as f64;
        }
        // Slots beyond the new map's length (shrinking never happens with
        // cumulative inputs, but stay safe): just decay them.
        for slot in cumulative.len()..self.demand.len() {
            self.demand[slot] *= factor;
        }
        self.last = cumulative.clone();
        self.last_ns = Some(now_ns);
    }

    /// Decayed demand per slot.
    pub fn demand(&self) -> &[f64] {
        &self.demand
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn record_grows_and_counts() {
        let mut h = HeatMap::new();
        h.record_demand(2, 3);
        h.record_demand(0, 5);
        assert_eq!(h.len(), 3);
        assert_eq!(h.cell(2), 3);
        assert_eq!(h.cell(0), 5);
        assert_eq!(h.cell(1), 0);
        assert_eq!(h.cell(7), 0);
        assert_eq!(h.total_demand(), 8);
    }

    #[test]
    fn merge_grows_to_longer() {
        let mut a = HeatMap::new();
        a.record_demand(0, 1);
        let mut b = HeatMap::new();
        b.record_demand(0, 2);
        b.record_demand(3, 4);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.cell(0), 3);
        assert_eq!(a.cell(3), 4);
    }

    #[test]
    fn codec_round_trips_and_rejects_truncation() {
        let mut h = HeatMap::new();
        h.record_demand(1, 9);
        h.record_demand(0, 4);
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        let bytes = Bytes::from(buf);
        let mut data = Reader::new(bytes.clone());
        assert_eq!(HeatMap::decode_prefix(&mut data).unwrap(), h);
        assert!(!data.has_remaining());
        for cut in 0..bytes.len() {
            let mut trunc = Reader::new(bytes.slice(0..cut));
            assert!(HeatMap::decode_prefix(&mut trunc).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn decode_prefix_leaves_suffix() {
        let mut h = HeatMap::new();
        h.record_demand(0, 1);
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        buf.put_u64_le(0xDEAD);
        let mut data = Reader::new(Bytes::from(buf));
        assert_eq!(HeatMap::decode_prefix(&mut data).unwrap(), h);
        assert_eq!(data.remaining(), 8);
    }

    #[test]
    fn decay_cools_idle_slots() {
        let mut view = DecayingHeat::new(1_000);
        let mut cum = HeatMap::new();
        cum.record_demand(0, 10);
        view.observe(0, &cum);
        assert_eq!(view.demand()[0], 10.0);
        // One tau later with no new accesses: decayed by e^-1.
        view.observe(1_000, &cum);
        let cooled = view.demand()[0];
        assert!((cooled - 10.0 * (-1.0f64).exp()).abs() < 1e-9, "{cooled}");
        // New accesses land at full weight on top of the decayed residue.
        cum.record_demand(0, 5);
        view.observe(2_000, &cum);
        let expected = cooled * (-1.0f64).exp() + 5.0;
        assert!((view.demand()[0] - expected).abs() < 1e-9);
    }

    #[test]
    fn decay_tracks_new_slots() {
        let mut view = DecayingHeat::new(1_000);
        let mut cum = HeatMap::new();
        cum.record_demand(0, 2);
        view.observe(0, &cum);
        cum.record_demand(4, 7);
        view.observe(500, &cum);
        assert_eq!(view.demand().len(), 5);
        assert_eq!(view.demand()[4], 7.0);
    }

    proptest::proptest! {
        #[test]
        fn prop_heat_round_trip(
            cells in proptest::collection::vec(0u64..1 << 50, 0..24),
        ) {
            let mut h = HeatMap::new();
            for (slot, d) in cells.iter().enumerate() {
                h.record_demand(slot, *d);
            }
            let mut buf = Vec::new();
            h.encode_into(&mut buf);
            let mut data = Reader::new(Bytes::from(buf));
            proptest::prop_assert_eq!(HeatMap::decode_prefix(&mut data).unwrap(), h);
            proptest::prop_assert!(!data.has_remaining());
        }
    }
}
