//! Log-linear bucketed histogram for latency distributions.
//!
//! The paper reports *average* response times; we additionally keep a full
//! distribution so the harness can report tail percentiles. The layout is the
//! classic HdrHistogram-style log-linear scheme: values are grouped into
//! power-of-two magnitude ranges, each split into `2^precision` linear
//! sub-buckets, giving a bounded relative error of `2^-precision` with O(1)
//! record cost and a few KiB of memory.

use bytes::BufMut;
use grouting_graph::codec::Reader;
use grouting_metrics_sealed::Sealed;

mod grouting_metrics_sealed {
    /// Seals internal helper traits against downstream implementations.
    pub trait Sealed {}
}

/// Marker for types recordable into a [`Histogram`]; sealed, only `u64`.
pub trait Recordable: Sealed + Copy {
    /// Converts the value into the histogram's native `u64` domain.
    fn into_u64(self) -> u64;
}

impl Sealed for u64 {}
impl Recordable for u64 {
    fn into_u64(self) -> u64 {
        self
    }
}

const PRECISION_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << PRECISION_BITS;
const MAGNITUDES: usize = 64 - PRECISION_BITS as usize;

/// A log-linear histogram over `u64` values (typically nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; MAGNITUDES * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        // Values below SUB_BUCKETS map 1:1 into the first magnitude's linear
        // buckets; larger values select a magnitude by leading-zero count and
        // a sub-bucket from the bits just under the leading one.
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let magnitude = 63 - value.leading_zeros();
        let shift = magnitude - PRECISION_BITS;
        let sub = ((value >> shift) as usize) & (SUB_BUCKETS - 1);
        let mag_index = (magnitude - PRECISION_BITS + 1) as usize;
        mag_index * SUB_BUCKETS + sub
    }

    fn bucket_low(index: usize) -> u64 {
        let mag_index = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if mag_index == 0 {
            return sub;
        }
        let magnitude = mag_index as u32 + PRECISION_BITS - 1;
        let base = 1u64 << magnitude;
        let shift = magnitude - PRECISION_BITS;
        base + (sub << shift)
    }

    /// Records one observation.
    #[inline]
    pub fn record<V: Recordable>(&mut self, value: V) {
        let v = value.into_u64();
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the recorded values, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Smallest recorded value, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Value at quantile `q` in `[0, 1]`, approximated by bucket lower bound.
    ///
    /// Returns `None` on an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp to the observed extremes so p0/p100 are exact.
                return Some(Self::bucket_low(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Convenience accessor for the median.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// Convenience accessor for the 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Convenience accessor for the 99.9th percentile.
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all recorded data.
    pub fn reset(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Appends the little-endian sparse wire layout: the summary fields,
    /// then one `(bucket index, count)` pair per non-empty bucket in index
    /// order. Two histograms with the same recorded multiset encode
    /// identically.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        buf.put_u64_le(self.count);
        buf.put_u128_le(self.sum);
        buf.put_u64_le(self.min);
        buf.put_u64_le(self.max);
        let nonzero = self.buckets.iter().filter(|&&c| c != 0).count();
        buf.put_u32_le(nonzero as u32);
        for (i, &c) in self.buckets.iter().enumerate() {
            if c != 0 {
                buf.put_u32_le(i as u32);
                buf.put_u64_le(c);
            }
        }
    }

    /// Decodes one histogram from the front of `data`, consuming exactly
    /// its own bytes and leaving any remainder untouched.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation on truncated input,
    /// out-of-range or non-increasing bucket indexes, or a bucket/count
    /// mismatch.
    pub fn decode_prefix(data: &mut Reader) -> Result<Self, String> {
        let count = data.u64()?;
        let sum = data.u128()?;
        let min = data.u64()?;
        let max = data.u64()?;
        let nonzero = data.u32()? as usize;
        data.need(nonzero.saturating_mul(12))?;
        let mut h = Self::new();
        let mut total = 0u64;
        let mut prev: Option<usize> = None;
        for _ in 0..nonzero {
            let idx = data.u32()? as usize;
            let c = data.u64()?;
            if idx >= h.buckets.len() {
                return Err(format!("histogram bucket index {idx} out of range"));
            }
            if prev.is_some_and(|p| idx <= p) {
                return Err("histogram bucket indexes must increase".to_string());
            }
            if c == 0 {
                return Err("histogram sparse bucket with zero count".to_string());
            }
            prev = Some(idx);
            h.buckets[idx] = c;
            total = total
                .checked_add(c)
                .ok_or("histogram bucket total past u64")?;
        }
        if total != count {
            return Err(format!(
                "histogram bucket total {total} disagrees with count {count}"
            ));
        }
        h.count = count;
        h.sum = sum;
        h.min = min;
        h.max = max;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn encode(h: &Histogram) -> Bytes {
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Decodes `bytes` whole: one histogram, then the end of the input.
    fn decode(bytes: Bytes) -> Result<Histogram, String> {
        let mut data = Reader::new(bytes);
        let h = Histogram::decode_prefix(&mut data)?;
        match data.remaining() {
            0 => Ok(h),
            n => Err(format!("{n} trailing bytes")),
        }
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn exact_small_values() {
        let mut h = Histogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(31));
        // Small values land in 1:1 buckets, so quantiles are exact.
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(31));
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(100u64);
        h.record(200u64);
        h.record(300u64);
        assert_eq!(h.mean(), Some(200.0));
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = Histogram::new();
        for v in [1_000u64, 10_000, 100_000, 1_000_000, 10_000_000] {
            for _ in 0..100 {
                h.record(v);
            }
        }
        let p50 = h.p50().unwrap() as f64;
        // p50 falls on the middle value (100_000); bucket error < 2^-5.
        assert!((p50 - 100_000.0).abs() / 100_000.0 < 0.04, "p50={p50}");
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10u64);
        b.record(20u64);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(20));
        assert_eq!(a.mean(), Some(15.0));
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::new();
        h.record(42u64);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_out_of_range() {
        let h = Histogram::new();
        let _ = h.quantile(1.5);
    }

    #[test]
    fn p999_sits_at_the_tail() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(1_000u64);
        }
        h.record(1_000_000u64);
        // With 100 observations, p999 rounds up to the 100th — the single
        // outlier — while p99 still sits on the bulk.
        let p999 = h.p999().unwrap();
        assert!(p999 > 900_000, "p999={p999}");
        assert!(h.p99().unwrap() < 1_100, "p99={:?}", h.p99());
        assert_eq!(Histogram::new().p999(), None);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 31, 32, 1_000, 65_535, 1 << 30, u64::MAX / 3] {
            h.record(v);
            h.record(v);
        }
        assert_eq!(decode(encode(&h)).unwrap(), h);
    }

    #[test]
    fn empty_histogram_round_trips() {
        let h = Histogram::new();
        let decoded = decode(encode(&h)).unwrap();
        assert_eq!(decoded, h);
        assert_eq!(decoded.count(), 0);
        assert_eq!(decoded.quantile(0.5), None);
    }

    #[test]
    fn decode_rejects_malformed_input() {
        let mut h = Histogram::new();
        h.record(42u64);
        let bytes = encode(&h);
        // Truncation at every cut point.
        for cut in 0..bytes.len() {
            assert!(decode(bytes.slice(0..cut)).is_err(), "cut {cut}");
        }
        // Trailing bytes.
        let mut raw = bytes.to_vec();
        raw.push(0);
        assert!(decode(Bytes::from(raw)).is_err());
        // A bucket total disagreeing with the count field.
        let mut raw = bytes.to_vec();
        raw[0] = 2; // count says 2, the single bucket still says 1
        assert!(decode(Bytes::from(raw)).is_err());
        // Two buckets whose counts sum past u64.
        let mut raw = vec![0u8; 40];
        raw.extend_from_slice(&2u32.to_le_bytes());
        for idx in [1u32, 2] {
            raw.extend_from_slice(&idx.to_le_bytes());
            raw.extend_from_slice(&u64::MAX.to_le_bytes());
        }
        assert!(decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn decode_prefix_leaves_the_remainder() {
        let mut h = Histogram::new();
        h.record(7u64);
        let mut raw = encode(&h).to_vec();
        raw.extend_from_slice(b"tail");
        let mut data = Reader::new(Bytes::from(raw));
        assert_eq!(Histogram::decode_prefix(&mut data).unwrap(), h);
        assert_eq!(&data.bytes(data.remaining()).unwrap()[..], b"tail");
    }

    #[test]
    fn merged_histogram_encodes_like_a_combined_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [5u64, 500, 50_000] {
            a.record(v);
            both.record(v);
        }
        for v in [9u64, 900, 90_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(encode(&a), encode(&both));
        assert_eq!(a.p999(), both.p999());
    }

    #[test]
    fn bucket_index_monotone_on_boundaries() {
        // Bucket lower bounds must be non-decreasing with index so quantile
        // scans return non-decreasing values.
        let mut prev = 0;
        for i in 0..(8 * SUB_BUCKETS) {
            let low = Histogram::bucket_low(i);
            assert!(low >= prev, "bucket {i} low {low} < prev {prev}");
            prev = low;
        }
    }

    #[test]
    fn bucket_round_trip_error_bounded() {
        for v in [1u64, 31, 32, 33, 100, 1_000, 65_535, 1 << 30, u64::MAX / 2] {
            let idx = Histogram::bucket_index(v);
            let low = Histogram::bucket_low(idx);
            assert!(low <= v, "low {low} > v {v}");
            let err = (v - low) as f64 / v.max(1) as f64;
            assert!(err <= 1.0 / 32.0 + 1e-9, "v={v} low={low} err={err}");
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_bucket_low_le_value(v in 0u64..u64::MAX / 2) {
            let idx = Histogram::bucket_index(v);
            let low = Histogram::bucket_low(idx);
            proptest::prop_assert!(low <= v);
            // Relative error bound 2^-PRECISION_BITS.
            if v >= SUB_BUCKETS as u64 {
                let err = (v - low) as f64 / v as f64;
                proptest::prop_assert!(err <= 1.0 / 32.0 + 1e-9);
            } else {
                proptest::prop_assert_eq!(low, v);
            }
        }

        #[test]
        fn prop_encode_round_trips(values in proptest::collection::vec(0u64..u64::MAX / 2, 0..200)) {
            let mut h = Histogram::new();
            for v in &values {
                h.record(*v);
            }
            proptest::prop_assert_eq!(decode(encode(&h)).unwrap(), h);
        }

        #[test]
        fn prop_quantiles_monotone(values in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = Histogram::new();
            for v in &values {
                h.record(*v);
            }
            let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
            let mut prev = 0u64;
            for q in qs {
                let v = h.quantile(q).unwrap();
                proptest::prop_assert!(v >= prev, "quantile({}) = {} < {}", q, v, prev);
                prev = v;
            }
        }
    }
}
